//! The staged match pipeline: `Prepare → Block → Score → Merge → Propagate
//! → Select`.
//!
//! Every match — dense [`MatchPipeline::run`], blocked
//! [`MatchPipeline::run_blocked`] and restricted
//! [`MatchEngine::run_restricted`] — runs the same stages over a
//! [`CandidateSet`]; the three differ only in how the Block stage builds
//! that set:
//!
//! 1. **Prepare** — fetch both schemata's [`crate::prepare::PreparedSchema`]
//!    from the engine's feature cache (linguistic preprocessing runs only on
//!    a cache miss) and assemble the pairwise [`MatchContext`] (joint TF-IDF
//!    corpus).
//! 2. **Block** — the candidate pairs: the whole cross product
//!    ([`CandidateSet::exhaustive`]) for a dense run, the token-blocking
//!    index's pruned set (see [`crate::index`]) for a blocked run, and the
//!    caller's `source_ids × target_ids` ([`CandidateSet::rectangle`]) for a
//!    restricted increment. Every set is closed under parenthood, so
//!    Propagate only ever reads scored parent bases.
//! 3. **Score** — the voter panel scores every candidate pair. Candidate-
//!    bearing rows are sharded across the persistent
//!    [`crate::exec::Executor`] with chunked work-stealing: lanes repeatedly
//!    claim the next block of rows from a shared queue, so a straggler block
//!    cannot idle the other cores the way a static partition can, and the
//!    pool is shared with every concurrent pair of a batch instead of being
//!    spawned and joined per run. When the engine's score cascade is active
//!    ([`MatchEngine::cascade_active`]), Score runs in two tiers (see the
//!    private `cascade` module): tier 1 prunes candidate pairs whose provable
//!    upper bound on the merged score falls below the engine's floor, tier 2
//!    runs the remaining voter lanes SoA-style over the survivors —
//!    losslessly, the matrix stays bit-identical to the full-panel
//!    reference ([`MatchEngine::with_cascade`]`(false)`).
//! 4. **Merge** — the engine's [`crate::merger::MergeStrategy`] collapses
//!    each pair's votes into one score. Score and Merge execute as one fused
//!    parallel pass over block-sized scratch (never a full
//!    `rows × cols × voters` tensor — at the paper's 1378×784 scale that
//!    would be ~75 MB of transient allocation), timed as one `stage.score`
//!    span. Only [`StageTimings`] splits it: the span's duration is divided
//!    across `score_tier1`/`score_tier2`/`merge` in proportion to the
//!    tier-1, tier-2 and merge nanoseconds the workers measure per row, in
//!    whole nanoseconds, so `score + merge` is the span's duration (`score`
//!    is the sum of the two tiers). Traces show merge time per row, in the
//!    `merge.row` spans.
//! 5. **Propagate** — one structural pass blends every parented cell of a
//!    candidate-bearing row with its parents' merged score (the engine's
//!    `propagation_alpha`).
//! 6. **Select** — an optional [`Selection`] turns the matrix into candidate
//!    correspondences.
//!
//! Each stage from Prepare through Select runs under one [`obs::timed`]
//! call: the `stage.*` span it records is the stage's [`StageTimings`]
//! entry, one clock reading for both.
//!
//! Votes are kept in `f64` and merged exactly as `MatchEngine::score_pair`
//! does; only the merged score is narrowed to the matrix's `f32`. A cell's
//! value therefore does not depend on which other pairs are candidates: a
//! restricted increment's cells are the dense run's cells, bit for bit.

use crate::confidence::Confidence;
use crate::context::MatchContext;
use crate::correspondence::MatchSet;
use crate::engine::{BlockedMatchResult, MatchEngine, MatchResult};
use crate::index::{generate_candidates, BlockingPolicy, CandidateSet, ElementTokenIndex};
use crate::matrix::MatchMatrix;
use crate::obs;
use crate::obs::SpanKind;
use crate::prepare::PreparedSchema;
use crate::select::Selection;
use sm_schema::{ElementId, InstanceData, Schema};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock time spent in each pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Batch planning: bulk preparation of all schemata, the token index
    /// builds and pair pruning (zero on single-pair runs, whose per-pair
    /// preparation is reported under `prepare`). See [`crate::batch`].
    pub plan: Duration,
    /// Plan sub-stage: the pairwise-overlap estimate walk (zero under
    /// [`crate::batch::PlanPolicy::Exhaustive`], which never estimates).
    /// A sub-component of `plan`, not an extra stage.
    pub plan_estimate: Duration,
    /// Plan sub-stage: filtering the request list through the plan policy.
    /// A sub-component of `plan`, not an extra stage.
    pub plan_schedule: Duration,
    /// Feature-cache lookup / linguistic preprocessing + corpus assembly.
    pub prepare: Duration,
    /// Candidate generation: the token-blocking index's probe on blocked
    /// runs, building the exhaustive set on dense runs, and building the
    /// id rectangle on restricted runs.
    pub block: Duration,
    /// Voter panel over all candidate pairs. Always the sum of
    /// `score_tier1` and `score_tier2`.
    pub score: Duration,
    /// Cascade tier 1: signature/profile bound computation and pruning.
    /// Zero when the cascade is off (no score floor, a non-default panel or
    /// merger, or [`MatchEngine::with_cascade`]`(false)`). A sub-component
    /// of `score`, not an extra stage.
    pub score_tier1: Duration,
    /// Cascade tier 2 (full voter panel over surviving pairs), or the
    /// whole Score stage when the cascade is off. A sub-component of
    /// `score`, not an extra stage.
    pub score_tier2: Duration,
    /// Vote merging.
    pub merge: Duration,
    /// Structural propagation.
    pub propagate: Duration,
    /// Candidate selection (zero unless a selection ran).
    pub select: Duration,
    /// Candidate pairs the cascade's tier-1 bound pruned (their expensive
    /// voters never ran; the merged matrix is provably unchanged).
    pub pairs_pruned: u64,
    /// Candidate pairs scored by the full voter panel (tier-2 survivors,
    /// or every scored pair when the cascade is off).
    pub pairs_full: u64,
}

impl StageTimings {
    /// Total time across all stages. The tier sub-components are already
    /// counted inside `score` and must not be added again.
    pub fn total(&self) -> Duration {
        self.plan
            + self.prepare
            + self.block
            + self.score
            + self.merge
            + self.propagate
            + self.select
    }

    /// Accumulate another run's stage times into this one (batch
    /// aggregation).
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.plan += other.plan;
        self.plan_estimate += other.plan_estimate;
        self.plan_schedule += other.plan_schedule;
        self.prepare += other.prepare;
        self.block += other.block;
        self.score += other.score;
        self.score_tier1 += other.score_tier1;
        self.score_tier2 += other.score_tier2;
        self.merge += other.merge;
        self.propagate += other.propagate;
        self.select += other.select;
        self.pairs_pruned += other.pairs_pruned;
        self.pairs_full += other.pairs_full;
    }
}

/// Prepare, under its `stage.prepare` span (payload = the pair corpus's
/// documents, one per element of either schema): `prepare` fetches both
/// preparations, then the pair context is assembled. They come from the
/// engine's cache, so the trusted (no re-fingerprint) assembly applies.
fn prepare_stage<'a>(
    source: &'a Schema,
    target: &'a Schema,
    instances: [&InstanceData; 2],
    prepare: impl FnOnce() -> [Arc<PreparedSchema>; 2],
) -> ((MatchContext<'a>, [Arc<PreparedSchema>; 2]), Duration) {
    let documents = (source.len() + target.len()) as u64;
    obs::timed(
        SpanKind::StagePrepare,
        |_| documents,
        || {
            let prepared = prepare();
            let ctx = MatchContext::from_prepared_trusted(
                source,
                target,
                &prepared[0],
                &prepared[1],
                instances[0],
                instances[1],
            );
            (ctx, prepared)
        },
    )
}

/// Per-worker CPU-time totals and the tier-1 exits of the fused
/// Score/Merge pass. The times split the `stage.score` span's duration
/// across [`StageTimings`]' score tiers and merge; on the reference
/// (non-cascade) path all score time lands in `tier2`.
#[derive(Default)]
struct FusedStats {
    tier1: Duration,
    tier2: Duration,
    merge: Duration,
    /// Where tier 1 settled the scored pairs (all zero without the cascade).
    exits: crate::cascade::Tier1Exits,
}

/// A staged execution of the engine's match configuration.
///
/// Obtained from [`MatchEngine::pipeline`]; borrows the engine's voter panel,
/// merger, feature cache, and threading configuration.
pub struct MatchPipeline<'e> {
    engine: &'e MatchEngine,
}

impl<'e> MatchPipeline<'e> {
    pub(crate) fn new(engine: &'e MatchEngine) -> Self {
        MatchPipeline { engine }
    }

    /// The dense run: Prepare, then every pair of the cross product
    /// through Score, Merge and Propagate (no selection).
    pub fn run(&self, source: &Schema, target: &Schema) -> MatchResult {
        let none = InstanceData::empty();
        self.run_with_instances(source, target, &none, &none)
    }

    /// [`Self::run`] with sampled instance data in the pair context (see
    /// [`MatchEngine::run_with_instances`]).
    pub(crate) fn run_with_instances(
        &self,
        source: &Schema,
        target: &Schema,
        source_instances: &InstanceData,
        target_instances: &InstanceData,
    ) -> MatchResult {
        let started = Instant::now();
        let instances = [source_instances, target_instances];
        let ((ctx, _), prepare) = prepare_stage(source, target, instances, || {
            [self.engine.prepare(source), self.engine.prepare(target)]
        });
        let mut timings = StageTimings {
            prepare,
            ..StageTimings::default()
        };
        let (candidates, matrix) = self.run_candidates(&ctx, &mut timings, || {
            CandidateSet::exhaustive(source.len(), target.len())
        });
        MatchResult {
            matrix,
            elapsed: started.elapsed(),
            pairs_considered: candidates.len(),
            timings,
        }
    }

    /// [`Self::run`], then `selection` applied to the final matrix.
    pub fn run_select(
        &self,
        source: &Schema,
        target: &Schema,
        selection: &Selection,
    ) -> (MatchResult, MatchSet) {
        let mut run = self.run(source, target);
        let selected;
        (selected, run.timings.select) = selection.apply_timed(&run.matrix);
        (run, selected)
    }

    /// Run the blocked pipeline: Prepare → Block → Score/Merge → Propagate
    /// over the blocking index's candidates.
    ///
    /// The Block stage probes both preparations' token indices (a
    /// preparation's first blocked use builds its index) and lets `policy`
    /// prune the cross product to a [`CandidateSet`]; only
    /// candidates are scored. Propagation densifies exactly the rows that
    /// have candidates: every cell of such a row with a parented target is
    /// blended with its parents' base score (the parent pair is itself a
    /// candidate by construction, so the base read is always a *scored*
    /// value). With [`BlockingPolicy::Exhaustive`] the result is
    /// byte-identical to [`Self::run`].
    pub fn run_blocked(
        &self,
        source: &Schema,
        target: &Schema,
        policy: &BlockingPolicy,
    ) -> BlockedMatchResult {
        // The per-schema preparations belong to this run's Prepare stage
        // (on a cold cache they dominate it); the batch planner reports
        // them under its Plan stage instead.
        self.blocked(source, target, None, policy, || {
            [self.engine.prepare(source), self.engine.prepare(target)]
        })
    }

    /// The blocked pipeline against already-prepared schemata — the batch
    /// planner's per-pair entry point — optionally over caller-built token
    /// indices.
    ///
    /// `prepared_*` must be the preparations of exactly these schemata (the
    /// batch fetches them from the engine's content-fingerprint-keyed cache,
    /// which guarantees it); when `indices` is `Some((source_index,
    /// target_index))` they must be built over the same preparations, and
    /// without them the preparations' own indices are read. Output is
    /// byte-identical to [`Self::run_blocked`] either way.
    pub fn run_blocked_prepared(
        &self,
        source: &Schema,
        target: &Schema,
        prepared_source: &Arc<PreparedSchema>,
        prepared_target: &Arc<PreparedSchema>,
        indices: Option<(&ElementTokenIndex, &ElementTokenIndex)>,
        policy: &BlockingPolicy,
    ) -> BlockedMatchResult {
        self.blocked(source, target, indices, policy, || {
            [Arc::clone(prepared_source), Arc::clone(prepared_target)]
        })
    }

    /// The blocked run: Prepare with the preparations `prepare` fetches,
    /// Block over token indices (`indices`, or the preparations' own), then
    /// Score → Merge → Propagate. Both probe directions and any first-use
    /// index builds fan out across the engine's executor lanes.
    fn blocked(
        &self,
        source: &Schema,
        target: &Schema,
        indices: Option<(&ElementTokenIndex, &ElementTokenIndex)>,
        policy: &BlockingPolicy,
        prepare: impl FnOnce() -> [Arc<PreparedSchema>; 2],
    ) -> BlockedMatchResult {
        let started = Instant::now();
        let none = InstanceData::empty();
        let ((ctx, [prepared_source, prepared_target]), prepare) =
            prepare_stage(source, target, [&none, &none], prepare);
        let mut timings = StageTimings {
            prepare,
            ..StageTimings::default()
        };
        let (candidates, matrix) = self.run_candidates(&ctx, &mut timings, || {
            generate_candidates(
                source,
                target,
                &prepared_source,
                &prepared_target,
                indices,
                policy,
                self.engine.job(),
            )
        });
        BlockedMatchResult {
            matrix,
            elapsed: started.elapsed(),
            pairs_considered: source.len() * target.len(),
            pairs_scored: candidates.len(),
            candidates,
            timings,
        }
    }

    /// Block, then Score → Merge → Propagate: the one implementation behind
    /// dense, blocked and restricted runs, which differ only in the
    /// candidate set `block` builds. Cells outside the set keep the neutral
    /// `0.0` until Propagate blends them.
    pub(crate) fn run_candidates(
        &self,
        ctx: &MatchContext<'_>,
        timings: &mut StageTimings,
        block: impl FnOnce() -> CandidateSet,
    ) -> (CandidateSet, MatchMatrix) {
        let candidates;
        (candidates, timings.block) = obs::timed(
            SpanKind::StageBlock,
            |candidates: &CandidateSet| candidates.len() as u64,
            block,
        );
        // Stage boundary: a token tripped during Block stops before Score
        // allocates the matrix.
        self.engine.job().checkpoint();
        let mut matrix = MatchMatrix::new(ctx.source.len(), ctx.target.len());
        if candidates.is_empty() {
            return (candidates, matrix);
        }

        // Score and Merge, fused, under one span. Its duration is split in
        // proportion to the workers' tier-1/tier-2/merge nanoseconds, in
        // whole nanoseconds, so `score + merge` is the span exactly.
        let (stats, fused) = obs::timed(
            SpanKind::StageScore,
            |_| candidates.len() as u64,
            || self.score_and_merge(ctx, &mut matrix, &candidates),
        );
        let measured = (stats.tier1 + stats.tier2 + stats.merge).as_nanos().max(1);
        let share =
            |d: Duration| Duration::from_nanos((fused.as_nanos() * d.as_nanos() / measured) as u64);
        timings.score_tier1 = share(stats.tier1);
        timings.score_tier2 = share(stats.tier2);
        timings.score = timings.score_tier1 + timings.score_tier2;
        timings.merge = fused - timings.score;
        timings.pairs_pruned = stats.exits.pruned();
        timings.pairs_full = candidates.len() as u64 - timings.pairs_pruned;
        obs::add(obs::Counter::CascadePairsPruned, timings.pairs_pruned);
        if self.engine.cascade_active() {
            obs::add(obs::Counter::CascadePairsFull, timings.pairs_full);
            let exits = &stats.exits;
            debug_assert_eq!(exits.final_survive, timings.pairs_full);
            obs::add(obs::Counter::CascadeCoarsePrune, exits.coarse_prune);
            obs::add(obs::Counter::CascadePhaseAPrune, exits.phase_a_prune);
            obs::add(obs::Counter::CascadeFinalSurvive, exits.final_survive);
        }

        (_, timings.propagate) = obs::timed(
            SpanKind::StagePropagate,
            |&rows| rows as u64,
            || {
                if self.engine.propagation_alpha > 0.0 {
                    self.propagate(ctx.source, ctx.target, &mut matrix, &candidates)
                } else {
                    0
                }
            },
        );
        (candidates, matrix)
    }

    /// Rows per work-stealing block: small enough that every worker claims
    /// several blocks (smoothing out uneven row costs), large enough that
    /// queue traffic is noise.
    fn block_rows(&self, rows: usize, threads: usize) -> usize {
        (rows / (threads * 4)).clamp(1, 64)
    }

    /// Score and Merge, fused: only the candidate pairs are scored, and
    /// non-candidates are left at the matrix's neutral `0.0`. Each pair's
    /// arithmetic (voter order, `f64` vote buffer, merge) is independent of
    /// the rest of the set, so a cell is bit-identical whichever candidate
    /// set it was scored in. Work-stealing operates on blocks of
    /// *candidate-bearing rows* — rows without candidates cost nothing —
    /// claimed through the engine's [`crate::exec::Job`], each lane reusing
    /// one scratch `Worker`. Returns the per-block CPU-time totals, summed
    /// in block order, that split the `stage.score` span's duration.
    ///
    /// With [`MatchEngine::cascade_active`] the pass dispatches to the
    /// two-tier cascade kernels in [`crate::cascade`] instead of the
    /// reference full-panel loop; pruned pairs are written as `0.0`, which
    /// the floor would have written anyway (that is the cascade's
    /// losslessness invariant, pinned by `tests/cascade_pin.rs`).
    fn score_and_merge(
        &self,
        ctx: &MatchContext<'_>,
        matrix: &mut MatchMatrix,
        candidates: &CandidateSet,
    ) -> FusedStats {
        let voters = &self.engine.voters;
        let merger = &self.engine.merger;
        // No floor is a floor of -∞: `merged < floor` is never true and
        // every merged value is written verbatim. The comparison runs on
        // the f64 merged value before the f32 narrowing, so floored and
        // unfloored runs agree bit-for-bit on every surviving cell.
        let floor = self.engine.score_floor.unwrap_or(f64::NEG_INFINITY);
        let nv = voters.len();
        let cols = ctx.target.len();

        // Candidate-bearing rows, paired with their mutable matrix rows.
        let work: Vec<(usize, &mut [f32], &[u32])> = matrix
            .as_mut_slice()
            .chunks_mut(cols.max(1))
            .enumerate()
            .filter_map(|(r, slice)| {
                let cand = candidates.row(r);
                (!cand.is_empty()).then_some((r, slice, cand))
            })
            .collect();
        let job = self.engine.job();
        let threads = job.width().min(work.len()).max(1);
        let block_rows = self.block_rows(work.len(), threads);
        let cascade = self.engine.cascade_active();
        debug_assert!(!cascade || nv == crate::cascade::LANES);

        #[derive(Default)]
        struct Worker {
            row: crate::cascade::CascadeScratch,
            votes: Vec<f64>,
            scratch: Vec<Confidence>,
            stats: FusedStats,
        }

        // Cascade: each phase runs under `obs::timed`, which both feeds the
        // per-worker time totals (the stage split) and, when recording is
        // on, emits one span per row and phase.
        let tier1 = cascade.then(|| crate::cascade::Tier1::new(ctx, floor));
        let cascade_block = |block: &mut [(usize, &mut [f32], &[u32])], w: &mut Worker| {
            let tier1 = tier1.as_ref().expect("cascade pass has its tier-1 tables");
            for (r, slice, cand) in block.iter_mut() {
                let s = ElementId(*r as u32);
                let row_id = *r as u64;
                let row = &mut w.row;
                let (exits, tier1_time) = obs::timed(
                    SpanKind::ScoreTier1,
                    |_| row_id,
                    || tier1.row(s, cand, slice, row),
                );
                let ((), tier2_time) = obs::timed(
                    SpanKind::ScoreTier2,
                    |_| row_id,
                    || crate::cascade::tier2_row(ctx, s, row),
                );
                let ((), merge_time) = obs::timed(
                    SpanKind::MergeRow,
                    |_| row_id,
                    || crate::cascade::merge_row(merger, floor, row, slice),
                );
                w.stats.exits.add(&exits);
                w.stats.tier1 += tier1_time;
                w.stats.tier2 += tier2_time;
                w.stats.merge += merge_time;
            }
        };

        // Full-panel reference: all score time lands in `tier2`.
        let reference_block = |block: &mut [(usize, &mut [f32], &[u32])], w: &mut Worker| {
            let pairs: usize = block.iter().map(|(_, _, cand)| cand.len()).sum();
            let t0 = Instant::now();
            w.votes.clear();
            w.votes.resize(pairs * nv, 0.0);
            let mut cursor = 0usize;
            for (r, _, cand) in block.iter() {
                let s = ElementId(*r as u32);
                for &t in cand.iter() {
                    let cell = &mut w.votes[cursor..cursor + nv];
                    for (slot, voter) in cell.iter_mut().zip(voters) {
                        *slot = voter.vote(ctx, s, ElementId(t)).value();
                    }
                    cursor += nv;
                }
            }
            w.stats.tier2 += t0.elapsed();

            let t1 = Instant::now();
            let mut votes = w.votes.chunks(nv);
            for (_, slice, cand) in block.iter_mut() {
                for &t in cand.iter() {
                    let pair_votes = votes.next().expect("one vote chunk per pair");
                    w.scratch.clear();
                    w.scratch
                        .extend(pair_votes.iter().map(|&v| Confidence::new(v)));
                    let merged = merger.merge(&w.scratch).value();
                    slice[t as usize] = if merged < floor { 0.0 } else { merged as f32 };
                }
            }
            w.stats.merge += t1.elapsed();
        };

        let mut work = work;
        let blocks = job.map_with(
            work.chunks_mut(block_rows),
            Worker::default,
            |w, _, block| {
                let _chunk = obs::span(SpanKind::ScoreChunk, block.len() as u64);
                if cascade {
                    cascade_block(block, w);
                } else {
                    reference_block(block, w);
                }
                std::mem::take(&mut w.stats)
            },
        );
        let mut total = FusedStats::default();
        for block in &blocks {
            total.tier1 += block.tier1;
            total.tier2 += block.tier2;
            total.merge += block.merge;
            total.exits.add(&block.exits);
        }
        total
    }

    /// Propagate: blend every parented cell of each candidate-bearing row
    /// with its parents' *base* merged score (order-independent single
    /// pass). Non-candidate cells of such a row blend their stored neutral
    /// `0.0` with the parents' scored base — densifying children of strong
    /// container pairs for free. Rows without candidates are untouched.
    /// Returns the number of rows blended.
    ///
    /// The parent term `α · Confidence::new(base[ps][pt])` (read through
    /// `Confidence`, exactly as `MatchMatrix::get`) depends only on the
    /// source parent row and the target column, so it is hoisted into one
    /// table per distinct parent row, built from the pre-blend rows before
    /// any row blends. Each blended row is then one branch-free pass of
    /// `(1 − α) · own + hoisted` — the same `f64` operations in the same
    /// order as blending cell by cell, so the same bits.
    fn propagate(
        &self,
        source: &Schema,
        target: &Schema,
        matrix: &mut MatchMatrix,
        candidates: &CandidateSet,
    ) -> usize {
        let alpha = self.engine.propagation_alpha;
        let cols = target.len();
        let target_parents: Vec<Option<ElementId>> =
            target.elements().iter().map(|e| e.parent).collect();
        let parented: Vec<bool> = target_parents.iter().map(Option::is_some).collect();
        let blended: Vec<(ElementId, ElementId)> = source
            .elements()
            .iter()
            .filter(|e| !candidates.row(e.id.index()).is_empty())
            .filter_map(|e| Some((e.id, e.parent?)))
            .collect();
        let mut parents: Vec<ElementId> = blended.iter().map(|&(_, ps)| ps).collect();
        parents.sort_unstable();
        parents.dedup();
        let mut hoisted: Vec<f64> = Vec::with_capacity(parents.len() * cols);
        for ps in &parents {
            let base_row = &matrix.as_slice()[ps.index() * cols..(ps.index() + 1) * cols];
            hoisted.extend(target_parents.iter().map(|pt| {
                pt.map_or(0.0, |pt| {
                    alpha * Confidence::new(f64::from(base_row[pt.index()])).value()
                })
            }));
        }
        let keep = 1.0 - alpha;
        for &(s, ps) in &blended {
            let at = parents.binary_search(&ps).expect("parent row hoisted");
            let terms = &hoisted[at * cols..(at + 1) * cols];
            blend_row(matrix.row_mut(s), terms, &parented, keep);
        }
        blended.len()
    }
}

/// One Propagate row: `row[t] = ((keep · row[t]) + terms[t]) as f32` where
/// `parented[t]`, unchanged elsewhere. Dispatches to an AVX2 build of the
/// same loop when the CPU has it: it converts and blends four `f64` lanes
/// per instruction instead of two, and the float operations (no fused
/// multiply-add contraction) give the same bits either way.
fn blend_row(row: &mut [f32], terms: &[f64], parented: &[bool], keep: f64) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU supports `avx2`, the feature the
        // function is compiled with.
        return unsafe { blend_row_x86_64_v3(row, terms, parented, keep) };
    }
    blend_row_kernel(row, terms, parented, keep)
}

/// [`blend_row_kernel`] compiled with AVX2.
///
/// # Safety
///
/// The running CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn blend_row_x86_64_v3(row: &mut [f32], terms: &[f64], parented: &[bool], keep: f64) {
    blend_row_kernel(row, terms, parented, keep)
}

#[inline(always)]
fn blend_row_kernel(row: &mut [f32], terms: &[f64], parented: &[bool], keep: f64) {
    let n = row.len();
    let (terms, parented) = (&terms[..n], &parented[..n]);
    for t in 0..n {
        let mixed = (keep * f64::from(row[t]) + terms[t]) as f32;
        row[t] = if parented[t] { mixed } else { row[t] };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_schema::{DataType, Documentation, ElementKind, SchemaFormat, SchemaId};

    fn fixture() -> (Schema, Schema) {
        let mut a = Schema::new(SchemaId(1), "S_A", SchemaFormat::Relational);
        let p = a.add_root("Person", ElementKind::Table, DataType::None);
        let pid = a
            .add_child(p, "person_id", ElementKind::Column, DataType::Integer)
            .unwrap();
        a.set_doc(pid, Documentation::embedded("unique person identifier"))
            .unwrap();
        a.add_child(p, "last_name", ElementKind::Column, DataType::varchar(40))
            .unwrap();

        let mut b = Schema::new(SchemaId(2), "S_B", SchemaFormat::Xml);
        let p2 = b.add_root("PersonType", ElementKind::ComplexType, DataType::None);
        b.add_child(
            p2,
            "PersonIdentifier",
            ElementKind::XmlElement,
            DataType::Integer,
        )
        .unwrap();
        b.add_child(p2, "LastName", ElementKind::XmlElement, DataType::text())
            .unwrap();
        (a, b)
    }

    /// Independent reference: compute every score through the public
    /// per-pair path (`score_pair` + the documented propagation blend) and
    /// demand the fused block pipeline reproduce it exactly. This is the
    /// guard against block-indexing or scratch-reuse bugs in
    /// `score_and_merge` — `engine.run` delegates to the pipeline, so
    /// comparing those two would be a self-comparison.
    #[test]
    fn staged_run_matches_per_pair_reference() {
        let (a, b) = fixture();
        let engine = MatchEngine::new().with_threads(3).with_propagation(0.3);
        let staged = engine.pipeline().run(&a, &b);
        assert_eq!(staged.pairs_considered, a.len() * b.len());

        let ctx = engine.build_context(&a, &b);
        let base: Vec<f32> = a
            .ids()
            .flat_map(|s| {
                b.ids()
                    .map(|t| engine.score_pair(&ctx, s, t).value() as f32)
                    .collect::<Vec<_>>()
            })
            .collect();
        let alpha = 0.3;
        for s in a.ids() {
            for t in b.ids() {
                let own = f64::from(base[s.index() * b.len() + t.index()]);
                let expected = match (a.element(s).parent, b.element(t).parent) {
                    (Some(ps), Some(pt)) => {
                        let par = f64::from(base[ps.index() * b.len() + pt.index()]);
                        ((1.0 - alpha) * own + alpha * par) as f32
                    }
                    _ => own as f32,
                };
                assert_eq!(
                    staged.matrix.get(s, t).value(),
                    f64::from(expected),
                    "pipeline diverged from per-pair reference at ({s:?},{t:?})"
                );
            }
        }
    }

    /// A blocked-run fixture where some source rows share no token with
    /// the target (no candidates), and the target's roots sit between
    /// children, so parented and root columns interleave.
    fn interleaved_fixture() -> (Schema, Schema) {
        let mut a = Schema::new(SchemaId(1), "S_A", SchemaFormat::Relational);
        let person = a.add_root("Person", ElementKind::Table, DataType::None);
        for name in ["person_id", "last_name", "birth_date"] {
            a.add_child(person, name, ElementKind::Column, DataType::text())
                .unwrap();
        }
        let order = a.add_root("Order", ElementKind::Table, DataType::None);
        for name in ["order_id", "order_date", "total_amount"] {
            a.add_child(order, name, ElementKind::Column, DataType::text())
                .unwrap();
        }
        a.add_child(person, "xyzzy_plugh", ElementKind::Column, DataType::None)
            .unwrap();
        let stray = a.add_root("Quuxwobble", ElementKind::Table, DataType::None);
        a.add_child(stray, "frobnitz_zyx", ElementKind::Column, DataType::text())
            .unwrap();

        let mut b = Schema::new(SchemaId(2), "S_B", SchemaFormat::Xml);
        let person = b.add_root("PersonType", ElementKind::ComplexType, DataType::None);
        b.add_child(
            person,
            "PersonId",
            ElementKind::XmlElement,
            DataType::text(),
        )
        .unwrap();
        let order = b.add_root("OrderType", ElementKind::ComplexType, DataType::None);
        b.add_root("Amount", ElementKind::XmlElement, DataType::text());
        b.add_child(
            person,
            "LastName",
            ElementKind::XmlElement,
            DataType::text(),
        )
        .unwrap();
        b.add_child(
            order,
            "OrderDate",
            ElementKind::XmlElement,
            DataType::text(),
        )
        .unwrap();
        b.add_root("BirthDate", ElementKind::XmlElement, DataType::text());
        b.add_child(order, "OrderId", ElementKind::XmlElement, DataType::text())
            .unwrap();
        (a, b)
    }

    /// Propagate on a blocked run is the documented blend applied to the
    /// same engine's unpropagated matrix, bit for bit: a candidate-bearing
    /// row with a parent blends every parented column with
    /// `α · Confidence::new(base[ps][pt])`, and every other cell — root
    /// columns, root rows, rows without candidates — keeps its base. One
    /// candidate-free row has a scored parent row, so blending it would
    /// show.
    #[test]
    fn blocked_propagation_is_the_documented_blend() {
        let (a, b) = interleaved_fixture();
        let policy = BlockingPolicy::default();
        for alpha in [0.3, 0.95] {
            let engine = |alpha| MatchEngine::new().with_threads(2).with_propagation(alpha);
            let run = engine(alpha).pipeline().run_blocked(&a, &b, &policy);
            let base = engine(0.0).pipeline().run_blocked(&a, &b, &policy);
            assert_eq!(run.candidates, base.candidates);
            let (mut blended, mut untouched) = (0, 0);
            for s in a.ids() {
                let parent = a.element(s).parent;
                let has_candidates = !run.candidates.row(s.index()).is_empty();
                match parent {
                    Some(_) if has_candidates => blended += 1,
                    Some(ps) if !run.candidates.row(ps.index()).is_empty() => untouched += 1,
                    _ => {}
                }
                for t in b.ids() {
                    let own = base.matrix.as_slice()[s.index() * b.len() + t.index()];
                    let expected = match (parent, b.element(t).parent) {
                        (Some(ps), Some(pt)) if has_candidates => {
                            let par = base.matrix.get(ps, pt).value();
                            ((1.0 - alpha) * f64::from(own) + alpha * par) as f32
                        }
                        _ => own,
                    };
                    let got = run.matrix.as_slice()[s.index() * b.len() + t.index()];
                    assert_eq!(
                        got.to_bits(),
                        expected.to_bits(),
                        "α {alpha}: cell ({s:?},{t:?})"
                    );
                }
            }
            assert!(blended > 0, "fixture must blend some rows");
            assert!(
                untouched > 0,
                "fixture must leave a candidate-free row under a scored parent"
            );
        }
    }

    #[test]
    fn timings_cover_all_stages() {
        let (a, b) = fixture();
        let engine = MatchEngine::new().with_threads(2);
        let (run, selected) = engine.pipeline().run_select(
            &a,
            &b,
            &Selection::OneToOne {
                min: Confidence::new(0.1),
            },
        );
        assert!(run.timings.total() >= run.timings.score);
        assert!(!selected.is_empty(), "fixture has obvious matches");
    }

    #[test]
    fn empty_sides_short_circuit() {
        let (a, _) = fixture();
        let empty = Schema::new(SchemaId(9), "E", SchemaFormat::Generic);
        let engine = MatchEngine::new();
        let run = engine.pipeline().run(&a, &empty);
        assert_eq!(run.pairs_considered, 0);
        assert!(run.matrix.is_empty());
    }

    #[test]
    fn exhaustive_blocked_run_is_byte_identical_to_dense() {
        let (a, b) = fixture();
        for threads in [1, 3] {
            let engine = MatchEngine::new()
                .with_threads(threads)
                .with_propagation(0.3);
            let dense = engine.pipeline().run(&a, &b);
            let blocked = engine
                .pipeline()
                .run_blocked(&a, &b, &BlockingPolicy::Exhaustive);
            assert_eq!(blocked.pairs_scored, a.len() * b.len());
            assert_eq!(
                dense.matrix.as_slice(),
                blocked.matrix.as_slice(),
                "exhaustive blocking must reproduce the dense matrix bit for bit"
            );
        }
    }

    #[test]
    fn default_policy_scores_candidates_identically_to_dense_base() {
        let (a, b) = fixture();
        // α = 0 isolates Score/Merge: every candidate cell must carry the
        // exact dense score, every pruned cell the neutral zero.
        let engine = MatchEngine::new().with_threads(2).with_propagation(0.0);
        let dense = engine.pipeline().run(&a, &b);
        let blocked = engine
            .pipeline()
            .run_blocked(&a, &b, &BlockingPolicy::default());
        for s in a.ids() {
            for t in b.ids() {
                let got = blocked.matrix.get(s, t).value();
                if blocked.candidates.contains(s.index(), t.index()) {
                    assert_eq!(got, dense.matrix.get(s, t).value());
                } else {
                    assert_eq!(got, 0.0, "pruned pair must stay neutral");
                }
            }
        }
    }

    #[test]
    fn blocked_timings_report_the_block_stage() {
        let (a, b) = fixture();
        let engine = MatchEngine::new().with_threads(1);
        let run = engine
            .pipeline()
            .run_blocked(&a, &b, &BlockingPolicy::default());
        assert!(run.timings.block > Duration::ZERO);
        assert!(run.timings.total() >= run.timings.block);
        assert!(run.pairs_scored <= run.pairs_considered);
    }

    #[test]
    fn work_stealing_blocks_cover_all_rows() {
        // Thread counts far above the row count must still fill every cell.
        let (a, b) = fixture();
        let engine = MatchEngine::new().with_threads(64);
        let run = engine.pipeline().run(&a, &b);
        let serial = MatchEngine::new().with_threads(1).pipeline().run(&a, &b);
        for s in a.ids() {
            for t in b.ids() {
                assert_eq!(
                    run.matrix.get(s, t).value(),
                    serial.matrix.get(s, t).value()
                );
            }
        }
    }
}
