//! Batch match planning: one plan and one worker pool for a whole
//! many-pair workload.
//!
//! The paper's enterprise scenarios are inherently *many-pair*: the
//! five-schema comprehensive vocabulary (§3.4) needs all 10 unordered pairs,
//! clustering for consolidation compares every registry schema with every
//! other, COI agreement matches each member against each member. Executing
//! those as a loop of independent two-schema runs repays per-pair costs that
//! are really per-*schema*: linguistic preparation and the token-blocking
//! index, which `generate_candidates` once rebuilt twice per pair (once per
//! probe direction), i.e. `N·(N−1)` builds for an N-way effort that needs
//! exactly `N`. Both now live with the preparation in the [`FeatureCache`]:
//! each [`PreparedSchema`] holds its own [`crate::index::ElementTokenIndex`],
//! built by its first blocked use ([`PreparedSchema::token_index`]).
//!
//! [`BatchPlanner::plan`] front-loads all shared work into a **Plan** stage
//! (timed under its `stage.plan` span and reported as
//! [`StageTimings::plan`]): every schema is prepared through the engine's
//! cache (concurrently, on the executor, with
//! [`FeatureCache::get_or_prepare`] coalescing racing preparations of the
//! same content), every preparation that holds no index yet is indexed, and
//! the plan policy prunes the request list: [`PlanPolicy::Exhaustive`]
//! keeps every pair, and [`PlanPolicy::OverlapThreshold`] drops the pairs
//! whose exact shared blocking weight ([`OverlapEstimates`], one walk over
//! the indices' feature tables) falls below its cut. Each index weighs
//! features by its own schema's element count and document frequencies, so
//! each pair's IDF weights are bit-for-bit those of a standalone run; a plan
//! over warm preparations builds nothing. [`MatchBatch::run`] then executes
//! all requested pairs concurrently on the persistent [`Executor`]: pairs
//! are job-level lanes claiming from the batch's request queue, and each
//! pair's Block and Score/Merge stages fan their chunks out to the *same*
//! pool (two-level scheduling; see [`crate::exec`]). While the job lanes
//! hold the whole pool those chunk fan-outs run inline, since a fan-out
//! offers only unreserved lanes; at the tail, a job lane that runs out of
//! pairs frees its lane, and the straggler pair's next fan-out takes it
//! instead of the worker idling.
//!
//! The contract mirrors the blocking index's: batching is an *execution*
//! change, never a semantics change. Per-pair results are byte-identical to
//! a sequential `run_blocked` loop over the same requests — pinned in
//! `tests/batch_pin.rs` across seeds, pair counts, and pool widths.

use crate::correspondence::MatchSet;
use crate::engine::{BlockedMatchResult, MatchEngine};
use crate::exec::{Executor, Job};
use crate::index::{ensure_token_indices, idf_weight, BlockingPolicy};
use crate::obs::{self, SpanKind};
use crate::pipeline::StageTimings;
use crate::prepare::{CacheStats, FeatureCache, PreparedSchema};
use crate::select::Selection;
use sm_schema::Schema;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One requested pairwise match: indices into the batch's schema list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairRequest {
    /// Source-side schema slot.
    pub left: usize,
    /// Target-side schema slot.
    pub right: usize,
}

impl From<(usize, usize)> for PairRequest {
    fn from((left, right): (usize, usize)) -> Self {
        PairRequest { left, right }
    }
}

/// How the planner decides *which* requested pairs to execute — the
/// overlap-aware tier in front of per-pair blocking. Orthogonal to
/// [`BlockingPolicy`], which governs candidate generation *within* a pair:
/// the plan policy prunes whole pairs before any pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PlanPolicy {
    /// Execute every requested pair — the recall reference for
    /// [`PlanPolicy::OverlapThreshold`].
    #[default]
    Exhaustive,
    /// Prune pairs whose IDF-weighted shared vocabulary weight (see
    /// [`OverlapEstimates`]) falls below `min_weight`. At
    /// [`PlanPolicy::provable`]'s threshold this drops exactly the
    /// zero-overlap pairs, whose selections are provably empty — the
    /// surviving plan reproduces the exhaustive selections byte for byte.
    OverlapThreshold {
        /// Minimum shared weight a pair must reach to stay planned.
        min_weight: f64,
    },
}

impl PlanPolicy {
    /// The provably lossless pruning threshold: keep every pair sharing at
    /// least one blocking token. Each shared token weighs at least 1.0
    /// ([`idf_weight`] at `df == n`), so any positive threshold at or below
    /// 1.0 prunes exactly the bound-zero pairs — and a pair with *no*
    /// shared blocking feature has an empty candidate set (token blocking,
    /// exact-name rescue, and child rescue all join on shared features), an
    /// all-zero matrix, and therefore empty selections.
    pub fn provable() -> Self {
        PlanPolicy::OverlapThreshold {
            min_weight: f64::MIN_POSITIVE,
        }
    }
}

/// IDF-weighted vocabulary-overlap weights for all `n²` schema pairs,
/// computed in **one walk** over the schema-level token postings — no
/// per-pair probes. Entry `(i, j)` is the exact total IDF weight of the
/// blocking tokens schemata `i` and `j` share.
///
/// The walk reads each schema's blocking vocabulary from its token index
/// (the distinct union of its [`PreparedSchema::block_features_of`],
/// `ElementTokenIndex::features`), weighted by the same smoothed IDF shape
/// ([`idf_weight`]) at schema granularity — so a zero weight means *zero
/// shared blocking tokens*, the condition under which a pair's candidate
/// set is provably empty.
#[derive(Debug, Clone)]
pub struct OverlapEstimates {
    n: usize,
    /// Row-major `n × n`; the diagonal holds each schema's total distinct
    /// blocking-token weight (its self-overlap).
    bounds: Vec<f64>,
}

impl OverlapEstimates {
    /// Exact overlap weights from prepared schemata.
    ///
    /// # Panics
    /// Panics when the preparations do not share one token arena (ids
    /// would not be comparable across schemata).
    pub fn from_prepared(prepared: &[Arc<PreparedSchema>]) -> Self {
        let n = prepared.len();
        if let Some(first) = prepared.first() {
            for p in prepared {
                assert!(
                    Arc::ptr_eq(p.arena(), first.arena()),
                    "overlap estimation requires one shared token arena"
                );
            }
        }
        // Distinct blocking tokens per schema — its token index's feature
        // table, built inline for a preparation no blocked use indexed
        // yet — then one global sort of packed `(token << 32) | slot`
        // pairs: the posting list of every token is a contiguous run of
        // ascending slots, walked exactly once.
        let mut postings: Vec<u64> = Vec::new();
        for (slot, p) in prepared.iter().enumerate() {
            let features = p.token_index(Job::inline()).features();
            postings.extend(
                features
                    .iter()
                    .map(|t| (u64::from(t.0) << 32) | slot as u64),
            );
        }
        postings.sort_unstable();

        let nf = n as f64;
        let slot = |pair: u64| pair as u32 as usize;
        let mut bounds = vec![0.0f64; n * n];
        for run in postings.chunk_by(|a, b| a >> 32 == b >> 32) {
            let w = idf_weight(nf, run.len() as f64);
            for (k, &a) in run.iter().enumerate() {
                let a = slot(a);
                bounds[a * n + a] += w;
                for &b in &run[k + 1..] {
                    let b = slot(b);
                    bounds[a * n + b] += w;
                    bounds[b * n + a] += w;
                }
            }
        }
        OverlapEstimates { n, bounds }
    }

    /// Number of schemata covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no schemata were estimated.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// A schema's total distinct blocking-token weight (its self-overlap —
    /// the maximum any pair involving it can reach).
    pub fn self_weight(&self, i: usize) -> f64 {
        self.bounds[i * self.n + i]
    }

    /// The exact shared blocking-vocabulary weight of pair `(i, j)`;
    /// `bound == 0` means the pair shares no blocking token at all.
    pub fn bound(&self, i: usize, j: usize) -> f64 {
        self.bounds[i * self.n + j]
    }
}

/// Wall-clock split of the Plan stage past preparation — the
/// index/estimate/schedule sub-components of [`StageTimings::plan`], each
/// the duration of its child span of `stage.plan` (`plan.index`,
/// `plan.estimate`, `plan.schedule`). All zero when neither the blocking
/// policy nor the plan policy needs an index; the last two zero under
/// [`PlanPolicy::Exhaustive`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanBreakdown {
    /// Building the token index of every preparation that holds none yet.
    pub index: Duration,
    /// Building the [`OverlapEstimates`] (the one posting walk).
    pub estimate: Duration,
    /// Filtering the request list through the plan policy.
    pub schedule: Duration,
}

/// Plans batches over one engine's configuration (obtained from
/// [`MatchEngine::batch`]).
pub struct BatchPlanner<'e> {
    engine: &'e MatchEngine,
    policy: BlockingPolicy,
    plan_policy: PlanPolicy,
}

impl<'e> BatchPlanner<'e> {
    pub(crate) fn new(engine: &'e MatchEngine) -> Self {
        BatchPlanner {
            engine,
            policy: BlockingPolicy::default(),
            plan_policy: PlanPolicy::default(),
        }
    }

    /// Use a specific blocking policy for every pair of the batch
    /// ([`BlockingPolicy::Exhaustive`] reproduces dense runs byte for byte).
    pub fn with_policy(mut self, policy: BlockingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Use a specific [`PlanPolicy`] for pair scheduling
    /// ([`PlanPolicy::Exhaustive`] keeps every requested pair).
    pub fn with_plan_policy(mut self, plan_policy: PlanPolicy) -> Self {
        self.plan_policy = plan_policy;
        self
    }

    /// Plan a batch: prepare all `schemas`, make sure each preparation
    /// holds its token index, and prune the requested pairs by the plan
    /// policy (the Plan stage), recording them for [`MatchBatch::run`].
    ///
    /// # Panics
    /// Panics when a request indexes outside `schemas`.
    pub fn plan<'s>(
        &self,
        schemas: &[&'s Schema],
        requests: impl IntoIterator<Item = impl Into<PairRequest>>,
    ) -> MatchBatch<'e, 's> {
        let requests: Vec<PairRequest> = requests.into_iter().map(Into::into).collect();
        for r in &requests {
            assert!(
                r.left < schemas.len() && r.right < schemas.len(),
                "pair request ({}, {}) outside the {}-schema batch",
                r.left,
                r.right,
                schemas.len()
            );
        }
        let (mut batch, plan) = obs::timed(
            SpanKind::StagePlan,
            |_| schemas.len() as u64,
            || self.plan_stage(schemas, requests),
        );
        batch.plan = plan;
        batch
    }

    /// The Plan stage's body. The engine's job governs it exactly like the
    /// execute phase's job lanes: its thread cap, lane budget and token.
    fn plan_stage<'s>(
        &self,
        schemas: &[&'s Schema],
        mut requests: Vec<PairRequest>,
    ) -> MatchBatch<'e, 's> {
        let cache = self.engine.feature_cache();
        let job = self.engine.job();
        let stats_before = cache.stats();
        let prepared = prepare_schemas(cache, job, schemas);
        let stats_after = cache.stats();
        let n = prepared.len() as u64;

        // Every preparation's token index, so that no pair job builds one;
        // warm preparations already hold theirs. Only a batch that neither
        // probes (exhaustive blocking) nor estimates needs none.
        let mut breakdown = PlanBreakdown::default();
        if self.policy != BlockingPolicy::Exhaustive || self.plan_policy != PlanPolicy::Exhaustive {
            ((), breakdown.index) = obs::timed(
                SpanKind::PlanIndex,
                |_| n,
                || ensure_token_indices(prepared.iter().map(|p| &**p), job),
            );
        }

        // Overlap-aware scheduling: all-pairs shared weights in one posting
        // walk, then the request list filtered by the threshold.
        let mut overlap = None;
        let mut pruned = Vec::new();
        if let PlanPolicy::OverlapThreshold { min_weight } = self.plan_policy {
            let estimates;
            (estimates, breakdown.estimate) = obs::timed(
                SpanKind::PlanEstimate,
                |_| n,
                || OverlapEstimates::from_prepared(&prepared),
            );
            ((requests, pruned), breakdown.schedule) = obs::timed(
                SpanKind::PlanSchedule,
                |(kept, _): &(Vec<_>, Vec<_>)| kept.len() as u64,
                || {
                    requests
                        .into_iter()
                        .partition(|r| estimates.bound(r.left, r.right) >= min_weight)
                },
            );
            overlap = Some(estimates);
        }

        MatchBatch {
            engine: self.engine,
            policy: self.policy,
            schemas: schemas.to_vec(),
            prepared,
            requests,
            pruned,
            plan: Duration::ZERO,
            breakdown,
            overlap,
            cache: delta_stats(stats_before, stats_after),
        }
    }

    /// Plan every unordered pair `(i, j)` with `i < j` — the N-way shape.
    pub fn plan_all_pairs<'s>(&self, schemas: &[&'s Schema]) -> MatchBatch<'e, 's> {
        let n = schemas.len();
        let requests =
            (0..n).flat_map(move |i| ((i + 1)..n).map(move |j| PairRequest { left: i, right: j }));
        self.plan(schemas, requests)
    }
}

/// Counter movement of the feature cache across one batch phase.
/// `hits`/`misses`/`evictions` are after−before deltas; `entries` and
/// `resident_bytes` are the absolute occupancy at the end of the phase (a
/// gauge has no meaningful delta).
fn delta_stats(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits.saturating_sub(before.hits),
        misses: after.misses.saturating_sub(before.misses),
        evictions: after.evictions.saturating_sub(before.evictions),
        entries: after.entries,
        resident_bytes: after.resident_bytes,
    }
}

/// Prepare many schemata through one cache, concurrently on `job`'s lanes
/// (a batch plan passes its engine's job; standalone bulk consumers an
/// ungoverned one at full pool width).
///
/// Lanes claim schema slots from a shared queue, checking the job's token
/// before each;
/// [`FeatureCache::get_or_prepare`] guarantees a fingerprint is built at
/// most once even when two lanes (or two batches) race on equal content.
/// Each miss is built on the same lanes
/// ([`FeatureCache::get_or_prepare_on`]): while the schema lanes hold the
/// whole pool, a build runs inline; a lone large schema fans its element
/// chunks out to the lanes the others left free.
/// Exposed for the enterprise layer's bulk operations (clustering,
/// feasibility, repository warming), whose per-schema loops this replaces.
pub fn prepare_schemas(
    cache: &FeatureCache,
    job: Job<'_>,
    schemas: &[&Schema],
) -> Vec<Arc<PreparedSchema>> {
    job.map(schemas, |_, schema| cache.get_or_prepare_on(schema, job))
}

/// [`prepare_schemas`] against the process-wide cache and executor at full
/// pool width — the standalone bulk-prepare the enterprise operators
/// (clustering, feasibility, repository warming) share.
pub fn prepare_schemas_global(schemas: &[&Schema]) -> Vec<Arc<PreparedSchema>> {
    let exec = Executor::global();
    prepare_schemas(
        FeatureCache::global(),
        Job::new(exec, exec.threads()),
        schemas,
    )
}

/// A planned batch: prepared (and, unless exhaustive, indexed) schemata
/// and the request list, ready to execute (possibly several times).
pub struct MatchBatch<'e, 's> {
    engine: &'e MatchEngine,
    policy: BlockingPolicy,
    schemas: Vec<&'s Schema>,
    prepared: Vec<Arc<PreparedSchema>>,
    requests: Vec<PairRequest>,
    pruned: Vec<PairRequest>,
    plan: Duration,
    breakdown: PlanBreakdown,
    overlap: Option<OverlapEstimates>,
    cache: CacheStats,
}

impl MatchBatch<'_, '_> {
    /// The planned pair requests, in execution-result order (after any
    /// plan-policy pruning — see [`Self::pruned`] for what was dropped).
    pub fn requests(&self) -> &[PairRequest] {
        &self.requests
    }

    /// Requests the plan policy pruned, in original request order (empty
    /// under [`PlanPolicy::Exhaustive`]).
    pub fn pruned(&self) -> &[PairRequest] {
        &self.pruned
    }

    /// The Plan stage's index/estimate/schedule wall-clock split (the
    /// last two zero under [`PlanPolicy::Exhaustive`]).
    pub fn plan_breakdown(&self) -> PlanBreakdown {
        self.breakdown
    }

    /// The overlap weights the plan policy consulted (`None` under
    /// [`PlanPolicy::Exhaustive`], which never estimates).
    pub fn overlap(&self) -> Option<&OverlapEstimates> {
        self.overlap.as_ref()
    }

    /// The prepared schemata, in schema-list order.
    pub fn prepared(&self) -> &[Arc<PreparedSchema>] {
        &self.prepared
    }

    /// Wall-clock time of the Plan stage (bulk prepare, index builds and
    /// pruning).
    pub fn plan_time(&self) -> Duration {
        self.plan
    }

    /// Execute every requested pair concurrently on the engine's executor.
    pub fn run(&self) -> BatchResult {
        self.execute(None)
    }

    /// [`Self::run`], additionally applying `selection` to every pair's
    /// matrix (the Select stage, timed per pair).
    pub fn run_select(&self, selection: &Selection) -> BatchResult {
        self.execute(Some(selection))
    }

    /// Selection-only execution: apply `selection` to every pair and keep
    /// just the selected correspondences plus lightweight stats — each
    /// pair's matrix and candidate set drop inside the job, right after
    /// selection. This is the memory-bounded path for bulk consumers that
    /// never read scores (n-way population, repository bulk recording, COI
    /// evidence): a [`Self::run_select`] over P pairs retains P full
    /// matrices until its result drops, where this holds at most
    /// one-per-lane transiently.
    pub fn run_select_only(&self, selection: &Selection) -> BatchSelectResult {
        let started = Instant::now();
        let (pairs, timings) = self.run_jobs(
            |PairRequest { left, right }, mut run| {
                let selected;
                (selected, run.timings.select) = selection.apply_timed(&run.matrix);
                BatchSelection {
                    left,
                    right,
                    selected,
                    pairs_considered: run.pairs_considered,
                    pairs_scored: run.pairs_scored,
                    timings: run.timings,
                }
            },
            |p| &p.timings,
        );
        BatchSelectResult {
            pairs,
            timings,
            cache: self.cache,
            elapsed: started.elapsed(),
        }
    }

    fn execute(&self, selection: Option<&Selection>) -> BatchResult {
        let started = Instant::now();
        let (pairs, timings) = self.run_jobs(
            |PairRequest { left, right }, mut result| {
                let selected = selection.map(|selection| {
                    let selected;
                    (selected, result.timings.select) = selection.apply_timed(&result.matrix);
                    selected
                });
                BatchPairResult {
                    left,
                    right,
                    selected,
                    result,
                }
            },
            |p| &p.result.timings,
        );
        BatchResult {
            pairs,
            timings,
            cache: self.cache,
            elapsed: started.elapsed(),
        }
    }

    /// The batch's one pair-job loop. Job-level lanes claim whole requests
    /// and run each through [`Self::run_pair`], while each pair's Block and
    /// Score/Merge fan chunk lanes out to the same pool's unreserved lanes
    /// (see the module docs). `finish` turns a run into the caller's
    /// per-pair result inside the job, so whatever it drops (a
    /// selection-only caller's matrix) never outlives the job. Returns the
    /// per-pair results in request order plus the aggregated timings: the
    /// Plan stage and its breakdown, then the sum of every pair's stage
    /// times (read through `timings_of`).
    fn run_jobs<R, F>(
        &self,
        finish: F,
        timings_of: fn(&R) -> &StageTimings,
    ) -> (Vec<R>, StageTimings)
    where
        R: Send,
        F: Fn(PairRequest, BlockedMatchResult) -> R + Sync,
    {
        // A tripped token stops at the next pair claim, before that pair
        // touches the cache or allocates a matrix.
        let pairs = self.engine.job().map(&self.requests, |_, &request| {
            finish(request, self.run_pair(request.left, request.right))
        });
        let mut timings = StageTimings {
            plan: self.plan,
            plan_estimate: self.breakdown.estimate,
            plan_schedule: self.breakdown.schedule,
            ..StageTimings::default()
        };
        for p in &pairs {
            timings.accumulate(timings_of(p));
        }
        (pairs, timings)
    }

    /// One pair's blocked run against the batch's preparations, which hold
    /// the indices the plan built (exhaustive batches probe none —
    /// candidate generation short-circuits before probing).
    fn run_pair(&self, left: usize, right: usize) -> BlockedMatchResult {
        obs::add(obs::Counter::PairJobs, 1);
        let _job = obs::span(SpanKind::PairJob, ((left as u64) << 32) | right as u64);
        self.engine.pipeline().run_blocked_prepared(
            self.schemas[left],
            self.schemas[right],
            &self.prepared[left],
            &self.prepared[right],
            None,
            &self.policy,
        )
    }
}

/// One pair's outcome within a batch.
#[derive(Debug)]
pub struct BatchPairResult {
    /// Source-side schema slot of the request.
    pub left: usize,
    /// Target-side schema slot of the request.
    pub right: usize,
    /// The pair's match result — byte-identical to a standalone
    /// [`MatchEngine::run_blocked`] under the batch's policy.
    pub result: BlockedMatchResult,
    /// Selected correspondences when the batch ran with a selection.
    pub selected: Option<MatchSet>,
}

/// Outcome of one batch execution.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-pair results, in request order.
    pub pairs: Vec<BatchPairResult>,
    /// Aggregated stage timings: the batch's Plan stage plus the sum of
    /// every pair's per-stage times (CPU-time-like across concurrent pairs,
    /// so stages remain comparable with sequential runs).
    pub timings: StageTimings,
    /// Feature-cache counter movement during planning — how much of the
    /// preparation was amortized (`hits`) versus newly built (`misses`),
    /// and whether planning displaced resident entries (`evictions`).
    ///
    /// `hits`/`misses`/`evictions` are before/after deltas of the engine's
    /// cache counters; `entries` is the absolute resident count after
    /// planning (occupancy, not movement). On a *shared* cache (the global
    /// default) traffic from other engines planning concurrently is
    /// attributed to this batch too — treat the deltas as exact only for a
    /// private cache or an otherwise-idle process, and as an upper bound
    /// under concurrency.
    pub cache: CacheStats,
    /// Wall-clock time of the execution phase (planning is
    /// [`MatchBatch::plan_time`]).
    pub elapsed: Duration,
}

impl BatchResult {
    /// Total candidate pairs scored across the batch.
    pub fn pairs_scored(&self) -> usize {
        self.pairs.iter().map(|p| p.result.pairs_scored).sum()
    }

    /// Total cross-product size across the batch.
    pub fn pairs_considered(&self) -> usize {
        self.pairs.iter().map(|p| p.result.pairs_considered).sum()
    }
}

/// One pair's selection-only outcome within a batch
/// ([`MatchBatch::run_select_only`]).
#[derive(Debug)]
pub struct BatchSelection {
    /// Source-side schema slot of the request.
    pub left: usize,
    /// Target-side schema slot of the request.
    pub right: usize,
    /// The selected correspondences — identical to applying the selection
    /// to the pair's [`MatchEngine::run_blocked`] matrix.
    pub selected: MatchSet,
    /// Size of the pair's full cross product.
    pub pairs_considered: usize,
    /// Candidate pairs the voter panel actually scored.
    pub pairs_scored: usize,
    /// Per-stage wall-clock timings of the pair.
    pub timings: StageTimings,
}

/// Outcome of one selection-only batch execution (matrices were dropped
/// per pair; see [`MatchBatch::run_select_only`]).
#[derive(Debug)]
pub struct BatchSelectResult {
    /// Per-pair selections, in request order.
    pub pairs: Vec<BatchSelection>,
    /// Aggregated stage timings (Plan plus per-pair sums, as in
    /// [`BatchResult::timings`]).
    pub timings: StageTimings,
    /// Feature-cache counter movement during planning (same semantics and
    /// caveats as [`BatchResult::cache`]).
    pub cache: CacheStats,
    /// Wall-clock time of the execution phase.
    pub elapsed: Duration,
}

impl BatchSelectResult {
    /// Total candidate pairs scored across the batch.
    pub fn pairs_scored(&self) -> usize {
        self.pairs.iter().map(|p| p.pairs_scored).sum()
    }

    /// Total cross-product size across the batch.
    pub fn pairs_considered(&self) -> usize {
        self.pairs.iter().map(|p| p.pairs_considered).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::Confidence;
    use sm_schema::{DataType, ElementKind, SchemaFormat, SchemaId};
    use sm_text::intern::TokenId;
    use sm_text::normalize::Normalizer;

    fn schema(id: u32, words: &[&str]) -> Schema {
        let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
        let r = s.add_root("Record", ElementKind::Group, DataType::None);
        for w in words {
            s.add_child(r, *w, ElementKind::Column, DataType::text())
                .unwrap();
        }
        s
    }

    fn trio() -> Vec<Schema> {
        vec![
            schema(1, &["begin_date", "location_name", "remarks"]),
            schema(2, &["BeginDate", "LocationName", "priority"]),
            schema(3, &["start_date", "site_name", "severity"]),
        ]
    }

    fn engine() -> MatchEngine {
        MatchEngine::new().with_normalizer(Normalizer::new())
    }

    #[test]
    fn batch_matches_sequential_run_blocked_loop() {
        let schemas = trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine().with_threads(2);
        let batch = engine.batch().plan_all_pairs(&refs);
        let result = batch.run();
        assert_eq!(result.pairs.len(), 3);
        for p in &result.pairs {
            let standalone =
                engine.run_blocked(refs[p.left], refs[p.right], &BlockingPolicy::default());
            assert_eq!(
                p.result.matrix.as_slice(),
                standalone.matrix.as_slice(),
                "batched pair ({}, {}) diverged from the standalone run",
                p.left,
                p.right
            );
            assert_eq!(p.result.pairs_scored, standalone.pairs_scored);
        }
        assert!(result.timings.plan > Duration::ZERO);
        assert!(result.timings.total() >= result.timings.plan);
    }

    /// The batch planner's per-pair runs go through `run_blocked_prepared`,
    /// so a floored engine's cascade applies to every pair of the batch and
    /// the aggregated timings carry the tier counters.
    #[test]
    fn batch_inherits_cascade_and_aggregates_tier_counters() {
        let schemas = trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let cascade = engine().with_threads(2).with_score_floor(Some(0.0));
        let reference = engine()
            .with_threads(2)
            .with_score_floor(Some(0.0))
            .with_cascade(false);
        let got = cascade.batch().plan_all_pairs(&refs).run();
        let want = reference.batch().plan_all_pairs(&refs).run();
        for (g, w) in got.pairs.iter().zip(&want.pairs) {
            assert_eq!(
                g.result.matrix.as_slice(),
                w.result.matrix.as_slice(),
                "cascade diverged on batched pair ({}, {})",
                g.left,
                g.right
            );
        }
        assert_eq!(
            got.timings.pairs_pruned + got.timings.pairs_full,
            got.pairs_scored() as u64,
            "aggregated tier counters must partition the scored pairs"
        );
        assert_eq!(want.timings.pairs_pruned, 0);
    }

    #[test]
    fn plan_amortizes_preparation() {
        let schemas = trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine();
        let batch = engine.batch().plan_all_pairs(&refs);
        assert_eq!(batch.prepared().len(), 3);
        assert_eq!(batch.requests().len(), 3);
        // Cold plan: every schema prepared and indexed exactly once, no
        // re-preparation per pair.
        assert_eq!(batch.cache.misses, 3);
        assert!(batch.plan_breakdown().index > Duration::ZERO);
        // A second plan over the same schemata is all hits and reads the
        // indices the first one built.
        let batch2 = engine.batch().plan_all_pairs(&refs);
        assert_eq!(batch2.cache.misses, 0);
        assert_eq!(batch2.cache.hits, 3);
        for (first, second) in batch.prepared().iter().zip(batch2.prepared()) {
            let index = first.built_token_index().expect("the plan indexed it");
            assert!(std::ptr::eq(index, second.built_token_index().unwrap()));
        }
    }

    #[test]
    fn run_select_attaches_selections() {
        let schemas = trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine();
        let selection = Selection::OneToOne {
            min: Confidence::new(0.2),
        };
        let result = engine.batch().plan_all_pairs(&refs).run_select(&selection);
        for p in &result.pairs {
            let expected = selection.apply(&p.result.matrix);
            let got = p.selected.as_ref().expect("selection ran");
            assert_eq!(got.len(), expected.len());
        }
    }

    #[test]
    fn run_select_only_matches_run_select() {
        let schemas = trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine();
        let selection = Selection::OneToOne {
            min: Confidence::new(0.2),
        };
        let batch = engine.batch().plan_all_pairs(&refs);
        let full = batch.run_select(&selection);
        let lean = batch.run_select_only(&selection);
        assert_eq!(full.pairs.len(), lean.pairs.len());
        for (f, l) in full.pairs.iter().zip(&lean.pairs) {
            assert_eq!((f.left, f.right), (l.left, l.right));
            assert_eq!(f.result.pairs_scored, l.pairs_scored);
            let f_sel = f.selected.as_ref().expect("selection ran");
            assert_eq!(f_sel.len(), l.selected.len());
            for (a, b) in f_sel.all().iter().zip(l.selected.all()) {
                assert_eq!((a.source, a.target), (b.source, b.target));
            }
        }
    }

    #[test]
    fn explicit_requests_execute_in_order() {
        let schemas = trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine();
        let result = engine.batch().plan(&refs, [(2usize, 0usize), (0, 1)]).run();
        assert_eq!(result.pairs.len(), 2);
        assert_eq!((result.pairs[0].left, result.pairs[0].right), (2, 0));
        assert_eq!((result.pairs[1].left, result.pairs[1].right), (0, 1));
        assert_eq!(result.pairs_considered(), 2 * 4 * 4);
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = engine();
        let result = engine
            .batch()
            .plan(&[] as &[&Schema], Vec::<PairRequest>::new())
            .run();
        assert!(result.pairs.is_empty());
        assert_eq!(result.pairs_scored(), 0);
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn out_of_range_request_rejected() {
        let schemas = trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let _ = engine().batch().plan(&refs, [(0usize, 7usize)]);
    }

    /// Two disjoint-vocabulary islands plus the trio: zero-bound pairs are
    /// exactly the cross-island ones. The islands' root element must not be
    /// the trio's shared "Record" — roots block like any other element.
    fn two_islands() -> Vec<Schema> {
        fn island(id: u32, words: &[&str]) -> Schema {
            let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
            let r = s.add_root("Starship", ElementKind::Group, DataType::None);
            for w in words {
                s.add_child(r, *w, ElementKind::Column, DataType::text())
                    .unwrap();
            }
            s
        }
        let mut schemas = trio();
        schemas.push(island(7, &["flux_capacitor", "warp_coil", "plasma_vent"]));
        schemas.push(island(8, &["FluxCapacitor", "WarpCoil", "dilithium"]));
        schemas
    }

    /// Every pair's true shared-vocabulary weight (the diagonal: each
    /// schema's own), recomputed by brute force from the prepared block
    /// features: per pair, the IDF weights of the tokens both schemata
    /// hold, summed in ascending token order.
    fn brute_force_weights(prepared: &[Arc<PreparedSchema>]) -> Vec<Vec<f64>> {
        let n = prepared.len() as f64;
        let vocab: Vec<Vec<TokenId>> = prepared
            .iter()
            .map(|p| {
                let mut ids: Vec<TokenId> = (0..p.len())
                    .flat_map(|e| p.block_features_of(e).iter().copied())
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            })
            .collect();
        let df_of = |t: TokenId| vocab.iter().filter(|v| v.binary_search(&t).is_ok()).count();
        vocab
            .iter()
            .map(|a| {
                vocab
                    .iter()
                    .map(|b| {
                        a.iter()
                            .filter(|t| b.binary_search(t).is_ok())
                            .fold(0.0, |sum, &t| sum + idf_weight(n, df_of(t) as f64))
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn overlap_bounds_are_exact_when_uncapped() {
        let schemas = two_islands();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine();
        let batch = engine
            .batch()
            .with_plan_policy(PlanPolicy::provable())
            .plan_all_pairs(&refs);
        let est = batch.overlap().expect("policy estimates");
        let truth = brute_force_weights(batch.prepared());
        for (i, row) in truth.iter().enumerate() {
            for (j, &shared) in row.iter().enumerate() {
                let bound = est.bound(i, j);
                assert!(
                    (bound - shared).abs() < 1e-9,
                    "bound({i}, {j}) = {bound} must equal true shared weight {shared}"
                );
            }
        }
        // Cross-island pairs share nothing.
        assert_eq!(est.bound(0, 3), 0.0);
        assert_eq!(est.bound(2, 4), 0.0);
        assert!(est.bound(3, 4) > 0.0, "islands share flux/warp vocabulary");
    }

    /// The walk over the token indices' feature tables adds each pair's
    /// shared weights in ascending token order, as the brute-force sum
    /// does, so its weights are the brute force's to the bit — on fresh
    /// preparations no blocked use indexed and on ones a plan indexed.
    #[test]
    fn index_feature_bounds_are_the_collected_bounds() {
        let mut fixtures = vec![two_islands(), population(12, 9)];
        fixtures.push(Vec::new());
        let check = |prepared: &[Arc<PreparedSchema>]| {
            let got = OverlapEstimates::from_prepared(prepared);
            assert_eq!(got.len(), prepared.len());
            for (i, row) in brute_force_weights(prepared).iter().enumerate() {
                assert_eq!(got.self_weight(i).to_bits(), row[i].to_bits());
                for (j, want) in row.iter().enumerate() {
                    assert_eq!(got.bound(i, j).to_bits(), want.to_bits(), "bound({i}, {j})");
                }
            }
        };
        for schemas in &fixtures {
            let refs: Vec<&Schema> = schemas.iter().collect();
            let fresh = prepare_schemas(engine().feature_cache(), Job::inline(), &refs);
            assert!(fresh.iter().all(|p| p.built_token_index().is_none()));
            check(&fresh);
            let engine = engine();
            let batch = engine
                .batch()
                .with_plan_policy(PlanPolicy::provable())
                .plan_all_pairs(&refs);
            check(batch.prepared());
        }
    }

    #[test]
    fn provable_prune_drops_only_empty_pairs_and_keeps_selections() {
        let schemas = two_islands();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine().with_threads(2);
        let selection = Selection::OneToOne {
            min: Confidence::new(0.2),
        };
        let exhaustive = engine.batch().plan_all_pairs(&refs);
        let pruned = engine
            .batch()
            .with_plan_policy(PlanPolicy::provable())
            .plan_all_pairs(&refs);
        // Trio×island pairs (6 of them) share no blocking token.
        assert_eq!(exhaustive.requests().len(), 10);
        assert_eq!(pruned.requests().len(), 4);
        assert_eq!(pruned.pruned().len(), 6);
        let full: Vec<BatchSelection> = exhaustive.run_select_only(&selection).pairs;
        let lean = pruned.run_select_only(&selection).pairs;
        // Every pruned pair selected nothing in the exhaustive reference...
        for p in pruned.pruned() {
            let reference = full
                .iter()
                .find(|f| (f.left, f.right) == (p.left, p.right))
                .expect("pruned pair was requested exhaustively");
            assert_eq!(
                reference.selected.len(),
                0,
                "pruned pair ({}, {}) had selections",
                p.left,
                p.right
            );
        }
        // ...and every surviving pair selects identically.
        for l in &lean {
            let reference = full
                .iter()
                .find(|f| (f.left, f.right) == (l.left, l.right))
                .expect("planned pair was requested exhaustively");
            assert_eq!(reference.selected.len(), l.selected.len());
            for (a, b) in reference.selected.all().iter().zip(l.selected.all()) {
                assert_eq!((a.source, a.target), (b.source, b.target));
                assert_eq!(a.score, b.score);
            }
        }
        let breakdown = pruned.plan_breakdown();
        assert!(breakdown.estimate > Duration::ZERO);
        assert!(pruned.plan_time() >= breakdown.estimate + breakdown.schedule);
        let timings = pruned.run().timings;
        assert_eq!(timings.plan_estimate, breakdown.estimate);
        assert_eq!(timings.plan_schedule, breakdown.schedule);
    }

    #[test]
    fn exhaustive_plan_policy_estimates_nothing() {
        let schemas = trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine();
        let batch = engine.batch().plan_all_pairs(&refs);
        assert!(batch.overlap().is_none());
        assert!(batch.pruned().is_empty());
        let breakdown = batch.plan_breakdown();
        assert_eq!(
            breakdown,
            PlanBreakdown {
                index: breakdown.index,
                ..PlanBreakdown::default()
            }
        );
        // A batch that neither probes nor estimates builds no index.
        let cold = self::engine();
        let dense = cold
            .batch()
            .with_policy(BlockingPolicy::Exhaustive)
            .plan_all_pairs(&refs);
        assert_eq!(dense.plan_breakdown(), PlanBreakdown::default());
        assert!(dense
            .prepared()
            .iter()
            .all(|p| p.built_token_index().is_none()));
    }

    /// `n` schemata of `cols` columns each, named over one small
    /// vocabulary so every pair has candidates to block and score.
    fn population(n: u32, cols: usize) -> Vec<Schema> {
        const WORDS: [&str; 16] = [
            "begin", "end", "date", "location", "name", "site", "priority", "severity", "remarks",
            "code", "status", "owner", "amount", "kind", "region", "note",
        ];
        (0..n)
            .map(|id| {
                let i = id as usize;
                let words: Vec<String> = (0..cols)
                    .map(|c| format!("{}_{}", WORDS[(c + i) % 16], WORDS[(7 * c + 3 * i) % 16]))
                    .collect();
                let words: Vec<&str> = words.iter().map(String::as_str).collect();
                schema(id, &words)
            })
            .collect()
    }

    /// A job token tripped mid-round unwinds `CancelUnwind` through the
    /// job lanes and the pair fan-outs nested in them, and leaves no lane
    /// of the pool reserved: a standalone two-lane fan-out on the 2-wide
    /// pool still gets its one helper. A cancel that lands only after the
    /// round finished proves nothing, so rounds repeat until one is
    /// actually cancelled.
    #[test]
    fn cancelled_round_releases_every_lane() {
        crate::serve::install_cancel_hook();
        let schemas = population(20, 30);
        let refs: Vec<&Schema> = schemas.iter().collect();
        let exec = Arc::new(Executor::new(2));
        let mut cancelled = false;
        for _ in 0..20 {
            let token = crate::serve::JobToken::new();
            let engine = engine()
                .with_executor(Arc::clone(&exec))
                .with_threads(2)
                .with_job_token(token.clone());
            let batch = engine.batch().plan_all_pairs(&refs);
            let planned = exec.stats().enqueued;
            let outcome = std::thread::scope(|scope| {
                scope.spawn(|| {
                    // The round's job-level fan-out has started once it
                    // enqueued its helper.
                    let until = Instant::now() + Duration::from_secs(10);
                    while exec.stats().enqueued == planned && Instant::now() < until {
                        std::thread::yield_now();
                    }
                    token.cancel();
                });
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| batch.run()))
            });
            if let Err(payload) = outcome {
                assert!(
                    payload
                        .downcast_ref::<crate::serve::CancelUnwind>()
                        .is_some(),
                    "the round must unwind with the cancel payload"
                );
                cancelled = true;
            }
            // On a fresh thread, so a lane marker leaked on this one
            // cannot mask a leaked lane.
            let before = exec.stats().enqueued;
            std::thread::scope(|scope| {
                scope.spawn(|| Job::new(&exec, 2).map(0..2, |_, _| ()));
            });
            assert_eq!(
                exec.stats().enqueued,
                before + 1,
                "a lane of the pool stayed reserved"
            );
            if cancelled {
                break;
            }
        }
        assert!(cancelled, "no round was cancelled mid-run");
    }
}
