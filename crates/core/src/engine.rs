//! The match engine: configuration + entry points over the staged pipeline.
//!
//! Reproduces the paper's headline performance datum: "we had recently scaled
//! Harmony to perform matches of this size, and the fully automated match
//! executed in 10.2 seconds" for 1378×784 ≈ 1.08·10^6 pairs (§3.3). The
//! actual execution lives in [`crate::pipeline::MatchPipeline`], which stages
//! the run as `Prepare → Block → Score → Merge → Propagate → Select` over a
//! candidate set and shards rows across executor lanes with chunked
//! work-stealing. Linguistic
//! preprocessing is served by the engine's [`FeatureCache`], so repeated
//! matching against the same schemata (incremental sessions, n-way efforts,
//! repository search) amortizes the Prepare stage across runs.

use crate::batch::BatchPlanner;
use crate::confidence::Confidence;
use crate::context::MatchContext;
use crate::exec::Executor;
use crate::index::{BlockingPolicy, CandidateSet};
use crate::matrix::MatchMatrix;
use crate::merger::MergeStrategy;
use crate::pipeline::{MatchPipeline, StageTimings};
use crate::prepare::{FeatureCache, PreparedSchema};
use crate::voter::{default_voters, MatchVoter};
use sm_schema::{ElementId, Schema};
use sm_text::normalize::Normalizer;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Detect the worker-thread count for this host.
///
/// Order of precedence:
/// 1. the `SM_THREADS` environment variable (explicit operator override —
///    containers with distorted CPU accounting, benchmark rigs pinning a
///    thread count);
/// 2. [`std::thread::available_parallelism`] (respects cgroup quotas and
///    CPU affinity masks);
/// 3. the processor count in `/proc/cpuinfo` — the fallback for platforms
///    where `available_parallelism` errors out entirely;
/// 4. 1.
pub fn detect_threads() -> usize {
    if let Ok(v) = std::env::var("SM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    if let Ok(n) = std::thread::available_parallelism() {
        return n.get();
    }
    if let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") {
        let n = cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count();
        if n >= 1 {
            return n;
        }
    }
    1
}

/// Configuration of a match run.
pub struct MatchEngine {
    pub(crate) voters: Vec<Box<dyn MatchVoter>>,
    pub(crate) merger: MergeStrategy,
    /// Per-schema feature cache (owns the normalizer).
    pub(crate) cache: Arc<FeatureCache>,
    /// The persistent worker pool every parallel stage runs on.
    pub(crate) exec: Arc<Executor>,
    pub(crate) threads: usize,
    /// Structural-propagation blend factor α ∈ [0,1): a non-root pair's final
    /// score is `(1−α)·own + α·parents'`. Disambiguates generic leaf names
    /// (`name`, `identifier`) by their containers — a one-step analogue of
    /// similarity flooding. 0 disables.
    pub(crate) propagation_alpha: f64,
    /// Merged-score floor: when `Some(f)`, merged cells scoring below `f`
    /// are written as exactly `0.0` (on the f64 merged value, before the
    /// f32 matrix narrowing). `None` — the default — preserves the exact
    /// historical semantics. The floor is what licenses the score cascade:
    /// a pair whose provable merged upper bound already falls below `f`
    /// can skip the expensive voters and write `0.0` directly.
    pub(crate) score_floor: Option<f64>,
    /// Whether `voters` is still the untouched [`default_voters`] panel —
    /// the cascade's per-voter bounds are derived for exactly that panel,
    /// so any `with_voters` replacement disables tier-1 skipping.
    pub(crate) panel_is_default: bool,
    /// Test/bench override: `false` forces the full-panel reference path
    /// even when a floor is set (the retained reference the cascade is
    /// pinned against).
    pub(crate) cascade_enabled: bool,
    /// Serving-layer cancellation/deadline token, checked at chunk
    /// boundaries of every parallel stage. `None` (the default) makes
    /// every checkpoint a no-op.
    pub(crate) job_token: Option<crate::serve::JobToken>,
    /// Serving-layer helper-lane budget this engine's stages draw from.
    /// `None` (the default) is unbudgeted — exactly the historical
    /// behavior.
    pub(crate) lane_budget: Option<Arc<crate::exec::LaneBudget>>,
}

impl MatchEngine {
    /// Engine with the default voter panel, Harmony merger, the process-wide
    /// [`FeatureCache`] (default normalizer), and one thread per available
    /// CPU.
    pub fn new() -> Self {
        MatchEngine {
            voters: default_voters(),
            merger: MergeStrategy::default(),
            cache: Arc::clone(FeatureCache::global()),
            exec: Arc::clone(Executor::global()),
            threads: detect_threads(),
            propagation_alpha: 0.3,
            score_floor: None,
            panel_is_default: true,
            cascade_enabled: true,
            job_token: None,
            lane_budget: None,
        }
    }

    /// Replace the voter panel. A custom panel disables the tier-1 cascade
    /// (its per-voter bounds are derived for the default panel only); runs
    /// fall back to full-panel scoring, floored if a floor is set.
    pub fn with_voters(mut self, voters: Vec<Box<dyn MatchVoter>>) -> Self {
        self.voters = voters;
        self.panel_is_default = false;
        self
    }

    /// Set the merged-score floor: merged scores below `floor` are written
    /// as exactly `0.0`. Cells a selection threshold ≥ `floor` would never
    /// accept anyway become skippable for the scoring cascade — with
    /// `Some(0.0)`, every non-positive merged score flattens to `0.0` and
    /// the Score stage may prune provably-losing pairs outright. `None`
    /// restores the exact historical semantics.
    pub fn with_score_floor(mut self, floor: Option<f64>) -> Self {
        self.score_floor = floor;
        self
    }

    /// Force the full-panel reference path even when a floor is set
    /// (pin tests and benches compare the cascade against exactly this).
    pub fn with_cascade(mut self, enabled: bool) -> Self {
        self.cascade_enabled = enabled;
        self
    }

    /// True when runs will use the tier-1/tier-2 cascade: a floor is set,
    /// the panel is the untouched default, and the merger is the Harmony
    /// weighted vote (the bound derivation targets exactly that merge).
    pub fn cascade_active(&self) -> bool {
        self.cascade_enabled
            && self.score_floor.is_some()
            && self.panel_is_default
            && matches!(self.merger, MergeStrategy::HarmonyWeighted)
    }

    /// Replace the merge strategy.
    pub fn with_merger(mut self, merger: MergeStrategy) -> Self {
        self.merger = merger;
        self
    }

    /// Replace the normalizer. The engine switches to a private feature cache
    /// for the new configuration (prepared features are only valid for the
    /// normalizer that produced them).
    pub fn with_normalizer(mut self, normalizer: Normalizer) -> Self {
        self.cache = Arc::new(FeatureCache::new(normalizer));
        self
    }

    /// Share an explicit feature cache (e.g. one owned by a repository, or by
    /// several engines with the same normalizer configuration).
    pub fn with_feature_cache(mut self, cache: Arc<FeatureCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Set the parallelism cap for this engine's runs (values < 1 are
    /// treated as 1). This bounds how many executor lanes a run uses; the
    /// pool itself is shared (see [`Self::with_executor`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Run on an explicit executor instead of [`Executor::global`] (tests
    /// pinning a pool width, embedders isolating workloads).
    pub fn with_executor(mut self, exec: Arc<Executor>) -> Self {
        self.exec = exec;
        self
    }

    /// The executor this engine's parallel stages run on.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.exec
    }

    /// Attach a serving-layer cancellation/deadline token: every parallel
    /// stage checks it at chunk boundaries and unwinds cooperatively when
    /// it trips (see [`crate::serve`]).
    pub fn with_job_token(mut self, token: crate::serve::JobToken) -> Self {
        self.job_token = Some(token);
        self
    }

    /// Draw helper lanes from a shared [`crate::exec::LaneBudget`] instead
    /// of claiming the pool freely — the serving layer's per-class
    /// fair-share mechanism.
    pub fn with_lane_budget(mut self, budget: Arc<crate::exec::LaneBudget>) -> Self {
        self.lane_budget = Some(budget);
        self
    }

    /// The attached job token, if any.
    pub fn job_token(&self) -> Option<&crate::serve::JobToken> {
        self.job_token.as_ref()
    }

    /// This engine's execution controls for one call: its executor,
    /// thread cap, lane budget and job token, as every parallel stage takes
    /// them (see [`crate::exec::Job`]).
    pub fn job(&self) -> crate::exec::Job<'_> {
        crate::exec::Job::new(&self.exec, self.threads)
            .with_budget(self.lane_budget.as_deref())
            .with_token(self.job_token.as_ref())
    }

    /// A batch planner over this engine's configuration — the entry point
    /// for many-pair workloads (see [`crate::batch`]).
    pub fn batch(&self) -> BatchPlanner<'_> {
        BatchPlanner::new(self)
    }

    /// Set the structural-propagation factor (clamped to `[0, 0.95]`;
    /// 0 disables propagation).
    pub fn with_propagation(mut self, alpha: f64) -> Self {
        self.propagation_alpha = alpha.clamp(0.0, 0.95);
        self
    }

    /// Names of the configured voters, in panel order.
    pub fn voter_names(&self) -> Vec<&'static str> {
        self.voters.iter().map(|v| v.name()).collect()
    }

    /// Borrow the normalizer (e.g. to inspect its options).
    pub fn normalizer(&self) -> &Normalizer {
        self.cache.normalizer()
    }

    /// The engine's feature cache.
    pub fn feature_cache(&self) -> &Arc<FeatureCache> {
        &self.cache
    }

    /// Fetch (or build) the cached per-schema preparation — the Prepare
    /// stage's per-schema half, exposed so repositories and n-way efforts can
    /// warm the cache explicitly. A miss is built in element chunks on this
    /// engine's executor lanes, under its lane budget and job token.
    pub fn prepare(&self, schema: &Schema) -> Arc<PreparedSchema> {
        self.cache.get_or_prepare_on(schema, self.job())
    }

    /// A staged view of this engine's configuration.
    pub fn pipeline(&self) -> MatchPipeline<'_> {
        MatchPipeline::new(self)
    }

    /// Build the linguistic context for a schema pair. Exposed so callers
    /// performing many restricted matches (the incremental workflow) can
    /// amortize it. Per-schema features come from the feature cache; only the
    /// joint TF-IDF corpus is computed per pair.
    pub fn build_context<'a>(&self, source: &'a Schema, target: &'a Schema) -> MatchContext<'a> {
        let prepared_source = self.prepare(source);
        let prepared_target = self.prepare(target);
        // Trusted: the preparations were just served by the cache for these
        // exact schemata, so the staleness re-fingerprint is skipped.
        MatchContext::from_prepared_trusted(
            source,
            target,
            &prepared_source,
            &prepared_target,
            &sm_schema::InstanceData::empty(),
            &sm_schema::InstanceData::empty(),
        )
    }

    /// The full automated match with sampled instance data attached (used
    /// together with a panel containing [`crate::voter::InstanceVoter`]).
    pub fn run_with_instances(
        &self,
        source: &Schema,
        target: &Schema,
        source_instances: &sm_schema::InstanceData,
        target_instances: &sm_schema::InstanceData,
    ) -> MatchResult {
        self.pipeline()
            .run_with_instances(source, target, source_instances, target_instances)
    }

    /// Score one pair under the configured panel and merger.
    pub fn score_pair(&self, ctx: &MatchContext<'_>, s: ElementId, t: ElementId) -> Confidence {
        let votes: Vec<Confidence> = self.voters.iter().map(|v| v.vote(ctx, s, t)).collect();
        self.merger.merge(&votes)
    }

    /// Per-voter scores for one pair (provenance / debugging / ablation).
    pub fn explain_pair(
        &self,
        ctx: &MatchContext<'_>,
        s: ElementId,
        t: ElementId,
    ) -> Vec<(&'static str, Confidence)> {
        self.voters
            .iter()
            .map(|v| (v.name(), v.vote(ctx, s, t)))
            .collect()
    }

    /// The full automated match: every source element against every target
    /// element. This is the paper's `MATCH(S1, S2)` operator, executed as the
    /// staged pipeline.
    pub fn run(&self, source: &Schema, target: &Schema) -> MatchResult {
        self.pipeline().run(source, target)
    }

    /// The blocked match: candidate pairs are generated from the token-
    /// blocking index under `policy` and only those are scored (see
    /// [`crate::index`]). With [`BlockingPolicy::Exhaustive`] the result is
    /// byte-identical to [`Self::run`]; with the default policy it scores a
    /// few percent of the cross product at paper scale.
    pub fn run_blocked(
        &self,
        source: &Schema,
        target: &Schema,
        policy: &BlockingPolicy,
    ) -> BlockedMatchResult {
        self.pipeline().run_blocked(source, target, policy)
    }

    /// Restricted match over explicit candidate id lists (the sub-tree /
    /// depth-filtered increments of the paper's workflow). Returns scored
    /// pairs rather than a dense matrix, since restrictions are sparse.
    ///
    /// The increment is the pipeline's Score → Merge → Propagate over
    /// [`CandidateSet::rectangle`] (`source_ids × target_ids`, closed under
    /// parenthood), so every pair carries exactly the score [`Self::run`]
    /// gives that cell — floor, cascade, lane budget and job token
    /// included. Pairs come back in source-major caller order: one per
    /// `(source_ids[i], target_ids[j])`, repeated ids included.
    pub fn run_restricted(
        &self,
        ctx: &MatchContext<'_>,
        source_ids: &[ElementId],
        target_ids: &[ElementId],
    ) -> RestrictedResult {
        let started = Instant::now();
        let mut timings = StageTimings::default();
        let (_, matrix) = self.pipeline().run_candidates(ctx, &mut timings, || {
            CandidateSet::rectangle(ctx.source, ctx.target, source_ids, target_ids)
        });
        let pairs = source_ids
            .iter()
            .flat_map(|&s| target_ids.iter().map(move |&t| (s, t)))
            .map(|(s, t)| (s, t, matrix.get(s, t)))
            .collect();
        RestrictedResult {
            pairs_considered: source_ids.len() * target_ids.len(),
            pairs,
            elapsed: started.elapsed(),
        }
    }
}

impl Default for MatchEngine {
    fn default() -> Self {
        MatchEngine::new()
    }
}

/// Result of a full `MATCH(S1, S2)` run.
pub struct MatchResult {
    /// The dense score matrix.
    pub matrix: MatchMatrix,
    /// Wall-clock time of the run (context build + scoring).
    pub elapsed: Duration,
    /// Number of candidate pairs scored (`|S1| · |S2|`).
    pub pairs_considered: usize,
    /// Per-stage wall-clock breakdown of the pipeline.
    pub timings: StageTimings,
}

/// Result of a blocked `MATCH(S1, S2)` run.
#[derive(Debug)]
pub struct BlockedMatchResult {
    /// The score matrix; pairs pruned by blocking hold the neutral `0.0`.
    pub matrix: MatchMatrix,
    /// Wall-clock time of the run (prepare + block + scoring + propagate).
    pub elapsed: Duration,
    /// Size of the full cross product (`|S1| · |S2|`).
    pub pairs_considered: usize,
    /// Candidate pairs actually scored.
    pub pairs_scored: usize,
    /// The candidate set that was scored.
    pub candidates: CandidateSet,
    /// Per-stage wall-clock breakdown (including the Block stage).
    pub timings: StageTimings,
}

/// Result of a restricted (incremental) match.
#[derive(Debug)]
pub struct RestrictedResult {
    /// Scored pairs in source-major order.
    pub pairs: Vec<(ElementId, ElementId, Confidence)>,
    /// Number of candidate pairs scored in this increment.
    pub pairs_considered: usize,
    /// Wall-clock time of the increment.
    pub elapsed: Duration,
}

impl RestrictedResult {
    /// Pairs scoring at least `threshold`, best first.
    pub fn above(&self, threshold: Confidence) -> Vec<(ElementId, ElementId, Confidence)> {
        let mut hits: Vec<_> = self
            .pairs
            .iter()
            .filter(|(_, _, c)| c.value() >= threshold.value())
            .copied()
            .collect();
        hits.sort_by(|a, b| b.2.value().partial_cmp(&a.2.value()).expect("finite"));
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_schema::{DataType, Documentation, ElementKind, Schema, SchemaFormat, SchemaId};

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
        let v = a.add_root("Vehicle", ElementKind::Table, DataType::None);
        a.add_child(v, "vin", ElementKind::Column, DataType::varchar(17))
            .unwrap();

        let mut b = Schema::new(SchemaId(2), "S_B", SchemaFormat::Xml);
        let p2 = b.add_root("PersonType", ElementKind::ComplexType, DataType::None);
        let pid2 = b
            .add_child(
                p2,
                "PersonIdentifier",
                ElementKind::XmlElement,
                DataType::Integer,
            )
            .unwrap();
        b.set_doc(
            pid2,
            Documentation::embedded("unique identifier of the person"),
        )
        .unwrap();
        b.add_child(p2, "LastName", ElementKind::XmlElement, DataType::text())
            .unwrap();
        let w = b.add_root("WeaponType", ElementKind::ComplexType, DataType::None);
        b.add_child(w, "SerialNumber", ElementKind::XmlElement, DataType::text())
            .unwrap();
        (a, b)
    }

    #[test]
    fn full_match_fills_matrix() {
        let (a, b) = fixture();
        let engine = MatchEngine::new().with_threads(2);
        let r = engine.run(&a, &b);
        assert_eq!(r.pairs_considered, a.len() * b.len());
        assert_eq!(r.matrix.rows(), a.len());
        assert_eq!(r.matrix.cols(), b.len());
    }

    #[test]
    fn true_pairs_outscore_false_pairs() {
        let (a, b) = fixture();
        let engine = MatchEngine::new().with_threads(1);
        let r = engine.run(&a, &b);
        let pid = a.find_by_name("person_id").unwrap();
        let pid2 = b.find_by_name("PersonIdentifier").unwrap();
        let serial = b.find_by_name("SerialNumber").unwrap();
        let good = r.matrix.get(pid, pid2);
        let bad = r.matrix.get(pid, serial);
        assert!(good.value() > bad.value(), "good {good} bad {bad}");
        assert!(good.value() > 0.2, "true pair should score well: {good}");

        let ln = a.find_by_name("last_name").unwrap();
        let ln2 = b.find_by_name("LastName").unwrap();
        assert!(r.matrix.get(ln, ln2).value() > 0.3);
    }

    #[test]
    fn single_and_multi_thread_agree() {
        let (a, b) = fixture();
        let e1 = MatchEngine::new().with_threads(1);
        let e4 = MatchEngine::new().with_threads(4);
        let r1 = e1.run(&a, &b);
        let r4 = e4.run(&a, &b);
        for s in a.ids() {
            for t in b.ids() {
                assert!(
                    (r1.matrix.get(s, t).value() - r4.matrix.get(s, t).value()).abs() < 1e-9,
                    "thread-count must not change scores"
                );
            }
        }
    }

    #[test]
    fn empty_schemas_yield_empty_result() {
        let a = Schema::new(SchemaId(1), "e", SchemaFormat::Generic);
        let (_, b) = fixture();
        let engine = MatchEngine::new();
        let r = engine.run(&a, &b);
        assert_eq!(r.pairs_considered, 0);
        assert!(r.matrix.is_empty());
    }

    #[test]
    fn restricted_match_counts_pairs() {
        let (a, b) = fixture();
        let engine = MatchEngine::new();
        let ctx = engine.build_context(&a, &b);
        let person = a.find_by_name("Person").unwrap();
        let src: Vec<ElementId> = a.subtree_ids(person);
        let tgt: Vec<ElementId> = b.ids().collect();
        let r = engine.run_restricted(&ctx, &src, &tgt);
        assert_eq!(r.pairs_considered, src.len() * b.len());
        assert_eq!(r.pairs.len(), r.pairs_considered);
        // Threshold filtering sorts best-first.
        let hits = r.above(Confidence::new(0.2));
        for w in hits.windows(2) {
            assert!(w[0].2.value() >= w[1].2.value());
        }
    }

    #[test]
    fn explain_pair_lists_all_voters() {
        let (a, b) = fixture();
        let engine = MatchEngine::new();
        let ctx = engine.build_context(&a, &b);
        let pid = a.find_by_name("person_id").unwrap();
        let pid2 = b.find_by_name("PersonIdentifier").unwrap();
        let explanation = engine.explain_pair(&ctx, pid, pid2);
        assert_eq!(explanation.len(), engine.voter_names().len());
        assert!(explanation.iter().any(|(n, _)| *n == "documentation"));
    }

    #[test]
    fn merger_choice_changes_scores() {
        let (a, b) = fixture();
        let harmony = MatchEngine::new().with_threads(1);
        let avg = MatchEngine::new()
            .with_merger(MergeStrategy::Average)
            .with_threads(1);
        let rh = harmony.run(&a, &b);
        let ra = avg.run(&a, &b);
        let pid = a.find_by_name("person_id").unwrap();
        let pid2 = b.find_by_name("PersonIdentifier").unwrap();
        // Average dilutes with neutral voters, Harmony does not.
        assert!(rh.matrix.get(pid, pid2).value() > ra.matrix.get(pid, pid2).value());
    }

    #[test]
    fn second_run_hits_feature_cache() {
        let (a, b) = fixture();
        // Private cache so other tests' global-cache traffic can't interfere.
        let engine = MatchEngine::new().with_normalizer(Normalizer::new());
        let r1 = engine.run(&a, &b);
        let stats_cold = engine.feature_cache().stats();
        assert_eq!(stats_cold.misses, 2, "both schemata prepared once");
        let r2 = engine.run(&a, &b);
        let stats_warm = engine.feature_cache().stats();
        assert_eq!(stats_warm.misses, 2, "warm run prepares nothing");
        assert_eq!(stats_warm.hits, stats_cold.hits + 2);
        assert_eq!(
            r1.matrix.as_slice(),
            r2.matrix.as_slice(),
            "cached run must be byte-identical"
        );
    }

    #[test]
    fn timings_sum_close_to_elapsed() {
        let (a, b) = fixture();
        let engine = MatchEngine::new().with_threads(2);
        let r = engine.run(&a, &b);
        assert!(r.timings.total() <= r.elapsed + Duration::from_millis(5));
        assert!(r.timings.prepare > Duration::ZERO);
    }
}
