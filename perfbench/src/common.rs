//! What every workload shares: run parameters, the seeded generator, output
//! digests, sample buckets, the metric registry, and the result record.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use harmony_core::prelude::*;
use harmony_core::prepare::CacheStats;
use sm_enterprise::SearchHit;
use sm_schema::ElementId;

use crate::stats;

/// Parameters of one workload run, straight from the command line.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seeds the operation sequence (op mix, op order, pair picks).
    pub seed: u64,
    /// Overrides the workload's data-generator seed.
    pub data_seed: Option<u64>,
    /// Measured seconds of the closed loop.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Available CPUs; the engine, executor, and generator-thread cap.
    pub nproc: usize,
    /// Output directory for images and span dumps (`perfbench/out`).
    pub out_dir: PathBuf,
}

impl Params {
    /// Whether a closed loop started at `start` has measured `--seconds`.
    pub fn measuring(&self, start: Instant) -> bool {
        start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Generator threads a workload may spawn for `wanted` clients: never more
/// than the host's CPUs, never fewer than one.
pub fn generator_threads(wanted: usize, nproc: usize) -> usize {
    wanted.min(nproc).max(1)
}

/// Fires at most once per period.
pub struct Every {
    period: Duration,
    last: Instant,
}

impl Every {
    pub fn new(period: Duration) -> Every {
        Every {
            period,
            last: Instant::now(),
        }
    }

    pub fn due(&mut self) -> bool {
        let due = self.last.elapsed() >= self.period;
        if due {
            self.last = Instant::now();
        }
        due
    }
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// FNV-1a over 64-bit words.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a selection: its (source, target, score) triples in order.
pub fn digest_selection(set: &MatchSet) -> u64 {
    let mut cells: Vec<(u32, u32, u64)> = set
        .all()
        .iter()
        .map(|c| (c.source.0, c.target.0, c.score.value().to_bits()))
        .collect();
    cells.sort_unstable();
    fnv(cells
        .into_iter()
        .flat_map(|(s, t, v)| [u64::from(s) << 32 | u64::from(t), v]))
}

/// Digest of an increment's hit list, in the order the analyst sees it.
pub fn digest_hits(hits: &[(ElementId, ElementId, Confidence)]) -> u64 {
    fnv(hits
        .iter()
        .flat_map(|(s, t, c)| [u64::from(s.0) << 32 | u64::from(t.0), c.value().to_bits()]))
}

/// Digest of a ranked search answer.
pub fn digest_search(hits: &[SearchHit]) -> u64 {
    fnv(hits
        .iter()
        .flat_map(|h| [u64::from(h.schema_id.0), h.score.to_bits()]))
}

/// Latencies of one operation class, split by whether the op was traced.
/// Untraced samples keep the instant their op started, so each can be
/// normalized by the host speed measured around it.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub untraced: Vec<(Instant, f64)>,
    pub traced_ms: Vec<f64>,
}

impl Samples {
    /// Record one op that started at `started` and has just finished.
    pub fn push(&mut self, traced: bool, started: Instant) {
        self.push_ms(traced, started, started.elapsed().as_secs_f64() * 1e3);
    }

    /// Record one op of `ms` milliseconds that ran at about `started`.
    pub fn push_ms(&mut self, traced: bool, started: Instant, ms: f64) {
        if traced {
            self.traced_ms.push(ms);
        } else {
            self.untraced.push((started, ms));
        }
    }

    pub fn extend(&mut self, other: Samples) {
        self.untraced.extend(other.untraced);
        self.traced_ms.extend(other.traced_ms);
    }

    pub fn untraced_ms(&self) -> Vec<f64> {
        self.untraced.iter().map(|&(_, ms)| ms).collect()
    }

    /// `traced median / untraced median`, when both sides have samples.
    pub fn overhead(&self) -> Option<f64> {
        (!self.traced_ms.is_empty() && !self.untraced.is_empty())
            .then(|| stats::median(&self.traced_ms) / stats::median(&self.untraced_ms()))
    }
}

/// The three operation classes every workload runs.
#[derive(Debug, Default)]
pub struct OpClasses {
    pub matches: Samples,
    pub queries: Samples,
    pub bulk: Samples,
}

/// The tail percentile runs print per operation class and the serving
/// layer's per-layer waits report. Tails are not end-to-end metrics: on a
/// shared host a burst of outside load in two or three runs of ten moved
/// p99 tails by up to 63% and p90 tails by up to 32% (quartile spread), past
/// any bound a regression check could use.
pub const TAIL: f64 = 0.90;

/// How fast the host runs around a given instant, measured with a fixed
/// reference computation interleaved with the workload's operations.
///
/// On a shared host the core's speed switches between states up to ~1.45×
/// apart that each last seconds; a run's raw median latency then depends
/// on how much of the run fell into slow states (raw medians spread up to
/// 28% between runs). Every time metric is therefore reported
/// host-normalized: each sample is multiplied by [`REFERENCE_MS`] over the
/// reference's median time within [`WINDOW`] of the sample, which brought
/// the spreads to 2–15%.
pub struct Calibration {
    due: Every,
    samples: Vec<(Instant, f64)>,
}

/// The reference computation's typical time on the 2-vCPU container the
/// bounds were tuned on, so normalized times read close to real ones there.
pub const REFERENCE_MS: f64 = 1.6;
const CALIBRATE_EVERY: Duration = Duration::from_millis(100);
/// Reference samples within this distance of an instant describe it.
const WINDOW: Duration = Duration::from_secs(2);

impl Calibration {
    pub fn new() -> Calibration {
        let mut c = Calibration {
            due: Every::new(CALIBRATE_EVERY),
            samples: Vec::new(),
        };
        for _ in 0..5 {
            c.sample();
        }
        c
    }

    /// One timed run of the reference: 2^20 steps of a dependent integer
    /// hash chain. It touches no memory, so it tracks the core's speed
    /// (clock and sibling-thread contention), which is what drifts; a
    /// memory-bound reference tracked the workloads' latencies worse.
    pub fn sample(&mut self) {
        let started = Instant::now();
        let mut rng = Rng::new(1);
        let mut acc = 0u64;
        for _ in 0..1 << 20 {
            acc ^= rng.next_u64();
        }
        std::hint::black_box(acc);
        self.samples
            .push((started, started.elapsed().as_secs_f64() * 1e3));
    }

    /// Sample again once per [`CALIBRATE_EVERY`].
    pub fn tick(&mut self) {
        self.tick_quiet(|| ());
    }

    /// [`Self::tick`] that holds what `quiet` returns while it samples: a
    /// workload with load of its own beside the caller pauses that load,
    /// so the reference measures the host and not the workload.
    pub fn tick_quiet<G>(&mut self, quiet: impl FnOnce() -> G) {
        if self.due.due() {
            let _quiet = quiet();
            self.sample();
        }
    }

    /// The factor a time measured at `at` is multiplied by: the reference
    /// samples within [`WINDOW`] of it, or the five nearest when the
    /// window holds fewer than three.
    pub fn scale_at(&self, at: Instant) -> f64 {
        let dist = |t: Instant| {
            if t > at {
                t - at
            } else {
                at - t
            }
        };
        let mut near: Vec<(Duration, f64)> =
            self.samples.iter().map(|&(t, ms)| (dist(t), ms)).collect();
        near.sort_by_key(|a| a.0);
        let within = near.iter().take_while(|(d, _)| *d <= WINDOW).count();
        let take = if within >= 3 { within } else { 5 };
        let ms: Vec<f64> = near.iter().take(take).map(|&(_, ms)| ms).collect();
        REFERENCE_MS / stats::median(&ms)
    }

    /// Normalize every untraced sample of `s` by the host speed around it.
    /// Consecutive samples of one instant (the pair jobs of one batch run)
    /// share one factor.
    pub fn normalize(&self, s: &Samples) -> Vec<f64> {
        let mut last: Option<(Instant, f64)> = None;
        s.untraced
            .iter()
            .map(|&(at, ms)| {
                let scale = match last {
                    Some((t, scale)) if t == at => scale,
                    _ => self.scale_at(at),
                };
                last = Some((at, scale));
                ms * scale
            })
            .collect()
    }

    /// Median factor over the whole run, for the human summary.
    pub fn run_scale(&self) -> f64 {
        let ms: Vec<f64> = self.samples.iter().map(|&(_, ms)| ms).collect();
        REFERENCE_MS / stats::median(&ms)
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

/// One end-to-end metric: its name, unit, and the share of the parent's
/// median by which it may worsen before a change counts as a regression.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// Every end-to-end metric, reported by every workload (see the table in
/// `main.rs` for what each means on each workload).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", false, 0.25),
    m("peak_rss_mb", "MB", false, 0.25),
    m("match_p50_ms", "ms", false, 0.25),
    m("query_p50_ms", "ms", false, 0.25),
    m("bulk_p50_ms", "ms", false, 0.25),
    m("restart_s", "s", false, 0.25),
    m("quality", "ratio", true, 0.01),
];

/// One per-layer metric of the traced run.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn l(name: &'static str, unit: &'static str, higher: bool) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        higher_is_better: higher,
    }
}

/// Layers the outside-in spans are named after (`<layer>.<call>`).
pub const LAYERS: &[&str] = &[
    "prepare", "index", "pipeline", "workflow", "select", "batch", "serve", "repo", "search",
    "persist",
];

/// Every per-layer metric, reported by every traced run. A layer a
/// workload never calls reports 0.
pub const PER_LAYER: &[LayerMetric] = &[
    l("prepare.build_ms", "ms", false),
    l("prepare.cache_hit_rate", "ratio", true),
    l("prepare.cache_evictions", "count", false),
    l("prepare.context_ms", "ms", false),
    l("prepare.cache_resident_mb", "MB", false),
    l("index.build_ms", "ms", false),
    l("index.probe_ms.t1", "ms", false),
    l("index.probe_ms.t2", "ms", false),
    l("index.candidates", "count", false),
    l("index.candidate_fraction", "ratio", false),
    l("pipeline.score_merge_propagate_ms", "ms", false),
    l("pipeline.tier1_ms", "ms", false),
    l("pipeline.tier2_ms", "ms", false),
    l("pipeline.merge_ms", "ms", false),
    l("pipeline.propagate_ms", "ms", false),
    l("pipeline.tier1_skip_rate", "ratio", true),
    l("pipeline.dense_score_ms", "ms", false),
    l("workflow.increment_ns_per_pair", "ns", false),
    l("select.apply_ms", "ms", false),
    l("batch.plan_ms", "ms", false),
    l("batch.plan_estimate_ms", "ms", false),
    l("batch.planned_fraction", "ratio", false),
    l("batch.run_ms", "ms", false),
    l("batch.pairs_scored", "count", false),
    l("exec.stolen", "count", false),
    l("exec.parked", "count", false),
    l("exec.inline_runs", "count", false),
    l("exec.queue_depth_max", "count", false),
    l("serve.queue_wait_ms.point", "ms", false),
    l("serve.queue_wait_ms.search", "ms", false),
    l("serve.queue_wait_ms.batch", "ms", false),
    l("serve.run_ms.point", "ms", false),
    l("serve.run_ms.search", "ms", false),
    l("serve.run_ms.batch", "ms", false),
    l("serve.rejected", "count", false),
    l("serve.shed", "count", false),
    l("serve.timeouts", "count", false),
    l("serve.degraded", "count", false),
    l("repo.register_ms", "ms", false),
    l("repo.refresh_ms", "ms", false),
    l("repo.pending_ops", "count", false),
    l("repo.write_visible_p90_ms", "ms", false),
    l("search.rebuild_ms", "ms", false),
    l("persist.save_s", "s", false),
    l("persist.load_s", "s", false),
    l("persist.image_mb", "MB", false),
    l("self_share.prepare", "ratio", false),
    l("self_share.index", "ratio", false),
    l("self_share.pipeline", "ratio", false),
    l("self_share.workflow", "ratio", false),
    l("self_share.select", "ratio", false),
    l("self_share.batch", "ratio", false),
    l("self_share.serve", "ratio", false),
    l("self_share.repo", "ratio", false),
    l("self_share.search", "ratio", false),
    l("self_share.persist", "ratio", false),
    l("coverage.match", "ratio", true),
    l("coverage.query", "ratio", true),
    l("coverage.bulk", "ratio", true),
    l("coverage.write", "ratio", true),
    l("dark_ms.match", "ms", false),
    l("dark_ms.query", "ms", false),
    l("dark_ms.bulk", "ms", false),
    l("dark_ms.write", "ms", false),
    l("trace.overhead.match", "ratio", false),
    l("trace.overhead.query", "ratio", false),
    l("trace.overhead.bulk", "ratio", false),
];

/// Per-layer values a traced run accumulates: every pushed value is
/// reduced to its median; `set` stores a final value as is.
#[derive(Debug, Default)]
pub struct Layers {
    pushed: BTreeMap<&'static str, Vec<f64>>,
    set: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.pushed.entry(name).or_default().push(value);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set.insert(name, value);
    }

    /// Fold another thread's pushed values into this one.
    pub fn merge(&mut self, other: Layers) {
        for (name, values) in other.pushed {
            self.pushed.entry(name).or_default().extend(values);
        }
    }

    /// Final value of `name`, 0 when the layer never ran.
    pub fn value(&self, name: &str) -> f64 {
        if let Some(v) = self.set.get(name) {
            return *v;
        }
        self.pushed
            .get(name)
            .filter(|v| !v.is_empty())
            .map_or(0.0, |v| stats::median(v))
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end values by name (untraced runs).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values (traced runs).
    pub layers: Layers,
    /// Sample counts and chosen tail percentiles, for the human summary.
    pub notes: Vec<String>,
    /// Movement of the library's obs counters over the measured window.
    pub obs: Vec<(&'static str, u64)>,
}

impl Outcome {
    /// Record one op's outcome: a digest mismatch, refusal, shed, timeout,
    /// or cancel counts as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record the host-normalized median of `samples` (milliseconds) as
    /// the seconds metric `name`.
    pub fn seconds(&mut self, name: &'static str, samples: &Samples, calibration: &Calibration) {
        self.e2e
            .insert(name, stats::median(&calibration.normalize(samples)) / 1e3);
    }

    /// Fill the latency metrics of the three op classes from their
    /// untraced samples, each host-normalized, and the traced-over-untraced
    /// ratios.
    pub fn latencies(&mut self, ops: &OpClasses, calibration: &Calibration) {
        self.notes.push(format!(
            "host speed factor {:.4} over {} reference samples",
            calibration.run_scale(),
            calibration.samples()
        ));
        for (class, samples, p50) in [
            ("match", &ops.matches, "match_p50_ms"),
            ("query", &ops.queries, "query_p50_ms"),
        ] {
            let v = stats::sorted(&calibration.normalize(samples));
            if v.is_empty() {
                continue;
            }
            self.e2e.insert(p50, stats::percentile(&v, 0.5));
            let beyond = stats::beyond(&v, TAIL);
            self.notes.push(format!(
                "{class}: {} samples, p{:.0} {:.4} ms with {beyond} samples beyond{}; raw p50 {:.4} ms",
                v.len(),
                TAIL * 100.0,
                stats::percentile(&v, TAIL),
                if v.len() < stats::samples_for_tail(TAIL) {
                    " (fewer than 10)"
                } else {
                    ""
                },
                stats::median(&samples.untraced_ms()),
            ));
        }
        let bulk = calibration.normalize(&ops.bulk);
        if !bulk.is_empty() {
            self.e2e.insert("bulk_p50_ms", stats::median(&bulk));
            self.notes.push(format!("bulk: {} samples", bulk.len()));
        }
        for (name, s) in [
            ("trace.overhead.match", &ops.matches),
            ("trace.overhead.query", &ops.queries),
            ("trace.overhead.bulk", &ops.bulk),
        ] {
            if let Some(r) = s.overhead() {
                self.layers.set(name, r);
            }
        }
    }
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    harmony_core::serve::peak_rss_bytes().unwrap_or(0) as f64 / (1u64 << 20) as f64
}

/// Deltas of the library's scheduling counters over a measured window.
pub fn exec_deltas(layers: &mut Layers, before: ExecStats, after: ExecStats) {
    layers.set("exec.stolen", (after.stolen - before.stolen) as f64);
    layers.set("exec.parked", (after.parked - before.parked) as f64);
    layers.set(
        "exec.inline_runs",
        (after.inline_runs - before.inline_runs) as f64,
    );
    layers.set("exec.queue_depth_max", after.queue_depth_max as f64);
}

/// Cache movement over a measured window.
pub fn cache_deltas(layers: &mut Layers, before: CacheStats, after: CacheStats) {
    let hits = after.hits.saturating_sub(before.hits) as f64;
    let misses = after.misses.saturating_sub(before.misses) as f64;
    if hits + misses > 0.0 {
        layers.set("prepare.cache_hit_rate", hits / (hits + misses));
    }
    layers.set(
        "prepare.cache_evictions",
        after.evictions.saturating_sub(before.evictions) as f64,
    );
    layers.set(
        "prepare.cache_resident_mb",
        after.resident_bytes as f64 / (1u64 << 20) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_never_exceed_the_cpu_count() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for nproc in 1..=4 {
            for wanted in 1..=3 {
                let n = generator_threads(wanted, nproc);
                assert!(n >= 1 && n <= nproc && n <= wanted.max(1));
                let spawned = AtomicUsize::new(0);
                std::thread::scope(|s| {
                    for _ in 0..n {
                        s.spawn(|| spawned.fetch_add(1, Ordering::Relaxed));
                    }
                });
                assert!(spawned.load(Ordering::Relaxed) <= nproc);
            }
        }
    }

    #[test]
    fn rng_is_reproducible_and_permutes() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut p = Rng::new(3).permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
        assert_ne!(Rng::new(1).permutation(50), Rng::new(2).permutation(50));
    }

    #[test]
    fn layers_reduce_to_medians_or_zero() {
        let mut l = Layers::default();
        for v in [3.0, 1.0, 2.0] {
            l.push("index.build_ms", v);
        }
        l.set("exec.parked", 4.0);
        assert_eq!(l.value("index.build_ms"), 2.0);
        assert_eq!(l.value("exec.parked"), 4.0);
        assert_eq!(l.value("serve.shed"), 0.0);
    }

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
