//! Low-overhead observability: span rings, counters, and trace export.
//!
//! Six optimization PRs were steered by one coarse [`crate::pipeline::StageTimings`]
//! struct and per-bench hand-rolled timing code; this module replaces that
//! plumbing with one always-compiled subsystem:
//!
//! * **Spans** — every instrumented region records a fixed-size event
//!   (monotonic start timestamp, duration, kind, payload) into a per-thread
//!   lock-free ring buffer. Writers touch only their own ring (relaxed slot
//!   stores, one `Release` head publish), so the hot path costs a few
//!   nanoseconds and never contends. Readers ([`collect`]) take an `Acquire`
//!   snapshot of every registered ring; the view is exact once the writing
//!   threads are quiescent and best-effort while they are live.
//! * **Counters** — a fixed registry of named process-wide atomics
//!   ([`Counter`]) replacing the scattered ad-hoc stats (cache hit/miss,
//!   cascade pruned/full, executor steal/park, probe rows/postings). The
//!   per-thread `PairMemo` stats from `sm_text` are polled into the same
//!   snapshot so one export carries everything.
//! * **Exporters** — [`TraceReport`] aggregates per-kind duration
//!   histograms (p50/p95/p99) and per-lane utilization, and
//!   [`chrome_trace_json`] serializes the raw events in Chrome
//!   `trace_event` format so a run can be opened in `chrome://tracing` or
//!   Perfetto with one executor lane per row.
//!
//! Recording has one switch, [`set_enabled`]. Every span comes from a call
//! that measured it ([`timed`] or a [`SpanGuard`]); [`timed`] measures even
//! while recording is off, so a pipeline stage's span and its
//! [`crate::pipeline::StageTimings`] entry are one clock reading.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Number of `u64` words per packed event record.
const WORDS: usize = 4;

/// Default per-thread ring capacity, in events.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 14;

// ---------------------------------------------------------------------------
// Span kinds
// ---------------------------------------------------------------------------

/// What an event describes. Kinds are a closed set so the exporters can name
/// every event without carrying strings through the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// Pipeline Prepare stage: the feature-cache lookups (and any builds
    /// they start) plus the pair context; payload = the pair corpus's
    /// documents (source plus target elements).
    StagePrepare = 0,
    /// Pipeline Block stage; payload = candidate pairs.
    StageBlock = 1,
    /// Pipeline fused Score window (tier-1 + tier-2 + merge); payload =
    /// candidate pairs.
    StageScore = 2,
    /// Pipeline Propagate stage; payload = source rows blended.
    StagePropagate = 3,
    /// Selection over a finished matrix; payload = matrix cells.
    StageSelect = 4,
    /// One source row through the tier-1 prefilter (cascade path).
    ScoreTier1 = 5,
    /// One source row through full tier-2 scoring (cascade path).
    ScoreTier2 = 6,
    /// One source row merged into the matrix (cascade path).
    MergeRow = 7,
    /// One claimed chunk of the dense score+merge pass.
    ScoreChunk = 8,
    /// One claimed chunk of blocked candidate probing.
    ProbeChunk = 9,
    /// One helper-lane task body executed by a pool worker (a steal).
    ExecLane = 10,
    /// A pool worker parked on the condvar waiting for work.
    ExecPark = 11,
    /// A queued task reclaimed and drained inline by its owner.
    ExecDrain = 12,
    /// A `FeatureCache` miss building a `PreparedSchema`.
    CacheBuild = 13,
    /// A `FeatureCache` reader blocked on another thread's in-flight build.
    CacheWait = 14,
    /// One pair job inside a batch run (payload = left<<32|right).
    PairJob = 15,
    /// Element-level blocking index build.
    IndexBuild = 16,
    /// Repository token index build (`sm_enterprise`).
    RepoIndexBuild = 17,
    /// Repository search query (`sm_enterprise`).
    RepoQuery = 18,
    /// One shard of a sharded repository index built (`sm_enterprise`).
    RepoShardBuild = 19,
    /// One shard's delta log compacted back into flat CSR.
    RepoCompact = 20,
    /// A persisted repository registry loaded from disk (warm start).
    RepoWarmLoad = 21,
    /// One admitted serving-layer job, admission to completion (payload =
    /// job class discriminant).
    ServeJob = 22,
    /// Time a serving-layer job spent waiting for admission, whether it
    /// was admitted or not (payload = job class discriminant).
    ServeQueueWait = 23,
    /// Block's serial post-probe pass: backward-probe transpose plus the
    /// child-rescue selection (payload = strong container pairs).
    BlockRescue = 24,
    /// One row chunk of Block's candidate assembly (payload = rows).
    BlockAssemble = 25,
    /// One source tree level of Block's parent closure (payload = rows).
    BlockClose = 26,
    /// A match context's per-pair tier-1 digests built, with any
    /// preparation's columns no earlier context built, before the score
    /// lanes start (payload = source + target elements).
    ScoreDigests = 27,
    /// One element chunk of one phase of a `PreparedSchema` build — name
    /// normalization or element assembly (payload = elements).
    PrepareChunk = 28,
    /// A `PreparedSchema` build's serial tail: chunk concatenation, the
    /// name-token signature and the blocking-feature CSR (payload =
    /// elements).
    PrepareAssemble = 29,
    /// A batch's Plan stage; payload = schemata planned.
    StagePlan = 30,
    /// Plan sub-stage: the token index of every preparation that holds
    /// none yet; payload = schemata.
    PlanIndex = 31,
    /// Plan sub-stage: the overlap estimate walk; payload = schemata.
    PlanEstimate = 32,
    /// Plan sub-stage: filtering the requests; payload = pairs kept.
    PlanSchedule = 33,
}

/// All kinds, in discriminant order (export iteration order).
pub const SPAN_KINDS: [SpanKind; 34] = [
    SpanKind::StagePrepare,
    SpanKind::StageBlock,
    SpanKind::StageScore,
    SpanKind::StagePropagate,
    SpanKind::StageSelect,
    SpanKind::ScoreTier1,
    SpanKind::ScoreTier2,
    SpanKind::MergeRow,
    SpanKind::ScoreChunk,
    SpanKind::ProbeChunk,
    SpanKind::ExecLane,
    SpanKind::ExecPark,
    SpanKind::ExecDrain,
    SpanKind::CacheBuild,
    SpanKind::CacheWait,
    SpanKind::PairJob,
    SpanKind::IndexBuild,
    SpanKind::RepoIndexBuild,
    SpanKind::RepoQuery,
    SpanKind::RepoShardBuild,
    SpanKind::RepoCompact,
    SpanKind::RepoWarmLoad,
    SpanKind::ServeJob,
    SpanKind::ServeQueueWait,
    SpanKind::BlockRescue,
    SpanKind::BlockAssemble,
    SpanKind::BlockClose,
    SpanKind::ScoreDigests,
    SpanKind::PrepareChunk,
    SpanKind::PrepareAssemble,
    SpanKind::StagePlan,
    SpanKind::PlanIndex,
    SpanKind::PlanEstimate,
    SpanKind::PlanSchedule,
];

impl SpanKind {
    /// Stable dotted name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::StagePrepare => "stage.prepare",
            SpanKind::StageBlock => "stage.block",
            SpanKind::StageScore => "stage.score",
            SpanKind::StagePropagate => "stage.propagate",
            SpanKind::StageSelect => "stage.select",
            SpanKind::ScoreTier1 => "score.tier1",
            SpanKind::ScoreTier2 => "score.tier2",
            SpanKind::MergeRow => "merge.row",
            SpanKind::ScoreChunk => "score.chunk",
            SpanKind::ProbeChunk => "probe.chunk",
            SpanKind::ExecLane => "exec.lane",
            SpanKind::ExecPark => "exec.park",
            SpanKind::ExecDrain => "exec.drain",
            SpanKind::CacheBuild => "cache.build",
            SpanKind::CacheWait => "cache.wait",
            SpanKind::PairJob => "pair.job",
            SpanKind::IndexBuild => "index.build",
            SpanKind::RepoIndexBuild => "repo.index_build",
            SpanKind::RepoQuery => "repo.query",
            SpanKind::RepoShardBuild => "repo.shard_build",
            SpanKind::RepoCompact => "repo.compact",
            SpanKind::RepoWarmLoad => "repo.warm_load",
            SpanKind::ServeJob => "serve.job",
            SpanKind::ServeQueueWait => "serve.queue",
            SpanKind::BlockRescue => "block.rescue",
            SpanKind::BlockAssemble => "block.assemble",
            SpanKind::BlockClose => "block.close",
            SpanKind::ScoreDigests => "score.digests",
            SpanKind::PrepareChunk => "prepare.chunk",
            SpanKind::PrepareAssemble => "prepare.assemble",
            SpanKind::StagePlan => "stage.plan",
            SpanKind::PlanIndex => "plan.index",
            SpanKind::PlanEstimate => "plan.estimate",
            SpanKind::PlanSchedule => "plan.schedule",
        }
    }

    fn from_u8(v: u8) -> Option<SpanKind> {
        SPAN_KINDS.get(v as usize).copied()
    }
}

// ---------------------------------------------------------------------------
// Counter registry
// ---------------------------------------------------------------------------

/// Named process-wide counters and gauges. The numeric value doubles as the
/// slot index into the global table, so `add` is one relaxed `fetch_add`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// `FeatureCache` lookups served from the cache.
    CacheHits = 0,
    /// `FeatureCache` lookups that had to build.
    CacheMisses = 1,
    /// `FeatureCache` LRU evictions.
    CacheEvictions = 2,
    /// `FeatureCache` lookups coalesced onto another thread's build.
    CacheCoalesced = 3,
    /// Helper tasks pushed onto the executor's shared queue.
    ExecEnqueued = 4,
    /// Queued tasks executed by a pool worker (steals).
    ExecStolen = 5,
    /// Queued tasks reclaimed and drained inline by their owner.
    ExecReclaimed = 6,
    /// Pool-worker condvar parks.
    ExecParked = 7,
    /// Lane runs that degraded to fully-inline execution (no helpers).
    ExecInline = 8,
    /// High-water mark of the shared queue depth (gauge).
    ExecQueueDepthMax = 9,
    /// Candidate pairs settled by the tier-1 prefilter (cascade).
    CascadePairsPruned = 10,
    /// Candidate pairs that ran the full tier-2 panel (cascade).
    CascadePairsFull = 11,
    /// Source/target rows probed against the blocking index.
    ProbeRows = 12,
    /// Posting-list entries touched while probing the blocking index.
    ProbePostings = 13,
    /// Pair jobs executed by the batch planner.
    PairJobs = 14,
    /// Repository token-index builds (`sm_enterprise`).
    RepoIndexBuilds = 15,
    /// Repository queries probed against the token index.
    RepoProbeRows = 16,
    /// Posting entries touched by repository queries.
    RepoPostings = 17,
    /// Per-thread pair-memo misses (polled from `sm_text`).
    MemoMisses = 18,
    /// Per-thread pair-memo wholesale flushes (polled from `sm_text`).
    MemoFlushes = 19,
    /// Shards built (full builds and per-shard compactions both count one
    /// CSR assembly each).
    RepoShardBuilds = 20,
    /// Delta-log maintenance operations applied (inserts + tombstones).
    RepoDeltaOps = 21,
    /// Size-triggered per-shard compactions.
    RepoCompactions = 22,
    /// Index snapshots published to readers.
    RepoSnapshots = 23,
    /// Helper lanes wanted but denied by a `LaneBudget` claim.
    ExecBudgetDenied = 24,
    /// Serving-layer jobs admitted (inline or after queueing).
    ServeAdmitted = 25,
    /// Serving-layer jobs rejected `Overloaded` at a full queue.
    ServeRejected = 26,
    /// Queued serving-layer jobs shed to admit higher-priority work.
    ServeShed = 27,
    /// Serving-layer jobs that hit their deadline (queued or mid-run).
    ServeTimeouts = 28,
    /// Serving-layer jobs cancelled explicitly mid-run.
    ServeCancelled = 29,
    /// Jobs degraded under memory pressure (matrix-dropping path).
    ServeDegraded = 30,
    /// High-water mark of any serving class queue depth (gauge).
    ServeQueueDepthMax = 31,
    /// Peak resident set observed by the memory governor, bytes (gauge).
    ServeRssPeak = 32,
    /// High-water mark of `FeatureCache` resident bytes (gauge).
    CacheResidentBytes = 33,
    /// Shard compactions deferred because of memory pressure.
    RepoCompactionsDeferred = 34,
    /// Cascade tier-1 exit: pruned by the coarse verdict.
    CascadeCoarsePrune = 35,
    /// Cascade tier-1 exit: pruned by the char-profile edit cap (phase A).
    CascadePhaseAPrune = 36,
    /// Cascade tier-1 exit: survived phase A, handed to tier 2.
    CascadeFinalSurvive = 37,
    /// Helper lanes wanted but not offered because every lane of the pool
    /// was reserved (nested fan-outs inside a saturated fan-out).
    ExecWithheld = 38,
}

/// Number of registered counters.
pub const COUNTER_COUNT: usize = 39;

/// All counters, in slot order (export iteration order).
pub const COUNTERS: [Counter; COUNTER_COUNT] = [
    Counter::CacheHits,
    Counter::CacheMisses,
    Counter::CacheEvictions,
    Counter::CacheCoalesced,
    Counter::ExecEnqueued,
    Counter::ExecStolen,
    Counter::ExecReclaimed,
    Counter::ExecParked,
    Counter::ExecInline,
    Counter::ExecQueueDepthMax,
    Counter::CascadePairsPruned,
    Counter::CascadePairsFull,
    Counter::ProbeRows,
    Counter::ProbePostings,
    Counter::PairJobs,
    Counter::RepoIndexBuilds,
    Counter::RepoProbeRows,
    Counter::RepoPostings,
    Counter::MemoMisses,
    Counter::MemoFlushes,
    Counter::RepoShardBuilds,
    Counter::RepoDeltaOps,
    Counter::RepoCompactions,
    Counter::RepoSnapshots,
    Counter::ExecBudgetDenied,
    Counter::ServeAdmitted,
    Counter::ServeRejected,
    Counter::ServeShed,
    Counter::ServeTimeouts,
    Counter::ServeCancelled,
    Counter::ServeDegraded,
    Counter::ServeQueueDepthMax,
    Counter::ServeRssPeak,
    Counter::CacheResidentBytes,
    Counter::RepoCompactionsDeferred,
    Counter::CascadeCoarsePrune,
    Counter::CascadePhaseAPrune,
    Counter::CascadeFinalSurvive,
    Counter::ExecWithheld,
];

impl Counter {
    /// Stable dotted name used by both exporters and the CI schema check.
    pub fn name(self) -> &'static str {
        match self {
            Counter::CacheHits => "cache.hits",
            Counter::CacheMisses => "cache.misses",
            Counter::CacheEvictions => "cache.evictions",
            Counter::CacheCoalesced => "cache.coalesced",
            Counter::ExecEnqueued => "exec.enqueued",
            Counter::ExecStolen => "exec.stolen",
            Counter::ExecReclaimed => "exec.reclaimed",
            Counter::ExecParked => "exec.parked",
            Counter::ExecInline => "exec.inline",
            Counter::ExecQueueDepthMax => "exec.queue_depth_max",
            Counter::CascadePairsPruned => "cascade.pairs_pruned",
            Counter::CascadePairsFull => "cascade.pairs_full",
            Counter::ProbeRows => "probe.rows",
            Counter::ProbePostings => "probe.postings",
            Counter::PairJobs => "pair.jobs",
            Counter::RepoIndexBuilds => "repo.index_builds",
            Counter::RepoProbeRows => "repo.probe_rows",
            Counter::RepoPostings => "repo.postings",
            Counter::MemoMisses => "memo.misses",
            Counter::MemoFlushes => "memo.flushes",
            Counter::RepoShardBuilds => "repo.shard_builds",
            Counter::RepoDeltaOps => "repo.delta_ops",
            Counter::RepoCompactions => "repo.compactions",
            Counter::RepoSnapshots => "repo.snapshots",
            Counter::ExecBudgetDenied => "exec.budget_denied",
            Counter::ServeAdmitted => "serve.admitted",
            Counter::ServeRejected => "serve.rejected",
            Counter::ServeShed => "serve.shed",
            Counter::ServeTimeouts => "serve.timeouts",
            Counter::ServeCancelled => "serve.cancelled",
            Counter::ServeDegraded => "serve.degraded",
            Counter::ServeQueueDepthMax => "serve.queue_depth_max",
            Counter::ServeRssPeak => "serve.rss_peak_bytes",
            Counter::CacheResidentBytes => "cache.resident_bytes",
            Counter::RepoCompactionsDeferred => "repo.compactions_deferred",
            Counter::CascadeCoarsePrune => "cascade.exit.coarse_prune",
            Counter::CascadePhaseAPrune => "cascade.exit.phase_a_prune",
            Counter::CascadeFinalSurvive => "cascade.exit.final_survive",
            Counter::ExecWithheld => "exec.withheld",
        }
    }
}

struct GlobalCounters {
    slots: [AtomicU64; COUNTER_COUNT],
    /// `pair_memo_stats` baseline captured at the last [`reset`], so the
    /// polled memo counters report deltas like every native counter.
    memo_miss_base: AtomicU64,
    memo_flush_base: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTER_TABLE: GlobalCounters = GlobalCounters {
    slots: [ZERO; COUNTER_COUNT],
    memo_miss_base: AtomicU64::new(0),
    memo_flush_base: AtomicU64::new(0),
};

/// Add `delta` to a counter. Relaxed; a no-op when recording is disabled.
#[inline]
pub fn add(counter: Counter, delta: u64) {
    if delta == 0 || !enabled() {
        return;
    }
    COUNTER_TABLE.slots[counter as usize].fetch_add(delta, Ordering::Relaxed);
}

/// Raise a gauge to at least `value` (high-water mark). A no-op when
/// recording is disabled.
#[inline]
pub fn gauge_max(counter: Counter, value: u64) {
    if !enabled() {
        return;
    }
    COUNTER_TABLE.slots[counter as usize].fetch_max(value, Ordering::Relaxed);
}

/// Read one counter's current value (memo counters are polled live).
pub fn counter_value(counter: Counter) -> u64 {
    match counter {
        Counter::MemoMisses => {
            let live = sm_text::intern::pair_memo_stats().misses;
            live.saturating_sub(COUNTER_TABLE.memo_miss_base.load(Ordering::Relaxed))
        }
        Counter::MemoFlushes => {
            let live = sm_text::intern::pair_memo_stats().flushes;
            live.saturating_sub(COUNTER_TABLE.memo_flush_base.load(Ordering::Relaxed))
        }
        _ => COUNTER_TABLE.slots[counter as usize].load(Ordering::Relaxed),
    }
}

/// Snapshot every registered counter as `(name, value)` pairs, in registry
/// order. This is the one list the exporters and the CI schema check share.
pub fn counter_snapshot() -> Vec<(&'static str, u64)> {
    COUNTERS
        .iter()
        .map(|&c| (c.name(), counter_value(c)))
        .collect()
}

// ---------------------------------------------------------------------------
// The switch
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// True when recording is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording of spans and counters on or off, process-wide (on by
/// default). Off, [`timed`] still measures.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first observability call in this process.
#[inline]
fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Per-thread rings
// ---------------------------------------------------------------------------

struct Ring {
    /// `capacity * WORDS` atomics; record `i` lives at `(i % capacity) * WORDS`.
    slots: Box<[AtomicU64]>,
    capacity: usize,
    /// Count of records ever written; publishing store is `Release`.
    head: AtomicU64,
    thread: String,
}

impl Ring {
    fn new(capacity: usize, thread: String) -> Ring {
        let slots = (0..capacity * WORDS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            slots,
            capacity,
            head: AtomicU64::new(0),
            thread,
        }
    }

    #[inline]
    fn push(&self, ts_ns: u64, dur_ns: u64, kind: SpanKind, payload: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let base = (head as usize % self.capacity) * WORDS;
        self.slots[base].store(ts_ns, Ordering::Relaxed);
        self.slots[base + 1].store(dur_ns, Ordering::Relaxed);
        self.slots[base + 2].store(kind as u8 as u64, Ordering::Relaxed);
        self.slots[base + 3].store(payload, Ordering::Relaxed);
        self.head.store(head + 1, Ordering::Release);
    }
}

static REGISTRY: Mutex<Vec<std::sync::Arc<Ring>>> = Mutex::new(Vec::new());
static RING_CAPACITY: AtomicU64 = AtomicU64::new(DEFAULT_RING_CAPACITY as u64);

thread_local! {
    static RING: std::cell::RefCell<Option<std::sync::Arc<Ring>>> =
        const { std::cell::RefCell::new(None) };
}

fn with_ring(f: impl FnOnce(&Ring)) {
    RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.is_none() {
            let mut registry = REGISTRY.lock().unwrap();
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{}", registry.len()));
            let ring = std::sync::Arc::new(Ring::new(
                RING_CAPACITY.load(Ordering::Relaxed) as usize,
                name,
            ));
            registry.push(ring.clone());
            *slot = Some(ring);
        }
        f(slot.as_ref().unwrap());
    });
}

/// Override the capacity (in events) of rings created *after* this call.
/// Existing rings keep their size; intended for test setup.
pub fn set_ring_capacity(capacity: usize) {
    RING_CAPACITY.store(capacity.max(1) as u64, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// Record a span the caller measured. A no-op when disabled.
#[inline]
fn record_span(kind: SpanKind, payload: u64, start_ns: u64, dur_ns: u64) {
    if !enabled() {
        return;
    }
    with_ring(|ring| ring.push(start_ns, dur_ns, kind, payload));
}

/// Run `f`, record it as a span, and return the result with the span's
/// duration. The span's payload is `payload(&result)`, so a stage that
/// learns its count only by running can still report it.
///
/// The duration is measured and returned even when recording is off:
/// it is the one clock reading a pipeline stage's `StageTimings` entry
/// comes from, so the entry equals the stage's span to the nanosecond.
#[inline]
pub fn timed<R>(
    kind: SpanKind,
    payload: impl FnOnce(&R) -> u64,
    f: impl FnOnce() -> R,
) -> (R, Duration) {
    let start = now_ns();
    let result = f();
    let dur = now_ns().saturating_sub(start);
    record_span(kind, payload(&result), start, dur);
    (result, Duration::from_nanos(dur))
}

/// RAII span: records `kind` from construction to drop. Construct via
/// [`span`] or the [`obs_span!`](crate::obs_span) macro.
pub struct SpanGuard {
    kind: SpanKind,
    payload: u64,
    start_ns: u64,
    armed: bool,
}

impl SpanGuard {
    /// Replace the payload before the span closes (e.g. with a result count).
    pub fn set_payload(&mut self, payload: u64) {
        self.payload = payload;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            let dur = now_ns().saturating_sub(self.start_ns);
            record_span(self.kind, self.payload, self.start_ns, dur);
        }
    }
}

/// Open an RAII span; it records when the guard drops.
#[inline]
pub fn span(kind: SpanKind, payload: u64) -> SpanGuard {
    let armed = enabled();
    SpanGuard {
        kind,
        payload,
        start_ns: if armed { now_ns() } else { 0 },
        armed,
    }
}

/// Open an RAII span over the rest of the scope:
/// `let _g = obs_span!(SpanKind::StageBlock, 0);`
#[macro_export]
macro_rules! obs_span {
    ($kind:expr, $payload:expr) => {
        $crate::obs::span($kind, $payload as u64)
    };
}

/// Bump a registered counter by name: `obs_counter!(CacheHits, 1);`
#[macro_export]
macro_rules! obs_counter {
    ($counter:ident, $delta:expr) => {
        $crate::obs::add($crate::obs::Counter::$counter, $delta as u64)
    };
}

// ---------------------------------------------------------------------------
// Collection and reset
// ---------------------------------------------------------------------------

static WATERMARK: AtomicU64 = AtomicU64::new(0);

/// One decoded event, as seen by the exporters.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Start, nanoseconds since the process observability epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// What the span covered.
    pub kind: SpanKind,
    /// Kind-specific payload (row index, pair id, owner ticket, …).
    pub payload: u64,
    /// Ring (≈ thread) index, stable for the process lifetime.
    pub lane: usize,
    /// Thread name at ring registration.
    pub thread: String,
}

/// Decode every event recorded since the last [`reset`], across all threads,
/// sorted by start time. Exact once writers are quiescent; a thread that is
/// concurrently wrapping its ring may contribute a torn record, which is
/// filtered by the watermark check.
pub fn collect() -> Vec<TraceEvent> {
    let watermark = WATERMARK.load(Ordering::Acquire);
    let rings: Vec<std::sync::Arc<Ring>> = REGISTRY.lock().unwrap().clone();
    let mut out = Vec::new();
    for (lane, ring) in rings.iter().enumerate() {
        let head = ring.head.load(Ordering::Acquire) as usize;
        let kept = head.min(ring.capacity);
        for i in (head - kept)..head {
            let base = (i % ring.capacity) * WORDS;
            let ts = ring.slots[base].load(Ordering::Relaxed);
            let dur = ring.slots[base + 1].load(Ordering::Relaxed);
            let kind = ring.slots[base + 2].load(Ordering::Relaxed);
            let payload = ring.slots[base + 3].load(Ordering::Relaxed);
            if ts < watermark {
                continue;
            }
            if let Some(kind) = SpanKind::from_u8(kind as u8) {
                out.push(TraceEvent {
                    ts_ns: ts,
                    dur_ns: dur,
                    kind,
                    payload,
                    lane,
                    thread: ring.thread.clone(),
                });
            }
        }
    }
    out.sort_by_key(|e| (e.ts_ns, e.lane));
    out
}

/// Drop all recorded history: events older than now become invisible to
/// [`collect`], counters zero, and the polled memo baselines re-anchor.
pub fn reset() {
    WATERMARK.store(now_ns(), Ordering::Release);
    for slot in &COUNTER_TABLE.slots {
        slot.store(0, Ordering::Relaxed);
    }
    let memo = sm_text::intern::pair_memo_stats();
    COUNTER_TABLE
        .memo_miss_base
        .store(memo.misses, Ordering::Relaxed);
    COUNTER_TABLE
        .memo_flush_base
        .store(memo.flushes, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Duration distribution of one span kind.
#[derive(Debug, Clone)]
pub struct KindStats {
    /// `SpanKind::name()` of the kind.
    pub name: &'static str,
    /// Events observed.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Median duration, ns.
    pub p50_ns: u64,
    /// 95th-percentile duration, ns.
    pub p95_ns: u64,
    /// 99th-percentile duration, ns.
    pub p99_ns: u64,
    /// Longest duration, ns.
    pub max_ns: u64,
}

/// Per-lane (≈ per-thread) utilization over the report window.
#[derive(Debug, Clone)]
pub struct LaneStats {
    /// Thread name at ring registration.
    pub thread: String,
    /// Events this lane recorded.
    pub events: u64,
    /// Union length of this lane's span intervals, ns (nested spans are not
    /// double-counted).
    pub busy_ns: u64,
}

/// Aggregated view of one collection window: per-kind histograms, per-lane
/// utilization, and the full counter snapshot.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Window span: first event start to last event end, ns.
    pub wall_ns: u64,
    /// Per-kind duration stats, registry order, kinds with zero events
    /// omitted.
    pub kinds: Vec<KindStats>,
    /// Per-lane utilization, ring-registration order.
    pub lanes: Vec<LaneStats>,
    /// Counter snapshot (every registered counter, even if zero).
    pub counters: Vec<(&'static str, u64)>,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn interval_union_ns(mut spans: Vec<(u64, u64)>) -> u64 {
    spans.sort_unstable();
    let mut busy = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (start, end) in spans {
        match cur {
            Some((s, e)) if start <= e => cur = Some((s, e.max(end))),
            Some((s, e)) => {
                busy += e - s;
                cur = Some((start, end));
            }
            None => cur = Some((start, end)),
        }
    }
    if let Some((s, e)) = cur {
        busy += e - s;
    }
    busy
}

/// Dark-time measure of the `parent`-kind spans: for each, the share of its
/// wall time during which at least one `children`-kind span (on any lane)
/// was open. 1.0 means every instant of the parent is attributed to a
/// child pass; the remainder is uninstrumented time.
pub fn coverage(events: &[TraceEvent], parent: SpanKind, children: &[SpanKind]) -> Vec<f64> {
    events
        .iter()
        .filter(|e| e.kind == parent && e.dur_ns > 0)
        .map(|p| {
            let end = p.ts_ns + p.dur_ns;
            let spans = events
                .iter()
                .filter(|e| children.contains(&e.kind))
                .map(|e| (e.ts_ns.max(p.ts_ns), (e.ts_ns + e.dur_ns).min(end)))
                .filter(|(start, stop)| start < stop)
                .collect();
            interval_union_ns(spans) as f64 / p.dur_ns as f64
        })
        .collect()
}

impl TraceReport {
    /// Aggregate everything recorded since the last [`reset`].
    pub fn build() -> TraceReport {
        let events = collect();
        TraceReport::from_events(&events)
    }

    /// Aggregate a pre-collected event list (lets callers share one
    /// [`collect`] with the chrome exporter).
    pub fn from_events(events: &[TraceEvent]) -> TraceReport {
        type LaneAccum = (String, u64, Vec<(u64, u64)>);
        let mut durs: Vec<Vec<u64>> = vec![Vec::new(); SPAN_KINDS.len()];
        let mut lane_spans: std::collections::BTreeMap<usize, LaneAccum> =
            std::collections::BTreeMap::new();
        let mut t_min = u64::MAX;
        let mut t_max = 0u64;
        for e in events {
            durs[e.kind as u8 as usize].push(e.dur_ns);
            let entry = lane_spans
                .entry(e.lane)
                .or_insert_with(|| (e.thread.clone(), 0, Vec::new()));
            entry.1 += 1;
            // Parks are idle time by definition; everything else counts
            // toward lane utilization (nesting is deduplicated by the
            // interval union).
            if e.kind != SpanKind::ExecPark {
                entry.2.push((e.ts_ns, e.ts_ns + e.dur_ns));
            }
            t_min = t_min.min(e.ts_ns);
            t_max = t_max.max(e.ts_ns + e.dur_ns);
        }
        let kinds = SPAN_KINDS
            .iter()
            .filter_map(|&k| {
                let d = &mut durs[k as u8 as usize];
                if d.is_empty() {
                    return None;
                }
                d.sort_unstable();
                Some(KindStats {
                    name: k.name(),
                    count: d.len() as u64,
                    total_ns: d.iter().sum(),
                    p50_ns: percentile(d, 0.50),
                    p95_ns: percentile(d, 0.95),
                    p99_ns: percentile(d, 0.99),
                    max_ns: *d.last().unwrap(),
                })
            })
            .collect();
        let lanes = lane_spans
            .into_values()
            .map(|(thread, events, spans)| LaneStats {
                thread,
                events,
                busy_ns: interval_union_ns(spans),
            })
            .collect();
        TraceReport {
            wall_ns: t_max.saturating_sub(t_min.min(t_max)),
            kinds,
            lanes,
            counters: counter_snapshot(),
        }
    }

    /// Hand-rolled JSON (the vendored serde stand-in has no serializer).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"wall_ns\": {},\n", self.wall_ns));
        out.push_str("  \"kinds\": [\n");
        for (i, k) in self.kinds.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}{}\n",
                k.name,
                k.count,
                k.total_ns,
                k.p50_ns,
                k.p95_ns,
                k.p99_ns,
                k.max_ns,
                if i + 1 < self.kinds.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n  \"lanes\": [\n");
        for (i, l) in self.lanes.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"thread\": \"{}\", \"events\": {}, \"busy_ns\": {}}}{}\n",
                json_escape(&l.thread),
                l.events,
                l.busy_ns,
                if i + 1 < self.lanes.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n  \"counters\": {\n");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {}{}\n",
                name,
                value,
                if i + 1 < self.counters.len() { "," } else { "" },
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Serialize everything recorded since the last [`reset`] as Chrome
/// `trace_event` JSON (the "JSON array format"): one `ph:"X"` complete event
/// per span plus thread-name metadata, one row per recording thread. Open
/// the file in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace_json() -> String {
    chrome_trace_from_events(&collect())
}

/// Chrome `trace_event` serialization of a pre-collected event list.
pub fn chrome_trace_from_events(events: &[TraceEvent]) -> String {
    let mut out = String::from("[\n");
    let mut named: std::collections::BTreeMap<usize, &str> = std::collections::BTreeMap::new();
    for e in events {
        named.entry(e.lane).or_insert(&e.thread);
    }
    let mut first = true;
    for (lane, thread) in &named {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {}, \"args\": {{\"name\": \"{}\"}}}}",
            lane,
            json_escape(thread),
        ));
    }
    for e in events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"cat\": \"sm\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}.{:03}, \"dur\": {}.{:03}, \"args\": {{\"payload\": {}}}}}",
            e.kind.name(),
            e.lane,
            e.ts_ns / 1_000,
            e.ts_ns % 1_000,
            e.dur_ns / 1_000,
            e.dur_ns % 1_000,
            e.payload,
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The obs state is process-global and tests run concurrently, so these
    // tests assert only thread-local or monotone properties.

    #[test]
    fn kind_roundtrip_and_names_unique() {
        let mut names = std::collections::HashSet::new();
        for (i, &k) in SPAN_KINDS.iter().enumerate() {
            assert_eq!(k as u8 as usize, i);
            assert_eq!(SpanKind::from_u8(k as u8), Some(k));
            assert!(names.insert(k.name()));
        }
        assert_eq!(SpanKind::from_u8(SPAN_KINDS.len() as u8), None);
    }

    #[test]
    fn coverage_is_the_clipped_union_of_child_spans() {
        let event = |kind, ts_ns, dur_ns, lane| TraceEvent {
            ts_ns,
            dur_ns,
            kind,
            payload: 0,
            lane,
            thread: String::new(),
        };
        let events = [
            event(SpanKind::StageBlock, 100, 100, 0),
            // Overlapping children on two lanes count once; a child
            // reaching outside the stage is clipped to it.
            event(SpanKind::ProbeChunk, 100, 40, 0),
            event(SpanKind::ProbeChunk, 120, 40, 1),
            event(SpanKind::BlockClose, 180, 50, 0),
            // Not a child kind.
            event(SpanKind::ExecLane, 160, 20, 1),
        ];
        let children = [SpanKind::ProbeChunk, SpanKind::BlockClose];
        assert_eq!(
            coverage(&events, SpanKind::StageBlock, &children),
            vec![0.8]
        );
    }

    #[test]
    fn counter_registry_is_dense_and_named() {
        let mut names = std::collections::HashSet::new();
        for (i, &c) in COUNTERS.iter().enumerate() {
            assert_eq!(c as usize, i);
            assert!(names.insert(c.name()));
        }
        let snap = counter_snapshot();
        assert_eq!(snap.len(), COUNTER_COUNT);
    }

    #[test]
    fn ring_wraparound_keeps_most_recent() {
        let ring = Ring::new(8, "test".into());
        for i in 0..20u64 {
            ring.push(i + 1, 1, SpanKind::StageScore, i);
        }
        let head = ring.head.load(Ordering::Acquire) as usize;
        assert_eq!(head, 20);
        let kept = head.min(ring.capacity);
        let mut payloads: Vec<u64> = ((head - kept)..head)
            .map(|i| ring.slots[(i % ring.capacity) * WORDS + 3].load(Ordering::Relaxed))
            .collect();
        payloads.sort_unstable();
        assert_eq!(payloads, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn interval_union_merges_nested_and_disjoint() {
        assert_eq!(interval_union_ns(vec![]), 0);
        assert_eq!(interval_union_ns(vec![(0, 10), (2, 5)]), 10);
        assert_eq!(interval_union_ns(vec![(0, 10), (20, 25)]), 15);
        assert_eq!(interval_union_ns(vec![(0, 10), (10, 15)]), 15);
    }

    #[test]
    fn percentiles_on_small_sets() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.5), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
    }

    #[test]
    fn report_json_has_counters_object() {
        let report = TraceReport::from_events(&[]);
        let json = report.to_json();
        assert!(json.contains("\"counters\""));
        for (name, _) in &report.counters {
            assert!(json.contains(&format!("\"{name}\"")), "missing {name}");
        }
    }

    #[test]
    fn chrome_trace_is_bracketed_and_named() {
        let events = vec![TraceEvent {
            ts_ns: 1_500,
            dur_ns: 2_250,
            kind: SpanKind::StageBlock,
            payload: 7,
            lane: 0,
            thread: "main".into(),
        }];
        let json = chrome_trace_from_events(&events);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"stage.block\""));
        assert!(json.contains("\"ts\": 1.500"));
        assert!(json.contains("\"dur\": 2.250"));
        assert!(json.contains("thread_name"));
    }
}
