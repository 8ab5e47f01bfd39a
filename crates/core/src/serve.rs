//! Admission-controlled serving layer over the shared [`Executor`].
//!
//! Every workload so far ran one job at a time; production traffic is many
//! simultaneous match/search/COI jobs contending for one pool and one
//! [`FeatureCache`]. Absorbing that load unshaped lets a single 100-schema
//! batch starve every point query and grow RSS without bound. This module
//! shapes offered load instead:
//!
//! * **bounded admission** — each [`JobClass`] has a run cap and a bounded
//!   wait queue; a full queue either sheds its lowest-priority waiter (when
//!   a strictly higher-priority job arrives) or rejects the newcomer with
//!   [`ServeError::Overloaded`];
//! * **lane budgets** — each class draws helper lanes from its own
//!   [`LaneBudget`] sized as a fraction of the pool, so a 12-way batch can
//!   never occupy more than its share of workers while point queries run.
//!   [`JobGrant::bind`] attaches the budget to an engine, and
//!   [`crate::engine::MatchEngine::job`] carries it with the token into
//!   every parallel stage as one [`crate::exec::Job`]: the batch Plan
//!   stage (schema preparation and index builds), Prepare, Block (a first
//!   use's index builds included) and Score/Merge, and the batch's pair
//!   jobs.
//!   The caller's lane 0 is always unbudgeted, so starvation degrades to
//!   inline execution, never a hang;
//! * **deadlines + cancellation** — every job carries a [`JobToken`]; the
//!   same fan-out calls [`JobToken::checkpoint`] once per claimed chunk or
//!   pair job, which unwinds with a [`CancelUnwind`] payload. The
//!   executor's lane machinery already drains helper lanes on unwind and
//!   the `FeatureCache` build-slot guard already marks in-flight builds
//!   failed, so a cancelled job leaves no partial state behind; the
//!   admission wrapper catches the payload and returns
//!   [`ServeError::Cancelled`];
//! * **memory governor** — a process-RSS watermark ([`MemoryGovernor`])
//!   that, under pressure, evicts the feature cache down to a byte budget,
//!   flags batches onto the matrix-dropping `run_select_only` path
//!   ([`JobGrant::degraded`]), and defers shard compaction
//!   ([`memory_pressure`], consulted by `sm_enterprise`) until pressure
//!   clears.
//!
//! The degradation ladder, in order of increasing pressure: full service →
//! lane-budget contention (slower, still parallel) → queueing → shedding /
//! `Overloaded` rejection → memory degradation (matrix dropping + cache
//! eviction + compaction deferral). Deadlines cut across every rung.

use crate::exec::{Executor, LaneBudget};
use crate::obs;
use crate::prepare::FeatureCache;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Job classes
// ---------------------------------------------------------------------------

/// The four serving-traffic classes, each with its own queue and budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum JobClass {
    /// One pairwise match (interactive; latency-sensitive).
    PointMatch = 0,
    /// One repository search query (interactive; latency-sensitive).
    Search = 1,
    /// A multi-pair batch (throughput work; the classic starvation source).
    Batch = 2,
    /// Cross-organization / COI agreement analysis (background analytics).
    Coi = 3,
}

/// All classes, in slot order.
pub const JOB_CLASSES: [JobClass; 4] = [
    JobClass::PointMatch,
    JobClass::Search,
    JobClass::Batch,
    JobClass::Coi,
];

impl JobClass {
    /// Slot index into per-class tables.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable dotted name (bench output, trace payload legend).
    pub fn name(self) -> &'static str {
        match self {
            JobClass::PointMatch => "point",
            JobClass::Search => "search",
            JobClass::Batch => "batch",
            JobClass::Coi => "coi",
        }
    }
}

// ---------------------------------------------------------------------------
// Cancellation tokens
// ---------------------------------------------------------------------------

/// Why a job stopped before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`JobToken::cancel`] was called.
    Cancelled,
    /// The job's deadline passed (queued or mid-run).
    Deadline,
    /// The admission queue shed this job for higher-priority work.
    Shed,
}

impl CancelReason {
    fn code(self) -> u8 {
        match self {
            CancelReason::Cancelled => 1,
            CancelReason::Deadline => 2,
            CancelReason::Shed => 3,
        }
    }

    fn from_code(code: u8) -> Option<CancelReason> {
        match code {
            1 => Some(CancelReason::Cancelled),
            2 => Some(CancelReason::Deadline),
            3 => Some(CancelReason::Shed),
            _ => None,
        }
    }
}

struct TokenInner {
    /// 0 = live, else a [`CancelReason::code`]. First trip wins.
    state: AtomicU8,
    deadline: Option<Instant>,
    /// Background-class courtesy: checkpoints also yield the OS scheduler
    /// slot, so interactive threads preempt at chunk boundaries instead of
    /// waiting out a kernel timeslice. Set by the admission controller for
    /// paced classes.
    yield_hint: AtomicBool,
}

/// Cooperative cancellation + deadline handle threaded through a job.
///
/// Parallel stages call [`Self::checkpoint`] at chunk boundaries (after
/// releasing any claim-queue lock); a tripped token unwinds the calling
/// lane with a [`CancelUnwind`] payload. The executor waits out or drains
/// every sibling lane before propagating, so the unwind is clean: no
/// poisoned pool, no partial cache entries (the cache's build guard marks
/// in-flight builds failed on unwind), no torn published snapshots
/// (publication is a single post-completion step the unwind never reaches).
#[derive(Clone)]
pub struct JobToken {
    inner: Arc<TokenInner>,
}

impl JobToken {
    /// A live token with no deadline.
    pub fn new() -> JobToken {
        JobToken {
            inner: Arc::new(TokenInner {
                state: AtomicU8::new(0),
                deadline: None,
                yield_hint: AtomicBool::new(false),
            }),
        }
    }

    /// A token that trips with [`CancelReason::Deadline`] once `budget`
    /// has elapsed.
    pub fn deadline_in(budget: Duration) -> JobToken {
        JobToken {
            inner: Arc::new(TokenInner {
                state: AtomicU8::new(0),
                deadline: Some(Instant::now() + budget),
                yield_hint: AtomicBool::new(false),
            }),
        }
    }

    /// Mark this token's job as a background citizen: every checkpoint
    /// additionally yields the scheduler slot (see `TokenInner`).
    pub fn set_yield_hint(&self) {
        self.inner.yield_hint.store(true, Ordering::Relaxed);
    }

    /// Request cancellation. Idempotent; the first trip (from any source)
    /// wins.
    pub fn cancel(&self) {
        self.trip(CancelReason::Cancelled);
    }

    fn trip(&self, reason: CancelReason) {
        let _ = self.inner.state.compare_exchange(
            0,
            reason.code(),
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
    }

    /// The trip reason, if any — checking the deadline (and latching it)
    /// as a side effect.
    pub fn state(&self) -> Option<CancelReason> {
        let code = self.inner.state.load(Ordering::Acquire);
        if let Some(reason) = CancelReason::from_code(code) {
            return Some(reason);
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.trip(CancelReason::Deadline);
                return CancelReason::from_code(self.inner.state.load(Ordering::Acquire));
            }
        }
        None
    }

    /// Time left until the deadline (`None` = no deadline; zero = past it).
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Unwind the current lane with [`CancelUnwind`] if the token has
    /// tripped. Call this only at chunk boundaries with no locks held.
    pub fn checkpoint(&self) {
        if let Some(reason) = self.state() {
            install_cancel_hook();
            std::panic::panic_any(CancelUnwind(reason));
        }
        if self.inner.yield_hint.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
    }
}

impl Default for JobToken {
    fn default() -> Self {
        JobToken::new()
    }
}

impl std::fmt::Debug for JobToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobToken")
            .field("state", &self.state())
            .finish()
    }
}

/// Panic payload of a cooperative cancellation unwind. The admission
/// wrapper downcasts it back to a [`ServeError::Cancelled`]; any other
/// payload is a real bug and is re-propagated.
pub struct CancelUnwind(pub CancelReason);

/// Install (once) a panic hook that suppresses the default report for
/// [`CancelUnwind`] payloads — cancellation is control flow here, not a
/// fault — while delegating everything else to the previously-installed
/// hook.
pub fn install_cancel_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CancelUnwind>().is_none() {
                previous(info);
            }
        }));
    });
}

// ---------------------------------------------------------------------------
// Errors and configuration
// ---------------------------------------------------------------------------

/// Why the serving layer did not return a job result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The class queue was full and no lower-priority waiter could be shed.
    Overloaded {
        /// The rejected job's class.
        class: JobClass,
    },
    /// The job was cancelled, timed out, or shed (queued or mid-run).
    Cancelled {
        /// The stopped job's class.
        class: JobClass,
        /// What tripped it.
        reason: CancelReason,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { class } => {
                write!(f, "{} queue full: job rejected", class.name())
            }
            ServeError::Cancelled { class, reason } => {
                write!(f, "{} job stopped: {:?}", class.name(), reason)
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Admission policy of one job class.
#[derive(Debug, Clone, Copy)]
pub struct ClassPolicy {
    /// Jobs of this class allowed to run concurrently (min 1).
    pub max_concurrent: usize,
    /// Bounded wait-queue length beyond the running set.
    pub queue_capacity: usize,
    /// Fraction of the pool's helper lanes this class may hold at once
    /// (clamped to `[0, 1]`; the budget is `round(fraction × (pool − 1))`).
    pub lane_fraction: f64,
    /// Default deadline stamped on this class's tokens (`None` = none).
    pub deadline: Option<Duration>,
    /// Minimum idle gap after a job of this class finishes before the next
    /// one may start — duty-cycling for background classes. Lane budgets
    /// bound *how many* helpers a class holds, which isolates interactive
    /// work on multi-core pools; on narrow pools (down to one core) a
    /// background class competes for the same CPU time regardless, and
    /// pacing is what bounds its duty cycle. `None` = unpaced.
    pub pacing: Option<Duration>,
}

/// Memory-ceiling policy of the [`MemoryGovernor`].
#[derive(Debug, Clone, Copy)]
pub struct MemoryPolicy {
    /// RSS watermark in bytes; readings above it raise [`memory_pressure`].
    pub ceiling_bytes: u64,
    /// Feature-cache byte budget enforced (by eviction) under pressure.
    pub cache_budget_bytes: usize,
    /// Minimum interval between RSS reads (polling is caller-driven).
    pub poll_interval: Duration,
}

/// Full serving-layer configuration: one [`ClassPolicy`] per class plus an
/// optional memory ceiling.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-class policies, indexed by [`JobClass::index`].
    pub classes: [ClassPolicy; 4],
    /// Memory-ceiling governor policy (`None` = no governor).
    pub memory: Option<MemoryPolicy>,
}

impl ServeConfig {
    /// Defaults for a pool of `threads` workers: interactive classes
    /// (point, search) may saturate the pool and queue deep; throughput
    /// classes (batch, COI) run one at a time, queue shallow, and hold at
    /// most half the helper lanes — the "a 12-way batch must not starve
    /// point queries" shape.
    pub fn for_pool(threads: usize) -> ServeConfig {
        let interactive = ClassPolicy {
            max_concurrent: threads.max(2),
            queue_capacity: 64,
            lane_fraction: 1.0,
            deadline: None,
            pacing: None,
        };
        let background = ClassPolicy {
            max_concurrent: 1,
            queue_capacity: 4,
            lane_fraction: 0.5,
            deadline: None,
            pacing: None,
        };
        ServeConfig {
            classes: [interactive, interactive, background, background],
            memory: None,
        }
    }

    /// The policy of `class`.
    pub fn policy(&self, class: JobClass) -> &ClassPolicy {
        &self.classes[class.index()]
    }

    /// Mutable access for call-site tweaks.
    pub fn policy_mut(&mut self, class: JobClass) -> &mut ClassPolicy {
        &mut self.classes[class.index()]
    }
}

// ---------------------------------------------------------------------------
// Memory governor
// ---------------------------------------------------------------------------

/// Process-global memory-pressure flag. Raised/cleared by the
/// [`MemoryGovernor`]; consulted by batch execution (matrix dropping),
/// cache admission, and `sm_enterprise` shard compaction.
static PRESSURE: AtomicBool = AtomicBool::new(false);

/// True while the memory governor holds the process over its RSS ceiling.
pub fn memory_pressure() -> bool {
    PRESSURE.load(Ordering::Relaxed)
}

/// Force the pressure flag (governor internal; exposed for tests of the
/// degradation paths — always pair a set with a clearing reset).
pub fn set_memory_pressure(on: bool) {
    PRESSURE.store(on, Ordering::Relaxed);
}

/// Current resident set of this process in bytes (`VmRSS`), if the
/// platform exposes `/proc/self/status`.
pub fn current_rss_bytes() -> Option<u64> {
    proc_status_kb("VmRSS:").map(|kb| kb * 1024)
}

/// Peak resident set of this process in bytes (`VmHWM`), if available.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_kb("VmHWM:").map(|kb| kb * 1024)
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// RSS-watermark governor: polled at job boundaries (and by the bench's
/// sampler), it raises [`memory_pressure`] when resident set crosses the
/// ceiling, evicts the feature cache down to its byte budget, and clears
/// the flag — with hysteresis — once the process drops an eighth below the
/// ceiling again.
pub struct MemoryGovernor {
    policy: MemoryPolicy,
    cache: Arc<FeatureCache>,
    last_poll: Mutex<Option<Instant>>,
}

impl MemoryGovernor {
    /// A governor enforcing `policy` against `cache`.
    pub fn new(policy: MemoryPolicy, cache: Arc<FeatureCache>) -> MemoryGovernor {
        MemoryGovernor {
            policy,
            cache,
            last_poll: Mutex::new(None),
        }
    }

    /// Rate-limited pressure check; cheap enough to call on every job
    /// submission. Returns the pressure state after the check.
    pub fn poll(&self) -> bool {
        {
            let mut last = self.last_poll.lock().expect("governor poisoned");
            let now = Instant::now();
            match *last {
                Some(at) if now.duration_since(at) < self.policy.poll_interval => {
                    return memory_pressure();
                }
                _ => *last = Some(now),
            }
        }
        let Some(rss) = current_rss_bytes() else {
            return memory_pressure();
        };
        obs::gauge_max(obs::Counter::ServeRssPeak, rss);
        if rss > self.policy.ceiling_bytes {
            set_memory_pressure(true);
            self.cache.evict_to_bytes(self.policy.cache_budget_bytes);
        } else if rss < self.policy.ceiling_bytes - self.policy.ceiling_bytes / 8 {
            set_memory_pressure(false);
        }
        memory_pressure()
    }

    /// The configured policy.
    pub fn policy(&self) -> &MemoryPolicy {
        &self.policy
    }
}

// ---------------------------------------------------------------------------
// Admission controller
// ---------------------------------------------------------------------------

/// What an admitted job is allowed to use: its token, its class's lane
/// budget, and whether it should take the degraded (memory-bounded) path.
pub struct JobGrant {
    class: JobClass,
    token: JobToken,
    budget: Arc<LaneBudget>,
    degraded: bool,
}

impl JobGrant {
    /// The job's cancellation/deadline token.
    pub fn token(&self) -> &JobToken {
        &self.token
    }

    /// The class's shared helper-lane budget.
    pub fn budget(&self) -> &Arc<LaneBudget> {
        &self.budget
    }

    /// True when the memory governor asks this job to prefer the
    /// matrix-dropping path (`MatchBatch::run_select_only`).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// The granted class.
    pub fn class(&self) -> JobClass {
        self.class
    }

    /// Bind this grant onto an engine: its runs honor the token at every
    /// chunk boundary and draw helper lanes from the class budget.
    pub fn bind(&self, engine: crate::engine::MatchEngine) -> crate::engine::MatchEngine {
        engine
            .with_job_token(self.token.clone())
            .with_lane_budget(Arc::clone(&self.budget))
    }
}

/// Outcome slot a queued waiter blocks on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum WaitOutcome {
    Waiting,
    Admitted,
    Shed,
}

struct WaitCell {
    state: Mutex<WaitOutcome>,
    ready: Condvar,
}

struct Waiter {
    seq: u64,
    priority: u8,
    token: JobToken,
    cell: Arc<WaitCell>,
}

struct ClassQueue {
    running: usize,
    waiters: Vec<Waiter>,
    /// Earliest instant the next job of a paced class may start (set on
    /// job completion; `None` for unpaced classes or an idle-long-enough
    /// queue).
    next_start: Option<Instant>,
}

/// The serving layer's front door: bounded per-class admission over one
/// executor. See the module docs for the full semantics.
pub struct AdmissionController {
    exec: Arc<Executor>,
    config: ServeConfig,
    queues: [Mutex<ClassQueue>; 4],
    budgets: [Arc<LaneBudget>; 4],
    governor: Option<MemoryGovernor>,
    seq: AtomicU64,
}

impl AdmissionController {
    /// A controller over `exec` with `config`; the governor (if configured)
    /// enforces its cache budget against `cache`.
    pub fn new(exec: Arc<Executor>, cache: Arc<FeatureCache>, config: ServeConfig) -> Self {
        install_cancel_hook();
        let pool_helpers = exec.threads().saturating_sub(1);
        let budgets = std::array::from_fn(|i| {
            let fraction = config.classes[i].lane_fraction.clamp(0.0, 1.0);
            let lanes = (fraction * pool_helpers as f64).round() as usize;
            Arc::new(LaneBudget::new(lanes.min(pool_helpers)))
        });
        let governor = config
            .memory
            .map(|policy| MemoryGovernor::new(policy, Arc::clone(&cache)));
        AdmissionController {
            exec,
            config,
            queues: std::array::from_fn(|_| {
                Mutex::new(ClassQueue {
                    running: 0,
                    waiters: Vec::new(),
                    next_start: None,
                })
            }),
            budgets,
            governor,
            seq: AtomicU64::new(0),
        }
    }

    /// The executor jobs run on.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.exec
    }

    /// The configuration this controller enforces.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The shared lane budget of `class` (for binding engines manually).
    pub fn budget(&self, class: JobClass) -> &Arc<LaneBudget> {
        &self.budgets[class.index()]
    }

    /// Submit a job with the class's default deadline. `priority` orders
    /// both promotion (higher first) and shedding (a full queue sheds its
    /// lowest-priority waiter only for a strictly higher-priority arrival).
    ///
    /// The job closure runs **on the calling thread** once admitted — the
    /// controller shapes concurrency, it does not own worker threads; the
    /// executor's caller-participating lanes stay exactly as they were.
    pub fn submit<T, F>(&self, class: JobClass, priority: u8, job: F) -> Result<T, ServeError>
    where
        F: FnOnce(&JobGrant) -> T,
    {
        let token = match self.config.policy(class).deadline {
            Some(budget) => JobToken::deadline_in(budget),
            None => JobToken::new(),
        };
        self.submit_with_token(class, priority, token, job)
    }

    /// [`Self::submit`] with a caller-provided token (external deadlines,
    /// caller-held cancellation handles).
    pub fn submit_with_token<T, F>(
        &self,
        class: JobClass,
        priority: u8,
        token: JobToken,
        job: F,
    ) -> Result<T, ServeError>
    where
        F: FnOnce(&JobGrant) -> T,
    {
        let degraded = match &self.governor {
            Some(governor) => governor.poll(),
            None => memory_pressure(),
        };
        if self.config.policy(class).pacing.is_some() {
            token.set_yield_hint();
        }
        let (admitted, _) = obs::timed(
            obs::SpanKind::ServeQueueWait,
            |_| class.index() as u64,
            || self.admit(class, priority, &token),
        );
        admitted?;
        obs::add(obs::Counter::ServeAdmitted, 1);
        if degraded {
            obs::add(obs::Counter::ServeDegraded, 1);
        }
        let grant = JobGrant {
            class,
            token: token.clone(),
            budget: Arc::clone(&self.budgets[class.index()]),
            degraded,
        };
        let (outcome, _) = obs::timed(
            obs::SpanKind::ServeJob,
            |_| class.index() as u64,
            || catch_unwind(AssertUnwindSafe(|| job(&grant))),
        );
        self.finish(class);
        match outcome {
            Ok(value) => Ok(value),
            Err(payload) => match payload.downcast::<CancelUnwind>() {
                Ok(cancel) => {
                    let reason = cancel.0;
                    match reason {
                        CancelReason::Deadline => obs::add(obs::Counter::ServeTimeouts, 1),
                        _ => obs::add(obs::Counter::ServeCancelled, 1),
                    }
                    Err(ServeError::Cancelled { class, reason })
                }
                Err(other) => std::panic::resume_unwind(other),
            },
        }
    }

    /// Block until admitted, shed, or timed out. On `Ok(())` the caller
    /// holds one `running` slot of `class` and must pair it with
    /// [`Self::finish`].
    fn admit(&self, class: JobClass, priority: u8, token: &JobToken) -> Result<(), ServeError> {
        let policy = self.config.policy(class);
        let queue = &self.queues[class.index()];
        let cell;
        let seq;
        {
            let mut q = queue.lock().expect("serve queue poisoned");
            if q.running < policy.max_concurrent.max(1) {
                q.running += 1;
                drop(q);
                return self.pace(class, token);
            }
            if q.waiters.len() >= policy.queue_capacity {
                // Shed the lowest-priority waiter — youngest among ties,
                // least sunk queueing time — but only for strictly
                // higher-priority work; equal priority waits its turn or
                // bounces.
                let victim = q
                    .waiters
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| w.priority < priority)
                    .min_by_key(|(_, w)| (w.priority, std::cmp::Reverse(w.seq)))
                    .map(|(at, _)| at);
                let Some(at) = victim else {
                    obs::add(obs::Counter::ServeRejected, 1);
                    return Err(ServeError::Overloaded { class });
                };
                let shed = q.waiters.remove(at);
                shed.token.trip(CancelReason::Shed);
                *shed.cell.state.lock().expect("wait cell poisoned") = WaitOutcome::Shed;
                shed.cell.ready.notify_all();
                obs::add(obs::Counter::ServeShed, 1);
            }
            seq = self.seq.fetch_add(1, Ordering::Relaxed);
            cell = Arc::new(WaitCell {
                state: Mutex::new(WaitOutcome::Waiting),
                ready: Condvar::new(),
            });
            q.waiters.push(Waiter {
                seq,
                priority,
                token: token.clone(),
                cell: Arc::clone(&cell),
            });
            obs::gauge_max(obs::Counter::ServeQueueDepthMax, q.waiters.len() as u64);
        }

        // Wait for promotion, shedding, or our deadline. Lock order: the
        // cell guard is always dropped before touching the class queue
        // (promoters hold queue-then-cell).
        loop {
            // `true` = deadline expired while waiting; `false` = admitted
            // (the pace gate runs outside the cell lock — cell before
            // queue would invert the promoters' lock order).
            let timed_out = {
                let mut state = cell.state.lock().expect("wait cell poisoned");
                loop {
                    match *state {
                        WaitOutcome::Admitted => break false,
                        WaitOutcome::Shed => {
                            return Err(ServeError::Cancelled {
                                class,
                                reason: CancelReason::Shed,
                            })
                        }
                        WaitOutcome::Waiting => {}
                    }
                    match token.remaining() {
                        Some(rem) if rem.is_zero() => break true,
                        Some(rem) => {
                            let (next, result) = cell
                                .ready
                                .wait_timeout(state, rem)
                                .expect("wait cell poisoned");
                            state = next;
                            if result.timed_out() && *state == WaitOutcome::Waiting {
                                break true;
                            }
                        }
                        None => {
                            state = cell.ready.wait(state).expect("wait cell poisoned");
                        }
                    }
                }
            };
            if !timed_out {
                return self.pace(class, token);
            }
            // Deadline hit while queued: remove ourselves. A concurrent
            // promotion/shed may have raced us out of the queue already —
            // re-read the cell and honor whichever happened.
            let mut q = queue.lock().expect("serve queue poisoned");
            if let Some(at) = q.waiters.iter().position(|w| w.seq == seq) {
                q.waiters.remove(at);
                drop(q);
                token.trip(CancelReason::Deadline);
                obs::add(obs::Counter::ServeTimeouts, 1);
                return Err(ServeError::Cancelled {
                    class,
                    reason: CancelReason::Deadline,
                });
            }
            drop(q);
            // Raced: loop back and read the (now decided) outcome.
        }
    }

    /// Hold a freshly-granted slot of a paced class until its idle gap has
    /// elapsed. The slot is already claimed, so capacity stays reserved;
    /// a deadline that cannot survive the wait releases the slot and
    /// reports a timeout instead of burning the gap for nothing.
    fn pace(&self, class: JobClass, token: &JobToken) -> Result<(), ServeError> {
        if self.config.policy(class).pacing.is_none() {
            return Ok(());
        }
        let start_at = self.queues[class.index()]
            .lock()
            .expect("serve queue poisoned")
            .next_start;
        let Some(start_at) = start_at else {
            return Ok(());
        };
        loop {
            if let Some(reason) = token.state() {
                self.finish(class);
                match reason {
                    CancelReason::Deadline => obs::add(obs::Counter::ServeTimeouts, 1),
                    _ => obs::add(obs::Counter::ServeCancelled, 1),
                }
                return Err(ServeError::Cancelled { class, reason });
            }
            let now = Instant::now();
            if now >= start_at {
                return Ok(());
            }
            let mut wait = start_at - now;
            if let Some(rem) = token.remaining() {
                // The deadline lands inside the gap: sleep only to the
                // deadline, then the state check above reports it.
                wait = wait.min(rem);
            }
            std::thread::sleep(wait.min(Duration::from_millis(2)));
        }
    }

    /// Release one `running` slot of `class` and promote waiters — highest
    /// priority first, FIFO within a priority — while capacity remains.
    fn finish(&self, class: JobClass) {
        let policy = self.config.policy(class);
        let mut q = self.queues[class.index()]
            .lock()
            .expect("serve queue poisoned");
        q.running = q.running.saturating_sub(1);
        if let Some(gap) = policy.pacing {
            q.next_start = Some(Instant::now() + gap);
        }
        while q.running < policy.max_concurrent.max(1) {
            let best = q
                .waiters
                .iter()
                .enumerate()
                .max_by_key(|(_, w)| (w.priority, std::cmp::Reverse(w.seq)))
                .map(|(at, _)| at);
            let Some(at) = best else { break };
            let waiter = q.waiters.remove(at);
            q.running += 1;
            *waiter.cell.state.lock().expect("wait cell poisoned") = WaitOutcome::Admitted;
            waiter.cell.ready.notify_all();
        }
    }
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("threads", &self.exec.threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn controller(threads: usize, config: ServeConfig) -> AdmissionController {
        AdmissionController::new(
            Arc::new(Executor::new(threads)),
            Arc::new(FeatureCache::new(sm_text::normalize::Normalizer::new())),
            config,
        )
    }

    #[test]
    fn uncontended_jobs_run_inline_and_return() {
        let ctl = controller(2, ServeConfig::for_pool(2));
        let out = ctl.submit(JobClass::PointMatch, 1, |grant| {
            assert!(!grant.degraded());
            grant.token().checkpoint(); // live token: no-op
            21 * 2
        });
        assert_eq!(out.unwrap(), 42);
    }

    #[test]
    fn full_queue_rejects_equal_priority_and_sheds_lower() {
        let mut config = ServeConfig::for_pool(2);
        *config.policy_mut(JobClass::Batch) = ClassPolicy {
            max_concurrent: 1,
            queue_capacity: 1,
            lane_fraction: 0.5,
            deadline: None,
            pacing: None,
        };
        let ctl = Arc::new(controller(2, config));
        let occupied = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));

        let runner = {
            let ctl = Arc::clone(&ctl);
            let occupied = Arc::clone(&occupied);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                ctl.submit(JobClass::Batch, 1, |_| {
                    occupied.wait();
                    release.wait();
                })
                .unwrap();
            })
        };
        occupied.wait(); // the running slot is held

        // Fill the queue with a low-priority waiter.
        let waiter = {
            let ctl = Arc::clone(&ctl);
            std::thread::spawn(move || ctl.submit(JobClass::Batch, 0, |_| "low"))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let queued = ctl.queues[JobClass::Batch.index()]
                .lock()
                .unwrap()
                .waiters
                .len();
            if queued == 1 {
                break;
            }
            assert!(Instant::now() < deadline, "waiter never queued");
            std::thread::yield_now();
        }

        // Equal priority at a full queue: rejected, queue untouched.
        let bounced = ctl.submit(JobClass::Batch, 0, |_| "equal");
        assert_eq!(
            bounced.unwrap_err(),
            ServeError::Overloaded {
                class: JobClass::Batch
            }
        );

        // Strictly higher priority: the low waiter is shed to make room.
        let vip = {
            let ctl = Arc::clone(&ctl);
            std::thread::spawn(move || ctl.submit(JobClass::Batch, 5, |_| "vip"))
        };
        assert_eq!(
            waiter.join().unwrap().unwrap_err(),
            ServeError::Cancelled {
                class: JobClass::Batch,
                reason: CancelReason::Shed,
            }
        );
        release.wait(); // let the occupant finish; the vip promotes
        assert_eq!(vip.join().unwrap().unwrap(), "vip");
        runner.join().unwrap();
    }

    #[test]
    fn queued_deadline_times_out_without_running() {
        let mut config = ServeConfig::for_pool(2);
        config.policy_mut(JobClass::Search).max_concurrent = 1;
        config.policy_mut(JobClass::Search).deadline = Some(Duration::from_millis(30));
        let ctl = Arc::new(controller(2, config));
        let occupied = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let runner = {
            let ctl = Arc::clone(&ctl);
            let occupied = Arc::clone(&occupied);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                ctl.submit(JobClass::Search, 1, |_| {
                    occupied.wait();
                    release.wait();
                })
                .unwrap();
            })
        };
        occupied.wait();
        let ran = AtomicUsize::new(0);
        let out = ctl.submit(JobClass::Search, 1, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(
            out.unwrap_err(),
            ServeError::Cancelled {
                class: JobClass::Search,
                reason: CancelReason::Deadline,
            }
        );
        assert_eq!(ran.load(Ordering::Relaxed), 0, "timed-out job never ran");
        release.wait();
        runner.join().unwrap();
    }

    #[test]
    fn paced_class_enforces_idle_gap_between_jobs() {
        let gap = Duration::from_millis(40);
        let mut config = ServeConfig::for_pool(2);
        config.policy_mut(JobClass::Batch).pacing = Some(gap);
        let ctl = controller(2, config);

        ctl.submit(JobClass::Batch, 1, |_| ()).unwrap();
        let first_end = Instant::now();
        let mut second_start = first_end;
        ctl.submit(JobClass::Batch, 1, |_| {
            second_start = Instant::now();
        })
        .unwrap();
        assert!(
            second_start.duration_since(first_end) >= gap - Duration::from_millis(2),
            "paced job started {:?} after the previous finish (gap {gap:?})",
            second_start.duration_since(first_end)
        );

        // A deadline that cannot survive the gap times out without running,
        // and releases the slot for later paced work.
        ctl.submit(JobClass::Batch, 1, |_| ()).unwrap();
        let ran = AtomicUsize::new(0);
        let out = ctl.submit_with_token(
            JobClass::Batch,
            1,
            JobToken::deadline_in(Duration::from_millis(1)),
            |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(
            out.unwrap_err(),
            ServeError::Cancelled {
                class: JobClass::Batch,
                reason: CancelReason::Deadline,
            }
        );
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        ctl.submit(JobClass::Batch, 1, |_| ()).unwrap();

        // Unpaced classes are untouched by a sibling's pacing.
        let t0 = Instant::now();
        ctl.submit(JobClass::PointMatch, 1, |_| ()).unwrap();
        assert!(t0.elapsed() < gap, "unpaced class waited a pacing gap");
    }

    #[test]
    fn mid_run_cancellation_maps_to_cancelled_error() {
        let ctl = controller(2, ServeConfig::for_pool(2));
        let out: Result<(), _> = ctl.submit(JobClass::PointMatch, 1, |grant| {
            grant.token().cancel();
            grant.token().checkpoint();
            unreachable!("checkpoint must unwind");
        });
        assert_eq!(
            out.unwrap_err(),
            ServeError::Cancelled {
                class: JobClass::PointMatch,
                reason: CancelReason::Cancelled,
            }
        );
        // The controller (and its executor) stay fully usable.
        assert_eq!(ctl.submit(JobClass::PointMatch, 1, |_| 7).unwrap(), 7);
    }

    #[test]
    fn zero_deadline_trips_at_first_checkpoint() {
        let ctl = controller(2, ServeConfig::for_pool(2));
        let token = JobToken::deadline_in(Duration::ZERO);
        let out: Result<(), _> = ctl.submit_with_token(JobClass::Batch, 1, token, |grant| {
            grant.token().checkpoint();
            unreachable!();
        });
        assert_eq!(
            out.unwrap_err(),
            ServeError::Cancelled {
                class: JobClass::Batch,
                reason: CancelReason::Deadline,
            }
        );
    }

    #[test]
    fn foreign_panics_propagate_unchanged() {
        let ctl = controller(2, ServeConfig::for_pool(2));
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _ = ctl.submit(JobClass::PointMatch, 1, |_| panic!("real bug"));
        }));
        let payload = result.unwrap_err();
        assert_eq!(*payload.downcast_ref::<&str>().unwrap(), "real bug");
        // A real panic still releases the running slot.
        assert_eq!(ctl.submit(JobClass::PointMatch, 1, |_| 5).unwrap(), 5);
    }

    #[test]
    fn governor_reads_rss_and_sets_pressure_flag() {
        let rss = current_rss_bytes().expect("procfs available in CI");
        assert!(rss > 0);
        let cache = Arc::new(FeatureCache::new(sm_text::normalize::Normalizer::new()));
        // Ceiling below current use: one poll must raise pressure.
        let governor = MemoryGovernor::new(
            MemoryPolicy {
                ceiling_bytes: rss / 2,
                cache_budget_bytes: 1 << 20,
                poll_interval: Duration::ZERO,
            },
            Arc::clone(&cache),
        );
        assert!(governor.poll());
        assert!(memory_pressure());
        // Ceiling far above: pressure clears (hysteresis margin included).
        let relaxed = MemoryGovernor::new(
            MemoryPolicy {
                ceiling_bytes: rss.saturating_mul(16),
                cache_budget_bytes: 1 << 20,
                poll_interval: Duration::ZERO,
            },
            cache,
        );
        assert!(!relaxed.poll());
        assert!(!memory_pressure());
    }
}
