//! The persistent executor: one worker pool for every match workload.
//!
//! Before this module, every `MatchPipeline::run` / `run_blocked` invocation
//! spawned its own `std::thread::scope` workers and joined them at the end of
//! the stage — fine for one heavyweight match, but a many-pair workload (the
//! paper's five-schema vocabulary effort, clustering for consolidation, COI
//! agreement) paid thread creation and teardown once per pair per stage.
//! [`Executor`] replaces that with a pool of persistent workers created once
//! (lazily, for the [`Executor::global`] instance) and fed through a shared
//! injector queue.
//!
//! Scheduling is two-level:
//!
//! * **job level** — a batch (see [`crate::batch`]) maps its pairs over
//!   lanes that claim whole pairs from the batch's request queue;
//! * **chunk level** — inside one pair, the Prepare, Block and Score/Merge
//!   stages map their chunks over lanes of the *same* pool, so a worker
//!   left idle at the tail can steal chunk work from whichever pair is
//!   currently the straggler instead of sitting it out.
//!
//! Both levels go through one fan-out, [`Job::map_with`]. A [`Job`] carries
//! what governs a parallel stage: the executor, the lane width, the class
//! [`LaneBudget`] and the [`JobToken`]. The fan-out claims items one at a
//! time, checks the token once per claim, draws helper lanes from the
//! budget and returns results in item order; with at most one item or a
//! width of 1 it runs inline without touching the pool. Under it sits the
//! one lane primitive, private to this module, whose contract makes
//! nesting deadlock-free: the calling thread always executes lane 0
//! itself, so a claim loop completes even when the pool is saturated and
//! no helper lane ever starts. Helper lanes that arrive after the queue is
//! drained return immediately. A consequence worth stating: the pool
//! bounds *helpers*, not correctness — results are byte-identical for
//! every pool size, including zero helpers, because every parallel stage
//! writes disjoint output and claims work from a deterministic queue.
//!
//! Nesting is also kept within the pool's width. Each pool counts its
//! *reserved lanes*: one per thread running lanes of it (a fan-out's caller
//! reserves one on entry unless it is already inside a lane of this pool)
//! and one per helper from its enqueue until its body finishes. A fan-out
//! offers only the unreserved lanes, so a job lane of a batch that already
//! holds the whole pool runs its pair's Block and Score chunks inline
//! instead of waking one more thread per pair; chunk-level helpers come
//! from lanes nobody holds, which at the batch tail are the lanes of job
//! lanes that ran out of pairs.
//!
//! The global pool is sized by [`crate::engine::detect_threads`] (so the
//! `SM_THREADS` override reaches it) at first use; tests and embedders that
//! need a specific width inject their own instance via
//! [`crate::engine::MatchEngine::with_executor`].

use crate::engine::detect_threads;
use crate::obs;
use crate::serve::JobToken;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A unit of pool work: an erased helper-lane closure, tagged with the
/// lane-primitive invocation that enqueued it so the owner can claim its
/// own pending helpers back while waiting (see [`DrainGuard`]).
struct Task {
    owner: u64,
    run: Box<dyn FnOnce() + Send>,
}

/// Shared state between an executor handle and its workers.
struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Signalled when a task is enqueued or shutdown is requested.
    wake: Condvar,
    /// Ticket counter handing each fan-out a unique owner id.
    next_owner: AtomicU64,
    /// This pool's scheduling counters (see [`ExecStats`]): each event is
    /// counted once, here, and obs sums the block into its `exec.*`
    /// counters. They count whether or not [`obs::set_enabled`] is on.
    counters: obs::CounterBlock,
    /// High-water mark of the shared queue's depth (this pool's gauge).
    queue_depth_max: AtomicU64,
    /// Lanes of this pool currently held (see [`LaneSeat`]): every fan-out
    /// offers at most `threads − reserved` helpers. A plain count that
    /// publishes no other data, hence `Relaxed`; a helper's release still
    /// happens before its owner returns, through the lane latch's mutex.
    reserved: AtomicUsize,
}

/// Snapshot of one executor instance's scheduling counters
/// ([`Executor::stats`]). All values are cumulative since pool creation,
/// and count whether or not [`obs::set_enabled`] is on; the process-wide
/// `exec.*` counters read the same block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Helper tasks pushed onto the shared queue by fan-outs.
    pub enqueued: u64,
    /// Queued tasks executed by a pool worker.
    pub stolen: u64,
    /// Queued tasks reclaimed and drained inline by their owner.
    pub reclaimed: u64,
    /// Worker condvar waits entered (once at startup per worker, then once
    /// per drain-to-empty).
    pub parked: u64,
    /// Fan-outs that reached the pool and then ran fully inline (no helper
    /// offered: every lane reserved, or the budget granted none). A fan-out
    /// with at most one item or a width of 1 never reaches the pool and is
    /// not counted.
    pub inline_runs: u64,
    /// Helpers a fan-out wanted (within pool width − 1) but did not offer
    /// because every lane of the pool was reserved — typically a pair
    /// job's chunk fan-out inside a batch that already holds the pool.
    /// Shortfall against a [`LaneBudget`] is not counted here.
    pub withheld: u64,
    /// Helpers the pool could offer but a fan-out's [`LaneBudget`]
    /// refused.
    pub budget_denied: u64,
    /// High-water mark of the shared queue depth.
    pub queue_depth_max: u64,
}

#[derive(Default)]
struct PoolQueue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// A shared cap on how many *helper* lanes a class of jobs may hold at
/// once, enforced by every [`Job`] fan-out that carries it.
///
/// The serving layer hands every job class (point match, search, batch,
/// COI) its own budget sized as a fraction of the pool width, so a 12-way
/// batch can never occupy more than its share of pool workers while point
/// queries contend for the rest. The calling thread's lane 0 is never
/// counted — caller participation is unconditional — so a budget of 0
/// degrades a job to fully inline execution rather than blocking it.
///
/// Claims are non-blocking and partial: a job wanting 7 helpers from a
/// budget with 3 available gets 3. Correctness never depends on the grant
/// (every parallel stage is a claim loop completable by lane 0 alone);
/// only latency does.
pub struct LaneBudget {
    available: std::sync::atomic::AtomicUsize,
    width: usize,
}

impl LaneBudget {
    /// A budget allowing at most `max_helpers` concurrently-held helper
    /// lanes across all jobs sharing this budget.
    pub fn new(max_helpers: usize) -> Self {
        LaneBudget {
            available: std::sync::atomic::AtomicUsize::new(max_helpers),
            width: max_helpers,
        }
    }

    /// The configured cap (helpers, excluding callers' own lanes).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Helpers currently claimable (racy; observability only).
    pub fn available(&self) -> usize {
        self.available.load(Ordering::Relaxed)
    }

    /// Claim up to `want` helper lanes, returning the number granted
    /// (possibly 0). Never blocks.
    fn claim(&self, want: usize) -> usize {
        let mut avail = self.available.load(Ordering::Relaxed);
        loop {
            let take = want.min(avail);
            if take == 0 {
                return 0;
            }
            match self.available.compare_exchange_weak(
                avail,
                avail - take,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(now) => avail = now,
            }
        }
    }

    fn release(&self, lanes: usize) {
        if lanes > 0 {
            self.available.fetch_add(lanes, Ordering::AcqRel);
        }
    }
}

/// RAII release of a [`LaneBudget`] claim — helpers are returned to the
/// budget even when the guarded fan-out unwinds.
struct LaneLease<'a> {
    budget: &'a LaneBudget,
    lanes: usize,
}

impl Drop for LaneLease<'_> {
    fn drop(&mut self) {
        self.budget.release(self.lanes);
    }
}

/// A persistent pool of worker threads with a shared injector queue.
///
/// Workers live for the lifetime of the executor ([`Executor::global`] lives
/// for the process). Work is submitted through a [`Job`]; see the module
/// docs for the two-level scheduling model.
pub struct Executor {
    shared: Arc<PoolShared>,
    threads: usize,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// A pool with `threads` persistent workers (values < 1 are treated
    /// as 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue::default()),
            wake: Condvar::new(),
            next_owner: AtomicU64::new(0),
            counters: obs::CounterBlock::new(),
            queue_depth_max: AtomicU64::new(0),
            reserved: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sm-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor {
            shared,
            threads,
            workers,
        }
    }

    /// The process-wide executor, created on first use and sized by
    /// [`detect_threads`] (`SM_THREADS` override → `available_parallelism`
    /// → `/proc/cpuinfo`). `MatchEngine::new()` runs on this instance
    /// unless given a private one.
    pub fn global() -> &'static Arc<Executor> {
        static GLOBAL: OnceLock<Arc<Executor>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(Executor::new(detect_threads())))
    }

    /// Number of persistent pool workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cumulative scheduling counters of this pool instance, so a private
    /// pool can be asserted against without cross-test noise. They count
    /// whether or not [`obs::set_enabled`] is on; the process-wide `exec.*`
    /// counters sum this pool's block with every other pool's.
    pub fn stats(&self) -> ExecStats {
        let c = &self.shared.counters;
        ExecStats {
            enqueued: c.get(obs::Counter::ExecEnqueued),
            stolen: c.get(obs::Counter::ExecStolen),
            reclaimed: c.get(obs::Counter::ExecReclaimed),
            parked: c.get(obs::Counter::ExecParked),
            inline_runs: c.get(obs::Counter::ExecInline),
            withheld: c.get(obs::Counter::ExecWithheld),
            budget_denied: c.get(obs::Counter::ExecBudgetDenied),
            queue_depth_max: self.shared.queue_depth_max.load(Ordering::Relaxed),
        }
    }

    /// Execute `work(lane)` from up to `parallelism` concurrent lanes and
    /// return when every lane has finished: the lane primitive under
    /// [`Job::map_with`], the one fan-out every stage calls.
    ///
    /// Lane 0 always runs on the calling thread; lanes `1..` are offered to
    /// the pool, capped at **pool width − 1**: the caller participates, so
    /// a `threads`-wide pool already has its full width of runnable lanes
    /// with `threads − 1` helpers. Offering `threads` helpers — the
    /// pre-PR-5 behavior — oversubscribed the machine by one thread, which
    /// on a small host turned "2 workers" into two threads time-slicing one
    /// core and made the multi-threaded dense run *slower* than the serial
    /// one (`BENCH_pipeline.json`, PR 4: 0.321 s at 2 threads vs 0.282 s at
    /// 1). In particular, a 1-wide pool now runs every lane inline on the
    /// caller.
    ///
    /// The cap also holds under nesting: helpers are further capped at the
    /// pool's *unreserved* lanes, `threads − reserved`. The caller reserves
    /// a lane for lane 0 unless its thread is already running a lane of
    /// this pool (a thread counts once per pool however deep it nests; a
    /// lane of another pool does not count here), and each helper stays
    /// reserved from its enqueue until its body finishes, whoever runs it.
    /// A standalone call thus gets its `threads − 1` helpers, while a call
    /// from inside a fan-out that already holds the pool runs inline. The
    /// caller's lane is released when lane 0 returns, so the lanes of a
    /// fan-out's finished lanes go to whichever of its lanes fans out next.
    ///
    /// Only then are helpers claimed from `budget` (`None` is unbudgeted),
    /// non-blocking, so the width rule never uses up budget lanes. A
    /// starved claim (0 granted) degrades to inline execution instead of
    /// waiting; claimed lanes return to the budget when the invocation
    /// completes, including by unwind.
    ///
    /// `work` must be written as a *claim loop* over shared state: any
    /// subset of lanes, in any order, must complete the whole job, because
    /// a helper lane may start arbitrarily late — or find the queue already
    /// drained — when the pool is busy with other jobs.
    ///
    /// Panics in any lane are captured, every other lane is still waited
    /// for (the borrow of `work` must outlive all helpers), and the first
    /// panic is then propagated on the calling thread.
    fn run_lanes<F>(&self, parallelism: usize, budget: Option<&LaneBudget>, work: F)
    where
        F: Fn(usize) + Sync,
    {
        let seat = LaneSeat::reserve(&self.shared);
        let want = self.helpers_wanted(parallelism);
        let free = self.reserve_helpers(want);
        self.withhold(want - free);
        let helpers = match budget {
            Some(b) => {
                let got = b.claim(free);
                if got < free {
                    self.shared
                        .counters
                        .add(obs::Counter::ExecBudgetDenied, (free - got) as u64);
                    // Hand the lanes the budget refused straight back: only
                    // helpers about to be enqueued stay reserved.
                    self.shared
                        .reserved
                        .fetch_sub(free - got, Ordering::Relaxed);
                }
                got
            }
            None => free,
        };
        let _lease = budget.map(|b| LaneLease {
            budget: b,
            lanes: helpers,
        });
        if helpers == 0 {
            self.count_inline();
            work(0);
            return;
        }

        let sync = LaneSync {
            state: Mutex::new(LaneState {
                remaining: helpers,
                panic: None,
            }),
            done: Condvar::new(),
        };
        // Erase the stack lifetimes of `work` and `sync`. Soundness: this
        // function does not return (or unwind) before `remaining` reaches
        // zero, i.e. before every helper closure has finished running, so
        // the raw pointers never dangle.
        let work_ref: &(dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync + '_), &(dyn Fn(usize) + Sync + 'static)>(
                &work,
            )
        };
        let launch = LanePointers {
            work: std::ptr::from_ref(work_ref),
            sync: std::ptr::from_ref(&sync),
            pool: Arc::as_ptr(&self.shared),
        };
        let owner = self
            .shared
            .next_owner
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let depth;
        {
            let mut queue = self.shared.queue.lock().expect("executor poisoned");
            for lane in 1..=helpers {
                let ptrs = launch;
                let run = Box::new(move || {
                    // Rebind the whole struct: edition-2021 disjoint capture
                    // would otherwise capture the raw-pointer fields
                    // individually and lose the struct's `Send` impl.
                    let ptrs = ptrs;
                    // SAFETY: `run_lanes` keeps `work`, `sync` and the
                    // pool alive until this closure signals completion
                    // below.
                    let (work, sync, pool) = unsafe { (&*ptrs.work, &*ptrs.sync, &*ptrs.pool) };
                    let outcome = {
                        // This helper's lane has been reserved since its
                        // enqueue; it is released before the latch below
                        // lets the owner return.
                        let _seat = LaneSeat::occupy(pool);
                        catch_unwind(AssertUnwindSafe(|| work(lane)))
                    };
                    let mut state = sync.state.lock().expect("lane sync poisoned");
                    if let Err(payload) = outcome {
                        state.panic.get_or_insert(payload);
                    }
                    state.remaining -= 1;
                    if state.remaining == 0 {
                        sync.done.notify_all();
                    }
                });
                queue.tasks.push_back(Task { owner, run });
            }
            depth = queue.tasks.len() as u64;
        }
        // From here on the queue holds tasks pointing into this frame, so
        // the drain guard is armed *before* anything else runs: whatever
        // unwinds below (lane 0's body — cooperative cancellation unwinds
        // through here by design — or any counter/notify call), the guard's
        // Drop reclaims or waits out every helper before the frame dies.
        // That is the soundness contract of the lifetime erasure above, now
        // enforced structurally instead of by control-flow inspection.
        let drain = DrainGuard {
            shared: &self.shared,
            sync: &sync,
            owner,
        };
        let shared = &self.shared;
        shared
            .counters
            .add(obs::Counter::ExecEnqueued, helpers as u64);
        shared.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
        obs::gauge_max(obs::Counter::ExecQueueDepthMax, depth);
        self.shared.wake.notify_all();

        // Lane 0 on the calling thread. Even if it panics, helpers must be
        // waited for before unwinding (see the safety note above).
        let own = catch_unwind(AssertUnwindSafe(|| work_ref(0)));

        // Lane 0 is done with the caller's lane: while it waits below, a
        // helper still running (or one it reclaims, on that helper's own
        // reservation) may fan out into it.
        drop(seat);
        drop(drain); // reclaim-or-wait until every helper lane is done
        let helper_panic = sync.state.lock().expect("lane sync poisoned").panic.take();

        if let Err(payload) = own {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = helper_panic {
            std::panic::resume_unwind(payload);
        }
    }

    /// The helpers a fan-out of `parallelism` lanes asks for: all but the
    /// caller's lane, within the pool's width.
    fn helpers_wanted(&self, parallelism: usize) -> usize {
        parallelism
            .max(1)
            .saturating_sub(1)
            .min(self.threads.saturating_sub(1))
    }

    /// True when a fan-out of `parallelism` lanes from the calling thread
    /// can get no helper: the pool is one lane wide, or the thread runs a
    /// lane of it and every lane is reserved. It is then counted as
    /// [`Self::run_lanes`] counts a fan-out it gives no helper, and its
    /// caller runs it without reserving anything.
    fn offers_no_helper(&self, parallelism: usize) -> bool {
        let want = self.helpers_wanted(parallelism);
        if want > 0 {
            let pool = Arc::as_ptr(&self.shared);
            let held = HELD_POOLS.with(|held| held.borrow().contains(&pool));
            if !held || self.shared.reserved.load(Ordering::Relaxed) < self.threads {
                return false;
            }
        }
        self.withhold(want);
        self.count_inline();
        true
    }

    /// Count `lanes` helpers a fan-out wanted and the pool could not offer.
    fn withhold(&self, lanes: usize) {
        if lanes > 0 {
            self.shared
                .counters
                .add(obs::Counter::ExecWithheld, lanes as u64);
        }
    }

    /// Count a fan-out that runs inline on its caller.
    fn count_inline(&self) {
        self.shared.counters.add(obs::Counter::ExecInline, 1);
    }

    /// Reserve up to `want` of the pool's unreserved lanes for helpers
    /// about to be enqueued; returns how many were reserved. Each is
    /// released by the [`LaneSeat`] its task occupies.
    fn reserve_helpers(&self, want: usize) -> usize {
        let reserved = &self.shared.reserved;
        let mut held = reserved.load(Ordering::Relaxed);
        loop {
            let take = want.min(self.threads.saturating_sub(held));
            if take == 0 {
                return 0;
            }
            match reserved.compare_exchange_weak(
                held,
                held + take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(now) => held = now,
            }
        }
    }
}

/// One job's execution controls, carried into every parallel stage it
/// runs: the executor, the lane width, the class lane budget and the
/// cancellation token. [`crate::engine::MatchEngine::job`] builds one per
/// call from the engine's settings; [`Job::inline`] runs everything on the
/// caller.
///
/// [`Job::map_with`] (and [`Job::map`]) is the one fan-out: lanes claim
/// items one at a time, the token is checked once per claim, helper lanes
/// come from the budget, and results come back in item order, so every
/// stage is bit-identical at every width and under every budget.
#[derive(Clone, Copy)]
pub struct Job<'a> {
    exec: Option<&'a Executor>,
    width: usize,
    budget: Option<&'a LaneBudget>,
    token: Option<&'a JobToken>,
}

impl<'a> Job<'a> {
    /// Up to `width` lanes of `exec` (values < 1 are treated as 1),
    /// unbudgeted and uncancellable.
    pub fn new(exec: &'a Executor, width: usize) -> Self {
        Job {
            exec: Some(exec),
            width: width.max(1),
            budget: None,
            token: None,
        }
    }

    /// Everything on the calling thread: no executor, no budget, no token.
    pub fn inline() -> Self {
        Job {
            exec: None,
            width: 1,
            budget: None,
            token: None,
        }
    }

    /// Draw helper lanes from `budget` (`None` is unbudgeted).
    pub fn with_budget(self, budget: Option<&'a LaneBudget>) -> Self {
        Job { budget, ..self }
    }

    /// Check `token` once per claim (`None` never cancels).
    pub fn with_token(self, token: Option<&'a JobToken>) -> Self {
        Job { token, ..self }
    }

    /// The lane width: at most this many lanes run one fan-out.
    pub fn width(self) -> usize {
        self.width
    }

    /// Cooperative cancellation point: unwinds iff the token has tripped
    /// (see [`JobToken::checkpoint`]). The fan-out calls it per claim;
    /// stages call it at their boundaries. Never call it under a lock.
    pub fn checkpoint(self) {
        if let Some(token) = self.token {
            token.checkpoint();
        }
    }

    /// [`Self::map_with`] without per-lane scratch.
    pub fn map<I, R, F>(self, items: I, f: F) -> Vec<R>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator + Send,
        I::Item: Send,
        R: Send,
        F: Fn(usize, I::Item) -> R + Sync,
    {
        self.map_with(items, || (), |(), index, item| f(index, item))
    }

    /// Apply `f(scratch, index, item)` to every item, returning the results
    /// in item order. Lanes claim items one at a time from a shared queue,
    /// checking the token before each; a lane builds its `scratch` on its
    /// first claim and reuses it for the rest. With at most one item or a
    /// width of 1 everything runs inline on the caller without touching the
    /// executor; otherwise `min(width, items)` lanes run through the
    /// executor's lane rule and this job's budget. A fan-out the lane rule
    /// can give no helper (`Executor::offers_no_helper`) also maps its
    /// items in order on the caller, checking the token before each, with
    /// no claim queue and no result slots.
    pub fn map_with<I, S, R, F>(self, items: I, scratch: impl Fn() -> S + Sync, f: F) -> Vec<R>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator + Send,
        I::Item: Send,
        R: Send,
        F: Fn(&mut S, usize, I::Item) -> R + Sync,
    {
        let items = items.into_iter();
        let lanes = self.width.min(items.len());
        let exec = match self.exec {
            Some(exec) if lanes > 1 && !exec.offers_no_helper(lanes) => exec,
            _ => {
                let mut lane = None;
                return items
                    .enumerate()
                    .map(|(index, item)| {
                        self.checkpoint();
                        f(lane.get_or_insert_with(&scratch), index, item)
                    })
                    .collect();
            }
        };
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(items.len(), || None);
        let queue = Mutex::new(slots.iter_mut().zip(items.enumerate()));
        let claim_loop = |_lane: usize| {
            let mut lane = None;
            loop {
                let claimed = queue.lock().expect("job queue poisoned").next();
                let Some((slot, (index, item))) = claimed else {
                    break;
                };
                // Cancellation point: queue lock released, item untouched.
                self.checkpoint();
                *slot = Some(f(lane.get_or_insert_with(&scratch), index, item));
            }
        };
        exec.run_lanes(lanes, self.budget, claim_loop);
        slots
            .into_iter()
            .map(|r| r.expect("every item mapped"))
            .collect()
    }
}

/// `0..n` in consecutive ranges of `chunk` (the last one shorter): the
/// items of a chunked [`Job::map`].
pub fn chunks(n: usize, chunk: usize) -> impl ExactSizeIterator<Item = Range<usize>> + Send {
    let chunk = chunk.max(1);
    (0..n)
        .step_by(chunk)
        .map(move |start| start..(start + chunk).min(n))
}

thread_local! {
    /// The pools this thread is running a lane of, innermost last (by
    /// `PoolShared` address, which is stable and unique while any of its
    /// lanes runs). A fan-out on a listed pool reserves no lane for its
    /// caller: the thread already holds one.
    static HELD_POOLS: RefCell<Vec<*const PoolShared>> = const { RefCell::new(Vec::new()) };
}

/// One reserved lane of a pool, occupied by the current thread: while it
/// lives the thread is listed in [`HELD_POOLS`], and its drop — on return
/// and on unwind alike — unlists the thread and releases the lane. A lost
/// release would leave the lane reserved for good and quietly make every
/// later fan-out on the pool narrower, down to serial.
struct LaneSeat<'a> {
    pool: &'a PoolShared,
}

impl<'a> LaneSeat<'a> {
    /// Reserve a lane for the calling thread, unless it already runs a lane
    /// of `pool`.
    fn reserve(pool: &'a PoolShared) -> Option<Self> {
        let held = HELD_POOLS.with(|held| held.borrow().contains(&std::ptr::from_ref(pool)));
        if held {
            return None;
        }
        pool.reserved.fetch_add(1, Ordering::Relaxed);
        Some(LaneSeat::occupy(pool))
    }

    /// Occupy a lane already counted in `pool.reserved` (an enqueued
    /// helper's).
    fn occupy(pool: &'a PoolShared) -> Self {
        HELD_POOLS.with(|held| held.borrow_mut().push(std::ptr::from_ref(pool)));
        LaneSeat { pool }
    }
}

impl Drop for LaneSeat<'_> {
    fn drop(&mut self) {
        HELD_POOLS.with(|held| held.borrow_mut().pop());
        self.pool.reserved.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Drains one fan-out's outstanding helper tasks on drop —
/// on the normal path and on unwind alike. See the armed-before-anything
/// comment at its construction site.
struct DrainGuard<'a> {
    shared: &'a PoolShared,
    sync: &'a LaneSync,
    owner: u64,
}

impl Drop for DrainGuard<'_> {
    fn drop(&mut self) {
        // Cooperative wait: while our helpers are pending, reclaim and run
        // *our own* still-queued helper tasks instead of blocking. This is
        // what makes nested fan-out (a batch job lane running on a pool
        // worker, fanning its pair's row chunks out to the same pool)
        // deadlock-free on any pool width: the latch only ever waits on
        // this invocation's tasks, and every one of them is either still in
        // the queue (we run it here) or already claimed by another thread
        // (it finishes without needing us — helper bodies are
        // self-contained claim loops). Foreign tasks are deliberately left
        // alone: executing another job's whole-pair task here would bound a
        // millisecond run's latency by a stranger's seconds-long work.
        loop {
            if self
                .sync
                .state
                .lock()
                .expect("lane sync poisoned")
                .remaining
                == 0
            {
                break;
            }
            let reclaimed = {
                let mut queue = self.shared.queue.lock().expect("executor poisoned");
                queue
                    .tasks
                    .iter()
                    .position(|t| t.owner == self.owner)
                    .and_then(|at| queue.tasks.remove(at))
            };
            match reclaimed {
                // The task body records its own panic in the latch; the
                // catch_unwind here enforces the unsafe contract locally
                // (nothing may unwind out of this frame before
                // `remaining == 0`) even for a non-conforming future task.
                Some(task) => {
                    self.shared.counters.add(obs::Counter::ExecReclaimed, 1);
                    let Task { owner, run } = task;
                    let run = || catch_unwind(AssertUnwindSafe(run));
                    let _ = obs::timed(obs::SpanKind::ExecDrain, |_| owner, run);
                }
                None => {
                    let mut state = self.sync.state.lock().expect("lane sync poisoned");
                    while state.remaining > 0 {
                        state = self.sync.done.wait(state).expect("lane sync poisoned");
                    }
                    break;
                }
            }
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("executor poisoned");
            queue.shutdown = true;
        }
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads)
            .finish()
    }
}

/// Completion latch of one fan-out.
struct LaneSync {
    state: Mutex<LaneState>,
    done: Condvar,
}

struct LaneState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Lifetime-erased pointers shipped into helper-lane tasks.
#[derive(Clone, Copy)]
struct LanePointers {
    work: *const (dyn Fn(usize) + Sync),
    sync: *const LaneSync,
    pool: *const PoolShared,
}

// SAFETY: the pointees are `Sync` (`work` by bound, `LaneSync` and
// `PoolShared` by construction) and outlive the tasks; see `run_lanes`.
unsafe impl Send for LanePointers {}

fn worker_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("executor poisoned");
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break task;
                }
                if queue.shutdown {
                    return;
                }
                shared.counters.add(obs::Counter::ExecParked, 1);
                (queue, _) = obs::timed(
                    obs::SpanKind::ExecPark,
                    |_| 0,
                    || shared.wake.wait(queue).expect("executor poisoned"),
                );
            }
        };
        shared.counters.add(obs::Counter::ExecStolen, 1);
        // Lane closures catch and record their own panics; this guard only
        // keeps a non-conforming task from killing the pool worker.
        let Task { owner, run } = task;
        let run = || catch_unwind(AssertUnwindSafe(run));
        let _ = obs::timed(obs::SpanKind::ExecLane, |_| owner, run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn single_lane_runs_inline() {
        let exec = Executor::new(2);
        let hits = AtomicUsize::new(0);
        exec.run_lanes(1, None, |lane| {
            assert_eq!(lane, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn all_lanes_observe_distinct_indices() {
        let exec = Executor::new(4);
        let seen = Mutex::new(Vec::new());
        exec.run_lanes(4, None, |lane| {
            seen.lock().unwrap().push(lane);
        });
        let mut lanes = seen.into_inner().unwrap();
        lanes.sort_unstable();
        assert_eq!(lanes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn claim_loop_jobs_complete_with_any_pool_width() {
        for pool in [1usize, 2, 8] {
            let exec = Executor::new(pool);
            let next = AtomicUsize::new(0);
            let done = AtomicUsize::new(0);
            exec.run_lanes(6, None, |_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= 100 {
                    break;
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(done.load(Ordering::Relaxed), 100, "pool width {pool}");
        }
    }

    #[test]
    fn job_map_preserves_item_order() {
        let exec = Executor::new(4);
        let items: Vec<usize> = (0..50).collect();
        for width in [1, 2, 4] {
            let out = Job::new(&exec, width).map(&items, |i, &x| {
                assert_eq!(i, x, "index must match the item's position");
                x * 2
            });
            assert_eq!(
                out,
                (0..50).map(|x| x * 2).collect::<Vec<_>>(),
                "width {width}"
            );
            assert!(Job::new(&exec, width)
                .map(&[] as &[usize], |_, &x| x)
                .is_empty());
        }
        let owned: Vec<String> = items.iter().map(usize::to_string).collect();
        let out = Job::new(&exec, 4).map(owned, |_, s| s.len());
        assert_eq!(
            out,
            items
                .iter()
                .map(|x| x.to_string().len())
                .collect::<Vec<_>>()
        );
    }

    /// Wait until every worker of a fresh pool reached its startup park, so
    /// the park counter only moves again if someone notifies.
    fn settle(exec: &Executor) {
        let until = deadline();
        while exec.stats().parked < exec.threads() as u64 {
            assert!(std::time::Instant::now() < until, "workers never parked");
            std::thread::yield_now();
        }
    }

    /// A fan-out with at most one item, or a width of 1, runs on the caller
    /// without touching the executor: no enqueue, no wake-up and no inline
    /// run recorded, whatever the budget.
    #[test]
    fn job_short_circuit_leaves_the_pool_untouched() {
        let exec = Executor::new(2);
        settle(&exec);
        let budget = LaneBudget::new(1);
        let token = JobToken::new();
        let base = exec.stats();
        let job = Job::new(&exec, 2)
            .with_budget(Some(&budget))
            .with_token(Some(&token));
        assert!(job.map(0..0, |_, x| x).is_empty());
        assert_eq!(job.map(0..1, |_, x| x + 1), vec![1]);
        let serial = Job::new(&exec, 1).map(0..10, |i, x| i + x);
        assert_eq!(serial, (0..10).map(|x| 2 * x).collect::<Vec<_>>());
        assert_eq!(Job::inline().map(0..3, |_, x| x), vec![0, 1, 2]);
        assert_eq!(
            exec.stats(),
            base,
            "a short-circuited fan-out reached the pool"
        );
        assert_eq!(budget.available(), 1);

        // The same job with two items does reach the pool.
        job.map(0..2, |_, x| x);
        assert_eq!(exec.stats().enqueued, base.enqueued + 1);
    }

    /// A token tripped inside one item's body stops every later claim: an
    /// item whose body starts after the trip passed its checkpoint before
    /// it, which each of the other lanes can have done at most once, and
    /// the fan-out unwinds with the cancel payload.
    #[test]
    fn job_token_tripped_in_an_item_stops_further_claims() {
        crate::serve::install_cancel_hook();
        let exec = Executor::new(4);
        for width in [1, 2, 4] {
            let token = JobToken::new();
            let late = AtomicUsize::new(0);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                Job::new(&exec, width)
                    .with_token(Some(&token))
                    .map(0..200, |i, _| {
                        if token.state().is_some() {
                            late.fetch_add(1, Ordering::Relaxed);
                        }
                        if i == 10 {
                            token.cancel();
                        }
                    })
            }));
            let payload = outcome.expect_err("a tripped token must unwind the fan-out");
            assert!(payload
                .downcast_ref::<crate::serve::CancelUnwind>()
                .is_some());
            let late = late.load(Ordering::Relaxed);
            assert!(
                late < width,
                "width {width}: {late} items started after the trip"
            );
        }
    }

    /// Per-lane scratch is built lazily, at most once per lane, and reused
    /// across that lane's claims.
    #[test]
    fn job_lane_scratch_is_built_at_most_once_per_lane() {
        let exec = Executor::new(4);
        for width in [1, 2, 4] {
            let built = AtomicUsize::new(0);
            let out = Job::new(&exec, width).map_with(
                0..64,
                || {
                    built.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |seen, _, x| {
                    seen.push(x);
                    // Claims ascend within a lane.
                    seen.windows(2).all(|w| w[0] < w[1])
                },
            );
            assert!(out.iter().all(|&ascending| ascending));
            let built = built.load(Ordering::Relaxed);
            assert!(
                (1..=width).contains(&built),
                "width {width}: {built} scratches"
            );
        }
        let built = AtomicUsize::new(0);
        Job::new(&exec, 4).map_with(0..0, || built.fetch_add(1, Ordering::Relaxed), |_, _, x| x);
        assert_eq!(built.load(Ordering::Relaxed), 0, "no claim, no scratch");
    }

    #[test]
    fn nested_run_lanes_does_not_deadlock() {
        let exec = Arc::new(Executor::new(2));
        let total = AtomicUsize::new(0);
        let outer_jobs = AtomicUsize::new(0);
        exec.run_lanes(3, None, |_| loop {
            let job = outer_jobs.fetch_add(1, Ordering::Relaxed);
            if job >= 5 {
                break;
            }
            // Each outer job fans out again on the same saturated pool.
            exec.run_lanes(3, None, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        // 5 inner invocations × up to 3 lanes each; every lane body ran at
        // least once per inner call on lane 0.
        assert!(total.load(Ordering::Relaxed) >= 5);
    }

    #[test]
    fn lane_panic_propagates_after_all_lanes_finish() {
        let exec = Executor::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.run_lanes(3, None, |lane| {
                if lane == 0 {
                    panic!("lane zero exploded");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "panic must propagate");
        // The executor remains usable afterwards.
        let hits = AtomicUsize::new(0);
        exec.run_lanes(2, None, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.load(Ordering::Relaxed) >= 1);
    }

    /// Guards the PR 5 oversubscription fix: single-lane runs must stay off
    /// the shared queue entirely (no enqueues, no queue depth, no worker
    /// wakeups), while multi-lane runs must actually use it.
    #[test]
    fn scheduling_counters_single_vs_multi_lane() {
        let exec = Executor::new(2);
        // Let both workers reach their startup park so the baseline is
        // stable: the park counter only moves again if someone notifies.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while exec.stats().parked < 2 {
            assert!(std::time::Instant::now() < deadline, "workers never parked");
            std::thread::yield_now();
        }

        let base = exec.stats();
        for _ in 0..10 {
            exec.run_lanes(1, None, |lane| assert_eq!(lane, 0));
        }
        let single = exec.stats();
        assert_eq!(
            single.enqueued, base.enqueued,
            "single-lane must not enqueue"
        );
        assert_eq!(single.queue_depth_max, base.queue_depth_max);
        assert_eq!(
            single.parked, base.parked,
            "single-lane must not wake workers"
        );
        assert_eq!(single.inline_runs, base.inline_runs + 10);

        let hits = AtomicUsize::new(0);
        exec.run_lanes(2, None, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        let multi = exec.stats();
        assert!(
            multi.enqueued > single.enqueued,
            "multi-lane must enqueue helpers"
        );
        assert!(multi.queue_depth_max >= 1);
        assert_eq!(
            multi.stolen + multi.reclaimed,
            multi.enqueued,
            "every helper task drained exactly once"
        );
        // The enqueue notified the pool, so the workers wake and re-park:
        // the park counter must become strictly positive relative to the
        // pre-run baseline (racy timing, hence the poll).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while exec.stats().parked <= single.parked {
            assert!(
                std::time::Instant::now() < deadline,
                "multi-lane run never re-parked a worker"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn lane_budget_caps_concurrent_helpers_and_releases() {
        let exec = Executor::new(4);
        let budget = LaneBudget::new(1);
        let seen = Mutex::new(Vec::new());
        exec.run_lanes(4, Some(&budget), |lane| {
            seen.lock().unwrap().push(lane);
        });
        let mut lanes = seen.into_inner().unwrap();
        lanes.sort_unstable();
        // Caller lane plus at most one budgeted helper.
        assert_eq!(lanes, vec![0, 1]);
        assert_eq!(budget.available(), 1, "claim returned on completion");

        // A zero budget degrades to inline execution (lane 0 only).
        let starved = LaneBudget::new(0);
        let base = exec.stats().inline_runs;
        let hits = AtomicUsize::new(0);
        exec.run_lanes(4, Some(&starved), |lane| {
            assert_eq!(lane, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(exec.stats().inline_runs, base + 1);
    }

    #[test]
    fn lane_budget_released_on_unwind() {
        let exec = Executor::new(4);
        let budget = LaneBudget::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.run_lanes(3, Some(&budget), |lane| {
                if lane == 0 {
                    panic!("caller lane unwinds");
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(budget.available(), 2, "unwind must return the claim");
    }

    /// A panicking job propagates to its caller but leaves the *global*
    /// pool fully usable: no stuck queue entries, no poisoned lane state,
    /// and later jobs on the same pool produce correct results.
    #[test]
    fn global_pool_survives_panicking_job() {
        let exec = Executor::global();
        for round in 0..3 {
            let items: Vec<usize> = (0..32).collect();
            let result = catch_unwind(AssertUnwindSafe(|| {
                Job::new(exec, 4).map(&items, |_, &x| {
                    if x == 7 {
                        panic!("job {round} item exploded");
                    }
                    x
                })
            }));
            assert!(result.is_err(), "panic must reach the caller");
            // Next job on the same shared pool is unaffected.
            let out = Job::new(exec, 4).map(&items, |_, &x| x * 3);
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn global_executor_is_shared_and_sized() {
        let g1 = Executor::global();
        let g2 = Executor::global();
        assert!(Arc::ptr_eq(g1, g2));
        assert!(g1.threads() >= 1);
    }

    #[test]
    fn drop_joins_workers() {
        let exec = Executor::new(3);
        let hits = AtomicUsize::new(0);
        exec.run_lanes(3, None, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        drop(exec); // must not hang
        assert!(hits.load(Ordering::Relaxed) >= 1);
    }

    fn deadline() -> std::time::Instant {
        std::time::Instant::now() + std::time::Duration::from_secs(10)
    }

    /// Lane 1's body in the lane-rule tests: wait for lane 0's flag, but
    /// never past a deadline. If no worker ever starts lane 1, lane 0's
    /// drain reclaims it after lane 0 returns and it finds the flag set, so
    /// no test can hang on it.
    fn hold(flag: &AtomicBool) {
        let until = deadline();
        while !flag.load(Ordering::Acquire) && std::time::Instant::now() < until {
            std::thread::yield_now();
        }
    }

    /// Wait, from one lane of a two-lane fan-out, until the other lane has
    /// returned and released its lane, leaving only the waiter's.
    fn await_sibling_release(exec: &Executor) {
        let until = deadline();
        while exec.shared.reserved.load(Ordering::Relaxed) > 1 {
            assert!(std::time::Instant::now() < until, "lane 1 never ran");
            std::thread::yield_now();
        }
    }

    /// No lane of the 2-wide `exec` is left reserved: a standalone
    /// two-lane fan-out offers exactly its one helper. It runs on a fresh
    /// thread, so a lane marker leaked on this one cannot mask a leaked
    /// lane.
    fn assert_no_lane_reserved(exec: &Executor) {
        assert_eq!(exec.threads(), 2);
        assert_eq!(exec.shared.reserved.load(Ordering::Relaxed), 0);
        let before = exec.stats().enqueued;
        std::thread::scope(|scope| {
            scope.spawn(|| exec.run_lanes(2, None, |_| {}));
        });
        assert_eq!(
            exec.stats().enqueued,
            before + 1,
            "a lane of the pool stayed reserved"
        );
    }

    /// The lane rule: a fan-out from a lane of a fan-out that holds the
    /// whole pool offers no helper, records the shortfall as withheld, and
    /// leaves its lane budget untouched.
    #[test]
    fn nested_fan_out_in_a_held_pool_runs_inline() {
        let exec = Executor::new(2);
        let budget = LaneBudget::new(1);
        let release = AtomicBool::new(false);
        exec.run_lanes(2, None, |lane| {
            if lane != 0 {
                return hold(&release);
            }
            let before = exec.stats();
            let withheld_before = obs::counter_value(obs::Counter::ExecWithheld);
            let hits = AtomicUsize::new(0);
            exec.run_lanes(2, Some(&budget), |inner| {
                assert_eq!(inner, 0);
                hits.fetch_add(1, Ordering::Relaxed);
            });
            let after = exec.stats();
            release.store(true, Ordering::Release);
            assert_eq!(hits.load(Ordering::Relaxed), 1);
            assert_eq!(after.enqueued, before.enqueued, "no helper offered");
            assert_eq!(after.inline_runs, before.inline_runs + 1);
            assert_eq!(after.withheld, before.withheld + 1);
            assert_eq!(budget.available(), 1, "the width rule claims no budget");
            if obs::enabled() {
                assert!(obs::counter_value(obs::Counter::ExecWithheld) > withheld_before);
            }
        });
        assert_no_lane_reserved(&exec);
    }

    /// A `Job::map_with` fan-out nested in a fan-out that holds the whole
    /// pool runs inline on its lane, in item order, scratch built once,
    /// and still counts as a withheld fan-out and an inline run.
    #[test]
    fn nested_job_map_in_a_held_pool_runs_inline_in_item_order() {
        let exec = Executor::new(2);
        let release = AtomicBool::new(false);
        exec.run_lanes(2, None, |lane| {
            if lane != 0 {
                return hold(&release);
            }
            let before = exec.stats();
            let withheld_before = obs::counter_value(obs::Counter::ExecWithheld);
            let inline_before = obs::counter_value(obs::Counter::ExecInline);
            let caller = std::thread::current().id();
            let scratches = AtomicUsize::new(0);
            let order = Mutex::new(Vec::new());
            let out = Job::new(&exec, 2).map_with(
                10..16,
                || scratches.fetch_add(1, Ordering::Relaxed),
                |_, index, item| {
                    assert_eq!(std::thread::current().id(), caller);
                    order.lock().unwrap().push(index);
                    item * 2
                },
            );
            let after = exec.stats();
            release.store(true, Ordering::Release);
            assert_eq!(out, vec![20, 22, 24, 26, 28, 30]);
            assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4, 5]);
            assert_eq!(scratches.load(Ordering::Relaxed), 1);
            assert_eq!(after.enqueued, before.enqueued, "no helper offered");
            assert_eq!(after.inline_runs, before.inline_runs + 1);
            assert_eq!(after.withheld, before.withheld + 1);
            if obs::enabled() {
                assert!(obs::counter_value(obs::Counter::ExecWithheld) > withheld_before);
                assert!(obs::counter_value(obs::Counter::ExecInline) > inline_before);
            }
        });
        assert_no_lane_reserved(&exec);
    }

    /// The batch tail: once a sibling lane has returned, its lane goes to
    /// the next nested fan-out.
    #[test]
    fn nested_fan_out_gets_a_returned_sibling_lane() {
        let exec = Executor::new(2);
        exec.run_lanes(2, None, |lane| {
            if lane != 0 {
                return;
            }
            await_sibling_release(&exec);
            let before = exec.stats();
            let seen = Mutex::new(Vec::new());
            exec.run_lanes(2, None, |inner| seen.lock().unwrap().push(inner));
            let after = exec.stats();
            assert_eq!(after.enqueued, before.enqueued + 1, "one helper offered");
            assert_eq!(after.withheld, before.withheld);
            let mut lanes = seen.into_inner().unwrap();
            lanes.sort_unstable();
            assert_eq!(lanes, vec![0, 1]);
        });
        assert_no_lane_reserved(&exec);
    }

    /// The other side of the batch tail: once lane 0 has returned, the
    /// caller's lane goes to a fan-out nested in the straggling helper
    /// lane, whether a worker runs that lane or the waiting caller
    /// reclaims it.
    #[test]
    fn nested_fan_out_in_a_helper_gets_the_returned_caller_lane() {
        let exec = Executor::new(2);
        let before = Mutex::new(None);
        let after = Mutex::new(None);
        exec.run_lanes(2, None, |lane| {
            if lane != 1 {
                return;
            }
            await_sibling_release(&exec);
            *before.lock().unwrap() = Some(exec.stats());
            exec.run_lanes(2, None, |_| {});
            *after.lock().unwrap() = Some(exec.stats());
        });
        let before = before.into_inner().unwrap().expect("lane 1 ran");
        let after = after.into_inner().unwrap().expect("lane 1 ran");
        assert_eq!(after.enqueued, before.enqueued + 1, "one helper offered");
        assert_eq!(after.withheld, before.withheld);
        assert_no_lane_reserved(&exec);
    }

    /// On a 4-wide pool, a fan-out nested in a two-lane fan-out gets the
    /// two lanes that fan-out does not hold.
    #[test]
    fn nested_fan_out_offers_only_unreserved_lanes() {
        let exec = Executor::new(4);
        let release = AtomicBool::new(false);
        exec.run_lanes(2, None, |lane| {
            if lane != 0 {
                return hold(&release);
            }
            let before = exec.stats();
            exec.run_lanes(4, None, |_| {});
            let after = exec.stats();
            release.store(true, Ordering::Release);
            assert_eq!(after.enqueued, before.enqueued + 2);
            assert_eq!(after.withheld, before.withheld + 1);
        });
        assert_eq!(exec.shared.reserved.load(Ordering::Relaxed), 0);
    }

    /// A lane-0 panic inside a nested fan-out releases every lane it
    /// unwinds through: a nested fan-out on the same pool that got a
    /// helper, and one in a lane of another pool, which reserves its own
    /// lane of this pool and runs inline.
    #[test]
    fn lane_zero_panic_in_nested_fan_out_releases_every_lane() {
        let exec = Executor::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.run_lanes(2, None, |lane| {
                if lane != 0 {
                    return;
                }
                await_sibling_release(&exec);
                exec.run_lanes(2, None, |inner| {
                    if inner == 0 {
                        panic!("nested lane zero exploded");
                    }
                });
            });
        }));
        assert!(result.is_err(), "panic must propagate");
        assert_no_lane_reserved(&exec);

        let other = Executor::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            other.run_lanes(2, None, |lane| {
                if lane == 0 {
                    exec.run_lanes(1, None, |_| panic!("inline lane zero exploded"));
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate");
        assert_no_lane_reserved(&exec);
        assert_no_lane_reserved(&other);
    }

    /// A panicking helper lane still releases the lane it was enqueued on.
    #[test]
    fn helper_lane_panic_releases_its_lane() {
        let exec = Executor::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.run_lanes(2, None, |lane| {
                if lane == 1 {
                    panic!("helper lane exploded");
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate");
        assert_no_lane_reserved(&exec);
    }
}
