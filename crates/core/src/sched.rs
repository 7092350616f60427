//! The one executor under both the engine ladder and the serve pool.
//!
//! Every robust sampling run — a single [`crate::engine::ForecastEngine`]
//! forecast ([`crate::robust::run_attempts`]) or a whole serve flush — is
//! a set of `(request, sample, attempt)` tasks drained by one worker loop
//! (`drain`), and every task goes through the same attempt step
//! (`run_attempt`): budget lookup, the panic-isolated draw, outcome
//! recording, the fold into the request's [`RobustProgress`], and the
//! settle-or-retry decision with its `retry`/`backoff` emission.
//! The calling thread is always one of the workers, and a lone forecast
//! never asks for more workers than [`parallelism`] reports. The
//! non-robust fan-outs (the interval estimator's draws, the reference
//! `run_samples`, LLMTime's per-dimension loop) go through `fan_out`, a
//! panic-isolated per-index map over the same loop; `xtask lint`'s
//! `no-scoped-spawn` rule keeps every other thread spawn out of the
//! workspace's library code.
//!
//! [`TaskQueue`] is the single synchronization object the workers
//! coordinate through. It is generic and public for one reason: the
//! `--cfg loom` model-checking suite (`tests/loom_serve.rs`) drives it
//! directly, exhaustively exploring thread interleavings to prove the
//! properties the executor relies on:
//!
//! - **No lost wakeups** — a [`TaskQueue::push`] racing a sleeping
//!   [`TaskQueue::next`] always wakes it; a retry pushed by the last
//!   running worker cannot strand a sleeper.
//! - **No lost wakeups on shed** — a rejected [`TaskQueue::offer`]
//!   settles its unit, and that settlement wakes sleepers exactly like a
//!   completed task would: capacity rejection cannot strand a worker.
//! - **Termination** — workers exit exactly when the queue is empty *and*
//!   every admitted unit of work has settled. An executing task may still
//!   push follow-up tasks, so an empty queue alone is **not** termination:
//!   the `outstanding` settlement counter closes that race.
//! - **No deadlock on pool exhaustion** — any number of workers over any
//!   number of tasks drains without wedging, including workers that go to
//!   sleep before the first push, and including deferred (backed-off)
//!   tasks whose release the fast-forward rule promotes when the main
//!   queue runs dry.
//!
//! The queue is built on the [`mc_sync`] shim, so an ordinary build uses
//! `std::sync` while the loom build swaps in model-checked primitives.
//! This file is the **only** sanctioned construction site of a raw
//! `VecDeque` work queue in the workspace — `xtask lint`'s
//! `no-unbounded-queue` rule (allowlisted here) pushes every other queue
//! through this bounded, settlement-counted type.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use mc_lm::cost::InferenceCost;
use mc_obs::{mix, point_span, Attrs, NoopRecorder, Recorder, SpanEvent, SpanGuard, SpanKind};
use mc_sync::{Condvar, Mutex};
use mc_tslib::error::Result;

use crate::robust::{
    execute_attempt, record_defects, virtual_index, AttemptDisposition, AttemptOutcome,
    RobustPolicy, RobustProgress, SampleExpectations, SampleSource,
};

/// A FIFO task queue with settlement-counted termination, an optional
/// capacity bound, and deferred (backed-off) entries.
///
/// `outstanding` counts admitted units of work that have not yet settled.
/// Executing a task may [`push`](TaskQueue::push) follow-ups (retries) at
/// the same settlement unit, defer them ([`push_deferred`](TaskQueue::push_deferred)),
/// or [`settle_one`](TaskQueue::settle_one) to retire the unit.
/// [`next`](TaskQueue::next) blocks while the queue is empty but work is
/// still outstanding, and returns `None` once `outstanding` reaches zero —
/// at which point every worker drains out.
#[derive(Debug)]
pub struct TaskQueue<T> {
    state: Mutex<QueueState<T>>,
    cv: Condvar,
}

#[derive(Debug)]
struct QueueState<T> {
    tasks: VecDeque<T>,
    /// Settlement units not yet retired; workers exit when the queue is
    /// empty *and* this reaches zero (an executing task may still push
    /// retries, so an empty queue alone is not termination).
    outstanding: usize,
    /// Hard bound on queued (non-deferred) tasks; [`TaskQueue::offer`]
    /// rejects beyond it. `None` = unbounded (retries always fit).
    capacity: Option<usize>,
    /// Monotone count of tasks handed out by [`TaskQueue::next`] — the
    /// logical dispatch clock deferred releases are keyed to.
    dispatched: u64,
    /// Backed-off tasks and the dispatch count at which each releases,
    /// in insertion order.
    deferred: Vec<(u64, T)>,
}

impl<T> QueueState<T> {
    /// Moves every due deferred task onto the main queue, preserving
    /// insertion order among equals.
    fn release_due(&mut self) {
        let mut i = 0;
        while i < self.deferred.len() {
            if self.deferred[i].0 <= self.dispatched {
                let (_, task) = self.deferred.remove(i);
                self.tasks.push_back(task);
            } else {
                i += 1;
            }
        }
    }

    /// The fast-forward rule: when the main queue is dry but deferred
    /// work exists, jump the dispatch clock to the earliest release
    /// instead of sleeping forever — backoff defers retries relative to
    /// *other queued work*, and with nothing else queued there is nothing
    /// left to defer behind.
    fn fast_forward(&mut self) {
        if let Some(&(release, _)) = self.deferred.iter().min_by_key(|&&(release, _)| release) {
            self.dispatched = self.dispatched.max(release);
        }
    }
}

impl<T> TaskQueue<T> {
    /// A queue seeded with `tasks`, expecting `outstanding` settlements.
    ///
    /// `outstanding` may exceed `tasks.len()` when some units start
    /// mid-flight, but every unit must eventually settle exactly once or
    /// [`next`](TaskQueue::next) never returns `None`.
    pub fn new(tasks: Vec<T>, outstanding: usize) -> Self {
        Self::bounded(tasks, outstanding, None)
    }

    /// [`TaskQueue::new`] with a capacity bound enforced by
    /// [`TaskQueue::offer`]. The seed is admitted unconditionally — the
    /// bound governs later offers, not the initial batch (admission
    /// shedding happens before the queue is built).
    pub fn bounded(tasks: Vec<T>, outstanding: usize, capacity: Option<usize>) -> Self {
        Self {
            state: Mutex::new(QueueState {
                tasks: tasks.into_iter().collect(),
                outstanding,
                capacity,
                dispatched: 0,
                deferred: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Enqueues a task (typically a retry at an existing settlement unit),
    /// waking one sleeping worker. Never bounded: a retry re-uses an
    /// already-admitted settlement unit.
    pub fn push(&self, task: T) {
        let mut st = self.state.lock().expect("queue lock");
        st.tasks.push_back(task);
        self.cv.notify_one();
    }

    /// Offers a task against the capacity bound: `false` means the queue
    /// is full and the task was **not** admitted — the caller must shed
    /// it and settle its unit itself (typically via
    /// [`settle_one`](TaskQueue::settle_one), whose wakeup keeps sleepers
    /// from stranding). Unbounded queues admit everything.
    #[must_use]
    pub fn offer(&self, task: T) -> bool {
        let mut st = self.state.lock().expect("queue lock");
        if let Some(cap) = st.capacity {
            if st.tasks.len() >= cap {
                return false;
            }
        }
        st.tasks.push_back(task);
        self.cv.notify_one();
        true
    }

    /// Enqueues a task that only becomes eligible after `delay` more
    /// dispatches (bounded-backoff retries). `delay == 0` is
    /// [`push`](TaskQueue::push). The delay is logical — measured on the
    /// dispatch clock, not wall time — and collapses when the queue runs
    /// dry (see the fast-forward rule), so backoff reorders work but
    /// never wedges the pool.
    pub fn push_deferred(&self, task: T, delay: u64) {
        let mut st = self.state.lock().expect("queue lock");
        if delay == 0 {
            st.tasks.push_back(task);
        } else {
            let release = st.dispatched.saturating_add(delay);
            st.deferred.push((release, task));
        }
        self.cv.notify_one();
    }

    /// Retires one settlement unit; when the last unit settles, every
    /// sleeping worker is woken so it can observe termination.
    pub fn settle_one(&self) {
        let mut st = self.state.lock().expect("queue lock");
        st.outstanding -= 1;
        if st.outstanding == 0 {
            self.cv.notify_all();
        }
    }

    /// The next task, blocking while the queue is empty but settlements
    /// are outstanding; `None` once everything has settled.
    pub fn next(&self) -> Option<T> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            st.release_due();
            if let Some(task) = st.tasks.pop_front() {
                st.dispatched += 1;
                return Some(task);
            }
            if st.outstanding == 0 {
                return None;
            }
            if !st.deferred.is_empty() {
                st.fast_forward();
                continue;
            }
            st = self.cv.wait(st).expect("queue lock");
        }
    }

    /// [`TaskQueue::next`] with a `queue_wait` span per dequeue: its open
    /// half is back-dated to the pre-wait stamps and its close carries the
    /// clock delta spent inside the blocking call (the span id is minted
    /// from the pre-wait tick, so a fruitless final wait emits nothing and
    /// no span is left orphaned). Queue waits are scheduler-scoped — they
    /// feed metrics and wall-clock exports, never the canonical trace. A
    /// disabled recorder makes this identical to [`TaskQueue::next`].
    pub fn next_observed(&self, obs: &dyn Recorder) -> Option<T> {
        if !obs.enabled() {
            return self.next();
        }
        let start = obs.now();
        let wall_start = obs.wall();
        let task = self.next();
        if task.is_some() {
            let (end, wall_end) = (obs.now(), obs.wall());
            let id = mix(start, SpanKind::QueueWait.index() as u64);
            obs.span_at(SpanEvent::open_with_id(id, 0, SpanKind::QueueWait), start, wall_start);
            let close = SpanEvent::close_with_id(id, 0, SpanKind::QueueWait);
            let ticks = end.saturating_sub(start);
            obs.span_at(close.with(Attrs::Wait { ticks }), end, wall_end);
        }
        task
    }
}

/// One unit of executor work: attempt `attempt` of sample `sample` of
/// request `request` (the engine ladder runs a single request, 0).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Task {
    pub(crate) request: usize,
    pub(crate) sample: usize,
    pub(crate) attempt: usize,
}

/// What an attempt borrows from the request it belongs to.
pub(crate) struct Ladder<'a> {
    /// The request's outcome fold, locked only to read a budget and to
    /// apply an outcome — never across a draw.
    pub(crate) progress: &'a Mutex<RobustProgress>,
    /// The policy `progress` was built with (for the backoff delay).
    pub(crate) policy: RobustPolicy,
    /// Real backend or fault-injected.
    pub(crate) source: SampleSource,
    /// What a valid continuation of this request looks like.
    pub(crate) expect: &'a SampleExpectations,
    /// Span sink (a disabled recorder makes every emission free).
    pub(crate) obs: &'a dyn Recorder,
    /// Request content fingerprint the spans are scoped to.
    pub(crate) req: u64,
}

/// The hardware thread count, read once: on Linux each
/// [`std::thread::available_parallelism`] call re-reads cgroup files, and
/// the engine ladder asks on every forecast. At least 1.
pub fn parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// The executor's worker loop: drains `queue` over `workers` workers (at
/// least one), handing every task to `step`, and returns once every
/// settlement unit has settled. The calling thread is one of the workers,
/// so only `workers - 1` helpers are spawned, and `workers = 1` runs every
/// task inline on the caller.
pub(crate) fn drain<T: Send>(
    queue: &TaskQueue<T>,
    workers: usize,
    obs: &dyn Recorder,
    step: impl Fn(T) + Sync,
) {
    let work = || {
        while let Some(task) = queue.next_observed(obs) {
            step(task);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers.max(1) {
            scope.spawn(work);
        }
        work();
    });
}

/// Runs `f` on every index in `0..n` through [`drain`], over at most
/// [`parallelism`] workers with the caller among them, and returns the
/// results in index order. Each call is panic-isolated: a panicking
/// index yields `Err` with its payload, and the other indices still run.
pub(crate) fn fan_out<R: Send>(
    n: usize,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<std::thread::Result<R>> {
    let queue = TaskQueue::new((0..n).collect(), n);
    // Results travel back on a second queue, pushed by whichever worker
    // ran the index and read in any order once the drain returns.
    let done = TaskQueue::new(Vec::new(), 0);
    drain(&queue, n.min(parallelism()), &NoopRecorder, |i| {
        done.push((i, catch_unwind(AssertUnwindSafe(|| f(i)))));
        queue.settle_one();
    });
    let mut slots = Vec::new();
    slots.resize_with(n, || None);
    while let Some((i, out)) = done.next() {
        slots[i] = Some(out);
    }
    slots.into_iter().map(|slot| slot.expect("drain settles every index")).collect()
}

/// The executor's attempt step. Reads the sample's remaining budget, runs
/// [`execute_attempt`] inside an `attempt(sample, n)` span with a nested
/// `draw` span, closes the attempt span with the outcome's attributes
/// ([`AttemptOutcome::attrs`]), records its defects as point spans
/// ([`record_defects`]) and folds it into the request's progress. The
/// sample then either settles, or emits `retry` (plus `backoff` when the
/// policy delays it) and re-queues at [`RobustPolicy::backoff_delay`].
/// `on_outcome` sees every outcome before its defects are recorded — the
/// serve pool's circuit-breaker hook.
///
/// Span ids are pure functions of the request fingerprint and
/// coordinates, so the span multiset is schedule-invariant. The draw
/// guard closes on drop, which runs during the unwind inside
/// `execute_attempt`: a panicking draw still closes it.
pub(crate) fn run_attempt(
    queue: &TaskQueue<Task>,
    task: Task,
    ladder: &Ladder<'_>,
    draw: impl FnOnce(usize, Option<u64>) -> Result<(String, InferenceCost)>,
    decode: impl FnOnce(&str) -> Result<Vec<Vec<f64>>>,
    on_outcome: impl FnOnce(&AttemptOutcome),
) {
    let Task { sample, attempt, .. } = task;
    let (budget, vi) = {
        let progress = ladder.progress.lock().expect("request lock");
        (progress.remaining_budget(sample), virtual_index(progress.samples(), sample, attempt))
    };
    let (obs, req) = (ladder.obs, ladder.req);
    let (s, a) = (sample as u32, attempt as u32);
    let attempt_span = SpanGuard::open(obs, req, SpanKind::Attempt { sample: s, attempt: a });
    let traced_draw = |b| {
        let _draw = SpanGuard::open(obs, req, SpanKind::Draw { sample: s, attempt: a });
        draw(vi, b)
    };
    let outcome =
        execute_attempt(ladder.source, sample, attempt, ladder.expect, budget, traced_draw, decode);
    attempt_span.close(outcome.attrs());
    on_outcome(&outcome);
    record_defects(obs, req, s, a, &outcome);
    let disposition = ladder.progress.lock().expect("request lock").apply(sample, attempt, outcome);
    let AttemptDisposition::Retry { attempt } = disposition else {
        queue.settle_one();
        return;
    };
    let delay = ladder.policy.backoff_delay(attempt);
    if obs.enabled() {
        let retry = attempt as u32;
        point_span(obs, req, SpanKind::Retry { sample: s, attempt: retry }, Attrs::None);
        if delay > 0 {
            let attrs = Attrs::Backoff { delay: delay as u32 };
            point_span(obs, req, SpanKind::Backoff { sample: s, attempt: retry }, attrs);
        }
    }
    queue.push_deferred(Task { attempt, ..task }, delay);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn drains_fifo_then_terminates() {
        let queue = TaskQueue::new(vec![1, 2, 3], 3);
        assert_eq!(queue.next(), Some(1));
        queue.settle_one();
        assert_eq!(queue.next(), Some(2));
        queue.settle_one();
        assert_eq!(queue.next(), Some(3));
        queue.settle_one();
        assert_eq!(queue.next(), None);
        assert_eq!(queue.next(), None, "termination is sticky");
    }

    #[test]
    fn retry_extends_a_settlement_unit() {
        let queue = TaskQueue::new(vec!["first"], 1);
        assert_eq!(queue.next(), Some("first"));
        queue.push("retry");
        assert_eq!(queue.next(), Some("retry"));
        queue.settle_one();
        assert_eq!(queue.next(), None);
    }

    #[test]
    fn workers_drain_concurrently() {
        let queue = TaskQueue::new((0..64).collect(), 64);
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while let Some(task) = queue.next() {
                        if task % 8 == 0 {
                            queue.push(task + 1001);
                        } else {
                            done.fetch_add(1, Ordering::Relaxed);
                            queue.settle_one();
                        }
                    }
                });
            }
        });
        // 64 originals; the 8 multiples of 8 each re-queued one retry that
        // settled in their place.
        assert_eq!(done.load(Ordering::Relaxed), 64);
        assert_eq!(queue.next(), None);
    }

    #[test]
    fn offer_rejects_over_capacity_and_settlement_unblocks() {
        let queue = TaskQueue::bounded(vec![1], 2, Some(1));
        assert!(!queue.offer(2), "at capacity: the offer must be rejected");
        // The caller sheds and settles the rejected unit itself.
        queue.settle_one();
        assert_eq!(queue.next(), Some(1));
        queue.settle_one();
        assert_eq!(queue.next(), None, "shed settlement still counts toward termination");
        // Unbounded queues admit everything.
        let open = TaskQueue::new(vec![0], 3);
        assert!(open.offer(1));
        assert!(open.offer(2));
    }

    #[test]
    fn offer_capacity_frees_as_tasks_dispatch() {
        let queue = TaskQueue::bounded(vec![1, 2], 2, Some(2));
        assert!(!queue.offer(3));
        assert_eq!(queue.next(), Some(1));
        assert!(queue.offer(3), "dispatch frees a slot");
        queue.settle_one();
    }

    #[test]
    fn deferred_tasks_release_after_dispatches() {
        let queue = TaskQueue::new(vec!["a", "b", "c"], 4);
        assert_eq!(queue.next(), Some("a"));
        // Deferred by 2: "b" and "c" dispatch first.
        queue.push_deferred("retry", 2);
        assert_eq!(queue.next(), Some("b"));
        assert_eq!(queue.next(), Some("c"));
        assert_eq!(queue.next(), Some("retry"));
        for _ in 0..4 {
            queue.settle_one();
        }
        assert_eq!(queue.next(), None);
    }

    #[test]
    fn dry_queue_fast_forwards_deferred_work() {
        // Nothing else queued: a huge logical delay must not wedge.
        let queue = TaskQueue::new(vec!["only"], 1);
        assert_eq!(queue.next(), Some("only"));
        queue.push_deferred("retry", 1_000_000);
        assert_eq!(queue.next(), Some("retry"), "fast-forward promotes the earliest deferred");
        queue.settle_one();
        assert_eq!(queue.next(), None);
    }

    /// Drains `tasks` tasks over `workers` workers and returns the id of
    /// the thread that ran each task.
    fn drain_thread_ids(tasks: usize, workers: usize) -> Vec<std::thread::ThreadId> {
        let queue = TaskQueue::new((0..tasks).collect(), tasks);
        let ran = Mutex::new(Vec::new());
        drain(&queue, workers, &NoopRecorder, |_task: usize| {
            // Hold each task briefly so helpers get a chance to take some.
            std::thread::sleep(std::time::Duration::from_micros(200));
            ran.lock().unwrap().push(std::thread::current().id());
            queue.settle_one();
        });
        ran.into_inner().unwrap()
    }

    #[test]
    fn one_worker_drains_on_the_calling_thread() {
        let ran = drain_thread_ids(16, 1);
        assert_eq!(ran.len(), 16);
        let caller = std::thread::current().id();
        assert!(ran.iter().all(|&id| id == caller), "workers = 1 must spawn nothing");
        // Zero workers is clamped to the caller alone.
        assert!(drain_thread_ids(4, 0).iter().all(|&id| id == caller));
    }

    #[test]
    fn workers_cap_the_thread_count_and_the_caller_works() {
        let ran = drain_thread_ids(64, 4);
        assert_eq!(ran.len(), 64);
        let distinct: std::collections::HashSet<_> = ran.iter().collect();
        assert!(distinct.len() <= 4, "{} threads ran tasks", distinct.len());
        assert!(ran.contains(&std::thread::current().id()), "the caller is one of the workers");
    }

    #[test]
    fn parallelism_is_at_least_one_and_stable() {
        assert!(parallelism() >= 1);
        assert_eq!(parallelism(), parallelism());
    }

    #[test]
    fn fan_out_returns_results_in_index_order_and_isolates_panics() {
        let out = fan_out(9, |i| {
            assert!(i != 4, "index 4 panics");
            i * i
        });
        assert_eq!(out.len(), 9);
        for (i, r) in out.into_iter().enumerate() {
            match r {
                Ok(v) => assert_eq!(v, i * i),
                Err(_) => assert_eq!(i, 4, "only the panicking index fails"),
            }
        }
        assert!(fan_out(0, |i| i).is_empty());
    }

    #[test]
    fn zero_delay_defer_is_an_ordinary_push() {
        let queue = TaskQueue::new(vec![10], 2);
        queue.push_deferred(20, 0);
        assert_eq!(queue.next(), Some(10));
        assert_eq!(queue.next(), Some(20));
        queue.settle_one();
        queue.settle_one();
        assert_eq!(queue.next(), None);
    }
}
