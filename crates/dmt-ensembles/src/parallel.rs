//! Persistent worker pool for ensemble member training.
//!
//! # Why ensemble members only
//!
//! The ensembles of `dmt-ensembles` train their members independently per
//! batch (each member owns its tree, detectors and RNG stream), so member
//! updates fan out with nothing shared and merge in member order. The
//! Dynamic Model Tree itself learns and predicts on the calling thread: its
//! trees keep very few splits, and on two cores fanning a batch out over
//! its subtrees measured no faster than the serial descent (and slower on
//! the deepest trees), so it has no thread to own.
//!
//! # Why a persistent, hand-rolled pool
//!
//! The build environment has no crates-registry access, so `rayon` is not an
//! option (see `vendor/README.md`). Threads spawned per dispatch would cost
//! more than a small batch's member work, so [`WorkerPool`] keeps
//! **long-lived threads** created once and reused across batches:
//!
//! * [`WorkerPool::run`] fans a `Vec` of work items out over the pool's
//!   resident threads **plus the dispatching thread itself** — the caller
//!   always participates, so on a machine where the background threads are
//!   never scheduled (a single core, an oversubscribed box) a dispatch
//!   degrades to the serial loop plus one mutex hand-shake instead of a
//!   thread spawn per batch.
//! * Results come back **indexed by item position** — the caller's merge
//!   order is the item order, never the completion order, which is what keeps
//!   pooled member training bit-identical to the serial member loop.
//! * A panic inside a work item is caught on the worker, the remaining queue
//!   is drained, and the payload is re-raised on the **dispatching** thread
//!   before [`WorkerPool::run`] returns — pool threads survive panicking
//!   jobs and keep serving later dispatches.
//! * [`Drop`] signals shutdown and **joins every thread**: no thread outlives
//!   the pool (pinned by the `Weak`-probe test below).
//!
//! # The one `unsafe` hand-off
//!
//! A persistent thread cannot hold the non-`'static` borrows of a batch
//! through the safe `std::thread::spawn` API, so the dispatch erases the job
//! closure's lifetime behind a raw pointer (the private `Job` slot). The
//! soundness argument
//! is confined to this module and is simple: [`WorkerPool::run`] publishes
//! the job, participates, then **blocks until every worker has left the job's
//! closure** (the `running` count under the pool mutex) and the job is
//! retired before returning — so the erased closure, the item queue and the
//! result slots on the caller's stack strictly outlive every dereference.
//! The rest of the workspace keeps `deny(unsafe_code)` (`dmt-core` forbids
//! it outright); the two `allow`s here carry the safety comments.
//!
//! # Sharing
//!
//! The pool is cheap to share: each ensemble lazily creates one
//! `Arc<WorkerPool>`, and its `set_worker_pool` hook lets several models
//! dispatch onto the **same** resident threads instead of spawning a pool
//! each. Dispatches from multiple owners
//! serialise on the pool's job slot; a dispatch issued from *inside* a pool
//! task (nested parallelism) is detected and runs serially inline, so
//! sharing can never deadlock the pool.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
#[cfg(test)]
use std::sync::Weak;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use dmt_core::lockrank::{LockRank, RankToken};

/// Hard ceiling on the resolved worker count: a configuration or environment
/// value beyond this is clamped, so `DMT_PARALLELISM=100000` can never ask
/// the pool to spawn an absurd number of threads.
pub const MAX_WORKERS: usize = 64;

/// How an ensemble trains its members (the `parallelism` field of the
/// ensemble configs).
///
/// The parallel mode is **bit-identical** to the serial mode: members train
/// independently and their results merge in member order (pinned by
/// `tests/integration_parallel.rs` at batch sizes 1/7/64 with workers
/// 1/2/4). Only wall-clock time differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// The serial member loop (the default).
    #[default]
    Serial,
    /// Up to `n` worker threads over independent ensemble members.
    /// `Threads(0)` and `Threads(1)` behave exactly like
    /// [`Parallelism::Serial`]: no pool is created and no dispatch machinery
    /// runs, so a "parallel" configuration with zero concurrency pays zero
    /// dispatch overhead.
    Threads(usize),
}

impl Parallelism {
    /// The number of worker threads this setting resolves to (`Serial` → 1;
    /// `Threads(n)` is clamped to [`MAX_WORKERS`]).
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.clamp(1, MAX_WORKERS),
        }
    }

    /// Read the `DMT_PARALLELISM` environment variable: unset, empty, `0`,
    /// `1` or `serial` mean [`Parallelism::Serial`]; an integer `n ≥ 2` means
    /// [`Parallelism::Threads`]`(n)`. Unparsable values fall back to serial;
    /// huge values are clamped to [`MAX_WORKERS`] when the setting is
    /// resolved ([`Parallelism::workers`]).
    ///
    /// The ensemble config defaults go through this hook so CI
    /// can run the whole test suite under `Threads(n)` without patching
    /// every test; explicit `parallelism:` settings are unaffected.
    pub fn from_env() -> Self {
        Self::parse(std::env::var("DMT_PARALLELISM").ok().as_deref())
    }

    /// The pure parser behind [`Parallelism::from_env`] (`None` = variable
    /// unset). Exposed for the edge-case tests in
    /// `tests/integration_parallel.rs`.
    pub fn parse(value: Option<&str>) -> Self {
        match value {
            Some(value) => match value.trim() {
                "" | "serial" | "Serial" => Parallelism::Serial,
                n => match n.parse::<usize>() {
                    Ok(n) if n >= 2 => Parallelism::Threads(n),
                    _ => Parallelism::Serial,
                },
            },
            None => Parallelism::Serial,
        }
    }
}

/// A type-erased, lifetime-erased job: a raw pointer to the dispatch's drain
/// closure (which lives on the dispatching thread's stack for the whole
/// dispatch) plus the generation that identifies it.
#[derive(Clone, Copy)]
struct Job {
    /// Dispatch generation; a worker runs each generation at most once.
    generation: u64,
    /// Pointer to the dispatch's drain closure. Valid until the dispatch
    /// retires the job and `running` returns to zero — `WorkerPool::run`
    /// does not return before both.
    task: *const (dyn Fn() + Sync),
}

// SAFETY: the pointee is a `Sync` closure (shared-reference calls from many
// threads are fine) and `WorkerPool::run` keeps it alive until every worker
// has left it — see the module docs' hand-off argument.
#[allow(unsafe_code)]
unsafe impl Send for Job {}

/// State shared between the pool handle and its resident threads, all guarded
/// by one mutex (the pool serialises only on job hand-off, never inside a
/// job: work items are claimed from the dispatch-local queue).
struct PoolState {
    /// The currently published job, if any. Retired (set back to `None`) by
    /// the dispatching thread before `run` returns.
    job: Option<Job>,
    /// Generation counter; bumped once per dispatch.
    generation: u64,
    /// Threads currently inside a job closure, counted **per generation**
    /// (`(generation, count)`, entry removed at zero): a dispatcher only
    /// waits for its own generation to drain, so concurrent dispatchers
    /// sharing the pool never block on each other's unrelated work. The
    /// vector length is bounded by the number of concurrent dispatches.
    running: Vec<(u64, usize)>,
    /// Set once by `Drop`; resident threads exit when they see it.
    shutdown: bool,
}

impl PoolState {
    /// Note a thread entering the closure of `generation`.
    fn enter(&mut self, generation: u64) {
        if let Some(entry) = self.running.iter_mut().find(|(g, _)| *g == generation) {
            entry.1 += 1;
        } else {
            self.running.push((generation, 1));
        }
    }

    /// Note a thread leaving the closure of `generation`; returns `true`
    /// when it was the last one inside that generation.
    fn leave(&mut self, generation: u64) -> bool {
        let i = self
            .running
            .iter()
            .position(|(g, _)| *g == generation)
            .expect("leave() without a matching enter()");
        self.running[i].1 -= 1;
        if self.running[i].1 == 0 {
            self.running.swap_remove(i);
            true
        } else {
            false
        }
    }

    /// Whether any thread is still inside the closure of `generation`.
    fn is_running(&self, generation: u64) -> bool {
        self.running.iter().any(|(g, _)| *g == generation)
    }
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a new job is published or shutdown begins.
    work: Condvar,
    /// Signalled when a generation's running count drops to zero.
    done: Condvar,
}

thread_local! {
    /// Whether the current thread is executing inside a pool job. A nested
    /// [`WorkerPool::run`] from inside a job would deadlock (the inner
    /// dispatch would wait for a `running` count that includes itself), so
    /// nested dispatches run serially inline instead.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// A pool of long-lived worker threads for fan-out/join workloads whose
/// results must merge deterministically (see the module docs).
///
/// `WorkerPool::new(n)` provides `n` *executors*: `n - 1` resident background
/// threads plus the thread that calls [`WorkerPool::run`] — the dispatcher
/// always works too. The pool is `Send + Sync`; wrap it in an `Arc` to share
/// one set of resident threads between several models.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Total executor count, including the dispatching thread.
    executors: usize,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("executors", &self.executors)
            .field("background_threads", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Create a pool providing `executors` total executors (clamped to
    /// `1..=`[`MAX_WORKERS`]): `executors - 1` resident threads are spawned
    /// now; the thread calling [`WorkerPool::run`] is the remaining one. A
    /// pool of one executor spawns no threads at all and runs every dispatch
    /// serially.
    pub fn new(executors: usize) -> Self {
        let executors = executors.clamp(1, MAX_WORKERS);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                generation: 0,
                running: Vec::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..executors.saturating_sub(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dmt-pool-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker thread")
            })
            .collect();
        Self {
            shared,
            executors,
            handles,
        }
    }

    /// Total executor count, including the dispatching thread.
    pub fn executors(&self) -> usize {
        self.executors
    }

    /// Number of resident background threads (`executors - 1`).
    pub fn background_threads(&self) -> usize {
        self.handles.len()
    }

    /// Run `f` over every item of `items` on the pool's executors and return
    /// the results **in item order**.
    ///
    /// * Items are claimed from a shared queue, so an uneven workload does
    ///   not idle executors; results are written into their item's slot, so
    ///   the output order is deterministic regardless of completion order.
    /// * One executor (or fewer than two items, or a dispatch nested inside
    ///   another pool job) short-circuits to a serial in-order loop on the
    ///   calling thread — no queue, no hand-shake.
    /// * A panicking item propagates its panic to the caller before `run`
    ///   returns (remaining queued items are skipped); the pool's threads
    ///   survive and serve later dispatches.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if self.executors <= 1 || n <= 1 || IN_POOL_JOB.with(|c| c.get()) {
            return run_serial(items, f);
        }

        // Dispatch-local state, alive on this stack frame for the whole
        // dispatch. The drain closure below is what worker threads execute.
        let queue: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
        let panic_payload: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let record_panic = |payload: Box<dyn Any + Send>| {
            // First panic wins; a poisoned slot means one is already stored.
            if let Ok(mut slot) = panic_payload.lock() {
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        };
        let drain = || {
            let entered = IN_POOL_JOB.with(|c| c.replace(true));
            // The whole loop runs under catch_unwind: the per-item guard
            // below catches `f`, but a queued item's own `Drop` can panic
            // inside `clear()`/lock poisoning paths, and the lifetime-erased
            // hand-off requires that this closure NEVER unwinds out of a
            // worker (the worker must reach `leave()`) or out of the
            // dispatcher (`run` must retire-and-wait before its stack dies).
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                loop {
                    // The lock is released before `f` runs, so executors work
                    // concurrently; only the claim and the store serialise.
                    let Some((i, item)) = queue.lock().expect("pool queue").pop() else {
                        break;
                    };
                    match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                        Ok(result) => {
                            results.lock().expect("pool results")[i] = Some(result);
                        }
                        Err(payload) => {
                            // First panic wins; drop the remaining work so
                            // every executor (and the dispatcher) finishes
                            // quickly.
                            record_panic(payload);
                            queue.lock().expect("pool queue").clear();
                            break;
                        }
                    }
                }
            }));
            if let Err(payload) = outcome {
                record_panic(payload);
            }
            IN_POOL_JOB.with(|c| c.set(entered));
        };

        // Erase the drain closure's lifetime and publish it: this function
        // blocks below until the job is retired and `running == 0`, so
        // `queue`/`results`/`panic_payload`/`f` — everything the pointee
        // borrows — outlives every dereference (the module docs' hand-off
        // argument).
        let task = erase_job_lifetime(&drain);
        let my_generation;
        {
            let _rank = RankToken::acquire(LockRank::PoolJobSlot);
            let mut state = self.shared.state.lock().expect("pool state");
            state.generation += 1;
            my_generation = state.generation;
            state.job = Some(Job {
                generation: my_generation,
                task,
            });
            self.shared.work.notify_all();
        }

        // The retire-and-wait is an RAII guard, not straight-line code: even
        // if this frame somehow unwinds mid-dispatch, the guard's Drop still
        // retires the job and blocks until no worker is inside the closure —
        // the unsafe hand-off's contract must hold on every exit path.
        let guard = RetireGuard {
            shared: &self.shared,
            generation: my_generation,
        };

        // The dispatcher participates: on a box where the background threads
        // never get scheduled, this alone drains the queue.
        drain();
        drop(guard);

        if let Some(payload) = panic_payload
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
        {
            std::panic::resume_unwind(payload);
        }
        results
            .into_inner()
            .expect("pool results")
            .into_iter()
            .map(|slot| slot.expect("pool dispatch retired with an unfinished item"))
            .collect()
    }

    /// Strong-count probe for the shutdown test: the pool handle holds one
    /// reference and each resident thread holds one more, so after `Drop`
    /// (which joins every thread) a previously downgraded `Weak` observes
    /// zero strong references.
    #[cfg(test)]
    fn weak_shared(&self) -> Weak<PoolShared> {
        Arc::downgrade(&self.shared)
    }
}

/// Dispatch-scoped guard upholding the lifetime-erasure contract on every
/// exit path of [`WorkerPool::run`]: its `Drop` retires the published job
/// (late-waking workers must not pick it up) and waits until every worker
/// has left *this dispatch's* closure. The running count is per generation,
/// so concurrent dispatchers sharing the pool never block on each other's
/// unrelated jobs.
struct RetireGuard<'p> {
    shared: &'p PoolShared,
    generation: u64,
}

impl Drop for RetireGuard<'_> {
    fn drop(&mut self) {
        let _rank = RankToken::acquire(LockRank::PoolJobSlot);
        let mut state = self.shared.state.lock().expect("pool state");
        if state
            .job
            .is_some_and(|job| job.generation == self.generation)
        {
            state.job = None;
        }
        while state.is_running(self.generation) {
            state = self.shared.done.wait(state).expect("pool state");
        }
    }
}

impl Drop for WorkerPool {
    /// Signal shutdown and join every resident thread: after `drop(pool)`
    /// returns, no pool thread is running (or will ever run) anywhere.
    fn drop(&mut self) {
        {
            let _rank = RankToken::acquire(LockRank::PoolJobSlot);
            let mut state = self.shared.state.lock().expect("pool state");
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            // A resident thread can only panic on a poisoned pool mutex,
            // which the drain protocol never produces; surface it if it
            // somehow happens, but do not double-panic while unwinding.
            if handle.join().is_err() && !std::thread::panicking() {
                panic!("a pool worker thread panicked outside a job");
            }
        }
    }
}

/// Erase the lifetime of a dispatch's drain closure so it can be published
/// through the (lifetime-free) [`Job`] slot.
///
/// SAFETY contract for callers: the pointee (and everything it borrows) must
/// stay alive until no thread can dereference the returned pointer any more.
/// [`WorkerPool::run`] upholds this by retiring the job and waiting for its
/// generation's running count to reach zero before its stack frame — which
/// owns the closure — unwinds.
#[allow(unsafe_code)]
fn erase_job_lifetime<'a>(task: &'a (dyn Fn() + Sync + 'a)) -> *const (dyn Fn() + Sync + 'static) {
    // SAFETY: fat-pointer layout is identical across lifetimes; validity of
    // the dereference is the caller contract above.
    unsafe {
        std::mem::transmute::<&'a (dyn Fn() + Sync + 'a), &'static (dyn Fn() + Sync + 'static)>(
            task,
        )
    }
}

/// Resident thread body: sleep until a job is published (or shutdown), run
/// each published generation exactly once, repeat.
fn worker_loop(shared: Arc<PoolShared>) {
    let mut last_generation = 0u64;
    let mut rank = RankToken::acquire(LockRank::PoolJobSlot);
    let mut state = shared.state.lock().expect("pool state");
    loop {
        if let Some(job) = state.job {
            if job.generation != last_generation {
                // Job-slot generation invariant: the dispatch counter only
                // ever increments under the state lock, so a resident thread
                // must observe published generations strictly increasing. A
                // violation means the slot was overwritten with a stale job
                // — exactly the torn hand-off the retire protocol exists to
                // prevent.
                debug_assert!(
                    job.generation > last_generation,
                    "pool job slot regressed: saw generation {} after {}",
                    job.generation,
                    last_generation
                );
                last_generation = job.generation;
                state.enter(job.generation);
                drop(state);
                drop(rank);
                // SAFETY: the dispatching `run` call does not return before
                // this thread leaves the generation below, so the closure
                // and everything it borrows are still alive.
                #[allow(unsafe_code)]
                let task = unsafe { &*job.task };
                // The drain closure catches its own panics, but `leave()`
                // below MUST run even if that ever fails — a dead worker
                // that never left its generation would deadlock the
                // dispatcher — so guard the call here too (the payload, if
                // any, was already recorded by the closure itself).
                let _ = catch_unwind(AssertUnwindSafe(task));
                rank = RankToken::acquire(LockRank::PoolJobSlot);
                state = shared.state.lock().expect("pool state");
                if state.leave(job.generation) {
                    shared.done.notify_all();
                }
                continue;
            }
        }
        if state.shutdown {
            break;
        }
        state = shared.work.wait(state).expect("pool state");
    }
    drop(state);
    drop(rank);
}

/// The serial fallback shared by pool-less callers and one-executor pools:
/// run `f` over the items in order on the calling thread. Panics propagate
/// directly.
pub fn run_serial<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    F: Fn(usize, T) -> R,
{
    items
        .into_iter()
        .enumerate()
        .map(|(i, item)| f(i, item))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_parallelism_resolves_to_one_worker() {
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert_eq!(Parallelism::Threads(1).workers(), 1);
        assert_eq!(Parallelism::Threads(4).workers(), 4);
        assert_eq!(Parallelism::Threads(usize::MAX).workers(), MAX_WORKERS);
        assert_eq!(Parallelism::default(), Parallelism::Serial);
    }

    #[test]
    fn results_come_back_in_item_order() {
        for executors in [1, 2, 4, 16] {
            let pool = WorkerPool::new(executors);
            let items: Vec<usize> = (0..23).collect();
            let out = pool.run(items, |i, item| {
                assert_eq!(i, item);
                item * 10
            });
            assert_eq!(out, (0..23).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_pool_is_reusable_across_many_dispatches() {
        let pool = WorkerPool::new(4);
        for round in 0..50 {
            let out = pool.run((0..17usize).collect(), move |_, item| item + round);
            assert_eq!(out, (0..17).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_item_list_is_a_noop() {
        let pool = WorkerPool::new(4);
        let out: Vec<usize> = pool.run(Vec::<usize>::new(), |_, item| item);
        assert!(out.is_empty());
    }

    #[test]
    fn oversubscription_more_executors_than_items() {
        // 16 executors, 2 items: every item runs exactly once.
        let pool = WorkerPool::new(16);
        let runs = AtomicUsize::new(0);
        let out = pool.run(vec![7usize, 9], |_, item| {
            runs.fetch_add(1, Ordering::SeqCst);
            item + 1
        });
        assert_eq!(out, vec![8, 10]);
        assert_eq!(runs.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn oversubscription_more_items_than_executors() {
        // 2 executors drain 64 items; every item is processed exactly once.
        let pool = WorkerPool::new(2);
        let runs = AtomicUsize::new(0);
        let out = pool.run((0..64usize).collect(), |_, item| {
            runs.fetch_add(1, Ordering::SeqCst);
            item
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        assert_eq!(runs.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn tasks_mutate_disjoint_borrowed_slices() {
        // The intended usage shape: items carry disjoint `&mut` borrows
        // into caller-owned state, exactly like the ensembles' members.
        let pool = WorkerPool::new(2);
        let mut buffer: Vec<usize> = vec![0; 10];
        let (a, b) = buffer.split_at_mut(5);
        pool.run(vec![(0usize, a), (5usize, b)], |_, (offset, chunk)| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = offset + k;
            }
        });
        assert_eq!(buffer, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panics_propagate_and_the_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![1usize, 2, 3, 4], |_, item| {
                if item == 3 {
                    panic!("worker task exploded");
                }
                item
            })
        }));
        let payload = result.expect_err("the dispatch must re-raise the panic");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(message.contains("worker task exploded"), "{message}");
        // The pool keeps serving dispatches after a panicking job.
        let out = pool.run(vec![10usize, 20, 30], |_, item| item * 2);
        assert_eq!(out, vec![20, 40, 60]);
    }

    #[test]
    #[should_panic(expected = "serial task exploded")]
    fn serial_fallback_panics_propagate_too() {
        let pool = WorkerPool::new(1);
        pool.run(vec![1usize], |_, _| -> usize {
            panic!("serial task exploded");
        });
    }

    #[test]
    fn nested_dispatch_from_inside_a_job_runs_serially() {
        // A job item that dispatches onto the same pool must not deadlock:
        // the nested dispatch is detected and runs inline.
        let pool = Arc::new(WorkerPool::new(3));
        let inner = Arc::clone(&pool);
        let out = pool.run((0..6usize).collect(), move |_, item| {
            let nested: Vec<usize> = inner.run((0..3usize).collect(), |_, j| j + item);
            nested.iter().sum::<usize>()
        });
        assert_eq!(out, (0..6).map(|i| 3 * i + 3).collect::<Vec<_>>());
    }

    #[test]
    fn drop_joins_every_resident_thread() {
        // Each resident thread holds a strong reference to the shared state;
        // Drop joins them, so the weak probe must stop upgrading the moment
        // drop() returns — no thread outlives the pool.
        let pool = WorkerPool::new(4);
        assert_eq!(pool.background_threads(), 3);
        let probe = pool.weak_shared();
        let out = pool.run((0..8usize).collect(), |_, item| item);
        assert_eq!(out.len(), 8);
        assert!(probe.upgrade().is_some());
        drop(pool);
        assert!(
            probe.upgrade().is_none(),
            "a pool thread survived Drop (shared state still referenced)"
        );
    }

    #[test]
    fn one_executor_pool_spawns_no_threads() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.background_threads(), 0);
        assert_eq!(pool.executors(), 1);
        let probe = pool.weak_shared();
        let out = pool.run(vec![1usize, 2, 3], |_, item| item * 3);
        assert_eq!(out, vec![3, 6, 9]);
        drop(pool);
        assert!(probe.upgrade().is_none());
    }

    #[test]
    fn executor_count_is_clamped() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.executors(), 1);
        let pool = WorkerPool::new(MAX_WORKERS + 50);
        assert_eq!(pool.executors(), MAX_WORKERS);
    }

    #[test]
    fn env_parser_covers_serial_thread_and_garbage_values() {
        // The parser is tested directly (mutating the process environment
        // would race against concurrently running tests whose config
        // defaults read it).
        let cases = [
            (None, Parallelism::Serial),
            (Some(""), Parallelism::Serial),
            (Some("   "), Parallelism::Serial),
            (Some("serial"), Parallelism::Serial),
            (Some("Serial"), Parallelism::Serial),
            (Some("0"), Parallelism::Serial),
            (Some("1"), Parallelism::Serial),
            (Some("2"), Parallelism::Threads(2)),
            (Some(" 4 "), Parallelism::Threads(4)),
            (Some("garbage"), Parallelism::Serial),
            (Some("-3"), Parallelism::Serial),
            (Some("2.5"), Parallelism::Serial),
            // Larger than usize::MAX: unparsable, falls back to serial.
            (
                Some("340282366920938463463374607431768211456"),
                Parallelism::Serial,
            ),
            // Huge but parsable: accepted, clamped at resolution time.
            (Some("100000"), Parallelism::Threads(100_000)),
        ];
        for (value, expected) in cases {
            assert_eq!(Parallelism::parse(value), expected, "value {value:?}");
        }
        assert_eq!(Parallelism::Threads(100_000).workers(), MAX_WORKERS);
    }
}
