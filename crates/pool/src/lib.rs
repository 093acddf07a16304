//! Persistent worker pool for sharding engine decode steps across cores.
//!
//! The serving engine advances every active sequence once per step. The
//! per-sequence work (one weight-stationary sweep over the model layers)
//! is independent across sequences, so a step over a batch of `n`
//! sequences is an embarrassingly parallel map of `n` tasks. This crate
//! provides the one primitive that map needs: a pool of persistent
//! threads that applies a closure to every slot of a slice with the
//! calling thread participating, then returns once every task has
//! finished.
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero steady-state allocation.** The decode hot loop is pinned
//!    allocation-free by counting-allocator tests, and worker-thread
//!    allocations count against the same global allocator. Dispatch
//!    therefore uses a mutex-guarded job slot plus condvars — not
//!    channels, whose `send` heap-allocates per message. Publishing a
//!    job writes an `Option<Job>` (two words) under the lock; claiming a
//!    task increments a counter. Nothing touches the heap after
//!    [`WorkerPool::new`], which returns only once every worker has
//!    started and parked, so no thread's start-up allocation can land
//!    in a later step.
//! 2. **Determinism.** The pool never splits or reorders a task: task
//!    `i` is exactly the closure applied to slot `i`, and callers shard
//!    work into contiguous ranges *before* dispatch. Which thread runs
//!    which task is scheduling-dependent, but since tasks write disjoint
//!    slots, results are bit-identical for any thread count.
//! 3. **No dependencies.** `std::thread` + `Mutex` + `Condvar` only.
//!
//! # Example: a sharded map
//!
//! ```
//! use lightmamba_pool::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! // Shard a flat output buffer: each task owns exactly one slot.
//! let mut squares = vec![0u64; 16];
//! pool.run_over(&mut squares, |i, out| *out = (i as u64) * (i as u64));
//! assert_eq!(squares[7], 49);
//! assert_eq!(squares[15], 225);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// The published unit of work: a type-erased `&dyn Fn(usize)` that every
/// pool thread applies to the task indices it claims.
///
/// The pointee lives on the caller's stack inside
/// [`WorkerPool::run_over`], which does not return until
/// `finished == tasks`, so the pointer is valid for exactly as long as
/// any thread can observe it (workers drop their reference before
/// incrementing `finished`).
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared-callable from any thread) and
// `run_over` keeps it alive until all claims complete, so sending the
// pointer to worker threads is sound.
unsafe impl Send for Job {}

/// Dispatch state guarded by [`Shared::state`].
struct PoolState {
    /// Bumped once per dispatch; workers use it to detect a new job.
    epoch: u64,
    /// The current job, present from publish until the dispatch completes.
    job: Option<Job>,
    /// Next unclaimed task index.
    next: usize,
    /// Total tasks in the current job.
    tasks: usize,
    /// Tasks whose closure call has returned (or panicked).
    finished: usize,
    /// First panic payload of the current job (cold path: only ever
    /// written when a task panics), re-raised on the caller after the
    /// barrier.
    panic: Option<Box<dyn Any + Send>>,
    /// Workers that have started and parked.
    parked: usize,
    /// Set by `Drop` to stop the worker threads.
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signalled when a new epoch is published or on shutdown.
    work_cv: Condvar,
    /// Signalled when a worker first parks and when a worker finishes
    /// the last task of an epoch.
    done_cv: Condvar,
}

impl Shared {
    /// Takes the state lock, recovering from poisoning (see
    /// [`WorkerPool`] for why that is sound).
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The claim loop every pool thread runs, the caller included: takes
    /// the next unclaimed index of the published job and runs it with the
    /// lock released, until none is left. A task's panic is caught here,
    /// on whichever thread claimed it, and the first payload is kept for
    /// the caller. Returns holding the lock taken after this thread's
    /// last task.
    fn claim_tasks<'a>(&'a self, mut st: MutexGuard<'a, PoolState>) -> MutexGuard<'a, PoolState> {
        while st.next < st.tasks {
            let i = st.next;
            st.next += 1;
            let job = st.job.expect("job present while tasks remain");
            drop(st);
            // SAFETY: `run_over` keeps the closure alive until
            // `finished == tasks`; this thread stops using it before the
            // increment below.
            let f = unsafe { &*job.0 };
            let result = catch_unwind(AssertUnwindSafe(|| f(i)));
            st = self.lock();
            if let Err(payload) = result {
                st.panic.get_or_insert(payload);
            }
            st.finished += 1;
        }
        st
    }
}

/// A fixed-size pool of persistent worker threads executing sharded
/// maps (see the [crate docs](crate) for the dispatch design).
///
/// `WorkerPool::new(n)` spawns `n - 1` workers; the thread calling
/// [`run_over`](Self::run_over) participates as the `n`-th, so `n = 1`
/// spawns nothing and the caller claims every task. Dropping the pool
/// stops and joins the workers.
///
/// # Panic safety
///
/// Every task call is wrapped in `catch_unwind` on whichever thread
/// claims it, so a panicking task never unwinds through the claim loop:
/// every other task still runs, the completion barrier always resolves
/// (no hang, no orphaned claim), and the thread — worker or caller —
/// carries on with its loop. After the barrier, `run_over` re-raises the
/// first panicking task's original payload on the caller, once. Workers
/// only exit when the pool is dropped, so none ever needs replacing.
///
/// Every lock acquisition recovers from [`PoisonError`] via
/// `into_inner`. This is sound because no code path panics while
/// holding the state lock: task closures run with the lock released
/// (the claim loop drops the guard before calling them), and the lock
/// regions themselves only touch plain counters whose invariants are
/// restored before the guard drops.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Serializes concurrent `run_over` calls (the job slot holds one
    /// job).
    run_lock: Mutex<()>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Creates a pool that executes maps on `threads` threads total
    /// (`threads - 1` spawned workers plus the caller). A request for
    /// zero threads is clamped to one. Returns once every worker has
    /// parked, so the threads' start-up allocations are all behind it.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                next: 0,
                tasks: 0,
                finished: 0,
                panic: None,
                parked: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lm-pool-{k}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        let mut st = shared.lock();
        while st.parked < threads - 1 {
            st = shared
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(st);
        WorkerPool {
            shared,
            workers,
            threads,
            run_lock: Mutex::new(()),
        }
    }

    /// Number of threads that execute each map, including the caller.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(i, &mut items[i])` for every element of `items` across
    /// the pool and returns once all calls have completed, each task
    /// receiving exclusive mutable access to its own slot — the shape
    /// every sharded decode step uses (one workspace per shard, written
    /// by exactly one thread). The calling thread claims tasks alongside
    /// the workers; which thread runs which index is unspecified.
    ///
    /// Not reentrant: calling `run_over` from inside `f` deadlocks.
    ///
    /// ```
    /// use lightmamba_pool::WorkerPool;
    /// let pool = WorkerPool::new(2);
    /// let mut sums = [0u32; 3];
    /// pool.run_over(&mut sums, |i, s| *s = (0..=i as u32).sum());
    /// assert_eq!(sums, [0, 1, 3]);
    /// ```
    ///
    /// # Panics
    ///
    /// If any task panics, the panic is caught, every other task still
    /// runs, and after the completion barrier the first panicking task's
    /// original payload is re-raised here with [`resume_unwind`]. Slots
    /// of surviving tasks are fully written; a panicked task's slot may
    /// hold a torn partial write. The pool itself stays usable.
    pub fn run_over<W: Send>(&self, items: &mut [W], f: impl Fn(usize, &mut W) + Sync) {
        let tasks = items.len();
        if tasks == 0 {
            return;
        }
        let base = SendPtr(items.as_mut_ptr());
        let task = move |i: usize| {
            debug_assert!(i < tasks);
            // SAFETY: the claim counter hands out each index in
            // 0..tasks exactly once, so this is the only reference to
            // `items[i]`, and the slice outlives the call (the caller's
            // borrow is held across this blocking function).
            let slot = unsafe { &mut *base.get().add(i) };
            f(i, slot);
        };
        let _serial = self.run_lock.lock().unwrap_or_else(PoisonError::into_inner);
        let task: &(dyn Fn(usize) + Sync) = &task;
        // SAFETY: the job pointer escapes to worker threads, but this
        // function blocks below until `finished == tasks`, and workers
        // drop their borrow of the closure before incrementing
        // `finished`, so the closure outlives every dereference.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        {
            let mut st = self.shared.lock();
            st.epoch = st.epoch.wrapping_add(1);
            st.job = Some(Job(task));
            st.next = 0;
            st.tasks = tasks;
            st.finished = 0;
        }
        self.shared.work_cv.notify_all();

        let mut st = self.shared.claim_tasks(self.shared.lock());
        while st.finished < st.tasks {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        let panic = st.panic.take();
        drop(st);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Pointer wrapper so a `*mut W` can cross the closure's `Sync` bound;
/// exclusivity is guaranteed by the claim counter, not the type.
struct SendPtr<W>(*mut W);

impl<W> SendPtr<W> {
    /// Accessor (rather than direct field use) so closures capture the
    /// whole wrapper — edition-2021 disjoint capture would otherwise
    /// grab the bare `*mut W`, which is not `Sync`.
    fn get(&self) -> *mut W {
        self.0
    }
}

// SAFETY: see `run_over` — each task dereferences a distinct slot.
unsafe impl<W: Send> Send for SendPtr<W> {}
unsafe impl<W: Send> Sync for SendPtr<W> {}

/// A worker: reports itself parked, then waits for a new epoch, claims
/// tasks until none is left, wakes the caller if it finished the last
/// one, and waits again — until shutdown.
fn worker_loop(shared: &Shared) {
    let mut st = shared.lock();
    st.parked += 1;
    shared.done_cv.notify_all();
    let mut last_epoch = st.epoch;
    loop {
        while st.epoch == last_epoch && !st.shutdown {
            st = shared
                .work_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if st.shutdown {
            return;
        }
        last_epoch = st.epoch;
        if st.next < st.tasks {
            st = shared.claim_tasks(st);
            if st.finished == st.tasks {
                shared.done_cv.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn runs_every_task_exactly_once() {
        for threads in 1..=4 {
            let pool = WorkerPool::new(threads);
            let mut hits = vec![0usize; 64];
            for _ in 0..10 {
                pool.run_over(&mut hits, |_, h| *h += 1);
            }
            assert!(hits.iter().all(|&h| h == 10), "{threads} threads: {hits:?}");
        }
    }

    #[test]
    fn run_over_gives_exclusive_slots() {
        let pool = WorkerPool::new(3);
        let mut out = vec![0usize; 100];
        pool.run_over(&mut out, |i, v| *v = i * i);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        let mut out = [0u8; 5];
        pool.run_over(&mut out, |i, v| {
            assert_eq!(std::thread::current().id(), caller);
            *v = i as u8 + 1;
        });
        assert_eq!(out, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn empty_map_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.run_over(&mut [0u8; 0], |_, _| panic!("must not be called"));
    }

    /// A task panics on a pool of `threads`: every other slot is still
    /// written and the caller gets the task's original payload back.
    /// Afterwards every thread still takes part in a dispatch: a job
    /// whose tasks all wait on one `Barrier(threads)` completes only if
    /// `threads` threads run it at once.
    fn panic_is_contained_on(threads: usize) {
        let pool = WorkerPool::new(threads);
        let mut out = [0u32; 8];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_over(&mut out, |i, v| {
                if i == 3 {
                    panic!("task 3 fails");
                }
                *v = i as u32 + 10;
            });
        }));
        let payload = caught.expect_err("run_over re-raises the task panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 3 fails"));
        for (i, v) in out.iter().enumerate().filter(|&(i, _)| i != 3) {
            assert_eq!(*v, i as u32 + 10, "surviving slot {i} written");
        }

        let barrier = Barrier::new(threads);
        let mut met = vec![false; threads];
        pool.run_over(&mut met, |_, m| {
            barrier.wait();
            *m = true;
        });
        assert!(met.iter().all(|&m| m), "all {threads} threads took part");
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        panic_is_contained_on(2);
        panic_is_contained_on(4);
    }

    #[test]
    fn inline_path_contains_panics_too() {
        panic_is_contained_on(1);
    }
}
