//! # hls-par — a small std-only work-stealing thread pool
//!
//! Design-space exploration fans hundreds of independent synthesis runs
//! across cores (§1.2: "several designs for the same specification in a
//! reasonable amount of time"), and the hierarchical force-directed
//! scheduler fans independent dependence components of one large graph
//! across the same machinery. External executors (rayon, tokio) are
//! off-limits in the hermetic build, so this crate implements the
//! minimum that both need with `std::thread` + channels:
//!
//! * one deque per worker, submissions distributed round-robin;
//! * workers pop their own deque oldest-first, so each worker starts its
//!   share of a [`ThreadPool::map`] in input order and a caller streaming
//!   results in order (a batch endpoint) can emit the first ones while
//!   the rest run; a worker whose deque is empty steals oldest-first from
//!   the others, all under short critical sections. (Newest-first pays
//!   off when a job pushes its own children, which share its data; no
//!   job in this workspace submits to the pool it runs on.)
//! * a condvar parks idle workers; a pending-job counter closes the
//!   check-then-sleep race so no submission is ever missed;
//! * [`ThreadPool::map`] preserves input order regardless of which
//!   worker finishes first, so parallel results are byte-identical to a
//!   serial run.
//!
//! Job panics are caught per-job and re-raised on the caller of
//! [`ThreadPool::map`], never on a worker (a poisoned worker would hang
//! every later sweep). The pool itself never panics: its locks recover a
//! poisoned guard, and a pool whose workers could not be spawned runs its
//! jobs on the submitting thread.
//!
//! A caller that builds a pool per operation (a fresh explorer per
//! sweep) takes it with [`ThreadPool::recycled`]: dropping such a pool
//! parks its idle workers for the next pool of the same size instead of
//! joining them, so the operation pays neither the thread spawns nor a
//! join whose latency depends on when the host schedules the exiting
//! threads.
//!
//! This crate lived as `hls_core::par` until the scheduler itself needed
//! parallelism (`hls-core` depends on `hls-sched`, so the pool had to
//! move below both); `hls-core` re-exports it at the old path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    /// One deque per worker. Owner and thieves both pop the front.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs submitted but not yet started; guards the sleep race.
    pending: AtomicUsize,
    /// Pool shutdown flag, checked by parked workers.
    shutdown: AtomicBool,
    /// Parking lot for idle workers.
    lot: Mutex<()>,
    wake: Condvar,
}

/// A fixed-size work-stealing pool. Dropping it joins every worker,
/// unless it came from [`ThreadPool::recycled`].
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next: AtomicUsize,
    /// Park the idle workers on drop instead of joining them.
    recycle: bool,
}

/// The most idle pools [`ThreadPool::recycled`] keeps parked; a recycled
/// pool dropped while this many wait joins its workers instead.
const MAX_SPARE: usize = 8;

/// Idle pools parked by dropped recycled pools, oldest first.
static SPARE: Mutex<Vec<ThreadPool>> = Mutex::new(Vec::new());

/// Locks `m`, recovering the guard if a holder panicked. Use it for state
/// that each update under the lock leaves valid (one push, pop, insert or
/// assignment), so one panicking holder never fails every later caller.
/// The pool's own critical sections are all of that kind, and hls-core
/// and hls-serve lock through it too.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

/// Default worker count: the `HLS_EXPLORE_THREADS` environment variable
/// when set, otherwise the machine's available parallelism.
///
/// An invalid value (unparsable or zero) is not silently swallowed: a
/// one-line warning naming the variable and the fallback goes to stderr
/// and the fallback is used.
pub fn default_threads() -> usize {
    let fallback = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    match std::env::var("HLS_EXPLORE_THREADS") {
        Err(_) => fallback(),
        Ok(raw) => match parse_positive(&raw) {
            Ok(n) => n,
            Err(why) => {
                let fb = fallback();
                eprintln!(
                    "warning: ignoring HLS_EXPLORE_THREADS={raw:?} ({why}); \
                     falling back to {fb}"
                );
                fb
            }
        },
    }
}

/// The process-wide shared pool, spawned on first use with
/// [`default_threads`] workers and kept alive for the process lifetime.
///
/// Library code that wants opportunistic parallelism without threading a
/// pool through its API (e.g. the hierarchical scheduler fanning
/// independent dependence components) borrows this instead of paying a
/// pool spawn per call. Every user must keep results independent of the
/// worker count (ordered [`ThreadPool::map`] does this by construction).
pub fn shared() -> &'static ThreadPool {
    static POOL: std::sync::OnceLock<ThreadPool> = std::sync::OnceLock::new();
    POOL.get_or_init(|| ThreadPool::new(default_threads()))
}

/// Parses a strictly positive integer, explaining rejections so env-var
/// handlers can surface them instead of silently defaulting.
fn parse_positive(raw: &str) -> Result<usize, &'static str> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err("must be at least 1"),
        Ok(n) => Ok(n),
        Err(_) => Err("not a positive integer"),
    }
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self::spawn(threads.max(1), false)
    }

    /// A pool with `threads` workers (clamped to at least 1) that is
    /// reused rather than rebuilt: it is an idle pool of that size parked
    /// by an earlier drop when there is one, and a newly spawned pool
    /// otherwise. Dropping it parks it for the next call, unless eight
    /// pools are parked already or it still has queued jobs; then it
    /// joins its workers as a [`ThreadPool::new`] pool does. Parked
    /// workers live until the process exits, as those of [`shared`] do.
    /// Jobs see no difference: [`ThreadPool::map`] returns only after
    /// every one of its jobs has run, so a parked pool holds no work.
    pub fn recycled(threads: usize) -> Self {
        let threads = threads.max(1);
        let parked = {
            let mut spare = lock(&SPARE);
            spare
                .iter()
                .position(|p| p.threads() == threads)
                .map(|i| spare.remove(i))
        };
        parked.unwrap_or_else(|| Self::spawn(threads, true))
    }

    fn spawn(threads: usize, recycle: bool) -> Self {
        let shared = Arc::new(Shared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            lot: Mutex::new(()),
            wake: Condvar::new(),
        });
        // A worker that cannot be spawned leaves its deque to the others.
        let workers = (0..threads)
            .filter_map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hls-explore-{id}"))
                    .spawn(move || worker_loop(id, &shared))
                    .ok()
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            next: AtomicUsize::new(0),
            recycle,
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job. Jobs may run in any order on any worker, or on the
    /// calling thread, before this returns, when no worker could be
    /// spawned.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        if self.workers.is_empty() {
            let _ = catch_unwind(AssertUnwindSafe(job));
            return;
        }
        // Round-robin across worker deques; stealing rebalances skew.
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % self.shared.queues.len();
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        lock(&self.shared.queues[slot]).push_back(Box::new(job));
        // Hold the lot lock while notifying so a worker between its
        // pending-check and wait() cannot miss this wakeup.
        let _lot = lock(&self.shared.lot);
        self.shared.wake.notify_one();
    }

    /// Applies `f` to every item, in parallel, returning results in input
    /// order. Panics in `f` are re-raised here (first panicking index).
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let f = Arc::new(f);
        let (tx, rx) = mpsc::channel::<(usize, Result<R, Box<dyn std::any::Any + Send>>)>();
        for (idx, item) in items.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let tx = tx.clone();
            self.execute(move || {
                let out = catch_unwind(AssertUnwindSafe(|| f(idx, item)));
                // Release this job's closure clone *before* signaling:
                // once the caller has collected all n results, no worker
                // still holds `f` or anything it captured, so map()'s
                // return means the closure's captures are released too.
                drop(f);
                // A dropped receiver means the caller already panicked;
                // nothing useful to do with the result then.
                let _ = tx.send((idx, out));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
        for (idx, out) in rx.iter().take(n) {
            match out {
                Ok(r) => slots[idx] = Some(r),
                Err(p) => {
                    // Keep the lowest panicking index for determinism.
                    if panic.as_ref().is_none_or(|(i, _)| idx < *i) {
                        panic = Some((idx, p));
                    }
                }
            }
        }
        if let Some((_, payload)) = panic {
            resume_unwind(payload);
        }
        // Every job runs and sends once, so every slot is filled.
        slots.into_iter().flatten().collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        if self.recycle && self.shared.pending.load(Ordering::SeqCst) == 0 {
            let mut spare = lock(&SPARE);
            if spare.len() < MAX_SPARE {
                spare.push(ThreadPool {
                    shared: Arc::clone(&self.shared),
                    workers: std::mem::take(&mut self.workers),
                    next: AtomicUsize::new(self.next.load(Ordering::Relaxed)),
                    recycle: true,
                });
                return;
            }
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _lot = lock(&self.shared.lot);
            self.shared.wake.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(id: usize, shared: &Shared) {
    loop {
        if let Some(job) = find_job(id, shared) {
            shared.pending.fetch_sub(1, Ordering::SeqCst);
            // A panicking job must not kill the worker; ThreadPool::map
            // re-raises the payload on the caller instead.
            let _ = catch_unwind(AssertUnwindSafe(job));
            continue;
        }
        let guard = lock(&shared.lot);
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Re-check under the lot lock: execute() bumps `pending` before
        // taking the lock, so either we see the job or the notify waits
        // for our wait().
        if shared.pending.load(Ordering::SeqCst) > 0 {
            continue;
        }
        // A poisoned wake-up is a wake-up too: loop and look again.
        drop(shared.wake.wait(guard));
    }
}

fn find_job(id: usize, shared: &Shared) -> Option<Job> {
    // Own deque first, then the others; oldest job first everywhere.
    let n = shared.queues.len();
    (0..n).find_map(|off| lock(&shared.queues[(id + off) % n]).pop_front())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_order() {
        let pool = ThreadPool::new(4);
        let out = pool.map((0..100u64).collect(), |_, x| x * x);
        assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn map_runs_on_multiple_workers() {
        let pool = ThreadPool::new(3);
        assert_eq!(pool.threads(), 3);
        let out = pool.map((0..32).collect::<Vec<u32>>(), |i, x| {
            assert_eq!(i as u32, x);
            std::thread::current().name().map(str::to_owned)
        });
        assert!(out
            .iter()
            .all(|n| n.as_deref().unwrap_or("").starts_with("hls-explore-")));
    }

    #[test]
    fn empty_map_and_zero_threads() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1, "clamped to one worker");
        let out: Vec<u8> = pool.map(Vec::<u8>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn execute_drains_all_jobs() {
        let pool = ThreadPool::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..500 {
            let hits = Arc::clone(&hits);
            let tx = tx.clone();
            pool.execute(move || {
                hits.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..500 {
            rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 500);
    }

    /// A worker starts the jobs queued on its own deque oldest-first, so
    /// `map`'s items start in input order even when they were all queued
    /// while the worker was busy.
    #[test]
    fn own_deque_starts_queued_items_in_input_order() {
        let pool = ThreadPool::new(1);
        let (busy_tx, busy_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        pool.execute(move || {
            busy_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        busy_rx.recv().unwrap();
        let started = std::thread::scope(|s| {
            let mapper = s.spawn(|| {
                let order = Arc::new(Mutex::new(Vec::new()));
                let sink = Arc::clone(&order);
                pool.map((0..4u32).collect(), move |_, x| {
                    sink.lock().unwrap().push(x)
                });
                let started = order.lock().unwrap().clone();
                started
            });
            // Every item is queued before the worker is free to start one.
            while pool.shared.pending.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
            mapper.join().unwrap()
        });
        assert_eq!(started, [0, 1, 2, 3]);
    }

    #[test]
    fn panicking_job_propagates_to_map_caller_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.map((0..8).collect::<Vec<u32>>(), |_, x| {
                if x == 3 {
                    panic!("boom {x}");
                }
                x
            })
        }));
        assert!(r.is_err());
        // Workers survived the panic; the pool still maps.
        let out = pool.map(vec![1u32, 2, 3], |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn recycled_pools_are_parked_reused_and_capped() {
        // The only test in this binary that uses the spare list, so no
        // other test takes a parked pool or fills the list meanwhile.
        let first = ThreadPool::recycled(5);
        // Held so that no new pool can reuse the address of its state.
        let shared = Arc::clone(&first.shared);
        assert_eq!(first.map(vec![1u32, 2], |_, x| x + 1), vec![2, 3]);
        drop(first);
        let again = ThreadPool::recycled(5);
        assert!(Arc::ptr_eq(&again.shared, &shared), "the parked pool");
        assert_eq!(again.threads(), 5);
        // A job panic leaves the parked pool usable, as it does any pool.
        let r = catch_unwind(AssertUnwindSafe(|| {
            again.map(
                vec![0u32, 1],
                |_, x| if x == 1 { panic!("boom") } else { x },
            )
        }));
        assert!(r.is_err());
        drop(again);
        let third = ThreadPool::recycled(5);
        assert!(Arc::ptr_eq(&third.shared, &shared));
        assert_eq!(third.map(vec![7u32], |_, x| x), vec![7]);
        drop(third);

        drop(ThreadPool::new(6));
        assert!(
            lock(&SPARE).iter().all(|p| p.threads() != 6),
            "new() never parks"
        );

        let pools: Vec<_> = (0..MAX_SPARE + 2)
            .map(|_| ThreadPool::recycled(1))
            .collect();
        drop(pools);
        assert_eq!(
            lock(&SPARE).len(),
            MAX_SPARE,
            "the list fills, then pools join"
        );
    }

    /// A pool whose every worker spawn failed runs `map`'s jobs on the
    /// caller, in order, and still re-raises a job's panic there.
    #[test]
    fn a_pool_without_workers_maps_on_the_caller() {
        let pool = ThreadPool::spawn(0, false);
        assert_eq!(pool.threads(), 0);
        let caller = std::thread::current().id();
        let out = pool.map((0..5u32).collect(), move |i, x| {
            (i as u32 + x, std::thread::current().id() == caller)
        });
        assert_eq!(out, (0..5).map(|x| (2 * x, true)).collect::<Vec<_>>());
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.map(
                vec![0u32, 1],
                |_, x| if x == 1 { panic!("boom") } else { x },
            )
        }));
        assert!(r.is_err());
        assert_eq!(pool.map(vec![7u32], |_, x| x), vec![7]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn shared_pool_is_reused_and_maps() {
        let a = shared() as *const ThreadPool;
        let b = shared() as *const ThreadPool;
        assert_eq!(a, b, "one pool per process");
        let out = shared().map(vec![1u32, 2, 3], |_, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn invalid_explore_threads_env_warns_and_falls_back() {
        // `set_var` is safe in the 2021 edition; the only other reader of
        // this variable in the test binary asserts the same `>= 1` bound.
        std::env::set_var("HLS_EXPLORE_THREADS", "zero please");
        assert!(default_threads() >= 1, "fallback still applies");
        std::env::set_var("HLS_EXPLORE_THREADS", "3");
        assert_eq!(default_threads(), 3);
        std::env::remove_var("HLS_EXPLORE_THREADS");
    }

    #[test]
    fn parse_positive_accepts_only_positive_integers() {
        assert_eq!(parse_positive("4"), Ok(4));
        assert_eq!(parse_positive(" 7 "), Ok(7));
        assert_eq!(parse_positive("0"), Err("must be at least 1"));
        assert_eq!(parse_positive("banana"), Err("not a positive integer"));
        assert_eq!(parse_positive("-3"), Err("not a positive integer"));
        assert_eq!(parse_positive(""), Err("not a positive integer"));
    }
}
