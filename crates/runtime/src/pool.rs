//! The user-facing [`Runtime`]: a handle to a pool of worker threads providing Cilk-style
//! fork-join primitives (`join`, `parallel_for`, `for_each`).

use crate::job::StackJob;
use crate::registry::{join_handles, Registry, WorkerThread};
use std::sync::{Arc, OnceLock};

/// Environment variable overriding the default worker-thread count.
pub const NUM_THREADS_ENV: &str = "POCHOIR_NUM_THREADS";

/// A fork-join work-stealing thread pool.
///
/// The runtime is the Rust stand-in for the Intel Cilk Plus scheduler the paper's
/// generated code runs on: `join` corresponds to `cilk_spawn`/`cilk_sync` of two branches
/// and [`Runtime::parallel_for`] to `cilk_for`.
///
/// Dropping the runtime shuts the worker threads down.  A process-wide instance is
/// available through [`Runtime::global`].
pub struct Runtime {
    pub(crate) registry: Arc<Registry>,
    handles: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("num_threads", &self.num_threads())
            .finish()
    }
}

static GLOBAL: OnceLock<Runtime> = OnceLock::new();

/// Returns the default number of worker threads: `POCHOIR_NUM_THREADS` if set, otherwise
/// the machine's available parallelism.
pub fn default_num_threads() -> usize {
    if let Ok(value) = std::env::var(NUM_THREADS_ENV) {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Runtime {
    /// Creates a pool with `num_threads` workers (clamped to at least one).
    pub fn new(num_threads: usize) -> Self {
        let (registry, handles) = Registry::new(num_threads);
        Runtime {
            registry,
            handles: parking_lot::Mutex::new(handles),
        }
    }

    /// Creates a pool sized by [`default_num_threads`].
    pub fn with_default_threads() -> Self {
        Self::new(default_num_threads())
    }

    /// The process-wide shared runtime, created on first use.
    pub fn global() -> &'static Runtime {
        GLOBAL.get_or_init(Runtime::with_default_threads)
    }

    /// Number of worker threads in this pool.
    pub fn num_threads(&self) -> usize {
        self.registry.num_threads()
    }

    /// A snapshot of this pool's counters: spawn/steal/execute totals plus whatever
    /// the engine layers reported through [`Parallelism::count`](crate::Parallelism::count).
    pub fn metrics(&self) -> crate::metrics::MetricsSnapshot {
        self.registry.metrics().snapshot()
    }

    /// Jobs executed per worker since the pool started — the pool's work
    /// distribution.  One slot per worker thread; serving benchmarks report it to
    /// show batch- and window-level work actually spreading across the pool.
    pub fn worker_executed(&self) -> Vec<u64> {
        self.registry.metrics().worker_executed()
    }

    /// Runs `op` inside the pool, blocking the calling thread until it completes.
    ///
    /// If the calling thread is already a worker of this pool, `op` runs inline.
    pub fn install<R, F>(&self, op: F) -> R
    where
        R: Send,
        F: FnOnce() -> R + Send,
    {
        let current = WorkerThread::current();
        if !current.is_null() {
            let worker = unsafe { &*current };
            if Arc::ptr_eq(worker.registry(), &self.registry) {
                return op();
            }
        }
        self.registry.run_on_worker(|_| op())
    }

    /// Executes `oper_a` and `oper_b`, potentially in parallel, returning both results.
    ///
    /// Work-first semantics: the calling worker runs `oper_a` itself after exposing
    /// `oper_b` for stealing; if nobody stole `oper_b`, the caller runs it too.  Panics in
    /// either closure are propagated to the caller after both branches have finished
    /// (so no stack frame is abandoned while a thief may still reference it).
    pub fn join<A, B, RA, RB>(&self, oper_a: A, oper_b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let current = WorkerThread::current();
        if !current.is_null() {
            let worker = unsafe { &*current };
            if Arc::ptr_eq(worker.registry(), &self.registry) {
                return join_on_worker(worker, oper_a, oper_b);
            }
        }
        // Called from outside the pool: move the whole join inside.
        self.install(move || {
            let worker = unsafe { &*WorkerThread::current() };
            join_on_worker(worker, oper_a, oper_b)
        })
    }

    /// Applies `body` to every index in `0..len`, in parallel, recursively splitting the
    /// range down to single indices: one task per index.
    pub fn parallel_for<F>(&self, len: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        if len <= 1 || self.num_threads() == 1 {
            for i in 0..len {
                body(i);
            }
            return;
        }
        self.install(|| {
            let worker = unsafe { &*WorkerThread::current() };
            parallel_for_range(self, worker, 0, len, &body);
        });
    }

    /// Applies `body` to every element of `items`, in parallel.
    pub fn for_each<T, F>(&self, items: &[T], body: F)
    where
        T: Sync,
        F: Fn(&T) + Sync,
    {
        self.parallel_for(items.len(), |i| body(&items[i]));
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Refuse to tear down a pool while jobs could still reference external stacks:
        // `install` blocks until completion, so by the time we can be dropped no external
        // work is pending; worker-spawned work drains in `main_loop` before exit.
        self.registry.terminate();
        let handles = std::mem::take(&mut *self.handles.lock());
        join_handles(handles);
    }
}

fn join_on_worker<A, B, RA, RB>(worker: &WorkerThread, oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let job_b = StackJob::new(oper_b);
    let job_b_ref = unsafe { job_b.as_job_ref() };
    let job_b_id = job_b_ref.id();
    worker.push(job_b_ref);

    // Run branch A inline, capturing a panic so we can still synchronise with B.
    let result_a = std::panic::catch_unwind(std::panic::AssertUnwindSafe(oper_a));

    // Wait for B: either we pop it back untouched and run it inline, or somebody stole it
    // and we keep ourselves busy until its latch is set.
    let result_b: RB;
    loop {
        if crate::latch::Latch::probe(&job_b.latch) {
            result_b = unsafe { job_b.into_result() };
            break;
        }
        match worker.take_local_job() {
            Some(job) if job.id() == job_b_id => {
                // Not stolen: run it on this thread.
                let rb = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                    job_b.run_inline()
                }));
                match (result_a, rb) {
                    (Ok(ra), Ok(rb)) => return (ra, rb),
                    (Err(p), _) | (_, Err(p)) => std::panic::resume_unwind(p),
                }
            }
            Some(job) => {
                // A nested job pushed by branch A; it must complete before we can unwind.
                unsafe { worker.execute(job) };
            }
            None => {
                worker.wait_until(&job_b.latch);
            }
        }
    }

    match result_a {
        Ok(ra) => (ra, result_b),
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

fn parallel_for_range<F>(rt: &Runtime, worker: &WorkerThread, start: usize, end: usize, body: &F)
where
    F: Fn(usize) + Sync,
{
    if end - start == 1 {
        body(start);
        return;
    }
    let mid = start + (end - start) / 2;
    let _ = worker; // recursion re-derives the worker after potential migration
    rt.join(
        || {
            let w = unsafe { &*WorkerThread::current() };
            parallel_for_range(rt, w, start, mid, body)
        },
        || {
            let w = unsafe { &*WorkerThread::current() };
            parallel_for_range(rt, w, mid, end, body)
        },
    );
}

/// Convenience wrapper: `join` on the global runtime.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    Runtime::global().join(oper_a, oper_b)
}

/// Convenience wrapper: `parallel_for` on the global runtime.
pub fn parallel_for<F>(len: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    Runtime::global().parallel_for(len, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn join_returns_both_results() {
        let rt = Runtime::new(2);
        let (a, b) = rt.join(|| 1 + 1, || "two".len());
        assert_eq!(a, 2);
        assert_eq!(b, 3);
    }

    #[test]
    fn join_from_external_thread() {
        let rt = Runtime::new(2);
        let (a, b) = rt.join(|| 10, || 20);
        assert_eq!((a, b), (10, 20));
    }

    #[test]
    fn nested_joins_compute_fibonacci() {
        fn fib(rt: &Runtime, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = rt.join(|| fib(rt, n - 1), || fib(rt, n - 2));
            a + b
        }
        let rt = Runtime::new(3);
        assert_eq!(fib(&rt, 15), 610);
    }

    #[test]
    fn join_propagates_panic_from_a() {
        let rt = Runtime::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.join(|| panic!("a failed"), || 5)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn join_propagates_panic_from_b() {
        let rt = Runtime::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.join(|| 5, || panic!("b failed"))
        }));
        assert!(r.is_err());
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        let rt = Runtime::new(4);
        let n = 1000;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        rt.parallel_for(n, |i| {
            counters[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn parallel_for_empty_range() {
        let rt = Runtime::new(2);
        rt.parallel_for(0, |_| panic!("must not be called"));
    }

    #[test]
    fn for_each_sums_slice() {
        let rt = Runtime::new(2);
        let items: Vec<u64> = (0..100).collect();
        let total = AtomicUsize::new(0);
        rt.for_each(&items, |x| {
            total.fetch_add(*x as usize, Ordering::SeqCst);
        });
        assert_eq!(total.load(Ordering::SeqCst), 4950);
    }

    #[test]
    fn install_runs_closure_on_worker() {
        let rt = Runtime::new(2);
        let on_worker = rt.install(|| !WorkerThread::current().is_null());
        assert!(on_worker);
    }

    #[test]
    fn single_thread_pool_works() {
        let rt = Runtime::new(1);
        let (a, b) = rt.join(|| 1, || 2);
        assert_eq!(a + b, 3);
        let sum = AtomicUsize::new(0);
        rt.parallel_for(100, |i| {
            sum.fetch_add(i, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 4950);
    }

    #[test]
    fn default_num_threads_is_positive() {
        assert!(default_num_threads() >= 1);
    }

    #[test]
    fn metrics_observe_activity() {
        let rt = Runtime::new(2);
        let before = rt.metrics();
        rt.parallel_for(256, |_| {});
        let after = rt.metrics();
        assert!(after.executed >= before.executed);
        assert!(after.spawned > before.spawned);
    }

    #[test]
    fn drop_terminates_cleanly() {
        for _ in 0..4 {
            let rt = Runtime::new(2);
            rt.parallel_for(64, |_| {});
            drop(rt);
        }
    }
}
