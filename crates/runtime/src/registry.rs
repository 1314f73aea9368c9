//! The worker-thread registry: a fixed pool of work-stealing threads.
//!
//! Each worker owns a LIFO deque (`crossbeam_deque::Worker`).  Work pushed by a worker
//! goes to its own deque ("work-first"); idle workers steal from the *top* of victims'
//! deques, which preserves the Cilk-style busy-leaves property the paper's span analysis
//! assumes.  Threads outside the pool submit work through a global injector queue.

use crate::job::JobRef;
use crate::latch::{Latch, LockLatch};
use crate::metrics::{Counter, Metrics};
use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of failed steal rounds before a worker briefly parks.
const STEAL_ROUNDS_BEFORE_PARK: usize = 64;
/// Maximum time a worker sleeps before re-checking for work.
const PARK_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(1);

/// Shared state of a worker pool.
pub struct Registry {
    stealers: Vec<Stealer<JobRef>>,
    injector: Injector<JobRef>,
    sleep_mutex: Mutex<()>,
    sleep_condvar: Condvar,
    terminate: AtomicBool,
    num_threads: usize,
    active_external: AtomicUsize,
    metrics: Metrics,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("num_threads", &self.num_threads)
            .field("terminate", &self.terminate.load(Ordering::Relaxed))
            .finish()
    }
}

thread_local! {
    /// Pointer to the `WorkerThread` owned by the current thread, if it is a pool worker.
    static WORKER_THREAD: Cell<*const WorkerThread> = const { Cell::new(ptr::null()) };
}

/// Per-worker state, owned by (and living on the stack of) the worker thread itself.
pub struct WorkerThread {
    worker: Worker<JobRef>,
    registry: Arc<Registry>,
    index: usize,
    /// xorshift state for randomized steal-victim selection.
    rng: Cell<u64>,
}

impl WorkerThread {
    /// Returns the current thread's worker context, or null if this thread is not a
    /// worker of any registry.
    #[inline]
    pub fn current() -> *const WorkerThread {
        WORKER_THREAD.with(|c| c.get())
    }

    /// The worker's index within its registry.
    #[allow(dead_code)] // part of the worker API surface; exercised by tests
    pub fn index(&self) -> usize {
        self.index
    }

    /// The registry this worker belongs to.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Pushes a job onto this worker's own deque and wakes a sleeping peer.
    #[inline]
    pub fn push(&self, job: JobRef) {
        self.worker.push(job);
        self.registry.metrics.add(Counter::Spawned, 1);
        self.registry.wake_workers();
    }

    /// Pops the most recently pushed job from this worker's deque, if any.
    #[inline]
    pub fn take_local_job(&self) -> Option<JobRef> {
        self.worker.pop()
    }

    #[inline]
    fn next_victim(&self) -> usize {
        // xorshift64*
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        (x % self.registry.num_threads as u64) as usize
    }

    /// Attempts to obtain a job from another worker or from the injector.
    pub fn steal(&self) -> Option<JobRef> {
        let registry = &self.registry;
        let n = registry.num_threads;
        // First drain the injector (external submissions), then try peers.
        loop {
            match registry.injector.steal_batch_and_pop(&self.worker) {
                Steal::Success(job) => {
                    registry.metrics.add(Counter::Stolen, 1);
                    return Some(job);
                }
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
        let start = self.next_victim();
        for i in 0..n {
            let victim = (start + i) % n;
            if victim == self.index {
                continue;
            }
            loop {
                match registry.stealers[victim].steal() {
                    Steal::Success(job) => {
                        registry.metrics.add(Counter::Stolen, 1);
                        return Some(job);
                    }
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        None
    }

    /// Busy-waits until `latch` is set, executing any work that can be found meanwhile.
    ///
    /// This is the heart of the work-first `join`: the thread that pushed a job keeps
    /// itself useful while the stolen branch completes elsewhere.
    pub fn wait_until<L: Latch>(&self, latch: &L) {
        let mut idle_rounds = 0usize;
        while !latch.probe() {
            let job = self.take_local_job().or_else(|| self.steal());
            match job {
                Some(job) => {
                    idle_rounds = 0;
                    unsafe { self.execute(job) };
                }
                None => {
                    idle_rounds += 1;
                    if idle_rounds < 16 {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Executes a job on this worker.
    ///
    /// # Safety
    ///
    /// The job must still be alive and not yet executed (guaranteed by the deque
    /// protocol: a job is only reachable through exactly one deque entry).
    #[inline]
    pub unsafe fn execute(&self, job: JobRef) {
        self.registry.metrics.executed_on(self.index);
        unsafe { job.execute() };
    }

    fn main_loop(&self) {
        let registry = Arc::clone(&self.registry);
        let mut idle_rounds = 0usize;
        loop {
            if registry.terminate.load(Ordering::Acquire) && self.worker.is_empty() {
                break;
            }
            let job = self.take_local_job().or_else(|| self.steal());
            match job {
                Some(job) => {
                    idle_rounds = 0;
                    unsafe { self.execute(job) };
                }
                None => {
                    idle_rounds += 1;
                    if idle_rounds < STEAL_ROUNDS_BEFORE_PARK {
                        std::thread::yield_now();
                    } else {
                        // Park briefly; pushes notify the condvar.
                        let mut guard = registry.sleep_mutex.lock();
                        if registry.terminate.load(Ordering::Acquire) {
                            break;
                        }
                        registry.sleep_condvar.wait_for(&mut guard, PARK_TIMEOUT);
                        idle_rounds = 0;
                    }
                }
            }
        }
    }
}

impl Registry {
    /// Spawns `num_threads` workers and returns the shared registry plus join handles.
    pub fn new(num_threads: usize) -> (Arc<Registry>, Vec<std::thread::JoinHandle<()>>) {
        let num_threads = num_threads.max(1);
        let workers: Vec<Worker<JobRef>> = (0..num_threads).map(|_| Worker::new_lifo()).collect();
        let stealers = workers.iter().map(|w| w.stealer()).collect();
        let registry = Arc::new(Registry {
            stealers,
            injector: Injector::new(),
            sleep_mutex: Mutex::new(()),
            sleep_condvar: Condvar::new(),
            terminate: AtomicBool::new(false),
            num_threads,
            active_external: AtomicUsize::new(0),
            metrics: Metrics::with_workers(num_threads),
        });
        let mut handles = Vec::with_capacity(num_threads);
        for (index, worker) in workers.into_iter().enumerate() {
            let registry = Arc::clone(&registry);
            let handle = std::thread::Builder::new()
                .name(format!("pochoir-worker-{index}"))
                .spawn(move || {
                    let worker_thread = WorkerThread {
                        worker,
                        registry,
                        index,
                        rng: Cell::new(0x9E37_79B9_7F4A_7C15u64 ^ (index as u64 + 1)),
                    };
                    WORKER_THREAD.with(|c| c.set(&worker_thread as *const WorkerThread));
                    worker_thread.main_loop();
                    WORKER_THREAD.with(|c| c.set(ptr::null()));
                })
                .expect("failed to spawn pochoir worker thread");
            handles.push(handle);
        }
        (registry, handles)
    }

    /// The number of worker threads in the pool.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Aggregate scheduler counters (spawns, steals, executed jobs).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Pushes an externally created job into the pool.
    pub fn inject(&self, job: JobRef) {
        self.injector.push(job);
        self.metrics.add(Counter::Spawned, 1);
        self.wake_workers();
    }

    /// Wakes any parked workers (called after pushing work).
    #[inline]
    pub fn wake_workers(&self) {
        self.sleep_condvar.notify_all();
    }

    /// Requests shutdown; workers exit once their deques drain.
    pub fn terminate(&self) {
        self.terminate.store(true, Ordering::Release);
        self.wake_workers();
    }

    /// Runs `f` on a worker thread of this registry, blocking the calling (external)
    /// thread until it finishes.  Panics in `f` are propagated.
    pub fn run_on_worker<R, F>(self: &Arc<Self>, f: F) -> R
    where
        R: Send,
        F: FnOnce(&WorkerThread) -> R + Send,
    {
        debug_assert!(
            WorkerThread::current().is_null(),
            "run_on_worker called from inside the pool"
        );
        self.active_external.fetch_add(1, Ordering::SeqCst);
        let latch = LockLatch::new();
        let mut result: Option<std::thread::Result<R>> = None;
        {
            // Job capturing raw pointers into this stack frame; safe because we block on
            // the latch below before the frame can unwind.
            let result_ref = SendPtr(&mut result as *mut Option<std::thread::Result<R>>);
            let latch_ref = SendPtr(&latch as *const LockLatch as *mut LockLatch);
            let job = crate::job::HeapJob::new(move || {
                // Capture the SendPtr wrappers whole (Rust 2021 captures disjoint fields
                // by default, which would capture the raw pointers directly).
                let (result_ref, latch_ref) = (result_ref, latch_ref);
                let worker = WorkerThread::current();
                assert!(!worker.is_null(), "installed job must run on a worker");
                let worker = unsafe { &*worker };
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(worker)));
                unsafe {
                    *result_ref.0 = Some(r);
                    (*latch_ref.0).set();
                }
            });
            self.inject(job.into_job_ref());
            latch.wait();
        }
        self.active_external.fetch_sub(1, Ordering::SeqCst);
        match result.expect("installed job did not produce a result") {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

/// A raw pointer that may be moved across threads.  The mover is responsible for ensuring
/// the pointee outlives every access (here: `run_on_worker` blocks on a latch).
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}

/// Blocks until worker threads have terminated (used by `Runtime::drop`).
pub fn join_handles(handles: Vec<std::thread::JoinHandle<()>>) {
    for h in handles {
        let _ = h.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_spawns_and_terminates() {
        let (registry, handles) = Registry::new(2);
        assert_eq!(registry.num_threads(), 2);
        registry.terminate();
        join_handles(handles);
    }

    #[test]
    fn run_on_worker_returns_value() {
        let (registry, handles) = Registry::new(2);
        let v = registry.run_on_worker(|w| {
            assert!(w.index() < 2);
            7 * 6
        });
        assert_eq!(v, 42);
        registry.terminate();
        join_handles(handles);
    }

    #[test]
    fn run_on_worker_propagates_panic() {
        let (registry, handles) = Registry::new(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            registry.run_on_worker(|_| -> () { panic!("inner panic") })
        }));
        assert!(r.is_err());
        registry.terminate();
        join_handles(handles);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let (registry, handles) = Registry::new(0);
        assert_eq!(registry.num_threads(), 1);
        registry.terminate();
        join_handles(handles);
    }
}
