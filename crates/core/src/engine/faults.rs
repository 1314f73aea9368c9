//! Fault-isolation plumbing shared by the executor and serving layers: poison-recovering
//! locks, and the deterministic fault-injection hooks behind the chaos test suite.
//!
//! ## Poison recovery
//!
//! Every long-lived shared structure of the engine — the session registry, the global
//! schedule cache — takes its mutex through `lock_recover` instead of
//! `lock().unwrap()`.  A mutex is *poisoned* when a thread panics while holding it; for
//! these structures every critical section leaves the data structurally valid (counters
//! and maps are updated atomically with respect to the guard), so the right response to
//! poison is to keep serving, not to cascade the panic into every other tenant of the
//! process.  Each recovery is counted: [`poison_recoveries`] exposes the process-total,
//! and serving drains forward the delta to the runtime's metrics as
//! `registry_poison_recoveries` — a healthy process reports zero forever, so the
//! counter doubles as a "something panicked inside an engine lock" alarm.
//!
//! ## Deterministic fault injection
//!
//! Failure behaviour must be as reproducible as throughput.  Two hooks exist:
//!
//! * **Compile failures** — [`inject_compile_failures`] arms a *thread-local* counter;
//!   the next N session compilations **on the calling thread** panic inside
//!   [`CompiledProgram::try_new`](crate::engine::executor::CompiledProgram::try_new), which the
//!   registry's `try_get_or_compile` converts into a typed `CompileFailed` error.
//!   Thread-local scope keeps concurrently running tests from failing each other's
//!   compiles.
//! * **Kernel faults** — a [`FaultPlan`] installed on a `StencilServer`
//!   (`with_fault_plan`) injects panics and deterministic delays at exact
//!   `(ticket, window-index)` coordinates of a pipelined drain, upstream of the kernel
//!   itself, so quarantine behaviour can be driven without writing a crashing kernel.
//!
//! Both hooks are ordinary safe code that happens to be useful only for testing; they
//! are kept out of `#[cfg(test)]` so integration tests, examples and the chaos CI step
//! can use them across crate boundaries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Process-total poisoned locks recovered (see [`poison_recoveries`]).
static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// The portion of [`POISON_RECOVERIES`] already forwarded to runtime metrics; serving
/// drains report the difference (advisory accounting, racy only against other drains).
static POISON_REPORTED: AtomicU64 = AtomicU64::new(0);

/// Locks `mutex`, recovering (and counting) a poisoned lock instead of panicking.
///
/// Used for every long-lived shared structure of the engine, whose invariant is that
/// critical sections leave the data structurally valid even if the holder panics.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
        poisoned.into_inner()
    })
}

/// Total poisoned shared-state locks this process has recovered instead of cascading
/// the poison panic.  Zero in a healthy process; a nonzero value means some thread
/// panicked inside an engine lock and the engine kept serving.
pub fn poison_recoveries() -> u64 {
    POISON_RECOVERIES.load(Ordering::Relaxed)
}

/// Recoveries not yet forwarded to a metrics sink; advances the reported watermark.
pub(crate) fn take_unreported_poison_recoveries() -> u64 {
    let current = POISON_RECOVERIES.load(Ordering::Relaxed);
    let reported = POISON_REPORTED.swap(current, Ordering::Relaxed);
    current.saturating_sub(reported)
}

std::thread_local! {
    /// Armed compile failures for this thread (see [`inject_compile_failures`]).
    static COMPILE_FAILURES: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Message of an injected compile failure; `try_get_or_compile` recognizes any panic,
/// but tests match on this prefix to distinguish injected faults from real bugs.
pub const INJECTED_COMPILE_FAILURE: &str = "injected compile failure";

/// Arms the next `n` session compilations **on the calling thread** to panic, driving
/// the registry's `CompileFailed` path.  Passing `0` disarms.  Thread-local on purpose: a concurrently running test's compiles are
/// unaffected, and the arming test's own registry lookups (which compile on the
/// calling thread) observe the failure deterministically.
pub fn inject_compile_failures(n: u32) {
    COMPILE_FAILURES.with(|cell| cell.set(n));
}

/// Executor-side injection point: called at the top of every session compilation;
/// panics if the calling thread has armed failures remaining.
pub(crate) fn maybe_fail_compile() {
    COMPILE_FAILURES.with(|cell| {
        let remaining = cell.get();
        if remaining > 0 {
            cell.set(remaining - 1);
            panic!("{INJECTED_COMPILE_FAILURE}: {remaining} armed on this thread");
        }
    });
}

/// A deterministic, seedable plan of faults injected into a pipelined drain.
///
/// Faults are addressed by `(ticket, window index)`: ticket `i`'s `k`-th dispatched
/// window (0-based) either panics — exercising the panic-quarantine path exactly as a
/// crashing kernel would — or is delayed by a deterministic number of spin iterations
/// (a "slow worker", reordering parallel completion without changing results).  The
/// plan is checked *before* the window executes, so a panicking window leaves its
/// array exactly as the previous window left it.
///
/// [`FaultPlan::seeded`] derives a plan from an xorshift generator so a whole chaos
/// campaign is reproducible from one integer; explicit coordinates can be added on
/// top with [`panic_at`](FaultPlan::panic_at) / [`delay_at`](FaultPlan::delay_at).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(ticket, window index)` coordinates that panic.
    panics: Vec<(usize, u64)>,
    /// `(ticket, window index, spin iterations)` slow-worker delays.
    delays: Vec<(usize, u64, u32)>,
}

/// The xorshift64 step behind [`FaultPlan::seeded`] (any fixed mixing function works;
/// this one is the classic Marsaglia triple).
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Derives a reproducible plan for a drain of `tenants` chains of up to `windows`
    /// windows each: one panicking tenant (at a seed-chosen window) and a few
    /// slow-worker delays on other tenants.  The same `(seed, tenants, windows)`
    /// always yields the same plan.
    pub fn seeded(seed: u64, tenants: usize, windows: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let tenants = tenants.max(1) as u64;
        let windows = windows.max(1);
        let victim = xorshift64(&mut state) % tenants;
        let mut plan = FaultPlan::new().panic_at(victim as usize, xorshift64(&mut state) % windows);
        for _ in 0..(tenants / 4) {
            let ticket = (xorshift64(&mut state) % tenants) as usize;
            if ticket as u64 != victim {
                let window = xorshift64(&mut state) % windows;
                let spins = 100 + (xorshift64(&mut state) % 400) as u32;
                plan = plan.delay_at(ticket, window, spins);
            }
        }
        plan
    }

    /// Adds a panic at `ticket`'s `window`-th dispatched window (0-based).
    pub fn panic_at(mut self, ticket: usize, window: u64) -> Self {
        self.panics.push((ticket, window));
        self
    }

    /// Adds a deterministic delay of `spins` spin-loop iterations before `ticket`'s
    /// `window`-th dispatched window executes.
    pub fn delay_at(mut self, ticket: usize, window: u64, spins: u32) -> Self {
        self.delays.push((ticket, window, spins));
        self
    }

    /// Tickets this plan will panic (deduplicated); the chaos suite uses it to split
    /// faulted tenants from the siblings whose results must stay bitwise intact.
    pub fn panicking_tickets(&self) -> Vec<usize> {
        let mut tickets: Vec<usize> = self.panics.iter().map(|&(t, _)| t).collect();
        tickets.sort_unstable();
        tickets.dedup();
        tickets
    }

    /// Whether the plan injects any fault at all.
    pub fn is_empty(&self) -> bool {
        self.panics.is_empty() && self.delays.is_empty()
    }

    /// Drain-side injection point: applies whatever fault is planned for `ticket`'s
    /// `window`-th window.  Delays run first (a slow worker is still a worker); a
    /// planned panic then unwinds with [`INJECTED_KERNEL_PANIC`] in the message.
    pub(crate) fn apply(&self, ticket: usize, window: u64) {
        for &(t, w, spins) in &self.delays {
            if t == ticket && w == window {
                for _ in 0..spins {
                    std::hint::spin_loop();
                }
            }
        }
        if self.panics.iter().any(|&(t, w)| t == ticket && w == window) {
            panic!("{INJECTED_KERNEL_PANIC}: ticket {ticket} window {window}");
        }
    }
}

/// Message prefix of an injected kernel panic (see `FaultPlan::apply`).
pub const INJECTED_KERNEL_PANIC: &str = "injected kernel panic";

/// Extracts the human-readable message of a caught panic payload (the `&str` /
/// `String` the `panic!` macro produces; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_recover_recovers_and_counts() {
        let mutex = std::sync::Arc::new(Mutex::new(7usize));
        let clone = std::sync::Arc::clone(&mutex);
        let before = poison_recoveries();
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(mutex.is_poisoned());
        assert_eq!(*lock_recover(&mutex), 7);
        assert_eq!(poison_recoveries(), before + 1);
    }

    #[test]
    fn unreported_recoveries_drain_once() {
        let mutex = Mutex::new(());
        drop(lock_recover(&mutex)); // healthy lock: no recovery counted
        let _ = take_unreported_poison_recoveries();
        assert_eq!(take_unreported_poison_recoveries(), 0);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_in_range() {
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let a = FaultPlan::seeded(seed, 8, 5);
            let b = FaultPlan::seeded(seed, 8, 5);
            assert_eq!(a, b);
            assert_eq!(a.panicking_tickets().len(), 1);
            assert!(a.panicking_tickets()[0] < 8);
        }
        assert_ne!(
            FaultPlan::seeded(1, 8, 5),
            FaultPlan::seeded(2, 8, 5),
            "different seeds should (generically) differ"
        );
    }

    #[test]
    fn injected_compile_failures_are_thread_local_and_bounded() {
        inject_compile_failures(1);
        let on_other_thread =
            std::thread::spawn(|| std::panic::catch_unwind(maybe_fail_compile).is_ok())
                .join()
                .unwrap();
        assert!(on_other_thread, "arming must not leak across threads");
        assert!(std::panic::catch_unwind(maybe_fail_compile).is_err());
        assert!(
            std::panic::catch_unwind(maybe_fail_compile).is_ok(),
            "one armed failure fires once"
        );
    }

    #[test]
    fn fault_plan_applies_at_exact_coordinates() {
        let plan = FaultPlan::new().panic_at(2, 1).delay_at(0, 0, 10);
        plan.apply(0, 0); // delay only
        plan.apply(2, 0); // victim ticket, wrong window: nothing
        assert!(std::panic::catch_unwind(|| plan.apply(2, 1)).is_err());
    }
}
