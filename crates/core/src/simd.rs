//! Runtime SIMD dispatch for the row-oriented base cases.
//!
//! The paper's generated kernels get their base-case speed from loops the C++
//! compiler vectorizes.  Here each hot row loop is compiled twice — for the x86-64
//! baseline and under `#[target_feature(enable = "avx2")]` — and Life, which the
//! compiler does not vectorize as well, keeps one hand-written AVX2 body (both in
//! `pochoir-stencils`).  This module decides, once per executor run, which copy the
//! rows take:
//!
//! 1. The plan's [`SimdPolicy`] names the intent: `Auto` or `Scalar`.
//! 2. [`resolve`] intersects that intent with what `is_x86_feature_detected!`
//!    reports on the running host: `Auto` takes AVX2 when the host has it, `Scalar`
//!    never does.
//!
//! The resolved ISA is published process-wide (an atomic read per row, no
//! thread-local plumbing through the work-stealing pool); kernels consult
//! [`active`] at the top of `update_row`.  When two concurrently running
//! programs request different policies the last writer wins — harmless, because
//! every AVX2 row is bitwise-equal to the baseline row loop; the choice is
//! purely a performance one.
//!
//! The module also keeps a per-thread count of AVX2 rows (see [`note_row`] and
//! [`rows_snapshot`]): a test probe for "the vector row did / did not run on
//! this thread", not a metric — nothing shared is written from a row body.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// An instruction set a row kernel can be specialized for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimdIsa {
    /// 256-bit AVX2.
    Avx2,
}

impl SimdIsa {
    /// Lower-case name used by benchmark and autotune reports.
    pub fn name(self) -> &'static str {
        match self {
            SimdIsa::Avx2 => "avx2",
        }
    }
}

/// How an [`ExecutionPlan`](crate::engine::ExecutionPlan) selects the row-kernel copy.
///
/// Whatever the policy, the AVX2 rows are bitwise-equal to the baseline row loop
/// (the same per-element operation order, lane by lane), so this knob never
/// changes results — only throughput.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum SimdPolicy {
    /// Use AVX2 when the host supports it, else the baseline loop.  Default.
    #[default]
    Auto,
    /// Always run the baseline row loop.
    Scalar,
}

/// The widest ISA the running host supports: AVX2, or `None` (also off x86-64).
pub fn detected() -> Option<SimdIsa> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        return Some(SimdIsa::Avx2);
    }
    None
}

/// Resolves a plan's policy against host detection; `None` means the baseline
/// row loop.
pub fn resolve(policy: SimdPolicy) -> Option<SimdIsa> {
    match policy {
        SimdPolicy::Scalar => None,
        SimdPolicy::Auto => detected(),
    }
}

/// Whether the rows dispatch to AVX2 (only ever set from [`resolve`]'s answer).
static ACTIVE: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Rows the calling thread executed through an AVX2 copy.
    static ROWS_AVX2: Cell<u64> = const { Cell::new(0) };
}

/// Publishes the ISA row kernels should dispatch to (the executor calls this at
/// the top of every run, from the plan's resolved policy).  An ISA the host lacks
/// is never published: the kernels' AVX2 copies are sound to call only because
/// [`active`] reports AVX2 on hosts that have it.
pub fn set_active(isa: Option<SimdIsa>) {
    ACTIVE.store(isa.is_some() && detected().is_some(), Ordering::Relaxed);
}

/// The currently published ISA (`None` = baseline loop).  One relaxed atomic
/// load; kernels call this once per row.
#[inline]
pub fn active() -> Option<SimdIsa> {
    ACTIVE.load(Ordering::Relaxed).then_some(SimdIsa::Avx2)
}

/// Records one row executed by an AVX2 copy on the calling thread (called by
/// the stencil kernels).
#[inline]
pub fn note_row() {
    ROWS_AVX2.with(|r| r.set(r.get() + 1));
}

/// Cumulative rows the **calling thread** has executed through AVX2 copies.
/// Rows run by other threads (e.g. pool workers) are not included, so tests
/// that bracket a run with this probe drive it with `Serial`.
pub fn rows_snapshot() -> u64 {
    ROWS_AVX2.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: no unit test asserts exact `set_active`/`active` values here — the
    // global is also written by every engine-test run in this binary, so such a
    // test would race.  The end-to-end dispatch check lives in the stencils
    // crate's `simd_equivalence` integration test (its own process).

    #[test]
    fn scalar_policy_resolves_to_none() {
        assert_eq!(resolve(SimdPolicy::Scalar), None);
    }

    #[test]
    fn auto_resolves_to_detected() {
        assert_eq!(resolve(SimdPolicy::Auto), detected());
    }

    #[test]
    fn rows_noted_on_another_thread_stay_on_that_thread() {
        let before = rows_snapshot();
        let theirs = std::thread::spawn(|| {
            let before = rows_snapshot();
            note_row();
            note_row();
            rows_snapshot() - before
        })
        .join()
        .unwrap();
        assert_eq!(theirs, 2);
        assert_eq!(
            rows_snapshot(),
            before,
            "a row body must not write anything another thread can see"
        );
    }
}
