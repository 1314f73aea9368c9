//! Runtime SIMD dispatch for the row-oriented base cases.
//!
//! The paper's generated kernels get their base-case speed from loops the C++
//! compiler can vectorize; here the row kernels carry explicit SSE2/AVX2 bodies
//! (in `pochoir-stencils`) and this module decides, once per executor run, which
//! body the rows dispatch to:
//!
//! 1. The plan's [`SimdPolicy`] names the intent (`Auto`, `Force(isa)`, `Scalar`).
//! 2. [`resolve`] intersects that intent with what
//!    `is_x86_feature_detected!` reports on the running host — a forced ISA the
//!    host lacks degrades to scalar rather than faulting.
//! 3. The `POCHOIR_SIMD` environment variable (`off`/`scalar`, `sse2`, `avx2`,
//!    `auto`) overrides **everything**, including `Force`, so a deployment can
//!    pin or disable vectorization without recompiling.
//!
//! The resolved ISA is published process-wide (an atomic read per row, no
//! thread-local plumbing through the work-stealing pool); kernels consult
//! [`active`] at the top of `update_row`.  When two concurrently running
//! programs request different policies the last writer wins — harmless, because
//! every SIMD body is bitwise-equal to the scalar row loop; the choice is
//! purely a performance one.
//!
//! The module also keeps per-thread, per-ISA row counts (see [`note_row`] and
//! [`rows_snapshot`]): a test probe for "the vector body did / did not run on
//! this thread", not a metric — nothing shared is written from a row body.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};

/// An instruction set a row kernel can be specialized for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimdIsa {
    /// 128-bit SSE2 (baseline on every x86-64).
    Sse2,
    /// 256-bit AVX2.
    Avx2,
}

impl SimdIsa {
    /// Lower-case name used by `POCHOIR_SIMD`, tune profiles and BENCH reports.
    pub fn name(self) -> &'static str {
        match self {
            SimdIsa::Sse2 => "sse2",
            SimdIsa::Avx2 => "avx2",
        }
    }
}

/// How an [`ExecutionPlan`](crate::engine::ExecutionPlan) selects the row-kernel body.
///
/// Whatever the policy, SIMD bodies are bitwise-equal to the scalar row loop
/// (they replay the exact per-element operation order, lane by lane), so this
/// knob never changes results — only throughput.  The `POCHOIR_SIMD`
/// environment variable overrides the policy at run time; see [`resolve`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum SimdPolicy {
    /// Use the widest ISA the host supports (AVX2, then SSE2, then scalar).  Default.
    #[default]
    Auto,
    /// Use exactly this ISA — degrading to scalar if the host does not support it.
    Force(SimdIsa),
    /// Always run the scalar row loop.
    Scalar,
}

impl SimdPolicy {
    /// Stable label for profiles and reports: `auto`, `scalar`, `force-sse2`, `force-avx2`.
    pub fn label(self) -> &'static str {
        match self {
            SimdPolicy::Auto => "auto",
            SimdPolicy::Scalar => "scalar",
            SimdPolicy::Force(SimdIsa::Sse2) => "force-sse2",
            SimdPolicy::Force(SimdIsa::Avx2) => "force-avx2",
        }
    }

    /// Parses a policy label (the inverse of [`SimdPolicy::label`], also accepting the
    /// `POCHOIR_SIMD` spellings `off`, `sse2` and `avx2`).  Returns `None` for unknown
    /// strings.
    pub fn parse(s: &str) -> Option<SimdPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" | "" => Some(SimdPolicy::Auto),
            "scalar" | "off" | "none" | "0" => Some(SimdPolicy::Scalar),
            "sse2" | "force-sse2" => Some(SimdPolicy::Force(SimdIsa::Sse2)),
            "avx2" | "force-avx2" => Some(SimdPolicy::Force(SimdIsa::Avx2)),
            _ => None,
        }
    }
}

/// True when the running host supports `isa` (always false off x86-64).
pub fn isa_detected(isa: SimdIsa) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match isa {
            SimdIsa::Sse2 => is_x86_feature_detected!("sse2"),
            SimdIsa::Avx2 => is_x86_feature_detected!("avx2"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        false
    }
}

/// The widest ISA the running host supports, or `None` off x86-64.
pub fn detected() -> Option<SimdIsa> {
    if isa_detected(SimdIsa::Avx2) {
        Some(SimdIsa::Avx2)
    } else if isa_detected(SimdIsa::Sse2) {
        Some(SimdIsa::Sse2)
    } else {
        None
    }
}

/// Resolves a plan's policy against host detection and the `POCHOIR_SIMD`
/// environment variable; `None` means the scalar row loop.
///
/// `POCHOIR_SIMD` takes precedence over the policy — including `Force` — with
/// the spellings accepted by [`SimdPolicy::parse`]; an unparseable value is
/// ignored.  A forced ISA the host lacks resolves to `None` (scalar) rather
/// than faulting, so plans tuned on one host stay portable.
pub fn resolve(policy: SimdPolicy) -> Option<SimdIsa> {
    let effective = match std::env::var("POCHOIR_SIMD") {
        Ok(v) => SimdPolicy::parse(&v).unwrap_or(policy),
        Err(_) => policy,
    };
    match effective {
        SimdPolicy::Scalar => None,
        SimdPolicy::Auto => detected(),
        SimdPolicy::Force(isa) => isa_detected(isa).then_some(isa),
    }
}

/// The process-wide active ISA: 0 = scalar, 1 = SSE2, 2 = AVX2.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

thread_local! {
    /// Rows the calling thread executed through the SSE2 bodies.
    static ROWS_SSE2: Cell<u64> = const { Cell::new(0) };
    /// Rows the calling thread executed through the AVX2 bodies.
    static ROWS_AVX2: Cell<u64> = const { Cell::new(0) };
}

/// Publishes the ISA row kernels should dispatch to (the executor calls this at
/// the top of every run, from the plan's resolved policy).
pub fn set_active(isa: Option<SimdIsa>) {
    let v = match isa {
        None => 0,
        Some(SimdIsa::Sse2) => 1,
        Some(SimdIsa::Avx2) => 2,
    };
    ACTIVE.store(v, Ordering::Relaxed);
}

/// The currently published ISA (`None` = scalar).  One relaxed atomic load;
/// kernels call this once per row.
#[inline]
pub fn active() -> Option<SimdIsa> {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => Some(SimdIsa::Sse2),
        2 => Some(SimdIsa::Avx2),
        _ => None,
    }
}

/// Records one row executed by a SIMD body on the calling thread (called by the
/// stencil kernels).
#[inline]
pub fn note_row(isa: SimdIsa) {
    let rows = match isa {
        SimdIsa::Sse2 => &ROWS_SSE2,
        SimdIsa::Avx2 => &ROWS_AVX2,
    };
    rows.with(|r| r.set(r.get() + 1));
}

/// Cumulative `(sse2, avx2)` rows the **calling thread** has executed through
/// SIMD bodies.  Rows run by other threads (e.g. pool workers) are not included,
/// so tests that bracket a run with this probe drive it with `Serial`.
pub fn rows_snapshot() -> (u64, u64) {
    (ROWS_SSE2.with(Cell::get), ROWS_AVX2.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_through_parse() {
        for policy in [
            SimdPolicy::Auto,
            SimdPolicy::Scalar,
            SimdPolicy::Force(SimdIsa::Sse2),
            SimdPolicy::Force(SimdIsa::Avx2),
        ] {
            assert_eq!(SimdPolicy::parse(policy.label()), Some(policy));
        }
        assert_eq!(SimdPolicy::parse("off"), Some(SimdPolicy::Scalar));
        assert_eq!(
            SimdPolicy::parse("AVX2"),
            Some(SimdPolicy::Force(SimdIsa::Avx2))
        );
        assert_eq!(SimdPolicy::parse("bogus"), None);
    }

    #[test]
    fn scalar_policy_resolves_to_none() {
        // POCHOIR_SIMD is not set under `cargo test`; if it is, the env wins by
        // design and this assertion still holds for the `off`/`scalar` values
        // the CI matrix uses.
        let r = resolve(SimdPolicy::Scalar);
        if std::env::var("POCHOIR_SIMD").is_err() {
            assert_eq!(r, None);
        }
    }

    #[test]
    fn forced_isa_requires_detection() {
        if std::env::var("POCHOIR_SIMD").is_ok() {
            return;
        }
        for isa in [SimdIsa::Sse2, SimdIsa::Avx2] {
            let r = resolve(SimdPolicy::Force(isa));
            if isa_detected(isa) {
                assert_eq!(r, Some(isa));
            } else {
                assert_eq!(r, None);
            }
        }
    }

    #[test]
    fn auto_resolves_to_widest_detected() {
        if std::env::var("POCHOIR_SIMD").is_ok() {
            return;
        }
        assert_eq!(resolve(SimdPolicy::Auto), detected());
    }

    // NOTE: no unit test asserts exact `set_active`/`active` values here — the
    // global is also written by every engine-test run in this binary, so such a
    // test would race.  The end-to-end dispatch test lives in the stencils
    // crate's `simd_dispatch_env` integration test (its own process).

    #[test]
    fn row_counters_accumulate() {
        let (s0, a0) = rows_snapshot();
        note_row(SimdIsa::Sse2);
        note_row(SimdIsa::Avx2);
        note_row(SimdIsa::Avx2);
        let (s1, a1) = rows_snapshot();
        assert!(s1 > s0);
        assert!(a1 >= a0 + 2);
    }

    #[test]
    fn rows_noted_on_another_thread_stay_on_that_thread() {
        let before = rows_snapshot();
        let theirs = std::thread::spawn(|| {
            let (s0, a0) = rows_snapshot();
            note_row(SimdIsa::Sse2);
            note_row(SimdIsa::Avx2);
            let (s1, a1) = rows_snapshot();
            (s1 - s0, a1 - a0)
        })
        .join()
        .unwrap();
        assert_eq!(theirs, (1, 1));
        assert_eq!(
            rows_snapshot(),
            before,
            "a row body must not write anything another thread can see"
        );
    }
}
