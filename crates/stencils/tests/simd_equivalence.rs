//! Property suite for the explicit SIMD row kernels: every SIMD body must be
//! **bitwise-equal** to the scalar row loop — across apps, boundary conditions,
//! odd/unaligned row lengths and misaligned window offsets.
//!
//! The whole matrix runs inside ONE `#[test]` function in its own integration
//! test binary: the active-ISA knob is process-global (set by every executor
//! run), so concurrently running engine tests in a shared binary would race it.
//! Within this process the runs are strictly sequential.

use pochoir_core::boundary::{AxisRule, Boundary};
use pochoir_core::engine::{run, Coarsening, ExecutionPlan};
use pochoir_core::prelude::StencilSpec;
use pochoir_core::simd::{isa_detected, rows_snapshot, SimdIsa, SimdPolicy};
use pochoir_runtime::Serial;
use pochoir_stencils::{heat, life, wave};

/// The policies under test: scalar is the baseline; forced ISAs degrade to
/// scalar gracefully when the host lacks them (still bitwise-equal); Auto picks
/// the widest detected ISA.
fn policies() -> Vec<SimdPolicy> {
    vec![
        SimdPolicy::Scalar,
        SimdPolicy::Force(SimdIsa::Sse2),
        SimdPolicy::Force(SimdIsa::Avx2),
        SimdPolicy::Auto,
    ]
}

/// Every `Boundary` variant, so the SIMD bodies also run on every kind of ghost row.
fn boundaries<const D: usize>() -> Vec<Boundary<f64, D>> {
    vec![
        Boundary::Constant(0.0),
        Boundary::Periodic,
        Boundary::Clamp,
        Boundary::constant_fn(|t, x: [i64; D]| t as f64 + x.iter().sum::<i64>() as f64 / 4.0),
        Boundary::Mixed(std::array::from_fn(|d| match d % 2 {
            0 => AxisRule::Periodic,
            _ => AxisRule::Constant(1.5),
        })),
        Boundary::custom(|probe, t, x: [i64; D]| {
            let inside = std::array::from_fn(|d| x[d].clamp(0, probe.size(d) - 1));
            0.5 * probe.get(t, inside)
        }),
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Expected SIMD-row activity for a policy: which per-ISA row counter (if any)
/// must strictly increase during the run on this host.
fn expected_isa(policy: SimdPolicy) -> Option<SimdIsa> {
    // Mirror resolve(): POCHOIR_SIMD overrides everything (CI sets it for the
    // forced-scalar re-run), then detection gates the forced/auto choice.
    if let Ok(v) = std::env::var("POCHOIR_SIMD") {
        if let Some(p) = SimdPolicy::parse(&v) {
            return match p {
                SimdPolicy::Scalar => None,
                SimdPolicy::Auto => [SimdIsa::Avx2, SimdIsa::Sse2]
                    .into_iter()
                    .find(|&i| isa_detected(i)),
                SimdPolicy::Force(i) => isa_detected(i).then_some(i),
            };
        }
    }
    match policy {
        SimdPolicy::Scalar => None,
        SimdPolicy::Auto => [SimdIsa::Avx2, SimdIsa::Sse2]
            .into_iter()
            .find(|&i| isa_detected(i)),
        SimdPolicy::Force(i) => isa_detected(i).then_some(i),
    }
}

/// Asserts the per-ISA row counters moved (or not) as `expected_isa` demands.
fn check_counters(label: &str, before: (u64, u64), expect: Option<SimdIsa>) {
    let after = rows_snapshot();
    match expect {
        Some(SimdIsa::Sse2) => assert!(after.0 > before.0, "{label}: expected SSE2 rows"),
        Some(SimdIsa::Avx2) => assert!(after.1 > before.1, "{label}: expected AVX2 rows"),
        None => assert_eq!(after, before, "{label}: expected no SIMD rows"),
    }
}

#[test]
fn simd_rows_are_bitwise_equal_to_scalar() {
    // Odd extents and varied coarsenings so the decomposition produces rows with
    // unaligned lengths and window offsets that start mid-cache-line.
    let heat_coarsenings_2d = [Coarsening::new(2, [5, 7]), Coarsening::new(3, [50, 4096])];

    // Heat 1D.
    for boundary in boundaries::<1>() {
        let kernel = heat::HeatKernel::<1>::default();
        let spec = StencilSpec::new(heat::shape::<1>());
        let sizes = [37usize];
        let mut baseline = None;
        for policy in policies() {
            let mut a = heat::build(sizes, boundary.clone());
            let plan = ExecutionPlan::trap()
                .with_coarsening(Coarsening::new(2, [7]))
                .with_simd(policy);
            let before = rows_snapshot();
            run(&mut a, &spec, &kernel, 0, 9, &plan, &Serial);
            check_counters(
                &format!("heat1d {boundary:?} {policy:?}"),
                before,
                expected_isa(policy),
            );
            let snap = bits(&a.snapshot(9));
            match &baseline {
                None => baseline = Some(snap),
                Some(b) => assert_eq!(b, &snap, "heat1d {boundary:?} {policy:?}"),
            }
        }
    }

    // Heat 2D, two coarsenings (short fragmented rows and full-width rows).
    for boundary in boundaries::<2>() {
        for coarsening in heat_coarsenings_2d {
            let kernel = heat::HeatKernel::<2>::default();
            let spec = StencilSpec::new(heat::shape::<2>());
            let sizes = [19usize, 33];
            let mut baseline = None;
            for policy in policies() {
                let mut a = heat::build(sizes, boundary.clone());
                let plan = ExecutionPlan::trap()
                    .with_coarsening(coarsening)
                    .with_simd(policy);
                let before = rows_snapshot();
                run(&mut a, &spec, &kernel, 0, 7, &plan, &Serial);
                check_counters(
                    &format!("heat2d {boundary:?} {coarsening:?} {policy:?}"),
                    before,
                    expected_isa(policy),
                );
                let snap = bits(&a.snapshot(7));
                match &baseline {
                    None => baseline = Some(snap),
                    Some(b) => {
                        assert_eq!(b, &snap, "heat2d {boundary:?} {coarsening:?} {policy:?}")
                    }
                }
            }
        }
    }

    // Life (torus; u8 lanes — row length 45 exercises the 16/32-lane tails).
    {
        let spec = StencilSpec::new(life::shape());
        let sizes = [21usize, 45];
        let mut baseline = None;
        for policy in policies() {
            let mut a = life::build(sizes, 400);
            let plan = ExecutionPlan::trap()
                .with_coarsening(Coarsening::new(2, [6, 11]))
                .with_simd(policy);
            let before = rows_snapshot();
            run(&mut a, &spec, &life::LifeKernel, 0, 8, &plan, &Serial);
            check_counters(&format!("life {policy:?}"), before, expected_isa(policy));
            let snap = a.snapshot(8);
            match &baseline {
                None => baseline = Some(snap),
                Some(b) => assert_eq!(b, &snap, "life {policy:?}"),
            }
        }
    }

    // Wave (depth-2, 7-row kernel; odd unit-stride extent 21).
    {
        let kernel = wave::WaveKernel::default();
        let spec = StencilSpec::new(wave::shape());
        let sizes = [9usize, 8, 21];
        let t0 = spec.shape().first_step();
        let mut baseline = None;
        for policy in policies() {
            let mut a = wave::build(sizes);
            let plan = ExecutionPlan::trap()
                .with_coarsening(Coarsening::new(2, [3, 3, 5]))
                .with_simd(policy);
            let before = rows_snapshot();
            run(&mut a, &spec, &kernel, t0, t0 + 6, &plan, &Serial);
            check_counters(&format!("wave {policy:?}"), before, expected_isa(policy));
            let snap = bits(&a.snapshot(t0 + 6));
            match &baseline {
                None => baseline = Some(snap),
                Some(b) => assert_eq!(b, &snap, "wave {policy:?}"),
            }
        }
    }

    // Misaligned-window sweep: prime extents and tiny coarsenings fragment the
    // trapezoidal decomposition into rows whose start offsets cover every lane
    // phase (the slopes shift each time level by ±1), and whose lengths hit
    // every `len % lanes` residue — including sub-lane rows shorter than one
    // vector, which must take the scalar tail entirely.
    for (sizes, coarsening) in [
        ([17usize, 61], Coarsening::new(2, [4, 9])),
        ([16, 64], Coarsening::new(3, [5, 13])),
        ([5, 7], Coarsening::new(2, [2, 2])),
    ] {
        let kernel = heat::HeatKernel::<2>::default();
        let spec = StencilSpec::new(heat::shape::<2>());
        let mut baseline = None;
        for policy in policies() {
            let mut a = heat::build(sizes, Boundary::Periodic);
            let plan = ExecutionPlan::trap()
                .with_coarsening(coarsening)
                .with_simd(policy);
            run(&mut a, &spec, &kernel, 0, 6, &plan, &Serial);
            let snap = bits(&a.snapshot(6));
            match &baseline {
                None => baseline = Some(snap),
                Some(b) => assert_eq!(b, &snap, "heat2d {sizes:?} {coarsening:?} {policy:?}"),
            }
        }
    }
}
