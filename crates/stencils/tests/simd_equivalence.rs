//! Property suite for the AVX2 rows: the compiled AVX2 copies of the heat and wave
//! row loops and Life's hand-written body must be **bitwise-equal** to the scalar
//! row loops — across apps, boundary conditions, odd/unaligned row lengths and
//! misaligned window offsets.
//!
//! The whole matrix runs inside ONE `#[test]` function in its own integration
//! test binary: the active-ISA knob is process-global (set by every executor
//! run), so concurrently running engine tests in a shared binary would race it.
//! Within this process the runs are strictly sequential.

use std::fmt::Debug;

use pochoir_core::boundary::{AxisRule, Boundary};
use pochoir_core::engine::{run, Coarsening, ExecutionPlan};
use pochoir_core::prelude::StencilSpec;
use pochoir_core::simd::{detected, rows_snapshot, SimdPolicy};
use pochoir_runtime::Serial;
use pochoir_stencils::{heat, life, wave};

/// Every `Boundary` variant over `f64`, so the AVX2 rows also run on every kind of
/// ghost row.
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

/// The same six variants over Life's `u8` cells (values stay 0 or 1).
fn life_boundaries() -> Vec<Boundary<u8, 2>> {
    vec![
        Boundary::Constant(0),
        Boundary::Periodic,
        Boundary::Clamp,
        Boundary::constant_fn(|t, x: [i64; 2]| ((t + x[0] + x[1]) & 1) as u8),
        Boundary::Mixed([AxisRule::Periodic, AxisRule::Constant(1)]),
        Boundary::custom(|probe, t, x: [i64; 2]| {
            let inside = std::array::from_fn(|d| x[d].clamp(0, probe.size(d) - 1));
            1 - probe.get(t, inside)
        }),
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `case` once under `Scalar` and once under `Auto`, and asserts that the
/// AVX2 row counter moved exactly when it should (`Auto` on an AVX2 host, never
/// under `Scalar`) and that both runs produced the same result.
fn assert_policies_agree<R: PartialEq + Debug>(label: &str, case: impl Fn(SimdPolicy) -> R) {
    let [scalar, auto] = [SimdPolicy::Scalar, SimdPolicy::Auto].map(|policy| {
        let before = rows_snapshot();
        let result = case(policy);
        let after = rows_snapshot();
        if policy == SimdPolicy::Auto && detected().is_some() {
            assert!(after > before, "{label} {policy:?}: expected AVX2 rows");
        } else {
            assert_eq!(after, before, "{label} {policy:?}: expected no AVX2 rows");
        }
        result
    });
    assert_eq!(scalar, auto, "{label}");
}

#[test]
fn simd_rows_are_bitwise_equal_to_scalar() {
    // Odd extents and two coarsenings per app: short fragmented rows, and
    // full-width rows long enough to run whole vectors before the tail.

    // Heat 1D.
    for boundary in boundaries::<1>() {
        let spec = StencilSpec::new(heat::shape::<1>());
        let kernel = heat::HeatKernel::<1>::default();
        assert_policies_agree(&format!("heat1d {boundary:?}"), |policy| {
            let mut a = heat::build([37], boundary.clone());
            let plan = ExecutionPlan::trap()
                .with_coarsening(Coarsening::new(2, [7]))
                .with_simd(policy);
            run(&mut a, &spec, &kernel, 0, 9, &plan, &Serial);
            bits(&a.snapshot(9))
        });
    }

    // Heat 2D.
    for boundary in boundaries::<2>() {
        for coarsening in [Coarsening::new(2, [5, 7]), Coarsening::new(3, [50, 4096])] {
            let spec = StencilSpec::new(heat::shape::<2>());
            let kernel = heat::HeatKernel::<2>::default();
            assert_policies_agree(&format!("heat2d {boundary:?} {coarsening:?}"), |policy| {
                let mut a = heat::build([19, 33], boundary.clone());
                let plan = ExecutionPlan::trap()
                    .with_coarsening(coarsening)
                    .with_simd(policy);
                run(&mut a, &spec, &kernel, 0, 7, &plan, &Serial);
                bits(&a.snapshot(7))
            });
        }
    }

    // Heat 3D: two off-axis legs per row; odd unit-stride extent 23.
    for boundary in boundaries::<3>() {
        for coarsening in [
            Coarsening::new(2, [3, 3, 5]),
            Coarsening::new(3, [4, 4, 1000]),
        ] {
            let spec = StencilSpec::new(heat::shape::<3>());
            let kernel = heat::HeatKernel::<3>::default();
            assert_policies_agree(&format!("heat3d {boundary:?} {coarsening:?}"), |policy| {
                let mut a = heat::build([7, 6, 23], boundary.clone());
                let plan = ExecutionPlan::trap()
                    .with_coarsening(coarsening)
                    .with_simd(policy);
                run(&mut a, &spec, &kernel, 0, 6, &plan, &Serial);
                bits(&a.snapshot(6))
            });
        }
    }

    // Life (u8 lanes — row length 45 is one 32-cell vector plus a 13-cell tail).
    for boundary in life_boundaries() {
        for coarsening in [Coarsening::new(2, [6, 11]), Coarsening::new(3, [6, 1000])] {
            let spec = StencilSpec::new(life::shape());
            assert_policies_agree(&format!("life {boundary:?} {coarsening:?}"), |policy| {
                let mut a = life::build([21, 45], 400);
                a.register_boundary(boundary.clone());
                let plan = ExecutionPlan::trap()
                    .with_coarsening(coarsening)
                    .with_simd(policy);
                run(&mut a, &spec, &life::LifeKernel, 0, 8, &plan, &Serial);
                a.snapshot(8)
            });
        }
    }

    // Wave (depth-2, 7-row kernel; odd unit-stride extent 21).
    for boundary in boundaries::<3>() {
        for coarsening in [
            Coarsening::new(2, [3, 3, 5]),
            Coarsening::new(3, [3, 3, 1000]),
        ] {
            let spec = StencilSpec::new(wave::shape());
            let kernel = wave::WaveKernel::default();
            let t0 = spec.shape().first_step();
            assert_policies_agree(&format!("wave {boundary:?} {coarsening:?}"), |policy| {
                let mut a = wave::build([9, 8, 21]);
                a.register_boundary(boundary.clone());
                let plan = ExecutionPlan::trap()
                    .with_coarsening(coarsening)
                    .with_simd(policy);
                run(&mut a, &spec, &kernel, t0, t0 + 6, &plan, &Serial);
                bits(&a.snapshot(t0 + 6))
            });
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
        let spec = StencilSpec::new(heat::shape::<2>());
        let kernel = heat::HeatKernel::<2>::default();
        assert_policies_agree(&format!("heat2d {sizes:?} {coarsening:?}"), |policy| {
            let mut a = heat::build(sizes, Boundary::Periodic);
            let plan = ExecutionPlan::trap()
                .with_coarsening(coarsening)
                .with_simd(policy);
            run(&mut a, &spec, &kernel, 0, 6, &plan, &Serial);
            bits(&a.snapshot(6))
        });
    }
}
