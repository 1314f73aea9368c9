//! Row/point equivalence: the row-oriented base case ([`BaseCase::Row`]) must produce
//! bitwise-identical results to the per-point base case ([`BaseCase::Point`]) for every
//! engine, boundary condition and dimensionality — including kernels that override
//! `update_row` with a hand-written slice-walking fast path.

use pochoir_core::prelude::*;
use pochoir_runtime::Serial;
use proptest::prelude::*;

fn engine_from_id(id: u8) -> EngineKind {
    match id % 5 {
        0 => EngineKind::Trap,
        1 => EngineKind::Strap,
        2 => EngineKind::LoopsSerial,
        3 => EngineKind::LoopsParallel,
        _ => EngineKind::LoopsBlocked,
    }
}

/// Number of boundary variants [`boundary_f64`] builds: every `Boundary` variant.
const BOUNDARIES: u8 = 6;

fn boundary_f64<const D: usize>(id: u8) -> Boundary<f64, D> {
    match id % BOUNDARIES {
        0 => Boundary::Constant(0.5),
        1 => Boundary::Periodic,
        2 => Boundary::Clamp,
        3 => Boundary::constant_fn(|t, x: [i64; D]| {
            0.25 * t as f64 + x.iter().sum::<i64>() as f64 / 8.0
        }),
        // 1-D: clamped; 2-D: clamped × Dirichlet; 3-D adds a periodic axis.
        4 => Boundary::Mixed(std::array::from_fn(|d| match d % 3 {
            0 => AxisRule::Clamp,
            1 => AxisRule::Constant(0.25),
            _ => AxisRule::Periodic,
        })),
        // Derives the ghost value from the nearest in-domain cell.
        _ => Boundary::custom(|probe, t, x: [i64; D]| {
            let inside = std::array::from_fn(|d| x[d].clamp(0, probe.size(d) - 1));
            0.5 * probe.get(t, inside) + 0.125
        }),
    }
}

/// Runs `kernel` under both base cases on identical initial states and asserts
/// bitwise-equal snapshots.
fn assert_row_point_equal<K, const D: usize>(
    sizes: [usize; D],
    steps: i64,
    boundary: Boundary<f64, D>,
    kernel: &K,
    engine: EngineKind,
) -> Result<(), TestCaseError>
where
    K: StencilKernel<f64, D>,
{
    let spec = StencilSpec::new(star_shape::<D>(1));
    let mut snaps = Vec::new();
    for base_case in [BaseCase::Row, BaseCase::Point] {
        let mut a: PochoirArray<f64, D> = PochoirArray::new(sizes);
        a.register_boundary(boundary.clone());
        a.fill_time_slice(0, |x| {
            let mut h = 0x243F_6A88u64;
            for &c in &x {
                h = h.wrapping_mul(0x100000001B3).wrapping_add(c as u64);
            }
            (h % 10007) as f64 / 97.0
        });
        let plan = ExecutionPlan::new(engine)
            .with_coarsening(Coarsening::new(2, [4; D]))
            .with_base_case(base_case);
        run(&mut a, &spec, kernel, 0, steps, &plan, &Serial);
        snaps.push(a.snapshot(steps));
    }
    // Bitwise comparison: f64 equality of every element.
    prop_assert_eq!(&snaps[0], &snaps[1], "engine {:?}", engine);
    Ok(())
}

/// 1D averaging kernel relying on the **default** (per-point) `update_row`.
struct Avg1D;
impl StencilKernel<f64, 1> for Avg1D {
    fn update<A: GridAccess<f64, 1>>(&self, g: &A, t: i64, x: [i64; 1]) {
        let v = 0.25 * g.get(t, [x[0] - 1]) + 0.5 * g.get(t, [x[0]]) + 0.25 * g.get(t, [x[0] + 1]);
        g.set(t + 1, x, v);
    }
}

/// 2D kernel with a hand-written row override exercising the core row plumbing.
struct RowHeat2D {
    cx: f64,
    cy: f64,
}

impl StencilKernel<f64, 2> for RowHeat2D {
    fn update<A: GridAccess<f64, 2>>(&self, g: &A, t: i64, x: [i64; 2]) {
        let c = g.get(t, x);
        let v = c
            + self.cx * (g.get(t, [x[0] - 1, x[1]]) + g.get(t, [x[0] + 1, x[1]]) - 2.0 * c)
            + self.cy * (g.get(t, [x[0], x[1] - 1]) + g.get(t, [x[0], x[1] + 1]) - 2.0 * c);
        g.set(t + 1, x, v);
    }

    fn update_row<A: GridAccess<f64, 2>>(&self, g: &A, t: i64, x0: [i64; 2], len: i64) {
        if len <= 0 {
            return;
        }
        let n = len as usize;
        'fast: {
            // Safety (row contract): reads of slice `t` (off-domain only on a boundary
            // view), write row in-domain in the distinct slice `t + 1`.
            let (Some(mut out), Some(up), Some(mid), Some(down)) = (unsafe {
                (
                    g.row_out(t + 1, x0, n),
                    g.row(t, [x0[0] - 1, x0[1]], n),
                    g.row(t, [x0[0], x0[1] - 1], n + 2),
                    g.row(t, [x0[0] + 1, x0[1]], n),
                )
            }) else {
                break 'fast;
            };
            for i in 0..n {
                let c = mid[i + 1];
                let v = c
                    + self.cx * (up[i] + down[i] - 2.0 * c)
                    + self.cy * (mid[i] + mid[i + 2] - 2.0 * c);
                out.set(i, v);
            }
            return;
        }
        pochoir_core::kernel::update_row_pointwise(self, g, t, x0, len);
    }
}

/// 3D star kernel relying on the default `update_row`.
struct Star3D;
impl StencilKernel<f64, 3> for Star3D {
    fn update<A: GridAccess<f64, 3>>(&self, g: &A, t: i64, x: [i64; 3]) {
        let mut acc = g.get(t, x);
        for d in 0..3 {
            let mut lo = x;
            lo[d] -= 1;
            let mut hi = x;
            hi[d] += 1;
            acc += 0.1 * (g.get(t, lo) + g.get(t, hi) - 2.0 * g.get(t, x));
        }
        g.set(t + 1, x, acc);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// 1D: random extents (including domains thinner than the stencil reach), steps,
    /// boundaries and engines.
    #[test]
    fn row_equals_point_1d(
        n in 1usize..40,
        steps in 1i64..10,
        boundary_id in 0u8..BOUNDARIES,
        engine_id in 0u8..5,
    ) {
        assert_row_point_equal(
            [n],
            steps,
            boundary_f64::<1>(boundary_id),
            &Avg1D,
            engine_from_id(engine_id),
        )?;
    }

    /// 2D with a row-overriding kernel: non-power-of-two extents, thin domains.
    #[test]
    fn row_equals_point_2d(
        nx in 1usize..24,
        ny in 1usize..24,
        steps in 1i64..8,
        boundary_id in 0u8..BOUNDARIES,
        engine_id in 0u8..5,
    ) {
        assert_row_point_equal(
            [nx, ny],
            steps,
            boundary_f64::<2>(boundary_id),
            &RowHeat2D { cx: 0.11, cy: 0.07 },
            engine_from_id(engine_id),
        )?;
    }

    /// 3D with the default per-point `update_row`.
    #[test]
    fn row_equals_point_3d(
        nx in 1usize..10,
        ny in 1usize..10,
        nz in 1usize..12,
        steps in 1i64..5,
        boundary_id in 0u8..BOUNDARIES,
        engine_id in 0u8..5,
    ) {
        assert_row_point_equal(
            [nx, ny, nz],
            steps,
            boundary_f64::<3>(boundary_id),
            &Star3D,
            engine_from_id(engine_id),
        )?;
    }
}

/// Deterministic spot checks: every engine on a fixed non-power-of-two 2D problem, every
/// boundary variant, row vs. point bitwise.
#[test]
fn row_equals_point_all_engines_fixed() {
    for engine in [
        EngineKind::Trap,
        EngineKind::Strap,
        EngineKind::LoopsSerial,
        EngineKind::LoopsParallel,
        EngineKind::LoopsBlocked,
    ] {
        for boundary_id in 0..BOUNDARIES {
            assert_row_point_equal(
                [23, 17],
                7,
                boundary_f64::<2>(boundary_id),
                &RowHeat2D { cx: 0.09, cy: 0.13 },
                engine,
            )
            .unwrap();
        }
    }
}

/// Domains thinner than the stencil reach are all boundary shell; the row path must
/// agree there too (exercises the fold-splitting boundary rows).
#[test]
fn row_equals_point_thin_domains() {
    for sizes in [[1usize, 9], [2, 2], [9, 1], [1, 1]] {
        for boundary_id in 0..BOUNDARIES {
            assert_row_point_equal(
                sizes,
                5,
                boundary_f64::<2>(boundary_id),
                &RowHeat2D { cx: 0.1, cy: 0.1 },
                EngineKind::Trap,
            )
            .unwrap();
        }
    }
}

/// The boundary path is costed by a count: a `Custom` boundary that counts its calls,
/// heat 2-D 32² for one step.  The row base case calls it once per ghost cell it
/// materializes — one off-domain leg row at each of the two outer edges, two row-end
/// cells on each of the `n` rows: `4·n` — and the per-access paths once per off-domain
/// read, which for this radius-1 star is `4·n` as well (one leg per edge point, two at
/// the corners).  The ablations must keep theirs whatever the row path does.
#[test]
fn boundary_calls_are_counted_per_ghost_cell() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let n = 32usize;
    let plans = [
        ("trap/row", ExecutionPlan::trap()),
        (
            "trap/point",
            ExecutionPlan::trap().with_base_case(BaseCase::Point),
        ),
        (
            "trap/always-boundary",
            ExecutionPlan::trap().with_clone_mode(CloneMode::AlwaysBoundary),
        ),
        ("loops/row", ExecutionPlan::loops_serial()),
        (
            "loops/always-boundary",
            ExecutionPlan::loops_serial().with_clone_mode(CloneMode::AlwaysBoundary),
        ),
    ];
    for (label, plan) in plans {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let mut a: PochoirArray<f64, 2> = PochoirArray::new([n, n]);
        a.register_boundary(Boundary::custom(move |_, _, _| {
            seen.fetch_add(1, Ordering::Relaxed);
            0.0
        }));
        a.fill_time_slice(0, |x| (x[0] * 3 + x[1]) as f64);
        let spec = StencilSpec::new(star_shape::<2>(1));
        let kernel = RowHeat2D { cx: 0.1, cy: 0.1 };
        run(&mut a, &spec, &kernel, 0, 1, &plan, &Serial);
        assert_eq!(calls.load(Ordering::Relaxed), 4 * n, "{label}");
    }
}

/// `TracingView` serves no rows, so a traced run of a row-overriding kernel reports
/// every access one by one: 5 reads per point minus the off-domain legs a `Constant`
/// boundary answers without touching memory, and one write per point.
#[test]
fn traced_runs_still_see_every_access() {
    use std::sync::atomic::{AtomicU64, Ordering};
    #[derive(Default)]
    struct Counter {
        reads: AtomicU64,
        writes: AtomicU64,
    }
    impl AccessTracer for Counter {
        fn on_read(&self, _addr: usize, _bytes: usize) {
            self.reads.fetch_add(1, Ordering::Relaxed);
        }
        fn on_write(&self, _addr: usize, _bytes: usize) {
            self.writes.fetch_add(1, Ordering::Relaxed);
        }
    }
    let (n, steps) = (8u64, 2u64);
    for engine in [EngineKind::Trap, EngineKind::LoopsSerial] {
        let mut a: PochoirArray<f64, 2> = PochoirArray::new([n as usize; 2]);
        a.register_boundary(Boundary::Constant(1.0));
        a.fill_time_slice(0, |x| (x[0] + 2 * x[1]) as f64);
        let spec = StencilSpec::new(star_shape::<2>(1));
        let kernel = RowHeat2D { cx: 0.1, cy: 0.1 };
        let counter = Counter::default();
        let plan = ExecutionPlan::new(engine).with_coarsening(Coarsening::new(2, [4, 4]));
        run_traced(&mut a, &spec, &kernel, 0, steps as i64, &plan, &counter);
        assert_eq!(counter.writes.load(Ordering::Relaxed), n * n * steps);
        assert_eq!(
            counter.reads.load(Ordering::Relaxed),
            (5 * n * n - 4 * n) * steps,
            "{engine:?}"
        );
    }
}
