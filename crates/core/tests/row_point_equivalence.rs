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

// ---------------------------------------------------------------------------------------
// Padded copies ≡ ghost rows ≡ per-point.  A small boundary leaf runs on a padded copy
// (`base::runs_padded`), a large one on ghost rows; both must match the per-point base
// case and the serial loops bitwise, on every boundary, for TRAP and STRAP, compiled and
// recursive.
// ---------------------------------------------------------------------------------------

use pochoir_core::engine::base::{runs_padded, PADDED_BUDGET};
use pochoir_core::engine::CutStrategy;

/// Every route a run can take: TRAP and STRAP, compiled and recursive, row and point,
/// plus the serial loops.
fn routes<const D: usize>(coarsening: Coarsening<D>) -> Vec<(String, ExecutionPlan<D>)> {
    let mut plans = vec![("loops_serial".to_string(), ExecutionPlan::loops_serial())];
    for engine in [EngineKind::Trap, EngineKind::Strap] {
        for mode in [ScheduleMode::Compiled, ScheduleMode::Recursive] {
            for base_case in [BaseCase::Row, BaseCase::Point] {
                plans.push((
                    format!("{engine:?}/{mode:?}/{base_case:?}"),
                    ExecutionPlan::new(engine)
                        .with_coarsening(coarsening)
                        .with_schedule_mode(mode)
                        .with_base_case(base_case),
                ));
            }
        }
    }
    plans
}

/// How many of the TRAP and STRAP schedules' boundary leaves run padded, and how many
/// of those have a step whose box leaves `[0, sizes)` (a leaf across a periodic seam).
fn padded_leaves<const D: usize>(
    spec: &StencilSpec<D>,
    sizes: [usize; D],
    coarsening: Coarsening<D>,
    steps: i64,
) -> (usize, usize) {
    let sizes = sizes.map(|s| s as i64);
    let (mut padded, mut straddling) = (0, 0);
    for strategy in [CutStrategy::Hyperspace, CutStrategy::SingleDimension] {
        let schedule = Schedule::compile(
            sizes,
            spec.slopes(),
            spec.reach(),
            coarsening,
            strategy,
            false,
            steps,
        );
        for leaf in schedule.leaves().filter(|l| !l.interior) {
            let z = &leaf.zoid;
            if !runs_padded::<f64, D>(z, sizes, spec.footprint()) {
                continue;
            }
            padded += 1;
            let outside = (z.t0..z.t1)
                .any(|t| (0..D).any(|i| z.lower_at(i, t) < 0 || z.upper_at(i, t) > sizes[i]));
            straddling += usize::from(outside);
        }
    }
    (padded, straddling)
}

/// Runs `kernel` over `[first, first + steps)` on every route and every boundary variant
/// and compares each result with the serial loops by `to_bits`.
fn assert_routes_agree<K, const D: usize>(
    shape: Shape<D>,
    sizes: [usize; D],
    steps: i64,
    coarsening: Coarsening<D>,
    kernel: &K,
) where
    K: StencilKernel<f64, D>,
{
    let spec = StencilSpec::new(shape);
    let depth = spec.depth() as usize;
    let first = spec.shape().first_step();
    for boundary_id in 0..BOUNDARIES {
        let boundary = boundary_f64::<D>(boundary_id);
        let mut reference: Option<Vec<u64>> = None;
        for (label, plan) in routes(coarsening) {
            let mut a: PochoirArray<f64, D> = PochoirArray::with_depth(sizes, depth);
            a.register_boundary(boundary.clone());
            for t in 0..depth as i64 {
                a.fill_time_slice(t, |x| {
                    let h = x.iter().fold(t as u64 + 7, |h, &c| {
                        h.wrapping_mul(0x100000001B3).wrapping_add(c as u64)
                    });
                    (h % 10007) as f64 / 97.0
                });
            }
            run(&mut a, &spec, kernel, first, first + steps, &plan, &Serial);
            let bits: Vec<u64> = a
                .snapshot(first + steps)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            match &reference {
                None => reference = Some(bits),
                Some(want) => assert!(
                    *want == bits,
                    "{label} differs from loops_serial: sizes {sizes:?}, {boundary:?}"
                ),
            }
        }
    }
}

#[test]
fn padded_leaves_equal_per_point_1d() {
    let coarsening = Coarsening::new(2, [4]);
    for n in [1, 2, 3, 16] {
        let spec = StencilSpec::new(star_shape::<1>(1));
        assert!(padded_leaves(&spec, [n], coarsening, 6).0 > 0, "n = {n}");
        assert_routes_agree(star_shape::<1>(1), [n], 6, coarsening, &Avg1D);
    }
}

#[test]
fn padded_leaves_equal_per_point_2d() {
    let coarsening = Coarsening::new(2, [4, 4]);
    let kernel = RowHeat2D { cx: 0.11, cy: 0.07 };
    for sizes in [[1, 1], [2, 3], [3, 16], [16, 2], [16, 16]] {
        let spec = StencilSpec::new(star_shape::<2>(1));
        assert!(
            padded_leaves(&spec, sizes, coarsening, 5).0 > 0,
            "{sizes:?}"
        );
        assert_routes_agree(star_shape::<2>(1), sizes, 5, coarsening, &kernel);
    }
}

#[test]
fn padded_leaves_equal_per_point_3d() {
    let coarsening = Coarsening::new(2, [3, 3, 1000]);
    for sizes in [[1, 2, 3], [3, 3, 16], [2, 16, 1]] {
        let spec = StencilSpec::new(star_shape::<3>(1));
        assert!(
            padded_leaves(&spec, sizes, coarsening, 4).0 > 0,
            "{sizes:?}"
        );
        assert_routes_agree(star_shape::<3>(1), sizes, 4, coarsening, &Star3D);
    }
}

/// A star kernel in any dimension, relying on the default `update_row`.
struct StarN;
impl<const D: usize> StencilKernel<f64, D> for StarN {
    fn update<A: GridAccess<f64, D>>(&self, g: &A, t: i64, x: [i64; D]) {
        let c = g.get(t, x);
        let mut acc = c;
        for d in 0..D {
            let (mut lo, mut hi) = (x, x);
            lo[d] -= 1;
            hi[d] += 1;
            acc += 0.05 * (g.get(t, lo) + g.get(t, hi) - 2.0 * c);
        }
        g.set(t + 1, x, acc);
    }
}

#[test]
fn padded_leaves_equal_per_point_4d() {
    let coarsening = Coarsening::new(2, [2, 2, 2, 1000]);
    for sizes in [[1, 2, 3, 2], [3, 2, 2, 16]] {
        let spec = StencilSpec::new(star_shape::<4>(1));
        assert!(
            padded_leaves(&spec, sizes, coarsening, 3).0 > 0,
            "{sizes:?}"
        );
        assert_routes_agree(star_shape::<4>(1), sizes, 3, coarsening, &StarN);
    }
}

/// A depth-2 wave with a row override: reads slices `t` (a star) and `t − 1` (the
/// centre), so a padded copy holds two blocks of different halos.
struct RowWave2D;

fn wave_shape() -> Shape<2> {
    let mut cells = vec![
        ShapeCell::new(1, [0, 0]),
        ShapeCell::new(0, [0, 0]),
        ShapeCell::new(-1, [0, 0]),
    ];
    for dx in [[1, 0], [-1, 0], [0, 1], [0, -1]] {
        cells.push(ShapeCell::new(0, dx));
    }
    Shape::must(cells)
}

impl StencilKernel<f64, 2> for RowWave2D {
    fn update<A: GridAccess<f64, 2>>(&self, g: &A, t: i64, x: [i64; 2]) {
        let c = g.get(t, x);
        let lap = g.get(t, [x[0] - 1, x[1]])
            + g.get(t, [x[0] + 1, x[1]])
            + g.get(t, [x[0], x[1] - 1])
            + g.get(t, [x[0], x[1] + 1])
            - 4.0 * c;
        g.set(t + 1, x, 2.0 * c - g.get(t - 1, x) + 0.1 * lap);
    }

    fn update_row<A: GridAccess<f64, 2>>(&self, g: &A, t: i64, x0: [i64; 2], len: i64) {
        if len <= 0 {
            return;
        }
        let n = len as usize;
        'fast: {
            // Safety (row contract): reads of slices `t` and `t − 1`, write row in the
            // distinct slice `t + 1`.
            let (Some(mut out), Some(up), Some(mid), Some(down), Some(old)) = (unsafe {
                (
                    g.row_out(t + 1, x0, n),
                    g.row(t, [x0[0] - 1, x0[1]], n),
                    g.row(t, [x0[0], x0[1] - 1], n + 2),
                    g.row(t, [x0[0] + 1, x0[1]], n),
                    g.row(t - 1, x0, n),
                )
            }) else {
                break 'fast;
            };
            for i in 0..n {
                let c = mid[i + 1];
                let lap = up[i] + down[i] + mid[i] + mid[i + 2] - 4.0 * c;
                out.set(i, 2.0 * c - old[i] + 0.1 * lap);
            }
            return;
        }
        pochoir_core::kernel::update_row_pointwise(self, g, t, x0, len);
    }
}

#[test]
fn padded_depth_two_leaves_equal_per_point() {
    let coarsening = Coarsening::new(2, [4, 4]);
    for sizes in [[2, 3], [16, 16], [5, 16]] {
        let spec = StencilSpec::new(wave_shape());
        assert!(
            padded_leaves(&spec, sizes, coarsening, 6).0 > 0,
            "{sizes:?}"
        );
        assert_routes_agree(wave_shape(), sizes, 6, coarsening, &RowWave2D);
    }
}

/// Narrow base cases on a torus: TRAP's wrap pieces are sloped leaves described in
/// virtual coordinates across the seam, and the small ones run padded.
#[test]
fn padded_leaves_across_the_periodic_seam_equal_per_point() {
    let coarsening = Coarsening::new(2, [3]);
    let spec = StencilSpec::new(star_shape::<1>(1));
    let (padded, straddling) = padded_leaves(&spec, [16], coarsening, 8);
    assert!(
        padded > 0 && straddling > 0,
        "{padded} padded, {straddling} across"
    );
    assert_routes_agree(star_shape::<1>(1), [16], 8, coarsening, &Avg1D);
    let coarsening = Coarsening::new(2, [3, 3]);
    let spec = StencilSpec::new(star_shape::<2>(1));
    let (padded, straddling) = padded_leaves(&spec, [12, 16], coarsening, 6);
    assert!(
        padded > 0 && straddling > 0,
        "{padded} padded, {straddling} across"
    );
    let kernel = RowHeat2D { cx: 0.1, cy: 0.12 };
    assert_routes_agree(star_shape::<2>(1), [12, 16], 6, coarsening, &kernel);
}

/// One whole-grid leaf whose padded footprint is `(h + 2)·(w + 2)·8` bytes: 62 × 62
/// fits the budget exactly (64² · 8 = 32 KiB) and runs padded; one row more does not,
/// and runs on ghost rows.  Both agree with the per-point routes.
#[test]
fn leaves_one_row_either_side_of_the_budget_equal_per_point() {
    let kernel = RowHeat2D { cx: 0.1, cy: 0.1 };
    let spec = StencilSpec::new(star_shape::<2>(1));
    for (sizes, padded) in [([62, 62], true), ([63, 62], false)] {
        let coarsening = Coarsening::new(3, sizes.map(|s| s as i64));
        let leaf = Zoid::full_grid(sizes.map(|s| s as i64), 0, 3);
        let bytes = spec.footprint().padded_bytes(leaf.x1, 8);
        assert_eq!(bytes <= PADDED_BUDGET, padded, "{sizes:?}: {bytes} bytes");
        assert_eq!(
            runs_padded::<f64, 2>(&leaf, leaf.x1, spec.footprint()),
            padded,
            "{sizes:?}"
        );
        let schedule = Schedule::compile(
            leaf.x1,
            spec.slopes(),
            spec.reach(),
            coarsening,
            CutStrategy::Hyperspace,
            false,
            3,
        );
        let leaves: Vec<_> = schedule.leaves().collect();
        assert_eq!(leaves.len(), 1, "{sizes:?}: one whole-grid leaf");
        assert_eq!(leaves[0].zoid, leaf);
        assert_routes_agree(star_shape::<2>(1), sizes, 3, coarsening, &kernel);
    }
}
