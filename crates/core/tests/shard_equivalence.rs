//! The sharded route's bitwise guarantee: splitting a grid into halo-exchanged
//! tiles and pipelining windows over them produces results *bitwise identical* to
//! running the same plan unsharded — across engines (TRAP/STRAP), boundary kinds
//! (periodic, constant, clamp, coordinate-dependent, mixed) and dimensions
//! (1D/2D/3D) — and the executor automatically takes the sharded route for grids
//! that fail `should_compile`.

use pochoir_core::boundary::{AxisRule, Boundary};
use pochoir_core::engine::shard::ShardPlan;
use pochoir_core::engine::{Coarsening, CompiledStencil, ExecutionPlan, Sharding};
use pochoir_core::grid::PochoirArray;
use pochoir_core::kernel::{StencilKernel, StencilSpec};
use pochoir_core::shape::{box_shape, star_shape, Shape, ShapeCell};
use pochoir_core::view::GridAccess;
use pochoir_runtime::Serial;

#[derive(Clone, Copy)]
struct Heat1D;
impl StencilKernel<f64, 1> for Heat1D {
    fn update<A: GridAccess<f64, 1>>(&self, g: &A, t: i64, x: [i64; 1]) {
        let v = 0.25 * g.get(t, [x[0] - 1]) + 0.5 * g.get(t, [x[0]]) + 0.25 * g.get(t, [x[0] + 1]);
        g.set(t + 1, x, v);
    }
}

struct Heat2D;
impl StencilKernel<f64, 2> for Heat2D {
    fn update<A: GridAccess<f64, 2>>(&self, g: &A, t: i64, x: [i64; 2]) {
        let c = g.get(t, x);
        let v = c
            + 0.1 * (g.get(t, [x[0] - 1, x[1]]) + g.get(t, [x[0] + 1, x[1]]) - 2.0 * c)
            + 0.12 * (g.get(t, [x[0], x[1] - 1]) + g.get(t, [x[0], x[1] + 1]) - 2.0 * c);
        g.set(t + 1, x, v);
    }
}

struct Heat3D;
impl StencilKernel<f64, 3> for Heat3D {
    fn update<A: GridAccess<f64, 3>>(&self, g: &A, t: i64, x: [i64; 3]) {
        let c = g.get(t, x);
        let v = c
            + 0.05
                * (g.get(t, [x[0] - 1, x[1], x[2]]) + g.get(t, [x[0] + 1, x[1], x[2]]) - 2.0 * c)
            + 0.06
                * (g.get(t, [x[0], x[1] - 1, x[2]]) + g.get(t, [x[0], x[1] + 1, x[2]]) - 2.0 * c)
            + 0.07
                * (g.get(t, [x[0], x[1], x[2] - 1]) + g.get(t, [x[0], x[1], x[2] + 1]) - 2.0 * c);
        g.set(t + 1, x, v);
    }
}

/// Runs `steps` of `kernel` both unsharded and through `shard_plan`, asserting the
/// final state is bitwise identical in *every* time slice.
fn assert_sharded_matches<K, const D: usize>(
    make_array: impl Fn() -> PochoirArray<f64, D>,
    kernel: &K,
    plan: &ExecutionPlan<D>,
    steps: i64,
    shard_plan: &ShardPlan<D>,
) where
    K: StencilKernel<f64, D>,
{
    let spec = StencilSpec::new(star_shape::<D>(1));

    let mut reference = make_array();
    pochoir_core::engine::run(&mut reference, &spec, kernel, 0, steps, plan, &Serial);

    let mut sharded = make_array();
    let report = shard_plan
        .execute(&mut sharded, &spec, plan, kernel, 0, steps, &Serial)
        .expect("sharded execution must succeed");
    assert_eq!(report.tiles, shard_plan.tiles().len() as u64);

    // Gather copies every storage slot, so both retained time slices must agree.
    assert_eq!(sharded.snapshot(steps), reference.snapshot(steps));
    assert_eq!(sharded.snapshot(steps - 1), reference.snapshot(steps - 1));
}

fn engines<const D: usize>() -> [ExecutionPlan<D>; 2] {
    [ExecutionPlan::trap(), ExecutionPlan::strap()]
}

#[test]
fn sharded_matches_unsharded_1d_all_boundaries() {
    let boundaries: [(Boundary<f64, 1>, bool); 3] = [
        (Boundary::Periodic, true),
        (Boundary::Constant(1.25), false),
        (Boundary::Clamp, false),
    ];
    for (boundary, periodic0) in boundaries {
        for plan in engines::<1>() {
            let plan = plan.with_coarsening(Coarsening::new(2, [4]));
            let shard_plan = ShardPlan::new([64], 1, 4, &[20, 31, 13], periodic0);
            let boundary = boundary.clone();
            assert_sharded_matches(
                move || {
                    let mut a = PochoirArray::<f64, 1>::new([64]);
                    a.register_boundary(boundary.clone());
                    a.fill_time_slice(0, |x| ((x[0] * 13 + 7) % 23) as f64 * 0.5);
                    a
                },
                &Heat1D,
                &plan,
                13,
                &shard_plan,
            );
        }
    }
}

#[test]
fn sharded_matches_unsharded_2d_all_boundaries() {
    let boundaries: [(Boundary<f64, 2>, bool); 3] = [
        (Boundary::Periodic, true),
        (Boundary::Constant(-2.5), false),
        (Boundary::Clamp, false),
    ];
    for (boundary, periodic0) in boundaries {
        for plan in engines::<2>() {
            let plan = plan.with_coarsening(Coarsening::new(2, [5, 5]));
            let shard_plan = ShardPlan::new([40, 28], 1, 3, &[13, 27], periodic0);
            let boundary = boundary.clone();
            assert_sharded_matches(
                move || {
                    let mut a = PochoirArray::<f64, 2>::new([40, 28]);
                    a.register_boundary(boundary.clone());
                    a.fill_time_slice(0, |x| ((x[0] * 7 + x[1] * 3) % 17) as f64);
                    a
                },
                &Heat2D,
                &plan,
                10,
                &shard_plan,
            );
        }
    }
}

#[test]
fn sharded_matches_unsharded_3d_all_boundaries() {
    let boundaries: [(Boundary<f64, 3>, bool); 3] = [
        (Boundary::Periodic, true),
        (Boundary::Constant(0.75), false),
        (Boundary::Clamp, false),
    ];
    for (boundary, periodic0) in boundaries {
        for plan in engines::<3>() {
            let plan = plan.with_coarsening(Coarsening::new(2, [4, 4, 4]));
            let shard_plan = ShardPlan::new([16, 12, 10], 1, 2, &[5, 6, 5], periodic0);
            let boundary = boundary.clone();
            assert_sharded_matches(
                move || {
                    let mut a = PochoirArray::<f64, 3>::new([16, 12, 10]);
                    a.register_boundary(boundary.clone());
                    a.fill_time_slice(0, |x| ((x[0] * 5 + x[1] * 3 + x[2]) % 11) as f64);
                    a
                },
                &Heat3D,
                &plan,
                6,
                &shard_plan,
            );
        }
    }
}

#[test]
fn sharded_rebases_coordinate_dependent_boundaries() {
    // A boundary whose value depends on the *global* coordinate: tiles must rebase
    // local coordinates or the truncated-halo tiles resolve the wrong values.
    for plan in engines::<2>() {
        let plan = plan.with_coarsening(Coarsening::new(2, [5, 5]));
        let shard_plan = ShardPlan::new([36, 20], 1, 3, &[9, 15, 12], false);
        assert_sharded_matches(
            move || {
                let mut a = PochoirArray::<f64, 2>::new([36, 20]);
                a.register_boundary(Boundary::constant_fn(|t, x: [i64; 2]| {
                    (t * 3 + x[0] * 7 - x[1]) as f64 * 0.25
                }));
                a.fill_time_slice(0, |x| ((x[0] + x[1] * 5) % 13) as f64);
                a
            },
            &Heat2D,
            &plan,
            9,
            &shard_plan,
        );
    }
}

#[test]
fn sharded_matches_unsharded_mixed_boundary() {
    // Axis 0 periodic (cyclic halos), axis 1 constant — the Mixed rules transfer to
    // tiles verbatim because the inner extents are unchanged.
    for plan in engines::<2>() {
        let plan = plan.with_coarsening(Coarsening::new(2, [5, 5]));
        let shard_plan = ShardPlan::new([30, 22], 1, 3, &[11, 19], true);
        assert_sharded_matches(
            move || {
                let mut a = PochoirArray::<f64, 2>::new([30, 22]);
                a.register_boundary(Boundary::Mixed([
                    AxisRule::Periodic,
                    AxisRule::Constant(3.5),
                ]));
                a.fill_time_slice(0, |x| ((x[0] * 11 + x[1]) % 19) as f64);
                a
            },
            &Heat2D,
            &plan,
            9,
            &shard_plan,
        );
    }
}

/// The acceptance scenario: a grid `should_compile` rejects runs through sharded
/// compiled tiles — automatically, via the executor fallback — and stays bitwise
/// equal to the recursive reference.
#[test]
fn executor_auto_shards_rejected_giants_bitwise() {
    let n = 400_000usize;
    let steps = 8i64;
    let spec = StencilSpec::new(star_shape::<1>(1));
    let coarsening = Coarsening::none();
    assert!(
        !pochoir_core::engine::schedule::should_compile([n as i64], &coarsening, steps),
        "test geometry must be a genuine giant"
    );

    let make = || {
        let mut a = PochoirArray::<f64, 1>::new([n]);
        a.register_boundary(Boundary::Periodic);
        a.fill_time_slice(0, |x| ((x[0] * 31 + 5) % 257) as f64 * 0.125);
        a
    };

    // Reference: sharding forced off stays the literal recursive walker.
    let recursive_plan = ExecutionPlan::trap()
        .with_coarsening(coarsening)
        .with_sharding(Sharding::Off);
    let literal = CompiledStencil::new(spec.clone(), Heat1D, recursive_plan, [n], steps);
    let mut reference = make();
    literal.run_with(&mut reference, 0, steps, &Serial);
    let stats = literal.stats();
    assert_eq!((stats.recursive_runs, stats.sharded_runs), (1, 0));

    // The default plan auto-shards on rejection.
    let auto_plan = ExecutionPlan::trap().with_coarsening(coarsening);
    assert_eq!(auto_plan.sharding, Sharding::Auto);
    let session = CompiledStencil::new(spec.clone(), Heat1D, auto_plan, [n], steps);
    let mut sharded = make();
    session.run_with(&mut sharded, 0, steps, &Serial);

    let stats = session.stats();
    assert_eq!(
        stats.sharded_runs, 1,
        "the giant must take the sharded route"
    );
    assert_eq!(stats.recursive_runs, 0);
    assert!(stats.schedule_rejections >= 1);
    assert_eq!(sharded.snapshot(steps), reference.snapshot(steps));
    assert_eq!(sharded.snapshot(steps - 1), reference.snapshot(steps - 1));
}

/// `Sharding::Tiles(k)` forces the tile count on the fallback route.
#[test]
fn forced_tile_count_is_honoured_and_bitwise() {
    let n = 4096usize;
    let steps = 6i64;
    let spec = StencilSpec::new(star_shape::<1>(1));
    let make = || {
        let mut a = PochoirArray::<f64, 1>::new([n]);
        a.register_boundary(Boundary::Constant(0.0));
        a.fill_time_slice(0, |x| ((x[0] * 3 + 1) % 97) as f64);
        a
    };
    let plan = ExecutionPlan::trap()
        .with_coarsening(Coarsening::new(2, [8]))
        .with_sharding(Sharding::Tiles(5));

    let mut reference = make();
    pochoir_core::engine::run(
        &mut reference,
        &spec,
        &Heat1D,
        0,
        steps,
        &plan.with_sharding(Sharding::Off),
        &Serial,
    );

    let session = CompiledStencil::new(spec, Heat1D, plan, [n], steps);
    let mut sharded = make();
    let report = session
        .run_sharded_with(&mut sharded, 0, steps, &Serial)
        .expect("forced tiling must shard");
    assert_eq!(report.tiles, 5);
    assert_eq!(sharded.snapshot(steps), reference.snapshot(steps));
}

/// Conway's life on `u8` cells (Moore neighbourhood).
#[derive(Clone, Copy)]
struct Life;
impl StencilKernel<u8, 2> for Life {
    fn update<A: GridAccess<u8, 2>>(&self, g: &A, t: i64, x: [i64; 2]) {
        let mut live = 0;
        for (di, dj) in (-1..=1).flat_map(|di| (-1..=1).map(move |dj| (di, dj))) {
            if (di, dj) != (0, 0) {
                live += g.get(t, [x[0] + di, x[1] + dj]);
            }
        }
        let alive = g.get(t, x) == 1;
        g.set(t + 1, x, u8::from(live == 3 || (alive && live == 2)));
    }
}

/// The depth-2 3-D wave equation: reads `t` and `t - 1`, writes `t + 1`.
#[derive(Clone, Copy)]
struct Wave3D;
impl StencilKernel<f64, 3> for Wave3D {
    fn update<A: GridAccess<f64, 3>>(&self, g: &A, t: i64, x: [i64; 3]) {
        let c = g.get(t, x);
        let mut lap = -6.0 * c;
        for d in 0..3 {
            let (mut lo, mut hi) = (x, x);
            lo[d] -= 1;
            hi[d] += 1;
            lap += g.get(t, lo) + g.get(t, hi);
        }
        g.set(t + 1, x, 2.0 * c - g.get(t - 1, x) + 0.1 * lap);
    }
}

fn wave3d_spec() -> StencilSpec<3> {
    let mut cells: Vec<ShapeCell<3>> = star_shape::<3>(1).cells().to_vec();
    cells.push(ShapeCell::new(-1, [0; 3]));
    StencilSpec::new(Shape::must(cells))
}

/// Tiles own their base-case size: under an *uncoarsened* parent plan the tiles run
/// heuristic-coarsened schedules, and the result must still be bitwise identical —
/// in every retained slot — to the unsharded uncoarsened run and to `loops_serial`.
/// Shards three ways: the explicit `lens` partition at `window`, a K = 1 plan (on a
/// periodic axis 0 the tile is its own halo owner), and `Sharding::Tiles(lens.len())`
/// through the executor session.
fn assert_uncoarsened_parent_shards_bitwise<T, K, const D: usize>(
    spec: &StencilSpec<D>,
    kernel: K,
    make: impl Fn() -> PochoirArray<T, D>,
    steps: i64,
    window: i64,
    lens: &[i64],
    periodic0: bool,
) where
    T: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static,
    K: StencilKernel<T, D> + Copy,
{
    let plan = ExecutionPlan::trap().with_coarsening(Coarsening::none());
    let sizes = make().sizes();
    let sizes_i64 = make().sizes_i64();
    let t0 = spec.shape().first_step();
    let t1 = t0 + steps;
    let slots = |a: &PochoirArray<T, D>| -> Vec<Vec<T>> {
        (0..spec.shape().time_slices() as i64)
            .map(|s| a.snapshot(t1 - s))
            .collect()
    };

    let mut loops = make();
    let serial = ExecutionPlan::loops_serial();
    pochoir_core::engine::run(&mut loops, spec, &kernel, t0, t1, &serial, &Serial);
    let expected = slots(&loops);

    let mut whole = make();
    let literal = plan.with_sharding(Sharding::Off);
    pochoir_core::engine::run(&mut whole, spec, &kernel, t0, t1, &literal, &Serial);
    assert_eq!(slots(&whole), expected, "unsharded uncoarsened run");

    let reach0 = spec.reach()[0];
    for tile_lens in [lens, &[sizes_i64[0]]] {
        let shard_plan = ShardPlan::new(sizes_i64, reach0, window, tile_lens, periodic0);
        let mut sharded = make();
        let report = shard_plan
            .execute(&mut sharded, spec, &plan, &kernel, t0, t1, &Serial)
            .expect("sharded execution must succeed");
        assert_eq!(report.windows, ((steps + window - 1) / window) as u64);
        assert!((1..=report.tiles).contains(&report.distinct_geometries));
        assert_eq!(
            report.registry_hits + report.registry_misses,
            report.distinct_geometries,
            "one registry lookup per distinct tile geometry"
        );
        assert_eq!(slots(&sharded), expected, "tiles {tile_lens:?}");
    }

    let forced = plan.with_sharding(Sharding::Tiles(lens.len() as u32));
    let session = CompiledStencil::new(spec.clone(), kernel, forced, sizes, steps);
    let mut sharded = make();
    let report = session
        .run_sharded_with(&mut sharded, t0, t1, &Serial)
        .expect("forced tiling must shard");
    assert_eq!(report.tiles, lens.len() as u64);
    assert_eq!(slots(&sharded), expected, "Sharding::Tiles");
}

/// 1-D heat: every tile narrower than the heuristic `dx` (1000), the window (16)
/// shorter than the heuristic `dt` (100), and a ragged last window (24 = 16 + 8).
#[test]
fn uncoarsened_parent_shards_bitwise_1d_heat() {
    for (boundary, periodic0) in [(Boundary::Periodic, true), (Boundary::Clamp, false)] {
        assert_uncoarsened_parent_shards_bitwise(
            &StencilSpec::new(star_shape::<1>(1)),
            Heat1D,
            || {
                let mut a = PochoirArray::<f64, 1>::new([2400]);
                a.register_boundary(boundary.clone());
                a.fill_time_slice(0, |x| ((x[0] * 31 + 5) % 257) as f64 * 0.125);
                a
            },
            24,
            16,
            &[300, 1500, 600],
            periodic0,
        );
    }
}

/// Periodic 2-D life on `u8`: window 3 under the heuristic `dt` 5, ragged 8 = 3+3+2.
#[test]
fn uncoarsened_parent_shards_bitwise_2d_life() {
    assert_uncoarsened_parent_shards_bitwise(
        &StencilSpec::new(box_shape::<2>(1)),
        Life,
        || {
            let mut a = PochoirArray::<u8, 2>::new([48, 40]);
            a.register_boundary(Boundary::Periodic);
            a.fill_time_slice(0, |x| {
                u8::from((x[0] * 7 + x[1] * 13 + x[0] * x[1]) % 5 < 2)
            });
            a
        },
        8,
        3,
        &[17, 6, 25],
        true,
    );
}

/// Depth-2 3-D wave (three storage slots): a 2-row tile under the heuristic `dx₀`
/// 3, window 2 under the heuristic `dt` 3, ragged 5 = 2+2+1.
#[test]
fn uncoarsened_parent_shards_bitwise_3d_wave() {
    for (boundary, periodic0) in [(Boundary::Periodic, true), (Boundary::Constant(0.0), false)] {
        assert_uncoarsened_parent_shards_bitwise(
            &wave3d_spec(),
            Wave3D,
            || {
                let mut a = PochoirArray::<f64, 3>::with_depth([12, 10, 9], 2);
                a.register_boundary(boundary.clone());
                let bump = |x: [i64; 3]| ((x[0] * 5 + x[1] * 3 + x[2]) % 11) as f64 * 0.25;
                a.fill_time_slice(0, bump);
                a.fill_time_slice(1, |x| bump(x) * 0.5);
                a
            },
            5,
            2,
            &[2, 10],
            periodic0,
        );
    }
}

// A session keeps its tile arrays from one sharded run to the next.  Each scenario
// below steps a sharded session and an unsharded reference through the same
// windows and compares every storage slot after each one, so a reused tile that
// carried anything of its last run (cells, halo rows, boundary) shows up at once.

/// Every storage slot of `a`, in slot order.
fn all_slots<T: Copy, const D: usize>(a: &PochoirArray<T, D>) -> Vec<Vec<T>> {
    (0..a.time_slices() as i64).map(|s| a.snapshot(s)).collect()
}

/// Runs `[t0, t1)` on `sharded` through `session`'s tile pipeline and on
/// `reference` unsharded, then asserts every storage slot agrees.
fn step_both<T, K, const D: usize>(
    session: &CompiledStencil<T, K, D>,
    sharded: &mut PochoirArray<T, D>,
    reference: &mut PochoirArray<T, D>,
    t0: i64,
    t1: i64,
) where
    T: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static,
    K: StencilKernel<T, D>,
{
    session
        .run_sharded(sharded, t0, t1)
        .expect("the session shards");
    let program = session.program();
    let unsharded = program.plan().with_sharding(Sharding::Off);
    pochoir_core::engine::run(
        reference,
        program.spec(),
        session.kernel(),
        t0,
        t1,
        &unsharded,
        &Serial,
    );
    assert_eq!(
        all_slots(sharded),
        all_slots(reference),
        "window [{t0}, {t1})"
    );
}

const REUSE_N: usize = 600;

fn reuse_session(window: i64) -> CompiledStencil<f64, Heat1D, 1> {
    CompiledStencil::new(
        StencilSpec::new(star_shape::<1>(1)),
        Heat1D,
        ExecutionPlan::trap()
            .with_coarsening(Coarsening::new(2, [8]))
            .with_sharding(Sharding::Tiles(3)),
        [REUSE_N],
        window,
    )
}

fn heat_grid(boundary: Boundary<f64, 1>, seed: usize) -> PochoirArray<f64, 1> {
    let mut a = PochoirArray::<f64, 1>::new([REUSE_N]);
    a.register_boundary(boundary);
    a.fill_time_slice(0, |x| ((x[0] as usize * 31 + seed * 17) % 251) as f64 * 0.5);
    a
}

#[test]
fn reused_tiles_see_the_callers_edits_between_runs() {
    let session = reuse_session(8);
    let mut sharded = heat_grid(Boundary::Periodic, 1);
    let mut reference = sharded.clone();
    for op in 0..4 {
        let (t0, t1) = (op * 8, op * 8 + 8);
        step_both(&session, &mut sharded, &mut reference, t0, t1);
        // Edit both retained slots, including seam and halo rows of every tile.
        for a in [&mut sharded, &mut reference] {
            for x in (0..REUSE_N as i64).step_by(37) {
                a.set(t1, [x], -(x as f64) - op as f64);
                a.set(t1 - 1, [x], 1e3 + x as f64);
            }
        }
    }
}

#[test]
fn reused_tiles_serve_alternating_grids() {
    let session = reuse_session(8);
    let mut grids: Vec<_> = (0..2)
        .map(|seed| {
            let a = heat_grid(Boundary::Periodic, seed);
            (a.clone(), a)
        })
        .collect();
    for op in 0..3 {
        for (sharded, reference) in &mut grids {
            step_both(&session, sharded, reference, op * 8, op * 8 + 8);
        }
    }
}

#[test]
fn reused_tiles_take_the_new_grids_boundary() {
    // Periodic (cyclic halos) and non-periodic boundaries tile differently; two
    // non-periodic boundaries share a plan, so the second reuses the first's tiles
    // and must re-register its own boundary (a coordinate-dependent one rebased).
    let session = reuse_session(8);
    let boundaries = [
        Boundary::Periodic,
        Boundary::constant_fn(|t, x: [i64; 1]| (t * 5 - x[0] * 3) as f64 * 0.125),
        Boundary::Constant(-4.0),
        Boundary::constant_fn(|t, x: [i64; 1]| (x[0] * 7 + t) as f64),
        Boundary::Clamp,
    ];
    for (seed, boundary) in boundaries.into_iter().enumerate() {
        let mut sharded = heat_grid(boundary, seed);
        let mut reference = sharded.clone();
        step_both(&session, &mut sharded, &mut reference, 0, 8);
        step_both(&session, &mut sharded, &mut reference, 8, 16);
    }
}

#[test]
fn reused_tiles_carry_all_three_wave_slots() {
    let session = CompiledStencil::new(
        wave3d_spec(),
        Wave3D,
        ExecutionPlan::trap()
            .with_coarsening(Coarsening::new(2, [2, 4, 4]))
            .with_sharding(Sharding::Tiles(3)),
        [14, 9, 8],
        4,
    );
    for boundary in [Boundary::Periodic, Boundary::Constant(0.5)] {
        let mut sharded = PochoirArray::<f64, 3>::with_depth([14, 9, 8], 2);
        sharded.register_boundary(boundary);
        let bump = |x: [i64; 3]| ((x[0] * 5 + x[1] * 3 + x[2]) % 11) as f64 * 0.25;
        sharded.fill_time_slice(0, bump);
        sharded.fill_time_slice(1, |x| bump(x) * 0.5);
        let mut reference = sharded.clone();
        for op in 0..3 {
            step_both(
                &session,
                &mut sharded,
                &mut reference,
                1 + op * 4,
                5 + op * 4,
            );
        }
    }
}

#[test]
fn a_height_change_replaces_the_spare() {
    // The window follows the run's height, so each height is its own plan: the
    // spare is replaced on every change and taken again on a repeat.
    let session = reuse_session(8);
    let mut sharded = heat_grid(Boundary::Constant(2.0), 3);
    let mut reference = sharded.clone();
    let mut t = 0;
    for height in [8, 5, 5, 8, 3, 8] {
        step_both(&session, &mut sharded, &mut reference, t, t + height);
        t += height;
    }
}

#[test]
fn concurrent_sharded_runs_on_one_session() {
    // At most one run holds the spare; the other allocates its own tiles, and the
    // last to finish leaves its tiles behind.
    let session = reuse_session(8);
    std::thread::scope(|scope| {
        for seed in 0..2 {
            let session = &session;
            scope.spawn(move || {
                let mut sharded = heat_grid(Boundary::Periodic, seed);
                let mut reference = sharded.clone();
                for op in 0..6 {
                    step_both(session, &mut sharded, &mut reference, op * 8, op * 8 + 8);
                }
            });
        }
    });
}
