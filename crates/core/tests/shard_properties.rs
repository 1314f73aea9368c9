//! Property tests for halo-width edge cases of the sharded route: randomized tile
//! partitions (including tiles narrower than the halo), degenerate K=1 plans whose
//! periodic halos wrap onto their own interior, and odd remainder tiles — all
//! checked bitwise against the unsharded run.  The chaos-side counterpart (a tile
//! chain panicking mid-drain) lives in `tests/serving_shard.rs`.

use pochoir_core::boundary::Boundary;
use pochoir_core::engine::shard::ShardPlan;
use pochoir_core::engine::{Coarsening, ExecutionPlan, Sharding};
use pochoir_core::grid::PochoirArray;
use pochoir_core::kernel::{StencilKernel, StencilSpec};
use pochoir_core::shape::star_shape;
use pochoir_core::view::GridAccess;
use pochoir_runtime::Serial;
use proptest::prelude::*;

struct Heat1D;
impl StencilKernel<f64, 1> for Heat1D {
    fn update<A: GridAccess<f64, 1>>(&self, g: &A, t: i64, x: [i64; 1]) {
        let v = 0.25 * g.get(t, [x[0] - 1]) + 0.5 * g.get(t, [x[0]]) + 0.25 * g.get(t, [x[0] + 1]);
        g.set(t + 1, x, v);
    }
}

/// Runs `steps` with and without `shard_plan` from a seeded initial slice and
/// asserts the final state is bitwise identical in every retained time slice —
/// under a coarsened parent plan and an uncoarsened one (whose tiles pick their own
/// base-case size, wider and taller than most of these tiles and windows).
fn check(lens: &[i64], window: i64, steps: i64, periodic: bool, seed: u64) {
    let n0: i64 = lens.iter().sum();
    let spec = StencilSpec::new(star_shape::<1>(1));
    let shard_plan = ShardPlan::new([n0], 1, window, lens, periodic);
    let make = || {
        let mut a = PochoirArray::<f64, 1>::new([n0 as usize]);
        a.register_boundary(if periodic {
            Boundary::Periodic
        } else {
            Boundary::Clamp
        });
        a.fill_time_slice(0, |x| {
            (((x[0] as u64).wrapping_mul(31).wrapping_add(seed)) % 127) as f64 * 0.5
        });
        a
    };

    for coarsening in [Coarsening::new(2, [4]), Coarsening::none()] {
        let plan = ExecutionPlan::trap().with_coarsening(coarsening);
        let mut reference = make();
        pochoir_core::engine::run(&mut reference, &spec, &Heat1D, 0, steps, &plan, &Serial);

        let mut sharded = make();
        shard_plan
            .execute(&mut sharded, &spec, &plan, &Heat1D, 0, steps, &Serial)
            .expect("sharded execution must succeed");

        assert_eq!(sharded.snapshot(steps), reference.snapshot(steps));
        assert_eq!(sharded.snapshot(steps - 1), reference.snapshot(steps - 1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random partitions: tile interiors from 1 row (far narrower than the halo)
    /// up to 23, windows taller than some tiles, both boundary regimes.
    #[test]
    fn random_partition_matches_unsharded(
        k in 1i64..6,
        window in 1i64..6,
        steps in 1i64..14,
        periodic in 0u32..2,
        seed in 0u64..1_000,
    ) {
        // Derive a deterministic partition from the seed (the shim has no
        // collection strategies): k tiles of 1..=23 interior rows each.
        let mut s = seed;
        let lens: Vec<i64> = (0..k)
            .map(|i| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(i as u64 + 1);
                1 + ((s >> 33) % 23) as i64
            })
            .collect();
        check(&lens, window, steps, periodic == 1, seed);
    }
}

/// A tile strictly narrower than the halo: its whole interior is someone else's
/// seam, and with `reach × window = 5` a 2-row tile is re-filled almost entirely
/// by each exchange.
#[test]
fn tile_narrower_than_halo() {
    check(&[2, 50, 48], 5, 15, false, 7);
    check(&[2, 50, 48], 5, 15, true, 7);
}

/// K = 1 degenerate shard: a single periodic tile exchanges its halos with its
/// own interior (the owner lookup resolves to the tile itself).
#[test]
fn single_tile_periodic_self_exchange() {
    check(&[64], 4, 13, true, 11);
    check(&[64], 4, 13, false, 11);
}

/// Odd remainder under auto geometry: the first `n0 % K` tiles get one extra row
/// and the mixed extents still compose bitwise.
#[test]
fn odd_remainder_tiles_match() {
    let plan = ShardPlan::auto(
        [1003],
        1,
        &Coarsening::none(),
        16,
        4,
        false,
        Sharding::Tiles(7),
    )
    .expect("forced tiling yields a plan");
    let lens: Vec<i64> = plan.tiles().iter().map(|t| t.len).collect();
    assert_eq!(lens.iter().sum::<i64>(), 1003);
    // 1003 = 7 × 143 + 2: two remainder tiles take 144 rows, five take 143.
    assert_eq!(
        lens.iter().collect::<std::collections::HashSet<_>>().len(),
        2
    );
    // Step past several windows so the mixed extents exchange more than once.
    check(&lens, plan.window(), 3 * plan.window() + 2, false, 3);
}
