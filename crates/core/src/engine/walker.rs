//! The recursive trapezoidal-decomposition walker shared by TRAP and STRAP.
//!
//! The walker implements the control structure of the paper's Figure 2:
//!
//! 1. try a space cut — a *hyperspace* cut (all cuttable dimensions at once) for TRAP, a
//!    single-dimension cut for STRAP;
//! 2. otherwise, if the zoid is still taller than the coarsening threshold, apply a time
//!    cut and walk the lower then the upper subzoid;
//! 3. otherwise run the base case, choosing between the interior and boundary kernel
//!    clones.
//!
//! The walker itself is generic over the base-case callback so that the same recursion
//! drives the executors, the cache-tracing runs of Figure 10, and the write-once
//! verification used in tests.
//!
//! ## Status: reference path
//!
//! Since the compiled-schedule engine
//! ([`ScheduleMode::Compiled`](crate::engine::plan::ScheduleMode), the TRAP/STRAP
//! default) the walker is **demoted to the reference path**: the executor routes runs
//! through it only under [`ScheduleMode::Recursive`](crate::engine::plan::ScheduleMode)
//! — the equivalence-test reference and the fallback for (almost) uncoarsened giant
//! geometries that [`schedule::should_compile`](crate::engine::schedule::should_compile)
//! rejects.  Its leaves execute through the same
//! [`base::execute_leaf`](crate::engine::base::execute_leaf) dispatch as compiled
//! leaves — including segment-level clone resolution — so "reference" means *same
//! bits, re-derived control flow*, not a second semantics.

use crate::engine::plan::Coarsening;
use crate::hyperspace::{hyperspace_cut_params, single_space_cut_params, CutParams, HyperspaceCut};
use crate::zoid::Zoid;
use pochoir_runtime::Parallelism;

/// Applies the space-cut step of the chosen strategy: a hyperspace cut for TRAP, a
/// single-dimension cut for STRAP.  Shared by the walker, the traced serial walk, and the
/// schedule compiler so all three derive identical cut trees.
pub(crate) fn cut_with_strategy<const D: usize>(
    zoid: &Zoid<D>,
    params: &CutParams<D>,
    strategy: CutStrategy,
) -> Option<HyperspaceCut<D>> {
    match strategy {
        CutStrategy::Hyperspace => hyperspace_cut_params(zoid, params),
        CutStrategy::SingleDimension => single_space_cut_params(zoid, params),
    }
}

/// Space-cut strategy: the difference between TRAP and STRAP.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CutStrategy {
    /// Simultaneous parallel space cuts on every cuttable dimension (TRAP).
    Hyperspace,
    /// One space cut at a time (STRAP, the Frigo–Strumpen comparator).
    SingleDimension,
}

/// The recursive walker.  `B` is the base-case callback invoked on every leaf zoid.
pub struct Walker<'a, P, B, const D: usize>
where
    P: Parallelism,
    B: Fn(&Zoid<D>) + Sync,
{
    params: CutParams<D>,
    max_height: i64,
    strategy: CutStrategy,
    par: &'a P,
    base: B,
}

impl<'a, P, B, const D: usize> Walker<'a, P, B, D>
where
    P: Parallelism,
    B: Fn(&Zoid<D>) + Sync,
{
    /// Creates a walker over an open (non-torus) domain.
    pub fn new(
        slopes: [i64; D],
        coarsening: Coarsening<D>,
        strategy: CutStrategy,
        par: &'a P,
        base: B,
    ) -> Self {
        Self::with_params(
            CutParams::open(slopes, coarsening.dx),
            coarsening.dt,
            strategy,
            par,
            base,
        )
    }

    /// Creates a walker with explicit cut parameters (the production engines use the
    /// unified torus parameters here) and a maximum base-case height.
    pub fn with_params(
        params: CutParams<D>,
        max_height: i64,
        strategy: CutStrategy,
        par: &'a P,
        base: B,
    ) -> Self {
        Walker {
            params,
            max_height,
            strategy,
            par,
            base,
        }
    }

    /// Recursively processes `zoid`.
    pub fn walk(&self, zoid: &Zoid<D>) {
        if zoid.volume() == 0 {
            return;
        }
        if let Some(cut) = cut_with_strategy(zoid, &self.params, self.strategy) {
            self.walk_levels(&cut);
        } else if zoid.height() > self.max_height {
            let (lower, upper) = zoid.time_cut();
            self.walk(&lower);
            self.walk(&upper);
        } else {
            (self.base)(zoid);
        }
    }

    /// Processes the dependency levels of a space cut in order, and the subzoids within
    /// each level in parallel (Lemma 1).
    fn walk_levels(&self, cut: &HyperspaceCut<D>) {
        for level in &cut.levels {
            match level.len() {
                0 => {}
                1 => self.walk(&level[0]),
                2 => {
                    // A two-element level maps directly onto a binary fork-join, which is
                    // exactly the spawn structure Cilk's `cilk_spawn` would produce.
                    let (a, b) = (&level[0], &level[1]);
                    self.par.join(|| self.walk(a), || self.walk(b));
                }
                _ => self.par.for_each(level, |z| self.walk(z)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::plan::Coarsening;
    use pochoir_runtime::Serial;
    use std::sync::Mutex;

    fn collect_leaves<const D: usize>(
        zoid: Zoid<D>,
        slopes: [i64; D],
        coarsening: Coarsening<D>,
        strategy: CutStrategy,
    ) -> Vec<Zoid<D>> {
        let leaves = Mutex::new(Vec::new());
        let walker = Walker::new(slopes, coarsening, strategy, &Serial, |z: &Zoid<D>| {
            leaves.lock().unwrap().push(*z);
        });
        walker.walk(&zoid);
        leaves.into_inner().unwrap()
    }

    #[test]
    fn leaves_cover_the_whole_zoid_exactly_once_trap() {
        let z = Zoid::<2>::full_grid([20, 20], 0, 8);
        let leaves = collect_leaves(z, [1, 1], Coarsening::none(), CutStrategy::Hyperspace);
        let total: u128 = leaves.iter().map(|l| l.volume()).sum();
        assert_eq!(total, z.volume());
        // Spot-check point ownership.
        for &(t, x, y) in &[(0, 0, 0), (3, 7, 11), (7, 19, 19), (5, 10, 0)] {
            let owners = leaves.iter().filter(|l| l.contains(t, [x, y])).count();
            assert_eq!(owners, 1, "point ({t},{x},{y})");
        }
    }

    #[test]
    fn leaves_cover_the_whole_zoid_exactly_once_strap() {
        let z = Zoid::<2>::full_grid([20, 20], 0, 8);
        let leaves = collect_leaves(z, [1, 1], Coarsening::none(), CutStrategy::SingleDimension);
        let total: u128 = leaves.iter().map(|l| l.volume()).sum();
        assert_eq!(total, z.volume());
    }

    #[test]
    fn coarsening_bounds_leaf_sizes() {
        let z = Zoid::<2>::full_grid([64, 64], 0, 32);
        let coarsening = Coarsening::new(4, [16, 16]);
        let leaves = collect_leaves(z, [1, 1], coarsening, CutStrategy::Hyperspace);
        for leaf in &leaves {
            assert!(leaf.height() <= 4, "leaf too tall: {leaf:?}");
        }
        let total: u128 = leaves.iter().map(|l| l.volume()).sum();
        assert_eq!(total, z.volume());
    }

    #[test]
    fn uncoarsened_1d_leaves_are_tiny() {
        let z = Zoid::<1>::full_grid([32], 0, 8);
        let leaves = collect_leaves(z, [1], Coarsening::none(), CutStrategy::Hyperspace);
        let total: u128 = leaves.iter().map(|l| l.volume()).sum();
        assert_eq!(total, z.volume());
        for leaf in &leaves {
            assert!(
                leaf.height() <= 1 || leaf.volume() <= 4,
                "leaf too big: {leaf:?}"
            );
        }
    }

    #[test]
    fn trap_and_strap_cover_identical_point_sets() {
        let z = Zoid::<2>::full_grid([24, 18], 0, 6);
        let trap = collect_leaves(z, [1, 1], Coarsening::none(), CutStrategy::Hyperspace);
        let strap = collect_leaves(z, [1, 1], Coarsening::none(), CutStrategy::SingleDimension);
        let volume = |leaves: &[Zoid<2>]| -> u128 { leaves.iter().map(|l| l.volume()).sum() };
        assert_eq!(volume(&trap), volume(&strap));
        assert_eq!(volume(&trap), z.volume());
    }

    #[test]
    fn parallel_and_serial_walkers_visit_the_same_leaves() {
        let z = Zoid::<2>::full_grid([30, 30], 0, 10);
        let serial = collect_leaves(
            z,
            [1, 1],
            Coarsening::new(2, [8, 8]),
            CutStrategy::Hyperspace,
        );

        let rt = pochoir_runtime::Runtime::new(2);
        let leaves = Mutex::new(Vec::new());
        let walker = Walker::new(
            [1, 1],
            Coarsening::new(2, [8, 8]),
            CutStrategy::Hyperspace,
            &rt,
            |zz: &Zoid<2>| {
                leaves.lock().unwrap().push(*zz);
            },
        );
        walker.walk(&z);
        let mut parallel = leaves.into_inner().unwrap();
        let mut serial_sorted = serial.clone();
        let key = |z: &Zoid<2>| (z.t0, z.t1, z.x0, z.x1, z.dx0, z.dx1);
        parallel.sort_by_key(key);
        serial_sorted.sort_by_key(key);
        assert_eq!(parallel, serial_sorted);
    }
}
