//! Loop-nest engines: the paper's Figure 1 baseline (serial and `cilk_for`-parallel) and
//! a space-blocked variant standing in for the Berkeley autotuner's tuned loop nests.
//!
//! The loop engines use the same ghost-cell-style optimization the paper grants its
//! baselines: the bulk of the domain (every point whose whole stencil footprint stays
//! in-domain) runs the fast interior clone, and only the thin boundary shell pays for
//! boundary handling — by ghost rows ([`BoundaryView`]), so the shell runs the kernel's
//! row body too.  Under `CloneMode::AlwaysBoundary` every box, interior and shell, runs
//! the per-access boundary clone instead.

use crate::engine::base::execute_box;
use crate::engine::plan::{BaseCase, CloneMode, ExecutionPlan, IndexMode};
use crate::grid::RawGrid;
use crate::kernel::{StencilKernel, StencilSpec};
use crate::view::{BoundaryView, CheckedInteriorView, GridAccess, InteriorView};
use pochoir_runtime::Parallelism;

/// An axis-aligned spatial box `[lo, hi)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpatialBox<const D: usize> {
    /// Inclusive lower corner.
    pub lo: [i64; D],
    /// Exclusive upper corner.
    pub hi: [i64; D],
}

impl<const D: usize> SpatialBox<D> {
    /// Whether the box contains no points.
    pub fn is_empty(&self) -> bool {
        (0..D).any(|i| self.hi[i] <= self.lo[i])
    }

    /// Number of points in the box.
    pub fn len(&self) -> u128 {
        if self.is_empty() {
            0
        } else {
            (0..D).map(|i| (self.hi[i] - self.lo[i]) as u128).product()
        }
    }
}

/// Splits the domain `[0, sizes)` into the interior box (every point at least `reach`
/// away from every face) and a disjoint set of boundary-shell boxes.
pub fn interior_and_shell<const D: usize>(
    sizes: [i64; D],
    reach: [i64; D],
) -> (SpatialBox<D>, Vec<SpatialBox<D>>) {
    let mut interior = SpatialBox {
        lo: [0; D],
        hi: [0; D],
    };
    for i in 0..D {
        interior.lo[i] = reach[i];
        interior.hi[i] = sizes[i] - reach[i];
    }
    if interior.is_empty() {
        // Domain too small for an interior region: everything is shell.
        let whole = SpatialBox {
            lo: [0; D],
            hi: sizes,
        };
        return (
            SpatialBox {
                lo: [0; D],
                hi: [0; D],
            },
            vec![whole],
        );
    }
    // Disjoint shell decomposition: for axis i, the two slabs outside the interior range
    // of axis i, restricted to the interior range on axes < i and the full range on axes
    // > i.
    let mut shell = Vec::with_capacity(2 * D);
    for i in 0..D {
        for (lo_i, hi_i) in [(0, reach[i]), (sizes[i] - reach[i], sizes[i])] {
            let mut b = SpatialBox {
                lo: [0; D],
                hi: sizes,
            };
            b.lo[i] = lo_i;
            b.hi[i] = hi_i;
            for j in 0..i {
                b.lo[j] = interior.lo[j];
                b.hi[j] = interior.hi[j];
            }
            if !b.is_empty() {
                shell.push(b);
            }
        }
    }
    (interior, shell)
}

/// Runs the loop-nest engine for kernel-invocation times `[t0, t1)`.
///
/// `blocked` selects the space-blocked variant; otherwise the interior is parallelized by
/// slabs of the outermost spatial dimension, which is how the paper's `cilk_for` baseline
/// is written.
#[allow(clippy::too_many_arguments)]
pub fn run_loops<T, K, P, const D: usize>(
    grid: RawGrid<'_, T, D>,
    spec: &StencilSpec<D>,
    kernel: &K,
    t0: i64,
    t1: i64,
    plan: &ExecutionPlan<D>,
    par: &P,
    blocked: bool,
) where
    T: Copy + Send + Sync,
    K: StencilKernel<T, D>,
    P: Parallelism,
{
    let sizes = grid.sizes();
    let reach = spec.reach();
    let (interior, shell) = interior_and_shell(sizes, reach);
    let force_boundary = plan.clone_mode == CloneMode::AlwaysBoundary;

    for t in t0..t1 {
        // Interior bulk.
        if !interior.is_empty() && !force_boundary {
            if blocked {
                run_interior_blocked(grid, kernel, t, &interior, plan, par);
            } else {
                run_interior_slabs(grid, kernel, t, &interior, plan, par);
            }
        } else if !interior.is_empty() {
            // Modular-indexing ablation: run the interior through the boundary clone.
            let view = BoundaryView::per_access(grid);
            execute_box(
                kernel,
                &view,
                t,
                interior.lo,
                interior.hi,
                Some(sizes),
                plan.base_case,
            );
        }
        // Boundary shell (small): processed in parallel over shell boxes.
        par.for_each(&shell, |b| {
            // Built per box, on the thread that walks it: the row view is not `Sync`.
            let view = if force_boundary {
                BoundaryView::per_access(grid)
            } else {
                BoundaryView::new(grid)
            };
            execute_box(kernel, &view, t, b.lo, b.hi, Some(sizes), plan.base_case);
        });
    }
}

fn run_interior_slabs<T, K, P, const D: usize>(
    grid: RawGrid<'_, T, D>,
    kernel: &K,
    t: i64,
    interior: &SpatialBox<D>,
    plan: &ExecutionPlan<D>,
    par: &P,
) where
    T: Copy + Send + Sync,
    K: StencilKernel<T, D>,
    P: Parallelism,
{
    let rows = (interior.hi[0] - interior.lo[0]) as usize;
    if D == 1 {
        // The outermost axis is the unit-stride axis: slabs of it would be one-point
        // rows.  Cut the single row into one contiguous chunk per worker instead.
        let tasks = par.num_workers().clamp(1, rows);
        par.parallel_for(tasks, 1, |k| {
            let mut lo = interior.lo;
            let mut hi = interior.hi;
            lo[0] = interior.lo[0] + (rows * k / tasks) as i64;
            hi[0] = interior.lo[0] + (rows * (k + 1) / tasks) as i64;
            dispatch_interior(grid, kernel, t, lo, hi, plan.index_mode, plan.base_case);
        });
        return;
    }
    par.parallel_for(rows, plan.grain, |r| {
        let mut lo = interior.lo;
        let mut hi = interior.hi;
        lo[0] = interior.lo[0] + r as i64;
        hi[0] = lo[0] + 1;
        dispatch_interior(grid, kernel, t, lo, hi, plan.index_mode, plan.base_case);
    });
}

fn run_interior_blocked<T, K, P, const D: usize>(
    grid: RawGrid<'_, T, D>,
    kernel: &K,
    t: i64,
    interior: &SpatialBox<D>,
    plan: &ExecutionPlan<D>,
    par: &P,
) where
    T: Copy + Send + Sync,
    K: StencilKernel<T, D>,
    P: Parallelism,
{
    // Enumerate blocks of extent `plan.block` covering the interior box.
    let mut counts = [0usize; D];
    let mut total = 1usize;
    for (i, count) in counts.iter_mut().enumerate() {
        let extent = (interior.hi[i] - interior.lo[i]) as usize;
        let b = plan.block[i].max(1);
        *count = extent.div_ceil(b);
        total *= *count;
    }
    par.parallel_for(total, 1, |linear| {
        let mut rem = linear;
        let mut lo = interior.lo;
        let mut hi = interior.hi;
        for i in (0..D).rev() {
            let bi = rem % counts[i];
            rem /= counts[i];
            let b = plan.block[i].max(1) as i64;
            lo[i] = interior.lo[i] + bi as i64 * b;
            hi[i] = (lo[i] + b).min(interior.hi[i]);
        }
        dispatch_interior(grid, kernel, t, lo, hi, plan.index_mode, plan.base_case);
    });
}

#[inline]
fn dispatch_interior<T, K, const D: usize>(
    grid: RawGrid<'_, T, D>,
    kernel: &K,
    t: i64,
    lo: [i64; D],
    hi: [i64; D],
    index_mode: IndexMode,
    base_case: BaseCase,
) where
    T: Copy + Send + Sync,
    K: StencilKernel<T, D>,
{
    match index_mode {
        IndexMode::Unchecked => {
            let view = InteriorView::new(grid);
            execute_box(kernel, &view, t, lo, hi, None, base_case);
        }
        IndexMode::Checked => {
            let view = CheckedInteriorView::new(grid);
            execute_box(kernel, &view, t, lo, hi, None, base_case);
        }
    }
}

/// Runs the loop-nest engine through an arbitrary access view (used by the cache-tracing
/// experiments, which need to observe every access, and by the Phase-1 interpreter).
pub fn run_loops_with_view<T, K, A, const D: usize>(
    view: &A,
    sizes: [i64; D],
    kernel: &K,
    t0: i64,
    t1: i64,
    base_case: BaseCase,
) where
    T: Copy,
    K: StencilKernel<T, D>,
    A: GridAccess<T, D>,
{
    for t in t0..t1 {
        execute_box(kernel, view, t, [0; D], sizes, None, base_case);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::Boundary;
    use crate::grid::PochoirArray;
    use crate::shape::star_shape;
    use pochoir_runtime::Serial;

    struct Heat1D;
    impl StencilKernel<f64, 1> for Heat1D {
        fn update<A: GridAccess<f64, 1>>(&self, g: &A, t: i64, x: [i64; 1]) {
            let v =
                0.25 * g.get(t, [x[0] - 1]) + 0.5 * g.get(t, [x[0]]) + 0.25 * g.get(t, [x[0] + 1]);
            g.set(t + 1, x, v);
        }
    }

    struct Heat2D;
    impl StencilKernel<f64, 2> for Heat2D {
        fn update<A: GridAccess<f64, 2>>(&self, g: &A, t: i64, x: [i64; 2]) {
            let c = g.get(t, x);
            let v = c
                + 0.1 * (g.get(t, [x[0] - 1, x[1]]) + g.get(t, [x[0] + 1, x[1]]) - 2.0 * c)
                + 0.1 * (g.get(t, [x[0], x[1] - 1]) + g.get(t, [x[0], x[1] + 1]) - 2.0 * c);
            g.set(t + 1, x, v);
        }
    }

    #[test]
    fn interior_and_shell_partition_the_domain() {
        let (interior, shell) = interior_and_shell([8, 8], [1, 1]);
        assert_eq!(interior.lo, [1, 1]);
        assert_eq!(interior.hi, [7, 7]);
        let total: u128 = interior.len() + shell.iter().map(|b| b.len()).sum::<u128>();
        assert_eq!(total, 64);
        // Check disjointness by membership counting.
        for x0 in 0..8i64 {
            for x1 in 0..8i64 {
                let in_interior = (1..7).contains(&x0) && (1..7).contains(&x1);
                let shell_count = shell
                    .iter()
                    .filter(|b| (0..2).all(|i| [x0, x1][i] >= b.lo[i] && [x0, x1][i] < b.hi[i]))
                    .count();
                assert_eq!(shell_count, usize::from(!in_interior), "({x0},{x1})");
            }
        }
    }

    #[test]
    fn tiny_domain_is_all_shell() {
        let (interior, shell) = interior_and_shell([2, 2], [1, 1]);
        assert!(interior.is_empty());
        assert_eq!(shell.len(), 1);
        assert_eq!(shell[0].len(), 4);
    }

    #[test]
    fn loops_match_reference_1d() {
        let n = 32usize;
        let steps = 5;
        // Reference: straightforward double-buffered loop.
        let mut prev: Vec<f64> = (0..n).map(|i| (i * i % 17) as f64).collect();
        for _ in 0..steps {
            let mut next = prev.clone();
            for i in 0..n {
                let left = if i == 0 { 0.0 } else { prev[i - 1] };
                let right = if i + 1 == n { 0.0 } else { prev[i + 1] };
                next[i] = 0.25 * left + 0.5 * prev[i] + 0.25 * right;
            }
            prev = next;
        }

        let mut a: PochoirArray<f64, 1> = PochoirArray::new([n]);
        a.register_boundary(Boundary::Constant(0.0));
        a.fill_time_slice(0, |x| ((x[0] * x[0]) % 17) as f64);
        let spec = StencilSpec::new(star_shape::<1>(1));
        let plan = ExecutionPlan::loops_serial();
        {
            let raw = a.raw();
            run_loops(raw, &spec, &Heat1D, 0, steps as i64, &plan, &Serial, false);
        }
        for (i, &expected) in prev.iter().enumerate() {
            let got = a.get(steps as i64, [i as i64]);
            assert!((got - expected).abs() < 1e-12, "i={i}: {got} vs {expected}");
        }
    }

    #[test]
    fn one_dimensional_loops_issue_a_row_call_per_task_not_per_point() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// `Heat1D` that counts its row dispatches.
        struct CountingRows(AtomicUsize);
        impl StencilKernel<f64, 1> for CountingRows {
            fn update<A: GridAccess<f64, 1>>(&self, g: &A, t: i64, x: [i64; 1]) {
                Heat1D.update(g, t, x)
            }
            fn update_row<A: GridAccess<f64, 1>>(&self, g: &A, t: i64, x0: [i64; 1], len: i64) {
                self.0.fetch_add(1, Ordering::Relaxed);
                crate::kernel::update_row_pointwise(self, g, t, x0, len);
            }
        }
        const STEPS: i64 = 3;
        fn counted<P: Parallelism>(plan: ExecutionPlan<1>, par: &P) -> (Vec<f64>, usize) {
            let spec = StencilSpec::new(star_shape::<1>(1));
            let mut a: PochoirArray<f64, 1> = PochoirArray::new([1000]);
            a.fill_time_slice(0, |x| (x[0] % 13) as f64);
            let kernel = CountingRows(AtomicUsize::new(0));
            run_loops(a.raw(), &spec, &kernel, 0, STEPS, &plan, par, false);
            (a.snapshot(STEPS), kernel.0.into_inner())
        }
        // Per step: the whole interior row (the two one-cell shell boxes are points).
        let (serial, calls) = counted(ExecutionPlan::loops_serial(), &Serial);
        assert_eq!(calls, STEPS as usize);
        // One interior chunk per worker.
        let rt = pochoir_runtime::Runtime::new(2);
        let (parallel, calls) = counted(ExecutionPlan::loops_parallel(), &rt);
        assert_eq!(calls, 2 * STEPS as usize);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn blocked_and_slab_loops_agree() {
        let n = 24usize;
        let steps = 4i64;
        let init = |x: [i64; 2]| ((x[0] * 31 + x[1] * 7) % 23) as f64;
        let spec = StencilSpec::new(star_shape::<2>(1));

        let mut a: PochoirArray<f64, 2> = PochoirArray::new([n, n]);
        a.register_boundary(Boundary::Periodic);
        a.fill_time_slice(0, init);
        {
            let raw = a.raw();
            run_loops(
                raw,
                &spec,
                &Heat2D,
                0,
                steps,
                &ExecutionPlan::loops_serial(),
                &Serial,
                false,
            );
        }

        let mut b: PochoirArray<f64, 2> = PochoirArray::new([n, n]);
        b.register_boundary(Boundary::Periodic);
        b.fill_time_slice(0, init);
        {
            let raw = b.raw();
            run_loops(
                raw,
                &spec,
                &Heat2D,
                0,
                steps,
                &ExecutionPlan::loops_blocked([8, 8]),
                &Serial,
                true,
            );
        }
        assert_eq!(a.snapshot(steps), b.snapshot(steps));
    }

    #[test]
    fn always_boundary_clone_produces_identical_results() {
        let n = 16usize;
        let steps = 3i64;
        let init = |x: [i64; 2]| (x[0] + 2 * x[1]) as f64;
        let spec = StencilSpec::new(star_shape::<2>(1));

        let mut a: PochoirArray<f64, 2> = PochoirArray::new([n, n]);
        a.register_boundary(Boundary::Clamp);
        a.fill_time_slice(0, init);
        {
            let raw = a.raw();
            run_loops(
                raw,
                &spec,
                &Heat2D,
                0,
                steps,
                &ExecutionPlan::loops_serial(),
                &Serial,
                false,
            );
        }

        let mut b: PochoirArray<f64, 2> = PochoirArray::new([n, n]);
        b.register_boundary(Boundary::Clamp);
        b.fill_time_slice(0, init);
        {
            let raw = b.raw();
            let plan = ExecutionPlan::loops_serial().with_clone_mode(CloneMode::AlwaysBoundary);
            run_loops(raw, &spec, &Heat2D, 0, steps, &plan, &Serial, false);
        }
        assert_eq!(a.snapshot(steps), b.snapshot(steps));
    }

    #[test]
    fn checked_and_unchecked_indexing_agree() {
        let n = 16usize;
        let steps = 3i64;
        let init = |x: [i64; 2]| ((x[0] * x[1]) % 7) as f64;
        let spec = StencilSpec::new(star_shape::<2>(1));
        let mut results = Vec::new();
        for mode in [IndexMode::Unchecked, IndexMode::Checked] {
            let mut a: PochoirArray<f64, 2> = PochoirArray::new([n, n]);
            a.register_boundary(Boundary::Constant(1.0));
            a.fill_time_slice(0, init);
            {
                let raw = a.raw();
                let plan = ExecutionPlan::loops_serial().with_index_mode(mode);
                run_loops(raw, &spec, &Heat2D, 0, steps, &plan, &Serial, false);
            }
            results.push(a.snapshot(steps));
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn parallel_loops_match_serial_loops() {
        let n = 20usize;
        let steps = 4i64;
        let init = |x: [i64; 2]| ((x[0] * 13 + x[1]) % 11) as f64;
        let spec = StencilSpec::new(star_shape::<2>(1));

        let mut a: PochoirArray<f64, 2> = PochoirArray::new([n, n]);
        a.register_boundary(Boundary::Periodic);
        a.fill_time_slice(0, init);
        {
            let raw = a.raw();
            run_loops(
                raw,
                &spec,
                &Heat2D,
                0,
                steps,
                &ExecutionPlan::loops_serial(),
                &Serial,
                false,
            );
        }

        let rt = pochoir_runtime::Runtime::new(2);
        let mut b: PochoirArray<f64, 2> = PochoirArray::new([n, n]);
        b.register_boundary(Boundary::Periodic);
        b.fill_time_slice(0, init);
        {
            let raw = b.raw();
            run_loops(
                raw,
                &spec,
                &Heat2D,
                0,
                steps,
                &ExecutionPlan::loops_parallel(),
                &rt,
                false,
            );
        }
        assert_eq!(a.snapshot(steps), b.snapshot(steps));
    }
}
