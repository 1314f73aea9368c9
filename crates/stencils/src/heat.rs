//! The heat equation (Jacobi update) in 1–4 spatial dimensions — the `Heat 2`, `Heat 2p`
//! and `Heat 4` rows of the paper's Figure 3, and the running example of its Figure 6.

use pochoir_core::prelude::*;

/// Jacobi-style heat kernel in `D` dimensions:
/// `u(t+1,x) = u(t,x) + Σ_d α·(u(t,x−e_d) + u(t,x+e_d) − 2·u(t,x))`.
#[derive(Clone, Copy, Debug)]
pub struct HeatKernel<const D: usize> {
    /// Diffusion coefficient `α·Δt/Δx²` applied along every axis.
    pub alpha: f64,
}

impl<const D: usize> Default for HeatKernel<D> {
    fn default() -> Self {
        // Stable explicit scheme requires alpha*2*D <= 1.
        HeatKernel {
            alpha: 0.4 / D as f64,
        }
    }
}

impl<const D: usize> StencilKernel<f64, D> for HeatKernel<D> {
    #[inline]
    fn update<A: GridAccess<f64, D>>(&self, g: &A, t: i64, x: [i64; D]) {
        let c = g.get(t, x);
        let mut acc = c;
        for d in 0..D {
            let mut lo = x;
            lo[d] -= 1;
            let mut hi = x;
            hi[d] += 1;
            acc += self.alpha * (g.get(t, lo) + g.get(t, hi) - 2.0 * c);
        }
        g.set(t + 1, x, acc);
    }

    /// Row-oriented clone: one address resolution per stencil leg per row, then one
    /// slice-walking loop (`heat_row`), run as its AVX2 copy when this run dispatches
    /// to AVX2.  Computes the exact same floating-point expression in the same order as
    /// [`HeatKernel::update`], so results are bitwise identical; falls back to the
    /// per-point loop on views without row access.
    fn update_row<A: GridAccess<f64, D>>(&self, g: &A, t: i64, x0: [i64; D], len: i64) {
        if len <= 0 {
            return;
        }
        let n = len as usize;
        let last = D - 1;
        'fast: {
            // Safety (row contract): the write row is in-domain (the view answers
            // `None` otherwise) and read rows leave the domain only on a boundary view,
            // which serves ghost rows; all reads target slice `t` while the single
            // write row lives in the distinct slice `t + 1`.
            let Some(mut out) = (unsafe { g.row_out(t + 1, x0, n) }) else {
                break 'fast;
            };
            // The unit-stride leg: the row extended one cell on each side.
            let mut center_start = x0;
            center_start[last] -= 1;
            let Some(center) = (unsafe { g.row(t, center_start, n + 2) }) else {
                break 'fast;
            };
            // One row per off-axis leg; index `last` stays unused.
            let mut lo_rows: [&[f64]; D] = [center; D];
            let mut hi_rows: [&[f64]; D] = [center; D];
            for d in 0..last {
                let mut lo = x0;
                lo[d] -= 1;
                let mut hi = x0;
                hi[d] += 1;
                match unsafe { (g.row(t, lo, n), g.row(t, hi, n)) } {
                    (Some(l), Some(h)) => {
                        lo_rows[d] = l;
                        hi_rows[d] = h;
                    }
                    _ => break 'fast,
                }
            }
            #[cfg(target_arch = "x86_64")]
            if crate::simd::avx2_row() {
                // Safety: `avx2_row` is true only when host detection found AVX2.
                unsafe { heat_row_avx2(self.alpha, center, &lo_rows, &hi_rows, &mut out, n) };
                return;
            }
            heat_row(self.alpha, center, &lo_rows, &hi_rows, &mut out, n);
            return;
        }
        // Per-point path for views without rows (tracing, checked indexing, …).
        update_row_pointwise(self, g, t, x0, len);
    }
}

/// The heat row loop: `center` is the unit-stride leg extended one cell on each side
/// (`n + 2`), `lo`/`hi` hold the off-axis legs (`n` each; index `D − 1` is unused).
/// The same expression in the same order as [`HeatKernel::update`].  Reslicing every
/// leg to its exact length first lets LLVM drop the bounds checks (≈ 5 % of the
/// vectorized loop's speed, docs/performance.md).
#[inline(always)]
fn heat_row<const D: usize>(
    alpha: f64,
    center: &[f64],
    lo: &[&[f64]; D],
    hi: &[&[f64]; D],
    out: &mut RowWriter<'_, f64>,
    n: usize,
) {
    let center = &center[..n + 2];
    let lo = lo.map(|r| &r[..n]);
    let hi = hi.map(|r| &r[..n]);
    for i in 0..n {
        let c = center[i + 1];
        let mut acc = c;
        for d in 0..D - 1 {
            acc += alpha * (lo[d][i] + hi[d][i] - 2.0 * c);
        }
        acc += alpha * (center[i] + center[i + 2] - 2.0 * c);
        out.set(i, acc);
    }
}

/// [`heat_row`] compiled with AVX2 enabled: the same loop, vectorized four lanes wide.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn heat_row_avx2<const D: usize>(
    alpha: f64,
    center: &[f64],
    lo: &[&[f64]; D],
    hi: &[&[f64]; D],
    out: &mut RowWriter<'_, f64>,
    n: usize,
) {
    heat_row(alpha, center, lo, hi, out, n);
}

/// The stencil shape of [`HeatKernel`]: the (2D+1)-point star of radius 1.
pub fn shape<const D: usize>() -> Shape<D> {
    star_shape::<D>(1)
}

/// TRAP/STRAP base-case coarsening tuned for the 2D heat kernel under the compiled
/// schedule path: keep the unit-stride dimension uncut so the row path gets full-width
/// rows — on a torus the compiled executor's segment-level clone resolution keeps them
/// on the interior clone, elsewhere they run the boundary clone's ghost rows through
/// the same row body — and slab the outer dimension at 50 rows.  A persisted host
/// tune profile (see [`pochoir_autotune::profile`]) overrides this default when present.
pub fn tuned_coarsening_2d() -> Coarsening<2> {
    crate::common::profile_coarsening("heat2d", Coarsening::new(5, [50, 4096]))
}

fn tuned_plan_2d() -> ExecutionPlan<2> {
    crate::common::tuned_plan(tuned_coarsening_2d())
}

/// A reusable executor session for the 2D heat kernel: TRAP on the compiled-schedule
/// path with the tuned coarsening preset, pre-compiled for time windows of height
/// `window` on grids of extent `sizes`.  Hold one per geometry and call
/// [`run`](CompiledStencil::run) once per window; repeated windows replay the pinned
/// schedule with zero compilations.
pub fn session_2d(sizes: [usize; 2], window: i64) -> CompiledStencil<f64, HeatKernel<2>, 2> {
    CompiledStencil::new(
        StencilSpec::new(shape::<2>()),
        HeatKernel::<2>::default(),
        tuned_plan_2d(),
        sizes,
        window,
    )
}

/// A serving preset for the 2D heat kernel: a [`StencilServer`] over the tuned TRAP
/// plan whose program is fetched from the process-global session registry — every
/// server (and every `Pochoir` object) of this geometry shares one compiled schedule.
/// Submit many same-extent grids (optionally with per-tenant weights and deadlines via
/// `submit_with`), then `drain()` to run them as a pipelined multi-tenant workload in
/// windows of `window` steps.
///
/// ```
/// use pochoir_core::boundary::Boundary;
/// use pochoir_stencils::heat;
///
/// let mut server = heat::serve_2d([24, 24], 4);
/// for tenant in 0..3 {
///     let mut grid = heat::build([24, 24], Boundary::Periodic);
///     grid.set(0, [tenant, tenant], 100.0);
///     server.submit(grid, 0, 8); // two 4-step windows each
/// }
/// let grids = server.drain(); // ticket order, windows pipelined across tenants
/// assert_eq!(grids.len(), 3);
/// assert_eq!(server.last_drain().unwrap().windows, 6);
/// ```
pub fn serve_2d(sizes: [usize; 2], window: i64) -> StencilServer<f64, HeatKernel<2>, 2> {
    StencilServer::new(
        StencilSpec::new(shape::<2>()),
        HeatKernel::<2>::default(),
        tuned_plan_2d(),
        sizes,
        window,
    )
}

/// Fallible variant of [`serve_2d`]: invalid geometry (or a compile-failed
/// registry key) comes back as a typed [`ServeError`] instead of a panic — the right
/// entry point when geometry arrives from a request rather than from test code.
///
/// ```
/// use pochoir_stencils::heat;
///
/// assert!(heat::try_serve_2d([24, 24], 4).is_ok());
/// assert!(heat::try_serve_2d([0, 24], 4).is_err()); // zero extent: typed, not a panic
/// ```
pub fn try_serve_2d(
    sizes: [usize; 2],
    window: i64,
) -> Result<StencilServer<f64, HeatKernel<2>, 2>, ServeError> {
    StencilServer::try_new(
        StencilSpec::new(shape::<2>()),
        HeatKernel::<2>::default(),
        tuned_plan_2d(),
        sizes,
        window,
    )
}

/// A serving preset for giant 1D heat grids — extents that fail `should_compile`
/// uncoarsened and therefore take the sharded route (see `docs/sharding.md`): an
/// intentionally uncoarsened TRAP plan with `Sharding::Auto`, so
/// [`submit_sharded`](StencilServer::submit_sharded) scatters each submission into
/// halo-exchanged compiled tiles that the drain schedules as one ticket, a round of
/// the tile pipeline per window.
///
/// ```
/// use pochoir_core::boundary::Boundary;
/// use pochoir_core::engine::TicketOutcome;
/// use pochoir_stencils::heat;
///
/// let mut server = heat::serve_giant_1d(600_000, 4);
/// let mut grid = heat::build([600_000], Boundary::Periodic);
/// grid.set(0, [300_000], 100.0);
/// let ticket = server.submit_sharded(grid, 0, 8, Default::default());
/// let results = server.drain(); // two rounds: tiles in parallel, then the exchange
/// assert_eq!(results.len(), 1); // one submission, one array
/// let report = server.last_drain().unwrap();
/// assert_eq!(report.outcomes, [TicketOutcome::Completed]);
/// assert_eq!(results[ticket].snapshot(8).len(), 600_000); // the reassembled giant
/// ```
pub fn serve_giant_1d(n: usize, window: i64) -> StencilServer<f64, HeatKernel<1>, 1> {
    StencilServer::new(
        StencilSpec::new(shape::<1>()),
        HeatKernel::<1>::default(),
        ExecutionPlan::trap().with_coarsening(Coarsening::none()),
        [n],
        window,
    )
}

/// Builds an initialized heat array: a smooth bump plus deterministic pseudo-random
/// noise, with the requested boundary condition.
pub fn build<const D: usize>(
    sizes: [usize; D],
    boundary: Boundary<f64, D>,
) -> PochoirArray<f64, D> {
    let mut a = PochoirArray::new(sizes);
    a.register_boundary(boundary);
    a.fill_time_slice(0, |x| init_value(sizes, x));
    a
}

/// Deterministic initial condition used by every heat benchmark and test.
pub fn init_value<const D: usize>(sizes: [usize; D], x: [i64; D]) -> f64 {
    let mut v = 0.0;
    let mut h = 0u64;
    for d in 0..D {
        let f = x[d] as f64 / sizes[d] as f64;
        v += (std::f64::consts::PI * f).sin();
        h = h
            .wrapping_mul(6364136223846793005)
            .wrapping_add(x[d] as u64 + 1);
    }
    v + (h % 997) as f64 / 997.0
}

/// Reference implementation: a plain double-buffered loop nest with out-of-domain reads
/// resolved through the same boundary object.  Deliberately shares no code with the
/// engines.
pub fn reference<const D: usize>(
    sizes: [usize; D],
    boundary: &Boundary<f64, D>,
    alpha: f64,
    steps: i64,
) -> Vec<f64> {
    let sizes_i: [i64; D] = {
        let mut s = [0i64; D];
        for d in 0..D {
            s[d] = sizes[d] as i64;
        }
        s
    };
    let len: usize = sizes.iter().product();
    let index = |x: [i64; D]| -> usize {
        let mut off = 0usize;
        for d in 0..D {
            off = off * sizes[d] + x[d] as usize;
        }
        off
    };
    let mut prev: Vec<f64> = vec![0.0; len];
    for x in SpaceIter::new(sizes_i) {
        prev[index(x)] = init_value(sizes, x);
    }
    let mut next = prev.clone();
    for _ in 0..steps {
        let read = |_t: i64, x: [i64; D]| prev[index(x)];
        for x in SpaceIter::new(sizes_i) {
            let at = |p: [i64; D]| -> f64 {
                if (0..D).all(|d| p[d] >= 0 && p[d] < sizes_i[d]) {
                    prev[index(p)]
                } else {
                    boundary.resolve(&read, sizes_i, 0, p)
                }
            };
            let c = prev[index(x)];
            let mut acc = c;
            for d in 0..D {
                let mut lo = x;
                lo[d] -= 1;
                let mut hi = x;
                hi[d] += 1;
                acc += alpha * (at(lo) + at(hi) - 2.0 * c);
            }
            next[index(x)] = acc;
        }
        std::mem::swap(&mut prev, &mut next);
    }
    prev
}

/// The paper's Figure 3 problem sizes for the heat benchmarks.
pub mod paper_sizes {
    /// Heat 2 / Heat 2p: 16,000² for 500 steps.
    pub const HEAT_2D: ([usize; 2], i64) = ([16_000, 16_000], 500);
    /// Heat 4: 150⁴ for 100 steps.
    pub const HEAT_4D: ([usize; 4], i64) = ([150, 150, 150, 150], 100);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pochoir_core::engine::{run, Coarsening, ExecutionPlan};
    use pochoir_runtime::Serial;

    fn check_against_reference<const D: usize>(
        sizes: [usize; D],
        steps: i64,
        boundary: Boundary<f64, D>,
    ) {
        let kernel = HeatKernel::<D>::default();
        let reference = reference(sizes, &boundary, kernel.alpha, steps);
        let spec = StencilSpec::new(shape::<D>());
        let mut a = build(sizes, boundary);
        let plan = ExecutionPlan::trap().with_coarsening(Coarsening::new(2, [4; D]));
        run(&mut a, &spec, &kernel, 0, steps, &plan, &Serial);
        let got = a.snapshot(steps);
        assert_eq!(got.len(), reference.len());
        for (i, (g, r)) in got.iter().zip(reference.iter()).enumerate() {
            assert!((g - r).abs() < 1e-9, "mismatch at {i}: {g} vs {r}");
        }
    }

    #[test]
    fn heat_1d_matches_reference() {
        check_against_reference([40], 12, Boundary::Constant(0.0));
    }

    #[test]
    fn heat_2d_periodic_matches_reference() {
        check_against_reference([20, 24], 8, Boundary::Periodic);
    }

    #[test]
    fn heat_2d_dirichlet_matches_reference() {
        check_against_reference([18, 18], 6, Boundary::Constant(1.0));
    }

    #[test]
    fn heat_3d_matches_reference() {
        check_against_reference([10, 12, 9], 5, Boundary::Clamp);
    }

    #[test]
    fn heat_4d_matches_reference() {
        check_against_reference([6, 6, 6, 6], 4, Boundary::Periodic);
    }

    #[test]
    fn row_and_point_base_cases_are_bitwise_identical() {
        use pochoir_core::engine::{BaseCase, EngineKind};
        let kernel = HeatKernel::<2>::default();
        let spec = StencilSpec::new(shape::<2>());
        for engine in [EngineKind::Trap, EngineKind::Strap, EngineKind::LoopsSerial] {
            for boundary in [Boundary::Constant(0.0), Boundary::Periodic, Boundary::Clamp] {
                let mut snaps = Vec::new();
                for base_case in [BaseCase::Row, BaseCase::Point] {
                    let mut a = build([21, 19], boundary.clone());
                    let plan = ExecutionPlan::new(engine)
                        .with_coarsening(Coarsening::new(2, [5, 5]))
                        .with_base_case(base_case);
                    run(&mut a, &spec, &kernel, 0, 7, &plan, &Serial);
                    snaps.push(a.snapshot(7));
                }
                assert_eq!(snaps[0], snaps[1], "{engine:?} {boundary:?}");
            }
        }
    }

    #[test]
    fn update_row_with_nonpositive_len_touches_nothing() {
        // Like the default per-point path, the row override must treat len <= 0 as
        // empty rather than casting it to a huge usize; no grid access may happen.
        struct PanicView;
        impl GridAccess<f64, 2> for PanicView {
            fn get(&self, _t: i64, _x: [i64; 2]) -> f64 {
                panic!("no access expected for empty rows")
            }
            fn set(&self, _t: i64, _x: [i64; 2], _value: f64) {
                panic!("no access expected for empty rows")
            }
            fn size(&self, _dim: usize) -> i64 {
                8
            }
        }
        let kernel = HeatKernel::<2>::default();
        kernel.update_row(&PanicView, 0, [2, 2], 0);
        kernel.update_row(&PanicView, 0, [2, 2], -5);
    }

    #[test]
    fn default_coefficients_are_stable() {
        assert!(HeatKernel::<1>::default().alpha * 2.0 <= 1.0);
        assert!(HeatKernel::<4>::default().alpha * 8.0 <= 1.0);
    }

    #[test]
    fn shape_matches_kernel_reach() {
        let s = shape::<3>();
        assert_eq!(s.slopes(), [1, 1, 1]);
        assert_eq!(s.depth(), 1);
        assert_eq!(s.cells().len(), 2 + 6);
    }

    #[test]
    fn heat_diffusion_smooths_peaks() {
        // Physical sanity: with a constant-0 boundary the total "energy" (max value)
        // decreases over time.
        let sizes = [32usize, 32];
        let boundary = Boundary::Constant(0.0);
        let kernel = HeatKernel::<2>::default();
        let spec = StencilSpec::new(shape::<2>());
        let mut a = build(sizes, boundary);
        let max0 = a.snapshot(0).iter().cloned().fold(f64::MIN, f64::max);
        run(
            &mut a,
            &spec,
            &kernel,
            0,
            30,
            &ExecutionPlan::trap(),
            &Serial,
        );
        let max_t = a.snapshot(30).iter().cloned().fold(f64::MIN, f64::max);
        assert!(max_t < max0);
    }
}
