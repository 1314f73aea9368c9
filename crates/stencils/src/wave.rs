//! The 3D finite-difference wave equation — the `Wave 3` row of the paper's Figure 3 and
//! the 3D benchmark of its Figures 9(b) and 10(b).
//!
//! The wave equation is second order in time, so its stencil has **depth 2**: the update
//! reads both the current and the previous time step, exercising the multi-slice storage
//! and the depth-aware initialization of the framework.

use pochoir_core::prelude::*;

/// Second-order finite-difference wave kernel:
/// `u(t+1) = 2u(t) − u(t−1) + c²·Σ_d (u(t,x−e_d) − 2u(t,x) + u(t,x+e_d))`.
#[derive(Clone, Copy, Debug)]
pub struct WaveKernel {
    /// Squared Courant number `c²·Δt²/Δx²` (must satisfy the CFL condition `3·c² ≤ 1`).
    pub c2: f64,
}

impl Default for WaveKernel {
    fn default() -> Self {
        WaveKernel { c2: 0.25 }
    }
}

impl StencilKernel<f64, 3> for WaveKernel {
    #[inline]
    fn update<A: GridAccess<f64, 3>>(&self, g: &A, t: i64, x: [i64; 3]) {
        let c = g.get(t, x);
        let mut lap = 0.0;
        for d in 0..3 {
            let mut lo = x;
            lo[d] -= 1;
            let mut hi = x;
            hi[d] += 1;
            lap += g.get(t, lo) - 2.0 * c + g.get(t, hi);
        }
        let prev = g.get(t - 1, x);
        g.set(t + 1, x, 2.0 * c - prev + self.c2 * lap);
    }

    /// Row-oriented clone: seven row addresses resolved once (six stencil legs at `t`
    /// plus the centre at `t − 1`), then one slice-walking loop (`wave_row`, run as its
    /// AVX2 copy when this run dispatches to AVX2) computing the same floating-point
    /// expression in the same order as [`WaveKernel::update`].
    fn update_row<A: GridAccess<f64, 3>>(&self, g: &A, t: i64, x0: [i64; 3], len: i64) {
        if len <= 0 {
            return;
        }
        let n = len as usize;
        'fast: {
            // Safety (row contract): the write row is in-domain (the view answers
            // `None` otherwise) and read rows leave the domain only on a boundary view;
            // reads are of slices `t` and `t − 1`, the write row of the distinct slice
            // `t + 1` (three slices for this depth-2 stencil).
            let (Some(mut out), Some(center), Some(prev)) = (unsafe {
                (
                    g.row_out(t + 1, x0, n),
                    g.row(t, [x0[0], x0[1], x0[2] - 1], n + 2),
                    g.row(t - 1, x0, n),
                )
            }) else {
                break 'fast;
            };
            let (Some(xm), Some(xp), Some(ym), Some(yp)) = (unsafe {
                (
                    g.row(t, [x0[0] - 1, x0[1], x0[2]], n),
                    g.row(t, [x0[0] + 1, x0[1], x0[2]], n),
                    g.row(t, [x0[0], x0[1] - 1, x0[2]], n),
                    g.row(t, [x0[0], x0[1] + 1, x0[2]], n),
                )
            }) else {
                break 'fast;
            };
            let legs = [xm, xp, ym, yp];
            #[cfg(target_arch = "x86_64")]
            if crate::simd::avx2_row() {
                // Safety: `avx2_row` is true only when host detection found AVX2.
                unsafe { wave_row_avx2(self.c2, center, prev, legs, &mut out, n) };
                return;
            }
            wave_row(self.c2, center, prev, legs, &mut out, n);
            return;
        }
        update_row_pointwise(self, g, t, x0, len);
    }
}

/// The wave row loop: `center` is the unit-stride leg extended one cell on each side
/// (`n + 2`), `prev` the `t − 1` centre row and `legs` the off-axis legs
/// `[xm, xp, ym, yp]` (`n` each).  The same expression in the same order as
/// [`WaveKernel::update`]; reslicing to exact lengths lets LLVM drop the bounds
/// checks (≈ 8 % of the vectorized loop's speed, docs/performance.md).
#[inline(always)]
fn wave_row(
    c2: f64,
    center: &[f64],
    prev: &[f64],
    legs: [&[f64]; 4],
    out: &mut RowWriter<'_, f64>,
    n: usize,
) {
    let center = &center[..n + 2];
    let prev = &prev[..n];
    let [xm, xp, ym, yp] = legs.map(|r| &r[..n]);
    for i in 0..n {
        let c = center[i + 1];
        let mut lap = 0.0;
        lap += xm[i] - 2.0 * c + xp[i];
        lap += ym[i] - 2.0 * c + yp[i];
        lap += center[i] - 2.0 * c + center[i + 2];
        out.set(i, 2.0 * c - prev[i] + c2 * lap);
    }
}

/// [`wave_row`] compiled with AVX2 enabled: the same loop, vectorized four lanes wide.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn wave_row_avx2(
    c2: f64,
    center: &[f64],
    prev: &[f64],
    legs: [&[f64]; 4],
    out: &mut RowWriter<'_, f64>,
    n: usize,
) {
    wave_row(c2, center, prev, legs, out, n);
}

/// The depth-2 wave shape: the 7-point star at `t`, plus the centre at `t−1`.
pub fn shape() -> Shape<3> {
    let mut cells = vec![ShapeCell::new(1, [0, 0, 0])];
    cells.push(ShapeCell::new(0, [0, 0, 0]));
    for d in 0..3 {
        let mut plus = [0i32; 3];
        plus[d] = 1;
        let mut minus = [0i32; 3];
        minus[d] = -1;
        cells.push(ShapeCell::new(0, plus));
        cells.push(ShapeCell::new(0, minus));
    }
    cells.push(ShapeCell::new(-1, [0, 0, 0]));
    Shape::must(cells)
}

/// TRAP/STRAP base-case coarsening tuned for the 3D wave kernel under the compiled
/// schedule path.  The paper's 3D heuristic (`3×3×1000`) fragments the decomposition
/// into tens of thousands of sliver leaves; 8×8 tiles with the unit-stride dimension
/// uncut keep the leaf count ~64× smaller at slightly better throughput.  (Full-width
/// rows touch both domain ends, so they run the boundary clone — on ghost rows, with the
/// same row body as the interior.)
pub fn tuned_coarsening() -> Coarsening<3> {
    Coarsening::new(8, [8, 8, 1000])
}

fn tuned_plan() -> ExecutionPlan<3> {
    ExecutionPlan::trap().with_coarsening(tuned_coarsening())
}

/// A reusable executor session for the 3D wave kernel: TRAP on the compiled-schedule
/// path with the tuned coarsening preset, pre-compiled for windows of height `window`
/// on grids of extent `sizes`.
pub fn session(sizes: [usize; 3], window: i64) -> CompiledStencil<f64, WaveKernel, 3> {
    CompiledStencil::new(
        StencilSpec::new(shape()),
        WaveKernel::default(),
        tuned_plan(),
        sizes,
        window,
    )
}

/// A serving preset for the 3D wave kernel: a [`StencilServer`] over the tuned TRAP
/// plan, its program shared process-wide through the session registry.  Submit many
/// same-extent grids (optionally with per-tenant weights and deadlines via
/// `try_submit_with`), then `try_drain()` to run them as a pipelined multi-tenant
/// workload in `window`-step chunks.
///
/// Invalid geometry (or a compile-failed registry key) surfaces as a typed
/// [`ServeError`].
pub fn try_serve(
    sizes: [usize; 3],
    window: i64,
) -> Result<StencilServer<f64, WaveKernel, 3>, ServeError> {
    StencilServer::try_new(
        StencilSpec::new(shape()),
        WaveKernel::default(),
        tuned_plan(),
        sizes,
        window,
    )
}

/// Builds the wave array: a Gaussian pulse at the centre, at rest (slices 0 and 1 equal),
/// with clamped (reflecting-ish) boundaries.
pub fn build(sizes: [usize; 3]) -> PochoirArray<f64, 3> {
    let mut a = PochoirArray::with_depth(sizes, 2);
    a.register_boundary(Boundary::Constant(0.0));
    // `init_value` term by term: each axis's squared offset once per index, summed
    // in its order; slice 1 is a copy.
    let squares: [Vec<f64>; 3] = std::array::from_fn(|d| {
        let (n, c) = (sizes[d] as f64, (sizes[d] as f64 - 1.0) / 2.0);
        (0..sizes[d])
            .map(|i| {
                let dx = (i as f64 - c) / (n / 4.0);
                dx * dx
            })
            .collect()
    });
    a.for_each_row_mut(0, |x, row| {
        let r2 = 0.0 + squares[0][x[0] as usize] + squares[1][x[1] as usize];
        for (cell, &s) in row.iter_mut().zip(&squares[2]) {
            *cell = (-(r2 + s)).exp();
        }
    });
    a.copy_time_slice(0, 1);
    a
}

/// Deterministic initial condition: a Gaussian pulse centred in the domain.
pub fn init_value(sizes: [usize; 3], x: [i64; 3]) -> f64 {
    let mut r2 = 0.0;
    for d in 0..3 {
        let c = (sizes[d] as f64 - 1.0) / 2.0;
        let dx = (x[d] as f64 - c) / (sizes[d] as f64 / 4.0);
        r2 += dx * dx;
    }
    (-r2).exp()
}

/// Reference implementation: three explicit buffers (previous, current, next).
pub fn reference(sizes: [usize; 3], c2: f64, steps: i64) -> Vec<f64> {
    let (nx, ny, nz) = (sizes[0] as i64, sizes[1] as i64, sizes[2] as i64);
    let idx = |x: i64, y: i64, z: i64| ((x * ny + y) * nz + z) as usize;
    let at = |buf: &[f64], x: i64, y: i64, z: i64| -> f64 {
        if x < 0 || x >= nx || y < 0 || y >= ny || z < 0 || z >= nz {
            0.0
        } else {
            buf[idx(x, y, z)]
        }
    };
    let len = (nx * ny * nz) as usize;
    let mut prev = vec![0.0f64; len];
    for x in 0..nx {
        for y in 0..ny {
            for z in 0..nz {
                prev[idx(x, y, z)] = init_value(sizes, [x, y, z]);
            }
        }
    }
    let mut curr = prev.clone();
    let mut next = vec![0.0f64; len];
    for _ in 0..steps {
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    let c = curr[idx(x, y, z)];
                    let lap = at(&curr, x - 1, y, z)
                        + at(&curr, x + 1, y, z)
                        + at(&curr, x, y - 1, z)
                        + at(&curr, x, y + 1, z)
                        + at(&curr, x, y, z - 1)
                        + at(&curr, x, y, z + 1)
                        - 6.0 * c;
                    next[idx(x, y, z)] = 2.0 * c - prev[idx(x, y, z)] + c2 * lap;
                }
            }
        }
        std::mem::swap(&mut prev, &mut curr);
        std::mem::swap(&mut curr, &mut next);
    }
    curr
}

/// The paper's Figure 3 problem size: 1,000³ for 500 steps.
pub const PAPER_SIZE: ([usize; 3], i64) = ([1000, 1000, 1000], 500);

#[cfg(test)]
mod tests {
    use super::*;
    use pochoir_core::engine::{run, Coarsening, EngineKind, ExecutionPlan};
    use pochoir_runtime::Serial;

    #[test]
    fn shape_has_depth_two() {
        let s = shape();
        assert_eq!(s.depth(), 2);
        assert_eq!(s.slopes(), [1, 1, 1]);
        assert_eq!(s.time_slices(), 3);
        assert_eq!(s.first_step(), 1);
    }

    #[test]
    fn engines_match_reference() {
        let sizes = [10usize, 9, 8];
        let steps = 6i64;
        let kernel = WaveKernel::default();
        let expected = reference(sizes, kernel.c2, steps);
        let spec = StencilSpec::new(shape());
        let t0 = spec.shape().first_step();
        for engine in [EngineKind::Trap, EngineKind::Strap, EngineKind::LoopsSerial] {
            let mut a = build(sizes);
            let plan = ExecutionPlan::new(engine).with_coarsening(Coarsening::new(2, [3, 3, 3]));
            run(&mut a, &spec, &kernel, t0, t0 + steps, &plan, &Serial);
            let got = a.snapshot(t0 + steps);
            for (g, e) in got.iter().zip(expected.iter()) {
                assert!((g - e).abs() < 1e-9, "{engine:?}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn row_and_point_base_cases_are_bitwise_identical() {
        use pochoir_core::engine::BaseCase;
        let sizes = [11usize, 9, 13];
        let steps = 5i64;
        let kernel = WaveKernel::default();
        let spec = StencilSpec::new(shape());
        let t0 = spec.shape().first_step();
        for engine in [EngineKind::Trap, EngineKind::Strap, EngineKind::LoopsSerial] {
            let mut snaps = Vec::new();
            for base_case in [BaseCase::Row, BaseCase::Point] {
                let mut a = build(sizes);
                let plan = ExecutionPlan::new(engine)
                    .with_coarsening(Coarsening::new(2, [3, 3, 4]))
                    .with_base_case(base_case);
                run(&mut a, &spec, &kernel, t0, t0 + steps, &plan, &Serial);
                snaps.push(a.snapshot(t0 + steps));
            }
            assert_eq!(snaps[0], snaps[1], "{engine:?}");
        }
    }

    #[test]
    fn wave_at_rest_stays_symmetric() {
        let sizes = [12usize, 12, 12];
        let kernel = WaveKernel::default();
        let spec = StencilSpec::new(shape());
        let mut a = build(sizes);
        let t0 = spec.shape().first_step();
        run(
            &mut a,
            &spec,
            &kernel,
            t0,
            t0 + 8,
            &ExecutionPlan::trap(),
            &Serial,
        );
        let snap = a.snapshot(t0 + 8);
        let idx = |x: usize, y: usize, z: usize| (x * 12 + y) * 12 + z;
        // The initial pulse is centred, so the field stays mirror-symmetric about the
        // centre planes (up to floating-point roundoff differences in summation order,
        // which are zero here because both sides compute identical expressions).
        for x in 0..12 {
            for y in 0..12 {
                for z in 0..12 {
                    let mirrored = snap[idx(11 - x, y, z)];
                    assert!((snap[idx(x, y, z)] - mirrored).abs() < 1e-9);
                }
            }
        }
    }
}
