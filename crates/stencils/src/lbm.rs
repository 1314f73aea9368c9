//! A lattice-Boltzmann method (LBM) — the `LBM 3` row of the paper's Figure 3.
//!
//! The paper's LBM benchmark is a 3D lattice-Boltzmann flow solver: a "complex stencil
//! having many states" — each lattice site carries a whole vector of particle
//! distribution functions.  This reproduction implements a D3Q7 BGK (single-relaxation
//! time) lattice: seven distributions per cell (rest + the six axis directions), a
//! streaming step that pulls from the axis neighbours, and a BGK collision relaxing
//! toward the local equilibrium.  The structure — multi-field cells, gather-style
//! streaming, heavy per-point arithmetic — matches what makes LBM interesting as a
//! stencil benchmark, at laptop-friendly cost.

use pochoir_core::prelude::*;

/// Number of discrete velocities in the D3Q7 lattice.
pub const Q: usize = 7;

/// The D3Q7 velocity set: rest plus ±x, ±y, ±z.
pub const VELOCITIES: [[i64; 3]; Q] = [
    [0, 0, 0],
    [1, 0, 0],
    [-1, 0, 0],
    [0, 1, 0],
    [0, -1, 0],
    [0, 0, 1],
    [0, 0, -1],
];

/// Lattice weights of D3Q7 (rest particle 1/4, each direction 1/8).
pub const WEIGHTS: [f64; Q] = [0.25, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125];

/// One lattice site: the seven distribution functions.
pub type Cell = [f64; Q];

/// The D3Q7 BGK stream-and-collide kernel.
#[derive(Clone, Copy, Debug)]
pub struct LbmKernel {
    /// BGK relaxation parameter ω ∈ (0, 2).
    pub omega: f64,
}

impl Default for LbmKernel {
    fn default() -> Self {
        LbmKernel { omega: 1.2 }
    }
}

impl StencilKernel<Cell, 3> for LbmKernel {
    #[inline]
    fn update<A: GridAccess<Cell, 3>>(&self, g: &A, t: i64, x: [i64; 3]) {
        // Streaming: distribution q arrives from the neighbour opposite to its velocity.
        let mut f = [0.0f64; Q];
        for (q, v) in VELOCITIES.iter().enumerate() {
            let src = [x[0] - v[0], x[1] - v[1], x[2] - v[2]];
            f[q] = g.get(t, src)[q];
        }
        // Macroscopic density and momentum.
        let rho: f64 = f.iter().sum();
        let mut u = [0.0f64; 3];
        for (q, v) in VELOCITIES.iter().enumerate() {
            for d in 0..3 {
                u[d] += f[q] * v[d] as f64;
            }
        }
        if rho > 0.0 {
            for d in &mut u {
                *d /= rho;
            }
        }
        // BGK collision toward the (linearised) D3Q7 equilibrium.
        let cs2 = 0.25; // lattice speed of sound squared for D3Q7
        let mut out = [0.0f64; Q];
        for (q, v) in VELOCITIES.iter().enumerate() {
            let cu = (0..3).map(|d| v[d] as f64 * u[d]).sum::<f64>();
            let feq = WEIGHTS[q] * rho * (1.0 + cu / cs2);
            out[q] = f[q] + self.omega * (feq - f[q]);
        }
        g.set(t + 1, x, out);
    }

    /// Row-oriented interior clone exercising the multi-field-per-cell row ABI:
    /// five row addresses resolved once (the extended unit-stride row carrying the
    /// rest and ±z distributions, plus the four ±x/±y legs), then a slice-walking
    /// loop computing the same expression in the same order as
    /// [`LbmKernel::update`] — results stay bitwise identical.
    fn update_row<A: GridAccess<Cell, 3>>(&self, g: &A, t: i64, x0: [i64; 3], len: i64) {
        if len <= 0 {
            return;
        }
        let n = len as usize;
        'fast: {
            // Safety (row contract): the write row is in-domain (the view answers
            // `None` otherwise) and read rows leave the domain only on a boundary view;
            // reads are of slice `t`, the write row of distinct slice `t+1`.
            let (Some(mut out), Some(center)) = (unsafe {
                (
                    g.row_out(t + 1, x0, n),
                    g.row(t, [x0[0], x0[1], x0[2] - 1], n + 2),
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
            let cs2 = 0.25;
            for i in 0..n {
                // Streaming: q arrives from the neighbour opposite its velocity —
                // rest from the centre, ±x/±y from the resolved legs, ±z from the
                // extended centre row (q5 streams from z−1, q6 from z+1).
                let f: [f64; Q] = [
                    center[i + 1][0],
                    xm[i][1],
                    xp[i][2],
                    ym[i][3],
                    yp[i][4],
                    center[i][5],
                    center[i + 2][6],
                ];
                let rho: f64 = f.iter().sum();
                let mut u = [0.0f64; 3];
                for (q, v) in VELOCITIES.iter().enumerate() {
                    for d in 0..3 {
                        u[d] += f[q] * v[d] as f64;
                    }
                }
                if rho > 0.0 {
                    for d in &mut u {
                        *d /= rho;
                    }
                }
                let mut next = [0.0f64; Q];
                for (q, v) in VELOCITIES.iter().enumerate() {
                    let cu = (0..3).map(|d| v[d] as f64 * u[d]).sum::<f64>();
                    let feq = WEIGHTS[q] * rho * (1.0 + cu / cs2);
                    next[q] = f[q] + self.omega * (feq - f[q]);
                }
                out.set(i, next);
            }
            return;
        }
        update_row_pointwise(self, g, t, x0, len);
    }
}

/// The LBM stencil shape: the 7-point star of radius 1 (each distribution streams from an
/// axis neighbour).
pub fn shape() -> Shape<3> {
    star_shape::<3>(1)
}

/// TRAP/STRAP base-case coarsening tuned for the D3Q7 LBM kernel under the compiled
/// schedule path: the unit-stride dimension stays uncut so the multi-field row kernel
/// gets full-width rows, with 8×8 tiles on the outer axes (the 56-byte cells make rows
/// heavy enough that small slabs already amortize the per-leaf overhead).
pub fn tuned_coarsening() -> Coarsening<3> {
    Coarsening::new(5, [8, 8, 1000])
}

fn tuned_plan() -> ExecutionPlan<3> {
    ExecutionPlan::trap().with_coarsening(tuned_coarsening())
}

/// A reusable executor session for the D3Q7 LBM kernel: TRAP on the compiled-schedule
/// path with the tuned coarsening preset, pre-compiled for windows of height `window`
/// on lattices of extent `sizes`.
pub fn session(sizes: [usize; 3], window: i64) -> CompiledStencil<Cell, LbmKernel, 3> {
    CompiledStencil::new(
        StencilSpec::new(shape()),
        LbmKernel::default(),
        tuned_plan(),
        sizes,
        window,
    )
}

/// A serving preset for the D3Q7 LBM kernel: a [`StencilServer`] over the tuned TRAP
/// plan, its program shared process-wide through the session registry.  Submit many
/// same-extent lattices, then `try_drain()` to run them as a pipelined multi-tenant
/// workload in `window`-step chunks.
///
/// Invalid geometry (or a compile-failed registry key) surfaces as a typed
/// [`ServeError`].
pub fn try_serve(
    sizes: [usize; 3],
    window: i64,
) -> Result<StencilServer<Cell, LbmKernel, 3>, ServeError> {
    StencilServer::try_new(
        StencilSpec::new(shape()),
        LbmKernel::default(),
        tuned_plan(),
        sizes,
        window,
    )
}

/// Builds a periodic box at rest with a density perturbation in the middle.
pub fn build(sizes: [usize; 3]) -> PochoirArray<Cell, 3> {
    let mut a: PochoirArray<Cell, 3> = PochoirArray::new(sizes);
    a.register_boundary(Boundary::Periodic);
    // `initial_density` term by term: each axis's squared offset once per index,
    // summed in its order.
    let squares: [Vec<f64>; 3] = std::array::from_fn(|d| {
        let (n, c) = (sizes[d] as f64, (sizes[d] as f64 - 1.0) / 2.0);
        (0..sizes[d])
            .map(|i| {
                let dx = (i as f64 - c) / n;
                dx * dx
            })
            .collect()
    });
    a.for_each_row_mut(0, |x, row| {
        let r2 = 0.0 + squares[0][x[0] as usize] + squares[1][x[1] as usize];
        for (cell, &s) in row.iter_mut().zip(&squares[2]) {
            *cell = equilibrium_cell(1.0 + 0.1 * (-20.0 * (r2 + s)).exp());
        }
    });
    a
}

/// Initial density field: 1.0 plus a centred bump.
pub fn initial_density(sizes: [usize; 3], x: [i64; 3]) -> f64 {
    let mut r2 = 0.0;
    for d in 0..3 {
        let c = (sizes[d] as f64 - 1.0) / 2.0;
        let dx = (x[d] as f64 - c) / sizes[d] as f64;
        r2 += dx * dx;
    }
    1.0 + 0.1 * (-20.0 * r2).exp()
}

/// A cell at rest with the given density.
pub fn equilibrium_cell(rho: f64) -> Cell {
    let mut c = [0.0; Q];
    for q in 0..Q {
        c[q] = WEIGHTS[q] * rho;
    }
    c
}

/// Total mass (sum of all distributions) in one time slice — conserved by the update.
pub fn total_mass(a: &PochoirArray<Cell, 3>, t: i64) -> f64 {
    a.snapshot(t).iter().map(|c| c.iter().sum::<f64>()).sum()
}

/// The paper's Figure 3 problem size: 100×100×130 for 3,000 steps.
pub const PAPER_SIZE: ([usize; 3], i64) = ([100, 100, 130], 3000);

#[cfg(test)]
mod tests {
    use super::*;
    use pochoir_core::engine::{run, Coarsening, EngineKind, ExecutionPlan};
    use pochoir_runtime::Serial;

    #[test]
    fn shape_is_radius_one_star() {
        let s = shape();
        assert_eq!(s.slopes(), [1, 1, 1]);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn weights_sum_to_one() {
        assert!((WEIGHTS.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mass_is_conserved_on_a_torus() {
        let sizes = [8usize, 8, 8];
        let spec = StencilSpec::new(shape());
        let mut a = build(sizes);
        let m0 = total_mass(&a, 0);
        run(
            &mut a,
            &spec,
            &LbmKernel::default(),
            0,
            10,
            &ExecutionPlan::trap(),
            &Serial,
        );
        let m1 = total_mass(&a, 10);
        assert!(
            (m0 - m1).abs() < 1e-9 * m0.abs(),
            "mass drifted: {m0} -> {m1}"
        );
    }

    #[test]
    fn engines_agree_bitwise() {
        let sizes = [7usize, 6, 9];
        let steps = 5;
        let spec = StencilSpec::new(shape());
        let k = LbmKernel::default();
        let mut reference = build(sizes);
        run(
            &mut reference,
            &spec,
            &k,
            0,
            steps,
            &ExecutionPlan::loops_serial(),
            &Serial,
        );
        let expected = reference.snapshot(steps);
        for engine in [EngineKind::Trap, EngineKind::Strap] {
            let mut a = build(sizes);
            let plan = ExecutionPlan::new(engine).with_coarsening(Coarsening::new(2, [3, 3, 3]));
            run(&mut a, &spec, &k, 0, steps, &plan, &Serial);
            assert_eq!(a.snapshot(steps), expected, "{engine:?}");
        }
    }

    #[test]
    fn row_and_point_base_cases_are_bitwise_identical() {
        use pochoir_core::engine::BaseCase;
        let sizes = [7usize, 9, 11];
        let steps = 5;
        let spec = StencilSpec::new(shape());
        let k = LbmKernel::default();
        for engine in [EngineKind::Trap, EngineKind::Strap, EngineKind::LoopsSerial] {
            let mut snaps = Vec::new();
            for base_case in [BaseCase::Row, BaseCase::Point] {
                let mut a = build(sizes);
                let plan = ExecutionPlan::new(engine)
                    .with_coarsening(Coarsening::new(2, [3, 3, 4]))
                    .with_base_case(base_case);
                run(&mut a, &spec, &k, 0, steps, &plan, &Serial);
                snaps.push(a.snapshot(steps));
            }
            assert_eq!(snaps[0], snaps[1], "{engine:?}");
        }
    }

    #[test]
    fn session_preset_replays_windows() {
        let s = session([6, 6, 8], 2);
        let mut a = build([6, 6, 8]);
        let m0 = total_mass(&a, 0);
        s.run(&mut a, 0, 4);
        let m1 = total_mass(&a, 4);
        assert!((m0 - m1).abs() < 1e-9 * m0.abs());
    }

    #[test]
    fn uniform_equilibrium_is_a_fixed_point() {
        let sizes = [6usize, 6, 6];
        let spec = StencilSpec::new(shape());
        let mut a: PochoirArray<Cell, 3> = PochoirArray::new(sizes);
        a.register_boundary(Boundary::Periodic);
        a.fill_time_slice(0, |_| equilibrium_cell(1.0));
        run(
            &mut a,
            &spec,
            &LbmKernel::default(),
            0,
            4,
            &ExecutionPlan::trap(),
            &Serial,
        );
        for cell in a.snapshot(4) {
            for q in 0..Q {
                assert!((cell[q] - WEIGHTS[q]).abs() < 1e-12);
            }
        }
    }
}
