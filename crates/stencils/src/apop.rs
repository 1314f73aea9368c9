//! American put option pricing — the `APOP` row of the paper's Figure 3.
//!
//! An American put on a non-dividend stock is priced by backward induction: an explicit
//! finite-difference step of the Black–Scholes PDE on a log-price grid, followed by the
//! early-exercise comparison `V = max(V_continuation, K − S)`.  Each backward time step is
//! a 1-dimensional 3-point stencil with a per-point `max`, which is exactly the shape of
//! the paper's APOP benchmark (a 2,000,000-point grid stepped 10,000 times).

use pochoir_core::prelude::*;
use std::sync::Arc;

/// Market / contract parameters.
#[derive(Clone, Copy, Debug)]
pub struct OptionParams {
    /// Strike price.
    pub strike: f64,
    /// Risk-free rate (per year).
    pub rate: f64,
    /// Volatility (per sqrt-year).
    pub sigma: f64,
    /// Time to expiry in years.
    pub expiry: f64,
    /// Lowest log-price on the grid.
    pub log_s_min: f64,
    /// Highest log-price on the grid.
    pub log_s_max: f64,
}

impl Default for OptionParams {
    fn default() -> Self {
        OptionParams {
            strike: 100.0,
            rate: 0.05,
            sigma: 0.3,
            expiry: 1.0,
            log_s_min: (100.0f64 / 5.0).ln(),
            log_s_max: (100.0f64 * 5.0).ln(),
        }
    }
}

impl OptionParams {
    /// Chooses a log-price grid spacing that keeps the explicit scheme stable *by
    /// construction* for the given grid size and step count (the trinomial-tree spacing
    /// `Δx = σ·√(3·Δt)`), centred on the strike.  This is how large instances such as the
    /// paper's 2,000,000-point APOP run remain well-posed.
    pub fn for_grid(n: usize, steps: i64) -> Self {
        let mut p = OptionParams::default();
        let dt = p.expiry / steps as f64;
        let dx = p.sigma * (3.0 * dt).sqrt();
        let half = dx * (n as f64 - 1.0) / 2.0;
        let centre = p.strike.ln();
        p.log_s_min = centre - half;
        p.log_s_max = centre + half;
        p
    }

    /// The asset price at grid index `i` on an `n`-point grid.
    pub fn price_at(&self, i: usize, n: usize) -> f64 {
        let dx = (self.log_s_max - self.log_s_min) / (n - 1) as f64;
        (self.log_s_min + i as f64 * dx).exp()
    }

    /// Explicit finite-difference coefficients `(down, centre, up)` for an `n`-point grid
    /// and `steps` backward time steps.
    pub fn coefficients(&self, n: usize, steps: i64) -> (f64, f64, f64) {
        let dx = (self.log_s_max - self.log_s_min) / (n - 1) as f64;
        let dt = self.expiry / steps as f64;
        let nu = self.rate - 0.5 * self.sigma * self.sigma;
        let diff = 0.5 * dt * self.sigma * self.sigma / (dx * dx);
        let drift = 0.5 * dt * nu / dx;
        let down = diff - drift;
        let up = diff + drift;
        let centre = 1.0 - 2.0 * diff - dt * self.rate;
        (down, centre, up)
    }

    /// Whether the explicit scheme is stable for this grid/step combination.
    pub fn is_stable(&self, n: usize, steps: i64) -> bool {
        let (down, centre, up) = self.coefficients(n, steps);
        down >= 0.0 && up >= 0.0 && centre >= 0.0
    }

    /// The smallest number of backward steps for which the explicit scheme is stable on an
    /// `n`-point grid (benchmark harnesses clamp their step counts to this).
    pub fn stable_steps(&self, n: usize) -> i64 {
        let mut steps = 1i64;
        while !self.is_stable(n, steps) {
            steps *= 2;
            if steps > 1 << 40 {
                break;
            }
        }
        // Binary-search down for a tighter bound.
        let mut lo = steps / 2;
        let mut hi = steps;
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if self.is_stable(n, mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}

/// The American-put pricing kernel.
#[derive(Clone, Debug)]
pub struct ApopKernel {
    /// Pre-computed immediate-exercise payoff `max(K − Sᵢ, 0)` per grid point.
    pub payoff: Arc<Vec<f64>>,
    /// Down/centre/up finite-difference coefficients.
    pub coeffs: (f64, f64, f64),
}

impl StencilKernel<f64, 1> for ApopKernel {
    #[inline]
    fn update<A: GridAccess<f64, 1>>(&self, g: &A, t: i64, x: [i64; 1]) {
        let (down, centre, up) = self.coeffs;
        let continuation =
            down * g.get(t, [x[0] - 1]) + centre * g.get(t, [x[0]]) + up * g.get(t, [x[0] + 1]);
        let exercise = self.payoff[x[0] as usize];
        g.set(t + 1, x, continuation.max(exercise));
    }

    /// Row-oriented interior clone: one extended unit-stride row plus a slice of the
    /// pre-computed payoff vector, computing the same expression in the same order as
    /// [`ApopKernel::update`] — results stay bitwise identical.
    fn update_row<A: GridAccess<f64, 1>>(&self, g: &A, t: i64, x0: [i64; 1], len: i64) {
        if len <= 0 {
            return;
        }
        let n = len as usize;
        'fast: {
            // Safety (row contract): the write row is in-domain (the view answers
            // `None` otherwise) and the read row may leave the domain only on a boundary
            // view; the read row is of slice `t`, the write row of slice `t+1`.
            let (Some(mut out), Some(center)) =
                (unsafe { (g.row_out(t + 1, x0, n), g.row(t, [x0[0] - 1], n + 2)) })
            else {
                break 'fast;
            };
            let (down, centre, up) = self.coeffs;
            let pay = &self.payoff[x0[0] as usize..x0[0] as usize + n];
            for i in 0..n {
                let continuation = down * center[i] + centre * center[i + 1] + up * center[i + 2];
                out.set(i, continuation.max(pay[i]));
            }
            return;
        }
        update_row_pointwise(self, g, t, x0, len);
    }
}

/// The 3-point shape.
pub fn shape() -> Shape<1> {
    star_shape::<1>(1)
}

/// TRAP/STRAP base-case coarsening tuned for the APOP kernel under the compiled
/// schedule path: wide 1D slabs — the 3-point row kernel is cheap per cell, so large
/// base cases amortize the recursion overhead that dominates narrow 1D stencils.
pub fn tuned_coarsening() -> Coarsening<1> {
    Coarsening::new(16, [4096])
}

fn tuned_plan() -> ExecutionPlan<1> {
    ExecutionPlan::trap().with_coarsening(tuned_coarsening())
}

/// A reusable executor session for the APOP kernel on an `n`-point grid: TRAP on the
/// compiled-schedule path with the tuned coarsening preset, pre-compiled for windows
/// of height `window`.  `steps` is the total backward step count the grid spacing and
/// coefficients are derived from (see [`OptionParams::coefficients`]).
pub fn session(
    params: &OptionParams,
    n: usize,
    steps: i64,
    window: i64,
) -> CompiledStencil<f64, ApopKernel, 1> {
    CompiledStencil::new(
        StencilSpec::new(shape()),
        kernel_for(params, n, steps),
        tuned_plan(),
        [n],
        window,
    )
}

/// A serving preset for the APOP kernel: a [`StencilServer`] over the tuned TRAP plan,
/// its program shared process-wide through the session registry.  Submit many value
/// grids of the same extent (e.g. one per contract scenario), then `try_drain()` to
/// price them as a pipelined multi-tenant workload in `window`-step chunks.
///
/// Invalid geometry (or a compile-failed registry key) surfaces as a typed
/// [`ServeError`].
pub fn try_serve(
    params: &OptionParams,
    n: usize,
    steps: i64,
    window: i64,
) -> Result<StencilServer<f64, ApopKernel, 1>, ServeError> {
    StencilServer::try_new(
        StencilSpec::new(shape()),
        kernel_for(params, n, steps),
        tuned_plan(),
        [n],
        window,
    )
}

/// The kernel the presets build: pre-computed payoff plus the FD coefficients for the
/// given grid/step combination.
fn kernel_for(params: &OptionParams, n: usize, steps: i64) -> ApopKernel {
    ApopKernel {
        payoff: Arc::new(payoff(params, n)),
        coeffs: params.coefficients(n, steps),
    }
}

/// The immediate-exercise payoff vector.
pub fn payoff(params: &OptionParams, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (params.strike - params.price_at(i, n)).max(0.0))
        .collect()
}

/// Builds the value grid at expiry (option value = payoff) with the asymptotic boundary
/// values (deep in the money → `K`, far out of the money → `0`).
pub fn build(params: &OptionParams, n: usize) -> PochoirArray<f64, 1> {
    let pay = payoff(params, n);
    let mut arr = PochoirArray::new([n]);
    let strike = params.strike;
    arr.register_boundary(Boundary::constant_fn(
        move |_t, x| {
            if x[0] < 0 {
                strike
            } else {
                0.0
            }
        },
    ));
    arr.fill_time_slice(0, |x| pay[x[0] as usize]);
    arr
}

/// Reference implementation: plain backward-induction loop.
pub fn reference(params: &OptionParams, n: usize, steps: i64) -> Vec<f64> {
    let pay = payoff(params, n);
    let coeffs = params.coefficients(n, steps);
    let mut prev = pay.clone();
    let mut next = prev.clone();
    for _ in 0..steps {
        for i in 0..n {
            let down_v = if i == 0 { params.strike } else { prev[i - 1] };
            let up_v = if i + 1 == n { 0.0 } else { prev[i + 1] };
            let cont = coeffs.0 * down_v + coeffs.1 * prev[i] + coeffs.2 * up_v;
            next[i] = cont.max(pay[i]);
        }
        std::mem::swap(&mut prev, &mut next);
    }
    prev
}

/// The paper's Figure 3 problem size: 2,000,000 grid points, 10,000 steps.
pub const PAPER_SIZE: (usize, i64) = (2_000_000, 10_000);

/// Prices the option with the requested engine plan; returns the value grid after
/// `steps` backward steps.
pub fn run_apop<P: pochoir_runtime::Parallelism>(
    params: &OptionParams,
    n: usize,
    steps: i64,
    plan: &pochoir_core::engine::ExecutionPlan<1>,
    par: &P,
) -> Vec<f64> {
    let kernel = ApopKernel {
        payoff: Arc::new(payoff(params, n)),
        coeffs: params.coefficients(n, steps),
    };
    let spec = StencilSpec::new(shape());
    let mut arr = build(params, n);
    pochoir_core::engine::run(&mut arr, &spec, &kernel, 0, steps, plan, par);
    arr.snapshot(steps)
}

/// Interpolates the option value at spot price `s` from a value grid.
pub fn value_at_spot(params: &OptionParams, values: &[f64], s: f64) -> f64 {
    let n = values.len();
    let dx = (params.log_s_max - params.log_s_min) / (n - 1) as f64;
    let pos = (s.ln() - params.log_s_min) / dx;
    let i = (pos.floor() as usize).min(n - 2);
    let frac = pos - i as f64;
    values[i] * (1.0 - frac) + values[i + 1] * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use pochoir_core::engine::{Coarsening, EngineKind, ExecutionPlan};
    use pochoir_runtime::Serial;

    const N: usize = 256;
    const STEPS: i64 = 800;

    #[test]
    fn scheme_is_stable_for_test_sizes() {
        assert!(OptionParams::default().is_stable(N, STEPS));
        assert!(OptionParams::default().stable_steps(N) <= STEPS);
    }

    #[test]
    fn for_grid_is_always_stable() {
        for (n, steps) in [(1_000usize, 50i64), (50_000, 500), (2_000_000, 10_000)] {
            let p = OptionParams::for_grid(n, steps);
            assert!(p.is_stable(n, steps), "unstable for n={n}, steps={steps}");
        }
    }

    #[test]
    fn engines_match_reference() {
        let params = OptionParams::default();
        let expected = reference(&params, N, STEPS);
        for engine in [EngineKind::Trap, EngineKind::Strap, EngineKind::LoopsSerial] {
            let plan = ExecutionPlan::new(engine).with_coarsening(Coarsening::new(8, [64]));
            let got = run_apop(&params, N, STEPS, &plan, &Serial);
            for (g, e) in got.iter().zip(expected.iter()) {
                assert!((g - e).abs() < 1e-9, "{engine:?}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn row_and_point_base_cases_are_bitwise_identical() {
        use pochoir_core::engine::BaseCase;
        let params = OptionParams::default();
        for engine in [EngineKind::Trap, EngineKind::Strap, EngineKind::LoopsSerial] {
            let mut snaps = Vec::new();
            for base_case in [BaseCase::Row, BaseCase::Point] {
                let plan = ExecutionPlan::new(engine)
                    .with_coarsening(Coarsening::new(4, [16]))
                    .with_base_case(base_case);
                snaps.push(run_apop(&params, N, STEPS, &plan, &Serial));
            }
            assert_eq!(snaps[0], snaps[1], "{engine:?}");
        }
    }

    #[test]
    fn american_put_is_worth_at_least_intrinsic_value() {
        let params = OptionParams::default();
        let values = run_apop(&params, N, STEPS, &ExecutionPlan::trap(), &Serial);
        let pay = payoff(&params, N);
        for (v, p) in values.iter().zip(pay.iter()) {
            assert!(v + 1e-9 >= *p, "value {v} below intrinsic {p}");
        }
    }

    #[test]
    fn american_put_dominates_european_put_at_the_money() {
        // Against the Black-Scholes closed form for the *European* put: the American
        // value must be at least as large.
        let params = OptionParams::default();
        let values = run_apop(&params, N, STEPS, &ExecutionPlan::trap(), &Serial);
        let spot = 100.0;
        let american = value_at_spot(&params, &values, spot);
        let european = black_scholes_put(
            spot,
            params.strike,
            params.rate,
            params.sigma,
            params.expiry,
        );
        assert!(
            american >= european - 0.05,
            "american {american} < european {european}"
        );
        // And it should be in a sensible range (a rough sanity band around the known
        // at-the-money value of ~10.3 for these parameters).
        assert!(
            american > 8.0 && american < 14.0,
            "american value {american} out of range"
        );
    }

    fn black_scholes_put(s: f64, k: f64, r: f64, sigma: f64, t: f64) -> f64 {
        let d1 = ((s / k).ln() + (r + 0.5 * sigma * sigma) * t) / (sigma * t.sqrt());
        let d2 = d1 - sigma * t.sqrt();
        k * (-r * t).exp() * normal_cdf(-d2) - s * normal_cdf(-d1)
    }

    fn normal_cdf(x: f64) -> f64 {
        0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
    }

    // Abramowitz–Stegun approximation of erf, accurate to ~1e-7.
    fn erf(x: f64) -> f64 {
        let sign = if x < 0.0 { -1.0 } else { 1.0 };
        let x = x.abs();
        let t = 1.0 / (1.0 + 0.3275911 * x);
        let y = 1.0
            - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
                + 0.254829592)
                * t
                * (-x * x).exp();
        sign * y
    }
}
