//! Glue between the Figure-3 benchmark applications (`pochoir-stencils`) and the
//! benchmark harness: one entry per table row, each runnable under the four engine
//! configurations of the paper's Figure 3 at any [`ProblemScale`].

use crate::RunStats;
use pochoir_core::boundary::Boundary;
use pochoir_core::engine::{CompiledStencil, ExecutionPlan};
use pochoir_core::grid::PochoirArray;
use pochoir_core::kernel::{StencilKernel, StencilSpec};
use pochoir_runtime::{Runtime, Serial};
use pochoir_stencils::{apop, heat, lbm, lcs, life, points, psa, rna, wave, ProblemScale};
use std::sync::Arc;
use std::time::Instant;

/// The four engine configurations of Figure 3's columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig3Config {
    /// Pochoir (TRAP) restricted to one worker.
    PochoirSerial,
    /// Pochoir (TRAP) on all available workers.
    PochoirParallel,
    /// The serial loop nest of Figure 1.
    LoopsSerial,
    /// Figure 1 with the outer spatial loop parallelized.
    LoopsParallel,
}

impl Fig3Config {
    /// All four configurations in the paper's column order.
    pub const ALL: [Fig3Config; 4] = [
        Fig3Config::PochoirSerial,
        Fig3Config::PochoirParallel,
        Fig3Config::LoopsSerial,
        Fig3Config::LoopsParallel,
    ];

    /// Column header used in the printed table.
    pub fn label(&self) -> &'static str {
        match self {
            Fig3Config::PochoirSerial => "pochoir-1",
            Fig3Config::PochoirParallel => "pochoir-P",
            Fig3Config::LoopsSerial => "loops-serial",
            Fig3Config::LoopsParallel => "loops-P",
        }
    }
}

fn plan_for<const D: usize>(cfg: Fig3Config) -> ExecutionPlan<D> {
    match cfg {
        Fig3Config::PochoirSerial | Fig3Config::PochoirParallel => ExecutionPlan::trap(),
        Fig3Config::LoopsSerial => ExecutionPlan::loops_serial(),
        Fig3Config::LoopsParallel => ExecutionPlan::loops_parallel(),
    }
}

/// [`plan_for`], with the app's measured coarsening preset applied to the Pochoir
/// (TRAP) configurations; the loop baselines ignore coarsening.
fn plan_for_tuned<const D: usize>(
    cfg: Fig3Config,
    tuned: pochoir_core::engine::Coarsening<D>,
) -> ExecutionPlan<D> {
    let mut plan = plan_for::<D>(cfg);
    if matches!(cfg, Fig3Config::PochoirSerial | Fig3Config::PochoirParallel) {
        plan.coarsening = tuned;
    }
    plan
}

/// Runs `kernel` over `array` for `steps` steps under `cfg`, timing the execution.
fn execute<T, K, const D: usize>(
    array: PochoirArray<T, D>,
    spec: &StencilSpec<D>,
    kernel: &K,
    steps: i64,
    cfg: Fig3Config,
) -> RunStats
where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
{
    execute_with_plan(array, spec, kernel, steps, cfg, plan_for::<D>(cfg))
}

/// [`execute`] under an explicit plan (used by the runners with tuned coarsening),
/// timed by [`time_with_plan`]: steady-state replay, schedule compilation excluded.
fn execute_with_plan<T, K, const D: usize>(
    array: PochoirArray<T, D>,
    spec: &StencilSpec<D>,
    kernel: &K,
    steps: i64,
    cfg: Fig3Config,
    plan: ExecutionPlan<D>,
) -> RunStats
where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
{
    let parallel = matches!(cfg, Fig3Config::PochoirParallel | Fig3Config::LoopsParallel);
    time_with_plan(array, spec, kernel, steps, &plan, parallel)
}

/// 2D heat equation (nonperiodic `Heat 2` or periodic `Heat 2p`).
pub fn run_heat2d(periodic: bool, scale: ProblemScale, cfg: Fig3Config) -> RunStats {
    let (paper_sizes, paper_steps) = heat::paper_sizes::HEAT_2D;
    let n = scale.scale_extent(paper_sizes[0]);
    let steps = scale.scale_steps(paper_steps);
    let boundary = if periodic {
        Boundary::Periodic
    } else {
        Boundary::Constant(0.0)
    };
    let array = heat::build([n, n], boundary);
    let spec = StencilSpec::new(heat::shape::<2>());
    let plan = plan_for_tuned(cfg, heat::tuned_coarsening_2d());
    execute_with_plan(
        array,
        &spec,
        &heat::HeatKernel::<2>::default(),
        steps,
        cfg,
        plan,
    )
}

/// 4D heat equation (`Heat 4`).
pub fn run_heat4d(scale: ProblemScale, cfg: Fig3Config) -> RunStats {
    let (paper_sizes, paper_steps) = heat::paper_sizes::HEAT_4D;
    let n = scale.scale_extent(paper_sizes[0] / 4).max(8);
    let steps = scale.scale_steps(paper_steps);
    let array = heat::build([n, n, n, n], Boundary::Constant(0.0));
    let spec = StencilSpec::new(heat::shape::<4>());
    execute(array, &spec, &heat::HeatKernel::<4>::default(), steps, cfg)
}

/// Conway's Game of Life on a torus (`Life 2p`).
pub fn run_life(scale: ProblemScale, cfg: Fig3Config) -> RunStats {
    let (paper_sizes, paper_steps) = life::PAPER_SIZE;
    let n = scale.scale_extent(paper_sizes[0]);
    let steps = scale.scale_steps(paper_steps);
    let array = life::build([n, n], 350);
    let spec = StencilSpec::new(life::shape());
    let plan = plan_for_tuned(cfg, life::tuned_coarsening());
    execute_with_plan(array, &spec, &life::LifeKernel, steps, cfg, plan)
}

/// 3D wave equation (`Wave 3`).
pub fn run_wave3d(scale: ProblemScale, cfg: Fig3Config) -> RunStats {
    let (paper_sizes, paper_steps) = wave::PAPER_SIZE;
    let n = scale.scale_extent(paper_sizes[0] / 8).max(16);
    let steps = scale.scale_steps(paper_steps);
    let array = wave::build([n, n, n]);
    let spec = StencilSpec::new(wave::shape());
    let plan = plan_for_tuned(cfg, wave::tuned_coarsening());
    execute_with_plan(array, &spec, &wave::WaveKernel::default(), steps, cfg, plan)
}

/// Lattice-Boltzmann flow (`LBM 3`).
pub fn run_lbm(scale: ProblemScale, cfg: Fig3Config) -> RunStats {
    let (paper_sizes, paper_steps) = lbm::PAPER_SIZE;
    let nx = scale.scale_extent(paper_sizes[0] / 2).max(12);
    let nz = scale.scale_extent(paper_sizes[2] / 2).max(12);
    let steps = scale.scale_steps(paper_steps / 4);
    let array = lbm::build([nx, nx, nz]);
    let spec = StencilSpec::new(lbm::shape());
    execute(array, &spec, &lbm::LbmKernel::default(), steps, cfg)
}

/// RNA secondary structure (`RNA 2`).
pub fn run_rna(scale: ProblemScale, cfg: Fig3Config) -> RunStats {
    let (paper_n, _paper_steps) = rna::PAPER_SIZE;
    let n = match scale {
        ProblemScale::Tiny => 40,
        ProblemScale::Small => 128,
        ProblemScale::Medium => 200,
        ProblemScale::Paper => paper_n,
    };
    let seq = rna::random_sequence(n, 7);
    let kernel = rna::RnaKernel { seq: Arc::new(seq) };
    let spec = StencilSpec::new(rna::shape());
    let array = rna::build(n);
    execute(array, &spec, &kernel, rna::steps(n), cfg)
}

/// Pairwise sequence alignment (`PSA 1`).
pub fn run_psa(scale: ProblemScale, cfg: Fig3Config) -> RunStats {
    let (paper_m, _) = psa::PAPER_SIZE;
    let n = match scale {
        ProblemScale::Tiny => 200,
        ProblemScale::Small => 2_000,
        ProblemScale::Medium => 10_000,
        ProblemScale::Paper => paper_m,
    };
    let a = lcs::random_sequence(n, 4, 21);
    let b = lcs::random_sequence(n, 4, 22);
    let scoring = psa::Scoring::default();
    let kernel = psa::PsaKernel {
        a: Arc::new(a),
        b: Arc::new(b),
        scoring,
    };
    let spec = StencilSpec::new(psa::shape());
    let array = psa::build(n, scoring);
    execute(array, &spec, &kernel, psa::steps(n, n), cfg)
}

/// Longest common subsequence (`LCS 1`).
pub fn run_lcs(scale: ProblemScale, cfg: Fig3Config) -> RunStats {
    let (paper_m, _) = lcs::PAPER_SIZE;
    let n = match scale {
        ProblemScale::Tiny => 200,
        ProblemScale::Small => 2_000,
        ProblemScale::Medium => 10_000,
        ProblemScale::Paper => paper_m,
    };
    let a = lcs::random_sequence(n, 4, 31);
    let b = lcs::random_sequence(n, 4, 32);
    let kernel = lcs::LcsKernel {
        a: Arc::new(a),
        b: Arc::new(b),
    };
    let spec = StencilSpec::new(lcs::shape());
    let array = lcs::build(n);
    execute(array, &spec, &kernel, lcs::steps(n, n), cfg)
}

/// American put option pricing (`APOP 1`).
pub fn run_apop(scale: ProblemScale, cfg: Fig3Config) -> RunStats {
    let (paper_n, paper_steps) = apop::PAPER_SIZE;
    let (n, steps) = match scale {
        ProblemScale::Tiny => (2_000, 50),
        ProblemScale::Small => (20_000, 500),
        ProblemScale::Medium => (200_000, 2_000),
        ProblemScale::Paper => (paper_n, paper_steps),
    };
    let params = apop::OptionParams::for_grid(n, steps);
    let kernel = apop::ApopKernel {
        payoff: Arc::new(apop::payoff(&params, n)),
        coeffs: params.coefficients(n, steps),
    };
    let spec = StencilSpec::new(apop::shape());
    let array = apop::build(&params, n);
    execute(array, &spec, &kernel, steps, cfg)
}

/// The 3D 7-point Berkeley kernel (Figure 5), run under TRAP or blocked loops.
pub fn run_seven_point(n: usize, steps: i64, plan: &ExecutionPlan<3>, parallel: bool) -> RunStats {
    let array = points::build([n, n, n]);
    let spec = StencilSpec::new(points::seven_point_shape());
    let kernel = points::SevenPointKernel::default();
    time_with_plan(array, &spec, &kernel, steps, plan, parallel)
}

/// The 3D 27-point Berkeley kernel (Figure 5).
pub fn run_twenty_seven_point(
    n: usize,
    steps: i64,
    plan: &ExecutionPlan<3>,
    parallel: bool,
) -> RunStats {
    let array = points::build([n, n, n]);
    let spec = StencilSpec::new(points::twenty_seven_point_shape());
    let kernel = points::TwentySevenPointKernel::default();
    time_with_plan(array, &spec, &kernel, steps, plan, parallel)
}

/// Times a run under an explicit plan (used by the Figure 5 / 13 / ablation harnesses).
///
/// The [`CompiledStencil`] session is built outside the timed window: the measurement
/// is the per-window replay cost, not the one-time schedule compilation.
pub fn time_with_plan<T, K, const D: usize>(
    mut array: PochoirArray<T, D>,
    spec: &StencilSpec<D>,
    kernel: &K,
    steps: i64,
    plan: &ExecutionPlan<D>,
    parallel: bool,
) -> RunStats
where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
{
    let t0 = spec.shape().first_step();
    let points: u128 = array.sizes().iter().map(|&s| s as u128).product();
    let session = CompiledStencil::new(spec.clone(), kernel, *plan, array.sizes(), steps);
    let start = Instant::now();
    if parallel {
        session.run_with(&mut array, t0, t0 + steps, Runtime::global());
    } else {
        session.run_with(&mut array, t0, t0 + steps, &Serial);
    }
    RunStats {
        seconds: start.elapsed().as_secs_f64(),
        points,
        steps,
    }
}

/// One row of Figure 3.
pub struct Fig3Row {
    /// Benchmark name as printed in the paper.
    pub name: &'static str,
    /// Spatial dimensionality (the paper's "Dims" column; `p` marks periodic problems).
    pub dims: &'static str,
    /// The paper's reported 12-core-loops/Pochoir time ratio (for EXPERIMENTS.md).
    pub paper_parallel_loop_ratio: f64,
    /// The paper's reported serial-loops/Pochoir time ratio.
    pub paper_serial_loop_ratio: f64,
    /// Runner.
    pub run: fn(ProblemScale, Fig3Config) -> RunStats,
}

/// All ten rows of Figure 3, in the paper's order, with the paper's reported ratios.
pub const FIG3_ROWS: &[Fig3Row] = &[
    Fig3Row {
        name: "Heat",
        dims: "2",
        paper_parallel_loop_ratio: 6.2,
        paper_serial_loop_ratio: 25.5,
        run: |s, c| run_heat2d(false, s, c),
    },
    Fig3Row {
        name: "Heat",
        dims: "2p",
        paper_parallel_loop_ratio: 10.3,
        paper_serial_loop_ratio: 68.6,
        run: |s, c| run_heat2d(true, s, c),
    },
    Fig3Row {
        name: "Heat",
        dims: "4",
        paper_parallel_loop_ratio: 1.9,
        paper_serial_loop_ratio: 8.0,
        run: run_heat4d,
    },
    Fig3Row {
        name: "Life",
        dims: "2p",
        paper_parallel_loop_ratio: 11.9,
        paper_serial_loop_ratio: 86.4,
        run: run_life,
    },
    Fig3Row {
        name: "Wave",
        dims: "3",
        paper_parallel_loop_ratio: 2.4,
        paper_serial_loop_ratio: 7.1,
        run: run_wave3d,
    },
    Fig3Row {
        name: "LBM",
        dims: "3",
        paper_parallel_loop_ratio: 3.2,
        paper_serial_loop_ratio: 4.5,
        run: run_lbm,
    },
    Fig3Row {
        name: "RNA",
        dims: "2",
        paper_parallel_loop_ratio: 1.3,
        paper_serial_loop_ratio: 6.1,
        run: run_rna,
    },
    Fig3Row {
        name: "PSA",
        dims: "1",
        paper_parallel_loop_ratio: 4.3,
        paper_serial_loop_ratio: 24.0,
        run: run_psa,
    },
    Fig3Row {
        name: "LCS",
        dims: "1",
        paper_parallel_loop_ratio: 3.0,
        paper_serial_loop_ratio: 11.7,
        run: run_lcs,
    },
    Fig3Row {
        name: "APOP",
        dims: "1",
        paper_parallel_loop_ratio: 12.0,
        paper_serial_loop_ratio: 128.8,
        run: run_apop,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fig3_row_runs_at_tiny_scale() {
        for row in FIG3_ROWS {
            let stats = (row.run)(ProblemScale::Tiny, Fig3Config::PochoirSerial);
            assert!(stats.points > 0, "{} produced no points", row.name);
            assert!(stats.steps > 0);
            assert!(stats.seconds >= 0.0);
        }
    }

    #[test]
    fn configs_have_distinct_labels() {
        let labels: std::collections::HashSet<_> =
            Fig3Config::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn seven_point_runner_reports_throughput() {
        let stats = run_seven_point(16, 3, &ExecutionPlan::trap(), false);
        assert_eq!(stats.points, 16 * 16 * 16);
        assert!(stats.gstencils_per_second() >= 0.0);
    }
}
