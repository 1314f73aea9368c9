//! Regenerates the Section-4 *base-case coarsening* ablation: the paper reports that a
//! properly coarsened base case improves the 2D heat benchmark by ≈36× over recursing all
//! the way down to single grid points, and describes both the heuristic defaults
//! (100×100×5 in 2D) and the ISAT autotuner integration.
//!
//! This harness times (a) the uncoarsened recursion, (b) the paper-style heuristic
//! coarsening, and (c) an ISAT-style autotuned coarsening found by searching over
//! thresholds with a pilot run as the cost function.

use pochoir_autotune::{tune_coarsening, CoarseningSpace};
use pochoir_bench::apps::time_with_plan;
use pochoir_bench::{fmt_ratio, fmt_seconds, scale_from_args, Table};
use pochoir_core::boundary::Boundary;
use pochoir_core::engine::{Coarsening, ExecutionPlan, Sharding};
use pochoir_core::kernel::StencilSpec;
use pochoir_stencils::{heat, ProblemScale};

fn main() {
    let scale = scale_from_args("ablation_coarsening: base-case coarsening of the recursion");
    let (n, steps, pilot_steps) = match scale {
        ProblemScale::Tiny => (64usize, 16i64, 4i64),
        ProblemScale::Small => (256, 64, 8),
        ProblemScale::Medium => (800, 200, 16),
        ProblemScale::Paper => (5000, 5000, 50),
    };
    let parallel = pochoir_runtime::Runtime::global().num_threads() > 1;
    println!("Section 4 coarsening ablation: 2D nonperiodic heat, {n}x{n}, {steps} steps");
    println!(
        "(paper: coarsening improves the 5000^2 x 5000 run by ~36x; 2D heuristic is 100x100x5)\n"
    );

    let spec = StencilSpec::new(heat::shape::<2>());
    let kernel = heat::HeatKernel::<2>::default();
    let build = || heat::build([n, n], Boundary::Constant(0.0));
    // `Sharding::Off`: from `Small` up the uncoarsened row fails the compiled-path
    // size gate, and the default `Sharding::Auto` would run it through tiles that
    // pick their own (coarsened) base case.  The ablation measures the literal
    // recursion down to the plan's thresholds.
    let run_with = |coarsening: Coarsening<2>, run_steps: i64| {
        time_with_plan(
            build(),
            &spec,
            &kernel,
            run_steps,
            &ExecutionPlan::trap()
                .with_coarsening(coarsening)
                .with_sharding(Sharding::Off),
            parallel,
        )
    };

    // ISAT-style tuning with a short pilot run as the cost function.
    let tuned = tune_coarsening::<2, _>(&CoarseningSpace::quick(), |c| {
        run_with(c, pilot_steps).seconds
    });
    eprintln!(
        "  autotuner picked dt={} dx={:?} after {} evaluations",
        tuned.best.dt, tuned.best.dx, tuned.evaluations
    );

    let uncoarsened = run_with(Coarsening::none(), steps);
    let heuristic = run_with(Coarsening::heuristic(), steps);
    let autotuned = run_with(tuned.best, steps);

    let mut table = Table::new(["base case", "time", "speedup vs uncoarsened"]);
    table.row([
        "uncoarsened (1x1x1)".to_string(),
        fmt_seconds(uncoarsened.seconds),
        "1.00".to_string(),
    ]);
    table.row([
        "heuristic (paper: 100x100, 5 steps)".to_string(),
        fmt_seconds(heuristic.seconds),
        fmt_ratio(uncoarsened.seconds, heuristic.seconds),
    ]);
    table.row([
        format!("autotuned (dt={}, dx={:?})", tuned.best.dt, tuned.best.dx),
        fmt_seconds(autotuned.seconds),
        fmt_ratio(uncoarsened.seconds, autotuned.seconds),
    ]);
    println!("{table}");
    println!("Paper reference: ~36x improvement from proper coarsening.");
}
