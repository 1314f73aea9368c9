//! `pochoir-autotune`: reports how far each application's committed coarsening preset
//! is from the best point of a local search on this machine.
//!
//! For each application the sweep hill-climbs the TRAP base-case coarsening from that
//! application's own `tuned_coarsening*()` preset (serial pilot runs, each timing
//! schedule execution only), then prints the preset, the best point found and the
//! best/preset time ratio.  Nothing is persisted: the presets are committed constants,
//! as in the paper, so re-fitting one means editing its literal and measuring the edit
//! with `bash benchmark/run.sh`.
//!
//! Usage: `pochoir-autotune [--scale tiny|small|medium|paper]`

use std::sync::Arc;

use pochoir_autotune::refine_coarsening;
use pochoir_bench::apps::time_with_plan;
use pochoir_bench::{scale_from_args, Table};
use pochoir_core::boundary::Boundary;
use pochoir_core::engine::{Coarsening, ExecutionPlan};
use pochoir_core::grid::PochoirArray;
use pochoir_core::kernel::{StencilKernel, StencilSpec};
use pochoir_stencils::{apop, heat, lbm, life, psa, wave, ProblemScale};

/// Problem sizes per sweep scale: 2D extent/steps, 3D extent/steps, LBM extent/steps,
/// 1D extent/steps, PSA sequence length, and hill-climbing rounds.
struct SweepScale {
    n2: usize,
    s2: i64,
    n3: usize,
    s3: i64,
    lbm_n: usize,
    lbm_s: i64,
    n1: usize,
    s1: i64,
    psa: usize,
    rounds: usize,
}

fn sweep_scale(scale: ProblemScale) -> SweepScale {
    match scale {
        ProblemScale::Tiny => SweepScale {
            n2: 64,
            s2: 8,
            n3: 20,
            s3: 4,
            lbm_n: 12,
            lbm_s: 4,
            n1: 512,
            s1: 64,
            psa: 96,
            rounds: 1,
        },
        ProblemScale::Small => SweepScale {
            n2: 256,
            s2: 16,
            n3: 48,
            s3: 8,
            lbm_n: 24,
            lbm_s: 6,
            n1: 4096,
            s1: 256,
            psa: 400,
            rounds: 2,
        },
        ProblemScale::Medium => SweepScale {
            n2: 768,
            s2: 32,
            n3: 96,
            s3: 12,
            lbm_n: 48,
            lbm_s: 8,
            n1: 16_384,
            s1: 512,
            psa: 1200,
            rounds: 3,
        },
        ProblemScale::Paper => SweepScale {
            n2: 2048,
            s2: 64,
            n3: 160,
            s3: 16,
            lbm_n: 72,
            lbm_s: 12,
            n1: 65_536,
            s1: 1024,
            psa: 3000,
            rounds: 3,
        },
    }
}

/// Formats a coarsening as `dt=5 dx=50x4096`.
fn show<const D: usize>(c: Coarsening<D>) -> String {
    let dx = c.dx.map(|v| v.to_string()).join("x");
    format!("dt={} dx={dx}", c.dt)
}

/// Hill-climbs one application's coarsening from its preset; returns a table row.
/// `run` is the pilot-run step count paired with the hill-climbing round budget.
fn sweep_app<T, K, const D: usize>(
    app: &str,
    preset: Coarsening<D>,
    build: impl Fn() -> PochoirArray<T, D>,
    spec: &StencilSpec<D>,
    kernel: &K,
    run: (i64, usize),
) -> [String; 5]
where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
{
    let (steps, rounds) = run;
    // `refine_coarsening` evaluates its start point first: that is the preset's time.
    let mut preset_s = None;
    let out = refine_coarsening(preset, rounds, |c| {
        let plan = ExecutionPlan::trap().with_coarsening(c);
        let s = time_with_plan(build(), spec, kernel, steps, &plan, false).seconds;
        preset_s.get_or_insert(s);
        s
    });
    [
        app.to_string(),
        show(preset),
        show(out.best),
        format!("{:.2}", out.cost / preset_s.unwrap_or(out.cost)),
        out.evaluations.to_string(),
    ]
}

fn main() {
    let scale = scale_from_args(
        "pochoir-autotune: hill-climb each app's coarsening from its committed preset and \
         report preset vs best",
    );
    let s = sweep_scale(scale);
    let mut table = Table::new(["app", "preset", "best", "best/preset", "evals"]);

    let heat_spec = StencilSpec::new(heat::shape::<2>());
    table.row(sweep_app(
        "heat2d",
        heat::tuned_coarsening_2d(),
        || heat::build([s.n2, s.n2], Boundary::Periodic),
        &heat_spec,
        &heat::HeatKernel::<2>::default(),
        (s.s2, s.rounds),
    ));

    let life_spec = StencilSpec::new(life::shape());
    table.row(sweep_app(
        "life",
        life::tuned_coarsening(),
        || life::build([s.n2, s.n2], 350),
        &life_spec,
        &life::LifeKernel,
        (s.s2, s.rounds),
    ));

    let wave_spec = StencilSpec::new(wave::shape());
    table.row(sweep_app(
        "wave3d",
        wave::tuned_coarsening(),
        || wave::build([s.n3, s.n3, s.n3]),
        &wave_spec,
        &wave::WaveKernel::default(),
        (s.s3, s.rounds),
    ));

    let lbm_spec = StencilSpec::new(lbm::shape());
    table.row(sweep_app(
        "lbm3d",
        lbm::tuned_coarsening(),
        || lbm::build([s.lbm_n, s.lbm_n, s.lbm_n]),
        &lbm_spec,
        &lbm::LbmKernel::default(),
        (s.lbm_s, s.rounds),
    ));

    let apop_spec = StencilSpec::new(apop::shape());
    let params = apop::OptionParams::default();
    let apop_kernel = apop::ApopKernel {
        payoff: Arc::new(apop::payoff(&params, s.n1)),
        coeffs: params.coefficients(s.n1, s.s1),
    };
    table.row(sweep_app(
        "apop",
        apop::tuned_coarsening(),
        || apop::build(&params, s.n1),
        &apop_spec,
        &apop_kernel,
        (s.s1, s.rounds),
    ));

    let psa_spec = StencilSpec::new(psa::shape());
    let bases = |seed: u64, len: usize| -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect()
    };
    let (a, b) = (bases(21, s.psa), bases(22, s.psa));
    let scoring = psa::Scoring::default();
    let psa_kernel = psa::PsaKernel {
        a: Arc::new(a.clone()),
        b: Arc::new(b.clone()),
        scoring,
    };
    table.row(sweep_app(
        "psa",
        psa::tuned_coarsening(),
        || psa::build(b.len(), scoring),
        &psa_spec,
        &psa_kernel,
        (psa::steps(a.len(), b.len()), s.rounds),
    ));

    let isa = pochoir_core::simd::detected().map_or("scalar", |i| i.name());
    println!("host ISA: {isa}");
    println!("{table}");
}
