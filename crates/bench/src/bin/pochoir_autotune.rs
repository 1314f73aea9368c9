//! `pochoir-autotune`: a one-shot sweep that persists a per-host [`TuneProfile`].
//!
//! For each application the sweep measures, on this machine:
//!
//! 1. the TRAP base-case coarsening (hill-climbing refinement around the committed
//!    in-tree default), and
//! 2. the parallel-loop grain,
//!
//! then writes the winners to the tune profile (default `target/pochoir-tune.json`,
//! overridable with `POCHOIR_TUNE_PROFILE` or `--out`).  The stencil presets
//! (`heat::session_2d`, `life::serve`, …) pick the profile up automatically on their
//! next run, so the sweep runs once per host, not per process.
//!
//! Usage: `pochoir-autotune [--scale tiny|small|medium|paper] [--out PATH]`

use std::path::Path;
use std::sync::Arc;

use pochoir_autotune::profile::{self, TuneEntry, TuneProfile};
use pochoir_autotune::{refine_coarsening, tune_grain};
use pochoir_bench::apps::time_with_plan;
use pochoir_bench::{out_path_from_args, scale_from_args, Table};
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

/// Sweeps one application and records the winners in `prof`; returns a table row.
/// `run` is the pilot-run step count paired with the hill-climbing round budget.
fn sweep_app<T, K, const D: usize>(
    app: &'static str,
    start: Coarsening<D>,
    build: impl Fn() -> PochoirArray<T, D>,
    spec: &StencilSpec<D>,
    kernel: &K,
    run: (i64, usize),
    prof: &mut TuneProfile,
) -> [String; 4]
where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
{
    let (steps, rounds) = run;
    let cost = |plan: &ExecutionPlan<D>, parallel: bool| -> f64 {
        time_with_plan(build(), spec, kernel, steps, plan, parallel).seconds
    };

    // 1. Coarsening: hill-climb around the committed in-tree default.
    let coarse = refine_coarsening(start, rounds, |c| {
        cost(&ExecutionPlan::trap().with_coarsening(c), false)
    });
    let base = ExecutionPlan::trap().with_coarsening(coarse.best);

    // 2. Grain: zoids per task on wide dependency levels, measured parallel.
    let grain = tune_grain(&[1, 2, 4, 8], |g| cost(&base.with_grain(g), true));

    prof.apps.insert(
        app.to_string(),
        TuneEntry {
            dt: coarse.best.dt,
            dx: coarse.best.dx.to_vec(),
            grain: grain.best,
        },
    );
    let dx = coarse
        .best
        .dx
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("x");
    [
        app.to_string(),
        format!("dt={} dx={dx}", coarse.best.dt),
        grain.best.to_string(),
        format!("{}", coarse.evaluations + grain.evaluations),
    ]
}

fn main() {
    let scale = scale_from_args(
        "pochoir-autotune: sweep coarsening and grain per app and persist a per-host tune \
         profile",
    );
    let out = out_path_from_args(&profile::default_path().display().to_string());
    let s = sweep_scale(scale);
    let mut prof = TuneProfile::for_this_host();
    let mut table = Table::new(["app", "coarsening", "grain", "evals"]);

    let heat_spec = StencilSpec::new(heat::shape::<2>());
    table.row(sweep_app(
        "heat2d",
        Coarsening::new(5, [50, 4096]),
        || heat::build([s.n2, s.n2], Boundary::Periodic),
        &heat_spec,
        &heat::HeatKernel::<2>::default(),
        (s.s2, s.rounds),
        &mut prof,
    ));

    let life_spec = StencilSpec::new(life::shape());
    table.row(sweep_app(
        "life",
        Coarsening::new(5, [64, 512]),
        || life::build([s.n2, s.n2], 350),
        &life_spec,
        &life::LifeKernel,
        (s.s2, s.rounds),
        &mut prof,
    ));

    let wave_spec = StencilSpec::new(wave::shape());
    table.row(sweep_app(
        "wave3d",
        Coarsening::new(8, [8, 8, 1000]),
        || wave::build([s.n3, s.n3, s.n3]),
        &wave_spec,
        &wave::WaveKernel::default(),
        (s.s3, s.rounds),
        &mut prof,
    ));

    let lbm_spec = StencilSpec::new(lbm::shape());
    table.row(sweep_app(
        "lbm3d",
        Coarsening::new(5, [8, 8, 1000]),
        || lbm::build([s.lbm_n, s.lbm_n, s.lbm_n]),
        &lbm_spec,
        &lbm::LbmKernel::default(),
        (s.lbm_s, s.rounds),
        &mut prof,
    ));

    let apop_spec = StencilSpec::new(apop::shape());
    let params = apop::OptionParams::default();
    let apop_kernel = apop::ApopKernel {
        payoff: Arc::new(apop::payoff(&params, s.n1)),
        coeffs: params.coefficients(s.n1, s.s1),
    };
    table.row(sweep_app(
        "apop",
        Coarsening::new(16, [4096]),
        || apop::build(&params, s.n1),
        &apop_spec,
        &apop_kernel,
        (s.s1, s.rounds),
        &mut prof,
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
        Coarsening::new(16, [2048]),
        || psa::build(b.len(), scoring),
        &psa_spec,
        &psa_kernel,
        (psa::steps(a.len(), b.len()), s.rounds),
        &mut prof,
    ));

    println!("host ISA: {}", prof.host_isa);
    println!("{table}");

    prof.save(Path::new(&out))
        .expect("failed to write the tune profile");
    println!("wrote {out}");
}
