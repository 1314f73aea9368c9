//! Replay-vs-direct-submit equivalence: the replay harness must be an
//! *observer*, not a participant. For every app the trace format can carry, the
//! grids produced by replaying through [`StencilServer`] — pipelined drains,
//! arbitrary epoch interleavings, giants — must be bitwise identical to
//! running each record directly through one `CompiledProgram::run` call.
//!
//! Sizes here are deliberately small (these run in debug); the committed corpus at
//! full scale is pinned by the same digest comparisons in `corpus_counters.rs`.

use pochoir_bench::replay::{digests_agree, replay, Discipline, ReplayOptions};
use pochoir_core::engine::AdmissionPolicy;
use pochoir_runtime::Runtime;
use pochoir_trace::gen::{self, GiantCell, WorkShape};
use pochoir_trace::Trace;

fn assert_pipelined_matches_sequential(trace: &Trace) {
    let opts = ReplayOptions::default();
    let pipelined = replay(trace, Discipline::Pipelined, &opts);
    let sequential = replay(trace, Discipline::Sequential, &opts);
    assert_eq!(pipelined.shed, 0, "{}: unexpected shed", trace.name);
    assert_eq!(
        pipelined.digests.len(),
        trace.records.len(),
        "{}: one digest per record",
        trace.name
    );
    assert!(
        digests_agree(&pipelined, &sequential),
        "{}: pipelined drain diverged from the direct run",
        trace.name
    );
}

#[test]
fn heat2d_replay_matches_direct_submit() {
    let shape = WorkShape::heat2d(24, 6);
    assert_pipelined_matches_sequential(&gen::poisson(11, &shape, 4, 12, 3, 3));
}

#[test]
fn life_replay_matches_direct_submit() {
    let shape = WorkShape::life(20, 8);
    assert_pipelined_matches_sequential(&gen::heavy_tail(12, &shape, 6, 12, 4));
}

#[test]
fn wave3d_replay_matches_direct_submit() {
    let shape = WorkShape::wave3d(10, 6);
    assert_pipelined_matches_sequential(&gen::poisson(13, &shape, 3, 8, 5, 3));
}

#[test]
fn giant_replay_matches_direct_submit() {
    // The giant preset at an extent small enough to compile literally; the
    // corpus' 600k cells (`corpus_counters`) take the giant route.
    let background = WorkShape::heat2d(16, 4);
    let giant = GiantCell {
        every: 3,
        cells: 4_096,
        window: 6,
    };
    assert_pipelined_matches_sequential(&gen::giant_grid(14, &background, 3, 9, giant, 4));
}

#[test]
fn geometry_churn_replay_matches_direct_submit() {
    assert_pipelined_matches_sequential(&gen::geometry_churn(15, 4, 12, 5, 12, 4, 3));
}

#[test]
fn replay_is_deterministic_across_runs() {
    let trace = gen::poisson(42, &WorkShape::heat2d(20, 5), 4, 10, 3, 3);
    let opts = ReplayOptions::default();
    let a = replay(&trace, Discipline::Pipelined, &opts);
    let b = replay(&trace, Discipline::Pipelined, &opts);
    // Results and counts are reproducible run to run at any worker count.
    assert_eq!(a.digests, b.digests);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.windows, b.windows);
    assert_eq!(a.drains, b.drains);
    assert_eq!(a.completion_ticks.len(), b.completion_ticks.len());
    // Dispatch order — and so each completion tick and deadline miss — is
    // deterministic only when the drain dispatches serially.
    if Runtime::global().num_threads() == 1 {
        assert_eq!(a.deadline_misses, b.deadline_misses);
        assert_eq!(a.completion_ticks, b.completion_ticks);
    }
}

#[test]
fn admission_shed_preserves_accepted_grids() {
    // Under a tight pending quota some records shed; the ones that run must
    // still be bitwise-pinned to the direct baseline (digests_agree compares
    // only positions where both sides produced a grid).
    let trace = gen::poisson(7, &WorkShape::heat2d(20, 5), 4, 16, 1, 3);
    let pressured = replay(
        &trace,
        Discipline::Pipelined,
        &ReplayOptions {
            admission: Some(AdmissionPolicy {
                max_pending: Some(2),
                ..AdmissionPolicy::default()
            }),
        },
    );
    let sequential = replay(&trace, Discipline::Sequential, &ReplayOptions::default());
    assert!(pressured.shed > 0, "quota chosen to force shedding");
    assert!(
        pressured.shed < trace.records.len() as u64,
        "quota must not shed everything"
    );
    assert!(digests_agree(&pressured, &sequential));
    // Shed records carry no digest; accepted ones all do.
    let produced = pressured.digests.iter().filter(|d| d.is_some()).count() as u64;
    assert_eq!(produced, trace.records.len() as u64 - pressured.shed);
}
