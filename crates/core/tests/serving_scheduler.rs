//! Scheduler properties of the pipelined serving drain: bitwise equivalence with
//! per-array sequential runs, earliest-deadline-first dispatch, weighted fairness, the starvation
//! regression (a heavy tenant cannot lock out a light one), parallel/serial agreement,
//! and the surfacing of the new `serving_*` runtime metrics.
//!
//! Ordering assertions drive the drain with `Serial`, where windows execute exactly in
//! priority order and [`DrainReport::completion_tick`] is deterministic.

use pochoir_core::engine::schedule;
use pochoir_core::engine::serving::{DrainReport, StencilServer, SubmitOptions, TicketOutcome};
use pochoir_core::prelude::*;
use pochoir_runtime::{Runtime, Serial};
use std::sync::Arc;

/// 2D heat kernel.
struct Heat2D;

impl StencilKernel<f64, 2> for Heat2D {
    fn update<A: GridAccess<f64, 2>>(&self, g: &A, t: i64, x: [i64; 2]) {
        let c = g.get(t, x);
        let v = c
            + 0.09 * (g.get(t, [x[0] - 1, x[1]]) + g.get(t, [x[0] + 1, x[1]]) - 2.0 * c)
            + 0.11 * (g.get(t, [x[0], x[1] - 1]) + g.get(t, [x[0], x[1] + 1]) - 2.0 * c);
        g.set(t + 1, x, v);
    }
}

fn make_array(n: usize, seed: i64) -> PochoirArray<f64, 2> {
    let mut a: PochoirArray<f64, 2> = PochoirArray::new([n, n]);
    a.register_boundary(Boundary::Periodic);
    a.fill_time_slice(0, |x| {
        ((x[0] * 31 + x[1] * 7 + seed * 13) % 23) as f64 / 4.0
    });
    a
}

fn server(n: usize, window: i64) -> StencilServer<f64, Heat2D, 2> {
    StencilServer::try_new(
        StencilSpec::new(star_shape::<2>(1)),
        Heat2D,
        ExecutionPlan::trap().with_coarsening(Coarsening::new(2, [6, 6])),
        [n, n],
        window,
    )
    .unwrap()
}

/// The acceptance property: the pipelined drain is bitwise identical to running each
/// array alone through the shared program — mixed window lengths (including
/// non-multiples of the chunk height and empty windows), weights and deadlines never
/// change values, only order.
#[test]
fn pipelined_drain_matches_sequential_runs_bitwise() {
    let n = 21;
    let requests: [(i64, i64, SubmitOptions); 6] = [
        (0, 10, SubmitOptions::default()),
        (0, 4, SubmitOptions::weighted(4)),
        (0, 13, SubmitOptions::default().with_deadline(3)),
        (0, 4, SubmitOptions::weighted(2).with_deadline(100)),
        (3, 3, SubmitOptions::default()), // empty window
        (0, 7, SubmitOptions::weighted(7)),
    ];
    let mut pipelined = server(n, 4);
    for (i, &(t0, t1, opts)) in requests.iter().enumerate() {
        pipelined
            .try_submit_with(make_array(n, i as i64), t0, t1, opts)
            .unwrap();
    }
    let drained = pipelined.try_drain_with(&Serial).unwrap();
    assert_eq!(drained.len(), requests.len());
    for (i, (x, &(t0, t1, _))) in drained.iter().zip(&requests).enumerate() {
        let mut alone = make_array(n, i as i64);
        pipelined
            .program()
            .run(&mut alone, &Heat2D, t0, t1, &Serial);
        assert_eq!(
            x.snapshot(t1),
            alone.snapshot(t1),
            "ticket {i}: the pipelined drain and the sequential run must agree bitwise"
        );
    }
}

/// The pipelined drain under a multi-worker runtime produces the same bits as under
/// `Serial`, for the same submissions (arrays are disjoint; execution order never
/// affects values).
#[test]
fn parallel_pipelined_drain_matches_serial() {
    let n = 23;
    let rt = Runtime::new(3);
    let mut parallel = server(n, 3);
    let mut serial = server(n, 3);
    for i in 0..5i64 {
        let opts = SubmitOptions::weighted(1 + (i as u32) % 3);
        parallel
            .try_submit_with(make_array(n, i), 0, 5 + i, opts)
            .unwrap();
        serial
            .try_submit_with(make_array(n, i), 0, 5 + i, opts)
            .unwrap();
    }
    let a = parallel.try_drain_with(&rt).unwrap();
    let b = serial.try_drain_with(&Serial).unwrap();
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        let t = 5 + i as i64;
        assert_eq!(x.snapshot(t), y.snapshot(t), "ticket {i}");
    }
    // The parallel drain dispatched every window exactly once.
    assert_eq!(
        parallel.last_drain().unwrap().windows,
        serial.last_drain().unwrap().windows
    );
}

/// Deadline submissions dispatch earliest-deadline-first, ahead of deadline-less
/// work, regardless of ticket order.
#[test]
fn deadlines_order_dispatch_earliest_first() {
    let n = 17;
    let mut s = server(n, 2);
    s.try_submit(make_array(n, 0), 0, 6).unwrap(); // no deadline
    s.try_submit_with(
        make_array(n, 1),
        0,
        4,
        SubmitOptions::default().with_deadline(50),
    )
    .unwrap();
    s.try_submit_with(
        make_array(n, 2),
        0,
        4,
        SubmitOptions::default().with_deadline(2),
    )
    .unwrap();
    let _ = s.try_drain_with(&Serial).unwrap();
    let report: DrainReport = s.last_drain().unwrap().clone();
    // Tightest deadline (ticket 2) completes first: its 2 windows dispatch at ticks
    // 1 and 2.  Ticket 1 follows; the deadline-less ticket 0 runs last.
    assert_eq!(report.completion_tick[2], 2);
    assert_eq!(report.completion_tick[1], 4);
    assert_eq!(report.completion_tick[0], 7);
    assert_eq!(report.deadline_misses, 0);
}

/// A deadline that cannot be met is dispatched as early as EDF allows and counted as
/// missed.
#[test]
fn impossible_deadlines_are_counted_as_misses() {
    let n = 17;
    let mut s = server(n, 2);
    s.try_submit_with(
        make_array(n, 0),
        0,
        8, // 4 windows: the final one cannot dispatch by tick 2
        SubmitOptions::default().with_deadline(2),
    )
    .unwrap();
    s.try_submit_with(
        make_array(n, 1),
        0,
        2,
        SubmitOptions::default().with_deadline(8),
    )
    .unwrap();
    let _ = s.try_drain_with(&Serial).unwrap();
    let report = s.last_drain().unwrap();
    assert_eq!(report.deadline_misses, 1);
    assert_eq!(report.completion_tick[0], 4, "EDF still ran it first");
}

/// Weighted fairness: with equal work, a weight-3 tenant's windows dispatch ~3× as
/// often as a weight-1 tenant's, so it completes markedly earlier — while the
/// weight-1 tenant still progresses throughout (stride scheduling, not priority
/// lockout).
#[test]
fn weights_bias_dispatch_proportionally() {
    let n = 17;
    let windows_each = 9i64;
    let mut s = server(n, 1);
    let heavy = s
        .try_submit_with(
            make_array(n, 0),
            0,
            windows_each,
            SubmitOptions::weighted(3),
        )
        .unwrap();
    let light = s
        .try_submit_with(
            make_array(n, 1),
            0,
            windows_each,
            SubmitOptions::weighted(1),
        )
        .unwrap();
    let _ = s.try_drain_with(&Serial).unwrap();
    let report = s.last_drain().unwrap();
    let heavy_done = report.completion_tick[heavy];
    let light_done = report.completion_tick[light];
    assert!(
        heavy_done < light_done,
        "weight 3 must finish before weight 1 ({heavy_done} vs {light_done})"
    );
    // With strides 1/3 and 1, the weight-3 tenant's 9 windows finish within the
    // first 12 dispatches (9 heavy + at most 3 light interleaved).
    assert!(
        heavy_done <= 12,
        "weight-3 tenant should finish by tick 12, finished at {heavy_done}"
    );
    assert_eq!(report.windows, 2 * windows_each as u64);
}

/// Weights beyond the stride scale must not truncate to a zero stride: two
/// mega-weight tenants still round-robin (a zero stride would freeze their virtual
/// time at 0 and let the lower ticket run its whole chain first on the tiebreak).
#[test]
fn mega_weights_still_share_dispatch() {
    let n = 17;
    let mut s = server(n, 1);
    let a = s
        .try_submit_with(make_array(n, 0), 0, 4, SubmitOptions::weighted(u32::MAX))
        .unwrap();
    let b = s
        .try_submit_with(make_array(n, 1), 0, 4, SubmitOptions::weighted(u32::MAX))
        .unwrap();
    let _ = s.try_drain_with(&Serial).unwrap();
    let report = s.last_drain().unwrap();
    // Equal (clamped) strides alternate: a, b, a, b, ... — a's final window at
    // tick 7, b's at 8.  A zero stride would give a ticks 1-4 and b ticks 5-8.
    assert_eq!(report.completion_tick[a], 7);
    assert_eq!(report.completion_tick[b], 8);
}

/// The starvation regression: a heavy tenant flooding the queue with many long
/// chains cannot lock out a light tenant's short request — the light submission
/// completes in the first rounds of the drain, not after the heavy tenant's work.
#[test]
fn heavy_tenant_cannot_starve_a_light_one() {
    let n = 17;
    let heavy_chains = 6usize;
    let heavy_windows = 12i64;
    let mut s = server(n, 1);
    // Heavy tenant submits first and out-weighs the light tenant 4:1.
    for i in 0..heavy_chains {
        s.try_submit_with(
            make_array(n, i as i64),
            0,
            heavy_windows,
            SubmitOptions::weighted(4),
        )
        .unwrap();
    }
    let light = s
        .try_submit_with(make_array(n, 99), 0, 2, SubmitOptions::weighted(1))
        .unwrap();
    let _ = s.try_drain_with(&Serial).unwrap();
    let report = s.last_drain().unwrap();
    let total = report.windows;
    let light_done = report.completion_tick[light];
    // Stride scheduling bounds the wait by the weight ratio: the light tenant's 2nd
    // window dispatches once its pass (2 strides) is reached by the heavy chains —
    // within ~weight_ratio rounds of 6 chains, i.e. tick ≈ 32 of 74 here.  Under
    // strict FIFO it would wait for all 72 heavy windows.
    assert!(
        light_done <= total / 2,
        "light tenant finished at tick {light_done} of {total}: starved"
    );
    assert_eq!(total, heavy_chains as u64 * heavy_windows as u64 + 2);
}

/// Ticket order of the returned arrays is submission order even when execution order
/// is completely different.
#[test]
fn results_keep_ticket_order_under_reordered_execution() {
    let n = 19;
    let mut s = server(n, 2);
    // Submit in an order the scheduler will invert (later tickets have tighter
    // deadlines).
    for i in 0..4i64 {
        s.try_submit_with(
            make_array(n, i),
            0,
            4,
            SubmitOptions::default().with_deadline(20 - i as u64 * 4),
        )
        .unwrap();
    }
    let drained = s.try_drain_with(&Serial).unwrap();
    for (i, array) in drained.iter().enumerate() {
        let mut expected = make_array(n, i as i64);
        let reference = server(n, 2);
        reference
            .program()
            .run(&mut expected, &Heat2D, 0, 4, &Serial);
        assert_eq!(array.snapshot(4), expected.snapshot(4), "ticket {i}");
    }
}

/// A kernel panicking mid-window under a multi-worker pipelined drain ends the drain
/// (rather than hanging the crew loop with the panicked window forever in flight):
/// the panicking ticket is reported `Panicked` with the payload's message, and its
/// sibling still completes.
#[test]
fn kernel_panic_is_reported_from_parallel_drain() {
    struct Exploding;
    impl StencilKernel<f64, 2> for Exploding {
        fn update<A: GridAccess<f64, 2>>(&self, g: &A, t: i64, x: [i64; 2]) {
            if t >= 2 {
                panic!("kernel exploded");
            }
            g.set(t + 1, x, g.get(t, x));
        }
    }
    let n = 15;
    let mut s = StencilServer::try_new(
        StencilSpec::new(star_shape::<2>(1)),
        Exploding,
        ExecutionPlan::trap().with_coarsening(Coarsening::new(2, [6, 6])),
        [n, n],
        2,
    )
    .unwrap();
    let rt = Runtime::new(2);
    // Ticket 0 reaches t = 2 and explodes; ticket 1's two steps stay below it.
    s.try_submit(make_array(n, 0), 0, 6).unwrap();
    s.try_submit(make_array(n, 1), 0, 2).unwrap();
    let drained = s.try_drain_with(&rt).unwrap();
    assert_eq!(drained.len(), 2);
    let report = s.last_drain().expect("drain leaves a report");
    assert!(
        matches!(
            report.outcome(0),
            Some(TicketOutcome::Panicked { message }) if message.contains("kernel exploded")
        ),
        "ticket 0 must be reported as panicked, got {:?}",
        report.outcome(0)
    );
    assert_eq!(report.outcome(1), Some(&TicketOutcome::Completed));
    assert_eq!(drained[1].snapshot(2), make_array(n, 1).snapshot(0));
}

/// A panic is quarantined to the panicking tenant: only that ticket's remaining
/// windows are cancelled, siblings complete their full chains bitwise-identically
/// to a fault-free run, the report records the failure, and the server keeps
/// serving afterwards.
#[test]
fn kernel_panic_quarantines_only_the_faulted_ticket() {
    struct ExplodeTicketZero;
    impl StencilKernel<f64, 2> for ExplodeTicketZero {
        fn update<A: GridAccess<f64, 2>>(&self, g: &A, t: i64, x: [i64; 2]) {
            // Ticket 0's grid is poisoned with a NaN marker at the origin.
            if x == [0, 0] && g.get(t, x).is_nan() {
                panic!("poisoned tenant");
            }
            g.set(t + 1, x, g.get(t, x));
        }
    }
    let n = 15;
    let survivor_windows = 40i64;
    let mut s = StencilServer::try_new(
        StencilSpec::new(star_shape::<2>(1)),
        ExplodeTicketZero,
        ExecutionPlan::trap().with_coarsening(Coarsening::new(2, [6, 6])),
        [n, n],
        1, // chunk height 1: one window per step
    )
    .unwrap();
    let mut poisoned = make_array(n, 0);
    poisoned.set(0, [0, 0], f64::NAN);
    s.try_submit(poisoned, 0, 4).unwrap();
    s.try_submit(make_array(n, 1), 0, survivor_windows).unwrap();
    let rt = Runtime::new(2);
    let drained = s
        .try_drain_with(&rt)
        .expect("try_drain reports per-ticket failures instead of panicking");
    let report = s.last_drain().expect("drain leaves a report").clone();
    assert!(
        matches!(
            report.outcome(0),
            Some(TicketOutcome::Panicked { message }) if message.contains("poisoned tenant")
        ),
        "ticket 0 must be reported as panicked, got {:?}",
        report.outcome(0)
    );
    assert_eq!(report.outcome(1), Some(&TicketOutcome::Completed));
    // The survivor's chain ran to the end: the kernel copies each slice forward
    // unchanged, so after 40 full windows the final slice is bitwise-equal to the
    // seed slice — any cancelled tail would leave it unwritten instead.
    assert_eq!(
        drained[1].snapshot(survivor_windows),
        make_array(n, 1).snapshot(0),
        "the copy-forward survivor ends bitwise-equal to its seed slice"
    );
    // And the server is not wedged: a clean follow-up drain succeeds.
    s.try_submit(make_array(n, 2), 0, 3).unwrap();
    let after = s.try_drain_with(&rt).expect("post-panic drain succeeds");
    assert_eq!(after.len(), 1);
    assert!(s.last_drain().expect("report").failures().is_empty());
}

/// The new serving counters reach the runtime's metrics: windows executed, the
/// ready-queue high-water mark, and deadline misses.
#[test]
fn serving_counters_surface_in_runtime_metrics() {
    let rt = Arc::new(Runtime::new(2));
    let before = rt.metrics();
    let mut s = server(25, 3).with_runtime(Arc::clone(&rt));
    s.try_submit(make_array(25, 0), 0, 6).unwrap();
    s.try_submit_with(
        make_array(25, 1),
        0,
        3,
        SubmitOptions::default().with_deadline(1),
    )
    .unwrap();
    s.try_submit_with(
        make_array(25, 2),
        0,
        9,
        SubmitOptions::default().with_deadline(1), // impossible: 3 windows
    )
    .unwrap();
    let _ = s.try_drain().unwrap();
    let delta = before.delta(&rt.metrics());
    assert_eq!(delta.serving_windows, 6, "2 + 1 + 3 windows dispatched");
    assert!(delta.serving_queue_depth_peak >= 1);
    let report = s.last_drain().unwrap();
    assert_eq!(delta.serving_deadline_misses, report.deadline_misses);
    assert!(
        report.deadline_misses >= 1,
        "the 3-window deadline-1 tenant"
    );
    // The pool actually distributed work across its workers.
    let executed: u64 = rt.worker_executed().iter().sum();
    assert!(executed > 0, "pool work distribution must be populated");
}

/// Session counters across a pipelined drain: every window of the server's own
/// height replays the pinned schedule; a shorter remainder window fetches from the
/// global schedule cache, which compiles its height at most once (plus once per
/// eviction, since that cache is shared with every test in this binary).
#[test]
fn pipelined_windows_replay_pinned_schedules() {
    let n = 27;
    let mut s = server(n, 4);
    let before = s.stats();
    let evicted_before = schedule::cache_stats().evictions;
    for i in 0..3i64 {
        s.try_submit(make_array(n, i), 0, 10).unwrap(); // windows 4+4+2
    }
    let _ = s.try_drain_with(&Serial).unwrap();
    let stats = s.stats();
    assert_eq!(stats.runs - before.runs, 9, "3 tenants × 3 windows");
    assert_eq!(
        stats.schedule_reuses - before.schedule_reuses,
        6,
        "the 4-step windows"
    );
    assert_eq!(
        stats.schedule_fetches - before.schedule_fetches,
        3,
        "one fetch per 2-step remainder"
    );
    let evicted = schedule::cache_stats().evictions - evicted_before;
    assert!(
        stats.schedule_compiles - before.schedule_compiles <= 1 + evicted,
        "the remainder height compiles at most once, unless it was evicted"
    );
}
