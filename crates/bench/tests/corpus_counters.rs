//! Pins every deterministic counter of replaying the committed trace corpus
//! through the serving layer against a literal table.
//!
//! For each corpus trace, in corpus order, the pipelined replay's record /
//! window / drain / session / registry counts must equal the table, and the
//! pipelined and barrier digests must equal the per-array sequential run.  A
//! final pressure cell replays the diurnal burst under a tight `max_pending`
//! quota so the shed path is pinned with nonzero counts.
//!
//! One `#[test]` on purpose: session and registry counters are process-global
//! (same-geometry traces share one compiled session), so the numbers below are
//! those of exactly this sequence — pipelined, barrier, sequential, trace after
//! trace — under the pinned registry capacity.
//!
//! Completion ticks, deadline misses and the ready-queue peak depend on
//! dispatch order, which is deterministic only on a serial pool; they are pinned
//! at `POCHOIR_NUM_THREADS=1` (CI runs this file that way in release) and
//! skipped otherwise.  If a generator or the scheduler legitimately changes
//! these numbers, update the table in the same change.

use pochoir_bench::replay::{
    digests_agree, percentile, replay, replay_with_sessions, Discipline, ReplayOptions,
    SessionTotals,
};
use pochoir_core::engine::serving::{registry_stats, set_registry_capacity, RegistryStats};
use pochoir_core::engine::AdmissionPolicy;
use pochoir_runtime::Runtime;
use pochoir_trace::{corpus, TraceApp};

/// Below the churn trace's distinct-geometry count, so registry evictions are
/// exercised (and counted) deterministically.
const REGISTRY_CAPACITY: usize = 16;

/// Far below the diurnal trace's peak epoch, so admission sheds a deterministic,
/// nonzero slice of the burst.
const PRESSURE_MAX_PENDING: usize = 4;

/// Counters that hold at any worker count.
#[derive(Debug, PartialEq)]
struct Counters {
    records: usize,
    shed: u64,
    sharded_submissions: usize,
    points: u64,
    windows: u64,
    drains: u64,
    deadline_total: usize,
    session: SessionTotals,
    registry: RegistryStats,
}

/// Dispatch-order outcomes, deterministic on one worker only.
#[derive(Debug, PartialEq)]
struct Ticks {
    peak_ready: usize,
    deadline_misses: u64,
    completion_p50: u64,
    completion_p99: u64,
}

#[rustfmt::skip]
fn expected() -> Vec<(&'static str, Counters, Ticks)> {
    let session = |servers, runs, schedule_reuses, schedule_fetches, schedule_compiles| SessionTotals {
        runs, schedule_reuses, schedule_fetches, schedule_compiles,
        schedule_rejections: 0, sharded_runs: 0, servers,
    };
    let registry = |hits, misses, evictions| RegistryStats { hits, misses, evictions, quarantined: 0 };
    vec![
        ("poisson",
         Counters { records: 40, shed: 0, sharded_submissions: 0, points: 737_280, windows: 80, drains: 5,
                    deadline_total: 10, session: session(1, 80, 80, 1, 1), registry: registry(0, 1, 0) },
         Ticks { peak_ready: 10, deadline_misses: 0, completion_p50: 14, completion_p99: 20 }),
        ("skew",
         Counters { records: 48, shed: 0, sharded_submissions: 0, points: 884_736, windows: 96, drains: 6,
                    deadline_total: 15, session: session(1, 256, 255, 2, 2), registry: registry(1, 0, 0) },
         Ticks { peak_ready: 14, deadline_misses: 9, completion_p50: 10, completion_p99: 27 }),
        ("diurnal",
         Counters { records: 48, shed: 0, sharded_submissions: 0, points: 663_552, windows: 96, drains: 3,
                    deadline_total: 24, session: session(1, 96, 96, 1, 1), registry: registry(0, 1, 0) },
         Ticks { peak_ready: 23, deadline_misses: 23, completion_p50: 20, completion_p99: 45 }),
        ("churn",
         Counters { records: 48, shed: 0, sharded_submissions: 0, points: 1_009_344, windows: 48, drains: 45,
                    deadline_total: 0, session: session(33, 400, 399, 34, 34), registry: registry(1, 32, 18) },
         Ticks { peak_ready: 3, deadline_misses: 0, completion_p50: 1, completion_p99: 2 }),
        ("giant",
         Counters { records: 18, shed: 0, sharded_submissions: 3, points: 14_676_480, windows: 36, drains: 4,
                    deadline_total: 0, session: session(2, 30, 30, 1, 0), registry: registry(2, 3, 3) },
         Ticks { peak_ready: 9, deadline_misses: 0, completion_p50: 11, completion_p99: 17 }),
        ("waves",
         Counters { records: 24, shed: 0, sharded_submissions: 0, points: 393_216, windows: 24, drains: 3,
                    deadline_total: 6, session: session(1, 24, 24, 1, 1), registry: registry(0, 1, 1) },
         Ticks { peak_ready: 10, deadline_misses: 0, completion_p50: 4, completion_p99: 9 }),
    ]
}

#[test]
fn corpus_replay_counters_match_the_pinned_table() {
    set_registry_capacity(REGISTRY_CAPACITY);
    let rt = Runtime::global();
    let one_worker = rt.num_threads() == 1;
    let opts = ReplayOptions::default();
    let traces = corpus::standard();
    let expected = expected();
    assert_eq!(
        traces.iter().map(|t| t.name.as_str()).collect::<Vec<_>>(),
        expected.iter().map(|(name, ..)| *name).collect::<Vec<_>>(),
        "the table must list the corpus in corpus order"
    );

    for (trace, (name, counters, ticks)) in traces.iter().zip(&expected) {
        let registry_before = registry_stats();
        let faults_before = rt.metrics();
        let (pipelined, session) = replay_with_sessions(trace, Discipline::Pipelined, &opts);
        let faults = faults_before.delta(&rt.metrics());
        let registry_after = registry_stats();
        let barrier = replay(trace, Discipline::Barrier, &opts);
        let sequential = replay(trace, Discipline::Sequential, &opts);

        let observed = Counters {
            records: trace.records.len(),
            shed: pipelined.shed,
            sharded_submissions: trace
                .records
                .iter()
                .filter(|r| r.app == TraceApp::HeatGiant1d)
                .count(),
            points: pipelined.points as u64,
            windows: pipelined.windows,
            drains: pipelined.drains,
            deadline_total: trace
                .records
                .iter()
                .filter(|r| r.deadline.is_some())
                .count(),
            session,
            registry: RegistryStats {
                hits: registry_after.hits - registry_before.hits,
                misses: registry_after.misses - registry_before.misses,
                evictions: registry_after.evictions - registry_before.evictions,
                quarantined: registry_after.quarantined - registry_before.quarantined,
            },
        };
        assert_eq!(
            &observed, counters,
            "{name}: deterministic counters drifted"
        );
        assert_eq!(
            (
                faults.serving_shed,
                faults.serving_retries,
                faults.serving_quarantined,
                faults.registry_poison_recoveries
            ),
            (observed.shed, 0, 0, 0),
            "{name}: fault counters (shed, retries, quarantined, poison recoveries)"
        );
        assert_eq!(
            pipelined.completion_ticks.len() as u64,
            observed.records as u64 - observed.shed,
            "{name}: one completion tick per accepted record"
        );
        assert!(
            digests_agree(&pipelined, &sequential),
            "{name}: pipelined drain diverged from the sequential run"
        );
        assert!(
            digests_agree(&barrier, &sequential),
            "{name}: barrier drain diverged from the sequential run"
        );
        if one_worker {
            let observed = Ticks {
                peak_ready: pipelined.peak_ready,
                deadline_misses: pipelined.deadline_misses,
                completion_p50: percentile(&pipelined.completion_ticks, 50),
                completion_p99: percentile(&pipelined.completion_ticks, 99),
            };
            assert_eq!(
                &observed, ticks,
                "{name}: one-worker dispatch order drifted"
            );
        }
    }

    // Pressure cell: admission sheds at submit time, and the records that do run
    // stay bitwise-pinned to the sequential baseline.
    let diurnal = traces.iter().find(|t| t.name == "diurnal").unwrap();
    let pressured = replay(
        diurnal,
        Discipline::Pipelined,
        &ReplayOptions {
            admission: Some(AdmissionPolicy {
                max_pending: Some(PRESSURE_MAX_PENDING),
                ..AdmissionPolicy::default()
            }),
        },
    );
    let sequential = replay(diurnal, Discipline::Sequential, &opts);
    assert_eq!(
        (diurnal.records.len(), pressured.shed, pressured.windows),
        (48, 36, 24),
        "pressure: (records, shed, windows)"
    );
    assert!(
        digests_agree(&pressured, &sequential),
        "pressure: accepted records diverged from the sequential run"
    );
    if one_worker {
        assert_eq!(pressured.deadline_misses, 0, "pressure: deadline misses");
    }
}
