//! Deterministic chaos suite for the fault-isolated serving layer.
//!
//! Each case derives a [`FaultPlan`] from a seed (one panicking tenant plus a few
//! slow-worker delays), drives a multi-tenant pipelined drain under it, and checks the
//! fault-isolation contract:
//!
//! * non-faulted tenants finish **bitwise-equal** to a fault-free reference — each
//!   array run alone through the shared program — so a sibling's panic must not
//!   perturb their arithmetic or scheduling guarantees;
//! * the faulted tenant is reported per-ticket (`TicketOutcome::Panicked`), and the
//!   server keeps serving: a follow-up drain on the same server succeeds cleanly;
//! * no engine lock is left poisoned (the process-wide recovery counter does not
//!   move);
//! * exactly-once compilation survives injected compile failures: each failure is a
//!   typed error, and the next lookup compiles without wedging the session registry.
//!
//! Seeds come from `POCHOIR_CHAOS_SEEDS` (comma-separated integers) when set — the CI
//! chaos step pins several — and default to a small fixed set otherwise.

use pochoir_core::engine::faults;
use pochoir_core::engine::serving::{SessionRegistry, StencilServer, TicketOutcome};
use pochoir_core::prelude::*;
use pochoir_runtime::{Parallelism, Runtime, Serial};

/// 2D heat kernel (same arithmetic as the scheduler suite).
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

/// Seeds under test: `POCHOIR_CHAOS_SEEDS="7,19,23"` overrides the default set.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("POCHOIR_CHAOS_SEEDS") {
        Ok(spec) => spec
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect(),
        Err(_) => vec![1, 2, 42, 0xC0FFEE],
    }
}

const TENANTS: usize = 8;
const WINDOWS: u64 = 5;
const CHUNK: i64 = 2;
const GRID: usize = 17;

/// One chaos episode under `seed`; returns the panicking ticket for reporting.
fn run_episode<P: Parallelism>(seed: u64, par: &P) -> usize {
    let plan = FaultPlan::seeded(seed, TENANTS, WINDOWS);
    let victims = plan.panicking_tickets();
    assert_eq!(victims.len(), 1, "seeded plans panic exactly one tenant");
    let victim = victims[0];
    let steps = WINDOWS as i64 * CHUNK; // every chain has exactly WINDOWS windows

    // Fault-free reference: each array run alone, one monolithic run of the program.
    let reference = server(GRID, CHUNK);
    let expected: Vec<PochoirArray<f64, 2>> = (0..TENANTS)
        .map(|i| {
            let mut a = make_array(GRID, i as i64);
            reference.program().run(&mut a, &Heat2D, 0, steps, &Serial);
            a
        })
        .collect();

    let poison_before = faults::poison_recoveries();
    let mut chaotic = server(GRID, CHUNK).with_fault_plan(plan);
    for i in 0..TENANTS {
        chaotic
            .try_submit(make_array(GRID, i as i64), 0, steps)
            .unwrap();
    }
    let drained = chaotic
        .try_drain_with(par)
        .expect("chaos drain reports failures per ticket instead of erroring");
    assert_eq!(drained.len(), TENANTS);
    let report = chaotic.last_drain().expect("drain leaves a report").clone();

    for (ticket, array) in drained.iter().enumerate() {
        if ticket == victim {
            assert!(
                matches!(
                    report.outcome(ticket),
                    Some(TicketOutcome::Panicked { message })
                        if message.contains("injected kernel panic")
                ),
                "seed {seed}: victim {ticket} must be reported panicked, got {:?}",
                report.outcome(ticket)
            );
        } else {
            assert_eq!(
                report.outcome(ticket),
                Some(&TicketOutcome::Completed),
                "seed {seed}: non-faulted ticket {ticket}"
            );
            assert_eq!(
                array.snapshot(steps),
                expected[ticket].snapshot(steps),
                "seed {seed}: sibling {ticket} must match the fault-free reference bitwise"
            );
        }
    }
    let failures = report.failures();
    assert_eq!(failures.len(), 1, "seed {seed}: exactly one failed ticket");
    assert!(
        matches!(&failures[0], ServeError::TenantPanicked { ticket, .. } if *ticket == victim),
        "seed {seed}: failure list carries the victim's ticket"
    );
    assert_eq!(
        faults::poison_recoveries(),
        poison_before,
        "seed {seed}: a quarantined panic must not leave poisoned engine locks"
    );

    // The server is not wedged: a clean follow-up drain on the same instance works.
    chaotic.try_submit(make_array(GRID, 99), 0, CHUNK).unwrap();
    let after = chaotic
        .try_drain_with(par)
        .expect("post-chaos drain succeeds");
    assert_eq!(after.len(), 1);
    assert!(chaotic.last_drain().expect("report").failures().is_empty());
    victim
}

/// Serial chaos: deterministic dispatch order, every seed in the campaign.
#[test]
fn seeded_chaos_isolates_faults_serially() {
    for seed in chaos_seeds() {
        run_episode(seed, &Serial);
    }
}

/// Parallel chaos: same contract with a multi-worker crew racing the panic.
#[test]
fn seeded_chaos_isolates_faults_in_parallel() {
    let rt = Runtime::new(4);
    for seed in chaos_seeds() {
        run_episode(seed, &rt);
    }
}

/// Injected compile failures surface as typed errors, the next lookup compiles, and
/// the registry still compiles each surviving key exactly once (no wedged in-flight
/// slot, no duplicate compile after the failed attempts).
#[test]
fn compile_faults_heal_without_breaking_exactly_once() {
    let registry = SessionRegistry::with_capacity(8);
    let spec = StencilSpec::new(star_shape::<2>(1));
    let plan = ExecutionPlan::trap().with_coarsening(Coarsening::new(2, [6, 6]));

    faults::inject_compile_failures(2);
    for attempt in 0..2 {
        let err = registry
            .try_get_or_compile(&spec, &plan, [21, 21], 3)
            .err()
            .expect("an armed failure surfaces");
        assert!(
            matches!(&err, ServeError::CompileFailed { detail }
                if detail.contains(faults::INJECTED_COMPILE_FAILURE)),
            "attempt {attempt}: {err:?}"
        );
        assert_eq!(registry.len(), 0, "a failed compile leaves no entry");
    }
    let (program, lookup) = registry
        .try_get_or_compile(&spec, &plan, [21, 21], 3)
        .expect("the failures are spent: this lookup compiles");
    assert!(!lookup.hit);
    assert_eq!(registry.len(), 1);

    // Exactly-once: the healed entry is shared, not recompiled.
    let (again, lookup) = registry
        .try_get_or_compile(&spec, &plan, [21, 21], 3)
        .expect("healed key resolves");
    assert!(lookup.hit);
    assert!(std::sync::Arc::ptr_eq(&program, &again));
    assert_eq!(registry.stats().misses, 1, "failed attempts are not misses");
}

/// A whole chaos campaign is reproducible: the same seed yields the same victim, the
/// same outcomes, and bitwise-identical surviving arrays across two runs.
#[test]
fn chaos_episodes_are_reproducible() {
    let seed = 42;
    let run = |_: ()| {
        let plan = FaultPlan::seeded(seed, TENANTS, WINDOWS);
        let mut s = server(GRID, CHUNK).with_fault_plan(plan);
        for i in 0..TENANTS {
            s.try_submit(make_array(GRID, i as i64), 0, WINDOWS as i64 * CHUNK)
                .unwrap();
        }
        let arrays = s.try_drain_with(&Serial).expect("drain");
        let outcomes: Vec<TicketOutcome> = (0..TENANTS)
            .map(|t| {
                s.last_drain()
                    .expect("report")
                    .outcome(t)
                    .expect("per-ticket")
                    .clone()
            })
            .collect();
        let snapshots: Vec<Vec<f64>> = arrays
            .iter()
            .map(|a| a.snapshot(WINDOWS as i64 * CHUNK))
            .collect();
        (outcomes, snapshots)
    };
    assert_eq!(run(()), run(()));
}
