//! Liveness of the pipelined drain on a pool with more workers than cores.
//!
//! A crew worker of `StencilServer::try_drain` runs as a pool job, and a worker blocked
//! in a window's phase `join` may steal one that has not started yet.  If that job
//! waited for the whole drain to finish, it would wait on a window sitting below it
//! on the same stack: a livelock that spins forever instead of failing.  Each case
//! here therefore runs its body on its own thread under a wall-clock watchdog, so a
//! hang fails the test with a message rather than stalling the suite.
//!
//! Both cases use `Runtime::new(4)` whatever the machine's core count, and check
//! every result bitwise: the chaos siblings against each array run alone on
//! `Serial`, the giants against a `Serial` drain.

use pochoir::core::engine::serving::{StencilServer, SubmitOptions};
use pochoir::core::engine::TicketOutcome;
use pochoir::prelude::*;
use pochoir::stencils::heat::{self, HeatKernel};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// How long a case may run before it counts as hung.  A passing run takes seconds
/// even unoptimized.
const DEADLINE: Duration = Duration::from_secs(60);

/// Runs `body` on a fresh thread and fails if it does not finish within
/// [`DEADLINE`].  A panic inside `body` is re-raised here unchanged.
fn within_deadline(name: &str, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(name.to_owned())
        .spawn(move || {
            body();
            let _ = done.send(());
        })
        .expect("spawn the case thread");
    match finished.recv_timeout(DEADLINE) {
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("{name}: no progress in {DEADLINE:?} (drain livelock?)")
        }
    }
}

const TENANTS: usize = 8;
const WINDOWS: u64 = 5;
const CHUNK: i64 = 2;
const GRID: usize = 17;
const EPISODES: u64 = 40;

/// A heat server whose windows are phase-parallel even on a small grid, so a
/// window's execution joins on the pool.
fn heat_server() -> StencilServer<f64, HeatKernel<2>, 2> {
    StencilServer::try_new(
        StencilSpec::new(heat::shape::<2>()),
        HeatKernel::<2>::default(),
        ExecutionPlan::trap().with_coarsening(Coarsening::new(2, [6, 6])),
        [GRID, GRID],
        CHUNK,
    )
    .unwrap()
}

fn tenant_grid(tenant: usize) -> PochoirArray<f64, 2> {
    let mut grid = heat::build([GRID, GRID], Boundary::Periodic);
    grid.set(0, [tenant as i64, 2 * tenant as i64], 100.0);
    grid
}

fn submit_tenants(server: &mut StencilServer<f64, HeatKernel<2>, 2>) {
    for tenant in 0..TENANTS {
        server
            .try_submit(tenant_grid(tenant), 0, WINDOWS as i64 * CHUNK)
            .unwrap();
    }
}

/// Seeded chaos on four workers: one tenant panics mid-chain, a few are slowed, and
/// every drain must still end with the siblings bitwise equal to a fault-free run.
#[test]
fn chaos_drains_end_on_four_workers() {
    within_deadline("chaos", || {
        let steps = WINDOWS as i64 * CHUNK;
        // Fault-free reference: each grid run alone through the shared program.
        let reference = heat_server();
        let expected: Vec<Vec<f64>> = (0..TENANTS)
            .map(|tenant| {
                let mut grid = tenant_grid(tenant);
                let kernel = reference.kernel();
                reference
                    .program()
                    .run(&mut grid, kernel, 0, steps, &Serial);
                grid.snapshot(steps)
            })
            .collect();

        let rt = Runtime::new(4);
        for seed in 0..EPISODES {
            let plan = FaultPlan::seeded(seed, TENANTS, WINDOWS);
            let victim = plan.panicking_tickets()[0];
            let mut chaotic = heat_server().with_fault_plan(plan);
            submit_tenants(&mut chaotic);
            let drained = chaotic
                .try_drain_with(&rt)
                .expect("drain reports per ticket");
            let report = chaotic.last_drain().expect("drain leaves a report");
            for (ticket, array) in drained.iter().enumerate() {
                if ticket == victim {
                    assert!(
                        matches!(report.outcome(ticket), Some(TicketOutcome::Panicked { .. })),
                        "seed {seed}: victim {ticket} reported {:?}",
                        report.outcome(ticket)
                    );
                } else {
                    assert_eq!(report.outcome(ticket), Some(&TicketOutcome::Completed));
                    assert!(
                        array.snapshot(steps) == expected[ticket],
                        "seed {seed}: sibling {ticket} differs from the fault-free run"
                    );
                }
            }
        }
    });
}

const GIANT: usize = 200_000;
const GIANT_STEPS: i64 = 12;
const GIANT_TICKETS: usize = 3;
const GIANT_DRAINS: usize = 10;

fn submit_giants(server: &mut StencilServer<f64, HeatKernel<1>, 1>) {
    for ticket in 0..GIANT_TICKETS {
        let mut grid = heat::build([GIANT], Boundary::Periodic);
        grid.set(0, [(ticket * GIANT / GIANT_TICKETS) as i64], 100.0);
        server
            .try_submit_sharded(grid, 0, GIANT_STEPS, SubmitOptions::default())
            .unwrap();
    }
}

/// Sharded giants on a pinned four-worker runtime: every window is a shard round
/// whose tiles join on the pool while sibling tickets wait in the ready queue.
#[test]
fn sharded_giant_drains_end_on_four_workers() {
    within_deadline("giant", || {
        let mut reference = heat::serve_giant_1d(GIANT, 4);
        submit_giants(&mut reference);
        let expected: Vec<Vec<f64>> = reference
            .try_drain_with(&Serial)
            .unwrap()
            .iter()
            .map(|a| a.snapshot(GIANT_STEPS))
            .collect();

        let mut server = heat::serve_giant_1d(GIANT, 4).with_runtime(Arc::new(Runtime::new(4)));
        for drain in 0..GIANT_DRAINS {
            submit_giants(&mut server);
            let results = server.try_drain().unwrap();
            assert_eq!(results.len(), GIANT_TICKETS);
            for (ticket, array) in results.iter().enumerate() {
                assert!(
                    array.snapshot(GIANT_STEPS) == expected[ticket],
                    "drain {drain}: giant {ticket} differs from the serial drain"
                );
            }
        }
    });
}
