//! Fault-isolated serving: one tenant's kernel panic is quarantined, siblings finish.
//!
//! Eight tenants share one 2D heat geometry.  A seeded [`FaultPlan`] picks one of
//! them to panic mid-chain (plus a couple of deterministic slow-worker delays on
//! others) — the same seed always produces the same faults.  The drain is taken
//! through `try_drain()`, which never unwinds: the panicked tenant's remaining
//! windows are cancelled and its failure is recorded per-ticket in the
//! [`DrainReport`], while every sibling completes bitwise-identically to a
//! fault-free run.  Afterwards the same server serves a clean follow-up drain,
//! demonstrating that nothing — scheduler, session registry, locks — was wedged.
//!
//! Seed it differently with `POCHOIR_CHAOS_SEED=<n> cargo run --example chaos_tenant`.

use pochoir_core::boundary::Boundary;
use pochoir_core::engine::{FaultPlan, TicketOutcome};
use pochoir_stencils::heat;

const N: usize = 48;
const WINDOW: i64 = 3;
const TENANTS: usize = 8;
const WINDOWS_PER_TENANT: u64 = 6;

fn tenant_grid(seed: i64) -> pochoir_core::grid::PochoirArray<f64, 2> {
    let mut grid = heat::build([N, N], Boundary::Periodic);
    grid.set(0, [seed * 3 + 1, seed * 5 + 2], 120.0 + seed as f64);
    grid
}

fn main() {
    let seed: u64 = std::env::var("POCHOIR_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let plan = FaultPlan::seeded(seed, TENANTS, WINDOWS_PER_TENANT);
    let victim = plan.panicking_tickets()[0];
    let steps = WINDOWS_PER_TENANT as i64 * WINDOW;
    println!("chaos seed {seed}: tenant {victim} will panic mid-chain");

    let mut server = heat::try_serve_2d([N, N], WINDOW)
        .expect("valid geometry compiles")
        .with_fault_plan(plan);
    for i in 0..TENANTS {
        server.try_submit(tenant_grid(i as i64), 0, steps).unwrap();
    }
    // The injected panic is caught and quarantined by the drain, but the default
    // panic hook would still print its backtrace; keep the demo's output readable.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let grids = server
        .try_drain()
        .expect("try_drain records failures per ticket instead of unwinding");
    std::panic::set_hook(default_hook);
    let report = server.last_drain().expect("drain just ran").clone();

    println!(
        "drained {} tenants, {} windows dispatched, outcomes:",
        grids.len(),
        report.windows
    );
    for (ticket, outcome) in report.outcomes.iter().enumerate() {
        let line = match outcome {
            TicketOutcome::Completed => "completed".to_string(),
            TicketOutcome::Panicked { message } => format!("PANICKED: {message}"),
        };
        println!("  ticket {ticket}: {line}");
    }
    assert!(matches!(
        report.outcome(victim),
        Some(TicketOutcome::Panicked { .. })
    ));
    assert_eq!(report.failures().len(), 1);

    // Every sibling is bitwise identical to a fault-free reference drain.
    let mut reference = heat::try_serve_2d([N, N], WINDOW).unwrap();
    for i in 0..TENANTS {
        reference
            .try_submit(tenant_grid(i as i64), 0, steps)
            .unwrap();
    }
    let clean = reference.try_drain().unwrap();
    let mut survivors = 0;
    for (i, (faulted, fault_free)) in grids.iter().zip(&clean).enumerate() {
        if i == victim {
            continue; // its chain was cut short on purpose
        }
        assert_eq!(
            faulted.snapshot(steps),
            fault_free.snapshot(steps),
            "sibling {i} diverged"
        );
        survivors += 1;
    }
    println!("{survivors} sibling tenants bitwise-equal to the fault-free run ✓");

    // The server is not wedged: a clean follow-up drain on the same instance.
    server.try_submit(tenant_grid(9), 0, WINDOW).unwrap();
    let after = server.try_drain().expect("post-panic drain succeeds");
    assert_eq!(after.len(), 1);
    assert!(server.last_drain().expect("report").failures().is_empty());
    println!("follow-up drain after quarantine: clean ✓");
}
