//! Pipelined multi-tenant serving: weights, deadlines, and barrier-free drains.
//!
//! Three tenant classes share one 2D heat geometry — and therefore one compiled
//! schedule, fetched from the process-global session registry:
//!
//! * an **interactive** tenant: short windows, weight 4, a tight logical deadline;
//! * a **standard** tenant: medium request, weight 2;
//! * a **batch** tenant: a long background request, weight 1, no deadline.
//!
//! A single pipelined `try_drain()` splits every submission into per-window work items
//! and dispatches them in (deadline, weighted virtual time, ticket) order, so the
//! interactive tenant's windows run first and the batch tenant's windows fill the
//! gaps — no tenant waits for a barrier.  The example then runs each tenant's grid
//! alone through the shared program and asserts the results are bitwise identical:
//! scheduling changes order, never values.

use pochoir_core::boundary::Boundary;
use pochoir_core::engine::serving::SubmitOptions;
use pochoir_stencils::heat;

const N: usize = 64;
const WINDOW: i64 = 4;

fn tenant_grid(seed: i64) -> pochoir_core::grid::PochoirArray<f64, 2> {
    let mut grid = heat::build([N, N], Boundary::Periodic);
    grid.set(0, [seed * 3 + 1, seed * 5 + 2], 120.0 + seed as f64);
    grid
}

fn main() {
    // (t0, t1, options, label) per tenant; ticket order is submission order.
    let tenants: [(i64, i64, SubmitOptions, &str); 4] = [
        (0, 24, SubmitOptions::weighted(1), "batch      w=1"),
        (0, 8, SubmitOptions::weighted(2), "standard   w=2"),
        (
            0,
            4,
            SubmitOptions::weighted(4).with_deadline(1),
            "interactive w=4 d=1",
        ),
        (
            0,
            4,
            SubmitOptions::weighted(4).with_deadline(2),
            "interactive w=4 d=2",
        ),
    ];

    let mut server = heat::try_serve_2d([N, N], WINDOW).unwrap();
    for (i, &(t0, t1, opts, _)) in tenants.iter().enumerate() {
        let ticket = server
            .try_submit_with(tenant_grid(i as i64), t0, t1, opts)
            .unwrap();
        assert_eq!(ticket, i);
    }
    let pipelined = server.try_drain().unwrap();
    let report = server.last_drain().expect("drain just ran").clone();

    println!("pipelined drain over {} tenants:", tenants.len());
    println!("  windows dispatched : {}", report.windows);
    println!("  peak ready queue   : {}", report.peak_ready);
    println!("  deadline misses    : {}", report.deadline_misses);
    for (i, &(_, t1, _, label)) in tenants.iter().enumerate() {
        println!(
            "  ticket {i} [{label}] {:2} steps -> final window at tick {:2}",
            t1, report.completion_tick[i]
        );
    }

    // Timing-robust facts only (this drain may run on a multi-worker pool, where
    // the *relative* order of same-priority tenants depends on execution timing):
    // the interactive tenants dispatched first — at drain start every chain is
    // ready, so the EDF pops at ticks 1 and 2 are theirs whichever worker asks —
    // and every window of every tenant was dispatched exactly once.
    assert_eq!(report.completion_tick[2], 1);
    assert_eq!(report.completion_tick[3], 2);
    assert_eq!(report.deadline_misses, 0);
    assert_eq!(report.windows, 6 + 2 + 1 + 1);

    // Each grid alone, one monolithic run of the shared program: bitwise identical.
    let par = pochoir_runtime::Runtime::global();
    for (i, (a, &(t0, t1, _, _))) in pipelined.iter().zip(&tenants).enumerate() {
        let mut alone = tenant_grid(i as i64);
        server
            .program()
            .run(&mut alone, server.kernel(), t0, t1, par);
        assert_eq!(a.snapshot(t1), alone.snapshot(t1), "tenant {i} diverged");
    }
    println!(
        "pipelined == sequential bitwise for all {} tenants ✓",
        tenants.len()
    );

    // All 10 pipelined windows replayed the single height-4 schedule; only the
    // sequential reference runs added the monolithic heights (8 and 24) as extra
    // compiles.
    let stats = server.stats();
    println!(
        "shared session: {} runs, {} schedule compiles, {} pinned-schedule reuses",
        stats.runs, stats.schedule_compiles, stats.schedule_reuses
    );
}
