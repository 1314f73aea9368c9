//! The serving layer in action: N independent grids of identical geometry served by
//! one shared compiled session, executed as parallel batches.
//!
//! The paper's model is "compile a stencil program once, run it many times"; a serving
//! deployment runs it many times *on many arrays at once* — one grid per user, per
//! region, per simulation instance.  This demo steps 8 independent heat grids through
//! a [`StencilServer`] (whole-array parallelism across requests, phase parallelism
//! within each), verifies the results are bitwise identical to 8 sequential session
//! runs, and shows the session counters proving one compile served all 8 arrays.
//!
//! Run with `cargo run --release --example serving_demo`.

use pochoir::core::engine::serving::registry_stats;
use pochoir::prelude::*;
use pochoir::stencils::heat;

fn main() {
    let n = 96usize;
    let window = 8i64;
    let rounds = 3i64;
    let tenants = 8usize;

    // One server for the geometry; its program comes from the process-global session
    // registry, so any other caller of the same geometry would share it too.
    let mut server = heat::try_serve_2d([n, n], window).unwrap();

    // Each "tenant" owns an independent grid (different initial noise per tenant).
    let make_grid = |seed: usize| {
        let mut a = heat::build([n, n], Boundary::Periodic);
        a.set(0, [seed as i64, seed as i64], 100.0 + seed as f64);
        a
    };
    let mut grids: Vec<PochoirArray<f64, 2>> = (0..tenants).map(make_grid).collect();

    // Steady state: every round submits all grids and drains them as one batch.
    for round in 0..rounds {
        for grid in grids.drain(..) {
            server
                .try_submit(grid, round * window, (round + 1) * window)
                .unwrap();
        }
        grids = server.try_drain().unwrap();
    }

    let stats = server.stats();
    println!("served {tenants} grids x {rounds} windows through one shared session:");
    println!(
        "  session: {} runs, {} schedule compiles, {} fetches, {} pinned replays",
        stats.runs, stats.schedule_compiles, stats.schedule_fetches, stats.schedule_reuses
    );
    let reg = registry_stats();
    println!(
        "  registry: {} hits, {} misses, {} evictions",
        reg.hits, reg.misses, reg.evictions
    );
    assert_eq!(
        stats.schedule_fetches, 1,
        "one eager fetch at construction serves every array and every round"
    );
    assert_eq!(stats.runs, tenants as u64 * rounds as u64);

    // The Pochoir Guarantee, serving edition: batched execution is bitwise identical
    // to running each tenant sequentially through its own session calls.
    let session = heat::session_2d([n, n], window);
    for (seed, grid) in grids.iter().enumerate() {
        let mut expected = make_grid(seed);
        for round in 0..rounds {
            session.run_with(&mut expected, round * window, (round + 1) * window, &Serial);
        }
        assert_eq!(
            grid.snapshot(rounds * window),
            expected.snapshot(rounds * window),
            "tenant {seed}: batched and sequential execution must agree exactly"
        );
    }
    println!("  bitwise check: batched == {tenants} sequential session runs");
}
