//! Sharded giants as serving tenants: `submit_sharded` queues **one** ticket whose
//! windows are rounds of the shard pipeline (every tile advances a window, then the
//! halo seams are exchanged).  One submission is one ticket and one returned array,
//! bitwise identical to the unsharded run; a panicking round retires that ticket
//! alone.

use pochoir_core::boundary::Boundary;
use pochoir_core::engine::serving::{StencilServer, SubmitOptions};
use pochoir_core::engine::{Coarsening, ExecutionPlan, FaultPlan, Sharding, TicketOutcome};
use pochoir_core::grid::PochoirArray;
use pochoir_core::kernel::{StencilKernel, StencilSpec};
use pochoir_core::shape::star_shape;
use pochoir_core::view::GridAccess;
use pochoir_runtime::Serial;

struct Heat1D;
impl StencilKernel<f64, 1> for Heat1D {
    fn update<A: GridAccess<f64, 1>>(&self, g: &A, t: i64, x: [i64; 1]) {
        let v = 0.25 * g.get(t, [x[0] - 1]) + 0.5 * g.get(t, [x[0]]) + 0.25 * g.get(t, [x[0] + 1]);
        g.set(t + 1, x, v);
    }
}

const N: usize = 600_000;
const STEPS: i64 = 12;
const CHUNK: i64 = 4;
const ROUNDS: u64 = (STEPS / CHUNK) as u64;
const TILES: u32 = 4;

fn make_grid(n: usize, seed: i64) -> PochoirArray<f64, 1> {
    let mut a = PochoirArray::<f64, 1>::new([n]);
    a.register_boundary(Boundary::Periodic);
    a.fill_time_slice(0, |x| ((x[0] * 17 + 3 + seed) % 101) as f64 * 0.25);
    a
}

// Pinned tile count so the tiling is machine-independent (auto mode sizes the tile
// count off the runtime's worker count).
fn giant_plan() -> ExecutionPlan<1> {
    ExecutionPlan::trap()
        .with_coarsening(Coarsening::none())
        .with_sharding(Sharding::Tiles(TILES))
}

fn server(n: usize) -> StencilServer<f64, Heat1D, 1> {
    let spec = StencilSpec::new(star_shape::<1>(1));
    StencilServer::new(spec, Heat1D, giant_plan(), [n], CHUNK)
}

/// `grid` stepped `[0, steps)` by the unsharded recursive engine.
fn reference(mut grid: PochoirArray<f64, 1>, steps: i64) -> PochoirArray<f64, 1> {
    pochoir_core::engine::run(
        &mut grid,
        &StencilSpec::new(star_shape::<1>(1)),
        &Heat1D,
        0,
        steps,
        &giant_plan().with_sharding(Sharding::Off),
        &Serial,
    );
    grid
}

fn assert_bitwise(got: &PochoirArray<f64, 1>, want: &PochoirArray<f64, 1>, t1: i64) {
    assert_eq!(got.snapshot(t1), want.snapshot(t1));
    assert_eq!(got.snapshot(t1 - 1), want.snapshot(t1 - 1));
}

#[test]
fn sharded_submission_is_one_ticket_and_drains_bitwise() {
    assert!(
        !pochoir_core::engine::schedule::should_compile([N as i64], &Coarsening::none(), CHUNK),
        "the giant must fail should_compile at the server's chunk height"
    );
    let expected = reference(make_grid(N, 0), STEPS);

    let mut server = server(N);
    // The sharded ticket shares the drain with an ordinary tenant of the same
    // geometry; shard rounds and whole-array windows interleave in the ready queue.
    let plain = server.submit(make_grid(N, 0), 0, STEPS);
    let sharded = server.submit_sharded(make_grid(N, 0), 0, STEPS, SubmitOptions::weighted(2));
    assert_eq!((plain, sharded), (0, 1));
    assert_eq!(server.pending(), 2);

    let results = server.try_drain_with(&Serial).expect("drain runs");
    assert_eq!(results.len(), 2);

    let report = server.last_drain().expect("drain reports");
    assert_eq!(
        report.outcomes,
        [TicketOutcome::Completed, TicketOutcome::Completed]
    );
    assert_eq!(report.completion_tick.len(), 2);
    // A round is one dispatch tick, whatever the tile count.
    assert_eq!(report.windows, ROUNDS + ROUNDS);

    assert_bitwise(&results[sharded], &expected, STEPS);
    assert_bitwise(&results[plain], &expected, STEPS);
}

#[test]
fn panicking_shard_round_retires_that_ticket_alone() {
    let expected = reference(make_grid(N, 1), STEPS);
    // The sharded ticket panics in its second round.
    let mut server = server(N).with_fault_plan(FaultPlan::new().panic_at(0, 1));
    let sharded = server.submit_sharded(make_grid(N, 0), 0, STEPS, SubmitOptions::default());
    let plain = server.submit(make_grid(N, 1), 0, STEPS);

    let results = server
        .try_drain_with(&Serial)
        .expect("drain survives the panic");
    assert_eq!(results.len(), 2);

    let report = server.last_drain().expect("drain reports");
    assert!(matches!(
        report.outcomes[sharded],
        TicketOutcome::Panicked { .. }
    ));
    assert_eq!(report.outcomes[plain], TicketOutcome::Completed);
    // The dead ticket dispatched rounds 0 and 1; its sibling ran every window.
    assert_eq!(report.windows, 2 + ROUNDS);
    assert_bitwise(&results[plain], &expected, STEPS);
    // The retired giant still comes back whole (its contents are unspecified).
    assert_eq!(results[sharded].sizes(), [N]);
}

/// The in-process form of `serve/tests/limits.rs`: an extent below
/// `Sharding::Tiles(k)` clamps the tile count, and back-to-back submissions still
/// come back one array each, in submission order.
#[test]
fn extent_below_the_tile_count_still_returns_one_array_per_submission() {
    const SMALL: usize = 3;
    let mut server = server(SMALL);
    let seeds = [0, 5, 9];
    for (ticket, &seed) in seeds.iter().enumerate() {
        let opts = SubmitOptions::default();
        assert_eq!(
            server.submit_sharded(make_grid(SMALL, seed), 0, STEPS, opts),
            ticket
        );
    }
    let results = server.try_drain_with(&Serial).expect("drain runs");
    assert_eq!(results.len(), seeds.len());
    assert_eq!(
        server.last_drain().expect("drain reports").windows,
        ROUNDS * seeds.len() as u64
    );
    for (result, &seed) in results.iter().zip(&seeds) {
        assert_bitwise(result, &reference(make_grid(SMALL, seed), STEPS), STEPS);
    }
}

#[test]
fn barrier_drain_matches_pipelined_drain_with_a_sharded_submission_queued() {
    const M: usize = 4_000;
    // An uneven tail: 10 steps = two full rounds and a 2-step one.
    let queue = |server: &mut StencilServer<f64, Heat1D, 1>| {
        server.submit(make_grid(M, 2), 0, 10);
        server.submit_sharded(make_grid(M, 3), 0, 10, SubmitOptions::default());
        server.submit(make_grid(M, 4), 0, STEPS);
    };
    let (mut pipelined, mut barrier) = (server(M), server(M));
    queue(&mut pipelined);
    queue(&mut barrier);
    let a = pipelined.drain_with(&Serial);
    let b = barrier.drain_barrier_with(&Serial);
    assert_eq!((a.len(), b.len()), (3, 3));
    for ((x, y), (seed, t1)) in a.iter().zip(&b).zip([(2, 10), (3, 10), (4, STEPS)]) {
        assert_bitwise(x, y, t1);
        assert_bitwise(x, &reference(make_grid(M, seed), t1), t1);
    }
}
