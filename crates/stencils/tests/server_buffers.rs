//! What a steady-state `StencilServer` drain costs in buffers.  The server's program
//! comes from the process-global session registry; a counting global allocator
//! tallies allocations of at least 1 MiB per op — one submit plus one drain, the
//! drained array submitted again as the next op's input:
//!
//! * an unsharded 2-D heat ticket (512², a 4 MiB array) allocates none — the array
//!   travels into the queue and back out;
//! * a plain ticket of a giant (`heat::serve_giant_1d(600_000, 4)`, the trace
//!   corpus's giant, 8 steps) allocates none either: each window replays the whole
//!   grid's schedule, compiled once at the engine-made base case, in place;
//! * a sharded ticket (`heat::serve_giant_1d(200_000, 4)`, the benchmark's
//!   `shard-giant` shape, K = 2 tiles on a two-worker pool) allocates exactly its K
//!   tile arrays, every op: unlike a `CompiledStencil`, the server keeps no spare
//!   tiles between submissions.
//!
//! Alone in its test binary on purpose: the allocator is process-wide, and so is the
//! count.  The allocator's `unsafe impl` forwards to `System` unchanged.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pochoir_core::boundary::Boundary;
use pochoir_core::engine::{SubmitOptions, TicketOutcome};
use pochoir_runtime::Runtime;
use pochoir_stencils::heat;

const MIB: usize = 1 << 20;

/// Allocations and reallocations of at least [`MIB`] bytes.
static LARGE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn note(size: usize) {
    if size >= MIB {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so each
// caller's contract with this allocator is `System`'s contract; counting reads
// only the requested size.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Steady-state ops measured after the first.
const OPS: i64 = 4;
/// The pool's worker count, which is the sharded ticket's tile count K.
const WORKERS: usize = 2;

/// Large allocations made by `f`.
fn large_allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = LARGE.load(Ordering::Relaxed);
    let out = f();
    (LARGE.load(Ordering::Relaxed) - before, out)
}

#[test]
fn steady_state_server_ops_allocate_only_sharded_tiles() {
    let runtime = Arc::new(Runtime::new(WORKERS));

    // Unsharded: 512² heat in windows of 4, 8 steps per op.
    let window = 4;
    let steps = 8;
    let mut server = heat::try_serve_2d([512, 512], window)
        .unwrap()
        .with_runtime(Arc::clone(&runtime));
    let mut grid = heat::build([512, 512], Boundary::Periodic);
    for op in 0..=OPS {
        let (large, mut drained) = large_allocations(|| {
            server
                .try_submit(grid, op * steps, (op + 1) * steps)
                .unwrap();
            server.try_drain().unwrap()
        });
        grid = drained.pop().expect("one ticket, one array");
        if op > 0 {
            assert_eq!(
                large, 0,
                "unsharded op {op} made {large} allocations of ≥ 1 MiB"
            );
        }
    }

    // A plain giant ticket: the corpus giant, two windows per op.
    let mut server = heat::serve_giant_1d(600_000, window).with_runtime(Arc::clone(&runtime));
    let mut grid = heat::build([600_000], Boundary::Periodic);
    for op in 0..=OPS {
        let (large, mut drained) = large_allocations(|| {
            server
                .try_submit(grid, op * steps, (op + 1) * steps)
                .unwrap();
            server.try_drain().unwrap()
        });
        grid = drained.pop().expect("one ticket, one array");
        if op > 0 {
            assert_eq!(
                large, 0,
                "plain giant op {op} made {large} allocations of ≥ 1 MiB"
            );
        }
    }
    assert_eq!(server.stats().sharded_runs, 0);

    // Sharded: the shard-giant shape, one ticket per op.
    let steps = 24;
    let mut server = heat::serve_giant_1d(200_000, 4).with_runtime(runtime);
    let mut grid = heat::build([200_000], Boundary::Periodic);
    for op in 0..=OPS {
        let (large, mut drained) = large_allocations(|| {
            server
                .try_submit_sharded(grid, op * steps, (op + 1) * steps, SubmitOptions::default())
                .unwrap();
            server.try_drain().unwrap()
        });
        assert_eq!(
            server.last_drain().expect("a drain ran").outcome(0),
            Some(&TicketOutcome::Completed)
        );
        grid = drained.pop().expect("one ticket, one array");
        if op > 0 {
            assert_eq!(
                large, WORKERS,
                "sharded op {op} made {large} allocations of ≥ 1 MiB; a ticket allocates \
                 its {WORKERS} tile arrays"
            );
        }
    }
}
