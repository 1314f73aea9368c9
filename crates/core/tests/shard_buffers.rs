//! What a steady-state sharded op costs in buffers: a session keeps its tile
//! arrays from one `run_sharded` to the next, so only its first op on a plan
//! allocates them.  A counting global allocator tallies allocations of at least
//! 1 MiB while a 1-D heat grid of 200 000 cells (the benchmark's `shard-giant`
//! shape: 24 steps, uncoarsened, periodic, two tiles of ≈ 1.6 MB) steps through
//! one session: the first op makes exactly one per tile, every later op none.
//! Minor page faults per later op stay near zero too — the signal that shows a
//! buffer re-faulted from a fresh heap even when the allocation count looks fine.
//! Faults are process-wide (`/proc/self/stat`), since the pool's workers fill
//! and drain the tiles.  The same session's plain `run` — the giant route, the
//! whole grid compiled at the engine-made base case — allocates none after its
//! first op.
//!
//! Alone in its test binary on purpose: the allocator and the fault counter are
//! process-wide.  The allocator's `unsafe impl` forwards to `System` unchanged.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pochoir_core::boundary::Boundary;
use pochoir_core::engine::{Coarsening, CompiledStencil, ExecutionPlan};
use pochoir_core::grid::PochoirArray;
use pochoir_core::kernel::{StencilKernel, StencilSpec};
use pochoir_core::shape::star_shape;
use pochoir_core::view::GridAccess;
use pochoir_runtime::Runtime;

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

const CELLS: usize = 200_000;
const STEPS: i64 = 24;
/// Steady-state ops measured after the first.
const OPS: u64 = 4;
/// Minor faults allowed per steady-state op.  A 1.6 MB tile re-faulted from a fresh
/// heap is ≈ 400 pages (the two of a parent that reallocates them read ≈ 680 per
/// op); kept tiles read 0 in a release build, and AddressSanitizer's quarantine
/// adds ≈ 60 pages of its own per op.
const FAULTS_PER_OP: u64 = 128;

struct Heat1D;
impl StencilKernel<f64, 1> for Heat1D {
    fn update<A: GridAccess<f64, 1>>(&self, g: &A, t: i64, x: [i64; 1]) {
        let v = 0.25 * g.get(t, [x[0] - 1]) + 0.5 * g.get(t, [x[0]]) + 0.25 * g.get(t, [x[0] + 1]);
        g.set(t + 1, x, v);
    }
}

/// Large allocations made by `f`.
fn large_allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = LARGE.load(Ordering::Relaxed);
    let out = f();
    (LARGE.load(Ordering::Relaxed) - before, out)
}

/// The process's minor page faults so far: field 10 of `/proc/self/stat`, counted
/// from after the parenthesised command name (which may contain spaces).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let after_name = &stat[stat.rfind(')').expect("comm field") + 1..];
    after_name
        .split_whitespace()
        .nth(7)
        .and_then(|f| f.parse().ok())
        .expect("minflt field")
}

#[test]
fn steady_state_sharded_ops_allocate_no_tiles() {
    // A two-worker pool pins K = 2 whatever the host's core count.
    let session = CompiledStencil::new(
        StencilSpec::new(star_shape::<1>(1)),
        Heat1D,
        ExecutionPlan::trap().with_coarsening(Coarsening::none()),
        [CELLS],
        STEPS,
    )
    .with_runtime(Arc::new(Runtime::new(2)));
    let mut grid = PochoirArray::<f64, 1>::new([CELLS]);
    grid.register_boundary(Boundary::Periodic);
    grid.fill_time_slice(0, |x| ((x[0] * 37 + 11) % 101) as f64);

    let (first, report) = large_allocations(|| session.run_sharded(&mut grid, 0, STEPS));
    let report = report.expect("the giant shards");
    assert_eq!(report.tiles, 2);
    assert_eq!(
        first, report.tiles as usize,
        "the first op allocates one array per tile"
    );

    let faults_before = minor_faults();
    for op in 1..=OPS as i64 {
        let (large, report) =
            large_allocations(|| session.run_sharded(&mut grid, op * STEPS, (op + 1) * STEPS));
        report.expect("the giant shards");
        assert_eq!(
            large, 0,
            "steady-state op {op} made {large} allocations of ≥ 1 MiB; the session should \
             reuse its tile arrays"
        );
    }
    let faults = minor_faults() - faults_before;
    assert!(
        faults <= FAULTS_PER_OP * OPS,
        "{faults} minor faults over {OPS} steady-state ops (bound {FAULTS_PER_OP} per op)"
    );

    // The giant route on the same session: the whole grid's schedule replays in
    // place, so after its first op a `run` allocates nothing large either.
    let start = OPS as i64 + 1;
    for op in start..=start + OPS as i64 {
        let (large, ()) =
            large_allocations(|| session.run(&mut grid, op * STEPS, (op + 1) * STEPS));
        assert!(
            op == start || large == 0,
            "giant-route op {op} made {large} allocations of ≥ 1 MiB"
        );
    }
    let stats = session.stats();
    assert_eq!((stats.sharded_runs, stats.recursive_runs), (OPS + 1, 0));
    assert_eq!(stats.schedule_rejections, OPS + 1);
}
