//! How many payload-sized buffers one bulk request costs.  A counting global
//! allocator tallies allocations of at least 1 MiB while a 1024² heat grid
//! goes submit / wait / fetch over loopback (8 MiB in: the one slice heat
//! reads; 16 MiB out) — one round trip, the `Result` answering the `Submit`.
//! With the payload moved between grid storage and socket, a connection's
//! first request makes exactly two — the array the server builds for the
//! `Submit` (which the drain steps and keeps as the result) and the `Vec` the
//! client's `FetchedResult` hands back — and its next request of the same
//! shape one, because the server refills the array its last result left.  The
//! result's digest adds none.  In an optimized build on Linux, the connection
//! worker takes at most [`MAX_STEADY_FAULTS`] minor page faults per
//! steady-state request (read from `/proc/self/task/*/stat`).
//!
//! Alone in its test binary on purpose: the allocator is process-wide.  The
//! allocator's `unsafe impl` forwards to `System` unchanged; it is the only
//! `unsafe` under `crates/serve` (the library forbids it).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use pochoir_runtime::Serial;
use pochoir_serve::server::{ServeConfig, Server};
use pochoir_serve::{Client, Deadline, Session};
use pochoir_stencils::heat;
use pochoir_stencils::traffic::{digest_grid, heat_grid, usizes};
use pochoir_trace::TraceApp;

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

const GEOMETRY: [u64; 2] = [1024, 1024];
const STEPS: i64 = 4;

/// Steady-state requests whose connection-worker page faults are pinned.
const STEADY_REQUESTS: usize = 8;

/// Most minor page faults the connection worker may take in one steady-state
/// request.  Measured on x86-64 Linux in a release build: 0 in seven of the
/// eight, 1 in the other.  The worker reads the 8 MiB `Submit` slice into the
/// array it kept and writes the `Result` from it, so its pages are already
/// mapped; a fresh 8 MiB array would fault 2 048 4 KiB pages, a fresh 256 KiB
/// buffer 64.
const MAX_STEADY_FAULTS: u64 = 4;

/// `comm` of a connection worker: its name, `pochoir-serve-conn`, cut to the
/// 15 bytes `comm` keeps.
const CONN_COMM: &str = "pochoir-serve-c";

/// Minor page faults so far of every connection worker in the process: field
/// 10 of `/proc/self/task/<tid>/stat` for each thread whose `comm` is
/// [`CONN_COMM`].
fn conn_minor_faults() -> u64 {
    let mut faults = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("task entry").path();
        let (Ok(comm), Ok(stat)) = (
            std::fs::read_to_string(dir.join("comm")),
            std::fs::read_to_string(dir.join("stat")),
        ) else {
            continue; // the thread exited between the listing and the read
        };
        if comm.trim_end() != CONN_COMM {
            continue;
        }
        // Fields run from 1; field 2 is the parenthesized comm, and field 3
        // starts after its closing parenthesis.
        let after_comm = &stat[stat.rfind(')').expect("stat has a comm") + 1..];
        let minflt = after_comm.split_whitespace().nth(10 - 3).expect("field 10");
        faults += minflt.parse::<u64>().expect("a fault count");
    }
    faults
}

/// Large allocations made by `f`.
fn large_allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = LARGE.load(Ordering::Relaxed);
    let out = f();
    (LARGE.load(Ordering::Relaxed) - before, out)
}

#[test]
fn a_bulk_request_allocates_two_payload_sized_buffers_then_one() {
    let server = Server::start(ServeConfig::default()).expect("server");
    let grid = heat_grid(usizes::<2>(&GEOMETRY), 0);
    let expected = {
        let mut local = heat_grid(usizes::<2>(&GEOMETRY), 0);
        let reference = heat::try_serve_2d(usizes::<2>(&GEOMETRY), STEPS).unwrap();
        reference
            .program()
            .run(&mut local, reference.kernel(), 0, STEPS, &Serial);
        digest_grid(&local, STEPS)
    };
    let request = |client: &mut Client, session: &Session| {
        let id = client
            .submit_grid(session, &grid, 0, 0, STEPS, 1, Deadline::None)
            .expect("submit");
        client
            .wait_fetch(id, Duration::from_secs(120))
            .expect("wait+fetch")
    };
    let connect = || {
        let mut client = Client::connect(server.addr()).expect("connect");
        let session = client
            .negotiate(TraceApp::Heat2d, &GEOMETRY, STEPS)
            .expect("negotiate");
        (client, session)
    };

    // One warm-up on its own connection: first-use allocations (the compiled
    // session, the schedule arena, map growth) are not what this counts.
    let (mut warm, session) = connect();
    assert_eq!(request(&mut warm, &session).digest(), expected);

    let (mut client, session) = connect();
    let (first, fetched) = large_allocations(|| request(&mut client, &session));
    let (digest, digest_value) = large_allocations(|| fetched.digest());
    assert_eq!(digest_value, expected);
    let (next, fetched) = large_allocations(|| request(&mut client, &session));
    assert_eq!(fetched.digest(), expected);
    // Minor faults of the connection workers per steady-state request (the
    // warm-up connection's worker idles meanwhile), in optimized builds on
    // Linux: `/proc` is Linux's, and the bound is a release-build measurement
    // (under AddressSanitizer, which runs this binary unoptimized, every
    // allocation lands on fresh pages: 33–177 faults per request).
    let mut steady = Vec::new();
    if cfg!(all(target_os = "linux", not(debug_assertions))) {
        for _ in 0..STEADY_REQUESTS {
            let before = conn_minor_faults();
            assert_eq!(request(&mut client, &session).digest(), expected);
            steady.push(conn_minor_faults() - before);
        }
    }

    drop((warm, client));
    server.shutdown();
    assert_eq!(
        first, 2,
        "a connection's first 16 MiB request made {first} allocations of ≥ 1 MiB; \
         streaming leaves the server's array and the client's fetched payload"
    );
    assert_eq!(digest, 0, "the digest decoded the payload into copies");
    assert_eq!(
        next, 1,
        "the next request made {next}; the server should refill its last result's array"
    );
    assert!(
        steady.iter().all(|&faults| faults <= MAX_STEADY_FAULTS),
        "connection-worker minor faults per steady-state request: {steady:?}; \
         over {MAX_STEADY_FAULTS} means the worker touches fresh pages each request"
    );
}
