//! How many payload-sized buffers one bulk request costs.  A counting global
//! allocator tallies allocations of at least 1 MiB while a 1024² heat grid
//! (16 MiB each way) goes submit / wait / fetch over loopback.  With the
//! payload streamed between rows and socket, a connection's first request makes
//! exactly two — the array the server builds for the `Submit` (which the drain
//! steps and keeps as the result) and the `Vec` the client's `FetchedResult`
//! hands back — and its next request of the same shape one, because the server
//! refills the array its last result left.  The result's digest adds none.
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
        let reference = heat::serve_2d(usizes::<2>(&GEOMETRY), STEPS);
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
}
