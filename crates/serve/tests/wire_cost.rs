//! What one request costs on the wire, in frames, in bytes and in round-trip
//! time.
//!
//! Alone in its test binary on purpose: the frame counters are
//! `Runtime::global()`'s, so a second test in the process would count into the
//! same totals.

use std::time::{Duration, Instant};

use pochoir_runtime::Runtime;
use pochoir_serve::server::{ServeConfig, Server};
use pochoir_serve::{Client, ClientError, Deadline, RequestStatus};
use pochoir_stencils::traffic::{heat_grid, usizes};
use pochoir_trace::corpus::GIANT_CELLS;
use pochoir_trace::{TraceApp, TRACE_APPS};

const GEOMETRY: [u64; 2] = [16, 16];
const WINDOW: i64 = 4;
const T1: i64 = 8;

/// Bytes of a `Submit` before its payload: the 4-byte length prefix, then
/// opcode, session, tenant, `t0`, `t1`, weight, deadline kind and value, elem
/// and payload length.
const SUBMIT_HEAD: u64 = 4 + 1 + 4 + 4 + 8 + 8 + 4 + 1 + 8 + 1 + 4;

/// Bytes of a `Result` before its payload: the length prefix, then opcode,
/// elem, `t1`, `slice_len` and payload length.
const RESULT_HEAD: u64 = 4 + 1 + 1 + 8 + 8 + 4;

/// Frames in, frames out, bytes in and bytes out a whole connection moved: a
/// fresh server, `session` on one connection, and a shutdown — which joins the
/// worker, so every frame it handled is counted by the time the totals are
/// read.  The client hangs up without a `Close`: that frame has no reply, so
/// whether the worker reads it before it sees the shutdown flag would be a
/// race in the count.
fn frames_of(session: impl FnOnce(&mut Client)) -> [u64; 4] {
    let before = Runtime::global().metrics();
    let server = Server::start(ServeConfig::default()).expect("server");
    let mut client = Client::connect(server.addr()).expect("connect");
    session(&mut client);
    drop(client);
    server.shutdown();
    let moved = before.delta(&Runtime::global().metrics());
    [
        moved.net_frames_in,
        moved.net_frames_out,
        moved.net_bytes_in,
        moved.net_bytes_out,
    ]
}

#[test]
fn a_request_is_one_frame_each_way_and_no_stall() {
    // Every app, the giant included: the `Submit` is answered by its `Result`,
    // so a request is one frame each way, and `wait`, `poll` and `fetch` read
    // what the client already holds — the same connection with all three
    // called, and a second `fetch` refused, moves exactly the frames of the
    // submit alone.  The `Submit` carries the `depth` slices the run reads,
    // the `Result` the last two.
    for app in TRACE_APPS {
        let (geometry, elem_bytes, depth): (Vec<u64>, u64, u64) = match app {
            TraceApp::Heat2d => (GEOMETRY.to_vec(), 8, 1),
            TraceApp::Life => (GEOMETRY.to_vec(), 1, 1),
            TraceApp::Wave3d => (vec![8, 8, 8], 8, 2),
            TraceApp::HeatGiant1d => (vec![GIANT_CELLS], 8, 1),
        };
        let slice = geometry.iter().product::<u64>() * elem_bytes;
        let negotiate = |client: &mut Client| client.negotiate(app, &geometry, WINDOW);
        let idle = frames_of(|client| {
            negotiate(client).expect("negotiate");
        });
        let submit = |client: &mut Client| {
            let session = negotiate(client).expect("negotiate");
            client
                .submit_tenant(&session, 0, T1, 1, Deadline::None)
                .expect("submit")
        };
        let submitted = frames_of(|client| {
            submit(client);
        });
        let collected = frames_of(|client| {
            let request = submit(client);
            let waited = client.wait(request, Duration::from_secs(120));
            assert_eq!(waited.expect("wait"), RequestStatus::Done, "{app:?}");
            let polled = client.poll(request).expect("poll");
            assert_eq!(polled, RequestStatus::Done, "{app:?}");
            client.fetch(request).expect("fetch");
            assert!(
                matches!(client.fetch(request), Err(ClientError::UnknownRequest(r)) if r == request),
                "{app:?}: a fetch consumes the result"
            );
        });
        let request: [u64; 4] = std::array::from_fn(|i| submitted[i] - idle[i]);
        assert_eq!(
            request,
            [1, 1, SUBMIT_HEAD + depth * slice, RESULT_HEAD + 2 * slice],
            "{app:?}: a request is 1 frame in and 1 out, the Submit {depth} slice(s) of \
             {slice} bytes and the Result 2 (idle connection: {idle:?}, with one request: \
             {submitted:?})"
        );
        assert_eq!(
            collected, submitted,
            "{app:?}: wait / poll / fetch must add no frames"
        );
    }

    // A small request is the framing floor: one 4 KiB `Submit` out, one 4 KiB
    // `Result` back, around a few µs of stencil work.  A single Nagle /
    // delayed-ACK stall is ≥ 40 ms, so a lost `TCP_NODELAY` or a frame split
    // over two writes cannot hide under 10 ms.
    let server = Server::start(ServeConfig::default()).expect("server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let session = client
        .negotiate(TraceApp::Heat2d, &GEOMETRY, WINDOW)
        .expect("negotiate");
    let grid = heat_grid(usizes::<2>(&GEOMETRY), 1);
    let mut round_trips: Vec<Duration> = (0..20)
        .map(|_| {
            let started = Instant::now();
            let request = client
                .submit_grid(&session, &grid, 1, 0, T1, 1, Deadline::None)
                .expect("submit");
            let took = started.elapsed();
            client.fetch(request).expect("fetch");
            took
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median request round trip {median:?} (all: {round_trips:?})"
    );
    client.close().expect("close");
    server.shutdown();
}
