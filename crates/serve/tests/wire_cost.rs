//! What one request costs on the wire, in frames and in round-trip time.
//!
//! Alone in its test binary on purpose: the frame counters are
//! `Runtime::global()`'s, so a second test in the process would count into the
//! same totals.

use std::time::{Duration, Instant};

use pochoir_runtime::Runtime;
use pochoir_serve::server::{ServeConfig, Server};
use pochoir_serve::{Client, Deadline, RequestStatus};
use pochoir_trace::corpus::GIANT_CELLS;
use pochoir_trace::{TraceApp, TRACE_APPS};

const GEOMETRY: [u64; 2] = [16, 16];
const WINDOW: i64 = 4;
const T1: i64 = 8;

/// Frames (in, out) a whole connection moved: a fresh server, `session` on one
/// connection, and a shutdown — which joins the worker, so every frame it
/// handled is counted by the time the totals are read.  The client hangs up
/// without a `Close`: that frame has no reply, so whether the worker reads it
/// before it sees the shutdown flag would be a race in the count.
fn frames_of(session: impl FnOnce(&mut Client)) -> (u64, u64) {
    let before = Runtime::global().metrics();
    let server = Server::start(ServeConfig::default()).expect("server");
    let mut client = Client::connect(server.addr()).expect("connect");
    session(&mut client);
    drop(client);
    server.shutdown();
    let moved = before.delta(&Runtime::global().metrics());
    (moved.net_frames_in, moved.net_frames_out)
}

#[test]
fn a_request_is_three_frames_each_way_and_no_stall() {
    let idle = frames_of(|client| {
        client
            .negotiate(TraceApp::Heat2d, &GEOMETRY, WINDOW)
            .expect("negotiate");
    });
    let one = frames_of(|client| {
        let session = client
            .negotiate(TraceApp::Heat2d, &GEOMETRY, WINDOW)
            .expect("negotiate");
        let request = client
            .submit_tenant(&session, 0, T1, 1, Deadline::None)
            .expect("submit");
        // One `Wait`, answered at once with `Done`: the worker ran the request
        // before it answered the `Submit`, so no `Pending` can cross the wire.
        let status = client
            .wait(request, Duration::from_secs(120))
            .expect("wait");
        assert_eq!(status, RequestStatus::Done);
        client.fetch(request).expect("fetch");
    });
    assert_eq!(
        (one.0 - idle.0, one.1 - idle.1),
        (3, 3),
        "submit / wait / fetch is 3 frames in and 3 out (idle connection: {idle:?}, with one request: {one:?})"
    );

    // Every app, the giant included: a `Poll` sent right after `Submitted`
    // already answers `Done`, so it can stand in for the `Wait` and the
    // request still costs 3 frames each way.
    for app in TRACE_APPS {
        let geometry: Vec<u64> = match app {
            TraceApp::Heat2d | TraceApp::Life => GEOMETRY.to_vec(),
            TraceApp::Wave3d => vec![8, 8, 8],
            TraceApp::HeatGiant1d => vec![GIANT_CELLS],
        };
        let polled = frames_of(|client| {
            let session = client.negotiate(app, &geometry, WINDOW).expect("negotiate");
            let request = client
                .submit_tenant(&session, 0, T1, 1, Deadline::None)
                .expect("submit");
            let status = client.poll(request).expect("poll");
            assert_eq!(status, RequestStatus::Done, "{app:?}: poll after submit");
            client.fetch(request).expect("fetch");
        });
        assert_eq!(
            (polled.0 - idle.0, polled.1 - idle.1),
            (3, 3),
            "{app:?}: submit / poll / fetch is 3 frames in and 3 out"
        );
    }

    // A `Poll` on a finished request is the framing floor: one small frame each
    // way.  A single Nagle / delayed-ACK stall is ≥ 40 ms, so a lost
    // `TCP_NODELAY` or a frame split over two writes cannot hide under 10 ms.
    let server = Server::start(ServeConfig::default()).expect("server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let session = client
        .negotiate(TraceApp::Heat2d, &GEOMETRY, WINDOW)
        .expect("negotiate");
    let request = client
        .submit_tenant(&session, 1, T1, 1, Deadline::None)
        .expect("submit");
    let status = client
        .wait(request, Duration::from_secs(120))
        .expect("wait");
    assert_eq!(status, RequestStatus::Done);
    let mut polls: Vec<Duration> = (0..20)
        .map(|_| {
            let started = Instant::now();
            let status = client.poll(request).expect("poll");
            assert_eq!(status, RequestStatus::Done);
            started.elapsed()
        })
        .collect();
    polls.sort();
    let median = polls[polls.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median poll round trip {median:?} (all: {polls:?})"
    );
    client.close().expect("close");
    server.shutdown();
}
