//! Resource-ceiling and small-geometry pins for `pochoir-serve`:
//!
//! * a giant session of a tiny extent keeps its per-request bookkeeping
//!   aligned — back-to-back submissions each fetch their own result,
//!   bitwise-equal to a plain in-process submission;
//! * the session table is bounded: a `Negotiate` for a new geometry past
//!   `max_sessions` is refused with a typed `Shed` error while existing
//!   geometries keep re-joining;
//! * geometries whose `Submit` (`depth` slices) or `Result` (2 slices) can
//!   never fit in a frame are refused at negotiation, and oversized step spans
//!   are refused at submit — in both cases with a typed error that leaves the
//!   connection usable; a geometry whose two frames both fit negotiates;
//! * a `Negotiate` extent of 0 or above 2^32 is refused with `BadPayload`
//!   before any session is created;
//! * a span whose window arithmetic overflows `i64` is refused with a typed
//!   error instead of wedging the session's drain;
//! * bulk `Submit`s refused on their header — a zero-step one and one carrying
//!   every slice of its array among them — have their payload drained, so the
//!   connection stays framed and serves the next request bitwise;
//! * the array a connection's last result left, which its next `Submit` of the
//!   same shape refills, never carries one request's cells into another's;
//! * a session's queue holds at most the submitting connection's own ticket,
//!   so each connection is its own backpressure: back-to-back submits each
//!   fetch their own result;
//! * the one admission quota, `max_session_leaves`, refuses a `Negotiate` with a
//!   typed `Shed` error before any payload is sent, and the connection stays
//!   framed.

use std::time::Duration;

use pochoir_core::grid::PochoirArray;
use pochoir_runtime::Serial;
use pochoir_serve::protocol::Deadline;
use pochoir_serve::server::{ServeConfig, Server};
use pochoir_serve::{Client, ClientError, ErrorCode, Session};
use pochoir_stencils::traffic::{digest_grid, heat_grid, usizes, wave_grid};
use pochoir_stencils::{heat, wave};
use pochoir_trace::TraceApp;

const WINDOW: i64 = 4;
const T1: i64 = 8;

/// A 1-D giant-preset extent smaller than any tile count the wire ever used.
const SMALL_GIANT: [u64; 1] = [3];

/// In-process baselines: the giant preset, one plain submission per tenant.
fn local_giant_digests(tenants: &[u32]) -> Vec<u64> {
    let mut server = heat::serve_giant_1d(SMALL_GIANT[0] as usize, WINDOW);
    for &tenant in tenants {
        server
            .try_submit(heat_grid(usizes::<1>(&SMALL_GIANT), tenant), 0, T1)
            .expect("in-process submit");
    }
    let results = server.try_drain().unwrap();
    results.iter().map(|grid| digest_grid(grid, T1)).collect()
}

#[test]
fn small_extent_giant_requests_each_get_their_own_result() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let session = client
        .negotiate(TraceApp::HeatGiant1d, &SMALL_GIANT, WINDOW)
        .expect("negotiate small giant");

    // Submit all requests back-to-back before fetching anything, so the
    // client holds several results at once — the regression this pins is a
    // later request being paired with an earlier request's result.
    let tenants: Vec<u32> = (0..4).collect();
    let requests: Vec<u64> = tenants
        .iter()
        .map(|&tenant| {
            client
                .submit_tenant(&session, tenant, T1, 1, Deadline::None)
                .expect("submit")
        })
        .collect();
    let live: Vec<u64> = requests
        .iter()
        .map(|&request| {
            client
                .wait_fetch(request, Duration::from_secs(120))
                .expect("wait+fetch")
                .digest()
        })
        .collect();
    client.close().expect("close");
    server.shutdown();

    let expected = local_giant_digests(&tenants);
    assert_eq!(
        live, expected,
        "each small-extent giant request must fetch its own grid, \
         bitwise-equal to the in-process run"
    );
}

#[test]
fn session_table_is_bounded_and_existing_keys_rejoin() {
    let server = Server::start(ServeConfig {
        max_sessions: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let first = client
        .negotiate(TraceApp::Heat2d, &[8, 8], WINDOW)
        .expect("first geometry fills the table");
    match client.negotiate(TraceApp::Heat2d, &[10, 10], WINDOW) {
        Err(ClientError::Server { code, .. }) => assert_eq!(
            code,
            ErrorCode::Shed,
            "a full session table sheds new geometries with a typed error"
        ),
        other => panic!("expected a typed Shed rejection, got {other:?}"),
    }
    // The same key re-joins (no new compile, no new slot) and still serves.
    let again = client
        .negotiate(TraceApp::Heat2d, &[8, 8], WINDOW)
        .expect("existing geometry re-joins past the cap");
    assert_eq!(again.id, first.id);
    let request = client
        .submit_tenant(&again, 0, T1, 1, Deadline::None)
        .expect("submit on the surviving session");
    client
        .wait_fetch(request, Duration::from_secs(120))
        .expect("the bounded server still serves");
    client.close().expect("close");
    server.shutdown();
}

#[test]
fn oversized_spans_and_geometries_are_refused_typed() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // A geometry whose Submit or Result payload exceeds MAX_FRAME can never
    // be used: refused at negotiation, before anything is compiled for it.
    // 2048² heat's Result is a 64 MiB payload: with its header in front, one
    // frame past the ceiling.
    for geometry in [[1 << 16, 1 << 16], [2048, 2048]] {
        expect_code(
            client.negotiate(TraceApp::Heat2d, &geometry, WINDOW),
            ErrorCode::BadPayload,
            "an unsubmittable geometry",
        );
    }

    let session = client
        .negotiate(TraceApp::Heat2d, &[8, 8], WINDOW)
        .expect("negotiate");
    // One cheap frame must not buy an unbounded drain: the step span is
    // capped with a typed error and the connection stays usable.
    match client.submit_tenant(&session, 0, i64::MAX - 1, 1, Deadline::None) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadPayload),
        other => panic!("expected BadPayload for an oversized span, got {other:?}"),
    }
    let request = client
        .submit_tenant(&session, 0, T1, 1, Deadline::None)
        .expect("a sane submit after the rejection");
    client
        .wait_fetch(request, Duration::from_secs(120))
        .expect("connection survives typed rejections");
    client.close().expect("close");
    server.shutdown();
}

/// Extents outside `1..=2^32` are refused at `Negotiate` with `BadPayload` and
/// take no slot in the session table: on a one-session server, a valid geometry
/// negotiated after the refusals still gets the first (and only) session.
#[test]
fn negotiate_refuses_extents_outside_the_cap_without_creating_a_session() {
    let server = Server::start(ServeConfig {
        max_sessions: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    for extent in [0, (1u64 << 32) + 1, u64::MAX] {
        expect_code(
            client.negotiate(TraceApp::HeatGiant1d, &[extent], WINDOW),
            ErrorCode::BadPayload,
            &format!("extent {extent}"),
        );
    }
    let session = client
        .negotiate(TraceApp::HeatGiant1d, &SMALL_GIANT, WINDOW)
        .expect("the refusals left the one-session table empty");
    assert_eq!(session.id, 0, "no refused geometry took a session id");
    client.close().expect("close");
    server.shutdown();
}

/// The in-process digest of tenant `tenant`'s heat grid over `geometry` after
/// `[0, t1)`, on the preset the server builds for `(geometry, window)`.
fn local_heat_digest(geometry: &[u64], window: i64, tenant: u32, t1: i64) -> u64 {
    let mut grid = heat_grid(usizes::<2>(geometry), tenant);
    let server = heat::try_serve_2d(usizes::<2>(geometry), window).unwrap();
    server
        .program()
        .run(&mut grid, server.kernel(), 0, t1, &Serial);
    digest_grid(&grid, t1)
}

fn expect_code<T: std::fmt::Debug>(got: Result<T, ClientError>, code: ErrorCode, what: &str) {
    match got {
        Err(ClientError::Server { code: c, .. }) => assert_eq!(c, code, "{what}"),
        other => panic!("{what}: expected a typed {code:?} rejection, got {other:?}"),
    }
}

/// `t0 = i64::MAX - 1, t1 = i64::MAX` passes the span cap (one step) but its
/// window end `t0 + 4` overflows: admission refuses it with a typed error, and
/// the session's next request drains bitwise.  (Before the check, release
/// builds admitted it and the drain spun under the session lock; debug builds
/// panicked in the drain thread.)
#[test]
fn a_span_whose_windows_overflow_is_refused_and_the_session_survives() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let session = client
        .negotiate(TraceApp::Heat2d, &[16, 16], WINDOW)
        .expect("negotiate");
    let grid = heat_grid(usizes::<2>(&[16, 16]), 3);
    expect_code(
        client.submit_grid(
            &session,
            &grid,
            3,
            i64::MAX - 1,
            i64::MAX,
            1,
            Deadline::None,
        ),
        ErrorCode::InvalidGeometry,
        "overflowing window arithmetic",
    );
    let request = client
        .submit_tenant(&session, 3, T1, 1, Deadline::None)
        .expect("a sane submit on the same session");
    let live = client
        .wait_fetch(request, Duration::from_secs(120))
        .expect("the session still drains")
        .digest();
    assert_eq!(live, local_heat_digest(&[16, 16], WINDOW, 3, T1));
    client.close().expect("close");
    server.shutdown();
}

/// On one connection, six bulk `Submit`s each refused on its header —
/// unknown session, wrong element type, span over the cap, payload not the
/// geometry, zero steps, and a version-3-shaped payload of every slice — get
/// their typed errors, and the next request on the same connection returns
/// the bitwise result: every refused payload was drained.
#[test]
fn refused_bulk_submits_keep_the_connection_framed() {
    const BIG: [u64; 2] = [1024, 1024];
    let steps = 2;
    let server = Server::start(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let session = client
        .negotiate(TraceApp::Heat2d, &BIG, WINDOW)
        .expect("negotiate");
    let grid = heat_grid(usizes::<2>(&BIG), 1);

    let unknown = Session {
        id: 999,
        ..session.clone()
    };
    expect_code(
        client.submit_grid(&unknown, &grid, 1, 0, steps, 1, Deadline::None),
        ErrorCode::UnknownSession,
        "unknown session",
    );
    let bytes: PochoirArray<u8, 2> = PochoirArray::new([2048, 4096]);
    expect_code(
        client.submit_grid(&session, &bytes, 1, 0, steps, 1, Deadline::None),
        ErrorCode::BadPayload,
        "u8 grid on an f64 session",
    );
    expect_code(
        client.submit_grid(&session, &grid, 1, 0, 1 << 21, 1, Deadline::None),
        ErrorCode::BadPayload,
        "span over the cap",
    );
    let short = heat_grid::<2>([1024, 1023], 1);
    expect_code(
        client.submit_grid(&session, &short, 1, 0, steps, 1, Deadline::None),
        ErrorCode::BadPayload,
        "payload shorter than the geometry",
    );
    // Its `Result` would echo slice `t0 - 1`, which the `Submit` does not carry.
    expect_code(
        client.submit_grid(&session, &grid, 1, 0, 0, 1, Deadline::None),
        ErrorCode::BadPayload,
        "a zero-step submit",
    );
    // A depth-2 array sends two slices: the 16 MiB a version-3 heat `Submit`
    // carried (both slices of its array), one slice more than heat reads.
    let every_slice: PochoirArray<f64, 2> = PochoirArray::with_depth([1024, 1024], 2);
    expect_code(
        client.submit_grid(&session, &every_slice, 1, 0, steps, 1, Deadline::None),
        ErrorCode::BadPayload,
        "a payload of every slice",
    );

    let request = client
        .submit_grid(&session, &grid, 1, 0, steps, 1, Deadline::None)
        .expect("a valid submit after six refusals");
    let live = client
        .wait_fetch(request, Duration::from_secs(120))
        .expect("wait+fetch")
        .digest();
    assert_eq!(live, local_heat_digest(&BIG, WINDOW, 1, steps));
    client.close().expect("close");
    server.shutdown();
}

/// One connection alternates shapes and tenants — runs of the same shape
/// (the server refills the array the last result left), shape changes (it
/// builds a fresh one), and a depth-2 app (two carried slices) — and every
/// result is the in-process one bitwise.
#[test]
fn refilled_result_arrays_never_leak_between_requests() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let square = client
        .negotiate(TraceApp::Heat2d, &[16, 16], WINDOW)
        .expect("negotiate");
    let wide = client
        .negotiate(TraceApp::Heat2d, &[12, 20], WINDOW)
        .expect("negotiate");
    let cube = client
        .negotiate(TraceApp::Wave3d, &[6, 6, 6], WINDOW)
        .expect("negotiate");
    let wave_digest = |tenant: u32| {
        let mut grid = wave_grid([6, 6, 6], tenant);
        let server = wave::try_serve([6, 6, 6], WINDOW).unwrap();
        server
            .program()
            .run(&mut grid, server.kernel(), 0, T1, &Serial);
        digest_grid(&grid, T1)
    };
    for (session, tenant) in [
        (&square, 1),
        (&square, 2),
        (&wide, 3),
        (&cube, 4),
        (&cube, 5),
        (&square, 6),
    ] {
        let request = client
            .submit_tenant(session, tenant, T1, 1, Deadline::None)
            .expect("submit");
        let live = client
            .wait_fetch(request, Duration::from_secs(120))
            .expect("wait+fetch")
            .digest();
        let expected = match session.app {
            TraceApp::Wave3d => wave_digest(tenant),
            _ => local_heat_digest(&session.geometry, WINDOW, tenant, T1),
        };
        assert_eq!(live, expected, "tenant {tenant} on {:?}", session.geometry);
    }
    client.close().expect("close");
    server.shutdown();
}

/// Every `Submit` is drained before it is answered, so the session queue holds
/// no other request when the next one arrives: 8 back-to-back submits on one
/// connection are all run, and each fetches its own bitwise result.
#[test]
fn each_connection_is_its_own_backpressure() {
    const GEOMETRY: [u64; 2] = [16, 16];
    let server = Server::start(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let session = client
        .negotiate(TraceApp::Heat2d, &GEOMETRY, WINDOW)
        .expect("negotiate");

    let tenants: Vec<u32> = (0..8).collect();
    let requests: Vec<u64> = tenants
        .iter()
        .map(|&tenant| {
            client
                .submit_tenant(&session, tenant, T1, 1, Deadline::None)
                .expect("submit")
        })
        .collect();
    for (&tenant, request) in tenants.iter().zip(requests) {
        let live = client
            .wait_fetch(request, Duration::from_secs(120))
            .expect("wait+fetch")
            .digest();
        assert_eq!(live, local_heat_digest(&GEOMETRY, WINDOW, tenant, T1));
    }
    client.close().expect("close");
    server.shutdown();
}

/// A quota of the small session's pinned leaves refuses a `Negotiate` for the
/// larger geometry with a typed `Shed` — nothing is registered, no payload is
/// ever sent — and the same connection then negotiates the small session and
/// fetches a bitwise result.
#[test]
fn the_session_leaf_quota_sheds_typed_and_keeps_the_connection_framed() {
    const SMALL: [u64; 2] = [16, 16];
    const LARGE: [u64; 2] = [256, 256];
    let pinned = |geometry: &[u64]| {
        heat::try_serve_2d(usizes::<2>(geometry), WINDOW)
            .expect("in-process session")
            .program()
            .pinned_leaf_count()
    };
    let quota = pinned(&SMALL);
    assert!(pinned(&LARGE) > quota, "the large session pins more leaves");
    let server = Server::start(ServeConfig {
        max_session_leaves: Some(quota),
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    for attempt in 0..2 {
        match client.negotiate(TraceApp::Heat2d, &LARGE, WINDOW) {
            Err(ClientError::Server { code, detail }) => {
                assert_eq!(code, ErrorCode::Shed, "negotiate {attempt}");
                assert!(
                    detail.contains("pinned-leaf"),
                    "negotiate {attempt}: {detail}"
                );
            }
            other => panic!("negotiate {attempt}: expected a typed Shed, got {other:?}"),
        }
    }
    let session = client
        .negotiate(TraceApp::Heat2d, &SMALL, WINDOW)
        .expect("the small session is within the quota");
    assert_eq!(session.id, 0, "the refused sessions registered nothing");
    let request = client
        .submit_tenant(&session, 3, T1, 1, Deadline::None)
        .expect("submit");
    let live = client
        .wait_fetch(request, Duration::from_secs(120))
        .expect("wait+fetch")
        .digest();
    assert_eq!(live, local_heat_digest(&SMALL, WINDOW, 3, T1));
    client.close().expect("close");
    server.shutdown();
}

/// The negotiation bound is the larger of a `Submit` (`depth` slices) and a
/// `Result` (2 slices).  Wave 160³'s two slices are 65 536 000 bytes, under
/// the ceiling, so it negotiates (its three-slice array was refused before
/// version 5); 160 × 160 × 164 is over it.
#[test]
fn negotiation_bounds_the_larger_of_submit_and_result() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .negotiate(TraceApp::Wave3d, &[160, 160, 160], WINDOW)
        .expect("both frames of wave 160³ fit");
    expect_code(
        client.negotiate(TraceApp::Wave3d, &[160, 160, 164], WINDOW),
        ErrorCode::BadPayload,
        "a wave geometry whose two slices exceed a frame",
    );
    client.close().expect("close");
    server.shutdown();
}
