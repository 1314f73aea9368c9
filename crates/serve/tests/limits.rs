//! Resource-ceiling and small-geometry pins for `pochoir-serve`:
//!
//! * a giant session whose extent is **smaller than the configured tile
//!   count** (the shard plan clamps to the extent) keeps its per-request
//!   bookkeeping aligned — back-to-back submissions each fetch their own
//!   result, bitwise-equal to the in-process sharded run;
//! * the session table is bounded: a `Negotiate` for a new geometry past
//!   `max_sessions` is refused with a typed `Shed` error while existing
//!   geometries keep re-joining;
//! * geometries whose submit payload can never fit in a frame are refused at
//!   negotiation, and oversized step spans are refused at submit — in both
//!   cases with a typed error that leaves the connection usable;
//! * a span whose window arithmetic overflows `i64` is refused with a typed
//!   error instead of wedging the session's drain;
//! * 16 MiB `Submit`s refused on their header have their payload drained, so
//!   the connection stays framed and serves the next request bitwise;
//! * the array a connection's last result left, which its next `Submit` of the
//!   same shape refills, never carries one request's cells into another's.

use std::time::Duration;

use pochoir_core::engine::{Coarsening, ExecutionPlan, Sharding, StencilServer, SubmitOptions};
use pochoir_core::grid::PochoirArray;
use pochoir_core::kernel::StencilSpec;
use pochoir_runtime::Serial;
use pochoir_serve::protocol::Deadline;
use pochoir_serve::server::{ServeConfig, Server};
use pochoir_serve::{Client, ClientError, ErrorCode, Session};
use pochoir_stencils::heat::HeatKernel;
use pochoir_stencils::traffic::{digest_grid, heat_grid, usizes, wave_grid};
use pochoir_stencils::{heat, traffic, wave};
use pochoir_trace::corpus::GIANT_TILES;
use pochoir_trace::TraceApp;

const WINDOW: i64 = 4;
const T1: i64 = 8;

/// Extent below `GIANT_TILES`, so `Sharding::Tiles` clamps the tile count and
/// every submission creates fewer scheduler tickets than the configured K.
const SMALL_GIANT: [u64; 1] = [3];

/// In-process baselines: the same sharded preset the server builds, one
/// submission per tenant, digests taken at each group's lead ticket.
fn local_giant_digests(tenants: &[u32]) -> Vec<u64> {
    let mut server: StencilServer<f64, HeatKernel<1>, 1> = StencilServer::new(
        StencilSpec::new(heat::shape::<1>()),
        HeatKernel::<1>::default(),
        ExecutionPlan::trap()
            .with_coarsening(Coarsening::none())
            .with_sharding(Sharding::Tiles(GIANT_TILES)),
        traffic::usizes::<1>(&SMALL_GIANT),
        WINDOW,
    );
    let leads: Vec<usize> = tenants
        .iter()
        .map(|&tenant| {
            server
                .try_submit_sharded(
                    heat_grid(usizes::<1>(&SMALL_GIANT), tenant),
                    0,
                    T1,
                    SubmitOptions::default(),
                )
                .expect("in-process sharded submit")
        })
        .collect();
    let results = server.drain();
    leads
        .iter()
        .map(|&lead| digest_grid(&results[lead], T1))
        .collect()
}

#[test]
fn small_extent_giant_requests_each_get_their_own_result() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let session = client
        .negotiate(TraceApp::HeatGiant1d, &SMALL_GIANT, WINDOW)
        .expect("negotiate small giant");

    // Submit all requests back-to-back before fetching anything, so several
    // groups can land in one drain batch — the regression this pins is a
    // later request being paired with an earlier request's result when the
    // bookkeeping assumed `GIANT_TILES` tickets per group.
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
         bitwise-equal to the in-process sharded run"
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

    // A geometry whose submit payload exceeds MAX_FRAME can never be used:
    // refused at negotiation, before anything is compiled for it.
    // 2048² heat is a 64 MiB payload: with the Submit header in front, one
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

/// The in-process digest of tenant `tenant`'s heat grid over `geometry` after
/// `[0, t1)`, on the preset the server builds for `(geometry, window)`.
fn local_heat_digest(geometry: &[u64], window: i64, tenant: u32, t1: i64) -> u64 {
    let mut grid = heat_grid(usizes::<2>(geometry), tenant);
    let server = heat::serve_2d(usizes::<2>(geometry), window);
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

/// On one connection, four 16 MiB `Submit`s each refused on its header —
/// unknown session, wrong element type, span over the cap, payload not the
/// geometry — get their typed errors, and the next request on the same
/// connection returns the bitwise result: every refused payload was drained.
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

    let request = client
        .submit_grid(&session, &grid, 1, 0, steps, 1, Deadline::None)
        .expect("a valid submit after four refusals");
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
/// builds a fresh one), and a depth-2 app (three slices) — and every result is
/// the in-process one bitwise.
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
        let server = wave::serve([6, 6, 6], WINDOW);
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
