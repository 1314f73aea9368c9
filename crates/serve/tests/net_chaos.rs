//! Network chaos pin: a client that dies mid-submit, vanishes after its
//! `Submit` or vanishes before reading a long request's `Result` must retire
//! only its own work.  Well-behaved survivors sharing the server drain to
//! results bitwise-equal to a fault-free run, and the server keeps accepting
//! fresh connections afterwards.  Every blocking call the server makes on a
//! peer's behalf is bounded: a peer that stops reading loses its connection to
//! the write timeout, a peer that trickles a frame loses it to the frame
//! deadline, and shutdown never waits on a `Result` nobody reads.  A `Poll` —
//! the server keeps no requests to poll — is a typed error on a stream that
//! stays usable.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use pochoir_serve::protocol::{
    read_frame, submit_slices, write_frame, write_grid_frame, Deadline, ElemType, ErrorCode, Frame,
    PROTOCOL_VERSION,
};
use pochoir_serve::server::{ServeConfig, Server, FRAME_DEADLINE, WRITE_TIMEOUT};
use pochoir_serve::{Client, FetchedResult};
use pochoir_stencils::traffic::heat_grid;
use pochoir_trace::TraceApp;

const GEOMETRY: [u64; 2] = [16, 16];
const WINDOW: i64 = 4;
const T1: i64 = 8;
/// A long horizon (1 Mi point updates on the 16×16 grid): the `Result` waits
/// for all of it.
const LONG_T1: i64 = 4096;

/// Run the three well-behaved heat tenants against a server and return their
/// digests in tenant order.
fn run_survivors(addr: &str) -> Vec<u64> {
    let handles: Vec<_> = (0..3u32)
        .map(|tenant| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let session = client
                    .negotiate(TraceApp::Heat2d, &GEOMETRY, WINDOW)
                    .expect("negotiate");
                let request = client
                    .submit_tenant(&session, tenant, T1, 1, Deadline::None)
                    .expect("submit");
                let result = client
                    .wait_fetch(request, Duration::from_secs(120))
                    .expect("wait+fetch");
                client.close().expect("close");
                result.digest()
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("survivor thread"))
        .collect()
}

/// Raw handshake + negotiate on a bare socket, so the test can then misbehave
/// below the `Client` abstraction.
fn raw_session(addr: &str) -> (TcpStream, u32) {
    raw_session_for(addr, &GEOMETRY, WINDOW)
}

fn raw_session_for(addr: &str, geometry: &[u64], window: i64) -> (TcpStream, u32) {
    let mut stream = raw_hello(addr);
    let session = raw_negotiate(&mut stream, geometry, window);
    (stream, session)
}

/// A bare socket past the `Hello`/`HelloAck` handshake.
fn raw_hello(addr: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect raw");
    stream.set_nodelay(true).expect("nodelay");
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
        },
    )
    .expect("hello");
    match read_frame(&mut stream).expect("hello ack").0 {
        Frame::HelloAck { .. } => stream,
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

/// Negotiates a heat session over `geometry` on a raw socket.
fn raw_negotiate(stream: &mut TcpStream, geometry: &[u64], window: i64) -> u32 {
    write_frame(
        stream,
        &Frame::Negotiate {
            app: TraceApp::Heat2d,
            geometry: geometry.to_vec(),
            chunk: window,
        },
    )
    .expect("negotiate");
    match read_frame(stream).expect("session ack").0 {
        Frame::SessionAck { session, .. } => session,
        other => panic!("expected SessionAck, got {other:?}"),
    }
}

/// A heat `Submit` for tenant `tenant` over `[0, t1)`, payload to be written
/// from the grid's rows.
fn submit_head(session: u32, tenant: u32, t1: i64) -> Frame {
    Frame::Submit {
        session,
        tenant,
        t0: 0,
        t1,
        weight: 1,
        deadline: Deadline::None,
        elem: ElemType::F64,
        grid: Vec::new(),
    }
}

/// Writes tenant `tenant`'s heat `Submit` over `[0, t1)` to `w`.  Heat is a
/// depth-1 stencil, so the frame carries one slice of its grid: slice 0.
fn write_submit(
    w: &mut impl Write,
    session: u32,
    sizes: [usize; 2],
    tenant: u32,
    t1: i64,
) -> std::io::Result<u64> {
    write_grid_frame(
        w,
        &submit_head(session, tenant, t1),
        &heat_grid::<2>(sizes, tenant),
        &submit_slices(0, 1),
    )
}

/// Tenant `tenant`'s whole heat `Submit` frame as it goes on the wire.
fn submit_bytes(session: u32, sizes: [usize; 2], tenant: u32, t1: i64) -> Vec<u8> {
    let mut wire = Vec::new();
    write_submit(&mut wire, session, sizes, tenant, t1).expect("memory write");
    wire
}

/// Dies mid-submit: declares a full Submit frame, sends half of it, vanishes.
/// The server sees an unexpected EOF inside a body and must just drop the
/// connection.
fn chaos_truncated_submit(addr: &str) {
    let (mut stream, session) = raw_session(addr);
    let wire = submit_bytes(session, [16, 16], 99, T1);
    stream
        .write_all(&wire[..wire.len() / 2])
        .expect("half a frame");
    stream.flush().expect("flush");
    drop(stream); // mid-frame disconnect
}

/// Writes tenant `tenant`'s heat `Submit` over `[0, t1)` on a raw socket; the
/// reply is left unread.
fn raw_submit(stream: &mut TcpStream, session: u32, sizes: [usize; 2], tenant: u32, t1: i64) {
    write_submit(stream, session, sizes, tenant, t1).expect("submit");
}

/// Reads the `Result` that answers a `Submit` on a raw socket.
fn read_result(stream: &mut TcpStream) -> FetchedResult {
    match read_frame(stream).expect("result").0 {
        Frame::Result {
            elem,
            t1,
            slice_len,
            payload,
        } => FetchedResult {
            elem,
            t1,
            slice_len,
            bytes: payload,
        },
        other => panic!("expected Result, got {other:?}"),
    }
}

/// Vanishes after its `Submit`: reads the `Result`, sends a `Poll`, and
/// vanishes with the answer unread.  The server holds nothing for the finished
/// request, and the dead socket must cost nobody else anything.
fn chaos_vanished_after_submit(addr: &str) {
    let (mut stream, session) = raw_session(addr);
    raw_submit(&mut stream, session, [16, 16], 77, T1);
    let _ = read_result(&mut stream);
    write_frame(&mut stream, &Frame::Poll { request: 0 }).expect("poll");
    drop(stream); // gone with the `Poll` answer unread
}

/// Vanishes before its `Result`: submits a long request and disconnects
/// without reading a byte.  The worker finishes the drain, writes into a dead
/// socket and drops that one connection — nothing of anyone else's.
fn chaos_abandoned_result(addr: &str) {
    let (mut stream, session) = raw_session(addr);
    raw_submit(&mut stream, session, [16, 16], 55, LONG_T1);
    drop(stream); // gone with the `Result` unread
}

#[test]
fn client_failures_retire_only_their_own_chains() {
    // Fault-free baseline on its own server instance.
    let baseline_server = Server::start(ServeConfig::default()).expect("baseline server");
    let baseline = run_survivors(&baseline_server.addr().to_string());
    baseline_server.shutdown();

    // Chaos run: the same survivors share the server with three misbehaving
    // clients injected while they work.
    let server = Server::start(ServeConfig::default()).expect("chaos server");
    let addr = server.addr().to_string();

    let chaos = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            chaos_truncated_submit(&addr);
            chaos_vanished_after_submit(&addr);
            chaos_abandoned_result(&addr);
        })
    };
    let survivors = run_survivors(&addr);
    chaos.join().expect("chaos thread");

    assert_eq!(
        survivors, baseline,
        "survivors must drain bitwise-equal to the fault-free run"
    );

    // The server is still healthy: a fresh client can do a full round trip.
    assert_eq!(
        fresh_round_trip(&addr),
        baseline[0],
        "post-chaos result for tenant 0 must still match the baseline"
    );

    server.shutdown();
}

/// One full request for tenant 0 on a fresh connection — the server is
/// serviceable — and its result digest.
fn fresh_round_trip(addr: &str) -> u64 {
    let mut client = Client::connect(addr).expect("connect");
    let session = client
        .negotiate(TraceApp::Heat2d, &GEOMETRY, WINDOW)
        .expect("negotiate");
    let request = client
        .submit_tenant(&session, 0, T1, 1, Deadline::None)
        .expect("submit");
    let result = client
        .wait_fetch(request, Duration::from_secs(120))
        .expect("wait+fetch");
    client.close().expect("close");
    result.digest()
}

/// A client whose `Submit` is answered by a 16 MiB `Result` (more than
/// loopback socket buffers hold) and which stops reading pins its worker in a
/// blocked write.  The write timeout retires that worker — the client finds the
/// stream cut short — and other connections are served throughout.
#[test]
fn a_peer_that_stops_reading_is_dropped_by_the_write_timeout() {
    const BIG: [u64; 2] = [1024, 1024];
    let server = Server::start(ServeConfig::default()).expect("server");
    let addr = server.addr().to_string();

    let (mut stream, session) = raw_session_for(&addr, &BIG, 1);
    raw_submit(&mut stream, session, [1024, 1024], 1, 1);
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).expect("result prefix");
    let declared = u32::from_le_bytes(prefix) as usize;
    assert!(declared > 16 << 20, "a 16 MiB result, got {declared} bytes");

    // Stop reading.  The worker is stuck mid-`Result`; everyone else is not.
    let served = fresh_round_trip(&addr);
    // Without reading a byte, watch for the worker giving up: it closes the
    // socket with these probes unread, which resets the connection, and a write
    // on a reset connection fails.  A timeout that expires with part of the
    // frame newly buffered restarts the clock, hence a few of them.
    let stalled = Instant::now();
    while write_frame(&mut stream, &Frame::Poll { request: 0 }).is_ok() {
        assert!(
            stalled.elapsed() < 4 * WRITE_TIMEOUT,
            "the stalled write never timed out"
        );
        std::thread::sleep(Duration::from_millis(250));
    }

    // The worker gave up: what the socket buffers held is all there is.
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest); // EOF or reset, either way closed
    assert!(
        rest.len() < declared,
        "the whole {declared}-byte result arrived: the stalled write never timed out"
    );

    assert_eq!(fresh_round_trip(&addr), served);
    let started = Instant::now();
    server.shutdown();
    assert!(started.elapsed() < Duration::from_secs(2));
}

/// `shutdown` does not wait on a `Result` nobody reads: the worker finishes
/// the long drain its `Submit` started, writes the small `Result` into the
/// socket's buffer, and shutdown closes the connection.
#[test]
fn shutdown_does_not_wait_on_an_unread_result() {
    let server = Server::start(ServeConfig::default()).expect("server");
    let addr = server.addr().to_string();
    let (mut stream, session) = raw_session(&addr);
    raw_submit(&mut stream, session, [16, 16], 5, LONG_T1);

    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    // The worker answered (the request ran inside its `Submit`) or its socket
    // was closed under it; it did not hang.
    match read_frame(&mut stream) {
        Ok((Frame::Result { .. }, _)) | Err(_) => {}
        Ok((other, _)) => panic!("expected a Result or a closed socket, got {other:?}"),
    }
}

/// The server keeps no requests, so a `Poll` — here straight after `Hello` —
/// is answered with a typed `UnknownRequest` error, and the same stream then
/// negotiates and submits as if nothing had happened.
#[test]
fn a_poll_is_a_typed_error_and_the_stream_stays_usable() {
    let server = Server::start(ServeConfig::default()).expect("server");
    let addr = server.addr().to_string();
    let baseline = fresh_round_trip(&addr);

    let mut stream = raw_hello(&addr);
    write_frame(&mut stream, &Frame::Poll { request: 0 }).expect("poll");
    match read_frame(&mut stream).expect("poll answer").0 {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownRequest),
        other => panic!("expected an UnknownRequest error, got {other:?}"),
    }
    let session = raw_negotiate(&mut stream, &GEOMETRY, WINDOW);
    raw_submit(&mut stream, session, [16, 16], 0, T1);
    assert_eq!(read_result(&mut stream).digest(), baseline);
    server.shutdown();
}

/// A slow-loris `Submit` — a full header, then one payload byte every 100 ms —
/// is dropped once the frame has been arriving for `FRAME_DEADLINE`, not kept
/// alive by its trickle, while a second connection is served throughout.
#[test]
fn a_trickled_frame_is_dropped_at_the_frame_deadline() {
    let server = Server::start(ServeConfig::default()).expect("server");
    let addr = server.addr().to_string();
    let baseline = fresh_round_trip(&addr);

    let mut bystander = Client::connect(&addr).expect("connect");
    let session = bystander
        .negotiate(TraceApp::Heat2d, &GEOMETRY, WINDOW)
        .expect("negotiate");

    let (mut loris, loris_session) = raw_session(&addr);
    let wire = submit_bytes(loris_session, [16, 16], 7, T1);
    let header = wire.len() - 16 * 16 * 8; // the payload is one f64 slice
    loris.write_all(&wire[..header]).expect("header");
    let started = Instant::now();
    loris
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    let mut served = 0;
    for &byte in &wire[header..] {
        // The server drops the connection without a reply: EOF or a reset.
        if loris.write_all(&[byte]).is_err() {
            break;
        }
        match loris.read(&mut [0u8; 1]) {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {}
            Ok(0) | Err(_) => break,
            Ok(_) => panic!("the server answered a frame it never received"),
        }
        // The bystander's request is served while the trickle goes on.
        let request = bystander
            .submit_tenant(&session, 0, T1, 1, Deadline::None)
            .expect("submit beside the trickle");
        let result = bystander
            .wait_fetch(request, Duration::from_secs(120))
            .expect("wait+fetch beside the trickle");
        assert_eq!(result.digest(), baseline);
        served += 1;
        assert!(
            started.elapsed() < FRAME_DEADLINE + Duration::from_secs(3),
            "the trickled frame outlived its deadline"
        );
    }
    let dropped = started.elapsed();
    assert!(
        dropped >= FRAME_DEADLINE - Duration::from_millis(200),
        "dropped after {dropped:?}, before the {FRAME_DEADLINE:?} deadline"
    );
    assert!(served > 0, "the bystander was never served");
    bystander.close().expect("close");
    server.shutdown();
}
