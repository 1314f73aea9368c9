//! Network chaos pin: a client that dies mid-submit, vanishes mid-poll or dies
//! with a `Wait` unread must retire only its own work.  Well-behaved
//! survivors sharing the server drain to results bitwise-equal to a fault-free
//! run, and the server keeps accepting fresh connections afterwards.  Every
//! blocking call the server makes on a peer's behalf is bounded: a peer that
//! stops reading loses its connection to the write timeout, a peer that
//! trickles a frame loses it to the frame deadline, and shutdown never waits
//! out a client's long `Wait` (the server answers it at once: a request has
//! run before its `Submitted` goes out).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use pochoir_serve::protocol::{
    read_frame, write_frame, write_grid_frame, Deadline, ElemType, Frame, RequestStatus,
    PROTOCOL_VERSION,
};
use pochoir_serve::server::{ServeConfig, Server, FRAME_DEADLINE, WRITE_TIMEOUT};
use pochoir_serve::Client;
use pochoir_stencils::traffic::heat_grid;
use pochoir_trace::TraceApp;

const GEOMETRY: [u64; 2] = [16, 16];
const WINDOW: i64 = 4;
const T1: i64 = 8;
/// A long horizon (1 Mi point updates on the 16×16 grid): the `Submitted`
/// answer waits for all of it, and the owner then asks for a long `Wait`.
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
        Frame::HelloAck { .. } => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    write_frame(
        &mut stream,
        &Frame::Negotiate {
            app: TraceApp::Heat2d,
            geometry: geometry.to_vec(),
            chunk: window,
        },
    )
    .expect("negotiate");
    match read_frame(&mut stream).expect("session ack").0 {
        Frame::SessionAck { session, .. } => (stream, session),
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

/// Tenant `tenant`'s whole heat `Submit` frame as it goes on the wire.
fn submit_bytes(session: u32, sizes: [usize; 2], tenant: u32, t1: i64) -> Vec<u8> {
    let mut wire = Vec::new();
    write_grid_frame(
        &mut wire,
        &submit_head(session, tenant, t1),
        &heat_grid::<2>(sizes, tenant),
        &[0, 1],
    )
    .expect("memory write");
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

/// Submits tenant `tenant`'s heat grid over `[0, t1)` on a raw socket.
fn raw_submit<const D: usize>(
    stream: &mut TcpStream,
    session: u32,
    sizes: [usize; D],
    tenant: u32,
    t1: i64,
) -> u64 {
    write_grid_frame(
        stream,
        &submit_head(session, tenant, t1),
        &heat_grid::<D>(sizes, tenant),
        &[0, 1],
    )
    .expect("submit");
    match read_frame(stream).expect("submitted").0 {
        Frame::Submitted { request } => request,
        other => panic!("expected Submitted, got {other:?}"),
    }
}

/// Sends a `Wait` on `request` that allows up to a minute.
fn send_long_wait(stream: &mut TcpStream, request: u64) {
    let wait = Frame::Wait {
        request,
        timeout_micros: 60_000_000,
    };
    write_frame(stream, &wait).expect("wait");
}

/// Dies mid-poll: submits a valid grid, polls once, then vanishes without
/// fetching.  Its finished work must be dropped, not delivered to or blocked
/// on anyone else.
fn chaos_abandoned_poll(addr: &str) {
    let (mut stream, session) = raw_session(addr);
    let request = raw_submit(&mut stream, session, [16, 16], 77, T1);
    write_frame(&mut stream, &Frame::Poll { request }).expect("poll");
    let _ = read_frame(&mut stream).expect("status");
    drop(stream); // abandons the request forever
}

/// Dies waiting: submits a long request, sends a minute-long `Wait` on it, and
/// vanishes without reading the answer.  The worker answers into a dead socket
/// and must drop that one request — nothing of anyone else's.
fn chaos_abandoned_wait(addr: &str) {
    let (mut stream, session) = raw_session(addr);
    let request = raw_submit(&mut stream, session, [16, 16], 55, LONG_T1);
    send_long_wait(&mut stream, request);
    drop(stream); // gone with the `Wait` answer unread
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
            chaos_abandoned_poll(&addr);
            chaos_abandoned_wait(&addr);
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

/// A client that asks for a 16 MiB `Result` (more than loopback socket buffers
/// hold) and then stops reading pins its worker in a blocked write.  The write
/// timeout retires that worker — the client finds the stream cut short — and
/// other connections are served throughout.
#[test]
fn a_peer_that_stops_reading_is_dropped_by_the_write_timeout() {
    const BIG: [u64; 2] = [1024, 1024];
    let server = Server::start(ServeConfig::default()).expect("server");
    let addr = server.addr().to_string();

    let (mut stream, session) = raw_session_for(&addr, &BIG, 1);
    let request = raw_submit(&mut stream, session, [1024, 1024], 1, 1);
    loop {
        send_long_wait(&mut stream, request);
        match read_frame(&mut stream).expect("status").0 {
            Frame::Status {
                status: RequestStatus::Pending,
            } => continue,
            Frame::Status {
                status: RequestStatus::Done,
            } => break,
            other => panic!("expected Done, got {other:?}"),
        }
    }
    write_frame(&mut stream, &Frame::Fetch { request }).expect("fetch");
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
    while write_frame(&mut stream, &Frame::Poll { request }).is_ok() {
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

/// `shutdown` does not wait out a client's minute-long `Wait`: the worker
/// answers it at once, and shutdown closes the connection.
#[test]
fn shutdown_does_not_wait_out_a_parked_worker() {
    let server = Server::start(ServeConfig::default()).expect("server");
    let addr = server.addr().to_string();
    let (mut stream, session) = raw_session(&addr);
    let request = raw_submit(&mut stream, session, [16, 16], 5, LONG_T1);
    send_long_wait(&mut stream, request);

    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    // The worker answered (`Done`: the request ran inside its `Submit`) or its
    // socket was closed under it; it did not hang.
    match read_frame(&mut stream) {
        Ok((Frame::Status { .. }, _)) | Err(_) => {}
        Ok((other, _)) => panic!("expected Status or a closed socket, got {other:?}"),
    }
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
    let header = wire.len() - 2 * 16 * 16 * 8;
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
