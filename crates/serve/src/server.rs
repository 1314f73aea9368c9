//! The blocking reactor: an accept loop and one worker thread per connection,
//! all over [`std::net::TcpListener`].
//!
//! The vendored-dependency constraint rules out an async runtime, and the
//! serving layer underneath is synchronous anyway (a drain is a blocking call
//! into the pipelined scheduler), so the server is an honest thread-per-
//! connection design:
//!
//! * the **accept thread** turns each connection into a worker thread
//!   (registered in a connection table so shutdown can close its socket and
//!   join it);
//! * each **connection worker** speaks the frame protocol behind a small
//!   `BufReader`: it reads a frame up to its payload, checks a `Submit`'s
//!   header against the session, and only then builds the array and reads
//!   the payload — the slices the run reads — straight into its storage (a
//!   refused header has its payload drained, so the stream stays framed).
//!   It submits the array to the session and drains that ticket itself
//!   through [`StencilServer::try_drain`] — a tenant panic fails only its own
//!   request, exactly as in-process — and answers the `Submit` with the
//!   `Result` itself, written straight from the drained array's storage.
//!   The server keeps nothing for a request once it has replied: the array
//!   stays on as the connection's spare for its next `Submit` of the same
//!   shape.
//!
//! Sockets run with `TCP_NODELAY` (the protocol is request/response over small
//! frames) and a write timeout ([`WRITE_TIMEOUT`]), and a frame that has
//! started to arrive must finish within [`FRAME_DEADLINE`]: a peer that stops
//! reading or trickles a frame costs its own worker a bounded stall, never a
//! pinned thread.
//!
//! **Locking model.**  There are two lock tiers and they are never nested:
//! a global `State` mutex guards the session index and record-mode
//! bookkeeping — cheap map operations — while each session's compiled server
//! lives behind that session's own mutex.  A submitting worker computes
//! entirely under the session lock, so negotiations and other sessions'
//! submits keep flowing on every connection while it drains; a second submit
//! to the same session waits for the lock, which makes each connection its
//! own backpressure.  In record mode the submission's record entry is stored
//! under one brief `State` lock afterwards.  While it holds the
//! session lock the worker blocks in the pool's `run_on_worker`; that cannot
//! deadlock, because the worker is an OS thread, not a pool job, and no pool
//! job takes a session lock.
//!
//! Sessions are keyed `(app, geometry, chunk)` and backed by the process-global
//! session registry, so two connections negotiating the same geometry share one
//! compiled program — compile-once is preserved across the network boundary and
//! asserted by the end-to-end test.  Because negotiation compiles and the
//! service is unauthenticated, the session table is bounded
//! ([`ServeConfig::max_sessions`], answered with a typed `Shed` error when
//! full), geometries whose `Submit` or `Result` could never fit in
//! [`MAX_FRAME`] are refused at negotiation, and each submission's step span is
//! capped ([`ServeConfig::max_steps_per_submit`]) so one cheap frame cannot buy
//! an unbounded drain.  The one admission quota a one-ticket drain can enforce,
//! [`ServeConfig::max_session_leaves`], refuses a `Negotiate` with a typed
//! `Shed` error, before any payload is sent to the session.  A deadline is a
//! logical drain tick, passed to the scheduler as is; a drain holds one ticket,
//! so a `Submit`'s weight orders nothing here and its deadline only counts a
//! miss.
//!
//! With [`ServeConfig::record`] set, every admitted epoch-zero submission
//! appends a [`TraceRecord`]; the trace is written in the canonical emission
//! (byte-stable under parse → emit) on `Flush` frames and at shutdown, and
//! replays through the `pochoir-bench` harness to the same grid digests the
//! live clients fetched.  See `docs/protocol.md` for the full wire contract.

use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pochoir_core::boundary::Boundary;
use pochoir_core::engine::{
    AdmissionPolicy, ServeError, ShedReason, StencilServer, SubmitOptions, TicketOutcome,
};
use pochoir_core::grid::PochoirArray;
use pochoir_core::kernel::StencilKernel;
use pochoir_runtime::{Counter, Parallelism, Runtime};
use pochoir_stencils::heat::HeatKernel;
use pochoir_stencils::life::LifeKernel;
use pochoir_stencils::wave::WaveKernel;
use pochoir_stencils::{heat, life, traffic, wave};
use pochoir_trace::{Trace, TraceApp, TraceRecord};

use crate::protocol::{
    read_frame_head, read_grid, skip_payload, submit_slices, wire_error, write_frame_announced,
    write_grid_frame_announced, Deadline, ElemType, ErrorCode, Frame, FrameHead, ReadError,
    RequestStatus, WireElem, MAX_FRAME, MAX_SUBMIT_PAYLOAD, PROTOCOL_VERSION, READ_BUFFER,
};

/// Record-mode settings: where and how to write the trace of admitted traffic.
#[derive(Clone, Debug)]
pub struct RecordConfig {
    /// Output path for the canonical JSON trace.
    pub path: PathBuf,
    /// The trace's `name` header field.
    pub name: String,
    /// The trace's `seed` header field (provenance only; replay never draws
    /// randomness from it).
    pub seed: u64,
    /// Arrival ticks per replay epoch (`Trace::epoch`); the live server drains
    /// on demand, so this only shapes how the replay harness buckets drains.
    pub epoch: u64,
}

impl Default for RecordConfig {
    fn default() -> Self {
        RecordConfig {
            path: PathBuf::from("recorded-trace.json"),
            name: "recorded".to_string(),
            seed: 1,
            epoch: 8,
        }
    }
}

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Most schedule leaves a negotiated session may pin.  A session's pinned
    /// leaf count is fixed when it is built, so a `Negotiate` for a larger one
    /// is refused with a typed `Shed` error (its detail names the "pinned-leaf"
    /// quota) and registers nothing; no `Submit` ever carries a payload to it.
    /// `None` admits everything.
    pub max_session_leaves: Option<usize>,
    /// Record admitted traffic as a replayable trace.
    pub record: Option<RecordConfig>,
    /// Ceiling on live sessions.  Every negotiated session holds a compiled
    /// program for the life of the server, so an unauthenticated peer could
    /// otherwise grow the table (and the compile registry) without bound; a
    /// `Negotiate` for a new key beyond the cap is refused with a typed
    /// `Shed` error while existing keys keep re-joining.
    pub max_sessions: usize,
    /// Ceiling on `t1 - t0` for a single submission.  Drain work scales with
    /// the step span, so without a cap one cheap `Submit` frame (`t1` near
    /// `i64::MAX`) buys an effectively unbounded drain; spans over the cap are
    /// refused with a typed `BadPayload` error.
    pub max_steps_per_submit: i64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_session_leaves: None,
            record: None,
            max_sessions: 64,
            max_steps_per_submit: 1 << 20,
        }
    }
}

/// Longest a socket write may make no progress before the connection is
/// dropped: a peer that stops reading a 16 MiB `Result` retires its worker
/// instead of pinning it.  The clock restarts whenever a write call buffered
/// anything before it timed out (it then reports that part and is retried), so
/// a stalled peer is dropped after two or three timeouts, once the kernel's
/// send buffer has stopped growing.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest a frame may take to arrive once its first byte has, in total
/// elapsed time: a peer that starts a frame and then trickles it (a slow-loris
/// `Submit`) is dropped instead of pinning its worker mid-read.  The largest
/// legal `Submit` (a 64 MiB payload) crosses loopback into its array in about
/// 55 ms in a release build and 0.4 s in a debug one, so this is ≥ 10× either.
/// How long a connection may sit idle *between* frames is not bounded.
pub const FRAME_DEADLINE: Duration = Duration::from_secs(5);

/// A connection's read half under [`FRAME_DEADLINE`]: before each read the
/// socket's read timeout is set to what is left of the current frame's budget.
/// Between frames the clock is off and a read waits for the next frame as long
/// as it takes; the read that returns a frame's first bytes starts the clock.
struct FrameClock {
    stream: TcpStream,
    /// When the frame being read must be complete; `None` between frames.
    deadline: Option<Instant>,
    /// The read timeout last set on the socket, so an unchanged one costs no
    /// syscall.
    timeout: Option<Duration>,
}

impl Read for FrameClock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timeout = match self.deadline {
            None => None,
            Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                Some(left) if !left.is_zero() => Some(left),
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "the frame missed its deadline",
                    ))
                }
            },
        };
        if timeout != self.timeout {
            self.stream.set_read_timeout(timeout)?;
            self.timeout = timeout;
        }
        let n = self.stream.read(buf)?;
        if n > 0 && self.deadline.is_none() {
            self.deadline = Some(Instant::now() + FRAME_DEADLINE);
        }
        Ok(n)
    }
}

/// Resets the frame clock before the next frame: it starts at once if that
/// frame's first bytes are already buffered, else when they arrive.
fn next_frame(reader: &mut BufReader<FrameClock>) {
    let buffered = !reader.buffer().is_empty();
    reader.get_mut().deadline = buffered.then(|| Instant::now() + FRAME_DEADLINE);
}

/// A served `(app, geometry)` pair — one compiled session and its queue.  The
/// one dispatch type of live serving and trace replay (`pochoir-bench`), so both
/// route through identical presets (and therefore identical registry keys).
pub enum AnyServer {
    /// 2-D heat, `f64`.
    Heat2d(StencilServer<f64, HeatKernel<2>, 2>),
    /// Conway's life, `u8`.
    Life(StencilServer<u8, LifeKernel, 2>),
    /// 3-D wave, `f64`, depth 2.
    Wave3d(StencilServer<f64, WaveKernel, 3>),
    /// Giant 1-D heat, `f64`: an uncoarsened plan whose grids the engine compiles
    /// whole at its own base case.
    HeatGiant1d(StencilServer<f64, HeatKernel<1>, 1>),
}

/// Runs `$body` with `$srv` bound to whichever typed server `$any` holds.
#[macro_export]
macro_rules! with_server {
    ($any:expr, $srv:ident => $body:expr) => {
        match $any {
            $crate::server::AnyServer::Heat2d($srv) => $body,
            $crate::server::AnyServer::Life($srv) => $body,
            $crate::server::AnyServer::Wave3d($srv) => $body,
            $crate::server::AnyServer::HeatGiant1d($srv) => $body,
        }
    };
}

impl AnyServer {
    /// Builds the server for `(app, geometry)` with drain window `chunk` through the
    /// per-app presets, installing `admission` if given.
    pub fn build(
        app: TraceApp,
        geometry: &[u64],
        chunk: i64,
        admission: Option<AdmissionPolicy>,
    ) -> Result<AnyServer, ServeError> {
        let server = match app {
            TraceApp::Heat2d => {
                AnyServer::Heat2d(heat::try_serve_2d(traffic::usizes::<2>(geometry), chunk)?)
            }
            TraceApp::Life => {
                AnyServer::Life(life::try_serve(traffic::usizes::<2>(geometry), chunk)?)
            }
            TraceApp::Wave3d => {
                AnyServer::Wave3d(wave::try_serve(traffic::usizes::<3>(geometry), chunk)?)
            }
            TraceApp::HeatGiant1d => {
                AnyServer::HeatGiant1d(heat::try_serve_giant_1d(geometry[0] as usize, chunk)?)
            }
        };
        Ok(match (server, admission) {
            (server, None) => server,
            (AnyServer::Heat2d(s), Some(p)) => AnyServer::Heat2d(s.with_admission_policy(p)),
            (AnyServer::Life(s), Some(p)) => AnyServer::Life(s.with_admission_policy(p)),
            (AnyServer::Wave3d(s), Some(p)) => AnyServer::Wave3d(s.with_admission_policy(p)),
            (AnyServer::HeatGiant1d(s), Some(p)) => {
                AnyServer::HeatGiant1d(s.with_admission_policy(p))
            }
        })
    }
}

/// The immutable identity of a negotiated session, readable without any lock,
/// plus its server behind the session's own mutex.
struct SessionSlot {
    app: TraceApp,
    geometry: Vec<u64>,
    chunk: i64,
    server: Mutex<AnyServer>,
}

#[derive(Default)]
struct State {
    sessions: Vec<Arc<SessionSlot>>,
    session_ids: HashMap<(TraceApp, Vec<u64>, i64), u32>,
    /// Logical arrival clock for record mode: one tick per admitted submission.
    arrival_clock: u64,
    record: Vec<TraceRecord>,
    record_chunk: Option<i64>,
}

/// Live connections, so shutdown can fail their sockets and join the workers.
#[derive(Default)]
struct ConnTable {
    streams: HashMap<u64, TcpStream>,
    workers: Vec<JoinHandle<()>>,
}

struct Shared {
    config: ServeConfig,
    state: Mutex<State>,
    conns: Mutex<ConnTable>,
    shutdown: AtomicBool,
    next_conn: AtomicU64,
}

/// A running server; dropping it does **not** stop the threads — call
/// [`shutdown`](Server::shutdown).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept thread, and returns immediately.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            state: Mutex::new(State::default()),
            conns: Mutex::new(ConnTable::default()),
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pochoir-serve-accept".into())
                .spawn(move || accept_loop(listener, shared))?
        };
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the service and joins every thread it owns: the shutdown flag is
    /// raised, every live connection socket is shut down so workers blocked in
    /// a read or write fail out (a worker inside a drain finishes it first),
    /// the workers and the accept thread are joined, and only then — with no
    /// writer left — is the record trace written (if recording).
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let (streams, workers) = {
            let mut conns = lock(&self.shared.conns);
            (
                std::mem::take(&mut conns.streams),
                std::mem::take(&mut conns.workers),
            )
        };
        for stream in streams.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for handle in workers {
            let _ = handle.join();
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if self.shared.config.record.is_some() {
            let mut state = lock(&self.shared.state);
            write_record(&self.shared, &mut state);
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Persistent accept errors (EMFILE under a connection flood
                // is the canonical one) must not busy-spin this thread.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if stream.set_nodelay(true).is_err()
            || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
        {
            continue; // the socket is already dead
        }
        Runtime::global().count(Counter::NetConnections, 1);
        let conn = shared.next_conn.fetch_add(1, Ordering::SeqCst);
        let worker_shared = Arc::clone(&shared);
        let hook = stream.try_clone().ok();
        // Register under the connection-table lock: shutdown takes that lock
        // after raising the flag, so it either sees this connection's socket
        // and handle, or this re-check sees the flag — never neither.
        let mut conns = lock(&shared.conns);
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let spawned = std::thread::Builder::new()
            .name("pochoir-serve-conn".into())
            .spawn(move || {
                connection_loop(stream, &worker_shared);
                lock(&worker_shared.conns).streams.remove(&conn);
            });
        if let Ok(handle) = spawned {
            if let Some(stream) = hook {
                conns.streams.insert(conn, stream);
            }
            // Reap handles of workers that already exited so the table tracks
            // live connections, not connection history.
            conns.workers.retain(|h| !h.is_finished());
            conns.workers.push(handle);
        }
    }
}

/// What a connection worker answers one request frame with.
enum Reply {
    Frame(Frame),
    /// A finished request's result, written straight from the drained array.
    Result {
        grid: Grid,
        t1: i64,
    },
}

impl From<Frame> for Reply {
    fn from(frame: Frame) -> Reply {
        Reply::Frame(frame)
    }
}

fn connection_loop(mut stream: TcpStream, shared: &Shared) {
    let rt = Runtime::global();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::with_capacity(
        READ_BUFFER,
        FrameClock {
            stream: read_half,
            deadline: None,
            timeout: None,
        },
    );
    // The array of the last result this connection was sent, refilled by its
    // next `Submit` of the same shape instead of a fresh array.
    let mut spare = None;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        next_frame(&mut reader);
        let FrameHead { frame, payload, .. } = match read_frame_head(&mut reader) {
            Ok(head) => {
                rt.count(Counter::NetFramesIn, 1);
                rt.count(Counter::NetBytesIn, head.bytes);
                head
            }
            Err(ReadError::Eof) | Err(ReadError::Io(_)) => return,
            Err(ReadError::Frame(e)) => {
                // The stream may be unframed past this point (e.g. an
                // oversized prefix) — answer the typed error, then close.
                rt.count(Counter::NetProtocolErrors, 1);
                let _ = send(
                    &mut stream,
                    &Frame::Error {
                        code: e.code(),
                        detail: e.to_string(),
                    }
                    .into(),
                );
                return;
            }
        };
        let reply = match frame {
            Frame::Hello { version } => {
                if version == PROTOCOL_VERSION {
                    Frame::HelloAck {
                        version: PROTOCOL_VERSION,
                    }
                    .into()
                } else {
                    rt.count(Counter::NetProtocolErrors, 1);
                    let _ = send(
                        &mut stream,
                        &Frame::Error {
                            code: ErrorCode::VersionMismatch,
                            detail: format!(
                                "server speaks version {PROTOCOL_VERSION}, client sent {version}"
                            ),
                        }
                        .into(),
                    );
                    return;
                }
            }
            Frame::Negotiate {
                app,
                geometry,
                chunk,
            } => handle_negotiate(shared, app, geometry, chunk).into(),
            Frame::Submit {
                session,
                tenant,
                t0,
                t1,
                weight,
                deadline,
                elem,
                grid: _,
            } => match handle_submit(
                shared,
                &mut reader,
                payload,
                &mut spare,
                session,
                tenant,
                t0,
                t1,
                weight,
                deadline,
                elem,
            ) {
                Ok(reply) => reply,
                Err(_) => return, // the stream failed inside the payload
            },
            // The server keeps no requests: a `Submit` is answered by its
            // outcome, so there is nothing to poll.
            Frame::Poll { request } => Frame::Error {
                code: ErrorCode::UnknownRequest,
                detail: format!(
                    "request {request} is unknown: this server answers each Submit \
                     with its Result and keeps no requests"
                ),
            }
            .into(),
            Frame::Flush => {
                let mut state = lock(&shared.state);
                let records = write_record(shared, &mut state);
                Frame::Flushed { records }.into()
            }
            Frame::Close => return,
            // Server-to-client opcodes arriving at the server are a protocol
            // violation from a confused peer; a stray `Result`'s payload is
            // drained first so the error stays in frame.
            other => {
                if skip_payload(&mut reader, payload).is_err() {
                    return;
                }
                rt.count(Counter::NetProtocolErrors, 1);
                Frame::Error {
                    code: ErrorCode::BadFrame,
                    detail: format!("unexpected client frame: {other:?}"),
                }
                .into()
            }
        };
        if !send(&mut stream, &reply) {
            return;
        }
        if let Reply::Result { grid, .. } = reply {
            spare = Some(grid);
        }
    }
}

/// Writes one reply, folding the frame and its bytes into the runtime metrics
/// before the first byte leaves — a client that has read a reply finds it
/// counted; `false` means the peer is gone.
fn send(stream: &mut TcpStream, reply: &Reply) -> bool {
    let count = |bytes| {
        let rt = Runtime::global();
        rt.count(Counter::NetFramesOut, 1);
        rt.count(Counter::NetBytesOut, bytes);
    };
    let written = match reply {
        Reply::Frame(frame) => write_frame_announced(stream, frame, count),
        Reply::Result { grid, t1 } => grid.write_result(stream, *t1, count),
    };
    written.is_ok()
}

/// The stencil depth of `app`: the time slices a step reads, and so the slices
/// a `Submit` carries (the wave stencil is second-order in time).  Its arrays
/// keep one slice more.
fn depth(app: TraceApp) -> usize {
    match app {
        TraceApp::Wave3d => 2,
        TraceApp::Heat2d | TraceApp::Life | TraceApp::HeatGiant1d => 1,
    }
}

fn handle_negotiate(shared: &Shared, app: TraceApp, geometry: Vec<u64>, chunk: i64) -> Frame {
    if chunk <= 0 {
        return Frame::Error {
            code: ErrorCode::BadPayload,
            detail: format!("chunk must be positive, got {chunk}"),
        };
    }
    if geometry.iter().any(|&g| g == 0 || g > (1 << 32)) {
        return Frame::Error {
            code: ErrorCode::BadPayload,
            detail: format!("geometry extents must be in 1..=2^32, got {geometry:?}"),
        };
    }
    // A geometry whose `Submit` (`depth` slices) or `Result` (2 slices) cannot
    // fit in a frame is refused before anything is compiled for it.
    let payload_bytes = geometry.iter().map(|&g| g as u128).product::<u128>()
        * depth(app).max(2) as u128
        * ElemType::for_app(app).size() as u128;
    if payload_bytes > MAX_SUBMIT_PAYLOAD as u128 {
        return Frame::Error {
            code: ErrorCode::BadPayload,
            detail: format!(
                "geometry {geometry:?} needs {payload_bytes}-byte Submit or Result payloads, \
                 over the {MAX_SUBMIT_PAYLOAD}-byte ceiling of a {MAX_FRAME}-byte frame"
            ),
        };
    }
    let mut state = lock(&shared.state);
    let key = (app, geometry.clone(), chunk);
    if let Some(&id) = state.session_ids.get(&key) {
        return Frame::SessionAck {
            session: id,
            window: chunk,
        };
    }
    if state.sessions.len() >= shared.config.max_sessions {
        return Frame::Error {
            code: ErrorCode::Shed,
            detail: format!(
                "session table is full ({} live sessions); re-join an existing \
                 geometry or raise --max-sessions",
                state.sessions.len()
            ),
        };
    }
    let server = match AnyServer::build(app, &geometry, chunk, None) {
        Ok(server) => server,
        Err(e) => {
            let (code, detail) = wire_error(&e);
            return Frame::Error { code, detail };
        }
    };
    // A session's pinned leaf count is fixed when it is built, so its quota is
    // checked once, here, before any `Submit` can send a payload to it.
    let leaves = with_server!(&server, s => s.program().pinned_leaf_count());
    if shared
        .config
        .max_session_leaves
        .is_some_and(|max| leaves > max)
    {
        let (code, detail) = wire_error(&ServeError::Shed {
            reason: ShedReason::SessionLeafQuota,
        });
        return Frame::Error {
            code,
            detail: format!("{detail}: the session pins {leaves} leaves"),
        };
    }
    let id = state.sessions.len() as u32;
    state.sessions.push(Arc::new(SessionSlot {
        app,
        geometry,
        chunk,
        server: Mutex::new(server),
    }));
    state.session_ids.insert(key, id);
    Frame::SessionAck {
        session: id,
        window: chunk,
    }
}

/// A served array, one arm per served shape: built for a `Submit` and filled
/// from its payload, then — drained — written out as the request's `Result`
/// and kept as the connection's spare.
enum Grid {
    F64x2(PochoirArray<f64, 2>),
    U8x2(PochoirArray<u8, 2>),
    F64x3(PochoirArray<f64, 3>),
    F64x1(PochoirArray<f64, 1>),
}

impl Grid {
    /// The array a `Submit` of `app` over `geometry` fills — `depth + 1` time
    /// slices, the app's boundary: `spare` when it has that shape (the `Submit`
    /// overwrites every slice the run reads, and the run the rest), else a
    /// fresh one.
    fn for_submit(app: TraceApp, geometry: &[u64], spare: Option<Grid>) -> Grid {
        fn fresh<T: WireElem, const D: usize>(
            geometry: &[u64],
            app: TraceApp,
            boundary: Boundary<T, D>,
        ) -> PochoirArray<T, D> {
            let mut a = PochoirArray::with_depth(traffic::usizes::<D>(geometry), depth(app));
            a.register_boundary(boundary);
            a
        }
        fn fits<T: WireElem, const D: usize>(a: &PochoirArray<T, D>, geometry: &[u64]) -> bool {
            a.sizes() == traffic::usizes::<D>(geometry)
        }
        match (app, spare) {
            (TraceApp::Heat2d, Some(Grid::F64x2(a))) if fits(&a, geometry) => Grid::F64x2(a),
            (TraceApp::Life, Some(Grid::U8x2(a))) if fits(&a, geometry) => Grid::U8x2(a),
            (TraceApp::Wave3d, Some(Grid::F64x3(a))) if fits(&a, geometry) => Grid::F64x3(a),
            (TraceApp::HeatGiant1d, Some(Grid::F64x1(a))) if fits(&a, geometry) => Grid::F64x1(a),
            (TraceApp::Heat2d, _) => Grid::F64x2(fresh(geometry, app, Boundary::Periodic)),
            (TraceApp::Life, _) => Grid::U8x2(fresh(geometry, app, Boundary::Periodic)),
            (TraceApp::Wave3d, _) => Grid::F64x3(fresh(geometry, app, Boundary::Constant(0.0))),
            (TraceApp::HeatGiant1d, _) => Grid::F64x1(fresh(geometry, app, Boundary::Periodic)),
        }
    }

    /// Fills the [`submit_slices`] of a run from `t0` from the `Submit`
    /// payload on `r`, a length the caller has matched against the frame.
    fn read_payload(&mut self, r: &mut impl Read, t0: i64) -> io::Result<()> {
        fn fill<T: WireElem, const D: usize>(
            r: &mut impl Read,
            a: &mut PochoirArray<T, D>,
            t0: i64,
        ) -> io::Result<()> {
            read_grid(r, a, &submit_slices(t0, a.time_slices() - 1))
        }
        match self {
            Grid::F64x2(a) => fill(r, a, t0),
            Grid::U8x2(a) => fill(r, a, t0),
            Grid::F64x3(a) => fill(r, a, t0),
            Grid::F64x1(a) => fill(r, a, t0),
        }
    }

    /// Writes the `Result` frame for horizon `t1` — slices `max(t1 - 1, 0)`
    /// and `t1` — straight from grid storage, telling `announce` its length
    /// before its first byte.
    fn write_result(
        &self,
        w: &mut impl Write,
        t1: i64,
        announce: impl FnOnce(u64),
    ) -> io::Result<u64> {
        fn result<T: WireElem, const D: usize>(
            w: &mut impl Write,
            grid: &PochoirArray<T, D>,
            t1: i64,
            announce: impl FnOnce(u64),
        ) -> io::Result<u64> {
            let frame = Frame::Result {
                elem: T::ELEM,
                t1,
                // Dense cells per slice, not the padded layout length.
                slice_len: grid.sizes().iter().product::<usize>() as u64,
                payload: Vec::new(),
            };
            write_grid_frame_announced(w, &frame, grid, &[(t1 - 1).max(0), t1], announce)
        }
        match self {
            Grid::F64x2(a) => result(w, a, t1, announce),
            Grid::U8x2(a) => result(w, a, t1, announce),
            Grid::F64x3(a) => result(w, a, t1, announce),
            Grid::F64x1(a) => result(w, a, t1, announce),
        }
    }
}

/// Answers a `Submit` whose header has been read and whose `payload` bytes are
/// still on `r`: the header is checked against the session first, and only
/// then is the array built and the payload streamed into it, without any lock
/// held (a large grid must stall no other connection).  A refused header has
/// its payload drained before the typed error goes out, so the stream stays
/// framed.  An admitted array is submitted and drained under the session lock
/// — it is the queue's one ticket — and the reply is its outcome: the drained
/// array as the `Result`, or the ticket's typed failure as a `Status`.  `Err`
/// means the stream failed.
#[allow(clippy::too_many_arguments)]
fn handle_submit(
    shared: &Shared,
    r: &mut impl Read,
    payload: usize,
    spare: &mut Option<Grid>,
    session: u32,
    tenant: u32,
    t0: i64,
    t1: i64,
    weight: u32,
    deadline: Deadline,
    elem: ElemType,
) -> io::Result<Reply> {
    let slot = match check_submit(shared, session, elem, t0, t1, payload) {
        Ok(slot) => slot,
        Err(refusal) => {
            skip_payload(r, payload)?;
            return Ok(refusal.into());
        }
    };
    let mut grid = Grid::for_submit(slot.app, &slot.geometry, spare.take());
    grid.read_payload(r, t0)?;

    let logical_deadline = match deadline {
        Deadline::None => None,
        Deadline::Logical(ticks) => Some(ticks),
    };
    let finished = {
        let mut server = lock(&slot.server);
        let opts = SubmitOptions {
            weight,
            deadline: logical_deadline,
        };
        let submitted = match (&mut *server, grid) {
            (AnyServer::Heat2d(s), Grid::F64x2(a)) => s.try_submit_with(a, t0, t1, opts),
            (AnyServer::Life(s), Grid::U8x2(a)) => s.try_submit_with(a, t0, t1, opts),
            (AnyServer::Wave3d(s), Grid::F64x3(a)) => s.try_submit_with(a, t0, t1, opts),
            (AnyServer::HeatGiant1d(s), Grid::F64x1(a)) => s.try_submit_with(a, t0, t1, opts),
            // Unreachable in practice: `grid` was built for the session's own
            // app a few lines up.
            _ => {
                return Ok(Frame::Error {
                    code: ErrorCode::BadPayload,
                    detail: "grid/session element type mismatch".to_string(),
                }
                .into())
            }
        };
        if let Err(e) = submitted {
            let (code, detail) = wire_error(&e);
            return Ok(Frame::Error { code, detail }.into());
        }
        drain_session(&mut server, t1)
    };

    if shared.config.record.is_some() {
        let mut state = lock(&shared.state);
        // The canonical trace format normalizes t0 to 0 and carries one chunk
        // per trace; submissions that fit are recorded, others pass through
        // unlogged (they still execute).
        let chunk_ok = match state.record_chunk {
            None => true,
            Some(c) => c == slot.chunk,
        };
        if t0 == 0 && chunk_ok {
            state.record_chunk = Some(slot.chunk);
            state.arrival_clock += 1;
            let arrival_tick = state.arrival_clock;
            state.record.push(TraceRecord {
                tenant,
                app: slot.app,
                geometry: slot.geometry.clone(),
                window: t1,
                weight: weight.max(1),
                deadline: logical_deadline,
                arrival_tick,
            });
        }
    }
    Ok(finished)
}

/// The checks a `Submit` header must pass before its payload is read: the
/// session exists, the element type is the app's, the step span is positive
/// and capped, and the declared payload is exactly the session's `depth`
/// slices.  `Err` is the typed refusal.  A zero-step span is refused because
/// its `Result` would echo slice `t0 - 1`, which the `Submit` does not carry.
fn check_submit(
    shared: &Shared,
    session: u32,
    elem: ElemType,
    t0: i64,
    t1: i64,
    payload: usize,
) -> Result<Arc<SessionSlot>, Frame> {
    let refuse = |code, detail| Err(Frame::Error { code, detail });
    let Some(slot) = lock(&shared.state).sessions.get(session as usize).cloned() else {
        return refuse(
            ErrorCode::UnknownSession,
            format!("session {session} was never negotiated"),
        );
    };
    if elem != ElemType::for_app(slot.app) {
        return refuse(
            ErrorCode::BadPayload,
            format!(
                "app {} takes {:?} grids, frame carries {:?}",
                slot.app.as_str(),
                ElemType::for_app(slot.app),
                elem
            ),
        );
    }
    let span = match t1.checked_sub(t0) {
        Some(span) if span > 0 => span,
        _ => {
            return refuse(
                ErrorCode::BadPayload,
                format!("t1 {t1} must follow t0 {t0}: a Submit runs at least one step"),
            )
        }
    };
    if span > shared.config.max_steps_per_submit {
        return refuse(
            ErrorCode::BadPayload,
            format!(
                "span {span} steps exceeds the per-submission ceiling of {} \
                 (split the request or raise --max-steps)",
                shared.config.max_steps_per_submit
            ),
        );
    }
    // Negotiation bounded the geometry's payload by MAX_FRAME, so this fits
    // in usize.
    let slices = depth(slot.app);
    let expected = slot.geometry.iter().product::<u64>() as usize * slices * elem.size();
    if payload != expected {
        return refuse(
            ErrorCode::BadPayload,
            format!(
                "grid payload is {payload} bytes; {:?} × {slices} slices needs {expected}",
                slot.geometry
            ),
        );
    }
    Ok(slot)
}

/// Writes the recorded trace in canonical form; returns total records recorded.
fn write_record(shared: &Shared, state: &mut State) -> u64 {
    let Some(record) = &shared.config.record else {
        return 0;
    };
    if state.record.is_empty() {
        return 0;
    }
    let trace = Trace {
        name: record.name.clone(),
        seed: record.seed,
        chunk: state.record_chunk.unwrap_or(1),
        epoch: record.epoch.max(1),
        records: state.record.clone(),
    };
    if let Err(e) = std::fs::write(&record.path, trace.emit()) {
        eprintln!("pochoir-serve: cannot write {}: {e}", record.path.display());
    }
    state.record.len() as u64
}

/// Drains a session whose queue holds one ticket: its drained array, wrapped by
/// `wrap` (none if the drain itself failed), and its outcome from the drain
/// report.
fn drain_ticket<T, K, const D: usize>(
    s: &mut StencilServer<T, K, D>,
    wrap: fn(PochoirArray<T, D>) -> Grid,
) -> (Option<Grid>, Option<TicketOutcome>)
where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
{
    let grid = s.try_drain().ok().and_then(|r| r.into_iter().next());
    let outcome = s.last_drain().and_then(|r| r.outcomes.first().cloned());
    (grid.map(wrap), outcome)
}

/// Drains the session's one queued ticket — the submitting worker's own —
/// under the session lock the caller holds, and returns the reply to its
/// `Submit`: the result, or the typed failure.
fn drain_session(server: &mut AnyServer, t1: i64) -> Reply {
    let (grid, outcome) = match server {
        AnyServer::Heat2d(s) => drain_ticket(s, Grid::F64x2),
        AnyServer::Life(s) => drain_ticket(s, Grid::U8x2),
        AnyServer::Wave3d(s) => drain_ticket(s, Grid::F64x3),
        AnyServer::HeatGiant1d(s) => drain_ticket(s, Grid::F64x1),
    };
    let (code, detail) = match (outcome, grid) {
        (Some(TicketOutcome::Panicked { message }), _) => (
            ErrorCode::TenantPanicked,
            format!("tenant ticket panicked: {message}"),
        ),
        (_, Some(grid)) => return Reply::Result { grid, t1 },
        (_, None) => (
            ErrorCode::RegistryPoisoned,
            "drain failed before producing a result".to_string(),
        ),
    };
    Frame::Status {
        status: RequestStatus::Failed { code, detail },
    }
    .into()
}

/// Prints the resolved listen address on stdout (`listening on <addr>`), for
/// scripts that started the binary on an ephemeral port.
pub fn announce(addr: SocketAddr) {
    println!("listening on {addr}");
    let _ = io::stdout().flush();
}
