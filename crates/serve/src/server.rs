//! The blocking reactor: accept loop + one worker thread per connection + one
//! shared drain thread, all over [`std::net::TcpListener`].
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
//!   header against the session, and only then builds the array and streams
//!   the payload straight into its rows (a refused header has its payload
//!   drained, so the stream stays framed); it submits into the shared session
//!   table, and a `Fetch` writes the result straight from the drained array's
//!   rows.  A `Wait` parks it on the completion condvar until its request
//!   finishes (`Poll` is the same handler with a zero timeout);
//! * the **drain thread** sleeps until a submit raises the `work` flag and
//!   drains every session with pending work through
//!   [`StencilServer::try_drain`] — per-tenant panics retire only their own
//!   chain, exactly as in-process — and stores each drained array, as is, as
//!   its request's result.  The flag is raised, checked and cleared under the
//!   `State` mutex the condvar is paired with, so no wake-up can be lost and
//!   the thread needs no timer.
//!
//! Sockets run with `TCP_NODELAY` (the protocol is request/response over small
//! frames) and a write timeout ([`WRITE_TIMEOUT`]), a frame that has started to
//! arrive must finish within [`FRAME_DEADLINE`], and a parked `Wait` is capped
//! ([`WAIT_CAP`]): a peer that stops reading, trickles a frame or stops asking
//! costs its own worker a bounded stall, never a pinned thread.
//!
//! **Locking model.**  There are two lock tiers and they are never nested:
//! a global `State` mutex guards the request table, the session index, and
//! record-mode bookkeeping — all cheap map operations — while each session's
//! compiled server and drain queue live behind that session's own mutex.  The
//! drain thread computes entirely under the session lock, so submits, polls,
//! and fetches on every connection keep flowing while a session drains; only
//! the brief result hand-off touches the global lock.
//!
//! Sessions are keyed `(app, geometry, chunk)` and backed by the process-global
//! session registry, so two connections negotiating the same geometry share one
//! compiled program — compile-once is preserved across the network boundary and
//! asserted by the end-to-end test.  Because negotiation compiles and the
//! service is unauthenticated, the session table is bounded
//! ([`ServeConfig::max_sessions`], answered with a typed `Shed` error when
//! full), geometries whose submit frame could never fit in [`MAX_FRAME`] are
//! refused at negotiation, and each submission's step span is capped
//! ([`ServeConfig::max_steps_per_submit`]) so one cheap frame cannot buy an
//! unbounded drain.  Wall-clock deadlines are converted to the scheduler's
//! logical ticks using a per-session cost model calibrated from
//! [`SessionStats`](pochoir_core::engine::SessionStats) window counts and
//! measured drain times.
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pochoir_core::boundary::Boundary;
use pochoir_core::engine::{
    AdmissionPolicy, Coarsening, ExecutionPlan, ServeError, Sharding, StencilServer, SubmitOptions,
    TicketOutcome,
};
use pochoir_core::grid::PochoirArray;
use pochoir_core::kernel::{StencilKernel, StencilSpec};
use pochoir_runtime::{Counter, Parallelism, Runtime};
use pochoir_stencils::heat::HeatKernel;
use pochoir_stencils::life::LifeKernel;
use pochoir_stencils::wave::WaveKernel;
use pochoir_stencils::{heat, life, traffic, wave};
use pochoir_trace::corpus::GIANT_TILES;
use pochoir_trace::{Trace, TraceApp, TraceRecord};

use crate::protocol::{
    read_frame_head, read_grid, skip_payload, wire_error, write_frame, write_grid_frame, Deadline,
    ElemType, ErrorCode, Frame, FrameHead, ReadError, RequestStatus, WireElem, MAX_FRAME,
    MAX_SUBMIT_PAYLOAD, PROTOCOL_VERSION, READ_BUFFER,
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
    /// Per-tenant quotas and watermarks installed on every session's server;
    /// `None` admits everything.
    pub admission: Option<AdmissionPolicy>,
    /// Record admitted traffic as a replayable trace.
    pub record: Option<RecordConfig>,
    /// Per-window cost assumed for wall-clock deadline conversion until the
    /// first drain calibrates the session (microseconds per window).
    pub assumed_window_micros: f64,
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
            admission: None,
            record: None,
            assumed_window_micros: 50.0,
            max_sessions: 64,
            max_steps_per_submit: 1 << 20,
        }
    }
}

/// Longest a connection worker parks in one `Wait` before answering `Pending`;
/// the client re-issues to wait longer.  Bounds how long a worker can sit on a
/// request whose client has silently gone.
pub const WAIT_CAP: Duration = Duration::from_millis(250);

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

/// A served `(app, geometry)` pair — one compiled session, one drain queue.  The
/// one dispatch type of live serving and trace replay (`pochoir-bench`), so both
/// route through identical presets (and therefore identical registry keys).
pub enum AnyServer {
    /// 2-D heat, `f64`.
    Heat2d(StencilServer<f64, HeatKernel<2>, 2>),
    /// Conway's life, `u8`.
    Life(StencilServer<u8, LifeKernel, 2>),
    /// 3-D wave, `f64`, depth 2.
    Wave3d(StencilServer<f64, WaveKernel, 3>),
    /// Giant 1-D heat, submitted sharded with the tile count pinned to
    /// [`GIANT_TILES`].
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
    /// per-app presets, installing `admission` if given.  The giant preset pins its
    /// tile count: `Sharding::Auto` would size the tiling off this host's worker
    /// count, and a trace must replay identically on any machine.
    pub fn build(
        app: TraceApp,
        geometry: &[u64],
        chunk: i64,
        admission: Option<AdmissionPolicy>,
    ) -> AnyServer {
        let server = match app {
            TraceApp::Heat2d => {
                AnyServer::Heat2d(heat::serve_2d(traffic::usizes::<2>(geometry), chunk))
            }
            TraceApp::Life => AnyServer::Life(life::serve(traffic::usizes::<2>(geometry), chunk)),
            TraceApp::Wave3d => {
                AnyServer::Wave3d(wave::serve(traffic::usizes::<3>(geometry), chunk))
            }
            TraceApp::HeatGiant1d => AnyServer::HeatGiant1d(StencilServer::new(
                StencilSpec::new(heat::shape::<1>()),
                HeatKernel::<1>::default(),
                ExecutionPlan::trap()
                    .with_coarsening(Coarsening::none())
                    .with_sharding(Sharding::Tiles(GIANT_TILES)),
                traffic::usizes::<1>(geometry),
                chunk,
            )),
        };
        match (server, admission) {
            (server, None) => server,
            (AnyServer::Heat2d(s), Some(p)) => AnyServer::Heat2d(s.with_admission_policy(p)),
            (AnyServer::Life(s), Some(p)) => AnyServer::Life(s.with_admission_policy(p)),
            (AnyServer::Wave3d(s), Some(p)) => AnyServer::Wave3d(s.with_admission_policy(p)),
            (AnyServer::HeatGiant1d(s), Some(p)) => {
                AnyServer::HeatGiant1d(s.with_admission_policy(p))
            }
        }
    }
}

/// One queued ticket's bookkeeping: ticket `i` of the session's next drain belongs
/// to `queued[i]`.
struct QueuedTicket {
    request: u64,
    t1: i64,
}

/// The immutable identity of a negotiated session, readable without any lock,
/// plus its mutable serving state behind the session's own mutex.
struct SessionSlot {
    app: TraceApp,
    geometry: Vec<u64>,
    chunk: i64,
    inner: Mutex<SessionInner>,
}

struct SessionInner {
    server: AnyServer,
    queued: Vec<QueuedTicket>,
    /// Calibrated cost of one dispatch window in microseconds (EWMA over
    /// measured drains, seeded by `ServeConfig::assumed_window_micros`).
    cost_ewma_micros: f64,
    /// `SessionStats::runs` at the last calibration, so each drain's window
    /// delta comes from the session's own counters.
    calibrated_runs: u64,
}

/// Sentinel owner for a request whose client disconnected: the drain completes
/// the work (it is already in the scheduler's queue) but the result is
/// discarded instead of stored.
const ORPHANED: u64 = u64::MAX;

enum ReqState {
    Queued,
    /// Drained: the array itself, whose last two slices a `Fetch` writes out.
    Done {
        grid: Grid,
        t1: i64,
    },
    Failed {
        code: ErrorCode,
        detail: String,
    },
}

struct Request {
    conn: u64,
    state: ReqState,
}

#[derive(Default)]
struct State {
    sessions: Vec<Arc<SessionSlot>>,
    session_ids: HashMap<(TraceApp, Vec<u64>, i64), u32>,
    requests: HashMap<u64, Request>,
    next_request: u64,
    /// Raised by every admitted submit, cleared by the drain thread before it
    /// scans the sessions.
    work: bool,
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
    /// The drain thread sleeps here until `State::work` or shutdown.
    work: Condvar,
    /// Workers parked in a `Wait` sleep here until completions are stored (or
    /// shutdown).
    done: Condvar,
    /// Raised under the `state` lock, which both condvars are paired with.
    shutdown: AtomicBool,
    next_conn: AtomicU64,
}

/// A running server; dropping it does **not** stop the threads — call
/// [`shutdown`](Server::shutdown).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept and drain threads, and returns immediately.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            state: Mutex::new(State::default()),
            conns: Mutex::new(ConnTable::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pochoir-serve-accept".into())
                .spawn(move || accept_loop(listener, shared))?
        };
        let drain = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pochoir-serve-drain".into())
                .spawn(move || drain_loop(shared))?
        };
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            drain: Some(drain),
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the service and joins every thread it owns: the shutdown flag is
    /// raised (waking the drain thread and every worker parked in a `Wait`),
    /// every live connection socket is shut down so workers blocked in a read
    /// or write fail out and retire their own chains, the workers and the
    /// accept thread are joined, the drain thread finishes the drain it is in
    /// and is joined, and only then — with no writer left — is the record
    /// trace written (if recording).
    pub fn shutdown(mut self) {
        {
            // Under the lock the sleepers check it under: a thread is either
            // before its check (and sees the flag) or already waiting (and
            // gets the notification).
            let _state = lock(&self.shared.state);
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.work.notify_all();
        self.shared.done.notify_all();
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
        if let Some(h) = self.drain.take() {
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
                connection_loop(stream, conn, &worker_shared);
                orphan_connection(&worker_shared, conn);
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

/// Retires a disconnected client's chain: finished results are dropped,
/// still-queued requests are marked orphaned so the drain discards theirs.
/// No other tenant's state is touched.
fn orphan_connection(shared: &Shared, conn: u64) {
    let mut state = lock(&shared.state);
    let mine: Vec<u64> = state
        .requests
        .iter()
        .filter(|(_, r)| r.conn == conn)
        .map(|(&id, _)| id)
        .collect();
    for id in mine {
        let finished = matches!(
            state.requests[&id].state,
            ReqState::Done { .. } | ReqState::Failed { .. }
        );
        if finished {
            state.requests.remove(&id);
        } else if let Some(r) = state.requests.get_mut(&id) {
            r.conn = ORPHANED;
        }
    }
}

/// What a connection worker answers one request frame with.
enum Reply {
    Frame(Frame),
    /// A fetched request's result, written straight from the drained array.
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

fn connection_loop(mut stream: TcpStream, conn: u64, shared: &Shared) {
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
    // The last result this connection fetched, refilled by its next `Submit`
    // of the same shape instead of a fresh array.
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
                conn,
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
                Ok(reply) => reply.into(),
                Err(_) => return, // the stream failed inside the payload
            },
            Frame::Poll { request } => handle_wait(shared, conn, request, Duration::ZERO).into(),
            Frame::Wait {
                request,
                timeout_micros,
            } => handle_wait(shared, conn, request, Duration::from_micros(timeout_micros)).into(),
            Frame::Fetch { request } => handle_fetch(shared, conn, request),
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

/// Writes one reply, folding the byte count into the runtime metrics; `false`
/// means the peer is gone.
fn send(stream: &mut TcpStream, reply: &Reply) -> bool {
    let written = match reply {
        Reply::Frame(frame) => write_frame(stream, frame),
        Reply::Result { grid, t1 } => grid.write_result(stream, *t1),
    };
    match written {
        Ok(bytes) => {
            let rt = Runtime::global();
            rt.count(Counter::NetFramesOut, 1);
            rt.count(Counter::NetBytesOut, bytes);
            true
        }
        Err(_) => false,
    }
}

/// Dense time slices a `Submit` grid payload carries for `app` (the wave
/// stencil is second-order in time and needs three).
fn submit_slices(app: TraceApp) -> u64 {
    match app {
        TraceApp::Wave3d => 3,
        TraceApp::Heat2d | TraceApp::Life | TraceApp::HeatGiant1d => 2,
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
    // A geometry whose submit frame cannot fit in MAX_FRAME can never be
    // legally used, so refuse it before compiling anything for it.
    let payload_bytes = geometry.iter().map(|&g| g as u128).product::<u128>()
        * submit_slices(app) as u128
        * ElemType::for_app(app).size() as u128;
    if payload_bytes > MAX_SUBMIT_PAYLOAD as u128 {
        return Frame::Error {
            code: ErrorCode::BadPayload,
            detail: format!(
                "geometry {geometry:?} needs {payload_bytes}-byte submit payloads, \
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
    let server = AnyServer::build(app, &geometry, chunk, shared.config.admission);
    let id = state.sessions.len() as u32;
    state.sessions.push(Arc::new(SessionSlot {
        app,
        geometry,
        chunk,
        inner: Mutex::new(SessionInner {
            server,
            queued: Vec::new(),
            cost_ewma_micros: shared.config.assumed_window_micros,
            calibrated_runs: 0,
        }),
    }));
    state.session_ids.insert(key, id);
    Frame::SessionAck {
        session: id,
        window: chunk,
    }
}

/// A served array, one arm per served shape: built for a `Submit` and filled
/// from its payload, then — drained — kept as the request's result.
enum Grid {
    F64x2(PochoirArray<f64, 2>),
    U8x2(PochoirArray<u8, 2>),
    F64x3(PochoirArray<f64, 3>),
    F64x1(PochoirArray<f64, 1>),
}

impl Grid {
    /// The array a `Submit` of `app` over `geometry` fills — [`submit_slices`]
    /// time slices, the app's boundary: `spare` when it has that shape (every
    /// cell is about to be overwritten), else a fresh one.
    fn for_submit(app: TraceApp, geometry: &[u64], spare: Option<Grid>) -> Grid {
        fn fresh<T: WireElem, const D: usize>(
            geometry: &[u64],
            app: TraceApp,
            boundary: Boundary<T, D>,
        ) -> PochoirArray<T, D> {
            let depth = submit_slices(app) as usize - 1;
            let mut a = PochoirArray::with_depth(traffic::usizes::<D>(geometry), depth);
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

    /// Fills every time slice from the `Submit` payload on `r`, a length the
    /// caller has matched against the frame.
    fn read_payload(&mut self, r: &mut impl Read) -> io::Result<()> {
        match self {
            Grid::F64x2(a) => read_grid(r, a),
            Grid::U8x2(a) => read_grid(r, a),
            Grid::F64x3(a) => read_grid(r, a),
            Grid::F64x1(a) => read_grid(r, a),
        }
    }

    /// Writes the `Result` frame for horizon `t1` — slices `max(t1 - 1, 0)`
    /// and `t1` — straight from the rows.
    fn write_result(&self, w: &mut impl Write, t1: i64) -> io::Result<u64> {
        fn result<T: WireElem, const D: usize>(
            w: &mut impl Write,
            grid: &PochoirArray<T, D>,
            t1: i64,
        ) -> io::Result<u64> {
            let frame = Frame::Result {
                elem: T::ELEM,
                t1,
                // Dense cells per slice, not the padded layout length.
                slice_len: grid.sizes().iter().product::<usize>() as u64,
                payload: Vec::new(),
            };
            write_grid_frame(w, &frame, grid, &[(t1 - 1).max(0), t1])
        }
        match self {
            Grid::F64x2(a) => result(w, a, t1),
            Grid::U8x2(a) => result(w, a, t1),
            Grid::F64x3(a) => result(w, a, t1),
            Grid::F64x1(a) => result(w, a, t1),
        }
    }
}

/// Answers a `Submit` whose header has been read and whose `payload` bytes are
/// still on `r`: the header is checked against the session first, and only
/// then is the array built and the payload streamed into it, without any lock
/// held (a large grid must stall neither the drain thread nor other
/// connections).  A refused header has its payload drained before the typed
/// error goes out, so the stream stays framed.  `Err` means the stream failed.
#[allow(clippy::too_many_arguments)]
fn handle_submit(
    shared: &Shared,
    conn: u64,
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
) -> io::Result<Frame> {
    let slot = match check_submit(shared, session, elem, t0, t1, payload) {
        Ok(slot) => slot,
        Err(refusal) => {
            skip_payload(r, payload)?;
            return Ok(refusal);
        }
    };
    let mut grid = Grid::for_submit(slot.app, &slot.geometry, spare.take());
    grid.read_payload(r)?;

    // Register the request before the tickets exist: the drain thread only
    // pairs results with requests it can find in the table, so the entry must
    // be visible the moment the session queue is.
    let request = {
        let mut state = lock(&shared.state);
        let id = state.next_request;
        state.next_request += 1;
        state.requests.insert(
            id,
            Request {
                conn,
                state: ReqState::Queued,
            },
        );
        id
    };

    let windows_needed = windows_of(t0, t1, slot.chunk);
    let submitted: Result<Option<u64>, ServeError> = {
        let mut inner = lock(&slot.inner);
        let logical_deadline = match deadline {
            Deadline::None => None,
            Deadline::Logical(ticks) => Some(ticks),
            Deadline::WallMicros(us) => {
                Some(wall_to_ticks(us, inner.cost_ewma_micros, windows_needed))
            }
        };
        let opts = SubmitOptions {
            weight,
            deadline: logical_deadline,
        };
        let outcome = match (&mut inner.server, grid) {
            (AnyServer::Heat2d(s), Grid::F64x2(a)) => s.try_submit_with(a, t0, t1, opts),
            (AnyServer::Life(s), Grid::U8x2(a)) => s.try_submit_with(a, t0, t1, opts),
            (AnyServer::Wave3d(s), Grid::F64x3(a)) => s.try_submit_with(a, t0, t1, opts),
            (AnyServer::HeatGiant1d(s), Grid::F64x1(a)) => s.try_submit_sharded(a, t0, t1, opts),
            // Unreachable in practice: `grid` was built for the session's own
            // app a few lines up.
            _ => {
                drop(inner);
                lock(&shared.state).requests.remove(&request);
                return Ok(Frame::Error {
                    code: ErrorCode::BadPayload,
                    detail: "grid/session element type mismatch".to_string(),
                });
            }
        };
        outcome.map(|_ticket| {
            inner.queued.push(QueuedTicket { request, t1 });
            logical_deadline
        })
    };
    let logical_deadline = match submitted {
        Ok(deadline) => deadline,
        Err(e) => {
            lock(&shared.state).requests.remove(&request);
            let (code, detail) = wire_error(&e);
            return Ok(Frame::Error { code, detail });
        }
    };

    let mut state = lock(&shared.state);
    if shared.config.record.is_some() {
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
    state.work = true;
    drop(state);
    shared.work.notify_one();
    Ok(Frame::Submitted { request })
}

/// The checks a `Submit` header must pass before its payload is read: the
/// session exists, the element type is the app's, the step span is sane and
/// capped, and the declared payload is exactly the session's grid.  `Err` is
/// the typed refusal.
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
        Some(span) if span >= 0 => span,
        _ => return refuse(ErrorCode::BadPayload, format!("t1 {t1} precedes t0 {t0}")),
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
    let slices = submit_slices(slot.app);
    let expected = (slot.geometry.iter().product::<u64>() * slices) as usize * elem.size();
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

fn windows_of(t0: i64, t1: i64, chunk: i64) -> u64 {
    let span = (t1 - t0).max(0) as u64;
    span.div_ceil(chunk.max(1) as u64).max(1)
}

/// Converts a wall-clock budget to drain ticks via the calibrated per-window
/// cost; never below the ticks the submission itself needs (a budget that
/// cannot even cover its own work is clamped, and the scheduler's unmeetable-
/// deadline policy decides whether to shed it).
fn wall_to_ticks(wall_micros: u64, cost_micros: f64, windows_needed: u64) -> u64 {
    let ticks = (wall_micros as f64 / cost_micros.max(1e-3)).floor() as u64;
    ticks.max(windows_needed)
}

/// Answers `Wait` (and `Poll`, its `timeout == 0` form): parks on the
/// completion condvar until the request leaves `Queued`, `timeout` (capped at
/// [`WAIT_CAP`]) passes, or the server shuts down, then reports where the
/// request stands.
fn handle_wait(shared: &Shared, conn: u64, request: u64, timeout: Duration) -> Frame {
    let deadline = Instant::now() + timeout.min(WAIT_CAP);
    let mut state = lock(&shared.state);
    loop {
        let status = match state.requests.get(&request) {
            None => {
                return Frame::Error {
                    code: ErrorCode::UnknownRequest,
                    detail: format!(
                        "request {request} is unknown (never submitted, fetched, or retired)"
                    ),
                }
            }
            Some(r) if r.conn != conn => {
                return Frame::Error {
                    code: ErrorCode::UnknownRequest,
                    detail: format!("request {request} belongs to another connection"),
                }
            }
            Some(r) => match &r.state {
                ReqState::Queued => RequestStatus::Pending,
                ReqState::Done { .. } => RequestStatus::Done,
                ReqState::Failed { code, detail } => RequestStatus::Failed {
                    code: *code,
                    detail: detail.clone(),
                },
            },
        };
        let left = deadline.saturating_duration_since(Instant::now());
        if status != RequestStatus::Pending
            || left.is_zero()
            || shared.shutdown.load(Ordering::SeqCst)
        {
            return Frame::Status { status };
        }
        state = shared
            .done
            .wait_timeout(state, left)
            .unwrap_or_else(|p| p.into_inner())
            .0;
    }
}

/// Answers `Fetch`: a finished request is consumed, and its array leaves the
/// state lock to be written out as the `Result`.
fn handle_fetch(shared: &Shared, conn: u64, request: u64) -> Reply {
    let mut state = lock(&shared.state);
    match state.requests.get(&request) {
        None => {
            return Frame::Error {
                code: ErrorCode::UnknownRequest,
                detail: format!("request {request} is unknown"),
            }
            .into()
        }
        Some(r) if r.conn != conn => {
            return Frame::Error {
                code: ErrorCode::UnknownRequest,
                detail: format!("request {request} belongs to another connection"),
            }
            .into()
        }
        Some(r) if matches!(r.state, ReqState::Queued) => {
            return Frame::Error {
                code: ErrorCode::NotReady,
                detail: format!("request {request} has not finished draining"),
            }
            .into()
        }
        Some(_) => {}
    }
    // A finished fetch consumes the request either way.
    let r = state.requests.remove(&request).expect("checked above");
    match r.state {
        ReqState::Done { grid, t1 } => Reply::Result { grid, t1 },
        ReqState::Failed { code, detail } => Frame::Error { code, detail }.into(),
        ReqState::Queued => unreachable!("queued requests returned NotReady above"),
    }
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

fn drain_loop(shared: Arc<Shared>) {
    loop {
        // Sleep until a submit raised `work`; the flag is cleared before the
        // scan, so a ticket queued behind the scan raises it again.  Then
        // snapshot the session list (cheap Arc clones) and drain each busy
        // session under its own lock only: submits, waits, and fetches on the
        // global state lock keep flowing while a session computes.
        let sessions: Vec<Arc<SessionSlot>> = {
            let mut state = lock(&shared.state);
            while !state.work {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                state = shared.work.wait(state).unwrap_or_else(|p| p.into_inner());
            }
            state.work = false;
            state.sessions.clone()
        };
        for slot in &sessions {
            let completions = {
                let mut inner = lock(&slot.inner);
                if inner.queued.is_empty() {
                    continue;
                }
                drain_session(&mut inner)
            };
            store_completions(&mut lock(&shared.state), completions);
            shared.done.notify_all();
        }
    }
}

/// Drains one session through the pipelined scheduler: the drained arrays in
/// ticket order (none if the drain itself failed), each wrapped by `wrap`, plus
/// the per-ticket outcomes from the drain report.
fn drain_tickets<T, K, const D: usize>(
    s: &mut StencilServer<T, K, D>,
    wrap: fn(PochoirArray<T, D>) -> Grid,
) -> (Vec<Grid>, Vec<TicketOutcome>)
where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
{
    let results = s.try_drain().unwrap_or_default();
    let outcomes = s
        .last_drain()
        .map(|r| r.outcomes.clone())
        .unwrap_or_default();
    (results.into_iter().map(wrap).collect(), outcomes)
}

/// Drains one session's queue under its own lock and returns each ticket's
/// completion (result or typed failure) for the caller to store
/// under the global lock.  Also recalibrates the session's per-window cost
/// from the measured drain time over the
/// [`SessionStats`](pochoir_core::engine::SessionStats) `runs` delta.
fn drain_session(inner: &mut SessionInner) -> Vec<(u64, ReqState)> {
    let queued = std::mem::take(&mut inner.queued);
    let started = Instant::now();
    let (grids, outcomes) = match &mut inner.server {
        AnyServer::Heat2d(s) => drain_tickets(s, Grid::F64x2),
        AnyServer::Life(s) => drain_tickets(s, Grid::U8x2),
        AnyServer::Wave3d(s) => drain_tickets(s, Grid::F64x3),
        AnyServer::HeatGiant1d(s) => drain_tickets(s, Grid::F64x1),
    };
    let elapsed_micros = started.elapsed().as_secs_f64() * 1e6;
    let runs = with_server!(&inner.server, s => s.stats().runs);
    let windows = runs.saturating_sub(inner.calibrated_runs);
    inner.calibrated_runs = runs;
    if windows > 0 {
        let measured = elapsed_micros / windows as f64;
        inner.cost_ewma_micros = 0.7 * inner.cost_ewma_micros + 0.3 * measured;
    }

    let mut grids = grids.into_iter();
    queued
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let state = match (outcomes.get(i), grids.next()) {
                (Some(TicketOutcome::Panicked { message }), _) => ReqState::Failed {
                    code: ErrorCode::TenantPanicked,
                    detail: format!("tenant ticket {i} panicked: {message}"),
                },
                (Some(TicketOutcome::Shed { reason }), _) => ReqState::Failed {
                    code: ErrorCode::Shed,
                    detail: format!("dropped at dispatch: {reason}"),
                },
                (_, Some(grid)) => ReqState::Done { grid, t1: q.t1 },
                (_, None) => ReqState::Failed {
                    code: ErrorCode::RegistryPoisoned,
                    detail: "drain failed before producing a result".to_string(),
                },
            };
            (q.request, state)
        })
        .collect()
}

/// Stores drained completions on their requests; orphaned requests (client
/// gone) are dropped instead.
fn store_completions(state: &mut State, completions: Vec<(u64, ReqState)>) {
    for (request, new_state) in completions {
        match state.requests.get_mut(&request) {
            Some(r) if r.conn == ORPHANED => {
                state.requests.remove(&request);
            }
            Some(r) => r.state = new_state,
            None => {}
        }
    }
}

/// Prints the resolved listen address on stdout (`listening on <addr>`), for
/// scripts that started the binary on an ephemeral port.
pub fn announce(addr: SocketAddr) {
    println!("listening on {addr}");
    let _ = io::stdout().flush();
}
