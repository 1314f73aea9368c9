//! A small blocking client for the `pochoir-serve` wire protocol.
//!
//! The client is deliberately dumb: one [`TcpStream`] with `TCP_NODELAY` set
//! (its read half behind a small `BufReader`), strictly request/response (every
//! frame it sends but `Close` is answered by exactly one frame), no internal
//! threads.  The one call that blocks on the server's progress is
//! [`Client::wait`], which parks server-side in a `Wait` frame instead of
//! polling.  A grid is never staged: [`Client::submit_grid`] writes the
//! caller's rows straight to the socket, and a fetched result's payload is read
//! into the one `Vec` [`FetchedResult::bytes`] hands back.  Anything fancier —
//! concurrency, retries — is the caller's business, which keeps the tests
//! honest about what crossed the wire.

use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use pochoir_core::grid::PochoirArray;
use pochoir_stencils::traffic::{digest_patterns, heat_grid, life_grid, usizes, wave_grid};
use pochoir_trace::TraceApp;

use crate::protocol::{
    read_frame, write_frame, write_grid_frame, Deadline, ElemType, ErrorCode, Frame, FrameError,
    ReadError, RequestStatus, WireElem, PROTOCOL_VERSION, READ_BUFFER,
};

/// Client-side failures, separating transport problems from typed server
/// rejections.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed or closed mid-exchange.
    Io(io::Error),
    /// The server's bytes did not decode as a frame.
    Frame(FrameError),
    /// The server answered with a typed error frame.
    Server {
        /// The wire error code.
        code: ErrorCode,
        /// Human-readable detail from the server.
        detail: String,
    },
    /// The server answered with a frame the protocol does not allow here.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Frame(e) => write!(f, "undecodable server frame: {e}"),
            ClientError::Server { code, detail } => {
                write!(f, "server rejected request ({code:?}): {detail}")
            }
            ClientError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ReadError> for ClientError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Eof => ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            ReadError::Io(e) => ClientError::Io(e),
            ReadError::Frame(e) => ClientError::Frame(e),
        }
    }
}

/// A negotiated session: the server-assigned handle plus the geometry it is
/// bound to.
#[derive(Clone, Debug)]
pub struct Session {
    /// Server-assigned session id, echoed on every submit.
    pub id: u32,
    /// The served application.
    pub app: TraceApp,
    /// Grid extents, slowest dimension first.
    pub geometry: Vec<u64>,
    /// The session's dispatch window (trace `chunk`), confirmed by the server.
    pub window: i64,
}

/// A fetched result: the raw payload slices plus enough shape to digest them.
#[derive(Clone, Debug)]
pub struct FetchedResult {
    /// Element type of the payload.
    pub elem: ElemType,
    /// The kernel-invocation horizon the result was taken at.
    pub t1: i64,
    /// Cells per time slice.
    pub slice_len: u64,
    /// `2 * slice_len * elem.size()` bytes: slices `t1-1` and `t1`.
    pub bytes: Vec<u8>,
}

impl FetchedResult {
    /// The FNV-1a digest of the payload, bit-identical to
    /// [`digest_grid`](pochoir_stencils::traffic::digest_grid) of the array
    /// the server drained — folded over the payload bytes where they lie.
    pub fn digest(&self) -> u64 {
        match self.elem {
            ElemType::F64 => digest_patterns(
                self.bytes
                    .chunks_exact(8)
                    .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunks"))),
            ),
            ElemType::U8 => digest_patterns(self.bytes.iter().map(|&b| u64::from(b))),
        }
    }
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    /// The write half.
    stream: TcpStream,
    /// The read half of the same socket.
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects and completes the `Hello`/`HelloAck` version handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // Request/response over small frames: Nagle would hold every frame for
        // the peer's delayed ACK.
        stream.set_nodelay(true)?;
        let reader = BufReader::with_capacity(READ_BUFFER, stream.try_clone()?);
        let mut client = Client { stream, reader };
        match client.roundtrip(&Frame::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Frame::HelloAck { .. } => Ok(client),
            other => Err(unexpected("HelloAck", &other)),
        }
    }

    /// Negotiates (or re-joins) the session for `(app, geometry, window)`.
    pub fn negotiate(
        &mut self,
        app: TraceApp,
        geometry: &[u64],
        window: i64,
    ) -> Result<Session, ClientError> {
        match self.roundtrip(&Frame::Negotiate {
            app,
            geometry: geometry.to_vec(),
            chunk: window,
        })? {
            Frame::SessionAck { session, window } => Ok(Session {
                id: session,
                app,
                geometry: geometry.to_vec(),
                window,
            }),
            other => Err(unexpected("SessionAck", &other)),
        }
    }

    /// Submits `[t0, t1)` on `grid`, whose every time slice goes out straight
    /// from its rows; returns the request id.
    ///
    /// The arity mirrors the wire frame field-for-field on purpose.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_grid<T: WireElem, const D: usize>(
        &mut self,
        session: &Session,
        grid: &PochoirArray<T, D>,
        tenant: u32,
        t0: i64,
        t1: i64,
        weight: u32,
        deadline: Deadline,
    ) -> Result<u64, ClientError> {
        let frame = Frame::Submit {
            session: session.id,
            tenant,
            t0,
            t1,
            weight,
            deadline,
            elem: T::ELEM,
            grid: Vec::new(),
        };
        let slices: Vec<i64> = (0..grid.time_slices() as i64).collect();
        write_grid_frame(&mut self.stream, &frame, grid, &slices)?;
        match self.reply()? {
            Frame::Submitted { request } => Ok(request),
            other => Err(unexpected("Submitted", &other)),
        }
    }

    /// Builds the deterministic tenant grid for `(app, geometry, tenant)` —
    /// the same construction the replay harness uses — and submits it over
    /// `[0, t1)`.
    pub fn submit_tenant(
        &mut self,
        session: &Session,
        tenant: u32,
        t1: i64,
        weight: u32,
        deadline: Deadline,
    ) -> Result<u64, ClientError> {
        match session.app {
            TraceApp::Heat2d => {
                let g = heat_grid(usizes::<2>(&session.geometry), tenant);
                self.submit_grid(session, &g, tenant, 0, t1, weight, deadline)
            }
            TraceApp::Life => {
                let g = life_grid(usizes::<2>(&session.geometry), tenant);
                self.submit_grid(session, &g, tenant, 0, t1, weight, deadline)
            }
            TraceApp::Wave3d => {
                let g = wave_grid(usizes::<3>(&session.geometry), tenant);
                self.submit_grid(session, &g, tenant, 0, t1, weight, deadline)
            }
            TraceApp::HeatGiant1d => {
                let g = heat_grid(usizes::<1>(&session.geometry), tenant);
                self.submit_grid(session, &g, tenant, 0, t1, weight, deadline)
            }
        }
    }

    /// One status probe; never blocks on the request's progress.
    pub fn poll(&mut self, request: u64) -> Result<RequestStatus, ClientError> {
        match self.roundtrip(&Frame::Poll { request })? {
            Frame::Status { status } => Ok(status),
            other => Err(unexpected("Status", &other)),
        }
    }

    /// Parks on the server until the request leaves `Pending` or `timeout`
    /// elapses.  The server caps each park, so a long wait is a few `Wait`
    /// frames — one if the request finishes within the cap.
    pub fn wait(&mut self, request: u64, timeout: Duration) -> Result<RequestStatus, ClientError> {
        let started = Instant::now();
        loop {
            let left = timeout.saturating_sub(started.elapsed());
            let frame = Frame::Wait {
                request,
                timeout_micros: left.as_micros().try_into().unwrap_or(u64::MAX),
            };
            match self.roundtrip(&frame)? {
                Frame::Status {
                    status: RequestStatus::Pending,
                } if started.elapsed() < timeout => {}
                Frame::Status { status } => return Ok(status),
                other => return Err(unexpected("Status", &other)),
            }
        }
    }

    /// Fetches a finished result (consuming it server-side).  A request that
    /// failed comes back as [`ClientError::Server`] with the typed code.
    pub fn fetch(&mut self, request: u64) -> Result<FetchedResult, ClientError> {
        match self.roundtrip(&Frame::Fetch { request })? {
            Frame::Result {
                elem,
                t1,
                slice_len,
                payload,
            } => Ok(FetchedResult {
                elem,
                t1,
                slice_len,
                bytes: payload,
            }),
            other => Err(unexpected("Result", &other)),
        }
    }

    /// Waits for completion, then fetches; the common case.
    pub fn wait_fetch(
        &mut self,
        request: u64,
        timeout: Duration,
    ) -> Result<FetchedResult, ClientError> {
        match self.wait(request, timeout)? {
            RequestStatus::Failed { code, detail } => Err(ClientError::Server { code, detail }),
            RequestStatus::Pending => Err(ClientError::Protocol(format!(
                "request {request} still pending after {timeout:?}"
            ))),
            RequestStatus::Done => self.fetch(request),
        }
    }

    /// Asks a recording server to write its trace now; returns the record
    /// count.
    pub fn flush_record(&mut self) -> Result<u64, ClientError> {
        match self.roundtrip(&Frame::Flush)? {
            Frame::Flushed { records } => Ok(records),
            other => Err(unexpected("Flushed", &other)),
        }
    }

    /// Polite goodbye (half of the pair; dropping the stream works too).
    pub fn close(mut self) -> Result<(), ClientError> {
        write_frame(&mut self.stream, &Frame::Close)?;
        Ok(())
    }

    fn roundtrip(&mut self, frame: &Frame) -> Result<Frame, ClientError> {
        write_frame(&mut self.stream, frame)?;
        self.reply()
    }

    /// Reads the server's answer; a typed error frame becomes
    /// [`ClientError::Server`].
    fn reply(&mut self) -> Result<Frame, ClientError> {
        let (reply, _) = read_frame(&mut self.reader)?;
        if let Frame::Error { code, detail } = reply {
            return Err(ClientError::Server { code, detail });
        }
        Ok(reply)
    }
}

fn unexpected(wanted: &str, got: &Frame) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, server sent {got:?}"))
}
