//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame on the wire is a little-endian `u32` **body length** followed by
//! the body; the body is a one-byte opcode followed by an opcode-specific
//! payload.  All integers are little-endian; strings are a `u32` length plus
//! UTF-8 bytes; grids travel as densely packed row-major time slices (exactly
//! [`PochoirArray::snapshot`](pochoir_core::grid::PochoirArray::snapshot)
//! order), one per time slice of the session's app, so a grid rebuilt from the
//! wire is bitwise-identical to the one serialized.
//!
//! A frame costs at most two socket writes ([`write_frame`]): the length prefix
//! and every fixed field leave in one buffer, and only the bulk payload of a
//! `Submit`/`Result` follows as a second write, borrowed from where it already
//! lives.  On the way in, [`read_frame`] turns the body it read into that
//! payload in place ([`Frame::decode_owned`]), so a grid crosses each hop
//! without a payload-sized copy.
//!
//! The codec is hardened the way a network parser must be: [`Frame::decode`]
//! never panics, every length field is validated against the bytes actually
//! present **before** any allocation happens (a frame claiming a 4 GiB string
//! inside a 20-byte body is rejected without allocating 4 GiB), and frames
//! larger than [`MAX_FRAME`] are refused at the length prefix, before the body
//! is read.  `decode ∘ encode = id` is pinned by a property test over arbitrary
//! frames (`tests/protocol_properties.rs`).
//!
//! See `docs/protocol.md` for the full frame catalogue and the session/request
//! state machine.

use std::io::{self, Read, Write};

use pochoir_trace::TraceApp;

/// Protocol version spoken by this crate; negotiated by `Hello`/`HelloAck`.
pub const PROTOCOL_VERSION: u32 = 2;

/// Largest legal frame body in bytes (64 MiB) — enough for every grid the
/// serve presets compile (the giant 1D corpus grid is ~9.6 MiB of slices),
/// small enough that a hostile length prefix cannot balloon the process.
pub const MAX_FRAME: usize = 64 << 20;

/// Element type of a grid payload, tagged on the wire so frames are
/// self-describing (and so `decode ∘ encode = id` holds frame-locally).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElemType {
    /// IEEE-754 binary64, 8 bytes per cell, little-endian.
    F64,
    /// One byte per cell (life's `u8` states).
    U8,
}

impl ElemType {
    /// The wire tag.
    pub fn as_u8(self) -> u8 {
        match self {
            ElemType::F64 => 1,
            ElemType::U8 => 2,
        }
    }

    /// Bytes per cell on the wire.
    pub fn size(self) -> usize {
        match self {
            ElemType::F64 => 8,
            ElemType::U8 => 1,
        }
    }

    fn from_u8(tag: u8) -> Result<ElemType, FrameError> {
        match tag {
            1 => Ok(ElemType::F64),
            2 => Ok(ElemType::U8),
            other => Err(FrameError::BadPayload(format!("unknown elem tag {other}"))),
        }
    }

    /// The element type each app's grids carry.
    pub fn for_app(app: TraceApp) -> ElemType {
        match app {
            TraceApp::Life => ElemType::U8,
            TraceApp::Heat2d | TraceApp::Wave3d | TraceApp::HeatGiant1d => ElemType::F64,
        }
    }
}

/// Grid element types that can cross the wire.
pub trait WireElem: Copy + Default {
    /// This element's wire tag.
    const ELEM: ElemType;
    /// Writes `row`'s wire bytes into `out` (exactly `row.len() * ElemType::size`
    /// of them).
    fn put_row(row: &[Self], out: &mut [u8]);
    /// Reads `row.len()` elements from `bytes` (exactly `row.len() *
    /// ElemType::size` of them).
    fn take_row(bytes: &[u8], row: &mut [Self]);
}

impl WireElem for f64 {
    const ELEM: ElemType = ElemType::F64;
    fn put_row(row: &[f64], out: &mut [u8]) {
        for (bytes, v) in out.chunks_exact_mut(8).zip(row) {
            bytes.copy_from_slice(&v.to_le_bytes());
        }
    }
    fn take_row(bytes: &[u8], row: &mut [f64]) {
        for (v, bytes) in row.iter_mut().zip(bytes.chunks_exact(8)) {
            *v = f64::from_le_bytes(bytes.try_into().expect("8-byte chunks"));
        }
    }
}

impl WireElem for u8 {
    const ELEM: ElemType = ElemType::U8;
    fn put_row(row: &[u8], out: &mut [u8]) {
        out.copy_from_slice(row);
    }
    fn take_row(bytes: &[u8], row: &mut [u8]) {
        row.copy_from_slice(bytes);
    }
}

/// A submission's deadline, as requested on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deadline {
    /// No deadline: scheduled behind all deadline work, weighted-stride order.
    None,
    /// Logical deadline in drain ticks (the serving layer's native unit).
    Logical(u64),
    /// Wall-clock budget in microseconds; the server converts it to drain ticks
    /// using its calibrated per-window cost (see `docs/protocol.md`).
    WallMicros(u64),
}

impl Deadline {
    fn encode(self, out: &mut Vec<u8>) {
        let (kind, value) = match self {
            Deadline::None => (0u8, 0u64),
            Deadline::Logical(t) => (1, t),
            Deadline::WallMicros(us) => (2, us),
        };
        out.push(kind);
        out.extend_from_slice(&value.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Deadline, FrameError> {
        let kind = r.u8()?;
        let value = r.u64()?;
        match kind {
            0 if value == 0 => Ok(Deadline::None),
            0 => Err(FrameError::BadPayload(format!(
                "deadline kind 0 carries value {value}"
            ))),
            1 => Ok(Deadline::Logical(value)),
            2 => Ok(Deadline::WallMicros(value)),
            other => Err(FrameError::BadPayload(format!(
                "unknown deadline kind {other}"
            ))),
        }
    }
}

/// Where a polled request currently stands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestStatus {
    /// Queued or draining; wait (or poll) again.
    Pending,
    /// Finished; `Fetch` will return the result (and consume it).
    Done,
    /// The request failed; `Fetch` would return this same error.
    Failed {
        /// The typed wire error.
        code: ErrorCode,
        /// Human-readable detail (the underlying `ServeError`'s message).
        detail: String,
    },
}

/// Typed error codes carried by [`Frame::Error`] and [`RequestStatus::Failed`].
///
/// Codes 1–6 mirror [`ServeError`](pochoir_core::engine::ServeError) variant
/// for variant; codes 16+ are protocol-level failures that have no in-process
/// counterpart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// `ServeError::InvalidGeometry`.
    InvalidGeometry = 1,
    /// `ServeError::CompileFailed`.
    CompileFailed = 2,
    /// `ServeError::TenantPanicked`.
    TenantPanicked = 3,
    /// `ServeError::Shed` (admission control refused the request).
    Shed = 4,
    /// `ServeError::DeadlineUnmeetable`.
    DeadlineUnmeetable = 5,
    /// `ServeError::RegistryPoisoned`.
    RegistryPoisoned = 6,
    /// The frame could not be decoded (truncated or malformed payload).
    BadFrame = 16,
    /// The opcode is not part of this protocol version.
    UnknownOpcode = 17,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized = 18,
    /// The session id was never negotiated on this server.
    UnknownSession = 19,
    /// The request id is unknown (never submitted, already fetched, or retired
    /// with its disconnected owner).
    UnknownRequest = 20,
    /// The client's `Hello` version differs from [`PROTOCOL_VERSION`].
    VersionMismatch = 21,
    /// `Fetch` arrived before the request finished draining.
    NotReady = 22,
    /// The frame decoded but its contents are unusable (wrong grid byte count,
    /// wrong element type for the session's app, …).
    BadPayload = 23,
}

impl ErrorCode {
    /// The wire byte.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    fn from_u8(code: u8) -> Result<ErrorCode, FrameError> {
        Ok(match code {
            1 => ErrorCode::InvalidGeometry,
            2 => ErrorCode::CompileFailed,
            3 => ErrorCode::TenantPanicked,
            4 => ErrorCode::Shed,
            5 => ErrorCode::DeadlineUnmeetable,
            6 => ErrorCode::RegistryPoisoned,
            16 => ErrorCode::BadFrame,
            17 => ErrorCode::UnknownOpcode,
            18 => ErrorCode::Oversized,
            19 => ErrorCode::UnknownSession,
            20 => ErrorCode::UnknownRequest,
            21 => ErrorCode::VersionMismatch,
            22 => ErrorCode::NotReady,
            23 => ErrorCode::BadPayload,
            other => {
                return Err(FrameError::BadPayload(format!(
                    "unknown error code {other}"
                )))
            }
        })
    }
}

/// Maps a serving-layer error to its wire code and detail message.
pub fn wire_error(e: &pochoir_core::engine::ServeError) -> (ErrorCode, String) {
    use pochoir_core::engine::ServeError;
    let code = match e {
        ServeError::InvalidGeometry { .. } => ErrorCode::InvalidGeometry,
        ServeError::CompileFailed { .. } => ErrorCode::CompileFailed,
        ServeError::TenantPanicked { .. } => ErrorCode::TenantPanicked,
        ServeError::Shed { .. } => ErrorCode::Shed,
        ServeError::DeadlineUnmeetable { .. } => ErrorCode::DeadlineUnmeetable,
        ServeError::RegistryPoisoned => ErrorCode::RegistryPoisoned,
    };
    (code, e.to_string())
}

/// One protocol frame (either direction); see the module docs for framing.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client hello; the server answers [`Frame::HelloAck`] or a
    /// `VersionMismatch` error.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Geometry negotiation: ask for a session serving `(app, geometry)` with
    /// drain windows of `chunk` steps.  Answered by [`Frame::SessionAck`].
    Negotiate {
        /// Which serve preset backs the session.
        app: TraceApp,
        /// Grid extents, outermost first; must have exactly `app.dims()` items.
        geometry: Vec<u64>,
        /// Drain window (chunk) height in time steps; must be positive.
        chunk: i64,
    },
    /// Submit a `(array, t0, t1, weight, deadline)` request to a session.
    /// Answered by [`Frame::Submitted`] or a typed error.
    Submit {
        /// The negotiated session id.
        session: u32,
        /// Tenant id (recorded in trace records; also the client's identity for
        /// the deterministic tenant-grid convention).
        tenant: u32,
        /// First time step.
        t0: i64,
        /// Last time step (exclusive of further stepping; the result horizon).
        t1: i64,
        /// Weighted-stride share (clamped to ≥ 1 server-side).
        weight: u32,
        /// Deadline request.
        deadline: Deadline,
        /// Element type of `grid`; must match the session app's element type.
        elem: ElemType,
        /// All time slices of the input array, densely packed row-major, slice
        /// 0 first.
        grid: Vec<u8>,
    },
    /// Ask where a request stands; answered at once by [`Frame::Status`] — the
    /// non-blocking form of [`Frame::Wait`].
    Poll {
        /// The request id from [`Frame::Submitted`].
        request: u64,
    },
    /// Park until the request leaves `Pending`, `timeout_micros` pass (the
    /// server caps the park; re-issue to wait longer), or the server shuts
    /// down; answered by [`Frame::Status`].
    Wait {
        /// The request id from [`Frame::Submitted`].
        request: u64,
        /// Longest park the client asks for, in microseconds.
        timeout_micros: u64,
    },
    /// Fetch (and consume) a finished request's result; answered by
    /// [`Frame::Result`], `NotReady`, or the request's typed failure.
    Fetch {
        /// The request id from [`Frame::Submitted`].
        request: u64,
    },
    /// Polite goodbye; the server closes the connection.
    Close,
    /// Force the record-mode trace to disk now; answered by [`Frame::Flushed`]
    /// (with `records: 0` when record mode is off).
    Flush,

    /// Server hello acknowledgement.
    HelloAck {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// A negotiated session handle.
    SessionAck {
        /// Session id; stable for the server's lifetime.
        session: u32,
        /// The session's drain window height (echo of the negotiated chunk).
        window: i64,
    },
    /// A submission was admitted and queued.
    Submitted {
        /// The request id to poll/fetch.
        request: u64,
    },
    /// Answer to [`Frame::Poll`] and [`Frame::Wait`].
    Status {
        /// Where the request stands.
        status: RequestStatus,
    },
    /// A finished request's result: the final two time slices (`max(t1-1, 0)`
    /// then `t1`), densely packed row-major — exactly the slices the canonical
    /// traffic digest folds.
    Result {
        /// Element type of `payload`.
        elem: ElemType,
        /// The result horizon.
        t1: i64,
        /// Cells per slice.
        slice_len: u64,
        /// Two slices' raw bytes, `2 * slice_len * elem.size()` of them.
        payload: Vec<u8>,
    },
    /// Answer to [`Frame::Flush`].
    Flushed {
        /// Trace records written (total recorded so far).
        records: u64,
    },
    /// A typed error; for request-scoped errors the connection stays usable.
    Error {
        /// The typed code.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

const OP_HELLO: u8 = 0x01;
const OP_NEGOTIATE: u8 = 0x02;
const OP_SUBMIT: u8 = 0x03;
const OP_POLL: u8 = 0x04;
const OP_FETCH: u8 = 0x05;
const OP_CLOSE: u8 = 0x06;
const OP_FLUSH: u8 = 0x07;
const OP_WAIT: u8 = 0x08;
const OP_HELLO_ACK: u8 = 0x81;
const OP_SESSION_ACK: u8 = 0x82;
const OP_SUBMITTED: u8 = 0x83;
const OP_STATUS: u8 = 0x84;
const OP_RESULT: u8 = 0x85;
const OP_FLUSHED: u8 = 0x86;
const OP_ERROR: u8 = 0x8F;

/// Why a frame body failed to decode.  Every variant is a structured rejection:
/// decoding never panics and never allocates more than the bytes present.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The body ended before a fixed-size field or declared length.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes remaining in the body.
        have: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The declared body length.
        len: usize,
    },
    /// The first body byte is not a known opcode.
    UnknownOpcode(u8),
    /// A field decoded but its value is outside the protocol (bad tag, bad
    /// UTF-8, wrong geometry arity, …).
    BadPayload(String),
    /// The body has bytes past the end of the decoded frame.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            FrameError::Oversized { len } => {
                write!(
                    f,
                    "oversized frame: {len} bytes exceeds MAX_FRAME {MAX_FRAME}"
                )
            }
            FrameError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            FrameError::BadPayload(detail) => write!(f, "bad payload: {detail}"),
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the frame")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// The wire code a server replies with for this decode failure.
    pub fn code(&self) -> ErrorCode {
        match self {
            FrameError::Oversized { .. } => ErrorCode::Oversized,
            FrameError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
            _ => ErrorCode::BadFrame,
        }
    }
}

/// Bounds-checked little-endian reader over a frame body.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.rest.len() < n {
            return Err(FrameError::Truncated {
                needed: n,
                have: self.rest.len(),
            });
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, FrameError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32`-prefixed byte string; the length is validated against the bytes
    /// actually present before anything is allocated for it.
    fn bytes(&mut self) -> Result<&'a [u8], FrameError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> Result<String, FrameError> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| FrameError::BadPayload("invalid UTF-8".into()))
    }

    /// The bulk payload that ends a `Submit`/`Result`: its declared length is
    /// checked against the bytes present and the bytes are skipped, not
    /// copied — the caller lifts them out of `body` at the returned offset.
    fn payload(&mut self, body: &[u8]) -> Result<usize, FrameError> {
        let len = self.bytes()?.len();
        Ok(body.len() - self.rest.len() - len)
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn app_tag(app: TraceApp) -> u8 {
    match app {
        TraceApp::Heat2d => 0,
        TraceApp::Life => 1,
        TraceApp::Wave3d => 2,
        TraceApp::HeatGiant1d => 3,
    }
}

fn app_from_tag(tag: u8) -> Result<TraceApp, FrameError> {
    Ok(match tag {
        0 => TraceApp::Heat2d,
        1 => TraceApp::Life,
        2 => TraceApp::Wave3d,
        3 => TraceApp::HeatGiant1d,
        other => return Err(FrameError::BadPayload(format!("unknown app tag {other}"))),
    })
}

impl Frame {
    /// Encodes the frame body (opcode + payload, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let payload = self.encode_header(&mut out);
        out.extend_from_slice(payload);
        out
    }

    /// Appends the body up to and including the bulk payload's length field,
    /// and returns the payload bytes that complete it — empty except for
    /// `Submit`/`Result`, whose payload is always the last field.
    fn encode_header<'a>(&'a self, out: &mut Vec<u8>) -> &'a [u8] {
        match self {
            Frame::Hello { version } => {
                out.push(OP_HELLO);
                out.extend_from_slice(&version.to_le_bytes());
            }
            Frame::Negotiate {
                app,
                geometry,
                chunk,
            } => {
                out.push(OP_NEGOTIATE);
                out.push(app_tag(*app));
                out.push(geometry.len() as u8);
                for g in geometry {
                    out.extend_from_slice(&g.to_le_bytes());
                }
                out.extend_from_slice(&chunk.to_le_bytes());
            }
            Frame::Submit {
                session,
                tenant,
                t0,
                t1,
                weight,
                deadline,
                elem,
                grid,
            } => {
                out.push(OP_SUBMIT);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&t0.to_le_bytes());
                out.extend_from_slice(&t1.to_le_bytes());
                out.extend_from_slice(&weight.to_le_bytes());
                deadline.encode(out);
                out.push(elem.as_u8());
                out.extend_from_slice(&(grid.len() as u32).to_le_bytes());
                return grid;
            }
            Frame::Poll { request } => {
                out.push(OP_POLL);
                out.extend_from_slice(&request.to_le_bytes());
            }
            Frame::Fetch { request } => {
                out.push(OP_FETCH);
                out.extend_from_slice(&request.to_le_bytes());
            }
            Frame::Wait {
                request,
                timeout_micros,
            } => {
                out.push(OP_WAIT);
                out.extend_from_slice(&request.to_le_bytes());
                out.extend_from_slice(&timeout_micros.to_le_bytes());
            }
            Frame::Close => out.push(OP_CLOSE),
            Frame::Flush => out.push(OP_FLUSH),
            Frame::HelloAck { version } => {
                out.push(OP_HELLO_ACK);
                out.extend_from_slice(&version.to_le_bytes());
            }
            Frame::SessionAck { session, window } => {
                out.push(OP_SESSION_ACK);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&window.to_le_bytes());
            }
            Frame::Submitted { request } => {
                out.push(OP_SUBMITTED);
                out.extend_from_slice(&request.to_le_bytes());
            }
            Frame::Status { status } => {
                out.push(OP_STATUS);
                match status {
                    RequestStatus::Pending => out.push(0),
                    RequestStatus::Done => out.push(1),
                    RequestStatus::Failed { code, detail } => {
                        out.push(2);
                        out.push(code.as_u8());
                        put_bytes(out, detail.as_bytes());
                    }
                }
            }
            Frame::Result {
                elem,
                t1,
                slice_len,
                payload,
            } => {
                out.push(OP_RESULT);
                out.push(elem.as_u8());
                out.extend_from_slice(&t1.to_le_bytes());
                out.extend_from_slice(&slice_len.to_le_bytes());
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                return payload;
            }
            Frame::Flushed { records } => {
                out.push(OP_FLUSHED);
                out.extend_from_slice(&records.to_le_bytes());
            }
            Frame::Error { code, detail } => {
                out.push(OP_ERROR);
                out.push(code.as_u8());
                put_bytes(out, detail.as_bytes());
            }
        }
        &[]
    }

    /// Decodes a frame body (opcode + payload, no length prefix).  Never
    /// panics; every failure is a structured [`FrameError`], and the body must
    /// be consumed exactly (no trailing bytes).
    pub fn decode(body: &[u8]) -> Result<Frame, FrameError> {
        let (mut frame, at) = Frame::parse(body)?;
        if let Some(payload) = frame.payload_mut() {
            *payload = body[at..].to_vec();
        }
        Ok(frame)
    }

    /// [`Frame::decode`] for a body the caller is done with: a `Submit`/`Result`
    /// keeps `body`'s own allocation as its payload (the header bytes are
    /// drained off the front) instead of copying the tail out.
    pub fn decode_owned(mut body: Vec<u8>) -> Result<Frame, FrameError> {
        let (mut frame, at) = Frame::parse(&body)?;
        if let Some(payload) = frame.payload_mut() {
            body.drain(..at);
            *payload = body;
        }
        Ok(frame)
    }

    /// The bulk payload field of a `Submit`/`Result`.
    fn payload_mut(&mut self) -> Option<&mut Vec<u8>> {
        match self {
            Frame::Submit { grid, .. } => Some(grid),
            Frame::Result { payload, .. } => Some(payload),
            _ => None,
        }
    }

    /// Decodes every field but the bulk payload, which is validated (declared
    /// length against bytes present, exact consumption) and left empty; returns
    /// the frame and the payload's offset in `body`.
    fn parse(body: &[u8]) -> Result<(Frame, usize), FrameError> {
        if body.len() > MAX_FRAME {
            return Err(FrameError::Oversized { len: body.len() });
        }
        let mut r = Reader { rest: body };
        let mut payload_at = body.len();
        let op = r.u8()?;
        let frame = match op {
            OP_HELLO => Frame::Hello { version: r.u32()? },
            OP_NEGOTIATE => {
                let app = app_from_tag(r.u8()?)?;
                let dims = r.u8()? as usize;
                if dims != app.dims() {
                    return Err(FrameError::BadPayload(format!(
                        "app {} takes {} extents, frame declares {dims}",
                        app.as_str(),
                        app.dims()
                    )));
                }
                let mut geometry = Vec::with_capacity(dims);
                for _ in 0..dims {
                    geometry.push(r.u64()?);
                }
                Frame::Negotiate {
                    app,
                    geometry,
                    chunk: r.i64()?,
                }
            }
            OP_SUBMIT => Frame::Submit {
                session: r.u32()?,
                tenant: r.u32()?,
                t0: r.i64()?,
                t1: r.i64()?,
                weight: r.u32()?,
                deadline: Deadline::decode(&mut r)?,
                elem: ElemType::from_u8(r.u8()?)?,
                grid: {
                    payload_at = r.payload(body)?;
                    Vec::new()
                },
            },
            OP_POLL => Frame::Poll { request: r.u64()? },
            OP_FETCH => Frame::Fetch { request: r.u64()? },
            OP_WAIT => Frame::Wait {
                request: r.u64()?,
                timeout_micros: r.u64()?,
            },
            OP_CLOSE => Frame::Close,
            OP_FLUSH => Frame::Flush,
            OP_HELLO_ACK => Frame::HelloAck { version: r.u32()? },
            OP_SESSION_ACK => Frame::SessionAck {
                session: r.u32()?,
                window: r.i64()?,
            },
            OP_SUBMITTED => Frame::Submitted { request: r.u64()? },
            OP_STATUS => {
                let status = match r.u8()? {
                    0 => RequestStatus::Pending,
                    1 => RequestStatus::Done,
                    2 => RequestStatus::Failed {
                        code: ErrorCode::from_u8(r.u8()?)?,
                        detail: r.string()?,
                    },
                    other => {
                        return Err(FrameError::BadPayload(format!(
                            "unknown status tag {other}"
                        )))
                    }
                };
                Frame::Status { status }
            }
            OP_RESULT => Frame::Result {
                elem: ElemType::from_u8(r.u8()?)?,
                t1: r.i64()?,
                slice_len: r.u64()?,
                payload: {
                    payload_at = r.payload(body)?;
                    Vec::new()
                },
            },
            OP_FLUSHED => Frame::Flushed { records: r.u64()? },
            OP_ERROR => Frame::Error {
                code: ErrorCode::from_u8(r.u8()?)?,
                detail: r.string()?,
            },
            other => return Err(FrameError::UnknownOpcode(other)),
        };
        if !r.rest.is_empty() {
            return Err(FrameError::TrailingBytes {
                extra: r.rest.len(),
            });
        }
        Ok((frame, payload_at))
    }
}

/// Why reading the next frame off a stream failed.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection cleanly (EOF at a frame boundary).
    Eof,
    /// The socket failed mid-frame (including EOF inside a frame — a peer that
    /// vanished mid-submit).
    Io(io::Error),
    /// The body arrived but did not decode; the declared length was already
    /// consumed, so the stream stays framed and the connection can answer with
    /// a typed error.
    Frame(FrameError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Eof => write!(f, "connection closed"),
            ReadError::Io(e) => write!(f, "socket error: {e}"),
            ReadError::Frame(e) => write!(f, "frame error: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// Reads one length-prefixed frame.  Returns the decoded frame and the total
/// bytes consumed (prefix + body).  A length prefix over [`MAX_FRAME`] is
/// rejected **before** the body is read or any buffer is allocated — the
/// stream is then unframed and the connection must close.
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, u64), ReadError> {
    let mut prefix = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Err(ReadError::Eof),
            Ok(0) => {
                return Err(ReadError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside a frame length prefix",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(ReadError::Frame(FrameError::Oversized { len }));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(ReadError::Io)?;
    let frame = Frame::decode_owned(body).map_err(ReadError::Frame)?;
    Ok((frame, 4 + len as u64))
}

/// Writes one length-prefixed frame; returns the bytes written.  The prefix
/// and the header leave in one `write_all` — split, the second write would sit
/// behind the peer's delayed ACK — and a `Submit`/`Result` payload follows as
/// one more, straight from the frame.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<u64> {
    // Every fixed-size header fits; only an error/status detail string grows it.
    let mut head = Vec::with_capacity(64);
    head.extend_from_slice(&[0; 4]);
    let payload = frame.encode_header(&mut head);
    let body_len = head.len() - 4 + payload.len();
    debug_assert!(body_len <= MAX_FRAME, "outbound frame exceeds MAX_FRAME");
    head[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    w.write_all(&head)?;
    if !payload.is_empty() {
        w.write_all(payload)?;
    }
    w.flush()?;
    Ok(4 + body_len as u64)
}

/// The dense row-major wire bytes of time slices `slices` of `grid`, in that
/// order, converted row by row (alignment padding never leaves the array).
fn slices_to_bytes<T: WireElem, const D: usize>(
    grid: &pochoir_core::grid::PochoirArray<T, D>,
    slices: &[i64],
) -> Vec<u8> {
    let volume: usize = grid.sizes().iter().product();
    let row_bytes = grid.size(D - 1) * T::ELEM.size();
    let mut out = vec![0u8; slices.len() * volume * T::ELEM.size()];
    let rows = slices.iter().flat_map(|&t| grid.rows(t));
    for (row, bytes) in rows.zip(out.chunks_exact_mut(row_bytes)) {
        T::put_row(row, bytes);
    }
    out
}

/// Serializes every time slice of a grid as densely packed row-major bytes —
/// the `Submit` grid payload.
pub fn grid_to_bytes<T: WireElem, const D: usize>(
    grid: &pochoir_core::grid::PochoirArray<T, D>,
) -> Vec<u8> {
    let slices: Vec<i64> = (0..grid.time_slices() as i64).collect();
    slices_to_bytes(grid, &slices)
}

/// Rebuilds a grid from a `Submit` payload: `slices` dense row-major time
/// slices over `sizes`, boundary attached.  Returns a message (not a panic) if
/// the byte count is wrong.
pub fn grid_from_bytes<T: WireElem, const D: usize>(
    sizes: [usize; D],
    slices: usize,
    boundary: pochoir_core::boundary::Boundary<T, D>,
    bytes: &[u8],
) -> Result<pochoir_core::grid::PochoirArray<T, D>, String> {
    let volume: usize = sizes.iter().product();
    let expected = slices * volume * T::ELEM.size();
    if bytes.len() != expected {
        return Err(format!(
            "grid payload is {} bytes; {:?} × {slices} slices needs {expected}",
            bytes.len(),
            sizes
        ));
    }
    let mut a =
        pochoir_core::grid::PochoirArray::with_depth(sizes, slices.saturating_sub(1).max(1));
    a.register_boundary(boundary);
    let mut wire_rows = bytes.chunks_exact(sizes[D - 1] * T::ELEM.size());
    for t in 0..slices as i64 {
        for (row, bytes) in a.rows_mut(t).zip(wire_rows.by_ref()) {
            T::take_row(bytes, row);
        }
    }
    Ok(a)
}

/// Extracts the `Result` payload for a drained grid: the final two time slices
/// (`max(t1-1, 0)` then `t1`), densely packed — exactly what the canonical
/// traffic digest folds.
pub fn result_payload<T: WireElem, const D: usize>(
    grid: &pochoir_core::grid::PochoirArray<T, D>,
    t1: i64,
) -> Vec<u8> {
    slices_to_bytes(grid, &[(t1 - 1).max(0), t1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pochoir_core::boundary::Boundary;
    use pochoir_core::grid::PochoirArray;
    use pochoir_trace::Rng;

    /// Bit patterns a value-level comparison would blur: NaNs, -0.0, denormals.
    const ODD_F64: [u64; 4] = [0x7FF8_0000_0000_0001, 0x8000_0000_0000_0000, 1, u64::MAX];

    /// Fills every slice of a fresh array from `cell`, ships it through
    /// `grid_to_bytes` / `grid_from_bytes`, and compares both the bytes and the
    /// rebuilt cells against a per-cell encoding of `snapshot`.
    fn round_trip<T: WireElem + PartialEq + std::fmt::Debug, const D: usize>(
        sizes: [usize; D],
        depth: usize,
        boundary: Boundary<T, D>,
        mut cell: impl FnMut() -> T,
        bits: impl Fn(T) -> Vec<u8>,
    ) {
        let mut grid: PochoirArray<T, D> = PochoirArray::with_depth(sizes, depth);
        for t in 0..=depth as i64 {
            grid.fill_time_slice(t, |_| cell());
        }
        let by_cell = |g: &PochoirArray<T, D>, ts: &[i64]| -> Vec<u8> {
            ts.iter()
                .flat_map(|&t| g.snapshot(t))
                .flat_map(&bits)
                .collect()
        };
        let all: Vec<i64> = (0..=depth as i64).collect();

        let wire = grid_to_bytes(&grid);
        assert_eq!(
            wire,
            by_cell(&grid, &all),
            "{sizes:?}: dense snapshot order"
        );
        let rebuilt = grid_from_bytes::<T, D>(sizes, depth + 1, boundary.clone(), &wire)
            .expect("the byte count matches");
        assert_eq!(
            by_cell(&rebuilt, &all),
            wire,
            "{sizes:?}: bitwise round trip"
        );

        let t1 = depth as i64;
        assert_eq!(result_payload(&grid, t1), by_cell(&grid, &[t1 - 1, t1]));
        assert_eq!(result_payload(&grid, 0), by_cell(&grid, &[0, 0]));

        // One byte short or long is a message, not a panic or a partial grid.
        assert!(
            grid_from_bytes::<T, D>(sizes, depth + 1, boundary, &wire[1..]).is_err(),
            "{sizes:?}: short payload accepted"
        );
    }

    fn f64_case<const D: usize>(sizes: [usize; D], depth: usize, boundary: Boundary<f64, D>) {
        let mut rng = Rng::new(sizes.iter().sum::<usize>() as u64);
        let cell = move || match rng.below(8) {
            0 => f64::from_bits(ODD_F64[rng.below(4) as usize]),
            _ => f64::from_bits(rng.below(u64::MAX)),
        };
        round_trip(sizes, depth, boundary, cell, |v| {
            v.to_bits().to_le_bytes().to_vec()
        });
    }

    fn u8_case<const D: usize>(sizes: [usize; D], boundary: Boundary<u8, D>) {
        let mut rng = Rng::new(sizes.iter().product::<usize>() as u64);
        round_trip(
            sizes,
            1,
            boundary,
            move || rng.below(256) as u8,
            |v| vec![v],
        );
    }

    /// Row lengths on both sides of the 64-byte pad (8 `f64`s, 64 `u8`s), every
    /// served dimensionality, both served boundary kinds.
    #[test]
    fn grids_cross_the_wire_bitwise() {
        for n in [1, 5, 8, 13] {
            f64_case([n], 1, Boundary::Periodic);
            f64_case([3, n], 1, Boundary::Periodic);
            f64_case([2, 3, n], 2, Boundary::Constant(0.0));
            f64_case([3, n], 1, Boundary::Constant(-1.5));
        }
        for n in [1, 7, 64, 70] {
            u8_case([n], Boundary::Periodic);
            u8_case([4, n], Boundary::Periodic);
            u8_case([2, 3, n], Boundary::Constant(9));
        }
    }

    #[test]
    fn rebuilt_grid_keeps_its_boundary() {
        let grid: PochoirArray<f64, 2> = PochoirArray::new([3, 5]);
        let wire = grid_to_bytes(&grid);
        let a = grid_from_bytes::<f64, 2>([3, 5], 2, Boundary::Constant(7.0), &wire).unwrap();
        assert_eq!(a.get(0, [-1, 0]), 7.0);
        let mut b = grid_from_bytes::<f64, 2>([3, 5], 2, Boundary::Periodic, &wire).unwrap();
        b.set(0, [2, 4], 3.0);
        assert_eq!(b.get(0, [-1, -1]), 3.0);
    }
}
