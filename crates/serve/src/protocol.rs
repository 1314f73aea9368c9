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
//! A grid is streamed, never staged: no hop holds a payload-sized buffer it
//! does not need.  On the way out the length prefix and every fixed field leave
//! in one write, and the bulk payload of a `Submit`/`Result` follows in writes
//! of at most [`STREAM_CHUNK`] bytes — [`write_grid_frame`] converts it
//! straight from the grid's rows through one bounded buffer, [`write_frame`]
//! slices a payload that already is bytes.  On the way in, [`read_frame_head`]
//! reads and validates everything up to the payload and leaves the payload on
//! the stream: the server decodes it straight into the rows of the array it
//! submits ([`read_grid`]), or drains it ([`skip_payload`]) when it refuses the
//! header, and [`read_frame`] — the client's `Result` — reads it into one
//! exactly sized `Vec`.
//!
//! The codec is hardened the way a network parser must be: [`Frame::decode`]
//! never panics, every length field is validated against the body length
//! **before** any allocation happens (a frame claiming a 4 GiB string inside a
//! 20-byte body is rejected without allocating 4 GiB), and frames larger than
//! [`MAX_FRAME`] are refused at the length prefix, before the body is read.
//! `decode ∘ encode = id`, streamed ≡ buffered decode and row-written ≡
//! byte-written frames are pinned by property tests
//! (`tests/protocol_properties.rs`).
//!
//! See `docs/protocol.md` for the full frame catalogue and the session/request
//! state machine.

use std::io::{self, Read, Write};

use pochoir_core::grid::PochoirArray;
use pochoir_trace::TraceApp;

/// Protocol version spoken by this crate; negotiated by `Hello`/`HelloAck`.
pub const PROTOCOL_VERSION: u32 = 2;

/// Largest legal frame body in bytes (64 MiB) — enough for every grid the
/// serve presets compile (the giant 1D corpus grid is ~9.6 MiB of slices),
/// small enough that a hostile length prefix cannot balloon the process.
pub const MAX_FRAME: usize = 64 << 20;

/// Largest `Submit` grid payload a frame can carry: [`MAX_FRAME`] less the
/// fixed fields in front of it.
pub(crate) const MAX_SUBMIT_PAYLOAD: usize = MAX_FRAME - SUBMIT_HEAD;

/// Largest single write — and the read-side scratch buffer — of a bulk payload
/// (256 KiB): a grid crosses each hop through one buffer of at most this size.
pub const STREAM_CHUNK: usize = 256 << 10;

/// Capacity of the `BufReader` in front of every connection's read half, so the
/// split reads of [`read_frame_head`] cost a small frame no extra syscall.
pub(crate) const READ_BUFFER: usize = 8 << 10;

/// Body bytes of a `Submit` up to its payload: opcode, session, tenant, `t0`,
/// `t1`, weight, deadline kind and value, elem, payload length.
const SUBMIT_HEAD: usize = 1 + 4 + 4 + 8 + 8 + 4 + 1 + 8 + 1 + 4;

/// Body bytes of a `Result` up to its payload: opcode, elem, `t1`, `slice_len`,
/// payload length.
const RESULT_HEAD: usize = 1 + 1 + 8 + 8 + 4;

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

/// Bounds-checked little-endian reader over a frame body, or over its head when
/// the bulk payload is still on the stream.
struct Reader<'a> {
    rest: &'a [u8],
    /// Body bytes past the end of `rest` — the payload left on the stream.
    missing: usize,
}

impl<'a> Reader<'a> {
    /// Body bytes not yet consumed, present or not.
    fn left(&self) -> usize {
        self.rest.len() + self.missing
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.rest.len() < n {
            return Err(FrameError::Truncated {
                needed: n,
                have: self.left(),
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
    /// checked against the body length and the bytes are skipped, whether
    /// present or still on the stream; returns the length.
    fn payload(&mut self) -> Result<usize, FrameError> {
        let len = self.u32()? as usize;
        if len > self.left() {
            return Err(FrameError::Truncated {
                needed: len,
                have: self.left(),
            });
        }
        let present = len.min(self.rest.len());
        self.rest = &self.rest[present..];
        self.missing -= len - present;
        Ok(len)
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
        let payload = self.payload();
        let mut out = Vec::new();
        self.encode_head(&mut out, payload.len());
        out.extend_from_slice(payload);
        out
    }

    /// The bulk payload of a `Submit`/`Result` — always the body's last field —
    /// and empty for every other frame.
    fn payload(&self) -> &[u8] {
        match self {
            Frame::Submit { grid, .. } => grid,
            Frame::Result { payload, .. } => payload,
            _ => &[],
        }
    }

    /// Appends the body up to and including the bulk payload's length field,
    /// which declares `payload_len` bytes (frames without a payload ignore it):
    /// the one header encoder behind [`encode`](Self::encode), [`write_frame`]
    /// and [`write_grid_frame`].
    fn encode_head(&self, out: &mut Vec<u8>, payload_len: usize) {
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
                grid: _,
            } => {
                out.push(OP_SUBMIT);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&t0.to_le_bytes());
                out.extend_from_slice(&t1.to_le_bytes());
                out.extend_from_slice(&weight.to_le_bytes());
                deadline.encode(out);
                out.push(elem.as_u8());
                out.extend_from_slice(&(payload_len as u32).to_le_bytes());
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
                payload: _,
            } => {
                out.push(OP_RESULT);
                out.push(elem.as_u8());
                out.extend_from_slice(&t1.to_le_bytes());
                out.extend_from_slice(&slice_len.to_le_bytes());
                out.extend_from_slice(&(payload_len as u32).to_le_bytes());
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
    }

    /// Decodes a frame body (opcode + payload, no length prefix).  Never
    /// panics; every failure is a structured [`FrameError`], and the body must
    /// be consumed exactly (no trailing bytes).
    pub fn decode(body: &[u8]) -> Result<Frame, FrameError> {
        let (mut frame, len) = Frame::parse(body, body.len())?;
        if let Some(payload) = frame.payload_mut() {
            *payload = body[body.len() - len..].to_vec();
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

    /// Decodes every field of a `body_len`-byte body from `head`, a prefix of
    /// the body, except the bulk payload: that is validated (declared length
    /// against the body length, exact consumption) and left empty, whether its
    /// bytes are in `head` or still on the stream.  Returns the frame and the
    /// payload length; the payload is the last `len` bytes of the body.
    fn parse(head: &[u8], body_len: usize) -> Result<(Frame, usize), FrameError> {
        if body_len > MAX_FRAME {
            return Err(FrameError::Oversized { len: body_len });
        }
        let mut r = Reader {
            rest: head,
            missing: body_len - head.len(),
        };
        let mut payload = 0;
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
                    payload = r.payload()?;
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
                    payload = r.payload()?;
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
        if r.left() > 0 {
            return Err(FrameError::TrailingBytes { extra: r.left() });
        }
        Ok((frame, payload))
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
    /// The body arrived but did not decode; the whole declared body was
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

/// A frame read up to its bulk payload by [`read_frame_head`].
#[derive(Debug)]
pub struct FrameHead {
    /// The decoded frame; a `Submit`/`Result` carries an empty payload field.
    pub frame: Frame,
    /// Payload bytes still on the stream — the declared length, already
    /// checked against the body length (0 for a frame without a payload).  The
    /// caller reads them ([`read_grid`]) or drains them ([`skip_payload`])
    /// before the next frame.
    pub payload: usize,
    /// The whole frame's size on the wire, prefix and body.
    pub bytes: u64,
}

/// Reads one length-prefixed frame up to its bulk payload and decodes it with
/// the parser behind [`Frame::decode`]: the opcode first, then for a
/// `Submit`/`Result` only the fixed header — the payload stays on the stream —
/// and for any other frame the rest of the body.  A length prefix over
/// [`MAX_FRAME`] is rejected **before** anything more is read or allocated; the
/// stream is then unframed and the connection must close.  Any other decode
/// failure first consumes the rest of the body, so the stream stays framed.
pub fn read_frame_head(r: &mut impl Read) -> Result<FrameHead, ReadError> {
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
    let mut head = Vec::with_capacity(len.min(SUBMIT_HEAD));
    read_body(r, len.min(1), &mut head)?;
    let head_len = match head.first() {
        Some(&OP_SUBMIT) => SUBMIT_HEAD.min(len),
        Some(&OP_RESULT) => RESULT_HEAD.min(len),
        _ => len,
    };
    read_body(r, head_len - head.len(), &mut head)?;
    match Frame::parse(&head, len) {
        Ok((frame, payload)) => Ok(FrameHead {
            frame,
            payload,
            bytes: 4 + len as u64,
        }),
        Err(e) => {
            skip_payload(r, len - head.len()).map_err(ReadError::Io)?;
            Err(ReadError::Frame(e))
        }
    }
}

/// Reads one length-prefixed frame whole: [`read_frame_head`], then the bulk
/// payload (if any) into one `Vec` reserved to its exact length — no zero-fill,
/// no copy.  Returns the frame and its size on the wire.
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, u64), ReadError> {
    let FrameHead {
        mut frame,
        payload,
        bytes,
    } = read_frame_head(r)?;
    if let Some(buf) = frame.payload_mut() {
        read_body(r, payload, buf)?;
    }
    Ok((frame, bytes))
}

/// Appends exactly `n` more bytes of `r` to `buf`, reserved up front and never
/// zero-filled; EOF first is a transport error.
fn read_body(r: &mut impl Read, n: usize, buf: &mut Vec<u8>) -> Result<(), ReadError> {
    buf.reserve_exact(n);
    let got = r
        .by_ref()
        .take(n as u64)
        .read_to_end(buf)
        .map_err(ReadError::Io)?;
    if got < n {
        return Err(ReadError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "eof inside a frame body",
        )));
    }
    Ok(())
}

/// Reads and discards the `n` payload bytes of a refused frame, so the next
/// read starts at the next frame.
pub fn skip_payload(r: &mut impl Read, n: usize) -> io::Result<()> {
    let skipped = io::copy(&mut r.by_ref().take(n as u64), &mut io::sink())?;
    if skipped < n as u64 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "eof inside a frame payload",
        ));
    }
    Ok(())
}

/// Fills every time slice of `grid`, slice 0 first, from the dense row-major
/// payload on `r`: `time_slices × cells × size` bytes, which the caller has
/// matched against the frame's declared payload length.  The bytes pass
/// through one scratch buffer of at most [`STREAM_CHUNK`] bytes straight into
/// the rows (alignment padding is never touched); a row longer than the buffer
/// fills in pieces.
pub fn read_grid<T: WireElem, const D: usize>(
    r: &mut impl Read,
    grid: &mut PochoirArray<T, D>,
) -> io::Result<()> {
    let size = T::ELEM.size();
    let slice_bytes = grid.sizes().iter().product::<usize>() * size;
    let mut buf = vec![0u8; slice_bytes.min(STREAM_CHUNK)];
    for t in 0..grid.time_slices() as i64 {
        let mut left = slice_bytes; // this slice's bytes still on the stream
        let (mut at, mut end) = (0, 0); // decoded and filled extent of `buf`
        for mut row in grid.rows_mut(t) {
            while !row.is_empty() {
                if at == end {
                    end = left.min(buf.len());
                    r.read_exact(&mut buf[..end])?;
                    left -= end;
                    at = 0;
                }
                let n = row.len().min((end - at) / size);
                let (part, rest) = std::mem::take(&mut row).split_at_mut(n);
                T::take_row(&buf[at..at + n * size], part);
                at += n * size;
                row = rest;
            }
        }
    }
    Ok(())
}

/// Writes the length prefix and header of `frame` for a `payload_len`-byte
/// payload in one `write_all` — split, the second write would sit behind the
/// peer's delayed ACK.  Returns the whole frame's size on the wire.
fn write_head(w: &mut impl Write, frame: &Frame, payload_len: usize) -> io::Result<u64> {
    // Every fixed-size header fits; only an error/status detail string grows it.
    let mut head = Vec::with_capacity(64);
    head.extend_from_slice(&[0; 4]);
    frame.encode_head(&mut head, payload_len);
    let body_len = head.len() - 4 + payload_len;
    debug_assert!(body_len <= MAX_FRAME, "outbound frame exceeds MAX_FRAME");
    head[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    w.write_all(&head)?;
    Ok(4 + body_len as u64)
}

/// Writes one length-prefixed frame: prefix and header in one write, then a
/// `Submit`/`Result` payload in writes of at most [`STREAM_CHUNK`] bytes.
/// Returns the bytes written.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<u64> {
    let payload = frame.payload();
    let bytes = write_head(w, frame, payload.len())?;
    for chunk in payload.chunks(STREAM_CHUNK) {
        w.write_all(chunk)?;
    }
    w.flush()?;
    Ok(bytes)
}

/// Writes a `Submit` or `Result` whose payload is time slices `slices` of
/// `grid`, dense row-major in that order, converted straight from the rows
/// through one buffer of at most [`STREAM_CHUNK`] bytes: write for write what
/// [`write_frame`] sends for the same frame carrying those bytes.  `frame`'s
/// own payload field is ignored.  Returns the bytes written.
///
/// # Panics
///
/// If `frame` is neither a `Submit` nor a `Result`.
pub fn write_grid_frame<T: WireElem, const D: usize>(
    w: &mut impl Write,
    frame: &Frame,
    grid: &PochoirArray<T, D>,
    slices: &[i64],
) -> io::Result<u64> {
    assert!(
        matches!(frame, Frame::Submit { .. } | Frame::Result { .. }),
        "only a Submit or a Result carries a grid"
    );
    let size = T::ELEM.size();
    let len = slices.len() * grid.sizes().iter().product::<usize>() * size;
    let bytes = write_head(w, frame, len)?;
    let mut buf = vec![0u8; len.min(STREAM_CHUNK)];
    let mut fill = 0;
    for mut row in slices.iter().flat_map(|&t| grid.rows(t)) {
        while !row.is_empty() {
            let n = row.len().min((buf.len() - fill) / size);
            T::put_row(&row[..n], &mut buf[fill..fill + n * size]);
            fill += n * size;
            row = &row[n..];
            if fill == buf.len() {
                w.write_all(&buf)?;
                fill = 0;
            }
        }
    }
    w.write_all(&buf[..fill])?;
    w.flush()?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The head `read_frame_head` reads for a bulk frame is exactly what the
    /// encoder writes before the payload.
    #[test]
    fn bulk_head_lengths_match_the_encoder() {
        let submit = Frame::Submit {
            session: 1,
            tenant: 2,
            t0: 3,
            t1: 4,
            weight: 5,
            deadline: Deadline::WallMicros(6),
            elem: ElemType::U8,
            grid: Vec::new(),
        };
        let result = Frame::Result {
            elem: ElemType::F64,
            t1: 7,
            slice_len: 8,
            payload: Vec::new(),
        };
        assert_eq!(submit.encode().len(), SUBMIT_HEAD);
        assert_eq!(result.encode().len(), RESULT_HEAD);
    }
}
