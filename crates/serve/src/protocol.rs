//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame on the wire is a little-endian `u32` **body length** followed by
//! the body; the body is a one-byte opcode followed by an opcode-specific
//! payload.  All integers are little-endian; strings are a `u32` length plus
//! UTF-8 bytes; grids travel as densely packed row-major time slices (exactly
//! [`PochoirArray::snapshot`](pochoir_core::grid::PochoirArray::snapshot)
//! order), so the slices rebuilt from the wire are bitwise-identical to the
//! ones serialized.
//!
//! A grid is streamed, never staged: no hop holds a payload-sized buffer it
//! does not need, and a grid's bytes move as bytes — [`WireElem`]s are
//! [`ByteElem`]s, whose storage is their wire encoding.  On the way out a frame
//! of at most [`STREAM_CHUNK`] bytes leaves in one write; a larger one sends
//! the length prefix and every fixed field in one write, and the bulk payload
//! of its `Submit`/`Result` follows in writes of exactly [`STREAM_CHUNK`] bytes
//! (the last one shorter).  A write goes straight from grid storage wherever a
//! whole chunk lies in one span — a time slice without row padding is one span
//! — and [`write_grid_frame`] gathers the rest (padded rows, chunks that straddle
//! two spans) through one buffer of at most [`STREAM_CHUNK`] bytes;
//! [`write_frame`] sends a payload that already is bytes the same way.  On the
//! way in, [`read_frame_head`] reads and validates everything up to the payload
//! and leaves the payload on the stream: the server reads it straight into the
//! storage of the array it submits ([`read_grid`]: one read per dense slice, one
//! per row of a padded one), or drains it ([`skip_payload`]) when it refuses the
//! header, and [`read_frame`] — the client's `Result` — reads it into one
//! exactly sized `Vec`.
//!
//! A `Submit` carries only the time slices its run reads ([`submit_slices`]):
//! the `depth` newest, ending at `t0`.  Step `t0` overwrites the oldest slot of
//! the array without reading it.
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
//! See `docs/protocol.md` for the full frame catalogue and the conversation a
//! client drives.

use std::io::{self, Read, Write};

use pochoir_core::grid::{as_bytes, as_bytes_mut, ByteElem, PochoirArray};
use pochoir_trace::TraceApp;

/// Protocol version spoken by this crate; negotiated by `Hello`/`HelloAck`.
pub const PROTOCOL_VERSION: u32 = 5;

/// Largest legal frame body in bytes (64 MiB) — enough for every grid the
/// serve presets compile (the giant 1D corpus grid is ~9.6 MiB of slices),
/// small enough that a hostile length prefix cannot balloon the process.
pub const MAX_FRAME: usize = 64 << 20;

/// Largest `Submit` grid payload a frame can carry: [`MAX_FRAME`] less the
/// fixed fields in front of it.
pub(crate) const MAX_SUBMIT_PAYLOAD: usize = MAX_FRAME - SUBMIT_HEAD;

/// Largest single write — and the read-side scratch buffer — of a bulk payload
/// (256 KiB): a grid crosses each hop through one buffer of at most this size,
/// and a whole frame up to this size leaves in one write.
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

/// Grid element types that can cross the wire: their storage bytes are their
/// wire bytes.
pub trait WireElem: ByteElem + Default + Send + Sync {
    /// This element's wire tag.
    const ELEM: ElemType;
}

impl WireElem for f64 {
    const ELEM: ElemType = ElemType::F64;
}

impl WireElem for u8 {
    const ELEM: ElemType = ElemType::U8;
}

/// The time slices a `Submit` from `t0` carries for a depth-`depth` run, oldest
/// first: `t0 - depth + 1 ..= t0`, the only slices its steps read.  Always
/// `depth` of them (times wrap at the ends of `i64`; the array wraps them again).
pub fn submit_slices(t0: i64, depth: usize) -> Vec<i64> {
    (0..depth as i64)
        .rev()
        .map(|back| t0.wrapping_sub(back))
        .collect()
}

/// A submission's deadline, as requested on the wire: none (kind 0) or a
/// logical drain tick (kind 1); any other kind fails to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deadline {
    /// No deadline: scheduled behind all deadline work, weighted-stride order.
    None,
    /// Logical deadline in drain ticks (the serving layer's native unit).
    Logical(u64),
}

impl Deadline {
    fn encode(self, out: &mut Vec<u8>) {
        let (kind, value) = match self {
            Deadline::None => (0u8, 0u64),
            Deadline::Logical(t) => (1, t),
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
            other => Err(FrameError::BadPayload(format!(
                "unknown deadline kind {other}"
            ))),
        }
    }
}

/// How a submitted request ended.  `pochoir-serve` sends only `Failed`, as the
/// reply to a `Submit` whose ticket failed inside its drain; the client reports
/// `Done` for a request whose `Result` it holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestStatus {
    /// Finished; the client holds its result until it is fetched.
    Done,
    /// The request failed; fetching it returns this same error.
    Failed {
        /// The typed wire error.
        code: ErrorCode,
        /// Human-readable detail (the underlying `ServeError`'s message).
        detail: String,
    },
}

/// Typed error codes carried by [`Frame::Error`] and [`RequestStatus::Failed`].
///
/// Codes 1–4 and 6 mirror [`ServeError`](pochoir_core::engine::ServeError)
/// variant for variant; codes 5 and 22 are retired (no server sends them);
/// codes 16+ are protocol-level failures that have no in-process counterpart.
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
    /// The request id is unknown.  The server keeps no requests, so it answers
    /// every `Poll` with this code.
    UnknownRequest = 20,
    /// The client's `Hello` version differs from [`PROTOCOL_VERSION`].
    VersionMismatch = 21,
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
            6 => ErrorCode::RegistryPoisoned,
            16 => ErrorCode::BadFrame,
            17 => ErrorCode::UnknownOpcode,
            18 => ErrorCode::Oversized,
            19 => ErrorCode::UnknownSession,
            20 => ErrorCode::UnknownRequest,
            21 => ErrorCode::VersionMismatch,
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
    /// Answered, once the request has run, by its [`Frame::Result`], by a
    /// [`Frame::Status`] carrying its typed failure, or — for a refused header
    /// — by a typed [`Frame::Error`].
    Submit {
        /// The negotiated session id.
        session: u32,
        /// Tenant id (recorded in trace records; also the client's identity for
        /// the deterministic tenant-grid convention).
        tenant: u32,
        /// First time step.
        t0: i64,
        /// Last time step (exclusive of further stepping; the result horizon).
        /// Must exceed `t0`: a zero-step `Submit` is refused.
        t1: i64,
        /// Weighted-stride share (clamped to ≥ 1 server-side).
        weight: u32,
        /// Deadline request.
        deadline: Deadline,
        /// Element type of `grid`; must match the session app's element type.
        elem: ElemType,
        /// The [`submit_slices`] of the input array — the `depth` slices ending
        /// at `t0`, oldest first — each densely packed row-major.
        grid: Vec<u8>,
    },
    /// Ask where a request stands.  The server keeps no requests — a `Submit`
    /// is answered by its outcome — so `pochoir-serve` answers every `Poll`
    /// with an `UnknownRequest` error, and the connection stays usable.
    Poll {
        /// The request id.
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
    /// A request's state: the answer to a `Submit` whose ticket failed.
    Status {
        /// Where the request stands.
        status: RequestStatus,
    },
    /// A finished request's result, the answer to its `Submit`: the final two
    /// time slices (`max(t1-1, 0)`
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
const OP_CLOSE: u8 = 0x06;
const OP_FLUSH: u8 = 0x07;
const OP_HELLO_ACK: u8 = 0x81;
const OP_SESSION_ACK: u8 = 0x82;
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
            Frame::Status { status } => {
                out.push(OP_STATUS);
                match status {
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
            OP_CLOSE => Frame::Close,
            OP_FLUSH => Frame::Flush,
            OP_HELLO_ACK => Frame::HelloAck { version: r.u32()? },
            OP_SESSION_ACK => Frame::SessionAck {
                session: r.u32()?,
                window: r.i64()?,
            },
            OP_STATUS => {
                let status = match r.u8()? {
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

/// Fills time slices `slices` of `grid`, in that order, from the dense
/// row-major payload on `r`: `slices.len() × cells × size` bytes, which the
/// caller has matched against the frame's declared payload length.  The bytes
/// go straight into grid storage — one read per slice without row padding,
/// one per row of a padded slice, whose padding is never touched.
pub fn read_grid<T: WireElem, const D: usize>(
    r: &mut impl Read,
    grid: &mut PochoirArray<T, D>,
    slices: &[i64],
) -> io::Result<()> {
    for &t in slices {
        match grid.slice_bytes_mut(t) {
            Some(bytes) => r.read_exact(bytes)?,
            None => {
                for row in grid.rows_mut(t) {
                    r.read_exact(as_bytes_mut(row))?;
                }
            }
        }
    }
    Ok(())
}

/// The length prefix and header of `frame` for a `payload_len`-byte payload.
fn frame_head(frame: &Frame, payload_len: usize) -> Vec<u8> {
    // Every fixed-size header fits; only an error/status detail string grows it.
    let mut head = Vec::with_capacity(64);
    head.extend_from_slice(&[0; 4]);
    frame.encode_head(&mut head, payload_len);
    let body_len = head.len() - 4 + payload_len;
    debug_assert!(body_len <= MAX_FRAME, "outbound frame exceeds MAX_FRAME");
    head[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    head
}

/// The writes of one frame's bytes, put in order: each leaves once `chunk`
/// bytes have gathered — straight from the caller's span when a whole one lies
/// there, else through `buf` — and the rest at [`Chunks::finish`].
struct Chunks<'w, W: Write> {
    w: &'w mut W,
    buf: Vec<u8>,
    chunk: usize,
}

impl<W: Write> Chunks<'_, W> {
    fn put(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            if self.buf.is_empty() && bytes.len() >= self.chunk {
                let (chunk, rest) = bytes.split_at(self.chunk);
                self.w.write_all(chunk)?;
                bytes = rest;
                continue;
            }
            if self.buf.capacity() == 0 {
                self.buf.reserve_exact(self.chunk);
            }
            let n = bytes.len().min(self.chunk - self.buf.len());
            self.buf.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            if self.buf.len() == self.chunk {
                self.w.write_all(&self.buf)?;
                self.buf.clear();
            }
        }
        Ok(())
    }

    fn finish(self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.w.write_all(&self.buf)?;
        }
        self.w.flush()
    }
}

/// Writes one length-prefixed frame whose `payload_len`-byte payload `payload`
/// puts: in one write if the frame fits in [`STREAM_CHUNK`] bytes — split, the
/// second write would sit behind the peer's delayed ACK — else prefix and
/// header in one write, then the payload in writes of [`STREAM_CHUNK`] bytes.
/// `announce` learns the frame's length in bytes before the first of them is
/// written.  Returns the bytes written.
fn write_bulk<W: Write>(
    w: &mut W,
    frame: &Frame,
    payload_len: usize,
    announce: impl FnOnce(u64),
    payload: impl FnOnce(&mut Chunks<'_, W>) -> io::Result<()>,
) -> io::Result<u64> {
    let mut head = frame_head(frame, payload_len);
    let bytes = head.len() + payload_len;
    announce(bytes as u64);
    let mut out = if bytes <= STREAM_CHUNK {
        head.reserve_exact(payload_len);
        Chunks {
            w,
            buf: head,
            chunk: bytes,
        }
    } else {
        w.write_all(&head)?;
        Chunks {
            w,
            buf: Vec::new(),
            chunk: STREAM_CHUNK,
        }
    };
    payload(&mut out)?;
    out.finish()?;
    Ok(bytes as u64)
}

/// Writes one length-prefixed frame: in one write if it fits in
/// [`STREAM_CHUNK`] bytes, else prefix and header in one write, then the
/// `Submit`/`Result` payload in writes of at most [`STREAM_CHUNK`] bytes.
/// Returns the bytes written.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<u64> {
    write_frame_announced(w, frame, |_| {})
}

/// [`write_frame`], telling `announce` the frame's length in bytes before the
/// first of them is written: a reply counted there is counted before its
/// reader can have it.
pub(crate) fn write_frame_announced(
    w: &mut impl Write,
    frame: &Frame,
    announce: impl FnOnce(u64),
) -> io::Result<u64> {
    let payload = frame.payload();
    write_bulk(w, frame, payload.len(), announce, |out| out.put(payload))
}

/// Writes a `Submit` or `Result` whose payload is time slices `slices` of
/// `grid`, dense row-major in that order, straight from grid storage: write
/// for write what [`write_frame`] sends for the same frame carrying those
/// bytes.  `frame`'s own payload field is ignored.  Returns the bytes written.
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
    write_grid_frame_announced(w, frame, grid, slices, |_| {})
}

/// [`write_grid_frame`], telling `announce` the frame's length in bytes before
/// the first of them is written (see [`write_frame_announced`]).
pub(crate) fn write_grid_frame_announced<T: WireElem, const D: usize>(
    w: &mut impl Write,
    frame: &Frame,
    grid: &PochoirArray<T, D>,
    slices: &[i64],
    announce: impl FnOnce(u64),
) -> io::Result<u64> {
    assert!(
        matches!(frame, Frame::Submit { .. } | Frame::Result { .. }),
        "only a Submit or a Result carries a grid"
    );
    let len = slices.len() * grid.sizes().iter().product::<usize>() * T::ELEM.size();
    write_bulk(w, frame, len, announce, |out| {
        for &t in slices {
            match grid.slice_bytes(t) {
                Some(bytes) => out.put(bytes)?,
                None => {
                    for row in grid.rows(t) {
                        out.put(as_bytes(row))?;
                    }
                }
            }
        }
        Ok(())
    })
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
            deadline: Deadline::Logical(6),
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
