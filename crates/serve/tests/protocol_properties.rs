//! Property-pins the wire codec: `decode ∘ encode` is the identity over
//! arbitrary frames, and malformed inputs — truncations, oversized length
//! prefixes, garbage bytes — are rejected with structured errors (no panic,
//! no allocation beyond the bytes present).  The owning decode `read_frame`
//! uses and the two-write form `write_frame` emits are pinned against the plain
//! `decode`/`encode` pair on the same frames.

use std::io::{self, Write};

use pochoir_serve::protocol::{
    read_frame, write_frame, Deadline, ElemType, ErrorCode, Frame, FrameError, ReadError,
    RequestStatus, MAX_FRAME,
};
use pochoir_trace::{Rng, TraceApp, TRACE_APPS};
use proptest::prelude::*;

/// Detail-string alphabet crossing ASCII, escapes, and multi-byte UTF-8.
const DETAIL_CHARS: [char; 10] = ['a', 'Z', '0', ' ', '_', '"', '\\', '\n', 'é', '🜁'];

const ERROR_CODES: [ErrorCode; 14] = [
    ErrorCode::InvalidGeometry,
    ErrorCode::CompileFailed,
    ErrorCode::TenantPanicked,
    ErrorCode::Shed,
    ErrorCode::DeadlineUnmeetable,
    ErrorCode::RegistryPoisoned,
    ErrorCode::BadFrame,
    ErrorCode::UnknownOpcode,
    ErrorCode::Oversized,
    ErrorCode::UnknownSession,
    ErrorCode::UnknownRequest,
    ErrorCode::VersionMismatch,
    ErrorCode::NotReady,
    ErrorCode::BadPayload,
];

fn arb_string(rng: &mut Rng, max_len: u64) -> String {
    (0..rng.below(max_len))
        .map(|_| DETAIL_CHARS[rng.below(DETAIL_CHARS.len() as u64) as usize])
        .collect()
}

fn arb_deadline(rng: &mut Rng) -> Deadline {
    match rng.below(3) {
        0 => Deadline::None,
        1 => Deadline::Logical(rng.below(1 << 40)),
        _ => Deadline::WallMicros(rng.below(1 << 40)),
    }
}

fn arb_status(rng: &mut Rng) -> RequestStatus {
    match rng.below(3) {
        0 => RequestStatus::Pending,
        1 => RequestStatus::Done,
        _ => RequestStatus::Failed {
            code: ERROR_CODES[rng.below(ERROR_CODES.len() as u64) as usize],
            detail: arb_string(rng, 24),
        },
    }
}

/// Expands one proptest-drawn seed into an arbitrary valid frame (the vendored
/// proptest has no recursive/collection strategies; a seeded expansion covers
/// the same space reproducibly).
fn arb_frame(seed: u64) -> Frame {
    let mut rng = Rng::new(seed ^ 0x0DDC_0FFE_E5E5_AA55);
    match rng.below(15) {
        0 => Frame::Hello {
            version: rng.below(1 << 32) as u32,
        },
        1 => {
            let app = TRACE_APPS[rng.below(TRACE_APPS.len() as u64) as usize];
            Frame::Negotiate {
                app,
                geometry: (0..app.dims()).map(|_| rng.below(1 << 40)).collect(),
                chunk: rng.below(1 << 16) as i64,
            }
        }
        2 => {
            let elem = if rng.below(2) == 0 {
                ElemType::F64
            } else {
                ElemType::U8
            };
            Frame::Submit {
                session: rng.below(1 << 16) as u32,
                tenant: rng.below(1 << 20) as u32,
                t0: rng.below(1 << 10) as i64 - 16,
                t1: rng.below(1 << 10) as i64,
                weight: rng.below(1 << 8) as u32,
                deadline: arb_deadline(&mut rng),
                elem,
                grid: (0..rng.below(256)).map(|_| rng.below(256) as u8).collect(),
            }
        }
        3 => Frame::Poll {
            request: rng.below(1 << 48),
        },
        4 => Frame::Fetch {
            request: rng.below(1 << 48),
        },
        5 => Frame::Close,
        6 => Frame::Flush,
        7 => Frame::HelloAck {
            version: rng.below(1 << 32) as u32,
        },
        8 => Frame::SessionAck {
            session: rng.below(1 << 16) as u32,
            window: rng.below(1 << 16) as i64,
        },
        9 => Frame::Submitted {
            request: rng.below(1 << 48),
        },
        10 => Frame::Status {
            status: arb_status(&mut rng),
        },
        11 => Frame::Result {
            elem: ElemType::F64,
            t1: rng.below(1 << 16) as i64,
            slice_len: rng.below(1 << 20),
            payload: (0..rng.below(256)).map(|_| rng.below(256) as u8).collect(),
        },
        12 => Frame::Flushed {
            records: rng.below(1 << 32),
        },
        13 => Frame::Wait {
            request: rng.below(1 << 48),
            timeout_micros: rng.below(1 << 40),
        },
        _ => Frame::Error {
            code: ERROR_CODES[rng.below(ERROR_CODES.len() as u64) as usize],
            detail: arb_string(&mut rng, 48),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The round trip every connection relies on: decoding an encoded frame
    /// reproduces the value exactly.
    #[test]
    fn decode_encode_is_identity(seed in 0u64..u64::MAX) {
        let frame = arb_frame(seed);
        let decoded = Frame::decode(&frame.encode());
        prop_assert_eq!(decoded.as_ref(), Ok(&frame));
    }

    /// The decode `read_frame` uses — the body `Vec` becomes the payload in
    /// place — agrees with the borrowing decode on every frame, and on every
    /// rejection (truncations included).
    #[test]
    fn owning_decode_matches_borrowing_decode(seed in 0u64..u64::MAX, cut in 0usize..4096) {
        let frame = arb_frame(seed);
        let body = frame.encode();
        prop_assert_eq!(Frame::decode_owned(body.clone()), Ok(frame));
        let cut = cut % (body.len() + 1);
        prop_assert_eq!(Frame::decode_owned(body[..cut].to_vec()), Frame::decode(&body[..cut]));
    }

    /// What `write_frame` puts on a socket — prefix and header in one write,
    /// a bulk payload in a second — is byte-for-byte the single-buffer form,
    /// and reads back as the same frame.
    #[test]
    fn written_frames_are_at_most_two_writes(seed in 0u64..u64::MAX) {
        let frame = arb_frame(seed);
        check_written(&frame)?;
    }

    /// Every truncation of a valid body is a structured rejection: an `Err`
    /// (never a panic), except prefixes that happen to be shorter valid frames
    /// (impossible here: the codec rejects trailing bytes, so a strict prefix
    /// that decodes would contradict full-body decoding — assert that too).
    #[test]
    fn truncations_are_structured_rejections(seed in 0u64..u64::MAX, cut in 0usize..4096) {
        let body = arb_frame(seed).encode();
        prop_assume!(!body.is_empty());
        let cut = cut % body.len(); // strict prefix
        let result = Frame::decode(&body[..cut]);
        prop_assert!(result.is_err(), "strict prefix of len {cut} decoded: {result:?}");
    }

    /// Garbage never panics: either it happens to decode, or it fails with a
    /// structured error.  (The decoder validates every length field against
    /// the bytes present before allocating.)
    #[test]
    fn garbage_never_panics(seed in 0u64..u64::MAX, len in 0usize..512) {
        let mut rng = Rng::new(seed ^ 0xBAD_B17E_5EED_0001);
        let body: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        let _ = Frame::decode(&body); // must return, not panic
    }

    /// Flipping any single byte of a valid frame still never panics.
    #[test]
    fn bitflips_never_panic(seed in 0u64..u64::MAX, pos in 0usize..4096, flip in 1u8..255) {
        let mut body = arb_frame(seed).encode();
        prop_assume!(!body.is_empty());
        let pos = pos % body.len();
        body[pos] ^= flip;
        let _ = Frame::decode(&body);
    }
}

/// A writer that keeps each `write` call apart, as a socket with `TCP_NODELAY`
/// would put each on the wire.
#[derive(Default)]
struct Writes(Vec<Vec<u8>>);

impl Write for Writes {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.push(buf.to_vec());
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn check_written(frame: &Frame) -> Result<(), TestCaseError> {
    let body = frame.encode();
    let mut single = (body.len() as u32).to_le_bytes().to_vec();
    single.extend_from_slice(&body);

    let mut writes = Writes::default();
    let written = write_frame(&mut writes, frame).expect("memory write");
    let bulk = matches!(frame, Frame::Submit { grid, .. } if !grid.is_empty())
        || matches!(frame, Frame::Result { payload, .. } if !payload.is_empty());
    prop_assert_eq!(writes.0.len(), if bulk { 2 } else { 1 });
    let wire = writes.0.concat();
    prop_assert_eq!(written, wire.len() as u64);
    prop_assert_eq!(&wire, &single);

    let mut stream: &[u8] = &wire;
    let (read, consumed) = read_frame(&mut stream).expect("the frame reads back");
    prop_assert_eq!(&read, frame);
    prop_assert_eq!(consumed, wire.len() as u64);
    prop_assert!(stream.is_empty());
    Ok(())
}

/// The bulk frames at the sizes the generator does not reach: an empty payload
/// (header-only, one write) and a multi-MiB one, through both decodes and the
/// two-write path.
#[test]
fn empty_and_multi_mib_payloads_round_trip() {
    for len in [0usize, 1, 3 << 20] {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
        let frames = [
            Frame::Submit {
                session: 3,
                tenant: 9,
                t0: 0,
                t1: 4,
                weight: 2,
                deadline: Deadline::WallMicros(1500),
                elem: ElemType::U8,
                grid: bytes.clone(),
            },
            Frame::Result {
                elem: ElemType::F64,
                t1: 4,
                slice_len: len as u64 / 16,
                payload: bytes,
            },
        ];
        for frame in &frames {
            let body = frame.encode();
            assert_eq!(Frame::decode(&body).as_ref(), Ok(frame));
            assert_eq!(Frame::decode_owned(body.clone()).as_ref(), Ok(frame));
            // A declared payload length that overruns the body is refused by
            // both decodes alike (the length field is the last 4 header bytes).
            let at = body.len() - len - 4;
            let mut long = body.clone();
            long[at..at + 4].copy_from_slice(&(len as u32 + 1).to_le_bytes());
            assert!(matches!(
                Frame::decode_owned(long),
                Err(FrameError::Truncated { .. })
            ));
            let mut extra = body;
            extra.push(0);
            assert!(matches!(
                Frame::decode_owned(extra),
                Err(FrameError::TrailingBytes { extra: 1 })
            ));
            check_written(frame).expect("two-write form");
        }
    }
}

/// A length prefix over `MAX_FRAME` is refused at the prefix — before the body
/// is read or its buffer allocated (reading on would interpret the rest of the
/// stream as garbage; allocating would let a 4-byte prefix balloon the
/// process).
#[test]
fn oversized_prefix_rejected_before_allocation() {
    // 4 GiB declared, 4 bytes present: read_frame must fail on the prefix
    // alone without touching the (absent) body.
    let len = (u32::MAX) as usize;
    let mut stream: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
    match read_frame(&mut stream) {
        Err(ReadError::Frame(FrameError::Oversized { len: got })) => assert_eq!(got, len),
        other => panic!("expected Oversized, got {other:?}"),
    }
    // The prefix bytes were consumed, nothing more was demanded.
    assert!(stream.is_empty());

    // Just past the limit is rejected; the limit itself is the body's job.
    let over = (MAX_FRAME as u32 + 1).to_le_bytes();
    let mut stream: &[u8] = &over;
    assert!(matches!(
        read_frame(&mut stream),
        Err(ReadError::Frame(FrameError::Oversized { .. }))
    ));
}

/// EOF at a frame boundary is a clean close; EOF inside a prefix or body is a
/// transport error — the distinction the server uses to tell a polite
/// disconnect from a client that died mid-submit.
#[test]
fn eof_positions_are_distinguished() {
    let mut empty: &[u8] = &[];
    assert!(matches!(read_frame(&mut empty), Err(ReadError::Eof)));

    let mut partial_prefix: &[u8] = &[7, 0];
    assert!(matches!(
        read_frame(&mut partial_prefix),
        Err(ReadError::Io(_))
    ));

    let body = Frame::Flush.encode();
    let mut framed = (body.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&body);
    framed.pop(); // lose the last body byte
    let mut stream: &[u8] = &framed;
    assert!(matches!(read_frame(&mut stream), Err(ReadError::Io(_))));
}

/// Trailing bytes after a decoded frame are rejected — a frame is its body,
/// exactly.
#[test]
fn trailing_bytes_rejected() {
    let mut body = Frame::Close.encode();
    body.push(0);
    assert!(matches!(
        Frame::decode(&body),
        Err(FrameError::TrailingBytes { extra: 1 })
    ));
}

/// The geometry arity check fires at decode time: a Negotiate whose extent
/// count disagrees with its app never reaches the server logic.
#[test]
fn negotiate_arity_checked_at_decode() {
    let good = Frame::Negotiate {
        app: TraceApp::Wave3d,
        geometry: vec![8, 8, 8],
        chunk: 4,
    };
    let mut body = good.encode();
    // Patch the declared dimension count (opcode, app tag, then dims byte).
    body[2] = 2;
    assert!(matches!(
        Frame::decode(&body),
        Err(FrameError::BadPayload(_))
    ));
}
