//! Property-pins the wire codec: `decode ∘ encode` is the identity over
//! arbitrary frames, and malformed inputs — truncations, oversized length
//! prefixes, garbage bytes — are rejected with structured errors (no panic,
//! no allocation beyond the bytes present).  The stream reader (`read_frame`,
//! `read_frame_head` + `read_grid`) and the writers (`write_frame`,
//! `write_grid_frame`) are pinned against the plain `decode`/`encode` pair and
//! against a per-cell encoding of `snapshot` on the same frames and grids; a
//! server refuses the previous version's `Hello`, and what earlier versions
//! retired (opcodes, status and error tags, deadline kind 2) does not decode.

use std::fmt::Debug;
use std::io::{self, Write};
use std::net::TcpStream;

use pochoir_core::grid::PochoirArray;
use pochoir_serve::protocol::{
    read_frame, read_frame_head, read_grid, skip_payload, submit_slices, write_frame,
    write_grid_frame, Deadline, ElemType, ErrorCode, Frame, FrameError, FrameHead, ReadError,
    RequestStatus, WireElem, MAX_FRAME, PROTOCOL_VERSION, STREAM_CHUNK,
};
use pochoir_serve::server::{ServeConfig, Server};
use pochoir_serve::FetchedResult;
use pochoir_stencils::traffic::{digest_grid, DigestBits};
use pochoir_trace::{Rng, TraceApp, TRACE_APPS};
use proptest::prelude::*;

/// Detail-string alphabet crossing ASCII, escapes, and multi-byte UTF-8.
const DETAIL_CHARS: [char; 10] = ['a', 'Z', '0', ' ', '_', '"', '\\', '\n', 'é', '🜁'];

const ERROR_CODES: [ErrorCode; 12] = [
    ErrorCode::InvalidGeometry,
    ErrorCode::CompileFailed,
    ErrorCode::TenantPanicked,
    ErrorCode::Shed,
    ErrorCode::RegistryPoisoned,
    ErrorCode::BadFrame,
    ErrorCode::UnknownOpcode,
    ErrorCode::Oversized,
    ErrorCode::UnknownSession,
    ErrorCode::UnknownRequest,
    ErrorCode::VersionMismatch,
    ErrorCode::BadPayload,
];

fn arb_string(rng: &mut Rng, max_len: u64) -> String {
    (0..rng.below(max_len))
        .map(|_| DETAIL_CHARS[rng.below(DETAIL_CHARS.len() as u64) as usize])
        .collect()
}

fn arb_deadline(rng: &mut Rng) -> Deadline {
    match rng.below(2) {
        0 => Deadline::None,
        _ => Deadline::Logical(rng.below(1 << 40)),
    }
}

fn arb_status(rng: &mut Rng) -> RequestStatus {
    match rng.below(2) {
        0 => RequestStatus::Done,
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
    match rng.below(12) {
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
        4 => Frame::Close,
        5 => Frame::Flush,
        6 => Frame::HelloAck {
            version: rng.below(1 << 32) as u32,
        },
        7 => Frame::SessionAck {
            session: rng.below(1 << 16) as u32,
            window: rng.below(1 << 16) as i64,
        },
        8 => Frame::Status {
            status: arb_status(&mut rng),
        },
        9 => Frame::Result {
            elem: ElemType::F64,
            t1: rng.below(1 << 16) as i64,
            slice_len: rng.below(1 << 20),
            payload: (0..rng.below(256)).map(|_| rng.below(256) as u8).collect(),
        },
        10 => Frame::Flushed {
            records: rng.below(1 << 32),
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

    /// `read_frame` over a stream — header parsed first, the payload read
    /// after it — agrees with `Frame::decode` of the body on every frame and
    /// on every rejection (truncated bodies included), and consumes the frame
    /// exactly either way.
    #[test]
    fn read_frame_matches_decode_of_the_body(seed in 0u64..u64::MAX, cut in 0usize..4096) {
        let body = arb_frame(seed).encode();
        let cut = cut % (body.len() + 1);
        let mut stream = (cut as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(&body[..cut]);
        stream.extend_from_slice(&framed(&Frame::Close));
        let mut r: &[u8] = &stream;
        let streamed = read_frame(&mut r).map(|(frame, _)| frame).map_err(|e| match e {
            ReadError::Frame(e) => e,
            other => panic!("a whole body on the stream failed as {other:?}"),
        });
        prop_assert_eq!(streamed, Frame::decode(&body[..cut]));
        prop_assert_eq!(read_frame(&mut r).expect("the next frame").0, Frame::Close);
    }

    /// What `write_frame` puts on a socket — a frame of at most
    /// `STREAM_CHUNK` bytes in one write; a larger one's prefix and header in
    /// one write, its bulk payload in writes of at most `STREAM_CHUNK` — is
    /// byte-for-byte the single-buffer form, and reads back as the same frame.
    #[test]
    fn written_frames_are_one_header_write_then_chunks(seed in 0u64..u64::MAX) {
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

/// A frame as it goes on the wire, built from `encode` alone.
fn framed(frame: &Frame) -> Vec<u8> {
    let body = frame.encode();
    let mut wire = (body.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&body);
    wire
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

/// The writes a frame of `frame_len` bytes with a `payload`-byte payload must
/// reach a socket as: one write if the frame fits in `STREAM_CHUNK`, else the
/// header alone and then the payload in writes of at most `STREAM_CHUNK`.
fn write_pattern(writes: &[Vec<u8>], frame_len: usize, payload: usize) -> Result<(), String> {
    let lens: Vec<usize> = writes.iter().map(Vec::len).collect();
    let ok = if frame_len <= STREAM_CHUNK {
        lens == [frame_len]
    } else {
        lens.len() == 1 + payload.div_ceil(STREAM_CHUNK)
            && lens[0] == frame_len - payload
            && lens[1..].iter().all(|&n| n <= STREAM_CHUNK)
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "a {frame_len}-byte frame with a {payload}-byte payload went out as writes of {lens:?}"
        ))
    }
}

fn check_written(frame: &Frame) -> Result<(), TestCaseError> {
    let single = framed(frame);
    let mut writes = Writes::default();
    let written = write_frame(&mut writes, frame).expect("memory write");
    let payload = match frame {
        Frame::Submit { grid, .. } => grid.len(),
        Frame::Result { payload, .. } => payload.len(),
        _ => 0,
    };
    write_pattern(&writes.0, single.len(), payload).map_err(TestCaseError::fail)?;
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
/// chunked write path.
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
                deadline: Deadline::Logical(1500),
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
            // A declared payload length that overruns the body, or a body with
            // a byte past the payload, is refused by the buffered decode and
            // the stream reader alike (the length field is the last 4 header
            // bytes).
            let at = body.len() - len - 4;
            let mut long = body.clone();
            long[at..at + 4].copy_from_slice(&(len as u32 + 1).to_le_bytes());
            let mut extra = body;
            extra.push(0);
            for (bad, want) in [
                (
                    long,
                    FrameError::Truncated {
                        needed: len + 1,
                        have: len,
                    },
                ),
                (extra, FrameError::TrailingBytes { extra: 1 }),
            ] {
                assert_eq!(Frame::decode(&bad), Err(want.clone()));
                let mut stream = (bad.len() as u32).to_le_bytes().to_vec();
                stream.extend_from_slice(&bad);
                match read_frame(&mut stream.as_slice()) {
                    Err(ReadError::Frame(e)) => assert_eq!(e, want),
                    other => panic!("expected {want:?}, got {other:?}"),
                }
            }
            check_written(frame).expect("chunked form");
        }
    }
}

/// A grid element whose wire bytes the test writes itself, independently of
/// the codec under test.
trait Cell: WireElem + DigestBits + PartialEq + Debug {
    fn wire(self, out: &mut Vec<u8>);
    fn arbitrary(rng: &mut Rng) -> Self;
}

impl Cell for f64 {
    fn wire(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    /// Bit patterns a value-level comparison would blur (NaN payloads, -0.0,
    /// denormals) one time in four.
    fn arbitrary(rng: &mut Rng) -> f64 {
        const ODD: [u64; 4] = [0x7FF8_0000_0000_0001, 0x8000_0000_0000_0000, 1, u64::MAX];
        match rng.below(4) {
            0 => f64::from_bits(ODD[rng.below(4) as usize]),
            _ => f64::from_bits(rng.below(u64::MAX)),
        }
    }
}

impl Cell for u8 {
    fn wire(self, out: &mut Vec<u8>) {
        out.push(self);
    }
    fn arbitrary(rng: &mut Rng) -> u8 {
        rng.below(256) as u8
    }
}

/// Time slices `slices` of `grid`, cell by cell from `snapshot`: the payload
/// every writer must produce and every reader must accept.
fn cell_bytes<T: Cell, const D: usize>(grid: &PochoirArray<T, D>, slices: &[i64]) -> Vec<u8> {
    let mut out = Vec::new();
    for &t in slices {
        for v in grid.snapshot(t) {
            v.wire(&mut out);
        }
    }
    out
}

/// A `depth + 1`-slice grid over `sizes` filled with arbitrary cells.
fn arb_grid<T: Cell, const D: usize>(sizes: [usize; D], depth: usize) -> PochoirArray<T, D> {
    let mut rng = Rng::new(sizes.iter().product::<usize>() as u64 ^ depth as u64);
    let mut grid = PochoirArray::with_depth(sizes, depth);
    for t in 0..=depth as i64 {
        grid.fill_time_slice(t, |_| T::arbitrary(&mut rng));
    }
    grid
}

/// The `t0` of [`submit`]'s frames: a depth-2 grid's carried slices wrap
/// below 0.
const SUBMIT_T0: i64 = 0;

fn submit(elem: ElemType, grid: Vec<u8>) -> Frame {
    Frame::Submit {
        session: 2,
        tenant: 5,
        t0: SUBMIT_T0,
        t1: 3,
        weight: 1,
        deadline: Deadline::Logical(9),
        elem,
        grid,
    }
}

/// Every pin on one grid: row-written frames are `write_frame` of the per-cell
/// payload write for write; the streamed decode (head, then the payload into a
/// fresh array's storage) is the buffered decode bitwise and fills only the
/// carried slices; every truncation of the stream is a structured error; and a
/// fetched result's digest, folded over its payload bytes, is the grid's
/// digest.
fn grid_case<T: Cell, const D: usize>(sizes: [usize; D], depth: usize) {
    let grid: PochoirArray<T, D> = arb_grid(sizes, depth);
    let carried = submit_slices(SUBMIT_T0, depth);

    let writes = |head: &Frame, slices: &[i64]| {
        let mut rows = Writes::default();
        write_grid_frame(&mut rows, head, &grid, slices).expect("memory write");
        rows.0
    };
    let submit_frame = submit(T::ELEM, cell_bytes(&grid, &carried));
    let mut by_bytes = Writes::default();
    write_frame(&mut by_bytes, &submit_frame).expect("memory write");
    let by_rows = writes(&submit(T::ELEM, Vec::new()), &carried);
    assert_eq!(by_rows, by_bytes.0, "{sizes:?}: Submit");
    let payload = cell_bytes(&grid, &carried).len();
    write_pattern(&by_rows, framed(&submit_frame).len(), payload)
        .unwrap_or_else(|e| panic!("{sizes:?}: Submit: {e}"));
    let slice_len = sizes.iter().product::<usize>() as u64;
    for t1 in [depth as i64, 0] {
        let slices = [(t1 - 1).max(0), t1];
        let result = |payload| Frame::Result {
            elem: T::ELEM,
            t1,
            slice_len,
            payload,
        };
        let payload = cell_bytes(&grid, &slices);
        let mut by_bytes = Writes::default();
        write_frame(&mut by_bytes, &result(payload.clone())).expect("memory write");
        let by_rows = writes(&result(Vec::new()), &slices);
        assert_eq!(by_rows, by_bytes.0, "{sizes:?}: Result at {t1}");
        write_pattern(
            &by_rows,
            framed(&result(payload.clone())).len(),
            payload.len(),
        )
        .unwrap_or_else(|e| panic!("{sizes:?}: Result at {t1}: {e}"));

        let fetched = FetchedResult {
            elem: T::ELEM,
            t1,
            slice_len,
            bytes: payload,
        };
        assert_eq!(
            fetched.digest(),
            digest_grid(&grid, t1),
            "{sizes:?}: digest at {t1}"
        );
    }

    let wire = framed(&submit_frame);
    let buffered = match read_frame(&mut wire.as_slice()).expect("buffered decode").0 {
        Frame::Submit { grid, .. } => grid,
        other => panic!("expected Submit, got {other:?}"),
    };
    let mut stream = wire.as_slice();
    let streamed = stream_grid::<T, D>(&mut stream, sizes, depth).expect("streamed decode");
    assert!(
        stream.is_empty(),
        "{sizes:?}: the payload was consumed exactly"
    );
    // The one slot the `Submit` does not carry — step `t0`'s output — is left
    // as the array was built.
    assert_eq!(
        streamed.snapshot(SUBMIT_T0 + 1),
        vec![T::default(); sizes.iter().product()],
        "{sizes:?}: only the carried slices are filled"
    );
    assert_eq!(
        cell_bytes(&streamed, &carried),
        buffered,
        "{sizes:?}: streamed ≡ buffered"
    );
    assert_eq!(
        buffered,
        cell_bytes(&grid, &carried),
        "{sizes:?}: bitwise round trip"
    );

    // Every cut inside the header, then cuts through the payload (all of them
    // for a small frame, a spread for a large one).
    let step = (wire.len() / 64).max(1);
    for cut in (0..64.min(wire.len())).chain((64..wire.len()).step_by(step)) {
        let mut stream = &wire[..cut];
        assert!(
            stream_grid::<T, D>(&mut stream, sizes, depth).is_err(),
            "{sizes:?}: a stream cut at {cut} of {} decoded",
            wire.len()
        );
        assert!(read_frame(&mut &wire[..cut]).is_err());
    }
}

/// Reads a `Submit` head off `stream` and its payload into a fresh grid.
fn stream_grid<T: Cell, const D: usize>(
    stream: &mut &[u8],
    sizes: [usize; D],
    depth: usize,
) -> Result<PochoirArray<T, D>, ReadError> {
    let FrameHead { frame, payload, .. } = read_frame_head(stream)?;
    assert!(matches!(frame, Frame::Submit { ref grid, .. } if grid.is_empty()));
    let mut grid = PochoirArray::with_depth(sizes, depth);
    assert_eq!(
        payload,
        depth * sizes.iter().product::<usize>() * T::ELEM.size()
    );
    read_grid(stream, &mut grid, &submit_slices(SUBMIT_T0, depth)).map_err(ReadError::Io)?;
    Ok(grid)
}

/// Row lengths on both sides of the 64-byte pad (8 `f64`s, 64 `u8`s), every
/// served dimensionality, payloads shorter than one chunk, rows that cross a
/// chunk boundary (`[300, 200]`), one row longer than the whole scratch
/// buffer (1-D, 200 000 `f64`), and two bulk slices over `STREAM_CHUNK`: a
/// dense one that goes straight between storage and stream (`[1024, 1024]`
/// `f64`) and a padded one gathered row by row (`[1024, 1000]` `u8`).
#[test]
fn grids_stream_like_their_per_cell_bytes() {
    for n in [1, 5, 8, 13] {
        grid_case::<f64, 1>([n], 1);
        grid_case::<f64, 2>([3, n], 1);
        grid_case::<f64, 3>([2, 3, n], 2);
    }
    for n in [1, 7, 64, 70] {
        grid_case::<u8, 1>([n], 1);
        grid_case::<u8, 2>([4, n], 1);
        grid_case::<u8, 3>([2, 3, n], 1);
    }
    grid_case::<f64, 2>([300, 200], 1);
    const { assert!(200_000 * 8 > STREAM_CHUNK) };
    grid_case::<f64, 1>([200_000], 1);
    const { assert!(1024 * 1000 > STREAM_CHUNK) };
    grid_case::<f64, 2>([1024, 1024], 1);
    grid_case::<u8, 2>([1024, 1000], 1);
}

/// A frame refused after its head — by the server for its header, or by the
/// decoder for a bad field — leaves the reader at the next frame once its
/// payload is drained.
#[test]
fn refused_heads_leave_the_reader_at_the_next_frame() {
    let submit = submit(ElemType::U8, vec![7; 3 * STREAM_CHUNK / 2]);
    let poll = Frame::Poll { request: 42 };
    let mut stream = framed(&submit);
    stream.extend_from_slice(&framed(&poll));
    let mut r = stream.as_slice();
    let head = read_frame_head(&mut r).expect("head");
    assert_eq!(head.payload, 3 * STREAM_CHUNK / 2);
    skip_payload(&mut r, head.payload).expect("drain");
    assert_eq!(read_frame(&mut r).expect("next frame").0, poll);
    assert!(r.is_empty());

    // A bad element tag fails the decode; the rest of the body is consumed.
    let mut bad = framed(&submit);
    bad[4 + 1 + 4 + 4 + 8 + 8 + 4 + 1 + 8] = 0xEE;
    bad.extend_from_slice(&framed(&poll));
    let mut r = bad.as_slice();
    assert!(matches!(
        read_frame_head(&mut r),
        Err(ReadError::Frame(FrameError::BadPayload(_)))
    ));
    assert_eq!(read_frame(&mut r).expect("next frame").0, poll);

    // Draining more than the stream holds is a transport error, not a hang.
    assert!(skip_payload(&mut &[1u8, 2][..], 3).is_err());
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

/// Version 5 retired the wall-clock deadline, so a server answers a version-4
/// `Hello` with a typed `VersionMismatch` and closes the connection.
#[test]
fn a_version_four_hello_is_refused() {
    assert_eq!(PROTOCOL_VERSION, 5);
    let server = Server::start(ServeConfig::default()).expect("server");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut stream, &Frame::Hello { version: 4 }).expect("hello");
    match read_frame(&mut stream).expect("the refusal").0 {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::VersionMismatch),
        other => panic!("expected a VersionMismatch error, got {other:?}"),
    }
    assert!(
        read_frame(&mut stream).is_err(),
        "the server closes after the refusal"
    );
    server.shutdown();
}

/// What version 3 retired does not decode: the `Fetch` (0x05), `Wait` (0x08)
/// and `Submitted` (0x83) opcodes, the `Pending` status tag (0) and the
/// `NotReady` error code (22).
#[test]
fn retired_version_two_surface_is_rejected() {
    for op in [0x05u8, 0x08, 0x83] {
        let mut body = vec![op];
        body.extend_from_slice(&[0; 16]);
        assert_eq!(Frame::decode(&body), Err(FrameError::UnknownOpcode(op)));
    }
    let mut pending = Frame::Status {
        status: RequestStatus::Done,
    }
    .encode();
    pending[1] = 0;
    assert!(matches!(
        Frame::decode(&pending),
        Err(FrameError::BadPayload(_))
    ));
    let mut not_ready = Frame::Error {
        code: ErrorCode::BadFrame,
        detail: String::new(),
    }
    .encode();
    not_ready[1] = 22;
    assert!(matches!(
        Frame::decode(&not_ready),
        Err(FrameError::BadPayload(_))
    ));
}

/// What version 5 retired does not decode: a `Submit` whose deadline is kind 2,
/// the wall-clock budget of versions 1–4, is an unknown deadline kind.
#[test]
fn retired_version_four_deadline_is_rejected() {
    let mut body = Frame::Submit {
        session: 0,
        tenant: 0,
        t0: 0,
        t1: 4,
        weight: 1,
        deadline: Deadline::Logical(1500),
        elem: ElemType::F64,
        grid: vec![0; 8],
    }
    .encode();
    // The deadline kind follows opcode, session, tenant, t0, t1 and weight.
    let kind = 1 + 4 + 4 + 8 + 8 + 4;
    assert_eq!(body[kind], 1);
    body[kind] = 2;
    match Frame::decode(&body) {
        Err(FrameError::BadPayload(detail)) => assert!(detail.contains("deadline kind 2")),
        other => panic!("expected BadPayload for deadline kind 2, got {other:?}"),
    }
}
