//! A reply is counted before its first byte leaves the server: a client that has
//! read a reply finds it in `NetFramesOut` and its bytes in `NetBytesOut`, with
//! no shutdown, sleep or poll in between.
//!
//! Alone in its test binary on purpose: the frame counters are
//! `Runtime::global()`'s, so a second test in the process would count into the
//! same totals.

use pochoir_runtime::Runtime;
use pochoir_serve::server::{ServeConfig, Server};
use pochoir_serve::{Client, Deadline};
use pochoir_stencils::traffic::{heat_grid, usizes};
use pochoir_trace::TraceApp;

const GEOMETRY: [u64; 2] = [16, 16];
const REQUESTS: u64 = 1_000;

/// Bytes of a `Result` before its payload: the length prefix, then opcode,
/// elem, `t1`, `slice_len` and payload length.
const RESULT_HEAD: u64 = 4 + 1 + 1 + 8 + 8 + 4;

#[test]
fn every_reply_read_is_already_counted() {
    let server = Server::start(ServeConfig::default()).expect("server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let session = client
        .negotiate(TraceApp::Heat2d, &GEOMETRY, 2)
        .expect("negotiate");
    let out = || {
        let m = Runtime::global().metrics();
        (m.net_frames_out, m.net_bytes_out)
    };
    // The handshake's replies have been read, so they are counted too.
    let (frames0, bytes0) = out();
    assert!(frames0 >= 1, "the negotiate reply was read but not counted");
    let grid = heat_grid(usizes::<2>(&GEOMETRY), 1);
    let result_bytes = RESULT_HEAD + 2 * GEOMETRY.iter().product::<u64>() * 8;
    for read in 1..=REQUESTS {
        let request = client
            .submit_grid(&session, &grid, 1, 0, 4, 1, Deadline::None)
            .expect("submit");
        client.fetch(request).expect("fetch");
        let (frames, bytes) = out();
        assert_eq!(
            (frames - frames0, bytes - bytes0),
            (read, read * result_bytes),
            "after {read} replies read: frames and bytes out"
        );
    }
    client.close().expect("close");
    server.shutdown();
}
