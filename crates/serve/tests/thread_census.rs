//! The server's threads, counted from `/proc/self/task/*/comm`: one accept
//! thread, plus one worker per live connection — and no drain thread, because
//! each worker runs the requests it reads before it answers them.
//!
//! Alone in its test binary on purpose: the census counts every server thread
//! in the process.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use pochoir_serve::server::{ServeConfig, Server};
use pochoir_serve::{Client, Deadline, RequestStatus};
use pochoir_trace::TraceApp;

/// Threads whose name starts `pochoir-serve-` (a name is cut to 15 bytes in
/// `comm`, so the suffix may be truncated).
fn serve_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("pochoir-serve-"))
        .count()
}

/// The census once it has stopped changing: two reads 100 ms apart agree (or
/// 5 s pass).  A spawned thread names itself when it starts, not when `spawn`
/// returns, and a joined one leaves `/proc` a moment after `join` returns.
fn settled_census() -> usize {
    let started = Instant::now();
    let mut last = serve_threads();
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let now = serve_threads();
        if now == last || started.elapsed() > Duration::from_secs(5) {
            return now;
        }
        last = now;
    }
}

#[test]
fn a_server_is_one_accept_thread_and_one_worker_per_connection() {
    assert_eq!(serve_threads(), 0, "no server yet");
    let server = Server::start(ServeConfig::default()).expect("server");
    assert_eq!(settled_census(), 1, "a started server is its accept thread");

    let mut client = Client::connect(server.addr()).expect("connect");
    let session = client
        .negotiate(TraceApp::Heat2d, &[16, 16], 4)
        .expect("negotiate");
    let request = client
        .submit_tenant(&session, 0, 8, 1, Deadline::None)
        .expect("submit");
    assert_eq!(client.poll(request).expect("poll"), RequestStatus::Done);
    assert_eq!(
        settled_census(),
        2,
        "one connection adds its worker, which ran the request itself"
    );

    client.close().expect("close");
    server.shutdown();
    assert_eq!(settled_census(), 0, "shutdown joined every server thread");
}
