//! Liveness of the wire's submit path on a pool with more workers than cores.
//!
//! A connection worker drains its own submission: it holds the session lock
//! while it blocks in the pool's `run_on_worker`.  That is safe because the
//! worker is an OS thread, not a pool job, and no pool job takes a session
//! lock — this case checks it under contention: 4 connections × 16
//! back-to-back submits to one session on a 4-worker global runtime, every
//! request `Done` and bitwise equal to `CompiledProgram::run`.  The body runs
//! under the same wall-clock watchdog as `tests/drain_liveness.rs`, so a hang
//! fails the test instead of stalling the suite.
//!
//! Alone in its test binary on purpose: it sizes the global runtime through
//! `POCHOIR_NUM_THREADS` before anything else in the process touches it.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use pochoir_runtime::{Runtime, Serial, NUM_THREADS_ENV};
use pochoir_serve::server::{ServeConfig, Server};
use pochoir_serve::{Client, Deadline, RequestStatus};
use pochoir_stencils::heat;
use pochoir_stencils::traffic::{digest_grid, heat_grid, usizes};
use pochoir_trace::TraceApp;

/// How long the case may run before it counts as hung.  A passing run takes
/// well under a second even unoptimized.
const DEADLINE: Duration = Duration::from_secs(60);

/// Runs `body` on a fresh thread and fails if it does not finish within
/// [`DEADLINE`].  A panic inside `body` is re-raised here unchanged.
fn within_deadline(name: &str, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(name.to_owned())
        .spawn(move || {
            body();
            let _ = done.send(());
        })
        .expect("spawn the case thread");
    match finished.recv_timeout(DEADLINE) {
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("{name}: no progress in {DEADLINE:?} (submit-path livelock?)")
        }
    }
}

const GEOMETRY: [u64; 2] = [96, 96];
const WINDOW: i64 = 4;
const T1: i64 = 8;
const CONNECTIONS: u32 = 4;
const SUBMITS: u32 = 16;

#[test]
fn four_connections_submitting_to_one_session_all_finish_on_four_workers() {
    std::env::set_var(NUM_THREADS_ENV, "4");
    assert_eq!(Runtime::global().num_threads(), 4);
    within_deadline("wire", || {
        let sizes = usizes::<2>(&GEOMETRY);
        let reference = heat::try_serve_2d(sizes, WINDOW).unwrap();
        let expected = |tenant: u32| {
            let mut grid = heat_grid(sizes, tenant);
            reference
                .program()
                .run(&mut grid, reference.kernel(), 0, T1, &Serial);
            digest_grid(&grid, T1)
        };

        let server = Server::start(ServeConfig::default()).expect("server");
        let addr = server.addr();
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let session = client
                        .negotiate(TraceApp::Heat2d, &GEOMETRY, WINDOW)
                        .expect("negotiate");
                    let tenants: Vec<u32> = (0..SUBMITS).map(|i| conn * SUBMITS + i).collect();
                    let requests: Vec<u64> = tenants
                        .iter()
                        .map(|&tenant| {
                            client
                                .submit_tenant(&session, tenant, T1, 1, Deadline::None)
                                .expect("submit")
                        })
                        .collect();
                    let digests: Vec<(u32, u64)> = tenants
                        .iter()
                        .zip(requests)
                        .map(|(&tenant, request)| {
                            assert_eq!(client.poll(request).expect("poll"), RequestStatus::Done);
                            (tenant, client.fetch(request).expect("fetch").digest())
                        })
                        .collect();
                    client.close().expect("close");
                    digests
                })
            })
            .collect();
        for handle in clients {
            for (tenant, digest) in handle.join().expect("client thread") {
                assert_eq!(digest, expected(tenant), "tenant {tenant}");
            }
        }
        server.shutdown();
    });
}
