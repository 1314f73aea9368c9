//! End-to-end pin: a live `pochoir-serve` instance answers 8 concurrent
//! clients across three geometries with results **bitwise-identical** to
//! running the same batches in-process, while compiling each geometry exactly
//! once (the process-global session registry is shared across the network
//! boundary).  Then a giant: two tenants of the trace corpus's 1-D giant
//! (`GIANT_CELLS`, which the engine compiles whole at its own base case) sent
//! back-to-back, each fetched result bitwise-equal to the same in-process run.
//!
//! One `#[test]` on purpose: the registry-miss accounting needs the whole
//! scenario in one deterministic scope.

use std::time::Duration;

use pochoir_core::engine::serving::registry_stats;
use pochoir_core::engine::StencilServer;
use pochoir_core::grid::PochoirArray;
use pochoir_core::kernel::StencilKernel;
use pochoir_runtime::Runtime;
use pochoir_serve::protocol::Deadline;
use pochoir_serve::server::{ServeConfig, Server};
use pochoir_serve::Client;
use pochoir_stencils::traffic::{digest_grid, heat_grid, life_grid, usizes, wave_grid, DigestBits};
use pochoir_stencils::{heat, life, wave};
use pochoir_trace::corpus::GIANT_CELLS;
use pochoir_trace::TraceApp;

const WINDOW: i64 = 4;
const T1: i64 = 12;

fn geometry_of(app: TraceApp) -> Vec<u64> {
    match app {
        TraceApp::Heat2d => vec![24, 24],
        TraceApp::Life => vec![20, 20],
        TraceApp::Wave3d => vec![12, 12, 12],
        TraceApp::HeatGiant1d => vec![GIANT_CELLS],
    }
}

/// The in-process baseline: run the tenant's grid directly on the shared
/// compiled program (`CompiledProgram::run`, the same program the live server
/// drains through).
fn local_digest<T, K, const D: usize>(
    server: &StencilServer<T, K, D>,
    mut grid: PochoirArray<T, D>,
) -> u64
where
    T: DigestBits + Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
{
    let par = Runtime::global();
    server.program().run(&mut grid, server.kernel(), 0, T1, par);
    digest_grid(&grid, T1)
}

#[test]
fn live_server_matches_in_process_bitwise_with_one_compile_per_geometry() {
    let server = Server::start(ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.addr().to_string();

    let registry_before = registry_stats();

    // 8 concurrent clients, one connection each, spread over three geometries.
    let handles: Vec<_> = (0..8u32)
        .map(|tenant| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let app = match tenant % 3 {
                    0 => TraceApp::Heat2d,
                    1 => TraceApp::Life,
                    _ => TraceApp::Wave3d,
                };
                let geometry = geometry_of(app);
                let mut client = Client::connect(&addr).expect("connect");
                let session = client.negotiate(app, &geometry, WINDOW).expect("negotiate");
                assert_eq!(session.window, WINDOW);
                let request = client
                    .submit_tenant(&session, tenant, T1, 1 + tenant % 3, Deadline::None)
                    .expect("submit");
                let result = client
                    .wait_fetch(request, Duration::from_secs(120))
                    .expect("wait+fetch");
                assert_eq!(result.t1, T1);
                let cells: u64 = geometry.iter().product();
                assert_eq!(result.slice_len, cells);
                let digest = result.digest();
                client.close().expect("close");
                (tenant, app, digest)
            })
        })
        .collect();
    let live: Vec<(u32, TraceApp, u64)> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();

    // The server compiled each geometry exactly once: 3 sessions, 3 registry
    // misses, regardless of 8 concurrent negotiations racing for them.
    let after_serving = registry_stats();
    assert_eq!(
        after_serving.misses - registry_before.misses,
        3,
        "live serving must compile each of the 3 geometries exactly once"
    );

    // In-process comparison servers for the same keys: all hits, no new
    // compiles — and their direct program runs must match the wire results
    // bitwise (the digest folds every result bit).
    let heat_server =
        heat::try_serve_2d(usizes::<2>(&geometry_of(TraceApp::Heat2d)), WINDOW).unwrap();
    let life_server = life::try_serve(usizes::<2>(&geometry_of(TraceApp::Life)), WINDOW).unwrap();
    let wave_server = wave::try_serve(usizes::<3>(&geometry_of(TraceApp::Wave3d)), WINDOW).unwrap();
    let after_local = registry_stats();
    assert_eq!(
        after_local.misses - after_serving.misses,
        0,
        "in-process servers over the same keys must reuse the served programs"
    );
    assert_eq!(after_local.hits - after_serving.hits, 3);

    for (tenant, app, live_digest) in live {
        let expected = match app {
            TraceApp::Heat2d => local_digest(
                &heat_server,
                heat_grid(usizes::<2>(&geometry_of(app)), tenant),
            ),
            TraceApp::Life => local_digest(
                &life_server,
                life_grid(usizes::<2>(&geometry_of(app)), tenant),
            ),
            TraceApp::Wave3d => local_digest(
                &wave_server,
                wave_grid(usizes::<3>(&geometry_of(app)), tenant),
            ),
            TraceApp::HeatGiant1d => unreachable!("no giant among the 8 clients"),
        };
        assert_eq!(
            live_digest, expected,
            "tenant {tenant} ({app:?}): wire result differs from in-process CompiledProgram::run"
        );
    }

    // The giant: two tenants submitted back-to-back on one connection, so the
    // client holds both results at once, then fetched in order.
    let geometry = geometry_of(TraceApp::HeatGiant1d);
    let mut client = Client::connect(&addr).expect("connect");
    let session = client
        .negotiate(TraceApp::HeatGiant1d, &geometry, WINDOW)
        .expect("negotiate the giant");
    let tenants = [3u32, 11];
    let requests = tenants.map(|tenant| {
        client
            .submit_tenant(&session, tenant, T1, 1, Deadline::None)
            .expect("submit the giant")
    });
    let giant_server = heat::serve_giant_1d(GIANT_CELLS as usize, WINDOW);
    for (tenant, request) in tenants.into_iter().zip(requests) {
        let live_digest = client
            .wait_fetch(request, Duration::from_secs(120))
            .expect("wait+fetch the giant")
            .digest();
        let expected = local_digest(&giant_server, heat_grid(usizes::<1>(&geometry), tenant));
        assert_eq!(
            live_digest, expected,
            "giant tenant {tenant}: wire result differs from in-process CompiledProgram::run"
        );
    }
    client.close().expect("close");

    server.shutdown();
}
