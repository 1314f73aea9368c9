//! The layer ledger: fixed probes that time the same work at every layer, bottom up —
//! plain loops, row kernels, compiled schedule, executor session, `StencilServer`
//! drain, shard group, `pochoir_serve` over loopback — and report each layer beside
//! the one beneath it.  Every traced run measures the whole ledger with the same
//! procedure, whatever its workload, so any of them can be cited.
//!
//! Probes are small and fixed-size; a timing is the median of a few repetitions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pochoir_core::engine::serving::clear_registry;
use pochoir_core::engine::{
    run, schedule, try_shared_program, Coarsening, CompiledStencil, ExecutionPlan, ScheduleMode,
    ShardPlan, Sharding, SubmitOptions,
};
use pochoir_core::grid::PochoirArray;
use pochoir_core::kernel::{StencilKernel, StencilSpec};
use pochoir_core::simd::SimdPolicy;
use pochoir_runtime::{Runtime, Serial};
use pochoir_serve::protocol::{read_frame, write_frame, ElemType};
use pochoir_serve::{Client, Deadline, Frame, RequestStatus, ServeConfig, Server};
use pochoir_stencils::heat::HeatKernel;
use pochoir_stencils::life::LifeKernel;
use pochoir_stencils::wave::WaveKernel;
use pochoir_stencils::{heat, life, wave};
use pochoir_trace::TraceApp;

use crate::inputs::{self, heat_spec, sizes, Cell, Grids, TenantApp};
use crate::report::Values;
use crate::spans::{self, durations};
use crate::stats::{median, OpLog};
use crate::workloads::{self, Clock, Stop};

/// Seconds `f` takes.
fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let started = Instant::now();
    let result = f();
    (started.elapsed().as_secs_f64(), result)
}

/// Median seconds of `reps` calls of `f`.
fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    median(&(0..reps).map(|_| time(&mut f).0).collect::<Vec<_>>())
}

/// Measures every ledger metric into `values`; returns how many of the ledger's own
/// correctness checks failed.
pub fn measure(seed: u64, values: &mut Values) -> usize {
    spans::set_enabled(true);
    solve_probes(values);
    kernel_probes(values);
    schedule_probes(values);
    let (serve_failed, serve_seconds_per_request) = serving_probes(seed, values);
    let shard_failed = shard_probes(seed, values);
    protocol_probes(values);
    let wire_failed = wire_probes(seed, serve_seconds_per_request, values);
    spans::set_enabled(false);
    spans::take();
    let failed = serve_failed + shard_failed + wire_failed;
    values.insert("ledger.failed_checks", failed as f64);
    failed
}

/// `core::engine::{loops, schedule, executor}` + `runtime` on the `solve-heat2d`
/// grid: the plain single-threaded loop nest, the compiled TRAP session above it,
/// the same session on the recursive walker, and on one worker.
fn solve_probes(values: &mut Values) {
    let mut grid = inputs::heat_grid(1, sizes::HEAT, 0);
    let cells: usize = sizes::HEAT.iter().product();
    let rate = |steps: i64, seconds: f64| cells as f64 * steps as f64 / seconds / 1e6;

    let mut t = 0;
    let loops_steps = 4;
    let loops = median_time(3, || {
        inputs::run_loops(
            &mut grid,
            &heat_spec(),
            &HeatKernel::<2>::default(),
            t,
            t + loops_steps,
        );
        t += loops_steps;
    });
    values.insert("loops.heat2d.mpts_s", rate(loops_steps, loops));

    let w = sizes::HEAT_WINDOW;
    schedule::clear_cache();
    let (build, session) = time(|| heat::session_2d(sizes::HEAT, w));
    values.insert("executor.session_build_ms", build * 1e3);
    let mut windows = |session: &CompiledStencil<f64, HeatKernel<2>, 2>, reps| {
        median_time(reps, || {
            session.run(&mut grid, t, t + w);
            t += w;
        })
    };
    let compiled = windows(&session, 5);
    values.insert(
        "ledger.trap_over_loops",
        loops * w as f64 / (compiled * loops_steps as f64),
    );

    let plan = *session.program().plan();
    let with_plan = |plan: ExecutionPlan<2>| {
        CompiledStencil::new(
            heat_spec(),
            HeatKernel::<2>::default(),
            plan,
            sizes::HEAT,
            w,
        )
    };
    let recursive = windows(
        &with_plan(plan.with_schedule_mode(ScheduleMode::Recursive)),
        3,
    );
    values.insert("schedule.compiled_over_recursive", recursive / compiled);

    let workers = Runtime::global().num_threads();
    let one = with_plan(plan).with_runtime(Arc::new(Runtime::new(1)));
    let single = windows(&one, 3);
    values.insert("runtime.scaling_eff", single / (compiled * workers as f64));

    // Per-call fixed cost: a one-step window on an 8 × 8 grid.
    let mut tiny = inputs::heat_grid(1, [8, 8], 0);
    let floor = heat::session_2d([8, 8], 1);
    let mut tt = 0;
    let batch = 1000;
    let per_batch = median_time(5, || {
        for _ in 0..batch {
            floor.run(&mut tiny, tt, tt + 1);
            tt += 1;
        }
    });
    values.insert("executor.run_floor_us", per_batch / batch as f64 * 1e6);
}

/// `core::engine::base` + `stencils::simd`: the raw row-kernel rate — the loops
/// engine with the row base case on an L2-resident grid — under `SimdPolicy::Auto`,
/// and that rate over `SimdPolicy::Scalar`'s.
fn kernel_probes(values: &mut Values) {
    fn rates<T: Cell, K: StencilKernel<T, D>, const D: usize>(
        mut grid: PochoirArray<T, D>,
        spec: &StencilSpec<D>,
        kernel: &K,
        steps: i64,
    ) -> (f64, f64) {
        let cells: usize = grid.sizes().iter().product();
        let mut t = spec.shape().first_step();
        let mut rate = |policy| {
            let plan = ExecutionPlan::loops_serial().with_simd(policy);
            let seconds = median_time(5, || {
                run(&mut grid, spec, kernel, t, t + steps, &plan, &Serial);
                t += steps;
            });
            cells as f64 * steps as f64 / seconds / 1e6
        };
        let auto = rate(SimdPolicy::Auto);
        (auto, auto / rate(SimdPolicy::Scalar))
    }
    let heat = rates(
        inputs::heat_grid(1, [128, 512], 0),
        &heat_spec(),
        &HeatKernel::<2>::default(),
        64,
    );
    let life = rates(
        inputs::life_grid(1, sizes::LIFE, 0),
        &StencilSpec::new(life::shape()),
        &LifeKernel,
        8,
    );
    let wave = rates(
        inputs::wave_grid(1, [16, 64, 64]),
        &StencilSpec::new(wave::shape()),
        &WaveKernel::default(),
        32,
    );
    values.insert("kernel.heat2d.mpts_s", heat.0);
    values.insert("kernel.heat2d.simd_over_scalar", heat.1);
    values.insert("kernel.life.mpts_s", life.0);
    values.insert("kernel.life.simd_over_scalar", life.1);
    values.insert("kernel.wave3d.mpts_s", wave.0);
    values.insert("kernel.wave3d.simd_over_scalar", wave.1);
}

/// `core::engine::schedule`: a cold compile of a mid-sized decomposition — the
/// `solve-heat2d` geometry under a 4 × 32 × 32 base case, ~16 k leaves (the tuned
/// preset's own schedule has too few leaves to time).
fn schedule_probes(values: &mut Values) {
    let spec = heat_spec::<2>();
    let plan = ExecutionPlan::<2>::trap();
    let sizes = [sizes::HEAT[0] as i64, sizes::HEAT[1] as i64];
    let mut compiled = None;
    let seconds = median_time(3, || {
        schedule::clear_cache();
        compiled = Some(schedule::schedule_for(
            sizes,
            spec.slopes(),
            spec.reach(),
            Coarsening::new(4, [32, 32]),
            plan.cut_strategy().expect("TRAP cuts"),
            false,
            sizes::HEAT_WINDOW,
        ));
    });
    let (compiled, _) = compiled.expect("the probe ran");
    values.insert("schedule.compile_ms", seconds * 1e3);
    values.insert(
        "schedule.compile_us_per_leaf",
        seconds * 1e6 / compiled.num_leaves() as f64,
    );
    values.insert("schedule.leaves", compiled.num_leaves() as f64);
    values.insert("schedule.raw_leaves", compiled.raw_leaf_count() as f64);
    values.insert("schedule.phases", compiled.num_phases() as f64);
}

/// `core::engine::serving`: one pass of the `serve-tenants` request list through the
/// `StencilServer`s, against the same requests through bare sessions; and the
/// session registry cold and warm.  Returns the failed checks and the serve path's
/// seconds per request.
fn serving_probes(seed: u64, values: &mut Values) -> (usize, f64) {
    let refs = workloads::references("serve-tenants", seed);
    clear_registry();
    spans::take();
    let mut serve = workloads::setup("serve-tenants", seed, &refs);
    let setup_spans = spans::take();
    values.insert(
        "trace.gen_ms",
        durations(&setup_spans, "requests").iter().sum::<f64>() * 1e3,
    );
    let warm_ok = serve.warmup_ok();

    let before = Runtime::global().metrics();
    let mut log = OpLog::counting();
    let clock = Clock::start();
    serve.drive(&clock, Stop::Ops(2 * sizes::ARRIVALS), &mut log);
    let serve_wall = clock.now();
    let windows = before.delta(&Runtime::global().metrics()).serving_windows;
    let pass = spans::take();
    let submits = durations(&pass, "try_submit_with");
    let drains = durations(&pass, "try_drain");
    values.insert("serving.submit_us", median(&submits) * 1e6);
    values.insert("serving.drain_ms", median(&drains) * 1e3);
    values.insert(
        "serving.drain_us_per_window",
        drains.iter().sum::<f64>() * 1e6 / windows as f64,
    );

    // The same requests, window by window, through bare sessions: no queue, no
    // scheduler, no registry — and no result check.
    let grids = Grids::tenants(seed);
    let requests = inputs::requests(seed);
    let chunk = sizes::TENANT_CHUNK;
    let heat_session = heat::session_2d(sizes::TENANT, chunk);
    let life_session = life::session(sizes::TENANT, chunk);
    fn bare<T: Cell, K: StencilKernel<T, 2>>(
        session: &CompiledStencil<T, K, 2>,
        grid: &PochoirArray<T, 2>,
        steps: i64,
        chunk: i64,
    ) {
        let mut grid = grid.clone();
        let mut t = 0;
        while t < steps {
            session.run(&mut grid, t, (t + chunk).min(steps));
            t += chunk;
        }
        std::hint::black_box(grid);
    }
    let bare_wall = median_time(3, || {
        for r in &requests {
            let tenant = r.tenant as usize;
            match r.app {
                TenantApp::Heat => bare(&heat_session, &grids.heat[tenant], r.steps, chunk),
                TenantApp::Life => bare(&life_session, &grids.life[tenant], r.steps, chunk),
            }
        }
    });
    // Both sides copy each tenant grid; only the serve side checks results.
    let total = |name| durations(&pass, name).iter().sum::<f64>();
    let in_serving = total("epoch") - total("verify");
    values.insert("serving.self_share", 1.0 - bare_wall / in_serving);
    values.insert("ledger.serve_over_solve", bare_wall / serve_wall);

    let spec = heat_spec::<2>();
    let plan = *heat_session.program().plan();
    clear_registry();
    let get = |n: i64| {
        time(|| try_shared_program(&spec, &plan, [n, n], chunk).expect("valid geometry")).0
    };
    let cold: Vec<f64> = (0..16).map(|k| get(17 + k)).collect();
    let warm: Vec<f64> = (0..1000).map(|_| get(17)).collect();
    values.insert("registry.cold_get_ms", median(&cold) * 1e3);
    values.insert("registry.warm_get_us", median(&warm) * 1e6);

    (
        log.failed + usize::from(!warm_ok),
        serve_wall / log.count as f64,
    )
}

/// `core::engine::shard`: the `shard-giant` op, its plan, the same giant as a
/// serving tenant group, and the whole grid compiled under a coarsened plan — the
/// route a hand-tuned plan takes, as the ceiling.
fn shard_probes(seed: u64, values: &mut Values) -> usize {
    let n = sizes::GIANT;
    let steps = sizes::GIANT_STEPS;
    let workers = Runtime::global().num_threads();
    let plan_seconds = median_time(5, || {
        std::hint::black_box(ShardPlan::<1>::auto(
            [n as i64],
            1,
            &Coarsening::none(),
            steps,
            workers,
            true,
            Sharding::Auto,
        ));
    });
    values.insert("shard.plan_ms", plan_seconds * 1e3);

    let refs = workloads::references("shard-giant", seed);
    let mut giant = workloads::setup("shard-giant", seed, &refs);
    let warm_ok = giant.warmup_ok();
    let mut log = OpLog::counting();
    giant.drive(&Clock::start(), Stop::Ops(1), &mut log);
    giant.final_check(&Clock::start(), &mut log);
    let shard_seconds = median(&log.latencies);
    values.insert("shard.run_ms", shard_seconds * 1e3);
    let report = giant.counts().shard;
    values.insert(
        "shard.halo_share_computed",
        report.halo_cells as f64 / (n as f64 * steps as f64),
    );
    drop(giant);

    let coarse = ExecutionPlan::<1>::trap().with_coarsening(Coarsening::new(8, [64]));
    let whole = CompiledStencil::new(
        heat_spec::<1>(),
        HeatKernel::<1>::default(),
        coarse,
        [n],
        steps,
    );
    let mut grid = inputs::heat_grid(seed, [n], 0);
    let mut t = 0;
    let whole_seconds = median_time(3, || {
        whole.run(&mut grid, t, t + steps);
        t += steps;
    });
    values.insert("ledger.shard_over_compiled", whole_seconds / shard_seconds);

    // The giant as a tenant group; the first round compiles the tile programs.
    let mut server = heat::serve_giant_1d(n, 8);
    let mut group = || {
        let grid = inputs::heat_grid(seed, [n], 0);
        time(|| {
            server
                .try_submit_sharded(grid, 0, steps, SubmitOptions::default())
                .and_then(|_| server.try_drain())
                .is_ok()
        })
    };
    let (_, first_ok) = group();
    let (group_seconds, second_ok) = group();
    values.insert("shard.serve_group_ms", group_seconds * 1e3);

    log.failed + usize::from(!warm_ok) + usize::from(!first_ok) + usize::from(!second_ok)
}

/// `serve::protocol`: frames through `write_frame` / `read_frame` on an in-memory
/// buffer — an 8 MiB `Submit` by bytes, a `Poll` / `Status` pair by calls.
fn protocol_probes(values: &mut Values) {
    let payload = 8usize << 20;
    let bulk = Frame::Submit {
        session: 0,
        tenant: 0,
        t0: 0,
        t1: 4,
        weight: 1,
        deadline: Deadline::None,
        elem: ElemType::F64,
        grid: (0..payload).map(|i| i as u8).collect(),
    };
    let mut wire = Vec::with_capacity(payload + 64);
    let encode = median_time(3, || {
        wire.clear();
        write_frame(&mut wire, &bulk).expect("writing to memory cannot fail");
    });
    let decode = median_time(3, || {
        std::hint::black_box(read_frame(&mut wire.as_slice()).expect("the frame round-trips"));
    });
    let mb = payload as f64 / 1e6;
    values.insert("protocol.encode_bulk_mb_s", mb / encode);
    values.insert("protocol.decode_bulk_mb_s", mb / decode);

    let batch = 1000;
    let mut small = Vec::new();
    let encode_small = median_time(5, || {
        for request in 0..batch {
            small.clear();
            write_frame(&mut small, &Frame::Poll { request }).expect("memory write");
        }
    });
    small.clear();
    let status = Frame::Status {
        status: RequestStatus::Done,
    };
    write_frame(&mut small, &status).expect("memory write");
    let decode_small = median_time(5, || {
        for _ in 0..batch {
            std::hint::black_box(read_frame(&mut small.as_slice()).expect("round-trips"));
        }
    });
    values.insert(
        "protocol.encode_small_us",
        encode_small / batch as f64 * 1e6,
    );
    values.insert(
        "protocol.decode_small_us",
        decode_small / batch as f64 * 1e6,
    );
}

/// `serve::server` + `serve::client`: one connection to a fresh loopback server,
/// call by call.  Returns the failed checks.
fn wire_probes(seed: u64, serve_seconds_per_request: f64, values: &mut Values) -> usize {
    clear_registry();
    let server = Server::start(ServeConfig::default()).expect("cannot bind a loopback port");
    let (connect, client) = time(|| Client::connect(server.addr()));
    let mut client = client.expect("cannot connect to the loopback server");
    values.insert("wire.connect_ms", connect * 1e3);

    let extents = [sizes::TENANT[0] as u64, sizes::TENANT[1] as u64];
    let negotiate = |client: &mut Client| {
        time(|| client.negotiate(TraceApp::Heat2d, &extents, sizes::TENANT_CHUNK))
    };
    let (cold, session) = negotiate(&mut client);
    let (warm, _) = negotiate(&mut client);
    let session = session.expect("the server refused a valid geometry");
    values.insert("wire.negotiate_cold_ms", cold * 1e3);
    values.insert("wire.negotiate_warm_ms", warm * 1e3);

    let grids = Grids::tenants(seed);
    let refs = grids.references(sizes::TENANT_HEAT_STEPS, sizes::TENANT_LIFE_STEPS);
    let steps = sizes::TENANT_HEAT_STEPS;
    let minute = Duration::from_secs(60);
    let mut failed = 0;
    let (mut submits, mut waits, mut fetches, mut totals) = (vec![], vec![], vec![], vec![]);
    for tenant in 0..3u32 {
        let grid = &grids.heat[tenant as usize];
        let (submit, id) =
            time(|| client.submit_grid(&session, grid, tenant, 0, steps, 1, Deadline::None));
        let Ok(id) = id else {
            failed += 1;
            continue;
        };
        let (wait, status) = time(|| client.wait(id, minute));
        let (fetch, result) = time(|| client.fetch(id));
        let ok = matches!(status, Ok(RequestStatus::Done))
            && result.is_ok_and(|r| r.bytes == refs[tenant as usize].bytes);
        failed += usize::from(!ok);
        submits.push(submit);
        waits.push(wait);
        fetches.push(fetch);
        totals.push(submit + wait + fetch);
    }
    values.insert("wire.submit_ms", median(&submits) * 1e3);
    values.insert("wire.wait_ms", median(&waits) * 1e3);
    values.insert("wire.fetch_ms", median(&fetches) * 1e3);
    let per_request = median(&totals);
    values.insert(
        "wire.added_share",
        1.0 - serve_seconds_per_request / per_request,
    );
    values.insert(
        "ledger.wire_over_serve",
        serve_seconds_per_request / per_request,
    );

    // A poll on a finished, unfetched request: the socket and framing floor.
    let polls: Vec<f64> = client
        .submit_grid(&session, &grids.heat[3], 3, 0, steps, 1, Deadline::None)
        .ok()
        .filter(|&id| matches!(client.wait(id, minute), Ok(RequestStatus::Done)))
        .map(|id| (0..5).map(|_| time(|| client.poll(id)).0).collect())
        .unwrap_or_default();
    failed += usize::from(polls.is_empty());
    values.insert("wire.poll_rtt_us", median(&polls) * 1e6);

    // One bulk request: payload bytes both ways over the request's wall time.
    let bulk_extents = [sizes::BULK[0] as u64, sizes::BULK[1] as u64];
    let bulk_grid = inputs::heat_grid(seed, sizes::BULK, 0);
    let cells: usize = sizes::BULK.iter().product();
    let moved = (4 * cells * f64::SIZE) as f64;
    let (bulk_seconds, bulk_ok) =
        match client.negotiate(TraceApp::Heat2d, &bulk_extents, sizes::BULK_STEPS) {
            Ok(bulk) => time(|| {
                client
                    .submit_grid(
                        &bulk,
                        &bulk_grid,
                        0,
                        0,
                        sizes::BULK_STEPS,
                        1,
                        Deadline::None,
                    )
                    .and_then(|id| client.wait_fetch(id, minute))
                    .is_ok_and(|r| r.bytes.len() == 2 * cells * f64::SIZE)
            }),
            Err(_) => (f64::INFINITY, false),
        };
    failed += usize::from(!bulk_ok);
    values.insert("wire.payload_mb_s", moved / 1e6 / bulk_seconds);

    let _ = client.close();
    server.shutdown();
    failed
}
