//! The six workloads.  Each is a closed loop: every caller blocks for its reply.
//!
//! `solve-heat2d`, `solve-life-wave3d` and `shard-giant` drive executor sessions
//! directly ([`Solve`]); `serve-tenants` drives in-process `StencilServer`s
//! ([`ServeTenants`]); `wire-tenants` and `wire-bulk` drive an in-process
//! `pochoir_serve` server over loopback TCP ([`Wire`]).  The harness only calls
//! public functions of the layers, with a span around each call.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pochoir_core::engine::{
    Coarsening, CompiledStencil, ExecutionPlan, SessionStats, ShardReport, StencilServer,
    SubmitOptions, TicketOutcome,
};
use pochoir_core::grid::PochoirArray;
use pochoir_core::kernel::StencilKernel;
use pochoir_serve::{Client, Deadline, RequestStatus, ServeConfig, Server, Session};
use pochoir_stencils::heat::HeatKernel;
use pochoir_stencils::life::LifeKernel;
use pochoir_stencils::traffic::digest_grid;
use pochoir_stencils::{heat, life, wave};

use crate::inputs::{
    self, final_bytes, heat_spec, reference, sizes, Cell, Grids, Reference, Request, TenantApp,
};
use crate::spans::{in_span, set_op, span, Layer};
use crate::stats::{Op, OpLog};

/// Workload names, in report order.
pub const WORKLOADS: [&str; 6] = [
    "solve-heat2d",
    "solve-life-wave3d",
    "serve-tenants",
    "shard-giant",
    "wire-tenants",
    "wire-bulk",
];

/// Ops in one traced pass of `workload`.  Fixed, so that every count a traced run
/// reports repeats exactly; long enough (≥ 0.1 s) that the traced pass and its
/// untraced twin can be compared.  The wire passes are short because a request
/// costs several delayed-ACK round trips (~90 ms each) on the current code.
pub fn pass_ops(workload: &str) -> usize {
    match workload {
        "solve-heat2d" => 8,
        "solve-life-wave3d" => 128,
        "serve-tenants" => 10 * 2 * sizes::ARRIVALS,
        "shard-giant" => 2,
        "wire-tenants" => 24,
        "wire-bulk" => 4,
        other => panic!("unknown workload {other}"),
    }
}

/// Client threads (= connections) of `wire-tenants`: two, capped at the core count
/// so the load generator cannot crowd out the server it shares the machine with.
pub fn client_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    2.min(cores)
}

/// Requests each `wire-tenants` connection keeps outstanding.
pub const WIRE_OUTSTANDING: usize = 4;

/// When a [`Running::drive`] call returns.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// Once the clock passes this many seconds (ops in flight still complete).
    Deadline(f64),
    /// After exactly this many ops.
    Ops(usize),
}

impl Stop {
    fn reached(self, clock: &Clock, issued: usize) -> bool {
        match self {
            Stop::Deadline(seconds) => clock.now() >= seconds,
            Stop::Ops(n) => issued >= n,
        }
    }
}

/// Seconds since a timed region began.
pub struct Clock(Instant);

impl Clock {
    /// Starts the region now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Seconds since the region began.
    pub fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Counts only the workload itself can see (everything else comes from the
/// process-wide counters).
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// The last `run_sharded` report.
    pub shard: ShardReport,
    /// Tile-program registry misses over every `run_sharded` call.
    pub shard_registry_misses: u64,
    /// Drain-local completion tick of every request of the last cycle of the list.
    pub completion_ticks: Vec<u64>,
}

/// A workload that has been set up and warmed.
pub trait Running {
    /// Whether the warm-up pass produced the reference bits.  Call before `drive`.
    fn warmup_ok(&self) -> bool;
    /// Issues ops until `stop`, logging each with times from `clock`.
    fn drive(&mut self, clock: &Clock, stop: Stop, log: &mut OpLog);
    /// Solve and shard workloads: one more logged op, replayed from its saved
    /// pre-state through the loops engine and compared.  Serve and wire workloads
    /// check every request as it completes, so they need nothing here.
    fn final_check(&mut self, _clock: &Clock, _log: &mut OpLog) {}
    /// Summed `SessionStats` of the sessions the workload ran on.
    fn session_stats(&self) -> SessionStats;
    /// Workload-local counts.
    fn counts(&self) -> Counts {
        Counts::default()
    }
}

/// Reference results of the requests `workload` submits (empty for the solve and
/// shard workloads, which compute theirs from saved pre-states).  Computed once,
/// before anything is timed.
pub fn references(workload: &str, seed: u64) -> Arc<Vec<Reference>> {
    Arc::new(match workload {
        "serve-tenants" | "wire-tenants" => {
            Grids::tenants(seed).references(sizes::TENANT_HEAT_STEPS, sizes::TENANT_LIFE_STEPS)
        }
        "wire-bulk" => Grids::bulk(seed).references(sizes::BULK_STEPS, 0),
        _ => Vec::new(),
    })
}

/// Set-up as a user pays it: inputs from the seed, grids, session compile or server
/// start and negotiate, and one warm-up pass.
pub fn setup(workload: &str, seed: u64, refs: &Arc<Vec<Reference>>) -> Box<dyn Running> {
    match workload {
        "solve-heat2d" => Box::new(Solve {
            lanes: vec![Box::new(Lane::new(
                seed,
                |seed| inputs::heat_grid(seed, sizes::HEAT, 0),
                || heat::session_2d(sizes::HEAT, sizes::HEAT_WINDOW),
                sizes::HEAT_WINDOW,
                false,
            ))],
            next: 0,
        }),
        "solve-life-wave3d" => Box::new(Solve {
            lanes: vec![
                Box::new(Lane::new(
                    seed,
                    |seed| inputs::life_grid(seed, sizes::LIFE, 0),
                    || life::session(sizes::LIFE, sizes::LIFE_WINDOW),
                    sizes::LIFE_WINDOW,
                    false,
                )),
                Box::new(Lane::new(
                    seed,
                    |seed| inputs::wave_grid(seed, sizes::WAVE),
                    || wave::session(sizes::WAVE, sizes::WAVE_WINDOW),
                    sizes::WAVE_WINDOW,
                    false,
                )),
            ],
            next: 0,
        }),
        "shard-giant" => Box::new(Solve {
            lanes: vec![Box::new(Lane::new(
                seed,
                |seed| inputs::heat_grid(seed, [sizes::GIANT], 0),
                giant_session,
                sizes::GIANT_STEPS,
                true,
            ))],
            next: 0,
        }),
        "serve-tenants" => Box::new(ServeTenants::setup(seed, Arc::clone(refs))),
        "wire-tenants" => Box::new(Wire::setup(
            WireShared {
                grids: in_span("build_grids", Layer::Harness, || Grids::tenants(seed)),
                requests: in_span("requests", Layer::Harness, || inputs::requests(seed)),
                refs: Arc::clone(refs),
                geometry: sizes::TENANT,
                chunk: sizes::TENANT_CHUNK,
                outstanding: WIRE_OUTSTANDING,
            },
            client_threads(),
            2,
        )),
        "wire-bulk" => Box::new(Wire::setup(
            WireShared {
                grids: in_span("build_grids", Layer::Harness, || Grids::bulk(seed)),
                requests: inputs::bulk_requests(),
                refs: Arc::clone(refs),
                geometry: sizes::BULK,
                chunk: sizes::BULK_STEPS,
                outstanding: 1,
            },
            1,
            1,
        )),
        other => panic!("unknown workload {other}"),
    }
}

/// The uncoarsened 1-D heat session `shard-giant` runs: its geometry fails
/// `schedule::should_compile`, so `Sharding::Auto` (the plan default) takes the
/// tile pipeline.
pub fn giant_session() -> CompiledStencil<f64, HeatKernel<1>, 1> {
    CompiledStencil::new(
        heat_spec::<1>(),
        HeatKernel::<1>::default(),
        ExecutionPlan::trap().with_coarsening(Coarsening::none()),
        [sizes::GIANT],
        sizes::GIANT_STEPS,
    )
}

fn add_stats(a: SessionStats, b: SessionStats) -> SessionStats {
    SessionStats {
        runs: a.runs + b.runs,
        schedule_reuses: a.schedule_reuses + b.schedule_reuses,
        schedule_fetches: a.schedule_fetches + b.schedule_fetches,
        schedule_compiles: a.schedule_compiles + b.schedule_compiles,
        schedule_rejections: a.schedule_rejections + b.schedule_rejections,
        sharded_runs: a.sharded_runs + b.sharded_runs,
        recursive_runs: a.recursive_runs + b.recursive_runs,
    }
}

// ---------------------------------------------------------------------------
// solve-heat2d, solve-life-wave3d, shard-giant
// ---------------------------------------------------------------------------

/// One grid stepped through one session, a window per op.
struct Lane<T, K, const D: usize> {
    seed: u64,
    rebuild: fn(u64) -> PochoirArray<T, D>,
    grid: PochoirArray<T, D>,
    session: CompiledStencil<T, K, D>,
    window: i64,
    /// First kernel-invocation time (1 for the depth-2 wave stencil).
    first: i64,
    /// Start of the next window.
    t: i64,
    /// `run_sharded` instead of `run`.
    sharded: bool,
    counts: Counts,
}

trait AnyLane {
    /// Runs the next window; returns the updates computed and whether the call succeeded.
    fn step(&mut self) -> (u64, bool);
    /// [`step`](Self::step), with the result compared against the loops engine run
    /// on a copy of the pre-state.
    fn checked_step(&mut self) -> (u64, bool);
    /// Whether the grid — still as the warm-up window left it — matches the loops
    /// engine run on a freshly rebuilt initial grid.
    fn warmup_ok(&self) -> bool;
    fn stats(&self) -> SessionStats;
    fn counts(&self) -> &Counts;
}

impl<T: Cell, K: StencilKernel<T, D>, const D: usize> Lane<T, K, D> {
    fn new(
        seed: u64,
        rebuild: fn(u64) -> PochoirArray<T, D>,
        session: impl FnOnce() -> CompiledStencil<T, K, D>,
        window: i64,
        sharded: bool,
    ) -> Self {
        let grid = in_span("build_grid", Layer::Harness, || rebuild(seed));
        let session = in_span("CompiledStencil::new", Layer::Solve, session);
        let first = session.program().spec().shape().first_step();
        let mut lane = Lane {
            seed,
            rebuild,
            grid,
            session,
            window,
            first,
            t: first,
            sharded,
            counts: Counts::default(),
        };
        lane.step();
        lane
    }

    fn matches_loops(&self, pre: &PochoirArray<T, D>, t0: i64) -> bool {
        let expected = reference(
            pre,
            self.session.program().spec(),
            self.session.kernel(),
            t0,
            t0 + self.window,
        );
        digest_grid(&self.grid, t0 + self.window) == expected.digest
    }
}

impl<T: Cell, K: StencilKernel<T, D>, const D: usize> AnyLane for Lane<T, K, D> {
    fn step(&mut self) -> (u64, bool) {
        let (t0, t1) = (self.t, self.t + self.window);
        let ok = if self.sharded {
            let _span = span("run_sharded", Layer::Shard);
            match self.session.run_sharded(&mut self.grid, t0, t1) {
                Ok(report) => {
                    self.counts.shard_registry_misses += report.registry_misses;
                    self.counts.shard = report;
                    true
                }
                Err(_) => false,
            }
        } else {
            let _span = span("run", Layer::Solve);
            self.session.run(&mut self.grid, t0, t1);
            true
        };
        self.t = t1;
        let cells: usize = self.grid.sizes().iter().product();
        (cells as u64 * self.window as u64, ok)
    }

    fn checked_step(&mut self) -> (u64, bool) {
        let pre = self.grid.clone();
        let t0 = self.t;
        let (updates, ok) = self.step();
        let _span = span("verify", Layer::Harness);
        (updates, ok && self.matches_loops(&pre, t0))
    }

    fn warmup_ok(&self) -> bool {
        self.t == self.first + self.window
            && self.matches_loops(&(self.rebuild)(self.seed), self.first)
    }

    fn stats(&self) -> SessionStats {
        self.session.stats()
    }

    fn counts(&self) -> &Counts {
        &self.counts
    }
}

/// Executor sessions driven directly, lanes taking turns.
struct Solve {
    lanes: Vec<Box<dyn AnyLane>>,
    next: usize,
}

impl Solve {
    fn log_step(
        &mut self,
        clock: &Clock,
        log: &mut OpLog,
        step: fn(&mut dyn AnyLane) -> (u64, bool),
    ) {
        set_op(self.next as u64);
        let _op = span("op", Layer::Harness);
        let lane = self.next % self.lanes.len();
        let start = clock.now();
        let (updates, ok) = step(self.lanes[lane].as_mut());
        log.push(Op {
            start,
            end: clock.now(),
            updates,
            ok,
        });
        self.next += 1;
    }
}

impl Running for Solve {
    fn warmup_ok(&self) -> bool {
        self.lanes.iter().all(|lane| lane.warmup_ok())
    }

    fn drive(&mut self, clock: &Clock, stop: Stop, log: &mut OpLog) {
        let begun = log.count;
        while !stop.reached(clock, log.count - begun) {
            self.log_step(clock, log, |lane| lane.step());
        }
    }

    fn final_check(&mut self, clock: &Clock, log: &mut OpLog) {
        for _ in 0..self.lanes.len() {
            self.log_step(clock, log, |lane| lane.checked_step());
        }
    }

    fn session_stats(&self) -> SessionStats {
        self.lanes
            .iter()
            .map(|lane| lane.stats())
            .fold(SessionStats::default(), add_stats)
    }

    fn counts(&self) -> Counts {
        self.lanes[0].counts().clone()
    }
}

// ---------------------------------------------------------------------------
// serve-tenants
// ---------------------------------------------------------------------------

/// How a result is compared with its reference.
#[derive(Clone, Copy)]
enum Check {
    /// `traffic::digest_grid` / `FetchedResult::digest` — the warm-up pass, so the
    /// digest path every other harness in the repo relies on is exercised.
    Digest,
    /// The final two slices byte for byte: strictly stronger than the digest and
    /// ~30× cheaper, which keeps the harness's share of a small op small.
    Bytes,
}

/// In-process `StencilServer`s fed the seeded request list, one epoch at a time,
/// from one thread.
struct ServeTenants {
    heat: StencilServer<f64, HeatKernel<2>, 2>,
    life: StencilServer<u8, LifeKernel, 2>,
    grids: Grids,
    requests: Vec<Request>,
    refs: Arc<Vec<Reference>>,
    /// Next request to submit (always the first of an epoch).
    cursor: usize,
    /// Requests issued so far; the op id of the next one.
    issued: u64,
    warm_ok: bool,
    completion_ticks: Vec<u64>,
}

/// A submitted request waiting for its drain: index in the list, submit time.
type Queued = Vec<(usize, f64)>;

impl ServeTenants {
    fn setup(seed: u64, refs: Arc<Vec<Reference>>) -> ServeTenants {
        let requests = in_span("requests", Layer::Harness, || inputs::requests(seed));
        let grids = in_span("build_grids", Layer::Harness, || Grids::tenants(seed));
        let (heat, life) = in_span("try_serve", Layer::Serving, || {
            (
                heat::try_serve_2d(sizes::TENANT, sizes::TENANT_CHUNK)
                    .expect("the tenant heat geometry is valid"),
                life::try_serve(sizes::TENANT, sizes::TENANT_CHUNK)
                    .expect("the tenant life geometry is valid"),
            )
        });
        let mut this = ServeTenants {
            heat,
            life,
            grids,
            requests,
            refs,
            cursor: 0,
            issued: 0,
            warm_ok: false,
            completion_ticks: Vec::new(),
        };
        // Warm-up: the whole list once, digest-checked.
        let clock = Clock::start();
        let mut log = OpLog::counting();
        while log.count < this.requests.len() {
            this.epoch(&clock, &mut log, Check::Digest);
        }
        this.warm_ok = log.failed == 0;
        this
    }

    /// Submits the next epoch's requests, drains both servers, checks every result.
    fn epoch(&mut self, clock: &Clock, log: &mut OpLog, check: Check) {
        let _epoch = span("epoch", Layer::Harness);
        if self.cursor == 0 {
            // Keep one cycle's worth: the harness's memory must not grow with the ops.
            self.completion_ticks.clear();
        }
        let epoch = self.requests[self.cursor].epoch;
        let (mut heat_queue, mut life_queue) = (Queued::new(), Queued::new());
        while self.cursor < self.requests.len() && self.requests[self.cursor].epoch == epoch {
            let r = &self.requests[self.cursor];
            set_op(self.issued);
            let start = clock.now();
            let opts = SubmitOptions {
                weight: r.weight,
                deadline: r.deadline,
            };
            let tenant = r.tenant as usize;
            // The server takes the grid by value; the copy is the client's cost.
            let submitted = match r.app {
                TenantApp::Heat => {
                    let grid = self.grids.heat[tenant].clone();
                    let _span = span("try_submit_with", Layer::Serving);
                    self.heat
                        .try_submit_with(grid, 0, r.steps, opts)
                        .map(|_| &mut heat_queue)
                }
                TenantApp::Life => {
                    let grid = self.grids.life[tenant].clone();
                    let _span = span("try_submit_with", Layer::Serving);
                    self.life
                        .try_submit_with(grid, 0, r.steps, opts)
                        .map(|_| &mut life_queue)
                }
            };
            match submitted {
                Ok(queue) => queue.push((self.cursor, start)),
                Err(_) => log.push(Op {
                    start,
                    end: clock.now(),
                    updates: r.updates,
                    ok: false,
                }),
            }
            self.cursor += 1;
            self.issued += 1;
        }
        if self.cursor == self.requests.len() {
            self.cursor = 0;
        }
        let shared = (&self.grids, &self.requests[..], &self.refs[..]);
        let ticks = &mut self.completion_ticks;
        drain_checked(
            &mut self.heat,
            &heat_queue,
            shared,
            check,
            clock,
            log,
            ticks,
        );
        drain_checked(
            &mut self.life,
            &life_queue,
            shared,
            check,
            clock,
            log,
            ticks,
        );
    }
}

/// Drains `server` and logs one op per queued request, ticket order.
fn drain_checked<T: Cell, K: StencilKernel<T, 2>>(
    server: &mut StencilServer<T, K, 2>,
    queued: &Queued,
    (grids, requests, refs): (&Grids, &[Request], &[Reference]),
    check: Check,
    clock: &Clock,
    log: &mut OpLog,
    completion_ticks: &mut Vec<u64>,
) {
    if queued.is_empty() {
        return;
    }
    let results = in_span("try_drain", Layer::Serving, || server.try_drain());
    let report = server.last_drain();
    let _span = span("verify", Layer::Harness);
    for (ticket, &(index, start)) in queued.iter().enumerate() {
        let r = &requests[index];
        let expected = &refs[grids.reference_index(r)];
        let completed = report
            .and_then(|rep| rep.outcome(ticket))
            .is_some_and(|o| matches!(o, TicketOutcome::Completed));
        let ok = completed
            && results
                .as_ref()
                .ok()
                .and_then(|drained| drained.get(ticket))
                .is_some_and(|grid| match check {
                    Check::Digest => digest_grid(grid, r.steps) == expected.digest,
                    Check::Bytes => final_bytes(grid, r.steps) == expected.bytes,
                });
        if let Some(tick) = report.and_then(|rep| rep.completion_tick.get(ticket)) {
            completion_ticks.push(*tick);
        }
        log.push(Op {
            start,
            end: clock.now(),
            updates: r.updates,
            ok,
        });
    }
}

impl Running for ServeTenants {
    fn warmup_ok(&self) -> bool {
        self.warm_ok
    }

    fn drive(&mut self, clock: &Clock, stop: Stop, log: &mut OpLog) {
        let begun = log.count;
        while !stop.reached(clock, log.count - begun) {
            self.epoch(clock, log, Check::Bytes);
        }
    }

    fn session_stats(&self) -> SessionStats {
        add_stats(self.heat.stats(), self.life.stats())
    }

    fn counts(&self) -> Counts {
        Counts {
            completion_ticks: self.completion_ticks.clone(),
            ..Counts::default()
        }
    }
}

// ---------------------------------------------------------------------------
// wire-tenants, wire-bulk
// ---------------------------------------------------------------------------

/// An in-process `pochoir_serve` server on an ephemeral loopback port, and the
/// client connections (one thread each) that load it.
pub struct Wire {
    server: Option<Server>,
    conns: Vec<Conn>,
    shared: WireShared,
    warm_ok: bool,
}

/// What every connection thread reads.
struct WireShared {
    grids: Grids,
    requests: Vec<Request>,
    refs: Arc<Vec<Reference>>,
    geometry: [usize; 2],
    chunk: i64,
    /// Requests a connection keeps in flight.
    outstanding: usize,
}

struct Conn {
    client: Client,
    /// Negotiated sessions, indexed by `TenantApp as usize` (life absent for bulk).
    sessions: Vec<Session>,
    /// This is connection `index` of `of`: it takes every `of`-th request of the
    /// list, starting at `index`, cycling.
    index: usize,
    of: usize,
    /// Requests this connection has submitted.
    submitted: usize,
}

impl Wire {
    /// Starts the server, opens `threads` connections, negotiates every app on
    /// each, and runs `warmup_per_conn` digest-checked requests per connection.
    fn setup(shared: WireShared, threads: usize, warmup_per_conn: usize) -> Wire {
        let server = in_span("Server::start", Layer::Wire, || {
            Server::start(ServeConfig::default()).expect("cannot bind a loopback port")
        });
        let extents = [shared.geometry[0] as u64, shared.geometry[1] as u64];
        let apps: &[TenantApp] = if shared.grids.life.is_empty() {
            &[TenantApp::Heat]
        } else {
            &[TenantApp::Heat, TenantApp::Life]
        };
        let conns = (0..threads)
            .map(|index| {
                let mut client = in_span("connect", Layer::Wire, || {
                    Client::connect(server.addr()).expect("cannot connect to the loopback server")
                });
                let sessions = apps
                    .iter()
                    .map(|app| {
                        in_span("negotiate", Layer::Wire, || {
                            client
                                .negotiate(app.trace_app(), &extents, shared.chunk)
                                .expect("the server refused a valid geometry")
                        })
                    })
                    .collect();
                Conn {
                    client,
                    sessions,
                    index,
                    of: threads,
                    submitted: 0,
                }
            })
            .collect();
        let mut wire = Wire {
            server: Some(server),
            conns,
            shared,
            warm_ok: false,
        };
        let mut log = OpLog::counting();
        wire.drive_with(
            &Clock::start(),
            Stop::Ops(warmup_per_conn * threads),
            &mut log,
            Check::Digest,
        );
        wire.warm_ok = log.failed == 0;
        wire
    }

    fn drive_with(&mut self, clock: &Clock, stop: Stop, log: &mut OpLog, check: Check) {
        let threads = self.conns.len();
        let shared = &self.shared;
        let per_conn = match stop {
            Stop::Ops(n) => Stop::Ops(n / threads),
            deadline => deadline,
        };
        let log = Mutex::new(log);
        // The scope joins every client thread and re-raises a panic of any.
        std::thread::scope(|scope| {
            for conn in &mut self.conns {
                let log = &log;
                scope.spawn(move || conn.drive(shared, clock, per_conn, check, log));
            }
        });
    }
}

impl Conn {
    /// This connection's closed loop: keep `outstanding` requests in flight, always
    /// collecting the oldest.
    fn drive(
        &mut self,
        shared: &WireShared,
        clock: &Clock,
        stop: Stop,
        check: Check,
        log: &Mutex<&mut OpLog>,
    ) {
        let _connection = span("connection", Layer::Harness);
        // (request id or submit failure, index in the list, submit time)
        let mut in_flight: VecDeque<(Option<u64>, usize, f64)> = VecDeque::new();
        let mut issued = 0;
        loop {
            let stopping = stop.reached(clock, issued);
            if !stopping && in_flight.len() < shared.outstanding {
                let nth = self.index + self.of * self.submitted;
                let index = nth % shared.requests.len();
                set_op(nth as u64);
                let start = clock.now();
                in_flight.push_back((self.submit(shared, index), index, start));
                self.submitted += 1;
                issued += 1;
                continue;
            }
            let Some((request, index, start)) = in_flight.pop_front() else {
                return;
            };
            let r = &shared.requests[index];
            let expected = &shared.refs[shared.grids.reference_index(r)];
            let ok = request.is_some_and(|id| self.collect(id, expected, check));
            log.lock().expect("a client thread panicked").push(Op {
                start,
                end: clock.now(),
                updates: r.updates,
                ok,
            });
            if request.is_none() {
                // A refused or broken submit will not heal; do not spin on it.
                return;
            }
        }
    }

    fn submit(&mut self, shared: &WireShared, index: usize) -> Option<u64> {
        let r = &shared.requests[index];
        let session = &self.sessions[r.app as usize];
        let deadline = r.deadline.map_or(Deadline::None, Deadline::Logical);
        let tenant = r.tenant as usize;
        let _span = span("submit_grid", Layer::Wire);
        match r.app {
            TenantApp::Heat => self.client.submit_grid(
                session,
                &shared.grids.heat[tenant],
                r.tenant,
                0,
                r.steps,
                r.weight,
                deadline,
            ),
            TenantApp::Life => self.client.submit_grid(
                session,
                &shared.grids.life[tenant],
                r.tenant,
                0,
                r.steps,
                r.weight,
                deadline,
            ),
        }
        .ok()
    }

    /// Waits for `request`, fetches it and compares it with `expected`.
    fn collect(&mut self, request: u64, expected: &Reference, check: Check) -> bool {
        let status = in_span("wait", Layer::Wire, || {
            self.client.wait(request, Duration::from_secs(60))
        });
        if !matches!(status, Ok(RequestStatus::Done)) {
            return false;
        }
        let Ok(result) = in_span("fetch", Layer::Wire, || self.client.fetch(request)) else {
            return false;
        };
        let _span = span("verify", Layer::Harness);
        match check {
            Check::Digest => result.digest() == expected.digest,
            Check::Bytes => result.bytes == expected.bytes,
        }
    }
}

impl Running for Wire {
    fn warmup_ok(&self) -> bool {
        self.warm_ok
    }

    fn drive(&mut self, clock: &Clock, stop: Stop, log: &mut OpLog) {
        self.drive_with(clock, stop, log, Check::Bytes);
    }

    /// The server's sessions are out of reach, but their compiled programs are the
    /// process-global registry's: a local server of the same preset shares them
    /// (one registry hit each) and reads their counters.
    fn session_stats(&self) -> SessionStats {
        let shared = &self.shared;
        let heat = heat::try_serve_2d(shared.geometry, shared.chunk).map(|s| s.stats());
        let life = if shared.grids.life.is_empty() {
            Ok(SessionStats::default())
        } else {
            life::try_serve(shared.geometry, shared.chunk).map(|s| s.stats())
        };
        add_stats(heat.unwrap_or_default(), life.unwrap_or_default())
    }
}

impl Drop for Wire {
    /// Says goodbye on every connection, then stops the server and joins its threads.
    fn drop(&mut self) {
        for conn in self.conns.drain(..) {
            let _ = conn.client.close();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
