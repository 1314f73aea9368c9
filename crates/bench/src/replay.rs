//! Trace replay: drives [`pochoir_trace`] traffic through [`StencilServer`]s, or
//! straight through their compiled programs, and digests every resulting grid, so
//! the harness can assert — not merely time — that pipelined multi-tenant serving
//! computes the same bits as per-array sequential runs.
//!
//! One [`Trace`] maps onto servers as follows: every distinct `(app, geometry)`
//! pair gets its own server (a `StencilServer` is typed per compiled geometry),
//! built with the trace's `chunk` as its drain window; records are replayed in
//! arrival order, bucketed into epochs of `trace.epoch` ticks, and every server
//! with pending work drains at each epoch boundary.  Servers are built by
//! [`AnyServer::build`], the presets `pochoir-serve` itself uses; every record,
//! `HeatGiant1d` included, is a plain submission.
//!
//! Everything the replay reports except wall-clock time is deterministic for a
//! given trace on one worker thread (`POCHOIR_NUM_THREADS=1`): grid contents are
//! pure functions of `(app, geometry, tenant)`, submission order is the trace
//! order, and the drain's dispatch order is deterministic when dispatch is serial.
//! With more workers the *digests* still match (the engines are bitwise
//! order-independent across tenants) but completion ticks, deadline misses and
//! peak-ready gauges may vary; `tests/corpus_counters.rs` therefore pins those only
//! at one worker, and everything else at any worker count.

use std::collections::BTreeMap;

use pochoir_core::engine::{AdmissionPolicy, ServeError, StencilServer, SubmitOptions};
use pochoir_core::grid::PochoirArray;
use pochoir_core::kernel::StencilKernel;
use pochoir_runtime::Runtime;
use pochoir_serve::server::AnyServer;
use pochoir_serve::with_server;
use pochoir_stencils::traffic::{digest_grid, heat_grid, life_grid, usizes, wave_grid, DigestBits};
use pochoir_trace::{Trace, TraceApp, TraceRecord};

/// How the replay runs the traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// `StencilServer::try_drain` at each epoch boundary: per-window work items flow
    /// through the weighted/deadline ready queue with no cross-tenant barrier.
    Pipelined,
    /// No queue at all: each record runs immediately at submit time as one
    /// `CompiledProgram::run` of its array on the shared compiled program.
    Sequential,
}

/// Replay knobs beyond the trace itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayOptions {
    /// Admission policy installed on every server the replay builds; `None`
    /// admits everything (the serving default).  With a policy, records the
    /// server sheds at submit time are recorded (not queued) and excluded from
    /// the bitwise comparison.
    pub admission: Option<AdmissionPolicy>,
}

/// What one discipline's replay of one trace produced.
#[derive(Clone, Debug, Default)]
pub struct DisciplineRun {
    /// Wall-clock seconds for the whole replay loop (grid construction included —
    /// identical work across disciplines, so the comparison stays fair).
    pub elapsed: f64,
    /// Per record (trace order): FNV-1a digest over the final two time slices of
    /// the drained grid, or `None` if admission shed the record.
    pub digests: Vec<Option<u64>>,
    /// Records shed at submit time (always 0 without an admission policy; the
    /// sequential discipline has no queue and never sheds).
    pub shed: u64,
    /// Stencil points actually computed (geometry volume × window, summed over
    /// records that ran).
    pub points: f64,
    /// Per-window work items dispatched, summed over every epoch drain
    /// (pipelined only, as are the drain fields below).
    pub windows: u64,
    /// Largest ready-queue high-water mark over all epoch drains.
    pub peak_ready: usize,
    /// Submissions whose final window dispatched past its logical deadline,
    /// summed over every epoch drain.
    pub deadline_misses: u64,
    /// Completion tick of each completed record, drain-local (each epoch drain
    /// restarts its logical clock), in record order.
    pub completion_ticks: Vec<u64>,
    /// Epoch drains executed.
    pub drains: u64,
}

/// Bookkeeping for one queue ticket: which trace record it belongs to and the time
/// horizon to digest at.
struct QueuedTicket {
    record: usize,
    t1: i64,
}

/// One server plus the ticket ledger for its current epoch.
struct ReplayServer {
    inner: AnyServer,
    queued: Vec<QueuedTicket>,
}

impl ReplayServer {
    fn build(app: TraceApp, geometry: &[u64], chunk: i64, opts: &ReplayOptions) -> ReplayServer {
        ReplayServer {
            inner: AnyServer::build(app, geometry, chunk, opts.admission)
                .expect("trace geometry builds a server"),
            queued: Vec::new(),
        }
    }

    /// Queues one record (its grid built deterministically from the tenant id).
    fn submit(&mut self, index: usize, rec: &TraceRecord) -> Result<(), ServeError> {
        let opts = SubmitOptions {
            weight: rec.weight,
            deadline: rec.deadline,
        };
        let t1 = rec.window;
        match &mut self.inner {
            AnyServer::Heat2d(s) => s.try_submit_with(
                heat_grid(usizes::<2>(&rec.geometry), rec.tenant),
                0,
                t1,
                opts,
            )?,
            AnyServer::Life(s) => s.try_submit_with(
                life_grid(usizes::<2>(&rec.geometry), rec.tenant),
                0,
                t1,
                opts,
            )?,
            AnyServer::Wave3d(s) => s.try_submit_with(
                wave_grid(usizes::<3>(&rec.geometry), rec.tenant),
                0,
                t1,
                opts,
            )?,
            AnyServer::HeatGiant1d(s) => s.try_submit_with(
                heat_grid(usizes::<1>(&rec.geometry), rec.tenant),
                0,
                t1,
                opts,
            )?,
        };
        self.queued.push(QueuedTicket { record: index, t1 });
        Ok(())
    }

    fn pending(&self) -> bool {
        !self.queued.is_empty()
    }

    /// Drains the epoch's queue and credits each ticket's digest and completion tick
    /// back to its record.
    fn drain_epoch(&mut self, run: &mut DisciplineRun) {
        let queued = std::mem::take(&mut self.queued);
        let (digests, report): (Vec<u64>, _) = with_server!(&mut self.inner, s => {
            let results = s.try_drain().expect("a drain reports per-ticket failures");
            let digests = queued
                .iter()
                .zip(&results)
                .map(|(q, grid)| digest_grid(grid, q.t1))
                .collect();
            (digests, s.last_drain().cloned().expect("a drain leaves its report"))
        });
        for (i, (q, digest)) in queued.iter().zip(digests).enumerate() {
            run.digests[q.record] = Some(digest);
            run.completion_ticks
                .push(report.completion_tick.get(i).copied().unwrap_or(0));
        }
        run.windows += report.windows;
        run.peak_ready = run.peak_ready.max(report.peak_ready);
        run.deadline_misses += report.deadline_misses;
        run.drains += 1;
    }

    /// Runs one record immediately as one monolithic run on the shared program —
    /// the no-serving baseline.  A giant program's monolithic run compiles the whole
    /// grid at the engine-made base case, as its drained windows do.
    fn run_direct(&mut self, rec: &TraceRecord) -> u64 {
        fn one<T: DigestBits + Send + Sync + 'static, K: StencilKernel<T, D>, const D: usize>(
            server: &StencilServer<T, K, D>,
            mut grid: PochoirArray<T, D>,
            t1: i64,
        ) -> u64 {
            let par = Runtime::global();
            server.program().run(&mut grid, server.kernel(), 0, t1, par);
            digest_grid(&grid, t1)
        }
        let t1 = rec.window;
        match &self.inner {
            AnyServer::Heat2d(s) => one(s, heat_grid(usizes::<2>(&rec.geometry), rec.tenant), t1),
            AnyServer::Life(s) => one(s, life_grid(usizes::<2>(&rec.geometry), rec.tenant), t1),
            AnyServer::Wave3d(s) => one(s, wave_grid(usizes::<3>(&rec.geometry), rec.tenant), t1),
            AnyServer::HeatGiant1d(s) => {
                one(s, heat_grid(usizes::<1>(&rec.geometry), rec.tenant), t1)
            }
        }
    }

    fn session_stats(&self) -> pochoir_core::engine::SessionStats {
        with_server!(&self.inner, s => s.stats())
    }
}

/// Replays `trace` under one discipline.  Records are bucketed by
/// `arrival_tick / trace.epoch`; every server with pending work drains at each
/// bucket boundary, in deterministic `(app, geometry)` key order.
pub fn replay(trace: &Trace, discipline: Discipline, opts: &ReplayOptions) -> DisciplineRun {
    replay_with_sessions(trace, discipline, opts).0
}

/// Summed session counters across every server one replay built.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionTotals {
    /// Windows executed across every server.
    pub runs: u64,
    /// Runs served by a pinned schedule with no cache traffic.
    pub schedule_reuses: u64,
    /// Schedule-cache lookups.
    pub schedule_fetches: u64,
    /// Lookups that compiled a fresh schedule.
    pub schedule_compiles: u64,
    /// Runs whose literal base case failed the compiled-route gate (the giants).
    pub schedule_rejections: u64,
    /// Distinct `(app, geometry)` servers the trace forced into existence.
    pub servers: u64,
}

/// Replays `trace` under one discipline and also reports the summed session
/// counters of every server the replay built.
pub fn replay_with_sessions(
    trace: &Trace,
    discipline: Discipline,
    opts: &ReplayOptions,
) -> (DisciplineRun, SessionTotals) {
    // Reuse `replay`'s loop by re-running? No — run once, capturing the servers.
    let mut order: Vec<&TraceRecord> = trace.records.iter().collect();
    order.sort_by_key(|r| r.arrival_tick);

    let mut run = DisciplineRun {
        digests: vec![None; trace.records.len()],
        ..DisciplineRun::default()
    };
    let mut servers: BTreeMap<(TraceApp, Vec<u64>), ReplayServer> = BTreeMap::new();

    let start = std::time::Instant::now();
    let mut current_epoch: Option<u64> = None;
    for (index, rec) in order.iter().enumerate() {
        let epoch = rec.arrival_tick / trace.epoch;
        if discipline != Discipline::Sequential && current_epoch.is_some_and(|e| e != epoch) {
            for server in servers.values_mut().filter(|s| s.pending()) {
                server.drain_epoch(&mut run);
            }
        }
        current_epoch = Some(epoch);

        let key = (rec.app, rec.geometry.clone());
        let server = servers
            .entry(key)
            .or_insert_with(|| ReplayServer::build(rec.app, &rec.geometry, trace.chunk, opts));
        let record_points = rec.geometry.iter().product::<u64>() as f64 * rec.window as f64;
        if discipline == Discipline::Sequential {
            run.digests[index] = Some(server.run_direct(rec));
            run.points += record_points;
        } else {
            match server.submit(index, rec) {
                Ok(()) => run.points += record_points,
                Err(ServeError::Shed { .. }) => run.shed += 1,
                Err(e) => panic!("replay submit failed: {e}"),
            }
        }
    }
    if discipline != Discipline::Sequential {
        for server in servers.values_mut().filter(|s| s.pending()) {
            server.drain_epoch(&mut run);
        }
    }
    run.elapsed = start.elapsed().as_secs_f64();

    let mut totals = SessionTotals {
        servers: servers.len() as u64,
        ..SessionTotals::default()
    };
    for server in servers.values() {
        let s = server.session_stats();
        totals.runs += s.runs;
        totals.schedule_reuses += s.schedule_reuses;
        totals.schedule_fetches += s.schedule_fetches;
        totals.schedule_compiles += s.schedule_compiles;
        totals.schedule_rejections += s.schedule_rejections;
    }
    (run, totals)
}

/// True when every record that ran under both disciplines produced the same
/// digest — records one side shed are skipped, records neither side ran fail.
pub fn digests_agree(a: &DisciplineRun, b: &DisciplineRun) -> bool {
    a.digests.len() == b.digests.len()
        && a.digests.iter().zip(&b.digests).all(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => x == y,
            _ => true,
        })
}

/// The `q`-th percentile (0–100) of completion ticks, by the nearest-rank index
/// `((len - 1) * q) / 100` over the sorted list; 0 when empty.
pub fn percentile(ticks: &[u64], q: u64) -> u64 {
    if ticks.is_empty() {
        return 0;
    }
    let mut sorted = ticks.to_vec();
    sorted.sort_unstable();
    sorted[((sorted.len() - 1) as u64 * q / 100) as usize]
}
