//! Executor sessions: one execution pipeline from entry point to base case.
//!
//! ## Why a session layer?
//!
//! The paper's model is that a stencil *program* is compiled once and run many times,
//! but the historical entry points re-did per-call work the schedule cache only papered
//! over: [`engine::run`](crate::engine::run) re-derived the engine→strategy wiring and
//! re-looked-up the compiled schedule on every call, `run_traced` maintained a parallel
//! copy of the dispatch, and the `Pochoir` object re-validated its registered array per
//! `Run(T, kern)`.  This module is the single pipeline all of them now route through:
//!
//! ```text
//!   DSL (`Pochoir`) ──┐
//!   `engine::run` ────┤                       ┌─ compiled `Schedule` (arena sweep)
//!   `run_traced` ─────┼─→ `CompiledProgram` ──┼─ recursive `Walker` (reference path)
//!   bench harness ────┘        │              └─ loop nests
//!                              └─→ `base::execute_leaf` (segment-level clone resolution)
//! ```
//!
//! [`CompiledProgram`] is the kernel-independent half of a session: the validated
//! geometry, the execution plan, the resolved [`CutStrategy`], the **pinned**
//! `Arc<Schedule>` of its own window height (compiled eagerly at build time, replayed
//! across shifted time windows), and per-session [`SessionStats`] counters.
//! [`CompiledStencil`] pairs a program with an owned kernel and an optional pinned
//! runtime — the session object a serving deployment holds per stencil program,
//! calling [`run`](CompiledStencil::run) once per time window.
//!
//! ## Execution routes
//!
//! * **Compiled** (TRAP/STRAP default): a window of the session's own height replays
//!   the pinned schedule; a window of any other height fetches from the
//!   process-global schedule cache, which compiles each key at most once.  Leaves
//!   execute through [`base::execute_leaf`], whose segment-level clone resolution
//!   keeps boundary-leaf interiors on the fast clone.
//! * **Giant**: a window whose arena at the plan's literal base case would not be
//!   worth materializing ([`schedule::should_compile`]) is geometry the engine makes
//!   itself, so it replays the whole grid's schedule at [`Coarsening::engine_made`]
//!   instead — unless [`Sharding::Off`] asks for the literal walker.
//! * **Recursive** ([`ScheduleMode::Recursive`]): the storeless reference walker, kept
//!   for equivalence testing and for giants that fail the gate even at the engine-made
//!   base case.  It feeds its leaves through the *same* [`base::execute_leaf`]
//!   dispatch, so the two routes are bit-identical — including hybrid clone
//!   resolution, which the walker historically lacked.
//! * **Loops**: the Figure-1 baselines, unchanged.
//!
//! None of these tiles the grid: the halo-exchanged tiles of [`shard`] run only
//! through the explicit [`CompiledProgram::try_run_sharded`].
//!
//! The traced mode ([`CompiledProgram::run_traced`]) honours the plan's
//! [`ScheduleMode`]: compiled plans trace the arena sweep, recursive plans trace the
//! recursion — with identical access counts, since both cover the same space-time
//! points exactly once.

use crate::engine::base;
use crate::engine::faults;
use crate::engine::loops;
use crate::engine::plan::{
    CloneMode, Coarsening, EngineKind, ExecutionPlan, ScheduleMode, Sharding,
};
use crate::engine::schedule::{self, Schedule};
use crate::engine::shard;
use crate::engine::walker::{cut_with_strategy, CutStrategy, Walker};
use crate::grid::{PochoirArray, RawGrid};
use crate::kernel::{StencilKernel, StencilSpec};
use crate::view::{AccessTracer, TracingView};
use crate::zoid::Zoid;
use pochoir_runtime::{Counter, Parallelism, Runtime, Serial};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-session executor counters (relaxed atomics; advisory, like the runtime's
/// scheduler metrics).
#[derive(Debug, Default)]
struct SessionMetrics {
    runs: AtomicU64,
    schedule_reuses: AtomicU64,
    schedule_fetches: AtomicU64,
    schedule_compiles: AtomicU64,
    schedule_rejections: AtomicU64,
    sharded_runs: AtomicU64,
    recursive_runs: AtomicU64,
}

/// A point-in-time copy of a session's executor counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Windows executed through this session (including traced runs).
    pub runs: u64,
    /// Runs of the session's own window height, served by its pinned `Arc<Schedule>`
    /// with no cache traffic at all.
    pub schedule_reuses: u64,
    /// Schedule-cache lookups this session performed: the one at build time, and one
    /// per compiled run whose window height differs from the pinned schedule's.
    pub schedule_fetches: u64,
    /// Fetches that had to compile a fresh schedule (global-cache misses).
    pub schedule_compiles: u64,
    /// Runs whose plan's literal base case [`schedule::should_compile`] rejected —
    /// the giants, also surfaced process-wide as the runtime metric
    /// `schedule_compile_rejections`.
    pub schedule_rejections: u64,
    /// Runs of the explicit tile pipeline
    /// ([`try_run_sharded`](CompiledProgram::try_run_sharded)).
    pub sharded_runs: u64,
    /// Runs served by the recursive reference walker: deliberately recursive plans,
    /// giants under [`Sharding::Off`], and giants too large even at the engine-made
    /// base case.
    pub recursive_runs: u64,
}

/// A session geometry the executor cannot compile or run: non-positive grid extents,
/// a negative window height, or an array that does not match the session's compiled
/// geometry.  The `detail` message is exactly what the panicking entry points
/// ([`CompiledStencil::new`], [`CompiledProgram::run`]) panic with, so callers that
/// migrate from `expect`-style handling to the `try_` APIs keep their message matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeometryError {
    /// Human-readable description of the mismatch.
    pub detail: String,
}

impl std::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid session geometry: {}", self.detail)
    }
}

impl std::error::Error for GeometryError {}

impl GeometryError {
    fn new(detail: impl Into<String>) -> Self {
        GeometryError {
            detail: detail.into(),
        }
    }
}

/// The kernel-independent half of an executor session: validated geometry, resolved
/// strategy, pinned schedule, and session counters.
///
/// `Pochoir` holds one of these per registered array (its kernels arrive by reference
/// on every `Run`); [`CompiledStencil`] composes one with an owned kernel for callers
/// that bind the kernel up front.
pub struct CompiledProgram<const D: usize> {
    spec: StencilSpec<D>,
    plan: ExecutionPlan<D>,
    sizes: [i64; D],
    /// The window height the program was built (and eagerly compiled) for; the
    /// serving layer uses it as the per-window chunk height of pipelined drains.
    window: i64,
    /// Resolved once from the plan: `None` for the loop engines.
    strategy: Option<CutStrategy>,
    /// The schedule of windows of height `window`, resolved at build and replayed by
    /// every run of that height; `None` when such windows take no compiled route.
    /// Immutable, so a replay takes no lock.
    pinned: Option<Arc<Schedule<D>>>,
    metrics: SessionMetrics,
}

impl<const D: usize> CompiledProgram<D> {
    /// Builds a session program for grids of extent `sizes`, eagerly compiling (or
    /// fetching from the process-global cache) and pinning the schedule for time
    /// windows of height `window` when the plan takes the compiled route.  Returns
    /// [`GeometryError`] when the geometry cannot be compiled (a non-positive grid
    /// extent or a negative window height).
    pub fn try_new(
        spec: StencilSpec<D>,
        plan: ExecutionPlan<D>,
        sizes: [i64; D],
        window: i64,
    ) -> Result<Self, GeometryError> {
        faults::maybe_fail_compile();
        if let Some(bad) = sizes.iter().find(|&&s| s < 1) {
            return Err(GeometryError::new(format!(
                "grid extents {sizes:?} contain non-positive extent {bad}"
            )));
        }
        if window < 0 {
            return Err(GeometryError::new(format!(
                "window height {window} is negative"
            )));
        }
        let mut program = CompiledProgram {
            strategy: plan.cut_strategy(),
            spec,
            plan,
            sizes,
            window,
            pinned: None,
            metrics: SessionMetrics::default(),
        };
        let coarsening = program.base_case(window);
        if window > 0 && program.compiles(&coarsening, window) {
            program.pinned = Some(program.fetch_schedule(window, coarsening));
        }
        Ok(program)
    }

    /// The stencil specification the session was built from.
    pub fn spec(&self) -> &StencilSpec<D> {
        &self.spec
    }

    /// The execution plan the session was built from.
    pub fn plan(&self) -> &ExecutionPlan<D> {
        &self.plan
    }

    /// The grid extents the session was built for.
    pub fn sizes(&self) -> [i64; D] {
        self.sizes
    }

    /// The window height the session was built (and eagerly compiled) for.  Runs of
    /// other heights still work — each fetches its schedule from the process-global
    /// cache — but this height is the steady-state replay unit, and the serving
    /// layer's pipelined drain chops submissions into chunks of it.
    pub fn window(&self) -> i64 {
        self.window
    }

    /// The pinned schedule of the session's own window height, if windows of that
    /// height take the compiled route.
    pub fn schedule(&self) -> Option<Arc<Schedule<D>>> {
        self.pinned.clone()
    }

    /// Base-case leaves of the pinned schedule — the dominant memory term of a
    /// retained session, and the weight the serving registry's leaf budget charges
    /// this program against.  Fixed at build.
    pub fn pinned_leaf_count(&self) -> usize {
        self.pinned.as_ref().map_or(0, |s| s.num_leaves())
    }

    /// A snapshot of the session's executor counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            runs: self.metrics.runs.load(Ordering::Relaxed),
            schedule_reuses: self.metrics.schedule_reuses.load(Ordering::Relaxed),
            schedule_fetches: self.metrics.schedule_fetches.load(Ordering::Relaxed),
            schedule_compiles: self.metrics.schedule_compiles.load(Ordering::Relaxed),
            schedule_rejections: self.metrics.schedule_rejections.load(Ordering::Relaxed),
            sharded_runs: self.metrics.sharded_runs.load(Ordering::Relaxed),
            recursive_runs: self.metrics.recursive_runs.load(Ordering::Relaxed),
        }
    }

    /// Whether a window of `height` at base case `coarsening` replays a compiled
    /// schedule (as opposed to the recursive walker or a loop nest).
    fn compiles(&self, coarsening: &Coarsening<D>, height: i64) -> bool {
        self.strategy.is_some()
            && self.plan.schedule == ScheduleMode::Compiled
            && schedule::should_compile(self.sizes, coarsening, height)
    }

    /// The base case [`run`](Self::run) cuts a window of `height` down to: the plan's
    /// own, unless that fails the compiled-path gate — a giant — and sharding is on,
    /// in which case the engine picks it ([`Coarsening::engine_made`]).
    fn base_case(&self, height: i64) -> Coarsening<D> {
        let literal = self.plan.coarsening;
        if self.plan.sharding == Sharding::Off || !self.rejects(height) {
            return literal;
        }
        literal.engine_made(self.sizes)
    }

    /// Whether a window of `height` asks for the compiled route and the plan's
    /// literal base case fails the gate: the giant-grid decision.
    fn rejects(&self, height: i64) -> bool {
        self.strategy.is_some()
            && self.plan.schedule == ScheduleMode::Compiled
            && !self.compiles(&self.plan.coarsening, height)
    }

    /// The schedule for windows of `height` at base case `coarsening`: the pin when
    /// `height` is the session's own window (a reuse), otherwise a fetch.  A height
    /// has one base case per session, so the pin's height identifies it.
    fn resolve_schedule(&self, height: i64, coarsening: Coarsening<D>) -> Arc<Schedule<D>> {
        match &self.pinned {
            Some(pinned) if pinned.height() == height => {
                self.metrics.schedule_reuses.fetch_add(1, Ordering::Relaxed);
                Arc::clone(pinned)
            }
            _ => self.fetch_schedule(height, coarsening),
        }
    }

    /// A (counted) process-global schedule-cache lookup for windows of `height` at
    /// base case `coarsening`.
    fn fetch_schedule(&self, height: i64, coarsening: Coarsening<D>) -> Arc<Schedule<D>> {
        let strategy = self
            .strategy
            .expect("compiled route requires a cut strategy");
        let (fetched, lookup) = schedule::schedule_for(
            self.sizes,
            self.spec.slopes(),
            self.spec.reach(),
            coarsening,
            strategy,
            self.plan.clone_mode == CloneMode::AlwaysBoundary,
            height,
        );
        self.metrics
            .schedule_fetches
            .fetch_add(1, Ordering::Relaxed);
        if !lookup.hit {
            self.metrics
                .schedule_compiles
                .fetch_add(1, Ordering::Relaxed);
        }
        fetched
    }

    /// Validates `array` against the session geometry (the checks `Pochoir` and
    /// `engine::run` historically re-did per call), returning [`GeometryError`]
    /// instead of panicking on mismatch.  The serving layer routes this through
    /// `ServeError::InvalidGeometry`; the panicking entry points wrap it.
    pub fn check_array<T: Copy>(&self, array: &PochoirArray<T, D>) -> Result<(), GeometryError> {
        if array.time_slices() < self.spec.shape().time_slices() {
            return Err(GeometryError::new(format!(
                "array holds {} time slices but the stencil shape has depth {} and needs {}",
                array.time_slices(),
                self.spec.depth(),
                self.spec.shape().time_slices()
            )));
        }
        let sizes = array.sizes_i64();
        if sizes != self.sizes {
            return Err(GeometryError::new(format!(
                "array extents {sizes:?} do not match the session's compiled extents {:?}",
                self.sizes
            )));
        }
        Ok(())
    }

    /// Panicking form of [`check_array`](Self::check_array), used by the legacy run
    /// entry points.
    fn validate<T: Copy>(&self, array: &PochoirArray<T, D>) {
        if let Err(e) = self.check_array(array) {
            panic!("{}", e.detail);
        }
    }

    /// Executes kernel-invocation times `[t0, t1)` of `kernel` on `array` under the
    /// parallelism provider `par`.
    pub fn run<T, K, P>(
        &self,
        array: &mut PochoirArray<T, D>,
        kernel: &K,
        t0: i64,
        t1: i64,
        par: &P,
    ) where
        T: Copy + Send + Sync + 'static,
        K: StencilKernel<T, D>,
        P: Parallelism,
    {
        self.validate(array);
        if t1 <= t0 {
            return;
        }
        self.metrics.runs.fetch_add(1, Ordering::Relaxed);
        // Publish the row-kernel ISA this run dispatches to (plan policy ∩ host
        // detection).
        crate::simd::set_active(crate::simd::resolve(self.plan.simd));
        let grid = array.raw();
        let height = t1 - t0;
        if self.rejects(height) {
            self.metrics
                .schedule_rejections
                .fetch_add(1, Ordering::Relaxed);
            par.count(Counter::ScheduleCompileRejections, 1);
        }
        let coarsening = self.base_case(height);
        match self.strategy {
            Some(_) if self.compiles(&coarsening, height) => {
                let schedule = self.resolve_schedule(height, coarsening);
                schedule.execute(grid, kernel, t0, &self.plan, par);
            }
            Some(strategy) => {
                self.metrics.recursive_runs.fetch_add(1, Ordering::Relaxed);
                let plan = self.plan.with_coarsening(coarsening);
                run_recursive(grid, &self.spec, kernel, t0, t1, &plan, par, strategy);
            }
            None => match self.plan.engine {
                EngineKind::LoopsSerial => {
                    loops::run_loops(grid, &self.spec, kernel, t0, t1, &self.plan, &Serial, false)
                }
                EngineKind::LoopsParallel => {
                    loops::run_loops(grid, &self.spec, kernel, t0, t1, &self.plan, par, false)
                }
                EngineKind::LoopsBlocked => {
                    loops::run_loops(grid, &self.spec, kernel, t0, t1, &self.plan, par, true)
                }
                EngineKind::Trap | EngineKind::Strap => unreachable!("strategy resolved above"),
            },
        }
    }

    /// Runs `[t0, t1)` through the sharded tile pipeline — the one entry point of the
    /// run path that tiles — picking (or honouring, for [`Sharding::Tiles`]) a tile
    /// geometry with [`shard::ShardPlan::auto`].  Bitwise identical to
    /// [`run`](Self::run); the report describes the tiling taken.  Errors leave
    /// `array` untouched.
    pub fn try_run_sharded<T, K, P>(
        &self,
        array: &mut PochoirArray<T, D>,
        kernel: &K,
        t0: i64,
        t1: i64,
        par: &P,
    ) -> Result<shard::ShardReport, shard::ShardError>
    where
        T: Copy + Send + Sync + 'static,
        K: StencilKernel<T, D>,
        P: Parallelism,
    {
        self.try_run_sharded_with_spare(array, kernel, t0, t1, par, None)
    }

    /// [`try_run_sharded`](Self::try_run_sharded), with the tile arrays taken from
    /// and left in `spare`.
    fn try_run_sharded_with_spare<T, K, P>(
        &self,
        array: &mut PochoirArray<T, D>,
        kernel: &K,
        t0: i64,
        t1: i64,
        par: &P,
        spare: Option<&shard::TileSpare<T, D>>,
    ) -> Result<shard::ShardReport, shard::ShardError>
    where
        T: Copy + Send + Sync + 'static,
        K: StencilKernel<T, D>,
        P: Parallelism,
    {
        self.validate(array);
        if t1 <= t0 {
            return Ok(shard::ShardReport::default());
        }
        self.metrics.runs.fetch_add(1, Ordering::Relaxed);
        crate::simd::set_active(crate::simd::resolve(self.plan.simd));
        let report = shard::execute(array, &self.spec, &self.plan, kernel, t0, t1, par, spare)?;
        self.metrics.sharded_runs.fetch_add(1, Ordering::Relaxed);
        Ok(report)
    }

    /// Executes `[t0, t1)` single-threaded while reporting every grid access to
    /// `tracer` (the instrumentation mode behind Figure 10).
    ///
    /// The traced decomposition honours the plan's [`ScheduleMode`]: compiled plans
    /// trace the arena sweep, recursive plans trace the storeless recursion.  Both
    /// cover every space-time point exactly once, so their access *counts* agree; the
    /// visit order (and hence simulated miss counts) reflects the route actually taken.
    /// A giant traces the literal recursion: Figure 10 measures the uncoarsened
    /// algorithms, so there is no giant route here.
    pub fn run_traced<T, K, C>(
        &self,
        array: &mut PochoirArray<T, D>,
        kernel: &K,
        t0: i64,
        t1: i64,
        tracer: &C,
    ) where
        T: Copy + Send + Sync + 'static,
        K: StencilKernel<T, D>,
        C: AccessTracer,
    {
        self.validate(array);
        if t1 <= t0 {
            return;
        }
        self.metrics.runs.fetch_add(1, Ordering::Relaxed);
        let grid = array.raw();
        let sizes = self.sizes;
        match self.strategy {
            Some(strategy) => {
                let view = TracingView::new(grid, tracer);
                let literal = self.plan.coarsening;
                if self.compiles(&literal, t1 - t0) {
                    let schedule = self.resolve_schedule(t1 - t0, literal);
                    for leaf in schedule.leaves() {
                        let z = leaf.zoid.shifted(t0);
                        base::execute_zoid(&z, kernel, &view, Some(sizes), self.plan.base_case);
                    }
                } else {
                    let base = |z: &Zoid<D>| {
                        base::execute_zoid(z, kernel, &view, Some(sizes), self.plan.base_case)
                    };
                    let params = crate::hyperspace::CutParams::unified(
                        self.spec.slopes(),
                        self.plan.coarsening.dx,
                        sizes,
                    );
                    walk_serial(
                        &Zoid::full_grid(sizes, t0, t1),
                        &params,
                        self.plan.coarsening.dt,
                        strategy,
                        &base,
                    );
                }
            }
            None => {
                let view = TracingView::new(grid, tracer);
                loops::run_loops_with_view(&view, sizes, kernel, t0, t1, self.plan.base_case);
            }
        }
    }
}

/// An executor session with the kernel bound: the paper's "compile once, run many
/// times" as an object.
///
/// Built once from `(spec, kernel, plan, sizes)` — resolving the strategy, validating
/// geometry, and compiling the schedule eagerly for the given window height — then
/// [`run`](CompiledStencil::run) replays it across shifted time windows.  Session
/// counters ([`stats`](CompiledStencil::stats)) let callers assert reuse: a steady
///-state session performs zero schedule fetches and zero compilations per run.
///
/// ```
/// use pochoir_core::boundary::Boundary;
/// use pochoir_core::engine::{CompiledStencil, Coarsening, ExecutionPlan};
/// use pochoir_core::grid::PochoirArray;
/// use pochoir_core::kernel::{StencilKernel, StencilSpec};
/// use pochoir_core::shape::star_shape;
/// use pochoir_core::view::GridAccess;
///
/// struct Blur; // 1D three-point average
/// impl StencilKernel<f64, 1> for Blur {
///     fn update<A: GridAccess<f64, 1>>(&self, g: &A, t: i64, x: [i64; 1]) {
///         let v = (g.get(t, [x[0] - 1]) + g.get(t, [x[0]]) + g.get(t, [x[0] + 1])) / 3.0;
///         g.set(t + 1, x, v);
///     }
/// }
///
/// // Compile once for 20-cell grids stepping 4 time steps per window...
/// let session = CompiledStencil::new(
///     StencilSpec::new(star_shape::<1>(1)),
///     Blur,
///     ExecutionPlan::trap().with_coarsening(Coarsening::new(2, [4])),
///     [20],
///     4,
/// );
/// // ...then replay it across shifted windows with zero further compilations.
/// let mut grid = PochoirArray::<f64, 1>::new([20]);
/// grid.register_boundary(Boundary::Periodic);
/// grid.fill_time_slice(0, |x| x[0] as f64);
/// session.run(&mut grid, 0, 4);
/// session.run(&mut grid, 4, 8);
/// let stats = session.stats();
/// assert_eq!(stats.runs, 2);
/// assert_eq!(stats.schedule_fetches, 1, "only the eager build fetched");
/// ```
pub struct CompiledStencil<T, K, const D: usize> {
    program: CompiledProgram<D>,
    kernel: K,
    runtime: Option<Arc<Runtime>>,
    /// The last [`run_sharded`](Self::run_sharded)'s tile arrays, reused by the next
    /// one of the same tile plan: a session that ran sharded holds about one grid
    /// more until dropped.
    tiles: shard::TileSpare<T, D>,
}

impl<T, K, const D: usize> CompiledStencil<T, K, D>
where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
{
    /// Builds a session for grids of spatial extent `sizes`, compiling the schedule
    /// eagerly for time windows of height `window`.  Panics with
    /// [`GeometryError`]'s text on invalid geometry.
    ///
    /// Runs of a different height still work — each fetches its schedule from the
    /// process-global cache, which compiles it once — so `window` is the height that
    /// replays for free, not a contract.
    pub fn new(
        spec: StencilSpec<D>,
        kernel: K,
        plan: ExecutionPlan<D>,
        sizes: [usize; D],
        window: i64,
    ) -> Self {
        let mut extents = [0i64; D];
        for i in 0..D {
            extents[i] = sizes[i] as i64;
        }
        CompiledStencil {
            program: CompiledProgram::try_new(spec, plan, extents, window)
                .unwrap_or_else(|e| panic!("{e}")),
            kernel,
            runtime: None,
            tiles: shard::TileSpare::default(),
        }
    }

    /// Pins a dedicated work-stealing runtime to the session; [`run`](Self::run) uses
    /// it instead of the process-global one.
    pub fn with_runtime(mut self, runtime: Arc<Runtime>) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// The kernel-independent half of the session.
    pub fn program(&self) -> &CompiledProgram<D> {
        &self.program
    }

    /// The bound kernel.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// The pinned compiled schedule (see [`CompiledProgram::schedule`]).
    pub fn schedule(&self) -> Option<Arc<Schedule<D>>> {
        self.program.schedule()
    }

    /// A snapshot of the session's executor counters.
    pub fn stats(&self) -> SessionStats {
        self.program.stats()
    }

    /// Executes kernel-invocation times `[t0, t1)` on `array`, using the pinned
    /// runtime if one was set and the process-global runtime otherwise.
    pub fn run(&self, array: &mut PochoirArray<T, D>, t0: i64, t1: i64) {
        self.run_with(array, t0, t1, self.runtime_par());
    }

    /// The parallelism provider [`run`](Self::run) and
    /// [`run_sharded`](Self::run_sharded) use: the pinned runtime if one was set, the
    /// process-global one otherwise.
    fn runtime_par(&self) -> &Runtime {
        match &self.runtime {
            Some(rt) => rt.as_ref(),
            None => Runtime::global(),
        }
    }

    /// [`run`](Self::run) with an explicit parallelism provider (e.g. [`Serial`] for
    /// deterministic test runs).
    pub fn run_with<P: Parallelism>(
        &self,
        array: &mut PochoirArray<T, D>,
        t0: i64,
        t1: i64,
        par: &P,
    ) {
        self.program.run(array, &self.kernel, t0, t1, par);
    }

    /// Runs `[t0, t1)` through the sharded tile pipeline (see
    /// [`CompiledProgram::try_run_sharded`]), using the pinned runtime if one was
    /// set and the process-global runtime otherwise.
    pub fn run_sharded(
        &self,
        array: &mut PochoirArray<T, D>,
        t0: i64,
        t1: i64,
    ) -> Result<shard::ShardReport, shard::ShardError> {
        self.run_sharded_with(array, t0, t1, self.runtime_par())
    }

    /// [`run_sharded`](Self::run_sharded) with an explicit parallelism provider.
    pub fn run_sharded_with<P: Parallelism>(
        &self,
        array: &mut PochoirArray<T, D>,
        t0: i64,
        t1: i64,
        par: &P,
    ) -> Result<shard::ShardReport, shard::ShardError> {
        self.program
            .try_run_sharded_with_spare(array, &self.kernel, t0, t1, par, Some(&self.tiles))
    }

    /// Executes `[t0, t1)` single-threaded, reporting every access to `tracer`.
    pub fn run_traced<C: AccessTracer>(
        &self,
        array: &mut PochoirArray<T, D>,
        t0: i64,
        t1: i64,
        tracer: &C,
    ) {
        self.program.run_traced(array, &self.kernel, t0, t1, tracer);
    }
}

/// The recursive reference path (the paper's original control flow), demoted from
/// production default to the literal path of giants (under [`Sharding::Off`]) and the
/// equivalence-test reference.  Its leaves run through [`base::execute_leaf`] — the
/// same segment-level clone resolution as the compiled path — so the two routes stay
/// bit-identical.
#[allow(clippy::too_many_arguments)]
fn run_recursive<T, K, P, const D: usize>(
    grid: RawGrid<'_, T, D>,
    spec: &StencilSpec<D>,
    kernel: &K,
    t0: i64,
    t1: i64,
    plan: &ExecutionPlan<D>,
    par: &P,
    strategy: CutStrategy,
) where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
    P: Parallelism,
{
    let sizes = grid.sizes();
    let reach = spec.reach();
    let force_boundary = plan.clone_mode == CloneMode::AlwaysBoundary;
    let hybrid = !force_boundary;
    let index_mode = plan.index_mode;
    let base_case = plan.base_case;

    // The base-case callback implements the *code cloning* of Section 4 through the
    // shared leaf dispatch: interior zoids run the fast interior clone, boundary zoids
    // get segment-level clone resolution (or the pure boundary clone under the
    // always-boundary ablation).
    let base = move |z: &Zoid<D>| {
        let interior = !force_boundary && z.is_interior(sizes, reach);
        base::execute_leaf(
            z, grid, kernel, sizes, reach, interior, hybrid, index_mode, base_case,
        );
    };

    // The unified periodic/nonperiodic scheme (Section 4): the decomposition always
    // treats every dimension as a torus, so wraparound data dependencies — present
    // whenever the boundary function reads wrapped interior values — are respected by
    // the processing order.  Nonperiodic boundary conditions are recovered in the
    // boundary clone's base case.
    let params = crate::hyperspace::CutParams::unified(spec.slopes(), plan.coarsening.dx, sizes);
    let walker = Walker::with_params(params, plan.coarsening.dt, strategy, par, base);
    walker.walk(&Zoid::full_grid(sizes, t0, t1));
}

/// Serial recursion mirroring [`Walker::walk`] without `Sync` bounds on the base
/// callback; used by the traced execution mode, whose tracers typically use plain
/// `Cell` state and never leave the calling thread.
fn walk_serial<B, const D: usize>(
    zoid: &Zoid<D>,
    params: &crate::hyperspace::CutParams<D>,
    max_height: i64,
    strategy: CutStrategy,
    base: &B,
) where
    B: Fn(&Zoid<D>),
{
    if zoid.volume() == 0 {
        return;
    }
    if let Some(cut) = cut_with_strategy(zoid, params, strategy) {
        for level in &cut.levels {
            for sub in level {
                walk_serial(sub, params, max_height, strategy, base);
            }
        }
    } else if zoid.height() > max_height {
        let (lower, upper) = zoid.time_cut();
        walk_serial(&lower, params, max_height, strategy, base);
        walk_serial(&upper, params, max_height, strategy, base);
    } else {
        base(zoid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::Boundary;
    use crate::engine::plan::Coarsening;
    use crate::shape::star_shape;
    use crate::view::GridAccess;

    struct Heat2D;
    impl StencilKernel<f64, 2> for Heat2D {
        fn update<A: GridAccess<f64, 2>>(&self, g: &A, t: i64, x: [i64; 2]) {
            let c = g.get(t, x);
            let v = c
                + 0.1 * (g.get(t, [x[0] - 1, x[1]]) + g.get(t, [x[0] + 1, x[1]]) - 2.0 * c)
                + 0.1 * (g.get(t, [x[0], x[1] - 1]) + g.get(t, [x[0], x[1] + 1]) - 2.0 * c);
            g.set(t + 1, x, v);
        }
    }

    fn make_array(n: usize) -> PochoirArray<f64, 2> {
        let mut a = PochoirArray::new([n, n]);
        a.register_boundary(Boundary::Periodic);
        a.fill_time_slice(0, |x| ((x[0] * 7 + x[1] * 3) % 13) as f64);
        a
    }

    fn session(n: usize, window: i64) -> CompiledStencil<f64, Heat2D, 2> {
        CompiledStencil::new(
            StencilSpec::new(star_shape::<2>(1)),
            Heat2D,
            ExecutionPlan::trap().with_coarsening(Coarsening::new(2, [6, 6])),
            [n, n],
            window,
        )
    }

    #[test]
    fn session_compiles_eagerly_and_replays() {
        let s = session(21, 5);
        assert!(s.schedule().is_some(), "schedule must be compiled at build");
        assert_eq!(s.stats().schedule_fetches, 1);
        let mut a = make_array(21);
        s.run_with(&mut a, 0, 5, &Serial);
        s.run_with(&mut a, 5, 10, &Serial);
        s.run_with(&mut a, 10, 15, &Serial);
        let stats = s.stats();
        assert_eq!(stats.runs, 3);
        assert_eq!(
            stats.schedule_reuses, 3,
            "all windows replay the pinned Arc"
        );
        assert_eq!(stats.schedule_fetches, 1, "only the eager build fetched");
    }

    #[test]
    fn only_the_build_height_replays_the_pin() {
        // Registry-shared sessions serve callers of several window heights: the build
        // height replays the pin, every other height is a counted cache fetch that
        // the global schedule cache compiles once.  That cache is shared with every
        // test in this binary, so a recompile is allowed only after an eviction.
        let s = session(19, 4);
        let pin = s.schedule().unwrap();
        let leaves = s.program().pinned_leaf_count();
        assert!(leaves > 0);
        let built = s.stats();
        let evicted_before = schedule::cache_stats().evictions;
        let mut a = make_array(19);
        let mut compiled_by_first_round = 0;
        for round in 1..=3u64 {
            let t = 10 * (round as i64 - 1);
            s.run_with(&mut a, t, t + 4, &Serial); // height 4: the pin
            s.run_with(&mut a, t + 4, t + 10, &Serial); // height 6: a fetch
            let stats = s.stats();
            assert_eq!(stats.schedule_reuses, round, "the build height is a reuse");
            assert_eq!(stats.schedule_fetches - built.schedule_fetches, round);
            let compiles = stats.schedule_compiles - built.schedule_compiles;
            if round == 1 {
                assert!(compiles <= 1, "height 6 compiles at most once");
                compiled_by_first_round = compiles;
            } else {
                let evicted = schedule::cache_stats().evictions - evicted_before;
                assert!(
                    compiles - compiled_by_first_round <= evicted,
                    "then a cache hit, unless the key was evicted"
                );
            }
            assert!(Arc::ptr_eq(&s.schedule().unwrap(), &pin));
            assert_eq!(s.program().pinned_leaf_count(), leaves);
        }
        assert_eq!(pin.height(), 4);
    }

    #[test]
    fn empty_window_is_a_no_op() {
        let s = session(9, 3);
        let mut a = make_array(9);
        let before = a.snapshot(0);
        s.run_with(&mut a, 5, 5, &Serial);
        assert_eq!(a.snapshot(0), before);
        assert_eq!(s.stats().runs, 0);
    }

    #[test]
    #[should_panic(expected = "do not match the session's compiled extents")]
    fn mismatched_extents_are_rejected() {
        let s = session(12, 3);
        let mut a = make_array(16);
        s.run_with(&mut a, 0, 3, &Serial);
    }

    #[test]
    fn loops_route_ignores_schedule_machinery() {
        let s = CompiledStencil::new(
            StencilSpec::new(star_shape::<2>(1)),
            Heat2D,
            ExecutionPlan::loops_serial(),
            [11, 11],
            6,
        );
        assert!(s.schedule().is_none());
        let mut a = make_array(11);
        s.run_with(&mut a, 0, 6, &Serial);
        assert_eq!(s.stats().schedule_fetches, 0);
        assert_eq!(s.stats().runs, 1);
    }
}
