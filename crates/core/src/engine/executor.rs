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
//! `Arc<Schedule>` (compiled eagerly at build time, replayed across shifted time
//! windows), and per-session [`SessionStats`] counters.  [`CompiledStencil`] pairs a
//! program with an owned kernel and an optional pinned runtime — the session object a
//! serving deployment holds per stencil program, calling
//! [`run`](CompiledStencil::run) once per time window.
//!
//! ## Execution routes
//!
//! * **Compiled** (TRAP/STRAP default): replay a pinned schedule; a window of a new
//!   height fetches from the process-global schedule cache and joins the session's
//!   small MRU pin set (so registry-shared sessions serving callers with different
//!   window heights do not evict each other's pin).  Leaves execute
//!   through [`base::execute_leaf`], whose segment-level clone resolution keeps
//!   boundary-leaf interiors on the fast clone.
//! * **Recursive** ([`ScheduleMode::Recursive`]): the storeless reference walker, kept
//!   for equivalence testing and for (almost) uncoarsened giants whose arenas would not
//!   be worth materializing ([`schedule::should_compile`]).  It feeds its leaves through
//!   the *same* [`base::execute_leaf`] dispatch, so the two routes are bit-identical —
//!   including hybrid clone resolution, which the walker historically lacked.
//! * **Loops**: the Figure-1 baselines, unchanged.
//!
//! The traced mode ([`CompiledProgram::run_traced`]) honours the plan's
//! [`ScheduleMode`]: compiled plans trace the arena sweep, recursive plans trace the
//! recursion — with identical access counts, since both cover the same space-time
//! points exactly once.

use crate::engine::base;
use crate::engine::faults::{self, lock_recover};
use crate::engine::loops;
use crate::engine::plan::{CloneMode, EngineKind, ExecutionPlan, ScheduleMode, Sharding};
use crate::engine::schedule::{self, Schedule};
use crate::engine::shard;
use crate::engine::walker::{cut_with_strategy, CutStrategy, Walker};
use crate::grid::{PochoirArray, RawGrid};
use crate::kernel::{StencilKernel, StencilSpec};
use crate::view::{AccessTracer, TracingView};
use crate::zoid::Zoid;
use pochoir_runtime::{Counter, Parallelism, Runtime, Serial};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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
    /// Runs served by the session's pinned `Arc<Schedule>` with no cache traffic at all.
    pub schedule_reuses: u64,
    /// Schedule-cache lookups this session performed (pin misses: build time, or a run
    /// whose window height differs from the pinned schedule's).
    pub schedule_fetches: u64,
    /// Fetches that had to compile a fresh schedule (global-cache misses).
    pub schedule_compiles: u64,
    /// Runs that asked for the compiled route but were rejected by
    /// [`schedule::should_compile`] — the giant-grid fallback decisions, also
    /// surfaced process-wide as the runtime metric `schedule_compile_rejections`.
    pub schedule_rejections: u64,
    /// Rejected runs served by the sharded tile pipeline
    /// ([`crate::engine::shard`]).
    pub sharded_runs: u64,
    /// Rejected (or deliberately recursive) runs served by the recursive
    /// reference walker.
    pub recursive_runs: u64,
}

/// A session geometry the executor cannot compile or run: non-positive grid extents,
/// a negative window height, or an array that does not match the session's compiled
/// geometry.  The `detail` message is exactly what the panicking entry points
/// ([`CompiledProgram::new`], [`CompiledProgram::run`]) panic with, so callers that
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

/// Default maximum number of compiled schedules one session keeps pinned (MRU-first).
/// Sessions are shared process-wide through the serving registry, so callers of one
/// geometry may replay a handful of distinct window heights; beyond the pin capacity,
/// the least recently used pin is dropped (its schedule survives in the global cache
/// and in any session still using it).  [`CompiledProgram::precompile_windows`] raises
/// the capacity when more heights are pre-compiled deliberately.
const DEFAULT_PINNED_SCHEDULES: usize = 4;

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
    /// The session's pinned schedules, most recently used first, replayed for every
    /// window of a matching height.  A small *set* rather than a single slot: the
    /// serving registry shares one program across callers, and callers replaying
    /// different window heights must not evict each other's pin on every run.  Capped
    /// at `pin_capacity`.
    schedule: Mutex<Vec<Arc<Schedule<D>>>>,
    /// How many schedules may stay pinned at once (default
    /// [`DEFAULT_PINNED_SCHEDULES`]; raised by
    /// [`precompile_windows`](Self::precompile_windows)).
    pin_capacity: AtomicUsize,
    /// Total leaves across the pinned schedules, maintained on every pin-set change
    /// so readers (the serving registry's leaf-budget weigher) never take the
    /// `schedule` mutex — which [`resolve_schedule`](Self::resolve_schedule) holds
    /// across whole schedule compilations.
    pinned_leaves: AtomicUsize,
    metrics: SessionMetrics,
}

impl<const D: usize> CompiledProgram<D> {
    /// Builds a session program for grids of extent `sizes`, eagerly compiling (or
    /// fetching from the process-global cache) the schedule for time windows of height
    /// `window` when the plan takes the compiled route.
    ///
    /// Panics on invalid geometry; [`try_new`](Self::try_new) is the non-panicking
    /// variant.
    pub fn new(spec: StencilSpec<D>, plan: ExecutionPlan<D>, sizes: [i64; D], window: i64) -> Self {
        Self::try_new(spec, plan, sizes, window).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a session program, returning [`GeometryError`] instead of panicking when
    /// the geometry cannot be compiled (a non-positive grid extent or a negative
    /// window height).
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
        let program = CompiledProgram {
            strategy: plan.cut_strategy(),
            spec,
            plan,
            sizes,
            window,
            schedule: Mutex::new(Vec::new()),
            pin_capacity: AtomicUsize::new(DEFAULT_PINNED_SCHEDULES),
            pinned_leaves: AtomicUsize::new(0),
            metrics: SessionMetrics::default(),
        };
        if window > 0 && program.takes_compiled_route(window) {
            program.resolve_schedule(window);
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
    /// other heights still work — they pin additional schedules — but this height is
    /// the steady-state replay unit, and the serving layer's pipelined drain chops
    /// submissions into chunks of it.
    pub fn window(&self) -> i64 {
        self.window
    }

    /// The most recently used pinned compiled schedule, if the session has resolved
    /// one.
    pub fn schedule(&self) -> Option<Arc<Schedule<D>>> {
        lock_recover(&self.schedule).first().cloned()
    }

    /// Total base-case leaves across the session's pinned schedules — the dominant
    /// memory term of a retained session, and the weight the serving registry's
    /// leaf budget charges this program against.
    ///
    /// A lock-free read of a count maintained on every pin-set change: registry
    /// bookkeeping (which calls this while holding the registry lock) must never
    /// block behind this session's `schedule` mutex, held across whole schedule
    /// compilations.
    pub fn pinned_leaf_count(&self) -> usize {
        self.pinned_leaves.load(Ordering::Relaxed)
    }

    /// Eagerly compiles (or fetches from the process-global cache) and pins the
    /// schedules for every window height in `heights`, growing the session's pin
    /// capacity so all of them stay pinned together.  Returns the number of heights
    /// that had to be fetched (the rest were already pinned).
    ///
    /// A serving deployment replaying a known mix of window heights — say a steady
    /// chunk height plus the shorter remainder windows of pipelined drains — calls
    /// this once at startup so no drain ever touches the schedule cache.
    pub fn precompile_windows(&self, heights: &[i64]) -> usize {
        // Size the capacity for the union of the requested heights and the pins the
        // session already holds (e.g. the build window): counting only `heights`
        // would let this call evict the steady-state pin it is meant to protect.
        let kept_existing = {
            let slot = lock_recover(&self.schedule);
            slot.iter()
                .filter(|s| !heights.contains(&s.height()))
                .count()
        };
        let wanted = (heights.len() + kept_existing).max(DEFAULT_PINNED_SCHEDULES);
        self.pin_capacity.fetch_max(wanted, Ordering::Relaxed);
        let mut fetched = 0;
        for &height in heights {
            if height > 0 && self.takes_compiled_route(height) && self.resolve_schedule(height).1 {
                fetched += 1;
            }
        }
        fetched
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

    /// Whether a window of height `height` executes via the compiled schedule (as
    /// opposed to the recursive reference walker).
    fn takes_compiled_route(&self, height: i64) -> bool {
        self.strategy.is_some()
            && self.plan.schedule == ScheduleMode::Compiled
            && schedule::should_compile(self.sizes, &self.plan.coarsening, height)
    }

    /// Returns the schedule for windows of `height` and whether it had to be fetched:
    /// a pinned one when a pin of that height exists (an MRU *touch*), otherwise a
    /// (counted) global-cache fetch that pins the result, dropping the least recently
    /// used pin beyond the session's pin capacity.
    fn resolve_schedule(&self, height: i64) -> (Arc<Schedule<D>>, bool) {
        let strategy = self
            .strategy
            .expect("compiled route requires a cut strategy");
        let mut slot = lock_recover(&self.schedule);
        if let Some(pos) = slot.iter().position(|s| s.height() == height) {
            let pinned = slot.remove(pos);
            slot.insert(0, Arc::clone(&pinned));
            self.metrics.schedule_reuses.fetch_add(1, Ordering::Relaxed);
            return (pinned, false);
        }
        let (fetched, lookup) = schedule::schedule_for(
            self.sizes,
            self.spec.slopes(),
            self.spec.reach(),
            self.plan.coarsening,
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
        slot.insert(0, Arc::clone(&fetched));
        slot.truncate(self.pin_capacity.load(Ordering::Relaxed));
        self.pinned_leaves
            .store(slot.iter().map(|s| s.num_leaves()).sum(), Ordering::Relaxed);
        (fetched, true)
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
        self.run_with_spare(array, kernel, t0, t1, par, None);
    }

    /// [`run`](Self::run), with the giant fallback's tile arrays taken from and left
    /// in `spare` (see [`shard::TileSpare`]).
    fn run_with_spare<T, K, P>(
        &self,
        array: &mut PochoirArray<T, D>,
        kernel: &K,
        t0: i64,
        t1: i64,
        par: &P,
        spare: Option<&shard::TileSpare<T, D>>,
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
        if let Some(strategy) = self.strategy {
            if !self.takes_compiled_route(t1 - t0) {
                // The compiled route was requested but this geometry's arena would
                // blow the leaf budget: count the rejection, then prefer the sharded
                // tile pipeline over the storeless recursive walker.
                if self.plan.schedule == ScheduleMode::Compiled {
                    self.metrics
                        .schedule_rejections
                        .fetch_add(1, Ordering::Relaxed);
                    par.count(Counter::ScheduleCompileRejections, 1);
                    if self.plan.sharding != Sharding::Off
                        && shard::execute(array, &self.spec, &self.plan, kernel, t0, t1, par, spare)
                            .is_ok()
                    {
                        self.metrics.sharded_runs.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                self.metrics.recursive_runs.fetch_add(1, Ordering::Relaxed);
                run_recursive(
                    array.raw(),
                    &self.spec,
                    kernel,
                    t0,
                    t1,
                    &self.plan,
                    par,
                    strategy,
                );
                return;
            }
        }
        let grid = array.raw();
        match self.strategy {
            Some(_) => {
                let (schedule, _) = self.resolve_schedule(t1 - t0);
                schedule.execute(grid, kernel, t0, &self.plan, par);
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

    /// Runs `[t0, t1)` through the sharded tile pipeline regardless of whether the
    /// geometry would have been rejected, picking (or honouring, for
    /// [`Sharding::Tiles`]) a tile geometry as
    /// the executor's fallback does.  Bitwise identical to [`run`](Self::run); the
    /// report describes the tiling taken.  Errors leave `array` untouched.
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
                if self.takes_compiled_route(t1 - t0) {
                    let (schedule, _) = self.resolve_schedule(t1 - t0);
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
    /// The last sharded run's tile arrays, reused by the next run of the same tile
    /// plan: a session that ran sharded holds about one grid more until dropped.
    tiles: shard::TileSpare<T, D>,
}

impl<T, K, const D: usize> CompiledStencil<T, K, D>
where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
{
    /// Builds a session for grids of spatial extent `sizes`, compiling the schedule
    /// eagerly for time windows of height `window`.
    ///
    /// Runs of a different height still work — the session pins the schedule for the
    /// new height alongside the old one (one cache fetch; a few distinct heights stay
    /// pinned at once), so `window` is a hint, not a contract.
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
            program: CompiledProgram::new(spec, plan, extents, window),
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

    /// The currently pinned compiled schedule, if the session has resolved one.
    pub fn schedule(&self) -> Option<Arc<Schedule<D>>> {
        self.program.schedule()
    }

    /// Eagerly pins the schedules for several window heights (see
    /// [`CompiledProgram::precompile_windows`]); returns the number fetched.
    pub fn precompile_windows(&self, heights: &[i64]) -> usize {
        self.program.precompile_windows(heights)
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

    /// The parallelism provider [`run`](Self::run) and [`run_batch`](Self::run_batch)
    /// use: the pinned runtime if one was set, the process-global one otherwise.
    fn runtime_par(&self) -> &Runtime {
        match &self.runtime {
            Some(rt) => rt.as_ref(),
            None => Runtime::global(),
        }
    }

    /// Executes a batch of same-geometry requests through this session, whole-array
    /// parallel across requests with at most `grain` requests per task (see
    /// [`serving::run_batch`](crate::engine::serving::run_batch)), using the pinned
    /// runtime if one was set and the process-global one otherwise.
    pub fn run_batch(&self, jobs: &mut [crate::engine::serving::BatchRun<'_, T, D>], grain: usize) {
        crate::engine::serving::run_batch(
            &self.program,
            &self.kernel,
            jobs,
            grain,
            self.runtime_par(),
        );
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
        self.program
            .run_with_spare(array, &self.kernel, t0, t1, par, Some(&self.tiles));
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
/// production default to the fallback for (almost) uncoarsened giants and the
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
    let walker =
        Walker::with_params(params, plan.coarsening.dt, strategy, par, base).with_grain(plan.grain);
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
    fn height_change_repins_without_losing_the_session() {
        let s = session(17, 4);
        let first = s.schedule().unwrap();
        let mut a = make_array(17);
        s.run_with(&mut a, 0, 4, &Serial);
        s.run_with(&mut a, 4, 10, &Serial); // height 6: re-pin
        let second = s.schedule().unwrap();
        assert_eq!(second.height(), 6);
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(s.stats().schedule_fetches, 2);
        s.run_with(&mut a, 10, 16, &Serial); // height 6 again: replay
        assert_eq!(s.stats().schedule_fetches, 2);
        assert_eq!(s.stats().schedule_reuses, 2);
    }

    #[test]
    fn alternating_heights_keep_both_schedules_pinned() {
        // Registry-shared sessions serve callers with different window heights; the
        // MRU pin set must stop fetching once both heights are pinned instead of
        // letting the callers evict each other's pin on every run.
        let s = session(19, 4);
        let mut a = make_array(19);
        s.run_with(&mut a, 0, 4, &Serial); // height 4: pinned at build, reuse
        s.run_with(&mut a, 4, 10, &Serial); // height 6: fetch, second pin
        assert_eq!(s.stats().schedule_fetches, 2);
        s.run_with(&mut a, 10, 14, &Serial); // height 4 again: still pinned
        s.run_with(&mut a, 14, 20, &Serial); // height 6 again: still pinned
        let stats = s.stats();
        assert_eq!(
            stats.schedule_fetches, 2,
            "both heights stay pinned; alternating runs fetch nothing"
        );
        assert_eq!(stats.schedule_reuses, 3);
    }

    #[test]
    fn precompile_windows_pins_every_height_up_front() {
        let s = session(23, 5);
        // Height 5 is already pinned from the eager build; 3, 4 and 6 are fresh.
        let fetched = s.precompile_windows(&[5, 3, 4, 6]);
        assert_eq!(fetched, 3);
        assert_eq!(s.stats().schedule_fetches, 4);
        let mut a = make_array(23);
        s.run_with(&mut a, 0, 3, &Serial);
        s.run_with(&mut a, 3, 7, &Serial);
        s.run_with(&mut a, 7, 12, &Serial);
        s.run_with(&mut a, 12, 18, &Serial);
        let stats = s.stats();
        assert_eq!(
            stats.schedule_fetches, 4,
            "every height was pre-pinned; runs fetch nothing"
        );
        // 4 replayed runs plus the precompile touch of the already-pinned height 5.
        assert_eq!(stats.schedule_reuses, 5);
        assert!(s.program().pinned_leaf_count() > 0);
        assert_eq!(s.program().window(), 5);
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
