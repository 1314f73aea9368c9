//! The serving layer: share compiled sessions across arrays, pipeline their windows,
//! and schedule tenants by weight and deadline.
//!
//! ## From library to service substrate
//!
//! The executor layer (PR 3) gave every *caller* a session object: build a
//! [`CompiledProgram`] / [`CompiledStencil`](crate::engine::CompiledStencil) once,
//! replay it across shifted time
//! windows.  A serving deployment, however, does not run *one* array — it runs **many
//! independent arrays of the same geometry** (one grid per user, per region, per
//! simulation instance), and every caller constructing its own session re-does the
//! validation and schedule resolution the paper's "compile once" model says should
//! happen once per *geometry*, not once per caller.  This module is that missing layer:
//!
//! ```text
//!   StencilServer (submit / drain, owned arrays)            stencils::*::serve presets
//!        │  fetches its program from                        dsl::Pochoir (same registry)
//!        ▼
//!   SessionRegistry  —  process-global, keyed by (spec fingerprint, sizes, plan, window)
//!        │               LRU under an entry cap *and* a pinned-leaf budget ·
//!        │               exactly-once compile per key (`engine::lru`, shared with
//!        │               the schedule cache) · hit/miss/eviction counters
//!        │               read through `registry_stats()`
//!        ▼
//!   Arc<CompiledProgram>  —  one per geometry, shared by every caller
//!        │
//!   drain (pipelined)  —  per-window work items, EDF + weighted-stride ready queue,
//!        │                no cross-tenant barrier (see "Pipelined drains" below)
//!   run_batch  —  whole-array parallelism across requests (for_each_with_grain),
//!                 composing with the phase parallelism inside each request
//! ```
//!
//! ## Pipelined drains
//!
//! [`StencilServer::drain`] does **not** execute each submission as one monolithic run
//! behind a batch barrier.  Each submission `[t0, t1)` is split into per-window work
//! items of the program's compiled chunk height (the executor's time-origin shifting
//! makes every chunk a pinned-schedule replay), and the items flow through a single
//! ready queue: window N+1 of one tenant overlaps window N of another, and a tenant
//! with a short request finishes without waiting for a long-running neighbour.  The
//! ready queue orders items by
//!
//! 1. **deadline** — submissions with a [`SubmitOptions::deadline`] dispatch
//!    earliest-deadline-first, ahead of deadline-less work;
//! 2. **weighted virtual time** — stride scheduling: each dispatched window advances
//!    its tenant's pass by `1/weight`, and the lowest pass runs next, so a
//!    weight-4 tenant receives 4× the dispatch slots of a weight-1 tenant while the
//!    weight-1 tenant keeps making proportional progress (no starvation);
//! 3. **ticket order** — the deterministic tiebreak.
//!
//! Results are handed back in ticket order regardless of execution order, and are
//! bitwise identical to the barrier drain ([`StencilServer::drain_barrier`], kept for
//! comparison benchmarks): every grid point of every step is computed once, by the
//! same kernel expression, from the same inputs — the decomposition never affects the
//! values.  [`StencilServer::last_drain`] reports windows executed, the ready-queue
//! high-water mark, logical-deadline misses and per-ticket completion ticks; the same
//! numbers reach the runtime's metrics (`serving_*` counters).
//!
//! One submission is one ticket, one chain and one returned array — also when it
//! was submitted through [`StencilServer::submit_sharded`].  A sharded ticket's
//! window is one round of its tile pipeline (every tile advances a window in
//! parallel, then the halo seams are exchanged; `engine::shard` owns that driver),
//! so the scheduler never sees tiles: it costs `windows` dispatch ticks like any
//! other tenant, and the drain's end gathers the tiles back into its array.
//!
//! ## Registry keying
//!
//! Two callers share a session exactly when *every* input of schedule compilation
//! matches: the stencil **spec fingerprint** (the shape's cells — which determine
//! slopes, reach and depth), the grid **sizes**, the full **execution plan** (engine,
//! coarsening, index/base-case/clone modes, schedule mode, block, grain) and the
//! **window** height the program pre-compiles for.  The key deliberately excludes the
//! element type and the kernel: a [`CompiledProgram`] is the kernel-free session half,
//! so an `f64` heat solver and a `u8` cellular automaton with the same shape, plan and
//! geometry share one decomposition.  Differing plans or windows therefore never
//! collide, and the sizes vector doubles as the dimensionality tag (its length is `D`).
//!
//! The registry is one instance of the engine's bounded LRU, the type behind the
//! schedule cache too (`engine::lru`).  Lookups are **exactly-once** under
//! concurrency: each key holds a once-cell, so N threads racing on a cold key perform
//! one compilation while the other N−1 block briefly and then share the result.
//! Retention is bounded two ways: an entry capacity ([`set_registry_capacity`]) and a
//! constant **pinned-leaf budget** charging each retained session the total base-case
//! leaves of its pinned schedules, read live at every lookup — the dominant memory
//! term, so a few giant geometries cannot silently pin hundreds of megabytes while the
//! entry count looks small.  Eviction only drops the registry's `Arc`, never a session
//! a caller still holds, and in-flight entries (compile still running) are pinned
//! against eviction so the exactly-once guarantee survives capacity pressure.
//!
//! ## Batching
//!
//! [`run_batch`] drives many `(array, t0, t1)` requests through *one* program.  Each
//! request is a whole-array task handed to
//! [`Parallelism::for_each_with_grain`], so on a work-stealing runtime the batch-level
//! parallelism (independent arrays) composes with the phase-level parallelism inside
//! each request (independent leaves of one dependency level) — small batches on big
//! machines still fill the workers, and big batches of small grids amortize the
//! fork-join overhead across requests.  Results are bitwise identical to running the
//! requests sequentially: arrays are disjoint and each request's own execution is
//! deterministic.
//!
//! ## When to use `StencilServer` vs. a raw `CompiledStencil`
//!
//! * **One long-lived array, one owner** — hold a
//!   [`CompiledStencil`](crate::engine::CompiledStencil); it is the cheapest object
//!   with a bound kernel and a pinned runtime.
//! * **Many arrays of one geometry, or many short-lived owners** — use a
//!   [`StencilServer`] (or fetch from the registry directly via [`shared_program`]):
//!   sessions dedupe process-wide, and `submit`/`drain` batches steady-state traffic.
//! * **The DSL** — `Pochoir` already fetches its program from this registry, so two
//!   `Pochoir` objects over identical geometry share one schedule automatically.
//!
//! ## Fault isolation
//!
//! A multi-tenant drain must not let one tenant's failure take out its neighbours.
//! The serving layer's failure surface (see `docs/serving.md`, "Failure semantics"):
//!
//! * **Typed errors** — [`ServeError`] classifies every way a request can fail;
//!   [`StencilServer::try_submit_with`], [`StencilServer::try_drain`],
//!   [`SessionRegistry::try_get_or_compile`] and [`try_shared_program`] return it
//!   instead of panicking.  The historical panicking entry points are thin wrappers
//!   that panic with the error's `Display` text, so existing callers (and their
//!   `should_panic` tests) see the same messages.
//! * **Panic quarantine** — a kernel panic inside a drain retires only that ticket's
//!   chain: its remaining windows are cancelled, the payload is captured as
//!   [`TicketOutcome::Panicked`] in the [`DrainReport`], and sibling tenants keep
//!   draining to completion with results bitwise identical to a fault-free drain.
//!   The panicking server's session key is then quarantined — evicted from the
//!   registry, so the next lookup recompiles — and every engine lock
//!   recovers from poisoning (`faults::lock_recover`) so one panic
//!   never wedges the process.  [`StencilServer::drain`] still re-throws the first
//!   payload after siblings finish (the pre-quarantine contract);
//!   [`StencilServer::try_drain`] returns the surviving arrays with per-ticket
//!   outcomes instead.
//! * **Admission control** — an [`AdmissionPolicy`] sheds work at submit time
//!   (queue/window quotas, pinned-leaf quotas → [`ServeError::Shed`]) and
//!   optionally at dispatch time (chains whose
//!   logical deadline can no longer be met are dropped before their first window
//!   runs).  [`RetryPolicy`] adds bounded retry-with-backoff for transient
//!   [`ServeError::CompileFailed`] failures.
//! * **Deterministic fault injection** — a seeded
//!   [`FaultPlan`] installed via
//!   [`StencilServer::with_fault_plan`] panics/delays exact `(ticket, window)`
//!   coordinates, driving the chaos suite (`tests/serving_chaos.rs`) that checks all
//!   of the above under serial and work-stealing drains.
//!
//! All of it is observable: `serving_shed`, `serving_retries`, `serving_quarantined`
//! and `registry_poison_recoveries` flow through the runtime's metrics next to the
//! existing `serving_*` counters.

// One tenant's failure must never become a process failure: every lock acquisition
// and every panic-adjacent unwrap in this module is either poison-recovering or
// explicitly allow-listed.  Tests are exempt (a failed test unwrap *should* fail
// the test).
#![deny(clippy::unwrap_used)]

use crate::boundary::Boundary;
use crate::engine::executor::{CompiledProgram, GeometryError, SessionStats};
use crate::engine::faults::{self, FaultPlan};
use crate::engine::lru::{CacheLookup, Lru, Weigh};
use crate::engine::plan::ExecutionPlan;
use crate::engine::shard::{self, ShardError, ShardPlan, ShardRun};
use crate::grid::PochoirArray;
use crate::kernel::{StencilKernel, StencilSpec};
use pochoir_runtime::{Counter, Parallelism, Runtime};
use std::any::Any;
use std::borrow::Cow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Locks transient per-drain state (array slots, the scheduler, panic payloads),
/// tolerating poison from a panicked window: the drain's own `catch_unwind` has
/// already recorded the failure, and per-drain state is discarded when the drain
/// returns, so recovery is safe — and uncounted, unlike [`faults::lock_recover`],
/// which counts recoveries on long-lived engine state.
fn lock_transient<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock_transient`] for consuming a transient mutex at drain end.
fn into_inner_transient<T>(mutex: Mutex<T>) -> T {
    mutex.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Cumulative session-registry counters (see [`registry_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Lookups served by an already-compiled program.
    pub hits: u64,
    /// Lookups that compiled a fresh program (under concurrency, one per cold key).
    pub misses: u64,
    /// Entries evicted under the capacity limit or the pinned-leaf budget.
    pub evictions: u64,
    /// Session keys quarantined after a tenant panic (see
    /// [`SessionRegistry::quarantine`]).
    pub quarantined: u64,
}

/// Why admission control refused a request (see [`ServeError::Shed`] and
/// [`TicketOutcome::Shed`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The server's pending queue is at [`AdmissionPolicy::max_pending`].
    QueueFull,
    /// Admitting the request would exceed [`AdmissionPolicy::max_queued_windows`].
    WindowQuotaExceeded,
    /// The shared session pins more leaves than
    /// [`AdmissionPolicy::max_session_leaves`] allows.
    SessionLeafQuota,
    /// Dispatch-time drop: the chain's logical deadline could no longer be met when
    /// its first window came up ([`AdmissionPolicy::drop_unmeetable`]).
    DeadlineUnmeetable,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let reason = match self {
            ShedReason::QueueFull => "pending queue full",
            ShedReason::WindowQuotaExceeded => "queued-window quota exceeded",
            ShedReason::SessionLeafQuota => "session pinned-leaf quota exceeded",
            ShedReason::DeadlineUnmeetable => "logical deadline unmeetable at dispatch",
        };
        f.write_str(reason)
    }
}

/// Everything that can go wrong when serving a stencil request, as a typed error
/// instead of a panic.
///
/// The panicking entry points ([`StencilServer::submit_with`],
/// [`SessionRegistry::get_or_compile`], [`shared_program`]) are thin wrappers over
/// the `try_` variants that panic with this error's `Display` text, so the messages
/// callers historically matched on are preserved verbatim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The request's geometry cannot be served: mismatched extents, too few time
    /// slices, non-positive sizes.  `detail` is the exact message the panicking
    /// entry points raise.
    InvalidGeometry {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// Session compilation panicked (the once-cell stays uninitialized, so a retry
    /// — e.g. via [`RetryPolicy`] — can succeed).
    CompileFailed {
        /// The compile panic's message.
        detail: String,
    },
    /// A tenant's kernel panicked during a drain; its chain was retired and the
    /// payload captured (see [`TicketOutcome::Panicked`] and
    /// [`DrainReport::failures`]).
    TenantPanicked {
        /// The panicking submission's ticket.
        ticket: usize,
        /// The panic payload's message.
        message: String,
    },
    /// Admission control refused the request (load shedding).
    Shed {
        /// Which quota fired.
        reason: ShedReason,
    },
    /// The submission's logical deadline cannot be met even if it dispatched first:
    /// it needs `windows` dispatch ticks but asked to finish by tick `deadline`
    /// (submit-time rejection; opt in via [`AdmissionPolicy::reject_unmeetable`]).
    DeadlineUnmeetable {
        /// The requested completion tick.
        deadline: u64,
        /// The dispatch ticks the submission needs.
        windows: u64,
    },
    /// Registry internals panicked outside the compile closure; the lookup cannot
    /// say anything about the key's state.  Recoverable by retrying — registry
    /// locks themselves heal via poison recovery.
    RegistryPoisoned,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Bare detail: the panicking wrappers re-raise this text, and callers
            // (and `should_panic` tests) match on the historical message.
            ServeError::InvalidGeometry { detail } => f.write_str(detail),
            ServeError::CompileFailed { detail } => {
                write!(f, "session compilation failed: {detail}")
            }
            ServeError::TenantPanicked { ticket, message } => {
                write!(f, "tenant {ticket} panicked: {message}")
            }
            ServeError::Shed { reason } => write!(f, "request shed: {reason}"),
            ServeError::DeadlineUnmeetable { deadline, windows } => write!(
                f,
                "deadline tick {deadline} is unmeetable: the submission needs {windows} dispatch ticks"
            ),
            ServeError::RegistryPoisoned => {
                f.write_str("session registry internals panicked; retry the lookup")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<GeometryError> for ServeError {
    fn from(e: GeometryError) -> Self {
        ServeError::InvalidGeometry { detail: e.detail }
    }
}

/// How a submission fared in the last drain (see [`DrainReport::outcomes`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum TicketOutcome {
    /// Every window executed; the returned array holds the fully stepped result.
    #[default]
    Completed,
    /// A window panicked: the chain's remaining windows were cancelled and the
    /// returned array holds the state as of the last *completed* window (a sharded
    /// submission's array is structurally valid with unspecified contents).
    Panicked {
        /// The panic payload's message.
        message: String,
    },
    /// The chain was dropped at dispatch time before any window ran (currently only
    /// [`ShedReason::DeadlineUnmeetable`] under [`AdmissionPolicy::drop_unmeetable`]);
    /// the returned array is untouched.
    Shed {
        /// Why the chain was dropped.
        reason: ShedReason,
    },
}

/// Per-tenant quotas applied at submit time, plus the dispatch-time deadline
/// policy.  The default admits everything (no quotas, deadline misses merely
/// counted) — exactly the pre-admission-control behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AdmissionPolicy {
    /// Maximum submissions waiting in the queue; the next submit sheds
    /// ([`ShedReason::QueueFull`]).
    pub max_pending: Option<usize>,
    /// Maximum total per-window work items the queue may represent (each submission
    /// costs `ceil((t1-t0)/window)` items); exceeding sheds
    /// ([`ShedReason::WindowQuotaExceeded`]).
    pub max_queued_windows: Option<u64>,
    /// Maximum leaves the shared session may have pinned at submit time; exceeding
    /// sheds ([`ShedReason::SessionLeafQuota`]).
    pub max_session_leaves: Option<usize>,
    /// Reject submissions whose logical deadline cannot be met even dispatching
    /// first ([`ServeError::DeadlineUnmeetable`]).  Off by default: an unmeetable
    /// deadline is admitted and counted as a miss, the pre-admission behaviour.
    pub reject_unmeetable: bool,
    /// At dispatch time, drop not-yet-started chains whose deadline has become
    /// unmeetable ([`TicketOutcome::Shed`]) instead of running them to a guaranteed
    /// miss.  Off by default.
    pub drop_unmeetable: bool,
}

/// Bounded retry-with-exponential-backoff for transient
/// [`ServeError::CompileFailed`] failures (only; every other error is permanent and
/// returned immediately).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = no retry).
    pub max_retries: u32,
    /// Sleep before retry `n` is `backoff * 2^(n-1)`; `Duration::ZERO` disables
    /// sleeping (tests).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff: Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    /// A policy with the given bounds.
    pub fn new(max_retries: u32, backoff: Duration) -> Self {
        RetryPolicy {
            max_retries,
            backoff,
        }
    }

    /// Runs `attempt` until it succeeds, fails permanently, or the retry budget is
    /// spent; returns the final result and how many retries were performed.
    pub fn retry<V>(
        &self,
        mut attempt: impl FnMut() -> Result<V, ServeError>,
    ) -> (Result<V, ServeError>, u32) {
        let mut retries = 0;
        loop {
            match attempt() {
                Err(ServeError::CompileFailed { .. }) if retries < self.max_retries => {
                    let backoff = self.backoff * 2u32.saturating_pow(retries);
                    retries += 1;
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
                outcome => return (outcome, retries),
            }
        }
    }
}

/// Geometry key of a registry entry: every input of schedule compilation, flattened to
/// vectors so one map serves every dimensionality (the `sizes` length encodes `D`).
#[derive(Clone, PartialEq, Eq, Hash)]
struct RegistryKey {
    /// The spec fingerprint: the shape's cells (`(dt, dx)` offsets).
    cells: Vec<(i32, Vec<i32>)>,
    sizes: Vec<i64>,
    window: i64,
    engine: crate::engine::plan::EngineKind,
    coarsening_dt: i64,
    coarsening_dx: Vec<i64>,
    index_mode: crate::engine::plan::IndexMode,
    base_case: crate::engine::plan::BaseCase,
    clone_mode: crate::engine::plan::CloneMode,
    schedule: crate::engine::plan::ScheduleMode,
    block: Vec<usize>,
    grain: usize,
    simd: crate::simd::SimdPolicy,
    sharding: crate::engine::plan::Sharding,
}

impl RegistryKey {
    fn new<const D: usize>(
        spec: &StencilSpec<D>,
        plan: &ExecutionPlan<D>,
        sizes: [i64; D],
        window: i64,
    ) -> Self {
        RegistryKey {
            cells: spec
                .shape()
                .cells()
                .iter()
                .map(|c| (c.dt, c.dx.to_vec()))
                .collect(),
            sizes: sizes.to_vec(),
            window,
            engine: plan.engine,
            coarsening_dt: plan.coarsening.dt,
            coarsening_dx: plan.coarsening.dx.to_vec(),
            index_mode: plan.index_mode,
            base_case: plan.base_case,
            clone_mode: plan.clone_mode,
            schedule: plan.schedule,
            block: plan.block.to_vec(),
            grain: plan.grain,
            simd: plan.simd,
            sharding: plan.sharding,
        }
    }
}

impl<const D: usize> Weigh for CompiledProgram<D> {
    /// The session's *current* pins: callers grow a shared session's pin set between
    /// lookups (`precompile_windows`, runs of new window heights), and a weight
    /// recorded at insert would let pinned memory exceed the budget invisibly.
    fn weight(&self) -> usize {
        self.pinned_leaf_count()
    }
}

/// Default number of sessions the process-global registry retains.  Entries are small
/// (the heavy part — the pinned `Arc<Schedule>` — is bounded separately by the schedule
/// cache's leaf budget), but each pin keeps its schedule alive, so the capacity also
/// caps schedule retention by idle geometries.
const DEFAULT_REGISTRY_CAPACITY: usize = 64;

/// Total pinned leaves the registry may retain across all sessions: leaves dominate a
/// retained session's footprint, so this bounds resident memory by what sessions
/// actually pin rather than by how many keys exist.
const REGISTRY_LEAF_BUDGET: usize = 1 << 20;

/// An LRU-bounded registry of compiled executor sessions, keyed by
/// `(spec fingerprint, sizes, plan, window)`.
///
/// Retention is bounded by an entry capacity *and* a constant pinned-leaf budget (the
/// memory bound).  One process-global instance backs [`shared_program`] (and, through
/// it, the DSL's `Pochoir` object and [`StencilServer::new`]); multi-tenant
/// deployments or tests can construct private instances with
/// [`SessionRegistry::with_capacity`].
///
/// ```
/// use pochoir_core::engine::serving::SessionRegistry;
/// use pochoir_core::engine::{Coarsening, ExecutionPlan};
/// use pochoir_core::kernel::StencilSpec;
/// use pochoir_core::shape::star_shape;
/// use std::sync::Arc;
///
/// let registry = SessionRegistry::with_capacity(8);
/// let spec = StencilSpec::new(star_shape::<2>(1));
/// let plan = ExecutionPlan::trap().with_coarsening(Coarsening::new(2, [6, 6]));
/// // First lookup of a geometry compiles; the second is served the same session.
/// let (first, miss) = registry.get_or_compile(&spec, &plan, [16, 16], 4);
/// let (second, hit) = registry.get_or_compile(&spec, &plan, [16, 16], 4);
/// assert!(!miss.hit && hit.hit);
/// assert!(Arc::ptr_eq(&first, &second));
/// ```
pub struct SessionRegistry {
    sessions: Lru<RegistryKey>,
    quarantined: AtomicU64,
}

impl SessionRegistry {
    /// Creates a registry retaining at most `capacity` sessions (clamped to ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        SessionRegistry {
            sessions: Lru::new(capacity, REGISTRY_LEAF_BUDGET),
            quarantined: AtomicU64::new(0),
        }
    }

    /// Returns the shared program for the given geometry, compiling it (exactly once,
    /// even under concurrent lookups of the same key) on a cold key.
    ///
    /// The [`CacheLookup`] reports whether an existing program was served and how
    /// many LRU entries were evicted to make room; [`stats`](Self::stats) keeps the
    /// cumulative counts.
    pub fn get_or_compile<const D: usize>(
        &self,
        spec: &StencilSpec<D>,
        plan: &ExecutionPlan<D>,
        sizes: [i64; D],
        window: i64,
    ) -> (Arc<CompiledProgram<D>>, CacheLookup) {
        self.try_get_or_compile(spec, plan, sizes, window)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`get_or_compile`](Self::get_or_compile) returning [`ServeError`] instead of
    /// panicking:
    ///
    /// * invalid geometry → [`ServeError::InvalidGeometry`];
    /// * a panicking compile → [`ServeError::CompileFailed`], with the in-flight slot
    ///   dropped, so a retry (e.g. under a [`RetryPolicy`]) performs a fresh compile
    ///   instead of observing a wedged key.
    ///
    /// The exactly-once guarantee is unchanged on the success path: concurrent cold
    /// lookups still share one compilation.
    pub fn try_get_or_compile<const D: usize>(
        &self,
        spec: &StencilSpec<D>,
        plan: &ExecutionPlan<D>,
        sizes: [i64; D],
        window: i64,
    ) -> Result<(Arc<CompiledProgram<D>>, CacheLookup), ServeError> {
        let key = RegistryKey::new(spec, plan, sizes, window);
        let mut compiling = false;
        let found = catch_unwind(AssertUnwindSafe(|| {
            self.sessions.get_or_init(key, || {
                compiling = true;
                // Geometry errors unwind with a typed payload so they classify as
                // `InvalidGeometry` rather than `CompileFailed` below; any other
                // panic is a genuine compile failure.
                match CompiledProgram::try_new(spec.clone(), *plan, sizes, window) {
                    Ok(program) => program,
                    Err(geom) => std::panic::panic_any(geom),
                }
            })
        }));
        found.map_err(|payload| match payload.downcast::<GeometryError>() {
            Ok(geom) => ServeError::from(*geom),
            // Registry bookkeeping is ordinary safe code; if it nonetheless panics
            // the key's state is unknown, and the caller gets a typed, retryable
            // error rather than a propagated panic mid-drain.
            Err(_) if !compiling => ServeError::RegistryPoisoned,
            Err(payload) => ServeError::CompileFailed {
                detail: faults::panic_message(payload.as_ref()),
            },
        })
    }

    /// Quarantines the session key for the given geometry after one of its tenants
    /// panicked: the registry's entry is dropped, so the next lookup recompiles.
    /// Sessions callers still hold stay alive and usable.  Returns whether an entry
    /// existed; the event is counted in [`RegistryStats::quarantined`] either way.
    pub fn quarantine<const D: usize>(
        &self,
        spec: &StencilSpec<D>,
        plan: &ExecutionPlan<D>,
        sizes: [i64; D],
        window: i64,
    ) -> bool {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        self.sessions
            .remove(&RegistryKey::new(spec, plan, sizes, window))
    }

    /// Number of sessions currently retained.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the registry retains no sessions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sets the capacity (clamped to ≥ 1); takes effect on subsequent insertions.
    pub fn set_capacity(&self, capacity: usize) {
        self.sessions.set_capacity(capacity);
    }

    /// A snapshot of the cumulative hit/miss/eviction/quarantine counters.
    pub fn stats(&self) -> RegistryStats {
        let counts = self.sessions.counts();
        RegistryStats {
            hits: counts.hits,
            misses: counts.misses,
            evictions: counts.evictions,
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Drops every retained session (the counters are kept).  Sessions callers still
    /// hold stay alive; only the registry's references are released.
    pub fn clear(&self) {
        self.sessions.clear();
    }
}

static REGISTRY: OnceLock<SessionRegistry> = OnceLock::new();

fn registry() -> &'static SessionRegistry {
    REGISTRY.get_or_init(|| SessionRegistry::with_capacity(DEFAULT_REGISTRY_CAPACITY))
}

/// Fetches the process-global shared [`CompiledProgram`] for the given geometry,
/// compiling it exactly once per `(spec fingerprint, sizes, plan, window)` key.
///
/// This is the entry point the DSL's `Pochoir` object and [`StencilServer::new`] use;
/// callers managing their own registry (multi-tenant isolation, tests) should call
/// [`SessionRegistry::get_or_compile`] on a private instance instead.
pub fn shared_program<const D: usize>(
    spec: &StencilSpec<D>,
    plan: &ExecutionPlan<D>,
    sizes: [i64; D],
    window: i64,
) -> (Arc<CompiledProgram<D>>, CacheLookup) {
    registry().get_or_compile(spec, plan, sizes, window)
}

/// [`shared_program`] returning [`ServeError`] instead of panicking (see
/// [`SessionRegistry::try_get_or_compile`] for the error semantics).
pub fn try_shared_program<const D: usize>(
    spec: &StencilSpec<D>,
    plan: &ExecutionPlan<D>,
    sizes: [i64; D],
    window: i64,
) -> Result<(Arc<CompiledProgram<D>>, CacheLookup), ServeError> {
    registry().try_get_or_compile(spec, plan, sizes, window)
}

/// Process-global session-registry statistics since process start.
pub fn registry_stats() -> RegistryStats {
    registry().stats()
}

/// Sets the process-global registry's capacity (sessions retained; clamped to ≥ 1).
pub fn set_registry_capacity(capacity: usize) {
    registry().set_capacity(capacity);
}

/// Empties the process-global session registry (the statistics are kept).  Sessions
/// still held by callers stay alive.
pub fn clear_registry() {
    registry().clear();
}

/// One request of a batch: a borrowed array and the time window to execute on it.
pub struct BatchRun<'a, T, const D: usize> {
    /// The array to step (its extents must match the program's compiled geometry).
    pub array: &'a mut PochoirArray<T, D>,
    /// First kernel-invocation time (inclusive).
    pub t0: i64,
    /// Last kernel-invocation time (exclusive).
    pub t1: i64,
}

/// Executes every request of `jobs` against one shared `program`, whole-array-parallel
/// across requests via [`Parallelism::for_each_with_grain`] (at most `grain` requests
/// per task).
///
/// Each request runs through the ordinary session pipeline — per-request validation,
/// pinned-schedule replay, phase parallelism — with the *same* provider `par`, so on a
/// work-stealing runtime idle workers steal across requests and within them alike.
/// Results are bitwise identical to running the requests sequentially in any order:
/// the arrays are disjoint and each request's execution is deterministic.
pub fn run_batch<T, K, P, const D: usize>(
    program: &CompiledProgram<D>,
    kernel: &K,
    jobs: &mut [BatchRun<'_, T, D>],
    grain: usize,
    par: &P,
) where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
    P: Parallelism,
{
    match jobs {
        [] => {}
        [only] => program.run(only.array, kernel, only.t0, only.t1, par),
        many => {
            // `for_each_with_grain` hands out shared references; a per-request mutex
            // restores exclusive access (each slot is locked exactly once, so the
            // locks never contend — they only carry the `&mut` across the fork).
            let slots: Vec<Mutex<&mut BatchRun<'_, T, D>>> =
                many.iter_mut().map(Mutex::new).collect();
            par.for_each_with_grain(&slots, grain.max(1), |slot| {
                let job = &mut *lock_transient(slot);
                program.run(job.array, kernel, job.t0, job.t1, par);
            });
        }
    }
}

/// Per-submission scheduling options (see [`StencilServer::submit_with`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Relative share of dispatch slots under weighted-stride scheduling (clamped to
    /// ≥ 1): a weight-4 tenant's windows dispatch 4× as often as a weight-1 tenant's
    /// while both are ready.
    pub weight: u32,
    /// Optional logical deadline: the drain tick (1-based count of dispatched
    /// windows) by which this submission's final window should have been dispatched.
    /// Deadline submissions are scheduled earliest-deadline-first, ahead of
    /// deadline-less work; a missed deadline is counted in
    /// [`DrainReport::deadline_misses`] and the runtime's
    /// `serving_deadline_misses` metric.
    pub deadline: Option<u64>,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        SubmitOptions {
            weight: 1,
            deadline: None,
        }
    }
}

impl SubmitOptions {
    /// Options with the given scheduling weight (clamped to ≥ 1) and no deadline.
    pub fn weighted(weight: u32) -> Self {
        SubmitOptions {
            weight: weight.max(1),
            deadline: None,
        }
    }

    /// Adds a logical deadline (the drain tick by which the final window should have
    /// dispatched).
    pub fn with_deadline(mut self, tick: u64) -> Self {
        self.deadline = Some(tick);
        self
    }
}

/// What the last pipelined [`StencilServer::drain`] did (see
/// [`StencilServer::last_drain`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Per-window work items dispatched (the drain's logical clock ran to this tick).
    pub windows: u64,
    /// High-water mark of the ready queue (work items dispatchable at one instant).
    pub peak_ready: usize,
    /// Submissions whose final window dispatched after their logical deadline.
    pub deadline_misses: u64,
    /// Per ticket: the 1-based tick at which the submission's final window
    /// dispatched (0 for empty submissions).  Earlier ticks finished earlier under
    /// serial drains; tests use this to assert deadline and fairness ordering.
    pub completion_tick: Vec<u64>,
    /// Per ticket: how the submission fared ([`TicketOutcome::Completed`] unless its
    /// kernel panicked or its chain was dropped at dispatch time).
    pub outcomes: Vec<TicketOutcome>,
}

impl DrainReport {
    /// The outcome of one submission (by its submit ticket), if the ticket exists.
    pub fn outcome(&self, ticket: usize) -> Option<&TicketOutcome> {
        self.outcomes.get(ticket)
    }

    /// Typed errors for every ticket that did not complete: panicked tenants as
    /// [`ServeError::TenantPanicked`], dispatch-dropped chains as
    /// [`ServeError::Shed`].  Empty after a clean drain.
    pub fn failures(&self) -> Vec<ServeError> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(ticket, outcome)| match outcome {
                TicketOutcome::Completed => None,
                TicketOutcome::Panicked { message } => Some(ServeError::TenantPanicked {
                    ticket,
                    message: message.clone(),
                }),
                TicketOutcome::Shed { reason } => Some(ServeError::Shed { reason: *reason }),
            })
            .collect()
    }
}

/// A queued [`StencilServer`] request: an owned array plus its window and options.
struct Submission<T, const D: usize> {
    array: PochoirArray<T, D>,
    t0: i64,
    t1: i64,
    opts: SubmitOptions,
    /// The tile pipeline of a sharded submission
    /// ([`submit_sharded`](StencilServer::submit_sharded)): its windows are shard
    /// rounds, and `array` is stale until the drain ends and gathers the tiles.
    shard: Option<ShardRun<'static, T, D>>,
}

impl<T, const D: usize> Submission<T, D>
where
    T: Copy + Send + Sync + 'static,
{
    /// Hands the array back, gathering a sharded submission's tiles into it first
    /// (as of their last completed round).
    fn into_array<P: Parallelism>(self, par: &P) -> PochoirArray<T, D> {
        let mut array = self.array;
        if let Some(run) = self.shard {
            run.finish(&mut array, None, par);
        }
        array
    }
}

/// Virtual-time increment of one dispatched window at weight 1 (stride scheduling:
/// a weight-w tenant's pass advances by `STRIDE_ONE / w` per window).
const STRIDE_ONE: u64 = 1 << 20;

/// One tenant's chain of per-window work items inside a pipelined drain.  Windows of
/// one chain are sequentially dependent (window N+1 reads window N's slices), so at
/// most one item per chain is in flight; chains of different tenants interleave
/// freely.
struct Chain {
    next_t: i64,
    t1: i64,
    /// Stride-scheduling virtual time: advanced by `stride` per dispatched window.
    pass: u64,
    stride: u64,
    deadline: Option<u64>,
    /// Windows dispatched so far — the 0-based index handed to the fault plan, and
    /// the "has this chain started?" test behind dispatch-time deadline drops.
    dispatched: u64,
}

/// The ready queue and clocks of one pipelined drain, shared behind a mutex by the
/// drain's workers.
struct SchedulerState {
    chains: Vec<Chain>,
    /// Tickets whose next window may dispatch now.
    ready: Vec<usize>,
    /// Logical clock: total windows dispatched so far.
    ticks: u64,
    peak_ready: usize,
    deadline_misses: u64,
    completion_tick: Vec<u64>,
    /// Per-ticket fate: `Completed` unless the chain panicked (quarantined mid-drain)
    /// or was dropped at dispatch time.
    outcomes: Vec<TicketOutcome>,
    /// Chains dropped at dispatch time (unmeetable deadlines under
    /// [`AdmissionPolicy::drop_unmeetable`]), counted toward `serving_shed`.
    dispatch_sheds: u64,
}

impl SchedulerState {
    fn new(windows: &[(i64, i64, SubmitOptions)]) -> Self {
        let chains: Vec<Chain> = windows
            .iter()
            .map(|&(t0, t1, opts)| Chain {
                next_t: t0,
                t1,
                pass: 0,
                // Clamped to ≥ 1: a zero stride (weight above STRIDE_ONE) would let
                // the tenant's pass sit at 0 forever and monopolize dispatch —
                // exactly the lockout stride scheduling exists to prevent.
                stride: (STRIDE_ONE / u64::from(opts.weight.max(1))).max(1),
                deadline: opts.deadline,
                dispatched: 0,
            })
            .collect();
        let ready: Vec<usize> = chains
            .iter()
            .enumerate()
            .filter(|(_, c)| c.next_t < c.t1)
            .map(|(i, _)| i)
            .collect();
        SchedulerState {
            peak_ready: ready.len(),
            completion_tick: vec![0; chains.len()],
            outcomes: vec![TicketOutcome::Completed; chains.len()],
            ready,
            ticks: 0,
            deadline_misses: 0,
            chains,
            dispatch_sheds: 0,
        }
    }

    /// Drops ready chains that have not yet started and whose logical deadline can
    /// no longer be met even if they dispatched back-to-back from the next tick
    /// (the dispatch-time half of [`AdmissionPolicy::drop_unmeetable`]).
    fn drop_unmeetable(&mut self, chunk: i64) {
        let mut i = 0;
        while i < self.ready.len() {
            let ticket = self.ready[i];
            let c = &self.chains[ticket];
            let remaining = ((c.t1 - c.next_t) + chunk - 1) / chunk;
            let unmeetable = c.dispatched == 0
                && remaining > 0
                && c.deadline
                    .is_some_and(|d| d < self.ticks + remaining as u64);
            if unmeetable {
                self.ready.swap_remove(i);
                self.dispatch_sheds += 1;
                self.outcomes[ticket] = TicketOutcome::Shed {
                    reason: ShedReason::DeadlineUnmeetable,
                };
                self.chains[ticket].next_t = self.chains[ticket].t1;
            } else {
                i += 1;
            }
        }
    }

    /// Dispatches the highest-priority ready window — (deadline, pass, ticket)
    /// ascending — advancing the clock and the tenant's virtual time.  Returns the
    /// ticket, the chain's 0-based window index, and the window to run, or `None`
    /// if nothing is ready right now.
    fn pop(&mut self, chunk: i64, drop_unmeetable: bool) -> Option<(usize, u64, i64, i64)> {
        if drop_unmeetable {
            self.drop_unmeetable(chunk);
        }
        let pos = (0..self.ready.len()).min_by_key(|&i| {
            let ticket = self.ready[i];
            let c = &self.chains[ticket];
            (c.deadline.unwrap_or(u64::MAX), c.pass, ticket)
        })?;
        let ticket = self.ready.swap_remove(pos);
        self.ticks += 1;
        let chain = &mut self.chains[ticket];
        chain.pass += chain.stride;
        let index = chain.dispatched;
        chain.dispatched += 1;
        let t0 = chain.next_t;
        let t1 = (t0 + chunk).min(chain.t1);
        if t1 == chain.t1 {
            self.completion_tick[ticket] = self.ticks;
            if chain.deadline.is_some_and(|d| self.ticks > d) {
                self.deadline_misses += 1;
            }
        }
        Some((ticket, index, t0, t1))
    }

    /// Marks the window ending at `end` of `ticket` complete, readying the chain's
    /// next window (if any).
    fn complete(&mut self, ticket: usize, end: i64) {
        let chain = &mut self.chains[ticket];
        chain.next_t = end;
        if chain.next_t < chain.t1 {
            self.ready.push(ticket);
            self.peak_ready = self.peak_ready.max(self.ready.len());
        }
    }

    /// Retires `ticket`'s chain after one of its windows panicked: the remaining
    /// windows are cancelled (the chain is exhausted, so no successor is ever
    /// readied) and the outcome records the payload's message.  **Only this chain**
    /// — sibling tenants keep dispatching and draining normally; that is the panic
    /// quarantine the module docs describe.
    fn fail(&mut self, ticket: usize, message: String) {
        let chain = &mut self.chains[ticket];
        chain.next_t = chain.t1;
        self.outcomes[ticket] = TicketOutcome::Panicked { message };
    }
}

/// The serving facade: one shared session, a bound kernel, and a submit/drain queue
/// scheduled as a pipelined multi-tenant workload.
///
/// A server is the per-geometry object a deployment holds: [`new`](StencilServer::new)
/// fetches the [`CompiledProgram`] from the process-global [`SessionRegistry`] (so N
/// servers — or N DSL `Pochoir` objects — over identical geometry compile once),
/// [`submit`](StencilServer::submit) / [`submit_with`](StencilServer::submit_with)
/// enqueue `(array, t0, t1)` requests with optional per-tenant weight and deadline,
/// and [`drain`](StencilServer::drain) runs the queue as per-window work items through
/// the weighted/deadline ready queue (see the module docs), handing the arrays back in
/// submission order.  [`stats`](StencilServer::stats) exposes the shared session's
/// counters: at steady state `runs` grows by the window count per drain while
/// `schedule_compiles` stays constant — one compile, any number of windows.
///
/// ```
/// use pochoir_core::boundary::Boundary;
/// use pochoir_core::engine::serving::{StencilServer, SubmitOptions};
/// use pochoir_core::engine::{Coarsening, ExecutionPlan};
/// use pochoir_core::grid::PochoirArray;
/// use pochoir_core::kernel::{StencilKernel, StencilSpec};
/// use pochoir_core::shape::star_shape;
/// use pochoir_core::view::GridAccess;
///
/// struct Decay; // each cell loses 10% per step
/// impl StencilKernel<f64, 2> for Decay {
///     fn update<A: GridAccess<f64, 2>>(&self, g: &A, t: i64, x: [i64; 2]) {
///         g.set(t + 1, x, 0.9 * g.get(t, x));
///     }
/// }
///
/// let mut server = StencilServer::new(
///     StencilSpec::new(star_shape::<2>(1)),
///     Decay,
///     ExecutionPlan::trap().with_coarsening(Coarsening::new(2, [5, 5])),
///     [12, 12],
///     4, // windows of 4 steps: the pipelined drain's chunk height
/// );
/// let make = || {
///     let mut a = PochoirArray::<f64, 2>::new([12, 12]);
///     a.register_boundary(Boundary::Periodic);
///     a.fill_time_slice(0, |x| (x[0] + x[1]) as f64);
///     a
/// };
/// // An 8-step background request and a 4-step deadline request.
/// let slow = server.submit(make(), 0, 8);
/// let urgent = server.submit_with(make(), 0, 4, SubmitOptions::weighted(2).with_deadline(1));
/// let results = server.drain(); // pipelined: the urgent window dispatches first
/// assert_eq!(results.len(), 2);
/// let report = server.last_drain().unwrap();
/// assert_eq!(report.windows, 3); // 2 windows for `slow`, 1 for `urgent`
/// assert_eq!(report.deadline_misses, 0);
/// assert!(report.completion_tick[urgent] < report.completion_tick[slow]);
/// ```
pub struct StencilServer<T, K, const D: usize> {
    program: Arc<CompiledProgram<D>>,
    kernel: K,
    runtime: Option<Arc<Runtime>>,
    queue: Vec<Submission<T, D>>,
    /// What the last pipelined drain did.
    last_drain: Option<DrainReport>,
    /// Submit-time quotas (default: admit everything).
    policy: AdmissionPolicy,
    /// Deterministic fault injection for the chaos suite (default: none).
    fault_plan: Option<FaultPlan>,
    /// Whether this server's program came from the process-global registry
    /// ([`new`](Self::new)): only then can a panic quarantine the key there.
    uses_global_registry: bool,
    /// Submit-time sheds since the last drain, flushed to `serving_shed` then.
    pending_sheds: u64,
    /// Compile retries performed at construction, flushed to `serving_retries` by
    /// the first drain.
    pending_retries: u64,
}

impl<T, K, const D: usize> StencilServer<T, K, D>
where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
{
    /// Creates a server for grids of extent `sizes`, fetching the shared program for
    /// `(spec, plan, sizes, window)` from the process-global registry (compiling it if
    /// this geometry was never seen).
    pub fn new(
        spec: StencilSpec<D>,
        kernel: K,
        plan: ExecutionPlan<D>,
        sizes: [usize; D],
        window: i64,
    ) -> Self {
        Self::try_new(spec, kernel, plan, sizes, window).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new) returning [`ServeError`] instead of panicking — invalid
    /// geometry or a panicking compile surface as typed errors.
    pub fn try_new(
        spec: StencilSpec<D>,
        kernel: K,
        plan: ExecutionPlan<D>,
        sizes: [usize; D],
        window: i64,
    ) -> Result<Self, ServeError> {
        Self::try_new_with_retry(
            spec,
            kernel,
            plan,
            sizes,
            window,
            RetryPolicy::new(0, Duration::ZERO),
        )
    }

    /// [`try_new`](Self::try_new) retrying transient [`ServeError::CompileFailed`]
    /// failures under `retry` (bounded, exponential backoff).  Retries performed are
    /// flushed to the `serving_retries` metric by the server's first drain.
    pub fn try_new_with_retry(
        spec: StencilSpec<D>,
        kernel: K,
        plan: ExecutionPlan<D>,
        sizes: [usize; D],
        window: i64,
        retry: RetryPolicy,
    ) -> Result<Self, ServeError> {
        let mut extents = [0i64; D];
        for i in 0..D {
            extents[i] = sizes[i] as i64;
        }
        let (outcome, retries) = retry.retry(|| try_shared_program(&spec, &plan, extents, window));
        let (program, _) = outcome?;
        let mut server = Self::from_program(program, kernel);
        server.uses_global_registry = true;
        server.pending_retries = u64::from(retries);
        Ok(server)
    }

    /// Creates a server around an explicit shared program (e.g. one fetched from a
    /// private [`SessionRegistry`]).  Such a server never quarantines keys in the
    /// process-global registry.
    pub fn from_program(program: Arc<CompiledProgram<D>>, kernel: K) -> Self {
        StencilServer {
            program,
            kernel,
            runtime: None,
            queue: Vec::new(),
            last_drain: None,
            policy: AdmissionPolicy::default(),
            fault_plan: None,
            uses_global_registry: false,
            pending_sheds: 0,
            pending_retries: 0,
        }
    }

    /// Sets the submit-time admission policy (quotas, deadline
    /// rejection/dropping); the default admits everything.
    pub fn with_admission_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Installs a deterministic [`FaultPlan`]: planned `(ticket, window)` coordinates
    /// panic or stall before the window executes, exercising exactly the code paths a
    /// crashing or slow kernel would.  Test/chaos instrumentation — never set in
    /// production serving.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Pins a dedicated work-stealing runtime; [`drain`](Self::drain) uses it instead
    /// of the process-global one.
    pub fn with_runtime(mut self, runtime: Arc<Runtime>) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// The shared session program (one per geometry, process-wide).
    pub fn program(&self) -> &Arc<CompiledProgram<D>> {
        &self.program
    }

    /// The bound kernel.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// A snapshot of the shared session's executor counters.
    ///
    /// Note the counters belong to the *shared* program: other servers or `Pochoir`
    /// objects over the same geometry contribute to them too — which is the point
    /// (they prove one compile serves all callers).
    pub fn stats(&self) -> SessionStats {
        self.program.stats()
    }

    /// Enqueues a request to run kernel-invocation times `[t0, t1)` on `array` with
    /// default options (weight 1, no deadline); returns its ticket (the index of its
    /// array in the next [`drain`](Self::drain)).
    ///
    /// The array's extents must match the server's compiled geometry.
    pub fn submit(&mut self, array: PochoirArray<T, D>, t0: i64, t1: i64) -> usize {
        self.submit_with(array, t0, t1, SubmitOptions::default())
    }

    /// [`submit`](Self::submit) with explicit scheduling options: a per-tenant weight
    /// (share of dispatch slots) and an optional logical deadline (see
    /// [`SubmitOptions`]).  Panics on rejection; [`try_submit_with`](Self::try_submit_with)
    /// is the non-panicking variant.
    pub fn submit_with(
        &mut self,
        array: PochoirArray<T, D>,
        t0: i64,
        t1: i64,
        opts: SubmitOptions,
    ) -> usize {
        self.try_submit_with(array, t0, t1, opts)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`submit`](Self::submit) returning [`ServeError`] instead of panicking.
    pub fn try_submit(
        &mut self,
        array: PochoirArray<T, D>,
        t0: i64,
        t1: i64,
    ) -> Result<usize, ServeError> {
        self.try_submit_with(array, t0, t1, SubmitOptions::default())
    }

    /// [`submit_with`](Self::submit_with) returning [`ServeError`] instead of
    /// panicking: mismatched geometry is [`ServeError::InvalidGeometry`], admission
    /// control rejections are [`ServeError::Shed`] (counted toward the
    /// `serving_shed` metric at the next drain), and — under
    /// [`AdmissionPolicy::reject_unmeetable`] — hopeless deadlines are
    /// [`ServeError::DeadlineUnmeetable`].  On `Err` the array is dropped with the
    /// error; nothing is queued.
    pub fn try_submit_with(
        &mut self,
        array: PochoirArray<T, D>,
        t0: i64,
        t1: i64,
        opts: SubmitOptions,
    ) -> Result<usize, ServeError> {
        self.check_extents(&array)?;
        self.admit(t0, t1, opts)?;
        self.queue.push(Submission {
            array,
            t0,
            t1,
            opts,
            shard: None,
        });
        Ok(self.queue.len() - 1)
    }

    /// Submits a giant grid as a **sharded tenant**: the array is split along its
    /// outermost axis into halo-padded tiles (geometry per the server plan's
    /// [`Sharding`](crate::engine::Sharding) mode, window pinned to the server's
    /// chunk height), and the next [`drain`](Self::drain) schedules the submission
    /// like any other — one ticket, one chain — except that each of its windows is
    /// one shard round: every tile advances a window in parallel, then the halo
    /// seams are exchanged.
    ///
    /// Returns the submission's ticket: in the drained results that index holds the
    /// reassembled giant, bitwise identical to running it unsharded.  A panicking
    /// round retires the ticket like any other tenant's; the returned array is then
    /// structurally valid with unspecified contents.  Panics on rejection;
    /// [`try_submit_sharded`](Self::try_submit_sharded) is the non-panicking variant.
    pub fn submit_sharded(
        &mut self,
        array: PochoirArray<T, D>,
        t0: i64,
        t1: i64,
        opts: SubmitOptions,
    ) -> usize {
        self.try_submit_sharded(array, t0, t1, opts)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`submit_sharded`](Self::submit_sharded) returning [`ServeError`] instead of
    /// panicking: mismatched geometry, a [`Boundary::Custom`] array, a plan with
    /// sharding off, or an unshardable geometry are [`ServeError::InvalidGeometry`];
    /// tile compilation failures surface as their underlying error.  Admission
    /// control charges what any submission of `[t0, t1)` costs.
    pub fn try_submit_sharded(
        &mut self,
        array: PochoirArray<T, D>,
        t0: i64,
        t1: i64,
        opts: SubmitOptions,
    ) -> Result<usize, ServeError> {
        self.check_extents(&array)?;
        let unshardable = |e: ShardError| ServeError::InvalidGeometry {
            detail: e.to_string(),
        };
        if matches!(array.boundary(), Boundary::Custom(_)) {
            return Err(unshardable(ShardError::UnsupportedBoundary));
        }
        let program = Arc::clone(&self.program);
        let (spec, plan) = (program.spec(), program.plan());
        // The pool the scatter's per-tile copies run on.
        let runtime = self.runtime.clone();
        let par = match &runtime {
            Some(rt) => rt.as_ref(),
            None => Runtime::global(),
        };
        let shard_plan = ShardPlan::for_window(
            program.sizes(),
            spec.reach()[0],
            &plan.coarsening,
            program.window().max(1),
            par.num_workers(),
            shard::wraps_axis0(array.boundary()),
            plan.sharding,
        )
        .ok_or_else(|| ServeError::InvalidGeometry {
            detail: format!(
                "no tile geometry for a sharded submission under sharding mode {:?}",
                plan.sharding
            ),
        })?;
        self.admit(t0, t1, opts)?;
        let run = ShardRun::start(Cow::Owned(shard_plan), &array, spec, plan, t1, None, par)
            .map_err(|e| match e {
                ShardError::Compile(inner) => inner,
                other => unshardable(other),
            })?;
        self.queue.push(Submission {
            array,
            t0,
            t1,
            opts,
            shard: Some(run),
        });
        Ok(self.queue.len() - 1)
    }

    /// Rejects an array whose extents differ from the server's compiled geometry.
    fn check_extents(&self, array: &PochoirArray<T, D>) -> Result<(), ServeError> {
        if array.sizes_i64() == self.program.sizes() {
            return Ok(());
        }
        Err(ServeError::InvalidGeometry {
            detail: format!(
                "submitted array extents {:?} do not match the server's compiled extents {:?}",
                array.sizes_i64(),
                self.program.sizes()
            ),
        })
    }

    /// Admission control for one `[t0, t1)` submission: a span whose window
    /// arithmetic overflows `i64` is invalid, then the opt-in unmeetable-deadline
    /// rejection, then the quotas.  A quota or deadline refusal is counted toward
    /// `serving_shed`.
    fn admit(&mut self, t0: i64, t1: i64, opts: SubmitOptions) -> Result<(), ServeError> {
        // The drain steps a chain to `next_t + chunk` and counts its windows as
        // `(t1 - t0 + chunk - 1) / chunk`; both must fit, or a wrapped window end
        // never reaches `t1` and the drain spins.
        let chunk = self.program.window().max(1);
        let overflows = t1 > t0
            && (t1.checked_add(chunk).is_none()
                || t1
                    .checked_sub(t0)
                    .and_then(|span| span.checked_add(chunk - 1))
                    .is_none());
        if overflows {
            return Err(ServeError::InvalidGeometry {
                detail: format!("time span [{t0}, {t1}) overflows i64 in windows of {chunk} steps"),
            });
        }
        let windows = self.windows_of(t0, t1);
        let refusal = match opts.deadline {
            Some(deadline) if self.policy.reject_unmeetable && deadline < windows => {
                Some(ServeError::DeadlineUnmeetable { deadline, windows })
            }
            _ => self
                .admission_shed(windows)
                .map(|reason| ServeError::Shed { reason }),
        };
        match refusal {
            Some(e) => {
                self.pending_sheds += 1;
                Err(e)
            }
            None => Ok(()),
        }
    }

    /// Dispatch ticks (per-window work items) a `[t0, t1)` submission costs.
    fn windows_of(&self, t0: i64, t1: i64) -> u64 {
        let chunk = self.program.window().max(1);
        if t1 > t0 {
            (((t1 - t0) + chunk - 1) / chunk) as u64
        } else {
            0
        }
    }

    /// The first admission-policy quota a new `new_windows`-window submission would
    /// violate.
    fn admission_shed(&self, new_windows: u64) -> Option<ShedReason> {
        let policy = &self.policy;
        if policy.max_pending.is_some_and(|m| self.queue.len() >= m) {
            return Some(ShedReason::QueueFull);
        }
        if let Some(max) = policy.max_queued_windows {
            let queued: u64 = self.queue.iter().map(|s| self.windows_of(s.t0, s.t1)).sum();
            if queued + new_windows > max {
                return Some(ShedReason::WindowQuotaExceeded);
            }
        }
        if policy
            .max_session_leaves
            .is_some_and(|m| self.program.pinned_leaf_count() > m)
        {
            return Some(ShedReason::SessionLeafQuota);
        }
        None
    }

    /// Number of requests waiting for the next drain.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// What the last pipelined [`drain`](Self::drain) did: windows dispatched,
    /// ready-queue high-water mark, deadline misses, and per-ticket completion ticks.
    /// `None` before the first pipelined drain.
    pub fn last_drain(&self) -> Option<&DrainReport> {
        self.last_drain.as_ref()
    }

    /// Executes every queued request through the pipelined scheduler and returns the
    /// arrays in submission order, using the pinned runtime if one was set and the
    /// process-global runtime otherwise.
    ///
    /// Each submission is split into per-window work items of the program's compiled
    /// chunk height; the items dispatch in (deadline, weighted virtual time, ticket)
    /// order with no cross-tenant barrier — see the module docs for the semantics.
    /// Results are bitwise identical to [`drain_barrier`](Self::drain_barrier).
    pub fn drain(&mut self) -> Vec<PochoirArray<T, D>> {
        match self.runtime.clone() {
            Some(rt) => self.drain_with(rt.as_ref()),
            None => self.drain_with(Runtime::global()),
        }
    }

    /// [`drain`](Self::drain) with an explicit parallelism provider (e.g. `Serial` for
    /// deterministic test runs: windows then execute exactly in priority order).
    ///
    /// If any tenant panicked, the first payload is re-thrown **after** every sibling
    /// finished draining (the pre-quarantine contract); use
    /// [`try_drain_with`](Self::try_drain_with) to receive the surviving arrays and
    /// per-ticket outcomes instead.
    pub fn drain_with<P: Parallelism>(&mut self, par: &P) -> Vec<PochoirArray<T, D>> {
        let (arrays, mut payloads) = self.drain_inner(par);
        if !payloads.is_empty() {
            resume_unwind(payloads.swap_remove(0));
        }
        arrays
    }

    /// [`drain`](Self::drain) that never panics on tenant failures: every array comes
    /// back in submission order — panicked tenants as of their last completed window,
    /// dispatch-dropped tenants untouched — and
    /// [`last_drain`](Self::last_drain)`.outcomes` (or
    /// [`DrainReport::failures`]) says which tickets failed and why.
    ///
    /// The `Result` is reserved for failures of the drain *itself*; per-tenant
    /// failures never produce `Err` (a drain that ran is a drain that reports).
    pub fn try_drain(&mut self) -> Result<Vec<PochoirArray<T, D>>, ServeError> {
        match self.runtime.clone() {
            Some(rt) => self.try_drain_with(rt.as_ref()),
            None => self.try_drain_with(Runtime::global()),
        }
    }

    /// [`try_drain`](Self::try_drain) with an explicit parallelism provider.
    pub fn try_drain_with<P: Parallelism>(
        &mut self,
        par: &P,
    ) -> Result<Vec<PochoirArray<T, D>>, ServeError> {
        let (arrays, _payloads) = self.drain_inner(par);
        Ok(arrays)
    }

    /// The shared drain pipeline: runs the queue to completion with per-window panic
    /// quarantine, records the report, flushes metrics, quarantines the session key
    /// if a tenant panicked, and returns the arrays plus any captured panic payloads
    /// (ticket order).
    fn drain_inner<P: Parallelism>(
        &mut self,
        par: &P,
    ) -> (Vec<PochoirArray<T, D>>, Vec<Box<dyn Any + Send>>) {
        let queue = std::mem::take(&mut self.queue);
        let windows: Vec<(i64, i64, SubmitOptions)> =
            queue.iter().map(|s| (s.t0, s.t1, s.opts)).collect();
        let slots: Vec<Mutex<Submission<T, D>>> = queue.into_iter().map(Mutex::new).collect();
        let chunk = self.program.window().max(1);
        let drop_unmeetable = self.policy.drop_unmeetable;
        let sched = Mutex::new(SchedulerState::new(&windows));
        let payloads: Mutex<Vec<(usize, Box<dyn Any + Send>)>> = Mutex::new(Vec::new());
        {
            let fault_plan = self.fault_plan.clone();
            // Runs one work item — a window of the shared program, or one round of a
            // sharded submission's tile pipeline.  At most one window per chain is
            // ever in flight, so the per-ticket mutex is uncontended — it only
            // carries the `&mut` to whichever worker dispatched the item.  The fault
            // plan (if any) fires before the window touches its array, exactly where
            // a kernel panic would unwind from.
            let run_one = |ticket: usize, index: u64, t0: i64, t1: i64| {
                if let Some(plan) = &fault_plan {
                    plan.apply(ticket, index);
                }
                let slot = &mut *lock_transient(&slots[ticket]);
                match &mut slot.shard {
                    Some(run) => run.step(&self.kernel, t0, t1, par),
                    None => self.program.run(&mut slot.array, &self.kernel, t0, t1, par),
                }
            };
            // A crew of up to one worker per pool thread loops `pop → run → complete`
            // and returns as soon as nothing is ready.  No job may wait on a
            // condition only another queued job can establish (docs/serving.md): a
            // worker blocked in a window's phase `join` may run a not-yet-started
            // crew task, which must therefore end on its own.  Returning early loses
            // nothing: `complete` readies at most its own chain's successor, and the
            // worker that completed it pops again at once.  A panicking window is
            // caught here, per item, and retires only its own chain (`fail`).
            let worker = || loop {
                // A statement of its own, so the queue lock drops before the window runs.
                let next = lock_transient(&sched).pop(chunk, drop_unmeetable);
                let Some((ticket, index, t0, t1)) = next else {
                    break;
                };
                match catch_unwind(AssertUnwindSafe(|| run_one(ticket, index, t0, t1))) {
                    Ok(()) => lock_transient(&sched).complete(ticket, t1),
                    Err(payload) => {
                        lock_transient(&sched)
                            .fail(ticket, faults::panic_message(payload.as_ref()));
                        lock_transient(&payloads).push((ticket, payload));
                    }
                }
            };
            par.parallel_for(par.num_workers().min(slots.len()), 1, |_| worker());
        }
        let state = into_inner_transient(sched);
        par.count(Counter::ServingWindows, state.ticks);
        par.count(Counter::ServingQueueDepthPeak, state.peak_ready as u64);
        par.count(Counter::ServingDeadlineMisses, state.deadline_misses);
        let sheds = std::mem::take(&mut self.pending_sheds) + state.dispatch_sheds;
        par.count(Counter::ServingShed, sheds);
        let retries = std::mem::take(&mut self.pending_retries);
        par.count(Counter::ServingRetries, retries);
        let recovered = faults::take_unreported_poison_recoveries();
        par.count(Counter::RegistryPoisonRecoveries, recovered);
        let panicked = state
            .outcomes
            .iter()
            .any(|o| matches!(o, TicketOutcome::Panicked { .. }));
        if panicked && self.uses_global_registry {
            registry().quarantine(
                self.program.spec(),
                self.program.plan(),
                self.program.sizes(),
                self.program.window(),
            );
            par.count(Counter::ServingQuarantined, 1);
        }
        self.last_drain = Some(DrainReport {
            windows: state.ticks,
            peak_ready: state.peak_ready,
            deadline_misses: state.deadline_misses,
            completion_tick: state.completion_tick,
            outcomes: state.outcomes,
        });
        let mut payloads = into_inner_transient(payloads);
        payloads.sort_by_key(|&(ticket, _)| ticket);
        let results = slots
            .into_iter()
            .map(|slot| into_inner_transient(slot).into_array(par))
            .collect();
        (
            results,
            payloads.into_iter().map(|(_, payload)| payload).collect(),
        )
    }

    /// Executes every queued request as one barrier batch — each submission is a
    /// single monolithic run, executed through [`run_batch`] — and returns the arrays
    /// in submission order.  This is the pre-pipelining drain, kept as the reference
    /// and comparison path: results are bitwise identical to [`drain`](Self::drain),
    /// but weights and deadlines are ignored and every tenant waits for the whole
    /// batch.
    pub fn drain_barrier(&mut self) -> Vec<PochoirArray<T, D>> {
        match self.runtime.clone() {
            Some(rt) => self.drain_barrier_with(rt.as_ref()),
            None => self.drain_barrier_with(Runtime::global()),
        }
    }

    /// [`drain_barrier`](Self::drain_barrier) with an explicit parallelism provider.
    pub fn drain_barrier_with<P: Parallelism>(&mut self, par: &P) -> Vec<PochoirArray<T, D>> {
        let mut queue = std::mem::take(&mut self.queue);
        let mut jobs: Vec<BatchRun<'_, T, D>> = queue
            .iter_mut()
            .filter(|s| s.shard.is_none())
            .map(|s| BatchRun {
                array: &mut s.array,
                t0: s.t0,
                t1: s.t1,
            })
            .collect();
        // Grain 1: every array is an independently stealable task.
        run_batch(&self.program, &self.kernel, &mut jobs, 1, par);
        drop(jobs);
        // A sharded submission is tile-parallel inside; its rounds run back to back.
        for s in &mut queue {
            if let Some(run) = &mut s.shard {
                run.steps(&self.kernel, s.t0, par);
            }
        }
        queue.into_iter().map(|s| s.into_array(par)).collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // a failed unwrap in a test *should* fail the test
mod tests {
    use super::*;
    use crate::boundary::Boundary;
    use crate::engine::executor::CompiledStencil;
    use crate::engine::plan::Coarsening;
    use crate::shape::star_shape;
    use crate::view::GridAccess;
    use pochoir_runtime::Serial;

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

    fn make_array(n: usize, seed: i64) -> PochoirArray<f64, 2> {
        let mut a = PochoirArray::new([n, n]);
        a.register_boundary(Boundary::Periodic);
        a.fill_time_slice(0, |x| ((x[0] * 7 + x[1] * 3 + seed) % 13) as f64);
        a
    }

    fn plan() -> ExecutionPlan<2> {
        ExecutionPlan::trap().with_coarsening(Coarsening::new(2, [6, 6]))
    }

    #[test]
    fn private_registry_dedups_and_counts() {
        let reg = SessionRegistry::with_capacity(8);
        let spec = StencilSpec::new(star_shape::<2>(1));
        let (a, la) = reg.get_or_compile(&spec, &plan(), [18, 18], 4);
        let (b, lb) = reg.get_or_compile(&spec, &plan(), [18, 18], 4);
        assert!(!la.hit);
        assert!(lb.hit);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            reg.stats(),
            RegistryStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                quarantined: 0
            }
        );
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn distinct_dimensionalities_never_collide() {
        let reg = SessionRegistry::with_capacity(8);
        let spec2 = StencilSpec::new(star_shape::<2>(1));
        let spec1 = StencilSpec::new(star_shape::<1>(1));
        let (_, l2) = reg.get_or_compile(&spec2, &plan(), [9, 9], 3);
        let (_, l1) = reg.get_or_compile(&spec1, &ExecutionPlan::<1>::trap(), [9], 3);
        assert!(!l2.hit);
        assert!(!l1.hit, "a 1D key must not collide with a 2D key");
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let reg = SessionRegistry::with_capacity(4);
        let spec = StencilSpec::new(star_shape::<2>(1));
        reg.get_or_compile(&spec, &plan(), [11, 11], 3);
        assert!(!reg.is_empty());
        reg.clear();
        assert!(reg.is_empty());
        assert_eq!(reg.stats().misses, 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let spec = StencilSpec::new(star_shape::<2>(1));
        let program = CompiledProgram::new(spec, plan(), [10, 10], 3);
        let mut jobs: Vec<BatchRun<'_, f64, 2>> = Vec::new();
        run_batch(&program, &Heat2D, &mut jobs, 1, &Serial);
        assert_eq!(program.stats().runs, 0);
    }

    #[test]
    fn server_returns_arrays_in_submission_order() {
        let mut server = StencilServer::new(
            StencilSpec::new(star_shape::<2>(1)),
            Heat2D,
            plan(),
            [13, 13],
            3,
        );
        for seed in 0..4 {
            let ticket = server.submit(make_array(13, seed), 0, 3);
            assert_eq!(ticket, seed as usize);
        }
        assert_eq!(server.pending(), 4);
        let drained = server.drain_with(&Serial);
        assert_eq!(drained.len(), 4);
        assert_eq!(server.pending(), 0);
        for (seed, array) in drained.iter().enumerate() {
            let mut expected = make_array(13, seed as i64);
            let session = CompiledStencil::new(
                StencilSpec::new(star_shape::<2>(1)),
                Heat2D,
                plan(),
                [13, 13],
                3,
            );
            session.run_with(&mut expected, 0, 3, &Serial);
            assert_eq!(array.snapshot(3), expected.snapshot(3), "ticket {seed}");
        }
    }

    #[test]
    fn pipelined_drain_reports_windows_and_completion_ticks() {
        let mut server = StencilServer::new(
            StencilSpec::new(star_shape::<2>(1)),
            Heat2D,
            plan(),
            [11, 11],
            2, // chunk height 2
        );
        // Ticket 0: 6 steps = 3 windows; ticket 1: 2 steps = 1 window.
        server.submit(make_array(11, 0), 0, 6);
        server.submit(make_array(11, 1), 0, 2);
        let _ = server.drain_with(&Serial);
        let report = server.last_drain().unwrap().clone();
        assert_eq!(report.windows, 4);
        assert_eq!(report.deadline_misses, 0);
        // Equal weights round-robin: ticket 1's only window dispatches second.
        assert_eq!(report.completion_tick[1], 2);
        assert_eq!(report.completion_tick[0], 4);
        assert!(report.peak_ready >= 2);
    }

    #[test]
    fn deadline_submissions_dispatch_first_and_misses_are_counted() {
        let mut server = StencilServer::new(
            StencilSpec::new(star_shape::<2>(1)),
            Heat2D,
            plan(),
            [11, 11],
            2,
        );
        server.submit(make_array(11, 0), 0, 6); // no deadline
        server.submit_with(
            make_array(11, 1),
            0,
            4,
            SubmitOptions::default().with_deadline(2),
        );
        let _ = server.drain_with(&Serial);
        let report = server.last_drain().unwrap().clone();
        // The deadline tenant's 2 windows dispatch at ticks 1 and 2: made it exactly.
        assert_eq!(report.completion_tick[1], 2);
        assert_eq!(report.deadline_misses, 0);
        // An impossible deadline is counted as missed.
        server.submit_with(
            make_array(11, 2),
            0,
            6,
            SubmitOptions::default().with_deadline(1),
        );
        let _ = server.drain_with(&Serial);
        assert_eq!(server.last_drain().unwrap().deadline_misses, 1);
    }

    #[test]
    fn pipelined_drain_is_bitwise_identical_to_barrier_drain() {
        let make_server = || {
            StencilServer::new(
                StencilSpec::new(star_shape::<2>(1)),
                Heat2D,
                plan(),
                [13, 13],
                3,
            )
        };
        // Mixed window lengths, including a non-multiple of the chunk height and an
        // empty submission.
        let requests = [(0i64, 7i64), (0, 3), (0, 9), (2, 2), (0, 6)];
        let mut pipelined = make_server();
        let mut barrier = make_server();
        for (i, &(t0, t1)) in requests.iter().enumerate() {
            let opts = SubmitOptions::weighted(1 + i as u32 % 3);
            pipelined.submit_with(make_array(13, i as i64), t0, t1, opts);
            barrier.submit(make_array(13, i as i64), t0, t1);
        }
        let a = pipelined.drain_with(&Serial);
        let b = barrier.drain_barrier_with(&Serial);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            let t = requests[i].1;
            assert_eq!(x.snapshot(t), y.snapshot(t), "ticket {i}");
        }
    }

    #[test]
    #[should_panic(expected = "do not match the server's compiled extents")]
    fn server_rejects_mismatched_geometry_at_submit() {
        let mut server = StencilServer::new(
            StencilSpec::new(star_shape::<2>(1)),
            Heat2D,
            plan(),
            [14, 14],
            3,
        );
        server.submit(make_array(15, 0), 0, 3);
    }

    #[test]
    fn try_submit_returns_typed_geometry_error() {
        let mut server = StencilServer::new(
            StencilSpec::new(star_shape::<2>(1)),
            Heat2D,
            plan(),
            [14, 14],
            3,
        );
        let err = server.try_submit(make_array(15, 0), 0, 3).unwrap_err();
        match err {
            ServeError::InvalidGeometry { detail } => {
                assert!(detail.contains("do not match the server's compiled extents"));
            }
            other => panic!("expected InvalidGeometry, got {other:?}"),
        }
        assert_eq!(server.pending(), 0, "rejected submissions are not queued");
    }

    #[test]
    fn admission_policy_sheds_at_quota_and_typed_reasons_round_trip() {
        let mut server = StencilServer::new(
            StencilSpec::new(star_shape::<2>(1)),
            Heat2D,
            plan(),
            [12, 12],
            3,
        )
        .with_admission_policy(AdmissionPolicy {
            max_pending: Some(2),
            max_queued_windows: Some(2),
            ..AdmissionPolicy::default()
        });
        assert!(server.try_submit(make_array(12, 0), 0, 3).is_ok());
        // 2 more windows would exceed the 2-window quota before the 2-entry cap.
        let err = server.try_submit(make_array(12, 1), 0, 6).unwrap_err();
        assert_eq!(
            err,
            ServeError::Shed {
                reason: ShedReason::WindowQuotaExceeded
            }
        );
        assert!(server.try_submit(make_array(12, 1), 0, 3).is_ok());
        let err = server.try_submit(make_array(12, 2), 0, 3).unwrap_err();
        assert_eq!(
            err,
            ServeError::Shed {
                reason: ShedReason::QueueFull
            }
        );
        // Both admitted tenants still drain fine; sheds are in the metric path only.
        let drained = server.try_drain_with(&Serial).unwrap();
        assert_eq!(drained.len(), 2);
        assert!(server.last_drain().unwrap().failures().is_empty());
    }

    /// A span at the top of `i64` is refused before it is queued (its window
    /// ends would wrap and the drain would never finish the chain), for plain and
    /// sharded submissions alike; the last span that fits still drains.
    #[test]
    fn spans_whose_window_arithmetic_overflows_are_refused() {
        let chunk = 4;
        let mut server = StencilServer::new(
            StencilSpec::new(star_shape::<2>(1)),
            Heat2D,
            plan().with_sharding(crate::engine::Sharding::Tiles(2)),
            [12, 12],
            chunk,
        );
        for (t0, t1) in [
            (i64::MAX - 1, i64::MAX),
            (i64::MAX - 8, i64::MAX - 2),
            (i64::MIN, 1),
        ] {
            for sharded in [false, true] {
                let submitted = if sharded {
                    server.try_submit_sharded(make_array(12, 0), t0, t1, SubmitOptions::default())
                } else {
                    server.try_submit(make_array(12, 0), t0, t1)
                };
                assert!(
                    matches!(submitted, Err(ServeError::InvalidGeometry { ref detail }) if detail.contains("overflows")),
                    "[{t0}, {t1}) sharded={sharded}: {submitted:?}"
                );
            }
        }
        assert_eq!(server.pending(), 0, "refused spans are not queued");
        assert_eq!(server.pending_sheds, 0, "an invalid span is not a shed");

        // The highest t1 admitted (t1 + chunk == i64::MAX) drains like [0, 7);
        // t0 is even, so the data sits in slice 0 as it does for the reference.
        let (t0, t1) = (i64::MAX - chunk - 7, i64::MAX - chunk);
        let mut reference = make_array(12, 0);
        CompiledStencil::new(
            StencilSpec::new(star_shape::<2>(1)),
            Heat2D,
            plan(),
            [12, 12],
            chunk,
        )
        .run_with(&mut reference, 0, t1 - t0, &Serial);
        server.try_submit(make_array(12, 0), t0, t1).unwrap();
        let drained = server.try_drain_with(&Serial).unwrap();
        assert_eq!(drained[0].snapshot(t1), reference.snapshot(t1 - t0));
    }

    #[test]
    fn reject_unmeetable_is_opt_in() {
        let mut server = StencilServer::new(
            StencilSpec::new(star_shape::<2>(1)),
            Heat2D,
            plan(),
            [12, 12],
            2,
        )
        .with_admission_policy(AdmissionPolicy {
            reject_unmeetable: true,
            ..AdmissionPolicy::default()
        });
        // 6 steps at chunk 2 = 3 windows; a deadline of 1 tick can never be met.
        let err = server
            .try_submit_with(
                make_array(12, 0),
                0,
                6,
                SubmitOptions::default().with_deadline(1),
            )
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::DeadlineUnmeetable {
                deadline: 1,
                windows: 3
            }
        );
        // A meetable deadline is admitted.
        assert!(server
            .try_submit_with(
                make_array(12, 0),
                0,
                6,
                SubmitOptions::default().with_deadline(3),
            )
            .is_ok());
    }

    #[test]
    fn drop_unmeetable_sheds_at_dispatch_and_leaves_the_array_untouched() {
        let mut server = StencilServer::new(
            StencilSpec::new(star_shape::<2>(1)),
            Heat2D,
            plan(),
            [12, 12],
            2,
        )
        .with_admission_policy(AdmissionPolicy {
            drop_unmeetable: true,
            ..AdmissionPolicy::default()
        });
        server.submit(make_array(12, 0), 0, 6); // 3 windows, no deadline
        let doomed = server.submit_with(
            make_array(12, 1),
            0,
            6,
            SubmitOptions::default().with_deadline(1), // needs 3 ticks
        );
        let drained = server.try_drain_with(&Serial).unwrap();
        let report = server.last_drain().unwrap().clone();
        assert_eq!(
            report.outcome(doomed),
            Some(&TicketOutcome::Shed {
                reason: ShedReason::DeadlineUnmeetable
            })
        );
        assert_eq!(report.outcome(0), Some(&TicketOutcome::Completed));
        assert_eq!(report.deadline_misses, 0, "dropped, not missed");
        // The dropped tenant's array never ran a window.
        assert_eq!(drained[doomed].snapshot(0), make_array(12, 1).snapshot(0));
    }

    #[test]
    fn quarantine_evicts_and_the_key_recompiles() {
        let reg = SessionRegistry::with_capacity(8);
        let spec = StencilSpec::new(star_shape::<2>(1));
        let (first, _) = reg.try_get_or_compile(&spec, &plan(), [16, 16], 4).unwrap();
        assert_eq!(reg.len(), 1);
        assert!(reg.quarantine(&spec, &plan(), [16, 16], 4));
        assert_eq!(reg.len(), 0, "the entry is evicted");
        assert_eq!(reg.stats().quarantined, 1);
        let (again, lookup) = reg.try_get_or_compile(&spec, &plan(), [16, 16], 4).unwrap();
        assert!(!lookup.hit, "the next lookup recompiles");
        assert!(!Arc::ptr_eq(&first, &again));
    }

    /// A private registry whose pinned-leaf budget is `leaf_budget`.
    fn registry_with_budget(capacity: usize, leaf_budget: usize) -> SessionRegistry {
        SessionRegistry {
            sessions: Lru::new(capacity, leaf_budget),
            quarantined: AtomicU64::new(0),
        }
    }

    /// The leaf-weighted budget: a registry whose pinned-leaf budget cannot hold two
    /// sessions keeps only the most recent one, however generous its entry capacity —
    /// while a single over-budget session stays retained (it is in use).
    #[test]
    fn leaf_budget_evicts_by_pinned_weight_not_entry_count() {
        let spec = StencilSpec::new(star_shape::<2>(1));
        // Learn the weight of one session, then set the budget to 1.5× of it.
        let probe = SessionRegistry::with_capacity(8);
        let (first, _) = probe.get_or_compile(&spec, &plan(), [19, 19], 3);
        let weight = first.pinned_leaf_count();
        assert!(weight > 0, "a compiled session must pin leaves");

        let mut registry = registry_with_budget(8, weight * 3 / 2);
        let (_, l1) = registry.get_or_compile(&spec, &plan(), [19, 19], 3);
        assert_eq!(l1.evicted, 0, "a single over-budget session is retained");
        // A second geometry pushes the total past the budget: the LRU entry goes, even
        // though the entry capacity (8) has plenty of room.
        let (_, l2) = registry.get_or_compile(&spec, &plan(), [21, 21], 3);
        assert_eq!(l2.evicted, 1, "the leaf budget, not the capacity, evicts");
        assert_eq!(registry.len(), 1);
        // Raising the budget lets both live side by side again.
        registry.sessions.leaf_budget = weight * 4;
        let (_, l3) = registry.get_or_compile(&spec, &plan(), [19, 19], 3);
        assert!(!l3.hit, "the evicted key recompiles");
        assert_eq!(l3.evicted, 0);
        assert_eq!(registry.len(), 2);
    }

    /// Weights are read live: a session whose pin set grew after its lookup is
    /// charged its new weight at the next lookup of any key.
    #[test]
    fn a_grown_pin_set_is_charged_at_the_next_lookup() {
        let spec = StencilSpec::new(star_shape::<2>(1));
        let probe = SessionRegistry::with_capacity(8);
        let weigh = |n: i64| {
            let (program, _) = probe.get_or_compile(&spec, &plan(), [n, n], 3);
            program.pinned_leaf_count()
        };
        // Exactly room for both sessions as built.
        let registry = registry_with_budget(8, weigh(19) + weigh(21));
        let (grown, _) = registry.get_or_compile(&spec, &plan(), [19, 19], 3);
        registry.get_or_compile(&spec, &plan(), [21, 21], 3);
        assert_eq!(registry.len(), 2);
        assert_eq!(grown.precompile_windows(&[5]), 1);
        // A hit on the other key sees the grown weight and evicts the LRU session.
        let (_, lookup) = registry.get_or_compile(&spec, &plan(), [21, 21], 3);
        assert!(lookup.hit);
        assert_eq!(lookup.evicted, 1, "the grown session no longer fits");
        assert_eq!(registry.len(), 1);
        let (_, refetch) = registry.get_or_compile(&spec, &plan(), [19, 19], 3);
        assert!(!refetch.hit, "the grown session was the one evicted");
    }

    #[test]
    fn injected_compile_failure_is_typed_and_retryable() {
        let reg = SessionRegistry::with_capacity(8);
        let spec = StencilSpec::new(star_shape::<2>(1));
        crate::engine::faults::inject_compile_failures(1);
        let err = reg
            .try_get_or_compile(&spec, &plan(), [17, 17], 4)
            .err()
            .expect("injected compile failure must surface");
        match &err {
            ServeError::CompileFailed { detail } => {
                assert!(detail.contains(crate::engine::faults::INJECTED_COMPILE_FAILURE));
            }
            other => panic!("expected CompileFailed, got {other:?}"),
        }
        assert_eq!(reg.len(), 0, "the failed slot must not wedge the registry");
        // A RetryPolicy turns the transient failure into a success and counts it.
        crate::engine::faults::inject_compile_failures(2);
        let retry = RetryPolicy::new(3, Duration::ZERO);
        let (outcome, retries) =
            retry.retry(|| reg.try_get_or_compile(&spec, &plan(), [17, 17], 4));
        assert!(outcome.is_ok());
        assert_eq!(retries, 2);
    }

    #[test]
    fn panicking_tenant_is_quarantined_and_siblings_complete_serial() {
        let mut server = StencilServer::new(
            StencilSpec::new(star_shape::<2>(1)),
            Heat2D,
            plan(),
            [11, 11],
            2,
        )
        .with_fault_plan(FaultPlan::new().panic_at(1, 1));
        server.submit(make_array(11, 0), 0, 6);
        server.submit(make_array(11, 1), 0, 6); // panics at its 2nd window
        server.submit(make_array(11, 2), 0, 6);
        let drained = server.try_drain_with(&Serial).unwrap();
        assert_eq!(drained.len(), 3);
        let report = server.last_drain().unwrap().clone();
        assert!(matches!(
            report.outcome(1),
            Some(TicketOutcome::Panicked { message }) if message.contains("injected kernel panic")
        ));
        assert_eq!(report.outcome(0), Some(&TicketOutcome::Completed));
        assert_eq!(report.outcome(2), Some(&TicketOutcome::Completed));
        // Siblings are bitwise identical to a fault-free drain.
        let mut clean = StencilServer::new(
            StencilSpec::new(star_shape::<2>(1)),
            Heat2D,
            plan(),
            [11, 11],
            2,
        );
        clean.submit(make_array(11, 0), 0, 6);
        clean.submit(make_array(11, 2), 0, 6);
        let reference = clean.try_drain_with(&Serial).unwrap();
        assert_eq!(drained[0].snapshot(6), reference[0].snapshot(6));
        assert_eq!(drained[2].snapshot(6), reference[1].snapshot(6));
        // The panicked tenant stopped after its first (completed) window.
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert!(matches!(
            &failures[0],
            ServeError::TenantPanicked { ticket: 1, .. }
        ));
        // A subsequent drain on the same server works (nothing is wedged).
        server.submit(make_array(11, 3), 0, 4);
        let after = server.try_drain_with(&Serial).unwrap();
        assert_eq!(after.len(), 1);
        assert!(server.last_drain().unwrap().failures().is_empty());
    }
}
