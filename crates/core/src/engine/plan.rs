//! Execution plans: which engine to run, how to coarsen the base case, and which of the
//! compiler's code-generation choices (Section 4) to emulate.

use crate::engine::walker::CutStrategy;
use crate::simd::SimdPolicy;

/// Which algorithm executes the stencil.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The paper's TRAP: trapezoidal decomposition with hyperspace cuts (Section 3).
    Trap,
    /// STRAP: Frigo–Strumpen-style decomposition with one space cut at a time
    /// (the comparator of Theorem 5 and Figures 9/10).
    Strap,
    /// The naive serial triply-nested loop of Figure 1, one core.
    LoopsSerial,
    /// Figure 1 with the outer spatial loop parallelized (`cilk_for` / `parallel_for`).
    LoopsParallel,
    /// Space-blocked (tiled) parallel loops — the Berkeley-autotuner-style baseline used
    /// for the Figure 5 comparison.
    LoopsBlocked,
}

/// Address-computation style of the interior clone (the paper's `--split-pointer` vs.
/// `--split-macro-shadow` command-line options, Figure 12/13).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum IndexMode {
    /// Unchecked raw stride arithmetic (the `--split-pointer` analog).  Default.
    #[default]
    Unchecked,
    /// Bounds-checked address computation (the `--split-macro-shadow` analog).
    Checked,
}

/// Inner-loop dispatch style of the base case (Section 4, "loop indexing").
///
/// The paper's generated interior clone walks unit-stride pointers along the innermost
/// dimension (`--split-pointer`); recomputing a full multi-term offset per access is the
/// indexing ablation of Figure 13.  [`BaseCase::Row`] resolves each contiguous row's
/// base address once and hands whole rows to
/// [`StencilKernel::update_row`](crate::kernel::StencilKernel::update_row);
/// [`BaseCase::Point`] drives the kernel strictly point by point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BaseCase {
    /// Row-oriented execution: offsets hoisted out of the inner loop.  Default.
    #[default]
    Row,
    /// Point-by-point execution: full offset arithmetic on every access (the
    /// per-access-indexing ablation, and the reference for equivalence tests).
    Point,
}

/// Decomposition control flow for the recursive engines (TRAP and STRAP).
///
/// The cut tree is pure geometry: it depends only on the domain sizes, slopes,
/// coarsening and zoid height, never on grid contents or the absolute time origin.
/// [`ScheduleMode::Compiled`] exploits that by building the TRAP/STRAP decomposition
/// once into a flat schedule (see [`crate::engine::schedule`]), caching it, and replaying
/// it on every run; [`ScheduleMode::Recursive`] re-derives the cut tree on every call
/// (the paper's original control flow, kept as the reference for equivalence tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ScheduleMode {
    /// Compile the decomposition once, cache it, replay it per run.  Default.
    #[default]
    Compiled,
    /// Re-derive the cut tree recursively on every run.
    Recursive,
}

/// Kernel-clone selection policy (Section 4, "handling boundary conditions by code
/// cloning").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum CloneMode {
    /// Interior zoids run the fast interior clone; boundary zoids run the boundary clone.
    #[default]
    InteriorAndBoundary,
    /// Every zoid runs the boundary clone (every access pays the boundary/modulo check);
    /// this reproduces the "modular indexing" ablation of Section 4 (≈2.3× slowdown).
    AlwaysBoundary,
}

/// Giant-grid sharding policy for [`ScheduleMode::Compiled`] plans.
///
/// Grids too large for one compiled arena (see `schedule::should_compile`) are split
/// along the outermost axis into halo-padded tiles, each small enough to compile,
/// executed window-by-window with a halo-exchange sync between windows (see
/// [`crate::engine::shard`]).  Sharding never changes results — the tiles reproduce
/// the unsharded run bitwise.
///
/// The plan's [`Coarsening`] decides *whether* a grid is a giant (the size gate
/// reads it literally); inside a tile the engine picks the base-case size itself —
/// the plan's thresholds raised to at least [`Coarsening::heuristic`] — because a
/// tile is geometry the caller never sees.  [`Sharding::Off`] is the literal path:
/// the recursion runs down to exactly the plan's thresholds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Sharding {
    /// Never shard: a geometry that fails the compiled-path size gate runs the
    /// recursive reference walker at exactly the plan's coarsening (what the
    /// uncoarsened Figure 9/10 and Section-4 ablations measure).
    Off,
    /// Shard automatically when (and only when) the geometry fails the size gate,
    /// deriving the tile count and sync window from the geometry.  Default.
    #[default]
    Auto,
    /// Like [`Auto`](Self::Auto), but with an explicit tile count (clamped to the
    /// outermost extent; `Tiles(0)` and `Tiles(1)` mean a single tile).
    Tiles(u32),
}

/// Base-case coarsening thresholds (Section 4, "coarsening of base cases").
///
/// Recursion stops splitting a dimension once its width is at or below `dx[i]`, and stops
/// time-cutting once the height is at or below `dt`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Coarsening<const D: usize> {
    /// Maximum base-case height (time steps).
    pub dt: i64,
    /// Maximum base-case width per spatial dimension.
    pub dx: [i64; D],
}

impl<const D: usize> Coarsening<D> {
    /// No coarsening: recurse all the way down (used by the Figure 9/10 experiments,
    /// which measure the uncoarsened algorithms).  Geometries large enough to fail
    /// the compiled-path size gate keep that meaning only under [`Sharding::Off`];
    /// the default [`Sharding::Auto`] runs them as tiles with their own base case.
    pub fn none() -> Self {
        Coarsening { dt: 1, dx: [1; D] }
    }

    /// The paper's heuristic coarsening (Section 4): roughly 100×100×5 base cases in 2D;
    /// in three or more dimensions never cut the unit-stride dimension and keep the
    /// others small (1000×3×3 with 3 time steps in 3D).
    pub fn heuristic() -> Self {
        let mut dx = [3i64; D];
        match D {
            1 => {
                dx[0] = 1000;
                Coarsening { dt: 100, dx }
            }
            2 => {
                dx = [100i64; D];
                Coarsening { dt: 5, dx }
            }
            _ => {
                dx[D - 1] = 1000; // never cut the unit-stride dimension
                Coarsening { dt: 3, dx }
            }
        }
    }

    /// Explicit thresholds.
    pub fn new(dt: i64, dx: [i64; D]) -> Self {
        assert!(dt >= 1, "coarsening dt must be at least 1");
        assert!(
            dx.iter().all(|&w| w >= 1),
            "coarsening widths must be at least 1"
        );
        Coarsening { dt, dx }
    }

    /// These thresholds raised component-wise to at least `floor`'s.
    pub fn at_least(mut self, floor: &Self) -> Self {
        self.dt = self.dt.max(floor.dt);
        for (w, &f) in self.dx.iter_mut().zip(&floor.dx) {
            *w = (*w).max(f);
        }
        self
    }
}

impl<const D: usize> Default for Coarsening<D> {
    fn default() -> Self {
        Self::heuristic()
    }
}

/// A complete description of how to execute a stencil computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecutionPlan<const D: usize> {
    /// Which engine runs.
    pub engine: EngineKind,
    /// Base-case coarsening for the recursive engines.
    pub coarsening: Coarsening<D>,
    /// Interior-clone indexing style.
    pub index_mode: IndexMode,
    /// Base-case inner-loop dispatch style.
    pub base_case: BaseCase,
    /// Kernel-clone selection policy.
    pub clone_mode: CloneMode,
    /// Decomposition control flow for TRAP/STRAP (compiled schedule vs. recursion).
    pub schedule: ScheduleMode,
    /// Spatial block edge lengths for [`EngineKind::LoopsBlocked`].
    pub block: [usize; D],
    /// Parallel-loop grain: outer-dimension rows per task for the loop engines, and
    /// zoids per task on wide dependency levels for TRAP/STRAP.
    pub grain: usize,
    /// Row-kernel SIMD dispatch policy (resolved against host detection at run time;
    /// see [`crate::simd::resolve`]).  Never changes results — the AVX2 rows are
    /// bitwise-equal to the baseline loop.
    pub simd: SimdPolicy,
    /// Giant-grid sharding policy: what happens when a [`ScheduleMode::Compiled`]
    /// geometry fails the compiled-path size gate.  Never changes results.
    pub sharding: Sharding,
}

impl<const D: usize> ExecutionPlan<D> {
    /// The default plan for the given engine.
    pub fn new(engine: EngineKind) -> Self {
        ExecutionPlan {
            engine,
            coarsening: Coarsening::heuristic(),
            index_mode: IndexMode::Unchecked,
            base_case: BaseCase::Row,
            clone_mode: CloneMode::InteriorAndBoundary,
            schedule: ScheduleMode::Compiled,
            block: [64; D],
            grain: 1,
            simd: SimdPolicy::Auto,
            sharding: Sharding::Auto,
        }
    }

    /// TRAP with the paper's heuristic coarsening — the configuration the Pochoir
    /// compiler emits by default.
    pub fn trap() -> Self {
        Self::new(EngineKind::Trap)
    }

    /// STRAP (serial space cuts) with heuristic coarsening.
    pub fn strap() -> Self {
        Self::new(EngineKind::Strap)
    }

    /// The serial loop nest of Figure 1.
    pub fn loops_serial() -> Self {
        Self::new(EngineKind::LoopsSerial)
    }

    /// Figure 1 with the outer loop parallelized.
    pub fn loops_parallel() -> Self {
        Self::new(EngineKind::LoopsParallel)
    }

    /// Space-blocked parallel loops.
    pub fn loops_blocked(block: [usize; D]) -> Self {
        let mut plan = Self::new(EngineKind::LoopsBlocked);
        plan.block = block;
        plan
    }

    /// The space-cut strategy of the recursive engines: hyperspace cuts for
    /// [`EngineKind::Trap`], one dimension at a time for [`EngineKind::Strap`], and
    /// `None` for the loop engines (which never cut).
    ///
    /// This is the single source of the `EngineKind → CutStrategy` mapping; the
    /// executor, the traced mode and the schedule compiler all resolve the strategy
    /// through it.
    pub fn cut_strategy(&self) -> Option<CutStrategy> {
        match self.engine {
            EngineKind::Trap => Some(CutStrategy::Hyperspace),
            EngineKind::Strap => Some(CutStrategy::SingleDimension),
            EngineKind::LoopsSerial | EngineKind::LoopsParallel | EngineKind::LoopsBlocked => None,
        }
    }

    /// Builder-style override of the coarsening thresholds.
    pub fn with_coarsening(mut self, coarsening: Coarsening<D>) -> Self {
        self.coarsening = coarsening;
        self
    }

    /// Builder-style override of the indexing mode.
    pub fn with_index_mode(mut self, mode: IndexMode) -> Self {
        self.index_mode = mode;
        self
    }

    /// Builder-style override of the base-case dispatch style.
    pub fn with_base_case(mut self, base_case: BaseCase) -> Self {
        self.base_case = base_case;
        self
    }

    /// Builder-style override of the clone policy.
    pub fn with_clone_mode(mut self, mode: CloneMode) -> Self {
        self.clone_mode = mode;
        self
    }

    /// Builder-style override of the TRAP/STRAP schedule mode.
    pub fn with_schedule_mode(mut self, mode: ScheduleMode) -> Self {
        self.schedule = mode;
        self
    }

    /// Builder-style override of the loop grain.
    pub fn with_grain(mut self, grain: usize) -> Self {
        self.grain = grain.max(1);
        self
    }

    /// Builder-style override of the SIMD dispatch policy.
    pub fn with_simd(mut self, simd: SimdPolicy) -> Self {
        self.simd = simd;
        self
    }

    /// Builder-style override of the giant-grid sharding policy.
    pub fn with_sharding(mut self, sharding: Sharding) -> Self {
        self.sharding = sharding;
        self
    }
}

impl<const D: usize> Default for ExecutionPlan<D> {
    fn default() -> Self {
        Self::trap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_coarsening_matches_paper_guidance() {
        let c1: Coarsening<1> = Coarsening::heuristic();
        assert_eq!(c1.dx, [1000]);
        let c2: Coarsening<2> = Coarsening::heuristic();
        assert_eq!(c2.dt, 5);
        assert_eq!(c2.dx, [100, 100]);
        let c3: Coarsening<3> = Coarsening::heuristic();
        assert_eq!(c3.dt, 3);
        assert_eq!(c3.dx, [3, 3, 1000]);
        let c4: Coarsening<4> = Coarsening::heuristic();
        assert_eq!(c4.dx, [3, 3, 3, 1000]);
    }

    #[test]
    fn none_coarsening_recurses_to_unit_cells() {
        let c: Coarsening<2> = Coarsening::none();
        assert_eq!(c.dt, 1);
        assert_eq!(c.dx, [1, 1]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_dt_rejected() {
        let _ = Coarsening::<2>::new(0, [1, 1]);
    }

    #[test]
    fn cut_strategy_maps_engines() {
        assert_eq!(
            ExecutionPlan::<2>::trap().cut_strategy(),
            Some(CutStrategy::Hyperspace)
        );
        assert_eq!(
            ExecutionPlan::<2>::strap().cut_strategy(),
            Some(CutStrategy::SingleDimension)
        );
        assert_eq!(ExecutionPlan::<2>::loops_serial().cut_strategy(), None);
        assert_eq!(ExecutionPlan::<2>::loops_parallel().cut_strategy(), None);
        assert_eq!(
            ExecutionPlan::<2>::loops_blocked([8, 8]).cut_strategy(),
            None
        );
    }

    #[test]
    fn plan_builders() {
        let plan = ExecutionPlan::<2>::trap()
            .with_coarsening(Coarsening::new(4, [32, 32]))
            .with_index_mode(IndexMode::Checked)
            .with_base_case(BaseCase::Point)
            .with_clone_mode(CloneMode::AlwaysBoundary)
            .with_schedule_mode(ScheduleMode::Recursive)
            .with_grain(0)
            .with_simd(SimdPolicy::Scalar)
            .with_sharding(Sharding::Tiles(4));
        assert_eq!(plan.engine, EngineKind::Trap);
        assert_eq!(plan.sharding, Sharding::Tiles(4));
        assert_eq!(ExecutionPlan::<2>::trap().sharding, Sharding::Auto);
        assert_eq!(plan.simd, SimdPolicy::Scalar);
        assert_eq!(ExecutionPlan::<2>::trap().simd, SimdPolicy::Auto);
        assert_eq!(plan.coarsening.dt, 4);
        assert_eq!(plan.index_mode, IndexMode::Checked);
        assert_eq!(plan.base_case, BaseCase::Point);
        assert_eq!(plan.clone_mode, CloneMode::AlwaysBoundary);
        assert_eq!(plan.schedule, ScheduleMode::Recursive);
        assert_eq!(plan.grain, 1);
        assert_eq!(ExecutionPlan::<2>::trap().schedule, ScheduleMode::Compiled);
        assert_eq!(ExecutionPlan::<2>::trap().base_case, BaseCase::Row);
        assert_eq!(ExecutionPlan::<3>::default().engine, EngineKind::Trap);
        assert_eq!(ExecutionPlan::<2>::loops_blocked([16, 16]).block, [16, 16]);
    }
}
