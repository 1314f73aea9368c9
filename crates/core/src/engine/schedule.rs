//! Compiled zoid schedules: build the TRAP/STRAP decomposition once, execute it many
//! times.
//!
//! ## Why compile the recursion?
//!
//! The hyperspace-cut recursion of the paper's Figure 2 is *pure geometry*: which cuts
//! apply, where the trisection midpoints fall, which leaves are interior — all of it
//! depends only on the domain sizes, the stencil slopes, the coarsening thresholds and
//! the zoid height, never on grid contents or the absolute time origin.  The recursive
//! walker nevertheless re-derives the whole cut tree (feasibility tests, trisection
//! arithmetic, torus cuts, per-leaf interior classification, nested fork-join latches)
//! on every `run()`.  This module walks the tree **once** and flattens it into a
//! replayable [`Schedule`].
//!
//! ## Mapping the arena back to Figure 2
//!
//! Figure 2's recursion has three arms, and each one corresponds to a construct of the
//! compiled form:
//!
//! * **space cut** (Figure 2's recursive case; hyperspace cuts for TRAP, one dimension
//!   at a time for STRAP) — the `3^k` subzoids fall into `k + 1` *dependency levels*
//!   (Lemma 1).  The compiler keeps the levels' barrier structure by assigning each
//!   leaf a **phase** number: all leaves of one level's subtrees receive phases strictly
//!   before the next level's, while subtrees within a level share the phase space
//!   (they are independent, so their leaves may interleave).
//! * **time cut** (Figure 7c) — the lower subzoid's leaves receive phases strictly
//!   before the upper subzoid's, reproducing the lower-then-upper sequencing.
//! * **base case** — a [`ScheduledLeaf`]: the zoid, plus the kernel-clone choice
//!   (interior vs. boundary, Section 4 "code cloning") resolved at compile time.
//!
//! The result is a flat arena — `leaves` in depth-first order, partitioned into
//! `phases` — whose execution is a branch-light sweep with zero cut arithmetic.  A
//! single worker walks the arena front to back, which is the recursive walker's exact
//! serial visit order (cache-oblivious locality intact).  A parallel runtime runs the
//! phases in order and the leaves of one phase concurrently through
//! [`Parallelism::for_each_with_grain`], honouring the plan's grain and replacing the
//! walker's deeply nested fork-join latches.  Phase membership is exactly the greedy
//! level schedule of the fork-join DAG, so two leaves share a phase only if the
//! recursive walker could have run them concurrently.
//!
//! ## Leaf coalescing
//!
//! TRAP's deep recursion fragments the base cases into slivers (gray triangles, torus
//! wrap pieces), which starves the row-oriented base case of long unit-stride rows and
//! buries the computation under per-leaf dispatch.  The compiler coalesces two ways:
//!
//! * **Chain collapsing** (the big win): a zoid too narrow for any space cut — every
//!   width already at or below its coarsening threshold — can only ever be time-cut
//!   again, so its whole subtree is a *sequential* chain of sliver leaves.  The
//!   compiler emits the subtree root as one tall base case instead.  This is safe
//!   because (a) base-case execution sweeps time ascending, which honours every
//!   dependency internal to a zoid, and (b) in the fork-join partial order the
//!   ordering between a subtree and any outside leaf is decided at their lowest
//!   common ancestor, hence uniform across the whole subtree — no outside work can
//!   be ordered *between* parts of the chain.  Collapsing is capped at a few
//!   coarsening heights so one column never becomes a parallelism-starving mega-task.
//! * **Edge merging**: consecutive leaves of the same phase are mutually independent,
//!   so any two with the same kernel clone whose union is again a zoid
//!   ([`Zoid::try_merge`]) are welded together.
//!
//! ## Segment-level clone resolution
//!
//! The per-leaf interior test is necessarily conservative: one wrapped (virtual)
//! coordinate or one row hugging a domain edge demotes a whole leaf to the boundary
//! clone — and under the unified torus scheme the wrap pieces are sized by the *full*
//! window height, so on periodic problems (or 3D heuristics that never cut the
//! unit-stride dimension) most of the domain can end up on the slow clone.  Because a
//! compiled leaf carries the stencil reach, the executor re-resolves the clone *per
//! folded row segment*: a segment whose read halo is fully in-domain runs the interior
//! clone, and a segment touching an edge or seam goes whole to the boundary clone, which
//! serves it ghost rows so the same vectorized row body runs there
//! ([`base::execute_zoid_hybrid`]).  The recursive walker feeds its leaves through the
//! same dispatch (`benchmark/`'s `schedule.compiled_over_recursive` compares the two).
//!
//! ## Schedule cache and time-origin shifting
//!
//! Schedules are compiled in *schedule-local time* (`t0 = 0`) and shifted to the run's
//! window at execution ([`Zoid::shifted`]), so one compiled period serves every run of
//! the same geometry: a process-global cache keyed by
//! `(sizes, slopes, reach, coarsening, strategy, clone mode, height)` makes repeated
//! `run()` calls — time stepping loops, autotuner pilots, benchmark reps — reuse the
//! compiled decomposition instead of recompiling per call.  The cache is an instance of
//! the engine's one bounded LRU (`engine::lru`, whose other instance is the session
//! registry): a cold key compiles exactly once however many threads look it up, and
//! least-recently-used entries are evicted under an entry-count capacity and a constant
//! *leaf budget* (total leaves across all entries, the dominant memory term — the same
//! bound [`should_compile`] puts on one schedule's estimate).  [`cache_stats`] reports
//! compiles, hits and evictions.
//!
//! Sessions ([`crate::engine::executor::CompiledStencil`]) pin the `Arc<Schedule>` they
//! resolve, so even an evicted schedule stays alive for the sessions using it — eviction
//! only drops the cache's reference.

use crate::engine::base;
use crate::engine::lru::{Lru, Weigh};
use crate::engine::plan::{Coarsening, ExecutionPlan};
use crate::engine::walker::{cut_with_strategy, CutStrategy};
use crate::grid::RawGrid;
use crate::hyperspace::CutParams;
use crate::kernel::StencilKernel;
use crate::zoid::Zoid;
use pochoir_runtime::Parallelism;
use std::sync::{Arc, OnceLock};

pub use crate::engine::lru::CacheLookup;

/// One leaf of a compiled schedule: a base-case zoid with its kernel clone pre-resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledLeaf<const D: usize> {
    /// The base-case zoid, in schedule-local time (`t0` relative to the window start).
    pub zoid: Zoid<D>,
    /// Whether the fast interior clone may run this leaf (Section 4, "code cloning").
    pub interior: bool,
}

/// A compiled TRAP/STRAP decomposition: a flat arena of base-case leaves in depth-first
/// (serial recursion) order, plus a phase partition for parallel execution.
///
/// Serial execution walks `leaves` front to back — exactly the order the recursive
/// walker would visit, preserving its cache-oblivious locality.  Parallel execution
/// walks the phases in order and the leaves of one phase concurrently.
#[derive(Debug)]
pub struct Schedule<const D: usize> {
    sizes: [i64; D],
    /// Per-dimension stencil reach, kept for the boundary leaves' segment-level clone
    /// resolution at execution time.
    reach: [i64; D],
    /// Whether boundary leaves may upgrade in-domain row segments to the interior clone
    /// (`false` under [`CloneMode::AlwaysBoundary`], whose point is that they must not).
    hybrid: bool,
    height: i64,
    /// Leaves in depth-first emit order.
    leaves: Vec<ScheduledLeaf<D>>,
    /// Leaf indices grouped by phase: `phase_ranges[p]` spans a slice of `phase_index`,
    /// whose entries index `leaves`.  Within a phase, indices keep depth-first order.
    phase_index: Vec<u32>,
    /// `(start, end)` ranges into `phase_index`, one per phase, in execution order.
    phase_ranges: Vec<(u32, u32)>,
    /// Leaf count the uncollapsed recursion would have produced (diagnostics).
    raw_leaves: usize,
}

/// The recursive tree walk that assigns phases; mirrors `Walker::walk` exactly (same
/// cut decisions in the same order), but emits leaves instead of executing them.
struct Compiler<const D: usize> {
    params: CutParams<D>,
    max_height: i64,
    /// Maximum height of a collapsed time-cut chain (a small multiple of `max_height`).
    collapse_height: i64,
    strategy: CutStrategy,
    sizes: [i64; D],
    reach: [i64; D],
    force_boundary: bool,
    /// Leaves in depth-first order, paired with their assigned phase.
    leaves: Vec<(ScheduledLeaf<D>, usize)>,
    /// Leaves the uncollapsed recursion would have produced (diagnostics).
    raw_leaves: usize,
}

/// Number of leaves the time-cut recursion produces for a chain of height `h`.
fn chain_leaves(h: i64, max_height: i64) -> usize {
    if h <= max_height {
        1
    } else {
        let half = h / 2;
        chain_leaves(half, max_height) + chain_leaves(h - half, max_height)
    }
}

impl<const D: usize> Compiler<D> {
    /// Whether `zoid`'s subtree is a pure time-cut chain that should become one leaf:
    /// every width is already at or below its coarsening threshold (widths never grow
    /// under time cuts, so no descendant can ever be space-cut), and the height is
    /// within the collapse cap.
    fn collapsible(&self, zoid: &Zoid<D>) -> bool {
        zoid.height() <= self.collapse_height
            && (0..D).all(|i| zoid.width(i) <= self.params.min_width[i])
    }

    /// Emits `zoid`'s leaves into phases `>= start` and returns the first phase index
    /// available to work that must run after the whole subtree.
    fn emit(&mut self, zoid: &Zoid<D>, start: usize) -> usize {
        if zoid.volume() == 0 {
            return start;
        }
        if let Some(cut) = cut_with_strategy(zoid, &self.params, self.strategy) {
            // Space cut: levels are sequential barriers; subtrees within a level are
            // independent and share the phase space.
            let mut phase = start;
            for level in &cut.levels {
                let mut end = phase;
                for sub in level {
                    end = end.max(self.emit(sub, phase));
                }
                phase = end;
            }
            return phase;
        }
        if zoid.height() > self.max_height && !self.collapsible(zoid) {
            // Time cut: the lower subzoid's leaves strictly precede the upper's.
            let (lower, upper) = zoid.time_cut();
            let mid = self.emit(&lower, start);
            return self.emit(&upper, mid);
        }
        // Base case (possibly a collapsed chain): resolve the kernel clone now so
        // execution never re-classifies.
        self.raw_leaves += chain_leaves(zoid.height(), self.max_height);
        let interior = !self.force_boundary && zoid.is_interior(self.sizes, self.reach);
        self.leaves.push((
            ScheduledLeaf {
                zoid: *zoid,
                interior,
            },
            start,
        ));
        start + 1
    }
}

/// Merges consecutive (in depth-first order) same-clone, same-phase leaves whose union
/// is again a zoid.  Consecutive-only keeps the serial execution order intact; the
/// trisection's internal faces separate dependency-ordered pieces, so this pass mostly
/// welds the outputs of chain collapsing and degenerate (minimal) neighbours.  Runs to
/// a fixpoint; every merge shrinks the list, so termination is immediate.
fn coalesce<const D: usize>(leaves: &mut Vec<(ScheduledLeaf<D>, usize)>) {
    if leaves.len() < 2 {
        return;
    }
    loop {
        let mut changed = false;
        let mut out: Vec<(ScheduledLeaf<D>, usize)> = Vec::with_capacity(leaves.len());
        for (leaf, phase) in leaves.drain(..) {
            if let Some((last, last_phase)) = out.last_mut() {
                if *last_phase == phase && last.interior == leaf.interior {
                    let merged = (0..D).rev().any(|dim| last.zoid.try_merge(&leaf.zoid, dim));
                    if merged {
                        changed = true;
                        continue;
                    }
                }
            }
            out.push((leaf, phase));
        }
        *leaves = out;
        if !changed {
            break;
        }
    }
}

impl<const D: usize> Schedule<D> {
    /// Compiles the decomposition of the full grid over `[0, height)` under the given
    /// geometry.  `force_boundary` mirrors
    /// [`CloneMode::AlwaysBoundary`](crate::engine::plan::CloneMode::AlwaysBoundary).
    pub fn compile(
        sizes: [i64; D],
        slopes: [i64; D],
        reach: [i64; D],
        coarsening: Coarsening<D>,
        strategy: CutStrategy,
        force_boundary: bool,
        height: i64,
    ) -> Self {
        /// Collapsed time-cut chains may be at most this many coarsening heights tall,
        /// bounding the serial work of one leaf relative to an ordinary base case.
        const COLLAPSE_FACTOR: i64 = 8;
        let mut compiler = Compiler {
            params: CutParams::unified(slopes, coarsening.dx, sizes),
            max_height: coarsening.dt,
            collapse_height: coarsening.dt.saturating_mul(COLLAPSE_FACTOR),
            strategy,
            sizes,
            reach,
            force_boundary,
            leaves: Vec::new(),
            raw_leaves: 0,
        };
        if height > 0 {
            compiler.emit(&Zoid::full_grid(sizes, 0, height), 0);
        }
        let mut tagged = compiler.leaves;
        coalesce(&mut tagged);

        // Split the depth-first arena from the phase partition: a stable bucket sort of
        // the leaf indices by phase keeps depth-first order within each phase.
        let num_phases = tagged.iter().map(|&(_, p)| p + 1).max().unwrap_or(0);
        let mut by_phase: Vec<Vec<u32>> = vec![Vec::new(); num_phases];
        let mut leaves = Vec::with_capacity(tagged.len());
        for (i, (leaf, phase)) in tagged.into_iter().enumerate() {
            by_phase[phase].push(i as u32);
            leaves.push(leaf);
        }
        let mut phase_index = Vec::with_capacity(leaves.len());
        let mut phase_ranges = Vec::with_capacity(num_phases);
        for bucket in &mut by_phase {
            if bucket.is_empty() {
                continue;
            }
            let start = phase_index.len() as u32;
            phase_index.append(bucket);
            phase_ranges.push((start, phase_index.len() as u32));
        }
        Schedule {
            sizes,
            reach,
            hybrid: !force_boundary,
            height,
            leaves,
            phase_index,
            phase_ranges,
            raw_leaves: compiler.raw_leaves,
        }
    }

    /// The time-window height `h` this schedule was compiled for (`[0, h)`).
    pub fn height(&self) -> i64 {
        self.height
    }

    /// The grid extents this schedule was compiled for.
    pub fn sizes(&self) -> [i64; D] {
        self.sizes
    }

    /// Number of dependency phases (sequential steps) in the schedule.
    pub fn num_phases(&self) -> usize {
        self.phase_ranges.len()
    }

    /// Number of base-case leaves after coalescing.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Number of base-case leaves the recursive walker would visit for this geometry
    /// (i.e. before chain collapsing and edge merging).
    pub fn raw_leaf_count(&self) -> usize {
        self.raw_leaves
    }

    /// The leaves of phase `i`, in depth-first order.
    pub fn phase_leaves(&self, i: usize) -> impl Iterator<Item = &ScheduledLeaf<D>> {
        let (start, end) = self.phase_ranges[i];
        self.phase_index[start as usize..end as usize]
            .iter()
            .map(|&j| &self.leaves[j as usize])
    }

    /// All leaves in depth-first emit order — the serial recursive walker's exact visit
    /// order.  This is the iteration the serial executor and the traced mode sweep.
    pub fn leaves(&self) -> impl Iterator<Item = &ScheduledLeaf<D>> {
        self.leaves.iter()
    }

    /// Total space-time volume covered by the leaves (every grid point of every time
    /// step appears in exactly one leaf, so this equals `height · ∏ sizes`).
    pub fn leaf_volume(&self) -> u128 {
        self.leaves.iter().map(|l| l.zoid.volume()).sum()
    }

    /// Replays the schedule over the window `[t_offset, t_offset + height)`.
    ///
    /// On a single worker the arena is swept in depth-first order — the exact visit
    /// order of the serial recursive walker, preserving its cache-oblivious locality.
    /// On a parallel runtime, phases run in order and the leaves of one phase run
    /// concurrently via [`Parallelism::for_each_with_grain`] with the plan's grain.
    pub fn execute<T, K, P>(
        &self,
        grid: RawGrid<'_, T, D>,
        kernel: &K,
        t_offset: i64,
        plan: &ExecutionPlan<D>,
        par: &P,
    ) where
        T: Copy + Send + Sync,
        K: StencilKernel<T, D>,
        P: Parallelism,
    {
        let sizes = self.sizes;
        let reach = self.reach;
        let hybrid = self.hybrid;
        let index_mode = plan.index_mode;
        let base_case = plan.base_case;
        let run_leaf = move |leaf: &ScheduledLeaf<D>| {
            let z = leaf.zoid.shifted(t_offset);
            base::execute_leaf(
                &z,
                grid,
                kernel,
                sizes,
                reach,
                leaf.interior,
                hybrid,
                index_mode,
                base_case,
            );
        };
        if !par.is_parallel() {
            for leaf in &self.leaves {
                run_leaf(leaf);
            }
            return;
        }
        let grain = plan.grain.max(1);
        for &(start, end) in &self.phase_ranges {
            let index = &self.phase_index[start as usize..end as usize];
            match index.len() {
                0 => {}
                1 => run_leaf(&self.leaves[index[0] as usize]),
                _ => par.for_each_with_grain(index, grain, |&i| run_leaf(&self.leaves[i as usize])),
            }
        }
    }
}

/// Geometry key of the process-global schedule cache.  Arrays are stored as vectors so
/// one map serves every dimensionality (the vector length encodes `D`).
#[derive(Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    sizes: Vec<i64>,
    slopes: Vec<i64>,
    reach: Vec<i64>,
    dx: Vec<i64>,
    dt: i64,
    height: i64,
    strategy: CutStrategy,
    force_boundary: bool,
}

impl<const D: usize> Weigh for Schedule<D> {
    fn weight(&self) -> usize {
        self.num_leaves()
    }
}

/// Maximum number of cached schedules; beyond it least-recently-used entries are evicted.
const CACHE_CAPACITY: usize = 128;

/// Total leaves the cache may retain across all entries, and the most a schedule may be
/// estimated to have before [`should_compile`] leaves its geometry to the recursive
/// walker: leaves dominate a schedule's footprint (~120 B each in 3D), so this caps
/// resident memory at a few hundred MB even for processes sweeping many large
/// geometries.
const LEAF_BUDGET: usize = 1 << 21;

/// Cumulative schedule-cache counters (see [`cache_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that had to compile a fresh schedule.
    pub compiles: u64,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Entries evicted under the capacity or leaf-budget limits.
    pub evictions: u64,
}

static CACHE: OnceLock<Lru<CacheKey>> = OnceLock::new();

fn cache() -> &'static Lru<CacheKey> {
    CACHE.get_or_init(|| Lru::new(CACHE_CAPACITY, LEAF_BUDGET))
}

/// Process-global schedule-cache statistics since process start.
pub fn cache_stats() -> CacheStats {
    let counts = cache().counts();
    CacheStats {
        compiles: counts.misses,
        hits: counts.hits,
        evictions: counts.evictions,
    }
}

/// Empties the process-global schedule cache (the statistics are kept).  Benchmarks use
/// this to measure cold-compile cost.
pub fn clear_cache() {
    cache().clear();
}

/// [`schedule_for`] against an explicit cache instance.
#[allow(clippy::too_many_arguments)]
fn schedule_for_in<const D: usize>(
    cache: &Lru<CacheKey>,
    sizes: [i64; D],
    slopes: [i64; D],
    reach: [i64; D],
    coarsening: Coarsening<D>,
    strategy: CutStrategy,
    force_boundary: bool,
    height: i64,
) -> (Arc<Schedule<D>>, CacheLookup) {
    let key = CacheKey {
        sizes: sizes.to_vec(),
        slopes: slopes.to_vec(),
        reach: reach.to_vec(),
        dx: coarsening.dx.to_vec(),
        dt: coarsening.dt,
        height,
        strategy,
        force_boundary,
    };
    cache.get_or_init(key, || {
        Schedule::<D>::compile(
            sizes,
            slopes,
            reach,
            coarsening,
            strategy,
            force_boundary,
            height,
        )
    })
}

/// Returns the cached schedule for the given geometry, compiling it on a miss — once,
/// however many threads look the cold key up at the same time.  The [`CacheLookup`]
/// reports whether the lookup was a hit and how many LRU entries were evicted.
#[allow(clippy::too_many_arguments)]
pub fn schedule_for<const D: usize>(
    sizes: [i64; D],
    slopes: [i64; D],
    reach: [i64; D],
    coarsening: Coarsening<D>,
    strategy: CutStrategy,
    force_boundary: bool,
    height: i64,
) -> (Arc<Schedule<D>>, CacheLookup) {
    schedule_for_in(
        cache(),
        sizes,
        slopes,
        reach,
        coarsening,
        strategy,
        force_boundary,
        height,
    )
}

/// Whether compiling a schedule for this geometry is worthwhile: an (almost) uncoarsened
/// decomposition of a large grid would materialize close to one leaf per space-time
/// point, so the recursive walker — which never stores the tree — handles those.
pub fn should_compile<const D: usize>(
    sizes: [i64; D],
    coarsening: &Coarsening<D>,
    height: i64,
) -> bool {
    let dt = coarsening.dt.max(1) as u128;
    let mut estimate: u128 = (height.max(1) as u128).div_ceil(dt);
    for (&size, &dx) in sizes.iter().zip(coarsening.dx.iter()) {
        let w = size.max(1) as u128;
        let dx = dx.max(1) as u128;
        estimate = estimate.saturating_mul(w.div_ceil(dx));
        if estimate > LEAF_BUDGET as u128 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::PochoirArray;
    use crate::view::GridAccess;

    fn compile_2d(n: i64, h: i64, dt: i64, dx: i64) -> Schedule<2> {
        Schedule::compile(
            [n, n],
            [1, 1],
            [1, 1],
            Coarsening::new(dt, [dx, dx]),
            CutStrategy::Hyperspace,
            false,
            h,
        )
    }

    #[test]
    fn leaves_cover_the_full_space_time_volume() {
        for strategy in [CutStrategy::Hyperspace, CutStrategy::SingleDimension] {
            let s = Schedule::<2>::compile(
                [20, 20],
                [1, 1],
                [1, 1],
                Coarsening::new(2, [4, 4]),
                strategy,
                false,
                8,
            );
            assert_eq!(s.leaf_volume(), 20 * 20 * 8, "{strategy:?}");
            assert!(s.num_phases() >= 1);
            assert!(s.num_leaves() <= s.raw_leaf_count());
        }
    }

    #[test]
    fn coalescing_collapses_sliver_chains() {
        // 96-wide, slope 1: two rounds of space cuts leave 24-wide columns, which are
        // below the 32-point coarsening width and so can never be space-cut again —
        // pure time-cut chains the compiler collapses into single tall leaves.
        let s = compile_2d(96, 24, 5, 32);
        assert!(
            s.num_leaves() < s.raw_leaf_count(),
            "expected coalescing to merge some of the {} raw leaves (got {})",
            s.raw_leaf_count(),
            s.num_leaves()
        );
        assert_eq!(s.leaf_volume(), 96 * 96 * 24);
    }

    #[test]
    fn phase_leaves_partition_the_arena() {
        let s = compile_2d(24, 6, 2, 4);
        let total: usize = (0..s.num_phases()).map(|i| s.phase_leaves(i).count()).sum();
        assert_eq!(total, s.num_leaves());
        for i in 0..s.num_phases() {
            assert!(s.phase_leaves(i).count() > 0, "phase {i} is empty");
        }
    }

    #[test]
    fn empty_window_compiles_to_nothing() {
        let s = compile_2d(16, 0, 2, 4);
        assert_eq!(s.num_leaves(), 0);
        assert_eq!(s.num_phases(), 0);
    }

    #[test]
    fn executed_schedule_touches_every_point_once() {
        struct CountKernel;
        impl StencilKernel<f64, 2> for CountKernel {
            fn update<A: GridAccess<f64, 2>>(&self, g: &A, t: i64, x: [i64; 2]) {
                let v = g.get(t, x);
                g.set(t + 1, x, v + 1.0);
            }
        }
        let mut a: PochoirArray<f64, 2> = PochoirArray::new([12, 12]);
        a.register_boundary(crate::boundary::Boundary::Constant(0.0));
        let s = compile_2d(12, 1, 1, 4);
        let plan = ExecutionPlan::<2>::trap();
        s.execute(a.raw(), &CountKernel, 0, &plan, &pochoir_runtime::Serial);
        for x in 0..12 {
            for y in 0..12 {
                assert_eq!(a.get(1, [x, y]), 1.0, "point ({x},{y})");
            }
        }
    }

    #[test]
    fn cache_returns_the_same_schedule_object() {
        // A deliberately odd geometry so no other test shares this cache key.
        let args = (
            [31i64, 29],
            [1i64, 1],
            [1i64, 1],
            Coarsening::new(3, [5, 7]),
        );
        let (a, look_a) = schedule_for(
            args.0,
            args.1,
            args.2,
            args.3,
            CutStrategy::Hyperspace,
            false,
            11,
        );
        let (b, look_b) = schedule_for(
            args.0,
            args.1,
            args.2,
            args.3,
            CutStrategy::Hyperspace,
            false,
            11,
        );
        assert!(!look_a.hit);
        assert!(look_b.hit);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache_stats();
        assert!(stats.compiles >= 1);
        assert!(stats.hits >= 1);
        // A different height is a different schedule.
        let (c, look_c) = schedule_for(
            args.0,
            args.1,
            args.2,
            args.3,
            CutStrategy::Hyperspace,
            false,
            12,
        );
        assert!(!look_c.hit);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.height(), 12);
    }

    /// Looks up height `h` of a fixed 2D geometry in a private cache instance.
    fn lookup_height(cache: &Lru<CacheKey>, h: i64) -> (Arc<Schedule<2>>, CacheLookup) {
        schedule_for_in(
            cache,
            [40i64, 40],
            [1, 1],
            [1, 1],
            Coarsening::new(2, [8, 8]),
            CutStrategy::Hyperspace,
            false,
            h,
        )
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        // Capacity 2: insert h=1 and h=2, touch h=1, insert h=3.  The LRU policy must
        // evict h=2 (least recently used), not h=1 (FIFO would evict h=1).
        let cache = Lru::new(2, usize::MAX);
        let (s1, _) = lookup_height(&cache, 1);
        lookup_height(&cache, 2);
        let (_, touch) = lookup_height(&cache, 1); // touch: h=1 is now most recent
        assert!(touch.hit);
        let (_, third) = lookup_height(&cache, 3);
        assert_eq!(third.evicted, 1);
        let (s1_again, after) = lookup_height(&cache, 1);
        assert!(after.hit, "recently-touched entry must survive eviction");
        assert!(Arc::ptr_eq(&s1, &s1_again));
        let (_, h2) = lookup_height(&cache, 2);
        assert!(!h2.hit, "least-recently-used entry must have been evicted");
        assert_eq!(cache.counts().evictions, 2); // one for h=3's insert, one for h=2's re-insert
    }

    #[test]
    fn leaf_budget_bounds_total_cached_leaves() {
        // A budget below two schedules' combined leaves forces evictions on insert even
        // though the entry capacity has room.
        let probe = Lru::new(64, usize::MAX);
        let (s, _) = lookup_height(&probe, 4);
        let per_schedule = s.num_leaves();
        assert!(per_schedule > 0);

        let cache = Lru::new(64, per_schedule + per_schedule / 2);
        let (_, first) = lookup_height(&cache, 4);
        assert!(!first.hit);
        assert_eq!(first.evicted, 0);
        // Same leaf count (same geometry, different height ⇒ different key, ≥ same
        // leaves): over budget, so the first entry is evicted.
        let (_, second) = lookup_height(&cache, 8);
        assert!(!second.hit);
        assert!(second.evicted >= 1, "leaf budget must trigger eviction");
        assert_eq!(cache.len(), 1);
    }

    /// Threads racing one cold key behind a barrier share one compile: every caller
    /// gets the same `Arc`, and exactly one lookup is a miss.
    #[test]
    fn racing_lookups_of_a_cold_key_compile_once() {
        const THREADS: usize = 8;
        let cache = Lru::new(8, usize::MAX);
        let barrier = std::sync::Barrier::new(THREADS);
        let schedules: Vec<Arc<Schedule<2>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        // 256² at 4×4 leaves: long enough to compile that the
                        // racers overlap.
                        schedule_for_in(
                            &cache,
                            [256i64, 256],
                            [1, 1],
                            [1, 1],
                            Coarsening::new(2, [4, 4]),
                            CutStrategy::Hyperspace,
                            false,
                            16,
                        )
                        .0
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for s in &schedules[1..] {
            assert!(Arc::ptr_eq(&schedules[0], s), "one schedule object");
        }
        let counts = cache.counts();
        assert_eq!(counts.misses, 1, "exactly one compile");
        assert_eq!(counts.hits, THREADS as u64 - 1);
    }

    #[test]
    fn leaves_iterate_in_depth_first_order() {
        let s = compile_2d(24, 6, 2, 4);
        let from_iter: Vec<_> = s.leaves().copied().collect();
        assert_eq!(from_iter.len(), s.num_leaves());
        assert_eq!(&from_iter[..], &s.leaves[..]);
    }

    #[test]
    fn compile_guard_rejects_uncoarsened_giants() {
        assert!(should_compile(
            [512i64, 512],
            &Coarsening::new(5, [100, 100]),
            100
        ));
        assert!(!should_compile([4096i64, 4096], &Coarsening::none(), 1000));
        // Small grids may compile even uncoarsened.
        assert!(should_compile([32i64, 32], &Coarsening::none(), 8));
    }
}
