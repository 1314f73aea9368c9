//! Halo-exchanged tile pipelines for grids too large to compile whole.
//!
//! [`schedule::should_compile`] rejects geometries whose flat arena would blow the
//! leaf budget (e.g. an uncoarsened 4096×4096 grid), and the executor historically
//! fell back to the storeless recursive walker for them.  This module adds a third
//! route: split the grid along its outermost axis into K tiles, pad each tile with a
//! halo of `reach₀ × W` rows (exactly the light cone of a W-step window), compile
//! one [`CompiledProgram`] per *distinct tile geometry* through the serving registry
//! (identical interior tiles share a single compile), and run the time range as a
//! two-phase pipeline:
//!
//! 1. **Compute** — every tile advances one W-step window through its compiled
//!    schedule, one task per tile (`parallel_for(K, 1, …)`).
//! 2. **Exchange** — seam strips are copied between neighbours so each tile's halo
//!    rows again hold the owning tile's freshly computed interior values.
//!
//! One round is both phases, and `ShardRun` (scatter at `start`, a round per
//! `step`, gather at `finish`) is its only driver: [`ShardPlan::execute`] loops it
//! behind `run_sharded` and the executor's giant fallback, and the serving drain
//! dispatches one `step` per window of a `submit_sharded` ticket.  Scatter and
//! gather are per-tile tasks too, so a tile is filled and drained on the pool, and
//! a [`CompiledStencil`](crate::engine::CompiledStencil) keeps its last run's tile
//! arrays (`TileSpare`) for the next run of the same plan.
//!
//! The parent plan's coarsening decides only *whether* the grid is a giant (the
//! executor's gate reads it literally, and [`Sharding::Off`] keeps the literal
//! recursion); a tile resolves its own base-case size (`tile_coarsening`).
//!
//! # The bitwise guarantee
//!
//! Sharded execution is bitwise identical to running the same plan unsharded.  The
//! invariant is inductive over windows: at every window boundary each tile's full
//! extent (interior *and* halo) equals the corresponding rows of the unsharded
//! array, in **every** storage slot.  Scatter establishes it (each tile starts as an
//! exact replica of its global rows: all `depth + 1` slots are copied, slot-for-slot,
//! because both arrays share the time-slice layout — which is also why a reused tile
//! array carries nothing of its previous run).  During a window, garbage can
//! creep at most `reach₀` rows inward per time step from a tile's extent edge — so
//! after W steps it reaches exactly the interior/halo seam and never an interior
//! cell.  The exchange then restores the invariant by re-copying every halo row from
//! its owner's (correct) interior, again in every slot.  Gather finally copies every
//! interior row of every slot back, reassembling the giant exactly.  None of this
//! depends on how a tile decomposes its window: the garbage cone is a function of
//! `reach₀ × W` alone.
//!
//! Halo rows truncated at a non-periodic global edge need no copy at all: there the
//! tile's extent edge *is* the global domain edge, and the tile's boundary resolves
//! out-of-range reads identically to the global run (coordinate-dependent
//! [`Boundary::ConstantFn`] boundaries are re-based onto global coordinates;
//! [`Boundary::Custom`] probes the array itself and is the one boundary this module
//! refuses to shard).

use crate::boundary::{wrap, AxisRule, Boundary};
use crate::engine::executor::CompiledProgram;
use crate::engine::plan::{Coarsening, ExecutionPlan, Sharding};
use crate::engine::schedule::{self, CacheLookup};
use crate::engine::serving::{try_shared_program, ServeError};
use crate::grid::PochoirArray;
use crate::kernel::{StencilKernel, StencilSpec};
use pochoir_runtime::{Counter, Parallelism};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Largest window height auto-sharding will pick.  The halo (and hence the redundant
/// recompute near every seam) grows linearly with the window, so tall windows only
/// pay off when tiles are wide; 16 keeps the redundant fraction of realistic giants
/// around a percent while still amortizing the exchange over many time steps.
pub const MAX_SHARD_WINDOW: i64 = 16;

/// A poisoned tile lock means a tile kernel panicked, and the panic is already
/// propagating — recover the data (the next scatter overwrites all of it).
fn lock_tile<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Smallest tile count in `[k_floor, n0]` whose tiles compile, or `None` if even
/// one-row tiles do not.  More tiles make each tile strictly narrower, so for a
/// fixed window `compilable` is monotone in K — binary search applies.
fn minimal_compilable_k(k_floor: i64, n0: i64, compilable: impl Fn(i64) -> bool) -> Option<i64> {
    if !compilable(n0) {
        return None;
    }
    let mut lo = k_floor;
    let mut hi = n0;
    if compilable(lo) {
        hi = lo;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if compilable(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(hi)
}

/// The base-case size a tile runs with — for the geometry search and the tile
/// programs alike.  A tile is engine-made geometry the caller never sees, so it
/// resolves its own coarsening: the parent plan's thresholds raised to at least
/// [`Coarsening::heuristic`].  Replaying an uncoarsened parent's verbatim would
/// stream an arena of unit zoids many times the size of the grid it updates.
fn tile_coarsening<const D: usize>(parent: &Coarsening<D>) -> Coarsening<D> {
    parent.at_least(&Coarsening::heuristic())
}

/// Whether the widest of `k` even tiles (halo included) compiles a `w`-step window
/// at the tile's own base-case size.
fn tiles_compile<const D: usize>(
    sizes: [i64; D],
    reach0: i64,
    coarsening: &Coarsening<D>,
    k: i64,
    w: i64,
) -> bool {
    let mut tile_sizes = sizes;
    tile_sizes[0] = (sizes[0] + k - 1) / k + 2 * reach0 * w;
    schedule::should_compile(tile_sizes, &tile_coarsening(coarsening), w)
}

/// One outermost-axis tile of a [`ShardPlan`]: `len` owned rows starting at global
/// row `start`, padded below/above by `lo_halo`/`hi_halo` ghost rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tile {
    /// First global row this tile owns.
    pub start: i64,
    /// Number of rows this tile owns (its interior).
    pub len: i64,
    /// Ghost rows below the interior (toward row 0).
    pub lo_halo: i64,
    /// Ghost rows above the interior.
    pub hi_halo: i64,
}

impl Tile {
    /// Total outermost-axis extent of the tile's array (halo + interior + halo).
    pub fn extent(&self) -> i64 {
        self.lo_halo + self.len + self.hi_halo
    }

    /// Global row of the tile's local row 0 (may be negative or ≥ n₀ only for
    /// periodic plans, where it wraps).
    pub fn origin(&self) -> i64 {
        self.start - self.lo_halo
    }
}

/// Why a grid could not take the sharded route; the executor falls back to the
/// recursive walker on every variant, so sharding never costs correctness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// The array registered a [`Boundary::Custom`], which probes the array itself
    /// and therefore cannot be reproduced on a tile.
    UnsupportedBoundary,
    /// No tiling of this grid yields compilable tiles within the halo-overhead
    /// budget (auto mode only; explicit [`Sharding::Tiles`] always finds one).
    NoGeometry,
    /// Compiling a tile program through the serving registry failed.
    Compile(ServeError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::UnsupportedBoundary => {
                write!(
                    f,
                    "custom boundaries cannot be sharded (they probe the array)"
                )
            }
            ShardError::NoGeometry => {
                write!(f, "no tile geometry is compilable within the halo budget")
            }
            ShardError::Compile(e) => write!(f, "tile compilation failed: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// What one sharded execution did: geometry, windows, and copy/registry traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Number of tiles the grid was split into.
    pub tiles: u64,
    /// Distinct tile extents — each cost one registry lookup; interior tiles of
    /// equal extent shared a single compiled program.
    pub distinct_geometries: u64,
    /// Windows executed (pipeline rounds).
    pub windows: u64,
    /// Window height W of the pipeline.
    pub window: i64,
    /// Halo width in rows (`reach₀ × W`).
    pub halo: i64,
    /// Storage elements copied by halo exchanges (excludes scatter/gather).
    pub halo_cells: u64,
    /// Tile-program registry lookups served by an already-compiled session.
    pub registry_hits: u64,
    /// Tile-program registry lookups that compiled fresh.
    pub registry_misses: u64,
}

/// A split of a D-dimensional grid into outermost-axis tiles plus the pipeline
/// window height their halos were sized for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan<const D: usize> {
    sizes: [i64; D],
    window: i64,
    halo: i64,
    periodic0: bool,
    tiles: Vec<Tile>,
}

impl<const D: usize> ShardPlan<D> {
    /// Builds an explicit plan from per-tile interior row counts (`tile_lens` must
    /// be positive and sum to the outermost extent).  The halo is `reach0 × window`,
    /// truncated at the global edges unless `periodic0`.
    ///
    /// Intended for tests and benchmarks pinning a geometry;
    /// [`ShardPlan::auto`] is the production constructor.
    pub fn new(
        sizes: [i64; D],
        reach0: i64,
        window: i64,
        tile_lens: &[i64],
        periodic0: bool,
    ) -> Self {
        assert!(window >= 1, "shard window must be at least 1");
        assert!(reach0 >= 0, "axis-0 reach must be non-negative");
        assert!(
            !tile_lens.is_empty(),
            "a shard plan needs at least one tile"
        );
        assert!(
            tile_lens.iter().all(|&l| l > 0),
            "tile interiors must be non-empty"
        );
        let n0 = sizes[0];
        assert_eq!(
            tile_lens.iter().sum::<i64>(),
            n0,
            "tile interiors must partition the outermost extent"
        );
        let halo = reach0 * window;
        let mut tiles = Vec::with_capacity(tile_lens.len());
        let mut start = 0i64;
        for &len in tile_lens {
            let (lo_halo, hi_halo) = if periodic0 {
                (halo, halo)
            } else {
                (halo.min(start), halo.min(n0 - (start + len)))
            };
            tiles.push(Tile {
                start,
                len,
                lo_halo,
                hi_halo,
            });
            start += len;
        }
        ShardPlan {
            sizes,
            window,
            halo,
            periodic0,
            tiles,
        }
    }

    /// Chooses a tile geometry for a grid that failed [`schedule::should_compile`]:
    /// the tallest window `W ≤ min(height, MAX_SHARD_WINDOW)` for which some tile
    /// count `K` makes every tile compilable at the tile's own base-case size
    /// (`coarsening`, the parent plan's, raised to at least the heuristic) —
    /// preferring the smallest such `K` (fewest seams) and requiring the redundant
    /// halo rows to stay under half the grid.  [`Sharding::Tiles`] pins `K` instead
    /// and only searches the window.
    ///
    /// Returns `None` when no geometry qualifies (the caller falls back to the
    /// recursive walker).
    pub fn auto(
        sizes: [i64; D],
        reach0: i64,
        coarsening: &Coarsening<D>,
        height: i64,
        workers: usize,
        periodic0: bool,
        sharding: Sharding,
    ) -> Option<Self> {
        let n0 = sizes[0];
        if n0 < 1 || height < 1 {
            return None;
        }
        let w_cap = height.clamp(1, MAX_SHARD_WINDOW);
        let compilable = |k: i64, w: i64| tiles_compile(sizes, reach0, coarsening, k, w);
        match sharding {
            Sharding::Off => None,
            Sharding::Tiles(k) => {
                let k = i64::from(k).clamp(1, n0);
                let w = (1..=w_cap).rev().find(|&w| compilable(k, w)).unwrap_or(1);
                Some(Self::even(sizes, reach0, w, k, periodic0))
            }
            Sharding::Auto => {
                let k_floor = (workers.max(2) as i64).min(n0);
                for w in (1..=w_cap).rev() {
                    if let Some(k) = minimal_compilable_k(k_floor, n0, |k| compilable(k, w)) {
                        // Redundant recompute lives in the halos: keep the ghost rows
                        // (2 per seam side per tile) under half the owned rows.
                        if 2 * k * reach0 * w <= n0 {
                            return Some(Self::even(sizes, reach0, w, k, periodic0));
                        }
                    }
                }
                None
            }
        }
    }

    /// [`ShardPlan::auto`] with the window pinned to exactly `window` — the variant
    /// serving pipelines need, where the exchange cadence must equal the drain's
    /// per-window chunk height.  Unlike `auto` there is no halo-overhead veto:
    /// submitting sharded is an explicit request, so auto mode only searches for the
    /// fewest compilable tiles (still at least two, so the pipeline has seams to
    /// exchange).
    pub(crate) fn for_window(
        sizes: [i64; D],
        reach0: i64,
        coarsening: &Coarsening<D>,
        window: i64,
        workers: usize,
        periodic0: bool,
        sharding: Sharding,
    ) -> Option<Self> {
        let n0 = sizes[0];
        if n0 < 1 || window < 1 {
            return None;
        }
        match sharding {
            Sharding::Off => None,
            Sharding::Tiles(k) => Some(i64::from(k).clamp(1, n0)),
            Sharding::Auto => minimal_compilable_k((workers.max(2) as i64).min(n0), n0, |k| {
                tiles_compile(sizes, reach0, coarsening, k, window)
            }),
        }
        .map(|k| Self::even(sizes, reach0, window, k, periodic0))
    }

    /// `k` tiles of near-equal interiors (the first `n₀ % k` get one extra row).
    fn even(sizes: [i64; D], reach0: i64, window: i64, k: i64, periodic0: bool) -> Self {
        let (q, r) = (sizes[0] / k, sizes[0] % k);
        let lens: Vec<i64> = (0..k).map(|i| q + i64::from(i < r)).collect();
        Self::new(sizes, reach0, window, &lens, periodic0)
    }

    /// The grid extents this plan tiles.
    pub fn sizes(&self) -> [i64; D] {
        self.sizes
    }

    /// The pipeline window height W the halos were sized for.
    pub fn window(&self) -> i64 {
        self.window
    }

    /// The untruncated halo width in rows (`reach₀ × W`).
    pub fn halo(&self) -> i64 {
        self.halo
    }

    /// Whether axis 0 wraps (halos cross the global edges cyclically).
    pub fn periodic0(&self) -> bool {
        self.periodic0
    }

    /// The tiles, ordered by `start` (they partition `[0, n₀)`).
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Global row backing `tile`'s local row `local` (wrapping on periodic plans).
    fn global_row(&self, tile: &Tile, local: i64) -> i64 {
        let g = tile.origin() + local;
        if self.periodic0 {
            wrap(g, self.sizes[0])
        } else {
            debug_assert!(g >= 0 && g < self.sizes[0]);
            g
        }
    }

    /// The tile owning global row `g` and `g`'s local row there.
    fn owner_of(&self, g: i64) -> (usize, i64) {
        let idx = self.tiles.partition_point(|t| t.start <= g) - 1;
        let tile = &self.tiles[idx];
        debug_assert!(g >= tile.start && g < tile.start + tile.len);
        (idx, tile.lo_halo + (g - tile.start))
    }

    /// Splits `tile`'s local rows `locals` into maximal runs `(local, global, len)` of
    /// consecutive global rows with one owner — one run for an interior, more where a
    /// halo crosses a seam (a periodic wrap is the seam between last and first tile).
    fn owner_runs<'a>(
        &'a self,
        tile: &'a Tile,
        locals: Range<i64>,
    ) -> impl Iterator<Item = (i64, i64, i64)> + 'a {
        let mut local = locals.start;
        std::iter::from_fn(move || {
            (local < locals.end).then(|| {
                let g = self.global_row(tile, local);
                let owner = &self.tiles[self.owner_of(g).0];
                let run = (
                    local,
                    g,
                    (locals.end - local).min(owner.start + owner.len - g),
                );
                local += run.2;
                run
            })
        })
    }

    /// Runs kernel-invocation times `[t0, t1)` on `array` through this plan's tile
    /// pipeline.  Bitwise identical to running the same `plan` unsharded; see the
    /// module docs for the argument.
    #[allow(clippy::too_many_arguments)]
    pub fn execute<T, K, P>(
        &self,
        array: &mut PochoirArray<T, D>,
        spec: &StencilSpec<D>,
        plan: &ExecutionPlan<D>,
        kernel: &K,
        t0: i64,
        t1: i64,
        par: &P,
    ) -> Result<ShardReport, ShardError>
    where
        T: Copy + Send + Sync + 'static,
        K: StencilKernel<T, D>,
        P: Parallelism,
    {
        if matches!(array.boundary(), Boundary::Custom(_)) {
            return Err(ShardError::UnsupportedBoundary);
        }
        run_plan(
            Cow::Borrowed(self),
            array,
            spec,
            plan,
            kernel,
            t0,
            t1,
            par,
            None,
        )
    }

    /// A report of this plan's geometry with nothing executed yet.
    fn blank_report(&self) -> ShardReport {
        ShardReport {
            tiles: self.tiles.len() as u64,
            window: self.window,
            halo: self.halo,
            ..ShardReport::default()
        }
    }

    /// Compiles one program per *distinct tile extent* through the serving registry
    /// (interior tiles of equal extent share a compile), recording hit/miss counts
    /// in `report`.  Tile programs carry the parent plan except for its base-case
    /// size (see [`tile_coarsening`]) and sharding, which is switched off: a tile
    /// that *still* fails `should_compile` runs its windows through the recursive
    /// walker instead of recursing into another shard.
    pub(crate) fn tile_programs(
        &self,
        spec: &StencilSpec<D>,
        plan: &ExecutionPlan<D>,
        report: &mut ShardReport,
    ) -> Result<HashMap<i64, (Arc<CompiledProgram<D>>, CacheLookup)>, ShardError> {
        let tile_plan = plan
            .with_coarsening(tile_coarsening(&plan.coarsening))
            .with_sharding(Sharding::Off);
        let mut programs = HashMap::new();
        for tile in &self.tiles {
            let extent = tile.extent();
            if programs.contains_key(&extent) {
                continue;
            }
            let mut tile_sizes = self.sizes;
            tile_sizes[0] = extent;
            let (program, lookup) = try_shared_program(spec, &tile_plan, tile_sizes, self.window)
                .map_err(ShardError::Compile)?;
            if lookup.hit {
                report.registry_hits += 1;
            } else {
                report.registry_misses += 1;
            }
            programs.insert(extent, (program, lookup));
        }
        report.distinct_geometries = programs.len() as u64;
        Ok(programs)
    }

    /// One array per tile, laid out like `array` (same inner extents, same slot
    /// count) and filled with an arbitrary element of it: scatter overwrites every
    /// cell before any is read.
    fn new_tiles<T: Copy>(&self, array: &PochoirArray<T, D>) -> Tiles<T, D> {
        let fill = array.get_interior(0, [0; D]);
        self.tiles
            .iter()
            .map(|tile| {
                let mut tile_sizes = array.sizes();
                tile_sizes[0] = tile.extent() as usize;
                Mutex::new(PochoirArray::with_layout(
                    tile_sizes,
                    array.time_slices() - 1,
                    fill,
                ))
            })
            .collect()
    }

    /// Scatter: makes every tile an exact replica of its global rows, one task per
    /// tile on `par`.  Each task re-registers the tile's rebased boundary and copies
    /// every storage slot: tile and giant share the slot layout (same depth, same
    /// wrap), so this is slot-for-slot regardless of which logical times the caller
    /// has filled, and a reused tile keeps nothing of its last run.  The caller must
    /// have rejected [`Boundary::Custom`] already.
    pub(crate) fn scatter<T, P>(&self, array: &PochoirArray<T, D>, tiles: &Tiles<T, D>, par: &P)
    where
        T: Copy + Send + Sync + 'static,
        P: Parallelism,
    {
        let slots = array.time_slices() as i64;
        par.parallel_for(self.tiles.len(), 1, |i| {
            let tile = &self.tiles[i];
            let tile_array = &mut *lock_tile(&tiles[i]);
            tile_array.register_boundary(rebase_boundary(array.boundary(), tile.origin()));
            for slot in 0..slots {
                for (local, g, len) in self.owner_runs(tile, 0..tile.extent()) {
                    tile_array
                        .slabs_mut(slot, local..local + len)
                        .copy_from_slice(array.slabs(slot, g..g + len));
                }
            }
        });
    }

    /// Gather: every global row is exactly one tile's interior row, so each task
    /// copies its tile's interior, in every slot, into that tile's own band of
    /// `array` — reassembling the giant bitwise.
    pub(crate) fn gather<T, P>(&self, array: &mut PochoirArray<T, D>, tiles: &Tiles<T, D>, par: &P)
    where
        T: Copy + Send + Sync + 'static,
        P: Parallelism,
    {
        let starts: Vec<i64> = self.tiles.iter().map(|t| t.start).collect();
        let bands: Vec<Mutex<Vec<&mut [T]>>> = array
            .row_bands_mut(&starts)
            .into_iter()
            .map(Mutex::new)
            .collect();
        par.parallel_for(self.tiles.len(), 1, |i| {
            let tile = &self.tiles[i];
            let tile_array = lock_tile(&tiles[i]);
            for (slot, band) in lock_tile(&bands[i]).iter_mut().enumerate() {
                band.copy_from_slice(
                    tile_array.slabs(slot as i64, tile.lo_halo..tile.lo_halo + tile.len),
                );
            }
        });
    }

    /// Copies every halo row of every tile from its owner's interior, in every
    /// storage slot — restoring the replica invariant at a window boundary.  Returns
    /// the number of storage elements copied.
    pub(crate) fn exchange<T: Copy>(&self, tile_arrays: &Tiles<T, D>) -> u64 {
        let mut copied = 0u64;
        let mut arrays: Vec<_> = tile_arrays.iter().map(lock_tile).collect();
        for (i, tile) in self.tiles.iter().enumerate() {
            let halos = [0..tile.lo_halo, tile.lo_halo + tile.len..tile.extent()];
            let (slots, slab) = (arrays[i].time_slices() as i64, arrays[i].slab_elems());
            for (local, g, len) in halos.into_iter().flat_map(|h| self.owner_runs(tile, h)) {
                let (owner, src) = self.owner_of(g);
                for slot in 0..slots {
                    if owner == i {
                        // With few tiles (or a periodic K=1 plan) a tile owns its own
                        // halo rows: source and destination share an array.
                        let span = |row: i64| row as usize * slab;
                        arrays[i]
                            .slabs_mut(slot, 0..tile.extent())
                            .copy_within(span(src)..span(src + len), span(local));
                    } else {
                        let [dst, from] = arrays.get_disjoint_mut([i, owner]).expect("owner != i");
                        dst.slabs_mut(slot, local..local + len)
                            .copy_from_slice(from.slabs(slot, src..src + len));
                    }
                }
                copied += (len * slots) as u64 * slab as u64;
            }
        }
        copied
    }
}

/// A sharded run's tile arrays, one lock per tile so each round's tasks take
/// their own.
type Tiles<T, const D: usize> = Vec<Mutex<PochoirArray<T, D>>>;

/// The tile arrays a finished run left, with what they were made for.
struct SpareTiles<T, const D: usize> {
    plan: ShardPlan<D>,
    slots: usize,
    tiles: Tiles<T, D>,
}

/// A session's spare tile arrays: a sharded run *takes* them when they were made
/// for its plan (and its array's slot count) and puts its own back after gather,
/// so steady-state runs of one plan allocate and fill nothing.  A run that finds
/// the spare empty, of another plan, or held by a concurrent run for the instant
/// of a take or put allocates fresh tiles instead: nothing ever waits on it.
pub(crate) struct TileSpare<T, const D: usize>(Mutex<Option<SpareTiles<T, D>>>);

impl<T, const D: usize> Default for TileSpare<T, D> {
    fn default() -> Self {
        TileSpare(Mutex::new(None))
    }
}

impl<T, const D: usize> TileSpare<T, D> {
    /// The spare tiles, if they were made for `plan` and `slots` storage slots.
    fn take(&self, plan: &ShardPlan<D>, slots: usize) -> Option<Tiles<T, D>> {
        let mut spare = self.0.try_lock().ok()?;
        let fits = |s: &mut SpareTiles<T, D>| s.plan == *plan && s.slots == slots;
        spare.take_if(fits).map(|s| s.tiles)
    }

    /// Keeps `tiles` as the spare, replacing (and dropping) any other.
    fn put(&self, plan: ShardPlan<D>, slots: usize, tiles: Tiles<T, D>) {
        if let Ok(mut spare) = self.0.try_lock() {
            *spare = Some(SpareTiles { plan, slots, tiles });
        }
    }
}

/// One sharded execution in flight — the tile plan, one compiled program per
/// distinct tile extent, and the tile arrays between scatter and gather.  The one
/// driver of "K halo-padded tiles in lockstep rounds with an exchange between
/// rounds": [`ShardPlan::execute`] and a sharded
/// [`StencilServer`](crate::engine::serving::StencilServer) ticket both go
/// `start` → `step` per window → `finish`.
pub(crate) struct ShardRun<'p, T, const D: usize> {
    plan: Cow<'p, ShardPlan<D>>,
    programs: HashMap<i64, (Arc<CompiledProgram<D>>, CacheLookup)>,
    tiles: Tiles<T, D>,
    /// The last window ends here and is followed by no exchange.
    t1: i64,
    report: ShardReport,
}

impl<'p, T, const D: usize> ShardRun<'p, T, D>
where
    T: Copy + Send + Sync + 'static,
{
    /// Compiles (or fetches) the tile programs and scatters `array` into tiles —
    /// `spare`'s when they fit the plan, fresh ones otherwise.  `array` is stale from
    /// here until [`finish`](Self::finish).  The caller must have rejected
    /// [`Boundary::Custom`] already.
    pub(crate) fn start<P: Parallelism>(
        plan: Cow<'p, ShardPlan<D>>,
        array: &PochoirArray<T, D>,
        spec: &StencilSpec<D>,
        exec_plan: &ExecutionPlan<D>,
        t1: i64,
        spare: Option<&TileSpare<T, D>>,
        par: &P,
    ) -> Result<Self, ShardError> {
        let mut report = plan.blank_report();
        let programs = plan.tile_programs(spec, exec_plan, &mut report)?;
        let tiles = spare
            .and_then(|s| s.take(&plan, array.time_slices()))
            .unwrap_or_else(|| plan.new_tiles(array));
        plan.scatter(array, &tiles, par);
        Ok(ShardRun {
            plan,
            programs,
            tiles,
            t1,
            report,
        })
    }

    /// One round of the two-phase pipeline: compute window `[w0, w1)` on every tile
    /// in parallel, then (unless it was the last window) re-sync the halo seams
    /// serially.  A panicking tile kernel unwinds out of here and leaves the tiles
    /// structurally valid with unspecified contents.
    pub(crate) fn step<K, P>(&mut self, kernel: &K, w0: i64, w1: i64, par: &P)
    where
        K: StencilKernel<T, D>,
        P: Parallelism,
    {
        let (plan, programs, tiles) = (&*self.plan, &self.programs, &self.tiles);
        par.parallel_for(tiles.len(), 1, |i| {
            let tile_array = &mut *lock_tile(&tiles[i]);
            programs[&plan.tiles[i].extent()]
                .0
                .run(tile_array, kernel, w0, w1, par);
        });
        self.report.windows += 1;
        par.count(Counter::ShardTiles, tiles.len() as u64);
        if w1 < self.t1 {
            self.report.halo_cells += plan.exchange(tiles);
        }
    }

    /// Every round from `t0` to the run's end back to back, in windows of the plan's
    /// height.
    pub(crate) fn steps<K, P>(&mut self, kernel: &K, t0: i64, par: &P)
    where
        K: StencilKernel<T, D>,
        P: Parallelism,
    {
        let mut w0 = t0;
        while w0 < self.t1 {
            let w1 = (w0 + self.plan.window).min(self.t1);
            self.step(kernel, w0, w1, par);
            w0 = w1;
        }
    }

    /// Gathers the tiles back into `array`, leaves them in `spare` for the next run,
    /// and reports what the run did.
    pub(crate) fn finish<P: Parallelism>(
        self,
        array: &mut PochoirArray<T, D>,
        spare: Option<&TileSpare<T, D>>,
        par: &P,
    ) -> ShardReport {
        par.count(Counter::ShardHaloCells, self.report.halo_cells);
        self.plan.gather(array, &self.tiles, par);
        if let Some(spare) = spare {
            spare.put(self.plan.into_owned(), array.time_slices(), self.tiles);
        }
        self.report
    }
}

/// The tile-local equivalent of a global boundary.  Value boundaries are
/// position-independent and transfer verbatim; coordinate-dependent constants are
/// re-based so a resolution at a (truncated-halo) global edge produces the global
/// value.  Everywhere else tiles resolve only garbage-cone reads, where any value
/// is acceptable.
fn rebase_boundary<T: Copy + 'static, const D: usize>(
    boundary: &Boundary<T, D>,
    origin: i64,
) -> Boundary<T, D> {
    match boundary {
        Boundary::ConstantFn(f) => {
            let f = Arc::clone(f);
            Boundary::constant_fn(move |t, mut x: [i64; D]| {
                x[0] += origin;
                f(t, x)
            })
        }
        other => other.clone(),
    }
}

/// Whether `boundary` wraps on axis 0 (tiles then take full cyclic halos instead of
/// truncating at the global edges).
pub(crate) fn wraps_axis0<T: Copy, const D: usize>(boundary: &Boundary<T, D>) -> bool {
    match boundary {
        Boundary::Periodic => true,
        Boundary::Mixed(rules) => matches!(rules[0], AxisRule::Periodic),
        _ => false,
    }
}

/// The executor's sharded fallback: picks a geometry for `array` (honouring
/// `plan.sharding`) and executes `[t0, t1)` through it, with `spare`'s tiles when
/// they fit.  Errors mean "not sharded"; the caller falls back to the recursive
/// walker.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute<T, K, P, const D: usize>(
    array: &mut PochoirArray<T, D>,
    spec: &StencilSpec<D>,
    plan: &ExecutionPlan<D>,
    kernel: &K,
    t0: i64,
    t1: i64,
    par: &P,
    spare: Option<&TileSpare<T, D>>,
) -> Result<ShardReport, ShardError>
where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
    P: Parallelism,
{
    if matches!(array.boundary(), Boundary::Custom(_)) {
        return Err(ShardError::UnsupportedBoundary);
    }
    let shard_plan = ShardPlan::auto(
        array.sizes_i64(),
        spec.reach()[0],
        &plan.coarsening,
        t1 - t0,
        par.num_workers(),
        wraps_axis0(array.boundary()),
        plan.sharding,
    )
    .ok_or(ShardError::NoGeometry)?;
    run_plan(
        Cow::Owned(shard_plan),
        array,
        spec,
        plan,
        kernel,
        t0,
        t1,
        par,
        spare,
    )
}

/// Runs `[t0, t1)` on `array` through `shard_plan`: scatter, one round per window,
/// gather.  The caller must have rejected [`Boundary::Custom`] already.
#[allow(clippy::too_many_arguments)]
fn run_plan<T, K, P, const D: usize>(
    shard_plan: Cow<'_, ShardPlan<D>>,
    array: &mut PochoirArray<T, D>,
    spec: &StencilSpec<D>,
    plan: &ExecutionPlan<D>,
    kernel: &K,
    t0: i64,
    t1: i64,
    par: &P,
    spare: Option<&TileSpare<T, D>>,
) -> Result<ShardReport, ShardError>
where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
    P: Parallelism,
{
    if t1 <= t0 {
        return Ok(shard_plan.blank_report());
    }
    let mut run = ShardRun::start(shard_plan, array, spec, plan, t1, spare, par)?;
    run.steps(kernel, t0, par);
    Ok(run.finish(array, spare, par))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::plan::Coarsening;
    use pochoir_runtime::Serial;

    #[test]
    fn explicit_plan_truncates_edge_halos() {
        let plan = ShardPlan::<1>::new([100], 1, 4, &[40, 35, 25], false);
        assert_eq!(plan.halo(), 4);
        let tiles = plan.tiles();
        assert_eq!(tiles[0].lo_halo, 0);
        assert_eq!(tiles[0].hi_halo, 4);
        assert_eq!(tiles[1].lo_halo, 4);
        assert_eq!(tiles[1].hi_halo, 4);
        assert_eq!(tiles[2].lo_halo, 4);
        assert_eq!(tiles[2].hi_halo, 0);
    }

    #[test]
    fn periodic_plan_keeps_full_halos_and_wraps() {
        let plan = ShardPlan::<1>::new([60], 2, 3, &[30, 30], true);
        let tiles = plan.tiles();
        assert_eq!(tiles[0].lo_halo, 6);
        assert_eq!(tiles[0].origin(), -6);
        assert_eq!(plan.global_row(&tiles[0], 0), 54);
        assert_eq!(plan.owner_of(54), (1, 6 + 24));
    }

    #[test]
    fn auto_finds_a_geometry_for_an_uncompilable_giant() {
        let sizes = [4096, 4096];
        let coarsening = Coarsening::none();
        assert!(!schedule::should_compile(sizes, &coarsening, 8));
        let plan = ShardPlan::auto(sizes, 1, &coarsening, 8, 4, false, Sharding::Auto)
            .expect("giant should be shardable");
        // Tiles compile at their own base-case size, so the worker floor suffices.
        assert_eq!(plan.tiles().len(), 4);
        assert_eq!(plan.window(), 8);
        assert!(tiles_compile(sizes, 1, &coarsening, 4, plan.window()));
        assert_eq!(plan.tiles().iter().map(|t| t.len).sum::<i64>(), 4096);
    }

    #[test]
    fn tile_coarsening_only_ever_raises_the_parent() {
        let h = Coarsening::<2>::heuristic();
        assert_eq!(tile_coarsening(&Coarsening::none()), h);
        let tall = Coarsening::new(64, [8, 512]);
        assert_eq!(tile_coarsening(&tall), Coarsening::new(64, [h.dx[0], 512]));
    }

    /// The `shard-giant` geometry: tile arenas are hundreds of leaves, not one leaf
    /// per point.
    #[test]
    fn giant_tiles_compile_coarse() {
        let spec = StencilSpec::new(crate::shape::star_shape::<1>(1));
        let plan = ExecutionPlan::trap().with_coarsening(Coarsening::none());
        assert!(!schedule::should_compile([200_000], &plan.coarsening, 24));
        let shard_plan =
            ShardPlan::auto([200_000], 1, &plan.coarsening, 24, 2, true, Sharding::Auto)
                .expect("giant should be shardable");
        assert_eq!((shard_plan.tiles().len(), shard_plan.window()), (2, 16));
        let programs = shard_plan
            .tile_programs(&spec, &plan, &mut ShardReport::default())
            .expect("tile programs compile");
        for (extent, (program, _)) in &programs {
            let leaves = program.pinned_leaf_count() as i64;
            assert!(
                (1..=extent * shard_plan.window() / 1000).contains(&leaves),
                "{leaves} leaves for a {extent}-row tile"
            );
        }
    }

    /// Every storage slot of `array` filled with values unique per (slot, cell).
    fn numbered<const D: usize>(sizes: [usize; D], depth: usize) -> PochoirArray<u32, D> {
        let mut array = PochoirArray::with_depth(sizes, depth);
        let sz = array.sizes_i64();
        for t in 0..=depth as i64 {
            array.fill_time_slice(t, |x| {
                (0..D).fold(t as u32 + 1, |acc, d| acc * sz[d] as u32 + x[d] as u32)
            });
        }
        array
    }

    /// Scatter replicates the right global rows into every tile slot, gather
    /// reassembles the giant bitwise, and an exchange after the halos were clobbered
    /// restores the scattered state while counting one cell per halo row element
    /// per slot — on padded row strides, truncated and (multiply) wrapped halos.
    fn check_copies<const D: usize>(sizes: [usize; D], depth: usize, window: i64, lens: &[i64]) {
        let slices = depth as i64 + 1;
        let giant = numbered(sizes, depth);
        assert!(D == 1 || giant.strides()[D - 2] > sizes[D - 1], "unpadded");
        for periodic in [false, true] {
            let plan = ShardPlan::new(giant.sizes_i64(), 1, window, lens, periodic);
            let tiles = plan.new_tiles(&giant);
            plan.scatter(&giant, &tiles, &Serial);
            let mut halo_rows = 0;
            for (tile, tile_array) in plan.tiles().iter().zip(&tiles) {
                halo_rows += tile.lo_halo + tile.hi_halo;
                let tile_array = lock_tile(tile_array);
                for (tau, local) in
                    (0..slices).flat_map(|s| (0..tile.extent()).map(move |l| (s, l)))
                {
                    let g = plan.global_row(tile, local);
                    assert_eq!(
                        tile_array.slabs(tau, local..local + 1),
                        giant.slabs(tau, g..g + 1),
                        "slot {tau}, tile row {local}"
                    );
                }
            }

            let mut gathered = PochoirArray::<u32, D>::with_depth(sizes, depth);
            plan.gather(&mut gathered, &tiles, &Serial);
            for tau in 0..slices {
                assert_eq!(gathered.snapshot(tau), giant.snapshot(tau));
            }

            let clobbered = plan.new_tiles(&giant);
            plan.scatter(&giant, &clobbered, &Serial);
            for (tile, tile_array) in plan.tiles().iter().zip(&clobbered) {
                let halos = [0..tile.lo_halo, tile.lo_halo + tile.len..tile.extent()];
                for (tau, rows) in (0..slices).flat_map(|s| halos.clone().map(|h| (s, h))) {
                    lock_tile(tile_array).slabs_mut(tau, rows).fill(u32::MAX);
                }
            }
            let copied = plan.exchange(&clobbered);
            let slab = giant.slab_elems() as i64;
            assert_eq!(copied, (halo_rows * slab * slices) as u64);
            for (tile_array, expected) in clobbered.iter().zip(&tiles) {
                for tau in 0..slices {
                    assert_eq!(
                        lock_tile(tile_array).snapshot(tau),
                        lock_tile(expected).snapshot(tau)
                    );
                }
            }
        }
    }

    #[test]
    fn bulk_copies_round_trip_every_slot() {
        check_copies([37], 1, 3, &[20, 2, 15]);
        check_copies([6], 2, 8, &[6]); // K = 1: the halo wraps its owner twice
        check_copies([9, 13], 1, 2, &[4, 1, 4]);
        check_copies([7, 5, 3], 2, 2, &[3, 4]);
    }

    /// The `shard-giant` exchange: 2 tiles × 2 halos × 16 rows × 2 slots.
    #[test]
    fn giant_exchange_copies_128_cells() {
        let giant = PochoirArray::<f64, 1>::new([200_000]);
        let plan = ShardPlan::new([200_000], 1, 16, &[100_000, 100_000], true);
        let tiles = plan.new_tiles(&giant);
        plan.scatter(&giant, &tiles, &Serial);
        assert_eq!(plan.exchange(&tiles), 128);
    }

    #[test]
    fn auto_respects_forced_tile_count() {
        let plan = ShardPlan::auto(
            [1000],
            1,
            &Coarsening::none(),
            16,
            4,
            false,
            Sharding::Tiles(7),
        )
        .expect("forced tiling always yields a plan");
        assert_eq!(plan.tiles().len(), 7);
        // Remainder rows go to the leading tiles, one each.
        assert_eq!(plan.tiles()[0].len - plan.tiles()[6].len, 1);
    }

    #[test]
    fn auto_declines_when_sharding_is_off() {
        assert_eq!(
            ShardPlan::auto([64], 1, &Coarsening::none(), 4, 2, false, Sharding::Off),
            None
        );
    }
}
