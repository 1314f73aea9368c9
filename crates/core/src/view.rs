//! Grid access views: the Rust incarnation of the Pochoir compiler's *code cloning* and
//! *loop indexing* optimizations (paper, Section 4).
//!
//! The user's kernel is written once against the [`GridAccess`] trait.  The engines then
//! instantiate it with different views:
//!
//! * [`InteriorView`] — the *interior clone* with the `--split-pointer` indexing style:
//!   raw stride arithmetic, no boundary handling, no bounds checks in release builds.
//! * [`CheckedInteriorView`] — the *interior clone* with the `--split-macro-shadow`
//!   indexing style: the same address computation but with bounds checks left in.
//! * [`BoundaryView`] — the *boundary clone*: accepts virtual (wrapped) coordinates and
//!   resolves off-domain reads through the array's boundary function, per access or a
//!   whole *ghost row* at a time.
//! * [`TracingView`] — wraps any access pattern and reports every touched address to an
//!   [`AccessTracer`] (used by the cache-miss experiments of Figure 10).
//!
//! Monomorphization of the kernel over these view types is precisely the kernel cloning
//! the Pochoir compiler performs as a source-to-source transformation.
//!
//! ## Row access and the `--split-pointer` correspondence
//!
//! The Pochoir compiler's fastest indexing mode, `--split-pointer`, rewrites the interior
//! clone so that each array reference becomes an incremented unit-stride pointer instead
//! of a macro that recomputes `slice·S + x₀·s₀ + … + x_{d-1}` per access.  The analog
//! here is the optional row API on [`GridAccess`]: [`InteriorView`] resolves a row's base
//! address once ([`GridAccess::row`] / [`GridAccess::row_out`]) and row-aware kernels
//! then walk plain slices, while [`CheckedInteriorView`] deliberately does **not**
//! implement the row API so that it keeps paying the full per-access address computation
//! plus bounds checks — preserving exactly the contrast Figure 13 measures.
//!
//! ## Ghost rows: the boundary clone walks rows too
//!
//! The paper accepts a slow boundary clone because few zoids touch the boundary.  On
//! small or 3-D grids that share is not small, so [`BoundaryView`] serves the row API as
//! well.  A requested row that lies in the domain is the grid's own storage.  Any other
//! row is a *ghost row*: the outer `D − 1` axes are resolved once (wrap, clamp, or a
//! constant fill), the in-domain span is copied from the grid, and only the cells that
//! stick out on the unit-stride axis go through the boundary function, each with the
//! coordinate a per-point read would have passed.  The kernel's vector body then runs on
//! edge rows exactly as on interior rows.  [`BoundaryView::per_access`] builds the view
//! without rows, for the `CloneMode::AlwaysBoundary` ablation whose point is that no
//! access skips the boundary check.
//!
//! ## Padded copies: small boundary leaves gather their halo once per step
//!
//! When a boundary leaf is small (`engine::base::runs_padded`), ghost rows cost more in
//! per-row set-up than in arithmetic.  [`PadScratch::gather`] instead copies, once per
//! step, everything the kernel reads for one in-domain box: one dense block per read
//! slice, the box dilated by that slice's shape offsets, filled only where some offset
//! reaches (a star's corners are skipped, so a boundary function is called once per
//! halo cell the kernel reads).  Each row is resolved by the same code as a ghost row.
//! The returned [`PaddedView`] serves every read row as a slice of the copy and writes
//! rows straight to the grid.

use crate::boundary::{clamp, wrap, AxisRule};
use crate::grid::{RawGrid, RowWriter};
use crate::shape::ReadFootprint;
use std::cell::{Cell, UnsafeCell};

/// Read/write access to a space-time grid, as seen by a stencil kernel.
///
/// Besides the per-point `get`/`set`, a view may expose whole grid **rows** along the
/// unit-stride (last) dimension through [`GridAccess::row`] / [`GridAccess::row_out`].
/// Row access is the paper's `--split-pointer` indexing style: the address of a row is
/// resolved once and the row is then walked at unit stride.  The default implementations
/// return `None`, which makes row-aware kernels (see
/// [`StencilKernel::update_row`](crate::kernel::StencilKernel::update_row)) fall back to
/// their per-point loop — so views that must observe or check every access (the tracing
/// view, the checked-index ablation, the per-access boundary clone) keep doing exactly
/// that.
pub trait GridAccess<T: Copy, const D: usize> {
    /// Reads the value at time `t`, position `x`.
    fn get(&self, t: i64, x: [i64; D]) -> T;
    /// Writes the value at time `t`, position `x`.
    fn set(&self, t: i64, x: [i64; D], value: T);
    /// The spatial extent along `dim` (provided so kernels can depend on the domain size).
    fn size(&self, dim: usize) -> i64;

    /// Marks the start of one row dispatch: the engines call it before every
    /// [`StencilKernel::update_row`](crate::kernel::StencilKernel::update_row).  Row
    /// slices handed out earlier by this view are dead from here on, which is what lets
    /// a view that materializes rows reuse its scratch.
    #[inline]
    fn begin_row(&self) {}

    /// Read-only row of `len` elements starting at `(t, x)` along the last dimension,
    /// when this view can hand out unit-stride storage.
    ///
    /// # Safety
    ///
    /// The row must be in-domain (`x` on every axis, `x[D-1] + len` within the last
    /// extent) — except on a boundary view, which may be asked for rows that leave the
    /// domain on any axis.  None of the row's in-domain elements may be written — through
    /// [`GridAccess::set`], [`GridAccess::row_out`] or any other handle — while the
    /// returned slice is live, and the slice is valid only until the view's next row
    /// dispatch ([`GridAccess::begin_row`]).  Kernels satisfy this by reading rows only
    /// of time slices they do not write (they write `t + 1`, they read `t`, `t − 1`, …)
    /// and by not keeping rows across `update_row` calls.
    #[inline]
    unsafe fn row(&self, _t: i64, _x: [i64; D], _len: usize) -> Option<&[T]> {
        None
    }

    /// Unit-stride write cursor over the row of `len` elements starting at `(t, x)`,
    /// when this view can hand out direct storage.
    ///
    /// # Safety
    ///
    /// The row must be in-domain on every view (a boundary view answers `None`
    /// otherwise), and the written elements must not overlap any live row slice.
    #[inline]
    unsafe fn row_out(&self, _t: i64, _x: [i64; D], _len: usize) -> Option<RowWriter<'_, T>> {
        None
    }
}

/// Observer of raw memory traffic, implemented by the cache simulator.
pub trait AccessTracer {
    /// Called for every read of `bytes` bytes at byte address `addr`.
    fn on_read(&self, addr: usize, bytes: usize);
    /// Called for every write of `bytes` bytes at byte address `addr`.
    fn on_write(&self, addr: usize, bytes: usize);
}

/// The interior clone with unchecked raw-offset indexing (the `--split-pointer` analog).
#[derive(Clone, Copy)]
pub struct InteriorView<'a, T, const D: usize> {
    grid: RawGrid<'a, T, D>,
}

impl<'a, T: Copy, const D: usize> InteriorView<'a, T, D> {
    /// Wraps a raw grid.
    pub fn new(grid: RawGrid<'a, T, D>) -> Self {
        InteriorView { grid }
    }
}

impl<'a, T: Copy, const D: usize> GridAccess<T, D> for InteriorView<'a, T, D> {
    #[inline(always)]
    fn get(&self, t: i64, x: [i64; D]) -> T {
        self.grid.read(t, x)
    }

    #[inline(always)]
    fn set(&self, t: i64, x: [i64; D], value: T) {
        self.grid.write(t, x, value)
    }

    #[inline(always)]
    fn size(&self, dim: usize) -> i64 {
        self.grid.sizes()[dim]
    }

    #[inline(always)]
    unsafe fn row(&self, t: i64, x: [i64; D], len: usize) -> Option<&[T]> {
        // Safety: forwarded contract — the caller keeps the row in-domain and unwritten
        // while the slice is live.
        Some(unsafe { self.grid.row(t, x, len) })
    }

    #[inline(always)]
    unsafe fn row_out(&self, t: i64, x: [i64; D], len: usize) -> Option<RowWriter<'_, T>> {
        // Safety: forwarded contract (see `row`).
        Some(unsafe { self.grid.row_out(t, x, len) })
    }
}

/// The interior clone with bounds-checked indexing (the `--split-macro-shadow` analog).
///
/// Both views perform the same address computation; this one keeps the range checks that
/// the optimized pointer-style clone elides, which is what the paper's Figure 13 compares.
/// It also deliberately leaves the row API unimplemented: every access pays the full
/// per-point address computation, as the macro-shadow indexing mode does.
#[derive(Clone, Copy)]
pub struct CheckedInteriorView<'a, T, const D: usize> {
    grid: RawGrid<'a, T, D>,
}

impl<'a, T: Copy, const D: usize> CheckedInteriorView<'a, T, D> {
    /// Wraps a raw grid.
    pub fn new(grid: RawGrid<'a, T, D>) -> Self {
        CheckedInteriorView { grid }
    }
}

impl<'a, T: Copy, const D: usize> GridAccess<T, D> for CheckedInteriorView<'a, T, D> {
    #[inline]
    fn get(&self, t: i64, x: [i64; D]) -> T {
        let sizes = self.grid.sizes();
        for d in 0..D {
            assert!(
                x[d] >= 0 && x[d] < sizes[d],
                "interior access out of range on axis {d}: {} (size {})",
                x[d],
                sizes[d]
            );
        }
        self.grid.read(t, x)
    }

    #[inline]
    fn set(&self, t: i64, x: [i64; D], value: T) {
        let sizes = self.grid.sizes();
        for d in 0..D {
            assert!(
                x[d] >= 0 && x[d] < sizes[d],
                "interior write out of range on axis {d}: {} (size {})",
                x[d],
                sizes[d]
            );
        }
        self.grid.write(t, x, value)
    }

    #[inline]
    fn size(&self, dim: usize) -> i64 {
        self.grid.sizes()[dim]
    }
}

/// The boundary clone: reads that leave the domain are resolved by the boundary function;
/// writes to virtual (wrapped) coordinates are folded back into the true domain.
///
/// This is the unified periodic/nonperiodic mechanism of Section 4: the decomposition may
/// describe a zoid in virtual coordinates, and only here — in the base case of the
/// boundary clone — are true coordinates recovered by a modulo computation.
///
/// Built by [`BoundaryView::new`] the view also serves rows (see the module docs on
/// ghost rows); it then owns scratch with interior mutability, so it is neither `Copy`
/// nor `Sync` and is built per leaf or per shell task on the thread that uses it.
pub struct BoundaryView<'a, T, const D: usize> {
    grid: RawGrid<'a, T, D>,
    /// `None` on the per-access view, which answers no row request.
    ghosts: Option<GhostRows<T>>,
}

/// Scratch for the ghost rows of one row dispatch.  A kernel holds several rows at once
/// (wave holds seven), so this is a pool indexed by request order since the last
/// [`GridAccess::begin_row`]; buffers are reused from one dispatch to the next.
struct GhostRows<T> {
    bufs: UnsafeCell<Vec<Vec<T>>>,
    live: Cell<usize>,
}

impl<T: Copy> GhostRows<T> {
    /// Fills the next free buffer through `write` (which receives it empty, with room
    /// for `len` elements) and returns its contents.
    ///
    /// # Safety
    ///
    /// `write` must not reach this pool, and the caller must let go of every slice
    /// returned since the last reset before it resets `live` — the contract
    /// [`GridAccess::row`] passes on to kernels.
    unsafe fn fill(&self, len: usize, write: impl FnOnce(&mut Vec<T>)) -> &[T] {
        let k = self.live.get();
        self.live.set(k + 1);
        // SAFETY: the pool is `!Sync` and `write` does not re-enter it, so this is the
        // only reference to the outer `Vec`.  Slices handed out earlier point into the
        // heap storage of buffers `0..k`, which neither the push below nor writing
        // buffer `k` moves or touches.
        let bufs = unsafe { &mut *self.bufs.get() };
        if bufs.len() == k {
            bufs.push(Vec::new());
        }
        let buf = &mut bufs[k];
        buf.clear();
        buf.reserve(len);
        write(buf);
        // SAFETY: `buf`'s storage holds `buf.len()` initialized elements and is not
        // written again before `live` is reset below `k + 1`, by which time the caller
        // has let go of this slice.
        unsafe { std::slice::from_raw_parts(buf.as_ptr(), buf.len()) }
    }
}

impl<'a, T: Copy, const D: usize> BoundaryView<'a, T, D> {
    /// Wraps a raw grid; the view serves ghost rows.
    pub fn new(grid: RawGrid<'a, T, D>) -> Self {
        let ghosts = GhostRows {
            bufs: UnsafeCell::new(Vec::new()),
            live: Cell::new(0),
        };
        BoundaryView {
            grid,
            ghosts: Some(ghosts),
        }
    }

    /// Wraps a raw grid without the row API: every access pays the boundary check.
    pub fn per_access(grid: RawGrid<'a, T, D>) -> Self {
        BoundaryView { grid, ghosts: None }
    }

    /// True if the `len` cells starting at `x` along the last axis are all in-domain.
    #[inline]
    fn row_in_domain(&self, x: [i64; D], len: usize) -> bool {
        self.grid.in_domain(x) && x[D - 1] + len as i64 <= self.grid.sizes()[D - 1]
    }

    /// The row of `len` cells starting at `(t, x)` when it is not in-domain as asked:
    /// element `i` equals `read_with_boundary(t, x + i·e_last)`.
    ///
    /// # Safety
    ///
    /// The contract of [`GridAccess::row`].
    unsafe fn ghost_row<'s>(
        &'s self,
        ghosts: &'s GhostRows<T>,
        t: i64,
        x: [i64; D],
        len: usize,
    ) -> &'s [T] {
        let grid = &self.grid;
        let last = D - 1;
        let outer = resolve_outer(grid, x);
        if let Outer::At(mut w) = outer {
            if x[last] >= 0 && x[last] + len as i64 <= grid.sizes()[last] {
                w[last] = x[last];
                // SAFETY: `w` is in-domain on the outer axes after resolution and the
                // span fits the last extent; aliasing is the caller's contract.
                return unsafe { grid.row(t, w, len) };
            }
        }
        // SAFETY: the writer touches only its buffer and the grid, whose cells in the
        // row are unwritten by the caller's contract.
        unsafe {
            let last_rule = grid.boundary().axis_rule(last);
            ghosts.fill(len, |buf| {
                resolve_row(grid, t, x, len, outer, &last_rule, buf)
            })
        }
    }
}

/// `x` with every coordinate wrapped into the domain: the home cell a write through
/// virtual (wrapped) coordinates targets.
#[inline]
fn fold<const D: usize>(x: [i64; D], sizes: [i64; D]) -> [i64; D] {
    std::array::from_fn(|d| wrap(x[d], sizes[d]))
}

/// Where a row's outer `D − 1` axes land, resolved once per row and in axis order (the
/// order `Boundary::resolve` applies them in, which decides which of two out-of-range
/// `Constant` axes wins).
#[derive(Clone, Copy)]
enum Outer<T, const D: usize> {
    /// Every outer axis lands in the domain, at these coordinates (the last is unused).
    At([i64; D]),
    /// An out-of-range `Constant` axis: every cell of the row is this value.
    Fill(T),
    /// A function-valued boundary with an outer axis out of range: every cell is one
    /// boundary call with its own coordinate.
    PerCell,
}

fn resolve_outer<T: Copy, const D: usize>(grid: &RawGrid<'_, T, D>, x: [i64; D]) -> Outer<T, D> {
    let sizes = grid.sizes();
    let mut w = x;
    for d in 0..D - 1 {
        if (0..sizes[d]).contains(&x[d]) {
            continue;
        }
        match grid.boundary().axis_rule(d) {
            Some(AxisRule::Periodic) => w[d] = wrap(x[d], sizes[d]),
            Some(AxisRule::Clamp) => w[d] = clamp(x[d], sizes[d]),
            Some(AxisRule::Constant(v)) => return Outer::Fill(v),
            None => return Outer::PerCell,
        }
    }
    Outer::At(w)
}

/// Cell `j` of the row at `(t, x)` outside the last axis: `w` is the row's resolved
/// outer coordinates, `last_rule` the last axis's `Boundary::axis_rule`, and `inside`
/// the row's in-domain span `[lo, ..)`, which serves a periodic or clamped ghost whose
/// source it holds.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn ghost_cell<T: Copy, const D: usize>(
    grid: &RawGrid<'_, T, D>,
    t: i64,
    mut x: [i64; D],
    mut w: [i64; D],
    j: i64,
    last_rule: &Option<AxisRule<T>>,
    inside: &[T],
    lo: i64,
) -> T {
    let n = grid.sizes()[D - 1];
    let src = match last_rule {
        Some(AxisRule::Periodic) => wrap(j, n),
        Some(AxisRule::Clamp) => clamp(j, n),
        Some(AxisRule::Constant(v)) => return *v,
        // A function-valued boundary got here with every outer axis in range, so `x`
        // with the cell's own coordinate is what a per-point read passes.
        None => {
            x[D - 1] = j;
            return grid.read_with_boundary(t, x);
        }
    };
    if (lo..lo + inside.len() as i64).contains(&src) {
        inside[(src - lo) as usize]
    } else {
        w[D - 1] = src;
        grid.read(t, w)
    }
}

/// Where [`resolve_row`] puts a row's values: element `i` of the row is `cell(i, v)` or
/// part of `span(i, cells)`.
trait RowSink<T> {
    fn cell(&mut self, i: usize, value: T);
    fn span(&mut self, i: usize, cells: &[T]);
}

/// Appends the row (a ghost row's buffer).
impl<T: Copy> RowSink<T> for Vec<T> {
    #[inline]
    fn cell(&mut self, _i: usize, value: T) {
        self.push(value)
    }
    #[inline]
    fn span(&mut self, _i: usize, cells: &[T]) {
        self.extend_from_slice(cells)
    }
}

/// Writes the row over a slice (a padded copy's row).
impl<T: Copy> RowSink<T> for [T] {
    #[inline]
    fn cell(&mut self, i: usize, value: T) {
        self[i] = value
    }
    #[inline]
    fn span(&mut self, i: usize, cells: &[T]) {
        self[i..i + cells.len()].copy_from_slice(cells)
    }
}

/// Resolves the row of `len` cells starting at `(t, x)` into `out`, with `outer` its
/// [`resolve_outer`] and `last_rule` the last axis's `Boundary::axis_rule`: element `i`
/// equals `read_with_boundary(t, x + i·e_last)`.  Only cells the per-point path would
/// read are touched — the in-domain span as one slice, each ghost cell's source on its
/// own — and a function-valued boundary is called once per ghost cell, with the
/// coordinate a per-point read passes.
///
/// # Safety
///
/// No in-domain cell the row reads may be written while this runs.
#[inline(always)]
unsafe fn resolve_row<T: Copy, const D: usize>(
    grid: &RawGrid<'_, T, D>,
    t: i64,
    x: [i64; D],
    len: usize,
    outer: Outer<T, D>,
    last_rule: &Option<AxisRule<T>>,
    out: &mut (impl RowSink<T> + ?Sized),
) {
    let last = D - 1;
    let (start, end) = (x[last], x[last] + len as i64);
    let at = |mut p: [i64; D], j: i64| {
        p[last] = j;
        p
    };
    let per_point = |j: i64| grid.read_with_boundary(t, at(x, j));
    let i = |j: i64| (j - start) as usize;
    let w = match outer {
        Outer::At(w) => w,
        Outer::Fill(v) => return (start..end).for_each(|j| out.cell(i(j), v)),
        Outer::PerCell => return (start..end).for_each(|j| out.cell(i(j), per_point(j))),
    };
    let n = grid.sizes()[last];
    let (lo, hi) = (start.max(0), end.min(n));
    let inside: &[T] = if lo < hi {
        // SAFETY: in-domain on the outer axes after resolution, `[lo, hi)` lies in the
        // last extent, and the slice dies before this returns; no writer by the
        // caller's contract.
        unsafe { grid.row(t, at(w, lo), (hi - lo) as usize) }
    } else {
        &[]
    };
    for j in start..end.min(0) {
        out.cell(i(j), ghost_cell(grid, t, x, w, j, last_rule, inside, lo));
    }
    if lo < hi {
        out.span(i(lo), inside);
    }
    for j in start.max(n)..end {
        out.cell(i(j), ghost_cell(grid, t, x, w, j, last_rule, inside, lo));
    }
}

impl<'a, T: Copy, const D: usize> GridAccess<T, D> for BoundaryView<'a, T, D> {
    #[inline]
    fn get(&self, t: i64, x: [i64; D]) -> T {
        self.grid.read_with_boundary(t, x)
    }

    #[inline]
    fn set(&self, t: i64, x: [i64; D], value: T) {
        // Writes always target the home cell of some in-domain point; if the caller used
        // virtual coordinates we wrap them back into the domain.
        let w = fold(x, self.grid.sizes());
        self.grid.write(t, w, value)
    }

    #[inline]
    fn size(&self, dim: usize) -> i64 {
        self.grid.sizes()[dim]
    }

    #[inline]
    fn begin_row(&self) {
        if let Some(ghosts) = &self.ghosts {
            ghosts.live.set(0);
        }
    }

    #[inline]
    unsafe fn row(&self, t: i64, x: [i64; D], len: usize) -> Option<&[T]> {
        let ghosts = self.ghosts.as_ref()?;
        Some(if self.row_in_domain(x, len) {
            // SAFETY: in-domain, checked above; aliasing is the caller's contract.
            unsafe { self.grid.row(t, x, len) }
        } else {
            // SAFETY: forwarded contract.
            unsafe { self.ghost_row(ghosts, t, x, len) }
        })
    }

    #[inline]
    unsafe fn row_out(&self, t: i64, x: [i64; D], len: usize) -> Option<RowWriter<'_, T>> {
        // The engines fold write rows into the domain before dispatch; anything else
        // takes the per-point path, whose `set` folds.
        if self.ghosts.is_none() || !self.row_in_domain(x, len) {
            return None;
        }
        // SAFETY: in-domain, checked above; aliasing is the caller's contract.
        Some(unsafe { self.grid.row_out(t, x, len) })
    }
}

/// Scratch for padded copies (see the module docs), kept by its owner from step to
/// step and leaf to leaf so that a padded leaf allocates nothing in steady state.
pub struct PadScratch<T, const D: usize> {
    cells: Vec<T>,
    blocks: Vec<Block<D>>,
    /// The last-axis spans of a row every offset reaches, for the slice being gathered.
    full: Vec<(i64, i64)>,
    /// The spans of the row being gathered, when not every offset reaches it.
    part: Vec<(i64, i64)>,
    /// How a row every offset reaches is filled when its last axis wraps or clamps:
    /// `(dst, src)` copies within the row, after the one in-domain span.
    ghosts: Vec<(usize, usize)>,
}

/// One read slice's block of a padded copy: the box dilated by that slice's offsets,
/// dense and row-major.  A slice the shape skips gets an empty block.
#[derive(Clone, Copy)]
struct Block<const D: usize> {
    origin: [i64; D],
    end: [i64; D],
    strides: [usize; D],
    base: usize,
}

impl<T: Copy, const D: usize> Default for PadScratch<T, D> {
    fn default() -> Self {
        PadScratch {
            cells: Vec::new(),
            blocks: Vec::new(),
            full: Vec::new(),
            part: Vec::new(),
            ghosts: Vec::new(),
        }
    }
}

impl<T: Copy, const D: usize> PadScratch<T, D> {
    /// Gathers what the kernel invoked at `t` reads for the points of the in-domain box
    /// `[lo, hi)`, and returns the view that serves it.
    ///
    /// Each read slice gets one block, the box dilated by that slice's offsets.  Within
    /// it only the cells some offset reaches are read — through the boundary exactly as
    /// a ghost row resolves them — and the rest (a star's corners) hold filler.
    ///
    /// # Safety
    ///
    /// `[lo, hi)` must lie in the domain, and while this runs no cell it reads may be
    /// written, nor may the box's cells of the slice the kernel writes at `t` be read
    /// or written elsewhere: the guarantee a leaf's step gets from the decomposition.
    pub unsafe fn gather<'s>(
        &'s mut self,
        grid: RawGrid<'s, T, D>,
        reads: &ReadFootprint<D>,
        t: i64,
        lo: [i64; D],
        hi: [i64; D],
    ) -> PaddedView<'s, T, D> {
        let last = D - 1;
        self.blocks.clear();
        let mut total = 0;
        for slice in reads.slices() {
            let (origin, end) = if slice.offsets.is_empty() {
                (lo, lo)
            } else {
                (
                    std::array::from_fn(|d| lo[d] + slice.min[d]),
                    std::array::from_fn(|d| hi[d] + slice.max[d]),
                )
            };
            let mut strides = [1usize; D];
            for d in (0..last).rev() {
                strides[d] = strides[d + 1] * (end[d + 1] - origin[d + 1]) as usize;
            }
            self.blocks.push(Block {
                origin,
                end,
                strides,
                base: total,
            });
            total += strides[0] * (end[0] - origin[0]) as usize;
        }
        if self.cells.len() < total {
            // The cells no offset reaches keep whatever they hold, so growth needs a
            // value read without a race: this leaf alone touches its own output cells
            // during the step.
            let filler = grid.read(t + reads.home_dt(), lo);
            self.cells.resize(total, filler);
        }
        let last_rule = grid.boundary().axis_rule(last);
        for (k, (slice, block)) in reads.slices().iter().zip(&self.blocks).enumerate() {
            if slice.offsets.is_empty() {
                continue;
            }
            let ts = t + reads.newest() - k as i64;
            let width = (block.end[last] - block.origin[last]) as usize;
            // The offsets that reach a row cover `[lo + o, hi + o)` on the last axis;
            // sorted by `o[last]`, their union merges in one pass.
            let merge = |spans: &mut Vec<(i64, i64)>, o: &[i64; D]| {
                let (s, e) = (lo[last] + o[last], hi[last] + o[last]);
                match spans.last_mut() {
                    Some((_, end)) if s <= *end => *end = (*end).max(e),
                    _ => spans.push((s, e)),
                }
            };
            // Rows that every offset reaches — all but a halo's worth at the block's
            // outer edges — share their spans.
            self.full.clear();
            slice.offsets.iter().for_each(|o| merge(&mut self.full, o));
            // When those spans are one, holding the whole last extent, and the last axis
            // wraps or clamps, every ghost cell's source is a cell of the same row copy.
            let n = grid.sizes()[last];
            let cell = |j: i64| (j - block.origin[last]) as usize;
            self.ghosts.clear();
            let mut whole = matches!(self.full[..], [(s, e)] if s <= 0 && e >= n);
            if whole {
                let (s, e) = self.full[0];
                for j in (s..0).chain(n..e) {
                    let src = match last_rule {
                        Some(AxisRule::Periodic) => wrap(j, n),
                        Some(AxisRule::Clamp) => clamp(j, n),
                        _ => {
                            whole = false;
                            break;
                        }
                    };
                    self.ghosts.push((cell(j), cell(src)));
                }
            }
            let (mut y, mut at) = (block.origin, block.base);
            'rows: loop {
                let outer = resolve_outer(&grid, y);
                let row = &mut self.cells[at..at + width];
                let reached_by_all =
                    (0..last).all(|d| y[d] >= lo[d] + slice.max[d] && y[d] < hi[d] + slice.min[d]);
                match outer {
                    Outer::At(mut w) if whole && reached_by_all => {
                        w[last] = 0;
                        // SAFETY: the kernel reads the whole in-domain row at this step;
                        // no writer by the contract of `gather`.
                        let inside = unsafe { grid.row(ts, w, n as usize) };
                        row[cell(0)..cell(n)].copy_from_slice(inside);
                        for &(dst, src) in &self.ghosts {
                            row[dst] = row[src];
                        }
                    }
                    _ => {
                        let spans = if reached_by_all {
                            &self.full
                        } else {
                            self.part.clear();
                            slice
                                .offsets
                                .iter()
                                .filter(|o| {
                                    (0..last).all(|d| (lo[d]..hi[d]).contains(&(y[d] - o[d])))
                                })
                                .for_each(|o| merge(&mut self.part, o));
                            &self.part
                        };
                        for &(s, e) in spans {
                            let mut x = y;
                            x[last] = s;
                            let dst = &mut row[(s - block.origin[last]) as usize..];
                            // SAFETY: the span is cells the kernel reads at this step; no
                            // writer by the contract of `gather`.
                            unsafe {
                                resolve_row(&grid, ts, x, (e - s) as usize, outer, &last_rule, dst)
                            };
                        }
                    }
                }
                // Next row: an odometer over the outer axes.
                at += width;
                let mut d = last;
                loop {
                    if d == 0 {
                        break 'rows;
                    }
                    d -= 1;
                    y[d] += 1;
                    if y[d] < block.end[d] {
                        break;
                    }
                    y[d] = block.origin[d];
                }
            }
        }
        PaddedView {
            grid,
            top: t + reads.newest(),
            blocks: &self.blocks,
            cells: &self.cells,
        }
    }
}

/// The view over one padded copy (see the module docs), built by
/// [`PadScratch::gather`] for one box at one step: reads come from the copy, writes go
/// to the grid.  The box is in-domain, so the engines dispatch it without folding.
///
/// A read outside the copy falls back to the boundary clone's per-point read; a read
/// of a cell the shape does not declare, inside the copy, sees filler — the engines
/// rely on kernels reading only what their shape declares (the Phase-1 check).
pub struct PaddedView<'a, T, const D: usize> {
    grid: RawGrid<'a, T, D>,
    /// Block `k` holds time slice `top − k`.
    top: i64,
    blocks: &'a [Block<D>],
    cells: &'a [T],
}

impl<'a, T: Copy, const D: usize> PaddedView<'a, T, D> {
    /// Index in `cells` of the `len` cells starting at `(t, x)`, when the copy holds
    /// them all.
    #[inline]
    fn locate(&self, t: i64, x: [i64; D], len: usize) -> Option<usize> {
        let block = self.blocks.get(usize::try_from(self.top - t).ok()?)?;
        let mut at = block.base;
        for (d, &c) in x.iter().enumerate() {
            let stop = if d == D - 1 { c + len as i64 } else { c + 1 };
            if c < block.origin[d] || stop > block.end[d] {
                return None;
            }
            at += (c - block.origin[d]) as usize * block.strides[d];
        }
        Some(at)
    }
}

impl<'a, T: Copy, const D: usize> GridAccess<T, D> for PaddedView<'a, T, D> {
    #[inline]
    fn get(&self, t: i64, x: [i64; D]) -> T {
        match self.locate(t, x, 1) {
            Some(i) => self.cells[i],
            None => self.grid.read_with_boundary(t, x),
        }
    }

    #[inline]
    fn set(&self, t: i64, x: [i64; D], value: T) {
        self.grid.write(t, fold(x, self.grid.sizes()), value)
    }

    #[inline]
    fn size(&self, dim: usize) -> i64 {
        self.grid.sizes()[dim]
    }

    #[inline]
    unsafe fn row(&self, t: i64, x: [i64; D], len: usize) -> Option<&[T]> {
        let i = self.locate(t, x, len)?;
        Some(&self.cells[i..i + len])
    }

    #[inline]
    unsafe fn row_out(&self, t: i64, x: [i64; D], len: usize) -> Option<RowWriter<'_, T>> {
        if !(self.grid.in_domain(x) && x[D - 1] + len as i64 <= self.grid.sizes()[D - 1]) {
            return None;
        }
        // SAFETY: in-domain, checked above; the copy, not the grid, serves every read
        // row, and aliasing with the grid is the caller's contract.
        Some(unsafe { self.grid.row_out(t, x, len) })
    }
}

/// A view adapter that reports the byte address of every access to an [`AccessTracer`]
/// and then forwards to boundary-clone semantics.
pub struct TracingView<'a, 't, T, const D: usize, C: AccessTracer> {
    grid: RawGrid<'a, T, D>,
    tracer: &'t C,
}

impl<'a, 't, T: Copy, const D: usize, C: AccessTracer> TracingView<'a, 't, T, D, C> {
    /// Wraps a raw grid with a tracer.
    pub fn new(grid: RawGrid<'a, T, D>, tracer: &'t C) -> Self {
        TracingView { grid, tracer }
    }

    #[inline]
    fn addr(&self, t: i64, x: [i64; D]) -> usize {
        self.grid.offset(t, x) * self.grid.element_bytes()
    }
}

impl<'a, 't, T: Copy, const D: usize, C: AccessTracer> GridAccess<T, D>
    for TracingView<'a, 't, T, D, C>
{
    fn get(&self, t: i64, x: [i64; D]) -> T {
        if self.grid.in_domain(x) {
            self.tracer
                .on_read(self.addr(t, x), self.grid.element_bytes());
            self.grid.read(t, x)
        } else {
            // Boundary resolution may itself touch in-domain memory; trace those reads too.
            let tracer = self.tracer;
            let grid = self.grid;
            let read = move |tt: i64, xx: [i64; D]| {
                tracer.on_read(
                    grid.offset(tt, xx) * grid.element_bytes(),
                    grid.element_bytes(),
                );
                grid.read(tt, xx)
            };
            self.grid.boundary().resolve(&read, self.grid.sizes(), t, x)
        }
    }

    fn set(&self, t: i64, x: [i64; D], value: T) {
        let w = fold(x, self.grid.sizes());
        self.tracer
            .on_write(self.addr(t, w), self.grid.element_bytes());
        self.grid.write(t, w, value)
    }

    fn size(&self, dim: usize) -> i64 {
        self.grid.sizes()[dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::Boundary;
    use crate::grid::PochoirArray;

    fn make_grid() -> PochoirArray<f64, 2> {
        let mut a: PochoirArray<f64, 2> = PochoirArray::new([4, 4]);
        a.register_boundary(Boundary::Constant(-1.0));
        a.fill_time_slice(0, |x| (x[0] * 4 + x[1]) as f64);
        a
    }

    #[test]
    fn interior_view_reads_and_writes() {
        let mut a = make_grid();
        let raw = a.raw();
        let v = InteriorView::new(raw);
        assert_eq!(v.get(0, [2, 3]), 11.0);
        v.set(1, [2, 3], 99.0);
        assert_eq!(v.get(1, [2, 3]), 99.0);
        assert_eq!(v.size(0), 4);
    }

    #[test]
    fn checked_view_matches_interior_in_domain() {
        let mut a = make_grid();
        let raw = a.raw();
        let iv = InteriorView::new(raw);
        let cv = CheckedInteriorView::new(raw);
        for x0 in 0..4 {
            for x1 in 0..4 {
                assert_eq!(iv.get(0, [x0, x1]), cv.get(0, [x0, x1]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn checked_view_panics_out_of_domain() {
        let mut a = make_grid();
        let raw = a.raw();
        let cv = CheckedInteriorView::new(raw);
        let _ = cv.get(0, [4, 0]);
    }

    #[test]
    fn boundary_view_resolves_off_domain_reads() {
        let mut a = make_grid();
        let raw = a.raw();
        let bv = BoundaryView::new(raw);
        assert_eq!(bv.get(0, [-1, 0]), -1.0);
        assert_eq!(bv.get(0, [1, 1]), 5.0);
    }

    #[test]
    fn boundary_view_folds_virtual_writes() {
        let mut a = make_grid();
        {
            let raw = a.raw();
            let bv = BoundaryView::new(raw);
            // Virtual coordinate 5 on a size-4 axis is true coordinate 1.
            bv.set(1, [5, 2], 7.0);
        }
        assert_eq!(a.get(1, [1, 2]), 7.0);
    }

    /// Every boundary variant, built for any `D`: the uniform ones, a function of time
    /// and position, `Mixed` with each rule on each axis (so 2-D gets two `Constant`
    /// axes with different values, a cylinder and a clamp/constant pair), and a `Custom`
    /// that probes in-domain values.
    fn all_boundaries<const D: usize>() -> Vec<Boundary<f64, D>> {
        let rule = |k: usize| match k % 4 {
            0 => AxisRule::Constant(-1.0),
            1 => AxisRule::Constant(-2.0),
            2 => AxisRule::Periodic,
            _ => AxisRule::Clamp,
        };
        let mut all = vec![
            Boundary::Periodic,
            Boundary::Constant(-7.0),
            Boundary::constant_fn(|t, x: [i64; D]| {
                1000.0 + t as f64 + x.iter().fold(0.0, |acc, &c| acc * 31.0 + c as f64)
            }),
            Boundary::Clamp,
            Boundary::custom(|probe, t, x: [i64; D]| {
                let inside: [i64; D] = std::array::from_fn(|d| clamp(x[d], probe.size(d)));
                2.0 * probe.get(t, inside) + x.iter().sum::<i64>() as f64
            }),
        ];
        for shift in 0..4 {
            all.push(Boundary::Mixed(std::array::from_fn(|d| rule(d + shift))));
        }
        all
    }

    /// Ghost rows ≡ per-access reads: every `row(t, x, len)` with `x` up to 2·extent
    /// outside the domain on any axis and `len` up to 3·extent, on the depth-2
    /// three-slice layout, against `read_with_boundary` element by element.
    fn check_ghost_rows<const D: usize>(sizes: [usize; D]) {
        let last = D - 1;
        for boundary in all_boundaries::<D>() {
            let mut a: PochoirArray<f64, D> = PochoirArray::with_depth(sizes, 2);
            for t in 0..3i64 {
                a.fill_time_slice(t, |x| {
                    x.iter()
                        .fold(t as f64 + 1.0, |acc, &c| acc * 17.0 + c as f64)
                });
            }
            a.register_boundary(boundary.clone());
            let ext = a.sizes_i64();
            let raw = a.raw();
            let view = BoundaryView::new(raw);
            // Origins: the box [-2·extent, 3·extent) on every axis.
            let span: [i64; D] = std::array::from_fn(|d| 5 * ext[d]);
            for offset in crate::grid::SpaceIter::new(span) {
                let x: [i64; D] = std::array::from_fn(|d| offset[d] - 2 * ext[d]);
                for t in 0..3i64 {
                    for len in 1..=3 * sizes[last] {
                        view.begin_row();
                        // SAFETY: nothing writes the grid while the row is live.
                        let row = unsafe { view.row(t, x, len) }.expect("boundary rows");
                        assert_eq!(row.len(), len);
                        for (i, &got) in row.iter().enumerate() {
                            let mut p = x;
                            p[last] += i as i64;
                            assert_eq!(
                                got.to_bits(),
                                raw.read_with_boundary(t, p).to_bits(),
                                "{boundary:?} sizes {sizes:?} t={t} x={x:?} len={len} i={i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ghost_rows_equal_per_access_reads_1d() {
        // Extents 1–4: a row of 3·extent cells wraps more than once.
        for n in [1, 2, 3, 4, 9] {
            check_ghost_rows([n]);
        }
    }

    #[test]
    fn ghost_rows_equal_per_access_reads_2d() {
        for sizes in [[1, 1], [2, 3], [4, 1], [3, 4], [5, 9]] {
            check_ghost_rows(sizes);
        }
    }

    #[test]
    fn ghost_rows_equal_per_access_reads_3d() {
        for sizes in [[1, 2, 3], [2, 1, 4], [3, 3, 2]] {
            check_ghost_rows(sizes);
        }
    }

    /// Padded copies ≡ per-access reads: for in-domain boxes at the grid's corners and
    /// edges, every cell the footprint reaches reads through the copy exactly as
    /// `read_with_boundary` does, on the depth-2 three-slice layout, for a star
    /// (corners skipped), a box and a depth-2 shape, under every boundary variant.
    fn check_padded_copies<const D: usize>(sizes: [usize; D]) {
        use crate::shape::{box_shape, star_shape, Shape, ShapeCell};
        let mut wave = vec![ShapeCell::new(1, [0; D]), ShapeCell::new(-1, [0; D])];
        wave.extend(star_shape::<D>(1).cells().iter().skip(1).copied());
        let shapes = [star_shape::<D>(1), box_shape::<D>(1), Shape::must(wave)];
        let ext: [i64; D] = sizes.map(|s| s as i64);
        for boundary in all_boundaries::<D>() {
            let mut a: PochoirArray<f64, D> = PochoirArray::with_depth(sizes, 2);
            for t in 0..3i64 {
                a.fill_time_slice(t, |x| {
                    x.iter()
                        .fold(t as f64 + 1.0, |acc, &c| acc * 17.0 + c as f64)
                });
            }
            a.register_boundary(boundary.clone());
            let raw = a.raw();
            let mut pad = PadScratch::<f64, D>::default();
            for shape in &shapes {
                let reads = shape.footprint();
                let t = 1;
                // Boxes: every `[lo, hi)` with `lo` and `hi − lo` from {0, 1, extent − 1}.
                for lo_pick in crate::grid::SpaceIter::new([3i64; D]) {
                    for w_pick in crate::grid::SpaceIter::new([3i64; D]) {
                        let pick = |p: i64, d: usize| [0, 1, ext[d] - 1][p as usize];
                        let lo: [i64; D] = std::array::from_fn(|d| pick(lo_pick[d], d));
                        let hi: [i64; D] = std::array::from_fn(|d| {
                            (lo[d] + pick(w_pick[d], d).max(1)).min(ext[d])
                        });
                        // SAFETY: single-threaded; nothing writes the grid meanwhile.
                        let view = unsafe { pad.gather(raw, reads, t, lo, hi) };
                        for (k, slice) in reads.slices().iter().enumerate() {
                            let ts = t + reads.newest() - k as i64;
                            let span: [i64; D] = std::array::from_fn(|d| hi[d] - lo[d]);
                            for p in crate::grid::SpaceIter::new(span) {
                                for o in &slice.offsets {
                                    let x: [i64; D] = std::array::from_fn(|d| lo[d] + p[d] + o[d]);
                                    assert_eq!(
                                        view.get(ts, x).to_bits(),
                                        raw.read_with_boundary(ts, x).to_bits(),
                                        "{boundary:?} {shape:?} box {lo:?}..{hi:?} x={x:?}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn padded_copies_equal_per_access_reads() {
        for n in [1, 2, 3, 9] {
            check_padded_copies([n]);
        }
        for sizes in [[1, 1], [2, 3], [4, 1], [5, 9]] {
            check_padded_copies(sizes);
        }
        for sizes in [[1, 2, 3], [3, 3, 2]] {
            check_padded_copies(sizes);
        }
    }

    #[test]
    fn padded_copies_call_a_boundary_function_once_per_reached_ghost() {
        use crate::shape::star_shape;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let n = 6i64;
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let mut a: PochoirArray<f64, 2> = PochoirArray::new([n as usize; 2]);
        a.register_boundary(Boundary::constant_fn(move |_, _| {
            seen.fetch_add(1, Ordering::Relaxed);
            -1.0
        }));
        let raw = a.raw();
        let mut pad = PadScratch::<f64, 2>::default();
        // SAFETY: single-threaded; nothing writes the grid meanwhile.
        let _ = unsafe { pad.gather(raw, star_shape::<2>(1).footprint(), 0, [0, 0], [n, n]) };
        // The ring around the grid without its four corners.
        assert_eq!(calls.load(Ordering::Relaxed), 4 * n as usize);
    }

    #[test]
    fn ghost_rows_of_one_dispatch_stay_live_together() {
        // A kernel holds all its rows at once: later requests must not disturb earlier
        // ones, and the next dispatch reuses the same buffers.
        let mut a = make_grid();
        let raw = a.raw();
        let view = BoundaryView::new(raw);
        for _ in 0..2 {
            view.begin_row();
            // SAFETY: nothing writes the grid while the rows are live.
            let rows: Vec<&[f64]> = (-1..=4)
                .map(|x0| unsafe { view.row(0, [x0, -1], 6) }.expect("boundary rows"))
                .collect();
            for (x0, row) in (-1..=4).zip(&rows) {
                for (i, &got) in row.iter().enumerate() {
                    assert_eq!(got, raw.read_with_boundary(0, [x0, i as i64 - 1]));
                }
            }
        }
        // SAFETY: single-threaded test; no row is live.
        assert_eq!(
            unsafe { &*view.ghosts.as_ref().unwrap().bufs.get() }.len(),
            6
        );
    }

    #[test]
    fn boundary_view_write_rows_are_in_domain_only() {
        let mut a = make_grid();
        let raw = a.raw();
        let view = BoundaryView::new(raw);
        // SAFETY: no row slice is live.
        unsafe {
            assert!(view.row_out(1, [3, 1], 3).is_some());
            assert!(view.row_out(1, [3, 2], 3).is_none());
            assert!(view.row_out(1, [4, 0], 1).is_none());
            assert!(view.row_out(1, [0, -1], 2).is_none());
        }
    }

    #[test]
    fn per_access_boundary_view_serves_no_rows() {
        let mut a = make_grid();
        let raw = a.raw();
        let view = BoundaryView::per_access(raw);
        // SAFETY: no row slice is live.
        unsafe {
            assert!(view.row(0, [1, 0], 4).is_none());
            assert!(view.row_out(1, [1, 0], 4).is_none());
        }
        assert_eq!(view.get(0, [-1, 0]), -1.0);
    }

    #[derive(Default)]
    struct CountingTracer {
        reads: Cell<usize>,
        writes: Cell<usize>,
        last_addr: Cell<usize>,
    }

    impl AccessTracer for CountingTracer {
        fn on_read(&self, addr: usize, _bytes: usize) {
            self.reads.set(self.reads.get() + 1);
            self.last_addr.set(addr);
        }
        fn on_write(&self, addr: usize, _bytes: usize) {
            self.writes.set(self.writes.get() + 1);
            self.last_addr.set(addr);
        }
    }

    #[test]
    fn tracing_view_counts_accesses() {
        let mut a = make_grid();
        let raw = a.raw();
        let tracer = CountingTracer::default();
        let tv = TracingView::new(raw, &tracer);
        let _ = tv.get(0, [1, 1]);
        let _ = tv.get(0, [2, 2]);
        tv.set(1, [0, 0], 5.0);
        assert_eq!(tracer.reads.get(), 2);
        assert_eq!(tracer.writes.get(), 1);
    }

    #[test]
    fn tracing_view_traces_boundary_probe_reads() {
        let mut a: PochoirArray<f64, 2> = PochoirArray::new([4, 4]);
        a.register_boundary(Boundary::Periodic);
        a.fill_time_slice(0, |x| (x[0] + x[1]) as f64);
        let raw = a.raw();
        let tracer = CountingTracer::default();
        let tv = TracingView::new(raw, &tracer);
        // Off-domain read under a periodic boundary touches in-domain memory: traced.
        let v = tv.get(0, [-1, 0]);
        assert_eq!(v, 3.0);
        assert_eq!(tracer.reads.get(), 1);
    }

    #[test]
    fn tracing_addresses_follow_row_major_layout() {
        let mut a = make_grid();
        let raw = a.raw();
        let tracer = CountingTracer::default();
        let tv = TracingView::new(raw, &tracer);
        let _ = tv.get(0, [0, 0]);
        let a0 = tracer.last_addr.get();
        let _ = tv.get(0, [0, 1]);
        let a1 = tracer.last_addr.get();
        assert_eq!(a1 - a0, std::mem::size_of::<f64>());
    }
}
