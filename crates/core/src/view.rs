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

use crate::boundary::{clamp, wrap, AxisRule};
use crate::grid::{RawGrid, RowWriter};
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

    #[inline]
    fn fold(&self, x: [i64; D]) -> [i64; D] {
        let sizes = self.grid.sizes();
        let mut w = x;
        for d in 0..D {
            if w[d] >= sizes[d] || w[d] < 0 {
                w[d] = wrap(w[d], sizes[d]);
            }
        }
        w
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
        let sizes = grid.sizes();
        let boundary = grid.boundary();
        let last = D - 1;
        let n = sizes[last];
        let (start, end) = (x[last], x[last] + len as i64);
        let at = |mut p: [i64; D], j: i64| {
            p[last] = j;
            p
        };
        let per_point = |j: i64| grid.read_with_boundary(t, at(x, j));

        // The outer axes, once per row and in axis order (the order `Boundary::resolve`
        // applies them in, which decides which of two out-of-range `Constant` axes wins).
        let mut w = x;
        for d in 0..last {
            if (0..sizes[d]).contains(&x[d]) {
                continue;
            }
            match boundary.axis_rule(d) {
                Some(AxisRule::Periodic) => w[d] = wrap(x[d], sizes[d]),
                Some(AxisRule::Clamp) => w[d] = clamp(x[d], sizes[d]),
                // SAFETY (both fills): the writers touch only their buffer and the grid.
                Some(AxisRule::Constant(v)) => {
                    return unsafe { ghosts.fill(len, |buf| buf.resize(len, v)) }
                }
                None => {
                    return unsafe {
                        ghosts.fill(len, |buf| buf.extend((start..end).map(per_point)))
                    }
                }
            }
        }
        if start >= 0 && end <= n {
            // SAFETY: `w` is in-domain on the outer axes after resolution and the span
            // fits the last extent; aliasing is the caller's contract.
            return unsafe { grid.row(t, at(w, start), len) };
        }

        // Only cells the per-point path would read are touched: the in-domain span as one
        // slice, the ghost cells' sources one by one.
        let (lo, hi) = (start.max(0), end.min(n));
        let inside: &[T] = if lo < hi {
            // SAFETY: in-domain on the outer axes after resolution, and `[lo, hi)` lies in
            // the last extent; aliasing is the caller's contract.
            unsafe { grid.row(t, at(w, lo), (hi - lo) as usize) }
        } else {
            &[]
        };
        let rule = boundary.axis_rule(last);
        let ghost = |j: i64| match &rule {
            Some(AxisRule::Periodic) => grid.read(t, at(w, wrap(j, n))),
            Some(AxisRule::Clamp) => grid.read(t, at(w, clamp(j, n))),
            Some(AxisRule::Constant(v)) => *v,
            // A function-valued boundary got here with every outer axis in range, so
            // `x` with the cell's own coordinate is what a per-point read passes.
            None => per_point(j),
        };
        // SAFETY: the writer touches only its buffer and the grid.
        unsafe {
            ghosts.fill(len, |buf| {
                buf.extend((start..end.min(0)).map(&ghost));
                buf.extend_from_slice(inside);
                buf.extend((start.max(n)..end).map(&ghost));
            })
        }
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
        let w = self.fold(x);
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
        let sizes = self.grid.sizes();
        let mut w = x;
        for d in 0..D {
            if w[d] < 0 || w[d] >= sizes[d] {
                w[d] = wrap(w[d], sizes[d]);
            }
        }
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
