//! Stencil kernels (`Pochoir_Kernel` in the paper, Section 2).
//!
//! A kernel updates one grid point at kernel-invocation time `t` and position `x`,
//! reading and writing the grid only through a [`GridAccess`] view.  Because the kernel
//! is generic over the view type, `rustc` produces the interior and boundary *clones* the
//! Pochoir compiler would otherwise generate by source-to-source translation (Section 4).

use crate::view::GridAccess;

/// A stencil kernel: the update rule applied at every space-time grid point.
///
/// Implementations are usually tiny structs holding the physical constants of the update
/// equation, e.g. the `CX`/`CY` coefficients of the 2D heat equation in Figure 6.
pub trait StencilKernel<T: Copy, const D: usize>: Sync {
    /// Applies the update at invocation time `t` and spatial position `x`.
    ///
    /// All grid traffic must go through `grid`, and for Pochoir-compliant kernels the
    /// accessed offsets must be covered by the declared [`Shape`](crate::shape::Shape)
    /// (checked by the Phase-1 interpreter in `pochoir-dsl`).
    fn update<A: GridAccess<T, D>>(&self, grid: &A, t: i64, x: [i64; D]);

    /// Applies the update to the `len` consecutive points starting at `x0` along the
    /// unit-stride (last) dimension, at invocation time `t`.
    ///
    /// This is the kernel-side half of the row-oriented base case (the analog of the
    /// Pochoir compiler's `--split-pointer` interior clone).  The default implementation
    /// simply calls [`StencilKernel::update`] per point and is always correct;
    /// implementations may override it with a vectorizable inner loop over the row
    /// slices exposed by [`GridAccess::row`] / [`GridAccess::row_out`], **provided** the
    /// override computes bit-identical results to the per-point loop (same operations in
    /// the same order) — engine equivalence tests enforce this.
    ///
    /// Overrides must fall back to the per-point loop ([`update_row_pointwise`]) when
    /// the view does not expose rows (`row()` or `row_out()` returning `None`), which is
    /// how the tracing, checked-index and per-access boundary views keep observing every
    /// access.  The boundary clone does expose rows: it may be asked for rows that leave
    /// the domain and answers with ghost rows, so an override's slice-walking body also
    /// runs on edge rows and row ends.  The row accessors are `unsafe`: overrides must
    /// uphold their contract (written elements disjoint from live row slices — reading
    /// `t`/`t − 1` and writing `t + 1` satisfies it — and no row kept beyond the call:
    /// a row is valid only until the view's next row dispatch).
    #[inline]
    fn update_row<A: GridAccess<T, D>>(&self, grid: &A, t: i64, x0: [i64; D], len: i64) {
        update_row_pointwise(self, grid, t, x0, len);
    }
}

/// Applies `kernel.update` to the `len` consecutive points starting at `x0` along the
/// unit-stride (last) dimension.
///
/// This is the canonical per-point row loop: the default body of
/// [`StencilKernel::update_row`], and the fallback that row-overriding kernels call when
/// the view does not expose rows.  Sharing it keeps every fallback in sync with the
/// default semantics.
#[inline]
pub fn update_row_pointwise<T, K, A, const D: usize>(
    kernel: &K,
    grid: &A,
    t: i64,
    x0: [i64; D],
    len: i64,
) where
    T: Copy,
    K: StencilKernel<T, D> + ?Sized,
    A: GridAccess<T, D>,
{
    let mut p = x0;
    let lo = x0[D - 1];
    for v in lo..lo + len {
        p[D - 1] = v;
        kernel.update(grid, t, p);
    }
}

impl<T: Copy, const D: usize, K: StencilKernel<T, D>> StencilKernel<T, D> for &K {
    fn update<A: GridAccess<T, D>>(&self, grid: &A, t: i64, x: [i64; D]) {
        (**self).update(grid, t, x)
    }

    fn update_row<A: GridAccess<T, D>>(&self, grid: &A, t: i64, x0: [i64; D], len: i64) {
        (**self).update_row(grid, t, x0, len)
    }
}

/// A stencil *problem definition*: a shape plus metadata the engines need.
///
/// This is the static information the paper stores in a `Pochoir_<dim>D` object.
#[derive(Clone, Debug)]
pub struct StencilSpec<const D: usize> {
    shape: crate::shape::Shape<D>,
}

impl<const D: usize> StencilSpec<D> {
    /// Wraps a validated shape.
    pub fn new(shape: crate::shape::Shape<D>) -> Self {
        StencilSpec { shape }
    }

    /// The declared shape.
    pub fn shape(&self) -> &crate::shape::Shape<D> {
        &self.shape
    }

    /// The per-dimension slopes used by the trapezoidal decomposition.
    pub fn slopes(&self) -> [i64; D] {
        self.shape.cut_slopes()
    }

    /// The per-dimension maximal spatial reach of the kernel.
    pub fn reach(&self) -> [i64; D] {
        self.shape.reach()
    }

    /// The cells a kernel invocation reads, by time slice.
    pub fn footprint(&self) -> &crate::shape::ReadFootprint<D> {
        self.shape.footprint()
    }

    /// The stencil depth *k*.
    pub fn depth(&self) -> i32 {
        self.shape.depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::PochoirArray;
    use crate::shape::{star_shape, ShapeCell};
    use crate::view::InteriorView;

    /// 1D three-point averaging kernel used by several unit tests.
    pub struct Avg1D;

    impl StencilKernel<f64, 1> for Avg1D {
        fn update<A: GridAccess<f64, 1>>(&self, g: &A, t: i64, x: [i64; 1]) {
            let v =
                0.25 * g.get(t, [x[0] - 1]) + 0.5 * g.get(t, [x[0]]) + 0.25 * g.get(t, [x[0] + 1]);
            g.set(t + 1, x, v);
        }
    }

    #[test]
    fn kernel_updates_through_view() {
        let mut a: PochoirArray<f64, 1> = PochoirArray::new([8]);
        a.fill_time_slice(0, |x| x[0] as f64);
        let raw = a.raw();
        let view = InteriorView::new(raw);
        Avg1D.update(&view, 0, [3]);
        // 0.25*2 + 0.5*3 + 0.25*4 = 3.0
        assert_eq!(view.get(1, [3]), 3.0);
    }

    #[test]
    fn kernel_by_reference_also_works() {
        let mut a: PochoirArray<f64, 1> = PochoirArray::new([8]);
        a.fill_time_slice(0, |x| x[0] as f64);
        let raw = a.raw();
        let view = InteriorView::new(raw);
        let k = &Avg1D;
        k.update(&view, 0, [4]);
        assert_eq!(view.get(1, [4]), 4.0);
    }

    #[test]
    fn spec_exposes_shape_quantities() {
        let spec = StencilSpec::new(star_shape::<2>(1));
        assert_eq!(spec.depth(), 1);
        assert_eq!(spec.slopes(), [1, 1]);
        assert_eq!(spec.reach(), [1, 1]);
    }

    #[test]
    fn spec_clamps_cut_slopes() {
        let shape = crate::shape::Shape::must(vec![
            ShapeCell::new(1, [0, 0]),
            ShapeCell::new(0, [0, 0]),
            ShapeCell::new(0, [1, 0]),
            ShapeCell::new(0, [-1, 0]),
        ]);
        let spec = StencilSpec::new(shape);
        assert_eq!(spec.slopes(), [1, 1]); // dimension 1 clamped up from 0
        assert_eq!(spec.reach(), [1, 0]);
    }
}
