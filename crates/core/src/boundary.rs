//! Boundary conditions (`Pochoir_Boundary` in the paper, Sections 2 and 4).
//!
//! Every Pochoir array has exactly one boundary function; it supplies a value whenever
//! the kernel reads a point outside the computing domain.  The paper shows periodic,
//! Dirichlet and Neumann conditions (Figure 11) and emphasises that arbitrary
//! user-defined conditions — including per-axis mixtures such as a cylinder — must be
//! expressible.  This module provides all of those.

use std::sync::Arc;

/// How one spatial axis treats an out-of-range coordinate (used by [`Boundary::Mixed`]).
#[derive(Clone)]
pub enum AxisRule<T> {
    /// Wrap the coordinate modulo the axis length (torus behaviour).
    Periodic,
    /// Clamp the coordinate to the nearest in-domain cell (zero-derivative / Neumann).
    Clamp,
    /// Return a fixed value as soon as this axis is out of range (Dirichlet).
    Constant(T),
}

impl<T: std::fmt::Debug> std::fmt::Debug for AxisRule<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AxisRule::Periodic => write!(f, "Periodic"),
            AxisRule::Clamp => write!(f, "Clamp"),
            AxisRule::Constant(v) => write!(f, "Constant({v:?})"),
        }
    }
}

/// A read-only window onto the in-domain portion of a Pochoir array, handed to custom
/// boundary functions so they can derive boundary values from interior values (as the
/// periodic boundary of the paper's Figure 6 does).
pub struct BoundaryProbe<'a, T, const D: usize> {
    read: &'a dyn Fn(i64, [i64; D]) -> T,
    sizes: [i64; D],
}

impl<'a, T: Copy, const D: usize> BoundaryProbe<'a, T, D> {
    /// Creates a probe over `sizes` with the given in-domain reader.
    pub fn new(read: &'a dyn Fn(i64, [i64; D]) -> T, sizes: [i64; D]) -> Self {
        BoundaryProbe { read, sizes }
    }

    /// The spatial extent of the array along `dim` (`a.size(dim)` in the paper).
    pub fn size(&self, dim: usize) -> i64 {
        self.sizes[dim]
    }

    /// Reads an **in-domain** grid value.  Panics if the coordinates are still out of
    /// range, which would otherwise recurse into the boundary function forever.
    pub fn get(&self, t: i64, x: [i64; D]) -> T {
        for (d, (&c, &size)) in x.iter().zip(self.sizes.iter()).enumerate() {
            assert!(
                c >= 0 && c < size,
                "boundary function probed out-of-domain coordinate {c} on axis {d} (size {size})"
            );
        }
        (self.read)(t, x)
    }
}

/// Type of user-supplied boundary closures.
pub type BoundaryFn<T, const D: usize> =
    dyn for<'a> Fn(&BoundaryProbe<'a, T, D>, i64, [i64; D]) -> T + Send + Sync;

/// The boundary condition attached to a [`PochoirArray`](crate::grid::PochoirArray).
#[derive(Clone)]
pub enum Boundary<T, const D: usize> {
    /// All axes wrap around (torus); the paper's "periodic" stencils.
    Periodic,
    /// Dirichlet condition with a fixed value everywhere outside the domain.
    Constant(T),
    /// Dirichlet condition whose value may depend on time and position
    /// (paper Figure 11a: `return 100 + 0.2*t`).
    ///
    /// The function must be **pure** (like the paper's `Pochoir_Boundary`): the row
    /// base case calls it once per ghost cell per row request, the per-point base case
    /// once per off-domain access, and both must see the same values.
    ConstantFn(Arc<dyn Fn(i64, [i64; D]) -> T + Send + Sync>),
    /// Neumann condition with zero derivative: out-of-range coordinates are clamped to
    /// the nearest domain cell (paper Figure 11b).
    Clamp,
    /// Different rule per axis, e.g. a cylinder (periodic in one axis, clamped in the
    /// other) as discussed in Section 4 of the paper.
    Mixed([AxisRule<T>; D]),
    /// Fully general user-defined boundary function.  Must be **pure**, for the reason
    /// given on [`Boundary::ConstantFn`]: how often it is called depends on the base case.
    Custom(Arc<BoundaryFn<T, D>>),
}

impl<T: std::fmt::Debug, const D: usize> std::fmt::Debug for Boundary<T, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Boundary::Periodic => write!(f, "Periodic"),
            Boundary::Constant(v) => write!(f, "Constant({v:?})"),
            Boundary::ConstantFn(_) => write!(f, "ConstantFn(..)"),
            Boundary::Clamp => write!(f, "Clamp"),
            Boundary::Mixed(rules) => f.debug_tuple("Mixed").field(rules).finish(),
            Boundary::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

/// Wraps `x` into `[0, n)` (mathematical modulus).
#[inline]
pub fn wrap(x: i64, n: i64) -> i64 {
    let r = x % n;
    if r < 0 {
        r + n
    } else {
        r
    }
}

/// Clamps `x` into `[0, n)`.
#[inline]
pub fn clamp(x: i64, n: i64) -> i64 {
    if x < 0 {
        0
    } else if x >= n {
        n - 1
    } else {
        x
    }
}

impl<T: Copy, const D: usize> Boundary<T, D> {
    /// Builds a custom boundary from a closure.
    pub fn custom<F>(f: F) -> Self
    where
        F: for<'a> Fn(&BoundaryProbe<'a, T, D>, i64, [i64; D]) -> T + Send + Sync + 'static,
    {
        Boundary::Custom(Arc::new(f))
    }

    /// Builds a time/position-dependent Dirichlet boundary.
    pub fn constant_fn<F>(f: F) -> Self
    where
        F: Fn(i64, [i64; D]) -> T + Send + Sync + 'static,
    {
        Boundary::ConstantFn(Arc::new(f))
    }

    /// Resolves an out-of-domain access at time `t`, position `x`.
    ///
    /// `read` reads an in-domain value of the array; `sizes` are the spatial extents.
    /// `x` is allowed to be arbitrarily far outside the domain.
    pub fn resolve(
        &self,
        read: &dyn Fn(i64, [i64; D]) -> T,
        sizes: [i64; D],
        t: i64,
        x: [i64; D],
    ) -> T {
        match self {
            Boundary::Periodic => {
                let mut w = x;
                for d in 0..D {
                    w[d] = wrap(w[d], sizes[d]);
                }
                read(t, w)
            }
            Boundary::Constant(v) => *v,
            Boundary::ConstantFn(f) => f(t, x),
            Boundary::Clamp => {
                let mut w = x;
                for d in 0..D {
                    w[d] = clamp(w[d], sizes[d]);
                }
                read(t, w)
            }
            Boundary::Mixed(rules) => {
                let mut w = x;
                for d in 0..D {
                    if w[d] < 0 || w[d] >= sizes[d] {
                        match &rules[d] {
                            AxisRule::Periodic => w[d] = wrap(w[d], sizes[d]),
                            AxisRule::Clamp => w[d] = clamp(w[d], sizes[d]),
                            AxisRule::Constant(v) => return *v,
                        }
                    }
                }
                read(t, w)
            }
            Boundary::Custom(f) => {
                let probe = BoundaryProbe::new(read, sizes);
                f(&probe, t, x)
            }
        }
    }

    /// How axis `d` alone treats an out-of-range coordinate, when that is a fixed rule:
    /// `None` for the function-valued variants, which see the whole coordinate.
    /// [`Boundary::resolve`] is equivalent to applying these rules in axis order.
    pub fn axis_rule(&self, d: usize) -> Option<AxisRule<T>> {
        match self {
            Boundary::Periodic => Some(AxisRule::Periodic),
            Boundary::Constant(v) => Some(AxisRule::Constant(*v)),
            Boundary::Clamp => Some(AxisRule::Clamp),
            Boundary::Mixed(rules) => Some(rules[d].clone()),
            Boundary::ConstantFn(_) | Boundary::Custom(_) => None,
        }
    }

    /// True if this boundary makes every axis periodic (used by engines to decide whether
    /// the whole problem is a torus).
    pub fn is_fully_periodic(&self) -> bool {
        match self {
            Boundary::Periodic => true,
            Boundary::Mixed(rules) => rules.iter().all(|r| matches!(r, AxisRule::Periodic)),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_read(t: i64, x: [i64; 2]) -> f64 {
        (t * 100 + x[0] * 10 + x[1]) as f64
    }

    #[test]
    fn wrap_handles_negative_values() {
        assert_eq!(wrap(-1, 10), 9);
        assert_eq!(wrap(10, 10), 0);
        assert_eq!(wrap(-11, 10), 9);
        assert_eq!(wrap(3, 10), 3);
    }

    #[test]
    fn clamp_limits_to_domain() {
        assert_eq!(clamp(-5, 10), 0);
        assert_eq!(clamp(12, 10), 9);
        assert_eq!(clamp(4, 10), 4);
    }

    #[test]
    fn periodic_wraps_both_axes() {
        let b: Boundary<f64, 2> = Boundary::Periodic;
        let v = b.resolve(&probe_read, [5, 5], 3, [-1, 6]);
        assert_eq!(v, probe_read(3, [4, 1]));
    }

    #[test]
    fn constant_returns_value() {
        let b: Boundary<f64, 2> = Boundary::Constant(7.5);
        assert_eq!(b.resolve(&probe_read, [5, 5], 0, [-1, 0]), 7.5);
    }

    #[test]
    fn constant_fn_sees_time() {
        // Figure 11(a): 100 + 0.2 t.
        let b: Boundary<f64, 2> = Boundary::constant_fn(|t, _| 100.0 + 0.2 * t as f64);
        assert_eq!(b.resolve(&probe_read, [5, 5], 10, [-1, 0]), 102.0);
    }

    #[test]
    fn clamp_mirrors_neumann_zero_derivative() {
        let b: Boundary<f64, 2> = Boundary::Clamp;
        // Figure 11(b): out-of-range coordinates snap to the edge.
        assert_eq!(
            b.resolve(&probe_read, [5, 5], 2, [-3, 7]),
            probe_read(2, [0, 4])
        );
    }

    #[test]
    fn mixed_cylinder_behaviour() {
        // Periodic in axis 0, clamped in axis 1: a cylinder.
        let b: Boundary<f64, 2> = Boundary::Mixed([AxisRule::Periodic, AxisRule::Clamp]);
        assert_eq!(
            b.resolve(&probe_read, [5, 5], 1, [-1, 9]),
            probe_read(1, [4, 4])
        );
    }

    #[test]
    fn mixed_constant_short_circuits() {
        let b: Boundary<f64, 2> = Boundary::Mixed([AxisRule::Constant(-1.0), AxisRule::Periodic]);
        assert_eq!(b.resolve(&probe_read, [5, 5], 1, [-1, 2]), -1.0);
        // In-range on axis 0, wrapped on axis 1.
        assert_eq!(
            b.resolve(&probe_read, [5, 5], 1, [2, -1]),
            probe_read(1, [2, 4])
        );
    }

    #[test]
    fn custom_boundary_can_probe_interior() {
        // Reproduce the paper's periodic boundary (Figure 6) as a custom function.
        let b: Boundary<f64, 2> = Boundary::custom(|probe, t, x| {
            let w = [wrap(x[0], probe.size(0)), wrap(x[1], probe.size(1))];
            probe.get(t, w)
        });
        assert_eq!(
            b.resolve(&probe_read, [5, 5], 4, [5, -1]),
            probe_read(4, [0, 4])
        );
    }

    #[test]
    #[should_panic(expected = "out-of-domain")]
    fn probe_rejects_out_of_domain_reads() {
        let read = |t: i64, x: [i64; 2]| probe_read(t, x);
        let probe = BoundaryProbe::new(&read, [5, 5]);
        let _ = probe.get(0, [5, 0]);
    }

    #[test]
    fn fully_periodic_detection() {
        assert!(Boundary::<f64, 2>::Periodic.is_fully_periodic());
        assert!(
            Boundary::<f64, 2>::Mixed([AxisRule::Periodic, AxisRule::Periodic]).is_fully_periodic()
        );
        assert!(!Boundary::<f64, 2>::Clamp.is_fully_periodic());
        assert!(
            !Boundary::<f64, 2>::Mixed([AxisRule::Periodic, AxisRule::Clamp]).is_fully_periodic()
        );
    }
}
