//! Space-time hypertrapezoids ("zoids") and their cuts (paper, Section 3).
//!
//! A `(d+1)`-dimensional zoid is the set of integer grid points `⟨t, x₀, …, x_{d−1}⟩`
//! with `t0 ≤ t < t1` and `x0ᵢ + dx0ᵢ·(t − t0) ≤ xᵢ < x1ᵢ + dx1ᵢ·(t − t0)`.
//! The trapezoidal-decomposition algorithms recursively split zoids with *space cuts*
//! (Figure 7a/7b) and *time cuts* (Figure 7c) until a small base case remains.
//!
//! The per-dimension trisection implemented here follows the Pochoir implementation: the
//! feasibility condition is on the *shorter* base of the projection trapezoid
//! (`min(Δx, ∇x) ≥ 2σΔt`), which keeps all three subzoids well-defined for every side
//! slope in `[-σ, +σ]`.  The paper's Figure 2 states the simplified condition on the
//! longer base, which is equivalent for the initial rectangle but unsound for converging
//! zoids; see DESIGN.md.

/// A `(D+1)`-dimensional space-time hypertrapezoid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Zoid<const D: usize> {
    /// First time step (inclusive).
    pub t0: i64,
    /// Last time step (exclusive).
    pub t1: i64,
    /// Lower spatial bounds at time `t0`.
    pub x0: [i64; D],
    /// Per-step change of the lower bounds ("inverse slope" of the left sides).
    pub dx0: [i64; D],
    /// Upper spatial bounds (exclusive) at time `t0`.
    pub x1: [i64; D],
    /// Per-step change of the upper bounds.
    pub dx1: [i64; D],
}

/// The three pieces of a parallel space cut along one dimension, plus the orientation.
#[derive(Clone, Copy, Debug)]
pub struct SpaceCut<const D: usize> {
    /// The two independent "black" subzoids (Figure 7).
    pub black: [Zoid<D>; 2],
    /// The middle "gray" subzoid.
    pub gray: Zoid<D>,
    /// `true` if the projection trapezoid was upright (blacks processed before the gray),
    /// `false` if inverted (gray processed first).
    pub upright: bool,
}

impl<const D: usize> Zoid<D> {
    /// The full space-time box covering a grid of extents `sizes` over time `[t0, t1)`.
    pub fn full_grid(sizes: [i64; D], t0: i64, t1: i64) -> Self {
        Zoid {
            t0,
            t1,
            x0: [0; D],
            dx0: [0; D],
            x1: sizes,
            dx1: [0; D],
        }
    }

    /// Height `Δt` of the zoid.
    #[inline]
    pub fn height(&self) -> i64 {
        self.t1 - self.t0
    }

    /// Length of the bottom base (`Δx`) along dimension `i`.
    #[inline]
    pub fn bottom_width(&self, i: usize) -> i64 {
        self.x1[i] - self.x0[i]
    }

    /// Length of the top base (`∇x`) along dimension `i`.
    #[inline]
    pub fn top_width(&self, i: usize) -> i64 {
        let h = self.height();
        (self.x1[i] + self.dx1[i] * h) - (self.x0[i] + self.dx0[i] * h)
    }

    /// The paper's width `wᵢ`: the longer of the two bases.
    #[inline]
    pub fn width(&self, i: usize) -> i64 {
        self.bottom_width(i).max(self.top_width(i))
    }

    /// Whether the projection trapezoid along dimension `i` is upright
    /// (longer — or equal — base at the bottom).
    #[inline]
    pub fn is_upright(&self, i: usize) -> bool {
        self.bottom_width(i) >= self.top_width(i)
    }

    /// Whether the projection trapezoid along `i` is *minimal*: an upright trapezoid with
    /// an empty top base or an inverted one with an empty bottom base.
    pub fn is_minimal(&self, i: usize) -> bool {
        if self.is_upright(i) {
            self.top_width(i) == 0
        } else {
            self.bottom_width(i) == 0
        }
    }

    /// A zoid is well-defined if its height is positive, its widths are positive, and
    /// both bases are nonnegative along every dimension (paper, Section 3).
    pub fn well_defined(&self) -> bool {
        if self.height() <= 0 {
            return false;
        }
        (0..D).all(|i| self.bottom_width(i) >= 0 && self.top_width(i) >= 0 && self.width(i) > 0)
    }

    /// Lower spatial bound along dimension `i` at absolute time `t`.
    #[inline]
    pub fn lower_at(&self, i: usize, t: i64) -> i64 {
        self.x0[i] + self.dx0[i] * (t - self.t0)
    }

    /// Upper (exclusive) spatial bound along dimension `i` at absolute time `t`.
    #[inline]
    pub fn upper_at(&self, i: usize, t: i64) -> i64 {
        self.x1[i] + self.dx1[i] * (t - self.t0)
    }

    /// Number of space-time grid points contained in the zoid.
    pub fn volume(&self) -> u128 {
        let mut total: u128 = 0;
        for t in self.t0..self.t1 {
            let mut row: u128 = 1;
            for i in 0..D {
                let w = self.upper_at(i, t) - self.lower_at(i, t);
                if w <= 0 {
                    row = 0;
                    break;
                }
                row *= w as u128;
            }
            total += row;
        }
        total
    }

    /// Whether the space-time point `(t, x)` lies inside the zoid.
    pub fn contains(&self, t: i64, x: [i64; D]) -> bool {
        if t < self.t0 || t >= self.t1 {
            return false;
        }
        (0..D).all(|i| x[i] >= self.lower_at(i, t) && x[i] < self.upper_at(i, t))
    }

    /// Smallest spatial coordinate reached along dimension `i` over the zoid's lifetime.
    pub fn min_lower(&self, i: usize) -> i64 {
        self.lower_at(i, self.t0).min(self.lower_at(i, self.t1 - 1))
    }

    /// Largest (exclusive) spatial coordinate reached along dimension `i`.
    pub fn max_upper(&self, i: usize) -> i64 {
        self.upper_at(i, self.t0).max(self.upper_at(i, self.t1 - 1))
    }

    /// Whether every kernel invocation inside this zoid stays at least `reach` away from
    /// the domain boundary `[0, sizes)` — i.e. whether the fast *interior clone* may be
    /// used for its base case (paper, Section 4, "code cloning").
    pub fn is_interior(&self, sizes: [i64; D], reach: [i64; D]) -> bool {
        (0..D)
            .all(|i| self.min_lower(i) - reach[i] >= 0 && self.max_upper(i) + reach[i] <= sizes[i])
    }

    /// Whether a parallel space cut may be applied along dimension `i` for a stencil of
    /// slope `slope` (Figure 7): the *shorter* base must be at least `2·slope·Δt` long.
    pub fn can_space_cut(&self, i: usize, slope: i64) -> bool {
        let h = self.height();
        if h < 1 {
            return false;
        }
        let lb = self.bottom_width(i);
        let tb = self.top_width(i);
        if lb >= tb {
            tb >= 2 * slope * h
        } else {
            lb >= 2 * slope * h
        }
    }

    /// Performs the parallel space cut (trisection) of Figure 7 along dimension `i`.
    ///
    /// Callers must have checked [`Zoid::can_space_cut`].  The returned subzoids satisfy:
    /// they are well-defined, they partition the parent, and the two black zoids are
    /// mutually independent (Lemma 1).
    pub fn space_cut(&self, i: usize, slope: i64) -> SpaceCut<D> {
        debug_assert!(self.can_space_cut(i, slope));
        let h = self.height();
        let lb = self.bottom_width(i);
        let tb = self.top_width(i);
        let upright = lb >= tb;

        let mut black_left = *self;
        let mut black_right = *self;
        let mut gray = *self;

        if upright {
            // Split the (shorter) top base at its midpoint m; the gray subzoid is an
            // inverted triangle growing from m, processed after the blacks (Fig. 7a).
            let top_left = self.x0[i] + self.dx0[i] * h;
            let m = top_left + tb / 2;

            black_left.x1[i] = m; // bottom-right such that the right edge hits m at the top
            black_left.dx1[i] = -slope;

            black_right.x0[i] = m;
            black_right.dx0[i] = slope;

            gray.x0[i] = m;
            gray.dx0[i] = -slope;
            gray.x1[i] = m;
            gray.dx1[i] = slope;
        } else {
            // Split the (shorter) bottom base at its midpoint; the gray subzoid is an
            // upright triangle processed before the blacks (Fig. 7b).
            let m = self.x0[i] + lb / 2;

            gray.x0[i] = m - slope * h;
            gray.dx0[i] = slope;
            gray.x1[i] = m + slope * h;
            gray.dx1[i] = -slope;

            black_left.x1[i] = m - slope * h;
            black_left.dx1[i] = slope;

            black_right.x0[i] = m + slope * h;
            black_right.dx0[i] = -slope;
        }

        SpaceCut {
            black: [black_left, black_right],
            gray,
            upright,
        }
    }

    /// Whether this zoid covers the full circumference of a torus of size `n` along
    /// dimension `i` with vertical walls — the only situation in which wraparound
    /// dependencies exist *inside* the zoid and a [`Zoid::torus_cut`] is required before
    /// ordinary space cuts become legal.
    pub fn spans_full_torus(&self, i: usize, n: i64) -> bool {
        self.x0[i] == 0 && self.x1[i] == n && self.dx0[i] == 0 && self.dx1[i] == 0
    }

    /// Whether the two-piece torus cut of dimension `i` is applicable: the circumference
    /// must accommodate the shrinking core (`n ≥ 2·slope·Δt`).
    pub fn can_torus_cut(&self, i: usize, slope: i64, n: i64) -> bool {
        self.spans_full_torus(i, n) && self.height() >= 1 && n >= 2 * slope * self.height()
    }

    /// The unified periodic/nonperiodic top-level cut of Section 4: a full-width
    /// dimension of a torus is split into a *core* zoid (upright, shrinking inward, no
    /// wrap dependencies) processed first and a *wrapped* zoid described in virtual
    /// coordinates `[n − σ·s, n + σ·s)` processed second.  The boundary clone's base case
    /// folds the virtual coordinates back into the true domain.
    pub fn torus_cut(&self, i: usize, slope: i64, n: i64) -> (Zoid<D>, Zoid<D>) {
        debug_assert!(self.can_torus_cut(i, slope, n));
        let mut core = *self;
        core.x0[i] = 0;
        core.dx0[i] = slope;
        core.x1[i] = n;
        core.dx1[i] = -slope;
        let mut wrapped = *self;
        wrapped.x0[i] = n;
        wrapped.dx0[i] = -slope;
        wrapped.x1[i] = n;
        wrapped.dx1[i] = slope;
        (core, wrapped)
    }

    /// The same zoid translated by `dt` time steps: identical geometry, shifted origin.
    ///
    /// The trapezoidal decomposition depends only on heights and widths, never on
    /// absolute time, so a schedule compiled for `[0, h)` can be replayed over any
    /// window `[t, t + h)` by shifting its leaves.
    #[inline]
    pub fn shifted(mut self, dt: i64) -> Self {
        self.t0 += dt;
        self.t1 += dt;
        self
    }

    /// Attempts to extend this zoid by `other` along dimension `dim`, in place.
    ///
    /// Succeeds when the two zoids share the same time extent, identical bounds in every
    /// other dimension, and `self`'s upper edge coincides with `other`'s lower edge at
    /// all times (`x1[dim] == other.x0[dim]` and `dx1[dim] == other.dx0[dim]`) — the
    /// union is then itself a zoid covering exactly the two originals' points.  Callers
    /// (the schedule compiler's leaf coalescing) must already have proven the two zoids
    /// independent; geometry alone does not establish that.
    pub fn try_merge(&mut self, other: &Zoid<D>, dim: usize) -> bool {
        if self.t0 != other.t0 || self.t1 != other.t1 {
            return false;
        }
        for i in 0..D {
            if i != dim
                && (self.x0[i] != other.x0[i]
                    || self.dx0[i] != other.dx0[i]
                    || self.x1[i] != other.x1[i]
                    || self.dx1[i] != other.dx1[i])
            {
                return false;
            }
        }
        if self.x1[dim] != other.x0[dim] || self.dx1[dim] != other.dx0[dim] {
            return false;
        }
        self.x1[dim] = other.x1[dim];
        self.dx1[dim] = other.dx1[dim];
        true
    }

    /// Splits the zoid at the midpoint of its time extent (Figure 7c).  The lower zoid
    /// must be processed before the upper one.
    pub fn time_cut(&self) -> (Zoid<D>, Zoid<D>) {
        let h = self.height();
        debug_assert!(h >= 2, "time cut requires height >= 2");
        let half = h / 2;
        let tm = self.t0 + half;
        let lower = Zoid {
            t0: self.t0,
            t1: tm,
            x0: self.x0,
            dx0: self.dx0,
            x1: self.x1,
            dx1: self.dx1,
        };
        let mut upper_x0 = self.x0;
        let mut upper_x1 = self.x1;
        for i in 0..D {
            upper_x0[i] += self.dx0[i] * half;
            upper_x1[i] += self.dx1[i] * half;
        }
        let upper = Zoid {
            t0: tm,
            t1: self.t1,
            x0: upper_x0,
            dx0: self.dx0,
            x1: upper_x1,
            dx1: self.dx1,
        };
        (lower, upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect2(n: i64, h: i64) -> Zoid<2> {
        Zoid::full_grid([n, n], 0, h)
    }

    #[test]
    fn full_grid_geometry() {
        let z = rect2(10, 4);
        assert_eq!(z.height(), 4);
        assert_eq!(z.bottom_width(0), 10);
        assert_eq!(z.top_width(0), 10);
        assert!(z.is_upright(0));
        assert!(z.well_defined());
        assert_eq!(z.volume(), (10 * 10 * 4) as u128);
    }

    #[test]
    fn contains_respects_slopes() {
        let z = Zoid::<1> {
            t0: 0,
            t1: 3,
            x0: [0],
            dx0: [1],
            x1: [10],
            dx1: [-1],
        };
        assert!(z.contains(0, [0]));
        assert!(!z.contains(1, [0]));
        assert!(z.contains(1, [1]));
        assert!(z.contains(2, [7]));
        assert!(!z.contains(2, [8]));
        assert!(!z.contains(3, [5]));
    }

    #[test]
    fn volume_of_sloped_zoid() {
        // Rows: width 10, 8, 6.
        let z = Zoid::<1> {
            t0: 0,
            t1: 3,
            x0: [0],
            dx0: [1],
            x1: [10],
            dx1: [-1],
        };
        assert_eq!(z.volume(), 24);
    }

    #[test]
    fn minimal_zoids() {
        // Upright triangle: top width 0.
        let up = Zoid::<1> {
            t0: 0,
            t1: 2,
            x0: [0],
            dx0: [1],
            x1: [4],
            dx1: [-1],
        };
        assert!(up.is_upright(0));
        assert!(up.is_minimal(0));
        // Inverted triangle: bottom width 0.
        let inv = Zoid::<1> {
            t0: 0,
            t1: 2,
            x0: [4],
            dx0: [-1],
            x1: [4],
            dx1: [1],
        };
        assert!(!inv.is_upright(0));
        assert!(inv.is_minimal(0));
        // A rectangle is not minimal.
        assert!(!Zoid::<1>::full_grid([4], 0, 2).is_minimal(0));
    }

    #[test]
    fn interior_test_uses_reach() {
        let z = Zoid::<2> {
            t0: 0,
            t1: 2,
            x0: [2, 2],
            dx0: [0, 0],
            x1: [6, 6],
            dx1: [0, 0],
        };
        assert!(z.is_interior([8, 8], [1, 1]));
        assert!(z.is_interior([8, 8], [2, 2]));
        assert!(!z.is_interior([8, 8], [3, 3]));
        assert!(!z.is_interior([7, 8], [2, 2]));
        // A zoid touching the origin is never interior for reach >= 1.
        let edge = Zoid::<2>::full_grid([8, 8], 0, 2);
        assert!(!edge.is_interior([8, 8], [1, 1]));
    }

    #[test]
    fn can_space_cut_threshold() {
        let z = rect2(10, 4);
        // shorter base = 10, needs >= 2*1*4 = 8: yes for slope 1, no for slope 2.
        assert!(z.can_space_cut(0, 1));
        assert!(!z.can_space_cut(0, 2));
        let small = rect2(7, 4);
        assert!(!small.can_space_cut(0, 1));
    }

    fn check_partition_1d(parent: &Zoid<1>, cut: &SpaceCut<1>) {
        // Every point of the parent belongs to exactly one subzoid.
        for t in parent.t0..parent.t1 {
            for x in parent.lower_at(0, t)..parent.upper_at(0, t) {
                let mut owners = 0;
                for z in [&cut.black[0], &cut.black[1], &cut.gray] {
                    if z.contains(t, [x]) {
                        owners += 1;
                    }
                }
                assert_eq!(owners, 1, "point (t={t}, x={x}) owned by {owners} subzoids");
            }
        }
        // And subzoids never leave the parent.
        for z in [&cut.black[0], &cut.black[1], &cut.gray] {
            for t in z.t0..z.t1 {
                for x in z.lower_at(0, t)..z.upper_at(0, t) {
                    assert!(parent.contains(t, [x]));
                }
            }
        }
    }

    #[test]
    fn space_cut_upright_rectangle() {
        let z = Zoid::<1>::full_grid([16], 0, 4);
        let cut = z.space_cut(0, 1);
        assert!(cut.upright);
        assert!(cut.black[0].well_defined());
        assert!(cut.black[1].well_defined());
        assert!(cut.gray.well_defined());
        check_partition_1d(&z, &cut);
        let total: u128 = cut.black[0].volume() + cut.black[1].volume() + cut.gray.volume();
        assert_eq!(total, z.volume());
    }

    #[test]
    fn space_cut_inverted_trapezoid() {
        // Expanding zoid: bottom 8, top 16 with slope 2... use slope 1, height 4: top 16.
        let z = Zoid::<1> {
            t0: 0,
            t1: 4,
            x0: [4],
            dx0: [-1],
            x1: [12],
            dx1: [1],
        };
        assert!(!z.is_upright(0));
        assert!(z.can_space_cut(0, 1));
        let cut = z.space_cut(0, 1);
        assert!(!cut.upright);
        assert!(cut.black[0].well_defined());
        assert!(cut.black[1].well_defined());
        assert!(cut.gray.well_defined());
        check_partition_1d(&z, &cut);
    }

    #[test]
    fn space_cut_upright_geometry() {
        // Converging zoid (both edges move inward): upright; cut on the shorter top base.
        let z = Zoid::<1> {
            t0: 0,
            t1: 2,
            x0: [0],
            dx0: [1],
            x1: [12],
            dx1: [-1],
        };
        assert!(z.is_upright(0));
        assert_eq!(z.top_width(0), 8);
        assert!(z.can_space_cut(0, 1));
        let cut = z.space_cut(0, 1);
        assert!(cut.black[0].well_defined(), "black L: {:?}", cut.black[0]);
        assert!(cut.black[1].well_defined(), "black R: {:?}", cut.black[1]);
        assert!(cut.gray.well_defined(), "gray: {:?}", cut.gray);
        check_partition_1d(&z, &cut);
    }

    #[test]
    fn space_cut_blacks_are_independent() {
        // A point of one black subzoid at time t reads points at time t-1 within the
        // stencil slope; those reads must never land inside the *other* black subzoid
        // (otherwise processing them in parallel would race).  Check both cuts.
        let slope = 1;
        let cases = [
            Zoid::<1>::full_grid([16], 0, 4), // upright
            Zoid::<1> {
                t0: 0,
                t1: 4,
                x0: [6],
                dx0: [-1],
                x1: [14],
                dx1: [1],
            }, // inverted
        ];
        for z in cases {
            let cut = z.space_cut(0, slope);
            let (a, b) = (cut.black[0], cut.black[1]);
            for t in (z.t0 + 1)..z.t1 {
                // Reads of `a`'s row at time t reach this interval at time t-1:
                let a_read_lo = a.lower_at(0, t) - slope;
                let a_read_hi = a.upper_at(0, t) - 1 + slope;
                let b_lo = b.lower_at(0, t - 1);
                let b_hi = b.upper_at(0, t - 1) - 1;
                let a_row_nonempty = a.upper_at(0, t) > a.lower_at(0, t);
                let b_row_nonempty = b_hi >= b_lo;
                if a_row_nonempty && b_row_nonempty {
                    assert!(
                        a_read_hi < b_lo || a_read_lo > b_hi,
                        "black subzoid A at t={t} reads into black subzoid B"
                    );
                }
                // And symmetrically for b reading into a.
                let b_read_lo = b.lower_at(0, t) - slope;
                let b_read_hi = b.upper_at(0, t) - 1 + slope;
                let a_lo = a.lower_at(0, t - 1);
                let a_hi = a.upper_at(0, t - 1) - 1;
                let b_row_nonempty_t = b.upper_at(0, t) > b.lower_at(0, t);
                if b_row_nonempty_t && a_hi >= a_lo {
                    assert!(
                        b_read_hi < a_lo || b_read_lo > a_hi,
                        "black subzoid B at t={t} reads into black subzoid A"
                    );
                }
            }
        }
    }

    #[test]
    fn time_cut_splits_and_shifts() {
        let z = Zoid::<1> {
            t0: 0,
            t1: 4,
            x0: [0],
            dx0: [1],
            x1: [16],
            dx1: [-1],
        };
        let (lo, hi) = z.time_cut();
        assert_eq!(lo.t0, 0);
        assert_eq!(lo.t1, 2);
        assert_eq!(hi.t0, 2);
        assert_eq!(hi.t1, 4);
        assert_eq!(hi.x0, [2]);
        assert_eq!(hi.x1, [14]);
        assert_eq!(lo.volume() + hi.volume(), z.volume());
        assert!(lo.well_defined() && hi.well_defined());
    }

    #[test]
    fn time_cut_odd_height() {
        let z = Zoid::<2>::full_grid([8, 8], 0, 5);
        let (lo, hi) = z.time_cut();
        assert_eq!(lo.height(), 2);
        assert_eq!(hi.height(), 3);
        assert_eq!(lo.volume() + hi.volume(), z.volume());
    }

    #[test]
    fn shifted_translates_time_only() {
        let z = Zoid::<1> {
            t0: 0,
            t1: 3,
            x0: [2],
            dx0: [1],
            x1: [9],
            dx1: [-1],
        };
        let s = z.shifted(10);
        assert_eq!((s.t0, s.t1), (10, 13));
        assert_eq!(s.volume(), z.volume());
        assert_eq!(s.lower_at(0, 11), z.lower_at(0, 1));
        assert_eq!(s.upper_at(0, 12), z.upper_at(0, 2));
    }

    #[test]
    fn try_merge_joins_edge_aligned_zoids() {
        let mut a = Zoid::<2> {
            t0: 0,
            t1: 2,
            x0: [0, 0],
            dx0: [1, 0],
            x1: [4, 8],
            dx1: [-1, 0],
        };
        let b = Zoid::<2> {
            t0: 0,
            t1: 2,
            x0: [4, 0],
            dx0: [-1, 0],
            x1: [9, 8],
            dx1: [1, 0],
        };
        let va = a.volume();
        let vb = b.volume();
        assert!(a.try_merge(&b, 0));
        assert_eq!(a.x1[0], 9);
        assert_eq!(a.dx1[0], 1);
        assert_eq!(a.volume(), va + vb);
    }

    #[test]
    fn try_merge_rejects_mismatches() {
        let base = Zoid::<2>::full_grid([8, 8], 0, 2);
        // Different time extent.
        let mut a = base;
        let mut b = base;
        b.t1 = 3;
        assert!(!a.try_merge(&b, 0));
        // Gap along the merge dimension.
        let mut c = base;
        c.x0[0] = 9;
        c.x1[0] = 12;
        assert!(!a.try_merge(&c, 0));
        // Mismatched off-dimension bounds.
        let mut d = base;
        d.x0[0] = 8;
        d.x1[0] = 12;
        d.x1[1] = 6;
        assert!(!a.try_merge(&d, 0));
        // Edge slopes that do not line up.
        let mut e = base;
        e.x0[0] = 8;
        e.x1[0] = 12;
        e.dx0[0] = 1;
        let mut f = base;
        assert!(!f.try_merge(&e, 0));
        assert_eq!(a, base, "failed merges must leave the zoid untouched");
    }

    #[test]
    fn ill_defined_zoids_are_detected() {
        let z = Zoid::<1> {
            t0: 0,
            t1: 0,
            x0: [0],
            dx0: [0],
            x1: [4],
            dx1: [0],
        };
        assert!(!z.well_defined()); // zero height
        let neg = Zoid::<1> {
            t0: 0,
            t1: 2,
            x0: [4],
            dx0: [0],
            x1: [2],
            dx1: [0],
        };
        assert!(!neg.well_defined()); // negative base
    }
}
