//! Hyperspace cuts (paper, Section 3, Lemma 1).
//!
//! Where Frigo and Strumpen's parallel algorithm (our STRAP) cuts one spatial dimension
//! at a time, TRAP applies parallel space cuts to *as many dimensions as possible
//! simultaneously*.  Cutting `k` dimensions produces `3^k` subzoids; each is addressed by
//! a k-tuple `⟨u₀,…,u_{k−1}⟩` with `uᵢ ∈ {1,2,3}` (1 and 3 are the black pieces, 2 the
//! gray piece of that dimension's trisection), and its dependency level is
//!
//! ```text
//! dep(⟨u₀,…,u_{k−1}⟩) = Σᵢ (uᵢ + Iᵢ) mod 2 ,
//! ```
//!
//! where `Iᵢ = 1` if the projection trapezoid along dimension `i` is upright and `0`
//! otherwise.  All subzoids with equal dependency level are mutually independent
//! (Lemma 1), so the `3^k` subzoids are processed in only `k + 1` parallel steps.

use crate::zoid::{SpaceCut, Zoid};

/// The result of a hyperspace cut: subzoids grouped by dependency level.
#[derive(Clone, Debug)]
pub struct HyperspaceCut<const D: usize> {
    /// `levels[l]` holds the subzoids at dependency level `l`; levels are processed in
    /// order and the zoids within one level in parallel.
    pub levels: Vec<Vec<Zoid<D>>>,
    /// The dimensions that were trisected.
    pub cut_dims: Vec<usize>,
}

impl<const D: usize> HyperspaceCut<D> {
    /// Number of dimensions that were cut (the `k` of Lemma 1).
    pub fn num_cut_dims(&self) -> usize {
        self.cut_dims.len()
    }

    /// Total number of subzoids (`3^k`).
    pub fn num_subzoids(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Flattened view of all subzoids (level order).
    pub fn all_subzoids(&self) -> impl Iterator<Item = &Zoid<D>> {
        self.levels.iter().flatten()
    }
}

/// Parameters controlling space cuts: stencil slopes, coarsening thresholds, and which
/// dimensions are treated as a torus (the unified periodic/nonperiodic scheme of
/// Section 4 treats *every* dimension as a torus; nonperiodic behaviour is recovered in
/// the boundary clone's base case).
#[derive(Clone, Copy, Debug)]
pub struct CutParams<const D: usize> {
    /// Per-dimension stencil slopes σᵢ (clamped to at least 1).
    pub slopes: [i64; D],
    /// Coarsening thresholds: a dimension whose width is at or below this is not cut.
    pub min_width: [i64; D],
    /// `Some(Nᵢ)` marks dimension `i` as a torus of circumference `Nᵢ`: a zoid spanning
    /// the full circumference must receive a [`Zoid::torus_cut`] (core + wrapped piece)
    /// before ordinary trisection becomes legal, because wraparound dependencies exist
    /// inside it.
    pub torus: [Option<i64>; D],
}

impl<const D: usize> CutParams<D> {
    /// Parameters for a plain (non-torus) decomposition.
    pub fn open(slopes: [i64; D], min_width: [i64; D]) -> Self {
        CutParams {
            slopes,
            min_width,
            torus: [None; D],
        }
    }

    /// Parameters for the unified scheme: every dimension treated as a torus of the given
    /// extent (this is what the production engines use).
    pub fn unified(slopes: [i64; D], min_width: [i64; D], sizes: [i64; D]) -> Self {
        let mut torus = [None; D];
        for i in 0..D {
            torus[i] = Some(sizes[i]);
        }
        CutParams {
            slopes,
            min_width,
            torus,
        }
    }
}

/// The pieces a single dimension contributes to a hyperspace cut, together with each
/// piece's dependency-level contribution.
struct DimPieces<const D: usize> {
    dim: usize,
    /// `(piece, level_contribution)`; contributions are 0 or 1.
    pieces: Vec<(Zoid<D>, usize)>,
}

/// Computes the pieces dimension `i` contributes, or `None` if that dimension cannot be
/// cut under `params`.
fn dim_pieces<const D: usize>(
    zoid: &Zoid<D>,
    i: usize,
    params: &CutParams<D>,
) -> Option<DimPieces<D>> {
    if zoid.width(i) <= params.min_width[i] {
        return None;
    }
    let slope = params.slopes[i];
    if let Some(n) = params.torus[i] {
        if zoid.spans_full_torus(i, n) {
            // Wraparound dependencies live inside this zoid: only the torus cut is legal.
            if !zoid.can_torus_cut(i, slope, n) {
                return None;
            }
            let (core, wrapped) = zoid.torus_cut(i, slope, n);
            return Some(DimPieces {
                dim: i,
                pieces: vec![(core, 0), (wrapped, 1)],
            });
        }
    }
    if !zoid.can_space_cut(i, slope) {
        return None;
    }
    let cut: SpaceCut<D> = zoid.space_cut(i, slope);
    let i_upright = usize::from(cut.upright);
    // Piece codes u ∈ {1,2,3}; contribution (u + I) mod 2 per Lemma 1.
    let pieces = vec![
        (cut.black[0], (1 + i_upright) % 2),
        (cut.gray, (2 + i_upright) % 2),
        (cut.black[1], (3 + i_upright) % 2),
    ];
    Some(DimPieces { dim: i, pieces })
}

fn compose<const D: usize>(zoid: &Zoid<D>, cuts: &[DimPieces<D>]) -> HyperspaceCut<D> {
    let k = cuts.len();
    let mut levels: Vec<Vec<Zoid<D>>> = vec![Vec::new(); k + 1];
    // Enumerate the Cartesian product of the per-dimension piece choices.
    let total: usize = cuts.iter().map(|c| c.pieces.len()).product();
    for code in 0..total {
        let mut rem = code;
        let mut sub = *zoid;
        let mut level = 0usize;
        for dc in cuts {
            let idx = rem % dc.pieces.len();
            rem /= dc.pieces.len();
            let (piece, contribution) = &dc.pieces[idx];
            sub.x0[dc.dim] = piece.x0[dc.dim];
            sub.dx0[dc.dim] = piece.dx0[dc.dim];
            sub.x1[dc.dim] = piece.x1[dc.dim];
            sub.dx1[dc.dim] = piece.dx1[dc.dim];
            level += contribution;
        }
        if sub.volume() > 0 {
            levels[level].push(sub);
        }
    }
    HyperspaceCut {
        levels,
        cut_dims: cuts.iter().map(|c| c.dim).collect(),
    }
}

/// Applies a hyperspace cut to `zoid` under `params`, cutting every cuttable dimension
/// simultaneously.  Returns `None` if no dimension can be cut (the caller should then try
/// a time cut or run the base case).
pub fn hyperspace_cut_params<const D: usize>(
    zoid: &Zoid<D>,
    params: &CutParams<D>,
) -> Option<HyperspaceCut<D>> {
    let cuts: Vec<DimPieces<D>> = (0..D).filter_map(|i| dim_pieces(zoid, i, params)).collect();
    if cuts.is_empty() {
        return None;
    }
    Some(compose(zoid, &cuts))
}

/// Applies a single-dimension space cut (the STRAP / Frigo–Strumpen strategy) to the
/// first cuttable dimension under `params`.
pub fn single_space_cut_params<const D: usize>(
    zoid: &Zoid<D>,
    params: &CutParams<D>,
) -> Option<HyperspaceCut<D>> {
    let first = (0..D).find_map(|i| dim_pieces(zoid, i, params))?;
    Some(compose(zoid, &[first]))
}

/// Applies a hyperspace cut to `zoid`, trisecting every cuttable dimension simultaneously
/// (non-torus decomposition).
///
/// Returns `None` if no dimension can be cut.  Otherwise the `3^k` subzoids are returned
/// grouped into `k + 1` dependency levels per Lemma 1.
pub fn hyperspace_cut<const D: usize>(
    zoid: &Zoid<D>,
    slopes: [i64; D],
    min_width: [i64; D],
) -> Option<HyperspaceCut<D>> {
    hyperspace_cut_params(zoid, &CutParams::open(slopes, min_width))
}

/// Serial-space-cut decomposition step used by STRAP (the Frigo–Strumpen comparator of
/// Theorems 4 and 5): trisect only the *first* cuttable dimension (non-torus
/// decomposition).
pub fn single_space_cut<const D: usize>(
    zoid: &Zoid<D>,
    slopes: [i64; D],
    min_width: [i64; D],
) -> Option<HyperspaceCut<D>> {
    single_space_cut_params(zoid, &CutParams::open(slopes, min_width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hyperspace_cut_2d_rectangle_produces_nine_subzoids() {
        let z = Zoid::<2>::full_grid([32, 32], 0, 4);
        let cut = hyperspace_cut(&z, [1, 1], [1, 1]).unwrap();
        assert_eq!(cut.num_cut_dims(), 2);
        // Both dimensions upright; no subzoid is empty for a 32x32x4 rectangle.
        assert_eq!(cut.num_subzoids(), 9);
        assert_eq!(cut.levels.len(), 3);
        // Level populations for k=2: C(2,0)*1*... pattern 4 / 4 / 1 (blacks^2, mixed, gray^2).
        assert_eq!(cut.levels[0].len(), 4);
        assert_eq!(cut.levels[1].len(), 4);
        assert_eq!(cut.levels[2].len(), 1);
    }

    #[test]
    fn hyperspace_cut_preserves_volume() {
        let z = Zoid::<2>::full_grid([20, 28], 0, 5);
        let cut = hyperspace_cut(&z, [1, 1], [1, 1]).unwrap();
        let total: u128 = cut.all_subzoids().map(|s| s.volume()).sum();
        assert_eq!(total, z.volume());
    }

    #[test]
    fn hyperspace_cut_subzoids_are_well_defined() {
        let z = Zoid::<3>::full_grid([16, 24, 32], 0, 4);
        let cut = hyperspace_cut(&z, [1, 1, 1], [1, 1, 1]).unwrap();
        assert_eq!(cut.num_cut_dims(), 3);
        for sub in cut.all_subzoids() {
            assert!(sub.well_defined(), "ill-defined subzoid {sub:?}");
        }
    }

    #[test]
    fn hyperspace_cut_respects_partition_in_2d() {
        let z = Zoid::<2>::full_grid([12, 10], 0, 3);
        let cut = hyperspace_cut(&z, [1, 1], [1, 1]).unwrap();
        for t in 0..3 {
            for x in 0..12 {
                for y in 0..10 {
                    let owners = cut.all_subzoids().filter(|s| s.contains(t, [x, y])).count();
                    assert_eq!(owners, 1, "point (t={t}, {x}, {y}) owned by {owners}");
                }
            }
        }
    }

    #[test]
    fn dependency_levels_at_most_k_plus_one() {
        let z = Zoid::<4>::full_grid([16, 16, 16, 16], 0, 4);
        let cut = hyperspace_cut(&z, [1, 1, 1, 1], [1, 1, 1, 1]).unwrap();
        assert_eq!(cut.levels.len(), cut.num_cut_dims() + 1);
        assert!(cut.num_subzoids() <= 3usize.pow(cut.num_cut_dims() as u32));
    }

    #[test]
    fn no_cut_when_too_narrow() {
        let z = Zoid::<2>::full_grid([6, 6], 0, 4);
        assert!(hyperspace_cut(&z, [1, 1], [1, 1]).is_none());
    }

    #[test]
    fn coarsening_threshold_prevents_cutting() {
        let z = Zoid::<2>::full_grid([64, 64], 0, 4);
        // Width 64 is not > 100, so the dimension is left alone.
        assert!(hyperspace_cut(&z, [1, 1], [100, 100]).is_none());
        // Cutting only dimension 0 when dimension 1 is protected.
        let cut = hyperspace_cut(&z, [1, 1], [1, 100]).unwrap();
        assert_eq!(cut.cut_dims, vec![0]);
        assert_eq!(cut.levels.len(), 2);
    }

    #[test]
    fn partial_cut_when_one_dim_is_narrow() {
        let z = Zoid::<2>::full_grid([64, 6], 0, 4);
        let cut = hyperspace_cut(&z, [1, 1], [1, 1]).unwrap();
        assert_eq!(cut.cut_dims, vec![0]);
        assert_eq!(cut.num_subzoids(), 3);
        let total: u128 = cut.all_subzoids().map(|s| s.volume()).sum();
        assert_eq!(total, z.volume());
    }

    #[test]
    fn single_space_cut_cuts_first_dimension_only() {
        let z = Zoid::<2>::full_grid([32, 32], 0, 4);
        let cut = single_space_cut(&z, [1, 1], [1, 1]).unwrap();
        assert_eq!(cut.cut_dims, vec![0]);
        assert_eq!(cut.num_subzoids(), 3);
        assert_eq!(cut.levels.len(), 2);
        let total: u128 = cut.all_subzoids().map(|s| s.volume()).sum();
        assert_eq!(total, z.volume());
    }

    #[test]
    fn inverted_dimension_orders_gray_first() {
        // An inverted zoid in dimension 0 (expanding), upright in dimension 1.
        let z = Zoid::<2> {
            t0: 0,
            t1: 4,
            x0: [10, 0],
            dx0: [-1, 0],
            x1: [22, 32],
            dx1: [1, 0],
        };
        let cut = single_space_cut(&z, [1, 1], [1, 1]).unwrap();
        // Dimension 0 is inverted, so level 0 holds the gray piece (1 zoid) and level 1
        // the two blacks.
        assert_eq!(cut.levels[0].len(), 1);
        assert_eq!(cut.levels[1].len(), 2);
    }

    #[test]
    fn lemma1_level_populations_follow_binomial_pattern() {
        // For a k-dimensional hyperspace cut of an all-upright zoid, the number of
        // subzoids at level l is C(k, l) * 2^(k - l): choose which dimensions contribute
        // their gray piece (level parity 1) and pick one of the two blacks elsewhere.
        let z = Zoid::<3>::full_grid([64, 64, 64], 0, 4);
        let cut = hyperspace_cut(&z, [1, 1, 1], [1, 1, 1]).unwrap();
        let k = 3usize;
        let binom = |n: usize, r: usize| -> usize {
            let mut acc = 1usize;
            for i in 0..r {
                acc = acc * (n - i) / (i + 1);
            }
            acc
        };
        for l in 0..=k {
            assert_eq!(
                cut.levels[l].len(),
                binom(k, l) * (1 << (k - l)),
                "level {l} population"
            );
        }
    }
}
