//! Stencil shapes (`Pochoir_Shape` in the paper, Section 2).
//!
//! A *shape* is the set of space-time offsets the kernel may touch relative to the grid
//! point being updated.  From the shape Pochoir derives the quantities its algorithm
//! needs: the *depth* (how many earlier time steps a point depends on) and the per
//! dimension *slopes* σᵢ that bound how far information travels per time step, which in
//! turn drive the trapezoidal decomposition (Section 3).

use std::fmt;

/// One cell of a stencil shape: an offset in time (`dt`) and in each spatial dimension.
///
/// In the paper's Figure 6 the 2D heat shape is written
/// `{{1,0,0},{0,0,0},{0,1,0},{0,-1,0},{0,0,-1},{0,0,1}}`; each triple is a `ShapeCell`
/// with `dt` first and the spatial offsets after it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShapeCell<const D: usize> {
    /// Offset in the time dimension relative to the kernel's invocation time.
    pub dt: i32,
    /// Offsets in each spatial dimension.
    pub dx: [i32; D],
}

impl<const D: usize> ShapeCell<D> {
    /// Convenience constructor.
    pub const fn new(dt: i32, dx: [i32; D]) -> Self {
        ShapeCell { dt, dx }
    }
}

/// Errors produced when validating a shape declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShapeError {
    /// The cell list was empty.
    Empty,
    /// The home cell (the cell with the largest time offset) has a nonzero spatial offset.
    HomeNotCentered {
        /// The offending cell.
        cell_index: usize,
    },
    /// Two cells with the maximal time offset exist but neither is the spatial origin.
    AmbiguousHome,
    /// A non-home cell shares the home cell's time offset but Pochoir requires all reads
    /// to be strictly earlier than the written (home) cell.
    ReadAtHomeTime {
        /// The offending cell.
        cell_index: usize,
    },
    /// The shape has zero depth (no cell earlier than the home cell), so no time stepping
    /// is possible.
    ZeroDepth,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::Empty => write!(f, "stencil shape must contain at least one cell"),
            ShapeError::HomeNotCentered { cell_index } => write!(
                f,
                "home cell (cell {cell_index}) must have all spatial offsets equal to zero"
            ),
            ShapeError::AmbiguousHome => {
                write!(f, "multiple cells share the maximal time offset; the home cell is ambiguous")
            }
            ShapeError::ReadAtHomeTime { cell_index } => write!(
                f,
                "cell {cell_index} is at the home cell's time offset; reads must be strictly earlier in time"
            ),
            ShapeError::ZeroDepth => write!(f, "stencil shape has zero depth"),
        }
    }
}

impl std::error::Error for ShapeError {}

/// A validated stencil shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shape<const D: usize> {
    cells: Vec<ShapeCell<D>>,
    home_dt: i32,
    depth: i32,
    slopes: [i64; D],
    footprint: ReadFootprint<D>,
}

/// What a kernel invocation reads, slice by slice: the shape's read cells grouped by
/// time offset.  A small boundary leaf gathers exactly these cells around its box once
/// per step (a *padded copy*, see `engine::base`), so a star shape's corners are never
/// read and a boundary function is called once per halo cell the kernel reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadFootprint<const D: usize> {
    /// Time offset of the written (home) cell.
    home_dt: i64,
    /// Time offset of `slices[0]`; slice `k` is read at offset `newest − k`.
    newest: i64,
    slices: Vec<SliceReads<D>>,
    reach: [i64; D],
}

/// The cells a kernel reads from one time slice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SliceReads<const D: usize> {
    /// Smallest offset on each axis: how far a box is dilated below (0 if unread).
    pub min: [i64; D],
    /// Largest offset on each axis: how far a box is dilated above (0 if unread).
    pub max: [i64; D],
    /// The distinct spatial offsets read, ascending by their last coordinate; empty for
    /// a slice between the oldest and newest read that the shape skips.
    pub offsets: Vec<[i64; D]>,
}

impl<const D: usize> ReadFootprint<D> {
    fn new(cells: &[ShapeCell<D>], home_dt: i32) -> Self {
        let reads = || cells.iter().filter(|c| c.dt < home_dt);
        let newest = reads().map(|c| c.dt).max().unwrap_or(home_dt - 1);
        let oldest = reads().map(|c| c.dt).min().unwrap_or(newest);
        let slices = (oldest..=newest)
            .rev()
            .map(|dt| {
                let mut offsets: Vec<[i64; D]> = reads()
                    .filter(|c| c.dt == dt)
                    .map(|c| c.dx.map(i64::from))
                    .collect();
                offsets.sort_unstable_by_key(|o| (o[D - 1], *o));
                offsets.dedup();
                let bound = |pick: fn(i64, i64) -> i64, d: usize| {
                    offsets.iter().map(|o| o[d]).reduce(pick).unwrap_or(0)
                };
                SliceReads {
                    min: std::array::from_fn(|d| bound(i64::min, d)),
                    max: std::array::from_fn(|d| bound(i64::max, d)),
                    offsets,
                }
            })
            .collect::<Vec<SliceReads<D>>>();
        let reach = std::array::from_fn(|d| {
            let far = |s: &SliceReads<D>| s.max[d].max(-s.min[d]);
            slices.iter().map(far).max().unwrap_or(0)
        });
        ReadFootprint {
            home_dt: home_dt.into(),
            newest: newest.into(),
            slices,
            reach,
        }
    }

    /// Time offset of the written (home) cell relative to the kernel invocation time.
    pub fn home_dt(&self) -> i64 {
        self.home_dt
    }

    /// Time offset of [`slices`](Self::slices)`[0]`, the newest slice read; entry `k`
    /// is read at offset `newest − k`.
    pub fn newest(&self) -> i64 {
        self.newest
    }

    /// The read cells, newest slice first.
    pub fn slices(&self) -> &[SliceReads<D>] {
        &self.slices
    }

    /// Per-axis maximal spatial reach: `max |offset|` over every slice read.
    pub fn reach(&self) -> [i64; D] {
        self.reach
    }

    /// Bytes a padded copy of a box of extents `widths` occupies: the box dilated by
    /// each read slice's offsets, summed over those slices, times `elem_bytes`.
    pub fn padded_bytes(&self, widths: [i64; D], elem_bytes: usize) -> usize {
        let cells: usize = self
            .slices
            .iter()
            .filter(|s| !s.offsets.is_empty())
            .map(|s| {
                (0..D)
                    .map(|d| (widths[d] + s.max[d] - s.min[d]).max(0) as usize)
                    .product::<usize>()
            })
            .sum();
        cells * elem_bytes
    }
}

impl<const D: usize> Shape<D> {
    /// Builds and validates a shape from its cells.
    ///
    /// The *home cell* is the unique cell with the maximal time offset; its spatial
    /// offsets must all be zero (it is the point being written).  Every other cell must be
    /// strictly earlier in time (paper, Section 2).
    pub fn new(cells: Vec<ShapeCell<D>>) -> Result<Self, ShapeError> {
        if cells.is_empty() {
            return Err(ShapeError::Empty);
        }
        let home_dt = cells.iter().map(|c| c.dt).max().unwrap();
        let home_candidates: Vec<usize> = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.dt == home_dt)
            .map(|(i, _)| i)
            .collect();
        // Exactly one cell may sit at the home time, and it must be the spatial origin.
        if home_candidates.len() > 1 {
            // Identify which one is centered; the others are invalid reads at home time.
            let centered: Vec<usize> = home_candidates
                .iter()
                .copied()
                .filter(|&i| cells[i].dx.iter().all(|&d| d == 0))
                .collect();
            if centered.len() == 1 {
                let bad = home_candidates
                    .into_iter()
                    .find(|i| !centered.contains(i))
                    .unwrap();
                return Err(ShapeError::ReadAtHomeTime { cell_index: bad });
            }
            return Err(ShapeError::AmbiguousHome);
        }
        let home_index = home_candidates[0];
        if cells[home_index].dx.iter().any(|&d| d != 0) {
            return Err(ShapeError::HomeNotCentered {
                cell_index: home_index,
            });
        }
        let min_dt = cells.iter().map(|c| c.dt).min().unwrap();
        let depth = home_dt - min_dt;
        if depth == 0 {
            return Err(ShapeError::ZeroDepth);
        }
        let mut slopes = [0i64; D];
        for (i, cell) in cells.iter().enumerate() {
            if i == home_index {
                continue;
            }
            let dt_back = (home_dt - cell.dt) as i64;
            debug_assert!(dt_back >= 1);
            for (slope, dx) in slopes.iter_mut().zip(cell.dx) {
                let off = dx.unsigned_abs() as i64;
                // Slope σᵢ = max over cells of ⌈|xᵢ| / (t_home − t)⌉ (paper, Section 3).
                *slope = (*slope).max((off + dt_back - 1) / dt_back);
            }
        }
        let footprint = ReadFootprint::new(&cells, home_dt);
        Ok(Shape {
            cells,
            home_dt,
            depth,
            slopes,
            footprint,
        })
    }

    /// Builds a shape, panicking on validation failure (convenient for static shapes).
    pub fn must(cells: Vec<ShapeCell<D>>) -> Self {
        Self::new(cells).expect("invalid stencil shape")
    }

    /// The shape's cells, home cell included.
    pub fn cells(&self) -> &[ShapeCell<D>] {
        &self.cells
    }

    /// Time offset of the home (written) cell relative to the kernel invocation time.
    pub fn home_dt(&self) -> i32 {
        self.home_dt
    }

    /// The depth *k* of the shape: how many earlier time steps a point depends on.
    /// A Pochoir array participating in the computation needs `k + 1` time slices.
    pub fn depth(&self) -> i32 {
        self.depth
    }

    /// The per-dimension slopes σᵢ of the stencil (paper, Section 3).
    pub fn slopes(&self) -> [i64; D] {
        self.slopes
    }

    /// The slopes clamped below at 1, as used by the space-cut feasibility tests.
    /// (A dimension the stencil never reaches across can always be cut; clamping keeps
    /// the trisection geometry well-defined.)
    pub fn cut_slopes(&self) -> [i64; D] {
        let mut s = self.slopes;
        for v in &mut s {
            if *v < 1 {
                *v = 1;
            }
        }
        s
    }

    /// Maximum spatial reach per dimension: `max |dxᵢ|` over all cells.  Used to decide
    /// whether a zoid is an interior zoid (its kernel invocations never leave the domain).
    pub fn reach(&self) -> [i64; D] {
        self.footprint.reach()
    }

    /// The cells a kernel invocation reads, grouped by time slice.
    pub fn footprint(&self) -> &ReadFootprint<D> {
        &self.footprint
    }

    /// Number of time slices an array registered with this shape needs (`depth + 1`).
    pub fn time_slices(&self) -> usize {
        self.depth as usize + 1
    }

    /// The kernel-invocation time of the first step, such that every read hits an
    /// initialized slice when slices `0..depth` have been initialized.
    pub fn first_step(&self) -> i64 {
        (self.depth - self.home_dt) as i64
    }

    /// Returns `true` if the given access offset (relative to the kernel invocation
    /// point) is covered by the shape declaration.  Used by the Phase-1 compliance check.
    pub fn covers(&self, dt: i32, dx: [i32; D]) -> bool {
        self.cells.iter().any(|c| c.dt == dt && c.dx == dx)
    }

    /// Returns true if an access at offset (`dt`, `dx`) is the home cell (the only legal
    /// write target).
    pub fn is_home(&self, dt: i32, dx: [i32; D]) -> bool {
        dt == self.home_dt && dx.iter().all(|&d| d == 0)
    }
}

/// The shape of the `2r+1`-point symmetric star stencil in `D` dimensions with radius `r`
/// written in the Figure-6 convention (write at `t+1`, reads at `t`).
pub fn star_shape<const D: usize>(radius: i32) -> Shape<D> {
    let mut cells = vec![ShapeCell::new(1, [0; D]), ShapeCell::new(0, [0; D])];
    for d in 0..D {
        for r in 1..=radius {
            let mut plus = [0; D];
            plus[d] = r;
            let mut minus = [0; D];
            minus[d] = -r;
            cells.push(ShapeCell::new(0, plus));
            cells.push(ShapeCell::new(0, minus));
        }
    }
    Shape::must(cells)
}

/// The shape of a full (2r+1)^D-box stencil (e.g. Moore neighbourhood, 27-point in 3D)
/// in the Figure-6 convention.
pub fn box_shape<const D: usize>(radius: i32) -> Shape<D> {
    let mut cells = vec![ShapeCell::new(1, [0; D])];
    let side = (2 * radius + 1) as usize;
    let count = side.pow(D as u32);
    for linear in 0..count {
        let mut rem = linear;
        let mut dx = [0i32; D];
        for d in (0..D).rev() {
            dx[d] = (rem % side) as i32 - radius;
            rem /= side;
        }
        cells.push(ShapeCell::new(0, dx));
    }
    Shape::must(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heat2d_cells() -> Vec<ShapeCell<2>> {
        vec![
            ShapeCell::new(1, [0, 0]),
            ShapeCell::new(0, [0, 0]),
            ShapeCell::new(0, [1, 0]),
            ShapeCell::new(0, [-1, 0]),
            ShapeCell::new(0, [0, -1]),
            ShapeCell::new(0, [0, 1]),
        ]
    }

    #[test]
    fn heat2d_shape_properties() {
        let shape = Shape::new(heat2d_cells()).unwrap();
        assert_eq!(shape.depth(), 1);
        assert_eq!(shape.home_dt(), 1);
        assert_eq!(shape.slopes(), [1, 1]);
        assert_eq!(shape.reach(), [1, 1]);
        assert_eq!(shape.time_slices(), 2);
        assert_eq!(shape.first_step(), 0);
    }

    #[test]
    fn section2_convention_is_supported() {
        // Same stencil written with home at dt = 0 and reads at dt = -1 (paper Section 2).
        let shape = Shape::new(vec![
            ShapeCell::new(0, [0, 0]),
            ShapeCell::new(-1, [1, 0]),
            ShapeCell::new(-1, [0, 0]),
            ShapeCell::new(-1, [-1, 0]),
            ShapeCell::new(-1, [0, 1]),
            ShapeCell::new(-1, [0, -1]),
        ])
        .unwrap();
        assert_eq!(shape.depth(), 1);
        assert_eq!(shape.home_dt(), 0);
        assert_eq!(shape.slopes(), [1, 1]);
        assert_eq!(shape.first_step(), 1);
    }

    #[test]
    fn wave_equation_depth_two() {
        // Second-order-in-time stencil: reads at t and t-1, writes t+1.
        let shape = Shape::new(vec![
            ShapeCell::new(1, [0, 0, 0]),
            ShapeCell::new(0, [0, 0, 0]),
            ShapeCell::new(0, [1, 0, 0]),
            ShapeCell::new(0, [-1, 0, 0]),
            ShapeCell::new(0, [0, 1, 0]),
            ShapeCell::new(0, [0, -1, 0]),
            ShapeCell::new(0, [0, 0, 1]),
            ShapeCell::new(0, [0, 0, -1]),
            ShapeCell::new(-1, [0, 0, 0]),
        ])
        .unwrap();
        assert_eq!(shape.depth(), 2);
        assert_eq!(shape.time_slices(), 3);
        assert_eq!(shape.slopes(), [1, 1, 1]);
        assert_eq!(shape.first_step(), 1);
    }

    #[test]
    fn wide_stencil_slope_is_ceiled() {
        // A read two cells away at the previous step gives slope 2; a read two cells away
        // two steps back gives slope 1.
        let s2 = Shape::new(vec![
            ShapeCell::new(1, [0]),
            ShapeCell::new(0, [2]),
            ShapeCell::new(0, [0]),
        ])
        .unwrap();
        assert_eq!(s2.slopes(), [2]);
        let s1 = Shape::new(vec![
            ShapeCell::new(1, [0]),
            ShapeCell::new(0, [0]),
            ShapeCell::new(-1, [2]),
        ])
        .unwrap();
        assert_eq!(s1.slopes(), [1]);
        // 3 cells away 2 steps back: ceil(3/2) = 2.
        let s3 = Shape::new(vec![
            ShapeCell::new(1, [0]),
            ShapeCell::new(0, [0]),
            ShapeCell::new(-1, [3]),
        ])
        .unwrap();
        assert_eq!(s3.slopes(), [2]);
    }

    #[test]
    fn empty_shape_is_rejected() {
        assert_eq!(Shape::<2>::new(vec![]), Err(ShapeError::Empty));
    }

    #[test]
    fn off_center_home_is_rejected() {
        let err = Shape::new(vec![ShapeCell::new(1, [1, 0]), ShapeCell::new(0, [0, 0])]);
        assert!(matches!(err, Err(ShapeError::HomeNotCentered { .. })));
    }

    #[test]
    fn read_at_home_time_is_rejected() {
        let err = Shape::new(vec![
            ShapeCell::new(1, [0]),
            ShapeCell::new(1, [1]),
            ShapeCell::new(0, [0]),
        ]);
        assert!(matches!(err, Err(ShapeError::ReadAtHomeTime { .. })));
    }

    #[test]
    fn zero_depth_is_rejected() {
        let err = Shape::new(vec![ShapeCell::new(0, [0, 0])]);
        assert_eq!(err, Err(ShapeError::ZeroDepth));
    }

    #[test]
    fn covers_and_is_home() {
        let shape = Shape::new(heat2d_cells()).unwrap();
        assert!(shape.covers(0, [1, 0]));
        assert!(shape.covers(1, [0, 0]));
        assert!(!shape.covers(0, [2, 0]));
        assert!(!shape.covers(-1, [0, 0]));
        assert!(shape.is_home(1, [0, 0]));
        assert!(!shape.is_home(0, [0, 0]));
    }

    #[test]
    fn star_shape_matches_manual_heat() {
        let s = star_shape::<2>(1);
        assert_eq!(s.depth(), 1);
        assert_eq!(s.slopes(), [1, 1]);
        assert_eq!(s.cells().len(), 6);
    }

    #[test]
    fn box_shape_27_point() {
        let s = box_shape::<3>(1);
        assert_eq!(s.cells().len(), 1 + 27);
        assert_eq!(s.slopes(), [1, 1, 1]);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn cut_slopes_clamp_zero_dimensions() {
        // A stencil that never reaches across dimension 1.
        let s = Shape::new(vec![
            ShapeCell::new(1, [0, 0]),
            ShapeCell::new(0, [1, 0]),
            ShapeCell::new(0, [-1, 0]),
            ShapeCell::new(0, [0, 0]),
        ])
        .unwrap();
        assert_eq!(s.slopes(), [1, 0]);
        assert_eq!(s.cut_slopes(), [1, 1]);
    }
}
