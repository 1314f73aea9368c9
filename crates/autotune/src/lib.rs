//! # pochoir-autotune
//!
//! An ISAT-style autotuner (paper, Section 4, "coarsening of base cases") plus the
//! block-size tuner used by the Berkeley-autotuner-style loop baseline of Figure 5.
//!
//! The paper integrates Intel's ISAT tool to pick the base-case coarsening of the
//! recursion once and bakes the result into the generated code; in practice Pochoir
//! ships heuristics.  This crate reproduces both options: [`Coarsening::heuristic`]
//! lives in `pochoir-core`, and the searches here find tuned values given any
//! user-supplied cost function (wall-clock time of a pilot run, simulated cache
//! misses, …).  Their results are reports: the per-application presets in
//! `pochoir-stencils` are committed constants, and re-fitting one means editing it.
//!
//! Tuning runs compose with the process-global schedule cache: every pilot run of a
//! candidate compiles its decomposition once and replays it on the repeat
//! measurements, so the searches here time schedule *execution*, not schedule
//! construction.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use pochoir_core::engine::Coarsening;

/// Outcome of a tuning search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TuneOutcome<P> {
    /// The best parameter setting found.
    pub best: P,
    /// Its measured cost (lower is better).
    pub cost: f64,
    /// Number of candidate evaluations performed.
    pub evaluations: usize,
}

/// Candidate values considered for the base-case coarsening search.
#[derive(Clone, Debug)]
pub struct CoarseningSpace {
    /// Candidate time thresholds.
    pub dt: Vec<i64>,
    /// Candidate spatial width thresholds (used for every non-unit-stride dimension).
    pub dx: Vec<i64>,
    /// Candidate widths for the unit-stride (last) dimension; if empty, `dx` is used.
    pub dx_unit_stride: Vec<i64>,
}

impl Default for CoarseningSpace {
    fn default() -> Self {
        CoarseningSpace {
            dt: vec![1, 2, 3, 5, 8, 16, 32, 64, 100],
            dx: vec![1, 3, 8, 16, 32, 64, 100, 200],
            dx_unit_stride: vec![],
        }
    }
}

impl CoarseningSpace {
    /// A small space for quick pilot searches (used in tests and CI).
    pub fn quick() -> Self {
        CoarseningSpace {
            dt: vec![1, 2, 4, 8],
            dx: vec![4, 16, 64],
            dx_unit_stride: vec![],
        }
    }

    fn unit_stride_candidates(&self) -> &[i64] {
        if self.dx_unit_stride.is_empty() {
            &self.dx
        } else {
            &self.dx_unit_stride
        }
    }
}

/// Exhaustively searches the coarsening space (every spatial dimension shares the same
/// threshold except the unit-stride one), calling `cost` for each candidate and returning
/// the cheapest.  This mirrors what the ISAT integration does for Pochoir, with the cost
/// function abstracted so callers can tune against wall-clock time or simulated misses.
pub fn tune_coarsening<const D: usize, F>(
    space: &CoarseningSpace,
    mut cost: F,
) -> TuneOutcome<Coarsening<D>>
where
    F: FnMut(Coarsening<D>) -> f64,
{
    let mut best: Option<(Coarsening<D>, f64)> = None;
    let mut evaluations = 0usize;
    for &dt in &space.dt {
        for &dx in &space.dx {
            for &dx_last in space.unit_stride_candidates() {
                let mut widths = [dx; D];
                widths[D - 1] = dx_last;
                let candidate = Coarsening::new(dt, widths);
                let c = cost(candidate);
                evaluations += 1;
                if best.map(|(_, b)| c < b).unwrap_or(true) {
                    best = Some((candidate, c));
                }
            }
        }
    }
    let (best, cost) = best.expect("tuning space must be non-empty");
    TuneOutcome {
        best,
        cost,
        evaluations,
    }
}

/// Searches cubic block sizes for the blocked-loop baseline (Figure 5's stand-in for the
/// Berkeley autotuner).  `candidates` are edge lengths; the unit-stride dimension is kept
/// un-blocked (the paper notes hardware prefetching makes cutting it counterproductive).
pub fn tune_blocks<const D: usize, F>(
    candidates: &[usize],
    full_extent: usize,
    mut cost: F,
) -> TuneOutcome<[usize; D]>
where
    F: FnMut([usize; D]) -> f64,
{
    assert!(!candidates.is_empty());
    let mut best: Option<([usize; D], f64)> = None;
    let mut evaluations = 0usize;
    for &edge in candidates {
        let mut block = [edge; D];
        block[D - 1] = full_extent.max(1);
        let c = cost(block);
        evaluations += 1;
        if best.map(|(_, b)| c < b).unwrap_or(true) {
            best = Some((block, c));
        }
    }
    let (best, cost) = best.unwrap();
    TuneOutcome {
        best,
        cost,
        evaluations,
    }
}

/// Greedy hill-climbing refinement around an initial coarsening: repeatedly tries
/// doubling/halving each threshold and keeps any improvement, stopping at a local
/// optimum.  Far cheaper than the exhaustive search for large spaces.
pub fn refine_coarsening<const D: usize, F>(
    start: Coarsening<D>,
    max_rounds: usize,
    mut cost: F,
) -> TuneOutcome<Coarsening<D>>
where
    F: FnMut(Coarsening<D>) -> f64,
{
    let mut current = start;
    let mut current_cost = cost(current);
    let mut evaluations = 1usize;
    for _ in 0..max_rounds {
        let mut improved = false;
        let mut neighbours: Vec<Coarsening<D>> = Vec::new();
        for scale in [2i64, -2i64] {
            // Scale dt.
            let dt = if scale > 0 {
                current.dt * 2
            } else {
                (current.dt / 2).max(1)
            };
            neighbours.push(Coarsening::new(dt, current.dx));
            // Scale each spatial threshold.
            for d in 0..D {
                let mut dx = current.dx;
                dx[d] = if scale > 0 {
                    dx[d] * 2
                } else {
                    (dx[d] / 2).max(1)
                };
                neighbours.push(Coarsening::new(current.dt, dx));
            }
        }
        for cand in neighbours {
            let c = cost(cand);
            evaluations += 1;
            if c < current_cost {
                current = cand;
                current_cost = c;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    TuneOutcome {
        best: current,
        cost: current_cost,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic cost with a unique optimum at dt = 8, dx = 16 (quadratic in log space).
    fn synthetic_cost<const D: usize>(c: Coarsening<D>) -> f64 {
        let dt_term = ((c.dt as f64).log2() - 3.0).powi(2);
        let dx_term: f64 =
            c.dx.iter()
                .map(|&w| ((w as f64).log2() - 4.0).powi(2))
                .sum();
        dt_term + dx_term
    }

    #[test]
    fn exhaustive_search_finds_the_optimum() {
        let space = CoarseningSpace {
            dt: vec![1, 2, 4, 8, 16],
            dx: vec![4, 8, 16, 32],
            dx_unit_stride: vec![],
        };
        let out = tune_coarsening::<2, _>(&space, synthetic_cost);
        assert_eq!(out.best.dt, 8);
        assert_eq!(out.best.dx, [16, 16]);
        assert_eq!(out.evaluations, 5 * 4 * 4);
    }

    #[test]
    fn unit_stride_candidates_are_respected() {
        let space = CoarseningSpace {
            dt: vec![8],
            dx: vec![16],
            dx_unit_stride: vec![512],
        };
        let out = tune_coarsening::<3, _>(&space, |c| c.dx.iter().sum::<i64>() as f64);
        assert_eq!(out.best.dx, [16, 16, 512]);
    }

    #[test]
    fn hill_climbing_improves_towards_optimum() {
        let start = Coarsening::<2>::new(1, [1, 1]);
        let out = refine_coarsening(start, 20, synthetic_cost::<2>);
        assert!(out.cost <= synthetic_cost(start));
        assert_eq!(out.best.dt, 8);
        assert_eq!(out.best.dx, [16, 16]);
        assert!(out.evaluations > 1);
    }

    #[test]
    fn hill_climbing_stops_at_local_optimum() {
        let out = refine_coarsening(Coarsening::<1>::new(8, [16]), 5, synthetic_cost::<1>);
        assert_eq!(out.best.dt, 8);
        assert_eq!(out.best.dx, [16]);
    }

    #[test]
    fn block_tuner_keeps_unit_stride_unblocked() {
        let out = tune_blocks::<3, _>(&[8, 16, 32], 128, |b| (b[0] as f64 - 16.0).abs());
        assert_eq!(out.best, [16, 16, 128]);
        assert_eq!(out.evaluations, 3);
    }

    #[test]
    fn quick_space_is_smaller_than_default() {
        let q = CoarseningSpace::quick();
        let d = CoarseningSpace::default();
        assert!(q.dt.len() * q.dx.len() < d.dt.len() * d.dx.len());
    }
}
