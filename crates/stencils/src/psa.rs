//! Pairwise sequence alignment (Needleman–Wunsch with linear gap penalty) — the `PSA` row
//! of the paper's Figure 3.
//!
//! Like [`lcs`](crate::lcs), the quadratic DP is skewed onto anti-diagonals so that it
//! becomes a 1-dimensional, depth-2 stencil over a diamond-shaped domain, with the branchy
//! interior/exterior tests the paper calls out as the reason PSA profits less from the
//! cache-oblivious algorithm.

use pochoir_core::prelude::*;
use std::sync::Arc;

/// Alignment scoring parameters.
#[derive(Clone, Copy, Debug)]
pub struct Scoring {
    /// Score for aligning two identical residues.
    pub matsch: i32,
    /// Score (usually negative) for aligning two different residues.
    pub mismatch: i32,
    /// Penalty (positive number, subtracted) per gap position.
    pub gap: i32,
}

impl Default for Scoring {
    fn default() -> Self {
        Scoring {
            matsch: 2,
            mismatch: -1,
            gap: 1,
        }
    }
}

/// The skewed Needleman–Wunsch kernel.
#[derive(Clone, Debug)]
pub struct PsaKernel {
    /// First sequence (DP rows).
    pub a: Arc<Vec<u8>>,
    /// Second sequence (DP columns).
    pub b: Arc<Vec<u8>>,
    /// Scoring scheme.
    pub scoring: Scoring,
}

impl StencilKernel<i32, 1> for PsaKernel {
    #[inline]
    fn update<A: GridAccess<i32, 1>>(&self, g: &A, t: i64, x: [i64; 1]) {
        let j = x[0];
        let m = self.a.len() as i64;
        let n = self.b.len() as i64;
        let i = (t + 1) - j; // row index of the cell being produced (anti-diagonal t+1)
        let s = self.scoring;
        let value = if i < 0 || i > m || j > n {
            0
        } else if i == 0 {
            -s.gap * j as i32
        } else if j == 0 {
            -s.gap * i as i32
        } else {
            let sub = if self.a[(i - 1) as usize] == self.b[(j - 1) as usize] {
                s.matsch
            } else {
                s.mismatch
            };
            let diag = g.get(t - 1, [j - 1]) + sub; // S[i-1][j-1] + substitution
            let up = g.get(t, [j]) - s.gap; // S[i-1][j] - gap
            let left = g.get(t, [j - 1]) - s.gap; // S[i][j-1] - gap
            diag.max(up).max(left)
        };
        g.set(t + 1, [j], value);
    }

    /// Row-oriented interior clone: three row addresses resolved once (the previous two
    /// anti-diagonals at the two skew offsets), with the interior/exterior branches of
    /// [`PsaKernel::update`] kept in-loop — PSA is the paper's example of a stencil
    /// whose branchiness limits row-kernel gains, and this override exercises exactly
    /// that shape.  Integer DP: results are identical to the per-point path.
    fn update_row<A: GridAccess<i32, 1>>(&self, g: &A, t: i64, x0: [i64; 1], len: i64) {
        if len <= 0 {
            return;
        }
        let n = len as usize;
        'fast: {
            // Safety (row contract): the write row is in-domain (the view answers
            // `None` otherwise) and the skewed footprint (offsets 0/−1 at `t`, −1 at
            // `t−1`) leaves the domain only on a boundary view; reads are of slices `t`
            // and `t − 1`, the write row of the distinct slice `t + 1`.
            let (Some(mut out), Some(diag), Some(up_row), Some(left)) = (unsafe {
                (
                    g.row_out(t + 1, x0, n),
                    g.row(t - 1, [x0[0] - 1], n),
                    g.row(t, [x0[0]], n),
                    g.row(t, [x0[0] - 1], n),
                )
            }) else {
                break 'fast;
            };
            let m = self.a.len() as i64;
            let nb = self.b.len() as i64;
            let s = self.scoring;
            for k in 0..n {
                let j = x0[0] + k as i64;
                let i = (t + 1) - j;
                let value = if i < 0 || i > m || j > nb {
                    0
                } else if i == 0 {
                    -s.gap * j as i32
                } else if j == 0 {
                    -s.gap * i as i32
                } else {
                    let sub = if self.a[(i - 1) as usize] == self.b[(j - 1) as usize] {
                        s.matsch
                    } else {
                        s.mismatch
                    };
                    (diag[k] + sub).max(up_row[k] - s.gap).max(left[k] - s.gap)
                };
                out.set(k, value);
            }
            return;
        }
        update_row_pointwise(self, g, t, x0, len);
    }
}

/// Same skewed shape as LCS: `{(1,0), (0,0), (0,−1), (−1,−1)}`.
pub fn shape() -> Shape<1> {
    crate::lcs::shape()
}

/// TRAP/STRAP base-case coarsening tuned for the skewed PSA kernel under the compiled
/// schedule path: wide anti-diagonal slabs — the branchy integer row kernel is cheap
/// per cell, so large base cases amortize recursion overhead.
pub fn tuned_coarsening() -> Coarsening<1> {
    Coarsening::new(16, [2048])
}

fn tuned_plan() -> ExecutionPlan<1> {
    ExecutionPlan::trap().with_coarsening(tuned_coarsening())
}

/// A reusable executor session for the PSA kernel aligning `a` against `b`: TRAP on
/// the compiled-schedule path with the tuned coarsening preset, pre-compiled for
/// windows of height `window` over the `b.len() + 1` anti-diagonal positions.
pub fn session(
    a: &[u8],
    b: &[u8],
    scoring: Scoring,
    window: i64,
) -> CompiledStencil<i32, PsaKernel, 1> {
    CompiledStencil::new(
        StencilSpec::new(shape()),
        kernel_for(a, b, scoring),
        tuned_plan(),
        [b.len() + 1],
        window,
    )
}

/// A serving preset for the PSA kernel: a [`StencilServer`] over the tuned TRAP plan,
/// its program shared process-wide through the session registry.  Submit many DP
/// arrays of the same extent (one per query aligned against `b`-length subjects),
/// then `try_drain()` to advance them as a pipelined multi-tenant workload.
///
/// Invalid geometry (or a compile-failed registry key) surfaces as a typed
/// [`ServeError`].
pub fn try_serve(
    a: &[u8],
    b: &[u8],
    scoring: Scoring,
    window: i64,
) -> Result<StencilServer<i32, PsaKernel, 1>, ServeError> {
    StencilServer::try_new(
        StencilSpec::new(shape()),
        kernel_for(a, b, scoring),
        tuned_plan(),
        [b.len() + 1],
        window,
    )
}

/// The kernel the presets build: owned copies of both sequences plus the scoring.
fn kernel_for(a: &[u8], b: &[u8], scoring: Scoring) -> PsaKernel {
    PsaKernel {
        a: Arc::new(a.to_vec()),
        b: Arc::new(b.to_vec()),
        scoring,
    }
}

/// Builds the spatial array with the first two anti-diagonals initialized
/// (`S[0][0] = 0`, `S[0][1] = S[1][0] = −gap`).
pub fn build(b_len: usize, scoring: Scoring) -> PochoirArray<i32, 1> {
    let mut arr = PochoirArray::with_depth([b_len + 1], 2);
    arr.register_boundary(Boundary::Constant(0));
    // Anti-diagonal 0 lives at time 0: only position 0 is meaningful (S[0][0] = 0).
    arr.fill_time_slice(0, |_| 0);
    // Anti-diagonal 1 lives at time 1: S[0][1] at j=1 and S[1][0] at j=0.
    arr.fill_time_slice(1, |x| if x[0] <= 1 { -scoring.gap } else { 0 });
    arr
}

/// Steps needed to fill the table for lengths `m`, `n`.
pub fn steps(m: usize, n: usize) -> i64 {
    (m + n) as i64 - 1
}

/// The final alignment score `S[m][n]`.
pub fn result(arr: &PochoirArray<i32, 1>, m: usize, n: usize) -> i32 {
    arr.get((m + n) as i64, [n as i64])
}

/// Reference implementation: the classical quadratic Needleman–Wunsch table.
pub fn reference(a: &[u8], b: &[u8], s: Scoring) -> i32 {
    let m = a.len();
    let n = b.len();
    let idx = |i: usize, j: usize| i * (n + 1) + j;
    let mut table = vec![0i32; (m + 1) * (n + 1)];
    for j in 0..=n {
        table[idx(0, j)] = -s.gap * j as i32;
    }
    for i in 0..=m {
        table[idx(i, 0)] = -s.gap * i as i32;
    }
    for i in 1..=m {
        for j in 1..=n {
            let sub = if a[i - 1] == b[j - 1] {
                s.matsch
            } else {
                s.mismatch
            };
            table[idx(i, j)] = (table[idx(i - 1, j - 1)] + sub)
                .max(table[idx(i - 1, j)] - s.gap)
                .max(table[idx(i, j - 1)] - s.gap);
        }
    }
    table[idx(m, n)]
}

/// The paper's Figure 3 problem size: 100,000-long sequences, 200,000 steps.
pub const PAPER_SIZE: (usize, usize) = (100_000, 100_000);

/// Runs the PSA stencil end-to-end and returns the alignment score.
pub fn run_psa<P: pochoir_runtime::Parallelism>(
    a: &[u8],
    b: &[u8],
    scoring: Scoring,
    plan: &pochoir_core::engine::ExecutionPlan<1>,
    par: &P,
) -> i32 {
    let kernel = PsaKernel {
        a: Arc::new(a.to_vec()),
        b: Arc::new(b.to_vec()),
        scoring,
    };
    let spec = StencilSpec::new(shape());
    let mut arr = build(b.len(), scoring);
    let t0 = spec.shape().first_step();
    pochoir_core::engine::run(
        &mut arr,
        &spec,
        &kernel,
        t0,
        t0 + steps(a.len(), b.len()),
        plan,
        par,
    );
    result(&arr, a.len(), b.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcs::random_sequence;
    use pochoir_core::engine::{Coarsening, EngineKind, ExecutionPlan};
    use pochoir_runtime::Serial;

    #[test]
    fn identical_sequences_score_match_times_length() {
        let s = Scoring::default();
        let a = random_sequence(50, 4, 7);
        assert_eq!(reference(&a, &a, s), 50 * s.matsch);
        assert_eq!(
            run_psa(&a, &a, s, &ExecutionPlan::trap(), &Serial),
            50 * s.matsch
        );
    }

    #[test]
    fn stencil_matches_reference_on_random_sequences() {
        let s = Scoring::default();
        for (m, n, seed) in [(25usize, 31usize, 11u64), (48, 20, 12), (33, 33, 13)] {
            let a = random_sequence(m, 4, seed);
            let b = random_sequence(n, 4, seed * 3 + 1);
            let expected = reference(&a, &b, s);
            for engine in [EngineKind::Trap, EngineKind::Strap, EngineKind::LoopsSerial] {
                let plan = ExecutionPlan::new(engine).with_coarsening(Coarsening::new(3, [8]));
                assert_eq!(run_psa(&a, &b, s, &plan, &Serial), expected, "{engine:?}");
            }
        }
    }

    #[test]
    fn row_and_point_base_cases_are_identical() {
        use pochoir_core::engine::BaseCase;
        let s = Scoring::default();
        let a = random_sequence(41, 4, 21);
        let b = random_sequence(37, 4, 22);
        let expected = reference(&a, &b, s);
        for engine in [EngineKind::Trap, EngineKind::Strap, EngineKind::LoopsSerial] {
            for base_case in [BaseCase::Row, BaseCase::Point] {
                let plan = ExecutionPlan::new(engine)
                    .with_coarsening(Coarsening::new(3, [8]))
                    .with_base_case(base_case);
                assert_eq!(
                    run_psa(&a, &b, s, &plan, &Serial),
                    expected,
                    "{engine:?} {base_case:?}"
                );
            }
        }
    }

    #[test]
    fn all_gap_alignment_when_one_sequence_is_empty() {
        let s = Scoring::default();
        let a = random_sequence(20, 4, 5);
        assert_eq!(reference(&a, &[], s), -20 * s.gap);
    }

    #[test]
    fn scoring_defaults_are_sane() {
        let s = Scoring::default();
        assert!(s.matsch > 0 && s.gap > 0 && s.mismatch <= 0);
    }
}
