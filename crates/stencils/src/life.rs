//! Conway's Game of Life on a torus — the `Life 2p` row of the paper's Figure 3.
//!
//! Life is a branchy integer stencil over the full Moore (9-point) neighbourhood, which
//! makes it a good stress test for the boundary/interior cloning and for bitwise-exact
//! engine equivalence.

use pochoir_core::prelude::*;

/// The Game of Life update rule.
#[derive(Clone, Copy, Debug, Default)]
pub struct LifeKernel;

impl StencilKernel<u8, 2> for LifeKernel {
    #[inline]
    fn update<A: GridAccess<u8, 2>>(&self, g: &A, t: i64, x: [i64; 2]) {
        let mut neighbours = 0u8;
        for dx in -1..=1i64 {
            for dy in -1..=1i64 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                neighbours += g.get(t, [x[0] + dx, x[1] + dy]);
            }
        }
        let alive = g.get(t, x) == 1;
        let next = match (alive, neighbours) {
            (true, 2) | (true, 3) => 1,
            (false, 3) => 1,
            _ => 0,
        };
        g.set(t + 1, x, next);
    }

    /// Row-oriented clone over the three Moore-neighbourhood rows; identical results to
    /// the per-point rule, with one address resolution per row instead of nine per cell.
    /// Under AVX2 dispatch a hand-written body writes the row's whole 32-cell vectors
    /// first (see [`crate::simd`]).
    fn update_row<A: GridAccess<u8, 2>>(&self, g: &A, t: i64, x0: [i64; 2], len: i64) {
        if len <= 0 {
            return;
        }
        let n = len as usize;
        'fast: {
            // Safety (row contract): the write row is in-domain (the view answers
            // `None` otherwise) and the Moore rows leave the domain only on a boundary
            // view; reads are of slice `t`, the write row of distinct slice `t+1`.
            let (Some(mut out), Some(up), Some(mid), Some(down)) = (unsafe {
                (
                    g.row_out(t + 1, x0, n),
                    g.row(t, [x0[0] - 1, x0[1] - 1], n + 2),
                    g.row(t, [x0[0], x0[1] - 1], n + 2),
                    g.row(t, [x0[0] + 1, x0[1] - 1], n + 2),
                )
            }) else {
                break 'fast;
            };
            // The AVX2 body writes the whole vectors (bitwise-equal; none when this run
            // does not dispatch to AVX2), the scalar loop the rest.
            let (up, mid, down) = (&up[..n + 2], &mid[..n + 2], &down[..n + 2]);
            let vectored = crate::simd::life_row(up, mid, down, &mut out, n);
            for i in vectored..n {
                let neighbours = up[i]
                    + up[i + 1]
                    + up[i + 2]
                    + mid[i]
                    + mid[i + 2]
                    + down[i]
                    + down[i + 1]
                    + down[i + 2];
                let alive = mid[i + 1] == 1;
                let next = match (alive, neighbours) {
                    (true, 2) | (true, 3) => 1,
                    (false, 3) => 1,
                    _ => 0,
                };
                out.set(i, next);
            }
            return;
        }
        update_row_pointwise(self, g, t, x0, len);
    }
}

/// The Moore-neighbourhood shape (radius-1 box).
pub fn shape() -> Shape<2> {
    box_shape::<2>(1)
}

/// TRAP/STRAP base-case coarsening tuned for Life under the compiled schedule path:
/// long rows for the byte-wide vectorized row kernel, 64-row outer slabs.
pub fn tuned_coarsening() -> Coarsening<2> {
    crate::common::profile_coarsening("life", Coarsening::new(5, [64, 512]))
}

fn tuned_plan() -> ExecutionPlan<2> {
    crate::common::tuned_plan(tuned_coarsening())
}

/// A reusable executor session for Life: TRAP on the compiled-schedule path with the
/// tuned coarsening preset, pre-compiled for windows of height `window` on boards of
/// extent `sizes`.
pub fn session(sizes: [usize; 2], window: i64) -> CompiledStencil<u8, LifeKernel, 2> {
    CompiledStencil::new(
        StencilSpec::new(shape()),
        LifeKernel,
        tuned_plan(),
        sizes,
        window,
    )
}

/// A serving preset for Life: a [`StencilServer`] over the tuned TRAP plan, its
/// program shared process-wide through the session registry.  Submit many same-extent
/// boards (optionally with per-tenant weights and deadlines via `submit_with`), then
/// `drain()` to step them as a pipelined multi-tenant workload in `window`-step
/// chunks.
pub fn serve(sizes: [usize; 2], window: i64) -> StencilServer<u8, LifeKernel, 2> {
    StencilServer::new(
        StencilSpec::new(shape()),
        LifeKernel,
        tuned_plan(),
        sizes,
        window,
    )
}

/// Fallible variant of [`serve`]: invalid geometry (or a compile-failed
/// registry key) surfaces as a typed [`ServeError`] instead of a panic.
pub fn try_serve(
    sizes: [usize; 2],
    window: i64,
) -> Result<StencilServer<u8, LifeKernel, 2>, ServeError> {
    StencilServer::try_new(
        StencilSpec::new(shape()),
        LifeKernel,
        tuned_plan(),
        sizes,
        window,
    )
}

/// Builds a toroidal Life board with a deterministic pseudo-random soup.
pub fn build(sizes: [usize; 2], fill_permille: u64) -> PochoirArray<u8, 2> {
    let mut a = PochoirArray::new(sizes);
    a.register_boundary(Boundary::Periodic);
    a.fill_time_slice(0, |x| {
        let h = (x[0] as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(x[1] as u64)
            .wrapping_mul(0xBF58476D1CE4E5B9);
        u8::from(h % 1000 < fill_permille)
    });
    a
}

/// Builds a board with a single glider in the top-left corner (all else dead).
pub fn build_glider(sizes: [usize; 2]) -> PochoirArray<u8, 2> {
    let mut a: PochoirArray<u8, 2> = PochoirArray::new(sizes);
    a.register_boundary(Boundary::Periodic);
    for (x, y) in [(1i64, 2i64), (2, 3), (3, 1), (3, 2), (3, 3)] {
        a.set(0, [x, y], 1);
    }
    a
}

/// Reference implementation: direct double-buffered sweep on a torus.
pub fn reference(sizes: [usize; 2], initial: &[u8], steps: i64) -> Vec<u8> {
    let (nx, ny) = (sizes[0] as i64, sizes[1] as i64);
    let idx = |x: i64, y: i64| ((x.rem_euclid(nx)) * ny + y.rem_euclid(ny)) as usize;
    let mut prev = initial.to_vec();
    let mut next = prev.clone();
    for _ in 0..steps {
        for x in 0..nx {
            for y in 0..ny {
                let mut n = 0u8;
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        if dx == 0 && dy == 0 {
                            continue;
                        }
                        n += prev[idx(x + dx, y + dy)];
                    }
                }
                let alive = prev[idx(x, y)] == 1;
                next[idx(x, y)] = match (alive, n) {
                    (true, 2) | (true, 3) => 1,
                    (false, 3) => 1,
                    _ => 0,
                };
            }
        }
        std::mem::swap(&mut prev, &mut next);
    }
    prev
}

/// The paper's Figure 3 problem size: 16,000² for 500 steps.
pub const PAPER_SIZE: ([usize; 2], i64) = ([16_000, 16_000], 500);

#[cfg(test)]
mod tests {
    use super::*;
    use pochoir_core::engine::{run, Coarsening, EngineKind, ExecutionPlan};
    use pochoir_runtime::Serial;

    #[test]
    fn shape_is_nine_point_with_unit_slopes() {
        let s = shape();
        assert_eq!(s.slopes(), [1, 1]);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn engines_match_reference_soup() {
        let sizes = [24usize, 20];
        let steps = 10;
        let board = build(sizes, 350);
        let initial = board.snapshot(0);
        let expected = reference(sizes, &initial, steps);
        let spec = StencilSpec::new(shape());
        for engine in [EngineKind::Trap, EngineKind::Strap, EngineKind::LoopsSerial] {
            let mut a = build(sizes, 350);
            let plan = ExecutionPlan::new(engine).with_coarsening(Coarsening::new(2, [5, 5]));
            run(&mut a, &spec, &LifeKernel, 0, steps, &plan, &Serial);
            assert_eq!(a.snapshot(steps), expected, "engine {engine:?}");
        }
    }

    #[test]
    fn row_and_point_base_cases_are_identical() {
        use pochoir_core::engine::BaseCase;
        let sizes = [22usize, 27];
        let steps = 8;
        let spec = StencilSpec::new(shape());
        for engine in [EngineKind::Trap, EngineKind::Strap, EngineKind::LoopsSerial] {
            let mut snaps = Vec::new();
            for base_case in [BaseCase::Row, BaseCase::Point] {
                let mut a = build(sizes, 400);
                let plan = ExecutionPlan::new(engine)
                    .with_coarsening(Coarsening::new(2, [6, 6]))
                    .with_base_case(base_case);
                run(&mut a, &spec, &LifeKernel, 0, steps, &plan, &Serial);
                snaps.push(a.snapshot(steps));
            }
            assert_eq!(snaps[0], snaps[1], "{engine:?}");
        }
    }

    #[test]
    fn glider_translates_by_one_cell_every_four_generations() {
        let sizes = [16usize, 16];
        let spec = StencilSpec::new(shape());
        let mut a = build_glider(sizes);
        let before = a.snapshot(0);
        run(
            &mut a,
            &spec,
            &LifeKernel,
            0,
            4,
            &ExecutionPlan::trap(),
            &Serial,
        );
        let after = a.snapshot(4);
        // After 4 generations the glider pattern is the initial pattern shifted by (1,1).
        let idx = |x: i64, y: i64| (x.rem_euclid(16) * 16 + y.rem_euclid(16)) as usize;
        for x in 0..16i64 {
            for y in 0..16i64 {
                assert_eq!(
                    after[idx(x + 1, y + 1)],
                    before[idx(x, y)],
                    "glider shift mismatch at ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn still_life_block_is_stable() {
        let sizes = [8usize, 8];
        let mut a: PochoirArray<u8, 2> = PochoirArray::new(sizes);
        a.register_boundary(Boundary::Periodic);
        for (x, y) in [(3i64, 3i64), (3, 4), (4, 3), (4, 4)] {
            a.set(0, [x, y], 1);
        }
        let spec = StencilSpec::new(shape());
        let before = a.snapshot(0);
        run(
            &mut a,
            &spec,
            &LifeKernel,
            0,
            5,
            &ExecutionPlan::trap(),
            &Serial,
        );
        assert_eq!(a.snapshot(5), before);
    }
}
