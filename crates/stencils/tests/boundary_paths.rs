//! Which path each benchmark geometry's boundary leaves take, pinned by a count.
//!
//! A boundary leaf runs on a padded copy when `base::runs_padded` says it is small
//! (its widest step's padded read footprint fits `base::PADDED_BUDGET`) and on
//! segment-level clone resolution with ghost rows otherwise.  The first test pins the
//! split for every geometry `benchmark/` runs, under the app's committed preset; the
//! second runs one window of each through a view that counts `set`s — the writes of
//! the per-point path — and pins them at zero: on either path every row goes to the
//! kernel's row body.

use std::sync::atomic::{AtomicU64, Ordering};

use pochoir_core::engine::base::{runs_padded, PADDED_BUDGET};
use pochoir_core::engine::schedule::Schedule;
use pochoir_core::engine::CutStrategy;
use pochoir_core::grid::RowWriter;
use pochoir_core::prelude::*;
use pochoir_runtime::Serial;
use pochoir_stencils::heat::HeatKernel;
use pochoir_stencils::life::LifeKernel;
use pochoir_stencils::wave::WaveKernel;
use pochoir_stencils::{heat, life, wave};

/// `(padded, boundary)` leaf counts of one window of `sizes` under `coarsening`.
fn split<T, const D: usize>(
    shape: Shape<D>,
    coarsening: Coarsening<D>,
    sizes: [usize; D],
    window: i64,
) -> (usize, usize) {
    let spec = StencilSpec::new(shape);
    let sizes = sizes.map(|s| s as i64);
    let schedule = Schedule::compile(
        sizes,
        spec.slopes(),
        spec.reach(),
        coarsening,
        CutStrategy::Hyperspace,
        false,
        window,
    );
    let boundary: Vec<_> = schedule.leaves().filter(|l| !l.interior).collect();
    let padded = boundary
        .iter()
        .filter(|l| runs_padded::<T, D>(&l.zoid, sizes, spec.footprint()))
        .count();
    (padded, boundary.len())
}

#[test]
fn benchmark_geometries_split_their_boundary_leaves_as_pinned() {
    assert_eq!(PADDED_BUDGET, 32 * 1024);
    let heat2 = || heat::shape::<2>();
    let rows = [
        (
            "tenant heat 16² × 2",
            split::<f64, 2>(heat2(), heat::tuned_coarsening_2d(), [16, 16], 2),
            (1, 1),
        ),
        (
            "tenant life 16² × 2",
            split::<u8, 2>(life::shape(), life::tuned_coarsening(), [16, 16], 2),
            (1, 1),
        ),
        (
            "life 512² × 8",
            split::<u8, 2>(life::shape(), life::tuned_coarsening(), [512, 512], 8),
            (8, 16),
        ),
        (
            "wave 64³ × 4",
            split::<f64, 3>(wave::shape(), wave::tuned_coarsening(), [64, 64, 64], 4),
            (0, 256),
        ),
        (
            "heat 2048² × 16",
            split::<f64, 2>(heat2(), heat::tuned_coarsening_2d(), [2048, 2048], 16),
            (0, 128),
        ),
        (
            "heat 1024² × 4",
            split::<f64, 2>(heat2(), heat::tuned_coarsening_2d(), [1024, 1024], 4),
            (0, 64),
        ),
    ];
    for (label, got, want) in rows {
        assert_eq!(got, want, "{label}: (padded, boundary) leaves");
    }
}

/// Forwards every access to the wrapped view and counts `set`s.
struct CountSets<'v, A> {
    inner: &'v A,
    sets: &'v AtomicU64,
}

impl<T: Copy, const D: usize, A: GridAccess<T, D>> GridAccess<T, D> for CountSets<'_, A> {
    fn get(&self, t: i64, x: [i64; D]) -> T {
        self.inner.get(t, x)
    }
    fn set(&self, t: i64, x: [i64; D], value: T) {
        self.sets.fetch_add(1, Ordering::Relaxed);
        self.inner.set(t, x, value)
    }
    fn size(&self, dim: usize) -> i64 {
        self.inner.size(dim)
    }
    fn begin_row(&self) {
        self.inner.begin_row()
    }
    unsafe fn row(&self, t: i64, x: [i64; D], len: usize) -> Option<&[T]> {
        // SAFETY: forwarded contract.
        unsafe { self.inner.row(t, x, len) }
    }
    unsafe fn row_out(&self, t: i64, x: [i64; D], len: usize) -> Option<RowWriter<'_, T>> {
        // SAFETY: forwarded contract.
        unsafe { self.inner.row_out(t, x, len) }
    }
}

/// Runs `K` with every view it is handed wrapped in [`CountSets`].
struct Probe<K> {
    kernel: K,
    sets: AtomicU64,
}

impl<T: Copy, const D: usize, K: StencilKernel<T, D>> StencilKernel<T, D> for Probe<K> {
    fn update<A: GridAccess<T, D>>(&self, grid: &A, t: i64, x: [i64; D]) {
        let view = CountSets {
            inner: grid,
            sets: &self.sets,
        };
        self.kernel.update(&view, t, x)
    }
    fn update_row<A: GridAccess<T, D>>(&self, grid: &A, t: i64, x0: [i64; D], len: i64) {
        let view = CountSets {
            inner: grid,
            sets: &self.sets,
        };
        self.kernel.update_row(&view, t, x0, len)
    }
}

/// Points written through `set` in one window `[t0, t0 + window)` of `array`.
#[allow(clippy::too_many_arguments)]
fn per_point_writes<T, K, const D: usize>(
    base_case: BaseCase,
    shape: Shape<D>,
    coarsening: Coarsening<D>,
    kernel: K,
    mut array: PochoirArray<T, D>,
    t0: i64,
    window: i64,
) -> u64
where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
{
    let plan = ExecutionPlan::trap()
        .with_coarsening(coarsening)
        .with_base_case(base_case);
    let program =
        CompiledProgram::try_new(StencilSpec::new(shape), plan, array.sizes_i64(), window)
            .expect("benchmark geometry compiles");
    let probe = Probe {
        kernel,
        sets: AtomicU64::new(0),
    };
    program.run(&mut array, &probe, t0, t0 + window, &Serial);
    probe.sets.load(Ordering::Relaxed)
}

#[test]
fn benchmark_geometries_write_no_point_on_the_per_point_path() {
    let heat_2d = |n: usize, window: i64| {
        per_point_writes(
            BaseCase::Row,
            heat::shape::<2>(),
            heat::tuned_coarsening_2d(),
            HeatKernel::<2>::default(),
            heat::build([n, n], Boundary::Periodic),
            0,
            window,
        )
    };
    let life_2d = |n: usize, window: i64| {
        per_point_writes(
            BaseCase::Row,
            life::shape(),
            life::tuned_coarsening(),
            LifeKernel,
            life::build([n, n], 300),
            0,
            window,
        )
    };
    let rows = [
        ("tenant heat 16² × 2", heat_2d(16, 2)),
        ("tenant life 16² × 2", life_2d(16, 2)),
        ("life 512² × 8", life_2d(512, 8)),
        (
            "wave 64³ × 4",
            per_point_writes(
                BaseCase::Row,
                wave::shape(),
                wave::tuned_coarsening(),
                WaveKernel::default(),
                wave::build([64, 64, 64]),
                1,
                4,
            ),
        ),
        ("heat 2048² × 16", heat_2d(2048, 16)),
        ("heat 1024² × 4", heat_2d(1024, 4)),
    ];
    for (label, sets) in rows {
        assert_eq!(sets, 0, "{label}: points on the per-point path");
    }
    // The probe sees the per-point path: under `BaseCase::Point` every point of the
    // tenant torus is written through `set`, 16² × 2.
    let point = per_point_writes(
        BaseCase::Point,
        heat::shape::<2>(),
        heat::tuned_coarsening_2d(),
        HeatKernel::<2>::default(),
        heat::build([16, 16], Boundary::Periodic),
        0,
        2,
    );
    assert_eq!(point, 16 * 16 * 2);
}
