//! The grid builders against their definitions, and large grid storage.
//!
//! `heat::build`, `wave::build` and `lbm::build` compute each axis's term once
//! per index and write rows in place; each must equal a per-cell
//! `fill_time_slice` with its unchanged `init_value` / `initial_density`, bit for
//! bit, in every time slice.  The extents 1, 2, 7 and 127 are none of them a
//! multiple of the 8-element (64-byte) row pad of an `f64` grid, so every row
//! ends short of its padded stride.
//!
//! A buffer of at least `FIRST_TOUCH_BYTES` is first-touched by the global pool,
//! once that pool runs, one chunk per worker; from a plain thread, from inside a
//! global-pool job and from another pool's worker alike, every storage element
//! must hold the fill value and a clone must equal it.

use pochoir_core::boundary::Boundary;
use pochoir_core::grid::{AlignedVec, PochoirArray, FIRST_TOUCH_BYTES};
use pochoir_runtime::Runtime;
use pochoir_stencils::{heat, lbm, wave};

const EXTENTS: [usize; 4] = [1, 2, 7, 127];

/// Every slice of `a`, as bits.
fn slices<T: Copy, const D: usize>(
    a: &PochoirArray<T, D>,
    bits: impl Fn(T) -> Vec<u64>,
) -> Vec<Vec<u64>> {
    (0..a.time_slices() as i64)
        .map(|t| a.snapshot(t).into_iter().flat_map(&bits).collect())
        .collect()
}

fn f64_bits(v: f64) -> Vec<u64> {
    vec![v.to_bits()]
}

/// Every `D`-tuple of [`EXTENTS`] whose grid has at most 2¹⁷ cells.
fn geometries<const D: usize>() -> Vec<[usize; D]> {
    let mut out = Vec::new();
    for code in 0..EXTENTS.len().pow(D as u32) {
        let sizes: [usize; D] =
            std::array::from_fn(|d| EXTENTS[code / EXTENTS.len().pow(d as u32) % EXTENTS.len()]);
        if sizes.iter().product::<usize>() <= 1 << 17 {
            out.push(sizes);
        }
    }
    out
}

fn heat_matches_init_value<const D: usize>() {
    let geometries = geometries::<D>();
    assert!(
        geometries.iter().any(|s| s.contains(&127)),
        "{D}-D covers 127"
    );
    for sizes in geometries {
        let built = heat::build(sizes, Boundary::Periodic);
        let mut cells = PochoirArray::new(sizes);
        cells.fill_time_slice(0, |x| heat::init_value(sizes, x));
        assert_eq!(
            slices(&built, f64_bits),
            slices(&cells, f64_bits),
            "heat {sizes:?}"
        );
    }
}

#[test]
fn heat_build_is_init_value_in_one_to_four_dimensions() {
    heat_matches_init_value::<1>();
    heat_matches_init_value::<2>();
    heat_matches_init_value::<3>();
    heat_matches_init_value::<4>();
}

#[test]
fn wave_build_is_init_value_in_both_initial_slices() {
    for sizes in [[3, 5, 7], [64, 64, 64]] {
        let built = wave::build(sizes);
        let mut cells = PochoirArray::with_depth(sizes, 2);
        for t in [0, 1] {
            cells.fill_time_slice(t, |x| wave::init_value(sizes, x));
        }
        assert_eq!(
            slices(&built, f64_bits),
            slices(&cells, f64_bits),
            "wave {sizes:?}"
        );
    }
}

#[test]
fn lbm_build_is_initial_density_at_equilibrium() {
    let sizes = [9, 9, 9];
    let built = lbm::build(sizes);
    let mut cells: PochoirArray<lbm::Cell, 3> = PochoirArray::new(sizes);
    cells.fill_time_slice(0, |x| lbm::equilibrium_cell(lbm::initial_density(sizes, x)));
    let bits = |c: lbm::Cell| c.iter().map(|v| v.to_bits()).collect();
    assert_eq!(slices(&built, bits), slices(&cells, bits));
}

/// A buffer just over the first-touch size, with a length that splits into
/// no whole number of pages per worker, holds `value` everywhere, and so does
/// its clone.
fn check_first_touch<T: Copy + Send + Sync + PartialEq + std::fmt::Debug>(value: T) {
    let len = FIRST_TOUCH_BYTES / std::mem::size_of::<T>() * 3 + 13;
    let v = AlignedVec::filled(len, value);
    assert_eq!(v.len(), len);
    assert!(v.iter().all(|&e| e == value), "filled {value:?}");
    let c = v.clone();
    assert!(c[..] == v[..], "clone of {value:?}");
}

fn check_large_grid_clone() {
    let mut a: PochoirArray<f64, 2> = PochoirArray::new([1031, 600]);
    assert!(a.slice_len() * a.time_slices() * 8 > FIRST_TOUCH_BYTES);
    a.fill_time_slice(0, |x| (x[0] * 1000 + x[1]) as f64 + 0.5);
    a.fill_time_slice(1, |x| -(x[0] as f64) - 0.25);
    let c = a.clone();
    assert_eq!(slices(&c, f64_bits), slices(&a, f64_bits));
}

fn check_large_storage() {
    // The first touch rides only on a running pool; start it.
    Runtime::global();
    check_first_touch(1.5f64);
    check_first_touch(0xA5u8);
    check_large_grid_clone();
}

#[test]
fn large_storage_holds_its_fill_from_a_plain_thread() {
    std::thread::spawn(check_large_storage)
        .join()
        .expect("plain thread");
}

#[test]
fn large_storage_holds_its_fill_from_inside_a_pool_job() {
    Runtime::global().install(check_large_storage);
}

/// A worker of another pool must not block on the global one; it writes the
/// buffer itself.
#[test]
fn large_storage_holds_its_fill_from_another_pools_worker() {
    Runtime::new(2).install(check_large_storage);
}
