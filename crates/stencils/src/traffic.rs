//! Deterministic multi-tenant traffic helpers shared by the trace-replay harness
//! (`pochoir-bench`) and the network service (`pochoir-serve`).
//!
//! The whole "bitwise identical across serving paths" story rests on two
//! conventions that every harness must agree on:
//!
//! * **Tenant grids are pure functions of `(app, geometry, tenant)`** — a trace
//!   record carries no grid data, and a network client sends grids it built with
//!   these exact functions, so an in-process replay of a recorded trace
//!   reconstructs the very same inputs the live server saw.
//! * **The digest is FNV-1a over the IEEE bit patterns of the final two time
//!   slices** — "equal digest" means bitwise-equal grids, not approximately
//!   equal, and hashing both live slices makes the claim cover the full final
//!   state of depth-2 stencils like wave.
//!
//! These functions were born inside the replay harness; they live here so the
//! wire client, the live server's tests and the replay harness cannot drift
//! apart.

use pochoir_core::boundary::Boundary;
use pochoir_core::grid::PochoirArray;

use crate::{heat, life, wave};

/// Element types the traffic digest can see through.  Floats hash their IEEE
/// bit patterns, so "equal digest" means bitwise-equal grids, not
/// approximately-equal.
pub trait DigestBits: Copy {
    /// The element's canonical 64-bit pattern (IEEE bits for floats).
    fn digest_bits(self) -> u64;
}

impl DigestBits for f64 {
    fn digest_bits(self) -> u64 {
        self.to_bits()
    }
}

impl DigestBits for u8 {
    fn digest_bits(self) -> u64 {
        u64::from(self)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut hash: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over element bit patterns ([`DigestBits::digest_bits`]), in order —
/// the fold behind [`digest_grid`], and the one a network client runs over the
/// payload bytes of a fetched result, so both digests agree bit for bit.
pub fn digest_patterns(bits: impl IntoIterator<Item = u64>) -> u64 {
    bits.into_iter().fold(FNV_OFFSET, fnv_fold)
}

/// FNV-1a over the final two time slices of a drained grid (`t1 - 1` then `t1`) —
/// both slices of the cyclic buffer are live results for depth-2 stencils like
/// wave, and hashing both makes the bitwise claim cover the full final state.
/// Folds the rows where they lie, in snapshot order.
pub fn digest_grid<T: DigestBits, const D: usize>(grid: &PochoirArray<T, D>, t1: i64) -> u64 {
    digest_patterns(
        [(t1 - 1).max(0), t1]
            .into_iter()
            .flat_map(|t| grid.rows(t))
            .flatten()
            .map(|v| v.digest_bits()),
    )
}

/// Deterministic tenant grid for a heat geometry: the shared smooth-bump initial
/// condition plus a per-tenant hot spot.
pub fn heat_grid<const D: usize>(sizes: [usize; D], tenant: u32) -> PochoirArray<f64, D> {
    let mut a = heat::build(sizes, Boundary::Periodic);
    let mut spot = [0i64; D];
    for d in 0..D {
        spot[d] = i64::from(tenant) % sizes[d] as i64;
    }
    a.set(0, spot, 100.0 + f64::from(tenant));
    a
}

/// Deterministic tenant grid for a life geometry: the shared random soup, with
/// the tenant id folded into the fill seed.
pub fn life_grid(sizes: [usize; 2], tenant: u32) -> PochoirArray<u8, 2> {
    life::build(sizes, 300 + u64::from(tenant))
}

/// Deterministic wave grid: the shared centred pulse plus a per-tenant bump on
/// both time slices (the pulse starts at rest, so both slices carry it).
pub fn wave_grid(sizes: [usize; 3], tenant: u32) -> PochoirArray<f64, 3> {
    let mut a = wave::build(sizes);
    let spot = [
        i64::from(tenant) % sizes[0] as i64,
        i64::from(tenant) % sizes[1] as i64,
        i64::from(tenant) % sizes[2] as i64,
    ];
    let v = 1.5 + f64::from(tenant) * 0.25;
    a.set(0, spot, v);
    a.set(1, spot, v);
    a
}

/// Converts a trace geometry (`u64` extents) into the `[usize; D]` form the
/// serve presets take.  Panics if the geometry has fewer than `D` extents.
pub fn usizes<const D: usize>(geometry: &[u64]) -> [usize; D] {
    let mut sizes = [0usize; D];
    for (d, &g) in geometry.iter().enumerate().take(D) {
        sizes[d] = g as usize;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference form: FNV-1a written out over two `snapshot` copies.
    fn snapshot_digest<T: DigestBits, const D: usize>(grid: &PochoirArray<T, D>, t1: i64) -> u64 {
        let mut hash = FNV_OFFSET;
        for slice in [grid.snapshot((t1 - 1).max(0)), grid.snapshot(t1)] {
            for v in slice {
                for byte in v.digest_bits().to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(FNV_PRIME);
                }
            }
        }
        hash
    }

    #[test]
    fn digest_is_order_sensitive_and_bitwise() {
        assert_ne!(digest_patterns([1, 2]), digest_patterns([2, 1]));
        // -0.0 == 0.0 numerically but differs bitwise; the digest must see that.
        assert_ne!(
            digest_patterns([0.0f64.digest_bits()]),
            digest_patterns([(-0.0f64).digest_bits()])
        );
    }

    /// Folding rows in place is the snapshot digest bit for bit: `f64` with NaN
    /// payloads and -0.0, `u8`, D = 1/2/3, row lengths on both sides of the
    /// 64-byte pad, and `t1 = 0` (slice 0 twice).
    #[test]
    fn grid_digest_equals_the_snapshot_digest() {
        const ODD: [u64; 4] = [0x7FF8_0000_0000_0001, 0x8000_0000_0000_0000, 1, u64::MAX];
        let f = |x: &[i64]| {
            let i = x.iter().fold(7i64, |h, &c| h * 31 + c) as u64;
            match i % 5 {
                0 => f64::from_bits(ODD[(i / 5 % 4) as usize]),
                _ => i as f64 * 0.37 - 11.0,
            }
        };
        let b = |x: &[i64]| x.iter().fold(3i64, |h, &c| h * 17 + c) as u8;
        for n in [1, 5, 8, 13, 64, 70] {
            let mut g1 = PochoirArray::<f64, 1>::new([n]);
            let mut g2 = PochoirArray::<f64, 2>::new([3, n]);
            let mut g3 = PochoirArray::<f64, 3>::with_depth([2, 3, n], 2);
            let mut u1 = PochoirArray::<u8, 1>::new([n]);
            let mut u2 = PochoirArray::<u8, 2>::new([4, n]);
            let mut u3 = PochoirArray::<u8, 3>::new([2, 3, n]);
            for t in 0..3 {
                g1.fill_time_slice(t, |x| f(&[t, x[0]]));
                g2.fill_time_slice(t, |x| f(&[t, x[0], x[1]]));
                g3.fill_time_slice(t, |x| f(&[t, x[0], x[1], x[2]]));
                u1.fill_time_slice(t, |x| b(&[t, x[0]]));
                u2.fill_time_slice(t, |x| b(&[t, x[0], x[1]]));
                u3.fill_time_slice(t, |x| b(&[t, x[0], x[1], x[2]]));
            }
            for t1 in [0, 1, 2] {
                assert_eq!(digest_grid(&g1, t1), snapshot_digest(&g1, t1));
                assert_eq!(digest_grid(&g2, t1), snapshot_digest(&g2, t1));
                assert_eq!(digest_grid(&g3, t1), snapshot_digest(&g3, t1));
                assert_eq!(digest_grid(&u1, t1), snapshot_digest(&u1, t1));
                assert_eq!(digest_grid(&u2, t1), snapshot_digest(&u2, t1));
                assert_eq!(digest_grid(&u3, t1), snapshot_digest(&u3, t1));
            }
        }
    }

    #[test]
    fn tenant_grids_are_reproducible() {
        let a = heat_grid([8, 8], 5);
        let b = heat_grid([8, 8], 5);
        assert_eq!(a.snapshot(0), b.snapshot(0));
        let c = heat_grid([8, 8], 6);
        assert_ne!(a.snapshot(0), c.snapshot(0));
        assert_eq!(
            life_grid([6, 6], 2).snapshot(0),
            life_grid([6, 6], 2).snapshot(0)
        );
        assert_eq!(
            wave_grid([4, 4, 4], 1).snapshot(1),
            wave_grid([4, 4, 4], 1).snapshot(1)
        );
    }
}
