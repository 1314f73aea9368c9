//! The AVX2 side of the row kernels, behind the process-wide dispatch of
//! [`pochoir_core::simd`].
//!
//! Heat and wave have no vector body of their own: each keeps one
//! `#[inline(always)]` row loop, and a named `#[target_feature(enable = "avx2")]`
//! copy next to it lets LLVM vectorize that same loop four lanes wide.  Because
//! LLVM neither reassociates nor contracts floating-point operations, the AVX2
//! copy is bitwise-equal to the baseline build — the Pochoir Guarantee holds for
//! both.  The kernels ask `avx2_row` which copy a row takes.
//!
//! Life is the exception: LLVM does not turn its byte loop's `match` into the
//! branch-free rule, so compiled for AVX2 it gains ≈ 1.1× over the baseline build,
//! while the hand-written body below (the rule over 32 cells per vector) runs
//! ≈ 1.5× faster than that copy (docs/performance.md).  `life_row` runs it over a
//! row's whole vectors and leaves the tail to the kernel's scalar loop.

use pochoir_core::prelude::RowWriter;

/// True when this run dispatches rows to AVX2 (the plan's policy, resolved
/// against host detection by the executor); counts the row for the
/// [`rows_snapshot`](pochoir_core::simd::rows_snapshot) probe when it is.
/// [`active`](pochoir_core::simd::active) never reports AVX2 on a host without
/// it, so a `true` here is what makes calling an AVX2 copy sound.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn avx2_row() -> bool {
    let on = pochoir_core::simd::active().is_some();
    if on {
        pochoir_core::simd::note_row();
    }
    on
}

/// Writes the leading whole 32-cell vectors of a Life row with the AVX2 body when
/// this run dispatches to AVX2, and returns how many cells it wrote (0 otherwise);
/// the kernel's scalar loop finishes the row from there.  `up`/`mid`/`down` are
/// the three extended Moore rows (`n + 2` each).
#[inline]
pub(crate) fn life_row(
    up: &[u8],
    mid: &[u8],
    down: &[u8],
    out: &mut RowWriter<'_, u8>,
    n: usize,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if avx2_row() {
        // Safety: `avx2_row` is true only when host detection found AVX2.
        return unsafe { life_row_avx2(up, mid, down, out, n) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (up, mid, down, out, n);
    0
}

/// The 8-neighbour byte sum and the branch-free rule
/// `next = (n == 3) | (alive & n == 2)`, which is exactly the truth table of
/// `LifeKernel`'s scalar match, 32 cells per iteration.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn life_row_avx2(
    up: &[u8],
    mid: &[u8],
    down: &[u8],
    out: &mut RowWriter<'_, u8>,
    n: usize,
) -> usize {
    use std::arch::x86_64::*;
    const L: usize = 32;
    assert!(up.len() >= n + 2 && mid.len() >= n + 2 && down.len() >= n + 2 && out.len() >= n);
    let ones = _mm256_set1_epi8(1);
    let twos = _mm256_set1_epi8(2);
    let threes = _mm256_set1_epi8(3);
    // Safety: every load reads `row[j..j + L]` with `j ≤ i + 2` and `i + L ≤ n`,
    // inside the asserted `n + 2` elements.
    let at = |row: &[u8], j: usize| unsafe { _mm256_loadu_si256(row.as_ptr().add(j).cast()) };
    let mut i = 0usize;
    while i + L <= n {
        let mut nb = at(up, i);
        nb = _mm256_add_epi8(nb, at(up, i + 1));
        nb = _mm256_add_epi8(nb, at(up, i + 2));
        nb = _mm256_add_epi8(nb, at(mid, i));
        nb = _mm256_add_epi8(nb, at(mid, i + 2));
        nb = _mm256_add_epi8(nb, at(down, i));
        nb = _mm256_add_epi8(nb, at(down, i + 1));
        nb = _mm256_add_epi8(nb, at(down, i + 2));
        let alive = _mm256_cmpeq_epi8(at(mid, i + 1), ones);
        let eq2 = _mm256_cmpeq_epi8(nb, twos);
        let eq3 = _mm256_cmpeq_epi8(nb, threes);
        let next = _mm256_and_si256(_mm256_or_si256(eq3, _mm256_and_si256(alive, eq2)), ones);
        // Safety: `i + L ≤ n ≤ out.len()`, so the store stays inside the row.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), next) };
        i += L;
    }
    i
}
