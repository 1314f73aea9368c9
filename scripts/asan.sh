#!/usr/bin/env bash
# AddressSanitizer over the code whose memory safety rests on `unsafe`: the grid and
# view row accessors (ghost rows included) and the AVX2 rows.
#
# Runs the core unit tests, the row/point and schedule equivalence suites and the SIMD
# equivalence suite — which runs every case under both `SimdPolicy::Scalar` and
# `SimdPolicy::Auto`, so the compiled AVX2 copies of the heat and wave row loops and
# Life's hand-written AVX2 body run on an AVX2 host; then the wire codec's property
# suite and the live end-to-end test, since the codec streams straight into and out
# of `AlignedVec`-backed rows (`rows_mut`).  The shard suites ride along: tile scatter,
# gather and halo exchange are slab-span arithmetic over the same storage (gather
# writes through `row_bands_mut`'s split), and the tile arrays are reused across runs.
# Needs a nightly toolchain (for `-Zsanitizer`); the sanitizer runtime ships with it,
# so no `-Zbuild-std` and no network.  Exits non-zero on a failing test or an ASan report.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# An explicit --target keeps RUSTFLAGS off build scripts and proc macros.
target=x86_64-unknown-linux-gnu
export RUSTFLAGS="-Zsanitizer=address"

echo "== AddressSanitizer, row accessors and row kernels"
cargo +nightly test --offline --target "$target" -p pochoir-core \
    --lib --test row_point_equivalence --test schedule_equivalence
cargo +nightly test --offline --target "$target" -p pochoir-stencils \
    --test simd_equivalence

echo "== AddressSanitizer, shard tiles: span arithmetic, row bands, reused tile arrays"
cargo +nightly test --offline --target "$target" -p pochoir-core \
    --test shard_equivalence --test shard_properties --test shard_buffers

echo "== AddressSanitizer, the wire codec over grid rows"
cargo +nightly test --offline --target "$target" -p pochoir-serve \
    --test protocol_properties --test e2e
