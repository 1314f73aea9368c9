#!/usr/bin/env bash
# AddressSanitizer over the code whose memory safety rests on `unsafe`: the grid and
# view row accessors (ghost rows included) and the explicit-SIMD row kernels.
#
# Runs the core unit tests, the row/point and schedule equivalence suites and the SIMD
# equivalence suite, once on the scalar row loops and once with AVX2 forced; then the
# wire codec's property suite and the live end-to-end test once, since the codec
# streams straight into and out of `AlignedVec`-backed rows (`rows_mut`).  Needs a
# nightly toolchain (for `-Zsanitizer`); the sanitizer runtime ships with it, so no
# `-Zbuild-std` and no network.  Exits non-zero on a failing test or an ASan report.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# An explicit --target keeps RUSTFLAGS off build scripts and proc macros.
target=x86_64-unknown-linux-gnu
export RUSTFLAGS="-Zsanitizer=address"

for simd in off avx2; do
    echo "== AddressSanitizer, POCHOIR_SIMD=$simd"
    export POCHOIR_SIMD="$simd"
    cargo +nightly test --offline --target "$target" -p pochoir-core \
        --lib --test row_point_equivalence --test schedule_equivalence
    cargo +nightly test --offline --target "$target" -p pochoir-stencils \
        --test simd_equivalence
done

echo "== AddressSanitizer, the wire codec over grid rows"
unset POCHOIR_SIMD
cargo +nightly test --offline --target "$target" -p pochoir-serve \
    --test protocol_properties --test e2e
