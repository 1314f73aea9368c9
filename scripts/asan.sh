#!/usr/bin/env bash
# AddressSanitizer over the code whose memory safety rests on `unsafe`: the work-stealing
# pool, the grid and view row accessors (ghost rows and padded copies included) and the
# AVX2 rows.
#
# Runs the runtime's unit tests and its stress suite first: a `join` hands a thief a
# pointer to a job on the forking worker's stack (`job.rs`), a caller outside the pool
# hands it raw pointers into its own frame and workers are found through a thread-local
# raw pointer (`registry.rs`), and `pool.rs` dereferences them.  Then
# the core unit tests, the row/point and schedule equivalence suites (padded
# boundary leaves hand out row slices of their copy and `RowWriter`s into the grid) and
# the SIMD equivalence suite — which runs every case under both `SimdPolicy::Scalar` and
# `SimdPolicy::Auto`, so the compiled AVX2 copies of the heat and wave row loops and
# Life's hand-written AVX2 body run on an AVX2 host — plus the benchmark geometries'
# boundary paths, both of them, through the real row kernels; then the wire codec's
# property suite and the live wire suites (end to end, frame and byte counts per request
# and per reply read, resource limits, bulk buffers), since the socket reads straight
# into and writes straight out of
# `AlignedVec` storage through the grid's `unsafe` byte view (`slice_bytes_mut`,
# `as_bytes_mut`), the server refills a connection's last result array, and the
# client keeps each result until it is fetched.  The shard suites ride along: their giant
# route runs the whole grid through the same rows, and the explicit tile path's
# scatter, gather and halo exchange are slab-span arithmetic over the same storage
# (gather writes through `row_bands_mut`'s split), with tile arrays reused across
# `run_sharded` ops.
# Needs a nightly toolchain (for `-Zsanitizer`); the sanitizer runtime ships with it,
# so no `-Zbuild-std` and no network.  Exits non-zero on a failing test or an ASan report.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# An explicit --target keeps RUSTFLAGS off build scripts and proc macros.
target=x86_64-unknown-linux-gnu
export RUSTFLAGS="-Zsanitizer=address"

echo "== AddressSanitizer, the work-stealing pool: stack jobs, latches, worker pointers"
cargo +nightly test --offline --target "$target" -p pochoir-runtime --lib --test stress

echo "== AddressSanitizer, row accessors and row kernels"
cargo +nightly test --offline --target "$target" -p pochoir-core \
    --lib --test row_point_equivalence --test schedule_equivalence
cargo +nightly test --offline --target "$target" -p pochoir-stencils \
    --test simd_equivalence --test boundary_paths

echo "== AddressSanitizer, giants whole and as tiles: span arithmetic, row bands, reused tile arrays"
cargo +nightly test --offline --target "$target" -p pochoir-core \
    --test shard_equivalence --test shard_properties --test shard_buffers

echo "== AddressSanitizer, the wire codec over grid storage bytes"
cargo +nightly test --offline --target "$target" -p pochoir-serve \
    --test protocol_properties --test e2e --test wire_cost --test limits --test wire_buffers \
    --test reply_count
