#!/usr/bin/env bash
# Prints the repository's two line counts, over the files git tracks:
#
#   rust    Rust lines outside `benchmark/` and `vendor/`, tests included.
#   src     Non-test Rust lines under `crates/*/src`: each file counted up to its
#           top-level `#[cfg(test)]` line (exclusive), or whole when it has none.
#
# Usage: bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

rust=$(git ls-files '*.rs' | grep -v '^benchmark/\|^vendor/' | xargs cat | wc -l)
src=$(git ls-files ':(glob)crates/*/src/**/*.rs' \
    | xargs awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n }')
echo "rust $rust"
echo "src $src"
