#!/usr/bin/env bash
# The benchmark's one command.  Builds the harness (release, offline) and runs it.
#
#   benchmark/run.sh                       every workload end to end -> benchmark/out/results.json
#   benchmark/run.sh all --seed 7          the same, on another seed
#   benchmark/run.sh trace                 every workload traced -> out/results-trace.json, out/trace-*.json
#   benchmark/run.sh aa [--seed N]         the suite twice on one build, compared against the bounds
#   benchmark/run.sh --smoke               every workload with 1 s regions (for CI)
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                          one workload in one process; the last stdout line is the result
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
case "${1:-}" in
"") set -- all ;;
--smoke) shift; set -- all --seconds 1 "$@" ;;
esac
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
