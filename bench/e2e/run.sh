#!/usr/bin/env bash
# End-to-end adaptive-pipeline benchmark: builds bench/e2e in Release
# (into build-e2e/ at the repository root) and runs it.
#
#   bench/e2e/run.sh [--out FILE]
#       the suite: 5 interleaved rounds, each with an untraced and a traced
#       run of every workload; prints every metric with its unit and writes
#       build-e2e/BENCH_e2e.json (or FILE)
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#       one measured run; the last stdout line is the JSON result
#   bench/e2e/run.sh --smoke
#       tiny versions of the four workloads with every correctness check
#
# Build output goes to stderr so stdout carries only results.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cpus="$(nproc)"
jobs=$(( cpus < 4 ? cpus : 4 ))
cmake --build "$build" --target e2e_bench -j "$jobs" >&2

exec "$build/e2e_bench" --scratch "$build" "$@"
