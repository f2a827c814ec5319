#!/usr/bin/env bash
# Entry point for the fuzz harnesses: the wire-decode surface
# (fuzz/envelope_fuzz.cpp -> fuzz/corpus/envelope) and the recovery-path
# surface — WAL log/snapshot parsers, blob codec and scheduler snapshot
# decoder (fuzz/wal_fuzz.cpp -> fuzz/corpus/wal).
#
# With clang available it builds the coverage-guided libFuzzer harnesses
# (+ASan) and runs, per harness: (1) a deterministic replay of the
# committed seed corpus, (2) a bounded exploration phase. Without clang it
# falls back to the standalone drivers and replays the corpora only — the
# same checks the `fuzz_corpus_replay` / `fuzz_wal_corpus_replay` ctest
# entries run on every build. The `fuzz_corpus_fresh` ctest also requires
# each committed seed to equal what `--generate` writes today.
#
# Usage:
#   tools/run_fuzz.sh                 # replay + 60 s exploration each
#   FUZZ_SECONDS=600 tools/run_fuzz.sh
#   tools/run_fuzz.sh --generate     # regenerate both seed corpora in place
set -euo pipefail

cd "$(dirname "$0")/.."
FUZZ_SECONDS=${FUZZ_SECONDS:-60}

declare -A CORPORA=(
  [envelope_fuzz]=fuzz/corpus/envelope
  [wal_fuzz]=fuzz/corpus/wal
)

if [[ "${1:-}" == "--generate" ]]; then
  BUILD_DIR=${BUILD_DIR:-build}
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target envelope_fuzz wal_fuzz
  for harness in "${!CORPORA[@]}"; do
    "$BUILD_DIR"/fuzz/"$harness" --generate "${CORPORA[$harness]}"
  done
  exit 0
fi

if command -v clang++ >/dev/null 2>&1; then
  BUILD_DIR=${BUILD_DIR:-build-fuzz}
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
    -DCOPERNICUS_LIBFUZZER=ON -DCOPERNICUS_SANITIZER=address >/dev/null
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target envelope_fuzz wal_fuzz
  for harness in "${!CORPORA[@]}"; do
    corpus=${CORPORA[$harness]}
    echo "== $harness: corpus replay (deterministic) =="
    "$BUILD_DIR"/fuzz/"$harness" -runs=0 "$corpus"
    echo "== $harness: exploration (${FUZZ_SECONDS}s) =="
    "$BUILD_DIR"/fuzz/"$harness" -max_total_time="$FUZZ_SECONDS" \
      -print_final_stats=1 "$corpus"
  done
else
  echo "clang not found: replaying committed corpora with the standalone drivers"
  BUILD_DIR=${BUILD_DIR:-build}
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target envelope_fuzz wal_fuzz
  for harness in "${!CORPORA[@]}"; do
    "$BUILD_DIR"/fuzz/"$harness" "${CORPORA[$harness]}"
  done
fi
