#!/usr/bin/env bash
# Builds and runs the microbenchmarks, emitting google-benchmark JSON to
# BENCH_micro_md.json, BENCH_micro_msm.json and BENCH_micro_sched.json in
# the repo root so the perf trajectory — kernel flavors x SIMD ISAs x
# thread counts, MSM rebuild modes, scheduler flavors x queue depths — is
# tracked PR over PR. Then runs the macro benches and, last, the
# end-to-end suite (bench/e2e/run.sh, into build-e2e/BENCH_e2e.json),
# which bench/e2e/bench_diff.py compares with the committed
# bench/e2e/BENCH_e2e.json: a regression exits nonzero.
#
# Usage:
#   tools/run_bench.sh                 # full sweep
#   FILTER=BM_NonbondedKernel tools/run_bench.sh
#   BUILD_DIR=build-release tools/run_bench.sh -- --benchmark_min_time=0.1
#   tools/run_bench.sh --allow-debug   # explicitly bless a non-Release dir
#
# Refuses to run from a non-Release build directory unless --allow-debug
# is given: debug-build timings silently committed as BENCH_*.json would
# poison the PR-over-PR trajectory. Every emitted JSON is stamped with
# the build type and the detected SIMD ISA so results stay
# self-describing after they leave this machine.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
FILTER=${FILTER:-.}

allow_debug=0
extra=()
for arg in "$@"; do
  case "$arg" in
    --allow-debug) allow_debug=1 ;;
    --) ;;
    *) extra+=("$arg") ;;
  esac
done

# Fresh dirs are configured Release; an existing dir keeps its cached
# build type (so BUILD_DIR=build-debug genuinely trips the gate below
# instead of being silently reconfigured).
if [[ -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  cmake -B "$BUILD_DIR" -S . >/dev/null
else
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
fi

build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt")
build_type=${build_type:-unset}
if [[ "$build_type" != "Release" && $allow_debug -ne 1 ]]; then
  echo "error: $BUILD_DIR is a '$build_type' build; benchmark numbers from" >&2
  echo "non-Release builds are meaningless. Re-run with --allow-debug to" >&2
  echo "override, or point BUILD_DIR at a Release tree." >&2
  exit 1
fi

cmake --build "$BUILD_DIR" -j"$(nproc)" --target micro_md micro_msm micro_sched \
  micro_store macro_overlay macro_tenancy

simd_isa=$("$BUILD_DIR"/bench/micro_md --print-simd-isa)
echo "build type: $build_type, detected SIMD ISA: $simd_isa"

# Repetitions + random interleaving for micro_md: the SIMD headline is a
# ratio of two benchmarks that would otherwise run minutes apart, and on
# a shared host the load drifts on that timescale. Interleaved
# repetitions spread any slow phase across every benchmark, so the
# medians compare like with like.
"$BUILD_DIR"/bench/micro_md \
  --benchmark_filter="$FILTER" \
  --benchmark_repetitions=3 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_out=BENCH_micro_md.json \
  --benchmark_out_format=json \
  "${extra[@]+"${extra[@]}"}"

"$BUILD_DIR"/bench/micro_msm \
  --benchmark_filter="$FILTER" \
  --benchmark_out=BENCH_micro_msm.json \
  --benchmark_out_format=json \
  "${extra[@]+"${extra[@]}"}"

"$BUILD_DIR"/bench/micro_sched \
  --benchmark_filter="$FILTER" \
  --benchmark_out=BENCH_micro_sched.json \
  --benchmark_out_format=json \
  "${extra[@]+"${extra[@]}"}"

# Data-plane microbenchmarks: tiered-store bounded-RSS experiment (1M
# commands vs the RAM cap), codec ratio/throughput on a real checkpoint,
# and WAL append/replay throughput. Writes BENCH_micro_store.json itself
# and exits nonzero if any gate (bounded RSS, ratio > 1, lossless replay)
# fails.
"$BUILD_DIR"/bench/micro_store

# Macro overlay-throughput harness (closed-loop command mill + sparse
# trickle, batched vs unbatched, plus the WAL-on/off A/B tax leg).
# Writes BENCH_macro_overlay.json itself.
"$BUILD_DIR"/bench/macro_overlay

# Multi-tenant scheduling-plane study (10k workers x 100 projects,
# weighted DRR, admission, single-tenant parity). Must run after
# macro_overlay: it reads BENCH_macro_overlay.json as the parity
# baseline. Writes BENCH_macro_tenancy.json itself. Slow (~7 min).
"$BUILD_DIR"/bench/macro_tenancy

# Stamp build type + detected ISA into every JSON (micro_md carries them
# natively via benchmark context; the others get them injected here so a
# lone file is still self-describing).
if command -v python3 >/dev/null 2>&1; then
  COP_BUILD_TYPE="$build_type" COP_SIMD_ISA="$simd_isa" python3 - <<'EOF'
import json, os
stamp = {"cop_build_type": os.environ["COP_BUILD_TYPE"],
         "cop_simd_isa_detected": os.environ["COP_SIMD_ISA"]}
for path in ("BENCH_micro_md.json", "BENCH_micro_msm.json",
             "BENCH_micro_sched.json", "BENCH_micro_store.json",
             "BENCH_macro_overlay.json", "BENCH_macro_tenancy.json"):
    try:
        with open(path) as f:
            d = json.load(f)
    except (OSError, ValueError):
        continue
    if "context" in d and isinstance(d["context"], dict):
        d["context"].update(stamp)
    else:
        d.update(stamp)
    with open(path, "w") as f:
        json.dump(d, f, indent=1)
        f.write("\n")
EOF
fi

echo "Wrote BENCH_micro_md.json, BENCH_micro_msm.json, BENCH_micro_sched.json, BENCH_micro_store.json, BENCH_macro_overlay.json and BENCH_macro_tenancy.json"

# Headline for the SIMD kernel tier: runtime-dispatched widest ISA vs the
# width-1 SoA baseline at N=10000 (single thread, uncharged + charged).
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF' || true
import json
with open("BENCH_micro_md.json") as f:
    runs = json.load(f).get("benchmarks", [])
def real(name):
    # Prefer the median aggregate when the run was recorded with
    # repetitions; fall back to the single-run entry.
    for b in runs:
        if b.get("name", "") == name + "_median":
            return b.get("real_time")
    for b in runs:
        if b.get("name", "") == name:
            return b.get("real_time")
    return None
isas = [b["name"].split("/")[1].split(":")[1]
        for b in runs
        if b.get("name", "").startswith("BM_NonbondedIsa/")]
widest = isas[-1] if isas else None
for charged in (0, 1):
    soa = real(f"BM_NonbondedIsa/isa:soa/atoms:10000/charged:{charged}")
    simd = real(f"BM_NonbondedIsa/isa:{widest}/atoms:10000/charged:{charged}")
    if soa and simd:
        kind = "charged" if charged else "uncharged"
        print(f"simd {kind} @1e4 atoms: soa {soa/1e6:.2f} ms, "
              f"{widest} {simd/1e6:.2f} ms ({soa/simd:.2f}x)")
EOF
fi

# Headline for the adaptive-MSM sweep: from-scratch rebuild vs incremental
# update of the same generation (BM_MsmFullGeneration / gen:N against
# BM_MsmIncrementalGeneration / gen:N, single-threaded).
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF' || true
import json
with open("BENCH_micro_msm.json") as f:
    runs = json.load(f).get("benchmarks", [])
def real(name):
    for b in runs:
        if b.get("name", "").startswith(name):
            return b.get("real_time")
    return None
for gen in (4, 8):
    full = real(f"BM_MsmFullGeneration/gen:{gen}")
    inc = real(f"BM_MsmIncrementalGeneration/gen:{gen}")
    if full and inc:
        print(f"msm gen {gen}: full {full:.1f} ms, incremental {inc:.1f} ms "
              f"({full / inc:.1f}x)")
EOF
fi

# Headline for the overlay transport: wall-clock commands/sec with
# envelope coalescing on vs off, plus the sparse-load ack-latency check.
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF' || true
import json
with open("BENCH_macro_overlay.json") as f:
    d = json.load(f)
hot = d["hot"]
on, off = hot["batched"], hot["unbatched"]
print(f"overlay hot: {on['wall_commands_per_sec']:.0f} cps batched vs "
      f"{off['wall_commands_per_sec']:.0f} cps unbatched "
      f"({hot['wall_speedup']:.2f}x, {hot['frame_reduction']*100:.1f}% fewer frames)")
sp = d["sparse"]
print(f"overlay sparse: ack p99 {sp['batched']['ack_latency_p99_s']:.4f}s batched vs "
      f"{sp['unbatched']['ack_latency_p99_s']:.4f}s unbatched")
EOF
fi

# Headline for the data plane: bounded RSS under 1M commands, codec ratio
# on a real checkpoint, and the WAL-on/off hot-path tax (gate >= 0.95).
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF' || true
import json
with open("BENCH_micro_store.json") as f:
    d = json.load(f)
s, c, w = d["store"], d["codec"], d["wal"]
print(f"store: {s['commands']} commands, {s['raw_total_mb']:.0f} MB raw under a "
      f"{s['ram_cap_mb']:.0f} MB cap -> RSS delta {s['rss_delta_mb']:.0f} MB "
      f"(bounded: {s['rss_bounded']})")
print(f"codec: {c['compression_ratio']:.2f}x on a real checkpoint, "
      f"{c['encode_mb_per_sec']:.0f}/{c['decode_mb_per_sec']:.0f} MB/s enc/dec")
print(f"wal: {w['appends_per_sec']:.0f} appends/s, "
      f"{w['records_per_sync']:.0f} records/fdatasync, "
      f"{w['replays_per_sec']:.0f} replays/s")
with open("BENCH_macro_overlay.json") as f:
    o = json.load(f)
ab = o.get("wal_ab", {})
if ab:
    print(f"wal tax (overlay hot): {ab['wal_tax_cps_ratio']:.4f}x cps "
          f"(gate >= {ab['wal_tax_gate']})")
with open("BENCH_macro_tenancy.json") as f:
    t = json.load(f)
ab = t.get("wal_ab", {})
if ab:
    print(f"wal tax (tenancy): {ab['wal_tax_cps_ratio']:.4f}x cps "
          f"(gate >= {ab['wal_tax_gate']})")
EOF
fi

# Headline for the multi-tenant plane: flagship fairness + claim latency,
# weighted shares, and single-tenant parity with macro_overlay.
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF' || true
import json
with open("BENCH_macro_tenancy.json") as f:
    d = json.load(f)
t = d["tenancy"]
print(f"tenancy: {t['workers']} workers x {t['projects']} tenants, "
      f"Jain {t['jain_fairness_midrun']:.4f}, claim p50/p99 "
      f"{t['claim_latency_p50_s']:.3f}s/{t['claim_latency_p99_s']:.3f}s")
w = d["weighted"]
print(f"weighted: shares {['%.3f' % s for s in w['midrun_shares']]} vs "
      f"expected {['%.3f' % s for s in w['expected_shares']]} "
      f"(max err {w['max_share_error']:.3f})")
s = d["single_tenant"]
print(f"single-tenant parity: {s['sim_commands_per_sec']:.2f} sim cps vs "
      f"overlay {s['baseline_sim_commands_per_sec']:.2f} "
      f"(ratio {s['ratio_vs_macro_overlay']:.4f}, "
      f"within 5%: {s['within_5pct']})")
EOF
fi

# Headline for the scheduler: legacy linear-scan claim vs indexed claim at
# 1e4 pending commands (the ISSUE's >= 10x acceptance point).
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF' || true
import json
with open("BENCH_micro_sched.json") as f:
    runs = json.load(f).get("benchmarks", [])
def real(name):
    for b in runs:
        if b.get("name", "") == name:
            return b.get("real_time")
    return None
for op in ("Claim", "Requeue", "Checkpoint"):
    for exes in (4, 16):
        new = real(f"BM_Sched{op}Indexed/pending:10000/exes:{exes}")
        old = real(f"BM_Sched{op}Legacy/pending:10000/exes:{exes}")
        if new and old:
            print(f"sched {op.lower()} @1e4 pending, {exes} exes: "
                  f"legacy {old / 1e3:.1f} us, indexed {new / 1e3:.1f} us "
                  f"({old / new:.1f}x)")
EOF
fi

# End-to-end adaptive pipeline (bench/e2e, 5-8 min), compared with the
# committed baseline; bench_diff.py exits nonzero on any regression.
bench/e2e/run.sh --out build-e2e/BENCH_e2e.json
python3 bench/e2e/bench_diff.py bench/e2e/BENCH_e2e.json build-e2e/BENCH_e2e.json
