#!/usr/bin/env bash
# Builds and runs the benchmarks and re-captures their JSON in the repo
# root, so the perf trajectory — kernel flavors x SIMD ISAs x thread
# counts, MSM rebuild modes, scheduler flavors x queue depths, the data
# plane and the macro harnesses — is tracked change over change. Each
# bench rewrites only its own file:
#
#   micro_md       BENCH_micro_md.json
#   micro_msm      BENCH_micro_msm.json
#   micro_sched    BENCH_micro_sched.json
#   micro_store    BENCH_micro_store.json (writes ~2.8 GB to $TMPDIR)
#   macro_overlay  BENCH_macro_overlay.json
#   macro_tenancy  BENCH_macro_tenancy.json (reads BENCH_macro_overlay.json
#                  as its single-tenant parity baseline; ~7 min)
#   e2e            the end-to-end suite (bench/e2e/run.sh, 5-8 min) into
#                  build-e2e/BENCH_e2e.json, which bench/e2e/bench_diff.py
#                  compares with the committed bench/e2e/BENCH_e2e.json: a
#                  regression exits nonzero
#
# Usage:
#   tools/run_bench.sh                     # full sweep, all seven in order
#   tools/run_bench.sh micro_msm           # re-capture one file
#   tools/run_bench.sh micro_md micro_sched -- --benchmark_min_time=0.1
#   BUILD_DIR=build-release tools/run_bench.sh micro_md
#   tools/run_bench.sh --allow-debug       # explicitly bless a non-Release dir
#
# Arguments after `--` go to the google-benchmark binaries (micro_md,
# micro_msm, micro_sched). `--benchmark_filter` and `--smoke` are
# refused: a filtered run would overwrite a committed file with a subset
# of its rows.
#
# Refuses to run from a non-Release build directory unless --allow-debug
# is given: debug-build timings silently committed as BENCH_*.json would
# poison the PR-over-PR trajectory. Every emitted JSON is stamped with
# the build type and the detected SIMD ISA so results stay
# self-describing after they leave this machine.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}

if [[ -n "${FILTER:-}" ]]; then
  echo "error: FILTER is not supported: a filtered run would overwrite a" >&2
  echo "committed file with a subset of its rows. Name the benches to" >&2
  echo "re-capture instead, or run a benchmark binary directly." >&2
  exit 2
fi

all_benches=(micro_md micro_msm micro_sched micro_store macro_overlay
  macro_tenancy e2e)
allow_debug=0
benches=()
extra=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --allow-debug) allow_debug=1 ;;
    --) shift; extra=("$@"); break ;;
    *)
      if [[ " ${all_benches[*]} " != *" $1 "* ]]; then
        echo "error: unknown bench '$1' (one of: ${all_benches[*]})" >&2
        exit 2
      fi
      benches+=("$1") ;;
  esac
  shift
done
for arg in "${extra[@]+"${extra[@]}"}"; do
  if [[ "$arg" == --benchmark_filter* || "$arg" == --smoke ]]; then
    echo "error: $arg would overwrite a committed file with a subset of" >&2
    echo "its rows; run the benchmark binary directly instead." >&2
    exit 2
  fi
done
[[ ${#benches[@]} -eq 0 ]] && benches=("${all_benches[@]}")

selected() { [[ " ${benches[*]} " == *" $1 "* ]]; }

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

# The e2e suite builds its own tree (build-e2e/); every other bench is a
# target here. micro_md is always built: it reports the SIMD ISA stamp.
targets=(micro_md)
for b in "${benches[@]}"; do
  [[ "$b" != e2e && "$b" != micro_md ]] && targets+=("$b")
done
written=()
if [[ "${benches[*]}" != e2e ]]; then
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${targets[@]}"

  simd_isa=$("$BUILD_DIR"/bench/micro_md --print-simd-isa)
  echo "build type: $build_type, detected SIMD ISA: $simd_isa"

  # Repetitions + random interleaving for micro_md: the SIMD headline is a
  # ratio of two benchmarks that would otherwise run minutes apart, and on
  # a shared host the load drifts on that timescale. Interleaved
  # repetitions spread any slow phase across every benchmark, so the
  # medians compare like with like.
  if selected micro_md; then
    "$BUILD_DIR"/bench/micro_md \
      --benchmark_repetitions=3 \
      --benchmark_enable_random_interleaving=true \
      --benchmark_out=BENCH_micro_md.json \
      --benchmark_out_format=json \
      "${extra[@]+"${extra[@]}"}"
    written+=(BENCH_micro_md.json)
  fi

  for b in micro_msm micro_sched; do
    selected "$b" || continue
    "$BUILD_DIR/bench/$b" \
      --benchmark_out="BENCH_$b.json" \
      --benchmark_out_format=json \
      "${extra[@]+"${extra[@]}"}"
    written+=("BENCH_$b.json")
  done

  # These three write their own BENCH_<name>.json. micro_store: the
  # tiered-store bounded-RSS experiment (1M commands vs the RAM cap),
  # codec ratio/throughput on a real checkpoint and WAL append/replay
  # throughput; it exits nonzero if any gate (bounded RSS, ratio > 1,
  # lossless replay) fails. macro_overlay: the closed-loop command mill +
  # sparse trickle, batched vs unbatched, plus the WAL-on/off A/B tax leg.
  # macro_tenancy: the multi-tenant scheduling-plane study (10k workers x
  # 100 projects, weighted DRR, admission, single-tenant parity); it runs
  # after macro_overlay because it reads BENCH_macro_overlay.json.
  for b in micro_store macro_overlay macro_tenancy; do
    selected "$b" || continue
    "$BUILD_DIR/bench/$b"
    written+=("BENCH_$b.json")
  done

  # Stamp build type + detected ISA into every JSON just written (micro_md
  # carries them natively via benchmark context; the others get them
  # injected here so a lone file is still self-describing).
  if command -v python3 >/dev/null 2>&1; then
    COP_BUILD_TYPE="$build_type" COP_SIMD_ISA="$simd_isa" \
      python3 - "${written[@]}" <<'EOF'
import json, os, sys
stamp = {"cop_build_type": os.environ["COP_BUILD_TYPE"],
         "cop_simd_isa_detected": os.environ["COP_SIMD_ISA"]}
for path in sys.argv[1:]:
    with open(path) as f:
        d = json.load(f)
    if "context" in d and isinstance(d["context"], dict):
        d["context"].update(stamp)
    else:
        d.update(stamp)
    with open(path, "w") as f:
        json.dump(d, f, indent=1)
        f.write("\n")
EOF
  fi

  echo "Wrote ${written[*]}"
fi

# Headline for the SIMD kernel tier: runtime-dispatched widest ISA vs the
# width-1 SoA baseline at N=10000 (single thread, uncharged + charged).
if selected micro_md && command -v python3 >/dev/null 2>&1; then
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
if selected micro_msm && command -v python3 >/dev/null 2>&1; then
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
# envelope coalescing on vs off, the sparse-load ack-latency check, and
# the WAL-on/off hot-path tax (gate >= 0.95).
if selected macro_overlay && command -v python3 >/dev/null 2>&1; then
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
ab = d.get("wal_ab", {})
if ab:
    print(f"wal tax (overlay hot): {ab['wal_tax_cps_ratio']:.4f}x cps "
          f"(gate >= {ab['wal_tax_gate']})")
EOF
fi

# Headline for the data plane: bounded RSS under 1M commands, codec ratio
# on a real checkpoint, and WAL append/replay throughput.
if selected micro_store && command -v python3 >/dev/null 2>&1; then
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
EOF
fi

# Headline for the multi-tenant plane: flagship fairness + claim latency,
# weighted shares, single-tenant parity with macro_overlay, and the
# WAL-on/off tax.
if selected macro_tenancy && command -v python3 >/dev/null 2>&1; then
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
ab = d.get("wal_ab", {})
if ab:
    print(f"wal tax (tenancy): {ab['wal_tax_cps_ratio']:.4f}x cps "
          f"(gate >= {ab['wal_tax_gate']})")
EOF
fi

# Headline for the scheduler: legacy linear-scan claim vs indexed claim at
# 1e4 pending commands (the >= 10x acceptance point).
if selected micro_sched && command -v python3 >/dev/null 2>&1; then
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
if selected e2e; then
  bench/e2e/run.sh --out build-e2e/BENCH_e2e.json
  python3 bench/e2e/bench_diff.py bench/e2e/BENCH_e2e.json build-e2e/BENCH_e2e.json
fi
