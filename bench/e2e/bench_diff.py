#!/usr/bin/env python3
"""Compare two bench/e2e result sets (BENCH_e2e.json files).

For every workload x end-to-end metric the new median is compared with the
base median against the metric's bound from BENCHMARK.json:

  unresolved  a side's run-to-run spread (interquartile range over median)
              exceeds the bound, unless every new sample is better than
              every base sample
  REGRESSION  worse by more than the bound (setup_s: and by more than
              0.05 s)
  better      improved by more than the bound
  ok          otherwise

Two metrics are not in BENCHMARK.json because they never vary between
runs: sim_h (virtual hours, deterministic per workload) may move by 1%,
and failed_frac (0 today) may not increase at all.

A machine mismatch (cpus, CPU model, ISA, build type, WAL filesystem) is a
warning, not a verdict. Also prints the villin_durable / villin_fold
commands/s ratio (the WAL tax) of each set. Exits 1 on any regression.

usage: bench_diff.py BASE.json NEW.json
"""

import argparse
import json
import math
import os
import statistics
import sys

# Bounds of the metrics BENCHMARK.json cannot hold (see above).
EXTRA_METRICS = {
    "sim_h": {"bound": 0.01, "better": "lower"},
    "failed_frac": {"bound": 0.0, "better": "lower"},
}
SETUP_FLOOR_S = 0.05
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "..", "..", "BENCHMARK.json")
STAMP_KEYS = ["cpus", "cpu_model", "simd_isa", "build_type", "wal_fs"]


def spread(samples):
    """Interquartile range over median, as the benchmark contract takes it."""
    if len(samples) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(name, rule, base, new):
    bound, better = rule["bound"], rule["better"]
    bmed = statistics.median(base["samples"])
    nmed = statistics.median(new["samples"])
    sign = 1.0 if better == "lower" else -1.0
    diff = sign * (nmed - bmed)  # > 0 means worse
    if bmed:
        change = diff / abs(bmed)
    else:
        change = math.copysign(math.inf, diff) if diff else 0.0
    worse = change > bound
    if worse and name == "setup_s":
        worse = diff > SETUP_FLOOR_S
    noisy = max(spread(base["samples"]), spread(new["samples"])) > bound
    if sign > 0:
        dominates = max(new["samples"]) < min(base["samples"])
    else:
        dominates = min(new["samples"]) > max(base["samples"])
    if noisy and not dominates:
        return "unresolved", change
    if worse:
        return "REGRESSION", change
    if change < -bound:
        return "better", change
    return "ok", change


def wal_tax(result):
    e2e = result["workloads"]
    try:
        fold = e2e["villin_fold"]["end_to_end"]["commands_per_s"]["samples"]
        dur = e2e["villin_durable"]["end_to_end"]["commands_per_s"]["samples"]
    except KeyError:
        return None
    pairs = [d / f for d, f in zip(dur, fold) if f]
    return statistics.median(pairs) if pairs else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()

    with open(BENCHMARK_JSON) as f:
        rules = {m["name"]: m for m in json.load(f)["end_to_end"]}
    rules.update(EXTRA_METRICS)
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)

    for key in STAMP_KEYS:
        b, n = base["stamp"].get(key), new["stamp"].get(key)
        if b != n:
            print(f"WARNING machine mismatch: {key}: base {b!r}, new {n!r}")
    for label, res in (("base", base), ("new", new)):
        if res["stamp"].get("single_cpu"):
            print(f"note: {label} ran on a single-CPU host")

    regressions = 0
    print(f"{'workload':<16} {'metric':<16} {'base':>12} {'new':>12} "
          f"{'change':>8} {'bound':>6} {'spread b/n':>13}  verdict")
    for wname, bw in base["workloads"].items():
        nw = new["workloads"].get(wname)
        if nw is None:
            print(f"{wname:<16} missing from new result set")
            continue
        for mname, rule in rules.items():
            bm = bw["end_to_end"].get(mname)
            nm = nw["end_to_end"].get(mname)
            if bm is None or nm is None:
                continue
            v, change = verdict(mname, rule, bm, nm)
            regressions += v == "REGRESSION"
            print(f"{wname:<16} {mname:<16} "
                  f"{statistics.median(bm['samples']):>12.6g} "
                  f"{statistics.median(nm['samples']):>12.6g} "
                  f"{change:>+8.1%} {rule['bound']:>6.0%} "
                  f"{spread(bm['samples']):>6.1%}/{spread(nm['samples']):<6.1%}"
                  f"  {v}")
        for side, w in (("base", bw), ("new", nw)):
            if not w.get("correct", False):
                print(f"{wname:<16} {side} result set failed its checks")
                regressions += 1

    for label, res in (("base", base), ("new", new)):
        tax = wal_tax(res)
        if tax is not None:
            print(f"wal tax ({label}): villin_durable/villin_fold "
                  f"commands/s = {tax:.4f}")
    print("regressions:", regressions)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
