#!/usr/bin/env python3
"""Compare two sets of bench_e2e result files.

    python3 bench/e2e/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are result files written by `bench_e2e --out` (or
directories holding them, as bench/e2e/run.sh leaves them); traced runs
(those with per-layer metrics) are skipped. Each file holds one workload;
a workload's runs are paired in file-name order. For every workload x
end-to-end metric it prints each side's median and quartiles and one
verdict:

  improved    >= 10 pairs, the change wins >= 9/10 of them, and the
              medians differ by more than the parent's quartile spread
  regressed   the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json
  unresolved  a side's quartile spread is wider than the bound, so
              neither "unchanged" nor "regressed" can be told apart
              from noise (unless every change run beats, or loses to,
              every parent run)
  unchanged   otherwise

Exits 1 when any pairing regressed. Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def load_runs(path):
    """Untraced results under `path`, by workload, in file-name order."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    runs = {}
    for name in files:
        with open(name) as f:
            data = json.load(f)
        if data.get("benchmark") == "bench_e2e" and not data["per_layer"]:
            runs.setdefault(data["workload"], []).append(data)
    if not runs:
        sys.exit("compare.py: no untraced bench_e2e results in " + path)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Returns (verdict, worse_share, wins, pairs) for one metric."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (cm - pm) / abs(pm) if pm else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) > 0 for c in change for p in parent)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN
            and wins >= WIN_SHARE_FOR_GAIN * len(pairs)
            and worse < 0 and abs(cm - pm) > (p3 - p1)):
        return "improved", worse, wins, len(pairs)
    if worse > bound and (spread <= bound or all_worse):
        return "regressed", worse, wins, len(pairs)
    if spread > bound and not all_better:
        return "unresolved", worse, wins, len(pairs)
    return "unchanged", worse, wins, len(pairs)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "..",
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    parent = load_runs(args.parent)
    change = load_runs(args.change)
    for side, runs in (("parent", parent), ("change", change)):
        print("%s: %s; seeds %s" % (
            side, ", ".join("%s %d runs" % (w, len(r))
                            for w, r in sorted(runs.items())),
            sorted({d["seed"] for r in runs.values() for d in r})))

    workloads = [w["name"] for w in spec["workloads"]
                 if w["name"] in parent and w["name"] in change]
    header = "%-20s %-20s %28s %28s %8s %6s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "worse", "wins", "verdict")
    print(header)
    counts = {}
    for w in workloads:
        for m in metrics:
            name = m["name"]
            a = [d["end_to_end"][name]["value"] for d in parent[w]]
            b = [d["end_to_end"][name]["value"] for d in change[w]]
            v, worse, wins, pairs = verdict(a, b, m["better"], m["bound"])
            counts[v] = counts.get(v, 0) + 1
            pa, pb = quartiles(a), quartiles(b)
            print("%-20s %-20s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g]"
                  " %+7.1f%% %2d/%-3d  %s" % (
                      w, name, pa[1], pa[0], pa[2], pb[1], pb[0], pb[2],
                      100 * worse, wins, pairs, v))
    print("verdicts: " + ", ".join(
        "%s %d" % kv for kv in sorted(counts.items())))
    sys.exit(1 if counts.get("regressed") else 0)


if __name__ == "__main__":
    main()
