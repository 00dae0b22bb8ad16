#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 benchmark/compare.py PARENT CHANGE [--spec BENCHMARK.json]

PARENT and CHANGE are directories (or single files) of run results. A
result file is either the JSON line a single-workload run prints last,
saved as <workload>.<anything>.json, or the file `vcad_bench --json`
writes, keyed by workload. Runs are paired in file-name order, so name
them by run index and alternate which side runs first.

One row per workload x metric. End-to-end metrics, with the direction and
bound from BENCHMARK.json:
  improved    at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither), and the medians differ by more than
              the parent's interquartile range
  regressed   the change's median is worse than the parent's by more than
              the bound
  unresolved  a side's spread (IQR / median) exceeds the bound, unless
              every change run beats every parent run
  no worse    otherwise
Per-layer metrics have no bound; their rows show the medians and the win
rate, marked "improved" only under the same gain rule.
"""
import argparse
import glob
import json
import os
import statistics
import sys


def load_side(path):
    """Returns {workload: [result, ...]} in file-name order."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs = {}
    for f in files:
        with open(f) as fh:
            text = fh.read().strip()
        try:
            data = json.loads(text)
        except json.JSONDecodeError:  # a saved stdout: the result is the last line
            data = json.loads(text.splitlines()[-1])
        if "metrics" in data:
            workload = os.path.basename(f).split(".")[0]
            runs.setdefault(workload, []).append(data)
        else:
            for workload, result in data.items():
                runs.setdefault(workload, []).append(result)
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else 0.0


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(parent, change, better, bound):
    """One row's verdict; `bound` is None for per-layer metrics."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    gain = sign * (cm - pm)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > iqr(parent):
        return "improved", wins, len(pairs)
    if bound is None:
        return "-", wins, len(pairs)
    if pm and -gain / abs(pm) > bound:
        return "regressed", wins, len(pairs)
    dominated = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not dominated:
        return "unresolved", wins, len(pairs)
    return "no worse", wins, len(pairs)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--spec", default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                                   "..", "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.spec) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["better"], None) for m in spec["per_layer"]}
    parent, change = load_side(args.parent), load_side(args.change)

    print(f"{'workload':20s} {'metric':28s} {'parent med':>12s} {'change med':>12s} "
          f"{'par spread':>10s} {'wins':>7s}  verdict")
    failed = False
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            bad = sum(1 for r in runs if not r["correct"])
            if bad:
                print(f"{workload}: {bad} {side} run(s) failed the oracle check")
                failed = True
        p_fail = sum(r["failed"] for r in p_runs)
        c_fail = sum(r["failed"] for r in c_runs)
        if c_fail > p_fail:
            print(f"{workload}: more failed operations in the change ({c_fail} vs {p_fail}); "
                  "no gain counts")
        names = [m for m in p_runs[0]["metrics"] if m in bounds or m in layers]
        for name in names:
            better, bound = bounds.get(name) or layers[name]
            pv = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if not pv or not cv:
                continue
            v, wins, n = verdict(pv, cv, better, bound)
            if v == "improved" and c_fail > p_fail:
                v = "no worse"
            failed = failed or v == "regressed"
            print(f"{workload:20s} {name:28s} {statistics.median(pv):12.6g} "
                  f"{statistics.median(cv):12.6g} {100 * spread(pv):9.2f}% {wins:3d}/{n:<3d}  {v}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
