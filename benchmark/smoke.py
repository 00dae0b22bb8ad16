#!/usr/bin/env python3
"""Smoke test for the benchmark (run by the benchmark project's ctest).

Runs `vcad_bench --smoke` (toy sizes, oracle always run) untraced and
traced, and checks that both runs pass the oracle gate, that every metric
BENCHMARK.json names is emitted with its unit by every workload, that every
self time is non-negative, and that provider dispatch never exceeds the
client's Transport time (net.transport_s >= 0).
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile


def run(bench, trace, out_dir):
    result = os.path.join(out_dir, f"smoke_trace{trace}.json")
    proc = subprocess.run([bench, "--smoke", "--trace", str(trace), "--out-dir", out_dir,
                           "--json", result], capture_output=True, text=True, timeout=100)
    if proc.returncode != 0:
        sys.exit(f"vcad_bench --smoke --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    with open(result) as fh:
        return json.load(fh)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True)
    ap.add_argument("--spec", required=True)
    args = ap.parse_args()
    with open(args.spec) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    errors = []
    with tempfile.TemporaryDirectory(dir=".") as out_dir:
        for trace, defs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            results = run(args.bench, trace, out_dir)
            for w in workloads:
                r = results.get(w)
                if r is None:
                    errors.append(f"trace {trace}: workload {w} missing")
                    continue
                if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                    errors.append(f"trace {trace}: {w} correct={r['correct']} "
                                  f"attempted={r['attempted']} failed={r['failed']}")
                for d in defs:
                    m = r["metrics"].get(d["name"])
                    if m is None or m["unit"] != d["unit"]:
                        errors.append(f"trace {trace}: {w} lacks {d['name']} [{d['unit']}]")
                for name, m in r["metrics"].items():
                    if (name.endswith("self_s") or name == "net.transport_s") and m["value"] < 0:
                        errors.append(f"trace {trace}: {w} {name} = {m['value']} < 0")
    for e in errors:
        print(e)
    print("smoke: " + ("FAIL" if errors else "ok"))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
