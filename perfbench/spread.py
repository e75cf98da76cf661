#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per end-to-end metric,
the median and the spread (interquartile range over the median, as
`statistics.quantiles(values, n=4)` gives the quartiles) next to a third
of the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload cold_scan --seeds 1-5 [--trace 0]

Run from the repository root. Runs one process at a time.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        began = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        took = time.monotonic() - began
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: {lines[-1]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({took:.1f} s): " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        limit = bounds.get(name, float("nan")) / 3
        flag = "" if spread < limit or name not in bounds else "  <-- above bound/3"
        print(f"{name:24s} median {med:14.6g} spread {spread:7.4f} bound/3 {limit:7.4f}{flag}")


if __name__ == "__main__":
    main()
