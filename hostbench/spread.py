#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 hostbench/spread.py [--workload NAME ...] [--seeds 1-10] [--trace 0|1]

Run from the repository root. The command, run length and bounds come from
BENCHMARK.json. For every metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(Q3 - Q1) / median next to the metric's bound. A run that exits non-zero or
reports correct=false stops the script with exit code 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    for wl in workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{wl} seed {seed}: incorrect output: {lines[-1]}")
            print(f"{wl} seed {seed}: {wall:.1f} s wall, {result['attempted']} ops", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{wl}: {'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- over bound/3"
            print(f"{wl}: {name:<40} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        print(flush=True)


if __name__ == "__main__":
    main()
