#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the driver measures it.

Runs every workload (or those named) ten times, each time with another
seed, and prints for each end-to-end metric the median and the distance
between the first and third quartile as a share of the median, next to the
metric's bound in BENCHMARK.json. Run from the repo root:

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [workload ...]
"""
import argparse
import json
import statistics
import subprocess
import sys

parser = argparse.ArgumentParser()
parser.add_argument("--runs", type=int, default=10)
parser.add_argument("--first-seed", type=int, default=1)
parser.add_argument("workloads", nargs="*")
args = parser.parse_args()

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
names = args.workloads or [w["name"] for w in spec["workloads"]]
worst = 0.0
for name in names:
    values = {m: [] for m in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + [
            "--workload", name, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode != 0:
            sys.exit(f"{name} seed {seed}: exit code {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{name} seed {seed}: {result['failed']} operations failed")
        for metric in bounds:
            values[metric].append(result["metrics"][metric]["value"])
    for metric, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        if metric != "setup_s":
            worst = max(worst, spread / bounds[metric])
        print(f"{name:<17} {metric:<12} median {med:>12.4f}  spread {spread:7.2%}  "
              f"bound {bounds[metric]:.0%}  min {min(xs):.4f} max {max(xs):.4f}", flush=True)
print(f"worst spread/bound outside setup_s: {worst:.2f} (aim below 0.33)")
