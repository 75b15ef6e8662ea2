#!/usr/bin/env bash
# Does the benchmark agree with itself? Runs every workload twice on one
# build — set A through the workloads forwards, set B backwards, each run
# untraced and traced — prints both sets side by side, and fails if
#   * an end-to-end metric differs between the sets by more than its bound
#     in BENCHMARK.json (worse or better: the code did not change), or
#   * a metric that must repeat exactly for one seed differs at all, or
#   * any run reports a failed operation.
#
#   benchmark/selfcheck.sh [seed] [seconds]
#
# About 7 minutes at the default 12 s per run.
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-1}"
seconds="${2:-$(sed -n 's/.*"run_seconds": \([0-9]*\).*/\1/p' BENCHMARK.json)}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/prophet-benchmark"

python3 - "$bin" "$seed" "$seconds" <<'PY'
import json, subprocess, sys

binary, seed, seconds = sys.argv[1:4]
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
workloads = [w["name"] for w in spec["workloads"]]
# Simulated results and counts: functions of the seed alone. Threaded counts
# depend on wall-clock fault windows and are reported, not gated.
EXACT = ("sim_prophet_rate", "sim_prophet_vs_best_baseline", "paper_table2_mape_pct",
         "core.plan.tasks_per_worker.", "ps.sim.faults.", "ps.chaos.violations")

def run(workload, trace):
    cmd = [binary, "--workload", workload, "--seed", seed, "--seconds", seconds,
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit code {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}

sets = []
for order in (workloads, workloads[::-1]):
    results = {}
    for workload in order:
        print(f"running {workload} (set {'AB'[len(sets)]})", file=sys.stderr, flush=True)
        results[workload] = {**run(workload, 0), **run(workload, 1)}
    sets.append(results)

failures = []
for workload in workloads:
    a, b = sets[0][workload], sets[1][workload]
    print(f"\n{workload}\n  {'metric':<46} {'set A':>16} {'set B':>16}  {'diff':>8}")
    for name in a:
        exact = name.startswith(EXACT)
        if a[name] == 0 and b[name] == 0 and name not in bounds:
            continue
        diff = abs(a[name] - b[name]) / max(abs(a[name]), abs(b[name]), 1e-300)
        verdict, bad = "", False
        if exact:
            bad = a[name] != b[name]
            verdict = "NOT EXACT" if bad else "exact"
        elif name in bounds:
            bad = diff > bounds[name]
            verdict = f"{'OVER' if bad else 'within'} {bounds[name]:.0%}"
        if bad:
            failures.append(f"{workload} {name}: {a[name]} vs {b[name]}")
        print(f"  {name:<46} {a[name]:>16.6g} {b[name]:>16.6g}  {diff:>8.2%}  {verdict}")

if failures:
    print("\nselfcheck FAILED:\n  " + "\n  ".join(failures))
    sys.exit(1)
print("\nselfcheck OK: end-to-end metrics within their bounds, exact metrics identical")
PY
