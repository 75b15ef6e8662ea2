#!/usr/bin/env bash
# Run all six workloads, untraced then traced, on one build.
#
#   benchmark/run.sh [seed] [seconds]
#
# stdout: one JSON result line per run (the line the driver reads), in the
# order sim_scale/0, sim_scale/1, sim_paper/0, ... ; stderr: every metric by
# name with its unit, and the per-layer self times of each traced run.
# Chrome traces land in benchmark/out/. Builds into the root target/ unless
# CARGO_TARGET_DIR says otherwise, so the path crates are not compiled twice.
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-1}"
seconds="${2:-$(sed -n 's/.*"run_seconds": \([0-9]*\).*/\1/p' BENCHMARK.json)}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/prophet-benchmark"

status=0
for workload in sim_scale sim_paper sim_faults threaded_mem threaded_link threaded_corrupt; do
    for trace in 0 1; do
        echo "== $workload --seed $seed --seconds $seconds --trace $trace" >&2
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
    done
done
exit "$status"
