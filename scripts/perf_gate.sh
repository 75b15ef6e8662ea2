#!/usr/bin/env bash
# Performance regression gate over the committed bench artifacts.
#
# Reads the derived metrics of BENCH_threaded.json, BENCH_sim_scale.json
# and BENCH_maxmin.json (or of the one artifact given as $1) and fails if a
# pinned bound is broken:
#
#   BENCH_threaded.json
#     speedup_8w_4s_vgg            >= 4.3   end-to-end speedup of the
#                                           8-worker 4-shard VGG cell over
#                                           the single-threaded seed rate
#     shard_scaling_8w_4s_over_1s  >  1.0   4 shards must out-run 1 shard —
#                                           shard count stays a positive
#                                           scaling knob
#   BENCH_sim_scale.json
#     oracle_over_fifo_host_ratio_256 <= 4.5  host time of the 256-worker
#                                           prophet-oracle cell over the
#                                           FIFO cell's. A ratio, because
#                                           the bench host runs in speed
#                                           modes ~1.45x apart and a wall
#                                           time does not survive them
#                                           (8.4 before the component-level
#                                           completion index, 3.4 after)
#     checked_over_unchecked_host_ratio_64 <= 1.3  host time of the
#                                           64-worker FIFO cell with the
#                                           InvariantChecker on over the
#                                           same cell with it off, twins
#                                           run back to back (1.51-1.55 at
#                                           the parent: string ring and
#                                           tuple-keyed maps; 1.09 with
#                                           the value ring and dense
#                                           tables; DESIGN.md §17)
#   BENCH_maxmin.json
#     realloc_speedup_512          >= 10    one flow's departure+arrival
#                                           among 512 workers, incremental
#                                           engine over full resolve
#                                           (DESIGN.md §11's acceptance)
#
# The bounds are pinned here, not derived from a previous run: a bench
# regeneration that lands slower numbers in an artifact fails CI loudly
# instead of silently re-baselining. Bump them deliberately, with the
# optimisation that earns it, in the same commit.
set -euo pipefail
cd "$(dirname "$0")/.."

# artifact  key  comparison  bound  bench target that regenerates it
bounds=(
    "BENCH_threaded.json speedup_8w_4s_vgg >= 4.3 threaded"
    "BENCH_threaded.json shard_scaling_8w_4s_over_1s > 1.0 threaded"
    "BENCH_sim_scale.json oracle_over_fifo_host_ratio_256 <= 4.5 sim_scale"
    "BENCH_sim_scale.json checked_over_unchecked_host_ratio_64 <= 1.3 sim_scale"
    "BENCH_maxmin.json realloc_speedup_512 >= 10 maxmin_scale"
)

only="${1:-}"
fail=0
summary=()
for row in "${bounds[@]}"; do
    read -r artifact key cmp bound bench <<<"$row"
    if [[ -n "$only" && "$(basename "$only")" != "$artifact" ]]; then
        continue
    fi
    file="${only:-$artifact}"
    if [[ ! -f "$file" ]]; then
        echo "perf gate: $file missing (run: cargo bench -p prophet-bench --bench $bench)" >&2
        exit 1
    fi
    value=$(jq -r --arg k "$key" '.derived[$k] // empty' "$file")
    if [[ -z "$value" ]]; then
        echo "perf gate: $file lacks derived.$key" >&2
        exit 1
    fi
    if ! awk -v v="$value" -v b="$bound" "BEGIN { exit !(v $cmp b) }"; then
        echo "perf gate FAIL: $key = $value, want $cmp $bound ($file)" >&2
        fail=1
    fi
    summary+=("$key = $value ($cmp $bound)")
done

if [[ "${#summary[@]}" -eq 0 ]]; then
    echo "perf gate: no pinned bound reads $only" >&2
    exit 1
fi
if [[ "$fail" -ne 0 ]]; then
    exit 1
fi
printf 'perf gate OK: %s\n' "${summary[@]}"
