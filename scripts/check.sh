#!/usr/bin/env bash
# The tier-1 gate, exactly as CI runs it. Everything is offline: external
# dependencies are vendored under vendor/ as path crates, so no registry
# access is needed (or attempted).
#
# Usage: check.sh [all|debug|release]
#   debug    fmt + clippy + rustdoc + debug-profile tests (invariant
#            checking on; the slowest simulation suites are
#            `#[cfg_attr(debug_assertions, ignore)]` so this tier stays fast)
#   release  release build + release-profile tests with `--include-ignored`
#            (the trimmed suites at full iteration counts, the 200-plan
#            golden digest and chaos sweep), then the flake gate
#            (scripts/stress.sh)
#   all      both tiers (default)
set -euo pipefail
cd "$(dirname "$0")/.."

# Each test tier runs under `timeout`, budgeted at several times its
# measured time (debug ~1.2 min warm, release ~4.3 min including its build,
# on 2 vCPUs). A panicking threaded worker or shard fails its run at once
# (threads are joined in the order they end and the first panic resumes),
# but a true deadlock — every thread blocked, none panicked — would still
# hang; the timeout fails the gate (exit 124) instead.

tier="${1:-all}"

if [[ "$tier" == "all" || "$tier" == "debug" ]]; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy (-D warnings)"
    cargo clippy --offline --workspace --all-targets -- -D warnings

    echo "==> cargo doc (-D warnings)"
    # Catches intra-doc links a rename or deletion left dangling, and public
    # docs linking private items.
    RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --keep-going

    echo "==> cargo test (debug tier)"
    timeout 15m cargo test --offline -q

    echo "==> chaos smoke (seed 42, 2 plans per profile and strategy)"
    # PROPHET_RESULTS_DIR: don't clobber the committed 200-plan artifact.
    PROPHET_RESULTS_DIR="$(mktemp -d)" \
        cargo run --offline -q -p prophet-bench --bin repro -- ext_chaos 42 2 > /dev/null

    echo "==> figure freeze (fig4 fig5 fig11 sec52_fpstart CSVs byte-identical to results/)"
    # Figs. 5 and 11 and §5.2 read worker 0's typed spans: any change to
    # what the engine records for them shows up here as a CSV diff.
    figs="$(mktemp -d)"
    PROPHET_RESULTS_DIR="$figs" \
        cargo run --offline -q -p prophet-bench --bin repro -- fig4 fig5 fig11 sec52_fpstart > /dev/null
    for fig in fig4 fig5 fig11 sec52_fpstart; do
        cmp "$figs/$fig.csv" "results/$fig.csv"
    done

    echo "==> bench smoke (criterion --test mode, no artifacts)"
    # Single-sample pass over the first scale point: compiles the bench
    # harnesses and exercises both engines without touching BENCH_*.json.
    cargo bench --offline -q -p prophet-bench --bench maxmin_scale -- --test > /dev/null
    cargo bench --offline -q -p prophet-bench --bench sim_scale -- --test > /dev/null
    cargo bench --offline -q -p prophet-bench --bench threaded -- --test > /dev/null

    echo "==> perf gate (pinned bounds over BENCH_threaded/sim_scale/maxmin.json)"
    ./scripts/perf_gate.sh
fi

if [[ "$tier" == "all" || "$tier" == "release" ]]; then
    echo "==> cargo build --release"
    cargo build --offline --release

    echo "==> cargo test --release (full tier)"
    # --lib/--bins/--tests: `--include-ignored` must not reach doctests
    # (vendored crates mark non-compiling examples `ignore`); doctests
    # already ran in the debug tier. This tier also picks up, behind their
    # `#[cfg_attr(debug_assertions, ignore)]` gates, the 200-plan chaos
    # sweep (4 profiles x 4 strategies, every plan run twice and judged),
    # `golden_digest`'s 200-plan tier (2404 runs folded into one recorded
    # constant: the cross-commit differential every engine refactor
    # answers to) and `cluster_alloc`'s per-message allocation counts.
    timeout 30m cargo test --offline --release -q --lib --bins --tests -- --include-ignored

    echo "==> flake gate (scripts/stress.sh: threaded suites, 20 rounds each on one core)"
    ./scripts/stress.sh
fi

echo "==> code size (scripts/loc.sh → loc.txt; CI uploads it)"
# Not a gate: the non-test line counts and public config-field counts that
# subtractive PRs are judged by, as a number from a command.
./scripts/loc.sh | tee loc.txt

echo "==> OK ($tier)"
