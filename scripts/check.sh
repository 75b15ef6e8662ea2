#!/usr/bin/env bash
# The tier-1 gate, exactly as CI runs it. Everything is offline: external
# dependencies are vendored under vendor/ as path crates, so no registry
# access is needed (or attempted).
#
# Usage: check.sh [all|debug|release]
#   debug    fmt + clippy + debug-profile tests (invariant checking on; the
#            slowest simulation suites are `#[cfg_attr(debug_assertions,
#            ignore)]` so this tier stays fast)
#   release  release build + release-profile tests with `--include-ignored`
#            (the trimmed suites at full iteration counts, the 200-plan
#            golden digest), then the flake gate (scripts/stress.sh) and
#            the 50-plan sweeps
#   all      both tiers (default)
set -euo pipefail
cd "$(dirname "$0")/.."

tier="${1:-all}"

if [[ "$tier" == "all" || "$tier" == "debug" ]]; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy (-D warnings)"
    cargo clippy --offline --workspace --all-targets -- -D warnings

    echo "==> cargo test (debug tier)"
    cargo test --offline -q

    echo "==> chaos smoke (seed 42, 2 plans per strategy)"
    # PROPHET_RESULTS_DIR: don't clobber the committed 200-plan artifact.
    PROPHET_RESULTS_DIR="$(mktemp -d)" \
        cargo run --offline -q -p prophet-bench --bin repro -- ext_chaos 42 2 > /dev/null

    echo "==> elastic churn smoke (seed 42, 2 plans per strategy)"
    PROPHET_RESULTS_DIR="$(mktemp -d)" \
        cargo run --offline -q -p prophet-bench --bin repro -- ext_elastic 42 2 > /dev/null

    echo "==> integrity corruption smoke (seed 42, 2 plans per strategy)"
    PROPHET_RESULTS_DIR="$(mktemp -d)" \
        cargo run --offline -q -p prophet-bench --bin repro -- ext_integrity 42 2 > /dev/null

    echo "==> bench smoke (criterion --test mode, no artifacts)"
    # Single-sample pass over the first scale point: compiles the bench
    # harnesses and exercises both engines without touching BENCH_*.json.
    cargo bench --offline -q -p prophet-bench --bench maxmin_scale -- --test > /dev/null
    cargo bench --offline -q -p prophet-bench --bench sim_scale -- --test > /dev/null
    cargo bench --offline -q -p prophet-bench --bench threaded -- --test > /dev/null
    cargo bench --offline -q -p prophet-bench --bench plan_cost -- --test > /dev/null

    echo "==> perf gate (pinned bounds over BENCH_threaded/sim_scale/maxmin.json)"
    ./scripts/perf_gate.sh
fi

if [[ "$tier" == "all" || "$tier" == "release" ]]; then
    echo "==> cargo build --release"
    cargo build --offline --release

    echo "==> cargo test --release (full tier)"
    # --lib/--bins/--tests: `--include-ignored` must not reach doctests
    # (vendored crates mark non-compiling examples `ignore`); doctests
    # already ran in the debug tier. This tier also picks up the fuller
    # chaos sweep (full scheduler lineup x 25 plans) behind its
    # `#[cfg_attr(debug_assertions, ignore)]` gates, `golden_digest`'s
    # 200-plan tier (2404 runs folded into one recorded constant: the
    # cross-commit differential every engine refactor answers to) and
    # `cluster_alloc`'s per-message allocation counts.
    cargo test --offline --release -q --lib --bins --tests -- --include-ignored

    echo "==> flake gate (scripts/stress.sh: threaded suites, 20 rounds each on one core)"
    ./scripts/stress.sh

    echo "==> chaos sweep (seed 42, 50 plans per strategy)"
    PROPHET_RESULTS_DIR="$(mktemp -d)" \
        cargo run --offline --release -q -p prophet-bench --bin repro -- ext_chaos 42 50 > /dev/null

    echo "==> elastic churn sweep (seed 42, 50 plans per strategy)"
    PROPHET_RESULTS_DIR="$(mktemp -d)" \
        cargo run --offline --release -q -p prophet-bench --bin repro -- ext_elastic 42 50 > /dev/null

    echo "==> integrity corruption sweep (seed 42, 50 plans per strategy)"
    PROPHET_RESULTS_DIR="$(mktemp -d)" \
        cargo run --offline --release -q -p prophet-bench --bin repro -- ext_integrity 42 50 > /dev/null
fi

echo "==> code size (scripts/loc.sh → loc.txt; CI uploads it)"
# Not a gate: the non-test line counts and public config-field counts that
# subtractive PRs are judged by, as a number from a command.
./scripts/loc.sh | tee loc.txt

echo "==> OK ($tier)"
