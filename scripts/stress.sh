#!/usr/bin/env bash
# Flake gate for the wall-clock suites. Tier-1 is `cargo test -q`, so a test
# that fails one run in five is a tier-1 defect: the threaded runtime's
# integration suites and its digest are built once — the debug binaries tier-1 itself runs,
# invariant checker on — and each looped on ONE core, where thread
# interleavings are at their most adversarial, failing on the first non-zero
# exit or hang.
#
# Usage: stress.sh [rounds]    (default 20)
set -euo pipefail
cd "$(dirname "$0")/.."

rounds="${1:-20}"
suites=(integration_integrity integration_sharded integration_elastic integration_threaded threaded_digest)

args=()
for suite in "${suites[@]}"; do args+=(--test "$suite"); done
echo "==> building ${suites[*]}"
# One executable per suite, as cargo reports them.
mapfile -t bins < <(
    cargo test --offline -q -p prophet "${args[@]}" --no-run --message-format=json |
        sed -n 's/.*"executable":"\([^"]*\)".*/\1/p'
)
[[ ${#bins[@]} -eq ${#suites[@]} ]] || {
    echo "expected ${#suites[@]} test binaries, cargo reported ${#bins[@]}" >&2
    exit 1
}

log="$(mktemp)"
trap 'rm -f "$log"' EXIT
pin=()
command -v taskset > /dev/null && pin=(taskset -c 0)
for bin in "${bins[@]}"; do
    name="$(basename "$bin")"
    echo "==> ${name%-*}: $rounds rounds on one core"
    for ((i = 1; i <= rounds; i++)); do
        status=0
        timeout 300 "${pin[@]}" "$bin" -q > "$log" 2>&1 || status=$?
        if ((status)); then
            echo "${name%-*}: round $i/$rounds failed (exit $status; 124 = hung):" >&2
            tail -n 40 "$log" >&2
            exit 1
        fi
    done
done
echo "==> OK: ${#bins[@]} suites x $rounds rounds"
