#!/usr/bin/env bash
# Subtractive acceptance as a number from a command, not an estimate.
#
# Prints, for the tree at [root] (default: this repository):
#   * non-test Rust lines per crate: every line of each `src/**/*.rs` before
#     the file's first `#[cfg(test)]`. Comments and blank lines count, so
#     deleting comments or reformatting cannot fake a reduction, and lines
#     moved into a test module drop out of the count rather than padding it;
#   * the same count for the engine files the protocol work targets, the
#     `threaded driver` sum (`threaded/runtime.rs` and the files carved out
#     of it), their `worker rules` sum (both engines' drivers plus the
#     `protocol` rules they share: the worker core's acceptance as one
#     number), and how many of their non-test lines name a `HashMap`,
#     `HashSet` or `BTreeMap`;
#   * the number of `pub` fields of the two engine configs
#     (`ThreadedConfig`, `ClusterConfig`) and of the three scheduler configs
#     (`ProphetConfig`, `ByteSchedulerConfig`, `AutoTuneConfig`), and their
#     total: every value a caller can set;
#   * every line of the Rust outside `src/` (benches, examples, tests), of
#     all Rust outside `vendor/`, `benchmark/` and `target/`, and the number
#     of `[[bench]]` targets — so deletions outside `src/` are numbers too.
#
# Usage: loc.sh [root]     (compare two trees by running it on each)
set -euo pipefail
shopt -s nullglob
root="${1:-$(dirname "$0")/..}"
cd "$root"

# Lines of one file before its first `#[cfg(test)]`.
non_test() { awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"; }

total=0
engines=0
echo "non-test Rust lines (src/**/*.rs up to the first #[cfg(test)])"
for crate in crates/*/; do
    [[ -d "$crate/src" ]] || continue
    name="$(basename "$crate")"
    sum=0
    while IFS= read -r f; do
        sum=$((sum + $(non_test "$f")))
    done < <(find "$crate/src" -name '*.rs' | sort)
    printf '  %-18s %6d\n' "$name" "$sum"
    total=$((total + sum))
    case "$name" in ps | sim | bench) engines=$((engines + sum)) ;; esac
done
printf '  %-18s %6d\n' "all crates" "$total"
printf '  %-18s %6d\n' "ps+sim+bench" "$engines"

# The threaded driver is `runtime.rs` plus every file carved out of it, so
# splitting a file along a seam does not move the count.
driver_files=(crates/ps/src/threaded/runtime.rs crates/ps/src/threaded/worker.rs
    crates/ps/src/threaded/shard.rs crates/ps/src/threaded/transport.rs)
engine_files=(crates/ps/src/protocol.rs "${driver_files[@]}"
    crates/ps/src/sim/cluster.rs crates/ps/src/threaded/checkpoint.rs)
echo "engine files"
for f in "${engine_files[@]}"; do
    [[ -f "$f" ]] && printf '  %-40s %6d\n' "$f" "$(non_test "$f")"
done
driver=0
for f in "${driver_files[@]}"; do
    [[ -f "$f" ]] && driver=$((driver + $(non_test "$f")))
done
printf '  %-40s %6d\n' "threaded driver" "$driver"
rules=$((driver + $(non_test crates/ps/src/protocol.rs) + $(non_test crates/ps/src/sim/cluster.rs)))
printf '  %-40s %6d\n' "worker rules: protocol+driver+cluster" "$rules"

# Lines of one file's non-test code that name a hashed or tree-shaped map:
# the engines' in-flight state is meant to be addressed by index.
maps() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
         /HashMap|HashSet|BTreeMap/ { n++ } END { print n + 0 }' "$1"
}
echo "lines naming HashMap|HashSet|BTreeMap (non-test)"
for f in "${engine_files[@]}"; do
    [[ -f "$f" ]] && printf '  %-40s %6d\n' "$f" "$(maps "$f")"
done

# `pub` fields between `pub struct <name> {` and its closing brace.
pub_fields() {
    awk -v name="$2" '
        $0 ~ "^pub struct " name " \\{" { on = 1; next }
        on && /^\}/ { exit }
        on && /^    pub [a-z_]+:/ { n++ }
        END { print n + 0 }' "$1"
}
echo "public config fields"
fields=0
for entry in ThreadedConfig:crates/ps/src/threaded/runtime.rs \
    ClusterConfig:crates/ps/src/sim/config.rs \
    ProphetConfig:crates/core/src/prophet.rs \
    ByteSchedulerConfig:crates/core/src/bytescheduler.rs \
    AutoTuneConfig:crates/core/src/bytescheduler.rs; do
    n="$(pub_fields "${entry#*:}" "${entry%%:*}")"
    printf '  %-20s %4d\n' "${entry%%:*}" "$n"
    fields=$((fields + n))
done
printf '  %-20s %4d\n' total "$fields"

# Every line of the `*.rs` files under the given directories (none: 0).
rs_lines() {
    (($#)) || { echo 0; return; }
    find "$@" -name '*.rs' -exec cat {} + | wc -l
}
echo "Rust lines outside src/ (every line)"
printf '  %-18s %6d\n' benches "$(rs_lines crates/*/benches)"
printf '  %-18s %6d\n' examples "$(rs_lines examples crates/*/examples)"
printf '  %-18s %6d\n' tests "$(rs_lines tests crates/*/tests)"
printf '  %-18s %6d\n' "all *.rs" "$(find . -name '*.rs' -not -path './vendor/*' \
    -not -path './benchmark/*' -not -path './target/*' -exec cat {} + | wc -l)"
printf '  %-18s %6d\n' "[[bench]] targets" \
    "$(awk '/^\[\[bench\]\]/ { n++ } END { print n + 0 }' crates/*/Cargo.toml)"
