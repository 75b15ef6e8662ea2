#!/usr/bin/env bash
# Subtractive acceptance as a number from a command, not an estimate.
#
# Prints, for the tree at [root] (default: this repository):
#   * non-test Rust lines per crate: every line of each `src/**/*.rs` before
#     the file's first `#[cfg(test)]`. Comments and blank lines count, so
#     deleting comments or reformatting cannot fake a reduction, and lines
#     moved into a test module drop out of the count rather than padding it;
#   * the same count for the engine files the protocol work targets, and how
#     many of their non-test lines name a `HashMap`, `HashSet` or `BTreeMap`;
#   * the number of `pub` fields of `ThreadedConfig` and `ClusterConfig`.
#
# Usage: loc.sh [root]     (compare two trees by running it on each)
set -euo pipefail
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

engine_files=(crates/ps/src/protocol.rs crates/ps/src/threaded/runtime.rs
    crates/ps/src/sim/cluster.rs crates/ps/src/threaded/checkpoint.rs)
echo "engine files"
for f in "${engine_files[@]}"; do
    [[ -f "$f" ]] && printf '  %-40s %6d\n' "$f" "$(non_test "$f")"
done

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
printf '  %-18s %6d\n' ThreadedConfig "$(pub_fields crates/ps/src/threaded/runtime.rs ThreadedConfig)"
printf '  %-18s %6d\n' ClusterConfig "$(pub_fields crates/ps/src/sim/config.rs ClusterConfig)"
