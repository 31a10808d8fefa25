#!/bin/sh
# Counts the workspace's non-test lines: every `.rs` file under `crates/`
# and `src/` outside a `tests/` directory, up to its first top-level
# `#[cfg(test)]`, plus the root and per-crate `Cargo.toml`s. Prints one
# line per crate (`src/` and the root manifest count as `(root)`) and the
# total.
#
# Usage: scripts/nontest-lines.sh [REPO_ROOT]   (default: this script's repo)
set -eu
cd "${1:-$(dirname "$0")/..}"
{
    find crates src -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*'
    echo Cargo.toml
    find crates -name Cargo.toml -not -path '*/target/*'
} | sort | while read -r f; do
    case "$f" in
        crates/*) krate=${f#crates/}; krate=${krate%%/*} ;;
        *) krate='(root)' ;;
    esac
    n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    echo "$krate $n"
done | awk '
    { lines[$1] += $2; total += $2 }
    END {
        for (k in lines) printf "%7d %s\n", lines[k], k | "sort -k2"
        close("sort -k2")
        printf "%7d total\n", total
    }'
