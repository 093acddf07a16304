#!/bin/sh
# Code lines per file and per crate: everything before a file's test
# module (`#[cfg(test)]` at column 0), minus blank and `//` lines.
# The size figures in ROADMAP.md and CHANGES.md are regenerated by this.
#
#   scripts/code-lines.sh                     # every crates/*/src and src, totals only
#   scripts/code-lines.sh -v crates/serve/src # per file as well
#
# The last line sums every directory counted.
set -eu
cd "$(dirname "$0")/.."

count() {
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$1" | grep -v '^\s*//' | grep -vc '^\s*$' || true
}

verbose=0
if [ "${1:-}" = "-v" ]; then
    verbose=1
    shift
fi
[ $# -gt 0 ] || set -- crates/*/src src

grand=0
for dir in "$@"; do
    total=0
    for file in $(find "$dir" -name '*.rs' | sort); do
        n=$(count "$file")
        total=$((total + n))
        [ "$verbose" = 0 ] || printf '%6d  %s\n' "$n" "$file"
    done
    printf '%6d  %s (total)\n' "$total" "$dir"
    grand=$((grand + total))
done
printf '%6d  all of the above (total)\n' "$grand"
