#!/bin/sh
# Code lines per file and per crate: everything before a file's test
# module (a column-0 `#[cfg(test)]` whose next line opens `mod tests` or
# `pub(crate) mod tests`), minus blank and `//` lines. Any other
# `#[cfg(test)]` item counts as code.
# The size figures in ROADMAP.md and CHANGES.md are regenerated by this.
#
#   scripts/code-lines.sh                     # every crates/*/src and src, totals only
#   scripts/code-lines.sh -v crates/serve/src # per file as well
#
# The last code line sums every directory counted. With no directory
# given, test lines per crate follow: every line of each `src` file from
# its test module to the end, plus every line under the crate's
# `tests/`, printed as `module lines + tests/ lines`.
set -eu
cd "$(dirname "$0")/.."

# The line of the file's test module's `#[cfg(test)]`, or one past its end.
tests_at() {
    awk '/^(pub\(crate\) )?mod tests/ && prev ~ /^#\[cfg\(test\)\]/ {at=NR-1; exit}
        {prev=$0} END{print at ? at : NR+1}' "$1"
}

count() {
    head -n "$(($(tests_at "$1") - 1))" "$1" | grep -v '^\s*//' | grep -vc '^\s*$' || true
}

# Every line from the test module to the end of the file.
test_lines() {
    awk -v at="$(tests_at "$1")" 'NR >= at {n++} END{print n+0}' "$1"
}

verbose=0
if [ "${1:-}" = "-v" ]; then
    verbose=1
    shift
fi
defaults=0
if [ $# -eq 0 ]; then
    defaults=1
    set -- crates/*/src src
fi

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

[ "$defaults" = 1 ] || exit 0
all_mod=0
all_tests=0
for crate in crates/*/; do
    crate=${crate%/}
    [ -d "$crate/src" ] || continue
    mod=0
    for file in $(find "$crate/src" -name '*.rs' | sort); do
        mod=$((mod + $(test_lines "$file")))
    done
    tests=0
    if [ -d "$crate/tests" ]; then
        tests=$(find "$crate/tests" -name '*.rs' -exec cat {} + | wc -l)
    fi
    printf '%6d + %-5d  %s test lines\n' "$mod" "$tests" "$crate"
    all_mod=$((all_mod + mod))
    all_tests=$((all_tests + tests))
done
printf '%6d + %-5d  all crates test lines (total)\n' "$all_mod" "$all_tests"
