#!/bin/sh
# Runs a bench command, echoes its output, and writes the JSON of its
# `BENCH_JSON ` line to a file — what every CI bench cell archives.
# Fails if the command fails or prints no such line.
#
#   scripts/bench-json.sh <out.json> -- <cmd…>
set -eu
out=$1
[ "$2" = "--" ] || { echo "usage: $0 <out.json> -- <cmd…>" >&2; exit 2; }
shift 2

log=$(mktemp)
trap 'rm -f "$log"' EXIT
status=0
"$@" > "$log" || status=$?
cat "$log"
[ "$status" -eq 0 ] || exit "$status"
grep '^BENCH_JSON ' "$log" | sed 's/^BENCH_JSON //' > "$out"
[ -s "$out" ] || { echo "$0: no BENCH_JSON line in the output of: $*" >&2; exit 1; }
