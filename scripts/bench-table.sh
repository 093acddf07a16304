#!/usr/bin/env bash
# Prints the perf trajectory from the committed BENCH_<pr>.json files
# (scripts/bench-ab.sh's output) as one markdown table.
#
#   scripts/bench-table.sh [BENCH_FILE...]
#
# With no argument it reads every BENCH_*.json at the repository root,
# in PR order. One row per PR, workload and seed: for each end-to-end
# metric BENCHMARK.json lists, the change/parent ratio of the medians and
# the pairs the change won out of the pairs run ("1.18x (10/10)"; "-"
# where the file has no such metric), then the active ISA of each side
# ("avx512 -> avx512+amx" where they differ). Needs jq.
set -euo pipefail

root="$(git rev-parse --show-toplevel)"
spec="$root/BENCHMARK.json"
if [ $# -gt 0 ]; then
  files=("$@")
else
  mapfile -t files < <(printf '%s\n' "$root"/BENCH_*.json | sort -V)
fi

metrics="$(jq -c '[.end_to_end[].name]' "$spec")"
jq -r -n --argjson m "$metrics" '$m | "| PR | workload | seed | " + join(" | ") + " | active_isa |"'
jq -r -n --argjson m "$metrics" '$m | "|---|---|---:|" + ([.[] | "---:"] | join("|")) + "|---|"'
for f in "${files[@]}"; do
  pr="$(basename "$f" .json)"
  pr="${pr#BENCH_}"
  jq -r --arg pr "$pr" --argjson m "$metrics" '
    # Two decimals, zero-padded.
    def fix2: (. * 100 | round) as $n
      | "\($n / 100 | floor).\($n % 100 | tostring | if length < 2 then "0" + . else . end)";
    (.host.active_isa
      | if type == "object" then
          (if .parent == .change then .parent else "\(.parent) -> \(.change)" end)
        else . end) as $isa
    | .pairs as $pairs
    | .workloads[]
    | . as $w
    | [$m[] as $name
        | ($w.metrics | map(select(.name == $name)) | first) as $x
        | if $x == null then "-"
          else "\($x.ratio | fix2)x (\($x.change_wins)/\($pairs))" end]
    | "| \($pr) | \($w.name) | \($w.seed) | " + join(" | ") + " | \($isa) |"
  ' "$f"
done
