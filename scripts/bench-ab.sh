#!/usr/bin/env bash
# Paired A/B runs of the benchmark, PARENT against CHANGE, summarised in
# one committed file.
#
#   scripts/bench-ab.sh PARENT CHANGE [PAIRS] [SECONDS] [SEED]
#
# PARENT and CHANGE are git revisions; CHANGE may also be WORKTREE, the
# working tree as it stands (tracked and untracked files, ignored ones
# left out). Each side is copied out of git into `.bench_build/<side>/`
# and its `benchmark/` built there (into `.bench_build/<side>-target/`,
# which later runs reuse), so the working tree's `benchmark/Cargo.lock`
# is never rewritten. Then, for every seed of SEED (a comma-separated
# list, default 7) and every workload BENCHMARK.json lists, PAIRS pairs
# (default 10) of `--workload W --seed S --seconds SECONDS --trace 0` run
# back to back (SECONDS defaults to BENCHMARK.json's run_seconds), the
# side that runs first alternating from pair to pair. After the pairs,
# each side runs once more per seed and workload with `--trace 1`.
#
# Writes BENCH_<pr>.json at the repository root, <pr> being one more than
# the highest "PR <n>" entry of the parent's CHANGES.md. Per seed,
# workload and BENCHMARK.json end-to-end metric it holds every run, each
# side's median and quartiles, the pairs the change won, and the
# change/parent ratio of the medians; per seed and workload each side's
# runs that were not `correct`, its failed operations, and (under
# `traced.{parent,change}`) the per-layer metrics of its traced run; and
# both commit ids, the host (nproc, CPU model, and each side's active
# ISA: the two builds may pick different forms on one host), the pair
# count, the seconds and the seeds. Needs jq.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
  sed -n '4,5p' "$0" | sed 's/^# //' >&2
  exit 2
fi
root="$(git rev-parse --show-toplevel)"
spec="$root/BENCHMARK.json"
parent_rev="$1"
change_rev="$2"
pairs="${3:-10}"
seconds="${4:-$(jq -r .run_seconds "$spec")}"
seeds="${5:-7}"
work="$root/.bench_build"

commit_of() {
  if [ "$1" = WORKTREE ]; then
    echo "$(git -C "$root" rev-parse HEAD)+worktree"
  else
    git -C "$root" rev-parse --verify "$1^{commit}"
  fi
}

# Copies revision $2 into $work/$1 and builds its benchmark there.
checkout() {
  local dir="$work/$1"
  rm -rf "$dir"
  mkdir -p "$dir"
  if [ "$2" = WORKTREE ]; then
    (cd "$root" && git ls-files -z --cached --others --exclude-standard |
      while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
      tar --null -T - -cf -) | tar -xf - -C "$dir"
  else
    git -C "$root" archive "$2" | tar -xf - -C "$dir"
  fi
  CARGO_TARGET_DIR="$dir-target" \
    cargo build -q --release --offline --manifest-path "$dir/benchmark/Cargo.toml" >&2
}

parent_commit="$(commit_of "$parent_rev")"
change_commit="$(commit_of "$change_rev")"
pr=$(($(git -C "$root" show "$parent_commit:CHANGES.md" |
  grep -o '^[-#* ]*PR [0-9]*' | grep -o '[0-9]*$' | sort -n | tail -n1) + 1))
out="$root/BENCH_$pr.json"

checkout parent "$parent_rev"
checkout change "$change_rev"

runs="$work/runs.jsonl"
: >"$runs"
for seed in ${seeds//,/ }; do
  for workload in $(jq -r '.workloads[].name' "$spec"); do
    for ((pair = 0; pair < pairs; pair++)); do
      order="parent change"
      if ((pair % 2 == 1)); then order="change parent"; fi
      for side in $order; do
        echo "bench-ab: seed $seed $workload pair $((pair + 1))/$pairs $side" >&2
        line="$("$work/$side-target/release/lightmamba_benchmark" \
          --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n1)"
        jq -c --arg w "$workload" --arg s "$side" --argjson p "$pair" --argjson seed "$seed" \
          '{seed: $seed, workload: $w, side: $s, pair: $p, correct, attempted, failed, metrics}' \
          <<<"$line" >>"$runs"
      done
    done
  done
done
traced="$work/traced.jsonl"
: >"$traced"
for seed in ${seeds//,/ }; do
  for workload in $(jq -r '.workloads[].name' "$spec"); do
    for side in parent change; do
      echo "bench-ab: seed $seed $workload traced $side" >&2
      "$work/$side-target/release/lightmamba_benchmark" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1 | tail -n1 |
        jq -c --arg w "$workload" --arg s "$side" --argjson seed "$seed" \
          '{seed: $seed, workload: $w, side: $s, metrics: (.metrics | map_values(.value))}' \
          >>"$traced"
    done
  done
done
result_of() { echo "$work/$1/benchmark/out/result-$(jq -r '.workloads[-1].name' "$spec").json"; }

jq -s \
  --slurpfile spec "$spec" \
  --slurpfile host "$(result_of change)" \
  --slurpfile parent_host "$(result_of parent)" \
  --slurpfile traced "$traced" \
  --arg parent "$parent_commit" --arg change "$change_commit" \
  --argjson pairs "$pairs" --argjson seconds "$seconds" \
  --argjson seeds "[${seeds}]" '
  # Linear-interpolated quantile of a non-empty array.
  def q($p): sort as $s | ($s | length) as $n | (($n - 1) * $p) as $i
    | ($i | floor) as $lo | ($i | ceil) as $hi
    | $s[$lo] + ($s[$hi] - $s[$lo]) * ($i - $lo);
  def side_stats: {median: q(0.5), q1: q(0.25), q3: q(0.75)};
  . as $runs
  | {
      parent_commit: $parent, change_commit: $change,
      host: (($host[0].host | {nproc, cpu_model})
        + {active_isa: {parent: $parent_host[0].host.isa, change: $host[0].host.isa}}),
      pairs: $pairs, seconds: $seconds, seeds: $seeds,
      command: "--workload W --seed S --seconds \($seconds) --trace 0",
      workloads: [
        $seeds[] as $seed
        | $spec[0].workloads[].name as $w
        | ($runs | map(select(.workload == $w and .seed == $seed))) as $wr
        | {
            name: $w, seed: $seed,
            incorrect_runs: {
              parent: ($wr | map(select(.side == "parent" and (.correct | not))) | length),
              change: ($wr | map(select(.side == "change" and (.correct | not))) | length)
            },
            failed_ops: {
              parent: ($wr | map(select(.side == "parent") | .failed) | add),
              change: ($wr | map(select(.side == "change") | .failed) | add)
            },
            traced: ($traced | map(select(.workload == $w and .seed == $seed) | {(.side): .metrics}) | add),
            metrics: [
              $spec[0].end_to_end[] as $m
              | [range(0; $pairs)] as $ps
              | ($ps | map(. as $p | $wr[] | select(.pair == $p and .side == "parent") | .metrics[$m.name].value)) as $a
              | ($ps | map(. as $p | $wr[] | select(.pair == $p and .side == "change") | .metrics[$m.name].value)) as $b
              | {
                  name: $m.name, unit: $m.unit, better: $m.better, bound: $m.bound,
                  parent: ({runs: $a} + ($a | side_stats)),
                  change: ({runs: $b} + ($b | side_stats)),
                  change_wins: ([range(0; $pairs)]
                    | map(select(if $m.better == "higher" then $b[.] > $a[.] else $b[.] < $a[.] end))
                    | length),
                  ratio: (($b | q(0.5)) / ($a | q(0.5)))
                }
            ]
          }
      ]
    }' "$runs" >"$out"
echo "bench-ab: wrote $out" >&2
