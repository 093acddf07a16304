#!/usr/bin/env bash
# Two sets of three runs of one build per workload, alternating A B A B
# A B, one workload per process as the benchmark driver runs it (so
# peak_rss_mb is the workload's own), traced; then the comparison: per
# metric and workload both medians, their gap and the bound. Exits
# non-zero if a bounded wall-lane metric leaves its bound or an
# exact-lane metric differs at all. Takes about 25 minutes: a traced run
# of one workload measures for BENCHMARK.json's run_seconds.
#
#   benchmark/stability.sh [seed]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-7}"
manifest="$here/Cargo.toml"
out="$here/out"

cargo build --release --offline --manifest-path "$manifest"
files=()
for workload in single_stream batch_decode shared_prefix mixed_traffic paper_anchors; do
  for run in 1 2 3; do
    for set in A B; do
      cargo run --release --offline --manifest-path "$manifest" -- \
        --seed "$seed" --workload "$workload"
      cp "$out/result-$workload.json" "$out/stability-$workload-$set$run.json"
      files+=("$out/stability-$workload-$set$run.json")
    done
  done
done
cargo run --release --offline --manifest-path "$manifest" --bin stability_compare -- "${files[@]}"
