#!/usr/bin/env bash
# A/B timing of the working tree against <base-rev> with macbench: exports
# the base with `git archive` into a temporary directory, builds macbench
# in both trees, then runs <pairs> alternating pairs (base first in odd
# pairs, the working tree first in even ones) of one workload.
#
# Usage: scripts/bench-pairs.sh <base-rev> <workload> <pairs> [seconds] [seed]
#   seconds defaults to 35 (the benchmark's run length), seed to 1.
#   Prints every pair's end-to-end metrics (base → change), then, per
#   metric, how many pairs the change won (by the metric's direction in
#   BENCHMARK.json), the median ratio change/base, and the base runs'
#   interquartile range. Failed ops are summed per side. It invokes
#   macbench and never edits it; it needs `jq`. Not run by scripts/ci.sh.
#   The temporary directory (under $TMPDIR, default /tmp) is removed on
#   exit.
set -euo pipefail

cd "$(dirname "$0")/.."
usage="usage: scripts/bench-pairs.sh <base-rev> <workload> <pairs> [seconds] [seed]"
base=${1:?$usage}
workload=${2:?$usage}
pairs=${3:?$usage}
seconds=${4:-35}
seed=${5:-1}
command -v jq > /dev/null || { echo "bench-pairs.sh needs jq" >&2; exit 2; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$base" | tar -x -C "$tmp"

build() {
  cargo build --release --offline --quiet --manifest-path "$1/macbench/Cargo.toml"
}
echo "==> building macbench at $base and in the working tree"
build "$tmp"
build .
bin_base="$tmp/macbench/target/release/macbench"
bin_change="./macbench/target/release/macbench"

# Runs one side and appends its JSON line to $tmp/<side>.jsonl.
run() {
  "$2" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2> /dev/null \
    | tail -n 1 >> "$tmp/$1.jsonl"
}

metrics=$(jq -r '.end_to_end[].name' BENCHMARK.json)
for pair in $(seq 1 "$pairs"); do
  if (( pair % 2 == 1 )); then
    run base "$bin_base"
    run change "$bin_change"
  else
    run change "$bin_change"
    run base "$bin_base"
  fi
  line="pair $pair:"
  for metric in $metrics; do
    b=$(tail -n 1 "$tmp/base.jsonl" | jq ".metrics.\"$metric\".value")
    c=$(tail -n 1 "$tmp/change.jsonl" | jq ".metrics.\"$metric\".value")
    line+=$(printf ' %s %.4g→%.4g' "$metric" "$b" "$c")
  done
  echo "$line"
done

echo "==> $workload, seed $seed, $seconds s, $pairs pairs (change vs $base)"
for side in base change; do
  jq -s --arg side "$side" \
    '"failed ops (\($side)): \(map(.failed) | add) of \(map(.attempted) | add)"' \
    -r "$tmp/$side.jsonl"
done
for metric in $metrics; do
  better=$(jq -r ".end_to_end[] | select(.name == \"$metric\") | .better" BENCHMARK.json)
  jq -rs --arg m "$metric" --arg better "$better" --slurpfile change "$tmp/change.jsonl" '
    def median: sort | if length % 2 == 1 then .[length / 2 | floor]
      else (.[length / 2 - 1] + .[length / 2]) / 2 end;
    def quartile(q): sort | .[(length - 1) * q | round];
    [.[] | .metrics[$m].value] as $b
    | [$change[] | .metrics[$m].value] as $c
    | [range(0; $b | length) | if $better == "higher" then $c[.] > $b[.]
        else $c[.] < $b[.] end | select(.)] | length as $wins
    | "\($m): wins \($wins)/\($b | length), median \($b | median) → \($c | median), "
      + "ratio \([range(0; $b | length) | $c[.] / $b[.]] | median), "
      + "base IQR \(($b | quartile(0.75)) - ($b | quartile(0.25)))"
  ' "$tmp/base.jsonl"
done
