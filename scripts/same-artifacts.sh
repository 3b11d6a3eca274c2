#!/usr/bin/env bash
# Checks that the working tree writes the same contract artifacts as
# <base-rev>: exports the base with `git archive` into a temporary
# directory, builds `repro` in both trees, runs
# `repro -- {conformance,robustness,edca,detect,profile} --quick` in each
# at MACGAME_THREADS=1, compares the four contract artifacts byte for
# byte, and compares TELEMETRY.json up to its "timings" key (everything
# before it is deterministic; the timings are wall clock).
#
# Usage: scripts/same-artifacts.sh <base-rev>
#   Prints one verdict per artifact, and for a TELEMETRY.json that differs
#   every counter whose value differs (needs `jq`). Exits non-zero naming
#   the first artifact that differs. It builds the workspace twice, so
#   scripts/ci.sh does not run it. The temporary directory (under
#   $TMPDIR, default /tmp) is removed on exit.
set -euo pipefail

cd "$(dirname "$0")/.."
base=${1:?usage: scripts/same-artifacts.sh <base-rev>}
command -v jq > /dev/null || { echo "same-artifacts.sh needs jq" >&2; exit 2; }
experiments=(conformance robustness edca detect profile)
artifacts=(CONFORMANCE ROBUSTNESS EDCA DETECT)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$base" | tar -x -C "$tmp"

# Builds `repro` in tree $1 and runs every experiment there.
run_tree() {
  (
    cd "$1"
    cargo build --release --offline --quiet -p macgame-bench --bin repro
    for experiment in "${experiments[@]}"; do
      MACGAME_THREADS=1 ./target/release/repro "$experiment" --quick > /dev/null
    done
  )
}

echo "==> base $base ($tmp)"
run_tree "$tmp"
echo "==> working tree"
run_tree .

first_diff=
for name in "${artifacts[@]}"; do
  if cmp -s "$tmp/artifacts/$name.json" "artifacts/$name.json"; then
    echo "same     $name.json"
  else
    echo "DIFFERS  $name.json"
    first_diff=${first_diff:-$name.json}
  fi
done

# The deterministic part of a telemetry snapshot: the lines before "timings".
deterministic() { sed '/"timings"/,$d' "$1"; }
base_telemetry="$tmp/artifacts/TELEMETRY.json"
if cmp -s <(deterministic "$base_telemetry") <(deterministic artifacts/TELEMETRY.json); then
  echo "same     TELEMETRY.json (before \"timings\")"
else
  echo "DIFFERS  TELEMETRY.json (before \"timings\")"
  jq -r --slurpfile base "$base_telemetry" '
    .counters as $now | $base[0].counters as $was
    | ($now + $was | keys[]) as $name
    | select($now[$name] != $was[$name])
    | "         counter \($name): \($was[$name]) → \($now[$name])"
  ' artifacts/TELEMETRY.json
  first_diff=${first_diff:-TELEMETRY.json}
fi

if [[ -n $first_diff ]]; then
  echo "artifacts differ from $base, first: $first_diff" >&2
  exit 1
fi
echo "all $((${#artifacts[@]} + 1)) artifacts match $base"
