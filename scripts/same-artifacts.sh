#!/usr/bin/env bash
# Checks that the working tree writes the same contract artifacts as
# <base-rev>: exports the base with `git archive` into a temporary
# directory, builds `repro` in both trees, runs
# `repro -- {conformance,robustness,edca,detect} --quick` in each at
# MACGAME_THREADS=1 and compares the four artifacts byte for byte.
#
# Usage: scripts/same-artifacts.sh <base-rev>
#   Prints one verdict per artifact and exits non-zero naming the first
#   artifact that differs. It builds the workspace twice, so
#   scripts/ci.sh does not run it. The temporary directory (under
#   $TMPDIR, default /tmp) is removed on exit.
set -euo pipefail

cd "$(dirname "$0")/.."
base=${1:?usage: scripts/same-artifacts.sh <base-rev>}
experiments=(conformance robustness edca detect)
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
if [[ -n $first_diff ]]; then
  echo "artifacts differ from $base, first: $first_diff" >&2
  exit 1
fi
echo "all ${#artifacts[@]} artifacts match $base"
