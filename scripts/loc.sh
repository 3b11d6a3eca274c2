#!/usr/bin/env bash
# Lines of Rust added, removed and net between <base-rev> and HEAD, split
# into production and test code. Test code is every `*.rs` file under a
# `tests/` directory, plus every line of any other file from its first
# `#[cfg(test)]` on (the workspace keeps unit tests at the end of a file).
#
# Usage: scripts/loc.sh <base-rev> [<rev>]
#   <rev> defaults to HEAD; any tree-ish works, e.g. `$(git write-tree)`
#   to count staged but uncommitted changes.
set -euo pipefail

cd "$(dirname "$0")/.."
base=${1:?usage: scripts/loc.sh <base-rev> [<rev>]}
head=${2:-HEAD}

git diff -U0 --no-color --no-renames "$base" "$head" -- '*.rs' | awk -v base="$base" -v head="$head" '
  # Line number of the first `#[cfg(test)]` in rev:path; past any line
  # when the file has none or does not exist at rev.
  function test_start(rev, path,    cmd, n) {
    n = 1e18
    if (path == "/dev/null") return n
    cmd = "git show \"" rev ":" path "\" 2>/dev/null | grep -n -m1 \"^#\\[cfg(test)\\]\" | cut -d: -f1"
    if ((cmd | getline n) <= 0) n = 1e18
    close(cmd)
    return n + 0
  }
  function is_test_path(path) { return path ~ /(^|\/)tests\// }
  function count(kind, sign) { tally[kind, sign]++ }
  /^diff --git / {
    old = substr($3, 3); new = substr($4, 3)
    old_start = test_start(base, old); new_start = test_start(head, new)
    next
  }
  /^--- / { if ($2 == "/dev/null") old = "/dev/null"; next }
  /^\+\+\+ / { if ($2 == "/dev/null") new = "/dev/null"; next }
  /^@@ / {
    split(substr($2, 2), o, ","); split(substr($3, 2), a, ",")
    old_ln = o[1]; new_ln = a[1]
    next
  }
  /^-/ {
    count((is_test_path(old) || old_ln >= old_start) ? "test" : "production", "-")
    old_ln++
    next
  }
  /^\+/ {
    count((is_test_path(new) || new_ln >= new_start) ? "test" : "production", "+")
    new_ln++
    next
  }
  END {
    printf "%-11s %8s %8s %8s\n", "", "added", "removed", "net"
    split("production test", kinds, " ")
    for (i = 1; i <= 2; i++) {
      k = kinds[i]; add = tally[k, "+"] + 0; rem = tally[k, "-"] + 0
      printf "%-11s %8d %8d %+8d\n", k, add, rem, add - rem
      total_add += add; total_rem += rem
    }
    printf "%-11s %8d %8d %+8d\n", "total", total_add, total_rem, total_add - total_rem
  }
'
