#!/usr/bin/env bash
# Regenerate the golden conformance fixtures under tests/golden/ and the
# byte ledger CONTRACT.json.
#
# The fixtures pin the analytical artifacts (fixed-point solutions,
# Theorem 2 NE intervals, the Section V.C search trajectory, deviation
# payoffs, multi-hop convergence traces) byte-for-byte. The ledger pins
# the byte count and FNV-1a digest of the contract artifacts, the served
# reply streams and the solver batch (crates/bench/tests/contract.rs).
# Run this after an *intended* change, inspect `git diff tests/golden/
# CONTRACT.json`, and commit both together with the change that
# motivated them.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> regenerating tests/golden/ (UPDATE_GOLDEN=1)"
UPDATE_GOLDEN=1 cargo test -q --test conformance_golden

echo "==> verifying the fresh fixtures round-trip"
cargo test -q --test conformance_golden

echo "==> blessed fixtures:"
git status --short tests/golden/ || true

echo "==> rewriting CONTRACT.json (UPDATE_GOLDEN=1); entries that moved:"
UPDATE_GOLDEN=1 cargo test -q --release -p macgame-bench --test contract -- --nocapture |
  sed -n 's/^CONTRACT.json moved: /  /p'

echo "Inspect 'git diff tests/golden/ CONTRACT.json' before committing."
echo "Reminder: golden updates ship with a clean lint run — check with"
echo "  cargo run --release -p macgame-bench --bin repro -- lint"
