#!/usr/bin/env bash
# Full CI gate: release build, tier-1 tests, full workspace tests, lints,
# formatting.
# This script is the one definition of the gate: the GitHub workflow runs
# it as a single step. Run it from anywhere: ./scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier 1)"
cargo test -q

echo "==> cargo test -q --release --workspace"
cargo test -q --release --workspace

# The release steps run without overflow checks; the wire crates parse
# client bytes, and the solver kernels and the game layer turn
# client-sized integers (players, lags, windows) into memo keys and `i32`
# exponents, so their tests also run in the debug profile.
echo "==> wire, solver and game crates' tests in the debug profile (overflow checks on)"
cargo test -q -p serde -p serde_json -p macgame-serve -p macgame-dcf -p macgame-core

echo "==> determinism tests on the serial path (MACGAME_THREADS=1)"
MACGAME_THREADS=1 cargo test -q --release -p macgame-core --test determinism

echo "==> paper-conformance gate (repro -- conformance --quick)"
cargo run --release -p macgame-bench --bin repro -- conformance --quick

echo "==> telemetry profile (repro -- profile --quick)"
cargo run --release -p macgame-bench --bin repro -- profile --quick

# Thread invariance of the lint artifacts: lint runs at MACGAME_THREADS=1
# and 2 and both artifacts must be byte-identical across the two runs.
# They change with the repo's own source, so they stay out of
# CONTRACT.json, whose test (crates/bench/tests/contract.rs, in the release
# workspace step) checks the contract artifacts at both thread counts.
echo "==> repro -- lint (thread-invariance check of LINT and ANALYSIS)"
MACGAME_THREADS=1 cargo run --release -p macgame-bench --bin repro -- lint
for name in LINT ANALYSIS; do cp "artifacts/$name.json" "artifacts/$name.threads1.json"; done
MACGAME_THREADS=2 cargo run --release -p macgame-bench --bin repro -- lint
for name in LINT ANALYSIS; do
  cmp "artifacts/$name.threads1.json" "artifacts/$name.json"
  rm "artifacts/$name.threads1.json"
done

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo fmt --all --check"
cargo fmt --all --check

# Last, so that a failing benchmark test does not keep the gates above
# from running; it still fails the script.
echo "==> benchmark exact-repeat tests (macbench, traced counters)"
cargo test --release --offline --manifest-path macbench/Cargo.toml

echo "CI OK"
