#!/usr/bin/env bash
# Full CI gate: release build, tier-1 tests, full workspace tests, lints.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier 1)"
cargo test -q

echo "==> cargo test -q --release --workspace"
cargo test -q --release --workspace

echo "==> benchmark exact-repeat tests (macbench, traced counters)"
cargo test --release --offline --manifest-path macbench/Cargo.toml

echo "==> paper-conformance gate (repro -- conformance --quick)"
cargo run --release -p macgame-bench --bin repro -- conformance --quick

echo "==> telemetry profile (repro -- profile --quick)"
cargo run --release -p macgame-bench --bin repro -- profile --quick

echo "==> robustness plane (repro -- robustness --quick, thread-invariance check)"
MACGAME_THREADS=1 cargo run --release -p macgame-bench --bin repro -- robustness --quick
cp artifacts/ROBUSTNESS.json artifacts/ROBUSTNESS.threads1.json
MACGAME_THREADS=2 cargo run --release -p macgame-bench --bin repro -- robustness --quick
cmp artifacts/ROBUSTNESS.threads1.json artifacts/ROBUSTNESS.json
rm artifacts/ROBUSTNESS.threads1.json

echo "==> EDCA strategy space (repro -- edca --quick, thread-invariance check)"
MACGAME_THREADS=1 cargo run --release -p macgame-bench --bin repro -- edca --quick
cp artifacts/EDCA.json artifacts/EDCA.threads1.json
MACGAME_THREADS=2 cargo run --release -p macgame-bench --bin repro -- edca --quick
cmp artifacts/EDCA.threads1.json artifacts/EDCA.json
rm artifacts/EDCA.threads1.json

echo "==> detection plane (repro -- detect --quick, thread-invariance check)"
MACGAME_THREADS=1 cargo run --release -p macgame-bench --bin repro -- detect --quick
cp artifacts/DETECT.json artifacts/DETECT.threads1.json
MACGAME_THREADS=2 cargo run --release -p macgame-bench --bin repro -- detect --quick
cmp artifacts/DETECT.threads1.json artifacts/DETECT.json
rm artifacts/DETECT.threads1.json

echo "==> solver benchmark trajectory (repro -- bench-solver --quick)"
cargo run --release -p macgame-bench --bin repro -- bench-solver --quick

echo "==> serve benchmark (repro -- bench-serve --quick, wire-path qps + thread invariance)"
cargo run --release -p macgame-bench --bin repro -- bench-serve --quick

echo "==> workspace invariant lints + call-graph analysis (repro -- lint, byte-stability check)"
MACGAME_THREADS=1 cargo run --release -p macgame-bench --bin repro -- lint
cp artifacts/ANALYSIS.json artifacts/ANALYSIS.threads1.json
cp artifacts/LINT.json artifacts/LINT.threads1.json
MACGAME_THREADS=2 cargo run --release -p macgame-bench --bin repro -- lint
cmp artifacts/ANALYSIS.threads1.json artifacts/ANALYSIS.json
cmp artifacts/LINT.threads1.json artifacts/LINT.json
rm artifacts/ANALYSIS.threads1.json artifacts/LINT.threads1.json

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo fmt --check (advisory)"
cargo fmt --all --check || echo "fmt check skipped or failed (advisory only)"

echo "CI OK"
