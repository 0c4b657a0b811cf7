#!/usr/bin/env bash
# Full local gate: build + static analysis + tests (at the default thread
# count and at one thread) + the benchmark build + the bench smoke sweep,
# warnings fatal. This is the tier-1 verify line plus -Dwarnings; CI and
# pre-push hooks should run exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

echo "== build (release, -D warnings) =="
cargo build --release --workspace

echo "== dynapipe-lint =="
cargo run --release -p dynapipe-lint

echo "== tests (workspace) =="
cargo test -q --workspace

# The default run covers the pool at the machine's thread count; this one
# pins the single-thread path, where every parallel call runs inline, so
# golden_partition, the behavior_eq/sim_eq equivalence suites and the
# in-flight bound are checked at both ends.
echo "== tests (workspace, RAYON_NUM_THREADS=1) =="
RAYON_NUM_THREADS=1 cargo test -q --workspace

# run_all launches sibling binaries from target/release, so build them
# explicitly: a missing bench build must fail here, not skip the gate.
# The repo benchmark is a separate crate that drives the program through
# its public API (perfbench/src/adapter.rs); building it here makes an
# API change that breaks the benchmark fail this gate.
echo "== perfbench build =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== bench bins + run_all --smoke =="
cargo build --release -p dynapipe-bench --bins
cargo run --release -p dynapipe-bench --bin run_all -- --smoke

echo "check.sh: all gates passed"
