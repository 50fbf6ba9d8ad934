#!/usr/bin/env bash
# Builds the benchmark from source and runs it.  Run from the repository
# root; every argument is passed through, e.g.
#   bash perfbench/run.sh --workload campaign --seed 7 --seconds 10 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
