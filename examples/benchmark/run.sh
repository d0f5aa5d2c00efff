#!/usr/bin/env bash
# Build the program under test and the benchmark from source, then run one
# workload:
#
#   bash examples/benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Both builds go to $CARGO_TARGET_DIR
# (default .bench_build), which is also where traces and reports land.
# Cargo's own output goes to stderr; the benchmark's last stdout line is
# the result object.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
here="$(dirname "${BASH_SOURCE[0]}")"

# The fleet workers are `exageostat worker` processes of the root package.
cargo build --release --offline --quiet --bin exageostat
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

exec "$CARGO_TARGET_DIR/release/xgs-benchmark" \
    --worker-exe "$CARGO_TARGET_DIR/release/exageostat" \
    --out-dir "$CARGO_TARGET_DIR/benchmark-out" \
    "$@"
