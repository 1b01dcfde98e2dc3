#!/usr/bin/env bash
# Build the benchmark driver and run it.
#
#   benchmark/run.sh [--seed N] [--runs R] [--trace] [--quick]   every workload, each in a fresh process
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --compare A.json B.json
#
# Builds into $CARGO_TARGET_DIR when set, else into the repository's
# own target/ directory. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/flock-sysbench" "$@"
