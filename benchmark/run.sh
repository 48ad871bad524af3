#!/usr/bin/env bash
# Build the benchmark and run it. With no --workload, every workload runs
# in turn (one fresh process each); every argument is passed through:
#
#   benchmark/run.sh --seed 7                  end-to-end metrics, all workloads
#   benchmark/run.sh --seed 7 --trace          per-layer metrics, all workloads
#   benchmark/run.sh --workload bulk-scan --seed 7 --seconds 25 --trace 0
#   benchmark/run.sh --quick                   2 s rounds, smoke only
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/cicero-benchmark" "$@"
