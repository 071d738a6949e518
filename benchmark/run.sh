#!/usr/bin/env bash
# The one command: build the benchmark from source, then run it.
#
#   benchmark/run.sh                       the untraced suite, all four workloads
#   benchmark/run.sh --trace               ... plus the traced runs and budget tables
#   benchmark/run.sh --quick               smoke scale, whole suite in seconds
#   benchmark/run.sh --sets 2              repeatability check against the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; last stdout line is the result
set -euo pipefail
cd "$(dirname "$0")/.."

# Build output goes to stderr so that stdout ends with the result line.
cargo build --release --offline --manifest-path benchmark/Cargo.toml 1>&2

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/bench" "$@"
