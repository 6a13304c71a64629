#!/usr/bin/env bash
# The one command: builds the harness (and the repository it measures) from
# source, then runs it with the arguments given. See README.md.
#
#   benchmark/run.sh --traced                      the suite, then the traced pass
#   benchmark/run.sh --workload loop_ctrl          one workload of the suite
#   benchmark/run.sh --calibrate                   three passes, spreads and bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                  one run, as BENCHMARK.json's driver asks
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml 1>&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/dcf-benchmark" "$@"
