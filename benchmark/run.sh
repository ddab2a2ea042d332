#!/usr/bin/env bash
# Builds the benchmark crate offline and runs it from the repository root.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, one JSON result on the last line (the driver contract)
#   benchmark/run.sh [run] [--seed <n>] [--seconds <s>] [--quick] [--trace] [--repeat <k>]
#       every workload, a result document under benchmark/out/
#   benchmark/run.sh compare <a.json> <b.json>
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
timeout -k 5 850 cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
# `timeout` signals its whole process group, so a forked daemon cannot
# outlive a run that overstays: one workload gets the driver's 180 s less a
# margin, a full (or repeated) set gets ten minutes.
limit=600
if [ "${1:-}" = "--workload" ]; then limit=170; fi
exec timeout -k 5 "$limit" "$CARGO_TARGET_DIR/release/powerdial-benchmark" "$@"
