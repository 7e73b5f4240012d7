#!/usr/bin/env bash
# Builds the simulator benchmark (release, offline) and runs it.
#
# One run, result as the last stdout line:
#   perf/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]
# N fresh-process runs per workload (default: 5 runs of all four),
# one summary JSON line per (workload, metric); exits non-zero if any
# run fails a check:
#   perf/run.sh [--reps N] [--seed S] [--seconds S] [--trace] [workload...]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/vscale-perf" "$@"
