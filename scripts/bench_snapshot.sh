#!/usr/bin/env bash
# Captures a machine-readable perf snapshot: runs the microcost suite and
# stores its JSON lines (one per benchmark, including the event-queue
# events_per_sec throughput rows) so future PRs have a perf trajectory.
#
#   ./scripts/bench_snapshot.sh                 # writes BENCH_baseline.json
#   ./scripts/bench_snapshot.sh out.json        # writes elsewhere
#   VSCALE_BENCH_SCALE=full ./scripts/bench_snapshot.sh   # longer timed phase
#
# Numbers are machine- and load-dependent; compare ratios (e.g. arm vs
# cancel-then-schedule re-arm churn) across snapshots, not absolute
# nanoseconds across machines.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_baseline.json}"
scale="${VSCALE_BENCH_SCALE:-quick}"

echo "== bench snapshot (scale: $scale) -> $out =="
VSCALE_BENCH_SCALE="$scale" \
    cargo bench -q --offline -p vscale-bench --bench microcosts \
    | tee /dev/stderr | grep '^{' > "$out"
echo "== wrote $(wc -l < "$out") benchmark records to $out =="
