#!/usr/bin/env bash
# Runs one of the six pinned sweeps and stores its JSON lines, plus a
# checksum of the deterministic part.
#
#   ./scripts/bench_pinned.sh BENCH            # writes the sweep's BENCH_*.json
#   ./scripts/bench_pinned.sh BENCH out.json   # writes elsewhere
#
# BENCH is one of:
#
#   bench            seeds  checksum                      default output
#   attack_grid      2      scripts/attacks.sha256        BENCH_attacks.json
#   backend_grid     2      scripts/backend_grid.sha256   BENCH_backend_grid.json
#   cluster_sweep    2      scripts/cluster.sha256        BENCH_cluster.json
#   elastic_sweep    2      scripts/elastic.sha256        BENCH_elastic.json
#   migration_sweep  2      scripts/migration.sha256      BENCH_migration.json
#   resilience       3      scripts/resilience.sha256     BENCH_resilience.json
#
# attack_grid is the adversarial-tenant grid ({tick_evade, boost_farm,
# ipi_storm, oscillate} × {credit, credit2, dynfrac} × {baseline,
# attacked, defended} plus the IPI-storm SLO ladder); backend_grid the
# reduced fig6/fig11/fig14 on every scheduler backend; cluster_sweep the
# fleet's offered load vs tail latency, static SMP against vScale;
# elastic_sweep five fleets through one flash crowd; migration_sweep
# live migration over a dirty-rate × link-latency grid plus two failover
# scenarios; resilience the degradation curve vs injected fault rate.
#
# Seeds, scale (quick) and thread count (4) are pinned so the output —
# everything except the wall-clock session line — is bit-identical on
# every machine. scripts/verify.sh re-runs the same pinned sweep and
# compares its checksum against the committed file, then checks the
# sweep's acceptance fields. Regenerate a checksum with this script
# whenever a deliberate behavior change moves the sweep.
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
    attack_grid)     seeds=2 sum=attacks      json=attacks ;;
    backend_grid)    seeds=2 sum=backend_grid json=backend_grid ;;
    cluster_sweep)   seeds=2 sum=cluster      json=cluster ;;
    elastic_sweep)   seeds=2 sum=elastic      json=elastic ;;
    migration_sweep) seeds=2 sum=migration    json=migration ;;
    resilience)      seeds=3 sum=resilience   json=resilience ;;
    *)
        echo "usage: $0 {attack_grid|backend_grid|cluster_sweep|elastic_sweep|migration_sweep|resilience} [OUT]" >&2
        exit 2
        ;;
esac
bench="$1"
out="${2:-BENCH_$json.json}"

echo "== $bench (pinned: quick scale, $seeds seeds, 4 threads) -> $out =="
VSCALE_BENCH_SCALE=quick VSCALE_BENCH_SEEDS="$seeds" VSCALE_THREADS=4 \
    cargo bench -q --offline -p vscale-bench --bench "$bench" \
    | tee /dev/stderr | grep '^{' > "$out"

grep -v wall_ms "$out" | sha256sum | cut -d' ' -f1 > "scripts/$sum.sha256"
echo "== wrote $(wc -l < "$out") records to $out =="
echo "== $bench checksum: $(cat "scripts/$sum.sha256") =="
