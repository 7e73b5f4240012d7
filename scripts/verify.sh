#!/usr/bin/env bash
# Hermetic tier-1 verification, usable as CI. The workspace has zero
# external dependencies, so everything runs with --offline: no registry,
# no network, no vendor directory.
#
#   ./scripts/verify.sh          # build + full test suite + bench smoke
#   VSCALE_BENCH_SCALE=full ./scripts/verify.sh   # paper-length smoke
#   ./scripts/verify.sh differential_smoke   # just the differential gate
#   ./scripts/verify.sh scheduler            # every scheduler trajectory and image pin
#   ./scripts/verify.sh queue                # every pin on event delivery order
#   ./scripts/verify.sh backend_grid         # just the grid checksum gate
#   ./scripts/verify.sh attack_grid          # just the adversarial-grid gate
#   ./scripts/verify.sh elastic              # just the autoscaler interplay gate
#   ./scripts/verify.sh machine_bench        # just the throughput floor gate
#   ./scripts/verify.sh perf_digests         # just the benchmark output digests
#   ./scripts/verify.sh perf_counts          # just the benchmark's traced per-layer counts
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# bench_json BENCH SEEDS THREADS: the bench's JSON lines at quick scale,
# wall-clock lines stripped — a pure function of the seeds.
bench_json() {
    VSCALE_BENCH_SCALE=quick VSCALE_BENCH_SEEDS="$2" VSCALE_THREADS="$3" \
        cargo bench -q --offline -p vscale-bench --bench "$1" \
        | grep '^{' | grep -v wall_ms
}

# pinned_gate BENCH SEEDS SUMFILE CHECKS THREAD_DIFF runs BENCH at 4
# threads and holds its output to SUMFILE, the committed sha256 ("-" for
# none; regenerate deliberately with scripts/bench_pinned.sh BENCH),
# and to CHECKS, space-separated regexes that must each match a line
# ("!regex": must match none). THREAD_DIFF=diff reruns at 1 thread and
# requires identical bytes: every sweep rides the event queue.
pinned_gate() {
    local bench="$1" seeds="$2" sumfile="$3" checks="$4" thread_diff="$5"
    local out="$tmp/$bench.t4" check list
    read -ra list <<< "$checks"  # split on spaces, no globbing
    bench_json "$bench" "$seeds" 4 > "$out"
    if [ "$sumfile" != "-" ]; then
        local want got
        want="$(cat "$sumfile")"
        got="$(sha256sum "$out" | cut -d' ' -f1)"
        if [ "$want" != "$got" ]; then
            echo "$bench drifted from $sumfile: want $want got $got" >&2
            cat "$out" >&2
            exit 1
        fi
        echo "   $bench checksum OK ($got)"
    fi
    for check in "${list[@]}"; do
        if [ "${check#!}" != "$check" ]; then
            if grep -Eq "${check#!}" "$out"; then
                echo "$bench attestation failed: a line matches ${check#!}" >&2
                grep -E "${check#!}" "$out" >&2
                exit 1
            fi
        elif ! grep -Eq "$check" "$out"; then
            echo "$bench attestation failed: no line matches $check" >&2
            exit 1
        fi
    done
    if [ "$thread_diff" = "diff" ]; then
        bench_json "$bench" "$seeds" 1 > "$tmp/$bench.t1"
        diff -u "$out" "$tmp/$bench.t1"
        echo "   $bench byte-identical at VSCALE_THREADS=1 and =4"
    fi
}

# 256 seeded op streams per backend (invariants) and per backend pair
# (shared conservation laws), offline, fixed seed; divergences arrive
# pre-shrunk to a minimal op sequence. See tests/differential.rs.
differential_smoke() {
    echo "== differential: 256 seeded op streams × 3 backends × 3 pairs =="
    cargo test -q --offline --test differential
    echo "   per-backend invariants and cross-backend conservation OK"
}

# Every pin on scheduler trajectories and images in one step: the
# xen-sched unit tests, testkit's unit tests (the differential harness's
# one op interpreter and its broken-freeze shrinker check), the
# cross-backend laws, the layout goldens, the determinism goldens and the
# snapshot image goldens.
scheduler_gate() {
    echo "== scheduler: xen-sched and testkit unit tests + trajectory and image pins =="
    cargo test -q --offline -p xen-sched -p testkit
    cargo test -q --offline --test differential --test layout_equivalence \
        --test determinism --test snapshot
    echo "   scheduler pins OK"
}

# Every pin on event delivery order in one step: the sim-core unit tests
# and proptests (the queue and its timers against a naive reference
# model), the determinism, snapshot and allocation tests, the serial-epoch
# goldens, and the benchmark's lock file, digests and counts.
queue_gate() {
    echo "== queue: sim-core tests + every pin on event delivery order =="
    cargo test -q --offline -p sim-core
    cargo test -q --offline --test determinism --test snapshot --test alloc_steady
    cargo test -q --offline -p cluster --test serial_epoch_golden
    perf_lock_gate
    perf_digest_gate
    perf_counts_gate
    echo "   queue pins OK"
}

# The per-backend figure grid (reduced fig6/fig11/fig14 on every
# scheduler backend), with all three backends present.
backend_grid_gate() {
    echo "== backend grid: per-backend fig6/fig11/fig14 must match the committed checksum =="
    pinned_gate backend_grid 2 scripts/backend_grid.sha256 \
        '"backend":"credit" "backend":"credit2" "backend":"dynfrac"' no
}

# The adversarial-tenant grid: on the vulnerable (sampled-burn) credit
# backend every attack class inflates victim waiting by ≥ 10%, and every
# matching defense restores completion time to within 1.25× of the
# no-attack baseline, on every backend.
attack_grid_gate() {
    echo "== attack grid: 4 attacks × 3 backends × {baseline,attacked,defended} =="
    pinned_gate attack_grid 2 scripts/attacks.sha256 \
        '!"defended_ok":false "credit_all_inflated":true "all_defended_ok":true' diff
}

# The elastic interplay study, five fleets through one flash crowd: the
# autoscaled vScale fleet holds the p99 SLO with zero loss through a
# scale-out AND a scale-in, the minimal static fleet breaches, vScale
# spends fewer host-seconds than any SLO-holding static fleet, and no
# fleet loses a request across scale events.
elastic_gate() {
    echo "== elastic: interplay study must match the committed curves and hold the SLO =="
    local checks='!"drops":[1-9]' field
    for field in vscale_auto_held vscale_auto_scaled_out vscale_auto_scaled_in \
                 static_min_breached all_zero_loss vscale_fewer_host_seconds; do
        checks="$checks \"elastic_gate\".*\"$field\":true"
    done
    pinned_gate elastic_sweep 2 scripts/elastic.sha256 "$checks" diff
}

# Whole-machine dispatch cost must stay within 2x of BENCH_baseline.json,
# compared on min_ns: the best-of-200 call is stable where the mean is
# wrecked by ambient load. The gate catches structural regressions (an
# O(n) scan or per-event allocation doubles the floor); refresh the
# snapshot deliberately with scripts/bench_snapshot.sh.
machine_bench_gate() {
    echo "== machine bench: per-call floor must stay within 2x of BENCH_baseline.json =="
    local out="$tmp/microcosts" bench base fresh
    cargo bench -q --offline -p vscale-bench --bench microcosts | grep '^{' > "$out"
    for bench in machine_dispatch_supervised machine_steps_steady; do
        base="$(grep "\"bench\":\"$bench\"" BENCH_baseline.json \
            | sed -E 's/.*"min_ns":([0-9]+).*/\1/;s/\..*//')"
        fresh="$(grep "\"bench\":\"$bench\"" "$out" \
            | sed -E 's/.*"min_ns":([0-9]+).*/\1/;s/\..*//')"
        if [ -z "$base" ] || [ -z "$fresh" ]; then
            echo "machine bench gate: missing $bench record" >&2
            exit 1
        fi
        if [ "$fresh" -gt $((base * 2)) ]; then
            echo "$bench regressed: ${fresh}ns/call vs baseline ${base}ns (ceiling $((base * 2))ns)" >&2
            exit 1
        fi
        echo "   $bench: ${fresh}ns/call min (baseline ${base}ns) OK"
    done
}

# The simulator benchmark (perf/) is its own workspace with a committed
# lock file. perf/run.sh builds without --locked, so a dependency edge
# added to any crate would silently rewrite perf/Cargo.lock; build it
# locked first, so such a change fails here instead.
perf_lock_gate() {
    echo "== perf lock: the benchmark must build against perf/Cargo.lock as committed =="
    if ! cargo build --release --offline --locked --quiet --manifest-path perf/Cargo.toml; then
        echo "perf/Cargo.lock would change: a crate's [dependencies] moved, and the benchmark's lock file must stay as committed" >&2
        exit 1
    fi
    echo "   perf/Cargo.lock holds"
}

# The simulator benchmark (perf/) folds each workload's simulated
# outputs into one FNV-1a digest. One episode of each at seed 3 must
# reproduce the digest pinned in scripts/perf_digests.txt, so a change
# meant only to make the simulator faster moves no output byte.
perf_digest_gate() {
    echo "== perf digests: every benchmark workload must match its pinned digest =="
    local workload want got
    while read -r workload want; do
        got="$(bash perf/run.sh --workload "$workload" --seed 3 --seconds 0 --trace 0 \
            < /dev/null | sed -n 's/^digest //p')"
        if [ "$got" != "$want" ]; then
            echo "perf $workload drifted from scripts/perf_digests.txt: want $want got $got" >&2
            exit 1
        fi
        echo "   $workload digest OK ($got)"
    done < scripts/perf_digests.txt
}

# One traced episode pair of each benchmark workload at seed 3 must
# print the per-layer counts pinned in scripts/perf_counts.txt. Output
# lines are simulated outputs and must never move; encoding lines may be
# re-pinned, with the move recorded. Every drifting line is printed
# before the gate fails.
perf_counts_gate() {
    echo "== perf counts: every traced per-layer count must match scripts/perf_counts.txt =="
    local kind workload metric want got bad=0 ran=" "
    while read -r kind workload metric want; do
        case "$kind" in ''|'#'*) continue ;; esac
        case "$ran" in
            *" $workload "*) ;;
            *)
                bash perf/run.sh --workload "$workload" --seed 3 --seconds 0 --trace 1 \
                    < /dev/null > "$tmp/counts.$workload"
                ran="$ran$workload "
                ;;
        esac
        got="$(sed -n "s/^metric $metric \([^ ]*\) .*/\1/p" "$tmp/counts.$workload")"
        if [ "$got" != "$want" ]; then
            echo "perf $workload $kind $metric drifted from scripts/perf_counts.txt: want $want got ${got:-nothing}" >&2
            bad=1
        fi
    done < scripts/perf_counts.txt
    if [ "$bad" != 0 ]; then
        exit 1
    fi
    echo "   per-layer counts OK:$ran"
}

case "${1:-all}" in
    differential_smoke) differential_smoke; exit 0 ;;
    scheduler) scheduler_gate; exit 0 ;;
    queue) queue_gate; exit 0 ;;
    backend_grid) backend_grid_gate; exit 0 ;;
    attack_grid) attack_grid_gate; exit 0 ;;
    elastic) elastic_gate; exit 0 ;;
    machine_bench) machine_bench_gate; exit 0 ;;
    perf_digests) perf_digest_gate; exit 0 ;;
    perf_counts) perf_counts_gate; exit 0 ;;
    all) ;;
    *) echo "unknown verify target: $1" >&2; exit 2 ;;
esac

echo "== tier-1: release build (offline) =="
cargo build --release --offline

echo "== tier-1: tests (offline) =="
cargo test -q --offline
cargo test -q --offline --workspace

echo "== tier-1: clippy (offline, -D warnings) =="
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "== tier-1: rustfmt (--check) =="
cargo fmt --check

echo "== tier-1: rustdoc (offline, -D warnings) =="
# Broken or ambiguous intra-doc links fail here, e.g. a link to a method
# that moved between an inherent impl and a trait impl.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== bench smoke: table1_channel + fig6_npb (quick scale) =="
for bench in table1_channel fig6_npb; do
    VSCALE_BENCH_SCALE="${VSCALE_BENCH_SCALE:-quick}" VSCALE_BENCH_SEEDS="${VSCALE_BENCH_SEEDS:-1}" \
        cargo bench -q --offline -p vscale-bench --bench "$bench"
done

echo "== parallel smoke: seed sweep must be byte-stable across thread counts =="
pinned_gate seed_sweep_smoke 4 - '' diff

echo "== chaos: fault-injection suite + fixed-plan replay smoke =="
# Every fault class must terminate cleanly or with a typed error — never
# hang or panic (tests/chaos.rs, watchdog-enforced). A fixed fault plan
# swept over seeds replays byte-identically: fault draws ride the plan's
# private RNG, not wall clock.
cargo test -q --offline --test chaos
pinned_gate chaos_smoke 4 - '' diff

echo "== resilience: fixed-plan sweep must match the committed degradation curve =="
pinned_gate resilience 3 scripts/resilience.sha256 \
    '"recovery_active":true "monotone_within_50000ppm":true' no

echo "== cluster: fleet sweep must match the committed curves and separate the modes =="
# vScale must sustain strictly more offered load than static SMP at the
# fleet p99 SLO.
pinned_gate cluster_sweep 2 scripts/cluster.sha256 '"vscale_gt_static":true' no

echo "== migration: failover sweep must match the committed numbers and lose nothing =="
# Live migration across a dirty-rate × link-latency grid plus two
# failover scenarios (rolling host upgrade, hot-spot evacuation): zero
# request loss in every scenario, and both cutover and capped-retry
# abort paths actually ran.
pinned_gate migration_sweep 2 scripts/migration.sha256 \
    '"migration_gate".*"zero_loss":true "migration_gate".*"abort_and_cutover_seen":true !"zero_loss":false' diff

elastic_gate
differential_smoke
backend_grid_gate
attack_grid_gate
machine_bench_gate
perf_lock_gate
perf_digest_gate
perf_counts_gate
echo "== verify: OK =="
