//! Pinned fingerprints of the cluster's serial epoch work: harvest
//! order, load-balancer picks and landing-host choice.
//!
//! Each scenario hashes the run's `FleetPoint` JSON together with every
//! host's clock and delivered-event count. A change that only makes the
//! serial bookkeeping cheaper must leave all three hashes unchanged.
//! Every scenario registers a backend count that is not a power of two,
//! so a tournament tree over the backends has padding leaves.

use cluster::{build_web_fleet, Cluster, ClusterConfig, LbPolicy, MigrationConfig, WebFleetConfig};
use sim_core::time::{SimDuration, SimTime};

/// FNV-1a: a stable 64-bit fingerprint to pin goldens.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn fleet(hosts: usize, serving: usize, spares_per_host: usize, lb: LbPolicy) -> Cluster {
    build_web_fleet(
        WebFleetConfig {
            hosts,
            serving_vms_per_host: serving,
            desktops_per_host: 1,
            spares_per_host,
            ..WebFleetConfig::default()
        },
        ClusterConfig {
            lb,
            threads: 1,
            ..ClusterConfig::default()
        },
    )
}

/// Runs past `end` until nothing is in flight, then hashes the fleet
/// point and every host's clock and event count.
fn drain_and_hash(c: &mut Cluster, end: SimTime, rps: u64) -> u64 {
    c.run_until(end).expect("runs");
    let mut deadline = end;
    while c.in_flight() > 0 {
        assert!(deadline < end + SimDuration::from_secs(1), "never drained");
        deadline += SimDuration::from_ms(10);
        c.run_until(deadline).expect("drains");
    }
    let mut out = c.fleet_point("golden", rps).to_json();
    for host in 0..c.n_hosts() {
        let m = c.machine(host);
        out.push_str(&format!(
            "\nhost{host} {} {}",
            m.now().as_ns(),
            m.events_delivered()
        ));
    }
    fnv1a(out.as_bytes())
}

/// 16 hosts, 48 backends, under least-outstanding at a steady load.
fn steady_least_outstanding() -> u64 {
    let mut c = fleet(16, 3, 0, LbPolicy::LeastOutstanding);
    let end = SimTime::from_ms(100);
    c.set_window(SimTime::from_ms(20), end);
    c.open_loop(128_000.0, SimTime::ZERO, end);
    drain_and_hash(&mut c, end, 128_000)
}

/// Round robin through a checkpoint, a crash and a restore, so the
/// replay fence (`skip`) discards re-done work during harvest.
fn round_robin_crash_restore() -> u64 {
    let mut c = fleet(3, 2, 0, LbPolicy::RoundRobin);
    let end = SimTime::from_ms(200);
    c.set_window(SimTime::from_ms(20), end);
    c.open_loop(24_000.0, SimTime::ZERO, end);
    c.run_until(SimTime::from_ms(50)).expect("warmup");
    let image = c.checkpoint_host(1);
    c.run_until(SimTime::from_ms(90)).expect("pre-crash");
    c.crash_host(1);
    c.run_until(SimTime::from_ms(120)).expect("outage");
    c.restore_host(1, &image);
    drain_and_hash(&mut c, end, 24_000)
}

/// A migration moves backend 0 to host 4, so backends are no longer in
/// host-major order; then drain/undrain, a VM failure and an evacuation
/// that picks landing hosts by least outstanding.
fn migrated_backends() -> u64 {
    let mut c = fleet(5, 2, 1, LbPolicy::LeastOutstanding);
    let end = SimTime::from_ms(260);
    c.set_window(SimTime::from_ms(20), end);
    c.open_loop(30_000.0, SimTime::ZERO, end);
    c.run_until(SimTime::from_ms(40)).expect("warmup");
    c.start_migration(0, 4, MigrationConfig::default());
    c.run_until(SimTime::from_ms(100)).expect("migrating");
    assert_eq!(c.backend_host(0), 4, "backend 0 must have moved");
    c.drain_backend(2);
    c.run_until(SimTime::from_ms(130)).expect("draining");
    c.undrain_backend(2);
    c.fail_backend(5);
    c.run_until(SimTime::from_ms(150)).expect("failed");
    assert!(c.evacuate_host(1, MigrationConfig::default()) > 0);
    drain_and_hash(&mut c, end, 30_000)
}

#[test]
fn serial_epoch_outputs_match_pinned_goldens() {
    let got = [
        steady_least_outstanding(),
        round_robin_crash_restore(),
        migrated_backends(),
    ];
    let want: [u64; 3] = [0x84ae14589c758dd5, 0x12f11791276e6873, 0xa086f57ad379d4a9];
    assert_eq!(
        got, want,
        "serial epoch outputs drifted (got [{:#018x}, {:#018x}, {:#018x}])",
        got[0], got[1], got[2]
    );
}
