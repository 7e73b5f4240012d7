//! Pinned fingerprints of the cluster's serial epoch work: harvest
//! order, load-balancer picks and landing-host choice.
//!
//! Each scenario pins two hashes. The outputs hash covers the run's
//! `FleetPoint` JSON: what the fleet served, dropped and measured. The
//! encoding hash covers every host's clock at rest and delivered-event
//! count, which also move when the event queue delivers fewer dead
//! events. A change that only makes the serial bookkeeping cheaper must
//! leave both unchanged; a change to how the simulator encodes its work
//! may re-pin the encodings, never the outputs. Every scenario registers
//! a backend count that is not a power of two, so a tournament tree over
//! the backends has padding leaves.

use cluster::{build_web_fleet, Cluster, ClusterConfig, LbPolicy, MigrationConfig, WebFleetConfig};
use sim_core::time::{SimDuration, SimTime};
use testkit::fnv1a;

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

/// One scenario's pins: the outputs hash and the encoding hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pins {
    outputs: u64,
    encoding: u64,
}

/// Runs past `end` until nothing is in flight, then hashes the fleet
/// point (the outputs) and every host's clock and event count (the
/// encoding).
fn drain_and_hash(c: &mut Cluster, end: SimTime, rps: u64) -> Pins {
    c.run_until(end).expect("runs");
    let mut deadline = end;
    while c.in_flight() > 0 {
        assert!(deadline < end + SimDuration::from_secs(1), "never drained");
        deadline += SimDuration::from_ms(10);
        c.run_until(deadline).expect("drains");
    }
    let outputs = fnv1a(c.fleet_point("golden", rps).to_json().as_bytes());
    let mut hosts = String::new();
    for host in 0..c.n_hosts() {
        let m = c.machine(host);
        hosts.push_str(&format!(
            "host{host} {} {}\n",
            m.now().as_ns(),
            m.events_delivered()
        ));
    }
    Pins {
        outputs,
        encoding: fnv1a(hosts.as_bytes()),
    }
}

/// 16 hosts, 48 backends, under least-outstanding at a steady load.
fn steady_least_outstanding() -> Pins {
    let mut c = fleet(16, 3, 0, LbPolicy::LeastOutstanding);
    let end = SimTime::from_ms(100);
    c.set_window(SimTime::from_ms(20), end);
    c.open_loop(128_000.0, SimTime::ZERO, end);
    drain_and_hash(&mut c, end, 128_000)
}

/// Round robin through a checkpoint, a crash and a restore, so the
/// replay fence (`skip`) discards re-done work during harvest.
fn round_robin_crash_restore() -> Pins {
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
fn migrated_backends() -> Pins {
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
    let outputs = got.map(|p| p.outputs);
    let want_outputs: [u64; 3] = [0xe1c714feca3715d0, 0x3bd9e23dd9d0243e, 0xeebdff319f85c932];
    assert_eq!(
        outputs, want_outputs,
        "serial epoch outputs drifted (got [{:#018x}, {:#018x}, {:#018x}])",
        outputs[0], outputs[1], outputs[2]
    );
    let encoding = got.map(|p| p.encoding);
    let want_encoding: [u64; 3] = [0x0c4e0460d97fa79b, 0x7db09382a4cb8de6, 0xeadeed0aa8b1a901];
    assert_eq!(
        encoding, want_encoding,
        "host clocks or delivered-event counts drifted (got [{:#018x}, {:#018x}, {:#018x}])",
        encoding[0], encoding[1], encoding[2]
    );
}
