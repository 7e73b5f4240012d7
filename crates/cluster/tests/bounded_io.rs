//! A fleet host's I/O record stays bounded. Every epoch, harvest takes
//! the replies of each backend it reads, so no backend's machine holds
//! untaken I/O at an epoch boundary and a host's checkpoint does not
//! grow with simulated time. The exactly-once ledger still balances
//! through a checkpoint, a crash and restore, a failed backend and a
//! live migration, whose fences are sized from the lifetime totals.

use cluster::{build_web_fleet, Cluster, ClusterConfig, LbPolicy, MigrationConfig, WebFleetConfig};
use sim_core::time::{SimDuration, SimTime};
use vscale::DomId;

/// Serving VMs per host; with four hosts that is 12 backends, not a
/// power of two.
const SERVING: usize = 3;

fn fleet() -> Cluster {
    build_web_fleet(
        WebFleetConfig {
            hosts: 4,
            serving_vms_per_host: SERVING,
            desktops_per_host: 1,
            spares_per_host: 1,
            ..WebFleetConfig::default()
        },
        ClusterConfig {
            lb: LbPolicy::LeastOutstanding,
            threads: 1,
            ..ClusterConfig::default()
        },
    )
}

/// The domain serving `backend`: backends are registered host-major,
/// and a migrated one lands on its destination's only spare, which
/// follows the serving VMs.
fn backend_dom(c: &Cluster, backend: usize) -> DomId {
    if c.backend_host(backend) == backend / SERVING {
        DomId(backend % SERVING)
    } else {
        DomId(SERVING)
    }
}

/// No backend that harvest reads (its host up, its VM not in blackout)
/// holds an untaken I/O entry.
fn assert_io_taken(c: &Cluster) {
    for b in 0..c.n_backends() {
        let host = c.backend_host(b);
        if !c.host_up(host) || c.backend_in_blackout(b) {
            continue;
        }
        let (arrivals, deliveries, completions) = c.machine(host).io_logs(backend_dom(c, b));
        assert!(
            arrivals.is_empty() && deliveries.is_empty() && completions.is_empty(),
            "backend {b} on host {host} holds {} arrivals, {} deliveries and {} \
             completions untaken at {}",
            arrivals.len(),
            deliveries.len(),
            completions.len(),
            c.now()
        );
    }
}

/// Runs to `to` in 10 ms steps, each ending on an epoch boundary, and
/// checks the I/O record after every step.
fn run_checked(c: &mut Cluster, to: SimTime) {
    while c.now() < to {
        let next = (c.now() + SimDuration::from_ms(10)).min(to);
        c.run_until(next).expect("runs");
        assert_io_taken(c);
    }
}

#[test]
fn harvest_takes_every_reply_and_checkpoints_stay_flat() {
    let mut c = fleet();
    assert_eq!(c.n_backends(), 12);
    let end = SimTime::from_ms(2_100);
    c.open_loop(12_000.0, SimTime::ZERO, end);

    // Host 3 is never crashed, failed, or migrated to or from.
    run_checked(&mut c, SimTime::from_ms(500));
    let early = c.checkpoint_host(3).len();

    // Host 0: checkpoint, crash, restore; its replay is fenced by the
    // totals the image carries.
    run_checked(&mut c, SimTime::from_ms(600));
    let image = c.checkpoint_host(0);
    run_checked(&mut c, SimTime::from_ms(800));
    c.crash_host(0);
    run_checked(&mut c, SimTime::from_ms(900));
    c.restore_host(0, &image);
    assert_io_taken(&c);

    // Backend 3 (host 1) fails while its host lives on.
    run_checked(&mut c, SimTime::from_ms(1_000));
    c.fail_backend(3);

    // Backend 6 (host 2) live-migrates onto host 1's spare.
    run_checked(&mut c, SimTime::from_ms(1_200));
    c.start_migration(6, 1, MigrationConfig::default());
    run_checked(&mut c, SimTime::from_ms(2_000));
    assert_eq!(c.backend_host(6), 1, "backend 6 cut over");
    assert_eq!(c.robustness().migrations_ok, 1);

    let late = c.checkpoint_host(3).len();
    assert!(
        late <= early + 4_096,
        "host 3's checkpoint grew from {early} B at 0.5 s to {late} B at 2.0 s"
    );

    // Drain: every request is accounted exactly once.
    run_checked(&mut c, end);
    let mut deadline = end;
    while c.in_flight() > 0 && deadline < end + SimDuration::from_secs(2) {
        deadline += SimDuration::from_ms(10);
        run_checked(&mut c, deadline);
    }
    assert_eq!(c.in_flight(), 0, "requests stuck in flight after drain");
    let completed: u64 = c.host_samples().iter().map(|h| h.completed).sum();
    let drops: u64 = c.host_samples().iter().map(|h| h.drops).sum();
    assert_eq!(
        completed + drops,
        c.sent(),
        "{completed} completed + {drops} dropped != {} sent",
        c.sent()
    );

    // No SLO sampler is installed, so the SLO window recorded nothing.
    let w = c.take_slo_window();
    assert_eq!((w.completed, w.drops, w.latency_us.count()), (0, 0, 0));
}
