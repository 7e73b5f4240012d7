//! Host-failure domains: crash/checkpoint/restore, LB health, and
//! fault-aware live migration, all under the exactly-once ledger.
//!
//! Every scenario ends with the same acceptance check: after the
//! stream drains, `completed + drops == sent` and nothing is in
//! flight — no request lost, none double-served — regardless of which
//! hosts crashed, which VMs moved, and which transfers the fault plan
//! ate along the way.

use cluster::{
    build_web_fleet, ClusterConfig, Health, LinkConfig, MigrationConfig, WebFleetConfig,
};
use sim_core::time::{SimDuration, SimTime};

fn small_fleet(hosts: usize, spares_per_host: usize) -> cluster::Cluster {
    build_web_fleet(
        WebFleetConfig {
            hosts,
            desktops_per_host: 1,
            spares_per_host,
            ..WebFleetConfig::default()
        },
        ClusterConfig {
            threads: 1,
            ..ClusterConfig::default()
        },
    )
}

/// Runs until `end`, then drains: every dispatched request must be
/// accounted exactly once (completed or dropped), with nothing parked
/// or pending.
fn drain_and_check(c: &mut cluster::Cluster, end: SimTime) {
    c.run_until(end).expect("runs");
    let mut deadline = end;
    for _ in 0..200 {
        if c.in_flight() == 0 {
            break;
        }
        deadline += SimDuration::from_ms(10);
        c.run_until(deadline).expect("drains");
    }
    assert_eq!(c.in_flight(), 0, "requests stuck in flight after drain");
    let completed: u64 = c.host_samples().iter().map(|h| h.completed).sum();
    let drops: u64 = c.host_samples().iter().map(|h| h.drops).sum();
    assert_eq!(
        completed + drops,
        c.sent(),
        "ledger imbalance: {completed} completed + {drops} dropped != {} sent",
        c.sent()
    );
}

#[test]
fn lb_requeues_in_flight_exactly_once_on_backend_failure() {
    let mut c = small_fleet(2, 0);
    let end = SimTime::from_ms(400);
    // Heavy enough that every backend holds several requests at any
    // instant, so the failure strikes a loaded backend.
    c.open_loop(12_000.0, SimTime::ZERO, end);
    // Let backend 0 accumulate in-flight work, then fail its VM while
    // the host lives on: its pending requests must be re-queued to the
    // survivors exactly once, and every reply the zombie still produces
    // must be fenced.
    c.run_until(SimTime::from_ms(120)).expect("warmup");
    c.fail_backend(0);
    assert_eq!(c.backend_health(0), Health::Down);
    assert!(
        c.robustness().requests_requeued > 0,
        "a loaded backend must have had requests to re-queue"
    );
    drain_and_check(&mut c, end);
}

#[test]
fn draining_backend_receives_nothing_new_and_rejoins() {
    let mut c = small_fleet(2, 0);
    let end = SimTime::from_ms(500);
    c.open_loop(2_000.0, SimTime::ZERO, end);
    c.run_until(SimTime::from_ms(100)).expect("warmup");
    c.drain_backend(0);
    let before: u64 = c.host_samples().iter().map(|h| h.completed).sum();
    // While draining, the backend finishes what it holds (no re-queue,
    // no loss) but the fleet keeps serving on the others.
    c.run_until(SimTime::from_ms(250)).expect("drain phase");
    let during: u64 = c.host_samples().iter().map(|h| h.completed).sum();
    assert!(during > before, "fleet stalled while one backend drained");
    assert_eq!(c.backend_health(0), Health::Draining);
    c.undrain_backend(0);
    assert_eq!(c.backend_health(0), Health::Healthy);
    drain_and_check(&mut c, end);
    // Draining never re-queues: the counter stays untouched.
    assert_eq!(c.robustness().requests_requeued, 0);
}

#[test]
fn live_migration_moves_backend_with_zero_loss() {
    let mut c = small_fleet(2, 1);
    let spares_before = c.n_spares();
    let end = SimTime::from_ms(500);
    c.open_loop(2_000.0, SimTime::ZERO, end);
    c.run_until(SimTime::from_ms(100)).expect("warmup");
    assert_eq!(c.backend_host(0), 0);
    c.start_migration(0, 1, MigrationConfig::default());
    c.run_until(SimTime::from_ms(200)).expect("migrating");
    assert_eq!(c.active_migrations(), 0, "migration should have settled");
    let r = c.robustness();
    assert_eq!(r.migrations_ok, 1, "aborted: {}", r.migrations_aborted);
    assert!(r.precopy_rounds >= 1);
    assert_eq!(r.downtime_us.count(), 1, "one blackout recorded");
    assert!(
        r.downtime_us.quantile(1.0) <= 2_000,
        "blackout {}us exceeded the 1ms budget by more than epoch rounding",
        r.downtime_us.quantile(1.0)
    );
    // The backend now lives on the destination; the vacated source
    // shell came back as a spare, conserving slot count.
    assert_eq!(c.backend_host(0), 1);
    assert_eq!(c.n_spares(), spares_before);
    assert_eq!(c.backend_health(0), Health::Healthy);
    // Exactly one live copy: the vacated source domain makes no
    // further progress.
    let src_dom = c.machine(0).domain_stats(vscale::DomId(0)).run_total;
    c.run_until(SimTime::from_ms(350)).expect("post-cutover");
    assert_eq!(
        c.machine(0).domain_stats(vscale::DomId(0)).run_total,
        src_dom,
        "the vacated source VM must be inert"
    );
    drain_and_check(&mut c, end);
}

#[test]
fn migration_aborts_after_capped_retries_when_it_cannot_converge() {
    let mut c = small_fleet(2, 1);
    let end = SimTime::from_ms(500);
    c.open_loop(2_000.0, SimTime::ZERO, end);
    c.run_until(SimTime::from_ms(100)).expect("warmup");
    // A budget smaller than the link latency can never be met, and the
    // fault plan eats every transfer on top: rounds burn to the cap,
    // then the job aborts with the source VM never having stopped.
    let cfg = MigrationConfig {
        link: LinkConfig {
            bandwidth_bps: 1_000_000_000,
            latency: SimDuration::from_us(500),
        },
        max_rounds: 3,
        downtime_budget: SimDuration::from_us(100),
        ..MigrationConfig::default()
    }
    .with_link_faults(11, 1_000_000, 0, SimDuration::ZERO);
    c.start_migration(0, 1, cfg);
    c.run_until(SimTime::from_ms(200)).expect("retrying");
    assert_eq!(c.active_migrations(), 0);
    let r = c.robustness();
    assert_eq!(r.migrations_ok, 0);
    assert_eq!(r.migrations_aborted, 1);
    assert_eq!(r.precopy_rounds, 3, "retries must stop at the cap");
    assert_eq!(r.downtime_us.count(), 0, "the VM never went dark");
    assert_eq!(c.backend_host(0), 0, "backend stays on the source");
    assert_eq!(c.backend_health(0), Health::Healthy);
    drain_and_check(&mut c, end);
}

#[test]
fn cutover_link_loss_rolls_back_to_the_source() {
    let mut c = small_fleet(2, 1);
    let end = SimTime::from_ms(500);
    c.open_loop(2_000.0, SimTime::ZERO, end);
    c.run_until(SimTime::from_ms(100)).expect("warmup");
    // Cold stop-and-copy whose one transfer is always lost: the VM goes
    // dark, the image never arrives, and the source shell absorbs it
    // back. Requests delivered during the blackout are held and
    // re-delivered to the rolled-back VM — none lost, none duplicated.
    let cfg = MigrationConfig {
        precopy: false,
        ..MigrationConfig::default()
    }
    .with_link_faults(5, 1_000_000, 0, SimDuration::ZERO);
    c.start_migration(0, 1, cfg);
    c.run_until(SimTime::from_ms(200)).expect("rolling back");
    assert_eq!(c.active_migrations(), 0);
    let r = c.robustness();
    assert_eq!(r.migrations_ok, 0);
    assert_eq!(r.migrations_aborted, 1);
    assert_eq!(r.downtime_us.count(), 1, "the rollback blackout is real");
    assert_eq!(c.backend_host(0), 0);
    assert_eq!(c.backend_health(0), Health::Healthy);
    let completed_at_rollback: u64 = c.host_samples().iter().map(|h| h.completed).sum();
    c.run_until(SimTime::from_ms(350)).expect("serving again");
    let completed_later: u64 = c.host_samples().iter().map(|h| h.completed).sum();
    assert!(
        completed_later > completed_at_rollback,
        "rolled-back VM must serve again"
    );
    drain_and_check(&mut c, end);
}

#[test]
fn destination_crash_mid_cutover_rolls_back() {
    let mut c = small_fleet(3, 1);
    let end = SimTime::from_ms(600);
    c.open_loop(2_000.0, SimTime::ZERO, end);
    c.run_until(SimTime::from_ms(100)).expect("warmup");
    // A starved migration link stretches the stop-and-copy window to
    // tens of milliseconds, so the destination host can die while the
    // image is in flight.
    let cfg = MigrationConfig {
        precopy: false,
        link: LinkConfig {
            bandwidth_bps: 10_000_000,
            latency: SimDuration::from_ms(1),
        },
        ..MigrationConfig::default()
    };
    c.start_migration(0, 1, cfg);
    c.run_until(SimTime::from_ms(102))
        .expect("entering blackout");
    assert!(
        c.backend_in_blackout(0),
        "the image should still be in flight on a 10 Mb/s link"
    );
    c.crash_host(1);
    // The crash settles the job immediately: rollback to the source.
    assert!(!c.backend_in_blackout(0));
    assert_eq!(c.active_migrations(), 0);
    let r = c.robustness();
    assert_eq!(r.migrations_aborted, 1);
    assert_eq!(r.hosts_down, 1);
    assert_eq!(c.backend_host(0), 0);
    assert_eq!(c.backend_health(0), Health::Healthy);
    // Host 1's own backends died with it; their requests were re-queued.
    assert_eq!(c.backend_health(2), Health::Down);
    drain_and_check(&mut c, end);
}

#[test]
fn host_crash_and_checkpoint_restore_is_exactly_once() {
    let mut c = small_fleet(3, 0);
    let end = SimTime::from_ms(600);
    c.open_loop(3_000.0, SimTime::ZERO, end);
    c.run_until(SimTime::from_ms(100)).expect("warmup");
    let image = c.checkpoint_host(2);
    c.run_until(SimTime::from_ms(220)).expect("pre-crash");
    c.crash_host(2);
    assert!(!c.host_up(2));
    c.run_until(SimTime::from_ms(300)).expect("outage");
    // The survivors carried the load during the outage.
    let during: u64 = c.host_samples().iter().map(|h| h.completed).sum();
    assert!(during > 0);
    c.restore_host(2, &image);
    assert!(c.host_up(2));
    let r = c.robustness();
    assert_eq!(r.hosts_down, 1);
    assert_eq!(r.hosts_restored, 1);
    assert!(r.requests_requeued > 0, "a loaded host held requests");
    assert_eq!(r.downtime_us.count(), 1);
    assert!(
        r.downtime_us.quantile(1.0) >= 40_000,
        "outage was ~80ms, recorded {}us (histogram buckets round down)",
        r.downtime_us.quantile(1.0)
    );
    // The restored host replays 120ms of already-accounted work; the
    // skip fence must discard exactly that cohort (checked by the
    // ledger balance below) and then serve new requests.
    drain_and_check(&mut c, end);
    let final_completed: u64 = c.host_samples().iter().map(|h| h.completed).sum();
    assert!(final_completed > during, "restored fleet must keep serving");
}

/// A host crash right after one of its backends failed takes that
/// backend down a second time. Its deliveries still on the wire were
/// already fenced by the first failure; the crash must not fence them
/// again, or the surplus swallows deliveries made after the restore and
/// their requests never complete.
#[test]
fn host_crash_after_backend_failure_loses_nothing() {
    let mut c = small_fleet(2, 0);
    let end = SimTime::from_ms(400);
    c.open_loop(12_000.0, SimTime::ZERO, end);
    c.run_until(SimTime::from_ms(120)).expect("warmup");
    let image = c.checkpoint_host(0);
    c.run_until(SimTime::from_ms(121)).expect("pre-failure");
    c.fail_backend(0);
    c.crash_host(0);
    c.run_until(SimTime::from_ms(125)).expect("outage");
    c.restore_host(0, &image);
    drain_and_check(&mut c, end);
}

#[test]
#[should_panic(expected = "stale checkpoint")]
fn restoring_a_pre_migration_checkpoint_is_refused() {
    let mut c = small_fleet(2, 1);
    c.open_loop(2_000.0, SimTime::ZERO, SimTime::from_ms(400));
    c.run_until(SimTime::from_ms(100)).expect("warmup");
    // Checkpoint the source, then migrate its VM away. Restoring the
    // old image would resurrect the moved VM — two live copies — so the
    // topology fence must refuse it.
    let image = c.checkpoint_host(0);
    c.start_migration(0, 1, MigrationConfig::default());
    c.run_until(SimTime::from_ms(200)).expect("migrating");
    assert_eq!(c.active_migrations(), 0);
    assert_eq!(c.robustness().migrations_ok, 1);
    c.crash_host(0);
    c.restore_host(0, &image);
}

/// One scripted failure storm (migration, crash, restore) fingerprinted
/// end-to-end: the trajectory must be byte-identical at any worker
/// thread count, because all failure machinery runs serially at epoch
/// boundaries.
fn failure_storm(threads: usize) -> String {
    let mut c = build_web_fleet(
        WebFleetConfig {
            hosts: 3,
            desktops_per_host: 1,
            spares_per_host: 1,
            ..WebFleetConfig::default()
        },
        ClusterConfig {
            threads,
            ..ClusterConfig::default()
        },
    );
    let end = SimTime::from_ms(500);
    c.open_loop(2_500.0, SimTime::ZERO, end);
    c.run_until(SimTime::from_ms(80)).expect("warmup");
    c.start_migration(0, 2, MigrationConfig::default());
    c.run_until(SimTime::from_ms(180)).expect("migrated");
    assert_eq!(c.active_migrations(), 0);
    let image = c.checkpoint_host(0);
    c.run_until(SimTime::from_ms(240)).expect("pre-crash");
    c.crash_host(0);
    c.run_until(SimTime::from_ms(320)).expect("outage");
    c.restore_host(0, &image);
    drain_and_check(&mut c, end);
    let mut out = c.fleet_point("storm", 2_500).to_json();
    out.push('\n');
    out.push_str(&c.robustness().to_json());
    for host in 0..c.n_hosts() {
        let m = c.machine(host);
        for dom in 0..2 {
            let st = m.domain_stats(vscale::DomId(dom));
            out.push_str(&format!(
                "\nhost{host} dom{dom} {:?} {:?} {}",
                st.run_total, st.wait_total, st.reconfigs
            ));
        }
    }
    out
}

#[test]
fn failure_storm_is_thread_count_invariant() {
    let serial = failure_storm(1);
    for threads in [2, 4] {
        assert_eq!(
            serial,
            failure_storm(threads),
            "failure machinery diverged at threads={threads}"
        );
    }
}
