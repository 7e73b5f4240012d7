//! The cluster-side plumbing the fleet autoscaler stands on: composable
//! trace streams, the queued SLO sampler, the in-service host
//! lifecycle, sparse host stepping, and the least-outstanding
//! evacuation target picker.

use cluster::{build_web_fleet, ClusterConfig, LbPolicy, MigrationConfig, WebFleetConfig};
use sim_core::time::{SimDuration, SimTime};
use workloads::traces::RateTrace;

fn fleet(hosts: usize, spares_per_host: usize, threads: usize) -> cluster::Cluster {
    build_web_fleet(
        WebFleetConfig {
            hosts,
            desktops_per_host: 1,
            spares_per_host,
            ..WebFleetConfig::default()
        },
        ClusterConfig {
            threads,
            lb: LbPolicy::LeastOutstanding,
            ..ClusterConfig::default()
        },
    )
}

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
    assert_eq!(completed + drops, c.sent(), "ledger imbalance");
}

#[test]
fn tenant_streams_compose_with_the_constant_stream() {
    let mut c = fleet(2, 0, 1);
    let end = SimTime::from_ms(300);
    c.set_window(SimTime::ZERO, end);
    // Three tenants: the legacy constant stream plus two traced ones.
    c.open_loop(1_000.0, SimTime::ZERO, end);
    let diurnal = c.add_stream(
        RateTrace::Diurnal {
            base_rps: 200.0,
            peak_rps: 2_000.0,
            period: SimDuration::from_ms(200),
        },
        SimTime::ZERO,
        end,
    );
    let flash = c.add_stream(
        RateTrace::FlashCrowd {
            base_rps: 200.0,
            spike_rps: 4_000.0,
            at: SimTime::from_ms(100),
            ramp: SimDuration::from_ms(20),
            hold: SimDuration::from_ms(50),
            decay: SimDuration::from_ms(30),
        },
        SimTime::ZERO,
        end,
    );
    assert_eq!((diurnal, flash), (1, 2), "streams index in order");
    drain_and_check(&mut c, end);
    // ~300 constant + ~200 diurnal + ~150 flash-quiet + spike ≈ 800+.
    assert!(c.sent() > 600, "all tenants contribute: {}", c.sent());
}

#[test]
#[should_panic(expected = "one constant stream per run")]
fn second_constant_stream_is_rejected() {
    let mut c = fleet(1, 0, 1);
    let end = SimTime::from_ms(10);
    c.open_loop(100.0, SimTime::ZERO, end);
    c.open_loop(100.0, SimTime::ZERO, end);
}

#[test]
fn slo_sampler_drains_windows_on_the_wheel() {
    let mut c = fleet(2, 0, 1);
    let end = SimTime::from_ms(200);
    // The measurement window spans every send, so the hosts' measured
    // totals and the SLO windows must account for the same requests.
    c.set_window(SimTime::ZERO, end);
    c.open_loop(4_000.0, SimTime::ZERO, end);
    c.install_slo_sampler(SimDuration::from_ms(20));
    c.run_until(end).expect("runs");
    let mut samples = Vec::new();
    while let Some(s) = c.pop_slo_sample() {
        samples.push(s);
    }
    assert_eq!(samples.len(), 9, "one window per period, popped before t");
    let mut prev = SimTime::ZERO;
    let mut completed = 0;
    for (t, w) in &samples {
        assert_eq!(t.as_ms() % 20, 0, "samples land on the period grid: {t:?}");
        assert!(*t > prev, "sample instants advance");
        prev = *t;
        completed += w.completed;
    }
    // Windows see completions online, before the run ends.
    assert!(completed > 500, "windows carry completions: {completed}");
    assert!(
        samples.iter().skip(2).any(|(_, w)| w.p99_us() > 400),
        "a loaded window's p99 includes the network legs"
    );

    // Conservation: drain every request, then the popped windows, the
    // ones the drain produced and the partial tail window together hold
    // every completion and drop exactly once.
    drain_and_check(&mut c, end);
    while let Some(s) = c.pop_slo_sample() {
        samples.push(s);
    }
    samples.push((c.now(), c.take_slo_window()));
    for (t, w) in &samples {
        assert_eq!(
            w.latency_us.count(),
            w.completed,
            "window at {t:?}: one latency per completion"
        );
    }
    let windows: u64 = samples.iter().map(|(_, w)| w.completed + w.drops).sum();
    let hosts: u64 = c.host_samples().iter().map(|h| h.completed + h.drops).sum();
    assert_eq!(windows, hosts, "windows account for every request once");
    assert_eq!(hosts, c.sent());
    assert_eq!(c.take_slo_window().completed, 0, "the tail was taken");
}

#[test]
fn sparse_stepping_skips_idle_hosts_and_counts_them() {
    // No request load at all: hosts only run their VMs' daemons and
    // desktop think timers, so most 200 µs epochs have nothing due and
    // the lockstep loop must skip far more host-steps than it takes.
    let mut c = fleet(4, 0, 1);
    c.run_until(SimTime::from_ms(100)).expect("idles");
    let skipped = c.steps_skipped();
    let total = 4 * 500u64; // hosts × epochs
    assert!(
        skipped > total / 2,
        "idle fleet must skip most steps: {skipped} of {total}"
    );
    assert!(skipped < total, "someone must still step");
    // The counter is a pure function of host states at epoch
    // boundaries, so it is thread-count invariant.
    let mut c2 = fleet(4, 0, 2);
    c2.run_until(SimTime::from_ms(100)).expect("idles");
    assert_eq!(c2.steps_skipped(), skipped);
}

#[test]
fn evacuation_lands_on_the_least_outstanding_host() {
    // Hosts 0..3, one spare each. Drain host 2's backends so its
    // in-flight count runs dry while hosts 1 and 3 keep absorbing the
    // stream; evacuating host 0 must then land its first VM on host 2 —
    // the least-outstanding candidate — not on host 1 (the
    // first-spare-in-registration-order pick of the old policy).
    let mut c = fleet(4, 1, 1);
    let end = SimTime::from_ms(500);
    c.open_loop(10_000.0, SimTime::ZERO, end);
    c.run_until(SimTime::from_ms(100)).expect("warmup");
    c.drain_backend(4);
    c.drain_backend(5);
    c.run_until(SimTime::from_ms(150)).expect("host 2 drains");
    let host_out = |c: &cluster::Cluster, h: usize| -> u64 {
        (0..c.n_backends())
            .filter(|&b| c.backend_host(b) == h)
            .map(|b| c.backend_outstanding(b))
            .sum()
    };
    assert_eq!(host_out(&c, 2), 0, "drained host runs dry");
    assert!(
        host_out(&c, 1) > 0 && host_out(&c, 3) > 0,
        "live hosts hold in-flight work: {} {}",
        host_out(&c, 1),
        host_out(&c, 3),
    );
    let moved = c.evacuate_host(0, MigrationConfig::default());
    assert_eq!(moved, 2, "both VMs find landing slots");
    c.run_until(SimTime::from_ms(250)).expect("migrating");
    assert_eq!(c.active_migrations(), 0, "evacuation settled");
    assert_eq!(
        c.backend_host(0),
        2,
        "first evacuee lands on the least-outstanding host"
    );
    assert_ne!(c.backend_host(1), 0, "second evacuee left the source");
    c.undrain_backend(4);
    c.undrain_backend(5);
    drain_and_check(&mut c, end);
}

#[test]
fn standby_hosts_are_parked_until_activated() {
    // One serving host plus one standby built by the testbed: the
    // standby carries two spare twins but starts out of service, so
    // its slots must not attract an evacuation until it is activated.
    let mut c = build_web_fleet(
        WebFleetConfig {
            hosts: 1,
            desktops_per_host: 1,
            standby_hosts: 1,
            ..WebFleetConfig::default()
        },
        ClusterConfig {
            threads: 1,
            lb: LbPolicy::LeastOutstanding,
            ..ClusterConfig::default()
        },
    );
    assert_eq!(c.n_hosts(), 2);
    assert_eq!(c.n_backends(), 2, "standby registers no backends");
    assert_eq!(c.spares_on(1), 2, "standby carries spare twins");
    assert!(!c.host_in_service(1));
    assert_eq!(c.hosts_in_service(), 1);
    let end = SimTime::from_ms(400);
    c.open_loop(2_000.0, SimTime::ZERO, end);
    c.run_until(SimTime::from_ms(50)).expect("warmup");
    assert_eq!(
        c.evacuate_host(0, MigrationConfig::default()),
        0,
        "parked standby must not be a landing slot"
    );
    // Activate — the same evacuation now proceeds, and once the source
    // is empty it can be retired in turn (the scale-in path).
    c.set_in_service(1, true);
    assert_eq!(c.hosts_in_service(), 2);
    assert_eq!(c.evacuate_host(0, MigrationConfig::default()), 2);
    c.run_until(SimTime::from_ms(200)).expect("migrating");
    assert_eq!(c.active_migrations(), 0);
    assert_eq!(c.backend_host(0), 1);
    assert_eq!(c.backend_host(1), 1);
    c.set_in_service(0, false);
    assert_eq!(c.hosts_in_service(), 1);
    drain_and_check(&mut c, end);
}

#[test]
#[should_panic(expected = "evacuate before retiring")]
fn retiring_a_serving_host_is_refused() {
    let mut c = fleet(2, 0, 1);
    c.open_loop(1_000.0, SimTime::ZERO, SimTime::from_ms(100));
    c.run_until(SimTime::from_ms(20)).expect("warmup");
    c.set_in_service(0, false);
}
