//! End-to-end elastic runs: the autoscaler must act (scale out through
//! a flash crowd, scale back in after it), keep the request ledger
//! exact, and produce a byte-identical `ElasticCurve` at any thread
//! count — including runs where a host checkpoint/restore lands in the
//! middle of a scale event's migrations.

use autoscale::ElasticFleet;
use cluster::{build_web_fleet, ClusterConfig, LbPolicy, MigrationConfig, WebFleetConfig};
use metrics::elastic::ElasticCurve;
use sim_core::time::{SimDuration, SimTime};
use vscale::ElasticConfig;
use workloads::traces::RateTrace;

const END_MS: u64 = 900;

fn elastic_cfg() -> ElasticConfig {
    ElasticConfig {
        min_hosts: 2,
        max_hosts: 4,
        ..ElasticConfig::default()
    }
}

fn build(seed: u64, threads: usize) -> ElasticFleet {
    let c = build_web_fleet(
        WebFleetConfig {
            hosts: 2,
            desktops_per_host: 1,
            standby_hosts: 2,
            seed,
            ..WebFleetConfig::default()
        },
        ClusterConfig {
            threads,
            lb: LbPolicy::LeastOutstanding,
            ..ClusterConfig::default()
        },
    );
    let mut fleet = ElasticFleet::new(
        c,
        "vscale_auto",
        elastic_cfg(),
        true,
        MigrationConfig::default(),
    );
    // A flash crowd that overwhelms two hosts but fits on three: the
    // controller must ride it out by activating standbys, then give
    // them back in the quiet tail.
    fleet.cluster_mut().add_stream(
        RateTrace::FlashCrowd {
            base_rps: 5_000.0,
            spike_rps: 36_000.0,
            at: SimTime::from_ms(200),
            ramp: SimDuration::from_ms(50),
            hold: SimDuration::from_ms(250),
            decay: SimDuration::from_ms(100),
        },
        SimTime::ZERO,
        SimTime::from_ms(END_MS),
    );
    fleet
}

fn drain(fleet: &mut ElasticFleet) {
    let mut deadline = SimTime::from_ms(END_MS);
    for _ in 0..300 {
        if fleet.cluster().in_flight() == 0 && fleet.cluster().active_migrations() == 0 {
            break;
        }
        deadline += SimDuration::from_ms(10);
        fleet.run_until(deadline).expect("drains");
    }
}

fn run(seed: u64, threads: usize) -> ElasticCurve {
    let mut fleet = build(seed, threads);
    fleet.run_until(SimTime::from_ms(END_MS)).expect("runs");
    drain(&mut fleet);
    fleet.finish()
}

#[test]
fn flash_crowd_scales_out_and_back_with_zero_loss() {
    let mut fleet = build(7, 1);
    fleet.run_until(SimTime::from_ms(END_MS)).expect("runs");
    drain(&mut fleet);
    let skipped = fleet.cluster().steps_skipped();
    let curve = fleet.finish();
    assert!(curve.zero_loss(), "ledger: {}", curve.to_json());
    assert!(curve.sent > 3_000, "flash crowd arrived: {}", curve.sent);
    assert!(curve.scale_outs() >= 1, "no scale-out: {}", curve.to_json());
    assert!(curve.scale_ins() >= 1, "no scale-in: {}", curve.to_json());
    assert!(curve.max_hosts() > 2, "standby never activated");
    assert!(curve.min_hosts() >= 2, "drained below min_hosts");
    assert!(skipped > 0, "sparse stepping never engaged");
}

#[test]
fn curves_are_byte_identical_at_any_thread_count() {
    for seed in [1, 2, 3, 5, 8] {
        let reference = run(seed, 1).to_json();
        for threads in [2, 4] {
            let other = run(seed, threads).to_json();
            assert_eq!(
                reference, other,
                "seed {seed}: {threads}-thread curve diverges from 1-thread"
            );
        }
    }
}

#[test]
fn checkpoint_mid_scale_event_stays_deterministic() {
    // Drive the run until the scale-out's migrations are in flight,
    // then checkpoint, crash, and restore a host the event does not
    // involve (the second standby — checkpointing an involved host is
    // refused by design). The whole composition must keep the ledger
    // exact and stay byte-identical across thread counts. The probe
    // loop inspects only deterministic state at fixed boundaries, so
    // every thread count checkpoints at the same instant.
    let run_checkpointed = |threads: usize| -> (bool, String) {
        let mut fleet = build(7, threads);
        // Migrations of these KB-scale images on 10 GbE last ~a few
        // epochs, so the probe must advance at epoch (200 µs) grain to
        // land inside one.
        let mut probe = SimTime::from_ms(250);
        while fleet.cluster().active_migrations() == 0 && probe < SimTime::from_ms(600) {
            probe += SimDuration::from_us(200);
            fleet.run_until(probe).expect("probing for the scale-out");
        }
        let migrating_mid_flash = fleet.cluster().active_migrations() > 0;
        let image = fleet.cluster_mut().checkpoint_host(3);
        fleet
            .run_until(probe + SimDuration::from_ms(20))
            .expect("onward");
        fleet.cluster_mut().crash_host(3);
        fleet
            .run_until(probe + SimDuration::from_ms(60))
            .expect("degraded");
        fleet.cluster_mut().restore_host(3, &image);
        fleet.run_until(SimTime::from_ms(END_MS)).expect("recovers");
        drain(&mut fleet);
        (migrating_mid_flash, fleet.finish().to_json())
    };
    let (migrating, reference) = run_checkpointed(1);
    assert!(
        migrating,
        "checkpoint must land while scale-out migrations are in flight \
         (retune the probe window)"
    );
    for threads in [2, 4] {
        let (_, other) = run_checkpointed(threads);
        assert_eq!(
            reference, other,
            "{threads}-thread checkpointed run diverges"
        );
    }
    // The restored host replays from its checkpoint: requests in its
    // lost interval were re-fenced, so the ledger still balances.
    assert!(
        reference.contains("\"in_flight_end\":0"),
        "checkpointed run left requests in flight: {reference}"
    );
}
