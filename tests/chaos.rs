//! Chaos suite: deterministic fault injection across the vScale channel,
//! daemon, IPI/notification dispatch, and hotplug paths.
//!
//! The graceful-degradation contract under test:
//!
//! - every fault class terminates with a clean result or a typed
//!   [`SimError`] — never a hang, never a panic on the supervised paths;
//! - no uthread (I/O request) is lost: dropped doorbells recover within
//!   the documented `notify_recovery` staleness bound;
//! - the freeze mask keeps converging to true extendability despite
//!   stale/torn reads and daemon crash-restarts;
//! - a fixed fault plan replays bit-identically, and a disabled plan is
//!   byte-identical to running with no plan at all.

use vscale_repro::apps::npb::{self, NpbApp};
use vscale_repro::apps::spin::SpinPolicy;
use vscale_repro::core::config::{DomainSpec, MachineConfig, SystemConfig};
use vscale_repro::core::daemon::DaemonConfig;
use vscale_repro::core::machine::Machine;
use vscale_repro::guest::thread::{OneShot, Script, ThreadAction, ThreadKind};
use vscale_repro::guest::KernelVersion;
use vscale_repro::hv::{Credit, Credit2, DynFrac, Policy};
use vscale_repro::sim::fault::{FaultConfig, SimErrorKind, PPM};
use vscale_repro::sim::time::{SimDuration, SimTime};
use vscale_repro::{DomId, VcpuId};

fn compute_ms(ms: u64) -> Box<OneShot> {
    Box::new(OneShot::new(SimDuration::from_ms(ms)))
}

/// A contended host: a 4-vCPU vScale VM and a 2-vCPU fixed competitor on
/// 2 pCPUs, both compute-bound.
fn contended_machine(seed: u64) -> (Machine, DomId, DomId) {
    let mut m = Machine::new(MachineConfig {
        n_pcpus: 2,
        seed,
        ..MachineConfig::default()
    });
    let vm = m.add_domain(SystemConfig::VScale.domain_spec(4));
    let bg = m.add_domain(DomainSpec::fixed(2));
    for _ in 0..4 {
        let t = m.guest_mut(vm).spawn(ThreadKind::User, compute_ms(400));
        m.start_thread(vm, t);
    }
    // The competitor holds its pCPU for roughly the first second of the
    // run, so convergence checks at ~600 ms observe a contended host.
    for _ in 0..2 {
        let t = m.guest_mut(bg).spawn(ThreadKind::User, compute_ms(500));
        m.start_thread(bg, t);
    }
    (m, vm, bg)
}

#[test]
fn dropped_notifications_lose_no_uthreads() {
    // Every doorbell is dropped; the pending bit must still get every
    // request delivered within the notify_recovery staleness bound.
    let mut m = Machine::new(MachineConfig {
        n_pcpus: 2,
        seed: 7,
        ..MachineConfig::default()
    });
    m.set_fault_plan(FaultConfig {
        seed: 1,
        notify_drop_ppm: PPM as u32,
        ..FaultConfig::default()
    });
    let d = m.add_domain(DomainSpec::fixed(2));
    let q = m.guest_mut(d).new_io_queue();
    let port = m.bind_io_port(d, q, VcpuId(0));
    let n_requests = 8u64;
    let mut actions = Vec::new();
    for _ in 0..n_requests {
        actions.push(ThreadAction::IoWait(q));
        actions.push(ThreadAction::Compute(SimDuration::from_us(50)));
    }
    let worker = m
        .guest_mut(d)
        .spawn(ThreadKind::User, Box::new(Script::new(actions)));
    m.start_thread(d, worker);
    for i in 0..n_requests {
        m.inject_io(d, port, SimTime::from_ms(5 + 20 * i), 1);
    }
    let done = m
        .try_run_until_exited(d, SimTime::from_secs(5))
        .expect("no typed error")
        .expect("every request must eventually arrive");
    assert!(done < SimTime::from_secs(1), "took {done}");
    let stats = m.fault_stats().expect("plan installed");
    assert!(stats.notify_dropped >= 1, "no doorbell was ever dropped");
    // The seq/ack protocol re-rang every lost doorbell, and with a 100%
    // drop rate every ladder ran out of budget and handed recovery to the
    // periodic re-scan.
    let st = m.domain_stats(d);
    assert!(st.retransmits >= 1, "drops never re-rang the doorbell");
    assert!(
        st.retransmit_exhausted >= 1,
        "a total blackout must exhaust the retransmit ladder"
    );
    let (arr, del, _) = m.io_logs(d);
    assert_eq!(arr.len() as u64, n_requests);
    assert_eq!(del.len() as u64, n_requests, "a uthread was lost");
    // Staleness bound: recovery rings within notify_recovery (10 ms
    // default) of the arrival, plus scheduling slack.
    for (a, dl) in arr.iter().zip(del) {
        let lat = dl.since(*a);
        assert!(
            lat <= SimDuration::from_ms(25),
            "delivery exceeded the recovery bound: {lat}"
        );
    }
}

#[test]
fn delayed_and_duplicated_notifications_terminate() {
    let mut m = Machine::new(MachineConfig {
        n_pcpus: 2,
        seed: 8,
        ..MachineConfig::default()
    });
    m.set_fault_plan(FaultConfig {
        seed: 2,
        notify_delay_ppm: 500_000,
        notify_dup_ppm: 500_000,
        ..FaultConfig::default()
    });
    let d = m.add_domain(DomainSpec::fixed(2));
    let q = m.guest_mut(d).new_io_queue();
    let port = m.bind_io_port(d, q, VcpuId(1));
    let mut actions = Vec::new();
    for _ in 0..6 {
        actions.push(ThreadAction::IoWait(q));
        actions.push(ThreadAction::Compute(SimDuration::from_us(80)));
    }
    let worker = m
        .guest_mut(d)
        .spawn(ThreadKind::User, Box::new(Script::new(actions)));
    m.start_thread(d, worker);
    for i in 0..6 {
        m.inject_io(d, port, SimTime::from_ms(3 + 10 * i), 1);
    }
    m.try_run_until_exited(d, SimTime::from_secs(5))
        .expect("no typed error")
        .expect("delays and duplicates must not lose requests");
    let stats = m.fault_stats().expect("plan installed");
    assert!(
        stats.notify_delayed + stats.notify_duplicated >= 1,
        "plan injected nothing: {stats:?}"
    );
    // Idempotence: spurious rings (duplicates, late retransmits) are
    // detected by the pending bit and suppressed; delayed doorbells open
    // a sequence that an eventual delivery acknowledges.
    let st = m.domain_stats(d);
    assert!(
        st.dup_suppressed >= 1,
        "no spurious ring was ever suppressed: {st:?}"
    );
    let (arr, del, _) = m.io_logs(d);
    assert_eq!(arr.len(), del.len(), "a request evaporated");
}

#[test]
fn ipi_faults_degrade_to_slice_boundaries_not_hangs() {
    // Drop every reschedule IPI: preemption wakeups degrade to the next
    // natural scheduling point (pending bit at slice end) but the barrier
    // workload still completes. Four NPB threads on two vCPUs so barrier
    // releases wake threads onto vCPUs that are busy running siblings —
    // the running-target IPI path the fault plan intercepts.
    let run = |drop_all: bool| {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 2,
            seed: 9,
            ..MachineConfig::default()
        });
        if drop_all {
            m.set_fault_plan(FaultConfig {
                seed: 3,
                ipi_drop_ppm: PPM as u32,
                ..FaultConfig::default()
            });
        }
        let d = m.add_domain(DomainSpec::fixed(2));
        let app = NpbApp {
            iterations: 12,
            ..npb::NPB_APPS[0]
        };
        npb::install(&mut m, d, app, 4, SpinPolicy::Default);
        let done = m
            .try_run_until_exited(d, SimTime::from_secs(60))
            .expect("no typed error")
            .expect("dropped IPIs must not deadlock the guest");
        (done, m.fault_stats().map(|s| s.ipi_dropped).unwrap_or(0))
    };
    let (clean, _) = run(false);
    let (faulted, dropped) = run(true);
    assert!(dropped >= 1, "scenario produced no IPI opportunities");
    // Degradation is bounded: a lost wakeup doorbell costs at most a few
    // slices, not unbounded stalls.
    let bound = SimTime::ZERO + clean.since(SimTime::ZERO).mul_f64(1.5) + SimDuration::from_ms(500);
    assert!(
        faulted <= bound,
        "degradation unbounded: clean {clean}, faulted {faulted}"
    );
}

#[test]
fn steal_spikes_slow_but_never_wedge() {
    let (mut m, vm, _bg) = contended_machine(11);
    m.set_fault_plan(FaultConfig {
        seed: 4,
        steal_spike_ppm: PPM as u32,
        steal_spike_max: SimDuration::from_ms(2),
        ..FaultConfig::default()
    });
    m.try_run_until_exited(vm, SimTime::from_secs(20))
        .expect("no typed error")
        .expect("steal spikes must not prevent completion");
    let stats = m.fault_stats().expect("plan installed");
    assert!(stats.steal_spikes > 10, "spikes: {}", stats.steal_spikes);
}

#[test]
fn daemon_crash_restart_still_converges() {
    let (mut m, vm, bg) = contended_machine(12);
    m.set_fault_plan(FaultConfig {
        seed: 5,
        daemon_crash_ppm: 250_000,
        ..FaultConfig::default()
    });
    m.try_run_until(SimTime::from_ms(600)).expect("no error");
    let mid = m.domain_stats(vm);
    assert!(mid.daemon_crashes >= 1, "no crash ever injected");
    assert!(
        mid.daemon_reads >= 1,
        "a crashing daemon must still get reads through"
    );
    // Even losing its EMA repeatedly, the daemon shrinks under contention…
    assert!(
        m.guest(vm).active_vcpus() <= 2,
        "never shrank despite competitor, active {}",
        m.guest(vm).active_vcpus()
    );
    // …and grows back once the competitor exits — observed while the VM
    // still has work left (an idle VM legitimately stays shrunk).
    let mut grew = 0;
    for step in 7..80 {
        m.try_run_until(SimTime::from_ms(50 * step))
            .expect("no error");
        if m.guest(vm).all_exited() {
            break;
        }
        if m.guest(bg).all_exited() {
            grew = grew.max(m.guest(vm).active_vcpus());
        }
    }
    assert!(m.guest(bg).all_exited());
    assert!(grew >= 2, "never grew back while busy, peak active {grew}");
    let end = m.domain_stats(vm);
    assert!(end.daemon_crashes >= mid.daemon_crashes);
}

#[test]
fn stale_and_torn_reads_are_detected_or_smoothed() {
    let (mut m, vm, _bg) = contended_machine(13);
    m.set_fault_plan(FaultConfig {
        seed: 6,
        stale_read_ppm: 300_000,
        torn_read_ppm: 200_000,
        ..FaultConfig::default()
    });
    m.try_run_until(SimTime::from_ms(600)).expect("no error");
    let st = m.domain_stats(vm);
    let fs = *m.fault_stats().expect("plan installed");
    assert!(fs.stale_reads >= 1 && fs.torn_reads >= 1, "{fs:?}");
    // Every torn serve was caught by validation and handled: retried,
    // served from the last-good snapshot, or (on a maiden read with no
    // history to tear across or fall back on) discarded. The `+ 1` covers
    // that maiden serve, which tears nothing and validates fresh.
    assert!(
        st.read_retries + st.read_fallbacks + st.discarded_reads + 1 >= fs.torn_reads,
        "torn reads acted upon: retries {} + fallbacks {} + discarded {} < torn {}",
        st.read_retries,
        st.read_fallbacks,
        st.discarded_reads,
        fs.torn_reads
    );
    assert!(
        st.read_retries >= 1,
        "the reliable read never retried a detected bad serve"
    );
    // Convergence: despite the noisy channel the mask still tracks true
    // extendability (~1 pCPU of a 2-pCPU host under competition).
    assert!(
        m.guest(vm).active_vcpus() <= 2,
        "stale/torn reads broke convergence, active {}",
        m.guest(vm).active_vcpus()
    );
}

#[test]
fn aborted_hotplug_leaves_the_vcpu_online_and_consistent() {
    let mut m = Machine::new(MachineConfig {
        n_pcpus: 2,
        seed: 14,
        ..MachineConfig::default()
    });
    m.set_fault_plan(FaultConfig {
        seed: 7,
        hotplug_abort_ppm: PPM as u32, // every removal aborts
        ..FaultConfig::default()
    });
    let vm = m.add_domain(DomainSpec {
        scaling: vscale_repro::core::config::ScalingMode::Hotplug {
            daemon: DaemonConfig::default(),
            version: KernelVersion::V3_14_15,
        },
        ..DomainSpec::fixed(4)
    });
    let bg = m.add_domain(DomainSpec::fixed(2));
    for _ in 0..4 {
        let t = m.guest_mut(vm).spawn(ThreadKind::User, compute_ms(600));
        m.start_thread(vm, t);
    }
    for _ in 0..2 {
        let t = m.guest_mut(bg).spawn(ThreadKind::User, compute_ms(600));
        m.start_thread(bg, t);
    }
    m.try_run_until(SimTime::from_ms(800)).expect("no error");
    let st = m.domain_stats(vm);
    assert!(st.hotplug_aborts >= 1, "no removal ever aborted");
    // The daemon retried the vetoed removal under capped exponential
    // backoff rather than hammering stop_machine every period.
    assert!(
        st.hotplug_retries >= 1,
        "aborted removal was never rescheduled: {st:?}"
    );
    // The invariant an abort must preserve: the target stays online.
    assert_eq!(m.guest(vm).active_vcpus(), 4, "an aborted removal offlined");
    for v in 0..4 {
        assert!(m.guest(vm).is_online(VcpuId(v)), "vcpu{v} offline");
    }
    // The machine is still live: the workload finishes.
    m.try_run_until_exited(vm, SimTime::from_secs(20))
        .expect("no error")
        .expect("aborts must not wedge the guest");
}

#[test]
fn crash_resync_repairs_a_lost_freeze_hypercall() {
    // A daemon crash may orphan an in-flight freeze/unfreeze hypercall,
    // leaving the hypervisor's frozen view diverged from the guest's
    // mask. The restarted daemon's first completed read must walk the
    // vCPUs and repair the divergence.
    let (mut m, vm, _bg) = contended_machine(18);
    // Let the fault-free daemon shrink first so there is real freeze
    // state to diverge from.
    m.try_run_until(SimTime::from_ms(600)).expect("no error");
    assert!(m.guest(vm).active_vcpus() <= 2, "never shrank");
    // Model the lost hypercall, then start crashing the daemon.
    m.desync_frozen(vm, VcpuId(3));
    assert_ne!(
        m.hv_frozen(vm, VcpuId(3)),
        m.guest(vm).freeze_mask().is_frozen(VcpuId(3)),
        "hook failed to desynchronize"
    );
    m.set_fault_plan(FaultConfig {
        seed: 21,
        daemon_crash_ppm: 300_000,
        ..FaultConfig::default()
    });
    m.try_run_until(SimTime::from_ms(900)).expect("no error");
    let st = m.domain_stats(vm);
    assert!(st.daemon_crashes >= 1, "no crash ever injected");
    assert!(st.resyncs >= 1, "restarted daemon never resynchronized");
    assert!(
        st.resync_repairs >= 1,
        "resync never repaired the diverged vCPU: {st:?}"
    );
    // The recovered invariant: guest and hypervisor agree on every vCPU.
    for v in 0..4 {
        assert_eq!(
            m.hv_frozen(vm, VcpuId(v)),
            m.guest(vm).freeze_mask().is_frozen(VcpuId(v)),
            "vcpu{v} still diverged after resync"
        );
    }
}

#[test]
fn failsafe_unfreezes_everything_when_the_daemon_goes_dark() {
    // Every period crashes: the daemon never completes another read. The
    // balancer's heartbeat watchdog must trip and unfreeze every vCPU —
    // degrading to the unscaled SMP baseline instead of honoring a mask
    // nobody is maintaining.
    let (mut m, vm, _bg) = contended_machine(19);
    m.try_run_until(SimTime::from_ms(600)).expect("no error");
    assert!(
        m.guest(vm).active_vcpus() <= 2,
        "precondition: the daemon shrank under contention"
    );
    m.set_fault_plan(FaultConfig {
        seed: 22,
        daemon_crash_ppm: PPM as u32,
        ..FaultConfig::default()
    });
    // Default heartbeat: 12 periods x 10 ms = 120 ms of silence.
    m.try_run_until(SimTime::from_ms(850)).expect("no error");
    let st = m.domain_stats(vm);
    assert!(st.failsafe_trips >= 1, "watchdog never tripped: {st:?}");
    assert_eq!(
        m.guest(vm).active_vcpus(),
        4,
        "fail-safe must unfreeze every vCPU"
    );
    for v in 0..4 {
        assert!(
            !m.hv_frozen(vm, VcpuId(v)),
            "vcpu{v} still frozen hypervisor-side after the trip"
        );
    }
}

/// One "inject → recover → converge" round: a contended host with a
/// barrier workload and an I/O stream on the vScale VM, `cfg` installed
/// for the first 600 ms, then cleared. Returns (completion time, domain
/// stats, fault stats drawn during the window, freeze-state agreement).
/// Generic over the scheduler backend: the recovery contract is about
/// the channel/daemon/balancer layers, so it must hold whether the
/// hypervisor runs credit, credit2, or dynamic-fractional scheduling.
fn inject_recover_converge<P: Policy>(
    seed: u64,
    cfg: Option<FaultConfig>,
) -> (
    SimTime,
    vscale_repro::core::machine::DomainStats,
    Option<vscale_repro::sim::fault::FaultStats>,
    bool,
) {
    let mut m: Machine<P> = Machine::with_backend(MachineConfig {
        n_pcpus: 2,
        seed,
        ..MachineConfig::default()
    });
    if let Some(cfg) = cfg {
        m.set_fault_plan(cfg);
    }
    let vm = m.add_domain(SystemConfig::VScale.domain_spec(4));
    let bg = m.add_domain(DomainSpec::fixed(2));
    let app = NpbApp {
        iterations: 10,
        ..npb::NPB_APPS[0]
    };
    npb::install(&mut m, vm, app, 4, SpinPolicy::Default);
    for _ in 0..2 {
        let t = m.guest_mut(bg).spawn(ThreadKind::User, compute_ms(500));
        m.start_thread(bg, t);
    }
    // An I/O stream so the notification fault classes have doorbell
    // edges to corrupt.
    let q = m.guest_mut(vm).new_io_queue();
    let port = m.bind_io_port(vm, q, VcpuId(0));
    let mut actions = Vec::new();
    for _ in 0..20 {
        actions.push(ThreadAction::IoWait(q));
        actions.push(ThreadAction::Compute(SimDuration::from_us(30)));
    }
    let io_thread = m
        .guest_mut(vm)
        .spawn(ThreadKind::User, Box::new(Script::new(actions)));
    m.start_thread(vm, io_thread);
    for i in 0..20 {
        m.inject_io(vm, port, SimTime::from_ms(5 + 25 * i), 1);
    }
    // Fault window, then a clean tail to converge in.
    m.try_run_until(SimTime::from_ms(600)).expect("no error");
    let fs = m.fault_stats().copied();
    m.clear_fault_plan();
    let done = m
        .try_run_until_exited(vm, SimTime::from_secs(60))
        .expect("no typed error")
        .expect("workload must finish after the fault window closes");
    let st = m.domain_stats(vm);
    let consistent = (0..4)
        .all(|v| m.hv_frozen(vm, VcpuId(v)) == m.guest(vm).freeze_mask().is_frozen(VcpuId(v)));
    (done, st, fs, consistent)
}

/// Per fault class: saturate the class for 600 ms, clear the plan, and
/// require (a) the class actually injected, (b) its recovery protocol
/// demonstrably ran, (c) the workload finishes within a bounded factor
/// of the fault-free run, and (d) guest/hypervisor freeze state agrees
/// at the end. The clean baseline is measured on the same backend, since
/// completion times legitimately differ between policies.
fn fault_classes_recover_on<P: Policy>() {
    let (clean_done, _, _, clean_consistent) = inject_recover_converge::<P>(23, None);
    assert!(clean_consistent, "fault-free run ended inconsistent");
    let bound =
        SimTime::ZERO + clean_done.since(SimTime::ZERO).mul_f64(2.0) + SimDuration::from_ms(500);
    type Check = (
        &'static str,
        FaultConfig,
        fn(
            &vscale_repro::core::machine::DomainStats,
            &vscale_repro::sim::fault::FaultStats,
        ) -> bool,
    );
    let classes: [Check; 6] = [
        (
            "notify_drop",
            FaultConfig {
                seed: 31,
                notify_drop_ppm: PPM as u32,
                ..FaultConfig::default()
            },
            |st, fs| fs.notify_dropped >= 1 && st.retransmits >= 1,
        ),
        (
            "notify_delay_dup",
            FaultConfig {
                seed: 32,
                notify_delay_ppm: 500_000,
                notify_dup_ppm: 500_000,
                ..FaultConfig::default()
            },
            |st, fs| fs.notify_delayed + fs.notify_duplicated >= 1 && st.dup_suppressed >= 1,
        ),
        (
            "ipi_faults",
            FaultConfig {
                seed: 33,
                ipi_drop_ppm: PPM as u32,
                ..FaultConfig::default()
            },
            |_st, fs| fs.ipi_dropped >= 1,
        ),
        (
            "stale_torn_reads",
            FaultConfig {
                seed: 34,
                stale_read_ppm: 400_000,
                torn_read_ppm: 300_000,
                ..FaultConfig::default()
            },
            |st, fs| fs.stale_reads + fs.torn_reads >= 1 && st.read_retries >= 1,
        ),
        (
            "daemon_crash",
            FaultConfig {
                seed: 35,
                daemon_crash_ppm: 400_000,
                ..FaultConfig::default()
            },
            |st, fs| fs.daemon_crashes >= 1 && st.resyncs >= 1,
        ),
        (
            "steal_spikes",
            FaultConfig {
                seed: 36,
                steal_spike_ppm: PPM as u32,
                steal_spike_max: SimDuration::from_ms(2),
                ..FaultConfig::default()
            },
            |_st, fs| fs.steal_spikes >= 1,
        ),
    ];
    for (name, cfg, recovered) in classes {
        let (done, st, fs, consistent) = inject_recover_converge::<P>(23, Some(cfg));
        let fs = fs.expect("plan installed");
        let backend = P::NAME;
        assert!(
            recovered(&st, &fs),
            "[{backend}] {name}: recovery protocol never ran: {st:?} {fs:?}"
        );
        assert!(
            done <= bound,
            "[{backend}] {name}: degradation unbounded: clean {clean_done}, faulted {done}"
        );
        assert!(
            consistent,
            "[{backend}] {name}: freeze state diverged at the end"
        );
    }
}

#[test]
fn every_fault_class_recovers_and_converges() {
    fault_classes_recover_on::<Credit>();
}

#[test]
fn every_fault_class_recovers_and_converges_on_credit2() {
    fault_classes_recover_on::<Credit2>();
}

#[test]
fn every_fault_class_recovers_and_converges_on_dynfrac() {
    fault_classes_recover_on::<DynFrac>();
}

#[test]
fn watchdog_reports_a_stuck_simulation_with_layer_attribution() {
    let mut m = Machine::new(MachineConfig {
        n_pcpus: 1,
        seed: 15,
        ..MachineConfig::default()
    });
    m.set_stall_timeout(SimDuration::from_ms(100));
    let d = m.add_domain(DomainSpec::fixed(1));
    let q = m.guest_mut(d).new_io_queue();
    // A thread waiting on I/O that never arrives: virtual time keeps
    // ticking (hypervisor timers) but nothing ever progresses.
    let t = m.guest_mut(d).spawn(
        ThreadKind::User,
        Box::new(Script::new(vec![ThreadAction::IoWait(q)])),
    );
    m.start_thread(d, t);
    let err = m
        .try_run_until(SimTime::from_secs(10))
        .expect_err("must flag the stall instead of spinning to deadline");
    assert!(
        matches!(err.kind, SimErrorKind::NoProgress { stalled_for } if stalled_for >= SimDuration::from_ms(100)),
        "wrong kind: {:?}",
        err.kind
    );
    assert!(!err.layer.is_empty());
    let rendered = err.to_string();
    assert!(rendered.contains("no forward progress"), "{rendered}");
    assert!(rendered.contains("vcpu state"), "{rendered}");
    assert!(rendered.contains("online="), "{rendered}");
}

#[test]
fn fixed_fault_plan_replays_bit_identically() {
    let run = || {
        let (mut m, vm, _bg) = contended_machine(16);
        m.enable_trace(1 << 15);
        m.set_fault_plan(FaultConfig {
            seed: 0xFA_17,
            notify_drop_ppm: 50_000,
            ipi_drop_ppm: 50_000,
            ipi_dup_ppm: 50_000,
            steal_spike_ppm: 100_000,
            daemon_crash_ppm: 100_000,
            stale_read_ppm: 150_000,
            torn_read_ppm: 100_000,
            ..FaultConfig::default()
        });
        m.try_run_until(SimTime::from_secs(2)).expect("no error");
        (
            m.trace().dump(),
            format!("{:?}", m.domain_stats(vm)),
            format!("{:?}", m.fault_stats().expect("plan")),
            m.now(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.3, b.3, "end times diverged");
    assert_eq!(a.1, b.1, "domain stats diverged");
    assert_eq!(a.2, b.2, "fault stats diverged");
    for (i, (la, lb)) in a.0.lines().zip(b.0.lines()).enumerate() {
        assert_eq!(la, lb, "trace diverges at line {i}");
    }
    assert_eq!(a.0, b.0);
}

#[test]
fn disabled_plan_is_byte_identical_to_no_plan() {
    // Zero-cost-when-off: an installed all-zero plan must not perturb a
    // single event, timestamp, or RNG draw.
    let run = |plan: bool| {
        let (mut m, vm, _bg) = contended_machine(17);
        m.enable_trace(1 << 15);
        if plan {
            m.set_fault_plan(FaultConfig {
                seed: 999, // seed is irrelevant: a noop plan never draws
                ..FaultConfig::default()
            });
        }
        m.run_until(SimTime::from_secs(2));
        (
            m.trace().dump(),
            format!("{:?}", m.domain_stats(vm)),
            m.now(),
        )
    };
    let without = run(false);
    let with = run(true);
    assert_eq!(without.2, with.2, "end times diverged");
    assert_eq!(without.1, with.1, "stats diverged");
    assert_eq!(without.0, with.0, "a disabled plan perturbed the trace");
}

// --- Adversarial tenants (scheduler attacks) as a chaos source ---------
//
// The antagonists of `workloads::antagonist` degrade a victim's service
// by gaming scheduler accounting; the contract checked here is the
// chaos-shaped one: an attacked run still terminates, the matching
// defense restores bounded completion time, freeze state stays
// consistent, and attacks compose with every fault class without
// panicking. The quantitative inflation/recovery gates live in the
// `attack_grid` bench and `scripts/verify.sh attack_grid`.

use vscale_repro::apps::antagonist::{self, AntagonistMode, AntagonistSpec, AttackKind};
use vscale_repro::core::config::DefenseConfig;
use vscale_repro::hv::CreditConfig;

/// A victim/antagonist host on the historical sampled-burn credit
/// accounting (the vulnerable configuration the attack grid measures):
/// a 2-vCPU vScale victim running NPB ep against one equal-weight
/// antagonist on 2 pCPUs.
fn adversarial_machine(
    kind: AttackKind,
    mode: AntagonistMode,
    defense: DefenseConfig,
    seed: u64,
) -> (Machine, DomId, DomId) {
    let mut m = Machine::new(MachineConfig {
        n_pcpus: 2,
        seed,
        credit: CreditConfig {
            sampled_burn: true,
            ..CreditConfig::default()
        },
        defense,
    });
    let vm = m.add_domain(SystemConfig::VScale.domain_spec(2).with_weight(256));
    let att = antagonist::install_antagonist(&mut m, AntagonistSpec::new(kind, mode));
    let app = NpbApp {
        iterations: 6,
        ..npb::app("ep").expect("ep is in NPB_APPS")
    };
    npb::install(&mut m, vm, app, 2, SpinPolicy::Default);
    (m, vm, att)
}

#[test]
fn every_attack_class_defends_and_converges() {
    for kind in AttackKind::ALL {
        let finish = |mode, defense| {
            let (mut m, vm, _att) = adversarial_machine(kind, mode, defense, 41);
            let done = m
                .try_run_until_exited(vm, SimTime::from_secs(120))
                .expect("no typed error")
                .unwrap_or_else(|| panic!("{}: victim never finished", kind.label()));
            let consistent = (0..2).all(|v| {
                m.hv_frozen(vm, VcpuId(v)) == m.guest(vm).freeze_mask().is_frozen(VcpuId(v))
            });
            (done, consistent)
        };
        // The attacked run terminates (degraded service, never a wedge)…
        let (_, attacked_consistent) =
            finish(AntagonistMode::Adversarial, DefenseConfig::default());
        assert!(
            attacked_consistent,
            "{}: attacked run ended with diverged freeze state",
            kind.label()
        );
        // …and the matching defense converges back to a bounded factor of
        // the benign-twin baseline (the tight 1.25× exec gate is the
        // bench's; this is the chaos-level "recovers at all" bound).
        let (baseline, _) = finish(AntagonistMode::Benign, DefenseConfig::default());
        let (defended, defended_consistent) =
            finish(AntagonistMode::Adversarial, kind.matching_defense());
        assert!(
            defended_consistent,
            "{}: defended run ended with diverged freeze state",
            kind.label()
        );
        let bound =
            SimTime::ZERO + baseline.since(SimTime::ZERO).mul_f64(2.0) + SimDuration::from_ms(500);
        assert!(
            defended <= bound,
            "{}: defense failed to converge: baseline {baseline}, defended {defended}",
            kind.label()
        );
    }
}

#[test]
fn attacks_compose_with_fault_plans_without_panics() {
    // Every attack class crossed with a mixed fault plan: whatever the
    // combination does to service quality, it must end in a clean finish,
    // a slow-but-legal deadline miss, or a typed, diagnosable error.
    for kind in AttackKind::ALL {
        let (mut m, vm, _att) = adversarial_machine(
            kind,
            AntagonistMode::Adversarial,
            DefenseConfig::default(),
            43,
        );
        m.set_stall_timeout(SimDuration::from_ms(500));
        m.set_fault_plan(FaultConfig {
            seed: 44,
            ipi_drop_ppm: 200_000,
            steal_spike_ppm: 200_000,
            steal_spike_max: SimDuration::from_ms(2),
            daemon_crash_ppm: 200_000,
            stale_read_ppm: 200_000,
            torn_read_ppm: 100_000,
            ..FaultConfig::default()
        });
        match m.try_run_until_exited(vm, SimTime::from_secs(120)) {
            Ok(Some(_)) => assert!(m.guest(vm).all_exited(), "{}: phantom finish", kind.label()),
            Ok(None) => {} // Legal: slow under compounded adversity.
            Err(e) => assert!(
                !e.to_string().is_empty() && !e.layer.is_empty(),
                "{}: undiagnosable error",
                kind.label()
            ),
        }
        let fs = m.fault_stats().expect("plan installed");
        assert!(
            fs.ipi_dropped + fs.steal_spikes + fs.daemon_crashes + fs.stale_reads >= 1,
            "{}: the fault plan never injected anything: {fs:?}",
            kind.label()
        );
    }
}

#[test]
fn freeze_dwell_suppresses_reconfig_thrash() {
    // The tick-evade attack whipsaws the victim daemon (its theft swings
    // measured extendability every accounting window). With the
    // freeze-rate hysteresis armed, part of that thrash must be absorbed
    // by the gate — visibly, in the defense-activity counter — and the
    // surviving reconfiguration rate must drop.
    let reconfigs = |defense: DefenseConfig| {
        let (mut m, vm, _att) = adversarial_machine(
            AttackKind::TickEvade,
            AntagonistMode::Adversarial,
            defense,
            47,
        );
        m.try_run_until(SimTime::from_secs(3)).expect("no error");
        let st = m.domain_stats(vm);
        (st.reconfigs, st.reconfigs_suppressed)
    };
    let (thrash, zero) = reconfigs(DefenseConfig::default());
    assert_eq!(zero, 0, "dwell-off run counted suppressions");
    assert!(
        thrash >= 10,
        "attack no longer thrashes the daemon: {thrash}"
    );
    let (gated, suppressed) = reconfigs(DefenseConfig {
        freeze_dwell: 8,
        ..DefenseConfig::default()
    });
    assert!(
        suppressed >= 1,
        "hysteresis gate never absorbed a reconfiguration"
    );
    assert!(
        gated < thrash,
        "gate did not reduce the reconfiguration rate: {gated} vs {thrash}"
    );
}

#[test]
fn any_generated_fault_plan_terminates_cleanly() {
    // Property: whatever the plan, a short contended run either completes
    // or returns a typed error — never panics, never hangs (watchdog).
    testkit::run_prop(
        "chaos_terminates",
        testkit::Config::with_cases(15),
        &testkit::arb_fault_config(),
        |cfg| {
            let (mut m, vm, _bg) = contended_machine(0x5EED ^ cfg.seed);
            m.set_stall_timeout(SimDuration::from_ms(500));
            m.set_fault_plan(*cfg);
            match m.try_run_until_exited(vm, SimTime::from_secs(30)) {
                Ok(Some(_)) => {
                    testkit::prop_assert!(
                        m.guest(vm).all_exited(),
                        "completion time without completion"
                    );
                }
                Ok(None) => {
                    // Deadline or queue exhaustion: legal, just slow.
                }
                Err(e) => {
                    // A typed error is an acceptable degradation — but it
                    // must carry diagnostics.
                    testkit::prop_assert!(
                        !e.to_string().is_empty() && !e.layer.is_empty(),
                        "undiagnosable error"
                    );
                }
            }
            Ok(())
        },
    );
}
