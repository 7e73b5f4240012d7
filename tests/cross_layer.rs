//! Cross-layer integration tests: the channel, Algorithm 1 outputs seen
//! through the machine, interrupt redirection, and I/O behaviour under
//! freezing.

use vscale_repro::apps::apache::{self, ApacheConfig};
use vscale_repro::core::config::{DomainSpec, MachineConfig, SystemConfig};
use vscale_repro::core::machine::Machine;
use vscale_repro::guest::thread::{OneShot, Script, ThreadAction, ThreadKind};
use vscale_repro::sim::time::{SimDuration, SimTime};
use vscale_repro::VcpuId;

#[test]
fn extendability_visible_through_machine() {
    // A busy VM next to an idle one: Algorithm 1 must hand the busy one
    // the whole machine within a few ticker periods.
    let mut m = Machine::new(MachineConfig {
        n_pcpus: 4,
        seed: 2,
        ..MachineConfig::default()
    });
    let busy = m.add_domain(DomainSpec::fixed(4));
    let idle = m.add_domain(DomainSpec::fixed(2));
    for _ in 0..4 {
        let t = m.guest_mut(busy).spawn(
            ThreadKind::User,
            Box::new(OneShot::new(SimDuration::from_secs(1))),
        );
        m.start_thread(busy, t);
    }
    let _ = idle;
    m.run_until(SimTime::from_ms(100));
    let info = m.hv().extendability(vscale_repro::DomId(0));
    assert!(
        info.ext_pcpus() > 3.5,
        "sole busy VM should extend to ~4 pCPUs, got {:.2}",
        info.ext_pcpus()
    );
    assert_eq!(info.n_opt, 4);
    let idle_info = m.hv().extendability(vscale_repro::DomId(1));
    assert!(
        idle_info.ext_pcpus() >= 1.2,
        "idle VM keeps its fair share for ramp-up, got {:.2}",
        idle_info.ext_pcpus()
    );
}

#[test]
fn apache_serves_through_frozen_irq_vcpu() {
    // Bind the request port to vCPU1, then freeze vCPU1: the interrupt
    // must be redirected on occurrence and service must continue.
    let mut m = Machine::new(MachineConfig {
        n_pcpus: 2,
        seed: 3,
        ..MachineConfig::default()
    });
    let vm = m.add_domain(DomainSpec::fixed(2));
    let cfg = ApacheConfig {
        workers: 4,
        ..ApacheConfig::default()
    };
    let q = m.guest_mut(vm).new_io_queue();
    m.guest_mut(vm).set_io_queue_capacity(q, 64);
    let port = m.bind_io_port(vm, q, VcpuId(1));
    for _ in 0..cfg.workers {
        let t = m.guest_mut(vm).spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::IoWait(q),
                ThreadAction::Compute(SimDuration::from_us(50)),
                ThreadAction::NicSend { bytes: 16_384 },
            ])),
        );
        m.start_thread(vm, t);
    }
    // Freeze vCPU1, then inject requests.
    let now = m.now();
    let mut fx = Vec::new();
    m.guest_mut(vm).freeze_vcpu(VcpuId(1), now, &mut fx);
    m.apply_guest_effects(vm, fx);
    m.run_until(SimTime::from_ms(10));
    for i in 0..4u64 {
        m.inject_io(vm, port, SimTime::from_ms(20 + i), 1);
    }
    m.run_until(SimTime::from_ms(200));
    let (_, deliveries, completions) = m.io_logs(vm);
    assert_eq!(deliveries.len(), 4, "all requests must be delivered");
    assert_eq!(completions.len(), 4, "all replies must go out");
    assert_eq!(
        m.guest(vm).io_irqs(VcpuId(1)),
        0,
        "frozen vCPU must not handle interrupts"
    );
    assert!(m.guest(vm).io_irqs(VcpuId(0)) >= 1);
}

#[test]
fn listen_backlog_drops_when_overwhelmed() {
    let mut m = Machine::new(MachineConfig {
        n_pcpus: 1,
        seed: 4,
        ..MachineConfig::default()
    });
    let vm = m.add_domain(DomainSpec::fixed(1));
    let q = m.guest_mut(vm).new_io_queue();
    m.guest_mut(vm).set_io_queue_capacity(q, 8);
    let port = m.bind_io_port(vm, q, VcpuId(0));
    // One slow worker, a flood of requests.
    let t = m.guest_mut(vm).spawn(
        ThreadKind::User,
        Box::new(Script::new(
            (0..4)
                .flat_map(|_| {
                    vec![
                        ThreadAction::IoWait(q),
                        ThreadAction::Compute(SimDuration::from_ms(5)),
                    ]
                })
                .collect(),
        )),
    );
    m.start_thread(vm, t);
    m.inject_io(vm, port, SimTime::from_ms(1), 64);
    m.run_until(SimTime::from_ms(100));
    assert!(
        m.guest(vm).io_drops(q) >= 64 - 8 - 4,
        "drops: {}",
        m.guest(vm).io_drops(q)
    );
}

#[test]
fn full_apache_pipeline_under_all_configs() {
    // Smoke the whole request path in every configuration.
    for cfg in SystemConfig::ALL {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 4,
            seed: 5,
            ..MachineConfig::default()
        });
        let vm = m.add_domain(cfg.domain_spec(4));
        let srv = apache::install(&mut m, vm, ApacheConfig::default());
        let window = SimDuration::from_ms(400);
        let sent = apache::run_client(&mut m, vm, &srv, 1_000.0, SimTime::from_ms(10), window);
        m.run_until(SimTime::from_ms(600));
        let s = apache::summarize(&m, vm, &srv, SimTime::from_ms(10), window);
        assert!(sent > 200);
        assert!(
            s.replies as f64 > 0.9 * sent as f64,
            "{}: {} of {} replied",
            cfg.label(),
            s.replies,
            sent
        );
    }
}
