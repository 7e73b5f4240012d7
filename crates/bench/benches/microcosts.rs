//! Microbenchmarks of the hot mechanism paths (testkit bench runner).
//!
//! These measure the real wall-clock cost of the data-structure work the
//! paper's mechanisms wrap: the Algorithm 1 computation, credit-scheduler
//! transitions, the freeze/unfreeze state machine, event-queue churn.
//! Mean/p50/p99 per call are printed as a table plus one JSON line per
//! benchmark; `VSCALE_BENCH_SCALE=full` lengthens the timed phase.
//!
//! The `event_queue_churn_*` pair runs the same tick/IPI/timeout mix
//! through both queue backends (timing wheel vs the reference binary
//! heap) and reports `events_per_sec`, so `scripts/bench_snapshot.sh`
//! records the wheel-vs-heap throughput ratio over time.

use std::hint::black_box;

use guest_kernel::thread::{Looping, OneShot, ProgramCtx, ThreadAction, ThreadKind};
use guest_kernel::{GuestConfig, GuestKernel, VcpuId};
use sim_core::event::{EventHandle, EventQueue, EventQueueApi, HeapQueue};
use sim_core::fault::WatchdogConfig;
use sim_core::ids::{GlobalVcpu, PcpuId};
use sim_core::rng::SimRng;
use sim_core::time::{SimDuration, SimTime};
use testkit::bench::BenchRunner;
use vscale::config::{DomainSpec, MachineConfig, SystemConfig};
use vscale::machine::Machine;
use xen_sched::channel::{ChannelCosts, VscaleChannel};
use xen_sched::credit::{CreditConfig, CreditScheduler};
use xen_sched::extend::{compute_extendability, ExtendParams};
use xen_sched::HypervisorSched;

fn bench_extendability(r: &mut BenchRunner) {
    let domains: Vec<ExtendParams> = (0..16)
        .map(|i| ExtendParams {
            weight: 256,
            consumed: SimDuration::from_us(100 * (i as u64 % 80)),
            cap_pcpus: None,
            reservation_pcpus: None,
            n_vcpus: 4,
        })
        .collect();
    r.bench("algorithm1_extendability_16_domains", || {
        compute_extendability(
            black_box(&domains),
            black_box(12),
            SimDuration::from_ms(10),
            SimTime::ZERO,
        )
    });
}

fn bench_channel_read(r: &mut BenchRunner) {
    let mut sched = CreditScheduler::new(CreditConfig::default(), 4);
    let dom = sched.create_domain(256, 4, None, None);
    sched.wake_domain(dom, SimTime::ZERO, &mut Vec::new());
    sched.on_extend_tick(SimTime::from_ms(10));
    let costs = ChannelCosts::default();
    let mut ch = VscaleChannel::new();
    r.bench("vscale_channel_read", || {
        black_box(ch.read(&sched, dom, &costs))
    });
}

fn bench_freeze_unfreeze(r: &mut BenchRunner) {
    let mut k = GuestKernel::new(GuestConfig::new(4));
    let mut fx = Vec::with_capacity(4);
    r.bench("balancer_freeze_unfreeze", || {
        fx.clear();
        k.freeze_vcpu(VcpuId(3), SimTime::ZERO, &mut fx);
        fx.clear();
        k.unfreeze_vcpu(VcpuId(3), SimTime::ZERO, &mut fx);
    });
}

fn bench_credit_wake_block(r: &mut BenchRunner) {
    r.bench_with_setup(
        "credit_wake_block_cycle",
        || {
            let mut s = CreditScheduler::new(CreditConfig::default(), 4);
            let dom = s.create_domain(256, 4, None, None);
            (
                s,
                GlobalVcpu::new(dom, sim_core::ids::VcpuId(0)),
                Vec::new(),
            )
        },
        |(mut s, gv, mut ev)| {
            for i in 0..100u64 {
                let t = SimTime::from_us(i * 10);
                ev.clear();
                s.vcpu_wake(gv, t, &mut ev);
                s.vcpu_block(gv, t, &mut ev);
            }
            black_box(s.migrations())
        },
    );
}

fn bench_event_queue(r: &mut BenchRunner) {
    r.bench("event_queue_schedule_pop_1k", || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..1_000u64 {
            q.schedule(SimTime::from_ns((i * 7919) % 100_000), i);
        }
        let mut acc = 0u64;
        while let Some((_, e)) = q.pop() {
            acc = acc.wrapping_add(e);
        }
        black_box(acc)
    });
}

// -----------------------------------------------------------------
// Event-queue churn: the steady-state mix a real simulation drives.
// -----------------------------------------------------------------

/// Events delivered per timed call of the churn benchmark.
const CHURN_POPS: u64 = 10_000;
/// Standing armed-timeout population; beyond it the oldest arm is
/// cancelled. The cancel-before-fire lifetime this implies (tens of ms)
/// is far shorter than the armed duration, which is exactly how
/// futex/IPI timeouts behave: almost all are cancelled, not delivered.
const TIMEOUT_CAP: usize = 512;

const TAG_PCPU_TICK: u32 = 0; // ..4: 10 ms Xen ticks, one per pCPU
const TAG_GUEST_TICK: u32 = 4; // ..12: 1 ms (1000 Hz) guest ticks
const TAG_ACCT: u32 = 12; // 30 ms accounting
const TAG_TIMEOUT: u32 = 13; // futex/IPI timeouts, usually cancelled

/// Arms one timeout (100–500 ms out); at the cap, eagerly cancels the
/// oldest armed one first — the re-arm pattern of a futex wait.
fn arm_timeout<Q: EventQueueApi<u32>>(
    q: &mut Q,
    handles: &mut std::collections::VecDeque<EventHandle>,
    rng: &mut SimRng,
) {
    if handles.len() >= TIMEOUT_CAP {
        let h = handles.pop_front().expect("cap > 0");
        q.cancel(h); // false on the rare timeout that already fired
    }
    let dt = SimDuration::from_us(rng.range(100_000, 500_000));
    handles.push_back(q.schedule(q.now() + dt, TAG_TIMEOUT));
}

/// Primes `q` with the periodic sources plus a standing timeout
/// population, mirroring a 4-pCPU / 8-vCPU overcommit scenario.
fn churn_prime<Q: EventQueueApi<u32>>(
    q: &mut Q,
    handles: &mut std::collections::VecDeque<EventHandle>,
    rng: &mut SimRng,
) {
    for p in 0..4u32 {
        q.schedule(SimTime::from_ms(10), TAG_PCPU_TICK + p);
    }
    for v in 0..8u32 {
        q.schedule(SimTime::from_ms(1), TAG_GUEST_TICK + v);
    }
    q.schedule(SimTime::from_ms(30), TAG_ACCT);
    for _ in 0..TIMEOUT_CAP {
        arm_timeout(q, handles, rng);
    }
}

/// Delivers [`CHURN_POPS`] events, rescheduling each periodic source and
/// re-arming/cancelling timeouts as they churn. The queue stays in steady
/// state across calls, so the timing covers schedule + cancel + pop at a
/// realistic pending population.
fn churn_step<Q: EventQueueApi<u32>>(
    q: &mut Q,
    handles: &mut std::collections::VecDeque<EventHandle>,
    rng: &mut SimRng,
) -> u64 {
    for _ in 0..CHURN_POPS {
        let (t, tag) = q.pop().expect("churn queue never drains");
        match tag {
            TAG_ACCT => {
                q.schedule(t + SimDuration::from_ms(30), tag);
            }
            t4 if t4 < TAG_GUEST_TICK => {
                q.schedule(t + SimDuration::from_ms(10), tag);
            }
            t12 if t12 < TAG_ACCT => {
                // A guest tick re-arms timer wheels: two fresh timeouts,
                // typically displacing (cancelling) older ones.
                q.schedule(t + SimDuration::from_ms(1), tag);
                arm_timeout(q, handles, rng);
                arm_timeout(q, handles, rng);
            }
            _ => {
                // A timeout actually fired (futex wait expired): re-arm.
                arm_timeout(q, handles, rng);
            }
        }
    }
    q.delivered()
}

fn bench_event_queue_churn(r: &mut BenchRunner) {
    let mut wheel: EventQueue<u32> = EventQueue::new();
    let mut wheel_handles = std::collections::VecDeque::new();
    let mut wheel_rng = SimRng::new(42);
    churn_prime(&mut wheel, &mut wheel_handles, &mut wheel_rng);
    r.bench_throughput("event_queue_churn_wheel", CHURN_POPS, || {
        churn_step(&mut wheel, &mut wheel_handles, &mut wheel_rng)
    });

    let mut heap: HeapQueue<u32> = HeapQueue::new();
    let mut heap_handles = std::collections::VecDeque::new();
    let mut heap_rng = SimRng::new(42);
    churn_prime(&mut heap, &mut heap_handles, &mut heap_rng);
    r.bench_throughput("event_queue_churn_heap_baseline", CHURN_POPS, || {
        churn_step(&mut heap, &mut heap_handles, &mut heap_rng)
    });
}

fn bench_machine_dispatch(r: &mut BenchRunner) {
    // Guard for the dispatch-path fix: the supervised run loop calls
    // watchdog_tick per delivered event, and each elapsed stall window
    // recomputes the progress fingerprint. That fingerprint must read the
    // scheduler's O(1) run-time aggregate, not fold per-domain per-vCPU
    // totals. A 20 ms stall window (two tick periods, so the fingerprint
    // always observes fresh burns and never trips) keeps recomputation
    // frequent enough that a regression to O(domains × vcpus) folding
    // shows up in events_per_sec.
    let run = || {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 2,
            seed: 77,
            ..MachineConfig::default()
        });
        let vm = m.add_domain(SystemConfig::VScale.domain_spec(4));
        let bg = m.add_domain(DomainSpec::fixed(2));
        for _ in 0..4 {
            let t = m.guest_mut(vm).spawn(
                ThreadKind::User,
                Box::new(OneShot::new(SimDuration::from_ms(400))),
            );
            m.start_thread(vm, t);
        }
        for _ in 0..2 {
            let t = m.guest_mut(bg).spawn(
                ThreadKind::User,
                Box::new(OneShot::new(SimDuration::from_ms(400))),
            );
            m.start_thread(bg, t);
        }
        m.set_watchdog(WatchdogConfig {
            stall_timeout: SimDuration::from_ms(20),
            ..WatchdogConfig::default()
        });
        m.try_run_until(SimTime::from_ms(100)).expect("clean run");
        m.events_delivered()
    };
    // The machine is deterministic, so one probe run fixes the per-call
    // event count for the throughput figure.
    let per_call = run();
    assert!(per_call > 0, "dispatch bench delivered no events");
    r.bench_throughput("machine_dispatch_supervised", per_call, || black_box(run()));
}

/// Simulated time each timed call of the steady-state bench advances.
const STEP_WINDOW: SimDuration = SimDuration::from_ms(10);

/// A thread program that never exits: a compute/sleep/yield mix that
/// keeps plans, sleep-wake timers, wake IPIs, and scheduler churn all
/// live indefinitely.
fn steady_program() -> Box<Looping<impl FnMut(ProgramCtx) -> ThreadAction + Send>> {
    let mut k = 0u64;
    Box::new(Looping::new("steady", move |_| {
        k += 1;
        match k % 5 {
            0 => ThreadAction::Sleep(SimDuration::from_us(150)),
            3 => ThreadAction::Yield,
            _ => ThreadAction::Compute(SimDuration::from_us(350)),
        }
    }))
}

fn bench_machine_steps(r: &mut BenchRunner) {
    // Whole-machine steady-state dispatch throughput with construction
    // amortized away: ONE machine, built once, whose workload never
    // exits; each timed call advances a fixed 10 ms window of simulated
    // time. Unlike `machine_dispatch_supervised` (which rebuilds the
    // machine per call and therefore mixes setup into the figure), this
    // measures the pure steady-state event loop: the wheel, the dispatch
    // batching, the SoA scheduler state, and the compact one-cache-line
    // events are the only things on the profile.
    let mut m = Machine::new(MachineConfig {
        n_pcpus: 4,
        seed: 101,
        ..MachineConfig::default()
    });
    let vm = m.add_domain(SystemConfig::VScale.domain_spec(4));
    let bg = m.add_domain(DomainSpec::fixed(2));
    for _ in 0..6 {
        let t = m.guest_mut(vm).spawn(ThreadKind::User, steady_program());
        m.start_thread(vm, t);
    }
    for _ in 0..3 {
        let t = m.guest_mut(bg).spawn(ThreadKind::User, steady_program());
        m.start_thread(bg, t);
    }
    // Warm past startup transients, then probe the per-window event rate
    // (the workload is periodic, so windows are near-identical; the
    // machine is deterministic, so the probe is stable run to run).
    let mut end = SimTime::from_ms(100);
    m.run_until(end);
    let probe_windows = 50u64;
    let before = m.events_delivered();
    for _ in 0..probe_windows {
        end += STEP_WINDOW;
        m.run_until(end);
    }
    let per_call = (m.events_delivered() - before) / probe_windows;
    assert!(per_call > 0, "steady machine delivered no events");
    r.bench_throughput("machine_steps_steady", per_call, || {
        end += STEP_WINDOW;
        m.run_until(end);
        black_box(m.events_delivered())
    });
}

fn bench_tick_path(r: &mut BenchRunner) {
    r.bench_with_setup(
        "credit_on_tick_4_pcpus",
        || {
            let mut s = CreditScheduler::new(CreditConfig::default(), 4);
            let mut ev = Vec::new();
            for _ in 0..4 {
                let d = s.create_domain(256, 2, None, None);
                s.wake_domain(d, SimTime::ZERO, &mut ev);
            }
            (s, ev)
        },
        |(mut s, mut ev)| {
            for k in 1..=10u64 {
                for p in 0..4 {
                    ev.clear();
                    s.on_tick(PcpuId(p), SimTime::from_ms(10 * k), &mut ev);
                    black_box(&ev);
                }
            }
            s
        },
    );
}

fn main() {
    let mut r = BenchRunner::new("microcosts");
    bench_extendability(&mut r);
    bench_channel_read(&mut r);
    bench_freeze_unfreeze(&mut r);
    bench_credit_wake_block(&mut r);
    bench_event_queue(&mut r);
    bench_event_queue_churn(&mut r);
    bench_machine_dispatch(&mut r);
    bench_machine_steps(&mut r);
    bench_tick_path(&mut r);
    r.finish();
}
