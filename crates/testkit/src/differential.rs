//! Cross-policy differential testing for the scheduler [`Pool`].
//!
//! The vScale machine drives its scheduler through a narrow event-driven
//! contract (see `xen_sched::pool`). This module checks that contract two
//! ways:
//!
//! 1. **Per-backend invariants** — [`replay`] drives one policy through a
//!    seeded [`Scenario`] (a Gen-produced op stream of ticks, wakes,
//!    sleeps, yields, kicks and freezes) and checks structural sanity
//!    after *every* op: one vCPU per pCPU, states agreeing with
//!    occupancy, the event contract (each op's `Run`/`Desched` events
//!    replay onto the pCPUs' occupancy), monotone run/wait totals, no
//!    frozen vCPU running, and work conservation (no idle pCPU while
//!    unfrozen runnable work waits).
//! 2. **Shared conservation laws** — [`check_pair`] replays the same
//!    scenario on two backends and compares the quantities every
//!    work-conserving policy must agree on: with an identical runnable
//!    trajectory (the harness drives wakes/blocks open-loop), the number
//!    of busy pCPUs at any instant is `min(runnable, n_pcpus)` for both,
//!    so the machine-wide run-time integral must be *equal*, and bounded
//!    by pCPU capacity. The same argument fixes the waiting-time integral:
//!    at every instant `runnable − min(runnable, n_pcpus)` vCPUs wait, so
//!    the closed waiting spans plus the open span of every vCPU still
//!    queued at the end must be equal too. Per-domain splits legitimately
//!    differ between policies and are not compared.
//!
//! # The freeze convention
//!
//! The paper's Algorithm 2 splits freezing a vCPU into a hypervisor-side
//! accounting change ([`Pool::set_frozen`]) and a guest-side
//! block. The harness applies both halves atomically — [`Op::Freeze`] is
//! `set_frozen(true)` + `vcpu_block`, [`Op::Unfreeze`] is
//! `set_frozen(false)` + `vcpu_wake` — and never wakes or kicks a frozen
//! vCPU. Under that discipline "no frozen vCPU ever runs" is a checkable
//! invariant rather than merely an eventual property. [`apply`] is the one
//! interpreter of that convention: [`replay`] and the layout goldens in
//! `tests/layout_equivalence.rs` both drive their pools through it.
//!
//! On divergence, [`minimize_pair`] reduces the op stream to a minimal
//! reproducer with the choice-stream shrinker ([`crate::runner`]).
//!
//! # Adversarial streams
//!
//! [`adversarial_scenario_gen`] draws from the same topologies but fills
//! streams with the four attack-shaped composites (timed self-wakeups,
//! tick dodges, domain-wide kick storms, freeze thrash) that mirror the
//! antagonist workloads in `workloads::antagonist`. Both the per-backend
//! invariants and the pairwise conservation laws must hold on these
//! streams too — an adversarial tenant can degrade a neighbor's service,
//! but it must never break structural sanity or work conservation.

use sim_core::ids::{DomId, GlobalVcpu, PcpuId, VcpuId};
use sim_core::time::{SimDuration, SimTime};
use xen_sched::credit::{CreditConfig, SchedEvent, VcpuState};
use xen_sched::{Policy, Pool};

use crate::gen::{one_of, tuple2, u8_in, usize_in, vec_of, Gen};
use crate::runner::{find_minimal, Config, Counterexample};

/// One step of a differential scenario. vCPU/pCPU operands are raw
/// selector bytes resolved modulo the scenario's topology at replay time,
/// so shrinking a selector never produces an out-of-range target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Periodic tick on the selected pCPU (burn + possible preemption).
    Tick(u8),
    /// Machine-wide accounting epoch (credit/share redistribution).
    Acct,
    /// Slice expiry on the selected pCPU.
    Slice(u8),
    /// Algorithm 1 extendability recomputation.
    ExtendTick,
    /// Guest wakes the selected vCPU (skipped if frozen — see the freeze
    /// convention in the module docs).
    Wake(u8),
    /// Guest blocks the selected vCPU.
    Block(u8),
    /// The selected vCPU yields its pCPU.
    Yield(u8),
    /// Urgent wake (IPI path) of the selected vCPU (skipped if frozen).
    Kick(u8),
    /// Freeze: `set_frozen(true)` + guest block, applied atomically.
    Freeze(u8),
    /// Unfreeze: `set_frozen(false)` + guest wake.
    Unfreeze(u8),
    /// Attack shape (BOOST farming): the selected vCPU blocks and wakes
    /// again at the same instant — the timed self-wakeup a boost-farming
    /// tenant uses to re-enter at BOOST priority without spending credit.
    SelfWake(u8),
    /// Attack shape (tick evasion): the selected vCPU blocks, the pCPU it
    /// was running on takes its periodic tick while the vCPU is off it,
    /// and the vCPU wakes again — all at one instant. Under sampled burn
    /// accounting this is exactly how a tenant dodges the charge.
    TickDodge(u8),
    /// Attack shape (IPI storm): urgent-kick every unfrozen vCPU of the
    /// selected vCPU's domain at the same instant — a wake fan-out like a
    /// reschedule-IPI broadcast.
    StormKick(u8),
    /// Attack shape (extendability oscillation): freeze then immediately
    /// unfreeze the selected vCPU — reconfiguration thrash at the fastest
    /// rate the interface allows. Both halves follow the atomic freeze
    /// convention, so freeze-safety stays checkable.
    FreezeThrash(u8),
}

/// A complete differential test case: topology plus an op stream.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Number of physical CPUs (1..=3 from the generator).
    pub n_pcpus: usize,
    /// `(weight, n_vcpus)` per domain (1..=3 domains, 1..=3 vCPUs).
    pub domains: Vec<(u32, usize)>,
    /// The op stream, applied at a fixed 500 µs cadence.
    pub ops: Vec<Op>,
}

/// Simulated time between consecutive ops. Fixed so that replays of the
/// same scenario on different backends share one time base.
pub const OP_STEP: SimDuration = SimDuration::from_us(500);

/// Generator for [`Scenario`]s: small topologies, op streams up to
/// `max_ops` long, tick-heavy so vCPUs actually accumulate run time.
pub fn scenario_gen(max_ops: usize) -> Gen<Scenario> {
    let op = one_of(vec![
        // Ticks twice so streams burn often enough to exercise
        // accounting, preemption and (credit2) reset epochs.
        u8_in(0..8).map(Op::Tick),
        u8_in(0..8).map(Op::Tick),
        u8_in(0..1).map(|_| Op::Acct),
        u8_in(0..8).map(Op::Slice),
        u8_in(0..1).map(|_| Op::ExtendTick),
        u8_in(0..16).map(Op::Wake),
        u8_in(0..16).map(Op::Wake),
        u8_in(0..16).map(Op::Block),
        u8_in(0..16).map(Op::Yield),
        u8_in(0..16).map(Op::Kick),
        u8_in(0..16).map(Op::Freeze),
        u8_in(0..16).map(Op::Unfreeze),
    ]);
    scenario_with_ops(op, max_ops)
}

/// Generator for attack-shaped [`Scenario`]s: the same small topologies,
/// but op streams dominated by the four adversarial composites
/// ([`Op::SelfWake`], [`Op::TickDodge`], [`Op::StormKick`],
/// [`Op::FreezeThrash`]) with just enough plain ticks/wakes/blocks that
/// the pool has real occupancy to attack. A separate generator so the
/// long-standing [`scenario_gen`] streams (pinned by seeded regression
/// tests) are untouched.
pub fn adversarial_scenario_gen(max_ops: usize) -> Gen<Scenario> {
    let op = one_of(vec![
        u8_in(0..8).map(Op::Tick),
        u8_in(0..1).map(|_| Op::Acct),
        u8_in(0..8).map(Op::Slice),
        u8_in(0..1).map(|_| Op::ExtendTick),
        u8_in(0..16).map(Op::Wake),
        u8_in(0..16).map(Op::Block),
        // Attack shapes twice each: streams are attack-dense on purpose.
        u8_in(0..16).map(Op::SelfWake),
        u8_in(0..16).map(Op::SelfWake),
        u8_in(0..16).map(Op::TickDodge),
        u8_in(0..16).map(Op::TickDodge),
        u8_in(0..16).map(Op::StormKick),
        u8_in(0..16).map(Op::StormKick),
        u8_in(0..16).map(Op::FreezeThrash),
        u8_in(0..16).map(Op::FreezeThrash),
    ]);
    scenario_with_ops(op, max_ops)
}

/// Shared topology generator: 1..=3 pCPUs, 1..=3 domains of 1..=3 vCPUs
/// at paper-ratio weights, with `op` drawn up to `max_ops` times.
fn scenario_with_ops(op: Gen<Op>, max_ops: usize) -> Gen<Scenario> {
    let domains = vec_of(tuple2(u8_in(0..3), usize_in(1..4)), 1..4).map(|ds| {
        ds.into_iter()
            // Weights from the paper's 1:2:4 ratio set.
            .map(|(w, nv)| (256u32 << w, nv))
            .collect::<Vec<_>>()
    });
    tuple2(
        tuple2(usize_in(1..4), domains),
        vec_of(op, 1..max_ops.max(2)),
    )
    .map(|((n_pcpus, domains), ops)| Scenario {
        n_pcpus,
        domains,
        ops,
    })
}

/// Replay outcome for one backend: the quantities compared across
/// backends by [`check_pair`].
#[derive(Clone, Debug)]
pub struct Replay {
    /// Machine-wide run time after the settle flush, in nanoseconds.
    pub total_run_ns: u64,
    /// Machine-wide waiting time at the end of the replay, in
    /// nanoseconds: every closed waiting span, plus the open span of each
    /// vCPU still queued.
    pub total_wait_ns: u64,
    /// Simulated time at the end of the replay.
    pub end: SimTime,
    /// Cross-pCPU migrations the policy performed (informational).
    pub migrations: u64,
}

/// Flat list of the scenario's vCPUs, in (dom, vcpu) order. Selector
/// bytes index this list modulo its length.
pub fn vcpu_table(domains: &[(u32, usize)]) -> Vec<GlobalVcpu> {
    let mut t = Vec::new();
    for (d, &(_, nv)) in domains.iter().enumerate() {
        for v in 0..nv {
            t.push(GlobalVcpu::new(DomId(d), VcpuId(v)));
        }
    }
    t
}

/// Structural invariants, checked after every op:
/// - each pCPU runs at most one vCPU and that vCPU's state points back;
/// - every vCPU claiming `Running { pcpu }` is what `running_on(pcpu)`
///   reports;
/// - no frozen vCPU is running (valid under the harness's atomic
///   freeze+block convention; a real guest may lag the block).
fn check_structure<P: Policy>(s: &Pool<P>, vcpus: &[GlobalVcpu]) -> Result<(), String> {
    let mut seen = Vec::new();
    for p in 0..s.n_pcpus() {
        if let Some(gv) = s.running_on(PcpuId(p)) {
            if seen.contains(&gv) {
                return Err(format!("{gv} running on two pCPUs"));
            }
            seen.push(gv);
            match s.vcpu_state(gv) {
                VcpuState::Running { pcpu, .. } if pcpu == PcpuId(p) => {}
                other => return Err(format!("{gv} on pcpu{p} but state {other:?}")),
            }
            if s.is_frozen(gv) {
                return Err(format!("frozen {gv} is running on pcpu{p}"));
            }
        }
    }
    for &gv in vcpus {
        if let VcpuState::Running { pcpu, .. } = s.vcpu_state(gv) {
            if s.running_on(pcpu) != Some(gv) {
                return Err(format!("{gv} claims {pcpu} but it runs someone else"));
            }
        }
    }
    Ok(())
}

/// The event contract (`xen_sched::pool`): replayed over `shadow`, the
/// vCPU each pCPU ran after the previous op, a `Desched` must name the
/// pCPU's vCPU and a `Run` must land on an empty pCPU, and the result
/// must be what `running_on` reports. The machine arms a pCPU's slice
/// timer on `Run` and disarms it on `Desched`, so a missing or
/// misdirected event would strand a slice end on an idle pCPU or leave
/// a busy one without any.
fn check_events<P: Policy>(
    s: &Pool<P>,
    events: &[SchedEvent],
    shadow: &mut [Option<GlobalVcpu>],
) -> Result<(), String> {
    for e in events {
        match *e {
            SchedEvent::Run { pcpu, vcpu } => {
                let slot = &mut shadow[pcpu.index()];
                if let Some(cur) = *slot {
                    return Err(format!("Run of {vcpu} on {pcpu} while {cur} holds it"));
                }
                *slot = Some(vcpu);
            }
            SchedEvent::Desched { pcpu, vcpu } => {
                let slot = &mut shadow[pcpu.index()];
                if *slot != Some(vcpu) {
                    return Err(format!(
                        "Desched of {vcpu} from {pcpu}, which runs {slot:?}"
                    ));
                }
                *slot = None;
            }
            SchedEvent::Idle { .. } => {}
        }
    }
    for (p, &want) in shadow.iter().enumerate() {
        let got = s.running_on(PcpuId(p));
        if got != want {
            return Err(format!("pcpu{p} runs {got:?} but its events say {want:?}"));
        }
    }
    Ok(())
}

/// Work conservation: no pCPU may idle while an unfrozen vCPU waits
/// runnable. All three shipped backends place wakes on idle pCPUs and
/// steal on reschedule, so this holds after every op, not just at
/// accounting boundaries.
fn check_work_conserving<P: Policy>(s: &Pool<P>, vcpus: &[GlobalVcpu]) -> Result<(), String> {
    let idle: Vec<usize> = (0..s.n_pcpus())
        .filter(|&p| s.running_on(PcpuId(p)).is_none())
        .collect();
    if idle.is_empty() {
        return Ok(());
    }
    for &gv in vcpus {
        if matches!(s.vcpu_state(gv), VcpuState::Runnable { .. }) && !s.is_frozen(gv) {
            return Err(format!("pcpu{} idle while {gv} waits runnable", idle[0]));
        }
    }
    Ok(())
}

/// Applies `op` to `s` at `now`, appending the resulting events, with the
/// normalization documented on [`Op`]: selectors resolve modulo the
/// topology (`vcpus`, from [`vcpu_table`], and the pool's pCPUs), and
/// wakes and kicks of frozen vCPUs are skipped. Every replay of an op
/// stream goes through here, so two pools replaying the same scenario see
/// byte-identical call sequences.
pub fn apply<P: Policy>(
    s: &mut Pool<P>,
    vcpus: &[GlobalVcpu],
    op: Op,
    now: SimTime,
    events: &mut Vec<SchedEvent>,
) {
    let gv = |sel: u8| vcpus[sel as usize % vcpus.len()];
    let n_pcpus = s.n_pcpus();
    let pc = |sel: u8| PcpuId(sel as usize % n_pcpus);
    match op {
        Op::Tick(p) => s.on_tick(pc(p), now, events),
        Op::Acct => s.on_acct(now, events),
        Op::Slice(p) => s.slice_expired(pc(p), now, events),
        Op::ExtendTick => s.on_extend_tick(now),
        Op::Wake(v) => {
            if !s.is_frozen(gv(v)) {
                s.vcpu_wake(gv(v), now, events);
            }
        }
        Op::Block(v) => s.vcpu_block(gv(v), now, events),
        Op::Yield(v) => s.vcpu_yield(gv(v), now, events),
        Op::Kick(v) => {
            if !s.is_frozen(gv(v)) {
                s.kick_vcpu(gv(v), now, events);
            }
        }
        Op::Freeze(v) => {
            s.set_frozen(gv(v), true);
            s.vcpu_block(gv(v), now, events);
        }
        Op::Unfreeze(v) => {
            s.set_frozen(gv(v), false);
            s.vcpu_wake(gv(v), now, events);
        }
        Op::SelfWake(v) => {
            if !s.is_frozen(gv(v)) {
                s.vcpu_block(gv(v), now, events);
                s.vcpu_wake(gv(v), now, events);
            }
        }
        Op::TickDodge(v) => {
            if !s.is_frozen(gv(v)) {
                let dodged = s.where_running(gv(v));
                s.vcpu_block(gv(v), now, events);
                if let Some(p) = dodged {
                    s.on_tick(p, now, events);
                }
                s.vcpu_wake(gv(v), now, events);
            }
        }
        Op::StormKick(v) => {
            let dom = gv(v).dom;
            for &target in vcpus.iter().filter(|t| t.dom == dom) {
                if !s.is_frozen(target) {
                    s.kick_vcpu(target, now, events);
                }
            }
        }
        Op::FreezeThrash(v) => {
            s.set_frozen(gv(v), true);
            s.vcpu_block(gv(v), now, events);
            s.set_frozen(gv(v), false);
            s.vcpu_wake(gv(v), now, events);
        }
    }
}

/// The signature of [`apply`], for a replay through another interpreter.
type Step<P> = fn(&mut Pool<P>, &[GlobalVcpu], Op, SimTime, &mut Vec<SchedEvent>);

/// Drives policy `P` through `scenario` with [`apply`], checking
/// per-backend invariants after every op, and returns the conserved
/// quantities.
pub fn replay<P: Policy>(scenario: &Scenario) -> Result<Replay, String> {
    replay_with(scenario, P::NAME, apply::<P>)
}

/// [`replay`] through `step` in place of [`apply`], with errors labelled
/// `name`.
fn replay_with<P: Policy>(
    scenario: &Scenario,
    name: &str,
    step: Step<P>,
) -> Result<Replay, String> {
    let vcpus = vcpu_table(&scenario.domains);
    let mut s = Pool::<P>::new(CreditConfig::default(), scenario.n_pcpus);
    for &(weight, nv) in &scenario.domains {
        // No caps or reservations: the cross-backend run-time equality
        // law only holds for uncapped (purely work-conserving) pools.
        s.create_domain(weight, nv, None, None);
    }
    let mut now = SimTime::ZERO;
    let mut events = Vec::new();
    let mut shadow = vec![None; scenario.n_pcpus];
    let mut prev_run = SimDuration::ZERO;
    let mut prev_wait = SimDuration::ZERO;
    for (i, &op) in scenario.ops.iter().enumerate() {
        now += OP_STEP;
        events.clear();
        step(&mut s, &vcpus, op, now, &mut events);
        let ctx = |e: String| format!("[{name}] op {i} ({op:?}): {e}");
        check_events(&s, &events, &mut shadow).map_err(ctx)?;
        check_structure(&s, &vcpus).map_err(ctx)?;
        check_work_conserving(&s, &vcpus).map_err(ctx)?;
        // Totals must be monotone.
        let run: SimDuration = (0..scenario.domains.len())
            .map(|d| s.domain_run_total(DomId(d)))
            .fold(SimDuration::ZERO, |a, b| a + b);
        let wait: SimDuration = (0..scenario.domains.len())
            .map(|d| s.domain_wait_total(DomId(d)))
            .fold(SimDuration::ZERO, |a, b| a + b);
        if run < prev_run {
            return Err(ctx("run total went backwards".into()));
        }
        if wait < prev_wait {
            return Err(ctx("wait total went backwards".into()));
        }
        prev_run = run;
        prev_wait = wait;
    }
    // Settle flush: tick every pCPU once at the final instant so every
    // in-progress run span is burned into the totals. No simulated time
    // passes, so the flush cannot change the run-time integral — it only
    // makes it observable.
    now += OP_STEP;
    for p in 0..scenario.n_pcpus {
        events.clear();
        s.on_tick(PcpuId(p), now, &mut events);
        check_events(&s, &events, &mut shadow).map_err(|e| format!("[{name}] settle: {e}"))?;
    }
    check_structure(&s, &vcpus).map_err(|e| format!("[{name}] settle: {e}"))?;
    check_work_conserving(&s, &vcpus).map_err(|e| format!("[{name}] settle: {e}"))?;
    // Capacity: the run-time integral can never exceed elapsed × pCPUs.
    let cap_ns = now.since(SimTime::ZERO).as_ns() * scenario.n_pcpus as u64;
    if s.total_run_ns() > cap_ns {
        return Err(format!(
            "[{name}] ran {} ns > capacity {cap_ns} ns",
            s.total_run_ns()
        ));
    }
    let open_wait_ns: u64 = vcpus
        .iter()
        .map(|&gv| match s.vcpu_state(gv) {
            VcpuState::Runnable { since, .. } => now.since(since).as_ns(),
            _ => 0,
        })
        .sum();
    let closed_wait_ns: u64 = (0..scenario.domains.len())
        .map(|d| s.domain_wait_total(DomId(d)).as_ns())
        .sum();
    Ok(Replay {
        total_run_ns: s.total_run_ns(),
        total_wait_ns: closed_wait_ns + open_wait_ns,
        end: now,
        migrations: s.migrations(),
    })
}

/// Replays `scenario` on backends `A` and `B` and checks the shared
/// conservation laws (see the module docs). `Err` carries a
/// human-readable divergence report.
pub fn check_pair<A: Policy, B: Policy>(scenario: &Scenario) -> Result<(), String> {
    conserved(
        (A::NAME, replay::<A>(scenario)?),
        (B::NAME, replay::<B>(scenario)?),
    )
}

/// The conservation laws two named replays of one scenario must agree on.
fn conserved((a_name, a): (&str, Replay), (b_name, b): (&str, Replay)) -> Result<(), String> {
    if a.total_run_ns != b.total_run_ns {
        return Err(format!(
            "run-time integral diverged: {a_name}={} ns, {b_name}={} ns (Δ {})",
            a.total_run_ns,
            b.total_run_ns,
            a.total_run_ns.abs_diff(b.total_run_ns),
        ));
    }
    if a.total_wait_ns != b.total_wait_ns {
        return Err(format!(
            "waiting-time integral diverged: {a_name}={} ns, {b_name}={} ns (Δ {})",
            a.total_wait_ns,
            b.total_wait_ns,
            a.total_wait_ns.abs_diff(b.total_wait_ns),
        ));
    }
    Ok(())
}

/// Runs [`check_pair`] over `cfg.cases` generated scenarios and, on
/// divergence, shrinks the scenario to a minimal reproducer instead of
/// panicking. `None` means every case agreed.
pub fn minimize_pair<A: Policy, B: Policy>(
    cfg: Config,
    max_ops: usize,
) -> Option<Counterexample<Scenario>> {
    find_minimal(cfg, &scenario_gen(max_ops), |sc| check_pair::<A, B>(sc))
}

/// [`minimize_pair`] over attack-shaped streams
/// ([`adversarial_scenario_gen`]): the conservation laws must survive
/// tenants that compose their ops adversarially, not just benign mixes.
pub fn minimize_pair_adversarial<A: Policy, B: Policy>(
    cfg: Config,
    max_ops: usize,
) -> Option<Counterexample<Scenario>> {
    find_minimal(cfg, &adversarial_scenario_gen(max_ops), |sc| {
        check_pair::<A, B>(sc)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xen_sched::{Credit, Credit2, CreditScheduler, DynFrac};

    fn smoke(ops: &[Op]) -> Scenario {
        Scenario {
            n_pcpus: 2,
            domains: vec![(256, 2), (512, 2)],
            ops: ops.to_vec(),
        }
    }

    #[test]
    fn replay_accumulates_run_time_on_all_backends() {
        let sc = smoke(&[
            Op::Wake(0),
            Op::Wake(1),
            Op::Wake(2),
            Op::Tick(0),
            Op::Tick(1),
            Op::Acct,
            Op::Tick(0),
            Op::Tick(1),
        ]);
        let c = replay::<Credit>(&sc).unwrap();
        let c2 = replay::<Credit2>(&sc).unwrap();
        let df = replay::<DynFrac>(&sc).unwrap();
        assert!(c.total_run_ns > 0);
        assert_eq!(c.total_run_ns, c2.total_run_ns);
        assert_eq!(c.total_run_ns, df.total_run_ns);
    }

    #[test]
    fn frozen_vcpu_never_runs_in_any_backend() {
        // Freeze vCPU 1, then try to run everything for a while: the
        // replay's structural check rejects a frozen vCPU on a pCPU.
        let sc = smoke(&[
            Op::Wake(0),
            Op::Wake(1),
            Op::Freeze(1),
            Op::Wake(1), // skipped by the harness convention
            Op::Kick(1), // skipped too
            Op::Tick(0),
            Op::Tick(1),
            Op::Acct,
            Op::Unfreeze(1),
            Op::Tick(0),
            Op::Tick(1),
        ]);
        replay::<Credit>(&sc).unwrap();
        replay::<Credit2>(&sc).unwrap();
        replay::<DynFrac>(&sc).unwrap();
    }

    #[test]
    fn generated_scenarios_have_valid_topology() {
        let g = scenario_gen(40);
        let mut src = crate::source::Source::random(9);
        for _ in 0..50 {
            let sc = g.run(&mut src);
            assert!((1..=3).contains(&sc.n_pcpus));
            assert!(!sc.domains.is_empty() && sc.domains.len() <= 3);
            assert!(!sc.ops.is_empty());
            for &(w, nv) in &sc.domains {
                assert!((1..=3).contains(&nv));
                assert!(w == 256 || w == 512 || w == 1024);
            }
        }
    }

    #[test]
    fn attack_shaped_ops_replay_on_all_backends() {
        // One of each composite, against a running pool: the invariants
        // (and the settle flush) must absorb same-instant block/wake
        // pairs, a dodged tick, a domain-wide kick fan-out, and a
        // freeze+unfreeze thrash.
        let sc = smoke(&[
            Op::Wake(0),
            Op::Wake(1),
            Op::Wake(2),
            Op::Tick(0),
            Op::SelfWake(2),
            Op::TickDodge(0),
            Op::StormKick(2),
            Op::FreezeThrash(1),
            Op::Tick(1),
            Op::Acct,
        ]);
        let c = replay::<Credit>(&sc).unwrap();
        let c2 = replay::<Credit2>(&sc).unwrap();
        let df = replay::<DynFrac>(&sc).unwrap();
        assert!(c.total_run_ns > 0);
        assert_eq!(c.total_run_ns, c2.total_run_ns);
        assert_eq!(c.total_run_ns, df.total_run_ns);
    }

    #[test]
    fn adversarial_generator_emits_attack_shapes() {
        let g = adversarial_scenario_gen(60);
        let mut src = crate::source::Source::random(11);
        let mut shaped = 0usize;
        for _ in 0..50 {
            let sc = g.run(&mut src);
            assert!((1..=3).contains(&sc.n_pcpus));
            assert!(!sc.ops.is_empty());
            shaped += sc
                .ops
                .iter()
                .filter(|op| {
                    matches!(
                        op,
                        Op::SelfWake(_) | Op::TickDodge(_) | Op::StormKick(_) | Op::FreezeThrash(_)
                    )
                })
                .count();
        }
        // 8 of 14 generator arms are attack shapes; across 50 streams the
        // composites must dominate, not merely appear.
        assert!(shaped > 50, "only {shaped} attack-shaped ops in 50 streams");
    }

    /// A deliberately broken interpreter: [`apply`] on the credit pool,
    /// except that the guest block of a frozen vCPU is lost — the classic
    /// vScale implementation bug where the hypervisor-side accounting half
    /// of Algorithm 2 lands but the guest-side block does not, so a frozen
    /// vCPU keeps holding its pCPU. It breaks the ops [`scenario_gen`]
    /// draws; the attack composites pass through unbroken.
    ///
    /// This is a known-divergence fixture for the shrinker: any scenario
    /// that freezes a running vCPU trips the "frozen vCPU is running"
    /// structural check, and the minimal reproducer is two ops (wake it,
    /// freeze it).
    fn apply_broken_freeze(
        s: &mut CreditScheduler,
        vcpus: &[GlobalVcpu],
        op: Op,
        now: SimTime,
        events: &mut Vec<SchedEvent>,
    ) {
        let gv = |sel: u8| vcpus[sel as usize % vcpus.len()];
        match op {
            // THE BUG: a frozen vCPU's block is dropped on the floor.
            Op::Freeze(v) => s.set_frozen(gv(v), true),
            Op::Block(v) if s.is_frozen(gv(v)) => {}
            _ => apply(s, vcpus, op, now, events),
        }
    }

    #[test]
    fn broken_freeze_fixture_diverges_and_shrinks_small() {
        let cfg = Config {
            cases: 64,
            seed: 0xBAD_F00D,
            max_shrink_iters: 4096,
        };
        // The credit pool against its broken twin, as `check_pair` does.
        let minimize = || {
            find_minimal(cfg.clone(), &scenario_gen(80), |sc| {
                conserved(
                    (Credit::NAME, replay::<Credit>(sc)?),
                    (
                        "broken-freeze",
                        replay_with(sc, "broken-freeze", apply_broken_freeze)?,
                    ),
                )
            })
            .expect("the broken-freeze fixture must diverge")
        };
        let found = minimize();
        assert!(
            found.error.contains("frozen"),
            "unexpected divergence: {}",
            found.error
        );
        // The minimal reproducer is wake-then-freeze of one vCPU; allow
        // the shrinker some slack but demand a genuinely small stream.
        assert!(
            found.value.ops.len() <= 10,
            "shrinker stalled at {} ops: {:?}",
            found.value.ops.len(),
            found.value.ops
        );
        assert!(found.value.ops.iter().any(|op| matches!(op, Op::Freeze(_))));
        // Shrinking is deterministic: same seed, same minimal scenario.
        let again = minimize();
        assert_eq!(found.value.ops, again.value.ops);
        assert_eq!(found.value.n_pcpus, again.value.n_pcpus);
        assert_eq!(found.value.domains, again.value.domains);
        assert_eq!(found.case, again.case);
    }

    #[test]
    fn pairwise_agreement_over_generated_streams() {
        let cfg = Config {
            cases: 32,
            seed: 0xD1FF,
            max_shrink_iters: 512,
        };
        assert!(
            minimize_pair::<Credit, Credit2>(cfg.clone(), 60).is_none(),
            "credit vs credit2 diverged"
        );
        assert!(
            minimize_pair::<Credit, DynFrac>(cfg, 60).is_none(),
            "credit vs dynfrac diverged"
        );
    }
}
