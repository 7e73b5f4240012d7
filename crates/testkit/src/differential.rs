//! Cross-backend differential testing for [`HypervisorSched`] policies.
//!
//! The vScale machine drives its scheduler through a narrow event-driven
//! contract (see `xen_sched::api`). This module checks that contract two
//! ways:
//!
//! 1. **Per-backend invariants** — [`replay`] drives one backend through a
//!    seeded [`Scenario`] (a Gen-produced op stream of ticks, wakes,
//!    sleeps, yields, kicks and freezes) and checks structural sanity
//!    after *every* op: one vCPU per pCPU, states agreeing with
//!    occupancy, monotone run/wait totals, no frozen vCPU running, and
//!    work conservation (no idle pCPU while unfrozen runnable work
//!    waits).
//! 2. **Shared conservation laws** — [`check_pair`] replays the same
//!    scenario on two backends and compares the quantities every
//!    work-conserving policy must agree on: with an identical runnable
//!    trajectory (the harness drives wakes/blocks open-loop), the number
//!    of busy pCPUs at any instant is `min(runnable, n_pcpus)` for both,
//!    so the machine-wide run-time integral must be *equal*, and bounded
//!    by pCPU capacity. Per-domain splits legitimately differ between
//!    policies and are not compared.
//!
//! # The freeze convention
//!
//! The paper's Algorithm 2 splits freezing a vCPU into a hypervisor-side
//! accounting change ([`HypervisorSched::set_frozen`]) and a guest-side
//! block. The harness applies both halves atomically — [`Op::Freeze`] is
//! `set_frozen(true)` + `vcpu_block`, [`Op::Unfreeze`] is
//! `set_frozen(false)` + `vcpu_wake` — and never wakes or kicks a frozen
//! vCPU. Under that discipline "no frozen vCPU ever runs" is a checkable
//! invariant rather than merely an eventual property.
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
use xen_sched::{DomSchedExport, HypervisorSched};

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
const OP_STEP: SimDuration = SimDuration::from_us(500);

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
    /// Simulated time at the end of the replay.
    pub end: SimTime,
    /// Cross-pCPU migrations the policy performed (informational).
    pub migrations: u64,
}

/// Flat list of the scenario's vCPUs, in (dom, vcpu) order. Selector
/// bytes index this list modulo its length.
fn vcpu_table(domains: &[(u32, usize)]) -> Vec<GlobalVcpu> {
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
fn check_structure<S: HypervisorSched>(s: &S, vcpus: &[GlobalVcpu]) -> Result<(), String> {
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

/// Work conservation: no pCPU may idle while an unfrozen vCPU waits
/// runnable. All three shipped backends place wakes on idle pCPUs and
/// steal on reschedule, so this holds after every op, not just at
/// accounting boundaries.
fn check_work_conserving<S: HypervisorSched>(s: &S, vcpus: &[GlobalVcpu]) -> Result<(), String> {
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

/// Drives `S` through `scenario`, checking per-backend invariants after
/// every op, and returns the conserved quantities. The op stream is
/// normalized exactly as documented on [`Op`] (selectors resolved modulo
/// topology; wakes/kicks of frozen vCPUs skipped), so two backends
/// replaying the same scenario see byte-identical call sequences.
pub fn replay<S: HypervisorSched>(scenario: &Scenario) -> Result<Replay, String> {
    let vcpus = vcpu_table(&scenario.domains);
    let mut s = S::new_pool(CreditConfig::default(), scenario.n_pcpus);
    for &(weight, nv) in &scenario.domains {
        // No caps or reservations: the cross-backend run-time equality
        // law only holds for uncapped (purely work-conserving) pools.
        s.create_domain(weight, nv, None, None);
    }
    let mut now = SimTime::ZERO;
    let mut events = Vec::new();
    let mut prev_run = SimDuration::ZERO;
    let mut prev_wait = SimDuration::ZERO;
    let name = S::backend_name();
    for (i, &op) in scenario.ops.iter().enumerate() {
        now += OP_STEP;
        events.clear();
        let gv = |sel: u8| vcpus[sel as usize % vcpus.len()];
        let pc = |sel: u8| PcpuId(sel as usize % scenario.n_pcpus);
        match op {
            Op::Tick(p) => s.on_tick(pc(p), now, &mut events),
            Op::Acct => s.on_acct(now, &mut events),
            Op::Slice(p) => s.slice_expired(pc(p), now, &mut events),
            Op::ExtendTick => s.on_extend_tick(now),
            Op::Wake(v) => {
                if !s.is_frozen(gv(v)) {
                    s.vcpu_wake(gv(v), now, &mut events);
                }
            }
            Op::Block(v) => s.vcpu_block(gv(v), now, &mut events),
            Op::Yield(v) => s.vcpu_yield(gv(v), now, &mut events),
            Op::Kick(v) => {
                if !s.is_frozen(gv(v)) {
                    s.kick_vcpu(gv(v), now, &mut events);
                }
            }
            Op::Freeze(v) => {
                s.set_frozen(gv(v), true);
                s.vcpu_block(gv(v), now, &mut events);
            }
            Op::Unfreeze(v) => {
                s.set_frozen(gv(v), false);
                s.vcpu_wake(gv(v), now, &mut events);
            }
            Op::SelfWake(v) => {
                if !s.is_frozen(gv(v)) {
                    s.vcpu_block(gv(v), now, &mut events);
                    s.vcpu_wake(gv(v), now, &mut events);
                }
            }
            Op::TickDodge(v) => {
                if !s.is_frozen(gv(v)) {
                    let dodged = s.where_running(gv(v));
                    s.vcpu_block(gv(v), now, &mut events);
                    if let Some(p) = dodged {
                        s.on_tick(p, now, &mut events);
                    }
                    s.vcpu_wake(gv(v), now, &mut events);
                }
            }
            Op::StormKick(v) => {
                let dom = gv(v).dom;
                for &target in vcpus.iter().filter(|t| t.dom == dom) {
                    if !s.is_frozen(target) {
                        s.kick_vcpu(target, now, &mut events);
                    }
                }
            }
            Op::FreezeThrash(v) => {
                s.set_frozen(gv(v), true);
                s.vcpu_block(gv(v), now, &mut events);
                s.set_frozen(gv(v), false);
                s.vcpu_wake(gv(v), now, &mut events);
            }
        }
        let ctx = |e: String| format!("[{name}] op {i} ({op:?}): {e}");
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
    Ok(Replay {
        total_run_ns: s.total_run_ns(),
        end: now,
        migrations: s.migrations(),
    })
}

/// Replays `scenario` on backends `A` and `B` and checks the shared
/// conservation laws (see the module docs). `Err` carries a
/// human-readable divergence report.
pub fn check_pair<A: HypervisorSched, B: HypervisorSched>(
    scenario: &Scenario,
) -> Result<(), String> {
    let a = replay::<A>(scenario)?;
    let b = replay::<B>(scenario)?;
    if a.total_run_ns != b.total_run_ns {
        return Err(format!(
            "run-time integral diverged: {}={} ns, {}={} ns (Δ {})",
            A::backend_name(),
            a.total_run_ns,
            B::backend_name(),
            b.total_run_ns,
            a.total_run_ns.abs_diff(b.total_run_ns),
        ));
    }
    Ok(())
}

/// Runs [`check_pair`] over `cfg.cases` generated scenarios and, on
/// divergence, shrinks the scenario to a minimal reproducer instead of
/// panicking. `None` means every case agreed.
pub fn minimize_pair<A: HypervisorSched, B: HypervisorSched>(
    cfg: Config,
    max_ops: usize,
) -> Option<Counterexample<Scenario>> {
    find_minimal(cfg, &scenario_gen(max_ops), |sc| check_pair::<A, B>(sc))
}

/// [`minimize_pair`] over attack-shaped streams
/// ([`adversarial_scenario_gen`]): the conservation laws must survive
/// tenants that compose their ops adversarially, not just benign mixes.
pub fn minimize_pair_adversarial<A: HypervisorSched, B: HypervisorSched>(
    cfg: Config,
    max_ops: usize,
) -> Option<Counterexample<Scenario>> {
    find_minimal(cfg, &adversarial_scenario_gen(max_ops), |sc| {
        check_pair::<A, B>(sc)
    })
}

/// A deliberately broken backend: a
/// [`CreditScheduler`](xen_sched::CreditScheduler) whose `vcpu_block`
/// *ignores* blocks of frozen vCPUs — the classic vScale
/// implementation bug where the hypervisor-side accounting half of
/// Algorithm 2 lands but the guest-side block is lost, so a frozen vCPU
/// keeps holding its pCPU.
///
/// This is a known-divergence fixture for the shrinker: any scenario that
/// freezes a running vCPU trips the "frozen vCPU is running" structural
/// check, and the minimal reproducer is two ops (wake it, freeze it).
/// `tests/differential.rs` asserts the shrinker actually converges there.
pub struct BrokenFreezeScheduler(xen_sched::CreditScheduler);

sim_core::snap_struct!(BrokenFreezeScheduler(inner));

impl HypervisorSched for BrokenFreezeScheduler {
    fn new_pool(config: CreditConfig, n_pcpus: usize) -> Self {
        BrokenFreezeScheduler(xen_sched::CreditScheduler::new_pool(config, n_pcpus))
    }

    fn backend_name() -> &'static str {
        "broken-freeze"
    }

    fn vcpu_block(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        // THE BUG: a frozen vCPU's block is dropped on the floor.
        if self.0.is_frozen(gv) {
            return;
        }
        self.0.vcpu_block(gv, now, events)
    }

    fn n_pcpus(&self) -> usize {
        self.0.n_pcpus()
    }
    fn n_domains(&self) -> usize {
        self.0.n_domains()
    }
    fn create_domain(
        &mut self,
        weight: u32,
        n_vcpus: usize,
        cap_pcpus: Option<f64>,
        reservation_pcpus: Option<f64>,
    ) -> DomId {
        self.0
            .create_domain(weight, n_vcpus, cap_pcpus, reservation_pcpus)
    }
    fn n_vcpus(&self, dom: DomId) -> usize {
        HypervisorSched::n_vcpus(&self.0, dom)
    }
    fn on_tick(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.0.on_tick(pcpu, now, events)
    }
    fn on_acct(&mut self, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.0.on_acct(now, events)
    }
    fn on_extend_tick(&mut self, now: SimTime) {
        self.0.on_extend_tick(now)
    }
    fn slice_expired(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.0.slice_expired(pcpu, now, events)
    }
    fn vcpu_wake(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.0.vcpu_wake(gv, now, events)
    }
    fn vcpu_yield(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.0.vcpu_yield(gv, now, events)
    }
    fn kick_vcpu(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.0.kick_vcpu(gv, now, events)
    }
    fn set_frozen(&mut self, gv: GlobalVcpu, frozen: bool) {
        self.0.set_frozen(gv, frozen)
    }
    fn is_frozen(&self, gv: GlobalVcpu) -> bool {
        self.0.is_frozen(gv)
    }
    fn running_on(&self, pcpu: PcpuId) -> Option<GlobalVcpu> {
        self.0.running_on(pcpu)
    }
    fn where_running(&self, gv: GlobalVcpu) -> Option<PcpuId> {
        self.0.where_running(gv)
    }
    fn vcpu_state(&self, gv: GlobalVcpu) -> VcpuState {
        self.0.vcpu_state(gv)
    }
    fn pcpu_gen(&self, pcpu: PcpuId) -> u64 {
        self.0.pcpu_gen(pcpu)
    }
    fn domain_wait_total(&self, dom: DomId) -> SimDuration {
        self.0.domain_wait_total(dom)
    }
    fn domain_run_total(&self, dom: DomId) -> SimDuration {
        self.0.domain_run_total(dom)
    }
    fn vcpu_wait_total(&self, gv: GlobalVcpu) -> SimDuration {
        self.0.vcpu_wait_total(gv)
    }
    fn vcpu_run_total(&self, gv: GlobalVcpu) -> SimDuration {
        self.0.vcpu_run_total(gv)
    }
    fn total_run_ns(&self) -> u64 {
        self.0.total_run_ns()
    }
    fn migrations(&self) -> u64 {
        HypervisorSched::migrations(&self.0)
    }
    fn switches(&self, pcpu: PcpuId) -> u64 {
        self.0.switches(pcpu)
    }
    fn scheduled_count(&self, gv: GlobalVcpu) -> u64 {
        self.0.scheduled_count(gv)
    }
    fn extendability(&self, dom: DomId) -> xen_sched::ExtendInfo {
        self.0.extendability(dom)
    }
    fn extend_version(&self) -> u64 {
        self.0.extend_version()
    }
    fn export_domain(&self, dom: DomId) -> DomSchedExport {
        self.0.export_domain(dom)
    }
    fn import_domain(
        &mut self,
        dom: DomId,
        export: &DomSchedExport,
        now: SimTime,
        events: &mut Vec<SchedEvent>,
    ) {
        self.0.import_domain(dom, export, now, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xen_sched::{Credit2Scheduler, CreditScheduler, DynFracScheduler};

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
        let c = replay::<CreditScheduler>(&sc).unwrap();
        let c2 = replay::<Credit2Scheduler>(&sc).unwrap();
        let df = replay::<DynFracScheduler>(&sc).unwrap();
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
        replay::<CreditScheduler>(&sc).unwrap();
        replay::<Credit2Scheduler>(&sc).unwrap();
        replay::<DynFracScheduler>(&sc).unwrap();
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
        let c = replay::<CreditScheduler>(&sc).unwrap();
        let c2 = replay::<Credit2Scheduler>(&sc).unwrap();
        let df = replay::<DynFracScheduler>(&sc).unwrap();
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

    #[test]
    fn broken_freeze_fixture_diverges_and_shrinks_small() {
        let cfg = Config {
            cases: 64,
            seed: 0xBAD_F00D,
            max_shrink_iters: 4096,
        };
        let minimize = || {
            minimize_pair::<CreditScheduler, BrokenFreezeScheduler>(cfg.clone(), 80)
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
            minimize_pair::<CreditScheduler, Credit2Scheduler>(cfg.clone(), 60).is_none(),
            "credit vs credit2 diverged"
        );
        assert!(
            minimize_pair::<CreditScheduler, DynFracScheduler>(cfg, 60).is_none(),
            "credit vs dynfrac diverged"
        );
    }
}
