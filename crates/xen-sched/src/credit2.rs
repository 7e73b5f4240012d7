//! A Credit2-style scheduler backend.
//!
//! Xen's Credit2 (the default since Xen 4.8) replaced the three fixed
//! priority bands of the credit scheduler with a single credit-ordered
//! runqueue per pCPU, bulk *credit-reset epochs* instead of per-30 ms
//! redistribution, and weight-scaled burn rates. This backend models that
//! shape behind [`HypervisorSched`]:
//!
//! - **Per-pCPU runqueues ordered by credit**: pick-next takes the
//!   queued vCPU with the most credits (FIFO among ties, so replay is
//!   deterministic).
//! - **Weight-scaled burn**: a vCPU burns credits at `256/weight` of
//!   wall rate, so a weight-512 vCPU outlasts a weight-128 one 4:1 on
//!   the same runqueue — proportional share emerges from burn rates,
//!   not periodic redistribution.
//! - **Credit-reset epochs**: when the best runnable candidate is out of
//!   credits, every vCPU in the pool is shifted so the candidate is back
//!   at the initial grant — relative order (and thus fairness memory)
//!   is preserved, and the epoch counter bumps.
//! - **Load-balancing migration**: the accounting epoch levels runqueue
//!   lengths by migrating queued vCPUs from the longest to the shortest
//!   queue; idle pCPUs also steal on demand, so the policy is
//!   work-conserving like the other backends.
//!
//! Caps and reservations bound extendability (Algorithm 1) exactly as in
//! the credit backend, but this model does not park capped domains — the
//! cap is advisory to the balancer, not enforced by parking. Freezing
//! follows the vScale §4.2 split: [`Credit2Scheduler::set_frozen`] only
//! changes accounting (a frozen vCPU stops counting toward the domain's
//! active share), while the guest blocks the vCPU separately.

use std::collections::VecDeque;

use sim_core::ids::{DomId, GlobalVcpu, PcpuId, VcpuId};
use sim_core::soa::VcpuMap;
use sim_core::time::{SimDuration, SimTime};

use crate::api::{DomSchedExport, HypervisorSched, VcpuSchedExport};
use crate::credit::{CreditConfig, PoolDomain, SchedEvent, VcpuState, VcpuStats};
use crate::extend::{ExtendInfo, ExtendParams};

/// Initial credit grant (and the reset target): 10 ms of wall time at
/// the reference weight.
const CREDIT_INIT_NS: i64 = 10_000_000;
/// Reference weight: a vCPU of this weight burns credits at wall rate.
const WEIGHT_REF: u64 = 256;
/// A waking/waiting vCPU preempts only when it leads the running one by
/// at least this many credits, bounding context-switch churn.
const PREEMPT_GRAIN_NS: i64 = 500_000;
/// Credit penalty for a voluntary yield, so yield loops make progress.
const YIELD_BIAS_NS: i64 = 100_000;

/// Tick-hot per-vCPU state, dense in a [`VcpuMap`]; cold lifetime stats
/// live in the parallel [`VcpuStats`] map.
#[derive(Clone, Debug)]
struct Vcpu2 {
    state: VcpuState,
    credits_ns: i64,
    last_pcpu: PcpuId,
    frozen: bool,
    burn_from: SimTime,
}

sim_core::snap_struct!(Vcpu2 {
    state,
    credits_ns,
    last_pcpu,
    frozen,
    burn_from,
});

#[derive(Clone, Debug, Default)]
struct Pcpu2 {
    /// Runnable vCPUs homed here; pick-next scans for max credit, FIFO
    /// among ties.
    runq: VecDeque<GlobalVcpu>,
    current: Option<GlobalVcpu>,
    run_since: SimTime,
    gen: u64,
    switches: u64,
}

sim_core::snap_struct!(Pcpu2 {
    runq,
    current,
    run_since,
    gen,
    switches,
});

/// The Credit2-style scheduler: see the module docs for the policy.
pub struct Credit2Scheduler {
    config: CreditConfig,
    pcpus: Vec<Pcpu2>,
    domains: Vec<PoolDomain>,
    /// Tick-hot per-vCPU state, dense in `(domain, vcpu)` order.
    hot: VcpuMap<Vcpu2>,
    /// Cold per-vCPU lifetime stats, parallel to `hot`.
    stats: VcpuMap<VcpuStats>,
    /// Credit-reset epochs performed so far.
    reset_epochs: u64,
    migrations: u64,
    total_run_ns: u64,
    extend_window_start: SimTime,
    extend_version: u64,
    params_buf: Vec<ExtendParams>,
    infos_buf: Vec<ExtendInfo>,
}

sim_core::snap_struct!(Credit2Scheduler "credit2" {
    pcpus: twin "pCPU count drifted",
    domains: twin "domain count drifted",
    hot,
    stats,
    reset_epochs,
    migrations,
    total_run_ns,
    extend_window_start,
    extend_version,
} skip { config, params_buf, infos_buf });

impl Credit2Scheduler {
    /// Creates a scheduler managing `n_pcpus` physical CPUs.
    pub fn new(config: CreditConfig, n_pcpus: usize) -> Self {
        assert!(n_pcpus > 0, "a CPU pool needs at least one pCPU");
        Credit2Scheduler {
            config,
            pcpus: (0..n_pcpus).map(|_| Pcpu2::default()).collect(),
            domains: Vec::new(),
            hot: VcpuMap::new(),
            stats: VcpuMap::new(),
            reset_epochs: 0,
            migrations: 0,
            total_run_ns: 0,
            extend_window_start: SimTime::ZERO,
            extend_version: 0,
            params_buf: Vec::new(),
            infos_buf: Vec::new(),
        }
    }

    /// The shared timing configuration this backend was built from.
    pub fn config(&self) -> &CreditConfig {
        &self.config
    }

    /// Credit-reset epochs performed so far (a Credit2-specific stat).
    pub fn reset_epochs(&self) -> u64 {
        self.reset_epochs
    }

    /// Current credits of `gv` (for tests).
    pub fn credits_ns(&self, gv: GlobalVcpu) -> i64 {
        self.vcpu(gv).credits_ns
    }

    #[inline]
    fn vcpu(&self, gv: GlobalVcpu) -> &Vcpu2 {
        &self.hot[gv]
    }

    #[inline]
    fn vcpu_mut(&mut self, gv: GlobalVcpu) -> &mut Vcpu2 {
        &mut self.hot[gv]
    }

    /// Burns credits of the vCPU running on `pcpu` at `256/weight` of
    /// wall rate since the last burn point.
    fn burn(&mut self, pcpu: PcpuId, now: SimTime) {
        let Some(gv) = self.pcpus[pcpu.index()].current else {
            return;
        };
        let weight = u64::from(self.domains[gv.dom.index()].weight.max(1));
        let v = &mut self.hot[gv];
        let ran = now.since(v.burn_from);
        if ran.is_zero() {
            return;
        }
        v.burn_from = now;
        let burned = (ran.as_ns() * WEIGHT_REF / weight) as i64;
        v.credits_ns -= burned;
        self.stats[gv].run_total += ran;
        let dom = &mut self.domains[gv.dom.index()];
        dom.consumed_extend += ran;
        self.total_run_ns += ran.as_ns();
    }

    /// Index (within `runq`) of the best candidate: max credits, FIFO
    /// among ties.
    fn best_in(&self, pcpu: PcpuId) -> Option<usize> {
        let q = &self.pcpus[pcpu.index()].runq;
        let mut best: Option<(usize, i64)> = None;
        for (i, &gv) in q.iter().enumerate() {
            let c = self.vcpu(gv).credits_ns;
            if best.map(|(_, bc)| c > bc).unwrap_or(true) {
                best = Some((i, c));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Shifts every vCPU's credits so `anchor` is back at the initial
    /// grant; relative order is preserved.
    fn credit_reset(&mut self, anchor: GlobalVcpu) {
        let shift = CREDIT_INIT_NS - self.vcpu(anchor).credits_ns;
        for v in self.hot.values_mut() {
            v.credits_ns += shift;
        }
        self.reset_epochs += 1;
    }

    fn place(&mut self, gv: GlobalVcpu, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        debug_assert!(self.pcpus[pcpu.index()].current.is_none());
        if let VcpuState::Runnable { since, .. } = self.vcpu(gv).state {
            let waited = now.since(since);
            self.stats[gv].wait_total += waited;
        }
        if self.vcpu(gv).last_pcpu != pcpu {
            self.migrations += 1;
        }
        {
            let v = self.vcpu_mut(gv);
            v.state = VcpuState::Running { pcpu, since: now };
            v.last_pcpu = pcpu;
            v.burn_from = now;
        }
        self.stats[gv].scheduled_count += 1;
        let p = &mut self.pcpus[pcpu.index()];
        p.current = Some(gv);
        p.run_since = now;
        p.gen += 1;
        p.switches += 1;
        events.push(SchedEvent::Run { pcpu, vcpu: gv });
    }

    /// Removes the running vCPU from `pcpu` (burning first). If
    /// `requeue`, it goes back to this pCPU's runqueue; otherwise the
    /// caller sets its state.
    fn deschedule_current(
        &mut self,
        pcpu: PcpuId,
        now: SimTime,
        requeue: bool,
        events: &mut Vec<SchedEvent>,
    ) -> Option<GlobalVcpu> {
        self.burn(pcpu, now);
        let p = &mut self.pcpus[pcpu.index()];
        let gv = p.current.take()?;
        p.gen += 1;
        events.push(SchedEvent::Desched { pcpu, vcpu: gv });
        if requeue {
            self.vcpu_mut(gv).state = VcpuState::Runnable { pcpu, since: now };
            self.pcpus[pcpu.index()].runq.push_back(gv);
        }
        Some(gv)
    }

    /// Fills an empty `pcpu`: best local candidate, else steal from the
    /// longest peer runqueue, else idle. Performs a credit-reset epoch
    /// when the winning candidate is out of credits.
    fn reschedule(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        if self.pcpus[pcpu.index()].current.is_some() {
            return;
        }
        let local = self.best_in(pcpu).map(|i| (pcpu, i));
        let found = local.or_else(|| {
            // Steal from the peer with the longest runqueue.
            let victim = self
                .pcpus
                .iter()
                .enumerate()
                .filter(|(i, p)| PcpuId(*i) != pcpu && !p.runq.is_empty())
                .max_by_key(|(i, p)| (p.runq.len(), usize::MAX - *i))
                .map(|(i, _)| PcpuId(i))?;
            self.best_in(victim).map(|i| (victim, i))
        });
        let Some((home, idx)) = found else {
            events.push(SchedEvent::Idle { pcpu });
            return;
        };
        let gv = self.pcpus[home.index()].runq.remove(idx).expect("indexed");
        if self.vcpu(gv).credits_ns <= 0 {
            self.credit_reset(gv);
        }
        self.place(gv, pcpu, now, events);
    }

    /// Preempts `pcpu` if a queued local vCPU leads the running one by
    /// the preemption grain.
    fn maybe_preempt(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        let Some(cur) = self.pcpus[pcpu.index()].current else {
            self.reschedule(pcpu, now, events);
            return;
        };
        let Some(best) = self.best_in(pcpu) else {
            return;
        };
        let challenger = self.pcpus[pcpu.index()].runq[best];
        if self.vcpu(challenger).credits_ns > self.vcpu(cur).credits_ns + PREEMPT_GRAIN_NS {
            self.deschedule_current(pcpu, now, true, events);
            self.reschedule(pcpu, now, events);
        }
    }

    /// The pCPU `gv` would prefer on wake: an idle pCPU (its last one if
    /// idle, else the lowest-index idle one), falling back to its last.
    fn wake_target(&self, gv: GlobalVcpu) -> PcpuId {
        let last = self.vcpu(gv).last_pcpu;
        if self.pcpus[last.index()].current.is_none() {
            return last;
        }
        (0..self.pcpus.len())
            .map(PcpuId)
            .find(|p| self.pcpus[p.index()].current.is_none())
            .unwrap_or(last)
    }
}

impl HypervisorSched for Credit2Scheduler {
    fn new_pool(config: CreditConfig, n_pcpus: usize) -> Self {
        Credit2Scheduler::new(config, n_pcpus)
    }

    fn backend_name() -> &'static str {
        "credit2"
    }

    fn export_domain(&self, dom: DomId) -> DomSchedExport {
        DomSchedExport {
            vcpus: self
                .hot
                .domain(dom)
                .iter()
                .map(|v| VcpuSchedExport {
                    frozen: v.frozen,
                    runnable: !matches!(v.state, VcpuState::Blocked { .. }),
                    credit: v.credits_ns,
                })
                .collect(),
        }
    }

    fn import_domain(
        &mut self,
        dom: DomId,
        export: &DomSchedExport,
        now: SimTime,
        events: &mut Vec<SchedEvent>,
    ) {
        assert_eq!(
            export.vcpus.len(),
            self.hot.n_vcpus(dom),
            "vCPU count mismatch on import"
        );
        for (i, vx) in export.vcpus.iter().enumerate() {
            let gv = GlobalVcpu::new(dom, VcpuId(i));
            self.hot[gv].credits_ns = vx.credit;
            if vx.runnable && matches!(self.hot[gv].state, VcpuState::Blocked { .. }) {
                self.vcpu_wake(gv, now, events);
            }
            self.hot[gv].frozen = vx.frozen;
        }
    }

    fn n_pcpus(&self) -> usize {
        self.pcpus.len()
    }

    fn n_domains(&self) -> usize {
        self.domains.len()
    }

    fn create_domain(
        &mut self,
        weight: u32,
        n_vcpus: usize,
        cap_pcpus: Option<f64>,
        reservation_pcpus: Option<f64>,
    ) -> DomId {
        assert!(weight > 0, "domain weight must be positive");
        assert!(n_vcpus > 0, "a domain needs at least one vCPU");
        let id = DomId(self.domains.len());
        let n_pcpus = self.pcpus.len();
        let hot_id = self.hot.push_domain(n_vcpus, |v| Vcpu2 {
            state: VcpuState::Blocked {
                since: SimTime::ZERO,
            },
            credits_ns: CREDIT_INIT_NS,
            last_pcpu: PcpuId(v.index() % n_pcpus),
            frozen: false,
            burn_from: SimTime::ZERO,
        });
        let stats_id = self.stats.push_domain(n_vcpus, |_| VcpuStats::default());
        debug_assert_eq!((hot_id, stats_id), (id, id));
        self.domains.push(PoolDomain::new(
            weight,
            n_vcpus,
            cap_pcpus,
            reservation_pcpus,
        ));
        id
    }

    fn n_vcpus(&self, dom: DomId) -> usize {
        self.hot.n_vcpus(dom)
    }

    fn on_tick(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.burn(pcpu, now);
        self.maybe_preempt(pcpu, now, events);
    }

    fn on_acct(&mut self, now: SimTime, events: &mut Vec<SchedEvent>) {
        for p in 0..self.pcpus.len() {
            self.burn(PcpuId(p), now);
        }
        // Level runqueue lengths: migrate the tail of the longest queue
        // to the shortest until they differ by at most one.
        loop {
            let (mut longest, mut shortest) = (PcpuId(0), PcpuId(0));
            for i in 0..self.pcpus.len() {
                if self.pcpus[i].runq.len() > self.pcpus[longest.index()].runq.len() {
                    longest = PcpuId(i);
                }
                if self.pcpus[i].runq.len() < self.pcpus[shortest.index()].runq.len() {
                    shortest = PcpuId(i);
                }
            }
            let diff =
                self.pcpus[longest.index()].runq.len() - self.pcpus[shortest.index()].runq.len();
            if diff < 2 {
                break;
            }
            let gv = self.pcpus[longest.index()].runq.pop_back().expect("len>=2");
            if let VcpuState::Runnable { since, .. } = self.vcpu(gv).state {
                self.vcpu_mut(gv).state = VcpuState::Runnable {
                    pcpu: shortest,
                    since,
                };
            }
            self.vcpu_mut(gv).last_pcpu = shortest;
            self.pcpus[shortest.index()].runq.push_back(gv);
            self.migrations += 1;
        }
        // Fill any pCPU the balance pass left idle next to queued work.
        for p in 0..self.pcpus.len() {
            if self.pcpus[p].current.is_none() {
                self.reschedule(PcpuId(p), now, events);
            }
        }
    }

    fn on_extend_tick(&mut self, now: SimTime) {
        for p in 0..self.pcpus.len() {
            self.burn(PcpuId(p), now);
        }
        let window = now.since(self.extend_window_start);
        self.extend_window_start = now;
        if window.is_zero() {
            return;
        }
        let mut params = std::mem::take(&mut self.params_buf);
        let mut infos = std::mem::take(&mut self.infos_buf);
        params.clear();
        params.extend(self.domains.iter().enumerate().map(|(di, d)| ExtendParams {
            weight: d.weight,
            consumed: d.consumed_extend,
            cap_pcpus: d.cap_pcpus,
            reservation_pcpus: d.reservation_pcpus,
            n_vcpus: self.hot.n_vcpus(DomId(di)),
        }));
        crate::extend::compute_extendability_into(
            &params,
            self.pcpus.len(),
            window,
            now,
            &mut infos,
        );
        self.params_buf = params;
        for (d, info) in self.domains.iter_mut().zip(&infos) {
            d.consumed_extend = SimDuration::ZERO;
            d.extend = *info;
        }
        self.infos_buf = infos;
        self.extend_version += 1;
    }

    fn slice_expired(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        if self.pcpus[pcpu.index()].current.is_some() {
            self.deschedule_current(pcpu, now, true, events);
        }
        self.reschedule(pcpu, now, events);
    }

    fn vcpu_wake(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        if !matches!(self.vcpu(gv).state, VcpuState::Blocked { .. }) {
            return;
        }
        let target = self.wake_target(gv);
        self.vcpu_mut(gv).state = VcpuState::Runnable {
            pcpu: target,
            since: now,
        };
        self.pcpus[target.index()].runq.push_back(gv);
        if self.pcpus[target.index()].current.is_none() {
            self.reschedule(target, now, events);
        } else {
            self.maybe_preempt(target, now, events);
        }
    }

    fn vcpu_block(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        match self.vcpu(gv).state {
            VcpuState::Running { pcpu, .. } => {
                self.deschedule_current(pcpu, now, false, events);
                self.vcpu_mut(gv).state = VcpuState::Blocked { since: now };
                self.reschedule(pcpu, now, events);
            }
            VcpuState::Runnable { pcpu, .. } => {
                self.pcpus[pcpu.index()].runq.retain(|&q| q != gv);
                self.vcpu_mut(gv).state = VcpuState::Blocked { since: now };
            }
            VcpuState::Blocked { .. } => {}
        }
    }

    fn vcpu_yield(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        let VcpuState::Running { pcpu, .. } = self.vcpu(gv).state else {
            return;
        };
        self.deschedule_current(pcpu, now, true, events);
        self.vcpu_mut(gv).credits_ns -= YIELD_BIAS_NS;
        self.reschedule(pcpu, now, events);
    }

    fn kick_vcpu(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        if matches!(self.vcpu(gv).state, VcpuState::Blocked { .. }) {
            self.vcpu_wake(gv, now, events);
        }
        // An urgent kick bypasses the preemption grain: if the target is
        // still only queued, evict its home pCPU's current and run it —
        // unless the kick-throttle defense holds the grain line against
        // a freshly placed occupant.
        if let VcpuState::Runnable { pcpu, .. } = self.vcpu(gv).state {
            let p = &self.pcpus[pcpu.index()];
            if self.config.kick_throttle
                && p.current.is_some()
                && now.since(p.run_since) < self.config.ratelimit
            {
                self.domains[gv.dom.index()].kicks_throttled += 1;
                return;
            }
            self.pcpus[pcpu.index()].runq.retain(|&q| q != gv);
            self.deschedule_current(pcpu, now, true, events);
            self.place(gv, pcpu, now, events);
        }
    }

    fn set_frozen(&mut self, gv: GlobalVcpu, frozen: bool) {
        self.vcpu_mut(gv).frozen = frozen;
    }

    fn is_frozen(&self, gv: GlobalVcpu) -> bool {
        self.vcpu(gv).frozen
    }

    fn running_on(&self, pcpu: PcpuId) -> Option<GlobalVcpu> {
        self.pcpus[pcpu.index()].current
    }

    fn where_running(&self, gv: GlobalVcpu) -> Option<PcpuId> {
        match self.vcpu(gv).state {
            VcpuState::Running { pcpu, .. } => Some(pcpu),
            _ => None,
        }
    }

    fn vcpu_state(&self, gv: GlobalVcpu) -> VcpuState {
        self.vcpu(gv).state
    }

    fn pcpu_gen(&self, pcpu: PcpuId) -> u64 {
        self.pcpus[pcpu.index()].gen
    }

    fn domain_wait_total(&self, dom: DomId) -> SimDuration {
        self.stats
            .domain(dom)
            .iter()
            .fold(SimDuration::ZERO, |acc, v| acc.saturating_add(v.wait_total))
    }

    fn domain_run_total(&self, dom: DomId) -> SimDuration {
        self.stats
            .domain(dom)
            .iter()
            .fold(SimDuration::ZERO, |acc, v| acc.saturating_add(v.run_total))
    }

    fn vcpu_wait_total(&self, gv: GlobalVcpu) -> SimDuration {
        self.stats[gv].wait_total
    }

    fn vcpu_run_total(&self, gv: GlobalVcpu) -> SimDuration {
        self.stats[gv].run_total
    }

    fn total_run_ns(&self) -> u64 {
        self.total_run_ns
    }

    fn migrations(&self) -> u64 {
        self.migrations
    }

    fn switches(&self, pcpu: PcpuId) -> u64 {
        self.pcpus[pcpu.index()].switches
    }

    fn scheduled_count(&self, gv: GlobalVcpu) -> u64 {
        self.stats[gv].scheduled_count
    }

    fn extendability(&self, dom: DomId) -> ExtendInfo {
        self.domains[dom.index()].extend
    }

    fn extend_version(&self) -> u64 {
        self.extend_version
    }

    fn kicks_throttled(&self, dom: DomId) -> u64 {
        self.domains[dom.index()].kicks_throttled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::ids::VcpuId;

    fn gv(d: usize, v: usize) -> GlobalVcpu {
        GlobalVcpu::new(DomId(d), VcpuId(v))
    }

    fn collect(f: impl FnOnce(&mut Vec<SchedEvent>)) -> Vec<SchedEvent> {
        let mut ev = Vec::new();
        f(&mut ev);
        ev
    }

    fn sched(n_pcpus: usize) -> Credit2Scheduler {
        Credit2Scheduler::new(CreditConfig::default(), n_pcpus)
    }

    #[test]
    fn wake_places_on_idle_pcpu() {
        let mut s = sched(2);
        s.create_domain(256, 2, None, None);
        let ev = collect(|ev| s.vcpu_wake(gv(0, 0), SimTime::ZERO, ev));
        assert!(ev.contains(&SchedEvent::Run {
            pcpu: PcpuId(0),
            vcpu: gv(0, 0)
        }));
        let ev = collect(|ev| s.vcpu_wake(gv(0, 1), SimTime::ZERO, ev));
        assert!(ev.contains(&SchedEvent::Run {
            pcpu: PcpuId(1),
            vcpu: gv(0, 1)
        }));
    }

    #[test]
    fn slice_expiry_rotates_queued_work() {
        let mut s = sched(1);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        let ev = collect(|ev| s.slice_expired(PcpuId(0), SimTime::from_ms(30), ev));
        assert!(
            ev.contains(&SchedEvent::Run {
                pcpu: PcpuId(0),
                vcpu: gv(0, 1)
            }),
            "the waiting vCPU has full credits and must win: {ev:?}"
        );
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 1)));
    }

    #[test]
    fn higher_weight_burns_slower() {
        let mut s = sched(2);
        s.create_domain(512, 1, None, None);
        s.create_domain(128, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(1, 0), SimTime::ZERO, &mut Vec::new());
        s.on_tick(PcpuId(0), SimTime::from_ms(10), &mut Vec::new());
        s.on_tick(PcpuId(1), SimTime::from_ms(10), &mut Vec::new());
        let heavy_burn = CREDIT_INIT_NS - s.credits_ns(gv(0, 0));
        let light_burn = CREDIT_INIT_NS - s.credits_ns(gv(1, 0));
        assert_eq!(heavy_burn * 4, light_burn, "256/weight burn scaling");
    }

    #[test]
    fn credit_reset_epoch_preserves_order_and_counts() {
        let mut s = sched(1);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        // Run vcpu0 far past its grant, then expire: vcpu1 wins (more
        // credits), and once *it* is also exhausted the reset fires.
        s.slice_expired(PcpuId(0), SimTime::from_ms(25), &mut Vec::new());
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 1)));
        assert_eq!(s.reset_epochs(), 0);
        s.slice_expired(PcpuId(0), SimTime::from_ms(50), &mut Vec::new());
        assert_eq!(s.reset_epochs(), 1, "picked candidate was out of credits");
        let winner = s.running_on(PcpuId(0)).expect("work conserving");
        assert_eq!(s.credits_ns(winner), CREDIT_INIT_NS, "reset anchors winner");
    }

    #[test]
    fn idle_pcpu_steals_queued_work() {
        let mut s = sched(2);
        s.create_domain(256, 3, None, None);
        // Saturate both pCPUs, queue the third vCPU.
        for v in 0..3 {
            s.vcpu_wake(gv(0, v), SimTime::ZERO, &mut Vec::new());
        }
        // Block pcpu1's runner: the queued third vCPU must be stolen in.
        let on1 = s.running_on(PcpuId(1)).unwrap();
        let ev = collect(|ev| s.vcpu_block(on1, SimTime::from_ms(1), ev));
        assert!(
            s.running_on(PcpuId(1)).is_some(),
            "work conservation: queued work exists, pcpu1 must not idle: {ev:?}"
        );
    }

    #[test]
    fn block_dequeues_and_frozen_flag_tracks() {
        let mut s = sched(1);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        s.vcpu_block(gv(0, 1), SimTime::from_ms(1), &mut Vec::new());
        assert!(matches!(s.vcpu_state(gv(0, 1)), VcpuState::Blocked { .. }));
        s.set_frozen(gv(0, 1), true);
        assert!(s.is_frozen(gv(0, 1)));
        // A frozen blocked vCPU is never picked.
        s.slice_expired(PcpuId(0), SimTime::from_ms(30), &mut Vec::new());
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 0)));
    }

    #[test]
    fn kick_preempts_immediately() {
        let mut s = sched(1);
        s.create_domain(256, 1, None, None);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(1, 0), SimTime::ZERO, &mut Vec::new());
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 0)));
        let ev = collect(|ev| s.kick_vcpu(gv(1, 0), SimTime::from_us(100), ev));
        assert_eq!(
            s.running_on(PcpuId(0)),
            Some(gv(1, 0)),
            "kick must place the target immediately: {ev:?}"
        );
    }

    #[test]
    fn acct_levels_runqueue_lengths() {
        let mut s = sched(2);
        s.create_domain(256, 6, None, None);
        for v in 0..6 {
            s.vcpu_wake(gv(0, v), SimTime::ZERO, &mut Vec::new());
        }
        // Whatever the wake placement did, after on_acct the queues
        // differ by at most one.
        s.on_acct(SimTime::from_ms(30), &mut Vec::new());
        let l0 = s.pcpus[0].runq.len() as i64;
        let l1 = s.pcpus[1].runq.len() as i64;
        assert!((l0 - l1).abs() <= 1, "unbalanced: {l0} vs {l1}");
    }

    #[test]
    fn extend_tick_publishes_algorithm1_snapshots() {
        let mut s = sched(2);
        let dom = s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        s.on_extend_tick(SimTime::from_ms(10));
        let info = s.extendability(dom);
        assert_eq!(s.extend_version(), 1);
        assert_eq!(info.validate(), Ok(()));
        assert_eq!(info.n_opt, 2, "sole busy domain extends to both pCPUs");
    }
}
