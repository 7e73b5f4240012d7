//! A dynamic-fractional scheduler backend (à la Casanova et al.'s DFRS).
//!
//! Instead of discrete credits, every domain holds a *continuous CPU
//! share* recomputed each accounting epoch from the weights of the
//! domains that currently have runnable work:
//!
//! ```text
//! share_d    = weight_d / Σ weight_over_runnable_domains
//! frac_vcpu  = share_d · n_pcpus / active_vcpus_d      (capped at 1.0)
//! ```
//!
//! `active_vcpus_d` counts unfrozen, non-blocked vCPUs — the vScale §4.2
//! hook: freezing a vCPU immediately concentrates the domain's share on
//! the survivors instead of leaving a slot of it stranded.
//!
//! Dispatch is fair-queuing over those fractions: each vCPU accumulates
//! *virtual time* at `1/frac` of wall rate while running, and pick-next
//! takes the runnable vCPU with the smallest virtual time from one
//! global queue (earliest-woken among ties). A single global queue makes
//! the policy work-conserving by construction — any idle pCPU serves the
//! global minimum — at the cost of more cross-pCPU migrations than the
//! runqueue-homed backends; migrations are counted, not hidden.
//!
//! Wakers re-enter at `max(own vruntime, pool minimum)` so a long sleep
//! does not bank unbounded virtual-time arrears (the CFS sleeper rule).
//! Caps and reservations bound extendability (Algorithm 1) exactly as in
//! the credit backend.

use sim_core::ids::{DomId, GlobalVcpu, PcpuId};
use sim_core::soa::VcpuMap;
use sim_core::time::{SimDuration, SimTime};

use crate::api::HypervisorSched;
use crate::credit::{CreditConfig, PoolDomain, SchedEvent, VcpuState, VcpuStats};
use crate::extend::{ExtendInfo, ExtendParams};

/// Preemption granularity: a waiting vCPU preempts only when it trails
/// the running one's virtual time by at least this much.
const GRAIN_NS: u64 = 1_000_000;

/// Tick-hot per-vCPU state, dense in a [`VcpuMap`]; cold lifetime stats
/// live in the parallel [`VcpuStats`] map.
#[derive(Clone, Debug)]
struct VcpuD {
    state: VcpuState,
    /// Virtual time: wall run time scaled by `1000 / frac_permille`.
    vruntime_ns: u64,
    /// This vCPU's CPU fraction in permille, recomputed per epoch.
    frac_permille: u32,
    last_pcpu: PcpuId,
    frozen: bool,
    burn_from: SimTime,
}

sim_core::snap_struct!(VcpuD {
    state,
    vruntime_ns,
    frac_permille,
    last_pcpu,
    frozen,
    burn_from,
});

#[derive(Clone, Debug, Default)]
struct PcpuD {
    current: Option<GlobalVcpu>,
    run_since: SimTime,
    gen: u64,
    switches: u64,
}

sim_core::snap_struct!(PcpuD {
    current,
    run_since,
    gen,
    switches,
});

/// The dynamic-fractional scheduler: see the module docs for the policy.
pub struct DynFracScheduler {
    config: CreditConfig,
    pcpus: Vec<PcpuD>,
    domains: Vec<PoolDomain>,
    /// Tick-hot per-vCPU state, dense in `(domain, vcpu)` order.
    hot: VcpuMap<VcpuD>,
    /// Cold per-vCPU lifetime stats, parallel to `hot`.
    stats: VcpuMap<VcpuStats>,
    /// One global runnable queue in wake order; pick-next scans for the
    /// minimum virtual time.
    runnable: Vec<GlobalVcpu>,
    /// Share-recomputation epochs performed (a DynFrac-specific stat).
    epochs: u64,
    migrations: u64,
    total_run_ns: u64,
    extend_window_start: SimTime,
    extend_version: u64,
    params_buf: Vec<ExtendParams>,
    infos_buf: Vec<ExtendInfo>,
}

sim_core::snap_struct!(DynFracScheduler "dynfrac" {
    pcpus: twin "pCPU count drifted",
    domains: twin "domain count drifted",
    hot,
    stats,
    runnable,
    epochs,
    migrations,
    total_run_ns,
    extend_window_start,
    extend_version,
} skip { config, params_buf, infos_buf });

impl DynFracScheduler {
    /// Creates a scheduler managing `n_pcpus` physical CPUs.
    pub fn new(config: CreditConfig, n_pcpus: usize) -> Self {
        assert!(n_pcpus > 0, "a CPU pool needs at least one pCPU");
        DynFracScheduler {
            config,
            pcpus: (0..n_pcpus).map(|_| PcpuD::default()).collect(),
            domains: Vec::new(),
            hot: VcpuMap::new(),
            stats: VcpuMap::new(),
            runnable: Vec::new(),
            epochs: 0,
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

    /// Share-recomputation epochs performed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The current fraction of `gv` in permille (for tests).
    pub fn frac_permille(&self, gv: GlobalVcpu) -> u32 {
        self.vcpu(gv).frac_permille
    }

    /// The virtual time of `gv` (for tests).
    pub fn vruntime_ns(&self, gv: GlobalVcpu) -> u64 {
        self.vcpu(gv).vruntime_ns
    }

    #[inline]
    fn vcpu(&self, gv: GlobalVcpu) -> &VcpuD {
        &self.hot[gv]
    }

    #[inline]
    fn vcpu_mut(&mut self, gv: GlobalVcpu) -> &mut VcpuD {
        &mut self.hot[gv]
    }

    /// Advances virtual time of the vCPU on `pcpu` at `1/frac` of wall
    /// rate since the last burn point.
    fn burn(&mut self, pcpu: PcpuId, now: SimTime) {
        let Some(gv) = self.pcpus[pcpu.index()].current else {
            return;
        };
        let v = &mut self.hot[gv];
        let ran = now.since(v.burn_from);
        if ran.is_zero() {
            return;
        }
        v.burn_from = now;
        let frac = u64::from(v.frac_permille.max(1));
        v.vruntime_ns += ran.as_ns() * 1000 / frac;
        self.stats[gv].run_total += ran;
        let dom = &mut self.domains[gv.dom.index()];
        dom.consumed_extend += ran;
        self.total_run_ns += ran.as_ns();
    }

    /// Index (within `runnable`) of the minimum-vruntime vCPU, earliest
    /// wake among ties.
    fn min_runnable(&self) -> Option<usize> {
        let mut best: Option<(usize, u64)> = None;
        for (i, &gv) in self.runnable.iter().enumerate() {
            let vr = self.vcpu(gv).vruntime_ns;
            if best.map(|(_, bvr)| vr < bvr).unwrap_or(true) {
                best = Some((i, vr));
            }
        }
        best.map(|(i, _)| i)
    }

    /// The minimum virtual time over running and runnable vCPUs (the
    /// sleeper re-entry floor).
    fn pool_min_vruntime(&self) -> Option<u64> {
        let running = self
            .pcpus
            .iter()
            .filter_map(|p| p.current)
            .map(|gv| self.vcpu(gv).vruntime_ns);
        let queued = self.runnable.iter().map(|&gv| self.vcpu(gv).vruntime_ns);
        running.chain(queued).min()
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
            self.runnable.push(gv);
        }
        Some(gv)
    }

    /// Fills an empty `pcpu` with the global minimum-vruntime runnable
    /// vCPU, or declares it idle.
    fn reschedule(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        if self.pcpus[pcpu.index()].current.is_some() {
            return;
        }
        let Some(idx) = self.min_runnable() else {
            events.push(SchedEvent::Idle { pcpu });
            return;
        };
        let gv = self.runnable.remove(idx);
        self.place(gv, pcpu, now, events);
    }

    /// Preempts `pcpu` when the best waiter trails the running vCPU's
    /// virtual time by at least the granularity.
    fn maybe_preempt(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        let Some(cur) = self.pcpus[pcpu.index()].current else {
            self.reschedule(pcpu, now, events);
            return;
        };
        let Some(idx) = self.min_runnable() else {
            return;
        };
        let challenger = self.runnable[idx];
        if self.vcpu(challenger).vruntime_ns + GRAIN_NS < self.vcpu(cur).vruntime_ns {
            self.deschedule_current(pcpu, now, true, events);
            self.reschedule(pcpu, now, events);
        }
    }

    /// Recomputes every vCPU's fraction from the weights of domains with
    /// runnable work (the continuous-share epoch).
    fn recompute_shares(&mut self) {
        let n_pcpus = self.pcpus.len() as u64;
        let weight_sum: u64 = self
            .domains
            .iter()
            .enumerate()
            .filter(|(di, _)| {
                self.hot
                    .domain(DomId(*di))
                    .iter()
                    .any(|v| !matches!(v.state, VcpuState::Blocked { .. }))
            })
            .map(|(_, d)| u64::from(d.weight))
            .sum();
        for di in 0..self.domains.len() {
            let dom = DomId(di);
            let active = self
                .hot
                .domain(dom)
                .iter()
                .filter(|v| !v.frozen && !matches!(v.state, VcpuState::Blocked { .. }))
                .count() as u64;
            let frac = if weight_sum == 0 || active == 0 {
                1000
            } else {
                // share · n_pcpus / active_vcpus, in permille, capped at
                // a full CPU.
                (u64::from(self.domains[di].weight) * n_pcpus * 1000 / (weight_sum * active))
                    .clamp(1, 1000)
            };
            for v in self.hot.domain_mut(dom) {
                v.frac_permille = frac as u32;
            }
        }
        self.epochs += 1;
    }
}

impl HypervisorSched for DynFracScheduler {
    fn new_pool(config: CreditConfig, n_pcpus: usize) -> Self {
        DynFracScheduler::new(config, n_pcpus)
    }

    fn backend_name() -> &'static str {
        "dynfrac"
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
        let hot_id = self.hot.push_domain(n_vcpus, |v| VcpuD {
            state: VcpuState::Blocked {
                since: SimTime::ZERO,
            },
            vruntime_ns: 0,
            frac_permille: 1000,
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
        self.recompute_shares();
        // The epoch may have shifted fractions enough that an idle pCPU
        // (or a stale assignment) should be revisited; fill idles.
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
        // Sleeper rule: re-enter at the pool minimum so a long block
        // does not bank unbounded arrears.
        if let Some(floor) = self.pool_min_vruntime() {
            let v = self.vcpu_mut(gv);
            v.vruntime_ns = v.vruntime_ns.max(floor);
        }
        let home = self.vcpu(gv).last_pcpu;
        self.vcpu_mut(gv).state = VcpuState::Runnable {
            pcpu: home,
            since: now,
        };
        self.runnable.push(gv);
        // Serve an idle pCPU right away (the woken vCPU's home first).
        let idle = if self.pcpus[home.index()].current.is_none() {
            Some(home)
        } else {
            (0..self.pcpus.len())
                .map(PcpuId)
                .find(|p| self.pcpus[p.index()].current.is_none())
        };
        match idle {
            Some(p) => self.reschedule(p, now, events),
            None => self.maybe_preempt(home, now, events),
        }
    }

    fn vcpu_block(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        match self.vcpu(gv).state {
            VcpuState::Running { pcpu, .. } => {
                self.deschedule_current(pcpu, now, false, events);
                self.vcpu_mut(gv).state = VcpuState::Blocked { since: now };
                self.reschedule(pcpu, now, events);
            }
            VcpuState::Runnable { .. } => {
                self.runnable.retain(|&q| q != gv);
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
        // Charge one granularity of virtual time so yield loops rotate.
        self.vcpu_mut(gv).vruntime_ns += GRAIN_NS;
        self.reschedule(pcpu, now, events);
    }

    fn kick_vcpu(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        if matches!(self.vcpu(gv).state, VcpuState::Blocked { .. }) {
            self.vcpu_wake(gv, now, events);
        }
        // Urgent: if still only queued, evict the home pCPU's current
        // and run the target now, granularity notwithstanding — unless
        // the kick-throttle defense protects a freshly placed occupant.
        if let VcpuState::Runnable { pcpu, .. } = self.vcpu(gv).state {
            let p = &self.pcpus[pcpu.index()];
            if self.config.kick_throttle
                && p.current.is_some()
                && now.since(p.run_since) < self.config.ratelimit
            {
                self.domains[gv.dom.index()].kicks_throttled += 1;
                return;
            }
            self.runnable.retain(|&q| q != gv);
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

    fn sched(n_pcpus: usize) -> DynFracScheduler {
        DynFracScheduler::new(CreditConfig::default(), n_pcpus)
    }

    #[test]
    fn shares_split_by_weight_and_active_vcpus() {
        let mut s = sched(2);
        s.create_domain(256, 2, None, None);
        s.create_domain(256, 2, None, None);
        for d in 0..2 {
            for v in 0..2 {
                s.vcpu_wake(gv(d, v), SimTime::ZERO, &mut Vec::new());
            }
        }
        s.on_acct(SimTime::from_ms(30), &mut Vec::new());
        // Equal weights, 2 pCPUs, 2 active vCPUs each: every vCPU gets
        // half a CPU.
        assert_eq!(s.frac_permille(gv(0, 0)), 500);
        assert_eq!(s.frac_permille(gv(1, 1)), 500);
    }

    #[test]
    fn freezing_concentrates_the_share() {
        let mut s = sched(2);
        s.create_domain(256, 2, None, None);
        s.create_domain(256, 2, None, None);
        for d in 0..2 {
            for v in 0..2 {
                s.vcpu_wake(gv(d, v), SimTime::ZERO, &mut Vec::new());
            }
        }
        // Freeze + block dom0's second vCPU (the Algorithm 2 split).
        s.set_frozen(gv(0, 1), true);
        s.vcpu_block(gv(0, 1), SimTime::from_ms(1), &mut Vec::new());
        s.on_acct(SimTime::from_ms(30), &mut Vec::new());
        // dom0's whole share now rides its single active vCPU.
        assert_eq!(s.frac_permille(gv(0, 0)), 1000);
        assert_eq!(s.frac_permille(gv(1, 0)), 500);
    }

    #[test]
    fn pick_next_takes_minimum_vruntime() {
        let mut s = sched(1);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        // vcpu0 runs 30 ms, accumulating vruntime; on expiry vcpu1 (at
        // the floor) must win.
        s.slice_expired(PcpuId(0), SimTime::from_ms(30), &mut Vec::new());
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 1)));
        assert!(s.vruntime_ns(gv(0, 0)) > s.vruntime_ns(gv(0, 1)));
    }

    #[test]
    fn work_conserving_single_global_queue() {
        let mut s = sched(2);
        s.create_domain(256, 3, None, None);
        for v in 0..3 {
            s.vcpu_wake(gv(0, v), SimTime::ZERO, &mut Vec::new());
        }
        // Both pCPUs busy, one queued. Block a runner: the queued vCPU
        // must take the freed pCPU immediately.
        let on1 = s.running_on(PcpuId(1)).unwrap();
        s.vcpu_block(on1, SimTime::from_ms(1), &mut Vec::new());
        assert!(s.running_on(PcpuId(1)).is_some(), "must not idle");
    }

    #[test]
    fn sleeper_reenters_at_pool_minimum() {
        let mut s = sched(1);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        s.vcpu_block(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        // vcpu0 runs alone for 200 ms; the sleeper must not re-enter
        // with a 200 ms virtual-time lead.
        s.on_tick(PcpuId(0), SimTime::from_ms(200), &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::from_ms(200), &mut Vec::new());
        let lead = s.vruntime_ns(gv(0, 0)) as i64 - s.vruntime_ns(gv(0, 1)) as i64;
        assert!(
            lead.unsigned_abs() <= s.vruntime_ns(gv(0, 0)),
            "sleeper floored at pool minimum"
        );
        assert!(
            s.vruntime_ns(gv(0, 1)) >= s.vruntime_ns(gv(0, 0)).saturating_sub(GRAIN_NS),
            "woken vCPU re-enters near the runner, not 200 ms behind: {} vs {}",
            s.vruntime_ns(gv(0, 1)),
            s.vruntime_ns(gv(0, 0)),
        );
    }

    #[test]
    fn kick_places_target_immediately() {
        let mut s = sched(1);
        s.create_domain(256, 1, None, None);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(1, 0), SimTime::ZERO, &mut Vec::new());
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 0)));
        s.kick_vcpu(gv(1, 0), SimTime::from_us(100), &mut Vec::new());
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(1, 0)));
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
