//! The dynamic-fractional policy (à la Casanova et al.'s DFRS) over the
//! shared [`Pool`].
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
//! global queue (earliest-woken among ties). It never steals: a single
//! global queue makes the policy work-conserving by construction — any
//! idle pCPU serves the global minimum — at the cost of more cross-pCPU
//! migrations than the runqueue-homed backends; migrations are counted,
//! not hidden. A waking vCPU stays homed at its last pCPU, and the pool
//! serves the idle pCPU nearest it.
//!
//! Wakers re-enter at `max(own vruntime, pool minimum)` so a long sleep
//! does not bank unbounded virtual-time arrears (the CFS sleeper rule).
//! Caps and reservations bound extendability (Algorithm 1) exactly as in
//! the credit backend.

use sim_core::ids::{DomId, GlobalVcpu, PcpuId};
use sim_core::time::{SimDuration, SimTime};

use crate::credit::{SchedEvent, VcpuState};
use crate::pool::{Policy, Pool};

/// Preemption granularity: a waiting vCPU preempts only when it trails
/// the running one's virtual time by at least this much.
const GRAIN_NS: u64 = 1_000_000;

/// The dynamic-fractional policy: one global runnable queue, and virtual
/// time plus a CPU fraction per vCPU.
#[derive(Debug, Default)]
pub struct DynFrac {
    /// One global runnable queue in wake order; pick-next scans for the
    /// minimum virtual time.
    runnable: Vec<GlobalVcpu>,
    /// Share-recomputation epochs performed. Image state only: nothing
    /// reads it back.
    epochs: u64,
}

sim_core::snap_struct!(DynFrac { runnable, epochs });

/// A vCPU's fair-queuing state under [`DynFrac`].
#[derive(Debug)]
pub struct VirtualTime {
    /// Virtual time: wall run time scaled by `1000 / frac_permille`.
    vruntime_ns: u64,
    /// This vCPU's CPU fraction in permille, recomputed per epoch.
    frac_permille: u32,
}

sim_core::snap_struct!(VirtualTime {
    vruntime_ns,
    frac_permille,
});

/// The dynamic-fractional scheduler: see the module docs for the policy.
pub type DynFracScheduler = Pool<DynFrac>;

impl DynFracScheduler {
    /// The current fraction of `gv` in permille (for tests).
    pub fn frac_permille(&self, gv: GlobalVcpu) -> u32 {
        self.hot[gv].extra.frac_permille
    }

    /// The virtual time of `gv` (for tests).
    pub fn vruntime_ns(&self, gv: GlobalVcpu) -> u64 {
        self.hot[gv].extra.vruntime_ns
    }

    /// Index (within the global queue) of the minimum-vruntime vCPU,
    /// earliest wake among ties.
    fn min_runnable(&self) -> Option<usize> {
        let mut best: Option<(usize, u64)> = None;
        for (i, &gv) in self.policy.runnable.iter().enumerate() {
            let vr = self.vruntime_ns(gv);
            if best.map(|(_, bvr)| vr < bvr).unwrap_or(true) {
                best = Some((i, vr));
            }
        }
        best.map(|(i, _)| i)
    }
}

impl Policy for DynFrac {
    const NAME: &'static str = "dynfrac";
    type Queue = ();
    type Window = ();
    type Extra = VirtualTime;
    const INITIAL: VirtualTime = VirtualTime {
        vruntime_ns: 0,
        frac_permille: 1000,
    };

    fn charge(pool: &mut Pool<Self>, gv: GlobalVcpu, ran: SimDuration) {
        let x = &mut pool.hot[gv].extra;
        let frac = u64::from(x.frac_permille.max(1));
        x.vruntime_ns += ran.as_ns() * 1000 / frac;
    }

    fn enqueue(pool: &mut Pool<Self>, gv: GlobalVcpu, _pcpu: PcpuId) {
        pool.policy.runnable.push(gv);
    }

    fn dequeue(pool: &mut Pool<Self>, gv: GlobalVcpu, _pcpu: PcpuId) {
        pool.policy.runnable.retain(|&q| q != gv);
    }

    /// The global minimum-vruntime runnable vCPU.
    fn take_next(pool: &mut Pool<Self>, _pcpu: PcpuId) -> Option<GlobalVcpu> {
        let idx = pool.min_runnable()?;
        Some(pool.policy.runnable.remove(idx))
    }

    /// The best waiter preempts when it trails the running vCPU's
    /// virtual time by at least the granularity.
    fn preempts(
        pool: &mut Pool<Self>,
        _pcpu: PcpuId,
        cur: GlobalVcpu,
        _waker: Option<GlobalVcpu>,
        _now: SimTime,
    ) -> bool {
        pool.min_runnable().is_some_and(|i| {
            let challenger = pool.policy.runnable[i];
            pool.vruntime_ns(challenger) + GRAIN_NS < pool.vruntime_ns(cur)
        })
    }

    /// Applies the sleeper rule, re-entering at the minimum virtual time
    /// over running and runnable vCPUs, and stays homed at the last pCPU;
    /// the pool serves the idle pCPU nearest it.
    fn wake(pool: &mut Pool<Self>, gv: GlobalVcpu) -> Option<(PcpuId, PcpuId)> {
        let running = pool.pcpus.iter().filter_map(|p| p.current);
        let floor = running
            .chain(pool.policy.runnable.iter().copied())
            .map(|q| pool.vruntime_ns(q))
            .min();
        let v = &mut pool.hot[gv];
        if let Some(floor) = floor {
            v.extra.vruntime_ns = v.extra.vruntime_ns.max(floor);
        }
        let home = v.last_pcpu;
        Some((home, pool.nearest_idle(gv).unwrap_or(home)))
    }

    fn yield_penalty(x: &mut VirtualTime) {
        // One granularity of virtual time, so yield loops rotate.
        x.vruntime_ns += GRAIN_NS;
    }

    /// Recomputes every vCPU's fraction from the weights of domains with
    /// runnable work (the continuous-share epoch), then fills any pCPU
    /// left idle next to queued work.
    fn acct(pool: &mut Pool<Self>, now: SimTime, events: &mut Vec<SchedEvent>) {
        let n_pcpus = pool.pcpus.len() as u64;
        let weight_sum: u64 = pool
            .domains
            .iter()
            .enumerate()
            .filter(|(di, _)| {
                pool.hot
                    .domain(DomId(*di))
                    .iter()
                    .any(|v| !matches!(v.state, VcpuState::Blocked { .. }))
            })
            .map(|(_, d)| u64::from(d.weight))
            .sum();
        for (di, d) in pool.domains.iter().enumerate() {
            let vcpus = pool.hot.domain_mut(DomId(di));
            let active = vcpus
                .iter()
                .filter(|v| !v.frozen && !matches!(v.state, VcpuState::Blocked { .. }))
                .count() as u64;
            let frac = if weight_sum == 0 || active == 0 {
                1000
            } else {
                // share · n_pcpus / active_vcpus, in permille, capped at
                // a full CPU.
                (u64::from(d.weight) * n_pcpus * 1000 / (weight_sum * active)).clamp(1, 1000)
            };
            for v in vcpus {
                v.extra.frac_permille = frac as u32;
            }
        }
        pool.policy.epochs += 1;
        pool.fill_idle(now, events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::credit::CreditConfig;
    use sim_core::ids::VcpuId;
    use sim_core::time::SimTime;

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
