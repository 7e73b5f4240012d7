//! The Credit2-style policy over the shared [`Pool`].
//!
//! Xen's Credit2 (the default since Xen 4.8) replaced the three fixed
//! priority bands of the credit scheduler with a single credit-ordered
//! runqueue per pCPU, bulk *credit-reset epochs* instead of per-30 ms
//! redistribution, and weight-scaled burn rates. This policy models that
//! shape; the pool does the dispatch:
//!
//! - **Per-pCPU runqueues ordered by credit**: pick-next takes the
//!   queued vCPU with the most credits (FIFO among ties, so replay is
//!   deterministic).
//! - **Weight-scaled burn**: a vCPU burns credits at `256/weight` of
//!   wall rate, so a weight-512 vCPU outlasts a weight-128 one 4:1 on
//!   the same runqueue — proportional share emerges from burn rates,
//!   not periodic redistribution.
//! - **Credit-reset epochs**: when the picked vCPU is out of credits,
//!   every vCPU in the pool is shifted so the picked one is back at the
//!   initial grant — relative order (and thus fairness memory) is
//!   preserved, and the epoch counter bumps.
//! - **Wake placement**: a waking vCPU queues on its last pCPU if that
//!   is idle, else on the lowest-index idle pCPU, else on its last pCPU.
//! - **Load-balancing migration**: the accounting epoch levels runqueue
//!   lengths by migrating queued vCPUs from the longest to the shortest
//!   queue; idle pCPUs also steal on demand, so the policy is
//!   work-conserving like the other backends.
//!
//! Caps and reservations bound extendability only, and freezing changes
//! accounting only ([`Pool`] documents both).

use std::collections::VecDeque;

use sim_core::ids::{GlobalVcpu, PcpuId};
use sim_core::time::SimDuration;

use crate::credit::VcpuState;
use crate::pool::{Policy, Pool};

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

/// The Credit2-style policy: per-pCPU credit-ordered runqueues, and a
/// credit balance in nanoseconds per vCPU.
#[derive(Debug, Default)]
pub struct Credit2 {
    /// Credit-reset epochs performed so far.
    reset_epochs: u64,
}

sim_core::snap_struct!(Credit2 { reset_epochs });

/// The Credit2-style scheduler: see the module docs for the policy.
pub type Credit2Scheduler = Pool<Credit2>;

impl Credit2Scheduler {
    /// Credit-reset epochs performed so far (a Credit2-specific stat).
    pub fn reset_epochs(&self) -> u64 {
        self.policy.reset_epochs
    }

    /// Current credits of `gv` (for tests).
    pub fn credits_ns(&self, gv: GlobalVcpu) -> i64 {
        self.hot[gv].extra
    }

    /// Index (within `pcpu`'s runqueue) of the best candidate: max
    /// credits, FIFO among ties.
    fn best_in(&self, pcpu: PcpuId) -> Option<usize> {
        let mut best: Option<(usize, i64)> = None;
        for (i, &gv) in self.pcpus[pcpu.index()].queue.iter().enumerate() {
            let c = self.credits_ns(gv);
            if best.map(|(_, bc)| c > bc).unwrap_or(true) {
                best = Some((i, c));
            }
        }
        best.map(|(i, _)| i)
    }
}

impl Policy for Credit2 {
    const NAME: &'static str = "credit2";
    type Queue = VecDeque<GlobalVcpu>;
    type Extra = i64;
    const INITIAL: i64 = CREDIT_INIT_NS;

    fn charge(credits: &mut i64, ran: SimDuration, weight: u32) {
        *credits -= (ran.as_ns() * WEIGHT_REF / u64::from(weight.max(1))) as i64;
    }

    fn enqueue(pool: &mut Pool<Self>, gv: GlobalVcpu, pcpu: PcpuId) {
        pool.pcpus[pcpu.index()].queue.push_back(gv);
    }

    fn dequeue(pool: &mut Pool<Self>, gv: GlobalVcpu, pcpu: PcpuId) {
        pool.pcpus[pcpu.index()].queue.retain(|&q| q != gv);
    }

    /// Best local candidate, else steal from the longest peer runqueue;
    /// performs a credit-reset epoch when the winner is out of credits.
    fn take_next(pool: &mut Pool<Self>, pcpu: PcpuId) -> Option<GlobalVcpu> {
        let local = pool.best_in(pcpu).map(|i| (pcpu, i));
        let (home, idx) = local.or_else(|| {
            let victim = pool
                .pcpus
                .iter()
                .enumerate()
                .filter(|(i, p)| PcpuId(*i) != pcpu && !p.queue.is_empty())
                .max_by_key(|(i, p)| (p.queue.len(), usize::MAX - *i))
                .map(|(i, _)| PcpuId(i))?;
            pool.best_in(victim).map(|i| (victim, i))
        })?;
        let gv = pool.pcpus[home.index()].queue.remove(idx).expect("indexed");
        if pool.credits_ns(gv) <= 0 {
            // Shift every vCPU so the winner is back at the initial
            // grant; relative order is preserved.
            let shift = CREDIT_INIT_NS - pool.credits_ns(gv);
            for v in pool.hot.values_mut() {
                v.extra += shift;
            }
            pool.policy.reset_epochs += 1;
        }
        Some(gv)
    }

    /// A queued local vCPU preempts when it leads the running one by the
    /// preemption grain.
    fn preempts(pool: &Pool<Self>, pcpu: PcpuId, cur: GlobalVcpu) -> bool {
        pool.best_in(pcpu).is_some_and(|i| {
            let challenger = pool.pcpus[pcpu.index()].queue[i];
            pool.credits_ns(challenger) > pool.credits_ns(cur) + PREEMPT_GRAIN_NS
        })
    }

    fn wake_home(pool: &mut Pool<Self>, gv: GlobalVcpu, idle: Option<PcpuId>) -> PcpuId {
        idle.unwrap_or(pool.hot[gv].last_pcpu)
    }

    fn yield_penalty(credits: &mut i64) {
        *credits -= YIELD_BIAS_NS;
    }

    /// Levels runqueue lengths: migrates the tail of the longest queue
    /// to the shortest until they differ by at most one.
    fn acct(pool: &mut Pool<Self>) {
        loop {
            let (mut longest, mut shortest) = (0, 0);
            for (i, p) in pool.pcpus.iter().enumerate() {
                if p.queue.len() > pool.pcpus[longest].queue.len() {
                    longest = i;
                }
                if p.queue.len() < pool.pcpus[shortest].queue.len() {
                    shortest = i;
                }
            }
            if pool.pcpus[longest].queue.len() - pool.pcpus[shortest].queue.len() < 2 {
                break;
            }
            let gv = pool.pcpus[longest].queue.pop_back().expect("len>=2");
            let to = PcpuId(shortest);
            let v = &mut pool.hot[gv];
            if let VcpuState::Runnable { since, .. } = v.state {
                v.state = VcpuState::Runnable { pcpu: to, since };
            }
            v.last_pcpu = to;
            pool.pcpus[shortest].queue.push_back(gv);
            pool.migrations += 1;
        }
    }

    fn credit(credits: &i64) -> i64 {
        *credits
    }

    fn set_credit(credits: &mut i64, credit: i64) {
        *credits = credit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::HypervisorSched;
    use crate::credit::{CreditConfig, SchedEvent};
    use sim_core::ids::{DomId, VcpuId};
    use sim_core::time::SimTime;

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
        let l0 = s.pcpus[0].queue.len() as i64;
        let l1 = s.pcpus[1].queue.len() as i64;
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
