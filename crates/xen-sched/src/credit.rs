//! The Xen credit scheduler.
//!
//! This is a faithful reimplementation of the proportional-share *credit*
//! scheduler that Xen 4.5 used by default, at the paper's time constants:
//!
//! - every **10 ms** each pCPU ticks and the running vCPU's credits are
//!   burned for the time it actually ran;
//! - every **30 ms** the accounting pass (`csched_acct` in Xen) distributes
//!   one accounting period's worth of machine capacity to *active* domains
//!   in proportion to their weights, and splits each domain's share equally
//!   among its active (non-frozen) vCPUs;
//! - the scheduling quantum (time slice) is **30 ms**;
//! - vCPUs with non-negative credit run at [`Prio::Under`], vCPUs that have
//!   over-drawn run at [`Prio::Over`], and a vCPU that wakes from blocking
//!   with credit left is temporarily promoted to [`Prio::Boost`] so latency-
//!   sensitive work gets on a pCPU quickly;
//! - the scheduler is **work-conserving**: an idle pCPU steals runnable
//!   vCPUs from its peers (BOOST first, then UNDER, then OVER), so unused
//!   capacity flows to whoever can use it.
//!
//! Two vScale modifications from §4.2 of the paper are included:
//!
//! 1. **Per-VM weight.** Credits are apportioned to the *domain* by weight
//!    and then split among active vCPUs, so freezing vCPUs never shrinks a
//!    domain's total allocation.
//! 2. **Frozen vCPUs leave the active list.** A vCPU the guest has frozen
//!    (via the `SCHEDOP_freezecpu` hypercall, [`CreditScheduler::set_frozen`])
//!    stops earning credits; its share flows to its siblings.
//!
//! The scheduler also keeps the per-vCPU *waiting time* (time spent runnable
//! in a pCPU run queue without running) that Figure 9 of the paper reports.

use std::collections::VecDeque;

use sim_core::ids::{DomId, GlobalVcpu, PcpuId, VcpuId};
use sim_core::soa::VcpuMap;
use sim_core::time::{SimDuration, SimTime};

use crate::extend::{ExtendInfo, ExtendParams};

/// Scheduling priority of a runnable vCPU, ordered from most to least urgent.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Prio {
    /// Freshly woken with credit remaining; scheduled before everything else.
    Boost = 0,
    /// Has credit remaining.
    Under = 1,
    /// Has over-drawn its credit; runs only on otherwise-idle capacity.
    Over = 2,
}

sim_core::snap_enum!(Prio {
    0 => Boost,
    1 => Under,
    2 => Over,
});

const PRIO_COUNT: usize = 3;

/// Where a vCPU currently stands with respect to physical CPUs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VcpuState {
    /// Holding a pCPU since the given instant.
    Running {
        /// The pCPU it occupies.
        pcpu: PcpuId,
        /// When it was placed on the pCPU.
        since: SimTime,
    },
    /// Waiting in a pCPU's run queue since the given instant.
    Runnable {
        /// The pCPU whose queue it waits in.
        pcpu: PcpuId,
        /// When it became runnable (start of the current waiting span).
        since: SimTime,
    },
    /// Blocked in the hypervisor (guest idle / HLT / poll).
    Blocked {
        /// When it blocked.
        since: SimTime,
    },
}

sim_core::snap_enum!(VcpuState {
    0 => Running { pcpu, since },
    1 => Runnable { pcpu, since },
    2 => Blocked { since },
});

/// Under the kick-throttle defense, a BOOST wakeup may evict a running
/// vCPU only once the occupant has run this many ratelimit windows
/// (5 ms at the Xen-default 1 ms ratelimit). Chosen as a small multiple:
/// large enough that a wake-storm tenant cannot shred a neighbor's
/// slice into millisecond fragments, small enough that genuinely
/// latency-sensitive wakeups still preempt within single-digit
/// milliseconds.
pub const KICK_THROTTLE_FACTOR: u64 = 5;

/// Configuration of the credit scheduler.
#[derive(Clone, Debug)]
pub struct CreditConfig {
    /// Tick period (credit burn + boost demotion). Xen default: 10 ms.
    pub tick: SimDuration,
    /// Number of ticks per accounting pass. Xen default: 3 (30 ms).
    pub ticks_per_acct: u32,
    /// Scheduling quantum. Xen default: 30 ms.
    pub slice: SimDuration,
    /// Minimum time a vCPU runs before a wakeup may preempt it. Xen
    /// default: 1 ms.
    pub ratelimit: SimDuration,
    /// Whether the BOOST mechanism is enabled (ablation knob).
    pub boost: bool,
    /// Whether the tick also preempts the running vCPU when a
    /// higher-priority vCPU waits in the queue. Xen's credit scheduler
    /// does *not* — rescheduling happens only on wake tickles, blocks,
    /// yields and slice expiry — which is precisely why scheduling delays
    /// reach tens of milliseconds. Ablation knob, default off (faithful).
    pub tick_preemption: bool,
    /// Period of the vScale extendability ticker (`vscale_ticker_fn`).
    /// Paper default: 10 ms.
    pub extend_period: SimDuration,
    /// Historical-Xen *sampled* credit accounting: instead of charging
    /// exact run nanoseconds continuously, whoever occupies the pCPU at
    /// the tick is charged one whole tick of credit. This is the
    /// vulnerability Zhou et al. exploit — a tenant that yields just
    /// before every tick runs nearly free. Fidelity knob for the attack
    /// grid, default off (exact accounting, as in this repo since PR 1).
    /// Statistics (`run_total`, consumption windows, `total_run_ns`)
    /// stay exact either way; only the credit balance is sampled.
    pub sampled_burn: bool,
    /// Defense: directed kicks may not evict a current occupant that has
    /// run for less than [`CreditConfig::ratelimit`] (the kick still
    /// wakes and enqueues the target at BOOST — only the immediate
    /// eviction is suppressed), and BOOST-priority wakeups may evict only
    /// an occupant that has run at least [`KICK_THROTTLE_FACTOR`]× the
    /// ratelimit. Together these bound preemption farming via IPI/wake
    /// storms: a tenant ping-ponging wakeups across its vCPUs can no
    /// longer evict a neighbor every millisecond. Default off: faithful
    /// kicks bypass the ratelimit and every wake preempts at the
    /// ratelimit.
    pub kick_throttle: bool,
}

impl Default for CreditConfig {
    fn default() -> Self {
        CreditConfig {
            tick: SimDuration::from_ms(10),
            ticks_per_acct: 3,
            slice: SimDuration::from_ms(30),
            ratelimit: SimDuration::from_ms(1),
            boost: true,
            tick_preemption: false,
            extend_period: SimDuration::from_ms(10),
            sampled_burn: false,
            kick_throttle: false,
        }
    }
}

/// A pCPU assignment change that the embedding machine must act on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedEvent {
    /// `vcpu` now runs on `pcpu`; its slice nominally lasts
    /// [`CreditConfig::slice`] but may be cut short by a later event.
    Run {
        /// The pCPU granted.
        pcpu: PcpuId,
        /// The vCPU placed on it.
        vcpu: GlobalVcpu,
    },
    /// `vcpu` lost its pCPU (preemption, yield, slice end or block).
    Desched {
        /// The pCPU it lost.
        pcpu: PcpuId,
        /// The vCPU descheduled.
        vcpu: GlobalVcpu,
    },
    /// `pcpu` has nothing runnable and enters the idle loop.
    Idle {
        /// The idle pCPU.
        pcpu: PcpuId,
    },
}

/// Tick-hot per-vCPU scheduler state, stored densely in a [`VcpuMap`] so
/// the burn/tick/wake path streams through one contiguous array. Cold
/// lifetime statistics live in the parallel [`VcpuStats`] map and never
/// share a cache line with these fields.
#[derive(Clone, Debug)]
struct Vcpu {
    state: VcpuState,
    prio: Prio,
    /// Signed credit balance in nanoseconds of pCPU time.
    credits_ns: i64,
    /// Last pCPU this vCPU ran on; wakeups re-queue it there.
    last_pcpu: PcpuId,
    /// Frozen by the guest (`SCHEDOP_freezecpu`): earns no credits.
    frozen: bool,
    /// Parked by cap enforcement: held off pCPUs until the next
    /// accounting pass refills the domain's cap budget.
    parked: bool,
    /// Start of the unburned portion of the current run (if running).
    burn_from: SimTime,
}

sim_core::snap_struct!(Vcpu {
    state,
    prio,
    credits_ns,
    last_pcpu,
    frozen,
    parked,
    burn_from,
});

/// Cold per-vCPU lifetime statistics, split off the hot state so the
/// dispatch path never pages them in (they are touched only at placement
/// and deschedule boundaries, and by metric readers). Shared by every
/// backend.
#[derive(Clone, Debug, Default)]
pub(crate) struct VcpuStats {
    /// Accumulated runnable-but-not-running time (Figure 9 metric).
    pub(crate) wait_total: SimDuration,
    /// Accumulated run time over the vCPU's lifetime.
    pub(crate) run_total: SimDuration,
    /// Number of times this vCPU was placed on a pCPU.
    pub(crate) scheduled_count: u64,
}

sim_core::snap_struct!(VcpuStats {
    wait_total,
    run_total,
    scheduled_count,
});

/// Per-domain scheduler bookkeeping (per-vCPU state lives in the
/// scheduler-level [`VcpuMap`]s, not here).
#[derive(Clone, Debug)]
struct Domain {
    weight: u32,
    /// Optional upper bound on consumption, in pCPUs (Xen `cap` / 100).
    cap_pcpus: Option<f64>,
    /// Optional lower bound used when clamping extendability, in pCPUs.
    reservation_pcpus: Option<f64>,
    /// Consumption within the current accounting window (activity test).
    consumed_acct: SimDuration,
    /// Consumption within the current extendability window (Algorithm 1
    /// input `s_i(t)`).
    consumed_extend: SimDuration,
    /// Latest Algorithm 1 output, readable through the vScale channel.
    extend: ExtendInfo,
    /// Kick-path evictions suppressed by the kick-throttle defense on
    /// behalf of this domain's vCPUs (defense-activity counter).
    kicks_throttled: u64,
}

sim_core::snap_struct!(Domain {
    weight,
    cap_pcpus,
    reservation_pcpus,
    consumed_acct,
    consumed_extend,
    extend,
    kicks_throttled,
});

/// Per-domain bookkeeping of the backends without an accounting window
/// (credit2, dynfrac): the credit [`Domain`] minus `consumed_acct`.
#[derive(Clone, Debug)]
pub(crate) struct PoolDomain {
    pub(crate) weight: u32,
    pub(crate) cap_pcpus: Option<f64>,
    pub(crate) reservation_pcpus: Option<f64>,
    pub(crate) consumed_extend: SimDuration,
    pub(crate) extend: ExtendInfo,
    /// Kick-path evictions suppressed by the kick-throttle defense.
    pub(crate) kicks_throttled: u64,
}

impl PoolDomain {
    /// A fresh domain record with `n_vcpus` vCPUs.
    pub(crate) fn new(
        weight: u32,
        n_vcpus: usize,
        cap_pcpus: Option<f64>,
        reservation_pcpus: Option<f64>,
    ) -> Self {
        PoolDomain {
            weight,
            cap_pcpus,
            reservation_pcpus,
            consumed_extend: SimDuration::ZERO,
            extend: ExtendInfo::initial(n_vcpus),
            kicks_throttled: 0,
        }
    }
}

sim_core::snap_struct!(PoolDomain {
    weight,
    cap_pcpus,
    reservation_pcpus,
    consumed_extend,
    extend,
    kicks_throttled,
});

/// Per-pCPU run queues and the currently running vCPU.
#[derive(Clone, Debug, Default)]
struct Pcpu {
    /// One FIFO queue per priority level.
    queues: [VecDeque<GlobalVcpu>; PRIO_COUNT],
    current: Option<GlobalVcpu>,
    /// When the current vCPU was placed (ratelimit + slice bookkeeping).
    run_since: SimTime,
    /// Monotonic generation, bumped on every assignment change; lets the
    /// machine invalidate stale slice-end events.
    gen: u64,
    /// Context switches performed on this pCPU.
    switches: u64,
}

sim_core::snap_struct!(Pcpu {
    queues,
    current,
    run_since,
    gen,
    switches,
});

impl Pcpu {
    fn queued_len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

/// The credit scheduler: all domains, vCPUs and pCPUs of one CPU pool.
///
/// All state-changing entry points append the resulting [`SchedEvent`]s to
/// a caller-provided sink instead of returning a fresh `Vec`, so the
/// embedding machine's steady-state event loop performs no per-dispatch
/// heap allocation. The sink is *appended to*, never cleared — the caller
/// owns its lifecycle.
pub struct CreditScheduler {
    config: CreditConfig,
    pcpus: Vec<Pcpu>,
    domains: Vec<Domain>,
    /// Tick-hot per-vCPU state, dense in `(domain, vcpu)` order.
    hot: VcpuMap<Vcpu>,
    /// Cold per-vCPU lifetime stats, parallel to `hot`.
    stats: VcpuMap<VcpuStats>,
    /// Start of the current extendability window.
    extend_window_start: SimTime,
    /// Seqlock-style version of the published extendability snapshots.
    extend_version: u64,
    /// Number of vCPU migrations across pCPUs (stealing).
    migrations: u64,
    /// Machine-wide run time in ns, maintained in `burn` so the
    /// watchdog's progress fingerprint is one load instead of a
    /// per-domain per-vCPU fold on the dispatch path.
    total_run_ns: u64,
    /// Scratch for [`CreditScheduler::on_acct`] cap decisions (reused
    /// across calls so the 30 ms pass allocates nothing in steady state).
    park_buf: Vec<GlobalVcpu>,
    unpark_buf: Vec<GlobalVcpu>,
    /// Scratch for the per-domain activity flags of the accounting pass.
    active_buf: Vec<bool>,
    /// Scratch for [`CreditScheduler::on_extend_tick`] Algorithm 1 inputs.
    params_buf: Vec<ExtendParams>,
    /// Scratch for Algorithm 1 outputs (the last per-tick allocation).
    infos_buf: Vec<ExtendInfo>,
}

// The configuration and the pCPU/domain/vCPU populations are structural:
// restore targets a pool built the same way and asserts they match.
sim_core::snap_struct!(CreditScheduler "credit" {
    pcpus: twin "pCPU count drifted",
    domains: twin "domain count drifted",
    hot,
    stats,
    extend_window_start,
    extend_version,
    migrations,
    total_run_ns,
} skip { config, park_buf, unpark_buf, active_buf, params_buf, infos_buf });

impl CreditScheduler {
    /// Creates a scheduler managing `n_pcpus` physical CPUs.
    pub fn new(config: CreditConfig, n_pcpus: usize) -> Self {
        assert!(n_pcpus > 0, "a CPU pool needs at least one pCPU");
        CreditScheduler {
            config,
            pcpus: (0..n_pcpus).map(|_| Pcpu::default()).collect(),
            domains: Vec::new(),
            hot: VcpuMap::new(),
            stats: VcpuMap::new(),
            extend_window_start: SimTime::ZERO,
            extend_version: 0,
            migrations: 0,
            total_run_ns: 0,
            park_buf: Vec::new(),
            unpark_buf: Vec::new(),
            active_buf: Vec::new(),
            params_buf: Vec::new(),
            infos_buf: Vec::new(),
        }
    }

    /// The scheduler configuration.
    pub fn config(&self) -> &CreditConfig {
        &self.config
    }

    /// Number of pCPUs in the pool.
    pub fn n_pcpus(&self) -> usize {
        self.pcpus.len()
    }

    /// Number of domains created so far.
    pub fn n_domains(&self) -> usize {
        self.domains.len()
    }

    /// Creates a domain with `n_vcpus` vCPUs and proportional-share `weight`.
    ///
    /// All vCPUs start [`VcpuState::Blocked`]; the machine wakes them as the
    /// guest boots them. `cap_pcpus` / `reservation_pcpus` bound the
    /// domain's extendability (in units of whole pCPUs).
    pub fn create_domain(
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
        let hot_id = self.hot.push_domain(n_vcpus, |v| Vcpu {
            state: VcpuState::Blocked {
                since: SimTime::ZERO,
            },
            prio: Prio::Under,
            credits_ns: 0,
            last_pcpu: PcpuId(v.index() % n_pcpus),
            frozen: false,
            parked: false,
            burn_from: SimTime::ZERO,
        });
        let stats_id = self.stats.push_domain(n_vcpus, |_| VcpuStats::default());
        debug_assert_eq!((hot_id, stats_id), (id, id));
        self.domains.push(Domain {
            weight,
            cap_pcpus,
            reservation_pcpus,
            consumed_acct: SimDuration::ZERO,
            consumed_extend: SimDuration::ZERO,
            extend: ExtendInfo::initial(n_vcpus),
            kicks_throttled: 0,
        });
        id
    }

    #[inline]
    fn vcpu(&self, gv: GlobalVcpu) -> &Vcpu {
        &self.hot[gv]
    }

    #[inline]
    fn vcpu_mut(&mut self, gv: GlobalVcpu) -> &mut Vcpu {
        &mut self.hot[gv]
    }

    /// Number of non-frozen vCPUs of `dom` (the active list of §4.2).
    fn active_vcpu_count(&self, dom: DomId) -> usize {
        self.hot.domain(dom).iter().filter(|v| !v.frozen).count()
    }

    /// The vCPU currently running on `pcpu`, if any.
    pub fn running_on(&self, pcpu: PcpuId) -> Option<GlobalVcpu> {
        self.pcpus[pcpu.index()].current
    }

    /// The pCPU `gv` currently runs on, if it is running.
    pub fn where_running(&self, gv: GlobalVcpu) -> Option<PcpuId> {
        match self.vcpu(gv).state {
            VcpuState::Running { pcpu, .. } => Some(pcpu),
            _ => None,
        }
    }

    /// The state of a vCPU.
    pub fn vcpu_state(&self, gv: GlobalVcpu) -> VcpuState {
        self.vcpu(gv).state
    }

    /// The current priority of a vCPU.
    pub fn vcpu_prio(&self, gv: GlobalVcpu) -> Prio {
        self.vcpu(gv).prio
    }

    /// Whether the guest has frozen this vCPU.
    pub fn is_frozen(&self, gv: GlobalVcpu) -> bool {
        self.vcpu(gv).frozen
    }

    /// Total time `gv` has spent waiting runnable in run queues.
    pub fn vcpu_wait_total(&self, gv: GlobalVcpu) -> SimDuration {
        self.stats[gv].wait_total
    }

    /// Total time `gv` has spent running on pCPUs.
    pub fn vcpu_run_total(&self, gv: GlobalVcpu) -> SimDuration {
        self.stats[gv].run_total
    }

    /// Sum of waiting time across all vCPUs of `dom` (Figure 9 metric).
    pub fn domain_wait_total(&self, dom: DomId) -> SimDuration {
        self.stats
            .domain(dom)
            .iter()
            .fold(SimDuration::ZERO, |acc, v| acc.saturating_add(v.wait_total))
    }

    /// Sum of run time across all vCPUs of `dom`.
    pub fn domain_run_total(&self, dom: DomId) -> SimDuration {
        self.stats
            .domain(dom)
            .iter()
            .fold(SimDuration::ZERO, |acc, v| acc.saturating_add(v.run_total))
    }

    /// Number of vCPUs of `dom`.
    pub fn n_vcpus(&self, dom: DomId) -> usize {
        self.hot.n_vcpus(dom)
    }

    /// Machine-wide run time aggregate in nanoseconds (O(1) read; see
    /// the `total_run_ns` field).
    pub fn total_run_ns(&self) -> u64 {
        self.total_run_ns
    }

    /// Number of vCPU cross-pCPU migrations (steals) performed.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Context switches performed on `pcpu`.
    pub fn switches(&self, pcpu: PcpuId) -> u64 {
        self.pcpus[pcpu.index()].switches
    }

    /// The assignment generation of `pcpu` (bumps on every change).
    pub fn pcpu_gen(&self, pcpu: PcpuId) -> u64 {
        self.pcpus[pcpu.index()].gen
    }

    /// When the vCPU currently on `pcpu` was placed there.
    pub fn run_since(&self, pcpu: PcpuId) -> SimTime {
        self.pcpus[pcpu.index()].run_since
    }

    // ------------------------------------------------------------------
    // Credit accounting.
    // ------------------------------------------------------------------

    /// Burns credits of the vCPU running on `pcpu` for time elapsed since
    /// the last burn point (Xen's `burn_credits`).
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
        // Under sampled accounting the credit balance is charged only at
        // ticks (see `on_tick`); statistics below stay exact regardless so
        // work-conservation invariants and consumption windows hold.
        if !self.config.sampled_burn {
            v.credits_ns -= ran.as_ns() as i64;
            if v.credits_ns < 0 && v.prio != Prio::Over {
                v.prio = Prio::Over;
            }
        }
        self.stats[gv].run_total += ran;
        let dom = &mut self.domains[gv.dom.index()];
        dom.consumed_acct += ran;
        dom.consumed_extend += ran;
        self.total_run_ns += ran.as_ns();
    }

    /// Per-pCPU tick (every [`CreditConfig::tick`]): burn credits, demote
    /// BOOST, and preempt if a higher-priority vCPU is waiting. Resulting
    /// assignment changes are appended to `events`.
    pub fn on_tick(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.burn(pcpu, now);
        let tick_ns = self.config.tick.as_ns() as i64;
        let sampled = self.config.sampled_burn;
        if let Some(gv) = self.pcpus[pcpu.index()].current {
            if sampled {
                // Historical Xen: whoever is caught on the pCPU at the
                // tick pays for the whole tick, whether it ran 10 ms or
                // 10 µs of it. A tenant absent at every sample runs free.
                let v = self.vcpu_mut(gv);
                v.credits_ns -= tick_ns;
                if v.credits_ns < 0 && v.prio == Prio::Under {
                    v.prio = Prio::Over;
                }
            }
            // Xen demotes a boosted vCPU back to its credit-derived priority
            // at the first tick it survives on a pCPU.
            let v = self.vcpu_mut(gv);
            if v.prio == Prio::Boost {
                v.prio = if v.credits_ns >= 0 {
                    Prio::Under
                } else {
                    Prio::Over
                };
            }
            // Optional (non-Xen) tick preemption: let queued
            // higher-priority work through at tick granularity.
            if self.config.tick_preemption {
                let cur_prio = self.vcpu(gv).prio;
                if self.best_waiting_prio(pcpu) < cur_prio as usize {
                    self.deschedule_current(pcpu, now, /* requeue= */ true, events);
                    self.reschedule(pcpu, now, events);
                }
            }
        } else {
            // Idle pCPU: a tick is a natural point to look for work that
            // appeared without a wakeup kick reaching us.
            self.reschedule(pcpu, now, events);
        }
    }

    fn best_waiting_prio(&self, pcpu: PcpuId) -> usize {
        for (i, q) in self.pcpus[pcpu.index()].queues.iter().enumerate() {
            if !q.is_empty() {
                return i;
            }
        }
        PRIO_COUNT
    }

    /// The 30 ms accounting pass (`csched_acct`): distributes one period's
    /// machine capacity to active domains by weight, splits each domain's
    /// share across its active (non-frozen) vCPUs, clips balances, and
    /// enforces per-domain caps — a capped domain that over-consumed its
    /// budget has its vCPUs *parked* (Xen's `CSCHED_FLAG_VCPU_PARKED`)
    /// until the next pass; caps are the one deliberately
    /// non-work-conserving knob. Assignment changes go to `events`.
    pub fn on_acct(&mut self, now: SimTime, events: &mut Vec<SchedEvent>) {
        // Burn everyone up to `now` first so consumption is current.
        for p in 0..self.pcpus.len() {
            self.burn(PcpuId(p), now);
        }
        let period = self.config.tick * u64::from(self.config.ticks_per_acct);
        let total_ns = (period * self.pcpus.len() as u64).as_ns() as i64;
        let cap_ns = period.as_ns() as i64; // At most one full period banked.
        let floor_ns = -cap_ns; // At most one full period over-drawn.

        // Cap enforcement decisions, applied after the credit loop so the
        // domain iteration below stays simple. The decision lists are
        // scheduler-owned scratch (empty outside this call).
        let mut to_park = std::mem::take(&mut self.park_buf);
        let mut to_unpark = std::mem::take(&mut self.unpark_buf);
        debug_assert!(to_park.is_empty() && to_unpark.is_empty());
        for (di, d) in self.domains.iter().enumerate() {
            let Some(cap) = d.cap_pcpus else { continue };
            let budget = SimDuration::from_ns((period.as_ns() as f64 * cap) as u64);
            let over = d.consumed_acct > budget;
            for (vi, v) in self.hot.domain(DomId(di)).iter().enumerate() {
                let gv = GlobalVcpu::new(DomId(di), VcpuId(vi));
                if over && !v.parked {
                    to_park.push(gv);
                } else if !over && v.parked {
                    to_unpark.push(gv);
                }
            }
        }

        // A domain is active if it consumed anything this window or has
        // runnable/running vCPUs right now.
        let mut active = std::mem::take(&mut self.active_buf);
        active.clear();
        active.extend(self.domains.iter().enumerate().map(|(di, d)| {
            !d.consumed_acct.is_zero()
                || self
                    .hot
                    .domain(DomId(di))
                    .iter()
                    .any(|v| !matches!(v.state, VcpuState::Blocked { .. }))
        }));
        let weight_sum: u64 = self
            .domains
            .iter()
            .zip(&active)
            .filter(|&(_, a)| *a)
            .map(|(d, _)| u64::from(d.weight))
            .sum();

        for (di, dom_active) in active.iter().enumerate() {
            self.domains[di].consumed_acct = SimDuration::ZERO;
            if !dom_active || weight_sum == 0 {
                continue;
            }
            let dom_share = total_ns * i64::from(self.domains[di].weight) / weight_sum as i64;
            let n_active = self.active_vcpu_count(DomId(di)).max(1) as i64;
            let per_vcpu = dom_share / n_active;
            for v in self.hot.domain_mut(DomId(di)) {
                if v.frozen {
                    // vScale §4.2: frozen vCPUs are off the active list and
                    // earn nothing; their share went to the siblings above.
                    continue;
                }
                v.credits_ns = (v.credits_ns + per_vcpu).clamp(floor_ns, cap_ns);
                if v.prio != Prio::Boost {
                    v.prio = if v.credits_ns >= 0 {
                        Prio::Under
                    } else {
                        Prio::Over
                    };
                }
            }
        }
        for gv in to_park.drain(..) {
            self.park(gv, now, events);
        }
        for gv in to_unpark.drain(..) {
            self.unpark(gv, now, events);
        }
        self.park_buf = to_park;
        self.unpark_buf = to_unpark;
        self.active_buf = active;
    }

    /// Parks a vCPU (cap exceeded): it leaves its pCPU/queue and will not
    /// be scheduled until unparked.
    fn park(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.vcpu_mut(gv).parked = true;
        match self.vcpu(gv).state {
            VcpuState::Running { pcpu, .. } => {
                self.deschedule_current(pcpu, now, false, events);
                self.vcpu_mut(gv).state = VcpuState::Blocked { since: now };
                self.reschedule(pcpu, now, events);
            }
            VcpuState::Runnable { .. } => {
                self.remove_from_queue(gv, now);
                self.vcpu_mut(gv).state = VcpuState::Blocked { since: now };
            }
            VcpuState::Blocked { .. } => {}
        }
    }

    /// Unparks a vCPU when the cap budget refills; the embedding machine
    /// revalidates whether the guest actually has work for it.
    fn unpark(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.vcpu_mut(gv).parked = false;
        self.vcpu_wake(gv, now, events);
    }

    /// Whether `gv` is parked by cap enforcement.
    pub fn is_parked(&self, gv: GlobalVcpu) -> bool {
        self.vcpu(gv).parked
    }

    // ------------------------------------------------------------------
    // vScale extendability ticker (Algorithm 1 driver).
    // ------------------------------------------------------------------

    /// The vScale ticker (`vscale_ticker_fn`): recomputes every SMP
    /// domain's CPU extendability from consumption over the window since
    /// the previous call. Runs on the pool master every
    /// [`CreditConfig::extend_period`].
    pub fn on_extend_tick(&mut self, now: SimTime) {
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
        // Seqlock-style publication counter: readers compare the version
        // they consumed against this to detect stale serves, and a torn
        // serve (fields mixed across versions) fails snapshot validation.
        self.extend_version += 1;
    }

    /// Reads a domain's latest extendability (the `SCHEDOP_getvscaleinfo`
    /// hypercall payload).
    pub fn extendability(&self, dom: DomId) -> ExtendInfo {
        self.domains[dom.index()].extend
    }

    /// The publication version of the current extendability snapshots:
    /// bumped once per [`CreditScheduler::on_extend_tick`] that republishes.
    /// A reader holding snapshot version `v` knows a serve is stale when
    /// `v < extend_version()` yet the serve repeats version `v`'s fields.
    pub fn extend_version(&self) -> u64 {
        self.extend_version
    }

    // ------------------------------------------------------------------
    // State transitions.
    // ------------------------------------------------------------------

    fn enqueue(&mut self, gv: GlobalVcpu, pcpu: PcpuId, now: SimTime) {
        let prio = self.vcpu(gv).prio;
        self.vcpu_mut(gv).state = VcpuState::Runnable { pcpu, since: now };
        self.pcpus[pcpu.index()].queues[prio as usize].push_back(gv);
    }

    /// Places `gv` on `pcpu` as the running vCPU. Caller must have cleared
    /// `pcpu.current`.
    fn place(&mut self, gv: GlobalVcpu, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        debug_assert!(self.pcpus[pcpu.index()].current.is_none());
        // Account the waiting span that ends now.
        if let VcpuState::Runnable { since, .. } = self.vcpu(gv).state {
            let waited = now.since(since);
            self.stats[gv].wait_total += waited;
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

    /// Removes the running vCPU from `pcpu` (burning its credits), leaving
    /// the pCPU empty. If `requeue`, the vCPU goes to the tail of its
    /// priority queue on the same pCPU; otherwise the caller sets its state.
    fn deschedule_current(
        &mut self,
        pcpu: PcpuId,
        now: SimTime,
        requeue: bool,
        events: &mut Vec<SchedEvent>,
    ) -> Option<GlobalVcpu> {
        let gv = self.pcpus[pcpu.index()].current?;
        self.burn(pcpu, now);
        let p = &mut self.pcpus[pcpu.index()];
        p.current = None;
        p.gen += 1;
        events.push(SchedEvent::Desched { pcpu, vcpu: gv });
        if requeue {
            self.enqueue(gv, pcpu, now);
        }
        Some(gv)
    }

    /// Picks the next vCPU for `pcpu`: local queues first (BOOST, UNDER),
    /// then stealing from peers, then local OVER, then stolen OVER, then
    /// idle. Emits the resulting [`SchedEvent`]s.
    fn reschedule(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        debug_assert!(self.pcpus[pcpu.index()].current.is_none());
        // Local BOOST/UNDER.
        for prio in [Prio::Boost, Prio::Under] {
            if let Some(gv) = self.pcpus[pcpu.index()].queues[prio as usize].pop_front() {
                self.place(gv, pcpu, now, events);
                return;
            }
        }
        // Steal BOOST/UNDER from the busiest peers (work conservation).
        for prio in [Prio::Boost, Prio::Under] {
            if let Some(gv) = self.steal(pcpu, prio) {
                self.migrations += 1;
                self.place(gv, pcpu, now, events);
                return;
            }
        }
        // Local OVER.
        if let Some(gv) = self.pcpus[pcpu.index()].queues[Prio::Over as usize].pop_front() {
            self.place(gv, pcpu, now, events);
            return;
        }
        // Stolen OVER.
        if let Some(gv) = self.steal(pcpu, Prio::Over) {
            self.migrations += 1;
            self.place(gv, pcpu, now, events);
            return;
        }
        events.push(SchedEvent::Idle { pcpu });
    }

    /// Takes one `prio` vCPU from the peer with the longest queue.
    fn steal(&mut self, thief: PcpuId, prio: Prio) -> Option<GlobalVcpu> {
        let victim = self
            .pcpus
            .iter()
            .enumerate()
            .filter(|&(i, p)| i != thief.index() && !p.queues[prio as usize].is_empty())
            .max_by_key(|&(_, p)| p.queued_len())
            .map(|(i, _)| PcpuId(i))?;
        let gv = self.pcpus[victim.index()].queues[prio as usize].pop_front()?;
        // Keep its `Runnable.since` so the waiting span stays contiguous.
        if let VcpuState::Runnable { since, .. } = self.vcpu(gv).state {
            self.vcpu_mut(gv).state = VcpuState::Runnable { pcpu: thief, since };
        }
        Some(gv)
    }

    /// A vCPU blocks voluntarily (guest idle / HLT / `SCHEDOP_poll`).
    /// Assignment changes are appended to `events`.
    pub fn vcpu_block(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        match self.vcpu(gv).state {
            VcpuState::Running { pcpu, .. } => {
                self.deschedule_current(pcpu, now, false, events);
                self.vcpu_mut(gv).state = VcpuState::Blocked { since: now };
                self.reschedule(pcpu, now, events);
            }
            VcpuState::Runnable { .. } => {
                // Raced: it was preempted and now blocks from the queue.
                self.remove_from_queue(gv, now);
                self.vcpu_mut(gv).state = VcpuState::Blocked { since: now };
            }
            VcpuState::Blocked { .. } => {}
        }
    }

    fn remove_from_queue(&mut self, gv: GlobalVcpu, now: SimTime) {
        if let VcpuState::Runnable { pcpu, since } = self.vcpu(gv).state {
            for queue in self.pcpus[pcpu.index()].queues.iter_mut() {
                if let Some(pos) = queue.iter().position(|&x| x == gv) {
                    queue.remove(pos);
                    break;
                }
            }
            let waited = now.since(since);
            self.stats[gv].wait_total += waited;
        }
    }

    /// Wakes a blocked vCPU (pending interrupt or event-channel kick).
    ///
    /// An UNDER vCPU is promoted to BOOST (if enabled) so it reaches a pCPU
    /// quickly; it may preempt the current occupant of its home pCPU if that
    /// occupant has run at least the ratelimit and has lower priority.
    pub fn vcpu_wake(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        if !matches!(self.vcpu(gv).state, VcpuState::Blocked { .. }) {
            return;
        }
        if self.vcpu(gv).parked {
            // Cap-parked: stays off pCPUs until the next accounting pass.
            return;
        }
        if self.config.boost && self.vcpu(gv).credits_ns >= 0 {
            self.vcpu_mut(gv).prio = Prio::Boost;
        }
        // Prefer an idle pCPU anywhere in the pool; fall back to home.
        let home = self.vcpu(gv).last_pcpu;
        let target = self.idle_pcpu().unwrap_or(home);
        self.enqueue(gv, target, now);
        self.maybe_preempt(target, now, events, gv);
    }

    fn idle_pcpu(&self) -> Option<PcpuId> {
        self.pcpus
            .iter()
            .position(|p| p.current.is_none() && p.queued_len() == 0)
            .map(PcpuId)
    }

    /// Preempts `pcpu`'s current vCPU if a strictly higher-priority vCPU
    /// waits in its queue and the ratelimit allows it; also fills an idle
    /// pCPU. `cause` is the vCPU whose arrival prompted the check — under
    /// the kick-throttle defense its domain is charged for BOOST
    /// evictions deferred beyond the ratelimit.
    fn maybe_preempt(
        &mut self,
        pcpu: PcpuId,
        now: SimTime,
        events: &mut Vec<SchedEvent>,
        cause: GlobalVcpu,
    ) {
        match self.pcpus[pcpu.index()].current {
            None => self.reschedule(pcpu, now, events),
            Some(cur) => {
                let cur_prio = self.vcpu(cur).prio as usize;
                let best = self.best_waiting_prio(pcpu);
                let ran = now.since(self.pcpus[pcpu.index()].run_since);
                if best >= cur_prio || ran < self.config.ratelimit {
                    return;
                }
                // Kick-throttle defense: BOOST arrivals evict only an
                // occupant that has run KICK_THROTTLE_FACTOR× the
                // ratelimit, bounding wake-storm preemption farming.
                if self.config.kick_throttle
                    && best == Prio::Boost as usize
                    && ran < self.config.ratelimit * KICK_THROTTLE_FACTOR
                {
                    self.domains[cause.dom.index()].kicks_throttled += 1;
                    return;
                }
                self.deschedule_current(pcpu, now, true, events);
                self.reschedule(pcpu, now, events);
            }
        }
    }

    /// The running vCPU on `pcpu` yields (pv-spinlock `SCHEDOP_yield`):
    /// it goes to the back of its priority queue.
    pub fn vcpu_yield(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        if let VcpuState::Running { pcpu, .. } = self.vcpu(gv).state {
            self.deschedule_current(pcpu, now, true, events);
            self.reschedule(pcpu, now, events);
        }
    }

    /// End of the 30 ms quantum on `pcpu`: round-robin to the next vCPU.
    pub fn slice_expired(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        if self.pcpus[pcpu.index()].current.is_some() {
            self.deschedule_current(pcpu, now, true, events);
            self.reschedule(pcpu, now, events);
        }
    }

    /// Marks `gv` frozen/unfrozen (the `SCHEDOP_freezecpu` hypercall).
    ///
    /// Freezing only changes credit accounting — the vCPU keeps its pCPU
    /// until the guest finishes evacuating it and blocks (Algorithm 2's
    /// split design). Unfreezing re-adds it to the active list; the guest
    /// wakes it separately.
    pub fn set_frozen(&mut self, gv: GlobalVcpu, frozen: bool) {
        self.vcpu_mut(gv).frozen = frozen;
    }

    /// Kicks a vCPU for a pending reconfiguration IPI: wakes it with BOOST
    /// priority and preempts aggressively so Algorithm 2's target-side work
    /// happens promptly (§4.2: the hypervisor "tickles the reconfigured
    /// vCPU and prioritizes its scheduling").
    pub fn kick_vcpu(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        match self.vcpu(gv).state {
            VcpuState::Blocked { .. } => {
                self.vcpu_mut(gv).prio = Prio::Boost;
                let target = self.idle_pcpu().unwrap_or(self.vcpu(gv).last_pcpu);
                self.enqueue(gv, target, now);
                // Reconfiguration kicks bypass the ratelimit — unless the
                // kick-throttle defense bounds that bypass.
                match self.pcpus[target.index()].current {
                    None => self.reschedule(target, now, events),
                    Some(cur) if self.vcpu(cur).prio > Prio::Boost => {
                        let ran = now.since(self.pcpus[target.index()].run_since);
                        if self.config.kick_throttle && ran < self.config.ratelimit {
                            // Stays queued at BOOST; it gets the pCPU at
                            // the next natural scheduling point instead
                            // of evicting a freshly placed occupant.
                            self.domains[gv.dom.index()].kicks_throttled += 1;
                        } else {
                            self.deschedule_current(target, now, true, events);
                            self.reschedule(target, now, events);
                        }
                    }
                    Some(_) => {}
                }
            }
            VcpuState::Runnable { pcpu, .. } => {
                // Bump to BOOST in place.
                self.remove_from_queue(gv, now);
                self.vcpu_mut(gv).prio = Prio::Boost;
                self.enqueue(gv, pcpu, now);
                self.maybe_preempt(pcpu, now, events, gv);
            }
            VcpuState::Running { .. } => {}
        }
    }

    /// Signed credit balance of `gv`, in nanoseconds (test/inspection hook).
    pub fn credits_ns(&self, gv: GlobalVcpu) -> i64 {
        self.vcpu(gv).credits_ns
    }

    /// Kick-path evictions suppressed by the kick-throttle defense for
    /// kicks aimed at `dom`'s vCPUs.
    pub fn kicks_throttled(&self, dom: DomId) -> u64 {
        self.domains[dom.index()].kicks_throttled
    }

    /// How many times `gv` has been placed on a pCPU.
    pub fn scheduled_count(&self, gv: GlobalVcpu) -> u64 {
        self.stats[gv].scheduled_count
    }

    /// Convenience: wake every vCPU of a domain (used at guest boot).
    pub fn wake_domain(&mut self, dom: DomId, now: SimTime, events: &mut Vec<SchedEvent>) {
        let n = self.hot.n_vcpus(dom);
        for i in 0..n {
            self.vcpu_wake(GlobalVcpu::new(dom, VcpuId(i)), now, events);
        }
    }
}

/// Test helper: runs a sink-style scheduler call and returns the events it
/// appended, restoring the `Vec`-returning shape the assertions read best in.
#[cfg(test)]
fn collect(f: impl FnOnce(&mut Vec<SchedEvent>)) -> Vec<SchedEvent> {
    let mut out = Vec::new();
    f(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gv(d: usize, v: usize) -> GlobalVcpu {
        GlobalVcpu::new(DomId(d), VcpuId(v))
    }

    fn sched(n_pcpus: usize) -> CreditScheduler {
        CreditScheduler::new(CreditConfig::default(), n_pcpus)
    }

    #[test]
    fn wake_places_vcpu_on_idle_pcpu() {
        let mut s = sched(2);
        s.create_domain(256, 1, None, None);
        let ev = collect(|ev| s.vcpu_wake(gv(0, 0), SimTime::ZERO, ev));
        assert!(ev.contains(&SchedEvent::Run {
            pcpu: PcpuId(0),
            vcpu: gv(0, 0)
        }));
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 0)));
    }

    #[test]
    fn two_vcpus_spread_over_two_pcpus() {
        let mut s = sched(2);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 0)));
        assert_eq!(s.running_on(PcpuId(1)), Some(gv(0, 1)));
    }

    #[test]
    fn tick_evader_escapes_sampled_charging_but_not_exact() {
        // A vCPU that runs 9.9 ms and blocks just before the 10 ms tick:
        // under sampled accounting it is never charged (the Zhou et al.
        // theft), under exact accounting it pays for what it ran.
        for (sampled, want_charged) in [(true, false), (false, true)] {
            let cfg = CreditConfig {
                sampled_burn: sampled,
                ..CreditConfig::default()
            };
            let mut s = CreditScheduler::new(cfg, 1);
            s.create_domain(256, 1, None, None);
            let mut ev = Vec::new();
            s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut ev);
            s.vcpu_block(
                gv(0, 0),
                SimTime::ZERO + SimDuration::from_us(9_900),
                &mut ev,
            );
            s.on_tick(PcpuId(0), SimTime::ZERO + SimDuration::from_ms(10), &mut ev);
            assert_eq!(s.credits_ns(gv(0, 0)) < 0, want_charged);
            // Statistics stay exact in both modes.
            assert_eq!(s.vcpu_run_total(gv(0, 0)), SimDuration::from_us(9_900));
        }
    }

    #[test]
    fn sampled_burn_charges_the_tick_occupant_a_whole_tick() {
        let cfg = CreditConfig {
            sampled_burn: true,
            ..CreditConfig::default()
        };
        let mut s = CreditScheduler::new(cfg, 1);
        s.create_domain(256, 1, None, None);
        let mut ev = Vec::new();
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut ev);
        s.on_tick(PcpuId(0), SimTime::ZERO + SimDuration::from_ms(10), &mut ev);
        assert_eq!(s.credits_ns(gv(0, 0)), -10_000_000);
    }

    #[test]
    fn kick_throttle_defers_eviction_within_ratelimit() {
        for throttle in [false, true] {
            let cfg = CreditConfig {
                boost: false,
                kick_throttle: throttle,
                ..CreditConfig::default()
            };
            let mut s = CreditScheduler::new(cfg, 1);
            s.create_domain(256, 1, None, None); // victim
            s.create_domain(256, 1, None, None); // attacker
            let mut ev = Vec::new();
            s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut ev);
            // Kick 0.5 ms into the victim's run — inside the ratelimit.
            let t = SimTime::ZERO + SimDuration::from_us(500);
            s.kick_vcpu(gv(1, 0), t, &mut ev);
            if throttle {
                assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 0)));
                assert_eq!(s.kicks_throttled(DomId(1)), 1);
            } else {
                assert_eq!(s.running_on(PcpuId(0)), Some(gv(1, 0)));
                assert_eq!(s.kicks_throttled(DomId(1)), 0);
            }
        }
    }

    #[test]
    fn block_frees_pcpu_and_next_runs() {
        let mut s = sched(1);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 0)));
        let ev = collect(|ev| s.vcpu_block(gv(0, 0), SimTime::from_ms(5), ev));
        assert!(ev.contains(&SchedEvent::Run {
            pcpu: PcpuId(0),
            vcpu: gv(0, 1)
        }));
    }

    #[test]
    fn slice_expiry_round_robins() {
        let mut s = sched(1);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        let ev = collect(|ev| s.slice_expired(PcpuId(0), SimTime::from_ms(30), ev));
        assert!(ev.contains(&SchedEvent::Run {
            pcpu: PcpuId(0),
            vcpu: gv(0, 1)
        }));
        let ev = collect(|ev| s.slice_expired(PcpuId(0), SimTime::from_ms(60), ev));
        assert!(ev.contains(&SchedEvent::Run {
            pcpu: PcpuId(0),
            vcpu: gv(0, 0)
        }));
    }

    #[test]
    fn burning_credits_demotes_to_over() {
        let mut s = sched(1);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        // Run 10 ms with zero starting credits -> negative balance -> OVER.
        s.on_tick(PcpuId(0), SimTime::from_ms(10), &mut Vec::new());
        assert_eq!(s.vcpu_prio(gv(0, 0)), Prio::Over);
        assert!(s.credits_ns(gv(0, 0)) < 0);
    }

    #[test]
    fn acct_distributes_by_weight() {
        let mut s = sched(1);
        s.create_domain(512, 1, None, None); // Double weight.
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(1, 0), SimTime::ZERO, &mut Vec::new());
        s.on_acct(SimTime::from_ms(30), &mut Vec::new());
        let c0 = s.credits_ns(gv(0, 0));
        let c1 = s.credits_ns(gv(1, 0));
        // dom0 ran the whole 30 ms (burn 30 ms) then got 20 ms; dom1 got
        // 10 ms and burned nothing.
        assert!(c0 < c1, "heavier domain burned more: {c0} vs {c1}");
        // Shares are 2:1 of 30 ms => 20 ms and 10 ms.
        assert_eq!(c1, SimDuration::from_ms(10).as_ns() as i64);
    }

    #[test]
    fn frozen_vcpu_earns_nothing_and_siblings_earn_more() {
        let mut s = sched(2);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.set_frozen(gv(0, 1), true);
        s.on_acct(SimTime::from_ms(30), &mut Vec::new());
        // Whole domain share (2 pcpus * 30ms = 60ms worth) goes to vcpu0,
        // clipped at the +30 ms cap; vcpu1 gets nothing.
        assert_eq!(s.credits_ns(gv(0, 1)), 0);
        let c0 = s.credits_ns(gv(0, 0));
        assert!(c0 > 0);
        // vcpu0 burned 30ms then received min(60ms, cap)... net must exceed
        // the split-both-ways alternative (60/2 - 30 = 0).
        assert!(c0 > 0, "unfrozen sibling should net positive, got {c0}");
    }

    #[test]
    fn boost_preempts_over_vcpu() {
        let mut s = sched(1);
        s.create_domain(256, 1, None, None);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        // Burn dom0 down to OVER.
        s.on_tick(PcpuId(0), SimTime::from_ms(10), &mut Vec::new());
        assert_eq!(s.vcpu_prio(gv(0, 0)), Prio::Over);
        // dom1 wakes with zero credits (>= 0 -> boost).
        let ev = collect(|ev| s.vcpu_wake(gv(1, 0), SimTime::from_ms(15), ev));
        assert!(
            ev.contains(&SchedEvent::Run {
                pcpu: PcpuId(0),
                vcpu: gv(1, 0)
            }),
            "boosted wakeup should preempt OVER vcpu: {ev:?}"
        );
    }

    #[test]
    fn ratelimit_defers_preemption() {
        let mut s = CreditScheduler::new(
            CreditConfig {
                tick_preemption: true,
                ..CreditConfig::default()
            },
            1,
        );
        s.create_domain(256, 1, None, None);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.on_tick(PcpuId(0), SimTime::from_ms(10), &mut Vec::new()); // dom0 -> OVER.
        s.slice_expired(PcpuId(0), SimTime::from_ms(10), &mut Vec::new()); // Restart run_since.
                                                                           // Wake 0.5 ms into dom0's new run: below the 1 ms ratelimit.
        let ev = collect(|ev| {
            s.vcpu_wake(
                gv(1, 0),
                SimTime::from_ms(10) + SimDuration::from_us(500),
                ev,
            )
        });
        assert!(
            !ev.iter()
                .any(|e| matches!(e, SchedEvent::Run { vcpu, .. } if *vcpu == gv(1, 0))),
            "preemption should be deferred by ratelimit: {ev:?}"
        );
        // The next tick lets it through.
        let ev = collect(|ev| s.on_tick(PcpuId(0), SimTime::from_ms(20), ev));
        assert!(ev
            .iter()
            .any(|e| matches!(e, SchedEvent::Run { vcpu, .. } if *vcpu == gv(1, 0))));
    }

    #[test]
    fn idle_pcpu_steals_runnable_work() {
        let mut s = sched(2);
        s.create_domain(256, 2, None, None);
        // Force both vcpus onto pcpu0's queue by waking while pcpu1 busy.
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(1, 0), SimTime::ZERO, &mut Vec::new()); // Takes pcpu0.
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new()); // Takes pcpu1.
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new()); // Queued somewhere.
                                                               // Now block the vcpu on pcpu1; it must steal gv(0,1) from pcpu0's
                                                               // queue rather than idle.
        let running_p1 = s.running_on(PcpuId(1)).unwrap();
        let ev = collect(|ev| s.vcpu_block(running_p1, SimTime::from_ms(1), ev));
        assert!(
            ev.iter().any(|e| matches!(
                e,
                SchedEvent::Run {
                    pcpu: PcpuId(1),
                    ..
                }
            )),
            "pcpu1 should have found work: {ev:?}"
        );
    }

    #[test]
    fn waiting_time_accumulates_while_queued() {
        let mut s = sched(1);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        // vcpu1 waits 30 ms for the slice to expire.
        s.slice_expired(PcpuId(0), SimTime::from_ms(30), &mut Vec::new());
        assert_eq!(s.vcpu_wait_total(gv(0, 1)), SimDuration::from_ms(30));
        assert_eq!(s.vcpu_wait_total(gv(0, 0)), SimDuration::ZERO);
        assert_eq!(s.domain_wait_total(DomId(0)), SimDuration::from_ms(30));
    }

    #[test]
    fn run_total_tracks_cpu_time() {
        let mut s = sched(1);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.on_tick(PcpuId(0), SimTime::from_ms(10), &mut Vec::new());
        s.on_tick(PcpuId(0), SimTime::from_ms(20), &mut Vec::new());
        assert_eq!(s.vcpu_run_total(gv(0, 0)), SimDuration::from_ms(20));
    }

    #[test]
    fn yield_moves_to_queue_tail() {
        let mut s = sched(1);
        s.create_domain(256, 3, None, None);
        for i in 0..3 {
            s.vcpu_wake(gv(0, i), SimTime::ZERO, &mut Vec::new());
        }
        // Order now: running vcpu0; queue [vcpu1, vcpu2].
        let ev = collect(|ev| s.vcpu_yield(gv(0, 0), SimTime::from_ms(1), ev));
        assert!(ev
            .iter()
            .any(|e| matches!(e, SchedEvent::Run { vcpu, .. } if *vcpu == gv(0, 1))));
        let ev = collect(|ev| s.vcpu_yield(gv(0, 1), SimTime::from_ms(2), ev));
        assert!(ev
            .iter()
            .any(|e| matches!(e, SchedEvent::Run { vcpu, .. } if *vcpu == gv(0, 2))));
    }

    #[test]
    fn kick_vcpu_preempts_immediately() {
        let mut s = sched(1);
        s.create_domain(256, 1, None, None);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        // Demote dom0's boost with a tick, then kick dom1's blocked vCPU
        // shortly after — within the ratelimit window: still preempts
        // (the reconfiguration path bypasses the ratelimit).
        s.on_tick(PcpuId(0), SimTime::from_ms(10), &mut Vec::new());
        let ev = collect(|ev| {
            s.kick_vcpu(
                gv(1, 0),
                SimTime::from_ms(10) + SimDuration::from_us(100),
                ev,
            )
        });
        assert!(
            ev.iter()
                .any(|e| matches!(e, SchedEvent::Run { vcpu, .. } if *vcpu == gv(1, 0))),
            "kick should place the target immediately: {ev:?}"
        );
    }

    #[test]
    fn gen_bumps_on_assignment_changes() {
        let mut s = sched(1);
        s.create_domain(256, 2, None, None);
        let g0 = s.pcpu_gen(PcpuId(0));
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        assert!(s.pcpu_gen(PcpuId(0)) > g0);
        let g1 = s.pcpu_gen(PcpuId(0));
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        // No preemption (same prio): gen unchanged.
        assert_eq!(s.pcpu_gen(PcpuId(0)), g1);
        s.slice_expired(PcpuId(0), SimTime::from_ms(30), &mut Vec::new());
        assert!(s.pcpu_gen(PcpuId(0)) > g1);
    }

    #[test]
    fn blocked_wake_is_idempotent() {
        let mut s = sched(1);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        let ev = collect(|ev| s.vcpu_wake(gv(0, 0), SimTime::from_ms(1), ev));
        assert!(ev.is_empty(), "waking a running vcpu is a no-op");
    }
}

#[cfg(test)]
mod cap_tests {
    use super::*;

    fn gv(d: usize, v: usize) -> GlobalVcpu {
        GlobalVcpu::new(DomId(d), VcpuId(v))
    }

    /// Drives ticks + acct through one window with a CPU-hog domain.
    fn run_windows(s: &mut CreditScheduler, windows: u64) -> SimTime {
        let mut t = SimTime::ZERO;
        for w in 1..=windows {
            for k in 1..=3u64 {
                t = SimTime::from_ms((w - 1) * 30 + k * 10);
                for p in 0..s.n_pcpus() {
                    s.on_tick(PcpuId(p), t, &mut Vec::new());
                }
            }
            s.on_acct(t, &mut Vec::new());
        }
        t
    }

    #[test]
    fn capped_hog_is_parked_and_released() {
        let mut s = CreditScheduler::new(CreditConfig::default(), 1);
        // Cap at half a pCPU.
        s.create_domain(256, 1, Some(0.5), None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        // First window: consumed 30 ms > 15 ms budget -> parked.
        let t = run_windows(&mut s, 1);
        assert!(s.is_parked(gv(0, 0)), "over-cap vCPU must be parked");
        assert!(
            matches!(s.vcpu_state(gv(0, 0)), VcpuState::Blocked { .. }),
            "parked vCPU leaves the pCPU"
        );
        // Wakes while parked are refused.
        let ev = collect(|ev| s.vcpu_wake(gv(0, 0), t + SimDuration::from_ms(1), ev));
        assert!(ev.is_empty());
        // Next acct (no consumption this window): unparked and running.
        let t2 = SimTime::from_ms(60);
        let ev = collect(|ev| s.on_acct(t2, ev));
        assert!(!s.is_parked(gv(0, 0)));
        assert!(
            ev.iter()
                .any(|e| matches!(e, SchedEvent::Run { vcpu, .. } if *vcpu == gv(0, 0))),
            "unparked vCPU should be rescheduled: {ev:?}"
        );
    }

    #[test]
    fn cap_limits_long_run_share() {
        let mut s = CreditScheduler::new(CreditConfig::default(), 1);
        s.create_domain(256, 1, Some(0.5), None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        // Alternating park/unpark over many windows: consumption well
        // under 100%.
        let mut wakes = 0;
        for w in 1..=20u64 {
            let t = run_windows_from(&mut s, w);
            if !s.is_parked(gv(0, 0)) && matches!(s.vcpu_state(gv(0, 0)), VcpuState::Blocked { .. })
            {
                s.vcpu_wake(gv(0, 0), t, &mut Vec::new());
                wakes += 1;
            }
        }
        let _ = wakes;
        let share = s.vcpu_run_total(gv(0, 0)).as_ms_f64() / 600.0;
        assert!(
            share < 0.75,
            "cap 0.5 must bound the long-run share, got {share:.2}"
        );
        assert!(share > 0.25, "capped domain still runs, got {share:.2}");
    }

    fn run_windows_from(s: &mut CreditScheduler, window: u64) -> SimTime {
        let mut t = SimTime::ZERO;
        for k in 1..=3u64 {
            t = SimTime::from_ms((window - 1) * 30 + k * 10);
            for p in 0..s.n_pcpus() {
                s.on_tick(PcpuId(p), t, &mut Vec::new());
            }
        }
        s.on_acct(t, &mut Vec::new());
        t
    }

    #[test]
    fn uncapped_domain_never_parks() {
        let mut s = CreditScheduler::new(CreditConfig::default(), 1);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        run_windows(&mut s, 5);
        assert!(!s.is_parked(gv(0, 0)));
        assert_eq!(s.vcpu_run_total(gv(0, 0)), SimDuration::from_ms(150));
    }
}

#[cfg(test)]
mod scheduler_behaviour_tests {
    use super::*;

    fn gv(d: usize, v: usize) -> GlobalVcpu {
        GlobalVcpu::new(DomId(d), VcpuId(v))
    }

    #[test]
    fn boost_is_demoted_at_first_tick() {
        let mut s = CreditScheduler::new(CreditConfig::default(), 1);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        assert_eq!(s.vcpu_prio(gv(0, 0)), Prio::Boost);
        s.on_tick(PcpuId(0), SimTime::from_ms(10), &mut Vec::new());
        assert_ne!(s.vcpu_prio(gv(0, 0)), Prio::Boost);
    }

    #[test]
    fn boost_disabled_wakes_at_under() {
        let mut s = CreditScheduler::new(
            CreditConfig {
                boost: false,
                ..CreditConfig::default()
            },
            1,
        );
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        assert_eq!(s.vcpu_prio(gv(0, 0)), Prio::Under);
    }

    #[test]
    fn steal_prefers_higher_priority_work() {
        let mut s = CreditScheduler::new(CreditConfig::default(), 2);
        s.create_domain(256, 1, None, None); // Will go OVER.
        s.create_domain(256, 1, None, None); // Stays UNDER (fresh).
        s.create_domain(256, 1, None, None); // Occupies pcpu1.
                                             // dom0 runs on pcpu0 and overdraws.
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(2, 0), SimTime::ZERO, &mut Vec::new()); // pcpu1.
        s.on_tick(PcpuId(0), SimTime::from_ms(10), &mut Vec::new()); // dom0 -> OVER.
        s.on_tick(PcpuId(1), SimTime::from_ms(10), &mut Vec::new());
        // Preempt dom0 with a boosted wake; dom0 requeues OVER, dom1
        // queues UNDER behind it... place both in pcpu0's queues.
        s.vcpu_yield(gv(0, 0), SimTime::from_ms(11), &mut Vec::new()); // Requeue at OVER.
                                                                       // dom0 immediately rescheduled (only local); now wake dom1 onto
                                                                       // the same pcpu by blocking... simpler: force dom1 runnable while
                                                                       // pcpu0 busy with dom0.
        s.vcpu_wake(gv(1, 0), SimTime::from_ms(11), &mut Vec::new());
        // dom1 is boosted: it should have preempted dom0 on pcpu0 or
        // taken an idle pcpu; either way a runnable OVER dom0 remains.
        // Now block dom2 on pcpu1: pcpu1 must steal the best waiting
        // vcpu, which is whichever has higher priority.
        let ev = collect(|ev| s.vcpu_block(gv(2, 0), SimTime::from_ms(12), ev));
        let ran: Vec<_> = ev
            .iter()
            .filter_map(|e| match e {
                SchedEvent::Run { pcpu, vcpu } if *pcpu == PcpuId(1) => Some(*vcpu),
                _ => None,
            })
            .collect();
        assert_eq!(ran.len(), 1, "pcpu1 must steal exactly one vcpu: {ev:?}");
        // The stolen vcpu must not leave a higher-priority vcpu waiting.
        let stolen = ran[0];
        let other = if stolen == gv(0, 0) {
            gv(1, 0)
        } else {
            gv(0, 0)
        };
        if matches!(s.vcpu_state(other), VcpuState::Runnable { .. }) {
            assert!(
                s.vcpu_prio(stolen) <= s.vcpu_prio(other),
                "stole {stolen} ({:?}) while {other} ({:?}) waits",
                s.vcpu_prio(stolen),
                s.vcpu_prio(other)
            );
        }
    }

    #[test]
    fn slice_expiry_on_idle_pcpu_is_harmless() {
        let mut s = CreditScheduler::new(CreditConfig::default(), 1);
        s.create_domain(256, 1, None, None);
        let ev = collect(|ev| s.slice_expired(PcpuId(0), SimTime::from_ms(30), ev));
        assert!(ev.is_empty());
    }

    #[test]
    fn wait_accounting_survives_steals() {
        // A vcpu stolen to another pcpu keeps accumulating one contiguous
        // waiting span.
        let mut s = CreditScheduler::new(CreditConfig::default(), 2);
        s.create_domain(256, 3, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 2), SimTime::ZERO, &mut Vec::new()); // Queued somewhere.
                                                               // Block one running vcpu at 7 ms: the queued one is stolen/run.
        let running = s.running_on(PcpuId(1)).unwrap();
        s.vcpu_block(running, SimTime::from_ms(7), &mut Vec::new());
        assert_eq!(
            s.vcpu_wait_total(gv(0, 2)),
            SimDuration::from_ms(7),
            "waiting span must be contiguous across the steal"
        );
    }

    #[test]
    fn scheduled_count_tracks_placements() {
        let mut s = CreditScheduler::new(CreditConfig::default(), 1);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        assert_eq!(s.scheduled_count(gv(0, 0)), 1);
        s.slice_expired(PcpuId(0), SimTime::from_ms(30), &mut Vec::new());
        s.slice_expired(PcpuId(0), SimTime::from_ms(60), &mut Vec::new());
        assert_eq!(s.scheduled_count(gv(0, 0)), 2);
        assert_eq!(s.scheduled_count(gv(0, 1)), 1);
        assert!(s.switches(PcpuId(0)) >= 3);
    }

    #[test]
    fn reservation_is_respected_in_extendability() {
        let mut s = CreditScheduler::new(CreditConfig::default(), 4);
        s.create_domain(1, 4, None, Some(2.0)); // Tiny weight, 2-pCPU floor.
        s.create_domain(10_000, 4, None, None);
        s.vcpu_wake(gv(1, 0), SimTime::ZERO, &mut Vec::new());
        for p in 0..4 {
            s.on_tick(PcpuId(p), SimTime::from_ms(10), &mut Vec::new());
        }
        s.on_extend_tick(SimTime::from_ms(10));
        let info = s.extendability(DomId(0));
        assert!(info.ext_pcpus() >= 1.99, "reservation floor: {info:?}");
    }
}

#[cfg(test)]
mod scheduler_proptests {
    use super::*;
    use testkit::Config;
    use testkit::{bool_any, prop_assert, run_prop, tuple2, tuple3, u8_in, usize_in, vec_of};

    /// Structural invariants that must hold after every operation:
    /// - each pCPU runs at most one vCPU, and that vCPU's state agrees;
    /// - every Runnable vCPU appears in exactly one queue, exactly once;
    /// - no Running/queued vCPU is also Blocked;
    /// - run/wait totals never decrease.
    fn check_invariants(s: &CreditScheduler, doms: &[(usize, usize)]) -> Result<(), String> {
        let mut running_seen = std::collections::HashSet::new();
        for p in 0..s.n_pcpus() {
            if let Some(gv) = s.running_on(PcpuId(p)) {
                if !running_seen.insert(gv) {
                    return Err(format!("{gv} running on two pCPUs"));
                }
                match s.vcpu_state(gv) {
                    VcpuState::Running { pcpu, .. } if pcpu == PcpuId(p) => {}
                    other => return Err(format!("{gv} on pcpu{p} but state {other:?}")),
                }
            }
        }
        for &(d, nv) in doms {
            for v in 0..nv {
                let gv = GlobalVcpu::new(DomId(d), VcpuId(v));
                match s.vcpu_state(gv) {
                    VcpuState::Running { pcpu, .. } => {
                        if s.running_on(pcpu) != Some(gv) {
                            return Err(format!("{gv} claims {pcpu} but it runs someone else"));
                        }
                    }
                    VcpuState::Runnable { .. } | VcpuState::Blocked { .. } => {}
                }
            }
        }
        Ok(())
    }

    #[test]
    fn random_op_sequences_preserve_invariants() {
        let gen = tuple2(
            usize_in(1..4),
            vec_of(tuple3(u8_in(0..7), usize_in(0..8), bool_any()), 1..120),
        );
        run_prop(
            "random_op_sequences_preserve_invariants",
            Config::with_cases(64),
            &gen,
            |(n_pcpus, ops)| {
                let n_pcpus = *n_pcpus;
                let mut s = CreditScheduler::new(CreditConfig::default(), n_pcpus);
                // Two domains, 2 vCPUs each.
                let doms = [(0usize, 2usize), (1, 2)];
                s.create_domain(256, 2, None, None);
                s.create_domain(512, 2, Some(1.5), None);
                let mut t = SimTime::ZERO;
                let mut prev_run = SimDuration::ZERO;
                let mut prev_wait = SimDuration::ZERO;
                for &(kind, idx, flag) in ops {
                    t += SimDuration::from_us(500);
                    let gv = GlobalVcpu::new(DomId(idx % 2), VcpuId(idx / 2 % 2));
                    match kind {
                        0 => {
                            s.vcpu_wake(gv, t, &mut Vec::new());
                        }
                        1 => {
                            s.vcpu_block(gv, t, &mut Vec::new());
                        }
                        2 => {
                            s.vcpu_yield(gv, t, &mut Vec::new());
                        }
                        3 => {
                            s.on_tick(PcpuId(idx % n_pcpus), t, &mut Vec::new());
                        }
                        4 => {
                            s.slice_expired(PcpuId(idx % n_pcpus), t, &mut Vec::new());
                        }
                        5 => {
                            s.on_acct(t, &mut Vec::new());
                        }
                        _ => {
                            // Never freeze vcpu0 of a domain (mirrors the
                            // daemon's rule) and only via the guest path.
                            if idx / 2 % 2 == 1 {
                                s.set_frozen(gv, flag);
                            }
                        }
                    }
                    check_invariants(&s, &doms).map_err(|e| format!("after {kind}/{idx}: {e}"))?;
                    // Totals are monotone.
                    let run: SimDuration = doms
                        .iter()
                        .map(|&(d, _)| s.domain_run_total(DomId(d)))
                        .fold(SimDuration::ZERO, |a, b| a + b);
                    let wait: SimDuration = doms
                        .iter()
                        .map(|&(d, _)| s.domain_wait_total(DomId(d)))
                        .fold(SimDuration::ZERO, |a, b| a + b);
                    prop_assert!(run >= prev_run, "run total went backwards");
                    prop_assert!(wait >= prev_wait, "wait total went backwards");
                    prev_run = run;
                    prev_wait = wait;
                }
                // CPU conservation: total run time <= elapsed * pcpus.
                let elapsed = t.since(SimTime::ZERO);
                prop_assert!(prev_run <= elapsed * n_pcpus as u64 + SimDuration::from_us(1));
                Ok(())
            },
        );
    }
}

// ---------------------------------------------------------------------------
// Migration export
// ---------------------------------------------------------------------------

mod migration {
    use super::*;
    use crate::api::{DomSchedExport, VcpuSchedExport};

    impl CreditScheduler {
        /// Extracts the migration payload for `dom`, carrying the credit
        /// balance alongside the generic flags.
        pub fn export_domain_state(&self, dom: DomId) -> DomSchedExport {
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

        /// Installs a migration payload into `dom` (a freshly created,
        /// fully blocked twin), restoring credit balances and waking the
        /// vCPUs that had runnable work at export.
        pub fn import_domain_state(
            &mut self,
            dom: DomId,
            x: &DomSchedExport,
            now: SimTime,
            events: &mut Vec<SchedEvent>,
        ) {
            assert_eq!(
                x.vcpus.len(),
                self.hot.n_vcpus(dom),
                "vCPU count mismatch on import"
            );
            for (i, vx) in x.vcpus.iter().enumerate() {
                let gv = GlobalVcpu::new(dom, VcpuId(i));
                {
                    let v = &mut self.hot[gv];
                    v.credits_ns = vx.credit;
                    v.prio = if vx.credit > 0 {
                        Prio::Under
                    } else {
                        Prio::Over
                    };
                }
                if vx.runnable && matches!(self.hot[gv].state, VcpuState::Blocked { .. }) {
                    self.vcpu_wake(gv, now, events);
                }
                self.hot[gv].frozen = vx.frozen;
            }
        }
    }
}
