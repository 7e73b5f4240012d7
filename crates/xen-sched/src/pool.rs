//! One pCPU pool, three policies: [`Pool`] is the hypervisor scheduler
//! the machine, the vScale channel and the differential harness drive.
//! vScale (EuroSys'16) is evaluated on Xen's credit scheduler only, but
//! nothing in its design — Algorithm 1, the per-VM channel, the guest-side
//! balancer — is credit-specific, so the credit ([`crate::credit`], the
//! paper's baseline), Credit2-style ([`crate::credit2`]) and
//! dynamic-fractional ([`crate::dynfrac`]) backends are three [`Policy`]
//! implementations over one pool.
//!
//! The three backends dispatch identically. A vCPU is placed on an empty
//! pCPU with a `Run` event, burned on every tick
//! and deschedule, and requeued on preemption, slice expiry and yield. A
//! queued vCPU that blocks closes its waiting span. What differs is
//! policy, and [`Policy`] names only those hooks:
//!
//! - how a run span is charged (credits, or virtual time), and what the
//!   tick does to the running vCPU;
//! - where a runnable vCPU queues, and which queued vCPU runs next;
//! - whether the best waiter preempts the running vCPU;
//! - where a wakeup queues, and whether it may wake at all;
//! - the yield penalty;
//! - the accounting epoch (credit distribution and cap parking, runqueue
//!   levelling, or share recomputation);
//! - which placements count as migrations;
//! - what a slice end does on an empty pCPU;
//! - the urgent kick;
//! - the credit a live migration carries.
//!
//! [`Pool`] writes everything else once. Casanova et al.'s DFRS draws the
//! same line: a dynamic-fractional scheduler is a share-recomputation rule
//! plus a pick rule over a shared dispatch mechanism.
//!
//! # The driving contract
//!
//! A pool is a passive decision structure; the machine drives it and
//! consumes [`SchedEvent`]s describing assignment changes. Every policy
//! must honor the same contract the machine was built against:
//!
//! - Exactly one [`SchedEvent::Run`] is emitted each time a vCPU is
//!   placed on a pCPU, and a [`SchedEvent::Desched`] before the same
//!   vCPU is placed elsewhere or the pCPU goes to something else. So a
//!   pCPU's events alternate `Run`, `Desched`, `Run`, … and name the
//!   same vCPU in each pair; the machine arms a pCPU's slice timer on
//!   `Run` and disarms it on `Desched`, and `testkit::differential`
//!   checks this after every op.
//! - A frozen vCPU keeps running until the guest blocks it
//!   ([`Pool::set_frozen`] only changes accounting — the paper's
//!   Algorithm 2 splits freezing into hypervisor-side accounting removal
//!   and guest-side blocking); a *blocked* frozen vCPU must never be
//!   picked.
//! - Work conservation: no pCPU idles while an unfrozen runnable vCPU
//!   waits (steal or migrate as the policy dictates).
//! - Run/wait totals are monotone and only advance for vCPUs actually
//!   running/waiting — the differential harness's conservation laws
//!   (`testkit::differential`) check total run time against pCPU
//!   capacity across policies.
//!
//! Every policy is constructed from the same [`CreditConfig`] timing
//! block (tick, slice, accounting period, extendability window), so one
//! `MachineConfig` drives any policy and cross-policy runs share the
//! same time base.

use sim_core::ids::{DomId, GlobalVcpu, PcpuId, VcpuId};
use sim_core::snap::Snap;
use sim_core::soa::VcpuMap;
use sim_core::time::{SimDuration, SimTime};

use crate::credit::{CreditConfig, SchedEvent, VcpuState, RATELIMIT};
use crate::extend::{ExtendInfo, ExtendWindow};

/// Per-vCPU scheduler state that travels with a live migration.
///
/// Unlike a whole-machine checkpoint ([`Snap::save`]), a
/// migrating domain lands in a *different* pool with its own runqueues
/// and timeline, so only policy-portable facts are carried: the freeze
/// flag, whether the vCPU had runnable work, and its credit balance
/// (ignored by policies without a credit notion).
#[derive(Clone, Copy, Debug, Default)]
pub struct VcpuSchedExport {
    /// The guest-requested freeze flag (`SCHEDOP_freezecpu`).
    pub frozen: bool,
    /// Whether the vCPU was running or runnable at export time.
    pub runnable: bool,
    /// Policy-specific credit balance; zero when the policy carries
    /// none.
    pub credit: i64,
}

sim_core::snap_struct!(VcpuSchedExport {
    frozen,
    runnable,
    credit,
});

/// The per-domain scheduler payload of a live migration, produced by
/// [`Pool::export_domain`] and consumed by [`Pool::import_domain`] on the
/// destination pool.
#[derive(Clone, Debug, Default)]
pub struct DomSchedExport {
    /// One entry per vCPU, in vCPU-index order.
    pub vcpus: Vec<VcpuSchedExport>,
}

sim_core::snap_struct!(DomSchedExport { vcpus });

/// A policy's share of a pool backend: its per-pCPU, per-domain and
/// per-vCPU state and the hooks where the backends really differ. Hooks
/// that need more than their own state take the whole [`Pool`].
pub trait Policy: Snap + Default + Sized {
    /// Short stable backend name, used for bench axes and trace labels;
    /// also the pool's snapshot section tag.
    const NAME: &'static str;

    /// The runqueue each pCPU holds; `()` for one global queue.
    type Queue: Snap + Default;

    /// The per-domain consumption within the current accounting window;
    /// `()` for a policy whose epoch reads none.
    type Window: Snap + Default;

    /// The per-vCPU policy state: a credit balance, or virtual time.
    type Extra: Snap;

    /// A new vCPU's policy state.
    const INITIAL: Self::Extra;

    /// Charges `gv`'s run span `ran` (statistics and Algorithm 1's window
    /// are the pool's).
    fn charge(pool: &mut Pool<Self>, gv: GlobalVcpu, ran: SimDuration);

    /// The tick's work on `cur`, running on the ticked pCPU, after the
    /// burn and before the preemption check.
    fn tick(_pool: &mut Pool<Self>, _cur: GlobalVcpu) {}

    /// Queues `gv`, whose state already says it is runnable at `pcpu`.
    fn enqueue(pool: &mut Pool<Self>, gv: GlobalVcpu, pcpu: PcpuId);

    /// Takes queued `gv`, runnable at `pcpu`, off its queue.
    fn dequeue(pool: &mut Pool<Self>, gv: GlobalVcpu, pcpu: PcpuId);

    /// Takes the vCPU to run next on the empty `pcpu` off its queue, or
    /// `None` to idle.
    fn take_next(pool: &mut Pool<Self>, pcpu: PcpuId) -> Option<GlobalVcpu>;

    /// Whether the best waiter for `pcpu` preempts `cur`, running there,
    /// at `now`. `waker` is the vCPU whose wakeup prompted the check;
    /// `None` at a tick.
    fn preempts(
        pool: &mut Pool<Self>,
        pcpu: PcpuId,
        cur: GlobalVcpu,
        waker: Option<GlobalVcpu>,
        now: SimTime,
    ) -> bool;

    /// Where the waking `gv` queues, and which pCPU the pool then fills,
    /// or checks for preemption when it is busy. `None` leaves `gv`
    /// blocked.
    fn wake(pool: &mut Pool<Self>, gv: GlobalVcpu) -> Option<(PcpuId, PcpuId)>;

    /// Charges a voluntary yield, so yield loops make progress; none by
    /// default.
    fn yield_penalty(_x: &mut Self::Extra) {}

    /// The accounting epoch, run after every vCPU is burned up to `now`.
    fn acct(pool: &mut Pool<Self>, now: SimTime, events: &mut Vec<SchedEvent>);

    /// Counts the placement of `gv` on `pcpu` as a migration; by default,
    /// when `pcpu` is not the vCPU's last one.
    fn count_migration(pool: &mut Pool<Self>, gv: GlobalVcpu, pcpu: PcpuId) {
        if pool.hot[gv].last_pcpu != pcpu {
            pool.migrations += 1;
        }
    }

    /// A slice end on the empty `pcpu`; by default it looks for work.
    fn slice_end_idle(
        pool: &mut Pool<Self>,
        pcpu: PcpuId,
        now: SimTime,
        events: &mut Vec<SchedEvent>,
    ) {
        pool.reschedule(pcpu, now, events);
    }

    /// An urgent kick of `gv` ([`Pool::kick_vcpu`]). By default
    /// it wakes `gv` and, if it is still only queued, evicts its home
    /// pCPU's current to run it, bypassing the preemption rule — unless
    /// the kick-throttle defense protects a freshly placed occupant.
    fn kick(pool: &mut Pool<Self>, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        if matches!(pool.hot[gv].state, VcpuState::Blocked { .. }) {
            pool.vcpu_wake(gv, now, events);
        }
        if let VcpuState::Runnable { pcpu, .. } = pool.hot[gv].state {
            let p = &pool.pcpus[pcpu.index()];
            if pool.config.kick_throttle
                && p.current.is_some()
                && now.since(p.run_since) < RATELIMIT
            {
                pool.domains[gv.dom.index()].kicks_throttled += 1;
                return;
            }
            Self::dequeue(pool, gv, pcpu);
            pool.deschedule_current(pcpu, now, true, events);
            pool.place(gv, pcpu, now, events);
        }
    }

    /// The credit balance a live migration carries; zero for a policy
    /// without a credit notion.
    fn credit(_x: &Self::Extra) -> i64 {
        0
    }

    /// Installs the credit balance a live migration carried.
    fn set_credit(_x: &mut Self::Extra, _credit: i64) {}
}

/// One pCPU: the policy's runqueue, then the assignment state.
#[derive(Debug, Default)]
pub(crate) struct Pcpu<Q> {
    /// The policy's runqueue here ([`Policy::Queue`]).
    pub(crate) queue: Q,
    pub(crate) current: Option<GlobalVcpu>,
    /// When the current vCPU was placed (ratelimit + slice bookkeeping).
    pub(crate) run_since: SimTime,
    /// Context switches performed on this pCPU.
    pub(crate) switches: u64,
}

sim_core::snap_struct!(Pcpu<Q: Snap> {
    queue,
    current,
    run_since,
    switches,
});

/// Tick-hot per-vCPU state, dense in a [`VcpuMap`]; cold lifetime stats
/// live in the parallel [`VcpuStats`] map.
#[derive(Debug)]
pub(crate) struct Vcpu<X> {
    pub(crate) state: VcpuState,
    /// The policy's per-vCPU state ([`Policy::Extra`]).
    pub(crate) extra: X,
    /// Last pCPU this vCPU ran on; wakeups queue it there by default.
    pub(crate) last_pcpu: PcpuId,
    /// Frozen by the guest (`SCHEDOP_freezecpu`): earns no share.
    pub(crate) frozen: bool,
    /// Start of the unburned portion of the current run (if running).
    pub(crate) burn_from: SimTime,
}

sim_core::snap_struct!(Vcpu<X: Snap> {
    state,
    extra,
    last_pcpu,
    frozen,
    burn_from,
});

/// Cold per-vCPU lifetime statistics, split off the hot state so the
/// dispatch path never pages them in (they are touched only at placement
/// and deschedule boundaries, and by metric readers).
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

/// Per-domain bookkeeping (per-vCPU state lives in the pool's
/// [`VcpuMap`]s, not here). `A` is the consumption within the current
/// accounting window ([`Policy::Window`]).
#[derive(Clone, Debug)]
pub(crate) struct Domain<A> {
    pub(crate) weight: u32,
    /// Optional upper bound on consumption, in pCPUs (Xen `cap` / 100).
    pub(crate) cap_pcpus: Option<f64>,
    /// Optional lower bound used when clamping extendability, in pCPUs.
    pub(crate) reservation_pcpus: Option<f64>,
    pub(crate) consumed_acct: A,
    /// Consumption within the current extendability window (Algorithm 1
    /// input `s_i(t)`).
    pub(crate) consumed_extend: SimDuration,
    /// Latest Algorithm 1 output, readable through the vScale channel.
    pub(crate) extend: ExtendInfo,
    /// Kick-path evictions suppressed by the kick-throttle defense on
    /// behalf of this domain's vCPUs (defense-activity counter).
    pub(crate) kicks_throttled: u64,
}

sim_core::snap_struct!(Domain<A: Snap> {
    weight,
    cap_pcpus,
    reservation_pcpus,
    consumed_acct,
    consumed_extend,
    extend,
    kicks_throttled,
});

impl<A: Default> Domain<A> {
    /// A fresh record for a domain of `n_vcpus` vCPUs.
    pub(crate) fn new(
        weight: u32,
        n_vcpus: usize,
        cap_pcpus: Option<f64>,
        reservation_pcpus: Option<f64>,
    ) -> Self {
        Domain {
            weight,
            cap_pcpus,
            reservation_pcpus,
            consumed_acct: A::default(),
            consumed_extend: SimDuration::ZERO,
            extend: ExtendInfo::initial(n_vcpus),
            kicks_throttled: 0,
        }
    }
}

/// A pCPU pool scheduled by policy `P`; see the module docs.
///
/// Caps and reservations bound extendability (Algorithm 1) on every
/// policy; enforcing a cap is the policy's business. Freezing follows the
/// vScale §4.2 split: [`Pool::set_frozen`] only changes accounting, while
/// the guest blocks the vCPU separately.
///
/// All state-changing entry points append the resulting [`SchedEvent`]s
/// to a caller-provided sink instead of returning a fresh `Vec`, so the
/// embedding machine's steady-state event loop performs no per-dispatch
/// heap allocation. The sink is *appended to*, never cleared — the caller
/// owns its lifecycle.
pub struct Pool<P: Policy> {
    pub(crate) pcpus: Vec<Pcpu<P::Queue>>,
    pub(crate) domains: Vec<Domain<P::Window>>,
    /// Tick-hot per-vCPU state, dense in `(domain, vcpu)` order.
    pub(crate) hot: VcpuMap<Vcpu<P::Extra>>,
    /// Cold per-vCPU lifetime stats, parallel to `hot`.
    stats: VcpuMap<VcpuStats>,
    pub(crate) policy: P,
    /// vCPU migrations, as the policy counts them
    /// ([`Policy::count_migration`], plus its own queue migrations).
    pub(crate) migrations: u64,
    /// Machine-wide run time in ns, maintained in `burn` so the
    /// watchdog's progress fingerprint is one load instead of a
    /// per-domain per-vCPU fold on the dispatch path.
    total_run_ns: u64,
    /// Algorithm 1's window and published-snapshot version.
    extend: ExtendWindow,
    pub(crate) config: CreditConfig,
}

// The image carries the complete mutable state, down to runqueue FIFO
// order. The configuration and the pCPU/domain/vCPU populations are
// structural: restore targets a pool built the same way and asserts they
// match.
sim_core::snap_struct!(Pool<P: Policy> P::NAME {
    pcpus: twin "pCPU count drifted",
    domains: twin "domain count drifted",
    hot,
    stats,
    policy,
    migrations,
    total_run_ns,
    extend,
} skip { config });

impl<P: Policy> Pool<P> {
    /// Creates a pool managing `n_pcpus` physical CPUs, with timing
    /// parameters (tick, slice, accounting period, extendability window)
    /// taken from the shared `config` block.
    pub fn new(config: CreditConfig, n_pcpus: usize) -> Self {
        assert!(n_pcpus > 0, "a CPU pool needs at least one pCPU");
        Pool {
            pcpus: (0..n_pcpus).map(|_| Pcpu::default()).collect(),
            domains: Vec::new(),
            hot: VcpuMap::new(),
            stats: VcpuMap::new(),
            policy: P::default(),
            migrations: 0,
            total_run_ns: 0,
            extend: ExtendWindow::default(),
            config,
        }
    }

    /// Charges the vCPU running on `pcpu` for the time since its last
    /// burn point.
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
        P::charge(self, gv, ran);
        self.stats[gv].run_total += ran;
        self.domains[gv.dom.index()].consumed_extend += ran;
        self.total_run_ns += ran.as_ns();
    }

    fn burn_all(&mut self, now: SimTime) {
        for p in 0..self.pcpus.len() {
            self.burn(PcpuId(p), now);
        }
    }

    /// The idle pCPU nearest `gv`: its last one if idle, else the
    /// lowest-index idle one.
    pub(crate) fn nearest_idle(&self, gv: GlobalVcpu) -> Option<PcpuId> {
        let last = self.hot[gv].last_pcpu;
        if self.pcpus[last.index()].current.is_none() {
            return Some(last);
        }
        self.pcpus
            .iter()
            .position(|p| p.current.is_none())
            .map(PcpuId)
    }

    /// Marks `gv` runnable at `pcpu` from `now` and queues it there.
    pub(crate) fn queue(&mut self, gv: GlobalVcpu, pcpu: PcpuId, now: SimTime) {
        self.hot[gv].state = VcpuState::Runnable { pcpu, since: now };
        P::enqueue(self, gv, pcpu);
    }

    /// Takes the queued `gv` off its queue and closes its waiting span;
    /// the caller sets its next state.
    pub(crate) fn unqueue(&mut self, gv: GlobalVcpu, now: SimTime) {
        if let VcpuState::Runnable { pcpu, since } = self.hot[gv].state {
            P::dequeue(self, gv, pcpu);
            self.stats[gv].wait_total += now.since(since);
        }
    }

    /// Places `gv` on the empty `pcpu`, closing its waiting span.
    pub(crate) fn place(
        &mut self,
        gv: GlobalVcpu,
        pcpu: PcpuId,
        now: SimTime,
        events: &mut Vec<SchedEvent>,
    ) {
        debug_assert!(self.pcpus[pcpu.index()].current.is_none());
        P::count_migration(self, gv, pcpu);
        let v = &mut self.hot[gv];
        if let VcpuState::Runnable { since, .. } = v.state {
            self.stats[gv].wait_total += now.since(since);
        }
        v.state = VcpuState::Running { pcpu, since: now };
        v.last_pcpu = pcpu;
        v.burn_from = now;
        self.stats[gv].scheduled_count += 1;
        let p = &mut self.pcpus[pcpu.index()];
        p.current = Some(gv);
        p.run_since = now;
        p.switches += 1;
        events.push(SchedEvent::Run { pcpu, vcpu: gv });
    }

    /// Removes the running vCPU from `pcpu` (burning first). If
    /// `requeue`, it queues again at this pCPU; otherwise the caller sets
    /// its state.
    pub(crate) fn deschedule_current(
        &mut self,
        pcpu: PcpuId,
        now: SimTime,
        requeue: bool,
        events: &mut Vec<SchedEvent>,
    ) {
        self.burn(pcpu, now);
        let p = &mut self.pcpus[pcpu.index()];
        let Some(gv) = p.current.take() else {
            return;
        };
        events.push(SchedEvent::Desched { pcpu, vcpu: gv });
        if requeue {
            self.queue(gv, pcpu, now);
        }
    }

    /// Fills an empty `pcpu` with the policy's next vCPU, or idles it.
    pub(crate) fn reschedule(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        if self.pcpus[pcpu.index()].current.is_some() {
            return;
        }
        match P::take_next(self, pcpu) {
            Some(gv) => self.place(gv, pcpu, now, events),
            None => events.push(SchedEvent::Idle { pcpu }),
        }
    }

    /// Requeues the vCPU running on `pcpu` and runs the policy's next.
    pub(crate) fn preempt(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.deschedule_current(pcpu, now, true, events);
        self.reschedule(pcpu, now, events);
    }

    /// Fills `pcpu` if empty; otherwise preempts its vCPU when the
    /// policy says the best waiter should run instead.
    pub(crate) fn maybe_preempt(
        &mut self,
        pcpu: PcpuId,
        now: SimTime,
        waker: Option<GlobalVcpu>,
        events: &mut Vec<SchedEvent>,
    ) {
        let Some(cur) = self.pcpus[pcpu.index()].current else {
            self.reschedule(pcpu, now, events);
            return;
        };
        if P::preempts(self, pcpu, cur, waker, now) {
            self.preempt(pcpu, now, events);
        }
    }

    /// Fills every empty pCPU that queued work can reach.
    pub(crate) fn fill_idle(&mut self, now: SimTime, events: &mut Vec<SchedEvent>) {
        for p in 0..self.pcpus.len() {
            self.reschedule(PcpuId(p), now, events);
        }
    }
}

/// The driving surface: the calls the machine, the vScale channel and the
/// differential harness make.
impl<P: Policy> Pool<P> {
    /// Number of pCPUs in the pool.
    pub fn n_pcpus(&self) -> usize {
        self.pcpus.len()
    }

    /// Creates a domain with `n_vcpus` vCPUs and proportional-share
    /// `weight`; all vCPUs start blocked. `cap_pcpus` /
    /// `reservation_pcpus` bound the domain's extendability.
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
            extra: P::INITIAL,
            last_pcpu: PcpuId(v.index() % n_pcpus),
            frozen: false,
            burn_from: SimTime::ZERO,
        });
        let stats_id = self.stats.push_domain(n_vcpus, |_| VcpuStats::default());
        debug_assert_eq!((hot_id, stats_id), (id, id));
        self.domains
            .push(Domain::new(weight, n_vcpus, cap_pcpus, reservation_pcpus));
        id
    }

    /// Number of vCPUs of `dom`.
    pub fn n_vcpus(&self, dom: DomId) -> usize {
        self.hot.n_vcpus(dom)
    }

    /// Per-pCPU periodic tick: burn/account run time and preempt if the
    /// policy says so.
    pub fn on_tick(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.burn(pcpu, now);
        if let Some(cur) = self.pcpus[pcpu.index()].current {
            P::tick(self, cur);
        }
        // On an idle pCPU the tick is a natural point to look for work
        // that appeared without a wakeup reaching it.
        self.maybe_preempt(pcpu, now, None, events);
    }

    /// Machine-wide accounting epoch: redistribute credits/shares, apply
    /// caps, rebalance.
    pub fn on_acct(&mut self, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.burn_all(now);
        P::acct(self, now, events);
    }

    /// Extendability window tick: recompute Algorithm 1 for every domain
    /// and republish the per-domain [`ExtendInfo`] snapshots.
    pub fn on_extend_tick(&mut self, now: SimTime) {
        self.burn_all(now);
        self.extend
            .tick(now, self.pcpus.len(), &mut self.domains, &self.hot);
    }

    /// The time slice of the vCPU on `pcpu` expired.
    pub fn slice_expired(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        if self.pcpus[pcpu.index()].current.is_some() {
            self.preempt(pcpu, now, events);
        } else {
            P::slice_end_idle(self, pcpu, now, events);
        }
    }

    /// `gv` became runnable (guest unblocked it).
    pub fn vcpu_wake(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        if !matches!(self.hot[gv].state, VcpuState::Blocked { .. }) {
            return;
        }
        let Some((home, serve)) = P::wake(self, gv) else {
            return;
        };
        self.queue(gv, home, now);
        self.maybe_preempt(serve, now, Some(gv), events);
    }

    /// `gv` blocked (guest idled or PV-blocked it).
    pub fn vcpu_block(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        match self.hot[gv].state {
            VcpuState::Running { pcpu, .. } => {
                self.deschedule_current(pcpu, now, false, events);
                self.hot[gv].state = VcpuState::Blocked { since: now };
                self.reschedule(pcpu, now, events);
            }
            VcpuState::Runnable { .. } => {
                // Raced: it was preempted and now blocks from the queue.
                self.unqueue(gv, now);
                self.hot[gv].state = VcpuState::Blocked { since: now };
            }
            VcpuState::Blocked { .. } => {}
        }
    }

    /// `gv` yielded its pCPU voluntarily.
    pub fn vcpu_yield(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        let VcpuState::Running { pcpu, .. } = self.hot[gv].state else {
            return;
        };
        self.deschedule_current(pcpu, now, true, events);
        P::yield_penalty(&mut self.hot[gv].extra);
        self.reschedule(pcpu, now, events);
    }

    /// Urgent wake (IPI delivery): like [`Pool::vcpu_wake`]
    /// but bypassing any preemption rate limit.
    pub fn kick_vcpu(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        P::kick(self, gv, now, events);
    }

    /// Marks `gv` frozen/unfrozen for *accounting* (the paper's §4.2:
    /// a frozen vCPU no longer splits its domain's credits). The guest
    /// blocks/wakes the vCPU separately.
    pub fn set_frozen(&mut self, gv: GlobalVcpu, frozen: bool) {
        self.hot[gv].frozen = frozen;
    }

    /// Whether the guest has frozen this vCPU.
    pub fn is_frozen(&self, gv: GlobalVcpu) -> bool {
        self.hot[gv].frozen
    }

    /// The vCPU currently running on `pcpu`, if any.
    pub fn running_on(&self, pcpu: PcpuId) -> Option<GlobalVcpu> {
        self.pcpus[pcpu.index()].current
    }

    /// The pCPU `gv` currently runs on, if it is running.
    pub fn where_running(&self, gv: GlobalVcpu) -> Option<PcpuId> {
        match self.hot[gv].state {
            VcpuState::Running { pcpu, .. } => Some(pcpu),
            _ => None,
        }
    }

    /// The state of a vCPU.
    pub fn vcpu_state(&self, gv: GlobalVcpu) -> VcpuState {
        self.hot[gv].state
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

    /// Total time `gv` has spent waiting runnable in run queues.
    pub fn vcpu_wait_total(&self, gv: GlobalVcpu) -> SimDuration {
        self.stats[gv].wait_total
    }

    /// Total time `gv` has spent running on pCPUs.
    pub fn vcpu_run_total(&self, gv: GlobalVcpu) -> SimDuration {
        self.stats[gv].run_total
    }

    /// Machine-wide run time aggregate in nanoseconds, maintained O(1)
    /// at burn time. The machine's watchdog progress fingerprint reads
    /// this once per check instead of folding every domain's per-vCPU
    /// totals on the dispatch path.
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

    /// How many times `gv` has been placed on a pCPU.
    pub fn scheduled_count(&self, gv: GlobalVcpu) -> u64 {
        self.stats[gv].scheduled_count
    }

    /// The latest Algorithm 1 snapshot for `dom` (the vScale channel
    /// serves this).
    pub fn extendability(&self, dom: DomId) -> ExtendInfo {
        self.domains[dom.index()].extend
    }

    /// Publication version of the extendability snapshots (seqlock
    /// analogue; bumps on every [`Pool::on_extend_tick`] that
    /// republishes). A reader holding snapshot version `v` knows a serve
    /// is stale when `v < extend_version()` yet the serve repeats version
    /// `v`'s fields.
    pub fn extend_version(&self) -> u64 {
        self.extend.version()
    }

    /// Kick-path evictions suppressed by the kick-throttle defense
    /// ([`CreditConfig::kick_throttle`]) for kicks aimed at `dom`'s
    /// vCPUs. Zero when the defense is off (the default).
    pub fn kicks_throttled(&self, dom: DomId) -> u64 {
        self.domains[dom.index()].kicks_throttled
    }

    /// Extracts the migration payload for `dom`: per vCPU, the freeze
    /// flag, whether it had runnable work, and its credit balance (zero
    /// for a policy without one).
    pub fn export_domain(&self, dom: DomId) -> DomSchedExport {
        DomSchedExport {
            vcpus: self
                .hot
                .domain(dom)
                .iter()
                .map(|v| VcpuSchedExport {
                    frozen: v.frozen,
                    runnable: !matches!(v.state, VcpuState::Blocked { .. }),
                    credit: P::credit(&v.extra),
                })
                .collect(),
        }
    }

    /// Blocks every vCPU of `dom` and freezes it out of the pool — the
    /// source side of a migration cutover, or a crashed VM. Routed
    /// through the normal block path so the usual Desched/Run events are
    /// emitted and the machine can unwind its dispatch state.
    pub fn detach_domain(&mut self, dom: DomId, now: SimTime, events: &mut Vec<SchedEvent>) {
        for v in 0..self.n_vcpus(dom) {
            let gv = GlobalVcpu::new(dom, VcpuId(v));
            self.vcpu_block(gv, now, events);
            self.set_frozen(gv, true);
        }
    }

    /// Installs a payload from [`Pool::export_domain`] into
    /// `dom` — a freshly created, fully blocked twin — restoring credit
    /// balances and waking the vCPUs that had runnable work. Wake precedes
    /// the freeze-flag restore because a frozen vCPU keeps running until
    /// the guest blocks it.
    pub fn import_domain(
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
        for (i, x) in export.vcpus.iter().enumerate() {
            let gv = GlobalVcpu::new(dom, VcpuId(i));
            P::set_credit(&mut self.hot[gv].extra, x.credit);
            if x.runnable && matches!(self.hot[gv].state, VcpuState::Blocked { .. }) {
                self.vcpu_wake(gv, now, events);
            }
            self.hot[gv].frozen = x.frozen;
        }
    }

    /// Wakes every vCPU of `dom` (guest boot / failsafe unfreeze).
    pub fn wake_domain(&mut self, dom: DomId, now: SimTime, events: &mut Vec<SchedEvent>) {
        for v in 0..self.n_vcpus(dom) {
            self.vcpu_wake(GlobalVcpu::new(dom, VcpuId(v)), now, events);
        }
    }
}
