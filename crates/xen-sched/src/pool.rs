//! One pCPU pool, two policies: the shared [`HypervisorSched`]
//! implementation behind the Credit2-style and dynamic-fractional
//! backends.
//!
//! The two backends dispatch identically. A vCPU is placed on an empty
//! pCPU with a `Run` event and a generation bump, burned on every tick
//! and deschedule, requeued on preemption, slice expiry and yield, and
//! evicted by an urgent kick unless the kick-throttle defense protects a
//! freshly placed occupant. What differs is policy, and [`Policy`] names
//! only those hooks:
//!
//! - how a run span is charged (credits, or virtual time);
//! - where a runnable vCPU queues, and which queued vCPU runs next;
//! - whether the best waiter preempts the running vCPU;
//! - where a wakeup queues;
//! - the yield penalty;
//! - the accounting epoch (runqueue levelling, or share recomputation);
//! - the credit a live migration carries.
//!
//! [`Pool`] writes everything else once. Casanova et al.'s DFRS draws the
//! same line: a dynamic-fractional scheduler is a share-recomputation rule
//! plus a pick rule over a shared dispatch mechanism.
//!
//! The credit backend does not run on this pool. Its vCPU record carries
//! the priority band and the cap-parking flag in the middle of the
//! pinned image layout, so it keeps its own vCPU record and dispatch. It
//! does reuse `Pcpu`, with its three priority bands as the queue, and
//! `Domain`, with its accounting-window consumption as the extra field.

use sim_core::ids::{DomId, GlobalVcpu, PcpuId, VcpuId};
use sim_core::snap::Snap;
use sim_core::soa::VcpuMap;
use sim_core::time::{SimDuration, SimTime};

use crate::api::{DomSchedExport, HypervisorSched, VcpuSchedExport};
use crate::credit::{CreditConfig, SchedEvent, VcpuState};
use crate::extend::{ExtendInfo, ExtendWindow};

/// A policy's share of a pool backend: its per-pCPU and per-vCPU state
/// and the hooks where the backends really differ. Hooks that need more
/// than their own state take the whole [`Pool`].
pub trait Policy: Snap + Default + Sized {
    /// The backend name ([`HypervisorSched::backend_name`]), also the
    /// pool's snapshot section tag.
    const NAME: &'static str;

    /// The runqueue each pCPU holds; `()` for one global queue.
    type Queue: Snap + Default;

    /// The per-vCPU policy state: a credit balance, or virtual time.
    type Extra: Snap;

    /// A new vCPU's policy state.
    const INITIAL: Self::Extra;

    /// Charges a run span `ran` to a vCPU of a domain of `weight`.
    fn charge(x: &mut Self::Extra, ran: SimDuration, weight: u32);

    /// Queues `gv`, whose state already says it is runnable at `pcpu`.
    fn enqueue(pool: &mut Pool<Self>, gv: GlobalVcpu, pcpu: PcpuId);

    /// Takes queued `gv`, runnable at `pcpu`, off its queue.
    fn dequeue(pool: &mut Pool<Self>, gv: GlobalVcpu, pcpu: PcpuId);

    /// Takes the vCPU to run next on the empty `pcpu` off its queue, or
    /// `None` to idle.
    fn take_next(pool: &mut Pool<Self>, pcpu: PcpuId) -> Option<GlobalVcpu>;

    /// Whether the best waiter for `pcpu` preempts `cur`, running there.
    fn preempts(pool: &Pool<Self>, pcpu: PcpuId, cur: GlobalVcpu) -> bool;

    /// The pCPU whose queue the waking `gv` joins, given the idle pCPU
    /// nearest it (its last one if idle, else the lowest-index idle one).
    /// The pool then serves `idle`, or checks the returned pCPU for
    /// preemption when nothing is idle.
    fn wake_home(pool: &mut Pool<Self>, gv: GlobalVcpu, idle: Option<PcpuId>) -> PcpuId;

    /// Charges a voluntary yield, so yield loops make progress.
    fn yield_penalty(x: &mut Self::Extra);

    /// The accounting epoch, run after every vCPU is burned up to now;
    /// the pool fills idle pCPUs afterwards.
    fn acct(pool: &mut Pool<Self>);

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
    /// Monotonic generation, bumped on every assignment change; lets the
    /// machine invalidate stale slice-end events.
    pub(crate) gen: u64,
    /// Context switches performed on this pCPU.
    pub(crate) switches: u64,
}

sim_core::snap_struct!(Pcpu<Q: Snap> {
    queue,
    current,
    run_since,
    gen,
    switches,
});

/// Tick-hot per-vCPU state, dense in a [`VcpuMap`]; cold lifetime stats
/// live in the parallel [`VcpuStats`] map.
#[derive(Debug)]
pub(crate) struct Vcpu<X> {
    pub(crate) state: VcpuState,
    /// The policy's per-vCPU state ([`Policy::Extra`]).
    pub(crate) extra: X,
    pub(crate) last_pcpu: PcpuId,
    pub(crate) frozen: bool,
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

/// Per-domain bookkeeping, shared by every backend (per-vCPU state lives
/// in the scheduler-level [`VcpuMap`]s, not here). `A` is the consumption
/// within the current accounting window, the credit backend's activity
/// test; the pool backends keep none and store `()`.
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
/// Caps and reservations bound extendability (Algorithm 1) exactly as in
/// the credit backend, but the pool does not park capped domains. Freezing
/// follows the vScale §4.2 split: [`HypervisorSched::set_frozen`] only
/// changes accounting, while the guest blocks the vCPU separately.
pub struct Pool<P: Policy> {
    pub(crate) pcpus: Vec<Pcpu<P::Queue>>,
    pub(crate) domains: Vec<Domain<()>>,
    /// Tick-hot per-vCPU state, dense in `(domain, vcpu)` order.
    pub(crate) hot: VcpuMap<Vcpu<P::Extra>>,
    /// Cold per-vCPU lifetime stats, parallel to `hot`.
    stats: VcpuMap<VcpuStats>,
    pub(crate) policy: P,
    /// Placements on a pCPU other than the vCPU's last one, plus the
    /// policy's own queue migrations.
    pub(crate) migrations: u64,
    total_run_ns: u64,
    extend: ExtendWindow,
    config: CreditConfig,
}

// The configuration and the pCPU/domain/vCPU populations are structural:
// restore targets a pool built the same way and asserts they match.
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
    /// Creates a pool managing `n_pcpus` physical CPUs.
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
        let dom = &mut self.domains[gv.dom.index()];
        let v = &mut self.hot[gv];
        let ran = now.since(v.burn_from);
        if ran.is_zero() {
            return;
        }
        v.burn_from = now;
        P::charge(&mut v.extra, ran, dom.weight);
        self.stats[gv].run_total += ran;
        dom.consumed_extend += ran;
        self.total_run_ns += ran.as_ns();
    }

    fn burn_all(&mut self, now: SimTime) {
        for p in 0..self.pcpus.len() {
            self.burn(PcpuId(p), now);
        }
    }

    fn place(&mut self, gv: GlobalVcpu, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        debug_assert!(self.pcpus[pcpu.index()].current.is_none());
        let v = &mut self.hot[gv];
        if let VcpuState::Runnable { since, .. } = v.state {
            self.stats[gv].wait_total += now.since(since);
        }
        if v.last_pcpu != pcpu {
            self.migrations += 1;
        }
        v.state = VcpuState::Running { pcpu, since: now };
        v.last_pcpu = pcpu;
        v.burn_from = now;
        self.stats[gv].scheduled_count += 1;
        let p = &mut self.pcpus[pcpu.index()];
        p.current = Some(gv);
        p.run_since = now;
        p.gen += 1;
        p.switches += 1;
        events.push(SchedEvent::Run { pcpu, vcpu: gv });
    }

    /// Removes the running vCPU from `pcpu` (burning first). If
    /// `requeue`, it queues again at this pCPU; otherwise the caller sets
    /// its state.
    fn deschedule_current(
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
        p.gen += 1;
        events.push(SchedEvent::Desched { pcpu, vcpu: gv });
        if requeue {
            self.hot[gv].state = VcpuState::Runnable { pcpu, since: now };
            P::enqueue(self, gv, pcpu);
        }
    }

    /// Fills an empty `pcpu` with the policy's next vCPU, or idles it.
    fn reschedule(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        if self.pcpus[pcpu.index()].current.is_some() {
            return;
        }
        match P::take_next(self, pcpu) {
            Some(gv) => self.place(gv, pcpu, now, events),
            None => events.push(SchedEvent::Idle { pcpu }),
        }
    }

    /// Fills `pcpu` if empty; otherwise preempts its vCPU when the
    /// policy says the best waiter should run instead.
    fn maybe_preempt(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        let Some(cur) = self.pcpus[pcpu.index()].current else {
            self.reschedule(pcpu, now, events);
            return;
        };
        if P::preempts(self, pcpu, cur) {
            self.deschedule_current(pcpu, now, true, events);
            self.reschedule(pcpu, now, events);
        }
    }
}

impl<P: Policy> HypervisorSched for Pool<P> {
    fn new_pool(config: CreditConfig, n_pcpus: usize) -> Self {
        Pool::new(config, n_pcpus)
    }

    fn backend_name() -> &'static str {
        P::NAME
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

    fn n_vcpus(&self, dom: DomId) -> usize {
        self.hot.n_vcpus(dom)
    }

    fn on_tick(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.burn(pcpu, now);
        self.maybe_preempt(pcpu, now, events);
    }

    fn on_acct(&mut self, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.burn_all(now);
        P::acct(self);
        // The epoch may have moved queued work or shares; fill any pCPU
        // left idle next to queued work.
        for p in 0..self.pcpus.len() {
            self.reschedule(PcpuId(p), now, events);
        }
    }

    fn on_extend_tick(&mut self, now: SimTime) {
        self.burn_all(now);
        self.extend
            .tick(now, self.pcpus.len(), &mut self.domains, &self.hot);
    }

    fn slice_expired(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        if self.pcpus[pcpu.index()].current.is_some() {
            self.deschedule_current(pcpu, now, true, events);
        }
        self.reschedule(pcpu, now, events);
    }

    fn vcpu_wake(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        if !matches!(self.hot[gv].state, VcpuState::Blocked { .. }) {
            return;
        }
        let last = self.hot[gv].last_pcpu;
        let idle = if self.pcpus[last.index()].current.is_none() {
            Some(last)
        } else {
            self.pcpus
                .iter()
                .position(|p| p.current.is_none())
                .map(PcpuId)
        };
        let home = P::wake_home(self, gv, idle);
        self.hot[gv].state = VcpuState::Runnable {
            pcpu: home,
            since: now,
        };
        P::enqueue(self, gv, home);
        self.maybe_preempt(idle.unwrap_or(home), now, events);
    }

    fn vcpu_block(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        match self.hot[gv].state {
            VcpuState::Running { pcpu, .. } => {
                self.deschedule_current(pcpu, now, false, events);
                self.hot[gv].state = VcpuState::Blocked { since: now };
                self.reschedule(pcpu, now, events);
            }
            VcpuState::Runnable { pcpu, .. } => {
                // The waiting span that ends here is not added to
                // `wait_total` (credit adds it). Kept as is: fixing it
                // moves pinned checksums, so it lands on its own.
                P::dequeue(self, gv, pcpu);
                self.hot[gv].state = VcpuState::Blocked { since: now };
            }
            VcpuState::Blocked { .. } => {}
        }
    }

    fn vcpu_yield(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        let VcpuState::Running { pcpu, .. } = self.hot[gv].state else {
            return;
        };
        self.deschedule_current(pcpu, now, true, events);
        P::yield_penalty(&mut self.hot[gv].extra);
        self.reschedule(pcpu, now, events);
    }

    fn kick_vcpu(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        if matches!(self.hot[gv].state, VcpuState::Blocked { .. }) {
            self.vcpu_wake(gv, now, events);
        }
        // An urgent kick bypasses the policy's preemption rule: if the
        // target is still only queued, evict its home pCPU's current and
        // run it — unless the kick-throttle defense protects a freshly
        // placed occupant.
        if let VcpuState::Runnable { pcpu, .. } = self.hot[gv].state {
            let p = &self.pcpus[pcpu.index()];
            if self.config.kick_throttle
                && p.current.is_some()
                && now.since(p.run_since) < self.config.ratelimit
            {
                self.domains[gv.dom.index()].kicks_throttled += 1;
                return;
            }
            P::dequeue(self, gv, pcpu);
            self.deschedule_current(pcpu, now, true, events);
            self.place(gv, pcpu, now, events);
        }
    }

    fn set_frozen(&mut self, gv: GlobalVcpu, frozen: bool) {
        self.hot[gv].frozen = frozen;
    }

    fn is_frozen(&self, gv: GlobalVcpu) -> bool {
        self.hot[gv].frozen
    }

    fn running_on(&self, pcpu: PcpuId) -> Option<GlobalVcpu> {
        self.pcpus[pcpu.index()].current
    }

    fn where_running(&self, gv: GlobalVcpu) -> Option<PcpuId> {
        match self.hot[gv].state {
            VcpuState::Running { pcpu, .. } => Some(pcpu),
            _ => None,
        }
    }

    fn vcpu_state(&self, gv: GlobalVcpu) -> VcpuState {
        self.hot[gv].state
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
        self.extend.version()
    }

    fn kicks_throttled(&self, dom: DomId) -> u64 {
        self.domains[dom.index()].kicks_throttled
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
                    credit: P::credit(&v.extra),
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
        for (i, x) in export.vcpus.iter().enumerate() {
            let gv = GlobalVcpu::new(dom, VcpuId(i));
            P::set_credit(&mut self.hot[gv].extra, x.credit);
            if x.runnable && matches!(self.hot[gv].state, VcpuState::Blocked { .. }) {
                self.vcpu_wake(gv, now, events);
            }
            self.hot[gv].frozen = x.frozen;
        }
    }
}
