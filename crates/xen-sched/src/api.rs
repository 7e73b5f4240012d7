//! The hypervisor scheduler abstraction: [`HypervisorSched`].
//!
//! vScale (EuroSys'16) is evaluated against Xen's credit scheduler only,
//! but nothing in the design — Algorithm 1's extendability computation,
//! the per-VM channel, the guest-side balancer — is credit-specific. This
//! trait is the exact surface the embedding machine
//! (`vscale::machine::Machine`), the vScale channel, and the differential
//! test harness consume, so alternative policies slot in behind the same
//! event-driven contract:
//!
//! - [`crate::credit::CreditScheduler`] — the paper's baseline: Xen's
//!   proportional-share credit scheduler with the §4.2 freeze-aware
//!   accounting modification. The reference backend; golden traces in
//!   `tests/determinism.rs` pin it byte-for-byte.
//! - [`crate::credit2::Credit2Scheduler`] — a Credit2-style policy:
//!   per-pCPU runqueues ordered by credit, credit resets when the picked
//!   vCPU is out of credit, and periodic load-balancing migration.
//! - [`crate::dynfrac::DynFracScheduler`] — a dynamic-fractional policy
//!   (à la Casanova et al.'s DFRS): continuous CPU shares recomputed
//!   every accounting epoch, with the minimum virtual time picked from one
//!   global queue.
//!
//! All three are one [`crate::pool::Pool`] under three
//! [`crate::pool::Policy`] implementations: the pool implements this
//! trait once and the policies supply only what differs.
//!
//! # The driving contract
//!
//! A backend is a passive decision structure; the machine drives it and
//! consumes [`SchedEvent`]s describing assignment changes. Every backend
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
//!   ([`HypervisorSched::set_frozen`] only changes accounting — the
//!   paper's Algorithm 2 splits freezing into hypervisor-side accounting
//!   removal and guest-side blocking); a *blocked* frozen vCPU must never
//!   be picked.
//! - Work conservation: no pCPU idles while an unfrozen runnable vCPU
//!   waits (steal or migrate as the policy dictates).
//! - Run/wait totals are monotone and only advance for vCPUs actually
//!   running/waiting — the differential harness's conservation laws
//!   (`testkit::differential`) check total run time against pCPU
//!   capacity across backends.
//!
//! All backends are constructed from the same [`CreditConfig`] timing
//! block (tick, slice, accounting period, extendability window), so one
//! `MachineConfig` drives any backend and cross-backend runs share the
//! same time base.

use sim_core::ids::{DomId, GlobalVcpu, PcpuId, VcpuId};
use sim_core::time::{SimDuration, SimTime};

use sim_core::snap::Snap;

use crate::credit::{CreditConfig, SchedEvent, VcpuState};
use crate::extend::ExtendInfo;

/// Per-vCPU scheduler state that travels with a live migration.
///
/// Unlike a whole-machine checkpoint ([`Snap::save`]), a
/// migrating domain lands in a *different* pool with its own runqueues
/// and timeline, so only policy-portable facts are carried: the freeze
/// flag, whether the vCPU had runnable work, and its credit balance
/// (ignored by backends without a credit notion).
#[derive(Clone, Copy, Debug, Default)]
pub struct VcpuSchedExport {
    /// The guest-requested freeze flag (`SCHEDOP_freezecpu`).
    pub frozen: bool,
    /// Whether the vCPU was running or runnable at export time.
    pub runnable: bool,
    /// Backend-specific credit balance; zero when the backend carries
    /// none.
    pub credit: i64,
}

sim_core::snap_struct!(VcpuSchedExport {
    frozen,
    runnable,
    credit,
});

/// The per-domain scheduler payload of a live migration, produced by
/// [`HypervisorSched::export_domain`] and consumed by
/// [`HypervisorSched::import_domain`] on the destination pool.
#[derive(Clone, Debug, Default)]
pub struct DomSchedExport {
    /// One entry per vCPU, in vCPU-index order.
    pub vcpus: Vec<VcpuSchedExport>,
}

sim_core::snap_struct!(DomSchedExport { vcpus });

/// The scheduler policy surface consumed by the machine, the vScale
/// channel, and the differential harness. See the module docs for the
/// event/generation contract every implementation must honor.
///
/// The [`Snap`] supertrait is the backend's checkpoint codec: it must
/// carry the complete mutable state exactly — restoring into a pool
/// built from the same configuration and populations and resuming must
/// be indistinguishable from never having stopped, down to runqueue FIFO
/// order.
pub trait HypervisorSched: Snap {
    /// Creates a backend managing `n_pcpus` physical CPUs, with timing
    /// parameters (tick, slice, accounting period, extendability window)
    /// taken from the shared `config` block.
    fn new_pool(config: CreditConfig, n_pcpus: usize) -> Self
    where
        Self: Sized;

    /// Short stable backend name, used for bench axes and trace labels.
    fn backend_name() -> &'static str
    where
        Self: Sized;

    /// Number of pCPUs in the pool.
    fn n_pcpus(&self) -> usize;

    /// Number of domains created so far.
    fn n_domains(&self) -> usize;

    /// Creates a domain with `n_vcpus` vCPUs and proportional-share
    /// `weight`; all vCPUs start blocked. `cap_pcpus` /
    /// `reservation_pcpus` bound the domain's extendability.
    fn create_domain(
        &mut self,
        weight: u32,
        n_vcpus: usize,
        cap_pcpus: Option<f64>,
        reservation_pcpus: Option<f64>,
    ) -> DomId;

    /// Number of vCPUs of `dom`.
    fn n_vcpus(&self, dom: DomId) -> usize;

    /// Per-pCPU periodic tick: burn/account run time and preempt if the
    /// policy says so.
    fn on_tick(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>);

    /// Machine-wide accounting epoch: redistribute credits/shares, apply
    /// caps, rebalance.
    fn on_acct(&mut self, now: SimTime, events: &mut Vec<SchedEvent>);

    /// Extendability window tick: recompute Algorithm 1 for every domain
    /// and republish the per-domain [`ExtendInfo`] snapshots.
    fn on_extend_tick(&mut self, now: SimTime);

    /// The time slice of the vCPU on `pcpu` expired.
    fn slice_expired(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>);

    /// `gv` became runnable (guest unblocked it).
    fn vcpu_wake(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>);

    /// `gv` blocked (guest idled or PV-blocked it).
    fn vcpu_block(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>);

    /// `gv` yielded its pCPU voluntarily.
    fn vcpu_yield(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>);

    /// Urgent wake (IPI delivery): like [`HypervisorSched::vcpu_wake`]
    /// but bypassing any preemption rate limit.
    fn kick_vcpu(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>);

    /// Marks `gv` frozen/unfrozen for *accounting* (the paper's §4.2:
    /// a frozen vCPU no longer splits its domain's credits). The guest
    /// blocks/wakes the vCPU separately.
    fn set_frozen(&mut self, gv: GlobalVcpu, frozen: bool);

    /// Whether the guest has frozen this vCPU.
    fn is_frozen(&self, gv: GlobalVcpu) -> bool;

    /// The vCPU currently running on `pcpu`, if any.
    fn running_on(&self, pcpu: PcpuId) -> Option<GlobalVcpu>;

    /// The pCPU `gv` currently runs on, if it is running.
    fn where_running(&self, gv: GlobalVcpu) -> Option<PcpuId>;

    /// The state of a vCPU.
    fn vcpu_state(&self, gv: GlobalVcpu) -> VcpuState;

    /// Sum of waiting time across all vCPUs of `dom` (Figure 9 metric).
    fn domain_wait_total(&self, dom: DomId) -> SimDuration;

    /// Sum of run time across all vCPUs of `dom`.
    fn domain_run_total(&self, dom: DomId) -> SimDuration;

    /// Total time `gv` has spent waiting runnable in run queues.
    fn vcpu_wait_total(&self, gv: GlobalVcpu) -> SimDuration;

    /// Total time `gv` has spent running on pCPUs.
    fn vcpu_run_total(&self, gv: GlobalVcpu) -> SimDuration;

    /// Machine-wide run time aggregate in nanoseconds, maintained O(1)
    /// at burn time. The machine's watchdog progress fingerprint reads
    /// this once per check instead of folding every domain's per-vCPU
    /// totals on the dispatch path.
    fn total_run_ns(&self) -> u64;

    /// Number of vCPU cross-pCPU migrations (steals) performed.
    fn migrations(&self) -> u64;

    /// Context switches performed on `pcpu`.
    fn switches(&self, pcpu: PcpuId) -> u64;

    /// How many times `gv` has been placed on a pCPU.
    fn scheduled_count(&self, gv: GlobalVcpu) -> u64;

    /// The latest Algorithm 1 snapshot for `dom` (the vScale channel
    /// serves this).
    fn extendability(&self, dom: DomId) -> ExtendInfo;

    /// Publication version of the extendability snapshots (seqlock
    /// analogue; bumps on every [`HypervisorSched::on_extend_tick`] that
    /// republishes). A reader holding snapshot version `v` knows a serve
    /// is stale when `v < extend_version()` yet the serve repeats version
    /// `v`'s fields.
    fn extend_version(&self) -> u64;

    /// Kick-path evictions suppressed by the kick-throttle defense
    /// ([`CreditConfig::kick_throttle`]) for kicks aimed at `dom`'s
    /// vCPUs. Zero when the defense is off (the default).
    fn kicks_throttled(&self, dom: DomId) -> u64 {
        let _ = dom;
        0
    }

    /// Extracts the migration payload for `dom`: per vCPU, the freeze
    /// flag, whether it had runnable work, and its credit balance (zero
    /// for a backend without one).
    fn export_domain(&self, dom: DomId) -> DomSchedExport;

    /// Blocks every vCPU of `dom` and freezes it out of the pool — the
    /// source side of a migration cutover, or a crashed VM. Routed
    /// through the normal block path so the usual Desched/Run events are
    /// emitted and the machine can unwind its dispatch state.
    fn detach_domain(&mut self, dom: DomId, now: SimTime, events: &mut Vec<SchedEvent>) {
        for v in 0..self.n_vcpus(dom) {
            let gv = GlobalVcpu::new(dom, VcpuId(v));
            if !matches!(self.vcpu_state(gv), VcpuState::Blocked { .. }) {
                self.vcpu_block(gv, now, events);
            }
            self.set_frozen(gv, true);
        }
    }

    /// Installs a payload from [`HypervisorSched::export_domain`] into
    /// `dom` — a freshly created, fully blocked twin — restoring credit
    /// balances and waking the vCPUs that had runnable work. Wake precedes
    /// the freeze-flag restore because a frozen vCPU keeps running until
    /// the guest blocks it.
    fn import_domain(
        &mut self,
        dom: DomId,
        export: &DomSchedExport,
        now: SimTime,
        events: &mut Vec<SchedEvent>,
    );

    /// Wakes every vCPU of `dom` (guest boot / failsafe unfreeze).
    fn wake_domain(&mut self, dom: DomId, now: SimTime, events: &mut Vec<SchedEvent>) {
        for v in 0..self.n_vcpus(dom) {
            self.vcpu_wake(GlobalVcpu::new(dom, VcpuId(v)), now, events);
        }
    }
}
