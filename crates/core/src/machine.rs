//! The machine: a host running the hypervisor and one guest per domain.
//!
//! [`Machine`] owns global simulated time (one [`EventQueue`]), the credit
//! scheduler, every guest kernel, a virtual NIC, and the per-domain vScale
//! (or hotplug) daemon. It is the component that turns the two passive
//! layers into a running system, with the cross-layer routing rules:
//!
//! - **pCPU grants** — hypervisor [`SchedEvent`]s start/stop guest vCPUs
//!   and (re)arm per-pCPU slice-expiry events;
//! - **reschedule IPIs** — delivered after a small latency when the target
//!   vCPU is running, otherwise the target is woken through the hypervisor
//!   (BOOST) and the IPI is handled when it next gets a pCPU — this is the
//!   paper's Figure 1(b) delay;
//! - **device interrupts** — arrive at the event-channel port's bound
//!   vCPU; if that vCPU is frozen the interrupt is rebound on occurrence
//!   (Algorithm 2 step (c)); if it is off-pCPU the interrupt waits for the
//!   hypervisor — Figure 1(c);
//! - **busy-waiting** — spinning threads simply burn their vCPU's slices;
//!   preempted lock holders stall them — Figure 1(a);
//! - **the daemon** — timer-driven monitoring whose work is charged on
//!   vCPU0 and whose decisions drive Algorithm 2 (or the hotplug baseline).

use std::collections::VecDeque;
use std::fmt::Write as _;

use guest_kernel::kernel::GuestEffect;
use guest_kernel::thread::IoQueueId;
use guest_kernel::{
    costs, FailSafe, FreezeRateGate, GuestKernel, HotplugModel, HotplugRetry, ThreadId, VcpuId,
};
use sim_core::event::{EventHandle, EventQueue};
use sim_core::fault::{
    ChannelReadFault, DeliveryFault, Diagnostics, FaultConfig, FaultPlan, FaultStats, SimError,
    SimErrorKind,
};
use sim_core::ids::{DomId, GlobalVcpu, PcpuId};
use sim_core::rng::SimRng;
use sim_core::snap::{self, Snap, SnapReader, SnapWriter};
use sim_core::time::{SimDuration, SimTime};
use sim_core::trace::{TraceEvent, TraceRing};
use xen_sched::channel::{DoorbellLink, VscaleChannel, RETRANSMIT_RTO};
use xen_sched::credit::{Credit, SchedEvent, ACCT_PERIOD, EXTEND_PERIOD, SLICE, TICK};
use xen_sched::evtchn::{EvtchnTable, PortId, PortKind};
use xen_sched::{DomSchedExport, Policy, Pool};

use crate::config::{DomainSpec, MachineConfig, ScalingMode};
use crate::daemon::{
    DaemonPhase, DaemonState, TAG_FREEZE_BASE, TAG_HOTPLUG_BASE, TAG_READ, TAG_UNFREEZE_BASE,
};

/// Machine-level events: dense ids travel as raw `u32`, re-typed at the
/// top of the dispatch arm. The queued value is also the saved one: a
/// checkpoint writes each pending event with the tags below, and a
/// migration image carries a domain's [`DomEv`]s without the domain word
/// (the destination host re-maps them onto its own domain index).
#[derive(Clone, Copy, Debug, Default)]
enum Ev {
    /// Hypervisor per-pCPU tick (10 ms).
    HvTick(u32),
    /// Hypervisor accounting pass (30 ms).
    #[default]
    HvAcct,
    /// vScale extendability ticker (10 ms).
    ExtendTick,
    /// End of a scheduling quantum. Never scheduled: it rides the pCPU's
    /// slice timer, armed by `Run` and disarmed by `Desched`; a restore
    /// re-arms it.
    SliceEnd { pcpu: u32 },
    /// A guest vCPU's next local event. Never scheduled: it rides the
    /// keyed timer of the pCPU the vCPU runs on. Plan events are derived
    /// state: a restore re-arms each on the pCPU its vCPU runs on, and an
    /// extracted domain has none (the detach released them; the
    /// install-side wake routing re-arms them).
    Plan { dom: u32, vcpu: u32 },
    /// An event of one domain.
    Dom(u32, DomEv),
}

sim_core::snap_enum!(Ev {
    0 => HvTick(pcpu),
    1 => HvAcct,
    2 => ExtendTick,
    3 => SliceEnd { pcpu },
    4 => Plan { dom, vcpu },
} nested 5 => Dom(dom, DomEv));

/// A per-domain event, the payload of [`Ev::Dom`] and the in-flight
/// record of a migration image.
#[derive(Clone, Copy, Debug, Default)]
enum DomEv {
    /// A reschedule IPI lands on a (hopefully still running) vCPU.
    IpiDeliver { vcpu: u32 },
    /// A sleeping thread's timer fires.
    SleepWake { tid: u32 },
    /// The daemon's polling timer.
    #[default]
    DaemonTimer,
    /// An external I/O event (e.g. a network request) arrives at a port.
    IoArrival { port: u32, items: u64 },
    /// A NIC transmission completes.
    NicDrained,
    /// The non-stall part of a hotplug operation finishes.
    HotplugDone { vcpu: u32, online: bool },
    /// The guest's periodic re-scan notices a still-pending port whose
    /// doorbell was injected away (dropped or delayed), or a spurious
    /// duplicate doorbell rings. Only scheduled by an active fault plan.
    PortRecover { port: u32 },
    /// The doorbell ack timeout for sequence `seq` of `port` fired: if the
    /// sequence is still outstanding, re-ring the doorbell (the retransmit
    /// itself subject to injection) and advance the backoff ladder. Only
    /// scheduled by an active fault plan; cancelled eagerly on ack.
    Retransmit { port: u32, seq: u64 },
    /// An aborted hotplug removal unwinds out of `stop_machine`: the
    /// partial stall ends and the target vCPU stays online.
    HotplugAborted,
}

sim_core::snap_enum!(DomEv {
    0 => IpiDeliver { vcpu },
    1 => SleepWake { tid },
    2 => DaemonTimer,
    3 => IoArrival { port, items },
    4 => NicDrained,
    5 => HotplugDone { vcpu, online },
    6 => PortRecover { port },
    7 => Retransmit { port, seq },
    8 => HotplugAborted,
});

/// Narrows a dense index for the compact [`Ev`] representation.
#[inline]
fn compact(i: usize) -> u32 {
    debug_assert!(i <= u32::MAX as usize, "dense index exceeds u32");
    i as u32
}

/// Typed constructors: the one place the `usize`-backed id types narrow
/// into the compact wire form. Dispatch arms do the inverse re-typing.
impl Ev {
    fn hv_tick(p: PcpuId) -> Ev {
        Ev::HvTick(compact(p.index()))
    }
    fn slice_end(pcpu: PcpuId) -> Ev {
        Ev::SliceEnd {
            pcpu: compact(pcpu.index()),
        }
    }
    fn plan(dom: DomId, vcpu: VcpuId) -> Ev {
        Ev::Plan {
            dom: compact(dom.index()),
            vcpu: compact(vcpu.index()),
        }
    }
    fn dom(dom: DomId, ev: DomEv) -> Ev {
        Ev::Dom(compact(dom.index()), ev)
    }
    fn ipi_deliver(dom: DomId, vcpu: VcpuId) -> Ev {
        let vcpu = compact(vcpu.index());
        Ev::dom(dom, DomEv::IpiDeliver { vcpu })
    }
    fn sleep_wake(dom: DomId, tid: ThreadId) -> Ev {
        let tid = compact(tid.index());
        Ev::dom(dom, DomEv::SleepWake { tid })
    }
    fn io_arrival(dom: DomId, port: PortId, items: u64) -> Ev {
        let port = compact(port.0);
        Ev::dom(dom, DomEv::IoArrival { port, items })
    }
    fn hotplug_done(dom: DomId, vcpu: VcpuId, online: bool) -> Ev {
        let vcpu = compact(vcpu.index());
        Ev::dom(dom, DomEv::HotplugDone { vcpu, online })
    }
    fn port_recover(dom: DomId, port: PortId) -> Ev {
        let port = compact(port.0);
        Ev::dom(dom, DomEv::PortRecover { port })
    }
    fn retransmit(dom: DomId, port: PortId, seq: u64) -> Ev {
        let port = compact(port.0);
        Ev::dom(dom, DomEv::Retransmit { port, seq })
    }
}

/// Seed salt of the tick-jitter defense RNG: the jitter stream must be
/// independent of the root `rng` (whose draw order golden traces pin)
/// yet fully determined by the run seed.
const TICK_JITTER_SALT: u64 = 0x7e11_ba5e_0ff5_e751;

/// Extra channel-read attempts after a torn or stale serve before the
/// daemon falls back to the last-good snapshot.
const READ_RETRY_BUDGET: u32 = 2;

/// Daemon periods without a valid extendability update before the
/// balancer's fail-safe unfreezes every vCPU: 120 ms at the default
/// 10 ms cadence, far above the worst contention-induced gap observed
/// fault-free, far below a human noticing a wedged daemon.
const HEARTBEAT_TICKS: u32 = 12;

/// Latency of a virtual IPI between two running vCPUs.
const IPI_LATENCY: SimDuration = SimDuration::from_us(5);

/// NIC line rate in bits per second (paper: 1 GbE).
const NIC_BPS: u64 = 1_000_000_000;

/// Maximum events handled at one virtual instant before the run is
/// declared livelocked. Normal dispatch handles at most a few hundred
/// same-instant events (one per vCPU/port); this is far above any
/// legitimate burst.
const MAX_EVENTS_PER_INSTANT: u64 = 100_000;

/// Draws one randomized tick interval in `[¾·tick, 1¼·tick)`. The mean
/// stays at `tick`, so the long-run accounting cadence is unchanged,
/// while a tenant can no longer phase-lock to the next sample point.
fn jittered_interval(tick: SimDuration, rng: &mut SimRng) -> SimDuration {
    let ns = tick.as_ns();
    let span = (ns / 2).max(1);
    SimDuration::from_ns(ns - ns / 4 + rng.next_u64() % span)
}

/// A unit of routing work inside one event's processing.
enum Op {
    Sched(SchedEvent),
    Guest(DomId, GuestEffect),
}

/// Per-domain aggregate statistics gathered during a run.
#[derive(Clone, Debug, Default)]
pub struct DomainStats {
    /// Total vCPU waiting time in hypervisor run queues (Figure 9).
    pub wait_total: SimDuration,
    /// Total vCPU run time.
    pub run_total: SimDuration,
    /// Reschedule IPIs delivered, per vCPU.
    pub resched_ipis: Vec<u64>,
    /// Timer interrupts delivered, per vCPU.
    pub timer_ints: Vec<u64>,
    /// Channel reads the daemon performed.
    pub daemon_reads: u64,
    /// Freeze/unfreeze (or hotplug) operations completed.
    pub reconfigs: u64,
    /// Daemon crash-restarts survived (injected faults).
    pub daemon_crashes: u64,
    /// Channel reads the daemon discarded (torn snapshots, orphaned
    /// replies to a crashed daemon incarnation).
    pub discarded_reads: u64,
    /// Hotplug removals that aborted mid-`stop_machine`.
    pub hotplug_aborts: u64,
    // --- recovery-protocol counters (self-healing layer) ---
    /// Doorbell retransmit rings issued by the seq/ack protocol.
    pub retransmits: u64,
    /// Doorbell sequences resolved by an acknowledged delivery or wake.
    pub doorbell_acks: u64,
    /// Spurious doorbell rings (duplicates, late retransmits) suppressed
    /// idempotently via the pending bit.
    pub dup_suppressed: u64,
    /// Doorbell sequences abandoned after the retransmit budget ran out
    /// (recovery handed to the periodic re-scan).
    pub retransmit_exhausted: u64,
    /// Channel re-reads after a detected torn/stale serve.
    pub read_retries: u64,
    /// Channel reads that exhausted the retry budget and served the
    /// last-good snapshot.
    pub read_fallbacks: u64,
    /// Crash-restart freeze-mask resynchronizations performed.
    pub resyncs: u64,
    /// Freeze-state mismatches repaired by those resyncs.
    pub resync_repairs: u64,
    /// Balancer fail-safe trips (daemon heartbeat timeouts that unfroze
    /// every vCPU).
    pub failsafe_trips: u64,
    /// Aborted hotplug removals rescheduled with backoff.
    pub hotplug_retries: u64,
    /// Hotplug removal cycles abandoned after the abort budget ran out.
    pub hotplug_giveups: u64,
    /// Same-target reschedule IPIs coalesced within one dispatch.
    pub ipis_coalesced: u64,
    // --- adversarial-tenant instrumentation (attack grid) ---
    /// Estimated run time taken beyond the domain's weight-fair share of
    /// the elapsed pool capacity. An attribution *heuristic*, not an
    /// accusation: a work-conserving scheduler legitimately hands idle
    /// capacity to whoever wants it, so a large value only indicts a
    /// domain when contending neighbors were starved at the same time
    /// (which is exactly how the attack grid reads it).
    pub stolen_est: SimDuration,
    /// Kick-path evictions suppressed by the kick-throttle defense for
    /// kicks aimed at this domain's vCPUs (defense-activity counter).
    pub kicks_throttled: u64,
    /// Grow/shrink reconfigurations suppressed by the freeze-rate
    /// hysteresis gate (defense-activity counter).
    pub reconfigs_suppressed: u64,
}

struct GuestDomain {
    kernel: GuestKernel,
    evtchn: EvtchnTable,
    /// Accumulated payload per port, delivered with the interrupt.
    port_pending: Vec<(IoQueueId, u64)>,
    scaling: ScalingMode,
    daemon: DaemonState,
    /// The per-domain vScale mailbox endpoint the daemon reads through.
    channel: VscaleChannel,
    hotplug: Option<HotplugModel>,
    /// (time, active vCPUs) trace for Figure 8.
    active_trace: Vec<(SimTime, usize)>,
    /// I/O request arrival times (client-side record) not yet taken by
    /// `Machine::take_io`; a domain nobody takes from keeps them all.
    io_arrivals: Vec<SimTime>,
    /// Times each untaken request's interrupt reached a handler
    /// (≈ accept).
    io_deliveries: Vec<SimTime>,
    /// Times each untaken reply finished serializing onto the wire.
    nic_completions: Vec<SimTime>,
    /// Entries taken out of `io_arrivals`.
    arrivals_taken: u64,
    /// Entries taken out of `nic_completions`.
    completions_taken: u64,
    /// NIC transmit queue occupancy.
    nic_busy_until: SimTime,
    exited_threads: u64,
    /// Seq/ack doorbell state per port (parallel to `port_pending`).
    doorbells: Vec<DoorbellLink>,
    /// Pending retransmit-timer handle per port, cancelled eagerly on
    /// ack.
    retx_handles: Vec<Option<EventHandle>>,
    /// The balancer's heartbeat watchdog on the daemon.
    failsafe: FailSafe,
    /// Backoff state for aborted hotplug removals.
    hotplug_retry: HotplugRetry,
    /// Same-target reschedule IPIs coalesced within one dispatch.
    ipis_coalesced: u64,
    /// Freeze-rate hysteresis gate (the oscillation defense; inert at
    /// the default `DefenseConfig::freeze_dwell == 0`).
    freeze_gate: FreezeRateGate,
    /// Proportional-share weight (for the stolen-time attribution).
    weight: u32,
}

/// The composed host, generic over the scheduler [`Policy`] `P` of its
/// [`Pool`]; defaults to the paper's credit scheduler, so `Machine::new`
/// keeps its historical meaning.
pub struct Machine<P: Policy = Credit> {
    config: MachineConfig,
    hv: Pool<P>,
    guests: Vec<GuestDomain>,
    queue: EventQueue<Ev>,
    /// Root RNG (workloads fork children from it).
    pub rng: SimRng,
    /// The vCPU that last armed each pCPU's plan timer. The queue keys
    /// plan events by pCPU because a vCPU has a pending plan only while
    /// it holds one; this table lets a vCPU that leaves pCPU `p` release
    /// `p`'s timer without touching a plan another vCPU has armed there.
    plan_owner: Vec<Option<GlobalVcpu>>,
    /// Optional scheduling-decision trace (disabled by default; enable
    /// with [`Machine::enable_trace`]).
    trace: TraceRing,
    // Scratch buffers, taken/restored around each use so the steady-state
    // event loop performs no per-dispatch heap allocation. Each is empty
    // whenever it sits in the struct. Rare re-entrant paths (the hotplug
    // daemon routing mid-drain) see an already-taken buffer and fall back
    // to a fresh empty one — correct, just not allocation-free.
    /// Sink for sink-style [`Pool`] calls.
    sched_buf: Vec<SchedEvent>,
    /// The routing work queue of [`Machine::drain`].
    ops_buf: VecDeque<Op>,
    /// vCPUs whose plan events went stale during a drain.
    dirty_buf: Vec<(DomId, VcpuId)>,
    /// Guest-effect sink for top-level event handlers.
    fx_buf: Vec<GuestEffect>,
    /// Guest-effect sink for the `Run` dispatch arm (live while `fx_buf`
    /// may be held by the outer handler).
    run_fx_buf: Vec<GuestEffect>,
    /// Guest-effect sink for the daemon freeze/unfreeze arms, which run
    /// inside `drain` while both `fx_buf` and `run_fx_buf` may be taken;
    /// a `mem::take` of either there would hand out a zero-capacity `Vec`
    /// and reallocate on every reconfiguration.
    daemon_fx_buf: Vec<GuestEffect>,
    /// Pending event-channel ports collected at vCPU entry.
    ports_buf: Vec<PortId>,
    /// (domain, target) pairs that already have a reschedule IPI in flight
    /// from the current dispatch — later same-target sends coalesce onto
    /// the pending-resched bit instead of raising another event.
    ipi_buf: Vec<(DomId, VcpuId)>,
    /// Seeded fault plan, if injection is enabled. `None` (the default)
    /// keeps every dispatch path byte-identical to the pre-fault code.
    fault_plan: Option<Box<FaultPlan>>,
    /// How much virtual time may pass with no forward progress (no guest
    /// work retired, no thread exited) before a checked run is declared
    /// stalled. 5 s unless [`Machine::set_stall_timeout`] says otherwise.
    stall_timeout: SimDuration,
    /// First structured failure recorded by a deep layer (routing storm);
    /// surfaced by the run loops instead of unwinding mid-drain.
    fault_error: Option<SimError>,
    /// Livelock watchdog: the instant being processed and how many events
    /// it has absorbed.
    wd_instant: SimTime,
    wd_instant_events: u64,
    /// Progress watchdog: the last fingerprint and when it last moved.
    wd_progress_fp: (u64, u64),
    wd_progress_at: SimTime,
    /// Dedicated RNG of the randomized-tick-offset defense, derived from
    /// the run seed (never the root `rng`, whose draw order is pinned by
    /// golden traces; never ambient entropy, so jittered runs replay
    /// bit-identically at any `VSCALE_THREADS`). Drawn from only when
    /// `DefenseConfig::tick_jitter` is on.
    tick_rng: SimRng,
    /// Tick re-arms that drew a jittered interval.
    ticks_jittered: u64,
}

impl Machine {
    /// Creates a machine with the given host configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use vscale::config::{MachineConfig, SystemConfig};
    /// use vscale::machine::Machine;
    /// use sim_core::time::SimTime;
    ///
    /// let mut m = Machine::new(MachineConfig { n_pcpus: 2, ..Default::default() });
    /// let vm = m.add_domain(SystemConfig::VScale.domain_spec(2));
    /// m.run_until(SimTime::from_ms(50));
    /// assert_eq!(m.guest(vm).active_vcpus(), 2);
    /// ```
    pub fn new(config: MachineConfig) -> Self {
        Machine::with_backend(config)
    }
}

impl<P: Policy> Machine<P> {
    /// Creates a machine running the scheduler policy `P`; like
    /// [`Machine::new`] but policy-generic:
    /// `Machine::<Credit2>::with_backend(cfg)`.
    pub fn with_backend(config: MachineConfig) -> Machine<P> {
        // Map machine-level defenses onto the scheduler's config block.
        let mut credit = config.credit.clone();
        if config.defense.exact_burn {
            credit.sampled_burn = false;
        }
        if config.defense.kick_throttle {
            credit.kick_throttle = true;
        }
        let hv = Pool::new(credit, config.n_pcpus);
        // Two keyed timers per pCPU: its plan (key `p`) and its slice end
        // (key `n_pcpus + p`).
        let mut queue = EventQueue::with_timers(2 * config.n_pcpus);
        let mut tick_rng = SimRng::new(config.seed ^ TICK_JITTER_SALT);
        // Arm the recurring hypervisor timers. Under the tick-jitter
        // defense each pCPU's first tick already lands at a randomized
        // offset, so pCPUs desynchronize from the very first sample.
        for p in 0..config.n_pcpus {
            let first = if config.defense.tick_jitter {
                jittered_interval(TICK, &mut tick_rng)
            } else {
                TICK
            };
            queue.schedule(SimTime::ZERO + first, Ev::hv_tick(PcpuId(p)));
        }
        queue.schedule(SimTime::ZERO + ACCT_PERIOD, Ev::HvAcct);
        queue.schedule(SimTime::ZERO + EXTEND_PERIOD, Ev::ExtendTick);
        let rng = SimRng::new(config.seed);
        let plan_owner = vec![None; config.n_pcpus];
        Machine {
            config,
            hv,
            guests: Vec::new(),
            queue,
            rng,
            plan_owner,
            trace: TraceRing::disabled(),
            sched_buf: Vec::new(),
            ops_buf: VecDeque::new(),
            dirty_buf: Vec::new(),
            fx_buf: Vec::new(),
            run_fx_buf: Vec::new(),
            daemon_fx_buf: Vec::new(),
            ports_buf: Vec::new(),
            ipi_buf: Vec::new(),
            fault_plan: None,
            stall_timeout: SimDuration::from_secs(5),
            fault_error: None,
            wd_instant: SimTime::ZERO,
            wd_instant_events: 0,
            wd_progress_fp: (0, 0),
            wd_progress_at: SimTime::ZERO,
            tick_rng,
            ticks_jittered: 0,
        }
    }

    /// Installs a seeded fault plan; every subsequent dispatch consults it.
    /// Replaces any previous plan (and its injected-fault counters).
    pub fn set_fault_plan(&mut self, config: FaultConfig) {
        self.fault_plan = Some(Box::new(FaultPlan::new(config)));
    }

    /// Removes the fault plan; dispatch reverts to the fault-free paths.
    pub fn clear_fault_plan(&mut self) {
        self.fault_plan = None;
    }

    /// Counters of everything the fault plan injected so far.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.fault_plan.as_deref().map(FaultPlan::stats)
    }

    /// Test hook modeling a freeze/unfreeze hypercall lost by a crashed
    /// daemon incarnation: flips the hypervisor's frozen view of one vCPU
    /// away from the guest's freeze mask. The next post-crash resync must
    /// detect and repair the divergence.
    pub fn desync_frozen(&mut self, dom: DomId, vcpu: VcpuId) {
        let guest_frozen = self.guests[dom.index()]
            .kernel
            .freeze_mask()
            .is_frozen(vcpu);
        self.hv
            .set_frozen(GlobalVcpu::new(dom, vcpu), !guest_frozen);
    }

    /// The hypervisor's frozen view of one vCPU — lets tests check that
    /// recovery re-established guest/hypervisor freeze-state agreement.
    pub fn hv_frozen(&self, dom: DomId, vcpu: VcpuId) -> bool {
        self.hv.is_frozen(GlobalVcpu::new(dom, vcpu))
    }

    /// Overrides the stall timeout of the progress watchdog that
    /// [`Machine::try_run_until`] and [`Machine::try_run_until_exited`]
    /// run.
    pub fn set_stall_timeout(&mut self, timeout: SimDuration) {
        self.stall_timeout = timeout;
    }

    /// Enables tracing of pCPU assignment changes and reconfigurations,
    /// retaining the most recent `capacity` entries.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = TraceRing::new(capacity);
    }

    /// The scheduling trace (empty unless [`Machine::enable_trace`] was
    /// called).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total machine events dispatched so far. The microcosts bench
    /// divides wall time by this to track dispatch-path throughput.
    pub fn events_delivered(&self) -> u64 {
        self.queue.delivered()
    }

    /// The hypervisor (read access for metrics).
    pub fn hv(&self) -> &Pool<P> {
        &self.hv
    }

    /// Adds a domain; its vCPUs start blocked and wake when threads start.
    pub fn add_domain(&mut self, spec: DomainSpec) -> DomId {
        let n_vcpus = spec.guest.n_vcpus;
        let dom =
            self.hv
                .create_domain(spec.weight, n_vcpus, spec.cap_pcpus, spec.reservation_pcpus);
        let (daemon_cfg, hotplug) = match &spec.scaling {
            ScalingMode::Fixed => (crate::daemon::DaemonConfig::default(), None),
            ScalingMode::VScale(d) | ScalingMode::VcpuBal(d) => (*d, None),
            ScalingMode::Hotplug { daemon, version } => {
                (*daemon, Some(HotplugModel::new(*version)))
            }
        };
        let daemon_active = !matches!(spec.scaling, ScalingMode::Fixed);
        self.guests.push(GuestDomain {
            kernel: GuestKernel::new(spec.guest),
            evtchn: EvtchnTable::new(),
            port_pending: Vec::new(),
            scaling: spec.scaling,
            daemon: DaemonState::new(daemon_cfg),
            channel: VscaleChannel::new(),
            hotplug,
            active_trace: vec![(self.queue.now(), n_vcpus)],
            io_arrivals: Vec::new(),
            io_deliveries: Vec::new(),
            nic_completions: Vec::new(),
            arrivals_taken: 0,
            completions_taken: 0,
            nic_busy_until: SimTime::ZERO,
            exited_threads: 0,
            doorbells: Vec::new(),
            retx_handles: Vec::new(),
            failsafe: FailSafe::new(HEARTBEAT_TICKS),
            hotplug_retry: HotplugRetry::default(),
            ipis_coalesced: 0,
            freeze_gate: FreezeRateGate::default(),
            weight: spec.weight,
        });
        if daemon_active {
            let period = self.guests[dom.index()].daemon.config.period;
            self.queue
                .schedule(self.queue.now() + period, Ev::dom(dom, DomEv::DaemonTimer));
        }
        dom
    }

    /// Mutable access to a domain's guest kernel (workload setup).
    pub fn guest_mut(&mut self, dom: DomId) -> &mut GuestKernel {
        &mut self.guests[dom.index()].kernel
    }

    /// Read access to a domain's guest kernel.
    pub fn guest(&self, dom: DomId) -> &GuestKernel {
        &self.guests[dom.index()].kernel
    }

    /// Starts a spawned thread (fork balance + wake path).
    pub fn start_thread(&mut self, dom: DomId, tid: ThreadId) {
        let now = self.queue.now();
        let mut fx = std::mem::take(&mut self.fx_buf);
        self.guests[dom.index()]
            .kernel
            .start_thread(tid, now, &mut fx);
        self.route(dom, &mut fx, now);
        self.fx_buf = fx;
    }

    /// Binds an I/O queue to an event-channel port delivered to `vcpu`.
    pub fn bind_io_port(&mut self, dom: DomId, q: IoQueueId, vcpu: VcpuId) -> PortId {
        let g = &mut self.guests[dom.index()];
        let port = g.evtchn.alloc(dom, vcpu, PortKind::Io);
        debug_assert_eq!(port.0, g.port_pending.len());
        g.port_pending.push((q, 0));
        g.doorbells.push(DoorbellLink::default());
        g.retx_handles.push(None);
        port
    }

    /// Schedules an external I/O arrival (e.g. one HTTP request) at `at`.
    pub fn inject_io(&mut self, dom: DomId, port: PortId, at: SimTime, items: u64) {
        self.queue.schedule(at, Ev::io_arrival(dom, port, items));
    }

    /// Number of threads of `dom` that have exited.
    pub fn exited_threads(&self, dom: DomId) -> u64 {
        self.guests[dom.index()].exited_threads
    }

    /// The Figure 8 trace: (time, active vCPU count) change points.
    pub fn active_trace(&self, dom: DomId) -> &[(SimTime, usize)] {
        &self.guests[dom.index()].active_trace
    }

    /// Client-observed I/O logs not yet taken by [`Machine::take_io`]:
    /// (arrivals, interrupt deliveries, reply completions), each in time
    /// order. On a domain nobody takes from, these are its full history.
    pub fn io_logs(&self, dom: DomId) -> (&[SimTime], &[SimTime], &[SimTime]) {
        let g = &self.guests[dom.index()];
        (&g.io_arrivals, &g.io_deliveries, &g.nic_completions)
    }

    /// Hands `f` the reply-completion times of `dom` not yet taken, in
    /// time order, then forgets every untaken entry of its three I/O
    /// logs. The logs keep their capacity, so a consumer that takes
    /// every epoch holds them at one epoch's entries without
    /// reallocating. [`Machine::io_counts`] keeps the lifetime totals.
    pub fn take_io(&mut self, dom: DomId, mut f: impl FnMut(SimTime)) {
        let g = &mut self.guests[dom.index()];
        for &c in &g.nic_completions {
            f(c);
        }
        g.arrivals_taken += g.io_arrivals.len() as u64;
        g.completions_taken += g.nic_completions.len() as u64;
        g.io_arrivals.clear();
        g.io_deliveries.clear();
        g.nic_completions.clear();
    }

    /// Lifetime I/O totals of `dom`, taken or not: (requests arrived,
    /// replies completed). They travel in checkpoints and migration
    /// images, so a restore or a cutover continues them.
    pub fn io_counts(&self, dom: DomId) -> (u64, u64) {
        let g = &self.guests[dom.index()];
        (
            g.arrivals_taken + g.io_arrivals.len() as u64,
            g.completions_taken + g.nic_completions.len() as u64,
        )
    }

    /// Aggregate statistics for `dom`.
    pub fn domain_stats(&self, dom: DomId) -> DomainStats {
        let g = &self.guests[dom.index()];
        let n = g.kernel.n_vcpus();
        let mut doorbell = xen_sched::channel::DoorbellStats::default();
        for link in &g.doorbells {
            let s = link.stats();
            doorbell.sent += s.sent;
            doorbell.acked += s.acked;
            doorbell.retransmits += s.retransmits;
            doorbell.suppressed += s.suppressed;
            doorbell.exhausted += s.exhausted;
        }
        let rec = g.channel.recovery_stats();
        let run_total = self.hv.domain_run_total(dom);
        // Stolen-time estimate: run time beyond this domain's weight-fair
        // share of elapsed pool capacity (see the `stolen_est` field doc).
        let weight_sum: u64 = self.guests.iter().map(|g| u64::from(g.weight)).sum();
        let elapsed_ns = self.queue.now().since(SimTime::ZERO).as_ns();
        let fair_ns = if weight_sum == 0 {
            0
        } else {
            (elapsed_ns as u128 * self.config.n_pcpus as u128 * u128::from(g.weight)
                / u128::from(weight_sum)) as u64
        };
        let stolen_est = SimDuration::from_ns(run_total.as_ns().saturating_sub(fair_ns));
        DomainStats {
            wait_total: self.hv.domain_wait_total(dom),
            run_total,
            resched_ipis: (0..n).map(|i| g.kernel.resched_ipis(VcpuId(i))).collect(),
            timer_ints: (0..n).map(|i| g.kernel.timer_ints(VcpuId(i))).collect(),
            daemon_reads: g.daemon.reads,
            reconfigs: g.daemon.reconfigs,
            daemon_crashes: g.daemon.crashes,
            discarded_reads: g.daemon.discarded_reads,
            hotplug_aborts: g.daemon.hotplug_aborts,
            retransmits: doorbell.retransmits,
            doorbell_acks: doorbell.acked,
            dup_suppressed: doorbell.suppressed,
            retransmit_exhausted: doorbell.exhausted,
            read_retries: rec.retries,
            read_fallbacks: rec.fallbacks,
            resyncs: g.daemon.resyncs,
            resync_repairs: g.daemon.resync_repairs,
            failsafe_trips: g.failsafe.trips(),
            hotplug_retries: g.hotplug_retry.retries(),
            hotplug_giveups: g.hotplug_retry.giveups(),
            ipis_coalesced: g.ipis_coalesced,
            stolen_est,
            kicks_throttled: self.hv.kicks_throttled(dom),
            reconfigs_suppressed: g.freeze_gate.suppressed(),
        }
    }

    /// Tick re-arms that drew a jittered interval (the tick-jitter
    /// defense's activity counter; 0 when the defense is off).
    pub fn ticks_jittered(&self) -> u64 {
        self.ticks_jittered
    }

    // ------------------------------------------------------------------
    // The event loop.
    // ------------------------------------------------------------------

    /// Runs until `deadline` or until the event queue empties.
    ///
    /// Panics (with the full [`SimError`] rendering) if a routing storm is
    /// detected — the legacy loud-failure contract. Fault-injection runs
    /// should prefer [`Machine::try_run_until`], which also applies the
    /// livelock and progress watchdogs and returns a typed error.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((now, ev)) = self.queue.pop_next_until(deadline) {
            self.handle(ev, now);
            if let Some(e) = self.fault_error.take() {
                panic!("{e}");
            }
        }
    }

    /// Runs until every thread of `dom` has exited, a deadline passes, or
    /// the queue empties. Returns the completion time if all exited.
    ///
    /// Panics on a routing storm; see [`Machine::run_until`].
    pub fn run_until_exited(&mut self, dom: DomId, deadline: SimTime) -> Option<SimTime> {
        loop {
            if self.guests[dom.index()].kernel.n_threads() > 0
                && self.guests[dom.index()].kernel.all_exited()
            {
                return Some(self.queue.now());
            }
            let (now, ev) = self.queue.pop_next_until(deadline)?;
            self.handle(ev, now);
            if let Some(e) = self.fault_error.take() {
                panic!("{e}");
            }
        }
    }

    /// Watchdog-supervised [`Machine::run_until`]: never hangs and never
    /// panics on the supervised paths — a wedged run returns a [`SimError`]
    /// naming the stalled layer, with diagnostics attached.
    pub fn try_run_until(&mut self, deadline: SimTime) -> Result<(), SimError> {
        loop {
            let Some((now, ev)) = self.queue.pop_next_until(deadline) else {
                return Ok(());
            };
            self.watchdog_tick(now)?;
            self.handle(ev, now);
            if let Some(e) = self.fault_error.take() {
                return Err(e);
            }
        }
    }

    /// The cluster layer's epoch driver: advances this host to `deadline`
    /// under watchdog supervision, processing every local event with
    /// `t <= deadline`.
    ///
    /// The lockstep contract: a cluster steps its hosts in epochs, and
    /// within one epoch each host evolves *only* from events already in
    /// its queue — cross-host messages are injected (via
    /// [`Machine::inject_io`]) strictly before the epoch that delivers
    /// them begins. Under that contract `step_to` is safe to call from a
    /// worker thread per host (machines share nothing), and a host's
    /// evolution is a pure function of its injected events, independent
    /// of how hosts are partitioned across workers.
    pub fn step_to(&mut self, deadline: SimTime) -> Result<(), SimError> {
        self.try_run_until(deadline)
    }

    /// Cheap lower bound on this machine's next event time, or `None`
    /// when its queue is empty. Inherits the queue hint's contract:
    /// conservative (may be earlier than the true next event) but never
    /// late, so a caller that skips a [`Machine::step_to`] because the
    /// hint lies past its deadline skips only a guaranteed no-op — the
    /// cluster's sparse host stepping rests on exactly this.
    pub fn peek_time_hint(&self) -> Option<SimTime> {
        self.queue.peek_time_hint()
    }

    /// Watchdog-supervised [`Machine::run_until_exited`].
    pub fn try_run_until_exited(
        &mut self,
        dom: DomId,
        deadline: SimTime,
    ) -> Result<Option<SimTime>, SimError> {
        loop {
            if self.guests[dom.index()].kernel.n_threads() > 0
                && self.guests[dom.index()].kernel.all_exited()
            {
                return Ok(Some(self.queue.now()));
            }
            let Some((now, ev)) = self.queue.pop_next_until(deadline) else {
                return Ok(None);
            };
            self.watchdog_tick(now)?;
            self.handle(ev, now);
            if let Some(e) = self.fault_error.take() {
                return Err(e);
            }
        }
    }

    // ------------------------------------------------------------------
    // Watchdog and diagnostics.
    // ------------------------------------------------------------------

    /// Per-event watchdog bookkeeping for the checked run loops: counts
    /// same-instant events (livelock) and periodically re-fingerprints
    /// forward progress (stall). Detection latency for a stall is between
    /// one and two `stall_timeout`s of virtual time.
    fn watchdog_tick(&mut self, now: SimTime) -> Result<(), SimError> {
        if now == self.wd_instant {
            self.wd_instant_events += 1;
            if self.wd_instant_events > MAX_EVENTS_PER_INSTANT {
                return Err(self.build_error(
                    SimErrorKind::Livelock {
                        events_at_instant: self.wd_instant_events,
                    },
                    "core::machine",
                ));
            }
        } else {
            self.wd_instant = now;
            self.wd_instant_events = 1;
        }
        if now.since(self.wd_progress_at) >= self.stall_timeout {
            let fp = self.progress_fingerprint();
            if fp != self.wd_progress_fp || !self.wants_progress() {
                self.wd_progress_fp = fp;
                self.wd_progress_at = now;
            } else {
                return Err(self.build_error(
                    SimErrorKind::NoProgress {
                        stalled_for: now.since(self.wd_progress_at),
                    },
                    self.diagnose_stall(),
                ));
            }
        }
        Ok(())
    }

    /// A cheap digest that moves whenever the simulation does useful work:
    /// guest CPU time retired, plus discrete completions (thread exits,
    /// context switches, daemon reads).
    fn progress_fingerprint(&self) -> (u64, u64) {
        // One O(1) scheduler load for CPU progress — this runs on the
        // per-event dispatch path, so it must not fold per-domain
        // per-vCPU run totals (the pre-aggregated counter moves with
        // every credit burn, which is exactly "work happened").
        let work = self.hv.total_run_ns();
        let mut retired = 0u64;
        for g in self.guests.iter() {
            retired = retired
                .wrapping_add(g.exited_threads)
                .wrapping_add(g.kernel.stats().context_switches)
                .wrapping_add(g.daemon.reads);
        }
        (work, retired)
    }

    /// Whether anything in the system still owes progress. An idle machine
    /// (all threads exited, daemons quiescent) is allowed to coast on timer
    /// ticks forever without tripping the stall watchdog.
    fn wants_progress(&self) -> bool {
        self.guests.iter().any(|g| {
            (g.kernel.n_threads() > 0 && !g.kernel.all_exited())
                || g.daemon.phase != DaemonPhase::Idle
        })
    }

    /// Attributes a stall to the layer most plausibly wedged.
    fn diagnose_stall(&self) -> &'static str {
        for g in &self.guests {
            match g.daemon.phase {
                DaemonPhase::Reconfiguring { .. } => {
                    return if g.hotplug.is_some() {
                        "guest-kernel::hotplug"
                    } else {
                        "core::daemon"
                    };
                }
                DaemonPhase::Reading => return "core::daemon",
                DaemonPhase::Idle => {}
            }
        }
        for (i, g) in self.guests.iter().enumerate() {
            if g.kernel.n_threads() > 0 && !g.kernel.all_exited() {
                let dom = DomId(i);
                let any_running = (0..g.kernel.n_vcpus()).any(|v| {
                    self.hv
                        .where_running(GlobalVcpu::new(dom, VcpuId(v)))
                        .is_some()
                });
                // Running vCPUs that retire nothing point at the guest
                // scheduler; parked-but-owed vCPUs point at the hypervisor
                // or at external input that never arrives.
                return if any_running {
                    "guest-kernel::balancer"
                } else {
                    "xen-sched::credit"
                };
            }
        }
        "core::machine"
    }

    fn build_error(&self, kind: SimErrorKind, layer: &'static str) -> SimError {
        SimError {
            kind,
            at: self.queue.now(),
            layer,
            diagnostics: self.diagnostics(),
        }
    }

    /// Captures the diagnostics bundle: per-vCPU state dump plus the tail
    /// of the trace ring (when tracing is enabled).
    fn diagnostics(&self) -> Diagnostics {
        let mut dump = String::new();
        for (i, g) in self.guests.iter().enumerate() {
            let mode = match g.scaling {
                ScalingMode::Fixed => "fixed",
                ScalingMode::VScale(_) => "vscale",
                ScalingMode::VcpuBal(_) => "vcpu-bal",
                ScalingMode::Hotplug { .. } => "hotplug",
            };
            let _ = writeln!(
                dump,
                "dom{i} [{mode}]: phase={:?} threads={} exited={} reads={} \
                 discarded={} crashes={} aborts={}",
                g.daemon.phase,
                g.kernel.n_threads(),
                g.exited_threads,
                g.daemon.reads,
                g.daemon.discarded_reads,
                g.daemon.crashes,
                g.daemon.hotplug_aborts,
            );
            for v in 0..g.kernel.n_vcpus() {
                let vid = VcpuId(v);
                let on = self.hv.where_running(GlobalVcpu::new(DomId(i), vid));
                let _ = writeln!(
                    dump,
                    "  {vid:?}: online={} frozen={} running={}",
                    g.kernel.is_online(vid),
                    g.kernel.freeze_mask().is_frozen(vid),
                    on.map_or("-".to_string(), |p| format!("{p}")),
                );
            }
        }
        let backtrace = if self.trace.is_enabled() {
            let full = self.trace.dump();
            let lines: Vec<&str> = full.lines().collect();
            let tail = lines.len().saturating_sub(50);
            lines[tail..].join("\n")
        } else {
            "(trace disabled; call enable_trace() before the run for an event backtrace)"
                .to_string()
        };
        Diagnostics {
            event_backtrace: backtrace,
            vcpu_dump: dump,
        }
    }

    fn handle(&mut self, ev: Ev, now: SimTime) {
        match ev {
            Ev::HvTick(p) => {
                let p = PcpuId(p as usize);
                self.hv_and_drain(now, |hv, ev| hv.on_tick(p, now, ev));
                let interval = if self.config.defense.tick_jitter {
                    self.ticks_jittered += 1;
                    jittered_interval(TICK, &mut self.tick_rng)
                } else {
                    TICK
                };
                self.queue.schedule(now + interval, Ev::hv_tick(p));
                self.inject_steal_spike(now);
            }
            Ev::HvAcct => {
                self.hv_and_drain(now, |hv, ev| hv.on_acct(now, ev));
                self.queue.schedule(now + ACCT_PERIOD, Ev::HvAcct);
            }
            Ev::ExtendTick => {
                self.hv.on_extend_tick(now);
                self.queue.schedule(now + EXTEND_PERIOD, Ev::ExtendTick);
            }
            Ev::SliceEnd { pcpu } => {
                let pcpu = PcpuId(pcpu as usize);
                self.hv_and_drain(now, |hv, ev| hv.slice_expired(pcpu, now, ev));
            }
            Ev::Plan { dom, vcpu } => {
                let (dom, vcpu) = (DomId(dom as usize), VcpuId(vcpu as usize));
                let mut fx = std::mem::take(&mut self.fx_buf);
                self.guests[dom.index()]
                    .kernel
                    .on_plan_point(vcpu, now, &mut fx);
                self.route(dom, &mut fx, now);
                self.fx_buf = fx;
                self.replan(dom, vcpu, now);
            }
            Ev::Dom(dom, ev) => self.handle_dom(DomId(dom as usize), ev, now),
        }
    }

    fn handle_dom(&mut self, dom: DomId, ev: DomEv, now: SimTime) {
        match ev {
            DomEv::IpiDeliver { vcpu } => {
                let vcpu = VcpuId(vcpu as usize);
                let gv = GlobalVcpu::new(dom, vcpu);
                if self.hv.where_running(gv).is_some() {
                    let mut fx = std::mem::take(&mut self.fx_buf);
                    self.guests[dom.index()]
                        .kernel
                        .on_resched_ipi(vcpu, now, &mut fx);
                    self.route(dom, &mut fx, now);
                    self.fx_buf = fx;
                    self.replan(dom, vcpu, now);
                } else {
                    // Target lost its pCPU while the IPI was in flight.
                    self.guests[dom.index()].kernel.pend_resched(vcpu);
                    self.hv_and_drain(now, |hv, ev| hv.vcpu_wake(gv, now, ev));
                }
            }
            DomEv::SleepWake { tid } => {
                let tid = ThreadId(tid as usize);
                let mut fx = std::mem::take(&mut self.fx_buf);
                self.guests[dom.index()]
                    .kernel
                    .wake_thread(tid, None, now, &mut fx);
                self.route(dom, &mut fx, now);
                self.fx_buf = fx;
            }
            DomEv::DaemonTimer => {
                let crash = self
                    .fault_plan
                    .as_mut()
                    .is_some_and(|f| f.on_daemon_timer());
                if crash {
                    // The daemon process dies and respawns before its next
                    // period: soft state (EMA, streaks, in-flight read) is
                    // lost, lifetime counters survive, the timer re-arms.
                    self.trace
                        .push(now, "daemon", TraceEvent::DaemonCrashRestart(dom));
                    self.guests[dom.index()].daemon.crash_restart();
                    let period = self.guests[dom.index()].daemon.config.period;
                    self.queue
                        .schedule(now + period, Ev::dom(dom, DomEv::DaemonTimer));
                } else {
                    self.daemon_timer(dom, now);
                }
                // The balancer's heartbeat watchdog counts every period;
                // a completed read rearms it (see daemon_work_done).
                self.failsafe_tick(dom, now);
                // The freeze-rate hysteresis gate measures dwell in
                // daemon periods off this same timer.
                self.guests[dom.index()].freeze_gate.tick();
            }
            DomEv::IoArrival { port, items } => {
                self.io_arrival(dom, PortId(port as usize), items, now);
            }
            DomEv::NicDrained => {
                self.guests[dom.index()].nic_completions.push(now);
            }
            DomEv::HotplugDone { vcpu, online } => {
                let vcpu = VcpuId(vcpu as usize);
                let mut fx = std::mem::take(&mut self.fx_buf);
                self.guests[dom.index()]
                    .kernel
                    .set_online(vcpu, online, now, &mut fx);
                self.guests[dom.index()].hotplug_retry.on_success();
                self.guests[dom.index()].daemon.reconfigs += 1;
                self.guests[dom.index()].daemon.phase = DaemonPhase::Idle;
                let active = self.guests[dom.index()].kernel.active_vcpus();
                self.guests[dom.index()].active_trace.push((now, active));
                self.route(dom, &mut fx, now);
                self.fx_buf = fx;
            }
            DomEv::PortRecover { port } => {
                let port = PortId(port as usize);
                // A delayed doorbell rings, or the periodic re-scan notices
                // a pending bit whose doorbell was dropped. Spurious when
                // the port was delivered in the meantime: the pending bit
                // detects the replay and the ring is suppressed — the
                // idempotence half of the seq/ack protocol.
                if !self.guests[dom.index()].evtchn.port(port).pending {
                    if let Some(link) = self.guests[dom.index()].doorbells.get_mut(port.0) {
                        link.note_suppressed();
                    }
                    return;
                }
                self.deliver_or_wake(dom, port, now);
            }
            DomEv::Retransmit { port, seq } => {
                self.retransmit(dom, PortId(port as usize), seq, now);
            }
            DomEv::HotplugAborted => {
                // stop_machine unwound partway: the partial stall has been
                // paid, the target stays online, there is no local tail.
                self.trace
                    .push(now, "daemon", TraceEvent::HotplugAbort(dom));
                // Arm the capped exponential hold before the next removal
                // attempt, dated from the unwind (stalls vary in length).
                self.guests[dom.index()].hotplug_retry.on_abort(now);
                self.guests[dom.index()].daemon.phase = DaemonPhase::Idle;
                for v in 0..self.guests[dom.index()].kernel.n_vcpus() {
                    self.replan(dom, VcpuId(v), now);
                }
            }
        }
    }

    /// Injects a steal-time spike on a plan-picked victim vCPU: queued
    /// kernel work the victim must burn before resuming its threads —
    /// the guest-visible shape of host-side stolen time.
    fn inject_steal_spike(&mut self, now: SimTime) {
        let Some(plan) = self.fault_plan.as_mut() else {
            return;
        };
        let Some(len) = plan.on_hv_tick() else {
            return;
        };
        if self.guests.is_empty() {
            return;
        }
        let n_guests = self.guests.len() as u64;
        let di = self
            .fault_plan
            .as_mut()
            .expect("plan present")
            .pick(n_guests) as usize;
        let n_vcpus = self.guests[di].kernel.n_vcpus() as u64;
        let vi = self
            .fault_plan
            .as_mut()
            .expect("plan present")
            .pick(n_vcpus) as usize;
        let dom = DomId(di);
        let victim = VcpuId(vi);
        self.guests[di].kernel.push_kwork(victim, now, len, None);
        if self
            .hv
            .where_running(GlobalVcpu::new(dom, victim))
            .is_some()
        {
            self.replan(dom, victim, now);
        }
        // A parked victim pays the spike when it next gets a pCPU; stolen
        // time cannot wake a sleeping vCPU.
    }

    /// Runs one sink-style scheduler call and appends the produced events
    /// to `ops` as routing work, via the reusable scratch sink.
    fn hv_into_ops(
        &mut self,
        ops: &mut VecDeque<Op>,
        f: impl FnOnce(&mut Pool<P>, &mut Vec<SchedEvent>),
    ) {
        let mut buf = std::mem::take(&mut self.sched_buf);
        f(&mut self.hv, &mut buf);
        ops.extend(buf.drain(..).map(Op::Sched));
        self.sched_buf = buf;
    }

    /// Runs one sink-style scheduler call and drains the resulting cascade
    /// of guest reactions.
    fn hv_and_drain(&mut self, now: SimTime, f: impl FnOnce(&mut Pool<P>, &mut Vec<SchedEvent>)) {
        let mut ops = std::mem::take(&mut self.ops_buf);
        self.hv_into_ops(&mut ops, f);
        if ops.is_empty() {
            // Nothing to route (the common case for ticks that change no
            // assignment): skip the drain and its scratch-buffer churn.
            self.ops_buf = ops;
            return;
        }
        self.drain(ops, now);
    }

    /// Routes guest effects produced by a direct call into a guest kernel
    /// (tests and tools that bypass the daemon), at the current time.
    pub fn apply_guest_effects(&mut self, dom: DomId, mut fx: Vec<GuestEffect>) {
        let now = self.queue.now();
        self.route(dom, &mut fx, now);
    }

    /// Routes guest effects from `dom`, cascading. Drains `fx`.
    fn route(&mut self, dom: DomId, fx: &mut Vec<GuestEffect>, now: SimTime) {
        if fx.is_empty() {
            // Nothing to route (most plan points advance a computation
            // without any cross-layer effect): the drain would be a no-op,
            // so skip it and its scratch-buffer churn.
            return;
        }
        let mut ops = std::mem::take(&mut self.ops_buf);
        ops.extend(fx.drain(..).map(|e| Op::Guest(dom, e)));
        self.drain(ops, now);
    }

    /// The central routing loop: processes scheduling events and guest
    /// effects until quiescent, collecting vCPUs whose plans went stale.
    /// `ops` returns to [`Machine::ops_buf`] (empty) when the loop ends.
    fn drain(&mut self, mut ops: VecDeque<Op>, now: SimTime) {
        let mut dirty = std::mem::take(&mut self.dirty_buf);
        // Targets already sent a reschedule IPI within this dispatch:
        // further IPIs to them coalesce onto the pending-resched bit.
        let mut ipi_seen = std::mem::take(&mut self.ipi_buf);
        let mut guard = 0u64;
        while let Some(op) = ops.pop_front() {
            guard += 1;
            if guard >= MAX_EVENTS_PER_INSTANT {
                // A feedback loop between scheduler events and guest
                // effects. Record a structured error for the run loop to
                // surface (or panic with) and abandon the storm.
                ops.clear();
                if self.fault_error.is_none() {
                    self.fault_error =
                        Some(self.build_error(
                            SimErrorKind::RoutingStorm { ops: guard },
                            "core::machine",
                        ));
                }
                break;
            }
            match op {
                Op::Sched(SchedEvent::Run { pcpu, vcpu }) => {
                    self.trace.push(now, "hv", TraceEvent::Run { vcpu, pcpu });
                    let mut fx = std::mem::take(&mut self.run_fx_buf);
                    self.guests[vcpu.dom.index()]
                        .kernel
                        .vcpu_start(vcpu.vcpu, now, &mut fx);
                    // Deliver any pending event-channel interrupts.
                    let mut pending = std::mem::take(&mut self.ports_buf);
                    self.guests[vcpu.dom.index()]
                        .evtchn
                        .pending_for_into(vcpu.vcpu, &mut pending);
                    for port in pending.drain(..) {
                        self.deliver_port(vcpu.dom, port, now, &mut fx);
                    }
                    self.ports_buf = pending;
                    ops.extend(fx.drain(..).map(|e| Op::Guest(vcpu.dom, e)));
                    self.run_fx_buf = fx;
                    // Arm the slice-expiry for this assignment.
                    self.queue
                        .arm(self.slice_key(pcpu), now + SLICE, Ev::slice_end(pcpu));
                    dirty.push((vcpu.dom, vcpu.vcpu));
                }
                Op::Sched(SchedEvent::Desched { pcpu, vcpu }) => {
                    self.trace
                        .push(now, "hv", TraceEvent::Desched { vcpu, pcpu });
                    self.guests[vcpu.dom.index()]
                        .kernel
                        .vcpu_stop(vcpu.vcpu, now);
                    self.release_plan(pcpu, vcpu);
                    // The contract puts a `Desched` before every new
                    // assignment of `pcpu`, so the slice timer is armed
                    // exactly while the pCPU runs a vCPU.
                    self.queue.disarm(self.slice_key(pcpu));
                    dirty.push((vcpu.dom, vcpu.vcpu));
                }
                Op::Sched(SchedEvent::Idle { .. }) => {}
                Op::Guest(dom, e) => {
                    self.guest_effect(dom, e, now, &mut ops, &mut dirty, &mut ipi_seen);
                }
            }
        }
        for (dom, vcpu) in dirty.drain(..) {
            self.replan(dom, vcpu, now);
        }
        ipi_seen.clear();
        self.ipi_buf = ipi_seen;
        self.dirty_buf = dirty;
        self.ops_buf = ops;
    }

    fn guest_effect(
        &mut self,
        dom: DomId,
        e: GuestEffect,
        now: SimTime,
        ops: &mut VecDeque<Op>,
        dirty: &mut Vec<(DomId, VcpuId)>,
        ipi_seen: &mut Vec<(DomId, VcpuId)>,
    ) {
        match e {
            GuestEffect::VcpuIdle(v) => {
                if self.guests[dom.index()].kernel.wants_block(v) {
                    self.hv_into_ops(ops, |hv, ev| {
                        hv.vcpu_block(GlobalVcpu::new(dom, v), now, ev)
                    });
                } else {
                    dirty.push((dom, v));
                }
            }
            GuestEffect::VcpuPvBlock(v) => {
                self.hv_into_ops(ops, |hv, ev| {
                    hv.vcpu_block(GlobalVcpu::new(dom, v), now, ev)
                });
            }
            GuestEffect::SendResched { from, to } => {
                dirty.push((dom, from));
                let gv = GlobalVcpu::new(dom, to);
                if self.hv.where_running(gv).is_some() {
                    if ipi_seen.contains(&(dom, to)) {
                        // An IPI to this target is already in flight from
                        // this same dispatch: coalesce onto the
                        // pending-resched bit, which the in-flight IPI's
                        // handler (or the slice end) will act on. No new
                        // doorbell edge, so no fault draw either.
                        self.guests[dom.index()].kernel.pend_resched(to);
                        self.guests[dom.index()].ipis_coalesced += 1;
                        return;
                    }
                    ipi_seen.push((dom, to));
                    let base = now + IPI_LATENCY;
                    let fault = self
                        .fault_plan
                        .as_mut()
                        .map_or(DeliveryFault::Deliver, |f| f.on_ipi());
                    match fault {
                        DeliveryFault::Deliver => {
                            self.queue.schedule(base, Ev::ipi_deliver(dom, to));
                        }
                        DeliveryFault::Drop => {
                            // The doorbell is lost, but the pending bit
                            // survives: the target acts on it at its next
                            // natural scheduling point (bounded by the end
                            // of its current slice).
                            self.guests[dom.index()].kernel.pend_resched(to);
                        }
                        DeliveryFault::Delay(d) => {
                            self.queue.schedule(base + d, Ev::ipi_deliver(dom, to));
                        }
                        DeliveryFault::Duplicate(d) => {
                            self.queue.schedule(base, Ev::ipi_deliver(dom, to));
                            self.queue.schedule(base + d, Ev::ipi_deliver(dom, to));
                        }
                    }
                } else {
                    self.guests[dom.index()].kernel.pend_resched(to);
                    self.hv_into_ops(ops, |hv, ev| hv.vcpu_wake(gv, now, ev));
                }
            }
            GuestEffect::PvKick(v) => {
                self.hv_into_ops(ops, |hv, ev| hv.vcpu_wake(GlobalVcpu::new(dom, v), now, ev));
            }
            GuestEffect::SetFrozen { vcpu, frozen } => {
                let gv = GlobalVcpu::new(dom, vcpu);
                let ev = if frozen {
                    TraceEvent::Freeze(gv)
                } else {
                    TraceEvent::Unfreeze(gv)
                };
                self.trace.push(now, "daemon", ev);
                self.hv.set_frozen(gv, frozen);
                let active = self.guests[dom.index()].kernel.active_vcpus();
                self.guests[dom.index()].active_trace.push((now, active));
            }
            GuestEffect::KickVcpu(v) => {
                self.hv_into_ops(ops, |hv, ev| hv.kick_vcpu(GlobalVcpu::new(dom, v), now, ev));
                dirty.push((dom, v));
            }
            GuestEffect::NicSend { bytes, .. } => {
                let g = &mut self.guests[dom.index()];
                let wire = SimDuration::from_ns(bytes * 8 * 1_000_000_000 / NIC_BPS);
                let start = g.nic_busy_until.max(now);
                g.nic_busy_until = start + wire;
                self.queue
                    .schedule(g.nic_busy_until, Ev::dom(dom, DomEv::NicDrained));
            }
            GuestEffect::SleepUntil { tid, wake_at } => {
                self.queue.schedule(wake_at, Ev::sleep_wake(dom, tid));
            }
            GuestEffect::ThreadExited(_) => {
                self.guests[dom.index()].exited_threads += 1;
            }
            GuestEffect::KernelWorkDone { vcpu, tag } => {
                self.daemon_work_done(dom, vcpu, tag, now, ops, dirty);
            }
            GuestEffect::Replan(v) => {
                dirty.push((dom, v));
            }
        }
    }

    /// Recomputes and re-arms the plan timer for one vCPU. A vCPU off
    /// its pCPU has none: `Desched` already released it.
    fn replan(&mut self, dom: DomId, vcpu: VcpuId, now: SimTime) {
        let gv = GlobalVcpu::new(dom, vcpu);
        let Some(pcpu) = self.hv.where_running(gv) else {
            debug_assert!(
                !self.plan_owner.contains(&Some(gv)),
                "{gv} owns a plan timer off its pCPU"
            );
            return;
        };
        match self.guests[dom.index()].kernel.next_plan(vcpu, now) {
            Some(t) if t != SimTime::MAX => self.arm_plan(pcpu, t, gv),
            _ => self.release_plan(pcpu, gv),
        }
    }

    /// The keyed timer of `pcpu`'s slice end; plan timers take keys
    /// `0..n_pcpus`.
    fn slice_key(&self, pcpu: PcpuId) -> usize {
        self.config.n_pcpus + pcpu.index()
    }

    /// Arms `pcpu`'s plan timer for `gv`, which runs there, replacing
    /// whatever plan the slot held.
    fn arm_plan(&mut self, pcpu: PcpuId, t: SimTime, gv: GlobalVcpu) {
        self.queue.arm(pcpu.index(), t, Ev::plan(gv.dom, gv.vcpu));
        self.plan_owner[pcpu.index()] = Some(gv);
    }

    /// Disarms `pcpu`'s plan timer if `gv` armed it last. A vCPU that
    /// left `pcpu` while another took it in the same drain finds the
    /// slot already re-owned and leaves it alone.
    fn release_plan(&mut self, pcpu: PcpuId, gv: GlobalVcpu) {
        if self.plan_owner[pcpu.index()] == Some(gv) {
            self.plan_owner[pcpu.index()] = None;
            self.queue.disarm(pcpu.index());
        }
    }

    // ------------------------------------------------------------------
    // I/O path.
    // ------------------------------------------------------------------

    fn io_arrival(&mut self, dom: DomId, port: PortId, items: u64, now: SimTime) {
        self.guests[dom.index()].io_arrivals.push(now);
        // vScale migrates interrupts when they occur: consult the guest.
        let bound = self.guests[dom.index()].evtchn.port(port).bound_vcpu;
        let (target, redirected) = self.guests[dom.index()].kernel.irq_target(bound);
        if redirected {
            let cost = self.guests[dom.index()].evtchn.rebind(port, target);
            // The rebind hypercall is charged on the new target vCPU.
            self.guests[dom.index()]
                .kernel
                .push_kwork(target, now, cost, None);
        }
        self.guests[dom.index()].port_pending[port.0].1 += items;
        let notify = self.guests[dom.index()].evtchn.send(port);
        let gv = GlobalVcpu::new(dom, target);
        // A fault can only touch an actual doorbell edge: a coalesced send
        // (port already pending) raises none, so nothing is drawn for it.
        let fault = if notify.is_some() {
            self.fault_plan
                .as_mut()
                .map_or(DeliveryFault::Deliver, |f| f.on_notify())
        } else {
            DeliveryFault::Deliver
        };
        match fault {
            DeliveryFault::Drop => {
                // The doorbell is lost; the pending bit and the payload
                // survive. The sender cannot confirm the edge: open a
                // sequence and arm the retransmit timer. Should the whole
                // backoff ladder be lost too, the guest's periodic re-scan
                // remains the delivery bound of last resort.
                let seq = self.guests[dom.index()].doorbells[port.0].open();
                let h = self
                    .queue
                    .schedule(now + RETRANSMIT_RTO, Ev::retransmit(dom, port, seq));
                self.guests[dom.index()].retx_handles[port.0] = Some(h);
            }
            DeliveryFault::Delay(d) => {
                // The doorbell is late: the ring lands at `now + d`, but
                // the sender sees no timely ack, so the seq/ack machinery
                // arms exactly as for a drop. Whichever of the late ring or
                // a retransmit lands first delivers and acks; the loser is
                // suppressed by the pending bit.
                let seq = self.guests[dom.index()].doorbells[port.0].open();
                self.queue.schedule(now + d, Ev::port_recover(dom, port));
                let h = self
                    .queue
                    .schedule(now + RETRANSMIT_RTO, Ev::retransmit(dom, port, seq));
                self.guests[dom.index()].retx_handles[port.0] = Some(h);
            }
            DeliveryFault::Deliver | DeliveryFault::Duplicate(_) => {
                if let DeliveryFault::Duplicate(d) = fault {
                    // The spurious second doorbell: a PortRecover that
                    // finds nothing pending and does nothing.
                    self.queue.schedule(now + d, Ev::port_recover(dom, port));
                }
                if self.hv.where_running(gv).is_some() {
                    // Deliver right away.
                    let mut fx = std::mem::take(&mut self.fx_buf);
                    self.deliver_port(dom, port, now, &mut fx);
                    self.route(dom, &mut fx, now);
                    self.fx_buf = fx;
                    self.replan(dom, target, now);
                } else if notify.is_some() {
                    // Wake the vCPU through the hypervisor; delivery happens at
                    // vcpu_start (the Figure 1(c) delay when pCPUs are contended).
                    self.hv_and_drain(now, |hv, ev| hv.vcpu_wake(gv, now, ev));
                }
            }
        }
    }

    /// Delivers one pending port to its bound vCPU (which holds a pCPU).
    fn deliver_port(&mut self, dom: DomId, port: PortId, now: SimTime, fx: &mut Vec<GuestEffect>) {
        let di = dom.index();
        if !self.guests[di].evtchn.deliver(port) {
            return;
        }
        // Any successful delivery — retransmitted, re-scanned, or a natural
        // vcpu_start sweep — acknowledges the outstanding doorbell sequence
        // and disarms its retransmit timer.
        if let Some(h) = self.guests[di]
            .retx_handles
            .get_mut(port.0)
            .and_then(Option::take)
        {
            self.queue.cancel(h);
        }
        if let Some(link) = self.guests[di].doorbells.get_mut(port.0) {
            link.ack_outstanding();
        }
        let g = &mut self.guests[di];
        let vcpu = g.evtchn.port(port).bound_vcpu;
        let (q, items) = {
            let entry = &mut g.port_pending[port.0];
            let out = (entry.0, entry.1);
            entry.1 = 0;
            out
        };
        if items == 0 {
            return;
        }
        for _ in 0..items {
            g.io_deliveries.push(now);
        }
        g.kernel.deliver_io_irq(vcpu, q, items, now, fx);
    }

    /// Delivers a pending port right away when its bound vCPU holds a
    /// pCPU, otherwise wakes the vCPU through the hypervisor (delivery
    /// then happens at its `vcpu_start` pending-port sweep).
    fn deliver_or_wake(&mut self, dom: DomId, port: PortId, now: SimTime) {
        let bound = self.guests[dom.index()].evtchn.port(port).bound_vcpu;
        let gv = GlobalVcpu::new(dom, bound);
        if self.hv.where_running(gv).is_some() {
            let mut fx = std::mem::take(&mut self.fx_buf);
            self.deliver_port(dom, port, now, &mut fx);
            self.route(dom, &mut fx, now);
            self.fx_buf = fx;
            self.replan(dom, bound, now);
        } else {
            self.hv_and_drain(now, |hv, ev| hv.vcpu_wake(gv, now, ev));
        }
    }

    /// A doorbell ack timeout fired: re-ring the doorbell for `seq` if it
    /// is still outstanding, drawing a fresh injected outcome for the
    /// retransmitted ring, and advance the capped exponential backoff.
    /// Once the attempt budget is spent, recovery falls back to the
    /// receiver's periodic re-scan — the delivery bound of last resort.
    fn retransmit(&mut self, dom: DomId, port: PortId, seq: u64, now: SimTime) {
        let di = dom.index();
        self.guests[di].retx_handles[port.0] = None;
        if !self.guests[di].doorbells[port.0].is_outstanding(seq) {
            return; // Acked while the timer was in flight.
        }
        if !self.guests[di].evtchn.port(port).pending {
            // Delivered through a path that raced the ack bookkeeping;
            // nothing left to re-ring.
            self.guests[di].doorbells[port.0].ack_outstanding();
            return;
        }
        self.guests[di].doorbells[port.0].note_retransmit();
        let fault = self
            .fault_plan
            .as_mut()
            .map_or(DeliveryFault::Deliver, |f| f.on_notify());
        match fault {
            DeliveryFault::Drop | DeliveryFault::Delay(_) => {
                if let DeliveryFault::Delay(d) = fault {
                    // The re-rung doorbell arrives, just late.
                    self.queue.schedule(now + d, Ev::port_recover(dom, port));
                }
                match self.guests[di].doorbells[port.0].backoff(seq) {
                    Some(delay) => {
                        let h = self
                            .queue
                            .schedule(now + delay, Ev::retransmit(dom, port, seq));
                        self.guests[di].retx_handles[port.0] = Some(h);
                    }
                    None => {
                        // Budget exhausted. The pending bit still holds the
                        // truth: hand over to the periodic re-scan.
                        let recovery = self
                            .fault_plan
                            .as_ref()
                            .expect("a drawn fault implies a plan")
                            .config()
                            .notify_recovery;
                        self.queue
                            .schedule(now + recovery, Ev::port_recover(dom, port));
                    }
                }
            }
            DeliveryFault::Deliver | DeliveryFault::Duplicate(_) => {
                if let DeliveryFault::Duplicate(d) = fault {
                    // The spurious second ring: a PortRecover that finds
                    // nothing pending and is suppressed.
                    self.queue.schedule(now + d, Ev::port_recover(dom, port));
                }
                self.guests[di].doorbells[port.0].ack_outstanding();
                self.deliver_or_wake(dom, port, now);
            }
        }
    }

    // ------------------------------------------------------------------
    // The daemon (vScale or hotplug baseline).
    // ------------------------------------------------------------------

    fn daemon_timer(&mut self, dom: DomId, now: SimTime) {
        let period = self.guests[dom.index()].daemon.config.period;
        self.queue
            .schedule(now + period, Ev::dom(dom, DomEv::DaemonTimer));
        if matches!(self.guests[dom.index()].scaling, ScalingMode::Fixed) {
            return;
        }
        if self.guests[dom.index()].daemon.phase != DaemonPhase::Idle {
            return; // Previous operation still in flight.
        }
        // Queue the channel read on vCPU0 (RT-class daemon work).
        self.guests[dom.index()].daemon.phase = DaemonPhase::Reading;
        self.guests[dom.index()].kernel.push_kwork(
            VcpuId(0),
            now,
            costs::CHANNEL_READ,
            Some(TAG_READ),
        );
        // vCPU0 may be idle-blocked: kick it so the daemon runs.
        let gv = GlobalVcpu::new(dom, VcpuId(0));
        if self.hv.where_running(gv).is_none() {
            self.hv_and_drain(now, |hv, ev| hv.vcpu_wake(gv, now, ev));
        } else {
            self.replan(dom, VcpuId(0), now);
        }
    }

    /// One daemon period elapsed for `dom`'s heartbeat watchdog. On a
    /// trip — `HEARTBEAT_TICKS` periods without a completed update — the
    /// balancer unfreezes every vCPU: the guest degrades to the unscaled
    /// SMP baseline rather than honoring a mask nobody is maintaining.
    fn failsafe_tick(&mut self, dom: DomId, now: SimTime) {
        let g = &mut self.guests[dom.index()];
        // Only mask-scaling modes honor the freeze mask; hotplug guests
        // size via online/offline and Fixed guests never freeze.
        if g.hotplug.is_some() || matches!(g.scaling, ScalingMode::Fixed) {
            return;
        }
        if !g.failsafe.tick() {
            return;
        }
        self.trace
            .push(now, "guest", TraceEvent::FailsafeUnfreezeAll(dom));
        let n = self.guests[dom.index()].kernel.n_vcpus();
        let mut fx = std::mem::take(&mut self.fx_buf);
        for v in 1..n {
            let vcpu = VcpuId(v);
            if self.guests[dom.index()]
                .kernel
                .freeze_mask()
                .is_frozen(vcpu)
            {
                self.guests[dom.index()]
                    .kernel
                    .unfreeze_vcpu(vcpu, now, &mut fx);
            }
        }
        // The trip also clears a wedged phase so the next period's read
        // can decide again once the daemon recovers.
        self.guests[dom.index()].daemon.phase = DaemonPhase::Idle;
        self.route(dom, &mut fx, now);
        self.fx_buf = fx;
        let active = self.guests[dom.index()].kernel.active_vcpus();
        self.guests[dom.index()].active_trace.push((now, active));
    }

    /// Post-crash reconciliation: the restarted daemon walks every vCPU
    /// and repairs any divergence between the guest's freeze mask (the
    /// guest-side source of truth) and the hypervisor's frozen view — a
    /// freeze/unfreeze hypercall issued by the dead incarnation may never
    /// have landed.
    fn resync_freeze_mask(&mut self, dom: DomId, now: SimTime) {
        self.guests[dom.index()].daemon.needs_resync = false;
        self.guests[dom.index()].daemon.resyncs += 1;
        let n = self.guests[dom.index()].kernel.n_vcpus();
        for v in 0..n {
            let vcpu = VcpuId(v);
            let gv = GlobalVcpu::new(dom, vcpu);
            let guest_frozen = self.guests[dom.index()]
                .kernel
                .freeze_mask()
                .is_frozen(vcpu);
            if self.hv.is_frozen(gv) != guest_frozen {
                self.trace.push(now, "daemon", TraceEvent::ResyncRepair(gv));
                self.hv.set_frozen(gv, guest_frozen);
                self.guests[dom.index()].daemon.resync_repairs += 1;
            }
        }
    }

    fn daemon_work_done(
        &mut self,
        dom: DomId,
        _vcpu: VcpuId,
        tag: u64,
        now: SimTime,
        ops: &mut VecDeque<Op>,
        dirty: &mut Vec<(DomId, VcpuId)>,
    ) {
        if tag == TAG_READ {
            if self.guests[dom.index()].daemon.orphaned_reads > 0 {
                // This reply belongs to a daemon incarnation that crashed
                // while it was in flight: the restarted daemon never sees
                // it. FIFO kwork order guarantees orphans drain before any
                // read the new incarnation issued.
                let g = &mut self.guests[dom.index()];
                g.daemon.orphaned_reads -= 1;
                g.daemon.discarded_reads += 1;
                return;
            }
            // The reliable read loops over injected serve outcomes: a torn
            // or stale serve is detected (snapshot validation / seqlock
            // version check) and retried up to the budget, after which the
            // last-good snapshot is served instead of the period being
            // discarded outright.
            let plan = &mut self.fault_plan;
            let g = &mut self.guests[dom.index()];
            g.daemon.reads += 1;
            // The base read cost was charged as kwork at queue time; the
            // channel only decides which snapshot is served.
            let rr = g
                .channel
                .read_reliable(&self.hv, dom, READ_RETRY_BUDGET, || {
                    plan.as_mut()
                        .map_or(ChannelReadFault::Fresh, |f| f.on_channel_read())
                });
            if rr.retries > 0 {
                // Each extra attempt re-issues the read syscall+hypercall:
                // charge it, so retries show up as daemon overhead.
                let extra = costs::CHANNEL_READ * u64::from(rr.retries);
                g.kernel.push_kwork(VcpuId(0), now, extra, None);
                dirty.push((dom, VcpuId(0)));
            }
            let Some(info) = rr.info else {
                // Retry budget exhausted before any snapshot was ever
                // accepted (a torn maiden read): discard the period rather
                // than acting on inconsistent fields.
                g.daemon.discarded_reads += 1;
                g.daemon.phase = DaemonPhase::Idle;
                return;
            };
            // A completed update — validated fresh or last-good fallback —
            // proves the daemon alive: rearm the balancer's fail-safe.
            g.failsafe.record_update();
            if g.daemon.needs_resync {
                self.resync_freeze_mask(dom, now);
            }
            let kernel = &self.guests[dom.index()].kernel;
            let active = kernel.active_vcpus();
            let n_vcpus = kernel.n_vcpus();
            let ext_raw = match self.guests[dom.index()].scaling {
                // VCPU-Bal sizes from the weight-derived fair share only,
                // ignoring consumption (not work-conserving, §2.3).
                ScalingMode::VcpuBal(_) => info.fair.ratio(info.period),
                // vScale: Algorithm 1's extendability, floored by measured
                // consumption — a witness of obtainable allocation, since
                // slack apportioned to competitors that cannot spend it
                // flows back work-conservingly.
                _ => info.ext_pcpus().max(info.consumed_pcpus()),
            };
            let ext_smoothed = self.guests[dom.index()].daemon.smooth(ext_raw);
            // Algorithm 1's ceiling rule, applied to the smoothed value.
            let n_opt = (ext_smoothed.ceil() as usize).clamp(1, n_vcpus);
            let step = self.guests[dom.index()]
                .daemon
                .decide(n_opt, ext_smoothed, active);
            // Freeze-rate hysteresis (oscillation defense): a decided
            // step must also clear the dwell gate, else it is dropped
            // and counted. At the default dwell of 0 the gate always
            // passes and never mutates observable behavior.
            let dwell = self.config.defense.freeze_dwell;
            let step = match step {
                Some(s) if self.guests[dom.index()].freeze_gate.allow(dwell) => Some(s),
                _ => None,
            };
            match step {
                Some(1) => self.begin_grow(dom, now, dirty),
                Some(-1) => self.begin_shrink(dom, now, dirty),
                _ => {
                    self.guests[dom.index()].daemon.phase = DaemonPhase::Idle;
                }
            }
        } else if (TAG_FREEZE_BASE..TAG_UNFREEZE_BASE).contains(&tag) {
            let target = VcpuId((tag - TAG_FREEZE_BASE) as usize);
            let mut fx = std::mem::take(&mut self.daemon_fx_buf);
            self.guests[dom.index()]
                .kernel
                .freeze_vcpu(target, now, &mut fx);
            ops.extend(fx.drain(..).map(|e| Op::Guest(dom, e)));
            self.daemon_fx_buf = fx;
            self.guests[dom.index()].daemon.reconfigs += 1;
            self.guests[dom.index()].daemon.phase = DaemonPhase::Idle;
        } else if (TAG_UNFREEZE_BASE..TAG_HOTPLUG_BASE).contains(&tag) {
            let target = VcpuId((tag - TAG_UNFREEZE_BASE) as usize);
            let mut fx = std::mem::take(&mut self.daemon_fx_buf);
            self.guests[dom.index()]
                .kernel
                .unfreeze_vcpu(target, now, &mut fx);
            ops.extend(fx.drain(..).map(|e| Op::Guest(dom, e)));
            self.daemon_fx_buf = fx;
            self.guests[dom.index()].daemon.reconfigs += 1;
            self.guests[dom.index()].daemon.phase = DaemonPhase::Idle;
        }
    }

    /// Starts activating one more vCPU.
    fn begin_grow(&mut self, dom: DomId, now: SimTime, dirty: &mut Vec<(DomId, VcpuId)>) {
        let g = &mut self.guests[dom.index()];
        if let Some(hp) = g.hotplug.clone() {
            // Hotplug add: no stop_machine, but a long notifier chain on
            // the initiating vCPU, then the vCPU comes online.
            let Some(target) = g.kernel.freeze_mask().lowest_frozen() else {
                g.daemon.phase = DaemonPhase::Idle;
                return;
            };
            let latency = hp.sample_add(&mut self.rng);
            g.daemon.phase = DaemonPhase::Reconfiguring {
                target,
                freeze: false,
            };
            self.queue
                .schedule(now + latency, Ev::hotplug_done(dom, target, true));
            return;
        }
        let Some(target) = g.kernel.freeze_mask().lowest_frozen() else {
            g.daemon.phase = DaemonPhase::Idle;
            return;
        };
        g.daemon.phase = DaemonPhase::Reconfiguring {
            target,
            freeze: false,
        };
        g.kernel.push_kwork(
            VcpuId(0),
            now,
            costs::FREEZE_MASTER,
            Some(TAG_UNFREEZE_BASE + target.index() as u64),
        );
        dirty.push((dom, VcpuId(0)));
    }

    /// Starts deactivating one vCPU (never vCPU0).
    fn begin_shrink(&mut self, dom: DomId, now: SimTime, dirty: &mut Vec<(DomId, VcpuId)>) {
        let g = &mut self.guests[dom.index()];
        let Some(target) = g.kernel.freeze_mask().highest_active() else {
            g.daemon.phase = DaemonPhase::Idle;
            return;
        };
        if target.index() == 0 {
            g.daemon.phase = DaemonPhase::Idle;
            return; // The master vCPU stays.
        }
        if let Some(hp) = g.hotplug.clone() {
            if !g.hotplug_retry.allows(now) {
                // Backing off after an aborted removal: skip this period
                // and let the monitoring loop re-decide once the hold
                // expires.
                g.daemon.phase = DaemonPhase::Idle;
                return;
            }
            // Hotplug remove: stop_machine stalls the whole guest for a
            // chunk of the latency, then the vCPU goes offline.
            let latency = hp.sample_remove(&mut self.rng);
            let (stop, local) = hp.split_remove(latency);
            if let Some(frac) = self.fault_plan.as_mut().and_then(|f| f.on_hotplug_remove()) {
                // The removal aborts `frac` of the way into stop_machine
                // (a notifier veto): the guest pays the partial stall,
                // the teardown unwinds, the vCPU stays online.
                let stall = hp.abort_stall(latency, frac);
                let mut fx = std::mem::take(&mut self.fx_buf);
                self.guests[dom.index()]
                    .kernel
                    .stall_all(now, now + stall, &mut fx);
                self.guests[dom.index()].daemon.phase = DaemonPhase::Reconfiguring {
                    target,
                    freeze: true,
                };
                self.guests[dom.index()].daemon.hotplug_aborts += 1;
                self.queue
                    .schedule(now + stall, Ev::dom(dom, DomEv::HotplugAborted));
                self.route(dom, &mut fx, now);
                self.fx_buf = fx;
                return;
            }
            let mut fx = std::mem::take(&mut self.fx_buf);
            self.guests[dom.index()]
                .kernel
                .stall_all(now, now + stop, &mut fx);
            self.guests[dom.index()].daemon.phase = DaemonPhase::Reconfiguring {
                target,
                freeze: true,
            };
            self.queue
                .schedule(now + stop + local, Ev::hotplug_done(dom, target, false));
            self.route(dom, &mut fx, now);
            self.fx_buf = fx;
            return;
        }
        g.daemon.phase = DaemonPhase::Reconfiguring {
            target,
            freeze: true,
        };
        g.kernel.push_kwork(
            VcpuId(0),
            now,
            costs::FREEZE_MASTER,
            Some(TAG_FREEZE_BASE + target.index() as u64),
        );
        dirty.push((dom, VcpuId(0)));
    }
}

// ----------------------------------------------------------------------
// Checkpoint/restore and live-migration state transfer.
// ----------------------------------------------------------------------

// One domain's mutable state (used by both whole-machine checkpoints and
// per-VM migration images). The scaling mode, hotplug model, and weight
// are structural: restore targets a twin built by the same setup code.
//
// Retransmit handles travel as presence bits only: the handles are
// rebuilt from the requeued events, and the bits make non-destructive
// dirty probes ([`Machine::vm_image_bytes`]) see timer-arm churn.
sim_core::snap_struct!(GuestDomain "guest" {
    kernel,
    evtchn,
    port_pending: twin "port count differs from twin",
    daemon,
    channel,
    active_trace,
    io_arrivals,
    io_deliveries,
    nic_completions,
    arrivals_taken,
    completions_taken,
    nic_busy_until,
    exited_threads,
    doorbells: twin "doorbell count differs from twin",
    retx_handles: presence "retransmit-port count differs from twin",
    failsafe,
    hotplug_retry,
    ipis_coalesced,
    freeze_gate,
} skip { scaling, hotplug, weight });

impl GuestDomain {
    /// Loads this twin from an image, checking that every port still
    /// feeds the I/O queue it fed when the image was taken.
    fn load_checked(&mut self, r: &mut SnapReader<'_>) {
        let bound: Vec<IoQueueId> = self.port_pending.iter().map(|&(q, _)| q).collect();
        self.load(r);
        assert!(
            self.port_pending.iter().map(|&(q, _)| q).eq(bound),
            "port/queue binding differs from twin"
        );
    }
}

impl<P: Policy> Machine<P> {
    /// Asserts the machine sits at an event boundary: every scratch
    /// buffer parked empty and no un-surfaced structured error. This is
    /// the only state in which images are well-defined — snapshots are
    /// taken between `run_until` calls, never mid-dispatch.
    fn assert_at_rest(&self) {
        assert!(
            self.sched_buf.is_empty()
                && self.ops_buf.is_empty()
                && self.dirty_buf.is_empty()
                && self.fx_buf.is_empty()
                && self.run_fx_buf.is_empty()
                && self.daemon_fx_buf.is_empty()
                && self.ports_buf.is_empty()
                && self.ipi_buf.is_empty(),
            "snapshot taken mid-dispatch: scratch buffers not at rest"
        );
        assert!(
            self.fault_error.is_none(),
            "snapshot taken with an unsurfaced simulation error pending"
        );
    }

    /// Drains every queued event in exact pop order, plan and slice
    /// timers included. All outstanding [`EventHandle`]s and timer arms
    /// die with the drain, so the plan owner and retransmit handle tables
    /// are cleared here; [`Machine::requeue_events`] rebuilds them.
    fn drain_events(&mut self) -> Vec<(SimTime, Ev)> {
        self.plan_owner.fill(None);
        for g in &mut self.guests {
            g.retx_handles.fill(None);
        }
        self.queue.drain_ordered()
    }

    /// Reinserts saved events in order — insertion order reproduces pop
    /// order exactly — re-arming each plan on the pCPU its vCPU runs on
    /// and each slice end on its pCPU, and rebuilding the retransmit
    /// handle table. Times below `floor` clamp to it (relative order is
    /// preserved by the `(time, seq)` tie-break).
    fn requeue_events(&mut self, evs: impl IntoIterator<Item = (SimTime, Ev)>, floor: SimTime) {
        for (t, ev) in evs {
            let t = t.max(floor);
            match ev {
                Ev::SliceEnd { pcpu } => {
                    self.queue.arm(self.slice_key(PcpuId(pcpu as usize)), t, ev);
                }
                Ev::Plan { dom, vcpu } => {
                    let gv = GlobalVcpu::new(DomId(dom as usize), VcpuId(vcpu as usize));
                    let pcpu = self
                        .hv
                        .where_running(gv)
                        .expect("a pending plan's vCPU holds a pCPU");
                    self.arm_plan(pcpu, t, gv);
                }
                _ => {
                    let h = self.queue.schedule(t, ev);
                    if let Ev::Dom(dom, DomEv::Retransmit { port, .. }) = ev {
                        self.guests[dom as usize].retx_handles[port as usize] = Some(h);
                    }
                }
            }
        }
    }

    /// Serializes the complete machine — hypervisor, every guest, both
    /// RNG streams, the fault plan position, the watchdog registers, and
    /// every pending event in pop order — into a versioned byte image.
    /// Non-destructive: the machine continues running unchanged, and a
    /// run resumed from the image by [`Machine::restore`] on a structural
    /// twin is byte-identical to one that never checkpointed.
    ///
    /// The trace ring is deliberately excluded: it is diagnostic output,
    /// not simulation state, and never feeds back into behavior.
    ///
    /// Must be called at an event boundary (between `run_until` calls).
    pub fn checkpoint(&mut self) -> Vec<u8> {
        self.assert_at_rest();
        debug_assert!(
            (0..self.config.n_pcpus).all(|p| !self.queue.is_armed(p)
                || self.plan_owner[p]
                    .is_some_and(|gv| self.hv.where_running(gv) == Some(PcpuId(p)))),
            "a plan timer outlived its vCPU's hold on the pCPU"
        );
        debug_assert!(
            (0..self.config.n_pcpus).all(|p| self.queue.is_armed(self.slice_key(PcpuId(p)))
                == self.hv.running_on(PcpuId(p)).is_some()),
            "a slice timer is armed on an idle pCPU or missing on a busy one"
        );
        let evs = self.drain_events();
        let mut w = SnapWriter::new();
        w.section("machine");
        w.usize(self.config.n_pcpus);
        w.usize(self.guests.len());
        w.time(self.queue.now());
        w.u64(self.queue.delivered());
        self.rng.save(&mut w);
        self.tick_rng.save(&mut w);
        w.u64(self.ticks_jittered);
        self.hv.save(&mut w);
        snap::save_seq(self.guests.iter(), &mut w);
        w.bool(self.fault_plan.is_some());
        if let Some(plan) = &self.fault_plan {
            plan.save(&mut w);
        }
        w.time(self.wd_instant);
        w.u64(self.wd_instant_events);
        self.wd_progress_fp.save(&mut w);
        w.time(self.wd_progress_at);
        w.section("events");
        evs.save(&mut w);
        let image = w.finish();
        // Rebuild our own queue: reinsertion in pop order reproduces the
        // original delivery order, so the checkpoint is invisible.
        self.requeue_events(evs, SimTime::ZERO);
        image
    }

    /// Restores a [`Machine::checkpoint`] image into this machine, which
    /// must be a structural twin: same config, same domains in creation
    /// order, same spawned threads/queues/ports. All mutable state —
    /// including the clock — is overwritten; subsequent execution is
    /// byte-identical to the run the image was taken from.
    ///
    /// # Panics
    ///
    /// Panics on a malformed image or any structural mismatch.
    pub fn restore(&mut self, image: &[u8]) {
        self.assert_at_rest();
        let mut r = SnapReader::open(image).expect("valid machine image");
        r.section("machine");
        assert_eq!(
            r.usize(),
            self.config.n_pcpus,
            "pCPU count differs from twin"
        );
        assert_eq!(
            r.usize(),
            self.guests.len(),
            "domain count differs from twin"
        );
        let now = r.time();
        let delivered = r.u64();
        self.rng.load(&mut r);
        self.tick_rng.load(&mut r);
        self.ticks_jittered = r.u64();
        self.hv.load(&mut r);
        assert_eq!(
            r.usize(),
            self.guests.len(),
            "domain count differs from twin"
        );
        for g in &mut self.guests {
            g.load_checked(&mut r);
        }
        if r.bool() {
            let plan = self.fault_plan.as_deref_mut().expect(
                "image carries a fault plan: call set_fault_plan with the original \
                 config before restore",
            );
            plan.load(&mut r);
        } else {
            assert!(
                self.fault_plan.is_none(),
                "twin has a fault plan but the image has none"
            );
        }
        self.wd_instant = r.time();
        self.wd_instant_events = r.u64();
        self.wd_progress_fp.load(&mut r);
        self.wd_progress_at = r.time();
        r.section("events");
        let evs: Vec<(SimTime, Ev)> = snap::read(&mut r);
        assert!(r.exhausted(), "machine image has trailing bytes");
        self.queue.reset(now, delivered);
        self.plan_owner.fill(None);
        self.requeue_events(evs, SimTime::ZERO);
        self.fault_error = None;
    }

    /// A non-destructive serialization of one domain's mutable state —
    /// the pre-copy dirty probe. Successive probes are hashed/diffed by
    /// the migration engine to estimate the dirty rate; the bytes are
    /// *never* restored (in-flight events are not included, so the
    /// probe is cheap and needs only `&self`).
    pub fn vm_image_bytes(&self, dom: DomId) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.hv.export_domain(dom).save(&mut w);
        self.guests[dom.index()].save(&mut w);
        w.finish()
    }

    /// Requests injected for `dom` that are still in the event queue
    /// (scheduled `IoArrival` items not yet landed in an I/O queue).
    /// Together with [`Machine::io_counts`] this counts the domain's exact
    /// in-flight request cohort — what a cold restore will re-serve and
    /// the fleet ledger must therefore discount to stay exactly-once.
    ///
    /// Must be called at an event boundary.
    pub fn pending_io_items(&mut self, dom: DomId) -> u64 {
        self.assert_at_rest();
        let di = dom.index() as u32;
        let evs = self.drain_events();
        let items = evs
            .iter()
            .map(|(_, ev)| match *ev {
                Ev::Dom(d, DomEv::IoArrival { items, .. }) if d == di => items,
                _ => 0,
            })
            .sum();
        self.requeue_events(evs, SimTime::ZERO);
        items
    }

    /// Stop-and-copy extraction: detaches `dom` from this host and
    /// returns its complete migration image. After this call the domain
    /// is an inert shell — every vCPU parked and frozen, no in-flight
    /// events, its pCPUs already re-granted to other domains. The shell
    /// stays restorable: aborting the migration means re-installing the
    /// returned image right here ([`Machine::install_vm`]), which is the
    /// rollback path.
    ///
    /// Must be called at an event boundary.
    pub fn extract_vm(&mut self, dom: DomId) -> Vec<u8> {
        self.assert_at_rest();
        let now = self.queue.now();
        // Capture per-vCPU scheduler state (runnable/frozen/credit)
        // before the detach destroys it.
        let export = self.hv.export_domain(dom);
        // Park every vCPU. The Desched events route through
        // `kernel.vcpu_stop`, leaving the kernel in a consistent paused
        // state; freed pCPUs are re-granted to other domains normally.
        self.hv_and_drain(now, |hv, ev| hv.detach_domain(dom, now, ev));
        // Split the queue: host and other-domain events stay, this
        // domain's travel in the image. It has no plan left: the detach
        // descheduled every vCPU, which released their plan timers, and
        // the install-side wake routing re-arms them.
        let evs = self.drain_events();
        let di = compact(dom.index());
        let mut keep = Vec::with_capacity(evs.len());
        let mut taken: Vec<(SimTime, DomEv)> = Vec::new();
        for (t, ev) in evs {
            match ev {
                Ev::Dom(d, e) if d == di => taken.push((t, e)),
                other => keep.push((t, other)),
            }
        }
        self.requeue_events(keep, SimTime::ZERO);
        let mut w = SnapWriter::new();
        w.section("vmimg");
        w.time(now);
        export.save(&mut w);
        self.guests[dom.index()].save(&mut w);
        taken.save(&mut w);
        w.finish()
    }

    /// Installs a migration image produced by [`Machine::extract_vm`]
    /// into domain `dom` of this host. The domain must be a structural
    /// twin of the extracted one (same spec and spawned workload) with no
    /// in-flight events of its own — either a freshly built receiving
    /// shell or the still-detached source domain (the rollback path).
    ///
    /// In-flight events are requeued at their original times; anything
    /// already due (the transfer took wall-clock simulated time) fires
    /// immediately, in preserved relative order. Runnable vCPUs are woken
    /// through the scheduler's normal wake path, so dispatch, slice
    /// arming, and pending-port delivery all happen exactly as for any
    /// other wake — nothing is replayed twice and nothing is lost.
    pub fn install_vm(&mut self, dom: DomId, image: &[u8]) {
        self.assert_at_rest();
        let now = self.queue.now();
        let mut r = SnapReader::open(image).expect("valid vm image");
        r.section("vmimg");
        let _captured_at = r.time();
        let export: DomSchedExport = snap::read(&mut r);
        self.guests[dom.index()].load_checked(&mut r);
        let evs: Vec<(SimTime, DomEv)> = snap::read(&mut r);
        assert!(r.exhausted(), "vm image has trailing bytes");
        self.requeue_events(evs.into_iter().map(|(t, e)| (t, Ev::dom(dom, e))), now);
        // Wake what was runnable at extraction; Run events route through
        // vcpu_start, pending-port delivery, slice arming, and replan.
        self.hv_and_drain(now, |hv, ev| hv.import_domain(dom, &export, now, ev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use guest_kernel::thread::{OneShot, Script, ThreadAction, ThreadKind};

    fn compute_ms(ms: u64) -> Box<OneShot> {
        Box::new(OneShot::new(SimDuration::from_ms(ms)))
    }

    /// The times of `pcpu`'s pending slice ends, read from the
    /// pop-ordered event list the checkpoint path captures.
    fn slice_ends(m: &mut Machine, pcpu: u32) -> Vec<SimTime> {
        let evs = m.drain_events();
        let ends = evs
            .iter()
            .filter(|(_, e)| matches!(*e, Ev::SliceEnd { pcpu: p } if p == pcpu))
            .map(|&(t, _)| t)
            .collect();
        m.requeue_events(evs, SimTime::ZERO);
        ends
    }

    /// The bytes `Snap::save` writes for `v`, without the image header,
    /// after checking that they read back to a value that saves them.
    fn saved_bytes<T: Snap + Default + std::fmt::Debug>(v: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        let header = w.len();
        v.save(&mut w);
        let image = w.finish();
        let mut r = SnapReader::open(&image).expect("image header");
        let back: T = snap::read(&mut r);
        assert!(r.exhausted(), "{v:?} reads back whole");
        let mut w = SnapWriter::new();
        back.save(&mut w);
        assert_eq!(w.finish(), image, "{v:?} reads back to itself");
        image[header..].to_vec()
    }

    /// Checkpoint form of one event of each kind, in tag order: host
    /// tags 0–4, then domain kind `k` as `5 + k`, the domain word and
    /// the payload. Payload words: pCPU 7 or 6, domain 3, vCPU 2,
    /// thread 9, port 5, items 0x0102, sequence 0x0a0b.
    const CHECKPOINT_BYTES: [&[u8]; 14] = [
        &[0, 7, 0, 0, 0],
        &[1],
        &[2],
        &[3, 6, 0, 0, 0],
        &[4, 3, 0, 0, 0, 2, 0, 0, 0],
        &[5, 3, 0, 0, 0, 2, 0, 0, 0],
        &[6, 3, 0, 0, 0, 9, 0, 0, 0],
        &[7, 3, 0, 0, 0],
        &[8, 3, 0, 0, 0, 5, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0],
        &[9, 3, 0, 0, 0],
        &[10, 3, 0, 0, 0, 2, 0, 0, 0, 1],
        &[11, 3, 0, 0, 0, 5, 0, 0, 0],
        &[12, 3, 0, 0, 0, 5, 0, 0, 0, 0x0b, 0x0a, 0, 0, 0, 0, 0, 0],
        &[13, 3, 0, 0, 0],
    ];

    /// Migration-image form of the nine domain kinds: tag `k` and the
    /// payload, with no domain word.
    const IMAGE_BYTES: [&[u8]; 9] = [
        &[0, 2, 0, 0, 0],
        &[1, 9, 0, 0, 0],
        &[2],
        &[3, 5, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0],
        &[4],
        &[5, 2, 0, 0, 0, 1],
        &[6, 5, 0, 0, 0],
        &[7, 5, 0, 0, 0, 0x0b, 0x0a, 0, 0, 0, 0, 0, 0],
        &[8],
    ];

    /// One domain event of each kind, in tag order.
    fn one_of_each_dom_ev() -> [DomEv; 9] {
        [
            DomEv::IpiDeliver { vcpu: 2 },
            DomEv::SleepWake { tid: 9 },
            DomEv::DaemonTimer,
            DomEv::IoArrival {
                port: 5,
                items: 0x0102,
            },
            DomEv::NicDrained,
            DomEv::HotplugDone {
                vcpu: 2,
                online: true,
            },
            DomEv::PortRecover { port: 5 },
            DomEv::Retransmit {
                port: 5,
                seq: 0x0a0b,
            },
            DomEv::HotplugAborted,
        ]
    }

    /// Every event tag and payload layout is pinned byte for byte, in
    /// both checkpoint and migration-image form, and each reads back to
    /// the event it was saved from. Hotplug completions and aborts are
    /// covered here: the snapshot image goldens run no hotplug guest.
    #[test]
    fn event_tags_and_payloads_are_pinned() {
        let host = [
            Ev::HvTick(7),
            Ev::HvAcct,
            Ev::ExtendTick,
            Ev::SliceEnd { pcpu: 6 },
            Ev::Plan { dom: 3, vcpu: 2 },
        ];
        let dom = one_of_each_dom_ev().map(|e| Ev::Dom(3, e));
        for (ev, want) in host.iter().chain(&dom).zip(CHECKPOINT_BYTES) {
            assert_eq!(saved_bytes(ev), want, "checkpoint form of {ev:?}");
        }
        for (ev, want) in one_of_each_dom_ev().iter().zip(IMAGE_BYTES) {
            assert_eq!(saved_bytes(ev), want, "image form of {ev:?}");
        }
    }

    /// The start of the slice `gv` is running, if it holds a pCPU.
    fn running_since(m: &Machine, gv: GlobalVcpu) -> Option<SimTime> {
        match m.hv.vcpu_state(gv) {
            xen_sched::credit::VcpuState::Running { since, .. } => Some(since),
            _ => None,
        }
    }

    /// A pCPU's slice timer is armed exactly while the pCPU runs a vCPU,
    /// one slice after that vCPU was placed: a vCPU placed partway
    /// through its predecessor's slice gets a full slice of its own, and
    /// a pCPU that goes idle holds no slice end.
    #[test]
    fn slice_timer_is_armed_exactly_while_its_pcpu_runs() {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 1,
            ..MachineConfig::default()
        });
        let a = m.add_domain(DomainSpec::fixed(1));
        let b = m.add_domain(DomainSpec::fixed(1));
        let ta = m.guest_mut(a).spawn(ThreadKind::User, compute_ms(5));
        let tb = m.guest_mut(b).spawn(ThreadKind::User, compute_ms(50));
        m.start_thread(a, ta);
        m.start_thread(b, tb);
        let (va, vb) = (GlobalVcpu::new(a, VcpuId(0)), GlobalVcpu::new(b, VcpuId(0)));

        m.run_until(SimTime::from_ms(1));
        let a_since = running_since(&m, va).expect("A holds the pCPU first");
        assert_eq!(slice_ends(&mut m, 0), [a_since + SLICE]);

        m.run_until(SimTime::from_ms(10));
        assert!(m.guest(a).all_exited());
        let b_since = running_since(&m, vb).expect("B took the pCPU A left");
        assert!(
            b_since < a_since + SLICE,
            "B was placed partway through A's slice"
        );
        assert_eq!(
            slice_ends(&mut m, 0),
            [b_since + SLICE],
            "A's slice end left with A, and B's slice is a full one"
        );

        m.run_until(SimTime::from_ms(200));
        assert!(m.guest(b).all_exited());
        assert_eq!(m.hv.running_on(PcpuId(0)), None);
        assert!(
            slice_ends(&mut m, 0).is_empty(),
            "the idle pCPU holds no slice end"
        );
    }

    #[test]
    fn single_domain_runs_to_completion() {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 2,
            ..MachineConfig::default()
        });
        let d = m.add_domain(DomainSpec::fixed(2));
        let t0 = m.guest_mut(d).spawn(ThreadKind::User, compute_ms(50));
        let t1 = m.guest_mut(d).spawn(ThreadKind::User, compute_ms(50));
        m.start_thread(d, t0);
        m.start_thread(d, t1);
        let done = m.run_until_exited(d, SimTime::from_secs(5));
        let done = done.expect("workload finishes");
        // Two vCPUs on two pCPUs: ~50 ms wall, small overheads.
        assert!(done >= SimTime::from_ms(50));
        assert!(done < SimTime::from_ms(60), "took {done}");
        let st = m.domain_stats(d);
        assert!(st.run_total >= SimDuration::from_ms(100));
        assert_eq!(st.wait_total, SimDuration::ZERO);
    }

    #[test]
    fn overcommit_halves_throughput_and_accumulates_waiting() {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 1,
            ..MachineConfig::default()
        });
        let a = m.add_domain(DomainSpec::fixed(1));
        let b = m.add_domain(DomainSpec::fixed(1));
        let ta = m.guest_mut(a).spawn(ThreadKind::User, compute_ms(100));
        let tb = m.guest_mut(b).spawn(ThreadKind::User, compute_ms(100));
        m.start_thread(a, ta);
        m.start_thread(b, tb);
        m.run_until(SimTime::from_secs(5));
        assert!(m.guest(a).all_exited());
        assert!(m.guest(b).all_exited());
        // 200 ms of work on one pCPU: finishes no earlier than 200 ms.
        assert!(m.now() >= SimTime::from_ms(200));
        // Each domain waited roughly as long as it ran.
        let sa = m.domain_stats(a);
        assert!(
            sa.wait_total >= SimDuration::from_ms(60),
            "waiting {} too small",
            sa.wait_total
        );
    }

    #[test]
    fn fair_share_is_proportional_to_weight() {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 1,
            ..MachineConfig::default()
        });
        let heavy = m.add_domain(DomainSpec::fixed(1).with_weight(512));
        let light = m.add_domain(DomainSpec::fixed(1).with_weight(256));
        let th = m
            .guest_mut(heavy)
            .spawn(ThreadKind::User, compute_ms(10_000));
        let tl = m
            .guest_mut(light)
            .spawn(ThreadKind::User, compute_ms(10_000));
        m.start_thread(heavy, th);
        m.start_thread(light, tl);
        m.run_until(SimTime::from_secs(3));
        let rh = m.domain_stats(heavy).run_total.as_ms_f64();
        let rl = m.domain_stats(light).run_total.as_ms_f64();
        let ratio = rh / rl;
        assert!(
            (1.6..2.4).contains(&ratio),
            "2:1 weights should give ~2:1 time, got {ratio:.2} ({rh:.0} vs {rl:.0})"
        );
    }

    #[test]
    fn vscale_shrinks_under_competition_and_grows_back() {
        // A 4-vCPU vScale VM shares 2 pCPUs with a competing 2-vCPU VM.
        // Its extendability is ~1 pCPU, so the daemon should freeze down
        // to 1-2 active vCPUs; when the competitor exits, it should grow
        // back to its fair use of both pCPUs.
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 2,
            ..MachineConfig::default()
        });
        let vm = m.add_domain(SystemConfig::VScale.domain_spec(4));
        let bg = m.add_domain(DomainSpec::fixed(2));
        for _ in 0..4 {
            let t = m.guest_mut(vm).spawn(ThreadKind::User, compute_ms(2_000));
            m.start_thread(vm, t);
        }
        for _ in 0..2 {
            let t = m.guest_mut(bg).spawn(ThreadKind::User, compute_ms(400));
            m.start_thread(bg, t);
        }
        m.run_until(SimTime::from_ms(300));
        let active_mid = m.guest(vm).active_vcpus();
        assert!(
            active_mid <= 2,
            "with a busy competitor the VM should shrink, still at {active_mid}"
        );
        let st = m.domain_stats(vm);
        assert!(st.daemon_reads > 0, "daemon must be polling");
        assert!(st.reconfigs >= 2, "freezes happened");
        // Let the background VM finish; the vScale VM should grow back.
        m.run_until(SimTime::from_ms(1_200));
        let active_late = m.guest(vm).active_vcpus();
        assert!(
            active_late >= 2,
            "after the competitor exits the VM should grow, still at {active_late}"
        );
        // The trace records the changes (Figure 8 data).
        assert!(m.active_trace(vm).len() >= 3);
    }

    #[test]
    fn fixed_domain_never_reconfigures() {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 1,
            ..MachineConfig::default()
        });
        let vm = m.add_domain(DomainSpec::fixed(4));
        let bg = m.add_domain(DomainSpec::fixed(2));
        for _ in 0..4 {
            let t = m.guest_mut(vm).spawn(ThreadKind::User, compute_ms(200));
            m.start_thread(vm, t);
        }
        let t = m.guest_mut(bg).spawn(ThreadKind::User, compute_ms(200));
        m.start_thread(bg, t);
        m.run_until(SimTime::from_ms(500));
        assert_eq!(m.guest(vm).active_vcpus(), 4);
        assert_eq!(m.domain_stats(vm).reconfigs, 0);
    }

    #[test]
    fn io_requests_flow_through_irq_worker_and_nic() {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 2,
            ..MachineConfig::default()
        });
        let d = m.add_domain(DomainSpec::fixed(2));
        let q = m.guest_mut(d).new_io_queue();
        let port = m.bind_io_port(d, q, VcpuId(0));
        let worker = m.guest_mut(d).spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::IoWait(q),
                ThreadAction::Compute(SimDuration::from_us(50)),
                ThreadAction::NicSend { bytes: 16_384 },
                ThreadAction::IoWait(q),
                ThreadAction::Compute(SimDuration::from_us(50)),
                ThreadAction::NicSend { bytes: 16_384 },
            ])),
        );
        m.start_thread(d, worker);
        m.inject_io(d, port, SimTime::from_ms(1), 1);
        m.inject_io(d, port, SimTime::from_ms(2), 1);
        m.run_until_exited(d, SimTime::from_secs(1))
            .expect("worker finishes");
        // Let the in-flight NIC transmission drain.
        let drain = m.now() + SimDuration::from_ms(1);
        m.run_until(drain);
        let (arr, del, nic) = m.io_logs(d);
        assert_eq!(arr.len(), 2);
        assert_eq!(del.len(), 2);
        assert_eq!(nic.len(), 2);
        // Uncontended: delivery follows arrival within tens of µs.
        for (a, dl) in arr.iter().zip(del) {
            let lat = dl.since(*a);
            assert!(lat < SimDuration::from_ms(1), "delivery latency {lat}");
        }
        // 16 KB on 1 GbE needs ~131 µs of wire time after processing.
        assert!(nic[0].since(del[0]) >= SimDuration::from_us(100));
    }

    /// `take_io` hands over the untaken reply completions in time order
    /// and forgets every untaken entry, while `io_counts` keeps the
    /// lifetime totals through checkpoint/restore and extract/install.
    #[test]
    fn take_io_hands_replies_in_order_and_counts_travel_in_images() {
        // Four one-item requests 1 ms apart, served by one worker; a
        // twin built without them is an idle landing slot.
        let build = |inject: bool| {
            let mut m = Machine::new(MachineConfig {
                n_pcpus: 2,
                ..MachineConfig::default()
            });
            let d = m.add_domain(DomainSpec::fixed(2));
            let q = m.guest_mut(d).new_io_queue();
            let port = m.bind_io_port(d, q, VcpuId(0));
            let serve = [
                ThreadAction::IoWait(q),
                ThreadAction::Compute(SimDuration::from_us(50)),
                ThreadAction::NicSend { bytes: 16_384 },
            ];
            let worker = m
                .guest_mut(d)
                .spawn(ThreadKind::User, Box::new(Script::new(serve.repeat(4))));
            m.start_thread(d, worker);
            if inject {
                for i in 0..4 {
                    m.inject_io(d, port, SimTime::from_ms(1 + i), 1);
                }
            }
            (m, d)
        };
        let (mut m, d) = build(true);
        m.run_until(SimTime::from_us(2_500));
        let mut early = Vec::new();
        m.take_io(d, |c| early.push(c));
        assert_eq!(early.len(), 2, "two replies by 2.5 ms");
        assert!(early[0] < early[1], "replies out of order: {early:?}");
        let (arr, del, nic) = m.io_logs(d);
        assert!(arr.is_empty() && del.is_empty() && nic.is_empty());
        assert_eq!(m.io_counts(d), (2, 2), "taking keeps the totals");

        let mut restored = build(true).0;
        restored.restore(&m.checkpoint());
        assert_eq!(restored.io_counts(d), (2, 2));

        let image = m.extract_vm(d);
        let mut landed = build(false).0;
        landed.run_until(m.now());
        let _idle_shell = landed.extract_vm(d);
        landed.install_vm(d, &image);
        assert_eq!(landed.io_counts(d), (2, 2));

        for host in [&mut restored, &mut landed] {
            host.run_until(SimTime::from_ms(10));
            assert_eq!(host.io_counts(d), (4, 4));
            let mut late = Vec::new();
            host.take_io(d, |c| late.push(c));
            assert_eq!(late.len(), 2, "only the replies after the image");
            assert!(early[1] < late[0] && late[0] < late[1], "{late:?}");
        }
    }

    #[test]
    fn irq_redirects_away_from_frozen_vcpu() {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 2,
            ..MachineConfig::default()
        });
        let d = m.add_domain(SystemConfig::VScale.domain_spec(2));
        let bg = m.add_domain(DomainSpec::fixed(2));
        // Busy competitor forces the vScale VM to shrink to 1 vCPU.
        for _ in 0..2 {
            let t = m.guest_mut(bg).spawn(ThreadKind::User, compute_ms(2_000));
            m.start_thread(bg, t);
        }
        let q = m.guest_mut(d).new_io_queue();
        let port = m.bind_io_port(d, q, VcpuId(1)); // Bound to the one that will freeze.
        let worker = m.guest_mut(d).spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::Compute(SimDuration::from_ms(100)),
                ThreadAction::IoWait(q),
                ThreadAction::Compute(SimDuration::from_us(50)),
            ])),
        );
        m.start_thread(d, worker);
        m.run_until(SimTime::from_ms(150));
        assert_eq!(m.guest(d).active_vcpus(), 1, "VM should have shrunk");
        assert!(m.guest(d).freeze_mask().is_frozen(VcpuId(1)));
        // Inject a request bound to the frozen vCPU1: must be redirected.
        m.inject_io(d, port, m.now() + SimDuration::from_ms(1), 1);
        m.run_until_exited(d, SimTime::from_secs(2))
            .expect("worker must still get its I/O");
        assert_eq!(m.guest(d).io_irqs(VcpuId(1)), 0, "frozen vCPU got the IRQ");
    }

    #[test]
    fn deterministic_replay_of_a_contended_run() {
        let run = || {
            let mut m = Machine::new(MachineConfig {
                n_pcpus: 2,
                seed: 99,
                ..MachineConfig::default()
            });
            let vm = m.add_domain(SystemConfig::VScale.domain_spec(4));
            let bg = m.add_domain(DomainSpec::fixed(2));
            for _ in 0..4 {
                let t = m.guest_mut(vm).spawn(ThreadKind::User, compute_ms(300));
                m.start_thread(vm, t);
            }
            for _ in 0..2 {
                let t = m.guest_mut(bg).spawn(ThreadKind::User, compute_ms(200));
                m.start_thread(bg, t);
            }
            m.run_until(SimTime::from_secs(2));
            let st = m.domain_stats(vm);
            (
                m.now(),
                st.wait_total,
                st.run_total,
                st.reconfigs,
                m.guest(vm).stats().context_switches,
            )
        };
        assert_eq!(run(), run());
    }

    /// Checkpoint mid-run, restore into a structural twin, run the same
    /// remainder: every statistic matches the uninterrupted run and a
    /// second checkpoint at the end is byte-identical — the snapshot is
    /// exact, not merely approximate.
    #[test]
    fn checkpoint_restore_is_byte_identical() {
        let build = || {
            let mut m = Machine::new(MachineConfig {
                n_pcpus: 2,
                seed: 99,
                ..MachineConfig::default()
            });
            let vm = m.add_domain(SystemConfig::VScale.domain_spec(4));
            let bg = m.add_domain(DomainSpec::fixed(2));
            for _ in 0..4 {
                let t = m.guest_mut(vm).spawn(ThreadKind::User, compute_ms(300));
                m.start_thread(vm, t);
            }
            for _ in 0..2 {
                let t = m.guest_mut(bg).spawn(ThreadKind::User, compute_ms(200));
                m.start_thread(bg, t);
            }
            (m, vm)
        };
        // Uninterrupted reference run, checkpointing along the way (the
        // checkpoint itself must be invisible to the source).
        let (mut a, vm_a) = build();
        a.run_until(SimTime::from_ms(700));
        let t1 = a.now();
        let image = a.checkpoint();
        a.run_until(SimTime::from_secs(2));
        let final_a = a.checkpoint();

        // Restore into a twin and run the same remainder.
        let (mut b, vm_b) = build();
        b.restore(&image);
        assert_eq!(b.now(), t1, "restore resumes at the checkpoint clock");
        b.run_until(SimTime::from_secs(2));
        let final_b = b.checkpoint();

        let sa = a.domain_stats(vm_a);
        let sb = b.domain_stats(vm_b);
        assert_eq!(
            (sa.wait_total, sa.run_total, sa.reconfigs),
            (sb.wait_total, sb.run_total, sb.reconfigs),
            "restored run diverged from the uninterrupted run"
        );
        assert_eq!(
            final_a, final_b,
            "end-state checkpoints differ after restore-then-run"
        );
    }

    /// The migration abort path: stop-and-copy a VM out, then install the
    /// image straight back into the source. No work is lost and the VM
    /// runs to completion; while detached it makes no progress.
    #[test]
    fn extract_then_reinstall_rolls_back_without_losing_work() {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 2,
            seed: 7,
            ..MachineConfig::default()
        });
        let vm = m.add_domain(DomainSpec::fixed(2));
        let bg = m.add_domain(DomainSpec::fixed(1));
        for _ in 0..2 {
            let t = m.guest_mut(vm).spawn(ThreadKind::User, compute_ms(150));
            m.start_thread(vm, t);
        }
        let t = m.guest_mut(bg).spawn(ThreadKind::User, compute_ms(100));
        m.start_thread(bg, t);
        m.run_until(SimTime::from_ms(60));
        assert!(!m.guest(vm).all_exited());
        let run_before = m.domain_stats(vm).run_total;
        let img = m.extract_vm(vm);
        // Detached: the background VM keeps running, the extracted one
        // is inert.
        m.run_until(SimTime::from_ms(90));
        assert_eq!(
            m.domain_stats(vm).run_total,
            run_before,
            "a detached VM must not make progress"
        );
        m.install_vm(vm, &img);
        m.run_until(SimTime::from_secs(2));
        assert!(m.guest(vm).all_exited(), "rolled-back VM finishes its work");
        assert!(m.guest(bg).all_exited());
        assert!(
            m.domain_stats(vm).run_total >= SimDuration::from_ms(300),
            "all compute accounted for after rollback"
        );
    }

    #[test]
    fn sleeping_guest_consumes_no_cpu() {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 1,
            ..MachineConfig::default()
        });
        let d = m.add_domain(DomainSpec::fixed(1));
        let t = m.guest_mut(d).spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::Sleep(SimDuration::from_ms(100)),
                ThreadAction::Compute(SimDuration::from_ms(1)),
            ])),
        );
        m.start_thread(d, t);
        m.run_until_exited(d, SimTime::from_secs(1)).expect("done");
        let st = m.domain_stats(d);
        assert!(
            st.run_total < SimDuration::from_ms(5),
            "sleeping VM burned {}",
            st.run_total
        );
    }
}

#[cfg(test)]
mod pv_tests {
    use super::*;
    use crate::config::{DomainSpec, SystemConfig};
    use guest_kernel::thread::{Script, ThreadAction, ThreadKind};

    /// Kernel-lock contention with a preempted holder: plain ticket locks
    /// burn the contender's slices; pv-spinlock yields the vCPU to the
    /// hypervisor and gets kicked on release.
    fn run_klock_contention(pvlock: bool) -> (f64, u64, sim_core::time::SimDuration) {
        let cfg = if pvlock {
            SystemConfig::Pvlock
        } else {
            SystemConfig::Baseline
        };
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 1, // One pCPU: holder and waiter cannot run together.
            seed: 21,
            ..MachineConfig::default()
        });
        let vm = m.add_domain(cfg.domain_spec(2));
        let l = m.guest_mut(vm).klocks.alloc();
        let holder = m.guest_mut(vm).spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                // Longer than one 30 ms slice: the holder is guaranteed
                // to be descheduled mid-critical-section.
                ThreadAction::KernelOp {
                    lock: l,
                    hold: SimDuration::from_ms(50),
                },
                ThreadAction::Compute(SimDuration::from_ms(1)),
            ])),
        );
        let waiter = m.guest_mut(vm).spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::Compute(SimDuration::from_us(200)),
                ThreadAction::KernelOp {
                    lock: l,
                    hold: SimDuration::from_us(10),
                },
            ])),
        );
        m.start_thread(vm, holder);
        m.start_thread(vm, waiter);
        let end = m
            .run_until_exited(vm, SimTime::from_secs(10))
            .expect("finishes");
        (
            end.as_secs_f64(),
            m.guest(vm).stats().pv_yields,
            m.guest(vm).spin_waste(),
        )
    }

    #[test]
    fn pv_spinlock_yields_instead_of_spinning() {
        let (_plain_end, plain_yields, plain_waste) = run_klock_contention(false);
        let (_pv_end, pv_yields, pv_waste) = run_klock_contention(true);
        assert_eq!(plain_yields, 0);
        assert!(pv_yields >= 1, "pv waiter must yield");
        assert!(
            pv_waste < plain_waste,
            "pv-spinlock should spin less: {pv_waste} vs {plain_waste}"
        );
    }

    #[test]
    fn cap_through_machine_limits_a_hog() {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 2,
            seed: 22,
            ..MachineConfig::default()
        });
        let capped = m.add_domain(DomainSpec {
            cap_pcpus: Some(0.5),
            ..DomainSpec::fixed(1)
        });
        let t = m.guest_mut(capped).spawn(
            ThreadKind::User,
            Box::new(guest_kernel::thread::OneShot::new(SimDuration::from_secs(
                5,
            ))),
        );
        m.start_thread(capped, t);
        m.run_until(SimTime::from_secs(2));
        let used = m.domain_stats(capped).run_total.as_secs_f64();
        assert!(
            used < 1.4,
            "cap 0.5 must bound use over 2 s to ~1 s, got {used:.2}"
        );
        assert!(used > 0.4, "capped domain still progresses, got {used:.2}");
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::config::SystemConfig;
    use guest_kernel::thread::{OneShot, ThreadKind};

    #[test]
    fn trace_records_scheduling_and_reconfiguration() {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 2,
            seed: 31,
            ..MachineConfig::default()
        });
        m.enable_trace(4096);
        let vm = m.add_domain(SystemConfig::VScale.domain_spec(4));
        let bg = m.add_domain(DomainSpec::fixed(2));
        for _ in 0..4 {
            let t = m.guest_mut(vm).spawn(
                ThreadKind::User,
                Box::new(OneShot::new(SimDuration::from_ms(400))),
            );
            m.start_thread(vm, t);
        }
        for _ in 0..2 {
            let t = m.guest_mut(bg).spawn(
                ThreadKind::User,
                Box::new(OneShot::new(SimDuration::from_ms(300))),
            );
            m.start_thread(bg, t);
        }
        m.run_until(SimTime::from_ms(400));
        let trace = m.trace();
        assert!(trace.filter("hv").count() > 10, "scheduling traced");
        assert!(
            trace.filter("daemon").count() >= 1,
            "reconfigurations traced: {}",
            trace.dump()
        );
        assert!(trace.dump().contains("run dom"));
    }

    #[test]
    fn trace_disabled_by_default_costs_nothing() {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 1,
            seed: 32,
            ..MachineConfig::default()
        });
        let vm = m.add_domain(DomainSpec::fixed(1));
        let t = m.guest_mut(vm).spawn(
            ThreadKind::User,
            Box::new(OneShot::new(SimDuration::from_ms(10))),
        );
        m.start_thread(vm, t);
        m.run_until_exited(vm, SimTime::from_secs(1)).expect("done");
        assert!(m.trace().is_empty());
        assert_eq!(m.trace().total_pushed(), 0);
    }
}
