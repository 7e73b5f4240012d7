//! The guest kernel: per-vCPU scheduling, synchronization execution,
//! interrupts, and the vScale freeze/unfreeze protocol (Algorithm 2).
//!
//! [`GuestKernel`] is a passive state machine driven by the embedding
//! machine (the `vscale` crate). The machine owns global time and the
//! hypervisor; the kernel owns threads, run queues, sync objects and
//! interrupt bookkeeping. The contract is:
//!
//! - the hypervisor grants/revokes pCPUs → [`GuestKernel::vcpu_start`] /
//!   [`GuestKernel::vcpu_stop`];
//! - while a vCPU runs, the kernel exposes the next *local* event time via
//!   [`GuestKernel::next_plan`]; the machine schedules a plan point there
//!   and calls [`GuestKernel::on_plan_point`];
//! - cross-vCPU interactions (reschedule IPIs, pv-lock kicks, device
//!   interrupts, sleep timers) surface as [`GuestEffect`]s that the machine
//!   routes — delivering immediately to running vCPUs or waking blocked
//!   ones through the hypervisor, which is precisely where the paper's
//!   scheduling delays bite.
//!
//! Virtual time spent by kernel mechanisms (context switches, futex calls,
//! tick handlers, thread migrations) is charged through per-vCPU *kernel
//! work* queues so mechanism overhead realistically displaces application
//! progress.

use std::collections::VecDeque;

use sim_core::ids::{ThreadId, VcpuId};
use sim_core::time::{SimDuration, SimTime};

use crate::balancer::FreezeMask;
use crate::costs;
use crate::klock::{KlockPolicy, KlockTable};
use crate::sync::{BarrierArrival, SyncTable};
use crate::thread::{
    BarrierId, IoQueueId, KLockId, ProgramCtx, SpinId, ThreadAction, ThreadKind, ThreadProgram,
};

/// Reasons a thread is parked off every run queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BlockReason {
    /// Asleep on a barrier's futex, waiting for the given generation.
    Barrier(BarrierId, u64),
    /// Asleep on a mutex futex (woken with ownership).
    Mutex(crate::thread::MutexId),
    /// Asleep on a condvar (requeued to the mutex on signal).
    Cond(crate::thread::CondId, crate::thread::MutexId),
    /// Asleep on a semaphore.
    Sem(crate::thread::SemId),
    /// Waiting for an item on an I/O queue.
    Io(IoQueueId),
    /// Timed sleep; the machine wakes it.
    #[default]
    Sleep,
}

sim_core::snap_enum!(BlockReason {
    0 => Barrier(bar, generation),
    1 => Mutex(m),
    2 => Cond(c, m),
    3 => Sem(s),
    4 => Io(q),
    5 => Sleep,
});

/// Lifecycle state of a thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TState {
    /// Created, not yet placed on a run queue.
    New,
    /// In some vCPU's run queue.
    Ready,
    /// The current thread of some vCPU.
    Running,
    /// Parked.
    Blocked(BlockReason),
    /// Terminated.
    Exited,
}

sim_core::snap_enum!(TState {
    0 => New,
    1 => Ready,
    2 => Running,
    3 => Blocked(b),
    4 => Exited,
});

/// What happens when an [`Activity::Overhead`] completes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Then {
    /// Ask the program for the next action.
    #[default]
    Dispatch,
    /// Park the thread.
    Block(BlockReason),
}

sim_core::snap_enum!(Then {
    0 => Dispatch,
    1 => Block(b),
});

/// What the thread does while it owns CPU.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Activity {
    /// Application computation.
    Compute {
        /// Work left.
        remaining: SimDuration,
    },
    /// Fixed-cost kernel path (syscall bodies, wake processing).
    Overhead {
        /// Time left.
        remaining: SimDuration,
        /// Continuation at completion.
        then: Then,
    },
    /// User-space spin on a barrier, with optional budget before futex.
    BarrierSpin {
        /// The barrier.
        bar: BarrierId,
        /// Generation being waited out.
        generation: u64,
        /// Remaining spin budget (`None` = spin forever).
        budget: Option<SimDuration>,
    },
    /// User-space spin on a ticket spinlock (no budget, ever).
    UserSpin {
        /// The lock.
        lock: SpinId,
    },
    /// In-kernel spin for a ticket kernel lock.
    KernelSpin {
        /// The lock.
        lock: KLockId,
        /// Critical-section length once acquired.
        hold: SimDuration,
        /// Remaining spin budget (pv-spinlock), `None` for plain ticket.
        budget: Option<SimDuration>,
    },
    /// Inside a kernel critical section (non-preemptible).
    InKernel {
        /// Time left in the section.
        remaining: SimDuration,
        /// The lock released at the end.
        lock: KLockId,
    },
}

sim_core::snap_enum!(Activity {
    0 => Compute { remaining },
    1 => Overhead { remaining, then },
    2 => BarrierSpin { bar, generation, budget },
    3 => UserSpin { lock },
    4 => KernelSpin { lock, hold, budget },
    5 => InKernel { remaining, lock },
});

/// The value a thread's activity slot is read into from an image.
impl Default for Activity {
    fn default() -> Self {
        Activity::Compute {
            remaining: SimDuration::ZERO,
        }
    }
}

impl Activity {
    /// Whether the guest scheduler may preempt a thread in this activity.
    /// Kernel lock paths run with preemption disabled.
    pub fn preemptible(&self) -> bool {
        !matches!(
            self,
            Activity::KernelSpin { .. } | Activity::InKernel { .. }
        )
    }
}

/// A cross-layer side effect the machine must route.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GuestEffect {
    /// The vCPU has nothing runnable: block it in the hypervisor.
    VcpuIdle(VcpuId),
    /// pv-spinlock gave up spinning: block the vCPU until kicked.
    VcpuPvBlock(VcpuId),
    /// Reschedule IPI from one vCPU to another (deliver if running,
    /// otherwise wake through the hypervisor).
    SendResched {
        /// Sending vCPU.
        from: VcpuId,
        /// Destination vCPU.
        to: VcpuId,
    },
    /// Kick a pv-blocked vCPU whose kernel-lock ticket came up.
    PvKick(VcpuId),
    /// `SCHEDOP_freezecpu` hypercall: tell the hypervisor about a
    /// freeze-state change.
    SetFrozen {
        /// The vCPU.
        vcpu: VcpuId,
        /// New frozen state.
        frozen: bool,
    },
    /// Prioritized reconfiguration kick (master → target, Algorithm 2).
    KickVcpu(VcpuId),
    /// A thread handed bytes to the virtual NIC.
    NicSend {
        /// Sending thread.
        tid: ThreadId,
        /// Payload size.
        bytes: u64,
    },
    /// Arm a sleep timer for a thread.
    SleepUntil {
        /// The sleeping thread.
        tid: ThreadId,
        /// Absolute wake time.
        wake_at: SimTime,
    },
    /// A thread exited.
    ThreadExited(ThreadId),
    /// A tagged kernel-work item completed on a vCPU.
    KernelWorkDone {
        /// The vCPU it ran on.
        vcpu: VcpuId,
        /// Caller-supplied tag.
        tag: u64,
    },
    /// This vCPU's published plan is stale; the machine must re-plan it if
    /// it currently holds a pCPU.
    Replan(VcpuId),
}

/// Timer-tick period (paper guests: 1000 Hz).
pub const TICK_PERIOD: SimDuration = SimDuration::from_ms(1);
/// Periodic load balance every this many ticks.
pub const TICKS_PER_BALANCE: u32 = 4;
/// Minimum vruntime lead before a tick preempts the current thread.
pub const WAKEUP_GRANULARITY: SimDuration = SimDuration::from_us(500);
/// Sleeper placement bonus on wakeup.
pub const SLEEPER_BONUS: SimDuration = SimDuration::from_ms(3);

/// Configuration of the guest kernel. The fixed timing and cost
/// constants are [`TICK_PERIOD`], [`TICKS_PER_BALANCE`],
/// [`WAKEUP_GRANULARITY`], [`SLEEPER_BONUS`] and the [`crate::costs`]
/// table.
#[derive(Clone, Debug)]
pub struct GuestConfig {
    /// Number of vCPUs.
    pub n_vcpus: usize,
    /// Kernel spinlock policy (pv-spinlock on/off).
    pub klock_policy: KlockPolicy,
    /// Softirq work per network event (protocol processing). 15 µs by
    /// default; the web-serving experiments charge 25 µs.
    pub softirq_net: SimDuration,
}

impl GuestConfig {
    /// A default configuration for `n_vcpus` vCPUs, pv-spinlock off.
    pub fn new(n_vcpus: usize) -> Self {
        GuestConfig {
            n_vcpus,
            klock_policy: KlockPolicy::TicketSpin,
            softirq_net: SimDuration::from_us(15),
        }
    }

    /// Enables the paravirtualized spinlock (spin-then-yield).
    pub fn with_pv_spinlock(mut self) -> Self {
        self.klock_policy = KlockPolicy::PvSpinThenYield {
            threshold: SimDuration::from_us(4),
        };
        self
    }
}

/// A queued piece of kernel work on one vCPU (tick handlers, context
/// switches, migration costs, daemon work). Runs ahead of user threads.
#[derive(Clone, Copy, Debug, Default)]
struct KWork {
    remaining: SimDuration,
    tag: Option<u64>,
}

sim_core::snap_struct!(KWork { remaining, tag });

/// One thread.
struct Thread {
    kind: ThreadKind,
    state: TState,
    vruntime: u64,
    last_vcpu: VcpuId,
    activity: Option<Activity>,
    program: Box<dyn ThreadProgram>,
    runtime_total: SimDuration,
    spin_waste: SimDuration,
    /// A wake arrived while the thread was still inside its block-entry
    /// syscall window — futex's "value changed" path. Consumed at the
    /// would-be block point to avoid a lost wakeup.
    pending_wake: bool,
    /// A condvar signal requeued this not-yet-parked waiter onto the
    /// mutex: park there instead of on the condvar.
    block_override: Option<BlockReason>,
}

// Scheduler state, current activity, and program progress; the kind is
// structural.
sim_core::snap_struct!(Thread {
    state,
    vruntime,
    last_vcpu,
    activity,
    runtime_total,
    spin_waste,
    pending_wake,
    block_override,
    program,
} skip { kind });

/// One vCPU's kernel-side state.
struct GVcpu {
    online: bool,
    /// Holds a pCPU right now (machine-controlled).
    running: bool,
    current: Option<ThreadId>,
    rq: crate::runqueue::RunQueue,
    kwork: VecDeque<KWork>,
    last_advanced: SimTime,
    next_tick: SimTime,
    ticks_since_balance: u32,
    /// Freeze evacuation completed and the vCPU reported idle.
    evacuated: bool,
    /// Blocked in the hypervisor by a pv-spinlock yield.
    pv_blocked: bool,
    /// `stop_machine()` stall (hotplug baseline).
    stall_until: Option<SimTime>,
    /// Pending reschedule IPI to process at next `vcpu_start`.
    pending_resched: bool,
    // Counters (Table 2, Figures 10/13).
    timer_ints: u64,
    resched_ipis: u64,
    io_irqs: u64,
}

sim_core::snap_struct!(GVcpu {
    online,
    running,
    current,
    rq,
    kwork,
    last_advanced,
    next_tick,
    ticks_since_balance,
    evacuated,
    pv_blocked,
    stall_until,
    pending_resched,
    timer_ints,
    resched_ipis,
    io_irqs,
});

/// One I/O wait queue (e.g. a socket's accept/request queue).
#[derive(Clone, Debug, Default)]
struct IoQueue {
    backlog: u64,
    waiters: VecDeque<ThreadId>,
    /// Maximum backlog (listen-queue depth); items beyond it are dropped
    /// like SYNs against a full accept queue.
    capacity: Option<u64>,
    /// Items dropped at capacity.
    drops: u64,
}

sim_core::snap_struct!(IoQueue {
    backlog,
    waiters,
    capacity,
    drops,
});

/// Aggregate kernel statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct GuestStats {
    /// Threads migrated between vCPUs.
    pub thread_migrations: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// futex sleeps entered.
    pub futex_waits: u64,
    /// futex wakes issued.
    pub futex_wakes: u64,
    /// pv-spinlock vCPU yields.
    pub pv_yields: u64,
}

sim_core::snap_struct!(GuestStats {
    thread_migrations,
    context_switches,
    futex_waits,
    futex_wakes,
    pv_yields,
});

/// The guest kernel for one domain.
pub struct GuestKernel {
    config: GuestConfig,
    vcpus: Vec<GVcpu>,
    threads: Vec<Thread>,
    /// User-level sync objects.
    pub sync: SyncTable,
    /// Kernel locks.
    pub klocks: KlockTable,
    freeze_mask: FreezeMask,
    io_queues: Vec<IoQueue>,
    stats: GuestStats,
    /// Accumulated user-spin waste (for diagnostics).
    spin_waste_total: SimDuration,
    /// Scratch for barrier-release and condvar-requeue wake lists; reused
    /// so the futex wake paths allocate nothing in steady state.
    wake_scratch: Vec<ThreadId>,
    /// Scratch for run-queue evacuation during vCPU freezes; same
    /// recycling story as `wake_scratch` but for `(vruntime, tid)` pairs.
    evac_scratch: Vec<(u64, ThreadId)>,
}

// The complete mutable kernel state. The configuration and the
// thread/sync-object *population* are structural — restore targets a
// twin built by the same setup code — so the populations load as twins.
// A thread running a program that cannot snapshot (closure-driven
// [`crate::thread::Looping`]) makes the checkpoint panic.
sim_core::snap_struct!(GuestKernel "kernel" {
    threads: twin "thread count differs from twin",
    vcpus: twin "vCPU count differs from twin",
    sync,
    klocks,
    freeze_mask,
    io_queues: twin "I/O queue count differs from twin",
    stats,
    spin_waste_total,
} skip { config, wake_scratch, evac_scratch });

impl GuestKernel {
    /// Boots a guest kernel with all vCPUs online and idle.
    pub fn new(config: GuestConfig) -> Self {
        let n = config.n_vcpus;
        assert!(n > 0);
        let klocks = KlockTable::new(config.klock_policy);
        GuestKernel {
            config,
            vcpus: (0..n)
                .map(|_| GVcpu {
                    online: true,
                    running: false,
                    current: None,
                    rq: crate::runqueue::RunQueue::new(),
                    kwork: VecDeque::new(),
                    last_advanced: SimTime::ZERO,
                    next_tick: SimTime::MAX,
                    ticks_since_balance: 0,
                    evacuated: false,
                    pv_blocked: false,
                    stall_until: None,
                    pending_resched: false,
                    timer_ints: 0,
                    resched_ipis: 0,
                    io_irqs: 0,
                })
                .collect(),
            threads: Vec::new(),
            sync: SyncTable::new(),
            klocks,
            freeze_mask: FreezeMask::new(n),
            io_queues: Vec::new(),
            stats: GuestStats::default(),
            spin_waste_total: SimDuration::ZERO,
            wake_scratch: Vec::new(),
            evac_scratch: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GuestConfig {
        &self.config
    }

    /// Number of vCPUs.
    pub fn n_vcpus(&self) -> usize {
        self.vcpus.len()
    }

    /// The freeze mask (read-only).
    pub fn freeze_mask(&self) -> &FreezeMask {
        &self.freeze_mask
    }

    /// Number of active (online, unfrozen) vCPUs.
    pub fn active_vcpus(&self) -> usize {
        (0..self.vcpus.len())
            .filter(|&i| self.vcpu_active(VcpuId(i)))
            .count()
    }

    fn vcpu_active(&self, v: VcpuId) -> bool {
        self.vcpus[v.index()].online && !self.freeze_mask.is_frozen(v)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> GuestStats {
        self.stats
    }

    /// Timer interrupts received by `v`.
    pub fn timer_ints(&self, v: VcpuId) -> u64 {
        self.vcpus[v.index()].timer_ints
    }

    /// Reschedule IPIs received by `v`.
    pub fn resched_ipis(&self, v: VcpuId) -> u64 {
        self.vcpus[v.index()].resched_ipis
    }

    /// I/O interrupts handled by `v`.
    pub fn io_irqs(&self, v: VcpuId) -> u64 {
        self.vcpus[v.index()].io_irqs
    }

    /// Total time threads spent busy-wait spinning.
    pub fn spin_waste(&self) -> SimDuration {
        self.spin_waste_total
    }

    /// State of a thread (inspection).
    pub fn thread_state(&self, tid: ThreadId) -> TState {
        self.threads[tid.index()].state
    }

    /// Total CPU time consumed by a thread.
    pub fn thread_runtime(&self, tid: ThreadId) -> SimDuration {
        self.threads[tid.index()].runtime_total
    }

    /// Number of threads created.
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    /// Whether every spawned thread has exited.
    pub fn all_exited(&self) -> bool {
        self.threads.iter().all(|t| t.state == TState::Exited)
    }

    /// The current thread of `v`, if any.
    pub fn current(&self, v: VcpuId) -> Option<ThreadId> {
        self.vcpus[v.index()].current
    }

    /// Whether a [`GuestEffect::VcpuIdle`] for `v` is still valid: a wake
    /// may have raced in between emission and routing, in which case the
    /// vCPU must keep its pCPU.
    pub fn wants_block(&self, v: VcpuId) -> bool {
        let vc = &self.vcpus[v.index()];
        vc.kwork.is_empty() && vc.current.is_none() && vc.rq.is_empty() && !vc.pending_resched
    }

    /// Run-queue length of `v` (queued plus current).
    pub fn load(&self, v: VcpuId) -> usize {
        let vc = &self.vcpus[v.index()];
        vc.rq.len() + usize::from(vc.current.is_some())
    }

    /// Creates an I/O wait queue.
    pub fn new_io_queue(&mut self) -> IoQueueId {
        self.io_queues.push(IoQueue::default());
        IoQueueId(self.io_queues.len() - 1)
    }

    /// Bounds an I/O queue's backlog (listen-queue depth).
    pub fn set_io_queue_capacity(&mut self, q: IoQueueId, capacity: u64) {
        self.io_queues[q.0].capacity = Some(capacity);
    }

    /// Items dropped against the queue's capacity so far.
    pub fn io_drops(&self, q: IoQueueId) -> u64 {
        self.io_queues[q.0].drops
    }

    /// Spawns a thread; it stays [`TState::New`] until
    /// [`GuestKernel::start_thread`].
    pub fn spawn(&mut self, kind: ThreadKind, program: Box<dyn ThreadProgram>) -> ThreadId {
        let tid = ThreadId(self.threads.len());
        let home = match kind {
            ThreadKind::KthreadPerCpu(v) => v,
            _ => VcpuId(tid.index() % self.vcpus.len()),
        };
        self.threads.push(Thread {
            kind,
            state: TState::New,
            vruntime: 0,
            last_vcpu: home,
            activity: None,
            program,
            runtime_total: SimDuration::ZERO,
            spin_waste: SimDuration::ZERO,
            pending_wake: false,
            block_override: None,
        });
        tid
    }

    /// Makes a new thread runnable (fork balance: least-loaded active
    /// vCPU). Emits a wake IPI if needed.
    pub fn start_thread(&mut self, tid: ThreadId, now: SimTime, fx: &mut Vec<GuestEffect>) {
        assert_eq!(self.threads[tid.index()].state, TState::New);
        self.make_runnable(tid, None, now, fx);
    }

    // ------------------------------------------------------------------
    // Time accounting.
    // ------------------------------------------------------------------

    /// Accounts execution progress of `v` from its last-advanced point to
    /// `now`. Must be called (and is called internally) before mutating
    /// state at `now`. Only meaningful while the vCPU holds a pCPU.
    pub fn advance(&mut self, v: VcpuId, now: SimTime) {
        let vi = v.index();
        let from = self.vcpus[vi].last_advanced;
        if !self.vcpus[vi].running || now <= from {
            self.vcpus[vi].last_advanced = self.vcpus[vi].last_advanced.max(now);
            return;
        }
        self.vcpus[vi].last_advanced = now;
        let mut delta = now.since(from);
        // stop_machine stall consumes time without progress.
        if let Some(stall) = self.vcpus[vi].stall_until {
            if stall > from {
                let stalled = stall.min(now).since(from);
                delta = delta.saturating_sub(stalled);
                if stall <= now {
                    self.vcpus[vi].stall_until = None;
                }
            }
        }
        if delta.is_zero() {
            return;
        }
        // Kernel work runs ahead of the current thread.
        if let Some(front) = self.vcpus[vi].kwork.front_mut() {
            debug_assert!(front.remaining >= delta, "advance crossed a kwork boundary");
            front.remaining = front.remaining.saturating_sub(delta);
            return;
        }
        let Some(tid) = self.vcpus[vi].current else {
            return;
        };
        let t = &mut self.threads[tid.index()];
        t.vruntime += delta.as_ns();
        t.runtime_total += delta;
        match &mut t.activity {
            Some(Activity::Compute { remaining })
            | Some(Activity::Overhead { remaining, .. })
            | Some(Activity::InKernel { remaining, .. }) => {
                debug_assert!(*remaining >= delta, "advance crossed an activity boundary");
                *remaining = remaining.saturating_sub(delta);
            }
            Some(Activity::BarrierSpin { budget, .. }) => {
                t.spin_waste += delta;
                self.spin_waste_total += delta;
                if let Some(b) = budget {
                    *b = b.saturating_sub(delta);
                }
            }
            Some(Activity::UserSpin { .. }) => {
                t.spin_waste += delta;
                self.spin_waste_total += delta;
            }
            Some(Activity::KernelSpin { budget, .. }) => {
                t.spin_waste += delta;
                self.spin_waste_total += delta;
                if let Some(b) = budget {
                    *b = b.saturating_sub(delta);
                }
            }
            None => {}
        }
    }

    // ------------------------------------------------------------------
    // vCPU lifecycle (driven by hypervisor scheduling events).
    // ------------------------------------------------------------------

    /// The vCPU was granted a pCPU.
    pub fn vcpu_start(&mut self, v: VcpuId, now: SimTime, fx: &mut Vec<GuestEffect>) {
        let vi = v.index();
        debug_assert!(!self.vcpus[vi].running, "{v} started twice");
        self.vcpus[vi].running = true;
        self.vcpus[vi].last_advanced = now;
        self.vcpus[vi].next_tick = now + TICK_PERIOD;
        self.vcpus[vi].pv_blocked = false;
        if self.vcpus[vi].pending_resched {
            self.vcpus[vi].pending_resched = false;
            self.vcpus[vi].resched_ipis += 1;
        }
        self.schedule_loop(v, now, fx);
    }

    /// The vCPU lost its pCPU (preempted or it blocked).
    pub fn vcpu_stop(&mut self, v: VcpuId, now: SimTime) {
        self.advance(v, now);
        let vc = &mut self.vcpus[v.index()];
        vc.running = false;
        vc.next_tick = SimTime::MAX;
    }

    /// The next local event on `v`, or `None` when the vCPU is idle or off
    /// pCPU. The machine schedules a plan point at the returned time.
    pub fn next_plan(&mut self, v: VcpuId, now: SimTime) -> Option<SimTime> {
        let vi = v.index();
        if !self.vcpus[vi].running || self.vcpus[vi].pv_blocked {
            return None;
        }
        // Bring the vCPU's accounting up to `now` so every `remaining`
        // below is current and the returned deadline is exact.
        self.advance(v, now);
        if let Some(stall) = self.vcpus[vi].stall_until {
            if stall > now {
                // stop_machine runs with interrupts disabled: ticks
                // coalesce to the stall end.
                return Some(stall);
            }
        }
        // A tick that came due while interrupts were disabled (a
        // stop_machine stall, or its unwind when a removal aborts) fires
        // as soon as they re-enable: clamp the stale deadline to `now`
        // instead of planning into the past.
        let tick = self.vcpus[vi].next_tick.max(now);
        if let Some(front) = self.vcpus[vi].kwork.front() {
            return Some((now + front.remaining).min(tick));
        }
        let tid = self.vcpus[vi].current?;
        let act = self.threads[tid.index()].activity;
        let cand = match act {
            Some(Activity::Compute { remaining })
            | Some(Activity::Overhead { remaining, .. })
            | Some(Activity::InKernel { remaining, .. }) => now + remaining,
            Some(Activity::BarrierSpin {
                bar,
                generation,
                budget,
            }) => {
                if self.sync.barriers[bar.0].released(generation) {
                    now
                } else if let Some(b) = budget {
                    now + b
                } else {
                    SimTime::MAX
                }
            }
            Some(Activity::UserSpin { lock }) => {
                if self.sync.spinlocks[lock.0].held_by(tid) {
                    now
                } else {
                    SimTime::MAX
                }
            }
            Some(Activity::KernelSpin { lock, budget, .. }) => {
                if self.klocks.lock_ref(lock).held_by(tid) {
                    now
                } else if let Some(b) = budget {
                    now + b
                } else {
                    SimTime::MAX
                }
            }
            None => now, // Needs a dispatch.
        };
        Some(cand.min(tick))
    }

    /// Processes whatever is due on `v` at `now`: tick, kernel-work or
    /// activity completions, spin transitions.
    pub fn on_plan_point(&mut self, v: VcpuId, now: SimTime, fx: &mut Vec<GuestEffect>) {
        let vi = v.index();
        if !self.vcpus[vi].running {
            return;
        }
        self.advance(v, now);
        // Timer tick.
        if now >= self.vcpus[vi].next_tick {
            self.fire_tick(v, now, fx);
        }
        // Kernel-work completion.
        while let Some(front) = self.vcpus[vi].kwork.front() {
            if front.remaining.is_zero() {
                let w = self.vcpus[vi].kwork.pop_front().expect("front exists");
                if let Some(tag) = w.tag {
                    fx.push(GuestEffect::KernelWorkDone { vcpu: v, tag });
                }
            } else {
                return; // Work still pending; nothing below runs yet.
            }
        }
        // Activity completion / spin transition.
        if let Some(tid) = self.vcpus[vi].current {
            self.progress_current(v, tid, now, fx);
        }
        self.schedule_loop(v, now, fx);
    }

    fn fire_tick(&mut self, v: VcpuId, now: SimTime, fx: &mut [GuestEffect]) {
        let vi = v.index();
        self.vcpus[vi].timer_ints += 1;
        self.vcpus[vi].next_tick = now + TICK_PERIOD;
        self.vcpus[vi].ticks_since_balance += 1;
        self.push_kwork(v, now, costs::TIMER_TICK, None);
        // CFS tick preemption.
        if let Some(tid) = self.vcpus[vi].current {
            let preemptible = self.threads[tid.index()]
                .activity
                .map(|a| a.preemptible())
                .unwrap_or(true);
            if preemptible {
                if let Some((minv, _)) = self.vcpus[vi].rq.peek_min() {
                    let cur_v = self.threads[tid.index()].vruntime;
                    if cur_v > minv + WAKEUP_GRANULARITY.as_ns() {
                        self.preempt_current(v, now, fx);
                    }
                }
            }
        }
        // Periodic load balance.
        if self.vcpus[vi].ticks_since_balance >= TICKS_PER_BALANCE {
            self.vcpus[vi].ticks_since_balance = 0;
            self.periodic_balance(v, now, fx);
        }
    }

    fn preempt_current(&mut self, v: VcpuId, now: SimTime, _fx: &mut [GuestEffect]) {
        let vi = v.index();
        if let Some(tid) = self.vcpus[vi].current.take() {
            let t = &mut self.threads[tid.index()];
            t.state = TState::Ready;
            let vr = t.vruntime;
            self.vcpus[vi].rq.enqueue(tid, vr);
            self.push_kwork(v, now, costs::CONTEXT_SWITCH, None);
            self.stats.context_switches += 1;
        }
    }

    /// Handles the current thread's activity at a plan point: completions
    /// and spin-state transitions.
    fn progress_current(
        &mut self,
        v: VcpuId,
        tid: ThreadId,
        now: SimTime,
        fx: &mut Vec<GuestEffect>,
    ) {
        let Some(act) = self.threads[tid.index()].activity else {
            return; // Dispatch happens in schedule_loop.
        };
        match act {
            Activity::Compute { remaining } if remaining.is_zero() => {
                self.threads[tid.index()].activity = None;
            }
            Activity::Overhead { remaining, then } if remaining.is_zero() => {
                self.threads[tid.index()].activity = None;
                if let Then::Block(reason) = then {
                    self.block_current(v, tid, reason, fx);
                }
            }
            Activity::InKernel { remaining, lock } if remaining.is_zero() => {
                self.threads[tid.index()].activity = None;
                self.release_klock(lock, tid, now, fx);
            }
            Activity::BarrierSpin {
                bar,
                generation,
                budget,
            } => {
                if self.sync.barriers[bar.0].released(generation) {
                    // Spin succeeded: proceed to the next action.
                    self.threads[tid.index()].activity = None;
                } else if budget.is_some_and(|b| b.is_zero()) {
                    // Budget exhausted: fall back to futex sleep.
                    self.sync.barriers[bar.0].block(tid);
                    self.stats.futex_waits += 1;
                    self.threads[tid.index()].activity = Some(Activity::Overhead {
                        remaining: costs::FUTEX_SYSCALL,
                        then: Then::Block(BlockReason::Barrier(bar, generation)),
                    });
                }
            }
            Activity::UserSpin { lock } if self.sync.spinlocks[lock.0].held_by(tid) => {
                self.threads[tid.index()].activity = None;
            }
            Activity::KernelSpin { lock, hold, budget } => {
                if self.klocks.lock_ref(lock).held_by(tid) {
                    self.threads[tid.index()].activity = Some(Activity::InKernel {
                        remaining: hold,
                        lock,
                    });
                } else if budget.is_some_and(|b| b.is_zero()) {
                    // pv-spinlock: yield the whole vCPU until kicked.
                    self.stats.pv_yields += 1;
                    self.vcpus[v.index()].pv_blocked = true;
                    fx.push(GuestEffect::VcpuPvBlock(v));
                }
            }
            _ => {}
        }
    }

    /// Releases a kernel lock and lets the next ticket holder proceed.
    fn release_klock(
        &mut self,
        lock: KLockId,
        tid: ThreadId,
        _now: SimTime,
        fx: &mut Vec<GuestEffect>,
    ) {
        if let Some(next) = self.klocks.lock(lock).release(tid) {
            // The next owner is spinning (or pv-blocked) somewhere.
            let owner_vcpu = self.current_vcpu_of(next);
            if let Some(ov) = owner_vcpu {
                if self.vcpus[ov.index()].pv_blocked {
                    fx.push(GuestEffect::PvKick(ov));
                } else if self.vcpus[ov.index()].running {
                    fx.push(GuestEffect::Replan(ov));
                }
                // If its vCPU is descheduled: it proceeds when the
                // hypervisor runs it again (ticket-handoff LHP).
            }
        }
    }

    /// The vCPU a thread is *current* on, if any.
    fn current_vcpu_of(&self, tid: ThreadId) -> Option<VcpuId> {
        self.vcpus
            .iter()
            .position(|vc| vc.current == Some(tid))
            .map(VcpuId)
    }

    /// Parks the current thread of `v` — unless a wake already raced in
    /// during the block-entry window (futex atomicity).
    fn block_current(
        &mut self,
        v: VcpuId,
        tid: ThreadId,
        reason: BlockReason,
        _fx: &mut [GuestEffect],
    ) {
        debug_assert_eq!(self.vcpus[v.index()].current, Some(tid));
        let t = &mut self.threads[tid.index()];
        if t.pending_wake {
            // The condition was satisfied before we parked: stay current
            // and dispatch the next action.
            t.pending_wake = false;
            t.block_override = None;
            t.activity = None;
            return;
        }
        let reason = t.block_override.take().unwrap_or(reason);
        self.vcpus[v.index()].current = None;
        let t = &mut self.threads[tid.index()];
        t.state = TState::Blocked(reason);
        t.activity = None;
    }

    // ------------------------------------------------------------------
    // The scheduler core.
    // ------------------------------------------------------------------

    /// Drives `v` to a stable state: evacuates if frozen, picks a thread,
    /// dispatches actions until an activity is installed, or reports idle.
    fn schedule_loop(&mut self, v: VcpuId, now: SimTime, fx: &mut Vec<GuestEffect>) {
        let vi = v.index();
        if !self.vcpus[vi].running || self.vcpus[vi].pv_blocked {
            return;
        }
        loop {
            // Pending kernel work always runs first.
            if self.vcpus[vi]
                .kwork
                .front()
                .is_some_and(|w| !w.remaining.is_zero())
            {
                return;
            }
            while let Some(front) = self.vcpus[vi].kwork.front() {
                if front.remaining.is_zero() {
                    let w = self.vcpus[vi].kwork.pop_front().expect("front exists");
                    if let Some(tag) = w.tag {
                        fx.push(GuestEffect::KernelWorkDone { vcpu: v, tag });
                    }
                } else {
                    return;
                }
            }
            // Algorithm 2 target side: evacuate a freezing vCPU. The
            // current thread is preempted mid-activity if possible (user
            // state is saved; only kernel sections must run out).
            if self.freeze_mask.is_frozen(v) {
                if let Some(tid) = self.vcpus[vi].current {
                    let preemptible = self.threads[tid.index()]
                        .activity
                        .map(|a| a.preemptible())
                        .unwrap_or(true);
                    if preemptible && self.threads[tid.index()].kind.migratable() {
                        self.preempt_current(v, now, fx);
                        continue; // Switch cost queued; evacuation follows.
                    }
                }
                if self.evacuate(v, now, fx) {
                    continue; // Migration kwork queued.
                }
                if self.vcpus[vi].current.is_none() {
                    if !self.vcpus[vi].evacuated {
                        self.vcpus[vi].evacuated = true;
                    }
                    self.vcpus[vi].next_tick = SimTime::MAX; // Dynticks.
                    fx.push(GuestEffect::VcpuIdle(v));
                    return;
                }
                // A non-migratable current (kernel section) finishes first.
            }
            // Ensure a current thread.
            if self.vcpus[vi].current.is_none() {
                match self.vcpus[vi].rq.pick_next() {
                    Some((_vr, tid)) => {
                        self.threads[tid.index()].state = TState::Running;
                        self.threads[tid.index()].last_vcpu = v;
                        self.vcpus[vi].current = Some(tid);
                        self.push_kwork(v, now, costs::CONTEXT_SWITCH, None);
                        self.stats.context_switches += 1;
                        continue; // Run the switch cost first.
                    }
                    None => {
                        // Idle balance: try to pull from the busiest peer.
                        if self.idle_pull(v, now, fx) {
                            continue;
                        }
                        self.vcpus[vi].next_tick = SimTime::MAX;
                        fx.push(GuestEffect::VcpuIdle(v));
                        return;
                    }
                }
            }
            let tid = self.vcpus[vi].current.expect("current set");
            if self.threads[tid.index()].activity.is_some() {
                // Restart the tick clock if it was parked by an idle spell.
                if self.vcpus[vi].next_tick == SimTime::MAX {
                    self.vcpus[vi].next_tick = now + TICK_PERIOD;
                }
                return; // An activity is installed; the plan covers it.
            }
            // Dispatch the next program action.
            if !self.dispatch(v, tid, now, fx) {
                continue; // Thread blocked/exited/migrated; pick again.
            }
        }
    }

    /// Asks the program for the thread's next action and installs the
    /// matching activity. Returns `false` if the thread left the vCPU
    /// (blocked, exited, migrated away by freeze).
    fn dispatch(
        &mut self,
        v: VcpuId,
        tid: ThreadId,
        now: SimTime,
        fx: &mut Vec<GuestEffect>,
    ) -> bool {
        // A dispatch boundary on a freezing vCPU migrates the thread away
        // instead of running it here.
        if self.freeze_mask.is_frozen(v) && self.threads[tid.index()].kind.migratable() {
            self.vcpus[v.index()].current = None;
            self.threads[tid.index()].state = TState::Ready;
            self.migrate_thread(tid, v, now, fx);
            return false;
        }
        let ctx = ProgramCtx {
            tid,
            now,
            vcpu: v,
            active_vcpus: self.active_vcpus(),
        };
        let action = self.threads[tid.index()].program.next(ctx);
        let act: Option<Activity> = match action {
            ThreadAction::Compute(d) => Some(Activity::Compute {
                // A zero-length compute would loop at one instant forever.
                remaining: d.max(SimDuration::from_ns(1)),
            }),
            ThreadAction::BarrierWait(bar) => {
                match self.sync.barriers[bar.0].arrive(tid) {
                    BarrierArrival::Release { n_blocked } => {
                        let wake_cost = costs::FUTEX_SYSCALL * n_blocked as u64;
                        let mut wake = std::mem::take(&mut self.wake_scratch);
                        self.sync.barriers[bar.0].drain_blocked(&mut wake);
                        debug_assert_eq!(wake.len(), n_blocked);
                        for &w in &wake {
                            self.stats.futex_wakes += 1;
                            self.wake_thread(w, Some(v), now, fx);
                        }
                        wake.clear();
                        self.wake_scratch = wake;
                        // Spinning waiters on other running vCPUs notice
                        // the generation bump immediately, not at their
                        // next tick.
                        for i in 0..self.vcpus.len() {
                            if i == v.index() || !self.vcpus[i].running {
                                continue;
                            }
                            if let Some(c) = self.vcpus[i].current {
                                if matches!(
                                    self.threads[c.index()].activity,
                                    Some(Activity::BarrierSpin { bar: b, .. }) if b == bar
                                ) {
                                    fx.push(GuestEffect::Replan(VcpuId(i)));
                                }
                            }
                        }
                        Some(Activity::Overhead {
                            remaining: SimDuration::from_ns(100) + wake_cost,
                            then: Then::Dispatch,
                        })
                    }
                    BarrierArrival::Wait {
                        spin_budget,
                        generation,
                    } => {
                        if spin_budget == Some(SimDuration::ZERO) {
                            // PASSIVE policy: straight to futex.
                            self.sync.barriers[bar.0].block(tid);
                            self.stats.futex_waits += 1;
                            Some(Activity::Overhead {
                                remaining: costs::FUTEX_SYSCALL,
                                then: Then::Block(BlockReason::Barrier(bar, generation)),
                            })
                        } else {
                            Some(Activity::BarrierSpin {
                                bar,
                                generation,
                                budget: spin_budget,
                            })
                        }
                    }
                }
            }
            ThreadAction::MutexLock(m) => {
                if self.sync.mutexes[m.0].lock(tid) {
                    Some(Activity::Overhead {
                        remaining: SimDuration::from_ns(50),
                        then: Then::Dispatch,
                    })
                } else {
                    self.stats.futex_waits += 1;
                    Some(Activity::Overhead {
                        remaining: costs::FUTEX_SYSCALL,
                        then: Then::Block(BlockReason::Mutex(m)),
                    })
                }
            }
            ThreadAction::MutexUnlock(m) => {
                if let Some(next) = self.sync.mutexes[m.0].unlock(tid) {
                    self.stats.futex_wakes += 1;
                    self.wake_thread(next, Some(v), now, fx);
                    Some(Activity::Overhead {
                        remaining: costs::FUTEX_SYSCALL,
                        then: Then::Dispatch,
                    })
                } else {
                    Some(Activity::Overhead {
                        remaining: SimDuration::from_ns(60),
                        then: Then::Dispatch,
                    })
                }
            }
            ThreadAction::CondWait(c, m) => {
                // Atomically: unlock the mutex, park on the condvar.
                if let Some(next) = self.sync.mutexes[m.0].unlock(tid) {
                    self.stats.futex_wakes += 1;
                    self.wake_thread(next, Some(v), now, fx);
                }
                self.sync.condvars[c.0].wait(tid);
                self.stats.futex_waits += 1;
                Some(Activity::Overhead {
                    remaining: costs::FUTEX_SYSCALL,
                    then: Then::Block(BlockReason::Cond(c, m)),
                })
            }
            ThreadAction::CondSignal(c) => {
                self.requeue_cond_waiters(c, 1, v, now, fx);
                Some(Activity::Overhead {
                    remaining: costs::FUTEX_SYSCALL,
                    then: Then::Dispatch,
                })
            }
            ThreadAction::CondBroadcast(c) => {
                let n = self.sync.condvars[c.0].waiter_count();
                self.requeue_cond_waiters(c, n, v, now, fx);
                Some(Activity::Overhead {
                    remaining: costs::FUTEX_SYSCALL * (n.max(1)) as u64,
                    then: Then::Dispatch,
                })
            }
            ThreadAction::UserSpinLock(s) => {
                if self.sync.spinlocks[s.0].lock(tid) {
                    Some(Activity::Overhead {
                        remaining: SimDuration::from_ns(30),
                        then: Then::Dispatch,
                    })
                } else {
                    Some(Activity::UserSpin { lock: s })
                }
            }
            ThreadAction::UserSpinUnlock(s) => {
                if let Some(next) = self.sync.spinlocks[s.0].unlock(tid) {
                    // A running spinner notices on replan; a descheduled
                    // one inherits the lock silently (ticket handoff).
                    if let Some(ov) = self.current_vcpu_of(next) {
                        if self.vcpus[ov.index()].running && ov != v {
                            fx.push(GuestEffect::Replan(ov));
                        }
                    }
                }
                Some(Activity::Overhead {
                    remaining: SimDuration::from_ns(30),
                    then: Then::Dispatch,
                })
            }
            ThreadAction::SemWait(sem) => {
                if self.sync.semaphores[sem.0].wait(tid) {
                    Some(Activity::Overhead {
                        remaining: SimDuration::from_ns(80),
                        then: Then::Dispatch,
                    })
                } else {
                    self.stats.futex_waits += 1;
                    Some(Activity::Overhead {
                        remaining: costs::FUTEX_SYSCALL,
                        then: Then::Block(BlockReason::Sem(sem)),
                    })
                }
            }
            ThreadAction::SemPost(sem) => {
                if let Some(w) = self.sync.semaphores[sem.0].post() {
                    self.stats.futex_wakes += 1;
                    self.wake_thread(w, Some(v), now, fx);
                    Some(Activity::Overhead {
                        remaining: costs::FUTEX_SYSCALL,
                        then: Then::Dispatch,
                    })
                } else {
                    Some(Activity::Overhead {
                        remaining: SimDuration::from_ns(60),
                        then: Then::Dispatch,
                    })
                }
            }
            ThreadAction::KernelOp { lock, hold } => {
                if self.klocks.lock(lock).acquire(tid) {
                    Some(Activity::InKernel {
                        remaining: hold,
                        lock,
                    })
                } else {
                    Some(Activity::KernelSpin {
                        lock,
                        hold,
                        budget: self.klocks.policy.spin_budget(),
                    })
                }
            }
            ThreadAction::IoWait(q) => {
                if self.io_queues[q.0].backlog > 0 {
                    self.io_queues[q.0].backlog -= 1;
                    Some(Activity::Overhead {
                        remaining: SimDuration::from_us(1),
                        then: Then::Dispatch,
                    })
                } else {
                    self.io_queues[q.0].waiters.push_back(tid);
                    self.stats.futex_waits += 1;
                    Some(Activity::Overhead {
                        remaining: costs::FUTEX_SYSCALL,
                        then: Then::Block(BlockReason::Io(q)),
                    })
                }
            }
            ThreadAction::NicSend { bytes } => {
                fx.push(GuestEffect::NicSend { tid, bytes });
                // Syscall + copy cost (~10 GB/s copy bandwidth).
                let copy = SimDuration::from_ns(bytes / 10);
                Some(Activity::Overhead {
                    remaining: SimDuration::from_us(2) + copy,
                    then: Then::Dispatch,
                })
            }
            ThreadAction::Sleep(d) => {
                fx.push(GuestEffect::SleepUntil {
                    tid,
                    wake_at: now + d,
                });
                Some(Activity::Overhead {
                    remaining: SimDuration::from_ns(500),
                    then: Then::Block(BlockReason::Sleep),
                })
            }
            ThreadAction::Yield => {
                self.vcpus[v.index()].current = None;
                let t = &mut self.threads[tid.index()];
                t.state = TState::Ready;
                let vr = t.vruntime;
                self.vcpus[v.index()].rq.enqueue(tid, vr);
                self.push_kwork(v, now, costs::CONTEXT_SWITCH, None);
                self.stats.context_switches += 1;
                return false;
            }
            ThreadAction::Exit => {
                self.vcpus[v.index()].current = None;
                self.threads[tid.index()].state = TState::Exited;
                fx.push(GuestEffect::ThreadExited(tid));
                return false;
            }
        };
        if let Some(a) = act {
            self.threads[tid.index()].activity = Some(a);
            // Installing `Overhead { then: Block }` still leaves the thread
            // current until the syscall body completes.
        }
        true
    }

    /// Signal/broadcast: requeue up to `n` condvar waiters onto the mutex
    /// (futex_requeue semantics — only threads that acquire it wake now).
    fn requeue_cond_waiters(
        &mut self,
        c: crate::thread::CondId,
        n: usize,
        from: VcpuId,
        now: SimTime,
        fx: &mut Vec<GuestEffect>,
    ) {
        let mut moved = std::mem::take(&mut self.wake_scratch);
        self.sync.condvars[c.0].drain_waiters(n, &mut moved);
        for &t in &moved {
            match self.threads[t.index()].state {
                TState::Blocked(BlockReason::Cond(_, m)) => {
                    if self.sync.mutexes[m.0].enqueue_waiter(t) {
                        self.stats.futex_wakes += 1;
                        self.wake_thread(t, Some(from), now, fx);
                    } else {
                        self.threads[t.index()].state = TState::Blocked(BlockReason::Mutex(m));
                    }
                }
                // The waiter has not parked yet (still in its CondWait
                // syscall window): redirect or elide its upcoming block.
                TState::Running | TState::Ready => {
                    let m = match self.threads[t.index()].activity {
                        Some(Activity::Overhead {
                            then: Then::Block(BlockReason::Cond(_, m)),
                            ..
                        }) => m,
                        other => panic!("unparked cond waiter {t} doing {other:?}"),
                    };
                    if self.sync.mutexes[m.0].enqueue_waiter(t) {
                        self.threads[t.index()].pending_wake = true;
                    } else {
                        self.threads[t.index()].block_override = Some(BlockReason::Mutex(m));
                    }
                }
                other => panic!("cond waiter {t} in unexpected state {other:?}"),
            }
        }
        moved.clear();
        self.wake_scratch = moved;
    }

    // ------------------------------------------------------------------
    // Wakeups, IPIs, load balancing.
    // ------------------------------------------------------------------

    /// select_task_rq: pick a destination vCPU for a waking/new thread.
    /// Prefers the thread's previous vCPU when idle, else the least-loaded
    /// active vCPU. Frozen and offline vCPUs are never chosen.
    fn select_task_rq(&self, tid: ThreadId) -> VcpuId {
        let prev = self.threads[tid.index()].last_vcpu;
        if self.vcpu_active(prev) && self.load(prev) == 0 {
            return prev;
        }
        // Scan from the thread's previous vCPU so ties spread instead of
        // piling onto vCPU0.
        let n = self.vcpus.len();
        let mut best = None;
        let mut best_load = usize::MAX;
        for k in 0..n {
            let v = VcpuId((prev.index() + k) % n);
            if !self.vcpu_active(v) {
                continue;
            }
            let l = self.load(v);
            if l < best_load {
                best_load = l;
                best = Some(v);
            }
        }
        best.unwrap_or(prev)
    }

    /// Makes `tid` runnable on a chosen vCPU; emits a reschedule IPI when
    /// the destination differs from the waker's vCPU and needs nudging.
    fn make_runnable(
        &mut self,
        tid: ThreadId,
        from: Option<VcpuId>,
        now: SimTime,
        fx: &mut Vec<GuestEffect>,
    ) {
        let dest = self.select_task_rq(tid);
        {
            let t = &mut self.threads[tid.index()];
            t.state = TState::Ready;
            t.last_vcpu = dest;
        }
        let vr = self.threads[tid.index()].vruntime;
        let placed = self.vcpus[dest.index()]
            .rq
            .place_woken(tid, vr, SLEEPER_BONUS);
        self.threads[tid.index()].vruntime = placed;
        // IPI decision: remote destination that is idle, off-pCPU, or
        // should preempt gets a kick; a busy same-vCPU enqueue does not.
        let dest_state = &self.vcpus[dest.index()];
        let needs_ipi = match from {
            Some(f) if f == dest => false,
            _ => {
                let idle = dest_state.current.is_none();
                let off_pcpu = !dest_state.running;
                let preempts = dest_state
                    .current
                    .map(|c| {
                        self.threads[c.index()]
                            .activity
                            .map(|a| a.preemptible())
                            .unwrap_or(true)
                            && placed + WAKEUP_GRANULARITY.as_ns()
                                < self.threads[c.index()].vruntime
                    })
                    .unwrap_or(false);
                idle || off_pcpu || preempts
            }
        };
        if needs_ipi {
            let f = from.unwrap_or(dest);
            // Charge the IPI-send cost on the waking vCPU only when the
            // wake originates in-guest; external (timer/device) wakes are
            // charged in their own handlers.
            if from.is_some() {
                self.push_kwork(f, now, costs::IPI_SEND, None);
            }
            fx.push(GuestEffect::SendResched { from: f, to: dest });
        } else if from == Some(dest) {
            fx.push(GuestEffect::Replan(dest));
        }
    }

    /// Wakes a blocked (or new) thread. `from` is the waking vCPU if the
    /// wake originates on-guest.
    pub fn wake_thread(
        &mut self,
        tid: ThreadId,
        from: Option<VcpuId>,
        now: SimTime,
        fx: &mut Vec<GuestEffect>,
    ) {
        match self.threads[tid.index()].state {
            TState::Blocked(_) | TState::New => {
                self.make_runnable(tid, from, now, fx);
            }
            TState::Running | TState::Ready => {
                // The wake raced with the target's block-entry window:
                // remember it so the block is elided (futex atomicity).
                self.threads[tid.index()].pending_wake = true;
            }
            TState::Exited => {}
        }
    }

    /// Queues kernel work on `v` (runs before user threads). Advances the
    /// vCPU first so the new item never absorbs time that belongs to the
    /// previously planned segment.
    pub fn push_kwork(&mut self, v: VcpuId, now: SimTime, cost: SimDuration, tag: Option<u64>) {
        if cost.is_zero() && tag.is_none() {
            return;
        }
        self.advance(v, now);
        self.vcpus[v.index()].kwork.push_back(KWork {
            remaining: cost,
            tag,
        });
    }

    /// A reschedule IPI was delivered to `v` while it holds a pCPU.
    pub fn on_resched_ipi(&mut self, v: VcpuId, now: SimTime, fx: &mut Vec<GuestEffect>) {
        let vi = v.index();
        if !self.vcpus[vi].running {
            self.vcpus[vi].pending_resched = true;
            return;
        }
        self.advance(v, now);
        self.vcpus[vi].resched_ipis += 1;
        // Preemption check against the queue head.
        if let Some(tid) = self.vcpus[vi].current {
            let preemptible = self.threads[tid.index()]
                .activity
                .map(|a| a.preemptible())
                .unwrap_or(true);
            if preemptible {
                if let Some((minv, _)) = self.vcpus[vi].rq.peek_min() {
                    if minv + WAKEUP_GRANULARITY.as_ns() < self.threads[tid.index()].vruntime {
                        self.preempt_current(v, now, fx);
                    }
                }
            }
        }
        self.schedule_loop(v, now, fx);
    }

    /// Marks an IPI pending for a vCPU that is off-pCPU; it is accounted
    /// and acted on at the next [`GuestKernel::vcpu_start`].
    pub fn pend_resched(&mut self, v: VcpuId) {
        self.vcpus[v.index()].pending_resched = true;
    }

    /// Idle balance: pull one thread from the busiest active peer.
    /// Returns `true` if something was pulled. Frozen vCPUs never pull
    /// (Algorithm 2 step (b)).
    fn idle_pull(&mut self, v: VcpuId, now: SimTime, _fx: &mut [GuestEffect]) -> bool {
        if !self.vcpu_active(v) {
            return false;
        }
        // Pull only from a peer that stays at least as loaded as we
        // become: stealing a task a CPU was about to run just ping-pongs
        // it (and Linux's idle_balance has the same guard).
        let busiest = (0..self.vcpus.len())
            .map(VcpuId)
            .filter(|&o| o != v && !self.vcpus[o.index()].rq.is_empty() && self.load(o) >= 2)
            .max_by_key(|&o| self.load(o));
        let Some(src) = busiest else {
            return false;
        };
        let Some((vr, tid)) = self.vcpus[src.index()].rq.steal_back() else {
            return false;
        };
        if !self.threads[tid.index()].kind.migratable() {
            self.vcpus[src.index()].rq.enqueue(tid, vr);
            return false;
        }
        self.threads[tid.index()].last_vcpu = v;
        self.vcpus[v.index()].rq.enqueue(tid, vr);
        self.push_kwork(v, now, costs::THREAD_MIGRATION, None);
        self.stats.thread_migrations += 1;
        true
    }

    /// Periodic balance on `v`: pull one thread if a peer is two or more
    /// threads ahead.
    fn periodic_balance(&mut self, v: VcpuId, now: SimTime, _fx: &mut [GuestEffect]) {
        if !self.vcpu_active(v) {
            return;
        }
        let my_load = self.load(v);
        let busiest = (0..self.vcpus.len())
            .map(VcpuId)
            .filter(|&o| o != v)
            .max_by_key(|&o| self.load(o));
        let Some(src) = busiest else {
            return;
        };
        if self.load(src) < my_load + 2 {
            return;
        }
        if let Some((vr, tid)) = self.vcpus[src.index()].rq.steal_back() {
            if !self.threads[tid.index()].kind.migratable() {
                self.vcpus[src.index()].rq.enqueue(tid, vr);
                return;
            }
            self.threads[tid.index()].last_vcpu = v;
            self.vcpus[v.index()].rq.enqueue(tid, vr);
            self.push_kwork(v, now, costs::THREAD_MIGRATION, None);
            self.stats.thread_migrations += 1;
        }
    }

    /// Moves one thread off a freezing vCPU to an active one (charging the
    /// Table 3 per-thread migration cost on the *target* side of
    /// Algorithm 2, i.e. on the frozen vCPU doing the evacuation).
    fn migrate_thread(
        &mut self,
        tid: ThreadId,
        from: VcpuId,
        now: SimTime,
        fx: &mut Vec<GuestEffect>,
    ) {
        self.push_kwork(from, now, costs::THREAD_MIGRATION, None);
        self.stats.thread_migrations += 1;
        self.make_runnable(tid, Some(from), now, fx);
    }

    /// Evacuates the run queue of a freezing vCPU. Returns `true` if any
    /// thread was migrated (kwork was queued).
    fn evacuate(&mut self, v: VcpuId, now: SimTime, fx: &mut Vec<GuestEffect>) -> bool {
        if self.vcpus[v.index()].rq.is_empty() {
            return false;
        }
        let mut queued = std::mem::take(&mut self.evac_scratch);
        self.vcpus[v.index()].rq.drain_into(&mut queued);
        let mut any = false;
        for &(vr, tid) in &queued {
            if self.threads[tid.index()].kind.migratable() {
                self.migrate_thread(tid, v, now, fx);
                any = true;
            } else {
                // Per-CPU kthreads stay (they quiesce with the vCPU).
                self.vcpus[v.index()].rq.enqueue(tid, vr);
            }
        }
        queued.clear();
        self.evac_scratch = queued;
        any
    }

    // ------------------------------------------------------------------
    // Algorithm 2: master-side freeze / unfreeze.
    // ------------------------------------------------------------------

    /// Master-side freeze of `target` (Algorithm 2, steps (1)–(4)).
    ///
    /// The caller (the daemon path) must have charged the master-side cost
    /// ([`costs::FREEZE_MASTER`]) on vCPU0. Emits the hypercall
    /// and the prioritized reconfiguration kick.
    ///
    /// # Panics
    ///
    /// Panics on an invalid target (vCPU0 or out of range); paths fed by
    /// externally-derived targets use
    /// [`try_freeze_vcpu`](Self::try_freeze_vcpu) instead.
    pub fn freeze_vcpu(&mut self, target: VcpuId, now: SimTime, fx: &mut Vec<GuestEffect>) -> bool {
        match self.try_freeze_vcpu(target, now, fx) {
            Ok(changed) => changed,
            Err(e) => panic!("freeze of vCPU{}: {e}", target.index()),
        }
    }

    /// Non-panicking [`freeze_vcpu`](Self::freeze_vcpu): an invalid target
    /// (the protected master vCPU0, or an id outside the mask) is reported
    /// as `Err` naming the violated invariant, with no state changed.
    pub fn try_freeze_vcpu(
        &mut self,
        target: VcpuId,
        _now: SimTime,
        fx: &mut Vec<GuestEffect>,
    ) -> Result<bool, &'static str> {
        if !self.freeze_mask.try_freeze(target)? {
            return Ok(false);
        }
        self.vcpus[target.index()].evacuated = false;
        // (2) sched-group power update is a pure cost (charged by caller).
        // (3) Notify the hypervisor: stop earning credits.
        fx.push(GuestEffect::SetFrozen {
            vcpu: target,
            frozen: true,
        });
        // (4) Reschedule IPI, prioritized by the hypervisor.
        fx.push(GuestEffect::KickVcpu(target));
        Ok(true)
    }

    /// Master-side unfreeze of `target`.
    pub fn unfreeze_vcpu(
        &mut self,
        target: VcpuId,
        now: SimTime,
        fx: &mut Vec<GuestEffect>,
    ) -> bool {
        match self.try_unfreeze_vcpu(target, now, fx) {
            Ok(changed) => changed,
            Err(e) => panic!("unfreeze of vCPU{}: {e}", target.index()),
        }
    }

    /// Non-panicking [`unfreeze_vcpu`](Self::unfreeze_vcpu); see
    /// [`try_freeze_vcpu`](Self::try_freeze_vcpu).
    pub fn try_unfreeze_vcpu(
        &mut self,
        target: VcpuId,
        _now: SimTime,
        fx: &mut Vec<GuestEffect>,
    ) -> Result<bool, &'static str> {
        if !self.freeze_mask.try_unfreeze(target)? {
            return Ok(false);
        }
        self.vcpus[target.index()].evacuated = false;
        fx.push(GuestEffect::SetFrozen {
            vcpu: target,
            frozen: false,
        });
        // wake_up_idle_cpu(): the target pulls work when it comes up.
        fx.push(GuestEffect::KickVcpu(target));
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Interrupts and I/O.
    // ------------------------------------------------------------------

    /// Delivers an external I/O interrupt carrying `items` completions for
    /// queue `q`. Charges handler + softirq costs on `v` and wakes waiting
    /// threads.
    pub fn deliver_io_irq(
        &mut self,
        v: VcpuId,
        q: IoQueueId,
        items: u64,
        now: SimTime,
        fx: &mut Vec<GuestEffect>,
    ) {
        self.advance(v, now);
        let vi = v.index();
        self.vcpus[vi].io_irqs += 1;
        let cost = costs::IRQ_HANDLER + self.config.softirq_net * items;
        self.push_kwork(v, now, cost, None);
        self.io_complete(q, items, v, now, fx);
        if self.vcpus[vi].running {
            self.schedule_loop(v, now, fx);
            fx.push(GuestEffect::Replan(v));
        }
    }

    /// Adds `items` to an I/O queue and wakes waiters (one item each).
    pub fn io_complete(
        &mut self,
        q: IoQueueId,
        items: u64,
        from: VcpuId,
        now: SimTime,
        fx: &mut Vec<GuestEffect>,
    ) {
        let queue = &mut self.io_queues[q.0];
        let mut accepted = items;
        if let Some(cap) = queue.capacity {
            let room = cap.saturating_sub(queue.backlog);
            if accepted > room {
                queue.drops += accepted - room;
                accepted = room;
            }
        }
        queue.backlog += accepted;
        while self.io_queues[q.0].backlog > 0 {
            let Some(tid) = self.io_queues[q.0].waiters.pop_front() else {
                break;
            };
            self.io_queues[q.0].backlog -= 1;
            self.wake_thread(tid, Some(from), now, fx);
        }
    }

    /// Current backlog of an I/O queue.
    pub fn io_backlog(&self, q: IoQueueId) -> u64 {
        self.io_queues[q.0].backlog
    }

    /// Picks the vCPU that should receive a device interrupt originally
    /// bound to `bound`: if `bound` is frozen or offline, redirect to the
    /// lowest-numbered active vCPU (vScale migrates interrupts when they
    /// occur).
    pub fn irq_target(&self, bound: VcpuId) -> (VcpuId, bool) {
        if self.vcpu_active(bound) {
            (bound, false)
        } else {
            let target = self
                .freeze_mask
                .active()
                .find(|&v| self.vcpus[v.index()].online)
                .unwrap_or(VcpuId(0));
            (target, true)
        }
    }

    // ------------------------------------------------------------------
    // Hotplug baseline support.
    // ------------------------------------------------------------------

    /// Stalls every vCPU until `until` (`stop_machine()`): time passes but
    /// nothing progresses.
    pub fn stall_all(&mut self, now: SimTime, until: SimTime, fx: &mut Vec<GuestEffect>) {
        for i in 0..self.vcpus.len() {
            self.advance(VcpuId(i), now);
            let vc = &mut self.vcpus[i];
            vc.stall_until = Some(match vc.stall_until {
                Some(s) => s.max(until),
                None => until,
            });
            if vc.running {
                fx.push(GuestEffect::Replan(VcpuId(i)));
            }
        }
    }

    /// Takes a vCPU offline (hotplug remove, after the stop_machine stall):
    /// migrates everything away like a freeze and marks it offline.
    pub fn set_online(&mut self, v: VcpuId, online: bool, now: SimTime, fx: &mut Vec<GuestEffect>) {
        self.vcpus[v.index()].online = online;
        if !online {
            // Reuse the freeze evacuation machinery.
            if self.freeze_mask.freeze(v) {
                self.vcpus[v.index()].evacuated = false;
                fx.push(GuestEffect::SetFrozen {
                    vcpu: v,
                    frozen: true,
                });
                fx.push(GuestEffect::KickVcpu(v));
            }
            let _ = now;
        } else if self.freeze_mask.unfreeze(v) {
            fx.push(GuestEffect::SetFrozen {
                vcpu: v,
                frozen: false,
            });
            fx.push(GuestEffect::KickVcpu(v));
        }
    }

    /// Whether `v` is online.
    pub fn is_online(&self, v: VcpuId) -> bool {
        self.vcpus[v.index()].online
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::thread::{OneShot, Script};
    use std::collections::BinaryHeap;

    /// A miniature machine: gives every vCPU its own pCPU (no overcommit)
    /// and routes effects synchronously. vCPUs that report idle are
    /// "blocked in the hypervisor" until an IPI/kick arrives.
    pub(crate) struct MiniHost {
        pub(crate) k: GuestKernel,
        pub(crate) now: SimTime,
        pub(crate) on_pcpu: Vec<bool>,
        sleeps: BinaryHeap<std::cmp::Reverse<(SimTime, usize)>>,
        pub(crate) exited: Vec<ThreadId>,
        nic: Vec<(ThreadId, u64)>,
        kwork_done: Vec<(VcpuId, u64)>,
        steps: u64,
    }

    impl MiniHost {
        pub(crate) fn new(k: GuestKernel) -> Self {
            let n = k.n_vcpus();
            MiniHost {
                k,
                now: SimTime::ZERO,
                on_pcpu: vec![false; n],
                sleeps: BinaryHeap::new(),
                exited: Vec::new(),
                nic: Vec::new(),
                kwork_done: Vec::new(),
                steps: 0,
            }
        }

        pub(crate) fn start_all(&mut self) {
            let mut fx = Vec::new();
            for i in 0..self.k.n_vcpus() {
                if !self.on_pcpu[i] {
                    self.on_pcpu[i] = true;
                    self.k.vcpu_start(VcpuId(i), self.now, &mut fx);
                }
            }
            self.route(fx);
        }

        pub(crate) fn route(&mut self, fx: Vec<GuestEffect>) {
            let mut queue: VecDeque<GuestEffect> = fx.into();
            while let Some(e) = queue.pop_front() {
                let mut out = Vec::new();
                match e {
                    GuestEffect::VcpuIdle(v) => {
                        if self.on_pcpu[v.index()] && self.k.wants_block(v) {
                            self.on_pcpu[v.index()] = false;
                            self.k.vcpu_stop(v, self.now);
                        }
                    }
                    GuestEffect::VcpuPvBlock(v) => {
                        if self.on_pcpu[v.index()] {
                            self.on_pcpu[v.index()] = false;
                            self.k.vcpu_stop(v, self.now);
                        }
                    }
                    GuestEffect::SendResched { to, .. } => {
                        if self.on_pcpu[to.index()] {
                            self.k.on_resched_ipi(to, self.now, &mut out);
                        } else {
                            self.k.pend_resched(to);
                            self.on_pcpu[to.index()] = true;
                            self.k.vcpu_start(to, self.now, &mut out);
                        }
                    }
                    GuestEffect::PvKick(v) | GuestEffect::KickVcpu(v) => {
                        if !self.on_pcpu[v.index()] {
                            self.on_pcpu[v.index()] = true;
                            self.k.vcpu_start(v, self.now, &mut out);
                        }
                    }
                    GuestEffect::SetFrozen { .. } => {}
                    GuestEffect::NicSend { tid, bytes } => self.nic.push((tid, bytes)),
                    GuestEffect::SleepUntil { tid, wake_at } => {
                        self.sleeps.push(std::cmp::Reverse((wake_at, tid.index())));
                    }
                    GuestEffect::ThreadExited(t) => self.exited.push(t),
                    GuestEffect::KernelWorkDone { vcpu, tag } => {
                        self.kwork_done.push((vcpu, tag));
                    }
                    GuestEffect::Replan(_) => {}
                }
                queue.extend(out);
            }
        }

        /// Runs until all threads exit or `limit` is reached.
        pub(crate) fn run_until(&mut self, limit: SimTime) {
            loop {
                self.steps += 1;
                assert!(self.steps < 5_000_000, "runaway simulation");
                // Earliest plan point across running vCPUs.
                let mut next: Option<(SimTime, usize)> = None;
                for i in 0..self.k.n_vcpus() {
                    if !self.on_pcpu[i] {
                        continue;
                    }
                    if let Some(t) = self.k.next_plan(VcpuId(i), self.now) {
                        if next.map(|(bt, _)| t < bt).unwrap_or(true) {
                            next = Some((t, i));
                        }
                    }
                }
                // Earliest sleep wake.
                let sleep_t = self.sleeps.peek().map(|r| r.0 .0);
                let t = match (next.map(|(t, _)| t), sleep_t) {
                    (Some(a), Some(b)) => a.min(b),
                    (Some(a), None) => a,
                    (None, Some(b)) => b,
                    (None, None) => return, // Fully idle.
                };
                if t > limit {
                    return;
                }
                self.now = self.now.max(t);
                if sleep_t == Some(t) {
                    let std::cmp::Reverse((_, tidx)) = self.sleeps.pop().expect("peeked");
                    let mut fx = Vec::new();
                    self.k.wake_thread(ThreadId(tidx), None, self.now, &mut fx);
                    self.route(fx);
                } else if let Some((_, vi)) = next {
                    let mut fx = Vec::new();
                    self.k.on_plan_point(VcpuId(vi), self.now, &mut fx);
                    self.route(fx);
                }
                if self.k.n_threads() > 0 && self.k.all_exited() {
                    return;
                }
            }
        }
    }

    fn ctx_kernel(n_vcpus: usize) -> GuestKernel {
        GuestKernel::new(GuestConfig::new(n_vcpus))
    }

    #[test]
    fn single_thread_computes_and_exits() {
        let mut k = ctx_kernel(1);
        let t = k.spawn(
            ThreadKind::User,
            Box::new(OneShot::new(SimDuration::from_ms(5))),
        );
        let mut fx = Vec::new();
        k.start_thread(t, SimTime::ZERO, &mut fx);
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_secs(1));
        assert_eq!(h.exited, vec![t]);
        assert_eq!(h.k.thread_state(t), TState::Exited);
        // Runtime is the requested 5 ms (ticks/switches are kernel work).
        assert_eq!(h.k.thread_runtime(t), SimDuration::from_ms(5));
    }

    #[test]
    fn two_threads_share_one_vcpu_via_tick_preemption() {
        let mut k = ctx_kernel(1);
        let a = k.spawn(
            ThreadKind::User,
            Box::new(OneShot::new(SimDuration::from_ms(20))),
        );
        let b = k.spawn(
            ThreadKind::User,
            Box::new(OneShot::new(SimDuration::from_ms(20))),
        );
        let mut fx = Vec::new();
        k.start_thread(a, SimTime::ZERO, &mut fx);
        k.start_thread(b, SimTime::ZERO, &mut fx);
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_secs(1));
        assert_eq!(h.exited.len(), 2);
        assert!(h.k.stats().context_switches >= 2);
        // Both finished: total virtual time must exceed 40 ms of work.
        assert!(h.now >= SimTime::from_ms(40));
        assert!(h.k.timer_ints(VcpuId(0)) >= 40);
    }

    #[test]
    fn threads_spread_across_vcpus() {
        let mut k = ctx_kernel(2);
        let a = k.spawn(
            ThreadKind::User,
            Box::new(OneShot::new(SimDuration::from_ms(10))),
        );
        let b = k.spawn(
            ThreadKind::User,
            Box::new(OneShot::new(SimDuration::from_ms(10))),
        );
        let mut fx = Vec::new();
        k.start_thread(a, SimTime::ZERO, &mut fx);
        k.start_thread(b, SimTime::ZERO, &mut fx);
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_secs(1));
        // Perfect parallelism: done in ~10 ms + small overheads.
        assert!(h.now < SimTime::from_ms(12), "took {}", h.now);
    }

    #[test]
    fn barrier_with_infinite_spin_wastes_cpu_but_completes() {
        let mut k = ctx_kernel(2);
        let bar = k.sync.new_barrier(2, None); // ACTIVE: spin forever.
        let fast = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::Compute(SimDuration::from_ms(1)),
                ThreadAction::BarrierWait(bar),
            ])),
        );
        let slow = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::Compute(SimDuration::from_ms(5)),
                ThreadAction::BarrierWait(bar),
            ])),
        );
        let mut fx = Vec::new();
        k.start_thread(fast, SimTime::ZERO, &mut fx);
        k.start_thread(slow, SimTime::ZERO, &mut fx);
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_secs(1));
        assert_eq!(h.exited.len(), 2);
        // The fast thread spun ~4 ms waiting.
        assert!(
            h.k.spin_waste() >= SimDuration::from_ms(3),
            "spin waste {}",
            h.k.spin_waste()
        );
        assert_eq!(h.k.stats().futex_waits, 0, "ACTIVE policy never sleeps");
        // Release is noticed promptly (replan), not at the next tick.
        assert!(h.now < SimTime::from_ms(6), "took {}", h.now);
    }

    #[test]
    fn barrier_with_zero_spin_sleeps_and_wakes_via_ipi() {
        let mut k = ctx_kernel(2);
        let bar = k.sync.new_barrier(2, Some(SimDuration::ZERO)); // PASSIVE.
        let fast = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::Compute(SimDuration::from_ms(1)),
                ThreadAction::BarrierWait(bar),
            ])),
        );
        let slow = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::Compute(SimDuration::from_ms(5)),
                ThreadAction::BarrierWait(bar),
            ])),
        );
        let mut fx = Vec::new();
        k.start_thread(fast, SimTime::ZERO, &mut fx);
        k.start_thread(slow, SimTime::ZERO, &mut fx);
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_secs(1));
        assert_eq!(h.exited.len(), 2);
        assert!(h.k.stats().futex_waits >= 1);
        assert!(h.k.stats().futex_wakes >= 1);
        assert_eq!(h.k.spin_waste(), SimDuration::ZERO);
        // The sleeper's vCPU went idle and was woken by a resched IPI.
        let total_ipis: u64 = (0..2).map(|i| h.k.resched_ipis(VcpuId(i))).sum();
        assert!(total_ipis >= 1, "wake must travel by IPI");
    }

    #[test]
    fn mutex_contention_serializes_critical_sections() {
        let mut k = ctx_kernel(2);
        let m = k.sync.new_mutex();
        let mk = |m| {
            Box::new(Script::new(vec![
                ThreadAction::MutexLock(m),
                ThreadAction::Compute(SimDuration::from_ms(2)),
                ThreadAction::MutexUnlock(m),
            ]))
        };
        let a = k.spawn(ThreadKind::User, mk(m));
        let b = k.spawn(ThreadKind::User, mk(m));
        let mut fx = Vec::new();
        k.start_thread(a, SimTime::ZERO, &mut fx);
        k.start_thread(b, SimTime::ZERO, &mut fx);
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_secs(1));
        assert_eq!(h.exited.len(), 2);
        // Serialized: at least 4 ms of critical sections.
        assert!(h.now >= SimTime::from_ms(4), "took {}", h.now);
        assert!(h.k.stats().futex_waits >= 1);
    }

    #[test]
    fn condvar_signal_wakes_waiter() {
        let mut k = ctx_kernel(2);
        let m = k.sync.new_mutex();
        let c = k.sync.new_condvar();
        let waiter = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::MutexLock(m),
                ThreadAction::CondWait(c, m),
                ThreadAction::MutexUnlock(m),
                ThreadAction::Compute(SimDuration::from_us(100)),
            ])),
        );
        let signaler = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::Compute(SimDuration::from_ms(2)),
                ThreadAction::MutexLock(m),
                ThreadAction::CondSignal(c),
                ThreadAction::MutexUnlock(m),
            ])),
        );
        let mut fx = Vec::new();
        k.start_thread(waiter, SimTime::ZERO, &mut fx);
        k.start_thread(signaler, SimTime::ZERO, &mut fx);
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_secs(1));
        assert_eq!(h.exited.len(), 2, "exited: {:?}", h.exited);
    }

    #[test]
    fn user_spinlock_lhp_wastes_waiter_cycles() {
        // Holder on vCPU0 takes the lock then its vCPU is "preempted";
        // the waiter on vCPU1 spins the whole time.
        let mut k = ctx_kernel(2);
        let s = k.sync.new_spinlock();
        let holder = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::UserSpinLock(s),
                ThreadAction::Compute(SimDuration::from_ms(1)),
                ThreadAction::UserSpinUnlock(s),
            ])),
        );
        let waiter = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::Compute(SimDuration::from_us(100)),
                ThreadAction::UserSpinLock(s),
                ThreadAction::UserSpinUnlock(s),
            ])),
        );
        let mut fx = Vec::new();
        k.start_thread(holder, SimTime::ZERO, &mut fx);
        k.start_thread(waiter, SimTime::ZERO, &mut fx);
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        // Let the holder acquire, then steal its pCPU for 20 ms.
        h.run_until(SimTime::from_us(500));
        let holder_vcpu = (0..2)
            .map(VcpuId)
            .find(|&v| h.k.current(v) == Some(holder))
            .expect("holder running");
        h.on_pcpu[holder_vcpu.index()] = false;
        h.k.vcpu_stop(holder_vcpu, h.now);
        h.run_until(SimTime::from_ms(20));
        // Waiter burned ~19+ ms spinning.
        assert!(
            h.k.spin_waste() >= SimDuration::from_ms(15),
            "spin waste {}",
            h.k.spin_waste()
        );
        // Give the pCPU back: everything completes.
        let mut fx = Vec::new();
        h.on_pcpu[holder_vcpu.index()] = true;
        h.k.vcpu_start(holder_vcpu, h.now, &mut fx);
        h.route(fx);
        h.run_until(SimTime::from_secs(1));
        assert_eq!(h.exited.len(), 2);
    }

    #[test]
    fn kernel_lock_pv_yields_and_gets_kicked() {
        let mut k = GuestKernel::new(GuestConfig::new(2).with_pv_spinlock());
        let l = k.klocks.alloc();
        let a = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![ThreadAction::KernelOp {
                lock: l,
                hold: SimDuration::from_ms(2),
            }])),
        );
        let b = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::Compute(SimDuration::from_us(50)),
                ThreadAction::KernelOp {
                    lock: l,
                    hold: SimDuration::from_us(10),
                },
            ])),
        );
        let mut fx = Vec::new();
        k.start_thread(a, SimTime::ZERO, &mut fx);
        k.start_thread(b, SimTime::ZERO, &mut fx);
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_secs(1));
        assert_eq!(h.exited.len(), 2);
        // The contender yielded instead of spinning 2 ms.
        assert_eq!(h.k.stats().pv_yields, 1);
        assert!(
            h.k.spin_waste() < SimDuration::from_us(50),
            "pv should cap spinning, waste {}",
            h.k.spin_waste()
        );
    }

    #[test]
    fn kernel_lock_plain_ticket_spins_through_contention() {
        let mut k = ctx_kernel(2);
        let l = k.klocks.alloc();
        let a = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![ThreadAction::KernelOp {
                lock: l,
                hold: SimDuration::from_ms(2),
            }])),
        );
        let b = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::Compute(SimDuration::from_us(50)),
                ThreadAction::KernelOp {
                    lock: l,
                    hold: SimDuration::from_us(10),
                },
            ])),
        );
        let mut fx = Vec::new();
        k.start_thread(a, SimTime::ZERO, &mut fx);
        k.start_thread(b, SimTime::ZERO, &mut fx);
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_secs(1));
        assert_eq!(h.exited.len(), 2);
        assert_eq!(h.k.stats().pv_yields, 0);
        assert!(h.k.spin_waste() >= SimDuration::from_ms(1));
    }

    #[test]
    fn freeze_evacuates_threads_and_vcpu_goes_idle() {
        let mut k = ctx_kernel(2);
        let mk = || Box::new(OneShot::new(SimDuration::from_ms(50)));
        let mut tids = Vec::new();
        for _ in 0..4 {
            tids.push(k.spawn(ThreadKind::User, mk()));
        }
        let mut fx = Vec::new();
        for &t in &tids {
            k.start_thread(t, SimTime::ZERO, &mut fx);
        }
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_ms(5));
        assert!(h.k.load(VcpuId(1)) >= 1, "vcpu1 should have work");
        // Freeze vCPU1 (master side).
        let mut fx = Vec::new();
        assert!(h.k.freeze_vcpu(VcpuId(1), h.now, &mut fx));
        h.route(fx);
        h.run_until(SimTime::from_ms(8));
        // All work on vCPU0 now; vCPU1 idle and off pCPU.
        assert_eq!(h.k.load(VcpuId(1)), 0);
        assert!(!h.on_pcpu[1], "frozen vCPU must be idle-blocked");
        assert!(h.k.stats().thread_migrations >= 1);
        assert_eq!(h.k.active_vcpus(), 1);
        // Unfreeze: work spreads back via idle pull.
        let mut fx = Vec::new();
        assert!(h.k.unfreeze_vcpu(VcpuId(1), h.now, &mut fx));
        h.route(fx);
        h.run_until(SimTime::from_secs(2));
        assert_eq!(h.exited.len(), 4);
        assert_eq!(h.k.active_vcpus(), 2);
    }

    #[test]
    fn frozen_vcpu_is_never_picked_for_wakeups() {
        let mut k = ctx_kernel(4);
        let mut fx = Vec::new();
        k.freeze_vcpu(VcpuId(3), SimTime::ZERO, &mut fx);
        let t = k.spawn(
            ThreadKind::User,
            Box::new(OneShot::new(SimDuration::from_ms(1))),
        );
        // last_vcpu of tid0 is vcpu0 anyway; force many spawns and check
        // none land on vcpu3.
        let mut more = Vec::new();
        for _ in 0..8 {
            more.push(k.spawn(
                ThreadKind::User,
                Box::new(OneShot::new(SimDuration::from_ms(1))),
            ));
        }
        k.start_thread(t, SimTime::ZERO, &mut fx);
        for &m in &more {
            k.start_thread(m, SimTime::ZERO, &mut fx);
        }
        assert_eq!(k.load(VcpuId(3)), 0, "frozen vCPU got work");
        let _ = fx;
    }

    #[test]
    fn io_wait_and_irq_delivery() {
        let mut k = ctx_kernel(2);
        let q = k.new_io_queue();
        let worker = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::IoWait(q),
                ThreadAction::Compute(SimDuration::from_us(200)),
                ThreadAction::NicSend { bytes: 16_384 },
            ])),
        );
        let mut fx = Vec::new();
        k.start_thread(worker, SimTime::ZERO, &mut fx);
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_ms(1));
        assert!(matches!(
            h.k.thread_state(worker),
            TState::Blocked(BlockReason::Io(_))
        ));
        // Deliver a request interrupt on vCPU0.
        let mut fx = Vec::new();
        if !h.on_pcpu[0] {
            h.on_pcpu[0] = true;
            h.k.vcpu_start(VcpuId(0), h.now, &mut fx);
        }
        h.k.deliver_io_irq(VcpuId(0), q, 1, h.now, &mut fx);
        h.route(fx);
        h.run_until(SimTime::from_secs(1));
        assert_eq!(h.exited.len(), 1);
        assert_eq!(h.nic, vec![(worker, 16_384)]);
        assert_eq!(h.k.io_irqs(VcpuId(0)), 1);
    }

    #[test]
    fn irq_target_redirects_away_from_frozen_vcpu() {
        let mut k = ctx_kernel(4);
        assert_eq!(k.irq_target(VcpuId(3)), (VcpuId(3), false));
        let mut fx = Vec::new();
        k.freeze_vcpu(VcpuId(3), SimTime::ZERO, &mut fx);
        let (target, redirected) = k.irq_target(VcpuId(3));
        assert!(redirected);
        assert_ne!(target, VcpuId(3));
    }

    #[test]
    fn sleep_blocks_and_timer_wakes() {
        let mut k = ctx_kernel(1);
        let t = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::Sleep(SimDuration::from_ms(10)),
                ThreadAction::Compute(SimDuration::from_us(100)),
            ])),
        );
        let mut fx = Vec::new();
        k.start_thread(t, SimTime::ZERO, &mut fx);
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_secs(1));
        assert_eq!(h.exited.len(), 1);
        assert!(h.now >= SimTime::from_ms(10));
        assert!(h.now < SimTime::from_ms(11));
    }

    #[test]
    fn dynticks_idle_vcpu_receives_no_timer_interrupts() {
        let mut k = ctx_kernel(2);
        // Work only on vCPU0.
        let t = k.spawn(
            ThreadKind::User,
            Box::new(OneShot::new(SimDuration::from_ms(20))),
        );
        let mut fx = Vec::new();
        k.start_thread(t, SimTime::ZERO, &mut fx);
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_secs(1));
        assert!(h.k.timer_ints(VcpuId(0)) >= 19);
        assert_eq!(
            h.k.timer_ints(VcpuId(1)),
            0,
            "idle vCPU must not tick (dynticks)"
        );
    }

    #[test]
    fn kernel_work_tags_complete() {
        let mut k = ctx_kernel(1);
        k.push_kwork(VcpuId(0), SimTime::ZERO, SimDuration::from_us(3), Some(42));
        let mut h = MiniHost::new(k);
        h.start_all();
        h.run_until(SimTime::from_ms(1));
        assert_eq!(h.kwork_done, vec![(VcpuId(0), 42)]);
    }

    #[test]
    fn stop_machine_stalls_progress() {
        let mut k = ctx_kernel(1);
        let t = k.spawn(
            ThreadKind::User,
            Box::new(OneShot::new(SimDuration::from_ms(5))),
        );
        let mut fx = Vec::new();
        k.start_thread(t, SimTime::ZERO, &mut fx);
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_ms(1));
        // Stall everything for 50 ms.
        let mut fx = Vec::new();
        h.k.stall_all(h.now, h.now + SimDuration::from_ms(50), &mut fx);
        h.route(fx);
        h.run_until(SimTime::from_secs(1));
        assert_eq!(h.exited.len(), 1);
        assert!(
            h.now >= SimTime::from_ms(54),
            "stall must delay completion: finished at {}",
            h.now
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut k = ctx_kernel(2);
            let bar = k.sync.new_barrier(3, Some(SimDuration::from_us(100)));
            let mut fx = Vec::new();
            for i in 0..3u64 {
                let t = k.spawn(
                    ThreadKind::User,
                    Box::new(Script::new(vec![
                        ThreadAction::Compute(SimDuration::from_us(300 + 100 * i)),
                        ThreadAction::BarrierWait(bar),
                        ThreadAction::Compute(SimDuration::from_us(200)),
                    ])),
                );
                k.start_thread(t, SimTime::ZERO, &mut fx);
            }
            let mut h = MiniHost::new(k);
            h.route(fx);
            h.start_all();
            h.run_until(SimTime::from_secs(1));
            (h.now, h.k.stats().context_switches, h.k.spin_waste())
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod behaviour_tests {
    use super::tests::MiniHost;
    use super::*;
    use crate::thread::{Script, ThreadAction};

    fn ctx_kernel(n: usize) -> GuestKernel {
        GuestKernel::new(GuestConfig::new(n))
    }

    #[test]
    fn cond_broadcast_wakes_all_waiters() {
        let mut k = ctx_kernel(2);
        let m = k.sync.new_mutex();
        let c = k.sync.new_condvar();
        let mut tids = Vec::new();
        for _ in 0..3 {
            tids.push(k.spawn(
                ThreadKind::User,
                Box::new(Script::new(vec![
                    ThreadAction::MutexLock(m),
                    ThreadAction::CondWait(c, m),
                    ThreadAction::MutexUnlock(m),
                    ThreadAction::Compute(SimDuration::from_us(50)),
                ])),
            ));
        }
        let broadcaster = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::Compute(SimDuration::from_ms(3)),
                ThreadAction::MutexLock(m),
                ThreadAction::CondBroadcast(c),
                ThreadAction::MutexUnlock(m),
            ])),
        );
        let mut fx = Vec::new();
        for &t in tids.iter().chain(std::iter::once(&broadcaster)) {
            k.start_thread(t, SimTime::ZERO, &mut fx);
        }
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_secs(1));
        assert_eq!(h.exited.len(), 4, "broadcast must release every waiter");
    }

    #[test]
    fn per_cpu_kthread_survives_freeze_in_place() {
        let mut k = ctx_kernel(2);
        // A per-CPU kthread bound to vCPU1 with pending work.
        let kt = k.spawn(
            ThreadKind::KthreadPerCpu(VcpuId(1)),
            Box::new(Script::new(vec![ThreadAction::Compute(
                SimDuration::from_ms(2),
            )])),
        );
        let user = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![ThreadAction::Compute(
                SimDuration::from_ms(5),
            )])),
        );
        let mut fx = Vec::new();
        k.start_thread(user, SimTime::ZERO, &mut fx);
        // Place the kthread on its home vCPU directly.
        k.wake_thread(kt, None, SimTime::ZERO, &mut fx);
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_us(200));
        // Freeze vCPU1: the user thread (wherever it is) migrates, but the
        // per-CPU kthread must stay and still complete locally.
        let mut fx = Vec::new();
        h.k.freeze_vcpu(VcpuId(1), h.now, &mut fx);
        h.route(fx);
        h.run_until(SimTime::from_secs(1));
        assert_eq!(h.exited.len(), 2, "both threads finish");
        assert!(
            h.k.thread_runtime(kt) >= SimDuration::from_ms(2),
            "kthread ran its work"
        );
    }

    #[test]
    fn yield_round_robins_three_threads() {
        let mut k = ctx_kernel(1);
        let mut tids = Vec::new();
        for _ in 0..3 {
            tids.push(k.spawn(
                ThreadKind::User,
                Box::new(Script::new(vec![
                    ThreadAction::Compute(SimDuration::from_us(100)),
                    ThreadAction::Yield,
                    ThreadAction::Compute(SimDuration::from_us(100)),
                    ThreadAction::Yield,
                    ThreadAction::Compute(SimDuration::from_us(100)),
                ])),
            ));
        }
        let mut fx = Vec::new();
        for &t in &tids {
            k.start_thread(t, SimTime::ZERO, &mut fx);
        }
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_secs(1));
        assert_eq!(h.exited.len(), 3);
        // All three interleaved on one vCPU: context switches well above
        // the minimum 3.
        assert!(h.k.stats().context_switches >= 8);
    }

    #[test]
    fn spinlock_handoff_to_descheduled_thread_blocks_later_arrivals() {
        // Ticket-lock pathology: the lock passes to a thread whose vCPU is
        // off-pCPU; a later arrival spins behind it.
        let mut k = ctx_kernel(3);
        let s = k.sync.new_spinlock();
        let holder = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::UserSpinLock(s),
                ThreadAction::Compute(SimDuration::from_ms(1)),
                ThreadAction::UserSpinUnlock(s),
            ])),
        );
        let waiter1 = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::Compute(SimDuration::from_us(100)),
                ThreadAction::UserSpinLock(s),
                ThreadAction::Compute(SimDuration::from_us(100)),
                ThreadAction::UserSpinUnlock(s),
            ])),
        );
        let waiter2 = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![
                ThreadAction::Compute(SimDuration::from_us(200)),
                ThreadAction::UserSpinLock(s),
                ThreadAction::UserSpinUnlock(s),
            ])),
        );
        let mut fx = Vec::new();
        for &t in &[holder, waiter1, waiter2] {
            k.start_thread(t, SimTime::ZERO, &mut fx);
        }
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_us(500));
        // Deschedule waiter1's vCPU before the holder releases.
        let w1_vcpu = (0..3)
            .map(VcpuId)
            .find(|&v| h.k.current(v) == Some(waiter1))
            .expect("waiter1 running somewhere");
        h.on_pcpu[w1_vcpu.index()] = false;
        h.k.vcpu_stop(w1_vcpu, h.now);
        // Run past the holder's release: the ticket goes to waiter1 (off
        // pCPU); waiter2 spins behind it.
        h.run_until(SimTime::from_ms(5));
        assert_eq!(h.exited.len(), 1, "only the holder finished");
        assert!(
            h.k.spin_waste() >= SimDuration::from_ms(3),
            "waiter2 burned CPU behind the descheduled ticket holder: {}",
            h.k.spin_waste()
        );
        // Restore the vCPU: the chain unblocks.
        let mut fx = Vec::new();
        h.on_pcpu[w1_vcpu.index()] = true;
        h.k.vcpu_start(w1_vcpu, h.now, &mut fx);
        h.route(fx);
        h.run_until(SimTime::from_secs(1));
        assert_eq!(h.exited.len(), 3);
    }

    #[test]
    fn io_queue_capacity_drops_and_counts() {
        let mut k = ctx_kernel(1);
        let q = k.new_io_queue();
        k.set_io_queue_capacity(q, 4);
        let mut fx = Vec::new();
        k.io_complete(q, 10, VcpuId(0), SimTime::ZERO, &mut fx);
        assert_eq!(k.io_backlog(q), 4);
        assert_eq!(k.io_drops(q), 6);
        // Backlog drains into later waiters; capacity applies to backlog,
        // not waiters.
        k.io_complete(q, 1, VcpuId(0), SimTime::ZERO, &mut fx);
        assert_eq!(k.io_drops(q), 7);
    }

    #[test]
    fn stall_all_defers_every_vcpu_uniformly() {
        let mut k = ctx_kernel(2);
        let a = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![ThreadAction::Compute(
                SimDuration::from_ms(2),
            )])),
        );
        let b = k.spawn(
            ThreadKind::User,
            Box::new(Script::new(vec![ThreadAction::Compute(
                SimDuration::from_ms(2),
            )])),
        );
        let mut fx = Vec::new();
        k.start_thread(a, SimTime::ZERO, &mut fx);
        k.start_thread(b, SimTime::ZERO, &mut fx);
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_us(500));
        let mut fx = Vec::new();
        h.k.stall_all(h.now, h.now + SimDuration::from_ms(20), &mut fx);
        h.route(fx);
        h.run_until(SimTime::from_secs(1));
        assert_eq!(h.exited.len(), 2);
        assert!(
            h.now >= SimTime::from_ms(21),
            "stop_machine must delay both vCPUs: ended {}",
            h.now
        );
    }

    #[test]
    fn looping_program_runs_until_stopped() {
        let mut k = ctx_kernel(1);
        let mut remaining = 5u32;
        let t = k.spawn(
            ThreadKind::User,
            Box::new(crate::thread::Looping::new("counter", move |_ctx| {
                if remaining == 0 {
                    ThreadAction::Exit
                } else {
                    remaining -= 1;
                    ThreadAction::Compute(SimDuration::from_us(100))
                }
            })),
        );
        let mut fx = Vec::new();
        k.start_thread(t, SimTime::ZERO, &mut fx);
        let mut h = MiniHost::new(k);
        h.route(fx);
        h.start_all();
        h.run_until(SimTime::from_secs(1));
        assert_eq!(h.exited.len(), 1);
        assert!(h.k.thread_runtime(t) >= SimDuration::from_us(500));
    }
}
