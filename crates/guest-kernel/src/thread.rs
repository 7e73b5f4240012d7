//! Threads, schedulable-entity taxonomy, and the workload program interface.
//!
//! The paper's Figure 3 classifies Linux's schedulable entities into
//! migratable and non-migratable ones; [`ThreadKind`] mirrors that taxonomy.
//! Application behaviour is supplied by implementations of
//! [`ThreadProgram`]: a thread is a state machine that, each time its
//! previous action completes, asks its program for the next
//! [`ThreadAction`]. The guest kernel executes actions — computing,
//! synchronizing, blocking — and charges their costs in virtual time.

use sim_core::ids::{ThreadId, VcpuId};
use sim_core::snap::{Snap, SnapReader, SnapWriter};
use sim_core::time::{SimDuration, SimTime};

/// Identifier of a user-level barrier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct BarrierId(pub usize);

sim_core::snap_struct!(BarrierId(index));

/// Identifier of a user-level (futex-backed) mutex.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct MutexId(pub usize);

sim_core::snap_struct!(MutexId(index));

/// Identifier of a user-level condition variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct CondId(pub usize);

sim_core::snap_struct!(CondId(index));

/// Identifier of a user-level pure-busy-wait spinlock.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct SpinId(pub usize);

sim_core::snap_struct!(SpinId(index));

/// Identifier of a counting semaphore.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct SemId(pub usize);

sim_core::snap_struct!(SemId(index));

/// Identifier of a kernel spinlock (futex hash bucket, mm semaphore, ...).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct KLockId(pub usize);

sim_core::snap_struct!(KLockId(index));

/// Identifier of an I/O wait queue (e.g. a listening socket's accept queue).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct IoQueueId(pub usize);

sim_core::snap_struct!(IoQueueId(index));

/// The taxonomy of schedulable entities from Figure 3 of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThreadKind {
    /// A user-level thread: encapsulates application work; migratable.
    User,
    /// A system-wide kernel thread (`rcu_sched`, `kauditd`, ext4 daemons):
    /// serves the whole OS; migratable.
    KthreadGlobal,
    /// A per-CPU kernel thread (`ksoftirqd`, `kworker`, `swapper`):
    /// statically bound to one vCPU; **not** migratable — vScale leaves
    /// them in place and they quiesce when their vCPU has no work.
    KthreadPerCpu(VcpuId),
}

impl ThreadKind {
    /// Whether vScale's balancer may move this entity to another vCPU.
    pub fn migratable(self) -> bool {
        !matches!(self, ThreadKind::KthreadPerCpu(_))
    }
}

/// One step of application behaviour, returned by a [`ThreadProgram`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ThreadAction {
    /// Burn CPU for the given duration.
    Compute(SimDuration),
    /// Arrive at a barrier and wait for all participants (spin-then-futex
    /// per the barrier's configured spin budget — GOMP_SPINCOUNT
    /// semantics).
    BarrierWait(BarrierId),
    /// Acquire a futex-backed mutex (sleeps if contended).
    MutexLock(MutexId),
    /// Release a futex-backed mutex (hands off to the first waiter).
    MutexUnlock(MutexId),
    /// Atomically release the mutex and wait on the condition variable;
    /// re-acquires the mutex before continuing (pthread semantics).
    CondWait(CondId, MutexId),
    /// Wake one waiter of the condition variable (it is re-queued onto the
    /// mutex, as `futex_requeue` does).
    CondSignal(CondId),
    /// Wake all waiters of the condition variable.
    CondBroadcast(CondId),
    /// Acquire a pure user-space busy-wait lock (lu's ad-hoc sync; OpenMP
    /// ACTIVE-policy critical sections). Never blocks — only spins.
    UserSpinLock(SpinId),
    /// Release a pure user-space busy-wait lock.
    UserSpinUnlock(SpinId),
    /// Down a counting semaphore (blocks at zero).
    SemWait(SemId),
    /// Up a counting semaphore (wakes one waiter).
    SemPost(SemId),
    /// Enter the kernel and hold a kernel spinlock for `hold` — the
    /// critical sections whose preemption causes kernel-level LHP, which
    /// pv-spinlock mitigates.
    KernelOp {
        /// The lock taken.
        lock: KLockId,
        /// Time spent in the critical section.
        hold: SimDuration,
    },
    /// Block until one item is available on the I/O queue (e.g. an
    /// accepted connection).
    IoWait(IoQueueId),
    /// Hand `bytes` to the virtual NIC for transmission (non-blocking;
    /// serialization happens at the NIC).
    NicSend {
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Sleep for the given duration (timer-based wakeup).
    Sleep(SimDuration),
    /// Voluntarily yield the CPU to the next runnable thread.
    Yield,
    /// Terminate the thread.
    #[default]
    Exit,
}

// Snapshotted inside pending scripts.
sim_core::snap_enum!(ThreadAction {
    0 => Compute(d),
    1 => BarrierWait(b),
    2 => MutexLock(m),
    3 => MutexUnlock(m),
    4 => CondWait(c, m),
    5 => CondSignal(c),
    6 => CondBroadcast(c),
    7 => UserSpinLock(l),
    8 => UserSpinUnlock(l),
    9 => SemWait(s),
    10 => SemPost(s),
    11 => KernelOp { lock, hold },
    12 => IoWait(q),
    13 => NicSend { bytes },
    14 => Sleep(d),
    15 => Yield,
    16 => Exit,
});

/// Context handed to a program when asking for its next action.
#[derive(Clone, Copy, Debug)]
pub struct ProgramCtx {
    /// The asking thread.
    pub tid: ThreadId,
    /// Current simulated time.
    pub now: SimTime,
    /// The vCPU the thread currently runs on.
    pub vcpu: VcpuId,
    /// The VM's current *effective parallelism*: its active (unfrozen,
    /// online) vCPU count. This is the paper's §7 future-work interface —
    /// letting applications see the VM's real computing power so they can
    /// size their own work distribution.
    pub active_vcpus: usize,
}

/// A workload behaviour: a deterministic generator of [`ThreadAction`]s.
///
/// Programs own whatever state (and RNG) they need; the kernel calls
/// [`ThreadProgram::next`] exactly once per completed action.
///
/// The [`Snap`] supertrait carries the program's mutable state (RNG,
/// progress counters, phase) through checkpoints; configuration and the
/// ids of the sync objects it uses are structural. There is no default:
/// a program states its field list or it does not build.
///
/// `Send` is required so whole machines (which box their programs) can
/// be stepped from worker threads — the cluster layer advances disjoint
/// hosts in parallel within each lockstep epoch.
pub trait ThreadProgram: Snap + Send {
    /// Produces the thread's next action.
    fn next(&mut self, ctx: ProgramCtx) -> ThreadAction;

    /// A short label for traces and debugging.
    fn label(&self) -> &str {
        "thread"
    }
}

/// A trivial program that computes once and exits — useful in tests.
#[derive(Clone, Debug)]
pub struct OneShot {
    work: Option<SimDuration>,
}

impl OneShot {
    /// Creates a program that computes for `work` then exits.
    pub fn new(work: SimDuration) -> Self {
        OneShot { work: Some(work) }
    }
}

impl ThreadProgram for OneShot {
    fn next(&mut self, _ctx: ProgramCtx) -> ThreadAction {
        match self.work.take() {
            Some(w) => ThreadAction::Compute(w),
            None => ThreadAction::Exit,
        }
    }

    fn label(&self) -> &str {
        "oneshot"
    }
}

sim_core::snap_struct!(OneShot { work });

/// A program built from a fixed script of actions — the main test fixture.
#[derive(Debug)]
pub struct Script {
    /// The actions not yet played.
    actions: std::collections::VecDeque<ThreadAction>,
}

impl Script {
    /// Creates a program that plays `actions` in order, then exits.
    pub fn new(actions: Vec<ThreadAction>) -> Self {
        Script {
            actions: actions.into(),
        }
    }
}

impl ThreadProgram for Script {
    fn next(&mut self, _ctx: ProgramCtx) -> ThreadAction {
        self.actions.pop_front().unwrap_or(ThreadAction::Exit)
    }

    fn label(&self) -> &str {
        "script"
    }
}

sim_core::snap_struct!(Script { actions });

/// A program that repeats a closure-provided action sequence forever.
pub struct Looping<F>
where
    F: FnMut(ProgramCtx) -> ThreadAction + Send,
{
    f: F,
    label: &'static str,
}

impl<F> Looping<F>
where
    F: FnMut(ProgramCtx) -> ThreadAction + Send,
{
    /// Creates a program that delegates every step to `f`.
    pub fn new(label: &'static str, f: F) -> Self {
        Looping { f, label }
    }
}

impl<F> ThreadProgram for Looping<F>
where
    F: FnMut(ProgramCtx) -> ThreadAction + Send,
{
    fn next(&mut self, ctx: ProgramCtx) -> ThreadAction {
        (self.f)(ctx)
    }

    fn label(&self) -> &str {
        self.label
    }
}

/// Closure state cannot be serialized: checkpoint refuses a VM running a
/// [`Looping`] program instead of silently snapshotting it wrong.
impl<F> Snap for Looping<F>
where
    F: FnMut(ProgramCtx) -> ThreadAction + Send,
{
    fn save(&self, _w: &mut SnapWriter) {
        panic!(
            "checkpoint unsupported: program \"{}\" cannot snapshot",
            self.label
        )
    }

    fn load(&mut self, _r: &mut SnapReader<'_>) {
        panic!(
            "checkpoint unsupported: program \"{}\" cannot snapshot",
            self.label
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_migratability_matches_figure3() {
        assert!(ThreadKind::User.migratable());
        assert!(ThreadKind::KthreadGlobal.migratable());
        assert!(!ThreadKind::KthreadPerCpu(VcpuId(0)).migratable());
    }

    #[test]
    fn oneshot_computes_then_exits() {
        let mut p = OneShot::new(SimDuration::from_ms(5));
        let ctx = ProgramCtx {
            tid: ThreadId(0),
            now: SimTime::ZERO,
            vcpu: VcpuId(0),
            active_vcpus: 1,
        };
        assert_eq!(p.next(ctx), ThreadAction::Compute(SimDuration::from_ms(5)));
        assert_eq!(p.next(ctx), ThreadAction::Exit);
        assert_eq!(p.next(ctx), ThreadAction::Exit);
    }

    #[test]
    #[should_panic(expected = "checkpoint unsupported")]
    fn looping_programs_refuse_to_snapshot() {
        let p = Looping::new("loop", |_| ThreadAction::Yield);
        p.save(&mut SnapWriter::new());
    }

    #[test]
    fn script_snapshots_the_actions_not_yet_played() {
        let ctx = ProgramCtx {
            tid: ThreadId(0),
            now: SimTime::ZERO,
            vcpu: VcpuId(0),
            active_vcpus: 1,
        };
        let mut p = Script::new(vec![
            ThreadAction::Yield,
            ThreadAction::Sleep(SimDuration::from_us(3)),
        ]);
        p.next(ctx);
        let mut w = SnapWriter::new();
        p.save(&mut w);
        let img = w.finish();
        let mut twin = Script::new(vec![]);
        twin.load(&mut SnapReader::open(&img).expect("header"));
        assert_eq!(twin.next(ctx), ThreadAction::Sleep(SimDuration::from_us(3)));
        assert_eq!(twin.next(ctx), ThreadAction::Exit);
    }

    #[test]
    fn script_plays_in_order_then_exits() {
        let mut p = Script::new(vec![
            ThreadAction::Compute(SimDuration::from_us(1)),
            ThreadAction::Yield,
        ]);
        let ctx = ProgramCtx {
            tid: ThreadId(1),
            now: SimTime::ZERO,
            vcpu: VcpuId(0),
            active_vcpus: 1,
        };
        assert_eq!(p.next(ctx), ThreadAction::Compute(SimDuration::from_us(1)));
        assert_eq!(p.next(ctx), ThreadAction::Yield);
        assert_eq!(p.next(ctx), ThreadAction::Exit);
    }
}
