//! User-level synchronization objects.
//!
//! Everything here reduces to two waiting styles, matching the paper's
//! Figure 1 taxonomy:
//!
//! - **busy-waiting** — the waiter keeps its vCPU and burns cycles until a
//!   condition flips (OpenMP ACTIVE barriers, lu's ad-hoc spin locks);
//! - **blocking** — the waiter parks in the kernel (futex) and is woken by
//!   a reschedule IPI to whatever vCPU the kernel picked for it (pthread
//!   mutex/condvar, OpenMP PASSIVE barriers).
//!
//! OpenMP's `GOMP_SPINCOUNT` lives here as a per-barrier *spin budget*: a
//! waiter spins up to the budget and then falls back to a futex sleep, so
//! budget `None` models `ACTIVE` (30 billion iterations — effectively
//! forever), `Some(0)` models `PASSIVE`, and intermediate budgets model the
//! 300 K default.
//!
//! The structures are pure bookkeeping; the kernel
//! ([`crate::kernel::GuestKernel`]) interprets the returned wake lists,
//! charges futex syscall costs and emits IPIs.

use std::collections::VecDeque;

use sim_core::ids::ThreadId;
use sim_core::time::SimDuration;

use crate::thread::{BarrierId, CondId, MutexId, SemId, SpinId};

/// Result of arriving at a barrier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BarrierArrival {
    /// Not everyone is here: the arriving thread must wait (spin budget
    /// attached, `None` = spin forever).
    Wait {
        /// The spin budget before falling back to a futex sleep.
        spin_budget: Option<SimDuration>,
        /// The barrier generation the waiter is waiting out.
        generation: u64,
    },
    /// The arriving thread was the last: the barrier releases. The
    /// *blocked* threads (count attached) need futex wakes — the caller
    /// collects them with [`Barrier::drain_blocked`]; spinning waiters
    /// notice the generation bump on their own.
    Release {
        /// Number of futex-blocked waiters needing explicit wakes.
        n_blocked: usize,
    },
}

/// A reusable counting barrier with spin-then-futex waiters.
#[derive(Clone, Debug)]
pub struct Barrier {
    /// Number of participating threads.
    pub parties: usize,
    /// Spin budget applied to each waiter (GOMP_SPINCOUNT).
    pub spin_budget: Option<SimDuration>,
    arrived: usize,
    generation: u64,
    /// Waiters that exhausted their spin budget and went to sleep.
    blocked: Vec<ThreadId>,
}

impl Barrier {
    /// Creates a barrier for `parties` threads with the given spin budget.
    pub fn new(parties: usize, spin_budget: Option<SimDuration>) -> Self {
        assert!(parties > 0);
        Barrier {
            parties,
            spin_budget,
            arrived: 0,
            generation: 0,
            blocked: Vec::new(),
        }
    }

    /// The current generation (bumps on every release).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of threads currently arrived and waiting.
    pub fn arrived(&self) -> usize {
        self.arrived
    }

    /// A thread arrives. Spinning waiters are *not* tracked here — the
    /// kernel keeps them as running threads checking [`Barrier::generation`].
    pub fn arrive(&mut self, _tid: ThreadId) -> BarrierArrival {
        self.arrived += 1;
        if self.arrived >= self.parties {
            self.arrived = 0;
            self.generation += 1;
            BarrierArrival::Release {
                n_blocked: self.blocked.len(),
            }
        } else {
            BarrierArrival::Wait {
                spin_budget: self.spin_budget,
                generation: self.generation,
            }
        }
    }

    /// Moves the futex-blocked waiters of the releasing generation into
    /// `out` (in block order), leaving the barrier's own buffer — and its
    /// capacity — in place for the next generation. Steady-state barrier
    /// rounds therefore allocate nothing.
    pub fn drain_blocked(&mut self, out: &mut Vec<ThreadId>) {
        out.append(&mut self.blocked);
    }

    /// A spinning waiter exhausted its budget and blocks in the kernel.
    pub fn block(&mut self, tid: ThreadId) {
        self.blocked.push(tid);
    }

    /// Whether a waiter of `generation` has been released.
    pub fn released(&self, generation: u64) -> bool {
        self.generation > generation
    }
}

/// A futex-backed mutex with FIFO handoff (pthread fast mutex under
/// contention: `futex_wait` / `futex_wake`).
#[derive(Clone, Debug, Default)]
pub struct Mutex {
    owner: Option<ThreadId>,
    waiters: VecDeque<ThreadId>,
}

impl Mutex {
    /// Creates a free mutex.
    pub fn new() -> Self {
        Mutex::default()
    }

    /// The current owner.
    pub fn owner(&self) -> Option<ThreadId> {
        self.owner
    }

    /// Number of blocked waiters.
    pub fn waiter_count(&self) -> usize {
        self.waiters.len()
    }

    /// Attempts to acquire. Returns `true` on success; on failure the
    /// caller is queued and must block.
    pub fn lock(&mut self, tid: ThreadId) -> bool {
        if self.owner.is_none() {
            self.owner = Some(tid);
            true
        } else {
            self.waiters.push_back(tid);
            false
        }
    }

    /// Releases the mutex. If a waiter exists, ownership is handed to it
    /// and it is returned so the kernel can wake it.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not the owner — unlocking someone else's mutex
    /// is an application bug the simulator should surface loudly.
    pub fn unlock(&mut self, tid: ThreadId) -> Option<ThreadId> {
        assert_eq!(self.owner, Some(tid), "unlock by non-owner {tid}");
        match self.waiters.pop_front() {
            Some(next) => {
                self.owner = Some(next);
                Some(next)
            }
            None => {
                self.owner = None;
                None
            }
        }
    }

    /// Queues `tid` as a waiter without an acquire attempt (used by the
    /// condvar requeue path).
    pub fn enqueue_waiter(&mut self, tid: ThreadId) -> bool {
        if self.owner.is_none() {
            self.owner = Some(tid);
            true
        } else {
            self.waiters.push_back(tid);
            false
        }
    }
}

/// A condition variable: waiters park here and are requeued onto the mutex
/// on signal (Linux `futex_requeue` behaviour).
#[derive(Clone, Debug, Default)]
pub struct Condvar {
    waiters: VecDeque<ThreadId>,
}

impl Condvar {
    /// Creates an empty condvar.
    pub fn new() -> Self {
        Condvar::default()
    }

    /// Number of parked waiters.
    pub fn waiter_count(&self) -> usize {
        self.waiters.len()
    }

    /// Parks a waiter.
    pub fn wait(&mut self, tid: ThreadId) {
        self.waiters.push_back(tid);
    }

    /// Moves up to `n` waiters (in park order) into `out` for signalling.
    /// Drains into a caller-owned scratch buffer rather than returning a
    /// fresh `Vec` so the signal path stays allocation-free.
    pub fn drain_waiters(&mut self, n: usize, out: &mut Vec<ThreadId>) {
        let n = n.min(self.waiters.len());
        out.extend(self.waiters.drain(..n));
    }
}

/// A pure user-space busy-wait lock with ticket (FIFO) semantics.
///
/// Ticket locks make LHP maximally visible: if the next ticket holder's
/// vCPU is descheduled, every later spinner waits behind it — exactly the
/// pathology the paper's lu results exhibit.
#[derive(Clone, Debug, Default)]
pub struct UserSpinLock {
    owner: Option<ThreadId>,
    waiters: VecDeque<ThreadId>,
}

impl UserSpinLock {
    /// Creates a free lock.
    pub fn new() -> Self {
        UserSpinLock::default()
    }

    /// The current owner.
    pub fn owner(&self) -> Option<ThreadId> {
        self.owner
    }

    /// Number of spinning waiters.
    pub fn waiter_count(&self) -> usize {
        self.waiters.len()
    }

    /// Attempts to take the lock; queues the caller as a spinner on
    /// failure.
    pub fn lock(&mut self, tid: ThreadId) -> bool {
        if self.owner.is_none() && self.waiters.is_empty() {
            self.owner = Some(tid);
            true
        } else {
            self.waiters.push_back(tid);
            false
        }
    }

    /// Releases and hands off to the next ticket holder (who may be on a
    /// descheduled vCPU — it owns the lock anyway).
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not the owner.
    pub fn unlock(&mut self, tid: ThreadId) -> Option<ThreadId> {
        assert_eq!(self.owner, Some(tid), "spin unlock by non-owner {tid}");
        self.owner = self.waiters.pop_front();
        self.owner
    }

    /// Whether `tid` currently holds the lock (a spinner checks this to
    /// learn its ticket came up).
    pub fn held_by(&self, tid: ThreadId) -> bool {
        self.owner == Some(tid)
    }
}

/// A counting semaphore with blocking waiters (FIFO wake order).
#[derive(Clone, Debug, Default)]
pub struct Semaphore {
    count: u64,
    waiters: VecDeque<ThreadId>,
}

impl Semaphore {
    /// Creates a semaphore with the given initial count.
    pub fn new(count: u64) -> Self {
        Semaphore {
            count,
            waiters: VecDeque::new(),
        }
    }

    /// The current count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of blocked waiters.
    pub fn waiter_count(&self) -> usize {
        self.waiters.len()
    }

    /// Downs the semaphore; returns `true` if it succeeded immediately,
    /// `false` if the caller must block.
    pub fn wait(&mut self, tid: ThreadId) -> bool {
        if self.count > 0 {
            self.count -= 1;
            true
        } else {
            self.waiters.push_back(tid);
            false
        }
    }

    /// Ups the semaphore; returns a waiter to wake, if any.
    pub fn post(&mut self) -> Option<ThreadId> {
        match self.waiters.pop_front() {
            Some(t) => Some(t),
            None => {
                self.count += 1;
                None
            }
        }
    }
}

/// The table of all user-level sync objects in one guest.
#[derive(Default)]
pub struct SyncTable {
    /// Barriers by id.
    pub barriers: Vec<Barrier>,
    /// Mutexes by id.
    pub mutexes: Vec<Mutex>,
    /// Condvars by id.
    pub condvars: Vec<Condvar>,
    /// User spinlocks by id.
    pub spinlocks: Vec<UserSpinLock>,
    /// Semaphores by id.
    pub semaphores: Vec<Semaphore>,
}

impl SyncTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SyncTable::default()
    }

    /// Allocates a barrier.
    pub fn new_barrier(&mut self, parties: usize, spin_budget: Option<SimDuration>) -> BarrierId {
        self.barriers.push(Barrier::new(parties, spin_budget));
        BarrierId(self.barriers.len() - 1)
    }

    /// Allocates a mutex.
    pub fn new_mutex(&mut self) -> MutexId {
        self.mutexes.push(Mutex::new());
        MutexId(self.mutexes.len() - 1)
    }

    /// Allocates a condvar.
    pub fn new_condvar(&mut self) -> CondId {
        self.condvars.push(Condvar::new());
        CondId(self.condvars.len() - 1)
    }

    /// Allocates a user spinlock.
    pub fn new_spinlock(&mut self) -> SpinId {
        self.spinlocks.push(UserSpinLock::new());
        SpinId(self.spinlocks.len() - 1)
    }

    /// Allocates a semaphore.
    pub fn new_semaphore(&mut self, count: u64) -> SemId {
        self.semaphores.push(Semaphore::new(count));
        SemId(self.semaphores.len() - 1)
    }
}
sim_core::snap_struct!(Barrier {
    parties,
    spin_budget,
    arrived,
    generation,
    blocked,
});

sim_core::snap_struct!(Mutex { owner, waiters });

sim_core::snap_struct!(Condvar { waiters });

sim_core::snap_struct!(UserSpinLock { owner, waiters });

sim_core::snap_struct!(Semaphore { count, waiters });

// Every sync object's waiter/ownership state in index order. Object
// counts are structural (the restore twin creates the same objects).
sim_core::snap_struct!(SyncTable "sync" {
    barriers: twin "barrier count differs from twin",
    mutexes: twin "mutex count differs from twin",
    condvars: twin "condvar count differs from twin",
    spinlocks: twin "spinlock count differs from twin",
    semaphores: twin "semaphore count differs from twin",
});

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn barrier_releases_on_last_arrival() {
        let mut b = Barrier::new(3, Some(SimDuration::from_us(10)));
        assert!(matches!(b.arrive(t(0)), BarrierArrival::Wait { .. }));
        assert!(matches!(b.arrive(t(1)), BarrierArrival::Wait { .. }));
        // One waiter falls asleep.
        b.block(t(1));
        match b.arrive(t(2)) {
            BarrierArrival::Release { n_blocked } => assert_eq!(n_blocked, 1),
            other => panic!("expected release, got {other:?}"),
        }
        let mut wake = Vec::new();
        b.drain_blocked(&mut wake);
        assert_eq!(wake, vec![t(1)]);
        // The buffer's capacity survives the release for the next round.
        b.block(t(0));
        assert_eq!(b.generation(), 1);
        let mut again = Vec::new();
        b.drain_blocked(&mut again);
        assert_eq!(again, vec![t(0)]);
        assert!(b.released(0));
        assert!(!b.released(1));
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let mut b = Barrier::new(2, None);
        b.arrive(t(0));
        b.arrive(t(1));
        assert_eq!(b.generation(), 1);
        assert!(matches!(
            b.arrive(t(0)),
            BarrierArrival::Wait { generation: 1, .. }
        ));
        b.arrive(t(1));
        assert_eq!(b.generation(), 2);
    }

    #[test]
    fn mutex_fifo_handoff() {
        let mut m = Mutex::new();
        assert!(m.lock(t(0)));
        assert!(!m.lock(t(1)));
        assert!(!m.lock(t(2)));
        assert_eq!(m.unlock(t(0)), Some(t(1)));
        assert_eq!(m.owner(), Some(t(1)));
        assert_eq!(m.unlock(t(1)), Some(t(2)));
        assert_eq!(m.unlock(t(2)), None);
        assert_eq!(m.owner(), None);
    }

    #[test]
    #[should_panic(expected = "unlock by non-owner")]
    fn mutex_unlock_by_non_owner_panics() {
        let mut m = Mutex::new();
        m.lock(t(0));
        m.unlock(t(1));
    }

    #[test]
    fn condvar_requeue_onto_mutex() {
        let mut c = Condvar::new();
        let mut m = Mutex::new();
        c.wait(t(1));
        c.wait(t(2));
        assert_eq!(c.waiter_count(), 2);
        // Signal: one waiter moves to the mutex. Mutex is free, so it
        // acquires directly.
        let mut moved = Vec::new();
        c.drain_waiters(1, &mut moved);
        assert_eq!(moved, vec![t(1)]);
        assert!(m.enqueue_waiter(t(1)));
        assert_eq!(m.owner(), Some(t(1)));
        // Second signal while the mutex is held: waiter queues.
        moved.clear();
        c.drain_waiters(1, &mut moved);
        assert_eq!(moved, vec![t(2)]);
        assert!(!m.enqueue_waiter(t(2)));
        assert_eq!(m.waiter_count(), 1);
    }

    #[test]
    fn user_spinlock_ticket_order() {
        let mut s = UserSpinLock::new();
        assert!(s.lock(t(5)));
        assert!(!s.lock(t(6)));
        assert!(!s.lock(t(7)));
        // Handoff strictly FIFO, even if the next holder is descheduled.
        assert_eq!(s.unlock(t(5)), Some(t(6)));
        assert!(s.held_by(t(6)));
        assert_eq!(s.unlock(t(6)), Some(t(7)));
        assert_eq!(s.unlock(t(7)), None);
    }

    #[test]
    fn spinlock_lock_after_queue_respects_fifo() {
        let mut s = UserSpinLock::new();
        s.lock(t(0));
        s.lock(t(1));
        s.unlock(t(0));
        // A newcomer must not barge past the queue even when owner just
        // changed.
        assert!(s.held_by(t(1)));
        assert!(!s.lock(t(2)));
        assert_eq!(s.unlock(t(1)), Some(t(2)));
    }

    #[test]
    fn semaphore_counts_and_blocks() {
        let mut s = Semaphore::new(1);
        assert!(s.wait(t(0)));
        assert!(!s.wait(t(1)));
        assert_eq!(s.post(), Some(t(1)));
        // No waiters: count accumulates.
        assert_eq!(s.post(), None);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn sync_table_allocates_dense_ids() {
        let mut st = SyncTable::new();
        assert_eq!(st.new_barrier(4, None), BarrierId(0));
        assert_eq!(st.new_barrier(4, None), BarrierId(1));
        assert_eq!(st.new_mutex(), MutexId(0));
        assert_eq!(st.new_condvar(), CondId(0));
        assert_eq!(st.new_spinlock(), SpinId(0));
        assert_eq!(st.new_semaphore(2), SemId(0));
    }
}
