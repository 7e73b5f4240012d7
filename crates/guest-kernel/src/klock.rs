//! Kernel spinlocks, plain and paravirtualized.
//!
//! Linux guests of the paper's era used **ticket spinlocks** in the kernel.
//! Under virtualization they suffer two coupled pathologies:
//!
//! - **Lock-holder preemption (LHP):** the holder's vCPU is descheduled
//!   mid-critical-section; every contender burns its own slice spinning.
//! - **Ticket handoff to a preempted waiter:** the FIFO handoff can pass
//!   ownership to a waiter whose vCPU is not running, stalling everyone
//!   behind it.
//!
//! The **pv-spinlock** variant (Friebel/Biemueller-style spin-then-yield,
//! `CONFIG_PARAVIRT_SPINLOCKS`) caps the damage: a contender spins a bounded
//! number of iterations and then blocks its *vCPU* in the hypervisor
//! (`SCHEDOP_poll`); the unlocker kicks the next waiter's vCPU awake.
//!
//! These structures hold pure lock state; the kernel charges spin time and
//! emits yield/kick effects.

use std::collections::VecDeque;

use sim_core::ids::ThreadId;
use sim_core::time::SimDuration;

use crate::thread::KLockId;

/// How a contender waits on a kernel spinlock.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum KlockPolicy {
    /// Plain ticket lock: spin until ownership arrives.
    #[default]
    TicketSpin,
    /// Paravirtualized: spin up to the threshold, then yield the vCPU to
    /// the hypervisor and wait for a kick.
    PvSpinThenYield {
        /// Spin budget before yielding (Linux default ~2^15 iterations,
        /// a handful of microseconds).
        threshold: SimDuration,
    },
}

impl KlockPolicy {
    /// The spin budget this policy allows, `None` for unbounded.
    pub fn spin_budget(self) -> Option<SimDuration> {
        match self {
            KlockPolicy::TicketSpin => None,
            KlockPolicy::PvSpinThenYield { threshold } => Some(threshold),
        }
    }
}

/// One kernel ticket spinlock.
#[derive(Clone, Debug, Default)]
pub struct KernelLock {
    owner: Option<ThreadId>,
    waiters: VecDeque<ThreadId>,
    /// Total acquisitions (contended or not).
    pub acquisitions: u64,
    /// Acquisitions that had to wait.
    pub contended: u64,
}

impl KernelLock {
    /// Creates a free lock.
    pub fn new() -> Self {
        KernelLock::default()
    }

    /// The current owner.
    pub fn owner(&self) -> Option<ThreadId> {
        self.owner
    }

    /// Number of queued waiters.
    pub fn waiter_count(&self) -> usize {
        self.waiters.len()
    }

    /// Takes a ticket. Returns `true` if the lock was acquired
    /// immediately, `false` if the caller must spin for its turn.
    pub fn acquire(&mut self, tid: ThreadId) -> bool {
        self.acquisitions += 1;
        if self.owner.is_none() && self.waiters.is_empty() {
            self.owner = Some(tid);
            true
        } else {
            self.contended += 1;
            self.waiters.push_back(tid);
            false
        }
    }

    /// Releases the lock, handing it to the next ticket holder (FIFO).
    /// Returns the new owner, if any — the kernel must let it proceed (or
    /// kick its vCPU if it pv-yielded).
    ///
    /// # Panics
    ///
    /// Panics if `tid` does not own the lock.
    pub fn release(&mut self, tid: ThreadId) -> Option<ThreadId> {
        assert_eq!(self.owner, Some(tid), "kernel lock release by non-owner");
        self.owner = self.waiters.pop_front();
        self.owner
    }

    /// Whether `tid`'s ticket has come up.
    pub fn held_by(&self, tid: ThreadId) -> bool {
        self.owner == Some(tid)
    }
}

/// The table of kernel locks in one guest.
#[derive(Clone, Debug, Default)]
pub struct KlockTable {
    locks: Vec<KernelLock>,
    /// The waiting policy in force (pv-spinlock on/off).
    pub policy: KlockPolicy,
}

impl KlockTable {
    /// Creates a table with the given policy.
    pub fn new(policy: KlockPolicy) -> Self {
        KlockTable {
            locks: Vec::new(),
            policy,
        }
    }

    /// Allocates a lock.
    pub fn alloc(&mut self) -> KLockId {
        self.locks.push(KernelLock::new());
        KLockId(self.locks.len() - 1)
    }

    /// Ensures at least `n` locks exist (workload setup convenience).
    pub fn ensure(&mut self, n: usize) {
        while self.locks.len() < n {
            self.locks.push(KernelLock::new());
        }
    }

    /// Access to a lock.
    pub fn lock(&mut self, id: KLockId) -> &mut KernelLock {
        &mut self.locks[id.0]
    }

    /// Immutable access to a lock.
    pub fn lock_ref(&self, id: KLockId) -> &KernelLock {
        &self.locks[id.0]
    }

    /// Number of locks allocated.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// True if no locks exist.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }
}
sim_core::snap_struct!(KernelLock {
    owner,
    waiters,
    acquisitions,
    contended,
});

// Every lock's ownership/wait state; the policy is structural (the
// restore twin is built with the same config).
sim_core::snap_struct!(KlockTable "klocks" {
    locks: twin "klock count differs from twin",
} skip { policy });

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn uncontended_acquire_is_immediate() {
        let mut l = KernelLock::new();
        assert!(l.acquire(t(0)));
        assert_eq!(l.acquisitions, 1);
        assert_eq!(l.contended, 0);
        assert_eq!(l.release(t(0)), None);
    }

    #[test]
    fn ticket_order_is_fifo() {
        let mut l = KernelLock::new();
        l.acquire(t(0));
        assert!(!l.acquire(t(1)));
        assert!(!l.acquire(t(2)));
        assert_eq!(l.release(t(0)), Some(t(1)));
        assert!(l.held_by(t(1)));
        assert_eq!(l.release(t(1)), Some(t(2)));
        assert_eq!(l.release(t(2)), None);
        assert_eq!(l.contended, 2);
    }

    #[test]
    fn newcomer_cannot_barge_past_queue() {
        let mut l = KernelLock::new();
        l.acquire(t(0));
        l.acquire(t(1));
        l.release(t(0));
        // t(1) owns; a newcomer queues even though a release just happened.
        assert!(!l.acquire(t(2)));
        assert_eq!(l.release(t(1)), Some(t(2)));
    }

    #[test]
    #[should_panic(expected = "release by non-owner")]
    fn release_by_non_owner_panics() {
        let mut l = KernelLock::new();
        l.acquire(t(0));
        l.release(t(3));
    }

    #[test]
    fn policy_budgets() {
        assert_eq!(KlockPolicy::TicketSpin.spin_budget(), None);
        let pv = KlockPolicy::PvSpinThenYield {
            threshold: SimDuration::from_us(4),
        };
        assert_eq!(pv.spin_budget(), Some(SimDuration::from_us(4)));
    }

    #[test]
    fn table_alloc_and_ensure() {
        let mut t = KlockTable::new(KlockPolicy::TicketSpin);
        let a = t.alloc();
        assert_eq!(a, KLockId(0));
        t.ensure(4);
        assert_eq!(t.len(), 4);
        t.ensure(2);
        assert_eq!(t.len(), 4);
    }
}
