//! Calibrated costs of guest-kernel mechanisms.
//!
//! Absolute microsecond numbers are properties of the paper's testbed; we
//! encode them as constants (taken from Tables 1 and 3 of the paper and
//! typical Linux figures of the era) so every mechanism action charges
//! realistic virtual CPU time, and so the Table 1 and Table 3 benches can
//! print the same breakdown. The one cost callers set per guest, softirq
//! work per network event, is [`GuestConfig::softirq_net`](crate::GuestConfig::softirq_net).

use sim_core::time::SimDuration;

/// System-call entry/exit (Table 1/3 step 1): 0.69 µs.
pub const SYSCALL: SimDuration = SimDuration::from_ns(690);
/// Acquire+release of `cpu_freeze_lock` with IRQ save/restore
/// (Table 3 step 2): 0.06 µs.
pub const FREEZE_LOCK: SimDuration = SimDuration::from_ns(60);
/// Setting a bit of `cpu_freeze_mask` (Table 3 step 3): 0.03 µs.
pub const FREEZE_MASK_UPDATE: SimDuration = SimDuration::from_ns(30);
/// Updating sched-domain/group power under an RCU lock
/// (Table 3 step 4): 0.12 µs.
pub const GROUP_POWER_UPDATE: SimDuration = SimDuration::from_ns(120);
/// One hypercall (Table 1 step 2, Table 3 step 5): 0.22 µs.
pub const HYPERCALL: SimDuration = SimDuration::from_ns(220);
/// Sending a reschedule IPI (Table 3 step 6): 0.98 µs.
pub const IPI_SEND: SimDuration = SimDuration::from_ns(980);
/// Migrating one thread between runqueues (Table 3, target side):
/// 0.9–1.1 µs; we charge the midpoint.
pub const THREAD_MIGRATION: SimDuration = SimDuration::from_ns(1_000);
/// Rebinding one device interrupt (Table 3, target side): 0.8–1.2 µs.
pub const IRQ_MIGRATION: SimDuration = SimDuration::from_ns(1_000);
/// One timer-interrupt handler invocation.
pub const TIMER_TICK: SimDuration = SimDuration::from_us(2);
/// One external-interrupt handler invocation (top half).
pub const IRQ_HANDLER: SimDuration = SimDuration::from_us(5);
/// A context switch between threads.
pub const CONTEXT_SWITCH: SimDuration = SimDuration::from_ns(1_500);
/// A `futex_wait`/`futex_wake` syscall body.
pub const FUTEX_SYSCALL: SimDuration = SimDuration::from_ns(800);

/// Master-vCPU cost of one freeze/unfreeze operation — the Table 3
/// sum: syscall + lock + mask + group power + hypercall + IPI
/// ≈ 2.10 µs.
pub const FREEZE_MASTER: SimDuration = SimDuration::from_ns(
    SYSCALL.as_ns()
        + FREEZE_LOCK.as_ns()
        + FREEZE_MASK_UPDATE.as_ns()
        + GROUP_POWER_UPDATE.as_ns()
        + HYPERCALL.as_ns()
        + IPI_SEND.as_ns(),
);

/// Cost of one vScale channel read (Table 1): syscall + hypercall
/// ≈ 0.91 µs.
pub const CHANNEL_READ: SimDuration = SimDuration::from_ns(SYSCALL.as_ns() + HYPERCALL.as_ns());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_master_breakdown_sums_to_2_1us() {
        assert_eq!(FREEZE_MASTER.as_ns(), 2_100);
    }

    #[test]
    fn table1_read_sums_to_0_91us() {
        assert_eq!(CHANNEL_READ.as_ns(), 910);
    }
}
