//! A Linux-style guest kernel model with the vScale balancer.
//!
//! This crate implements the guest half of the vScale reproduction:
//!
//! - [`thread`] — the schedulable-entity taxonomy (Figure 3 of the paper)
//!   and the [`thread::ThreadProgram`] interface through which workload
//!   models drive threads.
//! - [`runqueue`] — per-vCPU CFS-style run queues (vruntime ordering).
//! - [`sync`] — user-level synchronization: spin-then-futex barriers
//!   (GOMP_SPINCOUNT semantics), futex-backed mutexes and condvars,
//!   pure-busy-wait ticket spinlocks, semaphores.
//! - [`klock`] — kernel ticket spinlocks with the optional pv-spinlock
//!   (spin-then-yield) policy.
//! - [`balancer`] — the `cpu_freeze_mask` at the heart of **Algorithm 2**.
//! - [`kernel`] — the execution engine: scheduling, load balancing gated on
//!   the freeze mask, interrupts with dynticks, the freeze/unfreeze
//!   protocol, and `stop_machine` stalls for the hotplug baseline.
//! - [`hotplug`] — the Linux CPU-hotplug latency model (Figure 5).
//! - [`costs`] — the calibrated mechanism costs (Tables 1 and 3).

pub mod balancer;
pub mod costs;
pub mod hotplug;
pub mod kernel;
pub mod klock;
pub mod runqueue;
pub mod sync;
pub mod thread;

pub use balancer::{FailSafe, FreezeMask, FreezeRateGate};
pub use hotplug::{HotplugModel, HotplugRetry, KernelVersion};
pub use kernel::{GuestConfig, GuestEffect, GuestKernel, GuestStats, TState};
pub use klock::KlockPolicy;
pub use sim_core::ids::{ThreadId, VcpuId};
pub use thread::{ProgramCtx, ThreadAction, ThreadKind, ThreadProgram};
