//! A Xen-style hypervisor CPU scheduler with the vScale extension.
//!
//! This crate implements the hypervisor half of the vScale reproduction:
//!
//! - [`credit`] — the proportional-share *credit scheduler* (Xen's default
//!   scheduler at the time of the paper): 10 ms ticks, 30 ms accounting and
//!   time slices, BOOST/UNDER/OVER priorities, work-conserving idle stealing,
//!   and per-VM weights (the paper's §4.2 modification — freezing vCPUs does
//!   not change a domain's total credit).
//! - [`pool`] — the [`Pool`] every machine drives; the credit,
//!   Credit2-style ([`credit2`]) and dynamic-fractional ([`dynfrac`])
//!   backends are three [`Policy`] implementations over it.
//! - [`extend`] — **Algorithm 1** of the paper: the periodic computation of
//!   every SMP domain's *CPU extendability* (its maximum achievable CPU
//!   allocation under current machine-wide load) and the optimal number of
//!   vCPUs derived from it.
//! - [`channel`] — the vScale channel: the per-domain mailbox through which
//!   a guest reads its extendability with one hypercall, plus the hypercall
//!   cost book-keeping for Table 1.
//! - [`evtchn`] — event channels: the Xen PV interrupt transport used for
//!   both I/O interrupts and inter-vCPU IPIs, with cheap rebinding of a
//!   port's target vCPU (`rebind_irq_to_cpu`).
//! - [`libxl_model`] — a model of the *centralized* dom0/libxl monitoring
//!   path that VCPU-Bal used, for the Figure 4 comparison.
//!
//! The scheduler is a passive decision-making data structure: it owns no
//! event loop. The embedding machine (the `vscale` crate) drives it with
//! `on_tick` / `on_acct` / `slice_expired` / `vcpu_wake` / ... calls and
//! receives [`credit::SchedEvent`]s describing pCPU assignment changes.

pub mod channel;
pub mod credit;
pub mod credit2;
pub mod dynfrac;
pub mod evtchn;
pub mod extend;
pub mod libxl_model;
pub mod pool;

pub use channel::VscaleChannel;
pub use credit::{Credit, CreditConfig, CreditScheduler, Prio, SchedEvent, VcpuState};
pub use credit2::{Credit2, Credit2Scheduler};
pub use dynfrac::{DynFrac, DynFracScheduler};
pub use extend::{ExtendInfo, ExtendParams};
pub use pool::{DomSchedExport, Policy, Pool, VcpuSchedExport};
pub use sim_core::ids::{DomId, GlobalVcpu, PcpuId, VcpuId};
