//! Deterministic discrete-event simulation substrate.
//!
//! Every layer of the vScale reproduction — the Xen-style hypervisor
//! scheduler, the Linux-style guest kernel, and the workload models — runs on
//! top of this crate. It provides:
//!
//! - [`time`] — nanosecond-resolution simulated time ([`SimTime`]) and
//!   durations ([`SimDuration`]).
//! - [`event`] — a cancellable, deterministically tie-broken event queue
//!   ([`EventQueue`]).
//! - [`rng`] — seedable, reproducible random number generation
//!   ([`SimRng`]) with common distributions.
//! - [`stats`] — online statistics, log-bucketed histograms and CDFs used by
//!   the experiment harnesses.
//! - [`trace`] — a bounded trace ring for debugging simulations
//!   ([`TraceRing`]).
//! - [`fault`] — deterministic fault injection ([`FaultPlan`]) and the
//!   structured error model ([`SimError`]) for graceful degradation.
//! - [`ids`] — small typed-index helpers shared by the other crates.
//! - [`soa`] — dense struct-of-arrays maps keyed by those ids
//!   ([`VcpuMap`]), the layout of the dispatch hot path's per-vCPU state.
//!
//! The simulation is fully deterministic: runs with the same seed and
//! configuration produce bit-identical results, which the property tests
//! assert. Fault injection rides a dedicated RNG stream so an enabled-but-
//! empty plan leaves every other stream untouched.

pub mod event;
pub mod fault;
pub mod ids;
pub mod rng;
pub mod snap;
pub mod soa;
pub mod stats;
pub mod time;
pub mod trace;

pub use event::{EventHandle, EventQueue};
pub use fault::{
    ChannelReadFault, DeliveryFault, Diagnostics, FaultConfig, FaultPlan, FaultStats, SimError,
    SimErrorKind,
};
pub use rng::SimRng;
pub use snap::{SnapReader, SnapWriter};
pub use soa::VcpuMap;
pub use stats::{Cdf, Histogram, OnlineStats};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEntry, TraceRing};
