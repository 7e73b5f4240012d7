//! Elastic fleet autoscaling for the vScale reproduction.
//!
//! The paper's thesis is µs-granularity *vertical* elasticity: vScale
//! resizes a VM's effective processor count at the cost of a hypercall.
//! This crate adds the layer above it — *horizontal* elasticity at the
//! fleet level, where adding capacity means activating a parked host
//! and live-migrating VMs onto it, a four-to-five-orders-of-magnitude
//! slower actuator. The interplay study in `benches/elastic_sweep`
//! measures how the two layers compose: a vScale fleet rides out load
//! bursts inside the guests while the autoscaler is still in its dwell
//! window, so it holds the same SLO as a static-SMP fleet with fewer
//! provisioned host-seconds.
//!
//! Layering:
//! - [`controller`] — the pure feedback law: SLO windows in, `Hold` /
//!   `Out` / `In` decisions out; EMA smoothing, dwell hysteresis with a
//!   dead band, and post-action cooldown.
//! - [`fleet`] — the actuator: wraps a `cluster::Cluster`, samples it
//!   on its own event queue, actuates decisions serially between
//!   lockstep epochs (activation + targeted migrations for scale-out,
//!   evacuation + deferred retirement for scale-in), bills in-service
//!   host-seconds, and emits the run's `metrics::ElasticCurve`.
//!
//! Everything downstream of a seed is deterministic: an elastic run's
//! curve JSON is byte-identical at any `VSCALE_THREADS`, including runs
//! whose scale events overlap host checkpoints or faults.

pub mod controller;
pub mod fleet;

pub use controller::{ScaleDecision, SloController};
pub use fleet::ElasticFleet;
