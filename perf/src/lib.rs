//! Speed benchmark of the vScale simulator.
//!
//! Four workloads ([`workloads::Workload`]) drive the simulator through
//! its public API. An untraced run reports the end-to-end metrics
//! (simulated seconds per wall second, set-up time, peak memory); a
//! traced run wraps the same calls in spans ([`trace`]) and reports exact
//! per-layer counts and per-call wall times. See `perf/README.md`.

pub mod stats;
pub mod trace;
pub mod workloads;

/// The end-to-end metrics an untraced run reports, in output order.
pub const END_TO_END: [&str; 3] = ["sim_speed", "setup_s", "peak_rss_mb"];

/// The per-layer metrics a traced run reports, in output order.
pub const PER_LAYER: [&str; 28] = [
    "sim-core.events",
    "sim-core.events_per_sim_s",
    "sim-core.ns_per_event",
    "xen-sched.switches",
    "xen-sched.vcpu_migrations",
    "guest-kernel.context_switches",
    "guest-kernel.resched_ipis",
    "guest-kernel.timer_ints",
    "guest-kernel.io_irqs",
    "core.daemon_reads",
    "core.reconfigs",
    "core.events_per_s",
    "core.io_log_kb",
    "api.step_us.p50",
    "api.step_us.p99",
    "core.snapshot.image_kb",
    "cluster.epochs",
    "cluster.skip_ratio",
    "cluster.parallel_eff",
    "cluster.requests",
    "cluster.requeued",
    "cluster.restores",
    "cluster.migrations",
    "cluster.precopy_rounds",
    "autoscale.scale_outs",
    "autoscale.scale_ins",
    "autoscale.host_s",
    "trace.overhead",
];
