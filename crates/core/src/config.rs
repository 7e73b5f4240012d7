//! Machine and domain configuration.

use guest_kernel::GuestConfig;
use sim_core::time::SimDuration;
use xen_sched::{Credit, Credit2, CreditConfig, DynFrac, Policy};

use crate::daemon::DaemonConfig;

/// How a domain adapts its active vCPU count.
#[derive(Clone, Debug)]
pub enum ScalingMode {
    /// Fixed vCPU count (the vanilla Xen/Linux baseline).
    Fixed,
    /// vScale: daemon + channel + balancer (Algorithms 1 and 2).
    VScale(DaemonConfig),
    /// The same monitoring loop driving Linux CPU hotplug — the
    /// VCPU-Bal-style baseline mechanism.
    Hotplug {
        /// Daemon parameters (monitoring cadence).
        daemon: DaemonConfig,
        /// Which kernel version's hotplug latency to model.
        version: guest_kernel::KernelVersion,
    },
    /// VCPU-Bal's *policy* over vScale's mechanism: the target vCPU count
    /// considers only the VM's weight (its fair share), never its or its
    /// neighbours' consumption — the non-work-conserving sizing the paper
    /// criticises in §2.3. Ablation mode.
    VcpuBal(DaemonConfig),
}

/// Host-level configuration.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of pCPUs in the domU pool (dom0 runs on dedicated cores
    /// outside the pool, as in the paper's testbed).
    pub n_pcpus: usize,
    /// Credit-scheduler parameters.
    pub credit: CreditConfig,
    /// Root RNG seed.
    pub seed: u64,
    /// Scheduler-attack defenses. All off by default: the defaults
    /// reproduce the paper's (attackable) behavior byte for byte.
    pub defense: DefenseConfig,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            n_pcpus: 4,
            credit: CreditConfig::default(),
            seed: 0x5ca1e,
            defense: DefenseConfig::default(),
        }
    }
}

/// Config-gated defenses against scheduler attacks (Zhou et al.,
/// "Scheduler Vulnerabilities and Attacks in Cloud Computing").
///
/// Each knob is independently toggleable so the attack grid can measure
/// one defense at a time. Everything defaults to *off*; with the default
/// `DefenseConfig` a run is byte-identical to a build that predates the
/// defenses (guarded by the golden trace checksums in
/// `tests/determinism.rs` and `tests/layout_equivalence.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DefenseConfig {
    /// Charge exact run nanoseconds instead of sampled ticks. Counters
    /// tick-evasion theft. Only meaningful when the credit backend runs
    /// in its Xen-faithful sampled-accounting mode
    /// (`CreditConfig::sampled_burn`); forces that flag off.
    pub exact_burn: bool,
    /// Randomize each hypervisor-tick interval within ±25% of the
    /// nominal period (mean preserved), drawn from a dedicated RNG
    /// derived from the run seed — never ambient entropy, so jittered
    /// runs still replay bit-identically at any `VSCALE_THREADS`.
    /// Counters attacks that phase-lock to the accounting sample.
    pub tick_jitter: bool,
    /// Rate-limit kick-path preemption: a directed wake may not evict a
    /// current occupant that has run for less than the scheduler's
    /// ratelimit. Counters IPI-storm preemption farming. Applies to all
    /// three backends.
    pub kick_throttle: bool,
    /// Freeze-rate hysteresis in the guest balancer: after a
    /// grow/shrink reconfiguration, suppress further reconfigurations
    /// for this many daemon periods (0 disables). Counters
    /// extendability-oscillation attacks that thrash freeze/unfreeze.
    pub freeze_dwell: u32,
}

/// Per-domain configuration.
#[derive(Clone, Debug)]
pub struct DomainSpec {
    /// Proportional-share weight.
    pub weight: u32,
    /// Guest kernel configuration (vCPU count, costs, pv-spinlock).
    pub guest: GuestConfig,
    /// vCPU scaling mode.
    pub scaling: ScalingMode,
    /// Optional consumption cap, in pCPUs.
    pub cap_pcpus: Option<f64>,
    /// Optional reservation, in pCPUs.
    pub reservation_pcpus: Option<f64>,
}

impl DomainSpec {
    /// A fixed-size SMP domain with default weight.
    pub fn fixed(n_vcpus: usize) -> Self {
        DomainSpec {
            weight: 256,
            guest: GuestConfig::new(n_vcpus),
            scaling: ScalingMode::Fixed,
            cap_pcpus: None,
            reservation_pcpus: None,
        }
    }

    /// A vScale-managed SMP domain with default daemon settings.
    pub fn vscale(n_vcpus: usize) -> Self {
        DomainSpec {
            scaling: ScalingMode::VScale(DaemonConfig::default()),
            ..DomainSpec::fixed(n_vcpus)
        }
    }

    /// Enables the guest's pv-spinlock.
    pub fn with_pv_spinlock(mut self) -> Self {
        self.guest = self.guest.with_pv_spinlock();
        self
    }

    /// Sets the proportional-share weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }
}

/// The scheduler-policy axis of the figure grids: which
/// [`Policy`] the hypervisor's pool runs. The paper evaluates
/// against Xen's credit scheduler only; the other two backends probe how
/// much of vScale's benefit is policy-independent. This is a runtime tag
/// — `Machine` is generic over the backend at compile time, so consumers
/// match on it to pick a monomorphized experiment function.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedBackend {
    /// Xen's credit scheduler with the §4.2 modification (the paper's).
    Credit,
    /// Credit2-style per-pCPU runqueues with credit-reset epochs.
    Credit2,
    /// Dynamic-fractional continuous shares (à la Casanova et al.).
    DynFrac,
}

impl SchedBackend {
    /// All backends, credit (the reference) first.
    pub const ALL: [SchedBackend; 3] = [
        SchedBackend::Credit,
        SchedBackend::Credit2,
        SchedBackend::DynFrac,
    ];

    /// Stable short name: the policy's [`Policy::NAME`].
    pub fn label(self) -> &'static str {
        match self {
            SchedBackend::Credit => Credit::NAME,
            SchedBackend::Credit2 => Credit2::NAME,
            SchedBackend::DynFrac => DynFrac::NAME,
        }
    }
}

/// The four comparison configurations of the paper's §5.2 experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemConfig {
    /// Vanilla Xen/Linux.
    Baseline,
    /// Xen/Linux with pv-spinlock.
    Pvlock,
    /// vScale.
    VScale,
    /// vScale with pv-spinlock.
    VScalePvlock,
}

impl SystemConfig {
    /// All four configurations, in the paper's legend order.
    pub const ALL: [SystemConfig; 4] = [
        SystemConfig::Baseline,
        SystemConfig::Pvlock,
        SystemConfig::VScale,
        SystemConfig::VScalePvlock,
    ];

    /// The paper's legend label.
    pub fn label(self) -> &'static str {
        match self {
            SystemConfig::Baseline => "Xen/Linux",
            SystemConfig::Pvlock => "Xen/Linux + pvlock",
            SystemConfig::VScale => "vScale",
            SystemConfig::VScalePvlock => "vScale + pvlock",
        }
    }

    /// Whether vScale's daemon/balancer runs.
    pub fn vscale(self) -> bool {
        matches!(self, SystemConfig::VScale | SystemConfig::VScalePvlock)
    }

    /// Whether the guest uses pv-spinlock.
    pub fn pvlock(self) -> bool {
        matches!(self, SystemConfig::Pvlock | SystemConfig::VScalePvlock)
    }

    /// Builds a [`DomainSpec`] for an `n_vcpus` test VM under this
    /// configuration.
    pub fn domain_spec(self, n_vcpus: usize) -> DomainSpec {
        let mut spec = if self.vscale() {
            DomainSpec::vscale(n_vcpus)
        } else {
            DomainSpec::fixed(n_vcpus)
        };
        if self.pvlock() {
            spec = spec.with_pv_spinlock();
        }
        spec
    }
}

/// The fleet autoscaler's SLO target, sampling period, dead band and
/// host bounds (`crates/autoscale`): the values experiments set. The
/// controller's fixed smoothing, dwell, cooldown and capacity
/// constants live beside it in `autoscale::controller`. Nothing here
/// touches the machine-level hot path, so an idle controller costs
/// nothing.
#[derive(Clone, Copy, Debug)]
pub struct ElasticConfig {
    /// The fleet-p99 target, µs. Scale-out pressure builds while the
    /// smoothed p99 exceeds `scale_out_ratio` of this.
    pub slo_p99_us: u64,
    /// Controller sampling period (also the SLO-window width).
    pub sample_period: SimDuration,
    /// Scale out when the smoothed p99 exceeds `scale_out_ratio *
    /// slo_p99_us` for the controller's scale-out dwell.
    pub scale_out_ratio: f64,
    /// Scale in only while the smoothed p99 stays below `scale_in_ratio *
    /// slo_p99_us` and the fleet's throughput fits on one fewer host.
    pub scale_in_ratio: f64,
    /// The controller never drains below this many in-service hosts.
    pub min_hosts: usize,
    /// … and never activates beyond this many.
    pub max_hosts: usize,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            slo_p99_us: 10_000,
            sample_period: SimDuration::from_ms(20),
            scale_out_ratio: 0.8,
            scale_in_ratio: 0.4,
            min_hosts: 1,
            max_hosts: usize::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_config_flags() {
        assert!(!SystemConfig::Baseline.vscale());
        assert!(!SystemConfig::Baseline.pvlock());
        assert!(SystemConfig::Pvlock.pvlock());
        assert!(SystemConfig::VScale.vscale());
        assert!(SystemConfig::VScalePvlock.vscale());
        assert!(SystemConfig::VScalePvlock.pvlock());
    }

    #[test]
    fn domain_spec_builders() {
        let spec = SystemConfig::VScalePvlock.domain_spec(4);
        assert!(matches!(spec.scaling, ScalingMode::VScale(_)));
        assert!(matches!(
            spec.guest.klock_policy,
            guest_kernel::KlockPolicy::PvSpinThenYield { .. }
        ));
        let spec = SystemConfig::Baseline.domain_spec(8);
        assert!(matches!(spec.scaling, ScalingMode::Fixed));
        assert_eq!(spec.guest.n_vcpus, 8);
    }

    #[test]
    fn defense_defaults_are_all_off() {
        let d = DefenseConfig::default();
        assert!(!d.exact_burn && !d.tick_jitter && !d.kick_throttle);
        assert_eq!(d.freeze_dwell, 0);
    }

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(SystemConfig::Baseline.label(), "Xen/Linux");
        assert_eq!(SystemConfig::VScalePvlock.label(), "vScale + pvlock");
    }
}
