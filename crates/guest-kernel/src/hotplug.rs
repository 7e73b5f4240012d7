//! The Linux CPU-hotplug baseline (Figure 5 + §6 of the paper).
//!
//! Linux's CPU hotplug is the only stock mechanism for changing a guest's
//! active vCPU count, and it is what dom0-driven approaches (VCPU-Bal) must
//! use. It runs a long notifier chain and, for removal, `stop_machine()` —
//! which halts *every* CPU with interrupts disabled for the duration. The
//! paper measured 100 add/remove cycles on four kernel versions (Figure 5):
//! removals cost several ms to over 100 ms; additions range from ~350–500 µs
//! (best case, Linux 3.14.15) to tens of ms on other versions.
//!
//! [`HotplugModel`] reproduces those latency distributions with log-normal
//! fits per kernel version, and exposes the `stop_machine` fraction of a
//! removal so the simulator can stall the whole guest for it — the
//! disruption that makes hotplug unusable for real-time scaling.

use sim_core::rng::SimRng;
use sim_core::time::{SimDuration, SimTime};

/// The kernel versions the paper measured (Figure 5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelVersion {
    /// Linux 2.6.32.
    V2_6_32,
    /// Linux 3.2.60.
    V3_2_60,
    /// Linux 3.14.15 (the paper's guest kernel).
    V3_14_15,
    /// Linux 4.2.
    V4_2,
}

impl KernelVersion {
    /// All measured versions, oldest first.
    pub const ALL: [KernelVersion; 4] = [
        KernelVersion::V2_6_32,
        KernelVersion::V3_2_60,
        KernelVersion::V3_14_15,
        KernelVersion::V4_2,
    ];

    /// Human-readable label, matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            KernelVersion::V2_6_32 => "v-2.6.32",
            KernelVersion::V3_2_60 => "v-3.2.60",
            KernelVersion::V3_14_15 => "v-3.14.15",
            KernelVersion::V4_2 => "v-4.2",
        }
    }

    /// `(median_ms, sigma)` of the log-normal fit for *adding* a vCPU.
    fn add_params(self) -> (f64, f64) {
        match self {
            KernelVersion::V2_6_32 => (35.0, 0.55),
            KernelVersion::V3_2_60 => (22.0, 0.50),
            // The paper's best case: 350–500 µs.
            KernelVersion::V3_14_15 => (0.42, 0.12),
            KernelVersion::V4_2 => (14.0, 0.50),
        }
    }

    /// `(median_ms, sigma)` of the log-normal fit for *removing* a vCPU.
    fn remove_params(self) -> (f64, f64) {
        match self {
            KernelVersion::V2_6_32 => (85.0, 0.45),
            KernelVersion::V3_2_60 => (48.0, 0.50),
            KernelVersion::V3_14_15 => (9.0, 0.70),
            KernelVersion::V4_2 => (28.0, 0.55),
        }
    }
}

/// Latency model for Linux CPU hotplug.
#[derive(Clone, Debug)]
pub struct HotplugModel {
    /// The guest kernel version.
    pub version: KernelVersion,
    /// Fraction of a removal spent inside `stop_machine()` with all CPUs
    /// halted (the globally disruptive part).
    pub stop_machine_fraction: f64,
}

impl HotplugModel {
    /// Creates a model for the given kernel version.
    pub fn new(version: KernelVersion) -> Self {
        HotplugModel {
            version,
            stop_machine_fraction: 0.35,
        }
    }

    /// Samples the latency of onlining one vCPU (`hotplug`).
    pub fn sample_add(&self, rng: &mut SimRng) -> SimDuration {
        let (median_ms, sigma) = self.version.add_params();
        SimDuration::from_us_f64(rng.log_normal(median_ms * 1e3, sigma))
    }

    /// Samples the latency of offlining one vCPU (`unhotplug`).
    pub fn sample_remove(&self, rng: &mut SimRng) -> SimDuration {
        let (median_ms, sigma) = self.version.remove_params();
        SimDuration::from_us_f64(rng.log_normal(median_ms * 1e3, sigma))
    }

    /// Splits a removal latency into `(stop_machine, local)` parts: the
    /// first stalls every vCPU of the guest, the second only the one
    /// performing the operation.
    pub fn split_remove(&self, total: SimDuration) -> (SimDuration, SimDuration) {
        let stop = total.mul_f64(self.stop_machine_fraction);
        (stop, total.saturating_sub(stop))
    }

    /// The whole-guest stall charged when a removal aborts `frac` of the
    /// way through its `stop_machine` window (a notifier veto or a task
    /// that cannot be migrated off the dying CPU). The guest pays the
    /// partial stall, `stop_machine` unwinds, and the vCPU stays online —
    /// there is no local tail because the teardown never ran.
    pub fn abort_stall(&self, total: SimDuration, frac: f64) -> SimDuration {
        let (stop, _) = self.split_remove(total);
        stop.mul_f64(frac.clamp(0.0, 1.0))
    }
}

/// Hold-off after the first aborted hotplug removal; doubles per
/// consecutive abort.
pub const HOTPLUG_RETRY_BASE: SimDuration = SimDuration::from_ms(20);
/// Ceiling of the exponential hold-off.
pub const HOTPLUG_RETRY_CAP: SimDuration = SimDuration::from_ms(160);
/// Consecutive aborts tolerated before the daemon gives up on the
/// removal for a long cool-down (4 × [`HOTPLUG_RETRY_CAP`]).
pub const HOTPLUG_RETRY_BUDGET: u32 = 5;

/// Hold-off after consecutive abort number `aborts` (1-based):
/// `HOTPLUG_RETRY_BASE << (aborts - 1)`, capped at [`HOTPLUG_RETRY_CAP`].
fn retry_hold(aborts: u32) -> SimDuration {
    let shift = aborts.saturating_sub(1).min(31);
    SimDuration::from_ns((HOTPLUG_RETRY_BASE.as_ns() << shift).min(HOTPLUG_RETRY_CAP.as_ns()))
}

/// The cool-down after the abort budget is exhausted.
const RETRY_COOLDOWN: SimDuration = SimDuration::from_ns(HOTPLUG_RETRY_CAP.as_ns() * 4);

/// Per-domain retry state for aborted hotplug removals.
///
/// `stop_machine` aborts roll back cleanly (the partial stall is paid, the
/// vCPU stays online), but immediately re-attempting a removal that a
/// notifier just vetoed wastes whole-guest stalls. The daemon therefore
/// backs off exponentially between attempts and, after
/// [`HOTPLUG_RETRY_BUDGET`] consecutive aborts, gives the removal up
/// for a long cool-down before starting a fresh cycle.
#[derive(Clone, Debug)]
pub struct HotplugRetry {
    consecutive_aborts: u32,
    hold_until: SimTime,
    retries: u64,
    giveups: u64,
}

impl Default for HotplugRetry {
    fn default() -> Self {
        HotplugRetry {
            consecutive_aborts: 0,
            hold_until: SimTime::ZERO,
            retries: 0,
            giveups: 0,
        }
    }
}

impl HotplugRetry {
    /// Whether a removal attempt is allowed at `now` (outside any
    /// hold-off window).
    pub fn allows(&self, now: SimTime) -> bool {
        now >= self.hold_until
    }

    /// Records an aborted removal at `now` and arms the next hold-off.
    /// Returns the hold-off applied.
    pub fn on_abort(&mut self, now: SimTime) -> SimDuration {
        self.consecutive_aborts += 1;
        let hold = if self.consecutive_aborts > HOTPLUG_RETRY_BUDGET {
            // Budget exhausted: long cool-down, then a fresh cycle.
            self.giveups += 1;
            self.consecutive_aborts = 0;
            RETRY_COOLDOWN
        } else {
            self.retries += 1;
            retry_hold(self.consecutive_aborts)
        };
        self.hold_until = now + hold;
        hold
    }

    /// A removal (or addition) completed: the abort streak ends.
    pub fn on_success(&mut self) {
        self.consecutive_aborts = 0;
        self.hold_until = SimTime::ZERO;
    }

    /// Retry attempts scheduled after aborts.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Removal cycles abandoned after the budget ran out.
    pub fn giveups(&self) -> u64 {
        self.giveups
    }
}
sim_core::snap_struct!(HotplugRetry {
    consecutive_aborts,
    hold_until,
    retries,
    giveups,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_backoff_doubles_caps_and_gives_up() {
        let mut r = HotplugRetry::default();
        let t0 = SimTime::ZERO;
        assert!(r.allows(t0));
        assert_eq!(r.on_abort(t0), SimDuration::from_ms(20));
        assert!(!r.allows(SimTime::from_ms(10)));
        assert!(r.allows(SimTime::from_ms(20)));
        assert_eq!(r.on_abort(SimTime::from_ms(20)), SimDuration::from_ms(40));
        assert_eq!(r.on_abort(SimTime::from_ms(60)), SimDuration::from_ms(80));
        assert_eq!(r.on_abort(SimTime::from_ms(140)), SimDuration::from_ms(160));
        assert_eq!(
            r.on_abort(SimTime::from_ms(300)),
            SimDuration::from_ms(160),
            "capped"
        );
        assert_eq!(r.retries(), 5);
        // The sixth consecutive abort exhausts the budget (5): a long
        // cool-down, then a fresh cycle starting at the base hold-off.
        assert_eq!(r.on_abort(SimTime::from_ms(460)), SimDuration::from_ms(640));
        assert_eq!(r.giveups(), 1);
        assert_eq!(
            r.on_abort(SimTime::from_ms(1100)),
            SimDuration::from_ms(20),
            "fresh cycle"
        );
        // A success ends the streak and clears the hold-off.
        r.on_success();
        assert!(r.allows(SimTime::from_ms(1101)));
        assert_eq!(r.on_abort(SimTime::from_ms(1101)), SimDuration::from_ms(20));
    }

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(KernelVersion::V2_6_32.label(), "v-2.6.32");
        assert_eq!(KernelVersion::V3_14_15.label(), "v-3.14.15");
    }

    #[test]
    fn best_case_add_is_sub_millisecond() {
        let m = HotplugModel::new(KernelVersion::V3_14_15);
        let mut rng = SimRng::new(1);
        let mut min = u64::MAX;
        let mut max = 0u64;
        for _ in 0..100 {
            let s = m.sample_add(&mut rng).as_us();
            min = min.min(s);
            max = max.max(s);
        }
        assert!(min >= 250, "min add {min} µs");
        assert!(max <= 700, "max add {max} µs");
    }

    #[test]
    fn removals_are_milliseconds_to_hundreds() {
        let mut rng = SimRng::new(2);
        for v in KernelVersion::ALL {
            let m = HotplugModel::new(v);
            for _ in 0..100 {
                let s = m.sample_remove(&mut rng);
                assert!(
                    s >= SimDuration::from_ms(1),
                    "{}: removal {s} too fast",
                    v.label()
                );
                assert!(
                    s <= SimDuration::from_ms(400),
                    "{}: removal {s} implausibly slow",
                    v.label()
                );
            }
        }
    }

    #[test]
    fn oldest_kernel_is_slowest_on_median() {
        let mut rng = SimRng::new(3);
        let mut median = |v: KernelVersion| {
            let m = HotplugModel::new(v);
            let mut xs: Vec<u64> = (0..201)
                .map(|_| m.sample_remove(&mut rng).as_us())
                .collect();
            xs.sort_unstable();
            xs[100]
        };
        let old = median(KernelVersion::V2_6_32);
        let new = median(KernelVersion::V3_14_15);
        assert!(
            old > new * 3,
            "2.6.32 ({old} µs) should be much slower than 3.14.15 ({new} µs)"
        );
    }

    #[test]
    fn hotplug_is_orders_slower_than_vscale() {
        // The paper's headline: 100x to 100,000x slower than vScale's
        // ~2 µs freeze.
        let mut rng = SimRng::new(4);
        let vscale_freeze = SimDuration::from_ns(2_100);
        for v in KernelVersion::ALL {
            let m = HotplugModel::new(v);
            let s = m.sample_remove(&mut rng);
            let ratio = s.as_ns() / vscale_freeze.as_ns();
            assert!(ratio >= 100, "{}: ratio only {ratio}", v.label());
            assert!(ratio <= 200_000, "{}: ratio {ratio}", v.label());
        }
    }

    #[test]
    fn split_remove_partitions_total() {
        let m = HotplugModel::new(KernelVersion::V3_14_15);
        let total = SimDuration::from_ms(10);
        let (stop, local) = m.split_remove(total);
        assert_eq!(stop + local, total);
        assert!(stop > SimDuration::ZERO);
        assert!(stop < total);
    }

    #[test]
    fn abort_stall_is_bounded_by_stop_machine_window() {
        let m = HotplugModel::new(KernelVersion::V3_14_15);
        let total = SimDuration::from_ms(10);
        let (stop, _) = m.split_remove(total);
        assert_eq!(m.abort_stall(total, 0.0), SimDuration::ZERO);
        assert_eq!(m.abort_stall(total, 1.0), stop);
        let half = m.abort_stall(total, 0.5);
        assert!(half > SimDuration::ZERO && half < stop);
        // Out-of-range fractions clamp instead of panicking.
        assert_eq!(m.abort_stall(total, 7.0), stop);
    }
}
