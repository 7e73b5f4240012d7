//! Deterministic fault injection and the structured simulation error model.
//!
//! The paper's robustness story is that vScale keeps converging even when
//! its signals are imperfect: the daemon polls extendability asynchronously,
//! IPIs and event-channel notifications race with preemption, and hotplug
//! can straddle a `stop_machine` window. A [`FaultPlan`] makes those
//! imperfections *first-class and reproducible*: it owns a dedicated
//! [`SimRng`] stream (never the machine's), so
//!
//! - the same `FaultConfig` + seed replays bit-identically, and
//! - a disabled plan draws nothing, leaving the fault-free event stream
//!   byte-identical to a run with no plan at all (zero-cost-when-off).
//!
//! Every decision method draws from the plan's private stream in a fixed
//! order, so the injected fault sequence is a pure function of the config.
//!
//! The second half of this module is the graceful-degradation contract:
//! [`SimError`] is the typed, diagnosable alternative to a panic for the
//! cross-layer hot paths: the embedding machine's watchdog bounds how long
//! a run may spin (same-instant livelock) or stall (no virtual-time
//! progress) and then reports *which layer* wedged instead of hanging.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Parts-per-million denominator for all fault rates.
///
/// Rates are integers so a config survives a JSON round-trip exactly —
/// a float rate that re-parses to a neighbouring double would silently
/// change every downstream draw.
pub const PPM: u64 = 1_000_000;

/// A complete, serializable description of what to inject.
///
/// All rates are parts-per-million per *opportunity* (one notification,
/// one IPI, one scheduler tick, one daemon period, one channel read, one
/// hotplug removal). The default is all-zero: nothing fires and the plan
/// never draws.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultConfig {
    /// Seed for the plan's private RNG stream.
    pub seed: u64,
    /// Drop an event-channel notification (the doorbell is lost; the
    /// pending bit survives and is re-scanned within `notify_recovery`).
    pub notify_drop_ppm: u32,
    /// Delay a notification by up to `notify_delay_max`.
    pub notify_delay_ppm: u32,
    /// Duplicate a notification (spurious second doorbell).
    pub notify_dup_ppm: u32,
    /// Upper bound on injected notification delay.
    pub notify_delay_max: SimDuration,
    /// How long a dropped notification stays unnoticed before the guest's
    /// periodic re-scan recovers the pending port (models the next timer
    /// interrupt noticing the pending bit — the staleness bound for drops).
    pub notify_recovery: SimDuration,
    /// Drop a reschedule IPI (degrades to the next natural scheduling
    /// point; the pending-resched bit survives).
    pub ipi_drop_ppm: u32,
    /// Delay an IPI beyond its normal latency.
    pub ipi_delay_ppm: u32,
    /// Duplicate an IPI.
    pub ipi_dup_ppm: u32,
    /// Upper bound on injected IPI delay.
    pub ipi_delay_max: SimDuration,
    /// Inject a steal-time spike on a random vCPU, per scheduler tick.
    pub steal_spike_ppm: u32,
    /// Upper bound on the injected spike length.
    pub steal_spike_max: SimDuration,
    /// Crash-and-restart the vScale daemon, per daemon period. The daemon
    /// loses its EMA state, its streaks, and any in-flight read snapshot.
    pub daemon_crash_ppm: u32,
    /// Serve the previous extendability snapshot instead of a fresh one.
    pub stale_read_ppm: u32,
    /// Serve a torn extendability snapshot (fields mixed across two
    /// consecutive reads, with an invalid accounting period).
    pub torn_read_ppm: u32,
    /// Abort a hotplug removal partway through its `stop_machine` window.
    pub hotplug_abort_ppm: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            notify_drop_ppm: 0,
            notify_delay_ppm: 0,
            notify_dup_ppm: 0,
            notify_delay_max: SimDuration::from_us(500),
            notify_recovery: SimDuration::from_ms(10),
            ipi_drop_ppm: 0,
            ipi_delay_ppm: 0,
            ipi_dup_ppm: 0,
            ipi_delay_max: SimDuration::from_us(200),
            steal_spike_ppm: 0,
            steal_spike_max: SimDuration::from_ms(5),
            daemon_crash_ppm: 0,
            stale_read_ppm: 0,
            torn_read_ppm: 0,
            hotplug_abort_ppm: 0,
        }
    }
}

impl FaultConfig {
    /// True when no fault class can ever fire. A no-op plan must behave
    /// exactly like the absence of a plan.
    pub fn is_noop(&self) -> bool {
        self.notify_drop_ppm == 0
            && self.notify_delay_ppm == 0
            && self.notify_dup_ppm == 0
            && self.ipi_drop_ppm == 0
            && self.ipi_delay_ppm == 0
            && self.ipi_dup_ppm == 0
            && self.steal_spike_ppm == 0
            && self.daemon_crash_ppm == 0
            && self.stale_read_ppm == 0
            && self.torn_read_ppm == 0
            && self.hotplug_abort_ppm == 0
    }

    /// Serializes to a flat JSON object of integer fields — embeddable in
    /// a BenchSession line and guaranteed to round-trip bit-exactly.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"seed\":{},\"notify_drop_ppm\":{},\"notify_delay_ppm\":{},",
                "\"notify_dup_ppm\":{},\"notify_delay_max_ns\":{},",
                "\"notify_recovery_ns\":{},\"ipi_drop_ppm\":{},",
                "\"ipi_delay_ppm\":{},\"ipi_dup_ppm\":{},\"ipi_delay_max_ns\":{},",
                "\"steal_spike_ppm\":{},\"steal_spike_max_ns\":{},",
                "\"daemon_crash_ppm\":{},\"stale_read_ppm\":{},",
                "\"torn_read_ppm\":{},\"hotplug_abort_ppm\":{}}}"
            ),
            self.seed,
            self.notify_drop_ppm,
            self.notify_delay_ppm,
            self.notify_dup_ppm,
            self.notify_delay_max.as_ns(),
            self.notify_recovery.as_ns(),
            self.ipi_drop_ppm,
            self.ipi_delay_ppm,
            self.ipi_dup_ppm,
            self.ipi_delay_max.as_ns(),
            self.steal_spike_ppm,
            self.steal_spike_max.as_ns(),
            self.daemon_crash_ppm,
            self.stale_read_ppm,
            self.torn_read_ppm,
            self.hotplug_abort_ppm,
        )
    }

    /// Parses the output of [`FaultConfig::to_json`]. The object may be
    /// embedded in a larger JSON line; the first occurrence of each key
    /// wins. Fails if `seed` is absent (a sure sign the text is not a
    /// fault config at all); other absent fields default to zero/off.
    pub fn from_json(text: &str) -> Result<FaultConfig, String> {
        fn field(text: &str, key: &str) -> Option<u64> {
            let needle = format!("\"{key}\":");
            let start = text.find(&needle)? + needle.len();
            let digits: String = text[start..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            digits.parse().ok()
        }
        let seed = field(text, "seed").ok_or_else(|| "missing \"seed\"".to_string())?;
        let ppm32 = |key: &str| field(text, key).unwrap_or(0).min(PPM) as u32;
        let dur = |key: &str, dflt: SimDuration| {
            field(text, key).map(SimDuration::from_ns).unwrap_or(dflt)
        };
        let d = FaultConfig::default();
        Ok(FaultConfig {
            seed,
            notify_drop_ppm: ppm32("notify_drop_ppm"),
            notify_delay_ppm: ppm32("notify_delay_ppm"),
            notify_dup_ppm: ppm32("notify_dup_ppm"),
            notify_delay_max: dur("notify_delay_max_ns", d.notify_delay_max),
            notify_recovery: dur("notify_recovery_ns", d.notify_recovery),
            ipi_drop_ppm: ppm32("ipi_drop_ppm"),
            ipi_delay_ppm: ppm32("ipi_delay_ppm"),
            ipi_dup_ppm: ppm32("ipi_dup_ppm"),
            ipi_delay_max: dur("ipi_delay_max_ns", d.ipi_delay_max),
            steal_spike_ppm: ppm32("steal_spike_ppm"),
            steal_spike_max: dur("steal_spike_max_ns", d.steal_spike_max),
            daemon_crash_ppm: ppm32("daemon_crash_ppm"),
            stale_read_ppm: ppm32("stale_read_ppm"),
            torn_read_ppm: ppm32("torn_read_ppm"),
            hotplug_abort_ppm: ppm32("hotplug_abort_ppm"),
        })
    }
}

/// The fate of one notification or IPI at the dispatch boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeliveryFault {
    /// Deliver normally.
    Deliver,
    /// Lose the doorbell; pending state survives and is recovered later.
    Drop,
    /// Deliver after an extra delay.
    Delay(SimDuration),
    /// Deliver normally, plus a spurious duplicate after the given delay.
    Duplicate(SimDuration),
}

/// The fate of one extendability read through the vScale channel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChannelReadFault {
    /// A fresh, consistent snapshot.
    Fresh,
    /// Re-serve the previous snapshot (the shared page was not yet
    /// republished when the guest read it).
    Stale,
    /// A torn snapshot: fields mixed across two consecutive publications,
    /// with an invalid accounting period. Must be detected and discarded.
    Torn,
}

/// Counters for every injected fault, for reporting and assertions.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FaultStats {
    /// Notifications dropped / delayed / duplicated.
    pub notify_dropped: u64,
    /// Notifications delayed.
    pub notify_delayed: u64,
    /// Notifications duplicated.
    pub notify_duplicated: u64,
    /// IPIs dropped.
    pub ipi_dropped: u64,
    /// IPIs delayed.
    pub ipi_delayed: u64,
    /// IPIs duplicated.
    pub ipi_duplicated: u64,
    /// Steal-time spikes injected.
    pub steal_spikes: u64,
    /// Daemon crash-restarts injected.
    pub daemon_crashes: u64,
    /// Stale channel reads served.
    pub stale_reads: u64,
    /// Torn channel reads served.
    pub torn_reads: u64,
    /// Hotplug removals aborted mid-`stop_machine`.
    pub hotplug_aborts: u64,
}

impl FaultStats {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.notify_dropped
            + self.notify_delayed
            + self.notify_duplicated
            + self.ipi_dropped
            + self.ipi_delayed
            + self.ipi_duplicated
            + self.steal_spikes
            + self.daemon_crashes
            + self.stale_reads
            + self.torn_reads
            + self.hotplug_aborts
    }

    /// One-line JSON digest for bench output.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"notify\":[{},{},{}],\"ipi\":[{},{},{}],\"steal\":{},",
                "\"crash\":{},\"stale\":{},\"torn\":{},\"abort\":{}}}"
            ),
            self.notify_dropped,
            self.notify_delayed,
            self.notify_duplicated,
            self.ipi_dropped,
            self.ipi_delayed,
            self.ipi_duplicated,
            self.steal_spikes,
            self.daemon_crashes,
            self.stale_reads,
            self.torn_reads,
            self.hotplug_aborts,
        )
    }
}

crate::snap_struct!(FaultStats {
    notify_dropped,
    notify_delayed,
    notify_duplicated,
    ipi_dropped,
    ipi_delayed,
    ipi_duplicated,
    steal_spikes,
    daemon_crashes,
    stale_reads,
    torn_reads,
    hotplug_aborts,
});

/// A live, seeded fault plan: configuration plus the private RNG stream
/// that makes every decision reproducible.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    rng: SimRng,
    stats: FaultStats,
}

// The configuration is structural: a restore target is built from the
// same config, so only the stream position and counters travel.
crate::snap_struct!(FaultPlan "fault" { rng, stats } skip { config });

impl FaultPlan {
    /// Builds a plan; the RNG is seeded from `config.seed` only.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan {
            rng: SimRng::new(config.seed),
            config,
            stats: FaultStats::default(),
        }
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Counters of everything injected so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    fn classify(
        &mut self,
        drop_ppm: u32,
        delay_ppm: u32,
        dup_ppm: u32,
        delay_max: SimDuration,
    ) -> DeliveryFault {
        if drop_ppm == 0 && delay_ppm == 0 && dup_ppm == 0 {
            return DeliveryFault::Deliver;
        }
        let r = self.rng.below(PPM) as u32;
        if r < drop_ppm {
            DeliveryFault::Drop
        } else if r < drop_ppm.saturating_add(delay_ppm) {
            DeliveryFault::Delay(self.draw_duration(delay_max))
        } else if r < drop_ppm.saturating_add(delay_ppm).saturating_add(dup_ppm) {
            DeliveryFault::Duplicate(self.draw_duration(delay_max))
        } else {
            DeliveryFault::Deliver
        }
    }

    fn draw_duration(&mut self, max: SimDuration) -> SimDuration {
        let hi = max.as_ns().max(1);
        SimDuration::from_ns(self.rng.range(1, hi + 1))
    }

    /// Decides the fate of one event-channel notification.
    pub fn on_notify(&mut self) -> DeliveryFault {
        let c = self.config;
        let f = self.classify(
            c.notify_drop_ppm,
            c.notify_delay_ppm,
            c.notify_dup_ppm,
            c.notify_delay_max,
        );
        match f {
            DeliveryFault::Drop => self.stats.notify_dropped += 1,
            DeliveryFault::Delay(_) => self.stats.notify_delayed += 1,
            DeliveryFault::Duplicate(_) => self.stats.notify_duplicated += 1,
            DeliveryFault::Deliver => {}
        }
        f
    }

    /// Decides the fate of one reschedule IPI.
    pub fn on_ipi(&mut self) -> DeliveryFault {
        let c = self.config;
        let f = self.classify(
            c.ipi_drop_ppm,
            c.ipi_delay_ppm,
            c.ipi_dup_ppm,
            c.ipi_delay_max,
        );
        match f {
            DeliveryFault::Drop => self.stats.ipi_dropped += 1,
            DeliveryFault::Delay(_) => self.stats.ipi_delayed += 1,
            DeliveryFault::Duplicate(_) => self.stats.ipi_duplicated += 1,
            DeliveryFault::Deliver => {}
        }
        f
    }

    /// Decides whether this scheduler tick injects a steal-time spike, and
    /// how long it lasts. The victim is picked by the caller via [`pick`].
    ///
    /// [`pick`]: FaultPlan::pick
    pub fn on_hv_tick(&mut self) -> Option<SimDuration> {
        if self.config.steal_spike_ppm == 0 {
            return None;
        }
        if (self.rng.below(PPM) as u32) < self.config.steal_spike_ppm {
            self.stats.steal_spikes += 1;
            Some(self.draw_duration(self.config.steal_spike_max))
        } else {
            None
        }
    }

    /// Decides whether the daemon crashes at this period boundary.
    pub fn on_daemon_timer(&mut self) -> bool {
        if self.config.daemon_crash_ppm == 0 {
            return false;
        }
        let crash = (self.rng.below(PPM) as u32) < self.config.daemon_crash_ppm;
        if crash {
            self.stats.daemon_crashes += 1;
        }
        crash
    }

    /// Decides the fate of one extendability read through the channel.
    pub fn on_channel_read(&mut self) -> ChannelReadFault {
        let c = self.config;
        if c.stale_read_ppm == 0 && c.torn_read_ppm == 0 {
            return ChannelReadFault::Fresh;
        }
        let r = self.rng.below(PPM) as u32;
        if r < c.stale_read_ppm {
            self.stats.stale_reads += 1;
            ChannelReadFault::Stale
        } else if r < c.stale_read_ppm.saturating_add(c.torn_read_ppm) {
            self.stats.torn_reads += 1;
            ChannelReadFault::Torn
        } else {
            ChannelReadFault::Fresh
        }
    }

    /// Decides whether a hotplug removal aborts mid-`stop_machine`, and if
    /// so, what fraction of the stop window elapses before the abort.
    pub fn on_hotplug_remove(&mut self) -> Option<f64> {
        if self.config.hotplug_abort_ppm == 0 {
            return None;
        }
        if (self.rng.below(PPM) as u32) < self.config.hotplug_abort_ppm {
            self.stats.hotplug_aborts += 1;
            Some(self.rng.range_f64(0.05, 0.95))
        } else {
            None
        }
    }

    /// A uniform draw in `[0, bound)` from the plan's private stream, for
    /// caller-side choices that must ride the same reproducible sequence
    /// (e.g. picking the steal-spike victim vCPU).
    pub fn pick(&mut self, bound: u64) -> u64 {
        self.rng.below(bound.max(1))
    }
}

/// What went wrong, structurally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimErrorKind {
    /// Effect routing did not quiesce within the op budget — a feedback
    /// loop between scheduler events and guest effects.
    RoutingStorm {
        /// Ops routed at one instant before giving up.
        ops: u64,
    },
    /// The event loop handled more same-instant events than the watchdog
    /// budget allows — events keep rescheduling at the same timestamp.
    Livelock {
        /// Events handled at the offending instant.
        events_at_instant: u64,
    },
    /// Virtual time advances but nothing makes forward progress (no guest
    /// work retired, no thread exits) for longer than the stall timeout.
    NoProgress {
        /// How long the fingerprint stayed frozen.
        stalled_for: SimDuration,
    },
    /// A cross-layer invariant failed where the code previously panicked.
    InvalidState {
        /// Human-readable description of the violated invariant.
        what: String,
    },
}

/// The diagnostics bundle attached to every [`SimError`]: enough context
/// to understand a wedged run without re-running it under a debugger.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Diagnostics {
    /// The tail of the trace ring (event backtrace), or a note that
    /// tracing was disabled.
    pub event_backtrace: String,
    /// Per-domain, per-vCPU state dump (online/frozen/running, daemon
    /// phase, thread counts).
    pub vcpu_dump: String,
}

/// A structured simulation error: what failed, when, in which layer, and
/// the state needed to diagnose it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimError {
    /// The failure class.
    pub kind: SimErrorKind,
    /// Virtual time of detection.
    pub at: SimTime,
    /// The layer the failure is attributed to, e.g. `"core::machine"`,
    /// `"core::daemon"`, `"guest-kernel::hotplug"`, `"xen-sched::credit"`.
    pub layer: &'static str,
    /// State captured at detection time.
    pub diagnostics: Diagnostics,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match &self.kind {
            SimErrorKind::RoutingStorm { ops } => {
                format!("routing storm: {ops} ops at one instant without quiescing")
            }
            SimErrorKind::Livelock { events_at_instant } => {
                format!("livelock: {events_at_instant} events handled at one instant")
            }
            SimErrorKind::NoProgress { stalled_for } => {
                format!("no forward progress for {stalled_for} of virtual time")
            }
            SimErrorKind::InvalidState { what } => format!("invalid state: {what}"),
        };
        writeln!(
            f,
            "simulation failed in {} at {}: {}",
            self.layer, self.at, what
        )?;
        writeln!(f, "--- vcpu state ---")?;
        writeln!(f, "{}", self.diagnostics.vcpu_dump)?;
        writeln!(f, "--- event backtrace (trace ring tail) ---")?;
        write!(f, "{}", self.diagnostics.event_backtrace)
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_config() -> FaultConfig {
        FaultConfig {
            seed: 42,
            notify_drop_ppm: 100_000,
            notify_delay_ppm: 100_000,
            notify_dup_ppm: 100_000,
            ipi_drop_ppm: 50_000,
            ipi_delay_ppm: 50_000,
            ipi_dup_ppm: 50_000,
            steal_spike_ppm: 20_000,
            daemon_crash_ppm: 10_000,
            stale_read_ppm: 200_000,
            torn_read_ppm: 100_000,
            hotplug_abort_ppm: 300_000,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn default_config_is_noop() {
        assert!(FaultConfig::default().is_noop());
        assert!(!busy_config().is_noop());
    }

    #[test]
    fn json_round_trips_bit_exactly() {
        let c = busy_config();
        let json = c.to_json();
        let back = FaultConfig::from_json(&json).expect("parses");
        assert_eq!(c, back);
        // Embedded in a larger line (as BenchSession output does) it still
        // parses, because extraction is key-directed.
        let line = format!("{{\"bench\":\"chaos\",\"fault_plan\":{json},\"x\":1}}");
        assert_eq!(FaultConfig::from_json(&line).expect("parses"), c);
    }

    #[test]
    fn from_json_requires_seed() {
        assert!(FaultConfig::from_json("{\"notify_drop_ppm\":5}").is_err());
    }

    #[test]
    fn same_seed_same_decisions() {
        let mut a = FaultPlan::new(busy_config());
        let mut b = FaultPlan::new(busy_config());
        for _ in 0..500 {
            assert_eq!(a.on_notify(), b.on_notify());
            assert_eq!(a.on_ipi(), b.on_ipi());
            assert_eq!(a.on_hv_tick(), b.on_hv_tick());
            assert_eq!(a.on_daemon_timer(), b.on_daemon_timer());
            assert_eq!(a.on_channel_read(), b.on_channel_read());
            assert_eq!(a.on_hotplug_remove(), b.on_hotplug_remove());
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total() > 0, "busy config injected nothing");
    }

    #[test]
    fn noop_plan_never_draws() {
        // A disabled plan must consume zero RNG state: every decision is
        // the identity and the stream is untouched.
        let mut p = FaultPlan::new(FaultConfig::default());
        for _ in 0..100 {
            assert_eq!(p.on_notify(), DeliveryFault::Deliver);
            assert_eq!(p.on_ipi(), DeliveryFault::Deliver);
            assert_eq!(p.on_hv_tick(), None);
            assert!(!p.on_daemon_timer());
            assert_eq!(p.on_channel_read(), ChannelReadFault::Fresh);
            assert_eq!(p.on_hotplug_remove(), None);
        }
        assert_eq!(p.stats().total(), 0);
        // The private stream was never advanced.
        let mut fresh = SimRng::new(0);
        assert_eq!(p.rng.next_u64(), fresh.next_u64());
    }

    #[test]
    fn saturated_rates_always_fire() {
        let cfg = FaultConfig {
            seed: 7,
            notify_drop_ppm: PPM as u32,
            ipi_dup_ppm: PPM as u32,
            steal_spike_ppm: PPM as u32,
            daemon_crash_ppm: PPM as u32,
            torn_read_ppm: PPM as u32,
            hotplug_abort_ppm: PPM as u32,
            ..FaultConfig::default()
        };
        let mut p = FaultPlan::new(cfg);
        for _ in 0..50 {
            assert_eq!(p.on_notify(), DeliveryFault::Drop);
            assert!(matches!(p.on_ipi(), DeliveryFault::Duplicate(_)));
            assert!(p.on_hv_tick().is_some());
            assert!(p.on_daemon_timer());
            assert_eq!(p.on_channel_read(), ChannelReadFault::Torn);
            let frac = p.on_hotplug_remove().expect("always aborts");
            assert!((0.05..0.95).contains(&frac));
        }
    }

    #[test]
    fn drawn_durations_respect_bounds() {
        let cfg = FaultConfig {
            seed: 9,
            notify_delay_ppm: PPM as u32,
            notify_delay_max: SimDuration::from_us(50),
            ..FaultConfig::default()
        };
        let mut p = FaultPlan::new(cfg);
        for _ in 0..200 {
            match p.on_notify() {
                DeliveryFault::Delay(d) => {
                    assert!(d > SimDuration::ZERO && d <= SimDuration::from_us(50));
                }
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn sim_error_renders_all_sections() {
        let e = SimError {
            kind: SimErrorKind::NoProgress {
                stalled_for: SimDuration::from_secs(5),
            },
            at: SimTime::from_ms(123),
            layer: "core::daemon",
            diagnostics: Diagnostics {
                event_backtrace: "tick…".into(),
                vcpu_dump: "dom0 vcpu0 running".into(),
            },
        };
        let s = e.to_string();
        assert!(s.contains("core::daemon"));
        assert!(s.contains("no forward progress"));
        assert!(s.contains("vcpu state"));
        assert!(s.contains("trace ring tail"));
    }
}
