//! The vScale user-space daemon.
//!
//! The daemon is a real-time-class process pinned to vCPU0 (the master
//! vCPU) so it executes deterministically and is never migrated. Every
//! period it reads the VM's CPU extendability through the vScale channel
//! (one syscall + one hypercall, ~0.91 µs) and compares the optimal vCPU
//! count against the number currently active. On a mismatch it instructs
//! the kernel balancer to freeze or unfreeze one vCPU at a time
//! (Algorithm 2), each master-side operation costing ~2.1 µs.
//!
//! Because the daemon runs *inside* the guest, its reactions are delayed
//! whenever vCPU0 itself is descheduled — the machine models this by
//! charging the daemon's work as kernel work on vCPU0, which only executes
//! while vCPU0 holds a pCPU.
//!
//! This module holds the daemon's per-domain state machine; the machine
//! drives it from timer events and kernel-work completions.

use sim_core::ids::VcpuId;
use sim_core::time::SimDuration;

/// Extendability (in pCPUs) beyond the current active count required
/// before unfreezing another vCPU. Algorithm 1's ceiling grants a vCPU
/// for *any* partial allocation; running a vCPU on a sliver of credit
/// just drives the domain OVER and re-introduces the very scheduling
/// delays vScale removes, so the daemon only activates the extra vCPU
/// once it is at least this well funded.
pub const GROW_MARGIN: f64 = 0.35;
/// Exponential smoothing factor applied to the 10 ms extendability
/// samples before deciding (new = alpha·sample + (1−alpha)·old).
/// Window-level consumption is noisy; smoothing keeps the daemon from
/// chasing single-window slack spikes while still reacting within a few
/// tens of milliseconds.
pub const EMA_ALPHA: f64 = 0.2;
/// How underfunded (in pCPUs) the marginal active vCPU must be before
/// the daemon freezes it even though the ceiling rule nominally keeps
/// it: shrink when `ext <= active - SHRINK_MARGIN`. A vCPU running on a
/// 30% credit sliver drags the whole domain OVER.
pub const SHRINK_MARGIN: f64 = 0.65;

/// Daemon tuning parameters. The fixed margins and smoothing are
/// [`GROW_MARGIN`], [`SHRINK_MARGIN`] and [`EMA_ALPHA`].
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// Polling period (the paper's prototype recomputes extendability
    /// every 10 ms in the hypervisor; the daemon samples at the same
    /// cadence).
    pub period: SimDuration,
    /// Consecutive periods a *smaller* target must persist before the
    /// daemon freezes a vCPU (hysteresis against transient dips; growing
    /// is always immediate so ramp-ups exploit parallelism).
    pub shrink_patience: u32,
    /// Growth probing: if `n_opt > active` persists this many periods but
    /// the margin keeps blocking growth, grow anyway. Algorithm 1's slack
    /// split is conservative (competitors that cannot spend their share
    /// still dilute it), so persistent headroom is probed; a wrong probe
    /// is rolled back by the shrink margin within a few periods.
    pub grow_patience: u32,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            period: SimDuration::from_ms(10),
            shrink_patience: 3,
            grow_patience: 5,
        }
    }
}

/// Kernel-work tags used by the daemon (must not collide with workload
/// tags, which start at [`TAG_USER_BASE`]).
pub const TAG_READ: u64 = 1;
/// Tag base for freeze operations; the target vCPU index is added.
pub const TAG_FREEZE_BASE: u64 = 1_000;
/// Tag base for unfreeze operations; the target vCPU index is added.
pub const TAG_UNFREEZE_BASE: u64 = 2_000;
/// Tag base for hotplug completions.
pub const TAG_HOTPLUG_BASE: u64 = 3_000;
/// First tag value available to workloads.
pub const TAG_USER_BASE: u64 = 1_000_000;

/// What the daemon is currently doing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DaemonPhase {
    /// Waiting for the next timer.
    Idle,
    /// The channel-read work is queued on vCPU0.
    Reading,
    /// A freeze/unfreeze operation's master-side work is queued.
    Reconfiguring {
        /// The vCPU being frozen or unfrozen.
        target: VcpuId,
        /// `true` = freeze, `false` = unfreeze.
        freeze: bool,
    },
}

/// Per-domain daemon state.
#[derive(Clone, Debug)]
pub struct DaemonState {
    /// Tuning parameters.
    pub config: DaemonConfig,
    /// Current phase.
    pub phase: DaemonPhase,
    /// Consecutive periods the computed target stayed below the active
    /// count.
    pub shrink_streak: u32,
    /// Consecutive periods the target stayed above the active count while
    /// the grow margin blocked growth.
    pub grow_streak: u32,
    /// Smoothed extendability in pCPUs (`None` until the first sample).
    pub ext_ema: Option<f64>,
    /// Channel reads performed.
    pub reads: u64,
    /// Reconfiguration operations completed.
    pub reconfigs: u64,
    /// Crash-restarts survived (fault injection).
    pub crashes: u64,
    /// Extendability samples discarded as invalid (torn channel reads
    /// caught by validation) or orphaned by a crash.
    pub discarded_reads: u64,
    /// Hotplug removals that aborted mid-`stop_machine` (fault injection).
    pub hotplug_aborts: u64,
    /// Reads issued before a crash that are still in flight: their
    /// completions must be discarded, because the restarted daemon never
    /// asked for them (the in-flight `ExtendInfo` snapshot dies with the
    /// process). A counter, not a flag — kernel work completes FIFO on
    /// vCPU0, so each orphaned completion consumes one unit before any
    /// post-restart read can complete.
    pub orphaned_reads: u64,
    /// Set by a crash-restart: the next completed read must reconcile the
    /// guest's freeze mask against the hypervisor's per-vCPU frozen view,
    /// because a freeze/unfreeze hypercall issued by the dead incarnation
    /// may have been lost with it.
    pub needs_resync: bool,
    /// Crash-restart resynchronizations performed.
    pub resyncs: u64,
    /// Freeze-state mismatches repaired by those resyncs.
    pub resync_repairs: u64,
}

impl DaemonState {
    /// Creates an idle daemon.
    pub fn new(config: DaemonConfig) -> Self {
        DaemonState {
            config,
            phase: DaemonPhase::Idle,
            shrink_streak: 0,
            grow_streak: 0,
            ext_ema: None,
            reads: 0,
            reconfigs: 0,
            crashes: 0,
            discarded_reads: 0,
            hotplug_aborts: 0,
            orphaned_reads: 0,
            needs_resync: false,
            resyncs: 0,
            resync_repairs: 0,
        }
    }

    /// Crash-and-restart: the process dies and is respawned by init within
    /// the same period. All soft state — the EMA, both hysteresis streaks,
    /// the phase machine, and any in-flight read snapshot — is lost;
    /// lifetime counters survive because they are *our* bookkeeping, not
    /// the daemon's memory. A reconfiguration whose master-side work was
    /// already queued still completes (the kernel work was already
    /// submitted); only its tracking is forgotten, so the restarted daemon
    /// re-reads and re-converges from scratch.
    pub fn crash_restart(&mut self) {
        if self.phase == DaemonPhase::Reading {
            self.orphaned_reads += 1;
        }
        self.phase = DaemonPhase::Idle;
        self.shrink_streak = 0;
        self.grow_streak = 0;
        self.ext_ema = None;
        self.crashes += 1;
        // The new incarnation cannot trust that the dead one's last
        // freeze/unfreeze hypercall landed: reconcile on the next read.
        self.needs_resync = true;
    }

    /// Feeds one extendability sample (pCPUs) into the smoother and
    /// returns the smoothed value.
    pub fn smooth(&mut self, ext_pcpus: f64) -> f64 {
        let ema = match self.ext_ema {
            Some(prev) => EMA_ALPHA * ext_pcpus + (1.0 - EMA_ALPHA) * prev,
            None => ext_pcpus,
        };
        self.ext_ema = Some(ema);
        ema
    }

    /// Decides the next reconfiguration step given the Algorithm 1 target
    /// `n_opt` (computed from the smoothed extendability), the smoothed
    /// extendability in pCPUs, and the current active count. Applies
    /// shrink hysteresis and the grow margin. Returns `Some(+1)` to
    /// unfreeze one vCPU, `Some(-1)` to freeze one, or `None` to hold.
    pub fn decide(&mut self, n_opt: usize, ext_pcpus: f64, active: usize) -> Option<i32> {
        use std::cmp::Ordering;
        let badly_underfunded = ext_pcpus <= active as f64 - SHRINK_MARGIN;
        match n_opt.cmp(&active) {
            Ordering::Greater => {
                self.shrink_streak = 0;
                if ext_pcpus >= active as f64 + GROW_MARGIN {
                    self.grow_streak = 0;
                    Some(1)
                } else {
                    self.grow_streak += 1;
                    if self.grow_streak >= self.config.grow_patience {
                        self.grow_streak = 0;
                        Some(1) // Probe.
                    } else {
                        None
                    }
                }
            }
            Ordering::Less => {
                self.grow_streak = 0;
                self.shrink_streak += 1;
                if self.shrink_streak >= self.config.shrink_patience {
                    Some(-1)
                } else {
                    None
                }
            }
            Ordering::Equal if badly_underfunded && active > 1 => {
                self.grow_streak = 0;
                self.shrink_streak += 1;
                if self.shrink_streak >= self.config.shrink_patience {
                    Some(-1)
                } else {
                    None
                }
            }
            Ordering::Equal => {
                self.shrink_streak = 0;
                self.grow_streak = 0;
                None
            }
        }
    }
}

sim_core::snap_enum!(DaemonPhase {
    0 => Idle,
    1 => Reading,
    2 => Reconfiguring { target, freeze },
});

// The full daemon state machine — phase, hysteresis streaks, the EMA,
// and every lifetime counter. The tuning config is structural (restore
// targets a twin built from the same spec).
sim_core::snap_struct!(DaemonState "daemon" {
    phase,
    shrink_streak,
    grow_streak,
    ext_ema,
    reads,
    reconfigs,
    crashes,
    discarded_reads,
    hotplug_aborts,
    orphaned_reads,
    needs_resync,
    resyncs,
    resync_repairs,
} skip { config });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_is_immediate_when_funded() {
        let mut d = DaemonState::new(DaemonConfig::default());
        assert_eq!(d.decide(4, 3.6, 2), Some(1));
        assert_eq!(d.decide(3, 2.9, 2), Some(1));
    }

    #[test]
    fn grow_margin_blocks_sliver_funding() {
        let mut d = DaemonState::new(DaemonConfig::default());
        // ceil(2.1) = 3 > 2 active, but the third vCPU would run on a
        // 0.1-pCPU sliver: hold at 2.
        assert_eq!(d.decide(3, 2.1, 2), None);
        assert_eq!(d.decide(3, 2.5, 2), Some(1));
    }

    #[test]
    fn persistent_headroom_is_probed() {
        let mut d = DaemonState::new(DaemonConfig {
            grow_patience: 3,
            ..DaemonConfig::default()
        });
        assert_eq!(d.decide(3, 2.2, 2), None);
        assert_eq!(d.decide(3, 2.2, 2), None);
        assert_eq!(d.decide(3, 2.2, 2), Some(1), "third period probes");
        // Streak reset after the probe.
        assert_eq!(d.decide(4, 3.2, 3), None);
    }

    #[test]
    fn badly_underfunded_marginal_vcpu_is_frozen() {
        let mut d = DaemonState::new(DaemonConfig {
            shrink_patience: 1,
            ..DaemonConfig::default()
        });
        // ceil(2.2) = 3 = active, but the third vCPU runs on 0.2 pCPUs.
        assert_eq!(d.decide(3, 2.2, 3), Some(-1));
        // Adequately funded marginal vCPU is kept.
        assert_eq!(d.decide(3, 2.8, 3), None);
        // A UP domain is never shrunk.
        assert_eq!(d.decide(1, 0.1, 1), None);
    }

    #[test]
    fn shrink_needs_patience() {
        let mut d = DaemonState::new(DaemonConfig {
            shrink_patience: 2,
            ..DaemonConfig::default()
        });
        assert_eq!(d.decide(1, 1.0, 4), None, "first low sample: wait");
        assert_eq!(d.decide(1, 1.0, 4), Some(-1), "second low sample: shrink");
    }

    #[test]
    fn equal_resets_streak() {
        let mut d = DaemonState::new(DaemonConfig {
            shrink_patience: 2,
            ..DaemonConfig::default()
        });
        assert_eq!(d.decide(1, 1.0, 4), None);
        assert_eq!(d.decide(4, 4.0, 4), None);
        assert_eq!(d.decide(1, 1.0, 4), None, "streak restarted");
    }

    #[test]
    fn grow_resets_streak() {
        let mut d = DaemonState::new(DaemonConfig {
            shrink_patience: 2,
            ..DaemonConfig::default()
        });
        assert_eq!(d.decide(2, 2.0, 4), None);
        assert_eq!(d.decide(5, 5.0, 4), Some(1));
        assert_eq!(d.decide(2, 2.0, 4), None);
    }

    #[test]
    fn crash_restart_loses_soft_state_keeps_counters() {
        let mut d = DaemonState::new(DaemonConfig {
            shrink_patience: 3,
            ..DaemonConfig::default()
        });
        d.smooth(3.0);
        d.decide(1, 1.0, 4);
        d.reads = 7;
        d.reconfigs = 2;
        d.phase = DaemonPhase::Reading;
        assert!(d.ext_ema.is_some());
        assert_eq!(d.shrink_streak, 1);

        d.crash_restart();
        assert_eq!(d.phase, DaemonPhase::Idle);
        assert_eq!(d.ext_ema, None, "EMA dies with the process");
        assert_eq!(d.shrink_streak, 0);
        assert_eq!(d.grow_streak, 0);
        assert_eq!(d.orphaned_reads, 1, "the in-flight read is orphaned");
        assert_eq!(d.crashes, 1);
        assert!(d.needs_resync, "a restart distrusts the hypervisor view");
        assert_eq!((d.reads, d.reconfigs), (7, 2), "counters survive");

        // A crash while idle orphans nothing further.
        d.crash_restart();
        assert_eq!(d.orphaned_reads, 1);
        assert_eq!(d.crashes, 2);
    }
}
