//! The vScale balancer's coordination state (**Algorithm 2**).
//!
//! vScale adds exactly one variable to the kernel: the global
//! `cpu_freeze_mask`. Every load-balancing decision point consults it:
//!
//! - `select_task_rq` (fork/wakeup balance) never picks a frozen vCPU;
//! - `idle_balance` is disabled on a frozen vCPU (it must not pull);
//! - periodic balance skips frozen vCPUs as destinations;
//! - `schedule()` on a vCPU whose bit is set migrates every migratable
//!   thread away and lets the vCPU fall idle.
//!
//! The mask operations are the master-side steps (1)–(2) of Algorithm 2;
//! the target-side evacuation lives in
//! [`GuestKernel`](crate::kernel::GuestKernel). This module also tracks the
//! paper's freeze/unfreeze operation counts for the Table 3 bench.

use sim_core::ids::VcpuId;

/// The global `cpu_freeze_mask`: one bit per vCPU.
///
/// # Examples
///
/// ```
/// use guest_kernel::balancer::FreezeMask;
/// use sim_core::ids::VcpuId;
///
/// let mut mask = FreezeMask::new(4);
/// // The daemon freezes top-down, sparing the master vCPU0.
/// mask.freeze(mask.highest_active().unwrap());
/// assert_eq!(mask.active_count(), 3);
/// assert!(mask.is_frozen(VcpuId(3)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct FreezeMask {
    bits: Vec<bool>,
    freezes: u64,
    unfreezes: u64,
}

impl FreezeMask {
    /// Creates a mask for `n_vcpus` vCPUs, all active.
    pub fn new(n_vcpus: usize) -> Self {
        FreezeMask {
            bits: vec![false; n_vcpus],
            freezes: 0,
            unfreezes: 0,
        }
    }

    /// Number of vCPUs covered.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True if the mask covers no vCPUs.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Whether `v`'s bit is set (vCPU is frozen or freezing).
    pub fn is_frozen(&self, v: VcpuId) -> bool {
        self.bits[v.index()]
    }

    /// Bounds-checked [`is_frozen`](Self::is_frozen): `None` for a vCPU id
    /// the mask does not cover, instead of a panic — used on paths fed by
    /// externally-derived ids (daemon work tags, injected faults).
    pub fn try_is_frozen(&self, v: VcpuId) -> Option<bool> {
        self.bits.get(v.index()).copied()
    }

    /// Sets `v`'s bit. Returns `true` if the bit changed.
    pub fn freeze(&mut self, v: VcpuId) -> bool {
        let changed = !self.bits[v.index()];
        if changed {
            self.bits[v.index()] = true;
            self.freezes += 1;
        }
        changed
    }

    /// Clears `v`'s bit. Returns `true` if the bit changed.
    pub fn unfreeze(&mut self, v: VcpuId) -> bool {
        let changed = self.bits[v.index()];
        if changed {
            self.bits[v.index()] = false;
            self.unfreezes += 1;
        }
        changed
    }

    /// Bounds-checked [`freeze`](Self::freeze): `Err` names the violated
    /// invariant (out-of-range id, or the master vCPU0 which Algorithm 2
    /// never freezes) instead of panicking. `Ok` carries whether the bit
    /// changed, like the panicking variant.
    pub fn try_freeze(&mut self, v: VcpuId) -> Result<bool, &'static str> {
        if v.index() == 0 {
            return Err("the master vCPU is never frozen");
        }
        if v.index() >= self.bits.len() {
            return Err("freeze target outside the vCPU range");
        }
        Ok(self.freeze(v))
    }

    /// Bounds-checked [`unfreeze`](Self::unfreeze); see
    /// [`try_freeze`](Self::try_freeze).
    pub fn try_unfreeze(&mut self, v: VcpuId) -> Result<bool, &'static str> {
        if v.index() >= self.bits.len() {
            return Err("unfreeze target outside the vCPU range");
        }
        Ok(self.unfreeze(v))
    }

    /// Number of active (unfrozen) vCPUs.
    pub fn active_count(&self) -> usize {
        self.bits.iter().filter(|&&b| !b).count()
    }

    /// Iterator over active vCPU ids.
    pub fn active(&self) -> impl Iterator<Item = VcpuId> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| !b)
            .map(|(i, _)| VcpuId(i))
    }

    /// Iterator over frozen vCPU ids.
    pub fn frozen(&self) -> impl Iterator<Item = VcpuId> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| VcpuId(i))
    }

    /// The highest-indexed active vCPU — Algorithm 2 freezes from the top
    /// down so vCPU0 (the master) is never frozen.
    pub fn highest_active(&self) -> Option<VcpuId> {
        self.bits.iter().rposition(|&b| !b).map(VcpuId)
    }

    /// The lowest-indexed frozen vCPU — unfreezing goes bottom-up.
    pub fn lowest_frozen(&self) -> Option<VcpuId> {
        self.bits.iter().position(|&b| b).map(VcpuId)
    }

    /// Total freeze operations performed.
    pub fn freeze_count(&self) -> u64 {
        self.freezes
    }

    /// Total unfreeze operations performed.
    pub fn unfreeze_count(&self) -> u64 {
        self.unfreezes
    }
}

/// The balancer's fail-safe heartbeat watchdog on the vScale daemon.
///
/// The freeze mask is only safe to honor while the daemon keeps it fresh:
/// a dead or wedged daemon would leave vCPUs frozen forever against a
/// workload that now needs them. The kernel therefore counts daemon
/// periods with no valid update ([`FailSafe::tick`]) and, after
/// `timeout_ticks` silent periods, trips — the caller then unfreezes every
/// vCPU, degrading gracefully to the paper's unscaled-SMP baseline rather
/// than running with a stale mask. A valid update
/// ([`FailSafe::record_update`]) rearms the watchdog.
#[derive(Clone, Debug)]
pub struct FailSafe {
    timeout_ticks: u32,
    silent_ticks: u32,
    trips: u64,
}

impl FailSafe {
    /// Creates a watchdog that trips after `timeout_ticks` consecutive
    /// daemon periods without a valid update. `0` disables it.
    pub fn new(timeout_ticks: u32) -> Self {
        FailSafe {
            timeout_ticks,
            silent_ticks: 0,
            trips: 0,
        }
    }

    /// A valid daemon update arrived: rearm.
    pub fn record_update(&mut self) {
        self.silent_ticks = 0;
    }

    /// One daemon period elapsed. Returns `true` when the silence just
    /// crossed the timeout — the caller must unfreeze all vCPUs. The
    /// counter resets on a trip, so a permanently dead daemon trips once
    /// per timeout window (each trip is idempotent: unfreezing an
    /// unfrozen mask is a no-op).
    pub fn tick(&mut self) -> bool {
        if self.timeout_ticks == 0 {
            return false;
        }
        self.silent_ticks += 1;
        if self.silent_ticks >= self.timeout_ticks {
            self.silent_ticks = 0;
            self.trips += 1;
            true
        } else {
            false
        }
    }

    /// Consecutive silent periods so far.
    pub fn silent_ticks(&self) -> u32 {
        self.silent_ticks
    }

    /// Times the fail-safe has tripped.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

/// Freeze-rate hysteresis: the balancer's defense against
/// extendability-oscillation attacks.
///
/// An adversarial neighbor that square-waves its demand at the daemon's
/// own cadence makes the victim's extendability flip every period, and
/// the balancer then thrashes freeze/unfreeze — each flip costs a
/// reconfiguration IPI, an evacuation pass, and a cold run queue. The
/// gate enforces a minimum dwell: after an applied reconfiguration,
/// further grow/shrink decisions are suppressed until `dwell_periods`
/// daemon periods have elapsed. `dwell_periods == 0` disables the gate
/// (the paper-faithful default); suppression is counted so the attack
/// grid can report defense activity. Purely counter-driven off the
/// daemon's own timer — no wall clock, no entropy — so gated runs replay
/// bit-identically at any `VSCALE_THREADS`.
#[derive(Clone, Debug)]
pub struct FreezeRateGate {
    /// Daemon periods since the last applied reconfiguration (saturating;
    /// starts past any plausible dwell so the first decision is free).
    since_reconfig: u32,
    /// Reconfigurations suppressed by the dwell requirement.
    suppressed: u64,
}

impl Default for FreezeRateGate {
    fn default() -> Self {
        FreezeRateGate {
            since_reconfig: u32::MAX,
            suppressed: 0,
        }
    }
}

impl FreezeRateGate {
    /// One daemon period elapsed.
    pub fn tick(&mut self) {
        self.since_reconfig = self.since_reconfig.saturating_add(1);
    }

    /// Asks whether a grow/shrink step may be applied now under a
    /// `dwell_periods` requirement. Returns `true` (and restarts the
    /// dwell window) when allowed; otherwise counts a suppression.
    pub fn allow(&mut self, dwell_periods: u32) -> bool {
        if dwell_periods == 0 || self.since_reconfig >= dwell_periods {
            self.since_reconfig = 0;
            true
        } else {
            self.suppressed += 1;
            false
        }
    }

    /// Reconfigurations suppressed so far.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }
}
sim_core::snap_struct!(FreezeMask {
    bits: twin "freeze-mask width differs from twin",
    freezes,
    unfreezes,
});

sim_core::snap_struct!(FailSafe {
    timeout_ticks,
    silent_ticks,
    trips,
});

sim_core::snap_struct!(FreezeRateGate {
    since_reconfig,
    suppressed,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_rate_gate_enforces_dwell_and_counts_suppressions() {
        let mut g = FreezeRateGate::default();
        // First decision is always free (gate starts saturated).
        assert!(g.allow(4));
        // Within the dwell window every decision is suppressed.
        g.tick();
        assert!(!g.allow(4));
        g.tick();
        g.tick();
        assert!(!g.allow(4));
        assert_eq!(g.suppressed(), 2);
        // Dwell satisfied: allowed again, and the window restarts.
        g.tick();
        assert!(g.allow(4));
        assert!(!g.allow(4));
        assert_eq!(g.suppressed(), 3);
    }

    #[test]
    fn freeze_rate_gate_disabled_at_zero_dwell() {
        let mut g = FreezeRateGate::default();
        for _ in 0..10 {
            assert!(g.allow(0));
        }
        assert_eq!(g.suppressed(), 0);
    }

    #[test]
    fn failsafe_trips_after_silent_periods_and_rearms_on_update() {
        let mut fs = FailSafe::new(3);
        assert!(!fs.tick());
        assert!(!fs.tick());
        fs.record_update();
        assert_eq!(fs.silent_ticks(), 0, "a valid update rearms");
        assert!(!fs.tick());
        assert!(!fs.tick());
        assert!(fs.tick(), "third silent period trips");
        assert_eq!(fs.trips(), 1);
        assert_eq!(fs.silent_ticks(), 0, "trip resets the counter");
        // A permanently dead daemon trips once per window, idempotently.
        assert!(!fs.tick());
        assert!(!fs.tick());
        assert!(fs.tick());
        assert_eq!(fs.trips(), 2);
        // Zero timeout disables the watchdog entirely.
        let mut off = FailSafe::new(0);
        for _ in 0..100 {
            assert!(!off.tick());
        }
        assert_eq!(off.trips(), 0);
    }

    #[test]
    fn freeze_and_unfreeze_toggle_bits() {
        let mut m = FreezeMask::new(4);
        assert_eq!(m.active_count(), 4);
        assert!(m.freeze(VcpuId(3)));
        assert!(!m.freeze(VcpuId(3)), "double freeze is a no-op");
        assert!(m.is_frozen(VcpuId(3)));
        assert_eq!(m.active_count(), 3);
        assert!(m.unfreeze(VcpuId(3)));
        assert!(!m.unfreeze(VcpuId(3)));
        assert_eq!(m.active_count(), 4);
        assert_eq!(m.freeze_count(), 1);
        assert_eq!(m.unfreeze_count(), 1);
    }

    #[test]
    fn freeze_order_is_top_down_sparing_vcpu0() {
        let mut m = FreezeMask::new(4);
        assert_eq!(m.highest_active(), Some(VcpuId(3)));
        m.freeze(VcpuId(3));
        assert_eq!(m.highest_active(), Some(VcpuId(2)));
        m.freeze(VcpuId(2));
        m.freeze(VcpuId(1));
        assert_eq!(m.highest_active(), Some(VcpuId(0)));
        // vCPU0 is the last one standing: the daemon never freezes it.
    }

    #[test]
    fn unfreeze_order_is_bottom_up() {
        let mut m = FreezeMask::new(4);
        m.freeze(VcpuId(1));
        m.freeze(VcpuId(2));
        m.freeze(VcpuId(3));
        assert_eq!(m.lowest_frozen(), Some(VcpuId(1)));
        m.unfreeze(VcpuId(1));
        assert_eq!(m.lowest_frozen(), Some(VcpuId(2)));
    }

    #[test]
    fn active_iter_lists_unfrozen() {
        let mut m = FreezeMask::new(3);
        m.freeze(VcpuId(1));
        let active: Vec<_> = m.active().collect();
        assert_eq!(active, vec![VcpuId(0), VcpuId(2)]);
        let frozen: Vec<_> = m.frozen().collect();
        assert_eq!(frozen, vec![VcpuId(1)]);
    }

    #[test]
    fn checked_ops_reject_bad_targets_without_panicking() {
        let mut m = FreezeMask::new(3);
        assert!(m.try_freeze(VcpuId(0)).is_err(), "vCPU0 is protected");
        assert!(m.try_freeze(VcpuId(9)).is_err());
        assert!(m.try_unfreeze(VcpuId(9)).is_err());
        assert_eq!(m.try_is_frozen(VcpuId(9)), None);
        assert_eq!(m.try_freeze(VcpuId(2)), Ok(true));
        assert_eq!(m.try_freeze(VcpuId(2)), Ok(false), "idempotent");
        assert_eq!(m.try_is_frozen(VcpuId(2)), Some(true));
        assert_eq!(m.try_unfreeze(VcpuId(2)), Ok(true));
        assert_eq!(m.active_count(), 3, "state intact after rejections");
    }
}
