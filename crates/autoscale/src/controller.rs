//! The SLO feedback law: windows in, scale decisions out.
//!
//! The controller is pure — it never touches the cluster. Every
//! sampling period it receives one [`SloWindow`] and the current
//! in-service host count, folds the window into its smoothed state, and
//! answers `Hold`, `Out`, or `In`. Keeping it cluster-free is what lets
//! the hysteresis property tests drive it with synthetic window
//! sequences and assert on the decision stream alone.
//!
//! Three mechanisms prevent flapping, in series:
//!
//! 1. **EMA smoothing** — the raw window p99 is noisy (a 20 ms window
//!    completes a few hundred requests); decisions compare the SLO
//!    against an exponential moving average instead.
//! 2. **Dwell (hysteresis proper)** — a breach must persist for
//!    [`SCALE_OUT_DWELL`] consecutive samples before scale-out fires, an
//!    idle spell for [`SCALE_IN_DWELL`] before scale-in does, and the two
//!    thresholds leave a dead band between them (`scale_in_ratio` <
//!    `scale_out_ratio`) where neither streak grows.
//! 3. **Cooldown** — after any action the controller holds for
//!    [`COOLDOWN`], long enough for live migrations to cut over and the
//!    EMA to re-converge on the new fleet, so it never reacts to the
//!    transient its own actuation caused.

use metrics::elastic::SloWindow;
use sim_core::time::{SimDuration, SimTime};
use vscale::ElasticConfig;

/// EMA weight of the newest sample, in (0, 1].
pub const EMA_ALPHA: f64 = 0.35;
/// Scale in only if the smoothed fleet throughput fits on one fewer
/// host at this share of [`PER_HOST_RPS`].
pub const SCALE_IN_UTIL: f64 = 0.6;
/// Operator estimate of one host's comfortable capacity, req/s.
pub const PER_HOST_RPS: f64 = 7_000.0;
/// Queue-depth escape hatch: scale out immediately (dwell still
/// applies) when in-flight requests exceed this many per host.
pub const QUEUE_DEPTH_PER_HOST: u64 = 96;
/// Consecutive breach samples before scale-out fires.
pub const SCALE_OUT_DWELL: u32 = 2;
/// Consecutive idle samples before scale-in fires.
pub const SCALE_IN_DWELL: u32 = 8;
/// Dead time after any action before the next may fire.
pub const COOLDOWN: SimDuration = SimDuration::from_ms(150);

/// What the controller wants done after one sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleDecision {
    /// No action this sample.
    Hold,
    /// Activate a standby host and migrate load onto it.
    Out,
    /// Evacuate a host and retire it to standby.
    In,
}

/// The sampled feedback controller.
#[derive(Clone, Debug)]
pub struct SloController {
    cfg: ElasticConfig,
    /// Smoothed p99, µs. Seeded by the first window rather than zero so
    /// a run that starts under load does not owe the EMA a warmup.
    ema_p99_us: f64,
    /// Smoothed completion throughput, req/s — the capacity signal the
    /// scale-in guard compares against the shrunken fleet.
    ema_rps: f64,
    primed: bool,
    breach_streak: u32,
    idle_streak: u32,
    cooldown_until: SimTime,
}

impl SloController {
    /// A controller with no history.
    pub fn new(cfg: ElasticConfig) -> Self {
        assert!(
            cfg.scale_in_ratio < cfg.scale_out_ratio,
            "the dead band requires scale_in_ratio < scale_out_ratio"
        );
        assert!(cfg.min_hosts >= 1, "a fleet cannot drain to zero hosts");
        SloController {
            cfg,
            ema_p99_us: 0.0,
            ema_rps: 0.0,
            primed: false,
            breach_streak: 0,
            idle_streak: 0,
            cooldown_until: SimTime::ZERO,
        }
    }

    /// The smoothed p99 the last decision compared against the SLO,
    /// rounded to the integer µs the timeline records.
    pub fn ema_p99_us(&self) -> u64 {
        self.ema_p99_us.round() as u64
    }

    /// Folds one window in and decides. `hosts` is the in-service host
    /// count the decision would act on.
    pub fn observe(&mut self, now: SimTime, w: &SloWindow, hosts: usize) -> ScaleDecision {
        assert!(hosts >= 1, "observing an empty fleet");
        let raw_p99 = w.p99_us() as f64;
        let raw_rps = w.completed as f64 * 1e6 / self.cfg.sample_period.as_us_f64();
        if self.primed {
            let a = EMA_ALPHA;
            self.ema_p99_us = a * raw_p99 + (1.0 - a) * self.ema_p99_us;
            self.ema_rps = a * raw_rps + (1.0 - a) * self.ema_rps;
        } else {
            self.ema_p99_us = raw_p99;
            self.ema_rps = raw_rps;
            self.primed = true;
        }
        let slo = self.cfg.slo_p99_us as f64;
        // Breach: the smoothed tail is closing on the SLO, or the
        // un-smoothable emergencies — backlog drops and a queue
        // exploding past what the fleet can hold.
        let breach = self.ema_p99_us > self.cfg.scale_out_ratio * slo
            || w.drops > 0
            || w.in_flight > QUEUE_DEPTH_PER_HOST * hosts as u64;
        // Idle: comfortably inside the dead band *and* the smoothed
        // throughput would fit on one fewer host with headroom.
        let idle = !breach
            && self.ema_p99_us < self.cfg.scale_in_ratio * slo
            && hosts > 1
            && self.ema_rps <= SCALE_IN_UTIL * PER_HOST_RPS * (hosts - 1) as f64;
        if breach {
            self.breach_streak += 1;
            self.idle_streak = 0;
        } else if idle {
            self.idle_streak += 1;
            self.breach_streak = 0;
        } else {
            self.breach_streak = 0;
            self.idle_streak = 0;
        }
        // Streaks accumulate through cooldown, but nothing fires until
        // it expires — the actuator needs its settling time.
        if now < self.cooldown_until {
            return ScaleDecision::Hold;
        }
        if self.breach_streak >= SCALE_OUT_DWELL && hosts < self.cfg.max_hosts {
            self.arm_cooldown(now);
            return ScaleDecision::Out;
        }
        if self.idle_streak >= SCALE_IN_DWELL && hosts > self.cfg.min_hosts {
            self.arm_cooldown(now);
            return ScaleDecision::In;
        }
        ScaleDecision::Hold
    }

    fn arm_cooldown(&mut self, now: SimTime) {
        self.breach_streak = 0;
        self.idle_streak = 0;
        self.cooldown_until = now + COOLDOWN;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ElasticConfig {
        ElasticConfig {
            max_hosts: 8,
            ..ElasticConfig::default()
        }
    }

    fn window(p99_us: u64, completed: u64) -> SloWindow {
        let mut w = SloWindow {
            completed,
            ..SloWindow::default()
        };
        for _ in 0..completed.max(1) {
            w.latency_us.record(p99_us);
        }
        w
    }

    fn drive(
        ctl: &mut SloController,
        from_sample: u64,
        windows: &[(u64, u64)],
        hosts: usize,
    ) -> Vec<(u64, ScaleDecision)> {
        let period_ms = ctl.cfg.sample_period.as_ms();
        windows
            .iter()
            .enumerate()
            .map(|(i, &(p99, n))| {
                let t = SimTime::from_ms(period_ms * (from_sample + i as u64));
                (t.as_ms(), ctl.observe(t, &window(p99, n), hosts))
            })
            .collect()
    }

    #[test]
    fn sustained_breach_scales_out_after_the_dwell() {
        let mut ctl = SloController::new(cfg());
        let log = drive(&mut ctl, 1, &[(12_000, 200); 4], 3);
        let outs: Vec<u64> = log
            .iter()
            .filter(|(_, d)| *d == ScaleDecision::Out)
            .map(|&(t, _)| t)
            .collect();
        // Dwell 2: the second consecutive breach fires; cooldown then
        // swallows the rest of this burst.
        assert_eq!(outs, vec![40]);
    }

    #[test]
    fn one_noisy_window_does_not_scale() {
        let mut ctl = SloController::new(cfg());
        let seq = [(1_000, 300), (30_000, 300), (1_000, 300), (1_000, 300)];
        let log = drive(&mut ctl, 1, &seq, 3);
        assert!(
            log.iter().all(|(_, d)| *d == ScaleDecision::Hold),
            "a single outlier window must be absorbed: {log:?}"
        );
    }

    #[test]
    fn cooldown_separates_consecutive_actions() {
        let mut ctl = SloController::new(cfg());
        // 40 consecutive breach windows, 20 ms apart: actions may only
        // fire 150 ms (the cooldown) or more apart.
        let log = drive(&mut ctl, 1, &[(20_000, 200); 40], 3);
        let fires: Vec<u64> = log
            .iter()
            .filter(|(_, d)| *d != ScaleDecision::Hold)
            .map(|&(t, _)| t)
            .collect();
        assert!(
            fires.len() >= 2,
            "sustained breach keeps scaling: {fires:?}"
        );
        for pair in fires.windows(2) {
            assert!(
                pair[1] - pair[0] >= 150,
                "actions closer than the cooldown: {fires:?}"
            );
        }
    }

    #[test]
    fn idle_fleet_scales_in_only_after_the_long_dwell() {
        let mut ctl = SloController::new(cfg());
        // Low latency, low throughput on 4 hosts: 7 idle samples hold,
        // the 8th (SCALE_IN_DWELL) fires In.
        let log = drive(&mut ctl, 1, &[(800, 40); 9], 4);
        let decisions: Vec<ScaleDecision> = log.iter().map(|&(_, d)| d).collect();
        assert_eq!(decisions[..7], [ScaleDecision::Hold; 7]);
        assert_eq!(decisions[7], ScaleDecision::In);
    }

    #[test]
    fn dead_band_holds_forever() {
        let mut ctl = SloController::new(cfg());
        // ema settles between the in-ratio (4 ms) and out-ratio (8 ms)
        // thresholds: neither streak ever grows.
        let log = drive(&mut ctl, 1, &[(6_000, 200); 50], 3);
        assert!(log.iter().all(|(_, d)| *d == ScaleDecision::Hold));
    }

    #[test]
    fn bounds_clamp_the_decisions() {
        let mut ctl = SloController::new(ElasticConfig {
            max_hosts: 3,
            min_hosts: 3,
            ..ElasticConfig::default()
        });
        let breached = drive(&mut ctl, 1, &[(20_000, 200); 6], 3);
        assert!(breached.iter().all(|(_, d)| *d == ScaleDecision::Hold));
        let mut ctl = SloController::new(ElasticConfig {
            max_hosts: 3,
            min_hosts: 3,
            ..ElasticConfig::default()
        });
        let idle = drive(&mut ctl, 1, &[(500, 10); 20], 3);
        assert!(idle.iter().all(|(_, d)| *d == ScaleDecision::Hold));
    }

    #[test]
    fn drops_breach_immediately_regardless_of_latency() {
        let mut ctl = SloController::new(cfg());
        let mut w = window(500, 100);
        w.drops = 3;
        let t1 = SimTime::from_ms(20);
        let t2 = SimTime::from_ms(40);
        assert_eq!(ctl.observe(t1, &w, 3), ScaleDecision::Hold, "dwell 1 of 2");
        assert_eq!(ctl.observe(t2, &w, 3), ScaleDecision::Out);
    }

    #[test]
    fn queue_depth_escape_hatch_fires_on_backlog() {
        let mut ctl = SloController::new(cfg());
        let mut w = window(500, 100);
        w.in_flight = 96 * 3 + 1;
        let log: Vec<ScaleDecision> = (1..=2)
            .map(|k| ctl.observe(SimTime::from_ms(20 * k), &w, 3))
            .collect();
        assert_eq!(log, [ScaleDecision::Hold, ScaleDecision::Out]);
    }

    #[test]
    #[should_panic(expected = "dead band")]
    fn inverted_thresholds_are_rejected() {
        SloController::new(ElasticConfig {
            scale_in_ratio: 0.9,
            scale_out_ratio: 0.8,
            ..ElasticConfig::default()
        });
    }
}
