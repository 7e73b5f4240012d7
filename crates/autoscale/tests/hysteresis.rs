//! Anti-flapping properties of the SLO controller, checked over
//! generated window sequences.
//!
//! The controller's three serial defenses (EMA, dwell with a dead
//! band, cooldown) should make flapping *structurally* impossible, not
//! just unlikely on the traces we happened to try. These properties
//! pin that down:
//!
//! 1. Under ANY latency trace, consecutive actions are separated by at
//!    least the cooldown, every direction reversal is separated by at
//!    least its dwell worth of samples, and each action fires only with
//!    its entry condition true at that instant.
//! 2. A trace that lives inside the dead band — however violently it
//!    oscillates within it — never produces an action at all.

use autoscale::controller::{COOLDOWN, SCALE_IN_DWELL, SCALE_OUT_DWELL};
use autoscale::{ScaleDecision, SloController};
use metrics::elastic::SloWindow;
use sim_core::time::SimTime;
use testkit::{prop_assert, Config};
use vscale::ElasticConfig;

fn cfg() -> ElasticConfig {
    ElasticConfig {
        min_hosts: 1,
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

#[test]
fn actions_are_spaced_and_justified_under_arbitrary_traces() {
    let c = cfg();
    let period_ms = c.sample_period.as_ms();
    // Arbitrary latency levels straddling the whole range — quiet,
    // in-band, and far past the SLO — with arbitrary window loads.
    let trace = testkit::vec_of(
        testkit::tuple2(testkit::u64_in(0..40_000), testkit::u64_in(1..400)),
        20..120,
    );
    testkit::run_prop(
        "autoscale_hysteresis",
        Config::with_cases(128),
        &trace,
        |trace| {
            let mut ctl = SloController::new(c);
            let mut hosts = 3usize;
            let mut last_action: Option<(u64, ScaleDecision)> = None;
            for (i, &(p99, n)) in trace.iter().enumerate() {
                let t_ms = period_ms * (i as u64 + 1);
                let t = SimTime::from_ms(t_ms);
                let w = window(p99, n);
                let d = ctl.observe(t, &w, hosts);
                if d == ScaleDecision::Hold {
                    continue;
                }
                // Entry condition must hold at the firing instant.
                match d {
                    ScaleDecision::Out => {
                        // ±1 µs slack: ema_p99_us() rounds the f64 the
                        // controller compared.
                        prop_assert!(
                            ctl.ema_p99_us() as f64 + 1.0 > c.scale_out_ratio * c.slo_p99_us as f64,
                            "Out fired at t={t_ms}ms with ema {} below the breach line",
                            ctl.ema_p99_us()
                        );
                        hosts += 1;
                    }
                    ScaleDecision::In => {
                        prop_assert!(
                            (ctl.ema_p99_us() as f64)
                                < c.scale_in_ratio * c.slo_p99_us as f64 + 1.0,
                            "In fired at t={t_ms}ms with ema {} above the idle line",
                            ctl.ema_p99_us()
                        );
                        prop_assert!(hosts > c.min_hosts, "In below min_hosts");
                        hosts -= 1;
                    }
                    ScaleDecision::Hold => unreachable!(),
                }
                prop_assert!(hosts <= c.max_hosts, "Out above max_hosts");
                if let Some((prev_ms, _)) = last_action {
                    prop_assert!(
                        t_ms - prev_ms >= COOLDOWN.as_ms(),
                        "actions {prev_ms}ms and {t_ms}ms inside the cooldown"
                    );
                    // Streaks reset on every action, so the next one —
                    // in either direction — must re-earn its dwell.
                    let dwell = match d {
                        ScaleDecision::Out => SCALE_OUT_DWELL,
                        _ => SCALE_IN_DWELL,
                    } as u64;
                    prop_assert!(
                        t_ms - prev_ms >= dwell * period_ms,
                        "{d:?} at {t_ms}ms fired {}ms after the previous action, \
                         inside its {dwell}-sample dwell",
                        t_ms - prev_ms
                    );
                }
                last_action = Some((t_ms, d));
            }
            Ok(())
        },
    );
}

#[test]
fn dead_band_oscillation_never_acts() {
    let c = cfg();
    // Every raw p99 inside [scale_in_ratio, scale_out_ratio] × SLO:
    // the EMA is a convex combination, so it can never leave the band,
    // and neither streak may ever grow.
    let lo = (c.scale_in_ratio * c.slo_p99_us as f64) as u64 + 1;
    let hi = (c.scale_out_ratio * c.slo_p99_us as f64) as u64;
    let trace = testkit::vec_of(
        testkit::tuple2(testkit::u64_in(lo..hi), testkit::u64_in(1..400)),
        2..200,
    );
    testkit::run_prop(
        "autoscale_dead_band",
        Config::with_cases(128),
        &trace,
        |trace| {
            let mut ctl = SloController::new(c);
            for (i, &(p99, n)) in trace.iter().enumerate() {
                let t = SimTime::from_ms(c.sample_period.as_ms() * (i as u64 + 1));
                let d = ctl.observe(t, &window(p99, n), 3);
                prop_assert!(
                    d == ScaleDecision::Hold,
                    "{d:?} fired from inside the dead band (p99 {p99})"
                );
            }
            Ok(())
        },
    );
}
