//! Attack-impact records: victim/attacker attribution and the
//! before/after defense grid.
//!
//! The attack grid runs, per (attack class × backend), three cells over
//! the same victim workload: a *baseline* against the attack's benign
//! twin (same mean demand, adversarial timing removed), the *attack*
//! with defenses off, and the attack again with the matching defense
//! on. This module holds the shared record types and the gate
//! predicates `scripts/verify.sh attack_grid` greps — all integer
//! arithmetic (parts per million) so the emitted JSON is bit-stable
//! across platforms and thread counts, exactly like
//! [`crate::resilience`].

pub use crate::resilience::deviation_ppm;

/// Victim outcome plus attribution counters for one grid cell,
/// averaged/summed over the sweep's seeds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttackSample {
    /// Mean victim completion time, microseconds.
    pub exec_us: u64,
    /// Mean victim runnable-wait total, microseconds — the paper's
    /// "waiting time" lens, and the most attack-sensitive signal.
    pub wait_us: u64,
    /// Attacker CPU beyond its proportional fair share, microseconds
    /// (the core crate's per-domain `stolen_est` heuristic).
    pub stolen_us: u64,
    /// Boost-path kicks the hypervisor deferred (kick-throttle defense).
    pub kicks_throttled: u64,
    /// Balancer reconfigurations suppressed by freeze-rate hysteresis.
    pub reconfigs_suppressed: u64,
    /// Hypervisor ticks re-armed at a jittered offset.
    pub ticks_jittered: u64,
}

impl AttackSample {
    /// Stable single-line JSON object, fields in declaration order.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"exec_us\":{},\"wait_us\":{},\"stolen_us\":{},\
             \"kicks_throttled\":{},\"reconfigs_suppressed\":{},\"ticks_jittered\":{}}}",
            self.exec_us,
            self.wait_us,
            self.stolen_us,
            self.kicks_throttled,
            self.reconfigs_suppressed,
            self.ticks_jittered,
        )
    }
}

/// One (attack class × backend) grid cell: baseline, attacked, and
/// defended runs of the same victim.
#[derive(Clone, Debug)]
pub struct AttackCell {
    /// Attack-class label (`tick_evade`, `boost_farm`, ...).
    pub attack: &'static str,
    /// Scheduler-backend label (`credit`, `credit2`, `dynfrac`).
    pub backend: &'static str,
    /// Victim vs the benign twin (the no-attack baseline).
    pub baseline: AttackSample,
    /// Victim vs the attack, defenses off.
    pub attacked: AttackSample,
    /// Victim vs the attack, matching defense on.
    pub defended: AttackSample,
}

impl AttackCell {
    /// Victim wait-time inflation of the attacked run over the
    /// baseline, ppm (1_000_000 = doubled waiting).
    pub fn inflation_ppm(&self) -> i64 {
        deviation_ppm(self.baseline.wait_us, self.attacked.wait_us)
    }

    /// Defended-run completion time relative to baseline, ppm of the
    /// baseline (1_000_000 = exactly the no-attack completion time).
    pub fn defended_ratio_ppm(&self) -> u64 {
        if self.baseline.exec_us == 0 {
            return u64::MAX;
        }
        (u128::from(self.defended.exec_us) * 1_000_000 / u128::from(self.baseline.exec_us)) as u64
    }

    /// Did the undefended attack inflate victim waiting by at least
    /// `min_ppm`? (The grid's "attack actually hurts" predicate.)
    pub fn inflated(&self, min_ppm: i64) -> bool {
        self.inflation_ppm() >= min_ppm
    }

    /// Did the defense restore the victim to within `bound_ppm` of the
    /// no-attack baseline completion time? (`1_250_000` = within 1.25×.)
    pub fn recovered(&self, bound_ppm: u64) -> bool {
        self.defended_ratio_ppm() <= bound_ppm
    }

    /// Stable single-line JSON object with derived gate fields inline.
    pub fn to_json(&self, min_inflation_ppm: i64, recovery_bound_ppm: u64) -> String {
        format!(
            "{{\"attack\":\"{}\",\"backend\":\"{}\",\"baseline\":{},\"attacked\":{},\
             \"defended\":{},\"inflation_ppm\":{},\"defended_ratio_ppm\":{},\
             \"inflated\":{},\"defended_ok\":{}}}",
            self.attack,
            self.backend,
            self.baseline.to_json(),
            self.attacked.to_json(),
            self.defended.to_json(),
            self.inflation_ppm(),
            self.defended_ratio_ppm(),
            self.inflated(min_inflation_ppm),
            self.recovered(recovery_bound_ppm),
        )
    }
}

/// The full {attacks} × {backends} grid plus its closing gate summary.
#[derive(Clone, Debug, Default)]
pub struct AttackGrid {
    cells: Vec<AttackCell>,
}

impl AttackGrid {
    /// Appends one finished cell.
    pub fn push(&mut self, cell: AttackCell) {
        self.cells.push(cell);
    }

    /// All cells, in insertion (grid) order.
    pub fn cells(&self) -> &[AttackCell] {
        &self.cells
    }

    /// Whether every cell on `backend` shows at least `min_ppm` victim
    /// wait inflation with defenses off — the acceptance criterion is
    /// pinned on the credit backend, where all four vulnerabilities
    /// are modeled.
    pub fn all_inflated_on(&self, backend: &str, min_ppm: i64) -> bool {
        let mut any = false;
        for c in self.cells.iter().filter(|c| c.backend == backend) {
            any = true;
            if !c.inflated(min_ppm) {
                return false;
            }
        }
        any
    }

    /// Whether every cell's matching defense restored the victim to
    /// within `bound_ppm` of its no-attack baseline.
    pub fn all_recovered(&self, bound_ppm: u64) -> bool {
        !self.cells.is_empty() && self.cells.iter().all(|c| c.recovered(bound_ppm))
    }

    /// The closing summary line the verify gate greps.
    pub fn summary_json(&self, min_inflation_ppm: i64, recovery_bound_ppm: u64) -> String {
        let worst_ratio = self
            .cells
            .iter()
            .map(AttackCell::defended_ratio_ppm)
            .max()
            .unwrap_or(0);
        format!(
            "{{\"cells\":{},\"credit_all_inflated\":{},\"all_defended_ok\":{},\
             \"worst_defended_ratio_ppm\":{},\"min_inflation_ppm\":{},\
             \"recovery_bound_ppm\":{}}}",
            self.cells.len(),
            self.all_inflated_on("credit", min_inflation_ppm),
            self.all_recovered(recovery_bound_ppm),
            worst_ratio,
            min_inflation_ppm,
            recovery_bound_ppm,
        )
    }
}

/// One point of an attack-intensity SLO curve: victim degradation as a
/// function of how hard the antagonist pushes (fleet SLO lens, à la
/// [`crate::resilience::ResilienceCurve`]).
#[derive(Clone, Copy, Debug)]
pub struct SloPoint {
    /// The intensity knob (attack-specific; e.g. storm posts per
    /// second, or number of antagonist VMs), in abstract units.
    pub intensity: u64,
    /// Victim completion-time deviation from intensity 0, ppm.
    pub deviation_ppm: i64,
    /// Attacker stolen-time estimate at this intensity, microseconds.
    pub stolen_us: u64,
}

/// An SLO degradation curve, points in ascending intensity order.
#[derive(Clone, Debug, Default)]
pub struct SloCurve {
    points: Vec<SloPoint>,
}

impl SloCurve {
    /// Appends a point; intensities must arrive in ascending order.
    pub fn push(&mut self, p: SloPoint) {
        if let Some(last) = self.points.last() {
            assert!(
                p.intensity > last.intensity,
                "points must arrive in ascending intensity order"
            );
        }
        self.points.push(p);
    }

    /// The swept points.
    pub fn points(&self) -> &[SloPoint] {
        &self.points
    }

    /// The worst victim degradation on the curve.
    pub fn max_deviation_ppm(&self) -> i64 {
        self.points
            .iter()
            .map(|p| p.deviation_ppm)
            .max()
            .unwrap_or(0)
    }

    /// Stable single-line JSON array of the points.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "{{\"intensity\":{},\"deviation_ppm\":{},\"stolen_us\":{}}}",
                    p.intensity, p.deviation_ppm, p.stolen_us
                )
            })
            .collect();
        format!("[{}]", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(exec: u64, wait: u64) -> AttackSample {
        AttackSample {
            exec_us: exec,
            wait_us: wait,
            ..AttackSample::default()
        }
    }

    fn cell(base: (u64, u64), attacked: (u64, u64), defended: (u64, u64)) -> AttackCell {
        AttackCell {
            attack: "tick_evade",
            backend: "credit",
            baseline: sample(base.0, base.1),
            attacked: sample(attacked.0, attacked.1),
            defended: sample(defended.0, defended.1),
        }
    }

    #[test]
    fn inflation_and_recovery_are_integer_exact() {
        // Waiting 100 ms -> 150 ms is +50% = 500_000 ppm; defended
        // completion 1.2 s over a 1.0 s baseline is 1_200_000 ppm.
        let c = cell(
            (1_000_000, 100_000),
            (1_400_000, 150_000),
            (1_200_000, 110_000),
        );
        assert_eq!(c.inflation_ppm(), 500_000);
        assert_eq!(c.defended_ratio_ppm(), 1_200_000);
        assert!(c.inflated(100_000));
        assert!(!c.inflated(600_000));
        assert!(c.recovered(1_250_000));
        assert!(!c.recovered(1_100_000));
    }

    #[test]
    fn zero_baseline_saturates_rather_than_divides() {
        let c = cell((0, 0), (10, 10), (10, 10));
        assert_eq!(c.inflation_ppm(), 0);
        assert_eq!(c.defended_ratio_ppm(), u64::MAX);
        assert!(!c.recovered(1_250_000));
    }

    #[test]
    fn grid_gates_require_every_cell_to_pass() {
        let mut g = AttackGrid::default();
        assert!(!g.all_recovered(1_250_000), "empty grid must not pass");
        g.push(cell((1_000, 100), (1_300, 140), (1_100, 105)));
        g.push(cell((1_000, 100), (1_500, 180), (1_200, 120)));
        assert!(g.all_inflated_on("credit", 100_000));
        assert!(g.all_recovered(1_250_000));
        assert!(!g.all_inflated_on("credit2", 1), "absent backend fails");
        // One regressing cell flips both gates.
        g.push(cell((1_000, 100), (1_005, 101), (1_400, 130)));
        assert!(!g.all_inflated_on("credit", 100_000));
        assert!(!g.all_recovered(1_250_000));
        let summary = g.summary_json(100_000, 1_250_000);
        assert!(summary.contains("\"cells\":3"));
        assert!(summary.contains("\"credit_all_inflated\":false"));
        assert!(summary.contains("\"all_defended_ok\":false"));
        assert!(summary.contains("\"worst_defended_ratio_ppm\":1400000"));
    }

    #[test]
    fn cell_json_is_single_line_with_gate_fields() {
        let c = cell((1_000, 100), (1_300, 140), (1_100, 105));
        let line = c.to_json(100_000, 1_250_000);
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"attack\":\"tick_evade\",\"backend\":\"credit\","));
        assert!(line.contains("\"inflated\":true"));
        assert!(line.contains("\"defended_ok\":true"));
        assert!(line.contains("\"kicks_throttled\":0"));
    }

    #[test]
    fn slo_curve_orders_points_and_serializes() {
        let mut c = SloCurve::default();
        c.push(SloPoint {
            intensity: 0,
            deviation_ppm: 0,
            stolen_us: 0,
        });
        c.push(SloPoint {
            intensity: 2,
            deviation_ppm: 80_000,
            stolen_us: 1_500,
        });
        assert_eq!(c.max_deviation_ppm(), 80_000);
        assert_eq!(
            c.to_json(),
            "[{\"intensity\":0,\"deviation_ppm\":0,\"stolen_us\":0},\
             {\"intensity\":2,\"deviation_ppm\":80000,\"stolen_us\":1500}]"
                .replace(" ", "")
        );
    }

    #[test]
    #[should_panic(expected = "ascending intensity order")]
    fn out_of_order_intensities_are_rejected() {
        let mut c = SloCurve::default();
        c.push(SloPoint {
            intensity: 5,
            deviation_ppm: 0,
            stolen_us: 0,
        });
        c.push(SloPoint {
            intensity: 5,
            deviation_ppm: 0,
            stolen_us: 0,
        });
    }
}
