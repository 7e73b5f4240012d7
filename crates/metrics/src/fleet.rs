//! Fleet-wide tail-latency accounting for multi-host sweeps.
//!
//! The cluster bench drives a fleet of hosts with an open-loop request
//! stream and needs tail latency measured across the whole fleet, not
//! per VM: one host's stacked vCPUs can dominate the fleet p99 while
//! every other host looks healthy. This module aggregates per-host
//! request-latency [`Histogram`]s into fleet quantiles, carries the
//! saturation counters (listen-backlog drops, in-flight requests cut
//! off by the measurement window) that make overload visible rather
//! than silent, and renders both the stable single-line JSON the verify
//! gate checksums and the human [`Table`] the bench prints.
//!
//! All quantiles are integer microseconds straight from
//! `Histogram::quantile` (bucket lower bounds), so emitted JSON is
//! bit-stable across platforms and `VSCALE_THREADS` settings.

use sim_core::stats::Histogram;

use crate::report::Table;

/// One host's contribution to a load point: its merged request-latency
/// histogram plus its saturation counters.
#[derive(Clone, Debug)]
pub struct HostSample {
    /// Host index within the fleet.
    pub host: usize,
    /// Per-request latency (request sent at the LB → reply back at the
    /// LB), microseconds.
    pub latency_us: Histogram,
    /// Replies measured within the window.
    pub completed: u64,
    /// Connections tail-dropped by full listen queues on this host.
    pub drops: u64,
}

/// Host-failure and migration counters for one fleet run: how much
/// recovery machinery fired and what it cost. Carried alongside the
/// latency data so a sweep can show that tail latency survived *because*
/// of (or despite) evacuations, not just that it survived.
#[derive(Clone, Debug, Default)]
pub struct RobustnessStats {
    /// Whole-host crashes injected.
    pub hosts_down: u64,
    /// Hosts brought back by cold restore.
    pub hosts_restored: u64,
    /// VMs moved off a host by evacuation (live or cold).
    pub vms_evacuated: u64,
    /// Live migrations that cut over successfully.
    pub migrations_ok: u64,
    /// Live migrations that aborted and rolled back to the source.
    pub migrations_aborted: u64,
    /// Total pre-copy rounds across all migrations (including rounds
    /// wasted to link faults).
    pub precopy_rounds: u64,
    /// Requests re-queued exactly once off dead/draining backends.
    pub requests_requeued: u64,
    /// VM blackout per recovery event (migration stop-and-copy window,
    /// or crash-to-restore outage), microseconds.
    pub downtime_us: Histogram,
}

impl RobustnessStats {
    /// True when no failure machinery fired at all.
    pub fn is_zero(&self) -> bool {
        self.hosts_down == 0
            && self.hosts_restored == 0
            && self.vms_evacuated == 0
            && self.migrations_ok == 0
            && self.migrations_aborted == 0
            && self.precopy_rounds == 0
            && self.requests_requeued == 0
            && self.downtime_us.count() == 0
    }

    /// Exact merge (counter sums, histogram union) for multi-seed cells.
    pub fn merge(&mut self, other: &RobustnessStats) {
        self.hosts_down += other.hosts_down;
        self.hosts_restored += other.hosts_restored;
        self.vms_evacuated += other.vms_evacuated;
        self.migrations_ok += other.migrations_ok;
        self.migrations_aborted += other.migrations_aborted;
        self.precopy_rounds += other.precopy_rounds;
        self.requests_requeued += other.requests_requeued;
        self.downtime_us.merge(&other.downtime_us);
    }

    /// Stable single-line JSON object (embedded in a `FleetPoint` line).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hosts_down\":{},\"hosts_restored\":{},\"vms_evacuated\":{},\
             \"migrations_ok\":{},\"migrations_aborted\":{},\"precopy_rounds\":{},\
             \"requests_requeued\":{},\"downtime\":{{\"count\":{},\"p50_us\":{},\
             \"p99_us\":{}}}}}",
            self.hosts_down,
            self.hosts_restored,
            self.vms_evacuated,
            self.migrations_ok,
            self.migrations_aborted,
            self.precopy_rounds,
            self.requests_requeued,
            self.downtime_us.count(),
            self.downtime_us.quantile(0.50),
            self.downtime_us.quantile(0.99),
        )
    }
}

/// One (mode, offered-load) cell of a fleet sweep: fleet-wide quantiles
/// with the per-host breakdown that produced them.
#[derive(Clone, Debug)]
pub struct FleetPoint {
    /// Scaling mode under test (e.g. `"static"`, `"vscale"`).
    pub mode: String,
    /// Offered load, requests/second across the whole fleet.
    pub offered_rps: u64,
    /// Requests the load balancer dispatched in the window.
    pub sent: u64,
    /// Replies measured within the window, fleet-wide.
    pub completed: u64,
    /// Listen-backlog drops summed over hosts.
    pub drops: u64,
    /// Fleet-wide latency histogram (exact merge of the host histograms).
    pub latency_us: Histogram,
    /// The per-host breakdown, in host order.
    pub hosts: Vec<HostSample>,
    /// Failure/recovery counters, present only for runs that exercise
    /// the robustness machinery. `None` keeps the JSON of plain sweeps
    /// byte-identical to pre-robustness output.
    pub robustness: Option<RobustnessStats>,
}

impl FleetPoint {
    /// Builds a point by merging per-host samples (histogram merge is an
    /// exact bucket-count sum, so fleet quantiles are what a single
    /// whole-population histogram would report).
    pub fn from_hosts(
        mode: impl Into<String>,
        offered_rps: u64,
        sent: u64,
        hosts: Vec<HostSample>,
    ) -> Self {
        let mut latency_us = Histogram::new();
        let mut completed = 0;
        let mut drops = 0;
        for h in &hosts {
            latency_us.merge(&h.latency_us);
            completed += h.completed;
            drops += h.drops;
        }
        FleetPoint {
            mode: mode.into(),
            offered_rps,
            sent,
            completed,
            drops,
            latency_us,
            hosts,
            robustness: None,
        }
    }

    /// Attaches failure/recovery counters to the point.
    pub fn with_robustness(mut self, r: RobustnessStats) -> Self {
        self.robustness = Some(r);
        self
    }

    /// Fleet median latency, µs.
    pub fn p50_us(&self) -> u64 {
        self.latency_us.quantile(0.50)
    }

    /// Fleet 99th-percentile latency, µs.
    pub fn p99_us(&self) -> u64 {
        self.latency_us.quantile(0.99)
    }

    /// Fleet 99.9th-percentile latency, µs.
    pub fn p999_us(&self) -> u64 {
        self.latency_us.quantile(0.999)
    }

    /// Stable single-line JSON: fleet quantiles, saturation counters,
    /// and per-host `[p99, completed, drops]` triples in host order.
    pub fn to_json(&self) -> String {
        let hosts: Vec<String> = self
            .hosts
            .iter()
            .map(|h| {
                format!(
                    "[{},{},{}]",
                    h.latency_us.quantile(0.99),
                    h.completed,
                    h.drops
                )
            })
            .collect();
        let robustness = match &self.robustness {
            Some(r) => format!(",\"robustness\":{}", r.to_json()),
            None => String::new(),
        };
        format!(
            "{{\"mode\":\"{}\",\"offered_rps\":{},\"sent\":{},\"completed\":{},\
             \"drops\":{},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"hosts\":[{}]{}}}",
            self.mode,
            self.offered_rps,
            self.sent,
            self.completed,
            self.drops,
            self.p50_us(),
            self.p99_us(),
            self.p999_us(),
            hosts.join(","),
            robustness,
        )
    }
}

/// One mode's sweep across rising offered load.
#[derive(Clone, Debug, Default)]
pub struct FleetCurve {
    points: Vec<FleetPoint>,
}

impl FleetCurve {
    /// Appends a point; offered loads must arrive in ascending order.
    pub fn push(&mut self, p: FleetPoint) {
        if let Some(last) = self.points.last() {
            assert!(
                p.offered_rps > last.offered_rps,
                "points must arrive in ascending offered-load order"
            );
        }
        self.points.push(p);
    }

    /// The swept points.
    pub fn points(&self) -> &[FleetPoint] {
        &self.points
    }

    /// The highest offered load (requests/s) the fleet sustained within
    /// the p99 SLO — the paper's Figure 14 framing generalized to a
    /// fleet: how far can load rise before the tail breaks? Takes the
    /// maximum over all in-SLO points (not the first violation) so a
    /// single noisy mid-sweep point cannot truncate the answer.
    pub fn sustained_rps(&self, slo_p99_us: u64) -> u64 {
        self.points
            .iter()
            .filter(|p| p.p99_us() <= slo_p99_us)
            .map(|p| p.offered_rps)
            .max()
            .unwrap_or(0)
    }

    /// Total listen-backlog drops over the whole sweep.
    pub fn total_drops(&self) -> u64 {
        self.points.iter().map(|p| p.drops).sum()
    }

    /// Merged failure/recovery counters over the whole sweep; `None`
    /// when no point carried any.
    pub fn robustness(&self) -> Option<RobustnessStats> {
        let mut merged = RobustnessStats::default();
        let mut any = false;
        for p in &self.points {
            if let Some(r) = &p.robustness {
                merged.merge(r);
                any = true;
            }
        }
        any.then_some(merged)
    }

    /// The mode label (empty for an empty curve).
    pub fn mode(&self) -> &str {
        self.points.first().map_or("", |p| p.mode.as_str())
    }

    /// Stable single-line JSON summary for one mode's curve. The merged
    /// robustness object is appended only when some point carried one,
    /// so plain sweeps keep their pre-robustness byte format.
    pub fn summary_json(&self, slo_p99_us: u64) -> String {
        let robustness = match self.robustness() {
            Some(r) => format!(",\"robustness\":{}", r.to_json()),
            None => String::new(),
        };
        format!(
            "{{\"mode\":\"{}\",\"points\":{},\"slo_p99_us\":{},\"sustained_rps\":{},\
             \"total_drops\":{}{}}}",
            self.mode(),
            self.points.len(),
            slo_p99_us,
            self.sustained_rps(slo_p99_us),
            self.total_drops(),
            robustness,
        )
    }
}

/// Renders a mode's sweep as the bench's human-readable table: offered
/// load vs fleet quantiles with the saturation counters alongside, so a
/// drooping completion count or climbing drop count is visible next to
/// the latency it explains.
pub fn fleet_table(title: &str, curve: &FleetCurve) -> Table {
    let mut t = Table::new(
        title,
        &[
            "offered_rps",
            "completed",
            "drops",
            "p50_us",
            "p99_us",
            "p999_us",
        ],
    );
    for p in curve.points() {
        t.row(&[
            p.offered_rps.to_string(),
            p.completed.to_string(),
            p.drops.to_string(),
            p.p50_us().to_string(),
            p.p99_us().to_string(),
            p.p999_us().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(host: usize, latencies: &[u64], drops: u64) -> HostSample {
        let mut h = Histogram::new();
        for &l in latencies {
            h.record(l);
        }
        HostSample {
            host,
            completed: latencies.len() as u64,
            latency_us: h,
            drops,
        }
    }

    #[test]
    fn fleet_merge_matches_whole_population() {
        let a: Vec<u64> = (1..=100).map(|i| i * 10).collect();
        let b: Vec<u64> = (1..=100).map(|i| i * 37).collect();
        let point =
            FleetPoint::from_hosts("static", 1_000, 200, vec![host(0, &a, 3), host(1, &b, 4)]);
        let mut whole = Histogram::new();
        for &l in a.iter().chain(b.iter()) {
            whole.record(l);
        }
        assert_eq!(point.completed, 200);
        assert_eq!(point.drops, 7);
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(point.latency_us.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    #[test]
    fn sustained_rps_finds_the_slo_knee() {
        let mut c = FleetCurve::default();
        for (rps, lat) in [(1_000u64, 900u64), (2_000, 1_100), (4_000, 9_000)] {
            let lats: Vec<u64> = vec![lat; 100];
            c.push(FleetPoint::from_hosts(
                "vscale",
                rps,
                rps,
                vec![host(0, &lats, 0)],
            ));
        }
        // Bucket lower bounds undershoot, so test against loose SLOs.
        assert_eq!(c.sustained_rps(2_000), 2_000);
        assert_eq!(c.sustained_rps(100), 0);
        assert_eq!(c.sustained_rps(u64::MAX), 4_000);
        assert_eq!(c.mode(), "vscale");
    }

    #[test]
    #[should_panic(expected = "ascending offered-load order")]
    fn out_of_order_loads_are_rejected() {
        let mut c = FleetCurve::default();
        c.push(FleetPoint::from_hosts("m", 2_000, 0, vec![]));
        c.push(FleetPoint::from_hosts("m", 1_000, 0, vec![]));
    }

    #[test]
    fn json_is_single_line_and_field_stable() {
        let p = FleetPoint::from_hosts(
            "static",
            5_000,
            5_100,
            vec![host(0, &[100, 200], 1), host(1, &[300], 0)],
        );
        let line = p.to_json();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"mode\":\"static\",\"offered_rps\":5000,"));
        assert!(line.contains("\"drops\":1"));
        assert!(line.contains("\"hosts\":[["));
        let mut c = FleetCurve::default();
        c.push(p);
        let s = c.summary_json(10_000);
        assert!(s.contains("\"mode\":\"static\""));
        assert!(s.contains("\"sustained_rps\":5000"));
    }

    #[test]
    fn robustness_extends_json_only_when_present() {
        let plain = FleetPoint::from_hosts("vscale", 1_000, 10, vec![host(0, &[100], 0)]);
        let plain_line = plain.to_json();
        assert!(!plain_line.contains("robustness"), "{plain_line}");

        let mut r = RobustnessStats {
            hosts_down: 1,
            hosts_restored: 1,
            vms_evacuated: 2,
            migrations_ok: 3,
            migrations_aborted: 1,
            precopy_rounds: 7,
            requests_requeued: 40,
            ..RobustnessStats::default()
        };
        r.downtime_us.record(12_000);
        assert!(!r.is_zero());
        let line = plain.clone().with_robustness(r.clone()).to_json();
        assert!(
            line.starts_with(&plain_line[..plain_line.len() - 1]),
            "robustness must extend, not reshape, the line: {line}"
        );
        assert!(line.contains("\"robustness\":{\"hosts_down\":1,"));
        assert!(line.contains("\"migrations_ok\":3"));
        assert!(line.contains("\"downtime\":{\"count\":1,"));

        // Curve-level merge: counters sum, histogram unions.
        let mut c = FleetCurve::default();
        c.push(
            FleetPoint::from_hosts("vscale", 1_000, 10, vec![host(0, &[100], 0)])
                .with_robustness(r.clone()),
        );
        c.push(
            FleetPoint::from_hosts("vscale", 2_000, 10, vec![host(0, &[100], 0)])
                .with_robustness(r),
        );
        let merged = c.robustness().expect("curve carries robustness");
        assert_eq!(merged.migrations_ok, 6);
        assert_eq!(merged.downtime_us.count(), 2);
        assert!(c.summary_json(10_000).contains("\"requests_requeued\":80"));
        assert!(RobustnessStats::default().is_zero());
    }

    #[test]
    fn table_renders_saturation_next_to_latency() {
        let mut c = FleetCurve::default();
        c.push(FleetPoint::from_hosts(
            "vscale",
            1_000,
            1_000,
            vec![host(0, &[500], 2)],
        ));
        let rendered = fleet_table("fleet sweep (vscale)", &c).render();
        assert!(rendered.contains("offered_rps"));
        assert!(rendered.contains("drops"));
        assert!(rendered.contains("1000"));
    }
}
