//! Windowed SLO samples and the elastic-run timeline.
//!
//! The fleet autoscaler (`crates/autoscale`) is a sampled feedback
//! controller: every sampling period the cluster drains one
//! [`SloWindow`] — the raw latency histogram, completion/drop counts,
//! and instantaneous queue depth for just that window — and the
//! controller turns the stream of windows into scale-out/in decisions.
//! This module carries both halves of that exchange: the window itself,
//! and the [`ElasticCurve`] timeline a whole elastic run serializes to
//! (per-sample fleet state, host-count trajectory, and the scale events
//! that moved it).
//!
//! Like `fleet`, every emitted number is an integer (µs quantiles are
//! `Histogram` bucket lower bounds, times are integer ms), so curve
//! JSON is byte-stable across platforms and `VSCALE_THREADS` settings —
//! the autoscaler determinism tests compare these strings directly.

use sim_core::stats::Histogram;
use sim_core::time::SimTime;

/// One sampling window's raw fleet measurements, as drained from the
/// cluster at a queued sample instant. Counters cover only the
/// window (they reset at each drain); `in_flight` is the instantaneous
/// depth at the drain.
#[derive(Clone, Debug, Default)]
pub struct SloWindow {
    /// Latencies of requests completed inside the window, µs.
    pub latency_us: Histogram,
    /// Completions inside the window.
    pub completed: u64,
    /// Listen-backlog drops inside the window.
    pub drops: u64,
    /// Requests dispatched or parked but unaccounted at the drain
    /// instant — the controller's queue-depth signal.
    pub in_flight: u64,
}

impl SloWindow {
    /// Window p99, µs (0 when the window completed nothing).
    pub fn p99_us(&self) -> u64 {
        self.latency_us.quantile(0.99)
    }

    /// Window p999, µs.
    pub fn p999_us(&self) -> u64 {
        self.latency_us.quantile(0.999)
    }

    /// Folds another window into this one (histogram union, counter
    /// sums; `in_flight` takes the later window's snapshot).
    pub fn merge(&mut self, other: &SloWindow) {
        self.latency_us.merge(&other.latency_us);
        self.completed += other.completed;
        self.drops += other.drops;
        self.in_flight = other.in_flight;
    }
}

/// One controller sample on the timeline: the window it saw plus the
/// smoothed view it acted on.
#[derive(Clone, Copy, Debug)]
pub struct ElasticSample {
    /// Sample instant, ms into the run.
    pub t_ms: u64,
    /// Raw window p99, µs.
    pub p99_us: u64,
    /// EMA-smoothed p99 the controller compared against the SLO, µs
    /// (rounded; the controller keeps the f64 internally).
    pub ema_p99_us: u64,
    /// Completions in the window.
    pub completed: u64,
    /// Drops in the window.
    pub drops: u64,
    /// In-flight requests at the sample instant.
    pub in_flight: u64,
    /// Hosts in service after any action at this sample.
    pub hosts: usize,
}

/// Which way a scale action went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleKind {
    /// A standby host was activated and VMs migrated onto it.
    Out,
    /// A host was evacuated and retired to standby.
    In,
}

impl ScaleKind {
    /// Stable JSON label.
    pub fn label(self) -> &'static str {
        match self {
            ScaleKind::Out => "out",
            ScaleKind::In => "in",
        }
    }
}

/// One scale action on the timeline.
#[derive(Clone, Copy, Debug)]
pub struct ScaleEvent {
    /// When the action fired, ms into the run.
    pub t_ms: u64,
    /// Direction.
    pub kind: ScaleKind,
    /// The host activated (out) or retired (in).
    pub host: usize,
    /// Migrations started by the action (landings for out, evacuations
    /// for in).
    pub migrations: usize,
}

/// The full timeline of one elastic run: samples, scale events, the
/// aggregate ledger, and the host-seconds bill.
#[derive(Clone, Debug)]
pub struct ElasticCurve {
    /// Mode label (e.g. `"vscale_auto"`, `"static_min"`).
    pub mode: String,
    /// Controller samples in time order.
    pub samples: Vec<ElasticSample>,
    /// Scale actions in time order.
    pub events: Vec<ScaleEvent>,
    /// Integrated in-service host time, ms — the over-provisioning
    /// currency the interplay study compares across modes.
    pub host_ms: u64,
    /// Requests dispatched in the measurement window.
    pub sent: u64,
    /// Measured completions (aggregate, not per window).
    pub completed: u64,
    /// Measured drops.
    pub drops: u64,
    /// Requests still unaccounted when the run ended (0 after a full
    /// drain — the zero-loss check).
    pub in_flight_end: u64,
    /// Aggregate measured-latency histogram over the whole run.
    pub latency_us: Histogram,
}

impl ElasticCurve {
    /// An empty curve for `mode`.
    pub fn new(mode: impl Into<String>) -> Self {
        ElasticCurve {
            mode: mode.into(),
            samples: Vec::new(),
            events: Vec::new(),
            host_ms: 0,
            sent: 0,
            completed: 0,
            drops: 0,
            in_flight_end: 0,
            latency_us: Histogram::new(),
        }
    }

    /// Appends a sample; instants must arrive in order.
    pub fn push_sample(&mut self, s: ElasticSample) {
        if let Some(last) = self.samples.last() {
            assert!(s.t_ms >= last.t_ms, "samples must arrive in time order");
        }
        self.samples.push(s);
    }

    /// Appends a scale event.
    pub fn push_event(&mut self, e: ScaleEvent) {
        if let Some(last) = self.events.last() {
            assert!(e.t_ms >= last.t_ms, "events must arrive in time order");
        }
        self.events.push(e);
    }

    /// Scale-out actions taken.
    pub fn scale_outs(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == ScaleKind::Out)
            .count()
    }

    /// Scale-in actions taken.
    pub fn scale_ins(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == ScaleKind::In)
            .count()
    }

    /// Aggregate fleet p99 over the whole run, µs.
    pub fn p99_us(&self) -> u64 {
        self.latency_us.quantile(0.99)
    }

    /// Did the run hold the aggregate-p99 SLO?
    pub fn held_slo(&self, slo_p99_us: u64) -> bool {
        self.p99_us() <= slo_p99_us
    }

    /// Every request accounted exactly once and nothing left in flight.
    pub fn zero_loss(&self) -> bool {
        self.completed + self.drops == self.sent && self.in_flight_end == 0
    }

    /// Fewest in-service hosts seen at any sample.
    pub fn min_hosts(&self) -> usize {
        self.samples.iter().map(|s| s.hosts).min().unwrap_or(0)
    }

    /// Most in-service hosts seen at any sample.
    pub fn max_hosts(&self) -> usize {
        self.samples.iter().map(|s| s.hosts).max().unwrap_or(0)
    }

    /// Stable single-line JSON: the summary ledger, then the per-sample
    /// timeline as `[t_ms, p99, ema_p99, completed, drops, in_flight,
    /// hosts]` rows and the events as `[t_ms, "out"|"in", host,
    /// migrations]` rows.
    pub fn to_json(&self) -> String {
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|s| {
                format!(
                    "[{},{},{},{},{},{},{}]",
                    s.t_ms, s.p99_us, s.ema_p99_us, s.completed, s.drops, s.in_flight, s.hosts
                )
            })
            .collect();
        let events: Vec<String> = self
            .events
            .iter()
            .map(|e| {
                format!(
                    "[{},\"{}\",{},{}]",
                    e.t_ms,
                    e.kind.label(),
                    e.host,
                    e.migrations
                )
            })
            .collect();
        format!(
            "{{\"mode\":\"{}\",\"sent\":{},\"completed\":{},\"drops\":{},\
             \"in_flight_end\":{},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\
             \"host_ms\":{},\"hosts_min\":{},\"hosts_max\":{},\"scale_outs\":{},\
             \"scale_ins\":{},\"events\":[{}],\"samples\":[{}]}}",
            self.mode,
            self.sent,
            self.completed,
            self.drops,
            self.in_flight_end,
            self.latency_us.quantile(0.50),
            self.p99_us(),
            self.latency_us.quantile(0.999),
            self.host_ms,
            self.min_hosts(),
            self.max_hosts(),
            self.scale_outs(),
            self.scale_ins(),
            events.join(","),
            samples.join(","),
        )
    }
}

/// Converts a sim instant to the integer milliseconds the timeline uses.
pub fn t_ms(t: SimTime) -> u64 {
    t.as_ms()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(lat: &[u64], drops: u64, in_flight: u64) -> SloWindow {
        let mut w = SloWindow {
            completed: lat.len() as u64,
            drops,
            in_flight,
            ..SloWindow::default()
        };
        for &l in lat {
            w.latency_us.record(l);
        }
        w
    }

    #[test]
    fn window_quantiles_and_merge() {
        let mut a = window(&[100, 200, 10_000], 1, 5);
        assert!(a.p99_us() >= 200);
        let b = window(&[300], 2, 3);
        a.merge(&b);
        assert_eq!(a.completed, 4);
        assert_eq!(a.drops, 3);
        assert_eq!(a.in_flight, 3, "merge takes the later snapshot");
        assert_eq!(SloWindow::default().p99_us(), 0, "empty window is quiet");
    }

    #[test]
    fn curve_counts_events_and_holds_order() {
        let mut c = ElasticCurve::new("vscale_auto");
        c.push_sample(ElasticSample {
            t_ms: 20,
            p99_us: 900,
            ema_p99_us: 900,
            completed: 10,
            drops: 0,
            in_flight: 2,
            hosts: 3,
        });
        c.push_event(ScaleEvent {
            t_ms: 40,
            kind: ScaleKind::Out,
            host: 3,
            migrations: 2,
        });
        c.push_sample(ElasticSample {
            t_ms: 40,
            p99_us: 12_000,
            ema_p99_us: 4_800,
            completed: 9,
            drops: 0,
            in_flight: 30,
            hosts: 4,
        });
        c.push_event(ScaleEvent {
            t_ms: 400,
            kind: ScaleKind::In,
            host: 3,
            migrations: 2,
        });
        assert_eq!(c.scale_outs(), 1);
        assert_eq!(c.scale_ins(), 1);
        assert_eq!(c.min_hosts(), 3);
        assert_eq!(c.max_hosts(), 4);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_samples_are_rejected() {
        let mut c = ElasticCurve::new("m");
        let s = ElasticSample {
            t_ms: 20,
            p99_us: 0,
            ema_p99_us: 0,
            completed: 0,
            drops: 0,
            in_flight: 0,
            hosts: 1,
        };
        c.push_sample(s);
        c.push_sample(ElasticSample { t_ms: 10, ..s });
    }

    #[test]
    fn zero_loss_requires_full_ledger_and_drain() {
        let mut c = ElasticCurve::new("m");
        c.sent = 10;
        c.completed = 9;
        c.drops = 1;
        assert!(c.zero_loss());
        c.in_flight_end = 1;
        assert!(!c.zero_loss());
    }

    #[test]
    fn json_is_single_line_and_field_stable() {
        let mut c = ElasticCurve::new("static_auto");
        c.sent = 100;
        c.completed = 99;
        c.drops = 1;
        for l in [500u64, 900, 2_000] {
            c.latency_us.record(l);
        }
        c.push_sample(ElasticSample {
            t_ms: 20,
            p99_us: 2_000,
            ema_p99_us: 1_100,
            completed: 3,
            drops: 0,
            in_flight: 1,
            hosts: 3,
        });
        c.push_event(ScaleEvent {
            t_ms: 20,
            kind: ScaleKind::Out,
            host: 4,
            migrations: 2,
        });
        let line = c.to_json();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"mode\":\"static_auto\",\"sent\":100,"));
        assert!(line.contains("\"events\":[[20,\"out\",4,2]]"));
        assert!(line.contains("\"samples\":[[20,2000,1100,3,0,1,3]]"));
        assert!(line.contains("\"scale_outs\":1"));
    }
}
