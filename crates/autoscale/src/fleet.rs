//! The actuator: an elastic wrapper around the lockstep cluster.
//!
//! [`ElasticFleet`] owns a [`Cluster`] and advances it sample period by
//! sample period. At each queued sample instant it drains the
//! SLO window, feeds it to the [`SloController`], and actuates the
//! decision **serially, between epochs**:
//!
//! - **Scale-out** activates the lowest-index parked host
//!   ([`Cluster::set_in_service`]) and live-migrates the most-loaded
//!   backends onto its spare slots — at most one per source host, so
//!   one action relieves several hot hosts at once.
//! - **Scale-in** picks the in-service host whose resident backends
//!   hold the least in-flight work, evacuates it
//!   ([`Cluster::evacuate_host`] — each VM lands on the
//!   least-outstanding receiver), and retires it once the last
//!   migration cuts over. Mid-flight, requests keep flowing: pre-copy
//!   rounds run under the source, and the ledger's exactly-once fences
//!   carry every request across the cutover.
//!
//! Because sampling rides the cluster's own event queue and actuation
//! happens in the serial gap between epochs, an elastic run is
//! byte-identical at any `VSCALE_THREADS` — the determinism tests diff
//! the full [`ElasticCurve`] JSON across thread counts.
//!
//! The wrapper also runs without a controller (`autoscale: false`):
//! same sampling, same billing, no actions — the static baselines of
//! the interplay study.

use cluster::{Cluster, Health, MigrationConfig};
use metrics::elastic::{t_ms, ElasticCurve, ElasticSample, ScaleEvent, ScaleKind};
use sim_core::fault::SimError;
use sim_core::time::{SimDuration, SimTime};
use vscale::ElasticConfig;

use crate::controller::{ScaleDecision, SloController};

/// A cluster with an autoscaler bolted on.
pub struct ElasticFleet {
    cluster: Cluster,
    cfg: ElasticConfig,
    mig: MigrationConfig,
    controller: Option<SloController>,
    curve: ElasticCurve,
    /// In-service host time integrated in ns (exact: transitions only
    /// happen at sample instants).
    host_ns: u64,
    billed_to: SimTime,
    next_sample: SimTime,
    /// A host evacuated by scale-in, awaiting its last cutover before
    /// it can be taken out of service.
    pending_retire: Option<usize>,
}

impl ElasticFleet {
    /// Wraps `cluster`. With `autoscale: false` the fleet only samples
    /// and bills — the static baseline. Installs the SLO sampler, so
    /// the cluster must not have one yet.
    pub fn new(
        mut cluster: Cluster,
        mode: impl Into<String>,
        cfg: ElasticConfig,
        autoscale: bool,
        mig: MigrationConfig,
    ) -> Self {
        cluster.install_slo_sampler(cfg.sample_period);
        assert!(
            cluster.hosts_in_service() >= cfg.min_hosts,
            "fleet starts below min_hosts"
        );
        ElasticFleet {
            cluster,
            cfg,
            mig,
            controller: autoscale.then(|| SloController::new(cfg)),
            curve: ElasticCurve::new(mode),
            host_ns: 0,
            billed_to: SimTime::ZERO,
            next_sample: SimTime::ZERO + cfg.sample_period,
            pending_retire: None,
        }
    }

    /// The wrapped cluster (e.g. to add streams before running).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Read-only cluster access.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The curve so far (finalized only by [`finish`](Self::finish)).
    pub fn curve(&self) -> &ElasticCurve {
        &self.curve
    }

    /// Advances to `deadline`, sampling and actuating at every period
    /// boundary on the way. Callable repeatedly (e.g. drain loops).
    pub fn run_until(&mut self, deadline: SimTime) -> Result<(), SimError> {
        // The queue fires the sample *at* t; stepping one µs past it
        // keeps `run_until(t)`'s exclusive deadline from stranding it.
        let eps = SimDuration::from_us(1);
        while self.next_sample < deadline {
            let t = self.next_sample;
            self.cluster.run_until(t + eps)?;
            self.on_sample(t);
            self.next_sample = t + self.cfg.sample_period;
        }
        self.cluster.run_until(deadline)
    }

    /// Integrates the host-seconds bill up to `now`.
    fn bill(&mut self, now: SimTime) {
        let span = now.since(self.billed_to);
        self.host_ns += self.cluster.hosts_in_service() as u64 * span.as_ns();
        self.billed_to = now;
    }

    fn on_sample(&mut self, t: SimTime) {
        let (st, w) = self
            .cluster
            .pop_slo_sample()
            .expect("queued sample due at every period boundary");
        assert_eq!(st, t, "sample instant drift");
        // Transitions below happen at `t`; bill the interval before.
        self.bill(t);
        self.try_finish_retire(t);
        let decision = match &mut self.controller {
            Some(ctl) => ctl.observe(t, &w, self.cluster.hosts_in_service()),
            None => ScaleDecision::Hold,
        };
        match decision {
            ScaleDecision::Hold => {}
            ScaleDecision::Out => self.scale_out(t),
            ScaleDecision::In => self.scale_in(t),
        }
        let raw_p99 = w.p99_us();
        self.curve.push_sample(ElasticSample {
            t_ms: t_ms(t),
            p99_us: raw_p99,
            ema_p99_us: self
                .controller
                .as_ref()
                .map_or(raw_p99, SloController::ema_p99_us),
            completed: w.completed,
            drops: w.drops,
            in_flight: w.in_flight,
            hosts: self.cluster.hosts_in_service(),
        });
        self.fold_window(&w);
    }

    /// Folds one drained window into the curve's aggregate ledger.
    fn fold_window(&mut self, w: &metrics::elastic::SloWindow) {
        self.curve.latency_us.merge(&w.latency_us);
        self.curve.completed += w.completed;
        self.curve.drops += w.drops;
    }

    /// Retires the pending scale-in host once nothing lives on it.
    fn try_finish_retire(&mut self, _t: SimTime) {
        let Some(h) = self.pending_retire else { return };
        let emptied = (0..self.cluster.n_backends()).all(|b| {
            self.cluster.backend_host(b) != h || self.cluster.backend_health(b) == Health::Down
        });
        if emptied && self.cluster.active_migrations() == 0 {
            // `bill(t)` already ran: the host stops billing exactly here.
            self.cluster.set_in_service(h, false);
            self.pending_retire = None;
        }
    }

    /// Activates the lowest-index parked host and spreads the hottest
    /// backends onto its spares, one per source host.
    fn scale_out(&mut self, t: SimTime) {
        let target = (0..self.cluster.n_hosts()).find(|&h| {
            self.cluster.host_up(h)
                && !self.cluster.host_in_service(h)
                && self.pending_retire != Some(h)
        });
        let Some(target) = target else { return };
        self.cluster.set_in_service(target, true);
        let slots = self.cluster.spares_on(target);
        // Hottest healthy backend per source host, hottest hosts first.
        let mut hot: Vec<(u64, usize)> = (0..self.cluster.n_hosts())
            .filter_map(|h| {
                (0..self.cluster.n_backends())
                    .filter(|&b| {
                        self.cluster.backend_host(b) == h
                            && self.cluster.backend_health(b) == Health::Healthy
                            && !self.cluster.backend_migrating(b)
                    })
                    .map(|b| (self.cluster.backend_outstanding(b), b))
                    .max()
            })
            .collect();
        hot.sort_by(|a, b| (b.0, a.1).cmp(&(a.0, b.1)));
        let mut started = 0;
        for &(_, b) in hot.iter().take(slots) {
            self.cluster.start_migration(b, target, self.mig);
            started += 1;
        }
        self.curve.push_event(ScaleEvent {
            t_ms: t_ms(t),
            kind: ScaleKind::Out,
            host: target,
            migrations: started,
        });
    }

    /// Evacuates the coldest host; retirement completes at a later
    /// sample once the migrations cut over.
    fn scale_in(&mut self, t: SimTime) {
        if self.pending_retire.is_some() {
            return; // one drain at a time
        }
        let victim = (0..self.cluster.n_hosts())
            .filter(|&h| self.cluster.host_up(h) && self.cluster.host_in_service(h))
            .filter_map(|h| {
                let resident: Vec<usize> = (0..self.cluster.n_backends())
                    .filter(|&b| {
                        self.cluster.backend_host(b) == h
                            && self.cluster.backend_health(b) == Health::Healthy
                            && !self.cluster.backend_migrating(b)
                    })
                    .collect();
                if resident.is_empty() {
                    return None;
                }
                let load: u64 = resident
                    .iter()
                    .map(|&b| self.cluster.backend_outstanding(b))
                    .sum();
                Some((load, h, resident.len()))
            })
            .min();
        let Some((_, victim, resident)) = victim else {
            return;
        };
        let started = self.cluster.evacuate_host(victim, self.mig);
        if started == resident {
            self.pending_retire = Some(victim);
            self.curve.push_event(ScaleEvent {
                t_ms: t_ms(t),
                kind: ScaleKind::In,
                host: victim,
                migrations: started,
            });
        }
        // Partial evacuation (not enough landing slots): the backends
        // that did move still complete, but the host stays in service —
        // and billed — until a later round drains it fully.
    }

    /// Flushes the final partial window, closes the bill, and returns
    /// the curve. Call after the run is fully drained.
    pub fn finish(mut self) -> ElasticCurve {
        while let Some((t, w)) = self.cluster.pop_slo_sample() {
            // Samples past the last run_until deadline: account, don't act.
            self.bill(t);
            self.fold_window(&w);
        }
        let now = self.cluster.now();
        self.bill(now);
        let tail = self.cluster.take_slo_window();
        self.fold_window(&tail);
        self.curve.sent = self.cluster.sent();
        self.curve.in_flight_end = self.cluster.in_flight();
        self.curve.host_ms = self.host_ns / 1_000_000;
        self.curve
    }
}
