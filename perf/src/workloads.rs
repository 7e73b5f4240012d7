//! The four workloads, each driven only through the simulator's public
//! calls: `Machine::step_to`, `Cluster::run_until`,
//! `ElasticFleet::run_until`, `Cluster::checkpoint_host`/`restore_host`
//! and `Machine::vm_image_bytes`.
//!
//! One [`Episode`] builds the system, warms it up (the set-up), runs a
//! fixed simulated span (the measurement), drains, checks the simulated
//! outputs and digests them. Everything simulated is a function of the
//! seed alone, so every episode of one seed has the same digest, traced
//! or not, at any thread count. Spans open and close only between the
//! same calls an untraced episode makes, so tracing cannot move an epoch
//! boundary or a sample instant.

use std::time::{Duration, Instant};

use autoscale::ElasticFleet;
use cluster::{build_web_fleet, Cluster, ClusterConfig, LbPolicy, MigrationConfig, WebFleetConfig};
use sim_core::fault::SimError;
use sim_core::time::{SimDuration, SimTime};
use vscale::config::{MachineConfig, SystemConfig};
use vscale::{DomId, ElasticConfig, Machine, PcpuId, VcpuId};
use workloads::desktop::{self, SlideshowConfig};
use workloads::npb::{self, NpbApp};
use workloads::spin::SpinPolicy;
use workloads::traces::RateTrace;

use crate::stats::Fnv;
use crate::trace::{Span, SpanId, Tracer};

/// The cluster's lockstep epoch (its default, and the link latency).
const EPOCH: SimDuration = SimDuration::from_us(200);

/// Offered load per active host on the constant-rate fleets.
const RPS_PER_HOST: f64 = 8_000.0;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One 16-pCPU host: four 8-vCPU vScale VMs running NPB beside four
    /// slideshow desktops, stepped in 1 ms slices.
    HostNpb,
    /// A 128-host web fleet at a constant 8,000 rps per host.
    FleetSteady,
    /// 16 active plus 16 standby hosts under the autoscaler, diurnal load.
    FleetElastic,
    /// A 32-host web fleet that checkpoints every host, crashes one and
    /// restores it, every 25 ms.
    FleetFailover,
}

impl Workload {
    /// Every workload, in the benchmark's order.
    pub const ALL: [Workload; 4] = [
        Workload::HostNpb,
        Workload::FleetSteady,
        Workload::FleetElastic,
        Workload::FleetFailover,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HostNpb => "host_npb",
            Workload::FleetSteady => "fleet_steady",
            Workload::FleetElastic => "fleet_elastic",
            Workload::FleetFailover => "fleet_failover",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The span wrapping one call of the stepping API this workload
    /// drives.
    pub fn step_span(self) -> &'static str {
        match self {
            Workload::HostNpb => "core.step",
            Workload::FleetSteady | Workload::FleetFailover => "cluster.epoch",
            Workload::FleetElastic => "autoscale.period",
        }
    }
}

/// Run length: `Full` is the benchmark, `Smoke` a sub-second version
/// of the same code path for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Tiny fleets and short spans.
    Smoke,
}

/// What one episode runs.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// The only source of the workload's inputs.
    pub seed: u64,
    /// Run length.
    pub scale: Scale,
    /// Host-stepping threads (fleets only).
    pub threads: usize,
}

/// Exact counts over the measured span, read from public getters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Machine events dispatched.
    pub events: u64,
    /// Hypervisor context switches, all pCPUs.
    pub switches: u64,
    /// vCPU cross-pCPU migrations.
    pub vcpu_migrations: u64,
    /// Guest context switches.
    pub context_switches: u64,
    /// Reschedule IPIs received by guests.
    pub resched_ipis: u64,
    /// Timer interrupts received by guests.
    pub timer_ints: u64,
    /// I/O interrupts handled by guests.
    pub io_irqs: u64,
    /// vScale daemon channel reads.
    pub daemon_reads: u64,
    /// vScale freeze/unfreeze operations.
    pub reconfigs: u64,
    /// Entries held in the per-domain I/O logs at the end of the span
    /// (a size, not a delta).
    pub io_log_entries: u64,
    /// Hosts in the fleet.
    pub hosts: u64,
    /// Lockstep epochs in the span.
    pub epochs: u64,
    /// Host steps the sparse lockstep loop skipped.
    pub steps_skipped: u64,
    /// Requests sent in the span.
    pub requests: u64,
    /// Requests re-queued off failed backends.
    pub requeued: u64,
    /// Hosts restored from a checkpoint.
    pub restores: u64,
    /// Live migrations that cut over.
    pub migrations: u64,
    /// Pre-copy rounds.
    pub precopy_rounds: u64,
    /// Autoscaler scale-outs.
    pub scale_outs: u64,
    /// Autoscaler scale-ins.
    pub scale_ins: u64,
    /// In-service host time billed over the whole run, ms.
    pub host_ms: u64,
    /// Host checkpoints taken.
    pub saves: u64,
    /// Bytes of those checkpoints.
    pub save_bytes: u64,
    /// Bytes of the images restored.
    pub restore_bytes: u64,
}

impl Counts {
    /// Adds one machine's counters over its first `doms` domains.
    fn add_machine(&mut self, m: &Machine, doms: usize) {
        self.events += m.events_delivered();
        let hv = m.hv();
        self.switches += (0..hv.n_pcpus())
            .map(|p| hv.switches(PcpuId(p)))
            .sum::<u64>();
        self.vcpu_migrations += hv.migrations();
        for dom in (0..doms).map(DomId) {
            let g = m.guest(dom);
            self.context_switches += g.stats().context_switches;
            for v in (0..g.n_vcpus()).map(VcpuId) {
                self.resched_ipis += g.resched_ipis(v);
                self.timer_ints += g.timer_ints(v);
                self.io_irqs += g.io_irqs(v);
            }
            let st = m.domain_stats(dom);
            self.daemon_reads += st.daemon_reads;
            self.reconfigs += st.reconfigs;
            let (arrivals, deliveries, completions) = m.io_logs(dom);
            self.io_log_entries += (arrivals.len() + deliveries.len() + completions.len()) as u64;
        }
    }

    /// Machine counters accumulated since `start` (the I/O log size is
    /// kept as it is now).
    fn since(self, start: Counts) -> Counts {
        Counts {
            events: self.events.saturating_sub(start.events),
            switches: self.switches.saturating_sub(start.switches),
            vcpu_migrations: self.vcpu_migrations.saturating_sub(start.vcpu_migrations),
            context_switches: self.context_switches.saturating_sub(start.context_switches),
            resched_ipis: self.resched_ipis.saturating_sub(start.resched_ipis),
            timer_ints: self.timer_ints.saturating_sub(start.timer_ints),
            io_irqs: self.io_irqs.saturating_sub(start.io_irqs),
            daemon_reads: self.daemon_reads.saturating_sub(start.daemon_reads),
            reconfigs: self.reconfigs.saturating_sub(start.reconfigs),
            ..self
        }
    }
}

/// One build-warm-measure-drain-check pass over a workload.
#[derive(Clone, Debug, Default)]
pub struct Episode {
    /// Wall time of the build plus warmup.
    pub setup: Duration,
    /// Wall time of the measured span.
    pub measure: Duration,
    /// Simulated length of the measured span.
    pub sim: SimDuration,
    /// Operations attempted: requests sent in the measured span, or
    /// `step_to` calls on `host_npb`.
    pub ops: u64,
    /// Operations that failed: requests dropped or unanswered after the
    /// drain, `step_to` calls that errored or never ran after an error.
    pub failed: u64,
    /// FNV-1a digest of the simulated outputs.
    pub digest: u64,
    /// Output checks that failed, and any simulator error.
    pub failures: Vec<String>,
    /// Per-layer counts over the measured span.
    pub counts: Counts,
    /// Spans, when traced.
    pub spans: Vec<Span>,
}

impl Episode {
    /// Simulated seconds per wall second over the measured span.
    pub fn sim_speed(&self) -> f64 {
        self.sim.as_secs_f64() / self.measure.as_secs_f64().max(1e-9)
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn error(&mut self, e: &SimError) {
        self.failures.push(format!("simulator error: {e}"));
    }
}

/// Runs one episode of `cfg`, recording spans when `traced`.
pub fn run_episode(cfg: &Config, traced: bool) -> Episode {
    let mut tr = Tracer::new(traced);
    let mut ep = match cfg.workload {
        Workload::HostNpb => host_npb(cfg, &mut tr),
        Workload::FleetSteady => fleet_steady(cfg, &mut tr),
        Workload::FleetElastic => fleet_elastic(cfg, &mut tr),
        Workload::FleetFailover => fleet_failover(cfg, &mut tr),
    };
    ep.spans = tr.into_spans();
    ep
}

// ----------------------------------------------------------------------
// host_npb
// ----------------------------------------------------------------------

/// The paper's §5.2 consolidation: barrier-heavy NPB kernels (plus lu's
/// ad-hoc spinning) in 8-vCPU vScale VMs, desktops stealing pCPUs.
const NPB_APPS: [&str; 4] = ["cg", "lu", "mg", "ua"];
const NPB_VCPUS: usize = 8;
const DESKTOPS: usize = 4;

fn host_npb(cfg: &Config, tr: &mut Tracer) -> Episode {
    let (warm, span) = match cfg.scale {
        Scale::Full => (SimDuration::from_secs(30), SimDuration::from_secs(120)),
        Scale::Smoke => (SimDuration::from_ms(200), SimDuration::from_ms(500)),
    };
    let slice = SimDuration::from_ms(1);
    let mut ep = Episode::default();

    let t0 = Instant::now();
    let setup = tr.begin("setup", SpanId::ROOT);
    let mut m = Machine::new(MachineConfig {
        n_pcpus: 16,
        seed: cfg.seed,
        ..MachineConfig::default()
    });
    let vms: Vec<DomId> = NPB_APPS
        .iter()
        .map(|name| {
            let spec = SystemConfig::VScale
                .domain_spec(NPB_VCPUS)
                .with_weight(128 * NPB_VCPUS as u32);
            let dom = m.add_domain(spec);
            let app = NpbApp {
                iterations: u32::MAX,
                ..npb::app(name).expect("NPB application exists")
            };
            npb::install(&mut m, dom, app, NPB_VCPUS, SpinPolicy::Default);
            dom
        })
        .collect();
    desktop::add_desktops(&mut m, DESKTOPS, SlideshowConfig::default());
    let doms = vms.len() + DESKTOPS;
    let start = SimTime::ZERO + warm;
    let warmed = m.step_to(start);
    tr.end(setup);
    ep.setup = t0.elapsed();

    let slices = span.as_ns() / slice.as_ns();
    ep.ops = slices;
    if let Err(e) = warmed {
        ep.failed = slices;
        ep.error(&e);
        return ep;
    }
    let mut before = Counts::default();
    before.add_machine(&m, doms);
    let run_before: Vec<SimDuration> = vms.iter().map(|&d| m.domain_stats(d).run_total).collect();

    let t1 = Instant::now();
    let measure = tr.begin("measure", SpanId::ROOT);
    let mut t = start;
    for done in 0..slices {
        t += slice;
        let s = tr.begin("core.step", measure);
        let r = m.step_to(t);
        tr.end(s);
        if let Err(e) = r {
            ep.failed = slices - done;
            ep.error(&e);
            break;
        }
    }
    tr.end(measure);
    ep.measure = t1.elapsed();
    ep.sim = span;

    let mut after = Counts::default();
    after.add_machine(&m, doms);
    ep.counts = after.since(before);
    for (&dom, before) in vms.iter().zip(run_before) {
        let now = m.domain_stats(dom).run_total;
        ep.check(now > before, || format!("NPB VM {dom} made no progress"));
    }

    let mut h = Fnv::default();
    h.u64(m.now().as_ns());
    h.u64(m.events_delivered());
    for dom in (0..doms).map(DomId) {
        let st = m.domain_stats(dom);
        h.u64(st.run_total.as_ns());
        h.u64(st.wait_total.as_ns());
        for &n in st.resched_ipis.iter().chain(&st.timer_ints) {
            h.u64(n);
        }
        h.u64(st.daemon_reads);
        h.u64(st.reconfigs);
        let gs = m.guest(dom).stats();
        h.u64(gs.context_switches);
        h.u64(gs.thread_migrations);
        h.u64(gs.futex_waits);
        h.u64(gs.futex_wakes);
        h.u64(m.active_trace(dom).len() as u64);
    }
    ep.digest = h.finish();
    ep
}

// ----------------------------------------------------------------------
// Fleet plumbing shared by the three fleet workloads
// ----------------------------------------------------------------------

fn web_fleet(hosts: usize, standby_hosts: usize, seed: u64) -> WebFleetConfig {
    WebFleetConfig {
        hosts,
        standby_hosts,
        seed,
        ..WebFleetConfig::default()
    }
}

fn cluster_config(seed: u64, threads: usize) -> ClusterConfig {
    ClusterConfig {
        epoch: EPOCH,
        lb: LbPolicy::LeastOutstanding,
        seed,
        threads,
    }
}

/// Counters of every host, over every domain `build_web_fleet` created.
fn fleet_counts(c: &Cluster, f: &WebFleetConfig) -> Counts {
    let mut counts = Counts::default();
    for host in 0..c.n_hosts() {
        let doms = if host < f.hosts {
            f.serving_vms_per_host + f.spares_per_host + f.desktops_per_host
        } else {
            f.serving_vms_per_host
        };
        counts.add_machine(c.machine(host), doms);
    }
    counts
}

/// The set-up of the constant-rate fleets: builds `hosts` hosts, offers
/// 8,000 rps per host until the end of the measured span and warms up
/// to its start. Records the set-up time, and any error in `ep`.
fn constant_rate_fleet(
    cfg: &Config,
    hosts: usize,
    warm: SimDuration,
    span: SimDuration,
    tr: &mut Tracer,
    ep: &mut Episode,
) -> Option<(Cluster, WebFleetConfig)> {
    let t0 = Instant::now();
    let setup = tr.begin("setup", SpanId::ROOT);
    let fleet = web_fleet(hosts, 0, cfg.seed);
    let mut c = build_web_fleet(fleet, cluster_config(cfg.seed, cfg.threads));
    let (start, end) = (SimTime::ZERO + warm, SimTime::ZERO + warm + span);
    c.set_window(start, end);
    c.open_loop(RPS_PER_HOST * hosts as f64, SimTime::ZERO, end);
    let warmed = c.run_until(start);
    tr.end(setup);
    ep.setup = t0.elapsed();
    match warmed {
        Ok(()) => Some((c, fleet)),
        Err(e) => {
            ep.error(&e);
            None
        }
    }
}

/// Steps the cluster epoch by epoch to `to`, one `cluster.epoch` span
/// per `run_until` call. `to` must be an epoch multiple, so the
/// boundaries are those of a single `run_until(to)`.
fn run_epochs(
    c: &mut Cluster,
    to: SimTime,
    tr: &mut Tracer,
    parent: SpanId,
) -> Result<(), SimError> {
    while c.now() < to {
        let next = (c.now() + EPOCH).min(to);
        let s = tr.begin("cluster.epoch", parent);
        let r = c.run_until(next);
        tr.end(s);
        r?;
    }
    Ok(())
}

/// Runs on after the load ends until every request is answered, for at
/// most two simulated seconds.
fn drain(c: &mut Cluster) -> Result<(), SimError> {
    let mut deadline = c.now();
    for _ in 0..200 {
        if c.in_flight() == 0 {
            break;
        }
        deadline += SimDuration::from_ms(10);
        c.run_until(deadline)?;
    }
    Ok(())
}

/// Accounts the requests sent in the measured window and checks the
/// ledger: each was answered or dropped, and none is left in flight.
fn settle_requests(c: &Cluster, ep: &mut Episode) {
    let samples = c.host_samples();
    let completed: u64 = samples.iter().map(|h| h.completed).sum();
    let drops: u64 = samples.iter().map(|h| h.drops).sum();
    let sent = c.sent();
    ep.ops = sent;
    ep.failed = sent.saturating_sub(completed);
    ep.counts.requests = sent;
    let in_flight = c.in_flight();
    ep.check(in_flight == 0, || {
        format!("{in_flight} requests still in flight after the drain")
    });
    ep.check(sent == completed + drops, || {
        format!("ledger: {sent} sent != {completed} completed + {drops} dropped")
    });
}

/// Fleet-level counts read once, after the drain.
fn fleet_totals(c: &Cluster, ep: &mut Episode) {
    let r = c.robustness();
    ep.counts.hosts = c.n_hosts() as u64;
    ep.counts.requeued = r.requests_requeued;
    ep.counts.restores = r.hosts_restored;
    ep.counts.migrations = r.migrations_ok;
    ep.counts.precopy_rounds = r.precopy_rounds;
}

/// Digest of a fleet's simulated outputs: the fleet point (latency
/// histogram, ledger, per-host samples, robustness counters) and every
/// host's clock and event count.
fn fleet_digest(c: &Cluster) -> Fnv {
    let mut h = Fnv::default();
    h.bytes(c.fleet_point("perf", 0).to_json().as_bytes());
    for host in 0..c.n_hosts() {
        let m = c.machine(host);
        h.u64(m.now().as_ns());
        h.u64(m.events_delivered());
    }
    h
}

// ----------------------------------------------------------------------
// fleet_steady
// ----------------------------------------------------------------------

fn fleet_steady(cfg: &Config, tr: &mut Tracer) -> Episode {
    let (hosts, warm, span) = match cfg.scale {
        Scale::Full => (128, SimDuration::from_ms(100), SimDuration::from_ms(300)),
        Scale::Smoke => (8, SimDuration::from_ms(20), SimDuration::from_ms(40)),
    };
    let mut ep = Episode::default();
    let Some((mut c, fleet)) = constant_rate_fleet(cfg, hosts, warm, span, tr, &mut ep) else {
        return ep;
    };
    let end = SimTime::ZERO + warm + span;
    let before = fleet_counts(&c, &fleet);
    let skipped_before = c.steps_skipped();

    let t1 = Instant::now();
    let measure = tr.begin("measure", SpanId::ROOT);
    let measured = run_epochs(&mut c, end, tr, measure);
    tr.end(measure);
    ep.measure = t1.elapsed();
    ep.sim = span;
    ep.counts = fleet_counts(&c, &fleet).since(before);
    ep.counts.epochs = span.as_ns() / EPOCH.as_ns();
    ep.counts.steps_skipped = c.steps_skipped() - skipped_before;

    if let Err(e) = measured.and_then(|()| drain(&mut c)) {
        ep.error(&e);
    }
    settle_requests(&c, &mut ep);
    fleet_totals(&c, &mut ep);
    ep.digest = fleet_digest(&c).finish();
    ep
}

// ----------------------------------------------------------------------
// fleet_failover
// ----------------------------------------------------------------------

/// One failure cycle: checkpoint every host, crash one 1 ms later,
/// restore it from its image 2 ms after the crash.
const CYCLE: SimDuration = SimDuration::from_ms(25);
const CRASH_AFTER: SimDuration = SimDuration::from_ms(1);
const RESTORE_AFTER: SimDuration = SimDuration::from_ms(3);

fn fleet_failover(cfg: &Config, tr: &mut Tracer) -> Episode {
    let (hosts, warm, span) = match cfg.scale {
        Scale::Full => (32, SimDuration::from_ms(300), SimDuration::from_secs(1)),
        Scale::Smoke => (4, SimDuration::from_ms(50), SimDuration::from_ms(100)),
    };
    let mut ep = Episode::default();
    let Some((mut c, fleet)) = constant_rate_fleet(cfg, hosts, warm, span, tr, &mut ep) else {
        return ep;
    };
    let (start, end) = (SimTime::ZERO + warm, SimTime::ZERO + warm + span);
    let before = fleet_counts(&c, &fleet);

    let t1 = Instant::now();
    let measure = tr.begin("measure", SpanId::ROOT);
    let (mut crashes, mut saves, mut save_bytes, mut restore_bytes) = (0, 0, 0, 0);
    let mut measured = Ok(());
    let mut t = start;
    while t < end && measured.is_ok() {
        let victim = crashes as usize % hosts;
        let mut image = Vec::new();
        for host in 0..hosts {
            let s = tr.begin("core.snapshot.save", measure);
            let img = c.checkpoint_host(host);
            tr.end(s);
            saves += 1;
            save_bytes += img.len() as u64;
            if host == victim {
                image = img;
            }
        }
        measured = run_epochs(&mut c, t + CRASH_AFTER, tr, measure).and_then(|()| {
            c.crash_host(victim);
            crashes += 1;
            run_epochs(&mut c, t + RESTORE_AFTER, tr, measure)
        });
        if measured.is_ok() {
            let s = tr.begin("core.snapshot.restore", measure);
            c.restore_host(victim, &image);
            tr.end(s);
            restore_bytes += image.len() as u64;
            measured = run_epochs(&mut c, t + CYCLE, tr, measure);
        }
        t += CYCLE;
    }
    tr.end(measure);
    ep.measure = t1.elapsed();
    ep.sim = span;
    ep.counts = Counts {
        saves,
        save_bytes,
        restore_bytes,
        epochs: span.as_ns() / EPOCH.as_ns(),
        ..fleet_counts(&c, &fleet).since(before)
    };

    if let Err(e) = measured.and_then(|()| drain(&mut c)) {
        ep.error(&e);
    }
    settle_requests(&c, &mut ep);
    fleet_totals(&c, &mut ep);
    let restored = ep.counts.restores;
    ep.check(restored == crashes, || {
        format!("{restored} hosts restored after {crashes} crashes")
    });
    let mut h = fleet_digest(&c);
    h.u64(ep.counts.save_bytes);
    ep.digest = h.finish();
    ep
}

// ----------------------------------------------------------------------
// fleet_elastic
// ----------------------------------------------------------------------

fn fleet_elastic(cfg: &Config, tr: &mut Tracer) -> Episode {
    let (active, warm, end, period) = match cfg.scale {
        Scale::Full => (
            16,
            SimDuration::from_ms(500),
            SimTime::from_ms(4_500),
            SimDuration::from_secs(4),
        ),
        Scale::Smoke => (
            2,
            SimDuration::from_ms(100),
            SimTime::from_ms(1_200),
            SimDuration::from_ms(600),
        ),
    };
    // The elastic study's controller tuning (SLO 10 ms p99, out above
    // 0.8 of it, in below 0.6), bounded to the fleet's 2x headroom.
    let ecfg = ElasticConfig {
        slo_p99_us: 10_000,
        scale_out_ratio: 0.8,
        scale_in_ratio: 0.6,
        min_hosts: active,
        max_hosts: 2 * active,
        ..ElasticConfig::default()
    };
    // Samples fire at multiples of the period; stepping to one µs past
    // each keeps `run_until` calls on the boundaries of one long call.
    let eps = SimDuration::from_us(1);
    let sample = ecfg.sample_period;
    let mut ep = Episode::default();

    let t0 = Instant::now();
    let setup = tr.begin("setup", SpanId::ROOT);
    let fleet = web_fleet(active, active, cfg.seed);
    let c = build_web_fleet(fleet, cluster_config(cfg.seed, cfg.threads));
    let mut f = ElasticFleet::new(c, "perf", ecfg, true, MigrationConfig::default());
    let start = SimTime::ZERO + warm;
    f.cluster_mut().set_window(start, end);
    f.cluster_mut().add_stream(
        RateTrace::Diurnal {
            base_rps: 1_000.0 * active as f64,
            peak_rps: 8_000.0 * active as f64,
            period,
        },
        SimTime::ZERO,
        end,
    );
    let warmed = f.run_until(start + eps);
    tr.end(setup);
    ep.setup = t0.elapsed();
    if let Err(e) = warmed {
        ep.error(&e);
        return ep;
    }
    let before = fleet_counts(f.cluster(), &fleet);
    let skipped_before = f.cluster().steps_skipped();

    let t1 = Instant::now();
    let measure = tr.begin("measure", SpanId::ROOT);
    let mut measured = Ok(());
    let mut image_bytes = 0u64;
    let mut t = start;
    let mut k = 0;
    while t < end {
        t += sample;
        let s = tr.begin("autoscale.period", measure);
        measured = f.run_until(t + eps);
        tr.end(s);
        if measured.is_err() {
            break;
        }
        // The pre-copy dirty probe, on a different host every period.
        let host = k % f.cluster().n_hosts();
        let s = tr.begin("core.snapshot.vm_image", measure);
        let image = f.cluster().machine(host).vm_image_bytes(DomId(0));
        tr.end(s);
        image_bytes += image.len() as u64;
        k += 1;
    }
    tr.end(measure);
    ep.measure = t1.elapsed();
    ep.sim = end.since(start);
    ep.counts = fleet_counts(f.cluster(), &fleet).since(before);
    ep.counts.epochs = ep.sim.as_ns() / EPOCH.as_ns();
    ep.counts.steps_skipped = f.cluster().steps_skipped() - skipped_before;

    if measured.is_ok() {
        let mut deadline = end + eps;
        for _ in 0..300 {
            if f.cluster().in_flight() == 0 && f.cluster().active_migrations() == 0 {
                break;
            }
            deadline += SimDuration::from_ms(10);
            measured = f.run_until(deadline);
            if measured.is_err() {
                break;
            }
        }
    }
    if let Err(e) = &measured {
        ep.error(e);
    }
    settle_requests(f.cluster(), &mut ep);
    fleet_totals(f.cluster(), &mut ep);
    let mut h = fleet_digest(f.cluster());
    h.u64(image_bytes);
    let curve = f.finish();
    h.bytes(curve.to_json().as_bytes());
    ep.digest = h.finish();
    ep.counts.scale_outs = curve.scale_outs() as u64;
    ep.counts.scale_ins = curve.scale_ins() as u64;
    ep.counts.host_ms = curve.host_ms;
    ep.check(curve.in_flight_end == 0, || {
        format!("{} requests in flight at the end", curve.in_flight_end)
    });
    ep.check(curve.scale_outs() > 0, || {
        "the autoscaler never scaled out".into()
    });
    // Whether the fleet shrinks again before the load stops depends on
    // the seed, so scale-ins are counted, not required. The fleet starts
    // at its floor: it can retire no more hosts than it added, and every
    // sample stays within the controller's bounds.
    ep.check(curve.scale_ins() <= curve.scale_outs(), || {
        format!(
            "{} scale-ins after {} scale-outs",
            curve.scale_ins(),
            curve.scale_outs()
        )
    });
    let bounds = ecfg.min_hosts..=ecfg.max_hosts;
    if let Some(s) = curve.samples.iter().find(|s| !bounds.contains(&s.hosts)) {
        ep.failures.push(format!(
            "{} hosts in service at {} ms, outside {bounds:?}",
            s.hosts, s.t_ms
        ));
    }
    ep
}

// ----------------------------------------------------------------------
// Host-count probe
// ----------------------------------------------------------------------

/// Host wall time per machine event against fleet size, at one thread:
/// the slope is the cost the cluster layer adds per host. Returns
/// `(hosts, ns per event)` pairs.
pub fn host_probe(seed: u64, scale: Scale) -> Result<Vec<(usize, f64)>, String> {
    let (sizes, warm, span): (&[usize], _, _) = match scale {
        Scale::Full => (
            &[1, 8, 32, 128, 512],
            SimDuration::from_ms(20),
            SimDuration::from_ms(50),
        ),
        Scale::Smoke => (&[1, 8], SimDuration::from_ms(10), SimDuration::from_ms(10)),
    };
    let cfg = Config {
        workload: Workload::FleetSteady,
        seed,
        scale,
        threads: 1,
    };
    let mut out = Vec::new();
    for &hosts in sizes {
        let mut ep = Episode::default();
        let Some((mut c, fleet)) =
            constant_rate_fleet(&cfg, hosts, warm, span, &mut Tracer::new(false), &mut ep)
        else {
            return Err(ep.failures.join("; "));
        };
        let before = fleet_counts(&c, &fleet).events;
        let t = Instant::now();
        c.run_until(SimTime::ZERO + warm + span)
            .map_err(|e| e.to_string())?;
        let wall = t.elapsed();
        let events = fleet_counts(&c, &fleet).events - before;
        out.push((hosts, wall.as_nanos() as f64 / events.max(1) as f64));
    }
    Ok(out)
}
