//! The paper's application experiments as reusable functions.
//!
//! §5.2.1 setting: the test VM (4 or 8 vCPUs) shares a pCPU pool with
//! enough 2-vCPU photo-slideshow desktops to hold a 2:1 vCPU:pCPU average;
//! VM weights are proportional to vCPU counts so the hypervisor treats all
//! vCPUs equally.

use sim_core::time::{SimDuration, SimTime};
use vscale::config::{DomainSpec, MachineConfig, SchedBackend, SystemConfig};
use vscale::{DomId, Machine};
use workloads::apache::{self, ApacheConfig, HttperfSummary};
use workloads::desktop::{self, SlideshowConfig};
use workloads::npb::{self, NpbApp};
use workloads::parsec::{self, ParsecApp};
use workloads::spin::SpinPolicy;
use xen_sched::{Credit, Credit2, DynFrac, Policy};

/// Scales experiment length: benches default to [`ExperimentScale::Quick`]
/// so `cargo bench` stays tractable; set `VSCALE_BENCH_SCALE=full` for
/// paper-length runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExperimentScale {
    /// Workloads shortened ~4x (default).
    Quick,
    /// Paper-comparable durations.
    Full,
}

impl ExperimentScale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Self {
        match std::env::var("VSCALE_BENCH_SCALE").as_deref() {
            Ok("full") => ExperimentScale::Full,
            _ => ExperimentScale::Quick,
        }
    }

    /// Iteration-count multiplier.
    pub fn factor(self) -> f64 {
        match self {
            ExperimentScale::Quick => 0.25,
            ExperimentScale::Full => 1.0,
        }
    }

    /// Scales an application's iteration count.
    pub fn iters(self, n: u32) -> u32 {
        ((f64::from(n) * self.factor()).round() as u32).max(4)
    }
}

/// Result of one application run.
#[derive(Clone, Debug)]
pub struct AppResult {
    /// Wall-clock (virtual) execution time.
    pub exec_time: SimDuration,
    /// Total vCPU waiting time accumulated by the test VM (Figure 9).
    pub wait_total: SimDuration,
    /// Total vCPU run time of the test VM.
    pub run_total: SimDuration,
    /// Reschedule IPIs received per vCPU per second, averaged.
    pub ipis_per_vcpu_per_sec: f64,
    /// The Figure 8 trace: (seconds, active vCPUs).
    pub active_trace: Vec<(f64, usize)>,
}

/// Builds the §5.2.1 host: a pCPU pool sized to the test VM, 2-vCPU
/// slideshow desktops filling up to the paper's 2:1 vCPU:pCPU average,
/// weights ∝ vCPU count. The small pool makes desktop bursts binary
/// events: when a desktop decodes, test-VM vCPUs *must* stack.
pub fn build_host(cfg: SystemConfig, vm_vcpus: usize, seed: u64) -> (Machine, DomId, Vec<DomId>) {
    build_host_on::<Credit>(cfg, vm_vcpus, seed)
}

/// [`build_host`] on an explicit scheduler backend.
pub fn build_host_on<P: Policy>(
    cfg: SystemConfig,
    vm_vcpus: usize,
    seed: u64,
) -> (Machine<P>, DomId, Vec<DomId>) {
    let spec = cfg.domain_spec(vm_vcpus).with_weight(128 * vm_vcpus as u32);
    build_host_with_on::<P>(spec, seed, SlideshowConfig::default())
}

/// [`build_host`] with explicit domain spec and background-desktop
/// parameters (the I/O experiment runs busier desktops).
pub fn build_host_with(
    spec: DomainSpec,
    seed: u64,
    slideshow: SlideshowConfig,
) -> (Machine, DomId, Vec<DomId>) {
    build_host_with_on::<Credit>(spec, seed, slideshow)
}

/// [`build_host_with`] on an explicit scheduler backend.
pub fn build_host_with_on<P: Policy>(
    spec: DomainSpec,
    seed: u64,
    slideshow: SlideshowConfig,
) -> (Machine<P>, DomId, Vec<DomId>) {
    let vm_vcpus = spec.guest.n_vcpus;
    let n_pcpus = vm_vcpus;
    let mut m: Machine<P> = Machine::with_backend(MachineConfig {
        n_pcpus,
        seed,
        ..MachineConfig::default()
    });
    let vm = m.add_domain(spec);
    let n_desktops = desktop::desktops_for_overcommit(n_pcpus, vm_vcpus);
    let desktops = desktop::add_desktops(&mut m, n_desktops, slideshow);
    (m, vm, desktops)
}

/// Runs one NPB application under one system configuration.
pub fn npb_experiment(
    cfg: SystemConfig,
    app: NpbApp,
    vm_vcpus: usize,
    policy: SpinPolicy,
    scale: ExperimentScale,
    seed: u64,
) -> AppResult {
    npb_experiment_on::<Credit>(cfg, app, vm_vcpus, policy, scale, seed)
}

/// [`npb_experiment`] on an explicit scheduler backend.
pub fn npb_experiment_on<P: Policy>(
    cfg: SystemConfig,
    app: NpbApp,
    vm_vcpus: usize,
    policy: SpinPolicy,
    scale: ExperimentScale,
    seed: u64,
) -> AppResult {
    let app = NpbApp {
        iterations: scale.iters(app.iterations),
        ..app
    };
    let (mut m, vm, _bg) = build_host_on::<P>(cfg, vm_vcpus, seed);
    let _run = npb::install(&mut m, vm, app, vm_vcpus, policy);
    let start = m.now();
    let deadline = SimTime::from_secs(120);
    let end = m.run_until_exited(vm, deadline).unwrap_or(deadline);
    collect(&m, vm, start, end)
}

/// Runs one PARSEC application under one system configuration.
pub fn parsec_experiment(
    cfg: SystemConfig,
    app: ParsecApp,
    vm_vcpus: usize,
    scale: ExperimentScale,
    seed: u64,
) -> AppResult {
    parsec_experiment_on::<Credit>(cfg, app, vm_vcpus, scale, seed)
}

/// [`parsec_experiment`] on an explicit scheduler backend.
pub fn parsec_experiment_on<P: Policy>(
    cfg: SystemConfig,
    app: ParsecApp,
    vm_vcpus: usize,
    scale: ExperimentScale,
    seed: u64,
) -> AppResult {
    let app = ParsecApp {
        rounds: scale.iters(app.rounds),
        ..app
    };
    let (mut m, vm, _bg) = build_host_on::<P>(cfg, vm_vcpus, seed);
    let _run = parsec::install(&mut m, vm, app, vm_vcpus);
    let start = m.now();
    let deadline = SimTime::from_secs(120);
    let end = m.run_until_exited(vm, deadline).unwrap_or(deadline);
    collect(&m, vm, start, end)
}

/// Runs the Apache experiment at one request rate.
///
/// The web-server run keeps the same 2:1 consolidation but with the
/// desktops at full slideshow pace (short think time), so the pool is
/// genuinely contended — the regime in which the paper's baseline
/// exhibits multi-ten-millisecond I/O delays and the performance break.
pub fn apache_experiment(
    cfg: SystemConfig,
    rate_per_sec: f64,
    scale: ExperimentScale,
    seed: u64,
) -> HttperfSummary {
    apache_experiment_on::<Credit>(cfg, rate_per_sec, scale, seed)
}

/// [`apache_experiment`] on an explicit scheduler backend.
pub fn apache_experiment_on<P: Policy>(
    cfg: SystemConfig,
    rate_per_sec: f64,
    scale: ExperimentScale,
    seed: u64,
) -> HttperfSummary {
    let vm_vcpus = 4;
    let mut spec = cfg.domain_spec(vm_vcpus).with_weight(128 * vm_vcpus as u32);
    // PV network path costs on the paper-era testbed (netfront event
    // channel, grant copies, TCP/IP) — the paper's VM fields 11.8 K
    // network interrupts/s at 6 K req/s.
    spec.guest.softirq_net = SimDuration::from_us(25);
    let slideshow = SlideshowConfig {
        think_mean: SimDuration::from_ms(280),
        burst_mean: SimDuration::from_ms(850),
        ..SlideshowConfig::default()
    };
    let (mut m, vm, _bg) = build_host_with_on::<P>(spec, seed, slideshow);
    let srv = apache::install(&mut m, vm, ApacheConfig::default());
    let warmup = SimDuration::from_ms(200);
    let window = match scale {
        ExperimentScale::Quick => SimDuration::from_secs(3),
        ExperimentScale::Full => SimDuration::from_secs(10),
    };
    let start = SimTime::ZERO + warmup;
    apache::run_client(&mut m, vm, &srv, rate_per_sec, start, window);
    m.run_until(start + window + SimDuration::from_ms(300));
    apache::summarize(&m, vm, &srv, start, window)
}

fn collect<P: Policy>(m: &Machine<P>, vm: DomId, start: SimTime, end: SimTime) -> AppResult {
    let st = m.domain_stats(vm);
    let dur = end.since(start).as_secs_f64().max(1e-9);
    let total_ipis: u64 = st.resched_ipis.iter().sum();
    let n_vcpus = st.resched_ipis.len().max(1);
    AppResult {
        exec_time: end.since(start),
        wait_total: st.wait_total,
        run_total: st.run_total,
        ipis_per_vcpu_per_sec: total_ipis as f64 / n_vcpus as f64 / dur,
        active_trace: m
            .active_trace(vm)
            .iter()
            .map(|(t, n)| (t.as_secs_f64(), *n))
            .collect(),
    }
}

/// Number of seeds to average per data point (the paper averages three
/// runs). Override with `VSCALE_BENCH_SEEDS`.
pub fn seeds_from_env() -> Vec<u64> {
    let n: u64 = std::env::var("VSCALE_BENCH_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    (0..n.max(1)).map(|i| 3 + 4 * i).collect()
}

/// Averages an experiment over the environment's seed list. Scalar
/// metrics are averaged; the trace is taken from the first seed.
pub fn averaged(mut runs: Vec<AppResult>) -> AppResult {
    assert!(!runs.is_empty());
    let n = runs.len() as f64;
    let exec = runs.iter().map(|r| r.exec_time.as_ns()).sum::<u64>() / runs.len() as u64;
    let wait = runs.iter().map(|r| r.wait_total.as_ns()).sum::<u64>() / runs.len() as u64;
    let run = runs.iter().map(|r| r.run_total.as_ns()).sum::<u64>() / runs.len() as u64;
    let ipis = runs.iter().map(|r| r.ipis_per_vcpu_per_sec).sum::<f64>() / n;
    let first = runs.swap_remove(0);
    AppResult {
        exec_time: SimDuration::from_ns(exec),
        wait_total: SimDuration::from_ns(wait),
        run_total: SimDuration::from_ns(run),
        ipis_per_vcpu_per_sec: ipis,
        active_trace: first.active_trace,
    }
}

/// Seed-averaged NPB run. Seeds fan out across `VSCALE_THREADS` workers
/// (each seed's simulation stays single-threaded); results merge in seed
/// order, so the average is identical at any thread count.
pub fn npb_experiment_avg(
    cfg: SystemConfig,
    app: NpbApp,
    vm_vcpus: usize,
    policy: SpinPolicy,
    scale: ExperimentScale,
) -> AppResult {
    averaged(testkit::parallel::run_items_parallel(
        &seeds_from_env(),
        |&s| npb_experiment(cfg, app, vm_vcpus, policy, scale, s),
    ))
}

/// Seed-averaged PARSEC run (parallel over seeds like
/// [`npb_experiment_avg`]).
pub fn parsec_experiment_avg(
    cfg: SystemConfig,
    app: ParsecApp,
    vm_vcpus: usize,
    scale: ExperimentScale,
) -> AppResult {
    averaged(testkit::parallel::run_items_parallel(
        &seeds_from_env(),
        |&s| parsec_experiment(cfg, app, vm_vcpus, scale, s),
    ))
}

/// Folds a flat `run_items_parallel` result stream (items emitted
/// seed-innermost) back into per-cell seed averages, preserving cell
/// order.
fn fold_grid(results: Vec<AppResult>, cells: usize, seeds_per_cell: usize) -> Vec<AppResult> {
    assert_eq!(results.len(), cells * seeds_per_cell);
    let mut it = results.into_iter();
    (0..cells)
        .map(|_| averaged((&mut it).take(seeds_per_cell).collect()))
        .collect()
}

/// The full Figure 6/7/10 grid as ONE flat work-list: every
/// (app, config, seed) cell is an independent single-threaded
/// simulation, so instead of parallelizing only the seed axis inside
/// each cell, the whole grid fans out across `VSCALE_THREADS` workers
/// at once ([`testkit::parallel::run_items_parallel`]). Results merge
/// in item order, so output is byte-identical at any thread count.
/// Returns `[app][config]` seed-averaged results.
pub fn npb_grid_avg(
    apps: &[NpbApp],
    vm_vcpus: usize,
    policy: SpinPolicy,
    scale: ExperimentScale,
) -> Vec<Vec<AppResult>> {
    let seeds = seeds_from_env();
    let mut items = Vec::new();
    for ai in 0..apps.len() {
        for cfg in SystemConfig::ALL {
            for &s in &seeds {
                items.push((ai, cfg, s));
            }
        }
    }
    let results = testkit::parallel::run_items_parallel(&items, |&(ai, cfg, s)| {
        npb_experiment(cfg, apps[ai], vm_vcpus, policy, scale, s)
    });
    let flat = fold_grid(results, apps.len() * SystemConfig::ALL.len(), seeds.len());
    flat.chunks(SystemConfig::ALL.len())
        .map(<[AppResult]>::to_vec)
        .collect()
}

/// The Figure 11/12/13 grid over one flat (app, config, seed)
/// work-list; see [`npb_grid_avg`]. Returns `[app][config]`.
pub fn parsec_grid_avg(
    apps: &[ParsecApp],
    vm_vcpus: usize,
    scale: ExperimentScale,
) -> Vec<Vec<AppResult>> {
    let seeds = seeds_from_env();
    let mut items = Vec::new();
    for ai in 0..apps.len() {
        for cfg in SystemConfig::ALL {
            for &s in &seeds {
                items.push((ai, cfg, s));
            }
        }
    }
    let results = testkit::parallel::run_items_parallel(&items, |&(ai, cfg, s)| {
        parsec_experiment(cfg, apps[ai], vm_vcpus, scale, s)
    });
    let flat = fold_grid(results, apps.len() * SystemConfig::ALL.len(), seeds.len());
    flat.chunks(SystemConfig::ALL.len())
        .map(<[AppResult]>::to_vec)
        .collect()
}

/// [`npb_experiment`] dispatched over the runtime [`SchedBackend`] tag.
pub fn npb_experiment_backend(
    backend: SchedBackend,
    cfg: SystemConfig,
    app: NpbApp,
    vm_vcpus: usize,
    policy: SpinPolicy,
    scale: ExperimentScale,
    seed: u64,
) -> AppResult {
    match backend {
        SchedBackend::Credit => {
            npb_experiment_on::<Credit>(cfg, app, vm_vcpus, policy, scale, seed)
        }
        SchedBackend::Credit2 => {
            npb_experiment_on::<Credit2>(cfg, app, vm_vcpus, policy, scale, seed)
        }
        SchedBackend::DynFrac => {
            npb_experiment_on::<DynFrac>(cfg, app, vm_vcpus, policy, scale, seed)
        }
    }
}

/// [`parsec_experiment`] dispatched over the runtime [`SchedBackend`] tag.
pub fn parsec_experiment_backend(
    backend: SchedBackend,
    cfg: SystemConfig,
    app: ParsecApp,
    vm_vcpus: usize,
    scale: ExperimentScale,
    seed: u64,
) -> AppResult {
    match backend {
        SchedBackend::Credit => parsec_experiment_on::<Credit>(cfg, app, vm_vcpus, scale, seed),
        SchedBackend::Credit2 => parsec_experiment_on::<Credit2>(cfg, app, vm_vcpus, scale, seed),
        SchedBackend::DynFrac => parsec_experiment_on::<DynFrac>(cfg, app, vm_vcpus, scale, seed),
    }
}

/// [`apache_experiment`] dispatched over the runtime [`SchedBackend`] tag.
pub fn apache_experiment_backend(
    backend: SchedBackend,
    cfg: SystemConfig,
    rate_per_sec: f64,
    scale: ExperimentScale,
    seed: u64,
) -> HttperfSummary {
    match backend {
        SchedBackend::Credit => apache_experiment_on::<Credit>(cfg, rate_per_sec, scale, seed),
        SchedBackend::Credit2 => apache_experiment_on::<Credit2>(cfg, rate_per_sec, scale, seed),
        SchedBackend::DynFrac => apache_experiment_on::<DynFrac>(cfg, rate_per_sec, scale, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factor_shrinks_iterations() {
        assert_eq!(ExperimentScale::Quick.iters(400), 100);
        assert_eq!(ExperimentScale::Full.iters(400), 400);
        assert_eq!(ExperimentScale::Quick.iters(8), 4, "floor at 4");
    }
}
