//! The migration/failover sweep: live migration across a dirty-rate ×
//! link-latency grid, plus two operational failover scenarios (rolling
//! host upgrade and hot-spot evacuation).
//!
//! Every cell runs a serving fleet under open-loop load and moves a
//! loaded VM between hosts mid-stream. The offered load is the
//! dirty-rate knob (a busier VM dirties its state faster between
//! pre-copy probes); the migration link's latency decides whether the
//! hard downtime budget is reachable at all — the slowest column can
//! never converge and must exercise the capped-retry abort path with
//! the source VM left serving. The acceptance invariant, checked per
//! cell and surfaced in the closing gate line, is **zero request
//! loss and zero double-service**: after draining,
//! `completed + drops == sent` with nothing in flight, no matter how
//! many migrations aborted or hosts crashed along the way.
//!
//! Cells fan out across `VSCALE_THREADS` workers with per-cell serial
//! stepping; the two scenarios instead inherit `VSCALE_THREADS` for
//! host stepping, so the verify gate's 1-vs-4-thread diff exercises
//! the failure machinery under threaded stepping directly.

use cluster::{
    build_web_fleet, BackendSpec, Cluster, ClusterConfig, LbPolicy, LinkConfig, MigrationConfig,
    WebFleetConfig,
};
use metrics::fleet::RobustnessStats;
use sim_core::time::{SimDuration, SimTime};
use testkit::parallel::run_items_parallel;
use vscale::config::{MachineConfig, SystemConfig};
use vscale::Machine;
use vscale_bench::experiment::{seeds_from_env, ExperimentScale};
use workloads::apache::{self, ApacheConfig};
use workloads::desktop::{self, SlideshowConfig};

/// Offered load ladder (requests/s, whole fleet) — the dirty-rate knob.
const LOADS: [u64; 3] = [3_000, 9_000, 18_000];

/// Migration-link latency column (µs). The 2 ms downtime budget is
/// unreachable at 5 ms latency, forcing the abort path.
const LINK_LATENCY_US: [u64; 3] = [200, 1_000, 5_000];

/// Downtime budget for every grid migration.
const BUDGET: SimDuration = SimDuration::from_ms(2);

/// One scenario/cell outcome, merged across seeds.
#[derive(Default)]
struct Outcome {
    sent: u64,
    completed: u64,
    drops: u64,
    stuck: u64,
    robustness: RobustnessStats,
}

impl Outcome {
    fn absorb(&mut self, c: &Cluster) {
        self.sent += c.sent();
        self.completed += c.host_samples().iter().map(|h| h.completed).sum::<u64>();
        self.drops += c.host_samples().iter().map(|h| h.drops).sum::<u64>();
        self.stuck += c.in_flight();
        self.robustness.merge(c.robustness());
    }

    fn zero_loss(&self) -> bool {
        self.stuck == 0 && self.completed + self.drops == self.sent
    }

    fn merge(&mut self, other: &Outcome) {
        self.sent += other.sent;
        self.completed += other.completed;
        self.drops += other.drops;
        self.stuck += other.stuck;
        self.robustness.merge(&other.robustness);
    }

    fn json(&self, head: String) -> String {
        format!(
            "{{{head},\"sent\":{},\"completed\":{},\"drops\":{},\"zero_loss\":{},{}}}",
            self.sent,
            self.completed,
            self.drops,
            self.zero_loss(),
            // Strip the robustness object's braces to inline its fields.
            &self.robustness.to_json()[1..self.robustness.to_json().len() - 1],
        )
    }
}

/// Runs `c` past `end` until the ledger drains (bounded patience).
fn drain(c: &mut Cluster, mut deadline: SimTime) {
    c.run_until(deadline).expect("fleet runs");
    for _ in 0..300 {
        if c.in_flight() == 0 {
            break;
        }
        deadline += SimDuration::from_ms(10);
        c.run_until(deadline).expect("fleet drains");
    }
}

/// One grid cell: a 4-host fleet; the first backend migrates to host 1
/// at t=100 ms over a 1 Gb/s link with the column's latency.
fn run_grid_cell(load_rps: u64, latency_us: u64, seed: u64, scale: ExperimentScale) -> Outcome {
    let mut c = build_web_fleet(
        WebFleetConfig {
            hosts: 4,
            desktops_per_host: 1,
            spares_per_host: 1,
            seed,
            ..WebFleetConfig::default()
        },
        ClusterConfig {
            threads: 1,
            lb: LbPolicy::LeastOutstanding,
            ..ClusterConfig::default()
        },
    );
    let end = match scale {
        ExperimentScale::Quick => SimTime::from_ms(300),
        ExperimentScale::Full => SimTime::from_ms(600),
    };
    c.open_loop(load_rps as f64, SimTime::ZERO, end);
    c.run_until(SimTime::from_ms(100)).expect("warmup");
    c.start_migration(
        0,
        1,
        MigrationConfig {
            link: LinkConfig {
                bandwidth_bps: 1_000_000_000,
                latency: SimDuration::from_us(latency_us),
            },
            max_rounds: 4,
            downtime_budget: BUDGET,
            ..MigrationConfig::default()
        },
    );
    drain(&mut c, end);
    assert_eq!(c.active_migrations(), 0, "grid migration never settled");
    let mut out = Outcome::default();
    out.absorb(&c);
    out
}

/// Rolling host upgrade: evacuate → checkpoint → crash ("reboot into
/// the new image") → restore, one host at a time, stream never pausing.
fn run_rolling_upgrade(seed: u64) -> Outcome {
    let mut c = build_web_fleet(
        WebFleetConfig {
            hosts: 4,
            desktops_per_host: 1,
            spares_per_host: 1,
            seed,
            ..WebFleetConfig::default()
        },
        ClusterConfig {
            threads: 0, // inherit VSCALE_THREADS: threaded failover path
            lb: LbPolicy::LeastOutstanding,
            ..ClusterConfig::default()
        },
    );
    let end = SimTime::from_ms(450);
    c.open_loop(6_000.0, SimTime::ZERO, end);
    let mut t = SimTime::from_ms(100);
    c.run_until(t).expect("warmup");
    for host in 0..c.n_hosts() {
        let moved = c.evacuate_host(host, MigrationConfig::default());
        assert!(moved > 0, "host {host} had nothing to evacuate");
        t += SimDuration::from_ms(20);
        c.run_until(t).expect("evacuating");
        assert_eq!(c.active_migrations(), 0, "evacuation of host {host} stuck");
        let image = c.checkpoint_host(host);
        c.crash_host(host);
        t += SimDuration::from_ms(20);
        c.run_until(t).expect("upgrading");
        c.restore_host(host, &image);
        t += SimDuration::from_ms(20);
        c.run_until(t).expect("rejoining");
    }
    drain(&mut c, end);
    let mut out = Outcome::default();
    out.absorb(&c);
    out
}

/// A 3-host fleet with one pathological host: host 0 carries 5 desktop
/// VMs against everyone else's 1, so its serving VMs eat constant decode
/// bursts. The policy evacuates them onto the idle hosts' spares.
fn build_hotspot_fleet(seed: u64) -> Cluster {
    let mut c = Cluster::new(ClusterConfig {
        threads: 0,
        lb: LbPolicy::LeastOutstanding,
        ..ClusterConfig::default()
    });
    let slideshow = SlideshowConfig {
        think_mean: SimDuration::from_ms(70),
        burst_mean: SimDuration::from_ms(400),
        ..SlideshowConfig::default()
    };
    let mut backends = Vec::new();
    let mut spares = Vec::new();
    for host in 0..3usize {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 4,
            seed: seed.wrapping_mul(0x9e37_79b9).wrapping_add(host as u64),
            ..MachineConfig::default()
        });
        let twin = |m: &mut Machine| {
            let mut spec = SystemConfig::VScale.domain_spec(4).with_weight(512);
            spec.guest.softirq_net = SimDuration::from_us(25);
            let dom = m.add_domain(spec);
            let srv = apache::install(m, dom, ApacheConfig::default());
            (dom, srv)
        };
        for _ in 0..2 {
            let (dom, srv) = twin(&mut m);
            backends.push((host, dom, srv));
        }
        // Only the cool hosts offer landing slots.
        if host != 0 {
            for _ in 0..2 {
                let (dom, _) = twin(&mut m);
                spares.push((host, dom));
            }
        }
        let desktops = if host == 0 { 5 } else { 1 };
        desktop::add_desktops(&mut m, desktops, slideshow);
        c.add_host(m, LinkConfig::datacenter());
    }
    for (host, dom, srv) in backends {
        c.add_backend(BackendSpec {
            host,
            dom,
            port: srv.port,
            queue: srv.queue,
            reply_bytes: apache::REPLY_BYTES,
        });
    }
    for (host, dom) in spares {
        c.add_spare(host, dom);
    }
    c
}

/// Hot-spot evacuation: both serving VMs leave the noisy host mid-run.
fn run_hotspot(seed: u64) -> Outcome {
    let mut c = build_hotspot_fleet(seed);
    let end = SimTime::from_ms(400);
    c.open_loop(6_000.0, SimTime::ZERO, end);
    c.run_until(SimTime::from_ms(150)).expect("hot phase");
    let moved = c.evacuate_host(0, MigrationConfig::default());
    assert_eq!(moved, 2, "both hot VMs must move");
    c.run_until(SimTime::from_ms(200)).expect("evacuating");
    assert_eq!(c.active_migrations(), 0, "hot-spot evacuation stuck");
    assert_ne!(c.backend_host(0), 0);
    assert_ne!(c.backend_host(1), 0);
    drain(&mut c, end);
    let mut out = Outcome::default();
    out.absorb(&c);
    out
}

fn main() {
    let session = vscale_bench::session("migration_sweep");
    let scale = ExperimentScale::from_env();
    let seeds = seeds_from_env();
    println!(
        "migration grid: {} loads x {} link latencies, budget {}us, {} seeds",
        LOADS.len(),
        LINK_LATENCY_US.len(),
        BUDGET.as_us(),
        seeds.len()
    );

    let mut items = Vec::new();
    for load in LOADS {
        for lat in LINK_LATENCY_US {
            for &s in &seeds {
                items.push((load, lat, s));
            }
        }
    }
    let results = run_items_parallel(&items, |&(load, lat, s)| run_grid_cell(load, lat, s, scale));

    let mut it = results.into_iter();
    let mut grid = Outcome::default();
    let mut cutovers = 0u64;
    let mut aborts = 0u64;
    for load in LOADS {
        for lat in LINK_LATENCY_US {
            let mut cell = Outcome::default();
            for run in (&mut it).take(seeds.len()) {
                cell.merge(&run);
            }
            println!(
                "{}",
                cell.json(format!(
                    "\"experiment\":\"migration\",\"load_rps\":{load},\"link_latency_us\":{lat}"
                ))
            );
            cutovers += cell.robustness.migrations_ok;
            aborts += cell.robustness.migrations_aborted;
            grid.merge(&cell);
        }
    }

    let mut rolling = Outcome::default();
    for &s in &seeds {
        rolling.merge(&run_rolling_upgrade(s));
    }
    println!(
        "{}",
        rolling.json("\"experiment\":\"rolling_upgrade\",\"hosts\":4".to_string())
    );

    let mut hotspot = Outcome::default();
    for &s in &seeds {
        hotspot.merge(&run_hotspot(s));
    }
    println!(
        "{}",
        hotspot.json("\"experiment\":\"hotspot_evacuation\",\"hosts\":3".to_string())
    );

    // The acceptance line verify.sh gates on: every scenario drained
    // with the ledger balanced, the slow column really aborted, and the
    // fast columns really cut over.
    let all_zero_loss = grid.zero_loss() && rolling.zero_loss() && hotspot.zero_loss();
    println!(
        "{{\"migration_gate\":{{\"cells\":{},\"zero_loss\":{all_zero_loss},\
         \"grid_cutovers\":{cutovers},\"grid_aborts\":{aborts},\
         \"rolling_migrations_ok\":{},\"rolling_hosts_restored\":{},\
         \"hotspot_vms_evacuated\":{},\"abort_and_cutover_seen\":{}}}}}",
        LOADS.len() * LINK_LATENCY_US.len(),
        rolling.robustness.migrations_ok,
        rolling.robustness.hosts_restored,
        hotspot.robustness.vms_evacuated,
        cutovers > 0 && aborts > 0
    );
    session.finish();
}
