//! The attack-impact grid: {4 attack classes} × {3 backends} × {defenses
//! off/on}, with each attack's benign twin as the no-attack baseline.
//!
//! Per (attack × backend) cell a fixed victim — a 2-vCPU vScale VM
//! running NPB ep — shares a 2-pCPU host with one 2-vCPU antagonist of
//! equal weight, in three configurations:
//!
//! - **baseline** — the antagonist runs the attack's *benign twin*
//!   (same mean demand, adversarial timing removed), defenses off;
//! - **attacked** — the adversarial timing, defenses off;
//! - **defended** — the adversarial timing against the matching defense
//!   (tick evasion → exact burn, BOOST farming → tick jitter, IPI storm
//!   → kick throttling, oscillation → freeze-rate hysteresis).
//!
//! The credit column runs in the historical tick-sampled charging mode
//! (`CreditConfig::sampled_burn`) — the accounting Zhou et al. attacked —
//! so "defenses off" reproduces the vulnerable scheduler, not this
//! repo's hardened default. Everything printed except the closing
//! `wall_ms` session line is virtual-time-deterministic;
//! `scripts/verify.sh attack_grid` pins seeds and thread count and gates
//! on a committed checksum plus the `defended_ok` fields below.

use metrics::{AttackCell, AttackGrid, AttackSample, SloCurve, SloPoint};
use sim_core::time::SimTime;
use testkit::parallel::run_items_parallel_checked;
use vscale::config::{DefenseConfig, MachineConfig, SchedBackend, SystemConfig};
use vscale::Machine;
use vscale_bench::experiment::seeds_from_env;
use workloads::antagonist::{self, AntagonistMode, AntagonistSpec, AttackKind};
use workloads::npb::{self, NpbApp};
use workloads::spin::SpinPolicy;
use xen_sched::{Credit, Credit2, CreditConfig, DynFrac, Policy};

/// Acceptance floor: the undefended attack must inflate victim waiting
/// by at least 10% on the credit backend.
const MIN_INFLATION_PPM: i64 = 100_000;

/// Acceptance ceiling: the matching defense must restore victim
/// completion time to within 1.25× of the no-attack baseline.
const RECOVERY_BOUND_PPM: u64 = 1_250_000;

/// Virtual-time deadline per run (a stuck victim is a bench bug).
const DEADLINE_SECS: u64 = 120;

/// The three runs of one grid cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CellKind {
    Baseline,
    Attacked,
    Defended,
}

impl CellKind {
    const ALL: [CellKind; 3] = [CellKind::Baseline, CellKind::Attacked, CellKind::Defended];
}

fn victim_app() -> NpbApp {
    NpbApp {
        iterations: 8,
        ..npb::app("ep").expect("ep is in NPB_APPS")
    }
}

/// One victim-vs-antagonist run on policy `P`; `n_attackers` sized for
/// the SLO ladder (the grid always uses exactly one).
fn run_one<P: Policy>(
    kind: AttackKind,
    mode: AntagonistMode,
    defense: DefenseConfig,
    n_attackers: usize,
    seed: u64,
) -> Result<AttackSample, String> {
    let mut m: Machine<P> = Machine::with_backend(MachineConfig {
        n_pcpus: 2,
        seed,
        credit: CreditConfig {
            sampled_burn: true,
            ..CreditConfig::default()
        },
        defense,
    });
    let vm = m.add_domain(SystemConfig::VScale.domain_spec(2).with_weight(256));
    let attackers: Vec<_> = (0..n_attackers)
        .map(|_| antagonist::install_antagonist(&mut m, AntagonistSpec::new(kind, mode)))
        .collect();
    let _run = npb::install(&mut m, vm, victim_app(), 2, SpinPolicy::Default);
    let done = m
        .try_run_until_exited(vm, SimTime::from_secs(DEADLINE_SECS))
        .map_err(|e| format!("typed failure: {e}"))?
        .ok_or_else(|| "victim missed the deadline".to_string())?;
    let vstat = m.domain_stats(vm);
    let mut sample = AttackSample {
        exec_us: done.since(SimTime::ZERO).as_ns() / 1_000,
        wait_us: vstat.wait_total.as_ns() / 1_000,
        reconfigs_suppressed: vstat.reconfigs_suppressed,
        ticks_jittered: m.ticks_jittered(),
        ..AttackSample::default()
    };
    for a in attackers {
        let astat = m.domain_stats(a);
        sample.stolen_us += astat.stolen_est.as_ns() / 1_000;
        sample.kicks_throttled += astat.kicks_throttled;
    }
    Ok(sample)
}

/// [`run_one`] dispatched over the backend axis.
fn run_on(
    backend: SchedBackend,
    kind: AttackKind,
    mode: AntagonistMode,
    defense: DefenseConfig,
    n_attackers: usize,
    seed: u64,
) -> Result<AttackSample, String> {
    match backend {
        SchedBackend::Credit => run_one::<Credit>(kind, mode, defense, n_attackers, seed),
        SchedBackend::Credit2 => run_one::<Credit2>(kind, mode, defense, n_attackers, seed),
        SchedBackend::DynFrac => run_one::<DynFrac>(kind, mode, defense, n_attackers, seed),
    }
}

/// Seed-mean of samples (integer division, like every other bench).
fn mean(samples: &[AttackSample]) -> AttackSample {
    let n = samples.len().max(1) as u64;
    let mut m = AttackSample::default();
    for s in samples {
        m.exec_us += s.exec_us;
        m.wait_us += s.wait_us;
        m.stolen_us += s.stolen_us;
        m.kicks_throttled += s.kicks_throttled;
        m.reconfigs_suppressed += s.reconfigs_suppressed;
        m.ticks_jittered += s.ticks_jittered;
    }
    m.exec_us /= n;
    m.wait_us /= n;
    m.stolen_us /= n;
    m.kicks_throttled /= n;
    m.reconfigs_suppressed /= n;
    m.ticks_jittered /= n;
    m
}

fn main() {
    let session = vscale_bench::session("attack_grid");
    let seeds = seeds_from_env();

    // Flatten the whole grid into (backend, attack, cell, seed) items so
    // the pool fans across everything at once; results fold back in
    // deterministic grid order.
    let mut items = Vec::new();
    for backend in SchedBackend::ALL {
        for kind in AttackKind::ALL {
            for cell in CellKind::ALL {
                for &seed in &seeds {
                    items.push((backend, kind, cell, seed));
                }
            }
        }
    }
    let results = run_items_parallel_checked(&items, |&(backend, kind, cell, seed)| {
        let (mode, defense) = match cell {
            CellKind::Baseline => (AntagonistMode::Benign, DefenseConfig::default()),
            CellKind::Attacked => (AntagonistMode::Adversarial, DefenseConfig::default()),
            CellKind::Defended => (AntagonistMode::Adversarial, kind.matching_defense()),
        };
        run_on(backend, kind, mode, defense, 1, seed)
    });

    let mut grid = AttackGrid::default();
    let mut it = items.iter().zip(results);
    for backend in SchedBackend::ALL {
        for kind in AttackKind::ALL {
            let mut per_cell = Vec::new();
            for _cell in CellKind::ALL {
                let mut ok = Vec::new();
                for _ in &seeds {
                    let ((b, k, c, seed), r) = it.next().expect("item/result zip exhausted");
                    match r {
                        Ok(Ok(s)) => ok.push(s),
                        Ok(Err(e)) => println!(
                            "{{\"backend\":\"{}\",\"attack\":\"{}\",\"cell\":\"{c:?}\",\
                             \"seed\":{seed},\"error\":{e:?}}}",
                            b.label(),
                            k.label(),
                        ),
                        Err(panic) => println!(
                            "{{\"backend\":\"{}\",\"attack\":\"{}\",\"cell\":\"{c:?}\",\
                             \"seed\":{seed},\"panic\":{panic:?}}}",
                            b.label(),
                            k.label(),
                        ),
                    }
                }
                per_cell.push(mean(&ok));
            }
            let cell = AttackCell {
                attack: kind.label(),
                backend: backend.label(),
                baseline: per_cell[0],
                attacked: per_cell[1],
                defended: per_cell[2],
            };
            println!("{}", cell.to_json(MIN_INFLATION_PPM, RECOVERY_BOUND_PPM));
            grid.push(cell);
        }
    }

    // Fleet-SLO lens: victim degradation vs attack intensity (number of
    // storm VMs) on the vulnerable credit backend, defenses off.
    let ladder = [0usize, 1, 2];
    let slo_items: Vec<(usize, u64)> = ladder
        .iter()
        .flat_map(|&n| seeds.iter().map(move |&s| (n, s)))
        .collect();
    let slo_results = run_items_parallel_checked(&slo_items, |&(n, seed)| {
        run_on(
            SchedBackend::Credit,
            AttackKind::IpiStorm,
            AntagonistMode::Adversarial,
            DefenseConfig::default(),
            n,
            seed,
        )
    });
    let mut curve = SloCurve::default();
    let mut base_exec = 0u64;
    let mut si = slo_items.iter().zip(slo_results);
    for &n in &ladder {
        let mut ok = Vec::new();
        for _ in &seeds {
            let ((_, seed), r) = si.next().expect("slo item/result zip exhausted");
            match r {
                Ok(Ok(s)) => ok.push(s),
                Ok(Err(e)) => println!("{{\"slo_intensity\":{n},\"seed\":{seed},\"error\":{e:?}}}"),
                Err(panic) => {
                    println!("{{\"slo_intensity\":{n},\"seed\":{seed},\"panic\":{panic:?}}}")
                }
            }
        }
        let m = mean(&ok);
        if n == 0 {
            base_exec = m.exec_us;
        }
        curve.push(SloPoint {
            intensity: n as u64,
            deviation_ppm: metrics::resilience::deviation_ppm(base_exec, m.exec_us),
            stolen_us: m.stolen_us,
        });
    }
    println!(
        "{{\"curve\":\"ipi_storm_slo\",\"backend\":\"credit\",\"points\":{}}}",
        curve.to_json()
    );

    println!(
        "{}",
        grid.summary_json(MIN_INFLATION_PPM, RECOVERY_BOUND_PPM)
    );
    session.finish();
}
