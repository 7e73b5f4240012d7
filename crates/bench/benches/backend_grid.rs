//! The figure grids with a **scheduler-backend axis**: reduced fig 6
//! (NPB), fig 11 (PARSEC) and fig 14 (Apache) grids run on every
//! [`SchedBackend`], so policy-sensitivity of the vScale win is visible
//! per figure.
//!
//! Output is one JSON line per grid cell, keyed by
//! `(figure, backend, app-or-rate, config)`. Under pinned seeds/scale
//! (`scripts/bench_pinned.sh backend_grid`) everything except the closing
//! `wall_ms` session line is bit-identical across machines;
//! `scripts/verify.sh backend_grid` gates on the committed checksum.
//!
//! The app subset keeps the grid tractable while spanning the paper's
//! behavior classes: `ft` (barrier-heavy, vScale-sensitive), `lu`
//! (ad-hoc spin, improves under every policy), `ep` (embarrassingly
//! parallel, insensitive); `streamcluster` (sync-heavy) and
//! `blackscholes` (insensitive) for PARSEC.

use vscale::config::{SchedBackend, SystemConfig};
use vscale_bench::experiment::{
    apache_experiment_backend, npb_experiment_backend, parsec_experiment_backend, seeds_from_env,
    ExperimentScale,
};
use workloads::npb;
use workloads::parsec;
use workloads::spin::SpinPolicy;

const NPB_SUBSET: [&str; 3] = ["ft", "lu", "ep"];
const PARSEC_SUBSET: [&str; 2] = ["streamcluster", "blackscholes"];
const APACHE_RATES: [f64; 3] = [2_000.0, 6_000.0, 10_000.0];

fn main() {
    let session = vscale_bench::session("backend_grid");
    let scale = ExperimentScale::from_env();
    let seeds = seeds_from_env();
    let vm_vcpus = 4;

    // One flat (figure-cell, seed) work-list across all three figures so
    // VSCALE_THREADS workers stay busy end-to-end; results merge in item
    // order, keeping output byte-identical at any thread count.
    #[derive(Clone, Copy)]
    enum Cell {
        Npb(SchedBackend, usize, SystemConfig),
        Parsec(SchedBackend, usize, SystemConfig),
        Apache(SchedBackend, f64, SystemConfig),
    }
    let mut items: Vec<(Cell, u64)> = Vec::new();
    for backend in SchedBackend::ALL {
        for (ai, _) in NPB_SUBSET.iter().enumerate() {
            for cfg in SystemConfig::ALL {
                for &s in &seeds {
                    items.push((Cell::Npb(backend, ai, cfg), s));
                }
            }
        }
        for (ai, _) in PARSEC_SUBSET.iter().enumerate() {
            for cfg in SystemConfig::ALL {
                for &s in &seeds {
                    items.push((Cell::Parsec(backend, ai, cfg), s));
                }
            }
        }
        for rate in APACHE_RATES {
            for cfg in SystemConfig::ALL {
                // Apache runs a fixed-rate open-loop client; one seed
                // matches the fig14 bench.
                items.push((Cell::Apache(backend, rate, cfg), 0xf14e));
            }
        }
    }
    let results = testkit::parallel::run_items_parallel(&items, |&(cell, seed)| match cell {
        Cell::Npb(b, ai, cfg) => {
            let app = npb::app(NPB_SUBSET[ai]).expect("known app");
            let r = npb_experiment_backend(b, cfg, app, vm_vcpus, SpinPolicy::Default, scale, seed);
            format!(
                "{{\"figure\":\"fig6\",\"backend\":\"{}\",\"app\":\"{}\",\"config\":\"{}\",\"seed\":{},\"exec_s\":{:.4},\"wait_s\":{:.4},\"ipis_per_vcpu_s\":{:.2}}}",
                b.label(),
                NPB_SUBSET[ai],
                cfg.label(),
                seed,
                r.exec_time.as_secs_f64(),
                r.wait_total.as_secs_f64(),
                r.ipis_per_vcpu_per_sec,
            )
        }
        Cell::Parsec(b, ai, cfg) => {
            let app = parsec::app(PARSEC_SUBSET[ai]).expect("known app");
            let r = parsec_experiment_backend(b, cfg, app, vm_vcpus, scale, seed);
            format!(
                "{{\"figure\":\"fig11\",\"backend\":\"{}\",\"app\":\"{}\",\"config\":\"{}\",\"seed\":{},\"exec_s\":{:.4},\"wait_s\":{:.4},\"ipis_per_vcpu_s\":{:.2}}}",
                b.label(),
                PARSEC_SUBSET[ai],
                cfg.label(),
                seed,
                r.exec_time.as_secs_f64(),
                r.wait_total.as_secs_f64(),
                r.ipis_per_vcpu_per_sec,
            )
        }
        Cell::Apache(b, rate, cfg) => {
            let s = apache_experiment_backend(b, cfg, rate, scale, 0xf14e);
            format!(
                "{{\"figure\":\"fig14\",\"backend\":\"{}\",\"rate_per_s\":{:.0},\"config\":\"{}\",\"reply_per_s\":{:.1},\"conn_ms\":{:.3},\"resp_ms\":{:.3},\"drops\":{}}}",
                b.label(),
                rate,
                cfg.label(),
                s.reply_rate,
                s.connection_time_ms,
                s.response_time_ms,
                s.drops,
            )
        }
    });
    for line in results {
        println!("{line}");
    }
    // Human-readable recap: normalized vScale win per backend on the
    // sensitive NPB app (ft), averaged over seeds, from a re-run of the
    // same deterministic cells would be redundant — instead summarize
    // from the printed lines downstream (EXPERIMENTS.md records them).
    session.finish();
}
