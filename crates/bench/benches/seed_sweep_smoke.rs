//! A fast multi-seed sweep exercising the parallel seed runner
//! end-to-end: one short NPB run per seed, fanned out across
//! `VSCALE_THREADS` workers, with one JSON line per seed printed **in
//! seed order**.
//!
//! `scripts/verify.sh` runs this twice (`VSCALE_THREADS=1` vs `=4`) and
//! diffs the output with the `wall_ms` session line stripped; every
//! other byte must be identical, which is the byte-stability contract of
//! `testkit::parallel::run_items_parallel`.

use testkit::parallel::run_items_parallel;
use vscale::config::SystemConfig;
use vscale_bench::experiment::{npb_experiment, seeds_from_env, ExperimentScale};
use workloads::npb::NpbApp;
use workloads::spin::SpinPolicy;

fn main() {
    let session = vscale_bench::session("seed_sweep_smoke");
    // A deliberately tiny workload: the point is sweeping seeds, not the
    // figure itself.
    let app = NpbApp {
        iterations: 8,
        ..workloads::npb::app("ep").expect("ep is in NPB_APPS")
    };
    let seeds = seeds_from_env();
    let results = run_items_parallel(&seeds, |&s| {
        npb_experiment(
            SystemConfig::VScale,
            app,
            2,
            SpinPolicy::Default,
            ExperimentScale::Quick,
            s,
        )
    });
    for (seed, r) in seeds.iter().zip(&results) {
        println!(
            "{{\"seed\":{},\"exec_us\":{},\"wait_us\":{},\"run_us\":{},\"ipis_per_vcpu_per_sec\":{:.3}}}",
            seed,
            r.exec_time.as_ns() / 1_000,
            r.wait_total.as_ns() / 1_000,
            r.run_total.as_ns() / 1_000,
            r.ipis_per_vcpu_per_sec
        );
    }
    session.finish();
}
