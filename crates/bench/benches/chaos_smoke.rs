//! A fast fixed-plan chaos sweep: the same fault plan replayed over a
//! handful of seeds, one JSON line per seed, **in seed order**.
//!
//! Everything printed except the closing `wall_ms` session line is
//! virtual-time-deterministic: the fault plan is fixed (and echoed in the
//! header so a line can be replayed standalone via
//! `FaultConfig::from_json`), each seed's simulation is single-threaded,
//! and results merge in seed order. `scripts/verify.sh` runs this twice
//! (`VSCALE_THREADS=1` vs `=4`) and diffs the output with `wall_ms`
//! stripped — the byte-stability contract covers the fault path too.

use sim_core::fault::FaultConfig;
use sim_core::time::SimDuration;
use sim_core::time::SimTime;
use testkit::parallel::run_items_parallel_checked;
use vscale::config::SystemConfig;
use vscale_bench::experiment::seeds_from_env;
use workloads::npb::NpbApp;
use workloads::spin::SpinPolicy;

/// The sweep's fixed fault plan: every class enabled at a rate high
/// enough to fire in a short run, low enough that the run still
/// completes.
fn plan() -> FaultConfig {
    FaultConfig {
        seed: 0xC4A05,
        notify_drop_ppm: 50_000,
        notify_delay_ppm: 50_000,
        notify_dup_ppm: 50_000,
        ipi_drop_ppm: 50_000,
        ipi_delay_ppm: 50_000,
        ipi_dup_ppm: 50_000,
        steal_spike_ppm: 100_000,
        steal_spike_max: SimDuration::from_ms(1),
        daemon_crash_ppm: 100_000,
        stale_read_ppm: 150_000,
        torn_read_ppm: 100_000,
        hotplug_abort_ppm: 0,
        ..FaultConfig::default()
    }
}

fn main() {
    let session = vscale_bench::session("chaos_smoke");
    let cfg = plan();
    println!("{{\"fault_plan\":{}}}", cfg.to_json());
    let app = NpbApp {
        iterations: 8,
        ..workloads::npb::app("ep").expect("ep is in NPB_APPS")
    };
    let seeds = seeds_from_env();
    let results = run_items_parallel_checked(&seeds, |&s| {
        let (mut m, vm, _bg) = vscale_bench::experiment::build_host(SystemConfig::VScale, 2, s);
        m.set_fault_plan(cfg);
        let _run = workloads::npb::install(&mut m, vm, app, 2, SpinPolicy::Default);
        let done = m
            .try_run_until_exited(vm, SimTime::from_secs(120))
            .map_err(|e| format!("typed failure: {e}"))?
            .ok_or_else(|| "faulted run missed the deadline".to_string())?;
        let st = m.domain_stats(vm);
        let fs = m.fault_stats().expect("plan installed");
        Ok::<String, String>(format!(
            "\"exec_us\":{},\"faults\":{},\"fault_stats\":{},\"daemon_crashes\":{},\
             \"discarded_reads\":{},\"daemon_reads\":{}",
            done.since(SimTime::ZERO).as_ns() / 1_000,
            fs.total(),
            fs.to_json(),
            st.daemon_crashes,
            st.discarded_reads,
            st.daemon_reads,
        ))
    });
    for (seed, r) in seeds.iter().zip(&results) {
        // run_items_parallel_checked isolates a panicking seed; the
        // closure's own Result folds in the same way, so one bad seed
        // prints an error line instead of sinking the sweep.
        match r {
            Ok(Ok(fields)) => println!("{{\"seed\":{seed},{fields}}}"),
            Ok(Err(e)) => println!("{{\"seed\":{seed},\"error\":{:?}}}", e),
            Err(panic) => println!("{{\"seed\":{seed},\"panic\":{:?}}}", panic),
        }
    }
    session.finish();
}
