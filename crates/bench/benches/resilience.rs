//! The resilience-curve sweep: degradation vs injected fault rate.
//!
//! One fixed workload (the chaos-smoke scenario) swept over a ladder of
//! fault rates, each rate replayed over the same seeds via
//! `run_items_parallel_checked`. Rate 0 is the golden baseline; every other
//! point reports its completion-time deviation from it (ppm) plus the
//! recovery-protocol counters that bounded the damage. Everything
//! printed except the closing `wall_ms` session line is
//! virtual-time-deterministic — `scripts/verify.sh` pins the plan and
//! seeds and gates on a committed checksum of this output.

use metrics::{RecoveryCounters, ResilienceCurve, ResiliencePoint};
use sim_core::fault::FaultConfig;
use sim_core::time::SimDuration;
use sim_core::time::SimTime;
use testkit::parallel::run_items_parallel_checked;
use vscale::config::SystemConfig;
use vscale::machine::DomainStats;
use vscale_bench::experiment::seeds_from_env;
use workloads::npb::NpbApp;
use workloads::spin::SpinPolicy;

/// The swept rate ladder (ppm). Zero is the golden baseline.
const RATES: [u32; 4] = [0, 20_000, 80_000, 250_000];

/// Allowed undercut between successive points before the curve stops
/// counting as monotone (short runs jitter around small rates).
const SLACK_PPM: i64 = 50_000;

/// The fixed plan at `rate`: every fault class driven off one knob, the
/// flakier classes at half rate so high rungs still complete.
fn plan(rate: u32) -> FaultConfig {
    FaultConfig {
        seed: 0x9E51,
        notify_drop_ppm: rate,
        notify_delay_ppm: rate / 2,
        notify_dup_ppm: rate / 2,
        ipi_drop_ppm: rate,
        ipi_delay_ppm: rate / 2,
        ipi_dup_ppm: rate / 2,
        steal_spike_ppm: rate,
        steal_spike_max: SimDuration::from_ms(1),
        daemon_crash_ppm: rate / 2,
        stale_read_ppm: rate,
        torn_read_ppm: rate / 2,
        ..FaultConfig::default()
    }
}

fn recovery_of(st: &DomainStats) -> RecoveryCounters {
    RecoveryCounters {
        retransmits: st.retransmits,
        doorbell_acks: st.doorbell_acks,
        dup_suppressed: st.dup_suppressed,
        retransmit_exhausted: st.retransmit_exhausted,
        read_retries: st.read_retries,
        read_fallbacks: st.read_fallbacks,
        resyncs: st.resyncs,
        resync_repairs: st.resync_repairs,
        failsafe_trips: st.failsafe_trips,
        hotplug_retries: st.hotplug_retries,
        hotplug_giveups: st.hotplug_giveups,
        ipis_coalesced: st.ipis_coalesced,
    }
}

fn main() {
    let session = vscale_bench::session("resilience");
    let app = NpbApp {
        iterations: 8,
        ..workloads::npb::app("ep").expect("ep is in NPB_APPS")
    };
    let seeds = seeds_from_env();
    let mut curve = ResilienceCurve::default();
    let mut base_us = 0u64;
    for rate in RATES {
        let cfg = plan(rate);
        let results = run_items_parallel_checked(&seeds, |&s| {
            let (mut m, vm, _bg) = vscale_bench::experiment::build_host(SystemConfig::VScale, 2, s);
            m.set_fault_plan(cfg);
            let _run = workloads::npb::install(&mut m, vm, app, 2, SpinPolicy::Default);
            // An I/O stream alongside the barrier workload, so the
            // notification fault classes (and their seq/ack recovery)
            // contribute to the curve, not just reads and crashes.
            let q = m.guest_mut(vm).new_io_queue();
            let port = m.bind_io_port(vm, q, sim_core::ids::VcpuId(0));
            let mut actions = Vec::new();
            for _ in 0..40 {
                actions.push(guest_kernel::thread::ThreadAction::IoWait(q));
                actions.push(guest_kernel::thread::ThreadAction::Compute(
                    SimDuration::from_us(30),
                ));
            }
            let t = m.guest_mut(vm).spawn(
                guest_kernel::thread::ThreadKind::User,
                Box::new(guest_kernel::thread::Script::new(actions)),
            );
            m.start_thread(vm, t);
            for i in 0..40 {
                m.inject_io(vm, port, SimTime::from_ms(5 + 20 * i), 1);
            }
            let done = m
                .try_run_until_exited(vm, SimTime::from_secs(120))
                .map_err(|e| format!("typed failure: {e}"))?
                .ok_or_else(|| "faulted run missed the deadline".to_string())?;
            let st = m.domain_stats(vm);
            let faults = m.fault_stats().expect("plan installed").total();
            Ok::<(u64, u64, RecoveryCounters), String>((
                done.since(SimTime::ZERO).as_ns() / 1_000,
                faults,
                recovery_of(&st),
            ))
        });
        let mut sum_us = 0u64;
        let mut ok = 0u64;
        let mut faults = 0u64;
        let mut recovery = RecoveryCounters::default();
        for (seed, r) in seeds.iter().zip(&results) {
            match r {
                Ok(Ok((us, f, rec))) => {
                    sum_us += us;
                    ok += 1;
                    faults += f;
                    recovery.merge(rec);
                }
                Ok(Err(e)) => {
                    println!("{{\"rate_ppm\":{rate},\"seed\":{seed},\"error\":{e:?}}}");
                }
                Err(panic) => {
                    println!("{{\"rate_ppm\":{rate},\"seed\":{seed},\"panic\":{panic:?}}}");
                }
            }
        }
        // No silent holes: a rate where any seed failed is visible above
        // and still contributes a (partial-mean) point below.
        let mean_us = sum_us.checked_div(ok).unwrap_or(0);
        if rate == 0 {
            base_us = mean_us;
        }
        let point = ResiliencePoint {
            rate_ppm: rate,
            mean_exec_us: mean_us,
            deviation_ppm: metrics::resilience::deviation_ppm(base_us, mean_us),
            faults,
            recovery,
        };
        println!("{}", point.to_json());
        curve.push(point);
    }
    println!("{}", curve.summary_json(SLACK_PPM));
    session.finish();
}
