//! A fleet host's heap footprint, by construction stage, under a ceiling.
//!
//! Fleet memory (DESIGN.md §12) is hosts × per-host bytes, so the bytes
//! one host holds are what decide whether a large fleet fits in cache
//! and in RAM. A counting `#[global_allocator]` tracks live heap bytes
//! across alloc, realloc and dealloc. The test builds the `fleet_steady`
//! host shape (`build_web_fleet`, seed 3, `LeastOutstanding`, one
//! thread) at 16 hosts, offers 8,000 rps per host to 400 ms, runs the
//! 100 ms warm-up and asserts the live bytes per host. It prints where
//! they go: one host built the same way stage by stage, the cluster's
//! per-host share (the fleet's build bytes over the host count, less
//! that one machine), and the per-host growth over the warm-up.
//! `cargo test --test host_footprint -- --nocapture` shows the table.
//!
//! This file must stay a **single-test binary**: the counter is global,
//! so a concurrently running second test would pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use cluster::{build_web_fleet, ClusterConfig, LbPolicy, WebFleetConfig};
use vscale_repro::apps::apache::{self, ApacheConfig};
use vscale_repro::apps::desktop::{self, SlideshowConfig};
use vscale_repro::core::config::MachineConfig;
use vscale_repro::core::machine::Machine;
use vscale_repro::sim::time::{SimDuration, SimTime};

/// Tracks the heap bytes currently allocated.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the caller's; the counter only reads sizes.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static A: LiveBytes = LiveBytes;

const HOSTS: usize = 16;
const SEED: u64 = 3;
const RPS_PER_HOST: f64 = 8_000.0;
/// Live heap bytes per host after the warm-up. The dense 512-bucket
/// histograms and per-host SLO windows held about 47 KB; occupied-range
/// histograms and one fleet-wide window hold about 39 KB.
const CEILING: i64 = 41_000;

/// Runs `f`; returns its result and the live bytes it added.
fn measured<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.load(Ordering::Relaxed);
    let out = f();
    (out, LIVE.load(Ordering::Relaxed) - before)
}

/// Host 0 of `fleet`, built stage by stage as `build_web_fleet` builds
/// it; returns each stage's live bytes.
fn one_host_stages(fleet: &WebFleetConfig) -> Vec<(String, i64)> {
    let mut stages = Vec::new();
    let (mut m, bytes) = measured(|| {
        Machine::new(MachineConfig {
            n_pcpus: fleet.n_pcpus,
            seed: fleet.seed.wrapping_mul(0x9e37_79b9),
            ..MachineConfig::default()
        })
    });
    stages.push(("Machine::new".to_string(), bytes));
    for vm in 0..fleet.serving_vms_per_host {
        let (dom, bytes) = measured(|| {
            let mut spec = fleet
                .mode
                .domain_spec(fleet.vm_vcpus)
                .with_weight(128 * fleet.vm_vcpus as u32);
            spec.guest.softirq_net = SimDuration::from_us(25);
            m.add_domain(spec)
        });
        stages.push((format!("serving VM {vm}: add_domain"), bytes));
        // The returned handle's worker list is the caller's, not the host's.
        let ((), bytes) = measured(|| {
            apache::install(&mut m, dom, ApacheConfig::default());
        });
        stages.push((format!("serving VM {vm}: apache::install"), bytes));
    }
    let slideshow = SlideshowConfig {
        think_mean: SimDuration::from_ms(70),
        burst_mean: SimDuration::from_ms(400),
        ..SlideshowConfig::default()
    };
    let ((), bytes) = measured(|| {
        desktop::add_desktops(&mut m, fleet.desktops_per_host, slideshow);
    });
    stages.push((format!("{} desktops", fleet.desktops_per_host), bytes));
    drop(m);
    stages
}

#[test]
fn a_fleet_host_stays_under_its_byte_ceiling() {
    let fleet = WebFleetConfig {
        hosts: HOSTS,
        seed: SEED,
        ..WebFleetConfig::default()
    };
    let mut stages = one_host_stages(&fleet);
    let machine: i64 = stages.iter().map(|(_, b)| b).sum();

    let (mut c, built) = measured(|| {
        build_web_fleet(
            fleet,
            ClusterConfig {
                lb: LbPolicy::LeastOutstanding,
                seed: SEED,
                threads: 1,
                ..ClusterConfig::default()
            },
        )
    });
    let (start, end) = (SimTime::from_ms(100), SimTime::from_ms(400));
    let (warmed, warm) = measured(|| {
        c.set_window(start, end);
        c.open_loop(RPS_PER_HOST * HOSTS as f64, SimTime::ZERO, end);
        c.run_until(start)
    });
    warmed.expect("the fleet warms up");
    assert!(c.in_flight() > 0, "load is flowing");

    let per_host = |bytes: i64| bytes / HOSTS as i64;
    stages.push((
        "cluster slot: fleet build / hosts - one machine".to_string(),
        per_host(built) - machine,
    ));
    stages.push(("built, per host".to_string(), per_host(built)));
    stages.push((
        "warm-up growth to 100 ms, per host".to_string(),
        per_host(warm),
    ));
    let total = per_host(built + warm);
    stages.push(("live after warm-up, per host".to_string(), total));
    println!("{HOSTS}-host web fleet, seed {SEED}, {RPS_PER_HOST} rps per host: heap bytes");
    for (stage, bytes) in &stages {
        println!("  {stage:<50} {bytes:>8}");
    }
    assert!(
        total <= CEILING,
        "a fleet host holds {total} B of heap after the warm-up, over the \
         {CEILING} B ceiling; --nocapture prints the stages"
    );
}
