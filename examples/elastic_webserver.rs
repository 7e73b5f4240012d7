//! An Apache-style web server in a vScale VM next to busy desktop
//! neighbours: shows request latency and the VM resizing itself to keep
//! its interrupt vCPU fully funded.
//!
//! Run with: `cargo run --release --example elastic_webserver [rate]`

use vscale_repro::apps::apache::{self, ApacheConfig};
use vscale_repro::apps::desktop::{self, SlideshowConfig};
use vscale_repro::core::config::{MachineConfig, SystemConfig};
use vscale_repro::core::machine::Machine;
use vscale_repro::sim::time::{SimDuration, SimTime};
use vscale_repro::stats::Table;

fn run(cfg: SystemConfig, rate: f64) -> apache::HttperfSummary {
    let vm_vcpus = 4;
    let mut m = Machine::new(MachineConfig {
        n_pcpus: vm_vcpus,
        seed: 0xe1a5,
        ..MachineConfig::default()
    });
    let mut spec = cfg.domain_spec(vm_vcpus).with_weight(128 * vm_vcpus as u32);
    spec.guest.softirq_net = SimDuration::from_us(25);
    let vm = m.add_domain(spec);
    // Busy neighbours: full-tilt slideshows.
    let slideshow = SlideshowConfig {
        think_mean: SimDuration::from_ms(280),
        burst_mean: SimDuration::from_ms(850),
        ..SlideshowConfig::default()
    };
    desktop::add_desktops(&mut m, 2, slideshow);
    let srv = apache::install(&mut m, vm, ApacheConfig::default());
    let start = SimTime::from_ms(200);
    let window = SimDuration::from_secs(3);
    let sent = apache::run_client(&mut m, vm, &srv, rate, start, window);
    m.run_until(start + window + SimDuration::from_ms(300));
    let summary = apache::summarize(&m, vm, &srv, start, window);
    println!(
        "  {}: sent {sent}, replied {}, active vCPUs ended at {}",
        cfg.label(),
        summary.replies,
        m.guest(vm).active_vcpus()
    );
    summary
}

fn main() {
    let rate: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(9_000.0);
    println!("httperf at {rate:.0} requests/s for a 16 KB file over 1 GbE:\n");
    let mut t = Table::new(
        format!("Apache at {rate:.0} req/s, contended host"),
        &["configuration", "reply rate (/s)", "conn (ms)", "resp (ms)"],
    );
    for cfg in SystemConfig::ALL {
        let s = run(cfg, rate);
        t.row(&[
            cfg.label().into(),
            format!("{:.0}", s.reply_rate),
            format!("{:.2}", s.connection_time_ms),
            format!("{:.2}", s.response_time_ms),
        ]);
    }
    t.print();
    println!(
        "\nconnection time reflects how quickly the interrupt vCPU gets a\n\
         pCPU; the baseline's breaks come from preempted vCPUs and\n\
         lock-holder preemption in the network path (paper Figure 14)."
    );
}
