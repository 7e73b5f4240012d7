//! **Table 1** — the overhead of reading from the vScale channel.
//!
//! The paper reports 0.69 µs for the `sys_getvscaleinfo` system call plus
//! 0.22 µs for the `SCHEDOP_getvscaleinfo` hypercall: 0.91 µs end-to-end,
//! averaged over one million reads. This bench (a) prints the calibrated
//! cost breakdown the simulator charges, and (b) measures the wall-clock
//! cost of one million reads of our actual channel implementation — the
//! data-structure work the syscall/hypercall wrap.

use std::time::Instant;

use metrics::paper::table1;
use metrics::Table;
use sim_core::ids::{GlobalVcpu, PcpuId, VcpuId};
use sim_core::time::SimTime;
use xen_sched::channel::{ChannelCosts, VscaleChannel};
use xen_sched::credit::{CreditConfig, CreditScheduler};
use xen_sched::HypervisorSched;

fn main() {
    let session = vscale_bench::session("table1_channel");
    let costs = ChannelCosts::default();
    let mut t = Table::new(
        "Table 1: overhead of reading from the vScale channel",
        &["operation", "paper (us)", "model (us)"],
    );
    t.row(&[
        "(1) system call (sys_getvscaleinfo)".into(),
        format!("{:.2}", table1::SYSCALL_US),
        format!("{:.2}", costs.syscall.as_us_f64()),
    ]);
    t.row(&[
        "(2) hypercall (SCHEDOP_getvscaleinfo)".into(),
        format!("+{:.2}", table1::HYPERCALL_US),
        format!("+{:.2}", costs.hypercall.as_us_f64()),
    ]);
    t.row(&[
        "total per read".into(),
        format!("{:.2}", table1::TOTAL_US),
        format!("{:.2}", costs.total().as_us_f64()),
    ]);
    t.print();

    // Measure the real data-structure read path, one million times.
    let mut sched = CreditScheduler::new(CreditConfig::default(), 4);
    let dom = sched.create_domain(256, 4, None, None);
    let mut ev = Vec::new();
    sched.wake_domain(dom, SimTime::ZERO, &mut ev);
    for p in 0..4 {
        sched.on_tick(PcpuId(p), SimTime::from_ms(10), &mut ev);
    }
    sched.on_extend_tick(SimTime::from_ms(10));
    let mut ch = VscaleChannel::new();
    const READS: u64 = 1_000_000;
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..READS {
        let (info, _cost) = ch.read(&sched, dom, &costs);
        acc = acc.wrapping_add(info.n_opt as u64);
    }
    let elapsed = start.elapsed();
    assert!(acc > 0);
    let _gv = GlobalVcpu::new(dom, VcpuId(0));
    println!(
        "\n{} reads of the in-hypervisor channel structure: {:?} total, {:.1} ns/read",
        READS,
        elapsed,
        elapsed.as_nanos() as f64 / READS as f64
    );
    println!(
        "(the paper's 0.91 us/read is dominated by the syscall+hypercall\n\
         boundary crossings, which the cost model charges in virtual time)"
    );
    session.finish();
}
