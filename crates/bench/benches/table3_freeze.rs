//! **Table 3** — the cost of freezing one vCPU with the vScale balancer.
//!
//! Master side (vCPU0): syscall entry, `cpu_freeze_lock`, mask update,
//! sched-group power update, `SCHEDOP_freezecpu` hypercall, reschedule IPI
//! — 2.10 µs in total on the paper's testbed. Target side: 0.9–1.1 µs per
//! migrated thread and 0.8–1.2 µs per redirected device interrupt.
//!
//! We print the calibrated breakdown charged in virtual time and measure
//! the wall-clock cost of the real freeze/unfreeze state machine on our
//! kernel structures, one million times.

use std::time::Instant;

use guest_kernel::{costs, GuestConfig, GuestKernel, VcpuId};
use metrics::paper::table3;
use metrics::Table;
use sim_core::time::SimTime;

fn main() {
    let session = vscale_bench::session("table3_freeze");
    let mut t = Table::new(
        "Table 3: freezing one vCPU (master side, vCPU0)",
        &["operation", "paper (us)", "model (us)"],
    );
    let steps: [(&str, f64, f64); 6] = [
        (
            "(1) system call (sys_freezecpu)",
            0.69,
            costs::SYSCALL.as_us_f64(),
        ),
        (
            "(2) cpu_freeze_lock +irq save/restore",
            0.06,
            costs::FREEZE_LOCK.as_us_f64(),
        ),
        (
            "(3) change cpu_freeze_mask",
            0.03,
            costs::FREEZE_MASK_UPDATE.as_us_f64(),
        ),
        (
            "(4) update sched domain/group power",
            0.12,
            costs::GROUP_POWER_UPDATE.as_us_f64(),
        ),
        (
            "(5) hypercall (SCHEDOP_freezecpu)",
            0.22,
            costs::HYPERCALL.as_us_f64(),
        ),
        ("(6) send reschedule IPI", 0.98, costs::IPI_SEND.as_us_f64()),
    ];
    let mut paper_acc = 0.0;
    let mut model_acc = 0.0;
    for (name, p, m) in steps {
        paper_acc += p;
        model_acc += m;
        t.row(&[
            name.into(),
            format!("+{p:.2} = {paper_acc:.2}"),
            format!("+{m:.2} = {model_acc:.2}"),
        ]);
    }
    t.print();
    assert!((model_acc - table3::MASTER_TOTAL_US).abs() < 1e-9);

    let mut t2 = Table::new(
        "Table 3 (cont.): target-side costs",
        &["operation", "paper (us)", "model (us)"],
    );
    t2.row(&[
        "migrate one thread".into(),
        format!(
            "{:.1}-{:.1}",
            table3::THREAD_MIGRATION_US.0,
            table3::THREAD_MIGRATION_US.1
        ),
        format!("{:.2}", costs::THREAD_MIGRATION.as_us_f64()),
    ]);
    t2.row(&[
        "migrate one device interrupt".into(),
        format!(
            "{:.1}-{:.1}",
            table3::IRQ_MIGRATION_US.0,
            table3::IRQ_MIGRATION_US.1
        ),
        format!("{:.2}", costs::IRQ_MIGRATION.as_us_f64()),
    ]);
    t2.print();

    // Wall-clock of the actual freeze/unfreeze state machine.
    let mut k = GuestKernel::new(GuestConfig::new(4));
    const OPS: u64 = 1_000_000;
    let mut fx = Vec::with_capacity(4);
    let start = Instant::now();
    for _ in 0..OPS / 2 {
        fx.clear();
        k.freeze_vcpu(VcpuId(3), SimTime::ZERO, &mut fx);
        fx.clear();
        k.unfreeze_vcpu(VcpuId(3), SimTime::ZERO, &mut fx);
    }
    let elapsed = start.elapsed();
    println!(
        "\n{} freeze/unfreeze operations on the kernel structures: {:?} total, {:.1} ns/op",
        OPS,
        elapsed,
        elapsed.as_nanos() as f64 / OPS as f64
    );
    println!(
        "compare: Linux CPU hotplug costs milliseconds to >100 ms per\n\
         operation (Figure 5) — 100x to 100,000x the vScale balancer."
    );
    session.finish();
}
