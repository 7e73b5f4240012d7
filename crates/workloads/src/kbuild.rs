//! Parallel kernel-build workload (the Table 2 exercise).
//!
//! `make -jN` inside the guest: compiler processes run in parallel,
//! coordinated through a jobserver pipe (a semaphore) and touching memory-
//! management kernel locks. The paper uses this workload to demonstrate
//! that a frozen vCPU stays quiescent — zero timer interrupts (dynticks)
//! and zero reschedule IPIs — while the others keep the build running.

use guest_kernel::thread::{KLockId, ProgramCtx, SemId, ThreadAction, ThreadKind, ThreadProgram};
use guest_kernel::ThreadId;
use sim_core::rng::SimRng;
use sim_core::time::SimDuration;
use vscale::{DomId, Machine};
use xen_sched::Policy;

/// Kernel-build parameters.
#[derive(Clone, Copy, Debug)]
pub struct KbuildConfig {
    /// Parallel jobs (`make -j`).
    pub jobs: usize,
    /// Jobserver tokens — fewer tokens than jobs keeps some jobs blocked
    /// on the pipe, producing the steady trickle of futex wakes (and
    /// reschedule IPIs) a real `make -j` shows.
    pub jobserver_tokens: u64,
    /// Compilation units per job.
    pub units_per_job: u32,
    /// Mean CPU per compilation unit.
    pub unit_cpu: SimDuration,
}

impl Default for KbuildConfig {
    fn default() -> Self {
        KbuildConfig {
            jobs: 8,
            jobserver_tokens: 4,
            units_per_job: 400,
            unit_cpu: SimDuration::from_ms(30),
        }
    }
}

struct CompilerJob {
    cfg: KbuildConfig,
    jobserver: SemId,
    mm_lock: KLockId,
    rng: SimRng,
    units_left: u32,
    phase: Phase,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    TakeToken,
    Compile,
    MmWork,
    ReleaseToken,
    Done,
}

impl ThreadProgram for CompilerJob {
    fn next(&mut self, _ctx: ProgramCtx) -> ThreadAction {
        loop {
            match self.phase {
                Phase::TakeToken => {
                    if self.units_left == 0 {
                        self.phase = Phase::Done;
                        continue;
                    }
                    self.phase = Phase::Compile;
                    return ThreadAction::SemWait(self.jobserver);
                }
                Phase::Compile => {
                    self.phase = Phase::MmWork;
                    let jitter = (1.0 + self.rng.normal(0.0, 0.5)).max(0.1);
                    return ThreadAction::Compute(self.cfg.unit_cpu.mul_f64(jitter));
                }
                Phase::MmWork => {
                    self.phase = Phase::ReleaseToken;
                    // fork/exec + page-table churn per compilation unit.
                    return ThreadAction::KernelOp {
                        lock: self.mm_lock,
                        hold: SimDuration::from_us(3 + self.rng.below(4)),
                    };
                }
                Phase::ReleaseToken => {
                    self.units_left -= 1;
                    self.phase = Phase::TakeToken;
                    return ThreadAction::SemPost(self.jobserver);
                }
                Phase::Done => return ThreadAction::Exit,
            }
        }
    }

    fn label(&self) -> &str {
        "cc1"
    }
}

sim_core::snap_enum!(Phase {
    0 => TakeToken,
    1 => Compile,
    2 => MmWork,
    3 => ReleaseToken,
    4 => Done,
});

sim_core::snap_struct!(CompilerJob {
    rng,
    units_left,
    phase,
} skip { cfg, jobserver, mm_lock });

/// Handle to an installed kernel build.
#[derive(Clone, Debug)]
pub struct KbuildRun {
    /// Compiler job threads.
    pub threads: Vec<ThreadId>,
}

/// Installs and starts a kernel build in `dom`.
pub fn install<P: Policy>(m: &mut Machine<P>, dom: DomId, cfg: KbuildConfig) -> KbuildRun {
    let mut seed_rng = m.rng.fork(0x6b62_6c64);
    let guest = m.guest_mut(dom);
    let jobserver = guest.sync.new_semaphore(cfg.jobserver_tokens);
    let mm_lock = guest.klocks.alloc();
    let mut threads = Vec::with_capacity(cfg.jobs);
    for i in 0..cfg.jobs {
        threads.push(guest.spawn(
            ThreadKind::User,
            Box::new(CompilerJob {
                cfg,
                jobserver,
                mm_lock,
                rng: seed_rng.fork(i as u64),
                units_left: cfg.units_per_job,
                phase: Phase::TakeToken,
            }),
        ));
    }
    for &t in &threads {
        m.start_thread(dom, t);
    }
    KbuildRun { threads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimTime;
    use vscale::config::{DomainSpec, MachineConfig};

    #[test]
    fn build_makes_progress_on_all_vcpus() {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 4,
            ..MachineConfig::default()
        });
        let d = m.add_domain(DomainSpec::fixed(4));
        install(
            &mut m,
            d,
            KbuildConfig {
                jobs: 8,
                units_per_job: 10,
                unit_cpu: SimDuration::from_ms(2),
                ..KbuildConfig::default()
            },
        );
        m.run_until_exited(d, SimTime::from_secs(5))
            .expect("build ends");
        // All four vCPUs contributed (load balancing spread the jobs).
        let st = m.domain_stats(d);
        for (i, ticks) in st.timer_ints.iter().enumerate() {
            assert!(*ticks > 0, "vcpu{i} never ran");
        }
    }
}
