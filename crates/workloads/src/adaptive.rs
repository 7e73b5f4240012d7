//! The paper's §7 future work, made runnable: an application that is
//! *aware of the VM's real computing power*.
//!
//! A conventional OpenMP program sizes its thread pool once at startup
//! and then splits every parallel region across all of them. When vScale
//! shrinks the VM to `k` active vCPUs, `n > k` equal slices pack unevenly
//! — the doubled vCPU becomes the barrier straggler, and (under ACTIVE
//! spinning) the early finishers burn the VM's own allocation waiting for
//! it.
//!
//! The adaptive worker instead consults [`ProgramCtx::active_vcpus`] (the
//! vScale-exported effective parallelism) at every chunk boundary and
//! re-splits the *remaining* iteration work across exactly that many
//! slices: surplus threads sleep the iteration out instead of computing
//! or spinning. The `ablation_futurework` bench compares the two.

use guest_kernel::thread::{BarrierId, ProgramCtx, ThreadAction, ThreadKind, ThreadProgram};

use guest_kernel::ThreadId;
use sim_core::rng::SimRng;
use sim_core::time::SimDuration;
use vscale::{DomId, Machine};
use xen_sched::Policy;

/// Parameters of the adaptive data-parallel application.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Iterations (barrier intervals).
    pub iterations: u32,
    /// Total computation per iteration (split across participants).
    pub work_per_iter: SimDuration,
    /// Work imbalance across slices (sigma fraction).
    pub imbalance: f64,
    /// Whether workers consult the effective parallelism (`true`) or
    /// behave like a fixed OpenMP pool (`false`).
    pub adaptive: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            iterations: 600,
            work_per_iter: SimDuration::from_us(3_200),
            imbalance: 0.15,
            adaptive: true,
        }
    }
}

struct AdaptiveWorker {
    cfg: AdaptiveConfig,
    /// This worker's rank in the pool.
    rank: usize,
    /// Pool size (threads at the barrier).
    pool: usize,
    barrier: BarrierId,
    rng: SimRng,
    iter: u32,
    at_barrier: bool,
}

impl ThreadProgram for AdaptiveWorker {
    fn next(&mut self, ctx: ProgramCtx) -> ThreadAction {
        if self.at_barrier {
            self.at_barrier = false;
            self.iter += 1;
            return ThreadAction::BarrierWait(self.barrier);
        }
        if self.iter >= self.cfg.iterations {
            return ThreadAction::Exit;
        }
        self.at_barrier = true;
        // How many workers participate in this iteration's split.
        let participants = if self.cfg.adaptive {
            ctx.active_vcpus.clamp(1, self.pool)
        } else {
            self.pool
        };
        if self.rank >= participants {
            // Surplus worker: skip straight to the barrier (a real
            // adaptive runtime parks it; the tiny compute models the
            // bookkeeping of discovering there is no slice for it).
            return ThreadAction::Compute(SimDuration::from_us(5));
        }
        let share = self.cfg.work_per_iter / participants as u64;
        let jitter = (1.0 + self.rng.normal(0.0, self.cfg.imbalance)).max(0.1);
        ThreadAction::Compute(share.mul_f64(jitter))
    }

    fn label(&self) -> &str {
        if self.cfg.adaptive {
            "adaptive-worker"
        } else {
            "fixed-worker"
        }
    }
}

sim_core::snap_struct!(AdaptiveWorker {
    rng,
    iter,
    at_barrier,
} skip { cfg, rank, pool, barrier });

/// Handle to an installed adaptive run.
#[derive(Clone, Debug)]
pub struct AdaptiveRun {
    /// Worker thread ids.
    pub threads: Vec<ThreadId>,
}

/// Installs the adaptive (or fixed) data-parallel app with `n_threads`
/// workers and starts them.
pub fn install<P: Policy>(
    m: &mut Machine<P>,
    dom: DomId,
    cfg: AdaptiveConfig,
    n_threads: usize,
) -> AdaptiveRun {
    let mut seed_rng = m.rng.fork(0xada7_0001);
    let guest = m.guest_mut(dom);
    // Adaptive runtimes block surplus workers rather than spin them:
    // futex barrier (zero spin). The fixed variant keeps OpenMP's default
    // 300 K spin so the comparison is against stock behaviour.
    let budget = if cfg.adaptive {
        Some(SimDuration::ZERO)
    } else {
        crate::spin::SpinPolicy::Default.budget()
    };
    let barrier = guest.sync.new_barrier(n_threads, budget);
    let mut threads = Vec::with_capacity(n_threads);
    for rank in 0..n_threads {
        threads.push(guest.spawn(
            ThreadKind::User,
            Box::new(AdaptiveWorker {
                cfg,
                rank,
                pool: n_threads,
                barrier,
                rng: seed_rng.fork(rank as u64),
                iter: 0,
                at_barrier: false,
            }),
        ));
    }
    for &t in &threads {
        m.start_thread(dom, t);
    }
    AdaptiveRun { threads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimTime;
    use vscale::config::{MachineConfig, SystemConfig};

    fn run(adaptive: bool, seed: u64) -> f64 {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 4,
            seed,
            ..MachineConfig::default()
        });
        let vm = m.add_domain(SystemConfig::VScale.domain_spec(4).with_weight(512));
        // The §5.2.1 fluctuating desktops: the VM hovers mostly at 3
        // active vCPUs — exactly where a fixed 4-way split packs worst.
        crate::desktop::add_desktops(&mut m, 2, crate::desktop::SlideshowConfig::default());
        let cfg = AdaptiveConfig {
            iterations: 400,
            adaptive,
            ..AdaptiveConfig::default()
        };
        install(&mut m, vm, cfg, 4);
        let start = m.now();
        let end = m
            .run_until_exited(vm, SimTime::from_secs(60))
            .expect("adaptive app finishes");
        end.since(start).as_secs_f64()
    }

    #[test]
    fn adaptive_split_beats_fixed_split_when_shrunk() {
        let seeds = [1u64, 5, 9];
        let fixed: f64 = seeds.iter().map(|&s| run(false, s)).sum::<f64>() / 3.0;
        let adaptive: f64 = seeds.iter().map(|&s| run(true, s)).sum::<f64>() / 3.0;
        assert!(
            adaptive < fixed,
            "awareness of effective parallelism should help: adaptive {adaptive:.2}s vs fixed {fixed:.2}s"
        );
    }

    #[test]
    fn surplus_workers_park_instead_of_computing() {
        // With 2 active vCPUs reported, ranks 2..4 must take the cheap
        // path.
        let cfg = AdaptiveConfig::default();
        let mut w = AdaptiveWorker {
            cfg,
            rank: 3,
            pool: 4,
            barrier: BarrierId(0),
            rng: SimRng::new(1),
            iter: 0,
            at_barrier: false,
        };
        let ctx = ProgramCtx {
            tid: ThreadId(3),
            now: SimTime::ZERO,
            vcpu: guest_kernel::VcpuId(0),
            active_vcpus: 2,
        };
        match w.next(ctx) {
            ThreadAction::Compute(d) => assert!(d <= SimDuration::from_us(5)),
            other => panic!("expected cheap skip, got {other:?}"),
        }
        // A participant rank splits the work two ways.
        let mut w0 = AdaptiveWorker {
            cfg,
            rank: 0,
            pool: 4,
            barrier: BarrierId(0),
            rng: SimRng::new(2),
            iter: 0,
            at_barrier: false,
        };
        match w0.next(ctx) {
            ThreadAction::Compute(d) => {
                let expected = cfg.work_per_iter / 2;
                assert!(
                    d > expected.mul_f64(0.5) && d < expected.mul_f64(1.6),
                    "slice {d} vs expected ~{expected}"
                );
            }
            other => panic!("expected a slice, got {other:?}"),
        }
    }
}
