//! NAS Parallel Benchmarks (NPB-OMP 3.3) behavioural models.
//!
//! Every NPB kernel is an iterative, barrier-synchronized OpenMP program:
//! each worker computes its slice of an iteration and then waits at an
//! implicit barrier for the stragglers. The performance signature that
//! matters under VM scheduling delays is captured by four knobs per
//! application:
//!
//! - **granularity** — work per thread between consecutive barriers;
//! - **imbalance** — how unevenly that work spreads across threads (the
//!   longer the wait at the barrier, the more spin/futex traffic);
//! - **sync style** — OpenMP-policy barriers, or lu's *ad-hoc* user-space
//!   busy-waiting (its own pipelined wavefront synchronization, outside
//!   OpenMP's control — the reason vScale helps lu regardless of
//!   `GOMP_SPINCOUNT`);
//! - **kernel-lock intensity** — how often an iteration touches contended
//!   kernel locks (mm operations), which is what pv-spinlock mitigates.
//!
//! The constants are calibrated so that relative synchronization
//! intensities match the paper's Figure 10 IPI profile (mg/sp/ua
//! barrier-heavy, ep/ft/is nearly sync-free).

use guest_kernel::thread::{
    BarrierId, KLockId, ProgramCtx, ThreadAction, ThreadKind, ThreadProgram,
};
use guest_kernel::ThreadId;
use sim_core::rng::SimRng;
use sim_core::time::SimDuration;
use vscale::{DomId, Machine};
use xen_sched::Policy;

use crate::spin::SpinPolicy;

/// How an application's threads synchronize each iteration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncStyle {
    /// Implicit OpenMP barrier: spin budget follows the active policy.
    OmpBarrier,
    /// Application-private busy-wait synchronization (lu): always spins,
    /// whatever `GOMP_SPINCOUNT` says.
    AdHocSpin,
}

/// Static description of one NPB application.
#[derive(Clone, Copy, Debug)]
pub struct NpbApp {
    /// Benchmark name (paper's lower-case convention).
    pub name: &'static str,
    /// Iterations (barrier intervals) per run.
    pub iterations: u32,
    /// Mean computation per thread per iteration.
    pub work_per_iter: SimDuration,
    /// Log-normal-ish imbalance of that work across threads (sigma as a
    /// fraction of the mean).
    pub imbalance: f64,
    /// Synchronization style.
    pub sync: SyncStyle,
    /// Probability that an iteration performs a kernel critical section
    /// (mm lock) per thread.
    pub kernel_op_rate: f64,
}

/// The ten NPB-OMP applications, calibrated for a ~2 s dedicated run with
/// four threads.
pub const NPB_APPS: [NpbApp; 10] = [
    NpbApp {
        name: "bt",
        iterations: 400,
        work_per_iter: SimDuration::from_us(5_000),
        imbalance: 0.18,
        sync: SyncStyle::OmpBarrier,
        kernel_op_rate: 0.30,
    },
    NpbApp {
        name: "cg",
        iterations: 1_200,
        work_per_iter: SimDuration::from_us(1_600),
        imbalance: 0.25,
        sync: SyncStyle::OmpBarrier,
        kernel_op_rate: 0.25,
    },
    NpbApp {
        name: "dc",
        iterations: 150,
        work_per_iter: SimDuration::from_us(13_000),
        imbalance: 0.10,
        sync: SyncStyle::OmpBarrier,
        kernel_op_rate: 0.40,
    },
    NpbApp {
        name: "ep",
        iterations: 16,
        work_per_iter: SimDuration::from_us(125_000),
        imbalance: 0.02,
        sync: SyncStyle::OmpBarrier,
        kernel_op_rate: 0.02,
    },
    NpbApp {
        name: "ft",
        iterations: 40,
        work_per_iter: SimDuration::from_us(50_000),
        imbalance: 0.05,
        sync: SyncStyle::OmpBarrier,
        kernel_op_rate: 0.10,
    },
    NpbApp {
        name: "is",
        iterations: 60,
        work_per_iter: SimDuration::from_us(33_000),
        imbalance: 0.06,
        sync: SyncStyle::OmpBarrier,
        kernel_op_rate: 0.10,
    },
    NpbApp {
        name: "lu",
        iterations: 2_500,
        work_per_iter: SimDuration::from_us(800),
        imbalance: 0.22,
        sync: SyncStyle::AdHocSpin,
        kernel_op_rate: 0.15,
    },
    NpbApp {
        name: "mg",
        iterations: 1_800,
        work_per_iter: SimDuration::from_us(1_100),
        imbalance: 0.20,
        sync: SyncStyle::OmpBarrier,
        kernel_op_rate: 0.15,
    },
    NpbApp {
        name: "sp",
        iterations: 1_600,
        work_per_iter: SimDuration::from_us(1_250),
        imbalance: 0.22,
        sync: SyncStyle::OmpBarrier,
        kernel_op_rate: 0.20,
    },
    NpbApp {
        name: "ua",
        iterations: 2_200,
        work_per_iter: SimDuration::from_us(900),
        imbalance: 0.28,
        sync: SyncStyle::OmpBarrier,
        kernel_op_rate: 0.15,
    },
];

/// Looks up an application by name.
pub fn app(name: &str) -> Option<NpbApp> {
    NPB_APPS.iter().copied().find(|a| a.name == name)
}

/// The dedicated-hardware (no overcommit, no delays) runtime estimate:
/// iterations × work — used to normalize measured times.
pub fn ideal_runtime(app: &NpbApp) -> SimDuration {
    app.work_per_iter * u64::from(app.iterations)
}

/// One OpenMP worker thread of an NPB run.
struct NpbWorker {
    app: NpbApp,
    barrier: BarrierId,
    mm_lock: KLockId,
    rng: SimRng,
    iter: u32,
    /// Sub-steps of the current iteration still to emit.
    phase: Phase,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Compute,
    MaybeKernelOp,
    Barrier,
    Done,
}

impl ThreadProgram for NpbWorker {
    fn next(&mut self, _ctx: ProgramCtx) -> ThreadAction {
        loop {
            match self.phase {
                Phase::Compute => {
                    self.phase = Phase::MaybeKernelOp;
                    let jitter = (1.0 + self.rng.normal(0.0, self.app.imbalance)).max(0.1);
                    return ThreadAction::Compute(self.app.work_per_iter.mul_f64(jitter));
                }
                Phase::MaybeKernelOp => {
                    self.phase = Phase::Barrier;
                    if self.rng.chance(self.app.kernel_op_rate) {
                        return ThreadAction::KernelOp {
                            lock: self.mm_lock,
                            hold: SimDuration::from_us(2 + self.rng.below(3)),
                        };
                    }
                }
                Phase::Barrier => {
                    self.iter += 1;
                    self.phase = if self.iter >= self.app.iterations {
                        Phase::Done
                    } else {
                        Phase::Compute
                    };
                    return ThreadAction::BarrierWait(self.barrier);
                }
                Phase::Done => return ThreadAction::Exit,
            }
        }
    }

    fn label(&self) -> &str {
        self.app.name
    }
}

sim_core::snap_enum!(Phase {
    0 => Compute,
    1 => MaybeKernelOp,
    2 => Barrier,
    3 => Done,
});

sim_core::snap_struct!(NpbWorker { rng, iter, phase } skip { app, barrier, mm_lock });

/// Handle to an installed NPB run.
#[derive(Clone, Debug)]
pub struct NpbRun {
    /// The spawned worker threads.
    pub threads: Vec<ThreadId>,
    /// The application installed.
    pub app: NpbApp,
}

/// Installs `app` into `dom` with `n_threads` workers (OpenMP sizes its
/// pool from the online vCPU count at startup) under the given spin
/// policy, and starts every thread.
pub fn install<P: Policy>(
    m: &mut Machine<P>,
    dom: DomId,
    app: NpbApp,
    n_threads: usize,
    policy: SpinPolicy,
) -> NpbRun {
    let budget = match app.sync {
        // lu's hand-rolled spinning ignores the OpenMP policy.
        SyncStyle::AdHocSpin => None,
        SyncStyle::OmpBarrier => policy.budget(),
    };
    let mut seed_rng = m.rng.fork(0x4e50_4200 ^ app.name.len() as u64);
    let guest = m.guest_mut(dom);
    let barrier = guest.sync.new_barrier(n_threads, budget);
    let mm_lock = guest.klocks.alloc();
    let mut threads = Vec::with_capacity(n_threads);
    for i in 0..n_threads {
        let worker = NpbWorker {
            app,
            barrier,
            mm_lock,
            rng: seed_rng.fork(i as u64),
            iter: 0,
            phase: Phase::Compute,
        };
        threads.push(guest.spawn(ThreadKind::User, Box::new(worker)));
    }
    for &t in &threads {
        m.start_thread(dom, t);
    }
    NpbRun { threads, app }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::ids::{ThreadId, VcpuId};
    use sim_core::time::SimTime;

    #[test]
    fn all_ten_apps_present() {
        let names: Vec<_> = NPB_APPS.iter().map(|a| a.name).collect();
        assert_eq!(
            names,
            vec!["bt", "cg", "dc", "ep", "ft", "is", "lu", "mg", "sp", "ua"]
        );
        assert!(app("lu").is_some());
        assert!(app("nope").is_none());
    }

    #[test]
    fn ideal_runtimes_are_comparable() {
        // All apps should take roughly the same dedicated time (the suite
        // normalizes per app anyway) — within 2 s ± 30%.
        for a in NPB_APPS {
            let t = ideal_runtime(&a);
            assert!(
                (SimDuration::from_ms(1_400)..=SimDuration::from_ms(2_600)).contains(&t),
                "{}: ideal runtime {t}",
                a.name
            );
        }
    }

    #[test]
    fn lu_uses_ad_hoc_spin() {
        assert_eq!(app("lu").unwrap().sync, SyncStyle::AdHocSpin);
        for a in NPB_APPS.iter().filter(|a| a.name != "lu") {
            assert_eq!(a.sync, SyncStyle::OmpBarrier);
        }
    }

    #[test]
    fn sync_intensity_ordering_matches_figure10() {
        // Barrier frequency = iterations / runtime; ua, mg, sp must be the
        // most barrier-intensive OpenMP apps, ep the least.
        let rate = |name: &str| {
            let a = app(name).unwrap();
            f64::from(a.iterations) / ideal_runtime(&a).as_secs_f64()
        };
        for heavy in ["ua", "mg", "sp"] {
            for light in ["ep", "ft", "is", "dc"] {
                assert!(
                    rate(heavy) > 4.0 * rate(light),
                    "{heavy} vs {light}: {} vs {}",
                    rate(heavy),
                    rate(light)
                );
            }
        }
    }

    #[test]
    fn worker_emits_compute_then_barrier() {
        let mut w = NpbWorker {
            app: app("ep").unwrap(),
            barrier: BarrierId(0),
            mm_lock: KLockId(0),
            rng: SimRng::new(1),
            iter: 0,
            phase: Phase::Compute,
        };
        let ctx = ProgramCtx {
            tid: ThreadId(0),
            now: SimTime::ZERO,
            vcpu: VcpuId(0),
            active_vcpus: 4,
        };
        let mut saw_barrier = false;
        let mut steps = 0;
        loop {
            match w.next(ctx) {
                ThreadAction::Compute(d) => assert!(d > SimDuration::ZERO),
                ThreadAction::BarrierWait(_) => saw_barrier = true,
                ThreadAction::KernelOp { .. } => {}
                ThreadAction::Exit => break,
                other => panic!("unexpected action {other:?}"),
            }
            steps += 1;
            assert!(steps < 100_000);
        }
        assert!(saw_barrier);
        assert_eq!(w.iter, 16);
    }
}
