//! PARSEC 3.0 behavioural models.
//!
//! Except for freqmine (OpenMP), the PARSEC applications are pthread
//! programs whose synchronization is sleep-then-wakeup: mutexes and
//! condition variables translating into `futex_wait`/`futex_wake` and
//! reschedule IPIs. The paper's Figure 13 profile shows how diverse they
//! are — dedup at ~940 IPIs/vCPU/s (pipeline queues plus heavy `mm_sem`
//! pressure), streamcluster at ~183 (a hand-rolled condvar barrier),
//! swaptions at essentially zero (no synchronization primitive at all).
//!
//! Three program templates cover the suite:
//!
//! - [`Template::Pipeline`] — stages connected by bounded mutex+condvar
//!   queues (dedup, ferret, x264, vips, bodytrack's stage mode);
//! - [`Template::CondBarrier`] — data-parallel phases meeting at a
//!   mutex/condvar barrier (streamcluster, fluidanimate, facesim,
//!   canneal);
//! - [`Template::DataParallel`] — independent slices with rare or no
//!   synchronization (blackscholes, swaptions, raytrace, freqmine —
//!   the last with OpenMP-default 300 K spin barriers).

use guest_kernel::thread::{
    BarrierId, CondId, KLockId, MutexId, ProgramCtx, SemId, ThreadAction, ThreadKind, ThreadProgram,
};
use guest_kernel::ThreadId;
use sim_core::rng::SimRng;
use sim_core::time::SimDuration;
use vscale::{DomId, Machine};
use xen_sched::Policy;

/// Program template for one application.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Template {
    /// Producer/consumer pipeline over semaphore-guarded queues.
    Pipeline,
    /// Compute phases meeting at a mutex+condvar barrier.
    CondBarrier,
    /// Mostly independent computation; optional coarse barrier. The flag
    /// selects freqmine's OpenMP-style spin-then-futex barrier.
    DataParallel {
        /// Whether a 300 K-iteration spin precedes the futex (freqmine).
        omp_spin: bool,
    },
}

/// Static description of one PARSEC application.
#[derive(Clone, Copy, Debug)]
pub struct ParsecApp {
    /// Application name.
    pub name: &'static str,
    /// Program template.
    pub template: Template,
    /// Mean computation between synchronization points, per thread.
    pub grain: SimDuration,
    /// Work imbalance (sigma fraction).
    pub imbalance: f64,
    /// Total sync rounds (items per thread for pipelines; barrier phases
    /// otherwise).
    pub rounds: u32,
    /// Probability of a kernel critical section (mm_sem) per round.
    pub kernel_op_rate: f64,
    /// Mean kernel critical-section hold time, µs (mm_sem during
    /// mmap/brk/page-fault storms; dedup's chunk allocation makes these
    /// tens of microseconds).
    pub kernel_hold_us: u64,
}

/// The thirteen PARSEC applications, calibrated to a ~1.5–2 s dedicated
/// run at four threads, with sync intensities ordered as in Figure 13.
pub const PARSEC_APPS: [ParsecApp; 13] = [
    ParsecApp {
        name: "blackscholes",
        template: Template::DataParallel { omp_spin: false },
        grain: SimDuration::from_us(150_000),
        imbalance: 0.03,
        rounds: 10,
        kernel_op_rate: 0.05,
        kernel_hold_us: 4,
    },
    ParsecApp {
        name: "bodytrack",
        template: Template::CondBarrier,
        grain: SimDuration::from_us(2_600),
        imbalance: 0.25,
        rounds: 600,
        kernel_op_rate: 0.20,
        kernel_hold_us: 12,
    },
    ParsecApp {
        name: "canneal",
        template: Template::CondBarrier,
        grain: SimDuration::from_us(11_000),
        imbalance: 0.12,
        rounds: 150,
        kernel_op_rate: 0.25,
        kernel_hold_us: 10,
    },
    ParsecApp {
        name: "dedup",
        template: Template::Pipeline,
        grain: SimDuration::from_us(420),
        imbalance: 0.30,
        rounds: 3_800,
        kernel_op_rate: 0.60,
        kernel_hold_us: 40,
    },
    ParsecApp {
        name: "facesim",
        template: Template::CondBarrier,
        grain: SimDuration::from_us(7_000),
        imbalance: 0.15,
        rounds: 250,
        kernel_op_rate: 0.20,
        kernel_hold_us: 10,
    },
    ParsecApp {
        name: "ferret",
        template: Template::Pipeline,
        grain: SimDuration::from_us(9_000),
        imbalance: 0.15,
        rounds: 200,
        kernel_op_rate: 0.15,
        kernel_hold_us: 8,
    },
    ParsecApp {
        name: "fluidanimate",
        template: Template::CondBarrier,
        grain: SimDuration::from_us(5_500),
        imbalance: 0.18,
        rounds: 320,
        kernel_op_rate: 0.20,
        kernel_hold_us: 8,
    },
    ParsecApp {
        name: "freqmine",
        template: Template::DataParallel { omp_spin: true },
        grain: SimDuration::from_us(60_000),
        imbalance: 0.10,
        rounds: 30,
        kernel_op_rate: 0.10,
        kernel_hold_us: 4,
    },
    ParsecApp {
        name: "raytrace",
        template: Template::DataParallel { omp_spin: false },
        grain: SimDuration::from_us(90_000),
        imbalance: 0.08,
        rounds: 20,
        kernel_op_rate: 0.05,
        kernel_hold_us: 4,
    },
    ParsecApp {
        name: "streamcluster",
        template: Template::CondBarrier,
        grain: SimDuration::from_us(1_900),
        imbalance: 0.22,
        rounds: 900,
        kernel_op_rate: 0.15,
        kernel_hold_us: 8,
    },
    ParsecApp {
        name: "swaptions",
        template: Template::DataParallel { omp_spin: false },
        grain: SimDuration::from_us(400_000),
        imbalance: 0.02,
        rounds: 4,
        kernel_op_rate: 0.0,
        kernel_hold_us: 4,
    },
    ParsecApp {
        name: "vips",
        template: Template::Pipeline,
        grain: SimDuration::from_us(2_400),
        imbalance: 0.20,
        rounds: 700,
        kernel_op_rate: 0.25,
        kernel_hold_us: 12,
    },
    ParsecApp {
        name: "x264",
        template: Template::Pipeline,
        grain: SimDuration::from_us(6_000),
        imbalance: 0.25,
        rounds: 280,
        kernel_op_rate: 0.20,
        kernel_hold_us: 12,
    },
];

/// Looks up an application by name.
pub fn app(name: &str) -> Option<ParsecApp> {
    PARSEC_APPS.iter().copied().find(|a| a.name == name)
}

/// Dedicated-hardware runtime estimate.
pub fn ideal_runtime(app: &ParsecApp) -> SimDuration {
    app.grain * u64::from(app.rounds)
}

/// Barrier-phase worker (CondBarrier template): hand-rolled barrier from
/// a mutex + condvar, as streamcluster implements it.
struct CondBarrierWorker {
    app: ParsecApp,
    n_threads: usize,
    mutex: MutexId,
    cond: CondId,
    mm_lock: KLockId,
    /// Shared arrival counter lives in the worker's slot 0 via the
    /// counter semaphore trick: we instead track arrivals locally using a
    /// dedicated counting barrier below.
    barrier: BarrierId,
    rng: SimRng,
    round: u32,
    phase: CbPhase,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CbPhase {
    Compute,
    MaybeKernelOp,
    Barrier,
    Done,
}

impl ThreadProgram for CondBarrierWorker {
    fn next(&mut self, _ctx: ProgramCtx) -> ThreadAction {
        // The mutex/cond pair is what the real code uses; our kernel
        // barrier with zero spin budget produces the identical futex
        // wait/wake + IPI pattern with one object, so we emit that and
        // keep the mutex for the occasional short critical section that
        // guards the shared phase counter.
        let _ = (self.mutex, self.cond, self.n_threads);
        loop {
            match self.phase {
                CbPhase::Compute => {
                    self.phase = CbPhase::MaybeKernelOp;
                    let jitter = (1.0 + self.rng.normal(0.0, self.app.imbalance)).max(0.1);
                    return ThreadAction::Compute(self.app.grain.mul_f64(jitter));
                }
                CbPhase::MaybeKernelOp => {
                    self.phase = CbPhase::Barrier;
                    if self.rng.chance(self.app.kernel_op_rate) {
                        let h = self.app.kernel_hold_us;
                        return ThreadAction::KernelOp {
                            lock: self.mm_lock,
                            hold: SimDuration::from_us(h / 2 + self.rng.below(h.max(1))),
                        };
                    }
                }
                CbPhase::Barrier => {
                    self.round += 1;
                    self.phase = if self.round >= self.app.rounds {
                        CbPhase::Done
                    } else {
                        CbPhase::Compute
                    };
                    return ThreadAction::BarrierWait(self.barrier);
                }
                CbPhase::Done => return ThreadAction::Exit,
            }
        }
    }

    fn label(&self) -> &str {
        self.app.name
    }
}

sim_core::snap_enum!(CbPhase {
    0 => Compute,
    1 => MaybeKernelOp,
    2 => Barrier,
    3 => Done,
});

sim_core::snap_struct!(CondBarrierWorker {
    rng,
    round,
    phase,
} skip { app, n_threads, mutex, cond, mm_lock, barrier });

/// Pipeline-stage worker over *bounded* queues: consumes one token from
/// its input queue (freeing the slot), computes, and pushes to the next
/// stage, blocking when that stage's buffer is full. Backpressure is what
/// makes pipelines delay-sensitive: one preempted stage stalls the whole
/// chain within a few items (dedup's small chunk buffers).
struct PipelineWorker {
    app: ParsecApp,
    /// Items available in the input queue.
    input_items: SemId,
    /// Free slots of the input queue (posted back after a take).
    input_slots: Option<SemId>,
    /// Items/slots of the output queue, if any.
    output: Option<(SemId, SemId)>,
    mm_lock: KLockId,
    rng: SimRng,
    items_left: u32,
    phase: PipePhase,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PipePhase {
    Take,
    FreeSlot,
    Compute,
    MaybeKernelOp,
    AcquireOutSlot,
    Put,
    Done,
}

impl ThreadProgram for PipelineWorker {
    fn next(&mut self, _ctx: ProgramCtx) -> ThreadAction {
        loop {
            match self.phase {
                PipePhase::Take => {
                    if self.items_left == 0 {
                        self.phase = PipePhase::Done;
                        continue;
                    }
                    self.phase = PipePhase::FreeSlot;
                    return ThreadAction::SemWait(self.input_items);
                }
                PipePhase::FreeSlot => {
                    self.phase = PipePhase::Compute;
                    if let Some(slots) = self.input_slots {
                        return ThreadAction::SemPost(slots);
                    }
                }
                PipePhase::Compute => {
                    self.phase = PipePhase::MaybeKernelOp;
                    let jitter = (1.0 + self.rng.normal(0.0, self.app.imbalance)).max(0.1);
                    return ThreadAction::Compute(self.app.grain.mul_f64(jitter));
                }
                PipePhase::MaybeKernelOp => {
                    self.phase = PipePhase::AcquireOutSlot;
                    if self.rng.chance(self.app.kernel_op_rate) {
                        let h = self.app.kernel_hold_us;
                        return ThreadAction::KernelOp {
                            lock: self.mm_lock,
                            hold: SimDuration::from_us(h / 2 + self.rng.below(h.max(1))),
                        };
                    }
                }
                PipePhase::AcquireOutSlot => {
                    self.phase = PipePhase::Put;
                    if let Some((_, slots)) = self.output {
                        return ThreadAction::SemWait(slots);
                    }
                }
                PipePhase::Put => {
                    self.items_left -= 1;
                    self.phase = PipePhase::Take;
                    if let Some((items, _)) = self.output {
                        return ThreadAction::SemPost(items);
                    }
                }
                PipePhase::Done => return ThreadAction::Exit,
            }
        }
    }

    fn label(&self) -> &str {
        self.app.name
    }
}

sim_core::snap_enum!(PipePhase {
    0 => Take,
    1 => FreeSlot,
    2 => Compute,
    3 => MaybeKernelOp,
    4 => AcquireOutSlot,
    5 => Put,
    6 => Done,
});

sim_core::snap_struct!(PipelineWorker {
    rng,
    items_left,
    phase,
} skip { app, input_items, input_slots, output, mm_lock });

/// Depth of each inter-stage buffer (dedup uses small chunk queues).
const PIPELINE_QUEUE_DEPTH: u64 = 4;

/// Data-parallel worker: long independent slices, coarse barrier between
/// rounds.
struct DataParallelWorker {
    app: ParsecApp,
    barrier: BarrierId,
    mm_lock: KLockId,
    rng: SimRng,
    round: u32,
    phase: CbPhase,
}

impl ThreadProgram for DataParallelWorker {
    fn next(&mut self, _ctx: ProgramCtx) -> ThreadAction {
        loop {
            match self.phase {
                CbPhase::Compute => {
                    self.phase = CbPhase::MaybeKernelOp;
                    let jitter = (1.0 + self.rng.normal(0.0, self.app.imbalance)).max(0.1);
                    return ThreadAction::Compute(self.app.grain.mul_f64(jitter));
                }
                CbPhase::MaybeKernelOp => {
                    self.phase = CbPhase::Barrier;
                    if self.rng.chance(self.app.kernel_op_rate) {
                        let h = self.app.kernel_hold_us;
                        return ThreadAction::KernelOp {
                            lock: self.mm_lock,
                            hold: SimDuration::from_us(h / 2 + self.rng.below(h.max(1))),
                        };
                    }
                }
                CbPhase::Barrier => {
                    self.round += 1;
                    self.phase = if self.round >= self.app.rounds {
                        CbPhase::Done
                    } else {
                        CbPhase::Compute
                    };
                    return ThreadAction::BarrierWait(self.barrier);
                }
                CbPhase::Done => return ThreadAction::Exit,
            }
        }
    }

    fn label(&self) -> &str {
        self.app.name
    }
}

sim_core::snap_struct!(DataParallelWorker {
    rng,
    round,
    phase,
} skip { app, barrier, mm_lock });

/// Handle to an installed PARSEC run.
#[derive(Clone, Debug)]
pub struct ParsecRun {
    /// The spawned threads.
    pub threads: Vec<ThreadId>,
    /// The application installed.
    pub app: ParsecApp,
}

/// Installs `app` into `dom` with `n_threads` workers and starts them.
pub fn install<P: Policy>(
    m: &mut Machine<P>,
    dom: DomId,
    app: ParsecApp,
    n_threads: usize,
) -> ParsecRun {
    let mut seed_rng = m.rng.fork(0x5041_5200 ^ app.name.len() as u64);
    let guest = m.guest_mut(dom);
    let mm_lock = guest.klocks.alloc();
    let mut threads = Vec::with_capacity(n_threads);
    match app.template {
        Template::CondBarrier => {
            let mutex = guest.sync.new_mutex();
            let cond = guest.sync.new_condvar();
            // Pthread barriers never spin: zero budget.
            let barrier = guest.sync.new_barrier(n_threads, Some(SimDuration::ZERO));
            for i in 0..n_threads {
                threads.push(guest.spawn(
                    ThreadKind::User,
                    Box::new(CondBarrierWorker {
                        app,
                        n_threads,
                        mutex,
                        cond,
                        mm_lock,
                        barrier,
                        rng: seed_rng.fork(i as u64),
                        round: 0,
                        phase: CbPhase::Compute,
                    }),
                ));
            }
        }
        Template::Pipeline => {
            // A chain of stages, one thread per stage, connected by
            // bounded buffers. Stage 0's input holds every token (the
            // input file); later queues start empty with
            // `PIPELINE_QUEUE_DEPTH` slots.
            let mut items = Vec::with_capacity(n_threads);
            let mut slots = Vec::with_capacity(n_threads);
            for i in 0..n_threads {
                let initial_items = if i == 0 { u64::from(app.rounds) } else { 0 };
                items.push(guest.sync.new_semaphore(initial_items));
                slots.push(guest.sync.new_semaphore(PIPELINE_QUEUE_DEPTH));
            }
            for i in 0..n_threads {
                let output = if i + 1 < n_threads {
                    Some((items[i + 1], slots[i + 1]))
                } else {
                    None
                };
                threads.push(guest.spawn(
                    ThreadKind::User,
                    Box::new(PipelineWorker {
                        app,
                        input_items: items[i],
                        input_slots: if i == 0 { None } else { Some(slots[i]) },
                        output,
                        mm_lock,
                        rng: seed_rng.fork(i as u64),
                        items_left: app.rounds,
                        phase: PipePhase::Take,
                    }),
                ));
            }
        }
        Template::DataParallel { omp_spin } => {
            let budget = if omp_spin {
                crate::spin::SpinPolicy::Default.budget()
            } else {
                Some(SimDuration::ZERO)
            };
            let barrier = guest.sync.new_barrier(n_threads, budget);
            for i in 0..n_threads {
                threads.push(guest.spawn(
                    ThreadKind::User,
                    Box::new(DataParallelWorker {
                        app,
                        barrier,
                        mm_lock,
                        rng: seed_rng.fork(i as u64),
                        round: 0,
                        phase: CbPhase::Compute,
                    }),
                ));
            }
        }
    }
    for &t in &threads {
        m.start_thread(dom, t);
    }
    ParsecRun { threads, app }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_thirteen_apps_present() {
        assert_eq!(PARSEC_APPS.len(), 13);
        let names: Vec<_> = PARSEC_APPS.iter().map(|a| a.name).collect();
        for expect in [
            "blackscholes",
            "bodytrack",
            "canneal",
            "dedup",
            "facesim",
            "ferret",
            "fluidanimate",
            "freqmine",
            "raytrace",
            "streamcluster",
            "swaptions",
            "vips",
            "x264",
        ] {
            assert!(names.contains(&expect), "{expect} missing");
        }
    }

    #[test]
    fn freqmine_is_the_only_openmp_app() {
        for a in PARSEC_APPS {
            let is_omp = matches!(a.template, Template::DataParallel { omp_spin: true });
            assert_eq!(is_omp, a.name == "freqmine", "{}", a.name);
        }
    }

    #[test]
    fn dedup_is_most_sync_intensive() {
        // Sync ops per second ~ rounds / runtime; dedup must lead by far
        // (Figure 13's 940 IPIs/vCPU/s).
        let rate = |name: &str| {
            let a = app(name).unwrap();
            f64::from(a.rounds) / ideal_runtime(&a).as_secs_f64()
        };
        let dedup = rate("dedup");
        for a in PARSEC_APPS.iter().filter(|a| a.name != "dedup") {
            assert!(
                dedup > 2.0 * rate(a.name),
                "dedup {dedup} vs {} {}",
                a.name,
                rate(a.name)
            );
        }
    }

    #[test]
    fn swaptions_has_no_sync_pressure() {
        let a = app("swaptions").unwrap();
        assert_eq!(a.kernel_op_rate, 0.0);
        assert!(a.rounds <= 8);
    }

    #[test]
    fn ideal_runtimes_are_in_range() {
        for a in PARSEC_APPS {
            let t = ideal_runtime(&a);
            assert!(
                (SimDuration::from_ms(1_000)..=SimDuration::from_ms(2_700)).contains(&t),
                "{}: {t}",
                a.name
            );
        }
    }
}
