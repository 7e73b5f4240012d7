//! Adversarial-tenant workload models (scheduler attacks).
//!
//! Zhou et al.'s "Scheduler Vulnerabilities and Attacks in Cloud
//! Computing" shows a tenant can game Xen's credit accounting without
//! breaking any interface rule — purely by *timing* its own compute,
//! sleep and wake calls. This module reproduces the four attack classes
//! the ROADMAP names against this repo's hypervisor model:
//!
//! - [`AttackKind::TickEvade`] — compute between accounting samples,
//!   block just before each tick. Under sampled credit charging
//!   (`CreditConfig::sampled_burn`) the evader is never the tick's
//!   occupant, is never charged, and so never demotes to OVER while its
//!   honest neighbors do. Defense: exact burn accounting.
//! - [`AttackKind::BoostFarm`] — run in sub-tick bursts separated by
//!   timed self-wakeups so every burst starts from a fresh wakeup (in
//!   Xen: BOOST priority, which preempts UNDER/OVER vCPUs), while hiding
//!   across the tick so BOOST is never demoted. Defense: seeded
//!   randomized tick offsets (the sample point becomes unpredictable).
//! - [`AttackKind::IpiStorm`] — a semaphore ping-pong between threads on
//!   different vCPUs; every post raises a cross-vCPU reschedule IPI
//!   whose delivery path kicks the target vCPU with BOOST priority,
//!   *bypassing the preemption ratelimit* in all three backends.
//!   Defense: kick throttling.
//! - [`AttackKind::Oscillate`] — square-wave demand at the scale of the
//!   vScale daemon period, flipping the victim's measured extendability
//!   every few samples so its balancer thrashes freeze/unfreeze
//!   reconfigurations. Defense: freeze-rate hysteresis.
//!
//! Every program is a pure function of [`ProgramCtx::now`] and its own
//! counters — phase-locking is computed from the event queue's clock,
//! never wall time and never ambient entropy — so attack runs replay
//! bit-identically at any `VSCALE_THREADS`.
//!
//! Each attack has a *benign twin* ([`AntagonistMode::Benign`]): the same
//! mean CPU demand with the adversarial timing removed. The attack grid
//! uses the twin as its no-attack baseline, so measured degradation
//! isolates the harm of the *timing* from ordinary fair-share contention.

use guest_kernel::thread::{ProgramCtx, ThreadAction, ThreadKind, ThreadProgram};
use sim_core::time::{SimDuration, SimTime};
use vscale::config::{DefenseConfig, DomainSpec};
use vscale::{DomId, Machine};
use xen_sched::credit::TICK;
use xen_sched::Policy;

/// The four attack classes (see the module docs for mechanics).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttackKind {
    /// Tick-evasion theft: block just before every accounting sample.
    TickEvade,
    /// BOOST farming via timed self-wakeups.
    BoostFarm,
    /// Cross-vCPU reschedule-IPI storm through the event-channel path.
    IpiStorm,
    /// Extendability oscillation thrashing the balancer.
    Oscillate,
}

impl AttackKind {
    /// All attack classes, in grid order.
    pub const ALL: [AttackKind; 4] = [
        AttackKind::TickEvade,
        AttackKind::BoostFarm,
        AttackKind::IpiStorm,
        AttackKind::Oscillate,
    ];

    /// Stable short name for bench axes and JSON.
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::TickEvade => "tick_evade",
            AttackKind::BoostFarm => "boost_farm",
            AttackKind::IpiStorm => "ipi_storm",
            AttackKind::Oscillate => "oscillate",
        }
    }

    /// The defense that targets this attack class — and *only* it, so a
    /// defended measurement shows the matching knob doing the work
    /// rather than defense-in-depth.
    pub fn matching_defense(self) -> DefenseConfig {
        match self {
            AttackKind::TickEvade => DefenseConfig {
                exact_burn: true,
                ..DefenseConfig::default()
            },
            AttackKind::BoostFarm => DefenseConfig {
                tick_jitter: true,
                ..DefenseConfig::default()
            },
            AttackKind::IpiStorm => DefenseConfig {
                kick_throttle: true,
                ..DefenseConfig::default()
            },
            AttackKind::Oscillate => DefenseConfig {
                freeze_dwell: 8,
                ..DefenseConfig::default()
            },
        }
    }
}

/// Adversarial timing on, or the benign twin (same mean demand, no
/// phase-locking)?
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AntagonistMode {
    /// The attack as described in the module docs.
    Adversarial,
    /// Identical mean CPU demand with the adversarial timing removed —
    /// the attack grid's no-attack baseline tenant.
    Benign,
}

/// Parameters of one antagonist VM.
#[derive(Clone, Copy, Debug)]
pub struct AntagonistSpec {
    /// Which attack the VM mounts.
    pub kind: AttackKind,
    /// Adversarial timing or the benign twin.
    pub mode: AntagonistMode,
    /// vCPUs of the antagonist VM (one attack thread per vCPU, except
    /// the IPI storm's poster/waiter pair).
    pub n_vcpus: usize,
    /// Proportional-share weight (equal to the victim's by default: the
    /// attacks steal *beyond* the fair share, not via weight).
    pub weight: u32,
    /// Period of the oscillation square wave.
    pub osc_period: SimDuration,
}

impl AntagonistSpec {
    /// An antagonist with the grid's defaults: 2 vCPUs, weight 256 and a
    /// 240 ms oscillation period. The
    /// oscillation half-period (120 ms) is sized well past the victim
    /// daemon's EMA time constant (~50 ms at α=0.2 over 10 ms samples),
    /// so each phase fully swings the smoothed extendability and defeats
    /// the daemon's own shrink/grow patience — a faster wave averages
    /// out and never thrashes anything.
    pub fn new(kind: AttackKind, mode: AntagonistMode) -> Self {
        AntagonistSpec {
            kind,
            mode,
            n_vcpus: 2,
            weight: 256,
            osc_period: SimDuration::from_ms(240),
        }
    }
}

/// Safety margin the evader keeps ahead of the predicted tick.
const EVADE_GUARD: SimDuration = SimDuration::from_us(700);
/// How long the evader stays blocked past the predicted tick. Must
/// exceed the scheduler's 1 ms preemption ratelimit: the occupant that
/// took the pCPU when the evader blocked has then run long enough that
/// the evader's BOOST wakeup preempts it immediately — a sub-ratelimit
/// nap would leave the evader queued until the occupant's whole 30 ms
/// slice expired, starving the attack.
const EVADE_REST: SimDuration = SimDuration::from_us(1_500);
/// Extra post-tick rest per sibling evader thread (thread `i` wakes
/// `i × EVADE_STAGGER` later), so sibling wakeups never race each other
/// for one pCPU — see [`TickEvader::stagger`].
const EVADE_STAGGER: SimDuration = SimDuration::from_us(1_200);
/// One BOOST-farm compute burst (well under a tick). Sized with
/// [`FARM_GAP`] so the farmer's duty (~62% per vCPU after tick-hiding)
/// exceeds its fair share: the surplus is what BOOST lets it steal, and
/// what tick-jitter-induced charging takes back by demoting it.
const FARM_BURST: SimDuration = SimDuration::from_us(3_300);
/// Self-wakeup gap between farm bursts (every burst is a fresh wake).
/// Like [`EVADE_REST`], deliberately above the preemption ratelimit.
const FARM_GAP: SimDuration = SimDuration::from_us(1_050);
/// How late an answer may arrive past the farmer's expected resume
/// before it counts as a starvation episode (see [`BoostFarmer::expect`]).
const FARM_STALL: SimDuration = SimDuration::from_us(2_000);
/// Benign farm twin's compute burst: the same ~60% mean duty as the
/// adversarial farmer in the same short-burst shape, but with naps that
/// ignore the scheduler's preemption ratelimit instead of being timed
/// just past it — the ordinary interactive tenant the farmer outplays.
const FARM_BENIGN_RUN: SimDuration = SimDuration::from_us(1_000);
/// Benign farm twin's nap between bursts (~60% duty with
/// [`FARM_BENIGN_RUN`]).
const FARM_BENIGN_NAP: SimDuration = SimDuration::from_us(1_000);
/// Poster-side compute between semaphore posts (storm cadence).
const STORM_WORK: SimDuration = SimDuration::from_us(80);
/// Waiter-side compute per received post.
const STORM_HANDLER: SimDuration = SimDuration::from_us(10);
/// Oscillator compute chunk within the high half-period (the chunks
/// run back-to-back: the high phase saturates the vCPU).
const OSC_CHUNK: SimDuration = SimDuration::from_us(500);

/// Phase within a repeating `period` grid at `now`.
fn phase_ns(now: SimTime, period: SimDuration) -> u64 {
    now.since(SimTime::ZERO).as_ns() % period.as_ns().max(1)
}

/// Computes until `EVADE_GUARD` before the next predicted tick, then
/// blocks across it, waking `EVADE_REST` (plus a per-thread stagger)
/// after. The prediction is the hypervisor's nominal [`TICK`] grid (the
/// attack assumes no jitter). Every `next` call re-derives the phase
/// from `now`, so contention-induced drift self-corrects to the grid.
struct TickEvader {
    mode: AntagonistMode,
    /// Per-thread wake stagger: sibling evaders that wake at the exact
    /// same instant race for the same pCPU and one queues behind the
    /// other's BOOST for the rest of the cycle; spreading the wakes
    /// lets each land on a pCPU whose occupant is preemptible.
    stagger: SimDuration,
    /// Benign twin's alternation state.
    resting: bool,
}

impl ThreadProgram for TickEvader {
    fn next(&mut self, ctx: ProgramCtx) -> ThreadAction {
        let on = TICK.as_ns() - EVADE_GUARD.as_ns();
        match self.mode {
            AntagonistMode::Adversarial => {
                let to_tick = TICK.as_ns() - phase_ns(ctx.now, TICK);
                if to_tick > EVADE_GUARD.as_ns() {
                    ThreadAction::Compute(SimDuration::from_ns(to_tick - EVADE_GUARD.as_ns()))
                } else {
                    ThreadAction::Sleep(SimDuration::from_ns(
                        to_tick + EVADE_REST.as_ns() + self.stagger.as_ns(),
                    ))
                }
            }
            AntagonistMode::Benign => {
                // Same ~90% duty cycle, but the 10.3 ms period drifts
                // freely through the 10 ms tick grid.
                self.resting = !self.resting;
                if self.resting {
                    ThreadAction::Sleep(EVADE_GUARD + EVADE_REST)
                } else {
                    ThreadAction::Compute(SimDuration::from_ns(on))
                }
            }
        }
    }

    fn label(&self) -> &str {
        "tick-evader"
    }
}

sim_core::snap_struct!(TickEvader { resting } skip { mode, stagger });

/// Short bursts, each begun by a timed self-wakeup (a fresh BOOST in
/// credit), hiding across every predicted tick so the BOOST is never
/// caught and demoted.
struct BoostFarmer {
    mode: AntagonistMode,
    /// Per-thread wake stagger, same rationale as [`TickEvader::stagger`].
    stagger: SimDuration,
    resting: bool,
    /// When this thread expected to be asked for its next action; if the
    /// scheduler answers much later, the thread was starved (queued
    /// behind a sibling or a refused preemption) and it recovers with a
    /// long catch-up burst instead of immediately napping again —
    /// without this, one starvation episode chains into the next and a
    /// farmer thread can stall for whole accounting periods.
    expect: Option<SimTime>,
}

impl ThreadProgram for BoostFarmer {
    fn next(&mut self, ctx: ProgramCtx) -> ThreadAction {
        match self.mode {
            AntagonistMode::Adversarial => {
                let to_tick = TICK.as_ns() - phase_ns(ctx.now, TICK);
                let starved = self.expect.is_some_and(|e| ctx.now > e + FARM_STALL);
                if to_tick <= EVADE_GUARD.as_ns() {
                    // Hide across the sample point.
                    self.resting = false;
                    let nap =
                        SimDuration::from_ns(to_tick + EVADE_REST.as_ns() + self.stagger.as_ns());
                    self.expect = Some(ctx.now + nap);
                    return ThreadAction::Sleep(nap);
                }
                if starved {
                    // Catch-up: compute straight to the guard boundary.
                    self.resting = false;
                    let burst = SimDuration::from_ns(to_tick - EVADE_GUARD.as_ns());
                    self.expect = Some(ctx.now + burst);
                    return ThreadAction::Compute(burst);
                }
                self.resting = !self.resting;
                if self.resting {
                    self.expect = Some(ctx.now + FARM_GAP);
                    ThreadAction::Sleep(FARM_GAP)
                } else {
                    let burst =
                        SimDuration::from_ns(FARM_BURST.as_ns().min(to_tick - EVADE_GUARD.as_ns()));
                    self.expect = Some(ctx.now + burst);
                    ThreadAction::Compute(burst)
                }
            }
            AntagonistMode::Benign => {
                // Same mean demand, delivered in long bursts with rare
                // wakeups (no BOOST harvesting, no tick hiding).
                self.resting = !self.resting;
                if self.resting {
                    ThreadAction::Sleep(FARM_BENIGN_NAP)
                } else {
                    ThreadAction::Compute(FARM_BENIGN_RUN)
                }
            }
        }
    }

    fn label(&self) -> &str {
        "boost-farmer"
    }
}

sim_core::snap_struct!(BoostFarmer { resting, expect } skip { mode, stagger });

/// Storm poster: posts the ping-pong semaphore between tiny compute
/// chunks, raising one cross-vCPU reschedule IPI per post.
struct StormPoster {
    sem: guest_kernel::thread::SemId,
    mode: AntagonistMode,
    posting: bool,
}

impl ThreadProgram for StormPoster {
    fn next(&mut self, _ctx: ProgramCtx) -> ThreadAction {
        match self.mode {
            AntagonistMode::Adversarial => {
                self.posting = !self.posting;
                if self.posting {
                    ThreadAction::SemPost(self.sem)
                } else {
                    ThreadAction::Compute(STORM_WORK)
                }
            }
            // Same compute demand, no posts: the waiter sleeps forever
            // and no IPIs are raised.
            AntagonistMode::Benign => ThreadAction::Compute(STORM_WORK),
        }
    }

    fn label(&self) -> &str {
        "storm-poster"
    }
}

sim_core::snap_struct!(StormPoster { posting } skip { sem, mode });

/// Storm waiter: parks on the semaphore (on another vCPU) and does a
/// token amount of work per received post — its job is to *be woken*.
struct StormWaiter {
    sem: guest_kernel::thread::SemId,
    mode: AntagonistMode,
    waiting: bool,
}

impl ThreadProgram for StormWaiter {
    fn next(&mut self, _ctx: ProgramCtx) -> ThreadAction {
        match self.mode {
            AntagonistMode::Adversarial => {
                self.waiting = !self.waiting;
                if self.waiting {
                    ThreadAction::SemWait(self.sem)
                } else {
                    ThreadAction::Compute(STORM_HANDLER)
                }
            }
            AntagonistMode::Benign => ThreadAction::Sleep(SimDuration::from_ms(10)),
        }
    }

    fn label(&self) -> &str {
        "storm-waiter"
    }
}

sim_core::snap_struct!(StormWaiter { waiting } skip { sem, mode });

/// Square-wave demand: compute through one half-period, sleep through
/// the other — phase-locked to the queue clock so all oscillator
/// threads flip together and the domain's consumption (hence every
/// neighbor's measured extendability) swings rail to rail.
struct Oscillator {
    period: SimDuration,
    mode: AntagonistMode,
    resting: bool,
}

impl ThreadProgram for Oscillator {
    fn next(&mut self, ctx: ProgramCtx) -> ThreadAction {
        match self.mode {
            AntagonistMode::Adversarial => {
                let pos = phase_ns(ctx.now, self.period);
                let half = self.period.as_ns() / 2;
                if pos < half {
                    let chunk = OSC_CHUNK.as_ns().min(half - pos);
                    ThreadAction::Compute(SimDuration::from_ns(chunk))
                } else {
                    ThreadAction::Sleep(SimDuration::from_ns(self.period.as_ns() - pos))
                }
            }
            AntagonistMode::Benign => {
                // Uniform 50% duty with no large-scale square wave.
                self.resting = !self.resting;
                if self.resting {
                    ThreadAction::Sleep(OSC_CHUNK)
                } else {
                    ThreadAction::Compute(OSC_CHUNK)
                }
            }
        }
    }

    fn label(&self) -> &str {
        "oscillator"
    }
}

sim_core::snap_struct!(Oscillator { resting } skip { period, mode });

/// Adds one antagonist VM mounting `spec.kind` in `spec.mode` and
/// returns its domain. The VM is a plain fixed-size SMP domain — the
/// attacks need no special privileges, which is the point.
pub fn install_antagonist<P: Policy>(m: &mut Machine<P>, spec: AntagonistSpec) -> DomId {
    let dom = m.add_domain(DomainSpec::fixed(spec.n_vcpus).with_weight(spec.weight));
    let guest = m.guest_mut(dom);
    let mut threads = Vec::new();
    match spec.kind {
        AttackKind::TickEvade => {
            for i in 0..spec.n_vcpus {
                threads.push(guest.spawn(
                    ThreadKind::User,
                    Box::new(TickEvader {
                        mode: spec.mode,
                        stagger: EVADE_STAGGER * i as u64,
                        resting: false,
                    }),
                ));
            }
        }
        AttackKind::BoostFarm => {
            for i in 0..spec.n_vcpus {
                threads.push(guest.spawn(
                    ThreadKind::User,
                    Box::new(BoostFarmer {
                        mode: spec.mode,
                        stagger: EVADE_STAGGER * i as u64,
                        resting: false,
                        expect: None,
                    }),
                ));
            }
        }
        AttackKind::IpiStorm => {
            let sem = guest.sync.new_semaphore(0);
            threads.push(guest.spawn(
                ThreadKind::User,
                Box::new(StormPoster {
                    sem,
                    mode: spec.mode,
                    posting: false,
                }),
            ));
            for _ in 1..spec.n_vcpus.max(2) {
                threads.push(guest.spawn(
                    ThreadKind::User,
                    Box::new(StormWaiter {
                        sem,
                        mode: spec.mode,
                        waiting: false,
                    }),
                ));
            }
        }
        AttackKind::Oscillate => {
            for _ in 0..spec.n_vcpus {
                threads.push(guest.spawn(
                    ThreadKind::User,
                    Box::new(Oscillator {
                        period: spec.osc_period,
                        mode: spec.mode,
                        resting: false,
                    }),
                ));
            }
        }
    }
    for t in threads {
        m.start_thread(dom, t);
    }
    dom
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimTime;
    use vscale::config::MachineConfig;

    fn host() -> Machine {
        Machine::new(MachineConfig {
            n_pcpus: 2,
            seed: 11,
            ..MachineConfig::default()
        })
    }

    #[test]
    fn every_attack_runs_and_consumes_cpu() {
        for kind in AttackKind::ALL {
            for mode in [AntagonistMode::Adversarial, AntagonistMode::Benign] {
                let mut m = host();
                let dom = install_antagonist(&mut m, AntagonistSpec::new(kind, mode));
                m.run_until(SimTime::from_secs(1));
                let run = m.hv().domain_run_total(dom);
                assert!(
                    run >= SimDuration::from_ms(100),
                    "{:?}/{mode:?} consumed only {run:?}",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn benign_twin_demand_matches_adversarial_within_2x() {
        // The twin exists to isolate timing harm from demand: on an
        // uncontended host both modes must consume the same order of
        // CPU, else baseline comparisons would be apples to oranges.
        for kind in AttackKind::ALL {
            let runs: Vec<u64> = [AntagonistMode::Adversarial, AntagonistMode::Benign]
                .into_iter()
                .map(|mode| {
                    let mut m = host();
                    let dom = install_antagonist(&mut m, AntagonistSpec::new(kind, mode));
                    m.run_until(SimTime::from_secs(2));
                    m.hv().domain_run_total(dom).as_ns()
                })
                .collect();
            let (a, b) = (runs[0].max(1), runs[1].max(1));
            let ratio_x100 = a.max(b) * 100 / a.min(b);
            assert!(
                ratio_x100 <= 200,
                "{}: adversarial {a} ns vs benign {b} ns (ratio x100 = {ratio_x100})",
                kind.label()
            );
        }
    }

    #[test]
    fn ipi_storm_raises_resched_ipis_benign_twin_does_not() {
        let count = |mode| {
            let mut m = host();
            let dom = install_antagonist(&mut m, AntagonistSpec::new(AttackKind::IpiStorm, mode));
            m.run_until(SimTime::from_secs(1));
            let stats = m.domain_stats(dom);
            stats.resched_ipis.iter().sum::<u64>()
        };
        let stormed = count(AntagonistMode::Adversarial);
        let benign = count(AntagonistMode::Benign);
        assert!(
            stormed > 1_000,
            "storm produced only {stormed} reschedule IPIs"
        );
        assert!(
            benign < stormed / 10,
            "benign twin should be quiet: {benign} vs {stormed}"
        );
    }

    #[test]
    fn tick_evader_keeps_credits_under_sampled_accounting() {
        use xen_sched::CreditConfig;
        // On a contended sampled-burn host the evader's credit balance
        // stays non-negative (it is never the tick occupant), while a
        // benign tenant with the same demand gets charged.
        let credits = |mode| {
            let mut m = Machine::new(MachineConfig {
                n_pcpus: 1,
                seed: 5,
                credit: CreditConfig {
                    sampled_burn: true,
                    ..CreditConfig::default()
                },
                ..MachineConfig::default()
            });
            let dom = install_antagonist(
                &mut m,
                AntagonistSpec {
                    n_vcpus: 1,
                    ..AntagonistSpec::new(AttackKind::TickEvade, mode)
                },
            );
            m.run_until(SimTime::from_secs(2));
            m.hv().domain_run_total(dom)
        };
        // Both modes burn ~90% duty on an otherwise idle pCPU; the
        // sampled ledger sees wildly different charges, but run totals
        // (exact stats) must match closely. This pins the fidelity knob:
        // consumption identical, accounting divergent.
        let adv = credits(AntagonistMode::Adversarial).as_ns() as i64;
        let ben = credits(AntagonistMode::Benign).as_ns() as i64;
        let diff = (adv - ben).abs();
        assert!(
            diff < (adv.max(ben)) / 5,
            "duty cycles drifted apart: adversarial {adv} vs benign {ben}"
        );
    }
}
