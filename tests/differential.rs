//! Differential validation of the scheduler backends (tier-1).
//!
//! Two layers of checking, both over seeded Gen-produced op streams
//! (ticks, wakes, sleeps, yields, kicks, freezes — see
//! `testkit::differential`):
//!
//! - **per-backend**: every backend individually satisfies the
//!   structural, freeze-safety, monotonicity, capacity, and
//!   work-conservation invariants after every op, over ≥ 256 scenarios;
//! - **pairwise**: any two backends replaying the same scenario agree on
//!   the machine-wide run-time and waiting-time integrals (the laws every
//!   work-conserving policy must share), over ≥ 256 scenarios per pair. A
//!   divergence is shrunk to a minimal op sequence before being reported.
//!
//! A third layer replays **attack-shaped** streams
//! (`adversarial_scenario_gen`: timed self-wakeups, tick dodges,
//! domain-wide kick storms, freeze thrash — the op-level mirrors of
//! `workloads::antagonist`): adversarial composition may shift who runs,
//! but every backend must keep structural sanity and work conservation,
//! and any two backends must still agree on both integrals.
//!
//! `scripts/verify.sh differential_smoke` runs exactly this file.

use testkit::differential::{
    adversarial_scenario_gen, minimize_pair, minimize_pair_adversarial, replay, scenario_gen,
};
use testkit::{run_prop, Config};
use vscale_repro::hv::{Credit, Credit2, DynFrac, Policy};

const CASES: u32 = 256;
const MAX_OPS: usize = 120;

fn backend_invariants<P: Policy>() {
    run_prop(
        &format!("{}_invariants", P::NAME),
        Config::with_cases(CASES),
        &scenario_gen(MAX_OPS),
        |sc| {
            replay::<P>(sc)?;
            Ok(())
        },
    );
}

#[test]
fn credit_invariants_over_256_streams() {
    backend_invariants::<Credit>();
}

#[test]
fn credit2_invariants_over_256_streams() {
    backend_invariants::<Credit2>();
}

#[test]
fn dynfrac_invariants_over_256_streams() {
    backend_invariants::<DynFrac>();
}

fn pair_agrees<A: Policy, B: Policy>() {
    let cfg = Config {
        cases: CASES,
        ..Config::default()
    };
    if let Some(cx) = minimize_pair::<A, B>(cfg, MAX_OPS) {
        panic!(
            "{} vs {} diverged at case {} ({}); minimal scenario after {} shrink candidates:\n{:#?}",
            A::NAME,
            B::NAME,
            cx.case,
            cx.error,
            cx.shrink_candidates,
            cx.value,
        );
    }
}

fn backend_invariants_adversarial<P: Policy>() {
    run_prop(
        &format!("{}_adversarial_invariants", P::NAME),
        Config::with_cases(CASES),
        &adversarial_scenario_gen(MAX_OPS),
        |sc| {
            replay::<P>(sc)?;
            Ok(())
        },
    );
}

#[test]
fn credit_invariants_over_adversarial_streams() {
    backend_invariants_adversarial::<Credit>();
}

#[test]
fn credit2_invariants_over_adversarial_streams() {
    backend_invariants_adversarial::<Credit2>();
}

#[test]
fn dynfrac_invariants_over_adversarial_streams() {
    backend_invariants_adversarial::<DynFrac>();
}

fn pair_agrees_adversarial<A: Policy, B: Policy>() {
    let cfg = Config {
        cases: CASES,
        ..Config::default()
    };
    if let Some(cx) = minimize_pair_adversarial::<A, B>(cfg, MAX_OPS) {
        panic!(
            "{} vs {} diverged on an adversarial stream at case {} ({}); minimal scenario:\n{:#?}",
            A::NAME,
            B::NAME,
            cx.case,
            cx.error,
            cx.value,
        );
    }
}

#[test]
fn credit_vs_credit2_conservation_under_attack_streams() {
    pair_agrees_adversarial::<Credit, Credit2>();
}

#[test]
fn credit_vs_dynfrac_conservation_under_attack_streams() {
    pair_agrees_adversarial::<Credit, DynFrac>();
}

#[test]
fn credit2_vs_dynfrac_conservation_under_attack_streams() {
    pair_agrees_adversarial::<Credit2, DynFrac>();
}

#[test]
fn credit_vs_credit2_conservation() {
    pair_agrees::<Credit, Credit2>();
}

#[test]
fn credit_vs_dynfrac_conservation() {
    pair_agrees::<Credit, DynFrac>();
}

#[test]
fn credit2_vs_dynfrac_conservation() {
    pair_agrees::<Credit2, DynFrac>();
}
