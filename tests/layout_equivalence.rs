//! Layout-equivalence goldens for the struct-of-arrays scheduler state.
//!
//! The three scheduler policies keep their per-vCPU hot state in
//! dense parallel arrays (`sim_core::soa::VcpuMap`), split from cold
//! stats. That is meant to be a pure *layout* change: every observable —
//! the emitted `SchedEvent` stream, per-vCPU states, freeze bits, run/wait
//! totals, migrations — must be bit-identical to the pre-refactor
//! `Vec<struct>` layout.
//!
//! These checksums were captured by replaying seeded
//! `testkit::differential` op streams against the pre-refactor backends
//! and FNV-1a-folding the full observable trajectory (events + state after
//! every op). They pin the trajectory itself, not just the conserved
//! quantities the cross-backend differential tests compare, so any layout
//! refactor that perturbs scheduling behavior — a reordered fold, a
//! dropped field, an index mix-up — moves a checksum.
//!
//! A second table, [`GOLDEN_ATTACK`], pins attack-shaped streams
//! (`adversarial_scenario_gen`) under the kick-throttle defense, folding
//! each domain's kick-throttle count and extendability after every op,
//! and closes every trajectory with a live-migration round trip: each
//! domain's `export_domain` payload is folded, imported into a fresh pool
//! of the same topology, and the twin's state folded before and after one
//! slice expiry on every pCPU (which reads the carried credit).
//!
//! A third table, [`GOLDEN_CREDIT`], pins the credit branches the first
//! two never reach: sampled burn, BOOST off, and cap parking. It folds each
//! vCPU's parking flag, priority band and credit balance after every op,
//! and checks that the capped streams park, unpark and kick a parked vCPU.
//!
//! To re-bless after an *intentional* behavior change, run with
//! `VSCALE_BLESS=1 cargo test -q layout -- --nocapture` and copy the
//! printed tables.

use sim_core::ids::{DomId, GlobalVcpu, PcpuId};
use sim_core::time::SimTime;
use testkit::differential::{
    adversarial_scenario_gen, apply, scenario_gen, vcpu_table, Op, Scenario, OP_STEP,
};
use testkit::source::Source;
use testkit::Fnv;
use xen_sched::credit::{CreditConfig, SchedEvent, VcpuState};
use xen_sched::{Credit, Credit2, DynFrac, Policy, Pool};

fn fold_gv(h: &mut Fnv, gv: GlobalVcpu) {
    h.u64(gv.dom.index() as u64);
    h.u64(gv.vcpu.index() as u64);
}

fn fold_event(h: &mut Fnv, e: &SchedEvent) {
    match *e {
        SchedEvent::Run { pcpu, vcpu } => {
            h.u64(1);
            h.u64(pcpu.index() as u64);
            fold_gv(h, vcpu);
        }
        SchedEvent::Desched { pcpu, vcpu } => {
            h.u64(2);
            h.u64(pcpu.index() as u64);
            fold_gv(h, vcpu);
        }
        SchedEvent::Idle { pcpu } => {
            h.u64(3);
            h.u64(pcpu.index() as u64);
        }
    }
}

/// Counts each pCPU's assignment changes: one per `Run` or `Desched`
/// event. The checksums were captured when the pools kept this count as
/// a per-pCPU generation, so [`fold_state`] folds the count replayed
/// from the event stream in its place.
fn count_assignments(assignments: &mut [u64], events: &[SchedEvent]) {
    for e in events {
        match *e {
            SchedEvent::Run { pcpu, .. } | SchedEvent::Desched { pcpu, .. } => {
                assignments[pcpu.index()] += 1;
            }
            SchedEvent::Idle { .. } => {}
        }
    }
}

fn fold_state<P: Policy>(h: &mut Fnv, s: &Pool<P>, vcpus: &[GlobalVcpu], assignments: &[u64]) {
    for &gv in vcpus {
        match s.vcpu_state(gv) {
            VcpuState::Running { pcpu, since } => {
                h.u64(1);
                h.u64(pcpu.index() as u64);
                h.u64(since.as_ns());
            }
            VcpuState::Runnable { pcpu, since } => {
                h.u64(2);
                h.u64(pcpu.index() as u64);
                h.u64(since.as_ns());
            }
            VcpuState::Blocked { since } => {
                h.u64(3);
                h.u64(since.as_ns());
            }
        }
        h.u64(u64::from(s.is_frozen(gv)));
        h.u64(s.vcpu_run_total(gv).as_ns());
        h.u64(s.vcpu_wait_total(gv).as_ns());
        h.u64(s.scheduled_count(gv));
    }
    debug_assert_eq!(assignments.len(), s.n_pcpus());
    for (p, &changes) in assignments.iter().enumerate() {
        match s.running_on(PcpuId(p)) {
            Some(gv) => fold_gv(h, gv),
            None => h.u64(u64::MAX),
        }
        h.u64(s.switches(PcpuId(p)));
        h.u64(changes);
    }
}

/// Folds every domain's kick-throttle count and Algorithm 1 snapshot.
fn fold_domains<P: Policy>(h: &mut Fnv, s: &Pool<P>, n_domains: usize) {
    for d in (0..n_domains).map(DomId) {
        h.u64(s.kicks_throttled(d));
        let info = s.extendability(d);
        h.u64(info.fair.as_ns());
        h.u64(info.ext.as_ns());
        h.u64(info.consumed.as_ns());
        h.u64(info.n_opt as u64);
        h.u64(u64::from(info.competitor));
        h.u64(info.computed_at.as_ns());
        h.u64(info.period.as_ns());
    }
}

/// A pool of `scenario`'s topology under `cfg`, with every even-indexed
/// domain capped at `cap` pCPUs.
fn build<P: Policy>(cfg: &CreditConfig, cap: Option<f64>, scenario: &Scenario) -> Pool<P> {
    let mut s = Pool::new(cfg.clone(), scenario.n_pcpus);
    for (d, &(weight, nv)) in scenario.domains.iter().enumerate() {
        s.create_domain(weight, nv, cap.filter(|_| d % 2 == 0), None);
    }
    s
}

/// Replays `scenario` through `testkit::differential::apply`, folding
/// the full observable trajectory into `h`; `per_op` folds extra state
/// after every op. Returns the pool and the instant of the last op.
fn replay_folded<P: Policy>(
    cfg: &CreditConfig,
    cap: Option<f64>,
    scenario: &Scenario,
    h: &mut Fnv,
    mut per_op: impl FnMut(&mut Fnv, &Pool<P>, Op),
) -> (Pool<P>, SimTime) {
    let vcpus = vcpu_table(&scenario.domains);
    let mut s = build::<P>(cfg, cap, scenario);
    let mut now = SimTime::ZERO;
    let mut events = Vec::new();
    let mut assignments = vec![0; scenario.n_pcpus];
    for (i, &op) in scenario.ops.iter().enumerate() {
        now += OP_STEP;
        events.clear();
        apply(&mut s, &vcpus, op, now, &mut events);
        h.u64(i as u64);
        for e in &events {
            fold_event(h, e);
        }
        count_assignments(&mut assignments, &events);
        fold_state(h, &s, &vcpus, &assignments);
        for d in 0..scenario.domains.len() {
            h.u64(s.domain_run_total(DomId(d)).as_ns());
            h.u64(s.domain_wait_total(DomId(d)).as_ns());
        }
        per_op(h, &s, op);
    }
    h.u64(s.total_run_ns());
    h.u64(s.migrations());
    h.u64(s.extend_version());
    (s, now)
}

/// Checksum of the default-config trajectory of `scenario` (the
/// [`GOLDEN`] fold).
fn trajectory_checksum<P: Policy>(scenario: &Scenario) -> u64 {
    let mut h = Fnv::default();
    replay_folded::<P>(
        &CreditConfig::default(),
        None,
        scenario,
        &mut h,
        |_, _, _| {},
    );
    h.finish()
}

/// Checksum of the kick-throttled attack trajectory of `scenario` plus
/// its export/import round trip (the [`GOLDEN_ATTACK`] fold).
fn migrated_checksum<P: Policy>(scenario: &Scenario) -> u64 {
    let cfg = CreditConfig {
        kick_throttle: true,
        ..CreditConfig::default()
    };
    let n_domains = scenario.domains.len();
    let mut h = Fnv::default();
    let (s, mut now) = replay_folded::<P>(&cfg, None, scenario, &mut h, |h, s, _| {
        fold_domains(h, s, n_domains)
    });
    let vcpus = vcpu_table(&scenario.domains);
    let mut twin = build::<P>(&cfg, None, scenario);
    let mut events = Vec::new();
    let mut assignments = vec![0; scenario.n_pcpus];
    for d in (0..n_domains).map(DomId) {
        let export = s.export_domain(d);
        for x in &export.vcpus {
            h.u64(u64::from(x.frozen));
            h.u64(u64::from(x.runnable));
            h.u64(x.credit as u64);
        }
        twin.import_domain(d, &export, now, &mut events);
    }
    for e in &events {
        fold_event(&mut h, e);
    }
    count_assignments(&mut assignments, &events);
    fold_state(&mut h, &twin, &vcpus, &assignments);
    now += OP_STEP;
    events.clear();
    for p in (0..scenario.n_pcpus).map(PcpuId) {
        twin.slice_expired(p, now, &mut events);
    }
    for e in &events {
        fold_event(&mut h, e);
    }
    count_assignments(&mut assignments, &events);
    fold_state(&mut h, &twin, &vcpus, &assignments);
    fold_domains(&mut h, &twin, n_domains);
    h.finish()
}

/// Seeds → pre-captured `(credit, credit2, dynfrac)` trajectory
/// checksums against the pre-SoA layout. The credit2 and dynfrac columns
/// were re-captured when those backends began closing the waiting span of
/// a queued vCPU that blocks.
#[rustfmt::skip]
const GOLDEN: [(u64, u64, u64, u64); 5] = [
    (11, 0xe500396e789a1883, 0xf344d47b83afe01c, 0xf344d47b83afe01c),
    (23, 0xc28b26fe3b422bdb, 0x147dea063737e2d3, 0xc17c154b93d19f4c),
    (37, 0x06661cca29dc3d0f, 0xf5c462f9551dd59f, 0x74af935dcd780b3f),
    (59, 0xd95c97056a712997, 0xd5e79b5727f736d4, 0x5bfa366896da46e8),
    (101, 0x522a48e78fd9ecd5, 0x1f6a8c100a15dc3a, 0x1f6a8c100a15dc3a),
];

#[test]
fn soa_layout_preserves_scheduler_trajectories() {
    let gen = scenario_gen(60);
    let bless = std::env::var("VSCALE_BLESS").is_ok();
    for &(seed, credit, credit2, dynfrac) in &GOLDEN {
        let scenario = gen.run(&mut Source::random(seed));
        let c = trajectory_checksum::<Credit>(&scenario);
        let c2 = trajectory_checksum::<Credit2>(&scenario);
        let df = trajectory_checksum::<DynFrac>(&scenario);
        if bless {
            println!("    ({seed}, {c:#018x}, {c2:#018x}, {df:#018x}),");
            continue;
        }
        assert_eq!(
            (c, c2, df),
            (credit, credit2, dynfrac),
            "trajectory diverged from the pre-SoA layout for seed {seed} \
             ({} ops, {} pcpus, {:?} domains)",
            scenario.ops.len(),
            scenario.n_pcpus,
            scenario.domains,
        );
    }
    assert!(!bless, "bless mode prints checksums instead of asserting");
}

/// Seeds → `(credit, credit2, dynfrac)` checksums of kick-throttled
/// attack trajectories closed by an export/import round trip, captured
/// before the credit2 and dynfrac backends shared one pool; their columns
/// were re-captured with the waiting-span fix, like [`GOLDEN`]'s.
#[rustfmt::skip]
const GOLDEN_ATTACK: [(u64, u64, u64, u64); 5] = [
    (3, 0x72bb9c2f6e4b9280, 0xf375d34eb3f168fa, 0xba53c289cd573ad1),
    (7, 0x6efcc4ff385d3d77, 0x3ab5425afa2636bc, 0xd93045cd4ab2692e),
    (25, 0x5707f3a045b672fd, 0x7c24ff9c2a3853c7, 0x5cfda983f076a317),
    (50, 0x8770d3c16b75f6ea, 0x5923da2fc17323eb, 0x1a454585478d4cff),
    (68, 0x1df26a8813e41e7c, 0xcfc32a8b3b93cefc, 0xb98bb97dea750ad5),
];

#[test]
fn attack_streams_and_migration_round_trips_are_pinned() {
    let gen = adversarial_scenario_gen(60);
    let bless = std::env::var("VSCALE_BLESS").is_ok();
    for &(seed, credit, credit2, dynfrac) in &GOLDEN_ATTACK {
        let scenario = gen.run(&mut Source::random(seed));
        let c = migrated_checksum::<Credit>(&scenario);
        let c2 = migrated_checksum::<Credit2>(&scenario);
        let df = migrated_checksum::<DynFrac>(&scenario);
        if bless {
            println!("    ({seed}, {c:#018x}, {c2:#018x}, {df:#018x}),");
            continue;
        }
        assert_eq!(
            (c, c2, df),
            (credit, credit2, dynfrac),
            "attack trajectory or migration round trip diverged for seed {seed} \
             ({} ops, {} pcpus, {:?} domains)",
            scenario.ops.len(),
            scenario.n_pcpus,
            scenario.domains,
        );
    }
    assert!(!bless, "bless mode prints checksums instead of asserting");
}

/// What the capped credit streams reached: parks, unparks, and kicks of a
/// parked vCPU.
#[derive(Debug, Default)]
struct CapReach {
    parks: u64,
    unparks: u64,
    parked_kicks: u64,
}

/// Checksum of `scenario`'s credit trajectory under `cfg`, with every
/// even-indexed domain capped at `cap` pCPUs, folding each vCPU's parking
/// flag, band and credit balance after every op (the [`GOLDEN_CREDIT`]
/// fold). Counts into `reach` what the stream did to parked vCPUs.
fn credit_checksum(
    scenario: &Scenario,
    cfg: &CreditConfig,
    cap: Option<f64>,
    reach: &mut CapReach,
) -> u64 {
    let vcpus = vcpu_table(&scenario.domains);
    let mut parked = vec![false; vcpus.len()];
    let mut h = Fnv::default();
    replay_folded::<Credit>(cfg, cap, scenario, &mut h, |h, s, op| {
        let kicked = |gv: GlobalVcpu| match op {
            Op::Kick(v) => vcpus[v as usize % vcpus.len()] == gv,
            Op::StormKick(v) => vcpus[v as usize % vcpus.len()].dom == gv.dom,
            _ => false,
        };
        for (was_parked, &gv) in parked.iter_mut().zip(&vcpus) {
            let is_parked = s.is_parked(gv);
            if *was_parked && kicked(gv) && !s.is_frozen(gv) {
                reach.parked_kicks += 1;
            }
            reach.parks += u64::from(!*was_parked && is_parked);
            reach.unparks += u64::from(*was_parked && !is_parked);
            *was_parked = is_parked;
            h.u64(u64::from(is_parked));
            h.u64(s.vcpu_prio(gv) as u64);
            h.u64(s.credits_ns(gv) as u64);
        }
    });
    h.finish()
}

/// Op-stream length of the [`GOLDEN_CREDIT`] streams.
const CREDIT_MAX_OPS: usize = 60;

/// The cap, in pCPUs, on every even-indexed domain of the capped
/// [`GOLDEN_CREDIT`] streams. The budget is this share of a 30 ms period,
/// but an `Acct` op comes about every 6 ms of stream time, so half a pCPU
/// is never exceeded, while a quarter parks and unparks several times.
const CREDIT_CAP: f64 = 0.25;

/// `(generator, seed)` → credit checksums under three settings no other
/// table reaches: `sampled_burn` on, `boost` off, and every even-indexed
/// domain capped at [`CREDIT_CAP`]. `"plain"` streams come from
/// `scenario_gen`, `"attack"` streams from `adversarial_scenario_gen`.
/// Captured before the credit backend became a pool policy.
#[rustfmt::skip]
const GOLDEN_CREDIT: [(&str, u64, u64, u64, u64); 10] = [
    ("plain", 11, 0x9c4e3c1a35e52375, 0x931677fb4c77677e, 0x931677fb4c77677e),
    ("plain", 23, 0xf5033c64011cd4b6, 0xc54cda7d08e2ad8c, 0x25f71765887acf35),
    ("plain", 37, 0x07017acdb47f2600, 0x8fadb398deefdb23, 0x80ba8618b06f59b9),
    ("plain", 59, 0x93a1a7024838348a, 0x69a8de3e27775fe3, 0x09860c8038a01d7c),
    ("plain", 101, 0x5267c911cf675968, 0x32c5fdaeec602278, 0x37a70e4e42c6a061),
    ("attack", 3, 0x216138dda543f191, 0x990bcfc5d44370f9, 0x0166f431e7dc58f2),
    ("attack", 7, 0xd4a92cc4f293e2d9, 0xda002be1d3019107, 0x5096b92f86ee8a58),
    ("attack", 25, 0xade8415cae019baa, 0xcb09996ced5f8fec, 0xa98444954eccdae4),
    ("attack", 50, 0x27dee40e5dde8511, 0xc633920e9664b632, 0x8e9af228b5c2a0ac),
    ("attack", 68, 0xd18157f67bcd1527, 0x2f0cdb6d0ed8efd2, 0x8e5e2946de0b7a48),
];

#[test]
fn credit_sampled_unboosted_and_capped_streams_are_pinned() {
    let sampled = CreditConfig {
        sampled_burn: true,
        ..CreditConfig::default()
    };
    let unboosted = CreditConfig {
        boost: false,
        ..CreditConfig::default()
    };
    let bless = std::env::var("VSCALE_BLESS").is_ok();
    let mut reach = CapReach::default();
    for &(stream, seed, want_sampled, want_unboosted, want_capped) in &GOLDEN_CREDIT {
        let gen = match stream {
            "plain" => scenario_gen(CREDIT_MAX_OPS),
            _ => adversarial_scenario_gen(CREDIT_MAX_OPS),
        };
        let scenario = gen.run(&mut Source::random(seed));
        let mut ignored = CapReach::default();
        let got = (
            credit_checksum(&scenario, &sampled, None, &mut ignored),
            credit_checksum(&scenario, &unboosted, None, &mut ignored),
            credit_checksum(
                &scenario,
                &CreditConfig::default(),
                Some(CREDIT_CAP),
                &mut reach,
            ),
        );
        if bless {
            println!(
                "    (\"{stream}\", {seed}, {:#018x}, {:#018x}, {:#018x}),",
                got.0, got.1, got.2
            );
            continue;
        }
        assert_eq!(
            got,
            (want_sampled, want_unboosted, want_capped),
            "credit trajectory diverged for {stream} seed {seed} \
             ({} ops, {} pcpus, {:?} domains)",
            scenario.ops.len(),
            scenario.n_pcpus,
            scenario.domains,
        );
    }
    assert!(
        reach.parks > 0 && reach.unparks > 0 && reach.parked_kicks > 0,
        "the capped streams must park, unpark and kick a parked vCPU: {reach:?}"
    );
    assert!(!bless, "bless mode prints checksums instead of asserting");
}
