//! Snapshot determinism across the whole stack: restoring a mid-run
//! checkpoint and running forward must be **byte-identical** to never
//! having stopped — for every scheduler backend, and independent of the
//! cluster worker-thread count.
//!
//! This is the property the host-failure machinery leans on: a crashed
//! host restored from its checkpoint deterministically replays the lost
//! interval, so the cluster can fence the replayed work exactly (it
//! knows precisely what the replay will re-produce).

use testkit::fnv1a;
use vscale_repro::apps::apache::{self, ApacheConfig};
use vscale_repro::apps::desktop::{self, SlideshowConfig};
use vscale_repro::core::config::{MachineConfig, SystemConfig};
use vscale_repro::core::Machine;
use vscale_repro::hv::{Credit, Credit2, DomId, DynFrac, Policy};
use vscale_repro::sim::fault::FaultConfig;
use vscale_repro::sim::time::{SimDuration, SimTime};

/// Builds a loaded machine: one vScale Apache-serving VM plus a desktop
/// neighbour, with a request batch injected every 5 ms.
fn build<P: Policy>(seed: u64) -> Machine<P> {
    let mut m = Machine::<P>::with_backend(MachineConfig {
        n_pcpus: 2,
        seed,
        ..MachineConfig::default()
    });
    let mut spec = SystemConfig::VScale.domain_spec(4);
    spec.guest.softirq_net = SimDuration::from_us(25);
    let dom = m.add_domain(spec);
    let srv = apache::install(&mut m, dom, ApacheConfig::default());
    desktop::add_desktop_vm(&mut m, SlideshowConfig::default());
    for i in 0..120u64 {
        m.inject_io(dom, srv.port, SimTime::from_ms(5 + 5 * i), 2);
    }
    m
}

/// Checkpoint mid-run, restore into a twin, run both to the horizon:
/// the final checkpoints (full machine state down to RNG words and
/// event-queue contents) must be byte-equal.
fn restore_then_run_is_byte_identical<P: Policy>(backend: &str) {
    let horizon = SimTime::from_ms(700);
    let mut a = build::<P>(23);
    a.run_until(SimTime::from_ms(260));
    let mid = a.checkpoint();
    let t_mid = a.now();
    a.run_until(horizon);
    let final_a = a.checkpoint();

    let mut b = build::<P>(23);
    b.restore(&mid);
    assert_eq!(
        b.now(),
        t_mid,
        "[{backend}] restore lands at the checkpoint instant"
    );
    b.run_until(horizon);
    let final_b = b.checkpoint();
    assert_eq!(
        final_a, final_b,
        "[{backend}] restore-then-run diverged from the uninterrupted run"
    );
}

#[test]
fn credit_restore_then_run_is_byte_identical() {
    restore_then_run_is_byte_identical::<Credit>("credit");
}

#[test]
fn credit2_restore_then_run_is_byte_identical() {
    restore_then_run_is_byte_identical::<Credit2>("credit2");
}

#[test]
fn dynfrac_restore_then_run_is_byte_identical() {
    restore_then_run_is_byte_identical::<DynFrac>("dynfrac");
}

/// A fault plan that keeps notifications and IPIs misbehaving and the
/// daemon crashing, so the fault section, doorbell sequences, and armed
/// retransmits all land in the images.
fn faults() -> FaultConfig {
    FaultConfig {
        seed: 7,
        notify_drop_ppm: 200_000,
        notify_delay_ppm: 100_000,
        notify_dup_ppm: 50_000,
        ipi_delay_ppm: 50_000,
        daemon_crash_ppm: 20_000,
        stale_read_ppm: 50_000,
        torn_read_ppm: 50_000,
        ..FaultConfig::default()
    }
}

/// Hashes of `checkpoint()`, `vm_image_bytes(dom0)` and `extract_vm(dom0)`
/// at 260 ms, after checking that restoring the checkpoint into a twin and
/// re-checkpointing at once returns the same bytes.
fn golden_hashes<P: Policy>(faulted: bool) -> [u64; 3] {
    let build_one = || {
        let mut m = build::<P>(23);
        if faulted {
            m.set_fault_plan(faults());
        }
        m
    };
    let mut a = build_one();
    a.run_until(SimTime::from_ms(260));
    let image = a.checkpoint();
    let mut twin = build_one();
    twin.restore(&image);
    assert!(
        twin.checkpoint() == image,
        "[{}] restore-then-checkpoint changed the image",
        P::NAME
    );
    let vm = a.vm_image_bytes(DomId(0));
    let extracted = a.extract_vm(DomId(0));
    [fnv1a(&image), fnv1a(&vm), fnv1a(&extracted)]
}

/// The image layout is pinned byte for byte: any change to what a
/// checkpoint, a dirty probe, or a migration image contains — field
/// order, section tags, sequence prefixes — moves these hashes.
#[test]
fn image_bytes_match_pinned_goldens() {
    let got = [
        golden_hashes::<Credit>(false),
        golden_hashes::<Credit>(true),
        golden_hashes::<Credit2>(false),
        golden_hashes::<Credit2>(true),
        golden_hashes::<DynFrac>(false),
        golden_hashes::<DynFrac>(true),
    ];
    let rows = [
        "credit",
        "credit + faults",
        "credit2",
        "credit2 + faults",
        "dynfrac",
        "dynfrac + faults",
    ];
    // Columns: checkpoint, vm_image_bytes, extract_vm.
    let want: [[u64; 3]; 6] = [
        [0x2cc0641536b64cc8, 0xb7ba992c7abb3835, 0xc783264693e815d5],
        [0x171a83b6fed59421, 0x1df3871a23ed003d, 0xf4ad7f441d14647d],
        [0xf0a04ecd809a9616, 0x86edc74bde508316, 0xb2fe4f57bff873dc],
        [0x736e0167f1e9a794, 0x14ffbb44f7a520c8, 0x2d4af1726db05f06],
        [0xe77755403c0e46b2, 0xf27cfe7583e215af, 0xfe0e682e4cc9861f],
        [0x3b31dbb748a1c7ad, 0x4237c1de76cfc99f, 0xf7a013f8f4c0936f],
    ];
    // Every drifting row is reported, so one run re-pins them all.
    let drifted: Vec<String> = rows
        .iter()
        .zip(got.iter().zip(&want))
        .filter(|(_, (g, w))| g != w)
        .map(|(row, (g, _))| {
            format!(
                "    [{:#018x}, {:#018x}, {:#018x}], // {row}",
                g[0], g[1], g[2]
            )
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "snapshot image bytes drifted from the goldens in {} of {} rows; got:\n{}",
        drifted.len(),
        rows.len(),
        drifted.join("\n")
    );
}

/// One VM running a single workload family, on a contended 2-pCPU host.
fn family_host(seed: u64, install: &dyn Fn(&mut Machine, DomId)) -> Machine {
    let mut m = Machine::new(MachineConfig {
        n_pcpus: 2,
        seed,
        ..MachineConfig::default()
    });
    let dom = m.add_domain(SystemConfig::VScale.domain_spec(4));
    install(&mut m, dom);
    m
}

/// Every thread program carries its progress (RNG, iteration counters,
/// phase, alternation flags) through a checkpoint: for one VM per
/// workload family, restoring a mid-run image into a twin and running on
/// ends in the same image as the uninterrupted run.
#[test]
fn every_workload_family_restores_then_runs_byte_identically() {
    use vscale_repro::apps::adaptive::{self, AdaptiveConfig};
    use vscale_repro::apps::antagonist::{
        install_antagonist, AntagonistMode, AntagonistSpec, AttackKind,
    };
    use vscale_repro::apps::kbuild::{self, KbuildConfig};
    use vscale_repro::apps::spin::SpinPolicy;
    use vscale_repro::apps::{npb, parsec};

    let npb_app = |name: &'static str| {
        move |m: &mut Machine, dom: DomId| {
            let app = npb::app(name).expect("NPB app");
            npb::install(m, dom, app, 4, SpinPolicy::Default);
        }
    };
    let parsec_app = |name: &'static str| {
        move |m: &mut Machine, dom: DomId| {
            let app = parsec::app(name).expect("PARSEC app");
            parsec::install(m, dom, app, 4);
        }
    };
    let attack = |kind: AttackKind, mode: AntagonistMode| {
        move |m: &mut Machine, _dom: DomId| {
            install_antagonist(m, AntagonistSpec::new(kind, mode));
        }
    };
    type Install = Box<dyn Fn(&mut Machine, DomId)>;
    let families: Vec<(&str, Install)> = vec![
        ("npb cg", Box::new(npb_app("cg"))),
        ("parsec cond-barrier", Box::new(parsec_app("streamcluster"))),
        ("parsec pipeline", Box::new(parsec_app("dedup"))),
        ("parsec data-parallel", Box::new(parsec_app("blackscholes"))),
        (
            "kbuild",
            Box::new(|m: &mut Machine, dom: DomId| {
                kbuild::install(m, dom, KbuildConfig::default());
            }),
        ),
        (
            "adaptive",
            Box::new(|m: &mut Machine, dom: DomId| {
                adaptive::install(m, dom, AdaptiveConfig::default(), 4);
            }),
        ),
        // Each antagonist in the mode whose program state drives it.
        (
            "tick evader",
            Box::new(attack(AttackKind::TickEvade, AntagonistMode::Benign)),
        ),
        (
            "boost farmer",
            Box::new(attack(AttackKind::BoostFarm, AntagonistMode::Adversarial)),
        ),
        (
            "ipi storm",
            Box::new(attack(AttackKind::IpiStorm, AntagonistMode::Adversarial)),
        ),
        (
            "oscillator",
            Box::new(attack(AttackKind::Oscillate, AntagonistMode::Benign)),
        ),
    ];
    // Several checkpoint instants, off the millisecond grid the
    // antagonists phase-lock to, so a lost flag is caught whichever way
    // it happens to stand at any one of them.
    let mut diverged = Vec::new();
    for (name, install) in &families {
        let mut a = family_host(31, install.as_ref());
        let mut mids = Vec::new();
        for k in 0..11 {
            a.run_until(SimTime::from_us(250_000 + 2_750 * k));
            mids.push(a.checkpoint());
        }
        a.run_until(SimTime::from_ms(700));
        let want = a.checkpoint();
        let ok = mids.iter().all(|mid| {
            let mut b = family_host(31, install.as_ref());
            b.restore(mid);
            b.run_until(SimTime::from_ms(700));
            b.checkpoint() == want
        });
        if !ok {
            diverged.push(*name);
        }
    }
    assert!(
        diverged.is_empty(),
        "restore-then-run diverged for: {diverged:?}"
    );
}

/// The same checkpoint must come out of a fleet no matter how many
/// worker threads stepped its hosts: host images are a pure function of
/// simulated time.
#[test]
fn fleet_checkpoints_are_thread_count_invariant() {
    use cluster::{build_web_fleet, ClusterConfig, WebFleetConfig};
    let images = |threads: usize| -> Vec<Vec<u8>> {
        let mut c = build_web_fleet(
            WebFleetConfig {
                hosts: 3,
                desktops_per_host: 1,
                ..WebFleetConfig::default()
            },
            ClusterConfig {
                threads,
                ..ClusterConfig::default()
            },
        );
        c.open_loop(2_500.0, SimTime::ZERO, SimTime::from_ms(150));
        c.run_until(SimTime::from_ms(150)).expect("runs");
        (0..c.n_hosts()).map(|h| c.checkpoint_host(h)).collect()
    };
    let serial = images(1);
    assert_eq!(serial, images(4), "host images depend on the thread count");
}
