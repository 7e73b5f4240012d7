//! Every workload at smoke scale (well under a second each in a release
//! build): its output checks pass, tracing leaves the simulation and its
//! exact counts unchanged, the fleet is thread-count invariant, and the
//! result line carries exactly the metrics `BENCHMARK.json` lists.

use std::process::Command;

use vscale_perf::workloads::{run_episode, Config, Scale, Workload};
use vscale_perf::{END_TO_END, PER_LAYER};

fn smoke(workload: Workload, seed: u64, threads: usize) -> Config {
    Config {
        workload,
        seed,
        scale: Scale::Smoke,
        threads,
    }
}

#[test]
fn every_workload_passes_its_checks_and_tracing_changes_nothing() {
    for w in Workload::ALL {
        let cfg = smoke(w, 3, 1);
        let plain = run_episode(&cfg, false);
        let traced = run_episode(&cfg, true);
        for ep in [&plain, &traced] {
            assert!(ep.failures.is_empty(), "{}: {:?}", w.name(), ep.failures);
            assert!(
                ep.ops > 0 && ep.failed == 0,
                "{}: {} of {} failed",
                w.name(),
                ep.failed,
                ep.ops
            );
        }
        assert_eq!(
            plain.digest,
            traced.digest,
            "{}: tracing moved the simulation",
            w.name()
        );
        assert_eq!(
            plain.counts,
            traced.counts,
            "{}: tracing moved a count",
            w.name()
        );
        assert!(plain.spans.is_empty());
        assert!(
            traced.spans.iter().any(|s| s.name == w.step_span()),
            "{}: no {} span",
            w.name(),
            w.step_span()
        );
    }
}

#[test]
fn fleet_digest_is_the_same_at_one_and_two_threads() {
    let one = run_episode(&smoke(Workload::FleetSteady, 3, 1), false);
    let two = run_episode(&smoke(Workload::FleetSteady, 3, 2), false);
    assert!(one.failures.is_empty() && two.failures.is_empty());
    assert_eq!(one.counts.hosts, 8);
    assert_eq!(one.digest, two.digest);
}

/// At this seed the full-scale elastic fleet climbs to 28 hosts and does
/// not scale in before the load stops; that is a valid outcome.
#[test]
fn an_elastic_fleet_that_never_scales_in_passes_its_checks() {
    let cfg = Config {
        scale: Scale::Full,
        ..smoke(Workload::FleetElastic, 184_884_533, 1)
    };
    let ep = run_episode(&cfg, false);
    assert!(ep.failures.is_empty(), "{:?}", ep.failures);
    assert!(ep.counts.scale_outs > 0 && ep.counts.scale_ins == 0);
}

#[test]
fn the_seed_is_the_input() {
    let a = run_episode(&smoke(Workload::HostNpb, 3, 1), false);
    let b = run_episode(&smoke(Workload::HostNpb, 7, 1), false);
    assert_ne!(a.digest, b.digest);
}

/// The `name` values listed under `key` in `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<String> {
    let section = json
        .split(&format!("\"{key}\""))
        .nth(1)
        .expect("section present");
    let section = &section[..section.find(']').expect("list closes")];
    section
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

/// The metric names of the result line (the last stdout line).
fn reported(args: &[&str]) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_vscale-perf"))
        .args(["--scale", "smoke", "--seconds", "0"])
        .args(args)
        .output()
        .expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let line = stdout.lines().last().expect("result line");
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
    let mut heads: Vec<&str> = line.split("\": {\"value\"").collect();
    heads.pop();
    heads
        .iter()
        .map(|s| s.rsplit('"').next().expect("quoted name").to_string())
        .collect()
}

#[test]
fn result_lines_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside perf/");
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(listed(&json, "workloads"), names);
    assert_eq!(listed(&json, "end_to_end"), END_TO_END);
    assert_eq!(listed(&json, "per_layer"), PER_LAYER);
    assert_eq!(
        reported(&["--workload", "fleet_failover", "--trace", "0"]),
        END_TO_END
    );
    assert_eq!(
        reported(&["--workload", "fleet_failover", "--trace", "1"]),
        PER_LAYER
    );
}
