//! Command-line entry point of the simulator benchmark.
//!
//! One run, one JSON line last on stdout:
//!   vscale-perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]
//! Several fresh-process runs per workload, summarized as one JSON line
//! per (workload, metric):
//!   vscale-perf [--reps N] [--seed N] [--seconds S] [--trace] [--scale full|smoke] [workload...]

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use vscale_perf::stats::{median, percentile, quartiles};
use vscale_perf::trace::{durations_us, to_jsonl, Span};
use vscale_perf::workloads::{host_probe, run_episode, Config, Counts, Episode, Scale, Workload};
use vscale_perf::PER_LAYER;

const USAGE: &str = "usage:
  vscale-perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]
  vscale-perf [--reps N] [--seed N] [--seconds S] [--trace] [--scale full|smoke] [workload...]
workloads: host_npb fleet_steady fleet_elastic fleet_failover";

/// `fleet_steady`'s extra traced measurements: a two-thread episode and
/// the host-count probe.
type Extras = (Episode, Result<Vec<(usize, f64)>, String>);

/// Host-stepping threads of the two-thread episode. Every measured
/// episode steps its hosts on one thread: on a machine of few shared
/// cores, a lockstep epoch on two threads waits for whichever thread the
/// host's other tenants stall, and the end-to-end time would measure them.
const FAN_OUT: usize = 2;

/// Episodes an untraced run measures at least; a traced run measures at
/// least this many untraced/traced pairs, less one.
const MIN_EPISODES: usize = 3;

struct Opts {
    workload: Option<Workload>,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    reps: usize,
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match opts.workload {
        Some(w) => single(&opts, w),
        None => summary(&opts),
    }
}

fn parse(args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        workloads: Vec::new(),
        seed: 3,
        seconds: 25,
        trace: false,
        scale: Scale::Full,
        reps: 5,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => o.workload = Some(workload(&value(&mut args, &arg)?)?),
            "--seed" => o.seed = number(&value(&mut args, &arg)?)?,
            "--seconds" => o.seconds = number(&value(&mut args, &arg)?)?,
            "--reps" => o.reps = number(&value(&mut args, &arg)?)?.max(1) as usize,
            "--scale" => {
                o.scale = match value(&mut args, &arg)?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("unknown scale {other:?}")),
                }
            }
            "--trace" => {
                o.trace = args
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag:?}")),
            name => o.workloads.push(workload(name)?),
        }
    }
    Ok(o)
}

fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn number(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("not a whole number: {s:?}"))
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

// ----------------------------------------------------------------------
// One run
// ----------------------------------------------------------------------

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Runs episodes for `--seconds` (at least [`MIN_EPISODES`]), checks
/// them, and prints the result line. A traced run alternates untraced
/// and traced episodes so the tracing overhead is measured under the
/// same conditions.
fn single(o: &Opts, w: Workload) -> ExitCode {
    let cfg = Config {
        workload: w,
        seed: o.seed,
        scale: o.scale,
        threads: 1,
    };
    let budget = Duration::from_secs(o.seconds);
    let begun = Instant::now();
    // The extra measurements run first, inside the time budget.
    let extras = (o.trace && w == Workload::FleetSteady).then(|| {
        let two = run_episode(&Config { threads: FAN_OUT, ..cfg }, false);
        report(1, "two-thread", &two);
        (two, host_probe(cfg.seed, cfg.scale))
    });
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let min = if o.trace {
        MIN_EPISODES - 1
    } else {
        MIN_EPISODES
    };
    loop {
        let ep = run_episode(&cfg, false);
        report(plain.len() + 1, "untraced", &ep);
        plain.push(ep);
        if o.trace {
            let ep = run_episode(&cfg, true);
            report(traced.len() + 1, "traced", &ep);
            traced.push(ep);
        }
        let failed = plain.iter().chain(&traced).any(|e| !e.failures.is_empty());
        if failed || (plain.len() >= min && begun.elapsed() >= budget) {
            break;
        }
    }

    let mut failures: Vec<String> = plain
        .iter()
        .chain(&traced)
        .flat_map(|e| e.failures.iter().cloned())
        .collect();
    let digest = plain[0].digest;
    if plain.iter().chain(&traced).any(|e| e.digest != digest) {
        failures.push("episodes of one seed simulated different outputs".into());
    }
    println!("digest {digest:016x}");

    let (metrics, more) = if o.trace {
        layer_metrics(&cfg, &plain, &traced, extras.as_ref(), &mut failures)
    } else {
        let e2e = vec![
            metric("sim_speed", median(&speeds(&plain)), "sim-s/s"),
            metric(
                "setup_s",
                median(
                    &plain
                        .iter()
                        .map(|e| e.setup.as_secs_f64())
                        .collect::<Vec<_>>(),
                ),
                "s",
            ),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        (e2e, Vec::new())
    };
    for m in metrics.iter().chain(&more) {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for f in &failures {
        println!("check failed: {f}");
    }
    let all = plain.iter().chain(&traced);
    let attempted: u64 = all.clone().map(|e| e.ops).sum();
    let failed: u64 = all.map(|e| e.failed).sum();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        attempted.max(1),
        body.join(", ")
    );
    ExitCode::SUCCESS
}

fn report(n: usize, kind: &str, e: &Episode) {
    println!(
        "episode {n} {kind}: setup {:.3} s, {:.3} sim-s in {:.3} s = {:.4} sim-s/s, \
         {} ops, {} failed, digest {:016x}",
        e.setup.as_secs_f64(),
        e.sim.as_secs_f64(),
        e.measure.as_secs_f64(),
        e.sim_speed(),
        e.ops,
        e.failed,
        e.digest
    );
}

fn speeds(eps: &[Episode]) -> Vec<f64> {
    eps.iter().map(Episode::sim_speed).collect()
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-layer metrics of a traced run: those the result line reports,
/// and the per-call times of layers only some workloads run, which are
/// only printed. Counts come from the traced episodes and must repeat
/// exactly; host times per event come from the untraced episodes of the
/// same run. `fleet_steady` also passes its two-thread episode and
/// host-count probe.
fn layer_metrics(
    cfg: &Config,
    plain: &[Episode],
    traced: &[Episode],
    extras: Option<&Extras>,
    failures: &mut Vec<String>,
) -> (Vec<Metric>, Vec<Metric>) {
    let c = traced[0].counts;
    if traced.iter().any(|e| e.counts != c) {
        failures.push("per-layer counts differ between traced episodes".into());
    }
    let spans: Vec<&Span> = traced.iter().flat_map(|e| &e.spans).collect();
    write_spans(cfg, &traced[0].spans, failures);

    let wall_s = median(
        &plain
            .iter()
            .map(|e| e.measure.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let sim_s = plain[0].sim.as_secs_f64();
    let events = c.events as f64;
    let step = durations_us(&spans, cfg.workload.step_span());
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let mut more = call_times(&spans, &c, traced.len() as u64);
    let mut parallel_eff = 0.0;
    if let Some((two, probe)) = extras {
        failures.extend(two.failures.iter().cloned());
        if two.digest != plain[0].digest {
            failures.push("two-thread digest differs from the one-thread digest".into());
        }
        parallel_eff = wall_s / (FAN_OUT as f64 * two.measure.as_secs_f64());
        match probe {
            Ok(points) => more.extend(
                points
                    .iter()
                    .map(|(hosts, ns)| metric(format!("cluster.ns_per_event.h{hosts}"), *ns, "ns")),
            ),
            Err(e) => failures.push(format!("host-count probe: {e}")),
        }
    }

    let m = vec![
        metric("sim-core.events", events, "count"),
        metric("sim-core.events_per_sim_s", events / sim_s, "1/sim-s"),
        metric("sim-core.ns_per_event", wall_s * 1e9 / events, "ns"),
        metric("xen-sched.switches", c.switches as f64, "count"),
        metric(
            "xen-sched.vcpu_migrations",
            c.vcpu_migrations as f64,
            "count",
        ),
        metric(
            "guest-kernel.context_switches",
            c.context_switches as f64,
            "count",
        ),
        metric("guest-kernel.resched_ipis", c.resched_ipis as f64, "count"),
        metric("guest-kernel.timer_ints", c.timer_ints as f64, "count"),
        metric("guest-kernel.io_irqs", c.io_irqs as f64, "count"),
        metric("core.daemon_reads", c.daemon_reads as f64, "count"),
        metric("core.reconfigs", c.reconfigs as f64, "count"),
        metric("core.events_per_s", events / wall_s, "1/s"),
        metric(
            "core.io_log_kb",
            c.io_log_entries as f64 * 8.0 / 1024.0,
            "KB",
        ),
        metric("api.step_us.p50", percentile(&step, 50.0), "us"),
        metric("api.step_us.p99", percentile(&step, 99.0), "us"),
        metric(
            "core.snapshot.image_kb",
            ratio(c.save_bytes, c.saves) / 1024.0,
            "KB",
        ),
        metric("cluster.epochs", c.epochs as f64, "count"),
        metric(
            "cluster.skip_ratio",
            ratio(c.steps_skipped, c.hosts * c.epochs),
            "ratio",
        ),
        metric("cluster.parallel_eff", parallel_eff, "ratio"),
        metric("cluster.requests", c.requests as f64, "count"),
        metric("cluster.requeued", c.requeued as f64, "count"),
        metric("cluster.restores", c.restores as f64, "count"),
        metric("cluster.migrations", c.migrations as f64, "count"),
        metric("cluster.precopy_rounds", c.precopy_rounds as f64, "count"),
        metric("autoscale.scale_outs", c.scale_outs as f64, "count"),
        metric("autoscale.scale_ins", c.scale_ins as f64, "count"),
        metric("autoscale.host_s", c.host_ms as f64 / 1e3, "host-s"),
        metric(
            "trace.overhead",
            median(&speeds(plain)) / median(&speeds(traced)) - 1.0,
            "ratio",
        ),
    ];
    debug_assert!(m.iter().map(|m| m.name.as_str()).eq(PER_LAYER));
    (m, more)
}

/// Per-call wall times of the layers this workload runs, over `episodes`
/// traced episodes whose counts are `c`.
fn call_times(spans: &[&Span], c: &Counts, episodes: u64) -> Vec<Metric> {
    let times = |name: &str| durations_us(spans, name);
    let mut out = Vec::new();
    for (span, name) in [
        ("core.step", "core.step_us"),
        ("cluster.epoch", "cluster.epoch_us"),
        ("autoscale.period", "autoscale.period_us"),
    ] {
        let t = times(span);
        if !t.is_empty() {
            out.push(metric(format!("{name}.p50"), percentile(&t, 50.0), "us"));
            out.push(metric(format!("{name}.p99"), percentile(&t, 99.0), "us"));
        }
    }
    let saves = times("core.snapshot.save");
    if !saves.is_empty() {
        let ms: Vec<f64> = saves.iter().map(|us| us / 1e3).collect();
        let mb_per_s = |bytes: u64, us: &[f64]| {
            bytes as f64 / (1 << 20) as f64 / (us.iter().sum::<f64>() / 1e6)
        };
        let restores = times("core.snapshot.restore");
        out.extend([
            metric("core.snapshot.save_ms.p50", percentile(&ms, 50.0), "ms"),
            metric("core.snapshot.save_ms.p99", percentile(&ms, 99.0), "ms"),
            metric(
                "core.snapshot.save_mb_per_s",
                mb_per_s(c.save_bytes * episodes, &saves),
                "MB/s",
            ),
            metric(
                "core.snapshot.restore_mb_per_s",
                mb_per_s(c.restore_bytes * episodes, &restores),
                "MB/s",
            ),
        ]);
    }
    let probes = times("core.snapshot.vm_image");
    if !probes.is_empty() {
        out.push(metric(
            "core.snapshot.vm_image_us.p50",
            percentile(&probes, 50.0),
            "us",
        ));
    }
    out
}

/// Writes one traced episode's spans to `perf/out/<workload>.<seed>.spans.jsonl`.
fn write_spans(cfg: &Config, spans: &[Span], failures: &mut Vec<String>) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/{}.{}.spans.jsonl", cfg.workload.name(), cfg.seed);
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, to_jsonl(spans)));
    match written {
        Ok(()) => println!("spans {path}"),
        Err(e) => failures.push(format!("writing {path}: {e}")),
    }
}

// ----------------------------------------------------------------------
// Summary over fresh-process runs
// ----------------------------------------------------------------------

/// `correct` and `failed` of the result line [`single`] prints.
fn parse_status(line: &str) -> Option<(bool, u64)> {
    let failed = line.split("\"failed\": ").nth(1)?.split(',').next()?;
    Some((
        line.contains("\"correct\": true"),
        failed.trim().parse().ok()?,
    ))
}

/// Runs every requested workload `--reps` times, each in a fresh
/// process, and prints median and quartiles per metric. Fails if any run
/// fails, reports a failed check or a failed operation.
fn summary(o: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads = if o.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        o.workloads.clone()
    };
    let scale = match o.scale {
        Scale::Full => "full",
        Scale::Smoke => "smoke",
    };
    let mut ok = true;
    for w in workloads {
        let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
        for rep in 1..=o.reps {
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--scale", scale])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if o.trace { "1" } else { "0" }])
                .output();
            let stdout = match out {
                Ok(out) if out.status.success() => {
                    String::from_utf8_lossy(&out.stdout).into_owned()
                }
                Ok(out) => {
                    eprintln!("{} rep {rep}: exited with {}", w.name(), out.status);
                    ok = false;
                    continue;
                }
                Err(e) => {
                    eprintln!("{} rep {rep}: {e}", w.name());
                    ok = false;
                    continue;
                }
            };
            for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                eprintln!("{} rep {rep}: {line}", w.name());
            }
            let Some((correct, failed)) = stdout.lines().last().and_then(parse_status) else {
                eprintln!("{} rep {rep}: no result line", w.name());
                ok = false;
                continue;
            };
            ok &= correct && failed == 0;
            let metrics = stdout.lines().filter_map(|l| {
                let mut f = l.strip_prefix("metric ")?.split(' ');
                let (name, value, unit) = (f.next()?, f.next()?.parse().ok()?, f.next()?);
                Some((name.to_string(), value, unit.to_string()))
            });
            for (name, value, unit) in metrics {
                match series.iter_mut().find(|s| s.0 == name) {
                    Some(s) => s.2.push(value),
                    None => series.push((name, unit, vec![value])),
                }
            }
        }
        for (name, unit, values) in &series {
            let (q1, q3) = quartiles(values);
            println!(
                "{{\"workload\": \"{}\", \"metric\": \"{name}\", \"unit\": \"{unit}\", \
                 \"median\": {}, \"q1\": {q1}, \"q3\": {q3}, \"n\": {}}}",
                w.name(),
                median(values),
                values.len()
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_status_parses() {
        let line = "{\"correct\": false, \"attempted\": 12, \"failed\": 3, \"metrics\": {}}";
        assert_eq!(parse_status(line), Some((false, 3)));
    }

    #[test]
    fn single_run_and_summary_arguments_parse() {
        let args = |s: &str| parse(s.split_whitespace().map(String::from));
        let o = args("--workload host_npb --seed 7 --seconds 10 --trace 0").expect("parses");
        assert_eq!(o.workload, Some(Workload::HostNpb));
        assert!(!o.trace && o.seed == 7);
        let o = args("--reps 2 --trace fleet_steady").expect("parses");
        assert!(o.trace && o.reps == 2 && o.workloads == [Workload::FleetSteady]);
        assert!(args("--workload nope").is_err());
    }
}
