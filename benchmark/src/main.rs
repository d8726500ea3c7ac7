//! The repository benchmark: time to a verified MIS on G(n, p) and job
//! turnaround through the graph service, end to end and per layer.
//!
//! ```text
//! mis-repo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `gnp-two-state`, `gnp-three-color`, `service-mix` (see
//! `README.md` next to this package). Every result is checked; the last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` holding the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). A traced
//! run measures the workload untraced, then again with spans, and reports
//! the difference as `overhead.<metric>`. The full report and the spans are
//! written under `.bench_work/` in the working directory.

mod gnp;
mod metrics;
mod service_mix;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{cache_size, json_str, nproc, Metrics};
use trace::Recorder;

/// End-to-end metrics every workload reports, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("verified_per_s", "1/s"),
    ("time_to_mis_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("verified_share", "ratio"),
];

/// The ten registry keys, in registry order.
pub const ALGORITHMS: [&str; 10] = [
    "beeping-two-state",
    "greedy",
    "luby",
    "random-priority",
    "sequential-selfstab",
    "stone-age-three-color",
    "stone-age-three-state",
    "three-color",
    "three-state",
    "two-state",
];

/// Per-layer metrics every traced run reports. A layer a workload does not
/// call reads 0 there.
fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("graph.generate_s", "s"),
        ("graph.is_mis_ms", "ms"),
        ("graph.working_set_mb", "MB"),
        ("core.init_ms", "ms"),
        ("core.round_us.early", "us"),
        ("core.round_us.tail", "us"),
        ("core.rounds_per_solve", "count"),
        ("core.random_bits_per_solve", "count"),
        ("core.active_share.tail", "ratio"),
        ("rayon.dispatches_per_round", "count"),
        ("rayon.barriers_per_round", "count"),
        ("sim.drive_ms", "ms"),
        ("sim.drive_share", "ratio"),
        ("sim.drive_self_ms", "ms"),
        ("service.run_ms.p50", "ms"),
        ("service.run_ms.p99", "ms"),
        ("service.queue_wait_ms.p50", "ms"),
        ("service.turnaround_ms.p99", "ms"),
        ("service.journal_append_us.p50", "us"),
        ("service.journal_append_us.p99", "us"),
        ("service.jobs_on_graph_us", "us"),
        ("service.gauges_us", "us"),
        ("service.install_snapshot_ms", "ms"),
        ("service.retained_jobs", "count"),
        ("warp.submit_ms.p50", "ms"),
        ("warp.submit_ms.p99", "ms"),
        ("warp.poll_ms.p50", "ms"),
        ("warp.mis_ms.p50", "ms"),
        ("warp.patch_ms.p50", "ms"),
        ("warp.requests_per_job", "count"),
        ("warp.errors", "count"),
        ("bench.job_self_ms.p50", "ms"),
        ("bench.spans", "count"),
    ]
    .iter()
    .map(|&(name, unit)| (name.to_string(), unit))
    .collect();
    for key in ALGORITHMS {
        out.push((format!("service.run_ms.{key}"), "ms"));
    }
    for route in service_mix::ROUTES {
        out.push((format!("warp.handler_us.{}", route.name), "us"));
        out.push((format!("warp.wire_us.{}", route.name), "us"));
    }
    for &(name, unit) in END_TO_END {
        out.push((format!("overhead.{name}"), unit));
    }
    out
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Per-run scratch space inside the working directory.
    pub work_dir: PathBuf,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Self-check failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// End-to-end metrics of the untraced measurement.
    pub e2e: Metrics,
    /// End-to-end metrics of the traced measurement (`--trace 1`).
    pub traced_e2e: Option<Metrics>,
    /// The workload's figures under their workload-specific names.
    pub detail: Metrics,
    pub layers: Metrics,
    pub spans: Option<Recorder>,
}

const WORKLOADS: [&str; 3] = ["gnp-two-state", "gnp-three-color", "service-mix"];

const USAGE: &str =
    "usage: mis-repo-benchmark --workload <gnp-two-state|gnp-three-color|service-mix> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let work_dir = PathBuf::from(".bench_work")
        .join(format!("{workload}-seed{seed}-pid{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
        work_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = format!(
        "{{\"nproc\": {}, \"l2\": {}, \"l3\": {}}}",
        nproc(),
        json_str(&cache_size(2)),
        json_str(&cache_size(3))
    );
    println!("host {host}");
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(1);
    }
    let outcome = match args.workload.as_str() {
        "gnp-two-state" => gnp::run(&gnp::TWO_STATE, &args),
        "gnp-three-color" => gnp::run(&gnp::THREE_COLOR, &args),
        _ => service_mix::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    finish(&args, outcome, &host)
}

fn finish(args: &Args, mut outcome: Outcome, host: &str) -> ExitCode {
    // A workload that could not run at all (e.g. the daemon did not start)
    // has nothing to report: fail without a result line.
    if END_TO_END
        .iter()
        .any(|(name, _)| outcome.e2e.get(name).is_none())
    {
        for problem in &outcome.problems {
            eprintln!("{}: {problem}", args.workload);
        }
        return ExitCode::from(1);
    }
    if let (Some(traced), Some(spans)) = (&outcome.traced_e2e, &outcome.spans) {
        for &(name, unit) in END_TO_END {
            let before = outcome.e2e.get(name).expect("checked above");
            let after = traced.get(name).expect("traced phase reports every metric");
            // Peak RSS is a process-wide high-water mark, so its tracing
            // overhead is the span buffer itself (computed).
            let delta = if name == "peak_rss_mb" {
                spans.memory_bytes() as f64 / (1024.0 * 1024.0)
            } else {
                after.value - before.value
            };
            outcome
                .layers
                .set(format!("overhead.{name}"), delta, unit, after.samples);
        }
        outcome
            .layers
            .set("bench.spans", spans.spans().len() as f64, "count", 1);
    }
    if args.trace {
        for (name, unit) in layer_metrics() {
            if outcome.layers.get(&name).is_none() {
                outcome.layers.set(name, 0.0, unit, 0);
            }
        }
    }

    for (name, m) in outcome.detail.iter() {
        println!(
            "{} {name} = {} {} (samples {})",
            args.workload, m.value, m.unit, m.samples
        );
    }
    if args.trace {
        for (name, m) in outcome.layers.iter() {
            println!(
                "{} layer {name} = {} {} (samples {})",
                args.workload, m.value, m.unit, m.samples
            );
        }
    }
    for problem in &outcome.problems {
        println!("{} SELF-CHECK FAILED: {problem}", args.workload);
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    write_report(args, &outcome, host, correct);

    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.to_json(false)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Writes the full report (and the spans of a traced run) under
/// `.bench_work/`; a failure to write is reported but does not fail the run.
fn write_report(args: &Args, outcome: &Outcome, host: &str, correct: bool) {
    let dir = PathBuf::from(".bench_work");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let problems: Vec<String> = outcome.problems.iter().map(|p| json_str(p)).collect();
    let report = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {host}, \
         \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"problems\": [{}], \
         \"end_to_end\": {}, \"workload_metrics\": {}, \"per_layer\": {}}}\n",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        outcome.attempted,
        outcome.failed,
        problems.join(", "),
        outcome.e2e.to_json(true),
        outcome.detail.to_json(true),
        outcome.layers.to_json(true),
    );
    let result = std::fs::write(dir.join(format!("{stem}.json")), report).and_then(|()| {
        match &outcome.spans {
            Some(spans) => spans.write_ndjson(&dir.join(format!("{stem}.spans.ndjson"))),
            None => Ok(()),
        }
    });
    if let Err(e) = result {
        eprintln!("could not write the report under {}: {e}", dir.display());
    }
}
