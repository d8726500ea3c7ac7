//! Churn experiment: incremental re-stabilization of the live-mutation
//! engine vs a cold restart after Poisson edge-churn bursts, for the
//! 2-state, 3-state, and 3-color processes on sparse `G(n, 8/n)`.
//!
//! Writes the machine-readable report to `results/exp_churn.json` and, on a
//! full run only, the headline evidence file `BENCH_churn.json` in the
//! working directory.
//!
//! Usage: `cargo run --release -p mis-bench --bin exp_churn [-- --quick]`
//!
//! Exit status is non-zero when a gate fails:
//! * at the gate fraction (1% edge churn), any process whose incremental
//!   re-stabilization takes at least as many rounds as a cold restart on
//!   the mutated graph;
//! * any incremental run that does not end on a valid MIS of its mutated
//!   graph.

use mis_bench::experiments::churn::exp_churn;
use mis_bench::report::{print_section, write_report};
use mis_bench::Scale;

const HELP: &str = "\
exp_churn — live-mutation engine: incremental re-stabilization vs cold restart

USAGE: exp_churn [--quick] [--help]

  --quick  n = 10^5 at the 1% gate fraction only (CI smoke); default is
           n = 10^6 across a churn-fraction sweep; only a full run
           writes BENCH_churn.json (both write results/exp_churn.json)
  --help   print this help

METHOD
  For each paper process (two-state, three-state, three-color) and each
  churn fraction f: stabilize on G(n, 8/n), apply one Poisson edge-churn
  burst (expected f*m removals + f*m insertions) through apply_mutation,
  count the rounds to re-stabilize incrementally, then build a fresh
  process on the mutated graph and count its rounds from scratch.

GATES (non-zero exit)
  incremental_rounds >= restart_rounds for any process at f = 1%; any
  incremental run ending on an invalid MIS.
";

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return;
    }
    let scale = Scale::from_args();
    let report = exp_churn(scale);
    print_section(
        "CHURN: incremental re-stabilization vs cold restart on G(n, 8/n)",
        &report.to_pretty(),
    );
    let gate: Vec<String> = report
        .gate_rows()
        .map(|r| {
            format!(
                "{}: {} vs {} rounds ({:.1}x)",
                r.algorithm, r.incremental_rounds, r.restart_rounds, r.round_speedup
            )
        })
        .collect();
    println!(
        "incremental vs restart at f = {}: {}",
        report.gate_fraction,
        gate.join("; ")
    );

    let json = report.to_json();
    write_report(scale, "exp_churn.json", "BENCH_churn.json", &json);

    let mut failed = false;
    if !report.gate_passes() {
        eprintln!(
            "GATE FAILED: incremental re-stabilization after a {}% edge-churn burst \
             took no fewer rounds than a cold restart",
            report.gate_fraction * 100.0
        );
        failed = true;
    }
    if !report.all_valid() {
        eprintln!("GATE FAILED: an incremental run ended on an invalid MIS");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
