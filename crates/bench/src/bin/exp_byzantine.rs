//! Byzantine experiment: containment of adversarial vertices by the
//! 2-state, 3-state, and 3-color processes on sparse `G(n, 8/n)`, across
//! all four adversary strategies and random vs hub-targeted placement.
//!
//! Writes the machine-readable report to `results/exp_byzantine.json` and,
//! on a full run only, the headline evidence file `BENCH_byzantine.json` in
//! the working directory.
//!
//! Usage: `cargo run --release -p mis-bench --bin exp_byzantine [-- --quick]`
//!
//! Exit status is non-zero when a gate fails:
//! * at the gate fraction (1% Byzantine vertices, random placement), any
//!   (process, strategy) pair that does not reach confirmed containment
//!   within the round budget;
//! * any trial whose final black set is not a valid MIS outside the
//!   radius-2 zone of the Byzantine set.

use mis_bench::experiments::byzantine::exp_byzantine;
use mis_bench::report::{print_section, write_report};
use mis_bench::Scale;

const HELP: &str = "\
exp_byzantine — Byzantine adversaries: containment within radius 2

USAGE: exp_byzantine [--quick] [--help]

  --quick  n = 10^5, random placement at the 1% gate fraction only (CI
           smoke); default is n = 10^6 across f in {0.1%, 1%, 5%} plus a
           hub-targeted placement at 1%; only a full run writes
           BENCH_byzantine.json (both write results/exp_byzantine.json)
  --help   print this help

METHOD
  For each paper process (two-state, three-state, three-color), each
  adversary strategy (frozen, flipper, oscillator, spoofer), and each
  Byzantine fraction f: place ceil(f*n) adversarial vertices on G(n, 8/n),
  apply the adversary's override every round after the honest step, and
  drive until every unstable vertex lies within graph distance 2 of the
  Byzantine set for 3 consecutive rounds. Record the rounds to confirmed
  containment and the residual unstable fraction, then validate the final
  configuration as a MIS outside the radius-2 zone.

  A combined scenario then rides an *adaptive* adversary on a JoinLeave
  churn schedule (ByzantineSpec with victim re-sampling + ChurnSpec in one
  ExperimentSpec): victims isolated by a burst are re-sampled onto fresh
  vertices, and containment must be re-confirmed after every burst.

GATES (non-zero exit)
  any (process, strategy) pair uncontained at f = 1% random placement;
  any trial ending on an invalid MIS outside its Byzantine zone;
  any adaptive-adversary-under-churn trial uncontained or invalid.
";

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return;
    }
    let scale = Scale::from_args();
    let report = exp_byzantine(scale);
    print_section(
        "BYZANTINE: adversarial containment within radius 2 on G(n, 8/n)",
        &report.to_pretty(),
    );
    let gate: Vec<String> = report
        .gate_rows()
        .map(|r| {
            format!(
                "{}/{}: contained in {} rounds, residual {:.2e}",
                r.algorithm, r.strategy, r.rounds_to_containment, r.residual_fraction
            )
        })
        .collect();
    println!(
        "containment at f = {} (random placement): {}",
        report.gate_fraction,
        gate.join("; ")
    );

    print_section(
        "BYZANTINE x CHURN: adaptive adversary under JoinLeave bursts",
        &report.churn_to_pretty(),
    );

    let json = report.to_json();
    write_report(scale, "exp_byzantine.json", "BENCH_byzantine.json", &json);

    let mut failed = false;
    if !report.gate_passes() {
        eprintln!(
            "GATE FAILED: a (process, strategy) pair did not contain a {}% Byzantine \
             placement within the round budget",
            report.gate_fraction * 100.0
        );
        failed = true;
    }
    if !report.all_valid() {
        eprintln!(
            "GATE FAILED: a trial ended uncontained or on an invalid MIS outside its \
             Byzantine zone"
        );
        failed = true;
    }
    if !report.churn_gate_passes() {
        eprintln!(
            "GATE FAILED: an adaptive-adversary-under-churn trial did not re-contain \
             its (re-sampled) Byzantine set or ended on an invalid MIS outside it"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
