//! E8 — Lemma 27: run-length properties (S1)–(S3) of the randomized
//! logarithmic switch.
//!
//! Usage: `cargo run --release -p mis-bench --bin exp_e8_log_switch [-- --quick]`
//!
//! Exits non-zero if (S1) fails on any graph or (S3) fails on a diameter-≤2
//! graph. (S2) is reported but not gated: it holds w.h.p. only as `n`
//! grows, and these sizes can miss it.

use mis_bench::experiments::structure::{e8_log_switch, switch_csv};
use mis_bench::report::{print_section, write_results_file};
use mis_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    let rows = e8_log_switch(scale);
    let csv = switch_csv(&rows);
    print_section(
        "E8: randomized logarithmic switch run lengths (Lemma 27: off-runs ≤ a ln n everywhere; on diam ≤ 2 graphs off-runs ≥ (a/6) ln n and on-runs ≤ 3)",
        &csv,
    );
    if let Ok(path) = write_results_file("e8_log_switch.csv", &csv) {
        println!("wrote {}", path.display());
    }

    let failed: Vec<_> = rows
        .iter()
        .filter(|r| !(r.s1_holds() && r.s3_holds()))
        .collect();
    for r in &failed {
        eprintln!(
            "GATE FAILED: {}: max_off_run={} (S1 bound {:.1}), max_on_run_after_sync={} (S3 bound 3 on diameter <= 2: {})",
            r.graph, r.max_off_run, r.s1_bound, r.max_on_run_after_sync, r.diameter_at_most_2
        );
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
