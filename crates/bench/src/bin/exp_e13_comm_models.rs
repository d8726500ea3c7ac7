//! E13 — realizability in the beeping / stone age models: each engine
//! process is trace-equivalent to the reference round of its channel, which
//! updates every node from its own state and what it heard only.
//!
//! Usage: `cargo run --release -p mis-bench --bin exp_e13_comm_models [-- --quick]`
//!
//! Exits non-zero if any co-simulation diverges (states, random bits drawn,
//! or stabilization verdict in some round) or ends on an invalid MIS.

use mis_bench::experiments::lemmas::{comm_csv, e13_comm_models, e13_registry_harness};
use mis_bench::report::{print_section, write_results_file};
use mis_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    let rows = e13_comm_models(scale);
    let csv = comm_csv(&rows);
    print_section(
        "E13: co-simulation of each engine process against its beeping / stone-age reference round (traces must be identical)",
        &csv,
    );
    if let Ok(path) = write_results_file("e13_comm_models.csv", &csv) {
        println!("wrote {}", path.display());
    }

    // The weak-communication registry keys, driven end-to-end by the
    // shared scheduler/observer harness.
    let table = e13_registry_harness(scale);
    print_section(
        "E13b: communication models through the algorithm registry (run_experiment)",
        &table.to_pretty(),
    );
    if let Ok(path) = write_results_file("e13_registry_harness.csv", &table.to_csv()) {
        println!("wrote {}", path.display());
    }

    let failed: Vec<_> = rows
        .iter()
        .filter(|r| !(r.traces_identical && r.valid_mis))
        .collect();
    for r in &failed {
        eprintln!(
            "GATE FAILED: {} on {}: traces_identical={} valid_mis={}",
            r.adaptation, r.graph, r.traces_identical, r.valid_mis
        );
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
