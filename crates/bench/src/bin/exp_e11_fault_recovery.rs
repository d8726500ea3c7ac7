//! E11 — self-stabilization under transient faults: corrupt a fraction of
//! the vertex states after stabilization and measure re-stabilization time.
//!
//! Exits non-zero if any row has a run that did not recover to a valid MIS.
//!
//! Usage: `cargo run --release -p mis-bench --bin exp_e11_fault_recovery [-- --quick]`

use mis_bench::experiments::comparison::{e11_fault_recovery, recovery_csv};
use mis_bench::report::{print_section, write_results_file};
use mis_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    let rows = e11_fault_recovery(scale);
    let csv = recovery_csv(&rows);
    print_section(
        "E11: transient-fault recovery (every run must end in a valid MIS; small corruptions recover faster than full restarts)",
        &csv,
    );
    if let Ok(path) = write_results_file("e11_fault_recovery.csv", &csv) {
        println!("wrote {}", path.display());
    }

    let failed: Vec<_> = rows.iter().filter(|r| r.recovered_fraction < 1.0).collect();
    for r in &failed {
        eprintln!(
            "GATE FAILED: {} at fraction {}: recovered_fraction={}",
            r.process, r.fraction, r.recovered_fraction
        );
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
