//! Integration tests of the experiment harness itself: specifications are
//! reproducible, sweeps produce well-formed CSV, and the quick scale of every
//! experiment runs end to end.
//!
//! (The per-experiment assertions live in `crates/bench`; here we only check
//! that the harness wiring — spec → runner → sweep → CSV — holds together
//! across crates.)

use selfstab_mis::core::init::InitStrategy;
use selfstab_mis::sim::runner::run_experiment;
use selfstab_mis::sim::spec::{ExecutionMode, ExperimentSpec, GraphSpec};
use selfstab_mis::sim::sweep::{row_from_result, run_sweep, SweepTable};

fn spec(graph: GraphSpec, algorithm: &str) -> ExperimentSpec {
    ExperimentSpec {
        name: "integration".into(),
        graph,
        algorithm: algorithm.to_string(),
        init: InitStrategy::Random,
        execution: ExecutionMode::Sequential,
        trials: 5,
        max_rounds: 1_000_000,
        base_seed: 123,
        record_trace: true,
        ..ExperimentSpec::default()
    }
}

#[test]
fn experiment_results_are_reproducible_and_validated() {
    let s = spec(GraphSpec::Gnp { n: 80, p: 0.08 }, "two-state");
    let a = run_experiment(&s);
    let b = run_experiment(&s);
    assert_eq!(a, b, "same spec must give identical results");
    assert!(a.all_stabilized() && a.all_valid());
    for t in &a.trials {
        assert_eq!(t.n, 80);
        assert!(t.valid_mis);
        let trace = t.trace.as_ref().unwrap();
        assert_eq!(trace.len(), t.rounds + 1);
        assert_eq!(trace.counts.last().unwrap().unstable, 0);
    }
}

#[test]
fn sweep_over_sizes_produces_consistent_table() {
    let table: SweepTable = run_sweep(
        [32usize, 64, 128]
            .into_iter()
            .map(|n| (n as f64, spec(GraphSpec::RandomTree { n }, "two-state"))),
    );
    assert_eq!(table.rows.len(), 3);
    for row in &table.rows {
        assert_eq!(row.stabilized_fraction, 1.0);
        assert!(row.rounds.mean >= 1.0);
        assert!(row.mis_size.mean >= 1.0);
    }
    let csv = table.to_csv();
    assert_eq!(csv.lines().count(), 4);
    // 12 columns including the execution_mode/threads self-description.
    assert!(csv.lines().all(|l| l.split(',').count() == 12));
    assert!(csv.lines().skip(1).all(|l| l.contains(",sequential,1,")));
}

#[test]
fn representative_registry_keys_run_through_the_harness() {
    for algorithm in [
        "two-state",
        "three-state",
        "three-color",
        "luby",
        "random-priority",
    ] {
        let result = run_experiment(&spec(GraphSpec::Complete { n: 24 }, algorithm));
        assert!(result.all_stabilized(), "{algorithm}");
        assert!(result.all_valid(), "{algorithm}");
        // On a clique every MIS has size exactly 1.
        assert!(result.trials.iter().all(|t| t.mis_size == 1), "{algorithm}");
        let row = row_from_result(24.0, &result);
        assert_eq!(row.process_label, algorithm);
    }
}

#[test]
fn json_round_trip_of_experiment_results() {
    let result = run_experiment(&spec(GraphSpec::Star { n: 30 }, "three-state"));
    let json = serde_json::to_string(&result).unwrap();
    let back: selfstab_mis::sim::runner::ExperimentResult = serde_json::from_str(&json).unwrap();
    assert_eq!(result, back);
}
