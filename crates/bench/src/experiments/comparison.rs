//! Comparison and robustness experiments: baselines (E10) and
//! transient-fault recovery (E11).

use mis_core::init::InitStrategy;
use mis_core::{AlgorithmConfig, RoundStrategy, Synchronous};
use mis_graph::{mis_check, Graph};
use mis_sim::runner::{run_experiment, COUNTER_SEED_SALT};
use mis_sim::spec::{ExecutionMode, ExperimentSpec, FaultSpec, GraphSpec};
use mis_sim::stats::Summary;
use mis_sim::{builtin_registry, drive_algorithm, EventLogObserver};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::Scale;

/// One row of the E10 comparison table: one algorithm on one graph family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineRow {
    /// Graph family label.
    pub graph: String,
    /// Algorithm label.
    pub algorithm: String,
    /// Whether the algorithm is self-stabilizing (starts from arbitrary states).
    pub self_stabilizing: bool,
    /// States per vertex (`usize::MAX` rendered as "unbounded" for Luby,
    /// whose per-round messages are fresh `Θ(log n)`-bit values).
    pub states_per_vertex: usize,
    /// Summary of rounds to completion / stabilization.
    pub rounds: Summary,
    /// Summary of total random bits consumed.
    pub random_bits: Summary,
    /// Summary of the produced MIS sizes.
    pub mis_size: Summary,
}

/// E10 — resource comparison of the paper's processes against Luby's
/// algorithm and the random-priority self-stabilizing baseline, on a sparse
/// `G(n,p)`, a random tree, and a clique.
///
/// The headline the experiment reproduces: the paper's processes pay a
/// polylog-factor more rounds than Luby but use only 2–18 states and ~1
/// random bit per active vertex per round, while remaining self-stabilizing.
pub fn e10_baselines(scale: Scale) -> Vec<BaselineRow> {
    let n = match scale {
        Scale::Quick => 128,
        Scale::Full => 1024,
    };
    let trials = scale.trials(32);
    let graphs = vec![
        (
            "gnp-sparse".to_string(),
            GraphSpec::Gnp {
                n,
                p: 8.0 / n as f64,
            },
        ),
        ("tree".to_string(), GraphSpec::RandomTree { n }),
        ("complete".to_string(), GraphSpec::Complete { n: n / 4 }),
    ];
    let algorithms = vec![
        ("two-state", true),
        ("three-state", true),
        ("three-color", true),
        ("random-priority", true),
        ("luby", false),
        ("greedy", false),
        ("sequential-selfstab", true),
    ];

    let mut rows = Vec::new();
    for (graph_label, graph) in &graphs {
        for &(algorithm, self_stabilizing) in &algorithms {
            let spec = ExperimentSpec {
                name: format!("e10-{graph_label}-{algorithm}"),
                graph: *graph,
                algorithm: algorithm.to_string(),
                init: InitStrategy::Random,
                execution: ExecutionMode::Sequential,
                trials,
                max_rounds: 1_000_000,
                base_seed: 1000,
                record_trace: false,
                ..ExperimentSpec::default()
            };
            let result = run_experiment(&spec);
            let states = result.trials.first().map_or(0, |t| t.states_per_vertex);
            rows.push(BaselineRow {
                graph: graph_label.clone(),
                algorithm: algorithm.to_string(),
                self_stabilizing,
                states_per_vertex: states,
                rounds: result.rounds_summary(),
                random_bits: result.random_bits_summary(),
                mis_size: result.mis_size_summary(),
            });
        }
    }
    rows
}

/// Renders the E10 rows as CSV.
pub fn baselines_csv(rows: &[BaselineRow]) -> String {
    let mut out = String::from(
        "graph,algorithm,self_stabilizing,states_per_vertex,rounds_mean,rounds_p90,random_bits_mean,mis_size_mean\n",
    );
    for r in rows {
        let states = if r.states_per_vertex == usize::MAX {
            "unbounded".to_string()
        } else {
            r.states_per_vertex.to_string()
        };
        out.push_str(&format!(
            "{},{},{},{},{:.1},{:.1},{:.0},{:.1}\n",
            r.graph,
            r.algorithm,
            r.self_stabilizing,
            states,
            r.rounds.mean,
            r.rounds.p90,
            r.random_bits.mean,
            r.mis_size.mean
        ));
    }
    out
}

/// One row of the E11 fault-recovery table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryRow {
    /// Process label ("two-state" or "three-color").
    pub process: String,
    /// Fraction of vertex states corrupted.
    pub fraction: f64,
    /// Summary of rounds needed to stabilize initially.
    pub initial_rounds: Summary,
    /// Summary of rounds needed to re-stabilize after the fault.
    pub recovery_rounds: Summary,
    /// Fraction of trials that recovered to a valid MIS (must be 1.0).
    pub recovered_fraction: f64,
}

/// One fault-recovery run: `key` from a random start on `graph`, driven
/// with [`FaultSpec::after_stabilization`]`(fraction)` on the trial stream
/// seeded by `seed`. Returns the initial stabilization rounds (the round of
/// the fault event), the recovery rounds after it, and whether the run
/// ended in a valid MIS.
///
/// # Panics
///
/// Panics if the process does not stabilize within the round budget, so
/// the fault never fires.
fn recovery_run(key: &str, graph: &Graph, fraction: f64, seed: u64) -> (usize, usize, bool) {
    let factory = builtin_registry().get(key).expect("registry key");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let config = AlgorithmConfig {
        init: InitStrategy::Random,
        execution: ExecutionMode::Sequential,
        strategy: RoundStrategy::Auto,
        counter_seed: seed ^ COUNTER_SEED_SALT,
    };
    let mut alg = factory.init(graph, &config, &mut rng);
    let mut log = EventLogObserver::new();
    let out = drive_algorithm(
        alg.as_mut(),
        &mut Synchronous,
        &mut rng,
        2_000_000,
        Some(FaultSpec::after_stabilization(fraction)),
        None,
        None,
        &mut [&mut log],
    );
    let (initial_rounds, _) = log.first_fault().expect("initial stabilization failed");
    let valid = out.stabilized && mis_check::is_mis(graph, &out.black_set);
    (initial_rounds, out.rounds - initial_rounds, valid)
}

/// E11 — self-stabilization under transient faults: stabilize, corrupt a
/// fraction of the vertices' memory ([`FaultSpec`] through
/// `drive_algorithm`), and measure re-stabilization time. Recovery from a
/// small corruption should be no slower than stabilizing from scratch (and
/// typically much faster).
pub fn e11_fault_recovery(scale: Scale) -> Vec<RecoveryRow> {
    let n = match scale {
        Scale::Quick => 150,
        Scale::Full => 1000,
    };
    let trials = scale.trials(24);
    let fractions = match scale {
        Scale::Quick => vec![0.1, 0.5],
        Scale::Full => vec![0.01, 0.05, 0.1, 0.25, 0.5, 1.0],
    };
    let mut rows = Vec::new();
    let mut seed = 2000u64;
    for &fraction in &fractions {
        // 2-state on a sparse G(n,p).
        let mut initial = Vec::new();
        let mut recovery = Vec::new();
        let mut recovered = 0usize;
        for t in 0..trials {
            let mut rng = ChaCha8Rng::seed_from_u64(seed + t as u64);
            let g = mis_graph::generators::gnp(n, 8.0 / n as f64, &mut rng);
            let (init, rec, valid) = recovery_run("two-state", &g, fraction, seed + 100 + t as u64);
            initial.push(init);
            recovery.push(rec);
            recovered += usize::from(valid);
        }
        rows.push(RecoveryRow {
            process: "two-state".into(),
            fraction,
            initial_rounds: Summary::from_counts(initial),
            recovery_rounds: Summary::from_counts(recovery),
            recovered_fraction: recovered as f64 / trials as f64,
        });
        seed += 500;

        // 3-color on a denser G(n,p).
        let mut initial = Vec::new();
        let mut recovery = Vec::new();
        let mut recovered = 0usize;
        for t in 0..trials {
            let mut rng = ChaCha8Rng::seed_from_u64(seed + t as u64);
            let g = mis_graph::generators::gnp(n, 0.2, &mut rng);
            let (init, rec, valid) =
                recovery_run("three-color", &g, fraction, seed + 100 + t as u64);
            initial.push(init);
            recovery.push(rec);
            recovered += usize::from(valid);
        }
        rows.push(RecoveryRow {
            process: "three-color".into(),
            fraction,
            initial_rounds: Summary::from_counts(initial),
            recovery_rounds: Summary::from_counts(recovery),
            recovered_fraction: recovered as f64 / trials as f64,
        });
        seed += 500;
    }
    rows
}

/// Renders the E11 rows as CSV.
pub fn recovery_csv(rows: &[RecoveryRow]) -> String {
    let mut out = String::from(
        "process,fraction,initial_rounds_mean,recovery_rounds_mean,recovery_rounds_p90,recovered_fraction\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.1},{:.1},{:.1},{:.3}\n",
            r.process,
            r.fraction,
            r.initial_rounds.mean,
            r.recovery_rounds.mean,
            r.recovery_rounds.p90,
            r.recovered_fraction
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_quick_produces_all_rows_and_luby_wins_on_rounds() {
        let rows = e10_baselines(Scale::Quick);
        assert_eq!(rows.len(), 21); // 3 graphs x 7 algorithms
        let csv = baselines_csv(&rows);
        assert_eq!(csv.lines().count(), 22);

        // On the sparse G(n,p), Luby should need no more rounds (on average)
        // than the 2-state process — the "who wins" shape of the comparison.
        let luby = rows
            .iter()
            .find(|r| r.graph == "gnp-sparse" && r.algorithm == "luby")
            .unwrap();
        let two = rows
            .iter()
            .find(|r| r.graph == "gnp-sparse" && r.algorithm == "two-state")
            .unwrap();
        assert!(luby.rounds.mean <= two.rounds.mean);
        // ...but the 2-state process uses only 2 states per vertex.
        assert_eq!(two.states_per_vertex, 2);
        assert!(two.self_stabilizing && !luby.self_stabilizing);
    }

    #[test]
    fn e11_quick_every_trial_recovers() {
        let rows = e11_fault_recovery(Scale::Quick);
        assert_eq!(rows.len(), 4);
        assert!(
            rows.iter()
                .all(|r| (r.recovered_fraction - 1.0).abs() < 1e-9),
            "rows: {rows:?}"
        );
        let csv = recovery_csv(&rows);
        assert_eq!(csv.lines().count(), 5);
    }
}
