//! Churn experiment (`exp_churn`): incremental re-stabilization of the
//! live-mutation engine vs a cold restart, on large sparse `G(n, 8/n)`.
//!
//! The live-mutation path exists so that a dynamic graph does not force a
//! from-scratch re-run: after a churn burst, `apply_mutation` delta-updates
//! the black-neighbor counters and seeds the pending frontier with exactly
//! the vertices the burst disturbed, so the process re-stabilizes from its
//! surviving configuration. This experiment quantifies the payoff. For each
//! paper process (2-state, 3-state, 3-color) and each churn fraction `f`:
//!
//! 1. stabilize from a random initial configuration (`initial_rounds`);
//! 2. hit the stabilized process with one Poisson edge-churn burst of
//!    expected volume `f·m` removals plus `f·m` insertions
//!    ([`mis_sim::generate_burst`], the same generator the experiment
//!    runner's `ChurnSpec` path uses);
//! 3. drive the mutated process to re-stabilization and record the extra
//!    rounds (`incremental_rounds`);
//! 4. build a fresh process on the *mutated* graph from a random initial
//!    configuration and record its rounds to stabilization
//!    (`restart_rounds`).
//!
//! The headline claim — and the CI gate — is that after a small burst
//! (`f = 1%`), `incremental_rounds < restart_rounds` for all three
//! processes: local damage heals locally, while a restart pays the full
//! start-up cost again. Larger fractions chart how the advantage degrades
//! as the burst approaches a full topology replacement.

use mis_core::init::InitStrategy;
use mis_core::{AlgorithmConfig, ExecutionMode, RoundStrategy};
use mis_graph::{generators, mis_check};
use mis_sim::spec::ChurnScenario;
use mis_sim::{builtin_registry, generate_burst};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::Scale;

/// The three paper processes the experiment compares.
pub const ENGINE_PROCESSES: [&str; 3] = ["two-state", "three-state", "three-color"];

/// The churn fraction the CI gate checks (a "small" burst).
pub const GATE_FRACTION: f64 = 0.01;

/// Round budget per phase; the engine processes stabilize in polylog
/// rounds on sparse `G(n,p)`, so hitting this means something is broken.
const MAX_ROUNDS: usize = 1_000_000;

/// One measurement: one process, one churn fraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnRow {
    /// Registry key of the process.
    pub algorithm: String,
    /// Requested churn fraction `f` (expected `f·m` removals + `f·m`
    /// insertions).
    pub fraction: f64,
    /// Vertices of the (static-population) graph.
    pub n: usize,
    /// Edges before the burst.
    pub m: usize,
    /// Edges actually inserted by the burst.
    pub edges_inserted: usize,
    /// Edges actually removed by the burst.
    pub edges_removed: usize,
    /// Rounds to stabilize from the random initial configuration.
    pub initial_rounds: usize,
    /// Extra rounds the mutated process needed to re-stabilize.
    pub incremental_rounds: usize,
    /// Rounds a fresh process needed on the mutated graph.
    pub restart_rounds: usize,
    /// `restart_rounds / max(incremental_rounds, 1)`.
    pub round_speedup: f64,
    /// Whether the incremental path ended on a valid MIS of the mutated
    /// graph (must always hold).
    pub incremental_valid_mis: bool,
}

/// The full report of the churn experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnReport {
    /// Average degree `d̄` of the sparse `G(n, d̄/n)` family.
    pub avg_degree: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// The churn fraction the gate checks.
    pub gate_fraction: f64,
    /// One row per (process, fraction).
    pub rows: Vec<ChurnRow>,
}

impl ChurnReport {
    /// The rows measured at the gate fraction.
    pub fn gate_rows(&self) -> impl Iterator<Item = &ChurnRow> {
        let gate = self.gate_fraction;
        self.rows
            .iter()
            .filter(move |r| (r.fraction - gate).abs() < 1e-12)
    }

    /// `true` if, at the gate fraction, every process re-stabilized
    /// incrementally in strictly fewer rounds than a cold restart.
    pub fn gate_passes(&self) -> bool {
        let mut saw_any = false;
        for row in self.gate_rows() {
            saw_any = true;
            if row.incremental_rounds >= row.restart_rounds {
                return false;
            }
        }
        saw_any
    }

    /// `true` if every incremental run ended on a valid MIS of its mutated
    /// graph.
    pub fn all_valid(&self) -> bool {
        self.rows.iter().all(|r| r.incremental_valid_mis)
    }

    /// Renders a human-readable fixed-width table.
    pub fn to_pretty(&self) -> String {
        let mut out = format!(
            "{:>12} {:>9} {:>9} {:>7} {:>7} {:>8} {:>12} {:>9} {:>9} {:>6}\n",
            "process",
            "fraction",
            "m",
            "+edges",
            "-edges",
            "initial",
            "incremental",
            "restart",
            "speedup",
            "valid"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:>12} {:>9} {:>9} {:>7} {:>7} {:>8} {:>12} {:>9} {:>8.1}x {:>6}\n",
                r.algorithm,
                r.fraction,
                r.m,
                r.edges_inserted,
                r.edges_removed,
                r.initial_rounds,
                r.incremental_rounds,
                r.restart_rounds,
                r.round_speedup,
                if r.incremental_valid_mis {
                    "ok"
                } else {
                    "FAIL"
                },
            ));
        }
        out
    }

    /// Serializes the report as pretty JSON.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (it cannot for this type).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ChurnReport serializes")
    }
}

/// Runs the churn measurement at one graph size for every engine process
/// and every churn fraction.
///
/// # Panics
///
/// Panics if any phase fails to stabilize within 1,000,000 rounds, or if a
/// generated burst is rejected by `apply_mutation` (both indicate a bug).
pub fn churn_measurement(n: usize, avg_degree: f64, fractions: &[f64], seed: u64) -> ChurnReport {
    let registry = builtin_registry();
    // Counter-based parallel generation: at n = 10^6 the graph setup, not
    // the rounds, dominates wall-clock; the keyed per-row streams make the
    // sample independent of the worker-thread count.
    let g = generators::gnp_counter(n, avg_degree / n as f64, seed ^ n as u64);
    let mut rows = Vec::new();
    for key in ENGINE_PROCESSES {
        let factory = registry
            .get(key)
            .unwrap_or_else(|| panic!("registry is missing engine process '{key}'"));
        for (fi, &fraction) in fractions.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(
                seed ^ (fi as u64) << 8 ^ key.len() as u64 ^ key.as_bytes()[0] as u64,
            );
            let config = AlgorithmConfig {
                init: InitStrategy::Random,
                execution: ExecutionMode::Sequential,
                strategy: RoundStrategy::Auto,
                counter_seed: seed,
            };

            // Phase 1: stabilize from scratch on the pristine graph.
            let mut alg = factory.init(&g, &config, &mut rng);
            while !alg.is_stabilized() && alg.round() < MAX_ROUNDS {
                alg.step(&mut rng);
            }
            assert!(alg.is_stabilized(), "{key} did not stabilize initially");
            let initial_rounds = alg.round();

            // Phase 2: one edge-churn burst against the live process.
            let delta = {
                let graph = alg.current_graph().expect("engine process has a graph");
                generate_burst(ChurnScenario::EdgeChurn { fraction }, graph, &mut rng)
            };
            let committed = alg
                .apply_mutation(&delta)
                .expect("edge-churn burst is valid for the live graph");

            // Phase 3: incremental re-stabilization.
            let round_at_burst = alg.round();
            while !alg.is_stabilized() && alg.round() < round_at_burst + MAX_ROUNDS {
                alg.step(&mut rng);
            }
            assert!(
                alg.is_stabilized(),
                "{key} did not re-stabilize after churn"
            );
            let incremental_rounds = alg.round() - round_at_burst;
            let mutated = alg
                .current_graph()
                .expect("engine process has a graph")
                .clone();
            let incremental_valid_mis = mis_check::is_mis(&mutated, &alg.black_set());
            drop(alg);

            // Phase 4: cold restart on the mutated graph.
            let mut restart_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xCC ^ fi as u64);
            let mut fresh = factory.init(&mutated, &config, &mut restart_rng);
            while !fresh.is_stabilized() && fresh.round() < MAX_ROUNDS {
                fresh.step(&mut restart_rng);
            }
            assert!(fresh.is_stabilized(), "{key} restart did not stabilize");
            let restart_rounds = fresh.round();

            rows.push(ChurnRow {
                algorithm: key.to_string(),
                fraction,
                n,
                m: g.m(),
                edges_inserted: committed.inserted.len(),
                edges_removed: committed.removed.len(),
                initial_rounds,
                incremental_rounds,
                restart_rounds,
                round_speedup: restart_rounds as f64 / (incremental_rounds.max(1)) as f64,
                incremental_valid_mis,
            });
        }
    }
    ChurnReport {
        avg_degree,
        seed,
        gate_fraction: GATE_FRACTION,
        rows,
    }
}

/// The `exp_churn` experiment at the given [`Scale`]: sparse `G(n, 8/n)` at
/// `n = 10⁵` with the gate fraction only (quick/CI), or `n = 10⁶` across a
/// fraction sweep (full).
pub fn exp_churn(scale: Scale) -> ChurnReport {
    let (n, fractions): (usize, &[f64]) = match scale {
        Scale::Quick => (100_000, &[GATE_FRACTION]),
        Scale::Full => (1_000_000, &[0.001, GATE_FRACTION, 0.05, 0.2]),
    };
    churn_measurement(n, 8.0, fractions, 20_260)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_measurement_produces_sane_rows() {
        // Tiny size keeps the debug-build test fast; the incremental-vs-
        // restart *gate* is the release binary's job, only the plumbing and
        // the invariants are asserted here.
        let report = churn_measurement(3_000, 6.0, &[GATE_FRACTION, 0.1], 77);
        assert_eq!(report.rows.len(), ENGINE_PROCESSES.len() * 2);
        assert!(report.all_valid(), "{}", report.to_pretty());
        assert_eq!(report.gate_rows().count(), ENGINE_PROCESSES.len());
        for row in &report.rows {
            assert_eq!(row.n, 3_000);
            assert!(row.m > 0);
            assert!(row.initial_rounds > 0);
            assert!(row.restart_rounds > 0);
            assert!(row.edges_inserted + row.edges_removed > 0);
            assert!(row.round_speedup > 0.0);
        }
        let json = report.to_json();
        let back: ChurnReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        assert_eq!(report.to_pretty().lines().count(), report.rows.len() + 1);
    }

    #[test]
    fn incremental_beats_restart_even_at_small_scale() {
        // The gate itself (quick scale is n = 10^5, too slow for a debug
        // test): already at n = 20k a 1% burst must heal faster than a
        // restart for every engine process.
        let report = churn_measurement(20_000, 8.0, &[GATE_FRACTION], 20_260);
        assert!(
            report.gate_passes(),
            "incremental >= restart:\n{}",
            report.to_pretty()
        );
    }
}
