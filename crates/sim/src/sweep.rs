//! Parameter sweeps: run the same experiment across a range of graph sizes
//! or densities and tabulate the results (one row per parameter value).
//!
//! The experiment binaries in `crates/bench` use these helpers to print
//! their tables (see README's "Running experiments").

use serde::{Deserialize, Serialize};

use crate::runner::{run_experiment, ExperimentResult};
use crate::spec::ExperimentSpec;
use crate::stats::Summary;

/// One row of a sweep table: the parameter value and the summaries of the
/// experiment run at that value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// The swept parameter value (e.g. `n` or `p`).
    pub parameter: f64,
    /// Label of the graph family at this point.
    pub graph_label: String,
    /// Registry key of the algorithm that ran.
    pub process_label: String,
    /// Execution mode of the engine processes (`sequential` / `parallel`).
    pub execution_mode: String,
    /// Worker threads per round (1 in sequential mode).
    pub threads: usize,
    /// Fraction of trials that stabilized within the budget.
    pub stabilized_fraction: f64,
    /// Summary of stabilization times (rounds).
    pub rounds: Summary,
    /// Summary of MIS sizes.
    pub mis_size: Summary,
    /// Summary of random bits used.
    pub random_bits: Summary,
}

/// A completed sweep: a list of rows in sweep order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SweepTable {
    /// Rows in the order the parameter values were supplied.
    pub rows: Vec<SweepRow>,
}

impl SweepTable {
    /// Renders the table as CSV (with header), suitable for plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "parameter,graph,process,execution_mode,threads,stabilized_fraction,rounds_mean,rounds_median,rounds_p90,rounds_max,mis_size_mean,random_bits_mean\n",
        );
        for row in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{:.3},{:.2},{:.2},{:.2},{:.0},{:.2},{:.0}\n",
                row.parameter,
                row.graph_label,
                row.process_label,
                row.execution_mode,
                row.threads,
                row.stabilized_fraction,
                row.rounds.mean,
                row.rounds.median,
                row.rounds.p90,
                row.rounds.max,
                row.mis_size.mean,
                row.random_bits.mean,
            ));
        }
        out
    }

    /// Renders a human-readable fixed-width table for terminal output.
    pub fn to_pretty(&self) -> String {
        let mut out = format!(
            "{:>12} {:>26} {:>16} {:>8} {:>10} {:>10} {:>10}\n",
            "param", "graph", "process", "ok", "mean", "median", "p90"
        );
        for row in &self.rows {
            out.push_str(&format!(
                "{:>12} {:>26} {:>16} {:>7.0}% {:>10.1} {:>10.1} {:>10.1}\n",
                row.parameter,
                row.graph_label,
                row.process_label,
                100.0 * row.stabilized_fraction,
                row.rounds.mean,
                row.rounds.median,
                row.rounds.p90,
            ));
        }
        out
    }
}

/// Converts one experiment result into a sweep row tagged with `parameter`.
pub fn row_from_result(parameter: f64, result: &ExperimentResult) -> SweepRow {
    let stabilized = result.trials.iter().filter(|t| t.stabilized).count();
    SweepRow {
        parameter,
        graph_label: result.spec.graph.label(),
        process_label: result.spec.algorithm_key().to_string(),
        execution_mode: result.spec.execution.label().to_string(),
        threads: result.spec.execution.threads(),
        stabilized_fraction: if result.trials.is_empty() {
            0.0
        } else {
            stabilized as f64 / result.trials.len() as f64
        },
        rounds: result.rounds_summary(),
        mis_size: result.mis_size_summary(),
        random_bits: result.random_bits_summary(),
    }
}

/// Runs one experiment per `(parameter, spec)` pair and collects the rows.
///
/// The caller supplies fully formed specs (typically produced by a closure
/// over the parameter), which keeps the sweep logic independent of which
/// field is being swept.
pub fn run_sweep<I>(points: I) -> SweepTable
where
    I: IntoIterator<Item = (f64, ExperimentSpec)>,
{
    let rows = points
        .into_iter()
        .map(|(parameter, spec)| {
            let result = run_experiment(&spec);
            row_from_result(parameter, &result)
        })
        .collect();
    SweepTable { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GraphSpec;
    use mis_core::init::InitStrategy;
    use mis_core::ExecutionMode;

    fn spec_for_n(n: usize) -> ExperimentSpec {
        ExperimentSpec {
            name: format!("sweep-n-{n}"),
            graph: GraphSpec::Complete { n },
            algorithm: "two-state".into(),
            init: InitStrategy::Random,
            execution: ExecutionMode::Sequential,
            trials: 4,
            max_rounds: 100_000,
            base_seed: 5,
            record_trace: false,
            ..ExperimentSpec::default()
        }
    }

    /// One trial of the two-state process on a sparse `G(n, d̄/n)`.
    fn gnp_point(
        n: usize,
        avg_degree: f64,
        execution: ExecutionMode,
        base_seed: u64,
    ) -> (f64, ExperimentSpec) {
        let spec = ExperimentSpec {
            name: format!("sweep-gnp-{n}"),
            graph: GraphSpec::Gnp {
                n,
                p: avg_degree / n as f64,
            },
            algorithm: "two-state".into(),
            init: InitStrategy::Random,
            execution,
            trials: 1,
            max_rounds: 1_000_000,
            base_seed,
            record_trace: false,
            ..ExperimentSpec::default()
        };
        (n as f64, spec)
    }

    #[test]
    fn sweep_produces_one_row_per_point() {
        let table = run_sweep(
            [8usize, 16, 32]
                .into_iter()
                .map(|n| (n as f64, spec_for_n(n))),
        );
        assert_eq!(table.rows.len(), 3);
        assert!(table.rows.iter().all(|r| r.stabilized_fraction == 1.0));
        assert!(table.rows.iter().all(|r| r.rounds.count == 4));
    }

    #[test]
    fn csv_and_pretty_have_expected_shape() {
        let table = run_sweep([(8.0, spec_for_n(8))]);
        let csv = table.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("parameter,"));
        assert!(csv.contains("complete(n=8)"));
        // The CSV is self-describing about how the rows were executed.
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .contains("execution_mode,threads"));
        assert!(csv.contains(",sequential,1,"));
        let pretty = table.to_pretty();
        assert_eq!(pretty.lines().count(), 2);
        assert!(pretty.contains("two-state"));
    }

    #[test]
    fn empty_sweep_is_fine() {
        let table = run_sweep(std::iter::empty());
        assert!(table.rows.is_empty());
        assert_eq!(table.to_csv().lines().count(), 1);
    }

    #[test]
    fn parallel_sweep_rows_record_their_execution() {
        let table = run_sweep([gnp_point(
            3_000,
            4.0,
            ExecutionMode::Parallel { threads: 2 },
            33,
        )]);
        assert_eq!(table.rows[0].execution_mode, "parallel");
        assert_eq!(table.rows[0].threads, 2);
        assert_eq!(table.rows[0].stabilized_fraction, 1.0);
        assert!(table.to_csv().contains(",parallel,2,"));
    }

    /// Large-n scale sweep end-to-end: a 40k-vertex sparse point runs to a
    /// valid MIS well within the debug-build test budget thanks to the
    /// activity-proportional round engine.
    #[test]
    fn large_n_scale_sweep_runs_quickly() {
        let table = run_sweep([gnp_point(40_000, 6.0, ExecutionMode::Sequential, 21)]);
        assert_eq!(table.rows.len(), 1);
        assert_eq!(table.rows[0].stabilized_fraction, 1.0);
    }
}
