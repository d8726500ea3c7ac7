//! Per-trial results and per-round traces.

use mis_core::StateCounts;
use serde::{Deserialize, Serialize};

/// The per-round evolution of the vertex partition of one trial, in the
/// notation of Section 2 of the paper (`|B_t|`, `|A_t|`, `|I_t|`, `|V_t|`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundTrace {
    /// `counts[t]` is the partition at the end of round `t` (index 0 is the
    /// initial configuration).
    pub counts: Vec<StateCounts>,
}

impl RoundTrace {
    /// Number of recorded rounds (including the initial configuration).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` if no rounds were recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

/// Outcome of a single trial (one process run on one graph from one seed).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialResult {
    /// Trial index within its experiment.
    pub trial: usize,
    /// Seed of the RNG stream that drove this trial.
    pub seed: u64,
    /// Number of vertices of the generated graph.
    pub n: usize,
    /// Number of edges of the generated graph.
    pub m: usize,
    /// Rounds until stabilization (equals `max_rounds` if it never stabilized).
    pub rounds: usize,
    /// Whether the process stabilized within the round budget.
    pub stabilized: bool,
    /// Whether the final black set is a maximal independent set (always
    /// checked; `false` only if `stabilized` is `false`).
    pub valid_mis: bool,
    /// Size of the final black set.
    pub mis_size: usize,
    /// Total random bits consumed by the process.
    pub random_bits: u64,
    /// States per vertex of the process that produced this result.
    pub states_per_vertex: usize,
    /// Optional per-round trace (only recorded when the experiment asked for it).
    pub trace: Option<RoundTrace>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(unstable: usize) -> StateCounts {
        StateCounts {
            unstable,
            ..StateCounts::default()
        }
    }

    #[test]
    fn trace_queries() {
        let trace = RoundTrace {
            counts: vec![counts(10), counts(4), counts(0)],
        };
        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());
        assert!(RoundTrace::default().is_empty());
    }

    #[test]
    fn trial_result_serializes() {
        let t = TrialResult {
            trial: 0,
            seed: 7,
            n: 10,
            m: 20,
            rounds: 15,
            stabilized: true,
            valid_mis: true,
            mis_size: 4,
            random_bits: 99,
            states_per_vertex: 2,
            trace: Some(RoundTrace {
                counts: vec![counts(3)],
            }),
        };
        let json = serde_json::to_string(&t).unwrap();
        let back: TrialResult = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
