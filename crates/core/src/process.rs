use std::error::Error;
use std::fmt;

use mis_graph::VertexSet;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Error returned by [`Process::run_to_stabilization`] when the process did
/// not stabilize within the allowed number of rounds.
///
/// All processes in this crate stabilize with probability 1, so hitting this
/// error in practice means either the round budget was too small for the
/// graph or the process is being run on an adversarially chosen budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StabilizationTimeout {
    /// Number of rounds executed before giving up.
    pub rounds_executed: usize,
}

impl fmt::Display for StabilizationTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "process did not stabilize within {} rounds",
            self.rounds_executed
        )
    }
}

impl Error for StabilizationTimeout {}

/// Per-round summary of the vertex partition maintained by a process, using
/// the notation of Section 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StateCounts {
    /// `|B_t|` — vertices currently black.
    pub black: usize,
    /// `|W_t|` (plus gray vertices in the 3-color process) — vertices not black.
    pub non_black: usize,
    /// `|A_t|` — active vertices (those that will re-randomize next round).
    pub active: usize,
    /// `|I_t|` — stable black vertices (black with no black neighbor).
    pub stable_black: usize,
    /// `|V_t|` — vertices that are not yet stable.
    pub unstable: usize,
}

/// A synchronous, self-stabilizing graph process computing an MIS.
///
/// Implementations update all vertex states in parallel each [`step`]
/// (Section 2 of the paper) and expose the evolving vertex partitions that
/// the analysis reasons about. A process is **stabilized** when every vertex
/// is stable, at which point the set of black vertices is a maximal
/// independent set of the underlying graph and no state changes any more.
///
/// # Per-round complexity contract
///
/// The processes of this crate are [`RuleProcess`](crate::RuleProcess)es,
/// whose round drivers run on the incremental [`engine`](crate::engine):
/// [`step`] costs `O(|A_t| + vol(A_t))` — the
/// number of frontier vertices plus the degree sum of the vertices that
/// changed — **not** `O(n + m)`, and [`is_stabilized`] and [`counts`] are
/// `O(1)` reads of cached counters. Once a region of the graph is quiet, no
/// work happens there; a fully stabilized 2-state instance steps in
/// (near-)constant time. (A 3-color round adds its logarithmic switch, a
/// phase clock stepped incrementally: one coin per level-5 vertex, the max
/// rule at the vertices a level change may have moved, the neighbor lists
/// of the movers, and `n/64` bitset words, while gray vertices wait off the
/// frontier until their switch turns on. The 3-state process keeps its
/// stable black vertices alternating by definition, so its steady state
/// costs `O(|I_t| + vol(I_t))`.) The set-returning accessors
/// ([`black_set`], [`active_set`], …) materialize a bitset and remain
/// `O(n)`.
///
/// [`step`]: Process::step
/// [`is_stabilized`]: Process::is_stabilized
/// [`counts`]: Process::counts
/// [`black_set`]: Process::black_set
/// [`active_set`]: Process::active_set
pub trait Process {
    /// Number of vertices of the underlying graph.
    fn n(&self) -> usize;

    /// Number of rounds executed so far (the `t` of the paper; 0 initially).
    fn round(&self) -> usize;

    /// Executes one synchronous round, updating every vertex in parallel.
    fn step(&mut self, rng: &mut dyn RngCore);

    /// Returns `true` if every vertex is stable (the black set is an MIS and
    /// no state will ever change again).
    fn is_stabilized(&self) -> bool;

    /// The current set of black vertices `B_t`.
    fn black_set(&self) -> VertexSet;

    /// The current set of active vertices `A_t` (vertices that will draw a
    /// random state in the next round).
    fn active_set(&self) -> VertexSet;

    /// The current set of stable black vertices `I_t` (black vertices with no
    /// black neighbor). `I_t` is always an independent set and a subset of
    /// the final MIS.
    fn stable_black_set(&self) -> VertexSet;

    /// The current set of non-stable vertices `V_t = V \ N⁺(I_t)`.
    fn unstable_set(&self) -> VertexSet;

    /// Aggregate counts of the current partition.
    fn counts(&self) -> StateCounts;

    /// Number of distinct states each vertex can be in (2, 3, or 18 for the
    /// processes of the paper). This is the "few states" headline metric.
    fn states_per_vertex(&self) -> usize;

    /// Total number of random bits drawn so far across all vertices, used by
    /// the baseline-comparison experiments ("constant random bits per round").
    fn random_bits_used(&self) -> u64;

    /// Runs the process until it stabilizes, executing at most `max_rounds`
    /// additional rounds.
    ///
    /// Returns the total number of rounds executed so far (i.e. the
    /// stabilization time when starting from round 0).
    ///
    /// # Errors
    ///
    /// Returns [`StabilizationTimeout`] if the process has not stabilized
    /// after `max_rounds` additional rounds.
    fn run_to_stabilization(
        &mut self,
        rng: &mut dyn RngCore,
        max_rounds: usize,
    ) -> Result<usize, StabilizationTimeout> {
        for _ in 0..max_rounds {
            if self.is_stabilized() {
                return Ok(self.round());
            }
            self.step(rng);
        }
        if self.is_stabilized() {
            Ok(self.round())
        } else {
            Err(StabilizationTimeout {
                rounds_executed: self.round(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_error_displays_round_count() {
        let e = StabilizationTimeout {
            rounds_executed: 42,
        };
        assert!(e.to_string().contains("42"));
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<StabilizationTimeout>();
    }

    #[test]
    fn state_counts_default_is_zero() {
        let c = StateCounts::default();
        assert_eq!(
            c.black + c.non_black + c.active + c.stable_black + c.unstable,
            0
        );
    }
}
