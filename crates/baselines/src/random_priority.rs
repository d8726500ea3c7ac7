//! A synchronous randomized *self-stabilizing* MIS baseline in the spirit of
//! Turau (2019): it stabilizes in `O(log n)` rounds w.h.p. from any initial
//! state, but pays for that with `Θ(log n)` fresh random bits per vertex per
//! round and `Θ(log n)`-bit messages — the cost that the paper's
//! constant-state, one-random-bit processes eliminate.

use mis_core::{corrupt, Algorithm, FaultState, StateCounts};
use mis_graph::{Graph, VertexId, VertexSet};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// Per-vertex state of [`RandomPriorityMis`]: in or out of the candidate MIS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Membership {
    /// The vertex currently claims MIS membership.
    In,
    /// The vertex currently does not claim membership.
    Out,
}

/// A fault flips a fair coin for membership; the per-round priorities are
/// fresh anyway, so membership is all the memory.
impl FaultState for Membership {
    fn random(rng: &mut dyn RngCore) -> Self {
        if rng.gen_bool(0.5) {
            Membership::In
        } else {
            Membership::Out
        }
    }

    fn displayed(self, black: bool) -> Self {
        if black {
            Membership::In
        } else {
            Membership::Out
        }
    }
}

/// Summary of a completed [`RandomPriorityMis`] run (used by experiment E10).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RandomPriorityOutcome {
    /// The stabilized maximal independent set.
    pub mis: VertexSet,
    /// Rounds until stabilization.
    pub rounds: usize,
    /// Total random bits drawn.
    pub random_bits: u64,
}

/// Synchronous randomized self-stabilizing MIS with per-round random
/// priorities.
///
/// Every round, every vertex draws a fresh 32-bit priority. Then, in
/// parallel:
///
/// * an `In` vertex with an `In` neighbor of higher (priority, id) leaves;
/// * an `Out` vertex whose (priority, id) beats all of its non-dominated
///   neighbors joins.
///
/// The rule only depends on the current round's priorities and the current
/// membership vector, so the algorithm is self-stabilizing; it stabilizes in
/// `O(log n)` rounds w.h.p. Because it implements [`Algorithm`], the same
/// experiment harness that measures the paper's processes can measure it.
#[derive(Debug, Clone)]
pub struct RandomPriorityMis<'g> {
    graph: &'g Graph,
    membership: Vec<Membership>,
    round: usize,
    random_bits: u64,
}

impl<'g> RandomPriorityMis<'g> {
    /// Creates the algorithm with an explicit initial membership vector.
    ///
    /// # Panics
    ///
    /// Panics if `membership.len() != graph.n()`.
    pub fn new(graph: &'g Graph, membership: Vec<Membership>) -> Self {
        assert_eq!(
            membership.len(),
            graph.n(),
            "initial membership vector length must equal the number of vertices"
        );
        RandomPriorityMis {
            graph,
            membership,
            round: 0,
            random_bits: 0,
        }
    }

    /// Creates the algorithm with every vertex initially `Out`.
    pub fn all_out(graph: &'g Graph) -> Self {
        Self::new(graph, vec![Membership::Out; graph.n()])
    }

    /// Creates the algorithm with a uniformly random membership vector
    /// (an arbitrary initial configuration, as self-stabilization demands):
    /// every vertex starts in a [`FaultState::random`] membership.
    pub fn random_init(graph: &'g Graph, rng: &mut dyn RngCore) -> Self {
        let membership = (0..graph.n()).map(|_| Membership::random(rng)).collect();
        Self::new(graph, membership)
    }

    /// Current membership of vertex `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn membership(&self, u: VertexId) -> Membership {
        self.membership[u]
    }

    /// Overwrites the membership of vertex `u` in place, modelling a
    /// transient fault that corrupts the vertex's memory.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set_membership(&mut self, u: VertexId, membership: Membership) {
        self.membership[u] = membership;
    }

    /// Runs until stabilization (at most `max_rounds` rounds) and returns the
    /// outcome summary.
    ///
    /// # Errors
    ///
    /// Returns [`mis_core::StabilizationTimeout`] if the round budget is
    /// exhausted first.
    pub fn run<R: Rng>(
        &mut self,
        rng: &mut R,
        max_rounds: usize,
    ) -> Result<RandomPriorityOutcome, mis_core::StabilizationTimeout> {
        let rounds = Algorithm::run_to_stabilization(self, rng, max_rounds)?;
        Ok(RandomPriorityOutcome {
            mis: self.black_set(),
            rounds,
            random_bits: self.random_bits,
        })
    }

    fn is_in(&self, u: VertexId) -> bool {
        self.membership[u] == Membership::In
    }

    /// `u` is dominated if it or a neighbor is a *stable* MIS member, i.e. an
    /// `In` vertex with no `In` neighbor.
    fn stable_in(&self, u: VertexId) -> bool {
        self.is_in(u) && !self.graph.neighbors(u).iter().any(|v| self.is_in(v))
    }
}

impl Algorithm for RandomPriorityMis<'_> {
    fn n(&self) -> usize {
        self.graph.n()
    }

    fn round(&self) -> usize {
        self.round
    }

    fn step(&mut self, rng: &mut dyn RngCore) {
        let n = self.graph.n();
        let mut priority = vec![0u32; n];
        for u in self.graph.vertices() {
            priority[u] = rng.gen::<u32>();
            self.random_bits += 32;
        }
        let old = self.membership.clone();
        let beats = |u: VertexId, v: VertexId| (priority[u], u) > (priority[v], v);
        for u in self.graph.vertices() {
            let has_in_neighbor = self
                .graph
                .neighbors(u)
                .iter()
                .any(|v| old[v] == Membership::In);
            self.membership[u] = match old[u] {
                Membership::In => {
                    if self
                        .graph
                        .neighbors(u)
                        .iter()
                        .any(|v| old[v] == Membership::In && beats(v, u))
                    {
                        Membership::Out
                    } else {
                        Membership::In
                    }
                }
                Membership::Out => {
                    if !has_in_neighbor
                        && self
                            .graph
                            .neighbors(u)
                            .iter()
                            .all(|v| old[v] == Membership::In || beats(u, v))
                    {
                        Membership::In
                    } else {
                        Membership::Out
                    }
                }
            };
        }
        self.round += 1;
    }

    fn is_stabilized(&self) -> bool {
        self.graph
            .vertices()
            .all(|u| self.stable_in(u) || self.graph.neighbors(u).iter().any(|v| self.stable_in(v)))
    }

    fn black_set(&self) -> VertexSet {
        VertexSet::from_indices(self.n(), self.graph.vertices().filter(|&u| self.is_in(u)))
    }

    fn active_set(&self) -> VertexSet {
        // Vertices whose membership could still change: not yet covered by a
        // stable MIS member.
        self.unstable_set()
    }

    fn stable_black_set(&self) -> VertexSet {
        VertexSet::from_indices(
            self.n(),
            self.graph.vertices().filter(|&u| self.stable_in(u)),
        )
    }

    fn unstable_set(&self) -> VertexSet {
        VertexSet::from_indices(
            self.n(),
            self.graph.vertices().filter(|&u| {
                !self.stable_in(u) && !self.graph.neighbors(u).iter().any(|v| self.stable_in(v))
            }),
        )
    }

    fn counts(&self) -> StateCounts {
        let mut c = StateCounts::default();
        for u in self.graph.vertices() {
            if self.is_in(u) {
                c.black += 1;
            } else {
                c.non_black += 1;
            }
            if self.stable_in(u) {
                c.stable_black += 1;
            }
        }
        c.unstable = self.unstable_set().len();
        c.active = c.unstable;
        c
    }

    fn states_per_vertex(&self) -> usize {
        // Membership bit plus the fresh 32-bit priority communicated each round.
        2 * (u32::MAX as usize + 1)
    }

    fn random_bits_used(&self) -> u64 {
        self.random_bits
    }

    fn inject_faults_targeted(&mut self, victims: &[VertexId], rng: &mut dyn RngCore) -> usize {
        corrupt(victims, rng, |u, membership| {
            std::mem::replace(&mut self.membership[u], membership)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::{generators, mis_check};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn stabilizes_quickly_on_random_graphs() {
        let mut r = rng(0);
        let g = generators::gnp(1000, 0.01, &mut r);
        let mut alg = RandomPriorityMis::all_out(&g);
        let out = alg.run(&mut r, 10_000).unwrap();
        assert!(mis_check::is_mis(&g, &out.mis));
        assert!(out.rounds < 60, "took {} rounds", out.rounds);
    }

    #[test]
    fn self_stabilizes_from_adversarial_all_in_state() {
        let mut r = rng(1);
        let g = generators::complete(40);
        let mut alg = RandomPriorityMis::new(&g, vec![Membership::In; 40]);
        let out = alg.run(&mut r, 10_000).unwrap();
        assert_eq!(out.mis.len(), 1);
        assert!(mis_check::is_mis(&g, &out.mis));
    }

    #[test]
    fn counts_and_sets_are_consistent() {
        let mut r = rng(2);
        let g = generators::gnp(60, 0.1, &mut r);
        let mut alg = RandomPriorityMis::random_init(&g, &mut r);
        for _ in 0..30 {
            let c = alg.counts();
            assert_eq!(c.black, alg.black_set().len());
            assert_eq!(c.stable_black, alg.stable_black_set().len());
            assert_eq!(c.unstable, alg.unstable_set().len());
            assert!(mis_check::is_independent(&g, &alg.stable_black_set()));
            if alg.is_stabilized() {
                break;
            }
            Algorithm::step(&mut alg, &mut r);
        }
    }

    #[test]
    fn uses_many_more_random_bits_than_the_two_state_process() {
        let mut r = rng(3);
        let g = generators::gnp(200, 0.05, &mut r);
        let mut alg = RandomPriorityMis::random_init(&g, &mut r);
        let out = alg.run(&mut r, 10_000).unwrap();
        // 32 bits per vertex per round is the designed cost of this baseline.
        assert_eq!(out.random_bits, 32 * g.n() as u64 * out.rounds as u64);
    }

    proptest! {
        #[test]
        fn stabilizes_from_arbitrary_states(seed in 0u64..2000, n in 1usize..60, p in 0.0f64..1.0) {
            let mut r = rng(seed);
            let g = generators::gnp(n, p, &mut r);
            let mut alg = RandomPriorityMis::random_init(&g, &mut r);
            let out = alg.run(&mut r, 100_000).unwrap();
            prop_assert!(mis_check::is_mis(&g, &out.mis));
        }
    }
}
