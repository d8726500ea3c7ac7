//! The beeping communication model (full-duplex / sender collision
//! detection) and the beeping adaptation of the 2-state MIS process.

use mis_core::init::InitStrategy;
use mis_core::{Color, Process, StateCounts};
use mis_graph::{Graph, VertexId, VertexSet};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use crate::partition::{self, NodeView};

/// What a node does in one beeping round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BeepAction {
    /// Transmit a beep (carrier signal) to all neighbors.
    Beep,
    /// Stay silent and listen.
    Listen,
}

/// Simulates one synchronous round of the beeping channel: every node `u`
/// with `beeps(u)` beeps, and the round writes into `heard[v]` whether **at
/// least one neighbor** of `v` beeped. With sender collision detection (the
/// full-duplex model assumed by the paper) beeping nodes receive this
/// feedback too. The pass costs `O(n + m)` and allocates nothing.
///
/// The channel deliberately gives a single bit per node — nothing about
/// *which* or *how many* neighbors beeped.
///
/// # Panics
///
/// Panics if `heard.len() != g.n()`.
///
/// # Example
///
/// ```
/// use mis_comm::beeping::beep_round;
/// use mis_graph::Graph;
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
/// let mut heard = [false; 3];
/// beep_round(&g, |u| u == 0, &mut heard);
/// assert_eq!(heard, [false, true, false]);
/// ```
pub fn beep_round(g: &Graph, beeps: impl Fn(VertexId) -> bool, heard: &mut [bool]) {
    assert_eq!(
        heard.len(),
        g.n(),
        "heard buffer length must equal the number of vertices"
    );
    for (v, h) in heard.iter_mut().enumerate() {
        *h = hears_beep(g, v, &beeps);
    }
}

/// Whether node `v` hears a beep: the rule [`beep_round`] applies to every
/// node, and the network applies to the neighbors of a node it overwrote.
fn hears_beep(g: &Graph, v: VertexId, beeps: &impl Fn(VertexId) -> bool) -> bool {
    g.neighbors(v).iter().any(beeps)
}

/// The 2-state MIS process implemented as a **beeping algorithm**: black
/// nodes beep, white nodes listen, and each node updates its state using
/// only its own color and the single "heard a beep" bit (Section 1 of the
/// paper).
///
/// * a black node that hears a beep (some neighbor is black) re-randomizes;
/// * a white node that hears silence (no neighbor is black) re-randomizes;
/// * all other nodes keep their state.
///
/// The network keeps each node's heard bit of the current round in one
/// buffer. A round ([`step`](Process::step) or
/// [`step_scheduled`](Self::step_scheduled)) updates the colors in place and
/// refreshes the buffer with one [`beep_round`] (`O(n + m)`, no allocation);
/// [`set_color`](Self::set_color) refreshes only the neighbors of the node,
/// in `O(Σ_{v ∈ N(u)} deg v)`. Every query reads the buffer.
///
/// The node-local rule never inspects neighbor states, only the channel
/// feedback; nevertheless it is *trace equivalent* to
/// [`mis_core::TwoStateProcess`] (same seed, same initial states, same state
/// sequence), which the test suite checks.
#[derive(Debug, Clone)]
pub struct BeepingTwoStateMis<'g> {
    graph: &'g Graph,
    states: Vec<Color>,
    /// Whether each node heard a beep from the current `states`.
    heard: Vec<bool>,
    round: usize,
    random_bits: u64,
}

impl<'g> BeepingTwoStateMis<'g> {
    /// Creates the beeping network with the given initial colors.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != graph.n()`.
    pub fn new(graph: &'g Graph, states: Vec<Color>) -> Self {
        assert_eq!(
            states.len(),
            graph.n(),
            "initial state vector length must equal the number of vertices"
        );
        let mut net = BeepingTwoStateMis {
            graph,
            states,
            heard: vec![false; graph.n()],
            round: 0,
            random_bits: 0,
        };
        net.listen();
        net
    }

    /// Creates the beeping network with states drawn from an [`InitStrategy`].
    pub fn with_init<R: Rng + ?Sized>(graph: &'g Graph, init: InitStrategy, rng: &mut R) -> Self {
        Self::new(graph, init.two_state(graph.n(), rng))
    }

    /// Current color of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn color(&self, u: VertexId) -> Color {
        self.states[u]
    }

    /// The full state vector (indexed by vertex id).
    pub fn states(&self) -> &[Color] {
        &self.states
    }

    /// The communication graph the network runs on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The action node `u` takes in the next round: black nodes beep, white
    /// nodes listen.
    pub fn action(&self, u: VertexId) -> BeepAction {
        if self.states[u].is_black() {
            BeepAction::Beep
        } else {
            BeepAction::Listen
        }
    }

    /// Overwrites the color of node `u` in place, modelling a transient
    /// fault that corrupts the node's memory, and refreshes what the
    /// neighbors of `u` hear in `O(Σ_{v ∈ N(u)} deg v)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set_color(&mut self, u: VertexId, color: Color) {
        if self.states[u] == color {
            return;
        }
        self.states[u] = color;
        let (g, states) = (self.graph, &self.states);
        for v in g.neighbors(u) {
            self.heard[v] = hears_beep(g, v, &|w| states[w].is_black());
        }
    }

    /// Executes one beeping round in which only the nodes of `scheduled`
    /// are activated: the channel round happens as usual (every black node
    /// beeps), but only scheduled nodes apply the update rule; all others
    /// keep their color. A full `scheduled` set is exactly a synchronous
    /// [`step`](Process::step).
    ///
    /// # Panics
    ///
    /// Panics if `scheduled.universe() != n`.
    pub fn step_scheduled(&mut self, scheduled: &VertexSet, rng: &mut dyn RngCore) {
        assert_eq!(
            scheduled.universe(),
            self.graph.n(),
            "scheduled set universe must match the graph"
        );
        for u in scheduled.iter() {
            self.update(u, rng);
        }
        self.round += 1;
        self.listen();
    }

    /// Applies the 2-state rule to node `u` from what it heard this round.
    fn update(&mut self, u: VertexId, rng: &mut dyn RngCore) {
        if self.is_active(u) {
            self.random_bits += 1;
            self.states[u] = if rng.gen_bool(0.5) {
                Color::Black
            } else {
                Color::White
            };
        }
    }

    /// Runs the channel round of the current colors into `heard`.
    fn listen(&mut self) {
        let states = &self.states;
        beep_round(self.graph, |u| states[u].is_black(), &mut self.heard);
    }
}

impl NodeView for BeepingTwoStateMis<'_> {
    fn graph(&self) -> &Graph {
        self.graph
    }

    fn is_black(&self, u: VertexId) -> bool {
        self.states[u].is_black()
    }

    fn hears_black(&self, u: VertexId) -> bool {
        self.heard[u]
    }

    fn is_active(&self, u: VertexId) -> bool {
        self.is_black(u) == self.hears_black(u)
    }
}

impl Process for BeepingTwoStateMis<'_> {
    fn n(&self) -> usize {
        self.graph.n()
    }

    fn round(&self) -> usize {
        self.round
    }

    fn step(&mut self, rng: &mut dyn RngCore) {
        for u in self.graph.vertices() {
            self.update(u, rng);
        }
        self.round += 1;
        self.listen();
    }

    fn is_stabilized(&self) -> bool {
        partition::is_stabilized(self)
    }

    fn black_set(&self) -> VertexSet {
        partition::select(self, |u| self.is_black(u))
    }

    fn active_set(&self) -> VertexSet {
        partition::select(self, |u| self.is_active(u))
    }

    fn stable_black_set(&self) -> VertexSet {
        partition::select(self, |u| partition::is_stable_black(self, u))
    }

    fn unstable_set(&self) -> VertexSet {
        partition::select(self, |u| partition::is_unstable(self, u))
    }

    fn counts(&self) -> StateCounts {
        partition::counts(self)
    }

    fn states_per_vertex(&self) -> usize {
        2
    }

    fn random_bits_used(&self) -> u64 {
        self.random_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_core::TwoStateProcess;
    use mis_graph::{generators, mis_check};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn beep_round_reports_neighbor_beeps_only() {
        let g = generators::star(5);
        // The buffer starts dirty: the round overwrites every bit.
        let mut heard = [true; 5];
        // Only a leaf beeps: the hub hears it, other leaves do not.
        beep_round(&g, |u| u == 1, &mut heard);
        assert_eq!(heard, [true, false, false, false, false]);
        // The hub beeps: every leaf hears it, the hub itself does not
        // (sender collision detection reports *neighbor* beeps only).
        beep_round(&g, |u| u == 0, &mut heard);
        assert_eq!(heard, [false, true, true, true, true]);
        // Nobody beeps.
        beep_round(&g, |_| false, &mut heard);
        assert_eq!(heard, [false; 5]);
    }

    #[test]
    fn actions_follow_colors() {
        let g = generators::path(2);
        let net = BeepingTwoStateMis::new(&g, vec![Color::Black, Color::White]);
        assert_eq!(net.action(0), BeepAction::Beep);
        assert_eq!(net.action(1), BeepAction::Listen);
    }

    #[test]
    fn trace_equivalent_to_direct_two_state_process() {
        // Same graph, same initial states, same seed => identical state
        // sequences, because the beeping adapter consumes randomness in the
        // same per-vertex order as the direct process.
        let mut setup_rng = rng(100);
        let g = generators::gnp(80, 0.1, &mut setup_rng);
        let init = InitStrategy::Random.two_state(g.n(), &mut setup_rng);

        let mut direct = TwoStateProcess::new(&g, init.clone());
        let mut beeping = BeepingTwoStateMis::new(&g, init);
        let mut rng_a = rng(7);
        let mut rng_b = rng(7);
        for round in 0..300 {
            assert_eq!(
                direct.states(),
                beeping.states(),
                "traces diverged at round {round}"
            );
            assert_eq!(direct.is_stabilized(), beeping.is_stabilized());
            if direct.is_stabilized() {
                break;
            }
            direct.step(&mut rng_a);
            beeping.step(&mut rng_b);
        }
        assert_eq!(direct.random_bits_used(), beeping.random_bits_used());
    }

    #[test]
    fn stabilizes_to_mis() {
        let mut r = rng(5);
        for g in [
            generators::complete(20),
            generators::random_tree(60, &mut r),
            generators::gnp(80, 0.15, &mut r),
        ] {
            let mut net = BeepingTwoStateMis::with_init(&g, InitStrategy::Random, &mut r);
            net.run_to_stabilization(&mut r, 100_000).unwrap();
            assert!(mis_check::is_mis(&g, &net.black_set()));
        }
    }

    #[test]
    fn counts_and_sets_are_consistent() {
        let mut r = rng(6);
        let g = generators::gnp(50, 0.2, &mut r);
        let mut net = BeepingTwoStateMis::with_init(&g, InitStrategy::AllBlack, &mut r);
        for _ in 0..40 {
            let c = net.counts();
            assert_eq!(c.black, net.black_set().len());
            assert_eq!(c.active, net.active_set().len());
            assert_eq!(c.stable_black, net.stable_black_set().len());
            assert_eq!(c.unstable, net.unstable_set().len());
            if net.is_stabilized() {
                break;
            }
            net.step(&mut r);
        }
    }

    #[test]
    #[should_panic(expected = "heard buffer length")]
    fn beep_round_rejects_mismatched_buffer() {
        let g = generators::path(3);
        beep_round(&g, |_| true, &mut [false; 4]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The beeping adaptation stabilizes to an MIS on random graphs.
        #[test]
        fn beeping_reaches_mis(seed in 0u64..5000, n in 1usize..40, p_edge in 0.0f64..0.6) {
            let mut r = rng(seed);
            let g = generators::gnp(n, p_edge, &mut r);
            let mut net = BeepingTwoStateMis::with_init(&g, InitStrategy::Random, &mut r);
            net.run_to_stabilization(&mut r, 200_000).unwrap();
            prop_assert!(mis_check::is_mis(&g, &net.black_set()));
        }
    }
}
