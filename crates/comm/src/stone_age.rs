//! The synchronous stone age communication model (Emek & Wattenhofer 2013)
//! and the stone-age adaptations of the 3-state and 3-color MIS processes.
//!
//! In the stone age model every node transmits, per round, at most one
//! letter from a constant-size alphabet, and for each letter it can only
//! distinguish "no neighbor sent this letter" from "at least one neighbor
//! sent this letter" (the one-two-many principle with counting bound 1).
//! There is no collision detection and no sender identity.

use mis_core::init::InitStrategy;
use mis_core::{Process, StateCounts, ThreeColor, ThreeState, DEFAULT_ZETA};
use mis_graph::{Graph, VertexId, VertexSet};
use rand::{Rng, RngCore};

use crate::partition::{self, NodeView};

/// Simulates one synchronous round of the stone age channel.
///
/// `transmit(u)` is the letter node `u` broadcasts this round (or `None` for
/// silence). The round writes into `heard[v]` the letters node `v` hears, as
/// a mask: bit `l` is set iff **at least one neighbor** of `v` transmitted
/// letter `l`. The pass costs `O(n + m)` and allocates nothing.
///
/// # Panics
///
/// Panics if `heard.len() != g.n()`, if `alphabet > 32` (the width of a
/// mask), or if some node hears a letter `>= alphabet`.
///
/// # Example
///
/// ```
/// use mis_comm::stone_age::stone_age_round;
/// use mis_graph::Graph;
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
/// let letters = [Some(0), None, Some(1)];
/// let mut heard = [0u32; 3];
/// stone_age_round(&g, |u| letters[u], 2, &mut heard);
/// assert_eq!(heard[1], 0b11); // middle node hears both letters
/// assert_eq!(heard[0], 0);    // endpoint hears only silence
/// ```
pub fn stone_age_round(
    g: &Graph,
    transmit: impl Fn(VertexId) -> Option<u8>,
    alphabet: usize,
    heard: &mut [u32],
) {
    assert_eq!(
        heard.len(),
        g.n(),
        "heard buffer length must equal the number of vertices"
    );
    assert!(
        alphabet <= 32,
        "alphabet of size {alphabet} does not fit a 32-bit letter mask"
    );
    for (v, mask) in heard.iter_mut().enumerate() {
        *mask = hear(g, v, &transmit, alphabet);
    }
}

/// The letters node `v` hears: the rule [`stone_age_round`] applies to every
/// node, and a network applies to the neighbors of a node it overwrote.
fn hear(
    g: &Graph,
    v: VertexId,
    transmit: &impl Fn(VertexId) -> Option<u8>,
    alphabet: usize,
) -> u32 {
    g.neighbors(v)
        .iter()
        .filter_map(transmit)
        .fold(0, |mask, letter| {
            assert!(
                (letter as usize) < alphabet,
                "letter {letter} outside alphabet of size {alphabet}"
            );
            mask | 1 << letter
        })
}

/// The 3-state MIS process as a stone age algorithm with a 2-letter alphabet.
///
/// Nodes in state `black1` transmit letter 0, nodes in state `black0`
/// transmit letter 1, white nodes stay silent. The node-local update uses
/// only the two per-letter "heard" bits, which is exactly the information the
/// 3-state rule needs: whether some neighbor is `black1`, and whether some
/// neighbor is black at all.
///
/// The network keeps each node's heard letters of the current round in one
/// buffer. A round ([`step`](Process::step) or
/// [`step_scheduled`](Self::step_scheduled)) updates the states in place and
/// refreshes the buffer with one [`stone_age_round`] (`O(n + m)`, no
/// allocation); [`set_state`](Self::set_state) refreshes only the neighbors
/// of the node, in `O(Σ_{v ∈ N(u)} deg v)`. Every query reads the buffer.
///
/// Trace equivalent to [`mis_core::ThreeStateProcess`] given the same seed
/// and initial states.
#[derive(Debug, Clone)]
pub struct StoneAgeThreeStateMis<'g> {
    graph: &'g Graph,
    states: Vec<ThreeState>,
    /// Letter mask each node heard from the current `states`.
    heard: Vec<u32>,
    round: usize,
    random_bits: u64,
}

/// Alphabet used by [`StoneAgeThreeStateMis`]: letter 0 = "I am black1",
/// letter 1 = "I am black0".
pub const THREE_STATE_ALPHABET: usize = 2;

/// The letter a node in `state` transmits.
fn three_state_letter(state: ThreeState) -> Option<u8> {
    match state {
        ThreeState::Black1 => Some(0),
        ThreeState::Black0 => Some(1),
        ThreeState::White => None,
    }
}

impl<'g> StoneAgeThreeStateMis<'g> {
    /// Creates the network with the given initial states.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != graph.n()`.
    pub fn new(graph: &'g Graph, states: Vec<ThreeState>) -> Self {
        assert_eq!(
            states.len(),
            graph.n(),
            "initial state vector length must equal the number of vertices"
        );
        let mut net = StoneAgeThreeStateMis {
            graph,
            states,
            heard: vec![0; graph.n()],
            round: 0,
            random_bits: 0,
        };
        net.listen();
        net
    }

    /// Creates the network with states drawn from an [`InitStrategy`].
    pub fn with_init<R: Rng + ?Sized>(graph: &'g Graph, init: InitStrategy, rng: &mut R) -> Self {
        Self::new(graph, init.three_state(graph.n(), rng))
    }

    /// Current state of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn state(&self, u: VertexId) -> ThreeState {
        self.states[u]
    }

    /// The full state vector.
    pub fn states(&self) -> &[ThreeState] {
        &self.states
    }

    /// The communication graph the network runs on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The letter node `u` transmits in the next round (`None` = silence).
    pub fn transmission(&self, u: VertexId) -> Option<u8> {
        three_state_letter(self.states[u])
    }

    /// Overwrites the state of node `u` in place, modelling a transient
    /// fault that corrupts the node's memory, and refreshes what the
    /// neighbors of `u` hear in `O(Σ_{v ∈ N(u)} deg v)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set_state(&mut self, u: VertexId, state: ThreeState) {
        if self.states[u] == state {
            return;
        }
        self.states[u] = state;
        let (g, states) = (self.graph, &self.states);
        for v in g.neighbors(u) {
            self.heard[v] = hear(
                g,
                v,
                &|w| three_state_letter(states[w]),
                THREE_STATE_ALPHABET,
            );
        }
    }

    /// Executes one stone-age round in which only the nodes of `scheduled`
    /// are activated: the channel round happens as usual, but only
    /// scheduled nodes apply the update rule (re-draw when active, retire
    /// `black0 → white` under a `black1` neighbor); all others keep their
    /// state. A full `scheduled` set is exactly a synchronous
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

    /// Applies the 3-state rule to node `u` from what it heard this round.
    fn update(&mut self, u: VertexId, rng: &mut dyn RngCore) {
        if self.is_active(u) {
            self.random_bits += 1;
            self.states[u] = if rng.gen_bool(0.5) {
                ThreeState::Black1
            } else {
                ThreeState::Black0
            };
        } else if self.states[u] == ThreeState::Black0 {
            self.states[u] = ThreeState::White;
        }
    }

    /// Runs the channel round of the current states into `heard`.
    fn listen(&mut self) {
        let states = &self.states;
        stone_age_round(
            self.graph,
            |u| three_state_letter(states[u]),
            THREE_STATE_ALPHABET,
            &mut self.heard,
        );
    }
}

impl NodeView for StoneAgeThreeStateMis<'_> {
    fn graph(&self) -> &Graph {
        self.graph
    }

    fn is_black(&self, u: VertexId) -> bool {
        self.states[u].is_black()
    }

    fn hears_black(&self, u: VertexId) -> bool {
        self.heard[u] != 0
    }

    fn is_active(&self, u: VertexId) -> bool {
        match self.states[u] {
            ThreeState::Black1 => true,
            // No black1 neighbor (letter 0).
            ThreeState::Black0 => self.heard[u] & 1 == 0,
            ThreeState::White => !self.hears_black(u),
        }
    }
}

impl Process for StoneAgeThreeStateMis<'_> {
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
        3
    }

    fn random_bits_used(&self) -> u64 {
        self.random_bits
    }
}

/// The 3-color MIS process (with its randomized logarithmic switch) as a
/// stone age algorithm with an 18-letter alphabet: each node broadcasts its
/// full local state `(color, level)` as a single letter
/// `color_index * 6 + level`, and the update rule uses only the per-letter
/// "heard" bits to recover "some neighbor is black" and "the maximum level
/// among my neighbors" — the two aggregates the process needs.
///
/// The network keeps each node's heard letters of the current round in one
/// buffer. [`step`](Process::step) updates colors and levels in place and
/// refreshes the buffer with one [`stone_age_round`] (`O(n + m)`, no
/// allocation); [`set_node_state`](Self::set_node_state) refreshes only the
/// neighbors of the node, in `O(Σ_{v ∈ N(u)} deg v)`. Every query reads the
/// buffer.
///
/// Trace equivalent to
/// [`mis_core::ThreeColorProcess`]`<`[`mis_core::RandomizedLogSwitch`]`>`
/// given the same seed and initial states.
#[derive(Debug, Clone)]
pub struct StoneAgeThreeColorMis<'g> {
    graph: &'g Graph,
    colors: Vec<ThreeColor>,
    levels: Vec<u8>,
    /// Letter mask each node heard from the current `colors` and `levels`.
    heard: Vec<u32>,
    zeta: f64,
    round: usize,
    random_bits: u64,
}

/// Alphabet used by [`StoneAgeThreeColorMis`]: `color_index * 6 + level` with
/// color indices black = 0, white = 1, gray = 2 and levels `0..=5`.
pub const THREE_COLOR_ALPHABET: usize = 18;

/// The letters a black node can send (levels 0..=5 of color index 0); the
/// white and gray letters are these shifted by 6 and 12.
const BLACK_LETTERS: u32 = 0x3F;

/// The letter a node with `color` and switch `level` transmits.
fn three_color_letter(color: ThreeColor, level: u8) -> u8 {
    let color_index = match color {
        ThreeColor::Black => 0u8,
        ThreeColor::White => 1,
        ThreeColor::Gray => 2,
    };
    color_index * 6 + level
}

/// The levels present in a heard mask, whatever the sender's color: bit `l`
/// is set iff some neighbor is at level `l`.
fn heard_levels(mask: u32) -> u32 {
    (mask | mask >> 6 | mask >> 12) & BLACK_LETTERS
}

impl<'g> StoneAgeThreeColorMis<'g> {
    /// Creates the network with explicit colors and switch levels.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the graph or a level exceeds 5.
    pub fn new(graph: &'g Graph, colors: Vec<ThreeColor>, levels: Vec<u8>) -> Self {
        assert_eq!(
            colors.len(),
            graph.n(),
            "initial color vector length must equal the number of vertices"
        );
        assert_eq!(
            levels.len(),
            graph.n(),
            "initial level vector length must equal the number of vertices"
        );
        assert!(levels.iter().all(|&l| l <= 5), "levels must be in 0..=5");
        let mut net = StoneAgeThreeColorMis {
            graph,
            colors,
            levels,
            heard: vec![0; graph.n()],
            zeta: DEFAULT_ZETA,
            round: 0,
            random_bits: 0,
        };
        net.listen();
        net
    }

    /// Creates the network with colors and levels drawn from an [`InitStrategy`].
    pub fn with_init<R: Rng + ?Sized>(graph: &'g Graph, init: InitStrategy, rng: &mut R) -> Self {
        let colors = init.three_color(graph.n(), rng);
        let levels = init.switch_levels(graph.n(), rng);
        Self::new(graph, colors, levels)
    }

    /// Current color of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn color(&self, u: VertexId) -> ThreeColor {
        self.colors[u]
    }

    /// Current switch level of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn level(&self, u: VertexId) -> u8 {
        self.levels[u]
    }

    /// The full color vector.
    pub fn colors(&self) -> &[ThreeColor] {
        &self.colors
    }

    /// The communication graph the network runs on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Overwrites the color and switch level of node `u` in place, modelling
    /// a transient fault that corrupts the node's memory, and refreshes what
    /// the neighbors of `u` hear in `O(Σ_{v ∈ N(u)} deg v)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range or `level > 5`.
    pub fn set_node_state(&mut self, u: VertexId, color: ThreeColor, level: u8) {
        assert!(level <= 5, "levels must be in 0..=5");
        if (self.colors[u], self.levels[u]) == (color, level) {
            return;
        }
        self.colors[u] = color;
        self.levels[u] = level;
        let (g, colors, levels) = (self.graph, &self.colors, &self.levels);
        for v in g.neighbors(u) {
            self.heard[v] = hear(
                g,
                v,
                &|w| Some(three_color_letter(colors[w], levels[w])),
                THREE_COLOR_ALPHABET,
            );
        }
    }

    /// The letter node `u` transmits: its full `(color, level)` state.
    pub fn transmission(&self, u: VertexId) -> Option<u8> {
        Some(three_color_letter(self.colors[u], self.levels[u]))
    }

    /// Runs the channel round of the current colors and levels into `heard`.
    fn listen(&mut self) {
        let (colors, levels) = (&self.colors, &self.levels);
        stone_age_round(
            self.graph,
            |u| Some(three_color_letter(colors[u], levels[u])),
            THREE_COLOR_ALPHABET,
            &mut self.heard,
        );
    }
}

impl NodeView for StoneAgeThreeColorMis<'_> {
    fn graph(&self) -> &Graph {
        self.graph
    }

    fn is_black(&self, u: VertexId) -> bool {
        self.colors[u].is_black()
    }

    fn hears_black(&self, u: VertexId) -> bool {
        self.heard[u] & BLACK_LETTERS != 0
    }

    fn is_active(&self, u: VertexId) -> bool {
        match self.colors[u] {
            ThreeColor::Black => self.hears_black(u),
            ThreeColor::White => !self.hears_black(u),
            ThreeColor::Gray => false,
        }
    }
}

impl Process for StoneAgeThreeColorMis<'_> {
    fn n(&self) -> usize {
        self.graph.n()
    }

    fn round(&self) -> usize {
        self.round
    }

    fn step(&mut self, rng: &mut dyn RngCore) {
        // Color update (uses the switch output of the previous round, i.e.
        // the current levels), drawing coins in vertex order exactly like the
        // direct 3-color process.
        for u in self.graph.vertices() {
            self.colors[u] = match self.colors[u] {
                ThreeColor::Black if self.hears_black(u) => {
                    self.random_bits += 1;
                    if rng.gen_bool(0.5) {
                        ThreeColor::Black
                    } else {
                        ThreeColor::Gray
                    }
                }
                ThreeColor::White if !self.hears_black(u) => {
                    self.random_bits += 1;
                    if rng.gen_bool(0.5) {
                        ThreeColor::Black
                    } else {
                        ThreeColor::White
                    }
                }
                ThreeColor::Gray if self.levels[u] <= 2 => ThreeColor::White,
                other => other,
            };
        }
        // Switch (level) update, using the maximum level over the closed
        // neighborhood. The heard masks hold the neighbors' levels from
        // before this round, so the levels can be overwritten in place.
        for u in self.graph.vertices() {
            let lvl = self.levels[u];
            let reset = if lvl == 5 {
                self.random_bits += 7;
                !rng.gen_bool(self.zeta)
            } else {
                false
            };
            self.levels[u] = if reset || lvl == 0 {
                5
            } else {
                let max_level = (heard_levels(self.heard[u]) | 1 << lvl).ilog2() as u8;
                max_level - 1
            };
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
        18
    }

    fn random_bits_used(&self) -> u64 {
        self.random_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_core::{RandomizedLogSwitch, ThreeColorProcess, ThreeStateProcess};
    use mis_graph::{generators, mis_check};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn stone_age_round_reports_per_letter_bits() {
        let g = generators::star(4);
        // Leaves send letters 0, 1, 1; hub is silent. The buffer starts
        // dirty: the round overwrites every mask.
        let letters = [None, Some(0), Some(1), Some(1)];
        let mut heard = [u32::MAX; 4];
        stone_age_round(&g, |u| letters[u], 3, &mut heard);
        assert_eq!(heard, [0b011, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "outside alphabet")]
    fn stone_age_round_rejects_bad_letter() {
        let g = generators::path(2);
        let letters = [Some(5), None];
        stone_age_round(&g, |u| letters[u], 2, &mut [0; 2]);
    }

    #[test]
    #[should_panic(expected = "does not fit a 32-bit letter mask")]
    fn stone_age_round_rejects_alphabet_wider_than_a_mask() {
        let g = generators::path(2);
        stone_age_round(&g, |_| None, 33, &mut [0; 2]);
    }

    #[test]
    fn three_state_transmissions() {
        let g = generators::path(3);
        let net = StoneAgeThreeStateMis::new(
            &g,
            vec![ThreeState::Black1, ThreeState::Black0, ThreeState::White],
        );
        assert_eq!(net.transmission(0), Some(0));
        assert_eq!(net.transmission(1), Some(1));
        assert_eq!(net.transmission(2), None);
    }

    #[test]
    fn three_state_trace_equivalent_to_direct_process() {
        let mut setup_rng = rng(200);
        let g = generators::gnp(60, 0.15, &mut setup_rng);
        let init = InitStrategy::Random.three_state(g.n(), &mut setup_rng);

        let mut direct = ThreeStateProcess::new(&g, init.clone());
        let mut net = StoneAgeThreeStateMis::new(&g, init);
        let mut rng_a = rng(31);
        let mut rng_b = rng(31);
        for round in 0..300 {
            assert_eq!(
                direct.states(),
                net.states(),
                "traces diverged at round {round}"
            );
            assert_eq!(direct.is_stabilized(), net.is_stabilized());
            if direct.is_stabilized() {
                break;
            }
            direct.step(&mut rng_a);
            net.step(&mut rng_b);
        }
        assert_eq!(direct.random_bits_used(), net.random_bits_used());
    }

    #[test]
    fn three_color_trace_equivalent_to_direct_process() {
        let mut setup_rng = rng(300);
        let g = generators::gnp(50, 0.3, &mut setup_rng);
        let colors = InitStrategy::Random.three_color(g.n(), &mut setup_rng);
        let levels = InitStrategy::Random.switch_levels(g.n(), &mut setup_rng);

        let switch = RandomizedLogSwitch::new(&g, levels.clone(), DEFAULT_ZETA);
        let mut direct = ThreeColorProcess::new(&g, colors.clone(), switch);
        let mut net = StoneAgeThreeColorMis::new(&g, colors, levels);
        let mut rng_a = rng(77);
        let mut rng_b = rng(77);
        for round in 0..400 {
            assert_eq!(
                direct.colors(),
                net.colors(),
                "color traces diverged at round {round}"
            );
            for u in g.vertices() {
                assert_eq!(
                    direct.switch().level(u),
                    net.level(u),
                    "level of {u} diverged at round {round}"
                );
            }
            if direct.is_stabilized() && net.is_stabilized() {
                break;
            }
            direct.step(&mut rng_a);
            net.step(&mut rng_b);
        }
        assert_eq!(direct.random_bits_used(), net.random_bits_used());
    }

    #[test]
    fn three_state_stabilizes_to_mis() {
        let mut r = rng(8);
        for g in [generators::complete(16), generators::gnp(60, 0.1, &mut r)] {
            let mut net = StoneAgeThreeStateMis::with_init(&g, InitStrategy::Random, &mut r);
            net.run_to_stabilization(&mut r, 100_000).unwrap();
            assert!(mis_check::is_mis(&g, &net.black_set()));
        }
    }

    #[test]
    fn three_color_stabilizes_to_mis() {
        let mut r = rng(9);
        for g in [generators::complete(16), generators::gnp(60, 0.4, &mut r)] {
            let mut net = StoneAgeThreeColorMis::with_init(&g, InitStrategy::Random, &mut r);
            net.run_to_stabilization(&mut r, 200_000).unwrap();
            assert!(mis_check::is_mis(&g, &net.black_set()));
            assert_eq!(net.states_per_vertex(), 18);
        }
    }

    #[test]
    fn counts_consistency_three_color() {
        let mut r = rng(10);
        let g = generators::gnp(40, 0.2, &mut r);
        let mut net = StoneAgeThreeColorMis::with_init(&g, InitStrategy::AllBlack, &mut r);
        for _ in 0..30 {
            let c = net.counts();
            assert_eq!(c.black, net.black_set().len());
            assert_eq!(c.active, net.active_set().len());
            assert_eq!(c.unstable, net.unstable_set().len());
            if net.is_stabilized() {
                break;
            }
            net.step(&mut r);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Stone-age adaptations reach a valid MIS on random graphs.
        #[test]
        fn stone_age_reaches_mis(seed in 0u64..5000, n in 1usize..35, p_edge in 0.0f64..0.8) {
            let mut r = rng(seed);
            let g = generators::gnp(n, p_edge, &mut r);
            let mut three_state = StoneAgeThreeStateMis::with_init(&g, InitStrategy::Random, &mut r);
            three_state.run_to_stabilization(&mut r, 200_000).unwrap();
            prop_assert!(mis_check::is_mis(&g, &three_state.black_set()));

            let mut three_color = StoneAgeThreeColorMis::with_init(&g, InitStrategy::Random, &mut r);
            three_color.run_to_stabilization(&mut r, 400_000).unwrap();
            prop_assert!(mis_check::is_mis(&g, &three_color.black_set()));
        }
    }
}
