use mis_graph::{Graph, VertexId};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use crate::algorithm::{Algorithm, FaultState};
use crate::engine::VertexClass;
use crate::exec::ExecutionMode;
use crate::init::InitStrategy;
use crate::rule::{LocalRule, RuleProcess};

/// Vertex state of the 2-state MIS process: black indicates (tentative)
/// membership in the MIS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Color {
    /// The vertex currently claims MIS membership.
    Black,
    /// The vertex currently does not claim MIS membership.
    White,
}

impl Color {
    /// `true` if the color is [`Color::Black`].
    pub fn is_black(self) -> bool {
        matches!(self, Color::Black)
    }
}

/// The 2-state family: a fault draws a fair color, and an adversary shows
/// the color it claims.
impl FaultState for Color {
    fn random(rng: &mut dyn RngCore) -> Self {
        if rng.gen_bool(0.5) {
            Color::Black
        } else {
            Color::White
        }
    }

    fn displayed(self, black: bool) -> Self {
        if black {
            Color::Black
        } else {
            Color::White
        }
    }
}

/// The 2-state local rule (Definition 4): a vertex is active (and pending —
/// the two coincide for this rule) iff it is black with a black neighbor or
/// white with no black neighbor, and an active vertex takes the color its
/// coin shows. Its one neighbor input is the beep bit: black vertices beep,
/// and a vertex hears whether some neighbor beeped.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoStateRule;

impl LocalRule for TwoStateRule {
    type State = Color;
    type Memory = Color;
    const PARTIAL_ACTIVATION: bool = true;

    fn code(state: Color) -> u8 {
        match state {
            Color::White => 0,
            Color::Black => 1,
        }
    }

    fn from_code(code: u8) -> Color {
        match code {
            0 => Color::White,
            1 => Color::Black,
            other => unreachable!("invalid 2-state code {other}"),
        }
    }

    fn is_black(state: Color) -> bool {
        state.is_black()
    }

    fn classify(
        &self,
        _u: VertexId,
        state: Color,
        hears_black: bool,
        _hears: impl Fn(Color) -> bool,
    ) -> VertexClass {
        let active = state.is_black() == hears_black;
        VertexClass {
            active,
            pending: active,
        }
    }

    fn decide(state: Color, coin: Option<bool>) -> Color {
        match coin {
            Some(true) => Color::Black,
            Some(false) => Color::White,
            None => state,
        }
    }

    fn states_per_vertex(&self) -> usize {
        2
    }

    fn memory(&self, _u: VertexId, state: Color) -> Color {
        state
    }

    fn set_memory(&mut self, _u: VertexId, memory: Color) -> Color {
        memory
    }
}

/// The **2-state MIS process** of Definition 4.
///
/// Each vertex holds a binary state (black/white), initialized arbitrarily.
/// In every synchronous round, each vertex whose state is *inconsistent* —
/// black with at least one black neighbor, or white with no black neighbor —
/// re-draws its state uniformly at random; consistent vertices keep their
/// state. The process is self-stabilizing: from any initial state vector it
/// reaches, with probability 1, a configuration where the black vertices form
/// a maximal independent set and no state ever changes again.
///
/// The process also exposes the vertex partitions used in the paper's
/// analysis: active vertices `A_t`, stable black vertices `I_t`, and
/// non-stable vertices `V_t` (Section 2.1).
///
/// It is the [`TwoStateRule`] run by [`RuleProcess`]: states are stored
/// bit-packed, a [`step`](Algorithm::step) costs `O(|A_t| + vol(A_t))`
/// rather than `O(n + m)`, and [`is_stabilized`](Algorithm::is_stabilized)
/// and [`counts`](Algorithm::counts) are `O(1)`;
/// [`step_reference`](TwoStateProcess::step_reference) retains the naive
/// full-scan path for differential testing. See
/// [`set_execution`](RuleProcess::set_execution) for the two randomness
/// models.
///
/// # Example
///
/// ```
/// use mis_core::{Algorithm, TwoStateProcess, init::InitStrategy};
/// use mis_graph::{generators, mis_check};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let g = generators::complete(64);
/// let mut p = TwoStateProcess::with_init(&g, InitStrategy::AllBlack, &mut rng);
/// p.run_to_stabilization(&mut rng, 10_000).unwrap();
/// assert_eq!(p.black_set().len(), 1); // an MIS of a clique is a single vertex
/// assert!(mis_check::is_mis(&g, &p.black_set()));
/// ```
pub type TwoStateProcess<'g> = RuleProcess<'g, TwoStateRule>;

impl<'g> TwoStateProcess<'g> {
    /// Creates the process on `graph` with the given initial state vector.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != graph.n()`.
    pub fn new(graph: &'g Graph, states: Vec<Color>) -> Self {
        RuleProcess::from_parts(graph, states, TwoStateRule, ExecutionMode::Sequential)
    }

    /// Creates the process with states drawn from an [`InitStrategy`].
    pub fn with_init<R: Rng + ?Sized>(graph: &'g Graph, init: InitStrategy, rng: &mut R) -> Self {
        Self::with_init_on(graph, init, rng, ExecutionMode::Sequential)
    }

    /// [`with_init`](Self::with_init) under `execution`, whose recount
    /// builds the engine (see [`RuleProcess::from_parts`]).
    pub(crate) fn with_init_on<R: Rng + ?Sized>(
        graph: &'g Graph,
        init: InitStrategy,
        rng: &mut R,
        execution: ExecutionMode,
    ) -> Self {
        RuleProcess::from_parts(
            graph,
            init.two_state(graph.n(), rng),
            TwoStateRule,
            execution,
        )
    }

    /// Current color of vertex `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn color(&self, u: VertexId) -> Color {
        self.state_of(u)
    }

    /// The full state vector (indexed by vertex id), materialized from the
    /// packed storage in `O(n)`.
    pub fn states(&self) -> Vec<Color> {
        self.state_vec()
    }

    /// Overwrites the state of a single vertex, e.g. to model a transient
    /// fault. Neighborhood bookkeeping is delta-updated in `O(deg(u))`; no
    /// full rebuild happens.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set_color(&mut self, u: VertexId, color: Color) {
        self.overwrite(u, color);
    }

    /// Executes one synchronous round with the naive full-scan reference
    /// implementation: rescan all vertices, recompute every black-neighbor
    /// count from scratch, `O(n + m)`.
    ///
    /// Semantically identical to a sequential-mode [`step`](Algorithm::step) —
    /// same states, same RNG stream — and retained as the oracle for the
    /// engine's trace-equality tests.
    pub fn step_reference(&mut self, rng: &mut dyn RngCore) {
        // Recount independently of the engine so the reference path does not
        // rely on the bookkeeping it is meant to check.
        let mut black_nbrs = vec![0u32; self.n()];
        for u in self.graph.get().vertices() {
            if TwoStateRule::from_code(self.states.get(u)).is_black() {
                for v in self.graph.get().neighbors(u) {
                    black_nbrs[v] += 1;
                }
            }
        }
        let next = self.states.clone();
        for u in self.graph.get().vertices() {
            let active = match TwoStateRule::from_code(self.states.get(u)) {
                Color::Black => black_nbrs[u] > 0,
                Color::White => black_nbrs[u] == 0,
            };
            if active {
                self.random_bits += 1;
                let color = if rng.gen_bool(0.5) {
                    Color::Black
                } else {
                    Color::White
                };
                next.set(u, TwoStateRule::code(color));
            }
        }
        self.states = next;
        self.rebuild_engine(1);
        self.round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::RoundStrategy;
    use mis_graph::{generators, mis_check, GraphDelta};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// The rule against Definition 4: a vertex is active (and pending) iff
    /// it is black with a black neighbor or white with none, and an active
    /// vertex takes the color its coin shows.
    #[test]
    fn rule_follows_definition_4() {
        for (state, hears_black, active) in [
            (Color::Black, false, false),
            (Color::Black, true, true),
            (Color::White, false, true),
            (Color::White, true, false),
        ] {
            let pending = active;
            let class = TwoStateRule.classify(0, state, hears_black, |_| unreachable!());
            assert_eq!(class, VertexClass { active, pending }, "{state:?}");
        }
        for state in [Color::Black, Color::White] {
            assert_eq!(TwoStateRule::decide(state, Some(true)), Color::Black);
            assert_eq!(TwoStateRule::decide(state, Some(false)), Color::White);
            assert_eq!(TwoStateRule::from_code(TwoStateRule::code(state)), state);
        }
    }

    #[test]
    #[should_panic(expected = "state vector length")]
    fn mismatched_init_length_panics() {
        let g = generators::path(3);
        TwoStateProcess::new(&g, vec![Color::White; 2]);
    }

    #[test]
    fn single_vertex_stabilizes_black() {
        let g = Graph::empty(1);
        let mut r = rng(0);
        let mut p = TwoStateProcess::with_init(&g, InitStrategy::AllWhite, &mut r);
        assert!(!p.is_stabilized()); // white isolated vertex is active
        let rounds = p.run_to_stabilization(&mut r, 1000).unwrap();
        assert!(rounds >= 1);
        assert!(p.color(0).is_black());
        assert!(p.is_stabilized());
    }

    #[test]
    fn already_stable_configuration_needs_no_rounds() {
        // Path 0-1-2 with only vertex 1 black is an MIS: stable immediately.
        let g = generators::path(3);
        let states = vec![Color::White, Color::Black, Color::White];
        let mut p = TwoStateProcess::new(&g, states);
        assert!(p.is_stabilized());
        let mut r = rng(1);
        assert_eq!(p.run_to_stabilization(&mut r, 10).unwrap(), 0);
        assert_eq!(p.random_bits_used(), 0);
    }

    #[test]
    fn all_black_clique_is_not_stable() {
        let g = generators::complete(5);
        let p = TwoStateProcess::new(&g, vec![Color::Black; 5]);
        assert!(!p.is_stabilized());
        assert_eq!(p.active_set().len(), 5);
        assert_eq!(p.stable_black_set().len(), 0);
        assert_eq!(p.unstable_set().len(), 5);
    }

    #[test]
    fn stabilizes_to_mis_on_various_graphs() {
        let mut r = rng(7);
        let graphs = vec![
            generators::complete(32),
            generators::path(50),
            generators::cycle(51),
            generators::star(40),
            generators::random_tree(100, &mut r),
            generators::gnp(150, 0.05, &mut r),
            generators::gnp(100, 0.5, &mut r),
            generators::disjoint_cliques(5, 8),
            generators::grid(8, 8),
            Graph::empty(20),
        ];
        for (i, g) in graphs.into_iter().enumerate() {
            for init in [
                InitStrategy::AllWhite,
                InitStrategy::AllBlack,
                InitStrategy::Random,
            ] {
                let mut p = TwoStateProcess::with_init(&g, init, &mut r);
                let rounds = p
                    .run_to_stabilization(&mut r, 100_000)
                    .unwrap_or_else(|e| panic!("graph {i} with {init:?} did not stabilize: {e}"));
                assert!(
                    mis_check::is_mis(&g, &p.black_set()),
                    "graph {i}, init {init:?}, after {rounds} rounds"
                );
                assert!(p.is_stabilized());
            }
        }
    }

    #[test]
    fn parallel_mode_stabilizes_to_mis() {
        let mut r = rng(71);
        let graphs = vec![
            generators::complete(32),
            generators::gnp(150, 0.05, &mut r),
            generators::grid(8, 8),
            Graph::empty(5),
        ];
        for (i, g) in graphs.into_iter().enumerate() {
            let mut p = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
            p.set_execution(ExecutionMode::Parallel { threads: 3 }, 0xA11CE + i as u64);
            assert!(p.execution_mode().is_parallel());
            p.run_to_stabilization(&mut r, 100_000)
                .unwrap_or_else(|e| panic!("graph {i}: {e}"));
            assert!(mis_check::is_mis(&g, &p.black_set()), "graph {i}");
        }
    }

    #[test]
    fn parallel_mode_is_thread_count_invariant() {
        let g = generators::gnp(120, 0.08, &mut rng(77));
        let mut outcomes = Vec::new();
        for threads in [1usize, 2, 5] {
            let mut r = rng(78);
            let mut p = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
            p.set_execution(ExecutionMode::Parallel { threads }, 99);
            for _ in 0..40 {
                if p.is_stabilized() {
                    break;
                }
                p.step(&mut r);
            }
            outcomes.push((p.states(), p.black_set(), p.counts(), p.random_bits_used()));
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], outcomes[2]);
    }

    #[test]
    fn stability_is_monotone() {
        // Once a vertex is stable it stays stable with the same color.
        let mut r = rng(11);
        let g = generators::gnp(80, 0.1, &mut r);
        let mut p = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        let mut stable_colors: Vec<Option<Color>> = vec![None; g.n()];
        for _ in 0..200 {
            for u in g.vertices() {
                if let Some(c) = stable_colors[u] {
                    assert_eq!(p.color(u), c, "stable vertex {u} changed color");
                    assert!(p.is_stable(u), "vertex {u} lost stability");
                } else if p.is_stable(u) {
                    stable_colors[u] = Some(p.color(u));
                }
            }
            if p.is_stabilized() {
                break;
            }
            p.step(&mut r);
        }
    }

    #[test]
    fn counts_are_consistent() {
        let mut r = rng(13);
        let g = generators::gnp(60, 0.1, &mut r);
        let mut p = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        for _ in 0..50 {
            let c = p.counts();
            assert_eq!(c.black + c.non_black, g.n());
            assert_eq!(c.black, p.black_set().len());
            assert_eq!(c.active, p.active_set().len());
            assert_eq!(c.stable_black, p.stable_black_set().len());
            assert_eq!(c.unstable, p.unstable_set().len());
            // I_t is independent and disjoint from the active set.
            assert!(mis_check::is_independent(&g, &p.stable_black_set()));
            assert!(p.stable_black_set().is_disjoint(&p.active_set()));
            if p.is_stabilized() {
                break;
            }
            p.step(&mut r);
        }
    }

    #[test]
    fn random_bits_accounting_matches_active_counts() {
        let mut r = rng(17);
        let g = generators::gnp(40, 0.2, &mut r);
        let mut p = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        let mut expected = 0u64;
        for _ in 0..30 {
            expected += p.counts().active as u64;
            p.step(&mut r);
        }
        assert_eq!(p.random_bits_used(), expected);
    }

    #[test]
    fn set_color_keeps_bookkeeping_consistent() {
        let mut r = rng(19);
        let g = generators::gnp(30, 0.3, &mut r);
        let mut p = TwoStateProcess::with_init(&g, InitStrategy::AllWhite, &mut r);
        p.set_color(0, Color::Black);
        p.set_color(5, Color::Black);
        p.set_color(5, Color::Black); // idempotent
        for u in g.vertices() {
            let expected = g
                .neighbors(u)
                .iter()
                .filter(|&v| p.color(v).is_black())
                .count();
            assert_eq!(p.black_neighbor_count(u), expected);
        }
        p.set_color(0, Color::White);
        for u in g.vertices() {
            let expected = g
                .neighbors(u)
                .iter()
                .filter(|&v| p.color(v).is_black())
                .count();
            assert_eq!(p.black_neighbor_count(u), expected);
        }
    }

    #[test]
    fn apply_mutation_matches_fresh_process_on_mutated_graph() {
        let mut r = rng(401);
        let g = generators::gnp(40, 0.15, &mut r);
        let mut p = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        for _ in 0..5 {
            p.step(&mut r);
        }
        let (eu, ev) = g.edges().next().expect("dense gnp has an edge");
        let mut delta = GraphDelta::new();
        delta
            .remove_edge(eu, ev)
            .add_edge(0, g.n() - 1)
            .add_vertex([0, 1])
            .detach_vertex(2);
        let committed = p.apply_mutation(&delta).unwrap();
        assert_eq!(committed.old_n, g.n());
        assert_eq!(committed.new_n, g.n() + 1);
        assert_eq!(p.n(), g.n() + 1);
        assert_eq!(p.color(g.n()), Color::White, "joined vertex starts white");
        // Oracle: a fresh process on the mutated graph with the same states
        // must have identical bookkeeping.
        let g2 = p.graph().clone();
        let fresh = TwoStateProcess::new(&g2, p.states());
        assert_eq!(fresh.counts(), p.counts());
        for u in g2.vertices() {
            assert_eq!(fresh.is_active(u), p.is_active(u), "active {u}");
            assert_eq!(fresh.is_stable(u), p.is_stable(u), "stable {u}");
            assert_eq!(
                fresh.black_neighbor_count(u),
                p.black_neighbor_count(u),
                "black_nbrs {u}"
            );
        }
        // And it re-stabilizes (incrementally) to an MIS of the NEW graph.
        p.run_to_stabilization(&mut r, 100_000).unwrap();
        assert!(mis_check::is_mis(&g2, &p.black_set()));
    }

    #[test]
    fn invalid_mutation_leaves_state_untouched() {
        let g = generators::path(4);
        let mut p = TwoStateProcess::new(
            &g,
            vec![Color::White, Color::Black, Color::White, Color::White],
        );
        let before_states = p.states();
        let before_counts = p.counts();
        let mut delta = GraphDelta::new();
        delta.add_edge(0, 99); // out of range
        assert!(p.apply_mutation(&delta).is_err());
        assert_eq!(p.states(), before_states);
        assert_eq!(p.counts(), before_counts);
        assert_eq!(p.n(), 4);
    }

    #[test]
    fn forced_strategies_are_bit_identical() {
        // auto, forced sparse, and forced dense must walk the exact same
        // trajectory (same states, same RNG stream, same counts) — the core
        // contract of the direction-optimizing engine.
        let g = generators::gnp(90, 0.1, &mut rng(301));
        let mut outcomes = Vec::new();
        for strategy in [
            RoundStrategy::Auto,
            RoundStrategy::Sparse,
            RoundStrategy::Dense,
        ] {
            let mut r = rng(302);
            let mut p = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
            p.set_strategy(strategy);
            assert_eq!(p.strategy(), strategy);
            let mut per_round = Vec::new();
            for _ in 0..40 {
                if p.is_stabilized() {
                    break;
                }
                p.step(&mut r);
                per_round.push((p.states(), p.counts(), p.random_bits_used()));
            }
            outcomes.push((per_round, p.black_set(), p.round()));
        }
        assert_eq!(outcomes[0], outcomes[1], "auto vs sparse");
        assert_eq!(outcomes[0], outcomes[2], "auto vs dense");
    }

    #[test]
    fn auto_switches_dense_to_sparse_as_the_frontier_collapses() {
        let n = 4000;
        let g = generators::gnp(n, 8.0 / n as f64, &mut rng(303));
        let mut r = rng(304);
        let mut p = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        // From a random init roughly half the vertices are active: dense.
        p.step(&mut r);
        assert!(p.last_round_was_dense(), "early phase should run dense");
        p.run_to_stabilization(&mut r, 100_000).unwrap();
        // A silent round on the stabilized configuration: sparse.
        p.step(&mut r);
        assert!(!p.last_round_was_dense(), "silent phase should run sparse");
    }

    #[test]
    fn parallel_dense_rounds_are_thread_count_invariant() {
        let g = generators::gnp(150, 0.1, &mut rng(305));
        let mut outcomes = Vec::new();
        for threads in [1usize, 3, 6] {
            let mut r = rng(306);
            let mut p = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
            p.set_execution(ExecutionMode::Parallel { threads }, 77);
            p.set_strategy(RoundStrategy::Dense);
            for _ in 0..25 {
                if p.is_stabilized() {
                    break;
                }
                p.step(&mut r);
            }
            outcomes.push((p.states(), p.black_set(), p.counts(), p.random_bits_used()));
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], outcomes[2]);
        // And the dense parallel trajectory equals the sparse parallel one.
        let mut r = rng(306);
        let mut sparse = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        sparse.set_execution(ExecutionMode::Parallel { threads: 2 }, 77);
        sparse.set_strategy(RoundStrategy::Sparse);
        for _ in 0..25 {
            if sparse.is_stabilized() {
                break;
            }
            sparse.step(&mut r);
        }
        assert_eq!(outcomes[0].0, sparse.states());
        assert_eq!(outcomes[0].3, sparse.random_bits_used());
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::gnp(80, 0.1, &mut rng(23));
        let run = |seed: u64| {
            let mut r = rng(seed);
            let mut p = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
            let rounds = p.run_to_stabilization(&mut r, 100_000).unwrap();
            (rounds, p.black_set())
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn fast_step_matches_reference_step() {
        let g = generators::gnp(70, 0.08, &mut rng(29));
        let mut r_fast = rng(31);
        let mut r_ref = rng(31);
        let mut fast = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r_fast);
        let mut reference = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r_ref);
        assert_eq!(fast.states(), reference.states());
        for round in 0..60 {
            assert_eq!(fast.counts(), reference.counts(), "round {round}");
            assert_eq!(fast.is_stabilized(), reference.is_stabilized());
            if fast.is_stabilized() {
                break;
            }
            fast.step(&mut r_fast);
            reference.step_reference(&mut r_ref);
            assert_eq!(fast.states(), reference.states(), "round {round}");
            assert_eq!(fast.random_bits_used(), reference.random_bits_used());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// From arbitrary initial states on random graphs, the process
        /// stabilizes and the result is an MIS.
        #[test]
        fn stabilizes_from_arbitrary_states(seed in 0u64..10_000, n in 1usize..60, p_edge in 0.0f64..1.0) {
            let mut r = rng(seed);
            let g = generators::gnp(n, p_edge, &mut r);
            let init: Vec<Color> =
                (0..n).map(|_| if rand::Rng::gen_bool(&mut r, 0.5) { Color::Black } else { Color::White }).collect();
            let mut proc = TwoStateProcess::new(&g, init);
            proc.run_to_stabilization(&mut r, 200_000).unwrap();
            prop_assert!(mis_check::is_mis(&g, &proc.black_set()));
        }
    }
}
