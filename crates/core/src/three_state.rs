use mis_graph::{Graph, VertexId};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use crate::algorithm::{Algorithm, FaultState};
use crate::engine::VertexClass;
use crate::exec::ExecutionMode;
use crate::init::InitStrategy;
use crate::rule::{LocalRule, RuleProcess};

/// Vertex state of the 3-state MIS process (Definition 5).
///
/// `Black1` and `Black0` are both "black" (MIS membership); the extra bit
/// lets a neighbor distinguish a *fresh* black claim (`Black1`) from a
/// *retiring* one (`Black0`) without collision detection, which is why this
/// variant fits the synchronous stone age model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ThreeState {
    /// Black with the "assert" bit set.
    Black1,
    /// Black with the "assert" bit cleared.
    Black0,
    /// Not in the MIS.
    White,
}

impl ThreeState {
    /// `true` for both black variants.
    pub fn is_black(self) -> bool {
        matches!(self, ThreeState::Black1 | ThreeState::Black0)
    }
}

/// The 3-state family: a fault draws one of the three states uniformly,
/// and an adversary claims membership loudly, as `Black1`, the letter that
/// retires every `black0` neighbor.
impl FaultState for ThreeState {
    fn random(rng: &mut dyn RngCore) -> Self {
        match rng.gen_range(0..3u8) {
            0 => ThreeState::Black1,
            1 => ThreeState::Black0,
            _ => ThreeState::White,
        }
    }

    fn displayed(self, black: bool) -> Self {
        if black {
            ThreeState::Black1
        } else {
            ThreeState::White
        }
    }
}

/// The 3-state local rule (Definition 5).
///
/// Active vertices re-draw from `{black1, black0}`; a non-active `black0`
/// vertex (one with a `black1` neighbor) retires to white, so every black
/// vertex is pending. A white vertex is pending iff it is active (no black
/// neighbor).
///
/// As a stone-age algorithm, `black1` sends letter 0 and `black0` letter 1.
/// The engine's neighbor input (some neighbor is black) is "heard some
/// letter", and a `black0` vertex that heard some asks `hears(Black1)`,
/// "heard letter 0", by scanning its neighbors: the two letter bits are all
/// the rule reads. A black vertex's `black1`↔`black0` flip re-queues its
/// neighbors, since a `black0` one may read it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreeStateRule;

impl LocalRule for ThreeStateRule {
    type State = ThreeState;
    type Memory = ThreeState;
    const PARTIAL_ACTIVATION: bool = true;

    fn code(state: ThreeState) -> u8 {
        match state {
            ThreeState::White => 0,
            ThreeState::Black1 => 1,
            ThreeState::Black0 => 2,
        }
    }

    fn from_code(code: u8) -> ThreeState {
        match code {
            0 => ThreeState::White,
            1 => ThreeState::Black1,
            2 => ThreeState::Black0,
            other => unreachable!("invalid 3-state code {other}"),
        }
    }

    fn is_black(state: ThreeState) -> bool {
        state.is_black()
    }

    fn classify(
        &self,
        _u: VertexId,
        state: ThreeState,
        hears_black: bool,
        hears: impl Fn(ThreeState) -> bool,
    ) -> VertexClass {
        let (active, pending) = match state {
            ThreeState::Black1 => (true, true),
            ThreeState::Black0 => (!hears_black || !hears(ThreeState::Black1), true),
            ThreeState::White => (!hears_black, !hears_black),
        };
        VertexClass { active, pending }
    }

    fn decide(_state: ThreeState, coin: Option<bool>) -> ThreeState {
        match coin {
            Some(true) => ThreeState::Black1,
            Some(false) => ThreeState::Black0,
            // Pending but not active: black0 with a black1 neighbor retires.
            None => ThreeState::White,
        }
    }

    fn states_per_vertex(&self) -> usize {
        3
    }

    fn memory(&self, _u: VertexId, state: ThreeState) -> ThreeState {
        state
    }

    fn set_memory(&mut self, _u: VertexId, memory: ThreeState) -> ThreeState {
        memory
    }

    fn requeues_neighbors(old: ThreeState, new: ThreeState) -> bool {
        old.is_black() && new.is_black() && old != new
    }
}

/// The **3-state MIS process** of Definition 5.
///
/// Update rule for vertex `u` with previous state `c` and neighbor states
/// `NC`:
///
/// * if `c = black1`, or (`c = black0` and `NC` contains no `black1`), or
///   (`c = white` and `NC` contains no black state) — draw a uniformly
///   random state from `{black1, black0}`;
/// * else if `c = black0` — become `white`;
/// * else — keep the state.
///
/// A *stable black* vertex (black with no black neighbor) keeps alternating
/// between `black1` and `black0` forever; stability is therefore defined on
/// the black/non-black projection, exactly as in the paper.
///
/// Note on isolated vertices: Definition 5 phrases the white condition as
/// `NC_t(u) = {white}`; for a vertex with no neighbors that set is empty, so
/// a literal reading would leave an isolated white vertex white forever and
/// the black set would never become maximal. We read the condition as "no
/// neighbor is black", which coincides with the paper on every vertex that
/// has at least one neighbor and makes isolated vertices join the MIS.
///
/// It is the [`ThreeStateRule`] run by [`RuleProcess`]: a
/// [`step`](Algorithm::step) touches only the frontier (black vertices and
/// active whites — stable black vertices keep alternating by definition, so
/// they stay on it) and the neighborhoods of vertices that changed, and
/// [`is_stabilized`](Algorithm::is_stabilized)/[`counts`](Algorithm::counts)
/// are `O(1)`. [`step_reference`](ThreeStateProcess::step_reference) retains the
/// naive full-scan path for differential testing.
///
/// # Example
///
/// ```
/// use mis_core::{Algorithm, ThreeStateProcess, init::InitStrategy};
/// use mis_graph::{generators, mis_check};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
/// let g = generators::complete(64);
/// let mut p = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut rng);
/// p.run_to_stabilization(&mut rng, 10_000).unwrap();
/// assert!(mis_check::is_mis(&g, &p.black_set()));
/// ```
pub type ThreeStateProcess<'g> = RuleProcess<'g, ThreeStateRule>;

impl<'g> ThreeStateProcess<'g> {
    /// Creates the process on `graph` with the given initial state vector.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != graph.n()`.
    pub fn new(graph: &'g Graph, states: Vec<ThreeState>) -> Self {
        Self::new_on(graph, states, ExecutionMode::Sequential)
    }

    /// [`new`](Self::new) under `execution`, whose recount builds the
    /// engine (see [`RuleProcess::from_parts`]).
    fn new_on(graph: &'g Graph, states: Vec<ThreeState>, execution: ExecutionMode) -> Self {
        RuleProcess::from_parts(graph, states, ThreeStateRule, execution)
    }

    /// Creates the process with states drawn from an [`InitStrategy`].
    pub fn with_init<R: Rng + ?Sized>(graph: &'g Graph, init: InitStrategy, rng: &mut R) -> Self {
        Self::with_init_on(graph, init, rng, ExecutionMode::Sequential)
    }

    /// [`with_init`](Self::with_init) under `execution`.
    pub(crate) fn with_init_on<R: Rng + ?Sized>(
        graph: &'g Graph,
        init: InitStrategy,
        rng: &mut R,
        execution: ExecutionMode,
    ) -> Self {
        Self::new_on(graph, init.three_state(graph.n(), rng), execution)
    }

    /// Current state of vertex `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn state(&self, u: VertexId) -> ThreeState {
        self.state_of(u)
    }

    /// The full state vector, materialized from the packed storage in `O(n)`.
    pub fn states(&self) -> Vec<ThreeState> {
        self.state_vec()
    }

    /// Number of `black1` neighbors of `u`, counted over `N(u)` in
    /// `O(deg u)`.
    pub fn black1_neighbor_count(&self, u: VertexId) -> usize {
        let black1 = |&v: &VertexId| self.state(v) == ThreeState::Black1;
        self.graph().neighbors(u).iter().filter(black1).count()
    }

    /// Overwrites the state of one vertex (transient-fault injection). All
    /// neighbor bookkeeping is delta-updated in `O(deg(u))`; no full rebuild
    /// happens.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set_state(&mut self, u: VertexId, state: ThreeState) {
        self.overwrite(u, state);
    }

    /// Executes one synchronous round with the naive full-scan reference
    /// implementation (`O(n + m)`): identical states and RNG stream as a
    /// sequential-mode [`step`](Algorithm::step), retained as the oracle for
    /// the engine's trace-equality tests.
    pub fn step_reference(&mut self, rng: &mut dyn RngCore) {
        let n = self.n();
        let mut black_nbrs = vec![0u32; n];
        let mut black1_nbrs = vec![0u32; n];
        for u in self.graph.get().vertices() {
            let s = ThreeStateRule::from_code(self.states.get(u));
            if s.is_black() {
                for v in self.graph.get().neighbors(u) {
                    black_nbrs[v] += 1;
                    if s == ThreeState::Black1 {
                        black1_nbrs[v] += 1;
                    }
                }
            }
        }
        let next = self.states.clone();
        for u in self.graph.get().vertices() {
            let s = ThreeStateRule::from_code(self.states.get(u));
            let active = match s {
                ThreeState::Black1 => true,
                ThreeState::Black0 => black1_nbrs[u] == 0,
                ThreeState::White => black_nbrs[u] == 0,
            };
            if active {
                self.random_bits += 1;
                let drawn = if rng.gen_bool(0.5) {
                    ThreeState::Black1
                } else {
                    ThreeState::Black0
                };
                next.set(u, ThreeStateRule::code(drawn));
            } else if s == ThreeState::Black0 {
                // black0 with a black1 neighbor retires to white.
                next.set(u, ThreeStateRule::code(ThreeState::White));
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
    use mis_graph::{generators, mis_check, GraphDelta, VertexSet};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// The rule against Definition 5: black1 always draws; black0 draws
    /// without a black1 neighbor and retires to white with one; white draws
    /// iff no neighbor is black. A draw picks black1 or black0.
    #[test]
    fn rule_follows_definition_5() {
        use ThreeState::{Black0, Black1, White};
        // Path 0 - 1 - 2: vertex 1 has a black1 neighbor, vertex 2 none.
        let g = &generators::path(3);
        let states = [Black1, Black0, Black0];
        let hears = |u: VertexId| move |s| g.neighbors(u).into_iter().any(|v| states[v] == s);
        let rule = ThreeStateRule;
        let class = |active, pending| VertexClass { active, pending };
        assert_eq!(rule.classify(0, Black1, true, hears(0)), class(true, true));
        assert_eq!(rule.classify(1, Black0, true, hears(1)), class(false, true));
        assert_eq!(rule.classify(2, Black0, true, hears(2)), class(true, true));
        assert_eq!(rule.classify(2, White, false, hears(2)), class(true, true));
        assert_eq!(rule.classify(2, White, true, hears(2)), class(false, false));
        for state in [Black1, Black0, White] {
            assert_eq!(ThreeStateRule::decide(state, Some(true)), Black1);
            assert_eq!(ThreeStateRule::decide(state, Some(false)), Black0);
            assert_eq!(
                ThreeStateRule::from_code(ThreeStateRule::code(state)),
                state
            );
        }
        assert_eq!(ThreeStateRule::decide(Black0, None), White);
    }

    #[test]
    fn apply_mutation_matches_fresh_process_on_mutated_graph() {
        let mut r = rng(402);
        let g = generators::gnp(40, 0.15, &mut r);
        let mut p = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut r);
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
        assert_eq!(committed.new_n, g.n() + 1);
        assert_eq!(p.n(), g.n() + 1);
        assert_eq!(p.state(g.n()), ThreeState::White, "joined vertex is white");
        let g2 = p.graph().clone();
        let fresh = ThreeStateProcess::new(&g2, p.states());
        assert_eq!(fresh.counts(), p.counts());
        for u in g2.vertices() {
            assert_eq!(fresh.is_active(u), p.is_active(u), "active {u}");
            assert_eq!(fresh.is_stable(u), p.is_stable(u), "stable {u}");
            assert_eq!(
                fresh.black_neighbor_count(u),
                p.black_neighbor_count(u),
                "black_nbrs {u}"
            );
            assert_eq!(
                fresh.black1_neighbor_count(u),
                p.black1_neighbor_count(u),
                "black1 neighbors {u}"
            );
        }
        p.run_to_stabilization(&mut r, 100_000).unwrap();
        assert!(mis_check::is_mis(&g2, &p.black_set()));
    }

    #[test]
    fn invalid_mutation_leaves_state_untouched() {
        let g = generators::path(4);
        let mut p = ThreeStateProcess::new(
            &g,
            vec![
                ThreeState::White,
                ThreeState::Black1,
                ThreeState::Black0,
                ThreeState::White,
            ],
        );
        let before_states = p.states();
        let before_counts = p.counts();
        let mut delta = GraphDelta::new();
        delta.detach_vertex(99); // out of range
        assert!(p.apply_mutation(&delta).is_err());
        assert_eq!(p.states(), before_states);
        assert_eq!(p.counts(), before_counts);
        assert_eq!(p.n(), 4);
    }

    #[test]
    fn isolated_vertex_joins_the_mis() {
        let g = Graph::empty(3);
        let mut r = rng(0);
        let mut p = ThreeStateProcess::with_init(&g, InitStrategy::AllWhite, &mut r);
        p.run_to_stabilization(&mut r, 1000).unwrap();
        assert_eq!(p.black_set().len(), 3);
        assert!(mis_check::is_mis(&g, &p.black_set()));
    }

    #[test]
    fn stable_black_vertices_keep_alternating_but_stay_black() {
        let g = generators::path(3);
        // Vertex 1 black, others white: an MIS, so stable immediately.
        let mut p = ThreeStateProcess::new(
            &g,
            vec![ThreeState::White, ThreeState::Black1, ThreeState::White],
        );
        assert!(p.is_stabilized());
        let mut r = rng(1);
        let mut seen_black1 = false;
        let mut seen_black0 = false;
        for _ in 0..20 {
            p.step(&mut r);
            assert!(p.is_stabilized());
            assert!(p.state(1).is_black());
            assert!(!p.state(0).is_black() && !p.state(2).is_black());
            match p.state(1) {
                ThreeState::Black1 => seen_black1 = true,
                ThreeState::Black0 => seen_black0 = true,
                ThreeState::White => unreachable!("stable black vertex became white"),
            }
        }
        assert!(
            seen_black1 && seen_black0,
            "stable black vertex should alternate"
        );
    }

    #[test]
    fn black0_with_black1_neighbor_retires_to_white() {
        let g = generators::path(2);
        let mut p = ThreeStateProcess::new(&g, vec![ThreeState::Black0, ThreeState::Black1]);
        // Vertex 0: black0 with a black1 neighbor -> not active -> becomes white.
        assert!(!p.is_active(0));
        assert!(p.is_active(1)); // black1 is always active
        let mut r = rng(2);
        p.step(&mut r);
        assert_eq!(p.state(0), ThreeState::White);
        assert!(p.state(1).is_black());
    }

    #[test]
    fn stabilizes_to_mis_on_various_graphs() {
        let mut r = rng(7);
        let graphs = vec![
            generators::complete(32),
            generators::path(50),
            generators::cycle(33),
            generators::star(40),
            generators::random_tree(100, &mut r),
            generators::gnp(120, 0.08, &mut r),
            generators::gnp(80, 0.6, &mut r),
            generators::disjoint_cliques(4, 9),
        ];
        for (i, g) in graphs.into_iter().enumerate() {
            for init in [
                InitStrategy::AllWhite,
                InitStrategy::AllBlack,
                InitStrategy::Random,
            ] {
                let mut p = ThreeStateProcess::with_init(&g, init, &mut r);
                p.run_to_stabilization(&mut r, 100_000)
                    .unwrap_or_else(|e| panic!("graph {i} with {init:?}: {e}"));
                assert!(
                    mis_check::is_mis(&g, &p.black_set()),
                    "graph {i}, init {init:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_mode_stabilizes_and_is_thread_count_invariant() {
        let g = generators::gnp(100, 0.08, &mut rng(61));
        let mut outcomes = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut r = rng(62);
            let mut p = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut r);
            p.set_execution(ExecutionMode::Parallel { threads }, 7);
            for _ in 0..50 {
                if p.is_stabilized() {
                    break;
                }
                p.step(&mut r);
            }
            outcomes.push((p.states(), p.black_set(), p.counts(), p.random_bits_used()));
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], outcomes[2]);
        // And the black projection stabilizes to an MIS eventually.
        let mut r = rng(63);
        let mut p = ThreeStateProcess::with_init(&g, InitStrategy::AllBlack, &mut r);
        p.set_execution(ExecutionMode::Parallel { threads: 3 }, 8);
        p.run_to_stabilization(&mut r, 100_000).unwrap();
        assert!(mis_check::is_mis(&g, &p.black_set()));
    }

    #[test]
    fn counts_consistency() {
        let mut r = rng(9);
        let g = generators::gnp(50, 0.15, &mut r);
        let mut p = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        for _ in 0..40 {
            let c = p.counts();
            assert_eq!(c.black + c.non_black, g.n());
            assert_eq!(c.black, p.black_set().len());
            assert_eq!(c.active, p.active_set().len());
            assert!(mis_check::is_independent(&g, &p.stable_black_set()));
            if p.is_stabilized() {
                break;
            }
            p.step(&mut r);
        }
    }

    #[test]
    fn set_state_refreshes_bookkeeping() {
        let g = generators::complete(4);
        let mut p = ThreeStateProcess::new(&g, vec![ThreeState::White; 4]);
        p.set_state(0, ThreeState::Black1);
        assert!(
            !p.is_active(1),
            "white vertex with a black neighbor is not active"
        );
        assert_eq!(p.black1_neighbor_count(1), 1);
        p.set_state(0, ThreeState::White);
        assert!(p.is_active(1));
        assert_eq!(p.black1_neighbor_count(1), 0);
    }

    #[test]
    fn fast_step_matches_reference_step() {
        let g = generators::gnp(60, 0.1, &mut rng(41));
        let mut r_fast = rng(43);
        let mut r_ref = rng(43);
        let mut fast = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut r_fast);
        let mut reference = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut r_ref);
        for round in 0..60 {
            assert_eq!(fast.counts(), reference.counts(), "round {round}");
            fast.step(&mut r_fast);
            reference.step_reference(&mut r_ref);
            assert_eq!(fast.states(), reference.states(), "round {round}");
            assert_eq!(fast.random_bits_used(), reference.random_bits_used());
        }
    }

    #[test]
    #[should_panic(expected = "state vector length")]
    fn mismatched_init_panics() {
        let g = generators::path(3);
        ThreeStateProcess::new(&g, vec![ThreeState::White; 5]);
    }

    /// Fails unless `p` agrees with a process built fresh from its graph and
    /// states: every vertex's flags and neighbor counts, and the counts.
    fn check_against_fresh(p: &ThreeStateProcess<'_>, ctx: &str) -> Result<(), TestCaseError> {
        let g = p.graph().clone();
        let fresh = ThreeStateProcess::new(&g, p.states());
        prop_assert!(fresh.counts() == p.counts(), "counts: {ctx}");
        for u in g.vertices() {
            prop_assert!(fresh.is_active(u) == p.is_active(u), "active {u}: {ctx}");
            prop_assert!(fresh.is_stable(u) == p.is_stable(u), "stable {u}: {ctx}");
            prop_assert!(
                fresh.is_stable_black(u) == p.is_stable_black(u),
                "stable black {u}: {ctx}"
            );
            prop_assert!(
                fresh.black_neighbor_count(u) == p.black_neighbor_count(u),
                "black neighbors {u}: {ctx}"
            );
            prop_assert!(
                fresh.black1_neighbor_count(u) == p.black1_neighbor_count(u),
                "black1 neighbors {u}: {ctx}"
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Full and scheduled rounds, faults, Byzantine overrides and
        /// topology mutations, interleaved under each round strategy and
        /// both randomness models: after every op the process agrees with
        /// one built fresh from its graph and states. A `black1`↔`black0`
        /// flip keeps a vertex black, so only the re-queue of its neighbors
        /// keeps their classification exact on a sparse round, a scheduled
        /// round and a fault.
        #[test]
        fn interleaved_ops_match_a_fresh_process(
            seed in 0u64..10_000,
            n in 2usize..40,
            p_edge in 0.0f64..0.4,
            strategy in 0u8..3,
            parallel in any::<bool>(),
            ops in proptest::collection::vec((0u8..5, 0.0f64..1.0, 0usize..64, 0usize..64), 1..16),
        ) {
            let mut r = rng(seed);
            let g = generators::gnp(n, p_edge, &mut r);
            let mut p = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut r);
            p.set_strategy(match strategy {
                0 => RoundStrategy::Sparse,
                1 => RoundStrategy::Dense,
                _ => RoundStrategy::Auto,
            });
            if parallel {
                p.set_execution(ExecutionMode::Parallel { threads: 2 }, seed);
            }
            for (i, &(kind, x, a, b)) in ops.iter().enumerate() {
                let n = p.n();
                let (a, b) = (a % n, b % n);
                match kind {
                    0 => p.step(&mut r),
                    1 => {
                        let scheduled = VertexSet::from_indices(n, (0..n).filter(|_| r.gen_bool(x)));
                        p.step_scheduled(&scheduled, &mut r);
                    }
                    2 => {
                        p.inject_faults(x, &mut r);
                    }
                    3 => {
                        p.set_byzantine_state(a, x < 0.5);
                    }
                    _ => {
                        let mut delta = GraphDelta::new();
                        if a != b {
                            if p.graph().has_edge(a, b) {
                                delta.remove_edge(a, b);
                            } else {
                                delta.add_edge(a, b);
                            }
                        }
                        if x < 0.3 {
                            delta.add_vertex([a]);
                        } else if x > 0.7 {
                            delta.detach_vertex(b);
                        }
                        p.apply_mutation(&delta).expect("valid delta");
                    }
                }
                check_against_fresh(&p, &format!("op {i} (kind {kind}), seed {seed}"))?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]

        /// The 3-state process stabilizes to an MIS from arbitrary states.
        #[test]
        fn stabilizes_from_arbitrary_states(seed in 0u64..10_000, n in 1usize..50, p_edge in 0.0f64..1.0) {
            let mut r = rng(seed);
            let g = generators::gnp(n, p_edge, &mut r);
            let init: Vec<ThreeState> = (0..n)
                .map(|_| match rand::Rng::gen_range(&mut r, 0..3) {
                    0 => ThreeState::Black1,
                    1 => ThreeState::Black0,
                    _ => ThreeState::White,
                })
                .collect();
            let mut proc = ThreeStateProcess::new(&g, init);
            proc.run_to_stabilization(&mut r, 200_000).unwrap();
            prop_assert!(mis_check::is_mis(&g, &proc.black_set()));
        }
    }
}
