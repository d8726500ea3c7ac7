use std::sync::Arc;

use mis_graph::{Graph, VertexId, VertexSet};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use crate::algorithm::{Algorithm, FaultState};
use crate::counter_rng::CounterRng;
use crate::engine::VertexClass;
use crate::init::InitStrategy;
use crate::log_switch::{RandomizedLogSwitch, SwitchProcess, DEFAULT_ZETA};
use crate::mutation::MutationError;
use crate::packed::PackedStates;
use crate::rule::{LocalRule, RuleProcess};

/// The switch parameter `a` used by the paper when instantiating the 3-color
/// process (Definition 28): the logarithmic switch is an `(a, 3)`-switch with
/// `a = 512`, corresponding to `ζ = 4/a = 2⁻⁷` for the randomized switch.
pub const LOG_SWITCH_A: f64 = 512.0;

/// Vertex color of the 3-color MIS process (Definition 28).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ThreeColor {
    /// The vertex currently claims MIS membership.
    Black,
    /// The vertex does not claim membership and may become black when it has
    /// no black neighbor.
    White,
    /// The vertex recently retreated from black; it behaves like white for
    /// its neighbors but cannot turn black again until its switch turns on
    /// and releases it to white.
    Gray,
}

impl ThreeColor {
    /// `true` if the color is [`ThreeColor::Black`].
    pub fn is_black(self) -> bool {
        matches!(self, ThreeColor::Black)
    }
}

/// The 3-color family's memory is a color and a switch level (`0..=5`): a
/// fault draws both uniformly, and an adversary overrides only the color
/// its neighbors observe while its switch keeps ticking.
impl FaultState for (ThreeColor, u8) {
    fn random(rng: &mut dyn RngCore) -> Self {
        let color = match rng.gen_range(0..3u8) {
            0 => ThreeColor::Black,
            1 => ThreeColor::Gray,
            _ => ThreeColor::White,
        };
        (color, (rng.next_u32() % 6) as u8)
    }

    fn displayed(self, black: bool) -> Self {
        let color = if black {
            ThreeColor::Black
        } else {
            ThreeColor::White
        };
        (color, self.1)
    }
}

/// The 3-color local rule (Definition 28), with its switch sub-process `S`.
///
/// Black/white vertices are active (and pending) by the 2-state rule; on
/// tails an active black vertex retreats to gray. Gray vertices never draw
/// and are pending only while their switch is on, the one condition under
/// which they turn white. The color update of round `t` reads the switch
/// output of round `t − 1`; the switch then steps, and a parked gray vertex
/// is re-queued when its output changes (see
/// [`SwitchProcess::for_each_changed`]). The switch is a phase clock that
/// advances every vertex every round, so the rule keeps the default
/// [`LocalRule::PARTIAL_ACTIVATION`] of `false`.
#[derive(Debug, Clone)]
pub struct ThreeColorRule<S> {
    switch: S,
}

impl<S: SwitchProcess> LocalRule for ThreeColorRule<S> {
    type State = ThreeColor;
    type Memory = (ThreeColor, u8);

    fn code(state: ThreeColor) -> u8 {
        match state {
            ThreeColor::White => 0,
            ThreeColor::Black => 1,
            ThreeColor::Gray => 2,
        }
    }

    fn from_code(code: u8) -> ThreeColor {
        match code {
            0 => ThreeColor::White,
            1 => ThreeColor::Black,
            2 => ThreeColor::Gray,
            other => unreachable!("invalid 3-color code {other}"),
        }
    }

    fn is_black(state: ThreeColor) -> bool {
        state.is_black()
    }

    fn classify(&self, u: VertexId, state: ThreeColor, black_nbrs: u32) -> VertexClass {
        let active = match state {
            ThreeColor::Black => black_nbrs > 0,
            ThreeColor::White => black_nbrs == 0,
            ThreeColor::Gray => {
                return VertexClass {
                    active: false,
                    pending: self.switch.is_on(u),
                }
            }
        };
        VertexClass {
            active,
            pending: active,
        }
    }

    fn decide(state: ThreeColor, coin: Option<bool>) -> ThreeColor {
        match (state, coin) {
            (_, Some(true)) => ThreeColor::Black,
            (ThreeColor::Black, Some(false)) => ThreeColor::Gray,
            (_, Some(false)) => ThreeColor::White,
            // Pending but not active: gray with its switch on. Gray behaves
            // like white for its neighbors, so blackness is unchanged.
            (_, None) => ThreeColor::White,
        }
    }

    fn states_per_vertex(&self) -> usize {
        3 * self.switch.states_per_vertex()
    }

    fn memory(&self, u: VertexId, state: ThreeColor) -> (ThreeColor, u8) {
        (state, self.switch.level(u))
    }

    fn set_memory(&mut self, u: VertexId, (color, level): (ThreeColor, u8)) -> ThreeColor {
        self.switch.set_level(u, level);
        color
    }

    fn rebind(&mut self, graph: &Arc<Graph>) -> Result<(), MutationError> {
        self.switch.rebind_graph(graph)
    }

    fn advance(&mut self, rng: &mut dyn RngCore) {
        self.switch.step(rng);
    }

    fn advance_counter(&mut self, counter: &CounterRng) {
        self.switch.step_counter(counter);
    }

    fn for_each_requeue(&self, states: &PackedStates, mut mark: impl FnMut(VertexId)) {
        let gray = Self::code(ThreeColor::Gray);
        self.switch.for_each_changed(&mut |u| {
            if states.get(u) == gray {
                mark(u);
            }
        });
    }

    fn sub_random_bits(&self) -> u64 {
        self.switch.random_bits_used()
    }
}

/// The **3-color MIS process** of Definition 28: the 2-state process extended
/// with a gray color and a [`SwitchProcess`] that controls how quickly gray
/// vertices may return to white (and hence how often a vertex can flip from
/// white to black).
///
/// Differences from the 2-state rule:
///
/// * a black vertex with a black neighbor moves to **gray** (not white) with
///   probability 1/2;
/// * a gray vertex becomes white only when its switch output is `on`;
/// * neighbors treat gray exactly like white.
///
/// Instantiated with the [`RandomizedLogSwitch`] (6 states) this gives
/// 3 × 6 = 18 states per vertex and stabilizes in polylog rounds on `G(n,p)`
/// for **every** `0 ≤ p ≤ 1` (Theorem 3 / Theorem 32).
///
/// It is the [`ThreeColorRule`] run by [`RuleProcess`]. Its frontier `F_t`
/// holds the active vertices and the gray vertices whose switch is on; a
/// gray vertex whose switch is off waits off the frontier until the switch
/// reports that its output changed. With the [`RandomizedLogSwitch`], which
/// also steps incrementally, a round costs
/// `O(|F_t| + vol(C_t) + |L₅| + vol(P_t) + vol(Δ_t) + n/64)`: the frontier,
/// the volume of the color changes `C_t`, one coin per level-5 vertex, the
/// max rule at the switch's pending vertices `P_t`, the neighbor lists of
/// the level changes `Δ_t`, and one pass over the switch's bitset words.
/// [`is_stabilized`](Algorithm::is_stabilized) is `O(1)`.
/// [`step_reference`](ThreeColorProcess::step_reference) retains the naive
/// full scan of colors and levels for differential testing. Under
/// [`ExecutionMode::Parallel`](crate::ExecutionMode::Parallel) both
/// sub-processes use counter-based draws (`DRAW_STATE` for colors,
/// `DRAW_SWITCH` for the switch).
///
/// # Example
///
/// ```
/// use mis_core::{Algorithm, ThreeColorProcess, init::InitStrategy};
/// use mis_graph::{generators, mis_check};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(8);
/// let g = generators::gnp(200, 0.3, &mut rng);
/// let mut p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut rng);
/// assert_eq!(p.states_per_vertex(), 18);
/// p.run_to_stabilization(&mut rng, 50_000).unwrap();
/// assert!(mis_check::is_mis(&g, &p.black_set()));
/// ```
pub type ThreeColorProcess<'g, S> = RuleProcess<'g, ThreeColorRule<S>>;

impl<'g> ThreeColorProcess<'g, RandomizedLogSwitch<'g>> {
    /// Creates the process with the paper's instantiation: the randomized
    /// logarithmic switch with `ζ = 2⁻⁷` (18 states per vertex in total).
    /// Both the colors and the switch levels are drawn from `init`.
    pub fn with_randomized_switch<R: Rng + ?Sized>(
        graph: &'g Graph,
        init: InitStrategy,
        rng: &mut R,
    ) -> Self {
        let colors = init.three_color(graph.n(), rng);
        let switch = RandomizedLogSwitch::with_init(graph, init, DEFAULT_ZETA, rng);
        Self::new(graph, colors, switch)
    }
}

impl ThreeColorProcess<'_, RandomizedLogSwitch<'_>> {
    /// Overwrites the switch level of one vertex (transient-fault
    /// injection) and reclassifies the vertex, whose frontier membership
    /// follows its switch output while it is gray.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range or `level > 5`.
    pub fn set_switch_level(&mut self, u: VertexId, level: u8) {
        self.replace_memory(u, (self.color(u), level));
    }
}

impl<'g, S: SwitchProcess> ThreeColorProcess<'g, S> {
    /// Creates the process from an explicit color vector and switch instance.
    ///
    /// # Panics
    ///
    /// Panics if `colors.len() != graph.n()` or the switch is defined over a
    /// different number of vertices.
    pub fn new(graph: &'g Graph, colors: Vec<ThreeColor>, switch: S) -> Self {
        assert_eq!(
            switch.n(),
            graph.n(),
            "switch must be defined over the same vertex set"
        );
        RuleProcess::from_parts(graph, colors, ThreeColorRule { switch })
    }

    /// The switch sub-process.
    pub fn switch(&self) -> &S {
        &self.rule.switch
    }

    /// Current color of vertex `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn color(&self, u: VertexId) -> ThreeColor {
        self.state_of(u)
    }

    /// The full color vector, materialized from the packed storage in `O(n)`.
    pub fn colors(&self) -> Vec<ThreeColor> {
        self.state_vec()
    }

    /// The current set of gray vertices `Γ_t`.
    pub fn gray_set(&self) -> VertexSet {
        VertexSet::from_indices(
            self.n(),
            self.graph
                .get()
                .vertices()
                .filter(|&u| self.color(u) == ThreeColor::Gray),
        )
    }

    /// Overwrites the color of one vertex (transient-fault injection). The
    /// neighborhood bookkeeping is delta-updated in `O(deg(u))`; no full
    /// rebuild happens.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set_color(&mut self, u: VertexId, color: ThreeColor) {
        self.overwrite(u, color);
    }

    /// Executes one synchronous round with the naive full-scan reference
    /// implementation (`O(n + m)`): identical colors, switch evolution, and
    /// RNG stream as a sequential-mode [`step`](Algorithm::step), retained as
    /// the oracle for the engine's trace-equality tests. The switch takes its
    /// own full-sweep [`step_reference`](SwitchProcess::step_reference).
    pub fn step_reference(&mut self, rng: &mut dyn RngCore) {
        let mut black_nbrs = vec![0u32; self.n()];
        for u in self.graph.get().vertices() {
            if ThreeColorRule::<S>::from_code(self.states.get(u)).is_black() {
                for v in self.graph.get().neighbors(u) {
                    black_nbrs[v] += 1;
                }
            }
        }
        let next = self.states.clone();
        for u in self.graph.get().vertices() {
            let new = match ThreeColorRule::<S>::from_code(self.states.get(u)) {
                ThreeColor::Black if black_nbrs[u] > 0 => {
                    self.random_bits += 1;
                    if rng.gen_bool(0.5) {
                        ThreeColor::Black
                    } else {
                        ThreeColor::Gray
                    }
                }
                ThreeColor::White if black_nbrs[u] == 0 => {
                    self.random_bits += 1;
                    if rng.gen_bool(0.5) {
                        ThreeColor::Black
                    } else {
                        ThreeColor::White
                    }
                }
                ThreeColor::Gray if self.rule.switch.is_on(u) => ThreeColor::White,
                other => other,
            };
            next.set(u, ThreeColorRule::<S>::code(new));
        }
        self.states = next;
        self.rule.switch.step_reference(rng);
        self.rebuild_engine();
        self.round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecutionMode, RoundStrategy};
    use crate::log_switch::FixedPeriodSwitch;
    use mis_graph::{generators, mis_check, GraphDelta};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// The rule against Definition 28: black and white vertices follow the
    /// 2-state rule, except that tails send a black vertex to gray; a gray
    /// vertex never draws, and is pending (turning white) exactly while its
    /// switch is on.
    #[test]
    fn rule_follows_definition_28() {
        use ThreeColor::{Black, Gray, White};
        type Rule = ThreeColorRule<FixedPeriodSwitch>;
        let class = |active, pending| VertexClass { active, pending };
        let always = |on: bool| ThreeColorRule {
            switch: FixedPeriodSwitch::new(1, usize::from(on), usize::from(!on)),
        };
        assert_eq!(always(true).classify(0, Gray, 0), class(false, true));
        assert_eq!(always(false).classify(0, Gray, 0), class(false, false));
        let rule = always(true);
        assert_eq!(rule.classify(0, Black, 1), class(true, true));
        assert_eq!(rule.classify(0, Black, 0), class(false, false));
        assert_eq!(rule.classify(0, White, 0), class(true, true));
        assert_eq!(rule.classify(0, White, 2), class(false, false));
        assert_eq!(Rule::decide(Black, Some(true)), Black);
        assert_eq!(Rule::decide(Black, Some(false)), Gray);
        assert_eq!(Rule::decide(White, Some(true)), Black);
        assert_eq!(Rule::decide(White, Some(false)), White);
        assert_eq!(Rule::decide(Gray, None), White);
        for color in [Black, White, Gray] {
            assert_eq!(Rule::from_code(Rule::code(color)), color);
        }
    }

    #[test]
    fn apply_mutation_matches_fresh_process_on_mutated_graph() {
        let mut r = rng(403);
        let g = generators::gnp(40, 0.15, &mut r);
        let mut p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r);
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
        assert_eq!(p.switch().n(), p.n(), "switch follows the graph");
        assert_eq!(p.color(g.n()), ThreeColor::White, "joined vertex is white");
        let g2 = p.graph().clone();
        let levels: Vec<u8> = g2.vertices().map(|u| p.switch().level(u)).collect();
        let fresh_switch = RandomizedLogSwitch::new(&g2, levels, p.switch().zeta());
        let fresh = ThreeColorProcess::new(&g2, p.colors(), fresh_switch);
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
        p.run_to_stabilization(&mut r, 100_000).unwrap();
        assert!(mis_check::is_mis(&g2, &p.black_set()));
    }

    #[test]
    fn mutation_with_non_rebindable_switch_is_rejected_untouched() {
        // A switch with no `rebind_graph` override declines topology
        // changes; the process must report Unsupported without mutating
        // anything.
        struct FrozenSwitch(usize);
        impl SwitchProcess for FrozenSwitch {
            fn n(&self) -> usize {
                self.0
            }
            fn step(&mut self, _rng: &mut dyn RngCore) {}
            fn step_counter(&mut self, _counter: &CounterRng) {}
            fn is_on(&self, _u: VertexId) -> bool {
                true
            }
            fn states_per_vertex(&self) -> usize {
                1
            }
            fn random_bits_used(&self) -> u64 {
                0
            }
        }

        let g = generators::path(4);
        let colors = vec![
            ThreeColor::White,
            ThreeColor::Black,
            ThreeColor::Gray,
            ThreeColor::White,
        ];
        let mut p = ThreeColorProcess::new(&g, colors.clone(), FrozenSwitch(4));
        let before_counts = p.counts();
        let mut delta = GraphDelta::new();
        delta.add_vertex([0]);
        assert_eq!(p.apply_mutation(&delta), Err(MutationError::Unsupported));
        assert_eq!(p.colors(), colors);
        assert_eq!(p.counts(), before_counts);
        assert_eq!(p.n(), 4);
    }

    #[test]
    fn invalid_mutation_leaves_state_untouched() {
        let mut r = rng(7);
        let g = generators::path(4);
        let mut p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r);
        let before_colors = p.colors();
        let before_counts = p.counts();
        let mut delta = GraphDelta::new();
        delta.add_edge(1, 1); // self-loop
        assert!(p.apply_mutation(&delta).is_err());
        assert_eq!(p.colors(), before_colors);
        assert_eq!(p.counts(), before_counts);
        assert_eq!(p.n(), 4);
    }

    #[test]
    fn eighteen_states_with_randomized_switch() {
        let g = generators::path(4);
        let mut r = rng(0);
        let p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r);
        assert_eq!(p.states_per_vertex(), 18);
    }

    #[test]
    fn gray_waits_for_switch_then_becomes_white() {
        // Single edge, both endpoints black: each flips a coin between black
        // and gray. Force a deterministic scenario with the oracle switch:
        // off for 5 rounds then on.
        let g = generators::path(2);
        let colors = vec![ThreeColor::Gray, ThreeColor::White];
        // Switch: off for first 3 rounds, then on for 1, repeating (on_rounds
        // counts from round 0, so use off-first by starting on=0? The fixed
        // switch is on first; use on_rounds=0 is invalid, so emulate
        // off-first by a long on period and checking behaviour instead).
        let switch = FixedPeriodSwitch::new(2, 1, 3);
        let mut p = ThreeColorProcess::new(&g, colors, switch);
        // Round 1 uses σ_0 = on, so the gray vertex is released to white
        // immediately; the white vertex 1 has no black neighbor so it flips.
        let mut r = rng(1);
        p.step(&mut r);
        assert_ne!(p.color(0), ThreeColor::Gray);
    }

    #[test]
    fn parked_gray_vertex_turns_white_one_round_after_its_clock_turns_on() {
        // Vertex 1 is stable black, so gray vertex 0 only waits for its
        // switch. The clock is on in rounds ≡ 0 (mod 4) and starts at round
        // 1, off. Every step path must keep vertex 0 off the frontier while
        // the clock is off and release it the round after it turns on.
        let g = generators::path(2);
        for mode in [
            ExecutionMode::Sequential,
            ExecutionMode::Parallel { threads: 2 },
        ] {
            for strategy in [RoundStrategy::Sparse, RoundStrategy::Dense] {
                let ctx = format!("{mode:?}, {strategy:?}");
                let mut switch = FixedPeriodSwitch::new(2, 1, 3);
                switch.step(&mut rng(0));
                let mut p =
                    ThreeColorProcess::new(&g, vec![ThreeColor::Gray, ThreeColor::Black], switch);
                p.set_execution(mode, 5);
                p.set_strategy(strategy);
                let mut r = rng(1);
                for _ in 0..3 {
                    assert!(!p.engine().is_pending(0), "parked while off: {ctx}");
                    assert_eq!(p.engine().frontier_len(), 0, "{ctx}");
                    p.step(&mut r);
                    assert_eq!(p.color(0), ThreeColor::Gray, "{ctx}");
                }
                assert!(p.switch().is_on(0), "{ctx}");
                assert!(p.engine().is_pending(0), "re-queued when on: {ctx}");
                p.step(&mut r);
                assert_eq!(p.color(0), ThreeColor::White, "{ctx}");
                assert_eq!(p.engine().frontier_len(), 0, "{ctx}");
            }
        }
    }

    #[test]
    fn switch_level_fault_parks_or_requeues_a_gray_vertex() {
        let g = generators::path(2);
        let switch = RandomizedLogSwitch::new(&g, vec![5, 5], DEFAULT_ZETA);
        let mut p = ThreeColorProcess::new(&g, vec![ThreeColor::Gray, ThreeColor::Black], switch);
        p.set_strategy(RoundStrategy::Sparse);
        let mut r = rng(2);
        assert!(!p.engine().is_pending(0), "level 5 is off: parked");
        p.set_switch_level(0, 2);
        assert!(p.engine().is_pending(0), "an on level re-queues it at once");
        p.set_switch_level(0, 3);
        assert!(!p.engine().is_pending(0), "an off level parks it again");
        p.step(&mut r);
        assert_eq!(p.color(0), ThreeColor::Gray);
        assert!(!p.switch().is_on(0));
        p.set_switch_level(0, 1);
        assert!(p.engine().is_pending(0));
        p.step(&mut r);
        assert_eq!(
            p.color(0),
            ThreeColor::White,
            "white one round after the fault turned its switch on"
        );
    }

    #[test]
    fn gray_is_never_active_and_blocks_nothing() {
        let g = generators::path(2);
        // Vertex 0 gray, vertex 1 black: vertex 1 has no *black* neighbor so
        // it is stable; vertex 0 is not active.
        let switch = FixedPeriodSwitch::new(2, 1, 1);
        let p = ThreeColorProcess::new(&g, vec![ThreeColor::Gray, ThreeColor::Black], switch);
        assert!(!p.is_active(0));
        assert!(p.is_stable_black(1));
        assert!(
            p.is_stable(0),
            "gray neighbor of a stable black vertex is stable"
        );
        assert!(p.is_stabilized());
    }

    #[test]
    fn black_with_black_neighbor_becomes_black_or_gray_never_white() {
        let g = generators::complete(2);
        let switch = FixedPeriodSwitch::new(2, 1, 1);
        let mut p = ThreeColorProcess::new(&g, vec![ThreeColor::Black, ThreeColor::Black], switch);
        let mut r = rng(3);
        p.step(&mut r);
        for u in 0..2 {
            assert_ne!(
                p.color(u),
                ThreeColor::White,
                "black vertex with black neighbor may not jump to white"
            );
        }
    }

    #[test]
    fn stabilizes_to_mis_on_various_graphs() {
        let mut r = rng(7);
        let graphs = vec![
            generators::complete(32),
            generators::path(40),
            generators::star(30),
            generators::random_tree(80, &mut r),
            generators::gnp(120, 0.1, &mut r),
            generators::gnp(80, 0.7, &mut r),
            generators::disjoint_cliques(4, 8),
            Graph::empty(10),
        ];
        for (i, g) in graphs.into_iter().enumerate() {
            for init in [
                InitStrategy::AllWhite,
                InitStrategy::AllBlack,
                InitStrategy::Random,
            ] {
                let mut p = ThreeColorProcess::with_randomized_switch(&g, init, &mut r);
                p.run_to_stabilization(&mut r, 200_000)
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
        let g = generators::gnp(90, 0.1, &mut rng(81));
        let mut outcomes = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut r = rng(82);
            let mut p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r);
            p.set_execution(ExecutionMode::Parallel { threads }, 17);
            for _ in 0..60 {
                if p.is_stabilized() {
                    break;
                }
                p.step(&mut r);
            }
            outcomes.push((p.colors(), p.black_set(), p.counts(), p.random_bits_used()));
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], outcomes[2]);
        // Parallel mode also reaches a valid MIS.
        let mut r = rng(83);
        let mut p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::AllBlack, &mut r);
        p.set_execution(ExecutionMode::Parallel { threads: 2 }, 18);
        p.run_to_stabilization(&mut r, 200_000).unwrap();
        assert!(mis_check::is_mis(&g, &p.black_set()));
    }

    #[test]
    fn gray_set_tracks_gray_vertices() {
        let mut r = rng(11);
        let g = generators::gnp(60, 0.2, &mut r);
        let mut p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::AllBlack, &mut r);
        for _ in 0..30 {
            let gray = p.gray_set();
            for u in g.vertices() {
                assert_eq!(gray.contains(u), p.color(u) == ThreeColor::Gray);
            }
            let c = p.counts();
            assert_eq!(c.black + c.non_black, g.n());
            if p.is_stabilized() {
                break;
            }
            p.step(&mut r);
        }
    }

    #[test]
    fn stability_is_monotone() {
        let mut r = rng(13);
        let g = generators::gnp(70, 0.15, &mut r);
        let mut p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r);
        let mut stable: Vec<bool> = vec![false; g.n()];
        for _ in 0..400 {
            for u in g.vertices() {
                if stable[u] {
                    assert!(p.is_stable(u), "vertex {u} lost stability");
                } else if p.is_stable(u) {
                    stable[u] = true;
                }
            }
            if p.is_stabilized() {
                break;
            }
            p.step(&mut r);
        }
    }

    #[test]
    fn fast_step_matches_reference_step() {
        let g = generators::gnp(60, 0.12, &mut rng(47));
        let mut r_fast = rng(53);
        let mut r_ref = rng(53);
        let mut fast =
            ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r_fast);
        let mut reference =
            ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r_ref);
        for round in 0..80 {
            assert_eq!(fast.counts(), reference.counts(), "round {round}");
            fast.step(&mut r_fast);
            reference.step_reference(&mut r_ref);
            assert_eq!(fast.colors(), reference.colors(), "round {round}");
            assert_eq!(fast.random_bits_used(), reference.random_bits_used());
        }
    }

    #[test]
    #[should_panic(expected = "switch must be defined over the same vertex set")]
    fn switch_size_mismatch_panics() {
        let g = generators::path(3);
        let switch = FixedPeriodSwitch::new(5, 1, 1);
        ThreeColorProcess::new(&g, vec![ThreeColor::White; 3], switch);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The 3-color process stabilizes to an MIS from arbitrary colors on
        /// random graphs across the full density range.
        #[test]
        fn stabilizes_from_arbitrary_states(seed in 0u64..10_000, n in 1usize..50, p_edge in 0.0f64..1.0) {
            let mut r = rng(seed);
            let g = generators::gnp(n, p_edge, &mut r);
            let mut proc = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r);
            proc.run_to_stabilization(&mut r, 400_000).unwrap();
            prop_assert!(mis_check::is_mis(&g, &proc.black_set()));
        }
    }
}
