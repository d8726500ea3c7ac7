//! Each engine process against its channel's reference round: before every
//! engine round, the reference round runs on a copy of the engine's states
//! (and switch levels) with a clone of the round's RNG, and the engine
//! round must reach the same states and levels, draw the same random bits,
//! and leave the RNG stream at the same place. Between rounds the run takes
//! transient faults, Byzantine overrides and random topology deltas, and
//! the 2-state and 3-state runs mix scheduled rounds into synchronous ones.
//! Every run is repeated under the sparse, dense and adaptive round
//! strategies.

use std::fmt::Debug;

use mis_comm::beeping::two_state_round;
use mis_comm::is_stabilized;
use mis_comm::stone_age::{three_color_round, three_state_round};
use mis_core::init::InitStrategy;
use mis_core::{
    Algorithm, Color, RandomizedLogSwitch, RoundStrategy, SwitchProcess, ThreeColor,
    ThreeColorProcess, ThreeState, ThreeStateProcess, TwoStateProcess, DEFAULT_ZETA,
};
use mis_graph::{generators, Graph, GraphDelta, VertexSet};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// An engine process with the reference round of its channel.
trait Subject: Algorithm {
    /// What a round changes: the states (and switch levels).
    type Snapshot: PartialEq + Debug;

    /// Whether the process supports scheduled rounds.
    const SCHEDULED: bool;

    /// The states (and switch levels) now.
    fn snapshot(&self) -> Self::Snapshot;

    /// Whether `u` is black in `snapshot`.
    fn is_black(snapshot: &Self::Snapshot, u: usize) -> bool;

    /// Runs the reference round on `snapshot`; returns the bits it drew.
    fn reference_round(
        graph: &Graph,
        snapshot: &mut Self::Snapshot,
        scheduled: Option<&VertexSet>,
        rng: &mut dyn RngCore,
    ) -> u64;
}

impl Subject for TwoStateProcess<'_> {
    type Snapshot = Vec<Color>;
    const SCHEDULED: bool = true;

    fn snapshot(&self) -> Vec<Color> {
        self.states()
    }

    fn is_black(states: &Vec<Color>, u: usize) -> bool {
        states[u].is_black()
    }

    fn reference_round(
        graph: &Graph,
        states: &mut Vec<Color>,
        scheduled: Option<&VertexSet>,
        rng: &mut dyn RngCore,
    ) -> u64 {
        two_state_round(graph, states, scheduled, rng)
    }
}

impl Subject for ThreeStateProcess<'_> {
    type Snapshot = Vec<ThreeState>;
    const SCHEDULED: bool = true;

    fn snapshot(&self) -> Vec<ThreeState> {
        self.states()
    }

    fn is_black(states: &Vec<ThreeState>, u: usize) -> bool {
        states[u].is_black()
    }

    fn reference_round(
        graph: &Graph,
        states: &mut Vec<ThreeState>,
        scheduled: Option<&VertexSet>,
        rng: &mut dyn RngCore,
    ) -> u64 {
        three_state_round(graph, states, scheduled, rng)
    }
}

impl Subject for ThreeColorProcess<'_, RandomizedLogSwitch<'_>> {
    type Snapshot = (Vec<ThreeColor>, Vec<u8>);
    const SCHEDULED: bool = false;

    fn snapshot(&self) -> (Vec<ThreeColor>, Vec<u8>) {
        let levels = (0..self.n()).map(|u| self.switch().level(u)).collect();
        (self.colors(), levels)
    }

    fn is_black((colors, _): &(Vec<ThreeColor>, Vec<u8>), u: usize) -> bool {
        colors[u].is_black()
    }

    fn reference_round(
        graph: &Graph,
        (colors, levels): &mut (Vec<ThreeColor>, Vec<u8>),
        scheduled: Option<&VertexSet>,
        rng: &mut dyn RngCore,
    ) -> u64 {
        assert!(
            scheduled.is_none(),
            "the 3-color process has no scheduled round"
        );
        three_color_round(graph, colors, levels, rng)
    }
}

/// A random edge flip, and now and then a joining vertex, against the
/// current graph.
fn random_delta(g: &Graph, r: &mut ChaCha8Rng) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let n = g.n();
    let (u, v) = (r.gen_range(0..n), r.gen_range(0..n));
    if u != v {
        if g.has_edge(u, v) {
            delta.remove_edge(u, v);
        } else {
            delta.add_edge(u, v);
        }
    }
    if r.gen_range(0..4) == 0 {
        delta.add_vertex([r.gen_range(0..n)]);
    }
    delta
}

/// Runs `rounds` rounds of `p` with a disturbance before each, checking
/// every round against the reference round. `strategy` is the one `p` was
/// set to, for the messages.
fn check<S: Subject>(
    mut p: S,
    strategy: RoundStrategy,
    rounds: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut events = ChaCha8Rng::seed_from_u64(seed ^ 0xE7E7);
    let mut coins = ChaCha8Rng::seed_from_u64(seed ^ 0xC017);
    for round in 0..rounds {
        match events.gen_range(0..8) {
            0 => {
                let fraction = events.gen::<f64>() * 0.3;
                p.inject_faults(fraction, &mut events);
            }
            1 => {
                let u = events.gen_range(0..p.n());
                p.set_byzantine_state(u, events.gen_bool(0.5));
            }
            2 => {
                let delta = random_delta(graph(&p), &mut events);
                p.apply_mutation(&delta).expect("a valid delta");
            }
            _ => {}
        }
        let n = p.n();
        let scheduled = (S::SCHEDULED && events.gen_bool(0.3))
            .then(|| VertexSet::from_indices(n, (0..n).filter(|_| events.gen_bool(0.5))));
        let mut expected = p.snapshot();
        let context = format!("round {round} ({strategy:?})");
        let verdict = is_stabilized(graph(&p), |u| S::is_black(&expected, u));
        prop_assert!(p.is_stabilized() == verdict, "verdict before {context}");
        let mut reference_coins = coins.clone();
        let bits = S::reference_round(
            graph(&p),
            &mut expected,
            scheduled.as_ref(),
            &mut reference_coins,
        );
        let before = p.random_bits_used();
        match &scheduled {
            Some(set) => p.step_scheduled(set, &mut coins),
            None => p.step(&mut coins),
        }
        let states = p.snapshot();
        prop_assert!(states == expected, "{context}: {states:?} != {expected:?}");
        prop_assert!(p.random_bits_used() - before == bits, "bits of {context}");
        prop_assert!(
            coins.clone().next_u64() == reference_coins.next_u64(),
            "RNG streams diverged in {context}"
        );
    }
    Ok(())
}

/// The graph `p` runs on now (the mutated one after a delta).
fn graph(p: &impl Algorithm) -> &Graph {
    p.current_graph()
        .expect("an engine process exposes its graph")
}

const STRATEGIES: [RoundStrategy; 3] = [
    RoundStrategy::Sparse,
    RoundStrategy::Dense,
    RoundStrategy::Auto,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn beeping_reference_round_equals_the_two_state_engine(
        seed in 0u64..10_000,
        n in 1usize..40,
        p_edge in 0.0f64..0.4,
    ) {
        let mut setup = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::gnp(n, p_edge, &mut setup);
        let states = InitStrategy::Random.two_state(n, &mut setup);
        for strategy in STRATEGIES {
            let mut p = TwoStateProcess::new(&g, states.clone());
            p.set_strategy(strategy);
            check(p, strategy, 60, seed)?;
        }
    }

    #[test]
    fn stone_age_reference_round_equals_the_three_state_engine(
        seed in 0u64..10_000,
        n in 1usize..40,
        p_edge in 0.0f64..0.4,
    ) {
        let mut setup = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::gnp(n, p_edge, &mut setup);
        let states = InitStrategy::Random.three_state(n, &mut setup);
        for strategy in STRATEGIES {
            let mut p = ThreeStateProcess::new(&g, states.clone());
            p.set_strategy(strategy);
            check(p, strategy, 60, seed)?;
        }
    }

    #[test]
    fn stone_age_reference_round_equals_the_three_color_engine(
        seed in 0u64..10_000,
        n in 1usize..40,
        p_edge in 0.0f64..0.4,
    ) {
        let mut setup = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::gnp(n, p_edge, &mut setup);
        let colors = InitStrategy::Random.three_color(n, &mut setup);
        let levels = InitStrategy::Random.switch_levels(n, &mut setup);
        for strategy in STRATEGIES {
            let switch = RandomizedLogSwitch::new(&g, levels.clone(), DEFAULT_ZETA);
            let mut p = ThreeColorProcess::new(&g, colors.clone(), switch);
            p.set_strategy(strategy);
            check(p, strategy, 120, seed)?;
        }
    }
}
