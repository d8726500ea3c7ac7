//! Direct Monte-Carlo checks of the paper's core lemmas: Lemma 6 (E12) and
//! the realizability of the processes in the weak communication models (E13).

use mis_comm::beeping::BeepingTwoStateMis;
use mis_comm::stone_age::{StoneAgeThreeColorMis, StoneAgeThreeStateMis};
use mis_core::init::InitStrategy;
use mis_core::{
    Algorithm, Color, RandomizedLogSwitch, SwitchProcess, ThreeColorProcess, ThreeStateProcess,
    TwoStateProcess, DEFAULT_ZETA,
};
use mis_graph::generators;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::Scale;

/// One row of the E12 table: the empirical probability that a `k`-active
/// vertex becomes stable black within `⌈log₂(k+1)⌉` rounds, next to Lemma 6's
/// lower bound `1/(2ek)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lemma6Row {
    /// Number of active neighbors `k` of the tested vertex.
    pub k: usize,
    /// Empirical probability over the Monte-Carlo trials.
    pub empirical: f64,
    /// Lemma 6's lower bound `1/(2ek)`.
    pub lower_bound: f64,
    /// Number of Monte-Carlo trials.
    pub trials: usize,
}

/// E12 — Lemma 6: if a vertex is active with `k` active neighbors, it becomes
/// stable black within `⌈log(k+1)⌉` rounds with probability at least
/// `1/(2ek)`.
///
/// The construction uses the star `K_{1,k}` with every vertex initially
/// black: the hub is active with exactly `k` active neighbors, so the lemma
/// applies to it verbatim.
pub fn e12_lemma6(scale: Scale) -> Vec<Lemma6Row> {
    let ks: Vec<usize> = match scale {
        Scale::Quick => vec![1, 4, 16],
        Scale::Full => vec![1, 2, 4, 8, 16, 32, 64, 128],
    };
    let trials = match scale {
        Scale::Quick => 2_000,
        Scale::Full => 20_000,
    };
    ks.into_iter()
        .map(|k| {
            let g = generators::star(k + 1);
            let horizon = ((k + 1) as f64).log2().ceil() as usize;
            let mut successes = 0usize;
            for t in 0..trials {
                let mut rng = ChaCha8Rng::seed_from_u64(31_000 ^ ((k as u64) << 20) ^ t as u64);
                let mut proc = TwoStateProcess::new(&g, vec![Color::Black; k + 1]);
                for _ in 0..horizon {
                    proc.step(&mut rng);
                }
                if proc.is_stable_black(0) {
                    successes += 1;
                }
            }
            Lemma6Row {
                k,
                empirical: successes as f64 / trials as f64,
                lower_bound: 1.0 / (2.0 * std::f64::consts::E * k as f64),
                trials,
            }
        })
        .collect()
}

/// Renders the E12 rows as CSV.
pub fn lemma6_csv(rows: &[Lemma6Row]) -> String {
    let mut out = String::from("k,empirical,lower_bound,trials\n");
    for r in rows {
        out.push_str(&format!(
            "{},{:.4},{:.4},{}\n",
            r.k, r.empirical, r.lower_bound, r.trials
        ));
    }
    out
}

/// One row of the E13 table: a graph and seed on which the message-passing
/// adaptation was co-simulated against the direct process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommEquivalenceRow {
    /// Which adaptation was tested ("beeping-2state", "stoneage-3state",
    /// "stoneage-3color").
    pub adaptation: String,
    /// Graph family label.
    pub graph: String,
    /// Number of rounds co-simulated until both stabilized.
    pub rounds: usize,
    /// Whether the two executions visited identical state sequences.
    pub traces_identical: bool,
    /// Whether the final black set was a valid MIS.
    pub valid_mis: bool,
}

/// E13 — realizability in the weak communication models: co-simulates each
/// message-passing adaptation against its direct process (same seed, same
/// initial states) and reports whether the traces are identical.
pub fn e13_comm_models(scale: Scale) -> Vec<CommEquivalenceRow> {
    let n = match scale {
        Scale::Quick => 60,
        Scale::Full => 300,
    };
    let seeds: Vec<u64> = match scale {
        Scale::Quick => vec![1],
        Scale::Full => vec![1, 2, 3, 4, 5],
    };
    let mut rows = Vec::new();
    for &seed in &seeds {
        let mut setup = ChaCha8Rng::seed_from_u64(40_000 + seed);
        let graphs = vec![
            (
                "gnp-sparse".to_string(),
                generators::gnp(n, 8.0 / n as f64, &mut setup),
            ),
            ("gnp-dense".to_string(), generators::gnp(n, 0.3, &mut setup)),
            ("tree".to_string(), generators::random_tree(n, &mut setup)),
        ];
        for (label, g) in graphs {
            // Beeping / 2-state.
            let init = InitStrategy::Random.two_state(g.n(), &mut setup);
            let mut direct = TwoStateProcess::new(&g, init.clone());
            let mut net = BeepingTwoStateMis::new(&g, init);
            let (rounds, identical) = co_simulate(
                &mut direct,
                &mut net,
                seed,
                |a: &TwoStateProcess<'_>, b: &BeepingTwoStateMis<'_>| a.states() == b.states(),
            );
            rows.push(CommEquivalenceRow {
                adaptation: "beeping-2state".into(),
                graph: label.clone(),
                rounds,
                traces_identical: identical,
                valid_mis: mis_graph::mis_check::is_mis(&g, &net.black_set()),
            });

            // Stone age / 3-state.
            let init = InitStrategy::Random.three_state(g.n(), &mut setup);
            let mut direct = ThreeStateProcess::new(&g, init.clone());
            let mut net = StoneAgeThreeStateMis::new(&g, init);
            let (rounds, identical) = co_simulate(
                &mut direct,
                &mut net,
                seed,
                |a: &ThreeStateProcess<'_>, b: &StoneAgeThreeStateMis<'_>| a.states() == b.states(),
            );
            rows.push(CommEquivalenceRow {
                adaptation: "stoneage-3state".into(),
                graph: label.clone(),
                rounds,
                traces_identical: identical,
                valid_mis: mis_graph::mis_check::is_mis(&g, &net.black_set()),
            });

            // Stone age / 3-color.
            let colors = InitStrategy::Random.three_color(g.n(), &mut setup);
            let levels = InitStrategy::Random.switch_levels(g.n(), &mut setup);
            let switch = RandomizedLogSwitch::new(&g, levels.clone(), DEFAULT_ZETA);
            let mut direct = ThreeColorProcess::new(&g, colors.clone(), switch);
            let mut net = StoneAgeThreeColorMis::new(&g, colors, levels);
            let (rounds, identical) = co_simulate(
                &mut direct,
                &mut net,
                seed,
                |a: &ThreeColorProcess<'_, RandomizedLogSwitch<'_>>,
                 b: &StoneAgeThreeColorMis<'_>| {
                    a.colors() == b.colors()
                        && g.vertices().all(|u| a.switch().level(u) == b.level(u))
                },
            );
            rows.push(CommEquivalenceRow {
                adaptation: "stoneage-3color".into(),
                graph: label.clone(),
                rounds,
                traces_identical: identical,
                valid_mis: mis_graph::mis_check::is_mis(&g, &net.black_set()),
            });
        }
    }
    rows
}

/// Steps both processes with identical RNG streams until both stabilize (or a
/// large cap), checking each round that the states, the random bits drawn so
/// far, and the stabilization verdicts are equal.
fn co_simulate<A: Algorithm, B: Algorithm>(
    a: &mut A,
    b: &mut B,
    seed: u64,
    states_equal: impl Fn(&A, &B) -> bool,
) -> (usize, bool) {
    let same = |a: &A, b: &B| {
        states_equal(a, b)
            && a.random_bits_used() == b.random_bits_used()
            && a.is_stabilized() == b.is_stabilized()
    };
    let mut rng_a = ChaCha8Rng::seed_from_u64(50_000 + seed);
    let mut rng_b = ChaCha8Rng::seed_from_u64(50_000 + seed);
    let mut identical = true;
    let cap = 1_000_000;
    while !(a.is_stabilized() && b.is_stabilized()) && a.round() < cap {
        if !same(a, b) {
            identical = false;
            break;
        }
        a.step(&mut rng_a);
        b.step(&mut rng_b);
    }
    identical = identical && same(a, b);
    (a.round(), identical)
}

/// E13 (harness section) — runs the three communication-model adaptations
/// end-to-end through `run_experiment` via their registry keys
/// (`beeping-two-state`, `stone-age-three-state`, `stone-age-three-color`),
/// on a sparse `G(n,p)` and a clique: the same registry/scheduler/observer
/// code path that drives every other algorithm of the workspace.
pub fn e13_registry_harness(scale: Scale) -> mis_sim::sweep::SweepTable {
    use mis_sim::runner::run_experiment;
    use mis_sim::spec::{ExperimentSpec, GraphSpec};
    use mis_sim::sweep::row_from_result;

    let n = match scale {
        Scale::Quick => 60,
        Scale::Full => 300,
    };
    let trials = scale.trials(16);
    let mut rows = Vec::new();
    for key in [
        "beeping-two-state",
        "stone-age-three-state",
        "stone-age-three-color",
    ] {
        for graph in [
            GraphSpec::Gnp {
                n,
                p: 8.0 / n as f64,
            },
            GraphSpec::Complete { n: n / 4 },
        ] {
            let spec = ExperimentSpec::builder()
                .name(format!("e13-{key}"))
                .graph(graph)
                .algorithm(key)
                .init(InitStrategy::Random)
                .trials(trials)
                .max_rounds(1_000_000)
                .base_seed(41_000)
                .build();
            let result = run_experiment(&spec);
            assert!(
                result.all_stabilized() && result.all_valid(),
                "{key} failed through the registry harness"
            );
            rows.push(row_from_result(graph.n() as f64, &result));
        }
    }
    mis_sim::sweep::SweepTable { rows }
}

/// Renders the E13 rows as CSV.
pub fn comm_csv(rows: &[CommEquivalenceRow]) -> String {
    let mut out = String::from("adaptation,graph,rounds,traces_identical,valid_mis\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            r.adaptation, r.graph, r.rounds, r.traces_identical, r.valid_mis
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_empirical_probability_respects_lemma6_lower_bound() {
        let rows = e12_lemma6(Scale::Quick);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                r.empirical >= r.lower_bound,
                "k = {}: empirical {:.4} below the Lemma 6 bound {:.4}",
                r.k,
                r.empirical,
                r.lower_bound
            );
            assert!(r.empirical <= 1.0);
        }
        assert_eq!(lemma6_csv(&rows).lines().count(), 4);
    }

    #[test]
    fn e13_all_adaptations_are_trace_equivalent() {
        let rows = e13_comm_models(Scale::Quick);
        assert_eq!(rows.len(), 9);
        for r in &rows {
            assert!(
                r.traces_identical,
                "{} on {} diverged",
                r.adaptation, r.graph
            );
            assert!(
                r.valid_mis,
                "{} on {} did not reach an MIS",
                r.adaptation, r.graph
            );
        }
        assert_eq!(comm_csv(&rows).lines().count(), 10);
    }
}
