//! Property test for the live-mutation path: after **arbitrary
//! interleavings** of rounds, transient faults, and churn bursts, every
//! process's incremental bookkeeping must be bit-identical to a process
//! rebuilt from scratch on the mutated graph — and the process must still
//! re-stabilize to a valid MIS of whatever topology it ended up on.
//!
//! This is the dynamic-graph counterpart of `engine_consistency.rs`: where
//! that file pins the delta-maintained counters under `step`/`corrupt`
//! interleavings on a *fixed* graph, this one additionally mutates the
//! graph itself through [`mis_core`]'s `apply_mutation` path, using the
//! same burst generator ([`mis_sim::generate_burst`]) the experiment
//! runner uses.

use mis_core::init::InitStrategy;
use mis_core::{
    Algorithm, RandomizedLogSwitch, SwitchProcess, ThreeColorProcess, ThreeStateProcess,
    TwoStateProcess,
};
use mis_graph::{generators, mis_check, Graph};
use mis_sim::generate_burst;
use mis_sim::spec::ChurnScenario;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn graph_for(seed: u64, n: usize, p_edge: f64) -> Graph {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    generators::gnp(n.max(1), p_edge, &mut r)
}

/// Decodes one proptest-drawn op into a churn scenario (or `None` for the
/// non-churn ops handled by the caller).
fn scenario_for(kind: u8, fraction: f64, a: usize, b: usize) -> ChurnScenario {
    match kind % 3 {
        0 => ChurnScenario::EdgeChurn { fraction },
        1 => ChurnScenario::JoinLeave { join: a, leave: b },
        _ => ChurnScenario::RegionFailure { fraction },
    }
}

/// One op of the interleaving: `0` = synchronous round, `1` = transient
/// fault, `2..` = churn burst of a scenario derived from the payload.
type Op = (u8, f64, usize, usize);

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..5, 0.0f64..0.4, 0usize..5, 0usize..4), 1..10)
}

macro_rules! check_bitwise_identical {
    ($p:expr, $fresh:expr, $g:expr, $ctx:expr) => {
        prop_assert!(
            $fresh.counts() == $p.counts(),
            "counts diverged ({:?} vs {:?}): {}",
            $fresh.counts(),
            $p.counts(),
            $ctx
        );
        for u in $g.vertices() {
            prop_assert!(
                $fresh.is_active(u) == $p.is_active(u),
                "active flag of vertex {u} diverged: {}",
                $ctx
            );
            prop_assert!(
                $fresh.is_stable(u) == $p.is_stable(u),
                "stable flag of vertex {u} diverged: {}",
                $ctx
            );
            prop_assert!(
                $fresh.black_neighbor_count(u) == $p.black_neighbor_count(u),
                "black-neighbor counter of vertex {u} diverged ({} vs {}): {}",
                $fresh.black_neighbor_count(u),
                $p.black_neighbor_count(u),
                $ctx
            );
        }
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// 2-state process: every churn burst leaves the engine bit-identical
    /// to a fresh rebuild on the mutated graph, through any interleaving
    /// of rounds and faults; afterwards it still reaches a valid MIS.
    #[test]
    fn two_state_mutation_path_matches_fresh_rebuild(
        seed in 0u64..5_000,
        n in 1usize..40,
        p_edge in 0.0f64..0.4,
        ops in ops_strategy(),
    ) {
        let g = graph_for(seed, n, p_edge);
        let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0xd1ce);
        let mut p = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        for (i, &(kind, fraction, a, b)) in ops.iter().enumerate() {
            match kind {
                0 => p.step(&mut r),
                1 => {
                    p.inject_faults(fraction, &mut r);
                }
                _ => {
                    let delta = {
                        let scenario = scenario_for(kind, fraction, a, b);
                        generate_burst(scenario, p.graph(), &mut r)
                    };
                    p.apply_mutation(&delta).expect("generated burst is valid");
                }
            }
            let g2 = p.graph().clone();
            let fresh = TwoStateProcess::new(&g2, p.states());
            let ctx = format!("op {i} (kind {kind}), seed {seed}");
            check_bitwise_identical!(p, fresh, g2, ctx);
        }
        let g_final = p.graph().clone();
        p.run_to_stabilization(&mut r, 1_000_000).unwrap();
        prop_assert!(mis_check::is_mis(&g_final, &p.black_set()));
    }

    /// 3-state process: same property; the process-owned black1 counters
    /// must survive every burst too.
    #[test]
    fn three_state_mutation_path_matches_fresh_rebuild(
        seed in 0u64..5_000,
        n in 1usize..40,
        p_edge in 0.0f64..0.4,
        ops in ops_strategy(),
    ) {
        let g = graph_for(seed, n, p_edge);
        let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0xfade);
        let mut p = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        for (i, &(kind, fraction, a, b)) in ops.iter().enumerate() {
            match kind {
                0 => p.step(&mut r),
                1 => {
                    p.inject_faults(fraction, &mut r);
                }
                _ => {
                    let delta = {
                        let scenario = scenario_for(kind, fraction, a, b);
                        generate_burst(scenario, p.graph(), &mut r)
                    };
                    p.apply_mutation(&delta).expect("generated burst is valid");
                }
            }
            let g2 = p.graph().clone();
            let fresh = ThreeStateProcess::new(&g2, p.states());
            let ctx = format!("op {i} (kind {kind}), seed {seed}");
            check_bitwise_identical!(p, fresh, g2, ctx);
            for u in g2.vertices() {
                prop_assert!(
                    fresh.black1_neighbor_count(u) == p.black1_neighbor_count(u),
                    "black1 counter of vertex {u} diverged: op {i}, seed {seed}"
                );
            }
        }
        let g_final = p.graph().clone();
        p.run_to_stabilization(&mut r, 1_000_000).unwrap();
        prop_assert!(mis_check::is_mis(&g_final, &p.black_set()));
    }

    /// 3-color process with the randomized log-switch: the switch must
    /// track the mutating vertex population, and a fresh process rebuilt
    /// from the surviving colors + switch levels must agree exactly.
    #[test]
    fn three_color_mutation_path_matches_fresh_rebuild(
        seed in 0u64..5_000,
        n in 1usize..32,
        p_edge in 0.0f64..0.4,
        ops in ops_strategy(),
    ) {
        let g = graph_for(seed, n, p_edge);
        let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0xace5);
        let mut p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r);
        for (i, &(kind, fraction, a, b)) in ops.iter().enumerate() {
            match kind {
                0 => p.step(&mut r),
                1 => {
                    p.inject_faults(fraction, &mut r);
                }
                _ => {
                    let delta = {
                        let scenario = scenario_for(kind, fraction, a, b);
                        generate_burst(scenario, p.graph(), &mut r)
                    };
                    p.apply_mutation(&delta).expect("generated burst is valid");
                }
            }
            prop_assert!(p.switch().n() == p.n(), "switch population lags: op {i}");
            let g2 = p.graph().clone();
            let levels: Vec<u8> = g2.vertices().map(|u| p.switch().level(u)).collect();
            let fresh_switch = RandomizedLogSwitch::new(&g2, levels, p.switch().zeta());
            let fresh = ThreeColorProcess::new(&g2, p.colors(), fresh_switch);
            let ctx = format!("op {i} (kind {kind}), seed {seed}");
            check_bitwise_identical!(p, fresh, g2, ctx);
        }
        let g_final = p.graph().clone();
        p.run_to_stabilization(&mut r, 1_000_000).unwrap();
        prop_assert!(mis_check::is_mis(&g_final, &p.black_set()));
    }
}
