//! The registry entries of the paper's three processes, each under two
//! keys: the direct key and its weak-communication key.
//!
//! Each process is a [`RuleProcess`] and implements
//! [`Algorithm`] through its one generic impl, so an entry only builds the
//! process under the trial's execution mode (a `Parallel { threads ≥ 2 }`
//! trial builds its engine with the pool recount, where the public
//! constructors build inline) and applies the trial's counter seed and
//! round strategy.
//!
//! The engine passes a rule one neighbor bit, "some neighbor is black"
//! (see [`LocalRule::classify`]), which a beeping channel delivers; the
//! 3-state rule asks for its other stone-age letter on demand, and the
//! 3-color rule reads its letters through its switch. So both keys of a
//! pair share one init fn and one [`Capabilities`]; they differ only in the
//! [`CommunicationModel`] their runs are reported under.
//! `mis-comm` keeps each channel as a reference round for tests.

use mis_graph::Graph;
use rand::RngCore;

use crate::algorithm::{
    Algorithm, AlgorithmConfig, AlgorithmFactory, Capabilities, CommunicationModel, InitFn,
    Registry,
};
use crate::log_switch::RandomizedLogSwitch;
use crate::rule::{LocalRule, RuleProcess};
use crate::three_color::{ThreeColorProcess, ThreeColorRule};
use crate::three_state::{ThreeStateProcess, ThreeStateRule};
use crate::two_state::{TwoStateProcess, TwoStateRule};

/// Registry key of the 2-state process.
pub const TWO_STATE_KEY: &str = "two-state";
/// Registry key of the 3-state process.
pub const THREE_STATE_KEY: &str = "three-state";
/// Registry key of the 3-color process (randomized logarithmic switch).
pub const THREE_COLOR_KEY: &str = "three-color";
/// Registry key of the 2-state process as a beeping algorithm.
pub const BEEPING_TWO_STATE_KEY: &str = "beeping-two-state";
/// Registry key of the 3-state process as a stone-age algorithm.
pub const STONE_AGE_THREE_STATE_KEY: &str = "stone-age-three-state";
/// Registry key of the 3-color process as a stone-age algorithm.
pub const STONE_AGE_THREE_COLOR_KEY: &str = "stone-age-three-color";

/// What the engine process of rule `R` supports: everything, with partial
/// activation as the rule declares it ([`LocalRule::PARTIAL_ACTIVATION`]).
const fn engine<R: LocalRule>() -> Capabilities {
    Capabilities {
        topology_change: true,
        parallel: true,
        partial_activation: R::PARTIAL_ACTIVATION,
        fault_injection: true,
        byzantine: true,
        trace: true,
    }
}

/// Applies the trial's execution mode and round strategy to `process`.
fn configured<'g, R: LocalRule + 'g>(
    mut process: RuleProcess<'g, R>,
    config: &AlgorithmConfig,
) -> Box<dyn Algorithm + 'g> {
    process.set_execution(config.execution, config.counter_seed);
    process.set_strategy(config.strategy);
    Box::new(process)
}

/// The init fn of both 2-state keys.
fn two_state<'g>(
    graph: &'g Graph,
    config: &AlgorithmConfig,
    rng: &mut dyn RngCore,
) -> Box<dyn Algorithm + 'g> {
    let process = TwoStateProcess::with_init_on(graph, config.init, rng, config.execution);
    configured(process, config)
}

/// The init fn of both 3-state keys.
fn three_state<'g>(
    graph: &'g Graph,
    config: &AlgorithmConfig,
    rng: &mut dyn RngCore,
) -> Box<dyn Algorithm + 'g> {
    let process = ThreeStateProcess::with_init_on(graph, config.init, rng, config.execution);
    configured(process, config)
}

/// The init fn of both 3-color keys.
fn three_color<'g>(
    graph: &'g Graph,
    config: &AlgorithmConfig,
    rng: &mut dyn RngCore,
) -> Box<dyn Algorithm + 'g> {
    let process =
        ThreeColorProcess::with_randomized_switch_on(graph, config.init, rng, config.execution);
    configured(process, config)
}

/// Registers the paper's three processes in `registry`, each under its
/// direct key (`two-state`, `three-state`, `three-color`) and its
/// weak-communication key (`beeping-two-state`, `stone-age-three-state`,
/// `stone-age-three-color`). Both keys of a pair share the rule's
/// capabilities and init fn.
pub fn register_core_algorithms(registry: &mut Registry) {
    let mut pair = |capabilities, init: InitFn, keys: [(_, _, _); 2]| {
        for (key, description, model) in keys {
            registry.register(AlgorithmFactory::new(
                key,
                description,
                model,
                capabilities,
                init,
            ));
        }
    };
    let full = CommunicationModel::FullStateExchange;
    pair(
        engine::<TwoStateRule>(),
        two_state,
        [
            (
                TWO_STATE_KEY,
                "2-state MIS process (Definition 4): 1 random bit per active vertex per round",
                full,
            ),
            (
                BEEPING_TWO_STATE_KEY,
                "2-state process as a beeping algorithm (full-duplex, sender collision detection)",
                CommunicationModel::Beeping,
            ),
        ],
    );
    pair(
        engine::<ThreeStateRule>(),
        three_state,
        [
            (
                THREE_STATE_KEY,
                "3-state MIS process (Definition 5): stone-age-implementable, no collision detection",
                full,
            ),
            (
                STONE_AGE_THREE_STATE_KEY,
                "3-state process as a stone-age algorithm (2-letter alphabet, no collision detection)",
                CommunicationModel::StoneAge,
            ),
        ],
    );
    pair(
        engine::<ThreeColorRule<RandomizedLogSwitch>>(),
        three_color,
        [
            (
                THREE_COLOR_KEY,
                "3-color MIS process with randomized logarithmic switch (Definition 28, 18 states)",
                full,
            ),
            (
                STONE_AGE_THREE_COLOR_KEY,
                "3-color process + randomized switch as a stone-age algorithm (18-letter alphabet)",
                CommunicationModel::StoneAge,
            ),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::fault_victims;
    use crate::exec::ExecutionMode;
    use crate::init::InitStrategy;
    use crate::scheduler::Activation;
    use crate::two_state::Color;
    use mis_graph::{generators, mis_check, VertexSet};
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn config() -> AlgorithmConfig {
        AlgorithmConfig {
            init: InitStrategy::Random,
            execution: ExecutionMode::Sequential,
            strategy: crate::exec::RoundStrategy::Auto,
            counter_seed: 7,
        }
    }

    fn registry() -> Registry {
        let mut r = Registry::new();
        register_core_algorithms(&mut r);
        r
    }

    #[test]
    fn all_core_factories_build_and_stabilize() {
        let r = registry();
        assert_eq!(
            r.keys(),
            vec![
                "beeping-two-state",
                "stone-age-three-color",
                "stone-age-three-state",
                "three-color",
                "three-state",
                "two-state"
            ]
        );
        let mut stream = rng(5);
        let g = generators::gnp(60, 0.1, &mut stream);
        for key in r.keys() {
            let factory = r.get(key).unwrap();
            let mut alg = factory.init(&g, &config(), &mut stream);
            assert_eq!(factory.key(), key);
            assert_eq!(alg.n(), 60);
            let mut guard = 0;
            while !alg.is_stabilized() {
                alg.step(&mut stream);
                guard += 1;
                assert!(guard < 100_000, "{key} did not stabilize");
            }
            assert!(mis_check::is_mis(&g, &alg.black_set()), "{key}");
            assert!(alg.random_bits_used() > 0, "{key}");
            let caps = factory.capabilities();
            assert!(caps.parallel && caps.trace);
        }
    }

    /// A registry-built process builds its engine under the trial's
    /// execution mode: one pool dispatch (the pull recount) under
    /// `Parallel { threads: k }` above the parallel threshold, none under
    /// `Sequential`, with the same engine either way. `k` is a thread
    /// count no other test uses, so the pool's counter is this test's own.
    #[test]
    fn parallel_init_costs_one_dispatch_and_sequential_none() {
        let threads = 15;
        let n = 4 * crate::exec::PAR_WORK_THRESHOLD;
        let g = generators::gnp(n, 8.0 / n as f64, &mut rng(71));
        let pool = rayon::global_pool(threads);
        let factory = *registry().get(TWO_STATE_KEY).unwrap();
        let mut built = Vec::new();
        for (execution, dispatches) in [
            (ExecutionMode::Parallel { threads }, 1),
            (ExecutionMode::Sequential, 0),
        ] {
            let config = AlgorithmConfig {
                execution,
                ..config()
            };
            let before = pool.stats().dispatches;
            let alg = factory.init(&g, &config, &mut rng(73));
            assert_eq!(
                pool.stats().dispatches - before,
                dispatches,
                "{execution:?}"
            );
            built.push((alg.black_set(), alg.counts(), alg.active_set()));
        }
        assert_eq!(built[0], built[1]);
    }

    #[test]
    fn synchronous_step_matches_direct_process() {
        let mut setup = rng(11);
        let g = generators::gnp(50, 0.12, &mut setup);
        let mut ra = rng(13);
        let mut rb = rng(13);
        let mut direct = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut ra);
        let mut alg = registry()
            .get(TWO_STATE_KEY)
            .unwrap()
            .init(&g, &config(), &mut rb);
        for _ in 0..100 {
            if direct.is_stabilized() {
                break;
            }
            direct.step(&mut ra);
            alg.step(&mut rb);
        }
        assert_eq!(direct.black_set(), alg.black_set());
        assert_eq!(direct.random_bits_used(), alg.random_bits_used());
    }

    #[test]
    fn full_scheduled_round_matches_synchronous_round_two_state() {
        let mut setup = rng(17);
        let g = generators::gnp(40, 0.15, &mut setup);
        let init = InitStrategy::Random.two_state(g.n(), &mut setup);
        let mut sync_proc = TwoStateProcess::new(&g, init.clone());
        let mut sched_proc = TwoStateProcess::new(&g, init);
        let everyone = VertexSet::from_indices(g.n(), 0..g.n());
        let mut ra = rng(19);
        let mut rb = rng(19);
        for round in 0..60 {
            if sync_proc.is_stabilized() {
                break;
            }
            sync_proc.step(&mut ra);
            sched_proc.step_scheduled(&everyone, &mut rb);
            assert_eq!(sync_proc.states(), sched_proc.states(), "round {round}");
        }
        assert_eq!(sync_proc.random_bits_used(), sched_proc.random_bits_used());
    }

    #[test]
    fn full_scheduled_round_matches_synchronous_round_three_state() {
        let mut setup = rng(23);
        let g = generators::gnp(40, 0.15, &mut setup);
        let init = InitStrategy::Random.three_state(g.n(), &mut setup);
        let mut sync_proc = ThreeStateProcess::new(&g, init.clone());
        let mut sched_proc = ThreeStateProcess::new(&g, init);
        let everyone = VertexSet::from_indices(g.n(), 0..g.n());
        let mut ra = rng(29);
        let mut rb = rng(29);
        for round in 0..60 {
            if sync_proc.is_stabilized() {
                break;
            }
            sync_proc.step(&mut ra);
            sched_proc.step_scheduled(&everyone, &mut rb);
            assert_eq!(sync_proc.states(), sched_proc.states(), "round {round}");
        }
        assert_eq!(sync_proc.random_bits_used(), sched_proc.random_bits_used());
    }

    #[test]
    fn scheduled_subset_only_touches_scheduled_vertices() {
        let g = generators::complete(6);
        let mut proc = TwoStateProcess::new(&g, vec![Color::Black; 6]);
        let before = proc.states();
        let half = VertexSet::from_indices(6, [0, 2, 4]);
        let mut r = rng(31);
        proc.step_scheduled(&half, &mut r);
        let after = proc.states();
        for u in [1usize, 3, 5] {
            assert_eq!(before[u], after[u], "unscheduled vertex {u} changed");
        }
        assert_eq!(proc.round(), 1);
        assert_eq!(proc.random_bits_used(), 3);
    }

    #[test]
    fn fault_injection_reports_actual_changes_and_recovers() {
        let mut stream = rng(37);
        let g = generators::gnp(80, 0.08, &mut stream);
        let r = registry();
        for key in r.keys() {
            let factory = r.get(key).unwrap();
            let mut alg = factory.init(&g, &config(), &mut stream);
            assert!(factory.capabilities().fault_injection);
            let mut guard = 0;
            while !alg.is_stabilized() {
                alg.step(&mut stream);
                guard += 1;
                assert!(guard < 100_000);
            }
            let changed = alg.inject_faults(1.0, &mut stream);
            assert!(changed > 0, "{key}: total corruption changed nothing");
            assert!(
                changed <= g.n(),
                "{key}: a vertex may be counted at most once"
            );
            while !alg.is_stabilized() {
                alg.step(&mut stream);
                guard += 1;
                assert!(guard < 200_000, "{key} did not recover");
            }
            assert!(mis_check::is_mis(&g, &alg.black_set()), "{key}");
        }
    }

    #[test]
    fn targeted_faults_match_random_faults_on_same_stream() {
        // inject_faults(fraction) must equal fault_victims + targeted on an
        // identical RNG stream: the refactor may not shift any draw.
        let mut setup = rng(53);
        let g = generators::gnp(60, 0.1, &mut setup);
        let r = registry();
        for key in r.keys() {
            let factory = r.get(key).unwrap();
            let mut build = rng(59);
            let mut a = factory.init(&g, &config(), &mut build);
            let mut build = rng(59);
            let mut b = factory.init(&g, &config(), &mut build);
            let mut ra = rng(61);
            let mut rb = rng(61);
            let changed_a = a.inject_faults(0.3, &mut ra);
            let victims = fault_victims(b.n(), 0.3, &mut rb);
            let changed_b = b.inject_faults_targeted(&victims, &mut rb);
            assert_eq!(changed_a, changed_b, "{key}");
            assert_eq!(a.states_per_vertex(), b.states_per_vertex());
            assert_eq!(a.black_set(), b.black_set(), "{key}: states diverged");
            assert_eq!(ra.next_u64(), rb.next_u64(), "{key}: streams diverged");
        }
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0, 1]")]
    fn inject_faults_rejects_fraction_above_one() {
        let mut stream = rng(47);
        let g = generators::path(4);
        let mut alg = registry()
            .get(TWO_STATE_KEY)
            .unwrap()
            .init(&g, &config(), &mut stream);
        alg.inject_faults(1.5, &mut stream);
    }

    #[test]
    fn byzantine_override_pins_blackness_and_repairs_counters() {
        use crate::byzantine::{ByzantineOverlay, ByzantineStrategy};
        let mut stream = rng(67);
        let g = generators::gnp(50, 0.15, &mut stream);
        let r = registry();
        for key in r.keys() {
            for strategy in ByzantineStrategy::all() {
                let factory = r.get(key).unwrap();
                let mut alg = factory.init(&g, &config(), &mut stream);
                assert!(factory.capabilities().byzantine, "{key}");
                let overlay = ByzantineOverlay::new(strategy, vec![0, 7, 13], 99);
                overlay.apply(alg.as_mut());
                for _ in 0..40 {
                    alg.step(&mut stream);
                    overlay.apply(alg.as_mut());
                    let black = alg.black_set();
                    for u in overlay.vertices() {
                        assert_eq!(
                            black.contains(u),
                            strategy.build(99).displays_black(u, alg.round()),
                            "{key}/{strategy}: override not in force at vertex {u}"
                        );
                    }
                }
                // The adversarial overrides went through the engine's
                // delta-repair path; the aggregate counts must still agree
                // with a from-scratch classification.
                let counts = alg.counts();
                assert_eq!(
                    counts.black,
                    alg.black_set().len(),
                    "{key}/{strategy}: black count drifted"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not support partial activation")]
    fn three_color_rejects_partial_activation() {
        let mut stream = rng(41);
        let g = generators::path(5);
        let mut proc =
            ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut stream);
        proc.set_execution(ExecutionMode::Sequential, 0);
        let factory = *registry().get(THREE_COLOR_KEY).unwrap();
        assert!(!factory.capabilities().partial_activation);
        proc.step_scheduled(&VertexSet::from_indices(5, [0]), &mut stream);
    }

    #[test]
    fn central_daemon_drives_two_state_to_mis() {
        use crate::scheduler::{CentralDaemon, Scheduler};
        let mut stream = rng(43);
        let g = generators::gnp(25, 0.2, &mut stream);
        let factory = *registry().get(TWO_STATE_KEY).unwrap();
        let mut alg = factory.init(&g, &config(), &mut stream);
        let mut daemon = CentralDaemon;
        let mut moves = 0;
        while !alg.is_stabilized() {
            match daemon.next_activation(alg.n(), alg.round(), &mut stream) {
                Activation::All => alg.step(&mut stream),
                Activation::Subset(set) => alg.step_scheduled(&set, &mut stream),
            }
            moves += 1;
            assert!(moves < 1_000_000, "central daemon did not stabilize");
        }
        assert!(mis_check::is_mis(&g, &alg.black_set()));
    }
}
