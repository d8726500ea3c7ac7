//! The registry entries of the baseline MIS algorithms.
//!
//! The random-priority baseline is a genuine synchronous process and
//! implements [`Algorithm`] itself. Luby's algorithm, the sequential greedy,
//! and the deterministic sequential self-stabilizing algorithm are
//! *one-shot*: their entries run the whole algorithm during
//! [`AlgorithmFactory::init`] (consuming the trial RNG exactly as the
//! pre-registry harness did) and return a [`FinishedMis`], a terminated
//! process that reports the outcome's metrics.

use mis_core::algorithm::{
    Algorithm, AlgorithmFactory, Capabilities, CommunicationModel, Registry,
};
use mis_core::StateCounts;
use mis_graph::VertexSet;
use rand::RngCore;

use crate::greedy::greedy_mis_random_order;
use crate::luby::luby_mis;
use crate::random_priority::RandomPriorityMis;
use crate::sequential_selfstab::{SequentialScheduler, SequentialSelfStabMis};

/// Registry key of the random-priority baseline.
pub const RANDOM_PRIORITY_KEY: &str = "random-priority";
/// Registry key of Luby's algorithm.
pub const LUBY_KEY: &str = "luby";
/// Registry key of the greedy baseline.
pub const GREEDY_KEY: &str = "greedy";
/// Registry key of the sequential self-stabilizing baseline.
pub const SEQUENTIAL_SELFSTAB_KEY: &str = "sequential-selfstab";

/// A terminated MIS computation exposed as an [`Algorithm`]: every vertex
/// is stable, the black set is the computed MIS, and the reported `round`
/// count is the cost the algorithm already paid (rounds for Luby, 1 for
/// greedy, moves for the sequential baseline). The run happened inside the
/// factory, so there are no per-round configurations to trace.
#[derive(Debug, Clone)]
pub struct FinishedMis {
    n: usize,
    mis: VertexSet,
    rounds: usize,
    random_bits: u64,
    states_per_vertex: usize,
}

impl FinishedMis {
    /// Wraps a computed MIS with its cost metrics.
    pub fn new(
        n: usize,
        mis: VertexSet,
        rounds: usize,
        random_bits: u64,
        states_per_vertex: usize,
    ) -> Self {
        assert_eq!(mis.universe(), n, "MIS universe must match the graph");
        FinishedMis {
            n,
            mis,
            rounds,
            random_bits,
            states_per_vertex,
        }
    }
}

impl Algorithm for FinishedMis {
    fn n(&self) -> usize {
        self.n
    }

    fn round(&self) -> usize {
        self.rounds
    }

    fn step(&mut self, _rng: &mut dyn RngCore) {
        // Already terminated; a step changes nothing.
    }

    fn is_stabilized(&self) -> bool {
        true
    }

    fn black_set(&self) -> VertexSet {
        self.mis.clone()
    }

    fn active_set(&self) -> VertexSet {
        VertexSet::new(self.n)
    }

    fn stable_black_set(&self) -> VertexSet {
        self.mis.clone()
    }

    fn unstable_set(&self) -> VertexSet {
        VertexSet::new(self.n)
    }

    fn counts(&self) -> StateCounts {
        StateCounts {
            black: self.mis.len(),
            non_black: self.n - self.mis.len(),
            active: 0,
            stable_black: self.mis.len(),
            unstable: 0,
        }
    }

    fn states_per_vertex(&self) -> usize {
        self.states_per_vertex
    }

    fn random_bits_used(&self) -> u64 {
        self.random_bits
    }
}

/// Registers the four baselines (`random-priority`, `luby`, `greedy`,
/// `sequential-selfstab`) in `registry`. Only random-priority is a running
/// process: it recovers from faults and traces its rounds.
pub fn register_baseline_algorithms(registry: &mut Registry) {
    let one_shot = Capabilities::default();
    registry.register(AlgorithmFactory::new(
        RANDOM_PRIORITY_KEY,
        "random-priority self-stabilizing baseline (Turau-style, fresh 32-bit priorities per round)",
        CommunicationModel::MessagePassing,
        Capabilities {
            fault_injection: true,
            trace: true,
            ..one_shot
        },
        // Self-stabilization is exercised from a uniformly random membership
        // vector regardless of the init strategy, matching the legacy
        // harness behavior.
        |graph, _config, rng| Box::new(RandomPriorityMis::random_init(graph, rng)),
    ));
    registry.register(AlgorithmFactory::new(
        LUBY_KEY,
        "Luby's randomized distributed MIS (not self-stabilizing; run inside init)",
        CommunicationModel::MessagePassing,
        one_shot,
        |graph, _config, rng| {
            let out = luby_mis(graph, rng);
            let n = graph.n();
            Box::new(FinishedMis::new(
                n,
                out.mis,
                out.rounds,
                out.random_bits,
                usize::MAX,
            ))
        },
    ));
    registry.register(AlgorithmFactory::new(
        GREEDY_KEY,
        "sequential greedy MIS in a uniformly random scan order (centralized, one pass)",
        CommunicationModel::Centralized,
        one_shot,
        |graph, _config, rng| {
            // One centralized pass; its shuffle randomness is not metered as
            // per-vertex random bits (legacy harness behavior).
            let mis = greedy_mis_random_order(graph, rng);
            Box::new(FinishedMis::new(graph.n(), mis, 1, 0, usize::MAX))
        },
    ));
    registry.register(AlgorithmFactory::new(
        SEQUENTIAL_SELFSTAB_KEY,
        "deterministic sequential self-stabilizing MIS under the smallest-id central scheduler",
        CommunicationModel::Centralized,
        one_shot,
        |graph, config, rng| {
            let init = config.init.two_state(graph.n(), rng);
            let out =
                SequentialSelfStabMis::new(graph, init).run(SequentialScheduler::SmallestId, rng);
            // `rounds` carries the move count: the algorithm's natural cost
            // measure under a central scheduler (at most 2n).
            Box::new(FinishedMis::new(graph.n(), out.mis, out.moves, 0, 2))
        },
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_core::init::InitStrategy;
    use mis_core::{AlgorithmConfig, ExecutionMode};
    use mis_graph::{generators, mis_check};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn config() -> AlgorithmConfig {
        AlgorithmConfig {
            init: InitStrategy::Random,
            execution: ExecutionMode::Sequential,
            strategy: mis_core::RoundStrategy::Auto,
            counter_seed: 0,
        }
    }

    fn registry() -> Registry {
        let mut r = Registry::new();
        register_baseline_algorithms(&mut r);
        r
    }

    #[test]
    fn all_baseline_factories_build_valid_mis() {
        let r = registry();
        assert_eq!(
            r.keys(),
            vec!["greedy", "luby", "random-priority", "sequential-selfstab"]
        );
        let mut stream = rng(1);
        let g = generators::gnp(50, 0.1, &mut stream);
        for key in r.keys() {
            let factory = r.get(key).unwrap();
            let mut alg = factory.init(&g, &config(), &mut stream);
            let mut guard = 0;
            while !alg.is_stabilized() {
                alg.step(&mut stream);
                guard += 1;
                assert!(guard < 100_000, "{key}");
            }
            assert!(mis_check::is_mis(&g, &alg.black_set()), "{key}");
        }
    }

    #[test]
    fn one_shot_adapters_report_legacy_metrics() {
        let mut stream = rng(3);
        let g = generators::gnp(40, 0.12, &mut stream);

        let r = registry();
        let greedy = r.get(GREEDY_KEY).unwrap().init(&g, &config(), &mut stream);
        assert!(greedy.is_stabilized());
        assert_eq!(greedy.round(), 1);
        assert_eq!(greedy.random_bits_used(), 0);
        assert_eq!(greedy.states_per_vertex(), usize::MAX);
        assert!(!r.get(GREEDY_KEY).unwrap().capabilities().trace);

        let seq = r
            .get(SEQUENTIAL_SELFSTAB_KEY)
            .unwrap()
            .init(&g, &config(), &mut stream);
        assert!(seq.round() <= 2 * g.n(), "move bound violated");
        assert_eq!(seq.states_per_vertex(), 2);

        let luby = r.get(LUBY_KEY).unwrap().init(&g, &config(), &mut stream);
        assert!(luby.round() >= 1);
        assert!(luby.random_bits_used() > 0);
    }

    #[test]
    fn finished_mis_is_a_terminated_process() {
        let mis = VertexSet::from_indices(4, [0, 2]);
        let mut f = FinishedMis::new(4, mis.clone(), 7, 9, 2);
        assert!(f.is_stabilized());
        assert_eq!(f.round(), 7);
        let mut r = rng(4);
        f.step(&mut r); // no-op
        assert_eq!(f.round(), 7);
        assert_eq!(f.black_set(), mis);
        assert_eq!(f.stable_black_set(), mis);
        assert_eq!(f.active_set().len(), 0);
        assert_eq!(f.unstable_set().len(), 0);
        let c = f.counts();
        assert_eq!(c.black, 2);
        assert_eq!(c.non_black, 2);
        assert_eq!(c.unstable, 0);
    }

    #[test]
    fn random_priority_supports_fault_injection() {
        let mut stream = rng(5);
        let g = generators::gnp(40, 0.15, &mut stream);
        let factory = *registry().get(RANDOM_PRIORITY_KEY).unwrap();
        let mut alg = factory.init(&g, &config(), &mut stream);
        assert!(factory.capabilities().fault_injection);
        let mut guard = 0;
        while !alg.is_stabilized() {
            alg.step(&mut stream);
            guard += 1;
            assert!(guard < 100_000);
        }
        alg.inject_faults(1.0, &mut stream);
        while !alg.is_stabilized() {
            alg.step(&mut stream);
            guard += 1;
            assert!(guard < 200_000);
        }
        assert!(mis_check::is_mis(&g, &alg.black_set()));
    }
}
