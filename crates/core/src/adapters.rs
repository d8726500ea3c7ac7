//! [`Algorithm`] adapters and factories for the paper's three processes.
//!
//! Each adapter wraps the concrete process, delegates the shared accessors
//! through [`Algorithm::process`], and adds the capabilities the direct
//! implementations have: counter-based parallel rounds, scheduled
//! (partial-activation) steps where the semantics are well defined, and
//! in-place transient-fault injection.

use mis_graph::{CommittedDelta, Graph, GraphDelta, VertexId};
use rand::RngCore;

use crate::algorithm::{
    coin, fault_victims, uniform3, Algorithm, AlgorithmConfig, AlgorithmFactory,
    CommunicationModel, Registry, StepCtx,
};
use crate::mutation::MutationError;
use crate::process::Process;
use crate::scheduler::Activation;
use crate::three_color::{ThreeColor, ThreeColorProcess};
use crate::three_state::{ThreeState, ThreeStateProcess};
use crate::two_state::{Color, TwoStateProcess};
use crate::RandomizedLogSwitch;

/// Registry key of the 2-state process.
pub const TWO_STATE_KEY: &str = "two-state";
/// Registry key of the 3-state process.
pub const THREE_STATE_KEY: &str = "three-state";
/// Registry key of the 3-color process (randomized logarithmic switch).
pub const THREE_COLOR_KEY: &str = "three-color";

/// The 2-state MIS process (Definition 4) as a pluggable [`Algorithm`].
#[derive(Debug, Clone)]
pub struct TwoStateAlgorithm<'g> {
    inner: TwoStateProcess<'g>,
}

impl<'g> TwoStateAlgorithm<'g> {
    /// Wraps an existing process instance.
    pub fn new(inner: TwoStateProcess<'g>) -> Self {
        TwoStateAlgorithm { inner }
    }

    /// The wrapped process.
    pub fn inner(&self) -> &TwoStateProcess<'g> {
        &self.inner
    }
}

impl Algorithm for TwoStateAlgorithm<'_> {
    fn name(&self) -> &'static str {
        TWO_STATE_KEY
    }

    fn communication_model(&self) -> CommunicationModel {
        // The direct implementation reads neighbor states; the rule itself
        // is beeping-implementable (see the `beeping-two-state` entry).
        CommunicationModel::FullStateExchange
    }

    fn process(&self) -> &dyn Process {
        &self.inner
    }

    fn process_mut(&mut self) -> &mut dyn Process {
        &mut self.inner
    }

    fn step(&mut self, ctx: StepCtx<'_>) {
        match ctx.activation {
            Activation::All => self.inner.step(ctx.rng),
            Activation::Subset(set) => self.inner.step_scheduled(set, ctx.rng),
        }
    }

    fn inject_faults(&mut self, fraction: f64, rng: &mut dyn RngCore) -> usize {
        let victims = fault_victims(self.inner.n(), fraction, rng);
        self.inject_faults_targeted(&victims, rng)
    }

    fn inject_faults_targeted(&mut self, victims: &[VertexId], rng: &mut dyn RngCore) -> usize {
        let mut changed = 0;
        for &u in victims {
            let color = if coin(rng) {
                Color::Black
            } else {
                Color::White
            };
            if self.inner.color(u) != color {
                changed += 1;
            }
            self.inner.set_color(u, color);
        }
        changed
    }

    fn set_byzantine_state(&mut self, u: VertexId, black: bool) -> bool {
        let color = if black { Color::Black } else { Color::White };
        let changed = self.inner.color(u) != color;
        self.inner.set_color(u, color);
        changed
    }

    fn apply_mutation(&mut self, delta: &GraphDelta) -> Result<CommittedDelta, MutationError> {
        self.inner.apply_mutation(delta)
    }

    fn current_graph(&self) -> Option<&Graph> {
        Some(self.inner.graph())
    }

    fn supports_topology_change(&self) -> bool {
        true
    }

    fn supports_parallel(&self) -> bool {
        true
    }

    fn supports_counter_rng(&self) -> bool {
        true
    }

    fn supports_partial_activation(&self) -> bool {
        true
    }

    fn supports_fault_injection(&self) -> bool {
        true
    }

    fn supports_byzantine(&self) -> bool {
        true
    }
}

/// The 3-state MIS process (Definition 5) as a pluggable [`Algorithm`].
#[derive(Debug, Clone)]
pub struct ThreeStateAlgorithm<'g> {
    inner: ThreeStateProcess<'g>,
}

impl<'g> ThreeStateAlgorithm<'g> {
    /// Wraps an existing process instance.
    pub fn new(inner: ThreeStateProcess<'g>) -> Self {
        ThreeStateAlgorithm { inner }
    }

    /// The wrapped process.
    pub fn inner(&self) -> &ThreeStateProcess<'g> {
        &self.inner
    }
}

impl Algorithm for ThreeStateAlgorithm<'_> {
    fn name(&self) -> &'static str {
        THREE_STATE_KEY
    }

    fn communication_model(&self) -> CommunicationModel {
        CommunicationModel::FullStateExchange
    }

    fn process(&self) -> &dyn Process {
        &self.inner
    }

    fn process_mut(&mut self) -> &mut dyn Process {
        &mut self.inner
    }

    fn step(&mut self, ctx: StepCtx<'_>) {
        match ctx.activation {
            Activation::All => self.inner.step(ctx.rng),
            Activation::Subset(set) => self.inner.step_scheduled(set, ctx.rng),
        }
    }

    fn inject_faults(&mut self, fraction: f64, rng: &mut dyn RngCore) -> usize {
        let victims = fault_victims(self.inner.n(), fraction, rng);
        self.inject_faults_targeted(&victims, rng)
    }

    fn inject_faults_targeted(&mut self, victims: &[VertexId], rng: &mut dyn RngCore) -> usize {
        let mut changed = 0;
        for &u in victims {
            let state = match uniform3(rng) {
                0 => ThreeState::Black1,
                1 => ThreeState::Black0,
                _ => ThreeState::White,
            };
            if self.inner.state(u) != state {
                changed += 1;
            }
            self.inner.set_state(u, state);
        }
        changed
    }

    fn set_byzantine_state(&mut self, u: VertexId, black: bool) -> bool {
        // Black means the *asserting* black state (Black1): the adversary
        // claims membership loudly, maximally perturbing the black1
        // counters its neighbors maintain.
        let state = if black {
            ThreeState::Black1
        } else {
            ThreeState::White
        };
        let changed = self.inner.state(u) != state;
        self.inner.set_state(u, state);
        changed
    }

    fn apply_mutation(&mut self, delta: &GraphDelta) -> Result<CommittedDelta, MutationError> {
        self.inner.apply_mutation(delta)
    }

    fn current_graph(&self) -> Option<&Graph> {
        Some(self.inner.graph())
    }

    fn supports_topology_change(&self) -> bool {
        true
    }

    fn supports_parallel(&self) -> bool {
        true
    }

    fn supports_counter_rng(&self) -> bool {
        true
    }

    fn supports_partial_activation(&self) -> bool {
        true
    }

    fn supports_fault_injection(&self) -> bool {
        true
    }

    fn supports_byzantine(&self) -> bool {
        true
    }
}

/// The 3-color MIS process with the randomized logarithmic switch
/// (Definition 28, 18 states) as a pluggable [`Algorithm`].
///
/// The switch is a phase clock that advances *every* vertex every round, so
/// partial activation has no well-defined semantics here and
/// [`supports_partial_activation`](Algorithm::supports_partial_activation)
/// is `false`.
#[derive(Debug, Clone)]
pub struct ThreeColorAlgorithm<'g> {
    inner: ThreeColorProcess<'g, RandomizedLogSwitch<'g>>,
}

impl<'g> ThreeColorAlgorithm<'g> {
    /// Wraps an existing process instance.
    pub fn new(inner: ThreeColorProcess<'g, RandomizedLogSwitch<'g>>) -> Self {
        ThreeColorAlgorithm { inner }
    }

    /// The wrapped process.
    pub fn inner(&self) -> &ThreeColorProcess<'g, RandomizedLogSwitch<'g>> {
        &self.inner
    }
}

impl Algorithm for ThreeColorAlgorithm<'_> {
    fn name(&self) -> &'static str {
        THREE_COLOR_KEY
    }

    fn communication_model(&self) -> CommunicationModel {
        CommunicationModel::FullStateExchange
    }

    fn process(&self) -> &dyn Process {
        &self.inner
    }

    fn process_mut(&mut self) -> &mut dyn Process {
        &mut self.inner
    }

    fn inject_faults(&mut self, fraction: f64, rng: &mut dyn RngCore) -> usize {
        let victims = fault_victims(self.inner.n(), fraction, rng);
        self.inject_faults_targeted(&victims, rng)
    }

    fn inject_faults_targeted(&mut self, victims: &[VertexId], rng: &mut dyn RngCore) -> usize {
        let mut changed = 0;
        // A victim's whole local memory — color *and* switch level — is
        // overwritten, and it counts once if either changed, matching the
        // stone-age 3-color adapter and the trait contract.
        for &u in victims {
            let color = match uniform3(rng) {
                0 => ThreeColor::Black,
                1 => ThreeColor::Gray,
                _ => ThreeColor::White,
            };
            let level = (rng.next_u32() % 6) as u8;
            if self.inner.color(u) != color || self.inner.switch().level(u) != level {
                changed += 1;
            }
            self.inner.set_color(u, color);
            self.inner.set_switch_level(u, level);
        }
        changed
    }

    fn set_byzantine_state(&mut self, u: VertexId, black: bool) -> bool {
        // Only the color neighbors observe is overridden; the switch level
        // keeps ticking (the adversary controls blackness, not the clock).
        let color = if black {
            ThreeColor::Black
        } else {
            ThreeColor::White
        };
        let changed = self.inner.color(u) != color;
        self.inner.set_color(u, color);
        changed
    }

    fn apply_mutation(&mut self, delta: &GraphDelta) -> Result<CommittedDelta, MutationError> {
        self.inner.apply_mutation(delta)
    }

    fn current_graph(&self) -> Option<&Graph> {
        Some(self.inner.graph())
    }

    fn supports_topology_change(&self) -> bool {
        true
    }

    fn supports_parallel(&self) -> bool {
        true
    }

    fn supports_counter_rng(&self) -> bool {
        true
    }

    fn supports_fault_injection(&self) -> bool {
        true
    }

    fn supports_byzantine(&self) -> bool {
        true
    }
}

struct TwoStateFactory;

impl AlgorithmFactory for TwoStateFactory {
    fn key(&self) -> &'static str {
        TWO_STATE_KEY
    }

    fn description(&self) -> &'static str {
        "2-state MIS process (Definition 4): 1 random bit per active vertex per round"
    }

    fn communication_model(&self) -> CommunicationModel {
        CommunicationModel::FullStateExchange
    }

    fn init<'g>(
        &self,
        graph: &'g Graph,
        config: &AlgorithmConfig,
        rng: &mut dyn RngCore,
    ) -> Box<dyn Algorithm + 'g> {
        let mut proc = TwoStateProcess::with_init(graph, config.init, rng);
        proc.set_execution(config.execution, config.counter_seed);
        proc.set_strategy(config.strategy);
        Box::new(TwoStateAlgorithm::new(proc))
    }
}

struct ThreeStateFactory;

impl AlgorithmFactory for ThreeStateFactory {
    fn key(&self) -> &'static str {
        THREE_STATE_KEY
    }

    fn description(&self) -> &'static str {
        "3-state MIS process (Definition 5): stone-age-implementable, no collision detection"
    }

    fn communication_model(&self) -> CommunicationModel {
        CommunicationModel::FullStateExchange
    }

    fn init<'g>(
        &self,
        graph: &'g Graph,
        config: &AlgorithmConfig,
        rng: &mut dyn RngCore,
    ) -> Box<dyn Algorithm + 'g> {
        let mut proc = ThreeStateProcess::with_init(graph, config.init, rng);
        proc.set_execution(config.execution, config.counter_seed);
        proc.set_strategy(config.strategy);
        Box::new(ThreeStateAlgorithm::new(proc))
    }
}

struct ThreeColorFactory;

impl AlgorithmFactory for ThreeColorFactory {
    fn key(&self) -> &'static str {
        THREE_COLOR_KEY
    }

    fn description(&self) -> &'static str {
        "3-color MIS process with randomized logarithmic switch (Definition 28, 18 states)"
    }

    fn communication_model(&self) -> CommunicationModel {
        CommunicationModel::FullStateExchange
    }

    fn init<'g>(
        &self,
        graph: &'g Graph,
        config: &AlgorithmConfig,
        rng: &mut dyn RngCore,
    ) -> Box<dyn Algorithm + 'g> {
        let mut proc = ThreeColorProcess::with_randomized_switch(graph, config.init, rng);
        proc.set_execution(config.execution, config.counter_seed);
        proc.set_strategy(config.strategy);
        Box::new(ThreeColorAlgorithm::new(proc))
    }
}

/// Registers the paper's three processes (`two-state`, `three-state`,
/// `three-color`) in `registry`.
pub fn register_core_algorithms(registry: &mut Registry) {
    registry.register(Box::new(TwoStateFactory));
    registry.register(Box::new(ThreeStateFactory));
    registry.register(Box::new(ThreeColorFactory));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecutionMode;
    use crate::init::InitStrategy;
    use mis_graph::{generators, mis_check, VertexSet};
    use rand::SeedableRng;
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
        assert_eq!(r.keys(), vec!["three-color", "three-state", "two-state"]);
        let mut stream = rng(5);
        let g = generators::gnp(60, 0.1, &mut stream);
        for key in r.keys() {
            let factory = r.get(key).unwrap();
            let mut alg = factory.init(&g, &config(), &mut stream);
            assert_eq!(alg.name(), key);
            assert_eq!(alg.n(), 60);
            let mut guard = 0;
            while !alg.is_stabilized() {
                alg.step(StepCtx::synchronous(&mut stream));
                guard += 1;
                assert!(guard < 100_000, "{key} did not stabilize");
            }
            assert!(mis_check::is_mis(&g, &alg.black_set()), "{key}");
            assert!(alg.random_bits_used() > 0, "{key}");
            assert!(alg.supports_parallel() && alg.supports_counter_rng());
            assert!(alg.supports_trace());
        }
    }

    #[test]
    fn synchronous_step_matches_direct_process() {
        let mut setup = rng(11);
        let g = generators::gnp(50, 0.12, &mut setup);
        let init = InitStrategy::Random.two_state(g.n(), &mut setup);
        let mut direct = TwoStateProcess::new(&g, init.clone());
        let mut alg = TwoStateAlgorithm::new(TwoStateProcess::new(&g, init));
        let mut ra = rng(13);
        let mut rb = rng(13);
        for _ in 0..100 {
            if direct.is_stabilized() {
                break;
            }
            direct.step(&mut ra);
            alg.step(StepCtx::synchronous(&mut rb));
        }
        assert_eq!(direct.states(), alg.inner().states());
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
            assert!(alg.supports_fault_injection());
            let mut guard = 0;
            while !alg.is_stabilized() {
                alg.step(StepCtx::synchronous(&mut stream));
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
                alg.step(StepCtx::synchronous(&mut stream));
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
            assert_eq!(
                a.process().states_per_vertex(),
                b.process().states_per_vertex()
            );
            assert_eq!(a.black_set(), b.black_set(), "{key}: states diverged");
            assert_eq!(ra.next_u64(), rb.next_u64(), "{key}: streams diverged");
        }
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
                assert!(alg.supports_byzantine(), "{key}");
                let overlay = ByzantineOverlay::new(strategy, vec![0, 7, 13], 99);
                overlay.apply(alg.as_mut());
                for _ in 0..40 {
                    alg.step(StepCtx::synchronous(&mut stream));
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
        let mut alg = ThreeColorAlgorithm::new(proc);
        assert!(!alg.supports_partial_activation());
        let activation = Activation::Subset(VertexSet::from_indices(5, [0]));
        alg.step(StepCtx {
            rng: &mut stream,
            activation: &activation,
        });
    }

    #[test]
    fn central_daemon_drives_two_state_to_mis() {
        use crate::scheduler::{CentralDaemon, Scheduler};
        let mut stream = rng(43);
        let g = generators::gnp(25, 0.2, &mut stream);
        let factory = TwoStateFactory;
        let mut alg = factory.init(&g, &config(), &mut stream);
        let mut daemon = CentralDaemon;
        let mut moves = 0;
        while !alg.is_stabilized() {
            let activation = daemon.next_activation(alg.n(), alg.round(), &mut stream);
            alg.step(StepCtx {
                rng: &mut stream,
                activation: &activation,
            });
            moves += 1;
            assert!(moves < 1_000_000, "central daemon did not stabilize");
        }
        assert!(mis_check::is_mis(&g, &alg.black_set()));
    }
}
