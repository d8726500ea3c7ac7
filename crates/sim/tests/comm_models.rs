//! End-to-end runs of the weak-communication models through
//! `run_experiment`: the beeping 2-state adaptation and both stone-age
//! adaptations are ordinary registry algorithms now, driven by the same
//! scheduler/observer harness as everything else.

use mis_core::ByzantineStrategy;
use mis_sim::runner::run_experiment;
use mis_sim::spec::{
    ByzantineSpec, ExperimentSpec, FaultSpec, GraphSpec, SchedulerSpec, VictimSelection,
};
use proptest::prelude::*;

const COMM_KEYS: [&str; 3] = [
    "beeping-two-state",
    "stone-age-three-state",
    "stone-age-three-color",
];

fn spec(key: &str, graph: GraphSpec, seed: u64) -> ExperimentSpec {
    ExperimentSpec::builder()
        .name(format!("comm-{key}"))
        .graph(graph)
        .algorithm(key)
        .trials(4)
        .max_rounds(500_000)
        .base_seed(seed)
        .build()
}

#[test]
fn comm_models_stabilize_to_valid_mis_on_gnp() {
    for key in COMM_KEYS {
        let result = run_experiment(&spec(key, GraphSpec::Gnp { n: 60, p: 0.1 }, 404));
        assert_eq!(result.trials.len(), 4, "{key}");
        assert!(result.all_stabilized(), "{key} did not stabilize on G(n,p)");
        assert!(
            result.all_valid(),
            "{key} produced an invalid MIS on G(n,p)"
        );
        assert!(
            result.trials.iter().all(|t| t.mis_size >= 1),
            "{key}: empty MIS on a non-empty graph"
        );
    }
}

#[test]
fn comm_models_stabilize_to_valid_mis_on_complete() {
    for key in COMM_KEYS {
        let result = run_experiment(&spec(key, GraphSpec::Complete { n: 32 }, 405));
        assert!(result.all_stabilized(), "{key} did not stabilize on K_n");
        assert!(result.all_valid(), "{key} produced an invalid MIS on K_n");
        // The MIS of a clique is a single vertex.
        assert!(
            result.trials.iter().all(|t| t.mis_size == 1),
            "{key}: clique MIS must have size 1"
        );
    }
}

#[test]
fn comm_models_report_their_state_budgets() {
    let expectations = [
        ("beeping-two-state", 2),
        ("stone-age-three-state", 3),
        ("stone-age-three-color", 18),
    ];
    for (key, states) in expectations {
        let result = run_experiment(&spec(key, GraphSpec::Gnp { n: 30, p: 0.2 }, 406));
        assert!(result.trials.iter().all(|t| t.states_per_vertex == states));
    }
}

#[test]
fn beeping_model_runs_under_partial_activation_schedulers() {
    for scheduler in [
        SchedulerSpec::CentralDaemon,
        SchedulerSpec::RandomSubset { p: 0.4 },
    ] {
        let mut s = spec("beeping-two-state", GraphSpec::Gnp { n: 24, p: 0.2 }, 407);
        s.scheduler = scheduler;
        s.max_rounds = 1_000_000;
        s.trials = 2;
        let result = run_experiment(&s);
        assert!(result.all_stabilized(), "{scheduler:?}");
        assert!(result.all_valid(), "{scheduler:?}");
    }
}

/// What a trial adds to a synchronous run from a random configuration.
#[derive(Debug, Clone)]
enum Scenario {
    Plain,
    Fault(FaultSpec),
    Byzantine(ByzantineStrategy),
    Scheduler(SchedulerSpec),
}

impl Scenario {
    /// Every scenario on a graph of `n` vertices; `partial_activation`
    /// adds the two non-synchronous schedulers.
    fn all(n: usize, fraction: f64, partial_activation: bool) -> Vec<Scenario> {
        let mut scenarios = vec![
            Scenario::Plain,
            Scenario::Fault(FaultSpec::after_stabilization(fraction)),
            // Mid-run, so some victims are hit while the run is unstable.
            Scenario::Fault(FaultSpec::targeted((0..n).step_by(3).collect()).at_round(2)),
        ];
        scenarios.extend(ByzantineStrategy::all().map(Scenario::Byzantine));
        if partial_activation {
            scenarios.push(Scenario::Scheduler(SchedulerSpec::CentralDaemon));
            scenarios.push(Scenario::Scheduler(SchedulerSpec::RandomSubset { p: 0.5 }));
        }
        scenarios
    }

    fn spec(&self, key: &str, n: usize, p: f64, seed: u64) -> ExperimentSpec {
        let mut spec = ExperimentSpec::builder()
            .name("differential")
            .graph(GraphSpec::Gnp { n, p })
            .algorithm(key)
            .trials(2)
            .max_rounds(200_000)
            .base_seed(seed)
            .record_trace(true)
            .build();
        match self {
            Scenario::Plain => {}
            Scenario::Fault(fault) => spec.fault = Some(fault.clone()),
            Scenario::Byzantine(strategy) => {
                let count = 1 + n / 10;
                spec.byzantine = Some(
                    ByzantineSpec::new(*strategy, VictimSelection::Random { count }).seed(seed),
                );
            }
            Scenario::Scheduler(scheduler) => spec.scheduler = *scheduler,
        }
        spec
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential check at harness level: each weak-communication network
    /// and the direct process it adapts consume identical RNG streams, so
    /// whole `TrialResult`s, per-round traces included, coincide under
    /// faults, Byzantine overrides and (where supported) partial activation.
    /// Small sparse `G(n, p)` leaves isolated vertices in many cases.
    #[test]
    fn comm_models_match_their_direct_processes_through_the_harness(
        seed in 0u64..10_000,
        n in 1usize..30,
        p in 0.0f64..0.4,
        fraction in 0.05f64..1.0,
    ) {
        for (network, direct, partial_activation) in [
            ("beeping-two-state", "two-state", true),
            ("stone-age-three-state", "three-state", true),
            ("stone-age-three-color", "three-color", false),
        ] {
            for scenario in Scenario::all(n, fraction, partial_activation) {
                let ours = run_experiment(&scenario.spec(network, n, p, seed));
                let reference = run_experiment(&scenario.spec(direct, n, p, seed));
                prop_assert!(ours.trials.iter().all(|t| t.trace.is_some()));
                prop_assert!(
                    ours.trials == reference.trials,
                    "{network} differs from {direct} under {scenario:?}"
                );
            }
        }
    }
}
