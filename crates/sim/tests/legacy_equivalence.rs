//! Trace-equivalence regression suite for the registry redesign.
//!
//! The pre-redesign `run_trial` dispatched over a hard-wired match on the
//! seven original algorithms under a fixed synchronous scheduler. This file
//! freezes that implementation verbatim (modulo the removed `DriveOutcome`
//! plumbing) and asserts that, for every legacy algorithm and a fixed seed,
//! the registry path produces **bit-identical** trials: same rounds to
//! stabilization, same MIS, same random-bit counts, same traces.
//!
//! If this suite fails, the redesign changed observable behavior of legacy
//! specs — which it must never do.

use mis_baselines::{
    greedy_mis_random_order, luby_mis, RandomPriorityMis, SequentialScheduler,
    SequentialSelfStabMis,
};
use mis_core::init::InitStrategy;
use mis_core::{Algorithm, ThreeColorProcess, ThreeStateProcess, TwoStateProcess};
use mis_graph::VertexSet;
use mis_sim::metrics::RoundTrace;
use mis_sim::runner::run_trial;
use mis_sim::spec::{ExecutionMode, ExperimentSpec, GraphSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The counter-RNG salt of the runner, frozen at its pre-redesign value.
const COUNTER_SEED_SALT: u64 = 0x0005_EEDC_0DE0_FC01;

/// The registry keys of the seven algorithms the pre-redesign `run_trial`
/// dispatched over, in its original match order.
const LEGACY_KEYS: [&str; 7] = [
    "two-state",
    "three-state",
    "three-color",
    "random-priority",
    "luby",
    "greedy",
    "sequential-selfstab",
];

/// What the legacy path measured for one trial.
#[derive(Debug, PartialEq, Eq)]
struct LegacyTrial {
    rounds: usize,
    stabilized: bool,
    black_set: VertexSet,
    random_bits: u64,
    states_per_vertex: usize,
    trace: Option<RoundTrace>,
}

/// Frozen copy of the pre-redesign drive loop.
fn legacy_drive<P: Algorithm>(
    mut proc: P,
    rng: &mut ChaCha8Rng,
    max_rounds: usize,
    record_trace: bool,
) -> LegacyTrial {
    let mut trace = record_trace.then(RoundTrace::default);
    if let Some(t) = trace.as_mut() {
        t.counts.push(proc.counts());
    }
    let mut stabilized = proc.is_stabilized();
    while !stabilized && proc.round() < max_rounds {
        proc.step(rng);
        if let Some(t) = trace.as_mut() {
            t.counts.push(proc.counts());
        }
        stabilized = proc.is_stabilized();
    }
    LegacyTrial {
        rounds: proc.round(),
        stabilized,
        black_set: proc.black_set(),
        random_bits: proc.random_bits_used(),
        states_per_vertex: proc.states_per_vertex(),
        trace,
    }
}

/// Frozen copy of the pre-redesign `run_trial` (without graph sharing,
/// which never changed RNG streams).
fn legacy_run_trial(spec: &ExperimentSpec, trial: usize) -> LegacyTrial {
    let seed = spec.base_seed.wrapping_add(trial as u64);
    let counter_seed = seed ^ COUNTER_SEED_SALT;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = spec.graph.generate(&mut rng);

    match spec.algorithm.as_str() {
        "two-state" => {
            let mut proc = TwoStateProcess::with_init(&graph, spec.init, &mut rng);
            proc.set_execution(spec.execution, counter_seed);
            legacy_drive(proc, &mut rng, spec.max_rounds, spec.record_trace)
        }
        "three-state" => {
            let mut proc = ThreeStateProcess::with_init(&graph, spec.init, &mut rng);
            proc.set_execution(spec.execution, counter_seed);
            legacy_drive(proc, &mut rng, spec.max_rounds, spec.record_trace)
        }
        "three-color" => {
            let mut proc = ThreeColorProcess::with_randomized_switch(&graph, spec.init, &mut rng);
            proc.set_execution(spec.execution, counter_seed);
            legacy_drive(proc, &mut rng, spec.max_rounds, spec.record_trace)
        }
        "random-priority" => {
            let proc = RandomPriorityMis::random_init(&graph, &mut rng);
            legacy_drive(proc, &mut rng, spec.max_rounds, spec.record_trace)
        }
        "luby" => {
            let out = luby_mis(&graph, &mut rng);
            LegacyTrial {
                rounds: out.rounds,
                stabilized: true,
                black_set: out.mis,
                random_bits: out.random_bits,
                states_per_vertex: usize::MAX,
                trace: None,
            }
        }
        "greedy" => {
            let mis = greedy_mis_random_order(&graph, &mut rng);
            LegacyTrial {
                rounds: 1,
                stabilized: true,
                black_set: mis,
                random_bits: 0,
                states_per_vertex: usize::MAX,
                trace: None,
            }
        }
        "sequential-selfstab" => {
            let init = spec.init.two_state(graph.n(), &mut rng);
            let mut alg = SequentialSelfStabMis::new(&graph, init);
            let out = alg.run(SequentialScheduler::SmallestId, &mut rng);
            LegacyTrial {
                rounds: out.moves,
                stabilized: true,
                black_set: out.mis,
                random_bits: 0,
                states_per_vertex: 2,
                trace: None,
            }
        }
        other => panic!("no legacy driver for algorithm '{other}'"),
    }
}

fn spec(algorithm: &str, graph: GraphSpec, record_trace: bool) -> ExperimentSpec {
    ExperimentSpec {
        name: format!("legacy-equivalence-{algorithm}"),
        graph,
        algorithm: algorithm.to_string(),
        init: InitStrategy::Random,
        execution: ExecutionMode::Sequential,
        trials: 3,
        max_rounds: 200_000,
        base_seed: 20_230_717,
        record_trace,
        ..ExperimentSpec::default()
    }
}

fn assert_equivalent(spec: &ExperimentSpec) {
    for trial in 0..spec.trials {
        let legacy = legacy_run_trial(spec, trial);
        let new = run_trial(spec, trial);
        let label = format!("{} trial {trial}", spec.name);
        assert_eq!(legacy.rounds, new.rounds, "{label}: rounds diverged");
        assert_eq!(legacy.stabilized, new.stabilized, "{label}: stabilized");
        // TrialResult only carries the MIS size; the full black-set equality
        // is pinned separately in `black_sets_are_identical_not_just_equal_sized`.
        assert_eq!(
            legacy.black_set.len(),
            new.mis_size,
            "{label}: MIS size diverged"
        );
        assert_eq!(
            legacy.random_bits, new.random_bits,
            "{label}: random-bit count diverged"
        );
        assert_eq!(
            legacy.states_per_vertex, new.states_per_vertex,
            "{label}: states-per-vertex diverged"
        );
        assert_eq!(legacy.trace, new.trace, "{label}: trace diverged");
    }
}

#[test]
fn all_seven_legacy_algorithms_are_bit_identical_on_gnp() {
    for key in LEGACY_KEYS {
        assert_equivalent(&spec(key, GraphSpec::Gnp { n: 70, p: 0.1 }, false));
    }
}

#[test]
fn all_seven_legacy_algorithms_are_bit_identical_on_complete() {
    for key in LEGACY_KEYS {
        assert_equivalent(&spec(key, GraphSpec::Complete { n: 40 }, false));
    }
}

#[test]
fn traces_are_bit_identical_where_the_legacy_path_recorded_them() {
    for key in LEGACY_KEYS {
        assert_equivalent(&spec(key, GraphSpec::Gnp { n: 50, p: 0.12 }, true));
    }
}

#[test]
fn parallel_execution_stays_bit_identical() {
    for key in ["two-state", "three-state", "three-color"] {
        let mut s = spec(key, GraphSpec::Gnp { n: 60, p: 0.08 }, false);
        s.execution = ExecutionMode::Parallel { threads: 3 };
        assert_equivalent(&s);
    }
}

/// The black set itself (not just its size) must match: re-derive it from a
/// dedicated registry run against the legacy set, for every algorithm.
#[test]
fn black_sets_are_identical_not_just_equal_sized() {
    use mis_core::AlgorithmConfig;
    use mis_sim::builtin_registry;

    for key in LEGACY_KEYS {
        let s = spec(key, GraphSpec::Gnp { n: 60, p: 0.1 }, false);
        let legacy = legacy_run_trial(&s, 0);

        let seed = s.base_seed;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = s.graph.generate(&mut rng);
        let factory = builtin_registry().get(s.algorithm_key()).unwrap();
        let mut alg = factory.init(
            &graph,
            &AlgorithmConfig {
                init: s.init,
                execution: s.execution,
                strategy: s.strategy,
                counter_seed: seed ^ COUNTER_SEED_SALT,
            },
            &mut rng,
        );
        while !alg.is_stabilized() && alg.round() < s.max_rounds {
            alg.step(&mut rng);
        }
        assert_eq!(
            legacy.black_set,
            alg.black_set(),
            "{}: black set diverged",
            s.name
        );
    }
}
