//! Contract test: every capability a registry key declares holds on its
//! instances, and every capability it does not declare is refused at the
//! call.
//!
//! * topology change: `apply_mutation` commits an edge insertion, or
//!   declines with `MutationError::Unsupported` and leaves the state alone;
//! * parallel: under `ExecutionMode::Parallel` the trajectory ignores the
//!   RNG passed to `step` and the thread count; otherwise the mode is
//!   ignored altogether;
//! * partial activation: `step_scheduled` moves only scheduled vertices, or
//!   panics;
//! * faults: `FaultSpec::targeted(all vertices)` corrupts at least one
//!   vertex and the run recovers, and `inject_faults(f)` equals
//!   `fault_victims` plus `inject_faults_targeted` on the same stream; or
//!   the targeted call panics;
//! * Byzantine overrides: `set_byzantine_state` pins the displayed
//!   blackness with consistent counts, or panics;
//! * traces: a tracing instance starts at round 0, a one-shot one has
//!   already paid its cost inside `init`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mis_core::init::InitStrategy;
use mis_core::{
    fault_victims, Algorithm, AlgorithmConfig, AlgorithmFactory, ExecutionMode, MutationError,
    RoundStrategy, Synchronous,
};
use mis_graph::{generators, mis_check, Graph, GraphDelta, VertexSet};
use mis_sim::{builtin_registry, drive_algorithm, EventLogObserver, FaultSpec};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn config(execution: ExecutionMode) -> AlgorithmConfig {
    AlgorithmConfig {
        init: InitStrategy::Random,
        execution,
        strategy: RoundStrategy::Auto,
        counter_seed: 77,
    }
}

/// An instance of `factory` on `graph`, built from the stream seeded 59.
fn build<'g>(
    factory: &AlgorithmFactory,
    graph: &'g Graph,
    execution: ExecutionMode,
) -> Box<dyn Algorithm + 'g> {
    factory.init(graph, &config(execution), &mut rng(59))
}

/// Runs `f` and returns its panic message, if it panicked.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let panic = catch_unwind(AssertUnwindSafe(f)).err()?;
    Some(
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default(),
    )
}

fn assert_refused(key: &str, what: &str, f: impl FnOnce()) {
    let message = panic_message(f).unwrap_or_else(|| panic!("{key}: {what} was not refused"));
    assert!(
        message.contains(&format!("does not support {what}")),
        "{key}: unexpected refusal: {message}"
    );
}

fn check_topology(key: &str, factory: &AlgorithmFactory, g: &Graph) {
    let mut alg = build(factory, g, ExecutionMode::Sequential);
    let before = alg.black_set();
    let (u, v) = (0..g.n())
        .flat_map(|u| (u + 1..g.n()).map(move |v| (u, v)))
        .find(|&(u, v)| !g.has_edge(u, v))
        .expect("the graph is not complete");
    let mut delta = GraphDelta::new();
    delta.add_edge(u, v);
    match alg.apply_mutation(&delta) {
        Ok(committed) => {
            assert!(factory.capabilities().topology_change, "{key}");
            assert_eq!(committed.inserted, vec![(u, v)], "{key}");
            let graph = alg.current_graph().expect("mutated graph");
            assert!(graph.has_edge(u, v), "{key}");
        }
        Err(e) => {
            assert!(!factory.capabilities().topology_change, "{key}: {e}");
            assert_eq!(e, MutationError::Unsupported, "{key}");
            assert_eq!(
                alg.black_set(),
                before,
                "{key}: a declined mutation changed state"
            );
        }
    }
}

fn check_parallel(key: &str, factory: &AlgorithmFactory, g: &Graph) {
    let trajectory = |execution, step_seed| {
        let mut alg = build(factory, g, execution);
        let mut step_rng = rng(step_seed);
        (0..6)
            .map(|_| {
                alg.step(&mut step_rng);
                (alg.black_set(), alg.random_bits_used())
            })
            .collect::<Vec<_>>()
    };
    let parallel = trajectory(ExecutionMode::Parallel { threads: 2 }, 1);
    if factory.capabilities().parallel {
        assert_eq!(
            parallel,
            trajectory(ExecutionMode::Parallel { threads: 2 }, 2),
            "{key}: a counter-model round read the step RNG"
        );
        assert_eq!(
            parallel,
            trajectory(ExecutionMode::Parallel { threads: 1 }, 3),
            "{key}: the thread count changed the trajectory"
        );
    } else {
        assert_eq!(
            parallel,
            trajectory(ExecutionMode::Sequential, 1),
            "{key}: an algorithm without parallel rounds did not ignore the mode"
        );
    }
}

fn check_partial(key: &str, factory: &AlgorithmFactory, g: &Graph) {
    let mut alg = build(factory, g, ExecutionMode::Sequential);
    let even = VertexSet::from_indices(g.n(), (0..g.n()).step_by(2));
    if !factory.capabilities().partial_activation {
        assert_refused(key, "partial activation", || {
            alg.step_scheduled(&even, &mut rng(5))
        });
        return;
    }
    for _ in 0..4 {
        let (before, round) = (alg.black_set(), alg.round());
        alg.step_scheduled(&even, &mut rng(5));
        assert_eq!(alg.round(), round + 1, "{key}");
        let after = alg.black_set();
        for u in (1..g.n()).step_by(2) {
            assert_eq!(before.contains(u), after.contains(u), "{key}: vertex {u}");
        }
    }
}

fn check_faults(key: &str, factory: &AlgorithmFactory, g: &Graph) {
    let everyone: Vec<usize> = (0..g.n()).collect();
    if !factory.capabilities().fault_injection {
        let mut alg = build(factory, g, ExecutionMode::Sequential);
        assert_refused(key, "fault injection", || {
            alg.inject_faults_targeted(&everyone, &mut rng(5));
        });
        return;
    }
    let mut alg = build(factory, g, ExecutionMode::Sequential);
    let mut log = EventLogObserver::new();
    let out = drive_algorithm(
        alg.as_mut(),
        &mut Synchronous,
        &mut rng(61),
        100_000,
        Some(FaultSpec::targeted(everyone)),
        None,
        None,
        &mut [&mut log],
    );
    assert!(
        log.total_corrupted() > 0,
        "{key}: a targeted fault on every vertex corrupted nothing"
    );
    assert!(log.total_corrupted() <= g.n(), "{key}");
    assert!(
        out.stabilized && mis_check::is_mis(g, &out.black_set),
        "{key}"
    );

    // The fraction path is the victim sample plus the targeted path.
    let mut a = build(factory, g, ExecutionMode::Sequential);
    let mut b = build(factory, g, ExecutionMode::Sequential);
    let (mut ra, mut rb) = (rng(67), rng(67));
    let changed_a = a.inject_faults(0.3, &mut ra);
    let victims = fault_victims(b.n(), 0.3, &mut rb);
    let changed_b = b.inject_faults_targeted(&victims, &mut rb);
    assert_eq!(changed_a, changed_b, "{key}");
    assert!(changed_a <= victims.len(), "{key}: a victim counted twice");
    assert_eq!(a.black_set(), b.black_set(), "{key}: states diverged");
    assert_eq!(a.counts(), b.counts(), "{key}");
    assert_eq!(ra.next_u64(), rb.next_u64(), "{key}: streams diverged");
}

fn check_byzantine(key: &str, factory: &AlgorithmFactory, g: &Graph) {
    let mut alg = build(factory, g, ExecutionMode::Sequential);
    if !factory.capabilities().byzantine {
        assert_refused(key, "Byzantine overrides", || {
            alg.set_byzantine_state(0, true);
        });
        return;
    }
    for (u, black) in [(0, true), (1, false), (2, true), (0, false), (1, true)] {
        alg.set_byzantine_state(u, black);
        let shown = alg.black_set();
        assert_eq!(shown.contains(u), black, "{key}: vertex {u}");
        assert_eq!(
            alg.counts().black,
            shown.len(),
            "{key}: black count drifted"
        );
        assert!(
            !alg.set_byzantine_state(u, black),
            "{key}: repeating an override changed state"
        );
    }
}

#[test]
fn every_declared_capability_holds_and_every_other_is_refused() {
    let g = generators::gnp(60, 0.1, &mut rng(53));
    let registry = builtin_registry();
    assert_eq!(registry.len(), 10);
    for factory in registry.factories() {
        let key = factory.key();
        let alg = build(factory, &g, ExecutionMode::Sequential);
        assert_eq!(alg.n(), g.n(), "{key}");
        assert_eq!(
            alg.round() == 0,
            factory.capabilities().trace,
            "{key}: a tracing instance starts at round 0; a one-shot one has run"
        );
        check_topology(key, factory, &g);
        check_parallel(key, factory, &g);
        check_partial(key, factory, &g);
        check_faults(key, factory, &g);
        check_byzantine(key, factory, &g);
    }
}
