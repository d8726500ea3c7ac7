//! Property test for the Byzantine-override path: after **arbitrary
//! interleavings** of rounds, transient faults, churn bursts, and
//! adversarial overrides ([`ByzantineOverlay::apply`]), every engine
//! process must
//!
//! 1. stay **bit-identical across thread counts** — the same interleaving
//!    driven through `Parallel {1}`, `Parallel {2}`, and `Parallel {8}`
//!    instances yields the same states, counters, and random-bit totals
//!    (the overlay is keyed by its own counter RNG and must never touch
//!    the trial stream or the per-thread partitioning);
//! 2. keep its **cached counters equal to a from-scratch recount** — the
//!    `O(1)` aggregate counts must agree with the materialized black /
//!    active / stable-black / unstable sets after every op, i.e. the
//!    overlay's delta-repair discipline matches `apply_mutation`'s;
//! 3. still **converge under the driver**: handing the surviving instance
//!    to [`drive_algorithm`] with the same overlay terminates (containment
//!    or stabilization) and yields a valid MIS outside the containment
//!    radius of the Byzantine set.

use mis_core::init::InitStrategy;
use mis_core::{
    AlgorithmConfig, ByzantineOverlay, ByzantineStrategy, ExecutionMode, RoundStrategy,
};
use mis_graph::{generators, mis_check, Graph};
use mis_sim::spec::{ChurnScenario, SchedulerSpec};
use mis_sim::{builtin_registry, drive_algorithm, generate_burst, Observer, CONTAINMENT_RADIUS};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn graph_for(seed: u64, n: usize, p_edge: f64) -> Graph {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    generators::gnp(n.max(1), p_edge, &mut r)
}

/// One op of the interleaving: `0..=1` = synchronous round, `2` = transient
/// fault of `fraction`, `3` = adversarial override sweep, `4..` = churn
/// burst of a scenario derived from the payload.
type Op = (u8, f64, usize, usize);

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..6, 0.0f64..0.4, 0usize..5, 0usize..4), 1..8)
}

fn scenario_for(kind: u8, fraction: f64, a: usize, b: usize) -> ChurnScenario {
    match kind % 3 {
        0 => ChurnScenario::EdgeChurn { fraction },
        1 => ChurnScenario::JoinLeave { join: a, leave: b },
        _ => ChurnScenario::RegionFailure { fraction },
    }
}

/// Drives the interleaving against `Parallel {1, 2, 8}` instances of one
/// registry algorithm and checks the three properties of the module doc.
fn check_process(
    key: &str,
    seed: u64,
    n: usize,
    p_edge: f64,
    strategy_idx: usize,
    byz: &[usize],
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let g = graph_for(seed, n, p_edge);
    let strategy = ByzantineStrategy::all()[strategy_idx % 4];
    let victims: Vec<usize> = byz.iter().map(|&v| v % g.n()).collect();
    let overlay = ByzantineOverlay::new(strategy, victims, seed ^ 0xb12a);

    let factory = builtin_registry().get(key).expect("engine key");
    let threads = [1usize, 2, 8];
    let mut algs = Vec::new();
    let mut rngs = Vec::new();
    for &t in &threads {
        let config = AlgorithmConfig {
            init: InitStrategy::Random,
            execution: ExecutionMode::Parallel { threads: t },
            strategy: RoundStrategy::Auto,
            counter_seed: seed ^ 0xc0de,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xd1ce);
        algs.push(factory.init(&g, &config, &mut rng));
        rngs.push(rng);
    }

    for (i, &(kind, fraction, a, b)) in ops.iter().enumerate() {
        for (alg, rng) in algs.iter_mut().zip(rngs.iter_mut()) {
            match kind {
                0 | 1 => alg.step(rng),
                2 => {
                    alg.inject_faults(fraction, rng);
                }
                3 => {
                    overlay.apply(alg.as_mut());
                }
                _ => {
                    let delta = {
                        let scenario = scenario_for(kind, fraction, a, b);
                        let graph = alg.current_graph().expect("engine exposes its graph");
                        generate_burst(scenario, graph, rng)
                    };
                    alg.apply_mutation(&delta)
                        .expect("generated burst is valid");
                }
            }
        }
        // Cached counters must equal a from-scratch recount of the
        // materialized sets, on every instance.
        for (alg, &t) in algs.iter().zip(threads.iter()) {
            let counts = alg.counts();
            let p = alg;
            let ctx = format!("op {i} (kind {kind}), threads {t}, seed {seed}");
            prop_assert!(counts.black == p.black_set().len(), "black recount: {ctx}");
            prop_assert!(
                counts.active == p.active_set().len(),
                "active recount: {ctx}"
            );
            prop_assert!(
                counts.stable_black == p.stable_black_set().len(),
                "stable-black recount: {ctx}"
            );
            prop_assert!(
                counts.unstable == p.unstable_set().len(),
                "unstable recount: {ctx}"
            );
            prop_assert!(
                counts.black + counts.non_black == alg.n(),
                "partition: {ctx}"
            );
        }
        // Bit-identity across thread counts.
        let reference = &algs[0];
        for (alg, &t) in algs.iter().zip(threads.iter()).skip(1) {
            let ctx = format!("op {i} (kind {kind}), threads {t} vs 1, seed {seed}");
            prop_assert!(alg.n() == reference.n(), "n diverged: {ctx}");
            prop_assert!(alg.counts() == reference.counts(), "counts diverged: {ctx}");
            prop_assert!(
                alg.black_set() == reference.black_set(),
                "black set diverged: {ctx}"
            );
            prop_assert!(
                alg.unstable_set() == reference.unstable_set(),
                "unstable set diverged: {ctx}"
            );
            prop_assert!(
                alg.random_bits_used() == reference.random_bits_used(),
                "random-bit totals diverged: {ctx}"
            );
        }
    }

    // The surviving instance must still converge under the real driver and
    // satisfy the containment-aware MIS property.
    let alg = algs[0].as_mut();
    let rng = &mut rngs[0];
    let mut scheduler = SchedulerSpec::Synchronous.build();
    let mut observers: Vec<&mut dyn Observer> = Vec::new();
    let outcome = drive_algorithm(
        alg,
        scheduler.as_mut(),
        rng,
        1_000_000,
        None,
        None,
        Some(&overlay),
        &mut observers,
    );
    prop_assert!(outcome.stabilized, "driver must contain or stabilize");
    let final_graph = alg.current_graph().expect("engine exposes its graph");
    prop_assert!(
        mis_check::is_mis_outside(
            final_graph,
            &outcome.black_set,
            &overlay.vertices(),
            CONTAINMENT_RADIUS
        ),
        "MIS-outside violated for {key}, strategy {strategy}, seed {seed}"
    );
    Ok(())
}

/// Drives an adaptive (re-sampling) overlay through an interleaving of
/// churn bursts and override sweeps on a single instance, with a twin
/// overlay replaying the same calls, and checks that
///
/// 1. re-sampling is **deterministic**: the twin ends with the identical
///    victim set (the draws are a pure function of the construction seed
///    and call sequence);
/// 2. after every re-sample the victim set is **well-formed**: sorted,
///    deduplicated, in range, every victim attached (departed victims are
///    replaced or dropped, never kept), and never larger than before.
///
/// (The trial stream is untouched by construction: draws go through the
/// overlay's own counter RNG, never the honest `rng` passed here.)
fn check_resample(
    key: &str,
    seed: u64,
    n: usize,
    p_edge: f64,
    strategy_idx: usize,
    byz: &[usize],
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let g = graph_for(seed, n, p_edge);
    let strategy = ByzantineStrategy::all()[strategy_idx % 4];
    let victims: Vec<usize> = byz.iter().map(|&v| v % g.n()).collect();
    let overlay =
        ByzantineOverlay::new(strategy, victims.clone(), seed ^ 0xb12a).with_resample(true);
    let twin = ByzantineOverlay::new(strategy, victims, seed ^ 0xb12a).with_resample(true);

    let factory = builtin_registry().get(key).expect("engine key");
    let config = AlgorithmConfig {
        init: InitStrategy::Random,
        execution: ExecutionMode::Parallel { threads: 2 },
        strategy: RoundStrategy::Auto,
        counter_seed: seed ^ 0xc0de,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xd1ce);
    let mut alg = factory.init(&g, &config, &mut rng);

    for (i, &(kind, fraction, a, b)) in ops.iter().enumerate() {
        match kind {
            0 | 1 => alg.step(&mut rng),
            2 => {
                alg.inject_faults(fraction, &mut rng);
            }
            3 => {
                overlay.apply(alg.as_mut());
            }
            _ => {
                let delta = {
                    let scenario = scenario_for(kind, fraction, a, b);
                    let graph = alg.current_graph().expect("engine exposes its graph");
                    generate_burst(scenario, graph, &mut rng)
                };
                alg.apply_mutation(&delta)
                    .expect("generated burst is valid");
                let graph = alg.current_graph().expect("engine exposes its graph");
                let before = overlay.vertices().len();
                overlay.resample_departed(graph);
                twin.resample_departed(graph);

                let after = overlay.vertices();
                let ctx = format!("op {i} (kind {kind}), seed {seed}, {key}");
                prop_assert!(after.len() <= before, "victim set grew: {ctx}");
                let mut sorted = after.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert!(after == sorted, "set not canonical: {ctx}");
                for &u in &after {
                    prop_assert!(
                        u < graph.n() && graph.degree(u) > 0,
                        "victim {u} departed but survived re-sampling: {ctx}"
                    );
                }
                prop_assert!(
                    after == twin.vertices(),
                    "re-sampling diverged from the twin replay: {ctx}"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn two_state_byzantine_interleavings_are_thread_invariant(
        seed in 0u64..5_000,
        n in 1usize..32,
        p_edge in 0.0f64..0.4,
        strategy_idx in 0usize..4,
        byz in proptest::collection::vec(0usize..64, 0..4),
        ops in ops_strategy(),
    ) {
        check_process("two-state", seed, n, p_edge, strategy_idx, &byz, &ops)?;
    }

    #[test]
    fn three_state_byzantine_interleavings_are_thread_invariant(
        seed in 0u64..5_000,
        n in 1usize..32,
        p_edge in 0.0f64..0.4,
        strategy_idx in 0usize..4,
        byz in proptest::collection::vec(0usize..64, 0..4),
        ops in ops_strategy(),
    ) {
        check_process("three-state", seed, n, p_edge, strategy_idx, &byz, &ops)?;
    }

    #[test]
    fn three_color_byzantine_interleavings_are_thread_invariant(
        seed in 0u64..5_000,
        n in 1usize..28,
        p_edge in 0.0f64..0.4,
        strategy_idx in 0usize..4,
        byz in proptest::collection::vec(0usize..64, 0..4),
        ops in ops_strategy(),
    ) {
        check_process("three-color", seed, n, p_edge, strategy_idx, &byz, &ops)?;
    }

    #[test]
    fn adaptive_overlays_resample_deterministically_under_churn(
        seed in 0u64..5_000,
        n in 1usize..32,
        p_edge in 0.0f64..0.4,
        strategy_idx in 0usize..4,
        byz in proptest::collection::vec(0usize..64, 0..4),
        ops in ops_strategy(),
    ) {
        check_resample("two-state", seed, n, p_edge, strategy_idx, &byz, &ops)?;
    }
}
