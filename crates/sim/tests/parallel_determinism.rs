//! Property test of the parallel engine's **determinism contract**: under
//! counter-based randomness (`ExecutionMode::Parallel`), the number of
//! worker threads must not influence any observable result. For all three
//! processes, `Parallel{1}`, `Parallel{2}`, and `Parallel{8}` are driven
//! through **arbitrary interleavings of rounds, fault injections**
//! (`corrupt_fraction`, the out-of-band mutation path of experiment E11)
//! **and churn bursts** (`generate_burst` + `apply_mutation`, the live
//! re-stabilization path of `exp_churn`) and must produce identical state
//! vectors, black sets, and [`StateCounts`] after every single operation.
//!
//! Thread count only changes how the round's phases are chunked; since every
//! vertex's randomness is a pure function of `(seed, vertex, round, draw)`
//! and all merges are commutative, the partition must be unobservable.
//!
//! The proptests use graphs below 60 vertices, far below the parallel-work
//! threshold, so every phase of their rounds runs inline on the calling
//! thread: they check the chunk-independent logic under arbitrary
//! interleavings, not cross-thread execution. The rounds that really
//! dispatch onto the **persistent worker pool** (`rayon::global_pool`) are
//! those of `large_instance_runs_identically_across_thread_counts` below
//! (the 2-state process on 20,000 vertices, across a churn burst, which
//! also shows the pool is safely reused across a topology change) and of
//! `counter_model_rounds_agree_across_threads_and_strategies` in
//! `crates/core/tests/work_counts.rs` (all three processes, every round
//! strategy).

use mis_core::init::InitStrategy;
use mis_core::{
    ExecutionMode, Process, StateCounts, ThreeColorProcess, ThreeStateProcess, TwoStateProcess,
};
use mis_graph::{generators, Graph, VertexSet};
use mis_sim::fault::Corruptible;
use mis_sim::generate_burst;
use mis_sim::spec::ChurnScenario;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Thread counts the contract is checked over. 1 is the inline path; on the
/// large instance, 2 and 8 exercise real cross-thread interleavings (8
/// deliberately exceeds the host's core count on small CI machines —
/// oversubscription must not change results either).
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn graph_for(seed: u64, n: usize, p_edge: f64) -> Graph {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    generators::gnp(n.max(1), p_edge, &mut r)
}

/// One observation of a process after an operation.
#[derive(Debug, Clone, PartialEq)]
struct Snapshot<S> {
    states: Vec<S>,
    black: VertexSet,
    counts: StateCounts,
    random_bits: u64,
}

/// Drives one replica per thread count through the same op sequence and
/// asserts the snapshots stay identical after every op.
///
/// `make` builds a fresh process for a given thread count; `snapshot`
/// observes it; `apply` performs op `(kind, fraction)` with the replica's
/// own (identically seeded) fault RNG.
fn check_thread_invariance<P, S: std::fmt::Debug + PartialEq + Clone>(
    ops: &[(u8, f64)],
    seed: u64,
    mut make: impl FnMut(usize) -> P,
    snapshot: impl Fn(&P) -> Snapshot<S>,
    mut apply: impl FnMut(&mut P, (u8, f64), &mut ChaCha8Rng),
) -> Result<(), TestCaseError> {
    let mut replicas: Vec<(P, ChaCha8Rng)> = THREAD_COUNTS
        .iter()
        .map(|&threads| (make(threads), ChaCha8Rng::seed_from_u64(seed ^ 0xFA17)))
        .collect();
    for (i, &op) in ops.iter().enumerate() {
        let mut first: Option<Snapshot<S>> = None;
        for (replica_idx, (proc, fault_rng)) in replicas.iter_mut().enumerate() {
            apply(proc, op, fault_rng);
            let snap = snapshot(proc);
            match &first {
                None => first = Some(snap),
                Some(expected) => {
                    prop_assert!(
                        &snap == expected,
                        "op {i} ({op:?}): threads {} diverged from threads {}",
                        THREAD_COUNTS[replica_idx],
                        THREAD_COUNTS[0],
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 2-state process: identical states/black sets/counts across thread
    /// counts under arbitrary step/corrupt interleavings.
    #[test]
    fn two_state_is_thread_count_invariant(
        seed in 0u64..5_000,
        n in 1usize..60,
        p_edge in 0.0f64..0.4,
        ops in proptest::collection::vec((0u8..3, 0.0f64..1.0), 1..10),
    ) {
        let g = graph_for(seed, n, p_edge);
        check_thread_invariance(
            &ops,
            seed,
            |threads| {
                let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0x2A);
                let mut p = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
                p.set_execution(ExecutionMode::Parallel { threads }, seed);
                p
            },
            |p| Snapshot {
                states: p.states(),
                black: p.black_set(),
                counts: p.counts(),
                random_bits: p.random_bits_used(),
            },
            |p, (kind, fraction), fault_rng| match kind {
                0 => {
                    let mut unused = ChaCha8Rng::seed_from_u64(0);
                    p.step(&mut unused);
                }
                1 => p.corrupt_fraction(fraction, fault_rng),
                _ => {
                    let scenario = ChurnScenario::EdgeChurn { fraction: fraction * 0.3 };
                    let delta = generate_burst(scenario, p.graph(), fault_rng);
                    p.apply_mutation(&delta).expect("burst is valid for the current graph");
                }
            },
        )?;
    }

    /// 3-state process: same property (including the retiring-black0 path
    /// and the process-owned black1 counters).
    #[test]
    fn three_state_is_thread_count_invariant(
        seed in 0u64..5_000,
        n in 1usize..60,
        p_edge in 0.0f64..0.4,
        ops in proptest::collection::vec((0u8..3, 0.0f64..1.0), 1..10),
    ) {
        let g = graph_for(seed, n, p_edge);
        check_thread_invariance(
            &ops,
            seed,
            |threads| {
                let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0x3B);
                let mut p = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut r);
                p.set_execution(ExecutionMode::Parallel { threads }, seed);
                p
            },
            |p| Snapshot {
                states: p.states(),
                black: p.black_set(),
                counts: p.counts(),
                random_bits: p.random_bits_used(),
            },
            |p, (kind, fraction), fault_rng| match kind {
                0 => {
                    let mut unused = ChaCha8Rng::seed_from_u64(0);
                    p.step(&mut unused);
                }
                1 => p.corrupt_fraction(fraction, fault_rng),
                _ => {
                    let scenario = ChurnScenario::EdgeChurn { fraction: fraction * 0.3 };
                    let delta = generate_burst(scenario, p.graph(), fault_rng);
                    p.apply_mutation(&delta).expect("burst is valid for the current graph");
                }
            },
        )?;
    }

    /// 3-color process: same property (colors, the gray/switch gate, and
    /// the counter-based switch sub-process).
    #[test]
    fn three_color_is_thread_count_invariant(
        seed in 0u64..5_000,
        n in 1usize..50,
        p_edge in 0.0f64..0.4,
        ops in proptest::collection::vec((0u8..3, 0.0f64..1.0), 1..8),
    ) {
        let g = graph_for(seed, n, p_edge);
        check_thread_invariance(
            &ops,
            seed,
            |threads| {
                let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0x4C);
                let mut p =
                    ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r);
                p.set_execution(ExecutionMode::Parallel { threads }, seed);
                p
            },
            |p| Snapshot {
                states: p.colors(),
                black: p.black_set(),
                counts: p.counts(),
                random_bits: p.random_bits_used(),
            },
            |p, (kind, fraction), fault_rng| match kind {
                0 => {
                    let mut unused = ChaCha8Rng::seed_from_u64(0);
                    p.step(&mut unused);
                }
                1 => p.corrupt_fraction(fraction, fault_rng),
                _ => {
                    let scenario = ChurnScenario::EdgeChurn { fraction: fraction * 0.3 };
                    let delta = generate_burst(scenario, p.graph(), fault_rng);
                    p.apply_mutation(&delta).expect("burst is valid for the current graph");
                }
            },
        )?;
    }
}

/// Beyond proptest's small sizes: one larger sparse instance crosses the
/// parallel-work threshold so the chunked (multi-thread) code paths really
/// run, and the final stabilized configurations must still agree bit for
/// bit across thread counts. A churn burst is applied after the first
/// stabilization and the process re-stabilized — the same persistent pool
/// serves the dispatches on both sides of the mutation (the `exp_churn`
/// execution shape).
#[test]
fn large_instance_runs_identically_across_thread_counts() {
    let g = graph_for(99, 20_000, 6.0 / 20_000.0);
    let mut finals = Vec::new();
    for &threads in &THREAD_COUNTS {
        let mut r = ChaCha8Rng::seed_from_u64(1234);
        let mut p = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        p.set_execution(ExecutionMode::Parallel { threads }, 4321);
        let rounds = p
            .run_to_stabilization(&mut r, 100_000)
            .expect("2-state stabilizes on sparse G(n,p)");
        assert!(mis_graph::mis_check::is_mis(&g, &p.black_set()));
        let mut burst_rng = ChaCha8Rng::seed_from_u64(5678);
        let delta = generate_burst(
            ChurnScenario::EdgeChurn { fraction: 0.05 },
            p.graph(),
            &mut burst_rng,
        );
        p.apply_mutation(&delta)
            .expect("burst is valid for the current graph");
        let rounds2 = p
            .run_to_stabilization(&mut r, 100_000)
            .expect("2-state re-stabilizes after the churn burst");
        assert!(mis_graph::mis_check::is_mis(p.graph(), &p.black_set()));
        finals.push((
            rounds,
            rounds2,
            p.black_set(),
            p.counts(),
            p.random_bits_used(),
        ));
    }
    assert_eq!(finals[0], finals[1]);
    assert_eq!(finals[0], finals[2]);
}
