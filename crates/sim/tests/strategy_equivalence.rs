//! Property test: the adaptive dense/sparse round engine is **bit-identical**
//! across strategies. For each of the three processes, under arbitrary
//! interleavings of rounds and fault injections, the `auto` strategy must
//! produce exactly the same states, black sets, random-bit tallies, and
//! [`StateCounts`] as (a) the forced `sparse` strategy and (b) the naive
//! `step_reference` full-scan oracle — the same contract the pre-adaptive
//! engine was pinned to, now extended over the strategy dimension.
//!
//! Fault injections interleave with rounds so the strategy decision is
//! exercised right after out-of-band state mutations (`set_color` /
//! `set_state`), not just along the natural dense → sparse trajectory.

use mis_core::init::InitStrategy;
use mis_core::{Algorithm, RoundStrategy, ThreeColorProcess, ThreeStateProcess, TwoStateProcess};
use mis_graph::{generators, Graph};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn graph_for(seed: u64, n: usize, p_edge: f64) -> Graph {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    generators::gnp(n.max(1), p_edge, &mut r)
}

/// One observation of a process after an operation.
type Snapshot = (
    Vec<u8>,
    mis_graph::VertexSet,
    mis_core::StateCounts,
    u64,
    bool,
);

macro_rules! strategy_equivalence_test {
    ($name:ident, $make:expr, $states:expr, $reference:expr, $salt:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            #[test]
            fn $name(
                seed in 0u64..5_000,
                n in 1usize..60,
                p_edge in 0.0f64..0.5,
                ops in proptest::collection::vec((0u8..2, 0.0f64..1.0), 1..12),
            ) {
                let g = graph_for(seed, n, p_edge);
                // Three replicas driven by identical RNG streams: auto,
                // forced sparse, and the full-scan reference oracle.
                let mut streams: Vec<ChaCha8Rng> = (0..3)
                    .map(|_| ChaCha8Rng::seed_from_u64(seed ^ $salt))
                    .collect();
                let mut auto_proc = $make(&g, &mut streams[0]);
                auto_proc.set_strategy(RoundStrategy::Auto);
                let mut sparse_proc = $make(&g, &mut streams[1]);
                sparse_proc.set_strategy(RoundStrategy::Sparse);
                let mut reference_proc = $make(&g, &mut streams[2]);

                for (i, &(kind, fraction)) in ops.iter().enumerate() {
                    let mut snapshots: Vec<Snapshot> = Vec::new();
                    for (which, rng) in streams.iter_mut().enumerate() {
                        let proc: &mut _ = match which {
                            0 => &mut auto_proc,
                            1 => &mut sparse_proc,
                            _ => &mut reference_proc,
                        };
                        match (kind, which) {
                            (0, 2) => $reference(proc, rng),
                            (0, _) => proc.step(rng),
                            (_, _) => {
                                proc.inject_faults(fraction, rng);
                            }
                        }
                        snapshots.push((
                            $states(proc),
                            proc.black_set(),
                            proc.counts(),
                            proc.random_bits_used(),
                            proc.is_stabilized(),
                        ));
                    }
                    prop_assert!(
                        snapshots[0] == snapshots[1],
                        "auto vs sparse diverged at op {} (seed {})",
                        i,
                        seed
                    );
                    prop_assert!(
                        snapshots[0] == snapshots[2],
                        "auto vs reference diverged at op {} (seed {})",
                        i,
                        seed
                    );
                }
            }
        }
    };
}

strategy_equivalence_test!(
    two_state_auto_matches_sparse_and_reference,
    |g, rng: &mut ChaCha8Rng| TwoStateProcess::with_init(g, InitStrategy::Random, rng),
    |p: &TwoStateProcess<'_>| p
        .states()
        .iter()
        .map(|c| c.is_black() as u8)
        .collect::<Vec<u8>>(),
    |p: &mut TwoStateProcess<'_>, rng: &mut ChaCha8Rng| p.step_reference(rng),
    0xA110
);

strategy_equivalence_test!(
    three_state_auto_matches_sparse_and_reference,
    |g, rng: &mut ChaCha8Rng| ThreeStateProcess::with_init(g, InitStrategy::Random, rng),
    |p: &ThreeStateProcess<'_>| p
        .states()
        .iter()
        .map(|s| match s {
            mis_core::ThreeState::White => 0u8,
            mis_core::ThreeState::Black1 => 1,
            mis_core::ThreeState::Black0 => 2,
        })
        .collect::<Vec<u8>>(),
    |p: &mut ThreeStateProcess<'_>, rng: &mut ChaCha8Rng| p.step_reference(rng),
    0xB220
);

strategy_equivalence_test!(
    three_color_auto_matches_sparse_and_reference,
    |g, rng: &mut ChaCha8Rng| ThreeColorProcess::with_randomized_switch(
        g,
        InitStrategy::Random,
        rng
    ),
    |p: &ThreeColorProcess<'_, mis_core::RandomizedLogSwitch<'_>>| p
        .colors()
        .iter()
        .map(|c| match c {
            mis_core::ThreeColor::White => 0u8,
            mis_core::ThreeColor::Black => 1,
            mis_core::ThreeColor::Gray => 2,
        })
        .collect::<Vec<u8>>(),
    |p: &mut ThreeColorProcess<'_, mis_core::RandomizedLogSwitch<'_>>, rng: &mut ChaCha8Rng| p
        .step_reference(rng),
    0xC330
);

/// Forced `dense` must also match forced `sparse` along a pure round
/// trajectory (no faults needed — the strategies differ only in traversal).
#[test]
fn forced_dense_matches_forced_sparse_for_all_processes() {
    let g = graph_for(99, 80, 0.08);
    // 2-state.
    let run_two = |strategy: RoundStrategy| {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut p = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut rng);
        p.set_strategy(strategy);
        for _ in 0..30 {
            if p.is_stabilized() {
                break;
            }
            p.step(&mut rng);
        }
        (p.states(), p.black_set(), p.random_bits_used(), p.round())
    };
    assert_eq!(
        run_two(RoundStrategy::Dense),
        run_two(RoundStrategy::Sparse)
    );
    // 3-state.
    let run_three = |strategy: RoundStrategy| {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut p = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut rng);
        p.set_strategy(strategy);
        for _ in 0..30 {
            if p.is_stabilized() {
                break;
            }
            p.step(&mut rng);
        }
        (p.states(), p.black_set(), p.random_bits_used(), p.round())
    };
    assert_eq!(
        run_three(RoundStrategy::Dense),
        run_three(RoundStrategy::Sparse)
    );
    // 3-color.
    let run_color = |strategy: RoundStrategy| {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut rng);
        p.set_strategy(strategy);
        for _ in 0..30 {
            if p.is_stabilized() {
                break;
            }
            p.step(&mut rng);
        }
        (p.colors(), p.black_set(), p.random_bits_used(), p.round())
    };
    assert_eq!(
        run_color(RoundStrategy::Dense),
        run_color(RoundStrategy::Sparse)
    );
}
