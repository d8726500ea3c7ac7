//! Integration tests that check the *shape* of the paper's headline bounds at
//! small scale: who is fast where, and what grows how. These are coarse (they
//! must be robust to Monte-Carlo noise at test sizes) but they pin down the
//! qualitative claims of Theorems 8, 11, 12 and Remarks 9, 10.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use selfstab_mis::core::init::InitStrategy;
use selfstab_mis::core::{Algorithm, ThreeStateProcess, TwoStateProcess};
use selfstab_mis::graph::generators;
use selfstab_mis::sim::stats::Summary;

fn two_state_rounds(g: &selfstab_mis::graph::Graph, trials: usize, seed: u64) -> Summary {
    let samples: Vec<usize> = (0..trials)
        .map(|t| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed + t as u64);
            let mut p = TwoStateProcess::with_init(g, InitStrategy::Random, &mut rng);
            p.run_to_stabilization(&mut rng, 10_000_000).unwrap()
        })
        .collect();
    Summary::from_counts(samples)
}

fn three_state_rounds(g: &selfstab_mis::graph::Graph, trials: usize, seed: u64) -> Summary {
    let samples: Vec<usize> = (0..trials)
        .map(|t| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed + t as u64);
            let mut p = ThreeStateProcess::with_init(g, InitStrategy::Random, &mut rng);
            p.run_to_stabilization(&mut rng, 10_000_000).unwrap()
        })
        .collect();
    Summary::from_counts(samples)
}

/// Theorem 8: on K_n the 2-state process is O(log n) in expectation — the
/// mean at n = 512 must be a small multiple of log₂ n, far below n.
#[test]
fn clique_stabilization_is_logarithmic_not_polynomial() {
    let g = generators::complete(512);
    let s = two_state_rounds(&g, 24, 100);
    let log_n = (512f64).log2();
    assert!(
        s.mean <= 6.0 * log_n,
        "mean {:.1} rounds on K_512 is too large for an O(log n) expectation (log2 n = {log_n:.1})",
        s.mean
    );
    assert!(s.mean >= 1.0);
}

/// Theorem 11: trees stabilize in O(log n); doubling n from 1024 to 4096 must
/// grow the mean by far less than 4x (logarithmic, not polynomial growth).
#[test]
fn tree_stabilization_grows_sublinearly() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let small = generators::random_tree(1024, &mut rng);
    let large = generators::random_tree(4096, &mut rng);
    let s_small = two_state_rounds(&small, 12, 200);
    let s_large = two_state_rounds(&large, 12, 300);
    assert!(
        s_large.mean <= 2.0 * s_small.mean + 5.0,
        "tree stabilization grew from {:.1} to {:.1} when n grew 4x — not logarithmic",
        s_small.mean,
        s_large.mean
    );
}

/// Remark 9 vs Theorem 11: at comparable n, the disjoint-cliques family
/// (Θ(log² n)) is slower than a random tree (O(log n)).
#[test]
fn disjoint_cliques_are_slower_than_trees() {
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let cliques = generators::disjoint_cliques(32, 32); // n = 1024
    let tree = generators::random_tree(1024, &mut rng);
    let s_cliques = two_state_rounds(&cliques, 16, 400);
    let s_tree = two_state_rounds(&tree, 16, 500);
    assert!(
        s_cliques.mean > s_tree.mean,
        "disjoint cliques ({:.1}) should be slower than trees ({:.1})",
        s_cliques.mean,
        s_tree.mean
    );
}

/// Remark 10: the 3-state process is faster than the 2-state process on a
/// clique (O(log n) vs Θ(log² n)); at n = 512 the separation is clear.
#[test]
fn three_state_beats_two_state_on_cliques() {
    let g = generators::complete(512);
    let two = two_state_rounds(&g, 24, 600);
    let three = three_state_rounds(&g, 24, 700);
    assert!(
        three.mean < two.mean,
        "3-state ({:.1}) should beat 2-state ({:.1}) on K_512",
        three.mean,
        two.mean
    );
}

/// Theorem 12's dependence on Δ: a 32-regular graph is slower than a
/// 4-regular graph at the same n, but by far less than the 8x degree ratio
/// (the bound is O(Δ log n), the truth is usually much better).
#[test]
fn higher_degree_regular_graphs_are_not_drastically_slower() {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let low = generators::regular(256, 4, &mut rng).unwrap();
    let high = generators::regular(256, 32, &mut rng).unwrap();
    let s_low = two_state_rounds(&low, 16, 800);
    let s_high = two_state_rounds(&high, 16, 900);
    assert!(
        s_high.mean <= 32.0 * s_low.mean,
        "32-regular mean {:.1} exceeds the O(Δ log n) scaling relative to 4-regular mean {:.1}",
        s_high.mean,
        s_low.mean
    );
}
