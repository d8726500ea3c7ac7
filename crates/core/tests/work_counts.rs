//! Deterministic work counters of one fixed solve, gated in CI: a change in
//! how much work the rounds do shows up here as a count, not only as wall
//! time on a noisy host.

use mis_core::init::InitStrategy;
use mis_core::{Process, ThreeColorProcess};
use mis_graph::generators;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The 3-color process, sequential, on `gnp_counter(10⁴, 8/n)` with one
/// fixed seed. Rounds, random bits, and MIS size pin the trajectory; the
/// frontier length summed over the run pins the work. Gray vertices whose
/// switch is off wait off the frontier, which keeps that sum more than ten
/// times below what a frontier holding every gray vertex accumulates.
#[test]
fn three_color_solve_counts_and_frontier_work() {
    let n = 10_000;
    let g = generators::gnp_counter(n, 8.0 / n as f64, 12);
    let mut rng = ChaCha8Rng::seed_from_u64(34);
    let mut p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut rng);
    let mut frontier_sum = 0usize;
    while !p.is_stabilized() {
        assert!(p.round() < 100_000, "no stabilization");
        frontier_sum += p.engine().frontier_len();
        p.step(&mut rng);
    }
    assert_eq!(p.round(), 1113);
    assert_eq!(p.random_bits_used(), 3_162_305);
    assert_eq!(p.black_set().len(), 2831);
    // A frontier holding every gray vertex sums to 2,026,449 on this run.
    assert!(
        frontier_sum <= 100_000,
        "frontier summed over the run grew to {frontier_sum}"
    );
}
