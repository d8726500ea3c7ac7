//! Deterministic work counters of fixed solves, gated in CI: a change in
//! how much work the rounds do shows up here as a count, not only as wall
//! time on a noisy host.

use mis_core::init::InitStrategy;
use mis_core::{
    Algorithm, ExecutionMode, RoundStrategy, StateCounts, ThreeColorProcess, ThreeStateProcess,
    TwoStateProcess,
};
use mis_graph::{generators, VertexSet};
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

/// What one counter-model run observes; equal across thread counts and
/// round strategies.
#[derive(Debug, PartialEq)]
struct Outcome<S> {
    rounds: usize,
    random_bits: u64,
    black: VertexSet,
    counts: StateCounts,
    states: Vec<S>,
}

/// Runs one process under `Parallel { threads }` for 1 and two thread counts
/// no other test here uses (so the pool's dispatch counters are this
/// test's alone), with each round strategy forced, for at most 40 rounds.
/// Every run must observe the same outcome; the rounds, the random bits
/// and the dispatches of each strategy's multi-thread runs are pinned, and
/// no sparse round may cost more than 2 pool dispatches or 4 barrier
/// crossings (the fused decide+scatter/flush budget).
fn check_counter_matrix<P: Algorithm, S: std::fmt::Debug + PartialEq>(
    label: &str,
    make: impl Fn(ExecutionMode, RoundStrategy) -> P,
    states: impl Fn(&P) -> Vec<S>,
    (rounds, random_bits): (usize, u64),
    dispatches: [u64; 3],
) {
    let strategies = [
        RoundStrategy::Sparse,
        RoundStrategy::Dense,
        RoundStrategy::Auto,
    ];
    let mut first: Option<Outcome<S>> = None;
    for (strategy, expected_dispatches) in strategies.into_iter().zip(dispatches) {
        for threads in [1usize, 3, 7] {
            let ctx = format!("{label}, {strategy:?}, {threads} threads");
            let pool = rayon::global_pool(threads);
            let before = pool.stats().dispatches;
            let mut p = make(ExecutionMode::Parallel { threads }, strategy);
            let mut unused = ChaCha8Rng::seed_from_u64(0);
            while !p.is_stabilized() && p.round() < 40 {
                let round_before = pool.stats();
                p.step(&mut unused);
                let round_after = pool.stats();
                if strategy == RoundStrategy::Sparse {
                    let used = round_after.dispatches - round_before.dispatches;
                    let crossed = round_after.barriers - round_before.barriers;
                    assert!(
                        used <= 2 && crossed <= 4,
                        "{ctx}, round {}: {used} dispatches, {crossed} barriers (budget: 2, 4)",
                        p.round()
                    );
                }
            }
            if threads > 1 {
                let used = pool.stats().dispatches - before;
                assert_eq!(used, expected_dispatches, "dispatches: {ctx}");
            }
            let outcome = Outcome {
                rounds: p.round(),
                random_bits: p.random_bits_used(),
                black: p.black_set(),
                counts: p.counts(),
                states: states(&p),
            };
            match &first {
                None => first = Some(outcome),
                Some(expected) => assert!(&outcome == expected, "{ctx} diverged"),
            }
        }
    }
    let first = first.expect("the matrix ran");
    assert_eq!(first.rounds, rounds, "{label}");
    assert_eq!(first.random_bits, random_bits, "{label}");
}

/// The counter-model rounds above the parallel threshold for all three
/// processes: `par_round` with the 3-state `black1`↔`black0` re-queue,
/// the multi-range dense sweep and the dense recount with its on-demand
/// `black1` reads, on `gnp(2·10⁴, 6/n)` (the large `parallel_determinism`
/// instance).
#[test]
fn counter_model_rounds_agree_across_threads_and_strategies() {
    let n = 20_000;
    let g = generators::gnp(n, 6.0 / n as f64, &mut ChaCha8Rng::seed_from_u64(99));
    let init = || ChaCha8Rng::seed_from_u64(1234);
    check_counter_matrix(
        "two-state",
        |mode, strategy| {
            let mut p = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut init());
            p.set_execution(mode, 4321);
            p.set_strategy(strategy);
            p
        },
        TwoStateProcess::states,
        (26, 29_194),
        [10, 52, 10],
    );
    check_counter_matrix(
        "three-state",
        |mode, strategy| {
            let mut p = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut init());
            p.set_execution(mode, 4321);
            p.set_strategy(strategy);
            p
        },
        ThreeStateProcess::states,
        (16, 104_517),
        [32, 32, 32],
    );
    check_counter_matrix(
        "three-color",
        |mode, strategy| {
            let mut p =
                ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut init());
            p.set_execution(mode, 4321);
            p.set_strategy(strategy);
            p
        },
        |p| p.colors(),
        (40, 1_618_296),
        [8, 80, 8],
    );
}
