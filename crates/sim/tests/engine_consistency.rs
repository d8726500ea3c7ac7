//! Property test: after **arbitrary interleavings** of `step` and
//! `corrupt_fraction`, every piece of the incremental engine bookkeeping —
//! the delta-maintained black-neighbor counters, the frontier, the cached
//! per-vertex flags, and the cached [`StateCounts`] — must equal a
//! from-scratch recount, for all three processes.
//!
//! `corrupt_fraction` exercises the out-of-band mutation path
//! (`set_color`/`set_state`), which must keep the incremental bookkeeping
//! consistent by delta updates rather than full rebuilds; interleaving it
//! with rounds is exactly the fault-recovery workload of experiment E11.

use mis_core::init::InitStrategy;
use mis_core::{
    ExecutionMode, FrontierEngine, Process, RoundStrategy, StateCounts, SwitchProcess, ThreeColor,
    ThreeColorProcess, ThreeState, ThreeStateProcess, TwoStateProcess,
};
use mis_graph::{generators, Graph, VertexSet};
use mis_sim::fault::Corruptible;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// From-scratch oracle of everything the engine caches.
struct Oracle {
    black_nbrs: Vec<usize>,
    active: VertexSet,
    pending: VertexSet,
    stable_black: VertexSet,
    unstable: VertexSet,
    counts: StateCounts,
}

/// Recomputes all engine bookkeeping from the graph and the blackness /
/// activity / pending predicates alone.
fn oracle(
    g: &Graph,
    black: impl Fn(usize) -> bool,
    active: impl Fn(usize) -> bool,
    pending: impl Fn(usize) -> bool,
) -> Oracle {
    let n = g.n();
    let black_nbrs: Vec<usize> = (0..n)
        .map(|u| g.neighbors(u).iter().filter(|&v| black(v)).count())
        .collect();
    let stable_black_pred = |u: usize| black(u) && black_nbrs[u] == 0;
    let stable = |u: usize| stable_black_pred(u) || g.neighbors(u).iter().any(&stable_black_pred);
    let active_set = VertexSet::from_indices(n, (0..n).filter(|&u| active(u)));
    let pending_set = VertexSet::from_indices(n, (0..n).filter(|&u| pending(u)));
    let stable_black = VertexSet::from_indices(n, (0..n).filter(|&u| stable_black_pred(u)));
    let unstable = VertexSet::from_indices(n, (0..n).filter(|&u| !stable(u)));
    let counts = StateCounts {
        black: (0..n).filter(|&u| black(u)).count(),
        non_black: (0..n).filter(|&u| !black(u)).count(),
        active: active_set.len(),
        stable_black: stable_black.len(),
        unstable: unstable.len(),
    };
    Oracle {
        black_nbrs,
        active: active_set,
        pending: pending_set,
        stable_black,
        unstable,
        counts,
    }
}

/// Asserts that the engine's incremental bookkeeping equals the oracle.
fn assert_engine_matches(
    engine: &FrontierEngine,
    oracle: &Oracle,
    ctx: &str,
) -> Result<(), TestCaseError> {
    for u in 0..engine.n() {
        prop_assert!(
            engine.black_neighbor_count(u) == oracle.black_nbrs[u],
            "black-neighbor counter of vertex {u} diverged ({} vs {}): {ctx}",
            engine.black_neighbor_count(u),
            oracle.black_nbrs[u]
        );
        prop_assert!(
            engine.is_active(u) == oracle.active.contains(u),
            "active flag of vertex {u} diverged: {ctx}"
        );
        prop_assert!(
            engine.is_pending(u) == oracle.pending.contains(u),
            "frontier membership of vertex {u} diverged: {ctx}"
        );
    }
    prop_assert!(engine.active_set() == oracle.active, "active set: {ctx}");
    prop_assert!(engine.pending_set() == oracle.pending, "frontier: {ctx}");
    prop_assert!(
        engine.stable_black_set() == oracle.stable_black,
        "stable black set: {ctx}"
    );
    prop_assert!(
        engine.unstable_set() == oracle.unstable,
        "unstable set: {ctx}"
    );
    prop_assert!(
        engine.counts() == oracle.counts,
        "cached counts diverged ({:?} vs {:?}): {ctx}",
        engine.counts(),
        oracle.counts
    );
    prop_assert!(
        engine.is_stabilized() == (oracle.counts.unstable == 0),
        "stabilization verdict: {ctx}"
    );
    Ok(())
}

fn graph_for(seed: u64, n: usize, p_edge: f64) -> Graph {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    generators::gnp(n.max(1), p_edge, &mut r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// 2-state process: counters + frontier equal a recount after any
    /// step/corrupt interleaving.
    #[test]
    fn two_state_engine_consistent_under_interleavings(
        seed in 0u64..5_000,
        n in 1usize..50,
        p_edge in 0.0f64..0.5,
        ops in proptest::collection::vec((0u8..2, 0.0f64..1.0), 1..12),
    ) {
        let g = graph_for(seed, n, p_edge);
        let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0xdead);
        let mut proc = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        for (i, &(kind, fraction)) in ops.iter().enumerate() {
            match kind {
                0 => proc.step(&mut r),
                _ => proc.corrupt_fraction(fraction, &mut r),
            }
            let states = proc.states();
            let active = |u: usize| {
                let bn = g.neighbors(u).iter().filter(|&v| states[v].is_black()).count();
                if states[u].is_black() { bn > 0 } else { bn == 0 }
            };
            let o = oracle(&g, |u| states[u].is_black(), active, active);
            let ctx = format!("op {i} ({}), seed {seed}", if kind == 0 { "step" } else { "corrupt" });
            assert_engine_matches(proc.engine(), &o, &ctx)?;
        }
    }

    /// 2-state process in **parallel execution**: the scatter + parallel
    /// flush phases must leave exactly the same bookkeeping a from-scratch
    /// recount produces, for a thread count with real chunking.
    #[test]
    fn two_state_parallel_engine_consistent_under_interleavings(
        seed in 0u64..5_000,
        n in 1usize..50,
        p_edge in 0.0f64..0.5,
        ops in proptest::collection::vec((0u8..2, 0.0f64..1.0), 1..12),
    ) {
        let g = graph_for(seed, n, p_edge);
        let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0xdead);
        let mut proc = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        proc.set_execution(ExecutionMode::Parallel { threads: 3 }, seed);
        for (i, &(kind, fraction)) in ops.iter().enumerate() {
            match kind {
                0 => proc.step(&mut r),
                _ => proc.corrupt_fraction(fraction, &mut r),
            }
            let states = proc.states();
            let active = |u: usize| {
                let bn = g.neighbors(u).iter().filter(|&v| states[v].is_black()).count();
                if states[u].is_black() { bn > 0 } else { bn == 0 }
            };
            let o = oracle(&g, |u| states[u].is_black(), active, active);
            let ctx = format!("op {i} ({}), seed {seed}", if kind == 0 { "step" } else { "corrupt" });
            assert_engine_matches(proc.engine(), &o, &ctx)?;
        }
    }

    /// 2-state process with the round strategy **forced to switch every
    /// round** (dense, sparse, dense, …): the dense full recount and the
    /// sparse delta path must hand each other perfectly consistent
    /// bookkeeping in both directions, interleaved with corruption.
    #[test]
    fn two_state_engine_consistent_under_forced_strategy_switching(
        seed in 0u64..5_000,
        n in 1usize..50,
        p_edge in 0.0f64..0.5,
        ops in proptest::collection::vec((0u8..2, 0.0f64..1.0), 1..12),
    ) {
        let g = graph_for(seed, n, p_edge);
        let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0xdead);
        let mut proc = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        for (i, &(kind, fraction)) in ops.iter().enumerate() {
            proc.set_strategy(if i % 2 == 0 {
                RoundStrategy::Dense
            } else {
                RoundStrategy::Sparse
            });
            match kind {
                0 => proc.step(&mut r),
                _ => proc.corrupt_fraction(fraction, &mut r),
            }
            let states = proc.states();
            let active = |u: usize| {
                let bn = g.neighbors(u).iter().filter(|&v| states[v].is_black()).count();
                if states[u].is_black() { bn > 0 } else { bn == 0 }
            };
            let o = oracle(&g, |u| states[u].is_black(), active, active);
            let ctx = format!(
                "switching op {i} ({}), seed {seed}",
                if kind == 0 { "step" } else { "corrupt" }
            );
            assert_engine_matches(proc.engine(), &o, &ctx)?;
        }
    }

    /// 3-state process under forced per-round strategy switching: the
    /// process-owned black1 counters must survive the dense/sparse handoffs
    /// too.
    #[test]
    fn three_state_engine_consistent_under_forced_strategy_switching(
        seed in 0u64..5_000,
        n in 1usize..50,
        p_edge in 0.0f64..0.5,
        ops in proptest::collection::vec((0u8..2, 0.0f64..1.0), 1..12),
    ) {
        let g = graph_for(seed, n, p_edge);
        let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0xbeef);
        let mut proc = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        for (i, &(kind, fraction)) in ops.iter().enumerate() {
            proc.set_strategy(if i % 2 == 0 {
                RoundStrategy::Dense
            } else {
                RoundStrategy::Sparse
            });
            match kind {
                0 => proc.step(&mut r),
                _ => proc.corrupt_fraction(fraction, &mut r),
            }
            let states = proc.states();
            let active = |u: usize| match states[u] {
                ThreeState::Black1 => true,
                ThreeState::Black0 => {
                    !g.neighbors(u).iter().any(|v| states[v] == ThreeState::Black1)
                }
                ThreeState::White => !g.neighbors(u).iter().any(|v| states[v].is_black()),
            };
            let pending = |u: usize| states[u].is_black() || active(u);
            let o = oracle(&g, |u| states[u].is_black(), active, pending);
            let ctx = format!(
                "switching op {i} ({}), seed {seed}",
                if kind == 0 { "step" } else { "corrupt" }
            );
            assert_engine_matches(proc.engine(), &o, &ctx)?;
            for u in g.vertices() {
                let expected = g
                    .neighbors(u)
                    .iter()
                    .filter(|&v| states[v] == ThreeState::Black1)
                    .count();
                prop_assert!(
                    proc.black1_neighbor_count(u) == expected,
                    "black1 counter of vertex {u} diverged (switching)"
                );
            }
        }
    }

    /// 3-color process under forced per-round strategy switching (parallel
    /// execution, so the dense parallel recount is exercised too).
    #[test]
    fn three_color_parallel_engine_consistent_under_forced_strategy_switching(
        seed in 0u64..5_000,
        n in 1usize..40,
        p_edge in 0.0f64..0.5,
        ops in proptest::collection::vec((0u8..2, 0.0f64..1.0), 1..10),
    ) {
        let g = graph_for(seed, n, p_edge);
        let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0xcafe);
        let mut proc = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r);
        proc.set_execution(ExecutionMode::Parallel { threads: 3 }, seed);
        for (i, &(kind, fraction)) in ops.iter().enumerate() {
            proc.set_strategy(if i % 2 == 0 {
                RoundStrategy::Dense
            } else {
                RoundStrategy::Sparse
            });
            match kind {
                0 => proc.step(&mut r),
                _ => proc.corrupt_fraction(fraction, &mut r),
            }
            let colors = proc.colors();
            let active = |u: usize| {
                let bn = g.neighbors(u).iter().filter(|&v| colors[v].is_black()).count();
                match colors[u] {
                    ThreeColor::Black => bn > 0,
                    ThreeColor::White => bn == 0,
                    ThreeColor::Gray => false,
                }
            };
            let pending =
                |u: usize| active(u) || (colors[u] == ThreeColor::Gray && proc.switch().is_on(u));
            let o = oracle(&g, |u| colors[u].is_black(), active, pending);
            let ctx = format!(
                "switching par op {i} ({}), seed {seed}",
                if kind == 0 { "step" } else { "corrupt" }
            );
            assert_engine_matches(proc.engine(), &o, &ctx)?;
        }
    }

    /// 3-state process: same property; pending additionally covers retiring
    /// black0 vertices (every black vertex stays on the frontier).
    #[test]
    fn three_state_engine_consistent_under_interleavings(
        seed in 0u64..5_000,
        n in 1usize..50,
        p_edge in 0.0f64..0.5,
        ops in proptest::collection::vec((0u8..2, 0.0f64..1.0), 1..12),
    ) {
        let g = graph_for(seed, n, p_edge);
        let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0xbeef);
        let mut proc = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        for (i, &(kind, fraction)) in ops.iter().enumerate() {
            match kind {
                0 => proc.step(&mut r),
                _ => proc.corrupt_fraction(fraction, &mut r),
            }
            let states = proc.states();
            let active = |u: usize| match states[u] {
                ThreeState::Black1 => true,
                ThreeState::Black0 => {
                    !g.neighbors(u).iter().any(|v| states[v] == ThreeState::Black1)
                }
                ThreeState::White => !g.neighbors(u).iter().any(|v| states[v].is_black()),
            };
            let pending = |u: usize| states[u].is_black() || active(u);
            let o = oracle(&g, |u| states[u].is_black(), active, pending);
            let ctx = format!("op {i} ({}), seed {seed}", if kind == 0 { "step" } else { "corrupt" });
            assert_engine_matches(proc.engine(), &o, &ctx)?;
            // The extra black1 counters are process-owned; check them too.
            for u in g.vertices() {
                let expected = g
                    .neighbors(u)
                    .iter()
                    .filter(|&v| states[v] == ThreeState::Black1)
                    .count();
                prop_assert!(
                    proc.black1_neighbor_count(u) == expected,
                    "black1 counter of vertex {u} diverged"
                );
            }
        }
    }

    /// 3-state process in parallel execution: same oracle property, with
    /// the concurrent black1-counter scatter in play.
    #[test]
    fn three_state_parallel_engine_consistent_under_interleavings(
        seed in 0u64..5_000,
        n in 1usize..50,
        p_edge in 0.0f64..0.5,
        ops in proptest::collection::vec((0u8..2, 0.0f64..1.0), 1..12),
    ) {
        let g = graph_for(seed, n, p_edge);
        let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0xbeef);
        let mut proc = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        proc.set_execution(ExecutionMode::Parallel { threads: 3 }, seed);
        for (i, &(kind, fraction)) in ops.iter().enumerate() {
            match kind {
                0 => proc.step(&mut r),
                _ => proc.corrupt_fraction(fraction, &mut r),
            }
            let states = proc.states();
            let active = |u: usize| match states[u] {
                ThreeState::Black1 => true,
                ThreeState::Black0 => {
                    !g.neighbors(u).iter().any(|v| states[v] == ThreeState::Black1)
                }
                ThreeState::White => !g.neighbors(u).iter().any(|v| states[v].is_black()),
            };
            let pending = |u: usize| states[u].is_black() || active(u);
            let o = oracle(&g, |u| states[u].is_black(), active, pending);
            let ctx = format!("par op {i} ({}), seed {seed}", if kind == 0 { "step" } else { "corrupt" });
            assert_engine_matches(proc.engine(), &o, &ctx)?;
            for u in g.vertices() {
                let expected = g
                    .neighbors(u)
                    .iter()
                    .filter(|&v| states[v] == ThreeState::Black1)
                    .count();
                prop_assert!(
                    proc.black1_neighbor_count(u) == expected,
                    "black1 counter of vertex {u} diverged (parallel)"
                );
            }
        }
    }

    /// 3-color process in parallel execution: same oracle property, with
    /// the counter-based switch advancing alongside the colors.
    #[test]
    fn three_color_parallel_engine_consistent_under_interleavings(
        seed in 0u64..5_000,
        n in 1usize..40,
        p_edge in 0.0f64..0.5,
        ops in proptest::collection::vec((0u8..2, 0.0f64..1.0), 1..10),
    ) {
        let g = graph_for(seed, n, p_edge);
        let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0xcafe);
        let mut proc = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r);
        proc.set_execution(ExecutionMode::Parallel { threads: 3 }, seed);
        for (i, &(kind, fraction)) in ops.iter().enumerate() {
            match kind {
                0 => proc.step(&mut r),
                _ => proc.corrupt_fraction(fraction, &mut r),
            }
            let colors = proc.colors();
            let active = |u: usize| {
                let bn = g.neighbors(u).iter().filter(|&v| colors[v].is_black()).count();
                match colors[u] {
                    ThreeColor::Black => bn > 0,
                    ThreeColor::White => bn == 0,
                    ThreeColor::Gray => false,
                }
            };
            let pending =
                |u: usize| active(u) || (colors[u] == ThreeColor::Gray && proc.switch().is_on(u));
            let o = oracle(&g, |u| colors[u].is_black(), active, pending);
            let ctx = format!("par op {i} ({}), seed {seed}", if kind == 0 { "step" } else { "corrupt" });
            assert_engine_matches(proc.engine(), &o, &ctx)?;
        }
    }

    /// 3-color process (colors + switch levels corrupted): same property;
    /// pending additionally covers gray vertices whose switch is on.
    #[test]
    fn three_color_engine_consistent_under_interleavings(
        seed in 0u64..5_000,
        n in 1usize..40,
        p_edge in 0.0f64..0.5,
        ops in proptest::collection::vec((0u8..2, 0.0f64..1.0), 1..10),
    ) {
        let g = graph_for(seed, n, p_edge);
        let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0xcafe);
        let mut proc = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r);
        for (i, &(kind, fraction)) in ops.iter().enumerate() {
            match kind {
                0 => proc.step(&mut r),
                _ => proc.corrupt_fraction(fraction, &mut r),
            }
            let colors = proc.colors();
            let active = |u: usize| {
                let bn = g.neighbors(u).iter().filter(|&v| colors[v].is_black()).count();
                match colors[u] {
                    ThreeColor::Black => bn > 0,
                    ThreeColor::White => bn == 0,
                    ThreeColor::Gray => false,
                }
            };
            let pending =
                |u: usize| active(u) || (colors[u] == ThreeColor::Gray && proc.switch().is_on(u));
            let o = oracle(&g, |u| colors[u].is_black(), active, pending);
            let ctx = format!("op {i} ({}), seed {seed}", if kind == 0 { "step" } else { "corrupt" });
            assert_engine_matches(proc.engine(), &o, &ctx)?;
        }
    }
}
