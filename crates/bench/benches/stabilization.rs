//! Benchmark: full stabilization of each process on each of the paper's
//! graph families (one Criterion group per experiment family, matching the
//! experiment index E1–E6/E9 in EXPERIMENTS.md), plus the Luby baseline for
//! the E10 comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mis_baselines::luby_mis;
use mis_core::init::InitStrategy;
use mis_core::{Algorithm, ThreeColorProcess, ThreeStateProcess, TwoStateProcess};
use mis_graph::{generators, Graph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

fn stabilize_two_state(g: &Graph, seed: u64) -> usize {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut proc = TwoStateProcess::with_init(g, InitStrategy::Random, &mut rng);
    proc.run_to_stabilization(&mut rng, 10_000_000)
        .expect("stabilizes")
}

fn stabilize_three_state(g: &Graph, seed: u64) -> usize {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut proc = ThreeStateProcess::with_init(g, InitStrategy::Random, &mut rng);
    proc.run_to_stabilization(&mut rng, 10_000_000)
        .expect("stabilizes")
}

fn stabilize_three_color(g: &Graph, seed: u64) -> usize {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut proc = ThreeColorProcess::with_randomized_switch(g, InitStrategy::Random, &mut rng);
    proc.run_to_stabilization(&mut rng, 10_000_000)
        .expect("stabilizes")
}

/// E1 / E9 — cliques: 2-state (Θ(log² n)) vs 3-state (O(log n)).
fn bench_cliques(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_e9_clique");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_millis(1500));
    for n in [64usize, 256] {
        let g = generators::complete(n);
        group.bench_with_input(BenchmarkId::new("two_state", n), &g, |b, g| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                stabilize_two_state(g, seed)
            });
        });
        group.bench_with_input(BenchmarkId::new("three_state", n), &g, |b, g| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                stabilize_three_state(g, seed)
            });
        });
    }
    group.finish();
}

/// E2 — disjoint cliques.
fn bench_disjoint_cliques(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_disjoint_cliques");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_millis(1500));
    for side in [8usize, 16] {
        let g = generators::disjoint_cliques(side, side);
        group.bench_with_input(BenchmarkId::new("two_state", side * side), &g, |b, g| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                stabilize_two_state(g, seed)
            });
        });
    }
    group.finish();
}

/// E3 — trees and bounded-arboricity graphs.
fn bench_trees(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_trees");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_millis(1500));
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for n in [256usize, 1024] {
        let g = generators::random_tree(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("two_state_tree", n), &g, |b, g| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                stabilize_two_state(g, seed)
            });
        });
    }
    let g = generators::grid(32, 32);
    group.bench_with_input(BenchmarkId::new("two_state_grid", 1024usize), &g, |b, g| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            stabilize_two_state(g, seed)
        });
    });
    group.finish();
}

/// E4 — regular graphs of growing degree.
fn bench_regular(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_regular");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_millis(1500));
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    for d in [4usize, 16] {
        let g = generators::regular(256, d, &mut rng).expect("valid parameters");
        group.bench_with_input(BenchmarkId::new("two_state", d), &g, |b, g| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                stabilize_two_state(g, seed)
            });
        });
    }
    group.finish();
}

/// E5 / E6 — G(n,p): 2-state at the theorem-2 density, 3-color at the
/// density outside the 2-state analysis.
fn bench_gnp(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_e6_gnp");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_millis(1500));
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    for n in [256usize, 1024] {
        let p_sqrt = ((n as f64).ln() / n as f64).sqrt();
        let g = generators::gnp(n, p_sqrt, &mut rng);
        group.bench_with_input(BenchmarkId::new("two_state_p_sqrt", n), &g, |b, g| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                stabilize_two_state(g, seed)
            });
        });
        let g = generators::gnp(n, (n as f64).powf(-0.25), &mut rng);
        group.bench_with_input(BenchmarkId::new("three_color_p_quarter", n), &g, |b, g| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                stabilize_three_color(g, seed)
            });
        });
    }
    group.finish();
}

/// E10 — Luby baseline on the same sparse G(n,p) used by the comparison table.
fn bench_luby(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_luby_baseline");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_millis(1500));
    let mut rng = ChaCha8Rng::seed_from_u64(10);
    for n in [256usize, 1024] {
        let g = generators::gnp(n, 8.0 / n as f64, &mut rng);
        group.bench_with_input(BenchmarkId::new("luby", n), &g, |b, g| {
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            b.iter(|| luby_mis(g, &mut rng));
        });
        group.bench_with_input(BenchmarkId::new("two_state", n), &g, |b, g| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                stabilize_two_state(g, seed)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cliques,
    bench_disjoint_cliques,
    bench_trees,
    bench_regular,
    bench_gnp,
    bench_luby
);
criterion_main!(benches);
