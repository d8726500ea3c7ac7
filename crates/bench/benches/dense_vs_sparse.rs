//! Criterion group `dense_vs_sparse`: cost of one **early-phase** round at
//! `n = 10⁶` on sparse `G(n, 8/n)` under each round strategy.
//!
//! From a random initial configuration roughly half the vertices are active,
//! which is exactly the regime where the sparse worklist path used to lose
//! to the naive full scan (0.54–0.89x in the pre-adaptive BENCH_scale.json).
//! This group pins the comparison at micro-benchmark granularity: the dense
//! sweep must beat the sparse path here, `auto` must track the dense path,
//! and the naive reference is included as the yardstick. Every entry clones
//! the same snapshot inside the timed closure, so the clone overhead cancels
//! out of the comparison.
//!
//! Run just this group with `just bench-phase`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mis_core::init::InitStrategy;
use mis_core::{Algorithm, RoundStrategy, TwoStateProcess};
use mis_graph::generators;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

fn bench_dense_vs_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_vs_sparse");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1500));

    let n = 1_000_000usize;
    let g = generators::gnp_counter(n, 8.0 / n as f64, 7);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let early = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut rng);

    for strategy in [
        RoundStrategy::Sparse,
        RoundStrategy::Dense,
        RoundStrategy::Auto,
    ] {
        group.bench_with_input(
            BenchmarkId::new(&format!("early_{}", strategy.label()), n),
            &early,
            |b, proc| {
                let mut r = ChaCha8Rng::seed_from_u64(11);
                b.iter(|| {
                    let mut p = proc.clone();
                    p.set_strategy(strategy);
                    p.step(&mut r);
                    p.counts().active
                });
            },
        );
    }
    group.bench_with_input(BenchmarkId::new("early_reference", n), &early, |b, proc| {
        let mut r = ChaCha8Rng::seed_from_u64(11);
        b.iter(|| {
            let mut p = proc.clone();
            p.step_reference(&mut r);
            p.counts().active
        });
    });
    group.finish();
}

criterion_group!(benches, bench_dense_vs_sparse);
criterion_main!(benches);
