//! Micro-benchmark: dispatch overhead of the **persistent worker pool**
//! versus the old spawn-per-broadcast discipline, plus the structural
//! guarantees the fused round path relies on.
//!
//! `pool_overhead/dispatch` times one broadcast of a fixed `n = 10⁶`
//! element sweep two ways:
//!
//! * `spawn_per_dispatch` — build a fresh [`rayon::ThreadPool`] for every
//!   dispatch (thread creation + join on the timed path), which is what the
//!   engine did before the persistent pool landed;
//! * `persistent_pool` — reuse the process-wide [`rayon::global_pool`],
//!   whose workers park on a condvar between dispatches.
//!
//! The gap between the two is the per-round fixed cost the persistent pool
//! removes; it is what made `Parallel{t}` lose to sequential on
//! frontier-sized dispatches.
//!
//! `pool_overhead/round_dispatch_count` is an *assertion disguised as a
//! benchmark*: it steps a real 2-state process through sparse parallel
//! rounds and panics if any round costs more than 2 pool dispatches or more
//! than 4 barrier crossings — the budget the fused decide+scatter/flush
//! phases promise (down from ~4 dispatches before the rework).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mis_core::init::InitStrategy;
use mis_core::{Algorithm, ExecutionMode, RoundStrategy, TwoStateProcess};
use mis_graph::generators;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const N: usize = 1_000_000;
const THREADS: usize = 4;

/// The broadcast payload: each participant folds a disjoint range of a
/// shared buffer. Cheap enough that dispatch overhead dominates, real
/// enough that the compiler cannot elide it.
fn sweep(data: &[u64], ctx: rayon::BroadcastContext<'_>) -> u64 {
    let per = data.len().div_ceil(ctx.num_threads());
    let lo = (ctx.index() * per).min(data.len());
    let hi = (lo + per).min(data.len());
    data[lo..hi].iter().fold(0u64, |acc, &x| acc ^ x)
}

fn bench_dispatch_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_overhead");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1500));

    let data: Vec<u64> = (0..N as u64).collect();

    group.bench_with_input(
        BenchmarkId::new("spawn_per_dispatch", N),
        &data,
        |b, data| {
            b.iter(|| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(THREADS)
                    .build()
                    .unwrap();
                pool.broadcast(|ctx| sweep(data, ctx))
                    .into_iter()
                    .fold(0u64, |acc, x| acc ^ x)
            });
        },
    );
    group.bench_with_input(BenchmarkId::new("persistent_pool", N), &data, |b, data| {
        let pool = rayon::global_pool(THREADS);
        b.iter(|| {
            pool.broadcast(|ctx| sweep(data, ctx))
                .into_iter()
                .fold(0u64, |acc, x| acc ^ x)
        });
    });
    group.finish();
}

/// Steps a 2-state process through sparse parallel rounds on the persistent
/// pool and asserts the fused round path's dispatch/barrier budget:
/// at most 2 dispatches and 4 barrier crossings per round.
fn bench_round_dispatch_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_overhead");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(1000));

    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let n = 100_000usize;
    let g = generators::gnp(n, 8.0 / n as f64, &mut rng);
    // An uncommon thread count keeps this pool's stats counters free of
    // traffic from concurrently running benchmark groups.
    let threads = 5usize;
    let pool = rayon::global_pool(threads);
    let max_dispatches = AtomicU64::new(0);
    let max_barriers = AtomicU64::new(0);

    group.bench_function(BenchmarkId::new("round_dispatch_count", n), |b| {
        let mut r = ChaCha8Rng::seed_from_u64(11);
        let mut p = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        p.set_execution(ExecutionMode::Parallel { threads }, 13);
        p.set_strategy(RoundStrategy::Sparse);
        b.iter(|| {
            let before = pool.stats();
            p.step(&mut r);
            let after = pool.stats();
            max_dispatches.fetch_max(after.dispatches - before.dispatches, Ordering::Relaxed);
            max_barriers.fetch_max(after.barriers - before.barriers, Ordering::Relaxed);
            p.counts().active
        });
    });
    group.finish();

    let dispatches = max_dispatches.load(Ordering::Relaxed);
    let barriers = max_barriers.load(Ordering::Relaxed);
    assert!(
        dispatches <= 2,
        "fused round path regressed: {dispatches} pool dispatches in one round (budget: 2)"
    );
    assert!(
        barriers <= 4,
        "fused round path regressed: {barriers} barrier crossings in one round (budget: 4)"
    );
    eprintln!("round budget held: ≤{dispatches} dispatches, ≤{barriers} barriers per sparse round");
}

criterion_group!(benches, bench_dispatch_overhead, bench_round_dispatch_count);
criterion_main!(benches);
