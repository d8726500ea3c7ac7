//! `gnp-two-state` and `gnp-three-color`: repeated solves of one paper
//! process on one G(n, 8/n) graph, each solve `factory.init` →
//! `drive_algorithm` → `mis_check::is_mis`.

use std::time::{Duration, Instant};

use mis_core::init::InitStrategy;
use mis_core::{AlgorithmConfig, ExecutionMode, RoundStrategy, StateCounts, Synchronous};
use mis_graph::{generators, mis_check, Graph};
use mis_sim::{builtin_registry, drive_algorithm, Observer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::metrics::{mean, median, mix, ms, peak_rss_mb, Metrics};
use crate::trace::Recorder;
use crate::{Args, Outcome};

const AVG_DEGREE: f64 = 8.0;
const MAX_ROUNDS: usize = 1_000_000;
/// A round is "early" while at least `n / EARLY_DIVISOR` vertices are active.
const EARLY_DIVISOR: usize = 8;

pub struct Spec {
    pub n: usize,
    pub algorithm: &'static str,
    /// Counter-RNG parallel rounds on `nproc` threads, else the sequential
    /// stream model.
    pub parallel: bool,
    /// Graph generations per phase; `setup_s` is their median.
    pub setup_reps: usize,
}

pub const TWO_STATE: Spec = Spec {
    n: 1_000_000,
    algorithm: "two-state",
    parallel: true,
    setup_reps: 7,
};

pub const THREE_COLOR: Spec = Spec {
    n: 50_000,
    algorithm: "three-color",
    parallel: false,
    setup_reps: 51,
};

/// The figures of one solve that must repeat bit for bit on the same seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExactCounts {
    rounds: usize,
    random_bits: u64,
    mis_size: usize,
    dispatches: u64,
    barriers: u64,
}

struct Solve {
    exact: ExactCounts,
    verified: bool,
    solve_ms: f64,
}

/// Timestamps `on_round` callbacks with the active count they report.
struct RoundClock {
    stamps: Vec<(Instant, usize)>,
}

impl Observer for RoundClock {
    fn on_round(&mut self, _round: usize, counts: &StateCounts) {
        self.stamps.push((Instant::now(), counts.active));
    }
}

/// Round-level tallies of the traced phase.
#[derive(Default)]
struct RoundTally {
    early_us: Vec<f64>,
    tail_us: Vec<f64>,
    tail_active_share: Vec<f64>,
}

struct Phase {
    e2e: Metrics,
    solves: Vec<Solve>,
    attempted: u64,
    failed: u64,
}

struct Solver<'a> {
    spec: &'a Spec,
    seed: u64,
    pool: std::sync::Arc<rayon::ThreadPool>,
    execution: ExecutionMode,
}

impl Solver<'_> {
    fn graph_seed(&self) -> u64 {
        mix(self.seed, 1)
    }

    fn generate(&self) -> Graph {
        generators::gnp_counter(
            self.spec.n,
            AVG_DEGREE / self.spec.n as f64,
            self.graph_seed(),
        )
    }

    /// Solve number `k`: a fresh seed per `k`, the same seed for the same
    /// `k` in every phase and run.
    fn solve(
        &self,
        graph: &Graph,
        k: u64,
        trace: Option<(&mut Recorder, &mut RoundTally)>,
    ) -> Solve {
        let factory = builtin_registry()
            .get(self.spec.algorithm)
            .expect("registry key of a paper process");
        let solve_seed = mix(self.seed, 1000 + k);
        let mut rng = ChaCha8Rng::seed_from_u64(solve_seed);
        let config = AlgorithmConfig {
            init: InitStrategy::Random,
            execution: self.execution,
            strategy: RoundStrategy::Auto,
            counter_seed: mix(solve_seed, 2),
        };
        let mut clock = trace.is_some().then(|| RoundClock {
            stamps: Vec::with_capacity(4096),
        });
        let before = self.pool.stats();
        let t0 = Instant::now();
        let mut alg = factory.init(graph, &config, &mut rng);
        let t1 = Instant::now();
        let outcome = {
            let mut observers: Vec<&mut dyn Observer> = Vec::new();
            if let Some(c) = clock.as_mut() {
                observers.push(c);
            }
            drive_algorithm(
                alg.as_mut(),
                &mut Synchronous,
                &mut rng,
                MAX_ROUNDS,
                None,
                None,
                None,
                &mut observers,
            )
        };
        let t2 = Instant::now();
        let verified = outcome.stabilized && mis_check::is_mis(graph, &outcome.black_set);
        let t3 = Instant::now();
        let after = self.pool.stats();
        drop(alg);

        if let (Some((rec, tally)), Some(clock)) = (trace, clock) {
            let solve = rec.open("solve", k, t0);
            rec.record("init", k, Some(solve), t0, t1);
            let drive = rec.open("drive", k, t1);
            let early_floor = graph.n().div_ceil(EARLY_DIVISOR);
            for pair in clock.stamps.windows(2) {
                let ((start, active), (end, _)) = (pair[0], pair[1]);
                let round = rec.record("round", k, Some(drive), start, end);
                let us = rec.spans()[round].duration_ns() as f64 / 1e3;
                if active >= early_floor {
                    tally.early_us.push(us);
                } else {
                    tally.tail_us.push(us);
                    tally
                        .tail_active_share
                        .push(active as f64 / graph.n() as f64);
                }
            }
            rec.close(drive, t2);
            rec.record("verify", k, Some(solve), t2, t3);
            rec.close(solve, t3);
        }
        Solve {
            exact: ExactCounts {
                rounds: outcome.rounds,
                random_bits: outcome.random_bits,
                mis_size: outcome.black_set.len(),
                dispatches: after.dispatches - before.dispatches,
                barriers: after.barriers - before.barriers,
            },
            verified,
            solve_ms: ms(t3 - t0),
        }
    }

    fn phase(
        &self,
        seconds: f64,
        mut trace: Option<(&mut Recorder, &mut RoundTally)>,
    ) -> (Phase, Graph) {
        let mut setup_s = Vec::with_capacity(self.spec.setup_reps);
        let mut graph = None;
        for rep in 0..self.spec.setup_reps {
            drop(graph.take());
            let t0 = Instant::now();
            let g = self.generate();
            let t1 = Instant::now();
            if let Some((rec, _)) = trace.as_mut() {
                rec.record("generate", rep as u64, None, t0, t1);
            }
            setup_s.push((t1 - t0).as_secs_f64());
            graph = Some(g);
        }
        let graph = graph.expect("at least one setup repetition");

        let budget = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let mut solves = Vec::new();
        while solves.is_empty() || start.elapsed() < budget {
            let k = solves.len() as u64;
            let t = trace
                .as_mut()
                .map(|(rec, tally)| (&mut **rec, &mut **tally));
            solves.push(self.solve(&graph, k, t));
        }
        let wall = start.elapsed().as_secs_f64();

        let verified = solves.iter().filter(|s| s.verified).count();
        let solve_ms: Vec<f64> = solves.iter().map(|s| s.solve_ms).collect();
        let mut e2e = Metrics::default();
        e2e.set("setup_s", median(&setup_s), "s", setup_s.len());
        e2e.set(
            "verified_per_s",
            verified as f64 / wall,
            "1/s",
            solves.len(),
        );
        e2e.set(
            "time_to_mis_ms.p50",
            median(&solve_ms),
            "ms",
            solve_ms.len(),
        );
        e2e.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
        e2e.set(
            "verified_share",
            verified as f64 / solves.len() as f64,
            "ratio",
            solves.len(),
        );
        let phase = Phase {
            attempted: solves.len() as u64,
            failed: (solves.len() - verified) as u64,
            e2e,
            solves,
        };
        (phase, graph)
    }
}

/// The workload's figures under this repository's names for them.
fn detail(e2e: &Metrics) -> Metrics {
    let mut out = Metrics::default();
    for (from, to) in [
        ("setup_s", "setup_s"),
        ("verified_per_s", "solves_per_s"),
        ("time_to_mis_ms.p50", "solve_ms.p50"),
        ("peak_rss_mb", "peak_rss_mb"),
    ] {
        let m = e2e.get(from).expect("phase metric");
        out.set(to, m.value, m.unit, m.samples);
    }
    let share = e2e.get("verified_share").expect("phase metric");
    out.set("failed_share", 1.0 - share.value, "ratio", share.samples);
    out
}

pub fn run(spec: &Spec, args: &Args) -> Outcome {
    let threads = crate::metrics::nproc();
    let solver = Solver {
        spec,
        seed: args.seed,
        pool: rayon::global_pool(threads),
        execution: if spec.parallel {
            ExecutionMode::Parallel { threads }
        } else {
            ExecutionMode::Sequential
        },
    };
    let mut problems = Vec::new();

    let (untraced, graph) = solver.phase(args.seconds, None);
    // Self-check: solve 0 again on the same seed; every exact count repeats.
    let again = solver.solve(&graph, 0, None);
    if again.exact != untraced.solves[0].exact {
        problems.push(format!(
            "solve 0 did not repeat: {:?} then {:?}",
            untraced.solves[0].exact, again.exact
        ));
    }
    let mut attempted = untraced.attempted + 1;
    let mut failed = untraced.failed + u64::from(!again.verified);
    let mut out = Outcome {
        detail: detail(&untraced.e2e),
        ..Outcome::default()
    };

    if args.trace {
        let working_set_mb = csr_bytes(&graph) as f64 / 1e6;
        drop(graph);
        let mut rec = Recorder::new(Instant::now());
        let mut tally = RoundTally::default();
        let (traced, graph) = solver.phase(args.seconds, Some((&mut rec, &mut tally)));
        attempted += traced.attempted;
        failed += traced.failed;
        for (k, (a, b)) in untraced.solves.iter().zip(&traced.solves).enumerate() {
            if a.exact != b.exact {
                problems.push(format!(
                    "solve {k} differs between the untraced and traced phase: {:?} vs {:?}",
                    a.exact, b.exact
                ));
            }
        }
        drop(graph);
        out.layers = layers(&rec, &tally, &traced, working_set_mb);
        out.traced_e2e = Some(traced.e2e);
        out.spans = Some(rec);
    }
    out.attempted = attempted;
    out.failed = failed;
    out.problems = problems;
    out.e2e = untraced.e2e;
    out
}

/// Bytes of the graph's CSR arrays: `u32` offsets plus two `u32` arcs per
/// edge (computed from n and m, not measured).
fn csr_bytes(graph: &Graph) -> usize {
    4 * (graph.n() + 1) + 8 * graph.m()
}

fn layers(rec: &Recorder, tally: &RoundTally, phase: &Phase, working_set_mb: f64) -> Metrics {
    let solves = &phase.solves;
    let count = solves.len();
    let rounds: usize = solves.iter().map(|s| s.exact.rounds).sum();
    let per_solve = |f: &dyn Fn(&ExactCounts) -> f64| {
        solves.iter().map(|s| f(&s.exact)).sum::<f64>() / count as f64
    };
    let per_round = |f: &dyn Fn(&ExactCounts) -> u64| {
        solves.iter().map(|s| f(&s.exact)).sum::<u64>() as f64 / rounds.max(1) as f64
    };
    let solve_ms = rec.durations_ms("solve");
    let drive_ms = rec.durations_ms("drive");
    let generate_s: Vec<f64> = rec
        .durations_ms("generate")
        .iter()
        .map(|v| v / 1e3)
        .collect();

    let mut m = Metrics::default();
    m.set(
        "graph.generate_s",
        median(&generate_s),
        "s",
        generate_s.len(),
    );
    let verify = rec.durations_ms("verify");
    m.set("graph.is_mis_ms", median(&verify), "ms", verify.len());
    m.set("graph.working_set_mb", working_set_mb, "MB", 1);
    let init = rec.durations_ms("init");
    m.set("core.init_ms", median(&init), "ms", init.len());
    m.set(
        "core.round_us.early",
        mean(&tally.early_us),
        "us",
        tally.early_us.len(),
    );
    m.set(
        "core.round_us.tail",
        mean(&tally.tail_us),
        "us",
        tally.tail_us.len(),
    );
    m.set(
        "core.rounds_per_solve",
        per_solve(&|e| e.rounds as f64),
        "count",
        count,
    );
    m.set(
        "core.random_bits_per_solve",
        per_solve(&|e| e.random_bits as f64),
        "count",
        count,
    );
    m.set(
        "core.active_share.tail",
        mean(&tally.tail_active_share),
        "ratio",
        tally.tail_active_share.len(),
    );
    m.set(
        "rayon.dispatches_per_round",
        per_round(&|e| e.dispatches),
        "count",
        rounds,
    );
    m.set(
        "rayon.barriers_per_round",
        per_round(&|e| e.barriers),
        "count",
        rounds,
    );
    m.set("sim.drive_ms", median(&drive_ms), "ms", drive_ms.len());
    m.set(
        "sim.drive_share",
        drive_ms.iter().sum::<f64>() / solve_ms.iter().sum::<f64>(),
        "ratio",
        drive_ms.len(),
    );
    let drive_self = rec.self_ms("drive");
    m.set(
        "sim.drive_self_ms",
        median(&drive_self),
        "ms",
        drive_self.len(),
    );
    m
}
