//! Scale experiment (`exp_scale`): activity-proportional round cost of the
//! incremental frontier engine on large sparse `G(n, p)`, and intra-round
//! parallel throughput of the counter-based engine.
//!
//! The naive round implementation costs `O(n + m)` regardless of how many
//! vertices are still active, so the long stabilization tail — where only a
//! few vertices flicker — is as expensive per round as the chaotic first
//! rounds. The [`FrontierEngine`](mis_core::engine::FrontierEngine) makes
//! the round cost track the active frontier instead. This experiment
//! quantifies that: for each `n` it measures round throughput (rounds/sec)
//! of the fast engine path and the retained naive reference path, in the
//! **early phase** (the initial configuration, where ~half the vertices are
//! active and the two paths should be comparable) and in the **late phase**
//! (active count at most `n / 64`, where the engine should win by orders of
//! magnitude).
//!
//! On top of that it sweeps the **counter-based parallel engine**
//! ([`ExecutionMode::Parallel`]) over a range of thread counts at the early
//! phase — the regime where `|A_t| ≈ n` and a sequential-stream round is
//! serial-bound — recording the rounds/sec trajectory per thread count and
//! verifying in-experiment that the final states are **bit-identical across
//! thread counts**. Parallel speedups are bounded by the host's cores
//! (recorded in its `host` record); on a single-core host the sweep still
//! validates determinism but cannot show wall-clock gains.
//!
//! The headline numbers — the late-phase speedup and the parallel
//! early-phase speedup at the largest measured `n` (`10⁷` in full runs,
//! `10⁵` in quick/CI runs) — are recorded alongside the per-size rows in
//! `BENCH_scale.json` at the workspace root.

use std::time::{Duration, Instant};

use mis_core::init::InitStrategy;
use mis_core::{Algorithm, ExecutionMode, RoundStrategy, TwoStateProcess};
use mis_graph::generators;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::report::{git_commit, Host};
use crate::Scale;

/// Thread counts the parallel early-phase sweep measures.
pub const SWEEP_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Throughput of one phase of one run: how many rounds were timed and the
/// resulting rounds/second for the fast (engine) and reference (full-scan)
/// step paths.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseThroughput {
    /// Rounds executed through the fast path while timing.
    pub fast_rounds: usize,
    /// Fast-path throughput in rounds per second.
    pub fast_rounds_per_sec: f64,
    /// Rounds executed through the reference path while timing.
    pub reference_rounds: usize,
    /// Reference-path throughput in rounds per second.
    pub reference_rounds_per_sec: f64,
    /// `fast_rounds_per_sec / reference_rounds_per_sec`.
    pub speedup: f64,
}

/// Early-phase throughput of the counter-based parallel engine at one
/// thread count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThreadPoint {
    /// Worker threads of the intra-round phases.
    pub threads: usize,
    /// Rounds per second from the early-phase snapshot.
    pub rounds_per_sec: f64,
    /// Relative to the sequential engine's early-phase throughput
    /// (`early.fast_rounds_per_sec`).
    pub speedup_vs_sequential: f64,
}

/// Measurements of one graph size `n`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleRow {
    /// Number of vertices.
    pub n: usize,
    /// Number of edges of the sampled graph.
    pub m: usize,
    /// Rounds the 2-state process needed to stabilize from a random init.
    pub rounds_to_stabilize: usize,
    /// The first round the `auto` strategy executed sparse after at least
    /// one dense round (the dense→sparse switch point of this run), if the
    /// switch happened within the observed prefix. `None` for forced
    /// strategies or runs that never switched.
    pub dense_sparse_switch_round: Option<usize>,
    /// Active-vertex count at which the late-phase snapshot was taken.
    pub late_phase_active: usize,
    /// Throughput at the initial (high-activity) configuration.
    pub early: PhaseThroughput,
    /// Throughput at the late (low-activity) tail.
    pub late: PhaseThroughput,
    /// Early-phase rounds/sec of the counter-based parallel engine, one
    /// point per thread count in [`SWEEP_THREADS`].
    pub early_parallel: Vec<ThreadPoint>,
    /// Whether all measured thread counts produced bit-identical states,
    /// black sets, counts, and random-bit tallies after the verification
    /// run.
    pub parallel_deterministic: bool,
}

/// The full report of the scale experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleReport {
    /// Average degree `d̄` of the sparse `G(n, d̄/n)` family.
    pub avg_degree: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Round strategy of the fast path (`auto`, `sparse`, or `dense`).
    pub strategy: String,
    /// The machine of this run; its core count is the hard ceiling on any
    /// parallel speedup measured here.
    pub host: Host,
    /// The commit measured ([`git_commit`]).
    pub commit: String,
    /// One row per graph size.
    pub rows: Vec<ScaleRow>,
}

impl ScaleReport {
    /// The late-phase speedup at the largest measured `n` (the last row) —
    /// the experiment's headline number and the CI gate's input.
    pub fn headline_speedup(&self) -> f64 {
        self.rows.last().map_or(0.0, |r| r.late.speedup)
    }

    /// The best parallel early-phase speedup (over the sequential engine) at
    /// the largest measured `n`.
    pub fn headline_parallel_speedup(&self) -> f64 {
        self.rows.last().map_or(0.0, |r| {
            r.early_parallel
                .iter()
                .map(|p| p.speedup_vs_sequential)
                .fold(0.0, f64::max)
        })
    }

    /// `true` if every row's thread-count determinism verification passed.
    pub fn all_deterministic(&self) -> bool {
        self.rows.iter().all(|r| r.parallel_deterministic)
    }

    /// The row measured at `n`, if any.
    pub fn row_at(&self, n: usize) -> Option<&ScaleRow> {
        self.rows.iter().find(|r| r.n == n)
    }

    /// Renders a human-readable fixed-width table.
    pub fn to_pretty(&self) -> String {
        let mut out = format!(
            "{:>9} {:>10} {:>8} {:>8} {:>9} {:>13} {:>9} {:>13} {:>9} {:>22} {:>6}\n",
            "n",
            "m",
            "rounds",
            "|A|late",
            "switch@",
            "early fast/s",
            "early spd",
            "late fast/s",
            "late spd",
            "early par/s (1/2/4/8)",
            "deter"
        );
        for r in &self.rows {
            let par = r
                .early_parallel
                .iter()
                .map(|p| format!("{:.0}", p.rounds_per_sec))
                .collect::<Vec<_>>()
                .join("/");
            out.push_str(&format!(
                "{:>9} {:>10} {:>8} {:>8} {:>9} {:>13.0} {:>8.2}x {:>13.0} {:>8.1}x {:>22} {:>6}\n",
                r.n,
                r.m,
                r.rounds_to_stabilize,
                r.late_phase_active,
                r.dense_sparse_switch_round
                    .map_or("-".to_string(), |round| round.to_string()),
                r.early.fast_rounds_per_sec,
                r.early.speedup,
                r.late.fast_rounds_per_sec,
                r.late.speedup,
                par,
                if r.parallel_deterministic {
                    "ok"
                } else {
                    "FAIL"
                },
            ));
        }
        out
    }

    /// Serializes the report as pretty JSON.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (it cannot for this type).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ScaleReport serializes")
    }
}

/// Times repeated replays from `snapshot` (process + RNG cloned outside the
/// timed region) and returns total rounds and wall time. Each replay runs
/// until stabilization or `max_rounds_per_rep` rounds; if the snapshot is
/// already stabilized, a replay times `idle_rounds` silent rounds instead
/// (the engine's steady-state cost). The snapshot's execution mode is
/// honored, so a parallel-mode snapshot times the counter-based parallel
/// path (for which the cloned RNG is ignored).
fn time_step_path(
    snapshot: &TwoStateProcess<'_>,
    rng_snapshot: &ChaCha8Rng,
    reference: bool,
    min_time: Duration,
    max_reps: usize,
    max_rounds_per_rep: usize,
) -> (usize, Duration) {
    let idle_rounds = 10;
    let mut total_rounds = 0usize;
    let mut total = Duration::ZERO;
    let mut reps = 0;
    while (total < min_time && reps < max_reps) || reps == 0 {
        let mut proc = snapshot.clone();
        let mut rng = rng_snapshot.clone();
        let started = Instant::now();
        let mut rounds = 0usize;
        while !proc.is_stabilized() && rounds < max_rounds_per_rep {
            if reference {
                proc.step_reference(&mut rng);
            } else {
                proc.step(&mut rng);
            }
            rounds += 1;
        }
        if rounds == 0 {
            // Already stabilized: time the silent steady state.
            for _ in 0..idle_rounds {
                if reference {
                    proc.step_reference(&mut rng);
                } else {
                    proc.step(&mut rng);
                }
            }
            rounds = idle_rounds;
        }
        total += started.elapsed();
        total_rounds += rounds;
        reps += 1;
    }
    (total_rounds, total)
}

fn throughput(
    snapshot: &TwoStateProcess<'_>,
    rng_snapshot: &ChaCha8Rng,
    min_time: Duration,
    max_reps: usize,
    max_rounds_per_rep: usize,
) -> PhaseThroughput {
    // Interleave several fast/reference measurement passes and score each
    // path by its best pass. Timing the two paths in one long window each
    // makes the ratio hostage to transient background load (a spike during
    // one window skews the speedup by 2x on a busy host); interleaving
    // exposes both paths to the same conditions and best-of discards the
    // disturbed passes.
    let slice = min_time / MEASUREMENT_PASSES;
    let reps_per_pass = (max_reps / MEASUREMENT_PASSES as usize).max(1);
    let mut fast_rounds = 0usize;
    let mut reference_rounds = 0usize;
    let mut fast_rounds_per_sec = 0.0f64;
    let mut reference_rounds_per_sec = 0.0f64;
    for _ in 0..MEASUREMENT_PASSES {
        let (rounds, rate) = measure_pass(
            snapshot,
            rng_snapshot,
            false,
            slice,
            reps_per_pass,
            max_rounds_per_rep,
        );
        fast_rounds += rounds;
        fast_rounds_per_sec = fast_rounds_per_sec.max(rate);
        let (rounds, rate) = measure_pass(
            snapshot,
            rng_snapshot,
            true,
            slice,
            reps_per_pass,
            max_rounds_per_rep,
        );
        reference_rounds += rounds;
        reference_rounds_per_sec = reference_rounds_per_sec.max(rate);
    }
    PhaseThroughput {
        fast_rounds,
        fast_rounds_per_sec,
        reference_rounds,
        reference_rounds_per_sec,
        speedup: fast_rounds_per_sec / reference_rounds_per_sec.max(1e-9),
    }
}

/// Number of interleaved measurement slices per timed path; every rate in
/// the report is the best slice, so a transient load spike costs one slice,
/// not the whole measurement.
const MEASUREMENT_PASSES: u32 = 3;

/// One measurement slice: total rounds and the resulting rounds/second.
fn measure_pass(
    snapshot: &TwoStateProcess<'_>,
    rng_snapshot: &ChaCha8Rng,
    reference: bool,
    slice: Duration,
    max_reps: usize,
    max_rounds_per_rep: usize,
) -> (usize, f64) {
    let (rounds, time) = time_step_path(
        snapshot,
        rng_snapshot,
        reference,
        slice,
        max_reps,
        max_rounds_per_rep,
    );
    (rounds, rounds as f64 / time.as_secs_f64().max(1e-9))
}

/// Best-of-[`MEASUREMENT_PASSES`] throughput of one (non-reference) snapshot
/// — the same scoring the fast/reference comparison uses, applied to the
/// parallel thread sweep so its speedup-vs-sequential ratios are not biased
/// by comparing a single-window rate against a best-of rate.
fn best_rate(
    snapshot: &TwoStateProcess<'_>,
    rng_snapshot: &ChaCha8Rng,
    min_time: Duration,
    max_reps: usize,
    max_rounds_per_rep: usize,
) -> f64 {
    let slice = min_time / MEASUREMENT_PASSES;
    let reps_per_pass = (max_reps / MEASUREMENT_PASSES as usize).max(1);
    let mut best = 0.0f64;
    for _ in 0..MEASUREMENT_PASSES {
        let (_, rate) = measure_pass(
            snapshot,
            rng_snapshot,
            false,
            slice,
            reps_per_pass,
            max_rounds_per_rep,
        );
        best = best.max(rate);
    }
    best
}

/// Runs `verify_rounds` counter-based rounds at every sweep thread count
/// from a clone of `proc` and checks that states, black sets, counts, and
/// random-bit tallies agree bit for bit.
fn verify_thread_count_determinism(
    proc: &TwoStateProcess<'_>,
    counter_seed: u64,
    verify_rounds: usize,
) -> bool {
    let mut baseline = None;
    for &threads in &SWEEP_THREADS {
        let mut replica = proc.clone();
        replica.set_execution(ExecutionMode::Parallel { threads }, counter_seed);
        let mut unused = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..verify_rounds {
            if replica.is_stabilized() {
                break;
            }
            replica.step(&mut unused);
        }
        let observation = (
            replica.states(),
            replica.black_set(),
            replica.counts(),
            replica.random_bits_used(),
            replica.round(),
        );
        match &baseline {
            None => baseline = Some(observation),
            Some(expected) => {
                if &observation != expected {
                    return false;
                }
            }
        }
    }
    true
}

/// Runs the scale measurement for the 2-state process on sparse
/// `G(n, avg_degree/n)` at each size in `ns`.
///
/// For each `n`: sample the graph, snapshot the initial (early-phase)
/// configuration, run the fast path until the active count drops to
/// `n / 64` (the late-phase entry), snapshot again, then measure fast and
/// reference round throughput from both snapshots, sweep the counter-based
/// parallel engine over [`SWEEP_THREADS`] from the early snapshot, and
/// verify thread-count determinism. RNG clones guarantee the fast and
/// reference replays execute the exact same rounds.
///
/// # Panics
///
/// Panics if the process fails to stabilize within 1,000,000 rounds (the
/// 2-state process on sparse `G(n,p)` stabilizes in polylog rounds w.h.p.).
pub fn scale_measurement(
    ns: &[usize],
    avg_degree: f64,
    seed: u64,
    strategy: RoundStrategy,
) -> ScaleReport {
    let min_time = Duration::from_millis(120);
    let mut rows = Vec::new();
    for &n in ns {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ n as u64);
        // Counter-based parallel generation: graph setup (not rounds)
        // dominates wall-clock at n = 10^7, and the keyed per-row streams
        // make the sample independent of the worker-thread count.
        let g = generators::gnp_counter(n, avg_degree / n as f64, seed ^ n as u64);
        let mut proc = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut rng);
        proc.set_strategy(strategy);
        let proc = proc;

        // Early phase: the initial configuration, roughly half the vertices
        // active. Few rounds per replay — activity decays fast.
        let early = throughput(&proc, &rng, min_time, 40, 3);

        // Counter-based parallel engine from the same early snapshot, one
        // point per thread count. (Its random trajectory differs from the
        // sequential stream — counter-based draws — but the workload is the
        // same high-activity regime.)
        let counter_seed = seed ^ 0xC0DE ^ n as u64;
        let early_parallel: Vec<ThreadPoint> = SWEEP_THREADS
            .iter()
            .map(|&threads| {
                let mut snapshot = proc.clone();
                snapshot.set_execution(ExecutionMode::Parallel { threads }, counter_seed);
                let rounds_per_sec = best_rate(&snapshot, &rng, min_time, 40, 3);
                ThreadPoint {
                    threads,
                    rounds_per_sec,
                    speedup_vs_sequential: rounds_per_sec / early.fast_rounds_per_sec.max(1e-9),
                }
            })
            .collect();

        // Bit-identical states across thread counts, verified on a short
        // prefix of the parallel run.
        let parallel_deterministic = verify_thread_count_determinism(&proc, counter_seed, 12);

        // Advance (on a clone driven by the same RNG) to the late phase:
        // active count at most n / 64. Record where the adaptive strategy
        // hands over from the dense sweep to the sparse worklist.
        let threshold = (n / 64).max(1);
        let mut late_proc = proc.clone();
        let mut late_rng = rng.clone();
        let mut dense_sparse_switch_round = None;
        let mut seen_dense = false;
        while !late_proc.is_stabilized() && late_proc.counts().active > threshold {
            late_proc.step(&mut late_rng);
            if late_proc.last_round_was_dense() {
                seen_dense = true;
            } else if seen_dense && dense_sparse_switch_round.is_none() {
                dense_sparse_switch_round = Some(late_proc.round());
            }
        }
        let late_phase_active = late_proc.counts().active;
        let late = throughput(&late_proc, &late_rng, min_time, 200, 400);

        // Finally drive the late snapshot to stabilization for the round count.
        let mut finish = late_proc.clone();
        let mut finish_rng = late_rng.clone();
        finish
            .run_to_stabilization(&mut finish_rng, 1_000_000)
            .expect("2-state process stabilizes on sparse G(n,p)");
        rows.push(ScaleRow {
            n,
            m: g.m(),
            rounds_to_stabilize: finish.round(),
            dense_sparse_switch_round,
            late_phase_active,
            early,
            late,
            early_parallel,
            parallel_deterministic,
        });
    }
    ScaleReport {
        avg_degree,
        seed,
        strategy: strategy.label().to_string(),
        host: Host::current(),
        commit: git_commit(),
        rows,
    }
}

/// The `exp_scale` experiment at the given [`Scale`]: sparse `G(n, 8/n)` at
/// `n = 10⁵` (quick) or `n ∈ {10⁴, 10⁵, 10⁶, 10⁷}` (full).
pub fn exp_scale(scale: Scale, strategy: RoundStrategy) -> ScaleReport {
    let ns: &[usize] = match scale {
        Scale::Quick => &[100_000],
        Scale::Full => &[10_000, 100_000, 1_000_000, 10_000_000],
    };
    scale_measurement(ns, 8.0, 20_250, strategy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_measurement_produces_sane_rows() {
        // Tiny sizes keep the (debug-build) test fast; the timing numbers are
        // not asserted against a threshold here — that's the release-mode
        // binary's job — only their plumbing.
        let report = scale_measurement(&[2_000, 4_000], 6.0, 99, RoundStrategy::Auto);
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.strategy, "auto");
        assert!(report.host.nproc >= 1);
        assert!(!report.commit.is_empty());
        // From a random init the early phase is dense; the adaptive engine
        // must record the dense -> sparse handover on the way down.
        assert!(report
            .rows
            .iter()
            .all(|r| r.dense_sparse_switch_round.is_some()));
        for row in &report.rows {
            assert!(row.m > 0);
            assert!(row.rounds_to_stabilize > 0);
            assert!(row.late_phase_active <= (row.n / 64).max(1));
            assert!(row.early.fast_rounds_per_sec > 0.0);
            assert!(row.late.fast_rounds_per_sec > 0.0);
            assert!(row.late.reference_rounds_per_sec > 0.0);
            assert!(row.late.speedup > 0.0);
            assert_eq!(row.early_parallel.len(), SWEEP_THREADS.len());
            for (point, &threads) in row.early_parallel.iter().zip(SWEEP_THREADS.iter()) {
                assert_eq!(point.threads, threads);
                assert!(point.rounds_per_sec > 0.0);
                assert!(point.speedup_vs_sequential > 0.0);
            }
            assert!(
                row.parallel_deterministic,
                "thread counts must agree bit for bit"
            );
        }
        assert_eq!(report.headline_speedup(), report.rows[1].late.speedup);
        assert!(report.headline_parallel_speedup() > 0.0);
        assert!(report.all_deterministic());
        assert!(report.row_at(2_000).is_some());
        assert!(report.row_at(3_000).is_none());
        let json = report.to_json();
        let back: ScaleReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        assert!(report.to_pretty().lines().count() == 3);
        // Forced strategies never report a switch round.
        let forced = scale_measurement(&[1_000], 6.0, 99, RoundStrategy::Sparse);
        assert_eq!(forced.strategy, "sparse");
        assert!(forced.rows[0].dense_sparse_switch_round.is_none());
    }
}
