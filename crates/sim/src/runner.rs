//! Executes experiment specifications: one deterministic RNG stream per
//! trial, parallel trials, and MIS validation of every outcome.
//!
//! A trial resolves its algorithm through the string-keyed [`Registry`]
//! (see [`builtin_registry`]), builds the scheduler from the spec, and
//! hands both to [`drive_algorithm`], which streams per-round events to any
//! attached [`Observer`]s. Specs written before the registry redesign
//! resolve through the same path and are bit-identical to the pre-registry
//! harness (same RNG stream, same rounds, same MIS, same random-bit
//! counts), which the `tests/legacy_equivalence.rs` regression suite pins
//! down.
//!
//! Two layers of parallelism are available and composable per spec:
//! independent trials always run on the rayon trial pool
//! (`run_experiment`), and a spec whose `execution` is
//! [`ExecutionMode::Parallel`](mis_core::ExecutionMode::Parallel)
//! additionally runs each *round* of the engine processes in data-parallel
//! phases with counter-based randomness — the right choice when one trial
//! is a single huge graph.

use std::sync::Arc;

use mis_core::scheduler::{Activation, Scheduler};
use mis_core::{Algorithm, AlgorithmConfig, ByzantineOverlay, Registry};
use mis_graph::traversal::{multi_source_bfs_distances, UNREACHABLE};
use mis_graph::{mis_check, Graph, VertexSet};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::churn::generate_burst;
use crate::metrics::{RoundTrace, TrialResult};
use crate::observer::{ByzantineRoundMetrics, Observer, TraceObserver};
use crate::registry::builtin_registry;
use crate::spec::{ChurnSpec, ExperimentSpec, FaultSpec};
use crate::stats::Summary;

/// Salt mixed into the per-trial seed to key the counter-based RNG of
/// parallel-mode runs (so the counter key is decorrelated from the ChaCha
/// stream that draws the graph and the initial states). Service jobs key
/// their counter RNG the same way, so a job and a trial with the same seed
/// share coin streams.
pub const COUNTER_SEED_SALT: u64 = 0x0005_EEDC_0DE0_FC01;

/// BFS radius around the Byzantine set within which instability is the
/// adversary's prerogative: a trial under a [`ByzantineOverlay`] terminates
/// once every unstable vertex lies inside this ball — the containment
/// guarantee of Cohen–Pirot–Pilard (stabilization outside `N²(B)`).
pub const CONTAINMENT_RADIUS: usize = 2;

/// Consecutive rounds a configuration must stay contained before the driver
/// declares containment and stops. Containment can be transient — an
/// oscillating adversary pushes instability waves across the zone boundary —
/// so a single contained snapshot is not proof the exterior has settled.
pub const CONTAINMENT_CONFIRM_ROUNDS: usize = 3;

/// Per-trial containment bookkeeping for a Byzantine run: the BFS levels
/// from the Byzantine set (cached per topology; refreshed after churn) and
/// the consecutive-contained-round counter.
struct ContainmentTracker<'a> {
    overlay: &'a ByzantineOverlay,
    /// BFS distance of each vertex to the nearest Byzantine vertex.
    dist: Vec<usize>,
    /// Number of vertices at distance at most [`CONTAINMENT_RADIUS`].
    zone_size: usize,
    /// Consecutive rounds the configuration has stayed contained.
    streak: usize,
}

impl<'a> ContainmentTracker<'a> {
    fn new(overlay: &'a ByzantineOverlay, graph: &Graph) -> Self {
        let mut tracker = ContainmentTracker {
            overlay,
            dist: Vec::new(),
            zone_size: 0,
            streak: 0,
        };
        tracker.refresh(graph);
        tracker
    }

    /// Recomputes the cached BFS levels against `graph` — called once up
    /// front and again after every topology mutation. Byzantine vertices
    /// that have departed the graph (churn) are dropped as sources.
    fn refresh(&mut self, graph: &Graph) {
        let sources = self
            .overlay
            .vertices()
            .into_iter()
            .filter(|&u| u < graph.n());
        self.dist = multi_source_bfs_distances(graph, sources);
        self.zone_size = self
            .dist
            .iter()
            .filter(|&&d| d <= CONTAINMENT_RADIUS)
            .count();
        self.streak = 0;
    }

    /// External disturbances (faults, churn) invalidate any running streak.
    fn reset_streak(&mut self) {
        self.streak = 0;
    }

    /// Applies the adversarial overrides for the current round, judges
    /// containment, streams the verdict to `observers`, and returns `true`
    /// once containment has held for [`CONTAINMENT_CONFIRM_ROUNDS`]
    /// consecutive rounds.
    fn round(&mut self, alg: &mut dyn Algorithm, observers: &mut [&mut dyn Observer]) -> bool {
        let overridden = self.overlay.apply(alg);
        // O(1) precheck: more unstable vertices than the zone can hold
        // proves some of them are outside it, without touching the set.
        let contained = alg.counts().unstable <= self.zone_size
            && alg
                .unstable_set()
                .iter()
                .all(|u| self.dist[u] <= CONTAINMENT_RADIUS);
        if !observers.is_empty() {
            let metrics = self.metrics(alg, overridden, contained);
            for obs in observers.iter_mut() {
                obs.on_byzantine_round(alg.round(), &metrics);
            }
        }
        if contained {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        self.streak >= CONTAINMENT_CONFIRM_ROUNDS
    }

    /// The full distance histogram of the unstable set — only materialized
    /// when observers are attached.
    fn metrics(
        &self,
        alg: &dyn Algorithm,
        overridden: usize,
        contained: bool,
    ) -> ByzantineRoundMetrics {
        let mut metrics = ByzantineRoundMetrics {
            overridden,
            contained,
            ..ByzantineRoundMetrics::default()
        };
        for u in alg.unstable_set().iter() {
            let d = self.dist[u];
            if d == UNREACHABLE {
                metrics.unstable_unreachable += 1;
            } else {
                if metrics.unstable_by_distance.len() <= d {
                    metrics.unstable_by_distance.resize(d + 1, 0);
                }
                metrics.unstable_by_distance[d] += 1;
            }
        }
        metrics
    }
}

/// All trial results of one experiment plus the specification that produced
/// them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// The specification that was executed.
    pub spec: ExperimentSpec,
    /// One result per trial, in trial order.
    pub trials: Vec<TrialResult>,
}

impl ExperimentResult {
    /// `true` if every trial stabilized within its round budget.
    pub fn all_stabilized(&self) -> bool {
        self.trials.iter().all(|t| t.stabilized)
    }

    /// `true` if every stabilized trial produced a valid MIS.
    pub fn all_valid(&self) -> bool {
        self.trials.iter().all(|t| !t.stabilized || t.valid_mis)
    }

    /// Summary of stabilization times (in rounds) over all trials.
    pub fn rounds_summary(&self) -> Summary {
        Summary::from_counts(self.trials.iter().map(|t| t.rounds))
    }

    /// Summary of MIS sizes over all trials.
    pub fn mis_size_summary(&self) -> Summary {
        Summary::from_counts(self.trials.iter().map(|t| t.mis_size))
    }

    /// Summary of random bits used per trial.
    pub fn random_bits_summary(&self) -> Summary {
        Summary::from_counts(self.trials.iter().map(|t| t.random_bits as usize))
    }
}

/// Runs a single trial of `spec` with the RNG stream derived from
/// `spec.base_seed + trial`, resolving the algorithm in the builtin
/// registry.
///
/// The trial re-samples the graph (for random families), drives the
/// algorithm under the spec's scheduler to stabilization or until the round
/// budget is exhausted, validates the resulting black set, and returns the
/// full [`TrialResult`].
///
/// # Panics
///
/// Panics if the spec names an unknown algorithm, or asks for something the
/// algorithm's registry entry does not declare in its
/// [`Capabilities`](mis_core::Capabilities): a non-synchronous scheduler
/// without partial activation, fault injection, churn without topology
/// changes, or a Byzantine adversary.
pub fn run_trial(spec: &ExperimentSpec, trial: usize) -> TrialResult {
    run_trial_on(builtin_registry(), spec, trial, None)
}

/// [`run_trial`] with an explicit registry and an optional pre-generated
/// graph.
///
/// `shared_graph` is only sound for deterministic graph families
/// ([`GraphSpec::is_deterministic`](crate::spec::GraphSpec::is_deterministic)):
/// their generation consumes no randomness, so skipping it leaves the
/// trial's RNG stream — and therefore every result — unchanged.
fn run_trial_on(
    registry: &Registry,
    spec: &ExperimentSpec,
    trial: usize,
    shared_graph: Option<&Graph>,
) -> TrialResult {
    let seed = spec.base_seed.wrapping_add(trial as u64);
    let counter_seed = seed ^ COUNTER_SEED_SALT;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let generated;
    let graph = match shared_graph {
        Some(g) => {
            debug_assert!(
                spec.graph.is_deterministic(),
                "shared graphs require a deterministic family"
            );
            g
        }
        None => {
            generated = spec.graph.generate(&mut rng);
            &generated
        }
    };

    let key = spec.algorithm_key();
    let factory = registry.get(key).unwrap_or_else(|| {
        panic!(
            "no algorithm '{key}' in the registry (known: {})",
            registry.keys().join(", ")
        )
    });
    let config = AlgorithmConfig {
        init: spec.init,
        execution: spec.execution,
        strategy: spec.strategy,
        counter_seed,
    };
    let caps = factory.capabilities();
    assert!(
        spec.scheduler.is_synchronous() || caps.partial_activation,
        "algorithm '{key}' does not support the {} scheduler (no partial activation)",
        spec.scheduler.label()
    );
    assert!(
        spec.fault.is_none() || caps.fault_injection,
        "algorithm '{key}' does not support fault injection"
    );
    assert!(
        spec.churn.is_none() || caps.topology_change,
        "algorithm '{key}' does not support topology changes (churn)"
    );
    assert!(
        spec.byzantine.is_none() || caps.byzantine,
        "algorithm '{key}' does not support Byzantine overrides"
    );
    let mut alg = factory.init(graph, &config, &mut rng);

    // The adversary is keyed by its own seed (offset per trial), never by
    // the trial's sequential RNG stream: attaching or removing a Byzantine
    // spec must not shift any honest coin flip.
    let overlay = spec.byzantine.as_ref().map(|b| {
        let byz_seed = b.seed.wrapping_add(trial as u64);
        let victims = b.selection.resolve(graph, byz_seed);
        ByzantineOverlay::new(b.strategy, victims, byz_seed).with_resample(b.resample)
    });

    let mut scheduler = spec.scheduler.build();
    let mut trace_observer = (spec.record_trace && caps.trace).then(TraceObserver::new);
    let mut outcome = {
        let mut observers: Vec<&mut dyn Observer> = Vec::new();
        if let Some(obs) = trace_observer.as_mut() {
            observers.push(obs);
        }
        drive_algorithm(
            alg.as_mut(),
            scheduler.as_mut(),
            &mut rng,
            spec.max_rounds,
            spec.fault.clone(),
            spec.churn,
            overlay.as_ref(),
            &mut observers,
        )
    };
    outcome.trace = trace_observer.map(TraceObserver::into_trace);

    // Under churn the algorithm ends on a *mutated* graph: validate (and
    // report n/m) against the topology it actually stabilized on. Under a
    // Byzantine adversary the MIS property is only owed outside the
    // containment radius of the Byzantine set.
    let final_graph = alg.current_graph().unwrap_or(graph);
    let valid_mis = outcome.stabilized
        && match overlay.as_ref() {
            Some(overlay) => mis_check::is_mis_outside(
                final_graph,
                &outcome.black_set,
                &overlay.vertices(),
                CONTAINMENT_RADIUS,
            ),
            None => mis_check::is_mis(final_graph, &outcome.black_set),
        };
    TrialResult {
        trial,
        seed,
        n: final_graph.n(),
        m: final_graph.m(),
        rounds: outcome.rounds,
        stabilized: outcome.stabilized,
        valid_mis,
        mis_size: outcome.black_set.len(),
        random_bits: outcome.random_bits,
        states_per_vertex: outcome.states_per_vertex,
        trace: outcome.trace,
    }
}

/// Runs every trial of `spec`, in parallel, and collects the results in trial
/// order, resolving algorithms in the builtin registry.
///
/// For deterministic graph families (complete graphs, paths, cycles, stars,
/// grids, disjoint cliques) the graph is generated **once** and shared
/// across all trials behind an [`Arc`], instead of being regenerated per
/// trial — generation consumes no randomness for those families, so the
/// per-trial RNG streams (and all results) are unchanged.
pub fn run_experiment(spec: &ExperimentSpec) -> ExperimentResult {
    run_experiment_with(builtin_registry(), spec)
}

/// [`run_experiment`] against an explicit [`Registry`] — the entry point
/// for external algorithms registered outside this workspace.
pub fn run_experiment_with(registry: &Registry, spec: &ExperimentSpec) -> ExperimentResult {
    if let mis_core::ExecutionMode::Parallel { threads } = spec.execution {
        // Spawn (or fetch) the persistent worker pool before the trial loop
        // so the first timed round doesn't pay thread-creation cost.
        rayon::global_pool(mis_core::exec::resolve_threads(threads));
    }
    let shared_graph: Option<Arc<Graph>> = spec.graph.is_deterministic().then(|| {
        // The RNG is unused by deterministic generators; any seed works.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        Arc::new(spec.graph.generate(&mut rng))
    });
    let shared_ref = &shared_graph;
    let trials: Vec<TrialResult> = (0..spec.trials)
        .into_par_iter()
        .map(|trial| run_trial_on(registry, spec, trial, shared_ref.as_deref()))
        .collect();
    ExperimentResult {
        spec: spec.clone(),
        trials,
    }
}

/// What driving one algorithm on one graph produced: the measurements every
/// algorithm reports into a [`TrialResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriveOutcome {
    /// Rounds executed (for the sequential baseline: moves executed).
    pub rounds: usize,
    /// Whether the algorithm stabilized/terminated within the round budget.
    pub stabilized: bool,
    /// The final black set (the computed MIS when `stabilized`).
    pub black_set: VertexSet,
    /// Total random bits consumed.
    pub random_bits: u64,
    /// States per vertex of the algorithm (`usize::MAX` for baselines with
    /// super-constant state).
    pub states_per_vertex: usize,
    /// Per-round trace, when requested (filled in by the caller from a
    /// [`TraceObserver`]; [`drive_algorithm`] itself streams to observers
    /// instead of accumulating).
    pub trace: Option<RoundTrace>,
}

/// Drives an [`Algorithm`] under a [`Scheduler`] until it stabilizes, the
/// round budget runs out, or both phases of an optional fault-injection
/// experiment complete, streaming per-round events to `observers`.
///
/// The contract mirrors the paper's execution model: before each round the
/// scheduler picks the activation, the algorithm applies its local rule on
/// the activated vertices, and observers see the aggregate counts. A
/// [`FaultSpec`] fires once — at stabilization or at its `at_round`,
/// whichever comes first — corrupting either its explicit `victims` or a
/// random `fraction`-sample, after which the loop continues until
/// re-stabilization. A [`ChurnSpec`] fires its first burst the same way,
/// mutating the live graph through [`Algorithm::apply_mutation`];
/// subsequent bursts each fire at the next re-stabilization.
///
/// A [`ByzantineOverlay`] re-applies its adversarial overrides after every
/// round (and immediately after faults and churn bursts), so the selected
/// vertices never obey the protocol. Global stabilization is then generally
/// impossible, and the driver instead terminates on **containment**: once
/// every unstable vertex has been inside the [`CONTAINMENT_RADIUS`]-ball of
/// the Byzantine set for [`CONTAINMENT_CONFIRM_ROUNDS`] consecutive rounds,
/// the outcome reports `stabilized = true` (and [`Observer::on_stabilized`]
/// fires). `max_rounds` remains the hard budget for adversaries that keep
/// the exterior churning indefinitely.
///
/// When `observers` is empty, per-round [`Algorithm::counts`] calls are
/// skipped entirely (they are `O(n + m)` for the communication models).
///
/// # Panics
///
/// Panics at the first call the algorithm does not support: a fault
/// ([`Algorithm::inject_faults_targeted`]), a Byzantine override
/// ([`Algorithm::set_byzantine_state`]), a partial activation
/// ([`Algorithm::step_scheduled`]), or a churn burst, which
/// [`Algorithm::apply_mutation`] declines. Also panics if a generated burst
/// is rejected as invalid (the burst generator only emits deltas valid for
/// the current graph, so a rejection indicates a bug, not bad input).
/// [`run_trial`] checks the registry entry's capabilities before it gets
/// here.
#[allow(clippy::too_many_arguments)]
pub fn drive_algorithm(
    alg: &mut dyn Algorithm,
    scheduler: &mut dyn Scheduler,
    rng: &mut dyn RngCore,
    max_rounds: usize,
    fault: Option<FaultSpec>,
    churn: Option<ChurnSpec>,
    byzantine: Option<&ByzantineOverlay>,
    observers: &mut [&mut dyn Observer],
) -> DriveOutcome {
    let observe = !observers.is_empty();
    // An adversary controlling no vertices is no adversary: run (and
    // terminate) exactly like a Byzantine-free trial.
    let mut tracker = byzantine
        .filter(|overlay| !overlay.is_empty())
        .map(|overlay| {
            let graph = alg
                .current_graph()
                .expect("a Byzantine overlay needs the algorithm's current graph");
            ContainmentTracker::new(overlay, graph)
        });
    // The adversary owns its vertices from round 0: apply the overrides
    // before the initial configuration is observed or judged.
    let mut contained = match tracker.as_mut() {
        Some(t) => t.round(alg, observers),
        None => false,
    };
    if observe {
        let counts = alg.counts();
        for obs in observers.iter_mut() {
            obs.on_round(alg.round(), &counts);
        }
    }
    let mut pending_fault = fault;
    // (spec, remaining bursts, round bound for the *next* burst). Only the
    // first burst honors `at_round`; later bursts wait for re-stabilization.
    let mut pending_churn = churn.and_then(|c| (c.bursts > 0).then_some((c, c.bursts, c.at_round)));
    let mut stabilized = alg.is_stabilized();
    loop {
        // Under an adversary, *confirmed containment* is the only
        // convergence signal (it releases pending faults/churn and ends the
        // trial): a momentarily-stable snapshot is not durable — the
        // adversary re-destabilizes it next round — and global stability,
        // where reached, implies containment and confirms within
        // CONTAINMENT_CONFIRM_ROUNDS rounds anyway.
        let converged = if tracker.is_some() {
            contained
        } else {
            stabilized
        };
        let fire_fault = pending_fault
            .as_ref()
            .is_some_and(|f| converged || alg.round() >= f.at_round);
        if fire_fault {
            let f = pending_fault.take().expect("checked above");
            let corrupted = if f.victims.is_empty() {
                alg.inject_faults(f.fraction, rng)
            } else {
                alg.inject_faults_targeted(&f.victims, rng)
            };
            for obs in observers.iter_mut() {
                obs.on_fault_injection(alg.round(), corrupted);
            }
            // The corruption may have scrambled adversarial vertices:
            // re-assert the overrides and void any containment streak.
            contained = match tracker.as_mut() {
                Some(t) => {
                    t.reset_streak();
                    t.round(alg, observers)
                }
                None => false,
            };
            if observe {
                // Re-emit the current round with the post-corruption
                // counts: the unstable spike recovery curves measure.
                let counts = alg.counts();
                for obs in observers.iter_mut() {
                    obs.on_round(alg.round(), &counts);
                }
            }
            stabilized = alg.is_stabilized();
            continue;
        }
        if let Some((c, remaining, at_round)) = pending_churn {
            if converged || alg.round() >= at_round {
                let delta = {
                    let graph = alg
                        .current_graph()
                        .expect("churn needs the algorithm's current graph");
                    generate_burst(c.scenario, graph, rng)
                };
                let committed = alg
                    .apply_mutation(&delta)
                    .unwrap_or_else(|e| panic!("churn burst rejected: {e}"));
                pending_churn = (remaining > 1).then_some((c, remaining - 1, usize::MAX));
                for obs in observers.iter_mut() {
                    obs.on_topology_change(alg.round(), &committed);
                }
                // The mutation invalidated the cached BFS levels (and the
                // state carryover may have touched adversarial vertices).
                contained = match tracker.as_mut() {
                    Some(t) => {
                        let graph = alg
                            .current_graph()
                            .expect("topology-change support implies a current graph");
                        // An adaptive adversary abandons victims churn just
                        // isolated and compromises fresh ones before the
                        // containment zone is re-derived.
                        if byzantine.is_some_and(|o| o.resamples()) {
                            t.overlay.resample_departed(graph);
                        }
                        t.refresh(graph);
                        t.round(alg, observers)
                    }
                    None => false,
                };
                if observe {
                    // Re-emit the current round with the post-mutation
                    // counts: the unstable spike re-stabilization measures.
                    let counts = alg.counts();
                    for obs in observers.iter_mut() {
                        obs.on_round(alg.round(), &counts);
                    }
                }
                stabilized = alg.is_stabilized();
                continue;
            }
        }
        if converged || alg.round() >= max_rounds {
            break;
        }
        match scheduler.next_activation(alg.n(), alg.round(), rng) {
            Activation::All => alg.step(rng),
            Activation::Subset(set) => alg.step_scheduled(&set, rng),
        }
        if let Some(t) = tracker.as_mut() {
            contained = t.round(alg, observers);
        }
        if observe {
            let counts = alg.counts();
            for obs in observers.iter_mut() {
                obs.on_round(alg.round(), &counts);
            }
        }
        stabilized = alg.is_stabilized();
    }
    let converged = if tracker.is_some() {
        contained
    } else {
        stabilized
    };
    if converged {
        for obs in observers.iter_mut() {
            obs.on_stabilized(alg.round());
        }
    }
    DriveOutcome {
        rounds: alg.round(),
        stabilized: converged,
        black_set: alg.black_set(),
        random_bits: alg.random_bits_used(),
        states_per_vertex: alg.states_per_vertex(),
        trace: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{EventLogObserver, ObserverEvent};
    use crate::spec::{ChurnScenario, GraphSpec, SchedulerSpec};
    use mis_core::init::InitStrategy;
    use mis_core::ExecutionMode;

    fn base_spec(algorithm: &str) -> ExperimentSpec {
        ExperimentSpec {
            name: "unit".into(),
            graph: GraphSpec::Gnp { n: 60, p: 0.08 },
            algorithm: algorithm.into(),
            init: InitStrategy::Random,
            execution: ExecutionMode::Sequential,
            trials: 6,
            max_rounds: 100_000,
            base_seed: 11,
            record_trace: false,
            ..ExperimentSpec::default()
        }
    }

    #[test]
    fn every_registry_algorithm_produces_valid_mis() {
        for key in builtin_registry().keys() {
            let mut spec = base_spec(key);
            spec.trials = 3;
            let result = run_experiment(&spec);
            assert!(result.all_stabilized(), "{key}");
            assert!(result.all_valid(), "{key}");
        }
    }

    #[test]
    #[should_panic(expected = "no algorithm 'does-not-exist'")]
    fn unknown_algorithm_key_panics_with_known_keys() {
        let spec = base_spec("does-not-exist");
        run_trial(&spec, 0);
    }

    #[test]
    fn sequential_selfstab_respects_move_bound() {
        let mut spec = base_spec("sequential-selfstab");
        spec.trials = 4;
        let result = run_experiment(&spec);
        assert!(result.all_valid());
        for t in &result.trials {
            assert!(
                t.rounds <= 2 * t.n,
                "sequential baseline exceeded its 2n move bound: {} moves on n = {}",
                t.rounds,
                t.n
            );
            assert_eq!(t.random_bits, 0, "smallest-id scheduler is deterministic");
        }
    }

    #[test]
    fn greedy_is_a_single_pass() {
        let result = run_experiment(&base_spec("greedy"));
        assert!(result.all_valid());
        for t in &result.trials {
            assert_eq!(t.rounds, 1);
            assert_eq!(t.states_per_vertex, usize::MAX);
        }
        assert!(result.trials.iter().all(|t| t.mis_size >= 1));
    }

    /// Large-n scale spec: the incremental engine makes a 50k-vertex sparse
    /// G(n,p) trial cheap enough for the (debug-build) test suite — the round
    /// cost tracks the shrinking active frontier instead of n + m.
    #[test]
    fn large_n_sparse_trial_is_fast_and_valid() {
        let n = 50_000;
        let spec = ExperimentSpec::builder()
            .name("scale-smoke")
            .graph(GraphSpec::Gnp {
                n,
                p: 8.0 / n as f64,
            })
            .base_seed(77)
            .build();
        let result = run_experiment(&spec);
        assert!(result.all_stabilized());
        assert!(result.all_valid());
        assert_eq!(result.trials[0].n, n);
    }

    #[test]
    fn trials_are_reproducible() {
        let spec = base_spec("two-state");
        let a = run_experiment(&spec);
        let b = run_experiment(&spec);
        assert_eq!(a, b);
    }

    #[test]
    fn shared_graph_trials_match_unshared_trials() {
        // run_experiment shares one Arc<Graph> across trials for the
        // deterministic complete-graph family; the per-trial path must give
        // the exact same results.
        let mut spec = base_spec("two-state");
        spec.graph = GraphSpec::Complete { n: 48 };
        spec.trials = 4;
        let shared = run_experiment(&spec);
        let unshared: Vec<TrialResult> = (0..spec.trials)
            .map(|trial| run_trial(&spec, trial))
            .collect();
        assert_eq!(shared.trials, unshared);
    }

    #[test]
    fn parallel_execution_produces_valid_thread_count_invariant_results() {
        for key in ["two-state", "three-state", "three-color"] {
            let mut spec = base_spec(key);
            spec.trials = 3;
            let mut per_thread_results = Vec::new();
            for threads in [1usize, 4] {
                spec.execution = ExecutionMode::Parallel { threads };
                let result = run_experiment(&spec);
                assert!(result.all_stabilized(), "{key}");
                assert!(result.all_valid(), "{key}");
                per_thread_results.push(result.trials);
            }
            assert_eq!(
                per_thread_results[0], per_thread_results[1],
                "{key}: results must not depend on the thread count"
            );
        }
    }

    #[test]
    fn different_seeds_change_outcomes() {
        let mut spec = base_spec("two-state");
        let a = run_experiment(&spec);
        spec.base_seed = 999;
        let b = run_experiment(&spec);
        // Stabilization times should differ for at least one trial.
        let ra: Vec<_> = a.trials.iter().map(|t| t.rounds).collect();
        let rb: Vec<_> = b.trials.iter().map(|t| t.rounds).collect();
        assert_ne!(ra, rb);
    }

    #[test]
    fn trace_recording_captures_monotone_unstable_counts() {
        let mut spec = base_spec("two-state");
        spec.record_trace = true;
        spec.trials = 2;
        let result = run_experiment(&spec);
        for t in &result.trials {
            let trace = t.trace.as_ref().expect("trace requested");
            assert_eq!(trace.len(), t.rounds + 1);
            // |V_t| is non-increasing over time for the 2-state process.
            let unstable: Vec<_> = trace.counts.iter().map(|c| c.unstable).collect();
            assert!(
                unstable.windows(2).all(|w| w[1] <= w[0]),
                "unstable counts increased: {unstable:?}"
            );
            assert_eq!(*unstable.last().unwrap(), 0);
        }
    }

    #[test]
    fn one_shot_baselines_skip_trace_recording() {
        // The legacy harness reported `trace: None` for Luby/greedy/
        // sequential even when a trace was requested; the registry path
        // preserves that via the declared trace capability.
        for key in ["luby", "greedy", "sequential-selfstab"] {
            let mut spec = base_spec(key);
            spec.record_trace = true;
            spec.trials = 2;
            let result = run_experiment(&spec);
            assert!(result.trials.iter().all(|t| t.trace.is_none()), "{key}");
        }
    }

    #[test]
    fn timeout_is_reported_not_panicked() {
        let mut spec = base_spec("two-state");
        spec.graph = GraphSpec::Complete { n: 256 };
        spec.max_rounds = 1; // far too small
        spec.trials = 2;
        let result = run_experiment(&spec);
        assert!(!result.all_stabilized());
        assert!(
            result.all_valid(),
            "non-stabilized trials must not claim a valid MIS"
        );
    }

    #[test]
    fn central_daemon_scheduler_stabilizes_two_state() {
        let spec = ExperimentSpec::builder()
            .name("daemon")
            .graph(GraphSpec::Gnp { n: 30, p: 0.15 })
            .scheduler(SchedulerSpec::CentralDaemon)
            .trials(3)
            .max_rounds(1_000_000)
            .base_seed(5)
            .build();
        let result = run_experiment(&spec);
        assert!(result.all_stabilized());
        assert!(result.all_valid());
        // One move per round: stabilization needs (many) more rounds than
        // the synchronous runs of the same graph family.
        assert!(result.rounds_summary().mean > 10.0);
    }

    #[test]
    fn random_subset_scheduler_stabilizes_engine_and_comm_algorithms() {
        for key in [
            "two-state",
            "three-state",
            "beeping-two-state",
            "stone-age-three-state",
        ] {
            let spec = ExperimentSpec::builder()
                .name("subset")
                .graph(GraphSpec::Gnp { n: 40, p: 0.12 })
                .algorithm(key)
                .scheduler(SchedulerSpec::RandomSubset { p: 0.5 })
                .trials(2)
                .max_rounds(500_000)
                .base_seed(23)
                .build();
            let result = run_experiment(&spec);
            assert!(result.all_stabilized(), "{key}");
            assert!(result.all_valid(), "{key}");
        }
    }

    #[test]
    #[should_panic(expected = "does not support the central-daemon scheduler")]
    fn partial_activation_capability_is_enforced() {
        let spec = ExperimentSpec::builder()
            .algorithm("luby")
            .scheduler(SchedulerSpec::CentralDaemon)
            .build();
        run_trial(&spec, 0);
    }

    #[test]
    #[should_panic(expected = "does not support fault injection")]
    fn fault_injection_capability_is_enforced() {
        let spec = ExperimentSpec::builder()
            .algorithm("greedy")
            .fault(FaultSpec::after_stabilization(0.5))
            .build();
        run_trial(&spec, 0);
    }

    #[test]
    #[should_panic(expected = "does not support topology changes")]
    fn topology_change_capability_is_enforced() {
        let spec = ExperimentSpec::builder()
            .algorithm("luby")
            .churn(ChurnSpec::after_stabilization(ChurnScenario::EdgeChurn {
                fraction: 0.05,
            }))
            .build();
        run_trial(&spec, 0);
    }

    #[test]
    fn fault_injection_recovers_and_notifies_observers() {
        let spec = ExperimentSpec::builder()
            .name("fault")
            .graph(GraphSpec::Gnp { n: 80, p: 0.08 })
            .fault(FaultSpec::after_stabilization(0.5))
            .trials(3)
            .base_seed(13)
            .build();
        let result = run_experiment(&spec);
        assert!(result.all_stabilized());
        assert!(result.all_valid());

        // Re-drive one trial manually with an event log to check the
        // observer protocol: a fault event, then re-stabilization.
        let mut rng = ChaCha8Rng::seed_from_u64(spec.base_seed);
        let graph = spec.graph.generate(&mut rng);
        let factory = builtin_registry().get(spec.algorithm_key()).unwrap();
        let config = AlgorithmConfig {
            init: spec.init,
            execution: spec.execution,
            strategy: spec.strategy,
            counter_seed: spec.base_seed ^ COUNTER_SEED_SALT,
        };
        let mut alg = factory.init(&graph, &config, &mut rng);
        let mut scheduler = spec.scheduler.build();
        let mut log = EventLogObserver::new();
        let outcome = {
            let mut observers: Vec<&mut dyn Observer> = vec![&mut log];
            drive_algorithm(
                alg.as_mut(),
                scheduler.as_mut(),
                &mut rng,
                spec.max_rounds,
                spec.fault.clone(),
                spec.churn,
                None,
                &mut observers,
            )
        };
        assert!(outcome.stabilized);
        let fault_at = log
            .events
            .iter()
            .position(|e| matches!(e, ObserverEvent::FaultInjection { .. }))
            .expect("a fault event");
        assert_eq!(
            log.events
                .iter()
                .filter(|e| matches!(e, ObserverEvent::FaultInjection { .. }))
                .count(),
            1
        );
        assert!(log.total_corrupted() > 0);
        assert!(log.stabilized_at().is_some());
        // The event right after the injection is the re-emitted current
        // round with the post-corruption counts: the unstable spike the
        // recovery curve starts from.
        match log.events[fault_at + 1] {
            ObserverEvent::Round { unstable, .. } => {
                assert!(unstable > 0, "corruption must destabilize some vertex")
            }
            other => panic!("expected a post-fault Round event, got {other:?}"),
        }
    }

    #[test]
    fn churn_recovers_to_a_valid_mis_on_the_mutated_graph() {
        for key in ["two-state", "three-state", "three-color"] {
            for scenario in [
                ChurnScenario::EdgeChurn { fraction: 0.05 },
                ChurnScenario::JoinLeave { join: 6, leave: 4 },
                ChurnScenario::RegionFailure { fraction: 0.1 },
            ] {
                let spec = ExperimentSpec::builder()
                    .name("churn")
                    .graph(GraphSpec::Gnp { n: 80, p: 0.08 })
                    .algorithm(key)
                    .churn(ChurnSpec::after_stabilization(scenario))
                    .trials(3)
                    .base_seed(17)
                    .build();
                let result = run_experiment(&spec);
                assert!(result.all_stabilized(), "{key} / {}", scenario.label());
                // all_valid checks the MIS against the *mutated* graph
                // (run_trial_on validates against current_graph()).
                assert!(result.all_valid(), "{key} / {}", scenario.label());
                if let ChurnScenario::JoinLeave { join, .. } = scenario {
                    for t in &result.trials {
                        assert_eq!(t.n, 80 + join, "reported n must be post-churn");
                    }
                }
            }
        }
    }

    #[test]
    fn churn_notifies_observers_and_compounds_over_bursts() {
        let spec = ExperimentSpec::builder()
            .name("churn-bursts")
            .graph(GraphSpec::Gnp { n: 80, p: 0.08 })
            .algorithm("two-state")
            .churn(
                ChurnSpec::after_stabilization(ChurnScenario::JoinLeave { join: 3, leave: 2 })
                    .bursts(3),
            )
            .trials(1)
            .base_seed(29)
            .build();
        // Run the whole experiment first: every burst must still end in a
        // valid MIS of the final topology.
        let result = run_experiment(&spec);
        assert!(result.all_stabilized());
        assert!(result.all_valid());
        assert_eq!(result.trials[0].n, 80 + 3 * 3, "three join waves compound");

        // Re-drive the trial with an event log to check the observer
        // protocol: three TopologyChange events, then re-stabilization.
        let mut rng = ChaCha8Rng::seed_from_u64(spec.base_seed);
        let graph = spec.graph.generate(&mut rng);
        let factory = builtin_registry().get(spec.algorithm_key()).unwrap();
        let config = AlgorithmConfig {
            init: spec.init,
            execution: spec.execution,
            strategy: spec.strategy,
            counter_seed: spec.base_seed ^ COUNTER_SEED_SALT,
        };
        let mut alg = factory.init(&graph, &config, &mut rng);
        let mut scheduler = spec.scheduler.build();
        let mut log = EventLogObserver::new();
        let outcome = {
            let mut observers: Vec<&mut dyn Observer> = vec![&mut log];
            drive_algorithm(
                alg.as_mut(),
                scheduler.as_mut(),
                &mut rng,
                spec.max_rounds,
                spec.fault.clone(),
                spec.churn,
                None,
                &mut observers,
            )
        };
        assert!(outcome.stabilized);
        let changes: Vec<_> = log
            .events
            .iter()
            .filter_map(|e| match e {
                ObserverEvent::TopologyChange { new_n, .. } => Some(*new_n),
                _ => None,
            })
            .collect();
        assert_eq!(
            changes,
            vec![83, 86, 89],
            "one event per burst, compounding"
        );
        assert_eq!(alg.current_graph().unwrap().n(), 89);
        assert!(mis_check::is_mis(
            alg.current_graph().unwrap(),
            &outcome.black_set
        ));
    }

    #[test]
    fn churn_trials_are_reproducible() {
        let spec = ExperimentSpec::builder()
            .name("churn-repro")
            .graph(GraphSpec::Gnp { n: 60, p: 0.08 })
            .algorithm("three-state")
            .churn(ChurnSpec::after_stabilization(ChurnScenario::EdgeChurn {
                fraction: 0.1,
            }))
            .trials(4)
            .base_seed(31)
            .build();
        let a = run_experiment(&spec);
        let b = run_experiment(&spec);
        assert_eq!(a, b);
    }

    #[test]
    fn byzantine_trials_contain_every_strategy_and_process() {
        use crate::spec::{ByzantineSpec, VictimSelection};
        use mis_core::ByzantineStrategy;
        for key in ["two-state", "three-state", "three-color"] {
            for strategy in ByzantineStrategy::all() {
                let spec = ExperimentSpec::builder()
                    .name("byzantine")
                    .graph(GraphSpec::Gnp { n: 80, p: 0.08 })
                    .algorithm(key)
                    .byzantine(
                        ByzantineSpec::new(strategy, VictimSelection::Random { count: 2 }).seed(5),
                    )
                    .trials(3)
                    .max_rounds(200_000)
                    .base_seed(19)
                    .build();
                let result = run_experiment(&spec);
                // `stabilized` here means contained (or fully stabilized);
                // `valid_mis` is the is_mis_outside check at radius 2.
                assert!(result.all_stabilized(), "{key} / {strategy}");
                assert!(result.all_valid(), "{key} / {strategy}");
            }
        }
    }

    #[test]
    fn byzantine_trials_are_reproducible() {
        use crate::spec::{ByzantineSpec, VictimSelection};
        use mis_core::ByzantineStrategy;
        let spec = ExperimentSpec::builder()
            .name("byzantine-repro")
            .graph(GraphSpec::Gnp { n: 60, p: 0.1 })
            .algorithm("three-state")
            .byzantine(ByzantineSpec::new(
                ByzantineStrategy::Flipper,
                VictimSelection::HighDegree { count: 2 },
            ))
            .trials(4)
            .base_seed(43)
            .build();
        let a = run_experiment(&spec);
        let b = run_experiment(&spec);
        assert_eq!(a, b);
    }

    #[test]
    fn byzantine_spec_does_not_shift_honest_rng_streams() {
        // The adversary is keyed by its own seed, so attaching it must not
        // change which coins the honest vertices draw: a trial with an
        // *empty* selection is bit-identical to a byzantine-free trial.
        use crate::spec::{ByzantineSpec, VictimSelection};
        use mis_core::ByzantineStrategy;
        let mut spec = base_spec("two-state");
        spec.trials = 3;
        let plain = run_experiment(&spec);
        spec.byzantine = Some(ByzantineSpec::new(
            ByzantineStrategy::Oscillator,
            VictimSelection::Targeted { ids: vec![] },
        ));
        let with_empty_adversary = run_experiment(&spec);
        assert_eq!(plain.trials, with_empty_adversary.trials);
    }

    #[test]
    #[should_panic(expected = "does not support Byzantine overrides")]
    fn byzantine_capability_is_enforced() {
        use crate::spec::{ByzantineSpec, VictimSelection};
        use mis_core::ByzantineStrategy;
        let spec = ExperimentSpec::builder()
            .algorithm("luby")
            .byzantine(ByzantineSpec::new(
                ByzantineStrategy::Frozen,
                VictimSelection::default(),
            ))
            .build();
        run_trial(&spec, 0);
    }

    #[test]
    fn byzantine_observer_protocol_reports_containment() {
        use mis_core::{ByzantineOverlay, ByzantineStrategy};
        let spec = ExperimentSpec::builder()
            .name("byzantine-observer")
            .graph(GraphSpec::Gnp { n: 80, p: 0.08 })
            .algorithm("two-state")
            .base_seed(59)
            .build();
        let mut rng = ChaCha8Rng::seed_from_u64(spec.base_seed);
        let graph = spec.graph.generate(&mut rng);
        let factory = builtin_registry().get(spec.algorithm_key()).unwrap();
        let config = AlgorithmConfig {
            init: spec.init,
            execution: spec.execution,
            strategy: spec.strategy,
            counter_seed: spec.base_seed ^ COUNTER_SEED_SALT,
        };
        let mut alg = factory.init(&graph, &config, &mut rng);
        let overlay = ByzantineOverlay::new(ByzantineStrategy::Oscillator, vec![0, 1], 7);
        let mut scheduler = spec.scheduler.build();
        let mut log = EventLogObserver::new();
        let outcome = {
            let mut observers: Vec<&mut dyn Observer> = vec![&mut log];
            drive_algorithm(
                alg.as_mut(),
                scheduler.as_mut(),
                &mut rng,
                spec.max_rounds,
                None,
                None,
                Some(&overlay),
                &mut observers,
            )
        };
        assert!(outcome.stabilized, "containment must terminate the trial");
        // One ByzantineRound verdict per executed round (including round 0).
        let verdicts: Vec<bool> = log
            .events
            .iter()
            .filter_map(|e| match e {
                ObserverEvent::ByzantineRound { contained, .. } => Some(*contained),
                _ => None,
            })
            .collect();
        assert_eq!(verdicts.len(), outcome.rounds + 1);
        assert!(
            verdicts
                .iter()
                .rev()
                .take(CONTAINMENT_CONFIRM_ROUNDS)
                .all(|&c| c),
            "the trial must end on a confirmed containment streak: {verdicts:?}"
        );
        assert!(log.first_contained_at().is_some());
        assert_eq!(log.stabilized_at(), Some(outcome.rounds));
        // The oscillator flips its vertices every round, so the exterior is
        // contained but the zone never goes quiet: the final set is an MIS
        // outside radius 2 of {0, 1}.
        assert!(mis_check::is_mis_outside(
            &graph,
            &outcome.black_set,
            &overlay.vertices(),
            CONTAINMENT_RADIUS
        ));
    }

    #[test]
    fn byzantine_with_churn_resamples_victims_and_stays_valid() {
        use crate::spec::{ByzantineSpec, ChurnSpec, VictimSelection};
        use mis_core::ByzantineStrategy;
        // JoinLeave detaches uniformly random vertices, so across trials
        // some adversarial vertices depart; with `resample(true)` the
        // adversary moves to fresh victims and the containment-aware MIS
        // check (which reads the *final* victim set) must still hold.
        let spec = ExperimentSpec::builder()
            .name("byzantine-churn")
            .graph(GraphSpec::Gnp { n: 80, p: 0.08 })
            .algorithm("two-state")
            .byzantine(
                ByzantineSpec::new(
                    ByzantineStrategy::Oscillator,
                    VictimSelection::Random { count: 4 },
                )
                .seed(13)
                .resample(true),
            )
            .churn(
                ChurnSpec::after_stabilization(ChurnScenario::JoinLeave { join: 4, leave: 24 })
                    .bursts(2),
            )
            .trials(4)
            .base_seed(23)
            .build();
        let result = run_experiment(&spec);
        assert!(result.all_stabilized(), "containment must terminate");
        assert!(result.all_valid(), "MIS-outside must hold per trial");

        // Byte-for-byte reproducibility with an adaptive adversary: the
        // re-sampling draws are keyed by the spec seed, not wall clock.
        let again = run_experiment(&spec);
        for (a, b) in result.trials.iter().zip(again.trials.iter()) {
            assert_eq!(a.rounds, b.rounds, "trial {} diverged", a.trial);
            assert_eq!(a.mis_size, b.mis_size, "trial {} diverged", a.trial);
            assert_eq!(a.random_bits, b.random_bits, "trial {} diverged", a.trial);
        }
    }

    #[test]
    fn targeted_faults_corrupt_exactly_the_victims() {
        let victims = vec![3, 11, 27];
        let spec = ExperimentSpec::builder()
            .name("targeted-fault")
            .graph(GraphSpec::Gnp { n: 60, p: 0.1 })
            .algorithm("two-state")
            .fault(FaultSpec::targeted(victims.clone()))
            .trials(2)
            .base_seed(37)
            .build();
        let result = run_experiment(&spec);
        assert!(result.all_stabilized());
        assert!(result.all_valid());

        // Re-drive one trial with an event log: the injection must report
        // at most |victims| changed vertices and still recover.
        let mut rng = ChaCha8Rng::seed_from_u64(spec.base_seed);
        let graph = spec.graph.generate(&mut rng);
        let factory = builtin_registry().get(spec.algorithm_key()).unwrap();
        let config = AlgorithmConfig {
            init: spec.init,
            execution: spec.execution,
            strategy: spec.strategy,
            counter_seed: spec.base_seed ^ COUNTER_SEED_SALT,
        };
        let mut alg = factory.init(&graph, &config, &mut rng);
        let mut scheduler = spec.scheduler.build();
        let mut log = EventLogObserver::new();
        let outcome = {
            let mut observers: Vec<&mut dyn Observer> = vec![&mut log];
            drive_algorithm(
                alg.as_mut(),
                scheduler.as_mut(),
                &mut rng,
                spec.max_rounds,
                spec.fault.clone(),
                None,
                None,
                &mut observers,
            )
        };
        assert!(outcome.stabilized);
        let corrupted = log.total_corrupted();
        assert!(
            corrupted <= victims.len(),
            "targeted fault touched {corrupted} > {} vertices",
            victims.len()
        );
        assert_eq!(
            log.events
                .iter()
                .filter(|e| matches!(e, ObserverEvent::FaultInjection { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn fault_fractions_zero_and_one_recover_through_the_driver() {
        // A fraction of 0 corrupts nothing and the run is over at once; a
        // total corruption of an all-white clique still recovers to an MIS.
        let mut setup = ChaCha8Rng::seed_from_u64(3);
        let tree = mis_graph::generators::random_tree(100, &mut setup);
        let clique = mis_graph::generators::complete(64);
        let cases = [
            (&tree, InitStrategy::Random, 0.0, 13),
            (&clique, InitStrategy::AllWhite, 1.0, 11),
        ];
        for (graph, init, fraction, seed) in cases {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let config = AlgorithmConfig {
                init,
                execution: ExecutionMode::Sequential,
                strategy: mis_core::RoundStrategy::Auto,
                counter_seed: seed,
            };
            let factory = builtin_registry().get("two-state").unwrap();
            let mut alg = factory.init(graph, &config, &mut rng);
            let mut log = EventLogObserver::new();
            let outcome = drive_algorithm(
                alg.as_mut(),
                &mut mis_core::Synchronous,
                &mut rng,
                200_000,
                Some(FaultSpec::after_stabilization(fraction)),
                None,
                None,
                &mut [&mut log],
            );
            let (round, corrupted) = log.first_fault().expect("the fault fires at stabilization");
            assert!(outcome.stabilized, "fraction {fraction}");
            assert!(mis_check::is_mis(graph, &outcome.black_set));
            if fraction == 0.0 {
                assert_eq!(corrupted, 0);
                assert_eq!(outcome.rounds, round, "no recovery rounds after no fault");
            } else {
                assert!(corrupted > 0 && corrupted <= graph.n());
            }
        }
    }
}
