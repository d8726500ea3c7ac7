//! The one object-safe [`Algorithm`] trait and the string-keyed
//! [`Registry`] behind the experiment harness.
//!
//! Everything the harness can run — the paper's three processes, the
//! weak-communication networks, and the baselines — implements
//! [`Algorithm`] directly, so schedulers, observers, fault injection, and
//! metric collection are written once and algorithms plug in by name:
//!
//! * [`Algorithm`] is a synchronous process with the per-round vertex
//!   partitions the paper's analysis reasons about, plus the hooks that
//!   really vary per type: a partial-activation step, targeted fault
//!   injection, Byzantine overrides, and topology mutation. A hook the type
//!   does not support panics at the call (mutation declines with
//!   [`MutationError::Unsupported`]).
//! * [`AlgorithmFactory`] is one registry entry: a key, a description, the
//!   [`CommunicationModel`], the declared [`Capabilities`], and the
//!   `init(graph, config, rng)` entry point that builds a boxed instance
//!   for one trial from an [`AlgorithmConfig`].
//! * [`Registry`] maps stable string keys (`"two-state"`,
//!   `"beeping-two-state"`, …) to factories. Crates register their
//!   algorithms (`mis_core::register_core_algorithms`, and the comm/baseline
//!   equivalents); the sim crate composes the builtin registry and resolves
//!   experiment specs through it.
//!
//! External algorithms join the harness by implementing [`Algorithm`] and
//! registering an [`AlgorithmFactory`] — no enum needs to grow.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use mis_graph::{CommittedDelta, Graph, GraphDelta, VertexId, VertexSet};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use crate::exec::{ExecutionMode, RoundStrategy};
use crate::init::InitStrategy;
use crate::mutation::MutationError;

/// The weakest communication model an algorithm's local rule needs.
///
/// Used by comparison tables and the `list_algorithms` tool; it does not
/// change how the simulation executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommunicationModel {
    /// The rule reads full neighbor states (shared-memory style simulation).
    FullStateExchange,
    /// One carrier bit per round: beep or listen, with sender collision
    /// detection (Cornejo & Kuhn 2010; Afek et al. 2013).
    Beeping,
    /// One letter from a constant alphabet per round, detecting only
    /// "no neighbor sent it" vs "some neighbor sent it"
    /// (Emek & Wattenhofer 2013).
    StoneAge,
    /// Θ(log n)-bit messages per round (Luby-style priorities).
    MessagePassing,
    /// Not distributed at all: a centralized or sequential algorithm.
    Centralized,
}

impl CommunicationModel {
    /// Short label for tables and CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            CommunicationModel::FullStateExchange => "full-state-exchange",
            CommunicationModel::Beeping => "beeping",
            CommunicationModel::StoneAge => "stone-age",
            CommunicationModel::MessagePassing => "message-passing",
            CommunicationModel::Centralized => "centralized",
        }
    }
}

impl fmt::Display for CommunicationModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned by [`Algorithm::run_to_stabilization`] when the algorithm
/// did not stabilize within the allowed number of rounds.
///
/// All processes in this workspace stabilize with probability 1, so hitting
/// this error in practice means either the round budget was too small for
/// the graph or the process is being run on an adversarially chosen budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StabilizationTimeout {
    /// Number of rounds executed before giving up.
    pub rounds_executed: usize,
}

impl fmt::Display for StabilizationTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "process did not stabilize within {} rounds",
            self.rounds_executed
        )
    }
}

impl Error for StabilizationTimeout {}

/// Per-round summary of the vertex partition maintained by a process, using
/// the notation of Section 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StateCounts {
    /// `|B_t|` — vertices currently black.
    pub black: usize,
    /// `|W_t|` (plus gray vertices in the 3-color process) — vertices not black.
    pub non_black: usize,
    /// `|A_t|` — active vertices (those that will re-randomize next round).
    pub active: usize,
    /// `|I_t|` — stable black vertices (black with no black neighbor).
    pub stable_black: usize,
    /// `|V_t|` — vertices that are not yet stable.
    pub unstable: usize,
}

/// Panics for a capability the algorithm does not have.
pub(crate) fn unsupported(capability: &str) -> ! {
    panic!("this algorithm does not support {capability}")
}

/// A synchronous, self-stabilizing MIS algorithm bound to one graph for one
/// trial: the object-safe seam between the harness and every
/// implementation (the harness holds a `Box<dyn Algorithm + 'g>`).
///
/// Implementations update all vertex states in parallel each
/// [`step`](Self::step) (Section 2 of the paper) and expose the evolving
/// vertex partitions that the analysis reasons about. An algorithm is
/// **stabilized** when every vertex is stable, at which point the set of
/// black vertices is a maximal independent set of the underlying graph and
/// no state changes any more.
///
/// The hooks — [`step_scheduled`](Self::step_scheduled), the fault and
/// Byzantine hooks, [`apply_mutation`](Self::apply_mutation) and
/// [`current_graph`](Self::current_graph) — are what varies per type. Which
/// of them a registry key supports is declared once, on its
/// [`AlgorithmFactory`] ([`Capabilities`]); an unsupported call panics
/// rather than silently doing nothing.
///
/// # Per-round complexity contract
///
/// The paper's processes are [`RuleProcess`](crate::RuleProcess)es, whose
/// round drivers run on the incremental [`engine`](crate::engine):
/// [`step`](Self::step) costs `O(|A_t| + vol(A_t))` — the number of
/// frontier vertices plus the degree sum of the vertices that changed —
/// **not** `O(n + m)`, and [`is_stabilized`](Self::is_stabilized) and
/// [`counts`](Self::counts) are `O(1)` reads of cached counters. Once a
/// region of the graph is quiet, no work happens there; a fully stabilized
/// 2-state instance steps in (near-)constant time. (A 3-color round adds
/// its logarithmic switch, a phase clock stepped incrementally: one coin
/// per level-5 vertex, the max rule at the vertices a level change may have
/// moved, the neighbor lists of the movers, and `n/64` bitset words, while
/// gray vertices wait off the frontier until their switch turns on. The
/// 3-state process keeps its stable black vertices alternating by
/// definition, so its steady state costs `O(|I_t| + vol(I_t))`.) The
/// set-returning accessors ([`black_set`](Self::black_set),
/// [`active_set`](Self::active_set), …) materialize a bitset and remain
/// `O(n)`. The weak-communication networks run their channel once per
/// round, `O(n + m)`.
pub trait Algorithm {
    /// Number of vertices of the underlying graph.
    fn n(&self) -> usize;

    /// Number of rounds executed so far (the `t` of the paper; 0 initially).
    /// One-shot baselines report the cost their run inside
    /// [`AlgorithmFactory::init`] already paid.
    fn round(&self) -> usize;

    /// Executes one synchronous round, updating every vertex in parallel.
    fn step(&mut self, rng: &mut dyn RngCore);

    /// Executes one round in which only the vertices of `scheduled` are
    /// activated (a partial-activation round under a non-synchronous
    /// scheduler); all other vertices keep their state. A full `scheduled`
    /// set draws exactly the coins of a sequential [`step`](Self::step).
    ///
    /// # Panics
    ///
    /// Panics if the algorithm does not support partial activation (the
    /// default), or if `scheduled.universe() != n`.
    fn step_scheduled(&mut self, scheduled: &VertexSet, rng: &mut dyn RngCore) {
        let _ = (scheduled, rng);
        unsupported("partial activation; use the synchronous scheduler")
    }

    /// Returns `true` if every vertex is stable (the black set is an MIS and
    /// no state will ever change again; for the 3-state process: no
    /// *blackness* will change again).
    fn is_stabilized(&self) -> bool;

    /// The current set of black vertices `B_t`.
    fn black_set(&self) -> VertexSet;

    /// The current set of active vertices `A_t` (vertices that will draw a
    /// random state in the next round).
    fn active_set(&self) -> VertexSet;

    /// The current set of stable black vertices `I_t` (black vertices with no
    /// black neighbor). `I_t` is always an independent set and a subset of
    /// the final MIS.
    fn stable_black_set(&self) -> VertexSet;

    /// The current set of non-stable vertices `V_t = V \ N⁺(I_t)`.
    fn unstable_set(&self) -> VertexSet;

    /// Aggregate counts of the current partition.
    fn counts(&self) -> StateCounts;

    /// Number of distinct states each vertex can be in (2, 3, or 18 for the
    /// processes of the paper; `usize::MAX` for baselines with
    /// super-constant state). This is the "few states" headline metric.
    fn states_per_vertex(&self) -> usize;

    /// Total number of random bits drawn so far across all vertices, used by
    /// the baseline-comparison experiments ("constant random bits per round").
    fn random_bits_used(&self) -> u64;

    /// Runs the algorithm until it stabilizes, executing at most
    /// `max_rounds` additional rounds.
    ///
    /// Returns the total number of rounds executed so far (i.e. the
    /// stabilization time when starting from round 0).
    ///
    /// # Errors
    ///
    /// Returns [`StabilizationTimeout`] if the algorithm has not stabilized
    /// after `max_rounds` additional rounds.
    fn run_to_stabilization(
        &mut self,
        rng: &mut dyn RngCore,
        max_rounds: usize,
    ) -> Result<usize, StabilizationTimeout> {
        for _ in 0..max_rounds {
            if self.is_stabilized() {
                return Ok(self.round());
            }
            self.step(rng);
        }
        if self.is_stabilized() {
            Ok(self.round())
        } else {
            Err(StabilizationTimeout {
                rounds_executed: self.round(),
            })
        }
    }

    /// Overwrites the memory of `ceil(fraction · n)` uniformly chosen
    /// vertices with uniformly random memory (a transient fault) and returns
    /// the number of vertices whose memory actually changed: the
    /// [`fault_victims`] sample, then
    /// [`inject_faults_targeted`](Self::inject_faults_targeted) on the same
    /// RNG stream. Not meant to be overridden.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`, or if the algorithm does not
    /// support fault injection.
    fn inject_faults(&mut self, fraction: f64, rng: &mut dyn RngCore) -> usize {
        let victims = fault_victims(self.n(), fraction, rng);
        self.inject_faults_targeted(&victims, rng)
    }

    /// Overwrites the memory of exactly the given `victims`, in order, with
    /// uniformly random memory (a *targeted* transient fault) and returns
    /// the number of vertices whose memory actually changed. Implementations
    /// go through [`corrupt`], so every algorithm shares one recipe and one
    /// RNG-stream shape.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm does not support fault injection (the
    /// default).
    fn inject_faults_targeted(&mut self, victims: &[VertexId], rng: &mut dyn RngCore) -> usize {
        let _ = (victims, rng);
        unsupported("fault injection")
    }

    /// Forces vertex `u`'s protocol-visible blackness to `black`,
    /// delta-repairing any incremental bookkeeping (frontier membership,
    /// black/black1 neighbor counters) exactly like the
    /// [`apply_mutation`](Self::apply_mutation) state-carryover path, and
    /// returns whether the memory actually changed. The vertex shows
    /// [`FaultState::displayed`] of its memory, so richer state (the 3-color
    /// switch level) is left untouched and the adversary controls exactly
    /// the blackness neighbors observe.
    ///
    /// This is the seam [`crate::byzantine::ByzantineOverlay`] drives after
    /// every round.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm does not support Byzantine overrides (the
    /// default).
    fn set_byzantine_state(&mut self, u: VertexId, black: bool) -> bool {
        let _ = (u, black);
        unsupported("Byzantine overrides")
    }

    /// Applies a batch of topology mutations (edge insert/delete, vertex
    /// join/leave) and incrementally re-derives all bookkeeping, so the
    /// algorithm **re-stabilizes from its current configuration** instead
    /// of restarting. Returns the normalized [`CommittedDelta`] (net edge
    /// changes, old/new vertex counts).
    ///
    /// # Errors
    ///
    /// [`MutationError::Unsupported`] if the algorithm cannot follow
    /// topology changes (the default); [`MutationError::Graph`] if the delta
    /// is invalid against the current graph. Either way the algorithm's
    /// state is unchanged.
    fn apply_mutation(&mut self, delta: &GraphDelta) -> Result<CommittedDelta, MutationError> {
        let _ = delta;
        Err(MutationError::Unsupported)
    }

    /// The graph the algorithm is currently running on, if it exposes one —
    /// after [`apply_mutation`](Self::apply_mutation) this is the *mutated*
    /// graph, which the harness needs for churn generation, Byzantine
    /// containment and final MIS validation. The default is `None` (the
    /// harness falls back to the trial's original graph).
    fn current_graph(&self) -> Option<&Graph> {
        None
    }
}

/// One vertex's memory as transient faults and Byzantine adversaries see
/// it. Each state family states both once, on its state type, and a direct
/// process and its weak-communication network share them.
pub trait FaultState: Copy + Eq {
    /// A uniformly random memory: what a transient fault leaves behind.
    fn random(rng: &mut dyn RngCore) -> Self;

    /// `self` with the blackness its neighbors observe forced to `black`:
    /// what a Byzantine vertex shows. Memory neighbors do not read as
    /// blackness (a switch level) is kept.
    fn displayed(self, black: bool) -> Self;
}

/// The one transient-fault recipe: overwrites each of `victims`, in order,
/// with a fresh [`FaultState::random`] memory through `replace` (which
/// writes the memory and returns the previous one), and returns how many
/// victims' memory actually changed.
pub fn corrupt<M: FaultState>(
    victims: &[VertexId],
    rng: &mut dyn RngCore,
    mut replace: impl FnMut(VertexId, M) -> M,
) -> usize {
    victims
        .iter()
        .filter(|&&u| {
            let memory = M::random(rng);
            replace(u, memory) != memory
        })
        .count()
}

/// What a registry key supports beyond synchronous rounds, declared once on
/// its [`AlgorithmFactory`]. The runner, the service's job worker and
/// `GET /v1/algorithms` read these flags; the instance's hooks agree with
/// them (an unsupported hook panics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Capabilities {
    /// [`Algorithm::apply_mutation`] follows topology changes.
    pub topology_change: bool,
    /// Rounds run in intra-round data-parallel phases under
    /// [`ExecutionMode::Parallel`], with counter-based coins
    /// (thread-count-invariant trajectories).
    pub parallel: bool,
    /// [`Algorithm::step_scheduled`] accepts a subset of the vertices.
    pub partial_activation: bool,
    /// [`Algorithm::inject_faults_targeted`] corrupts memory.
    pub fault_injection: bool,
    /// [`Algorithm::set_byzantine_state`] overrides memory, so the harness
    /// may attach a [`crate::byzantine::ByzantineOverlay`].
    pub byzantine: bool,
    /// Per-round [`Algorithm::counts`] traces are meaningful. One-shot
    /// baselines (greedy, Luby, the sequential self-stabilizing algorithm)
    /// run to completion inside their factory and declare `false`.
    pub trace: bool,
}

/// Per-trial construction parameters handed to an [`AlgorithmFactory`].
#[derive(Debug, Clone, Copy)]
pub struct AlgorithmConfig {
    /// Initial-state strategy (self-stabilizing algorithms accept any).
    pub init: InitStrategy,
    /// Sequential shared-stream rounds or counter-based parallel rounds.
    /// Algorithms that do not support parallel execution ignore this.
    pub execution: ExecutionMode,
    /// How full synchronous rounds traverse the graph (adaptive
    /// dense/sparse by default); bit-identical across choices. Algorithms
    /// without a frontier engine ignore this.
    pub strategy: RoundStrategy,
    /// Seed keying the counter-based RNG of parallel-mode runs.
    pub counter_seed: u64,
}

/// Builds one [`Algorithm`] instance on a graph for one trial.
pub type InitFn =
    for<'g> fn(&'g Graph, &AlgorithmConfig, &mut dyn RngCore) -> Box<dyn Algorithm + 'g>;

/// One registry entry: the key, its description and communication model,
/// what its instances support, and how to build one.
///
/// [`init`](Self::init) is the single entry point the harness calls per
/// trial; it may consume randomness (initial states, or even a whole run
/// for one-shot baselines), which is why it receives the trial RNG.
#[derive(Debug, Clone, Copy)]
pub struct AlgorithmFactory {
    key: &'static str,
    description: &'static str,
    model: CommunicationModel,
    capabilities: Capabilities,
    init: InitFn,
}

impl AlgorithmFactory {
    /// A registry entry under `key`.
    pub fn new(
        key: &'static str,
        description: &'static str,
        model: CommunicationModel,
        capabilities: Capabilities,
        init: InitFn,
    ) -> Self {
        AlgorithmFactory {
            key,
            description,
            model,
            capabilities,
            init,
        }
    }

    /// The stable registry key (also used in specs and CSV output).
    pub fn key(&self) -> &'static str {
        self.key
    }

    /// One-line human-readable description for `list_algorithms`.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// The weakest communication model the algorithm's rule needs.
    pub fn communication_model(&self) -> CommunicationModel {
        self.model
    }

    /// What the algorithm's instances support.
    pub fn capabilities(&self) -> Capabilities {
        self.capabilities
    }

    /// Creates one algorithm instance on `graph` for one trial.
    pub fn init<'g>(
        &self,
        graph: &'g Graph,
        config: &AlgorithmConfig,
        rng: &mut dyn RngCore,
    ) -> Box<dyn Algorithm + 'g> {
        (self.init)(graph, config, rng)
    }
}

/// A string-keyed collection of [`AlgorithmFactory`]s.
///
/// Keys are unique; registering a duplicate panics (it is always a
/// programming error). Iteration order is the lexicographic key order, so
/// listings and error messages are deterministic.
#[derive(Default)]
pub struct Registry {
    entries: BTreeMap<&'static str, AlgorithmFactory>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds a factory under its [`key`](AlgorithmFactory::key).
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered.
    pub fn register(&mut self, factory: AlgorithmFactory) {
        let key = factory.key();
        assert!(
            self.entries.insert(key, factory).is_none(),
            "algorithm key '{key}' registered twice"
        );
    }

    /// Looks up a factory by key.
    pub fn get(&self, key: &str) -> Option<&AlgorithmFactory> {
        self.entries.get(key)
    }

    /// `true` if `key` is registered.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// All registered keys, in lexicographic order.
    pub fn keys(&self) -> Vec<&'static str> {
        self.entries.keys().copied().collect()
    }

    /// All registered factories, in key order.
    pub fn factories(&self) -> impl Iterator<Item = &AlgorithmFactory> {
        self.entries.values()
    }

    /// Number of registered algorithms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no algorithm is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("keys", &self.keys())
            .finish()
    }
}

/// Picks `ceil(fraction · n)` distinct fault victims, uniformly at random
/// (uniform without replacement, via a partial Fisher–Yates shuffle that
/// costs `O(count)` swaps and draws rather than `O(n)`). Behind every
/// [`Algorithm::inject_faults`], so all algorithms corrupt the same number
/// of vertices for the same fraction.
///
/// # Panics
///
/// Panics if `fraction` is not in `[0, 1]`.
pub fn fault_victims(n: usize, fraction: f64, rng: &mut dyn RngCore) -> Vec<VertexId> {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be in [0, 1], got {fraction}"
    );
    let count = ((fraction * n as f64).ceil() as usize).min(n);
    victim_sample(n, count, rng)
}

/// Picks `min(count, n)` distinct vertices uniformly at random, via the
/// same partial Fisher–Yates shuffle as [`fault_victims`] (which delegates
/// here). Shared selection plumbing for count-based fault specs and
/// Byzantine vertex placement.
pub fn victim_sample(n: usize, count: usize, rng: &mut dyn RngCore) -> Vec<VertexId> {
    let count = count.min(n);
    let mut ids: Vec<VertexId> = (0..n).collect();
    for i in 0..count {
        let j = rng.gen_range(i..n);
        ids.swap(i, j);
    }
    ids.truncate(count);
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn dummy(key: &'static str) -> AlgorithmFactory {
        fn never<'g>(
            _graph: &'g Graph,
            _config: &AlgorithmConfig,
            _rng: &mut dyn RngCore,
        ) -> Box<dyn Algorithm + 'g> {
            unimplemented!("never constructed in these tests")
        }
        AlgorithmFactory::new(
            key,
            "dummy",
            CommunicationModel::Centralized,
            Capabilities::default(),
            never,
        )
    }

    #[test]
    fn registry_is_sorted_and_queryable() {
        let mut r = Registry::new();
        assert!(r.is_empty());
        r.register(dummy("zeta"));
        r.register(dummy("alpha"));
        assert_eq!(r.keys(), vec!["alpha", "zeta"]);
        assert_eq!(r.len(), 2);
        assert!(r.contains("alpha"));
        assert!(!r.contains("beta"));
        assert_eq!(r.get("zeta").unwrap().key(), "zeta");
        assert!(r.get("beta").is_none());
        assert_eq!(r.factories().count(), 2);
        assert!(format!("{r:?}").contains("alpha"));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_key_panics() {
        let mut r = Registry::new();
        r.register(dummy("a"));
        r.register(dummy("a"));
    }

    #[test]
    fn fault_victims_counts_and_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(fault_victims(10, 0.0, &mut rng).len(), 0);
        assert_eq!(fault_victims(10, 1.0, &mut rng).len(), 10);
        assert_eq!(fault_victims(10, 0.25, &mut rng).len(), 3); // ceil(2.5)
        let v = fault_victims(5, 0.5, &mut rng);
        assert!(v.iter().all(|&u| u < 5));
        let mut sorted = v.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), v.len(), "victims must be distinct");
    }

    #[test]
    fn victim_sample_counts_and_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert!(victim_sample(10, 0, &mut rng).is_empty());
        assert_eq!(victim_sample(10, 25, &mut rng).len(), 10, "count clamps");
        assert!(victim_sample(0, 5, &mut rng).is_empty());
        let v = victim_sample(20, 7, &mut rng);
        assert_eq!(v.len(), 7);
        assert!(v.iter().all(|&u| u < 20));
        let mut sorted = v.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), v.len(), "sample must be distinct");
    }

    #[test]
    fn fault_victims_delegates_to_victim_sample() {
        // Same seed, same count => identical RNG stream and selection.
        let mut a = ChaCha8Rng::seed_from_u64(11);
        let mut b = ChaCha8Rng::seed_from_u64(11);
        assert_eq!(
            fault_victims(40, 0.25, &mut a),
            victim_sample(40, 10, &mut b)
        );
        assert_eq!(a.next_u64(), b.next_u64(), "streams must stay aligned");
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0, 1]")]
    fn fault_victims_rejects_bad_fraction() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        fault_victims(4, -0.1, &mut rng);
    }

    #[test]
    fn communication_model_labels_are_distinct() {
        let labels: std::collections::HashSet<_> = [
            CommunicationModel::FullStateExchange,
            CommunicationModel::Beeping,
            CommunicationModel::StoneAge,
            CommunicationModel::MessagePassing,
            CommunicationModel::Centralized,
        ]
        .iter()
        .map(|m| m.label())
        .collect();
        assert_eq!(labels.len(), 5);
        assert_eq!(CommunicationModel::Beeping.to_string(), "beeping");
    }

    #[test]
    fn timeout_error_displays_round_count() {
        let e = StabilizationTimeout {
            rounds_executed: 42,
        };
        assert!(e.to_string().contains("42"));
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<StabilizationTimeout>();
    }

    #[test]
    fn state_counts_default_is_zero() {
        let c = StateCounts::default();
        assert_eq!(
            c.black + c.non_black + c.active + c.stable_black + c.unstable,
            0
        );
    }
}
