//! Declarative experiment specifications.
//!
//! A spec names an algorithm by registry key, a graph family, a
//! [`SchedulerSpec`], an optional [`FaultSpec`], and the trial/seed budget.
//! Build specs with [`ExperimentSpec::builder`]; the struct remains `pub`
//! and serde-stable for existing code and stored JSON (legacy JSON naming
//! an algorithm through the retired `ProcessSelector` enum's `process`
//! field still deserializes — the variant name maps onto its registry key).

use mis_core::init::InitStrategy;
use mis_core::scheduler::{CentralDaemon, RandomSubset, Scheduler, Synchronous};
use mis_core::victim_sample;
pub use mis_core::{ByzantineStrategy, ExecutionMode, RoundStrategy};
use mis_graph::{generators, Graph, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Which graph family a trial should generate.
///
/// Every variant corresponds to a family analyzed (or used as a hard case) in
/// the paper; random families are re-sampled per trial so that statements
/// "w.h.p. over `G(n,p)`" are exercised over both sources of randomness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GraphSpec {
    /// Erdős–Rényi `G(n,p)` (Theorems 2, 3).
    Gnp {
        /// Number of vertices.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// Complete graph `K_n` (Theorem 8).
    Complete {
        /// Number of vertices.
        n: usize,
    },
    /// Disjoint union of `count` cliques of size `size` (Remark 9).
    DisjointCliques {
        /// Number of cliques.
        count: usize,
        /// Vertices per clique.
        size: usize,
    },
    /// Uniformly random recursive tree (Theorem 11).
    RandomTree {
        /// Number of vertices.
        n: usize,
    },
    /// Path graph.
    Path {
        /// Number of vertices.
        n: usize,
    },
    /// Cycle graph.
    Cycle {
        /// Number of vertices.
        n: usize,
    },
    /// Star graph.
    Star {
        /// Number of vertices.
        n: usize,
    },
    /// Random `d`-regular graph (Theorem 12's `O(Δ log n)` bound).
    Regular {
        /// Number of vertices.
        n: usize,
        /// Degree of every vertex.
        d: usize,
    },
    /// 2-dimensional grid.
    Grid {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Union of random spanning forests — arboricity at most `forests`
    /// (Theorem 11).
    ForestUnion {
        /// Number of vertices.
        n: usize,
        /// Number of superimposed random forests.
        forests: usize,
    },
}

impl GraphSpec {
    /// `true` if the family is deterministic: generation ignores the RNG and
    /// always yields the same graph, so trials can share one instance (see
    /// `run_experiment`) instead of regenerating it per trial.
    pub fn is_deterministic(&self) -> bool {
        match self {
            GraphSpec::Complete { .. }
            | GraphSpec::DisjointCliques { .. }
            | GraphSpec::Path { .. }
            | GraphSpec::Cycle { .. }
            | GraphSpec::Star { .. }
            | GraphSpec::Grid { .. } => true,
            GraphSpec::Gnp { .. }
            | GraphSpec::RandomTree { .. }
            | GraphSpec::Regular { .. }
            | GraphSpec::ForestUnion { .. } => false,
        }
    }

    /// Generates a graph according to this specification.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid for the family (e.g. a regular
    /// graph with `n · d` odd).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Graph {
        match *self {
            GraphSpec::Gnp { n, p } => generators::gnp(n, p, rng),
            GraphSpec::Complete { n } => generators::complete(n),
            GraphSpec::DisjointCliques { count, size } => generators::disjoint_cliques(count, size),
            GraphSpec::RandomTree { n } => generators::random_tree(n, rng),
            GraphSpec::Path { n } => generators::path(n),
            GraphSpec::Cycle { n } => generators::cycle(n),
            GraphSpec::Star { n } => generators::star(n),
            GraphSpec::Regular { n, d } => {
                generators::regular(n, d, rng).expect("invalid regular graph parameters")
            }
            GraphSpec::Grid { rows, cols } => generators::grid(rows, cols),
            GraphSpec::ForestUnion { n, forests } => generators::forest_union(n, forests, rng),
        }
    }

    /// Number of vertices the generated graph will have.
    pub fn n(&self) -> usize {
        match *self {
            GraphSpec::Gnp { n, .. }
            | GraphSpec::RandomTree { n }
            | GraphSpec::Path { n }
            | GraphSpec::Cycle { n }
            | GraphSpec::Star { n }
            | GraphSpec::Regular { n, .. }
            | GraphSpec::ForestUnion { n, .. }
            | GraphSpec::Complete { n } => n,
            GraphSpec::DisjointCliques { count, size } => count * size,
            GraphSpec::Grid { rows, cols } => rows * cols,
        }
    }

    /// A short human-readable label for tables and CSV output.
    pub fn label(&self) -> String {
        match *self {
            GraphSpec::Gnp { n, p } => format!("gnp(n={n},p={p})"),
            GraphSpec::Complete { n } => format!("complete(n={n})"),
            GraphSpec::DisjointCliques { count, size } => {
                format!("cliques(count={count},size={size})")
            }
            GraphSpec::RandomTree { n } => format!("tree(n={n})"),
            GraphSpec::Path { n } => format!("path(n={n})"),
            GraphSpec::Cycle { n } => format!("cycle(n={n})"),
            GraphSpec::Star { n } => format!("star(n={n})"),
            GraphSpec::Regular { n, d } => format!("regular(n={n},d={d})"),
            GraphSpec::Grid { rows, cols } => format!("grid({rows}x{cols})"),
            GraphSpec::ForestUnion { n, forests } => format!("forests(n={n},k={forests})"),
        }
    }
}

/// Serializable scheduler choice; builds the [`Scheduler`] that drives each
/// trial.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum SchedulerSpec {
    /// Every vertex is activated every round (the paper's model, and the
    /// default — specs without a `scheduler` field deserialize to this).
    #[default]
    Synchronous,
    /// One uniformly random vertex per activation (central daemon; a
    /// "round" is one move).
    CentralDaemon,
    /// Every vertex independently activated with probability `p` per round.
    RandomSubset {
        /// Per-vertex activation probability.
        p: f64,
    },
}

impl SchedulerSpec {
    /// Builds the scheduler instance for one trial.
    ///
    /// # Panics
    ///
    /// Panics if a [`SchedulerSpec::RandomSubset`] probability is outside
    /// `[0, 1]`.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match *self {
            SchedulerSpec::Synchronous => Box::new(Synchronous),
            SchedulerSpec::CentralDaemon => Box::new(CentralDaemon),
            SchedulerSpec::RandomSubset { p } => Box::new(RandomSubset::new(p)),
        }
    }

    /// Short label for tables and CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerSpec::Synchronous => "synchronous",
            SchedulerSpec::CentralDaemon => "central-daemon",
            SchedulerSpec::RandomSubset { .. } => "random-subset",
        }
    }

    /// `true` for the synchronous scheduler.
    pub fn is_synchronous(&self) -> bool {
        matches!(self, SchedulerSpec::Synchronous)
    }
}

/// A transient fault injected during a trial: once the algorithm has
/// stabilized — or when round `at_round` is reached, whichever happens
/// first — vertex states are overwritten with uniformly random values, and
/// the trial keeps running until the algorithm re-stabilizes or the round
/// budget runs out.
///
/// Victims are either `fraction · n` uniformly random vertices (the
/// default) or, when [`victims`](Self::victims) is non-empty, exactly the
/// listed vertices — the targeted-fault mode sharing its selection plumbing
/// with [`ByzantineSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Latest round at which the fault fires (it fires earlier if the
    /// algorithm stabilizes first). Use `usize::MAX` for
    /// "after stabilization only".
    pub at_round: usize,
    /// Fraction of vertices to corrupt, in `[0, 1]`. Ignored when
    /// [`victims`](Self::victims) is non-empty.
    pub fraction: f64,
    /// Explicit victim list (targeted faults). Empty — the serde default,
    /// so pre-existing JSON parses unchanged — means "pick
    /// `ceil(fraction · n)` victims uniformly at random".
    pub victims: Vec<VertexId>,
}

impl FaultSpec {
    /// A fault that corrupts `fraction` of the vertices right after the
    /// algorithm first stabilizes (the standard recovery experiment).
    pub fn after_stabilization(fraction: f64) -> Self {
        FaultSpec {
            at_round: usize::MAX,
            fraction,
            victims: Vec::new(),
        }
    }

    /// A targeted fault that corrupts exactly `victims` right after the
    /// algorithm first stabilizes.
    pub fn targeted(victims: Vec<VertexId>) -> Self {
        FaultSpec {
            at_round: usize::MAX,
            fraction: 0.0,
            victims,
        }
    }

    /// Sets the round at which the fault fires at the latest.
    pub fn at_round(mut self, at_round: usize) -> Self {
        self.at_round = at_round;
        self
    }
}

impl Serialize for FaultSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("at_round".into(), self.at_round.to_value()),
            ("fraction".into(), self.fraction.to_value()),
            ("victims".into(), self.victims.to_value()),
        ])
    }
}

impl Deserialize for FaultSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        // `victims` defaults to empty (random-count mode) so fault specs
        // serialized before targeted faults existed keep parsing — the
        // vendored serde derive has no `#[serde(default)]`.
        fn field<'a>(value: &'a serde::Value, name: &str) -> Option<&'a serde::Value> {
            match value {
                serde::Value::Object(fields) => fields
                    .iter()
                    .find(|(key, _)| key == name)
                    .map(|(_, field)| field),
                _ => None,
            }
        }
        let victims = match field(value, "victims") {
            Some(v) => Deserialize::from_value(v)?,
            None => Vec::new(),
        };
        Ok(FaultSpec {
            at_round: Deserialize::from_value(serde::get_field(value, "at_round")?)?,
            fraction: Deserialize::from_value(serde::get_field(value, "fraction")?)?,
            victims,
        })
    }
}

/// What one churn burst does to the topology. Each variant is a dynamic-graph
/// scenario the re-stabilization experiments exercise; bursts are generated
/// by [`churn::generate_burst`](crate::churn::generate_burst) from the
/// algorithm's *current* graph, so repeated bursts compound.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChurnScenario {
    /// Poisson edge churn: `Poisson(fraction · m)` random existing edges are
    /// removed and an independently drawn `Poisson(fraction · m)` random
    /// non-edges are inserted.
    EdgeChurn {
        /// Expected fraction of the current edge count that churns, in each
        /// direction.
        fraction: f64,
    },
    /// A node arrival/departure wave: `join` new vertices arrive (each wired
    /// to roughly average-degree-many uniformly random existing vertices)
    /// and `leave` uniformly random existing vertices depart (all their
    /// edges are detached; ids are never reused).
    JoinLeave {
        /// Number of arriving vertices.
        join: usize,
        /// Number of departing vertices.
        leave: usize,
    },
    /// A correlated regional failure: a BFS-contiguous region of
    /// `ceil(fraction · n)` vertices goes silent (every incident edge is
    /// detached), modeling the loss of a rack or geographic zone rather than
    /// independent node failures.
    RegionFailure {
        /// Fraction of the vertices that fail together, in `[0, 1]`.
        fraction: f64,
    },
}

impl ChurnScenario {
    /// Short label for tables and CSV output.
    pub fn label(&self) -> String {
        match *self {
            ChurnScenario::EdgeChurn { fraction } => format!("edge-churn(f={fraction})"),
            ChurnScenario::JoinLeave { join, leave } => {
                format!("join-leave(join={join},leave={leave})")
            }
            ChurnScenario::RegionFailure { fraction } => format!("region-failure(f={fraction})"),
        }
    }
}

/// Topology churn injected during a trial: once the algorithm has stabilized
/// — or when round [`at_round`](Self::at_round) is reached, whichever comes
/// first — a burst generated from [`scenario`](Self::scenario) mutates the
/// live graph through [`Algorithm::apply_mutation`](mis_core::Algorithm),
/// and the trial keeps running until the algorithm re-stabilizes on the
/// mutated topology. With `bursts > 1`, each subsequent burst fires at the
/// next re-stabilization.
///
/// Requires an algorithm whose registry entry declares
/// [`topology_change`](mis_core::Capabilities::topology_change); the runner
/// rejects churn specs for the others up front.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// What each burst does to the topology.
    pub scenario: ChurnScenario,
    /// Latest round at which the first burst fires (it fires earlier if the
    /// algorithm stabilizes first). `usize::MAX` — the default — means
    /// "after stabilization only".
    pub at_round: usize,
    /// Number of bursts (default 1). Burst `i + 1` fires when the algorithm
    /// has re-stabilized after burst `i`.
    pub bursts: usize,
}

impl ChurnSpec {
    /// A single burst of `scenario` right after the algorithm first
    /// stabilizes — the standard re-stabilization experiment.
    pub fn after_stabilization(scenario: ChurnScenario) -> Self {
        ChurnSpec {
            scenario,
            at_round: usize::MAX,
            bursts: 1,
        }
    }

    /// Sets the round at which the first burst fires at the latest.
    pub fn at_round(mut self, at_round: usize) -> Self {
        self.at_round = at_round;
        self
    }

    /// Sets the number of bursts.
    pub fn bursts(mut self, bursts: usize) -> Self {
        self.bursts = bursts;
        self
    }
}

impl Serialize for ChurnSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("scenario".into(), self.scenario.to_value()),
            ("at_round".into(), self.at_round.to_value()),
            ("bursts".into(), self.bursts.to_value()),
        ])
    }
}

impl Deserialize for ChurnSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        // Only `scenario` is required: `at_round` and `bursts` fall back to
        // the `after_stabilization` defaults when absent (the vendored serde
        // derive has no `#[serde(default)]`, hence the manual impl).
        fn field<'a>(value: &'a serde::Value, name: &str) -> Option<&'a serde::Value> {
            match value {
                serde::Value::Object(fields) => fields
                    .iter()
                    .find(|(key, _)| key == name)
                    .map(|(_, field)| field),
                _ => None,
            }
        }
        let scenario = Deserialize::from_value(serde::get_field(value, "scenario")?)?;
        let at_round = match field(value, "at_round") {
            Some(v) => Deserialize::from_value(v)?,
            None => usize::MAX,
        };
        let bursts = match field(value, "bursts") {
            Some(v) => Deserialize::from_value(v)?,
            None => 1,
        };
        Ok(ChurnSpec {
            scenario,
            at_round,
            bursts,
        })
    }
}

/// How a fault/adversary campaign picks its victim vertices.
///
/// Shared between [`ByzantineSpec`] (which vertices are adversarial) and
/// targeted [`FaultSpec`]s built from a selection; all modes resolve to a
/// sorted, deduplicated id list via [`resolve`](Self::resolve).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum VictimSelection {
    /// `count` uniformly random vertices, drawn without replacement through
    /// the same partial Fisher–Yates plumbing as random-fraction faults
    /// ([`mis_core::victim_sample`]).
    Random {
        /// Number of victims.
        count: usize,
    },
    /// Exactly these vertex ids.
    Targeted {
        /// The victim ids (out-of-range ids are rejected at resolve time).
        ids: Vec<VertexId>,
    },
    /// The `count` highest-degree vertices — the hub-targeted placement
    /// that maximizes the blast radius of an adversary. Ties break toward
    /// smaller ids, so the selection is deterministic.
    HighDegree {
        /// Number of hubs.
        count: usize,
    },
}

impl Default for VictimSelection {
    /// One uniformly random victim.
    fn default() -> Self {
        VictimSelection::Random { count: 1 }
    }
}

impl VictimSelection {
    /// Short label for tables and JSON output.
    pub fn label(&self) -> String {
        match self {
            VictimSelection::Random { count } => format!("random(count={count})"),
            VictimSelection::Targeted { ids } => format!("targeted(|ids|={})", ids.len()),
            VictimSelection::HighDegree { count } => format!("high-degree(count={count})"),
        }
    }

    /// Resolves the selection against a concrete graph into a sorted,
    /// deduplicated victim list. Random selection is keyed by `seed` only
    /// (not by any trial RNG stream), so the same `(selection, graph, seed)`
    /// always yields the same victims.
    ///
    /// # Panics
    ///
    /// Panics if a targeted id is out of range for the graph.
    pub fn resolve(&self, graph: &Graph, seed: u64) -> Vec<VertexId> {
        let mut victims = match self {
            VictimSelection::Random { count } => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                victim_sample(graph.n(), *count, &mut rng)
            }
            VictimSelection::Targeted { ids } => {
                for &u in ids {
                    assert!(
                        u < graph.n(),
                        "targeted victim {u} out of range for a graph of {} vertices",
                        graph.n()
                    );
                }
                ids.clone()
            }
            VictimSelection::HighDegree { count } => {
                let mut by_degree: Vec<VertexId> = (0..graph.n()).collect();
                by_degree.sort_by_key(|&u| (std::cmp::Reverse(graph.degree(u)), u));
                by_degree.truncate((*count).min(graph.n()));
                by_degree
            }
        };
        victims.sort_unstable();
        victims.dedup();
        victims
    }
}

/// A Byzantine adversary attached to a trial: the selected vertices stop
/// obeying the protocol entirely and instead follow
/// [`strategy`](Self::strategy) every round, from round 0 until the end of
/// the trial (see [`mis_core::byzantine`]).
///
/// Requires an algorithm whose registry entry declares
/// [`byzantine`](mis_core::Capabilities::byzantine); the runner rejects the
/// spec for the others up front. Trials
/// terminate on *containment* (stabilization outside the 2-neighborhood of
/// the Byzantine set) instead of global stabilization.
#[derive(Debug, Clone, PartialEq)]
pub struct ByzantineSpec {
    /// Which adversary the selected vertices run.
    pub strategy: ByzantineStrategy,
    /// Which vertices are adversarial. Defaults to one random vertex.
    pub selection: VictimSelection,
    /// Seed keying both the victim selection and any strategy randomness;
    /// trial `i` uses `seed + i`, so trials see independent adversaries.
    /// Defaults to 0.
    pub seed: u64,
    /// Under churn, whether the adversary replaces victims that leave the
    /// graph with fresh ones (an *adaptive* adversary). Without churn this
    /// has no effect. Defaults to `false`.
    pub resample: bool,
}

impl ByzantineSpec {
    /// An adversary running `strategy` on the vertices of `selection`.
    pub fn new(strategy: ByzantineStrategy, selection: VictimSelection) -> Self {
        ByzantineSpec {
            strategy,
            selection,
            seed: 0,
            resample: false,
        }
    }

    /// Sets the selection/strategy seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Makes the adversary adaptive under churn: departed victims are
    /// replaced by fresh draws from the surviving population.
    pub fn resample(mut self, resample: bool) -> Self {
        self.resample = resample;
        self
    }
}

impl Serialize for ByzantineSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("strategy".into(), self.strategy.to_value()),
            ("selection".into(), self.selection.to_value()),
            ("seed".into(), self.seed.to_value()),
            ("resample".into(), self.resample.to_value()),
        ])
    }
}

impl Deserialize for ByzantineSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        // Only `strategy` is required; `selection` and `seed` fall back to
        // their defaults (the vendored serde derive has no
        // `#[serde(default)]`, hence the manual impl).
        fn field<'a>(value: &'a serde::Value, name: &str) -> Option<&'a serde::Value> {
            match value {
                serde::Value::Object(fields) => fields
                    .iter()
                    .find(|(key, _)| key == name)
                    .map(|(_, field)| field),
                _ => None,
            }
        }
        let selection = match field(value, "selection") {
            Some(v) => Deserialize::from_value(v)?,
            None => VictimSelection::default(),
        };
        let seed = match field(value, "seed") {
            Some(v) => Deserialize::from_value(v)?,
            None => 0,
        };
        let resample = match field(value, "resample") {
            Some(v) => Deserialize::from_value(v)?,
            None => false,
        };
        Ok(ByzantineSpec {
            strategy: Deserialize::from_value(serde::get_field(value, "strategy")?)?,
            selection,
            seed,
            resample,
        })
    }
}

/// Maps a variant name of the retired `ProcessSelector` enum onto the
/// registry key it always resolved to, so JSON written before the enum was
/// removed (`"process": "TwoState"`) keeps deserializing unchanged.
fn legacy_process_registry_key(variant: &str) -> Option<&'static str> {
    Some(match variant {
        "TwoState" => "two-state",
        "ThreeState" => "three-state",
        "ThreeColor" => "three-color",
        "Luby" => "luby",
        "RandomPriority" => "random-priority",
        "Greedy" => "greedy",
        "SequentialSelfStab" => "sequential-selfstab",
        _ => return None,
    })
}

/// A full experiment: an algorithm, a graph family, a scheduler, an
/// initialization, and a trial/seed budget.
///
/// Prefer [`ExperimentSpec::builder`] for construction; the struct literal
/// form remains available for the legacy field set.
///
/// Serialization is hand-written (the vendored serde derive has no
/// `#[serde(default)]`): the [`scheduler`](Self::scheduler),
/// [`fault`](Self::fault), and related post-redesign fields fall back to
/// their defaults when absent, and a legacy `process` field (the retired
/// `ProcessSelector` enum, serialized as its variant name) still resolves
/// to the matching [`algorithm`](Self::algorithm) registry key — so JSON
/// written before the registry redesign deserializes unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Name used in reports and file names.
    pub name: String,
    /// Graph family to sample per trial.
    pub graph: GraphSpec,
    /// Registry key of the algorithm to run (e.g. `"two-state"`,
    /// `"beeping-two-state"`); the stable names under which factories are
    /// registered in [`builtin_registry`](crate::registry::builtin_registry).
    pub algorithm: String,
    /// Initial-state strategy (ignored by baselines that choose their own
    /// starting configuration, like Luby and random-priority).
    pub init: InitStrategy,
    /// How the engine processes execute rounds: the sequential shared-stream
    /// model or counter-based intra-round parallelism. Algorithms without
    /// parallel support ignore this field.
    pub execution: ExecutionMode,
    /// How full synchronous rounds traverse the graph: adaptive dense/sparse
    /// direction optimization (`auto`, the serde default), or one path
    /// forced (`sparse` / `dense`). Bit-identical across choices; algorithms
    /// without a frontier engine ignore it.
    pub strategy: RoundStrategy,
    /// Which vertices each round activates. Defaults to
    /// [`SchedulerSpec::Synchronous`], the paper's model; anything else
    /// requires the algorithm to support partial activation.
    pub scheduler: SchedulerSpec,
    /// Optional transient fault injected mid-trial (requires the algorithm
    /// to support fault injection).
    pub fault: Option<FaultSpec>,
    /// Optional topology churn injected mid-trial (requires the algorithm
    /// to support topology changes). `None` — the serde default — keeps
    /// pre-churn specs bit-identical.
    pub churn: Option<ChurnSpec>,
    /// Optional Byzantine adversary active for the whole trial (requires
    /// the algorithm to support Byzantine overrides). `None` — the serde
    /// default — keeps pre-Byzantine specs bit-identical.
    pub byzantine: Option<ByzantineSpec>,
    /// Number of independent trials.
    pub trials: usize,
    /// Per-trial round budget.
    pub max_rounds: usize,
    /// Base seed; trial `i` uses seed `base_seed + i`.
    pub base_seed: u64,
    /// Whether to record per-round traces (memory-heavy for large runs;
    /// ignored by one-shot baselines, which have no rounds to trace).
    pub record_trace: bool,
}

impl Default for ExperimentSpec {
    /// A small, fast default: the 2-state process on a sparse 100-vertex
    /// `G(n,p)`, one trial, synchronous scheduler.
    fn default() -> Self {
        ExperimentSpec {
            name: "experiment".into(),
            graph: GraphSpec::Gnp { n: 100, p: 0.05 },
            algorithm: "two-state".into(),
            init: InitStrategy::Random,
            execution: ExecutionMode::Sequential,
            strategy: RoundStrategy::Auto,
            scheduler: SchedulerSpec::Synchronous,
            fault: None,
            churn: None,
            byzantine: None,
            trials: 1,
            max_rounds: 100_000,
            base_seed: 0,
            record_trace: false,
        }
    }
}

impl Serialize for ExperimentSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("name".into(), self.name.to_value()),
            ("graph".into(), self.graph.to_value()),
            ("algorithm".into(), self.algorithm.to_value()),
            ("init".into(), self.init.to_value()),
            ("execution".into(), self.execution.to_value()),
            ("strategy".into(), self.strategy.to_value()),
            ("scheduler".into(), self.scheduler.to_value()),
            ("fault".into(), self.fault.to_value()),
            ("churn".into(), self.churn.to_value()),
            ("byzantine".into(), self.byzantine.to_value()),
            ("trials".into(), self.trials.to_value()),
            ("max_rounds".into(), self.max_rounds.to_value()),
            ("base_seed".into(), self.base_seed.to_value()),
            ("record_trace".into(), self.record_trace.to_value()),
        ])
    }
}

impl Deserialize for ExperimentSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        // The post-redesign fields (`algorithm`, `scheduler`, `fault`) fall
        // back to their defaults when absent so that specs serialized before
        // the registry redesign keep deserializing — the vendored serde
        // derive has no `#[serde(default)]`, hence the manual impl.
        fn optional<'a>(value: &'a serde::Value, name: &str) -> Option<&'a serde::Value> {
            match value {
                serde::Value::Object(fields) => fields
                    .iter()
                    .find(|(key, _)| key == name)
                    .map(|(_, field)| field),
                _ => None,
            }
        }
        fn with_default<T: Deserialize + Default>(
            value: &serde::Value,
            name: &str,
        ) -> Result<T, serde::Error> {
            match optional(value, name) {
                Some(field) => T::from_value(field),
                None => Ok(T::default()),
            }
        }
        // Registry-first specs carry the key in `algorithm`; specs written
        // while the retired `ProcessSelector` enum existed carry a
        // `process` variant name instead (possibly next to an explicit
        // `"algorithm": null`). The explicit key wins; the variant name
        // maps onto its registry key; with neither the spec names no
        // algorithm at all.
        let algorithm: String = match optional(value, "algorithm") {
            Some(field) if !matches!(field, serde::Value::Null) => Deserialize::from_value(field)?,
            _ => match optional(value, "process") {
                Some(field) => {
                    let variant: String = Deserialize::from_value(field)?;
                    legacy_process_registry_key(&variant)
                        .ok_or_else(|| {
                            serde::Error::custom(format!(
                                "unknown legacy process selector '{variant}'"
                            ))
                        })?
                        .to_string()
                }
                None => {
                    return Err(serde::Error::custom(
                        "spec names no algorithm (missing field `algorithm`)",
                    ))
                }
            },
        };
        Ok(ExperimentSpec {
            name: Deserialize::from_value(serde::get_field(value, "name")?)?,
            graph: Deserialize::from_value(serde::get_field(value, "graph")?)?,
            algorithm,
            init: Deserialize::from_value(serde::get_field(value, "init")?)?,
            execution: {
                let execution: ExecutionMode =
                    Deserialize::from_value(serde::get_field(value, "execution")?)?;
                execution.validate().map_err(serde::Error::custom)?;
                execution
            },
            strategy: with_default(value, "strategy")?,
            scheduler: with_default(value, "scheduler")?,
            fault: with_default(value, "fault")?,
            churn: with_default(value, "churn")?,
            byzantine: with_default(value, "byzantine")?,
            trials: Deserialize::from_value(serde::get_field(value, "trials")?)?,
            max_rounds: Deserialize::from_value(serde::get_field(value, "max_rounds")?)?,
            base_seed: Deserialize::from_value(serde::get_field(value, "base_seed")?)?,
            record_trace: Deserialize::from_value(serde::get_field(value, "record_trace")?)?,
        })
    }
}

impl ExperimentSpec {
    /// Starts building a spec from the defaults.
    pub fn builder() -> ExperimentSpecBuilder {
        ExperimentSpecBuilder::default()
    }

    /// The registry key this spec resolves to — a convenience alias for
    /// [`algorithm`](Self::algorithm) kept for the many call sites written
    /// while the key was still computed from a legacy selector.
    pub fn algorithm_key(&self) -> &str {
        &self.algorithm
    }
}

/// Builder for [`ExperimentSpec`]; obtain one via
/// [`ExperimentSpec::builder`].
///
/// ```
/// use mis_sim::spec::{ExperimentSpec, GraphSpec, SchedulerSpec};
///
/// let spec = ExperimentSpec::builder()
///     .name("beeping-demo")
///     .graph(GraphSpec::Complete { n: 32 })
///     .algorithm("beeping-two-state")
///     .trials(4)
///     .base_seed(7)
///     .build();
/// assert_eq!(spec.algorithm_key(), "beeping-two-state");
/// assert_eq!(spec.scheduler, SchedulerSpec::Synchronous);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExperimentSpecBuilder {
    spec: ExperimentSpec,
}

impl ExperimentSpecBuilder {
    /// Sets the experiment name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.spec.name = name.into();
        self
    }

    /// Sets the graph family.
    pub fn graph(mut self, graph: GraphSpec) -> Self {
        self.spec.graph = graph;
        self
    }

    /// Selects the algorithm by registry key.
    pub fn algorithm(mut self, key: impl Into<String>) -> Self {
        self.spec.algorithm = key.into();
        self
    }

    /// Sets the initial-state strategy.
    pub fn init(mut self, init: InitStrategy) -> Self {
        self.spec.init = init;
        self
    }

    /// Sets the execution mode of the engine processes.
    pub fn execution(mut self, execution: ExecutionMode) -> Self {
        self.spec.execution = execution;
        self
    }

    /// Sets the round strategy (adaptive dense/sparse by default).
    pub fn strategy(mut self, strategy: RoundStrategy) -> Self {
        self.spec.strategy = strategy;
        self
    }

    /// Sets the activation scheduler.
    pub fn scheduler(mut self, scheduler: SchedulerSpec) -> Self {
        self.spec.scheduler = scheduler;
        self
    }

    /// Injects a transient fault mid-trial.
    pub fn fault(mut self, fault: FaultSpec) -> Self {
        self.spec.fault = Some(fault);
        self
    }

    /// Injects topology churn mid-trial.
    pub fn churn(mut self, churn: ChurnSpec) -> Self {
        self.spec.churn = Some(churn);
        self
    }

    /// Attaches a Byzantine adversary to every trial.
    pub fn byzantine(mut self, byzantine: ByzantineSpec) -> Self {
        self.spec.byzantine = Some(byzantine);
        self
    }

    /// Sets the number of independent trials.
    pub fn trials(mut self, trials: usize) -> Self {
        self.spec.trials = trials;
        self
    }

    /// Sets the per-trial round budget.
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.spec.max_rounds = max_rounds;
        self
    }

    /// Sets the base seed.
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.spec.base_seed = base_seed;
        self
    }

    /// Enables per-round trace recording.
    pub fn record_trace(mut self, record_trace: bool) -> Self {
        self.spec.record_trace = record_trace;
        self
    }

    /// Finishes the spec.
    pub fn build(self) -> ExperimentSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn graph_spec_generates_expected_sizes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let specs = [
            GraphSpec::Gnp { n: 30, p: 0.1 },
            GraphSpec::Complete { n: 12 },
            GraphSpec::DisjointCliques { count: 3, size: 4 },
            GraphSpec::RandomTree { n: 25 },
            GraphSpec::Path { n: 9 },
            GraphSpec::Cycle { n: 8 },
            GraphSpec::Star { n: 7 },
            GraphSpec::Regular { n: 10, d: 4 },
            GraphSpec::Grid { rows: 3, cols: 5 },
            GraphSpec::ForestUnion { n: 20, forests: 2 },
        ];
        for spec in specs {
            let g = spec.generate(&mut rng);
            assert_eq!(g.n(), spec.n(), "{}", spec.label());
            assert!(!spec.label().is_empty());
        }
    }

    #[test]
    fn legacy_process_variant_names_map_onto_distinct_registry_keys() {
        let variants = [
            "TwoState",
            "ThreeState",
            "ThreeColor",
            "Luby",
            "RandomPriority",
            "Greedy",
            "SequentialSelfStab",
        ];
        let keys: std::collections::HashSet<_> = variants
            .iter()
            .map(|v| legacy_process_registry_key(v).expect(v))
            .collect();
        assert_eq!(keys.len(), variants.len());
        assert_eq!(legacy_process_registry_key("BeepingTwoState"), None);
    }

    #[test]
    fn spec_round_trips_through_json() {
        for execution in [
            ExecutionMode::Sequential,
            ExecutionMode::Parallel { threads: 8 },
        ] {
            let spec = ExperimentSpec {
                name: "test".into(),
                graph: GraphSpec::Gnp { n: 10, p: 0.5 },
                algorithm: "three-color".into(),
                init: InitStrategy::Random,
                execution,
                strategy: RoundStrategy::Dense,
                scheduler: SchedulerSpec::Synchronous,
                fault: None,
                churn: Some(ChurnSpec::after_stabilization(ChurnScenario::EdgeChurn {
                    fraction: 0.01,
                })),
                byzantine: Some(ByzantineSpec::new(
                    ByzantineStrategy::Flipper,
                    VictimSelection::HighDegree { count: 3 },
                )),
                trials: 3,
                max_rounds: 100,
                base_seed: 1,
                record_trace: true,
            };
            let json = serde_json::to_string(&spec).unwrap();
            let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back);
        }
    }

    #[test]
    fn absurd_thread_counts_are_rejected_at_parse_time() {
        let spec = ExperimentSpec {
            execution: ExecutionMode::Parallel { threads: 8 },
            ..ExperimentSpec::default()
        };
        let json = serde_json::to_string(&spec)
            .unwrap()
            .replace("\"threads\":8", "\"threads\":1000000");
        let err = serde_json::from_str::<ExperimentSpec>(&json).unwrap_err();
        assert!(
            err.to_string().contains("exceeds"),
            "unexpected message: {err}"
        );
        // `threads: 0` is the documented auto-detect knob, not an error.
        let auto = json.replace("\"threads\":1000000", "\"threads\":0");
        let back: ExperimentSpec = serde_json::from_str(&auto).unwrap();
        assert_eq!(back.execution, ExecutionMode::Parallel { threads: 0 });
    }

    #[test]
    fn deterministic_families_are_flagged() {
        assert!(GraphSpec::Complete { n: 4 }.is_deterministic());
        assert!(GraphSpec::Path { n: 4 }.is_deterministic());
        assert!(GraphSpec::Grid { rows: 2, cols: 2 }.is_deterministic());
        assert!(!GraphSpec::Gnp { n: 4, p: 0.5 }.is_deterministic());
        assert!(!GraphSpec::RandomTree { n: 4 }.is_deterministic());
    }

    /// One representative instance per [`GraphSpec`] variant, built through
    /// an exhaustive `match` (no wildcard arm): adding a variant without
    /// extending this list is a compile error, which forces the author to
    /// also classify the variant in `is_deterministic`.
    fn one_of_each_family() -> Vec<GraphSpec> {
        // Dispatch on a representative to keep the match exhaustive.
        fn witness(spec: GraphSpec) -> GraphSpec {
            match spec {
                GraphSpec::Gnp { .. }
                | GraphSpec::Complete { .. }
                | GraphSpec::DisjointCliques { .. }
                | GraphSpec::RandomTree { .. }
                | GraphSpec::Path { .. }
                | GraphSpec::Cycle { .. }
                | GraphSpec::Star { .. }
                | GraphSpec::Regular { .. }
                | GraphSpec::Grid { .. }
                | GraphSpec::ForestUnion { .. } => spec,
            }
        }
        vec![
            witness(GraphSpec::Gnp { n: 24, p: 0.2 }),
            witness(GraphSpec::Complete { n: 9 }),
            witness(GraphSpec::DisjointCliques { count: 3, size: 3 }),
            witness(GraphSpec::RandomTree { n: 16 }),
            witness(GraphSpec::Path { n: 11 }),
            witness(GraphSpec::Cycle { n: 12 }),
            witness(GraphSpec::Star { n: 8 }),
            witness(GraphSpec::Regular { n: 12, d: 4 }),
            witness(GraphSpec::Grid { rows: 3, cols: 4 }),
            witness(GraphSpec::ForestUnion { n: 16, forests: 2 }),
        ]
    }

    /// `is_deterministic` must agree with observed generator behavior for
    /// *every* variant: a family is deterministic iff generating with two
    /// different RNG streams yields the same graph.
    #[test]
    fn is_deterministic_matches_generator_behavior_for_every_family() {
        for spec in one_of_each_family() {
            let mut rng_a = ChaCha8Rng::seed_from_u64(1);
            let mut rng_b = ChaCha8Rng::seed_from_u64(2);
            let same = spec.generate(&mut rng_a) == spec.generate(&mut rng_b);
            assert_eq!(
                spec.is_deterministic(),
                same,
                "{}: is_deterministic() = {}, but generating with two seeds {} identical graphs",
                spec.label(),
                spec.is_deterministic(),
                if same { "yields" } else { "does not yield" }
            );
        }
    }

    #[test]
    fn scheduler_spec_builds_and_labels() {
        assert_eq!(SchedulerSpec::default(), SchedulerSpec::Synchronous);
        assert!(SchedulerSpec::Synchronous.is_synchronous());
        assert!(!SchedulerSpec::CentralDaemon.is_synchronous());
        for (spec, label) in [
            (SchedulerSpec::Synchronous, "synchronous"),
            (SchedulerSpec::CentralDaemon, "central-daemon"),
            (SchedulerSpec::RandomSubset { p: 0.3 }, "random-subset"),
        ] {
            assert_eq!(spec.label(), label);
            assert_eq!(spec.build().label(), label);
        }
    }

    #[test]
    fn builder_produces_defaults_and_overrides() {
        let default = ExperimentSpec::builder().build();
        assert_eq!(default, ExperimentSpec::default());
        assert_eq!(default.algorithm_key(), "two-state");

        let spec = ExperimentSpec::builder()
            .name("custom")
            .graph(GraphSpec::Complete { n: 8 })
            .algorithm("beeping-two-state")
            .init(InitStrategy::AllBlack)
            .execution(ExecutionMode::Parallel { threads: 2 })
            .scheduler(SchedulerSpec::RandomSubset { p: 0.5 })
            .fault(FaultSpec::after_stabilization(0.25))
            .trials(9)
            .max_rounds(500)
            .base_seed(3)
            .record_trace(true)
            .build();
        assert_eq!(spec.name, "custom");
        assert_eq!(spec.algorithm_key(), "beeping-two-state");
        assert_eq!(spec.trials, 9);
        assert_eq!(spec.fault.unwrap().at_round, usize::MAX);
        // The last key set wins.
        let back = ExperimentSpec::builder()
            .algorithm("beeping-two-state")
            .algorithm("luby")
            .build();
        assert_eq!(back.algorithm_key(), "luby");
    }

    #[test]
    fn churn_spec_fields_default_when_absent() {
        // A spec written with only the scenario must parse with the
        // after-stabilization defaults.
        let json = r#"{"scenario":{"EdgeChurn":{"fraction":0.05}}}"#;
        let churn: ChurnSpec = serde_json::from_str(json).unwrap();
        assert_eq!(
            churn,
            ChurnSpec::after_stabilization(ChurnScenario::EdgeChurn { fraction: 0.05 })
        );
        assert_eq!(churn.at_round, usize::MAX);
        assert_eq!(churn.bursts, 1);
    }

    #[test]
    fn byzantine_spec_fields_default_when_absent() {
        // A spec written with only the strategy must parse with the
        // one-random-victim / seed-0 defaults.
        let json = r#"{"strategy":"Oscillator"}"#;
        let byz: ByzantineSpec = serde_json::from_str(json).unwrap();
        assert_eq!(byz.strategy, ByzantineStrategy::Oscillator);
        assert_eq!(byz.selection, VictimSelection::Random { count: 1 });
        assert_eq!(byz.seed, 0);
        // Full round trip.
        let full = ByzantineSpec::new(
            ByzantineStrategy::Spoofer,
            VictimSelection::Targeted { ids: vec![3, 1] },
        )
        .seed(42);
        let back: ByzantineSpec =
            serde_json::from_str(&serde_json::to_string(&full).unwrap()).unwrap();
        assert_eq!(back, full);
    }

    #[test]
    fn fault_spec_victims_default_when_absent() {
        // A fault spec serialized before targeted victims existed must
        // parse in random-count mode.
        let json = r#"{"at_round":50,"fraction":0.25}"#;
        let fault: FaultSpec = serde_json::from_str(json).unwrap();
        assert_eq!(fault.at_round, 50);
        assert_eq!(fault.fraction, 0.25);
        assert!(fault.victims.is_empty());
        let targeted = FaultSpec::targeted(vec![5, 9]).at_round(12);
        let back: FaultSpec =
            serde_json::from_str(&serde_json::to_string(&targeted).unwrap()).unwrap();
        assert_eq!(back, targeted);
    }

    #[test]
    fn victim_selection_resolves_deterministically() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = generators::gnp(50, 0.1, &mut rng);
        let random = VictimSelection::Random { count: 5 };
        let a = random.resolve(&g, 7);
        assert_eq!(a, random.resolve(&g, 7), "same seed, same victims");
        assert_ne!(a, random.resolve(&g, 8), "seed must matter");
        assert_eq!(a.len(), 5);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");

        let targeted = VictimSelection::Targeted {
            ids: vec![9, 2, 9, 4],
        };
        assert_eq!(targeted.resolve(&g, 0), vec![2, 4, 9]);

        let hubs = VictimSelection::HighDegree { count: 3 }.resolve(&g, 0);
        assert_eq!(hubs.len(), 3);
        let min_hub_degree = hubs.iter().map(|&u| g.degree(u)).min().unwrap();
        for u in g.vertices() {
            if !hubs.contains(&u) {
                assert!(
                    g.degree(u) <= min_hub_degree,
                    "vertex {u} out-degrees a selected hub"
                );
            }
        }
        // Labels are distinct and serde round-trips.
        for sel in [
            random,
            targeted,
            VictimSelection::HighDegree { count: 3 },
            VictimSelection::default(),
        ] {
            let back: VictimSelection =
                serde_json::from_str(&serde_json::to_string(&sel).unwrap()).unwrap();
            assert_eq!(back, sel);
            assert!(!sel.label().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn targeted_selection_rejects_out_of_range_ids() {
        let g = generators::complete(4);
        VictimSelection::Targeted { ids: vec![4] }.resolve(&g, 0);
    }

    #[test]
    fn pre_byzantine_spec_json_still_parses() {
        // A spec serialized before the byzantine field existed (no
        // "byzantine" key) must deserialize with byzantine = None.
        let spec = ExperimentSpec::default();
        let mut json = serde_json::to_string(&spec).unwrap();
        let needle = "\"byzantine\":null,";
        assert!(json.contains(needle), "serialized form: {json}");
        json = json.replace(needle, "");
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn pre_churn_spec_json_still_parses() {
        // A spec serialized before the churn field existed (no "churn" key)
        // must deserialize with churn = None.
        let spec = ExperimentSpec::default();
        let mut json = serde_json::to_string(&spec).unwrap();
        let needle = "\"churn\":null,";
        assert!(json.contains(needle), "serialized form: {json}");
        json = json.replace(needle, "");
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn churn_spec_builders_compose() {
        let churn = ChurnSpec::after_stabilization(ChurnScenario::JoinLeave { join: 5, leave: 3 })
            .at_round(100)
            .bursts(4);
        assert_eq!(churn.at_round, 100);
        assert_eq!(churn.bursts, 4);
        let spec = ExperimentSpec::builder().churn(churn).build();
        assert_eq!(spec.churn, Some(churn));
    }

    #[test]
    fn churn_scenario_labels_are_distinct_and_round_trip() {
        let scenarios = [
            ChurnScenario::EdgeChurn { fraction: 0.01 },
            ChurnScenario::JoinLeave { join: 2, leave: 2 },
            ChurnScenario::RegionFailure { fraction: 0.1 },
        ];
        let labels: std::collections::HashSet<_> = scenarios.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), scenarios.len());
        for scenario in scenarios {
            let json = serde_json::to_string(&scenario).unwrap();
            let back: ChurnScenario = serde_json::from_str(&json).unwrap();
            assert_eq!(back, scenario);
        }
    }

    #[test]
    fn legacy_process_field_resolves_and_explicit_algorithm_wins() {
        let legacy = r#"{
            "name": "legacy", "graph": {"Complete": {"n": 8}},
            "process": "ThreeColor", "init": "Random",
            "execution": "Sequential", "trials": 1, "max_rounds": 10,
            "base_seed": 0, "record_trace": false
        }"#;
        let spec: ExperimentSpec = serde_json::from_str(legacy).unwrap();
        assert_eq!(spec.algorithm, "three-color");

        let both = legacy.replace(
            "\"process\": \"ThreeColor\",",
            "\"process\": \"ThreeColor\", \"algorithm\": \"beeping-two-state\",",
        );
        let spec: ExperimentSpec = serde_json::from_str(&both).unwrap();
        assert_eq!(spec.algorithm, "beeping-two-state");

        let unknown = legacy.replace("ThreeColor", "FourState");
        assert!(serde_json::from_str::<ExperimentSpec>(&unknown).is_err());

        let neither = legacy.replace("\"process\": \"ThreeColor\",", "");
        assert!(serde_json::from_str::<ExperimentSpec>(&neither).is_err());
    }
}
