//! One local rule per process, one set of round drivers.
//!
//! The paper's three processes differ only in a few-line local rule
//! (Definitions 4, 5 and 28): what a vertex does given its own state,
//! whether it hears a black neighbor, and — when it is active — one fair
//! coin.
//! [`LocalRule`] states a rule once; [`RuleProcess`] runs any rule through
//! the [`FrontierEngine`] with one driver per randomness model:
//!
//! * the **stream-model driver** walks the sorted frontier, a scheduled
//!   vertex set, or `0..n`, always in ascending order, drawing each active
//!   vertex's coin from the shared RNG stream; it applies the changes by
//!   delta propagation plus [`flush`](FrontierEngine::flush) or, on a dense
//!   round, by staging plus a full recount;
//! * the **counter-model driver** runs the sparse round as
//!   [`par_round`](FrontierEngine::par_round) and the dense round as
//!   [`dense_sweep`](FrontierEngine::dense_sweep) plus
//!   [`recount_par`](FrontierEngine::recount_par), with each coin the pure
//!   function `counter(vertex, round, DRAW_STATE)`.
//!
//! Both drivers decide a vertex the same way: a vertex that is pending
//! moves to [`LocalRule::decide`] of its state, and draws a coin exactly
//! when it is active. The strategy dispatch, construction, topology
//! mutation and the shared accessors live here too;
//! [`TwoStateProcess`](crate::TwoStateProcess),
//! [`ThreeStateProcess`](crate::ThreeStateProcess) and
//! [`ThreeColorProcess`](crate::ThreeColorProcess) are `RuleProcess` with
//! their rule. Devismes, Masuzawa & Tixeuil measure communication by what
//! a vertex reads from its neighbors; the engine passes a rule one bit,
//! "some neighbor is black", which is what a beeping channel delivers, and
//! answers "some neighbor sends this letter" on demand (the 3-state rule's
//! `black1`; the 3-color rule reads its level letters through its switch).
//! So the registry's beeping and stone-age keys run the same `RuleProcess`
//! as the direct keys, and `mis-comm` keeps the channels only as reference
//! rounds.

use std::sync::Arc;

use mis_graph::{CommittedDelta, CompactId, Graph, GraphDelta, VertexId, VertexSet};
use rand::{Rng, RngCore};

use crate::algorithm::{corrupt, unsupported, Algorithm, FaultState, StateCounts};
use crate::counter_rng::{CounterRng, DRAW_STATE};
use crate::engine::{FrontierEngine, ScatterSink, VertexClass};
use crate::exec::{resolve_threads, ExecutionMode, RoundStrategy};
use crate::mutation::{GraphRef, MutationError};
use crate::packed::PackedStates;

/// The local rule of one MIS process: its states, which vertices may move,
/// and where they move.
///
/// The engine asks [`classify`](Self::classify) which vertices are active
/// (draw a coin next round) and pending (may change state at all); a round
/// then moves every pending vertex to [`decide`](Self::decide) of its
/// state, with a coin exactly at the active ones. A vertex's
/// [`Memory`](Self::Memory) is what faults and adversaries overwrite. The
/// remaining methods are hooks with no-op defaults: which changes re-queue
/// the neighbors (the 3-state rule's `black1`↔`black0` flip), and the
/// 3-color rule's switch sub-process.
pub trait LocalRule: Sync {
    /// The per-vertex state.
    type State: Copy + Eq;

    /// A vertex's memory as faults and Byzantine adversaries see it: its
    /// state, plus the rule's sub-process state if it has one.
    type Memory: FaultState;

    /// Whether a round may activate any subset of the vertices: `false` for
    /// a rule whose sub-process must step in lockstep with every round.
    const PARTIAL_ACTIVATION: bool = false;

    /// The 2-bit code of `state` in the packed state storage.
    fn code(state: Self::State) -> u8;

    /// Inverse of [`code`](Self::code).
    fn from_code(code: u8) -> Self::State;

    /// Whether `state` claims MIS membership.
    fn is_black(state: Self::State) -> bool;

    /// Classifies vertex `u` in `state`; `hears_black` is whether some
    /// neighbor of `u` is black — the beep bit of the beeping channel, and
    /// the one neighbor input the engine keeps. `hears(s)` scans `N(u)` for
    /// a neighbor in state `s`, in `O(deg u)`, for a rule that reads
    /// another letter.
    fn classify(
        &self,
        u: VertexId,
        state: Self::State,
        hears_black: bool,
        hears: impl Fn(Self::State) -> bool,
    ) -> VertexClass;

    /// The next state of a pending vertex in `state`: `coin` is its fair
    /// coin if it is active and `None` otherwise.
    fn decide(state: Self::State, coin: Option<bool>) -> Self::State;

    /// Number of distinct states each vertex can be in.
    fn states_per_vertex(&self) -> usize;

    /// The memory of `u`, whose state is `state`.
    fn memory(&self, u: VertexId, state: Self::State) -> Self::Memory;

    /// Writes the sub-process part of `memory` at `u` and returns its state
    /// part.
    fn set_memory(&mut self, u: VertexId, memory: Self::Memory) -> Self::State;

    /// Whether a vertex's change from `old` to `new` may reclassify its
    /// neighbors though its blackness stayed: the change moves a letter
    /// they read through `hears`. A blackness change re-queues them anyway.
    fn requeues_neighbors(_old: Self::State, _new: Self::State) -> bool {
        false
    }

    /// Hook: the topology is about to change to `graph` (same vertex ids,
    /// possibly more of them). Called before anything else is mutated, so
    /// an error leaves the process untouched.
    ///
    /// # Errors
    ///
    /// [`MutationError::Unsupported`] if the rule cannot follow topology
    /// changes.
    fn rebind(&mut self, _graph: &Arc<Graph>) -> Result<(), MutationError> {
        Ok(())
    }

    /// Hook: steps a sub-process after the decide phase of a stream-model
    /// round.
    fn advance(&mut self, _rng: &mut dyn RngCore) {}

    /// Hook: steps a sub-process after the decide phase of a counter-model
    /// round.
    fn advance_counter(&mut self, _counter: &CounterRng) {}

    /// Hook: after a sparse round's [`advance`](Self::advance), passes to
    /// `mark` every vertex whose classification the sub-process step may
    /// have changed.
    fn for_each_requeue(&self, _states: &PackedStates, _mark: impl FnMut(VertexId)) {}

    /// Random bits the sub-process has drawn so far.
    fn sub_random_bits(&self) -> u64 {
        0
    }
}

/// A self-stabilizing MIS process given by its [`LocalRule`] `R`: the
/// bit-packed states, the rule, and the incremental [`FrontierEngine`]
/// that runs its rounds.
///
/// A [`step`](Algorithm::step) costs `O(|F_t| + vol(C_t))` on the sparse
/// path — the frontier plus the volume of the vertices that changed — and
/// [`is_stabilized`](Algorithm::is_stabilized) and
/// [`counts`](Algorithm::counts) are `O(1)`. See the [module docs](self) for
/// the two drivers, and [`RoundStrategy`] for the dense/sparse choice.
/// One generic [`Algorithm`] impl serves every rule.
#[derive(Debug, Clone)]
pub struct RuleProcess<'g, R> {
    pub(crate) graph: GraphRef<'g>,
    pub(crate) states: PackedStates,
    pub(crate) rule: R,
    pub(crate) engine: FrontierEngine,
    mode: ExecutionMode,
    strategy: RoundStrategy,
    /// Whether the most recent full synchronous round ran the dense path.
    last_round_dense: bool,
    counter: CounterRng,
    pub(crate) round: usize,
    pub(crate) random_bits: u64,
    /// Scratch: the frontier snapshot of the round being executed.
    worklist: Vec<CompactId>,
}

/// The engine classifier of `rule` over the current `states`: `hears`
/// scans `N(u)` in `graph`.
fn classifier<'a, R: LocalRule>(
    rule: &'a R,
    graph: &'a Graph,
    states: &'a PackedStates,
) -> impl Fn(VertexId, u32) -> VertexClass + Sync + 'a {
    move |u, black_nbrs| {
        let hears = |state| {
            let code = R::code(state);
            graph.neighbors(u).iter().any(|v| states.get(v) == code)
        };
        rule.classify(u, R::from_code(states.get(u)), black_nbrs > 0, hears)
    }
}

/// `N(u)` if `u`'s change from `old` to `new` moves a letter its neighbors
/// read ([`LocalRule::requeues_neighbors`]) and `u` was not stable black by
/// the engine's flag before it, else nothing. A stable-black vertex's
/// neighbors are non-black: one that stays so never reads the letter, and
/// one that turns black this round is re-queued by its own blackness
/// scatter.
#[inline]
fn requeued_neighbors<'g, R: LocalRule>(
    graph: &'g Graph,
    engine: &FrontierEngine,
    u: VertexId,
    old: R::State,
    new: R::State,
) -> &'g [CompactId] {
    if R::requeues_neighbors(old, new) && !engine.is_stable_black(u) {
        graph.neighbors(u).as_compact()
    } else {
        &[]
    }
}

/// Decides `u` against the pre-round flags: a pending vertex moves to
/// [`LocalRule::decide`] of its state, drawing `coin()` (and counting it in
/// `draws`) if it is active. Returns `(old, new)` if the state changed.
#[inline]
fn decide_vertex<R: LocalRule>(
    engine: &FrontierEngine,
    states: &PackedStates,
    u: VertexId,
    draws: &mut u64,
    coin: impl FnOnce() -> bool,
) -> Option<(R::State, R::State)> {
    let class = engine.class(u);
    if !class.pending {
        return None;
    }
    let coin = class.active.then(|| {
        *draws += 1;
        coin()
    });
    let old = R::from_code(states.get(u));
    let new = R::decide(old, coin);
    (new != old).then_some((old, new))
}

/// The vertices a stream-model round walks, in ascending order.
enum Walk<'a> {
    /// The sorted frontier: a sparse round.
    Frontier,
    /// A scheduler's activation set: a partial-activation round.
    Scheduled(&'a VertexSet),
    /// Every vertex: a dense round.
    All,
}

impl<'g, R: LocalRule> RuleProcess<'g, R> {
    /// Creates the process on `graph` from its initial states and rule,
    /// under `execution`: its engine is built by the recount of that mode,
    /// on the pool under `Parallel { threads ≥ 2 }` and inline otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != graph.n()`.
    pub(crate) fn from_parts(
        graph: &'g Graph,
        states: Vec<R::State>,
        rule: R,
        execution: ExecutionMode,
    ) -> Self {
        assert_eq!(
            states.len(),
            graph.n(),
            "initial state vector length must equal the number of vertices"
        );
        let mut p = RuleProcess {
            graph: GraphRef::Borrowed(graph),
            states: PackedStates::from_codes(states.into_iter().map(R::code)),
            rule,
            engine: FrontierEngine::new(graph.n()),
            mode: execution,
            strategy: RoundStrategy::Auto,
            last_round_dense: false,
            counter: CounterRng::new(0),
            round: 0,
            random_bits: 0,
            worklist: Vec::new(),
        };
        p.rebuild_engine(execution.threads());
        p
    }

    /// Selects the execution mode for subsequent rounds and (re-)keys the
    /// counter-based RNG with `run_seed`. Under
    /// [`ExecutionMode::Sequential`] (the default) every coin comes from the
    /// RNG passed to `step`, drawn in ascending vertex order — bit-identical
    /// to the process's `step_reference`. Under [`ExecutionMode::Parallel`]
    /// each coin is the pure function `CounterRng(run_seed)(vertex, round,
    /// draw)`, the RNG passed to `step` is ignored, and results are
    /// bit-identical for every thread count.
    pub fn set_execution(&mut self, mode: ExecutionMode, run_seed: u64) {
        self.mode = mode;
        self.counter = CounterRng::new(run_seed);
    }

    /// The current execution mode.
    pub fn execution_mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Selects how full synchronous rounds traverse the graph: the adaptive
    /// dense/sparse choice (default), or one path forced. The choice never
    /// changes results — see [`RoundStrategy`].
    pub fn set_strategy(&mut self, strategy: RoundStrategy) {
        self.strategy = strategy;
    }

    /// The current round strategy.
    pub fn strategy(&self) -> RoundStrategy {
        self.strategy
    }

    /// `true` if the most recent [`step`](Algorithm::step) ran the dense
    /// full-sweep path (reporting hook for the scale experiment, which
    /// records the round where `auto` switches dense → sparse).
    pub fn last_round_was_dense(&self) -> bool {
        self.last_round_dense
    }

    /// The underlying graph (the mutated one after
    /// [`apply_mutation`](Algorithm::apply_mutation)).
    pub fn graph(&self) -> &Graph {
        self.graph.get()
    }

    /// Read-only view of the incremental engine bookkeeping (counters,
    /// frontier, cached counts), for tests and diagnostics.
    pub fn engine(&self) -> &FrontierEngine {
        &self.engine
    }

    /// `true` if `u` will draw a random state in the next round.
    pub fn is_active(&self, u: VertexId) -> bool {
        self.engine.is_active(u)
    }

    /// `true` if `u` is stable black: black with no black neighbor (i.e.
    /// `u ∈ I_t`).
    pub fn is_stable_black(&self, u: VertexId) -> bool {
        self.engine.is_stable_black(u)
    }

    /// `true` if `u` is stable: stable black, or adjacent to a stable black
    /// vertex.
    pub fn is_stable(&self, u: VertexId) -> bool {
        self.engine.is_stable(u)
    }

    /// Number of black neighbors of `u` (delta-maintained).
    pub fn black_neighbor_count(&self, u: VertexId) -> usize {
        self.engine.black_neighbor_count(u)
    }

    /// The state of vertex `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub(crate) fn state_of(&self, u: VertexId) -> R::State {
        assert!(u < self.n(), "vertex {u} out of range");
        R::from_code(self.states.get(u))
    }

    /// The full state vector, materialized from the packed storage in
    /// `O(n)`.
    pub(crate) fn state_vec(&self) -> Vec<R::State> {
        self.states.decode(R::from_code)
    }

    /// Overwrites the state of one vertex (transient-fault injection). All
    /// neighbor bookkeeping is delta-updated in `O(deg(u))`; no full rebuild
    /// happens.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub(crate) fn overwrite(&mut self, u: VertexId, state: R::State) {
        let old = self.state_of(u);
        if old == state {
            return;
        }
        self.states.set_mut(u, R::code(state));
        let graph = self.graph.get();
        for &v in requeued_neighbors::<R>(graph, &self.engine, u, old, state) {
            self.engine.mark_dirty(v);
        }
        self.engine.set_black(graph, u, R::is_black(state));
        self.flush();
    }

    /// The memory of vertex `u`.
    pub(crate) fn memory(&self, u: VertexId) -> R::Memory {
        self.rule.memory(u, self.state_of(u))
    }

    /// Overwrites the memory of `u` and returns the previous one. A changed
    /// state goes through [`overwrite`](Self::overwrite), which re-classifies
    /// `u`; if only the rule's part changed, `u` is re-classified alone,
    /// since a gray vertex's class follows its switch.
    pub(crate) fn replace_memory(&mut self, u: VertexId, memory: R::Memory) -> R::Memory {
        let old = self.memory(u);
        if old != memory {
            let state = self.rule.set_memory(u, memory);
            if state == self.state_of(u) {
                self.engine.mark_dirty(CompactId::new(u));
                self.flush();
            } else {
                self.overwrite(u, state);
            }
        }
        old
    }

    /// Rebuilds every engine counter, flag and count from the states in
    /// `O(n + m)`: stages every vertex's blackness, then runs the dense
    /// recount on `threads` threads.
    pub(crate) fn rebuild_engine(&mut self, threads: usize) {
        let graph = self.graph.get();
        let (rule, states, engine) = (&self.rule, &self.states, &mut self.engine);
        for u in 0..graph.n() {
            engine.stage_black(u, R::is_black(R::from_code(states.get(u))));
        }
        engine.recount_par(graph, threads, classifier(rule, graph, states));
    }

    /// Reclassifies the engine's dirty vertices on this thread.
    pub(crate) fn flush(&mut self) {
        let graph = self.graph.get();
        self.engine
            .flush(graph, 1, classifier(&self.rule, graph, &self.states));
    }

    /// The stream-model driver: walks `walk` in ascending order, moves every
    /// pending vertex by the rule with a coin from `rng` at the active ones
    /// (the same stream as a full scan), and applies each change at once —
    /// by delta propagation, or by staging on a dense walk. The decisions
    /// read only the pre-round flags and the vertex's own state, so applying
    /// early cannot change a later decision. Then the sub-process steps, and
    /// the engine flushes (or recounts, on a dense walk).
    fn stream_round(&mut self, walk: Walk<'_>, rng: &mut dyn RngCore) {
        let dense = matches!(walk, Walk::All);
        let RuleProcess {
            graph,
            states,
            engine,
            worklist,
            ..
        } = self;
        let graph = graph.get();
        if let Walk::Frontier = walk {
            engine.begin_round(worklist);
        }
        let mut draws = 0u64;
        let mut visit = |u: VertexId| {
            let decided = decide_vertex::<R>(engine, states, u, &mut draws, || rng.gen_bool(0.5));
            if let Some((old, new)) = decided {
                states.set_mut(u, R::code(new));
                if dense {
                    engine.stage_black(u, R::is_black(new));
                } else {
                    for &v in requeued_neighbors::<R>(graph, engine, u, old, new) {
                        engine.mark_dirty(v);
                    }
                    engine.set_black(graph, u, R::is_black(new));
                }
            }
        };
        match walk {
            Walk::Frontier => worklist.iter().for_each(|&u| visit(u.index())),
            Walk::Scheduled(set) => set.iter().for_each(visit),
            Walk::All => (0..graph.n()).for_each(visit),
        }
        self.random_bits += draws;
        self.rule.advance(rng);
        self.finish_round(dense, 1);
    }

    /// The counter-model driver on `threads` threads: a sparse round is one
    /// dispatch that moves each vertex and scatters its change at once, plus
    /// the flush ([`FrontierEngine::par_round`]); a dense round is the
    /// volume-balanced decide sweep plus the fused recount. Coins are
    /// counter-based, so the result is bit-identical for every thread count.
    fn counter_round(&mut self, dense: bool, threads: usize) {
        let (round, counter) = (self.round as u64, self.counter);
        let coin = |u: VertexId| counter.gen_bool(0.5, u as u64, round, DRAW_STATE);
        let RuleProcess {
            graph,
            states,
            rule,
            engine,
            worklist,
            ..
        } = self;
        let (graph, states, rule) = (graph.get(), &*states, &*rule);
        let draws = if dense {
            engine.dense_sweep(graph, threads, |engine, range| {
                let mut draws = 0u64;
                for u in range {
                    let decided = decide_vertex::<R>(engine, states, u, &mut draws, || coin(u));
                    if let Some((_, new)) = decided {
                        states.set(u, R::code(new));
                        engine.stage_black(u, R::is_black(new));
                    }
                }
                draws
            })
        } else {
            engine.begin_round_unsorted(worklist);
            let visit = |engine: &FrontierEngine, u, sink: &mut ScatterSink| {
                let mut draws = 0u64;
                let decided = decide_vertex::<R>(engine, states, u, &mut draws, || coin(u));
                if let Some((old, new)) = decided {
                    states.set(u, R::code(new));
                    for &v in requeued_neighbors::<R>(graph, engine, u, old, new) {
                        engine.mark_dirty_concurrent(v, sink);
                    }
                    engine.scatter_black(graph, u, R::is_black(new), sink);
                }
                draws
            };
            engine.par_round(
                graph,
                worklist,
                threads,
                visit,
                classifier(rule, graph, states),
            )
        };
        self.random_bits += draws;
        self.rule.advance_counter(&self.counter);
        self.finish_round(dense, threads);
    }

    /// Ends a round after the sub-process stepped: a dense round recounts
    /// every counter; a sparse round re-queues the vertices the sub-process
    /// step may have reclassified and flushes.
    fn finish_round(&mut self, dense: bool, threads: usize) {
        let graph = self.graph.get();
        let (rule, states) = (&self.rule, &self.states);
        if dense {
            self.engine
                .recount_par(graph, threads, classifier(rule, graph, states));
        } else {
            let engine = &mut self.engine;
            rule.for_each_requeue(states, |u| engine.mark_dirty(CompactId::new(u)));
            engine.flush(graph, 1, classifier(rule, graph, states));
        }
        self.round += 1;
    }
}

impl<R: LocalRule> Algorithm for RuleProcess<'_, R> {
    fn n(&self) -> usize {
        self.graph.get().n()
    }

    fn round(&self) -> usize {
        self.round
    }

    fn step(&mut self, rng: &mut dyn RngCore) {
        let dense = match self.strategy {
            RoundStrategy::Sparse => false,
            RoundStrategy::Dense => true,
            RoundStrategy::Auto => self.engine.prefers_dense(self.graph.get()),
        };
        self.last_round_dense = dense;
        match self.mode {
            ExecutionMode::Sequential => {
                self.stream_round(if dense { Walk::All } else { Walk::Frontier }, rng)
            }
            ExecutionMode::Parallel { threads } => {
                self.counter_round(dense, resolve_threads(threads))
            }
        }
    }

    /// Walks `scheduled` like the sorted frontier of a sequential round:
    /// every scheduled pending vertex moves by the rule against the
    /// pre-round configuration, drawing its coin from the shared stream in
    /// ascending vertex order if it is active.
    fn step_scheduled(&mut self, scheduled: &VertexSet, rng: &mut dyn RngCore) {
        if !R::PARTIAL_ACTIVATION {
            unsupported("partial activation; use the synchronous scheduler");
        }
        assert_eq!(
            scheduled.universe(),
            self.n(),
            "scheduled set universe must match the graph"
        );
        self.stream_round(Walk::Scheduled(scheduled), rng);
    }

    fn is_stabilized(&self) -> bool {
        // Stabilized (on the black/non-black projection) iff every vertex is
        // stable; the engine caches the unstable count, so this is O(1).
        self.engine.is_stabilized()
    }

    fn black_set(&self) -> VertexSet {
        self.engine.black_set()
    }

    fn active_set(&self) -> VertexSet {
        self.engine.active_set()
    }

    fn stable_black_set(&self) -> VertexSet {
        self.engine.stable_black_set()
    }

    fn unstable_set(&self) -> VertexSet {
        self.engine.unstable_set()
    }

    fn counts(&self) -> StateCounts {
        self.engine.counts()
    }

    fn states_per_vertex(&self) -> usize {
        self.rule.states_per_vertex()
    }

    fn random_bits_used(&self) -> u64 {
        self.random_bits + self.rule.sub_random_bits()
    }

    fn inject_faults_targeted(&mut self, victims: &[VertexId], rng: &mut dyn RngCore) -> usize {
        corrupt(victims, rng, |u, memory| self.replace_memory(u, memory))
    }

    fn set_byzantine_state(&mut self, u: VertexId, black: bool) -> bool {
        let shown = self.memory(u).displayed(black);
        self.replace_memory(u, shown) != shown
    }

    /// Applies a batch of topology mutations and incrementally re-derives
    /// the bookkeeping, so the process **re-stabilizes from the current
    /// configuration** instead of restarting. The delta is compacted into
    /// one fresh CSR graph, which the rule adopts first
    /// ([`LocalRule::rebind`]); state storage and counters grow to cover
    /// joined vertices (which start in state code 0, white), each net edge
    /// change delta-updates the neighbor counters, and one flush against the
    /// new adjacency re-classifies every touched vertex. The result is
    /// bit-identical to rebuilding from scratch on the new graph with the
    /// current states.
    ///
    /// # Errors
    ///
    /// Fails with [`MutationError::Graph`] for an invalid delta, or with
    /// [`MutationError::Unsupported`] if the rule cannot follow topology
    /// changes; either way the process is untouched.
    fn apply_mutation(&mut self, delta: &GraphDelta) -> Result<CommittedDelta, MutationError> {
        let (new_graph, committed) = self.graph.get().apply_delta(delta)?;
        let graph = Arc::new(new_graph);
        self.rule.rebind(&graph)?;
        self.states.grow(committed.new_n);
        self.engine.grow(committed.new_n);
        for (edges, inserted) in [(&committed.removed, false), (&committed.inserted, true)] {
            for &(u, v) in edges {
                self.engine.edge_update(u, v, inserted);
            }
        }
        self.graph = GraphRef::Owned(graph);
        self.flush();
        Ok(committed)
    }

    fn current_graph(&self) -> Option<&Graph> {
        Some(self.graph())
    }
}
