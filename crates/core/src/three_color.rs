use std::sync::Arc;

use mis_graph::{CommittedDelta, Graph, GraphDelta, VertexId, VertexSet};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use crate::counter_rng::{CounterRng, DRAW_STATE};
use crate::engine::{FrontierEngine, VertexClass};
use crate::exec::{resolve_threads, ExecutionMode, RoundStrategy};
use crate::init::InitStrategy;
use crate::log_switch::{RandomizedLogSwitch, SwitchProcess, DEFAULT_ZETA};
use crate::mutation::{GraphRef, MutationError};
use crate::packed::PackedStates;
use crate::process::{Process, StateCounts};

/// The switch parameter `a` used by the paper when instantiating the 3-color
/// process (Definition 28): the logarithmic switch is an `(a, 3)`-switch with
/// `a = 512`, corresponding to `ζ = 4/a = 2⁻⁷` for the randomized switch.
pub const LOG_SWITCH_A: f64 = 512.0;

/// Vertex color of the 3-color MIS process (Definition 28).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ThreeColor {
    /// The vertex currently claims MIS membership.
    Black,
    /// The vertex does not claim membership and may become black when it has
    /// no black neighbor.
    White,
    /// The vertex recently retreated from black; it behaves like white for
    /// its neighbors but cannot turn black again until its switch turns on
    /// and releases it to white.
    Gray,
}

impl ThreeColor {
    /// `true` if the color is [`ThreeColor::Black`].
    pub fn is_black(self) -> bool {
        matches!(self, ThreeColor::Black)
    }

    /// The 2-bit code used by the packed state storage.
    #[inline]
    pub(crate) fn code(self) -> u8 {
        match self {
            ThreeColor::White => 0,
            ThreeColor::Black => 1,
            ThreeColor::Gray => 2,
        }
    }

    /// Inverse of [`code`](Self::code).
    #[inline]
    pub(crate) fn from_code(code: u8) -> Self {
        match code {
            0 => ThreeColor::White,
            1 => ThreeColor::Black,
            2 => ThreeColor::Gray,
            other => unreachable!("invalid 3-color code {other}"),
        }
    }
}

/// The 3-color local rule. Black/white vertices are active (and pending) by
/// the 2-state rule; gray vertices never draw and are pending only while
/// their switch is on, the one condition under which they turn white. A
/// parked gray vertex is re-queued when its switch output changes (see
/// [`SwitchProcess::for_each_changed`]).
fn classify<'a, S: SwitchProcess>(
    colors: &'a PackedStates,
    switch: &'a S,
) -> impl Fn(VertexId, u32) -> VertexClass + Sync + 'a {
    move |u, black_nbrs| match ThreeColor::from_code(colors.get(u)) {
        ThreeColor::Black => {
            let a = black_nbrs > 0;
            VertexClass {
                active: a,
                pending: a,
            }
        }
        ThreeColor::White => {
            let a = black_nbrs == 0;
            VertexClass {
                active: a,
                pending: a,
            }
        }
        ThreeColor::Gray => VertexClass {
            active: false,
            pending: switch.is_on(u),
        },
    }
}

/// The **3-color MIS process** of Definition 28: the 2-state process extended
/// with a gray color and a [`SwitchProcess`] that controls how quickly gray
/// vertices may return to white (and hence how often a vertex can flip from
/// white to black).
///
/// Differences from the 2-state rule:
///
/// * a black vertex with a black neighbor moves to **gray** (not white) with
///   probability 1/2;
/// * a gray vertex becomes white only when its switch output is `on`;
/// * neighbors treat gray exactly like white.
///
/// Instantiated with the [`RandomizedLogSwitch`] (6 states) this gives
/// 3 × 6 = 18 states per vertex and stabilizes in polylog rounds on `G(n,p)`
/// for **every** `0 ≤ p ≤ 1` (Theorem 3 / Theorem 32).
///
/// Colors are stored bit-packed (2 bits per vertex) and the color update
/// runs through the incremental [`FrontierEngine`]. Its frontier `F_t` holds
/// the active vertices and the gray vertices whose switch is on; a gray
/// vertex whose switch is off waits off the frontier until the switch
/// reports that its output changed. With the [`RandomizedLogSwitch`], which
/// also steps incrementally, a round costs
/// `O(|F_t| + vol(C_t) + |L₅| + vol(P_t) + vol(Δ_t) + n/64)`: the frontier,
/// the volume of the color changes `C_t`, one coin per level-5 vertex, the
/// max rule at the switch's pending vertices `P_t`, the neighbor lists of
/// the level changes `Δ_t`, and one pass over the switch's bitset words.
/// [`is_stabilized`](Process::is_stabilized) is `O(1)`.
/// [`step_reference`](ThreeColorProcess::step_reference) retains the naive
/// full scan of colors and levels for differential testing.
///
/// # Execution modes
///
/// Sequential mode (the default) draws all coins — colors and switch — from
/// the shared stream in ascending vertex order; after
/// [`set_execution`](Self::set_execution) with
/// [`ExecutionMode::Parallel`], both sub-processes use counter-based draws
/// (`DRAW_STATE` for colors, `DRAW_SWITCH` for the switch), the shared RNG
/// argument is ignored, and results are bit-identical for every thread
/// count.
///
/// # Example
///
/// ```
/// use mis_core::{ThreeColorProcess, Process, init::InitStrategy};
/// use mis_graph::{generators, mis_check};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(8);
/// let g = generators::gnp(200, 0.3, &mut rng);
/// let mut p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut rng);
/// assert_eq!(p.states_per_vertex(), 18);
/// p.run_to_stabilization(&mut rng, 50_000).unwrap();
/// assert!(mis_check::is_mis(&g, &p.black_set()));
/// ```
#[derive(Debug, Clone)]
pub struct ThreeColorProcess<'g, S> {
    graph: GraphRef<'g>,
    colors: PackedStates,
    engine: FrontierEngine,
    switch: S,
    mode: ExecutionMode,
    strategy: RoundStrategy,
    /// Whether the most recent full synchronous round ran the dense path.
    last_round_dense: bool,
    counter: CounterRng,
    round: usize,
    random_bits: u64,
    worklist: Vec<VertexId>,
    changes: Vec<(VertexId, ThreeColor)>,
    /// Recycled per-chunk change buffers for the parallel round path.
    change_pool: Vec<Vec<(VertexId, ThreeColor)>>,
}

impl<'g> ThreeColorProcess<'g, RandomizedLogSwitch<'g>> {
    /// Creates the process with the paper's instantiation: the randomized
    /// logarithmic switch with `ζ = 2⁻⁷` (18 states per vertex in total).
    /// Both the colors and the switch levels are drawn from `init`.
    pub fn with_randomized_switch<R: Rng + ?Sized>(
        graph: &'g Graph,
        init: InitStrategy,
        rng: &mut R,
    ) -> Self {
        let colors = init.three_color(graph.n(), rng);
        let switch = RandomizedLogSwitch::with_init(graph, init, DEFAULT_ZETA, rng);
        Self::new(graph, colors, switch)
    }
}

impl ThreeColorProcess<'_, RandomizedLogSwitch<'_>> {
    /// Overwrites the switch level of one vertex (transient-fault
    /// injection) and reclassifies the vertex, whose frontier membership
    /// follows its switch output while it is gray.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range or `level > 5`.
    pub fn set_switch_level(&mut self, u: VertexId, level: u8) {
        self.switch.set_level(u, level);
        self.engine.mark_dirty(u);
        self.engine
            .flush(self.graph.get(), classify(&self.colors, &self.switch));
    }
}

impl<'g, S: SwitchProcess> ThreeColorProcess<'g, S> {
    /// Creates the process from an explicit color vector and switch instance.
    ///
    /// # Panics
    ///
    /// Panics if `colors.len() != graph.n()` or the switch is defined over a
    /// different number of vertices.
    pub fn new(graph: &'g Graph, colors: Vec<ThreeColor>, switch: S) -> Self {
        assert_eq!(
            colors.len(),
            graph.n(),
            "initial color vector length must equal the number of vertices"
        );
        assert_eq!(
            switch.n(),
            graph.n(),
            "switch must be defined over the same vertex set"
        );
        let mut p = ThreeColorProcess {
            engine: FrontierEngine::new(graph.n()),
            graph: GraphRef::Borrowed(graph),
            colors: PackedStates::from_codes(colors.into_iter().map(ThreeColor::code)),
            switch,
            mode: ExecutionMode::Sequential,
            strategy: RoundStrategy::Auto,
            last_round_dense: false,
            counter: CounterRng::new(0),
            round: 0,
            random_bits: 0,
            worklist: Vec::new(),
            changes: Vec::new(),
            change_pool: Vec::new(),
        };
        p.rebuild_engine();
        p
    }

    /// Selects the execution mode for subsequent rounds and (re-)keys the
    /// counter-based RNG with `run_seed` (shared by the color and switch
    /// sub-processes, which draw on disjoint draw indices).
    pub fn set_execution(&mut self, mode: ExecutionMode, run_seed: u64) {
        self.mode = mode;
        self.counter = CounterRng::new(run_seed);
    }

    /// The current execution mode.
    pub fn execution_mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Selects how full synchronous rounds traverse the graph; see
    /// [`RoundStrategy`]. The choice never changes results.
    pub fn set_strategy(&mut self, strategy: RoundStrategy) {
        self.strategy = strategy;
    }

    /// The current round strategy.
    pub fn strategy(&self) -> RoundStrategy {
        self.strategy
    }

    /// `true` if the most recent [`step`](Process::step) ran the dense
    /// full-sweep path.
    pub fn last_round_was_dense(&self) -> bool {
        self.last_round_dense
    }

    /// The underlying graph (the mutated one after
    /// [`apply_mutation`](Self::apply_mutation)).
    pub fn graph(&self) -> &Graph {
        self.graph.get()
    }

    /// Applies a batch of topology mutations and incrementally re-derives
    /// the engine bookkeeping, so the process re-stabilizes from the
    /// current configuration instead of restarting. The mutated graph is
    /// built **once** and the same `Arc` is handed to the switch's
    /// [`rebind_graph`](SwitchProcess::rebind_graph), keeping both
    /// sub-processes on one identical topology. New vertices start white
    /// with their switch at its waiting state.
    ///
    /// # Errors
    ///
    /// Fails with [`MutationError::Unsupported`] (state untouched) if the
    /// switch implementation cannot follow topology changes, or with
    /// [`MutationError::Graph`] for an invalid delta.
    pub fn apply_mutation(&mut self, delta: &GraphDelta) -> Result<CommittedDelta, MutationError> {
        let (new_graph, committed) = self.graph.get().apply_delta(delta)?;
        let arc = Arc::new(new_graph);
        // Rebind the switch first: if it declines, nothing was mutated yet
        // (`apply_delta` is pure) and the error propagates cleanly.
        self.switch.rebind_graph(&arc)?;
        self.colors.grow(committed.new_n);
        self.engine.grow(committed.new_n);
        for &(u, v) in &committed.removed {
            self.engine.edge_update(u, v, false);
        }
        for &(u, v) in &committed.inserted {
            self.engine.edge_update(u, v, true);
        }
        self.graph = GraphRef::Owned(arc);
        self.engine
            .flush(self.graph.get(), classify(&self.colors, &self.switch));
        Ok(committed)
    }

    /// The switch sub-process.
    pub fn switch(&self) -> &S {
        &self.switch
    }

    /// Read-only view of the incremental engine bookkeeping, for tests and
    /// diagnostics.
    pub fn engine(&self) -> &FrontierEngine {
        &self.engine
    }

    /// Current color of vertex `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn color(&self, u: VertexId) -> ThreeColor {
        assert!(u < self.n(), "vertex {u} out of range");
        ThreeColor::from_code(self.colors.get(u))
    }

    /// The full color vector, materialized from the packed storage in `O(n)`.
    pub fn colors(&self) -> Vec<ThreeColor> {
        self.colors.decode(ThreeColor::from_code)
    }

    /// Number of black neighbors of `u` (delta-maintained).
    pub fn black_neighbor_count(&self, u: VertexId) -> usize {
        self.engine.black_neighbor_count(u)
    }

    /// The current set of gray vertices `Γ_t`.
    pub fn gray_set(&self) -> VertexSet {
        VertexSet::from_indices(
            self.n(),
            self.graph
                .get()
                .vertices()
                .filter(|&u| self.color(u) == ThreeColor::Gray),
        )
    }

    /// Overwrites the color of one vertex (transient-fault injection). The
    /// neighborhood bookkeeping is delta-updated in `O(deg(u))`; no full
    /// rebuild happens.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set_color(&mut self, u: VertexId, color: ThreeColor) {
        if self.color(u) == color {
            return;
        }
        self.colors.set(u, color.code());
        self.engine.set_black(self.graph.get(), u, color.is_black());
        self.engine
            .flush(self.graph.get(), classify(&self.colors, &self.switch));
    }

    /// `true` if `u` is active: black with a black neighbor, or white with no
    /// black neighbor. (Gray vertices are never active; they wait for their
    /// switch.)
    pub fn is_active(&self, u: VertexId) -> bool {
        self.engine.is_active(u)
    }

    /// `true` if `u` is stable black (black with no black neighbor).
    pub fn is_stable_black(&self, u: VertexId) -> bool {
        self.engine.is_stable_black(u)
    }

    /// `true` if `u` is stable: stable black or adjacent to a stable black vertex.
    pub fn is_stable(&self, u: VertexId) -> bool {
        self.engine.is_stable(u)
    }

    /// Executes one synchronous round with the naive full-scan reference
    /// implementation (`O(n + m)`): identical colors, switch evolution, and
    /// RNG stream as a sequential-mode [`step`](Process::step), retained as
    /// the oracle for the engine's trace-equality tests. The switch takes its
    /// own full-sweep [`step_reference`](SwitchProcess::step_reference).
    pub fn step_reference(&mut self, rng: &mut dyn RngCore) {
        let mut black_nbrs = vec![0u32; self.n()];
        for u in self.graph.get().vertices() {
            if ThreeColor::from_code(self.colors.get(u)).is_black() {
                for v in self.graph.get().neighbors(u) {
                    black_nbrs[v] += 1;
                }
            }
        }
        let next = self.colors.clone();
        for u in self.graph.get().vertices() {
            let new = match ThreeColor::from_code(self.colors.get(u)) {
                ThreeColor::Black if black_nbrs[u] > 0 => {
                    self.random_bits += 1;
                    if rng.gen_bool(0.5) {
                        ThreeColor::Black
                    } else {
                        ThreeColor::Gray
                    }
                }
                ThreeColor::White if black_nbrs[u] == 0 => {
                    self.random_bits += 1;
                    if rng.gen_bool(0.5) {
                        ThreeColor::Black
                    } else {
                        ThreeColor::White
                    }
                }
                ThreeColor::Gray if self.switch.is_on(u) => ThreeColor::White,
                other => other,
            };
            next.set(u, new.code());
        }
        self.colors = next;
        self.switch.step_reference(rng);
        self.rebuild_engine();
        self.round += 1;
    }

    fn rebuild_engine(&mut self) {
        let colors = &self.colors;
        self.engine.rebuild(
            self.graph.get(),
            |u| ThreeColor::from_code(colors.get(u)).is_black(),
            classify(colors, &self.switch),
        );
    }

    /// Runs after a sparse round's switch step: re-queues every gray vertex
    /// whose switch output may have changed, then flushes the engine, so a
    /// gray vertex is on the frontier exactly while its switch is on.
    fn flush_after_switch_step(&mut self) {
        let (colors, engine) = (&self.colors, &mut self.engine);
        self.switch.for_each_changed(&mut |u| {
            if colors.get(u) == ThreeColor::Gray.code() {
                engine.mark_dirty(u);
            }
        });
        self.engine
            .flush(self.graph.get(), classify(&self.colors, &self.switch));
    }

    /// One sequential round: ascending-order draws from the shared stream,
    /// bit-identical to [`step_reference`](Self::step_reference).
    fn step_sequential(&mut self, rng: &mut dyn RngCore) {
        // The color update of round t uses the switch values σ_{t-1} (the
        // switch output of the *previous* round); the two sub-processes then
        // advance in parallel. The frontier holds the active vertices plus
        // the gray vertices whose switch is on; draws happen only at active
        // vertices, in ascending vertex order — the same RNG stream as the
        // full-scan reference.
        self.engine.begin_round(&mut self.worklist);
        self.changes.clear();
        for &u in &self.worklist {
            match ThreeColor::from_code(self.colors.get(u)) {
                ThreeColor::Black => {
                    debug_assert!(self.engine.is_active(u));
                    self.random_bits += 1;
                    if !rng.gen_bool(0.5) {
                        self.changes.push((u, ThreeColor::Gray));
                    }
                }
                ThreeColor::White => {
                    debug_assert!(self.engine.is_active(u));
                    self.random_bits += 1;
                    if rng.gen_bool(0.5) {
                        self.changes.push((u, ThreeColor::Black));
                    }
                }
                ThreeColor::Gray => {
                    if self.switch.is_on(u) {
                        self.changes.push((u, ThreeColor::White));
                    }
                }
            }
        }
        for &(u, color) in &self.changes {
            self.colors.set(u, color.code());
            self.engine.set_black(self.graph.get(), u, color.is_black());
        }
        self.switch.step(rng);
        self.flush_after_switch_step();
        self.round += 1;
    }

    /// One **dense** sequential round: flat sweep deciding from the cached
    /// activity flags (active black/white vertices draw; gray vertices
    /// consult the previous round's switch output), then the switch advances
    /// and the engine recounts in full. Same coins in the same ascending
    /// order as the sparse path, hence bit-identical.
    fn step_dense_sequential(&mut self, rng: &mut dyn RngCore) {
        let n = self.graph.get().n();
        let mut draws = 0u64;
        {
            let colors = &mut self.colors;
            let engine = &self.engine;
            let switch = &self.switch;
            for u in 0..n {
                match ThreeColor::from_code(colors.get(u)) {
                    ThreeColor::Black => {
                        if engine.is_active(u) {
                            draws += 1;
                            if !rng.gen_bool(0.5) {
                                colors.set_mut(u, ThreeColor::Gray.code());
                                engine.stage_black(u, false);
                            }
                        }
                    }
                    ThreeColor::White => {
                        if engine.is_active(u) {
                            draws += 1;
                            if rng.gen_bool(0.5) {
                                colors.set_mut(u, ThreeColor::Black.code());
                                engine.stage_black(u, true);
                            }
                        }
                    }
                    ThreeColor::Gray => {
                        if switch.is_on(u) {
                            // Gray behaves like white for its neighbors, so
                            // the blackness projection is unchanged.
                            colors.set_mut(u, ThreeColor::White.code());
                        }
                    }
                }
            }
        }
        self.random_bits += draws;
        self.switch.step(rng);
        self.engine
            .recount(self.graph.get(), classify(&self.colors, &self.switch));
        self.round += 1;
    }

    /// One **dense** counter-based round on `threads` threads: chunked
    /// decide sweep, the switch's counter step, and the parallel engine
    /// recount. Bit-identical for every thread count and to the sparse
    /// parallel path.
    fn step_dense_parallel(&mut self, threads: usize) {
        let round = self.round as u64;
        let counter = self.counter;
        let colors = &self.colors;
        let switch = &self.switch;
        let graph = self.graph.get();
        let draws = self.engine.dense_sweep(graph, threads, |engine, range| {
            let mut draws = 0u64;
            for u in range {
                match ThreeColor::from_code(colors.get(u)) {
                    ThreeColor::Black => {
                        if engine.is_active(u) {
                            draws += 1;
                            if !counter.gen_bool(0.5, u as u64, round, DRAW_STATE) {
                                colors.set(u, ThreeColor::Gray.code());
                                engine.stage_black(u, false);
                            }
                        }
                    }
                    ThreeColor::White => {
                        if engine.is_active(u) {
                            draws += 1;
                            if counter.gen_bool(0.5, u as u64, round, DRAW_STATE) {
                                colors.set(u, ThreeColor::Black.code());
                                engine.stage_black(u, true);
                            }
                        }
                    }
                    ThreeColor::Gray => {
                        if switch.is_on(u) {
                            colors.set(u, ThreeColor::White.code());
                        }
                    }
                }
            }
            draws
        });
        self.random_bits += draws;
        self.switch.step_counter(&self.counter);
        self.engine.recount_par(
            self.graph.get(),
            threads,
            classify(&self.colors, &self.switch),
        );
        self.round += 1;
    }

    /// One counter-based round on `threads` threads; results are
    /// bit-identical for every thread count. The phase structure lives in
    /// [`FrontierEngine::par_round`]; this supplies the 3-color decide
    /// (black/white vertices draw their coin; gray vertices consult the
    /// *previous* round's switch output) and scatter. The fused flush
    /// inside `par_round` classifies gray vertices by that previous output,
    /// so after the switch's counter step a small sequential flush
    /// re-queues the gray vertices whose output changed.
    fn step_parallel(&mut self, threads: usize) {
        self.engine.begin_round_unsorted(&mut self.worklist);
        let round = self.round as u64;
        let counter = self.counter;
        let colors = &self.colors;
        let switch = &self.switch;
        let graph = self.graph.get();
        let change_pool = &mut self.change_pool;
        let draws = self.engine.par_round(
            graph,
            &self.worklist,
            threads,
            |engine, chunk, changes: &mut Vec<(VertexId, ThreeColor)>| {
                let mut draws = 0u64;
                for &u in chunk {
                    match ThreeColor::from_code(colors.get(u)) {
                        ThreeColor::Black => {
                            debug_assert!(engine.is_active(u));
                            draws += 1;
                            if !counter.gen_bool(0.5, u as u64, round, DRAW_STATE) {
                                colors.set(u, ThreeColor::Gray.code());
                                changes.push((u, ThreeColor::Gray));
                            }
                        }
                        ThreeColor::White => {
                            debug_assert!(engine.is_active(u));
                            draws += 1;
                            if counter.gen_bool(0.5, u as u64, round, DRAW_STATE) {
                                colors.set(u, ThreeColor::Black.code());
                                changes.push((u, ThreeColor::Black));
                            }
                        }
                        ThreeColor::Gray => {
                            if switch.is_on(u) {
                                colors.set(u, ThreeColor::White.code());
                                changes.push((u, ThreeColor::White));
                            }
                        }
                    }
                }
                draws
            },
            |engine, &(u, color), sink| engine.scatter_black(graph, u, color.is_black(), sink),
            classify(colors, switch),
            change_pool,
        );
        self.random_bits += draws;
        self.switch.step_counter(&self.counter);
        self.flush_after_switch_step();
        self.round += 1;
    }
}

impl<S: SwitchProcess> Process for ThreeColorProcess<'_, S> {
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
        match (self.mode, dense) {
            (ExecutionMode::Sequential, false) => self.step_sequential(rng),
            (ExecutionMode::Sequential, true) => self.step_dense_sequential(rng),
            (ExecutionMode::Parallel { threads }, false) => {
                self.step_parallel(resolve_threads(threads))
            }
            (ExecutionMode::Parallel { threads }, true) => {
                self.step_dense_parallel(resolve_threads(threads))
            }
        }
    }

    fn is_stabilized(&self) -> bool {
        // O(1): the engine caches the unstable count.
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
        3 * self.switch.states_per_vertex()
    }

    fn random_bits_used(&self) -> u64 {
        self.random_bits + self.switch.random_bits_used()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log_switch::FixedPeriodSwitch;
    use mis_graph::{generators, mis_check, Graph};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn apply_mutation_matches_fresh_process_on_mutated_graph() {
        let mut r = rng(403);
        let g = generators::gnp(40, 0.15, &mut r);
        let mut p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r);
        for _ in 0..5 {
            p.step(&mut r);
        }
        let (eu, ev) = g.edges().next().expect("dense gnp has an edge");
        let mut delta = GraphDelta::new();
        delta
            .remove_edge(eu, ev)
            .add_edge(0, g.n() - 1)
            .add_vertex([0, 1])
            .detach_vertex(2);
        let committed = p.apply_mutation(&delta).unwrap();
        assert_eq!(committed.new_n, g.n() + 1);
        assert_eq!(p.n(), g.n() + 1);
        assert_eq!(p.switch().n(), p.n(), "switch follows the graph");
        assert_eq!(p.color(g.n()), ThreeColor::White, "joined vertex is white");
        let g2 = p.graph().clone();
        let levels: Vec<u8> = g2.vertices().map(|u| p.switch().level(u)).collect();
        let fresh_switch = RandomizedLogSwitch::new(&g2, levels, p.switch().zeta());
        let fresh = ThreeColorProcess::new(&g2, p.colors(), fresh_switch);
        assert_eq!(fresh.counts(), p.counts());
        for u in g2.vertices() {
            assert_eq!(fresh.is_active(u), p.is_active(u), "active {u}");
            assert_eq!(fresh.is_stable(u), p.is_stable(u), "stable {u}");
            assert_eq!(
                fresh.black_neighbor_count(u),
                p.black_neighbor_count(u),
                "black_nbrs {u}"
            );
        }
        p.run_to_stabilization(&mut r, 100_000).unwrap();
        assert!(mis_check::is_mis(&g2, &p.black_set()));
    }

    #[test]
    fn mutation_with_non_rebindable_switch_is_rejected_untouched() {
        // A switch with no `rebind_graph` override declines topology
        // changes; the process must report Unsupported without mutating
        // anything.
        struct FrozenSwitch(usize);
        impl SwitchProcess for FrozenSwitch {
            fn n(&self) -> usize {
                self.0
            }
            fn step(&mut self, _rng: &mut dyn RngCore) {}
            fn step_counter(&mut self, _counter: &CounterRng) {}
            fn is_on(&self, _u: VertexId) -> bool {
                true
            }
            fn states_per_vertex(&self) -> usize {
                1
            }
            fn random_bits_used(&self) -> u64 {
                0
            }
        }

        let g = generators::path(4);
        let colors = vec![
            ThreeColor::White,
            ThreeColor::Black,
            ThreeColor::Gray,
            ThreeColor::White,
        ];
        let mut p = ThreeColorProcess::new(&g, colors.clone(), FrozenSwitch(4));
        let before_counts = p.counts();
        let mut delta = GraphDelta::new();
        delta.add_vertex([0]);
        assert_eq!(p.apply_mutation(&delta), Err(MutationError::Unsupported));
        assert_eq!(p.colors(), colors);
        assert_eq!(p.counts(), before_counts);
        assert_eq!(p.n(), 4);
    }

    #[test]
    fn invalid_mutation_leaves_state_untouched() {
        let mut r = rng(7);
        let g = generators::path(4);
        let mut p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r);
        let before_colors = p.colors();
        let before_counts = p.counts();
        let mut delta = GraphDelta::new();
        delta.add_edge(1, 1); // self-loop
        assert!(p.apply_mutation(&delta).is_err());
        assert_eq!(p.colors(), before_colors);
        assert_eq!(p.counts(), before_counts);
        assert_eq!(p.n(), 4);
    }

    #[test]
    fn eighteen_states_with_randomized_switch() {
        let g = generators::path(4);
        let mut r = rng(0);
        let p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r);
        assert_eq!(p.states_per_vertex(), 18);
    }

    #[test]
    fn gray_waits_for_switch_then_becomes_white() {
        // Single edge, both endpoints black: each flips a coin between black
        // and gray. Force a deterministic scenario with the oracle switch:
        // off for 5 rounds then on.
        let g = generators::path(2);
        let colors = vec![ThreeColor::Gray, ThreeColor::White];
        // Switch: off for first 3 rounds, then on for 1, repeating (on_rounds
        // counts from round 0, so use off-first by starting on=0? The fixed
        // switch is on first; use on_rounds=0 is invalid, so emulate
        // off-first by a long on period and checking behaviour instead).
        let switch = FixedPeriodSwitch::new(2, 1, 3);
        let mut p = ThreeColorProcess::new(&g, colors, switch);
        // Round 1 uses σ_0 = on, so the gray vertex is released to white
        // immediately; the white vertex 1 has no black neighbor so it flips.
        let mut r = rng(1);
        p.step(&mut r);
        assert_ne!(p.color(0), ThreeColor::Gray);
    }

    #[test]
    fn parked_gray_vertex_turns_white_one_round_after_its_clock_turns_on() {
        // Vertex 1 is stable black, so gray vertex 0 only waits for its
        // switch. The clock is on in rounds ≡ 0 (mod 4) and starts at round
        // 1, off. Every step path must keep vertex 0 off the frontier while
        // the clock is off and release it the round after it turns on.
        let g = generators::path(2);
        for mode in [
            ExecutionMode::Sequential,
            ExecutionMode::Parallel { threads: 2 },
        ] {
            for strategy in [RoundStrategy::Sparse, RoundStrategy::Dense] {
                let ctx = format!("{mode:?}, {strategy:?}");
                let mut switch = FixedPeriodSwitch::new(2, 1, 3);
                switch.step(&mut rng(0));
                let mut p =
                    ThreeColorProcess::new(&g, vec![ThreeColor::Gray, ThreeColor::Black], switch);
                p.set_execution(mode, 5);
                p.set_strategy(strategy);
                let mut r = rng(1);
                for _ in 0..3 {
                    assert!(!p.engine().is_pending(0), "parked while off: {ctx}");
                    assert_eq!(p.engine().frontier_len(), 0, "{ctx}");
                    p.step(&mut r);
                    assert_eq!(p.color(0), ThreeColor::Gray, "{ctx}");
                }
                assert!(p.switch().is_on(0), "{ctx}");
                assert!(p.engine().is_pending(0), "re-queued when on: {ctx}");
                p.step(&mut r);
                assert_eq!(p.color(0), ThreeColor::White, "{ctx}");
                assert_eq!(p.engine().frontier_len(), 0, "{ctx}");
            }
        }
    }

    #[test]
    fn switch_level_fault_parks_or_requeues_a_gray_vertex() {
        let g = generators::path(2);
        let switch = RandomizedLogSwitch::new(&g, vec![5, 5], DEFAULT_ZETA);
        let mut p = ThreeColorProcess::new(&g, vec![ThreeColor::Gray, ThreeColor::Black], switch);
        p.set_strategy(RoundStrategy::Sparse);
        let mut r = rng(2);
        assert!(!p.engine().is_pending(0), "level 5 is off: parked");
        p.set_switch_level(0, 2);
        assert!(p.engine().is_pending(0), "an on level re-queues it at once");
        p.set_switch_level(0, 3);
        assert!(!p.engine().is_pending(0), "an off level parks it again");
        p.step(&mut r);
        assert_eq!(p.color(0), ThreeColor::Gray);
        assert!(!p.switch().is_on(0));
        p.set_switch_level(0, 1);
        assert!(p.engine().is_pending(0));
        p.step(&mut r);
        assert_eq!(
            p.color(0),
            ThreeColor::White,
            "white one round after the fault turned its switch on"
        );
    }

    #[test]
    fn gray_is_never_active_and_blocks_nothing() {
        let g = generators::path(2);
        // Vertex 0 gray, vertex 1 black: vertex 1 has no *black* neighbor so
        // it is stable; vertex 0 is not active.
        let switch = FixedPeriodSwitch::new(2, 1, 1);
        let p = ThreeColorProcess::new(&g, vec![ThreeColor::Gray, ThreeColor::Black], switch);
        assert!(!p.is_active(0));
        assert!(p.is_stable_black(1));
        assert!(
            p.is_stable(0),
            "gray neighbor of a stable black vertex is stable"
        );
        assert!(p.is_stabilized());
    }

    #[test]
    fn black_with_black_neighbor_becomes_black_or_gray_never_white() {
        let g = generators::complete(2);
        let switch = FixedPeriodSwitch::new(2, 1, 1);
        let mut p = ThreeColorProcess::new(&g, vec![ThreeColor::Black, ThreeColor::Black], switch);
        let mut r = rng(3);
        p.step(&mut r);
        for u in 0..2 {
            assert_ne!(
                p.color(u),
                ThreeColor::White,
                "black vertex with black neighbor may not jump to white"
            );
        }
    }

    #[test]
    fn stabilizes_to_mis_on_various_graphs() {
        let mut r = rng(7);
        let graphs = vec![
            generators::complete(32),
            generators::path(40),
            generators::star(30),
            generators::random_tree(80, &mut r),
            generators::gnp(120, 0.1, &mut r),
            generators::gnp(80, 0.7, &mut r),
            generators::disjoint_cliques(4, 8),
            Graph::empty(10),
        ];
        for (i, g) in graphs.into_iter().enumerate() {
            for init in [
                InitStrategy::AllWhite,
                InitStrategy::AllBlack,
                InitStrategy::Random,
            ] {
                let mut p = ThreeColorProcess::with_randomized_switch(&g, init, &mut r);
                p.run_to_stabilization(&mut r, 200_000)
                    .unwrap_or_else(|e| panic!("graph {i} with {init:?}: {e}"));
                assert!(
                    mis_check::is_mis(&g, &p.black_set()),
                    "graph {i}, init {init:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_mode_stabilizes_and_is_thread_count_invariant() {
        let g = generators::gnp(90, 0.1, &mut rng(81));
        let mut outcomes = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut r = rng(82);
            let mut p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r);
            p.set_execution(ExecutionMode::Parallel { threads }, 17);
            for _ in 0..60 {
                if p.is_stabilized() {
                    break;
                }
                p.step(&mut r);
            }
            outcomes.push((p.colors(), p.black_set(), p.counts(), p.random_bits_used()));
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], outcomes[2]);
        // Parallel mode also reaches a valid MIS.
        let mut r = rng(83);
        let mut p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::AllBlack, &mut r);
        p.set_execution(ExecutionMode::Parallel { threads: 2 }, 18);
        p.run_to_stabilization(&mut r, 200_000).unwrap();
        assert!(mis_check::is_mis(&g, &p.black_set()));
    }

    #[test]
    fn gray_set_tracks_gray_vertices() {
        let mut r = rng(11);
        let g = generators::gnp(60, 0.2, &mut r);
        let mut p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::AllBlack, &mut r);
        for _ in 0..30 {
            let gray = p.gray_set();
            for u in g.vertices() {
                assert_eq!(gray.contains(u), p.color(u) == ThreeColor::Gray);
            }
            let c = p.counts();
            assert_eq!(c.black + c.non_black, g.n());
            if p.is_stabilized() {
                break;
            }
            p.step(&mut r);
        }
    }

    #[test]
    fn stability_is_monotone() {
        let mut r = rng(13);
        let g = generators::gnp(70, 0.15, &mut r);
        let mut p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r);
        let mut stable: Vec<bool> = vec![false; g.n()];
        for _ in 0..400 {
            for u in g.vertices() {
                if stable[u] {
                    assert!(p.is_stable(u), "vertex {u} lost stability");
                } else if p.is_stable(u) {
                    stable[u] = true;
                }
            }
            if p.is_stabilized() {
                break;
            }
            p.step(&mut r);
        }
    }

    #[test]
    fn fast_step_matches_reference_step() {
        let g = generators::gnp(60, 0.12, &mut rng(47));
        let mut r_fast = rng(53);
        let mut r_ref = rng(53);
        let mut fast =
            ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r_fast);
        let mut reference =
            ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r_ref);
        for round in 0..80 {
            assert_eq!(fast.counts(), reference.counts(), "round {round}");
            fast.step(&mut r_fast);
            reference.step_reference(&mut r_ref);
            assert_eq!(fast.colors(), reference.colors(), "round {round}");
            assert_eq!(fast.random_bits_used(), reference.random_bits_used());
        }
    }

    #[test]
    #[should_panic(expected = "switch must be defined over the same vertex set")]
    fn switch_size_mismatch_panics() {
        let g = generators::path(3);
        let switch = FixedPeriodSwitch::new(5, 1, 1);
        ThreeColorProcess::new(&g, vec![ThreeColor::White; 3], switch);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The 3-color process stabilizes to an MIS from arbitrary colors on
        /// random graphs across the full density range.
        #[test]
        fn stabilizes_from_arbitrary_states(seed in 0u64..10_000, n in 1usize..50, p_edge in 0.0f64..1.0) {
            let mut r = rng(seed);
            let g = generators::gnp(n, p_edge, &mut r);
            let mut proc = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r);
            proc.run_to_stabilization(&mut r, 400_000).unwrap();
            prop_assert!(mis_check::is_mis(&g, &proc.black_set()));
        }
    }
}
