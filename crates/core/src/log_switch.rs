use std::sync::Arc;

use mis_graph::{Graph, VertexId, VertexSet};
use rand::{Rng, RngCore};

use crate::counter_rng::{CounterRng, DRAW_SWITCH};
use crate::init::InitStrategy;
use crate::mutation::{GraphRef, MutationError};

/// Default value of the switch probability parameter `ζ`.
///
/// The paper instantiates the 3-color process with `a = 512` and `ζ = 4/a =
/// 2⁻⁷` (Definition 28 and Section 5.2), so the switch needs at most 7 random
/// bits per round per vertex.
pub const DEFAULT_ZETA: f64 = 1.0 / 128.0;

/// A *logarithmic switch* process (Definition 25): a sub-process that outputs
/// an `on`/`off` value per vertex per round, gating the gray→white transition
/// of the 3-color MIS process.
///
/// The abstract properties an `(a, b)`-switch should satisfy are:
///
/// * **(S1)** every run of consecutive `off` values has length at most
///   `a ln n`;
/// * **(S2)** if `diam(G) ≤ 2`, after a warm-up every `off`-run has length at
///   least `(a/6) ln n`;
/// * **(S3)** if `diam(G) ≤ 2`, after a constant warm-up every `on`-run has
///   length at most `b`.
///
/// [`RandomizedLogSwitch`] satisfies them w.h.p. (Lemma 27);
/// [`FixedPeriodSwitch`] is a deterministic oracle used for tests and
/// ablations.
///
/// `Sync` is a supertrait so the 3-color process's parallel decide phase
/// can read `is_on` from multiple threads.
pub trait SwitchProcess: Sync {
    /// Number of vertices.
    fn n(&self) -> usize;

    /// Executes one synchronous round of the switch.
    fn step(&mut self, rng: &mut dyn RngCore);

    /// Executes one synchronous round by a naive full sweep over every
    /// vertex: the same levels and draws as [`step`](Self::step), retained
    /// as the oracle for differential tests. The default is `step`.
    fn step_reference(&mut self, rng: &mut dyn RngCore) {
        self.step(rng);
    }

    /// Executes one synchronous round with counter-based randomness: every
    /// coin is the pure function `counter(vertex, round, DRAW_SWITCH)` of
    /// the switch's own round number, so the result is independent of
    /// evaluation order and of the caller's thread count.
    fn step_counter(&mut self, counter: &CounterRng);

    /// The switch output `σ_t(u)` for the current round: `true` means `on`.
    fn is_on(&self, u: VertexId) -> bool;

    /// Calls `f` for every vertex whose output [`is_on`](Self::is_on) may
    /// have changed in the most recent step (a superset is allowed). The
    /// 3-color process re-queues exactly these gray vertices, which wait
    /// off its frontier while their switch is off. The default reports
    /// every vertex, which is always correct.
    fn for_each_changed(&self, f: &mut dyn FnMut(VertexId)) {
        (0..self.n()).for_each(f);
    }

    /// Number of distinct states the switch keeps per vertex.
    fn states_per_vertex(&self) -> usize;

    /// The level of `u`: the switch memory a transient fault overwrites.
    ///
    /// # Panics
    ///
    /// The default panics: the switch keeps no per-vertex level (the
    /// [`FixedPeriodSwitch`] oracle runs one global clock).
    fn level(&self, u: VertexId) -> u8 {
        let _ = u;
        panic!("this switch keeps no per-vertex level")
    }

    /// Overwrites the level of `u` (fault injection).
    ///
    /// # Panics
    ///
    /// The default panics, like [`level`](Self::level); implementations
    /// panic if `level` is out of range.
    fn set_level(&mut self, u: VertexId, level: u8) {
        let _ = (u, level);
        panic!("this switch keeps no per-vertex level")
    }

    /// Total random bits drawn so far.
    fn random_bits_used(&self) -> u64;

    /// Rebinds the switch to a mutated graph (same vertex ids, possibly
    /// more of them — topology mutations never renumber). The parent
    /// process passes the **same** `Arc` it adopted, so both sub-processes
    /// share one graph instance. Per-vertex switch state for pre-existing
    /// vertices must be preserved; joined vertices may start at any valid
    /// state (the switch is self-stabilizing).
    ///
    /// The default declines with [`MutationError::Unsupported`], leaving
    /// the switch untouched; switches that can follow topology changes
    /// override it.
    fn rebind_graph(&mut self, graph: &Arc<Graph>) -> Result<(), MutationError> {
        let _ = graph;
        Err(MutationError::Unsupported)
    }
}

/// The **randomized logarithmic switch** of Definition 26.
///
/// Each vertex keeps a *level* in `{0, …, 5}`. In each round a vertex at
/// level 5 draws a biased coin (`P[reset] = ζ`); a vertex resets to level 5
/// if it is at level 0 or if it is at level 5 and the coin did *not* fire;
/// otherwise it moves to `max{level(v) : v ∈ N⁺(u)} − 1`. The switch output
/// is `on` when the level is at most 2 and `off` otherwise.
///
/// The core mechanism is the `RandPhase` phase clock of Emek & Keren (2021)
/// for diameter bound `D = 3`, but — as the paper stresses — it is used here
/// as a local, non-synchronized counter, and is run on graphs of arbitrary
/// unknown diameter.
///
/// # Incremental rounds
///
/// A step evaluates only the vertices that can move, and evaluates each in
/// `O(1)`. Every level-5 vertex draws its coin, in ascending vertex order
/// (the same stream and counter draws as a full sweep); a fired coin moves it
/// to 4 without reading neighbors. [`step`](SwitchProcess::step) reads the
/// `|L₅|` coin words, the words `gen_bool` would take one at a time, in the
/// same order, with one `fill_bytes` call per chunk of 256 words, and
/// compares each as `gen_bool` does. Below level 5, the max rule reads two
/// exact per-vertex counters instead of the neighbor list: `holders[v]`,
/// the neighbors at level `ℓ_v + 1`, and `above[v]`, the highest neighbor
/// level above `ℓ_v + 1` (0 if there is none). Then `max N⁺(v)` is
/// `above[v]` if that is positive, else `ℓ_v + 1` if `v` has a holder, else
/// `ℓ_v`.
///
/// The rule runs only on the *pending* set `P`. This is exact under one
/// invariant: every unmarked vertex at levels 1–4 sits at `max N⁺(v) − 1`,
/// the rule's fixed point (`above[v] = 0` and `holders[v] > 0`). A level-0
/// vertex is always marked, because reaching level 0 is itself a move. Every
/// pending vertex is evaluated, so a vertex that does not move in a step had
/// no neighbor above `ℓ_v + 1` when the step began.
///
/// A step applies its moves in two passes. The first sets every mover's new
/// level. The second walks each mover `u`'s neighbor list once: it recounts
/// `u`'s own counters from the new levels and marks `u` only if it is off
/// its fixed point; at each neighbor `v` that did not move it adjusts
/// `holders[v]` and `above[v]` by the move and marks `v` if its holders ran
/// out or `u` rose above `ℓ_v + 1`. A neighbor that moved recounts itself.
/// [`set_level`](SwitchProcess::set_level) recounts `N⁺(u)` from scratch and
/// marks all of it, since a fault can lower a neighbor's maximum, which a
/// counter adjustment cannot see; construction,
/// [`rebind_graph`](SwitchProcess::rebind_graph) and a full sweep recount
/// and mark every vertex.
///
/// A step costs `O(|L₅| + |P| + Σ_{u moved} deg u + n/64)` for the level-5
/// set `L₅`, instead of the `O(n + m)` of
/// [`step_reference`](SwitchProcess::step_reference), which keeps the full
/// sweep: a vertex's neighbor list is read only when that vertex moves.
///
/// # Example
///
/// ```
/// use mis_core::{RandomizedLogSwitch, SwitchProcess, DEFAULT_ZETA, init::InitStrategy};
/// use mis_graph::generators;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
/// let g = generators::complete(50);
/// let mut sw = RandomizedLogSwitch::with_init(&g, InitStrategy::Random, DEFAULT_ZETA, &mut rng);
/// for _ in 0..100 { sw.step(&mut rng); }
/// let _on = sw.is_on(0);
/// ```
#[derive(Debug, Clone)]
pub struct RandomizedLogSwitch<'g> {
    graph: GraphRef<'g>,
    levels: Vec<u8>,
    /// Scratch: during a step, the next level of every vertex that moves;
    /// once the step has applied its moves, their old level.
    next: Vec<u8>,
    /// Per vertex `v`: how many neighbors sit at level `ℓ_v + 1`.
    holders: Vec<u32>,
    /// Per vertex `v`: the highest neighbor level above `ℓ_v + 1`, or 0.
    above: Vec<u8>,
    /// The vertices at level 5; each draws a coin every step.
    at_five: VertexSet,
    /// The vertices whose level moved in the most recent step (every vertex
    /// after construction, a graph rebind, or a full sweep).
    changed: VertexSet,
    /// The vertices the next step runs the max rule on: those a move or a
    /// fault may have pushed off `max N⁺(v) − 1` (see the type-level docs).
    /// Level-5 vertices in it are skipped; their coin decides.
    pending: VertexSet,
    zeta: f64,
    /// Random bits one ζ-coin costs: `⌈log₂(1/ζ)⌉`.
    coin_bits: u64,
    round: usize,
    random_bits: u64,
}

impl<'g> RandomizedLogSwitch<'g> {
    /// Creates the switch with an explicit initial level vector.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != graph.n()`, any level exceeds 5, or
    /// `zeta` is not in `(0, 1)`.
    pub fn new(graph: &'g Graph, levels: Vec<u8>, zeta: f64) -> Self {
        assert_eq!(
            levels.len(),
            graph.n(),
            "initial level vector length must equal the number of vertices"
        );
        assert!(levels.iter().all(|&l| l <= 5), "levels must be in 0..=5");
        assert!(
            zeta > 0.0 && zeta < 1.0,
            "zeta must be in (0, 1), got {zeta}"
        );
        let mut sw = RandomizedLogSwitch {
            next: levels.clone(),
            graph: GraphRef::Borrowed(graph),
            levels,
            holders: Vec::new(),
            above: Vec::new(),
            at_five: VertexSet::new(0),
            changed: VertexSet::new(0),
            pending: VertexSet::new(0),
            zeta,
            coin_bits: (1.0 / zeta).log2().ceil() as u64,
            round: 0,
            random_bits: 0,
        };
        sw.mark_all();
        sw
    }

    /// Creates the switch with levels drawn from an [`InitStrategy`].
    pub fn with_init<R: Rng + ?Sized>(
        graph: &'g Graph,
        init: InitStrategy,
        zeta: f64,
        rng: &mut R,
    ) -> Self {
        Self::new(graph, init.switch_levels(graph.n(), rng), zeta)
    }

    /// The switch probability parameter `ζ`.
    pub fn zeta(&self) -> f64 {
        self.zeta
    }

    /// Number of rounds executed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Rebuilds the level-5 set and both counters from the levels and marks
    /// every vertex pending and changed, so the next step evaluates all of
    /// them.
    fn mark_all(&mut self) {
        let graph = self.graph.get();
        let n = self.levels.len();
        self.holders.resize(n, 0);
        self.above.resize(n, 0);
        for u in 0..n {
            (self.holders[u], self.above[u]) = count_fields(graph, &self.levels, u);
        }
        let levels = &self.levels;
        self.at_five = VertexSet::from_indices(n, (0..n).filter(|&u| levels[u] == 5));
        self.changed = VertexSet::full(n);
        self.pending = VertexSet::full(n);
    }

    /// One incremental round, shared by both randomness models: `fires(u)`
    /// is the ζ-coin of level-5 vertex `u`, called in ascending vertex
    /// order.
    fn advance(&mut self, mut fires: impl FnMut(VertexId) -> bool) {
        let graph = self.graph.get();
        let RandomizedLogSwitch {
            levels,
            next,
            holders,
            above,
            at_five,
            changed,
            pending,
            ..
        } = self;
        // Slices keep the lengths out of memory while the walk stores.
        let (levels, next) = (&mut levels[..], &mut next[..]);
        let (holders, above) = (&mut holders[..], &mut above[..]);
        changed.clear();
        // A fired coin moves u to max N⁺(u) − 1 = 4: its own 5 is the
        // maximum, so no neighbor needs reading.
        for u in at_five.iter() {
            if fires(u) {
                next[u] = 4;
                changed.insert(u);
            }
        }
        self.random_bits += self.coin_bits * at_five.len() as u64;
        for u in pending.iter() {
            let new = match levels[u] {
                5 => continue,
                0 => 5,
                level => max_rule(level, holders[u], above[u]),
            };
            if new != levels[u] {
                next[u] = new;
                changed.insert(u);
            }
        }
        pending.clear();
        // Every level this step read is decided: apply the moves, leaving
        // each mover's old level in `next`.
        for u in changed.iter() {
            std::mem::swap(&mut levels[u], &mut next[u]);
            track_five(at_five, u, next[u], levels[u]);
        }
        // Then bring the counters to the new levels, one walk per mover: it
        // recounts the mover's own and adjusts those of the neighbors that
        // stayed. Every such neighbor sat at its fixed point, so before the
        // step none of its neighbors was above its holders' level. The
        // adjustment is arithmetic on masks, with no branch per neighbor: a
        // neighbor that moved gets a zero adjustment and recounts itself.
        for u in changed.iter() {
            let (from, to) = (next[u], levels[u]);
            let (mut own_holders, mut own_above) = (0, 0);
            for v in graph.neighbors(u) {
                let lv = levels[v];
                own_holders += u32::from(lv == to + 1);
                own_above = own_above.max(if lv > to + 1 { lv } else { 0 });
                let stays = !changed.contains(v);
                let hold = lv + 1;
                debug_assert!(!stays || from <= hold);
                let rises = stays & (to > hold);
                let leaves = stays & (from == hold);
                let h = holders[v] + u32::from(stays & (to == hold)) - u32::from(leaves);
                holders[v] = h;
                above[v] = above[v].max(if rises { to } else { 0 });
                pending.insert_if(v, rises | (leaves & (h == 0)));
            }
            (holders[u], above[u]) = (own_holders, own_above);
            if off_fixed_point(to, own_holders, own_above) {
                pending.insert(u);
            }
        }
        self.round += 1;
    }

    /// One naive round: every vertex evaluated by Definition 26 in
    /// ascending order. `fires` is as in [`advance`](Self::advance).
    fn full_sweep(&mut self, mut fires: impl FnMut(VertexId) -> bool) {
        let graph = self.graph.get();
        for u in graph.vertices() {
            let lvl = self.levels[u];
            let reset = if lvl == 5 {
                // b = 0 with probability ζ; b = 1 keeps the vertex at level 5.
                self.random_bits += self.coin_bits;
                !fires(u)
            } else {
                false
            };
            self.next[u] = if reset || lvl == 0 {
                5
            } else {
                max_closed(graph, &self.levels, u) - 1
            };
        }
        std::mem::swap(&mut self.levels, &mut self.next);
        self.round += 1;
        // The sweep tracked no moves: the next step evaluates every vertex.
        self.mark_all();
    }
}

/// Coin words [`RandomizedLogSwitch::step`] reads with one `fill_bytes`:
/// 2 KiB on the stack, whatever `|L₅|` is.
const COIN_CHUNK: usize = 256;

/// The max rule at a vertex at level 1–4 from its counters: `max N⁺(u) − 1`,
/// where the maximum is `above` if positive, else `level + 1` if some
/// neighbor holds it, else `level`.
fn max_rule(level: u8, holders: u32, above: u8) -> u8 {
    if above > 0 {
        above - 1
    } else if holders > 0 {
        level
    } else {
        level - 1
    }
}

/// Whether the next step must evaluate a vertex at `level` with these
/// counters: level 0 resets, and levels 1–4 move unless they sit at the max
/// rule's fixed point. Level 5 waits for its coin.
fn off_fixed_point(level: u8, holders: u32, above: u8) -> bool {
    match level {
        0 => true,
        5 => false,
        _ => above > 0 || holders == 0,
    }
}

/// `(holders, above)` of `u`, counted from its neighbors' levels.
fn count_fields(graph: &Graph, levels: &[u8], u: VertexId) -> (u32, u8) {
    let hold = levels[u] + 1;
    graph
        .neighbors(u)
        .iter()
        .map(|v| levels[v])
        .fold((0, 0), |(holders, above), lv| {
            if lv == hold {
                (holders + 1, above)
            } else if lv > hold {
                (holders, above.max(lv))
            } else {
                (holders, above)
            }
        })
}

/// Keeps the level-5 set in step with a move of `u` from `from` to `to`.
fn track_five(at_five: &mut VertexSet, u: VertexId, from: u8, to: u8) {
    if to == 5 {
        at_five.insert(u);
    } else if from == 5 {
        at_five.remove(u);
    }
}

/// `max{levels[v] : v ∈ N⁺(u)}`.
fn max_closed(graph: &Graph, levels: &[u8], u: VertexId) -> u8 {
    graph
        .neighbors(u)
        .iter()
        .map(|v| levels[v])
        .max()
        .unwrap_or(0)
        .max(levels[u])
}

impl SwitchProcess for RandomizedLogSwitch<'_> {
    fn n(&self) -> usize {
        self.graph.get().n()
    }

    fn step(&mut self, rng: &mut dyn RngCore) {
        // The step's coin words come from the stream in chunks of at most
        // `COIN_CHUNK` words, each read with one `fill_bytes`; the last chunk
        // reads only the coins left, so the stream ends where `|L₅|` single
        // reads would leave it. Each word is compared as `gen_bool` does.
        let threshold = self.zeta * (1u64 << 53) as f64;
        let mut chunk = [0u8; 8 * COIN_CHUNK];
        let (mut left, mut read, mut at) = (self.at_five.len(), 0, 0);
        self.advance(|_| {
            if at == read {
                assert!(left > 0, "one word per level-5 vertex");
                read = 8 * left.min(COIN_CHUNK);
                left -= read / 8;
                rng.fill_bytes(&mut chunk[..read]);
                at = 0;
            }
            let word = u64::from_le_bytes(chunk[at..at + 8].try_into().expect("eight bytes"));
            at += 8;
            ((word >> 11) as f64) < threshold
        });
    }

    fn step_reference(&mut self, rng: &mut dyn RngCore) {
        let zeta = self.zeta;
        self.full_sweep(|_| rng.gen_bool(zeta));
    }

    fn step_counter(&mut self, counter: &CounterRng) {
        let (zeta, round) = (self.zeta, self.round as u64);
        self.advance(|u| counter.gen_bool(zeta, u as u64, round, DRAW_SWITCH));
    }

    fn is_on(&self, u: VertexId) -> bool {
        self.levels[u] <= 2
    }

    fn for_each_changed(&self, f: &mut dyn FnMut(VertexId)) {
        self.changed.iter().for_each(f);
    }

    fn states_per_vertex(&self) -> usize {
        6
    }

    fn random_bits_used(&self) -> u64 {
        self.random_bits
    }

    /// Current level (`0..=5`) of vertex `u`.
    fn level(&self, u: VertexId) -> u8 {
        self.levels[u]
    }

    /// Overwrites the level of one vertex (fault injection). A fault can
    /// lower a neighbor's maximum, which no counter adjustment can see, so
    /// the counters of `N⁺(u)` are recounted and all of it is marked.
    fn set_level(&mut self, u: VertexId, level: u8) {
        assert!(level <= 5, "levels must be in 0..=5");
        let from = std::mem::replace(&mut self.levels[u], level);
        if from == level {
            return;
        }
        track_five(&mut self.at_five, u, from, level);
        let graph = self.graph.get();
        for w in std::iter::once(u).chain(graph.neighbors(u)) {
            (self.holders[w], self.above[w]) = count_fields(graph, &self.levels, w);
            self.pending.insert(w);
        }
    }

    fn rebind_graph(&mut self, graph: &Arc<Graph>) -> Result<(), MutationError> {
        // Joined vertices start at level 5 (the waiting level, and the
        // state a level-0 vertex resets to) — any level in 0..=5 is valid
        // since the switch is self-stabilizing, but 5 keeps their output
        // `off` until the clock synchronizes them. New edges can break any
        // vertex's fixed point, so the next step evaluates every vertex.
        let new_n = graph.n();
        self.levels.resize(new_n, 5);
        self.next.resize(new_n, 5);
        self.graph = GraphRef::Owned(Arc::clone(graph));
        self.mark_all();
        Ok(())
    }
}

/// A deterministic oracle switch used for tests and ablations: all vertices
/// share a global clock that is `on` for `on_rounds` rounds and then `off`
/// for `off_rounds` rounds, repeating.
///
/// It trivially satisfies the `(a, b)`-switch contract with
/// `a ln n = off_rounds` and `b = on_rounds`, which makes it useful for
/// separating "the switch misbehaves" from "the 3-color dynamics misbehave"
/// in tests.
#[derive(Debug, Clone)]
pub struct FixedPeriodSwitch {
    n: usize,
    on_rounds: usize,
    off_rounds: usize,
    round: usize,
}

impl FixedPeriodSwitch {
    /// Creates the oracle switch.
    ///
    /// # Panics
    ///
    /// Panics if `on_rounds + off_rounds == 0`.
    pub fn new(n: usize, on_rounds: usize, off_rounds: usize) -> Self {
        assert!(on_rounds + off_rounds > 0, "the period must be positive");
        FixedPeriodSwitch {
            n,
            on_rounds,
            off_rounds,
            round: 0,
        }
    }

    /// The clock's output in round `round`.
    fn on_at(&self, round: usize) -> bool {
        round % (self.on_rounds + self.off_rounds) < self.on_rounds
    }
}

impl SwitchProcess for FixedPeriodSwitch {
    fn n(&self) -> usize {
        self.n
    }

    fn step(&mut self, _rng: &mut dyn RngCore) {
        self.round += 1;
    }

    fn step_counter(&mut self, _counter: &CounterRng) {
        // The oracle switch is deterministic: counter mode is the same step.
        self.round += 1;
    }

    fn is_on(&self, _u: VertexId) -> bool {
        self.on_at(self.round)
    }

    fn for_each_changed(&self, f: &mut dyn FnMut(VertexId)) {
        // One global clock: every output flips in the same round, or none.
        if self.round > 0 && self.on_at(self.round) != self.on_at(self.round - 1) {
            (0..self.n).for_each(f);
        }
    }

    fn states_per_vertex(&self) -> usize {
        self.on_rounds + self.off_rounds
    }

    fn random_bits_used(&self) -> u64 {
        0
    }

    fn rebind_graph(&mut self, graph: &Arc<Graph>) -> Result<(), MutationError> {
        // The oracle switch reads no adjacency; it only tracks the vertex
        // count (its global clock is unaffected by topology).
        self.n = graph.n();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::{generators, GraphDelta};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Records, for one vertex, the lengths of maximal on-runs and off-runs
    /// over a simulation of `rounds` rounds (ignoring the final partial run).
    fn run_lengths(
        sw: &mut RandomizedLogSwitch<'_>,
        u: VertexId,
        rounds: usize,
        rng: &mut ChaCha8Rng,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut on_runs = Vec::new();
        let mut off_runs = Vec::new();
        let mut current_on = sw.is_on(u);
        let mut len = 1usize;
        for _ in 0..rounds {
            sw.step(rng);
            let now_on = sw.is_on(u);
            if now_on == current_on {
                len += 1;
            } else {
                if current_on {
                    on_runs.push(len);
                } else {
                    off_runs.push(len);
                }
                current_on = now_on;
                len = 1;
            }
        }
        (on_runs, off_runs)
    }

    #[test]
    #[should_panic(expected = "zeta must be in (0, 1)")]
    fn invalid_zeta_panics() {
        let g = generators::path(3);
        RandomizedLogSwitch::new(&g, vec![0; 3], 0.0);
    }

    #[test]
    #[should_panic(expected = "levels must be in 0..=5")]
    fn invalid_levels_panic() {
        let g = generators::path(3);
        RandomizedLogSwitch::new(&g, vec![0, 9, 0], DEFAULT_ZETA);
    }

    #[test]
    fn levels_stay_in_range_and_level0_resets() {
        let g = generators::star(20);
        let mut r = rng(1);
        let mut sw = RandomizedLogSwitch::with_init(&g, InitStrategy::Random, DEFAULT_ZETA, &mut r);
        for _ in 0..500 {
            sw.step(&mut r);
            for u in g.vertices() {
                assert!(sw.level(u) <= 5);
            }
        }
        // A vertex forced to level 0 must be at level 5 after one step.
        sw.set_level(3, 0);
        sw.step(&mut r);
        assert_eq!(sw.level(3), 5);
    }

    /// Property (S1) of Lemma 27: off-runs are at most ~a ln n long.
    #[test]
    fn s1_off_runs_are_logarithmically_bounded() {
        let g = generators::complete(64);
        let n = g.n() as f64;
        let zeta = 1.0 / 16.0; // larger zeta keeps the test fast; a = 4/zeta
        let a = 4.0 / zeta;
        let mut r = rng(2);
        let mut sw = RandomizedLogSwitch::with_init(&g, InitStrategy::Random, zeta, &mut r);
        let (_, off_runs) = run_lengths(&mut sw, 0, 4000, &mut r);
        assert!(!off_runs.is_empty());
        let max_off = off_runs.iter().copied().max().unwrap();
        assert!(
            (max_off as f64) <= a * n.ln() + 6.0,
            "off-run of length {max_off} exceeds a ln n = {}",
            a * n.ln()
        );
    }

    /// Properties (S2)/(S3): on a diameter-2 graph, after synchronization the
    /// on-runs are short (≤ 3) and the off-runs are long (≥ (a/6) ln n).
    #[test]
    fn s2_s3_on_diameter_two_graphs() {
        let g = generators::complete(64);
        let n = g.n() as f64;
        let zeta = 1.0 / 16.0;
        let a = 4.0 / zeta;
        let mut r = rng(3);
        let mut sw = RandomizedLogSwitch::with_init(&g, InitStrategy::Random, zeta, &mut r);
        // Warm up past the synchronization point (t* + 2 ≤ 7 in the proof).
        for _ in 0..50 {
            sw.step(&mut r);
        }
        let (on_runs, off_runs) = run_lengths(&mut sw, 0, 4000, &mut r);
        assert!(!on_runs.is_empty() && !off_runs.is_empty());
        assert!(
            on_runs.iter().all(|&l| l <= 3),
            "on-runs must have length at most b = 3, got {on_runs:?}"
        );
        // Skip the first off-run, which may be a partial run started during warm-up.
        let min_off = off_runs.iter().skip(1).copied().min().unwrap_or(usize::MAX);
        assert!(
            (min_off as f64) >= a / 6.0 * n.ln() - 1.0,
            "off-run of length {min_off} is below (a/6) ln n = {}",
            a / 6.0 * n.ln()
        );
    }

    #[test]
    fn low_levels_are_synchronized_on_diameter_two_graphs() {
        // Lemma 27's proof: after a constant warm-up, whenever some vertex
        // reaches level 2, *all* vertices are at level 2 in that round, then
        // all at level 1, then all at level 0 (they only desynchronize while
        // waiting at level 5).
        let g = generators::complete(40);
        let mut r = rng(4);
        let mut sw = RandomizedLogSwitch::with_init(&g, InitStrategy::Random, DEFAULT_ZETA, &mut r);
        for _ in 0..20 {
            sw.step(&mut r);
        }
        for _ in 0..2000 {
            sw.step(&mut r);
            if let Some(low) = g.vertices().map(|u| sw.level(u)).find(|&l| l <= 2) {
                assert!(
                    g.vertices().all(|u| sw.level(u) == low),
                    "a vertex reached level {low} while others lag behind"
                );
            }
        }
    }

    #[test]
    fn changed_report_covers_every_output_flip() {
        let g = generators::gnp(300, 0.02, &mut rng(5));
        let mut r = rng(6);
        let mut sw = RandomizedLogSwitch::with_init(&g, InitStrategy::Random, 0.25, &mut r);
        for _ in 0..200 {
            let before: Vec<bool> = g.vertices().map(|u| sw.is_on(u)).collect();
            sw.step(&mut r);
            let mut reported = vec![false; g.n()];
            sw.for_each_changed(&mut |u| reported[u] = true);
            for u in g.vertices() {
                assert!(
                    reported[u] || sw.is_on(u) == before[u],
                    "vertex {u} flipped unreported"
                );
            }
        }
    }

    /// A step whose `|L₅|` is three coin chunks plus one reads four chunks,
    /// the last of one word, and leaves the levels and the stream where the
    /// full sweep's one-word-per-coin reads leave them.
    #[test]
    fn chunked_coin_reads_match_the_full_sweep() {
        let n = 1_000;
        let g = generators::gnp(n, 0.01, &mut rng(11));
        let at_five = 3 * COIN_CHUNK + 1;
        let levels = (0..n)
            .map(|u| if u < at_five { 5 } else { (u % 5) as u8 })
            .collect();
        let mut fast = RandomizedLogSwitch::new(&g, levels, 0.5);
        let mut slow = fast.clone();
        assert_eq!(fast.at_five.len(), at_five);
        let (mut r_fast, mut r_slow) = (rng(12), rng(12));
        fast.step(&mut r_fast);
        slow.step_reference(&mut r_slow);
        assert_eq!(fast.levels, slow.levels);
        assert_eq!(fast.random_bits_used(), slow.random_bits_used());
        assert_eq!(r_fast.next_u64(), r_slow.next_u64(), "stream positions");
    }

    #[test]
    fn coin_bits_follow_zeta() {
        let g = generators::path(10);
        let levels = vec![5, 5, 1, 5, 0, 2, 5, 3, 4, 5];
        for (zeta, bits) in [(DEFAULT_ZETA, 7), (1.0 / 16.0, 4), (0.25, 2), (0.3, 2)] {
            assert_eq!(
                RandomizedLogSwitch::new(&g, levels.clone(), zeta).coin_bits,
                bits
            );
        }
        // With ζ = 1/8, one step charges 3 bits per level-5 vertex, in both
        // the incremental step and the full sweep.
        let mut fast = RandomizedLogSwitch::new(&g, levels.clone(), 1.0 / 8.0);
        let mut slow = fast.clone();
        fast.step(&mut rng(0));
        slow.step_reference(&mut rng(0));
        assert_eq!(fast.random_bits_used(), 3 * 5);
        assert_eq!(slow.random_bits_used(), 3 * 5);
    }

    /// `N⁺(set)`: the set plus every neighbor of a member.
    fn closed_neighborhood(g: &Graph, set: &VertexSet) -> VertexSet {
        let mut closed = set.clone();
        for u in set.iter() {
            for v in g.neighbors(u) {
                closed.insert(v);
            }
        }
        closed
    }

    /// The marking rule's saving, pinned as deterministic counts over 2,000
    /// steps on `gnp_counter(10⁴, 8/n)`: max-rule evaluations against the
    /// `|N⁺(changed) \ L₅|` that re-evaluating the closed neighborhoods of
    /// the moves would cost, plus the coins and moves that pin the
    /// trajectory. A neighbor is marked only when its holders run out or a
    /// mover rises above them, and a mover only when it is off its fixed
    /// point, so evaluations are 13% of that count. The first step
    /// evaluates every vertex under either rule, so the work counts cover
    /// the 1,999 steps after it. Every step's pending set lies inside
    /// `N⁺(changed)`.
    #[test]
    fn pending_marks_halve_max_rule_evaluations() {
        let n = 10_000;
        let g = generators::gnp_counter(n, 8.0 / n as f64, 5);
        let mut r = rng(9);
        let mut sw = RandomizedLogSwitch::with_init(&g, InitStrategy::Random, DEFAULT_ZETA, &mut r);
        let (mut evaluations, mut neighborhood_evaluations, mut coins, mut moves) = (0, 0, 0, 0);
        let mut moved_closed = VertexSet::full(n);
        for i in 0..2_000 {
            if i > 0 {
                evaluations += sw.pending.iter().filter(|&v| sw.levels[v] != 5).count();
                moved_closed.difference_with(&sw.at_five);
                neighborhood_evaluations += moved_closed.len();
                coins += sw.at_five.len();
            }
            sw.step(&mut r);
            moves += sw.changed.len();
            moved_closed = closed_neighborhood(&g, &sw.changed);
            assert!(sw.pending.is_subset(&moved_closed));
        }
        assert_eq!(
            (evaluations, neighborhood_evaluations, coins, moves),
            (131_709, 976_694, 559_375, 142_617)
        );
    }

    #[test]
    fn fixed_period_switch_cycles() {
        let mut sw = FixedPeriodSwitch::new(5, 2, 3);
        let mut r = rng(0);
        let mut pattern = Vec::new();
        let mut reported = Vec::new();
        for _ in 0..10 {
            pattern.push(sw.is_on(0));
            let mut count = 0;
            sw.for_each_changed(&mut |_| count += 1);
            reported.push(count);
            sw.step(&mut r);
        }
        assert_eq!(
            pattern,
            vec![true, true, false, false, false, true, true, false, false, false]
        );
        // Every vertex is reported exactly in the rounds whose output flipped.
        assert_eq!(reported, vec![0, 0, 5, 0, 0, 5, 0, 5, 0, 0]);
        assert_eq!(sw.states_per_vertex(), 5);
        assert_eq!(sw.random_bits_used(), 0);
        assert_eq!(sw.n(), 5);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        FixedPeriodSwitch::new(3, 0, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The incremental step, in both randomness models, matches the full
        /// sweep under arbitrary interleavings of steps, level faults (alone,
        /// or 2–6 with no step between them, as `inject_faults` applies
        /// them), and graph growth: equal levels and random-bit tallies after
        /// every operation. Sizes straddle the 64-bit word boundary; sparse
        /// graphs and unwired joiners leave isolated vertices, and dense ones
        /// give a maximum several holders. Ops are mostly steps, so levels
        /// cycle through 0–5. After every op both streams are at the same
        /// position (a step draws as many words as the full sweep), both
        /// counters equal a count from scratch and the marking invariant
        /// holds (an unmarked vertex at levels 1–4 sits at `max N⁺(v) − 1`),
        /// and after a step `for_each_changed` reports exactly the vertices
        /// that moved.
        #[test]
        fn incremental_step_matches_full_sweep(
            seed in 0u64..10_000,
            n in 1usize..140,
            p_edge in 0.0f64..0.3,
            ops in proptest::collection::vec((0u8..17, any::<u64>()), 1..120),
        ) {
            let g = generators::gnp(n, p_edge, &mut rng(seed));
            let zeta = 0.25;
            let mut fast =
                RandomizedLogSwitch::with_init(&g, InitStrategy::Random, zeta, &mut rng(seed + 1));
            let mut slow = fast.clone();
            let (mut r_fast, mut r_slow) = (rng(seed + 2), rng(seed + 2));
            let counter = CounterRng::new(seed);
            for (i, &(kind, x)) in ops.iter().enumerate() {
                let before = fast.levels.clone();
                match kind {
                    0..=6 => {
                        fast.step(&mut r_fast);
                        slow.step_reference(&mut r_slow);
                    }
                    7..=13 => {
                        let round = slow.round() as u64;
                        fast.step_counter(&counter);
                        slow.full_sweep(|u| counter.gen_bool(zeta, u as u64, round, DRAW_SWITCH));
                    }
                    14 => {
                        let u = (x % fast.n() as u64) as usize;
                        let level = ((x >> 32) % 6) as u8;
                        fast.set_level(u, level);
                        slow.set_level(u, level);
                    }
                    15 => {
                        let mut faults = rng(x);
                        for _ in 0..faults.gen_range(2..=6) {
                            let u = faults.gen_range(0..fast.n());
                            let level = faults.gen_range(0..=5u8);
                            fast.set_level(u, level);
                            slow.set_level(u, level);
                        }
                    }
                    _ => {
                        // One joiner, wired to two existing vertices or (x
                        // even) to none, plus one edge between existing ones.
                        let old_n = fast.n() as u64;
                        let wires = if x % 2 == 0 {
                            Vec::new()
                        } else {
                            vec![((x >> 8) % old_n) as usize, ((x >> 24) % old_n) as usize]
                        };
                        let mut delta = GraphDelta::new();
                        delta.add_vertex(wires);
                        let (a, b) = (((x >> 40) % old_n) as usize, ((x >> 52) % old_n) as usize);
                        if a != b {
                            delta.add_edge(a, b);
                        }
                        let (grown, _) = fast.graph.get().apply_delta(&delta).expect("valid delta");
                        let grown = Arc::new(grown);
                        fast.rebind_graph(&grown).unwrap();
                        slow.rebind_graph(&grown).unwrap();
                    }
                }
                prop_assert!(fast.levels == slow.levels, "levels diverged after op {} (kind {})", i, kind);
                prop_assert!(
                    fast.random_bits_used() == slow.random_bits_used(),
                    "random bits diverged after op {} (kind {})",
                    i,
                    kind
                );
                prop_assert!(
                    r_fast.clone().next_u64() == r_slow.clone().next_u64(),
                    "streams at different positions after op {} (kind {})",
                    i,
                    kind
                );
                if kind <= 13 {
                    let mut reported = VertexSet::new(fast.n());
                    fast.for_each_changed(&mut |u| {
                        reported.insert(u);
                    });
                    let moved = (0..fast.n()).filter(|&u| fast.levels[u] != before[u]);
                    prop_assert!(
                        reported == VertexSet::from_indices(fast.n(), moved),
                        "changed report is not the moved set after op {}",
                        i
                    );
                }
                let graph = fast.graph.get();
                for u in graph.vertices() {
                    let level = fast.levels[u];
                    let nbr_levels = || graph.neighbors(u).iter().map(|v| fast.levels[v]);
                    let holders = nbr_levels().filter(|&l| l == level + 1).count();
                    let above = nbr_levels().filter(|&l| l > level + 1).max().unwrap_or(0);
                    prop_assert!(
                        (fast.holders[u] as usize, fast.above[u]) == (holders, above),
                        "counters of vertex {} are ({}, {}), not ({}, {}), after op {} (kind {})",
                        u,
                        fast.holders[u],
                        fast.above[u],
                        holders,
                        above,
                        i,
                        kind
                    );
                    prop_assert!(
                        fast.pending.contains(u)
                            || !(1..=4).contains(&level)
                            || level + 1 == max_closed(graph, &fast.levels, u),
                        "unmarked vertex {} at level {} is off its fixed point after op {} (kind {})",
                        u,
                        level,
                        i,
                        kind
                    );
                }
            }
        }
    }
}
