//! The **incremental active-frontier round engine** shared by the three MIS
//! processes.
//!
//! The naive implementation of a synchronous round rescans all `n` vertices,
//! rebuilds every black-neighbor count from scratch, and answers
//! `is_stabilized()` with yet another full scan — `O(n + m)` work per round
//! even in the long stabilization tail when only a handful of vertices are
//! still active. The paper's update rules are *local* (a vertex's move
//! depends only on its own state and its neighborhood), so once a region of
//! the graph is quiet no work should happen there — the guarantee the
//! silent-protocol literature formalizes. [`FrontierEngine`] makes the
//! simulator's cost proportional to activity:
//!
//! * **per-vertex black-neighbor counters** are kept in sync by delta
//!   propagation from the vertices that changed state, never by a full
//!   recount;
//! * a **maintained frontier worklist** holds exactly the vertices whose
//!   update rule may fire next round, so a round touches only the frontier
//!   and the neighborhoods of vertices that actually changed;
//! * **cached [`StateCounts`]** (including the unstable-vertex count) make
//!   [`counts`](FrontierEngine::counts) and
//!   [`is_stabilized`](FrontierEngine::is_stabilized) `O(1)`.
//!
//! # Complexity contract
//!
//! Let `A_t` be the set of frontier vertices at round `t`, `C_t ⊆ A_t` the
//! vertices whose state actually changed, and `S_t` the vertices whose
//! stable-black status flipped as a consequence. One round driven through the
//! engine costs
//!
//! ```text
//! O(|A_t| log |A_t|  +  vol(C_t)  +  vol(S_t))
//! ```
//!
//! where `vol(X) = Σ_{u ∈ X} deg(u)` — in particular `O(|A_t| + vol(A_t))`
//! per round, independent of `n` and `m` — and `is_stabilized()`/`counts()`
//! are `O(1)`. (The `log` factor comes from keeping the frontier sorted so
//! random draws happen in ascending vertex order, which keeps the RNG stream
//! bit-identical to the full-scan reference implementation; the parallel
//! counter-based path skips the sort, because order-independent randomness
//! makes the draw order irrelevant.)
//!
//! # How processes use it
//!
//! The engine owns the *state-independent* bookkeeping: the black/non-black
//! projection, black-neighbor counters, stability tracking, the frontier, and
//! the cached counts. A process is a [`LocalRule`](crate::LocalRule) run by
//! [`RuleProcess`](crate::RuleProcess), which owns the packed states and the
//! rule's own data (the 3-state rule's `black1` counters, the 3-color rule's
//! switch). The engine sees the rule only through a classifier
//! `Fn(VertexId, u32) -> VertexClass` built from
//! [`LocalRule::classify`](crate::LocalRule::classify): is the vertex active
//! (it will draw a coin), and is it pending (it may change state at all; a
//! superset of active)? Every round moves exactly the pending vertices, to
//! [`LocalRule::decide`](crate::LocalRule::decide) of their state, with a
//! coin exactly at the active ones. `RuleProcess` has two round drivers:
//!
//! * the **stream-model driver** (sequential rounds) draws coins from one
//!   shared stream in ascending vertex order, which keeps the stream
//!   identical to a full scan:
//!   1. [`begin_round`](FrontierEngine::begin_round) snapshots the frontier
//!      in ascending order (a scheduled round walks its activation set
//!      instead, a dense round `0..n`);
//!   2. each pending vertex is decided from its old state and the cached
//!      flags, so its change can be applied at once:
//!      [`set_black`](FrontierEngine::set_black) delta-propagates the
//!      counters and marks the neighborhood dirty, and the rule's scatter
//!      hook updates its own counters and
//!      [`mark_dirty`](FrontierEngine::mark_dirty)s what they move;
//!   3. [`flush`](FrontierEngine::flush) reclassifies the dirty vertices,
//!      updates the cached counts, and repairs the frontier. A dense round
//!      instead stages blackness with
//!      [`stage_black`](FrontierEngine::stage_black) and ends in one fused
//!      [`recount`](FrontierEngine::recount).
//! * the **counter-model driver** (parallel rounds, below) runs a sparse
//!   round as [`par_round`](FrontierEngine::par_round) and a dense one as
//!   [`dense_sweep`](FrontierEngine::dense_sweep) plus
//!   [`recount_par`](FrontierEngine::recount_par), with the rule's counter
//!   hook fused into the recount.
//!
//! A sub-process (the 3-color switch) steps after the decide phase; on a
//! sparse round the vertices whose classification that step may have
//! changed are marked dirty before the final flush.
//!
//! # Parallel rounds (counter-based randomness)
//!
//! When each vertex's randomness is a pure function of
//! `(seed, vertex, round, draw)` (see [`counter_rng`](crate::counter_rng)),
//! the draw order stops mattering and a round decomposes into data-parallel
//! phases separated by joins. All engine storage is atomically typed (see
//! [`sync`](crate::sync)), so the concurrent phases mutate it through
//! `&self` without locks; every concurrent write is either a commutative
//! read-modify-write or a write to a slot owned by exactly one thread, which
//! is what makes the result **bit-identical for every thread count**:
//!
//! 1. [`begin_round_unsorted`](FrontierEngine::begin_round_unsorted) —
//!    compact the frontier without sorting;
//! 2. a **fused decide+scatter dispatch** ([`par_round`](FrontierEngine::par_round)):
//!    workers claim worklist chunks from per-worker work-stealing deques
//!    ([`rayon::ChunkQueue`]), compute next states from old states/cached
//!    flags with counter-based draws, and immediately scatter each change's
//!    neighbor deltas through [`scatter_black`](FrontierEngine::scatter_black)
//!    into a recycled per-worker [`ScatterSink`]. Fusing is safe because the
//!    decide step reads only pre-round-cached flags and the decided vertex's
//!    own state, while the scatter step writes blackness, commutative
//!    counters, and dirty marks — disjoint from every other vertex's decide
//!    inputs;
//! 3. a **fused reclassification dispatch**
//!    ([`par_flush`](FrontierEngine::par_flush)) with one internal barrier:
//!    the first half recomputes stable-black flags over stolen dirty chunks
//!    and scatters the flips' neighbor deltas (collecting the second-wave
//!    vertices it won the dirty-mark race for); after the barrier the second
//!    half recomputes stability/activity/pending flags over the dirty
//!    chunks plus each worker's own second wave, accumulating count deltas
//!    and frontier additions per worker, merged as order-insensitive sums
//!    and unions.
//!
//! The whole sparse round is therefore **two pool dispatches** (two full
//! barriers plus one internal barrier), down from the historical four-phase
//! spawn-per-broadcast structure, and every pass buffer (change lists,
//! sinks, flush scratch, recount segments) is drawn from a recycled pool. A
//! round that runs inline (sequential mode, one thread, or a worklist below
//! the parallel threshold, as in the sparse tail) therefore allocates
//! nothing once its buffers are warm, which `tests/round_allocations.rs`
//! gates; a round that dispatches still allocates its broadcast result
//! vector and chunk queues, and a dense one its `balanced_ranges` split.
//! All dispatches run on the process-wide persistent worker pool
//! ([`rayon::global_pool`]); see that function's docs for the pool
//! lifecycle. The chunk→worker assignment made by work stealing is
//! scheduling-dependent, but every merge is commutative and every random
//! draw is counter-based, so results (states, black sets, counts, draw
//! tallies) stay **bit-identical for every thread count**.

use mis_graph::{Graph, VertexId, VertexSet};

use crate::algorithm::StateCounts;
use crate::exec::{StealChunks, DENSE_SWITCH_DIVISOR, PAR_WORK_THRESHOLD};
use crate::sync::{AtomicFlagVec, AtomicU32Vec, AtomicU8Vec};

/// How a process's local rule classifies one vertex, given its state and its
/// current black-neighbor count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexClass {
    /// The vertex will draw a random state in the next round (`u ∈ A_t`).
    pub active: bool,
    /// The vertex's update rule may fire in the next round, so it must stay
    /// on the frontier. Always a superset of `active`; e.g. the 3-state
    /// process keeps retiring `black0` vertices pending, and the 3-color
    /// process keeps a gray vertex pending while its switch is on.
    pub pending: bool,
}

/// Bit set in [`FrontierEngine`] flags when the vertex is active.
const ACTIVE: u8 = 1 << 0;
/// Bit: the vertex is stable black (black with no black neighbor).
const STABLE_BLACK: u8 = 1 << 1;
/// Bit: the vertex is stable (stable black or adjacent to a stable black).
const STABLE: u8 = 1 << 2;
/// Bit: the vertex is pending (logically on the frontier).
const PENDING: u8 = 1 << 3;

/// Per-thread scratch of the concurrent scatter phase: locally collected
/// dirty vertices and the thread's contribution to the black-count delta.
/// Merged deterministically by [`par_round`](FrontierEngine::par_round).
#[derive(Debug, Default, Clone)]
pub struct ScatterSink {
    /// Vertices this thread won the dirty-mark race for.
    dirty: Vec<VertexId>,
    /// Net change to the number of black vertices from this thread's batch.
    black_delta: isize,
}

/// Per-worker count deltas of one fused `par_flush` dispatch, merged
/// deterministically (all sums).
#[derive(Debug, Default)]
struct FlushDeltas {
    stable_black_delta: isize,
    unstable_delta: isize,
    active_delta: isize,
    pending_delta: isize,
    pending_volume_delta: isize,
}

/// Recycled per-worker buffers of the fused `par_flush` dispatch: the
/// second-wave vertices this worker won the dirty-mark race for in the
/// stable-black half, and the frontier entries it added in the
/// reclassification half. Pooled so their capacity survives across rounds.
#[derive(Debug, Default, Clone)]
struct FlushScratch {
    wave2: Vec<VertexId>,
    frontier_adds: Vec<VertexId>,
}

/// Incremental bookkeeping for one process instance: black projection,
/// delta-maintained neighbor counters, stability tracking, the active
/// frontier, and cached [`StateCounts`].
///
/// See the [module documentation](self) for the sequential and parallel
/// round protocols and the complexity contract.
#[derive(Debug, Clone)]
pub struct FrontierEngine {
    n: usize,
    /// Blackness projection of the process state (`u ∈ B_t`).
    black: AtomicFlagVec,
    /// `black_nbrs[u]` — number of black neighbors of `u`.
    black_nbrs: AtomicU32Vec,
    /// `stable_black_nbrs[u]` — number of stable-black neighbors of `u`,
    /// maintained so the unstable count updates by deltas.
    stable_black_nbrs: AtomicU32Vec,
    /// Per-vertex flag bits (`ACTIVE | STABLE_BLACK | STABLE | PENDING`).
    flags: AtomicU8Vec,
    /// Cached aggregate counts, kept exact at all times.
    counts: StateCounts,
    /// The frontier container: every pending vertex is in it; entries whose
    /// vertex stopped pending are removed lazily by `begin_round`.
    frontier: Vec<VertexId>,
    /// `frontier_contains[u]` — `u` has an entry in `frontier` (possibly a
    /// stale one awaiting compaction). Guards against duplicate entries.
    frontier_contains: AtomicFlagVec,
    /// Worklist of vertices whose flags must be recomputed by `flush`.
    dirty: Vec<VertexId>,
    /// `dirty_mark[u]` — `u` is currently queued in `dirty`.
    dirty_mark: AtomicFlagVec,
    /// Number of pending vertices (`|F_t|`), kept exact so the dense/sparse
    /// decision and `frontier_len` are `O(1)`.
    pending_count: usize,
    /// `vol(F_t) = Σ_{u pending} deg(u)`, kept exact for the same reason.
    pending_volume: usize,
    /// Recycled per-thread scatter sinks: `par_round` reuses their `dirty`
    /// buffers across rounds instead of reallocating every round.
    sink_pool: Vec<ScatterSink>,
    /// Recycled per-worker flush buffers (second wave + frontier adds),
    /// same lifecycle as `sink_pool`.
    flush_scratch_pool: Vec<FlushScratch>,
    /// Recycled per-chunk frontier segments of the parallel recount.
    seg_pool: Vec<Vec<VertexId>>,
}

impl FrontierEngine {
    /// Creates an engine for `n` vertices with every vertex white and no
    /// bookkeeping established; call [`rebuild`](Self::rebuild) before use.
    pub fn new(n: usize) -> Self {
        FrontierEngine {
            n,
            black: AtomicFlagVec::new(n),
            black_nbrs: AtomicU32Vec::new(n),
            stable_black_nbrs: AtomicU32Vec::new(n),
            flags: AtomicU8Vec::new(n),
            counts: StateCounts {
                non_black: n,
                unstable: n,
                ..StateCounts::default()
            },
            frontier: Vec::new(),
            frontier_contains: AtomicFlagVec::new(n),
            dirty: Vec::new(),
            dirty_mark: AtomicFlagVec::new(n),
            pending_count: 0,
            pending_volume: 0,
            sink_pool: Vec::new(),
            flush_scratch_pool: Vec::new(),
            seg_pool: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rebuilds every counter, flag, count, and the frontier from scratch in
    /// `O(n + m)`.
    ///
    /// Used at construction time and by the naive reference step paths; the
    /// incremental round protocols never need it.
    ///
    /// # Panics
    ///
    /// Panics if `graph.n()` differs from the engine's vertex count.
    pub fn rebuild<B, C>(&mut self, graph: &Graph, black: B, classify: C)
    where
        B: Fn(VertexId) -> bool,
        C: Fn(VertexId, u32) -> VertexClass,
    {
        assert_eq!(graph.n(), self.n, "graph size must match the engine");
        for u in 0..self.n {
            self.black.set(u, black(u));
        }
        self.dirty.clear();
        self.dirty_mark.clear_all();
        self.recount(graph, classify);
    }

    /// Stages the blackness projection of `u` **without** any delta
    /// bookkeeping. Callable through `&self` (concurrently for distinct
    /// vertices), so the dense decide sweep can record blackness as it
    /// writes states.
    ///
    /// Valid only inside a dense round: every counter, flag, count, and the
    /// frontier are stale until the following
    /// [`recount`](Self::recount)/[`recount_par`](Self::recount_par).
    #[inline]
    pub fn stage_black(&self, u: VertexId, black: bool) {
        self.black.set(u, black);
    }

    /// The dense path's fused full recount: recomputes every counter, flag,
    /// cached count, and the frontier from the current blackness projection
    /// in `O(n + m)` streaming passes (no frontier sort, no dirty-marking,
    /// no lock-prefixed read-modify-writes).
    ///
    /// Requires the blackness projection (`black`) to be current — the dense
    /// decide sweep maintains it through [`stage_black`](Self::stage_black) —
    /// and the dirty queue to be empty (every round protocol flushes before
    /// ending). The frontier comes out sorted (vertices are pushed in
    /// ascending order).
    pub fn recount<C>(&mut self, graph: &Graph, classify: C)
    where
        C: Fn(VertexId, u32) -> VertexClass,
    {
        debug_assert!(self.dirty.is_empty(), "recount requires a flushed engine");
        assert_eq!(graph.n(), self.n, "graph size must match the engine");
        let n = self.n;
        // Pass 1: black-neighbor counters from the blackness projection.
        self.black_nbrs.clear_all();
        {
            let black = &self.black;
            let black_nbrs = &mut self.black_nbrs;
            for u in 0..n {
                if black.get(u) {
                    for v in graph.neighbors(u).as_compact() {
                        black_nbrs.add_mut(v.index(), 1);
                    }
                }
            }
        }
        // Pass 2: stable-black-neighbor counters.
        self.stable_black_nbrs.clear_all();
        {
            let black = &self.black;
            let black_nbrs = &self.black_nbrs;
            let stable_black_nbrs = &mut self.stable_black_nbrs;
            for u in 0..n {
                if black.get(u) && black_nbrs.get(u) == 0 {
                    for v in graph.neighbors(u).as_compact() {
                        stable_black_nbrs.add_mut(v.index(), 1);
                    }
                }
            }
        }
        // Pass 3: flags, cached counts, and the frontier, in one sweep.
        let mut counts = StateCounts::default();
        let mut pending_volume = 0usize;
        self.frontier.clear();
        for u in 0..n {
            let mut f = 0u8;
            if self.black.get(u) {
                counts.black += 1;
            } else {
                counts.non_black += 1;
            }
            let stable_black = self.black.get(u) && self.black_nbrs.get(u) == 0;
            if stable_black {
                f |= STABLE_BLACK;
                counts.stable_black += 1;
            }
            if stable_black || self.stable_black_nbrs.get(u) > 0 {
                f |= STABLE;
            } else {
                counts.unstable += 1;
            }
            let class = classify(u, self.black_nbrs.get(u));
            debug_assert!(
                class.pending || !class.active,
                "active vertices must be pending"
            );
            if class.active {
                f |= ACTIVE;
                counts.active += 1;
            }
            if class.pending {
                f |= PENDING;
                pending_volume += graph.degree(u);
                self.frontier.push(u);
            }
            self.frontier_contains.set(u, class.pending);
            self.flags.set(u, f);
        }
        // Pushing in vertex order leaves the frontier already sorted.
        self.counts = counts;
        self.pending_count = self.frontier.len();
        self.pending_volume = pending_volume;
    }

    /// Parallel counterpart of [`recount`](Self::recount): the same fused
    /// full recount, run as **one** dispatch on the persistent pool with two
    /// internal barriers between the three passes, over volume-balanced
    /// vertex ranges ([`Graph::balanced_ranges`]). Counter scatters are
    /// commutative atomic adds and every flag is written by its range's
    /// owner, so the result is bit-identical for every thread count; the
    /// frontier is assembled from the per-range segments in range order and
    /// therefore comes out sorted, same as the sequential recount. Below the
    /// parallel threshold or on one thread it runs `pre(0..n)` and the
    /// sequential recount inline.
    ///
    /// `pre` is the rule's counter hook: it runs over every vertex range
    /// during the first (counter-scatter) pass, so a rule can rebuild its
    /// own auxiliary counters (e.g. the 3-state rule's `black1` neighbor
    /// counts) in the same dispatch — its output is settled before the
    /// classification pass reads it, because two barriers separate them.
    /// `pre` must not read the engine counters being rebuilt in the same
    /// pass.
    pub fn recount_par<C, P>(&mut self, graph: &Graph, threads: usize, classify: C, pre: P)
    where
        C: Fn(VertexId, u32) -> VertexClass + Sync,
        P: Fn(std::ops::Range<VertexId>) + Sync,
    {
        debug_assert!(self.dirty.is_empty(), "recount requires a flushed engine");
        assert_eq!(graph.n(), self.n, "graph size must match the engine");
        let n = self.n;
        if n < PAR_WORK_THRESHOLD || threads <= 1 {
            pre(0..n);
            return self.recount(graph, classify);
        }
        let ranges = graph.balanced_ranges(threads);
        if ranges.len() <= 1 {
            pre(0..n);
            return self.recount(graph, classify);
        }
        self.black_nbrs.clear_all();
        self.stable_black_nbrs.clear_all();
        let pool = rayon::global_pool(threads);
        let seg_source = std::sync::Mutex::new(std::mem::take(&mut self.seg_pool));
        let black = &self.black;
        let black_nbrs = &self.black_nbrs;
        let stable_black_nbrs = &self.stable_black_nbrs;
        let flags = &self.flags;
        let frontier_contains = &self.frontier_contains;
        let ranges_ref = &ranges;
        let classify = &classify;
        let pre = &pre;
        // One dispatch, three internally-barriered passes. Participants
        // without a range (the pool can be wider than the range count) skip
        // the work but still hit every barrier.
        let parts: Vec<(StateCounts, usize, Vec<VertexId>)> = pool.broadcast(|ctx| {
            let range = ranges_ref.get(ctx.index()).copied();
            // Pass 1: black-neighbor scatter (commutative atomic adds),
            // fused with the process's auxiliary-counter scatter.
            if let Some((lo, hi)) = range {
                for u in lo..hi {
                    if black.get(u) {
                        for v in graph.neighbors(u).as_compact() {
                            black_nbrs.add(v.index(), 1);
                        }
                    }
                }
                pre(lo..hi);
            }
            ctx.barrier();
            // Pass 2: stable-black scatter (reads pass-1 counters).
            if let Some((lo, hi)) = range {
                for u in lo..hi {
                    if black.get(u) && black_nbrs.get(u) == 0 {
                        for v in graph.neighbors(u).as_compact() {
                            stable_black_nbrs.add(v.index(), 1);
                        }
                    }
                }
            }
            ctx.barrier();
            // Pass 3: flags + per-range counts and frontier segments.
            let mut counts = StateCounts::default();
            let mut pending_volume = 0usize;
            let mut segment = seg_source
                .lock()
                .expect("segment pool mutex is never poisoned")
                .pop()
                .unwrap_or_default();
            if let Some((lo, hi)) = range {
                for u in lo..hi {
                    let mut f = 0u8;
                    if black.get(u) {
                        counts.black += 1;
                    } else {
                        counts.non_black += 1;
                    }
                    let stable_black = black.get(u) && black_nbrs.get(u) == 0;
                    if stable_black {
                        f |= STABLE_BLACK;
                        counts.stable_black += 1;
                    }
                    if stable_black || stable_black_nbrs.get(u) > 0 {
                        f |= STABLE;
                    } else {
                        counts.unstable += 1;
                    }
                    let class = classify(u, black_nbrs.get(u));
                    debug_assert!(
                        class.pending || !class.active,
                        "active vertices must be pending"
                    );
                    if class.active {
                        f |= ACTIVE;
                        counts.active += 1;
                    }
                    if class.pending {
                        f |= PENDING;
                        pending_volume += graph.degree(u);
                        segment.push(u);
                    }
                    frontier_contains.set(u, class.pending);
                    flags.set(u, f);
                }
            }
            (counts, pending_volume, segment)
        });
        self.seg_pool = seg_source
            .into_inner()
            .expect("segment pool mutex is never poisoned");
        let mut counts = StateCounts::default();
        let mut pending_volume = 0usize;
        self.frontier.clear();
        // Broadcast results come back in participant-index order, i.e.
        // ascending vertex ranges: concatenation leaves the frontier sorted.
        for (part_counts, part_volume, mut segment) in parts {
            counts.black += part_counts.black;
            counts.non_black += part_counts.non_black;
            counts.active += part_counts.active;
            counts.stable_black += part_counts.stable_black;
            counts.unstable += part_counts.unstable;
            pending_volume += part_volume;
            self.frontier.extend_from_slice(&segment);
            segment.clear();
            self.seg_pool.push(segment);
        }
        self.counts = counts;
        self.pending_count = self.frontier.len();
        self.pending_volume = pending_volume;
    }

    /// `true` when the next round should run the dense full-sweep path:
    /// `|F_t| + vol(F_t) ≥ (n + 2m) / DENSE_SWITCH_DIVISOR`, evaluated in
    /// `O(1)` from the maintained frontier size and volume. See
    /// [`RoundStrategy`](crate::exec::RoundStrategy) for the rationale.
    #[inline]
    pub fn prefers_dense(&self, graph: &Graph) -> bool {
        self.pending_count + self.pending_volume
            >= (graph.n() + 2 * graph.m()) / DENSE_SWITCH_DIVISOR
    }

    /// Runs the dense decide sweep `0..n` as one dispatch on the persistent
    /// pool over **volume-balanced** vertex ranges
    /// ([`Graph::balanced_ranges`], weighting each vertex `1 + deg`) and
    /// sums the per-range draw counts. `decide` receives the engine and its
    /// vertex range; it reads the cached (pre-round) flags through `&self`
    /// and writes states/staged blackness for its own vertices only. With
    /// counter-based draws the partition is invisible in the results, so the
    /// sweep is bit-identical for every thread count (a single range runs
    /// inline with no dispatch).
    pub fn dense_sweep<D>(&self, graph: &Graph, threads: usize, decide: D) -> u64
    where
        D: Fn(&Self, std::ops::Range<VertexId>) -> u64 + Sync,
    {
        assert_eq!(graph.n(), self.n, "graph size must match the engine");
        if self.n == 0 {
            return 0;
        }
        if self.n < PAR_WORK_THRESHOLD || threads <= 1 {
            return decide(self, 0..self.n);
        }
        let ranges = graph.balanced_ranges(threads);
        if ranges.len() <= 1 {
            return decide(self, 0..self.n);
        }
        let pool = rayon::global_pool(threads);
        let ranges_ref = &ranges;
        pool.broadcast(|ctx| {
            ranges_ref
                .get(ctx.index())
                .map_or(0, |&(lo, hi)| decide(self, lo..hi))
        })
        .into_iter()
        .sum()
    }

    /// Compacts the frontier (dropping vertices that stopped pending) and
    /// copies it into `out`, sorting it in ascending vertex order when
    /// `sort` is set.
    fn begin_round_impl(&mut self, out: &mut Vec<VertexId>, sort: bool) {
        debug_assert!(self.dirty.is_empty(), "flush must run before begin_round");
        let flags = &self.flags;
        let contains = &self.frontier_contains;
        self.frontier.retain(|&u| {
            if flags.get(u) & PENDING != 0 {
                true
            } else {
                contains.set(u, false);
                false
            }
        });
        if sort {
            self.frontier.sort_unstable();
        }
        out.clear();
        out.extend_from_slice(&self.frontier);
    }

    /// Compacts the frontier (dropping vertices that stopped pending), sorts
    /// it in ascending vertex order, and copies it into `out`.
    ///
    /// The copy lets the caller iterate the round's worklist while mutating
    /// the engine; `O(|A_t| log |A_t|)`. Sequential rounds need the order so
    /// the shared RNG stream is drawn in ascending vertex id.
    pub fn begin_round(&mut self, out: &mut Vec<VertexId>) {
        self.begin_round_impl(out, true);
    }

    /// Like [`begin_round`](Self::begin_round) but without the sort:
    /// `O(|A_t|)`. Correct only when the round's randomness does not depend
    /// on draw order (the counter-based parallel path).
    pub fn begin_round_unsorted(&mut self, out: &mut Vec<VertexId>) {
        self.begin_round_impl(out, false);
    }

    /// Extends the engine to `new_n` vertices — topology growth support.
    ///
    /// New slots start neutral: non-black, zero counters, no flags (hence
    /// counted as non-black and unstable), and queued dirty so the next
    /// [`flush`](Self::flush) classifies them against the grown graph. Part
    /// of the incremental mutation protocol: after a topology change, call
    /// `grow` (if vertices joined), then [`edge_update`](Self::edge_update)
    /// once per net edge change, then `flush` with the **new** graph — the
    /// result is bit-identical to a from-scratch rebuild on the new graph.
    ///
    /// # Panics
    ///
    /// Panics if `new_n` is smaller than the current vertex count (vertices
    /// never disappear; leavers are detached instead).
    pub fn grow(&mut self, new_n: usize) {
        assert!(
            new_n >= self.n,
            "engine cannot shrink: {} -> {new_n}",
            self.n
        );
        let old_n = self.n;
        self.black.grow(new_n);
        self.black_nbrs.grow(new_n);
        self.stable_black_nbrs.grow(new_n);
        self.flags.grow(new_n);
        self.frontier_contains.grow(new_n);
        self.dirty_mark.grow(new_n);
        self.n = new_n;
        self.counts.non_black += new_n - old_n;
        self.counts.unstable += new_n - old_n;
        for u in old_n..new_n {
            self.mark_dirty(u);
        }
    }

    /// Records one net topology change — the edge `{u, v}` was `inserted`
    /// (or removed) — against the **current** flags and blackness: adjusts
    /// the black-neighbor and stable-black-neighbor counters of both
    /// endpoints, the pending frontier volume (each endpoint's degree moved
    /// by one), and queues both endpoints for reclassification. `O(1)`.
    ///
    /// Call once per edge of a [`CommittedDelta`](mis_graph::CommittedDelta)
    /// (after [`grow`](Self::grow) if the batch joined vertices), then
    /// [`flush`](Self::flush) with the new graph. The flush re-derives the
    /// stable-black/stability/activity flags from the adjusted counters and
    /// propagates the flips over the *new* adjacency, which re-establishes
    /// every engine invariant on the mutated topology.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `u == v`.
    pub fn edge_update(&mut self, u: VertexId, v: VertexId, inserted: bool) {
        assert!(u < self.n, "vertex {u} out of range");
        assert!(v < self.n, "vertex {v} out of range");
        assert_ne!(u, v, "self-loops are not representable");
        for (a, b) in [(u, v), (v, u)] {
            if self.black.get(b) {
                if inserted {
                    self.black_nbrs.add_mut(a, 1);
                } else {
                    self.black_nbrs.sub_mut(a, 1);
                }
            }
            if self.flags.get(b) & STABLE_BLACK != 0 {
                if inserted {
                    self.stable_black_nbrs.add_mut(a, 1);
                } else {
                    self.stable_black_nbrs.sub_mut(a, 1);
                }
            }
            // deg(a) changed by one; keep vol(F_t) exact for pending a.
            if self.flags.get(a) & PENDING != 0 {
                if inserted {
                    self.pending_volume += 1;
                } else {
                    self.pending_volume -= 1;
                }
            }
            self.mark_dirty(a);
        }
    }

    /// Records that vertex `u`'s blackness changed: updates the cached black
    /// count, delta-propagates the black-neighbor counters of `N(u)`, and
    /// marks `u` and its neighborhood dirty. `O(deg(u))`.
    ///
    /// Calling this with `u`'s current blackness is a no-op apart from
    /// marking `u` dirty (useful when a state change does not cross the
    /// black/non-black boundary).
    pub fn set_black(&mut self, graph: &Graph, u: VertexId, black: bool) {
        self.mark_dirty(u);
        if self.black.get(u) == black {
            return;
        }
        self.black.set(u, black);
        if black {
            self.counts.black += 1;
            self.counts.non_black -= 1;
        } else {
            self.counts.black -= 1;
            self.counts.non_black += 1;
        }
        for v in graph.neighbors(u) {
            if black {
                self.black_nbrs.add_mut(v, 1);
            } else {
                self.black_nbrs.sub_mut(v, 1);
            }
            self.mark_dirty(v);
        }
    }

    /// Queues `u` for reclassification by the next [`flush`](Self::flush).
    /// Needed whenever something the classifier reads changed without a
    /// blackness flip (e.g. the 3-state process's `black1` counters).
    #[inline]
    pub fn mark_dirty(&mut self, u: VertexId) {
        if !self.dirty_mark.test_and_set_mut(u) {
            self.dirty.push(u);
        }
    }

    /// Concurrent counterpart of [`set_black`](Self::set_black), callable
    /// through `&self` from the parallel scatter phase: each changed vertex
    /// must be submitted by exactly one thread. Counter updates are
    /// commutative atomics, dirty vertices are deduplicated through the
    /// shared mark and collected into the caller's [`ScatterSink`], and the
    /// black-count delta is accumulated locally; [`par_round`](Self::par_round)
    /// merges the sinks afterwards.
    pub fn scatter_black(&self, graph: &Graph, u: VertexId, black: bool, sink: &mut ScatterSink) {
        self.mark_dirty_concurrent(u, sink);
        if self.black.get(u) == black {
            return;
        }
        self.black.set(u, black);
        sink.black_delta += if black { 1 } else { -1 };
        for v in graph.neighbors(u) {
            if black {
                self.black_nbrs.add(v, 1);
            } else {
                self.black_nbrs.sub(v, 1);
            }
            self.mark_dirty_concurrent(v, sink);
        }
    }

    /// Concurrent counterpart of [`mark_dirty`](Self::mark_dirty): wins the
    /// per-vertex mark race at most once across all threads and records the
    /// vertex in the caller's sink.
    #[inline]
    pub fn mark_dirty_concurrent(&self, u: VertexId, sink: &mut ScatterSink) {
        if !self.dirty_mark.test_and_set(u) {
            sink.dirty.push(u);
        }
    }

    /// Drains one sink's dirty vertices into the engine's queue (keeping the
    /// sink's buffer capacity, so it can be recycled) and returns its
    /// black-count delta.
    fn drain_sink(&mut self, sink: &mut ScatterSink) -> isize {
        self.dirty.extend_from_slice(&sink.dirty);
        sink.dirty.clear();
        std::mem::take(&mut sink.black_delta)
    }

    /// Applies a net blackness change to the cached counts.
    fn apply_black_delta(&mut self, delta: isize) {
        self.counts.black = (self.counts.black as isize + delta) as usize;
        self.counts.non_black = (self.counts.non_black as isize - delta) as usize;
    }

    /// Reclassifies every dirty vertex, updating stability bookkeeping,
    /// cached counts, and frontier membership by diffing against the stored
    /// flags. Stable-black flips delta-propagate to the flipping vertex's
    /// neighborhood (re-queueing it), so the cost is `O(|dirty| + vol(S_t))`
    /// where `S_t` is the set of vertices whose stable-black status flipped.
    pub fn flush<C>(&mut self, graph: &Graph, classify: C)
    where
        C: Fn(VertexId, u32) -> VertexClass,
    {
        let mut head = 0;
        while head < self.dirty.len() {
            let u = self.dirty[head];
            head += 1;
            self.dirty_mark.set(u, false);

            let stable_black = self.black.get(u) && self.black_nbrs.get(u) == 0;
            if stable_black != (self.flags.get(u) & STABLE_BLACK != 0) {
                self.flags.xor_mut(u, STABLE_BLACK);
                if stable_black {
                    self.counts.stable_black += 1;
                } else {
                    self.counts.stable_black -= 1;
                }
                for v in graph.neighbors(u) {
                    if stable_black {
                        self.stable_black_nbrs.add_mut(v, 1);
                    } else {
                        self.stable_black_nbrs.sub_mut(v, 1);
                    }
                    self.mark_dirty(v);
                }
            }

            let stable = stable_black || self.stable_black_nbrs.get(u) > 0;
            if stable != (self.flags.get(u) & STABLE != 0) {
                self.flags.xor_mut(u, STABLE);
                if stable {
                    self.counts.unstable -= 1;
                } else {
                    self.counts.unstable += 1;
                }
            }

            let class = classify(u, self.black_nbrs.get(u));
            debug_assert!(
                class.pending || !class.active,
                "active vertices must be pending"
            );
            if class.active != (self.flags.get(u) & ACTIVE != 0) {
                self.flags.xor_mut(u, ACTIVE);
                if class.active {
                    self.counts.active += 1;
                } else {
                    self.counts.active -= 1;
                }
            }
            if class.pending != (self.flags.get(u) & PENDING != 0) {
                self.flags.xor_mut(u, PENDING);
                if class.pending {
                    self.pending_count += 1;
                    self.pending_volume += graph.degree(u);
                    if !self.frontier_contains.test_and_set_mut(u) {
                        self.frontier.push(u);
                    }
                } else {
                    self.pending_count -= 1;
                    self.pending_volume -= graph.degree(u);
                }
                // A vertex that stopped pending keeps its (now stale) entry
                // until the next begin_round compaction.
            }
        }
        self.dirty.clear();
    }

    /// Runs one complete counter-based parallel round over `worklist`: one
    /// **fused decide+scatter dispatch** with chunk-granular work stealing,
    /// the deterministic commit, and the fused
    /// [`par_flush`](Self::par_flush) dispatch — two pool dispatches per
    /// round in total. Returns the total number of random draws reported by
    /// the decide closures.
    ///
    /// This is the sparse round of the counter-model driver of
    /// [`RuleProcess`](crate::RuleProcess); it keeps the phase ordering and
    /// the empty-worklist handling in one place. `decide` maps one worklist
    /// chunk to its state changes (of the change type `Ch`), writing new
    /// states as it goes, and returns its draw count; `scatter` applies one
    /// change's neighbor deltas through the engine's concurrent primitives
    /// ([`scatter_black`](Self::scatter_black) /
    /// [`mark_dirty_concurrent`](Self::mark_dirty_concurrent)) into the
    /// per-worker sink.
    ///
    /// **Fusion contract:** each worker scatters a chunk's changes
    /// immediately after deciding it, while other workers may still be
    /// deciding. This is sound because `decide` reads only the
    /// pre-round-cached flags and the decided vertex's own state/counters
    /// snapshot — never the live blackness or neighbor counters that
    /// `scatter` mutates — and every vertex is decided by exactly one
    /// worker. Work is claimed from per-worker stealing deques
    /// ([`rayon::ChunkQueue`]), so a degree-skewed worklist does not
    /// serialize the round on whichever worker drew the fattest chunk; the
    /// chunk→worker mapping varies, but all merges (counter deltas, dirty
    /// dedup, draw-count sums) are order-insensitive. Sub-threshold
    /// worklists (e.g. the near-empty late stabilization tail) run inline
    /// with no dispatch. Change buffers are recycled through the
    /// caller-owned `change_pool` and sinks through the engine's own pool,
    /// so an inline round allocates nothing once they are warm; a
    /// dispatched one still allocates its result vector and chunk queue.
    #[allow(clippy::too_many_arguments)]
    pub fn par_round<Ch, D, S, C>(
        &mut self,
        graph: &Graph,
        worklist: &[VertexId],
        threads: usize,
        decide: D,
        scatter: S,
        classify: C,
        change_pool: &mut Vec<Vec<Ch>>,
    ) -> u64
    where
        Ch: Send + Sync,
        D: Fn(&Self, &[VertexId], &mut Vec<Ch>) -> u64 + Sync,
        S: Fn(&Self, &Ch, &mut ScatterSink) + Sync,
        C: Fn(VertexId, u32) -> VertexClass + Sync,
    {
        let chunks = StealChunks::new(worklist.len(), threads);
        let mut draws_total = 0u64;
        if chunks.count() == 1 {
            // Inline path: no dispatch, same logic.
            let mut changes = change_pool.pop().unwrap_or_default();
            let mut sink = self.sink_pool.pop().unwrap_or_default();
            draws_total = decide(&*self, worklist, &mut changes);
            for change in &changes {
                scatter(&*self, change, &mut sink);
            }
            let delta = self.drain_sink(&mut sink);
            self.sink_pool.push(sink);
            changes.clear();
            change_pool.push(changes);
            self.apply_black_delta(delta);
        } else if chunks.count() > 1 {
            let pool = rayon::global_pool(threads);
            let queue = rayon::ChunkQueue::new(chunks.count(), pool.current_num_threads());
            let sink_source = std::sync::Mutex::new(std::mem::take(&mut self.sink_pool));
            let change_source = std::sync::Mutex::new(std::mem::take(change_pool));
            let engine = &*self;
            let parts: Vec<(u64, Vec<Ch>, ScatterSink)> = pool.broadcast(|ctx| {
                // Buffers come from the recycled pools (one uncontended
                // lock per worker per round), keeping their capacity across
                // rounds.
                let mut changes = change_source
                    .lock()
                    .expect("change pool mutex is never poisoned")
                    .pop()
                    .unwrap_or_default();
                let mut sink = sink_source
                    .lock()
                    .expect("sink pool mutex is never poisoned")
                    .pop()
                    .unwrap_or_default();
                let mut draws = 0u64;
                while let Some(chunk) = queue.pop(ctx.index()) {
                    let before = changes.len();
                    draws += decide(engine, &worklist[chunks.range(chunk)], &mut changes);
                    for change in &changes[before..] {
                        scatter(engine, change, &mut sink);
                    }
                }
                (draws, changes, sink)
            });
            self.sink_pool = sink_source
                .into_inner()
                .expect("sink pool mutex is never poisoned");
            *change_pool = change_source
                .into_inner()
                .expect("change pool mutex is never poisoned");
            let mut delta = 0isize;
            for (draws, mut changes, mut sink) in parts {
                draws_total += draws;
                delta += self.drain_sink(&mut sink);
                self.sink_pool.push(sink);
                changes.clear();
                change_pool.push(changes);
            }
            self.apply_black_delta(delta);
        }
        self.par_flush(graph, threads, classify);
        draws_total
    }

    /// Parallel counterpart of [`flush`](Self::flush): reclassifies the
    /// dirty set as **one** dispatch on the persistent pool, two passes
    /// separated by an internal barrier.
    ///
    /// Pass 1 recomputes the stable-black flag of every dirty vertex
    /// (chunks claimed from work-stealing deques) and scatters the flips'
    /// neighbor deltas; one generation suffices because a vertex's
    /// stable-black status depends only on the (already settled) blackness
    /// and black-neighbor counters, so only scatter-dirty vertices can
    /// flip. Each worker keeps the second-wave vertices it won the
    /// dirty-mark race for. After the barrier, pass 2 recomputes the
    /// stability/activity/pending flags of the dirty set (a second round of
    /// stolen chunks) plus each worker's own second wave, accumulating
    /// count deltas and frontier additions per worker; all merges are
    /// order-insensitive sums/unions, so the result is identical for every
    /// thread count. Sub-threshold dirty sets fall back to the sequential
    /// [`flush`](Self::flush) (same fixed point, no dispatch).
    pub fn par_flush<C>(&mut self, graph: &Graph, threads: usize, classify: C)
    where
        C: Fn(VertexId, u32) -> VertexClass + Sync,
    {
        if self.dirty.is_empty() {
            return;
        }
        let chunks = StealChunks::new(self.dirty.len(), threads);
        if chunks.count() <= 1 {
            return self.flush(graph, classify);
        }
        let dirty = std::mem::take(&mut self.dirty);
        let pool = rayon::global_pool(threads);
        let workers = pool.current_num_threads();
        // Independent claim queues for the two passes over the same chunks.
        let q1 = rayon::ChunkQueue::new(chunks.count(), workers);
        let q2 = rayon::ChunkQueue::new(chunks.count(), workers);
        let scratch_source = std::sync::Mutex::new(std::mem::take(&mut self.flush_scratch_pool));
        let black = &self.black;
        let black_nbrs = &self.black_nbrs;
        let stable_black_nbrs = &self.stable_black_nbrs;
        let flags = &self.flags;
        let dirty_mark = &self.dirty_mark;
        let frontier_contains = &self.frontier_contains;
        let dirty_ref = &dirty;
        let classify = &classify;
        let parts: Vec<(FlushDeltas, FlushScratch)> = pool.broadcast(|ctx| {
            let mut scratch = scratch_source
                .lock()
                .expect("flush scratch mutex is never poisoned")
                .pop()
                .unwrap_or_default();
            let mut deltas = FlushDeltas::default();
            // Pass 1: stable-black recompute + neighbor-delta scatter.
            while let Some(chunk) = q1.pop(ctx.index()) {
                for &u in &dirty_ref[chunks.range(chunk)] {
                    let stable_black = black.get(u) && black_nbrs.get(u) == 0;
                    if stable_black != (flags.get(u) & STABLE_BLACK != 0) {
                        flags.xor(u, STABLE_BLACK);
                        deltas.stable_black_delta += if stable_black { 1 } else { -1 };
                        for v in graph.neighbors(u) {
                            if stable_black {
                                stable_black_nbrs.add(v, 1);
                            } else {
                                stable_black_nbrs.sub(v, 1);
                            }
                            if !dirty_mark.test_and_set(v) {
                                scratch.wave2.push(v);
                            }
                        }
                    }
                }
            }
            ctx.barrier();
            // Pass 2: stability/activity/pending recompute over the dirty
            // chunks plus this worker's second wave. Wave-2 sets are
            // disjoint across workers (global dirty-mark dedup) and
            // disjoint from the original dirty list (its vertices were
            // already marked), so every vertex is reclassified exactly
            // once.
            {
                let FlushScratch {
                    wave2,
                    frontier_adds,
                } = &mut scratch;
                let mut reclassify = |u: VertexId| {
                    dirty_mark.set(u, false);
                    let f = flags.get(u);
                    let stable_black = f & STABLE_BLACK != 0;
                    let stable = stable_black || stable_black_nbrs.get(u) > 0;
                    if stable != (f & STABLE != 0) {
                        flags.xor(u, STABLE);
                        deltas.unstable_delta += if stable { -1 } else { 1 };
                    }
                    let class = classify(u, black_nbrs.get(u));
                    debug_assert!(
                        class.pending || !class.active,
                        "active vertices must be pending"
                    );
                    if class.active != (f & ACTIVE != 0) {
                        flags.xor(u, ACTIVE);
                        deltas.active_delta += if class.active { 1 } else { -1 };
                    }
                    if class.pending != (f & PENDING != 0) {
                        flags.xor(u, PENDING);
                        let vol = graph.degree(u) as isize;
                        if class.pending {
                            deltas.pending_delta += 1;
                            deltas.pending_volume_delta += vol;
                            if !frontier_contains.test_and_set(u) {
                                frontier_adds.push(u);
                            }
                        } else {
                            deltas.pending_delta -= 1;
                            deltas.pending_volume_delta -= vol;
                        }
                    }
                };
                while let Some(chunk) = q2.pop(ctx.index()) {
                    for &u in &dirty_ref[chunks.range(chunk)] {
                        reclassify(u);
                    }
                }
                for &u in wave2.iter() {
                    reclassify(u);
                }
            }
            (deltas, scratch)
        });
        self.flush_scratch_pool = scratch_source
            .into_inner()
            .expect("flush scratch mutex is never poisoned");
        for (deltas, mut scratch) in parts {
            self.counts.stable_black =
                (self.counts.stable_black as isize + deltas.stable_black_delta) as usize;
            self.counts.unstable = (self.counts.unstable as isize + deltas.unstable_delta) as usize;
            self.counts.active = (self.counts.active as isize + deltas.active_delta) as usize;
            self.pending_count = (self.pending_count as isize + deltas.pending_delta) as usize;
            self.pending_volume =
                (self.pending_volume as isize + deltas.pending_volume_delta) as usize;
            self.frontier.extend_from_slice(&scratch.frontier_adds);
            scratch.wave2.clear();
            scratch.frontier_adds.clear();
            self.flush_scratch_pool.push(scratch);
        }
        let mut dirty = dirty;
        dirty.clear();
        self.dirty = dirty;
    }

    /// The cached per-round counts; `O(1)`.
    #[inline]
    pub fn counts(&self) -> StateCounts {
        self.counts
    }

    /// `true` if every vertex is stable; `O(1)` (reads the cached unstable
    /// count).
    #[inline]
    pub fn is_stabilized(&self) -> bool {
        self.counts.unstable == 0
    }

    /// Whether `u` is currently black.
    #[inline]
    pub fn is_black(&self, u: VertexId) -> bool {
        self.black.get(u)
    }

    /// Number of black neighbors of `u` (delta-maintained).
    #[inline]
    pub fn black_neighbor_count(&self, u: VertexId) -> usize {
        self.black_nbrs.get(u) as usize
    }

    /// The cached classification of `u`, as of the last flush or recount.
    #[inline]
    pub fn class(&self, u: VertexId) -> VertexClass {
        let f = self.flags.get(u);
        VertexClass {
            active: f & ACTIVE != 0,
            pending: f & PENDING != 0,
        }
    }

    /// Whether `u` is active (cached classification).
    #[inline]
    pub fn is_active(&self, u: VertexId) -> bool {
        self.flags.get(u) & ACTIVE != 0
    }

    /// Whether `u` is stable black: black with no black neighbor.
    #[inline]
    pub fn is_stable_black(&self, u: VertexId) -> bool {
        self.flags.get(u) & STABLE_BLACK != 0
    }

    /// Whether `u` is stable: stable black or adjacent to a stable black
    /// vertex.
    #[inline]
    pub fn is_stable(&self, u: VertexId) -> bool {
        self.flags.get(u) & STABLE != 0
    }

    /// Whether `u` is on the frontier (its update rule may fire next round).
    #[inline]
    pub fn is_pending(&self, u: VertexId) -> bool {
        self.flags.get(u) & PENDING != 0
    }

    /// Number of pending vertices `|F_t|` (the logical frontier size);
    /// `O(1)` — maintained alongside the flags.
    #[inline]
    pub fn frontier_len(&self) -> usize {
        self.pending_count
    }

    /// `vol(F_t) = Σ_{u pending} deg(u)`, maintained for the `O(1)`
    /// dense/sparse decision of [`prefers_dense`](Self::prefers_dense).
    #[inline]
    pub fn frontier_volume(&self) -> usize {
        self.pending_volume
    }

    /// The current set of black vertices `B_t`.
    pub fn black_set(&self) -> VertexSet {
        VertexSet::from_indices(self.n, (0..self.n).filter(|&u| self.black.get(u)))
    }

    /// The current set of active vertices `A_t`.
    pub fn active_set(&self) -> VertexSet {
        VertexSet::from_indices(self.n, (0..self.n).filter(|&u| self.is_active(u)))
    }

    /// The current set of stable black vertices `I_t`.
    pub fn stable_black_set(&self) -> VertexSet {
        VertexSet::from_indices(self.n, (0..self.n).filter(|&u| self.is_stable_black(u)))
    }

    /// The current set of non-stable vertices `V_t`.
    pub fn unstable_set(&self) -> VertexSet {
        VertexSet::from_indices(self.n, (0..self.n).filter(|&u| !self.is_stable(u)))
    }

    /// The current set of pending (frontier) vertices.
    pub fn pending_set(&self) -> VertexSet {
        VertexSet::from_indices(self.n, (0..self.n).filter(|&u| self.is_pending(u)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::generators;

    /// Pending iff active iff "black with black neighbor or white with no
    /// black neighbor" — the 2-state rule, used here as a stand-in local rule.
    fn two_state_like(black: &[bool]) -> impl Fn(VertexId, u32) -> VertexClass + Sync + '_ {
        move |u, bn| {
            let active = if black[u] { bn > 0 } else { bn == 0 };
            VertexClass {
                active,
                pending: active,
            }
        }
    }

    #[test]
    fn rebuild_matches_definitions() {
        let g = generators::path(5);
        // Colors: B W B B W  -> vertex 0 stable black? nbr 1 white -> yes.
        let black = vec![true, false, true, true, false];
        let mut e = FrontierEngine::new(5);
        e.rebuild(&g, |u| black[u], two_state_like(&black));
        assert_eq!(e.black_neighbor_count(0), 0);
        assert_eq!(e.black_neighbor_count(1), 2);
        assert_eq!(e.black_neighbor_count(2), 1);
        assert_eq!(e.black_neighbor_count(3), 1);
        assert_eq!(e.black_neighbor_count(4), 1);
        assert!(e.is_stable_black(0));
        assert!(!e.is_stable_black(2) && !e.is_stable_black(3));
        // 2 and 3 are black with a black neighbor: active; 1 and 4 have black
        // neighbors: not active; 0 stable black.
        assert_eq!(e.active_set().to_vec(), vec![2, 3]);
        let c = e.counts();
        assert_eq!(c.black, 3);
        assert_eq!(c.non_black, 2);
        assert_eq!(c.active, 2);
        assert_eq!(c.stable_black, 1);
        // Stable: 0 (stable black) and 1 (adjacent to it). 2, 3, 4 unstable.
        assert_eq!(c.unstable, 3);
        assert!(!e.is_stabilized());
    }

    #[test]
    fn set_black_delta_matches_rebuild() {
        let g = generators::grid(4, 4);
        let mut black = vec![false; 16];
        let mut e = FrontierEngine::new(16);
        e.rebuild(&g, |u| black[u], two_state_like(&black));
        // Flip a few vertices through the delta path.
        for &(u, b) in &[(0usize, true), (5, true), (5, false), (10, true)] {
            black[u] = b;
            e.set_black(&g, u, b);
            e.flush(&g, two_state_like(&black));
        }
        let mut fresh = FrontierEngine::new(16);
        fresh.rebuild(&g, |u| black[u], two_state_like(&black));
        for u in 0..16 {
            assert_eq!(e.black_neighbor_count(u), fresh.black_neighbor_count(u));
            assert_eq!(e.is_active(u), fresh.is_active(u), "vertex {u}");
            assert_eq!(e.is_stable(u), fresh.is_stable(u), "vertex {u}");
            assert_eq!(e.is_pending(u), fresh.is_pending(u), "vertex {u}");
        }
        assert_eq!(e.counts(), fresh.counts());
    }

    /// Asserts every piece of engine bookkeeping agrees between two engines.
    fn assert_engines_agree(a: &FrontierEngine, b: &FrontierEngine, ctx: &str) {
        assert_eq!(a.n(), b.n(), "{ctx}");
        for u in 0..a.n() {
            assert_eq!(a.is_black(u), b.is_black(u), "black, vertex {u}: {ctx}");
            assert_eq!(
                a.black_neighbor_count(u),
                b.black_neighbor_count(u),
                "black_nbrs, vertex {u}: {ctx}"
            );
            assert_eq!(a.is_active(u), b.is_active(u), "active, vertex {u}: {ctx}");
            assert_eq!(a.is_stable(u), b.is_stable(u), "stable, vertex {u}: {ctx}");
            assert_eq!(
                a.is_stable_black(u),
                b.is_stable_black(u),
                "stable black, vertex {u}: {ctx}"
            );
            assert_eq!(
                a.is_pending(u),
                b.is_pending(u),
                "pending, vertex {u}: {ctx}"
            );
        }
        assert_eq!(a.counts(), b.counts(), "{ctx}");
        assert_eq!(a.frontier_len(), b.frontier_len(), "{ctx}");
        assert_eq!(a.frontier_volume(), b.frontier_volume(), "{ctx}");
    }

    #[test]
    fn recount_after_staging_matches_rebuild_and_delta_paths() {
        let g = generators::grid(6, 6);
        let mut black = vec![false; 36];
        let mut delta = FrontierEngine::new(36);
        delta.rebuild(&g, |u| black[u], two_state_like(&black));
        // Flip through the incremental path...
        for &(u, b) in &[
            (0usize, true),
            (7, true),
            (14, true),
            (7, false),
            (21, true),
        ] {
            black[u] = b;
            delta.set_black(&g, u, b);
            delta.flush(&g, two_state_like(&black));
        }
        // ...and through staging + dense recount.
        let mut dense = FrontierEngine::new(36);
        let all_white = [false; 36];
        dense.rebuild(&g, |_| false, two_state_like(&all_white));
        for (u, &b) in black.iter().enumerate() {
            dense.stage_black(u, b);
        }
        dense.recount(&g, two_state_like(&black));
        assert_engines_agree(&delta, &dense, "delta vs staged recount");

        // The O(1) frontier size/volume caches must match a recomputation.
        let expected_volume: usize = (0..36)
            .filter(|&u| dense.is_pending(u))
            .map(|u| g.degree(u))
            .sum();
        assert_eq!(dense.frontier_volume(), expected_volume);
        assert_eq!(
            dense.frontier_len(),
            (0..36).filter(|&u| dense.is_pending(u)).count()
        );
        // A recount leaves the frontier sorted; begin_round sees it intact.
        let mut wl_dense = Vec::new();
        let mut wl_delta = Vec::new();
        dense.begin_round(&mut wl_dense);
        delta.begin_round(&mut wl_delta);
        assert_eq!(wl_dense, wl_delta);
    }

    #[test]
    fn recount_par_matches_recount_for_every_thread_count() {
        // n = 2500 exceeds PAR_WORK_THRESHOLD, so multi-chunk recounts
        // actually run chunked.
        let (rows, cols) = (50, 50);
        let n = rows * cols;
        let g = generators::grid(rows, cols);
        let black: Vec<bool> = (0..n).map(|u| u % 3 == 0).collect();
        let mut sequential = FrontierEngine::new(n);
        sequential.rebuild(&g, |u| black[u], two_state_like(&black));
        for threads in [1usize, 2, 4, 7] {
            let mut parallel = FrontierEngine::new(n);
            for (u, &b) in black.iter().enumerate() {
                parallel.stage_black(u, b);
            }
            parallel.recount_par(&g, threads, two_state_like(&black), |_| {});
            assert_engines_agree(&sequential, &parallel, &format!("threads {threads}"));
            let mut wl_seq = Vec::new();
            let mut wl_par = Vec::new();
            sequential.begin_round(&mut wl_seq);
            parallel.begin_round(&mut wl_par);
            assert_eq!(wl_seq, wl_par, "threads {threads}");
        }
    }

    #[test]
    fn dense_sweep_covers_every_vertex_once() {
        let n = 3000; // above PAR_WORK_THRESHOLD: real chunking
        let g = generators::path(n);
        let e = FrontierEngine::new(n);
        for threads in [1usize, 2, 5] {
            let hits = crate::sync::AtomicU32Vec::new(n);
            let total = e.dense_sweep(&g, threads, |_, range| {
                let mut local = 0u64;
                for u in range {
                    hits.add(u, 1);
                    local += 1;
                }
                local
            });
            assert_eq!(total, n as u64, "threads {threads}");
            for u in 0..n {
                assert_eq!(hits.get(u), 1, "vertex {u}, threads {threads}");
            }
        }
        let empty = mis_graph::Graph::empty(0);
        assert_eq!(FrontierEngine::new(0).dense_sweep(&empty, 4, |_, _| 1), 0);
    }

    #[test]
    fn sparse_round_costs_at_most_two_dispatches() {
        // The headline contract of the fused round path: one fused
        // decide+scatter dispatch plus one fused flush dispatch. Uses an
        // uncommon thread count so the global pool's counters are not
        // perturbed by other tests running concurrently.
        let threads = 11;
        let n = 6000; // above PAR_WORK_THRESHOLD so dispatches actually run
        let g = generators::grid(60, 100);
        let black = vec![false; n];
        let mut e = FrontierEngine::new(n);
        e.rebuild(&g, |u| black[u], two_state_like(&black));
        let mut worklist = Vec::new();
        e.begin_round_unsorted(&mut worklist);
        assert!(worklist.len() >= crate::exec::PAR_WORK_THRESHOLD);
        let pool = rayon::global_pool(threads);
        let before = pool.stats();
        let mut change_pool: Vec<Vec<(VertexId, bool)>> = Vec::new();
        // Flip every worklist vertex black: plenty of scatter + flush work.
        e.par_round(
            &g,
            &worklist,
            threads,
            |_, chunk, changes| {
                changes.extend(chunk.iter().map(|&u| (u, true)));
                chunk.len() as u64
            },
            |engine, &(u, b), sink| engine.scatter_black(&g, u, b, sink),
            |u, bn| {
                let active = if u % 2 == 0 { bn > 0 } else { bn == 0 };
                VertexClass {
                    active,
                    pending: active,
                }
            },
            &mut change_pool,
        );
        let after = pool.stats();
        assert!(
            after.dispatches - before.dispatches <= 2,
            "sparse round used {} dispatches (expected <= 2)",
            after.dispatches - before.dispatches
        );
    }

    #[test]
    fn prefers_dense_tracks_frontier_mass() {
        let g = generators::path(64);
        // Everything black: every vertex pending -> dense.
        let black = vec![true; 64];
        let mut e = FrontierEngine::new(64);
        e.rebuild(&g, |u| black[u], two_state_like(&black));
        assert!(e.prefers_dense(&g));
        // A stable MIS configuration: empty frontier -> sparse.
        let alternating: Vec<bool> = (0..64).map(|u| u % 2 == 0).collect();
        e.rebuild(&g, |u| alternating[u], two_state_like(&alternating));
        assert_eq!(e.frontier_len(), 0);
        assert!(!e.prefers_dense(&g));
    }

    #[test]
    fn scatter_and_par_flush_match_sequential_path() {
        // Apply the same batch of blackness flips through set_black + flush
        // and through scatter_black + the sink merge of par_round + par_flush
        // (at several thread counts); all bookkeeping must agree.
        let g = generators::grid(5, 5);
        let black = vec![false; 25];
        let batch: Vec<(VertexId, bool)> = vec![(0, true), (6, true), (12, true), (13, true)];

        let mut sequential = FrontierEngine::new(25);
        sequential.rebuild(&g, |u| black[u], two_state_like(&black));
        let mut after = black.clone();
        for &(u, b) in &batch {
            after[u] = b;
        }
        for &(u, b) in &batch {
            sequential.set_black(&g, u, b);
        }
        sequential.flush(&g, two_state_like(&after));

        for threads in [1usize, 2, 4] {
            let mut parallel = FrontierEngine::new(25);
            parallel.rebuild(&g, |u| black[u], two_state_like(&black));
            let mut sink = ScatterSink::default();
            for &(u, b) in &batch {
                parallel.scatter_black(&g, u, b, &mut sink);
            }
            let delta = parallel.drain_sink(&mut sink);
            parallel.apply_black_delta(delta);
            parallel.par_flush(&g, threads, two_state_like(&after));

            for u in 0..25 {
                assert_eq!(
                    parallel.black_neighbor_count(u),
                    sequential.black_neighbor_count(u),
                    "threads {threads}, vertex {u}"
                );
                assert_eq!(parallel.is_active(u), sequential.is_active(u));
                assert_eq!(parallel.is_stable(u), sequential.is_stable(u));
                assert_eq!(parallel.is_stable_black(u), sequential.is_stable_black(u));
                assert_eq!(parallel.is_pending(u), sequential.is_pending(u));
            }
            assert_eq!(parallel.counts(), sequential.counts(), "threads {threads}");
            let mut wl_par = Vec::new();
            let mut wl_seq = Vec::new();
            parallel.begin_round(&mut wl_par);
            sequential.begin_round(&mut wl_seq);
            assert_eq!(wl_par, wl_seq, "threads {threads}");
        }
    }

    #[test]
    fn begin_round_is_sorted_and_deduplicated() {
        let g = generators::complete(6);
        let black = vec![true; 6];
        let mut e = FrontierEngine::new(6);
        e.rebuild(&g, |u| black[u], two_state_like(&black));
        let mut out = Vec::new();
        e.begin_round(&mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        // Leaving and re-entering the frontier must not duplicate entries.
        let mut black2 = black.clone();
        black2[3] = false; // 3 becomes white with black nbrs: not pending
        e.set_black(&g, 3, false);
        e.flush(&g, two_state_like(&black2));
        black2[3] = true;
        e.set_black(&g, 3, true);
        e.flush(&g, two_state_like(&black2));
        e.begin_round(&mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        // The unsorted variant returns the same set.
        let mut unsorted = Vec::new();
        e.begin_round_unsorted(&mut unsorted);
        unsorted.sort_unstable();
        assert_eq!(unsorted, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn grow_and_edge_update_match_rebuild_on_mutated_graph() {
        use mis_graph::GraphDelta;
        let g = generators::grid(5, 5);
        let mut black = vec![false; 25];
        for &u in &[0usize, 6, 12, 24, 13] {
            black[u] = true;
        }
        let mut e = FrontierEngine::new(25);
        e.rebuild(&g, |u| black[u], two_state_like(&black));

        // A batch mixing every mutation kind.
        let mut d = GraphDelta::new();
        d.remove_edge(0, 1)
            .add_edge(0, 24)
            .detach_vertex(12)
            .add_vertex([3, 7]) // id 25
            .add_edge(13, 25);
        let (g2, c) = g.apply_delta(&d).unwrap();
        assert_eq!(c.new_n, 26);

        // Incremental migration: grow, replay the net diff, flush on the
        // new graph.
        black.resize(c.new_n, false);
        e.grow(c.new_n);
        for &(u, v) in &c.removed {
            e.edge_update(u, v, false);
        }
        for &(u, v) in &c.inserted {
            e.edge_update(u, v, true);
        }
        e.flush(&g2, two_state_like(&black));

        let mut fresh = FrontierEngine::new(c.new_n);
        fresh.rebuild(&g2, |u| black[u], two_state_like(&black));
        assert_engines_agree(&e, &fresh, "incremental migration vs rebuild");
        let mut wl_inc = Vec::new();
        let mut wl_fresh = Vec::new();
        e.begin_round(&mut wl_inc);
        fresh.begin_round(&mut wl_fresh);
        assert_eq!(wl_inc, wl_fresh);
    }

    #[test]
    fn interleaved_mutations_and_flips_stay_consistent() {
        // Alternate blackness flips (the step/corrupt path) with edge
        // mutations (the churn path); after every flush the engine must
        // agree with a from-scratch rebuild on the current graph.
        use mis_graph::GraphDelta;
        let mut g = generators::grid(4, 4);
        let mut black = vec![false; 16];
        let mut e = FrontierEngine::new(16);
        e.rebuild(&g, |u| black[u], two_state_like(&black));

        let script: Vec<(bool, usize, usize)> = vec![
            (true, 0, 0),   // flip vertex 0 black
            (false, 0, 5),  // insert {0, 5}
            (true, 5, 0),   // flip vertex 5 black
            (false, 5, 10), // insert {5, 10}
            (true, 0, 0),   // flip vertex 0 white (toggle)
            (false, 1, 2),  // remove {1, 2} (grid edge)
            (true, 10, 0),  // flip vertex 10 black
        ];
        for (i, &(is_flip, u, v)) in script.iter().enumerate() {
            if is_flip {
                black[u] = !black[u];
                e.set_black(&g, u, black[u]);
                e.flush(&g, two_state_like(&black));
            } else {
                let mut d = GraphDelta::new();
                if g.has_edge(u, v) {
                    d.remove_edge(u, v);
                } else {
                    d.add_edge(u, v);
                }
                let (g2, c) = g.apply_delta(&d).unwrap();
                e.grow(c.new_n);
                for &(a, b) in &c.removed {
                    e.edge_update(a, b, false);
                }
                for &(a, b) in &c.inserted {
                    e.edge_update(a, b, true);
                }
                g = g2;
                e.flush(&g, two_state_like(&black));
            }
            let mut fresh = FrontierEngine::new(g.n());
            fresh.rebuild(&g, |u| black[u], two_state_like(&black));
            assert_engines_agree(&e, &fresh, &format!("after op {i}"));
        }
    }

    #[test]
    fn empty_graph_is_trivially_consistent() {
        let g = mis_graph::Graph::empty(0);
        let mut e = FrontierEngine::new(0);
        e.rebuild(
            &g,
            |_| false,
            |_, _| VertexClass {
                active: false,
                pending: false,
            },
        );
        assert!(e.is_stabilized());
        assert_eq!(e.counts(), StateCounts::default());
    }
}
