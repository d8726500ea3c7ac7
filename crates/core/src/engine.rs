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
//! rule's own data (the 3-color rule's switch). The engine sees the rule
//! only through a classifier `Fn(VertexId, u32) -> VertexClass` built from
//! [`LocalRule::classify`](crate::LocalRule::classify), which reads any
//! other letter (the 3-state rule's `black1`) from `N(u)` on demand: is the
//! vertex active (it will draw a coin), and is it pending (it may change
//! state at all; a superset of active)? Every round moves exactly the
//! pending vertices, to [`LocalRule::decide`](crate::LocalRule::decide) of
//! their state, with a coin exactly at the active ones. `RuleProcess` has
//! two round drivers:
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
//!      counters and marks the neighborhood dirty, and a change that moves
//!      a letter the neighbors read
//!      [`mark_dirty`](FrontierEngine::mark_dirty)s them too;
//!   3. [`flush`](FrontierEngine::flush) on one thread reclassifies the
//!      dirty vertices, updates the cached counts, and repairs the
//!      frontier. A dense round instead stages blackness with
//!      [`stage_black`](FrontierEngine::stage_black) and ends in one fused
//!      [`recount`](FrontierEngine::recount).
//! * the **counter-model driver** (parallel rounds, below) runs a sparse
//!   round as [`par_round`](FrontierEngine::par_round) and a dense one as
//!   [`dense_sweep`](FrontierEngine::dense_sweep) plus
//!   [`recount_par`](FrontierEngine::recount_par).
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
//! 2. a **decide-and-scatter dispatch** ([`par_round`](FrontierEngine::par_round)):
//!    workers claim worklist chunks from per-worker work-stealing deques
//!    ([`rayon::ChunkQueue`]), and each vertex's move is computed from its
//!    old state and the cached flags with a counter-based draw and
//!    scattered at once through [`scatter_black`](FrontierEngine::scatter_black)
//!    into the worker's recycled [`ScatterSink`]. This is sound because a
//!    move reads only the flags cached by the last flush and the vertex's
//!    own state, while a scatter writes blackness, commutative counters,
//!    and dirty marks;
//! 3. the same [`flush`](FrontierEngine::flush) as a sequential round, on
//!    the round's threads: one dispatch whose two passes (settle the
//!    stable-black flags, then reclassify) are separated by an internal
//!    barrier, with count deltas and frontier additions gathered per worker
//!    and merged as order-insensitive sums and unions.
//!
//! The whole sparse round is therefore **two pool dispatches** (two full
//! barriers plus one internal barrier). A dense round is two dispatches as
//! well: the volume-balanced [`dense_sweep`](FrontierEngine::dense_sweep)
//! and the [`recount_par`](FrontierEngine::recount_par) *pull*, where each
//! participant counts its own vertices' black neighbors (one internal
//! barrier, no atomic adds but the stable-black +1s); building a
//! process's engine under `Parallel { threads ≥ 2 }` is that recount alone,
//! one dispatch. The sequential [`recount`](FrontierEngine::recount) keeps
//! the push, which walks only the black vertices' lists. Every pass buffer
//! (sinks, recount segments) is drawn from a recycled pool. A round that
//! runs inline (sequential mode, one thread, or a worklist below the
//! parallel threshold, as in the sparse tail) therefore allocates nothing
//! once its buffers are warm, which `tests/round_allocations.rs` gates; a
//! round that dispatches still allocates its broadcast result vector and
//! chunk queues, and a dense one its `balanced_ranges` split. All
//! dispatches run on the process-wide persistent worker pool
//! ([`rayon::global_pool`]); see that function's docs for the pool
//! lifecycle. The chunk→worker assignment made by work stealing is
//! scheduling-dependent, but every merge is commutative and every random
//! draw is counter-based, so results (states, black sets, counts, draw
//! tallies) stay **bit-identical for every thread count**.
//!
//! # Vertex-id buffers
//!
//! Every buffer of vertex ids (the frontier, the dirty queue, the sinks'
//! dirty vertices and frontier additions, the recount segments, and the
//! worklists [`begin_round`](FrontierEngine::begin_round) fills and
//! [`par_round`](FrontierEngine::par_round) walks) holds the CSR's 4-byte
//! [`CompactId`]s, half the bytes of a `usize` id; the neighbor loops read
//! them straight from [`as_compact`](mis_graph::Neighbors::as_compact).
//! [`new`](FrontierEngine::new) and [`grow`](FrontierEngine::grow) check
//! once that the vertex count fits `u32`, so every id converts without a
//! check. [`mark_dirty`](FrontierEngine::mark_dirty) and
//! [`mark_dirty_concurrent`](FrontierEngine::mark_dirty_concurrent) take a
//! `CompactId` (most callers hold a neighbor's); the rest of the API takes
//! and yields `VertexId`s.

use std::ops::Range;
use std::sync::Mutex;

use mis_graph::{CompactId, Graph, VertexId, VertexSet};
use rayon::ChunkQueue;

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

/// Net changes to the cached counts from one worker's share of a pass,
/// merged as sums.
#[derive(Debug, Default, Clone, Copy)]
struct Deltas {
    black: isize,
    stable_black: isize,
    unstable: isize,
    active: isize,
    pending: isize,
    pending_volume: isize,
}

/// Per-worker scratch of a counter-model scatter or a dispatched flush: the
/// vertices this worker won the dirty-mark race for, the frontier entries
/// it added, and its count changes. Merged deterministically after the
/// pass and recycled, so its buffers keep their capacity across rounds.
#[derive(Debug, Default, Clone)]
pub struct ScatterSink {
    dirty: Vec<CompactId>,
    frontier_adds: Vec<CompactId>,
    deltas: Deltas,
}

/// `+1` for a flag that turned on, `-1` for one that turned off.
#[inline]
fn unit(on: bool) -> isize {
    if on {
        1
    } else {
        -1
    }
}

/// The compact id of vertex `u < n`. The engine's vertex count fits `u32`
/// (checked once where the engine is sized), so the cast is exact.
#[inline]
fn compact(u: VertexId) -> CompactId {
    debug_assert!(u32::try_from(u).is_ok(), "vertex {u} has no compact id");
    CompactId::from_raw(u as u32)
}

/// Panics unless `n` vertices have compact ids (the bound
/// [`GraphBuilder::new`](mis_graph::GraphBuilder::new) enforces).
fn assert_compact_count(n: usize) {
    assert!(
        u32::try_from(n).is_ok(),
        "the engine's 4-byte vertex ids support at most u32::MAX vertices, got {n}"
    );
}

/// Pops a recycled buffer from a shared pool, or makes a new one.
fn recycled<T: Default>(pool: &Mutex<Vec<T>>) -> T {
    pool.lock()
        .expect("buffer pool mutex is never poisoned")
        .pop()
        .unwrap_or_default()
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
    frontier: Vec<CompactId>,
    /// `frontier_contains[u]` — `u` has an entry in `frontier` (possibly a
    /// stale one awaiting compaction). Guards against duplicate entries.
    frontier_contains: AtomicFlagVec,
    /// Worklist of vertices whose flags must be recomputed by `flush`.
    dirty: Vec<CompactId>,
    /// `dirty_mark[u]` — `u` is currently queued in `dirty`.
    dirty_mark: AtomicFlagVec,
    /// Number of pending vertices (`|F_t|`), kept exact so the dense/sparse
    /// decision and `frontier_len` are `O(1)`.
    pending_count: usize,
    /// `vol(F_t) = Σ_{u pending} deg(u)`, kept exact for the same reason.
    pending_volume: usize,
    /// Recycled per-worker sinks of the dispatched `par_round` and `flush`.
    sink_pool: Vec<ScatterSink>,
    /// Recycled per-chunk frontier segments of the parallel recount.
    seg_pool: Vec<Vec<CompactId>>,
}

impl FrontierEngine {
    /// Creates an engine for `n` vertices with every vertex white and no
    /// bookkeeping established; stage the blackness with
    /// [`stage_black`](Self::stage_black) and run a recount before use.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX`: the engine's worklists hold the
    /// CSR's 4-byte [`CompactId`]s.
    pub fn new(n: usize) -> Self {
        assert_compact_count(n);
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
            seg_pool: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
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

    /// The dense path's fused full recount on one thread: recomputes every
    /// counter, flag, cached count, and the frontier from the current
    /// blackness projection in `O(n + m)` streaming passes (no frontier
    /// sort, no dirty-marking, no lock-prefixed read-modify-writes).
    ///
    /// The counters are *pushed*: each black vertex adds 1 to its
    /// neighbors' black-neighbor counters, each stable-black vertex to their
    /// stable-black-neighbor counters. On one thread that walks only the
    /// black vertices' lists, which beats pulling over every list when few
    /// vertices are black; [`recount_par`](Self::recount_par) pulls instead.
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
        // Pass 1: black-neighbor counters, pushed from the black vertices.
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
        // Pushing in vertex order leaves the frontier already sorted.
        let mut frontier = std::mem::take(&mut self.frontier);
        frontier.clear();
        let (counts, pending_volume) = self.classify_range(graph, 0..n, &classify, &mut frontier);
        self.frontier = frontier;
        self.counts = counts;
        self.pending_count = self.frontier.len();
        self.pending_volume = pending_volume;
    }

    /// The classification pass of both recounts: from settled counters,
    /// writes the flags and frontier marks of the vertices in `range`,
    /// appends its pending vertices to `frontier` in ascending order, and
    /// returns the range's counts and pending volume. Writes only slots of
    /// `range`, so disjoint ranges may run concurrently.
    fn classify_range<C>(
        &self,
        graph: &Graph,
        range: Range<VertexId>,
        classify: &C,
        frontier: &mut Vec<CompactId>,
    ) -> (StateCounts, usize)
    where
        C: Fn(VertexId, u32) -> VertexClass,
    {
        let mut counts = StateCounts::default();
        let mut pending_volume = 0usize;
        for u in range {
            let mut f = 0u8;
            let black = self.black.get(u);
            if black {
                counts.black += 1;
            } else {
                counts.non_black += 1;
            }
            let black_nbrs = self.black_nbrs.get(u);
            let stable_black = black && black_nbrs == 0;
            if stable_black {
                f |= STABLE_BLACK;
                counts.stable_black += 1;
            }
            if stable_black || self.stable_black_nbrs.get(u) > 0 {
                f |= STABLE;
            } else {
                counts.unstable += 1;
            }
            let class = classify(u, black_nbrs);
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
                frontier.push(compact(u));
            }
            self.frontier_contains.set(u, class.pending);
            self.flags.set(u, f);
        }
        (counts, pending_volume)
    }

    /// Parallel counterpart of [`recount`](Self::recount): the same full
    /// recount, run as **one** dispatch on the persistent pool over
    /// volume-balanced vertex ranges ([`Graph::balanced_ranges`]), each
    /// owned by one participant, in two passes around **one** internal
    /// barrier:
    ///
    /// 1. each owner *pulls* its vertices' black-neighbor counts from the
    ///    blackness projection and stores them with plain stores into slots
    ///    only it writes (no clearing pass, no atomic adds); a vertex found
    ///    stable black pushes its +1 into its neighbors' stable-black
    ///    counters, the only atomic adds left;
    /// 2. after the barrier, each owner classifies its vertices, by the
    ///    same pass the sequential recount ends with.
    ///
    /// A pull walks every adjacency list where the push walks only the
    /// black vertices' lists, but it reads instead of scattering writes,
    /// so it scales with the participants where concurrent atomic adds
    /// contend; the sequential recount keeps the push and is this pull's
    /// differential oracle. Counts are exact integers and every flag is
    /// written by its range's owner, so the result is bit-identical for
    /// every thread count; the frontier is assembled from the per-range
    /// segments in range order and therefore comes out sorted, same as the
    /// sequential recount. Below the parallel threshold or on one thread it
    /// runs the sequential recount inline.
    pub fn recount_par<C>(&mut self, graph: &Graph, threads: usize, classify: C)
    where
        C: Fn(VertexId, u32) -> VertexClass + Sync,
    {
        debug_assert!(self.dirty.is_empty(), "recount requires a flushed engine");
        assert_eq!(graph.n(), self.n, "graph size must match the engine");
        if self.n < PAR_WORK_THRESHOLD || threads <= 1 {
            return self.recount(graph, classify);
        }
        let ranges = graph.balanced_ranges(threads);
        if ranges.len() <= 1 {
            return self.recount(graph, classify);
        }
        self.stable_black_nbrs.clear_all();
        let pool = rayon::global_pool(threads);
        let segments = Mutex::new(std::mem::take(&mut self.seg_pool));
        let engine = &*self;
        let ranges_ref = &ranges;
        let classify = &classify;
        // Participants without a range (the pool can be wider than the range
        // count) skip the work but still hit the barrier.
        let parts: Vec<(StateCounts, usize, Vec<CompactId>)> = pool.broadcast(|ctx| {
            let range = ranges_ref.get(ctx.index()).map(|&(lo, hi)| lo..hi);
            // Pass 1: pull the black-neighbor counts and push the
            // stable-black +1s.
            if let Some(range) = range.clone() {
                for u in range {
                    let nbrs = graph.neighbors(u).as_compact();
                    let count: u32 = nbrs
                        .iter()
                        .map(|v| u32::from(engine.black.get(v.index())))
                        .sum();
                    engine.black_nbrs.set(u, count);
                    if count == 0 && engine.black.get(u) {
                        for v in nbrs {
                            engine.stable_black_nbrs.add(v.index(), 1);
                        }
                    }
                }
            }
            ctx.barrier();
            // Pass 2: flags + per-range counts and frontier segments.
            let mut segment = recycled(&segments);
            let (counts, pending_volume) = range.map_or_else(Default::default, |range| {
                engine.classify_range(graph, range, classify, &mut segment)
            });
            (counts, pending_volume, segment)
        });
        self.seg_pool = segments
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
        D: Fn(&Self, Range<VertexId>) -> u64 + Sync,
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
    fn begin_round_impl(&mut self, out: &mut Vec<CompactId>, sort: bool) {
        debug_assert!(self.dirty.is_empty(), "flush must run before begin_round");
        let flags = &self.flags;
        let contains = &self.frontier_contains;
        self.frontier.retain(|&u| {
            if flags.get(u.index()) & PENDING != 0 {
                true
            } else {
                contains.set(u.index(), false);
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
    pub fn begin_round(&mut self, out: &mut Vec<CompactId>) {
        self.begin_round_impl(out, true);
    }

    /// Like [`begin_round`](Self::begin_round) but without the sort:
    /// `O(|A_t|)`. Correct only when the round's randomness does not depend
    /// on draw order (the counter-based parallel path).
    pub fn begin_round_unsorted(&mut self, out: &mut Vec<CompactId>) {
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
    /// never disappear; leavers are detached instead) or exceeds `u32::MAX`.
    pub fn grow(&mut self, new_n: usize) {
        assert!(
            new_n >= self.n,
            "engine cannot shrink: {} -> {new_n}",
            self.n
        );
        assert_compact_count(new_n);
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
            self.mark_dirty(compact(u));
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
            self.mark_dirty(compact(a));
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
        self.mark_dirty(compact(u));
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
        for &v in graph.neighbors(u).as_compact() {
            if black {
                self.black_nbrs.add_mut(v.index(), 1);
            } else {
                self.black_nbrs.sub_mut(v.index(), 1);
            }
            self.mark_dirty(v);
        }
    }

    /// Queues `u` for reclassification by the next [`flush`](Self::flush).
    /// Needed whenever something the classifier reads changed without a
    /// blackness flip (e.g. a neighbor's `black1`↔`black0` flip in the
    /// 3-state process).
    #[inline]
    pub fn mark_dirty(&mut self, u: CompactId) {
        if !self.dirty_mark.test_and_set_mut(u.index()) {
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
        self.mark_dirty_concurrent(compact(u), sink);
        if self.black.get(u) == black {
            return;
        }
        self.black.set(u, black);
        sink.deltas.black += unit(black);
        for &v in graph.neighbors(u).as_compact() {
            if black {
                self.black_nbrs.add(v.index(), 1);
            } else {
                self.black_nbrs.sub(v.index(), 1);
            }
            self.mark_dirty_concurrent(v, sink);
        }
    }

    /// Concurrent counterpart of [`mark_dirty`](Self::mark_dirty): wins the
    /// per-vertex mark race at most once across all threads and records the
    /// vertex in the caller's sink.
    #[inline]
    pub fn mark_dirty_concurrent(&self, u: CompactId, sink: &mut ScatterSink) {
        if !self.dirty_mark.test_and_set(u.index()) {
            sink.dirty.push(u);
        }
    }

    /// Adds one pass's count changes to the cached counts.
    fn apply_deltas(&mut self, d: Deltas) {
        let counts = &mut self.counts;
        counts.black = counts.black.wrapping_add_signed(d.black);
        counts.non_black = counts.non_black.wrapping_add_signed(-d.black);
        counts.stable_black = counts.stable_black.wrapping_add_signed(d.stable_black);
        counts.unstable = counts.unstable.wrapping_add_signed(d.unstable);
        counts.active = counts.active.wrapping_add_signed(d.active);
        self.pending_count = self.pending_count.wrapping_add_signed(d.pending);
        self.pending_volume = self.pending_volume.wrapping_add_signed(d.pending_volume);
    }

    /// Merges one worker's sink — its count changes, its dirty vertices
    /// into the queue, its frontier entries — and recycles its buffers.
    fn absorb(&mut self, mut sink: ScatterSink) {
        self.apply_deltas(std::mem::take(&mut sink.deltas));
        self.dirty.append(&mut sink.dirty);
        self.frontier.append(&mut sink.frontier_adds);
        self.sink_pool.push(sink);
    }

    /// Runs one complete counter-based round over `worklist`: one
    /// **decide-and-scatter dispatch** with chunk-granular work stealing,
    /// then a [`flush`](Self::flush) on the same threads — two pool
    /// dispatches per round in total. Returns the sum of the draw counts
    /// `visit` reports.
    ///
    /// This is the sparse round of the counter-model driver of
    /// [`RuleProcess`](crate::RuleProcess). `visit` moves one vertex: it
    /// decides the vertex from its own state and the cached flags, writes
    /// the new state, and scatters the change at once through the engine's
    /// concurrent primitives ([`scatter_black`](Self::scatter_black) /
    /// [`mark_dirty_concurrent`](Self::mark_dirty_concurrent)) into the
    /// worker's sink. Other workers may still be deciding meanwhile, which
    /// is sound because a decision never reads the live blackness, counters,
    /// or dirty marks a scatter writes, and every vertex is visited by
    /// exactly one worker. Work is claimed from per-worker stealing deques
    /// ([`rayon::ChunkQueue`]), so a degree-skewed worklist does not
    /// serialize the round on whichever worker drew the fattest chunk; the
    /// chunk→worker mapping varies, but all merges (counter deltas, dirty
    /// dedup, draw-count sums) are order-insensitive. Sub-threshold
    /// worklists (e.g. the near-empty late stabilization tail) run inline
    /// with no dispatch, and allocate nothing once the recycled sinks are
    /// warm; a dispatched round still allocates its result vector and chunk
    /// queue.
    pub fn par_round<V, C>(
        &mut self,
        graph: &Graph,
        worklist: &[CompactId],
        threads: usize,
        visit: V,
        classify: C,
    ) -> u64
    where
        V: Fn(&Self, VertexId, &mut ScatterSink) -> u64 + Sync,
        C: Fn(VertexId, u32) -> VertexClass + Sync,
    {
        let chunks = StealChunks::new(worklist.len(), threads);
        let mut draws = 0u64;
        if chunks.count() == 1 {
            let mut sink = self.sink_pool.pop().unwrap_or_default();
            draws = worklist
                .iter()
                .map(|&u| visit(self, u.index(), &mut sink))
                .sum();
            self.absorb(sink);
        } else if chunks.count() > 1 {
            let pool = rayon::global_pool(threads);
            let queue = ChunkQueue::new(chunks.count(), pool.current_num_threads());
            let sinks = Mutex::new(std::mem::take(&mut self.sink_pool));
            let engine = &*self;
            let parts = pool.broadcast(|ctx| {
                let mut sink = recycled(&sinks);
                let mut draws = 0u64;
                while let Some(chunk) = queue.pop(ctx.index()) {
                    for &u in &worklist[chunks.range(chunk)] {
                        draws += visit(engine, u.index(), &mut sink);
                    }
                }
                (draws, sink)
            });
            self.sink_pool = sinks
                .into_inner()
                .expect("sink pool mutex is never poisoned");
            for (part, sink) in parts {
                draws += part;
                self.absorb(sink);
            }
        }
        self.flush(graph, threads, classify);
        draws
    }

    /// Pass 1 of a flush at dirty vertex `u`: settles its stable-black flag
    /// from its blackness and black-neighbor count, and returns the new
    /// value if it flipped. The caller then moves the neighbors'
    /// stable-black counters and marks them dirty.
    #[inline]
    fn settle_stable_black(&self, u: VertexId, deltas: &mut Deltas) -> Option<bool> {
        let stable_black = self.black.get(u) && self.black_nbrs.get(u) == 0;
        let f = self.flags.get(u);
        if stable_black == (f & STABLE_BLACK != 0) {
            return None;
        }
        self.flags.set(u, f ^ STABLE_BLACK);
        deltas.stable_black += unit(stable_black);
        Some(stable_black)
    }

    /// Pass 2 of a flush at `u`: clears its dirty mark, recomputes its
    /// stable, active, and pending flags from the settled counters and
    /// `classify`, records the changes in `deltas`, and pushes `u` to
    /// `frontier` if it starts pending without an entry. Writes only `u`'s
    /// own slots.
    #[inline]
    fn reclassify<C>(
        &self,
        graph: &Graph,
        id: CompactId,
        classify: &C,
        deltas: &mut Deltas,
        frontier: &mut Vec<CompactId>,
    ) where
        C: Fn(VertexId, u32) -> VertexClass,
    {
        let u = id.index();
        self.dirty_mark.set(u, false);
        let old = self.flags.get(u);
        let class = classify(u, self.black_nbrs.get(u));
        debug_assert!(
            class.pending || !class.active,
            "active vertices must be pending"
        );
        let stable = old & STABLE_BLACK != 0 || self.stable_black_nbrs.get(u) > 0;
        let new = (old & STABLE_BLACK)
            | if stable { STABLE } else { 0 }
            | if class.active { ACTIVE } else { 0 }
            | if class.pending { PENDING } else { 0 };
        let changed = old ^ new;
        if changed & STABLE != 0 {
            deltas.unstable -= unit(stable);
        }
        if changed & ACTIVE != 0 {
            deltas.active += unit(class.active);
        }
        if changed & PENDING != 0 {
            deltas.pending += unit(class.pending);
            deltas.pending_volume += unit(class.pending) * graph.degree(u) as isize;
            // A vertex that stopped pending keeps its (now stale) entry
            // until the next begin_round compaction.
            if class.pending && !self.frontier_contains.get(u) {
                self.frontier_contains.set(u, true);
                frontier.push(id);
            }
        }
        if changed != 0 {
            self.flags.set(u, new);
        }
    }

    /// Reclassifies every dirty vertex, updating stability bookkeeping,
    /// cached counts, and frontier membership by diffing against the stored
    /// flags, in two passes:
    ///
    /// 1. settle the stable-black flag of every dirty vertex, and push each
    ///    flip into its neighbors' stable-black counters, marking them dirty
    ///    (the second wave). One generation suffices: stable-black status
    ///    depends only on blackness and black-neighbor counts, and whatever
    ///    moves those marks the vertex dirty;
    /// 2. reclassify the dirty vertices and the second wave, once each.
    ///
    /// The cost is `O(|dirty| + vol(S_t))`, where `S_t` is the set of
    /// vertices whose stable-black status flipped. A dirty list below the
    /// parallel threshold, or `threads ≤ 1`, runs both passes inline with
    /// plain neighbor updates. A larger one runs them as **one** dispatch on
    /// the persistent pool, over chunks claimed from work-stealing deques,
    /// with an internal barrier between the passes; each worker reclassifies
    /// the second-wave vertices it won the dirty-mark race for. Counts merge
    /// as sums and frontier entries as a union, so the result is identical
    /// for every thread count.
    pub fn flush<C>(&mut self, graph: &Graph, threads: usize, classify: C)
    where
        C: Fn(VertexId, u32) -> VertexClass + Sync,
    {
        let chunks = StealChunks::new(self.dirty.len(), threads);
        if chunks.count() > 1 {
            let mut dirty = std::mem::take(&mut self.dirty);
            let pool = rayon::global_pool(threads);
            let workers = pool.current_num_threads();
            // Independent claim queues for the two passes over the same chunks.
            let q1 = ChunkQueue::new(chunks.count(), workers);
            let q2 = ChunkQueue::new(chunks.count(), workers);
            let sinks = Mutex::new(std::mem::take(&mut self.sink_pool));
            let (engine, dirty_ref, classify) = (&*self, &dirty, &classify);
            let parts = pool.broadcast(|ctx| {
                let mut sink = recycled(&sinks);
                while let Some(chunk) = q1.pop(ctx.index()) {
                    for &u in &dirty_ref[chunks.range(chunk)] {
                        let u = u.index();
                        if let Some(on) = engine.settle_stable_black(u, &mut sink.deltas) {
                            for &v in graph.neighbors(u).as_compact() {
                                if on {
                                    engine.stable_black_nbrs.add(v.index(), 1);
                                } else {
                                    engine.stable_black_nbrs.sub(v.index(), 1);
                                }
                                engine.mark_dirty_concurrent(v, &mut sink);
                            }
                        }
                    }
                }
                ctx.barrier();
                // The second waves are disjoint across workers (the dirty
                // mark dedups them) and from the dirty list (already
                // marked), so every vertex is reclassified exactly once.
                let ScatterSink {
                    dirty: wave2,
                    frontier_adds,
                    deltas,
                } = &mut sink;
                while let Some(chunk) = q2.pop(ctx.index()) {
                    for &u in &dirty_ref[chunks.range(chunk)] {
                        engine.reclassify(graph, u, classify, deltas, frontier_adds);
                    }
                }
                for u in wave2.drain(..) {
                    engine.reclassify(graph, u, classify, deltas, frontier_adds);
                }
                sink
            });
            self.sink_pool = sinks
                .into_inner()
                .expect("sink pool mutex is never poisoned");
            dirty.clear();
            self.dirty = dirty;
            for sink in parts {
                self.absorb(sink);
            }
            return;
        }
        let mut deltas = Deltas::default();
        // The second wave this pass appends waits for pass 2.
        for i in 0..self.dirty.len() {
            let u = self.dirty[i].index();
            if let Some(on) = self.settle_stable_black(u, &mut deltas) {
                for &v in graph.neighbors(u).as_compact() {
                    if on {
                        self.stable_black_nbrs.add_mut(v.index(), 1);
                    } else {
                        self.stable_black_nbrs.sub_mut(v.index(), 1);
                    }
                    self.mark_dirty(v);
                }
            }
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        let mut frontier = std::mem::take(&mut self.frontier);
        for &u in &dirty {
            self.reclassify(graph, u, &classify, &mut deltas, &mut frontier);
        }
        dirty.clear();
        self.dirty = dirty;
        self.frontier = frontier;
        self.apply_deltas(deltas);
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

    /// A from-scratch build of `black` on `g`: staging plus the sequential
    /// push recount.
    fn rebuilt(g: &Graph, black: &[bool]) -> FrontierEngine {
        let mut e = FrontierEngine::new(g.n());
        for (u, &b) in black.iter().enumerate() {
            e.stage_black(u, b);
        }
        e.recount(g, two_state_like(black));
        e
    }

    #[test]
    fn rebuild_matches_definitions() {
        let g = generators::path(5);
        // Colors: B W B B W  -> vertex 0 stable black? nbr 1 white -> yes.
        let e = rebuilt(&g, &[true, false, true, true, false]);
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
        let mut e = rebuilt(&g, &black);
        // Flip a few vertices through the delta path.
        for &(u, b) in &[(0usize, true), (5, true), (5, false), (10, true)] {
            black[u] = b;
            e.set_black(&g, u, b);
            e.flush(&g, 1, two_state_like(&black));
        }
        let fresh = rebuilt(&g, &black);
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
        let mut delta = rebuilt(&g, &black);
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
            delta.flush(&g, 1, two_state_like(&black));
        }
        // ...and through staging + dense recount.
        let mut dense = rebuilt(&g, &[false; 36]);
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

    /// Builds a fresh engine for `black` through the sequential push
    /// recount, restages `reused` (whatever configuration it last held) to
    /// `black`, recounts it with the pool pull on `threads` threads, and
    /// asserts the two agree, down to the stable-black counters and the
    /// frontier order.
    fn assert_pull_matches_push(
        g: &Graph,
        black: &[bool],
        reused: &mut FrontierEngine,
        threads: usize,
        ctx: &str,
    ) {
        let push = rebuilt(g, black);
        for (u, &b) in black.iter().enumerate() {
            reused.stage_black(u, b);
        }
        reused.recount_par(g, threads, two_state_like(black));
        assert_engines_agree(&push, reused, ctx);
        for u in 0..g.n() {
            assert_eq!(
                push.stable_black_nbrs.get(u),
                reused.stable_black_nbrs.get(u),
                "stable_black_nbrs, vertex {u}: {ctx}"
            );
        }
        assert_eq!(push.frontier, reused.frontier, "frontier order: {ctx}");
    }

    /// The pool recount (a pull) against the sequential one (a push) on
    /// configurations above the parallel threshold: half and a quarter of
    /// the vertices black, an MIS with a few flips (many stable-black
    /// vertices, whose +1s the pull still pushes), and a star whose hub
    /// sits alone in a range, once black and once white under stable-black
    /// leaves that all push into it. One engine is reused throughout, so a
    /// stale counter from the previous configuration would show.
    #[test]
    fn recount_par_matches_recount_for_every_thread_count() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let n = 4000; // above PAR_WORK_THRESHOLD: the pool path runs
        let g = generators::gnp(n, 8.0 / n as f64, &mut rng);
        let half: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let quarter: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.25)).collect();
        let mut mis_like = vec![false; n];
        for u in 0..n {
            mis_like[u] = g.neighbors(u).iter().all(|v| v > u || !mis_like[v]);
        }
        for u in (0..n).step_by(97) {
            mis_like[u] = !mis_like[u];
        }
        assert!(mis_like.iter().filter(|&&b| b).count() > n / 8);
        let star = generators::star(3000);
        let leaves: Vec<bool> = (0..3000).map(|u| u > 0 && u % 3 != 0).collect();
        let mut hub_black = leaves.clone();
        hub_black[0] = true;

        let mut reused = FrontierEngine::new(n);
        let mut reused_star = FrontierEngine::new(3000);
        for threads in [2usize, 3, 8, 11] {
            for (label, black) in [("half", &half), ("quarter", &quarter), ("mis", &mis_like)] {
                let ctx = format!("{label}, {threads} threads");
                assert_pull_matches_push(&g, black, &mut reused, threads, &ctx);
            }
            if threads >= 3 {
                assert_eq!(star.balanced_ranges(threads)[0], (0, 1), "hub alone");
            }
            for (label, black) in [("black hub", &hub_black), ("white hub", &leaves)] {
                let ctx = format!("star, {label}, {threads} threads");
                assert_pull_matches_push(&star, black, &mut reused_star, threads, &ctx);
            }
            // Under the white hub every black leaf is stable black.
            assert_eq!(reused_star.counts().stable_black, 2000, "{threads} threads");
        }
    }

    /// A 3-state process built on the pool under `Parallel { threads }`,
    /// whose recount pulls `black1` on demand, equals the one built inline,
    /// engine and `black1` neighbor counts alike.
    #[test]
    fn three_state_process_built_on_the_pool_equals_the_inline_one() {
        use crate::exec::ExecutionMode;
        use crate::init::InitStrategy;
        use crate::three_state::ThreeStateProcess;
        use rand::SeedableRng;
        let n = 4000;
        let g = generators::gnp(
            n,
            8.0 / n as f64,
            &mut rand_chacha::ChaCha8Rng::seed_from_u64(5),
        );
        let rng = || rand_chacha::ChaCha8Rng::seed_from_u64(6);
        let inline = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut rng());
        for threads in [2usize, 3, 8, 11] {
            let execution = ExecutionMode::Parallel { threads };
            let pool =
                ThreeStateProcess::with_init_on(&g, InitStrategy::Random, &mut rng(), execution);
            let ctx = format!("three-state, {threads} threads");
            assert_engines_agree(inline.engine(), pool.engine(), &ctx);
            assert_eq!(inline.engine().frontier, pool.engine().frontier, "{ctx}");
            for u in 0..n {
                assert_eq!(
                    inline.black1_neighbor_count(u),
                    pool.black1_neighbor_count(u),
                    "black1, vertex {u}: {ctx}"
                );
            }
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
        // The headline contract of the sparse round path: one
        // decide-and-scatter dispatch plus one flush dispatch. Uses an
        // uncommon thread count so the global pool's counters are not
        // perturbed by other tests running concurrently.
        let threads = 13;
        let n = 6000; // above PAR_WORK_THRESHOLD so dispatches actually run
        let g = generators::grid(60, 100);
        let mut e = rebuilt(&g, &vec![false; n]);
        let mut worklist = Vec::new();
        e.begin_round_unsorted(&mut worklist);
        assert!(worklist.len() >= crate::exec::PAR_WORK_THRESHOLD);
        let pool = rayon::global_pool(threads);
        let before = pool.stats();
        // Flip every worklist vertex black: plenty of scatter + flush work.
        e.par_round(
            &g,
            &worklist,
            threads,
            |engine, u, sink| {
                engine.scatter_black(&g, u, true, sink);
                1
            },
            |u, bn| {
                let active = if u % 2 == 0 { bn > 0 } else { bn == 0 };
                VertexClass {
                    active,
                    pending: active,
                }
            },
        );
        let after = pool.stats();
        assert!(
            after.dispatches - before.dispatches <= 2,
            "sparse round used {} dispatches (expected <= 2)",
            after.dispatches - before.dispatches
        );
        // The barrier budget `work_counts` holds every sparse round to.
        assert!(
            after.barriers - before.barriers <= 4,
            "sparse round crossed {} barriers (expected <= 4)",
            after.barriers - before.barriers
        );
    }

    #[test]
    fn dense_round_costs_two_dispatches_and_one_barrier() {
        // A dense counter-model round is the decide sweep (one dispatch, no
        // barrier) plus the pull recount (one dispatch, one internal
        // barrier). A thread count no other test uses keeps the pool's
        // counters this test's own.
        let threads = 14;
        let n = 6000;
        let g = generators::grid(60, 100);
        let black: Vec<bool> = (0..n).map(|u| u % 2 == 0).collect();
        let mut e = rebuilt(&g, &vec![false; n]);
        let pool = rayon::global_pool(threads);
        let before = pool.stats();
        let staged = e.dense_sweep(&g, threads, |engine, range| {
            for u in range.clone() {
                engine.stage_black(u, black[u]);
            }
            range.len() as u64
        });
        e.recount_par(&g, threads, two_state_like(&black));
        let after = pool.stats();
        assert_eq!(staged, n as u64);
        assert_eq!(after.dispatches - before.dispatches, 2, "dispatches");
        assert_eq!(after.barriers - before.barriers, 1, "barriers");
        assert_eq!(e.counts().black, n / 2);
    }

    #[test]
    fn prefers_dense_tracks_frontier_mass() {
        let g = generators::path(64);
        // Everything black: every vertex pending -> dense.
        assert!(rebuilt(&g, &[true; 64]).prefers_dense(&g));
        // A stable MIS configuration: empty frontier -> sparse.
        let alternating: Vec<bool> = (0..64).map(|u| u % 2 == 0).collect();
        let e = rebuilt(&g, &alternating);
        assert_eq!(e.frontier_len(), 0);
        assert!(!e.prefers_dense(&g));
    }

    /// A flush whose dirty list exceeds the parallel threshold runs as one
    /// dispatch with one internal barrier, and leaves exactly what a
    /// from-scratch recount builds: flags, black-neighbor and stable-black
    /// counters, counts, and the frontier. The batch makes stable blacks and
    /// unmakes others, so second-wave vertices (not dirty before the flush)
    /// change their stable flag both ways.
    #[test]
    fn dispatched_flush_matches_a_recount() {
        // A thread count no other test here uses keeps the pool's counters
        // this test's own.
        let threads = 12;
        let (rows, cols) = (60, 100);
        let g = generators::grid(rows, cols);
        let at = |r: usize, c: usize| r * cols + c;
        // Rows 0 mod 4 hold black pairs at columns 4k and 4k + 1; rows 2
        // mod 4 hold a lone (stable) black at column 4k + 2.
        let mut black = vec![false; g.n()];
        for r in (0..rows).step_by(2) {
            for c in (0..cols).step_by(4) {
                if r % 4 == 0 {
                    black[at(r, c)] = true;
                    black[at(r, c + 1)] = true;
                } else {
                    black[at(r, c + 2)] = true;
                }
            }
        }
        let mut e = rebuilt(&g, &black);
        let stable_before: Vec<bool> = (0..g.n()).map(|u| e.is_stable(u)).collect();
        // Break every pair (its left end turns stable black) and give every
        // lone black a black neighbor (both stop being stable black).
        for r in (0..rows).step_by(2) {
            for c in (0..cols).step_by(4) {
                let u = if r % 4 == 0 {
                    at(r, c + 1)
                } else {
                    at(r, c + 3)
                };
                black[u] = !black[u];
                e.set_black(&g, u, black[u]);
            }
        }
        assert!(e.dirty.len() >= PAR_WORK_THRESHOLD, "{}", e.dirty.len());
        let queued: Vec<bool> = (0..g.n()).map(|u| e.dirty_mark.get(u)).collect();
        let pool = rayon::global_pool(threads);
        let before = pool.stats();
        e.flush(&g, threads, two_state_like(&black));
        let after = pool.stats();
        assert_eq!(after.dispatches - before.dispatches, 1, "dispatches");
        assert_eq!(after.barriers - before.barriers, 1, "barriers");

        let mut fresh = rebuilt(&g, &black);
        assert_engines_agree(&e, &fresh, "dispatched flush vs recount");
        for u in 0..g.n() {
            assert_eq!(
                e.stable_black_nbrs.get(u),
                fresh.stable_black_nbrs.get(u),
                "stable_black_nbrs, vertex {u}"
            );
            assert!(!e.dirty_mark.get(u), "vertex {u} still marked");
        }
        assert!(e.dirty.is_empty());
        let second_wave = |to: bool| {
            (0..g.n()).any(|u| !queued[u] && stable_before[u] != to && e.is_stable(u) == to)
        };
        assert!(second_wave(true) && second_wave(false));
        let (mut wl_e, mut wl_fresh) = (Vec::new(), Vec::new());
        e.begin_round(&mut wl_e);
        fresh.begin_round(&mut wl_fresh);
        assert_eq!(wl_e, wl_fresh);
    }

    #[test]
    fn begin_round_is_sorted_and_deduplicated() {
        let g = generators::complete(6);
        let black = vec![true; 6];
        let mut e = rebuilt(&g, &black);
        let all: Vec<CompactId> = (0..6).map(CompactId::new).collect();
        let mut out = Vec::new();
        e.begin_round(&mut out);
        assert_eq!(out, all);
        // Leaving and re-entering the frontier must not duplicate entries.
        let mut black2 = black.clone();
        black2[3] = false; // 3 becomes white with black nbrs: not pending
        e.set_black(&g, 3, false);
        e.flush(&g, 1, two_state_like(&black2));
        black2[3] = true;
        e.set_black(&g, 3, true);
        e.flush(&g, 1, two_state_like(&black2));
        e.begin_round(&mut out);
        assert_eq!(out, all);
        // The unsorted variant returns the same set.
        let mut unsorted = Vec::new();
        e.begin_round_unsorted(&mut unsorted);
        unsorted.sort_unstable();
        assert_eq!(unsorted, all);
    }

    #[test]
    fn grow_and_edge_update_match_rebuild_on_mutated_graph() {
        use mis_graph::GraphDelta;
        let g = generators::grid(5, 5);
        let mut black = vec![false; 25];
        for &u in &[0usize, 6, 12, 24, 13] {
            black[u] = true;
        }
        let mut e = rebuilt(&g, &black);

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
        e.flush(&g2, 1, two_state_like(&black));

        let mut fresh = rebuilt(&g2, &black);
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
        let mut e = rebuilt(&g, &black);

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
                e.flush(&g, 1, two_state_like(&black));
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
                e.flush(&g, 1, two_state_like(&black));
            }
            let fresh = rebuilt(&g, &black);
            assert_engines_agree(&e, &fresh, &format!("after op {i}"));
        }
    }

    /// The worklists hold 4-byte ids, so the engine refuses a vertex count
    /// they cannot hold, before it allocates anything.
    #[test]
    #[should_panic(expected = "at most u32::MAX vertices")]
    fn new_refuses_a_vertex_count_past_compact_ids() {
        FrontierEngine::new(u32::MAX as usize + 1);
    }

    #[test]
    fn empty_graph_is_trivially_consistent() {
        let e = rebuilt(&Graph::empty(0), &[]);
        assert!(e.is_stabilized());
        assert_eq!(e.counts(), StateCounts::default());
    }
}
