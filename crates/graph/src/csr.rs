use serde::{Deserialize, Serialize};

use crate::{GraphBuilder, GraphError, VertexId};

/// Compact 32-bit vertex id — the on-disk/in-memory id type of the CSR
/// adjacency storage.
///
/// The public graph API works in [`VertexId`] (= `usize`): every accessor
/// takes and yields `usize` ids, and the conversion to and from the compact
/// representation happens **only at the CSR boundary** (inside
/// [`Graph`] and [`GraphBuilder`]). Storing adjacency as `u32` instead of
/// `usize` halves the memory traffic of every neighbor scan — the dominant
/// cost of the simulators' round loops — at the price of capping the vertex
/// count at `u32::MAX` (graph *edges* beyond the 4-billion mark are still
/// supported through the wide offset representation, see [`Graph`]).
///
/// Hot loops that want the raw compact slice (e.g. the dense sweep of the
/// round engine) can get it via [`Neighbors::as_compact`] and widen with
/// [`CompactId::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct CompactId(u32);

impl CompactId {
    /// Converts a [`VertexId`] into its compact form.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not fit in 32 bits.
    #[inline]
    pub fn new(v: VertexId) -> Self {
        assert!(
            u32::try_from(v).is_ok(),
            "vertex id {v} exceeds the u32 CSR limit"
        );
        CompactId(v as u32)
    }

    /// The vertex id as a `usize`, for indexing.
    #[inline]
    pub fn index(self) -> VertexId {
        self.0 as usize
    }

    /// The raw 32-bit value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Adjacency offsets of the CSR layout.
///
/// Offsets index into the adjacency array (length `2m`), so `u32` suffices
/// up to 2³² stored arcs (≈ 2.1 billion undirected edges); beyond that the
/// builder transparently switches to the wide `u64` representation. Keeping
/// the common case at 32 bits halves the offset array's footprint, which
/// matters for the cache behavior of vertex-order sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Offsets {
    /// 32-bit offsets: adjacency length fits in `u32`.
    Small(Vec<u32>),
    /// 64-bit offsets: graphs past the 4-billion-arc mark.
    Large(Vec<u64>),
}

impl Offsets {
    fn from_usize(offsets: Vec<usize>) -> Self {
        let last = *offsets.last().unwrap_or(&0);
        if u32::try_from(last).is_ok() {
            Offsets::Small(offsets.into_iter().map(|o| o as u32).collect())
        } else {
            Offsets::Large(offsets.into_iter().map(|o| o as u64).collect())
        }
    }

    #[inline]
    fn get(&self, i: usize) -> usize {
        match self {
            Offsets::Small(v) => v[i] as usize,
            Offsets::Large(v) => v[i] as usize,
        }
    }

    fn len(&self) -> usize {
        match self {
            Offsets::Small(v) => v.len(),
            Offsets::Large(v) => v.len(),
        }
    }
}

/// Iterator over a vertex's neighbors, yielding [`VertexId`]s (widening each
/// stored [`CompactId`] on the fly — a zero-cost `u32 → usize` extension).
#[derive(Debug, Clone)]
pub struct NeighborIter<'a> {
    inner: std::slice::Iter<'a, CompactId>,
}

impl Iterator for NeighborIter<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        self.inner.next().map(|id| id.index())
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

impl DoubleEndedIterator for NeighborIter<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<VertexId> {
        self.inner.next_back().map(|id| id.index())
    }
}

/// Borrowed view of one vertex's sorted neighbor list.
///
/// This is the CSR boundary: the backing storage holds [`CompactId`]s, but
/// the view iterates and compares in [`VertexId`] (= `usize`), so call sites
/// never handle the compact representation unless they opt in via
/// [`as_compact`](Neighbors::as_compact).
#[derive(Debug, Clone, Copy)]
pub struct Neighbors<'a> {
    ids: &'a [CompactId],
}

impl<'a> Neighbors<'a> {
    /// Number of neighbors (the vertex degree).
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if the vertex is isolated.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterator over the neighbor ids, in ascending order.
    #[inline]
    pub fn iter(&self) -> NeighborIter<'a> {
        NeighborIter {
            inner: self.ids.iter(),
        }
    }

    /// `true` if `v` is in the list. `O(log deg)` — the list is sorted.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        u32::try_from(v)
            .map(|raw| self.ids.binary_search(&CompactId(raw)).is_ok())
            .unwrap_or(false)
    }

    /// The raw compact (u32) id slice, for bandwidth-critical loops.
    #[inline]
    pub fn as_compact(&self) -> &'a [CompactId] {
        self.ids
    }

    /// Materializes the list as a `Vec<VertexId>` (tests and diagnostics).
    pub fn to_vec(&self) -> Vec<VertexId> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for Neighbors<'a> {
    type Item = VertexId;
    type IntoIter = NeighborIter<'a>;

    #[inline]
    fn into_iter(self) -> NeighborIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &Neighbors<'a> {
    type Item = VertexId;
    type IntoIter = NeighborIter<'a>;

    #[inline]
    fn into_iter(self) -> NeighborIter<'a> {
        self.iter()
    }
}

/// An immutable, simple, undirected graph stored in compressed sparse row
/// (CSR) form.
///
/// Vertices are the integers `0..n`. Each undirected edge `{u, v}` is stored
/// twice (once in each endpoint's adjacency list); adjacency lists are sorted,
/// which allows `O(log deg)` edge queries via binary search.
///
/// # Compact storage
///
/// Adjacency ids are stored as [`CompactId`] (`u32`) and offsets as `u32`
/// (switching to `u64` automatically past 2³² stored arcs), halving the
/// memory bandwidth of neighbor scans relative to a `usize` CSR. The public
/// API is unchanged: [`VertexId`] (= `usize`) in, [`VertexId`] out, with the
/// narrowing/widening confined to this module. Consequently the number of
/// *vertices* is capped at `u32::MAX` (enforced by [`GraphBuilder`]).
///
/// `Graph` is cheap to share between threads (`&Graph` is `Send + Sync`) and
/// all process simulators in the workspace borrow it immutably.
///
/// # Example
///
/// ```
/// use mis_graph::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3);
/// assert_eq!(g.neighbors(1).to_vec(), vec![0, 2]);
/// assert!(g.has_edge(2, 3));
/// assert!(!g.has_edge(0, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[u]..offsets[u+1]` is the slice of `adjacency` holding `N(u)`.
    offsets: Offsets,
    /// Concatenated, per-vertex-sorted adjacency lists (compact ids).
    adjacency: Vec<CompactId>,
    /// Number of undirected edges.
    m: usize,
}

impl Graph {
    pub(crate) fn from_sorted_adjacency(
        offsets: Vec<usize>,
        adjacency: Vec<VertexId>,
        m: usize,
    ) -> Self {
        debug_assert_eq!(*offsets.last().unwrap_or(&0), adjacency.len());
        Graph {
            offsets: Offsets::from_usize(offsets),
            adjacency: adjacency.into_iter().map(CompactId::new).collect(),
            m,
        }
    }

    /// Builds the CSR directly from compact parts (no widening round trip);
    /// used by the bulk generators.
    pub(crate) fn from_compact_parts(
        offsets: Vec<u32>,
        adjacency: Vec<CompactId>,
        m: usize,
    ) -> Self {
        debug_assert_eq!(
            *offsets.last().unwrap_or(&0) as usize,
            adjacency.len(),
            "offsets must cover the adjacency array"
        );
        Graph {
            offsets: Offsets::Small(offsets),
            adjacency,
            m,
        }
    }

    /// Builds a graph on `n` vertices from an iterator of undirected edges.
    ///
    /// Duplicate edges are collapsed. The edge order does not matter.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>= n` and
    /// [`GraphError::SelfLoop`] if an edge of the form `(u, u)` is supplied.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut builder = GraphBuilder::new(n);
        for (u, v) in edges {
            builder.try_add_edge(u, v)?;
        }
        Ok(builder.build())
    }

    /// Builds the empty graph (no edges) on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: Offsets::Small(vec![0; n + 1]),
            adjacency: Vec::new(),
            m: 0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Degree of vertex `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.n()`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.offsets.get(u + 1) - self.offsets.get(u)
    }

    /// The sorted neighbor list `N(u)`, as a [`Neighbors`] view yielding
    /// [`VertexId`]s.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.n()`.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> Neighbors<'_> {
        Neighbors {
            ids: &self.adjacency[self.offsets.get(u)..self.offsets.get(u + 1)],
        }
    }

    /// Returns `true` if `{u, v}` is an edge. `O(log deg(u))`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.n()` or `v >= self.n()`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        assert!(v < self.n(), "vertex {v} out of range");
        self.neighbors(u).contains(v)
    }

    /// Iterator over all vertices `0..n`.
    pub fn vertices(&self) -> std::ops::Range<VertexId> {
        0..self.n()
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree Δ of the graph; `0` for the empty / edgeless graph.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Average degree `2m / n`; `0.0` for the graph on zero vertices.
    pub fn average_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            2.0 * self.m as f64 / self.n() as f64
        }
    }

    /// Degree sequence indexed by vertex id.
    pub fn degrees(&self) -> Vec<usize> {
        self.vertices().map(|u| self.degree(u)).collect()
    }

    /// Splits `0..n` into up to `parts` contiguous vertex ranges of
    /// near-equal **volume** (each vertex weighted `1 + deg(u)`), so a
    /// full-sweep phase chunked this way balances actual work instead of
    /// vertex counts — on degree-skewed graphs, count-balanced chunks
    /// serialize the sweep on whichever chunk drew the hubs.
    ///
    /// The split points are found by binary search on the CSR offsets
    /// (`weight(0..u) = offsets[u] + u`), so the whole computation is
    /// `O(parts · log n)`. Empty trailing ranges are dropped; the returned
    /// ranges are non-empty, in order, and cover `0..n` exactly (an empty
    /// vec for the empty graph).
    pub fn balanced_ranges(&self, parts: usize) -> Vec<(usize, usize)> {
        let n = self.n();
        let parts = parts.max(1);
        if n == 0 {
            return Vec::new();
        }
        let weight = |u: usize| self.offsets.get(u) + u;
        let total = weight(n);
        let mut ranges = Vec::with_capacity(parts);
        let mut start = 0usize;
        for p in 1..=parts {
            if start >= n {
                break;
            }
            let target = total * p / parts;
            // Smallest end > start with weight(0..end) >= target.
            let (mut lo, mut hi) = (start + 1, n);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if weight(mid) < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let end = if p == parts { n } else { lo };
            ranges.push((start, end));
            start = end;
        }
        ranges
    }
}

// The serde impls are hand-written so the JSON shape stays what the old
// `usize`-CSR derive produced (`offsets`/`adjacency` as plain number arrays):
// the compact representation is an in-memory layout choice, not a format
// change.
impl Serialize for Graph {
    fn to_value(&self) -> serde::Value {
        let offsets: Vec<serde::Value> = match &self.offsets {
            Offsets::Small(v) => v.iter().map(|&o| serde::Value::U64(o.into())).collect(),
            Offsets::Large(v) => v.iter().map(|&o| serde::Value::U64(o)).collect(),
        };
        let adjacency: Vec<serde::Value> = self
            .adjacency
            .iter()
            .map(|id| serde::Value::U64(id.raw().into()))
            .collect();
        serde::Value::Object(vec![
            ("offsets".into(), serde::Value::Array(offsets)),
            ("adjacency".into(), serde::Value::Array(adjacency)),
            ("m".into(), self.m.to_value()),
        ])
    }
}

impl Deserialize for Graph {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let offsets: Vec<usize> = Deserialize::from_value(serde::get_field(value, "offsets")?)?;
        let adjacency: Vec<u32> = Deserialize::from_value(serde::get_field(value, "adjacency")?)?;
        let m: usize = Deserialize::from_value(serde::get_field(value, "m")?)?;
        if *offsets.last().unwrap_or(&0) != adjacency.len() {
            return Err(serde::Error::custom(
                "graph offsets do not cover the adjacency array",
            ));
        }
        Ok(Graph {
            offsets: Offsets::from_usize(offsets),
            adjacency: adjacency.into_iter().map(CompactId).collect(),
            m,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert!(g.edges().next().is_none());
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.n(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.vertices().count(), 0);
    }

    #[test]
    fn from_edges_basic() {
        let g = path4();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.neighbors(0).to_vec(), vec![1]);
        assert_eq!(g.neighbors(1).to_vec(), vec![0, 2]);
        assert_eq!(g.neighbors(2).to_vec(), vec![1, 3]);
        assert_eq!(g.neighbors(3).to_vec(), vec![2]);
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.neighbors(0).to_vec(), vec![1]);
    }

    #[test]
    fn self_loop_rejected() {
        let err = Graph::from_edges(3, [(1, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { vertex: 1 });
    }

    #[test]
    fn out_of_range_rejected() {
        let err = Graph::from_edges(3, [(0, 3)]).unwrap_err();
        assert_eq!(err, GraphError::VertexOutOfRange { vertex: 3, n: 3 });
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = path4();
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(g.has_edge(u, v), g.has_edge(v, u));
            }
        }
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = path4();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn degree_statistics() {
        let g = path4();
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
        assert_eq!(g.degrees(), vec![1, 2, 2, 1]);
    }

    #[test]
    fn balanced_ranges_cover_and_balance_volume() {
        // A star graph is maximally skewed: vertex 0 has degree n-1.
        let n = 101;
        let star = Graph::from_edges(n, (1..n).map(|v| (0, v))).unwrap();
        for parts in [1, 2, 3, 4, 8, 200] {
            let ranges = star.balanced_ranges(parts);
            assert!(!ranges.is_empty() && ranges.len() <= parts);
            // Coverage: contiguous, in order, exactly 0..n.
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0);
                assert!(w[0].0 < w[0].1);
            }
        }
        // Volume balance: with 2 parts, the hub chunk must stay small in
        // vertex count (the hub alone carries ~half the total volume).
        let two = star.balanced_ranges(2);
        assert!(two[0].1 - two[0].0 < n / 3, "hub chunk too wide: {two:?}");
        // Degenerate cases.
        assert!(Graph::empty(0).balanced_ranges(4).is_empty());
        assert_eq!(Graph::empty(3).balanced_ranges(8).len(), 3);
        assert_eq!(path4().balanced_ranges(1), vec![(0, 4)]);
    }

    #[test]
    fn neighbors_view_helpers() {
        let g = path4();
        let n1 = g.neighbors(1);
        assert_eq!(n1.len(), 2);
        assert!(!n1.is_empty());
        assert!(n1.contains(0) && n1.contains(2));
        assert!(!n1.contains(3));
        assert!(!n1.contains(usize::MAX)); // beyond the u32 range, never stored
        assert_eq!(n1.iter().rev().collect::<Vec<_>>(), vec![2, 0]);
        assert_eq!(n1.iter().len(), 2);
        assert_eq!(
            n1.as_compact(),
            &[CompactId::new(0), CompactId::new(2)],
            "compact slice exposes the raw u32 ids"
        );
        assert_eq!(CompactId::new(7).raw(), 7);
        assert_eq!(CompactId::new(7).index(), 7);
        // Both `for v in g.neighbors(u)` and `&view` iteration work.
        let mut collected = Vec::new();
        for v in g.neighbors(1) {
            collected.push(v);
        }
        for v in &n1 {
            collected.push(v);
        }
        assert_eq!(collected, vec![0, 2, 0, 2]);
    }

    #[test]
    fn serde_round_trip() {
        let g = path4();
        let json = serde_json::to_string(&g).unwrap();
        let back: Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn serde_rejects_inconsistent_offsets() {
        let json = r#"{"offsets":[0,2],"adjacency":[1],"m":1}"#;
        assert!(serde_json::from_str::<Graph>(json).is_err());
    }

    #[test]
    fn wide_offsets_behave_like_small_ones() {
        // Force the Large representation through the internal constructor:
        // behaviorally identical; only the offset width differs.
        let small = path4();
        let wide = Graph {
            offsets: Offsets::Large(vec![0, 1, 3, 5, 6]),
            adjacency: [1usize, 0, 2, 1, 3, 2].map(CompactId::new).to_vec(),
            m: 3,
        };
        assert_eq!(wide.n(), small.n());
        for u in wide.vertices() {
            assert_eq!(wide.neighbors(u).to_vec(), small.neighbors(u).to_vec());
            assert_eq!(wide.degree(u), small.degree(u));
        }
        // Serde canonicalizes back to the small representation here (the
        // adjacency fits in u32 offsets), and equality is by content.
        let back: Graph = serde_json::from_str(&serde_json::to_string(&wide).unwrap()).unwrap();
        assert_eq!(back, small);
    }
}
