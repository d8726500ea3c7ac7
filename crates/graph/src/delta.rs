//! Topology mutations: batched [`GraphDelta`]s, the [`DynamicGraph`] overlay
//! on the compact CSR, and the canonical [`CommittedDelta`] summary.
//!
//! The CSR [`Graph`] is deliberately immutable — every simulator in the
//! workspace shares it by reference. Dynamic topologies are therefore
//! expressed as *mutation batches*: a [`GraphDelta`] lists edge insertions,
//! edge deletions, vertex joins, and vertex detachments; applying it stages
//! the changes in a [`DynamicGraph`] overlay (sorted per-vertex add/remove
//! sets on top of the flat CSR) and compacts the overlay back into a fresh
//! flat CSR. The net effect is returned as a [`CommittedDelta`] — a deduped,
//! canonical edge diff that incremental consumers (the `FrontierEngine`
//! counter migration in `mis_core`, churn observers in `mis_sim`) replay in
//! `O(|diff|)` instead of rebuilding from scratch.
//!
//! Two modelling decisions keep the self-stabilization semantics clean:
//!
//! * **Vertices never disappear.** A leaving vertex is *detached* (all
//!   incident edges removed) and stays behind as an isolated vertex; isolated
//!   vertices legitimately join every MIS, so `mis_check` remains meaningful
//!   on the mutated graph and per-vertex state arrays never have to shift.
//! * **Joins append.** [`Mutation::AddVertex`] assigns ids `n, n+1, …` in
//!   batch order, so existing vertex ids — and the per-vertex state the
//!   processes carry across the mutation — stay valid.
//!
//! # Example
//!
//! ```
//! use mis_graph::{Graph, GraphDelta};
//!
//! let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
//! let mut delta = GraphDelta::new();
//! delta.remove_edge(0, 1);
//! delta.add_edge(0, 2);
//! delta.add_vertex([1]);
//! let (g2, committed) = g.apply_delta(&delta).unwrap();
//! assert_eq!(g2.n(), 4);
//! assert!(g2.has_edge(0, 2) && g2.has_edge(1, 3) && !g2.has_edge(0, 1));
//! assert_eq!(committed.removed, vec![(0, 1)]);
//! assert_eq!(committed.inserted, vec![(0, 2), (1, 3)]);
//! ```

use std::collections::{BTreeMap, BTreeSet};

use crate::{Graph, GraphError, VertexId};

/// One topology mutation, applied in batch order against the staged view of
/// the graph (earlier ops in the same [`GraphDelta`] are already visible).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Insert the undirected edge `{u, v}`. A no-op if already present.
    AddEdge(VertexId, VertexId),
    /// Delete the undirected edge `{u, v}`. A no-op if absent.
    RemoveEdge(VertexId, VertexId),
    /// Append a new vertex (id = current vertex count) wired to `edges`.
    AddVertex {
        /// Neighbors of the new vertex; each must already exist.
        edges: Vec<VertexId>,
    },
    /// Remove every edge incident to `u`, leaving it isolated ("leave").
    DetachVertex(VertexId),
}

/// An ordered batch of topology [`Mutation`]s.
///
/// Deltas are plain data: build one (by hand or via a churn generator),
/// then apply it with [`Graph::apply_delta`] or hand it to an algorithm's
/// `apply_mutation`. Redundant ops (inserting a present edge, deleting an
/// absent one, detaching an isolated vertex) are silently absorbed, so
/// generators never need to pre-check the current topology.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    ops: Vec<Mutation>,
}

impl GraphDelta {
    /// An empty batch.
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// Queues an edge insertion.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.ops.push(Mutation::AddEdge(u, v));
        self
    }

    /// Queues an edge deletion.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.ops.push(Mutation::RemoveEdge(u, v));
        self
    }

    /// Queues a vertex join wired to `edges`.
    pub fn add_vertex<I: IntoIterator<Item = VertexId>>(&mut self, edges: I) -> &mut Self {
        self.ops.push(Mutation::AddVertex {
            edges: edges.into_iter().collect(),
        });
        self
    }

    /// Queues a vertex detachment (all incident edges removed).
    pub fn detach_vertex(&mut self, u: VertexId) -> &mut Self {
        self.ops.push(Mutation::DetachVertex(u));
        self
    }

    /// The queued mutations, in application order.
    pub fn ops(&self) -> &[Mutation] {
        &self.ops
    }

    /// Number of queued mutations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if no mutation is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The net, canonical effect of applying a [`GraphDelta`]: what actually
/// changed between the old and the new graph.
///
/// Edge lists hold each undirected edge once as `(u, v)` with `u < v`, in
/// lexicographic order, with insert/remove cancellations already resolved
/// (an edge removed and re-added within one batch appears in neither list).
/// Incremental consumers replay exactly these lists — `O(|diff|)` work — and
/// are guaranteed to land on the same state as a from-scratch rebuild.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommittedDelta {
    /// Vertex count before the batch.
    pub old_n: usize,
    /// Vertex count after the batch (`>= old_n`; vertices never disappear).
    pub new_n: usize,
    /// Edges present after but not before, `(u, v)` with `u < v`, sorted.
    pub inserted: Vec<(VertexId, VertexId)>,
    /// Edges present before but not after, `(u, v)` with `u < v`, sorted.
    pub removed: Vec<(VertexId, VertexId)>,
}

impl CommittedDelta {
    /// `true` if the batch had no net effect on the topology.
    pub fn is_empty(&self) -> bool {
        self.old_n == self.new_n && self.inserted.is_empty() && self.removed.is_empty()
    }
}

/// A mutable overlay over an immutable CSR [`Graph`]: staged edge add/remove
/// sets plus appended vertices, with `O(n + m + |overlay|)` compaction back
/// into a flat CSR.
///
/// The overlay maintains one invariant that makes the committed diff fall
/// out for free: `added` holds only edges *absent* from the base and
/// `removed` holds only edges *present* in the base. Re-adding a removed
/// base edge clears its removal mark (instead of duplicating it in `added`),
/// and deleting a staged insertion erases it. Both maps are `BTree`-ordered,
/// so compaction and [`committed`](Self::committed) are deterministic.
///
/// Queries ([`has_edge`](Self::has_edge), [`degree`](Self::degree)) answer
/// against the *staged* view. For bulk iteration, [`compact`](Self::compact)
/// into a flat [`Graph`] — the simulators only ever run on flat CSR, the
/// overlay exists to batch mutations between compactions.
#[derive(Debug, Clone)]
pub struct DynamicGraph<'a> {
    base: &'a Graph,
    /// Vertices appended past `base.n()`.
    extra_n: usize,
    /// Staged insertions: symmetric, only non-base edges.
    added: BTreeMap<VertexId, BTreeSet<VertexId>>,
    /// Staged deletions: symmetric, only base edges.
    removed: BTreeMap<VertexId, BTreeSet<VertexId>>,
    /// Edge count of the staged view.
    m: usize,
}

impl<'a> DynamicGraph<'a> {
    /// A fresh overlay with no staged changes.
    pub fn new(base: &'a Graph) -> Self {
        DynamicGraph {
            base,
            extra_n: 0,
            added: BTreeMap::new(),
            removed: BTreeMap::new(),
            m: base.m(),
        }
    }

    /// Vertex count of the staged view.
    pub fn n(&self) -> usize {
        self.base.n() + self.extra_n
    }

    /// Edge count of the staged view.
    pub fn m(&self) -> usize {
        self.m
    }

    /// `true` if `{u, v}` is an edge of the staged view.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        assert!(u < self.n(), "vertex {u} out of range");
        assert!(v < self.n(), "vertex {v} out of range");
        if self.added.get(&u).is_some_and(|s| s.contains(&v)) {
            return true;
        }
        if self.removed.get(&u).is_some_and(|s| s.contains(&v)) {
            return false;
        }
        u < self.base.n() && v < self.base.n() && self.base.has_edge(u, v)
    }

    /// Degree of `u` in the staged view.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: VertexId) -> usize {
        assert!(u < self.n(), "vertex {u} out of range");
        let base = if u < self.base.n() {
            self.base.degree(u) - self.removed.get(&u).map_or(0, BTreeSet::len)
        } else {
            0
        };
        base + self.added.get(&u).map_or(0, BTreeSet::len)
    }

    /// The sorted neighbor list of `u` in the staged view, materialized:
    /// the base list (minus removals) merged with the staged insertions.
    pub fn neighbors_vec(&self, u: VertexId) -> Vec<VertexId> {
        assert!(u < self.n(), "vertex {u} out of range");
        let empty = BTreeSet::new();
        let removed = self.removed.get(&u).unwrap_or(&empty);
        let added = self.added.get(&u).unwrap_or(&empty);
        let mut out = Vec::with_capacity(self.degree(u));
        let mut add_iter = added.iter().copied().peekable();
        if u < self.base.n() {
            for v in self.base.neighbors(u) {
                if removed.contains(&v) {
                    continue;
                }
                while add_iter.peek().is_some_and(|&a| a < v) {
                    out.push(add_iter.next().unwrap());
                }
                out.push(v);
            }
        }
        out.extend(add_iter);
        out
    }

    /// Removes the symmetric mark `{u, v}` from an overlay map, dropping
    /// per-vertex sets that become empty.
    fn unmark(map: &mut BTreeMap<VertexId, BTreeSet<VertexId>>, u: VertexId, v: VertexId) {
        for (a, b) in [(u, v), (v, u)] {
            if let Some(set) = map.get_mut(&a) {
                set.remove(&b);
                if set.is_empty() {
                    map.remove(&a);
                }
            }
        }
    }

    fn validate(&self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        let n = self.n();
        if u >= n {
            return Err(GraphError::VertexOutOfRange { vertex: u, n });
        }
        if v >= n {
            return Err(GraphError::VertexOutOfRange { vertex: v, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        Ok(())
    }

    /// Stages the insertion of `{u, v}`; returns `true` if the edge was
    /// actually absent.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] / [`GraphError::SelfLoop`].
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<bool, GraphError> {
        self.validate(u, v)?;
        if self.has_edge(u, v) {
            return Ok(false);
        }
        let is_base_edge = u < self.base.n() && v < self.base.n() && self.base.has_edge(u, v);
        if is_base_edge {
            // Absent but in the base ⇒ it carries a removal mark; clear it.
            Self::unmark(&mut self.removed, u, v);
        } else {
            self.added.entry(u).or_default().insert(v);
            self.added.entry(v).or_default().insert(u);
        }
        self.m += 1;
        Ok(true)
    }

    /// Stages the deletion of `{u, v}`; returns `true` if the edge was
    /// actually present.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] / [`GraphError::SelfLoop`].
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<bool, GraphError> {
        self.validate(u, v)?;
        if !self.has_edge(u, v) {
            return Ok(false);
        }
        if self.added.get(&u).is_some_and(|s| s.contains(&v)) {
            // A staged insertion: erase it rather than marking a removal.
            Self::unmark(&mut self.added, u, v);
        } else {
            self.removed.entry(u).or_default().insert(v);
            self.removed.entry(v).or_default().insert(u);
        }
        self.m -= 1;
        Ok(true)
    }

    /// Appends a new vertex wired to `edges` and returns its id.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] if a listed neighbor does not exist
    /// yet, [`GraphError::SelfLoop`] if the new vertex lists itself. On
    /// error the overlay is left unchanged.
    pub fn add_vertex(&mut self, edges: &[VertexId]) -> Result<VertexId, GraphError> {
        let id = self.n();
        for &v in edges {
            if v >= id {
                return Err(if v == id {
                    GraphError::SelfLoop { vertex: id }
                } else {
                    GraphError::VertexOutOfRange { vertex: v, n: id }
                });
            }
        }
        self.extra_n += 1;
        for &v in edges {
            // Cannot fail: both endpoints are in range and distinct.
            self.add_edge(id, v).expect("validated above");
        }
        Ok(id)
    }

    /// Removes every edge incident to `u`, leaving it isolated.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] if `u` does not exist.
    pub fn detach_vertex(&mut self, u: VertexId) -> Result<(), GraphError> {
        if u >= self.n() {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                n: self.n(),
            });
        }
        for v in self.neighbors_vec(u) {
            self.remove_edge(u, v).expect("neighbor list is current");
        }
        Ok(())
    }

    /// Applies one [`Mutation`] against the staged view.
    ///
    /// # Errors
    ///
    /// Propagates the validation error of the underlying operation.
    pub fn apply(&mut self, op: &Mutation) -> Result<(), GraphError> {
        match op {
            Mutation::AddEdge(u, v) => self.add_edge(*u, *v).map(|_| ()),
            Mutation::RemoveEdge(u, v) => self.remove_edge(*u, *v).map(|_| ()),
            Mutation::AddVertex { edges } => self.add_vertex(edges).map(|_| ()),
            Mutation::DetachVertex(u) => self.detach_vertex(*u),
        }
    }

    /// The net effect staged so far, as a canonical [`CommittedDelta`].
    pub fn committed(&self) -> CommittedDelta {
        let flatten = |map: &BTreeMap<VertexId, BTreeSet<VertexId>>| {
            let mut out = Vec::new();
            for (&u, set) in map {
                for &v in set {
                    if u < v {
                        out.push((u, v));
                    }
                }
            }
            out.sort_unstable();
            out
        };
        CommittedDelta {
            old_n: self.base.n(),
            new_n: self.n(),
            inserted: flatten(&self.added),
            removed: flatten(&self.removed),
        }
    }

    /// Compacts the staged view back into a flat CSR [`Graph`] in
    /// `O(n + m + |overlay| log |overlay|)`.
    pub fn compact(&self) -> Graph {
        let n = self.n();
        let empty = BTreeSet::new();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adjacency = Vec::with_capacity(2 * self.m);
        offsets.push(0);
        for u in 0..n {
            let removed = self.removed.get(&u).unwrap_or(&empty);
            let added = self.added.get(&u).unwrap_or(&empty);
            let mut add_iter = added.iter().copied().peekable();
            if u < self.base.n() {
                for v in self.base.neighbors(u) {
                    if removed.contains(&v) {
                        continue;
                    }
                    while add_iter.peek().is_some_and(|&a| a < v) {
                        adjacency.push(add_iter.next().unwrap());
                    }
                    adjacency.push(v);
                }
            }
            adjacency.extend(add_iter);
            offsets.push(adjacency.len());
        }
        Graph::from_sorted_adjacency(offsets, adjacency, self.m)
    }
}

impl Graph {
    /// Applies a mutation batch, returning the new flat CSR graph and the
    /// canonical net diff.
    ///
    /// Ops are validated and applied in order against the staged view;
    /// redundant ops are no-ops. On error nothing is returned — the original
    /// graph is untouched either way (it is immutable).
    ///
    /// # Errors
    ///
    /// The first validation failure ([`GraphError::VertexOutOfRange`] or
    /// [`GraphError::SelfLoop`]) of any op in the batch.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<(Graph, CommittedDelta), GraphError> {
        let mut dyn_graph = DynamicGraph::new(self);
        for op in delta.ops() {
            dyn_graph.apply(op)?;
        }
        Ok((dyn_graph.compact(), dyn_graph.committed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = path4();
        let (g2, c) = g.apply_delta(&GraphDelta::new()).unwrap();
        assert_eq!(g, g2);
        assert!(c.is_empty());
    }

    #[test]
    fn add_and_remove_edges() {
        let g = path4();
        let mut d = GraphDelta::new();
        d.add_edge(0, 3).remove_edge(1, 2);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        let (g2, c) = g.apply_delta(&d).unwrap();
        assert!(g2.has_edge(0, 3) && !g2.has_edge(1, 2));
        assert_eq!(g2.m(), 3);
        assert_eq!(c.inserted, vec![(0, 3)]);
        assert_eq!(c.removed, vec![(1, 2)]);
        // Neighbor lists stay sorted after compaction.
        for u in g2.vertices() {
            let nbrs = g2.neighbors(u).to_vec();
            let mut sorted = nbrs.clone();
            sorted.sort_unstable();
            assert_eq!(nbrs, sorted);
        }
    }

    #[test]
    fn redundant_ops_are_absorbed() {
        let g = path4();
        let mut d = GraphDelta::new();
        d.add_edge(0, 1) // already present
            .remove_edge(0, 2) // already absent
            .detach_vertex(3)
            .detach_vertex(3); // second detach is a no-op
        let (g2, c) = g.apply_delta(&d).unwrap();
        assert_eq!(g2.m(), 2);
        assert!(c.inserted.is_empty());
        assert_eq!(c.removed, vec![(2, 3)]);
    }

    #[test]
    fn insert_then_delete_cancels() {
        let g = path4();
        let mut d = GraphDelta::new();
        d.add_edge(0, 3).remove_edge(0, 3);
        let (g2, c) = g.apply_delta(&d).unwrap();
        assert_eq!(g, g2);
        assert!(c.is_empty());
    }

    #[test]
    fn delete_then_reinsert_cancels() {
        let g = path4();
        let mut d = GraphDelta::new();
        d.remove_edge(1, 2).add_edge(1, 2);
        let (g2, c) = g.apply_delta(&d).unwrap();
        assert_eq!(g, g2);
        assert!(c.is_empty());
    }

    #[test]
    fn vertex_join_gets_fresh_ids_in_batch_order() {
        let g = path4();
        let mut d = GraphDelta::new();
        d.add_vertex([0, 2]); // id 4
        d.add_vertex([4]); // id 5, wired to the vertex joined above
        let (g2, c) = g.apply_delta(&d).unwrap();
        assert_eq!(g2.n(), 6);
        assert!(g2.has_edge(4, 0) && g2.has_edge(4, 2) && g2.has_edge(4, 5));
        assert_eq!(c.old_n, 4);
        assert_eq!(c.new_n, 6);
        assert_eq!(c.inserted, vec![(0, 4), (2, 4), (4, 5)]);
    }

    #[test]
    fn detach_leaves_isolated_tombstone() {
        let g = path4();
        let mut d = GraphDelta::new();
        d.detach_vertex(1);
        let (g2, c) = g.apply_delta(&d).unwrap();
        assert_eq!(g2.n(), 4, "vertices never disappear");
        assert_eq!(g2.degree(1), 0);
        assert_eq!(g2.m(), 1);
        assert_eq!(c.removed, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn detach_newly_joined_vertex() {
        let g = path4();
        let mut d = GraphDelta::new();
        d.add_vertex([0, 1, 2]);
        d.detach_vertex(4);
        let (g2, c) = g.apply_delta(&d).unwrap();
        assert_eq!(g2.n(), 5);
        assert_eq!(g2.degree(4), 0);
        assert_eq!(c.inserted, vec![]);
        assert_eq!(c.removed, vec![]);
        assert_eq!((c.old_n, c.new_n), (4, 5));
    }

    #[test]
    fn validation_errors() {
        let g = path4();
        let mut d = GraphDelta::new();
        d.add_edge(0, 9);
        assert_eq!(
            g.apply_delta(&d).unwrap_err(),
            GraphError::VertexOutOfRange { vertex: 9, n: 4 }
        );
        let mut d = GraphDelta::new();
        d.add_edge(2, 2);
        assert_eq!(
            g.apply_delta(&d).unwrap_err(),
            GraphError::SelfLoop { vertex: 2 }
        );
        let mut d = GraphDelta::new();
        d.detach_vertex(7);
        assert_eq!(
            g.apply_delta(&d).unwrap_err(),
            GraphError::VertexOutOfRange { vertex: 7, n: 4 }
        );
        let mut d = GraphDelta::new();
        d.add_vertex([4]); // the new vertex's own id ⇒ self-loop
        assert_eq!(
            g.apply_delta(&d).unwrap_err(),
            GraphError::SelfLoop { vertex: 4 }
        );
    }

    #[test]
    fn overlay_queries_match_staged_view() {
        let g = path4();
        let mut dg = DynamicGraph::new(&g);
        assert_eq!(dg.n(), 4);
        assert_eq!(dg.m(), 3);
        assert!(dg.add_edge(0, 2).unwrap());
        assert!(!dg.add_edge(0, 2).unwrap(), "second insert is a no-op");
        assert!(dg.remove_edge(2, 3).unwrap());
        assert!(!dg.remove_edge(2, 3).unwrap(), "second delete is a no-op");
        assert_eq!(dg.m(), 3);
        assert!(dg.has_edge(0, 2) && dg.has_edge(2, 0));
        assert!(!dg.has_edge(2, 3));
        assert_eq!(dg.degree(2), 2);
        assert_eq!(dg.neighbors_vec(2), vec![0, 1]);
        let flat = dg.compact();
        assert_eq!(flat.neighbors(2).to_vec(), vec![0, 1]);
        assert_eq!(flat.m(), 3);
    }

    #[test]
    fn compaction_matches_from_edges_rebuild() {
        // Staged view == rebuilding the edge set from scratch, on a batch
        // mixing every op kind.
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]).unwrap();
        let mut d = GraphDelta::new();
        d.remove_edge(0, 1)
            .add_edge(1, 4)
            .detach_vertex(3)
            .add_vertex([0, 2])
            .add_edge(2, 5)
            .remove_edge(4, 5);
        let (g2, c) = g.apply_delta(&d).unwrap();
        let mut edges: std::collections::BTreeSet<(usize, usize)> = g.edges().collect();
        for &(u, v) in &c.removed {
            assert!(edges.remove(&(u, v)), "removed edge {u},{v} was present");
        }
        for &(u, v) in &c.inserted {
            assert!(edges.insert((u, v)), "inserted edge {u},{v} was absent");
        }
        let rebuilt = Graph::from_edges(c.new_n, edges.iter().copied()).unwrap();
        assert_eq!(g2, rebuilt);
        assert_eq!(g2.m(), rebuilt.m());
    }
}
