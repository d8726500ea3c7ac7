//! The named-graph registry: `Arc`-shared graphs with versioned live
//! mutation.
//!
//! Each entry holds the current topology behind an `RwLock<Arc<Graph>>`;
//! readers (job workers, listing handlers) take cheap `Arc` snapshots, and a
//! `PATCH` swaps in a freshly compacted graph under the write lock while
//! bumping the entry's version — running jobs keep their snapshot and
//! receive the same delta through their mailbox instead. A second,
//! per-entry mutex orders whole PATCHes (apply, journal append, fan-out),
//! so readers never wait on a PATCH's fsync.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use mis_graph::{CommittedDelta, Graph, GraphDelta, GraphError};

use crate::api::GraphInfo;
use crate::sync;

/// One registered graph.
pub struct GraphEntry {
    /// Registry id.
    pub id: u64,
    /// Display name.
    pub name: String,
    /// Human-readable source label.
    pub source: String,
    /// `(current graph, version)`; version starts at 1 and bumps per patch.
    state: RwLock<(Arc<Graph>, u64)>,
    /// Held by a PATCH from its apply through its journal append and its
    /// fan-out to jobs; see [`lock_patches`](Self::lock_patches).
    patches: Mutex<()>,
}

impl GraphEntry {
    /// A cheap snapshot of the current topology and its version. Recovers
    /// from lock poisoning: the state is a single `(Arc, u64)` pair swapped
    /// atomically under the guard, so it is consistent even after a panic.
    pub fn snapshot(&self) -> (Arc<Graph>, u64) {
        let state = sync::read(&self.state);
        (Arc::clone(&state.0), state.1)
    }

    /// A free-standing entry registered nowhere — a placeholder for
    /// journal-recovered jobs whose graph was deleted before the crash, so
    /// their `JobInfo` still reports the original graph id.
    pub fn detached(id: u64, name: String, source: String, graph: Graph) -> Arc<GraphEntry> {
        Arc::new(GraphEntry {
            id,
            name,
            source,
            state: RwLock::new((Arc::new(graph), 1)),
            patches: Mutex::new(()),
        })
    }

    /// Orders PATCHes on this graph: a handler that holds the guard from
    /// [`apply_delta`](Self::apply_delta) until its record is journaled and
    /// its delta forwarded makes the journal and every job mailbox see the
    /// versions in order. Replay needs that order; out of order, it stops
    /// at the first gap. Readers take only the state lock and never wait on
    /// this one.
    pub fn lock_patches(&self) -> MutexGuard<'_, ()> {
        sync::lock(&self.patches)
    }

    /// Applies `delta` to the current graph, swapping in the mutated
    /// topology and bumping the version. Returns the normalized commit and
    /// the new version.
    ///
    /// # Errors
    ///
    /// A [`GraphError`] for an invalid delta; the stored graph is unchanged.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<(CommittedDelta, u64), GraphError> {
        let mut state = sync::write(&self.state);
        let (graph, committed) = state.0.apply_delta(delta)?;
        state.0 = Arc::new(graph);
        state.1 += 1;
        Ok((committed, state.1))
    }

    /// The entry as an API [`GraphInfo`].
    pub fn info(&self) -> GraphInfo {
        let (graph, version) = self.snapshot();
        GraphInfo {
            id: self.id,
            name: self.name.clone(),
            n: graph.n(),
            m: graph.m(),
            version,
            source: self.source.clone(),
        }
    }
}

/// The registry: insertion-ordered map from id to [`GraphEntry`].
#[derive(Default)]
pub struct GraphRegistry {
    entries: RwLock<BTreeMap<u64, Arc<GraphEntry>>>,
    next_id: AtomicU64,
}

impl GraphRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        GraphRegistry::default()
    }

    /// Registers a graph and returns its entry (id assigned here).
    pub fn insert(&self, name: String, source: String, graph: Graph) -> Arc<GraphEntry> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.insert_entry(id, name, source, graph, 1)
    }

    /// Re-registers a graph under a fixed id and version — the journal
    /// replay path. Advances the id counter past `id` so fresh inserts never
    /// collide with recovered entries.
    pub fn restore(
        &self,
        id: u64,
        name: String,
        source: String,
        graph: Graph,
        version: u64,
    ) -> Arc<GraphEntry> {
        self.next_id.fetch_max(id, Ordering::Relaxed);
        self.insert_entry(id, name, source, graph, version)
    }

    fn insert_entry(
        &self,
        id: u64,
        name: String,
        source: String,
        graph: Graph,
        version: u64,
    ) -> Arc<GraphEntry> {
        let entry = Arc::new(GraphEntry {
            id,
            name,
            source,
            state: RwLock::new((Arc::new(graph), version)),
            patches: Mutex::new(()),
        });
        sync::write(&self.entries).insert(id, Arc::clone(&entry));
        entry
    }

    /// Looks up an entry by id.
    pub fn get(&self, id: u64) -> Option<Arc<GraphEntry>> {
        sync::read(&self.entries).get(&id).cloned()
    }

    /// Removes an entry by id; running jobs keep their `Arc` snapshots.
    pub fn remove(&self, id: u64) -> Option<Arc<GraphEntry>> {
        sync::write(&self.entries).remove(&id)
    }

    /// All entries, in id order.
    pub fn list(&self) -> Vec<Arc<GraphEntry>> {
        sync::read(&self.entries).values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn insert_get_list_remove() {
        let reg = GraphRegistry::new();
        let a = reg.insert("a".into(), "upload".into(), path3());
        let b = reg.insert("b".into(), "upload".into(), path3());
        assert_eq!((a.id, b.id), (1, 2));
        assert_eq!(reg.get(1).unwrap().name, "a");
        assert_eq!(reg.list().len(), 2);
        let info = a.info();
        assert_eq!((info.n, info.m, info.version), (3, 2, 1));
        assert!(reg.remove(1).is_some());
        assert!(reg.get(1).is_none());
        assert!(reg.remove(1).is_none());
    }

    #[test]
    fn restore_preserves_ids_and_versions() {
        let reg = GraphRegistry::new();
        reg.restore(7, "r".into(), "journal".into(), path3(), 4);
        let info = reg.get(7).unwrap().info();
        assert_eq!((info.id, info.version), (7, 4));
        // Fresh inserts continue past restored ids.
        let fresh = reg.insert("f".into(), "upload".into(), path3());
        assert_eq!(fresh.id, 8);
    }

    #[test]
    fn apply_delta_swaps_and_bumps_version() {
        let reg = GraphRegistry::new();
        let entry = reg.insert("a".into(), "upload".into(), path3());
        let (snap_before, v1) = entry.snapshot();
        let mut delta = GraphDelta::new();
        delta.add_edge(0, 2);
        let (committed, v2) = entry.apply_delta(&delta).unwrap();
        assert_eq!(committed.inserted, vec![(0, 2)]);
        assert_eq!((v1, v2), (1, 2));
        // Old snapshots are untouched; new snapshots see the mutation.
        assert!(!snap_before.has_edge(0, 2));
        let (snap_after, _) = entry.snapshot();
        assert!(snap_after.has_edge(0, 2));
    }

    #[test]
    fn invalid_delta_leaves_graph_unchanged() {
        let reg = GraphRegistry::new();
        let entry = reg.insert("a".into(), "upload".into(), path3());
        let mut delta = GraphDelta::new();
        delta.add_edge(0, 99);
        assert!(entry.apply_delta(&delta).is_err());
        let (snap, version) = entry.snapshot();
        assert_eq!((snap.n(), version), (3, 1));
    }
}
