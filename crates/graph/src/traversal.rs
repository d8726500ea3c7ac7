//! Breadth-first traversal utilities: single-source distances, eccentricity,
//! and multi-source BFS. These back the diameter computation used by the
//! good-graph property (P6) and by the logarithmic-switch analysis, which
//! distinguishes graphs of diameter at most 2.

use std::collections::VecDeque;

use crate::{Graph, VertexId};

/// Distance value reported for vertices unreachable from the source.
pub const UNREACHABLE: usize = usize::MAX;

/// Single-source BFS distances from `source`.
///
/// Returns a vector `dist` with `dist[v]` the hop distance from `source` to
/// `v`, or [`UNREACHABLE`] if `v` is in a different connected component.
///
/// # Panics
///
/// Panics if `source >= g.n()`.
///
/// # Example
///
/// ```
/// use mis_graph::{Graph, traversal};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2)]).unwrap();
/// let d = traversal::bfs_distances(&g, 0);
/// assert_eq!(d[2], 2);
/// assert_eq!(d[3], traversal::UNREACHABLE);
/// ```
pub fn bfs_distances(g: &Graph, source: VertexId) -> Vec<usize> {
    assert!(source < g.n(), "source {source} out of range");
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for v in g.neighbors(u) {
            if dist[v] == UNREACHABLE {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Multi-source BFS distances: `dist[v]` is the hop distance from `v` to the
/// *nearest* vertex of `sources`, or [`UNREACHABLE`] if no source reaches it.
/// With an empty source set every vertex is unreachable.
///
/// This is the distance-to-the-Byzantine-set map behind the containment
/// metrics: level 0 is the adversarial set `B` itself, level `r` its exact
/// r-th neighborhood shell.
///
/// # Panics
///
/// Panics if any source is `>= g.n()`.
///
/// # Example
///
/// ```
/// use mis_graph::{Graph, traversal};
///
/// let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3)]).unwrap();
/// let d = traversal::multi_source_bfs_distances(&g, [0, 3]);
/// assert_eq!(d, vec![0, 1, 1, 0, traversal::UNREACHABLE]);
/// ```
pub fn multi_source_bfs_distances(
    g: &Graph,
    sources: impl IntoIterator<Item = VertexId>,
) -> Vec<usize> {
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::new();
    for s in sources {
        assert!(s < g.n(), "source {s} out of range");
        if dist[s] == UNREACHABLE {
            dist[s] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        for v in g.neighbors(u) {
            if dist[v] == UNREACHABLE {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Eccentricity of `source`: the maximum BFS distance to any vertex reachable
/// from it. Returns `None` if some vertex of the graph is unreachable (the
/// graph is disconnected), since the eccentricity is infinite in that case.
pub fn eccentricity(g: &Graph, source: VertexId) -> Option<usize> {
    let dist = bfs_distances(g, source);
    let mut ecc = 0;
    for &d in &dist {
        if d == UNREACHABLE {
            return None;
        }
        ecc = ecc.max(d);
    }
    Some(ecc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_on_a_path() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        assert_eq!(eccentricity(&g, 0), Some(4));
        assert_eq!(eccentricity(&g, 2), Some(2));
    }

    #[test]
    fn disconnected_graph_has_unreachable_vertices() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(eccentricity(&g, 0), None);
    }

    #[test]
    fn multi_source_distances_take_the_nearest_source() {
        let g = Graph::from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)]).unwrap();
        let d = multi_source_bfs_distances(&g, [0, 4]);
        assert_eq!(d[..5], [0, 1, 2, 1, 0]);
        assert_eq!(d[5], UNREACHABLE);
        // Duplicated sources are harmless; empty sources reach nothing.
        assert_eq!(multi_source_bfs_distances(&g, [2, 2]), bfs_distances(&g, 2));
        assert_eq!(
            multi_source_bfs_distances(&g, []),
            vec![UNREACHABLE; 7],
            "no sources, no reachability"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn multi_source_rejects_bad_source() {
        let g = Graph::empty(2);
        multi_source_bfs_distances(&g, [2]);
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::empty(1);
        assert_eq!(bfs_distances(&g, 0), vec![0]);
        assert_eq!(eccentricity(&g, 0), Some(0));
    }
}
