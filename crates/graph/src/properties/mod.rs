//! Structural graph properties used by the analysis and the experiments:
//! degeneracy (an arboricity proxy), diameter, common-neighbor statistics,
//! and the *(n,p)-good graph* checker of Definition 17.

mod good;

pub use good::{check_good, GoodGraphConfig, GoodGraphReport};

use crate::traversal::{bfs_distances, UNREACHABLE};
use crate::{Graph, VertexId};

/// Degeneracy of the graph: the smallest `k` such that every subgraph has a
/// vertex of degree at most `k`, computed by the standard peeling (smallest-
/// degree-first removal) algorithm in `O(n + m)`.
///
/// The degeneracy `d` sandwiches the arboricity `λ`:
/// `λ ≤ d ≤ 2λ - 1`, so it serves as the "bounded arboricity" certificate
/// required by Theorem 11's experiments.
///
/// # Example
///
/// ```
/// use mis_graph::{generators, properties};
///
/// // A tree has degeneracy 1, a cycle 2, a clique n - 1.
/// assert_eq!(properties::degeneracy(&generators::path(10)), 1);
/// assert_eq!(properties::degeneracy(&generators::cycle(10)), 2);
/// assert_eq!(properties::degeneracy(&generators::complete(6)), 5);
/// ```
pub fn degeneracy(g: &Graph) -> usize {
    let n = g.n();
    if n == 0 {
        return 0;
    }
    let mut degree: Vec<usize> = g.degrees();
    let max_deg = g.max_degree();
    // Bucket queue over degrees.
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); max_deg + 1];
    for v in g.vertices() {
        buckets[degree[v]].push(v);
    }
    let mut removed = vec![false; n];
    let mut degeneracy = 0;
    let mut processed = 0;
    let mut cursor = 0;
    while processed < n {
        // Find the lowest non-empty bucket at or below the cursor, else move up.
        while cursor > 0 && !buckets[cursor - 1].is_empty() {
            cursor -= 1;
        }
        while buckets[cursor].is_empty() {
            cursor += 1;
        }
        let v = buckets[cursor].pop().unwrap();
        if removed[v] || degree[v] != cursor {
            // Stale entry (vertex already removed or re-bucketed).
            continue;
        }
        removed[v] = true;
        processed += 1;
        degeneracy = degeneracy.max(cursor);
        for w in g.neighbors(v) {
            if !removed[w] {
                degree[w] -= 1;
                buckets[degree[w]].push(w);
            }
        }
    }
    degeneracy
}

/// Exact diameter of a connected graph by all-pairs BFS (`O(n · (n + m))`).
///
/// Returns `None` if the graph is disconnected or has no vertices.
pub fn diameter(g: &Graph) -> Option<usize> {
    if g.n() == 0 {
        return None;
    }
    let mut diam = 0usize;
    for u in g.vertices() {
        let dist = bfs_distances(g, u);
        for &d in &dist {
            if d == UNREACHABLE {
                return None;
            }
            diam = diam.max(d);
        }
    }
    Some(diam)
}

/// Fast check whether `diam(G) ≤ 2`: every non-adjacent pair must share a
/// common neighbor. `O(Σ_u deg(u)²)` via neighborhood marking, which is much
/// cheaper than all-pairs BFS on the dense graphs where it matters.
pub fn has_diameter_at_most_2(g: &Graph) -> bool {
    let n = g.n();
    if n <= 1 {
        return true;
    }
    // reach[v] true if v is u, a neighbor of u, or at distance 2 from u.
    let mut stamp = vec![usize::MAX; n];
    for u in g.vertices() {
        stamp[u] = u;
        for v in g.neighbors(u) {
            stamp[v] = u;
            for w in g.neighbors(v) {
                stamp[w] = u;
            }
        }
        if stamp.iter().any(|&s| s != u) {
            return false;
        }
    }
    true
}

/// Maximum number of common neighbors over all vertex pairs, computed exactly
/// by counting wedges (`O(Σ_v deg(v)²)`); bound (P5) of Definition 17.
pub fn max_common_neighbors(g: &Graph) -> usize {
    let n = g.n();
    if n < 2 {
        return 0;
    }
    let mut counts = std::collections::HashMap::new();
    for v in g.vertices() {
        let nbrs = g.neighbors(v).as_compact();
        for i in 0..nbrs.len() {
            for j in (i + 1)..nbrs.len() {
                *counts.entry((nbrs[i], nbrs[j])).or_insert(0usize) += 1;
            }
        }
    }
    counts.values().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn degeneracy_of_known_families() {
        assert_eq!(degeneracy(&Graph::empty(0)), 0);
        assert_eq!(degeneracy(&Graph::empty(5)), 0);
        assert_eq!(degeneracy(&generators::path(10)), 1);
        assert_eq!(degeneracy(&generators::star(10)), 1);
        assert_eq!(degeneracy(&generators::cycle(10)), 2);
        assert_eq!(degeneracy(&generators::complete(7)), 6);
        assert_eq!(degeneracy(&generators::grid(4, 4)), 2);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(degeneracy(&generators::random_tree(100, &mut rng)), 1);
    }

    #[test]
    fn diameter_of_known_families() {
        assert_eq!(diameter(&generators::path(5)), Some(4));
        assert_eq!(diameter(&generators::cycle(6)), Some(3));
        assert_eq!(diameter(&generators::complete(5)), Some(1));
        assert_eq!(diameter(&generators::star(5)), Some(2));
        assert_eq!(diameter(&Graph::empty(3)), None);
        assert_eq!(diameter(&Graph::empty(0)), None);
        assert_eq!(diameter(&Graph::empty(1)), Some(0));
    }

    #[test]
    fn diameter_at_most_2_check_agrees_with_exact() {
        let graphs = vec![
            generators::complete(6),
            generators::star(8),
            generators::path(4),
            generators::cycle(5),
            generators::cycle(4),
            Graph::empty(1),
            Graph::empty(3),
        ];
        for g in graphs {
            let exact = diameter(&g).is_some_and(|d| d <= 2);
            assert_eq!(
                has_diameter_at_most_2(&g),
                exact,
                "graph with n = {}",
                g.n()
            );
        }
    }

    #[test]
    fn dense_gnp_has_diameter_2() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        // p = 0.5 with n = 60 is far above the 2*sqrt(ln n / n) threshold of (P6).
        let g = generators::gnp(60, 0.5, &mut rng);
        assert!(has_diameter_at_most_2(&g));
    }

    #[test]
    fn max_common_neighbors_of_known_families() {
        assert_eq!(max_common_neighbors(&generators::complete(5)), 3);
        assert_eq!(max_common_neighbors(&generators::path(5)), 1);
        assert_eq!(max_common_neighbors(&generators::star(6)), 1);
        assert_eq!(max_common_neighbors(&generators::cycle(4)), 2);
        assert_eq!(max_common_neighbors(&Graph::empty(3)), 0);
    }
}
