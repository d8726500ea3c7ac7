//! Validation of (maximal) independent sets.
//!
//! Every experiment in the workspace verifies its output with these
//! functions: after a process reports stabilization, the set of black
//! vertices must be an MIS of the input graph (independence + maximality).

use crate::traversal::{multi_source_bfs_distances, UNREACHABLE};
use crate::{Graph, VertexId, VertexSet};

/// A witness explaining why a vertex set is *not* a maximal independent set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MisViolation {
    /// Two adjacent vertices are both in the set.
    IndependenceViolated {
        /// First endpoint (in the set).
        u: VertexId,
        /// Second endpoint (in the set, adjacent to `u`).
        v: VertexId,
    },
    /// A vertex outside the set has no neighbor in the set, so it could be
    /// added without breaking independence.
    MaximalityViolated {
        /// The vertex that could be added.
        vertex: VertexId,
    },
}

impl std::fmt::Display for MisViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MisViolation::IndependenceViolated { u, v } => {
                write!(
                    f,
                    "independence violated: adjacent vertices {u} and {v} are both in the set"
                )
            }
            MisViolation::MaximalityViolated { vertex } => {
                write!(
                    f,
                    "maximality violated: vertex {vertex} has no neighbor in the set"
                )
            }
        }
    }
}

/// Returns `true` if no two vertices of `s` are adjacent in `g`.
///
/// # Panics
///
/// Panics if `s.universe() != g.n()`.
pub fn is_independent(g: &Graph, s: &VertexSet) -> bool {
    check_independent(g, s).is_none()
}

/// Graphs whose volume `n + 2m` is at least this are checked by [`is_mis`]
/// on the persistent pool. Below it a check takes a few milliseconds at
/// most and stays inline, so callers that check many small graphs at once
/// (service jobs, trial-parallel sweeps) never queue on a pool's dispatch
/// lock. Every graph on at most 1,000 vertices (volume ≤ n²) and
/// `G(5·10⁴, 8/n)` (volume ≈ 4.5·10⁵) stay inline.
const PAR_MIS_VOLUME: usize = 1 << 20;

/// Returns `true` if `s` is a maximal independent set of `g`.
///
/// A graph of volume `n + 2m` ≥ 2²⁰ is checked as one dispatch on the
/// process-wide pool of one thread per core (`rayon::global_pool`), over
/// volume-balanced vertex ranges ([`Graph::balanced_ranges`]); smaller
/// graphs are checked inline by [`check_mis`], which stays the
/// sequential, witness-producing oracle. Both give the same answer. Do not
/// call it from inside a `broadcast` on that pool: the nested dispatch
/// would wait for the one that runs it.
///
/// # Panics
///
/// Panics if `s.universe() != g.n()`.
pub fn is_mis(g: &Graph, s: &VertexSet) -> bool {
    if g.n() + 2 * g.m() < PAR_MIS_VOLUME {
        return check_mis(g, s).is_none();
    }
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    is_mis_on_ranges(g, s, threads)
}

/// [`is_mis`] over `threads` volume-balanced ranges, one per participant
/// of `rayon::global_pool(threads)`: each range holds exactly when every
/// vertex of it is either in `s` with no neighbor in `s`, or outside `s`
/// with one. A single range runs [`check_mis`] inline.
fn is_mis_on_ranges(g: &Graph, s: &VertexSet, threads: usize) -> bool {
    assert_eq!(
        s.universe(),
        g.n(),
        "vertex set universe must match the graph"
    );
    let ranges = g.balanced_ranges(threads);
    if ranges.len() <= 1 {
        return check_mis(g, s).is_none();
    }
    let ranges = &ranges;
    rayon::global_pool(threads)
        .broadcast(|ctx| {
            ranges.get(ctx.index()).map_or(true, |&(lo, hi)| {
                (lo..hi).all(|u| {
                    let in_set = s.contains(u);
                    let dominated = g.neighbors(u).iter().any(|v| s.contains(v));
                    in_set != dominated
                })
            })
        })
        .into_iter()
        .all(|ok| ok)
}

/// Returns the first independence violation found, if any.
pub fn check_independent(g: &Graph, s: &VertexSet) -> Option<MisViolation> {
    assert_eq!(
        s.universe(),
        g.n(),
        "vertex set universe must match the graph"
    );
    for u in s.iter() {
        for v in g.neighbors(u) {
            if v > u && s.contains(v) {
                return Some(MisViolation::IndependenceViolated { u, v });
            }
        }
    }
    None
}

/// Returns the first maximality violation found, if any.
pub fn check_maximal(g: &Graph, s: &VertexSet) -> Option<MisViolation> {
    assert_eq!(
        s.universe(),
        g.n(),
        "vertex set universe must match the graph"
    );
    for u in g.vertices() {
        if !s.contains(u) && !g.neighbors(u).iter().any(|v| s.contains(v)) {
            return Some(MisViolation::MaximalityViolated { vertex: u });
        }
    }
    None
}

/// Returns the first MIS violation found (independence checked first), if any.
pub fn check_mis(g: &Graph, s: &VertexSet) -> Option<MisViolation> {
    check_independent(g, s).or_else(|| check_maximal(g, s))
}

/// Returns `true` if `s` is a maximal independent set of `g` **outside the
/// `radius`-neighborhood of `excluded`** — the Byzantine containment
/// property of Cohen–Pirot–Pilard (their guarantee is `radius = 2`).
///
/// See [`check_mis_outside`] for the exact semantics and a violation
/// witness.
///
/// # Panics
///
/// Panics if `s.universe() != g.n()` or any excluded vertex is out of range.
pub fn is_mis_outside(g: &Graph, s: &VertexSet, excluded: &[VertexId], radius: usize) -> bool {
    check_mis_outside(g, s, excluded, radius).is_none()
}

/// Returns the first violation of the containment-aware MIS property, if
/// any.
///
/// The *exclusion zone* is the set of vertices at BFS distance at most
/// `radius` from some vertex of `excluded`. On the remainder:
///
/// * **independence** — no edge with *both* endpoints outside the zone has
///   both endpoints in `s` (edges into the zone are the adversary's
///   business and are not judged);
/// * **maximality** — every outside vertex not in `s` has some neighbor in
///   `s`. The witnessing neighbor *may* lie inside the zone: a vertex
///   dominated by a (currently black) zone vertex has no grounds to join
///   the set, exactly as in the containment analysis.
///
/// With an empty `excluded` set this is precisely [`check_mis`].
///
/// # Panics
///
/// Panics if `s.universe() != g.n()` or any excluded vertex is out of range.
pub fn check_mis_outside(
    g: &Graph,
    s: &VertexSet,
    excluded: &[VertexId],
    radius: usize,
) -> Option<MisViolation> {
    assert_eq!(
        s.universe(),
        g.n(),
        "vertex set universe must match the graph"
    );
    if excluded.is_empty() {
        return check_mis(g, s);
    }
    let dist = multi_source_bfs_distances(g, excluded.iter().copied());
    let outside = |u: VertexId| dist[u] == UNREACHABLE || dist[u] > radius;
    for u in s.iter() {
        if !outside(u) {
            continue;
        }
        for v in g.neighbors(u) {
            if v > u && outside(v) && s.contains(v) {
                return Some(MisViolation::IndependenceViolated { u, v });
            }
        }
    }
    for u in g.vertices() {
        if outside(u) && !s.contains(u) && !g.neighbors(u).iter().any(|v| s.contains(v)) {
            return Some(MisViolation::MaximalityViolated { vertex: u });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use rand::SeedableRng;

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i, (i + 1) % n);
        }
        b.build()
    }

    /// The MIS the greedy scan in increasing id order picks.
    fn greedy_mis(g: &Graph) -> VertexSet {
        let mut mis = VertexSet::new(g.n());
        for u in g.vertices() {
            if !g.neighbors(u).iter().any(|v| mis.contains(v)) {
                mis.insert(u);
            }
        }
        mis
    }

    #[test]
    fn mis_of_a_cycle() {
        let g = cycle(6);
        let good = VertexSet::from_indices(6, [0, 2, 4]);
        assert!(is_mis(&g, &good));

        let not_independent = VertexSet::from_indices(6, [0, 1, 3]);
        assert!(!is_independent(&g, &not_independent));
        assert!(matches!(
            check_mis(&g, &not_independent),
            Some(MisViolation::IndependenceViolated { .. })
        ));

        let not_maximal = VertexSet::from_indices(6, [0]);
        assert!(is_independent(&g, &not_maximal));
        assert!(check_maximal(&g, &not_maximal).is_some());
        assert!(matches!(
            check_mis(&g, &not_maximal),
            Some(MisViolation::MaximalityViolated { .. })
        ));
    }

    /// `s` with vertex `u` made to break independence: `u` joins `s` if it
    /// is out (a maximal `s` already dominates it), else one of its
    /// neighbors joins.
    fn break_independence(g: &Graph, s: &VertexSet, u: VertexId) -> VertexSet {
        let mut out = s.clone();
        match (s.contains(u), g.neighbors(u).iter().next()) {
            (false, _) => {
                out.insert(u);
            }
            (true, Some(v)) => {
                out.insert(v);
            }
            (true, None) => {}
        }
        out
    }

    /// `s` with vertex `u` left undominated: `u` and its neighbors leave.
    fn break_maximality(g: &Graph, s: &VertexSet, u: VertexId) -> VertexSet {
        let mut out = s.clone();
        out.remove(u);
        for v in g.neighbors(u) {
            out.remove(v);
        }
        out
    }

    /// The pool path against the sequential oracle on small graphs, which
    /// reach it through `is_mis_on_ranges`: an MIS, random subsets, and one
    /// planted independence or maximality violation at the first and the
    /// last vertex of every range.
    #[test]
    fn is_mis_on_ranges_matches_check_mis() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let graphs = [
            crate::generators::gnp(300, 0.02, &mut rng),
            crate::generators::grid(12, 15),
            crate::generators::star(40),
        ];
        for g in &graphs {
            let mis = greedy_mis(g);
            for threads in [2usize, 3, 8, 11] {
                let ranges = g.balanced_ranges(threads);
                assert!(ranges.len() > 1, "the split must reach the pool");
                assert!(is_mis_on_ranges(g, &mis, threads));
                for _ in 0..20 {
                    let random = VertexSet::from_indices(
                        g.n(),
                        (0..g.n()).filter(|_| rand::Rng::gen_bool(&mut rng, 0.4)),
                    );
                    assert_eq!(
                        is_mis_on_ranges(g, &random, threads),
                        check_mis(g, &random).is_none()
                    );
                }
                for &(lo, hi) in &ranges {
                    for u in [lo, hi - 1] {
                        for (kind, planted) in [
                            ("independence", break_independence(g, &mis, u)),
                            ("maximality", break_maximality(g, &mis, u)),
                        ] {
                            if planted == mis {
                                continue; // an isolated member has no neighbor to add
                            }
                            assert!(check_mis(g, &planted).is_some(), "{kind} at {u}");
                            assert!(
                                !is_mis_on_ranges(g, &planted, threads),
                                "{kind} violation at vertex {u}, {threads} threads"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Which graphs `is_mis` checks on the pool: none on at most 1,000
    /// vertices, not `G(5·10⁴, 8/n)`, but `G(2¹⁷, 8/n)`, on which both
    /// paths agree.
    #[test]
    fn is_mis_checks_only_large_graphs_on_the_pool() {
        let volume = |g: &Graph| g.n() + 2 * g.m();
        assert!(volume(&crate::generators::complete(1000)) < PAR_MIS_VOLUME);
        let mid = crate::generators::gnp_counter(50_000, 8.0 / 50_000.0, 1);
        assert!(volume(&mid) < PAR_MIS_VOLUME);
        let n = 1 << 17;
        let large = crate::generators::gnp_counter(n, 8.0 / n as f64, 1);
        assert!(volume(&large) >= PAR_MIS_VOLUME);
        let mis = greedy_mis(&large);
        assert!(is_mis(&large, &mis));
        let planted = break_maximality(&large, &mis, n - 1);
        assert_eq!(
            is_mis(&large, &planted),
            check_mis(&large, &planted).is_none()
        );
        assert!(!is_mis(&large, &planted));
    }

    #[test]
    #[should_panic(expected = "vertex set universe must match the graph")]
    fn is_mis_rejects_a_universe_mismatch_inline() {
        is_mis(&cycle(6), &VertexSet::new(5));
    }

    #[test]
    #[should_panic(expected = "vertex set universe must match the graph")]
    fn is_mis_rejects_a_universe_mismatch_on_the_pool() {
        let n = 1 << 17;
        let large = crate::generators::gnp_counter(n, 8.0 / n as f64, 1);
        is_mis(&large, &VertexSet::new(n - 1));
    }

    #[test]
    fn empty_graph_cases() {
        let g = Graph::empty(4);
        // In an edgeless graph the only MIS is all vertices.
        assert!(is_mis(&g, &VertexSet::full(4)));
        assert!(!is_mis(&g, &VertexSet::from_indices(4, [0, 1, 2])));
        // Zero-vertex graph: the empty set is an MIS.
        let g0 = Graph::empty(0);
        assert!(is_mis(&g0, &VertexSet::new(0)));
    }

    #[test]
    fn outside_check_excludes_the_radius_ball() {
        // Path 0-1-2-3-4-5-6 with Byzantine vertex 0.
        let g = Graph::from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]).unwrap();
        // {3, 4} violates independence, but only outside N^2({0}) = {0,1,2}.
        let bad = VertexSet::from_indices(7, [3, 4, 6]);
        assert!(!is_mis_outside(&g, &bad, &[0], 2));
        assert!(matches!(
            check_mis_outside(&g, &bad, &[0], 2),
            Some(MisViolation::IndependenceViolated { u: 3, v: 4 })
        ));
        // Widening the radius to absorb vertex 3 hides that edge but vertex
        // 6 (outside, white, black neighbor 5? no — 5 is white) fails
        // maximality... {4, 6} with radius 3: zone = {0,1,2,3}; outside
        // {4,5,6}: 4 black, 5 dominated, 6 black, independent. Valid.
        let ok = VertexSet::from_indices(7, [4, 6]);
        assert!(is_mis_outside(&g, &ok, &[0], 3));
        // But at radius 2, vertex 3 is outside, white, and its only black
        // neighbor is 4 — still dominated, so {4, 6} is valid there too.
        assert!(is_mis_outside(&g, &ok, &[0], 2));
        // An outside vertex with no black neighbor at all is a violation.
        let hole = VertexSet::from_indices(7, [4]);
        assert!(matches!(
            check_mis_outside(&g, &hole, &[0], 2),
            Some(MisViolation::MaximalityViolated { vertex: 6 })
        ));
    }

    #[test]
    fn outside_check_accepts_zone_domination() {
        // Star: center 0 Byzantine and black, leaves 1..=4 white. Leaves
        // are dominated by the zone vertex, so maximality holds outside.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let s = VertexSet::from_indices(5, [0]);
        assert!(is_mis_outside(&g, &s, &[0], 0));
        // Empty excluded set degrades to the plain MIS check.
        assert_eq!(is_mis_outside(&g, &s, &[], 0), is_mis(&g, &s));
        // Unreachable components are always judged.
        let g2 = Graph::from_edges(3, [(0, 1)]).unwrap();
        assert!(
            !is_mis_outside(&g2, &VertexSet::from_indices(3, [0]), &[0], 9),
            "isolated vertex 2 must still be required in the set"
        );
        assert!(is_mis_outside(
            &g2,
            &VertexSet::from_indices(3, [2]),
            &[0],
            1
        ));
    }

    #[test]
    fn violation_display() {
        let v = MisViolation::IndependenceViolated { u: 1, v: 2 };
        assert!(v.to_string().contains("1"));
        let v = MisViolation::MaximalityViolated { vertex: 5 };
        assert!(v.to_string().contains("5"));
    }
}
