//! Generators for the graph families used in the paper's analysis.
//!
//! * [`gnp`] — Erdős–Rényi `G(n,p)` random graphs (Theorems 2, 3, 19, 32),
//!   using Batagelj–Brandes geometric skipping so sparse graphs cost
//!   `O(n + m)` rather than `O(n²)`.
//! * [`complete`] and [`disjoint_cliques`] — the clique families of
//!   Theorem 8 and Remark 9.
//! * [`random_tree`], [`path`], [`star`], [`forest_union`] — trees and
//!   bounded-arboricity graphs (Theorem 11).
//! * [`regular`] — random `d`-regular multigraph-free graphs (Theorem 12's
//!   `O(Δ log n)` bound).
//! * [`cycle`], [`grid`], [`bipartite`], [`barbell`] — additional families
//!   used in tests, examples, and robustness experiments.
//!
//! All generators are deterministic given the supplied RNG, so experiments
//! are reproducible from a seed.

use std::sync::Mutex;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{CompactId, Graph, GraphBuilder, GraphError, VertexId};

/// Erdős–Rényi random graph `G(n,p)`: every unordered pair becomes an edge
/// independently with probability `p`.
///
/// Uses geometric skipping, so the running time is `O(n + m)` in expectation.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]` or is NaN.
///
/// # Example
///
/// ```
/// use mis_graph::generators::gnp;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let g = gnp(100, 0.05, &mut rng);
/// assert_eq!(g.n(), 100);
/// ```
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
    if n == 0 || p == 0.0 {
        return Graph::empty(n);
    }
    if p >= 1.0 {
        return complete(n);
    }
    let mut builder = GraphBuilder::new(n);
    // Batagelj–Brandes: walk the strictly-lower-triangular adjacency matrix in
    // row-major order, skipping ahead by geometrically distributed gaps.
    let log_q = (1.0 - p).ln();
    let mut v: i64 = 1;
    let mut w: i64 = -1;
    let n_i = n as i64;
    while v < n_i {
        let r: f64 = rng.gen::<f64>();
        // Gap to the next selected pair.
        let gap = ((1.0 - r).ln() / log_q).floor() as i64;
        w += 1 + gap;
        while w >= v && v < n_i {
            w -= v;
            v += 1;
        }
        if v < n_i {
            builder.add_edge(v as usize, w as usize);
        }
    }
    builder.build()
}

/// Counter-based parallel `G(n,p)`: the same Erdős–Rényi distribution as
/// [`gnp`], but keyed on `(seed, row)` instead of a shared sequential RNG
/// stream, so rows are independent and can be generated **in parallel with
/// results identical for every thread count** (and identical to the
/// single-threaded run).
///
/// Each row `v` walks its strictly-lower-triangular slots `w < v` with
/// geometrically distributed skips drawn from a SplitMix64 stream seeded by
/// `(seed, v)` — the per-vertex-randomness idea the round engine uses,
/// applied to graph setup (which dominates wall-clock at `n = 10⁷` in the
/// scale experiment). Rows are partitioned into contiguous, volume-balanced
/// blocks, and each block writes its rows' lower neighbors, ascending as
/// drawn, into one list sized to its expected count plus six standard
/// deviations, and each row's length into its own slice of a row-length
/// array. The compact CSR is then assembled without a per-list sort: one
/// pass counts every vertex's higher neighbors, a prefix pass adds the row
/// lengths, and a fill over the rows in ascending order copies row `v`'s
/// list to the front of `v`'s slot and appends `v` to the slot of each
/// listed `w`, so every adjacency list is its lower neighbors followed by
/// its higher ones, each ascending. Besides the CSR, the build holds 4
/// bytes per edge (the lists, each dropped once its rows are filled) and 4
/// per vertex (the row lengths, reused as the fill's cursors).
///
/// Uses all available cores; see [`gnp_counter_threads`] to pin the worker
/// count. Note the sampled graph differs from [`gnp`]'s for the same seed —
/// the two draw from different randomness models (same distribution).
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]` or is NaN.
pub fn gnp_counter(n: usize, p: f64, seed: u64) -> Graph {
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    gnp_counter_threads(n, p, seed, threads)
}

/// [`gnp_counter`] with an explicit worker-thread count (the result does not
/// depend on it).
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]` or is NaN, if `n` exceeds `u32::MAX`, or
/// if the graph has more than 2³¹ edges.
pub fn gnp_counter_threads(n: usize, p: f64, seed: u64, threads: usize) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
    if n == 0 || p == 0.0 {
        return Graph::empty(n);
    }
    if p >= 1.0 {
        return complete(n);
    }
    let log_q = (1.0 - p).ln();
    if log_q == 0.0 {
        // p is so small that 1 - p rounds to 1.0 (p < ~1e-16): the geometric
        // skip would divide by zero. The expected edge count p·n(n−1)/2 is
        // indistinguishable from zero at any representable n, so the empty
        // graph is the distributionally correct sample.
        return Graph::empty(n);
    }
    assert!(
        u32::try_from(n).is_ok(),
        "gnp_counter supports at most u32::MAX vertices (got n = {n})"
    );

    // Volume-balanced contiguous row blocks: the expected work of rows
    // `0..v` grows like `v²`, so boundaries at `n·sqrt(i/k)` equalize it.
    let blocks = threads.max(1).min(n);
    let mut bounds = Vec::with_capacity(blocks);
    let mut lo = 0usize;
    for i in 1..=blocks {
        let hi = if i == blocks {
            n
        } else {
            (((n as f64) * (i as f64 / blocks as f64).sqrt()).round() as usize).clamp(lo, n)
        };
        if hi > lo {
            bounds.push((lo, hi));
            lo = hi;
        }
    }

    // Pass 1, one block per participant of the persistent process-wide pool
    // (generation shares workers with the round engine): each row's lower
    // neighbors, ascending as drawn, go to the block's list, and the row's
    // length to the block's own slice of `cursor`.
    let mut cursor = vec![0u32; n];
    let mut rest = &mut cursor[..];
    let mut slices = Vec::with_capacity(bounds.len());
    for &(lo, hi) in &bounds {
        let (rows, tail) = rest.split_at_mut(hi - lo);
        slices.push(Mutex::new(rows));
        rest = tail;
    }
    let pool = rayon::global_pool(bounds.len());
    let (bounds_ref, slices_ref) = (&bounds, &slices);
    let lists: Vec<Vec<u32>> = pool.broadcast(|ctx| {
        let (lo, hi) = bounds_ref[ctx.index()];
        let mut lens = slices_ref[ctx.index()]
            .lock()
            .expect("a row slice is locked once, by its block's participant");
        let mut list = Vec::with_capacity(list_capacity(p, lo, hi));
        for v in lo.max(1)..hi {
            let start = list.len();
            let mut state = row_key(seed, v);
            let mut w: i64 = -1;
            loop {
                let r = unit_f64(splitmix64(&mut state));
                w += 1 + ((1.0 - r).ln() / log_q).floor() as i64;
                if w >= v as i64 {
                    break;
                }
                list.push(w as u32);
            }
            lens[v - lo] = (list.len() - start) as u32;
        }
        list
    });
    drop(slices);

    let m: usize = lists.iter().map(Vec::len).sum();
    let arcs = 2 * m;
    assert!(
        u32::try_from(arcs).is_ok(),
        "gnp_counter supports at most 2^31 edges (got m = {m})"
    );
    // Every listed `w` gains its row as a higher neighbor: count those into
    // `offsets[w + 1]`, then add the row lengths and take prefix sums. Each
    // row length then becomes the cursor of its vertex's higher part.
    let mut offsets = vec![0u32; n + 1];
    for &w in lists.iter().flatten() {
        offsets[w as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v] + cursor[v];
        cursor[v] += offsets[v];
    }
    // The fill, rows ascending: row v's own list is its lower part, and v
    // goes after the neighbors already appended to each listed w's higher
    // part, which keeps both parts ascending. No row above v has run yet,
    // so `cursor[v]` still marks the end of v's lower part.
    let mut adjacency = vec![CompactId::from_raw(0); arcs];
    for (list, &(lo, hi)) in lists.into_iter().zip(&bounds) {
        let mut rows = &list[..];
        for v in lo..hi {
            let start = offsets[v] as usize;
            let (row, tail) = rows.split_at(cursor[v] as usize - start);
            for (slot, &w) in adjacency[start..].iter_mut().zip(row) {
                *slot = CompactId::from_raw(w);
            }
            for &w in row {
                let at = &mut cursor[w as usize];
                adjacency[*at as usize] = CompactId::from_raw(v as u32);
                *at += 1;
            }
            rows = tail;
        }
    }
    Graph::from_compact_parts(offsets, adjacency, m)
}

/// Capacity of the lower-neighbor list of rows `lo..hi`: the expected count
/// plus six standard deviations and 16 entries (at most the slot count), so
/// the list practically never reallocates.
fn list_capacity(p: f64, lo: usize, hi: usize) -> usize {
    let slots = triangle(lo, hi);
    let mean = p * slots;
    let sd = (mean * (1.0 - p)).sqrt();
    ((mean + 6.0 * sd).ceil() as usize + 16).min(slots as usize)
}

/// Expected number of lower-triangular slots in rows `lo..hi`.
fn triangle(lo: usize, hi: usize) -> f64 {
    let t = |v: usize| (v as f64) * (v as f64 - 1.0) / 2.0;
    t(hi) - t(lo)
}

/// Mixes `(seed, row)` into the initial SplitMix64 state.
fn row_key(seed: u64, row: usize) -> u64 {
    (seed ^ (row as u64).wrapping_mul(0xA24B_AED4_963E_E407)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One SplitMix64 step (Steele–Lea–Flood); a full-period, well-mixed 64-bit
/// stream — ample for graph sampling.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a 64-bit word to `[0, 1)` with 53-bit precision.
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut builder = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            builder.add_edge(u, v);
        }
    }
    builder.build()
}

/// Disjoint union of `count` cliques, each on `size` vertices
/// (`n = count * size` vertices total).
///
/// With `count = size = √n` this is the family of Remark 9, on which the
/// 2-state process needs `Θ(log² n)` rounds in expectation.
pub fn disjoint_cliques(count: usize, size: usize) -> Graph {
    let n = count * size;
    let mut builder = GraphBuilder::new(n);
    for c in 0..count {
        let base = c * size;
        for i in 0..size {
            for j in (i + 1)..size {
                builder.add_edge(base + i, base + j);
            }
        }
    }
    builder.build()
}

/// The path `P_n` on `n` vertices (`n - 1` edges).
pub fn path(n: usize) -> Graph {
    let mut builder = GraphBuilder::new(n);
    for i in 1..n {
        builder.add_edge(i - 1, i);
    }
    builder.build()
}

/// The cycle `C_n` on `n` vertices.
///
/// # Panics
///
/// Panics if `n` is 1 or 2 (a simple cycle needs at least 3 vertices); `n = 0`
/// yields the empty graph.
pub fn cycle(n: usize) -> Graph {
    if n == 0 {
        return Graph::empty(0);
    }
    assert!(
        n >= 3,
        "a simple cycle requires at least 3 vertices, got {n}"
    );
    let mut builder = GraphBuilder::new(n);
    for i in 0..n {
        builder.add_edge(i, (i + 1) % n);
    }
    builder.build()
}

/// The star `K_{1,n-1}`: vertex 0 is the hub, vertices `1..n` are leaves.
pub fn star(n: usize) -> Graph {
    let mut builder = GraphBuilder::new(n);
    for leaf in 1..n {
        builder.add_edge(0, leaf);
    }
    builder.build()
}

/// A uniformly random labelled tree on `n` vertices, generated by the random
/// attachment construction (each vertex `i ≥ 1` attaches to a uniformly
/// random earlier vertex after a random relabelling), which yields a random
/// recursive tree — a bounded-arboricity (arboricity 1) family suitable for
/// Theorem 11 experiments.
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    if n <= 1 {
        return Graph::empty(n);
    }
    // Random relabelling so the root is not always vertex 0.
    let mut labels: Vec<VertexId> = (0..n).collect();
    labels.shuffle(rng);
    let mut builder = GraphBuilder::new(n);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        builder.add_edge(labels[i], labels[parent]);
    }
    builder.build()
}

/// Union of `forests` independently sampled random spanning forests on the
/// same vertex set, giving a graph of arboricity at most `forests`.
///
/// Each forest is a uniformly random recursive tree, so the resulting graph
/// has at most `forests * (n - 1)` edges and arboricity ≤ `forests` — the
/// bounded-arboricity family of Theorem 11.
pub fn forest_union<R: Rng + ?Sized>(n: usize, forests: usize, rng: &mut R) -> Graph {
    let mut builder = GraphBuilder::new(n);
    for _ in 0..forests {
        if n <= 1 {
            break;
        }
        let mut labels: Vec<VertexId> = (0..n).collect();
        labels.shuffle(rng);
        for i in 1..n {
            let parent = rng.gen_range(0..i);
            if labels[i] != labels[parent] {
                builder.add_edge(labels[i], labels[parent]);
            }
        }
    }
    builder.build()
}

/// A random `d`-regular simple graph on `n` vertices via the configuration
/// model with *edge-swap repair*: an initial random stub pairing is cleaned
/// up by repeatedly swapping endpoints of offending pairs (self-loops or
/// duplicate edges) with randomly chosen other pairs. This keeps the degree
/// sequence exactly `d`-regular and converges quickly for every `d < n`,
/// unlike the classic rejection scheme whose acceptance probability vanishes
/// already for moderate `d`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n * d` is odd or `d >= n`.
pub fn regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Result<Graph, GraphError> {
    if d >= n && !(n == 0 && d == 0) {
        return Err(GraphError::InvalidParameter {
            reason: format!("degree d = {d} must be smaller than n = {n}"),
        });
    }
    if (n * d) % 2 != 0 {
        return Err(GraphError::InvalidParameter {
            reason: format!("n * d must be even, got n = {n}, d = {d}"),
        });
    }
    if n == 0 || d == 0 {
        return Ok(Graph::empty(n));
    }

    // Random stub pairing (may contain self-loops and multi-edges).
    let mut stubs: Vec<VertexId> = (0..n).flat_map(|v| std::iter::repeat(v).take(d)).collect();
    stubs.shuffle(rng);
    let mut pairs: Vec<(VertexId, VertexId)> = stubs.chunks(2).map(|c| (c[0], c[1])).collect();

    // Repair sweeps: swap an endpoint of every offending pair with a random
    // other pair, until the multiset of pairs forms a simple graph.
    let key = |u: VertexId, v: VertexId| (u.min(v), u.max(v));
    loop {
        let mut seen = std::collections::HashSet::with_capacity(pairs.len());
        let mut bad: Vec<usize> = Vec::new();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            if u == v || !seen.insert(key(u, v)) {
                bad.push(i);
            }
        }
        if bad.is_empty() {
            break;
        }
        for i in bad {
            let j = rng.gen_range(0..pairs.len());
            if i == j {
                continue;
            }
            let (a, b) = pairs[i];
            let (c, e) = pairs[j];
            // Swap the second endpoints: (a,b),(c,e) -> (a,e),(c,b).
            pairs[i] = (a, e);
            pairs[j] = (c, b);
        }
    }

    let mut builder = GraphBuilder::new(n);
    for (u, v) in pairs {
        builder.add_edge(u, v);
    }
    Ok(builder.build())
}

/// The `rows × cols` grid graph (4-neighborhood).
pub fn grid(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let mut builder = GraphBuilder::new(n);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                builder.add_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                builder.add_edge(id(r, c), id(r + 1, c));
            }
        }
    }
    builder.build()
}

/// Random bipartite graph: sides `0..left` and `left..left + right`, each
/// cross pair present independently with probability `p`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub fn bipartite<R: Rng + ?Sized>(left: usize, right: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
    let mut builder = GraphBuilder::new(left + right);
    for u in 0..left {
        for v in 0..right {
            if rng.gen_bool(p) {
                builder.add_edge(u, left + v);
            }
        }
    }
    builder.build()
}

/// Random geometric graph: `n` points are placed uniformly at random on the
/// unit square and two vertices are adjacent when their Euclidean distance is
/// at most `radius`.
///
/// This is the standard model for wireless sensor deployments, the
/// application domain the paper's beeping-model algorithms target. Returns
/// the graph together with the generated positions (indexed by vertex id) so
/// callers can visualize or post-process the layout.
///
/// # Panics
///
/// Panics if `radius` is negative or NaN.
pub fn random_geometric<R: Rng + ?Sized>(
    n: usize,
    radius: f64,
    rng: &mut R,
) -> (Graph, Vec<(f64, f64)>) {
    assert!(radius >= 0.0, "radius must be non-negative, got {radius}");
    let positions: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let mut builder = GraphBuilder::new(n);
    let r2 = radius * radius;
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = positions[i].0 - positions[j].0;
            let dy = positions[i].1 - positions[j].1;
            if dx * dx + dy * dy <= r2 {
                builder.add_edge(i, j);
            }
        }
    }
    (builder.build(), positions)
}

/// Barabási–Albert preferential-attachment graph: starting from a clique on
/// `attach` vertices, every new vertex attaches to `attach` distinct existing
/// vertices chosen with probability proportional to their current degree.
///
/// Produces the heavy-tailed degree distributions typical of real networks;
/// used by robustness experiments outside the families the paper analyzes.
///
/// # Panics
///
/// Panics if `attach == 0` or `attach >= n` (for `n > 0`).
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, attach: usize, rng: &mut R) -> Graph {
    if n == 0 {
        return Graph::empty(0);
    }
    assert!(attach >= 1, "attach must be at least 1");
    assert!(attach < n, "attach = {attach} must be smaller than n = {n}");
    let mut builder = GraphBuilder::new(n);
    // Degree-weighted sampling via the repeated-endpoints trick: every edge
    // endpoint is pushed onto `endpoints`, and sampling a uniform element of
    // that list samples a vertex proportionally to its degree.
    let mut endpoints: Vec<VertexId> = Vec::new();
    for u in 0..attach {
        for v in (u + 1)..attach {
            builder.add_edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    // Special case attach == 1: the seed "clique" has a single vertex and no
    // edges, so seed the endpoint list with vertex 0.
    if endpoints.is_empty() {
        endpoints.push(0);
    }
    // The targets are kept in draw order, so the endpoint list, and with it
    // every later draw, depends on the seed alone.
    let mut targets = Vec::with_capacity(attach);
    for v in attach.max(1)..n {
        targets.clear();
        while targets.len() < attach.min(v) {
            let target = endpoints[rng.gen_range(0..endpoints.len())];
            if target != v && !targets.contains(&target) {
                targets.push(target);
            }
        }
        for &t in &targets {
            builder.add_edge(v, t);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    builder.build()
}

/// The barbell graph: two cliques `K_k` joined by a path on `bridge` extra
/// vertices (total `2k + bridge` vertices). A classic "hard to mix" topology
/// used in robustness experiments.
pub fn barbell(k: usize, bridge: usize) -> Graph {
    let n = 2 * k + bridge;
    let mut builder = GraphBuilder::new(n);
    for i in 0..k {
        for j in (i + 1)..k {
            builder.add_edge(i, j);
            builder.add_edge(k + bridge + i, k + bridge + j);
        }
    }
    // Path through the bridge vertices connecting the two cliques.
    if k > 0 {
        let mut prev = k - 1;
        for b in 0..bridge {
            builder.add_edge(prev, k + b);
            prev = k + b;
        }
        if n > k {
            builder.add_edge(prev, k + bridge);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use crate::traversal::{bfs_distances, UNREACHABLE};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Whether every vertex is reachable from vertex 0 (the empty graph
    /// is connected).
    fn is_connected(g: &Graph) -> bool {
        g.n() == 0 || !bfs_distances(g, 0).contains(&UNREACHABLE)
    }

    /// The sizes of the connected components of `g`, one BFS per component.
    fn component_sizes(g: &Graph) -> Vec<usize> {
        let mut seen = vec![false; g.n()];
        let mut sizes = Vec::new();
        for source in g.vertices() {
            if !seen[source] {
                let dist = bfs_distances(g, source);
                let members: Vec<_> = g.vertices().filter(|&v| dist[v] != UNREACHABLE).collect();
                members.iter().for_each(|&v| seen[v] = true);
                sizes.push(members.len());
            }
        }
        sizes
    }

    #[test]
    fn complete_graph_edge_count() {
        for n in [0, 1, 2, 5, 20] {
            let g = complete(n);
            assert_eq!(g.n(), n);
            assert_eq!(g.m(), n * n.saturating_sub(1) / 2);
            if n > 0 {
                assert_eq!(g.max_degree(), n - 1);
                assert!(g.vertices().all(|u| g.degree(u) == n - 1));
            }
        }
    }

    #[test]
    fn gnp_extremes() {
        let mut r = rng(0);
        let g = gnp(50, 0.0, &mut r);
        assert_eq!(g.m(), 0);
        let g = gnp(50, 1.0, &mut r);
        assert_eq!(g.m(), 50 * 49 / 2);
        let g = gnp(0, 0.5, &mut r);
        assert_eq!(g.n(), 0);
    }

    #[test]
    fn gnp_edge_count_is_near_expectation() {
        let mut r = rng(42);
        let (n, p) = (400, 0.05);
        let g = gnp(n, p, &mut r);
        let expected = p * (n * (n - 1) / 2) as f64;
        // 5 standard deviations of slack.
        let sd = (expected * (1.0 - p)).sqrt();
        assert!(
            (g.m() as f64 - expected).abs() < 5.0 * sd,
            "m = {}, expected ≈ {expected}",
            g.m()
        );
    }

    #[test]
    fn gnp_is_reproducible_from_seed() {
        let g1 = gnp(100, 0.1, &mut rng(7));
        let g2 = gnp(100, 0.1, &mut rng(7));
        assert_eq!(g1, g2);
    }

    #[test]
    #[should_panic(expected = "p must be in [0, 1]")]
    fn gnp_rejects_bad_p() {
        gnp(10, 1.5, &mut rng(0));
    }

    #[test]
    fn gnp_counter_extremes_and_expectation() {
        assert_eq!(gnp_counter(0, 0.5, 1).n(), 0);
        assert_eq!(gnp_counter(50, 0.0, 1).m(), 0);
        assert_eq!(gnp_counter(50, 1.0, 1).m(), 50 * 49 / 2);
        let (n, p) = (400, 0.05);
        let g = gnp_counter(n, p, 42);
        let expected = p * (n * (n - 1) / 2) as f64;
        let sd = (expected * (1.0 - p)).sqrt();
        assert!(
            (g.m() as f64 - expected).abs() < 5.0 * sd,
            "m = {}, expected ≈ {expected}",
            g.m()
        );
    }

    #[test]
    fn gnp_counter_is_thread_count_invariant_and_seeded() {
        for &(n, p) in &[(1usize, 0.5), (2, 0.9), (123, 0.07), (200, 0.3)] {
            let baseline = gnp_counter_threads(n, p, 7, 1);
            for threads in [2usize, 3, 8, 64] {
                assert_eq!(
                    baseline,
                    gnp_counter_threads(n, p, 7, threads),
                    "n={n}, p={p}, threads={threads}"
                );
            }
            assert_eq!(baseline, gnp_counter_threads(n, p, 7, 1));
        }
        assert_ne!(gnp_counter(300, 0.1, 1), gnp_counter(300, 0.1, 2));
    }

    /// The pair-list assembly `gnp_counter_threads` used before the
    /// pair-free build, kept as its oracle: per-block `(v, w)` edge lists in
    /// row order, a degree count, prefix sums, and a counting-sort scatter
    /// through a cursor array.
    fn pair_list_reference(n: usize, p: f64, seed: u64, threads: usize) -> Graph {
        if n == 0 || p == 0.0 {
            return Graph::empty(n);
        }
        if p >= 1.0 {
            return complete(n);
        }
        let log_q = (1.0 - p).ln();
        if log_q == 0.0 {
            return Graph::empty(n);
        }
        let blocks = threads.max(1).min(n);
        let mut bounds = Vec::with_capacity(blocks);
        let mut lo = 0usize;
        for i in 1..=blocks {
            let hi = if i == blocks {
                n
            } else {
                (((n as f64) * (i as f64 / blocks as f64).sqrt()).round() as usize).clamp(lo, n)
            };
            if hi > lo {
                bounds.push((lo, hi));
                lo = hi;
            }
        }
        let block_edges: Vec<Vec<(u32, u32)>> = bounds
            .iter()
            .map(|&(lo, hi)| {
                let mut edges = Vec::new();
                for v in lo.max(1)..hi {
                    let mut state = row_key(seed, v);
                    let mut w: i64 = -1;
                    loop {
                        let r = unit_f64(splitmix64(&mut state));
                        w += 1 + ((1.0 - r).ln() / log_q).floor() as i64;
                        if w >= v as i64 {
                            break;
                        }
                        edges.push((v as u32, w as u32));
                    }
                }
                edges
            })
            .collect();
        let m: usize = block_edges.iter().map(Vec::len).sum();
        let mut degree = vec![0u32; n];
        for &(v, w) in block_edges.iter().flatten() {
            degree[v as usize] += 1;
            degree[w as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0u32);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut adjacency = vec![CompactId::new(0); 2 * m];
        for &(v, w) in block_edges.iter().flatten() {
            adjacency[cursor[v as usize] as usize] = CompactId::new(w as usize);
            cursor[v as usize] += 1;
            adjacency[cursor[w as usize] as usize] = CompactId::new(v as usize);
            cursor[w as usize] += 1;
        }
        Graph::from_compact_parts(offsets, adjacency, m)
    }

    /// The pair-free build equals the pair-list assembly, offsets and list
    /// order included, at every thread count. At 64 threads some blocks
    /// are empty and some end on rows with no lower neighbor.
    #[test]
    fn gnp_counter_equals_the_pair_list_assembly() {
        let cases = [
            (0usize, 0.5),
            (1, 0.5),
            (2, 0.9),
            (3, 1e-18),
            (123, 0.07),
            (200, 0.3),
            (1_000, 0.9),
            (50_000, 8.0 / 50_000.0),
        ];
        for (n, p) in cases {
            for seed in [7u64, 2_024] {
                for threads in [1usize, 2, 3, 8, 64] {
                    assert_eq!(
                        gnp_counter_threads(n, p, seed, threads),
                        pair_list_reference(n, p, seed, threads),
                        "n={n}, p={p}, seed={seed}, threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn gnp_counter_is_simple_and_sorted() {
        let g = gnp_counter(250, 0.08, 99);
        for u in g.vertices() {
            let nbrs = g.neighbors(u).to_vec();
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "vertex {u}: {nbrs:?}");
            assert!(!nbrs.contains(&u));
            for &v in &nbrs {
                assert!(g.neighbors(v).contains(u), "asymmetric edge ({u},{v})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "p must be in [0, 1]")]
    fn gnp_counter_rejects_bad_p() {
        gnp_counter(10, -0.1, 0);
    }

    #[test]
    fn gnp_counter_subnormal_p_yields_the_empty_graph() {
        // p < ~1e-16 makes (1 - p).ln() == 0.0; the generator must not
        // divide by zero (garbage edges) and the distribution rounds to the
        // edgeless graph.
        let g = gnp_counter(1000, 1e-18, 5);
        assert_eq!(g.n(), 1000);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn disjoint_cliques_structure() {
        let g = disjoint_cliques(4, 3);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 4 * 3);
        let sizes = component_sizes(&g);
        assert_eq!(sizes.len(), 4);
        assert!(sizes.iter().all(|&size| size == 3));
    }

    #[test]
    fn path_cycle_star_shapes() {
        let p = path(5);
        assert_eq!(p.m(), 4);
        assert_eq!(p.max_degree(), 2);
        let c = cycle(5);
        assert_eq!(c.m(), 5);
        assert!(c.vertices().all(|v| c.degree(v) == 2));
        let s = star(6);
        assert_eq!(s.degree(0), 5);
        assert_eq!(s.m(), 5);
        assert_eq!(cycle(0).n(), 0);
        assert_eq!(path(1).m(), 0);
        assert_eq!(star(1).m(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 3 vertices")]
    fn tiny_cycle_panics() {
        cycle(2);
    }

    #[test]
    fn random_tree_is_a_tree() {
        for seed in 0..10u64 {
            let g = random_tree(50, &mut rng(seed));
            assert_eq!(g.m(), 49);
            assert!(is_connected(&g));
        }
        assert_eq!(random_tree(0, &mut rng(0)).n(), 0);
        assert_eq!(random_tree(1, &mut rng(0)).m(), 0);
    }

    #[test]
    fn forest_union_bounds_arboricity() {
        let g = forest_union(60, 3, &mut rng(3));
        assert!(g.m() <= 3 * 59);
        // Degeneracy is an upper bound on arboricity up to a factor 2; here we
        // use it as a sanity check that the graph is sparse everywhere.
        assert!(properties::degeneracy(&g) <= 6);
    }

    #[test]
    fn regular_graph_degrees() {
        let g = regular(30, 4, &mut rng(5)).unwrap();
        assert!(g.vertices().all(|v| g.degree(v) == 4));
        assert_eq!(g.m(), 30 * 4 / 2);
        // Invalid parameter combinations.
        assert!(regular(5, 5, &mut rng(0)).is_err());
        assert!(regular(5, 3, &mut rng(0)).is_err());
        assert_eq!(regular(6, 0, &mut rng(0)).unwrap().m(), 0);
    }

    #[test]
    fn grid_structure() {
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4);
        assert!(is_connected(&g));
        assert!(g.max_degree() <= 4);
    }

    #[test]
    fn bipartite_has_no_intra_side_edges() {
        let g = bipartite(10, 15, 0.3, &mut rng(9));
        for (u, v) in g.edges() {
            assert!((u < 10) != (v < 10), "edge ({u},{v}) stays within a side");
        }
    }

    #[test]
    fn random_geometric_respects_radius() {
        let (g, pos) = random_geometric(80, 0.2, &mut rng(11));
        assert_eq!(g.n(), 80);
        assert_eq!(pos.len(), 80);
        for (u, v) in g.edges() {
            let dx = pos[u].0 - pos[v].0;
            let dy = pos[u].1 - pos[v].1;
            assert!((dx * dx + dy * dy).sqrt() <= 0.2 + 1e-12);
        }
        // Radius 0 produces the edgeless graph; radius sqrt(2) the complete graph.
        assert_eq!(random_geometric(20, 0.0, &mut rng(12)).0.m(), 0);
        assert_eq!(random_geometric(20, 1.5, &mut rng(13)).0.m(), 190);
    }

    #[test]
    fn barabasi_albert_degree_structure() {
        let g = barabasi_albert(200, 3, &mut rng(14));
        assert_eq!(g.n(), 200);
        // Every non-seed vertex attaches with at least `attach` edges (some
        // may coincide with earlier edges), so the graph is connected and has
        // at least (n - attach) * 1 edges and at most attach * n edges.
        assert!(is_connected(&g));
        assert!(g.m() >= 200 - 3);
        assert!(g.m() <= 3 * 200);
        // Preferential attachment produces a hub: the max degree should be
        // noticeably above the attachment parameter.
        assert!(g.max_degree() >= 10, "max degree {}", g.max_degree());
        // Degenerate and invalid parameters.
        assert_eq!(barabasi_albert(0, 2, &mut rng(15)).n(), 0);
        assert_eq!(barabasi_albert(5, 1, &mut rng(16)).m(), 4);
    }

    #[test]
    fn barabasi_albert_is_a_function_of_the_seed() {
        let edges = || {
            barabasi_albert(2_000, 3, &mut rng(7))
                .edges()
                .collect::<Vec<_>>()
        };
        assert_eq!(edges(), edges());
    }

    #[test]
    #[should_panic(expected = "must be smaller than n")]
    fn barabasi_albert_rejects_large_attach() {
        barabasi_albert(3, 3, &mut rng(17));
    }

    #[test]
    fn barbell_structure() {
        let g = barbell(5, 2);
        assert_eq!(g.n(), 12);
        assert!(is_connected(&g));
        // Two K_5s contribute 2 * 10 edges, bridge path contributes 3.
        assert_eq!(g.m(), 23);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// G(n,p) never produces self-loops or duplicate edges and respects n.
        #[test]
        fn gnp_is_simple(seed in 0u64..1000, n in 0usize..120, p in 0.0f64..1.0) {
            let g = gnp(n, p, &mut rng(seed));
            prop_assert_eq!(g.n(), n);
            prop_assert!(g.m() <= n.saturating_mul(n.saturating_sub(1)) / 2);
            for u in g.vertices() {
                prop_assert!(!g.neighbors(u).contains(u));
            }
        }

        /// Random trees are connected and acyclic (n - 1 edges).
        #[test]
        fn random_tree_invariants(seed in 0u64..1000, n in 2usize..100) {
            let g = random_tree(n, &mut rng(seed));
            prop_assert_eq!(g.m(), n - 1);
            prop_assert!(is_connected(&g));
        }

        /// Regular graphs have every degree exactly d.
        #[test]
        fn regular_invariants(seed in 0u64..200, n in 4usize..40, d in 1usize..4) {
            prop_assume!(n * d % 2 == 0 && d < n);
            let g = regular(n, d, &mut rng(seed)).unwrap();
            prop_assert!(g.vertices().all(|v| g.degree(v) == d));
        }
    }
}
