//! The vertex partition of Section 2 of the paper (`B_t`, `A_t`, `I_t`,
//! `V_t`), read off what each node of a network holds locally: its own state
//! and the channel feedback it heard in the current round. The three
//! networks of this crate answer the [`Process`](mis_core::Process) queries
//! through these functions, so no query re-simulates the channel.

use mis_core::StateCounts;
use mis_graph::{Graph, VertexId, VertexSet};

/// What a network exposes of one node in the current round.
pub(crate) trait NodeView {
    /// The communication graph.
    fn graph(&self) -> &Graph;

    /// Whether `u` is black (`u ∈ B_t`).
    fn is_black(&self, u: VertexId) -> bool;

    /// Whether `u` heard at least one black neighbor in the current round.
    fn hears_black(&self, u: VertexId) -> bool;

    /// Whether `u` draws a coin in the next round (`u ∈ A_t`).
    fn is_active(&self, u: VertexId) -> bool;
}

/// `u ∈ I_t`: black with no black neighbor.
pub(crate) fn is_stable_black(view: &impl NodeView, u: VertexId) -> bool {
    view.is_black(u) && !view.hears_black(u)
}

/// `u ∈ V_t = V \ N⁺(I_t)`: neither stable black nor adjacent to a stable
/// black vertex. Reads the neighbors of `u`.
pub(crate) fn is_unstable(view: &impl NodeView, u: VertexId) -> bool {
    !is_stable_black(view, u)
        && !view
            .graph()
            .neighbors(u)
            .iter()
            .any(|v| is_stable_black(view, v))
}

/// Whether `V_t` is empty, in `O(n)` without reading any neighbor.
///
/// `V_t = ∅` exactly when every black vertex hears no black neighbor and
/// every other vertex hears one. A black vertex `u` with a black neighbor is
/// not in `I_t`, and neither is any neighbor of `u` (each has `u` as a black
/// neighbor), so `u ∈ V_t`; a non-black vertex hearing no black is in `V_t`
/// too. Conversely, under that condition every black vertex is in `I_t` and
/// every other vertex is adjacent to one.
pub(crate) fn is_stabilized(view: &impl NodeView) -> bool {
    view.graph()
        .vertices()
        .all(|u| view.is_black(u) != view.hears_black(u))
}

/// The vertices satisfying `pred`, as a set.
pub(crate) fn select(view: &impl NodeView, pred: impl Fn(VertexId) -> bool) -> VertexSet {
    let g = view.graph();
    VertexSet::from_indices(g.n(), g.vertices().filter(|&u| pred(u)))
}

/// The partition's sizes, in one `O(n + m)` pass.
pub(crate) fn counts(view: &impl NodeView) -> StateCounts {
    let mut c = StateCounts::default();
    for u in view.graph().vertices() {
        if view.is_black(u) {
            c.black += 1;
        } else {
            c.non_black += 1;
        }
        c.active += usize::from(view.is_active(u));
        c.stable_black += usize::from(is_stable_black(view, u));
        c.unstable += usize::from(is_unstable(view, u));
    }
    c
}
