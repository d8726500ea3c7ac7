//! The beeping communication model (full-duplex / sender collision
//! detection) and the reference round of the 2-state process over it.

use mis_core::Color;
use mis_graph::{Graph, VertexId, VertexSet};
use rand::{Rng, RngCore};

use crate::walk;

/// Simulates one synchronous round of the beeping channel: every node `u`
/// with `beeps(u)` beeps, and the round writes into `heard[v]` whether **at
/// least one neighbor** of `v` beeped. With sender collision detection (the
/// full-duplex model assumed by the paper) beeping nodes receive this
/// feedback too. The pass costs `O(n + m)` and allocates nothing.
///
/// The channel deliberately gives a single bit per node — nothing about
/// *which* or *how many* neighbors beeped.
///
/// # Panics
///
/// Panics if `heard.len() != g.n()`.
///
/// # Example
///
/// ```
/// use mis_comm::beeping::beep_round;
/// use mis_graph::Graph;
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
/// let mut heard = [false; 3];
/// beep_round(&g, |u| u == 0, &mut heard);
/// assert_eq!(heard, [false, true, false]);
/// ```
pub fn beep_round(g: &Graph, beeps: impl Fn(VertexId) -> bool, heard: &mut [bool]) {
    assert_eq!(
        heard.len(),
        g.n(),
        "heard buffer length must equal the number of vertices"
    );
    for (v, h) in heard.iter_mut().enumerate() {
        *h = g.neighbors(v).iter().any(&beeps);
    }
}

/// One round of the 2-state process as a **beeping algorithm** (Section 1
/// of the paper), the reference for the `beeping-two-state` key: black
/// nodes beep, then each walked node — `scheduled`, or every node — whose
/// color agrees with its heard bit (black hearing a beep, white hearing
/// silence) re-draws its color from a fair coin, in ascending node order
/// as in a sequential engine round. Returns the random bits drawn.
///
/// # Panics
///
/// Panics if `states.len() != g.n()` or `scheduled` is over another
/// universe.
pub fn two_state_round(
    g: &Graph,
    states: &mut [Color],
    scheduled: Option<&VertexSet>,
    rng: &mut dyn RngCore,
) -> u64 {
    use Color::{Black, White};
    assert_eq!(states.len(), g.n(), "one state per node");
    let mut heard = vec![false; g.n()];
    beep_round(g, |u| states[u].is_black(), &mut heard);
    let mut bits = 0;
    for u in walk(g, scheduled) {
        if states[u].is_black() == heard[u] {
            bits += 1;
            states[u] = if rng.gen_bool(0.5) { Black } else { White };
        }
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_stabilized;
    use mis_core::init::InitStrategy;
    use mis_graph::{generators, mis_check};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Runs reference rounds from random colors until the channel check
    /// reports stability, and returns whether the black set is an MIS.
    fn reaches_mis(g: &Graph, r: &mut ChaCha8Rng) -> bool {
        let mut states = InitStrategy::Random.two_state(g.n(), r);
        let mut rounds = 0;
        while !is_stabilized(g, |u| states[u].is_black()) {
            two_state_round(g, &mut states, None, r);
            rounds += 1;
            assert!(rounds < 200_000, "did not stabilize");
        }
        let black = VertexSet::from_indices(g.n(), g.vertices().filter(|&u| states[u].is_black()));
        mis_check::is_mis(g, &black)
    }

    #[test]
    fn beep_round_reports_neighbor_beeps_only() {
        let g = generators::star(5);
        // The buffer starts dirty: the round overwrites every bit.
        let mut heard = [true; 5];
        // Only a leaf beeps: the hub hears it, other leaves do not.
        beep_round(&g, |u| u == 1, &mut heard);
        assert_eq!(heard, [true, false, false, false, false]);
        // The hub beeps: every leaf hears it, the hub itself does not
        // (sender collision detection reports *neighbor* beeps only).
        beep_round(&g, |u| u == 0, &mut heard);
        assert_eq!(heard, [false, true, true, true, true]);
        // Nobody beeps.
        beep_round(&g, |_| false, &mut heard);
        assert_eq!(heard, [false; 5]);
    }

    #[test]
    #[should_panic(expected = "heard buffer length")]
    fn beep_round_rejects_mismatched_buffer() {
        let g = generators::path(3);
        beep_round(&g, |_| true, &mut [false; 4]);
    }

    #[test]
    fn reference_round_moves_exactly_the_nodes_whose_color_and_beep_agree() {
        // Path 0 - 1 - 2 - 3: black, black, white, white. Nodes 0 and 1
        // hear each other's beep; node 3 hears silence; node 2 hears node 1.
        let g = generators::path(4);
        let start = [Color::Black, Color::Black, Color::White, Color::White];
        let mut states = start;
        assert_eq!(two_state_round(&g, &mut states, None, &mut rng(1)), 3);
        assert_eq!(states[2], Color::White);
        // Scheduled: only node 3 is walked, and it draws one coin.
        let mut states = start;
        let only_3 = VertexSet::from_indices(4, [3]);
        assert_eq!(
            two_state_round(&g, &mut states, Some(&only_3), &mut rng(1)),
            1
        );
        assert_eq!(states[..3], start[..3]);
    }

    #[test]
    fn a_full_schedule_is_a_synchronous_round() {
        let mut setup = rng(9);
        let g = generators::gnp(30, 0.2, &mut setup);
        let everyone = VertexSet::from_indices(g.n(), 0..g.n());
        let mut sync = InitStrategy::Random.two_state(g.n(), &mut setup);
        let mut scheduled = sync.clone();
        let (mut ra, mut rb) = (rng(11), rng(11));
        for round in 0..80 {
            let bits = two_state_round(&g, &mut sync, None, &mut ra);
            let scheduled_bits = two_state_round(&g, &mut scheduled, Some(&everyone), &mut rb);
            assert_eq!(
                (sync.clone(), bits),
                (scheduled.clone(), scheduled_bits),
                "round {round}"
            );
        }
    }

    #[test]
    fn reference_rounds_reach_an_mis() {
        let mut r = rng(5);
        for g in [
            generators::complete(20),
            generators::random_tree(60, &mut r),
            generators::gnp(80, 0.15, &mut r),
        ] {
            assert!(reaches_mis(&g, &mut r));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The beeping reference rounds stabilize to an MIS on random graphs.
        #[test]
        fn beeping_reaches_mis(seed in 0u64..5000, n in 1usize..40, p_edge in 0.0f64..0.6) {
            let mut r = rng(seed);
            let g = generators::gnp(n, p_edge, &mut r);
            prop_assert!(reaches_mis(&g, &mut r));
        }
    }
}
