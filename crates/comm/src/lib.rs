//! Weak-communication channels, and reference rounds of the MIS processes
//! over them.
//!
//! The paper's processes need only *severely restricted* communication:
//!
//! * the 2-state process fits the **beeping model with sender collision
//!   detection** (Cornejo & Kuhn 2010; Afek et al. 2013): black nodes beep,
//!   and a node only learns "did at least one neighbor beep?";
//! * the 3-state and 3-color processes fit the **synchronous stone age
//!   model** (Emek & Wattenhofer 2013): a node sends one letter of a
//!   constant alphabet per round and learns, per letter, only whether some
//!   neighbor sent it.
//!
//! The engine passes every rule of `mis-core` one neighbor bit, "some
//! neighbor is black" ([`mis_core::LocalRule::classify`]); the 3-state rule
//! asks for its other letter on demand, and the 3-color rule reads its
//! letters through its switch: all of it is what these channels deliver, so
//! the registry keys `beeping-two-state`, `stone-age-three-state` and
//! `stone-age-three-color` run the engine processes of `mis-core`. This
//! crate keeps the channels ([`beeping::beep_round`],
//! [`stone_age::stone_age_round`]) and one **reference round** per
//! adaptation: a plain `O(n + m)` function that runs the channel once and
//! updates each node from its own state, what it heard, and one coin. It
//! plays the role `step_reference` plays for the engine: from the same
//! states and RNG stream it reaches the same states with the same coins as
//! one engine round, which `tests/reference_rounds.rs` and experiment E13
//! check.
//!
//! # Example
//!
//! ```
//! use mis_comm::{beeping::two_state_round, is_stabilized};
//! use mis_core::init::InitStrategy;
//! use mis_graph::generators;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
//! let g = generators::gnp(100, 0.08, &mut rng);
//! let mut states = InitStrategy::Random.two_state(g.n(), &mut rng);
//! while !is_stabilized(&g, |u| states[u].is_black()) {
//!     two_state_round(&g, &mut states, None, &mut rng);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mis_graph::{Graph, VertexId, VertexSet};

pub mod beeping;
pub mod stone_age;

/// Whether the configuration whose black nodes are those with `black(u)`
/// is stable, read off one beeping round in which the black nodes beep (for
/// stone age, hearing a beep is hearing a black letter): every black node
/// hears no beep and every other node hears one.
///
/// That is exactly `V_t = ∅`: a black node with a black neighbor is in
/// `V_t`, and so is a non-black node hearing no black; otherwise every
/// black node is in `I_t` and every other node is adjacent to one.
/// `O(n + m)`.
pub fn is_stabilized(g: &Graph, black: impl Fn(VertexId) -> bool) -> bool {
    let mut heard = vec![false; g.n()];
    beeping::beep_round(g, &black, &mut heard);
    g.vertices().all(|u| black(u) != heard[u])
}

/// The nodes a reference round updates, in ascending order: `scheduled`,
/// or every node of `g`.
///
/// # Panics
///
/// Panics if `scheduled` is over a universe other than `g`'s vertices.
fn walk<'a>(
    g: &Graph,
    scheduled: Option<&'a VertexSet>,
) -> Box<dyn Iterator<Item = VertexId> + 'a> {
    match scheduled {
        Some(set) => {
            assert_eq!(
                set.universe(),
                g.n(),
                "scheduled set universe must match the graph"
            );
            Box::new(set.iter())
        }
        None => Box::new(0..g.n()),
    }
}
