//! The synchronous stone age communication model (Emek & Wattenhofer 2013)
//! and the reference rounds of the 3-state and 3-color MIS processes over
//! it.
//!
//! In the stone age model every node transmits, per round, at most one
//! letter from a constant-size alphabet, and for each letter it can only
//! distinguish "no neighbor sent this letter" from "at least one neighbor
//! sent this letter" (the one-two-many principle with counting bound 1).
//! There is no collision detection and no sender identity.

use mis_core::{ThreeColor, ThreeState, DEFAULT_ZETA};
use mis_graph::{Graph, VertexId, VertexSet};
use rand::{Rng, RngCore};

use crate::walk;

/// Simulates one synchronous round of the stone age channel.
///
/// `transmit(u)` is the letter node `u` broadcasts this round (or `None` for
/// silence). The round writes into `heard[v]` the letters node `v` hears, as
/// a mask: bit `l` is set iff **at least one neighbor** of `v` transmitted
/// letter `l`. The pass costs `O(n + m)` and allocates nothing.
///
/// # Panics
///
/// Panics if `heard.len() != g.n()`, if `alphabet > 32` (the width of a
/// mask), or if some node hears a letter `>= alphabet`.
///
/// # Example
///
/// ```
/// use mis_comm::stone_age::stone_age_round;
/// use mis_graph::Graph;
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
/// let letters = [Some(0), None, Some(1)];
/// let mut heard = [0u32; 3];
/// stone_age_round(&g, |u| letters[u], 2, &mut heard);
/// assert_eq!(heard[1], 0b11); // middle node hears both letters
/// assert_eq!(heard[0], 0);    // endpoint hears only silence
/// ```
pub fn stone_age_round(
    g: &Graph,
    transmit: impl Fn(VertexId) -> Option<u8>,
    alphabet: usize,
    heard: &mut [u32],
) {
    assert_eq!(
        heard.len(),
        g.n(),
        "heard buffer length must equal the number of vertices"
    );
    assert!(
        alphabet <= 32,
        "alphabet of size {alphabet} does not fit a 32-bit letter mask"
    );
    for (v, mask) in heard.iter_mut().enumerate() {
        *mask = g
            .neighbors(v)
            .iter()
            .filter_map(&transmit)
            .fold(0, |mask, letter| {
                assert!(
                    (letter as usize) < alphabet,
                    "letter {letter} outside alphabet of size {alphabet}"
                );
                mask | 1 << letter
            });
    }
}

/// Alphabet of the 3-state adaptation: letter 0 = "I am black1", letter 1
/// = "I am black0".
pub const THREE_STATE_ALPHABET: usize = 2;

/// The letter a 3-state node in `state` sends: `black1` sends letter 0,
/// `black0` letter 1, and a white node is silent.
pub fn three_state_letter(state: ThreeState) -> Option<u8> {
    match state {
        ThreeState::Black1 => Some(0),
        ThreeState::Black0 => Some(1),
        ThreeState::White => None,
    }
}

/// One round of the 3-state process as a **stone-age algorithm** over
/// [`three_state_letter`], the reference for the `stone-age-three-state`
/// key. Each walked node — `scheduled`, or every node — reads only its
/// state and its two letter bits (some neighbor is `black1`; some neighbor
/// is black): `black1`, `black0` hearing no letter 0, and white hearing no
/// letter re-draw from `{black1, black0}` with a fair coin; any other
/// `black0` retires to white. Coins are drawn in ascending node order, as
/// in a sequential engine round. Returns the random bits drawn.
///
/// # Panics
///
/// Panics if `states.len() != g.n()` or `scheduled` is over another
/// universe.
pub fn three_state_round(
    g: &Graph,
    states: &mut [ThreeState],
    scheduled: Option<&VertexSet>,
    rng: &mut dyn RngCore,
) -> u64 {
    use ThreeState::{Black0, Black1, White};
    assert_eq!(states.len(), g.n(), "one state per node");
    let mut heard = vec![0; g.n()];
    let letter = |u| three_state_letter(states[u]);
    stone_age_round(g, letter, THREE_STATE_ALPHABET, &mut heard);
    let mut bits = 0;
    for u in walk(g, scheduled) {
        let active = match states[u] {
            Black1 => true,
            Black0 => heard[u] & 1 == 0,
            White => heard[u] == 0,
        };
        if active {
            bits += 1;
            states[u] = if rng.gen_bool(0.5) { Black1 } else { Black0 };
        } else if states[u] == Black0 {
            states[u] = White;
        }
    }
    bits
}

/// Alphabet of the 3-color adaptation: a node sends its whole memory
/// `(color, level)` as the letter `color_index * 6 + level`, with color
/// indices black = 0, white = 1, gray = 2 and switch levels `0..=5`.
pub const THREE_COLOR_ALPHABET: usize = 18;

/// The letters a black node can send (levels 0..=5 of color index 0); the
/// white and gray letters are these shifted by 6 and 12.
const BLACK_LETTERS: u32 = 0x3F;

/// The letter a 3-color node with `color` and switch `level` sends.
pub fn three_color_letter(color: ThreeColor, level: u8) -> u8 {
    let color_index = match color {
        ThreeColor::Black => 0u8,
        ThreeColor::White => 1,
        ThreeColor::Gray => 2,
    };
    color_index * 6 + level
}

/// One round of the 3-color process and its randomized logarithmic switch
/// (ζ = [`DEFAULT_ZETA`]) as a **stone-age algorithm** over
/// [`three_color_letter`], the reference for the `stone-age-three-color`
/// key. Each node reads from its letter mask whether some neighbor is
/// black, and the highest level some neighbor holds:
///
/// * colors, against the levels from before the round: black hearing black
///   draws black or gray, white hearing no black draws black or white, and
///   gray whose switch is on (level ≤ 2) turns white;
/// * levels: level 5 stays unless its ζ-coin fires, 0 goes to 5, and any
///   other level goes to one below the highest level around and at the
///   node.
///
/// The color coins are drawn in ascending node order, then the switch
/// coins, as in a sequential engine round. The switch is a phase clock
/// that steps every node every round, so there is no scheduled round.
/// Returns the random bits drawn.
///
/// # Panics
///
/// Panics if `colors` or `levels` is not one entry per node, or a level
/// exceeds 5.
pub fn three_color_round(
    g: &Graph,
    colors: &mut [ThreeColor],
    levels: &mut [u8],
    rng: &mut dyn RngCore,
) -> u64 {
    use ThreeColor::{Black, Gray, White};
    assert_eq!(colors.len(), g.n(), "one color per node");
    assert_eq!(levels.len(), g.n(), "one switch level per node");
    assert!(levels.iter().all(|&l| l <= 5), "levels must be in 0..=5");
    let mut heard = vec![0; g.n()];
    let letter = |u| Some(three_color_letter(colors[u], levels[u]));
    stone_age_round(g, letter, THREE_COLOR_ALPHABET, &mut heard);
    // A ζ-coin costs ⌈log₂(1/ζ)⌉ random bits.
    let switch_coin_bits = (1.0 / DEFAULT_ZETA).log2().ceil() as u64;
    let mut bits = 0;
    let mut coin = |cost, p| {
        bits += cost;
        rng.gen_bool(p)
    };
    for u in g.vertices() {
        let hears_black = heard[u] & BLACK_LETTERS != 0;
        colors[u] = match colors[u] {
            Black if hears_black => {
                if coin(1, 0.5) {
                    Black
                } else {
                    Gray
                }
            }
            White if !hears_black => {
                if coin(1, 0.5) {
                    Black
                } else {
                    White
                }
            }
            Gray if levels[u] <= 2 => White,
            other => other,
        };
    }
    for u in g.vertices() {
        let level = levels[u];
        let stays = level == 5 && !coin(switch_coin_bits, DEFAULT_ZETA);
        levels[u] = if stays || level == 0 {
            5
        } else {
            // The levels some neighbor holds, whatever its color.
            let mask = heard[u];
            let heard_levels = (mask | mask >> 6 | mask >> 12) & BLACK_LETTERS;
            (heard_levels | 1 << level).ilog2() as u8 - 1
        };
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

    fn is_mis(g: &Graph, black: impl Fn(VertexId) -> bool) -> bool {
        mis_check::is_mis(
            g,
            &VertexSet::from_indices(g.n(), g.vertices().filter(|&u| black(u))),
        )
    }

    /// Runs 3-state reference rounds from random states until the channel
    /// check reports stability; returns whether the black set is an MIS.
    fn three_state_reaches_mis(g: &Graph, r: &mut ChaCha8Rng) -> bool {
        let mut states = InitStrategy::Random.three_state(g.n(), r);
        let mut rounds = 0;
        while !is_stabilized(g, |u| states[u].is_black()) {
            three_state_round(g, &mut states, None, r);
            rounds += 1;
            assert!(rounds < 200_000, "3-state did not stabilize");
        }
        is_mis(g, |u| states[u].is_black())
    }

    /// As [`three_state_reaches_mis`], for the 3-color process.
    fn three_color_reaches_mis(g: &Graph, r: &mut ChaCha8Rng) -> bool {
        let mut colors = InitStrategy::Random.three_color(g.n(), r);
        let mut levels = InitStrategy::Random.switch_levels(g.n(), r);
        let mut rounds = 0;
        while !is_stabilized(g, |u| colors[u].is_black()) {
            three_color_round(g, &mut colors, &mut levels, r);
            rounds += 1;
            assert!(rounds < 400_000, "3-color did not stabilize");
        }
        is_mis(g, |u| colors[u].is_black())
    }

    #[test]
    fn stone_age_round_reports_per_letter_bits() {
        let g = generators::star(4);
        // Leaves send letters 0, 1, 1; hub is silent. The buffer starts
        // dirty: the round overwrites every mask.
        let letters = [None, Some(0), Some(1), Some(1)];
        let mut heard = [u32::MAX; 4];
        stone_age_round(&g, |u| letters[u], 3, &mut heard);
        assert_eq!(heard, [0b011, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "outside alphabet")]
    fn stone_age_round_rejects_bad_letter() {
        let g = generators::path(2);
        let letters = [Some(5), None];
        stone_age_round(&g, |u| letters[u], 2, &mut [0; 2]);
    }

    #[test]
    #[should_panic(expected = "does not fit a 32-bit letter mask")]
    fn stone_age_round_rejects_alphabet_wider_than_a_mask() {
        let g = generators::path(2);
        stone_age_round(&g, |_| None, 33, &mut [0; 2]);
    }

    #[test]
    fn letters_encode_the_state() {
        assert_eq!(three_state_letter(ThreeState::Black1), Some(0));
        assert_eq!(three_state_letter(ThreeState::Black0), Some(1));
        assert_eq!(three_state_letter(ThreeState::White), None);
        let mut letters: Vec<u8> = [ThreeColor::Black, ThreeColor::White, ThreeColor::Gray]
            .into_iter()
            .flat_map(|c| (0..=5).map(move |level| three_color_letter(c, level)))
            .collect();
        letters.sort_unstable();
        assert_eq!(letters, (0..THREE_COLOR_ALPHABET as u8).collect::<Vec<_>>());
    }

    #[test]
    fn three_state_black0_under_a_black1_retires_and_a_scheduled_round_walks_only_its_set() {
        use ThreeState::{Black0, Black1, White};
        // Path 0 - 1 - 2: node 1 hears letter 0 and retires; node 0 draws;
        // white node 2 hears letter 1 and keeps its state.
        let g = generators::path(3);
        let mut states = [Black1, Black0, White];
        assert_eq!(three_state_round(&g, &mut states, None, &mut rng(1)), 1);
        assert_eq!(states[1..], [White, White]);
        let mut states = [Black1, Black0, White];
        let only_1 = VertexSet::from_indices(3, [1]);
        assert_eq!(
            three_state_round(&g, &mut states, Some(&only_1), &mut rng(1)),
            0
        );
        assert_eq!(states, [Black1, White, White]);
    }

    #[test]
    fn a_full_schedule_is_a_synchronous_three_state_round() {
        let mut setup = rng(13);
        let g = generators::gnp(30, 0.2, &mut setup);
        let everyone = VertexSet::from_indices(g.n(), 0..g.n());
        let mut sync = InitStrategy::Random.three_state(g.n(), &mut setup);
        let mut scheduled = sync.clone();
        let (mut ra, mut rb) = (rng(17), rng(17));
        for round in 0..80 {
            let bits = three_state_round(&g, &mut sync, None, &mut ra);
            let scheduled_bits = three_state_round(&g, &mut scheduled, Some(&everyone), &mut rb);
            assert_eq!(
                (sync.clone(), bits),
                (scheduled.clone(), scheduled_bits),
                "round {round}"
            );
        }
    }

    #[test]
    fn reference_rounds_reach_an_mis() {
        let mut r = rng(8);
        for g in [generators::complete(16), generators::gnp(60, 0.1, &mut r)] {
            assert!(three_state_reaches_mis(&g, &mut r));
        }
        for g in [generators::complete(16), generators::gnp(60, 0.4, &mut r)] {
            assert!(three_color_reaches_mis(&g, &mut r));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The stone-age reference rounds reach a valid MIS on random graphs.
        #[test]
        fn stone_age_reaches_mis(seed in 0u64..5000, n in 1usize..35, p_edge in 0.0f64..0.8) {
            let mut r = rng(seed);
            let g = generators::gnp(n, p_edge, &mut r);
            prop_assert!(three_state_reaches_mis(&g, &mut r));
            prop_assert!(three_color_reaches_mis(&g, &mut r));
        }
    }
}
