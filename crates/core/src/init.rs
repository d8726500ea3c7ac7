//! Initial-state strategies.
//!
//! The processes of the paper are *self-stabilizing*: they must reach a
//! correct MIS from **any** initial assignment of vertex states. The
//! strategies here cover the initializations used by the experiments:
//! the two deterministic extremes (`AllWhite`, `AllBlack`), a uniformly
//! random assignment, and a deterministic alternating pattern that acts as a
//! cheap adversarial configuration (it maximizes initial inconsistency on
//! paths, cycles, grids, and bipartite-like graphs).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::three_color::ThreeColor;
use crate::three_state::ThreeState;
use crate::two_state::Color;

/// Strategy for choosing the initial state vector of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum InitStrategy {
    /// Every vertex starts white (no vertex claims MIS membership).
    AllWhite,
    /// Every vertex starts black (every vertex claims MIS membership).
    AllBlack,
    /// Every vertex starts with an independent uniformly random state (the
    /// default: the self-stabilizing case).
    #[default]
    Random,
    /// Vertices alternate states by id parity (even ids black, odd ids white).
    Alternating,
}

impl InitStrategy {
    /// Initial colors for the 2-state process.
    pub fn two_state<R: Rng + ?Sized>(self, n: usize, rng: &mut R) -> Vec<Color> {
        (0..n)
            .map(|u| match self {
                InitStrategy::AllWhite => Color::White,
                InitStrategy::AllBlack => Color::Black,
                InitStrategy::Random => {
                    if rng.gen_bool(0.5) {
                        Color::Black
                    } else {
                        Color::White
                    }
                }
                InitStrategy::Alternating => {
                    if u % 2 == 0 {
                        Color::Black
                    } else {
                        Color::White
                    }
                }
            })
            .collect()
    }

    /// Initial states for the 3-state process.
    pub fn three_state<R: Rng + ?Sized>(self, n: usize, rng: &mut R) -> Vec<ThreeState> {
        (0..n)
            .map(|u| match self {
                InitStrategy::AllWhite => ThreeState::White,
                InitStrategy::AllBlack => ThreeState::Black1,
                InitStrategy::Random => match rng.gen_range(0..3) {
                    0 => ThreeState::Black1,
                    1 => ThreeState::Black0,
                    _ => ThreeState::White,
                },
                InitStrategy::Alternating => {
                    if u % 2 == 0 {
                        ThreeState::Black1
                    } else {
                        ThreeState::White
                    }
                }
            })
            .collect()
    }

    /// Initial colors for the 3-color process.
    pub fn three_color<R: Rng + ?Sized>(self, n: usize, rng: &mut R) -> Vec<ThreeColor> {
        (0..n)
            .map(|u| match self {
                InitStrategy::AllWhite => ThreeColor::White,
                InitStrategy::AllBlack => ThreeColor::Black,
                InitStrategy::Random => match rng.gen_range(0..3) {
                    0 => ThreeColor::Black,
                    1 => ThreeColor::Gray,
                    _ => ThreeColor::White,
                },
                InitStrategy::Alternating => {
                    if u % 2 == 0 {
                        ThreeColor::Black
                    } else {
                        ThreeColor::White
                    }
                }
            })
            .collect()
    }

    /// Initial levels (`0..=5`) for the randomized logarithmic switch.
    ///
    /// The switch is itself self-stabilizing, so `AllWhite`/`AllBlack` map to
    /// the extreme levels 0 and 5, and `Random`/`Alternating` exercise mixed
    /// level vectors.
    pub fn switch_levels<R: Rng + ?Sized>(self, n: usize, rng: &mut R) -> Vec<u8> {
        (0..n)
            .map(|u| match self {
                InitStrategy::AllWhite => 0,
                InitStrategy::AllBlack => 5,
                InitStrategy::Random => rng.gen_range(0..=5),
                InitStrategy::Alternating => {
                    if u % 2 == 0 {
                        5
                    } else {
                        0
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0)
    }

    #[test]
    fn deterministic_strategies() {
        let mut r = rng();
        assert!(InitStrategy::AllWhite
            .two_state(5, &mut r)
            .iter()
            .all(|c| *c == Color::White));
        assert!(InitStrategy::AllBlack
            .two_state(5, &mut r)
            .iter()
            .all(|c| *c == Color::Black));
        let alt = InitStrategy::Alternating.two_state(4, &mut r);
        assert_eq!(
            alt,
            vec![Color::Black, Color::White, Color::Black, Color::White]
        );
        assert!(InitStrategy::AllWhite
            .three_state(3, &mut r)
            .iter()
            .all(|c| *c == ThreeState::White));
        assert!(InitStrategy::AllBlack
            .three_color(3, &mut r)
            .iter()
            .all(|c| *c == ThreeColor::Black));
        assert_eq!(
            InitStrategy::AllWhite.switch_levels(3, &mut r),
            vec![0, 0, 0]
        );
        assert_eq!(
            InitStrategy::AllBlack.switch_levels(3, &mut r),
            vec![5, 5, 5]
        );
    }

    #[test]
    fn random_strategy_produces_both_colors() {
        let mut r = rng();
        let states = InitStrategy::Random.two_state(200, &mut r);
        assert!(states.iter().any(|c| c.is_black()));
        assert!(states.iter().any(|c| !c.is_black()));
        let levels = InitStrategy::Random.switch_levels(500, &mut r);
        assert!(levels.iter().all(|&l| l <= 5));
        assert!(levels.contains(&0) && levels.contains(&5));
    }

    #[test]
    fn lengths_match() {
        let mut r = rng();
        for n in [0usize, 1, 17] {
            assert_eq!(InitStrategy::Random.two_state(n, &mut r).len(), n);
            assert_eq!(InitStrategy::Random.three_state(n, &mut r).len(), n);
            assert_eq!(InitStrategy::Random.three_color(n, &mut r).len(), n);
            assert_eq!(InitStrategy::Random.switch_levels(n, &mut r).len(), n);
        }
    }
}
