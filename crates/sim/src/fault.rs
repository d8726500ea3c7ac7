//! Transient-fault injection for the self-stabilization experiments (E11).
//!
//! A self-stabilizing algorithm must recover from *any* corruption of its
//! volatile state. The experiment here is the standard one: run the process
//! to stabilization, corrupt a fraction of the vertex states uniformly at
//! random, and measure how long the process takes to re-stabilize (and verify
//! it again ends in a valid MIS).

use mis_core::init::InitStrategy;
use mis_core::{
    Process, RandomizedLogSwitch, ThreeColor, ThreeColorProcess, ThreeState, ThreeStateProcess,
    TwoStateProcess,
};
use mis_graph::Graph;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A process whose per-vertex state can be corrupted in place, modelling a
/// transient fault that flips memory contents without restarting the node.
pub trait Corruptible: Process {
    /// Overwrites the states of `ceil(fraction · n)` uniformly chosen vertices
    /// with uniformly random states.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    fn corrupt_fraction<R: Rng>(&mut self, fraction: f64, rng: &mut R);
}

/// Picks `ceil(fraction · n)` distinct victim vertices — the shared sampler
/// behind every corruption path, so the legacy `Corruptible` experiments and
/// [`mis_core::Algorithm::inject_faults`] disturb identically many vertices
/// for the same fraction.
fn victims<R: Rng>(n: usize, fraction: f64, rng: &mut R) -> Vec<usize> {
    mis_core::fault_victims(n, fraction, rng)
}

impl Corruptible for TwoStateProcess<'_> {
    fn corrupt_fraction<R: Rng>(&mut self, fraction: f64, rng: &mut R) {
        for u in victims(self.n(), fraction, rng) {
            let color = if rng.gen_bool(0.5) {
                mis_core::Color::Black
            } else {
                mis_core::Color::White
            };
            self.set_color(u, color);
        }
    }
}

impl Corruptible for ThreeStateProcess<'_> {
    fn corrupt_fraction<R: Rng>(&mut self, fraction: f64, rng: &mut R) {
        for u in victims(self.n(), fraction, rng) {
            let state = match rng.gen_range(0..3) {
                0 => ThreeState::Black1,
                1 => ThreeState::Black0,
                _ => ThreeState::White,
            };
            self.set_state(u, state);
        }
    }
}

impl Corruptible for ThreeColorProcess<'_, RandomizedLogSwitch<'_>> {
    fn corrupt_fraction<R: Rng>(&mut self, fraction: f64, rng: &mut R) {
        for u in victims(self.n(), fraction, rng) {
            let color = match rng.gen_range(0..3) {
                0 => ThreeColor::Black,
                1 => ThreeColor::Gray,
                _ => ThreeColor::White,
            };
            self.set_color(u, color);
        }
        // The switch levels are volatile memory too: corrupt the same
        // fraction of them (independently chosen victims).
        for u in victims(self.n(), fraction, rng) {
            let level = rng.gen_range(0..=5u8);
            self.set_switch_level(u, level);
        }
    }
}

/// Outcome of one fault-recovery trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryOutcome {
    /// Rounds the process needed to stabilize from the initial configuration.
    pub initial_rounds: usize,
    /// Rounds needed to re-stabilize after the corruption.
    pub recovery_rounds: usize,
    /// Whether the black set after recovery is a valid MIS.
    pub recovered_to_mis: bool,
    /// Number of vertices whose state the fault actually changed (the
    /// corruption draws a uniformly random state, which may coincide with the
    /// old one).
    pub corrupted_vertices: usize,
}

/// Runs the standard fault-recovery experiment for the 2-state process.
///
/// 1. Run to stabilization from `init` (recording `initial_rounds`).
/// 2. Corrupt `fraction` of the vertex states.
/// 3. Run to stabilization again (recording `recovery_rounds`) and validate
///    the result.
///
/// # Panics
///
/// Panics if `fraction` is outside `[0, 1]` or the process fails to stabilize
/// within `max_rounds` in either phase (the processes stabilize with
/// probability 1, so a generous budget makes this practically impossible).
pub fn two_state_recovery(
    graph: &Graph,
    init: InitStrategy,
    fraction: f64,
    seed: u64,
    max_rounds: usize,
) -> RecoveryOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut proc = TwoStateProcess::with_init(graph, init, &mut rng);
    let initial_rounds = proc
        .run_to_stabilization(&mut rng, max_rounds)
        .expect("initial stabilization failed");

    let before = proc.states();
    proc.corrupt_fraction(fraction, &mut rng);
    let after = proc.states();
    let corrupted_vertices = before
        .iter()
        .zip(after.iter())
        .filter(|(a, b)| a != b)
        .count();

    let start = proc.round();
    let end = proc
        .run_to_stabilization(&mut rng, max_rounds)
        .expect("recovery failed");
    RecoveryOutcome {
        initial_rounds,
        recovery_rounds: end - start,
        recovered_to_mis: mis_graph::mis_check::is_mis(graph, &proc.black_set()),
        corrupted_vertices,
    }
}

/// Same experiment for the 3-color process (colors corrupted; the randomized
/// switch keeps running and re-synchronizes by itself).
///
/// # Panics
///
/// Panics under the same conditions as [`two_state_recovery`].
pub fn three_color_recovery(
    graph: &Graph,
    init: InitStrategy,
    fraction: f64,
    seed: u64,
    max_rounds: usize,
) -> RecoveryOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut proc = ThreeColorProcess::with_randomized_switch(graph, init, &mut rng);
    let initial_rounds = proc
        .run_to_stabilization(&mut rng, max_rounds)
        .expect("initial stabilization failed");

    let before = proc.colors();
    proc.corrupt_fraction(fraction, &mut rng);
    let after = proc.colors();
    let corrupted_vertices = before
        .iter()
        .zip(after.iter())
        .filter(|(a, b)| a != b)
        .count();

    let start = proc.round();
    let end = proc
        .run_to_stabilization(&mut rng, max_rounds)
        .expect("recovery failed");
    RecoveryOutcome {
        initial_rounds,
        recovery_rounds: end - start,
        recovered_to_mis: mis_graph::mis_check::is_mis(graph, &proc.black_set()),
        corrupted_vertices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::generators;

    #[test]
    fn two_state_recovers_from_partial_corruption() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::gnp(150, 0.05, &mut rng);
        let out = two_state_recovery(&g, InitStrategy::Random, 0.3, 7, 200_000);
        assert!(out.recovered_to_mis);
        assert!(out.corrupted_vertices <= (0.3f64 * 150.0).ceil() as usize);
        // Recovery from a 30% corruption should not be slower than, say, 100x
        // the typical full stabilization; this is a sanity bound, not a claim.
        assert!(out.recovery_rounds <= 200_000);
    }

    #[test]
    fn two_state_recovers_from_total_corruption() {
        let g = generators::complete(64);
        let out = two_state_recovery(&g, InitStrategy::AllWhite, 1.0, 11, 200_000);
        assert!(out.recovered_to_mis);
    }

    #[test]
    fn zero_fraction_recovery_is_instant() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::random_tree(100, &mut rng);
        let out = two_state_recovery(&g, InitStrategy::Random, 0.0, 13, 100_000);
        assert_eq!(out.recovery_rounds, 0);
        assert_eq!(out.corrupted_vertices, 0);
        assert!(out.recovered_to_mis);
    }

    #[test]
    fn three_color_recovers() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = generators::gnp(100, 0.3, &mut rng);
        let out = three_color_recovery(&g, InitStrategy::Random, 0.5, 17, 400_000);
        assert!(out.recovered_to_mis);
    }

    #[test]
    fn three_state_corruption_compiles_and_recovers() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::gnp(80, 0.1, &mut rng);
        let mut proc = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut rng);
        proc.run_to_stabilization(&mut rng, 100_000).unwrap();
        proc.corrupt_fraction(0.4, &mut rng);
        proc.run_to_stabilization(&mut rng, 100_000).unwrap();
        assert!(mis_graph::mis_check::is_mis(&g, &proc.black_set()));
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0, 1]")]
    fn invalid_fraction_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let g = generators::path(5);
        let mut proc = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut rng);
        proc.corrupt_fraction(1.5, &mut rng);
    }
}
