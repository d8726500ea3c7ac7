//! Pluggable activation schedulers.
//!
//! The paper defines its processes for a synchronous scheduler that
//! activates *every* vertex in every round, but the underlying local rules
//! make sense under any activation model: a central daemon that wakes one
//! vertex at a time (the classical self-stabilization setting of Shukla et
//! al. / Hedetniemi et al.), or a distributed daemon that wakes a random
//! subset each round. A [`Scheduler`] decides, per round, which vertices are
//! activated; the activated vertices apply their local rule against the
//! *current* configuration, all others keep their state.
//!
//! Schedulers are deterministic functions of the RNG stream handed to
//! [`next_activation`](Scheduler::next_activation), so experiments stay
//! reproducible: the same seed yields the same activation sequence.

use mis_graph::VertexSet;
use rand::{Rng, RngCore};

/// Which vertices a scheduler activates in one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Activation {
    /// Every vertex is activated (the paper's synchronous model).
    All,
    /// Only the vertices in the set are activated; all others keep their
    /// state this round.
    Subset(VertexSet),
}

/// A per-round activation policy.
///
/// Implementations may consume randomness from the shared trial RNG; the
/// synchronous scheduler consumes none, which keeps its trace bit-identical
/// to the pre-registry execution path.
pub trait Scheduler {
    /// Short label for tables and CSV output.
    fn label(&self) -> &'static str;

    /// Decides which of the `n` vertices are activated in round `round`.
    fn next_activation(&mut self, n: usize, round: usize, rng: &mut dyn RngCore) -> Activation;
}

/// The paper's synchronous scheduler: every vertex is activated every round.
/// Draws no randomness.
#[derive(Debug, Clone, Copy, Default)]
pub struct Synchronous;

impl Scheduler for Synchronous {
    fn label(&self) -> &'static str {
        "synchronous"
    }

    fn next_activation(&mut self, _n: usize, _round: usize, _rng: &mut dyn RngCore) -> Activation {
        Activation::All
    }
}

/// A randomized central daemon: exactly one uniformly random vertex is
/// activated per round (a.s. fair). One "round" of this scheduler is one
/// *move* in the central-scheduler cost model.
#[derive(Debug, Clone, Copy, Default)]
pub struct CentralDaemon;

impl Scheduler for CentralDaemon {
    fn label(&self) -> &'static str {
        "central-daemon"
    }

    fn next_activation(&mut self, n: usize, _round: usize, rng: &mut dyn RngCore) -> Activation {
        if n == 0 {
            return Activation::All;
        }
        let u = rng.gen_range(0..n);
        Activation::Subset(VertexSet::from_indices(n, [u]))
    }
}

/// A distributed randomized daemon: every vertex is activated independently
/// with probability `p` each round.
#[derive(Debug, Clone, Copy)]
pub struct RandomSubset {
    /// Per-vertex activation probability.
    pub p: f64,
}

impl RandomSubset {
    /// Creates the scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "activation probability must be in [0, 1], got {p}"
        );
        RandomSubset { p }
    }
}

impl Scheduler for RandomSubset {
    fn label(&self) -> &'static str {
        "random-subset"
    }

    fn next_activation(&mut self, n: usize, _round: usize, rng: &mut dyn RngCore) -> Activation {
        let mut set = VertexSet::new(n);
        for u in 0..n {
            if rng.gen_bool(self.p) {
                set.insert(u);
            }
        }
        Activation::Subset(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn synchronous_activates_all_without_randomness() {
        let mut rng_a = ChaCha8Rng::seed_from_u64(1);
        let mut rng_b = ChaCha8Rng::seed_from_u64(1);
        let mut s = Synchronous;
        assert_eq!(s.next_activation(10, 0, &mut rng_a), Activation::All);
        assert_eq!(s.next_activation(10, 1, &mut rng_a), Activation::All);
        // No randomness was consumed.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        assert_eq!(s.label(), "synchronous");
    }

    #[test]
    fn central_daemon_activates_one_vertex() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut s = CentralDaemon;
        for round in 0..50 {
            match s.next_activation(7, round, &mut rng) {
                Activation::Subset(set) => assert_eq!(set.len(), 1),
                Activation::All => panic!("daemon must activate a single vertex"),
            }
        }
        // Degenerate empty graph: nothing to pick.
        assert_eq!(s.next_activation(0, 0, &mut rng), Activation::All);
    }

    #[test]
    fn central_daemon_is_fair() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut s = CentralDaemon;
        let n = 5;
        let mut hits = vec![0usize; n];
        for round in 0..2000 {
            if let Activation::Subset(set) = s.next_activation(n, round, &mut rng) {
                hits[set.iter().next().unwrap()] += 1;
            }
        }
        assert!(hits.iter().all(|&h| h > 200), "unfair daemon: {hits:?}");
    }

    #[test]
    fn random_subset_respects_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut none = RandomSubset::new(0.0);
        let mut all = RandomSubset::new(1.0);
        match none.next_activation(20, 0, &mut rng) {
            Activation::Subset(s) => assert_eq!(s.len(), 0),
            Activation::All => panic!(),
        }
        match all.next_activation(20, 0, &mut rng) {
            Activation::Subset(s) => assert_eq!(s.len(), 20),
            Activation::All => panic!(),
        }
    }

    #[test]
    #[should_panic(expected = "activation probability")]
    fn random_subset_rejects_bad_probability() {
        RandomSubset::new(1.5);
    }
}
