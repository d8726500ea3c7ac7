//! **Byzantine adversaries**: vertices that never obey the protocol.
//!
//! Self-stabilization recovers from *transient* faults — arbitrary but
//! one-shot state corruption. The stronger adversary of
//! Cohen–Pirot–Pilard ("Self-stabilization and Byzantine tolerance for
//! maximal independent set") controls a fixed set `B` of vertices
//! *permanently*: in every round, after the honest vertices move, the
//! adversary rewrites the states of `B` however it likes. No algorithm can
//! stabilize `B` or its immediate surroundings, but their result is that
//! the MIS processes still stabilize **outside the 2-neighborhood of
//! `B`** — the containment-radius guarantee this module lets the harness
//! measure and the checker ([`mis_graph::mis_check::is_mis_outside`])
//! validate.
//!
//! The design mirrors the transient-fault seam:
//!
//! * an [`Adversary`] — a [`ByzantineStrategy`] bound to its seed by
//!   [`ByzantineStrategy::build`] — decides, per `(vertex, round)`, which
//!   state an adversarial vertex displays. It is a **pure function** of its
//!   coordinates (the randomized strategies draw through [`CounterRng`] on
//!   the dedicated [`DRAW_BYZANTINE`] axis), so a Byzantine run stays
//!   bit-identical across thread counts and never consumes the trial's
//!   sequential RNG stream.
//! * [`ByzantineOverlay`] applies an adversary to any registry
//!   [`Algorithm`] through the
//!   [`set_byzantine_state`](Algorithm::set_byzantine_state) hook — the
//!   same packed-state override + engine delta-repair discipline that
//!   `inject_faults` and `apply_mutation` use — so every algorithm,
//!   including the comm-model adaptations, runs under attack without
//!   per-algorithm forks.
//!
//! The four strategies cover the qualitatively different attack shapes: a
//! dead node (`Frozen`), white noise (`Flipper`), a resonant destabilizer
//! (`Oscillator`), and a counter-stressing liar (`Spoofer`).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

use mis_graph::{Graph, VertexId};
use serde::{Deserialize, Serialize};

use crate::algorithm::Algorithm;
use crate::counter_rng::{CounterRng, DRAW_BYZANTINE};

/// The built-in adversary strategies, as a spec-friendly enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ByzantineStrategy {
    /// Stuck forever in one per-vertex pseudo-random state: the
    /// crashed-node end of the Byzantine spectrum.
    Frozen,
    /// A fresh fair coin per `(vertex, round)`: white noise.
    Flipper,
    /// Black on even rounds and white on odd ones, at every victim in step:
    /// neighbors that committed to white because the vertex was black see
    /// it turn white one round later, and vice versa.
    Oscillator,
    /// Displays black while holding white: the overlay writes white, then
    /// black, every round, so the engine's black-neighbor counters absorb a
    /// full down-then-up delta-repair per round per spoofing vertex.
    Spoofer,
}

impl ByzantineStrategy {
    /// Every built-in strategy, for campaign sweeps.
    pub fn all() -> [ByzantineStrategy; 4] {
        [
            ByzantineStrategy::Frozen,
            ByzantineStrategy::Flipper,
            ByzantineStrategy::Oscillator,
            ByzantineStrategy::Spoofer,
        ]
    }

    /// Short label for tables and JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            ByzantineStrategy::Frozen => "frozen",
            ByzantineStrategy::Flipper => "flipper",
            ByzantineStrategy::Oscillator => "oscillator",
            ByzantineStrategy::Spoofer => "spoofer",
        }
    }

    /// Builds the adversary, keying any randomized strategy by `seed`.
    pub fn build(self, seed: u64) -> Adversary {
        Adversary {
            strategy: self,
            rng: CounterRng::new(seed),
        }
    }
}

impl fmt::Display for ByzantineStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A [`ByzantineStrategy`] bound to its seed: decides the state each
/// adversarial vertex displays in each round.
///
/// Both methods are pure functions of `(vertex, round)` and the seed: the
/// overlay may re-evaluate any coordinate at any time, and determinism
/// across thread counts depends on it. Randomness goes through
/// [`CounterRng`] on the [`DRAW_BYZANTINE`] axis, never through the trial's
/// sequential stream.
#[derive(Debug, Clone, Copy)]
pub struct Adversary {
    strategy: ByzantineStrategy,
    rng: CounterRng,
}

impl Adversary {
    /// Whether `vertex` displays **black** to its neighbors in `round`.
    pub fn displays_black(&self, vertex: VertexId, round: usize) -> bool {
        match self.strategy {
            ByzantineStrategy::Frozen => self.rng.coin(vertex as u64, 0, DRAW_BYZANTINE),
            ByzantineStrategy::Flipper => {
                self.rng.coin(vertex as u64, round as u64, DRAW_BYZANTINE)
            }
            ByzantineStrategy::Oscillator => round % 2 == 0,
            ByzantineStrategy::Spoofer => true,
        }
    }

    /// The state the vertex really holds: white for a spoofer, the
    /// displayed one otherwise. When the two differ the overlay writes the
    /// internal state first and the displayed state second, forcing a state
    /// transition — and the corresponding counter delta-repair — every
    /// single round.
    pub fn internal_black(&self, vertex: VertexId, round: usize) -> bool {
        self.strategy != ByzantineStrategy::Spoofer && self.displays_black(vertex, round)
    }
}

/// Binds an [`Adversary`] to a fixed set of vertices and applies it to a
/// running [`Algorithm`].
///
/// The harness calls [`apply`](ByzantineOverlay::apply) once before the
/// first round and again after every step, re-overriding the adversarial
/// vertices' states through
/// [`Algorithm::set_byzantine_state`] — which delta-repairs the frontier
/// engine's black-neighbor counters exactly like `apply_mutation`'s
/// state-carryover path, so the honest vertices' incremental bookkeeping
/// stays exact under attack.
pub struct ByzantineOverlay {
    adversary: Adversary,
    /// Interior mutability so the set can be
    /// [re-sampled](ByzantineOverlay::resample_departed) under churn while
    /// the containment tracker holds a shared borrow of the overlay.
    vertices: RwLock<Vec<VertexId>>,
    /// Whether the adversary replaces victims that churn isolates.
    resample: bool,
    /// Draws replacement victims on the [`DRAW_BYZANTINE`] axis, keyed by
    /// the construction seed — never by the trial's sequential stream.
    rng: CounterRng,
    /// Monotone draw counter, so successive re-samples are independent.
    resample_nonce: AtomicU64,
}

impl ByzantineOverlay {
    /// An overlay running `strategy` (keyed by `seed`) on `vertices`.
    ///
    /// Vertices are sorted and deduplicated so the override order — and
    /// hence the sequential-mode RNG-free trajectory — is canonical.
    pub fn new(strategy: ByzantineStrategy, mut vertices: Vec<VertexId>, seed: u64) -> Self {
        vertices.sort_unstable();
        vertices.dedup();
        ByzantineOverlay {
            adversary: strategy.build(seed),
            vertices: RwLock::new(vertices),
            resample: false,
            rng: CounterRng::new(seed ^ 0xB12A_97A1_5EED_0001),
            resample_nonce: AtomicU64::new(0),
        }
    }

    /// Enables [victim re-sampling](ByzantineOverlay::resample_departed):
    /// when churn isolates an adversarial vertex, the adversary moves to a
    /// fresh victim instead of wasting its budget on a ghost.
    pub fn with_resample(mut self, resample: bool) -> Self {
        self.resample = resample;
        self
    }

    /// Whether this overlay re-samples departed victims.
    pub fn resamples(&self) -> bool {
        self.resample
    }

    /// The adversarial vertex set, sorted and deduplicated.
    pub fn vertices(&self) -> Vec<VertexId> {
        self.read_vertices().clone()
    }

    /// The strategy this overlay runs.
    pub fn strategy(&self) -> ByzantineStrategy {
        self.adversary.strategy
    }

    /// `true` if no vertex is adversarial (the overlay is then a no-op).
    pub fn is_empty(&self) -> bool {
        self.read_vertices().is_empty()
    }

    fn read_vertices(&self) -> std::sync::RwLockReadGuard<'_, Vec<VertexId>> {
        self.vertices.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Re-overrides every adversarial vertex's state for the algorithm's
    /// current round; returns how many override writes actually changed a
    /// state.
    ///
    /// Vertices that no longer exist (the population shrank under churn)
    /// are skipped: a departed Byzantine vertex simply stops attacking.
    pub fn apply(&self, alg: &mut dyn Algorithm) -> usize {
        let round = alg.round();
        let n = alg.n();
        let mut changed = 0;
        for &u in self.read_vertices().iter() {
            if u >= n {
                continue;
            }
            let displayed = self.adversary.displays_black(u, round);
            let internal = self.adversary.internal_black(u, round);
            if internal != displayed && alg.set_byzantine_state(u, internal) {
                changed += 1;
            }
            if alg.set_byzantine_state(u, displayed) {
                changed += 1;
            }
        }
        changed
    }

    /// Replaces every victim that `graph` shows as departed — out of range
    /// or fully detached (churn models leaving as detachment, so degree 0
    /// is departure) — with a fresh draw from the attached, non-adversarial
    /// population. Returns the number of victims moved. No-op unless
    /// [`with_resample`](ByzantineOverlay::with_resample) enabled it.
    ///
    /// Draws go through the counter RNG on the [`DRAW_BYZANTINE`] axis with
    /// a monotone nonce: the trajectory is a pure function of the
    /// construction seed and the sequence of calls, so trials stay
    /// reproducible and the honest RNG streams never shift.
    pub fn resample_departed(&self, graph: &Graph) -> usize {
        if !self.resample {
            return 0;
        }
        let n = graph.n();
        let mut vertices = self
            .vertices
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let departed: Vec<VertexId> = vertices
            .iter()
            .copied()
            .filter(|&u| u >= n || graph.degree(u) == 0)
            .collect();
        if departed.is_empty() {
            return 0;
        }
        vertices.retain(|u| !departed.contains(u));
        let mut moved = 0;
        for _ in &departed {
            let candidates: Vec<VertexId> = (0..n)
                .filter(|&u| graph.degree(u) > 0 && !vertices.contains(&u))
                .collect();
            let Some(&pick) = candidates.get({
                let nonce = self.resample_nonce.fetch_add(1, Ordering::SeqCst);
                (self.rng.word(nonce, 0, DRAW_BYZANTINE) % candidates.len().max(1) as u64) as usize
            }) else {
                break; // population exhausted: the adversary shrinks
            };
            vertices.push(pick);
            moved += 1;
        }
        vertices.sort_unstable();
        vertices.dedup();
        moved
    }
}

impl fmt::Debug for ByzantineOverlay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ByzantineOverlay")
            .field("strategy", &self.adversary.strategy)
            .field("vertices", &*self.read_vertices())
            .field("resample", &self.resample)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_are_pure_functions_of_coordinates() {
        for strategy in ByzantineStrategy::all() {
            let a = strategy.build(9);
            let b = strategy.build(9);
            for u in 0..64 {
                for t in 0..8 {
                    assert_eq!(
                        a.displays_black(u, t),
                        b.displays_black(u, t),
                        "{strategy} not reproducible at ({u}, {t})"
                    );
                    assert_eq!(
                        a.internal_black(u, t),
                        b.internal_black(u, t),
                        "{strategy} internal not reproducible at ({u}, {t})"
                    );
                }
            }
        }
    }

    #[test]
    fn frozen_never_moves_flipper_does() {
        let frozen = ByzantineStrategy::Frozen.build(3);
        let flipper = ByzantineStrategy::Flipper.build(3);
        let mut flips = 0;
        for u in 0..32 {
            let f0 = frozen.displays_black(u, 0);
            for t in 1..50 {
                assert_eq!(frozen.displays_black(u, t), f0, "frozen moved");
                if flipper.displays_black(u, t) != flipper.displays_black(u, t - 1) {
                    flips += 1;
                }
            }
        }
        assert!(flips > 200, "flipper barely flips ({flips} transitions)");
    }

    #[test]
    fn oscillator_alternates_and_spoofer_lies() {
        let osc = ByzantineStrategy::Oscillator.build(0);
        assert!(osc.displays_black(5, 0));
        assert!(!osc.displays_black(5, 1));
        assert!(osc.displays_black(5, 2));
        assert_eq!(osc.internal_black(5, 0), osc.displays_black(5, 0));
        let spoof = ByzantineStrategy::Spoofer.build(0);
        for t in 0..4 {
            assert!(spoof.displays_black(0, t));
            assert!(!spoof.internal_black(0, t));
        }
    }

    #[test]
    fn strategy_labels_and_serde_roundtrip() {
        for s in ByzantineStrategy::all() {
            let json = serde_json::to_string(&s).unwrap();
            let back: ByzantineStrategy = serde_json::from_str(&json).unwrap();
            assert_eq!(back, s);
        }
        let labels: std::collections::HashSet<_> =
            ByzantineStrategy::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn overlay_sorts_dedupes_and_reports_emptiness() {
        let o = ByzantineOverlay::new(ByzantineStrategy::Oscillator, vec![4, 1, 4, 2], 0);
        assert_eq!(o.vertices(), vec![1, 2, 4]);
        assert_eq!(o.strategy(), ByzantineStrategy::Oscillator);
        assert!(!o.is_empty());
        assert!(ByzantineOverlay::new(ByzantineStrategy::Frozen, vec![], 0).is_empty());
        let dbg = format!("{o:?}");
        assert!(dbg.contains("Oscillator"));
    }

    #[test]
    fn resample_replaces_departed_victims_deterministically() {
        // Path 0-1-2-3-4 plus isolated vertex 5: victims {1, 5} where 5 is
        // already departed (degree 0).
        let graph = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();

        // Without opting in, resampling is a no-op.
        let inert = ByzantineOverlay::new(ByzantineStrategy::Frozen, vec![1, 5], 9);
        assert_eq!(inert.resample_departed(&graph), 0);
        assert_eq!(inert.vertices(), vec![1, 5]);

        let adaptive =
            ByzantineOverlay::new(ByzantineStrategy::Frozen, vec![1, 5], 9).with_resample(true);
        assert!(adaptive.resamples());
        let moved = adaptive.resample_departed(&graph);
        assert_eq!(moved, 1);
        let after = adaptive.vertices();
        assert_eq!(after.len(), 2);
        assert!(after.contains(&1), "attached victim 1 must survive");
        assert!(!after.contains(&5), "isolated victim 5 must be replaced");
        for &u in &after {
            assert!(graph.degree(u) > 0, "replacement {u} must be attached");
        }

        // Same seed + same call sequence => same trajectory.
        let replay =
            ByzantineOverlay::new(ByzantineStrategy::Frozen, vec![1, 5], 9).with_resample(true);
        replay.resample_departed(&graph);
        assert_eq!(replay.vertices(), after);

        // Nothing departed => nothing moves.
        assert_eq!(adaptive.resample_departed(&graph), 0);
        assert_eq!(adaptive.vertices(), after);
    }

    #[test]
    fn resample_shrinks_when_population_is_exhausted() {
        // Two attached vertices, both adversarial; the third victim is out
        // of range. No honest attached candidate exists, so the adversary
        // loses the departed victim outright.
        let graph = Graph::from_edges(2, [(0, 1)]).unwrap();
        let o =
            ByzantineOverlay::new(ByzantineStrategy::Spoofer, vec![0, 1, 7], 3).with_resample(true);
        assert_eq!(o.resample_departed(&graph), 0);
        assert_eq!(o.vertices(), vec![0, 1]);
    }
}
