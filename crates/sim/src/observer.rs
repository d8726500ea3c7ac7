//! Streaming observers: per-round telemetry without materializing state.
//!
//! The driver ([`drive_algorithm`](crate::runner::drive_algorithm)) pushes
//! events to any number of [`Observer`]s while a trial runs: one callback
//! per executed round with the aggregate [`StateCounts`], one when the
//! algorithm stabilizes, and one per injected fault. Traces
//! ([`TraceObserver`]), CSV emission ([`CsvRoundObserver`]), and custom
//! telemetry (e.g. streaming quantiles at `n = 10^7`, where storing a full
//! trace is not an option) all hang off this one code path instead of
//! each re-implementing the drive loop.
//!
//! When **no** observer is attached the driver skips the per-round
//! [`counts`](mis_core::Algorithm::counts) calls entirely, so algorithms
//! whose counts are `O(n + m)` (the communication models) pay nothing for
//! the API's existence.

use mis_core::StateCounts;
use mis_graph::CommittedDelta;

use crate::metrics::RoundTrace;

/// Per-round containment telemetry streamed while a trial runs under a
/// Byzantine adversary (see
/// [`ByzantineSpec`](crate::spec::ByzantineSpec)).
///
/// The distance histogram locates the damage: entry `d` of
/// [`unstable_by_distance`](Self::unstable_by_distance) counts the unstable
/// vertices at BFS distance `d` from the Byzantine set (entry 0 is the
/// adversarial vertices themselves). A contained configuration has all its
/// mass at distance at most
/// [`CONTAINMENT_RADIUS`](crate::runner::CONTAINMENT_RADIUS).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ByzantineRoundMetrics {
    /// Vertices whose protocol-visible state the adversary actually flipped
    /// this round.
    pub overridden: usize,
    /// Unstable-vertex counts indexed by BFS distance to the Byzantine set;
    /// trailing zeros are trimmed (an empty vector means no unstable vertex
    /// is reachable from the adversary).
    pub unstable_by_distance: Vec<usize>,
    /// Unstable vertices in components the adversary cannot reach.
    pub unstable_unreachable: usize,
    /// Whether every unstable vertex lies within the containment radius of
    /// the Byzantine set.
    pub contained: bool,
}

/// Receives streaming events while a trial is driven.
///
/// All methods have empty default implementations; implement only the
/// events you care about.
pub trait Observer {
    /// Called once before the first round (with the initial configuration
    /// at `round = 0`) and once after every executed round. A fault
    /// injection re-emits the *current* round with the post-corruption
    /// counts (immediately after
    /// [`on_fault_injection`](Self::on_fault_injection)), so recovery
    /// curves include the unstable spike the fault produced.
    fn on_round(&mut self, round: usize, counts: &StateCounts) {
        let _ = (round, counts);
    }

    /// Called once if the algorithm stabilizes within its round budget.
    fn on_stabilized(&mut self, round: usize) {
        let _ = round;
    }

    /// Called after each fault injection with the number of vertices whose
    /// state actually changed.
    fn on_fault_injection(&mut self, round: usize, corrupted: usize) {
        let _ = (round, corrupted);
    }

    /// Called after each churn burst is applied to the live graph, with the
    /// net topology diff the algorithm absorbed. Like a fault injection, a
    /// topology change re-emits the current round via
    /// [`on_round`](Self::on_round) right after this callback, so recovery
    /// curves include the post-mutation unstable spike.
    fn on_topology_change(&mut self, round: usize, delta: &CommittedDelta) {
        let _ = (round, delta);
    }

    /// Called after each round executed under a Byzantine adversary, with
    /// the adversarial overrides applied and the containment verdict for
    /// the resulting configuration. Emitted *before* the round's
    /// [`on_round`](Self::on_round), so the counts that follow already
    /// include the overrides.
    fn on_byzantine_round(&mut self, round: usize, metrics: &ByzantineRoundMetrics) {
        let _ = (round, metrics);
    }
}

/// Collects the per-round [`StateCounts`] into a [`RoundTrace`] — the
/// observer behind `record_trace` experiment specs.
#[derive(Debug, Clone, Default)]
pub struct TraceObserver {
    trace: RoundTrace,
}

impl TraceObserver {
    /// An empty trace observer.
    pub fn new() -> Self {
        TraceObserver::default()
    }

    /// The collected trace.
    pub fn into_trace(self) -> RoundTrace {
        self.trace
    }
}

impl Observer for TraceObserver {
    fn on_round(&mut self, _round: usize, counts: &StateCounts) {
        self.trace.counts.push(*counts);
    }
}

/// One event recorded by [`EventLogObserver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserverEvent {
    /// A round completed (or the initial configuration was reported).
    Round {
        /// Round index.
        round: usize,
        /// Number of non-stable vertices `|V_t|` at that round.
        unstable: usize,
    },
    /// The algorithm stabilized.
    Stabilized {
        /// Round at which it stabilized.
        round: usize,
    },
    /// A transient fault was injected.
    FaultInjection {
        /// Round at which the fault hit.
        round: usize,
        /// Vertices whose state actually changed.
        corrupted: usize,
    },
    /// A churn burst mutated the live graph.
    TopologyChange {
        /// Round at which the burst hit.
        round: usize,
        /// Edges inserted by the burst (net of cancellations).
        inserted: usize,
        /// Edges removed by the burst (net of cancellations).
        removed: usize,
        /// Vertex count after the burst.
        new_n: usize,
    },
    /// A round executed under a Byzantine adversary (the histogram detail
    /// of [`ByzantineRoundMetrics`] is summarized to keep events `Copy`).
    ByzantineRound {
        /// Round index.
        round: usize,
        /// Vertices the adversary actually flipped this round.
        overridden: usize,
        /// Whether every unstable vertex was within the containment radius.
        contained: bool,
    },
}

/// Records every event in order — useful for tests and for debugging
/// scheduler/fault interactions.
#[derive(Debug, Clone, Default)]
pub struct EventLogObserver {
    /// The recorded events, in emission order.
    pub events: Vec<ObserverEvent>,
}

impl EventLogObserver {
    /// An empty log.
    pub fn new() -> Self {
        EventLogObserver::default()
    }

    /// The round reported by the final `Stabilized` event, if any.
    pub fn stabilized_at(&self) -> Option<usize> {
        self.events.iter().rev().find_map(|e| match e {
            ObserverEvent::Stabilized { round } => Some(*round),
            _ => None,
        })
    }

    /// Total vertices corrupted over all fault injections.
    pub fn total_corrupted(&self) -> usize {
        self.events
            .iter()
            .map(|e| match e {
                ObserverEvent::FaultInjection { corrupted, .. } => *corrupted,
                _ => 0,
            })
            .sum()
    }

    /// The round of the first fault injection and how many vertices it
    /// changed, if a fault fired.
    pub fn first_fault(&self) -> Option<(usize, usize)> {
        self.events.iter().find_map(|e| match e {
            ObserverEvent::FaultInjection { round, corrupted } => Some((*round, *corrupted)),
            _ => None,
        })
    }

    /// The first round whose Byzantine verdict was "contained", if any.
    pub fn first_contained_at(&self) -> Option<usize> {
        self.events.iter().find_map(|e| match e {
            ObserverEvent::ByzantineRound {
                round,
                contained: true,
                ..
            } => Some(*round),
            _ => None,
        })
    }
}

impl Observer for EventLogObserver {
    fn on_round(&mut self, round: usize, counts: &StateCounts) {
        self.events.push(ObserverEvent::Round {
            round,
            unstable: counts.unstable,
        });
    }

    fn on_stabilized(&mut self, round: usize) {
        self.events.push(ObserverEvent::Stabilized { round });
    }

    fn on_fault_injection(&mut self, round: usize, corrupted: usize) {
        self.events
            .push(ObserverEvent::FaultInjection { round, corrupted });
    }

    fn on_topology_change(&mut self, round: usize, delta: &CommittedDelta) {
        self.events.push(ObserverEvent::TopologyChange {
            round,
            inserted: delta.inserted.len(),
            removed: delta.removed.len(),
            new_n: delta.new_n,
        });
    }

    fn on_byzantine_round(&mut self, round: usize, metrics: &ByzantineRoundMetrics) {
        self.events.push(ObserverEvent::ByzantineRound {
            round,
            overridden: metrics.overridden,
            contained: metrics.contained,
        });
    }
}

/// Streams per-round counts as CSV rows into an in-memory buffer — the
/// building block the experiment binaries use to dump round-resolved
/// telemetry without holding a trace.
#[derive(Debug, Clone)]
pub struct CsvRoundObserver {
    buffer: String,
}

impl CsvRoundObserver {
    /// A buffer primed with the CSV header.
    pub fn new() -> Self {
        CsvRoundObserver {
            buffer: String::from("round,black,non_black,active,stable_black,unstable\n"),
        }
    }

    /// The accumulated CSV (header plus one row per observed round).
    pub fn csv(&self) -> &str {
        &self.buffer
    }
}

impl Default for CsvRoundObserver {
    fn default() -> Self {
        CsvRoundObserver::new()
    }
}

impl Observer for CsvRoundObserver {
    fn on_round(&mut self, round: usize, counts: &StateCounts) {
        self.buffer.push_str(&format!(
            "{},{},{},{},{},{}\n",
            round,
            counts.black,
            counts.non_black,
            counts.active,
            counts.stable_black,
            counts.unstable
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(unstable: usize) -> StateCounts {
        StateCounts {
            unstable,
            ..StateCounts::default()
        }
    }

    #[test]
    fn trace_observer_collects_rounds() {
        let mut o = TraceObserver::new();
        o.on_round(0, &counts(5));
        o.on_round(1, &counts(2));
        o.on_stabilized(1); // ignored by the trace
        let trace = o.into_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.counts[1].unstable, 2);
    }

    #[test]
    fn event_log_records_in_order() {
        let mut o = EventLogObserver::new();
        o.on_round(0, &counts(4));
        o.on_fault_injection(3, 2);
        o.on_stabilized(7);
        assert_eq!(o.events.len(), 3);
        assert_eq!(o.stabilized_at(), Some(7));
        assert_eq!(o.total_corrupted(), 2);
        assert_eq!(
            o.events[0],
            ObserverEvent::Round {
                round: 0,
                unstable: 4
            }
        );
    }

    #[test]
    fn event_log_without_stabilization() {
        let o = EventLogObserver::new();
        assert_eq!(o.stabilized_at(), None);
        assert_eq!(o.total_corrupted(), 0);
    }

    #[test]
    fn event_log_records_topology_changes() {
        let mut o = EventLogObserver::new();
        let delta = CommittedDelta {
            old_n: 4,
            new_n: 5,
            inserted: vec![(0, 4)],
            removed: vec![(1, 2), (2, 3)],
        };
        o.on_topology_change(6, &delta);
        assert_eq!(
            o.events,
            vec![ObserverEvent::TopologyChange {
                round: 6,
                inserted: 1,
                removed: 2,
                new_n: 5
            }]
        );
    }

    #[test]
    fn event_log_records_byzantine_rounds() {
        let mut o = EventLogObserver::new();
        o.on_byzantine_round(
            2,
            &ByzantineRoundMetrics {
                overridden: 1,
                unstable_by_distance: vec![1, 4, 2, 3],
                unstable_unreachable: 0,
                contained: false,
            },
        );
        o.on_byzantine_round(
            3,
            &ByzantineRoundMetrics {
                overridden: 1,
                unstable_by_distance: vec![1, 2],
                unstable_unreachable: 0,
                contained: true,
            },
        );
        assert_eq!(o.first_contained_at(), Some(3));
        assert_eq!(
            o.events[0],
            ObserverEvent::ByzantineRound {
                round: 2,
                overridden: 1,
                contained: false
            }
        );
    }

    #[test]
    fn csv_observer_streams_rows() {
        let mut o = CsvRoundObserver::new();
        o.on_round(0, &counts(3));
        o.on_round(1, &counts(0));
        let csv = o.csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("round,"));
        assert!(csv.ends_with("1,0,0,0,0,0\n"));
    }
}
