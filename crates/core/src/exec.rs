//! Execution modes for the round engine: the sequential-stream contract vs
//! counter-based intra-round parallelism.
//!
//! The repository supports two randomness models (see the README section
//! "Two randomness models"):
//!
//! * [`ExecutionMode::Sequential`] — every coin comes from one shared
//!   sequential RNG stream, drawn in ascending vertex order. This is the
//!   historical contract: `step` is bit-identical to the full-scan
//!   `step_reference` oracle for the same seed. One round cannot use more
//!   than one core.
//! * [`ExecutionMode::Parallel`] — every vertex's coin is a pure function
//!   of `(run_seed, vertex, round, draw)` via
//!   [`CounterRng`](crate::counter_rng::CounterRng), so draw order is
//!   irrelevant and a round can be computed by any number of threads.
//!   Results are **bit-identical for every thread count** (including 1),
//!   but follow a different (equally valid) random trajectory than the
//!   sequential stream.

use serde::{Deserialize, Serialize};

/// How a process executes its synchronous rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub enum ExecutionMode {
    /// One shared sequential RNG stream, ascending vertex order; exactly the
    /// trace the `step_reference` oracles reproduce.
    #[default]
    Sequential,
    /// Counter-based per-vertex randomness with intra-round data parallelism
    /// on `threads` threads. `threads = 1` runs the same counter-based logic
    /// inline; results are identical for every `threads` value.
    Parallel {
        /// Number of worker threads for the intra-round phases.
        threads: usize,
    },
}

/// Upper bound on the `threads` knob, enforced by
/// [`ExecutionMode::validate`] whenever a mode is deserialized: far above
/// any useful width, low enough to reject knob typos before they spawn a
/// few million workers.
pub const MAX_THREADS: usize = 1024;

/// Resolves a `threads` knob value to an actual worker count: `0` means
/// auto-detect (`std::thread::available_parallelism`), anything else is
/// taken as-is.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |t| t.get())
    } else {
        threads
    }
}

impl ExecutionMode {
    /// Number of worker threads this mode uses: 1 for sequential; for
    /// parallel, the knob value with `0` resolved to the number of
    /// available cores.
    pub fn threads(&self) -> usize {
        match *self {
            ExecutionMode::Sequential => 1,
            ExecutionMode::Parallel { threads } => resolve_threads(threads),
        }
    }

    /// Validates the mode's knobs (spec-parse time check): the thread count
    /// must not exceed [`MAX_THREADS`]. `0` is valid (auto-detect).
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ExecutionMode::Sequential => Ok(()),
            ExecutionMode::Parallel { threads } => {
                if threads > MAX_THREADS {
                    Err(format!(
                        "execution.threads = {threads} exceeds the maximum of {MAX_THREADS} \
                         (use 0 to auto-detect cores)"
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// `true` for [`ExecutionMode::Parallel`].
    pub fn is_parallel(&self) -> bool {
        matches!(self, ExecutionMode::Parallel { .. })
    }

    /// Short label for tables and CSV output (`sequential` /
    /// `parallel`).
    pub fn label(&self) -> &'static str {
        match self {
            ExecutionMode::Sequential => "sequential",
            ExecutionMode::Parallel { .. } => "parallel",
        }
    }
}

// Hand-written: the derived shape plus the `MAX_THREADS` bound, checked at every parse.
impl Deserialize for ExecutionMode {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let mode = match value {
            serde::Value::Str(s) if s == "Sequential" => ExecutionMode::Sequential,
            serde::Value::Object(entries) if entries.len() == 1 && entries[0].0 == "Parallel" => {
                ExecutionMode::Parallel {
                    threads: Deserialize::from_value(serde::get_field(&entries[0].1, "threads")?)?,
                }
            }
            _ => return Err(serde::Error::custom("expected `Sequential` or `Parallel`")),
        };
        mode.validate().map_err(serde::Error::custom)?;
        Ok(mode)
    }
}

/// How a full synchronous round traverses the graph: the sparse worklist
/// path, the dense full-sweep path, or the adaptive (direction-optimizing)
/// choice between the two.
///
/// This is the Beamer-style push–pull idea applied to the round engine: the
/// sparse path costs `O(|A_t| + vol(A_t))` but pays for frontier
/// bookkeeping, sorting, and scattered delta updates per touched edge, while
/// the dense path streams the whole packed state array and recounts every
/// counter in `O(n + m)` with perfectly predictable memory traffic. When
/// nearly every vertex is active (the early phase of a self-stabilizing run
/// from a random configuration) the dense sweep wins; once the frontier
/// collapses into the silent tail the sparse path wins by orders of
/// magnitude. [`RoundStrategy::Auto`] compares the frontier size plus its
/// volume against `(n + 2m) / DENSE_SWITCH_DIVISOR` every round and picks
/// accordingly.
///
/// The choice never changes results: both paths draw the same coins for the
/// same vertices in the same (ascending) order in sequential execution, and
/// counter-based draws are order-independent in parallel execution, so
/// `auto`, forced `sparse`, and forced `dense` are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoundStrategy {
    /// Per-round direction optimization: dense while the frontier is a
    /// constant fraction of the graph, sparse afterwards. The default.
    #[default]
    Auto,
    /// Always the incremental worklist path (the pre-adaptive behavior).
    Sparse,
    /// Always the full-sweep recount path (the reference-style traversal,
    /// minus its allocations and redundant scans).
    Dense,
}

impl RoundStrategy {
    /// Short lowercase label (`auto` / `sparse` / `dense`), also the JSON
    /// encoding.
    pub fn label(&self) -> &'static str {
        match self {
            RoundStrategy::Auto => "auto",
            RoundStrategy::Sparse => "sparse",
            RoundStrategy::Dense => "dense",
        }
    }

    /// Parses a label as produced by [`label`](Self::label)
    /// (case-insensitive).
    pub fn parse(label: &str) -> Option<RoundStrategy> {
        match label.to_ascii_lowercase().as_str() {
            "auto" => Some(RoundStrategy::Auto),
            "sparse" => Some(RoundStrategy::Sparse),
            "dense" => Some(RoundStrategy::Dense),
            _ => None,
        }
    }
}

// Hand-written: input goes through the case-insensitive `parse`, so `"AUTO"` parses too.
impl Serialize for RoundStrategy {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
    }
}

impl Deserialize for RoundStrategy {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Str(s) => RoundStrategy::parse(s).ok_or_else(|| {
                serde::Error::custom(format!(
                    "unknown round strategy '{s}' (expected auto, sparse, or dense)"
                ))
            }),
            _ => Err(serde::Error::custom("expected a round-strategy string")),
        }
    }
}

/// Tuning divisor of the [`RoundStrategy::Auto`] switch: a round runs dense
/// when `|F_t| + vol(F_t) ≥ (n + 2m) / DENSE_SWITCH_DIVISOR`, where `F_t` is
/// the pending frontier and `vol` sums degrees. The sparse path costs
/// several times more per touched edge than the dense sweep's streaming
/// recount (frontier sort, scattered counter deltas, dirty-queue churn), so
/// the crossover sits well below `|F_t| ≈ n`; 8 was tuned on the
/// `exp_scale` G(n, 8/n) family.
pub const DENSE_SWITCH_DIVISOR: usize = 8;

/// Below this worklist size the parallel phases run on a single chunk
/// inline: spawning threads for a few hundred vertices costs more than the
/// work itself, and the late stabilization tail would otherwise pay a
/// spawn-join round trip per (near-empty) round. Results are unaffected —
/// counter-based randomness does not depend on the partition.
pub(crate) const PAR_WORK_THRESHOLD: usize = 2_048;

/// Target chunk multiplicity for the work-stealing sparse phases: each
/// worker's deque starts with about this many chunks, so a worker that drew
/// light chunks has something to steal from a worker that drew the hubs.
pub(crate) const STEAL_CHUNKS_PER_THREAD: usize = 4;

/// Minimum chunk size for the work-stealing phases: below this, per-chunk
/// claim overhead (one CAS) stops being noise.
pub(crate) const STEAL_MIN_CHUNK: usize = 512;

/// The chunks a work-stealing phase splits `len` worklist items into: about
/// [`STEAL_CHUNKS_PER_THREAD`] chunks per thread, none smaller than
/// [`STEAL_MIN_CHUNK`], and a single chunk below [`PAR_WORK_THRESHOLD`] or
/// on one thread. Ranges are computed on demand, so a round that runs its
/// single chunk inline allocates nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StealChunks {
    len: usize,
    count: usize,
}

impl StealChunks {
    /// Splits `len` worklist items for a phase on `threads` threads.
    pub(crate) fn new(len: usize, threads: usize) -> Self {
        let count = if len == 0 {
            0
        } else if len < PAR_WORK_THRESHOLD || threads <= 1 {
            1
        } else {
            (threads * STEAL_CHUNKS_PER_THREAD)
                .min(len / STEAL_MIN_CHUNK)
                .max(1)
        };
        StealChunks { len, count }
    }

    /// Number of chunks; 0 for an empty worklist.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Item range of chunk `i`; the first `len % count` chunks hold one
    /// extra item.
    pub(crate) fn range(&self, i: usize) -> std::ops::Range<usize> {
        let (base, extra) = (self.len / self.count, self.len % self.count);
        let start = i * base + i.min(extra);
        start..start + base + usize::from(i < extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_helpers() {
        assert_eq!(ExecutionMode::Sequential.threads(), 1);
        assert_eq!(ExecutionMode::Parallel { threads: 4 }.threads(), 4);
        // threads = 0 auto-detects cores (at least one).
        assert!(ExecutionMode::Parallel { threads: 0 }.threads() >= 1);
        assert_eq!(
            ExecutionMode::Parallel { threads: 0 }.threads(),
            std::thread::available_parallelism().map_or(1, |t| t.get())
        );
        assert!(!ExecutionMode::Sequential.is_parallel());
        assert!(ExecutionMode::Parallel { threads: 2 }.is_parallel());
        assert_eq!(ExecutionMode::default(), ExecutionMode::Sequential);
        assert_eq!(ExecutionMode::Sequential.label(), "sequential");
        assert_eq!(ExecutionMode::Parallel { threads: 8 }.label(), "parallel");
    }

    #[test]
    fn validate_rejects_absurd_thread_counts() {
        assert!(ExecutionMode::Sequential.validate().is_ok());
        assert!(ExecutionMode::Parallel { threads: 0 }.validate().is_ok());
        assert!(ExecutionMode::Parallel { threads: 8 }.validate().is_ok());
        assert!(ExecutionMode::Parallel {
            threads: MAX_THREADS
        }
        .validate()
        .is_ok());
        let err = ExecutionMode::Parallel {
            threads: MAX_THREADS + 1,
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("exceeds"), "unexpected message: {err}");
    }

    #[test]
    fn mode_parsing_accepts_the_derived_shapes_within_the_thread_bound() {
        let parse = serde_json::from_str::<ExecutionMode>;
        assert_eq!(parse("\"Sequential\"").unwrap(), ExecutionMode::Sequential);
        let max = format!("{{\"Parallel\":{{\"threads\":{MAX_THREADS}}}}}");
        let parallel = ExecutionMode::Parallel {
            threads: MAX_THREADS,
        };
        assert_eq!(parse(&max).unwrap(), parallel);
        let over = max.replace(&MAX_THREADS.to_string(), &(MAX_THREADS + 1).to_string());
        assert!(parse(&over).unwrap_err().to_string().contains("exceeds"));
        for rejected in [
            "\"sequential\"",
            "\"Parallel\"",
            "{\"Sequential\":{}}",
            "{\"Parallel\":4}",
            "{\"Parallel\":{}}",
            "{\"Parallel\":{\"threads\":2},\"Sequential\":{}}",
            "2",
        ] {
            assert!(parse(rejected).is_err(), "{rejected}");
        }
    }

    #[test]
    fn steal_chunk_bounds_cover_exactly() {
        for &(len, threads) in &[
            (0usize, 4usize),
            (PAR_WORK_THRESHOLD - 1, 8),
            (PAR_WORK_THRESHOLD, 8),
            (PAR_WORK_THRESHOLD, 1),
            (100_000, 4),
            (3_000, 2),
            (1_000_000, 8),
        ] {
            let chunks = StealChunks::new(len, threads);
            let ranges: Vec<_> = (0..chunks.count()).map(|i| chunks.range(i)).collect();
            if len == 0 {
                assert!(ranges.is_empty());
                continue;
            }
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, len);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                assert!(w[0].end > w[0].start);
            }
            if len < PAR_WORK_THRESHOLD || threads == 1 {
                assert_eq!(ranges.len(), 1, "small worklists stay on one chunk");
            } else {
                assert!(ranges.len() <= threads * STEAL_CHUNKS_PER_THREAD);
                // No chunk under the floor unless the whole list is tiny.
                for r in &ranges {
                    assert!(r.len() >= STEAL_MIN_CHUNK.min(len));
                }
            }
        }
    }

    #[test]
    fn strategy_labels_parse_and_round_trip() {
        assert_eq!(RoundStrategy::default(), RoundStrategy::Auto);
        for strategy in [
            RoundStrategy::Auto,
            RoundStrategy::Sparse,
            RoundStrategy::Dense,
        ] {
            assert_eq!(RoundStrategy::parse(strategy.label()), Some(strategy));
            assert_eq!(
                RoundStrategy::parse(&strategy.label().to_uppercase()),
                Some(strategy)
            );
            let json = serde_json::to_string(&strategy).unwrap();
            assert_eq!(json, format!("\"{}\"", strategy.label()));
            let back: RoundStrategy = serde_json::from_str(&json).unwrap();
            assert_eq!(strategy, back);
        }
        assert_eq!(RoundStrategy::parse("bogus"), None);
        assert!(serde_json::from_str::<RoundStrategy>("\"bogus\"").is_err());
        assert!(serde_json::from_str::<RoundStrategy>("3").is_err());
    }

    #[test]
    fn mode_round_trips_through_json() {
        // Exercised through the serde stand-in used by ExperimentSpec.
        let modes = [
            ExecutionMode::Sequential,
            ExecutionMode::Parallel { threads: 8 },
        ];
        for mode in modes {
            let json = serde_json::to_string(&mode).unwrap();
            let back: ExecutionMode = serde_json::from_str(&json).unwrap();
            assert_eq!(mode, back);
        }
    }
}
