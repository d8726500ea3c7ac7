//! Baseline MIS algorithms the paper positions itself against.
//!
//! The paper's processes are compared, in its introduction and related-work
//! section, with three families of algorithms. Since no open-source
//! implementations of the exact comparators exist, this crate re-implements
//! representative members of each family:
//!
//! * [`luby`] — Luby's classical randomized distributed MIS algorithm
//!   (random-priority variant): `O(log n)` rounds w.h.p., but needs
//!   `Θ(log n)` random bits and `Θ(log n)`-bit messages per round and is
//!   **not** self-stabilizing.
//! * [`greedy`] — the sequential greedy MIS (lexicographic or random order),
//!   the standard centralized reference point.
//! * [`sequential_selfstab`] — the deterministic 2-state self-stabilizing
//!   algorithm of Shukla et al. / Hedetniemi et al. under a central
//!   scheduler: each move fixes one "privileged" vertex; stabilizes within
//!   `2n` moves but is inherently sequential.
//! * [`random_priority`] — a synchronous randomized self-stabilizing MIS in
//!   the spirit of Turau (2019): fresh `Θ(log n)`-bit random priorities
//!   every round, stabilizes in `O(log n)` rounds w.h.p., but uses
//!   super-constant state and randomness — exactly the cost the paper's
//!   constant-state processes avoid.
//!
//! Every algorithm validates its output against
//! [`mis_graph::mis_check::is_mis`] in its tests, and reports the resource
//! metrics (rounds/moves, random bits) used by the comparison experiment
//! (E10, `exp_e10_baselines`). [`registry`] holds their registry entries:
//! random-priority implements [`mis_core::Algorithm`] itself, and the
//! one-shot baselines run inside their entry's `init` and return a
//! terminated [`FinishedMis`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod greedy;
pub mod luby;
pub mod random_priority;
pub mod registry;
pub mod sequential_selfstab;

pub use greedy::{greedy_mis, greedy_mis_random_order};
pub use luby::{luby_mis, LubyOutcome};
pub use random_priority::{RandomPriorityMis, RandomPriorityOutcome};
pub use registry::{register_baseline_algorithms, FinishedMis};
pub use sequential_selfstab::{SequentialOutcome, SequentialScheduler, SequentialSelfStabMis};
