//! The self-stabilizing MIS processes of Giakkoupis & Ziccardi (PODC 2023).
//!
//! This crate implements the paper's contribution:
//!
//! * [`TwoStateProcess`] — the **2-state MIS process** (Definition 4): each
//!   vertex is black or white; an "inconsistent" vertex (black with a black
//!   neighbor, or white with no black neighbor) re-randomizes its state each
//!   round with probability 1/2 per outcome.
//! * [`ThreeStateProcess`] — the **3-state MIS process** (Definition 5),
//!   suitable for the synchronous stone age model (no collision detection).
//! * [`RandomizedLogSwitch`] — the **randomized logarithmic switch**
//!   (Definition 26), a 6-level phase-clock-like sub-process whose on/off
//!   output satisfies properties (S1)–(S3) of Definition 25 w.h.p.
//! * [`ThreeColorProcess`] — the **3-color MIS process** (Definition 28),
//!   the 2-state process extended with a gray color whose gray→white
//!   transition is gated by a logarithmic switch; with the randomized switch
//!   it uses 3 × 6 = 18 states and stabilizes in polylog rounds on `G(n,p)`
//!   for the whole range of `p` (Theorem 3).
//!
//! All processes implement the one [`Algorithm`] trait, are
//! **self-stabilizing** (they may be started from an arbitrary state
//! vector, see [`init`]), and expose the per-round vertex partitions used
//! throughout the paper's analysis (`B_t`, `A_t`, `I_t`, `V_t`). The same
//! trait carries the harness hooks (partial activation, transient faults,
//! Byzantine overrides, topology mutation), and [`Registry`] entries
//! ([`AlgorithmFactory`]) declare which of them each key supports.
//!
//! Each process states its local rule once, as a [`LocalRule`]: its states,
//! which vertices are active or pending, and where a pending vertex moves
//! given its coin. One generic [`RuleProcess`] runs every rule (the process
//! types are aliases of it, and one generic impl makes each an
//! [`Algorithm`]), with one round driver per randomness model on
//! the shared incremental [`engine`]: per-vertex black-neighbor counters
//! updated by delta propagation, a maintained active-frontier worklist, and
//! cached counts, so one round costs `O(|A_t| + vol(A_t))` instead of
//! `O(n + m)` and the stabilization check is `O(1)`. Every process also
//! retains a naive `step_reference` full-scan path that is bit-identical
//! (same states, same RNG stream) and serves as the oracle for the engine's
//! trace-equality tests.
//!
//! On top of that, rounds are **direction-optimizing** ([`RoundStrategy`]):
//! when the frontier is a constant fraction of the graph (the dense early
//! phase) the engine switches from the sparse worklist path to a flat,
//! branch-light dense sweep with a fused full recount — faster than both the
//! sparse path and the naive reference in that regime — and switches back
//! once the frontier collapses. The adaptive choice is bit-identical to
//! forcing either path.
//!
//! Each process supports two [`ExecutionMode`]s. The default
//! `Sequential` mode draws every coin from one shared RNG stream in
//! ascending vertex order (the `step_reference` contract above). `Parallel`
//! mode switches to **counter-based per-vertex randomness**
//! ([`counter_rng`]): each vertex's coin is a pure function of
//! `(run_seed, vertex, round, draw)`, draw order becomes irrelevant, rounds
//! run in data-parallel phases, and the results are **bit-identical for
//! every thread count**. Vertex states are stored bit-packed at 2 bits per
//! vertex ([`packed`]).
//!
//! # Example
//!
//! ```
//! use mis_core::{Algorithm, TwoStateProcess, init::InitStrategy};
//! use mis_graph::{generators, mis_check};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
//! let g = generators::random_tree(200, &mut rng);
//! let mut proc = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut rng);
//! let rounds = proc.run_to_stabilization(&mut rng, 10_000).unwrap();
//! assert!(mis_check::is_mis(&g, &proc.black_set()));
//! assert!(rounds <= 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod byzantine;
pub mod counter_rng;
pub mod engine;
pub mod exec;
pub mod init;
mod log_switch;
mod mutation;
pub mod packed;
pub mod registry;
pub mod rule;
pub mod scheduler;
pub mod sync;
mod three_color;
mod three_state;
mod two_state;

pub use algorithm::{
    corrupt, fault_victims, victim_sample, Algorithm, AlgorithmConfig, AlgorithmFactory,
    Capabilities, CommunicationModel, FaultState, InitFn, Registry, StabilizationTimeout,
    StateCounts,
};
pub use byzantine::{Adversary, ByzantineOverlay, ByzantineStrategy};
pub use counter_rng::CounterRng;
pub use engine::{FrontierEngine, ScatterSink, VertexClass};
pub use exec::{ExecutionMode, RoundStrategy, DENSE_SWITCH_DIVISOR};
pub use log_switch::{FixedPeriodSwitch, RandomizedLogSwitch, SwitchProcess, DEFAULT_ZETA};
pub use mutation::MutationError;
pub use packed::PackedStates;
pub use registry::register_core_algorithms;
pub use rule::{LocalRule, RuleProcess};
pub use scheduler::{Activation, CentralDaemon, RandomSubset, Scheduler, Synchronous};
pub use three_color::{ThreeColor, ThreeColorProcess, ThreeColorRule, LOG_SWITCH_A};
pub use three_state::{ThreeState, ThreeStateProcess, ThreeStateRule};
pub use two_state::{Color, TwoStateProcess, TwoStateRule};
