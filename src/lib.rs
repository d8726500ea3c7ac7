//! # selfstab-mis
//!
//! A reproduction of *"Distributed Self-Stabilizing MIS with Few States and
//! Weak Communication"* (George Giakkoupis and Isabella Ziccardi, PODC 2023,
//! arXiv:2301.05059) as a production-quality Rust workspace.
//!
//! This facade crate re-exports the member crates of the workspace so that a
//! downstream user can depend on a single crate:
//!
//! * [`graph`] — static graph substrate, generators, and structural analysis
//!   (including the *(n,p)-good graph* checker of Definition 17).
//! * [`core`] — the paper's contribution: the 2-state, 3-state, and 3-color
//!   MIS processes and the randomized logarithmic switch, plus the one
//!   [`Algorithm`](mis_core::Algorithm) trait every runnable algorithm
//!   implements and the registry that declares what each supports.
//! * [`comm`] — weak-communication channels (beeping, synchronous stone age)
//!   and reference rounds of the processes over them; the registry's
//!   beeping and stone-age keys run the [`core`] processes, whose rules read
//!   only what those channels deliver.
//! * [`baselines`] — classical and self-stabilizing MIS baselines (Luby,
//!   greedy, sequential self-stabilizing, Turau-style randomized).
//! * [`sim`] — experiment harness: trial runner, metrics, statistics, sweeps,
//!   and transient-fault, churn and Byzantine specs.
//! * [`service`] — graph-service daemon: the registry's algorithms behind an
//!   HTTP API with named graphs, polled jobs, streaming results, and live
//!   topology mutation of running jobs.
//!
//! ## Quickstart
//!
//! ```
//! use selfstab_mis::graph::generators::gnp;
//! use selfstab_mis::core::{Algorithm, TwoStateProcess, init::InitStrategy};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(7);
//! let g = gnp(200, 0.05, &mut rng);
//! let mut proc = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut rng);
//! let rounds = proc.run_to_stabilization(&mut rng, 100_000).expect("stabilizes");
//! assert!(selfstab_mis::graph::mis_check::is_mis(&g, &proc.black_set()));
//! println!("stabilized after {rounds} rounds");
//!
//! // A transient fault overwrites 10% of the vertices; the process heals.
//! proc.inject_faults(0.1, &mut rng);
//! proc.run_to_stabilization(&mut rng, 100_000).expect("recovers");
//! assert!(selfstab_mis::graph::mis_check::is_mis(&g, &proc.black_set()));
//!
//! // Every registry key builds the same trait object and declares what it
//! // supports.
//! let beeping = selfstab_mis::sim::builtin_registry()
//!     .get("beeping-two-state")
//!     .expect("builtin key");
//! assert!(beeping.capabilities().fault_injection);
//! ```

pub use mis_baselines as baselines;
pub use mis_comm as comm;
pub use mis_core as core;
pub use mis_graph as graph;
pub use mis_service as service;
pub use mis_sim as sim;
