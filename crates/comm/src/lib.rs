//! Weak-communication network models and message-passing adaptations of the
//! MIS processes.
//!
//! The paper's processes are interesting precisely because they only need
//! *severely restricted* communication:
//!
//! * the 2-state process fits the **beeping model with sender collision
//!   detection** (full-duplex beeping, Cornejo & Kuhn 2010; Afek et al.
//!   2013): black vertices beep, white vertices listen, and a node only ever
//!   learns the single bit "did at least one neighbor beep?";
//! * the 3-state and 3-color processes fit the **synchronous stone age
//!   model** (Emek & Wattenhofer 2013): nodes transmit one letter from a
//!   constant alphabet per round and, per letter, can only distinguish
//!   "no neighbor sent it" from "at least one neighbor sent it".
//!
//! This crate provides the two channel primitives ([`beeping::beep_round`]
//! and [`stone_age::stone_age_round`]), which fill a caller-owned buffer with
//! what every node hears, and node-local adapters that re-implement the
//! processes **using only the channel feedback** — they never read a
//! neighbor's state directly. Each adapter implements [`mis_core::Process`],
//! and the test suites prove *trace equivalence*: fed the same seed and
//! initial states, an adapter visits exactly the same state sequence as the
//! corresponding direct process from `mis-core`.
//!
//! Each network keeps what its nodes heard in the current round in one flat
//! buffer (a bit per node for beeping, a letter mask per node for stone
//! age). It runs the channel once per round, after the state update, so a
//! round costs `O(n + m)` and allocates nothing; the fault setters refresh
//! only the neighbors of the overwritten node. The stabilization check,
//! the vertex sets, and the counts read the buffer and never re-run the
//! channel; the stabilization check is `O(n)`.
//!
//! # Example
//!
//! ```
//! use mis_comm::beeping::BeepingTwoStateMis;
//! use mis_core::{Process, init::InitStrategy};
//! use mis_graph::{generators, mis_check};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
//! let g = generators::gnp(100, 0.08, &mut rng);
//! let mut net = BeepingTwoStateMis::with_init(&g, InitStrategy::Random, &mut rng);
//! net.run_to_stabilization(&mut rng, 100_000).unwrap();
//! assert!(mis_check::is_mis(&g, &net.black_set()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapters;
pub mod beeping;
mod partition;
pub mod stone_age;

pub use adapters::{
    register_comm_algorithms, BeepingTwoStateAlgorithm, StoneAgeThreeColorAlgorithm,
    StoneAgeThreeStateAlgorithm,
};
