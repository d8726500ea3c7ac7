//! Experiment harness for the `selfstab-mis` workspace.
//!
//! This crate turns every algorithm of the workspace — the `mis-core`
//! processes (under their direct keys and their beeping / stone-age keys)
//! and the `mis-baselines` comparators — into reproducible, parallel
//! Monte-Carlo experiments:
//!
//! * [`registry`] — the builtin string-keyed algorithm registry
//!   ([`registry::builtin_registry`]): ten algorithms behind one object-safe
//!   [`mis_core::Algorithm`] seam.
//! * [`spec`] — declarative experiment specifications: which algorithm
//!   (by registry key), which graph family
//!   ([`spec::GraphSpec`]), which scheduler ([`spec::SchedulerSpec`]), which
//!   initialization, optional fault injection, how many trials, which seed.
//!   Build them with [`spec::ExperimentSpec::builder`].
//! * [`runner`] — executes a specification: every trial gets its own
//!   deterministic RNG stream (derived from the base seed and the trial
//!   index), trials run in parallel with rayon, and every stabilized trial is
//!   validated against [`mis_graph::mis_check::is_mis`].
//! * [`observer`] — streaming per-round telemetry
//!   ([`observer::Observer`]): traces, CSV emission, and custom metrics all
//!   feed off the one drive loop in [`runner::drive_algorithm`].
//! * [`churn`] — dynamic-graph burst generation for the live-mutation
//!   experiments: a [`spec::ChurnSpec`], the driver's
//!   [`runner::MutationSource`], mutates the running algorithm's graph
//!   between rounds and the trial measures incremental re-stabilization.
//! * Byzantine campaigns — a [`spec::ByzantineSpec`] hands the selected
//!   vertices ([`spec::VictimSelection`]) to an adversary
//!   ([`mis_core::ByzantineStrategy`]) for the whole trial; the driver
//!   terminates on *containment* (all instability within
//!   [`runner::CONTAINMENT_RADIUS`] of the Byzantine set) and validates
//!   with [`mis_graph::mis_check::is_mis_outside`], streaming per-round
//!   [`observer::ByzantineRoundMetrics`] to observers.
//! * [`metrics`] — per-trial results and optional per-round traces.
//! * [`stats`] — summary statistics (mean, quantiles, standard deviation)
//!   used by the experiment tables.
//! * [`sweep`] — parameter sweeps producing CSV tables, one row per
//!   parameter value.
//! * Transient faults — a [`spec::FaultSpec`] corrupts a random fraction
//!   or an explicit victim list once the algorithm stabilizes, through
//!   [`mis_core::Algorithm::inject_faults`]; the recovery experiments read
//!   the corruption from the
//!   [`FaultInjection`](observer::ObserverEvent::FaultInjection) event.
//!
//! # Example
//!
//! ```
//! use mis_sim::spec::{ExperimentSpec, GraphSpec};
//! use mis_sim::runner::run_experiment;
//!
//! // The 2-state process reported as a beeping algorithm, by registry key.
//! let spec = ExperimentSpec::builder()
//!     .name("quick-demo")
//!     .graph(GraphSpec::Gnp { n: 100, p: 0.05 })
//!     .algorithm("beeping-two-state")
//!     .trials(8)
//!     .base_seed(42)
//!     .build();
//! let result = run_experiment(&spec);
//! assert_eq!(result.trials.len(), 8);
//! assert!(result.all_stabilized());
//! println!("mean stabilization time: {:.1} rounds", result.rounds_summary().mean);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod metrics;
pub mod observer;
pub mod registry;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod sweep;

pub use churn::generate_burst;
pub use metrics::{RoundTrace, TrialResult};
pub use observer::{
    ByzantineRoundMetrics, CsvRoundObserver, EventLogObserver, Observer, TraceObserver,
};
pub use registry::{builtin_registry, register_builtin_algorithms};
pub use runner::{
    drive_algorithm, run_experiment, run_experiment_with, DriveOutcome, ExperimentResult,
    MutationPoll, MutationSource, CONTAINMENT_CONFIRM_ROUNDS, CONTAINMENT_RADIUS,
};
pub use spec::{
    ByzantineSpec, ChurnScenario, ChurnSpec, ExperimentSpec, FaultSpec, GraphSpec, SchedulerSpec,
    VictimSelection,
};
pub use stats::Summary;
