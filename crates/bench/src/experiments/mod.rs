//! One module per experiment group; README's "Running experiments" lists
//! the binaries.
//!
//! * [`stabilization`] — stabilization-time scaling experiments
//!   (E1–E6, E9): each theorem's graph family, swept over `n` (or `p` or
//!   `Δ`), with a fitted growth exponent next to the claimed bound.
//! * [`structure`] — structural lemmas: the (n,p)-good graph checker on
//!   `G(n,p)` (E7) and the logarithmic-switch run-length properties (E8).
//! * [`comparison`] — baselines and robustness: resource comparison against
//!   Luby and the randomized self-stabilizing baseline (E10) and
//!   transient-fault recovery (E11).
//! * [`lemmas`] — direct Monte-Carlo checks of Lemma 6 (E12) and the
//!   trace-equivalence of the weak-communication adaptations (E13).
//! * [`scale`] — large-n round-throughput measurement of the incremental
//!   frontier engine against the naive full-scan reference, early phase vs
//!   late phase, on sparse `G(n, p)` up to `n = 10⁶`.
//! * [`churn`] — dynamic graphs: incremental re-stabilization through the
//!   live-mutation engine vs a cold restart after edge-churn bursts, for
//!   all three paper processes.
//! * [`byzantine`] — adversarial robustness: containment of Byzantine
//!   vertices (frozen/flipper/oscillator/spoofer adversaries) within the
//!   2-neighborhood of the Byzantine set, for all three paper processes.

pub mod ablation;
pub mod byzantine;
pub mod churn;
pub mod comparison;
pub mod lemmas;
pub mod scale;
pub mod stabilization;
pub mod structure;

pub use ablation::{ablation_init_strategy, ablation_switch_implementation, ablation_switch_zeta};
pub use byzantine::{byzantine_measurement, exp_byzantine, ByzantineReport};
pub use churn::{churn_measurement, exp_churn, ChurnReport};
pub use comparison::{e10_baselines, e11_fault_recovery};
pub use lemmas::{e12_lemma6, e13_comm_models};
pub use scale::{exp_scale, scale_measurement, ScaleReport};
pub use stabilization::{
    e1_clique, e2_disjoint_cliques, e3_trees, e4_max_degree, e5_gnp_two_state, e6_gnp_three_color,
    e9_three_state_clique, ScalingReport,
};
pub use structure::{e7_good_graphs, e8_log_switch};
