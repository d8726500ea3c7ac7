//! The builtin algorithm registry: every algorithm the workspace ships,
//! under one stable string key each.
//!
//! | key | algorithm | crate |
//! |-----|-----------|-------|
//! | `two-state` | 2-state MIS process (Definition 4) | `mis-core` |
//! | `three-state` | 3-state MIS process (Definition 5) | `mis-core` |
//! | `three-color` | 3-color process + randomized switch (Definition 28) | `mis-core` |
//! | `beeping-two-state` | the `two-state` rule, reported as a beeping algorithm | `mis-core` |
//! | `stone-age-three-state` | the `three-state` rule, reported as a stone-age algorithm | `mis-core` |
//! | `stone-age-three-color` | the `three-color` rule, reported as a stone-age algorithm | `mis-core` |
//! | `luby` | Luby's algorithm (baseline) | `mis-baselines` |
//! | `random-priority` | random-priority self-stabilizing baseline | `mis-baselines` |
//! | `greedy` | sequential greedy (baseline) | `mis-baselines` |
//! | `sequential-selfstab` | deterministic sequential self-stab (baseline) | `mis-baselines` |
//!
//! Both keys of a pair build the same engine process, whose rule reads
//! only what the beeping or stone-age channel delivers (`mis-comm` keeps
//! each channel as a reference round for tests).
//! Each entry is an [`AlgorithmFactory`](mis_core::AlgorithmFactory) that
//! declares once what its instances support
//! ([`Capabilities`](mis_core::Capabilities)); the runner, the service's job
//! worker and `GET /v1/algorithms` read the declarations there.
//! [`ExperimentSpec`](crate::spec::ExperimentSpec) resolves its algorithm
//! through [`builtin_registry`]; external algorithms can be run by building
//! a custom [`Registry`] (register your own entry next to
//! [`register_builtin_algorithms`]) and calling
//! [`run_experiment_with`](crate::runner::run_experiment_with).

use std::sync::OnceLock;

use mis_core::Registry;

/// Registers every builtin algorithm (the paper's processes under their
/// direct and weak-communication keys, and the baselines) into `registry`.
pub fn register_builtin_algorithms(registry: &mut Registry) {
    mis_core::register_core_algorithms(registry);
    mis_baselines::register_baseline_algorithms(registry);
}

/// The shared, lazily initialized registry of all builtin algorithms.
pub fn builtin_registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut registry = Registry::new();
        register_builtin_algorithms(&mut registry);
        registry
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_has_all_ten_algorithms() {
        let r = builtin_registry();
        assert_eq!(r.len(), 10);
        for key in [
            "two-state",
            "three-state",
            "three-color",
            "beeping-two-state",
            "stone-age-three-state",
            "stone-age-three-color",
            "luby",
            "random-priority",
            "greedy",
            "sequential-selfstab",
        ] {
            assert!(r.contains(key), "missing builtin algorithm '{key}'");
            assert!(!r.get(key).unwrap().description().is_empty());
        }
    }
}
