//! The builtin algorithm registry: every algorithm the workspace ships,
//! under one stable string key each.
//!
//! | key | algorithm | crate |
//! |-----|-----------|-------|
//! | `two-state` | 2-state MIS process (Definition 4) | `mis-core` |
//! | `three-state` | 3-state MIS process (Definition 5) | `mis-core` |
//! | `three-color` | 3-color process + randomized switch (Definition 28) | `mis-core` |
//! | `beeping-two-state` | 2-state process over the beeping channel | `mis-comm` |
//! | `stone-age-three-state` | 3-state process over the stone-age channel | `mis-comm` |
//! | `stone-age-three-color` | 3-color process over the stone-age channel | `mis-comm` |
//! | `luby` | Luby's algorithm (baseline) | `mis-baselines` |
//! | `random-priority` | random-priority self-stabilizing baseline | `mis-baselines` |
//! | `greedy` | sequential greedy (baseline) | `mis-baselines` |
//! | `sequential-selfstab` | deterministic sequential self-stab (baseline) | `mis-baselines` |
//!
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

/// Registers every builtin algorithm (core processes, communication-model
/// adaptations, baselines) into `registry`.
pub fn register_builtin_algorithms(registry: &mut Registry) {
    mis_core::register_core_algorithms(registry);
    mis_comm::register_comm_algorithms(registry);
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
