//! Ablation experiments for the design choices called out in `DESIGN.md`:
//! the switch probability `ζ`, the switch implementation (randomized vs
//! deterministic oracle), and the initial-state strategy.

use mis_core::init::InitStrategy;
use mis_core::{
    Algorithm, FixedPeriodSwitch, RandomizedLogSwitch, ThreeColorProcess, TwoStateProcess,
};
use mis_graph::generators;
use mis_sim::stats::Summary;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::Scale;

/// One row of an ablation table: a configuration label and the stabilization
/// statistics measured for it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Which knob was varied and to what value.
    pub configuration: String,
    /// Stabilization-time summary over the trials.
    pub rounds: Summary,
    /// Fraction of trials that stabilized within the budget (must be 1.0).
    pub stabilized_fraction: f64,
}

/// Renders ablation rows as CSV.
pub fn ablation_csv(rows: &[AblationRow]) -> String {
    let mut out =
        String::from("configuration,rounds_mean,rounds_median,rounds_p90,stabilized_fraction\n");
    for r in rows {
        out.push_str(&format!(
            "{},{:.1},{:.1},{:.1},{:.3}\n",
            r.configuration, r.rounds.mean, r.rounds.median, r.rounds.p90, r.stabilized_fraction
        ));
    }
    out
}

fn run_three_color_with_zeta(
    n: usize,
    p: f64,
    zeta: f64,
    trials: usize,
    base_seed: u64,
) -> AblationRow {
    let mut rounds = Vec::new();
    let mut stabilized = 0usize;
    for t in 0..trials {
        let mut rng = ChaCha8Rng::seed_from_u64(base_seed + t as u64);
        let g = generators::gnp(n, p, &mut rng);
        let colors = InitStrategy::Random.three_color(g.n(), &mut rng);
        let switch = RandomizedLogSwitch::with_init(&g, InitStrategy::Random, zeta, &mut rng);
        let mut proc = ThreeColorProcess::new(&g, colors, switch);
        match proc.run_to_stabilization(&mut rng, 2_000_000) {
            Ok(r) => {
                rounds.push(r);
                stabilized += 1;
            }
            Err(e) => rounds.push(e.rounds_executed),
        }
    }
    AblationRow {
        configuration: format!("three-color zeta=1/{}", (1.0 / zeta).round() as u64),
        rounds: Summary::from_counts(rounds),
        stabilized_fraction: stabilized as f64 / trials as f64,
    }
}

/// Ablation A1 — the switch probability `ζ`: the paper fixes `ζ = 2⁻⁷`
/// (`a = 512`); smaller `a` (larger `ζ`) shortens the gray waiting period and
/// the absolute stabilization time, at the cost of the (S2) guarantee holding
/// only for smaller graphs. Measured on `G(n, 0.3)`.
pub fn ablation_switch_zeta(scale: Scale) -> Vec<AblationRow> {
    let n = match scale {
        Scale::Quick => 128,
        Scale::Full => 512,
    };
    let trials = scale.trials(24);
    [1.0 / 8.0, 1.0 / 32.0, 1.0 / 128.0]
        .into_iter()
        .map(|zeta| run_three_color_with_zeta(n, 0.3, zeta, trials, 61_000))
        .collect()
}

/// Ablation A2 — the switch implementation: the randomized logarithmic switch
/// versus a deterministic oracle switch with the same nominal period
/// (`on = 3`, `off = (a/6)·ln n` with `a = 512`). The oracle removes the
/// switch's randomness entirely and isolates how much of the 3-color
/// process's cost comes from the gray waiting period itself.
pub fn ablation_switch_implementation(scale: Scale) -> Vec<AblationRow> {
    let n = match scale {
        Scale::Quick => 128,
        Scale::Full => 512,
    };
    let trials = scale.trials(24);
    let p = 0.3;
    let mut rows = vec![run_three_color_with_zeta(n, p, 1.0 / 128.0, trials, 62_000)];

    let mut rounds = Vec::new();
    let mut stabilized = 0usize;
    for t in 0..trials {
        let mut rng = ChaCha8Rng::seed_from_u64(63_000 + t as u64);
        let g = generators::gnp(n, p, &mut rng);
        let colors = InitStrategy::Random.three_color(g.n(), &mut rng);
        let off = ((512.0 / 6.0) * (n as f64).ln()).ceil() as usize;
        let switch = FixedPeriodSwitch::new(g.n(), 3, off);
        let mut proc = ThreeColorProcess::new(&g, colors, switch);
        match proc.run_to_stabilization(&mut rng, 2_000_000) {
            Ok(r) => {
                rounds.push(r);
                stabilized += 1;
            }
            Err(e) => rounds.push(e.rounds_executed),
        }
    }
    rows.push(AblationRow {
        configuration: "three-color oracle-switch(on=3, off=(a/6)ln n)".into(),
        rounds: Summary::from_counts(rounds),
        stabilized_fraction: stabilized as f64 / trials as f64,
    });
    rows
}

/// Ablation A3 — the initial-state strategy: self-stabilization means the
/// stabilization time should be comparable from every initialization,
/// including the adversarial-looking all-black configuration. Measured for
/// the 2-state process on `G(n, 8/n)`.
pub fn ablation_init_strategy(scale: Scale) -> Vec<AblationRow> {
    let n = match scale {
        Scale::Quick => 200,
        Scale::Full => 1000,
    };
    let trials = scale.trials(32);
    [
        InitStrategy::AllWhite,
        InitStrategy::AllBlack,
        InitStrategy::Random,
        InitStrategy::Alternating,
    ]
    .into_iter()
    .map(|init| {
        let mut rounds = Vec::new();
        let mut stabilized = 0usize;
        for t in 0..trials {
            let mut rng = ChaCha8Rng::seed_from_u64(64_000 + t as u64);
            let g = generators::gnp(n, 8.0 / n as f64, &mut rng);
            let mut proc = TwoStateProcess::with_init(&g, init, &mut rng);
            match proc.run_to_stabilization(&mut rng, 1_000_000) {
                Ok(r) => {
                    rounds.push(r);
                    stabilized += 1;
                }
                Err(e) => rounds.push(e.rounds_executed),
            }
        }
        AblationRow {
            configuration: format!("two-state init={init:?}"),
            rounds: Summary::from_counts(rounds),
            stabilized_fraction: stabilized as f64 / trials as f64,
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeta_ablation_shows_larger_zeta_is_faster() {
        let rows = ablation_switch_zeta(Scale::Quick);
        assert_eq!(rows.len(), 3);
        assert!(rows
            .iter()
            .all(|r| (r.stabilized_fraction - 1.0).abs() < 1e-9));
        // zeta = 1/8 waits ~8x less at level 5 than zeta = 1/128, so it must
        // stabilize in fewer rounds on average.
        assert!(
            rows[0].rounds.mean < rows[2].rounds.mean,
            "zeta=1/8 ({:.0}) should be faster than zeta=1/128 ({:.0})",
            rows[0].rounds.mean,
            rows[2].rounds.mean
        );
        assert_eq!(ablation_csv(&rows).lines().count(), 4);
    }

    #[test]
    fn switch_implementation_ablation_stabilizes_with_both_switches() {
        let rows = ablation_switch_implementation(Scale::Quick);
        assert_eq!(rows.len(), 2);
        assert!(
            rows.iter()
                .all(|r| (r.stabilized_fraction - 1.0).abs() < 1e-9),
            "rows: {rows:?}"
        );
    }

    #[test]
    fn init_strategy_ablation_stabilizes_from_every_initialization() {
        let rows = ablation_init_strategy(Scale::Quick);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                (r.stabilized_fraction - 1.0).abs() < 1e-9,
                "{}",
                r.configuration
            );
            assert!(r.rounds.mean >= 1.0);
        }
    }
}
