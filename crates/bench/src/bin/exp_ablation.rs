//! Ablation experiments: the switch probability `ζ`, the
//! switch implementation, and the initial-state strategy.
//!
//! Usage: `cargo run --release -p mis-bench --bin exp_ablation [-- --quick]`

use mis_bench::experiments::ablation::{
    ablation_csv, ablation_init_strategy, ablation_switch_implementation, ablation_switch_zeta,
};
use mis_bench::report::{print_section, write_results_file};
use mis_bench::Scale;

fn main() {
    let scale = Scale::from_args();

    let zeta = ablation_switch_zeta(scale);
    print_section(
        "A1: 3-color stabilization vs switch probability ζ (paper: ζ = 2⁻⁷)",
        &ablation_csv(&zeta),
    );

    let switch = ablation_switch_implementation(scale);
    print_section(
        "A2: randomized logarithmic switch vs deterministic oracle switch",
        &ablation_csv(&switch),
    );

    let init = ablation_init_strategy(scale);
    print_section(
        "A3: 2-state stabilization time from different initializations (self-stabilization)",
        &ablation_csv(&init),
    );

    let mut all = zeta;
    all.extend(switch);
    all.extend(init);
    if let Ok(path) = write_results_file("ablation.csv", &ablation_csv(&all)) {
        println!("wrote {}", path.display());
    }
}
