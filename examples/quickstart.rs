//! Quickstart: run the 2-state MIS process on a random graph, watch it
//! stabilize, and verify that the black vertices form a maximal independent
//! set.
//!
//! Run with: `cargo run --release --example quickstart`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use selfstab_mis::core::init::InitStrategy;
use selfstab_mis::core::{Algorithm, TwoStateProcess};
use selfstab_mis::graph::{generators, mis_check};

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(2023);

    // A sparse Erdős–Rényi graph with average degree ~8.
    let n = 1_000;
    let g = generators::gnp(n, 8.0 / n as f64, &mut rng);
    println!(
        "graph: n = {}, m = {}, max degree = {}",
        g.n(),
        g.m(),
        g.max_degree()
    );

    // Self-stabilization means the initial states can be anything at all.
    let mut process = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut rng);

    // Step the process manually so we can print the per-round partition sizes
    // used throughout the paper's analysis: |B_t|, |A_t|, |I_t|, |V_t|.
    println!("\nround   black  active  stable-black  unstable");
    loop {
        let c = process.counts();
        println!(
            "{:>5}  {:>6}  {:>6}  {:>12}  {:>8}",
            process.round(),
            c.black,
            c.active,
            c.stable_black,
            c.unstable
        );
        if process.is_stabilized() {
            break;
        }
        process.step(&mut rng);
    }

    let mis = process.black_set();
    assert!(
        mis_check::is_mis(&g, &mis),
        "the stabilized black set must be an MIS"
    );
    println!(
        "\nstabilized after {} rounds: MIS of size {} ({} random bits used, 2 states per vertex)",
        process.round(),
        mis.len(),
        process.random_bits_used()
    );
}
