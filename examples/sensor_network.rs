//! Wireless sensor network scenario: elect a set of cluster heads (an MIS) in
//! a network of radio nodes that can only *beep*.
//!
//! The nodes are scattered on a unit square and two nodes can hear each other
//! when they are within communication radius — a random geometric graph, the
//! standard model for sensor deployments. The nodes then run the 2-state MIS
//! process in the beeping model (black nodes beep, white nodes listen, one
//! carrier-sense bit per round), starting from *arbitrary* states, exactly as
//! a self-stabilizing deployment would after a reboot or radio glitch.
//!
//! Run with: `cargo run --release --example sensor_network`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use selfstab_mis::comm::beeping::BeepingTwoStateMis;
use selfstab_mis::core::init::InitStrategy;
use selfstab_mis::core::Algorithm;
use selfstab_mis::graph::{generators, mis_check};

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(77);

    // Deploy 500 sensors uniformly at random on the unit square with a
    // communication radius chosen so the network is connected w.h.p.
    let n = 500;
    let radius = 0.08;
    let (g, _positions) = generators::random_geometric(n, radius, &mut rng);
    println!(
        "sensor network: {} nodes, {} links, average degree {:.1}, max degree {}",
        g.n(),
        g.m(),
        g.average_degree(),
        g.max_degree()
    );

    // The nodes wake up in arbitrary states (e.g. after a power glitch).
    let mut network = BeepingTwoStateMis::with_init(&g, InitStrategy::Random, &mut rng);
    let rounds = network
        .run_to_stabilization(&mut rng, 1_000_000)
        .expect("the beeping MIS process stabilizes with probability 1");

    let cluster_heads = network.black_set();
    assert!(mis_check::is_mis(&g, &cluster_heads));
    println!(
        "elected {} cluster heads in {} beeping rounds ({} random bits total)",
        cluster_heads.len(),
        rounds,
        network.random_bits_used()
    );

    // Every sensor is either a cluster head or within one hop of one
    // (maximality), and no two cluster heads interfere (independence).
    let covered = g
        .vertices()
        .filter(|&u| {
            cluster_heads.contains(u) || g.neighbors(u).iter().any(|v| cluster_heads.contains(v))
        })
        .count();
    println!(
        "coverage: {covered}/{} sensors are a cluster head or adjacent to one",
        g.n()
    );
}
