//! Workspace bootstrap smoke test: the facade re-exports resolve, the crates
//! link together, and the headline pipeline (generate a graph, run the
//! 2-state process, verify the MIS) works end to end under a fixed seed.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use selfstab_mis::core::init::InitStrategy;
use selfstab_mis::core::{Algorithm, TwoStateProcess};
use selfstab_mis::graph::{generators, mis_check};

/// Every facade module is reachable and exposes a usable symbol.
#[test]
fn facade_reexports_resolve() {
    // graph
    let g = selfstab_mis::graph::generators::complete(4);
    assert_eq!(g.n(), 4);
    // core
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let proc = selfstab_mis::core::TwoStateProcess::with_init(&g, InitStrategy::AllWhite, &mut rng);
    assert_eq!(proc.round(), 0);
    // comm: in a clique, one beeping node is heard by every other node.
    let mut heard = [false; 4];
    selfstab_mis::comm::beeping::beep_round(&g, |u| u == 0, &mut heard);
    assert_eq!(heard, [false, true, true, true]);
    // baselines
    let out = selfstab_mis::baselines::luby_mis(&g, &mut rng);
    assert!(mis_check::is_mis(&g, &out.mis));
    // sim
    let summary = selfstab_mis::sim::stats::Summary::from_counts([1usize, 2, 3]);
    assert_eq!(summary.count, 3);
}

/// A 50-node G(n,p) TwoState run stabilizes to a verified MIS under a fixed
/// seed.
#[test]
fn two_state_stabilizes_on_gnp_50() {
    let mut rng = ChaCha8Rng::seed_from_u64(1234);
    let g = generators::gnp(50, 0.1, &mut rng);
    let mut proc = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut rng);
    let rounds = proc
        .run_to_stabilization(&mut rng, 100_000)
        .expect("2-state process stabilizes on G(50, 0.1)");
    assert!(rounds <= 100_000);
    assert!(proc.is_stabilized());
    assert!(mis_check::is_mis(&g, &proc.black_set()));
}

/// The run is deterministic: the same seed yields the same stabilization
/// time and the same MIS.
#[test]
fn fixed_seed_is_reproducible() {
    let run = || {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let g = generators::gnp(50, 0.1, &mut rng);
        let mut proc = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut rng);
        let rounds = proc
            .run_to_stabilization(&mut rng, 100_000)
            .expect("stabilizes");
        (rounds, proc.black_set())
    };
    assert_eq!(run(), run());
}
