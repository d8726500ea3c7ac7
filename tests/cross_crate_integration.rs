//! Cross-crate integration tests: every process, on every graph family, from
//! every initialization, reaches a valid MIS; and the different
//! implementations of the same process agree with each other.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use selfstab_mis::baselines::{greedy_mis, luby_mis, RandomPriorityMis};
use selfstab_mis::comm::beeping::two_state_round;
use selfstab_mis::core::init::InitStrategy;
use selfstab_mis::core::{
    Algorithm, AlgorithmConfig, ExecutionMode, RoundStrategy, ThreeColorProcess, ThreeStateProcess,
    TwoStateProcess,
};
use selfstab_mis::graph::{generators, mis_check, Graph};
use selfstab_mis::sim::builtin_registry;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn graph_zoo(rng: &mut ChaCha8Rng) -> Vec<(String, Graph)> {
    vec![
        ("empty".into(), Graph::empty(17)),
        ("single".into(), Graph::empty(1)),
        ("complete".into(), generators::complete(40)),
        ("path".into(), generators::path(60)),
        ("cycle".into(), generators::cycle(61)),
        ("star".into(), generators::star(50)),
        ("tree".into(), generators::random_tree(120, rng)),
        ("grid".into(), generators::grid(9, 9)),
        (
            "disjoint-cliques".into(),
            generators::disjoint_cliques(6, 7),
        ),
        ("gnp-sparse".into(), generators::gnp(150, 0.03, rng)),
        ("gnp-dense".into(), generators::gnp(90, 0.5, rng)),
        ("regular".into(), generators::regular(80, 6, rng).unwrap()),
        ("barbell".into(), generators::barbell(12, 3)),
        ("forest-union".into(), generators::forest_union(100, 3, rng)),
    ]
}

#[test]
fn all_processes_reach_an_mis_on_the_graph_zoo() {
    let mut r = rng(1);
    for (name, g) in graph_zoo(&mut r) {
        for init in [
            InitStrategy::AllWhite,
            InitStrategy::AllBlack,
            InitStrategy::Random,
            InitStrategy::Alternating,
        ] {
            let mut p = TwoStateProcess::with_init(&g, init, &mut r);
            p.run_to_stabilization(&mut r, 1_000_000).unwrap();
            assert!(
                mis_check::is_mis(&g, &p.black_set()),
                "two-state on {name} from {init:?}"
            );

            let mut p = ThreeStateProcess::with_init(&g, init, &mut r);
            p.run_to_stabilization(&mut r, 1_000_000).unwrap();
            assert!(
                mis_check::is_mis(&g, &p.black_set()),
                "three-state on {name} from {init:?}"
            );

            let mut p = ThreeColorProcess::with_randomized_switch(&g, init, &mut r);
            p.run_to_stabilization(&mut r, 1_000_000).unwrap();
            assert!(
                mis_check::is_mis(&g, &p.black_set()),
                "three-color on {name} from {init:?}"
            );
        }
    }
}

#[test]
fn communication_model_adaptations_reach_an_mis_on_the_graph_zoo() {
    let mut r = rng(2);
    let config = AlgorithmConfig {
        init: InitStrategy::Random,
        execution: ExecutionMode::Sequential,
        strategy: RoundStrategy::Auto,
        counter_seed: 0,
    };
    for (name, g) in graph_zoo(&mut r) {
        for key in [
            "beeping-two-state",
            "stone-age-three-state",
            "stone-age-three-color",
        ] {
            let factory = builtin_registry().get(key).expect("builtin key");
            let mut p = factory.init(&g, &config, &mut r);
            p.run_to_stabilization(&mut r, 1_000_000).unwrap();
            assert!(mis_check::is_mis(&g, &p.black_set()), "{key} on {name}");
        }
    }
}

#[test]
fn baselines_reach_an_mis_on_the_graph_zoo() {
    let mut r = rng(3);
    for (name, g) in graph_zoo(&mut r) {
        assert!(mis_check::is_mis(&g, &greedy_mis(&g)), "greedy on {name}");
        assert!(
            mis_check::is_mis(&g, &luby_mis(&g, &mut r).mis),
            "luby on {name}"
        );
        let mut alg = RandomPriorityMis::random_init(&g, &mut r);
        let out = alg.run(&mut r, 1_000_000).unwrap();
        assert!(mis_check::is_mis(&g, &out.mis), "random-priority on {name}");
    }
}

/// The engine's 2-state process against the beeping reference round, which
/// updates each node from its color and its "heard a beep" bit only.
#[test]
fn beeping_adaptation_is_trace_equivalent_to_the_direct_process() {
    let mut setup = rng(4);
    let g = generators::gnp(120, 0.06, &mut setup);
    let mut beeping = InitStrategy::Random.two_state(g.n(), &mut setup);
    let mut direct = TwoStateProcess::new(&g, beeping.clone());
    let mut ra = rng(5);
    let mut rb = rng(5);
    let mut beeping_bits = 0;
    while !direct.is_stabilized() {
        assert_eq!(direct.states(), beeping);
        direct.step(&mut ra);
        beeping_bits += two_state_round(&g, &mut beeping, None, &mut rb);
        assert!(direct.round() < 1_000_000);
    }
    assert_eq!(direct.states(), beeping);
    assert_eq!(direct.random_bits_used(), beeping_bits);
    assert!(selfstab_mis::comm::is_stabilized(&g, |u| beeping[u].is_black()));
}

#[test]
fn stable_black_sets_are_monotone_and_final_mis_contains_them() {
    // I_t ⊆ I_{t+1} ⊆ final MIS — the core monotonicity the analysis relies on.
    let mut r = rng(6);
    let g = generators::gnp(100, 0.08, &mut r);
    let mut p = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
    let mut previous = p.stable_black_set();
    while !p.is_stabilized() {
        p.step(&mut r);
        let current = p.stable_black_set();
        assert!(
            previous.is_subset(&current),
            "I_t must be monotone non-decreasing"
        );
        previous = current;
    }
    assert_eq!(previous, p.black_set());
    assert!(mis_check::is_mis(&g, &previous));
}

#[test]
fn processes_use_constant_random_bits_per_vertex_per_round() {
    // The headline resource claim: at most 1 bit per vertex per round for the
    // 2-state process (plus the switch's constant for the 3-color process),
    // versus 32 per vertex per round for the random-priority baseline.
    let mut r = rng(7);
    let g = generators::gnp(200, 0.05, &mut r);

    let mut two = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r);
    two.run_to_stabilization(&mut r, 1_000_000).unwrap();
    assert!(two.random_bits_used() <= (two.round() as u64) * g.n() as u64);

    let mut rp = RandomPriorityMis::random_init(&g, &mut r);
    let out = rp.run(&mut r, 1_000_000).unwrap();
    assert_eq!(out.random_bits, 32 * g.n() as u64 * out.rounds as u64);
}
