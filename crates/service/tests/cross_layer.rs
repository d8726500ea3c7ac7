//! Cross-layer checks over the whole registry.
//!
//! * What each registry key declares it supports, pinned through the
//!   public surfaces that read the declarations: `GET /v1/algorithms`
//!   (communication model, topology changes, parallel rounds, partial
//!   activation, traces) and the experiment runner's up-front checks
//!   (partial activation, faults, topology changes, Byzantine overrides).
//! * A service job equals the driver: a `JobStore` job with seed `s`
//!   reports the same rounds, random bits, stabilization verdict and MIS as
//!   `factory.init` + `drive_algorithm` on the same graph, with the trial
//!   RNG seeded by `s` and the counter RNG keyed by `s ^ COUNTER_SEED_SALT`.
//!   A job that takes a live `PATCH` delta equals the driver run up to the
//!   job's apply round, `apply_mutation` of the same delta, and the driver
//!   again on the same RNG.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use mis_core::init::InitStrategy;
use mis_core::{AlgorithmConfig, ByzantineStrategy, ExecutionMode, RoundStrategy};
use mis_graph::{generators, GraphDelta};
use mis_service::api::{AlgorithmInfo, JobRequest, JobStatus, DEFAULT_MAX_ROUNDS};
use mis_service::graphs::{GraphEntry, GraphRegistry};
use mis_service::jobs::{ndjson_stream, JobStore};
use mis_service::{Service, ServiceConfig};
use mis_sim::runner::{run_trial, COUNTER_SEED_SALT};
use mis_sim::spec::{
    ByzantineSpec, ChurnScenario, ChurnSpec, ExperimentSpec, FaultSpec, GraphSpec, SchedulerSpec,
    VictimSelection,
};
use mis_sim::{builtin_registry, drive_algorithm};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use warp::Client;

/// One row of the capability table.
struct Declared {
    key: &'static str,
    model: &'static str,
    topology: bool,
    parallel: bool,
    partial: bool,
    faults: bool,
    byzantine: bool,
    trace: bool,
}

const fn row(
    key: &'static str,
    model: &'static str,
    [topology, parallel, partial, faults, byzantine, trace]: [u8; 6],
) -> Declared {
    Declared {
        key,
        model,
        topology: topology == 1,
        parallel: parallel == 1,
        partial: partial == 1,
        faults: faults == 1,
        byzantine: byzantine == 1,
        trace: trace == 1,
    }
}

/// Columns: topology, parallel, partial, faults, byzantine, trace.
const TABLE: [Declared; 10] = [
    row("two-state", "full-state-exchange", [1, 1, 1, 1, 1, 1]),
    row("three-state", "full-state-exchange", [1, 1, 1, 1, 1, 1]),
    row("three-color", "full-state-exchange", [1, 1, 0, 1, 1, 1]),
    row("beeping-two-state", "beeping", [1, 1, 1, 1, 1, 1]),
    row("stone-age-three-state", "stone-age", [1, 1, 1, 1, 1, 1]),
    row("stone-age-three-color", "stone-age", [1, 1, 0, 1, 1, 1]),
    row("random-priority", "message-passing", [0, 0, 0, 1, 0, 1]),
    row("luby", "message-passing", [0, 0, 0, 0, 0, 0]),
    row("greedy", "centralized", [0, 0, 0, 0, 0, 0]),
    row("sequential-selfstab", "centralized", [0, 0, 0, 0, 0, 0]),
];

/// Runs one runner trial of `key` with `extra` applied to the spec, and
/// returns the panic message if the runner refused it.
fn runner_refusal(
    key: &str,
    extra: impl FnOnce(mis_sim::spec::ExperimentSpecBuilder) -> mis_sim::spec::ExperimentSpecBuilder,
) -> Option<String> {
    let spec = extra(
        ExperimentSpec::builder()
            .algorithm(key)
            .graph(GraphSpec::Gnp { n: 40, p: 0.1 })
            .trials(1)
            .max_rounds(300)
            .base_seed(3),
    )
    .build();
    let panic = catch_unwind(AssertUnwindSafe(|| run_trial(&spec, 0))).err()?;
    Some(
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default(),
    )
}

/// Asserts the runner accepts `key` with `extra` iff `supported`, and
/// refuses it with a message containing `refusal` otherwise.
fn check_runner(
    key: &str,
    supported: bool,
    refusal: &str,
    extra: impl FnOnce(mis_sim::spec::ExperimentSpecBuilder) -> mis_sim::spec::ExperimentSpecBuilder,
) {
    match runner_refusal(key, extra) {
        None => assert!(
            supported,
            "{key}: runner accepted an undeclared capability ({refusal})"
        ),
        Some(message) => {
            assert!(
                !supported,
                "{key}: runner refused a declared capability: {message}"
            );
            assert!(
                message.contains(refusal),
                "{key}: unexpected refusal: {message}"
            );
        }
    }
}

#[test]
fn every_registry_key_declares_the_pinned_capabilities() {
    let service = Service::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::new(service.local_addr().to_string());
    let resp = client.get("/v1/algorithms").unwrap();
    assert_eq!(resp.status, 200);
    let catalog: Vec<AlgorithmInfo> =
        serde_json::from_str(resp.text().expect("UTF-8 body")).expect("catalog JSON");
    service.shutdown();

    assert_eq!(catalog.len(), TABLE.len());
    for want in &TABLE {
        let info = catalog
            .iter()
            .find(|a| a.key == want.key)
            .unwrap_or_else(|| panic!("{} missing from GET /v1/algorithms", want.key));
        assert_eq!(info.communication_model, want.model, "{}", want.key);
        assert_eq!(
            (
                info.supports_topology_change,
                info.supports_parallel,
                info.supports_partial_activation,
                info.supports_trace
            ),
            (want.topology, want.parallel, want.partial, want.trace),
            "{}: catalog flags (topology, parallel, partial, trace)",
            want.key
        );

        check_runner(want.key, want.partial, "(no partial activation)", |b| {
            b.scheduler(SchedulerSpec::RandomSubset { p: 0.5 })
        });
        check_runner(
            want.key,
            want.faults,
            "does not support fault injection",
            |b| b.fault(FaultSpec::after_stabilization(0.2)),
        );
        check_runner(
            want.key,
            want.topology,
            "does not support topology changes (churn)",
            |b| {
                b.churn(ChurnSpec::after_stabilization(ChurnScenario::EdgeChurn {
                    fraction: 0.05,
                }))
            },
        );
        check_runner(
            want.key,
            want.byzantine,
            "does not support Byzantine overrides",
            |b| {
                b.byzantine(ByzantineSpec::new(
                    ByzantineStrategy::Frozen,
                    VictimSelection::Random { count: 2 },
                ))
            },
        );
    }
}

/// Polls `job` until it reaches a terminal state.
fn wait_terminal(job: &Arc<mis_service::jobs::Job>) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !job.status().is_terminal() {
        assert!(
            Instant::now() < deadline,
            "job {} did not finish",
            job.info().id
        );
        thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn service_jobs_equal_the_driver_for_every_key() {
    let mut setup = ChaCha8Rng::seed_from_u64(300);
    let graph = generators::gnp(300, 0.03, &mut setup);
    let entry = GraphEntry::detached(1, "gnp".into(), "gnp(300, 0.03)".into(), graph.clone());
    let store = JobStore::start(2, 0, None);

    let mut cases = Vec::new();
    for (i, key) in builtin_registry().keys().into_iter().enumerate() {
        let executions = [
            ExecutionMode::Sequential,
            ExecutionMode::Parallel { threads: 2 },
        ];
        for execution in executions {
            cases.push((key, execution, SchedulerSpec::Synchronous, 11 + i as u64));
        }
        if TABLE.iter().any(|d| d.key == key && d.partial) {
            let scheduler = SchedulerSpec::RandomSubset { p: 0.5 };
            cases.push((key, ExecutionMode::Sequential, scheduler, 71 + i as u64));
        }
    }
    assert_eq!(cases.len(), 24);

    for (key, execution, scheduler, seed) in cases {
        let label = format!("{key} / {execution:?} / {}", scheduler.label());
        let mut request = JobRequest::new(1, key);
        request.seed = seed;
        request.execution = execution;
        request.scheduler = scheduler;
        let job = store.submit(Arc::clone(&entry), request).expect("submit");
        wait_terminal(&job);
        let info = job.info();
        let outcome = info
            .outcome
            .unwrap_or_else(|| panic!("{label}: job ended {:?}: {:?}", info.status, info.error));

        let factory = builtin_registry().get(key).expect("registry key");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let config = AlgorithmConfig {
            init: InitStrategy::Random,
            execution,
            strategy: RoundStrategy::Auto,
            counter_seed: seed ^ COUNTER_SEED_SALT,
        };
        let mut alg = factory.init(&graph, &config, &mut rng);
        let mut sched = scheduler.build();
        let driven = drive_algorithm(
            alg.as_mut(),
            sched.as_mut(),
            &mut rng,
            DEFAULT_MAX_ROUNDS,
            None,
            None,
            None,
            &mut [],
        );

        assert_eq!(outcome.rounds, driven.rounds, "{label}: rounds");
        assert_eq!(
            outcome.random_bits, driven.random_bits,
            "{label}: random bits"
        );
        assert_eq!(outcome.stabilized, driven.stabilized, "{label}: stabilized");
        assert_eq!(
            job.mis().expect("completed job keeps its MIS"),
            driven.black_set.iter().collect::<Vec<_>>(),
            "{label}: MIS"
        );
    }
    store.drain();
}

#[test]
fn patched_jobs_equal_the_driver_with_the_same_delta() {
    let mut setup = ChaCha8Rng::seed_from_u64(301);
    let graph = generators::gnp(300, 0.03, &mut setup);
    // One delta of each kind, on disjoint vertices: add an edge, remove an
    // edge, join a vertex, detach a vertex.
    let (a, b) = graph
        .vertices()
        .flat_map(|u| (u + 1..graph.n()).map(move |v| (u, v)))
        .find(|&(u, v)| u > 10 && !graph.has_edge(u, v))
        .expect("a non-edge");
    let (c, d) = graph
        .edges()
        .find(|&(u, v)| u > b && v > b)
        .expect("an edge clear of the insertion");
    let mut delta = GraphDelta::new();
    delta
        .add_edge(a, b)
        .remove_edge(c, d)
        .add_vertex([0, 1, 2])
        .detach_vertex(3);

    let executions = [
        ExecutionMode::Sequential,
        ExecutionMode::Parallel { threads: 2 },
    ];
    for (i, key) in [
        "two-state",
        "three-state",
        "three-color",
        "beeping-two-state",
        "stone-age-three-state",
        "stone-age-three-color",
    ]
    .into_iter()
    .enumerate()
    {
        for execution in executions {
            let label = format!("{key} / {execution:?}");
            let seed = 41 + i as u64;
            let registry = GraphRegistry::new();
            let entry = registry.insert("gnp".into(), "gnp(300, 0.03)".into(), graph.clone());
            let store = JobStore::start(1, 0, None);
            let mut request = JobRequest::new(entry.id, key);
            request.seed = seed;
            request.execution = execution;
            request.linger_micros = 30_000_000;
            let job = store.submit(Arc::clone(&entry), request).expect("submit");
            let deadline = Instant::now() + Duration::from_secs(60);
            while job.status() == JobStatus::Queued {
                assert!(Instant::now() < deadline, "{label}: job never started");
                thread::sleep(Duration::from_millis(1));
            }
            // Let the job snapshot its graph (and converge) before the patch.
            thread::sleep(Duration::from_millis(50));
            let (_, version) = entry.apply_delta(&delta).expect("valid delta");
            assert_eq!(job.push_delta(&delta, version), Some(true), "{label}");

            // The job streams its `topology` event when it applies the delta.
            let mut stream = ndjson_stream(job.events());
            let mut text = String::new();
            let topology = loop {
                let chunk = stream().unwrap_or_else(|| panic!("{label}: no topology event"));
                text.push_str(std::str::from_utf8(&chunk).expect("UTF-8 events"));
                if let Some(line) = text.lines().find(|l| l.contains("\"event\":\"topology\"")) {
                    break line.to_string();
                }
            };
            let event: serde::Value = serde_json::from_str(&topology).expect("event JSON");
            let apply_round: usize =
                serde::Deserialize::from_value(serde::get_field(&event, "round").expect("round"))
                    .expect("round number");
            store.drain();
            let info = job.info();
            let outcome = info.outcome.unwrap_or_else(|| {
                panic!("{label}: job ended {:?}: {:?}", info.status, info.error)
            });

            let factory = builtin_registry().get(key).expect("registry key");
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let config = AlgorithmConfig {
                init: InitStrategy::Random,
                execution,
                strategy: RoundStrategy::Auto,
                counter_seed: seed ^ COUNTER_SEED_SALT,
            };
            let mut alg = factory.init(&graph, &config, &mut rng);
            let mut sched = SchedulerSpec::Synchronous.build();
            let before = drive_algorithm(
                alg.as_mut(),
                sched.as_mut(),
                &mut rng,
                apply_round,
                None,
                None,
                None,
                &mut [],
            );
            assert_eq!(before.rounds, apply_round, "{label}: apply round");
            alg.apply_mutation(&delta)
                .expect("the driver takes the delta");
            let driven = drive_algorithm(
                alg.as_mut(),
                sched.as_mut(),
                &mut rng,
                DEFAULT_MAX_ROUNDS,
                None,
                None,
                None,
                &mut [],
            );

            assert_eq!(outcome.mutations_applied, 1, "{label}: mutations applied");
            assert_eq!(outcome.rounds, driven.rounds, "{label}: rounds");
            assert_eq!(
                outcome.random_bits, driven.random_bits,
                "{label}: random bits"
            );
            assert!(
                outcome.stabilized && driven.stabilized,
                "{label}: stabilized"
            );
            assert!(outcome.valid_mis, "{label}: valid MIS");
            assert_eq!(outcome.n, graph.n() + 1, "{label}: joined vertex");
            assert_eq!(
                job.mis().expect("completed job keeps its MIS"),
                driven.black_set.iter().collect::<Vec<_>>(),
                "{label}: MIS"
            );
        }
    }
}
