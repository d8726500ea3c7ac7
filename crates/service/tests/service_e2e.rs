//! End-to-end tests: a real daemon on a loopback port, driven through the
//! vendored HTTP client — the same path the `service-mix` benchmark
//! workload and `svc_chaos` use.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use mis_graph::{mis_check, Graph, VertexSet};
use mis_service::api::{
    AlgorithmInfo, GraphInfo, JobInfo, JobStatus, MetricsReport, PatchResponse,
};
use mis_service::{Service, ServiceConfig};
use serde::Deserialize;
use warp::{Client, ClientResponse};

fn start_service() -> (Service, Client) {
    let service = Service::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServiceConfig::default()
    })
    .expect("bind loopback");
    let client = Client::new(service.local_addr().to_string());
    (service, client)
}

fn parse<T: Deserialize>(resp: &ClientResponse) -> T {
    serde_json::from_str(resp.text().expect("UTF-8 body")).expect("response JSON")
}

fn create_gnp(client: &mut Client, n: usize, p: f64, seed: u64) -> GraphInfo {
    let body = format!("{{\"spec\": {{\"Gnp\": {{\"n\": {n}, \"p\": {p}}}}}, \"seed\": {seed}}}");
    let resp = client.post_json("/v1/graphs", body).unwrap();
    assert_eq!(resp.status, 201, "{:?}", resp.text());
    parse(&resp)
}

fn poll_job(client: &mut Client, id: u64) -> JobInfo {
    let resp = client.get(&format!("/v1/jobs/{id}")).unwrap();
    assert_eq!(resp.status, 200);
    parse(&resp)
}

fn wait_terminal(client: &mut Client, id: u64) -> JobInfo {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let info = poll_job(client, id);
        if info.status.is_terminal() {
            return info;
        }
        assert!(Instant::now() < deadline, "job {id} did not finish");
        thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn submit_poll_download_lifecycle() {
    let (service, mut client) = start_service();

    // Health and empty listings.
    assert_eq!(client.get("/v1/healthz").unwrap().status, 200);
    let graphs: Vec<GraphInfo> = parse(&client.get("/v1/graphs").unwrap());
    assert!(graphs.is_empty());

    // The algorithm catalog lists the whole registry.
    let algorithms: Vec<AlgorithmInfo> = parse(&client.get("/v1/algorithms").unwrap());
    assert!(algorithms.len() >= 10);
    assert!(algorithms.iter().any(|a| a.key == "two-state"));

    let graph = create_gnp(&mut client, 200, 0.05, 42);
    assert_eq!((graph.id, graph.n, graph.version), (1, 200, 1));

    // Run every registry algorithm once over the same graph.
    let mut job_ids = Vec::new();
    for algorithm in &algorithms {
        let resp = client
            .post_json(
                "/v1/jobs",
                format!(
                    "{{\"graph\": {}, \"algorithm\": \"{}\", \"seed\": 7}}",
                    graph.id, algorithm.key
                ),
            )
            .unwrap();
        assert_eq!(resp.status, 202, "{:?}", resp.text());
        let info: JobInfo = parse(&resp);
        job_ids.push(info.id);
    }
    for id in job_ids {
        let info = wait_terminal(&mut client, id);
        assert_eq!(info.status, JobStatus::Completed, "{info:?}");
        let outcome = info.outcome.unwrap();
        assert!(
            outcome.valid_mis,
            "algorithm {} invalid MIS",
            info.algorithm
        );
        // Download the MIS as NDJSON and re-validate it client-side.
        let resp = client.get(&format!("/v1/jobs/{id}/mis")).unwrap();
        assert_eq!(resp.status, 200);
        let ids: Vec<usize> = resp
            .text()
            .unwrap()
            .lines()
            .map(|l| l.parse().unwrap())
            .collect();
        assert_eq!(ids.len(), outcome.mis_size);
    }

    service.shutdown();
}

#[test]
fn patch_mid_job_restabilizes_to_a_valid_mis() {
    let (service, mut client) = start_service();
    let graph = create_gnp(&mut client, 300, 0.03, 9);

    // A resident job: converge, then linger so the PATCH is guaranteed to
    // land on the *running* algorithm.
    let resp = client
        .post_json(
            "/v1/jobs",
            format!(
                "{{\"graph\": {}, \"algorithm\": \"two-state\", \"seed\": 3, \
                 \"record_trace\": true, \"linger_micros\": 30000000}}",
                graph.id
            ),
        )
        .unwrap();
    assert_eq!(resp.status, 202);
    let job: JobInfo = parse(&resp);

    // Wait for it to be running (resident).
    let deadline = Instant::now() + Duration::from_secs(10);
    while poll_job(&mut client, job.id).status != JobStatus::Running {
        assert!(Instant::now() < deadline);
        thread::sleep(Duration::from_millis(2));
    }

    // Live-mutate: rewire a chunk of the graph under the running job.
    let resp = client
        .patch_json(
            &format!("/v1/graphs/{}/edges", graph.id),
            "{\"add\": [[0,1],[0,2],[0,3],[1,2]], \"remove\": [[4,5]], \
             \"add_vertices\": 3, \"detach\": [6]}",
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{:?}", resp.text());
    let patch: PatchResponse = parse(&resp);
    assert_eq!(patch.new_n, 303);
    assert_eq!(patch.version, 2);
    assert_eq!(patch.jobs_notified, 1, "{patch:?}");
    assert_eq!(patch.jobs_skipped, 0);

    // Give the job a moment to apply + re-stabilize, then end the linger.
    thread::sleep(Duration::from_millis(150));
    let resp = client.delete(&format!("/v1/jobs/{}", job.id)).unwrap();
    assert_eq!(resp.status, 202);
    let info = wait_terminal(&mut client, job.id);

    // Cancellation raced the linger; either way the mutation was applied.
    // If the job completed, its final MIS must be valid on the *mutated*
    // topology (validated server-side and revalidated here).
    if info.status == JobStatus::Completed {
        let outcome = info.outcome.clone().unwrap();
        assert_eq!(outcome.mutations_applied, 1, "{info:?}");
        assert!(outcome.stabilized);
        assert!(outcome.valid_mis);
        assert_eq!(outcome.n, 303);

        // Rebuild the mutated graph client-side and check is_mis directly.
        let resp = client.get(&format!("/v1/jobs/{}/mis", job.id)).unwrap();
        let ids: Vec<usize> = resp
            .text()
            .unwrap()
            .lines()
            .map(|l| l.parse().unwrap())
            .collect();
        let mut rng = {
            use rand::SeedableRng;
            rand_chacha::ChaCha8Rng::seed_from_u64(9)
        };
        let base = mis_sim::spec::GraphSpec::Gnp { n: 300, p: 0.03 }.generate(&mut rng);
        let mut delta = mis_graph::GraphDelta::new();
        delta.add_edge(0, 1);
        delta.add_edge(0, 2);
        delta.add_edge(0, 3);
        delta.add_edge(1, 2);
        delta.remove_edge(4, 5);
        delta.add_vertex([]);
        delta.add_vertex([]);
        delta.add_vertex([]);
        delta.detach_vertex(6);
        let (mutated, _) = base.apply_delta(&delta).unwrap();
        let set = VertexSet::from_indices(mutated.n(), ids.iter().copied());
        assert!(mis_check::is_mis(&mutated, &set));
    }

    // The event stream contains the topology event either way.
    let resp = client.get(&format!("/v1/jobs/{}/events", job.id)).unwrap();
    assert_eq!(resp.status, 200);
    let events = resp.text().unwrap().to_string();
    assert!(events.contains("\"event\":\"topology\""), "{events}");
    assert!(events.contains("\"event\":\"round\""));
    assert!(events
        .lines()
        .last()
        .unwrap()
        .contains("\"event\":\"done\""));

    service.shutdown();
}

#[test]
fn error_paths_return_proper_statuses() {
    let (service, mut client) = start_service();

    assert_eq!(client.get("/v1/graphs/99").unwrap().status, 404);
    assert_eq!(client.get("/v1/jobs/99").unwrap().status, 404);
    assert_eq!(client.delete("/v1/jobs/99").unwrap().status, 404);
    assert_eq!(client.get("/v1/nope").unwrap().status, 404);
    assert_eq!(
        client
            .post_json("/v1/graphs", "{\"name\": 3}")
            .unwrap()
            .status,
        400
    );
    assert_eq!(
        client.post_json("/v1/graphs", "not json").unwrap().status,
        400
    );
    // Method not allowed on a known path.
    assert_eq!(
        client
            .request(warp::Method::Patch, "/v1/jobs", None, Vec::new())
            .unwrap()
            .status,
        405
    );

    let graph = create_gnp(&mut client, 20, 0.2, 1);
    // Unknown algorithm.
    let resp = client
        .post_json(
            "/v1/jobs",
            format!("{{\"graph\": {}, \"algorithm\": \"nope\"}}", graph.id),
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    // Unknown graph.
    let resp = client
        .post_json("/v1/jobs", "{\"graph\": 999, \"algorithm\": \"two-state\"}")
        .unwrap();
    assert_eq!(resp.status, 404);
    // Invalid delta (endpoint out of range).
    let resp = client
        .patch_json(
            &format!("/v1/graphs/{}/edges", graph.id),
            "{\"add\": [[0, 9999]]}",
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    // Empty patch.
    let resp = client
        .patch_json(&format!("/v1/graphs/{}/edges", graph.id), "{}")
        .unwrap();
    assert_eq!(resp.status, 400);
    // MIS download before completion -> 409 (submit a lingering job).
    let resp = client
        .post_json(
            "/v1/jobs",
            format!(
                "{{\"graph\": {}, \"algorithm\": \"two-state\", \"linger_micros\": 30000000}}",
                graph.id
            ),
        )
        .unwrap();
    let job: JobInfo = parse(&resp);
    let resp = client.get(&format!("/v1/jobs/{}/mis", job.id)).unwrap();
    assert_eq!(resp.status, 409);
    client.delete(&format!("/v1/jobs/{}", job.id)).unwrap();

    // Graph deletion: jobs already submitted keep their snapshots.
    assert_eq!(
        client
            .delete(&format!("/v1/graphs/{}", graph.id))
            .unwrap()
            .status,
        204
    );
    assert_eq!(
        client
            .get(&format!("/v1/graphs/{}", graph.id))
            .unwrap()
            .status,
        404
    );

    service.shutdown();
}

#[test]
fn deeply_nested_body_is_rejected_and_the_daemon_survives() {
    // The JSON parser recurses per nesting level; 20,000 levels once
    // overflowed the connection thread's stack and aborted the daemon.
    let (service, mut client) = start_service();
    let resp = client.post_json("/v1/jobs", "[".repeat(20_000)).unwrap();
    assert_eq!(resp.status, 400, "{:?}", resp.text());
    assert_eq!(client.get("/v1/healthz").unwrap().status, 200);
    service.shutdown();
}

#[test]
fn upload_edges_and_run_on_them() {
    let (service, mut client) = start_service();
    // A 5-cycle uploaded as an explicit edge list.
    let resp = client
        .post_json(
            "/v1/graphs",
            "{\"name\": \"c5\", \"n\": 5, \"edges\": [[0,1],[1,2],[2,3],[3,4],[4,0]]}",
        )
        .unwrap();
    assert_eq!(resp.status, 201);
    let graph: GraphInfo = parse(&resp);
    assert_eq!((graph.n, graph.m), (5, 5));
    assert_eq!(graph.name, "c5");

    let resp = client
        .post_json(
            "/v1/jobs",
            format!("{{\"graph\": {}, \"algorithm\": \"luby\"}}", graph.id),
        )
        .unwrap();
    let job: JobInfo = parse(&resp);
    let info = wait_terminal(&mut client, job.id);
    assert_eq!(info.status, JobStatus::Completed);
    let outcome = info.outcome.unwrap();
    assert!(outcome.valid_mis);
    assert_eq!(outcome.n, 5);

    // Validate the downloaded MIS against the uploaded topology.
    let resp = client.get(&format!("/v1/jobs/{}/mis", job.id)).unwrap();
    let ids: Vec<usize> = resp
        .text()
        .unwrap()
        .lines()
        .map(|l| l.parse().unwrap())
        .collect();
    let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
    let set = VertexSet::from_indices(g.n(), ids.iter().copied());
    assert!(mis_check::is_mis(&g, &set));

    service.shutdown();
}

#[test]
fn metrics_count_requests_and_jobs() {
    let (service, mut client) = start_service();
    let graph = create_gnp(&mut client, 50, 0.1, 5);
    let resp = client
        .post_json(
            "/v1/jobs",
            format!(
                "{{\"graph\": {}, \"algorithm\": \"three-color\"}}",
                graph.id
            ),
        )
        .unwrap();
    let job: JobInfo = parse(&resp);
    wait_terminal(&mut client, job.id);
    client.get("/v1/nope-nope").unwrap();

    let report: MetricsReport = parse(&client.get("/v1/metrics").unwrap());
    assert!(report.uptime_micros > 0);
    let find = |route: &str, method: &str| {
        report
            .endpoints
            .iter()
            .find(|e| e.route == route && e.method == method)
            .unwrap_or_else(|| panic!("no metrics slot for {method} {route}"))
            .clone()
    };
    assert_eq!(find("/v1/graphs", "POST").requests, 1);
    assert_eq!(find("/v1/jobs", "POST").requests, 1);
    assert!(find("/v1/jobs/:id", "GET").requests >= 1);
    let unmatched = report
        .endpoints
        .iter()
        .find(|e| e.route == "(unmatched)")
        .unwrap();
    assert!(unmatched.requests >= 1);
    assert!(unmatched.errors >= 1);
    assert_eq!(report.jobs.submitted, 1);
    assert_eq!(report.jobs.completed, 1);

    service.shutdown();
}

#[test]
fn crash_recovery_restores_graphs_and_jobs() {
    let dir = std::env::temp_dir().join(format!("mis-e2e-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        data_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };

    let service = Service::start(&config).expect("bind loopback");
    let mut client = Client::new(service.local_addr().to_string());
    let graph = create_gnp(&mut client, 80, 0.05, 11);
    // Two committed patches -> version 3, n 82.
    for _ in 0..2 {
        let resp = client
            .patch_json(
                &format!("/v1/graphs/{}/edges", graph.id),
                "{\"add_vertices\": 1}",
            )
            .unwrap();
        assert_eq!(resp.status, 200);
    }
    // A job that completes before the crash.
    let resp = client
        .post_json(
            "/v1/jobs",
            format!("{{\"graph\": {}, \"algorithm\": \"greedy\"}}", graph.id),
        )
        .unwrap();
    let done: JobInfo = parse(&resp);
    wait_terminal(&mut client, done.id);
    // A resident job occupying the single worker at the instant of the
    // crash. The linger is long enough to still be running when we crash,
    // but short enough that the post-recovery retry (which re-runs the
    // identical request, linger included) completes within the poll budget.
    let resp = client
        .post_json(
            "/v1/jobs",
            format!(
                "{{\"graph\": {}, \"algorithm\": \"two-state\", \"linger_micros\": 10000000}}",
                graph.id
            ),
        )
        .unwrap();
    let resident: JobInfo = parse(&resp);
    let deadline = Instant::now() + Duration::from_secs(10);
    while poll_job(&mut client, resident.id).status != JobStatus::Running {
        assert!(Instant::now() < deadline);
        thread::sleep(Duration::from_millis(2));
    }
    // ...and two acknowledged jobs stuck in the queue behind it.
    let mut queued = Vec::new();
    for _ in 0..2 {
        let resp = client
            .post_json(
                "/v1/jobs",
                format!("{{\"graph\": {}, \"algorithm\": \"luby\"}}", graph.id),
            )
            .unwrap();
        assert_eq!(resp.status, 202);
        queued.push(parse::<JobInfo>(&resp).id);
    }

    service.crash();

    // A successor on the same data dir recovers everything acknowledged.
    let service = Service::start(&config).expect("rebind after crash");
    let mut client = Client::new(service.local_addr().to_string());
    let info: GraphInfo = parse(&client.get(&format!("/v1/graphs/{}", graph.id)).unwrap());
    assert_eq!((info.id, info.version, info.n), (graph.id, 3, 82));
    let done_after = poll_job(&mut client, done.id);
    assert_eq!(done_after.status, JobStatus::Completed);
    assert!(done_after.outcome.unwrap().valid_mis);
    let interrupted = poll_job(&mut client, resident.id);
    assert_eq!(
        interrupted.status,
        JobStatus::Interrupted,
        "{interrupted:?}"
    );
    for id in queued {
        let info = wait_terminal(&mut client, id);
        assert_eq!(info.status, JobStatus::Completed, "{info:?}");
        assert!(info.outcome.unwrap().valid_mis);
    }
    // The interrupted job re-runs through the retry endpoint.
    let resp = client
        .post_json(&format!("/v1/jobs/{}/retry", resident.id), "{}")
        .unwrap();
    assert_eq!(resp.status, 202, "{:?}", resp.text());
    let fresh: JobInfo = parse(&resp);
    let rerun = wait_terminal(&mut client, fresh.id);
    assert_eq!(rerun.status, JobStatus::Completed);
    assert!(rerun.outcome.unwrap().valid_mis);
    // Retry is only for interrupted jobs.
    let resp = client
        .post_json(&format!("/v1/jobs/{}/retry", done.id), "{}")
        .unwrap();
    assert_eq!(resp.status, 409);

    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent PATCHes on one graph reach the journal in version order, so
/// replay after a crash recovers the live version and edge count, not the
/// prefix before the first out-of-order record.
#[test]
fn concurrent_patches_on_one_graph_all_replay_after_a_crash() {
    const CLIENTS: usize = 8;
    const PATCHES: usize = 40;
    let dir = std::env::temp_dir().join(format!("mis-e2e-patch-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        data_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let service = Service::start(&config).expect("bind loopback");
    let addr = service.local_addr().to_string();
    let graph = create_gnp(&mut Client::new(addr.clone()), 64, 0.1, 5);
    let path = format!("/v1/graphs/{}/edges", graph.id);
    let clients: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let (addr, path) = (addr.clone(), path.clone());
            thread::spawn(move || {
                let mut client = Client::new(addr);
                for k in 0..PATCHES {
                    // A patch removes the edge the patch at `a + 1` adds, so
                    // the final edge set depends on the order of the patches.
                    let a = (8 * t + k) % 64;
                    let body = format!(
                        "{{\"add\": [[{a}, {}]], \"remove\": [[{}, {}]]}}",
                        (a + 5) % 64,
                        (a + 1) % 64,
                        (a + 6) % 64
                    );
                    let resp = client.patch_json(&path, body).unwrap();
                    assert_eq!(resp.status, 200, "{:?}", resp.text());
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    let info = |client: &mut Client| -> GraphInfo {
        parse(&client.get(&format!("/v1/graphs/{}", graph.id)).unwrap())
    };
    let live = info(&mut Client::new(addr));
    assert_eq!(live.version, 1 + (CLIENTS * PATCHES) as u64);
    service.crash();

    let service = Service::start(&config).expect("rebind after crash");
    let recovered = info(&mut Client::new(service.local_addr().to_string()));
    assert_eq!(
        (recovered.version, recovered.n, recovered.m),
        (live.version, live.n, live.m)
    );
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_endpoint_flags_and_drain_refuses_new_jobs() {
    let (service, mut client) = start_service();
    assert!(!service.shutdown_requested());
    let resp = client.post_json("/v1/admin/shutdown", "{}").unwrap();
    assert_eq!(resp.status, 202);
    assert!(service.shutdown_requested());

    let graph = create_gnp(&mut client, 30, 0.1, 2);
    let state = Arc::clone(service.state());
    service.shutdown();
    // After shutdown the store refuses work (the daemon would have exited).
    assert!(state.jobs.is_draining());
    drop(graph);
}

/// At least 1,000 jobs stay resident behind one pinned worker, the daemon
/// counts exactly the submissions its clients made, and once the worker is
/// freed every queued job completes with a valid MIS.
#[test]
fn a_thousand_queued_jobs_stay_resident_and_all_complete() {
    const JOBS: usize = 1_000;
    const CLIENTS: usize = 16;
    let service = Service::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: JOBS,
        ..ServiceConfig::default()
    })
    .expect("bind loopback");
    let addr = service.local_addr().to_string();
    let mut client = Client::new(addr.clone());
    let keys: Vec<String> = parse::<Vec<AlgorithmInfo>>(&client.get("/v1/algorithms").unwrap())
        .into_iter()
        .map(|a| a.key)
        .collect();
    let graphs: Vec<u64> = [
        "{\"spec\": {\"Gnp\": {\"n\": 64, \"p\": 0.1}}, \"seed\": 1}",
        "{\"spec\": {\"Complete\": {\"n\": 16}}}",
        "{\"spec\": {\"RandomTree\": {\"n\": 64}}, \"seed\": 2}",
        "{\"spec\": {\"DisjointCliques\": {\"count\": 4, \"size\": 8}}}",
    ]
    .into_iter()
    .map(|body| {
        let resp = client.post_json("/v1/graphs", body).unwrap();
        assert_eq!(resp.status, 201, "{:?}", resp.text());
        parse::<GraphInfo>(&resp).id
    })
    .collect();

    // Pin the single worker with a lingering job, so every later job waits.
    let resp = client
        .post_json(
            "/v1/jobs",
            format!(
                "{{\"graph\": {}, \"algorithm\": \"two-state\", \"linger_micros\": 60000000}}",
                graphs[0]
            ),
        )
        .unwrap();
    assert_eq!(resp.status, 202, "{:?}", resp.text());
    let pin: JobInfo = parse(&resp);
    let deadline = Instant::now() + Duration::from_secs(10);
    while poll_job(&mut client, pin.id).status != JobStatus::Running {
        assert!(Instant::now() < deadline, "the pinning job never started");
        thread::sleep(Duration::from_millis(2));
    }

    // Concurrent clients submit round-robin over every key and graph.
    let clients: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let (addr, keys, graphs) = (addr.clone(), keys.clone(), graphs.clone());
            thread::spawn(move || {
                let mut client = Client::new(addr);
                (t..JOBS)
                    .step_by(CLIENTS)
                    .map(|i| {
                        let graph = graphs[(i / keys.len()) % graphs.len()];
                        let key = &keys[i % keys.len()];
                        let body = format!(
                            "{{\"graph\": {graph}, \"algorithm\": \"{key}\", \"seed\": {i}}}"
                        );
                        let resp = client.post_json("/v1/jobs", body).unwrap();
                        assert_eq!(resp.status, 202, "job {i}: {:?}", resp.text());
                        parse::<JobInfo>(&resp).id
                    })
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    let ids: Vec<u64> = clients
        .into_iter()
        .flat_map(|c| c.join().expect("client thread"))
        .collect();
    assert_eq!(ids.len(), JOBS);

    let metrics: MetricsReport = parse(&client.get("/v1/metrics").unwrap());
    assert!(
        metrics.jobs.queued + metrics.jobs.running >= JOBS as u64,
        "{:?}",
        metrics.jobs
    );

    // Free the worker: every queued job then runs to completion.
    let resp = client.delete(&format!("/v1/jobs/{}", pin.id)).unwrap();
    assert_eq!(resp.status, 202);
    assert_eq!(
        wait_terminal(&mut client, pin.id).status,
        JobStatus::Cancelled
    );
    for id in ids {
        let info = wait_terminal(&mut client, id);
        assert_eq!(info.status, JobStatus::Completed, "{info:?}");
        assert!(
            info.outcome.as_ref().is_some_and(|o| o.valid_mis),
            "{info:?}"
        );
    }
    let metrics: MetricsReport = parse(&client.get("/v1/metrics").unwrap());
    assert_eq!(
        metrics.jobs.submitted,
        JOBS as u64 + 1,
        "the pin and {JOBS} jobs"
    );
    service.shutdown();
}
