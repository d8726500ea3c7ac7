//! Load generator for the graph-service daemon: hammer an in-process
//! `mis-service` instance with thousands of concurrent jobs across
//! algorithms and graph sizes (plus live `PATCH` traffic), and record
//! throughput + tail latency to `results/svc_load.json` and, on a full run
//! only, to `BENCH_service.json` in the working directory.
//!
//! Usage: `cargo run --release -p mis-bench --bin svc_load [-- --quick]`
//!
//! Exit status is non-zero when a gate fails:
//! * any job dropped (non-terminal at the deadline) or failed;
//! * the daemon never reached the concurrency floor (full mode: >= 1000
//!   jobs resident in the store at once);
//! * the service metrics counters disagree with the client-side tallies.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use mis_bench::report::{git_commit, print_section, write_report, Host};
use mis_bench::Scale;
use mis_service::api::{JobInfo, JobStatus, MetricsReport};
use mis_service::{Service, ServiceConfig};
use serde::{Deserialize, Serialize};
use warp::Client;

const HELP: &str = "\
svc_load — graph-service daemon under thousands of concurrent jobs

USAGE: svc_load [--quick] [--help]

  --quick  ~160 jobs over 8 client threads (CI smoke); default is 2000
           jobs over 16 client threads with a >=1000-concurrency gate;
           only a full run writes BENCH_service.json (both write
           results/svc_load.json)
  --help   print this help

METHOD
  Start an in-process daemon on a loopback port, register a catalog of six
  graphs (G(n,p), complete, random tree, cycle, star, disjoint cliques),
  then have N client threads submit jobs round-robin over the full
  algorithm x graph matrix as fast as the daemon accepts them, while a
  mutator thread PATCHes live topology deltas into the two G(n,p) graphs.
  Submission latency is measured per request; turnaround per job
  (submit -> observed terminal). A sampler polls /v1/metrics for the
  resident-job high-water mark.

GATES (non-zero exit)
  any non-terminal job at the deadline; any failed job; resident-job
  high-water mark below the floor (full mode: 1000); service-side
  submitted counter != client-side submissions.
";

/// Deadline for every job to reach a terminal state.
const DRAIN_DEADLINE: Duration = Duration::from_secs(600);

#[derive(Debug, Clone, Serialize, Deserialize)]
struct LatencySummary {
    p50_micros: u64,
    p95_micros: u64,
    p99_micros: u64,
    max_micros: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn summarize(mut micros: Vec<u64>) -> LatencySummary {
    micros.sort_unstable();
    LatencySummary {
        p50_micros: percentile(&micros, 0.50),
        p95_micros: percentile(&micros, 0.95),
        p99_micros: percentile(&micros, 0.99),
        max_micros: micros.last().copied().unwrap_or(0),
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServiceLoadReport {
    scale: String,
    host: Host,
    commit: String,
    client_threads: usize,
    jobs_submitted: u64,
    jobs_completed: u64,
    jobs_cancelled: u64,
    jobs_failed: u64,
    jobs_unfinished: u64,
    invalid_mis: u64,
    patches_applied: u64,
    max_resident_jobs: u64,
    concurrency_floor: u64,
    wall_seconds: f64,
    throughput_jobs_per_sec: f64,
    submit_latency: LatencySummary,
    turnaround: LatencySummary,
    http_requests_total: u64,
    service_submitted_counter: u64,
}

impl ServiceLoadReport {
    fn gates_pass(&self) -> bool {
        self.jobs_unfinished == 0
            && self.jobs_failed == 0
            && self.invalid_mis == 0
            && self.max_resident_jobs >= self.concurrency_floor
            && self.service_submitted_counter == self.jobs_submitted
    }

    fn to_pretty(&self) -> String {
        format!(
            "jobs: {} submitted over {} client threads ({} completed, {} cancelled, \
             {} failed, {} unfinished)\n\
             resident-job high-water mark: {} (floor {})\n\
             live patches applied: {}\n\
             wall: {:.2}s -> {:.1} jobs/s\n\
             submit latency  p50 {}us  p95 {}us  p99 {}us  max {}us\n\
             turnaround      p50 {}us  p95 {}us  p99 {}us  max {}us",
            self.jobs_submitted,
            self.client_threads,
            self.jobs_completed,
            self.jobs_cancelled,
            self.jobs_failed,
            self.jobs_unfinished,
            self.max_resident_jobs,
            self.concurrency_floor,
            self.patches_applied,
            self.wall_seconds,
            self.throughput_jobs_per_sec,
            self.submit_latency.p50_micros,
            self.submit_latency.p95_micros,
            self.submit_latency.p99_micros,
            self.submit_latency.max_micros,
            self.turnaround.p50_micros,
            self.turnaround.p95_micros,
            self.turnaround.p99_micros,
            self.turnaround.max_micros,
        )
    }
}

fn graph_catalog(client: &mut Client) -> Vec<u64> {
    let specs = [
        "{\"name\": \"gnp-small\", \"spec\": {\"Gnp\": {\"n\": 200, \"p\": 0.05}}, \"seed\": 1}",
        "{\"name\": \"gnp-large\", \"spec\": {\"Gnp\": {\"n\": 1000, \"p\": 0.01}}, \"seed\": 2}",
        "{\"name\": \"complete\", \"spec\": {\"Complete\": {\"n\": 64}}}",
        "{\"name\": \"tree\", \"spec\": {\"RandomTree\": {\"n\": 500}}, \"seed\": 3}",
        "{\"name\": \"cycle\", \"spec\": {\"Cycle\": {\"n\": 256}}}",
        "{\"name\": \"cliques\", \"spec\": {\"DisjointCliques\": {\"count\": 20, \"size\": 12}}}",
    ];
    specs
        .iter()
        .map(|body| {
            let resp = client
                .post_json("/v1/graphs", body.to_string())
                .expect("create graph");
            assert_eq!(resp.status, 201, "graph creation failed: {:?}", resp.text());
            let info: mis_service::api::GraphInfo =
                serde_json::from_str(resp.text().unwrap()).expect("graph info");
            info.id
        })
        .collect()
}

fn algorithm_keys(client: &mut Client) -> Vec<String> {
    let resp = client.get("/v1/algorithms").expect("list algorithms");
    let infos: Vec<mis_service::api::AlgorithmInfo> =
        serde_json::from_str(resp.text().unwrap()).expect("algorithm list");
    infos.into_iter().map(|a| a.key).collect()
}

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return;
    }
    let scale = Scale::from_args();
    let (total_jobs, client_threads, concurrency_floor) = match scale {
        Scale::Quick => (160u64, 8usize, 50u64),
        Scale::Full => (2000, 16, 1000),
    };

    let service = Service::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 0,
        queue_capacity: total_jobs as usize + 1,
        ..ServiceConfig::default()
    })
    .expect("bind loopback");
    let addr = service.local_addr().to_string();
    println!("svc_load: daemon on {addr}, {total_jobs} jobs over {client_threads} clients");

    let mut setup = Client::new(addr.clone());
    let graphs = graph_catalog(&mut setup);
    let algorithms = algorithm_keys(&mut setup);
    assert!(algorithms.len() >= 10, "registry unexpectedly small");

    let started = Instant::now();
    let stop_sampler = Arc::new(AtomicBool::new(false));
    let max_resident = Arc::new(AtomicU64::new(0));
    let http_requests = Arc::new(AtomicU64::new(0));

    // Sampler: resident-job high-water mark via /v1/metrics.
    let sampler = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop_sampler);
        let max_resident = Arc::clone(&max_resident);
        thread::spawn(move || {
            let mut client = Client::new(addr);
            while !stop.load(Ordering::SeqCst) {
                if let Ok(resp) = client.get("/v1/metrics") {
                    if let Ok(report) =
                        serde_json::from_str::<MetricsReport>(resp.text().unwrap_or("{}"))
                    {
                        let resident = report.jobs.queued + report.jobs.running;
                        max_resident.fetch_max(resident, Ordering::Relaxed);
                    }
                }
                thread::sleep(Duration::from_millis(2));
            }
        })
    };

    // Mutator: live PATCH traffic against the two G(n,p) graphs while jobs
    // are in flight.
    let stop_mutator = Arc::new(AtomicBool::new(false));
    let patches_applied = Arc::new(AtomicU64::new(0));
    let mutator = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop_mutator);
        let patches = Arc::clone(&patches_applied);
        let targets = [graphs[0], graphs[1]];
        thread::spawn(move || {
            let mut client = Client::new(addr);
            let mut round = 0u64;
            while !stop.load(Ordering::SeqCst) {
                for (i, graph) in targets.iter().enumerate() {
                    let a = 2 * round as usize + i;
                    let body = format!(
                        "{{\"add\": [[{}, {}]], \"remove\": [[{}, {}]]}}",
                        a % 190,
                        (a + 7) % 190,
                        (a + 3) % 190,
                        (a + 11) % 190
                    );
                    if let Ok(resp) = client.patch_json(&format!("/v1/graphs/{graph}/edges"), body)
                    {
                        if resp.status == 200 {
                            patches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                round += 1;
                thread::sleep(Duration::from_millis(10));
            }
        })
    };

    // Client threads: submit the whole matrix as fast as it is accepted.
    let mut handles = Vec::new();
    for t in 0..client_threads {
        let addr = addr.clone();
        let graphs = graphs.clone();
        let algorithms = algorithms.clone();
        let http_requests = Arc::clone(&http_requests);
        let share = total_jobs as usize / client_threads
            + usize::from(t < total_jobs as usize % client_threads);
        handles.push(thread::spawn(move || {
            let mut client = Client::new(addr);
            let mut submit_latencies = Vec::with_capacity(share);
            let mut jobs: Vec<(u64, Instant)> = Vec::with_capacity(share);
            for k in 0..share {
                let idx = t + k * client_threads;
                let algorithm = &algorithms[idx % algorithms.len()];
                let graph = graphs[(idx / algorithms.len()) % graphs.len()];
                let body = format!(
                    "{{\"graph\": {graph}, \"algorithm\": \"{algorithm}\", \"seed\": {idx}}}"
                );
                let t0 = Instant::now();
                let resp = client.post_json("/v1/jobs", body).expect("submit job");
                submit_latencies.push(t0.elapsed().as_micros() as u64);
                http_requests.fetch_add(1, Ordering::Relaxed);
                assert_eq!(resp.status, 202, "submission rejected: {:?}", resp.text());
                let info: JobInfo = serde_json::from_str(resp.text().unwrap()).unwrap();
                jobs.push((info.id, t0));
            }
            // Poll until every job this thread owns is terminal.
            let deadline = Instant::now() + DRAIN_DEADLINE;
            let mut turnarounds = Vec::with_capacity(share);
            let mut outcomes = Vec::with_capacity(share);
            let mut pending: Vec<(u64, Instant)> = jobs;
            while !pending.is_empty() && Instant::now() < deadline {
                pending.retain(|(id, t0)| {
                    let resp = client.get(&format!("/v1/jobs/{id}")).expect("poll job");
                    http_requests.fetch_add(1, Ordering::Relaxed);
                    let info: JobInfo = serde_json::from_str(resp.text().unwrap()).unwrap();
                    if info.status.is_terminal() {
                        turnarounds.push(t0.elapsed().as_micros() as u64);
                        outcomes.push(info);
                        false
                    } else {
                        true
                    }
                });
                if !pending.is_empty() {
                    thread::sleep(Duration::from_millis(2));
                }
            }
            (
                submit_latencies,
                turnarounds,
                outcomes,
                pending.len() as u64,
            )
        }));
    }

    let mut submit_latencies = Vec::new();
    let mut turnarounds = Vec::new();
    let mut outcomes: Vec<JobInfo> = Vec::new();
    let mut unfinished = 0u64;
    for handle in handles {
        let (lat, turn, outs, left) = handle.join().expect("client thread");
        submit_latencies.extend(lat);
        turnarounds.extend(turn);
        outcomes.extend(outs);
        unfinished += left;
    }
    let wall = started.elapsed();
    stop_mutator.store(true, Ordering::SeqCst);
    mutator.join().expect("mutator thread");
    stop_sampler.store(true, Ordering::SeqCst);
    sampler.join().expect("sampler thread");

    // Final service-side tallies, then graceful shutdown.
    let final_metrics: MetricsReport = {
        let resp = setup.get("/v1/metrics").expect("final metrics");
        serde_json::from_str(resp.text().unwrap()).expect("metrics JSON")
    };
    service.shutdown();

    let completed = outcomes
        .iter()
        .filter(|o| o.status == JobStatus::Completed)
        .count() as u64;
    let cancelled = outcomes
        .iter()
        .filter(|o| o.status == JobStatus::Cancelled)
        .count() as u64;
    let failed = outcomes
        .iter()
        .filter(|o| o.status == JobStatus::Failed)
        .count() as u64;
    let invalid = outcomes
        .iter()
        .filter(|o| {
            o.status == JobStatus::Completed && o.outcome.as_ref().is_some_and(|r| !r.valid_mis)
        })
        .count() as u64;

    let report = ServiceLoadReport {
        scale: format!("{scale:?}"),
        host: Host::current(),
        commit: git_commit(),
        client_threads,
        jobs_submitted: total_jobs,
        jobs_completed: completed,
        jobs_cancelled: cancelled,
        jobs_failed: failed,
        jobs_unfinished: unfinished,
        invalid_mis: invalid,
        patches_applied: patches_applied.load(Ordering::Relaxed),
        max_resident_jobs: max_resident.load(Ordering::Relaxed),
        concurrency_floor,
        wall_seconds: wall.as_secs_f64(),
        throughput_jobs_per_sec: completed as f64 / wall.as_secs_f64(),
        submit_latency: summarize(submit_latencies),
        turnaround: summarize(turnarounds),
        http_requests_total: http_requests.load(Ordering::Relaxed),
        service_submitted_counter: final_metrics.jobs.submitted,
    };

    print_section(
        "SERVICE LOAD: concurrent jobs over HTTP",
        &report.to_pretty(),
    );
    let json = serde_json::to_string_pretty(&report).expect("report JSON");
    write_report(scale, "svc_load.json", "BENCH_service.json", &json);

    if !report.gates_pass() {
        if report.jobs_unfinished > 0 {
            eprintln!(
                "GATE FAILED: {} jobs still non-terminal at the deadline",
                report.jobs_unfinished
            );
        }
        if report.jobs_failed > 0 {
            eprintln!("GATE FAILED: {} jobs failed", report.jobs_failed);
        }
        if report.invalid_mis > 0 {
            eprintln!(
                "GATE FAILED: {} completed jobs reported an invalid MIS",
                report.invalid_mis
            );
        }
        if report.max_resident_jobs < report.concurrency_floor {
            eprintln!(
                "GATE FAILED: resident-job high-water mark {} below the floor {}",
                report.max_resident_jobs, report.concurrency_floor
            );
        }
        if report.service_submitted_counter != report.jobs_submitted {
            eprintln!(
                "GATE FAILED: service counted {} submissions, clients made {}",
                report.service_submitted_counter, report.jobs_submitted
            );
        }
        std::process::exit(1);
    }
}
