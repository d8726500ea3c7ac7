//! `service-mix`: closed-loop HTTP clients against an in-process, durable
//! `mis-service` daemon. Each client repeats submit → poll → fetch MIS over
//! a six-graph catalog × all ten registry keys, and every 8th iteration
//! first PATCHes an edge of `gnp-small`.

use std::io;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use mis_graph::{mis_check, Graph, VertexSet};
use mis_service::api::{CreateGraphRequest, GraphInfo, JobInfo, JobStatus, MetricsReport};
use mis_service::journal::{Journal, Record};
use mis_service::{Service, ServiceConfig};
use warp::{Client, ClientResponse};

use crate::metrics::{mean, median, mix, ms, nproc, peak_rss_mb, quantile, us, Metrics};
use crate::trace::Recorder;
use crate::{Args, Outcome, ALGORITHMS};

/// Graph catalog: name and `GraphSpec` JSON; seeds come from `--seed`.
const CATALOG: [(&str, &str); 6] = [
    ("gnp-small", "{\"Gnp\": {\"n\": 200, \"p\": 0.05}}"),
    ("gnp-large", "{\"Gnp\": {\"n\": 1000, \"p\": 0.01}}"),
    ("complete", "{\"Complete\": {\"n\": 64}}"),
    ("tree", "{\"RandomTree\": {\"n\": 500}}"),
    ("cycle", "{\"Cycle\": {\"n\": 256}}"),
    (
        "cliques",
        "{\"DisjointCliques\": {\"count\": 20, \"size\": 12}}",
    ),
];
/// Index of `gnp-small` in [`CATALOG`], the graph PATCH traffic targets.
const PATCHED: usize = 0;
const COMBOS: usize = CATALOG.len() * ALGORITHMS.len();
const PATCH_EVERY: usize = 8;
/// Client poll interval. At 200 µs the two clients' polling competed with
/// the workers and handlers for the cores, and turnaround spread 28% across
/// runs on a 2-core host; at 1 ms it spread 6%.
const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// Caps the jobs of one run at this rate × `--seconds`: a host that
/// sustains the rate does the same jobs in every run, so the store the
/// daemon retains (its memory and snapshot cost grow with it) has the same
/// size across runs; a slower host stops at the deadline instead.
const MAX_JOBS_PER_SECOND: f64 = 150.0;
/// A job still not terminal after this long counts as hung (failed).
const HUNG_AFTER: Duration = Duration::from_secs(60);
/// Daemon boots per phase; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Iterations per client re-run after the measurement to check that
/// per-job counts repeat on the same seeds.
const CHECK_ITERATIONS: usize = COMBOS;

pub struct Route {
    pub name: &'static str,
    method: &'static str,
    pattern: &'static str,
}

/// The routes a client calls, by their per-layer metric names.
pub const ROUTES: [Route; 4] = [
    Route {
        name: "submit",
        method: "POST",
        pattern: "/v1/jobs",
    },
    Route {
        name: "poll",
        method: "GET",
        pattern: "/v1/jobs/:id",
    },
    Route {
        name: "mis",
        method: "GET",
        pattern: "/v1/jobs/:id/mis",
    },
    Route {
        name: "patch",
        method: "PATCH",
        pattern: "/v1/graphs/:id/edges",
    },
];

struct Daemon {
    service: Service,
    addr: String,
    graph_ids: Vec<u64>,
    dir: PathBuf,
}

impl Daemon {
    fn stop(self) {
        self.service.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn create_body(seed: u64, i: usize) -> String {
    let (name, spec) = CATALOG[i];
    format!(
        "{{\"name\": \"{name}\", \"spec\": {spec}, \"seed\": {}}}",
        mix(seed, 10 + i as u64)
    )
}

/// Boots a daemon with its journal in `dir` and registers the catalog.
fn boot(seed: u64, dir: PathBuf) -> Result<Daemon, String> {
    let service = Service::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: nproc(),
        data_dir: Some(dir.clone()),
        queue_capacity: 0,
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    let addr = service.local_addr().to_string();
    let mut client = Client::new(addr.clone());
    let mut graph_ids = Vec::with_capacity(CATALOG.len());
    for i in 0..CATALOG.len() {
        let resp = client
            .post_json("/v1/graphs", create_body(seed, i))
            .map_err(|e| format!("graph registration: {e}"))?;
        if resp.status != 201 {
            return Err(format!("graph registration answered {}", resp.status));
        }
        let info: GraphInfo = parse(&resp)?;
        graph_ids.push(info.id);
    }
    Ok(Daemon {
        service,
        addr,
        graph_ids,
        dir,
    })
}

fn parse<T: serde::Deserialize>(resp: &ClientResponse) -> Result<T, String> {
    let text = resp.text().map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| format!("{e}: {text}"))
}

/// Per-job counts that repeat on the same seed (unpatched graphs only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JobCounts {
    rounds: usize,
    mis_size: usize,
    random_bits: u64,
}

struct JobRecord {
    client: usize,
    iteration: usize,
    combo: usize,
    counts: Option<JobCounts>,
    turnaround_ms: f64,
    submit_ms: f64,
    poll_ms: Vec<f64>,
    mis_ms: f64,
    queue_wait_ms: Option<f64>,
    run_ms: f64,
    verify_ms: f64,
}

#[derive(Default)]
struct ClientLog {
    jobs: Vec<JobRecord>,
    patch_ms: Vec<f64>,
    patches_failed: u64,
    requests: u64,
    errors: u64,
    failures: Vec<String>,
}

/// What a client needs: the daemon address, graph ids, and the client's
/// copies of the catalog graphs for verification.
struct Ctx<'a> {
    seed: u64,
    addr: &'a str,
    graph_ids: &'a [u64],
    copies: &'a [Graph],
    clients: usize,
}

impl Ctx<'_> {
    fn combo(&self, client: usize, iteration: usize) -> usize {
        (client * COMBOS / self.clients + iteration) % COMBOS
    }

    fn job_seed(&self, client: usize, iteration: usize) -> u64 {
        mix(self.seed, ((client as u64) << 32) | iteration as u64)
    }

    fn patch_body(&self, client: usize, iteration: usize) -> String {
        let n = self.copies[PATCHED].n() as u64;
        let r = mix(
            self.seed ^ 0x5A5A,
            ((client as u64) << 32) | iteration as u64,
        );
        let u = r % n;
        let v = (u + 1 + (r >> 16) % (n - 1)) % n;
        let x = (r >> 32) % n;
        let y = (x + 1 + (r >> 48) % (n - 1)) % n;
        format!("{{\"add\": [[{u}, {v}]], \"remove\": [[{x}, {y}]]}}")
    }
}

/// Runs one client's iterations `range` (stopping early at `stop_at`).
fn client_loop(
    ctx: &Ctx<'_>,
    client: usize,
    iterations: std::ops::Range<usize>,
    stop_at: Option<Instant>,
    patches: bool,
    mut rec: Option<&mut Recorder>,
) -> ClientLog {
    let mut http = Client::new(ctx.addr.to_string());
    let mut log = ClientLog::default();
    for iteration in iterations {
        if stop_at.is_some_and(|t| Instant::now() >= t) {
            break;
        }
        if patches && iteration % PATCH_EVERY == 0 {
            let path = format!("/v1/graphs/{}/edges", ctx.graph_ids[PATCHED]);
            let t0 = Instant::now();
            let resp = http.patch_json(&path, ctx.patch_body(client, iteration));
            let t1 = Instant::now();
            log.requests += 1;
            if let Some(rec) = rec.as_deref_mut() {
                rec.record("patch", iteration as u64, None, t0, t1);
            }
            log.patch_ms.push(ms(t1 - t0));
            if !matches!(&resp, Ok(r) if r.status == 200) {
                log.errors += 1;
                log.patches_failed += 1;
                log.failures
                    .push(format!("PATCH failed: {}", describe(&resp)));
            }
        }
        match run_job(
            ctx,
            &mut http,
            client,
            iteration,
            &mut log,
            rec.as_deref_mut(),
        ) {
            Ok(job) => log.jobs.push(job),
            Err(e) => log.failures.push(e),
        }
    }
    log
}

fn describe(resp: &io::Result<ClientResponse>) -> String {
    match resp {
        Ok(r) => format!("status {} {}", r.status, r.text().unwrap_or("")),
        Err(e) => e.to_string(),
    }
}

/// One job: submit, poll until terminal, fetch the MIS, verify. An `Err`
/// is a failed job (non-2xx, hung, unverifiable).
fn run_job(
    ctx: &Ctx<'_>,
    http: &mut Client,
    client: usize,
    iteration: usize,
    log: &mut ClientLog,
    mut rec: Option<&mut Recorder>,
) -> Result<JobRecord, String> {
    let combo = ctx.combo(client, iteration);
    let (graph, algorithm) = (
        combo / ALGORITHMS.len(),
        ALGORITHMS[combo % ALGORITHMS.len()],
    );
    let body = format!(
        "{{\"graph\": {}, \"algorithm\": \"{algorithm}\", \"seed\": {}}}",
        ctx.graph_ids[graph],
        ctx.job_seed(client, iteration)
    );
    let fail = |what: String| Err(format!("job {algorithm} on {}: {what}", CATALOG[graph].0));
    // A failed request also counts as a warp error.
    let http_fail = |log: &mut ClientLog, what: String| {
        log.errors += 1;
        fail(what)
    };

    let t_submit = Instant::now();
    let resp = http.post_json("/v1/jobs", body);
    let t_accepted = Instant::now();
    log.requests += 1;
    let info: JobInfo = match &resp {
        Ok(r) if r.status == 202 => parse(r)?,
        _ => return http_fail(log, format!("submit: {}", describe(&resp))),
    };
    let id = info.id;
    let job_span = rec.as_deref_mut().map(|rec| {
        let span = rec.open("job", id, t_submit);
        rec.record("submit", id, Some(span), t_submit, t_accepted);
        span
    });

    let mut poll_ms = Vec::new();
    let mut queue_wait_ms = None;
    let info = loop {
        thread::sleep(POLL_INTERVAL);
        let t0 = Instant::now();
        let resp = http.get(&format!("/v1/jobs/{id}"));
        let t1 = Instant::now();
        log.requests += 1;
        poll_ms.push(ms(t1 - t0));
        if let (Some(rec), Some(span)) = (rec.as_deref_mut(), job_span) {
            rec.record("poll", id, Some(span), t0, t1);
        }
        let info: JobInfo = match &resp {
            Ok(r) if r.status == 200 => parse(r)?,
            _ => return http_fail(log, format!("poll: {}", describe(&resp))),
        };
        if queue_wait_ms.is_none() && info.status != JobStatus::Queued {
            queue_wait_ms = Some(ms(t1 - t_accepted));
        }
        if info.status.is_terminal() {
            break info;
        }
        if t1 - t_submit > HUNG_AFTER {
            return fail(format!("hung in {:?}", info.status));
        }
    };

    let t0 = Instant::now();
    let resp = http.get(&format!("/v1/jobs/{id}/mis"));
    let t_done = Instant::now();
    log.requests += 1;
    if let (Some(rec), Some(span)) = (rec.as_deref_mut(), job_span) {
        rec.record("mis", id, Some(span), t0, t_done);
        rec.close(span, t_done);
    }
    let ids: Vec<usize> = match &resp {
        Ok(r) if r.status == 200 => r
            .text()
            .map_err(|e| e.to_string())?
            .lines()
            .map(|l| l.trim().parse::<usize>().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?,
        _ => return http_fail(log, format!("mis: {}", describe(&resp))),
    };

    let Some(outcome) = info.outcome.filter(|_| info.status == JobStatus::Completed) else {
        return fail(format!("ended {:?}: {:?}", info.status, info.error));
    };
    // Jobs on the patched graph are judged by the service's own check on
    // the graph they ended on; all others against the client's copy.
    let t_verify = Instant::now();
    let verified = outcome.valid_mis
        && ids.len() == outcome.mis_size
        && (graph == PATCHED || {
            let copy = &ctx.copies[graph];
            ids.iter().all(|&u| u < copy.n())
                && mis_check::is_mis(
                    copy,
                    &VertexSet::from_indices(copy.n(), ids.iter().copied()),
                )
        });
    let t_verified = Instant::now();
    if let Some(rec) = rec {
        rec.record("verify", id, None, t_verify, t_verified);
    }
    if !verified {
        return fail("returned set is not a maximal independent set".to_string());
    }
    Ok(JobRecord {
        client,
        iteration,
        combo,
        counts: (graph != PATCHED).then_some(JobCounts {
            rounds: outcome.rounds,
            mis_size: outcome.mis_size,
            random_bits: outcome.random_bits,
        }),
        turnaround_ms: ms(t_done - t_submit),
        submit_ms: ms(t_accepted - t_submit),
        poll_ms,
        mis_ms: ms(t_done - t0),
        queue_wait_ms,
        run_ms: outcome.wall_micros as f64 / 1e3,
        verify_ms: ms(t_verified - t_verify),
    })
}

struct Phase {
    e2e: Metrics,
    detail: Metrics,
    log: ClientLog,
    daemon: Daemon,
    attempted: u64,
    failed: u64,
    /// Handler latency sum and request count per route during the window.
    handler: Vec<(f64, u64)>,
}

fn endpoint_totals(addr: &str) -> Result<Vec<(f64, u64)>, String> {
    let resp = Client::new(addr.to_string())
        .get("/v1/metrics")
        .map_err(|e| format!("metrics: {e}"))?;
    let report: MetricsReport = parse(&resp)?;
    Ok(ROUTES
        .iter()
        .map(|route| {
            report
                .endpoints
                .iter()
                .find(|e| e.route == route.pattern && e.method == route.method)
                .map_or((0.0, 0), |e| (e.latency_sum_micros as f64, e.requests))
        })
        .collect())
}

fn phase(
    args: &Args,
    tag: &str,
    copies: &[Graph],
    mut rec: Option<&mut Recorder>,
) -> Result<Phase, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        let t0 = Instant::now();
        let d = boot(args.seed, args.work_dir.join(format!("{tag}-{rep}")))?;
        let t1 = Instant::now();
        if let Some(rec) = rec.as_deref_mut() {
            rec.record("boot", rep as u64, None, t0, t1);
        }
        setup_s.push((t1 - t0).as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one boot");

    let clients = nproc();
    let quota = (MAX_JOBS_PER_SECOND * args.seconds / clients as f64).ceil() as usize;
    let ctx = Ctx {
        seed: args.seed,
        addr: &daemon.addr,
        graph_ids: &daemon.graph_ids,
        copies,
        clients,
    };
    let before = endpoint_totals(&daemon.addr)?;
    let origin = Instant::now();
    let stop_at = origin + Duration::from_secs_f64(args.seconds);
    let recorders: Vec<Option<Recorder>> = (0..clients)
        .map(|_| rec.as_deref().map(Recorder::sibling))
        .collect();
    let logs: Vec<(ClientLog, Option<Recorder>)> = thread::scope(|s| {
        let handles: Vec<_> = recorders
            .into_iter()
            .enumerate()
            .map(|(c, mut rec)| {
                let ctx = &ctx;
                s.spawn(move || {
                    let log = client_loop(ctx, c, 0..quota, Some(stop_at), true, rec.as_mut());
                    (log, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = origin.elapsed().as_secs_f64();
    let after = endpoint_totals(&daemon.addr)?;
    let handler = before
        .iter()
        .zip(&after)
        .map(|(b, a)| (a.0 - b.0, a.1 - b.1))
        .collect();

    let mut log = ClientLog::default();
    for (l, r) in logs {
        log.jobs.extend(l.jobs);
        log.patch_ms.extend(l.patch_ms);
        log.patches_failed += l.patches_failed;
        log.requests += l.requests;
        log.errors += l.errors;
        log.failures.extend(l.failures);
        if let (Some(rec), Some(r)) = (rec.as_deref_mut(), r) {
            rec.absorb(r);
        }
    }
    // Every logged job verified; every failed job or PATCH left a failure.
    let verified = log.jobs.len() as u64;
    let failed = log.failures.len() as u64;
    let attempted = verified + failed - log.patches_failed + log.patch_ms.len() as u64;
    let turnaround: Vec<f64> = log.jobs.iter().map(|j| j.turnaround_ms).collect();

    let mut e2e = Metrics::default();
    e2e.set("setup_s", median(&setup_s), "s", setup_s.len());
    e2e.set(
        "verified_per_s",
        verified as f64 / wall,
        "1/s",
        log.jobs.len(),
    );
    e2e.set(
        "time_to_mis_ms.p50",
        median(&turnaround),
        "ms",
        turnaround.len(),
    );
    e2e.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
    e2e.set(
        "verified_share",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "ratio",
        attempted as usize,
    );
    let mut detail = Metrics::default();
    detail.set("setup_s", median(&setup_s), "s", setup_s.len());
    detail.set("jobs_per_s", verified as f64 / wall, "1/s", log.jobs.len());
    detail.set(
        "turnaround_ms.p50",
        median(&turnaround),
        "ms",
        turnaround.len(),
    );
    detail.set(
        "turnaround_ms.p99",
        quantile(&turnaround, 0.99),
        "ms",
        turnaround.len(),
    );
    detail.set(
        "patch_ms.p50",
        median(&log.patch_ms),
        "ms",
        log.patch_ms.len(),
    );
    detail.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
    detail.set(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        attempted as usize,
    );
    Ok(Phase {
        e2e,
        detail,
        log,
        daemon,
        attempted,
        failed,
        handler,
    })
}

/// Per-job counts of unpatched-graph jobs, by (client, iteration).
fn job_counts(log: &ClientLog) -> std::collections::BTreeMap<(usize, usize), JobCounts> {
    log.jobs
        .iter()
        .filter_map(|j| j.counts.map(|c| ((j.client, j.iteration), c)))
        .collect()
}

/// Compares per-job counts where both logs ran the same (client, iteration).
fn compare_counts(a: &ClientLog, b: &ClientLog, what: &str, problems: &mut Vec<String>) {
    let b = job_counts(b);
    let mismatches: Vec<String> = job_counts(a)
        .into_iter()
        .filter_map(|(key, ca)| {
            b.get(&key)
                .filter(|cb| **cb != ca)
                .map(|cb| format!("{key:?}: {ca:?} vs {cb:?}"))
        })
        .collect();
    if !mismatches.is_empty() {
        problems.push(format!(
            "{} jobs did not repeat ({what}), first {}",
            mismatches.len(),
            mismatches[0]
        ));
    }
}

pub fn run(args: &Args) -> Outcome {
    match try_run(args) {
        Ok(out) => out,
        Err(e) => Outcome {
            attempted: 1,
            failed: 1,
            problems: vec![e],
            ..Outcome::default()
        },
    }
}

fn try_run(args: &Args) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let copies: Vec<Graph> = (0..CATALOG.len())
        .map(|i| {
            let request: CreateGraphRequest =
                serde_json::from_str(&create_body(args.seed, i)).map_err(|e| e.to_string())?;
            request.source.materialize(request.seed)
        })
        .collect::<Result<_, _>>()?;
    let copies_s = t0.elapsed().as_secs_f64();

    let mut out = Outcome::default();
    let untraced = phase(args, "untraced", &copies, None)?;
    // Self-check: re-run each client's first iterations on the same seeds.
    let check = {
        let ctx = Ctx {
            seed: args.seed,
            addr: &untraced.daemon.addr,
            graph_ids: &untraced.daemon.graph_ids,
            copies: &copies,
            clients: nproc(),
        };
        let mut log = ClientLog::default();
        for c in 0..nproc() {
            let l = client_loop(&ctx, c, 0..CHECK_ITERATIONS, None, false, None);
            log.jobs.extend(l.jobs);
            log.failures.extend(l.failures);
        }
        log
    };
    compare_counts(
        &untraced.log,
        &check,
        "same seed, same daemon",
        &mut out.problems,
    );
    out.attempted = untraced.attempted + (check.jobs.len() + check.failures.len()) as u64;
    out.failed = untraced.failed + check.failures.len() as u64;
    out.problems
        .extend(untraced.log.failures.iter().take(5).cloned());
    out.problems.extend(check.failures.iter().take(5).cloned());
    out.detail = untraced.detail;
    out.e2e = untraced.e2e;
    let untraced_log = untraced.log;
    untraced.daemon.stop();

    if args.trace {
        let mut rec = Recorder::new(Instant::now());
        let traced = phase(args, "traced", &copies, Some(&mut rec))?;
        compare_counts(
            &untraced_log,
            &traced.log,
            "untraced vs traced phase",
            &mut out.problems,
        );
        out.attempted += traced.attempted;
        out.failed += traced.failed;
        out.problems
            .extend(traced.log.failures.iter().take(5).cloned());
        let mut layers = layers(&traced, &rec);
        probes(&traced.daemon, &mut layers)?;
        journal_probe(&args.work_dir.join("journal-probe"), &mut layers)?;
        layers.set("graph.generate_s", copies_s, "s", copies.len());
        let csr: usize = copies.iter().map(|g| 4 * (g.n() + 1) + 8 * g.m()).sum();
        layers.set("graph.working_set_mb", csr as f64 / 1e6, "MB", copies.len());
        traced.daemon.stop();
        out.layers = layers;
        out.traced_e2e = Some(traced.e2e);
        out.spans = Some(rec);
    }
    Ok(out)
}

fn layers(phase: &Phase, rec: &Recorder) -> Metrics {
    let jobs = &phase.log.jobs;
    let of = |f: &dyn Fn(&JobRecord) -> Option<f64>| jobs.iter().filter_map(f).collect::<Vec<_>>();
    let run = of(&|j| Some(j.run_ms));
    let submit = of(&|j| Some(j.submit_ms));
    let polls: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.poll_ms.iter().copied())
        .collect();
    let mis = of(&|j| Some(j.mis_ms));
    let waits = of(&|j| j.queue_wait_ms);
    let turnaround = of(&|j| Some(j.turnaround_ms));
    let verify = of(&|j| Some(j.verify_ms));
    let job_self = rec.self_ms("job");

    let mut m = Metrics::default();
    m.set("graph.is_mis_ms", median(&verify), "ms", verify.len());
    m.set("service.run_ms.p50", median(&run), "ms", run.len());
    m.set("service.run_ms.p99", quantile(&run, 0.99), "ms", run.len());
    for (a, key) in ALGORITHMS.iter().enumerate() {
        let per_key = of(&|j| (j.combo % ALGORITHMS.len() == a).then_some(j.run_ms));
        m.set(
            format!("service.run_ms.{key}"),
            median(&per_key),
            "ms",
            per_key.len(),
        );
    }
    m.set(
        "service.queue_wait_ms.p50",
        median(&waits),
        "ms",
        waits.len(),
    );
    m.set(
        "service.turnaround_ms.p99",
        quantile(&turnaround, 0.99),
        "ms",
        turnaround.len(),
    );
    m.set("warp.submit_ms.p50", median(&submit), "ms", submit.len());
    m.set(
        "warp.submit_ms.p99",
        quantile(&submit, 0.99),
        "ms",
        submit.len(),
    );
    m.set("warp.poll_ms.p50", median(&polls), "ms", polls.len());
    m.set("warp.mis_ms.p50", median(&mis), "ms", mis.len());
    m.set(
        "warp.patch_ms.p50",
        median(&phase.log.patch_ms),
        "ms",
        phase.log.patch_ms.len(),
    );
    let client_ms = [
        mean(&submit),
        mean(&polls),
        mean(&mis),
        mean(&phase.log.patch_ms),
    ];
    for ((route, &(sum, count)), client) in ROUTES.iter().zip(&phase.handler).zip(client_ms) {
        let handler_us = if count == 0 { 0.0 } else { sum / count as f64 };
        m.set(
            format!("warp.handler_us.{}", route.name),
            handler_us,
            "us",
            count as usize,
        );
        m.set(
            format!("warp.wire_us.{}", route.name),
            client * 1e3 - handler_us,
            "us",
            count as usize,
        );
    }
    m.set(
        "warp.requests_per_job",
        phase.log.requests as f64 / jobs.len().max(1) as f64,
        "count",
        jobs.len(),
    );
    m.set(
        "warp.errors",
        phase.log.errors as f64,
        "count",
        phase.log.requests as usize,
    );
    m.set(
        "bench.job_self_ms.p50",
        median(&job_self),
        "ms",
        job_self.len(),
    );
    m
}

/// Times the store-wide paths against the final store of the run.
fn probes(daemon: &Daemon, m: &mut Metrics) -> Result<(), String> {
    const REPS: usize = 21;
    let state = daemon.service.state();
    let time_us = |f: &dyn Fn()| {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                f();
                us(t0.elapsed())
            })
            .collect();
        median(&samples)
    };
    let gnp_small = daemon.graph_ids[PATCHED];
    let on_graph = time_us(&|| {
        std::hint::black_box(state.jobs.jobs_on_graph(gnp_small));
    });
    let gauges = time_us(&|| {
        std::hint::black_box(state.jobs.gauges());
    });
    let mut snapshot_ms = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        state
            .install_snapshot()
            .map_err(|e| format!("install_snapshot: {e}"))?;
        snapshot_ms.push(ms(t0.elapsed()));
    }
    m.set("service.jobs_on_graph_us", on_graph, "us", REPS);
    m.set("service.gauges_us", gauges, "us", REPS);
    m.set("service.install_snapshot_ms", median(&snapshot_ms), "ms", 3);
    m.set(
        "service.retained_jobs",
        state.jobs.list().len() as f64,
        "count",
        1,
    );
    Ok(())
}

/// Times direct `Journal::append` calls (each fsyncs) on a scratch journal.
fn journal_probe(dir: &Path, m: &mut Metrics) -> Result<(), String> {
    const APPENDS: u64 = 200;
    let (journal, _) = Journal::open(dir).map_err(|e| format!("journal open: {e}"))?;
    let mut samples = Vec::with_capacity(APPENDS as usize);
    for id in 1..=APPENDS {
        let t0 = Instant::now();
        journal
            .append(&Record::JobStarted { id })
            .map_err(|e| format!("journal append: {e}"))?;
        samples.push(us(t0.elapsed()));
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(dir);
    m.set(
        "service.journal_append_us.p50",
        median(&samples),
        "us",
        samples.len(),
    );
    m.set(
        "service.journal_append_us.p99",
        quantile(&samples, 0.99),
        "us",
        samples.len(),
    );
    Ok(())
}
