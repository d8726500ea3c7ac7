//! Chaos harness for the crash-safe graph service: repeated kill-and-restart
//! cycles under concurrent submit/PATCH traffic (two mutators PATCH one
//! graph at once) routed through a fault-injecting TCP proxy, plus slowloris
//! and malformed-frame attacks straight at the listener. Evidence lands in
//! `results/svc_chaos.json` and, on a full run only, in
//! `BENCH_recovery.json` in the working directory.
//!
//! Usage: `cargo run --release -p mis-bench --bin svc_chaos [-- --quick]`
//!
//! Exit status is non-zero when a gate fails:
//! * any acknowledged (202) job is missing after a restart;
//! * any completed job reports an invalid MIS;
//! * any interrupted job fails to complete validly when retried;
//! * graph registry versions after replay differ from the pre-crash truth;
//! * any job hangs (non-terminal at the verification deadline);
//! * a malformed frame or slow client takes the server down or gets a 2xx;
//! * a crash cycle ran no journal compaction;
//! * a crash cycle crashed with no acknowledgement made since its restart.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use mis_bench::report::{git_commit, print_section, write_report, Host};
use mis_bench::Scale;
use mis_service::api::{GraphInfo, JobInfo, JobStatus};
use mis_service::{Service, ServiceConfig};
use serde::{Deserialize, Serialize};
use warp::{Client, RetryPolicy};

const HELP: &str = "\
svc_chaos — kill-and-restart cycles against the crash-safe daemon

USAGE: svc_chaos [--quick] [--help]

  --quick  4 crash cycles over 4 client threads (CI smoke); default is
           20 cycles over 8 client threads; only a full run writes
           BENCH_recovery.json (both write results/svc_chaos.json)
  --help   print this help

METHOD
  Start an in-process daemon with a durable --data-dir, put a
  fault-injecting TCP proxy in front of it (connection drops, truncated
  forwards), and drive job submissions from N client threads, plus live
  PATCH traffic from two mutator threads on the same graph, through the
  proxy using the retrying HTTP client. Each cycle:
  let traffic run, force one journal compaction halfway through
  (AppState::install_snapshot; the byte-triggered compaction thread may
  add more), wait (at most 10 s) for a job acknowledged since the
  cycle's restart, pause the mutators, snapshot the graph registry straight
  from the service, crash it mid-traffic (sealed journal, aborted
  listener, abandoned workers), restart on the same data directory, and
  compare the replayed registry against the pre-crash snapshot exactly.
  Alongside the cycles a slowloris client trickles a request one byte at
  a time and raw sockets fire malformed/oversized frames at the listener.
  Afterwards every 202-acknowledged job id is resolved against the final
  incarnation: Completed jobs must carry a valid MIS; Interrupted jobs are
  re-run via POST /v1/jobs/:id/retry and must then complete validly.

GATES (non-zero exit)
  lost acked jobs; invalid MIS; failed retries; registry version drift
  after replay; hangs at the verification deadline; unclassified
  malformed-frame responses; a slowloris connection answered 2xx; a crash
  cycle with no compaction; a crash cycle with no new acknowledgement.
";

/// Deadline for the post-chaos verification sweep (per-id polls share it).
const VERIFY_DEADLINE: Duration = Duration::from_secs(240);
/// Settle time after pausing the mutator before the authoritative snapshot.
const SETTLE: Duration = Duration::from_millis(200);
/// Bound on the wait, before each crash, for a job acknowledged since the
/// cycle's restart: a submitter's retrying client can back off through a
/// whole quick cycle after a crash.
const NEW_ACK_WAIT: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ChaosReport {
    scale: String,
    host: Host,
    commit: String,
    crash_cycles: u64,
    restarts: u64,
    client_threads: usize,
    acked_jobs: u64,
    lost_acked: u64,
    invalid_mis: u64,
    completed: u64,
    interrupted_seen: u64,
    retries_issued: u64,
    retry_failures: u64,
    unexpected_terminal: u64,
    hangs: u64,
    version_mismatches: u64,
    submissions_shed: u64,
    submit_io_errors: u64,
    patches_acked: u64,
    proxy_connections: u64,
    proxy_dropped: u64,
    proxy_truncated: u64,
    malformed_probes: u64,
    malformed_unclassified: u64,
    slowloris_ok: bool,
    torn_tails_recovered: u64,
    /// Compactions forced through `AppState::install_snapshot`, one per
    /// cycle.
    compactions_forced: u64,
    /// Compactions the journal counted beyond the forced ones: the
    /// compaction thread's, started by the byte trigger.
    compactions_automatic: u64,
    /// Crash cycles whose incarnation installed no snapshot.
    cycles_without_compaction: u64,
    /// Crash cycles that crashed with no job acknowledged since their
    /// restart, after waiting up to `NEW_ACK_WAIT`.
    cycles_without_new_ack: u64,
    wall_seconds: f64,
}

impl ChaosReport {
    fn gates_pass(&self) -> bool {
        self.lost_acked == 0
            && self.invalid_mis == 0
            && self.retry_failures == 0
            && self.unexpected_terminal == 0
            && self.hangs == 0
            && self.version_mismatches == 0
            && self.malformed_unclassified == 0
            && self.slowloris_ok
            && self.acked_jobs > 0
            && self.restarts == self.crash_cycles
            && self.cycles_without_compaction == 0
            && self.cycles_without_new_ack == 0
    }

    fn to_pretty(&self) -> String {
        format!(
            "crash cycles: {} ({} restarts, {} torn tails truncated)\n\
             compactions: {} forced, {} automatic, {} cycles without one\n\
             cycles without a new acknowledgement: {}\n\
             acked jobs: {} ({} completed, {} interrupted -> {} retried, \
             {} lost, {} invalid MIS, {} hangs)\n\
             registry: {} version mismatches after replay\n\
             admission: {} submissions shed (429/503 after retries), {} IO errors\n\
             proxy: {} connections ({} dropped, {} truncated)\n\
             attacks: {} malformed frames ({} unclassified), slowloris ok: {}\n\
             wall: {:.2}s",
            self.crash_cycles,
            self.restarts,
            self.torn_tails_recovered,
            self.compactions_forced,
            self.compactions_automatic,
            self.cycles_without_compaction,
            self.cycles_without_new_ack,
            self.acked_jobs,
            self.completed,
            self.interrupted_seen,
            self.retries_issued,
            self.lost_acked,
            self.invalid_mis,
            self.hangs,
            self.version_mismatches,
            self.submissions_shed,
            self.submit_io_errors,
            self.proxy_connections,
            self.proxy_dropped,
            self.proxy_truncated,
            self.malformed_probes,
            self.malformed_unclassified,
            self.slowloris_ok,
            self.wall_seconds,
        )
    }
}

// ---------------------------------------------------------------------------
// Fault-injecting proxy
// ---------------------------------------------------------------------------

#[derive(Default)]
struct ProxyStats {
    connections: AtomicU64,
    dropped: AtomicU64,
    truncated: AtomicU64,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One-directional byte pump with an optional forward limit (truncation
/// fault). Read timeouts keep the thread responsive to the stop flag.
fn pump(mut from: TcpStream, mut to: TcpStream, stop: Arc<AtomicBool>, limit: Option<usize>) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(200)));
    let mut buf = [0u8; 8192];
    let mut sent = 0usize;
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let take = limit.map_or(n, |l| n.min(l.saturating_sub(sent)));
                if take > 0 && to.write_all(&buf[..take]).is_err() {
                    break;
                }
                sent += take;
                if limit.is_some_and(|l| sent >= l) {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => break,
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Accepts on a stable frontend address and forwards to whatever backend
/// address is current (the service moves ports across restarts). Roughly 8%
/// of connections are dropped on arrival and another 8% forward only the
/// first 48 bytes of the request before closing — the retrying client is
/// expected to absorb both.
fn start_proxy(
    backend: Arc<Mutex<String>>,
    stop: Arc<AtomicBool>,
    stats: Arc<ProxyStats>,
) -> (SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let front = listener.local_addr().expect("proxy addr");
    let handle = thread::spawn(move || {
        let mut counter = 0u64;
        for conn in listener.incoming() {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let Ok(client_conn) = conn else { continue };
            counter += 1;
            stats.connections.fetch_add(1, Ordering::Relaxed);
            let roll = splitmix64(counter ^ 0x5EED) % 100;
            if roll < 8 {
                stats.dropped.fetch_add(1, Ordering::Relaxed);
                let _ = client_conn.shutdown(Shutdown::Both);
                continue;
            }
            let target = backend.lock().unwrap_or_else(|e| e.into_inner()).clone();
            let Ok(server_conn) = TcpStream::connect(&target) else {
                // Backend down (mid-crash): the client sees a reset and
                // retries with backoff.
                let _ = client_conn.shutdown(Shutdown::Both);
                continue;
            };
            let limit = if roll < 16 {
                stats.truncated.fetch_add(1, Ordering::Relaxed);
                Some(48)
            } else {
                None
            };
            let (c2, s2) = (
                client_conn.try_clone().expect("clone client conn"),
                server_conn.try_clone().expect("clone server conn"),
            );
            let stop_a = Arc::clone(&stop);
            let stop_b = Arc::clone(&stop);
            thread::spawn(move || pump(client_conn, server_conn, stop_a, limit));
            thread::spawn(move || pump(s2, c2, stop_b, None));
        }
    });
    (front, handle)
}

// ---------------------------------------------------------------------------
// Attacks straight at the listener
// ---------------------------------------------------------------------------

/// Fires one garbage frame and one oversized-header frame at the service and
/// classifies the responses. Returns (probes, unclassified). A response is
/// classified when it is the mapped 4xx or the server just closes the
/// connection; anything 2xx (or a dead listener afterwards) is not.
fn malformed_probes(addr: &str) -> (u64, u64) {
    let mut unclassified = 0u64;

    let garbage: &[u8] = b"\x16\x03\x01 NOT HTTP AT ALL\r\n\r\n\x00\xff";
    if !probe_expect(addr, garbage, &["400"]) {
        unclassified += 1;
    }

    let mut oversized = Vec::with_capacity(80 * 1024);
    oversized.extend_from_slice(b"GET /v1/metrics HTTP/1.1\r\nx-pad: ");
    oversized.resize(80 * 1024, b'a');
    oversized.extend_from_slice(b"\r\n\r\n");
    if !probe_expect(addr, &oversized, &["413"]) {
        unclassified += 1;
    }

    // The listener must still answer real requests afterwards.
    let mut client = Client::new(addr.to_string());
    match client.get("/v1/metrics") {
        Ok(resp) if resp.status == 200 => {}
        _ => unclassified += 1,
    }
    (3, unclassified)
}

fn probe_expect(addr: &str, payload: &[u8], statuses: &[&str]) -> bool {
    let Ok(mut conn) = TcpStream::connect(addr) else {
        return false;
    };
    let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
    if conn.write_all(payload).is_err() {
        // Server slammed the door mid-write: classified.
        return true;
    }
    let _ = conn.shutdown(Shutdown::Write);
    let mut buf = Vec::new();
    match conn.read_to_end(&mut buf) {
        Ok(0) => true, // closed without a response: classified
        Ok(_) => {
            let head = String::from_utf8_lossy(&buf);
            let status = head
                .strip_prefix("HTTP/1.1 ")
                .and_then(|r| r.get(..3))
                .unwrap_or("");
            statuses.contains(&status)
        }
        Err(_) => true, // reset: classified
    }
}

/// Trickles a request one fragment at a time. The server must either evict
/// the connection at its request deadline (408 or close) or the connection
/// dies with a crash cycle — it must never be answered 2xx and never
/// outlive the deadline by much.
fn slowloris(addr: String, verdict: Arc<Mutex<Option<bool>>>) {
    let ok = slowloris_inner(&addr);
    *verdict.lock().unwrap_or_else(|e| e.into_inner()) = Some(ok);
}

fn slowloris_inner(addr: &str) -> bool {
    let Ok(mut conn) = TcpStream::connect(addr) else {
        return false;
    };
    let started = Instant::now();
    let _ = conn.set_read_timeout(Some(Duration::from_millis(500)));
    if conn.write_all(b"GET /v1/metrics HTTP/1.1\r\n").is_err() {
        return true; // closed before we even got going
    }
    let mut buf = [0u8; 1024];
    loop {
        if started.elapsed() > Duration::from_secs(25) {
            return false; // the server never evicted us: hang
        }
        // Drip one header byte, then look for a response / closure.
        if conn.write_all(b"x").is_err() {
            return true;
        }
        match conn.read(&mut buf) {
            Ok(0) => return true,
            Ok(n) => {
                let head = String::from_utf8_lossy(&buf[..n]);
                return !head.starts_with("HTTP/1.1 2");
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return true,
        }
    }
}

// ---------------------------------------------------------------------------
// Traffic + snapshots
// ---------------------------------------------------------------------------

fn retrying_client(addr: &str) -> Client {
    Client::with_retry(
        addr.to_string(),
        RetryPolicy {
            budget: 7,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(800),
            retry_on_status: true,
        },
    )
}

fn graph_catalog(client: &mut Client) -> Vec<u64> {
    let specs = [
        "{\"name\": \"gnp\", \"spec\": {\"Gnp\": {\"n\": 96, \"p\": 0.08}}, \"seed\": 11}",
        "{\"name\": \"cycle\", \"spec\": {\"Cycle\": {\"n\": 64}}}",
        "{\"name\": \"cliques\", \"spec\": {\"DisjointCliques\": {\"count\": 8, \"size\": 6}}}",
    ];
    specs
        .iter()
        .map(|body| {
            let resp = client
                .post_json("/v1/graphs", body.to_string())
                .expect("create graph");
            assert_eq!(resp.status, 201, "graph creation failed: {:?}", resp.text());
            let info: GraphInfo = serde_json::from_str(resp.text().unwrap()).expect("graph info");
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

/// Authoritative registry state: (id, name, n, m, version), sorted by id.
fn registry_snapshot(client: &mut Client) -> Vec<(u64, String, usize, usize, u64)> {
    let resp = client.get("/v1/graphs").expect("list graphs");
    let mut infos: Vec<GraphInfo> = serde_json::from_str(resp.text().unwrap()).expect("graph list");
    infos.sort_by_key(|g| g.id);
    infos
        .into_iter()
        .map(|g| (g.id, g.name, g.n, g.m, g.version))
        .collect()
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return;
    }
    let scale = Scale::from_args();
    // `submit_pace` throttles each submitter thread. The full run survives
    // 20 restarts, and every surviving job is replayed on each of them: an
    // unthrottled firehose makes the store (and with it every replay,
    // snapshot, and the final verification sweep) grow quadratically in
    // wall time without strengthening any gate.
    let (cycles, client_threads, cycle_len, submit_pace) = match scale {
        Scale::Quick => (
            4u64,
            4usize,
            Duration::from_millis(400),
            Duration::from_millis(3),
        ),
        Scale::Full => (20, 8, Duration::from_millis(900), Duration::from_millis(25)),
    };

    let data_dir = std::env::temp_dir().join(format!("svc-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).expect("create data dir");
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        data_dir: Some(data_dir.clone()),
        queue_capacity: 512,
    };

    let mut service = Service::start(&config).expect("bind loopback");
    let direct_addr = Arc::new(Mutex::new(service.local_addr().to_string()));
    println!(
        "svc_chaos: daemon on {} (data dir {}), {} crash cycles over {} clients",
        service.local_addr(),
        data_dir.display(),
        cycles,
        client_threads
    );

    let stop = Arc::new(AtomicBool::new(false));
    let proxy_stats = Arc::new(ProxyStats::default());
    let (proxy_addr, proxy_handle) = start_proxy(
        Arc::clone(&direct_addr),
        Arc::clone(&stop),
        Arc::clone(&proxy_stats),
    );
    let proxy_addr = proxy_addr.to_string();

    let mut setup = Client::new(service.local_addr().to_string());
    let graphs = graph_catalog(&mut setup);
    let algorithms = algorithm_keys(&mut setup);
    assert!(!algorithms.is_empty(), "empty algorithm registry");

    let started = Instant::now();

    // Slowloris probe runs once, concurrently with the first cycles.
    let slow_verdict: Arc<Mutex<Option<bool>>> = Arc::new(Mutex::new(None));
    let slow_handle = {
        let addr = service.local_addr().to_string();
        let verdict = Arc::clone(&slow_verdict);
        thread::spawn(move || slowloris(addr, verdict))
    };

    // Ledger of job ids whose 202 the client actually observed; only those
    // acknowledgements are durability promises.
    let ledger: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let shed = Arc::new(AtomicU64::new(0));
    let io_errors = Arc::new(AtomicU64::new(0));

    let mut submitters = Vec::new();
    for t in 0..client_threads {
        let proxy = proxy_addr.clone();
        let graphs = graphs.clone();
        let algorithms = algorithms.clone();
        let ledger = Arc::clone(&ledger);
        let shed = Arc::clone(&shed);
        let io_errors = Arc::clone(&io_errors);
        let stop = Arc::clone(&stop);
        submitters.push(thread::spawn(move || {
            let mut client = retrying_client(&proxy);
            let mut k = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let idx = t + k * 17;
                let algorithm = &algorithms[idx % algorithms.len()];
                let graph = graphs[idx % graphs.len()];
                let body = format!(
                    "{{\"graph\": {graph}, \"algorithm\": \"{algorithm}\", \"seed\": {idx}}}"
                );
                match client.post_json("/v1/jobs", body) {
                    Ok(resp) if resp.status == 202 => {
                        if let Ok(info) = serde_json::from_str::<JobInfo>(resp.text().unwrap_or(""))
                        {
                            ledger
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push(info.id);
                        }
                    }
                    Ok(resp) if resp.status == 429 || resp.status == 503 => {
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(_) => {
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        io_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Interleave read traffic over the faulty path.
                if k % 5 == 4 {
                    let sample = {
                        let l = ledger.lock().unwrap_or_else(|e| e.into_inner());
                        l.get(idx % l.len().max(1)).copied()
                    };
                    if let Some(id) = sample {
                        let _ = client.get(&format!("/v1/jobs/{id}"));
                    }
                }
                k += 1;
                thread::sleep(submit_pace);
            }
        }));
    }

    // Mutators: live PATCH traffic through the proxy, pausable around the
    // authoritative pre-crash snapshot. Two threads PATCH the same graph,
    // each with its own edge pattern, so the registry-drift gate sees
    // concurrent PATCHes replayed across crashes.
    let pause_mutator = Arc::new(AtomicBool::new(false));
    let patches_acked = Arc::new(AtomicU64::new(0));
    let mutators: Vec<_> = (0..2usize)
        .map(|w| {
            let proxy = proxy_addr.clone();
            let stop = Arc::clone(&stop);
            let pause = Arc::clone(&pause_mutator);
            let patches = Arc::clone(&patches_acked);
            let target = graphs[0];
            thread::spawn(move || {
                let mut client = retrying_client(&proxy);
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if pause.load(Ordering::Relaxed) {
                        thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    let a = round as usize + 45 * w;
                    let body = format!(
                        "{{\"add\": [[{}, {}]], \"remove\": [[{}, {}]]}}",
                        a % 90,
                        (a + 7 + 6 * w) % 90,
                        (a + 3) % 90,
                        (a + 11 + 6 * w) % 90
                    );
                    if let Ok(resp) = client.patch_json(&format!("/v1/graphs/{target}/edges"), body)
                    {
                        if resp.status == 200 {
                            patches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    round += 1;
                    thread::sleep(Duration::from_millis(8));
                }
            })
        })
        .collect();

    // ------------------------------------------------------------------
    // Crash cycles
    // ------------------------------------------------------------------
    let mut restarts = 0u64;
    let mut version_mismatches = 0u64;
    let mut torn_tails = 0u64;
    let mut malformed_total = 0u64;
    let mut malformed_unclassified = 0u64;
    let mut compactions_forced = 0u64;
    let mut compactions_total = 0u64;
    let mut cycles_without_compaction = 0u64;
    let mut cycles_without_new_ack = 0u64;
    let acks = || ledger.lock().unwrap_or_else(|e| e.into_inner()).len();

    for cycle in 1..=cycles {
        let acks_at_restart = acks();
        pause_mutator.store(false, Ordering::SeqCst);
        // Force one compaction mid-traffic: the byte trigger alone may not
        // fire within a short cycle.
        thread::sleep(cycle_len / 2);
        match service.state().install_snapshot() {
            Ok(()) => compactions_forced += 1,
            Err(e) => eprintln!("cycle {cycle}: forced compaction failed: {e}"),
        }
        thread::sleep(cycle_len - cycle_len / 2);
        let ack_deadline = Instant::now() + NEW_ACK_WAIT;
        while acks() == acks_at_restart && Instant::now() < ack_deadline {
            thread::sleep(Duration::from_millis(5));
        }
        if acks() == acks_at_restart {
            cycles_without_new_ack += 1;
            eprintln!("cycle {cycle}: no job acknowledged since the restart");
        }
        pause_mutator.store(true, Ordering::SeqCst);
        thread::sleep(SETTLE);

        let cycle_t0 = Instant::now();
        let addr_now = direct_addr
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let (probes, bad) = malformed_probes(&addr_now);
        malformed_total += probes;
        malformed_unclassified += bad;

        let mut truth = Client::new(addr_now);
        let pre = registry_snapshot(&mut truth);

        let compactions = service
            .state()
            .journal
            .as_ref()
            .map_or(0, |journal| journal.compactions());
        compactions_total += compactions;
        if compactions == 0 {
            cycles_without_compaction += 1;
            eprintln!("cycle {cycle}: no compaction ran");
        }

        // Crash: seal the journal, abandon the workers, abort the listener.
        service.crash();
        let crash_secs = cycle_t0.elapsed().as_secs_f64();

        let restart_t0 = Instant::now();
        let reborn = Service::start(&config).expect("restart after crash");
        let restart_secs = restart_t0.elapsed().as_secs_f64();
        restarts += 1;
        let recovery = reborn.state().recovery.clone();
        torn_tails += u64::from(recovery.torn_tail);
        let new_addr = reborn.local_addr().to_string();
        *direct_addr.lock().unwrap_or_else(|e| e.into_inner()) = new_addr.clone();

        let mut truth = Client::new(new_addr);
        let post = registry_snapshot(&mut truth);
        if pre != post {
            version_mismatches += 1;
            eprintln!(
                "cycle {cycle}: registry drift after replay\n  pre:  {pre:?}\n  post: {post:?}"
            );
        }
        println!(
            "cycle {cycle}/{cycles}: {compactions} compactions; recovered {} graphs, {} jobs \
             ({} requeued, {} interrupted){} \
             [probe+crash {crash_secs:.2}s, replay {restart_secs:.2}s, compare {:.2}s]",
            recovery.graphs,
            recovery.jobs,
            recovery.requeued,
            recovery.interrupted,
            if recovery.torn_tail {
                ", torn tail truncated"
            } else {
                ""
            },
            cycle_t0.elapsed().as_secs_f64() - crash_secs - restart_secs,
        );
        service = reborn;
    }

    // ------------------------------------------------------------------
    // Stop traffic, verify every acknowledgement against the survivor
    // ------------------------------------------------------------------
    stop.store(true, Ordering::SeqCst);
    for h in submitters {
        h.join().expect("submitter thread");
    }
    for mutator in mutators {
        mutator.join().expect("mutator thread");
    }
    // Unblock the proxy accept loop.
    let _ = TcpStream::connect(&proxy_addr);
    proxy_handle.join().expect("proxy thread");
    slow_handle.join().expect("slowloris thread");
    let slowloris_ok = slow_verdict
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .unwrap_or(false);

    let final_addr = direct_addr
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let mut verifier = Client::new(final_addr);
    let mut acked: Vec<u64> = {
        let l = ledger.lock().unwrap_or_else(|e| e.into_inner());
        l.clone()
    };
    acked.sort_unstable();
    acked.dedup();

    let deadline = Instant::now() + VERIFY_DEADLINE;
    let mut lost = 0u64;
    let mut completed = 0u64;
    let mut invalid = 0u64;
    let mut interrupted_seen = 0u64;
    let mut retries = 0u64;
    let mut retry_failures = 0u64;
    let mut unexpected_terminal = 0u64;
    let mut hangs = 0u64;

    for &id in &acked {
        match wait_terminal(&mut verifier, id, deadline) {
            Poll::Missing => lost += 1,
            Poll::Hung => hangs += 1,
            Poll::Terminal(info) => match info.status {
                JobStatus::Completed => {
                    completed += 1;
                    if !info.outcome.as_ref().is_some_and(|o| o.valid_mis) {
                        invalid += 1;
                        eprintln!("job {id}: completed with an invalid MIS: {info:?}");
                    }
                }
                JobStatus::Interrupted => {
                    interrupted_seen += 1;
                    retries += 1;
                    match retry_and_wait(&mut verifier, id, deadline) {
                        RetryResult::CompletedValid => {}
                        RetryResult::Hung => {
                            hangs += 1;
                            retry_failures += 1;
                        }
                        RetryResult::Failed(why) => {
                            retry_failures += 1;
                            eprintln!("job {id}: retry failed: {why}");
                        }
                    }
                }
                other => {
                    unexpected_terminal += 1;
                    eprintln!(
                        "job {id}: unexpected terminal state {other:?} (error: {:?})",
                        info.error
                    );
                }
            },
        }
    }

    // Unacked duplicates (a retried submit whose first attempt landed) must
    // also drain — nothing may hang in the store.
    if !drain_store(&mut verifier, deadline) {
        hangs += 1;
        eprintln!("store did not drain: jobs still queued/running at the deadline");
    }

    let wall = started.elapsed();
    service.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);

    let report = ChaosReport {
        scale: format!("{scale:?}"),
        host: Host::current(),
        commit: git_commit(),
        crash_cycles: cycles,
        restarts,
        client_threads,
        acked_jobs: acked.len() as u64,
        lost_acked: lost,
        invalid_mis: invalid,
        completed,
        interrupted_seen,
        retries_issued: retries,
        retry_failures,
        unexpected_terminal,
        hangs,
        version_mismatches,
        submissions_shed: shed.load(Ordering::Relaxed),
        submit_io_errors: io_errors.load(Ordering::Relaxed),
        patches_acked: patches_acked.load(Ordering::Relaxed),
        proxy_connections: proxy_stats.connections.load(Ordering::Relaxed),
        proxy_dropped: proxy_stats.dropped.load(Ordering::Relaxed),
        proxy_truncated: proxy_stats.truncated.load(Ordering::Relaxed),
        malformed_probes: malformed_total,
        malformed_unclassified,
        slowloris_ok,
        torn_tails_recovered: torn_tails,
        compactions_forced,
        compactions_automatic: compactions_total.saturating_sub(compactions_forced),
        cycles_without_compaction,
        cycles_without_new_ack,
        wall_seconds: wall.as_secs_f64(),
    };

    print_section(
        "SERVICE CHAOS: crash/recover under fire",
        &report.to_pretty(),
    );
    let json = serde_json::to_string_pretty(&report).expect("report JSON");
    write_report(scale, "svc_chaos.json", "BENCH_recovery.json", &json);

    if !report.gates_pass() {
        if report.lost_acked > 0 {
            eprintln!(
                "GATE FAILED: {} acked jobs lost across restarts",
                report.lost_acked
            );
        }
        if report.invalid_mis > 0 {
            eprintln!(
                "GATE FAILED: {} completed jobs with an invalid MIS",
                report.invalid_mis
            );
        }
        if report.retry_failures > 0 {
            eprintln!(
                "GATE FAILED: {} interrupted jobs failed to retry",
                report.retry_failures
            );
        }
        if report.unexpected_terminal > 0 {
            eprintln!(
                "GATE FAILED: {} jobs in an unexpected terminal state",
                report.unexpected_terminal
            );
        }
        if report.hangs > 0 {
            eprintln!(
                "GATE FAILED: {} hangs at the verification deadline",
                report.hangs
            );
        }
        if report.version_mismatches > 0 {
            eprintln!(
                "GATE FAILED: registry drifted after replay in {} cycles",
                report.version_mismatches
            );
        }
        if report.malformed_unclassified > 0 {
            eprintln!(
                "GATE FAILED: {} malformed-frame probes not cleanly rejected",
                report.malformed_unclassified
            );
        }
        if !report.slowloris_ok {
            eprintln!("GATE FAILED: slowloris connection answered 2xx or never evicted");
        }
        if report.acked_jobs == 0 {
            eprintln!("GATE FAILED: no job acknowledgements observed — harness defect");
        }
        if report.restarts != report.crash_cycles {
            eprintln!(
                "GATE FAILED: {} restarts for {} crashes",
                report.restarts, report.crash_cycles
            );
        }
        if report.cycles_without_compaction > 0 {
            eprintln!(
                "GATE FAILED: {} crash cycles ran no compaction",
                report.cycles_without_compaction
            );
        }
        if report.cycles_without_new_ack > 0 {
            eprintln!(
                "GATE FAILED: {} crash cycles crashed with no new acknowledgement",
                report.cycles_without_new_ack
            );
        }
        std::process::exit(1);
    }
}

enum Poll {
    Missing,
    Hung,
    Terminal(JobInfo),
}

fn wait_terminal(client: &mut Client, id: u64, deadline: Instant) -> Poll {
    loop {
        let Ok(resp) = client.get(&format!("/v1/jobs/{id}")) else {
            if Instant::now() > deadline {
                return Poll::Hung;
            }
            thread::sleep(Duration::from_millis(20));
            continue;
        };
        if resp.status == 404 {
            return Poll::Missing;
        }
        if let Ok(info) = serde_json::from_str::<JobInfo>(resp.text().unwrap_or("")) {
            if info.status.is_terminal() {
                return Poll::Terminal(info);
            }
        }
        if Instant::now() > deadline {
            return Poll::Hung;
        }
        thread::sleep(Duration::from_millis(10));
    }
}

enum RetryResult {
    CompletedValid,
    Hung,
    Failed(String),
}

fn retry_and_wait(client: &mut Client, id: u64, deadline: Instant) -> RetryResult {
    let resp = match client.post_json(&format!("/v1/jobs/{id}/retry"), String::new()) {
        Ok(resp) => resp,
        Err(e) => return RetryResult::Failed(format!("retry request failed: {e}")),
    };
    if resp.status != 202 {
        return RetryResult::Failed(format!(
            "retry rejected with {}: {:?}",
            resp.status,
            resp.text()
        ));
    }
    let fresh: JobInfo = match serde_json::from_str(resp.text().unwrap_or("")) {
        Ok(info) => info,
        Err(e) => return RetryResult::Failed(format!("bad retry response: {e}")),
    };
    match wait_terminal(client, fresh.id, deadline) {
        Poll::Missing => RetryResult::Failed("retried job vanished".to_string()),
        Poll::Hung => RetryResult::Hung,
        Poll::Terminal(info) => {
            if info.status == JobStatus::Completed
                && info.outcome.as_ref().is_some_and(|o| o.valid_mis)
            {
                RetryResult::CompletedValid
            } else {
                RetryResult::Failed(format!(
                    "retried job ended {:?} (error: {:?})",
                    info.status, info.error
                ))
            }
        }
    }
}

/// Polls the gauges until nothing is queued or running.
fn drain_store(client: &mut Client, deadline: Instant) -> bool {
    loop {
        if let Ok(resp) = client.get("/v1/metrics") {
            if let Ok(report) =
                serde_json::from_str::<mis_service::api::MetricsReport>(resp.text().unwrap_or("{}"))
            {
                if report.jobs.queued + report.jobs.running == 0 {
                    return true;
                }
            }
        }
        if Instant::now() > deadline {
            return false;
        }
        thread::sleep(Duration::from_millis(25));
    }
}
