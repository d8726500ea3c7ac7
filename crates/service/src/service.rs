//! Service assembly: state, router, server, persistence, and lifecycle.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use crate::graphs::GraphRegistry;
use crate::jobs::JobStore;
use crate::journal::{Journal, SnapshotDoc, SnapshotGraph, SnapshotJob};
use crate::metrics::ServiceMetrics;
use crate::routes;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral test port).
    pub addr: String,
    /// Worker threads in the job pool (0 = available parallelism).
    pub workers: usize,
    /// Durability root: when set, a write-ahead journal + snapshots live
    /// here and every acknowledged mutation survives a crash. `None` runs
    /// fully in-memory (the pre-durability behavior).
    pub data_dir: Option<PathBuf>,
    /// Bound on the job submission queue (0 = default). Submissions beyond
    /// it are shed with 429.
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 0,
            data_dir: None,
            queue_capacity: 0,
        }
    }
}

/// What journal replay restored at startup.
#[derive(Debug, Clone, Default)]
pub struct RecoverySummary {
    /// Graphs re-registered at their last committed version.
    pub graphs: usize,
    /// Jobs rehydrated (all statuses).
    pub jobs: usize,
    /// Acknowledged-but-unstarted jobs put back on the queue.
    pub requeued: usize,
    /// Jobs that were running at the crash, now terminal `Interrupted`.
    pub interrupted: usize,
    /// Whether a torn journal tail was found and truncated.
    pub torn_tail: bool,
}

/// Shared state behind every route handler.
pub struct AppState {
    /// Named-graph registry.
    pub graphs: GraphRegistry,
    /// Job store + worker pool.
    pub jobs: Arc<JobStore>,
    /// Write-ahead journal, when the service persists.
    pub journal: Option<Arc<Journal>>,
    /// What replay restored when this incarnation started.
    pub recovery: RecoverySummary,
    /// Service start time (for uptime reporting).
    pub started: Instant,
    /// Set by `POST /v1/admin/shutdown`; the daemon binary polls it.
    pub shutdown_requested: AtomicBool,
    metrics: OnceLock<Arc<ServiceMetrics>>,
}

impl AppState {
    /// The endpoint metrics collector (set once the router is built).
    pub fn metrics(&self) -> Option<&Arc<ServiceMetrics>> {
        self.metrics.get()
    }

    /// The full current state as a snapshot document.
    ///
    /// The sequence number is read BEFORE the state: anything journaled
    /// after it simply stays in the journal when this document is
    /// installed, and replaying those records over the (possibly newer)
    /// captured state is idempotent. The submit barrier closes the one
    /// path where a covered record's effect could still be invisible.
    pub fn snapshot_doc(&self) -> SnapshotDoc {
        let last_seq = self.journal.as_ref().map_or(0, |j| j.current_seq());
        self.jobs.submit_barrier();
        let graphs = self
            .graphs
            .list()
            .into_iter()
            .map(|entry| {
                let (graph, version) = entry.snapshot();
                SnapshotGraph {
                    id: entry.id,
                    name: entry.name.clone(),
                    source: entry.source.clone(),
                    n: graph.n(),
                    edges: graph.edges().collect(),
                    version,
                }
            })
            .collect();
        let jobs = self
            .jobs
            .list()
            .into_iter()
            .map(|job| {
                let info = job.info();
                SnapshotJob {
                    id: job.id,
                    request: job.request.clone(),
                    status: info.status,
                    outcome: info.outcome,
                    error: info.error,
                    mis: job.mis(),
                }
            })
            .collect();
        SnapshotDoc {
            last_seq,
            graphs,
            jobs,
        }
    }

    /// Compacts now: writes the current state as the snapshot and trims
    /// the journal to the records it does not cover. The service's
    /// compaction thread calls this whenever the journal reports one due;
    /// no request does.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the journal stays intact on error.
    pub fn install_snapshot(&self) -> io::Result<()> {
        match &self.journal {
            Some(journal) => journal.install_snapshot(&self.snapshot_doc()),
            None => Ok(()),
        }
    }
}

/// How long the compaction thread waits after a failed install before it
/// tries again.
const COMPACTION_RETRY: Duration = Duration::from_secs(1);

/// The compaction thread: installs a snapshot whenever `journal` reports
/// one due, until the journal is sealed.
fn compact(state: &AppState, journal: &Journal) {
    let mut not_before = Instant::now();
    while journal.wait_compaction_due(not_before) {
        if state.install_snapshot().is_err() {
            not_before = Instant::now() + COMPACTION_RETRY;
        }
    }
}

/// A running graph-service daemon.
pub struct Service {
    state: Arc<AppState>,
    server: warp::Server,
    /// The compaction thread, when the service persists.
    compactor: Option<thread::JoinHandle<()>>,
}

impl Service {
    /// Starts the worker pool, builds the router + metrics, and binds the
    /// HTTP server. With [`ServiceConfig::data_dir`] set, the journal in
    /// that directory is replayed first: graphs come back at their last
    /// committed version, acknowledged-but-unfinished jobs re-queue, and
    /// jobs that were running at the crash surface as `Interrupted`; a
    /// compaction thread then starts.
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures, journal open failures, and a
    /// failure to spawn the compaction thread.
    pub fn start(config: &ServiceConfig) -> io::Result<Service> {
        let (journal, recovered) = match &config.data_dir {
            Some(dir) => {
                let (journal, recovery) = Journal::open(dir)?;
                (Some(Arc::new(journal)), Some(recovery))
            }
            None => (None, None),
        };

        let graphs = GraphRegistry::new();
        let jobs = JobStore::start(config.workers, config.queue_capacity, journal.clone());
        let mut summary = RecoverySummary::default();
        if let Some(recovery) = recovered {
            summary.graphs = recovery.graphs.len();
            summary.jobs = recovery.jobs.len();
            summary.requeued = recovery.requeued().count();
            summary.interrupted = recovery.interrupted().count();
            summary.torn_tail = recovery.torn_tail;
            for g in recovery.graphs {
                graphs.restore(g.id, g.name, g.source, g.graph, g.version);
            }
            for job in recovery.jobs {
                let entry = graphs.get(job.request.graph);
                jobs.restore(job, entry);
            }
        }

        let state = Arc::new(AppState {
            graphs,
            jobs,
            journal,
            recovery: summary,
            started: Instant::now(),
            shutdown_requested: AtomicBool::new(false),
            metrics: OnceLock::new(),
        });
        let router = routes::build(&state);
        let metrics = Arc::new(ServiceMetrics::for_routes(&router.patterns()));
        assert!(
            state.metrics.set(Arc::clone(&metrics)).is_ok(),
            "metrics initialized twice"
        );
        let router = router.with_middleware(metrics);
        let server = warp::serve(router).bind(config.addr.as_str())?;
        let compactor = match state.journal.clone() {
            Some(journal) => {
                let state = Arc::clone(&state);
                Some(
                    thread::Builder::new()
                        .name("mis-compactor".to_string())
                        .spawn(move || compact(&state, &journal))?,
                )
            }
            None => None,
        };
        Ok(Service {
            state,
            server,
            compactor,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The shared state (graphs, jobs, metrics).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// `true` once a client called `POST /v1/admin/shutdown`.
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: drain the job pool (stop intake, cancel queued,
    /// finish running), snapshot the final state, stop the HTTP server
    /// (event streams end once their jobs are terminal, so no connection
    /// can wedge this), then seal the journal and join the compaction
    /// thread, re-raising its panic if it had one.
    pub fn shutdown(self) {
        self.state.jobs.drain();
        let _ = self.state.install_snapshot();
        self.server.shutdown();
        if let Some(journal) = &self.state.journal {
            journal.seal();
        }
        if let Some(Err(panic)) = self.compactor.map(thread::JoinHandle::join) {
            std::panic::resume_unwind(panic);
        }
    }

    /// Simulated hard crash, for fault injection: seal the journal (stale
    /// worker appends bounce, and the compaction thread exits), walk away
    /// from the pool and the compaction thread without joining them, and
    /// tear the listener down without waiting for in-flight requests.
    /// The data directory is left exactly as a process kill would leave it;
    /// a successor [`Service::start`] on the same directory recovers.
    pub fn crash(self) {
        if let Some(journal) = &self.state.journal {
            journal.seal();
        }
        self.state.jobs.abandon();
        self.server.abort();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    use warp::Client;

    use super::*;
    use crate::api::{GraphInfo, JobInfo, JobStatus};
    use crate::journal::InstallStage;

    #[test]
    fn no_request_waits_on_a_compaction() {
        let dir =
            std::env::temp_dir().join(format!("mis-service-compactor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Service::start(&ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            data_dir: Some(dir.clone()),
            queue_capacity: 0,
        })
        .unwrap();
        let journal = Arc::clone(service.state().journal.as_ref().unwrap());
        // Holds the first install after its snapshot rename: the point where
        // the old code still held the append lock for the rest of it.
        let entered = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let armed = AtomicBool::new(true);
        let (held, released) = (Arc::clone(&entered), Arc::clone(&release));
        journal.set_install_hook(move |stage| {
            if stage == InstallStage::SnapshotRenamed && armed.swap(false, Ordering::SeqCst) {
                held.wait();
                released.wait();
            }
        });

        let mut client = Client::new(service.local_addr().to_string());
        let resp = client
            .post_json(
                "/v1/graphs",
                "{\"name\": \"small\", \"spec\": {\"Cycle\": {\"n\": 16}}}",
            )
            .unwrap();
        assert_eq!(resp.status, 201);
        let small: GraphInfo = serde_json::from_str(resp.text().unwrap()).unwrap();
        // An upload whose record alone reaches the floor makes a compaction
        // due, and the compaction thread starts one.
        let n = 100_000;
        let edges: Vec<String> = (0..n - 1).map(|i| format!("[{i},{}]", i + 1)).collect();
        let body = format!(
            "{{\"name\": \"big\", \"n\": {n}, \"edges\": [{}]}}",
            edges.join(",")
        );
        assert!(body.len() as u64 > crate::journal::COMPACTION_FLOOR_BYTES);
        assert_eq!(client.post_json("/v1/graphs", body).unwrap().status, 201);
        entered.wait();

        // The compaction thread is inside the install. A submit is
        // journaled and answered meanwhile...
        let resp = client
            .post_json(
                "/v1/jobs",
                format!("{{\"graph\": {}, \"algorithm\": \"greedy\"}}", small.id),
            )
            .unwrap();
        assert_eq!(resp.status, 202);
        let job: JobInfo = serde_json::from_str(resp.text().unwrap()).unwrap();
        // ...and so are the worker's appends: the job's event stream ends
        // only after its finish record is durable.
        let events = client.get(&format!("/v1/jobs/{}/events", job.id)).unwrap();
        assert!(events.text().unwrap().contains("\"status\":\"completed\""));
        assert_eq!(journal.current_seq(), 5);
        assert_eq!(journal.compactions(), 0, "the install is still held");

        release.wait();
        service.shutdown();
        // The held install and the shutdown's.
        assert_eq!(journal.compactions(), 2);
        let (_, recovery) = Journal::open(&dir).unwrap();
        assert_eq!(recovery.graphs.len(), 2);
        assert_eq!(recovery.jobs.len(), 1);
        assert_eq!(recovery.jobs[0].status, JobStatus::Completed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
