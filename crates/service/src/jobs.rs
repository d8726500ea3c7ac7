//! Asynchronous job store: a bounded worker pool executing registry
//! algorithms over `Arc`-shared graph snapshots, with per-job cancellation,
//! live mutation mailboxes, NDJSON event streams, and write-ahead
//! journaling of every lifecycle transition.
//!
//! Lifecycle: `Queued → Running → {Completed, Cancelled, Failed}` (plus
//! `Interrupted`, assigned only by journal replay to jobs that were running
//! at a crash). A worker snapshots the target graph, instantiates the
//! requested algorithm, and drives rounds; between rounds it drains the
//! job's mutation mailbox (fed by `PATCH /v1/graphs/:id/edges`) through
//! `Algorithm::apply_mutation`, so topology changes re-stabilize
//! incrementally instead of restarting the run. Admission is bounded: the
//! FIFO queue has a fixed capacity and [`JobStore::submit`] sheds load with
//! a typed error once it fills. Shutdown ([`JobStore::drain`]) stops
//! intake, cancels everything still queued, lets running jobs finish, and
//! joins the pool; [`JobStore::abandon`] is the crash-simulation variant
//! that walks away without joining.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use mis_core::{Activation, AlgorithmConfig};
use mis_graph::{mis_check, GraphDelta};
use mis_sim::builtin_registry;
use mis_sim::runner::COUNTER_SEED_SALT;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::api::{JobGauges, JobInfo, JobOutcome, JobRequest, JobStatus};
use crate::graphs::GraphEntry;
use crate::journal::{Journal, Record, RecoveredJob};
use crate::sync;

/// Cap on buffered event lines per job; one `truncated` marker is appended
/// when a job would exceed it.
const MAX_EVENT_LINES: usize = 100_000;

/// Poll interval of idle event streams and lingering stabilized jobs.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// Default bound on the submission queue (jobs waiting for a worker).
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;

// ---------------------------------------------------------------------------
// Event buffer + NDJSON streaming
// ---------------------------------------------------------------------------

/// Append-only buffer of NDJSON event lines, closed exactly once when the
/// job reaches a terminal state. Streams replay the prefix they have not
/// sent yet and end when the buffer is closed and drained.
pub struct EventBuffer {
    lines: Mutex<Vec<String>>,
    closed: AtomicBool,
}

impl EventBuffer {
    fn new() -> Arc<EventBuffer> {
        Arc::new(EventBuffer {
            lines: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
        })
    }

    /// Appends one event line (newline added here).
    fn push(&self, line: String) {
        let mut lines = sync::lock(&self.lines);
        match lines.len().cmp(&MAX_EVENT_LINES) {
            std::cmp::Ordering::Less => lines.push(line + "\n"),
            std::cmp::Ordering::Equal => lines.push("{\"event\":\"truncated\"}\n".to_string()),
            std::cmp::Ordering::Greater => {}
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Number of buffered lines so far (for tests and gauges).
    pub fn len(&self) -> usize {
        sync::lock(&self.lines).len()
    }

    /// `true` when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A chunked-transfer source streaming the buffer live: each chunk is the
/// batch of lines appended since the previous chunk; the stream ends once
/// the buffer is closed and fully replayed.
pub fn ndjson_stream(buffer: Arc<EventBuffer>) -> warp::ChunkFn {
    let mut cursor = 0usize;
    Box::new(move || loop {
        {
            let lines = sync::lock(&buffer.lines);
            if cursor < lines.len() {
                let batch = lines[cursor..].concat();
                cursor = lines.len();
                return Some(batch.into_bytes());
            }
            if buffer.closed.load(Ordering::SeqCst) {
                return None;
            }
        }
        thread::sleep(POLL_INTERVAL);
    })
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

struct JobState {
    status: JobStatus,
    outcome: Option<JobOutcome>,
    error: Option<String>,
    mis: Option<Vec<usize>>,
}

/// One submitted job.
pub struct Job {
    /// Job id.
    pub id: u64,
    /// The graph registry entry the job runs on.
    pub entry: Arc<GraphEntry>,
    /// The submitted request.
    pub request: JobRequest,
    state: Mutex<JobState>,
    cancel: AtomicBool,
    mailbox: Mutex<VecDeque<GraphDelta>>,
    events: Arc<EventBuffer>,
    /// Graph version the worker snapshotted (0 until the job starts); the
    /// `PATCH` handler only forwards deltas to jobs whose snapshot predates
    /// the patched version, so a delta is never applied twice.
    snapshot_version: AtomicU64,
    /// Whether the instantiated algorithm can follow topology changes
    /// (unknown until the worker instantiates it).
    topology_capable: Mutex<Option<bool>>,
    /// The store's draining flag: a stabilized job stops lingering the
    /// moment shutdown starts, so resident jobs can never wedge the drain.
    drain_flag: Arc<AtomicBool>,
    /// Shared journal, when the store persists. Worker-side appends are
    /// best-effort: a sealed journal (crash in progress) drops them, and
    /// replay marks the job `Interrupted` instead.
    journal: Option<Arc<Journal>>,
}

impl Job {
    /// Current lifecycle state.
    pub fn status(&self) -> JobStatus {
        sync::lock(&self.state).status
    }

    /// The job as an API [`JobInfo`].
    pub fn info(&self) -> JobInfo {
        let state = sync::lock(&self.state);
        JobInfo {
            id: self.id,
            graph: self.entry.id,
            algorithm: self.request.algorithm.clone(),
            status: state.status,
            outcome: state.outcome.clone(),
            error: state.error.clone(),
        }
    }

    /// The final MIS (vertex ids), present once the job completed.
    pub fn mis(&self) -> Option<Vec<usize>> {
        sync::lock(&self.state).mis.clone()
    }

    /// The job's event buffer, for streaming.
    pub fn events(&self) -> Arc<EventBuffer> {
        Arc::clone(&self.events)
    }

    fn journal_append(&self, record: &Record) {
        if let Some(journal) = &self.journal {
            let _ = journal.append(record);
        }
    }

    fn finish_record(&self, state: &JobState) -> Record {
        Record::JobFinished {
            id: self.id,
            status: state.status,
            outcome: state.outcome.clone(),
            error: state.error.clone(),
            mis: state.mis.clone(),
        }
    }

    /// Requests cancellation. Queued jobs become `Cancelled` immediately;
    /// running jobs observe the flag at the next round boundary. Returns
    /// `false` if the job was already terminal.
    pub fn cancel(&self) -> bool {
        let mut state = sync::lock(&self.state);
        match state.status {
            JobStatus::Queued => {
                state.status = JobStatus::Cancelled;
                self.cancel.store(true, Ordering::SeqCst);
                self.events.push("{\"event\":\"cancelled\"}".to_string());
                self.events.close();
                let record = self.finish_record(&state);
                drop(state);
                self.journal_append(&record);
                true
            }
            JobStatus::Running => {
                self.cancel.store(true, Ordering::SeqCst);
                true
            }
            _ => false,
        }
    }

    /// Enqueues a live topology delta if this job can still consume it:
    /// not terminal, algorithm not known to lack topology support, and the
    /// job's graph snapshot (if taken) predates `patched_version`. Returns
    /// `Some(true)` if enqueued, `Some(false)` if the algorithm cannot
    /// follow topology changes, `None` if the job no longer needs it.
    pub fn push_delta(&self, delta: &GraphDelta, patched_version: u64) -> Option<bool> {
        if self.status().is_terminal() {
            return None;
        }
        if *sync::lock(&self.topology_capable) == Some(false) {
            return Some(false);
        }
        let snapshot = self.snapshot_version.load(Ordering::SeqCst);
        if snapshot == 0 || snapshot >= patched_version {
            // Not started yet (will snapshot the patched graph) or already
            // snapshotted it: the delta is baked into the job's graph.
            return None;
        }
        sync::lock(&self.mailbox).push_back(delta.clone());
        Some(true)
    }

    fn take_mail(&self) -> Vec<GraphDelta> {
        sync::lock(&self.mailbox).drain(..).collect()
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Why [`JobStore::submit`] refused a job. Each variant maps to a distinct
/// HTTP degradation mode in the routes layer.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// Shutdown started; the service answers 503 with `Retry-After`.
    Draining,
    /// The bounded queue is full; the service sheds load with 429.
    QueueFull {
        /// The configured queue bound.
        capacity: usize,
    },
    /// The algorithm key is not in the registry (a 400).
    UnknownAlgorithm(String),
    /// The journal refused the submission record — the job was NOT
    /// accepted and must not be acknowledged (a 503).
    Persistence(String),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Draining => write!(f, "service is draining; not accepting jobs"),
            SubmitError::QueueFull { capacity } => {
                write!(f, "job queue is full (capacity {capacity}); retry later")
            }
            SubmitError::UnknownAlgorithm(key) => write!(f, "unknown algorithm key '{key}'"),
            SubmitError::Persistence(e) => write!(f, "could not journal the job: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The job store: id-ordered map of jobs plus a bounded FIFO queue drained
/// by a persistent worker pool.
pub struct JobStore {
    jobs: RwLock<BTreeMap<u64, Arc<Job>>>,
    queue: Mutex<VecDeque<Arc<Job>>>,
    capacity: usize,
    available: Condvar,
    next_id: AtomicU64,
    draining: Arc<AtomicBool>,
    submitted: AtomicU64,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    journal: Option<Arc<Journal>>,
    /// Submission is the one path that journals BEFORE the effect is
    /// visible (a job must be durable before anyone can observe it).
    /// Each submit holds a read guard across append-to-insert; a snapshot
    /// capture takes the write side as a barrier so it can never observe
    /// a journal seq whose job has not reached the map yet — trimming the
    /// journal at that seq would silently drop an acknowledged job.
    submit_gate: RwLock<()>,
}

impl JobStore {
    /// Starts a store with `workers` worker threads (0 = available
    /// parallelism), a queue bounded at `capacity` (0 =
    /// [`DEFAULT_QUEUE_CAPACITY`]), and an optional journal that every
    /// lifecycle transition is appended to.
    pub fn start(workers: usize, capacity: usize, journal: Option<Arc<Journal>>) -> Arc<JobStore> {
        let workers = if workers == 0 {
            thread::available_parallelism().map_or(4, |p| p.get())
        } else {
            workers
        };
        let capacity = if capacity == 0 {
            DEFAULT_QUEUE_CAPACITY
        } else {
            capacity
        };
        let store = Arc::new(JobStore {
            jobs: RwLock::new(BTreeMap::new()),
            queue: Mutex::new(VecDeque::new()),
            capacity,
            available: Condvar::new(),
            next_id: AtomicU64::new(0),
            draining: Arc::new(AtomicBool::new(false)),
            submitted: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
            journal,
            submit_gate: RwLock::new(()),
        });
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let store = Arc::clone(&store);
            handles.push(thread::spawn(move || store.worker_loop()));
        }
        *sync::lock(&store.workers) = handles;
        store
    }

    /// The configured queue bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn new_job(&self, id: u64, entry: Arc<GraphEntry>, request: JobRequest) -> Arc<Job> {
        Arc::new(Job {
            id,
            entry,
            request,
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                outcome: None,
                error: None,
                mis: None,
            }),
            cancel: AtomicBool::new(false),
            mailbox: Mutex::new(VecDeque::new()),
            events: EventBuffer::new(),
            snapshot_version: AtomicU64::new(0),
            topology_capable: Mutex::new(None),
            drain_flag: Arc::clone(&self.draining),
            journal: self.journal.clone(),
        })
    }

    /// Accepts a job for `entry`, or refuses with a typed [`SubmitError`].
    /// The submission record is journaled (and fsynced) *before* the job
    /// becomes visible, so an acknowledged 202 can never be lost: a crash
    /// after this returns re-queues the job on replay.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] — draining, queue full (load shed), unknown
    /// algorithm, or persistence failure. The queue bound is checked before
    /// the id is assigned; under concurrent submits it is a soft bound
    /// (momentary overshoot by the number of racing requests).
    pub fn submit(
        self: &Arc<Self>,
        entry: Arc<GraphEntry>,
        request: JobRequest,
    ) -> Result<Arc<Job>, SubmitError> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(SubmitError::Draining);
        }
        if !builtin_registry().contains(&request.algorithm) {
            return Err(SubmitError::UnknownAlgorithm(request.algorithm.clone()));
        }
        if sync::lock(&self.queue).len() >= self.capacity {
            return Err(SubmitError::QueueFull {
                capacity: self.capacity,
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        // Hold the gate from the durable append until the job is visible
        // in the map; see `submit_gate`.
        let _in_flight = sync::read(&self.submit_gate);
        if let Some(journal) = &self.journal {
            journal
                .append(&Record::JobSubmitted {
                    id,
                    request: request.clone(),
                })
                .map_err(|e| SubmitError::Persistence(e.to_string()))?;
        }
        let job = self.new_job(id, entry, request);
        sync::write(&self.jobs).insert(id, Arc::clone(&job));
        self.submitted.fetch_add(1, Ordering::Relaxed);
        sync::lock(&self.queue).push_back(Arc::clone(&job));
        self.available.notify_one();
        Ok(job)
    }

    /// Waits until no submission is between its journal append and its map
    /// insert. Called by snapshot capture after reading the journal seq it
    /// intends to cover, so every covered `JobSubmitted` record has its job
    /// visible in [`list`](JobStore::list).
    pub fn submit_barrier(&self) {
        drop(sync::write(&self.submit_gate));
    }

    /// Rehydrates a journal-recovered job. Terminal jobs (including
    /// `Interrupted`) are installed as-is; `Queued` jobs re-enter the run
    /// queue — unless their graph no longer exists (`entry` is `None`), in
    /// which case they fail immediately. `entry` may be a
    /// [`GraphEntry::detached`] placeholder for terminal jobs whose graph
    /// was deleted.
    pub fn restore(
        self: &Arc<Self>,
        recovered: RecoveredJob,
        entry: Option<Arc<GraphEntry>>,
    ) -> Arc<Job> {
        self.next_id.fetch_max(recovered.id, Ordering::Relaxed);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let placeholder = |graph_id: u64| {
            GraphEntry::detached(
                graph_id,
                format!("deleted-graph-{graph_id}"),
                "deleted".to_string(),
                mis_graph::Graph::empty(0),
            )
        };
        let graph_missing = entry.is_none();
        let entry = entry.unwrap_or_else(|| placeholder(recovered.request.graph));
        let job = self.new_job(recovered.id, entry, recovered.request);
        {
            let mut state = sync::lock(&job.state);
            state.status = recovered.status;
            state.outcome = recovered.outcome;
            state.error = recovered.error;
            state.mis = recovered.mis;
            if state.status == JobStatus::Queued && graph_missing {
                state.status = JobStatus::Failed;
                state.error = Some(format!(
                    "graph {} was deleted before the crash; the job cannot be re-run",
                    job.request.graph
                ));
                let record = job.finish_record(&state);
                drop(state);
                job.journal_append(&record);
            } else if state.status.is_terminal() {
                job.events.push(format!(
                    "{{\"event\":\"recovered\",\"status\":{}}}",
                    json_string(&format!("{:?}", state.status).to_lowercase())
                ));
            }
        }
        let status = job.status();
        if status.is_terminal() {
            job.events.close();
        }
        sync::write(&self.jobs).insert(job.id, Arc::clone(&job));
        if status == JobStatus::Queued {
            sync::lock(&self.queue).push_back(Arc::clone(&job));
            self.available.notify_one();
        }
        job
    }

    /// Looks up a job by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        sync::read(&self.jobs).get(&id).cloned()
    }

    /// All jobs, in id order.
    pub fn list(&self) -> Vec<Arc<Job>> {
        sync::read(&self.jobs).values().cloned().collect()
    }

    /// All non-terminal jobs targeting graph `graph_id`.
    pub fn jobs_on_graph(&self, graph_id: u64) -> Vec<Arc<Job>> {
        self.list()
            .into_iter()
            .filter(|j| j.entry.id == graph_id && !j.status().is_terminal())
            .collect()
    }

    /// Aggregate job gauges for `GET /v1/metrics`.
    pub fn gauges(&self) -> JobGauges {
        let mut gauges = JobGauges {
            submitted: self.submitted.load(Ordering::Relaxed),
            ..JobGauges::default()
        };
        for job in self.list() {
            match job.status() {
                JobStatus::Queued => gauges.queued += 1,
                JobStatus::Running => gauges.running += 1,
                JobStatus::Completed => gauges.completed += 1,
                JobStatus::Cancelled => gauges.cancelled += 1,
                JobStatus::Failed => gauges.failed += 1,
                JobStatus::Interrupted => gauges.interrupted += 1,
            }
        }
        gauges
    }

    /// `true` once [`drain`](Self::drain) was called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Stops intake, cancels everything still queued, lets running jobs
    /// finish, and joins the worker pool. Idempotent.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // Cancel the backlog so no worker picks up new work.
        loop {
            let job = sync::lock(&self.queue).pop_front();
            match job {
                Some(job) => {
                    job.cancel();
                }
                None => break,
            }
        }
        self.available.notify_all();
        let handles = std::mem::take(&mut *sync::lock(&self.workers));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Crash simulation: stops intake and flags every non-terminal job for
    /// cancellation, but does NOT wait for workers — the pool threads are
    /// detached mid-flight, exactly as a process kill would leave them.
    /// The journal must be [sealed](Journal::seal) *before* calling this so
    /// stale workers cannot append into files a successor now owns.
    pub fn abandon(&self) {
        self.draining.store(true, Ordering::SeqCst);
        sync::lock(&self.queue).clear();
        for job in self.list() {
            if !job.status().is_terminal() {
                job.cancel.store(true, Ordering::SeqCst);
            }
        }
        self.available.notify_all();
        // Drop the handles without joining: the threads wind down on their
        // own, and their journal appends bounce off the seal.
        drop(std::mem::take(&mut *sync::lock(&self.workers)));
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            let job = {
                let mut queue = sync::lock(&self.queue);
                loop {
                    if let Some(job) = queue.pop_front() {
                        break Some(job);
                    }
                    if self.draining.load(Ordering::SeqCst) {
                        break None;
                    }
                    let (q, _) = self
                        .available
                        .wait_timeout(queue, Duration::from_millis(200))
                        .unwrap_or_else(PoisonError::into_inner);
                    queue = q;
                }
            };
            let Some(job) = job else { return };
            if self.draining.load(Ordering::SeqCst) {
                job.cancel();
                continue;
            }
            execute(&job);
        }
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Transitions the job to `Running` (unless already cancelled) and runs it,
/// converting panics into `Failed`.
fn execute(job: &Arc<Job>) {
    {
        let mut state = sync::lock(&job.state);
        if state.status != JobStatus::Queued {
            return; // cancelled while queued
        }
        state.status = JobStatus::Running;
    }
    job.journal_append(&Record::JobStarted { id: job.id });
    let result = catch_unwind(AssertUnwindSafe(|| run_job(job)));
    let mut state = sync::lock(&job.state);
    match result {
        Ok(Ok(RunEnd::Completed { outcome, mis })) => {
            job.events.push(format!(
                "{{\"event\":\"done\",\"status\":\"completed\",\"rounds\":{},\"stabilized\":{},\"valid_mis\":{}}}",
                outcome.rounds, outcome.stabilized, outcome.valid_mis
            ));
            state.status = JobStatus::Completed;
            state.outcome = Some(outcome);
            state.mis = Some(mis);
        }
        Ok(Ok(RunEnd::Cancelled)) => {
            job.events
                .push("{\"event\":\"done\",\"status\":\"cancelled\"}".to_string());
            state.status = JobStatus::Cancelled;
        }
        Ok(Err(message)) => {
            job.events.push(format!(
                "{{\"event\":\"done\",\"status\":\"failed\",\"error\":{}}}",
                json_string(&message)
            ));
            state.status = JobStatus::Failed;
            state.error = Some(message);
        }
        Err(panic) => {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_string());
            job.events.push(format!(
                "{{\"event\":\"done\",\"status\":\"failed\",\"error\":{}}}",
                json_string(&message)
            ));
            state.status = JobStatus::Failed;
            state.error = Some(message);
        }
    }
    let record = job.finish_record(&state);
    drop(state);
    job.journal_append(&record);
    job.events.close();
}

enum RunEnd {
    Completed {
        outcome: JobOutcome,
        mis: Vec<usize>,
    },
    Cancelled,
}

/// Minimal JSON string escaping for event lines.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run_job(job: &Arc<Job>) -> Result<RunEnd, String> {
    let request = &job.request;
    let factory = builtin_registry()
        .get(&request.algorithm)
        .ok_or_else(|| format!("unknown algorithm '{}'", request.algorithm))?;

    let (graph, version) = job.entry.snapshot();
    job.snapshot_version.store(version, Ordering::SeqCst);

    let mut rng = ChaCha8Rng::seed_from_u64(request.seed);
    let config = AlgorithmConfig {
        init: request.init,
        execution: request.execution,
        strategy: request.strategy,
        counter_seed: request.seed ^ COUNTER_SEED_SALT,
    };
    let caps = factory.capabilities();
    let start = Instant::now();
    let mut algorithm = factory.init(&graph, &config, &mut rng);
    *sync::lock(&job.topology_capable) = Some(caps.topology_change);

    if !request.scheduler.is_synchronous() && !caps.partial_activation {
        return Err(format!(
            "algorithm '{}' does not support the {} scheduler",
            request.algorithm,
            request.scheduler.label()
        ));
    }
    let mut scheduler = request.scheduler.build();
    let trace = request.record_trace && caps.trace;
    let linger = Duration::from_micros(job.request.linger_micros);
    let mut mutations_applied = 0usize;
    let mut stable_since: Option<Instant> = None;

    loop {
        if job.cancel.load(Ordering::SeqCst) {
            return Ok(RunEnd::Cancelled);
        }
        let mut mutated = false;
        for delta in job.take_mail() {
            match algorithm.apply_mutation(&delta) {
                Ok(committed) => {
                    mutations_applied += 1;
                    mutated = true;
                    job.events.push(format!(
                        "{{\"event\":\"topology\",\"round\":{},\"inserted\":{},\"removed\":{},\"new_n\":{}}}",
                        algorithm.round(),
                        committed.inserted.len(),
                        committed.removed.len(),
                        committed.new_n
                    ));
                }
                Err(e) => {
                    job.events.push(format!(
                        "{{\"event\":\"mutation_rejected\",\"round\":{},\"error\":{}}}",
                        algorithm.round(),
                        json_string(&e.to_string())
                    ));
                }
            }
        }
        if mutated {
            stable_since = None;
        }
        if algorithm.is_stabilized() {
            let since = *stable_since.get_or_insert_with(Instant::now);
            if since.elapsed() >= linger || job.drain_flag.load(Ordering::SeqCst) {
                break;
            }
            thread::sleep(POLL_INTERVAL.min(linger));
            continue;
        }
        stable_since = None;
        if algorithm.round() >= request.max_rounds {
            break;
        }
        match scheduler.next_activation(algorithm.n(), algorithm.round(), &mut rng) {
            Activation::All => algorithm.step(&mut rng),
            Activation::Subset(set) => algorithm.step_scheduled(&set, &mut rng),
        }
        if trace {
            let counts = algorithm.counts();
            job.events.push(format!(
                "{{\"event\":\"round\",\"round\":{},\"black\":{},\"active\":{},\"unstable\":{}}}",
                algorithm.round(),
                counts.black,
                counts.active,
                counts.unstable
            ));
        }
        if request.round_delay_micros > 0 {
            thread::sleep(Duration::from_micros(request.round_delay_micros));
        }
    }

    let black = algorithm.black_set();
    let final_graph = algorithm.current_graph().unwrap_or(&graph);
    let outcome = JobOutcome {
        rounds: algorithm.round(),
        stabilized: algorithm.is_stabilized(),
        valid_mis: mis_check::is_mis(final_graph, &black),
        mis_size: black.len(),
        n: final_graph.n(),
        m: final_graph.m(),
        random_bits: algorithm.random_bits_used(),
        states_per_vertex: algorithm.states_per_vertex(),
        mutations_applied,
        wall_micros: start.elapsed().as_micros() as u64,
    };
    let mis = black.iter().collect();
    Ok(RunEnd::Completed { outcome, mis })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::GraphRegistry;
    use mis_graph::Graph;

    fn wait_terminal(job: &Arc<Job>) -> JobStatus {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !job.status().is_terminal() {
            assert!(Instant::now() < deadline, "job {} hung", job.id);
            thread::sleep(Duration::from_millis(2));
        }
        job.status()
    }

    fn registry_with_path(n: usize) -> (GraphRegistry, Arc<GraphEntry>) {
        let registry = GraphRegistry::new();
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let entry = registry.insert(
            "path".into(),
            "upload".into(),
            Graph::from_edges(n, edges).unwrap(),
        );
        (registry, entry)
    }

    #[test]
    fn jobs_complete_with_valid_mis() {
        let (_registry, entry) = registry_with_path(50);
        let store = JobStore::start(2, 0, None);
        let job = store
            .submit(Arc::clone(&entry), JobRequest::new(entry.id, "two-state"))
            .unwrap();
        assert_eq!(wait_terminal(&job), JobStatus::Completed);
        let info = job.info();
        let outcome = info.outcome.unwrap();
        assert!(outcome.stabilized && outcome.valid_mis);
        assert_eq!(outcome.mutations_applied, 0);
        assert_eq!(job.mis().unwrap().len(), outcome.mis_size);
        store.drain();
    }

    #[test]
    fn unknown_algorithm_is_rejected_at_submit() {
        let (_registry, entry) = registry_with_path(4);
        let store = JobStore::start(1, 0, None);
        assert!(matches!(
            store.submit(Arc::clone(&entry), JobRequest::new(entry.id, "nope")),
            Err(SubmitError::UnknownAlgorithm(_))
        ));
        store.drain();
    }

    #[test]
    fn full_queue_sheds_load_with_a_typed_error() {
        let (_registry, entry) = registry_with_path(10);
        let store = JobStore::start(1, 2, None);
        // Occupy the single worker with a lingering job, then fill the queue.
        let mut slow = JobRequest::new(entry.id, "two-state");
        slow.linger_micros = 60_000_000;
        let running = store.submit(Arc::clone(&entry), slow).unwrap();
        thread::sleep(Duration::from_millis(50));
        assert_eq!(running.status(), JobStatus::Running);
        for _ in 0..2 {
            store
                .submit(Arc::clone(&entry), JobRequest::new(entry.id, "greedy"))
                .unwrap();
        }
        assert!(matches!(
            store.submit(Arc::clone(&entry), JobRequest::new(entry.id, "greedy")),
            Err(SubmitError::QueueFull { capacity: 2 })
        ));
        store.drain();
    }

    #[test]
    fn unsupported_scheduler_fails_the_job() {
        let (_registry, entry) = registry_with_path(6);
        let store = JobStore::start(1, 0, None);
        let mut request = JobRequest::new(entry.id, "luby");
        request.scheduler = mis_sim::spec::SchedulerSpec::RandomSubset { p: 0.5 };
        let job = store.submit(Arc::clone(&entry), request).unwrap();
        assert_eq!(wait_terminal(&job), JobStatus::Failed);
        assert!(job.info().error.unwrap().contains("scheduler"));
        store.drain();
    }

    #[test]
    fn cancelling_a_lingering_job_stops_it() {
        let (_registry, entry) = registry_with_path(20);
        let store = JobStore::start(1, 0, None);
        let mut request = JobRequest::new(entry.id, "two-state");
        request.linger_micros = 60_000_000; // would linger for a minute
        let job = store.submit(Arc::clone(&entry), request).unwrap();
        // Wait until it is resident (stabilized but lingering).
        thread::sleep(Duration::from_millis(50));
        assert_eq!(job.status(), JobStatus::Running);
        assert!(job.cancel());
        assert_eq!(wait_terminal(&job), JobStatus::Cancelled);
        assert!(!job.cancel(), "cancel is idempotent on terminal jobs");
        store.drain();
    }

    #[test]
    fn live_delta_reaches_a_lingering_job_and_restabilizes() {
        let (registry, entry) = registry_with_path(30);
        let store = JobStore::start(1, 0, None);
        let mut request = JobRequest::new(entry.id, "two-state");
        request.linger_micros = 30_000_000;
        let job = store.submit(Arc::clone(&entry), request).unwrap();
        thread::sleep(Duration::from_millis(50));
        assert_eq!(job.status(), JobStatus::Running);

        // Patch the registry graph, then forward the delta like the handler.
        let mut delta = GraphDelta::new();
        delta.add_vertex([0, 2, 4]);
        delta.remove_edge(0, 1);
        let (_committed, version) = registry.apply_delta(entry.id, &delta).unwrap().unwrap();
        assert_eq!(job.push_delta(&delta, version), Some(true));

        // Give it time to apply + re-stabilize, then cancel the linger.
        thread::sleep(Duration::from_millis(100));
        job.cancel();
        assert_eq!(wait_terminal(&job), JobStatus::Cancelled);
        store.drain();
    }

    #[test]
    fn drain_cancels_queued_jobs_and_joins() {
        let (_registry, entry) = registry_with_path(10);
        let store = JobStore::start(1, 0, None);
        // A lingering job occupies the single worker, so the rest stay
        // queued until drain.
        let mut slow = JobRequest::new(entry.id, "two-state");
        slow.linger_micros = 60_000_000;
        let running = store.submit(Arc::clone(&entry), slow).unwrap();
        thread::sleep(Duration::from_millis(50));
        assert_eq!(running.status(), JobStatus::Running);
        let queued: Vec<_> = (0..4)
            .map(|_| {
                store
                    .submit(Arc::clone(&entry), JobRequest::new(entry.id, "greedy"))
                    .unwrap()
            })
            .collect();
        store.drain();
        assert!(store.is_draining());
        // Drain breaks the linger: the resident job completes rather than
        // wedging shutdown for the rest of its linger window.
        assert_eq!(running.status(), JobStatus::Completed);
        for job in queued {
            assert_eq!(job.status(), JobStatus::Cancelled);
        }
        assert!(matches!(
            store.submit(Arc::clone(&entry), JobRequest::new(entry.id, "greedy")),
            Err(SubmitError::Draining)
        ));
        let gauges = store.gauges();
        assert_eq!(gauges.submitted, 5);
        assert_eq!(gauges.queued + gauges.running, 0);
    }

    #[test]
    fn restore_rehydrates_terminal_and_queued_jobs() {
        let (_registry, entry) = registry_with_path(12);
        let store = JobStore::start(1, 0, None);
        // A terminal interrupted job: installed as-is, never re-run.
        let interrupted = store.restore(
            RecoveredJob {
                id: 5,
                request: JobRequest::new(entry.id, "two-state"),
                status: JobStatus::Interrupted,
                outcome: None,
                error: Some("interrupted".into()),
                mis: None,
            },
            Some(Arc::clone(&entry)),
        );
        assert_eq!(interrupted.status(), JobStatus::Interrupted);
        // A queued job with a live graph: re-runs to completion.
        let requeued = store.restore(
            RecoveredJob {
                id: 6,
                request: JobRequest::new(entry.id, "greedy"),
                status: JobStatus::Queued,
                outcome: None,
                error: None,
                mis: None,
            },
            Some(Arc::clone(&entry)),
        );
        assert_eq!(wait_terminal(&requeued), JobStatus::Completed);
        // A queued job whose graph is gone: fails instead of hanging.
        let orphan = store.restore(
            RecoveredJob {
                id: 7,
                request: JobRequest::new(99, "greedy"),
                status: JobStatus::Queued,
                outcome: None,
                error: None,
                mis: None,
            },
            None,
        );
        assert_eq!(orphan.status(), JobStatus::Failed);
        assert!(orphan.info().error.unwrap().contains("deleted"));
        // Ids continue past restored ones; the interrupted job still counts.
        let fresh = store
            .submit(Arc::clone(&entry), JobRequest::new(entry.id, "greedy"))
            .unwrap();
        assert_eq!(fresh.id, 8);
        let gauges = store.gauges();
        assert_eq!(gauges.interrupted, 1);
        assert_eq!(gauges.failed, 1);
        store.drain();
    }

    #[test]
    fn abandon_detaches_without_joining() {
        let (_registry, entry) = registry_with_path(10);
        let store = JobStore::start(1, 0, None);
        let mut slow = JobRequest::new(entry.id, "two-state");
        slow.linger_micros = 60_000_000;
        let running = store.submit(Arc::clone(&entry), slow).unwrap();
        thread::sleep(Duration::from_millis(50));
        assert_eq!(running.status(), JobStatus::Running);
        let start = Instant::now();
        store.abandon();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "abandon must not block on workers"
        );
        assert!(matches!(
            store.submit(Arc::clone(&entry), JobRequest::new(entry.id, "greedy")),
            Err(SubmitError::Draining)
        ));
    }

    #[test]
    fn event_stream_replays_and_terminates() {
        let (_registry, entry) = registry_with_path(12);
        let store = JobStore::start(1, 0, None);
        let mut request = JobRequest::new(entry.id, "three-state");
        request.record_trace = true;
        let job = store.submit(Arc::clone(&entry), request).unwrap();
        assert_eq!(wait_terminal(&job), JobStatus::Completed);
        let mut stream = ndjson_stream(job.events());
        let mut text = String::new();
        while let Some(chunk) = stream() {
            text.push_str(std::str::from_utf8(&chunk).unwrap());
        }
        assert!(text.contains("\"event\":\"round\""));
        assert!(text
            .lines()
            .last()
            .unwrap()
            .contains("\"status\":\"completed\""));
        store.drain();
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
