//! Asynchronous job store: a bounded worker pool executing registry
//! algorithms over `Arc`-shared graph snapshots, with per-job cancellation,
//! live mutation mailboxes, NDJSON event streams, and write-ahead
//! journaling of every lifecycle transition.
//!
//! Lifecycle: `Queued → Running → {Completed, Cancelled, Failed}` (plus
//! `Interrupted`, assigned only by journal replay to jobs that were running
//! at a crash). A worker snapshots the target graph, instantiates the
//! requested algorithm, and runs it through the experiment driver,
//! `mis_sim::drive_algorithm`, with the job's mailbox as the driver's
//! `MutationSource`: at each round boundary the mailbox answers a
//! cancellation with a stop, applies the next `PATCH /v1/graphs/:id/edges`
//! delta through `Algorithm::apply_mutation` (so topology changes
//! re-stabilize incrementally instead of restarting the run), and keeps a
//! converged job resident for its linger window. Admission is bounded: the
//! FIFO queue has a fixed capacity and [`JobStore::submit`] sheds load with
//! a typed error once it fills. Shutdown ([`JobStore::drain`]) stops
//! intake, cancels everything still queued, lets running jobs finish, and
//! joins the pool; [`JobStore::abandon`] is the crash-simulation variant
//! that walks away without joining.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use mis_core::{Algorithm, AlgorithmConfig, StateCounts};
use mis_graph::{mis_check, GraphDelta};
use mis_sim::runner::COUNTER_SEED_SALT;
use mis_sim::{builtin_registry, drive_algorithm, MutationPoll, MutationSource, Observer};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::api::{JobGauges, JobInfo, JobOutcome, JobRequest, JobStatus};
use crate::graphs::GraphEntry;
use crate::journal::{Journal, Record, SnapshotJob};
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

/// The store's job count per [`JobStatus`]: a job is counted in as
/// `Queued` when it is created, and [`Job::set_status`] moves it at every
/// later status write, so [`JobStore::gauges`] reads six counters instead
/// of locking every retained job.
#[derive(Default)]
struct StatusCounts([AtomicU64; 6]);

impl StatusCounts {
    fn slot(&self, status: JobStatus) -> &AtomicU64 {
        let index = match status {
            JobStatus::Queued => 0,
            JobStatus::Running => 1,
            JobStatus::Completed => 2,
            JobStatus::Cancelled => 3,
            JobStatus::Failed => 4,
            JobStatus::Interrupted => 5,
        };
        &self.0[index]
    }

    fn get(&self, status: JobStatus) -> u64 {
        self.slot(status).load(Ordering::Relaxed)
    }
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
    /// Whether the job's algorithm can follow topology changes, as its
    /// registry entry declares.
    topology_capable: bool,
    /// The store's draining flag: a stabilized job stops lingering the
    /// moment shutdown starts, so resident jobs can never wedge the drain.
    drain_flag: Arc<AtomicBool>,
    /// Shared journal, when the store persists. Worker-side appends are
    /// best-effort: a sealed journal (crash in progress) drops them, and
    /// replay marks the job `Interrupted` instead.
    journal: Option<Arc<Journal>>,
    /// The store's index of non-terminal jobs, which the job leaves at its
    /// terminal transition.
    live: Arc<LiveJobs>,
    /// The store's per-status job counts.
    status_counts: Arc<StatusCounts>,
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

    /// Writes `status` into the locked `state` and moves the job between
    /// the store's status counts; every status write goes through here.
    fn set_status(&self, state: &mut JobState, status: JobStatus) {
        self.status_counts
            .slot(state.status)
            .fetch_sub(1, Ordering::Relaxed);
        self.status_counts
            .slot(status)
            .fetch_add(1, Ordering::Relaxed);
        state.status = status;
    }

    /// Leaves the live index; called under the state lock at the terminal
    /// transition, so the index never lists a terminal job.
    fn leave_live(&self) {
        sync::lock(&self.live).remove(&(self.entry.id, self.id));
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
                self.set_status(&mut state, JobStatus::Cancelled);
                self.leave_live();
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
    /// started but not terminal, algorithm able to follow topology changes,
    /// and the job's graph snapshot predating `patched_version`. Returns
    /// `Some(true)` if enqueued, `Some(false)` if the algorithm cannot
    /// follow topology changes, `None` if the job no longer needs it.
    pub fn push_delta(&self, delta: &GraphDelta, patched_version: u64) -> Option<bool> {
        if self.status().is_terminal() {
            return None;
        }
        let snapshot = self.snapshot_version.load(Ordering::SeqCst);
        if snapshot == 0 {
            // Not started yet: it will snapshot the patched graph.
            return None;
        }
        if !self.topology_capable {
            return Some(false);
        }
        if snapshot >= patched_version {
            // The delta is already baked into the job's snapshot.
            return None;
        }
        sync::lock(&self.mailbox).push_back(delta.clone());
        Some(true)
    }

    fn next_delta(&self) -> Option<GraphDelta> {
        sync::lock(&self.mailbox).pop_front()
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

/// `(graph id, job id)` of every non-terminal job: the `PATCH` fan-out set,
/// in id order per graph.
type LiveJobs = Mutex<BTreeSet<(u64, u64)>>;

/// The job store: id-ordered map of jobs plus a bounded FIFO queue drained
/// by a persistent worker pool.
pub struct JobStore {
    jobs: RwLock<BTreeMap<u64, Arc<Job>>>,
    /// Non-terminal jobs by graph. A job enters on submit or restore,
    /// before it is visible, and leaves at its terminal transition.
    live: Arc<LiveJobs>,
    /// Jobs per status, for [`gauges`](Self::gauges).
    status_counts: Arc<StatusCounts>,
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
            live: Arc::new(Mutex::new(BTreeSet::new())),
            status_counts: Arc::new(StatusCounts::default()),
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

    /// A new `Queued` job, counted in the status counts; submit and restore
    /// insert every job they create.
    fn new_job(&self, id: u64, entry: Arc<GraphEntry>, request: JobRequest) -> Arc<Job> {
        let topology_capable = builtin_registry()
            .get(&request.algorithm)
            .is_some_and(|factory| factory.capabilities().topology_change);
        self.status_counts
            .slot(JobStatus::Queued)
            .fetch_add(1, Ordering::Relaxed);
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
            topology_capable,
            drain_flag: Arc::clone(&self.draining),
            journal: self.journal.clone(),
            live: Arc::clone(&self.live),
            status_counts: Arc::clone(&self.status_counts),
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
        sync::lock(&self.live).insert((job.entry.id, id));
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
        recovered: SnapshotJob,
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
            job.set_status(&mut state, recovered.status);
            state.outcome = recovered.outcome;
            state.error = recovered.error;
            state.mis = recovered.mis;
            if state.status == JobStatus::Queued && graph_missing {
                job.set_status(&mut state, JobStatus::Failed);
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
                    serde_json::to_string(&format!("{:?}", state.status).to_lowercase())
                        .expect("strings serialize")
                ));
            }
        }
        let status = job.status();
        if status.is_terminal() {
            job.events.close();
        } else {
            sync::lock(&self.live).insert((job.entry.id, job.id));
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

    /// All non-terminal jobs targeting graph `graph_id`, in id order. Reads
    /// the live index, so it costs the graph's live jobs, not every job the
    /// store retains.
    pub fn jobs_on_graph(&self, graph_id: u64) -> Vec<Arc<Job>> {
        let ids: Vec<u64> = sync::lock(&self.live)
            .range((graph_id, 0)..=(graph_id, u64::MAX))
            .map(|&(_, id)| id)
            .collect();
        let jobs = sync::read(&self.jobs);
        ids.iter().filter_map(|id| jobs.get(id).cloned()).collect()
    }

    /// Aggregate job gauges for `GET /v1/metrics`, read off the per-status
    /// counts in `O(1)`.
    pub fn gauges(&self) -> JobGauges {
        let count = |status| self.status_counts.get(status);
        JobGauges {
            submitted: self.submitted.load(Ordering::Relaxed),
            queued: count(JobStatus::Queued),
            running: count(JobStatus::Running),
            completed: count(JobStatus::Completed),
            cancelled: count(JobStatus::Cancelled),
            failed: count(JobStatus::Failed),
            interrupted: count(JobStatus::Interrupted),
        }
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
        job.set_status(&mut state, JobStatus::Running);
    }
    job.journal_append(&Record::JobStarted { id: job.id });
    let result = catch_unwind(AssertUnwindSafe(|| run_job(job))).unwrap_or_else(|panic| {
        Err(panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "worker panicked".to_string()))
    });
    let mut state = sync::lock(&job.state);
    match result {
        Ok(RunEnd::Completed { outcome, mis }) => {
            job.events.push(format!(
                "{{\"event\":\"done\",\"status\":\"completed\",\"rounds\":{},\"stabilized\":{},\"valid_mis\":{}}}",
                outcome.rounds, outcome.stabilized, outcome.valid_mis
            ));
            job.set_status(&mut state, JobStatus::Completed);
            state.outcome = Some(outcome);
            state.mis = Some(mis);
        }
        Ok(RunEnd::Cancelled) => {
            job.events
                .push("{\"event\":\"done\",\"status\":\"cancelled\"}".to_string());
            job.set_status(&mut state, JobStatus::Cancelled);
        }
        Err(message) => {
            job.events.push(format!(
                "{{\"event\":\"done\",\"status\":\"failed\",\"error\":{}}}",
                serde_json::to_string(&message).expect("strings serialize")
            ));
            job.set_status(&mut state, JobStatus::Failed);
            state.error = Some(message);
        }
    }
    job.leave_live();
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

/// The job's side of the driver's between-rounds hook: cancellation, the
/// `PATCH` mailbox, and the linger window of a converged job.
struct Mailbox<'a> {
    job: &'a Job,
    mutations_applied: usize,
    cancelled: bool,
}

impl MutationSource for Mailbox<'_> {
    fn poll(
        &mut self,
        alg: &mut dyn Algorithm,
        converged: bool,
        _rng: &mut dyn RngCore,
    ) -> MutationPoll {
        let linger = Duration::from_micros(self.job.request.linger_micros);
        // A converged job lingers inside one poll, so an applied delta,
        // which returns, restarts the window at the next poll.
        let mut since = None;
        loop {
            if self.job.cancel.load(Ordering::SeqCst) {
                self.cancelled = true;
                return MutationPoll::Stop;
            }
            while let Some(delta) = self.job.next_delta() {
                match alg.apply_mutation(&delta) {
                    Ok(committed) => {
                        self.mutations_applied += 1;
                        self.job.events.push(format!(
                            "{{\"event\":\"topology\",\"round\":{},\"inserted\":{},\"removed\":{},\"new_n\":{}}}",
                            alg.round(),
                            committed.inserted.len(),
                            committed.removed.len(),
                            committed.new_n
                        ));
                        return MutationPoll::Applied(committed);
                    }
                    Err(e) => self.job.events.push(format!(
                        "{{\"event\":\"mutation_rejected\",\"round\":{},\"error\":{}}}",
                        alg.round(),
                        serde_json::to_string(&e.to_string()).expect("strings serialize")
                    )),
                }
            }
            if !converged || linger.is_zero() {
                return MutationPoll::Idle;
            }
            let since = *since.get_or_insert_with(Instant::now);
            if since.elapsed() >= linger || self.job.drain_flag.load(Ordering::SeqCst) {
                return MutationPoll::Idle;
            }
            thread::sleep(POLL_INTERVAL.min(linger));
        }
    }
}

/// Streams each round's counts into the job's event buffer. Attached only to
/// traced jobs, so an untraced job never calls `counts()`.
struct RoundEvents<'a>(&'a EventBuffer);

impl Observer for RoundEvents<'_> {
    fn on_round(&mut self, round: usize, counts: &StateCounts) {
        self.0.push(format!(
            "{{\"event\":\"round\",\"round\":{round},\"black\":{},\"active\":{},\"unstable\":{}}}",
            counts.black, counts.active, counts.unstable
        ));
    }
}

fn run_job(job: &Arc<Job>) -> Result<RunEnd, String> {
    let request = &job.request;
    let factory = builtin_registry()
        .get(&request.algorithm)
        .ok_or_else(|| format!("unknown algorithm '{}'", request.algorithm))?;
    let caps = factory.capabilities();
    if !request.scheduler.is_synchronous() && !caps.partial_activation {
        return Err(format!(
            "algorithm '{}' does not support the {} scheduler",
            request.algorithm,
            request.scheduler.label()
        ));
    }

    let (graph, version) = job.entry.snapshot();
    job.snapshot_version.store(version, Ordering::SeqCst);

    let mut rng = ChaCha8Rng::seed_from_u64(request.seed);
    let config = AlgorithmConfig {
        init: request.init,
        execution: request.execution,
        strategy: request.strategy,
        counter_seed: request.seed ^ COUNTER_SEED_SALT,
    };
    let start = Instant::now();
    let mut algorithm = factory.init(&graph, &config, &mut rng);
    let mut scheduler = request.scheduler.build();
    let mut mailbox = Mailbox {
        job,
        mutations_applied: 0,
        cancelled: false,
    };
    let mut round_events = (request.record_trace && caps.trace).then(|| RoundEvents(&job.events));
    let mut observers: Vec<&mut dyn Observer> = Vec::new();
    if let Some(obs) = round_events.as_mut() {
        observers.push(obs);
    }
    let driven = drive_algorithm(
        algorithm.as_mut(),
        scheduler.as_mut(),
        &mut rng,
        request.max_rounds,
        None,
        Some(&mut mailbox),
        None,
        &mut observers,
    );
    if mailbox.cancelled {
        return Ok(RunEnd::Cancelled);
    }

    let final_graph = algorithm.current_graph().unwrap_or(&graph);
    let outcome = JobOutcome {
        rounds: driven.rounds,
        stabilized: driven.stabilized,
        valid_mis: mis_check::is_mis(final_graph, &driven.black_set),
        mis_size: driven.black_set.len(),
        n: final_graph.n(),
        m: final_graph.m(),
        random_bits: driven.random_bits,
        states_per_vertex: driven.states_per_vertex,
        mutations_applied: mailbox.mutations_applied,
        wall_micros: start.elapsed().as_micros() as u64,
    };
    let mis = driven.black_set.iter().collect();
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
        assert_eq!(
            job.snapshot_version.load(Ordering::SeqCst),
            0,
            "refused before the snapshot and the algorithm's init"
        );
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
        let (_registry, entry) = registry_with_path(30);
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
        let (_committed, version) = entry.apply_delta(&delta).unwrap();
        assert_eq!(job.push_delta(&delta, version), Some(true));

        // Give it time to apply + re-stabilize, then cancel the linger.
        thread::sleep(Duration::from_millis(100));
        job.cancel();
        assert_eq!(wait_terminal(&job), JobStatus::Cancelled);
        store.drain();
    }

    /// The job's event lines so far, as (event, round) pairs.
    fn events(job: &Job) -> Vec<(String, Option<usize>)> {
        sync::lock(&job.events.lines)
            .iter()
            .map(|line| {
                let value: serde::Value = serde_json::from_str(line).unwrap();
                let field = |name| serde::get_field(&value, name).ok();
                let event = serde::Deserialize::from_value(field("event").unwrap()).unwrap();
                let round = field("round").map(|r| serde::Deserialize::from_value(r).unwrap());
                (event, round)
            })
            .collect()
    }

    /// Waits until `job` has emitted an `event` line.
    fn wait_event(job: &Job, event: &str) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !events(job).iter().any(|(e, _)| e == event) {
            assert!(
                Instant::now() < deadline,
                "job {} never emitted {event}",
                job.id
            );
            thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn rejected_delta_is_reported_and_leaves_the_run_intact() {
        let (_registry, entry) = registry_with_path(30);
        let store = JobStore::start(1, 0, None);
        let mut request = JobRequest::new(entry.id, "two-state");
        request.linger_micros = 30_000_000;
        let job = store.submit(Arc::clone(&entry), request).unwrap();
        thread::sleep(Duration::from_millis(50));
        assert_eq!(job.status(), JobStatus::Running);

        // Vertex 99 is out of range on the 30-vertex path.
        let mut delta = GraphDelta::new();
        delta.detach_vertex(99);
        let version = entry.snapshot().1;
        assert_eq!(job.push_delta(&delta, version + 1), Some(true));
        wait_event(&job, "mutation_rejected");

        store.drain();
        assert_eq!(job.status(), JobStatus::Completed);
        let outcome = job.info().outcome.unwrap();
        assert_eq!(outcome.mutations_applied, 0);
        assert_eq!(outcome.n, 30);
        assert!(outcome.stabilized && outcome.valid_mis);
    }

    #[test]
    fn push_delta_answers_by_start_and_capability() {
        let (_registry, entry) = registry_with_path(30);
        let store = JobStore::start(2, 0, None);
        let lingering = |key| {
            let mut request = JobRequest::new(entry.id, key);
            request.linger_micros = 30_000_000;
            store.submit(Arc::clone(&entry), request).unwrap()
        };
        // Both workers hold a lingering job, so the third one stays queued.
        let two_state = lingering("two-state");
        let greedy = lingering("greedy");
        thread::sleep(Duration::from_millis(50));
        assert_eq!(two_state.status(), JobStatus::Running);
        assert_eq!(greedy.status(), JobStatus::Running);
        let queued = store
            .submit(Arc::clone(&entry), JobRequest::new(entry.id, "greedy"))
            .unwrap();
        assert_eq!(queued.status(), JobStatus::Queued);

        let mut delta = GraphDelta::new();
        delta.add_edge(0, 2);
        let (_committed, version) = entry.apply_delta(&delta).unwrap();
        assert_eq!(queued.push_delta(&delta, version), None, "queued");
        assert_eq!(greedy.push_delta(&delta, version), Some(false), "greedy");
        assert_eq!(
            two_state.push_delta(&delta, version),
            Some(true),
            "two-state"
        );
        wait_event(&two_state, "topology");

        store.drain();
        assert_eq!(queued.status(), JobStatus::Cancelled);
        let applied = |job: &Job| job.info().outcome.unwrap().mutations_applied;
        assert_eq!(applied(&greedy), 0);
        assert_eq!(applied(&two_state), 1);
    }

    #[test]
    fn traced_patched_job_streams_rounds_around_the_topology_event() {
        let (_registry, entry) = registry_with_path(30);
        let store = JobStore::start(1, 0, None);
        let mut request = JobRequest::new(entry.id, "two-state");
        request.record_trace = true;
        request.linger_micros = 30_000_000;
        let job = store.submit(Arc::clone(&entry), request).unwrap();
        thread::sleep(Duration::from_millis(50));
        assert_eq!(job.status(), JobStatus::Running);

        let mut delta = GraphDelta::new();
        delta.add_vertex([0, 1]);
        delta.remove_edge(10, 11);
        let (_committed, version) = entry.apply_delta(&delta).unwrap();
        assert_eq!(job.push_delta(&delta, version), Some(true));
        wait_event(&job, "topology");
        store.drain();

        let events = events(&job);
        let round = |i: usize| match &events[i] {
            (event, Some(round)) if event == "round" => *round,
            other => panic!("event {i} is {other:?}, not a round: {events:?}"),
        };
        let at = events.iter().position(|(e, _)| e == "topology").unwrap();
        let topology_round = events[at].1.unwrap();
        assert_eq!(round(0), 0, "the stream opens with round 0");
        assert!((1..at).all(|i| round(i) == i), "{events:?}");
        assert_eq!(round(at - 1), topology_round);
        assert_eq!(round(at + 1), topology_round, "re-emitted after the delta");
        let last = events.len() - 1;
        assert!(
            (at + 2..last).all(|i| round(i) == round(i - 1) + 1),
            "{events:?}"
        );
        assert_eq!(events[last].0, "done");
        let outcome = job.info().outcome.unwrap();
        assert_eq!(round(last - 1), outcome.rounds);
        assert_eq!(outcome.mutations_applied, 1);
        assert!(outcome.valid_mis);
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
            SnapshotJob {
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
            SnapshotJob {
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
            SnapshotJob {
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

    /// The gauges by locking every job and tallying its status.
    fn tallied(store: &JobStore) -> JobGauges {
        let mut gauges = JobGauges {
            submitted: store.submitted.load(Ordering::Relaxed),
            ..JobGauges::default()
        };
        for job in store.list() {
            *match job.status() {
                JobStatus::Queued => &mut gauges.queued,
                JobStatus::Running => &mut gauges.running,
                JobStatus::Completed => &mut gauges.completed,
                JobStatus::Cancelled => &mut gauges.cancelled,
                JobStatus::Failed => &mut gauges.failed,
                JobStatus::Interrupted => &mut gauges.interrupted,
            } += 1;
        }
        gauges
    }

    #[test]
    fn gauges_equal_the_tally_through_the_lifecycle() {
        let (_registry, entry) = registry_with_path(10);
        let agree = |store: &JobStore| assert_eq!(store.gauges(), tallied(store));
        let store = JobStore::start(1, 0, None);
        let done = store
            .submit(Arc::clone(&entry), JobRequest::new(entry.id, "greedy"))
            .unwrap();
        assert_eq!(wait_terminal(&done), JobStatus::Completed);
        agree(&store);
        let mut refused = JobRequest::new(entry.id, "luby");
        refused.scheduler = mis_sim::spec::SchedulerSpec::RandomSubset { p: 0.5 };
        let failed = store.submit(Arc::clone(&entry), refused).unwrap();
        assert_eq!(wait_terminal(&failed), JobStatus::Failed);
        agree(&store);
        // A lingering job holds the single worker, so the next one queues.
        let mut slow = JobRequest::new(entry.id, "two-state");
        slow.linger_micros = 60_000_000;
        let running = store.submit(Arc::clone(&entry), slow).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while running.status() != JobStatus::Running {
            assert!(Instant::now() < deadline);
            thread::sleep(Duration::from_millis(2));
        }
        agree(&store);
        let queued = store
            .submit(Arc::clone(&entry), JobRequest::new(entry.id, "greedy"))
            .unwrap();
        assert_eq!(queued.status(), JobStatus::Queued);
        agree(&store);
        assert!(queued.cancel());
        agree(&store);
        assert!(running.cancel());
        assert_eq!(wait_terminal(&running), JobStatus::Cancelled);
        agree(&store);
        let gauges = store.gauges();
        assert_eq!(
            (gauges.completed, gauges.failed, gauges.cancelled),
            (1, 1, 2)
        );
        store.drain();

        // Restore one job of every status, plus a queued job whose graph
        // is gone (it fails at once); the queued one with a graph runs.
        let restored = JobStore::start(1, 0, None);
        let statuses = [
            JobStatus::Running,
            JobStatus::Completed,
            JobStatus::Cancelled,
            JobStatus::Failed,
            JobStatus::Interrupted,
        ];
        for (id, status) in (1..).zip(statuses) {
            let recovered = SnapshotJob {
                id,
                request: JobRequest::new(entry.id, "greedy"),
                status,
                outcome: None,
                error: None,
                mis: None,
            };
            restored.restore(recovered, Some(Arc::clone(&entry)));
            agree(&restored);
        }
        let queued = |id| SnapshotJob {
            id,
            request: JobRequest::new(entry.id, "greedy"),
            status: JobStatus::Queued,
            outcome: None,
            error: None,
            mis: None,
        };
        restored.restore(queued(6), None);
        agree(&restored);
        let rerun = restored.restore(queued(7), Some(Arc::clone(&entry)));
        assert_eq!(wait_terminal(&rerun), JobStatus::Completed);
        agree(&restored);
        let gauges = restored.gauges();
        assert_eq!(
            [
                gauges.queued,
                gauges.running,
                gauges.completed,
                gauges.cancelled,
                gauges.failed,
                gauges.interrupted
            ],
            [0, 1, 2, 1, 2, 1]
        );
        restored.drain();
    }

    /// Ids of `graph_id`'s non-terminal jobs, by filtering every job.
    fn live_by_filter(store: &JobStore, graph_id: u64) -> Vec<u64> {
        store
            .list()
            .into_iter()
            .filter(|j| j.entry.id == graph_id && !j.status().is_terminal())
            .map(|j| j.id)
            .collect()
    }

    fn live_by_index(store: &JobStore, graph_id: u64) -> Vec<u64> {
        store.jobs_on_graph(graph_id).iter().map(|j| j.id).collect()
    }

    #[test]
    fn live_index_equals_the_filter_through_the_lifecycle() {
        let (registry, entry) = registry_with_path(10);
        let other = registry.insert(
            "other".into(),
            "upload".into(),
            Graph::from_edges(3, [(0, 1)]).unwrap(),
        );
        let store = JobStore::start(1, 0, None);
        let agree = |expected: &[u64]| {
            for graph in [entry.id, other.id] {
                assert_eq!(live_by_index(&store, graph), live_by_filter(&store, graph));
            }
            assert_eq!(live_by_index(&store, entry.id), expected);
        };
        // One running job occupies the single worker; the rest queue.
        let mut slow = JobRequest::new(entry.id, "two-state");
        slow.linger_micros = 60_000_000;
        let running = store.submit(Arc::clone(&entry), slow).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while running.status() != JobStatus::Running {
            assert!(Instant::now() < deadline);
            thread::sleep(Duration::from_millis(2));
        }
        let queued: Vec<_> = (0..3)
            .map(|_| {
                store
                    .submit(Arc::clone(&entry), JobRequest::new(entry.id, "greedy"))
                    .unwrap()
            })
            .collect();
        let elsewhere = store
            .submit(Arc::clone(&other), JobRequest::new(other.id, "greedy"))
            .unwrap();
        agree(&[running.id, queued[0].id, queued[1].id, queued[2].id]);
        assert_eq!(live_by_index(&store, other.id), [elsewhere.id]);
        // Terminal transitions: a queued cancel, then the running job's end
        // lets the queue drain to completion.
        assert!(queued[1].cancel());
        agree(&[running.id, queued[0].id, queued[2].id]);
        assert!(running.cancel());
        for job in [&running, &queued[0], &queued[2], &elsewhere] {
            wait_terminal(job);
        }
        agree(&[]);
        store.drain();

        // Restore: queued jobs with a graph are live, terminal and orphaned
        // ones are not.
        let restored = JobStore::start(1, 0, None);
        let recovered = |id, status| SnapshotJob {
            id,
            request: JobRequest::new(entry.id, "greedy"),
            status,
            outcome: None,
            error: None,
            mis: None,
        };
        let mut blocker = recovered(1, JobStatus::Queued);
        blocker.request = JobRequest::new(entry.id, "two-state");
        blocker.request.linger_micros = 60_000_000;
        let blocker = restored.restore(blocker, Some(Arc::clone(&entry)));
        let waiting = restored.restore(recovered(2, JobStatus::Queued), Some(Arc::clone(&entry)));
        restored.restore(
            recovered(3, JobStatus::Interrupted),
            Some(Arc::clone(&entry)),
        );
        restored.restore(recovered(4, JobStatus::Completed), Some(Arc::clone(&entry)));
        restored.restore(recovered(5, JobStatus::Queued), None);
        for graph in [entry.id, other.id] {
            assert_eq!(
                live_by_index(&restored, graph),
                live_by_filter(&restored, graph)
            );
        }
        assert_eq!(live_by_index(&restored, entry.id), [blocker.id, waiting.id]);
        blocker.cancel();
        wait_terminal(&waiting);
        assert!(live_by_index(&restored, entry.id).is_empty());
        restored.drain();
    }

    #[test]
    fn worker_appends_count_toward_the_compaction_trigger() {
        let dir = std::env::temp_dir().join(format!(
            "mis-jobs-trigger-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, _) = Journal::open(&dir).unwrap();
        let journal = Arc::new(journal);
        let floor = crate::journal::COMPACTION_FLOOR_BYTES;
        journal
            .append(&crate::journal::record_of_len(1, floor - 1))
            .unwrap();
        assert!(!journal.compaction_due());
        // A restored queued job journals nothing until a worker starts it,
        // so only the worker's appends can cross the floor.
        let (_registry, entry) = registry_with_path(12);
        let store = JobStore::start(1, 0, Some(Arc::clone(&journal)));
        let job = store.restore(
            SnapshotJob {
                id: 1,
                request: JobRequest::new(entry.id, "greedy"),
                status: JobStatus::Queued,
                outcome: None,
                error: None,
                mis: None,
            },
            Some(entry),
        );
        // The event stream ends after the worker's last append returned.
        let mut stream = ndjson_stream(job.events());
        while stream().is_some() {}
        assert_eq!(job.status(), JobStatus::Completed);
        assert_eq!(journal.current_seq(), 3);
        assert!(journal.compaction_due());
        assert!(journal.wait_compaction_due(Instant::now()));
        store.drain();
        assert_eq!(
            journal.journal_bytes(),
            std::fs::metadata(dir.join(crate::journal::JOURNAL_FILE))
                .unwrap()
                .len()
        );
        let _ = std::fs::remove_dir_all(&dir);
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
        // A restored job skips `submit`'s registry check, so its key reaches
        // the failed `done` line verbatim and must come out escaped.
        let (_registry, entry) = registry_with_path(4);
        let store = JobStore::start(1, 0, None);
        let job = store.restore(
            SnapshotJob {
                id: 1,
                request: JobRequest::new(entry.id, "a\"b\\c\nd"),
                status: JobStatus::Queued,
                outcome: None,
                error: None,
                mis: None,
            },
            Some(entry),
        );
        assert_eq!(wait_terminal(&job), JobStatus::Failed);
        let mut stream = ndjson_stream(job.events());
        let mut text = String::new();
        while let Some(chunk) = stream() {
            text.push_str(std::str::from_utf8(&chunk).unwrap());
        }
        assert_eq!(
            text.lines().last().unwrap(),
            "{\"event\":\"done\",\"status\":\"failed\",\"error\":\"unknown algorithm 'a\\\"b\\\\c\\nd'\"}"
        );
        store.drain();
    }
}
