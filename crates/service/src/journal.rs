//! Write-ahead journal + snapshot persistence for the graph registry and
//! job store.
//!
//! The durability contract is "no acknowledged work is ever silently lost":
//! every handler that answers 2xx for a state mutation first appends a
//! record here and `fsync`s it, so a crash at any instant loses at most
//! requests that were never acknowledged. On restart, [`Journal::open`]
//! rebuilds the exact pre-crash state:
//!
//! * graphs are re-registered under their original ids at their last
//!   committed version (creates are replayed from the stored
//!   [`CreateGraphRequest`], patches from the stored
//!   [`PatchEdgesRequest`], version-guarded so replay is idempotent);
//! * jobs acknowledged but not yet started are re-queued;
//! * jobs that were running at the crash become [`JobStatus::Interrupted`]
//!   — terminal, with the original request retained so
//!   `POST /v1/jobs/:id/retry` can resubmit them.
//!
//! # On-disk format
//!
//! `journal.ndjson` is append-only, one record per line:
//!
//! ```text
//! <len> <crc32-hex> <json>\n
//! ```
//!
//! where `len` is the byte length of `<json>` and the CRC-32 (IEEE) covers
//! exactly those bytes. Replay stops at the first record that is truncated,
//! mis-framed, or fails its checksum — the torn tail a crash mid-append
//! leaves behind — and the file is truncated back to the last good record
//! before appending resumes.
//!
//! `snapshot.json` bounds journal growth: it captures the full state plus
//! the sequence number of the last record it covers, is written to a temp
//! file, fsynced, and atomically renamed; afterwards the journal is
//! truncated. Replay loads the snapshot first and skips any journal record
//! with `seq <= last_seq`, so a crash between rename and truncate replays
//! the overlapping records as no-ops.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use mis_graph::{Graph, VertexId};
use serde::{Deserialize, Serialize, Value};

use crate::api::{CreateGraphRequest, JobOutcome, JobRequest, JobStatus, PatchEdgesRequest};

/// Journal file name inside the data directory.
pub const JOURNAL_FILE: &str = "journal.ndjson";

/// Snapshot file name inside the data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.json";

/// How many appended records trigger an automatic snapshot.
pub const SNAPSHOT_INTERVAL: u64 = 512;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), table-driven — no external dependency.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One journaled state mutation, stored as an object whose first entry
/// `type` names the variant in snake_case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Record {
    /// A graph was registered (`POST /v1/graphs` acknowledged with 201).
    GraphCreated {
        /// Registry id assigned to the graph.
        id: u64,
        /// Resolved display name.
        name: String,
        /// The original request — spec + seed regenerate the topology
        /// deterministically; uploads carry their edges verbatim.
        create: CreateGraphRequest,
    },
    /// A patch was applied (`PATCH /v1/graphs/:id/edges` acknowledged).
    GraphPatched {
        /// Registry id.
        id: u64,
        /// Version *after* this patch; replay applies the patch only when
        /// the recovered graph sits exactly one version behind.
        version: u64,
        /// The applied patch.
        patch: PatchEdgesRequest,
    },
    /// A graph was deleted (`DELETE /v1/graphs/:id` acknowledged).
    GraphDeleted {
        /// Registry id.
        id: u64,
    },
    /// A job was accepted (`POST /v1/jobs` acknowledged with 202).
    JobSubmitted {
        /// Job id.
        id: u64,
        /// The full request, kept for re-queueing and retry.
        request: JobRequest,
    },
    /// A worker picked the job up.
    JobStarted {
        /// Job id.
        id: u64,
    },
    /// The job reached a terminal state on this incarnation.
    JobFinished {
        /// Job id.
        id: u64,
        /// Terminal status (`Completed`, `Cancelled`, or `Failed`).
        status: JobStatus,
        /// Present for completed jobs.
        #[serde(default)]
        outcome: Option<JobOutcome>,
        /// Present for failed jobs.
        #[serde(default)]
        error: Option<String>,
        /// The final independent set for completed jobs.
        #[serde(default)]
        mis: Option<Vec<VertexId>>,
    },
}

// ---------------------------------------------------------------------------
// Recovered state
// ---------------------------------------------------------------------------

/// A graph rebuilt from the snapshot + journal, ready for
/// `GraphRegistry::restore`.
#[derive(Debug)]
pub struct RecoveredGraph {
    /// Original registry id.
    pub id: u64,
    /// Display name.
    pub name: String,
    /// Human-readable source label.
    pub source: String,
    /// Topology with every committed patch applied.
    pub graph: Graph,
    /// Last committed version.
    pub version: u64,
}

/// Everything [`Journal::open`] rebuilt, plus replay diagnostics.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Graphs in id order.
    pub graphs: Vec<RecoveredGraph>,
    /// Jobs in id order. `Running` has already been rewritten to
    /// `Interrupted`.
    pub jobs: Vec<SnapshotJob>,
    /// Journal records replayed (after snapshot skip).
    pub replayed: usize,
    /// Whether a torn tail was found and truncated.
    pub torn_tail: bool,
}

impl Recovery {
    /// Jobs that must be re-enqueued (acknowledged, never started).
    pub fn requeued(&self) -> impl Iterator<Item = &SnapshotJob> {
        self.jobs.iter().filter(|j| j.status == JobStatus::Queued)
    }

    /// Jobs that were running at the crash.
    pub fn interrupted(&self) -> impl Iterator<Item = &SnapshotJob> {
        self.jobs
            .iter()
            .filter(|j| j.status == JobStatus::Interrupted)
    }
}

/// In-memory replay model: graphs as (meta, materialized graph), jobs as
/// recovered rows.
#[derive(Default)]
struct ReplayState {
    graphs: Vec<RecoveredGraph>,
    jobs: Vec<SnapshotJob>,
}

impl ReplayState {
    fn apply(&mut self, record: Record) -> Result<(), String> {
        match record {
            Record::GraphCreated { id, name, create } => {
                if self.graphs.iter().any(|g| g.id == id) {
                    return Ok(()); // idempotent: snapshot already has it
                }
                let graph = create.materialize_source()?;
                self.graphs.push(RecoveredGraph {
                    id,
                    name,
                    source: create.source.label(),
                    graph,
                    version: 1,
                });
                Ok(())
            }
            Record::GraphPatched { id, version, patch } => {
                let Some(entry) = self.graphs.iter_mut().find(|g| g.id == id) else {
                    return Err(format!("patch for unknown graph {id}"));
                };
                if entry.version >= version {
                    return Ok(()); // snapshot already covers this patch
                }
                if version != entry.version + 1 {
                    return Err(format!(
                        "patch gap on graph {id}: at v{} but record is v{version}",
                        entry.version
                    ));
                }
                let (graph, _) = entry
                    .graph
                    .apply_delta(&patch.delta())
                    .map_err(|e| format!("replaying patch v{version} on graph {id}: {e}"))?;
                entry.graph = graph;
                entry.version = version;
                Ok(())
            }
            Record::GraphDeleted { id } => {
                self.graphs.retain(|g| g.id != id);
                Ok(())
            }
            Record::JobSubmitted { id, request } => {
                if self.jobs.iter().any(|j| j.id == id) {
                    return Ok(());
                }
                self.jobs.push(SnapshotJob {
                    id,
                    request,
                    status: JobStatus::Queued,
                    outcome: None,
                    error: None,
                    mis: None,
                });
                Ok(())
            }
            Record::JobStarted { id } => {
                if let Some(job) = self.jobs.iter_mut().find(|j| j.id == id) {
                    if !job.status.is_terminal() {
                        job.status = JobStatus::Running;
                    }
                }
                Ok(())
            }
            Record::JobFinished {
                id,
                status,
                outcome,
                error,
                mis,
            } => {
                if let Some(job) = self.jobs.iter_mut().find(|j| j.id == id) {
                    job.status = status;
                    job.outcome = outcome;
                    job.error = error;
                    job.mis = mis;
                }
                Ok(())
            }
        }
    }
}

impl CreateGraphRequest {
    fn materialize_source(&self) -> Result<Graph, String> {
        self.source.materialize(self.seed)
    }
}

// ---------------------------------------------------------------------------
// The journal itself
// ---------------------------------------------------------------------------

/// Append-only WAL with snapshot rotation. See the module docs for the
/// format and recovery semantics.
pub struct Journal {
    dir: PathBuf,
    file: Mutex<File>,
    seq: AtomicU64,
    since_snapshot: AtomicU64,
    sealed: AtomicBool,
    /// Seq covered by the last installed snapshot. Doubles as the install
    /// mutex: held across the whole build-tmp/rename/trim sequence so
    /// concurrent installs can never interleave writes to the tmp file,
    /// and a stale doc racing a newer one is dropped instead of rolling
    /// the snapshot backwards. Lock order: `snapshot_gate` before `file`.
    snapshot_gate: Mutex<u64>,
    /// Claimed by [`try_begin_snapshot`](Journal::try_begin_snapshot) so
    /// only one thread at a time pays for building a snapshot document.
    snapshot_in_flight: AtomicBool,
}

impl Journal {
    /// Opens (or creates) the journal in `dir`, replaying any snapshot and
    /// journal found there. Returns the journal ready for appends plus the
    /// recovered state.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures creating the directory or files. Corrupt
    /// records never error: replay stops at the first bad record (torn
    /// tail) and the file is truncated back to the last good byte.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<(Journal, Recovery)> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;

        let mut state = ReplayState::default();
        let mut last_seq = 0u64;

        // 1. Snapshot, if any. A snapshot that fails to parse is ignored
        //    (it is only ever written atomically, so this means external
        //    corruption; the journal may still recover a prefix).
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        if let Ok(text) = fs::read_to_string(&snapshot_path) {
            if let Ok(snap) = serde_json::from_str::<SnapshotDoc>(&text) {
                last_seq = snap.last_seq;
                state = snap.into_state();
            }
        }

        // 2. Journal replay with torn-tail truncation.
        let journal_path = dir.join(JOURNAL_FILE);
        let mut replayed = 0usize;
        let mut torn_tail = false;
        let mut good_bytes = 0u64;
        let mut max_seq = last_seq;
        if let Ok(file) = File::open(&journal_path) {
            let mut reader = BufReader::new(file);
            let mut line = String::new();
            loop {
                line.clear();
                let n = match read_journal_line(&mut reader, &mut line) {
                    Ok(0) => break,
                    Ok(n) => n,
                    Err(_) => {
                        torn_tail = true;
                        break;
                    }
                };
                match parse_frame(&line) {
                    Some((seq, record)) => {
                        max_seq = max_seq.max(seq);
                        if seq > last_seq {
                            // A semantically impossible record (e.g. a patch
                            // for a graph deleted by a later-corrupted
                            // prefix) is skipped rather than fatal: replay
                            // is best-effort past it.
                            if state.apply(record).is_ok() {
                                replayed += 1;
                            }
                        }
                        good_bytes += n as u64;
                    }
                    None => {
                        torn_tail = true;
                        break;
                    }
                }
            }
        }

        // 3. Truncate away the torn tail so appends resume cleanly framed.
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&journal_path)?;
        let actual_len = file.metadata()?.len();
        if torn_tail || good_bytes < actual_len {
            file.set_len(good_bytes)?;
        }
        let mut file = file;
        file.seek(SeekFrom::End(0))?;

        // 4. Post-process: running-at-crash becomes Interrupted.
        for job in &mut state.jobs {
            if job.status == JobStatus::Running {
                job.status = JobStatus::Interrupted;
                job.error = Some(
                    "interrupted: the service crashed while this job was running; \
                     POST /v1/jobs/:id/retry to resubmit"
                        .to_string(),
                );
            }
        }
        state.graphs.sort_by_key(|g| g.id);
        state.jobs.sort_by_key(|j| j.id);

        let journal = Journal {
            dir,
            file: Mutex::new(file),
            seq: AtomicU64::new(max_seq),
            since_snapshot: AtomicU64::new(0),
            sealed: AtomicBool::new(false),
            snapshot_gate: Mutex::new(last_seq),
            snapshot_in_flight: AtomicBool::new(false),
        };
        let recovery = Recovery {
            graphs: state.graphs,
            jobs: state.jobs,
            replayed,
            torn_tail,
        };
        Ok((journal, recovery))
    }

    /// Appends one record and `fsync`s it. Returns only after the bytes are
    /// durable — callers acknowledge the client strictly after this.
    ///
    /// The file lock covers the write, not the `fsync`: concurrent appends
    /// write while this one waits on the disk, and the file system can
    /// commit their syncs together.
    ///
    /// # Errors
    ///
    /// Fails if the journal has been [sealed](Journal::seal) or on I/O
    /// errors; the caller must NOT acknowledge the mutation in that case.
    pub fn append(&self, record: &Record) -> io::Result<u64> {
        if self.sealed.load(Ordering::SeqCst) {
            return Err(io::Error::other("journal sealed"));
        }
        let (seq, written_to) = {
            let mut file = crate::sync::lock(&self.file);
            // Re-check under the lock: `seal` waits on this lock as a
            // barrier, so no append may start writing once it has returned.
            if self.sealed.load(Ordering::SeqCst) {
                return Err(io::Error::other("journal sealed"));
            }
            // Sequence numbers are assigned under the file lock so on-disk
            // order matches sequence order.
            let seq = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
            let envelope = Value::Object(vec![
                ("seq".to_string(), seq.to_value()),
                ("record".to_string(), record.to_value()),
            ]);
            let json = serde_json::to_string(&envelope)
                .map_err(|e| io::Error::other(format!("journal encode: {e}")))?;
            let line = format!("{} {:08x} {}\n", json.len(), crc32(json.as_bytes()), json);
            file.write_all(line.as_bytes())?;
            (seq, file.try_clone()?)
        };
        // The clone names the file the record went to, even if a snapshot
        // install swaps the journal before this sync: syncing it makes the
        // record durable there, and the install syncs its own copy of every
        // record it carries over (or covers it by the snapshot). Syncing
        // also covers every record written before this one.
        written_to.sync_data()?;
        self.since_snapshot.fetch_add(1, Ordering::Relaxed);
        Ok(seq)
    }

    /// Whether enough records have accumulated to warrant a snapshot.
    pub fn snapshot_due(&self) -> bool {
        self.since_snapshot.load(Ordering::Relaxed) >= SNAPSHOT_INTERVAL
    }

    /// Claims the right to build the next snapshot document. Returns
    /// `true` when one is [due](Journal::snapshot_due) and no other thread
    /// is already building one — the claim must be released with
    /// [`finish_snapshot`](Journal::finish_snapshot). Without this claim,
    /// every request thread that sees `snapshot_due()` would serialize a
    /// full state capture of its own.
    pub fn try_begin_snapshot(&self) -> bool {
        self.snapshot_due()
            && self
                .snapshot_in_flight
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
    }

    /// Releases the claim taken by [`try_begin_snapshot`](Journal::try_begin_snapshot).
    pub fn finish_snapshot(&self) {
        self.snapshot_in_flight.store(false, Ordering::SeqCst);
    }

    /// Stops all future appends — every later [`append`](Journal::append)
    /// fails. Models the instant of a crash for fault injection: writes
    /// from stale worker threads of a dead incarnation must not land in a
    /// file now owned by its successor. Blocks until any in-flight append
    /// or snapshot install has finished, so when `seal` returns the files
    /// are quiescent and safe for a successor to reopen.
    pub fn seal(&self) {
        self.sealed.store(true, Ordering::SeqCst);
        // Barriers, in install lock order: an install past its sealed
        // check commits before we return; an append past its check has
        // written before we return.
        drop(crate::sync::lock(&self.snapshot_gate));
        drop(crate::sync::lock(&self.file));
    }

    /// Current sequence number (the seq of the most recent append).
    pub fn current_seq(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Writes `snapshot` atomically, then trims the journal down to the
    /// records the snapshot does NOT cover (`seq > snapshot.last_seq`).
    /// Records appended after the document was captured are preserved
    /// verbatim — an install must never discard an acknowledged mutation
    /// that only the journal knows about.
    ///
    /// Crash-ordering: snapshot tmp write + fsync, trimmed journal tmp
    /// write + fsync, snapshot rename, journal rename. A crash between
    /// the renames leaves the full journal next to the new snapshot;
    /// replay skips the records the snapshot already covers by seq.
    ///
    /// Concurrent installs serialize on `snapshot_gate`, and a document
    /// older than the installed one is dropped (Ok) rather than rolling
    /// the snapshot backwards.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a failed snapshot leaves the journal intact.
    pub fn install_snapshot(&self, snapshot: &SnapshotDoc) -> io::Result<()> {
        let mut installed = crate::sync::lock(&self.snapshot_gate);
        if self.sealed.load(Ordering::SeqCst) {
            return Err(io::Error::other("journal sealed"));
        }
        if snapshot.last_seq < *installed {
            return Ok(()); // raced a newer install; nothing to do
        }
        let json = serde_json::to_string(&snapshot.to_value())
            .map_err(|e| io::Error::other(format!("snapshot encode: {e}")))?;
        let tmp = self.dir.join("snapshot.json.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(json.as_bytes())?;
            f.sync_data()?;
        }
        // Under the file lock (no appends): split the journal at the last
        // record the snapshot covers and carry everything after it over
        // into the replacement journal.
        let mut file = crate::sync::lock(&self.file);
        file.seek(SeekFrom::Start(0))?;
        let mut cut = 0u64;
        {
            let mut reader = BufReader::new(&mut *file);
            let mut line = String::new();
            loop {
                line.clear();
                let n = match read_journal_line(&mut reader, &mut line) {
                    Ok(0) => break,
                    Ok(n) => n,
                    Err(_) => break,
                };
                match parse_frame(&line) {
                    Some((seq, _)) if seq <= snapshot.last_seq => cut += n as u64,
                    // Anything unparseable (or newer) stays in the journal.
                    _ => break,
                }
            }
        }
        file.seek(SeekFrom::Start(cut))?;
        let mut tail = Vec::new();
        file.read_to_end(&mut tail)?;
        let journal_tmp = self.dir.join("journal.ndjson.tmp");
        let mut replacement = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&journal_tmp)?;
        replacement.write_all(&tail)?;
        replacement.sync_data()?;
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        fs::rename(&journal_tmp, self.dir.join(JOURNAL_FILE))?;
        replacement.seek(SeekFrom::End(0))?;
        *file = replacement;
        drop(file);
        *installed = snapshot.last_seq;
        self.since_snapshot.store(0, Ordering::Relaxed);
        Ok(())
    }
}

/// Reads one line (including the trailing newline) into `line`; a final
/// line without a newline is a torn tail and errors.
fn read_journal_line(reader: &mut impl BufRead, line: &mut String) -> io::Result<usize> {
    let mut bytes = Vec::new();
    let n = reader.read_until(b'\n', &mut bytes)?;
    if n == 0 {
        return Ok(0);
    }
    if bytes.last() != Some(&b'\n') {
        return Err(io::Error::other("torn tail: unterminated line"));
    }
    *line = String::from_utf8(bytes).map_err(|_| io::Error::other("torn tail: non-UTF-8"))?;
    Ok(n)
}

/// Parses `<len> <crc32-hex> <json>\n`, verifying length and checksum.
/// Returns `None` for any mis-framed or corrupt line.
fn parse_frame(line: &str) -> Option<(u64, Record)> {
    let body = line.strip_suffix('\n')?;
    let (len_str, rest) = body.split_once(' ')?;
    let (crc_str, json) = rest.split_once(' ')?;
    let len: usize = len_str.parse().ok()?;
    if json.len() != len {
        return None;
    }
    let crc = u32::from_str_radix(crc_str, 16).ok()?;
    if crc32(json.as_bytes()) != crc {
        return None;
    }
    let envelope: Value = serde_json::from_str(json).ok()?;
    let seq = u64::from_value(serde::get_field(&envelope, "seq").ok()?).ok()?;
    let record = Record::from_value(serde::get_field(&envelope, "record").ok()?).ok()?;
    Some((seq, record))
}

// ---------------------------------------------------------------------------
// Snapshot document
// ---------------------------------------------------------------------------

/// One graph in a snapshot: topology stored as explicit edges so recovery
/// is exact regardless of how the graph was originally created.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotGraph {
    /// Registry id.
    pub id: u64,
    /// Display name.
    pub name: String,
    /// Human-readable source label.
    pub source: String,
    /// Vertex count.
    pub n: usize,
    /// Current edges.
    pub edges: Vec<(VertexId, VertexId)>,
    /// Last committed version.
    pub version: u64,
}

/// One job in a snapshot, or rebuilt from the snapshot + journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotJob {
    /// Job id.
    pub id: u64,
    /// The acknowledged request.
    pub request: JobRequest,
    /// Lifecycle status.
    pub status: JobStatus,
    /// Outcome for completed jobs.
    #[serde(default)]
    pub outcome: Option<JobOutcome>,
    /// Error for failed and interrupted jobs.
    #[serde(default)]
    pub error: Option<String>,
    /// Final MIS for completed jobs.
    #[serde(default)]
    pub mis: Option<Vec<VertexId>>,
}

/// The full snapshot file contents.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SnapshotDoc {
    /// Sequence number of the last journal record this snapshot covers.
    pub last_seq: u64,
    /// Graph registry contents.
    pub graphs: Vec<SnapshotGraph>,
    /// Job store contents (all statuses — queued/running jobs resume their
    /// lifecycle through journal replay on top of this).
    pub jobs: Vec<SnapshotJob>,
}

impl SnapshotDoc {
    fn into_state(self) -> ReplayState {
        let graphs = self
            .graphs
            .into_iter()
            .filter_map(|g| {
                let graph = Graph::from_edges(g.n, g.edges.iter().copied()).ok()?;
                Some(RecoveredGraph {
                    id: g.id,
                    name: g.name,
                    source: g.source,
                    graph,
                    version: g.version,
                })
            })
            .collect();
        ReplayState {
            graphs,
            jobs: self.jobs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::GraphSource;
    use mis_sim::spec::GraphSpec;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mis-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn upload(n: usize, edges: Vec<(VertexId, VertexId)>) -> CreateGraphRequest {
        CreateGraphRequest {
            name: None,
            source: GraphSource::Edges { n, edges },
            seed: 0,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_dir_opens_clean() {
        let dir = tmpdir("empty");
        let (journal, recovery) = Journal::open(&dir).unwrap();
        assert!(recovery.graphs.is_empty());
        assert!(recovery.jobs.is_empty());
        assert!(!recovery.torn_tail);
        assert_eq!(journal.current_seq(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_replay_to_exact_state() {
        let dir = tmpdir("replay");
        {
            let (journal, _) = Journal::open(&dir).unwrap();
            journal
                .append(&Record::GraphCreated {
                    id: 1,
                    name: "path".into(),
                    create: upload(3, vec![(0, 1), (1, 2)]),
                })
                .unwrap();
            journal
                .append(&Record::GraphPatched {
                    id: 1,
                    version: 2,
                    patch: PatchEdgesRequest {
                        add: vec![(0, 2)],
                        ..Default::default()
                    },
                })
                .unwrap();
            journal
                .append(&Record::JobSubmitted {
                    id: 1,
                    request: JobRequest::new(1, "two-state"),
                })
                .unwrap();
            journal
                .append(&Record::JobSubmitted {
                    id: 2,
                    request: JobRequest::new(1, "three-color"),
                })
                .unwrap();
            journal.append(&Record::JobStarted { id: 1 }).unwrap();
        }
        let (_, recovery) = Journal::open(&dir).unwrap();
        assert_eq!(recovery.graphs.len(), 1);
        let g = &recovery.graphs[0];
        assert_eq!((g.id, g.version, g.graph.n(), g.graph.m()), (1, 2, 3, 3));
        assert!(g.graph.has_edge(0, 2));
        assert_eq!(recovery.jobs.len(), 2);
        // Started-but-unfinished job 1 -> Interrupted; job 2 re-queues.
        assert_eq!(recovery.jobs[0].status, JobStatus::Interrupted);
        assert_eq!(recovery.jobs[1].status, JobStatus::Queued);
        assert_eq!(recovery.requeued().count(), 1);
        assert_eq!(recovery.interrupted().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn generated_graphs_replay_from_spec_and_seed() {
        let dir = tmpdir("spec");
        let create = CreateGraphRequest {
            name: Some("g".into()),
            source: GraphSource::Spec(GraphSpec::Gnp { n: 40, p: 0.1 }),
            seed: 7,
        };
        let expected = create.source.materialize(7).unwrap();
        {
            let (journal, _) = Journal::open(&dir).unwrap();
            journal
                .append(&Record::GraphCreated {
                    id: 3,
                    name: "g".into(),
                    create,
                })
                .unwrap();
        }
        let (_, recovery) = Journal::open(&dir).unwrap();
        let g = &recovery.graphs[0];
        assert_eq!((g.graph.n(), g.graph.m()), (expected.n(), expected.m()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_replay_keeps_the_prefix() {
        let dir = tmpdir("torn");
        {
            let (journal, _) = Journal::open(&dir).unwrap();
            journal
                .append(&Record::GraphCreated {
                    id: 1,
                    name: "a".into(),
                    create: upload(2, vec![(0, 1)]),
                })
                .unwrap();
            journal.append(&Record::JobStarted { id: 9 }).unwrap();
        }
        // Simulate a crash mid-append: garbage half-record at the tail.
        let path = dir.join(JOURNAL_FILE);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"999 deadbeef {\"seq\":3,\"rec").unwrap();
        drop(f);

        let (journal, recovery) = Journal::open(&dir).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.graphs.len(), 1);
        // The tail was truncated: appends resume and a fresh replay sees
        // a clean file.
        journal.append(&Record::GraphDeleted { id: 1 }).unwrap();
        drop(journal);
        let (_, recovery) = Journal::open(&dir).unwrap();
        assert!(!recovery.torn_tail);
        assert!(recovery.graphs.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_crc_stops_replay_at_the_bad_record() {
        let dir = tmpdir("crc");
        {
            let (journal, _) = Journal::open(&dir).unwrap();
            journal
                .append(&Record::GraphCreated {
                    id: 1,
                    name: "a".into(),
                    create: upload(2, vec![(0, 1)]),
                })
                .unwrap();
            journal
                .append(&Record::GraphCreated {
                    id: 2,
                    name: "b".into(),
                    create: upload(2, vec![(0, 1)]),
                })
                .unwrap();
        }
        // Flip one byte inside the second record's JSON.
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let last_quarter = bytes.len() - bytes.len() / 4;
        bytes[last_quarter] ^= 0x20;
        fs::write(&path, &bytes).unwrap();

        let (_, recovery) = Journal::open(&dir).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.graphs.len(), 1);
        assert_eq!(recovery.graphs[0].id, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_rotates_the_journal_and_replays_with_seq_skip() {
        let dir = tmpdir("snap");
        {
            let (journal, _) = Journal::open(&dir).unwrap();
            journal
                .append(&Record::GraphCreated {
                    id: 1,
                    name: "a".into(),
                    create: upload(3, vec![(0, 1)]),
                })
                .unwrap();
            journal
                .append(&Record::GraphPatched {
                    id: 1,
                    version: 2,
                    patch: PatchEdgesRequest {
                        add: vec![(1, 2)],
                        ..Default::default()
                    },
                })
                .unwrap();
            let snapshot = SnapshotDoc {
                last_seq: journal.current_seq(),
                graphs: vec![SnapshotGraph {
                    id: 1,
                    name: "a".into(),
                    source: "upload(n=3,m=1)".into(),
                    n: 3,
                    edges: vec![(0, 1), (1, 2)],
                    version: 2,
                }],
                jobs: Vec::new(),
            };
            journal.install_snapshot(&snapshot).unwrap();
            assert_eq!(fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(), 0);
            // Appends after the snapshot land in the truncated journal.
            journal
                .append(&Record::GraphPatched {
                    id: 1,
                    version: 3,
                    patch: PatchEdgesRequest {
                        add: vec![(0, 2)],
                        ..Default::default()
                    },
                })
                .unwrap();
        }
        let (journal, recovery) = Journal::open(&dir).unwrap();
        let g = &recovery.graphs[0];
        assert_eq!((g.version, g.graph.m()), (3, 3));
        // Sequence numbering continues past the snapshot.
        assert_eq!(journal.current_seq(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_install_preserves_records_appended_after_capture() {
        let dir = tmpdir("snap-race");
        {
            let (journal, _) = Journal::open(&dir).unwrap();
            journal
                .append(&Record::GraphCreated {
                    id: 1,
                    name: "a".into(),
                    create: upload(3, vec![(0, 1)]),
                })
                .unwrap();
            // Capture the snapshot document *now* (covers seq 1)...
            let snapshot = SnapshotDoc {
                last_seq: journal.current_seq(),
                graphs: vec![SnapshotGraph {
                    id: 1,
                    name: "a".into(),
                    source: "upload(n=3,m=1)".into(),
                    n: 3,
                    edges: vec![(0, 1)],
                    version: 1,
                }],
                jobs: Vec::new(),
            };
            // ...then let more acknowledged mutations land before the
            // install runs, as concurrent request threads will.
            journal
                .append(&Record::GraphPatched {
                    id: 1,
                    version: 2,
                    patch: PatchEdgesRequest {
                        add: vec![(1, 2)],
                        ..Default::default()
                    },
                })
                .unwrap();
            journal
                .append(&Record::JobSubmitted {
                    id: 9,
                    request: JobRequest::new(1, "two-state"),
                })
                .unwrap();
            journal.install_snapshot(&snapshot).unwrap();
            // The trimmed journal must still hold the two uncovered records.
            assert!(fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len() > 0);
        }
        let (journal, recovery) = Journal::open(&dir).unwrap();
        let g = &recovery.graphs[0];
        assert_eq!((g.version, g.graph.m()), (2, 2));
        assert_eq!(recovery.jobs.len(), 1);
        assert_eq!(recovery.jobs[0].id, 9);
        assert_eq!(journal.current_seq(), 3);
        // A stale document must not roll the snapshot backwards.
        journal.install_snapshot(&SnapshotDoc::default()).unwrap();
        let (_, recovery) = Journal::open(&dir).unwrap();
        assert_eq!(recovery.graphs.len(), 1);
        assert_eq!(recovery.jobs.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_journal_rejects_appends() {
        let dir = tmpdir("seal");
        let (journal, _) = Journal::open(&dir).unwrap();
        journal.append(&Record::JobStarted { id: 1 }).unwrap();
        journal.seal();
        assert!(journal.append(&Record::JobStarted { id: 2 }).is_err());
        assert!(journal.install_snapshot(&SnapshotDoc::default()).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_all_replay() {
        let dir = tmpdir("concurrent");
        {
            let (journal, _) = Journal::open(&dir).unwrap();
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let journal = &journal;
                    scope.spawn(move || {
                        for i in 0..25 {
                            journal
                                .append(&Record::JobSubmitted {
                                    id: t * 100 + i + 1,
                                    request: JobRequest::new(1, "two-state"),
                                })
                                .unwrap();
                        }
                    });
                }
            });
            assert_eq!(journal.current_seq(), 100);
        }
        let (_, recovery) = Journal::open(&dir).unwrap();
        assert!(!recovery.torn_tail);
        assert_eq!(recovery.replayed, 100);
        assert_eq!(recovery.jobs.len(), 100);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_round_trips() {
        let records = vec![
            Record::GraphCreated {
                id: 1,
                name: "x".into(),
                create: upload(2, vec![(0, 1)]),
            },
            Record::GraphPatched {
                id: 1,
                version: 2,
                patch: PatchEdgesRequest {
                    detach: vec![0],
                    ..Default::default()
                },
            },
            Record::GraphDeleted { id: 1 },
            Record::JobSubmitted {
                id: 4,
                request: JobRequest::new(1, "two-state"),
            },
            Record::JobStarted { id: 4 },
            Record::JobFinished {
                id: 4,
                status: JobStatus::Completed,
                outcome: None,
                error: None,
                mis: Some(vec![0, 2]),
            },
        ];
        for record in records {
            let json = serde_json::to_string(&record.to_value()).unwrap();
            let value: Value = serde_json::from_str(&json).unwrap();
            assert_eq!(Record::from_value(&value).unwrap(), record);
        }
    }

    #[test]
    fn job_submitted_records_with_the_retired_round_delay_field_still_parse() {
        let line = "{\"type\": \"job_submitted\", \"id\": 3, \"request\": \
                    {\"graph\": 1, \"algorithm\": \"two-state\", \"round_delay_micros\": 250}}";
        let value: Value = serde_json::from_str(line).unwrap();
        assert_eq!(
            Record::from_value(&value).unwrap(),
            Record::JobSubmitted {
                id: 3,
                request: JobRequest::new(1, "two-state"),
            }
        );
    }
}
