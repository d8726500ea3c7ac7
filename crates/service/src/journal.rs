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
//! exactly those bytes, and `<json>` is `{"seq":<n>,"record":<record>}`.
//! Replay stops at the first record that is truncated, mis-framed, or fails
//! its checksum — the torn tail a crash mid-append leaves behind — and the
//! file is truncated back to the last good record before appending resumes.
//! Two cases are not a torn tail, and [`Journal::open`] fails on them with
//! [`io::ErrorKind::InvalidData`], naming the byte offset, and leaves the
//! file untouched rather than drop the record and every record after it:
//!
//! * a damaged frame followed by an intact one: a failed append leaves only
//!   an unterminated fragment at the end of the file, so this is damage in
//!   place;
//! * an intact frame whose record this build cannot decode (an unknown
//!   `type`, say).
//!
//! The same holds for a `snapshot.json` that exists but cannot be read,
//! parsed, or decoded: the journal beside it holds only the records after
//! it, so opening without it would lose every record it covers.
//!
//! # Compaction
//!
//! `snapshot.json` bounds journal growth: it holds the full state plus the
//! sequence number of the last record it covers. A compaction is due once
//! the journal holds max([`COMPACTION_FLOOR_BYTES`], size of the last
//! snapshot) bytes, so the bytes snapshots rewrite grow with the bytes
//! journaled, and a restart replays at most about one snapshot's worth of
//! journal. [`Journal::install_snapshot`] compacts in this order:
//!
//! 1. stream the document into `snapshot.json.tmp` one graph and one job at
//!    a time, fsync it, rename it over `snapshot.json`, and fsync the
//!    directory;
//! 2. under the append lock only: copy the records the snapshot does not
//!    cover into `journal.ndjson.tmp`, fsync it, rename it over
//!    `journal.ndjson`, fsync the directory, and swap it in as the file
//!    appends go to;
//! 3. close the replaced journal after releasing the lock.
//!
//! The journal keeps each record's end offset, so step 2 finds the end of
//! the covered records without reading them. Replay loads the snapshot
//! first and skips any journal record with `seq <= last_seq`, so a crash
//! between steps 1 and 2 — the full journal beside the new snapshot —
//! replays the overlapping records as no-ops.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use mis_graph::{Graph, VertexId};
use serde::{Deserialize, Serialize, Value};

use crate::api::{CreateGraphRequest, JobOutcome, JobRequest, JobStatus, PatchEdgesRequest};

/// Journal file name inside the data directory.
pub const JOURNAL_FILE: &str = "journal.ndjson";

/// Snapshot file name inside the data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.json";

/// Journal bytes that make a compaction due however small the last
/// snapshot is; past it, a compaction is due once the journal holds as many
/// bytes as the last snapshot.
pub const COMPACTION_FLOOR_BYTES: u64 = 1 << 20;

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

/// The file appends go to, and what an install needs to split it.
struct Active {
    file: Arc<File>,
    /// Bytes of framed records in `file`; the next append writes here.
    len: u64,
    /// `(seq, end offset)` of each record in `file`, in file order, so an
    /// install finds the end of the records its snapshot covers without
    /// reading them.
    ends: Vec<(u64, u64)>,
    /// Size of the last installed snapshot, or of the one found at open.
    snapshot_bytes: u64,
}

impl Active {
    fn compaction_due(&self) -> bool {
        self.len >= COMPACTION_FLOOR_BYTES.max(self.snapshot_bytes)
    }
}

/// Points inside [`Journal::install_snapshot`] where a test can hold the
/// installing thread.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InstallStage {
    /// The new snapshot is renamed into place; the journal is not swapped.
    SnapshotRenamed,
    /// The trimmed journal takes appends; the replaced one is still open.
    JournalSwapped,
}

/// Append-only WAL with snapshot compaction. See the module docs for the
/// format and recovery semantics.
pub struct Journal {
    dir: PathBuf,
    /// The append lock: held to write a record, and by an install only to
    /// copy the uncovered records into the replacement and swap it in.
    active: Mutex<Active>,
    /// Seq of the last record written; assigned under `active`.
    seq: AtomicU64,
    sealed: AtomicBool,
    /// The install mutex: held across the whole write/rename/swap sequence
    /// so concurrent installs can never interleave writes to the tmp files.
    /// Lock order: `snapshot_gate` before `active`.
    snapshot_gate: Mutex<()>,
    /// Seq covered by the snapshot on disk: a stale doc racing a newer one
    /// is dropped instead of rolling the snapshot backwards.
    installed: AtomicU64,
    /// Snapshots installed since open.
    compactions: AtomicU64,
    /// Wakes [`wait_compaction_due`](Journal::wait_compaction_due) when an
    /// append makes a compaction due or the journal is sealed. Lock order:
    /// `wake_lock` before `active`.
    wake_lock: Mutex<()>,
    wake: Condvar,
    #[cfg(test)]
    install_hook: std::sync::OnceLock<Box<dyn Fn(InstallStage) + Send + Sync>>,
}

impl Journal {
    /// Opens (or creates) the journal in `dir`, replaying any snapshot and
    /// journal found there. Returns the journal ready for appends plus the
    /// recovered state.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures reading or creating the directory or files.
    /// A broken frame with no intact frame after it is a torn tail: replay
    /// stops there and the file is truncated back to the last good byte. A
    /// broken frame with an intact frame after it, or an intact frame whose
    /// record does not decode, fails with [`io::ErrorKind::InvalidData`]
    /// naming its byte offset, and the file is left as it was. So does a
    /// `snapshot.json` that exists but is not UTF-8, does not parse, or
    /// holds a graph that does not build; neither file is touched. A
    /// missing snapshot, or a leftover `snapshot.json.tmp`, opens as usual.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<(Journal, Recovery)> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;

        let mut state = ReplayState::default();
        let mut last_seq = 0u64;
        let mut snapshot_bytes = 0u64;

        // 1. Snapshot, if any. It is only ever written atomically, so one
        //    that does not read or decode was damaged in place; the journal
        //    no longer holds the records it covers, so refuse to open.
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let damaged = |e: &dyn std::fmt::Display| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: {e}; refusing to open without the records it covers",
                    snapshot_path.display()
                ),
            )
        };
        match fs::read_to_string(&snapshot_path) {
            Ok(text) => {
                let snap: SnapshotDoc = serde_json::from_str(&text).map_err(|e| damaged(&e))?;
                last_seq = snap.last_seq;
                snapshot_bytes = text.len() as u64;
                state = snap.into_state().map_err(|e| damaged(&e))?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(damaged(&e)),
            Err(e) => return Err(e),
        }

        // 2. Journal replay with torn-tail truncation.
        let journal_path = dir.join(JOURNAL_FILE);
        let mut replayed = 0usize;
        let mut torn_tail = false;
        let mut good_bytes = 0u64;
        let mut ends = Vec::new();
        let mut max_seq = last_seq;
        if let Ok(file) = File::open(&journal_path) {
            let mut reader = BufReader::new(file);
            let mut line = Vec::new();
            loop {
                line.clear();
                let n = reader.read_until(b'\n', &mut line)?;
                if n == 0 {
                    break;
                }
                match parse_frame(&line) {
                    Frame::Record(seq, record) => {
                        max_seq = max_seq.max(seq);
                        if seq > last_seq {
                            // A record `apply` rejects is skipped, not fatal:
                            // a snapshot captured after a DELETE unregistered
                            // its graph can cover a seq before that graph's
                            // last `GraphPatched`, and a directory written
                            // before DELETE took the graph's patch mutex can
                            // hold a `GraphPatched` after its `GraphDeleted`.
                            if state.apply(record).is_ok() {
                                replayed += 1;
                            }
                        }
                        good_bytes += n as u64;
                        ends.push((seq, good_bytes));
                    }
                    Frame::Torn => {
                        let next = good_bytes + n as u64;
                        if let Some(intact) = next_intact_frame(&mut reader, next)? {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!(
                                    "{}: the frame at byte {good_bytes} is damaged, but an \
                                     intact frame follows at byte {intact}; refusing to drop \
                                     it and the records after it",
                                    journal_path.display()
                                ),
                            ));
                        }
                        torn_tail = true;
                        break;
                    }
                    Frame::Undecodable { seq, error } => {
                        let seq = seq.map_or("unknown".to_string(), |s| s.to_string());
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "{}: the record at byte {good_bytes} (seq {seq}) is intact but \
                                 does not decode ({error}); refusing to drop it and the \
                                 records after it",
                                journal_path.display()
                            ),
                        ));
                    }
                }
            }
        }

        // 3. Truncate away the torn tail so appends resume cleanly framed.
        let created = !journal_path.exists();
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&journal_path)?;
        if created {
            sync_dir(&dir)?;
        }
        let actual_len = file.metadata()?.len();
        if torn_tail || good_bytes < actual_len {
            file.set_len(good_bytes)?;
        }

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
            active: Mutex::new(Active {
                file: Arc::new(file),
                len: good_bytes,
                ends,
                snapshot_bytes,
            }),
            seq: AtomicU64::new(max_seq),
            sealed: AtomicBool::new(false),
            snapshot_gate: Mutex::new(()),
            installed: AtomicU64::new(last_seq),
            compactions: AtomicU64::new(0),
            wake_lock: Mutex::new(()),
            wake: Condvar::new(),
            #[cfg(test)]
            install_hook: std::sync::OnceLock::new(),
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
    /// The record is encoded before the lock is taken, and the lock covers
    /// the write, not the `fsync`: concurrent appends write while this one
    /// waits on the disk, and the file system can commit their syncs
    /// together.
    ///
    /// # Errors
    ///
    /// Fails if the journal has been [sealed](Journal::seal) or on I/O
    /// errors; the caller must NOT acknowledge the mutation in that case.
    pub fn append(&self, record: &Record) -> io::Result<u64> {
        if self.sealed.load(Ordering::SeqCst) {
            return Err(io::Error::other("journal sealed"));
        }
        let body = serde_json::to_string(record)
            .map_err(|e| io::Error::other(format!("journal encode: {e}")))?;
        let (seq, written_to, due) = {
            let mut active = crate::sync::lock(&self.active);
            // Re-check under the lock: `seal` waits on this lock as a
            // barrier, so no append may start writing once it has returned.
            if self.sealed.load(Ordering::SeqCst) {
                return Err(io::Error::other("journal sealed"));
            }
            // Sequence numbers are assigned under the lock so on-disk order
            // matches sequence order. A failed write takes neither a seq nor
            // a byte: the next record overwrites whatever it left.
            let seq = self.seq.load(Ordering::SeqCst) + 1;
            let json = format!("{{\"seq\":{seq},\"record\":{body}}}");
            let line = format!("{} {:08x} {}\n", json.len(), crc32(json.as_bytes()), json);
            active.file.write_all_at(line.as_bytes(), active.len)?;
            active.len += line.len() as u64;
            let end = active.len;
            active.ends.push((seq, end));
            self.seq.store(seq, Ordering::SeqCst);
            (seq, Arc::clone(&active.file), active.compaction_due())
        };
        if due {
            self.wake_compactor();
        }
        // `written_to` is the file the record went to, even if an install
        // swaps the journal before this sync: syncing it makes the record
        // durable there, and the install syncs its own copy of every record
        // it carries over (or covers it by the snapshot). Syncing also
        // covers every record written before this one.
        written_to.sync_data()?;
        Ok(seq)
    }

    /// Whether the journal holds max([`COMPACTION_FLOOR_BYTES`], last
    /// snapshot size) bytes.
    pub(crate) fn compaction_due(&self) -> bool {
        crate::sync::lock(&self.active).compaction_due()
    }

    /// Bytes journaled since the last compaction: the journal's length.
    #[cfg(test)]
    pub(crate) fn journal_bytes(&self) -> u64 {
        crate::sync::lock(&self.active).len
    }

    /// Snapshots this journal has installed since it was opened.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::SeqCst)
    }

    /// Blocks until a compaction is [due](Journal::compaction_due) and
    /// `not_before` has passed, or until the journal is sealed. Returns
    /// `false` once sealed — the compaction thread's cue to exit.
    pub(crate) fn wait_compaction_due(&self, not_before: Instant) -> bool {
        let mut guard = crate::sync::lock(&self.wake_lock);
        loop {
            if self.sealed.load(Ordering::SeqCst) {
                return false;
            }
            let now = Instant::now();
            guard = if now < not_before {
                self.wake
                    .wait_timeout(guard, not_before - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            } else if self.compaction_due() {
                return true;
            } else {
                self.wake
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner)
            };
        }
    }

    fn wake_compactor(&self) {
        let _guard = crate::sync::lock(&self.wake_lock);
        self.wake.notify_all();
    }

    /// Stops all future appends — every later [`append`](Journal::append)
    /// fails. Models the instant of a crash for fault injection: writes
    /// from stale worker threads of a dead incarnation must not land in a
    /// file now owned by its successor. Also wakes the compaction thread so
    /// it exits. Blocks until any in-flight append or snapshot install has
    /// finished, so when `seal` returns the files are quiescent and safe
    /// for a successor to reopen.
    pub fn seal(&self) {
        self.sealed.store(true, Ordering::SeqCst);
        self.wake_compactor();
        // Barriers, in install lock order: an install past its sealed
        // check commits before we return; an append past its check has
        // written before we return.
        drop(crate::sync::lock(&self.snapshot_gate));
        drop(crate::sync::lock(&self.active));
    }

    /// Current sequence number (the seq of the most recent append).
    pub fn current_seq(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Writes `snapshot` atomically, then trims the journal down to the
    /// records the snapshot does NOT cover (`seq > snapshot.last_seq`).
    /// Records appended after the document was captured are preserved
    /// verbatim — an install must never discard an acknowledged mutation
    /// that only the journal knows about. See the module docs for the
    /// order of the steps and what a crash between them leaves.
    ///
    /// Appends wait only while the uncovered records are copied and the
    /// trimmed journal is swapped in, not while the snapshot is written.
    /// Concurrent installs serialize on `snapshot_gate`, and a document
    /// older than the installed one is dropped (Ok) rather than rolling
    /// the snapshot backwards.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a failed install leaves the journal intact.
    pub fn install_snapshot(&self, snapshot: &SnapshotDoc) -> io::Result<()> {
        let _gate = crate::sync::lock(&self.snapshot_gate);
        if self.sealed.load(Ordering::SeqCst) {
            return Err(io::Error::other("journal sealed"));
        }
        if snapshot.last_seq < self.installed.load(Ordering::SeqCst) {
            return Ok(()); // raced a newer install; nothing to do
        }
        let tmp = self.dir.join("snapshot.json.tmp");
        let snapshot_bytes = {
            let mut out = BufWriter::new(File::create(&tmp)?);
            snapshot.write_json(&mut out)?;
            let file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
            file.sync_data()?;
            file.metadata()?.len()
        };
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        // From here on no older document may replace this one, whatever
        // happens to the rest of the install.
        self.installed.store(snapshot.last_seq, Ordering::SeqCst);
        sync_dir(&self.dir)?;
        #[cfg(test)]
        self.reached(InstallStage::SnapshotRenamed);

        let journal_tmp = self.dir.join("journal.ndjson.tmp");
        let replaced = {
            let mut active = crate::sync::lock(&self.active);
            let covered = active
                .ends
                .partition_point(|&(seq, _)| seq <= snapshot.last_seq);
            let cut = covered.checked_sub(1).map_or(0, |i| active.ends[i].1);
            let mut tail = vec![0; (active.len - cut) as usize];
            active.file.read_exact_at(&mut tail, cut)?;
            let replacement = OpenOptions::new()
                .create(true)
                .read(true)
                .write(true)
                .truncate(true)
                .open(&journal_tmp)?;
            replacement.write_all_at(&tail, 0)?;
            replacement.sync_data()?;
            fs::rename(&journal_tmp, self.dir.join(JOURNAL_FILE))?;
            // The name now points at the replacement, so appends must go
            // there, but not before the new name is durable: sync the
            // directory before releasing the lock.
            active.ends.drain(..covered);
            for (_, end) in &mut active.ends {
                *end -= cut;
            }
            active.len -= cut;
            active.snapshot_bytes = snapshot_bytes;
            let replaced = std::mem::replace(&mut active.file, Arc::new(replacement));
            sync_dir(&self.dir)?;
            replaced
        };
        #[cfg(test)]
        self.reached(InstallStage::JournalSwapped);
        drop(replaced);
        self.compactions.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Runs `hook` at each [`InstallStage`] of every later install.
    #[cfg(test)]
    pub(crate) fn set_install_hook(&self, hook: impl Fn(InstallStage) + Send + Sync + 'static) {
        assert!(
            self.install_hook.set(Box::new(hook)).is_ok(),
            "install hook set twice"
        );
    }

    #[cfg(test)]
    fn reached(&self, stage: InstallStage) {
        if let Some(hook) = self.install_hook.get() {
            hook(stage);
        }
    }
}

/// Makes the renames and creations in `dir` durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// The offset of the first intact frame among the lines left in `reader`,
/// which starts at byte `offset` of the journal.
fn next_intact_frame(reader: &mut impl BufRead, mut offset: u64) -> io::Result<Option<u64>> {
    let mut line = Vec::new();
    loop {
        line.clear();
        let n = reader.read_until(b'\n', &mut line)?;
        if n == 0 {
            return Ok(None);
        }
        if intact_json(&line).is_some() {
            return Ok(Some(offset));
        }
        offset += n as u64;
    }
}

/// What one journal line holds.
enum Frame {
    /// An intact record and its seq.
    Record(u64, Record),
    /// A wrong length, checksum or framing, or no final newline: the torn
    /// tail of a crash mid-append if no intact frame follows.
    Torn,
    /// Length and checksum match, but the record does not decode.
    Undecodable {
        /// The envelope's seq, when it reads.
        seq: Option<u64>,
        /// Why the record does not decode.
        error: String,
    },
}

/// The JSON of a `<len> <crc32-hex> <json>\n` line whose length and
/// checksum match, or `None` for a damaged or unterminated frame.
fn intact_json(line: &[u8]) -> Option<&str> {
    let body = std::str::from_utf8(line.strip_suffix(b"\n")?).ok()?;
    let (len_str, rest) = body.split_once(' ')?;
    let (crc_str, json) = rest.split_once(' ')?;
    let len: usize = len_str.parse().ok()?;
    let crc = u32::from_str_radix(crc_str, 16).ok()?;
    (json.len() == len && crc32(json.as_bytes()) == crc).then_some(json)
}

/// Parses one journal line, verifying length and checksum before decoding
/// the record.
fn parse_frame(line: &[u8]) -> Frame {
    let Some(json) = intact_json(line) else {
        return Frame::Torn;
    };
    let envelope: Value = match serde_json::from_str(json) {
        Ok(envelope) => envelope,
        Err(e) => {
            return Frame::Undecodable {
                seq: None,
                error: e.to_string(),
            }
        }
    };
    let seq = serde::get_field(&envelope, "seq")
        .and_then(u64::from_value)
        .ok();
    match (
        seq,
        serde::get_field(&envelope, "record").and_then(Record::from_value),
    ) {
        (Some(seq), Ok(record)) => Frame::Record(seq, record),
        (seq, Err(e)) => Frame::Undecodable {
            seq,
            error: e.to_string(),
        },
        (None, Ok(_)) => Frame::Undecodable {
            seq: None,
            error: "no numeric seq".to_string(),
        },
    }
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
    /// Writes the bytes of `serde_json::to_string(self)`, encoding one
    /// graph or job at a time, so the encoding never holds more than one
    /// of them.
    fn write_json(&self, out: &mut impl Write) -> io::Result<()> {
        fn list<T: Serialize>(out: &mut impl Write, items: &[T]) -> io::Result<()> {
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_all(b",")?;
                }
                let json = serde_json::to_string(item)
                    .map_err(|e| io::Error::other(format!("snapshot encode: {e}")))?;
                out.write_all(json.as_bytes())?;
            }
            Ok(())
        }
        write!(out, "{{\"last_seq\":{},\"graphs\":[", self.last_seq)?;
        list(out, &self.graphs)?;
        out.write_all(b"],\"jobs\":[")?;
        list(out, &self.jobs)?;
        out.write_all(b"]}")
    }

    /// The replay state the snapshot describes; fails on a graph whose
    /// edges do not build.
    fn into_state(self) -> Result<ReplayState, String> {
        let graphs = self
            .graphs
            .into_iter()
            .map(|g| {
                let graph = Graph::from_edges(g.n, g.edges.iter().copied())
                    .map_err(|e| format!("graph {}: {e}", g.id))?;
                Ok(RecoveredGraph {
                    id: g.id,
                    name: g.name,
                    source: g.source,
                    graph,
                    version: g.version,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(ReplayState {
            graphs,
            jobs: self.jobs,
        })
    }
}

/// A record whose journal line at `seq` is exactly `line_len` bytes: a
/// finish record for job 0, which replay ignores, padded through its error.
#[cfg(test)]
pub(crate) fn record_of_len(seq: u64, line_len: u64) -> Record {
    let padded = |pad: usize| Record::JobFinished {
        id: 0,
        status: JobStatus::Failed,
        outcome: None,
        error: Some("x".repeat(pad)),
        mis: None,
    };
    let body = serde_json::to_string(&padded(0)).unwrap();
    let base = format!("{{\"seq\":{seq},\"record\":{body}}}").len() as u64;
    // A line is `<len> <crc32-hex> <json>\n`: the digits of `len`, 11 more
    // bytes, and the JSON.
    let digits = |x: u64| x.to_string().len() as u64;
    let json = (1..20)
        .filter_map(|d| line_len.checked_sub(11 + d).filter(|&j| digits(j) == d))
        .find(|&j| j >= base)
        .unwrap_or_else(|| panic!("no record line is {line_len} bytes at seq {seq}"));
    padded((json - base) as usize)
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;
    use std::thread;

    use super::*;
    use crate::api::GraphSource;
    use mis_sim::spec::GraphSpec;

    fn submitted(id: u64) -> Record {
        Record::JobSubmitted {
            id,
            request: JobRequest::new(1, "two-state"),
        }
    }

    /// The state after `submitted(id)` for each of `ids`, covering `last_seq`.
    fn queued_doc(last_seq: u64, ids: impl IntoIterator<Item = u64>) -> SnapshotDoc {
        SnapshotDoc {
            last_seq,
            graphs: Vec::new(),
            jobs: ids
                .into_iter()
                .map(|id| SnapshotJob {
                    id,
                    request: JobRequest::new(1, "two-state"),
                    status: JobStatus::Queued,
                    outcome: None,
                    error: None,
                    mis: None,
                })
                .collect(),
        }
    }

    fn job_ids(recovery: &Recovery) -> Vec<u64> {
        recovery.jobs.iter().map(|j| j.id).collect()
    }

    /// Copies the snapshot and journal in `from` into a fresh `to`, as a
    /// crash at this instant would leave them.
    fn copy_files(from: &Path, to: &Path) {
        let _ = fs::remove_dir_all(to);
        fs::create_dir_all(to).unwrap();
        for name in [SNAPSHOT_FILE, JOURNAL_FILE] {
            if from.join(name).exists() {
                fs::copy(from.join(name), to.join(name)).unwrap();
            }
        }
    }

    #[test]
    fn streamed_snapshot_bytes_equal_the_tree_encoding() {
        let escapes = "quote \" backslash \\ newline \n tab \t bell \u{7} é";
        let outcome = JobOutcome {
            rounds: 17,
            stabilized: true,
            valid_mis: true,
            mis_size: 2,
            n: 5,
            m: 2,
            random_bits: 123,
            states_per_vertex: usize::MAX,
            mutations_applied: 1,
            wall_micros: 42,
        };
        // Odd ids set every optional field, even ids none of them.
        let job = |id: u64| {
            let set = id % 2 == 1;
            SnapshotJob {
                id,
                request: JobRequest::new(id % 3, if set { escapes } else { "two-state" }),
                status: if set {
                    JobStatus::Completed
                } else {
                    JobStatus::Queued
                },
                outcome: set.then(|| outcome.clone()),
                error: set.then(|| escapes.to_string()),
                mis: set.then(|| (0..id as usize).collect()),
            }
        };
        let graph = |id: u64| SnapshotGraph {
            id,
            name: escapes.into(),
            source: "upload(n=4,m=3)".into(),
            n: 4,
            edges: vec![(0, 1), (1, 2), (2, 3)],
            version: id,
        };
        for (graphs, jobs) in [(0, 0), (1, 1), (2, 500)] {
            let doc = SnapshotDoc {
                last_seq: 7 * jobs,
                graphs: (1..=graphs).map(graph).collect(),
                jobs: (1..=jobs).map(job).collect(),
            };
            let mut streamed = Vec::new();
            doc.write_json(&mut streamed).unwrap();
            assert_eq!(
                String::from_utf8(streamed).unwrap(),
                serde_json::to_string(&doc).unwrap(),
                "{jobs} jobs"
            );
        }
    }

    #[test]
    fn compaction_is_due_exactly_at_max_of_the_floor_and_the_last_snapshot() {
        // No snapshot yet: the floor is the threshold.
        for (tag, len) in [
            ("floor-below", COMPACTION_FLOOR_BYTES - 1),
            ("floor-at", COMPACTION_FLOOR_BYTES),
        ] {
            let dir = tmpdir(tag);
            let (journal, _) = Journal::open(&dir).unwrap();
            journal.append(&record_of_len(1, len)).unwrap();
            assert_eq!(journal.journal_bytes(), len);
            assert_eq!(journal.compaction_due(), len == COMPACTION_FLOOR_BYTES);
            let _ = fs::remove_dir_all(&dir);
        }
        // After a snapshot larger than the floor, its size is the threshold,
        // also for the journal a restart opens.
        let big = SnapshotDoc {
            last_seq: 0,
            graphs: vec![SnapshotGraph {
                id: 1,
                name: "path".into(),
                source: "upload".into(),
                n: 100_001,
                edges: (0..100_000).map(|i| (i, i + 1)).collect(),
                version: 1,
            }],
            jobs: Vec::new(),
        };
        let snapshot_bytes = serde_json::to_string(&big).unwrap().len() as u64;
        assert!(snapshot_bytes > COMPACTION_FLOOR_BYTES);
        for (tag, len) in [
            ("snap-below", snapshot_bytes - 1),
            ("snap-at", snapshot_bytes),
        ] {
            let dir = tmpdir(tag);
            let (journal, _) = Journal::open(&dir).unwrap();
            journal.install_snapshot(&big).unwrap();
            assert_eq!(journal.journal_bytes(), 0);
            journal.append(&record_of_len(1, len)).unwrap();
            assert_eq!(journal.compaction_due(), len == snapshot_bytes);
            drop(journal);
            let (journal, _) = Journal::open(&dir).unwrap();
            assert_eq!(journal.journal_bytes(), len);
            assert_eq!(journal.compaction_due(), len == snapshot_bytes);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn appends_racing_a_compaction_all_replay() {
        let dir = tmpdir("race");
        let (journal, _) = Journal::open(&dir).unwrap();
        for id in 1..=10 {
            journal.append(&submitted(id)).unwrap();
        }
        let doc = queued_doc(10, 1..=10);
        // Four appenders land half their records while the install is held
        // after its snapshot rename, and the other half racing its swap.
        let barrier = Arc::new(Barrier::new(5));
        let held = Arc::clone(&barrier);
        journal.set_install_hook(move |stage| {
            if stage == InstallStage::SnapshotRenamed {
                held.wait();
            }
        });
        thread::scope(|scope| {
            for t in 1..=4u64 {
                let (journal, barrier) = (&journal, &barrier);
                scope.spawn(move || {
                    for i in 0..50 {
                        if i == 25 {
                            barrier.wait();
                        }
                        journal.append(&submitted(100 * t + i)).unwrap();
                    }
                });
            }
            journal.install_snapshot(&doc).unwrap();
        });
        assert_eq!((journal.current_seq(), journal.compactions()), (210, 1));
        let journal_bytes = journal.journal_bytes();
        drop(journal);
        assert_eq!(
            fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(),
            journal_bytes
        );
        let (journal, recovery) = Journal::open(&dir).unwrap();
        assert!(!recovery.torn_tail);
        assert_eq!(recovery.replayed, 200);
        let mut expected: Vec<u64> = (1..=10)
            .chain((1..=4).flat_map(|t| (0..50).map(move |i| 100 * t + i)))
            .collect();
        expected.sort_unstable();
        assert_eq!(job_ids(&recovery), expected);
        assert_eq!(journal.current_seq(), 210);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashes_inside_a_compaction_replay_the_acknowledged_state() {
        let dir = tmpdir("crash-points");
        let renamed = tmpdir("crash-renamed");
        let swapped = tmpdir("crash-swapped");
        let (journal, _) = Journal::open(&dir).unwrap();
        for id in 1..=5 {
            journal.append(&submitted(id)).unwrap();
        }
        let doc = queued_doc(5, 1..=5);
        // Acknowledged after the capture: only the journal has these.
        for id in 6..=8 {
            journal.append(&submitted(id)).unwrap();
        }
        let (from, at_rename, at_swap) = (dir.clone(), renamed.clone(), swapped.clone());
        journal.set_install_hook(move |stage| match stage {
            InstallStage::SnapshotRenamed => copy_files(&from, &at_rename),
            InstallStage::JournalSwapped => copy_files(&from, &at_swap),
        });
        journal.install_snapshot(&doc).unwrap();
        drop(journal);
        // A crash after the snapshot rename leaves the full journal beside
        // the new snapshot; one after the swap, the trimmed journal.
        for (crashed, journal_records) in [(&renamed, 8), (&swapped, 3), (&dir, 3)] {
            let text = fs::read_to_string(crashed.join(JOURNAL_FILE)).unwrap();
            assert_eq!(text.lines().count(), journal_records, "{crashed:?}");
            let (journal, recovery) = Journal::open(crashed).unwrap();
            assert!(!recovery.torn_tail);
            assert_eq!(recovery.replayed, 3);
            assert_eq!(job_ids(&recovery), (1..=8).collect::<Vec<_>>());
            assert_eq!(journal.append(&submitted(9)).unwrap(), 9);
            let _ = fs::remove_dir_all(crashed);
        }
    }

    #[test]
    fn an_intact_record_that_does_not_decode_stops_open_and_keeps_the_file() {
        let dir = tmpdir("undecodable");
        fs::create_dir_all(&dir).unwrap();
        let frame = |seq: u64, record: &str| {
            let json = format!("{{\"seq\":{seq},\"record\":{record}}}");
            format!("{} {:08x} {json}\n", json.len(), crc32(json.as_bytes()))
        };
        let submitted = |id: u64| {
            format!(
                "{{\"type\":\"job_submitted\",\"id\":{id},\"request\":\
                 {{\"graph\":1,\"algorithm\":\"two-state\"}}}}"
            )
        };
        let first = frame(1, &submitted(1));
        let bytes = format!(
            "{first}{}{}",
            frame(2, "{\"type\":\"graph_renamed\",\"id\":1,\"name\":\"b\"}"),
            frame(3, &submitted(2))
        );
        let path = dir.join(JOURNAL_FILE);
        fs::write(&path, &bytes).unwrap();
        let error = Journal::open(&dir).err().expect("open must refuse");
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        let message = error.to_string();
        assert!(
            message.contains("seq 2") && message.contains(&format!("byte {}", first.len())),
            "{message}"
        );
        assert_eq!(fs::read_to_string(&path).unwrap(), bytes);
        let _ = fs::remove_dir_all(&dir);
    }

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

    /// Flipping any one byte of a three-record journal (XOR 0x20 or 0x80)
    /// has exactly one of three outcomes: a CRC hex letter that changes case
    /// goes unseen; damage in the last line is a torn tail that keeps every
    /// frame before it; damage before it fails the open with `InvalidData`
    /// and leaves the file as it was. No intact record is ever dropped.
    #[test]
    fn a_flipped_byte_never_drops_an_intact_record() {
        let dir = tmpdir("flip");
        {
            let (journal, _) = Journal::open(&dir).unwrap();
            for id in 1..=3 {
                journal
                    .append(&Record::GraphCreated {
                        id,
                        name: format!("g{id}"),
                        create: upload(3, vec![(0, 1), (1, 2)]),
                    })
                    .unwrap();
            }
        }
        let path = dir.join(JOURNAL_FILE);
        let original = fs::read(&path).unwrap();
        let mut ends = Vec::new();
        for line in original.split_inclusive(|&b| b == b'\n') {
            ends.push(ends.last().copied().unwrap_or(0) + line.len());
        }
        assert_eq!(ends.len(), 3);
        let graph_ids =
            |recovery: &Recovery| -> Vec<u64> { recovery.graphs.iter().map(|g| g.id).collect() };
        for at in 0..original.len() {
            for mask in [0x20u8, 0x80] {
                let ctx = format!("byte {at} ^ {mask:#x}");
                let mut damaged = original.clone();
                damaged[at] ^= mask;
                fs::write(&path, &damaged).unwrap();
                // `<len> <crc32-hex> <json>`: the CRC takes the 8 bytes after
                // the first space of the line.
                let start = ends.iter().copied().filter(|&e| e <= at).max().unwrap_or(0);
                let crc = start + original[start..].iter().position(|&b| b == b' ').unwrap() + 1;
                let unseen = (crc..crc + 8).contains(&at)
                    && mask == 0x20
                    && original[at].is_ascii_lowercase();
                // A flipped newline merges its frame into the next line.
                let last_line = damaged[..damaged.len() - 1]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |i| i + 1);
                match Journal::open(&dir) {
                    Ok((_, recovery)) if !recovery.torn_tail => {
                        assert!(unseen, "{ctx}: the damage went unseen");
                        assert_eq!(graph_ids(&recovery), [1, 2, 3], "{ctx}");
                    }
                    Ok((_, recovery)) => {
                        assert!(!unseen && at >= last_line, "{ctx}: torn tail");
                        let kept = ends.iter().filter(|&&e| e <= last_line).count();
                        let ids: Vec<u64> = (1..=kept as u64).collect();
                        assert_eq!(graph_ids(&recovery), ids, "{ctx}");
                        let len = fs::metadata(&path).unwrap().len() as usize;
                        assert_eq!(len, last_line, "{ctx}: truncated to the kept frames");
                    }
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{ctx}: {e}");
                        assert!(!unseen && at < last_line, "{ctx}: {e}");
                        assert_eq!(fs::read(&path).unwrap(), damaged, "{ctx}: file changed");
                    }
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flipping any one byte of a snapshot (XOR 0x20 or 0x80) never drops a
    /// record it covers: the open either fails with `InvalidData` and leaves
    /// both files as they were, or recovers every graph id, version and edge
    /// set of the undamaged open. (A case flip inside a name or a source
    /// label goes unseen: the snapshot has no checksum.) A leftover
    /// `snapshot.json.tmp` changes neither outcome.
    #[test]
    fn a_flipped_snapshot_byte_never_drops_a_covered_record() {
        let dir = tmpdir("snap-flip");
        {
            let (journal, _) = Journal::open(&dir).unwrap();
            let created = |id| Record::GraphCreated {
                id,
                name: format!("g{id}"),
                create: upload(3, vec![(0, 1), (1, 2)]),
            };
            journal.append(&created(1)).unwrap();
            let snapshot = SnapshotDoc {
                last_seq: journal.current_seq(),
                graphs: vec![SnapshotGraph {
                    id: 1,
                    name: "g1".into(),
                    source: "upload(n=3,m=2)".into(),
                    n: 3,
                    edges: vec![(0, 1), (1, 2)],
                    version: 1,
                }],
                jobs: Vec::new(),
            };
            journal.install_snapshot(&snapshot).unwrap();
            journal.append(&created(2)).unwrap();
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
        }
        fs::write(dir.join("snapshot.json.tmp"), "{\"last_seq\":").unwrap();
        type Graphs = Vec<(u64, u64, Vec<(VertexId, VertexId)>)>;
        let graphs = |recovery: &Recovery| -> Graphs {
            let edges = |g: &RecoveredGraph| g.graph.edges().collect();
            recovery
                .graphs
                .iter()
                .map(|g| (g.id, g.version, edges(g)))
                .collect()
        };
        let expected = graphs(&Journal::open(&dir).unwrap().1);
        let versions: Vec<(u64, u64)> = expected.iter().map(|g| (g.0, g.1)).collect();
        assert_eq!(versions, [(1, 2), (2, 1)]);
        let (snapshot_path, journal_path) = (dir.join(SNAPSHOT_FILE), dir.join(JOURNAL_FILE));
        let original = fs::read(&snapshot_path).unwrap();
        let journal_bytes = fs::read(&journal_path).unwrap();
        let mut refused = 0;
        for at in 0..original.len() {
            for mask in [0x20u8, 0x80] {
                let ctx = format!("byte {at} ({:?}) ^ {mask:#x}", char::from(original[at]));
                let mut damaged = original.clone();
                damaged[at] ^= mask;
                fs::write(&snapshot_path, &damaged).unwrap();
                match Journal::open(&dir) {
                    Ok((_, recovery)) => assert_eq!(graphs(&recovery), expected, "{ctx}"),
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{ctx}: {e}");
                        assert_eq!(fs::read(&snapshot_path).unwrap(), damaged, "{ctx}");
                        assert_eq!(fs::read(&journal_path).unwrap(), journal_bytes, "{ctx}");
                        refused += 1;
                    }
                }
            }
        }
        // Every 0x80 flip leaves invalid UTF-8.
        assert!(
            refused >= original.len(),
            "{refused} of {} refused",
            original.len()
        );
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
