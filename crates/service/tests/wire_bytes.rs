//! Pins the JSON bytes of every journaled, snapshotted and spec type: the
//! journal, the snapshot file, HTTP bodies and spec files written by one
//! build must read back, byte for byte, in the next. Each literal below is
//! what the serializers produced when it was recorded; a change to any of
//! them is a wire-format change.

use std::fs;

use mis_core::init::InitStrategy;
use mis_core::{ByzantineStrategy, ExecutionMode, RoundStrategy};
use mis_service::api::{
    CreateGraphRequest, GraphSource, JobOutcome, JobRequest, JobStatus, PatchEdgesRequest,
};
use mis_service::journal::{crc32, Journal, Record, SnapshotDoc, SnapshotGraph, SnapshotJob};
use mis_sim::spec::{
    ByzantineSpec, ChurnScenario, ChurnSpec, ExperimentSpec, FaultSpec, GraphSpec, SchedulerSpec,
    VictimSelection,
};
use serde::{Deserialize, Serialize};

/// Asserts that `value` serializes to `literal` and `literal` parses back
/// to `value`.
fn check<T>(value: &T, literal: &str)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    assert_eq!(serde_json::to_string(value).unwrap(), literal);
    assert_eq!(&serde_json::from_str::<T>(literal).unwrap(), value);
}

/// A job request with every field off its default.
fn job_request() -> JobRequest {
    JobRequest {
        graph: 3,
        algorithm: "three-color".into(),
        seed: 11,
        max_rounds: 500,
        scheduler: SchedulerSpec::RandomSubset { p: 0.5 },
        strategy: RoundStrategy::Dense,
        execution: ExecutionMode::Parallel { threads: 2 },
        init: InitStrategy::AllBlack,
        record_trace: true,
        linger_micros: 250,
    }
}

const JOB_REQUEST: &str = r#"{"graph":3,"algorithm":"three-color","seed":11,"max_rounds":500,"scheduler":{"RandomSubset":{"p":0.5}},"strategy":"dense","execution":{"Parallel":{"threads":2}},"init":"AllBlack","record_trace":true,"linger_micros":250}"#;

fn patch() -> PatchEdgesRequest {
    PatchEdgesRequest {
        add: vec![(0, 2)],
        remove: vec![(0, 1)],
        add_vertices: 1,
        detach: vec![3],
    }
}

const PATCH: &str = r#"{"add":[[0,2]],"remove":[[0,1]],"add_vertices":1,"detach":[3]}"#;

fn outcome() -> JobOutcome {
    JobOutcome {
        rounds: 17,
        stabilized: true,
        valid_mis: true,
        mis_size: 2,
        n: 5,
        m: 2,
        random_bits: 123,
        states_per_vertex: 3,
        mutations_applied: 1,
        wall_micros: 42,
    }
}

/// One record of each variant (two of `JobFinished`), in an order that
/// replays cleanly, with the bytes the journal stores for each.
fn records() -> Vec<(Record, &'static str)> {
    vec![
        (
            Record::GraphCreated {
                id: 1,
                name: "path".into(),
                create: CreateGraphRequest {
                    name: Some("path".into()),
                    source: GraphSource::Edges {
                        n: 4,
                        edges: vec![(0, 1), (1, 2), (2, 3)],
                    },
                    seed: 0,
                },
            },
            r#"{"type":"graph_created","id":1,"name":"path","create":{"name":"path","n":4,"edges":[[0,1],[1,2],[2,3]],"seed":0}}"#,
        ),
        (
            Record::GraphPatched {
                id: 1,
                version: 2,
                patch: patch(),
            },
            r#"{"type":"graph_patched","id":1,"version":2,"patch":{"add":[[0,2]],"remove":[[0,1]],"add_vertices":1,"detach":[3]}}"#,
        ),
        (
            Record::JobSubmitted {
                id: 1,
                request: job_request(),
            },
            r#"{"type":"job_submitted","id":1,"request":{"graph":3,"algorithm":"three-color","seed":11,"max_rounds":500,"scheduler":{"RandomSubset":{"p":0.5}},"strategy":"dense","execution":{"Parallel":{"threads":2}},"init":"AllBlack","record_trace":true,"linger_micros":250}}"#,
        ),
        (
            Record::JobStarted { id: 1 },
            r#"{"type":"job_started","id":1}"#,
        ),
        (
            Record::JobFinished {
                id: 1,
                status: JobStatus::Completed,
                outcome: Some(outcome()),
                error: Some("none".into()),
                mis: Some(vec![0, 2]),
            },
            r#"{"type":"job_finished","id":1,"status":"Completed","outcome":{"rounds":17,"stabilized":true,"valid_mis":true,"mis_size":2,"n":5,"m":2,"random_bits":123,"states_per_vertex":3,"mutations_applied":1,"wall_micros":42},"error":"none","mis":[0,2]}"#,
        ),
        (
            Record::JobFinished {
                id: 2,
                status: JobStatus::Failed,
                outcome: None,
                error: None,
                mis: None,
            },
            r#"{"type":"job_finished","id":2,"status":"Failed","outcome":null,"error":null,"mis":null}"#,
        ),
        (
            Record::GraphDeleted { id: 1 },
            r#"{"type":"graph_deleted","id":1}"#,
        ),
    ]
}

#[test]
fn journal_records_keep_their_bytes() {
    for (record, literal) in records() {
        check(&record, literal);
    }
    // The optional fields of a finished job may be absent altogether.
    assert_eq!(
        serde_json::from_str::<Record>(r#"{"type":"job_finished","id":1,"status":"Failed"}"#)
            .unwrap(),
        Record::JobFinished {
            id: 1,
            status: JobStatus::Failed,
            outcome: None,
            error: None,
            mis: None,
        }
    );
}

#[test]
fn request_bodies_keep_their_bytes() {
    check(&job_request(), JOB_REQUEST);
    check(&patch(), PATCH);
}

#[test]
fn snapshot_document_keeps_its_bytes() {
    let snapshot = SnapshotDoc {
        last_seq: 9,
        graphs: vec![SnapshotGraph {
            id: 1,
            name: "path".into(),
            source: "upload(n=4,m=3)".into(),
            n: 4,
            edges: vec![(1, 2), (2, 3)],
            version: 2,
        }],
        jobs: vec![SnapshotJob {
            id: 1,
            request: job_request(),
            status: JobStatus::Completed,
            outcome: Some(outcome()),
            error: None,
            mis: Some(vec![0, 2]),
        }],
    };
    check(
        &snapshot,
        r#"{"last_seq":9,"graphs":[{"id":1,"name":"path","source":"upload(n=4,m=3)","n":4,"edges":[[1,2],[2,3]],"version":2}],"jobs":[{"id":1,"request":{"graph":3,"algorithm":"three-color","seed":11,"max_rounds":500,"scheduler":{"RandomSubset":{"p":0.5}},"strategy":"dense","execution":{"Parallel":{"threads":2}},"init":"AllBlack","record_trace":true,"linger_micros":250},"status":"Completed","outcome":{"rounds":17,"stabilized":true,"valid_mis":true,"mis_size":2,"n":5,"m":2,"random_bits":123,"states_per_vertex":3,"mutations_applied":1,"wall_micros":42},"error":null,"mis":[0,2]}]}"#,
    );
    // A job's optional fields may be absent altogether.
    assert_eq!(
        serde_json::from_str::<SnapshotJob>(
            r#"{"id":1,"request":{"graph":1,"algorithm":"two-state"},"status":"Queued"}"#
        )
        .unwrap(),
        SnapshotJob {
            id: 1,
            request: JobRequest::new(1, "two-state"),
            status: JobStatus::Queued,
            outcome: None,
            error: None,
            mis: None,
        }
    );
}

#[test]
fn experiment_specs_keep_their_bytes() {
    let fault = FaultSpec {
        at_round: 50,
        fraction: 0.25,
        victims: vec![5, 9],
    };
    let churn = ChurnSpec {
        scenario: ChurnScenario::JoinLeave { join: 5, leave: 3 },
        at_round: 100,
        bursts: 4,
    };
    let byzantine = ByzantineSpec {
        strategy: ByzantineStrategy::Spoofer,
        selection: VictimSelection::Targeted { ids: vec![3, 1] },
        seed: 42,
        resample: true,
    };
    check(&fault, r#"{"at_round":50,"fraction":0.25,"victims":[5,9]}"#);
    check(
        &churn,
        r#"{"scenario":{"JoinLeave":{"join":5,"leave":3}},"at_round":100,"bursts":4}"#,
    );
    check(
        &byzantine,
        r#"{"strategy":"Spoofer","selection":{"Targeted":{"ids":[3,1]}},"seed":42,"resample":true}"#,
    );
    let spec = ExperimentSpec {
        name: "wire".into(),
        graph: GraphSpec::Gnp { n: 10, p: 0.5 },
        algorithm: "three-color".into(),
        init: InitStrategy::AllBlack,
        execution: ExecutionMode::Parallel { threads: 8 },
        strategy: RoundStrategy::Dense,
        scheduler: SchedulerSpec::RandomSubset { p: 0.5 },
        fault: Some(fault),
        churn: Some(churn),
        byzantine: Some(byzantine),
        trials: 3,
        max_rounds: 100,
        base_seed: 1,
        record_trace: true,
    };
    check(
        &spec,
        r#"{"name":"wire","graph":{"Gnp":{"n":10,"p":0.5}},"algorithm":"three-color","init":"AllBlack","execution":{"Parallel":{"threads":8}},"strategy":"dense","scheduler":{"RandomSubset":{"p":0.5}},"fault":{"at_round":50,"fraction":0.25,"victims":[5,9]},"churn":{"scenario":{"JoinLeave":{"join":5,"leave":3}},"at_round":100,"bursts":4},"byzantine":{"strategy":"Spoofer","selection":{"Targeted":{"ids":[3,1]}},"seed":42,"resample":true},"trials":3,"max_rounds":100,"base_seed":1,"record_trace":true}"#,
    );
}

#[test]
fn a_journal_framed_from_the_pinned_records_replays_whole() {
    let dir = std::env::temp_dir().join(format!("mis-wire-bytes-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let records = records();
    let mut framed = String::new();
    for (seq, (_, literal)) in records.iter().enumerate() {
        let json = format!("{{\"seq\":{},\"record\":{literal}}}", seq + 1);
        framed.push_str(&format!(
            "{} {:08x} {json}\n",
            json.len(),
            crc32(json.as_bytes())
        ));
    }
    fs::write(dir.join("journal.ndjson"), framed).unwrap();

    let (journal, recovery) = Journal::open(&dir).unwrap();
    assert!(!recovery.torn_tail);
    assert_eq!(recovery.replayed, records.len());
    assert_eq!(journal.current_seq(), records.len() as u64);
    // The graph was created, patched and deleted; job 1 finished with its
    // outcome, and job 2's finish record found no job to update.
    assert!(recovery.graphs.is_empty());
    assert_eq!(recovery.jobs.len(), 1);
    let job = &recovery.jobs[0];
    assert_eq!((job.id, job.status), (1, JobStatus::Completed));
    assert_eq!(job.request, job_request());
    assert_eq!(job.outcome, Some(outcome()));
    assert_eq!(job.mis, Some(vec![0, 2]));
    drop(journal);
    let _ = fs::remove_dir_all(&dir);
}
