//! A data directory written by the previous build replays under this one,
//! and this one writes the same bytes for the same operations, so the
//! previous build replays a directory this one wrote. The literals below
//! are the files the previous build (commit 3cbdf33) wrote for
//! [`write_scenario`]: three records, a snapshot installed after a fourth
//! record landed past its capture, and two more records.

use std::fs;
use std::path::{Path, PathBuf};

use mis_service::api::{
    CreateGraphRequest, GraphSource, JobOutcome, JobRequest, JobStatus, PatchEdgesRequest,
};
use mis_service::journal::{Journal, Record, SnapshotDoc, SnapshotGraph, SnapshotJob};

fn outcome() -> JobOutcome {
    JobOutcome {
        rounds: 7,
        stabilized: true,
        valid_mis: true,
        mis_size: 2,
        n: 4,
        m: 3,
        random_bits: 28,
        states_per_vertex: 2,
        mutations_applied: 0,
        wall_micros: 15,
    }
}

fn write_scenario(dir: &Path) {
    let (journal, _) = Journal::open(dir).unwrap();
    let edges = vec![(0, 1), (1, 2), (2, 3)];
    journal
        .append(&Record::GraphCreated {
            id: 1,
            name: "path".into(),
            create: CreateGraphRequest {
                name: Some("path".into()),
                source: GraphSource::Edges {
                    n: 4,
                    edges: edges.clone(),
                },
                seed: 0,
            },
        })
        .unwrap();
    journal
        .append(&Record::JobSubmitted {
            id: 1,
            request: JobRequest::new(1, "two-state"),
        })
        .unwrap();
    journal.append(&Record::JobStarted { id: 1 }).unwrap();
    let snapshot = SnapshotDoc {
        last_seq: 3,
        graphs: vec![SnapshotGraph {
            id: 1,
            name: "path".into(),
            source: "upload(n=4,m=3)".into(),
            n: 4,
            edges,
            version: 1,
        }],
        jobs: vec![SnapshotJob {
            id: 1,
            request: JobRequest::new(1, "two-state"),
            status: JobStatus::Running,
            outcome: None,
            error: None,
            mis: None,
        }],
    };
    journal
        .append(&Record::JobFinished {
            id: 1,
            status: JobStatus::Completed,
            outcome: Some(outcome()),
            error: None,
            mis: Some(vec![0, 2]),
        })
        .unwrap();
    journal.install_snapshot(&snapshot).unwrap();
    journal
        .append(&Record::GraphPatched {
            id: 1,
            version: 2,
            patch: PatchEdgesRequest {
                add: vec![(0, 3)],
                ..Default::default()
            },
        })
        .unwrap();
    journal
        .append(&Record::JobSubmitted {
            id: 2,
            request: JobRequest::new(1, "greedy"),
        })
        .unwrap();
}

const SNAPSHOT: &str = r#"{"last_seq":3,"graphs":[{"id":1,"name":"path","source":"upload(n=4,m=3)","n":4,"edges":[[0,1],[1,2],[2,3]],"version":1}],"jobs":[{"id":1,"request":{"graph":1,"algorithm":"two-state","seed":0,"max_rounds":100000,"scheduler":"Synchronous","strategy":"auto","execution":"Sequential","init":"Random","record_trace":false,"linger_micros":0},"status":"Running","outcome":null,"error":null,"mis":null}]}"#;

const JOURNAL: &str = concat!(
    r#"256 0eb73271 {"seq":4,"record":{"type":"job_finished","id":1,"status":"Completed","outcome":{"rounds":7,"stabilized":true,"valid_mis":true,"mis_size":2,"n":4,"m":3,"random_bits":28,"states_per_vertex":2,"mutations_applied":0,"wall_micros":15},"error":null,"mis":[0,2]}}"#,
    "\n",
    r#"127 40aa2949 {"seq":5,"record":{"type":"graph_patched","id":1,"version":2,"patch":{"add":[[0,3]],"remove":[],"add_vertices":0,"detach":[]}}}"#,
    "\n",
    r#"246 4fa8d0bc {"seq":6,"record":{"type":"job_submitted","id":2,"request":{"graph":1,"algorithm":"greedy","seed":0,"max_rounds":100000,"scheduler":"Synchronous","strategy":"auto","execution":"Sequential","init":"Random","record_trace":false,"linger_micros":0}}}"#,
    "\n",
);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mis-compat-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn this_build_writes_the_bytes_the_previous_one_did() {
    let dir = tmpdir("write");
    write_scenario(&dir);
    assert_eq!(
        fs::read_to_string(dir.join("snapshot.json")).unwrap(),
        SNAPSHOT
    );
    assert_eq!(
        fs::read_to_string(dir.join("journal.ndjson")).unwrap(),
        JOURNAL
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_data_dir_written_by_the_previous_build_replays() {
    let dir = tmpdir("read");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("snapshot.json"), SNAPSHOT).unwrap();
    fs::write(dir.join("journal.ndjson"), JOURNAL).unwrap();
    let (journal, recovery) = Journal::open(&dir).unwrap();
    assert!(!recovery.torn_tail);
    assert_eq!(recovery.replayed, 3);
    assert_eq!(journal.current_seq(), 6);
    let graph = &recovery.graphs[..];
    assert_eq!(graph.len(), 1);
    assert_eq!(
        (graph[0].id, graph[0].version, graph[0].graph.m()),
        (1, 2, 4)
    );
    let jobs: Vec<_> = recovery.jobs.iter().map(|j| (j.id, j.status)).collect();
    assert_eq!(jobs, [(1, JobStatus::Completed), (2, JobStatus::Queued)]);
    assert_eq!(recovery.jobs[0].outcome, Some(outcome()));
    assert_eq!(recovery.jobs[0].mis, Some(vec![0, 2]));
    // Appends continue the sequence, and the next open replays them too.
    assert_eq!(journal.append(&Record::JobStarted { id: 2 }).unwrap(), 7);
    drop(journal);
    let (_, recovery) = Journal::open(&dir).unwrap();
    assert_eq!(recovery.jobs[1].status, JobStatus::Interrupted);
    let _ = fs::remove_dir_all(&dir);
}
