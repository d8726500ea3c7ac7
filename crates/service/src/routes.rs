//! HTTP route handlers wiring the registry, job store, and metrics into a
//! `warp` router.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use mis_sim::builtin_registry;
use serde::{Deserialize, Serialize};
use warp::{PathParams, Request, Response, Router};

use crate::api::{
    AlgorithmInfo, ApiError, CreateGraphRequest, JobRequest, JobStatus, MetricsReport,
    PatchEdgesRequest, PatchResponse,
};
use crate::jobs::{ndjson_stream, SubmitError};
use crate::journal::Record;
use crate::service::AppState;

/// `Retry-After` seconds suggested on shed-load (429) responses.
const RETRY_AFTER_SHED: u64 = 1;
/// `Retry-After` seconds suggested on unavailable (503) responses.
const RETRY_AFTER_UNAVAILABLE: u64 = 5;

fn json<T: Serialize>(status: u16, value: &T) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => Response::json(status, body),
        Err(e) => error(500, format!("serialization failed: {e}")),
    }
}

fn error(status: u16, message: impl Into<String>) -> Response {
    ApiError {
        status,
        message: message.into(),
        retry_after: None,
    }
    .into_response()
}

fn submit_error(e: SubmitError) -> Response {
    match e {
        SubmitError::Draining => {
            ApiError::unavailable(e.to_string(), RETRY_AFTER_UNAVAILABLE).into_response()
        }
        SubmitError::QueueFull { .. } => {
            ApiError::too_many_requests(e.to_string(), RETRY_AFTER_SHED).into_response()
        }
        SubmitError::UnknownAlgorithm(_) => {
            ApiError::bad_request(format!("{e}; see GET /v1/algorithms")).into_response()
        }
        SubmitError::Persistence(_) => {
            ApiError::unavailable(e.to_string(), RETRY_AFTER_UNAVAILABLE).into_response()
        }
    }
}

/// Journals `record` (fsyncing it) strictly before the caller acknowledges
/// the mutation; `Err` is the 503 the handler must answer with instead.
fn journal_ack(state: &AppState, record: Record) -> Result<(), Response> {
    match &state.journal {
        Some(journal) => journal.append(&record).map(|_| ()).map_err(|e| {
            ApiError::unavailable(
                format!("persistence unavailable: {e}"),
                RETRY_AFTER_UNAVAILABLE,
            )
            .into_response()
        }),
        None => Ok(()),
    }
}

fn parse_body<T: Deserialize>(request: &Request) -> Result<T, Response> {
    let text = request
        .text()
        .map_err(|_| error(400, "request body is not UTF-8"))?;
    serde_json::from_str(text).map_err(|e| error(400, format!("invalid request body: {e}")))
}

fn graph_id(params: &PathParams) -> Result<u64, Response> {
    params.id("id").ok_or_else(|| error(400, "invalid id"))
}

/// Capability metadata for every registry algorithm, as each registry
/// entry declares it.
pub fn algorithm_catalog() -> Vec<AlgorithmInfo> {
    builtin_registry()
        .factories()
        .map(|factory| {
            let caps = factory.capabilities();
            AlgorithmInfo {
                key: factory.key().to_string(),
                description: factory.description().to_string(),
                communication_model: factory.communication_model().label().to_string(),
                supports_topology_change: caps.topology_change,
                supports_parallel: caps.parallel,
                supports_partial_activation: caps.partial_activation,
                supports_trace: caps.trace,
            }
        })
        .collect()
}

/// Builds the full route table over `state` (middleware is attached by the
/// caller once metrics exist).
pub fn build(state: &Arc<AppState>) -> Router {
    let mut router = Router::new();

    // --- graphs -----------------------------------------------------------
    let s = Arc::clone(state);
    router = router.post("/v1/graphs", move |req, _| {
        let body: CreateGraphRequest = match parse_body(req) {
            Ok(body) => body,
            Err(resp) => return resp,
        };
        let graph = match body.source.materialize(body.seed) {
            Ok(graph) => graph,
            Err(e) => return error(400, format!("invalid graph: {e}")),
        };
        let name = body.name.clone().unwrap_or_else(|| body.source.label());
        let entry = s.graphs.insert(name, body.source.label(), graph);
        let record = Record::GraphCreated {
            id: entry.id,
            name: entry.name.clone(),
            create: body,
        };
        if let Err(resp) = journal_ack(&s, record) {
            // Never acknowledge what the journal did not take.
            s.graphs.remove(entry.id);
            return resp;
        }
        json(201, &entry.info())
    });

    let s = Arc::clone(state);
    router = router.get("/v1/graphs", move |_, _| {
        let infos: Vec<_> = s.graphs.list().iter().map(|e| e.info()).collect();
        json(200, &infos)
    });

    let s = Arc::clone(state);
    router = router.get("/v1/graphs/:id", move |_, params| {
        let id = match graph_id(params) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        match s.graphs.get(id) {
            Some(entry) => json(200, &entry.info()),
            None => error(404, format!("no graph {id}")),
        }
    });

    let s = Arc::clone(state);
    router = router.delete("/v1/graphs/:id", move |_, params| {
        let id = match graph_id(params) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        match s.graphs.remove(id) {
            Some(_) => {
                if let Err(resp) = journal_ack(&s, Record::GraphDeleted { id }) {
                    return resp;
                }
                Response::new(204)
            }
            None => error(404, format!("no graph {id}")),
        }
    });

    let s = Arc::clone(state);
    router = router.patch("/v1/graphs/:id/edges", move |req, params| {
        let id = match graph_id(params) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        let body: PatchEdgesRequest = match parse_body(req) {
            Ok(body) => body,
            Err(resp) => return resp,
        };
        if body.is_empty() {
            return error(400, "empty patch: nothing to apply");
        }
        let delta = body.delta();
        let Some(entry) = s.graphs.get(id) else {
            return error(404, format!("no graph {id}"));
        };
        // Held until the delta is journaled and forwarded: concurrent
        // PATCHes on one graph reach the journal in version order.
        let _in_order = entry.lock_patches();
        let (committed, version) = match entry.apply_delta(&delta) {
            Err(e) => return error(400, format!("invalid delta: {e}")),
            Ok(applied) => applied,
        };
        let record = Record::GraphPatched {
            id,
            version,
            patch: body,
        };
        if let Err(resp) = journal_ack(&s, record) {
            return resp;
        }
        // Forward the delta to every live job on this graph whose snapshot
        // predates the patch; jobs whose algorithm cannot follow topology
        // changes are counted as skipped.
        let mut notified = 0;
        let mut skipped = 0;
        for job in s.jobs.jobs_on_graph(id) {
            match job.push_delta(&delta, version) {
                Some(true) => notified += 1,
                Some(false) => skipped += 1,
                None => {}
            }
        }
        json(
            200,
            &PatchResponse {
                graph: id,
                version,
                old_n: committed.old_n,
                new_n: committed.new_n,
                inserted: committed.inserted.len(),
                removed: committed.removed.len(),
                jobs_notified: notified,
                jobs_skipped: skipped,
            },
        )
    });

    // --- algorithms -------------------------------------------------------
    router = router.get("/v1/algorithms", move |_, _| {
        json(200, &algorithm_catalog())
    });

    // --- jobs -------------------------------------------------------------
    let s = Arc::clone(state);
    router = router.post("/v1/jobs", move |req, _| {
        let body: JobRequest = match parse_body(req) {
            Ok(body) => body,
            Err(resp) => return resp,
        };
        let Some(entry) = s.graphs.get(body.graph) else {
            return error(404, format!("no graph {}", body.graph));
        };
        // The store journals + fsyncs the submission before the job becomes
        // visible, so this 202 is durable.
        match s.jobs.submit(entry, body) {
            Ok(job) => json(202, &job.info()),
            Err(e) => submit_error(e),
        }
    });

    let s = Arc::clone(state);
    router = router.post("/v1/jobs/:id/retry", move |_, params| {
        let id = match graph_id(params) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        let Some(job) = s.jobs.get(id) else {
            return error(404, format!("no job {id}"));
        };
        if job.status() != JobStatus::Interrupted {
            return ApiError::conflict(format!(
                "job {id} is {:?}, not Interrupted; only interrupted jobs can be retried",
                job.status()
            ))
            .into_response();
        }
        let request = job.request.clone();
        let Some(entry) = s.graphs.get(request.graph) else {
            return ApiError::conflict(format!(
                "graph {} of interrupted job {id} no longer exists",
                request.graph
            ))
            .into_response();
        };
        match s.jobs.submit(entry, request) {
            Ok(fresh) => json(202, &fresh.info()),
            Err(e) => submit_error(e),
        }
    });

    let s = Arc::clone(state);
    router = router.get("/v1/jobs", move |_, _| {
        let infos: Vec<_> = s.jobs.list().iter().map(|j| j.info()).collect();
        json(200, &infos)
    });

    let s = Arc::clone(state);
    router = router.get("/v1/jobs/:id", move |_, params| {
        let id = match graph_id(params) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        match s.jobs.get(id) {
            Some(job) => json(200, &job.info()),
            None => error(404, format!("no job {id}")),
        }
    });

    let s = Arc::clone(state);
    router = router.delete("/v1/jobs/:id", move |_, params| {
        let id = match graph_id(params) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        match s.jobs.get(id) {
            Some(job) => {
                job.cancel();
                json(202, &job.info())
            }
            None => error(404, format!("no job {id}")),
        }
    });

    let s = Arc::clone(state);
    router = router.get("/v1/jobs/:id/events", move |_, params| {
        let id = match graph_id(params) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        match s.jobs.get(id) {
            Some(job) => Response::stream(200, "application/x-ndjson", ndjson_stream(job.events())),
            None => error(404, format!("no job {id}")),
        }
    });

    let s = Arc::clone(state);
    router = router.get("/v1/jobs/:id/mis", move |_, params| {
        let id = match graph_id(params) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        let Some(job) = s.jobs.get(id) else {
            return error(404, format!("no job {id}"));
        };
        let Some(mis) = job.mis() else {
            return error(
                409,
                format!("job {id} has no result yet (status {:?})", job.status()),
            );
        };
        // Stream the vertex ids as NDJSON, one chunk per id block.
        let mut blocks = mis
            .chunks(4096)
            .map(|block| {
                block
                    .iter()
                    .map(|v| format!("{v}\n"))
                    .collect::<String>()
                    .into_bytes()
            })
            .collect::<Vec<_>>()
            .into_iter();
        Response::stream(200, "application/x-ndjson", Box::new(move || blocks.next()))
    });

    // --- metrics & admin --------------------------------------------------
    let s = Arc::clone(state);
    router = router.get("/v1/metrics", move |_, _| {
        let report = MetricsReport {
            uptime_micros: s.started.elapsed().as_micros() as u64,
            endpoints: s.metrics().map(|m| m.report()).unwrap_or_default(),
            jobs: s.jobs.gauges(),
        };
        json(200, &report)
    });

    router = router.get("/v1/healthz", move |_, _| {
        Response::json(200, "{\"status\":\"ok\"}")
    });

    let s = Arc::clone(state);
    router = router.post("/v1/admin/shutdown", move |_, _| {
        s.shutdown_requested.store(true, Ordering::SeqCst);
        Response::json(202, "{\"status\":\"shutdown requested\"}")
    });

    router
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_the_whole_registry() {
        let catalog = algorithm_catalog();
        assert_eq!(catalog.len(), builtin_registry().len());
        let two_state = catalog.iter().find(|a| a.key == "two-state").unwrap();
        assert!(two_state.supports_topology_change);
        assert!(two_state.supports_trace);
        let greedy = catalog.iter().find(|a| a.key == "greedy").unwrap();
        assert!(!greedy.supports_trace);
    }
}
