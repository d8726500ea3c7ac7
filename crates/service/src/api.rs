//! Request/response types of the HTTP API.
//!
//! Everything here round-trips through the vendored serde `Value` tree; the
//! optional knobs of the request types are `#[serde(default)]` fields.

use mis_core::exec::{ExecutionMode, RoundStrategy};
use mis_core::init::InitStrategy;
use mis_graph::{Graph, GraphDelta, VertexId};
use mis_sim::spec::{GraphSpec, SchedulerSpec};
use serde::{Deserialize, Serialize, Value};

/// Default round budget for jobs that do not set one (matches
/// `ExperimentSpec`).
pub const DEFAULT_MAX_ROUNDS: usize = 100_000;

// ---------------------------------------------------------------------------
// Graphs
// ---------------------------------------------------------------------------

/// Where a new graph's topology comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSource {
    /// Generate from a [`GraphSpec`] (seeded by the request's `seed`).
    Spec(GraphSpec),
    /// Explicit vertex count + edge list upload.
    Edges {
        /// Number of vertices.
        n: usize,
        /// Undirected edges as `(u, v)` pairs.
        edges: Vec<(VertexId, VertexId)>,
    },
}

impl GraphSource {
    /// Builds the graph (spec generation is seeded by `seed`).
    ///
    /// # Errors
    ///
    /// Returns a message for invalid uploads (out-of-range endpoints,
    /// self-loops).
    pub fn materialize(&self, seed: u64) -> Result<Graph, String> {
        match self {
            GraphSource::Spec(spec) => {
                use rand::SeedableRng;
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                Ok(spec.generate(&mut rng))
            }
            GraphSource::Edges { n, edges } => {
                Graph::from_edges(*n, edges.iter().copied()).map_err(|e| e.to_string())
            }
        }
    }

    /// Short human-readable label.
    pub fn label(&self) -> String {
        match self {
            GraphSource::Spec(spec) => spec.label(),
            GraphSource::Edges { n, edges } => format!("upload(n={n},m={})", edges.len()),
        }
    }
}

/// `POST /v1/graphs` body.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateGraphRequest {
    /// Display name; defaults to the source label.
    pub name: Option<String>,
    /// Topology source: a `spec` field or `n` + `edges` fields.
    pub source: GraphSource,
    /// Seed for spec generation (default 0).
    pub seed: u64,
}

// Hand-written: the source is flattened into the request (`spec`, or `n` plus `edges`).
impl Serialize for CreateGraphRequest {
    fn to_value(&self) -> Value {
        let mut fields = Vec::new();
        if let Some(name) = &self.name {
            fields.push(("name".to_string(), Value::Str(name.clone())));
        }
        match &self.source {
            GraphSource::Spec(spec) => fields.push(("spec".to_string(), spec.to_value())),
            GraphSource::Edges { n, edges } => {
                fields.push(("n".to_string(), n.to_value()));
                fields.push(("edges".to_string(), edges.to_value()));
            }
        }
        fields.push(("seed".to_string(), self.seed.to_value()));
        Value::Object(fields)
    }
}

impl Deserialize for CreateGraphRequest {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let source = match serde::get_field(value, "spec") {
            Ok(spec) => GraphSource::Spec(GraphSpec::from_value(spec)?),
            Err(_) => {
                let n = usize::from_value(serde::get_field(value, "n").map_err(|_| {
                    serde::Error::custom("graph request needs either `spec` or `n` + `edges`")
                })?)?;
                let edges = Vec::from_value(serde::get_field(value, "edges")?)?;
                GraphSource::Edges { n, edges }
            }
        };
        Ok(CreateGraphRequest {
            name: serde::field_or(value, "name", Default::default)?,
            source,
            seed: serde::field_or(value, "seed", Default::default)?,
        })
    }
}

/// One graph in the registry, as reported by `GET /v1/graphs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphInfo {
    /// Registry id (used in job submissions and `PATCH` paths).
    pub id: u64,
    /// Display name.
    pub name: String,
    /// Current vertex count.
    pub n: usize,
    /// Current edge count.
    pub m: usize,
    /// Bumped by every applied `PATCH`.
    pub version: u64,
    /// Human-readable source label.
    pub source: String,
}

/// `PATCH /v1/graphs/:id/edges` body: a `GraphDelta` in wire form. All
/// fields default to empty.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PatchEdgesRequest {
    /// Edges to insert.
    #[serde(default)]
    pub add: Vec<(VertexId, VertexId)>,
    /// Edges to remove.
    #[serde(default)]
    pub remove: Vec<(VertexId, VertexId)>,
    /// Number of fresh isolated vertices to append.
    #[serde(default)]
    pub add_vertices: usize,
    /// Vertices to detach (drop all incident edges; ids never disappear).
    #[serde(default)]
    pub detach: Vec<VertexId>,
}

impl PatchEdgesRequest {
    /// `true` when the patch contains no mutations at all.
    pub fn is_empty(&self) -> bool {
        self.add.is_empty()
            && self.remove.is_empty()
            && self.add_vertices == 0
            && self.detach.is_empty()
    }

    /// Converts to the engine's [`GraphDelta`].
    pub fn delta(&self) -> GraphDelta {
        let mut delta = GraphDelta::new();
        for &(u, v) in &self.add {
            delta.add_edge(u, v);
        }
        for &(u, v) in &self.remove {
            delta.remove_edge(u, v);
        }
        for _ in 0..self.add_vertices {
            delta.add_vertex([]);
        }
        for &u in &self.detach {
            delta.detach_vertex(u);
        }
        delta
    }
}

/// `PATCH /v1/graphs/:id/edges` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatchResponse {
    /// Graph id.
    pub graph: u64,
    /// Registry version after the patch.
    pub version: u64,
    /// Vertex count before.
    pub old_n: usize,
    /// Vertex count after (joins append ids).
    pub new_n: usize,
    /// Net edges inserted.
    pub inserted: usize,
    /// Net edges removed.
    pub removed: usize,
    /// Running/queued jobs on this graph whose mailbox received the delta.
    pub jobs_notified: usize,
    /// Jobs on this graph skipped because their algorithm cannot follow
    /// topology changes.
    pub jobs_skipped: usize,
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// `POST /v1/jobs` body. Only `graph` and `algorithm` are required.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRequest {
    /// Target graph id.
    pub graph: u64,
    /// Registry key (see `GET /v1/algorithms`).
    pub algorithm: String,
    /// Trial RNG seed (default 0).
    #[serde(default)]
    pub seed: u64,
    /// Round budget (default [`DEFAULT_MAX_ROUNDS`]).
    #[serde(default = "default_max_rounds")]
    pub max_rounds: usize,
    /// Activation scheduler (default synchronous).
    #[serde(default)]
    pub scheduler: SchedulerSpec,
    /// Round traversal strategy (default adaptive).
    #[serde(default)]
    pub strategy: RoundStrategy,
    /// Sequential or data-parallel rounds (default sequential).
    #[serde(default)]
    pub execution: ExecutionMode,
    /// Initial-state strategy (default random — the self-stabilizing case).
    #[serde(default)]
    pub init: InitStrategy,
    /// Record per-round state counts into the job's event stream.
    #[serde(default)]
    pub record_trace: bool,
    /// How long a stabilized job keeps polling its mutation mailbox before
    /// completing, in microseconds (default 0: complete immediately).
    /// A non-zero linger makes "PATCH a running job" deterministic: the job
    /// stays resident after converging, applies any delta that arrives, and
    /// re-stabilizes incrementally from its current configuration.
    #[serde(default)]
    pub linger_micros: u64,
}

fn default_max_rounds() -> usize {
    DEFAULT_MAX_ROUNDS
}

impl JobRequest {
    /// A request with defaults for everything but the target graph and
    /// algorithm.
    pub fn new(graph: u64, algorithm: impl Into<String>) -> Self {
        JobRequest {
            graph,
            algorithm: algorithm.into(),
            seed: 0,
            max_rounds: DEFAULT_MAX_ROUNDS,
            scheduler: SchedulerSpec::Synchronous,
            strategy: RoundStrategy::Auto,
            execution: ExecutionMode::Sequential,
            init: InitStrategy::Random,
            record_trace: false,
            linger_micros: 0,
        }
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// Executing on a worker thread.
    Running,
    /// Finished (see the outcome for stabilization/validity).
    Completed,
    /// Cancelled via `DELETE /v1/jobs/:id` or shutdown drain.
    Cancelled,
    /// The worker failed (bad scheduler/algorithm combination, panic).
    Failed,
    /// The job was running when the service crashed; journal replay marked
    /// it terminal without a result. Re-runnable via
    /// `POST /v1/jobs/:id/retry`, which resubmits the stored request as a
    /// fresh job.
    Interrupted,
}

impl JobStatus {
    /// `true` once the job will never run again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Completed
                | JobStatus::Cancelled
                | JobStatus::Failed
                | JobStatus::Interrupted
        )
    }
}

/// Final result of a completed job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// Rounds executed.
    pub rounds: usize,
    /// Whether the algorithm reported stabilization within the budget.
    pub stabilized: bool,
    /// Whether the final black set is a valid MIS of the (possibly mutated)
    /// graph, checked with `mis_check::is_mis`.
    pub valid_mis: bool,
    /// Size of the final black set.
    pub mis_size: usize,
    /// Vertex count of the final graph.
    pub n: usize,
    /// Edge count of the final graph.
    pub m: usize,
    /// Random bits drawn.
    pub random_bits: u64,
    /// States per vertex (`usize::MAX` for super-constant-state baselines).
    pub states_per_vertex: usize,
    /// Live `PATCH` deltas applied mid-run.
    pub mutations_applied: usize,
    /// Wall-clock execution time in microseconds.
    pub wall_micros: u64,
}

/// One job, as reported by `GET /v1/jobs/:id`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobInfo {
    /// Job id.
    pub id: u64,
    /// Target graph id.
    pub graph: u64,
    /// Registry key.
    pub algorithm: String,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Present once the job completed.
    pub outcome: Option<JobOutcome>,
    /// Present when the job failed.
    pub error: Option<String>,
}

// ---------------------------------------------------------------------------
// Algorithms, metrics, errors
// ---------------------------------------------------------------------------

/// One registry algorithm, as reported by `GET /v1/algorithms`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlgorithmInfo {
    /// Registry key (use in [`JobRequest::algorithm`]).
    pub key: String,
    /// One-line description.
    pub description: String,
    /// Weakest communication model the rule needs.
    pub communication_model: String,
    /// Can follow live `PATCH` topology changes.
    pub supports_topology_change: bool,
    /// Accepts `ExecutionMode::Parallel`.
    pub supports_parallel: bool,
    /// Accepts non-synchronous schedulers.
    pub supports_partial_activation: bool,
    /// Emits meaningful per-round traces.
    pub supports_trace: bool,
}

/// Counters for one `(route, method)` pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointMetrics {
    /// Route pattern (e.g. `/v1/jobs/:id`) or `(unmatched)`.
    pub route: String,
    /// HTTP method.
    pub method: String,
    /// Requests dispatched.
    pub requests: u64,
    /// Responses with status >= 400.
    pub errors: u64,
    /// Requests currently executing.
    pub in_flight: u64,
    /// Sum of handler latencies in microseconds.
    pub latency_sum_micros: u64,
    /// Maximum handler latency in microseconds.
    pub latency_max_micros: u64,
}

/// Job-store gauges reported under `GET /v1/metrics`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JobGauges {
    /// Jobs ever accepted.
    pub submitted: u64,
    /// Currently waiting for a worker.
    pub queued: u64,
    /// Currently executing.
    pub running: u64,
    /// Terminal: completed.
    pub completed: u64,
    /// Terminal: cancelled.
    pub cancelled: u64,
    /// Terminal: failed.
    pub failed: u64,
    /// Terminal: interrupted by a crash (recovered from the journal).
    pub interrupted: u64,
}

/// `GET /v1/metrics` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Microseconds since the service started.
    pub uptime_micros: u64,
    /// Per-endpoint counters, in route order.
    pub endpoints: Vec<EndpointMetrics>,
    /// Job-store gauges.
    pub jobs: JobGauges,
}

/// Error body returned by every non-2xx JSON response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Human-readable description.
    pub error: String,
}

/// Typed request-path error: status code, message, and an optional
/// `Retry-After` hint for shed-load responses. Handlers build these instead
/// of ad-hoc `(status, string)` pairs so degradation semantics (429 vs 503
/// vs 500) stay consistent across routes.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Human-readable description (becomes [`ErrorBody::error`]).
    pub message: String,
    /// Seconds the client should wait before retrying (emitted as a
    /// `Retry-After` header on 429/503 responses).
    pub retry_after: Option<u64>,
}

impl ApiError {
    /// 400 Bad Request.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            message: message.into(),
            retry_after: None,
        }
    }

    /// 409 Conflict.
    pub fn conflict(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 409,
            message: message.into(),
            retry_after: None,
        }
    }

    /// 429 Too Many Requests with a `Retry-After` hint — the bounded job
    /// queue is full and the client should back off.
    pub fn too_many_requests(message: impl Into<String>, retry_after: u64) -> ApiError {
        ApiError {
            status: 429,
            message: message.into(),
            retry_after: Some(retry_after),
        }
    }

    /// 500 Internal Server Error — a request-path invariant broke (I/O
    /// failure, unrecoverable poisoned state); the process stays up.
    pub fn internal(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 500,
            message: message.into(),
            retry_after: None,
        }
    }

    /// 503 Service Unavailable with a `Retry-After` hint — the service is
    /// draining or persistence is unavailable.
    pub fn unavailable(message: impl Into<String>, retry_after: u64) -> ApiError {
        ApiError {
            status: 503,
            message: message.into(),
            retry_after: Some(retry_after),
        }
    }

    /// Renders the error as a JSON HTTP response (with `Retry-After` when
    /// set).
    pub fn into_response(self) -> warp::Response {
        let body = ErrorBody {
            error: self.message,
        };
        let json = serde_json::to_string(&body).unwrap_or_else(|_| "{\"error\":\"error\"}".into());
        let mut response = warp::Response::json(self.status, json);
        if let Some(secs) = self.retry_after {
            response = response.header("retry-after", &secs.to_string());
        }
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T>(value: &T) -> T
    where
        T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
    {
        let json = serde_json::to_string(value).expect("serialize");
        let back: T = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(&back, value, "round trip changed the value: {json}");
        back
    }

    #[test]
    fn create_graph_request_round_trips() {
        round_trip(&CreateGraphRequest {
            name: Some("demo".into()),
            source: GraphSource::Spec(GraphSpec::Gnp { n: 100, p: 0.05 }),
            seed: 7,
        });
        round_trip(&CreateGraphRequest {
            name: None,
            source: GraphSource::Edges {
                n: 3,
                edges: vec![(0, 1), (1, 2)],
            },
            seed: 0,
        });
    }

    #[test]
    fn create_graph_request_defaults() {
        let req: CreateGraphRequest =
            serde_json::from_str("{\"spec\": {\"Complete\": {\"n\": 4}}}").unwrap();
        assert_eq!(req.name, None);
        assert_eq!(req.seed, 0);
        assert!(matches!(req.source, GraphSource::Spec(_)));
        assert!(serde_json::from_str::<CreateGraphRequest>("{\"name\": \"x\"}").is_err());
    }

    #[test]
    fn graph_sources_materialize() {
        let spec = GraphSource::Spec(GraphSpec::Complete { n: 5 });
        let g = spec.materialize(0).unwrap();
        assert_eq!((g.n(), g.m()), (5, 10));
        let upload = GraphSource::Edges {
            n: 3,
            edges: vec![(0, 1), (1, 2)],
        };
        assert_eq!(upload.materialize(0).unwrap().m(), 2);
        let bad = GraphSource::Edges {
            n: 2,
            edges: vec![(0, 5)],
        };
        assert!(bad.materialize(0).is_err());
    }

    #[test]
    fn job_request_round_trips() {
        let mut req = JobRequest::new(3, "three-color");
        req.seed = 11;
        req.max_rounds = 500;
        req.record_trace = true;
        req.linger_micros = 250;
        round_trip(&req);
    }

    #[test]
    fn job_request_ignores_the_retired_round_delay_field() {
        let req: JobRequest = serde_json::from_str(
            "{\"graph\": 1, \"algorithm\": \"two-state\", \"round_delay_micros\": 250}",
        )
        .unwrap();
        assert_eq!(req, JobRequest::new(1, "two-state"));
    }

    #[test]
    fn job_request_defaults() {
        let req: JobRequest =
            serde_json::from_str("{\"graph\": 1, \"algorithm\": \"two-state\"}").unwrap();
        assert_eq!(req, JobRequest::new(1, "two-state"));
        assert!(serde_json::from_str::<JobRequest>("{\"graph\": 1}").is_err());
        assert!(serde_json::from_str::<JobRequest>("{\"algorithm\": \"two-state\"}").is_err());
    }

    #[test]
    fn job_request_rejects_invalid_execution() {
        let json = "{\"graph\": 1, \"algorithm\": \"two-state\", \
                    \"execution\": {\"Parallel\": {\"threads\": 9999}}}";
        assert!(serde_json::from_str::<JobRequest>(json).is_err());
    }

    #[test]
    fn patch_request_round_trips_and_builds_delta() {
        let patch = PatchEdgesRequest {
            add: vec![(0, 1)],
            remove: vec![(2, 3)],
            add_vertices: 2,
            detach: vec![4],
        };
        round_trip(&patch);
        assert!(!patch.is_empty());
        assert!(PatchEdgesRequest::default().is_empty());
        let empty: PatchEdgesRequest = serde_json::from_str("{}").unwrap();
        assert!(empty.is_empty());
        // The delta applies against a suitable graph.
        let g = Graph::from_edges(5, [(2, 3), (3, 4)]).unwrap();
        let (g2, committed) = g.apply_delta(&patch.delta()).unwrap();
        assert_eq!(g2.n(), 7);
        assert_eq!(committed.old_n, 5);
    }

    #[test]
    fn info_and_metrics_types_round_trip() {
        round_trip(&GraphInfo {
            id: 1,
            name: "demo".into(),
            n: 10,
            m: 9,
            version: 2,
            source: "gnp(n=10,p=0.3)".into(),
        });
        round_trip(&JobInfo {
            id: 9,
            graph: 1,
            algorithm: "two-state".into(),
            status: JobStatus::Completed,
            outcome: Some(JobOutcome {
                rounds: 17,
                stabilized: true,
                valid_mis: true,
                mis_size: 4,
                n: 10,
                m: 9,
                random_bits: 123,
                states_per_vertex: 2,
                mutations_applied: 1,
                wall_micros: 42,
            }),
            error: None,
        });
        round_trip(&PatchResponse {
            graph: 1,
            version: 3,
            old_n: 10,
            new_n: 12,
            inserted: 2,
            removed: 1,
            jobs_notified: 1,
            jobs_skipped: 0,
        });
        round_trip(&AlgorithmInfo {
            key: "two-state".into(),
            description: "d".into(),
            communication_model: "beeping".into(),
            supports_topology_change: true,
            supports_parallel: true,
            supports_partial_activation: true,
            supports_trace: true,
        });
        round_trip(&MetricsReport {
            uptime_micros: 1,
            endpoints: vec![EndpointMetrics {
                route: "/v1/jobs".into(),
                method: "POST".into(),
                requests: 10,
                errors: 1,
                in_flight: 0,
                latency_sum_micros: 100,
                latency_max_micros: 30,
            }],
            jobs: JobGauges {
                submitted: 10,
                queued: 0,
                running: 2,
                completed: 7,
                cancelled: 1,
                failed: 0,
                interrupted: 0,
            },
        });
        round_trip(&ErrorBody {
            error: "unknown algorithm".into(),
        });
        for status in [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Completed,
            JobStatus::Cancelled,
            JobStatus::Failed,
            JobStatus::Interrupted,
        ] {
            round_trip(&status);
            assert_eq!(
                status.is_terminal(),
                !matches!(status, JobStatus::Queued | JobStatus::Running)
            );
        }
    }
}
