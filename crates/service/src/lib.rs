//! # specqp_service — a concurrent query service over one shared engine
//!
//! The Spec-QP paper's premise is that speculative planning amortizes
//! optimization effort across a *workload*. This crate supplies the serving
//! layer that premise assumes: one [`Engine`] co-owning its graph and
//! relaxation registry through `Arc`s, shared read-only by a fixed-size pool
//! of worker threads that drain a bounded MPMC request queue.
//!
//! The entry point is per-request: build a [`Request`] (query, mode, top-k
//! budget, optional deadline, client id), hand it to
//! [`QueryService::submit`] (blocking backpressure) or
//! [`QueryService::try_submit`] (non-blocking admission control — a full
//! queue is an explicit [`ServiceError::QueueFull`] with a retry-after hint,
//! never an unbounded wait), and redeem the returned [`Ticket`] for a
//! [`Response`]. Requests whose deadline expires while queued are shed
//! before execution and complete with [`ServiceError::DeadlineExceeded`].
//! [`QueryService::run_batch`] remains as a thin batch wrapper over the same
//! path, returning outcomes in submission order with aggregate
//! throughput/latency statistics; [`QueryService::lifetime_stats`] reports
//! cumulative counters across all batches and connections.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use kgstore::KnowledgeGraphBuilder;
//! use relax::RelaxationRegistry;
//! use sparql::parse_query;
//! use specqp_service::{ExecMode, QueryJob, QueryService, ServiceConfig};
//!
//! let mut b = KnowledgeGraphBuilder::new();
//! b.add("shakira", "rdf:type", "singer", 100.0);
//! b.add("adele", "rdf:type", "singer", 90.0);
//! let graph = Arc::new(b.build());
//! let registry = Arc::new(RelaxationRegistry::new());
//!
//! let q = parse_query("SELECT ?s WHERE { ?s <rdf:type> <singer> }", graph.dictionary()).unwrap();
//! let service = QueryService::new(graph, registry, ServiceConfig::with_threads(2));
//! let jobs: Vec<QueryJob> = (0..8).map(|_| QueryJob::specqp(q.clone(), 5)).collect();
//! let report = service.run_batch(&jobs);
//!
//! assert_eq!(report.outcomes.len(), 8);
//! assert!(report.outcomes.iter().all(|o| o.answers.len() == 2));
//! assert!(report.stats.queries_per_sec > 0.0);
//! // The 8 identical shapes share one cached plan; at most one racing
//! // miss per worker thread before the first insert lands.
//! assert!(report.stats.cache.hits >= 6);
//! ```

pub mod error;
pub mod queue;
pub mod stats;

pub use error::ServiceError;
pub use queue::{BoundedQueue, TryPushError};
pub use stats::{LifetimeCounters, ModeTotals, ServiceStats};

// The write-path vocabulary, re-exported so front-ends can accept batches
// and report epochs without depending on `kgstore` directly.
pub use kgstore::{Epoch, LiveGraph, WriteBatch, WriteOp};

use kgstore::KnowledgeGraph;
use relax::RelaxationRegistry;
use sparql::Query;
use specqp::{Engine, EngineConfig, QueryOutcome};
use specqp_common::Result;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which executor a job runs through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Speculative planning + execution (the paper's Spec-QP), including
    /// the engine's speculation lifecycle when a policy is configured.
    SpecQp,
    /// The TriniT baseline: every pattern relaxed, no planning.
    TriniT,
    /// The brute-force ground-truth executor (tests / validation).
    Naive,
}

impl ExecMode {
    /// Every mode, in the order used by [`BatchStats::per_mode`].
    pub const ALL: [ExecMode; 3] = [ExecMode::SpecQp, ExecMode::TriniT, ExecMode::Naive];

    /// Stable index of this mode inside [`ExecMode::ALL`].
    pub fn index(self) -> usize {
        match self {
            ExecMode::SpecQp => 0,
            ExecMode::TriniT => 1,
            ExecMode::Naive => 2,
        }
    }

    /// Short lowercase label (`specqp` / `trinit` / `naive`) used by probe
    /// reports.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::SpecQp => "specqp",
            ExecMode::TriniT => "trinit",
            ExecMode::Naive => "naive",
        }
    }

    /// Inverse of [`ExecMode::index`] — the wire protocol sends modes as
    /// this byte.
    pub fn from_index(i: usize) -> Option<ExecMode> {
        ExecMode::ALL.get(i).copied()
    }
}

/// One unit of work: a query, the answer budget `k` and the executor mode.
#[derive(Clone, Debug)]
pub struct QueryJob {
    /// The query to answer.
    pub query: Query,
    /// Top-k budget.
    pub k: usize,
    /// Executor selection.
    pub mode: ExecMode,
}

impl QueryJob {
    /// A Spec-QP job.
    pub fn specqp(query: Query, k: usize) -> Self {
        QueryJob {
            query,
            k,
            mode: ExecMode::SpecQp,
        }
    }

    /// A TriniT-baseline job.
    pub fn trinit(query: Query, k: usize) -> Self {
        QueryJob {
            query,
            k,
            mode: ExecMode::TriniT,
        }
    }

    /// A naive ground-truth job.
    pub fn naive(query: Query, k: usize) -> Self {
        QueryJob {
            query,
            k,
            mode: ExecMode::Naive,
        }
    }
}

/// One request through the per-request service API: everything the service
/// needs to admit, schedule, shed or execute a query.
///
/// Built with [`Request::new`] and refined with the `with_*` builders:
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use kgstore::KnowledgeGraphBuilder;
/// use relax::RelaxationRegistry;
/// use sparql::parse_query;
/// use specqp_service::{ExecMode, QueryService, Request, ServiceConfig};
///
/// let mut b = KnowledgeGraphBuilder::new();
/// b.add("shakira", "rdf:type", "singer", 100.0);
/// b.add("adele", "rdf:type", "singer", 90.0);
/// let graph = Arc::new(b.build());
/// let q = parse_query("SELECT ?s WHERE { ?s <rdf:type> <singer> }", graph.dictionary()).unwrap();
///
/// let service = QueryService::new(
///     graph,
///     Arc::new(RelaxationRegistry::new()),
///     ServiceConfig::with_threads(2),
/// );
/// let request = Request::new(q, 5)
///     .with_mode(ExecMode::SpecQp)
///     .with_client(42)
///     .with_deadline_in(Duration::from_secs(5));
/// let ticket = service.submit(request).unwrap();
/// let response = ticket.wait();
/// assert_eq!(response.outcome.unwrap().answers.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Request {
    /// The query to answer.
    pub query: Query,
    /// Executor selection (defaults to [`ExecMode::SpecQp`]).
    pub mode: ExecMode,
    /// Top-k budget.
    pub k: usize,
    /// Shed-by time: if the request is still queued at this instant it is
    /// dropped unexecuted with [`ServiceError::DeadlineExceeded`]. `None`
    /// means the request waits as long as backpressure demands.
    pub deadline: Option<Instant>,
    /// Originating client, for per-client quota accounting in front-ends
    /// (the service itself treats it as an opaque label; `0` = anonymous).
    pub client_id: u64,
}

impl Request {
    /// A Spec-QP request with no deadline, from the anonymous client.
    pub fn new(query: Query, k: usize) -> Self {
        Request {
            query,
            mode: ExecMode::SpecQp,
            k,
            deadline: None,
            client_id: 0,
        }
    }

    /// Selects the executor.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets an absolute shed-by deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `budget` from now.
    pub fn with_deadline_in(self, budget: Duration) -> Self {
        self.with_deadline(Instant::now() + budget)
    }

    /// Labels the originating client.
    pub fn with_client(mut self, client_id: u64) -> Self {
        self.client_id = client_id;
        self
    }

    /// The batch-API equivalent of this request (mode + k + query).
    pub fn from_job(job: &QueryJob) -> Self {
        Request::new(job.query.clone(), job.k).with_mode(job.mode)
    }
}

impl From<QueryJob> for Request {
    fn from(job: QueryJob) -> Self {
        Request::new(job.query, job.k).with_mode(job.mode)
    }
}

/// The service's answer envelope for one [`Request`].
#[derive(Debug)]
pub struct Response {
    /// The executed outcome, or the typed reason the request produced none.
    pub outcome: std::result::Result<QueryOutcome, ServiceError>,
    /// Time the request spent queued before a worker picked it up.
    pub queued: Duration,
    /// Execution time on the worker (zero for shed requests).
    pub execution: Duration,
}

impl Response {
    /// Queue wait plus execution — the in-service latency a client observes
    /// on top of network transfer.
    pub fn total(&self) -> Duration {
        self.queued + self.execution
    }

    /// `true` if the request was shed unexecuted for deadline expiry.
    pub fn is_shed(&self) -> bool {
        matches!(self.outcome, Err(ServiceError::DeadlineExceeded))
    }
}

/// One-shot completion slot a worker fills and a client waits on.
#[derive(Debug)]
struct TicketState {
    slot: Mutex<Option<Response>>,
    ready: Condvar,
}

impl TicketState {
    fn complete(&self, response: Response) {
        let mut slot = self.slot.lock().expect("ticket poisoned");
        debug_assert!(slot.is_none(), "ticket completed twice");
        *slot = Some(response);
        self.ready.notify_all();
    }
}

/// A claim on one submitted request's [`Response`].
///
/// Redeem with [`Ticket::wait`] (blocking) or poll with
/// [`Ticket::wait_timeout`]. Dropping a ticket abandons the request: it
/// still executes (admission was already granted) but the response is
/// discarded.
#[derive(Debug)]
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    fn new() -> (Ticket, Arc<TicketState>) {
        let state = Arc::new(TicketState {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        });
        (
            Ticket {
                state: Arc::clone(&state),
            },
            state,
        )
    }

    /// `true` once the response is available (then [`Ticket::wait`] returns
    /// without blocking).
    pub fn is_ready(&self) -> bool {
        self.state.slot.lock().expect("ticket poisoned").is_some()
    }

    /// Blocks until the worker completes the request and returns the
    /// response.
    pub fn wait(self) -> Response {
        let mut slot = self.state.slot.lock().expect("ticket poisoned");
        loop {
            if let Some(response) = slot.take() {
                return response;
            }
            slot = self.state.ready.wait(slot).expect("ticket poisoned");
        }
    }

    /// Waits up to `timeout`; hands the ticket back on expiry so the caller
    /// can keep waiting later.
    pub fn wait_timeout(self, timeout: Duration) -> std::result::Result<Response, Ticket> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.state.slot.lock().expect("ticket poisoned");
        loop {
            if let Some(response) = slot.take() {
                return Ok(response);
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                drop(slot);
                return Err(self);
            };
            let (next, timed_out) = self
                .state
                .ready
                .wait_timeout(slot, left)
                .expect("ticket poisoned");
            slot = next;
            if timed_out.timed_out() && slot.is_none() {
                drop(slot);
                return Err(self);
            }
        }
    }
}

/// Upper bound on operations per [`QueryService::apply_writes`] batch.
/// Write admission control: larger batches are refused with
/// [`ServiceError::Protocol`] instead of wedging the single-writer lock.
pub const MAX_WRITE_BATCH: usize = 4096;

/// What travels through the execution queue.
#[derive(Debug)]
struct WorkItem {
    request: Request,
    ticket: Arc<TicketState>,
    accepted: Instant,
}

/// Service tunables.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads (minimum 1).
    pub threads: usize,
    /// Bounded job-queue depth; defaults to `4 × threads`.
    pub queue_depth: usize,
    /// Engine configuration used by [`QueryService::new`].
    pub engine: EngineConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::with_threads(4)
    }
}

impl ServiceConfig {
    /// Config with `threads` workers and the default queue depth/engine.
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        ServiceConfig {
            threads,
            queue_depth: threads * 4,
            engine: EngineConfig::default(),
        }
    }

    /// Overrides the bounded queue depth (minimum 1) — smaller queues shed
    /// earlier under overload, larger ones absorb bigger bursts at the cost
    /// of queueing latency.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }
}

/// Snapshot of the engine's plan-cache counters at the end of a batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheSnapshot {
    /// Total lookups (`hits + misses`).
    pub lookups: u64,
    /// Lookups answered from the cache (PLANGEN skipped).
    pub hits: u64,
    /// Lookups that had to run PLANGEN.
    pub misses: u64,
    /// Plans inserted.
    pub insertions: u64,
    /// Plans evicted by capacity pressure.
    pub evictions: u64,
    /// Entries dropped (or refreshed) because a statistics feedback refit
    /// bumped the catalog generation after they were planned.
    pub stale: u64,
    /// `hits / lookups` in `[0, 1]`.
    pub hit_rate: f64,
}

/// Latency breakdown for the jobs of one [`ExecMode`] within a batch.
#[derive(Clone, Copy, Debug)]
pub struct ModeLatency {
    /// The mode these numbers describe.
    pub mode: ExecMode,
    /// Jobs of this mode in the batch.
    pub queries: usize,
    /// Mean per-query latency.
    pub mean_latency: Duration,
    /// Median per-query latency.
    pub p50_latency: Duration,
    /// 95th-percentile per-query latency.
    pub p95_latency: Duration,
    /// Worst per-query latency.
    pub max_latency: Duration,
}

/// Speculation-lifecycle totals over one batch, aggregated from the
/// per-query [`specqp::RunReport`]s (all zeros under
/// `SpeculationPolicy::Off` or when the batch held no Spec-QP jobs).
#[derive(Clone, Copy, Debug, Default)]
pub struct SpeculationTotals {
    /// Spec-QP jobs in the batch (the runs the lifecycle applies to).
    pub speculative_runs: u64,
    /// Runs the verifier classified as mis-speculated.
    pub mis_speculations: u64,
    /// Runs that took at least one fallback (recovery) stage.
    pub fallback_runs: u64,
    /// Total fallback stages across the batch.
    pub fallback_stages: u64,
    /// Total answer objects created to no effect (`RunReport::wasted_answers`).
    pub wasted_answers: u64,
    /// Total time spent in the verifier.
    pub verify: Duration,
}

impl SpeculationTotals {
    /// `mis_speculations / speculative_runs` in `[0, 1]` (0 when the batch
    /// held no speculative runs).
    pub fn mis_speculation_rate(&self) -> f64 {
        if self.speculative_runs == 0 {
            0.0
        } else {
            self.mis_speculations as f64 / self.speculative_runs as f64
        }
    }

    /// `fallback_runs / speculative_runs` in `[0, 1]`.
    pub fn fallback_rate(&self) -> f64 {
        if self.speculative_runs == 0 {
            0.0
        } else {
            self.fallback_runs as f64 / self.speculative_runs as f64
        }
    }
}

/// Aggregate accounting for one batch run.
#[derive(Clone, Copy, Debug)]
pub struct BatchStats {
    /// Queries executed.
    pub queries: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// `queries / wall` (the BENCH throughput headline).
    pub queries_per_sec: f64,
    /// Mean per-query latency.
    pub mean_latency: Duration,
    /// Median per-query latency.
    pub p50_latency: Duration,
    /// 95th-percentile per-query latency.
    pub p95_latency: Duration,
    /// 99th-percentile per-query latency.
    pub p99_latency: Duration,
    /// Worst per-query latency.
    pub max_latency: Duration,
    /// Per-[`ExecMode`] latency breakdown, indexed by [`ExecMode::index`]
    /// (`None` for modes absent from the batch).
    pub per_mode: [Option<ModeLatency>; 3],
    /// Speculation-lifecycle totals (mis-speculation/fallback counters).
    pub speculation: SpeculationTotals,
    /// Plan-cache counters accumulated on the engine (lifetime totals, not
    /// per-batch deltas, when the service is reused).
    pub cache: CacheSnapshot,
}

/// One batch's results: per-query outcomes in submission order plus
/// aggregate statistics.
#[derive(Debug)]
pub struct BatchReport {
    /// `outcomes[i]` answers `jobs[i]`.
    pub outcomes: Vec<QueryOutcome>,
    /// Throughput/latency/cache accounting.
    pub stats: BatchStats,
}

/// Renders a caught panic payload for re-raising on the driver thread.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// State shared between the service handle and its worker threads.
#[derive(Debug)]
struct Core {
    engine: Arc<Engine<'static>>,
    queue: BoundedQueue<WorkItem>,
    counters: LifetimeCounters,
    threads: usize,
}

impl Core {
    /// Executes one request on the shared engine (also the sequential
    /// reference path).
    fn run_one(&self, query: &Query, mode: ExecMode, k: usize) -> QueryOutcome {
        match mode {
            ExecMode::SpecQp => self.engine.run_specqp(query, k),
            ExecMode::TriniT => self.engine.run_trinit(query, k),
            ExecMode::Naive => self.engine.run_naive(query, k),
        }
    }

    /// The worker loop: drain the queue until close-and-empty, shedding
    /// deadline-expired requests (counted, never run) and completing every
    /// ticket exactly once — panics included, so one poisoned query never
    /// kills the pool.
    fn worker_loop(&self) {
        while let Some(item) = self.queue.pop() {
            let queued = item.accepted.elapsed();
            if let Some(deadline) = item.request.deadline {
                if Instant::now() >= deadline {
                    self.counters.record_shed_deadline();
                    item.ticket.complete(Response {
                        outcome: Err(ServiceError::DeadlineExceeded),
                        queued,
                        execution: Duration::ZERO,
                    });
                    continue;
                }
            }
            let started = Instant::now();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.run_one(&item.request.query, item.request.mode, item.request.k)
            }));
            let execution = started.elapsed();
            let outcome = match result {
                Ok(outcome) => {
                    self.counters.record_completed(item.request.mode, execution);
                    Ok(outcome)
                }
                Err(payload) => {
                    self.counters.record_panicked();
                    Err(ServiceError::Panicked(panic_message(payload.as_ref())))
                }
            };
            item.ticket.complete(Response {
                outcome,
                queued,
                execution,
            });
        }
    }

    /// Back-off estimate for a rejected submission: roughly how long until a
    /// queue slot frees, from the observed mean service time and the current
    /// backlog, clamped to `[1ms, 5s]`.
    fn retry_after_hint(&self) -> Duration {
        let per_query = self
            .counters
            .mean_executed_latency()
            .unwrap_or(Duration::from_millis(1));
        let backlog = (self.queue.len() as u64).max(1);
        let us = per_query.as_micros() as u64 * backlog / self.threads.max(1) as u64;
        Duration::from_micros(us).clamp(Duration::from_millis(1), Duration::from_secs(5))
    }
}

/// A concurrent query service: an `Arc`-shared engine plus a persistent
/// worker pool draining a bounded MPMC queue.
///
/// The service is `Send + Sync`; all entry points take `&self`, so one
/// service serves many clients/batches concurrently (the plan cache and
/// statistics catalog stay warm throughout). Workers live for the life of
/// the service and are drained + joined by [`QueryService::shutdown`] (also
/// called on drop).
#[derive(Debug)]
pub struct QueryService {
    core: Arc<Core>,
    config: ServiceConfig,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl QueryService {
    /// Builds a service around a fresh engine co-owning `graph` and
    /// `registry`, and starts its worker pool.
    pub fn new(
        graph: Arc<KnowledgeGraph>,
        registry: Arc<RelaxationRegistry>,
        config: ServiceConfig,
    ) -> Self {
        let engine = Engine::shared_with_config(graph, registry, config.engine);
        QueryService::with_engine(Arc::new(engine), config)
    }

    /// Builds a service around an existing `'static` engine (custom
    /// cardinality estimator, chain rules, …).
    pub fn with_engine(engine: Arc<Engine<'static>>, config: ServiceConfig) -> Self {
        let core = Arc::new(Core {
            engine,
            queue: BoundedQueue::new(config.queue_depth),
            counters: LifetimeCounters::new(),
            threads: config.threads,
        });
        let workers = (0..config.threads)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("specqp-worker-{i}"))
                    .spawn(move || core.worker_loop())
                    .expect("spawn worker thread")
            })
            .collect();
        QueryService {
            core,
            config,
            workers: Mutex::new(workers),
        }
    }

    /// Builds a service over a [`LiveGraph`] accepting concurrent writes,
    /// and starts its worker pool. Queries pin the version current when
    /// they start (epoch-consistent reads, see [`specqp::PinnedGraph`]);
    /// writers go through [`QueryService::apply_writes`], which commits a
    /// batch and bumps the epoch while in-flight queries keep serving from
    /// the version they pinned.
    pub fn live(
        live: Arc<LiveGraph>,
        registry: Arc<RelaxationRegistry>,
        config: ServiceConfig,
    ) -> Self {
        let engine = Engine::live_with_config(live, registry, config.engine);
        QueryService::with_engine(Arc::new(engine), config)
    }

    /// Boots a service directly from a binary KG snapshot file: the graph is
    /// deserialized with its posting lists intact (no TSV parse, no index
    /// rebuild — see [`kgstore::snapshot`]), wrapped in an `Arc` and shared
    /// by the worker pool. This is the restart-fast path: a service replica
    /// comes up without repeating any of the build work the snapshot froze.
    ///
    /// Returns the typed [`specqp_common::SnapshotError`] (wrapped in
    /// [`specqp_common::Error::Snapshot`]) if the file is missing, truncated
    /// or corrupt.
    pub fn from_snapshot(
        path: impl AsRef<Path>,
        registry: Arc<RelaxationRegistry>,
        config: ServiceConfig,
    ) -> Result<Self> {
        let graph = Arc::new(kgstore::snapshot::load_snapshot(path)?);
        Ok(QueryService::new(graph, registry, config))
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine<'static>> {
        &self.core.engine
    }

    /// The service configuration.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Current plan-cache counters.
    pub fn cache_snapshot(&self) -> CacheSnapshot {
        let m = self.core.engine.plan_cache_metrics();
        CacheSnapshot {
            lookups: m.lookups(),
            hits: m.hits(),
            misses: m.misses(),
            insertions: m.insertions(),
            evictions: m.evictions(),
            stale: m.stale(),
            hit_rate: m.hit_rate(),
        }
    }

    /// Cumulative service-lifetime counters: submissions, sheds, rejections
    /// and per-mode latency totals across every batch and connection served
    /// since construction.
    pub fn lifetime_stats(&self) -> ServiceStats {
        self.core.counters.snapshot()
    }

    /// Current learned-predictor counters on the engine's catalog:
    /// observations fed back by verified runs, confident predictions served
    /// to PLANGEN, and material revisions (each of which bumped the catalog
    /// generation). All zeros unless the engine runs with
    /// [`specqp::EngineConfig::learned`] (`SPECQP_LEARNED=1`).
    pub fn learned_snapshot(&self) -> specqp::LearnedCounters {
        self.core.engine.catalog().learned_counters()
    }

    /// Commits one write batch to the live graph and returns the epoch it
    /// published — the write-path analogue of [`QueryService::try_submit`],
    /// with its own admission control:
    ///
    /// * a service built over an immutable graph (any constructor but
    ///   [`QueryService::live`]) refuses with [`ServiceError::ReadOnly`];
    /// * after [`QueryService::shutdown`] has closed admission, writes are
    ///   refused with [`ServiceError::ShuttingDown`] — queries already
    ///   admitted drain against the epochs they pinned, never against a
    ///   version committed during teardown;
    /// * batches larger than [`MAX_WRITE_BATCH`] are refused with
    ///   [`ServiceError::Protocol`] so one runaway client cannot wedge the
    ///   single-writer lock for an unbounded stretch;
    /// * an empty batch is a no-op returning the current epoch (no bump, no
    ///   plan-cache invalidation).
    ///
    /// The commit itself runs on the caller's thread (writers serialize on
    /// the live graph's writer lock); in-flight queries keep serving from
    /// their pinned versions and the *next* query picks up the new epoch.
    pub fn apply_writes(&self, batch: &WriteBatch) -> std::result::Result<Epoch, ServiceError> {
        let Some(live) = self.core.engine.live_graph() else {
            self.core.counters.record_rejected_write();
            return Err(ServiceError::ReadOnly);
        };
        if self.core.queue.is_closed() {
            self.core.counters.record_rejected_write();
            return Err(ServiceError::ShuttingDown);
        }
        if batch.len() > MAX_WRITE_BATCH {
            self.core.counters.record_rejected_write();
            return Err(ServiceError::Protocol(format!(
                "write batch of {} ops exceeds the {MAX_WRITE_BATCH}-op ceiling",
                batch.len()
            )));
        }
        if batch.is_empty() {
            return Ok(live.epoch());
        }
        let epoch = live.commit(batch);
        self.core.counters.record_writes(batch.len() as u64);
        Ok(epoch)
    }

    /// Forces a compaction of the live graph's delta overlay into a fresh
    /// flat base (see [`LiveGraph::compact`]) and returns the epoch that
    /// published it. Errors mirror [`QueryService::apply_writes`].
    pub fn compact(&self) -> std::result::Result<Epoch, ServiceError> {
        let Some(live) = self.core.engine.live_graph() else {
            return Err(ServiceError::ReadOnly);
        };
        if self.core.queue.is_closed() {
            return Err(ServiceError::ShuttingDown);
        }
        Ok(live.compact())
    }

    /// Submits one request, blocking while the queue is full (backpressure).
    ///
    /// Returns a [`Ticket`] redeemable for the [`Response`]. Fails only
    /// with [`ServiceError::ShuttingDown`] once [`QueryService::shutdown`]
    /// has closed admission.
    pub fn submit(&self, request: Request) -> std::result::Result<Ticket, ServiceError> {
        let (ticket, state) = Ticket::new();
        let item = WorkItem {
            request,
            ticket: state,
            accepted: Instant::now(),
        };
        match self.core.queue.push(item) {
            Ok(()) => {
                self.core.counters.record_submitted();
                Ok(ticket)
            }
            Err(_rejected) => {
                self.core.counters.record_rejected_shutdown();
                Err(ServiceError::ShuttingDown)
            }
        }
    }

    /// Non-blocking admission control: submits only if a queue slot is free
    /// *right now*.
    ///
    /// A full queue is [`ServiceError::QueueFull`] carrying a retry-after
    /// hint derived from the observed mean service time and the backlog —
    /// the wire front-end forwards it as `RetryAfter(ms)` instead of letting
    /// latency grow without bound.
    pub fn try_submit(&self, request: Request) -> std::result::Result<Ticket, ServiceError> {
        let (ticket, state) = Ticket::new();
        let item = WorkItem {
            request,
            ticket: state,
            accepted: Instant::now(),
        };
        match self.core.queue.try_push(item) {
            Ok(()) => {
                self.core.counters.record_submitted();
                Ok(ticket)
            }
            Err(TryPushError::Full(_rejected)) => {
                self.core.counters.record_rejected_queue_full();
                Err(ServiceError::QueueFull {
                    retry_after: self.core.retry_after_hint(),
                })
            }
            Err(TryPushError::Closed(_rejected)) => {
                self.core.counters.record_rejected_shutdown();
                Err(ServiceError::ShuttingDown)
            }
        }
    }

    /// Graceful shutdown: closes admission (subsequent submits fail with
    /// [`ServiceError::ShuttingDown`]), lets the workers drain every
    /// already-admitted request (the queue's drain-on-close contract), and
    /// joins the pool. Idempotent; also called on drop.
    ///
    /// Must not be called from a worker thread (it would join itself).
    pub fn shutdown(&self) {
        self.core.queue.close();
        let handles = std::mem::take(&mut *self.workers.lock().expect("worker list poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Runs every job through the worker pool and returns outcomes in
    /// submission order — a thin batch wrapper over [`QueryService::submit`].
    ///
    /// The driver thread feeds requests into the bounded queue (blocking
    /// backpressure when workers fall behind), workers execute against the
    /// shared engine, and the driver redeems the tickets in submission
    /// order. Execution is deterministic per job, so the answer sets are
    /// identical to a sequential loop over the same jobs.
    ///
    /// # Panics
    /// If a job's execution panics, the worker catches it and keeps
    /// draining the queue (so the driver never deadlocks pushing into a
    /// full queue with dead consumers), and `run_batch` re-panics with the
    /// job index when it redeems that job's ticket.
    pub fn run_batch(&self, jobs: &[QueryJob]) -> BatchReport {
        let t0 = Instant::now();
        let tickets: Vec<Ticket> = jobs
            .iter()
            .map(|job| {
                self.submit(Request::from_job(job))
                    .expect("queue closed while feeding")
            })
            .collect();
        let mut outcomes = Vec::with_capacity(jobs.len());
        let mut latencies = Vec::with_capacity(jobs.len());
        for (i, ticket) in tickets.into_iter().enumerate() {
            let response = ticket.wait();
            match response.outcome {
                Ok(outcome) => {
                    outcomes.push(outcome);
                    latencies.push(response.execution);
                }
                Err(ServiceError::Panicked(msg)) => panic!("query job {i} panicked: {msg}"),
                Err(e) => panic!("query job {i} failed: {e}"),
            }
        }
        let wall = t0.elapsed();
        let mut stats = self.stats_for(&latencies, wall);
        stats.per_mode = mode_breakdown(jobs, &latencies);
        stats.speculation = speculation_totals(jobs, &outcomes);
        BatchReport { outcomes, stats }
    }

    /// Sequential reference run: the same jobs, one at a time, on this
    /// service's *shared* engine — warm plan cache and statistics included,
    /// bypassing the queue and worker pool entirely. Used by the
    /// determinism tests (parallel vs sequential answer sets must match).
    /// For a cold-cache sequential baseline, build a separate
    /// [`QueryService`] over the same `Arc`s instead.
    pub fn run_sequential(&self, jobs: &[QueryJob]) -> Vec<QueryOutcome> {
        jobs.iter()
            .map(|job| self.core.run_one(&job.query, job.mode, job.k))
            .collect()
    }

    fn stats_for(&self, latencies: &[Duration], wall: Duration) -> BatchStats {
        batch_stats(latencies, wall, self.config.threads, self.cache_snapshot())
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Nearest-rank percentile over a **sorted** sample: the smallest value with
/// at least `q·n` of the sample at or below it, i.e. `sorted[⌈q·n⌉ − 1]`.
///
/// The previous implementation used `round((n−1)·q)`, which for even-sized
/// samples picked the element *above* the median (e.g. the 11th of 20 for
/// p50) — one rank too high at every percentile boundary. `Duration::ZERO`
/// for an empty sample.
pub fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    debug_assert!((0.0..=1.0).contains(&q), "percentile out of range: {q}");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `total / queries` without the old `queries as u32` truncation: a lifetime
/// counter past `u32::MAX` used to wrap the divisor — producing a wildly
/// wrong mean or, on an exact multiple of 2³², a division by zero. The
/// division is done in `u128` nanoseconds, which cannot overflow
/// (`Duration::MAX` is < 2¹⁵⁰ ns) and loses no precision.
pub fn mean_latency(total: Duration, queries: u64) -> Duration {
    if queries == 0 {
        return Duration::ZERO;
    }
    let nanos = total.as_nanos() / queries as u128;
    // A mean cannot exceed the u64::MAX-second total it came from, but
    // saturate rather than panic on absurd inputs.
    Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
}

/// Aggregates per-query latencies into a [`BatchStats`] — factored out of
/// the service so the percentile math is unit-testable on hand-built
/// samples. The per-mode breakdown and speculation totals start empty; the
/// batch driver fills them via [`mode_breakdown`] / [`speculation_totals`].
pub fn batch_stats(
    latencies: &[Duration],
    wall: Duration,
    threads: usize,
    cache: CacheSnapshot,
) -> BatchStats {
    let queries = latencies.len();
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    let total: Duration = latencies.iter().sum();
    BatchStats {
        queries,
        threads,
        wall,
        queries_per_sec: if wall.is_zero() {
            0.0
        } else {
            queries as f64 / wall.as_secs_f64()
        },
        mean_latency: mean_latency(total, queries as u64),
        p50_latency: percentile(&sorted, 0.50),
        p95_latency: percentile(&sorted, 0.95),
        p99_latency: percentile(&sorted, 0.99),
        max_latency: sorted.last().copied().unwrap_or(Duration::ZERO),
        per_mode: [None; 3],
        speculation: SpeculationTotals::default(),
        cache,
    }
}

/// Splits per-query latencies by [`ExecMode`] — the per-mode latency
/// breakdown surfaced in [`BatchStats::per_mode`]. `jobs[i]` must correspond
/// to `latencies[i]`.
pub fn mode_breakdown(jobs: &[QueryJob], latencies: &[Duration]) -> [Option<ModeLatency>; 3] {
    debug_assert_eq!(jobs.len(), latencies.len());
    let mut buckets: [Vec<Duration>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (job, &lat) in jobs.iter().zip(latencies) {
        buckets[job.mode.index()].push(lat);
    }
    let mut out = [None; 3];
    for (mode, mut bucket) in ExecMode::ALL.into_iter().zip(buckets) {
        if bucket.is_empty() {
            continue;
        }
        let queries = bucket.len();
        let total: Duration = bucket.iter().sum();
        bucket.sort_unstable();
        out[mode.index()] = Some(ModeLatency {
            mode,
            queries,
            mean_latency: mean_latency(total, queries as u64),
            p50_latency: percentile(&bucket, 0.50),
            p95_latency: percentile(&bucket, 0.95),
            max_latency: *bucket.last().expect("non-empty bucket"),
        });
    }
    out
}

/// Aggregates the speculation lifecycle counters of a batch's outcomes.
/// Only Spec-QP jobs count as speculative runs (TriniT/naive never
/// speculate). `jobs[i]` must correspond to `outcomes[i]`.
pub fn speculation_totals(jobs: &[QueryJob], outcomes: &[QueryOutcome]) -> SpeculationTotals {
    debug_assert_eq!(jobs.len(), outcomes.len());
    let mut totals = SpeculationTotals::default();
    for (job, outcome) in jobs.iter().zip(outcomes) {
        if job.mode != ExecMode::SpecQp {
            continue;
        }
        let r = &outcome.report;
        totals.speculative_runs += 1;
        totals.mis_speculations += u64::from(r.mis_speculated);
        totals.fallback_runs += u64::from(r.fallback_stages > 0);
        totals.fallback_stages += r.fallback_stages;
        totals.wasted_answers += r.wasted_answers;
        totals.verify += r.verify;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgstore::KnowledgeGraphBuilder;
    use relax::{Position, TermRule};
    use sparql::parse_query;

    fn setup() -> (Arc<KnowledgeGraph>, Arc<RelaxationRegistry>) {
        let mut b = KnowledgeGraphBuilder::new();
        for i in 0..40 {
            b.add(&format!("e{i}"), "type", "big", 100.0 / (i + 1) as f64);
        }
        for i in 0..3 {
            b.add(&format!("e{i}"), "type", "small", 10.0 / (i + 1) as f64);
        }
        for i in 0..20 {
            b.add(&format!("e{i}"), "type", "backup", 60.0 / (i + 1) as f64);
        }
        let g = b.build();
        let d = g.dictionary();
        let ty = d.lookup("type").unwrap();
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::with_context(
            Position::Object,
            d.lookup("small").unwrap(),
            d.lookup("backup").unwrap(),
            0.9,
            ty,
        ));
        (Arc::new(g), Arc::new(reg))
    }

    #[test]
    fn service_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryService>();
        assert_send_sync::<BoundedQueue<usize>>();
        assert_send_sync::<Ticket>();
        assert_send_sync::<Request>();
        assert_send_sync::<Response>();
        assert_send_sync::<ServiceError>();
    }

    #[test]
    fn batch_outcomes_in_submission_order() {
        let (g, reg) = setup();
        let service = QueryService::new(g.clone(), reg, ServiceConfig::with_threads(3));
        let big = parse_query("SELECT ?s WHERE { ?s <type> <big> }", g.dictionary()).unwrap();
        let small = parse_query("SELECT ?s WHERE { ?s <type> <small> }", g.dictionary()).unwrap();
        // Alternate shapes so slot order is observable.
        let jobs: Vec<QueryJob> = (0..10)
            .map(|i| {
                if i % 2 == 0 {
                    QueryJob::specqp(big.clone(), 5)
                } else {
                    QueryJob::specqp(small.clone(), 2)
                }
            })
            .collect();
        let report = service.run_batch(&jobs);
        assert_eq!(report.outcomes.len(), 10);
        for (i, o) in report.outcomes.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(o.answers.len(), 5, "slot {i} must hold the big query");
            } else {
                assert!(o.answers.len() >= 2, "slot {i} must hold the small query");
            }
        }
        assert_eq!(report.stats.queries, 10);
        assert!(report.stats.queries_per_sec > 0.0);
        assert!(report.stats.mean_latency <= report.stats.max_latency);
        let c = report.stats.cache;
        assert_eq!(c.hits + c.misses, c.lookups);
        // Two distinct shapes; plan() is lookup→plangen→insert without
        // atomicity, so each shape can miss up to once per concurrently
        // racing worker (3 threads) before the first insert lands.
        assert!(
            (2..=6).contains(&c.misses),
            "misses {} outside [2, shapes × threads]",
            c.misses
        );
        assert!(c.hit_rate > 0.0);
    }

    /// Regression: a panicking job must not deadlock the driver (which
    /// previously could block forever pushing into a full queue whose only
    /// consumers had died). The worker catches the panic, completes the
    /// ticket with `ServiceError::Panicked`, and `run_batch` re-panics with
    /// the job index.
    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let (g, reg) = setup();
        let service = QueryService::new(g.clone(), reg, ServiceConfig::with_threads(1));
        let q = parse_query("SELECT ?s WHERE { ?s <type> <big> }", g.dictionary()).unwrap();
        let mut jobs: Vec<QueryJob> = (0..10).map(|_| QueryJob::specqp(q.clone(), 5)).collect();
        // k = 0 trips plan_query's `k >= 1` assertion inside the worker.
        jobs[0].k = 0;
        // 10 jobs > queue_depth 4: with a dead worker the old code hung here.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.run_batch(&jobs)));
        let payload = result.expect_err("batch with a panicking job must panic");
        let msg = panic_message(payload.as_ref());
        assert!(
            msg.contains("query job 0 panicked"),
            "panic names the job: {msg}"
        );
        // The pool survived the panic: the service still answers.
        let report = service.run_batch(&jobs[1..2]);
        assert_eq!(report.outcomes.len(), 1);
        let stats = service.lifetime_stats();
        assert_eq!(stats.panicked, 1);
    }

    #[test]
    fn submit_ticket_roundtrip() {
        let (g, reg) = setup();
        let service = QueryService::new(g.clone(), reg, ServiceConfig::with_threads(2));
        let q = parse_query("SELECT ?s WHERE { ?s <type> <small> }", g.dictionary()).unwrap();
        let ticket = service.submit(Request::new(q, 5).with_client(7)).unwrap();
        let response = ticket.wait();
        assert!(response.total() >= response.execution);
        assert!(!response.is_shed());
        let outcome = response.outcome.expect("query executed");
        assert_eq!(outcome.answers.len(), 5, "3 small + relaxed backup fill");
        let stats = service.lifetime_stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        let spec = stats.per_mode[ExecMode::SpecQp.index()].expect("specqp totals");
        assert_eq!(spec.queries, 1);
    }

    /// Overload behavior: with workers wedged on slow jobs and the queue
    /// full, `try_submit` returns `QueueFull` immediately instead of
    /// blocking — the admission-control contract the TCP front-end depends
    /// on.
    #[test]
    fn try_submit_on_saturated_queue_returns_queue_full_without_blocking() {
        let (g, reg) = setup();
        let config = ServiceConfig::with_threads(1).with_queue_depth(1);
        let service = QueryService::new(g.clone(), reg, config);
        let big = parse_query("SELECT ?s WHERE { ?s <type> <big> }", g.dictionary()).unwrap();
        // Wedge the single worker: a request whose deadline is far away but
        // whose execution blocks the pool long enough to fill the queue
        // deterministically. A naive-mode self-join over the big list is
        // slow relative to the admission calls below, but to make this
        // airtight we instead wedge with many queued requests: fill the
        // 1-slot queue while the worker chews the first.
        let mut tickets = Vec::new();
        // First submit occupies the worker (possibly instantly popped), the
        // next fills the queue slot; keep try-submitting until one lands in
        // the queue and the next is rejected.
        let t0 = Instant::now();
        let mut saw_queue_full = None;
        for _ in 0..64 {
            match service.try_submit(Request::new(big.clone(), 10)) {
                Ok(t) => tickets.push(t),
                Err(e) => {
                    saw_queue_full = Some(e);
                    break;
                }
            }
        }
        let elapsed = t0.elapsed();
        let err = saw_queue_full.expect("a 1-deep queue must eventually reject");
        match &err {
            ServiceError::QueueFull { retry_after } => {
                assert!(*retry_after >= Duration::from_millis(1));
                assert!(*retry_after <= Duration::from_secs(5));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert!(err.is_retryable());
        // Non-blocking: 64 admission attempts in well under a second even
        // with the pool busy.
        assert!(
            elapsed < Duration::from_secs(5),
            "try_submit must not block: {elapsed:?}"
        );
        assert!(service.lifetime_stats().rejected_queue_full >= 1);
        // Everything admitted still completes.
        for t in tickets {
            let r = t.wait();
            assert!(r.outcome.is_ok());
        }
    }

    /// Overload behavior: a request whose deadline has already passed when a
    /// worker picks it up is shed — counted, never executed.
    #[test]
    fn deadline_expired_requests_are_shed_before_execution() {
        let (g, reg) = setup();
        let service = QueryService::new(
            g.clone(),
            reg,
            ServiceConfig::with_threads(1).with_queue_depth(8),
        );
        let q = parse_query("SELECT ?s WHERE { ?s <type> <big> }", g.dictionary()).unwrap();
        // An already-expired deadline: the worker must shed it however fast
        // it dequeues.
        let expired = Instant::now() - Duration::from_millis(1);
        let ticket = service
            .submit(Request::new(q.clone(), 5).with_deadline(expired))
            .unwrap();
        let response = ticket.wait();
        assert!(response.is_shed());
        assert_eq!(
            response.outcome.unwrap_err(),
            ServiceError::DeadlineExceeded
        );
        assert_eq!(response.execution, Duration::ZERO, "shed jobs never run");
        let stats = service.lifetime_stats();
        assert_eq!(stats.shed_deadline, 1);
        assert_eq!(stats.executed(), 0, "shed request must not execute");
        // A request with a generous deadline still executes normally.
        let ok = service
            .submit(Request::new(q, 5).with_deadline_in(Duration::from_secs(30)))
            .unwrap()
            .wait();
        assert!(ok.outcome.is_ok());
    }

    /// Graceful shutdown: everything admitted before `shutdown` completes
    /// (drain-on-close), and submissions after it fail with `ShuttingDown`.
    #[test]
    fn shutdown_drains_in_flight_requests() {
        let (g, reg) = setup();
        let service = QueryService::new(
            g.clone(),
            reg,
            ServiceConfig::with_threads(2).with_queue_depth(16),
        );
        let q = parse_query("SELECT ?s WHERE { ?s <type> <big> }", g.dictionary()).unwrap();
        let tickets: Vec<Ticket> = (0..12)
            .map(|_| service.submit(Request::new(q.clone(), 5)).unwrap())
            .collect();
        service.shutdown();
        // Every admitted request was executed, none dropped.
        for t in tickets {
            let r = t.wait();
            assert_eq!(
                r.outcome.expect("drained request executed").answers.len(),
                5
            );
        }
        let e = service.submit(Request::new(q.clone(), 5)).unwrap_err();
        assert_eq!(e, ServiceError::ShuttingDown);
        let e = service.try_submit(Request::new(q, 5)).unwrap_err();
        assert_eq!(e, ServiceError::ShuttingDown);
        let stats = service.lifetime_stats();
        assert_eq!(stats.completed, 12);
        assert_eq!(stats.rejected_shutdown, 2);
        // Idempotent.
        service.shutdown();
    }

    #[test]
    fn ticket_wait_timeout_returns_ticket_until_ready() {
        let (g, reg) = setup();
        let service = QueryService::new(g.clone(), reg, ServiceConfig::with_threads(1));
        let q = parse_query("SELECT ?s WHERE { ?s <type> <small> }", g.dictionary()).unwrap();
        let ticket = service.submit(Request::new(q, 5)).unwrap();
        // Either it resolves within 5s or we get the ticket back and block.
        match ticket.wait_timeout(Duration::from_secs(5)) {
            Ok(response) => assert!(response.outcome.is_ok()),
            Err(ticket) => {
                let response = ticket.wait();
                assert!(response.outcome.is_ok());
            }
        }
    }

    #[test]
    fn from_snapshot_answers_like_builder_path() {
        let (g, reg) = setup();
        let path = std::env::temp_dir().join(format!(
            "specqp_service_snapshot_{}.snap",
            std::process::id()
        ));
        kgstore::snapshot::save_snapshot(&g, &path).unwrap();
        let q = parse_query("SELECT ?s WHERE { ?s <type> <small> }", g.dictionary()).unwrap();
        let jobs = vec![QueryJob::specqp(q, 5)];

        let direct = QueryService::new(g.clone(), reg.clone(), ServiceConfig::with_threads(2));
        let booted =
            QueryService::from_snapshot(&path, reg, ServiceConfig::with_threads(2)).unwrap();
        let a = direct.run_batch(&jobs);
        let b = booted.run_batch(&jobs);
        assert_eq!(a.outcomes[0].answers.len(), b.outcomes[0].answers.len());
        for (x, y) in a.outcomes[0].answers.iter().zip(&b.outcomes[0].answers) {
            assert_eq!(x.score, y.score);
            assert_eq!(x.binding, y.binding);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn from_snapshot_missing_file_is_typed_error() {
        let (_, reg) = setup();
        let e = QueryService::from_snapshot(
            "/nonexistent/specqp_service.snap",
            reg,
            ServiceConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(
                e,
                specqp_common::Error::Snapshot(specqp_common::SnapshotError::Io(_))
            ),
            "{e:?}"
        );
    }

    /// Pins the nearest-rank definition on a hand-built sample: for
    /// `n = 20` with values `1..=20` ms, p50 is the 10th value (10 ms, not
    /// the 11th — the off-by-one the old `round((n−1)·q)` formula produced),
    /// p95 the 19th and p99 the 20th.
    #[test]
    fn percentiles_use_nearest_rank() {
        let ms = Duration::from_millis;
        let sample: Vec<Duration> = (1..=20).map(ms).collect();
        assert_eq!(percentile(&sample, 0.50), ms(10));
        assert_eq!(percentile(&sample, 0.95), ms(19));
        assert_eq!(percentile(&sample, 0.99), ms(20));
        assert_eq!(percentile(&sample, 1.0), ms(20));
        assert_eq!(percentile(&sample, 0.0), ms(1));
        // Odd-sized sample: p50 is the true middle element.
        let odd: Vec<Duration> = (1..=5).map(ms).collect();
        assert_eq!(percentile(&odd, 0.50), ms(3));
    }

    #[test]
    fn percentiles_single_sample_and_duplicates() {
        let ms = Duration::from_millis;
        // n = 1: every percentile is the one sample.
        let one = vec![ms(7)];
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&one, q), ms(7), "q={q}");
        }
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
        // Duplicate values: ties collapse to the same answer at every rank.
        let dup = vec![ms(5); 10];
        assert_eq!(percentile(&dup, 0.5), ms(5));
        assert_eq!(percentile(&dup, 0.99), ms(5));
        // Mixed duplicates: 9×1ms + 1×100ms — p50 sits in the duplicate
        // mass, p95/p99 pick the outlier.
        let mut mixed: Vec<Duration> = vec![ms(1); 9];
        mixed.push(ms(100));
        assert_eq!(percentile(&mixed, 0.50), ms(1));
        assert_eq!(percentile(&mixed, 0.95), ms(100));
        assert_eq!(percentile(&mixed, 0.99), ms(100));
    }

    #[test]
    fn batch_stats_aggregates_hand_built_sample() {
        let ms = Duration::from_millis;
        let latencies: Vec<Duration> = (1..=4).map(ms).collect();
        let stats = batch_stats(&latencies, ms(10), 2, CacheSnapshot::default());
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.mean_latency, Duration::from_micros(2500));
        assert_eq!(stats.p50_latency, ms(2));
        assert_eq!(stats.p95_latency, ms(4));
        assert_eq!(stats.p99_latency, ms(4));
        assert_eq!(stats.max_latency, ms(4));
        assert!((stats.queries_per_sec - 400.0).abs() < 1e-9);
        // Ordering invariants.
        assert!(stats.p50_latency <= stats.p95_latency);
        assert!(stats.p95_latency <= stats.p99_latency);
        assert!(stats.p99_latency <= stats.max_latency);
    }

    /// Regression: the mean used to be computed as `total / queries as u32`,
    /// so a lifetime counter past `u32::MAX` wrapped the divisor — e.g.
    /// `u32::MAX + 2` queries divided by 1 — and an exact multiple of 2³²
    /// divided by zero. The division must happen in full width.
    #[test]
    fn mean_latency_survives_counts_beyond_u32() {
        let n = u32::MAX as u64 + 2;
        // n queries of 1ms each: the mean is exactly 1ms. Under the old
        // truncation the divisor wrapped to 1 and the "mean" was the total.
        let total = Duration::from_millis(n);
        assert_eq!(mean_latency(total, n), Duration::from_millis(1));
        // An exact multiple of 2³² used to divide by zero.
        let n = (u32::MAX as u64 + 1) * 2;
        assert_eq!(
            mean_latency(Duration::from_millis(n), n),
            Duration::from_millis(1)
        );
        // Degenerate inputs stay sane.
        assert_eq!(mean_latency(Duration::ZERO, 0), Duration::ZERO);
        assert_eq!(mean_latency(Duration::from_secs(5), 0), Duration::ZERO);
        assert_eq!(
            mean_latency(Duration::from_micros(2500 * 4), 4),
            Duration::from_micros(2500)
        );
    }

    /// Config plumb-through: services built with different block sizes
    /// answer exactly alike.
    #[test]
    fn block_size_services_answer_alike() {
        use operators::ExecutionMode;
        use specqp::EngineConfig;
        let (g, reg) = setup();
        let q = parse_query(
            "SELECT ?s WHERE { ?s <type> <big> . ?s <type> <small> }",
            g.dictionary(),
        )
        .unwrap();
        let jobs: Vec<QueryJob> = vec![
            QueryJob::specqp(q.clone(), 10),
            QueryJob::trinit(q.clone(), 5),
            QueryJob::naive(q, 5),
        ];
        let mk = |mode: ExecutionMode| {
            let mut cfg = ServiceConfig::with_threads(2);
            cfg.engine = EngineConfig::default().with_execution(mode);
            QueryService::new(g.clone(), reg.clone(), cfg)
        };
        let default = mk(ExecutionMode::default()).run_batch(&jobs);
        for size in [1, 64] {
            let block = mk(ExecutionMode::Block(size)).run_batch(&jobs);
            for (a, b) in default.outcomes.iter().zip(&block.outcomes) {
                assert_eq!(a.answers, b.answers, "size {size}");
            }
        }
    }

    /// The learned-predictor counters surface: a learned service counts one
    /// observation per verified Spec-QP run; a default service stays at 0.
    #[test]
    fn learned_snapshot_counts_observations() {
        use specqp::{EngineConfig, SpeculationPolicy};
        let (g, reg) = setup();
        let q = parse_query(
            "SELECT ?s WHERE { ?s <type> <big> . ?s <type> <small> }",
            g.dictionary(),
        )
        .unwrap();
        let mut cfg = ServiceConfig::with_threads(2);
        cfg.engine = EngineConfig::default()
            .with_speculation(SpeculationPolicy::Fallback { max_stages: 3 })
            .with_learned(true);
        let svc = QueryService::new(g.clone(), reg.clone(), cfg);
        assert_eq!(svc.learned_snapshot().observations, 0);
        let jobs: Vec<QueryJob> = (0..4).map(|_| QueryJob::specqp(q.clone(), 5)).collect();
        let _ = svc.run_batch(&jobs);
        let counters = svc.learned_snapshot();
        assert_eq!(counters.observations, 4, "one observation per run");
    }

    #[test]
    fn mode_breakdown_splits_latencies_by_mode() {
        let ms = Duration::from_millis;
        let (g, _) = setup();
        let q = parse_query("SELECT ?s WHERE { ?s <type> <big> }", g.dictionary()).unwrap();
        let jobs = vec![
            QueryJob::specqp(q.clone(), 5),
            QueryJob::trinit(q.clone(), 5),
            QueryJob::specqp(q.clone(), 5),
            QueryJob::specqp(q, 5),
        ];
        let latencies = vec![ms(10), ms(100), ms(20), ms(30)];
        let per_mode = mode_breakdown(&jobs, &latencies);
        let spec = per_mode[ExecMode::SpecQp.index()].expect("specqp present");
        assert_eq!(spec.queries, 3);
        assert_eq!(spec.mean_latency, ms(20));
        assert_eq!(spec.p50_latency, ms(20));
        assert_eq!(spec.max_latency, ms(30));
        let trinit = per_mode[ExecMode::TriniT.index()].expect("trinit present");
        assert_eq!(trinit.queries, 1);
        assert_eq!(trinit.mean_latency, ms(100));
        assert!(per_mode[ExecMode::Naive.index()].is_none(), "no naive jobs");
        assert_eq!(ExecMode::SpecQp.label(), "specqp");
        assert_eq!(ExecMode::from_index(1), Some(ExecMode::TriniT));
        assert_eq!(ExecMode::from_index(3), None);
    }

    #[test]
    fn speculation_totals_aggregate_specqp_reports_only() {
        let (g, _) = setup();
        let q = parse_query("SELECT ?s WHERE { ?s <type> <big> }", g.dictionary()).unwrap();
        let jobs = vec![QueryJob::specqp(q.clone(), 5), QueryJob::trinit(q, 5)];
        let mk = |stages: u64, wasted: u64, mis: bool| specqp::QueryOutcome {
            answers: Vec::new(),
            plan: specqp::QueryPlan::all_relaxed(1),
            report: specqp::RunReport {
                fallback_stages: stages,
                wasted_answers: wasted,
                mis_speculated: mis,
                verify: Duration::from_micros(7),
                ..Default::default()
            },
        };
        // The trinit outcome's counters must be ignored even if set.
        let totals = speculation_totals(&jobs, &[mk(2, 40, true), mk(9, 99, true)]);
        assert_eq!(totals.speculative_runs, 1);
        assert_eq!(totals.mis_speculations, 1);
        assert_eq!(totals.fallback_runs, 1);
        assert_eq!(totals.fallback_stages, 2);
        assert_eq!(totals.wasted_answers, 40);
        assert_eq!(totals.verify, Duration::from_micros(7));
        assert!((totals.mis_speculation_rate() - 1.0).abs() < 1e-12);
        assert!((totals.fallback_rate() - 1.0).abs() < 1e-12);
        assert_eq!(SpeculationTotals::default().mis_speculation_rate(), 0.0);
    }

    /// End-to-end: a ForceFinal-policy service reports one fallback stage
    /// per Spec-QP job in `BatchStats::speculation`, with the per-mode
    /// breakdown covering every submitted mode.
    #[test]
    fn batch_report_surfaces_fallback_counters() {
        use specqp::{EngineConfig, SpeculationPolicy};
        let (g, reg) = setup();
        let q = parse_query(
            "SELECT ?s WHERE { ?s <type> <big> . ?s <type> <small> }",
            g.dictionary(),
        )
        .unwrap();
        let mut cfg = ServiceConfig::with_threads(2);
        cfg.engine = EngineConfig::default().with_speculation(SpeculationPolicy::ForceFinal);
        let service = QueryService::new(g.clone(), reg, cfg);
        let jobs = vec![
            QueryJob::specqp(q.clone(), 10),
            QueryJob::specqp(q.clone(), 10),
            QueryJob::trinit(q, 10),
        ];
        let report = service.run_batch(&jobs);
        let s = report.stats.speculation;
        assert_eq!(s.speculative_runs, 2);
        assert_eq!(s.fallback_stages, 2, "one forced stage per specqp job");
        assert_eq!(s.fallback_runs, 2);
        assert!((s.fallback_rate() - 1.0).abs() < 1e-12);
        assert!(report.stats.per_mode[ExecMode::SpecQp.index()].is_some());
        assert!(report.stats.per_mode[ExecMode::TriniT.index()].is_some());
        assert!(report.stats.per_mode[ExecMode::Naive.index()].is_none());
        // Forced-final Spec-QP answers equal the TriniT job's answers.
        assert_eq!(report.outcomes[0].answers, report.outcomes[2].answers);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (g, reg) = setup();
        let service = QueryService::new(g, reg, ServiceConfig::with_threads(2));
        let report = service.run_batch(&[]);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.stats.queries, 0);
        assert_eq!(report.stats.mean_latency, Duration::ZERO);
    }

    /// The write path end to end: a live service answers, accepts a write
    /// batch, serves the new triple on the next query, and enforces write
    /// admission control (read-only services, over-ceiling batches, and
    /// post-shutdown writes are all refused with typed errors).
    #[test]
    fn live_service_applies_writes_and_enforces_admission() {
        use kgstore::{LiveGraph, WriteBatch};
        let (g, reg) = setup();
        let q = parse_query("SELECT ?s WHERE { ?s <type> <big> }", g.dictionary()).unwrap();
        let base = Arc::try_unwrap(g).unwrap_or_else(|a| a.flattened());
        let live = Arc::new(LiveGraph::new(base));
        let service = QueryService::live(
            Arc::clone(&live),
            reg.clone(),
            ServiceConfig::with_threads(2),
        );

        let before = service.run_batch(&[QueryJob::specqp(q.clone(), 50)]);
        let n = before.outcomes[0].answers.len();

        // Empty batch: a no-op, no epoch bump.
        let e0 = service.apply_writes(&WriteBatch::new()).unwrap();
        assert_eq!(e0, kgstore::Epoch::ZERO);

        let mut batch = WriteBatch::new();
        batch.assert("fresh", "type", "big", 999.0);
        let e1 = service.apply_writes(&batch).unwrap();
        assert_eq!(e1.value(), 1);
        let after = service.run_batch(&[QueryJob::specqp(q.clone(), 50)]);
        assert_eq!(after.outcomes[0].answers.len(), n + 1);

        // Over-ceiling batch: refused before touching the writer lock.
        let mut huge = WriteBatch::new();
        for i in 0..=MAX_WRITE_BATCH {
            huge.assert(&format!("x{i}"), "type", "big", 1.0);
        }
        assert!(matches!(
            service.apply_writes(&huge),
            Err(ServiceError::Protocol(_))
        ));

        let stats = service.lifetime_stats();
        assert_eq!(stats.write_batches, 1);
        assert_eq!(stats.write_ops, 1);
        assert_eq!(stats.rejected_writes, 1);

        // Forced compaction folds the delta; answers are unchanged.
        let e2 = service.compact().unwrap();
        assert!(e2 > e1);
        let folded = service.run_batch(&[QueryJob::specqp(q.clone(), 50)]);
        assert_eq!(folded.outcomes[0].answers, after.outcomes[0].answers);

        // Shutdown closes the write path too.
        service.shutdown();
        assert_eq!(
            service.apply_writes(&batch).unwrap_err(),
            ServiceError::ShuttingDown
        );
        assert_eq!(service.compact().unwrap_err(), ServiceError::ShuttingDown);

        // A read-only service refuses writes outright.
        let (g2, reg2) = setup();
        let ro = QueryService::new(g2, reg2, ServiceConfig::with_threads(1));
        assert_eq!(ro.apply_writes(&batch).unwrap_err(), ServiceError::ReadOnly);
        assert_eq!(ro.compact().unwrap_err(), ServiceError::ReadOnly);
        assert_eq!(ro.lifetime_stats().rejected_writes, 1);
    }

    #[test]
    fn single_thread_service_works() {
        let (g, reg) = setup();
        let service = QueryService::new(g.clone(), reg, ServiceConfig::with_threads(1));
        let q = parse_query("SELECT ?s WHERE { ?s <type> <small> }", g.dictionary()).unwrap();
        let report = service.run_batch(&[QueryJob::trinit(q, 5)]);
        assert_eq!(report.outcomes.len(), 1);
        assert!(!report.outcomes[0].answers.is_empty());
    }
}
