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
//! [`QueryService::lifetime_stats`] reports cumulative counters across all
//! requests and connections.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use kgstore::KnowledgeGraphBuilder;
//! use relax::RelaxationRegistry;
//! use sparql::parse_query;
//! use specqp_service::{QueryService, Request, ServiceConfig, Ticket};
//!
//! let mut b = KnowledgeGraphBuilder::new();
//! b.add("shakira", "rdf:type", "singer", 100.0);
//! b.add("adele", "rdf:type", "singer", 90.0);
//! let graph = Arc::new(b.build());
//! let registry = Arc::new(RelaxationRegistry::new());
//!
//! let q = parse_query("SELECT ?s WHERE { ?s <rdf:type> <singer> }", graph.dictionary()).unwrap();
//! let service = QueryService::new(graph, registry, ServiceConfig::with_threads(2));
//! let tickets: Vec<Ticket> = (0..8)
//!     .map(|_| service.submit(Request::new(q.clone(), 5)).unwrap())
//!     .collect();
//! for ticket in tickets {
//!     assert_eq!(ticket.wait().outcome.unwrap().answers.len(), 2);
//! }
//! // The 8 identical shapes share one cached plan; at most one racing
//! // miss per worker thread before the first insert lands.
//! assert!(service.engine().plan_cache_metrics().hits() >= 6);
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

/// Which executor a request runs through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Speculative planning + execution (the paper's Spec-QP), including
    /// the engine's speculation lifecycle when a policy is configured.
    SpecQp,
    /// The TriniT baseline: every pattern relaxed, no planning.
    TriniT,
}

impl ExecMode {
    /// Every mode, in the order used by [`ServiceStats::per_mode`].
    pub const ALL: [ExecMode; 2] = [ExecMode::SpecQp, ExecMode::TriniT];

    /// Stable index of this mode inside [`ExecMode::ALL`].
    pub fn index(self) -> usize {
        match self {
            ExecMode::SpecQp => 0,
            ExecMode::TriniT => 1,
        }
    }

    /// Inverse of [`ExecMode::index`] — the wire protocol sends modes as
    /// this byte.
    pub fn from_index(i: usize) -> Option<ExecMode> {
        ExecMode::ALL.get(i).copied()
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

/// Renders a caught panic payload as the request's error message.
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
    /// Executes one request on the shared engine.
    fn run_one(&self, query: &Query, mode: ExecMode, k: usize) -> QueryOutcome {
        match mode {
            ExecMode::SpecQp => self.engine.run_specqp(query, k),
            ExecMode::TriniT => self.engine.run_trinit(query, k),
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
        let us = per_query.as_micros() as u64 * backlog / self.threads as u64;
        Duration::from_micros(us).clamp(Duration::from_millis(1), Duration::from_secs(5))
    }
}

/// A concurrent query service: an `Arc`-shared engine plus a persistent
/// worker pool draining a bounded MPMC queue.
///
/// The service is `Send + Sync`; all entry points take `&self`, so one
/// service serves many clients concurrently (the plan cache and
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
        let engine = Engine::with_config(graph, registry, config.engine);
        QueryService::with_engine(Arc::new(engine), config)
    }

    /// Builds a service around an existing `'static` engine, for a caller
    /// that built the engine itself (over any [`GraphHandle`](specqp::GraphHandle))
    /// or keeps a handle to it. A `threads` of 0 starts one worker: a pool
    /// without workers would never serve a request.
    pub fn with_engine(engine: Arc<Engine<'static>>, config: ServiceConfig) -> Self {
        let config = ServiceConfig {
            threads: config.threads.max(1),
            ..config
        };
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
        let engine = Engine::with_config(live, registry, config.engine);
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

    /// Cumulative service-lifetime counters: submissions, sheds, rejections
    /// and per-mode latency totals across every request and connection
    /// served since construction.
    pub fn lifetime_stats(&self) -> ServiceStats {
        self.core.counters.snapshot()
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
    /// * a batch with an assert whose score is NaN, negative or infinite is
    ///   refused whole with [`ServiceError::Protocol`] naming the first such
    ///   op, before anything commits;
    /// * an empty batch is a no-op returning the current epoch (no bump, so
    ///   cached plans stay current).
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
        if let Some(i) = batch.ops().iter().position(|op| !op.has_valid_score()) {
            self.core.counters.record_rejected_write();
            return Err(ServiceError::Protocol(format!(
                "write op {i} asserts a score that is not finite and non-negative"
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
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown();
    }
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

    /// Submits every request, then redeems the tickets in submission order.
    fn run_all(service: &QueryService, requests: Vec<Request>) -> Vec<QueryOutcome> {
        let tickets: Vec<Ticket> = requests
            .into_iter()
            .map(|r| service.submit(r).unwrap())
            .collect();
        tickets
            .into_iter()
            .map(|t| t.wait().outcome.expect("request executed"))
            .collect()
    }

    #[test]
    fn tickets_answer_their_own_requests() {
        let (g, reg) = setup();
        let service = QueryService::new(g.clone(), reg, ServiceConfig::with_threads(3));
        let big = parse_query("SELECT ?s WHERE { ?s <type> <big> }", g.dictionary()).unwrap();
        let small = parse_query("SELECT ?s WHERE { ?s <type> <small> }", g.dictionary()).unwrap();
        // Alternate shapes so a mixed-up ticket is observable.
        let requests = (0..10)
            .map(|i| {
                if i % 2 == 0 {
                    Request::new(big.clone(), 5)
                } else {
                    Request::new(small.clone(), 2)
                }
            })
            .collect();
        let outcomes = run_all(&service, requests);
        for (i, o) in outcomes.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(o.answers.len(), 5, "ticket {i} must hold the big query");
            } else {
                assert!(o.answers.len() >= 2, "ticket {i} must hold the small query");
            }
        }
        assert_eq!(service.lifetime_stats().completed, 10);
        let c = service.engine().plan_cache_metrics();
        assert_eq!(c.hits() + c.misses(), c.lookups());
        // Two distinct shapes; plan() is lookup→plangen→insert without
        // atomicity, so each shape can miss up to once per concurrently
        // racing worker (3 threads) before the first insert lands.
        assert!(
            (2..=6).contains(&c.misses()),
            "misses {} outside [2, shapes × threads]",
            c.misses()
        );
    }

    /// Regression: a panicking request must not take its worker down. The
    /// worker catches the panic, completes the ticket with
    /// `ServiceError::Panicked`, and keeps draining the queue.
    #[test]
    fn worker_panic_completes_the_ticket_and_the_pool_survives() {
        let (g, reg) = setup();
        let service = QueryService::new(g.clone(), reg, ServiceConfig::with_threads(1));
        let q = parse_query("SELECT ?s WHERE { ?s <type> <big> }", g.dictionary()).unwrap();
        // k = 0 trips plan_query's `k >= 1` assertion inside the worker.
        // 10 requests > queue_depth 4: with a dead worker, submit would hang.
        let tickets: Vec<Ticket> = (0..10)
            .map(|i| {
                let k = if i == 0 { 0 } else { 5 };
                service.submit(Request::new(q.clone(), k)).unwrap()
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            match t.wait().outcome {
                Err(ServiceError::Panicked(_)) => assert_eq!(i, 0),
                Ok(outcome) => assert_eq!(outcome.answers.len(), 5, "request {i}"),
                Err(e) => panic!("request {i}: {e}"),
            }
        }
        assert_eq!(service.lifetime_stats().panicked, 1);
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
        assert_eq!(ExecMode::from_index(1), Some(ExecMode::TriniT));
        assert_eq!(ExecMode::from_index(2), None);
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
        // Wedge the single worker with many queued requests: fill the
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

        let direct = QueryService::new(g.clone(), reg.clone(), ServiceConfig::with_threads(2));
        let booted =
            QueryService::from_snapshot(&path, reg, ServiceConfig::with_threads(2)).unwrap();
        let a = run_all(&direct, vec![Request::new(q.clone(), 5)]);
        let b = run_all(&booted, vec![Request::new(q, 5)]);
        assert_eq!(a[0].answers, b[0].answers);
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

    /// Config plumb-through: services built with different block sizes
    /// answer exactly alike.
    #[test]
    fn block_size_services_answer_alike() {
        use operators::ExecutionMode;
        let (g, reg) = setup();
        let q = parse_query(
            "SELECT ?s WHERE { ?s <type> <big> . ?s <type> <small> }",
            g.dictionary(),
        )
        .unwrap();
        let requests = || {
            vec![
                Request::new(q.clone(), 10),
                Request::new(q.clone(), 5).with_mode(ExecMode::TriniT),
            ]
        };
        let run = |execution: ExecutionMode| {
            let engine = EngineConfig {
                execution,
                ..EngineConfig::default()
            };
            let cfg = ServiceConfig {
                engine,
                ..ServiceConfig::with_threads(2)
            };
            run_all(&QueryService::new(g.clone(), reg.clone(), cfg), requests())
        };
        let default = run(ExecutionMode::default());
        for size in [1, 64] {
            for (a, b) in default.iter().zip(run(ExecutionMode::Block(size))) {
                assert_eq!(a.answers, b.answers, "size {size}");
            }
        }
    }

    /// Workers run the speculation policy of `ServiceConfig::engine`: on a
    /// query PLANGEN mis-speculates — `small` fills 3 of 10 slots, and its
    /// one relaxation (to a class nobody belongs to) looks too weak to
    /// plan — a `Fallback` service verifies, flags the under-fill and takes
    /// a recovery stage, while an `Off` service returns the speculative
    /// answers as they are. Both answer alike: the relaxation has no rows.
    #[test]
    fn workers_run_the_configured_speculation_policy() {
        use specqp::SpeculationPolicy;
        let (g, _) = setup();
        let d = g.dictionary();
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::with_context(
            Position::Object,
            d.lookup("small").unwrap(),
            d.lookup("e5").unwrap(),
            0.9,
            d.lookup("type").unwrap(),
        ));
        let reg = Arc::new(reg);
        let q = parse_query("SELECT ?s WHERE { ?s <type> <small> }", d).unwrap();
        let run = |speculation: SpeculationPolicy| {
            let engine = EngineConfig {
                speculation,
                ..EngineConfig::default()
            };
            let cfg = ServiceConfig {
                engine,
                ..ServiceConfig::with_threads(2)
            };
            let service = QueryService::new(g.clone(), reg.clone(), cfg);
            run_all(&service, vec![Request::new(q.clone(), 10)]).remove(0)
        };
        let fallback = run(SpeculationPolicy::Fallback { max_stages: 3 });
        let off = run(SpeculationPolicy::Off);
        assert!(!off.plan.is_relaxed(0), "PLANGEN pruned the relaxation");
        assert!(!off.report.mis_speculated);
        assert_eq!(off.report.fallback_stages, 0);
        assert!(fallback.report.mis_speculated);
        assert_eq!(fallback.report.fallback_stages, 1);
        assert!(fallback.plan.is_relaxed(0), "the recovery escalated it");
        assert_eq!(fallback.answers, off.answers);
        assert_eq!(off.answers.len(), 3);
    }

    /// A batch holding a score that is NaN, negative or infinite is refused
    /// whole before the commit: a protocol error naming the op, no epoch
    /// bump, one rejected write, and the earlier good ops are not applied.
    #[test]
    fn writes_with_invalid_scores_are_refused() {
        use kgstore::{LiveGraph, WriteBatch};
        let (g, reg) = setup();
        let q = parse_query("SELECT ?s WHERE { ?s <type> <big> }", g.dictionary()).unwrap();
        let base = Arc::try_unwrap(g).unwrap_or_else(|a| a.flattened());
        let live = Arc::new(LiveGraph::new(base));
        let service = QueryService::live(
            Arc::clone(&live),
            reg.clone(),
            ServiceConfig::with_threads(1),
        );
        let before = run_all(&service, vec![Request::new(q.clone(), 50)]).remove(0);
        for (n, bad) in [f64::NAN, -1.0, f64::INFINITY].into_iter().enumerate() {
            let mut batch = WriteBatch::new();
            batch.assert("fresh", "type", "big", 999.0);
            batch.assert("bad", "type", "big", bad);
            match service.apply_writes(&batch) {
                Err(ServiceError::Protocol(msg)) => {
                    assert!(msg.contains("op 1"), "names the op: {msg}")
                }
                other => panic!("score {bad}: expected a protocol error, got {other:?}"),
            }
            assert_eq!(live.epoch(), kgstore::Epoch::ZERO);
            assert_eq!(service.lifetime_stats().rejected_writes, n as u64 + 1);
        }
        assert_eq!(service.lifetime_stats().write_batches, 0);
        let after = run_all(&service, vec![Request::new(q, 50)]).remove(0);
        assert_eq!(after.answers, before.answers);
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

        let run = || run_all(&service, vec![Request::new(q.clone(), 50)]).remove(0);
        let n = run().answers.len();

        // Empty batch: a no-op, no epoch bump.
        let e0 = service.apply_writes(&WriteBatch::new()).unwrap();
        assert_eq!(e0, kgstore::Epoch::ZERO);

        let mut batch = WriteBatch::new();
        batch.assert("fresh", "type", "big", 999.0);
        let e1 = service.apply_writes(&batch).unwrap();
        assert_eq!(e1.value(), 1);
        let after = run();
        assert_eq!(after.answers.len(), n + 1);

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
        assert_eq!(run().answers, after.answers);

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
        let outcomes = run_all(
            &service,
            vec![Request::new(q, 5).with_mode(ExecMode::TriniT)],
        );
        assert!(!outcomes[0].answers.is_empty());
    }

    /// Regression: a struct literal with `threads: 0` used to start no
    /// workers, so every request waited forever. The timeout turns a
    /// regression into a failure instead of a hang.
    #[test]
    fn zero_thread_config_still_serves() {
        let (g, reg) = setup();
        let cfg = ServiceConfig {
            threads: 0,
            ..ServiceConfig::with_threads(1)
        };
        let service = QueryService::new(g.clone(), reg, cfg);
        assert_eq!(service.config().threads, 1);
        let q = parse_query("SELECT ?s WHERE { ?s <type> <small> }", g.dictionary()).unwrap();
        let ticket = service.submit(Request::new(q, 5)).unwrap();
        let response = ticket
            .wait_timeout(Duration::from_secs(30))
            .expect("a zero-thread config must still serve requests");
        assert_eq!(response.outcome.unwrap().answers.len(), 5);
    }
}
