//! The benchmark's contract with the codebase.
//!
//! Every call from `specbench` into a workspace crate goes through this
//! file, and no other file of the benchmark names a workspace crate. The
//! signatures below are therefore exactly what a later API-collapsing change
//! (ROADMAP item 3: one executor, one snapshot format, one `Engine`
//! constructor, one configuration surface) must keep compiling — such a
//! change claims a gain and so may not edit the benchmark. If a crate API
//! used here has to move, keep a function of the same name and shape
//! reachable from the umbrella crate.
//!
//! Nothing here measures: the functions are thin, and the callers put their
//! own `Instant` around them. `RunReport` durations are never read — only
//! its exact counts (fallback stages, wasted answers, the mis-speculation
//! flag); operator counts come from an `OpMetrics` handle the caller owns.

use crate::check::{Ans, IdAns, NameAns};
use spec_qp::datagen::{TwitterConfig, TwitterGenerator, XkgConfig, XkgGenerator};
use spec_qp::kgstore::{self, CompactionPolicy};
use spec_qp::operators::{ExecutionMode, OpMetrics, PullStrategy};
use spec_qp::server::protocol::{decode_response, encode_answers};
use spec_qp::server::{ErrorCode, ServerConfig, WireResponse};
use spec_qp::service::{Request, ServiceConfig};
use spec_qp::specqp::{self, EngineConfig, SpeculationPolicy};
use spec_qp::stats::{CardinalityEstimator, RefitMode, ScoreEstimator};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

pub use spec_qp::kgstore::{KnowledgeGraph as Graph, LiveGraph, PatternKey, WriteBatch};
pub use spec_qp::operators::PartialAnswer;
pub use spec_qp::relax::RelaxationRegistry as Registry;
pub use spec_qp::server::{Server, SpecQpClient as Client, WireAnswer};
pub use spec_qp::service::{ExecMode, QueryService as Service};
pub use spec_qp::sparql::{Query, TriplePattern};
pub use spec_qp::specqp::{Engine, QueryPlan, Verdict};
pub use spec_qp::stats::{ExactCardinality, StatsCatalog};

// ---------------------------------------------------------------------------
// Pinned configuration
// ---------------------------------------------------------------------------

/// Block size of the pinned executor.
pub const BLOCK_SIZE: usize = 128;
/// Fallback stages of the pinned speculation policy.
pub const FALLBACK_STAGES: usize = 3;

/// The configuration every engine in the benchmark runs with, written out
/// field by field: `EngineConfig::default()` reads `SPECQP_*` from the
/// environment, and a benchmark whose numbers depend on the caller's shell
/// measures nothing.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        execution: ExecutionMode::Block(BLOCK_SIZE),
        speculation: SpeculationPolicy::Fallback {
            max_stages: FALLBACK_STAGES,
        },
        parallelism: 1,
        learned: false,
        refit: RefitMode::TwoBucket,
        pull: PullStrategy::Adaptive,
    }
}

fn service_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        engine: engine_config(),
        ..ServiceConfig::with_threads(workers)
    }
}

/// Execution-queue depth of a service that sits behind the wire server. The
/// default, 4 × workers, makes the server refuse requests whenever nine are
/// waiting — which on a 2-core machine that also runs the load generator
/// happens when the scheduler parks a server thread for 20 ms, at any
/// arrival rate. A refused request is a failed operation; a queued one is a
/// slow one, and shows in the tail where a stall belongs.
pub const SERVED_QUEUE_DEPTH: usize = 64;

// ---------------------------------------------------------------------------
// datagen
// ---------------------------------------------------------------------------

/// Size tier of a generated dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The generator's `Default` configuration (the paper-shaped workload).
    Full,
    /// The generator's `small` configuration.
    Small,
    /// A few hundred triples: the benchmark's own smoke tests.
    Toy,
}

/// A generated dataset, taken apart.
pub struct Generated {
    pub graph: Graph,
    pub registry: Registry,
    pub queries: Vec<Query>,
}

fn generated(ds: spec_qp::datagen::Dataset) -> Generated {
    Generated {
        graph: ds.graph,
        registry: ds.registry,
        queries: ds.workload.queries,
    }
}

/// Seeded XKG dataset; `queries` overrides the tier's query count.
pub fn generate_xkg(seed: u64, scale: Scale, queries: Option<usize>) -> Generated {
    let mut cfg = match scale {
        Scale::Full => XkgConfig {
            seed,
            ..XkgConfig::default()
        },
        Scale::Small => XkgConfig::small(seed),
        Scale::Toy => XkgConfig {
            entities: 300,
            relational_triples: 900,
            ..XkgConfig::small(seed)
        },
    };
    if let Some(q) = queries {
        cfg.queries = q;
    }
    generated(XkgGenerator::new(cfg).generate())
}

/// Seeded Twitter dataset.
pub fn generate_twitter(seed: u64, scale: Scale, queries: Option<usize>) -> Generated {
    let mut cfg = match scale {
        Scale::Full => TwitterConfig {
            seed,
            ..TwitterConfig::default()
        },
        Scale::Small => TwitterConfig::small(seed),
        Scale::Toy => TwitterConfig {
            tweets: 800,
            terms: 200,
            topics: 8,
            ..TwitterConfig::small(seed)
        },
    };
    if let Some(q) = queries {
        cfg.queries = q;
    }
    generated(TwitterGenerator::new(cfg).generate())
}

// ---------------------------------------------------------------------------
// kgstore
// ---------------------------------------------------------------------------

/// The graph as snapshot (v2) bytes.
pub fn snapshot_bytes(graph: &Graph) -> Vec<u8> {
    kgstore::snapshot::write_snapshot(graph)
}

/// Decodes a snapshot image; the set-up path of every workload.
pub fn load_graph(bytes: &[u8]) -> Graph {
    kgstore::snapshot::read_snapshot(bytes).expect("snapshot written by this process must decode")
}

/// Every visible triple as `(s, p, o, score)` names, in storage order.
pub fn triples(graph: &Graph) -> impl Iterator<Item = (&str, &str, &str, f64)> + '_ {
    let d = graph.dictionary();
    graph.iter_scored().map(move |t| {
        (
            d.name_or_unknown(t.triple.s),
            d.name_or_unknown(t.triple.p),
            d.name_or_unknown(t.triple.o),
            t.score.value(),
        )
    })
}

/// Number of visible triples.
pub fn triple_count(graph: &Graph) -> usize {
    graph.len()
}

/// The `index`-th stored triple of a flat graph, by names.
pub fn triple_at(graph: &Graph, index: usize) -> (String, String, String, f64) {
    let d = graph.dictionary();
    let t = graph.scored(index as u32);
    (
        d.name_or_unknown(t.triple.s).to_string(),
        d.name_or_unknown(t.triple.p).to_string(),
        d.name_or_unknown(t.triple.o).to_string(),
        t.score.value(),
    )
}

/// A graph built from scratch out of named triples: the oracle a live
/// graph's final state is compared with. The terms of `like` are interned
/// first and in id order, so that its term ids — which the relaxation rules
/// and parsed queries are written in — mean the same in the new graph.
pub fn build_graph<'a>(
    like: &Graph,
    triples: impl Iterator<Item = (&'a str, &'a str, &'a str, f64)>,
) -> Graph {
    let mut b = kgstore::KnowledgeGraphBuilder::new();
    let d = like.dictionary();
    for id in 0..d.len() {
        b.intern(d.name_or_unknown(kgstore::TermId(id as u32)));
    }
    for (s, p, o, score) in triples {
        b.add(s, p, o, score);
    }
    b.build()
}

/// One write, by names. `score: None` retracts.
pub struct WriteOp<'a> {
    pub s: &'a str,
    pub p: &'a str,
    pub o: &'a str,
    pub score: Option<f64>,
}

/// An ordered batch of asserts and retractions.
pub fn write_batch<'a>(ops: impl Iterator<Item = WriteOp<'a>>) -> WriteBatch {
    let mut batch = WriteBatch::new();
    for op in ops {
        match op.score {
            Some(score) => batch.assert(op.s, op.p, op.o, score),
            None => batch.retract(op.s, op.p, op.o),
        };
    }
    batch
}

/// Operations in a batch.
pub fn batch_len(batch: &WriteBatch) -> usize {
    batch.len()
}

/// The constant parts of a pattern as a match-list key.
pub fn pattern_key(pattern: &TriplePattern) -> PatternKey {
    let (s, p, o) = pattern.const_parts();
    PatternKey { s, p, o }
}

/// Resolves a match list (the index lookup, or the overlay merge) and
/// returns its length.
pub fn match_lookup(graph: &Graph, key: PatternKey) -> usize {
    graph.matches(key).len()
}

/// Drains a match list in rank order; returns rows read and a checksum so
/// the reads cannot be optimised away.
pub fn scan_list(graph: &Graph, key: PatternKey) -> (usize, f64) {
    let list = graph.matches(key);
    let mut sum = 0.0;
    for (id, score) in list.iter() {
        sum += score.value() + f64::from(id & 1);
    }
    (list.len(), sum)
}

/// A live graph with the default compaction policy.
pub fn new_live(graph: Graph) -> Arc<LiveGraph> {
    Arc::new(LiveGraph::with_policy(graph, CompactionPolicy::default()))
}

/// A live graph that compacts only when told to.
pub fn new_live_manual(graph: Graph) -> Arc<LiveGraph> {
    Arc::new(LiveGraph::with_policy(graph, CompactionPolicy::never()))
}

/// `LiveGraph::commit` alone (no service around it); returns the epoch.
pub fn commit(live: &LiveGraph, batch: &WriteBatch) -> u64 {
    live.commit(batch).value()
}

/// Forces a compaction; returns the epoch it published.
pub fn compact(live: &LiveGraph) -> u64 {
    live.compact().value()
}

/// The version readers would pin now.
pub fn pinned(live: &LiveGraph) -> Arc<Graph> {
    live.pinned().0
}

/// Write-side counters of a live graph.
#[derive(Clone, Copy, Debug, Default)]
pub struct LiveCounters {
    pub epoch: u64,
    pub delta_rows: usize,
    pub compactions: u64,
}

pub fn live_counters(live: &LiveGraph) -> LiveCounters {
    let s = live.stats();
    LiveCounters {
        epoch: s.epoch.value(),
        delta_rows: s.delta_rows,
        compactions: s.compactions,
    }
}

// ---------------------------------------------------------------------------
// sparql / relax
// ---------------------------------------------------------------------------

/// Number of rules in the registry.
pub fn rule_count(registry: &Registry) -> usize {
    registry.len()
}

/// The query's triple patterns.
pub fn patterns(query: &Query) -> &[TriplePattern] {
    query.patterns()
}

/// `parse_query` against the graph's dictionary.
pub fn parse(text: &str, graph: &Graph) -> Query {
    spec_qp::sparql::parse_query(text, graph.dictionary())
        .expect("workload query texts are rendered by the generator and must parse")
}

/// The query as the text a client would send.
pub fn query_text(query: &Query, graph: &Graph) -> String {
    query.display(graph.dictionary()).to_string()
}

/// `relaxations_for`: how many rules apply to the pattern.
pub fn relax_lookup(registry: &Registry, pattern: &TriplePattern) -> usize {
    registry.relaxations_for(pattern).len()
}

/// Every `(relaxed pattern, weight)` the registry holds for the query's
/// patterns, rendered for fingerprinting.
pub fn relaxations(registry: &Registry, query: &Query) -> Vec<(String, f64)> {
    query
        .patterns()
        .iter()
        .flat_map(|p| registry.relaxations_for(p))
        .map(|r| (format!("{:?}", r.pattern), r.weight))
        .collect()
}

/// What PLANGEN reads statistics for: each pattern and its top-weighted
/// relaxation.
pub fn planner_patterns(registry: &Registry, query: &Query) -> Vec<TriplePattern> {
    let mut out = Vec::new();
    for p in query.patterns() {
        out.push(*p);
        out.extend(registry.top_relaxation_for(p).map(|r| r.pattern));
    }
    out
}

/// Every pattern a Spec-QP or TriniT run of `query` may read: the original
/// patterns and all their relaxations.
pub fn input_patterns(registry: &Registry, query: &Query) -> Vec<TriplePattern> {
    let mut out = Vec::new();
    for p in query.patterns() {
        out.push(*p);
        out.extend(registry.relaxations_for(p).into_iter().map(|r| r.pattern));
    }
    out
}

/// The patterns `plan` reads: originals, plus relaxations where relaxed.
pub fn plan_input_patterns(
    registry: &Registry,
    query: &Query,
    plan: &QueryPlan,
) -> Vec<TriplePattern> {
    let mut out = Vec::new();
    for (i, p) in query.patterns().iter().enumerate() {
        out.push(*p);
        if plan.is_relaxed(i) {
            out.extend(registry.relaxations_for(p).into_iter().map(|r| r.pattern));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// stats / plangen
// ---------------------------------------------------------------------------

/// `StatsCatalog::stats` for one pattern; `true` when it matched anything.
pub fn pattern_stats(catalog: &StatsCatalog, graph: &Graph, pattern: &TriplePattern) -> bool {
    catalog.stats(graph, pattern).is_some()
}

/// `ScoreEstimator::estimate` of the un-relaxed query at rank `k`.
pub fn estimate(
    catalog: &StatsCatalog,
    cardinality: &ExactCardinality,
    graph: &Graph,
    query: &Query,
    k: usize,
) -> Option<f64> {
    let weighted: Vec<(TriplePattern, f64)> = query.patterns().iter().map(|p| (*p, 1.0)).collect();
    ScoreEstimator::with_mode(catalog, cardinality, engine_config().refit)
        .estimate(graph, &weighted)
        .expected_score_at_rank(k)
}

/// `ExactCardinality::cardinality` of the un-relaxed query.
pub fn cardinality(cardinality: &ExactCardinality, graph: &Graph, query: &Query) -> f64 {
    cardinality.cardinality(graph, query.patterns())
}

/// PLANGEN (`plan_query`) over the given catalog and cardinality oracle:
/// cold when they are fresh, warm when they have seen the query.
pub fn plan_query(
    graph: &Graph,
    registry: &Registry,
    catalog: &StatsCatalog,
    cardinality: &ExactCardinality,
    query: &Query,
    k: usize,
) -> QueryPlan {
    let cfg = engine_config();
    specqp::plan_query(
        graph,
        query,
        k,
        catalog,
        cardinality,
        registry,
        cfg.refit,
        cfg.learned,
    )
}

/// PLANGEN from nothing: fresh catalog, fresh cardinality cache.
pub fn plan_cold(graph: &Graph, registry: &Registry, query: &Query, k: usize) -> QueryPlan {
    plan_query(
        graph,
        registry,
        &StatsCatalog::new(),
        &ExactCardinality::new(),
        query,
        k,
    )
}

/// The TriniT plan: every pattern relaxed.
pub fn trinit_plan(query: &Query) -> QueryPlan {
    QueryPlan::all_relaxed(query.len())
}

/// Patterns the plan pruned (kept un-relaxed) and patterns it could have.
pub fn plan_pruning(registry: &Registry, query: &Query, plan: &QueryPlan) -> (usize, usize) {
    let relaxable = query
        .patterns()
        .iter()
        .filter(|p| registry.relaxation_count(p) > 0)
        .count();
    let pruned = query
        .patterns()
        .iter()
        .enumerate()
        .filter(|(i, p)| !plan.is_relaxed(*i) && registry.relaxation_count(p) > 0)
        .count();
    (pruned, relaxable)
}

/// PLANGEN's prediction against the ground truth of the true top-k:
/// `(exact, covering)`.
pub fn prediction_quality(
    graph: &Graph,
    registry: &Registry,
    query: &Query,
    plan: &QueryPlan,
    true_topk: &[PartialAnswer],
) -> (bool, bool) {
    let required = specqp::required_relaxations(graph, query, registry, true_topk);
    (
        specqp::prediction_exact(plan, &required),
        specqp::prediction_covering(plan, &required),
    )
}

// ---------------------------------------------------------------------------
// operators / speculation
// ---------------------------------------------------------------------------

/// Exact operator counts of one execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    pub sorted_accesses: u64,
    pub random_accesses: u64,
    pub answers_created: u64,
    pub heap_pushes: u64,
}

impl OpCounts {
    /// The counts with the names the metrics carry.
    pub fn named(&self) -> [(&'static str, u64); 4] {
        [
            ("sorted_accesses", self.sorted_accesses),
            ("random_accesses", self.random_accesses),
            ("answers_created", self.answers_created),
            ("heap_pushes", self.heap_pushes),
        ]
    }
}

/// `run_plan_blocks`: one execution of `plan`, verbatim.
pub fn exec_plan(
    graph: &Graph,
    registry: &Registry,
    query: &Query,
    plan: &QueryPlan,
    k: usize,
) -> (Vec<PartialAnswer>, OpCounts) {
    let metrics = OpMetrics::new_handle();
    let answers = specqp::run_plan_blocks(
        graph,
        query,
        plan,
        registry,
        metrics.clone(),
        engine_config().pull,
        k,
        BLOCK_SIZE,
    );
    let counts = OpCounts {
        sorted_accesses: metrics.sorted_accesses(),
        random_accesses: metrics.random_accesses(),
        answers_created: metrics.answers_created(),
        heap_pushes: metrics.heap_pushes(),
    };
    (answers, counts)
}

/// `speculation::verify` on the outcome of executing `plan`.
pub fn verify(
    registry: &Registry,
    query: &Query,
    plan: &QueryPlan,
    answers: &[PartialAnswer],
    k: usize,
) -> Verdict {
    specqp::speculation::verify(query, plan, registry, answers, k)
}

/// Answers in the benchmark's canonical form, bindings as term ids.
pub fn canon_ids(answers: &[PartialAnswer]) -> Vec<IdAns> {
    answers
        .iter()
        .map(|a| Ans {
            score_bits: a.score.value().to_bits(),
            binding: a.binding.iter().map(|(v, t)| (v.0, t.0)).collect(),
        })
        .collect()
}

/// Canonical form with bindings resolved to names through `graph`.
pub fn canon_names(answers: &[PartialAnswer], graph: &Graph) -> Vec<NameAns> {
    canon_wire(&wire_answers(answers, graph))
}

/// Canonical form of answers that came over the wire.
pub fn canon_wire(answers: &[WireAnswer]) -> Vec<NameAns> {
    answers
        .iter()
        .map(|a| Ans {
            score_bits: a.score.to_bits(),
            binding: a.bindings.clone(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// What one engine run returned, without its durations.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub answers: Vec<PartialAnswer>,
    pub plan: QueryPlan,
    pub fallback_stages: u64,
    pub wasted_answers: u64,
    pub mis_speculated: bool,
}

fn outcome(o: specqp::QueryOutcome) -> Outcome {
    Outcome {
        answers: o.answers,
        plan: o.plan,
        fallback_stages: o.report.fallback_stages,
        wasted_answers: o.report.wasted_answers,
        mis_speculated: o.report.mis_speculated,
    }
}

/// An engine borrowing its graph and rules, under the pinned configuration.
pub fn new_engine<'g>(graph: &'g Graph, registry: &'g Registry) -> Engine<'g> {
    Engine::with_config(graph, registry, engine_config())
}

/// Spec-QP: plan (cache or PLANGEN), execute, verify, recover.
pub fn run_specqp(engine: &Engine<'_>, query: &Query, k: usize) -> Outcome {
    outcome(engine.run_specqp(query, k))
}

/// The TriniT baseline.
pub fn run_trinit(engine: &Engine<'_>, query: &Query, k: usize) -> Outcome {
    outcome(engine.run_trinit(query, k))
}

/// `Engine::plan`: a plan-cache hit when the shape is cached and current.
pub fn engine_plan(engine: &Engine<'_>, query: &Query, k: usize) -> QueryPlan {
    engine.plan(query, k).0
}

/// Plan-cache counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheCounters {
    pub lookups: u64,
    pub hits: u64,
    pub stale: u64,
}

impl CacheCounters {
    pub fn add(&mut self, other: CacheCounters) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.stale += other.stale;
    }

    /// Hits ÷ lookups; 0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.lookups.max(1) as f64
    }
}

pub fn plan_cache_counters(engine: &Engine<'_>) -> CacheCounters {
    let m = engine.plan_cache_metrics();
    CacheCounters {
        lookups: m.lookups(),
        hits: m.hits(),
        stale: m.stale(),
    }
}

// ---------------------------------------------------------------------------
// service
// ---------------------------------------------------------------------------

/// A worker-pool service over an immutable graph.
pub fn start_service(graph: Arc<Graph>, registry: Arc<Registry>, workers: usize) -> Arc<Service> {
    let config = service_config(workers).with_queue_depth(SERVED_QUEUE_DEPTH);
    Arc::new(Service::new(graph, registry, config))
}

/// A worker-pool service over a live graph.
pub fn start_live_service(
    live: Arc<LiveGraph>,
    registry: Arc<Registry>,
    workers: usize,
) -> Arc<Service> {
    Arc::new(Service::live(live, registry, service_config(workers)))
}

/// The service's name for Spec-QP or TriniT.
pub fn mode(spec: bool) -> ExecMode {
    if spec {
        ExecMode::SpecQp
    } else {
        ExecMode::TriniT
    }
}

/// One in-process request as the service accounted it.
#[derive(Clone, Debug)]
pub struct ServiceReply {
    /// `None` when the request was refused, shed or failed.
    pub outcome: Option<Outcome>,
    pub queued: Duration,
    pub execution: Duration,
}

/// `submit` then `wait`: the in-process round trip.
pub fn submit_wait(service: &Service, query: &Query, mode: ExecMode, k: usize) -> ServiceReply {
    let request = Request::new(query.clone(), k).with_mode(mode);
    match service.submit(request) {
        Err(_) => ServiceReply {
            outcome: None,
            queued: Duration::ZERO,
            execution: Duration::ZERO,
        },
        Ok(ticket) => {
            let response = ticket.wait();
            ServiceReply {
                outcome: response.outcome.ok().map(outcome),
                queued: response.queued,
                execution: response.execution,
            }
        }
    }
}

/// `QueryService::apply_writes`; `None` when the batch was refused.
pub fn apply_writes(service: &Service, batch: &WriteBatch) -> Option<u64> {
    service.apply_writes(batch).ok().map(|e| e.value())
}

/// The engine the workers share (plan-cache counters, pinned graph).
pub fn service_engine(service: &Service) -> &Engine<'static> {
    service.engine()
}

/// Lifetime refusals of a service: `(deadline sheds, queue-full and
/// shutdown rejections, rejected writes)`.
pub fn service_refusals(service: &Service) -> (u64, u64, u64) {
    let s = service.lifetime_stats();
    (
        s.shed_deadline,
        s.rejected_queue_full + s.rejected_shutdown,
        s.rejected_writes,
    )
}

/// Stops the worker pool and waits for it.
pub fn stop_service(service: &Service) {
    service.shutdown();
}

// ---------------------------------------------------------------------------
// server
// ---------------------------------------------------------------------------

/// A loopback wire server over `service`, on an ephemeral port.
pub fn start_server(service: Arc<Service>) -> Server {
    Server::bind(service, "127.0.0.1:0", ServerConfig::default())
        .expect("binding a loopback port must succeed")
}

pub fn server_addr(server: &Server) -> SocketAddr {
    server.local_addr()
}

/// `(protocol errors, quota rejections)` the server counted.
pub fn server_errors(server: &Server) -> (u64, u64) {
    let s = server.stats();
    (s.protocol_errors, s.quota_rejected)
}

pub fn stop_server(server: &Server) {
    server.shutdown();
}

pub fn connect(addr: SocketAddr) -> Client {
    let client = Client::connect(addr).expect("connecting to the loopback server must succeed");
    // A wedged server must fail the run, not hang it past the driver's limit.
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("setting a read timeout on a fresh socket must succeed");
    client
}

/// A second handle on the same connection, for a receiver thread.
pub fn split(client: &Client) -> Client {
    let clone = client
        .try_clone()
        .expect("cloning a connected socket must succeed");
    clone
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("setting a read timeout on a cloned socket must succeed");
    clone
}

/// A wire reply, classified.
#[derive(Clone, Debug)]
pub enum Reply {
    Answers(Vec<WireAnswer>),
    /// Refused with a retry hint (queue full or quota).
    RetryAfter,
    /// Any other error frame, or a broken connection.
    Failed,
}

fn classify(response: Result<WireResponse, spec_qp::server::WireError>) -> Reply {
    match response {
        Ok(WireResponse::Answers { answers, .. }) => Reply::Answers(answers),
        Ok(WireResponse::Error {
            code: ErrorCode::RetryAfter,
            ..
        }) => Reply::RetryAfter,
        _ => Reply::Failed,
    }
}

/// Sends one query and waits for its reply (closed-loop use).
pub fn roundtrip(client: &mut Client, text: &str, mode: ExecMode, k: usize) -> Reply {
    classify(client.roundtrip(text, mode, k as u32, 0, 1))
}

/// Sends one query without waiting; returns its request id.
pub fn send(client: &mut Client, text: &str, mode: ExecMode, k: usize) -> Option<u64> {
    client.send(text, mode, k as u32, 0, 1).ok()
}

/// Receives the next reply on the connection.
pub fn recv(client: &mut Client) -> Reply {
    classify(client.recv())
}

/// Size in bytes of the request frame payload for `text`.
pub fn request_bytes(text: &str, mode: ExecMode, k: usize) -> usize {
    spec_qp::server::request_frame(&spec_qp::server::WireRequest {
        request_id: 1,
        client_id: 1,
        mode: mode.index() as u8,
        k: k as u32,
        deadline_ms: 0,
        query: text.to_string(),
    })
    .len()
}

/// The answers as the server would put them on the wire (names resolved).
pub fn wire_answers(answers: &[PartialAnswer], graph: &Graph) -> Vec<WireAnswer> {
    let d = graph.dictionary();
    answers
        .iter()
        .map(|a| WireAnswer {
            score: a.score.value(),
            bindings: a
                .binding
                .iter()
                .map(|(var, term)| (var.0, d.name_or_unknown(term).to_string()))
                .collect(),
        })
        .collect()
}

/// `encode_answers`: the ANSWERS frame payload.
pub fn encode(answers: &[WireAnswer]) -> Vec<u8> {
    encode_answers(1, answers)
}

/// `decode_response` of an ANSWERS payload; the number of answers in it.
pub fn decode(payload: &[u8]) -> usize {
    match decode_response(payload) {
        Ok(WireResponse::Answers { answers, .. }) => answers.len(),
        _ => usize::MAX,
    }
}
