//! The engine façade: one object bundling graph, relaxations, statistics
//! and configuration, with `run_*` entry points for Spec-QP, TriniT and the
//! naive executor.

use crate::executor::{run_naive, run_plan};
use crate::plan::QueryPlan;
use crate::plan_cache::QueryShape;
use crate::plangen::plan_query;
use crate::speculation::{self, SpeculationPolicy};
use crate::trace::RunReport;
use kgstore::{CacheMetrics, KnowledgeGraph, LiveGraph, VersionMemo};
use operators::{ExecutionMode, OpMetrics, PartialAnswer, PullStrategy};
use relax::RelaxationRegistry;
use sparql::Query;
use specqp_common::Score;
use specqp_stats::{ExactCardinality, RefitMode, StatsCatalog};
use std::ops::Deref;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the engine holds a shared structure: borrowed from the caller
/// (zero overhead, lifetime-tied) or co-owned through an [`Arc`] (the
/// serving path, where the engine must be `'static` so worker threads can
/// share it). Built by `From` from a `&T` or an `Arc<T>`.
#[derive(Debug)]
pub enum Handle<'g, T> {
    /// Borrowed from the caller.
    Borrowed(&'g T),
    /// Co-owned.
    Shared(Arc<T>),
}

impl<T> Handle<'_, T> {
    #[inline]
    fn get(&self) -> &T {
        match self {
            Handle::Borrowed(r) => r,
            Handle::Shared(a) => a,
        }
    }
}

impl<'g, T> From<&'g T> for Handle<'g, T> {
    fn from(r: &'g T) -> Self {
        Handle::Borrowed(r)
    }
}

impl<T> From<Arc<T>> for Handle<'_, T> {
    fn from(a: Arc<T>) -> Self {
        Handle::Shared(a)
    }
}

/// How the engine holds its graph. The first two mirror [`Handle`]; the
/// third is the live-write path: the engine holds a [`LiveGraph`] and every
/// public entry point *pins* the current version for the duration of that
/// call (see [`PinnedGraph`]), so one query sees one consistent epoch while
/// writers keep committing. Built by `From` from a `&KnowledgeGraph`, an
/// `Arc<KnowledgeGraph>` or an `Arc<LiveGraph>`.
#[derive(Debug)]
pub enum GraphHandle<'g> {
    /// An immutable graph borrowed from the caller.
    Borrowed(&'g KnowledgeGraph),
    /// An immutable graph co-owned by the engine.
    Shared(Arc<KnowledgeGraph>),
    /// A graph accepting concurrent writes.
    Live(Arc<LiveGraph>),
}

impl<'g> From<&'g KnowledgeGraph> for GraphHandle<'g> {
    fn from(g: &'g KnowledgeGraph) -> Self {
        GraphHandle::Borrowed(g)
    }
}

impl From<Arc<KnowledgeGraph>> for GraphHandle<'_> {
    fn from(g: Arc<KnowledgeGraph>) -> Self {
        GraphHandle::Shared(g)
    }
}

impl From<Arc<LiveGraph>> for GraphHandle<'_> {
    fn from(live: Arc<LiveGraph>) -> Self {
        GraphHandle::Live(live)
    }
}

/// A graph version pinned for the duration of one engine call.
///
/// Dereferences to [`KnowledgeGraph`], whose
/// [`epoch`](KnowledgeGraph::epoch) is the epoch the pin observes. For
/// engines over an immutable graph this is a plain borrow; for engines over
/// a [`LiveGraph`] it co-owns the version that was current when the pin was
/// taken, so concurrent [`LiveGraph::commit`]s never change what an
/// in-flight query sees. Dropping the pin releases the version (compacted
/// versions are freed once the last pinned reader drops them).
pub struct PinnedGraph<'e> {
    graph: Handle<'e, KnowledgeGraph>,
}

impl Deref for PinnedGraph<'_> {
    type Target = KnowledgeGraph;

    #[inline]
    fn deref(&self) -> &KnowledgeGraph {
        self.graph.get()
    }
}

impl std::fmt::Debug for PinnedGraph<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedGraph")
            .field("epoch", &self.epoch())
            .field("triples", &self.len())
            .finish()
    }
}

/// Tunables of the engine. Override fields with a struct-update literal:
///
/// ```
/// use specqp::{EngineConfig, SpeculationPolicy};
///
/// let config = EngineConfig {
///     speculation: SpeculationPolicy::Fallback { max_stages: 3 },
///     ..EngineConfig::default()
/// };
/// assert_eq!(config.execution.block_size(), 128);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Convolution-refit mode used by PLANGEN: the paper's two-bucket
    /// refit, the only one.
    pub refit: RefitMode,
    /// Rank-join pull strategy: adaptive (HRJN*), the only one.
    pub pull: PullStrategy,
    /// The executor's block size ([`ExecutionMode::default`]: 128 rows).
    /// Every size returns identical answers.
    pub execution: ExecutionMode,
    /// The speculation lifecycle policy: whether speculative runs are
    /// verified after draining and whether mis-speculations trigger staged
    /// delta recovery (see [`crate::speculation`]). Default: `Off`.
    pub speculation: SpeculationPolicy,
    /// Has no effect: every query runs on the calling thread. The
    /// benchmark harness sets the field, so it stays. Default: `1`.
    pub parallelism: usize,
    /// Has no effect: PLANGEN plans from histogram statistics alone. The
    /// benchmark harness sets the field, so it stays. Default: `false`.
    pub learned: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            refit: RefitMode::TwoBucket,
            pull: PullStrategy::Adaptive,
            execution: ExecutionMode::default(),
            speculation: SpeculationPolicy::Off,
            parallelism: 1,
            learned: false,
        }
    }
}

/// Result of one engine run.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The top-k answers, best first.
    pub answers: Vec<PartialAnswer>,
    /// The plan that was executed (for TriniT: all patterns relaxed).
    pub plan: QueryPlan,
    /// Cost accounting.
    pub report: RunReport,
}

/// The score at rank `k` of a best-first top-k — `None` while it holds fewer
/// than `k` answers (an under-filled run has no k-th score), and for `k = 0`.
fn kth_score(answers: &[PartialAnswer], k: usize) -> Option<Score> {
    answers.get(k.checked_sub(1)?).map(|a| a.score)
}

/// A ready-to-query Spec-QP engine over one graph + rule registry.
///
/// The engine owns the statistics catalog, the cardinality oracle and a
/// plan cache — each an epoch memo ([`VersionMemo`]), filled lazily —
/// mirroring the paper's precomputed metadata. Call [`Engine::warm`] to pay
/// those costs ahead of timing runs (the paper measures with a warm cache:
/// "we conducted 5 consecutive runs for each query and considered the
/// average of the last 3").
///
/// [`Engine::new`] and [`Engine::with_config`] take the graph and registry
/// in any form their handles convert from ([`GraphHandle`], [`Handle`]):
///
/// * **Borrowed** (`&KnowledgeGraph`, `&RelaxationRegistry`): zero
///   overhead, lifetime-tied.
/// * **Shared** (`Arc`s): the engine is `'static`, so it can be wrapped in
///   an `Arc` itself and shared across service worker threads.
/// * **Live** (`Arc<LiveGraph>`): the graph accepts concurrent writes.
///   Every public entry point pins the version current at call start
///   ([`PinnedGraph`]) so one query sees one consistent epoch end to end.
///   Cached statistics and plans record the epoch they were computed on,
///   so the first call on a new epoch recomputes them and nothing has to
///   invalidate anything.
///
/// `Engine` is `Send + Sync` in all three cases.
pub struct Engine<'g> {
    graph: GraphHandle<'g>,
    registry: Handle<'g, RelaxationRegistry>,
    catalog: StatsCatalog,
    cardinality: ExactCardinality,
    plan_cache: VersionMemo<QueryShape, QueryPlan>,
    config: EngineConfig,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("triples", &self.pin().len())
            .field("rules", &self.registry.get().len())
            .field("config", &self.config)
            .field("cached_plans", &self.plan_cache.len())
            .finish_non_exhaustive()
    }
}

impl<'g> Engine<'g> {
    /// Engine with the paper's defaults (exact cardinalities, two-bucket
    /// refit, adaptive rank joins; [`EngineConfig::default`]).
    pub fn new(
        graph: impl Into<GraphHandle<'g>>,
        registry: impl Into<Handle<'g, RelaxationRegistry>>,
    ) -> Self {
        Engine::with_config(graph, registry, EngineConfig::default())
    }

    /// Engine with explicit configuration.
    pub fn with_config(
        graph: impl Into<GraphHandle<'g>>,
        registry: impl Into<Handle<'g, RelaxationRegistry>>,
        config: EngineConfig,
    ) -> Self {
        Engine {
            graph: graph.into(),
            registry: registry.into(),
            catalog: StatsCatalog::new(),
            cardinality: ExactCardinality::new(),
            plan_cache: VersionMemo::default(),
            config,
        }
    }

    /// Pins and returns the graph version this call should read (see
    /// [`PinnedGraph`]). For borrowed/shared engines this is free; for live
    /// engines it snapshots the current version.
    pub fn graph(&self) -> PinnedGraph<'_> {
        self.pin()
    }

    /// The live graph, when this engine was built over one — the handle
    /// writers commit through.
    pub fn live_graph(&self) -> Option<&Arc<LiveGraph>> {
        match &self.graph {
            GraphHandle::Live(live) => Some(live),
            _ => None,
        }
    }

    fn pin(&self) -> PinnedGraph<'_> {
        let graph = match &self.graph {
            GraphHandle::Borrowed(g) => Handle::Borrowed(*g),
            GraphHandle::Shared(g) => Handle::Borrowed(&**g),
            GraphHandle::Live(live) => Handle::Shared(live.pinned().0),
        };
        PinnedGraph { graph }
    }

    /// The rule registry.
    pub fn registry(&self) -> &RelaxationRegistry {
        self.registry.get()
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The plan cache: the epoch memo from query shapes to plans.
    pub fn plan_cache(&self) -> &VersionMemo<QueryShape, QueryPlan> {
        &self.plan_cache
    }

    /// The statistics catalog, including the speculation feedback ledger.
    pub fn catalog(&self) -> &StatsCatalog {
        &self.catalog
    }

    /// Plan-cache counters (hits, misses, insertions, evictions, stale).
    pub fn plan_cache_metrics(&self) -> &CacheMetrics {
        self.plan_cache.metrics()
    }

    /// Precomputes statistics, cardinalities *and the plan* for `query` so
    /// subsequent timed runs measure execution, not planning — the paper's
    /// offline metadata pass. The generated plan lands in the plan cache, so
    /// a warm→run sequence records a cache hit and skips PLANGEN.
    pub fn warm(&self, query: &Query, k: usize) {
        let _ = self.plan(query, k);
    }

    /// Phase 1 of the lifecycle — returns the plan for `query` and the time
    /// it took: a plan-cache lookup first (a cached plan serves only the
    /// epoch it was planned on), with PLANGEN run (and the result cached) on
    /// a miss. The speculation ledger's bias is applied to every plan
    /// served: a pruned pattern the ledger holds as a
    /// [repeat offender](StatsCatalog::repeat_offender) is relaxed, whatever
    /// the estimate said.
    pub fn plan(&self, query: &Query, k: usize) -> (QueryPlan, Duration) {
        let graph = self.pin();
        self.plan_on(&graph, query, k)
    }

    fn plan_on(&self, graph: &KnowledgeGraph, query: &Query, k: usize) -> (QueryPlan, Duration) {
        let t0 = Instant::now();
        let shape = QueryShape::of(query, k);
        let epoch = graph.epoch();
        let registry = self.registry.get();
        let plan = self.plan_cache.get(epoch, &shape).unwrap_or_else(|| {
            let plan = plan_query(
                graph,
                query,
                k,
                &self.catalog,
                &self.cardinality,
                registry,
                self.config.refit,
                false,
            );
            self.plan_cache.insert(epoch, shape, plan)
        });
        // The feedback bias: the ledger outranks the estimate once a
        // pattern's pruning has repeatedly proven wrong at runtime.
        let offenders: Vec<usize> = speculation::escalation_candidates(query, &plan, registry)
            .into_iter()
            .filter(|&i| {
                self.catalog
                    .repeat_offender(&query.patterns()[i].stats_key())
            })
            .collect();
        let plan = if offenders.is_empty() {
            plan
        } else {
            plan.escalated(&offenders)
        };
        (plan, t0.elapsed())
    }

    /// Spec-QP: speculative plan, then the execute → verify → recover
    /// lifecycle (§3.2 plus the runtime safety net of
    /// [`crate::speculation`]). The graph version is pinned once here, so
    /// planning, execution, verification and any fallback stages all read
    /// the same epoch even while writers commit.
    pub fn run_specqp(&self, query: &Query, k: usize) -> QueryOutcome {
        let graph = self.pin();
        let (plan, planning) = self.plan_on(&graph, query, k);
        let mut out = self.run_speculative_on(&graph, query, k, plan);
        out.report.planning = planning;
        out
    }

    /// TriniT baseline: every pattern processed with its relaxations
    /// (§2.1); no planning step, and nothing to verify — the all-relaxed
    /// plan *is* the lifecycle's safety net.
    pub fn run_trinit(&self, query: &Query, k: usize) -> QueryOutcome {
        self.run_with_plan(query, k, QueryPlan::all_relaxed(query.len()))
    }

    /// Executes an explicit plan **verbatim** — no verification, no
    /// fallback, regardless of the configured speculation policy. This is
    /// the escape hatch tests and benches use to observe exactly what one
    /// plan produces.
    pub fn run_with_plan(&self, query: &Query, k: usize, plan: QueryPlan) -> QueryOutcome {
        let graph = self.pin();
        self.run_with_plan_on(&graph, query, k, plan)
    }

    fn run_with_plan_on(
        &self,
        graph: &KnowledgeGraph,
        query: &Query,
        k: usize,
        plan: QueryPlan,
    ) -> QueryOutcome {
        let registry = self.registry.get();
        let metrics = OpMetrics::new_handle();
        let t0 = Instant::now();
        let answers = run_plan(graph, query, &plan, registry, &metrics, &self.config, k);
        let mut report = RunReport::of(&metrics);
        report.execution = t0.elapsed();
        QueryOutcome {
            answers,
            plan,
            report,
        }
    }

    /// Phases 2–4 of the lifecycle: executes `plan`, verifies the outcome
    /// and — policy permitting — recovers from mis-speculation by delta (see
    /// [`crate::speculation`] for the policy semantics and the argument).
    ///
    /// * each recovery stage escalates its targets one at a time — the
    ///   verifier's top suspect in stages `1‥N−1`, every remaining candidate
    ///   in stage `N` — and for each runs only the target's *delta plan*
    ///   ([`QueryPlan::delta`]) above the k-th score in hand, folding the
    ///   result into the answers ([`speculation::union_top_k`]). The
    ///   speculative execution is never repeated or discarded; deltas run
    ///   through the same runner as every plan;
    /// * after stage `N` every pattern with relaxations is relaxed, so the
    ///   answers are [`Engine::run_trinit`]'s, bit for bit;
    /// * every escalation is recorded in the statistics feedback ledger —
    ///   as a mis-speculation when its stage changed the top-k, clean
    ///   otherwise — biasing the plans [`Engine::plan`] serves from then
    ///   on. A run that verifies clean records nothing.
    ///
    /// The returned outcome carries the plan whose top-k the answers are,
    /// with verify time, recovery stages and wasted answer objects
    /// accounted in the report.
    pub fn run_speculative(&self, query: &Query, k: usize, plan: QueryPlan) -> QueryOutcome {
        let graph = self.pin();
        self.run_speculative_on(&graph, query, k, plan)
    }

    fn run_speculative_on(
        &self,
        graph: &KnowledgeGraph,
        query: &Query,
        k: usize,
        plan: QueryPlan,
    ) -> QueryOutcome {
        let max_stages = match self.config.speculation {
            SpeculationPolicy::Off => return self.run_with_plan_on(graph, query, k, plan),
            SpeculationPolicy::Fallback { max_stages } => max_stages.max(1),
        };

        let registry = self.registry.get();
        let metrics = OpMetrics::new_handle();
        let mut current = plan;
        let mut verify_time = Duration::ZERO;

        let t0 = Instant::now();
        let mut answers = run_plan(graph, query, &current, registry, &metrics, &self.config, k);
        let mut execution = t0.elapsed();

        let mut mis_speculated = false;
        // Escalation verdicts, recorded in one batched catalog write at the
        // end: (pattern index, the escalation changed the top-k).
        let mut verdicts: Vec<(usize, bool)> = Vec::new();
        // A pattern the ledger holds as settled-clean (escalated before, at
        // least as many clean verdicts as offenses) is never re-flagged:
        // a genuinely-small result would otherwise re-trigger the full
        // escalation ladder on every run.
        let settled = |i: usize| {
            self.catalog
                .speculation_outcome(&query.patterns()[i].stats_key())
                .settled_clean()
        };
        let mut stage = 0usize;
        loop {
            // Phase 3: verify.
            let tv = Instant::now();
            let mut verdict = speculation::verify(query, &current, registry, &answers, k);
            if verdict.mis_speculated {
                verdict.suspects.retain(|&i| !settled(i));
                verdict.mis_speculated = !verdict.suspects.is_empty();
            }
            verify_time += tv.elapsed();

            if !verdict.mis_speculated {
                break;
            }
            mis_speculated = true;
            // Stage `max_stages` escalated every candidate, so the verdict
            // after it has nothing left to suspect.
            debug_assert!(stage < max_stages, "a mis-speculation after the last stage");

            // Phase 4: recover — escalate the stage's targets one by one,
            // each by its delta above the k-th score in hand.
            stage += 1;
            metrics.count_fallback_stage();
            // In suspicion order: the sooner a delta lifts the k-th score,
            // the higher the floor under the deltas after it.
            let mut targets = verdict.suspects;
            if stage == max_stages {
                for c in verdict.candidates {
                    if !targets.contains(&c) {
                        targets.push(c);
                    }
                }
            } else {
                targets.truncate(1);
            }
            let t = Instant::now();
            let mut confirmed = false;
            for &target in &targets {
                let delta = current.delta(target, kth_score(&answers, k));
                current = current.escalated(&[target]);
                let created = metrics.answers_created();
                let delta = run_plan(graph, query, &delta, registry, &metrics, &self.config, k);
                if speculation::union_top_k(&mut answers, delta, k) {
                    confirmed = true;
                } else {
                    metrics.count_wasted_answers(metrics.answers_created() - created);
                }
            }
            execution += t.elapsed();
            // Confirm before teaching: a stage that changed nothing (e.g. a
            // genuinely-small result that stays under-filled even fully
            // relaxed) proves the pruning was *fine* — recording it as an
            // offense would permanently lock the shape onto TriniT-priced
            // plans. Retained answers keep their score bits, so "changed" is
            // exact.
            verdicts.extend(targets.into_iter().map(|i| (i, confirmed)));
        }

        // One batched ledger write per run at most — service workers
        // contend on the catalog lock once per escalating run, not once
        // per pattern, and clean runs never take it.
        if !verdicts.is_empty() {
            self.catalog.record_escalations(
                verdicts
                    .into_iter()
                    .map(|(i, confirmed)| (query.patterns()[i].stats_key(), confirmed)),
            );
        }

        let mut report = RunReport::of(&metrics);
        report.execution = execution;
        report.verify = verify_time;
        report.mis_speculated = mis_speculated;
        QueryOutcome {
            answers,
            plan: current,
            report,
        }
    }

    /// Brute-force ground truth (tests / validation only).
    pub fn run_naive(&self, query: &Query, k: usize) -> QueryOutcome {
        let graph = self.pin();
        let t0 = Instant::now();
        let answers = run_naive(&graph, query, self.registry.get(), k);
        let execution = t0.elapsed();
        QueryOutcome {
            answers,
            plan: QueryPlan::all_relaxed(query.len()),
            report: RunReport {
                execution,
                ..Default::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgstore::KnowledgeGraphBuilder;
    use relax::{Position, TermRule};
    use sparql::parse_query;

    fn setup() -> (KnowledgeGraph, RelaxationRegistry) {
        let mut b = KnowledgeGraphBuilder::new();
        for i in 0..50 {
            b.add(&format!("e{i}"), "type", "big", 100.0 / (i + 1) as f64);
        }
        for i in 0..3 {
            b.add(&format!("e{i}"), "type", "small", 10.0 / (i + 1) as f64);
        }
        for i in 0..30 {
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
        (g, reg)
    }

    #[test]
    fn specqp_and_trinit_agree_on_top_answers_here() {
        let (g, reg) = setup();
        let engine = Engine::new(&g, &reg);
        let q = parse_query(
            "SELECT ?s WHERE { ?s <type> <big> . ?s <type> <small> }",
            g.dictionary(),
        )
        .unwrap();
        let spec = engine.run_specqp(&q, 10);
        let trinit = engine.run_trinit(&q, 10);
        assert_eq!(trinit.plan.relaxed_count(), 2);
        // Both must return sorted answers; TriniT is the full ground truth.
        assert!(!trinit.answers.is_empty());
        assert!(spec.answers.len() <= trinit.answers.len());
        // The top TriniT answer must be found by Spec-QP whenever Spec-QP
        // relaxed the pattern that produced it — here the small pattern has
        // only 3 originals, so the planner must have relaxed it.
        assert!(spec.plan.is_relaxed(1), "{:?}", spec.plan);
        assert_eq!(spec.answers[0].binding, trinit.answers[0].binding);
    }

    #[test]
    fn trinit_has_no_planning_time() {
        let (g, reg) = setup();
        let engine = Engine::new(&g, &reg);
        let q = parse_query("SELECT ?s WHERE { ?s <type> <big> }", g.dictionary()).unwrap();
        let out = engine.run_trinit(&q, 5);
        assert_eq!(out.report.planning, Duration::ZERO);
        assert!(out.report.execution > Duration::ZERO);
        assert!(out.report.answers_created > 0);
    }

    #[test]
    fn warm_then_plan_is_fast_and_deterministic() {
        let (g, reg) = setup();
        let engine = Engine::new(&g, &reg);
        let q = parse_query(
            "SELECT ?s WHERE { ?s <type> <big> . ?s <type> <small> }",
            g.dictionary(),
        )
        .unwrap();
        engine.warm(&q, 10);
        let (p1, _) = engine.plan(&q, 10);
        let (p2, t2) = engine.plan(&q, 10);
        assert_eq!(p1, p2);
        // Warm planning is sub-millisecond on this toy graph.
        assert!(t2 < Duration::from_millis(50), "{t2:?}");
    }

    /// Compile-time proof that the engine can be shared across threads —
    /// borrowed, and the `'static` owned form the service wraps in an `Arc`.
    #[test]
    fn engine_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine<'static>>();
        assert_send_sync::<Engine<'_>>();
        assert_send_sync::<std::sync::Arc<Engine<'static>>>();
    }

    #[test]
    fn shared_engine_matches_borrowed() {
        let (g, reg) = setup();
        let q = parse_query(
            "SELECT ?s WHERE { ?s <type> <big> . ?s <type> <small> }",
            g.dictionary(),
        )
        .unwrap();
        let expect = {
            let borrowed = Engine::new(&g, &reg);
            borrowed.run_specqp(&q, 10)
        };
        let shared = Engine::new(Arc::new(g), Arc::new(reg));
        let got = shared.run_specqp(&q, 10);
        assert_eq!(expect.plan, got.plan);
        assert_eq!(expect.answers, got.answers);
    }

    /// Regression (the `Engine::warm` fix): warming used to discard its
    /// plan; it must pre-populate the plan cache so the next run of the same
    /// query shape records a hit and skips PLANGEN.
    #[test]
    fn warm_prepopulates_plan_cache() {
        let (g, reg) = setup();
        let engine = Engine::new(&g, &reg);
        let q = parse_query(
            "SELECT ?s WHERE { ?s <type> <big> . ?s <type> <small> }",
            g.dictionary(),
        )
        .unwrap();
        let m = engine.plan_cache_metrics();
        assert_eq!(m.lookups(), 0);
        engine.warm(&q, 10);
        assert_eq!(m.misses(), 1, "warm planning is the one miss");
        assert_eq!(m.insertions(), 1, "warm must insert the plan");
        let out = engine.run_specqp(&q, 10);
        assert_eq!(m.hits(), 1, "warm→run must be a cache hit");
        assert_eq!(m.lookups(), 2);
        assert!(!out.plan.is_empty());
        // A different shape (same query, different k) misses again.
        let _ = engine.plan(&q, 3);
        assert_eq!(m.misses(), 2);
    }

    /// The `EngineConfig::execution` knob: every block size answers exactly
    /// like the default (scores included), for both Spec-QP and TriniT.
    #[test]
    fn block_sizes_answer_alike() {
        let (g, reg) = setup();
        let q = parse_query(
            "SELECT ?s WHERE { ?s <type> <big> . ?s <type> <small> }",
            g.dictionary(),
        )
        .unwrap();
        let default = Engine::with_config(&g, &reg, EngineConfig::default());
        for size in [1, 64, 4096] {
            let block_cfg = EngineConfig {
                execution: ExecutionMode::Block(size),
                ..EngineConfig::default()
            };
            let block = Engine::with_config(&g, &reg, block_cfg);
            for (a, b) in [
                (default.run_specqp(&q, 10), block.run_specqp(&q, 10)),
                (default.run_trinit(&q, 10), block.run_trinit(&q, 10)),
            ] {
                assert_eq!(a.plan, b.plan, "size {size}");
                assert_eq!(a.answers, b.answers, "size {size}");
            }
        }
    }

    /// The default engine under a specific speculation policy.
    fn engine_with_policy<'g>(
        g: &'g KnowledgeGraph,
        reg: &'g RelaxationRegistry,
        policy: SpeculationPolicy,
    ) -> Engine<'g> {
        let config = EngineConfig {
            speculation: policy,
            ..EngineConfig::default()
        };
        Engine::with_config(g, reg, config)
    }

    /// Fallback recovery: a deliberately wrong plan (relaxations pruned even
    /// though the original patterns cannot fill the top-k) is detected as
    /// under-filled and escalated — by a delta run with no floor, there
    /// being no k-th score yet — until the result matches TriniT.
    #[test]
    fn fallback_recovers_underfilled_speculation() {
        let (g, reg) = setup();
        let engine = engine_with_policy(&g, &reg, SpeculationPolicy::Fallback { max_stages: 3 });
        let q = parse_query(
            "SELECT ?s WHERE { ?s <type> <big> . ?s <type> <small> }",
            g.dictionary(),
        )
        .unwrap();
        // Verbatim bad plan: only 3 of 10 requested answers exist unrelaxed.
        let bad = QueryPlan::none_relaxed(2);
        let verbatim = engine.run_with_plan(&q, 10, bad.clone());
        assert_eq!(verbatim.answers.len(), 3, "the mis-speculation is real");
        assert!(
            !verbatim.report.mis_speculated,
            "verbatim path never verifies"
        );

        let recovered = engine.run_speculative(&q, 10, bad);
        let trinit = engine.run_trinit(&q, 10);
        assert!(recovered.report.mis_speculated);
        assert!(recovered.report.fallback_stages >= 1);
        assert_eq!(
            recovered.report.wasted_answers, 0,
            "the speculative run is kept and the one delta was needed"
        );
        assert!(
            recovered.report.answers_created
                < verbatim.report.answers_created + trinit.report.answers_created,
            "recovery is a delta, not a second full execution"
        );
        assert!(recovered.report.verify > Duration::ZERO);
        assert_eq!(recovered.answers, trinit.answers, "recovery reaches TriniT");
        assert!(recovered.plan.is_relaxed(1), "the offender was escalated");
    }

    /// The ledger's bias is applied where a plan is served, not baked into
    /// the cached plan: recording an offense leaves the cached plan valid,
    /// the next lookup is a hit, and the served plan relaxes the offender.
    /// Clean escalations that flip the bias back make the next hit serve
    /// the unbiased plan again.
    #[test]
    fn ledger_bias_is_applied_to_cache_hits() {
        let (g, _) = setup();
        let d = g.dictionary();
        // A faint big→backup relaxation gives the offender bias something
        // to act on, and the estimate prunes it: 50 `big` answers, and no
        // relaxed answer scores above 0.1.
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::with_context(
            Position::Object,
            d.lookup("big").unwrap(),
            d.lookup("backup").unwrap(),
            0.1,
            d.lookup("type").unwrap(),
        ));
        let engine = Engine::new(&g, &reg);
        let q = parse_query("SELECT ?s WHERE { ?s <type> <big> }", d).unwrap();
        engine.warm(&q, 5);
        let m = engine.plan_cache_metrics();
        let (unbiased, _) = engine.plan(&q, 5);
        assert!(!unbiased.is_relaxed(0), "the estimate prunes `big`");

        let key = q.patterns()[0].stats_key();
        engine.catalog().record_escalations([(key, true)]);
        let (biased, _) = engine.plan(&q, 5);
        assert_eq!(biased, unbiased.escalated(&[0]), "the offender is relaxed");
        assert_eq!(m.hits(), 2, "the cached plan still serves");
        assert_eq!((m.misses(), m.stale()), (1, 0), "nothing was re-planned");

        // Two clean escalations outweigh the one offense: the bias is off.
        engine
            .catalog()
            .record_escalations([(key, false), (key, false)]);
        assert!(!engine.catalog().repeat_offender(&key));
        let (again, _) = engine.plan(&q, 5);
        assert_eq!(again, unbiased);
        assert_eq!((m.hits(), m.misses(), m.stale()), (3, 1, 0));
    }

    /// An escalation that changes nothing must be recorded as a *clean*
    /// prune, not an offense: a genuinely-small result stays identical even
    /// fully relaxed, and teaching the ledger otherwise would permanently
    /// lock the shape onto all-relaxed plans.
    #[test]
    fn unconfirmed_escalation_records_clean_not_offender() {
        let mut b = KnowledgeGraphBuilder::new();
        // Two entities in `rare`; its relaxation target `ghost` is empty, so
        // escalating rare→ghost can never add answers.
        b.add("e0", "type", "rare", 10.0);
        b.add("e1", "type", "rare", 5.0);
        b.add("x", "type", "other", 1.0);
        let g = b.build();
        let d = g.dictionary();
        let ty = d.lookup("type").unwrap();
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::with_context(
            Position::Object,
            d.lookup("rare").unwrap(),
            d.lookup("other").unwrap(),
            0.9,
            ty,
        ));
        let engine = engine_with_policy(&g, &reg, SpeculationPolicy::Fallback { max_stages: 3 });
        let q = parse_query("SELECT ?s WHERE { ?s <type> <rare> }", g.dictionary()).unwrap();
        // k=10 with only 2 original answers: under-filled fires. The
        // escalation adds `other`'s entity `x`, so the first stage IS
        // confirmed … use a bare plan against an empty relaxation instead:
        let bad = QueryPlan::none_relaxed(1);
        let out = engine.run_speculative(&q, 10, bad);
        // The escalated run found `x` via the relaxation (answers changed),
        // so this one is a confirmed offense — sanity-check the detector.
        assert!(out.report.mis_speculated);

        // Now the true unconfirmed case: a fresh engine and a query whose
        // relaxed space adds nothing (relaxation weight scores below the
        // originals and target list empty for the join).
        let mut b2 = KnowledgeGraphBuilder::new();
        b2.add("e0", "type", "rare", 10.0);
        b2.add("e1", "type", "rare", 5.0);
        b2.add("zz", "type", "ghost", 1.0);
        let g2 = b2.build();
        let d2 = g2.dictionary();
        let ty2 = d2.lookup("type").unwrap();
        let mut reg2 = RelaxationRegistry::new();
        // rare relaxes to a class with no members beyond `zz`… which IS a
        // member. Instead relax `ghost` (never queried) so the queried
        // pattern has a relaxation whose match list adds no *new* bindings:
        // rare → rare would be filtered; use rare → empty class name.
        let empty = d2.lookup("zz").unwrap(); // an entity id never used as a class
        reg2.add(TermRule::with_context(
            Position::Object,
            d2.lookup("rare").unwrap(),
            empty,
            0.9,
            ty2,
        ));
        let engine2 = engine_with_policy(&g2, &reg2, SpeculationPolicy::Fallback { max_stages: 3 });
        let q2 = parse_query("SELECT ?s WHERE { ?s <type> <rare> }", g2.dictionary()).unwrap();
        let bad2 = QueryPlan::none_relaxed(1);
        let out2 = engine2.run_speculative(&q2, 10, bad2);
        assert!(out2.report.mis_speculated, "under-filled is still detected");
        assert!(out2.report.fallback_stages >= 1, "escalation was attempted");
        assert_eq!(out2.answers.len(), 2, "nothing new was recoverable");
        assert_eq!(
            out2.report.wasted_answers, 0,
            "an empty delta (the relaxed list has no rows) creates nothing"
        );
        let key = q2.patterns()[0].stats_key();
        let outcome = engine2.catalog().speculation_outcome(&key);
        assert_eq!(
            outcome.mis_speculations, 0,
            "unconfirmed escalation must not count as an offense"
        );
        assert!(
            outcome.clean_prunes >= 1,
            "the paid-for escalation marks the pattern settled"
        );
        assert!(
            !engine2.catalog().repeat_offender(&key),
            "the shape is not locked onto all-relaxed plans"
        );
        // The shape is settled: the next identical run must not re-trigger
        // the escalation ladder (the genuinely-small result would otherwise
        // pay the fallback cost on every request forever).
        let again = engine2.run_speculative(&q2, 10, QueryPlan::none_relaxed(1));
        assert_eq!(
            again.report.fallback_stages, 0,
            "settled shapes are not re-escalated"
        );
        assert!(
            !again.report.mis_speculated,
            "known-benign under-fill is clean"
        );
        assert_eq!(again.answers.len(), 2);
    }

    /// Regression (spurious confirmed offenses): escalating a pattern moves
    /// it out of the join group, so a restart sums the same three scores in
    /// another order — `(0.2 + 0.3) + 0.1` where the speculative tree had
    /// `(0.1 + 0.2) + 0.3`. In `f64` those differ in the last place; exact
    /// scores make the two trees agree bit for bit. A delta that
    /// contributes nothing leaves the answers untouched: the probe is clean.
    #[test]
    fn escalation_that_only_reorders_the_sum_is_not_an_offense() {
        let mut b = KnowledgeGraphBuilder::new();
        for (class, score) in [("a", 0.1), ("b", 0.2), ("c", 0.3)] {
            // `head` pins every normalizer at 1.0, so `e` scores as written.
            b.add("head", "type", class, 1.0);
            b.add("e", "type", class, score);
        }
        b.add("loner", "type", "ghost", 1.0);
        let g = b.build();
        let d = g.dictionary();
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::with_context(
            Position::Object,
            d.lookup("a").unwrap(),
            d.lookup("ghost").unwrap(),
            0.9,
            d.lookup("type").unwrap(),
        ));
        let q = parse_query(
            "SELECT ?s WHERE { ?s <type> <a> . ?s <type> <b> . ?s <type> <c> }",
            d,
        )
        .unwrap();
        let engine = engine_with_policy(&g, &reg, SpeculationPolicy::Fallback { max_stages: 3 });
        let bare = engine.run_with_plan(&q, 5, QueryPlan::none_relaxed(3));
        let restart = engine.run_with_plan(&q, 5, QueryPlan::new(3, &[0]));
        assert_eq!(bare.answers.len(), 2);
        assert_eq!(
            bare.answers, restart.answers,
            "the two trees sum the same scores to the same bits"
        );

        // Under-filled (2 < 5): pattern 0 is escalated; `ghost` joins nothing.
        let out = engine.run_speculative(&q, 5, QueryPlan::none_relaxed(3));
        assert_eq!(out.report.fallback_stages, 1);
        assert_eq!(out.answers, bare.answers, "bit for bit what was in hand");
        assert!(
            out.report.wasted_answers > 0,
            "the delta read `ghost` in vain"
        );
        let key = q.patterns()[0].stats_key();
        let outcome = engine.catalog().speculation_outcome(&key);
        assert_eq!(outcome.mis_speculations, 0, "nothing was confirmed");
        assert!(outcome.clean_prunes >= 1, "the probe is on file as clean");
        assert!(!engine.catalog().repeat_offender(&key));
    }

    /// A delta row may *upgrade* a binding the old top-k already holds: `e1`
    /// is a weak `small` but the best `backup`. The union keeps one `e1`, at
    /// the higher score, and the result is the escalated plan's own top-k.
    #[test]
    fn delta_upgrades_a_binding_already_in_the_top_k() {
        let mut b = KnowledgeGraphBuilder::new();
        for i in 0..10 {
            b.add(&format!("e{i}"), "type", "big", 100.0 / (i + 1) as f64);
        }
        b.add("e0", "type", "small", 10.0);
        b.add("e1", "type", "small", 1.0);
        b.add("e1", "type", "backup", 60.0);
        b.add("e2", "type", "backup", 30.0);
        let g = b.build();
        let d = g.dictionary();
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::with_context(
            Position::Object,
            d.lookup("small").unwrap(),
            d.lookup("backup").unwrap(),
            0.9,
            d.lookup("type").unwrap(),
        ));
        let q = parse_query("SELECT ?s WHERE { ?s <type> <big> . ?s <type> <small> }", d).unwrap();
        let engine = engine_with_policy(&g, &reg, SpeculationPolicy::Fallback { max_stages: 3 });
        // k = 2 is filled (e0 2.0, e1 0.6), so the delta runs above a floor
        // of 0.6; the prediction makes pattern 1 a suspect.
        let bad = QueryPlan::none_relaxed(2).with_predictions(vec![None, Some(Score::new(9.0))]);
        let old = engine.run_with_plan(&q, 2, bad.clone());
        let out = engine.run_speculative(&q, 2, bad);
        let restart = engine.run_with_plan(&q, 2, QueryPlan::new(2, &[1]));
        assert_eq!(out.report.fallback_stages, 1);
        assert_eq!(out.report.wasted_answers, 0);
        assert_eq!(out.answers, restart.answers, "two-term sums are exact");
        let e1 = &old.answers[1].binding;
        assert_eq!(&out.answers[1].binding, e1, "still one e1 …");
        assert!(out.answers[1].score > old.answers[1].score, "… upgraded");
        let key = q.patterns()[1].stats_key();
        assert_eq!(
            engine.catalog().speculation_outcome(&key).mis_speculations,
            1
        );
    }

    /// `k = 0` asks for nothing: no verdict, no stage, no answers.
    #[test]
    fn k_zero_takes_no_recovery_stage() {
        let (g, reg) = setup();
        let engine = engine_with_policy(&g, &reg, SpeculationPolicy::Fallback { max_stages: 3 });
        let q = parse_query(
            "SELECT ?s WHERE { ?s <type> <big> . ?s <type> <small> }",
            g.dictionary(),
        )
        .unwrap();
        let out = engine.run_speculative(&q, 0, QueryPlan::none_relaxed(2));
        assert!(out.answers.is_empty());
        assert!(!out.report.mis_speculated);
        assert_eq!(out.report.fallback_stages, 0);
    }

    /// An unfixable under-filled shape must not oscillate the offender
    /// bias (flag → relax → clean → re-flag …), which would change the
    /// served plan — and pay a fallback ladder — on every single run.
    #[test]
    fn fallback_does_not_oscillate_on_unfixable_underfill() {
        let (g, reg) = setup();
        let engine = engine_with_policy(&g, &reg, SpeculationPolicy::Fallback { max_stages: 3 });
        // big ⋈ small stays under k=40 even fully relaxed; run the same
        // query many times.
        let q = parse_query(
            "SELECT ?s WHERE { ?s <type> <big> . ?s <type> <small> }",
            g.dictionary(),
        )
        .unwrap();
        let key = q.patterns()[1].stats_key();
        // PLANGEN relaxes `small` on its own, so seed the ledger with a run
        // of the bare plan: recovery confirms it and puts `small` on file.
        let seed = engine.run_speculative(&q, 40, QueryPlan::none_relaxed(2));
        assert!(seed.report.mis_speculated, "the seed run is flagged");
        assert!(engine.catalog().repeat_offender(&key), "the flag set it");
        // The served plan relaxes the offender, so nothing is escalated and
        // nothing is recorded: the bias never flips.
        let mut bias = true;
        let mut flips = 0;
        for _ in 0..6 {
            let _ = engine.run_specqp(&q, 40);
            let now = engine.catalog().repeat_offender(&key);
            flips += usize::from(now != bias);
            bias = now;
        }
        assert_eq!(flips, 0, "the bias flipped");
        let (served, _) = engine.plan(&q, 40);
        let _ = engine.run_specqp(&q, 40);
        let _ = engine.run_specqp(&q, 40);
        assert_eq!(engine.catalog().repeat_offender(&key), bias);
        assert_eq!(
            engine.plan(&q, 40).0,
            served,
            "steady state must serve one plan"
        );
    }

    /// The ledger learns only from escalations. Once an escalation has put
    /// `small` on file as an offender, runs of the served plan (the bias
    /// relaxes `small`, so nothing is pruned) verify clean, take no stage,
    /// waste nothing and leave its outcome as it was.
    #[test]
    fn clean_runs_leave_the_ledger_untouched() {
        let (g, reg) = setup();
        let engine = engine_with_policy(&g, &reg, SpeculationPolicy::Fallback { max_stages: 3 });
        let q = parse_query(
            "SELECT ?s WHERE { ?s <type> <big> . ?s <type> <small> }",
            g.dictionary(),
        )
        .unwrap();
        let key = q.patterns()[1].stats_key();
        let seed = engine.run_speculative(&q, 40, QueryPlan::none_relaxed(2));
        assert!(seed.report.mis_speculated);
        let offense = specqp_stats::SpeculationOutcome {
            mis_speculations: 1,
            clean_prunes: 0,
        };
        assert_eq!(engine.catalog().speculation_outcome(&key), offense);
        for _ in 0..3 {
            let out = engine.run_specqp(&q, 40);
            assert!(!out.report.mis_speculated, "{:?}", out.report);
            assert_eq!(out.report.fallback_stages, 0);
            assert_eq!(out.report.wasted_answers, 0);
            assert_eq!(engine.catalog().speculation_outcome(&key), offense);
        }
    }

    /// The live path end to end: a pin taken before a commit keeps reading
    /// the old version (epoch isolation), while the first engine call after
    /// the commit reads the new epoch — the cached plan dropped as stale,
    /// and the freshly written triple served on top.
    #[test]
    fn live_engine_pins_versions_and_invalidates_on_commit() {
        use kgstore::{LiveGraph, PatternKey, WriteBatch};

        let (g, reg) = setup();
        let live = Arc::new(LiveGraph::new(g));
        let engine = Engine::new(Arc::clone(&live), Arc::new(reg));
        // `big` has no relaxations, so answer sets are exact.
        let (q, ty, big) = {
            let graph = engine.graph();
            let d = graph.dictionary();
            (
                parse_query("SELECT ?s WHERE { ?s <type> <big> }", d).unwrap(),
                d.lookup("type").unwrap(),
                d.lookup("big").unwrap(),
            )
        };
        let before = engine.run_specqp(&q, 10);
        let m = engine.plan_cache_metrics();

        // Pin the pre-commit version, then commit a higher-scored entity.
        let pinned = engine.graph();
        let seen_before = pinned.matches(PatternKey::po(ty, big)).len();
        let mut batch = WriteBatch::new();
        batch.assert("brand-new", "type", "big", 500.0);
        let epoch = live.commit(&batch);
        assert_eq!(epoch.value(), 1);

        // Epoch isolation: the held pin still reads the old version.
        assert_eq!(pinned.epoch(), kgstore::Epoch::ZERO);
        assert_eq!(pinned.matches(PatternKey::po(ty, big)).len(), seen_before);

        // A fresh call reads the commit: its plan starts the table over,
        // discarding the old-epoch plan, and the new triple ranks first.
        let after = engine.run_specqp(&q, 10);
        assert_eq!(m.stale(), 1, "old-epoch plan discarded");
        let graph = engine.graph();
        assert_eq!(graph.epoch(), epoch);
        let new_id = graph.dictionary().lookup("brand-new").unwrap();
        let binds_new = |a: &PartialAnswer| a.binding.iter().any(|(_, t)| t == new_id);
        assert!(binds_new(&after.answers[0]), "new triple ranks first");
        assert!(!before.answers.iter().any(binds_new));

        // Steady state: no further commits, nothing further goes stale.
        let _ = engine.run_specqp(&q, 10);
        assert_eq!(m.stale(), 1);
    }

    /// Regression: a planner still on an older pin must not leave its plan
    /// where the newer epoch finds it. The older pin plans epoch 0 after a
    /// newer pin has seen epoch 1; the next plan at epoch 1 must miss.
    #[test]
    fn an_older_pin_leaves_no_plan_for_the_next_epoch() {
        use kgstore::{LiveGraph, WriteBatch};

        let (g, reg) = setup();
        let live = Arc::new(LiveGraph::new(g));
        let engine = Engine::new(Arc::clone(&live), Arc::new(reg));
        let old = engine.graph();
        let q = parse_query("SELECT ?s WHERE { ?s <type> <big> }", old.dictionary()).unwrap();
        let mut batch = WriteBatch::new();
        batch.assert("brand-new", "type", "big", 500.0);
        live.commit(&batch);
        let new = engine.graph();
        assert_eq!((old.epoch().value(), new.epoch().value()), (0, 1));

        let m = engine.plan_cache_metrics();
        let _ = engine.plan_on(&old, &q, 10);
        let _ = engine.plan(&q, 10);
        assert_eq!(m.hits(), 0, "an epoch-0 plan served at epoch 1");
        assert_eq!(m.misses(), 2);
        // The epoch-1 plan now serves epoch 1, and the old pin cannot
        // displace it.
        let _ = engine.plan_on(&old, &q, 10);
        let _ = engine.plan(&q, 10);
        assert_eq!(m.hits(), 1);
    }

    /// Regression: an engine over a version a live graph published reports
    /// that version's epoch, the one its plan cache serves plans for — not
    /// `Epoch::ZERO` because the engine itself holds no live graph.
    #[test]
    fn a_pin_of_a_published_version_reports_its_epoch() {
        use kgstore::{Epoch, LiveGraph, WriteBatch};

        let (g, reg) = setup();
        let live = LiveGraph::new(g);
        let mut batch = WriteBatch::new();
        batch.assert("brand-new", "type", "big", 500.0);
        let epoch = live.commit(&batch);
        let (version, _) = live.pinned();
        assert_eq!(version.epoch(), epoch);
        let engine = Engine::new(version, &reg);
        let pin = engine.graph();
        assert_eq!(pin.epoch(), epoch);
        let q = parse_query("SELECT ?s WHERE { ?s <type> <big> }", pin.dictionary()).unwrap();
        let (plan, _) = engine.plan(&q, 10);
        let shape = QueryShape::of(&q, 10);
        assert_eq!(engine.plan_cache().get(epoch, &shape), Some(plan));
        assert_eq!(engine.plan_cache().get(Epoch::ZERO, &shape), None);
    }

    #[test]
    fn naive_matches_trinit() {
        let (g, reg) = setup();
        let engine = Engine::new(&g, &reg);
        let q = parse_query(
            "SELECT ?s WHERE { ?s <type> <big> . ?s <type> <small> }",
            g.dictionary(),
        )
        .unwrap();
        let naive = engine.run_naive(&q, 10);
        let trinit = engine.run_trinit(&q, 10);
        assert_eq!(naive.answers, trinit.answers);
    }
}
