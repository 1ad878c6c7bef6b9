//! Morsel-driven intra-query parallelism.
//!
//! One pattern's scan — the *partition target* — is split into rank-range
//! morsels handed out by a shared [`MorselDispenser`]; every worker thread
//! owns a complete private operator tree whose target scan pulls morsels
//! from the dispenser, so workers that finish cheap morsels immediately
//! steal the next one. Non-target scans run whole in every worker: because
//! the target's rows partition exactly, each answer the sequential plan
//! produces is found by exactly one worker, and the per-worker top-k sets
//! together cover the global top-k.
//!
//! Merging back is the same canonical collection order the naive executor
//! uses — total `(score desc, binding asc)` order, truncated to `k` — so
//! parallel answers are **bit-identical** to sequential block execution
//! regardless of worker count or morsel size.
//!
//! # What may be partitioned
//!
//! Only a scan whose rows have pairwise-distinct bindings can be split:
//! a relaxed singleton's [`BlockIncrementalMerge`](operators::BlockIncrementalMerge)
//! deduplicates across its *whole* input (max-score semantics), so splitting
//! it would surface the same binding from two workers at different scores.
//! [`partition_target`] therefore only considers join-group members and
//! singletons with no applicable relaxations, and picks the one with the
//! longest match list (most work to spread).

use kgstore::{KnowledgeGraph, PatternKey};
use operators::{MetricsHandle, MorselDispenser, OpMetrics, PartialAnswer};
use relax::RelaxationRegistry;
use sparql::Query;
use std::rc::Rc;
use std::sync::Arc;

use crate::plan::QueryPlan;

/// Picks which pattern's scan to partition across workers, or `None` when
/// no pattern is safely partitionable (fall back to sequential execution).
///
/// Eligible patterns are those whose scan streams pairwise-distinct
/// bindings: join-group members (always bare scans) and singletons with no
/// term or chain relaxations applicable — never a delta plan's target,
/// whose scan is not in the tree. Among the eligible, the longest match
/// list wins; ties break to the lowest pattern index so the choice is
/// deterministic. Lists shorter than 2 rows are never worth splitting.
pub fn partition_target(
    graph: &KnowledgeGraph,
    query: &Query,
    plan: &QueryPlan,
    registry: &RelaxationRegistry,
) -> Option<usize> {
    let patterns = query.patterns();
    let fresh = query.var_count() as u32;
    let mut best: Option<(usize, usize)> = None; // (list len, pattern index)
    for (i, pattern) in patterns.iter().enumerate() {
        let eligible = if plan.is_relaxed(i) {
            plan.delta_target() != Some(i)
                && registry.relaxation_count(pattern) == 0
                && registry.chain_relaxations_for(pattern, fresh).is_empty()
        } else {
            true
        };
        if !eligible {
            continue;
        }
        let (s, p, o) = pattern.const_parts();
        let len = graph.matches(PatternKey { s, p, o }).len();
        if len >= 2 && best.is_none_or(|(blen, _)| len > blen) {
            best = Some((len, i));
        }
    }
    best.map(|(_, i)| i)
}

/// Runs `drain` — one private operator tree drained to its top-`k` — on
/// `workers` threads that split pattern `target`'s scan through one shared
/// [`MorselDispenser`], and merges the per-worker top-k sets into the
/// answer vector sequential execution produces.
///
/// Each worker drains around thread-private [`OpMetrics`] (the per-query
/// handle is an `Rc` and cannot cross threads); after the scoped join the
/// private counters are [absorbed](OpMetrics::absorb) into `metrics`. Note
/// that work counters legitimately exceed the sequential run's — non-target
/// scans repeat in every worker — while the returned answers do not change
/// at all.
pub(crate) fn run_morsels(
    graph: &KnowledgeGraph,
    query: &Query,
    target: usize,
    workers: usize,
    metrics: &MetricsHandle,
    k: usize,
    drain: impl Fn(MetricsHandle, Option<(usize, Arc<MorselDispenser>)>) -> Vec<PartialAnswer> + Sync,
) -> Vec<PartialAnswer> {
    let (s, p, o) = query.patterns()[target].const_parts();
    let total = graph.matches(PatternKey { s, p, o }).len();
    let workers = workers.max(1).min(total.max(1));
    let dispenser = Arc::new(MorselDispenser::for_workers(total, workers));

    let per_worker: Vec<(Vec<PartialAnswer>, OpMetrics)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (dispenser, drain) = (Arc::clone(&dispenser), &drain);
                scope.spawn(move || {
                    let worker_metrics = OpMetrics::new_handle();
                    let answers = drain(worker_metrics.clone(), Some((target, dispenser)));
                    let counters = Rc::try_unwrap(worker_metrics)
                        .expect("operator tree dropped, worker handle is unique");
                    (answers, counters)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("morsel worker panicked"))
            .collect()
    });

    let mut acc = Vec::new();
    for (answers, counters) in &per_worker {
        metrics.absorb(counters);
        acc.extend(answers.iter().cloned());
    }
    // Canonical collection order (score desc, binding asc) — the same total
    // order `run_naive` sorts by — then truncate to the global top-k.
    acc.sort_by(|a, b| b.cmp(a));
    acc.truncate(k);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run_naive, run_plan};
    use crate::EngineConfig;
    use kgstore::KnowledgeGraphBuilder;
    use operators::ExecutionMode;
    use relax::{ChainRule, Position, TermRule};
    use sparql::QueryBuilder;

    fn setup() -> (KnowledgeGraph, RelaxationRegistry) {
        let mut b = KnowledgeGraphBuilder::new();
        for (i, (c, base)) in [("singer", 100.0), ("lyricist", 60.0)].iter().enumerate() {
            for n in 0..40 {
                b.add(
                    &format!("e{n}"),
                    "type",
                    c,
                    base - (n as f64) - i as f64 * 0.25,
                );
            }
        }
        b.add("only-singer", "type", "singer", 55.0);
        b.add("only-vocalist", "type", "vocalist", 54.0);
        b.add("only-vocalist", "type", "lyricist", 53.0);
        let g = b.build();
        let d = g.dictionary();
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::with_context(
            Position::Object,
            d.lookup("singer").unwrap(),
            d.lookup("vocalist").unwrap(),
            0.8,
            d.lookup("type").unwrap(),
        ));
        (g, reg)
    }

    /// The one runner at `workers` workers and 8-row blocks.
    fn run_at(
        g: &KnowledgeGraph,
        q: &Query,
        plan: &QueryPlan,
        reg: &RelaxationRegistry,
        metrics: &MetricsHandle,
        k: usize,
        workers: usize,
    ) -> Vec<PartialAnswer> {
        let config = EngineConfig {
            execution: ExecutionMode::Block(8),
            parallelism: workers,
            ..EngineConfig::default()
        };
        run_plan(g, q, plan, reg, metrics, &config, k)
    }

    fn query(g: &KnowledgeGraph) -> Query {
        let d = g.dictionary();
        let ty = d.lookup("type").unwrap();
        let mut b = QueryBuilder::new();
        let s = b.var("s");
        b.pattern(s, ty, d.lookup("singer").unwrap());
        b.pattern(s, ty, d.lookup("lyricist").unwrap());
        b.project(s);
        b.build().unwrap()
    }

    #[test]
    fn target_is_deterministic_and_skips_relaxed_singletons() {
        let (g, reg) = setup();
        let q = query(&g);
        // Pattern 0 (singer) has a relaxation; as a singleton it must be
        // skipped, leaving pattern 1 (lyricist).
        let all = QueryPlan::all_relaxed(2);
        assert_eq!(partition_target(&g, &q, &all, &reg), Some(1));
        // As join-group members both are bare scans; singer's list (41) beats
        // lyricist's (40).
        let none = QueryPlan::none_relaxed(2);
        assert_eq!(partition_target(&g, &q, &none, &reg), Some(0));
        // A chain rule alone makes a singleton a deduplicating merge too.
        let ty = g.dictionary().lookup("type").unwrap();
        let mut chain_only = RelaxationRegistry::new();
        chain_only.add_chain(ChainRule::new(ty, vec![ty, ty], 0.5));
        assert_eq!(chain_only.relaxation_count(&q.patterns()[0]), 0);
        assert_eq!(partition_target(&g, &q, &all, &chain_only), None);
        assert_eq!(partition_target(&g, &q, &none, &chain_only), Some(0));
        // A delta's target has no scan in the tree to split.
        let delta = none.delta(0, None);
        assert_eq!(
            partition_target(&g, &q, &delta, &RelaxationRegistry::new()),
            Some(1)
        );
    }

    #[test]
    fn parallel_answers_are_bit_identical_to_sequential() {
        let (g, reg) = setup();
        let q = query(&g);
        for plan in [QueryPlan::all_relaxed(2), QueryPlan::none_relaxed(2)] {
            assert!(partition_target(&g, &q, &plan, &reg).is_some());
            let seq = run_at(&g, &q, &plan, &reg, &OpMetrics::new_handle(), 10, 1);
            for workers in [2, 3, 8] {
                let m = OpMetrics::new_handle();
                let par = run_at(&g, &q, &plan, &reg, &m, 10, workers);
                assert_eq!(seq.len(), par.len(), "k mismatch at {workers} workers");
                for (a, b) in seq.iter().zip(&par) {
                    assert_eq!(a.binding, b.binding, "{workers} workers");
                    assert!(a.score.approx_eq(b.score, 1e-12), "{workers} workers");
                }
                assert!(m.answers_created() > 0, "worker metrics were absorbed");
            }
        }
    }

    #[test]
    fn parallel_matches_naive_ground_truth() {
        let (g, reg) = setup();
        let q = query(&g);
        let plan = QueryPlan::all_relaxed(2);
        let naive = run_naive(&g, &q, &reg, 5);
        let par = run_at(&g, &q, &plan, &reg, &OpMetrics::new_handle(), 5, 4);
        assert_eq!(naive.len(), par.len());
        for (a, b) in naive.iter().zip(&par) {
            assert_eq!(a.binding, b.binding);
            assert!(a.score.approx_eq(b.score, 1e-9));
        }
    }

    #[test]
    fn tiny_lists_refuse_partitioning() {
        let mut b = KnowledgeGraphBuilder::new();
        b.add("a", "type", "singer", 1.0);
        let g = b.build();
        let d = g.dictionary();
        let ty = d.lookup("type").unwrap();
        let mut qb = QueryBuilder::new();
        let s = qb.var("s");
        qb.pattern(s, ty, d.lookup("singer").unwrap());
        qb.project(s);
        let q = qb.build().unwrap();
        let reg = RelaxationRegistry::new();
        assert_eq!(
            partition_target(&g, &q, &QueryPlan::none_relaxed(1), &reg),
            None
        );
    }
}
