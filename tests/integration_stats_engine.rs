//! Cross-crate tests of the statistics layer against *measured* reality:
//! the estimator's predictions are compared with true answer-score
//! quantiles computed by the naive executor.

use datagen::{XkgConfig, XkgGenerator};
use kgstore::{KnowledgeGraphBuilder, LiveGraph, WriteBatch};
use relax::RelaxationRegistry;
use sparql::{TriplePattern, Var};
use specqp::Engine;
use specqp_stats::{CardinalityEstimator, ExactCardinality, ScoreEstimator, StatsCatalog};
use std::sync::Arc;

#[test]
fn estimated_counts_match_reality_exactly() {
    let ds = XkgGenerator::new(XkgConfig::small(51)).generate();
    let oracle = ExactCardinality::new();
    let engine = Engine::new(&ds.graph, &ds.registry);
    for q in ds.workload.queries.iter().take(4) {
        let n = oracle.cardinality(&ds.graph, q.patterns());
        // Count original answers with the naive executor restricted to the
        // un-relaxed query: run with the bare plan at huge k.
        let bare = engine.run_with_plan(q, 1_000_000, specqp::QueryPlan::none_relaxed(q.len()));
        assert_eq!(n as usize, bare.answers.len());
    }
}

#[test]
fn estimator_top_score_brackets_truth() {
    // The model's E(1) must land within the score domain and not be absurd:
    // within a factor-of-domain bound of the true top score.
    let ds = XkgGenerator::new(XkgConfig::small(52)).generate();
    let catalog = StatsCatalog::new();
    let oracle = ExactCardinality::new();
    let est = ScoreEstimator::new(&catalog, &oracle);
    let engine = Engine::new(&ds.graph, &ds.registry);
    for q in ds.workload.queries.iter().take(5) {
        let weighted: Vec<_> = q.patterns().iter().map(|p| (*p, 1.0)).collect();
        let e = est.estimate(&ds.graph, &weighted);
        let Some(pred_top) = e.expected_top_score() else {
            continue;
        };
        let bare = engine.run_with_plan(q, 1, specqp::QueryPlan::none_relaxed(q.len()));
        let Some(true_top) = bare.answers.first().map(|a| a.score.value()) else {
            continue;
        };
        let domain = q.len() as f64;
        assert!(pred_top <= domain + 1e-9);
        assert!(
            (pred_top - true_top).abs() <= 0.75 * domain,
            "prediction {pred_top} vs truth {true_top} (domain {domain})"
        );
    }
}

#[test]
fn catalog_is_shared_across_engine_runs() {
    let ds = XkgGenerator::new(XkgConfig::small(55)).generate();
    let engine = Engine::new(&ds.graph, &ds.registry);
    let q = &ds.workload.queries[0];
    engine.warm(q, 10);
    let (_, t1) = engine.plan(q, 10);
    let (_, t2) = engine.plan(q, 15); // different k reuses all stats
    assert!(t2 <= t1 * 20 + std::time::Duration::from_millis(5));
}

/// A planner still holding an older pin while the engine moves on to a
/// newer epoch computes that version's numbers; they must not land in the
/// memos the newer version reads.
#[test]
fn an_older_pin_leaves_no_stale_numbers_for_the_next_epoch() {
    let mut b = KnowledgeGraphBuilder::new();
    b.add("a", "type", "singer", 9.0);
    b.add("b", "type", "singer", 3.0);
    let live = Arc::new(LiveGraph::new(b.build()));
    let commit = |s: &str, score: f64| {
        let mut batch = WriteBatch::new();
        batch.assert(s, "type", "singer", score);
        live.commit(&batch);
    };
    let registry = RelaxationRegistry::new();
    let engine = Engine::new(Arc::clone(&live), &registry);
    commit("c", 5.0);
    let v1 = engine.graph();
    commit("d", 1.0);
    let v2 = engine.graph();
    let d = v2.dictionary();
    let singer = TriplePattern::new(
        Var(0),
        d.lookup("type").unwrap(),
        d.lookup("singer").unwrap(),
    );

    let fresh = StatsCatalog::new().stats(&v2, &singer);
    let old = engine.catalog().stats(&v1, &singer);
    assert_ne!(old, fresh, "the versions differ in this pattern");
    assert_eq!(engine.catalog().stats(&v2, &singer), fresh);
    let _ = engine.catalog().stats(&v1, &singer);
    assert_eq!(engine.catalog().stats(&v2, &singer), fresh);

    // The engine's oracle is private; a shared one behaves the same way.
    let oracle = ExactCardinality::new();
    assert_eq!(oracle.cardinality(&v1, &[singer]), 3.0);
    assert_eq!(oracle.cardinality(&v2, &[singer]), 4.0);
    assert_eq!(oracle.cardinality(&v1, &[singer]), 3.0);
    assert_eq!(oracle.cardinality(&v2, &[singer]), 4.0);
}
