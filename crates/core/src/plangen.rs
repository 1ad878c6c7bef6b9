//! PLANGEN — Algorithm 1 of the paper.
//!
//! For each triple pattern `qᵢ` of the query, compare
//!
//! * `E_Q(k)` — the expected k-th best score of the **original** query, with
//! * `E_{Q′}(1)` — the expected best score of the query with `qᵢ` replaced
//!   by its **top-weighted relaxation** `q′ᵢ`.
//!
//! If `E_{Q′}(1) > E_Q(k)`, some relaxed answer may enter the top-k, so
//! `qᵢ` becomes a singleton (its relaxations will be processed through an
//! incremental merge); otherwise all of `qᵢ`'s relaxations are pruned.
//! Only the *top-weighted* relaxation needs checking because normalization
//! (Def. 5) makes every relaxation's best possible score equal its weight.

use crate::plan::QueryPlan;
use kgstore::KnowledgeGraph;
use relax::RelaxationRegistry;
use sparql::{Query, TriplePattern};
use specqp_common::Score;
use specqp_stats::{CardinalityEstimator, RefitMode, ScoreEstimator, StatsCatalog};

/// Runs PLANGEN and returns the speculative plan.
///
/// `E_Q(k) = None` (the original query cannot produce `k` answers — some
/// pattern is empty or the join is too selective) is treated as `−∞`: any
/// pattern whose top relaxation yields answers becomes a singleton, which is
/// the behaviour the paper describes for Twitter ("most of the queries
/// required all triple patterns to be relaxed … we were able to identify the
/// requirement of all the relaxations").
///
/// The plan also carries each pattern's `E_{Q'}(1)`
/// ([`predicted_relaxed_best`](QueryPlan::predicted_relaxed_best)), so the
/// speculation lifecycle's verifier can replay the pruning inequality
/// against the observed k-th score. The speculation ledger is not read
/// here: the plan depends on the query shape, `k` and the graph version
/// alone, and the engine relaxes recorded repeat offenders when it serves
/// the plan.
///
/// `refit` has a single variant and `_learned` has no effect: the benchmark
/// harness passes both, so the signature keeps them.
pub fn plan_query<C: CardinalityEstimator + ?Sized>(
    graph: &KnowledgeGraph,
    query: &Query,
    k: usize,
    catalog: &StatsCatalog,
    cardinality: &C,
    registry: &RelaxationRegistry,
    refit: RefitMode,
    _learned: bool,
) -> QueryPlan {
    assert!(k >= 1, "top-k requires k ≥ 1");
    let estimator = ScoreEstimator::with_mode(catalog, cardinality, refit);
    let patterns = query.patterns();

    let original: Vec<(TriplePattern, f64)> = patterns.iter().map(|p| (*p, 1.0)).collect();
    let eq_k = estimator
        .estimate(graph, &original)
        .expected_score_at_rank(k);

    let mut singletons: Vec<usize> = Vec::new();
    let mut predicted_best: Vec<Option<Score>> = vec![None; patterns.len()];
    for (i, q_i) in patterns.iter().enumerate() {
        let Some(top) = registry.top_relaxation_for(q_i) else {
            // No relaxations exist for this pattern — nothing to speculate.
            continue;
        };
        let mut relaxed = original.clone();
        relaxed[i] = (top.pattern, top.weight);
        let eq1_relaxed = estimator.estimate(graph, &relaxed).expected_top_score();
        predicted_best[i] = eq1_relaxed.map(Score::new);
        let required = match (eq1_relaxed, eq_k) {
            (Some(best_relaxed), Some(kth_original)) => best_relaxed > kth_original,
            // Original can't fill the top-k but the relaxed query has
            // answers: relaxations are required.
            (Some(_), None) => true,
            // The relaxed query itself yields nothing: pruning is free.
            (None, _) => false,
        };
        if required {
            singletons.push(i);
        }
    }
    QueryPlan::new(patterns.len(), &singletons).with_predictions(predicted_best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgstore::KnowledgeGraphBuilder;
    use relax::{Position, TermRule};
    use sparql::QueryBuilder;
    use specqp_stats::ExactCardinality;

    /// A KG engineered so that one pattern's relaxation obviously matters
    /// and another's obviously does not:
    ///
    /// * class `rich` has 100 members (scores power-law) — k answers exist
    ///   without any relaxation;
    /// * class `poor` has 2 members — top-k needs its relaxation `backup`
    ///   (50 members, weight 0.9);
    /// * class `rich`'s relaxation `tiny` is nearly empty and weighted 0.2.
    fn setup() -> (kgstore::KnowledgeGraph, RelaxationRegistry) {
        let mut b = KnowledgeGraphBuilder::new();
        for i in 0..100 {
            b.add(&format!("e{i}"), "type", "rich", 1000.0 / (i + 1) as f64);
        }
        for i in 0..2 {
            b.add(&format!("e{i}"), "type", "poor", 100.0 / (i + 1) as f64);
        }
        for i in 0..50 {
            b.add(&format!("e{i}"), "type", "backup", 500.0 / (i + 1) as f64);
        }
        b.add("e0", "type", "tiny", 1.0);
        let g = b.build();
        let d = g.dictionary();
        let ty = d.lookup("type").unwrap();
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::with_context(
            Position::Object,
            d.lookup("poor").unwrap(),
            d.lookup("backup").unwrap(),
            0.9,
            ty,
        ));
        reg.add(TermRule::with_context(
            Position::Object,
            d.lookup("rich").unwrap(),
            d.lookup("tiny").unwrap(),
            0.2,
            ty,
        ));
        (g, reg)
    }

    fn query(g: &kgstore::KnowledgeGraph, classes: &[&str]) -> Query {
        let d = g.dictionary();
        let ty = d.lookup("type").unwrap();
        let mut b = QueryBuilder::new();
        let s = b.var("s");
        for c in classes {
            b.pattern(s, ty, d.lookup(c).unwrap());
        }
        b.project(s);
        b.build().unwrap()
    }

    #[test]
    fn prunes_useless_relaxation_keeps_needed_one() {
        let (g, reg) = setup();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        let q = query(&g, &["rich", "poor"]);
        let plan = plan_query(
            &g,
            &q,
            10,
            &catalog,
            &card,
            &reg,
            RefitMode::TwoBucket,
            false,
        );
        // Join rich⋈poor has only 2 answers < k=10 ⇒ E_Q(k)=None ⇒ the
        // pattern with a viable relaxation (poor→backup) must be relaxed…
        assert!(plan.is_relaxed(1), "poor must keep its relaxations");
        // …while rich→tiny gives a relaxed query with ~1 answer of weight
        // 0.2; E_Q'(1) exists, and with E_Q(k)=None it is also marked
        // required (any answers help when the original can't fill k).
        assert!(plan.is_relaxed(0), "rich must keep its relaxations");
    }

    #[test]
    fn no_relaxation_needed_when_original_fills_k() {
        let (g, reg) = setup();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        // Single-pattern query over `rich`: 100 answers ≫ k=10; relaxation
        // `tiny` has weight 0.2 — its best score (≈0.2) cannot beat the
        // expected 10th score of `rich` (≈ high, power law head).
        let q = query(&g, &["rich"]);
        let plan = plan_query(
            &g,
            &q,
            10,
            &catalog,
            &card,
            &reg,
            RefitMode::TwoBucket,
            false,
        );
        assert_eq!(plan.relaxed_count(), 0, "{plan:?}");
    }

    #[test]
    fn relaxation_required_for_small_pattern() {
        let (g, reg) = setup();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        // Single-pattern query over `poor`: 2 answers < k=10 ⇒ backup needed.
        let q = query(&g, &["poor"]);
        let plan = plan_query(
            &g,
            &q,
            10,
            &catalog,
            &card,
            &reg,
            RefitMode::TwoBucket,
            false,
        );
        assert_eq!(plan.singletons(), vec![0]);
    }

    #[test]
    fn pattern_without_rules_never_relaxed() {
        let (g, _) = setup();
        let empty_reg = RelaxationRegistry::new();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        let q = query(&g, &["poor"]);
        let plan = plan_query(
            &g,
            &q,
            10,
            &catalog,
            &card,
            &empty_reg,
            RefitMode::TwoBucket,
            false,
        );
        assert_eq!(plan.relaxed_count(), 0);
    }

    #[test]
    fn small_k_prunes_more() {
        let (g, reg) = setup();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        let q = query(&g, &["poor"]);
        // k=1: the original `poor` head scores 1.0 ≥ any relaxed (0.9·…).
        let plan1 = plan_query(
            &g,
            &q,
            1,
            &catalog,
            &card,
            &reg,
            RefitMode::TwoBucket,
            false,
        );
        let plan10 = plan_query(
            &g,
            &q,
            10,
            &catalog,
            &card,
            &reg,
            RefitMode::TwoBucket,
            false,
        );
        assert!(plan1.relaxed_count() <= plan10.relaxed_count());
    }

    #[test]
    fn plan_carries_predictions() {
        let (g, reg) = setup();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        // `rich` alone fills k=10, so E_Q(10) is a real estimate and the
        // pattern's relaxed-best prediction is populated (rich→tiny exists).
        let q = query(&g, &["rich"]);
        let plan = plan_query(
            &g,
            &q,
            10,
            &catalog,
            &card,
            &reg,
            RefitMode::TwoBucket,
            false,
        );
        let floor = ScoreEstimator::new(&catalog, &card)
            .estimate_original(&g, q.patterns())
            .expected_score_at_rank(10)
            .map(Score::new)
            .expect("rich fills the top-10");
        assert!(floor.value() > 0.0 && floor.value() <= 1.0, "{floor:?}");
        let best = plan.predicted_relaxed_best(0).expect("rich→tiny predicted");
        assert!(best.value() <= 0.2 + 1e-9, "weight caps the relaxed best");
        assert!(
            best < floor,
            "pruning was justified by best {best:?} ≤ floor {floor:?}"
        );
    }

    /// PLANGEN reads no ledger state: an offender on file leaves its plan
    /// unbiased (the engine applies the bias where the plan is served).
    #[test]
    fn plan_ignores_the_speculation_ledger() {
        let (g, reg) = setup();
        let card = ExactCardinality::new();
        let q = query(&g, &["rich"]);
        let plan = |catalog: &StatsCatalog| {
            plan_query(
                &g,
                &q,
                10,
                catalog,
                &card,
                &reg,
                RefitMode::TwoBucket,
                false,
            )
        };
        let catalog = StatsCatalog::new();
        let unbiased = plan(&catalog);
        // The estimate says rich→tiny can't reach the top-10.
        assert_eq!(unbiased.relaxed_count(), 0);
        catalog.record_escalations([(q.patterns()[0].stats_key(), true)]);
        assert!(catalog.repeat_offender(&q.patterns()[0].stats_key()));
        assert_eq!(plan(&catalog), unbiased, "the offender stays pruned");
    }
}
