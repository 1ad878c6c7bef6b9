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
use specqp_stats::{CardinalityEstimator, QueryShapeKey, RefitMode, ScoreEstimator, StatsCatalog};

/// Runs PLANGEN and returns the speculative plan.
///
/// `E_Q(k) = None` (the original query cannot produce `k` answers — some
/// pattern is empty or the join is too selective) is treated as `−∞`: any
/// pattern whose top relaxation yields answers becomes a singleton, which is
/// the behaviour the paper describes for Twitter ("most of the queries
/// required all triple patterns to be relaxed … we were able to identify the
/// requirement of all the relaxations").
///
/// Three extensions over Algorithm 1 feed the speculation lifecycle:
///
/// * the plan carries each pattern's `E_{Q'}(1)`
///   ([`predicted_relaxed_best`](QueryPlan::predicted_relaxed_best)), so the
///   runtime verifier can replay the pruning inequality against the
///   observed k-th score;
/// * the catalog's speculation ledger is consulted: a pattern whose pruning
///   is a recorded [repeat offender](StatsCatalog::repeat_offender) keeps
///   its relaxations even when the (evidently miscalibrated) estimate says
///   pruning is safe;
/// * with `learned` on, the catalog's [learned
///   models](StatsCatalog::learned_kth) substitute for the histogram
///   estimates — but only where their confidence gate is open. A closed
///   gate (or an unknown query shape) falls back to the histogram value,
///   so a cold or low-confidence engine plans byte-identically to a
///   histogram-only one. A substituted `E_{Q'}(1)` also replaces the plan's
///   carried prediction, keeping the verifier's replayed inequality
///   consistent with the decision that was actually made.
pub fn plan_query<C: CardinalityEstimator + ?Sized>(
    graph: &KnowledgeGraph,
    query: &Query,
    k: usize,
    catalog: &StatsCatalog,
    cardinality: &C,
    registry: &RelaxationRegistry,
    refit: RefitMode,
    learned: bool,
) -> QueryPlan {
    assert!(k >= 1, "top-k requires k ≥ 1");
    let estimator = ScoreEstimator::with_mode(catalog, cardinality, refit);
    let patterns = query.patterns();

    let original: Vec<(TriplePattern, f64)> = patterns.iter().map(|p| (*p, 1.0)).collect();
    let eq_k = estimator
        .estimate(graph, &original)
        .expected_score_at_rank(k);
    // Learned substitution for E_Q(k): variable names are erased so the
    // model bucket covers every isomorphic query.
    let qshape =
        learned.then(|| QueryShapeKey::new(patterns.iter().map(|p| p.stats_key()).collect()));
    let eq_k = qshape
        .as_ref()
        .and_then(|s| catalog.learned_kth(s, k))
        .or(eq_k);

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
        // Learned substitution for E_{Q'}(1), keyed by (query shape,
        // relaxed pattern): observed best relaxation contributions replace
        // the convolution estimate once confidently fit.
        let eq1_relaxed = qshape
            .as_ref()
            .and_then(|s| catalog.learned_relaxed_best(s, &q_i.stats_key(), k))
            .or(eq1_relaxed);
        predicted_best[i] = eq1_relaxed.map(Score::new);
        let required = match (eq1_relaxed, eq_k) {
            (Some(best_relaxed), Some(kth_original)) => best_relaxed > kth_original,
            // Original can't fill the top-k but the relaxed query has
            // answers: relaxations are required.
            (Some(_), None) => true,
            // The relaxed query itself yields nothing: pruning is free.
            (None, _) => false,
        };
        // Feedback bias: the ledger outranks the estimate once a pattern's
        // pruning has repeatedly proven wrong at runtime.
        if required || catalog.repeat_offender(&q_i.stats_key()) {
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
        assert!(plan.is_valid_partition());
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

    #[test]
    fn ledger_bias_forces_relaxation_of_repeat_offender() {
        let (g, reg) = setup();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        let q = query(&g, &["rich"]);
        // Baseline: the estimate says rich→tiny can't reach the top-10.
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
        assert_eq!(plan.relaxed_count(), 0);
        // Record the pruning as a repeat offense; the bias must override the
        // unchanged estimate.
        let g0 = catalog.generation();
        assert!(catalog.record_speculation(q.patterns()[0].stats_key(), true));
        assert_eq!(catalog.generation(), g0 + 1);
        let biased = plan_query(
            &g,
            &q,
            10,
            &catalog,
            &card,
            &reg,
            RefitMode::TwoBucket,
            false,
        );
        assert_eq!(biased.singletons(), vec![0], "offender must stay relaxed");
    }

    /// Teaches the catalog's learned models a value for one query shape by
    /// feeding identical observations until the confidence gate opens.
    fn teach(
        catalog: &StatsCatalog,
        q: &Query,
        k: usize,
        kth_score: Option<f64>,
        relaxed_best: Vec<(sparql::StatsKey, f64)>,
    ) {
        use specqp_stats::{FeatureVector, LearnedObservation};
        let shape = QueryShapeKey::new(q.patterns().iter().map(|p| p.stats_key()).collect());
        for _ in 0..4 {
            catalog.record_learned(LearnedObservation {
                shape: shape.clone(),
                features: FeatureVector::default(),
                k,
                kth_score,
                relaxed_best: relaxed_best.clone(),
            });
        }
    }

    #[test]
    fn cold_learned_mode_plans_identically_to_histograms() {
        let (g, reg) = setup();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        for classes in [&["rich"][..], &["poor"][..], &["rich", "poor"][..]] {
            let q = query(&g, classes);
            for k in [1, 10] {
                let hist = plan_query(
                    &g,
                    &q,
                    k,
                    &catalog,
                    &card,
                    &reg,
                    RefitMode::TwoBucket,
                    false,
                );
                let learned =
                    plan_query(&g, &q, k, &catalog, &card, &reg, RefitMode::TwoBucket, true);
                assert_eq!(
                    hist, learned,
                    "empty models must fall back to the histogram path"
                );
            }
        }
    }

    #[test]
    fn confident_learned_kth_overrides_the_histogram_floor() {
        let (g, reg) = setup();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        let q = query(&g, &["rich"]);
        // Histogram baseline prunes rich→tiny (floor ≈ head of the power
        // law, far above weight 0.2).
        let base = plan_query(
            &g,
            &q,
            10,
            &catalog,
            &card,
            &reg,
            RefitMode::TwoBucket,
            true,
        );
        assert_eq!(base.relaxed_count(), 0);
        // Teach: the observed 10th score is actually tiny (0.05) — below
        // the relaxation's reachable 0.2. The learned floor must replace
        // the histogram floor and flip the decision.
        teach(&catalog, &q, 10, Some(0.05), vec![]);
        let learned = plan_query(
            &g,
            &q,
            10,
            &catalog,
            &card,
            &reg,
            RefitMode::TwoBucket,
            true,
        );
        assert_eq!(learned.singletons(), vec![0], "learned floor must win");
        // Histogram mode is untouched by the models.
        let hist = plan_query(
            &g,
            &q,
            10,
            &catalog,
            &card,
            &reg,
            RefitMode::TwoBucket,
            false,
        );
        assert_eq!(hist.relaxed_count(), 0);
    }

    #[test]
    fn confident_learned_relaxed_best_prunes_an_overestimated_relaxation() {
        let (g, reg) = setup();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        // poor alone: histogram says backup is required (2 answers < k=10).
        let q = query(&g, &["poor"]);
        let base = plan_query(
            &g,
            &q,
            10,
            &catalog,
            &card,
            &reg,
            RefitMode::TwoBucket,
            true,
        );
        assert_eq!(base.singletons(), vec![0]);
        // Teach: runs consistently observed the relaxation contributing
        // nothing (best contribution 0.0) while the original did fill the
        // top-10 at 0.3. Pruning becomes justified.
        let key = q.patterns()[0].stats_key();
        teach(&catalog, &q, 10, Some(0.3), vec![(key, 0.0)]);
        let learned = plan_query(
            &g,
            &q,
            10,
            &catalog,
            &card,
            &reg,
            RefitMode::TwoBucket,
            true,
        );
        assert_eq!(
            learned.relaxed_count(),
            0,
            "confidently-zero relaxed best must prune"
        );
        let best = learned.predicted_relaxed_best(0).expect("prediction kept");
        assert!(best.value() < 0.01, "substituted prediction, got {best:?}");
    }

    #[test]
    fn learned_substitution_respects_k_bucketing() {
        let (g, reg) = setup();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        let q = query(&g, &["rich"]);
        // Teach only at k=10; planning at k=3 must not use the model (its
        // observed ln(1+k) range is a single point at k=10).
        teach(&catalog, &q, 10, Some(0.05), vec![]);
        let at10 = plan_query(
            &g,
            &q,
            10,
            &catalog,
            &card,
            &reg,
            RefitMode::TwoBucket,
            true,
        );
        assert_eq!(at10.singletons(), vec![0]);
        let at3 = plan_query(&g, &q, 3, &catalog, &card, &reg, RefitMode::TwoBucket, true);
        let hist3 = plan_query(
            &g,
            &q,
            3,
            &catalog,
            &card,
            &reg,
            RefitMode::TwoBucket,
            false,
        );
        assert_eq!(at3, hist3, "no extrapolation outside the taught k range");
    }
}
