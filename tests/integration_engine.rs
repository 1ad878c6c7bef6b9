//! End-to-end integration tests: generated datasets → engine → metrics.

use datagen::{TwitterConfig, TwitterGenerator, XkgConfig, XkgGenerator};
use kgstore::KnowledgeGraphBuilder;
use relax::{Position, RelaxationRegistry, TermRule};
use sparql::parse_query;
use specqp::{precision_at_k, required_relaxations, score_error, Engine, QueryPlan};

#[test]
fn trinit_equals_naive_on_xkg() {
    let ds = XkgGenerator::new(XkgConfig::small(21)).generate();
    let engine = Engine::new(&ds.graph, &ds.registry);
    for query in ds.workload.queries.iter().take(4) {
        let trinit = engine.run_trinit(query, 10);
        let naive = engine.run_naive(query, 10);
        assert_eq!(trinit.answers, naive.answers, "TriniT and naive disagree");
    }
}

#[test]
fn trinit_equals_naive_on_twitter() {
    let ds = TwitterGenerator::new(TwitterConfig::small(22)).generate();
    let engine = Engine::new(&ds.graph, &ds.registry);
    for query in ds.workload.queries.iter().take(3) {
        let trinit = engine.run_trinit(query, 10);
        let naive = engine.run_naive(query, 10);
        assert_eq!(trinit.answers, naive.answers);
    }
}

#[test]
fn specqp_answers_are_valid_relaxed_answers() {
    let ds = XkgGenerator::new(XkgConfig::small(23)).generate();
    let engine = Engine::new(&ds.graph, &ds.registry);
    for query in ds.workload.queries.iter().take(5) {
        let spec = engine.run_specqp(query, 10);
        // Ground truth over the full relaxation space, deep enough to cover
        // everything Spec-QP can return.
        let full = engine.run_naive(query, 100_000);
        for a in &spec.answers {
            let hit = full
                .answers
                .iter()
                .find(|t| t.binding == a.binding)
                .unwrap_or_else(|| panic!("Spec-QP invented an answer: {a:?}"));
            // Spec-QP scores never exceed the Def.-8 max-semantics score.
            assert!(
                a.score <= hit.score,
                "score above ground truth: {a:?} vs {hit:?}"
            );
        }
        // Output is sorted.
        for w in spec.answers.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}

#[test]
fn specqp_with_all_relaxed_plan_equals_trinit() {
    let ds = XkgGenerator::new(XkgConfig::small(24)).generate();
    // Work counters depend only on the graph, query, plan and block size,
    // so the forced run and TriniT create exactly the same answer objects.
    let engine = Engine::new(&ds.graph, &ds.registry);
    let query = &ds.workload.queries[0];
    let forced = engine.run_with_plan(query, 10, QueryPlan::all_relaxed(query.len()));
    let trinit = engine.run_trinit(query, 10);
    assert_eq!(forced.answers, trinit.answers);
    assert_eq!(forced.report.answers_created, trinit.report.answers_created);
}

#[test]
fn workload_quality_stays_reasonable() {
    // The reproduction's headline: precision comparable to the paper's
    // 0.7–0.9 band and bounded score error.
    let ds = XkgGenerator::new(XkgConfig::small(25)).generate();
    let engine = Engine::new(&ds.graph, &ds.registry);
    let k = 10;
    let mut prec_sum = 0.0;
    for query in &ds.workload.queries {
        let spec = engine.run_specqp(query, k);
        let trinit = engine.run_trinit(query, k);
        prec_sum += precision_at_k(&spec.answers, &trinit.answers, k);
        let err = score_error(&spec.answers, &trinit.answers, k);
        assert!(
            err.mean_abs <= query.len() as f64,
            "score error out of range: {err:?}"
        );
    }
    let avg = prec_sum / ds.workload.len() as f64;
    assert!(avg >= 0.6, "average precision {avg} collapsed");
}

#[test]
fn memory_metric_spec_never_exceeds_trinit_when_pruning() {
    let ds = XkgGenerator::new(XkgConfig::small(26)).generate();
    let engine = Engine::new(&ds.graph, &ds.registry);
    for query in ds.workload.queries.iter().take(6) {
        let spec = engine.run_specqp(query, 10);
        let trinit = engine.run_trinit(query, 10);
        if spec.plan.relaxed_count() < query.len() {
            // Pruned plans read strictly less input.
            assert!(
                spec.report.answers_created <= trinit.report.answers_created,
                "pruned plan created more objects: {} vs {}",
                spec.report.answers_created,
                trinit.report.answers_created
            );
        } else {
            assert_eq!(spec.report.answers_created, trinit.report.answers_created);
        }
    }
}

#[test]
fn required_relaxations_consistent_with_plans() {
    let ds = TwitterGenerator::new(TwitterConfig::small(27)).generate();
    let engine = Engine::new(&ds.graph, &ds.registry);
    for query in ds.workload.queries.iter().take(5) {
        let trinit = engine.run_trinit(query, 10);
        let required = required_relaxations(&ds.graph, query, &ds.registry, &trinit.answers);
        for &i in &required {
            assert!(i < query.len());
        }
        // If nothing is required, the bare plan reproduces the true top-k.
        if required.is_empty() {
            let bare = engine.run_with_plan(query, 10, QueryPlan::none_relaxed(query.len()));
            let p = precision_at_k(&bare.answers, &trinit.answers, 10);
            assert!(
                (p - 1.0).abs() < 1e-9,
                "no relaxation required but bare precision {p}"
            );
        }
    }
}

#[test]
fn engine_runs_are_deterministic() {
    let ds = XkgGenerator::new(XkgConfig::small(28)).generate();
    // The default engine — speculation Off: repeated-run identity is a
    // property of the baseline path. Under a feedback policy, run 1's
    // verdicts may legitimately re-plan run 2 (that is the learning loop
    // working).
    let engine = Engine::new(&ds.graph, &ds.registry);
    let query = &ds.workload.queries[1];
    let a = engine.run_specqp(query, 15);
    let b = engine.run_specqp(query, 15);
    assert_eq!(a.plan, b.plan);
    assert_eq!(a.answers.len(), b.answers.len());
    for (x, y) in a.answers.iter().zip(&b.answers) {
        assert_eq!(x.binding, y.binding);
        assert_eq!(x.score, y.score);
    }
    assert_eq!(a.report.answers_created, b.report.answers_created);
}

/// A relaxation of weight 0 adds exactly 0 to every answer it makes.
/// PLANGEN must plan around it without panicking, and the plan it makes
/// must give TriniT's answers on its own: the default `Off` policy runs no
/// recovery that could hide a wrong plan.
#[test]
fn weight_zero_rule_plans_like_trinit() {
    let mut b = KnowledgeGraphBuilder::new();
    for i in 0..5 {
        b.add(
            &format!("singer{i}"),
            "type",
            "singer",
            10.0 / (i + 1) as f64,
        );
    }
    for i in 0..5 {
        b.add(
            &format!("vocalist{i}"),
            "type",
            "vocalist",
            10.0 / (i + 1) as f64,
        );
    }
    let g = b.build();
    let d = g.dictionary();
    let mut reg = RelaxationRegistry::new();
    reg.add(TermRule::new(
        Position::Object,
        d.lookup("singer").unwrap(),
        d.lookup("vocalist").unwrap(),
        0.0,
    ));
    let engine = Engine::new(&g, &reg);
    let q = parse_query("SELECT ?s WHERE { ?s <type> <singer> }", d).unwrap();
    // k = 3: the original query fills k. k = 8: it cannot.
    for k in [3, 8] {
        let spec = engine.run_specqp(&q, k);
        let trinit = engine.run_trinit(&q, k);
        assert_eq!(trinit.answers.len(), k.min(10));
        assert_eq!(spec.answers, trinit.answers, "k={k}");
    }
}
