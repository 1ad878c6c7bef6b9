//! Integration tests of chain relaxations (the paper's §6 future-work
//! extension): replacing a triple pattern with a chain of patterns.

use kgstore::{KnowledgeGraph, KnowledgeGraphBuilder};
use relax::{ChainRule, Position, RelaxationRegistry, TermRule};
use sparql::{parse_query, Query};
use specqp::{Engine, EngineConfig, QueryPlan, SpeculationPolicy};
use specqp_common::Score;

mod common;
use common::equivalent;

/// The brute-force oracle drains chain relaxations too: TriniT ≡ naive.
fn assert_trinit_is_naive(engine: &Engine<'_>, q: &Query) {
    equivalent(
        &engine.run_trinit(q, 10).answers,
        &engine.run_naive(q, 10).answers,
    )
    .expect("TriniT ≡ naive");
}

/// A band-membership KG:
/// * direct facts: 〈member, inGroup, band〉 (only some),
/// * indirect path: 〈member, follows, frontier〉 + 〈frontier, memberOf, band〉.
fn setup() -> (KnowledgeGraph, RelaxationRegistry) {
    setup_with(&[])
}

/// [`setup`]'s KG plus the `extra` facts, and a registry holding one chain
/// rule: inGroup → follows∘memberOf at weight 0.6.
fn setup_with(extra: &[(&str, &str, &str, f64)]) -> (KnowledgeGraph, RelaxationRegistry) {
    let mut b = KnowledgeGraphBuilder::new();
    // Direct members (scores = prominence).
    b.add("alice", "inGroup", "beatles", 100.0);
    b.add("bob", "inGroup", "beatles", 60.0);
    // carol has no direct fact, but follows dave who is memberOf beatles.
    b.add("carol", "follows", "dave", 80.0);
    b.add("dave", "memberOf", "beatles", 90.0);
    // eve follows someone in another band (must not leak into beatles).
    b.add("eve", "follows", "frank", 70.0);
    b.add("frank", "memberOf", "stones", 85.0);
    // alice also reachable via the chain (dedup case).
    b.add("alice", "follows", "gina", 50.0);
    b.add("gina", "memberOf", "beatles", 40.0);
    for &(s, p, o, score) in extra {
        b.add(s, p, o, score);
    }
    let g = b.build();
    let d = g.dictionary();
    let mut reg = RelaxationRegistry::new();
    reg.add_chain(ChainRule::new(
        d.lookup("inGroup").unwrap(),
        vec![d.lookup("follows").unwrap(), d.lookup("memberOf").unwrap()],
        0.6,
    ));
    (g, reg)
}

#[test]
fn chain_contributes_answers_the_original_lacks() {
    let (g, reg) = setup();
    let q = parse_query("SELECT ?x WHERE { ?x <inGroup> <beatles> }", g.dictionary()).unwrap();

    // Without chains: only direct members.
    let no_rules = RelaxationRegistry::new();
    let plain = Engine::new(&g, &no_rules);
    let out = plain.run_trinit(&q, 10);
    assert_eq!(out.answers.len(), 2);

    // With chains: carol arrives through follows∘memberOf.
    let chained = Engine::new(&g, &reg);
    assert_trinit_is_naive(&chained, &q);
    let out = chained.run_trinit(&q, 10);
    let d = g.dictionary();
    let carol = d.lookup("carol").unwrap();
    let names: Vec<_> = out
        .answers
        .iter()
        .map(|a| a.binding.get(q.projection()[0]).unwrap())
        .collect();
    assert!(names.contains(&carol), "{names:?}");
    assert_eq!(
        out.answers.len(),
        3,
        "alice, bob, carol — eve must not leak"
    );
}

#[test]
fn chain_scores_are_weight_bounded_and_sorted() {
    let (g, reg) = setup();
    let q = parse_query("SELECT ?x WHERE { ?x <inGroup> <beatles> }", g.dictionary()).unwrap();
    let engine = Engine::new(&g, &reg);
    let out = engine.run_trinit(&q, 10);
    for w in out.answers.windows(2) {
        assert!(w[0].score >= w[1].score);
    }
    let d = g.dictionary();
    let carol = d.lookup("carol").unwrap();
    let carol_score = out
        .answers
        .iter()
        .find(|a| a.binding.get(q.projection()[0]) == Some(carol))
        .unwrap()
        .score;
    // Chain contribution ≤ rule weight; strictly below the direct head (1.0).
    assert!(carol_score <= Score::new(0.6 + 1e-9));
    assert!(carol_score > Score::ZERO);
    // Direct members keep their Def.-5 scores.
    assert!(out.answers[0].score.approx_eq(Score::new(1.0), 1e-9));
}

#[test]
fn chain_and_direct_sources_deduplicate() {
    let (g, reg) = setup();
    let q = parse_query("SELECT ?x WHERE { ?x <inGroup> <beatles> }", g.dictionary()).unwrap();
    let engine = Engine::new(&g, &reg);
    let out = engine.run_trinit(&q, 10);
    let d = g.dictionary();
    let alice = d.lookup("alice").unwrap();
    // alice is reachable directly (1.0) and via the chain (≤0.6): exactly
    // one merged answer at the max score.
    let alices: Vec<_> = out
        .answers
        .iter()
        .filter(|a| a.binding.get(q.projection()[0]) == Some(alice))
        .collect();
    assert_eq!(alices.len(), 1);
    assert!(alices[0].score.approx_eq(Score::new(1.0), 1e-9));
}

#[test]
fn chains_only_apply_to_relaxed_patterns() {
    let (g, reg) = setup();
    let q = parse_query("SELECT ?x WHERE { ?x <inGroup> <beatles> }", g.dictionary()).unwrap();
    let engine = Engine::new(&g, &reg);
    // Bare plan (join group only): no merges, hence no chain sources.
    let out = engine.run_with_plan(&q, 10, specqp::QueryPlan::none_relaxed(1));
    assert_eq!(out.answers.len(), 2, "direct members only");
}

#[test]
fn chains_compose_with_multi_pattern_queries() {
    // A second pattern so the chain's merged stream feeds a rank join.
    let (g2, reg) = setup_with(&[
        ("alice", "plays", "guitar", 10.0),
        ("carol", "plays", "guitar", 8.0),
    ]);
    let d2 = g2.dictionary();
    let q = parse_query(
        "SELECT ?x WHERE { ?x <inGroup> <beatles> . ?x <plays> <guitar> }",
        d2,
    )
    .unwrap();
    let engine = Engine::new(&g2, &reg);
    assert_trinit_is_naive(&engine, &q);
    let out = engine.run_trinit(&q, 10);
    let names: Vec<&str> = out
        .answers
        .iter()
        .map(|a| d2.name_or_unknown(a.binding.get(q.projection()[0]).unwrap()))
        .collect();
    assert_eq!(names, vec!["alice", "carol"], "{names:?}");
}

/// Delta recovery through a pattern that carries both a term rule and a
/// chain rule: a bad plan prunes it, the under-filled run escalates it, and
/// the one delta must bring in both the term relaxation's answer (paul, via
/// wings) and the chain's (carol, via follows∘memberOf) — the escalated
/// plan's answers, and TriniT's.
#[test]
fn delta_recovery_runs_term_and_chain_relaxations() {
    let (g, mut reg) = setup_with(&[
        ("paul", "inGroup", "wings", 70.0),
        ("alice", "plays", "guitar", 10.0),
        ("paul", "plays", "guitar", 9.0),
        ("carol", "plays", "guitar", 8.0),
        ("bob", "plays", "guitar", 5.0),
    ]);
    let d = g.dictionary();
    reg.add(TermRule::with_context(
        Position::Object,
        d.lookup("beatles").unwrap(),
        d.lookup("wings").unwrap(),
        0.8,
        d.lookup("inGroup").unwrap(),
    ));
    let q = parse_query(
        "SELECT ?x WHERE { ?x <inGroup> <beatles> . ?x <plays> <guitar> }",
        d,
    )
    .unwrap();
    let config = EngineConfig {
        speculation: SpeculationPolicy::Fallback { max_stages: 3 },
        ..EngineConfig::default()
    };
    let engine = Engine::with_config(&g, &reg, config);
    assert_trinit_is_naive(&engine, &q);

    let bare = engine.run_with_plan(&q, 10, QueryPlan::none_relaxed(2));
    assert_eq!(bare.answers.len(), 2, "alice and bob only: under-filled");
    let out = engine.run_speculative(&q, 10, QueryPlan::none_relaxed(2));
    assert!(out.report.mis_speculated);
    assert_eq!(out.report.fallback_stages, 1);
    assert!(out.plan.is_relaxed(0), "the inGroup pattern was escalated");
    let names: Vec<&str> = out
        .answers
        .iter()
        .map(|a| d.name_or_unknown(a.binding.get(q.projection()[0]).unwrap()))
        .collect();
    for who in ["paul", "carol"] {
        assert!(names.contains(&who), "{who} missing from {names:?}");
    }

    let restart = engine.run_with_plan(&q, 10, out.plan.clone());
    equivalent(&out.answers, &restart.answers).expect("delta ≡ escalated plan");
    equivalent(&out.answers, &engine.run_trinit(&q, 10).answers).expect("delta ≡ TriniT");
}
