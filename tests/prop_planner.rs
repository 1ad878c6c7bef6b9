//! Property-based tests of the planner and the plan cache on random
//! micro-KGs: the plan is always a valid partition, whatever Spec-QP
//! returns is a correctly scored subset of the full relaxed answer space,
//! and the cache's canonical [`QueryShape`] key and plan reuse are
//! transparent — variable renaming never changes the key, structural
//! changes always do, executing a cache-hit plan returns the same top-k as
//! executing a freshly generated plan, and whatever the speculation ledger
//! recorded, a warm engine serves the plan a fresh engine with the same
//! ledger would.

use kgstore::{KnowledgeGraph, KnowledgeGraphBuilder, TripleScore};
use proptest::prelude::*;
use relax::{Position, RelaxationRegistry, TermRule};
use sparql::{Query, QueryBuilder, StatsKey};
use specqp::{precision_at_k, Engine, QueryShape};
use specqp_common::TermId;
use std::collections::HashSet;

/// A random micro-KG: `n_entities` entities spread over `n_classes`
/// classes (ids interned as strings), plus relaxation rules between random
/// class pairs.
#[derive(Debug)]
struct MicroWorld {
    graph: KnowledgeGraph,
    registry: RelaxationRegistry,
    classes: Vec<TermId>,
    type_pred: TermId,
}

fn micro_world(
    assignments: Vec<(u8, u8, u16)>, // (entity, class, score)
    rules: Vec<(u8, u8, u8)>,        // (from class, to class, weight%)
    n_classes: u8,
) -> MicroWorld {
    let n_classes = n_classes.max(2);
    let mut b = KnowledgeGraphBuilder::new();
    let type_pred = b.intern("type");
    let classes: Vec<TermId> = (0..n_classes).map(|c| b.intern(&format!("c{c}"))).collect();
    for (e, c, score) in assignments {
        let class = classes[(c % n_classes) as usize];
        let ent = b.intern(&format!("e{e}"));
        b.add_ids(
            ent,
            type_pred,
            class,
            TripleScore::new(f64::from(score.max(1))),
        );
    }
    let graph = b.build();
    let mut registry = RelaxationRegistry::new();
    for (from, to, w) in rules {
        let from = classes[(from % n_classes) as usize];
        let to = classes[(to % n_classes) as usize];
        if from != to {
            let w = f64::from(w.clamp(5, 99)) / 100.0;
            registry.add(TermRule::with_context(
                Position::Object,
                from,
                to,
                w,
                type_pred,
            ));
        }
    }
    MicroWorld {
        graph,
        registry,
        classes,
        type_pred,
    }
}

/// A star query over `?{var_name}` with one `type` pattern per distinct
/// picked class.
fn star_query(world: &MicroWorld, class_picks: &[u8], var_name: &str) -> Option<Query> {
    let mut qb = QueryBuilder::new();
    let x = qb.var(var_name);
    let mut used = Vec::new();
    for &c in class_picks {
        let class = world.classes[(c as usize) % world.classes.len()];
        if used.contains(&class) {
            continue;
        }
        used.push(class);
        qb.pattern(x, world.type_pred, class);
    }
    if used.is_empty() {
        return None;
    }
    qb.project(x);
    qb.build().ok()
}

/// The speculation ledger's bias is applied where a plan is served: an
/// offense recorded after the shape was cached leaves the cached plan valid
/// (the next lookup is a hit, nothing goes stale) and the served plan
/// relaxes the offender; clean verdicts that flip the bias back make the
/// next hit serve the unbiased plan again.
#[test]
fn ledger_bias_applies_to_cached_plan() {
    // Class c0 is well-populated (k=5 fills without relaxing) and carries a
    // c0→c1 relaxation the ledger can force back in.
    let world = micro_world(
        (0..40).map(|e| (e, 0, 100 + u16::from(e))).collect(),
        vec![(0, 1, 90)],
        4,
    );
    let q = star_query(&world, &[0], "x").unwrap();
    let engine = Engine::new(&world.graph, &world.registry);
    engine.warm(&q, 5);
    let m = engine.plan_cache_metrics();
    assert_eq!(m.misses(), 1, "warm planned and cached the shape");
    let (unbiased, _) = engine.plan(&q, 5);
    assert!(
        !unbiased.is_relaxed(0),
        "the estimate prunes c0: {unbiased:?}"
    );

    // Runtime feedback records the pattern's pruning as a repeat offense.
    let key = q.patterns()[0].stats_key();
    engine.catalog().record_escalations([(key, true)]);
    let (biased, _) = engine.plan(&q, 5);
    assert_eq!(biased, unbiased.escalated(&[0]), "the offender is relaxed");
    assert_eq!((m.hits(), m.misses(), m.stale()), (2, 1, 0));

    // Two clean verdicts outweigh the offense: the bias is off again.
    engine
        .catalog()
        .record_escalations([(key, false), (key, false)]);
    let (served, _) = engine.plan(&q, 5);
    assert_eq!(served, unbiased);
    assert_eq!((m.hits(), m.misses(), m.stale()), (3, 1, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PLANGEN output is a valid partition; Spec-QP answers are a sorted,
    /// correctly-scored subset of the full relaxed space; forcing all
    /// relaxations reproduces TriniT exactly.
    #[test]
    fn planner_and_execution_invariants(
        assignments in prop::collection::vec((0u8..30, 0u8..6, 1u16..1000), 1..120),
        rules in prop::collection::vec((0u8..6, 0u8..6, 5u8..99), 0..12),
        class_picks in prop::collection::vec(0u8..6, 1..4),
        k in 1usize..15,
    ) {
        let world = micro_world(assignments, rules, 6);
        let Some(query) = star_query(&world, &class_picks, "x") else {
            return Ok(());
        };
        let engine = Engine::new(&world.graph, &world.registry);

        let spec = engine.run_specqp(&query, k);
        prop_assert_eq!(spec.plan.len(), query.len());
        prop_assert!(spec.answers.len() <= k);
        for w in spec.answers.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }

        // Full relaxed space (generous k) — every Spec-QP answer appears
        // with a score no smaller than Spec-QP's (plans only prune sources).
        let full = engine.run_naive(&query, 1_000_000);
        for a in &spec.answers {
            let hit = full.answers.iter().find(|t| t.binding == a.binding);
            prop_assert!(hit.is_some(), "unknown answer {:?}", a);
            prop_assert!(a.score <= hit.unwrap().score);
        }

        // TriniT (all relaxed) must agree with the naive executor.
        let trinit = engine.run_trinit(&query, k);
        let naive_topk = &full.answers[..k.min(full.answers.len())];
        prop_assert_eq!(&trinit.answers[..], naive_topk);

        // Precision is 1 whenever the planner relaxed everything.
        if spec.plan.relaxed_count() == query.len() {
            let p = precision_at_k(&spec.answers, &trinit.answers, k);
            prop_assert!((p - 1.0).abs() < 1e-9, "all-relaxed precision {p}");
        }
    }

    /// Plans never relax patterns that have no applicable rules.
    #[test]
    fn never_relaxes_ruleless_patterns(
        assignments in prop::collection::vec((0u8..20, 0u8..4, 1u16..500), 1..60),
        class_picks in prop::collection::vec(0u8..4, 1..4),
        k in 1usize..12,
    ) {
        let world = micro_world(assignments, vec![], 4);
        let Some(query) = star_query(&world, &class_picks, "x") else {
            return Ok(());
        };
        let engine = Engine::new(&world.graph, &world.registry);
        let (plan, _) = engine.plan(&query, k);
        prop_assert_eq!(plan.relaxed_count(), 0);
    }

    /// Renaming variables never changes the cache key.
    #[test]
    fn renamed_variables_hash_to_same_key(
        assignments in prop::collection::vec((0u8..20, 0u8..5, 1u16..500), 1..60),
        class_picks in prop::collection::vec(0u8..5, 1..4),
        k in 1usize..20,
    ) {
        let world = micro_world(assignments, vec![], 5);
        let (Some(a), Some(b)) = (
            star_query(&world, &class_picks, "x"),
            star_query(&world, &class_picks, "renamed_variable"),
        ) else {
            return Ok(());
        };
        prop_assert_eq!(QueryShape::of(&a, k), QueryShape::of(&b, k));
    }

    /// Structurally different queries get different keys: dropping a
    /// pattern, changing a constant, or changing `k` all separate shapes.
    #[test]
    fn structural_changes_separate_keys(
        assignments in prop::collection::vec((0u8..20, 0u8..5, 1u16..500), 1..60),
        class_picks in prop::collection::vec(0u8..5, 2..4),
        k in 1usize..20,
    ) {
        let world = micro_world(assignments, vec![], 5);
        let Some(q) = star_query(&world, &class_picks, "x") else {
            return Ok(());
        };
        let shape = QueryShape::of(&q, k);

        // Different k.
        prop_assert_ne!(shape.clone(), QueryShape::of(&q, k + 1));

        // Fewer patterns (when the query has at least two).
        if q.len() >= 2 {
            let shorter = star_query(&world, &class_picks[..class_picks.len() - 1], "x");
            if let Some(shorter) = shorter {
                if shorter.len() < q.len() {
                    prop_assert_ne!(shape.clone(), QueryShape::of(&shorter, k));
                }
            }
        }

        // A constant swapped for an unused class id.
        let unused = world.classes[(class_picks[0] as usize + 1) % world.classes.len()];
        let first = q.patterns()[0];
        if first.o.as_const() != Some(unused) {
            let swapped = q.with_pattern_replaced(
                0,
                sparql::TriplePattern::new(first.s, first.p, unused),
            );
            prop_assert_ne!(shape, QueryShape::of(&swapped, k));
        }
    }

    /// Plan reuse is semantically transparent: running the renamed query
    /// through the engine (which hits the plan cached for the original
    /// shape) returns exactly the same top-k as a fresh engine that plans
    /// the renamed query from scratch.
    #[test]
    fn cache_hit_plan_matches_fresh_plan(
        assignments in prop::collection::vec((0u8..30, 0u8..6, 1u16..1000), 1..120),
        rules in prop::collection::vec((0u8..6, 0u8..6, 5u8..99), 0..12),
        class_picks in prop::collection::vec(0u8..6, 1..4),
        k in 1usize..15,
    ) {
        let world = micro_world(assignments, rules, 6);
        let (Some(original), Some(renamed)) = (
            star_query(&world, &class_picks, "x"),
            star_query(&world, &class_picks, "y"),
        ) else {
            return Ok(());
        };

        // One engine: plan the original (miss), then run the renamed query —
        // a guaranteed cache hit on the shared shape.
        let engine = Engine::new(&world.graph, &world.registry);
        engine.warm(&original, k);
        prop_assert_eq!(engine.plan_cache_metrics().misses(), 1);
        let via_cache = engine.run_specqp(&renamed, k);
        prop_assert_eq!(engine.plan_cache_metrics().hits(), 1,
            "renamed query must hit the cached shape");

        // Fresh engine: plans the renamed query from scratch.
        let fresh = Engine::new(&world.graph, &world.registry);
        let from_scratch = fresh.run_specqp(&renamed, k);

        prop_assert_eq!(&via_cache.plan, &from_scratch.plan);
        prop_assert_eq!(via_cache.answers.len(), from_scratch.answers.len());
        for (a, b) in via_cache.answers.iter().zip(&from_scratch.answers) {
            prop_assert_eq!(&a.binding, &b.binding);
            prop_assert_eq!(a.score, b.score);
        }
    }

    /// A cached plan does not depend on the ledger: over random ledger
    /// histories, every plan a warm engine serves equals the plan a fresh
    /// engine serves once the same verdicts are replayed into it. Shapes
    /// are first planned part-way through the history, so a plan cached
    /// while an offender was on file is served after its bias flips back.
    #[test]
    fn served_plans_equal_a_fresh_engine_after_the_same_verdicts(
        assignments in prop::collection::vec((0u8..30, 0u8..6, 1u16..1000), 1..120),
        rules in prop::collection::vec((0u8..6, 0u8..6, 5u8..99), 0..12),
        query_picks in prop::collection::vec(prop::collection::vec(0u8..6, 1..4), 1..4),
        k in 1usize..10,
        ops in prop::collection::vec((0u8..4, 0u8..4, 0u8..4, 0u8..2), 1..40),
    ) {
        let world = micro_world(assignments, rules, 6);
        let queries: Vec<Query> = query_picks
            .iter()
            .filter_map(|picks| star_query(&world, picks, "x"))
            .collect();
        let engine = Engine::new(&world.graph, &world.registry);
        let mut shapes = HashSet::new();
        let mut history: Vec<(StatsKey, bool)> = Vec::new();
        for (kind, qi, pi, mis) in ops {
            let q = &queries[usize::from(qi) % queries.len()];
            if kind < 2 {
                let fresh = Engine::new(&world.graph, &world.registry);
                fresh.catalog().record_escalations(history.iter().copied());
                prop_assert_eq!(engine.plan(q, k).0, fresh.plan(q, k).0);
                shapes.insert(QueryShape::of(q, k));
            } else {
                let patterns = q.patterns();
                let v = (patterns[usize::from(pi) % patterns.len()].stats_key(), mis == 1);
                engine.catalog().record_escalations([v]);
                history.push(v);
            }
        }
        let m = engine.plan_cache_metrics();
        prop_assert_eq!(m.misses(), shapes.len() as u64, "one PLANGEN run per shape");
        prop_assert_eq!(m.stale(), 0);
    }
}
