//! Property-based tests of the planner and end-to-end execution on random
//! graphs: the plan is always a valid partition, and whatever Spec-QP
//! returns is a correctly scored subset of the full relaxed answer space.

use kgstore::{KnowledgeGraph, KnowledgeGraphBuilder, TripleScore};
use proptest::prelude::*;
use relax::{Position, RelaxationRegistry, TermRule};
use sparql::{Query, QueryBuilder};
use specqp::{precision_at_k, Engine};
use specqp_common::TermId;

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

fn star_query(world: &MicroWorld, class_picks: &[u8]) -> Option<Query> {
    let mut qb = QueryBuilder::new();
    let x = qb.var("x");
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
        let Some(query) = star_query(&world, &class_picks) else {
            return Ok(());
        };
        let engine = Engine::new(&world.graph, &world.registry);

        let spec = engine.run_specqp(&query, k);
        prop_assert!(spec.plan.is_valid_partition());
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
        let Some(query) = star_query(&world, &class_picks) else {
            return Ok(());
        };
        let engine = Engine::new(&world.graph, &world.registry);
        let (plan, _) = engine.plan(&query, k);
        prop_assert_eq!(plan.relaxed_count(), 0);
    }
}
