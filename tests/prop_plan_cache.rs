//! Property tests of the plan cache's canonical [`QueryShape`] key and of
//! plan-reuse correctness: variable renaming never changes the key,
//! structural changes always do, and executing a cache-hit plan returns the
//! same top-k as executing a freshly generated plan.

use kgstore::{KnowledgeGraph, KnowledgeGraphBuilder};
use proptest::prelude::*;
use relax::{Position, RelaxationRegistry, TermRule};
use sparql::{Query, QueryBuilder};
use specqp::{Engine, QueryShape};
use specqp_common::TermId;

/// A deterministic micro-KG with relaxation rules between random classes.
#[derive(Debug)]
struct MicroWorld {
    graph: KnowledgeGraph,
    registry: RelaxationRegistry,
    classes: Vec<TermId>,
    type_pred: TermId,
}

fn micro_world(
    assignments: Vec<(u8, u8, u16)>,
    rules: Vec<(u8, u8, u8)>,
    n_classes: u8,
) -> MicroWorld {
    let n_classes = n_classes.max(2);
    let mut b = KnowledgeGraphBuilder::new();
    let type_pred = b.intern("type");
    let classes: Vec<TermId> = (0..n_classes).map(|c| b.intern(&format!("c{c}"))).collect();
    for (e, c, score) in assignments {
        let class = classes[(c % n_classes) as usize];
        let ent = b.intern(&format!("e{e}"));
        b.add_ids(ent, type_pred, class, f64::from(score.max(1)).into());
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

/// Builds the same star query twice with different variable names.
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

/// Regression (speculation feedback staleness): after a stats feedback
/// refit bumps the catalog generation, a previously cached plan must be
/// **re-planned**, not served stale — and the fresh plan must honour the
/// refitted ledger.
#[test]
fn stats_refit_forces_replan_of_cached_shape() {
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
    let m = engine.plan_cache_metrics().clone();
    assert_eq!(m.misses(), 1, "warm planned and cached the shape");
    let (_, _) = engine.plan(&q, 5);
    assert_eq!(m.hits(), 1, "cached plan served before the refit");
    assert_eq!(m.stale(), 0);

    // The refit: runtime feedback records the pattern's pruning as a repeat
    // offense, which flips its bias and bumps the catalog generation.
    let generation_before = engine.catalog().generation();
    assert!(engine
        .catalog()
        .record_speculation(q.patterns()[0].stats_key(), true));
    assert_eq!(engine.catalog().generation(), generation_before + 1);

    // The previously cached plan is now stale: the next plan call must
    // re-run PLANGEN (miss + stale), and the fresh plan must relax the
    // recorded offender.
    let (replanned, _) = engine.plan(&q, 5);
    assert_eq!(m.hits(), 1, "stale plan must not be served");
    assert_eq!(m.misses(), 2, "the shape was re-planned");
    assert_eq!(m.stale(), 1, "the stale entry was detected and dropped");
    assert!(
        replanned.is_relaxed(0),
        "the re-plan honours the refitted ledger: {replanned:?}"
    );

    // The refreshed entry serves normally at the new generation.
    let (served, _) = engine.plan(&q, 5);
    assert_eq!(m.hits(), 2);
    assert_eq!(served, replanned);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
}
