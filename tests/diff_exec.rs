//! Differential harness locking in block-size independence and the naive
//! oracle.
//!
//! For hundreds of randomly generated star queries per dataset (XKG and
//! Twitter, seeded through the vendored proptest), the block executor must
//! return **exactly** the same answers — same order, same scores (bitwise,
//! not approx) — at block sizes {1, 7, 4096} as at the default 128, for
//! Spec-QP and TriniT, and TriniT must return exactly what the brute-force
//! [`run_naive`](specqp::run_naive) oracle returns. The same query with its
//! patterns permuted — another join order, another tree shape — must give
//! TriniT and the oracle the same answers too. The block sizes bracket
//! the interesting regimes: 1 forces single-row blocks through every
//! operator, 7 exercises mid-block boundaries, 4096 materializes most
//! test-scale match lists into one block.
//!
//! Queries are assembled from the patterns of the generators' own workloads
//! (rebased onto one shared subject variable), so they have the same shape
//! distribution as the benchmark queries while random subsets also produce
//! empty-result and heavily-tied cases.

use datagen::{Dataset, TwitterConfig, TwitterGenerator, XkgConfig, XkgGenerator};
use operators::{ExecutionMode, DEFAULT_BLOCK_SIZE};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use sparql::{Query, QueryBuilder, Term};
use specqp::{star_join_var, Engine, EngineConfig, SpeculationPolicy};
use specqp_common::TermId;
use std::sync::OnceLock;

const BLOCK_SIZES: [usize; 3] = [1, 7, 4096];

/// One reusable star-query building block, extracted from a workload query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PoolPattern {
    /// `?x <p> <o>` — a fully qualified (type-like) pattern.
    Bound { p: TermId, o: TermId },
    /// `?x <p> ?y` — a relational pattern with a fresh object variable.
    Open { p: TermId },
}

struct World {
    ds: Dataset,
    pool: Vec<PoolPattern>,
}

fn build_world(ds: Dataset) -> World {
    let mut pool: Vec<PoolPattern> = Vec::new();
    for q in &ds.workload.queries {
        for pat in q.patterns() {
            let entry = match (pat.p, pat.o) {
                (Term::Const(p), Term::Const(o)) => PoolPattern::Bound { p, o },
                (Term::Const(p), Term::Var(_)) => PoolPattern::Open { p },
                _ => continue,
            };
            if !pool.contains(&entry) {
                pool.push(entry);
            }
        }
    }
    assert!(pool.len() >= 8, "workload must yield a varied pattern pool");
    World { ds, pool }
}

fn xkg() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| build_world(XkgGenerator::new(XkgConfig::small(0x5eed001)).generate()))
}

fn twitter() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        build_world(TwitterGenerator::new(TwitterConfig::small(0x71177e4)).generate())
    })
}

/// Builds a star query over `?x` from pool picks (duplicates dropped), its
/// patterns listed in ascending `order[i]` (ties by pick order; missing
/// keys count as 0). Variables are numbered in pick order, so every order
/// binds the same variables. Returns `None` when no pattern survives
/// deduplication.
fn build_query(world: &World, picks: &[u16], order: &[u32]) -> Option<Query> {
    let mut chosen: Vec<PoolPattern> = Vec::new();
    for &pick in picks {
        let entry = world.pool[pick as usize % world.pool.len()];
        if !chosen.contains(&entry) {
            chosen.push(entry);
        }
    }
    if chosen.is_empty() {
        return None;
    }
    let mut qb = QueryBuilder::new();
    let x = qb.var("x");
    let name = |i: usize| format!("y{i}");
    for (i, entry) in chosen.iter().enumerate() {
        if let PoolPattern::Open { .. } = entry {
            qb.var(&name(i));
        }
    }
    let mut listed: Vec<usize> = (0..chosen.len()).collect();
    listed.sort_by_key(|&i| (order.get(i).copied().unwrap_or(0), i));
    for i in listed {
        match chosen[i] {
            PoolPattern::Bound { p, o } => {
                qb.pattern(x, p, o);
            }
            PoolPattern::Open { p } => {
                let y = qb.var(&name(i));
                qb.pattern(x, p, y);
            }
        }
    }
    qb.project(x);
    qb.build().ok()
}

/// The default engine over `world` at `size` rows per block.
fn block_engine(world: &World, size: usize) -> Engine<'_> {
    let config = EngineConfig {
        execution: ExecutionMode::Block(size),
        ..EngineConfig::default()
    };
    Engine::with_config(&world.ds.graph, &world.ds.registry, config)
}

/// Runs every block size against the default one for Spec-QP and TriniT,
/// TriniT against the naive oracle, and both on the query with its
/// patterns listed in `order`, asserting exact equivalence.
fn check_differential(
    world: &World,
    picks: &[u16],
    order: &[u32],
    k: usize,
) -> Result<(), TestCaseError> {
    let Some(q) = build_query(world, picks, &[]) else {
        return Ok(());
    };
    let engine = |size: usize| block_engine(world, size);
    let reference = engine(DEFAULT_BLOCK_SIZE);
    let ref_spec = reference.run_specqp(&q, k);
    let ref_trinit = reference.run_trinit(&q, k);
    for size in BLOCK_SIZES {
        let block = engine(size);
        let spec = block.run_specqp(&q, k);
        prop_assert_eq!(&spec.plan, &ref_spec.plan, "specqp plan, size {}", size);
        prop_assert_eq!(
            &spec.answers,
            &ref_spec.answers,
            "specqp answers, size {}",
            size
        );
        let trinit = block.run_trinit(&q, k);
        prop_assert_eq!(
            &trinit.answers,
            &ref_trinit.answers,
            "trinit answers, size {}",
            size
        );
    }
    // Another pattern order joins in another tree; the answers cannot
    // move. (Work counters may.)
    let permuted = build_query(world, picks, order).expect("same picks, same patterns");
    prop_assert_eq!(
        &reference.run_trinit(&permuted, k).answers,
        &ref_trinit.answers,
        "trinit answers, permuted"
    );
    // The naive oracle drains every relaxation, so only the smaller
    // queries run through it.
    if q.len() <= 2 {
        let naive = reference.run_naive(&q, k);
        prop_assert_eq!(&ref_trinit.answers, &naive.answers, "naive answers");
        let naive_permuted = reference.run_naive(&permuted, k);
        prop_assert_eq!(
            &naive_permuted.answers,
            &naive.answers,
            "naive answers, permuted"
        );
    }
    Ok(())
}

/// Runs [`check_differential`] over 200 generated queries on `world` and
/// returns how many of them the executor runs through the star join
/// ([`star_join_var`]).
fn run_differential(world: &World) -> usize {
    let strategy = (
        proptest::collection::vec(any::<u16>(), 1..=4),
        proptest::collection::vec(any::<u32>(), 4),
        1usize..=25,
    );
    let mut star_joins = 0;
    TestRunner::new(ProptestConfig::with_cases(200)).run(&strategy, |(picks, order, k)| {
        let q = build_query(world, &picks, &[]);
        star_joins += usize::from(q.as_ref().and_then(star_join_var).is_some());
        check_differential(world, &picks, &order, k)
    });
    star_joins
}

/// XKG's `?x <p> ?y` patterns make stars with two multi-row patterns, so
/// some of the queries take the star join: a change to the generator or to
/// the shape rule cannot drop it from this check unnoticed.
#[test]
fn xkg_block_sizes_agree_with_each_other_and_naive() {
    let star_joins = run_differential(xkg());
    assert!(star_joins > 0, "no generated XKG query takes the star join");
}

#[test]
fn twitter_block_sizes_agree_with_each_other_and_naive() {
    run_differential(twitter());
}

/// `EngineConfig::parallelism` has no effect: every query runs on the
/// calling thread, so at 4 it gives the same plans, answers, recovery
/// stages and work counters as at 1 — under `Off` and under
/// `Fallback { max_stages: 3 }`, whose delta runs go through the same
/// runner.
#[test]
fn parallelism_setting_has_no_effect() {
    for world in [xkg(), twitter()] {
        let engine = |parallelism: usize, speculation: SpeculationPolicy| {
            let config = EngineConfig {
                parallelism,
                speculation,
                ..EngineConfig::default()
            };
            Engine::with_config(&world.ds.graph, &world.ds.registry, config)
        };
        let mut recovering = 0;
        for policy in [
            SpeculationPolicy::Off,
            SpeculationPolicy::Fallback { max_stages: 3 },
        ] {
            let (one, four) = (engine(1, policy), engine(4, policy));
            for (i, q) in world.ds.workload.queries.iter().enumerate() {
                let (want, got) = (one.run_specqp(q, 10), four.run_specqp(q, 10));
                if want.report.fallback_stages > 0 {
                    recovering += 1;
                }
                let at = format!("{policy:?}, query {i}");
                assert_eq!(want.plan, got.plan, "{at}");
                assert_eq!(want.answers, got.answers, "{at}");
                let (w, g) = (&want.report, &got.report);
                assert_eq!(w.fallback_stages, g.fallback_stages, "{at}");
                assert_eq!(w.sorted_accesses, g.sorted_accesses, "{at}");
                assert_eq!(w.join_pulls, g.join_pulls, "{at}");
                assert_eq!(w.answers_created, g.answers_created, "{at}");
            }
        }
        assert!(
            recovering > 0,
            "no query recovered: the delta check is vacuous"
        );
    }
}

/// The exact benchmark workloads (not random subsets) must also agree: the
/// block executor at one row per block and at the default size (plans
/// included — this is the configuration the bench gate times), and TriniT
/// with the naive executor.
#[test]
fn workload_queries_agree_across_executors() {
    for world in [xkg(), twitter()] {
        let (single, block) = (
            block_engine(world, 1),
            block_engine(world, DEFAULT_BLOCK_SIZE),
        );
        for q in &world.ds.workload.queries {
            let a = single.run_specqp(q, 10);
            let b = block.run_specqp(q, 10);
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.answers, b.answers);
            assert_eq!(
                block.run_trinit(q, 10).answers,
                block.run_naive(q, 10).answers
            );
        }
    }
}
