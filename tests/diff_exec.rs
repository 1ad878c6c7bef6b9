//! Differential harness: one query generator over XKG and Twitter, checked
//! against block-size independence, the naive oracle and the speculation
//! lifecycle's recovery.
//!
//! 1. **Block sizes and the oracle.** For hundreds of generated queries
//!    per dataset (seeded through the vendored proptest), the block
//!    executor must return **exactly** the same answers — same order, same
//!    scores (bitwise, not approx) — at block sizes {1, 7, 4096} as at the
//!    default 128, for Spec-QP and TriniT, and TriniT must return exactly
//!    what the brute-force [`run_naive`](specqp::run_naive) oracle returns
//!    on every query of up to three patterns.
//!    The same query with its patterns permuted — another join order,
//!    another tree shape — must give TriniT and the oracle the same answers
//!    too. The block sizes bracket the interesting regimes: 1 forces
//!    single-row blocks through every operator, 7 exercises mid-block
//!    boundaries, 4096 materializes most test-scale match lists into one
//!    block.
//! 2. **The recovery budget.** At block sizes {1, 64, 4096},
//!    `Fallback { max_stages: 1 }` either verifies clean (answers stand) or
//!    escalates every candidate in its one permitted stage, and the answers
//!    are TriniT's.
//! 3. **Delta ≡ restart.** However many stages `Fallback {1, 2, 3}` takes,
//!    the answers it returns — the speculative top-k with one delta run
//!    folded in per escalated pattern — are the answers of executing the
//!    escalated plan from scratch.
//!
//! Recovery compares with `==` too: scores are exact fixed-point sums, so
//! the order in which a delta or a restart adds an answer's pattern scores
//! cannot move a bit, and ties at rank k break by binding in both.
//!
//! Queries are assembled from the patterns of the generators' own workloads
//! (rebased onto shared variables), so they have the same pattern
//! distribution as the benchmark queries while random subsets also produce
//! empty-result and heavily-tied cases. Besides stars, XKG's `?x <p> ?y`
//! patterns chain into paths and snowflakes.

use datagen::{Dataset, TwitterConfig, TwitterGenerator, XkgConfig, XkgGenerator};
use operators::{is_star, ExecutionMode, DEFAULT_BLOCK_SIZE};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use sparql::{Query, QueryBuilder, Term, TriplePattern};
use specqp::{star_join_var, Engine, EngineConfig, SpeculationPolicy};
use specqp_common::TermId;
use std::sync::OnceLock;

/// The block sizes the executor laps compare with the default one.
const BLOCK_SIZES: [usize; 3] = [1, 7, 4096];

/// The block sizes the recovery laps run.
const RECOVERY_BLOCK_SIZES: [usize; 3] = [1, 64, 4096];

/// The block sizes the workload recovery laps run: one row per block and
/// the default size.
const WORKLOAD_MODES: [ExecutionMode; 2] = [
    ExecutionMode::Block(1),
    ExecutionMode::Block(DEFAULT_BLOCK_SIZE),
];

/// A pick with this bit set chains an `Open` pattern into the patterns
/// picked after it.
const CHAIN: u16 = 0x8000;

/// One reusable query building block, extracted from a workload query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PoolPattern {
    /// `?s <p> <o>` — a fully qualified (type-like) pattern.
    Bound { p: TermId, o: TermId },
    /// `?s <p> ?y` — a relational pattern with a fresh object variable.
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

/// Builds a query from pool picks (duplicates dropped). Patterns start on
/// `?x`; an `Open` pattern picked with [`CHAIN`] hands its object variable
/// to the patterns picked after it as their subject, which makes paths
/// (`?x p ?y . ?y q C`) and snowflakes (`?x t C1 . ?x p ?y . ?y q C2`) of
/// at most three patterns. Without a chain the query is a star over `?x`.
/// The patterns are listed in ascending `order[i]` (ties by pick order;
/// missing keys count as 0), each after one it shares a variable with, so
/// the listing stays connected. Variables are numbered in pick order, so
/// every order binds the same variables. Returns `None` when no pattern
/// survives deduplication.
fn build_query(world: &World, picks: &[u16], order: &[u32]) -> Option<Query> {
    let mut chosen: Vec<(PoolPattern, bool)> = Vec::new();
    for &pick in picks {
        let entry = world.pool[pick as usize % world.pool.len()];
        if !chosen.iter().any(|&(e, _)| e == entry) {
            chosen.push((entry, pick & CHAIN != 0));
        }
    }
    if chosen.is_empty() {
        return None;
    }
    // Only the first two of at most three patterns hand on their object.
    let links = chosen.len().min(3) - 1;
    if chosen[..links]
        .iter()
        .any(|&(entry, chain)| chain && matches!(entry, PoolPattern::Open { .. }))
    {
        chosen.truncate(3);
    }
    let mut qb = QueryBuilder::new();
    let x = qb.var("x");
    let mut subject = x;
    let mut patterns: Vec<TriplePattern> = Vec::with_capacity(chosen.len());
    for (i, &(entry, chain)) in chosen.iter().enumerate() {
        patterns.push(match entry {
            PoolPattern::Bound { p, o } => TriplePattern::new(subject, p, o),
            PoolPattern::Open { p } => {
                let y = qb.var(&format!("y{i}"));
                let pattern = TriplePattern::new(subject, p, y);
                if chain && i < links {
                    subject = y;
                }
                pattern
            }
        });
    }
    let mut pending: Vec<usize> = (0..patterns.len()).collect();
    pending.sort_by_key(|&i| (order.get(i).copied().unwrap_or(0), i));
    let mut listed: Vec<TriplePattern> = Vec::with_capacity(patterns.len());
    while !pending.is_empty() {
        let next = pending
            .iter()
            .position(|&i| listed.is_empty() || listed.iter().any(|l| l.shares_var(&patterns[i])))
            .expect("the pick order is connected");
        listed.push(patterns[pending.remove(next)]);
    }
    for pattern in listed {
        qb.add(pattern);
    }
    qb.project(x);
    qb.build().ok()
}

/// The default engine over `world` at block size `execution` under
/// `speculation`.
fn engine(world: &World, execution: ExecutionMode, speculation: SpeculationPolicy) -> Engine<'_> {
    let config = EngineConfig {
        execution,
        speculation,
        ..EngineConfig::default()
    };
    Engine::with_config(&world.ds.graph, &world.ds.registry, config)
}

/// The default engine over `world` at `size` rows per block.
fn block_engine(world: &World, size: usize) -> Engine<'_> {
    engine(world, ExecutionMode::Block(size), SpeculationPolicy::Off)
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
    // The naive oracle drains every relaxation, so only queries of up to
    // three patterns run through it: every path and snowflake, not the
    // four-pattern stars.
    if q.len() <= 3 {
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
/// ([`star_join_var`]) and how many are no star at all.
fn run_differential(world: &World) -> (usize, usize) {
    let strategy = (
        proptest::collection::vec(any::<u16>(), 1..=4),
        proptest::collection::vec(any::<u32>(), 4),
        1usize..=25,
    );
    let (mut star_joins, mut non_stars) = (0, 0);
    TestRunner::new(ProptestConfig::with_cases(200)).run(&strategy, |(picks, order, k)| {
        if let Some(q) = build_query(world, &picks, &[]) {
            star_joins += usize::from(star_join_var(&q).is_some());
            let patterns = q.patterns();
            non_stars += usize::from(!patterns[0].vars().any(|v| is_star(patterns, v)));
        }
        check_differential(world, &picks, &order, k)
    });
    (star_joins, non_stars)
}

/// XKG's `?x <p> ?y` patterns make stars with two multi-row patterns, so
/// some of the queries take the star join, and chain into paths and
/// snowflakes, so some are no star: a change to the generator or to the
/// shape rule cannot drop either from this check unnoticed.
#[test]
fn xkg_block_sizes_agree_with_each_other_and_naive() {
    let (star_joins, non_stars) = run_differential(xkg());
    assert!(star_joins > 0, "no generated XKG query takes the star join");
    assert!(non_stars > 0, "every generated XKG query is a star");
}

#[test]
fn twitter_block_sizes_agree_with_each_other_and_naive() {
    run_differential(twitter());
}

/// Runs both recovery properties for one query at block size `execution`.
fn check_recovery_at(
    world: &World,
    q: &Query,
    k: usize,
    execution: ExecutionMode,
) -> Result<(), TestCaseError> {
    let trinit = engine(world, execution, SpeculationPolicy::Off).run_trinit(q, k);
    for max_stages in 1..=3 {
        let budgeted = engine(world, execution, SpeculationPolicy::Fallback { max_stages });
        let out = budgeted.run_specqp(q, k);
        if out.report.fallback_stages == 0 {
            continue;
        }
        prop_assert!(out.report.mis_speculated);
        // Delta ≡ restart.
        let restart = budgeted.run_with_plan(q, k, out.plan.clone());
        prop_assert_eq!(
            &out.answers,
            &restart.answers,
            "delta ≠ restart after {} of {} stages ({:?}, k {})",
            out.report.fallback_stages,
            max_stages,
            execution,
            k
        );
        // A one-stage budget that fires lands on TriniT.
        if max_stages == 1 {
            prop_assert_eq!(
                &out.answers,
                &trinit.answers,
                "one-stage fallback ≠ trinit ({:?}, k {})",
                execution,
                k
            );
        }
    }
    Ok(())
}

fn check_recovery(world: &World, picks: &[u16], k: usize) -> Result<(), TestCaseError> {
    let Some(q) = build_query(world, picks, &[]) else {
        return Ok(());
    };
    for size in RECOVERY_BLOCK_SIZES {
        check_recovery_at(world, &q, k, ExecutionMode::Block(size))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn xkg_fallback_recovery_equals_restart_and_trinit(
        picks in proptest::collection::vec(any::<u16>(), 1..=4),
        k in 1usize..=25,
    ) {
        check_recovery(xkg(), &picks, k)?;
    }

    #[test]
    fn twitter_fallback_recovery_equals_restart_and_trinit(
        picks in proptest::collection::vec(any::<u16>(), 1..=4),
        k in 1usize..=25,
    ) {
        check_recovery(twitter(), &picks, k)?;
    }
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

/// Delta ≡ restart on the exact benchmark workloads — and not vacuously:
/// these small datasets do mis-speculate, and every recovery, however many
/// stages it took, must return the escalated plan's answers at one row per
/// block and at the default size — each query on a fresh engine, so no
/// ledger verdict settles a later one.
#[test]
fn workload_queries_delta_recovery_equals_restart() {
    let mut stages_seen = [0usize; 4];
    for world in [xkg(), twitter()] {
        for execution in WORKLOAD_MODES {
            for q in &world.ds.workload.queries {
                let fallback = SpeculationPolicy::Fallback { max_stages: 3 };
                let engine = engine(world, execution, fallback);
                let out = engine.run_specqp(q, 10);
                stages_seen[out.report.fallback_stages as usize] += 1;
                let restart = engine.run_with_plan(q, 10, out.plan.clone());
                assert_eq!(
                    out.answers, restart.answers,
                    "{execution:?}, {} stages: delta ≠ restart",
                    out.report.fallback_stages
                );
            }
        }
    }
    assert!(
        stages_seen[1..].iter().sum::<usize>() >= 4,
        "too few recoveries to prove anything: {stages_seen:?}"
    );
}

/// Every run that takes a recovery stage lands on TriniT's answers on the
/// exact workloads, at every
/// [`WORKLOAD_MODES`] size — also once earlier laps have filled the
/// ledger, so its bias shapes the plans.
#[test]
fn workload_queries_recovered_runs_equal_trinit() {
    let mut recovered = 0usize;
    for world in [xkg(), twitter()] {
        for execution in WORKLOAD_MODES {
            let fallback = SpeculationPolicy::Fallback { max_stages: 3 };
            let engine = engine(world, execution, fallback);
            for lap in 0..4 {
                for q in &world.ds.workload.queries {
                    let out = engine.run_specqp(q, 10);
                    if out.report.fallback_stages == 0 {
                        continue;
                    }
                    recovered += 1;
                    let trinit = engine.run_trinit(q, 10);
                    assert_eq!(
                        out.answers, trinit.answers,
                        "{execution:?}, lap {lap}: recovery ≠ trinit"
                    );
                }
            }
        }
    }
    assert!(recovered >= 4, "too few recoveries to prove anything");
}
