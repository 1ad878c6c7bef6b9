//! Differential harness locking in block-size independence and the naive
//! oracle.
//!
//! For hundreds of randomly generated star queries per dataset (XKG and
//! Twitter, seeded through the vendored proptest), the block executor must
//! return **exactly** the same answers — same order, same scores (bitwise,
//! not approx) — at block sizes {1, 7, 4096} as at the default 128, for
//! Spec-QP and TriniT, and TriniT must return exactly what the brute-force
//! [`run_naive`](specqp::run_naive) oracle returns. The block sizes bracket
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
use sparql::{Query, QueryBuilder, Term};
use specqp::{Engine, EngineConfig, SpeculationPolicy};
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

/// Builds a star query over `?x` from pool picks (duplicates dropped).
/// Returns `None` when no pattern survives deduplication.
fn build_query(world: &World, picks: &[u16]) -> Option<Query> {
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
    for (i, entry) in chosen.iter().enumerate() {
        match *entry {
            PoolPattern::Bound { p, o } => {
                qb.pattern(x, p, o);
            }
            PoolPattern::Open { p } => {
                let y = qb.var(&format!("y{i}"));
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
/// and TriniT against the naive oracle, asserting exact equivalence.
fn check_differential(world: &World, picks: &[u16], k: usize) -> Result<(), TestCaseError> {
    let Some(q) = build_query(world, picks) else {
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
    // The naive oracle drains every relaxation, so only the smaller
    // queries run through it.
    if q.len() <= 2 {
        let naive = reference.run_naive(&q, k);
        prop_assert_eq!(&ref_trinit.answers, &naive.answers, "naive answers");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn xkg_block_sizes_agree_with_each_other_and_naive(
        picks in proptest::collection::vec(any::<u16>(), 1..=4),
        k in 1usize..=25,
    ) {
        check_differential(xkg(), &picks, k)?;
    }

    #[test]
    fn twitter_block_sizes_agree_with_each_other_and_naive(
        picks in proptest::collection::vec(any::<u16>(), 1..=4),
        k in 1usize..=25,
    ) {
        check_differential(twitter(), &picks, k)?;
    }
}

/// Morsel-driven parallel block execution must be **bit-identical** to
/// sequential block execution — same answers, same order, same score bits —
/// at every worker count. Degree 1 pins the hook's no-op path, 2 the
/// minimal split, 8 oversubscribes test-sized match lists so most workers
/// drain the dispenser dry. Recovery goes through the same runner: under
/// `Fallback { max_stages: 3 }` the delta runs are partitioned too, and the
/// recovered answers, plans and stage counts must not move either.
#[test]
fn parallel_block_execution_equals_sequential() {
    for world in [xkg(), twitter()] {
        let engine = |parallelism: usize, speculation: SpeculationPolicy| {
            let config = EngineConfig {
                parallelism,
                speculation,
                ..EngineConfig::default()
            };
            Engine::with_config(&world.ds.graph, &world.ds.registry, config)
        };
        let fallback = SpeculationPolicy::Fallback { max_stages: 3 };
        let sequential = engine(1, SpeculationPolicy::Off);
        let mut recovering = 0;
        for q in &world.ds.workload.queries {
            let seq_spec = sequential.run_specqp(q, 10);
            let seq_trinit = sequential.run_trinit(q, 10);
            let seq_recovered = engine(1, fallback).run_specqp(q, 10);
            if seq_recovered.report.fallback_stages > 0 {
                recovering += 1;
            }
            for workers in [1, 2, 8] {
                let parallel = engine(workers, SpeculationPolicy::Off);
                let spec = parallel.run_specqp(q, 10);
                assert_eq!(seq_spec.plan, spec.plan, "{workers} workers");
                assert_eq!(seq_spec.answers, spec.answers, "{workers} workers");
                let trinit = parallel.run_trinit(q, 10);
                assert_eq!(seq_trinit.answers, trinit.answers, "{workers} workers");
                let recovered = engine(workers, fallback).run_specqp(q, 10);
                assert_eq!(seq_recovered.plan, recovered.plan, "{workers} workers");
                assert_eq!(
                    seq_recovered.answers, recovered.answers,
                    "{workers} workers"
                );
                assert_eq!(
                    seq_recovered.report.fallback_stages, recovered.report.fallback_stages,
                    "{workers} workers"
                );
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
