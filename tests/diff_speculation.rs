//! Differential harness for the speculation lifecycle's recovery, across XKG
//! and Twitter, at block sizes {1, 64, 4096}.
//!
//! 1. **The oracle.** With the final stage forced
//!    ([`SpeculationPolicy::ForceFinal`]) `run_specqp` executes the literal
//!    all-relaxed plan and must return exactly what `run_trinit` returns —
//!    same answers, same order, same scores (bitwise, not approx).
//! 2. **The budget.** `Fallback { max_stages: 1 }` either verifies clean
//!    (answers stand) or escalates every candidate in its one permitted
//!    stage, and the answers are TriniT's.
//! 3. **Delta ≡ restart.** However many stages `Fallback {1, 2, 3}` takes,
//!    the answers it returns — the speculative top-k with one delta run
//!    folded in per escalated pattern — are the answers of executing the
//!    escalated plan from scratch.
//!
//! Properties 2 and 3 compare *up to summation order* ([`equivalent`]): a
//! delta sums an answer's pattern scores in the order of the tree that found
//! it, a restart in the order of the escalated tree, and the two may differ
//! in the last place — which can also swap equal-scored neighbours and pick
//! another member of a tie at rank k. Nothing else may differ.
//!
//! Queries are assembled from the generators' own workload patterns, the
//! same construction as tests/diff_exec.rs.

use datagen::{Dataset, TwitterConfig, TwitterGenerator, XkgConfig, XkgGenerator};
use operators::ExecutionMode;
use proptest::prelude::*;
use sparql::{Query, QueryBuilder, Term};
use specqp::{Engine, EngineConfig, QueryPlan, SpeculationPolicy};
use specqp_common::TermId;
use std::sync::OnceLock;

mod common;
use common::equivalent;

const BLOCK_SIZES: [usize; 3] = [1, 64, 4096];

/// The executor configurations the workload laps run: one row per block,
/// the default block size, and the default block size on four morsel
/// workers.
const WORKLOAD_CONFIGS: [(ExecutionMode, usize); 3] = [
    (ExecutionMode::Block(1), 1),
    (ExecutionMode::Block(operators::DEFAULT_BLOCK_SIZE), 1),
    (ExecutionMode::Block(operators::DEFAULT_BLOCK_SIZE), 4),
];

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

/// The default configuration at block size `execution` under `speculation`.
fn config(execution: ExecutionMode, speculation: SpeculationPolicy) -> EngineConfig {
    EngineConfig {
        execution,
        speculation,
        ..EngineConfig::default()
    }
}

/// A workload engine: `config(execution, speculation)` on `parallelism`
/// workers.
fn workload_engine(
    world: &World,
    (execution, parallelism): (ExecutionMode, usize),
    speculation: SpeculationPolicy,
) -> Engine<'_> {
    let config = EngineConfig {
        parallelism,
        ..config(execution, speculation)
    };
    Engine::with_config(&world.ds.graph, &world.ds.registry, config)
}

/// Runs the three properties for one query under one executor
/// configuration.
fn check_one(
    world: &World,
    q: &Query,
    k: usize,
    execution: ExecutionMode,
) -> Result<(), TestCaseError> {
    let engine = |policy: SpeculationPolicy| {
        Engine::with_config(
            &world.ds.graph,
            &world.ds.registry,
            config(execution, policy),
        )
    };

    // Property 1: forced-final fallback ≡ TriniT, byte for byte.
    let forced_engine = engine(SpeculationPolicy::ForceFinal);
    let trinit = forced_engine.run_trinit(q, k);
    let forced = forced_engine.run_specqp(q, k);
    prop_assert_eq!(
        &forced.answers,
        &trinit.answers,
        "forced final ≠ trinit ({:?}, k {})",
        execution,
        k
    );
    prop_assert_eq!(&forced.plan, &QueryPlan::all_relaxed(q.len()));
    prop_assert_eq!(forced.report.fallback_stages, 1, "exactly one forced stage");

    for max_stages in 1..=3 {
        let budgeted = engine(SpeculationPolicy::Fallback { max_stages });
        let out = budgeted.run_specqp(q, k);
        if out.report.fallback_stages == 0 {
            continue;
        }
        prop_assert!(out.report.mis_speculated);
        // Property 3: delta ≡ restart.
        let restart = budgeted.run_with_plan(q, k, out.plan.clone());
        equivalent(&out.answers, &restart.answers).map_err(|e| {
            TestCaseError::fail(format!(
                "delta ≠ restart after {} of {max_stages} stages ({execution:?}, k {k}): {e}",
                out.report.fallback_stages
            ))
        })?;
        // Property 2: a one-stage budget that fires lands on TriniT.
        if max_stages == 1 {
            equivalent(&out.answers, &trinit.answers).map_err(|e| {
                TestCaseError::fail(format!(
                    "one-stage fallback ≠ trinit ({execution:?}, k {k}): {e}"
                ))
            })?;
        }
    }
    Ok(())
}

fn check_differential(world: &World, picks: &[u16], k: usize) -> Result<(), TestCaseError> {
    let Some(q) = build_query(world, picks) else {
        return Ok(());
    };
    for size in BLOCK_SIZES {
        check_one(world, &q, k, ExecutionMode::Block(size))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn xkg_forced_final_fallback_equals_trinit(
        picks in proptest::collection::vec(any::<u16>(), 1..=4),
        k in 1usize..=25,
    ) {
        check_differential(xkg(), &picks, k)?;
    }

    #[test]
    fn twitter_forced_final_fallback_equals_trinit(
        picks in proptest::collection::vec(any::<u16>(), 1..=4),
        k in 1usize..=25,
    ) {
        check_differential(twitter(), &picks, k)?;
    }
}

/// The exact benchmark workloads (not random subsets) must also recover to
/// TriniT under the forced final stage, in every [`WORKLOAD_CONFIGS`] entry.
#[test]
fn workload_queries_forced_final_equals_trinit() {
    for world in [xkg(), twitter()] {
        for workload_config in WORKLOAD_CONFIGS {
            let engine = workload_engine(world, workload_config, SpeculationPolicy::ForceFinal);
            for q in &world.ds.workload.queries {
                let forced = engine.run_specqp(q, 10);
                let trinit = engine.run_trinit(q, 10);
                assert_eq!(forced.answers, trinit.answers);
                assert_eq!(forced.report.fallback_stages, 1);
            }
        }
    }
}

/// Property 3 on the exact benchmark workloads — and not vacuously: these
/// small datasets do mis-speculate, and every recovery, however many
/// stages it took, must return the escalated plan's answers at one row per
/// block and at the default size — each query on a fresh engine, so no
/// ledger verdict settles a later one.
#[test]
fn workload_queries_delta_recovery_equals_restart() {
    let mut stages_seen = [0usize; 4];
    for world in [xkg(), twitter()] {
        for execution in [
            ExecutionMode::Block(1),
            ExecutionMode::Block(operators::DEFAULT_BLOCK_SIZE),
        ] {
            for q in &world.ds.workload.queries {
                let engine = Engine::with_config(
                    &world.ds.graph,
                    &world.ds.registry,
                    config(execution, SpeculationPolicy::Fallback { max_stages: 3 }),
                );
                let out = engine.run_specqp(q, 10);
                stages_seen[out.report.fallback_stages as usize] += 1;
                let restart = engine.run_with_plan(q, 10, out.plan.clone());
                if let Err(e) = equivalent(&out.answers, &restart.answers) {
                    panic!(
                        "{execution:?}, {} stages: delta ≠ restart: {e}",
                        out.report.fallback_stages
                    );
                }
            }
        }
    }
    assert!(
        stages_seen[1..].iter().sum::<usize>() >= 4,
        "too few recoveries to prove anything: {stages_seen:?}"
    );
}

/// Every run that takes a recovery stage lands on TriniT's answers (up to
/// summation order, see [`equivalent`]) on the exact workloads, in every
/// [`WORKLOAD_CONFIGS`] entry — also once earlier laps have filled the
/// ledger, so its bias shapes the plans.
#[test]
fn workload_queries_recovered_runs_equal_trinit() {
    let mut recovered = 0usize;
    for world in [xkg(), twitter()] {
        for workload_config in WORKLOAD_CONFIGS {
            let fallback = SpeculationPolicy::Fallback { max_stages: 3 };
            let engine = workload_engine(world, workload_config, fallback);
            for lap in 0..4 {
                for q in &world.ds.workload.queries {
                    let out = engine.run_specqp(q, 10);
                    if out.report.fallback_stages == 0 {
                        continue;
                    }
                    recovered += 1;
                    let trinit = engine.run_trinit(q, 10);
                    if let Err(e) = equivalent(&out.answers, &trinit.answers) {
                        panic!("{workload_config:?}, lap {lap}: recovery ≠ trinit: {e}");
                    }
                }
            }
        }
    }
    assert!(recovered >= 4, "too few recoveries to prove anything");
}
