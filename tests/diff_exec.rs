//! Differential harness: one query generator over XKG and Twitter, checked
//! against block-size independence, the naive oracle, the speculation
//! lifecycle's recovery and, under live writes, a rebuild from scratch.
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
//! 4. **Live epochs ≡ rebuild.** Generated write schedules commit batches —
//!    fresh triples, score replacements, retractions — to the lists that
//!    generated queries and their relaxations read, one history after
//!    another on one [`LiveGraph`] per world, under the world's rules.
//!    After every commit the pinned version is rebuilt from scratch
//!    ([`rebuild`]), and on the live version Spec-QP (`Off` and `Fallback`)
//!    and TriniT at block sizes 7 and 128 must answer as on the rebuild,
//!    TriniT as `run_naive` does there on queries of up to three patterns,
//!    and every recovery as a restart of its escalated plan. Each list the
//!    schedule writes to, the whole graph and each written triple resolve
//!    to the rebuild's rows on a first read (the overlay merges the list)
//!    and on a second (the version's memo serves it); a version pinned
//!    after a history's first batch answers the same for the rest of it;
//!    and the last version, compacted and sent through a snapshot, still
//!    answers the same.
//!
//! Every lap compares with `==`: scores are exact fixed-point sums, so the
//! order in which a delta, a restart or a rebuilt graph adds an answer's
//! pattern scores cannot move a bit, and ties at rank k break by binding
//! in both. A rebuild keeps every term id and storage order, so the same
//! query and rules mean the same in it and ties in a match list break the
//! same way.
//!
//! Queries are assembled from the patterns of the generators' own workloads
//! (rebased onto shared variables), so they have the same pattern
//! distribution as the benchmark queries while random subsets also produce
//! empty-result and heavily-tied cases. Besides stars, XKG's `?x <p> ?y`
//! patterns chain into paths and snowflakes.

use datagen::{Dataset, TwitterConfig, TwitterGenerator, XkgConfig, XkgGenerator};
use kgstore::{
    CompactionPolicy, KnowledgeGraph, KnowledgeGraphBuilder, LiveGraph, PatternKey, Triple,
    WriteBatch,
};
use operators::{is_star, ExecutionMode, PartialAnswer, DEFAULT_BLOCK_SIZE};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use sparql::{Query, QueryBuilder, Term, TriplePattern};
use specqp::{star_join_var, Engine, EngineConfig, SpeculationPolicy};
use specqp_common::TermId;
use std::sync::{Arc, OnceLock};

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

/// The default configuration at block size `execution` under
/// `speculation`.
fn config(execution: ExecutionMode, speculation: SpeculationPolicy) -> EngineConfig {
    EngineConfig {
        execution,
        speculation,
        ..EngineConfig::default()
    }
}

/// The default engine over `world` at block size `execution` under
/// `speculation`.
fn engine(world: &World, execution: ExecutionMode, speculation: SpeculationPolicy) -> Engine<'_> {
    Engine::with_config(
        &world.ds.graph,
        &world.ds.registry,
        config(execution, speculation),
    )
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

/// The block sizes the live lap runs on every epoch.
const LIVE_BLOCK_SIZES: [usize; 2] = [7, DEFAULT_BLOCK_SIZE];

/// Generated histories per world in the live lap, committed one after the
/// other to one live graph that folds after the last, each with a star
/// ([`star_picks`]) and two more generated queries, and at most two
/// batches of up to five writes.
const LIVE_CASES: u32 = 3;

/// Relaxations per pattern whose lists the live lap writes to, best
/// weight first.
const WRITTEN_RELAXATIONS: usize = 3;

/// One write the live lap draws: `(kind, list, row, score)`. `list` picks
/// one of the lists the queries read and `row` one of its rows; `kind % 4`
/// retracts that row (0), replaces its score (1), or asserts a fresh
/// triple into the list for the subject of a row of another list (2) or
/// for a fresh subject (3). The score is `score + 1` 64ths of the list's
/// head, so a write can take over the head. A write to an empty list
/// asserts a fresh triple.
type RawOp = (u8, u16, u16, u8);

/// What the live histories covered, for the lap's guards: queries that
/// take the star join, query epochs whose batch wrote into a list that a
/// relaxed merge of Spec-QP's plan reads, and runs that recovered on an
/// overlay version.
#[derive(Default)]
struct LiveCoverage {
    star_joins: usize,
    relaxed_writes: usize,
    overlay_recoveries: usize,
}

/// `draws` as picks of `world`'s `?x <p> ?y` patterns, unchained, so that
/// two distinct ones make a star that takes the star join; unchanged where
/// the world has no such pattern.
fn star_picks(world: &World, draws: &[u16]) -> Vec<u16> {
    let open: Vec<u16> = (0..world.pool.len() as u16)
        .filter(|&i| matches!(world.pool[usize::from(i)], PoolPattern::Open { .. }))
        .collect();
    if open.is_empty() {
        return draws.to_vec();
    }
    let open_pick = |d: u16| open[usize::from(d) % open.len()];
    draws.iter().map(|&d| open_pick(d)).collect()
}

/// A flat graph holding `version`'s visible triples, built from scratch.
/// The version's dictionary is interned first, in id order (as specbench's
/// `build_graph` does), so every term keeps its id and the world's rules
/// and queries mean the same in both graphs; the triples go in in the
/// version's storage order, so ties in a match list break the same way.
fn rebuild(version: &KnowledgeGraph) -> KnowledgeGraph {
    let mut b = KnowledgeGraphBuilder::new();
    for (id, name) in version.dictionary().iter() {
        assert_eq!(b.intern(name), id, "terms intern in id order");
    }
    for t in version.iter_scored() {
        b.add_ids(t.triple.s, t.triple.p, t.triple.o, t.score);
    }
    b.build()
}

/// The match-list key of `pattern`'s constants.
fn key_of(pattern: &TriplePattern) -> PatternKey {
    let (s, p, o) = pattern.const_parts();
    PatternKey { s, p, o }
}

/// Queues `op` on `batch`, resolved against `version`, and returns the
/// triple it writes by names; `fresh` numbers the terms it makes up.
fn push_op(
    version: &KnowledgeGraph,
    lists: &[TriplePattern],
    (kind, list, row, score): RawOp,
    fresh: usize,
    batch: &mut WriteBatch,
) -> [String; 3] {
    let name = |t: TermId| version.dictionary().name_or_unknown(t).to_string();
    // The picked row of the `list`th list and that list's head score.
    let pick = |list: usize| {
        let rows = version.matches(key_of(&lists[list % lists.len()]));
        let row = usize::from(row) % rows.len().max(1);
        (!rows.is_empty()).then(|| (rows.triple_at(row), rows.score_at(0).value()))
    };
    let (list, pattern) = (usize::from(list), lists[usize::from(list) % lists.len()]);
    let picked = pick(list);
    let score = picked.map_or(1.0, |(_, head)| head) * (f64::from(score) + 1.0) / 64.0;
    let names = |t: Triple| [name(t.s), name(t.p), name(t.o)];
    let written = match (kind % 4, picked) {
        (0, Some((t, _))) => {
            let [s, p, o] = names(t);
            batch.retract(&s, &p, &o);
            return [s, p, o];
        }
        (1, Some((t, _))) => names(t),
        (kind, _) => {
            let other = pick(list + 1 + usize::from(row)).filter(|_| kind == 2);
            let subject = other.map_or(format!("live:s{fresh}"), |(t, _)| name(t.s));
            let object = match (pattern.o, picked) {
                (Term::Const(o), _) => name(o),
                (Term::Var(_), Some((t, _))) => name(t.o),
                (Term::Var(_), None) => format!("live:o{fresh}"),
            };
            let p = pattern.p.as_const().expect("generated patterns bind p");
            [subject, name(p), object]
        }
    };
    batch.assert(&written[0], &written[1], &written[2], score);
    written
}

/// Every key's list on `version` equals `rebuilt`'s, in rank order with
/// the same score bits, on a first read and on a second one that the
/// version's memo serves.
fn check_match_lists(
    version: &KnowledgeGraph,
    rebuilt: &KnowledgeGraph,
    keys: &[PatternKey],
) -> Result<(), TestCaseError> {
    let rows = |graph: &KnowledgeGraph, key| -> Vec<(Triple, u64)> {
        let list = graph.matches(key);
        let row = |(t, score): (Triple, kgstore::TripleScore)| (t, score.value().to_bits());
        list.iter_triples().map(row).collect()
    };
    for &key in keys {
        let want = rows(rebuilt, key);
        prop_assert_eq!(&rows(version, key), &want, "first read of {:?}", key);
        prop_assert_eq!(&rows(version, key), &want, "second read of {:?}", key);
    }
    prop_assert_eq!(version.len(), version.iter_scored().count());
    prop_assert_eq!(version.len(), rebuilt.len());
    Ok(())
}

/// A live graph over one world, and the `Off` engines that serve it at
/// [`LIVE_BLOCK_SIZES`] for its whole life, so every epoch also checks
/// that nothing an engine cached on an earlier one leaks into it.
struct LiveWorld {
    world: &'static World,
    live: Arc<LiveGraph>,
    off: Vec<Engine<'static>>,
    /// Terms made up so far.
    fresh: usize,
}

impl LiveWorld {
    fn new(world: &'static World) -> Self {
        let base = rebuild(&world.ds.graph);
        let live = Arc::new(LiveGraph::with_policy(base, CompactionPolicy::never()));
        let engine = |size| live_engine(world, &live, size, SpeculationPolicy::Off);
        let off = LIVE_BLOCK_SIZES.map(engine).into();
        LiveWorld {
            world,
            live,
            off,
            fresh: 0,
        }
    }

    /// Commits each of `batches` as one epoch and checks every query at its
    /// k against a rebuild after each commit, then, if `fold`, folds the
    /// overlay (item 4 of the module docs).
    fn check_history(
        &mut self,
        queries: &[(Query, usize)],
        batches: &[Vec<RawOp>],
        fold: bool,
        coverage: &mut LiveCoverage,
    ) -> Result<(), TestCaseError> {
        let registry = &self.world.ds.registry;
        let mut lists: Vec<TriplePattern> = Vec::new();
        for (q, _) in queries {
            for pattern in q.patterns() {
                let relaxations = registry.relaxations_for(pattern);
                let relaxed = relaxations.iter().take(WRITTEN_RELAXATIONS);
                for list in std::iter::once(*pattern).chain(relaxed.map(|r| r.pattern)) {
                    if !lists.contains(&list) {
                        lists.push(list);
                    }
                }
            }
        }
        let mut keys: Vec<PatternKey> = lists.iter().map(key_of).collect();
        keys.push(PatternKey::any());
        let mut pinned: Option<(Engine<'static>, Vec<Vec<PartialAnswer>>)> = None;
        let mut last = None;
        for ops in batches {
            let (before, _) = self.live.pinned();
            let mut batch = WriteBatch::new();
            let mut written = Vec::with_capacity(ops.len());
            for &op in ops {
                self.fresh += 1;
                written.push(push_op(&before, &lists, op, self.fresh, &mut batch));
            }
            self.live.commit(&batch);
            let (version, epoch) = self.live.pinned();
            prop_assert!(version.has_overlay(), "nothing folds mid-history");
            let id = |name: &str| version.dictionary().lookup(name).expect("interned");
            let written: Vec<PatternKey> = written
                .iter()
                .map(|[s, p, o]| PatternKey::spo(id(s), id(p), id(o)))
                .collect();
            let rebuilt = rebuild(&version);
            check_match_lists(&version, &rebuilt, &[&keys[..], &written].concat())?;
            let mut wants = Vec::with_capacity(queries.len());
            for (q, k) in queries {
                wants.push(self.check_epoch(&rebuilt, q, *k, &written, coverage)?);
            }
            // The version the first batch published keeps answering what
            // its rebuild answered, however many epochs follow.
            let (engine, frozen) = pinned.get_or_insert_with(|| {
                (Engine::new(Arc::clone(&version), registry), wants.clone())
            });
            for ((q, k), frozen) in queries.iter().zip(frozen.iter()) {
                let answers = engine.run_specqp(q, *k).answers;
                prop_assert_eq!(&answers, frozen, "pinned answers drifted at {}", epoch);
            }
            last = Some((rebuilt, wants));
        }

        // Compaction moves no visible triple, and the folded graph survives
        // a snapshot round-trip: three graphs, one set of lists and answers.
        let Some((rebuilt, wants)) = last.filter(|_| fold) else {
            return Ok(());
        };
        self.live.compact();
        let (folded, _) = self.live.pinned();
        prop_assert!(!folded.has_overlay(), "compaction flattens");
        check_match_lists(&folded, &rebuilt, &keys)?;
        let bytes = kgstore::write_snapshot(&folded);
        let loaded = kgstore::read_snapshot(&bytes).expect("snapshot v2 round-trip");
        let reloaded = Engine::new(&loaded, registry);
        for ((q, k), want) in queries.iter().zip(&wants) {
            prop_assert_eq!(&self.off[0].run_specqp(q, *k).answers, want, "compacted");
            prop_assert_eq!(&reloaded.run_specqp(q, *k).answers, want, "reloaded");
        }
        Ok(())
    }

    /// Checks `q` at `k` on the live graph's current version against
    /// `rebuilt`, its rebuild, and returns the rebuild's Spec-QP answers.
    /// `written` holds the triples the epoch's batch wrote.
    fn check_epoch(
        &self,
        rebuilt: &KnowledgeGraph,
        q: &Query,
        k: usize,
        written: &[PatternKey],
        coverage: &mut LiveCoverage,
    ) -> Result<Vec<PartialAnswer>, TestCaseError> {
        let registry = &self.world.ds.registry;
        let at_default = |speculation| {
            let config = config(ExecutionMode::Block(DEFAULT_BLOCK_SIZE), speculation);
            Engine::with_config(rebuilt, registry, config)
        };
        let reference = at_default(SpeculationPolicy::Off);
        let want_spec = reference.run_specqp(q, k);
        let want_trinit = reference.run_trinit(q, k);
        if q.len() <= 3 {
            prop_assert_eq!(&want_trinit.answers, &reference.run_naive(q, k).answers);
        }
        for (size, engine) in LIVE_BLOCK_SIZES.iter().zip(&self.off) {
            let spec = engine.run_specqp(q, k);
            prop_assert_eq!(&spec.plan, &want_spec.plan, "specqp plan, size {}", size);
            prop_assert_eq!(&spec.answers, &want_spec.answers, "specqp, size {}", size);
            let trinit = engine.run_trinit(q, k).answers;
            prop_assert_eq!(&trinit, &want_trinit.answers, "trinit, size {}", size);
        }
        // Fresh engines on both sides, so no ledger verdict of an earlier
        // epoch steers either plan.
        let fallback = SpeculationPolicy::Fallback { max_stages: 3 };
        let want = at_default(fallback).run_specqp(q, k);
        for size in LIVE_BLOCK_SIZES {
            let engine = live_engine(self.world, &self.live, size, fallback);
            let out = engine.run_specqp(q, k);
            let stages = out.report.fallback_stages;
            prop_assert_eq!(stages, want.report.fallback_stages, "size {}", size);
            prop_assert_eq!(&out.plan, &want.plan, "fallback plan, size {}", size);
            prop_assert_eq!(&out.answers, &want.answers, "fallback, size {}", size);
            if stages > 0 {
                coverage.overlay_recoveries += 1;
                let restart = engine.run_with_plan(q, k, out.plan.clone());
                prop_assert_eq!(&out.answers, &restart.answers, "delta ≠ restart");
            }
        }
        // A relaxed merge reads the lists of its pattern's relaxations.
        let patterns = q.patterns();
        let mut relaxed = (0..patterns.len())
            .filter(|&i| want_spec.plan.is_relaxed(i))
            .flat_map(|i| registry.relaxations_for(&patterns[i]));
        let holds = |key: PatternKey, t: &PatternKey| {
            let at = |want: Option<TermId>, got| want.is_none_or(|w| Some(w) == got);
            at(key.s, t.s) && at(key.p, t.p) && at(key.o, t.o)
        };
        if relaxed.any(|r| written.iter().any(|t| holds(key_of(&r.pattern), t))) {
            coverage.relaxed_writes += 1;
        }
        Ok(want_spec.answers)
    }
}

/// An engine over `live`, a graph of `world`, at `size` rows per block.
fn live_engine(
    world: &'static World,
    live: &Arc<LiveGraph>,
    size: usize,
    speculation: SpeculationPolicy,
) -> Engine<'static> {
    let config = config(ExecutionMode::Block(size), speculation);
    Engine::with_config(Arc::clone(live), &world.ds.registry, config)
}

/// Generated write schedules on XKG and Twitter, with their rules, through
/// [`LiveWorld::check_history`]. Guards keep the lap from going vacuous
/// unnoticed: some queries take the star join, some batches write into a
/// list a relaxed merge reads, and some runs recover on an overlay version.
#[test]
fn live_reads_equal_rebuild_from_scratch() {
    let op = (any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>());
    let query = |picks| (proptest::collection::vec(any::<u16>(), picks), 1usize..=25);
    let strategy = (
        query(2..=2),
        proptest::collection::vec(query(1..=4), 2),
        proptest::collection::vec(proptest::collection::vec(op, 1..=5), 1..=2),
    );
    let mut coverage = LiveCoverage::default();
    for world in [xkg(), twitter()] {
        let (mut live, mut cases) = (LiveWorld::new(world), 0);
        let mut runner = TestRunner::new(ProptestConfig::with_cases(LIVE_CASES));
        runner.run(&strategy, |((star, star_k), picks, batches)| {
            let star = (star_picks(world, &star), star_k);
            let queries: Vec<(Query, usize)> = std::iter::once(star)
                .chain(picks)
                .filter_map(|(picks, k)| Some((build_query(world, &picks, &[])?, k)))
                .collect();
            let stars = queries.iter().filter(|(q, _)| star_join_var(q).is_some());
            coverage.star_joins += stars.count();
            cases += 1;
            live.check_history(&queries, &batches, cases == LIVE_CASES, &mut coverage)
        });
    }
    assert!(coverage.star_joins > 0, "no query takes the star join");
    assert!(
        coverage.relaxed_writes > 0,
        "no write reached a relaxed merge"
    );
    assert!(coverage.overlay_recoveries > 0, "no run recovered live");
}

/// A deterministic worst-case history on XKG — in every batch the head
/// rows of every list the query writes to are replaced at shuffled scores
/// and half of them retracted — pinned outside proptest so a regression
/// fails loudly with a stable name.
#[test]
fn replacement_heavy_history_stays_equivalent() {
    let world = xkg();
    let q = build_query(world, &[1, 3, 6], &[]).expect("the picks make a query");
    let lists = (q.len() * (1 + WRITTEN_RELAXATIONS)) as u16;
    let batches: Vec<Vec<RawOp>> = (0..3u16)
        .map(|round| {
            let mut ops = Vec::new();
            for (list, row) in (0..lists).flat_map(|list| (0..3u16).map(move |row| (list, row))) {
                let score = (row * 37 + round * 11 + list * 5) % 128;
                ops.push((1, list, row, score as u8));
                if (row + round) % 2 == 0 {
                    ops.push((0, list, row, 0));
                }
            }
            ops
        })
        .collect();
    let mut coverage = LiveCoverage::default();
    let history = LiveWorld::new(world).check_history(&[(q, 10)], &batches, true, &mut coverage);
    history.unwrap();
}
