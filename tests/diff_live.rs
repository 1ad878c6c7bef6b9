//! Differential harness locking in live writes ≡ rebuild-from-scratch.
//!
//! For hundreds of randomly generated write histories (seeded through the
//! vendored proptest), a [`LiveGraph`]-backed engine queried *live* — base
//! plus delta overlay, mid-churn — must answer exactly like an engine over
//! a graph rebuilt from scratch to hold the same visible triples, for
//! Spec-QP and TriniT at block sizes 7 and 128. On top of the
//! differential:
//!
//! * **match lists** — at every epoch each key the query reads, plus the
//!   all-wildcard key and the exact triples the batch touched, resolves on
//!   the live version to the rebuilt graph's `(triple, score)` sequence, on
//!   the first read (the overlay merges the list) and the second (it serves
//!   the memoized list);
//! * **epoch isolation** — an engine pinned to the version published after
//!   the first batch answers byte-identically before and after every later
//!   commit (a query pinned at epoch N never sees N+1);
//! * **compaction round-trip** — after folding the overlay into a flat
//!   base, answers still match, and the folded graph survives a snapshot
//!   v2 write/read round-trip answering the same.
//!
//! Scores are distinct by construction (each op gets its own quantized
//! score, disjoint from the seed and anchor ranges), so per-triple order is
//! deterministic; multi-pattern *sums* can still collide, so answers are
//! compared as canonicalized (score bits, resolved names) sets with `k`
//! larger than any possible result — answer-set equality at full depth,
//! immune to tie-order at a top-k boundary.

use kgstore::{
    CompactionPolicy, KnowledgeGraph, KnowledgeGraphBuilder, LiveGraph, PatternKey, WriteBatch,
};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use relax::RelaxationRegistry;
use sparql::{Query, QueryBuilder};
use specqp::{star_join_var, Engine, EngineConfig, QueryOutcome};
use std::collections::HashMap;
use std::sync::Arc;

/// Deeper than any reachable answer set, so top-k == all answers and set
/// comparison is complete.
const K_ALL: usize = 512;

const N_SUBJ: u8 = 12;
const N_PRED: u8 = 4;
const N_OBJ: u8 = 6;

/// One raw write op drawn by proptest: `(kind, s, p, o)` with kind 0 ⇒
/// retract, anything else ⇒ assert. The op's *index* in the history
/// provides its score, so every asserted score is distinct.
type RawOp = (u8, u8, u8, u8);

fn subj(i: u8) -> String {
    format!("s{}", i % N_SUBJ)
}
fn pred(i: u8) -> String {
    format!("p{}", i % N_PRED)
}
fn obj(i: u8) -> String {
    format!("o{}", i % N_OBJ)
}

/// The model the live graph is checked against: visible triples by name.
type Model = HashMap<(String, String, String), f64>;

/// A canonicalized answer set: (score bits, resolved names) rows, sorted.
type CanonicalAnswers = Vec<(u64, Vec<String>)>;

/// The epoch-isolation pin: a held version, its epoch, and the answers it
/// froze.
type PinnedExpectation = (Arc<KnowledgeGraph>, kgstore::Epoch, CanonicalAnswers);

/// Seed triples plus one never-retracted anchor per (p, o) pair, so every
/// predicate/object name exists in any rebuilt graph's dictionary and
/// queries can always be constructed against it.
fn seed_model() -> Model {
    let mut m = Model::new();
    for i in 0..10u8 {
        m.insert((subj(i), pred(i), obj(i)), 100.0 + f64::from(i));
    }
    for p in 0..N_PRED {
        for o in 0..N_OBJ {
            m.insert(
                (format!("anchor{p}_{o}"), pred(p), obj(o)),
                1000.0 + f64::from(p) * 16.0 + f64::from(o),
            );
        }
    }
    m
}

fn build_from_model(model: &Model) -> KnowledgeGraph {
    // Deterministic insertion order (builder ids follow it), though the
    // differential never depends on it: scores are distinct per triple.
    let mut entries: Vec<_> = model.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    let mut b = KnowledgeGraphBuilder::new();
    for ((s, p, o), score) in entries {
        b.add(s, p, o, *score);
    }
    b.build()
}

/// The distinct `?x <p> <o>` / `?x <p> ?y` patterns `picks` select.
fn chosen_patterns(picks: &[u16]) -> Vec<(u8, Option<u8>)> {
    let mut chosen: Vec<(u8, Option<u8>)> = Vec::new();
    for &pick in picks {
        let p = (pick % u16::from(N_PRED)) as u8;
        // Every third pick leaves the object open (`?x <p> ?y`).
        let o = if pick % 3 == 0 {
            None
        } else {
            Some(((pick / u16::from(N_PRED)) % u16::from(N_OBJ)) as u8)
        };
        if !chosen.contains(&(p, o)) {
            chosen.push((p, o));
        }
    }
    chosen
}

/// Builds the same star query against `graph`'s own dictionary; `None`
/// when a picked term name is absent there (impossible for rebuilt graphs
/// thanks to the anchors, but checked rather than assumed).
fn build_query(graph: &KnowledgeGraph, picks: &[u16]) -> Option<Query> {
    let d = graph.dictionary();
    let mut qb = QueryBuilder::new();
    let x = qb.var("x");
    for (i, (p, o)) in chosen_patterns(picks).iter().enumerate() {
        let p = d.lookup(&pred(*p))?;
        match o {
            Some(o) => {
                qb.pattern(x, p, d.lookup(&obj(*o))?);
            }
            None => {
                let y = qb.var(&format!("y{i}"));
                qb.pattern(x, p, y);
            }
        }
    }
    qb.project(x);
    qb.build().ok()
}

/// Canonical answer form: (score bits, resolved binding names), sorted.
/// Resolving through each graph's own dictionary makes answers comparable
/// across graphs whose term ids differ.
fn canonical(outcome: &QueryOutcome, graph: &KnowledgeGraph) -> CanonicalAnswers {
    let d = graph.dictionary();
    let mut rows: CanonicalAnswers = outcome
        .answers
        .iter()
        .map(|a| {
            (
                a.score.value().to_bits(),
                a.binding
                    .iter()
                    .map(|(_, t)| d.name_or_unknown(t).to_string())
                    .collect(),
            )
        })
        .collect();
    rows.sort();
    rows
}

/// A lookup key by term names: `None` is a wildcard.
type NamedKey = [Option<String>; 3];

/// The rows `graph.matches` returns for `key` in rank order, resolved to
/// names; a bound name the dictionary lacks matches nothing.
fn named_matches(graph: &KnowledgeGraph, key: &NamedKey) -> Vec<([String; 3], u64)> {
    let d = graph.dictionary();
    let mut ids = [None; 3];
    for (id, name) in ids.iter_mut().zip(key) {
        if let Some(name) = name {
            match d.lookup(name) {
                Some(t) => *id = Some(t),
                None => return Vec::new(),
            }
        }
    }
    let [s, p, o] = ids;
    graph
        .matches(PatternKey { s, p, o })
        .iter_triples()
        .map(|(t, score)| {
            let name = |id| d.name_or_unknown(id).to_string();
            ([name(t.s), name(t.p), name(t.o)], score.value().to_bits())
        })
        .collect()
}

/// The keys whose match lists the differential reads at every epoch: the
/// query's patterns, the all-wildcard key, and each triple `batch` touched.
fn probed_keys(picks: &[u16], batch: &[RawOp]) -> Vec<NamedKey> {
    let mut keys: Vec<NamedKey> = chosen_patterns(picks)
        .into_iter()
        .map(|(p, o)| [None, Some(pred(p)), o.map(obj)])
        .collect();
    keys.push([None, None, None]);
    keys.extend(
        batch
            .iter()
            .map(|&(_, s, p, o)| [Some(subj(s)), Some(pred(p)), Some(obj(o))]),
    );
    keys
}

/// Every probed list on the live version equals the rebuilt graph's, on a
/// first read and on a second one served from the version's memo.
fn check_match_lists(
    version: &KnowledgeGraph,
    rebuilt: &KnowledgeGraph,
    keys: &[NamedKey],
    batch: usize,
) -> Result<(), TestCaseError> {
    for key in keys {
        let want = named_matches(rebuilt, key);
        let first = named_matches(version, key);
        prop_assert_eq!(&first, &want, "first read of {:?}, batch {}", key, batch);
        let second = named_matches(version, key);
        prop_assert_eq!(&second, &want, "second read of {:?}, batch {}", key, batch);
    }
    prop_assert_eq!(version.len(), version.iter_scored().count());
    prop_assert_eq!(version.len(), rebuilt.len());
    Ok(())
}

fn apply_to_model(model: &mut Model, ops: &[RawOp], score_base: usize) {
    for (idx, &(kind, s, p, o)) in ops.iter().enumerate() {
        let key = (subj(s), pred(p), obj(o));
        if kind == 0 {
            model.remove(&key);
        } else {
            model.insert(key, (score_base + idx + 1) as f64 * 0.25);
        }
    }
}

fn batch_of(ops: &[RawOp], score_base: usize) -> WriteBatch {
    let mut batch = WriteBatch::new();
    for (idx, &(kind, s, p, o)) in ops.iter().enumerate() {
        let (s, p, o) = (subj(s), pred(p), obj(o));
        if kind == 0 {
            batch.retract(&s, &p, &o);
        } else {
            batch.assert(&s, &p, &o, (score_base + idx + 1) as f64 * 0.25);
        }
    }
    batch
}

/// The full differential: random history applied batch-by-batch, the live
/// engine checked against a rebuilt-from-scratch engine after every
/// commit, epoch isolation across the tail of the history, and the
/// compaction + snapshot-v2 round-trip at the end.
fn check_live_differential(ops: &[RawOp], picks: &[u16]) -> Result<(), TestCaseError> {
    let mut model = seed_model();
    let live = Arc::new(LiveGraph::with_policy(
        build_from_model(&model),
        CompactionPolicy::never(),
    ));
    let registry = Arc::new(RelaxationRegistry::new());
    let engines: Vec<Engine<'static>> = [
        EngineConfig {
            execution: operators::ExecutionMode::Block(7),
            ..EngineConfig::default()
        },
        EngineConfig::default(),
    ]
    .into_iter()
    .map(|config| Engine::with_config(Arc::clone(&live), Arc::clone(&registry), config))
    .collect();

    let mut pinned: Option<PinnedExpectation> = None;
    for (i, chunk) in ops.chunks(5).enumerate() {
        let score_base = i * 5;
        live.commit(&batch_of(chunk, score_base));
        apply_to_model(&mut model, chunk, score_base);

        let rebuilt = build_from_model(&model);
        let reference = Engine::new(&rebuilt, Arc::clone(&registry));
        let Some(ref_query) = build_query(&rebuilt, picks) else {
            return Ok(());
        };
        let want_spec = canonical(&reference.run_specqp(&ref_query, K_ALL), &rebuilt);
        let want_trinit = canonical(&reference.run_trinit(&ref_query, K_ALL), &rebuilt);
        prop_assert!(
            want_spec.len() < K_ALL,
            "K_ALL must exceed the full answer set"
        );

        let (version, _) = live.pinned();
        check_match_lists(&version, &rebuilt, &probed_keys(picks, chunk), i)?;
        let live_query = build_query(&version, picks).expect("live dict is append-only");
        for (e, engine) in engines.iter().enumerate() {
            let got = canonical(&engine.run_specqp(&live_query, K_ALL), &version);
            prop_assert_eq!(&got, &want_spec, "specqp, executor {}, batch {}", e, i);
            let got = canonical(&engine.run_trinit(&live_query, K_ALL), &version);
            prop_assert_eq!(&got, &want_trinit, "trinit, executor {}, batch {}", e, i);
        }

        // Pin the version published by the first commit; it must keep
        // answering exactly this for the rest of the history.
        if i == 0 {
            let (v, e) = live.pinned();
            let outcome =
                Engine::new(Arc::clone(&v), Arc::clone(&registry)).run_specqp(&live_query, K_ALL);
            let frozen = canonical(&outcome, &v);
            pinned = Some((v, e, frozen));
        } else if let Some((v, e, frozen)) = &pinned {
            prop_assert_eq!(*e < live.epoch(), true, "later commits bump the epoch");
            let rerun_query = build_query(v, picks).expect("pinned dict held the vocabulary");
            let rerun =
                Engine::new(Arc::clone(v), Arc::clone(&registry)).run_specqp(&rerun_query, K_ALL);
            prop_assert_eq!(
                &canonical(&rerun, v),
                frozen,
                "epoch-pinned answers drifted at batch {}",
                i
            );
        }
    }

    // Compaction round-trip: fold the overlay, then push the folded base
    // through the v2 snapshot codec — three graphs, one answer set.
    if ops.is_empty() {
        return Ok(());
    }
    live.compact();
    let (folded, _) = live.pinned();
    prop_assert!(!folded.has_overlay(), "compaction must flatten");
    let rebuilt = build_from_model(&model);
    let reference = Engine::new(&rebuilt, Arc::clone(&registry));
    let Some(ref_query) = build_query(&rebuilt, picks) else {
        return Ok(());
    };
    let want = canonical(&reference.run_specqp(&ref_query, K_ALL), &rebuilt);
    let live_query = build_query(&folded, picks).expect("flatten is id-stable");
    let got = canonical(&engines[0].run_specqp(&live_query, K_ALL), &folded);
    prop_assert_eq!(&got, &want, "post-compaction answers");

    let bytes = kgstore::snapshot::write_snapshot(&folded);
    let loaded = kgstore::snapshot::read_snapshot(&bytes).expect("snapshot v2 round-trip");
    let loaded_query = build_query(&loaded, picks).expect("snapshot keeps the dictionary");
    let reloaded = Engine::new(&loaded, Arc::clone(&registry));
    let got = canonical(&reloaded.run_specqp(&loaded_query, K_ALL), &loaded);
    prop_assert_eq!(&got, &want, "snapshot-reloaded answers");
    Ok(())
}

/// 64 generated histories and queries through [`check_live_differential`].
/// Every third pick leaves its object open, so some queries are stars with
/// two multi-row patterns and take the star join ([`star_join_var`]): the
/// test asserts that, so a change to the generator or to the shape rule
/// cannot drop the star join from this check unnoticed.
#[test]
fn live_reads_equal_rebuild_from_scratch() {
    let strategy = (
        proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..=25),
        proptest::collection::vec(any::<u16>(), 1..=3),
    );
    let seed_graph = build_from_model(&seed_model());
    let mut star_joins = 0;
    TestRunner::new(ProptestConfig::with_cases(64)).run(&strategy, |(ops, picks)| {
        let q = build_query(&seed_graph, &picks);
        star_joins += usize::from(q.as_ref().and_then(star_join_var).is_some());
        check_live_differential(&ops, &picks)
    });
    assert!(star_joins > 0, "no generated query takes the star join");
}

/// A deterministic worst-case history (every triple replaced, half
/// retracted, scores shuffled) pinned outside proptest so a regression
/// fails loudly with a stable name.
#[test]
fn replacement_heavy_history_stays_equivalent() {
    let mut ops: Vec<RawOp> = Vec::new();
    for r in 0..4u8 {
        for s in 0..N_SUBJ {
            ops.push((1, s, s % N_PRED, (s + r) % N_OBJ));
            if s % 2 == 0 {
                ops.push((0, s, s % N_PRED, (s + r) % N_OBJ));
            }
        }
    }
    check_live_differential(&ops, &[1, 3, 6]).unwrap();
}
