//! The counting cardinality oracle against plain enumeration.
//!
//! [`ExactCardinality`] never builds a join row: it multiplies and adds
//! per-pattern join-key summaries. The reference here does the opposite —
//! it walks every pattern's candidate triples, extends a variable binding
//! and counts the complete ones — and the two must agree *exactly*:
//!
//! * on generated small graphs, frozen and live (asserts, score
//!   replacements and retractions over several epochs, then a compaction),
//!   against a nested loop over *all* visible triples, so the oracle's
//!   overlay-aware match-list reads are checked too;
//! * for generated 1–4-pattern queries covering stars, chains, triangles,
//!   cross products, `?x p ?x` repeated variables, variable predicates,
//!   all-constant and empty patterns;
//! * over every form a one-position summary takes: the term ids sit on
//!   both sides of a 64-bit word boundary and one far beyond, so a list's
//!   ids fill a set or carry multiplicities (`?x p o` against `?x p ?y`) in
//!   the dense bitset, straddle a word of it, or spread too thinly for it
//!   and take the sparse map;
//! * and through PLANGEN: the XKG-small and Twitter-small workloads plan to
//!   equal [`QueryPlan`](specqp::QueryPlan)s whether the counts come from
//!   the oracle or from an estimator wrapping the enumerating reference.

use datagen::{TwitterConfig, TwitterGenerator, XkgConfig, XkgGenerator};
use kgstore::{
    CompactionPolicy, KnowledgeGraph, KnowledgeGraphBuilder, LiveGraph, PatternKey, Triple,
    WriteBatch,
};
use proptest::prelude::*;
use sparql::{Term, TriplePattern, Var};
use specqp::plan_query;
use specqp_common::TermId;
use specqp_stats::{CardinalityEstimator, ExactCardinality, RefitMode, StatsCatalog};

/// Few enough terms that random triples join, repeat and self-loop.
const TERMS: u8 = 5;

/// The dictionary id of each term: 63 and 64 straddle a 64-bit word of a
/// dense summary, and a list holding 0 and 200 in two or three rows spans
/// more than 64 ids per row, which sends its summary down the sparse path.
const TERM_IDS: [usize; TERMS as usize] = [0, 62, 63, 64, 200];

fn name(i: u8) -> String {
    format!("t{}", i % TERMS)
}

/// `(s, p, o)` drawn over the same small term universe for every position,
/// so a variable can join a predicate position with a subject position.
type RawTriple = (u8, u8, u8);

/// A generated query: shape selector, pattern count, constant/variable picks.
type RawQuery = (u8, usize, Vec<u8>);

/// Counts the bindings of `patterns` that extend `binding`, taking the
/// triples to try for each pattern from `candidates` (which may ignore the
/// key: every candidate is checked against the pattern and the binding).
fn enumerate(
    patterns: &[TriplePattern],
    binding: &mut Vec<(Var, TermId)>,
    candidates: &dyn Fn(PatternKey) -> Vec<Triple>,
) -> f64 {
    let Some((p, rest)) = patterns.split_first() else {
        return 1.0;
    };
    let bound = |t: Term| match t {
        Term::Const(c) => Some(c),
        Term::Var(v) => binding.iter().find(|(w, _)| *w == v).map(|&(_, c)| c),
    };
    let key = PatternKey {
        s: bound(p.s),
        p: bound(p.p),
        o: bound(p.o),
    };
    let mut total = 0.0;
    for t in candidates(key) {
        let mark = binding.len();
        let unifies = [(p.s, t.s), (p.p, t.p), (p.o, t.o)]
            .into_iter()
            .all(|(term, value)| match term {
                Term::Const(c) => c == value,
                Term::Var(v) => match binding.iter().find(|(w, _)| *w == v) {
                    Some(&(_, b)) => b == value,
                    None => {
                        binding.push((v, value));
                        true
                    }
                },
            });
        if unifies {
            total += enumerate(rest, binding, candidates);
        }
        binding.truncate(mark);
    }
    total
}

/// Brute force: a nested loop over every visible triple per pattern.
fn nested_loop_count(graph: &KnowledgeGraph, patterns: &[TriplePattern]) -> f64 {
    if patterns.is_empty() {
        return 0.0;
    }
    let all: Vec<Triple> = graph.iter_scored().map(|st| st.triple).collect();
    enumerate(patterns, &mut Vec::new(), &|_| all.clone())
}

/// The enumerating reference as an estimator, candidates looked up by the
/// bound components so it scales to the generated workloads.
struct Enumerating;

impl CardinalityEstimator for Enumerating {
    fn cardinality(&self, graph: &KnowledgeGraph, patterns: &[TriplePattern]) -> f64 {
        if patterns.is_empty() {
            return 0.0;
        }
        enumerate(patterns, &mut Vec::new(), &|key| {
            graph.matches(key).iter_triples().map(|(t, _)| t).collect()
        })
    }
}

/// The generated triples plus one `(tᵢ, tᵢ, tᵢ)` anchor per term, so every
/// term name resolves in the base dictionary, at the ids of [`TERM_IDS`]
/// (padding terms no triple uses fill the gaps).
fn build_graph(triples: &[RawTriple]) -> KnowledgeGraph {
    let mut b = KnowledgeGraphBuilder::new();
    for (i, &id) in TERM_IDS.iter().enumerate() {
        while b.dictionary().len() < id {
            b.intern(&format!("pad{}", b.dictionary().len()));
        }
        b.intern(&name(i as u8));
    }
    for i in 0..TERMS {
        b.add(&name(i), &name(i), &name(i), 1.0);
    }
    for (i, &(s, p, o)) in triples.iter().enumerate() {
        b.add(&name(s), &name(p), &name(o), 2.0 + i as f64);
    }
    b.build()
}

/// Builds the query `raw` describes against `graph`'s dictionary.
fn build_query(graph: &KnowledgeGraph, (kind, len, picks): &RawQuery) -> Vec<TriplePattern> {
    let c = |i: usize| -> Term {
        let id = graph.dictionary().lookup(&name(picks[i]));
        Term::Const(id.expect("every term is anchored in the base graph"))
    };
    let v = |i: u32| Term::Var(Var(i));
    let pat = |s: Term, p: Term, o: Term| TriplePattern { s, p, o };
    let mut patterns = match kind % 8 {
        // Star on ?0, two patterns with a private object variable.
        0 => vec![
            pat(v(0), c(0), c(1)),
            pat(v(0), c(2), v(1)),
            pat(v(0), c(3), c(4)),
            pat(v(0), c(5), v(2)),
        ],
        // Chain ?0 → ?1 → ?2 → ?3 → ?4.
        1 => vec![
            pat(v(0), c(0), v(1)),
            pat(v(1), c(1), v(2)),
            pat(v(2), c(2), v(3)),
            pat(v(3), c(3), v(4)),
        ],
        // Triangle (cyclic), plus a tail.
        2 => vec![
            pat(v(0), c(0), v(1)),
            pat(v(1), c(1), v(2)),
            pat(v(2), c(2), v(0)),
            pat(v(2), c(3), v(3)),
        ],
        // Cross product of two components, one of them a chain.
        3 => vec![
            pat(v(0), c(0), c(1)),
            pat(v(1), c(2), v(2)),
            pat(v(2), c(3), v(3)),
            pat(v(4), c(4), c(5)),
        ],
        // Repeated variables inside a pattern, joined and not.
        4 => vec![
            pat(v(0), c(0), v(0)),
            pat(v(0), c(1), v(1)),
            pat(v(1), v(1), v(2)),
            pat(v(3), v(3), v(3)),
        ],
        // An all-constant pattern (present or absent) beside a join.
        5 => vec![
            pat(c(0), c(1), c(2)),
            pat(v(0), c(3), v(1)),
            pat(c(4), c(4), c(4)),
            pat(v(1), c(5), v(2)),
        ],
        // All-variable patterns: three-position keys, variable predicates.
        6 => vec![
            pat(v(0), v(1), v(2)),
            pat(v(2), v(1), v(0)),
            pat(v(0), v(3), v(4)),
            pat(v(4), v(1), v(5)),
        ],
        // Free form: every position a constant or one of four variables.
        _ => (0..4)
            .map(|i| {
                let term = |j: usize| match picks[3 * i + j] {
                    pick if pick % 3 == 0 => c(3 * i + j),
                    pick => v(u32::from(pick % 4)),
                };
                pat(term(0), term(1), term(2))
            })
            .collect(),
    };
    patterns.truncate(*len);
    patterns
}

fn raw_triples(max: usize) -> impl Strategy<Value = Vec<RawTriple>> {
    prop::collection::vec((0..TERMS, 0..TERMS, 0..TERMS), 0..max)
}

fn raw_queries() -> impl Strategy<Value = Vec<RawQuery>> {
    let query = (
        any::<u8>(),
        1usize..5,
        prop::collection::vec(any::<u8>(), 12),
    );
    prop::collection::vec(query, 1..8)
}

/// Checks every query against the nested loop on `graph`.
fn check_queries(
    oracle: &ExactCardinality,
    graph: &KnowledgeGraph,
    queries: &[RawQuery],
    stage: &str,
) -> Result<(), TestCaseError> {
    for raw in queries {
        let patterns = build_query(graph, raw);
        prop_assert_eq!(
            oracle.cardinality(graph, &patterns),
            nested_loop_count(graph, &patterns),
            "{}: {:?}",
            stage,
            patterns
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Frozen graphs: one oracle across all of a case's queries, so later
    /// queries count from summaries earlier ones memoized.
    #[test]
    fn counting_equals_enumeration_on_frozen_graphs(
        triples in raw_triples(60),
        queries in raw_queries(),
    ) {
        let graph = build_graph(&triples);
        let oracle = ExactCardinality::new();
        check_queries(&oracle, &graph, &queries, "frozen")?;
        // Asked again, every count comes from the count memo — unchanged.
        check_queries(&oracle, &graph, &queries, "memoized")?;
        prop_assert_eq!(oracle.cardinality(&graph, &[]), 0.0);
    }

    /// Live graphs: after every commit (asserts of fresh triples, score
    /// replacements of visible ones, retractions) the same oracle, its memos
    /// moving on with the epoch each version carries, counts the pinned
    /// version exactly, overlay and masks included, and again once the
    /// overlay is compacted away.
    #[test]
    fn counting_equals_enumeration_across_live_epochs(
        base in raw_triples(40),
        epochs in prop::collection::vec(
            prop::collection::vec((any::<u8>(), 0..TERMS, 0..TERMS, 0..TERMS), 1..16),
            2..5,
        ),
        queries in raw_queries(),
    ) {
        let live = LiveGraph::with_policy(build_graph(&base), CompactionPolicy::never());
        let oracle = ExactCardinality::new();
        check_queries(&oracle, &live.pinned().0, &queries, "epoch 0")?;
        let mut score = 1000.0;
        for (e, ops) in epochs.iter().enumerate() {
            let mut batch = WriteBatch::new();
            for &(kind, s, p, o) in ops {
                // An assert of a visible triple replaces its score.
                score += 1.0;
                if kind % 3 == 0 {
                    batch.retract(&name(s), &name(p), &name(o));
                } else {
                    batch.assert(&name(s), &name(p), &name(o), score);
                }
            }
            live.commit(&batch);
            let (graph, _) = live.pinned();
            check_queries(&oracle, &graph, &queries, &format!("epoch {}", e + 1))?;
        }
        live.compact();
        let (graph, _) = live.pinned();
        prop_assert!(!graph.has_overlay());
        check_queries(&oracle, &graph, &queries, "compacted")?;
    }
}

/// Only planning cost may change: PLANGEN reaches the same plan — partition
/// and carried predictions — from the oracle's counts as from enumerated
/// ones, for every query of both small workloads.
#[test]
fn small_workloads_plan_identically_from_counted_and_enumerated_cardinalities() {
    let xkg = XkgConfig {
        queries: 18,
        ..XkgConfig::small(0x5eed001)
    };
    for ds in [
        XkgGenerator::new(xkg).generate(),
        TwitterGenerator::new(TwitterConfig::small(3)).generate(),
    ] {
        let oracle = ExactCardinality::new();
        let (counted_stats, enumerated_stats) = (StatsCatalog::new(), StatsCatalog::new());
        for q in &ds.workload.queries {
            let plan = |catalog: &StatsCatalog, cardinality: &dyn CardinalityEstimator| {
                plan_query(
                    &ds.graph,
                    q,
                    10,
                    catalog,
                    cardinality,
                    &ds.registry,
                    RefitMode::TwoBucket,
                    false,
                )
            };
            assert_eq!(
                plan(&counted_stats, &oracle),
                plan(&enumerated_stats, &Enumerating),
                "{} query {:?}",
                ds.workload.name,
                q.patterns()
            );
        }
    }
}
