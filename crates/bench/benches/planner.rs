//! Microbench: PLANGEN end-to-end planning latency per query, warm and
//! cold, and the exact oracle's cold cardinality counts. This is the
//! "additional time spent on speculative planning" visible in Figures 7/9
//! when every pattern ends up relaxed.
//!
//! The `*_cold` groups build a fresh [`ExactCardinality`] (and, for
//! PLANGEN, a fresh [`StatsCatalog`]) per iteration: what the first sight
//! of a query shape pays, and what every query pays again after a
//! live-write epoch invalidates the memos. The warm groups alone hide that
//! cost — they only ever time memo hits.
//!
//! Six queries of `XkgConfig::small` cover every shape cheaply. The
//! `*_paper` cold groups time the graphs the repository benchmark measures,
//! `XkgConfig::default()` (351,676 triples) and `TwitterConfig::default()`
//! (239,486): per dataset, the four queries whose planner patterns — each
//! pattern and its top relaxation — match the most rows, where summaries
//! reach the 10⁴-row lists that dominate cold planning.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{Dataset, TwitterConfig, TwitterGenerator, XkgConfig, XkgGenerator};
use kgstore::PatternKey;
use sparql::Query;
use specqp::plan_query;
use specqp_stats::{CardinalityEstimator, ExactCardinality, RefitMode, StatsCatalog};

fn plan(ds: &Dataset, q: &Query, catalog: &StatsCatalog, cardinality: &ExactCardinality) -> usize {
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
    .relaxed_count()
}

fn id(qid: usize, q: &Query) -> BenchmarkId {
    BenchmarkId::new(format!("exact_tp{}", q.len()), qid)
}

/// The `count` queries of `ds` whose patterns and top relaxations match the
/// most rows, heaviest first.
fn heaviest(ds: &Dataset, count: usize) -> Vec<(usize, &Query)> {
    let rows = |q: &Query| -> usize {
        (q.patterns().iter())
            .flat_map(|p| {
                [
                    Some(*p),
                    ds.registry.top_relaxation_for(p).map(|r| r.pattern),
                ]
            })
            .flatten()
            .map(|p| {
                let (s, p, o) = p.const_parts();
                ds.graph.cardinality(PatternKey { s, p, o })
            })
            .sum()
    };
    let mut queries: Vec<(usize, &Query)> = ds.workload.queries.iter().enumerate().collect();
    queries.sort_by_key(|&(qid, q)| (std::cmp::Reverse(rows(q)), qid));
    queries.truncate(count);
    queries
}

fn bench_planner(c: &mut Criterion) {
    let ds = XkgGenerator::new(XkgConfig::small(0x91a)).generate();
    let catalog = StatsCatalog::new();
    let exact = ExactCardinality::new();
    let sample = || ds.workload.queries.iter().enumerate().take(6);

    // Warm the cardinality memos and the catalog.
    for q in &ds.workload.queries {
        plan(&ds, q, &catalog, &exact);
    }

    let mut group = c.benchmark_group("plangen");
    for (qid, q) in sample() {
        group.bench_with_input(id(qid, q), q, |b, q| {
            b.iter(|| plan(&ds, q, &catalog, &exact))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("plangen_cold");
    for (qid, q) in sample() {
        group.bench_with_input(id(qid, q), q, |b, q| {
            b.iter(|| plan(&ds, q, &StatsCatalog::new(), &ExactCardinality::new()))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("cardinality_cold");
    for (qid, q) in sample() {
        group.bench_with_input(id(qid, q), q, |b, q| {
            b.iter(|| ExactCardinality::new().cardinality(&ds.graph, q.patterns()))
        });
    }
    group.finish();
}

fn bench_planner_paper(c: &mut Criterion) {
    for ds in [
        XkgGenerator::new(XkgConfig::default()).generate(),
        TwitterGenerator::new(TwitterConfig::default()).generate(),
    ] {
        let heavy = heaviest(&ds, 4);
        let mut group = c.benchmark_group(format!("plangen_cold_paper/{}", ds.name));
        for &(qid, q) in &heavy {
            group.bench_with_input(id(qid, q), q, |b, q| {
                b.iter(|| plan(&ds, q, &StatsCatalog::new(), &ExactCardinality::new()))
            });
        }
        group.finish();

        let mut group = c.benchmark_group(format!("cardinality_cold_paper/{}", ds.name));
        for &(qid, q) in &heavy {
            group.bench_with_input(id(qid, q), q, |b, q| {
                b.iter(|| ExactCardinality::new().cardinality(&ds.graph, q.patterns()))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_planner, bench_planner_paper);
criterion_main!(benches);
