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

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{XkgConfig, XkgGenerator};
use sparql::Query;
use specqp::plan_query;
use specqp_stats::{CardinalityEstimator, ExactCardinality, RefitMode, StatsCatalog};

fn bench_planner(c: &mut Criterion) {
    let ds = XkgGenerator::new(XkgConfig::small(0x91a)).generate();
    let catalog = StatsCatalog::new();
    let exact = ExactCardinality::new();
    let plan = |q: &Query, catalog: &StatsCatalog, cardinality: &ExactCardinality| {
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
    };
    let sample = || ds.workload.queries.iter().enumerate().take(6);
    let id = |qid: usize, q: &Query| BenchmarkId::new(format!("exact_tp{}", q.len()), qid);

    // Warm the cardinality memos and the catalog.
    for q in &ds.workload.queries {
        plan(q, &catalog, &exact);
    }

    let mut group = c.benchmark_group("plangen");
    for (qid, q) in sample() {
        group.bench_with_input(id(qid, q), q, |b, q| b.iter(|| plan(q, &catalog, &exact)));
    }
    group.finish();

    let mut group = c.benchmark_group("plangen_cold");
    for (qid, q) in sample() {
        group.bench_with_input(id(qid, q), q, |b, q| {
            b.iter(|| plan(q, &StatsCatalog::new(), &ExactCardinality::new()))
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

criterion_group!(benches, bench_planner);
criterion_main!(benches);
