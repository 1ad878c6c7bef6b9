//! Microbench: the expected-score estimator — convolution with the
//! two-bucket refit plus the order-statistic quantile — across query sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{XkgConfig, XkgGenerator};
use specqp_stats::{ExactCardinality, ScoreEstimator, StatsCatalog};

fn bench_estimator(c: &mut Criterion) {
    let ds = XkgGenerator::new(XkgConfig::small(0xE57)).generate();
    let catalog = StatsCatalog::new();
    let oracle = ExactCardinality::new();

    // Pick one query per pattern count.
    let mut by_tp: Vec<(usize, &sparql::Query)> = Vec::new();
    for q in &ds.workload.queries {
        if !by_tp.iter().any(|(n, _)| *n == q.len()) {
            by_tp.push((q.len(), q));
        }
    }

    // Warm caches so the bench isolates convolution + quantile math.
    for (_, q) in &by_tp {
        let weighted: Vec<_> = q.patterns().iter().map(|p| (*p, 1.0)).collect();
        let est = ScoreEstimator::new(&catalog, &oracle);
        let _ = est.estimate(&ds.graph, &weighted);
    }

    let mut group = c.benchmark_group("estimator");
    for (tp, q) in &by_tp {
        let weighted: Vec<_> = q.patterns().iter().map(|p| (*p, 1.0)).collect();
        group.bench_with_input(BenchmarkId::new("two_bucket", tp), q, |b, _| {
            let est = ScoreEstimator::new(&catalog, &oracle);
            b.iter(|| {
                est.estimate(&ds.graph, &weighted)
                    .expected_score_at_rank(10)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_estimator);
criterion_main!(benches);
