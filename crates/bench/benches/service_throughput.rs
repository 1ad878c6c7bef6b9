//! Service throughput bench: queries/sec of the concurrent query service at
//! 1, 2 and 4 worker threads over a repeated XKG workload — the BENCH
//! headline for the serving layer. The repeated shapes keep the plan cache
//! hot, so this measures execution + dispatch, the steady-state serving
//! cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{XkgConfig, XkgGenerator};
use specqp_service::{QueryService, Request, ServiceConfig, Ticket};
use std::sync::Arc;

/// Submits every query of the batch, then waits for all of them; returns
/// the number of answers served.
fn serve(service: &QueryService, queries: &[sparql::Query]) -> usize {
    let tickets: Vec<Ticket> = queries
        .iter()
        .map(|q| service.submit(Request::new(q.clone(), 10)).unwrap())
        .collect();
    tickets
        .into_iter()
        .map(|t| t.wait().outcome.expect("query executed").answers.len())
        .sum()
}

fn bench_service(c: &mut Criterion) {
    let ds = XkgGenerator::new(XkgConfig::small(0x5e41ce)).generate();
    let queries: Vec<sparql::Query> = ds
        .workload
        .queries
        .iter()
        .cycle()
        .take(48)
        .cloned()
        .collect();
    let graph = Arc::new(ds.graph);
    let registry = Arc::new(ds.registry);

    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);
    for &threads in &[1usize, 2, 4] {
        let service = QueryService::new(
            Arc::clone(&graph),
            Arc::clone(&registry),
            ServiceConfig::with_threads(threads),
        );
        // Warm the plan/stats caches so samples measure steady state.
        let _ = serve(&service, &queries);
        group.bench_with_input(
            BenchmarkId::new("batch48_threads", threads),
            &threads,
            |b, _| b.iter(|| serve(&service, &queries)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
