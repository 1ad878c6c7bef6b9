//! The block executor on the seeded XKG workload at three block sizes,
//! charting how execution time scales with block size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{Dataset, XkgConfig, XkgGenerator};
use operators::ExecutionMode;
use specqp::{Engine, EngineConfig};

fn engine(ds: &Dataset, execution: ExecutionMode) -> Engine<'_> {
    let config = EngineConfig {
        execution,
        ..EngineConfig::default()
    };
    let e = Engine::with_config(&ds.graph, &ds.registry, config);
    // Warm plans + statistics so iterations time execution, not planning.
    for q in &ds.workload.queries {
        e.warm(q, 10);
    }
    e
}

fn workload(e: &Engine<'_>, ds: &Dataset, k: usize) -> usize {
    ds.workload
        .queries
        .iter()
        .map(|q| e.run_specqp(q, k).answers.len())
        .sum()
}

fn bench_block_exec(c: &mut Criterion) {
    let ds = XkgGenerator::new(XkgConfig::small(0x5eed001)).generate();
    let mut group = c.benchmark_group("executor_workload_top10");

    for size in [32usize, 128, 1024] {
        let block = engine(&ds, ExecutionMode::Block(size));
        group.bench_with_input(BenchmarkId::new("block", size), &size, |b, _| {
            b.iter(|| workload(&block, &ds, 10))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_block_exec);
criterion_main!(benches);
