//! The block executor on the seeded XKG workload at three block sizes,
//! charting how execution time scales with block size, and morsel-parallel
//! execution of one heavy scan at 1, 2 and 4 workers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{Dataset, XkgConfig, XkgGenerator};
use kgstore::KnowledgeGraphBuilder;
use operators::{ExecutionMode, OpMetrics, PullStrategy, DEFAULT_BLOCK_SIZE};
use relax::{ChainRuleSet, RelaxationRegistry};
use specqp::{
    partition_target, run_plan_blocks_parallel, run_plan_blocks_with_chains, Engine, EngineConfig,
    QueryPlan,
};

fn engine(ds: &Dataset, execution: ExecutionMode) -> Engine<'_> {
    let e = Engine::with_config(
        &ds.graph,
        &ds.registry,
        EngineConfig::default().with_execution(execution),
    );
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

/// An adversarial rank join for morsel partitioning: a 200k-row "heavy"
/// scan whose only joinable rows sit at the bottom of its score order, so
/// the top-10 certifies only after the scan is almost fully drained. Light
/// scores rise strictly with the entity index, so every total is distinct
/// and the answers have no tie order to disagree on.
///
/// Wall-clock speedup needs as many cores as workers; on fewer cores this
/// group shows the partition-and-merge overhead instead.
fn bench_morsel_heavy_scan(c: &mut Criterion) {
    let (n_big, n_small, k) = (200_000usize, 2_000usize, 10);
    let mut b = KnowledgeGraphBuilder::new();
    for i in 0..n_big {
        b.add(&format!("e{i}"), "heavy", "c_big", (n_big - i) as f64);
    }
    for i in (n_big - n_small)..n_big {
        let frac = (i - (n_big - n_small)) as f64 / n_small as f64;
        b.add(&format!("e{i}"), "light", "c_small", 1.0 + frac);
    }
    let graph = b.build();
    let d = graph.dictionary();
    let mut qb = sparql::QueryBuilder::new();
    let x = qb.var("x");
    qb.pattern(x, d.lookup("heavy").unwrap(), d.lookup("c_big").unwrap());
    qb.pattern(x, d.lookup("light").unwrap(), d.lookup("c_small").unwrap());
    qb.project(x);
    let q = qb.build().expect("heavy-scan join query");
    let (registry, chains) = (RelaxationRegistry::new(), ChainRuleSet::new());
    let plan = QueryPlan::none_relaxed(2);
    let target = partition_target(&graph, &q, &plan, &registry, &chains)
        .expect("the heavy scan is partitionable");
    let run = |workers: usize| {
        run_plan_blocks_parallel(
            &graph,
            &q,
            &plan,
            &registry,
            &chains,
            OpMetrics::new_handle(),
            PullStrategy::Adaptive,
            k,
            DEFAULT_BLOCK_SIZE,
            workers,
            target,
        )
    };

    let sequential = run_plan_blocks_with_chains(
        &graph,
        &q,
        &plan,
        &registry,
        &chains,
        OpMetrics::new_handle(),
        PullStrategy::Adaptive,
        k,
        DEFAULT_BLOCK_SIZE,
    );
    assert_eq!(sequential.len(), k);
    let workers = [1usize, 2, 4];
    for w in workers {
        assert_eq!(run(w), sequential, "{w} workers must answer like one");
    }

    let mut group = c.benchmark_group("morsel_heavy_scan");
    group.sample_size(10);
    for w in workers {
        group.bench_with_input(BenchmarkId::new("workers", w), &w, |b, &w| {
            b.iter(|| run(w))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_block_exec, bench_morsel_heavy_scan);
criterion_main!(benches);
