//! Microbench: what recovering from a mis-speculation costs, by delta and
//! by restart, on the queries of XKG-small and Twitter-small that
//! mis-speculate.
//!
//! Both sides start from the speculative plan PLANGEN produced and end on
//! the escalated plan's top-k:
//!
//! * `delta` is the lifecycle itself ([`Engine::run_speculative`] under
//!   `Fallback { max_stages: 3 }`): one execution, verify, and per escalated
//!   pattern one floor-bounded delta run folded into the answers in hand;
//! * `restart` is the cheapest restart there is — the speculative plan, then
//!   the *final* escalated plan once from scratch (`run_with_plan` twice).
//!   A lifecycle that restarts per stage pays for every intermediate plan
//!   on top of that.
//!
//! Every iteration gets a fresh engine: a ledger that has seen the query
//! settles or re-biases its patterns, and the second run would not recover.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{Dataset, TwitterConfig, TwitterGenerator, XkgConfig, XkgGenerator};
use specqp::{Engine, EngineConfig, SpeculationPolicy};

const K: usize = 10;

fn bench_recovery(c: &mut Criterion) {
    let sets: [(&str, Dataset); 2] = [
        (
            "xkg",
            XkgGenerator::new(XkgConfig::small(0x5eed001)).generate(),
        ),
        (
            "twitter",
            TwitterGenerator::new(TwitterConfig::small(0x71177e4)).generate(),
        ),
    ];
    let mut group = c.benchmark_group("recovery");
    for (name, ds) in &sets {
        let config = EngineConfig {
            speculation: SpeculationPolicy::Fallback { max_stages: 3 },
            ..EngineConfig::default()
        };
        let engine = || Engine::with_config(&ds.graph, &ds.registry, config);
        for (qid, q) in ds.workload.queries.iter().enumerate() {
            let cold = engine();
            let (plan, _) = cold.plan(q, K);
            let recovered = cold.run_speculative(q, K, plan.clone());
            let stages = recovered.report.fallback_stages;
            if stages == 0 {
                continue;
            }
            let id = |side: &str| BenchmarkId::new(format!("{side}_{name}_{stages}stage"), qid);
            group.bench_function(id("delta"), |b| {
                b.iter(|| engine().run_speculative(q, K, plan.clone()).answers.len())
            });
            group.bench_function(id("restart"), |b| {
                b.iter(|| {
                    let e = engine();
                    let first = e.run_with_plan(q, K, plan.clone());
                    let last = e.run_with_plan(q, K, recovered.plan.clone());
                    first.answers.len() + last.answers.len()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_recovery);
criterion_main!(benches);
