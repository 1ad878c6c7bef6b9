//! Microbench: the block executor's rank-join and merge kernels drained to
//! exhaustion, where the per-row bookkeeping (row index, result heap, dedup
//! set) is all there is to time, and the scans that feed them, drained
//! from a flat graph and through a live-write overlay: warm (the version
//! serves its memoized merged list) and first-read (every timed scan hits a
//! version nobody has read yet, so it pays the one-time merge).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kgstore::{CompactionPolicy, KnowledgeGraph, KnowledgeGraphBuilder, LiveGraph, WriteBatch};
use operators::{
    AnswerBlock, Binding, BlockIncrementalMerge, BlockRankJoin, BlockScan, BlockStream,
    BoxedBlockStream, OpMetrics, PartialAnswer,
};
use sparql::{TriplePattern, Var};
use specqp_common::{Score, TermId};

fn side(len: usize, keys: u32, salt: u32) -> Vec<PartialAnswer> {
    (0..len)
        .map(|i| {
            PartialAnswer::new(
                Binding::from_pairs(vec![
                    (Var(0), TermId((i as u32 * 31 + salt) % keys)),
                    (Var(1 + salt), TermId(i as u32)),
                ]),
                Score::new(1.0 - i as f64 / len as f64),
            )
        })
        .collect()
}

/// A block stream handing out copies of prebuilt blocks: the kernels under
/// test are the only code of substance inside the timed region.
struct Prebuilt<'a>(std::slice::Iter<'a, AnswerBlock>);

impl BlockStream for Prebuilt<'_> {
    fn schema(&self) -> &[Var] {
        self.0.as_slice()[0].schema()
    }

    fn next_block(&mut self) -> Option<AnswerBlock> {
        self.0.next().cloned()
    }

    fn upper_bound(&self) -> Option<Score> {
        self.0.as_slice().first().map(|b| b.score(0))
    }
}

/// Packs `rows` (all binding exactly `schema`) into 128-row blocks.
fn pack(rows: &[PartialAnswer], schema: &[Var]) -> Vec<AnswerBlock> {
    rows.chunks(128)
        .map(|chunk| {
            let mut b = AnswerBlock::with_capacity(schema.to_vec(), chunk.len());
            for a in chunk {
                let terms: Vec<TermId> =
                    schema.iter().map(|&v| a.binding.get(v).unwrap()).collect();
                b.push_row(&terms, a.score);
            }
            b
        })
        .collect()
}

fn stream(blocks: &[AnswerBlock]) -> BoxedBlockStream<'_> {
    Box::new(Prebuilt(blocks.iter()))
}

fn drain(mut s: impl BlockStream) -> usize {
    let mut n = 0;
    while let Some(b) = s.next_block() {
        n += b.len();
    }
    n
}

fn bench_block_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_kernels");
    let len = 5_000;
    // Near-unique keys are the star-join case (almost every `?s` distinct);
    // ten rows per key exercises chains and a result heap 10x the input.
    for (name, keys) in [("near_unique", len as u32), ("10_per_key", len as u32 / 10)] {
        let lb = pack(&side(len, keys, 0), &[Var(0), Var(1)]);
        let rb = pack(&side(len, keys, 1), &[Var(0), Var(2)]);
        group.bench_function(BenchmarkId::new("block_rank_join", name), |b| {
            b.iter(|| {
                drain(BlockRankJoin::new(
                    stream(&lb),
                    stream(&rb),
                    vec![Var(0)],
                    OpMetrics::new_handle(),
                    128,
                ))
            })
        });
    }

    // A pattern and 15 relaxations, every row reached by four of the lists:
    // the dedup set sees 32k rows and keeps 8k — term ids in a bitset at
    // width 1, packed `u64` keys in a hash set at width 2.
    for width in [1, 2] {
        let schema: Vec<Var> = (0..width).map(Var).collect();
        let lists: Vec<Vec<AnswerBlock>> = (0..16u32)
            .map(|i| {
                let rows: Vec<PartialAnswer> = (0..2_000u32)
                    .map(|j| {
                        let row = [TermId((i % 4) * 2_000 + j), TermId(i % 4)];
                        let pairs = schema.iter().copied().zip(row).collect();
                        PartialAnswer::new(
                            Binding::from_pairs(pairs),
                            Score::new(
                                (1.0 - f64::from(i) * 0.04) * (1.0 - f64::from(j) / 2_000.0),
                            ),
                        )
                    })
                    .collect();
                pack(&rows, &schema)
            })
            .collect();
        let id = BenchmarkId::new("block_merge_dedup", format!("width_{width}"));
        group.bench_function(id, |b| {
            b.iter(|| {
                let inputs = lists.iter().map(|l| stream(l)).collect();
                drain(BlockIncrementalMerge::new(inputs, 128))
            })
        });
    }
    group.finish();
}

/// A graph of `rows` `(eᵢ, p, o)` triples with distinct descending scores.
fn scan_graph(rows: u32) -> KnowledgeGraph {
    let mut b = KnowledgeGraphBuilder::new();
    for i in 0..rows {
        b.add(&format!("e{i}"), "p", "o", f64::from(rows - i));
    }
    b.build()
}

/// Timed iterations per benchmark (the shim adds one warm-up call).
const SAMPLES: usize = 20;

/// Binds `?s` of `?s p o` (width 1) or all of `?s ?p ?o` (width 3).
fn scan_shapes(g: &KnowledgeGraph) -> [(&'static str, TriplePattern); 2] {
    let d = g.dictionary();
    let (p, o) = (d.lookup("p").unwrap(), d.lookup("o").unwrap());
    [
        ("width_1", TriplePattern::new(Var(0), p, o)),
        ("width_3", TriplePattern::new(Var(0), Var(1), Var(2))),
    ]
}

fn scan(g: &KnowledgeGraph, pattern: TriplePattern) -> usize {
    drain(BlockScan::new(
        g,
        pattern,
        Score::ONE,
        OpMetrics::new_handle(),
        128,
    ))
}

fn bench_block_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_scan");
    group.sample_size(SAMPLES);
    let rows = 20_000;
    let flat = scan_graph(rows);
    // The same graph as one live version on top of it: a 1% batch of
    // asserts interleaved into the list by score, so every scan goes
    // through the overlay's merged id list.
    let live = LiveGraph::with_policy(scan_graph(rows), CompactionPolicy::never());
    let mut batch = WriteBatch::new();
    for i in 0..rows / 100 {
        batch.assert(
            &format!("new{i}"),
            "p",
            "o",
            f64::from(rows - i * 100) - 0.5,
        );
    }
    live.commit(&batch);
    let (overlay, _) = live.pinned();
    for (name, g) in [("flat", &flat), ("overlay", &*overlay)] {
        for (width, pattern) in scan_shapes(g) {
            group.bench_function(BenchmarkId::new(name, width), |b| {
                b.iter(|| scan(g, pattern))
            });
        }
    }
    // Empty commits publish fresh versions of the same graph, each with an
    // empty memo: one per call, built before the timed loop.
    for (width, pattern) in scan_shapes(&overlay) {
        let unread: Vec<_> = (0..=SAMPLES)
            .map(|_| {
                live.commit(&WriteBatch::new());
                live.pinned().0
            })
            .collect();
        let mut unread = unread.iter();
        group.bench_function(BenchmarkId::new("overlay_first_read", width), |b| {
            b.iter(|| scan(unread.next().expect("one unread version per call"), pattern))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_block_kernels, bench_block_scan);
criterion_main!(benches);
