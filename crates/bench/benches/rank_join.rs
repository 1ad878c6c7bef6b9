//! Microbench: the block executor's rank-join and merge kernels drained to
//! exhaustion, where the per-row bookkeeping (row index, result heap, dedup
//! set) is all there is to time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use operators::{
    AnswerBlock, Binding, BlockIncrementalMerge, BlockRankJoin, BlockStream, BoxedBlockStream,
    OpMetrics, PartialAnswer, PullStrategy,
};
use sparql::Var;
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
                    PullStrategy::Adaptive,
                    OpMetrics::new_handle(),
                    128,
                ))
            })
        });
    }

    // A pattern and 15 relaxations over one variable, every term reached by
    // four of the lists: the dedup set sees 32k rows and keeps 8k.
    let lists: Vec<Vec<AnswerBlock>> = (0..16u32)
        .map(|i| {
            let rows: Vec<PartialAnswer> = (0..2_000u32)
                .map(|j| {
                    PartialAnswer::new(
                        Binding::from_pairs(vec![(Var(0), TermId((i % 4) * 2_000 + j))]),
                        Score::new((1.0 - f64::from(i) * 0.04) * (1.0 - f64::from(j) / 2_000.0)),
                    )
                })
                .collect();
            pack(&rows, &[Var(0)])
        })
        .collect();
    group.bench_function("block_merge_dedup", |b| {
        b.iter(|| {
            let inputs = lists.iter().map(|l| stream(l)).collect();
            drain(BlockIncrementalMerge::new(inputs, 128))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_block_kernels);
criterion_main!(benches);
