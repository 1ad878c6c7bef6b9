//! The block kernels do not allocate per row: a counting global allocator
//! watches a 40k-row star join, and a 16-input scan → merge, drain to
//! exhaustion.
//!
//! Allocations are counted per thread, so tests running side by side (and
//! the harness's own bookkeeping) never reach each other's counts.

// A `#[global_allocator]` is an `unsafe impl`; the workspace denies unsafe
// code everywhere else.
#![allow(unsafe_code)]

use kgstore::KnowledgeGraphBuilder;
use operators::{
    AnswerBlock, BlockIncrementalMerge, BlockRankJoin, BlockScan, BlockStream, BoxedBlockStream,
    OpMetrics,
};
use sparql::{TriplePattern, Var};
use specqp_common::{Score, TermId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one `alloc`/`realloc` if this thread is counting.
fn tally() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

/// Runs `f` with this thread's allocations counted; returns its result and
/// the count.
fn counting<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

/// The system allocator, counting `alloc`/`realloc` calls of armed threads.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are `const`-initialized
// thread-locals without destructors, which neither allocate nor touch
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with the
        // same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: as for `dealloc`, plus the caller's `new_size` guarantee.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A block stream over blocks built before the counter is armed, so that
/// only the join's own allocations are seen.
struct Prebuilt {
    schema: Vec<Var>,
    blocks: std::vec::IntoIter<AnswerBlock>,
}

impl BlockStream for Prebuilt {
    fn schema(&self) -> &[Var] {
        &self.schema
    }

    fn next_block(&mut self) -> Option<AnswerBlock> {
        self.blocks.next()
    }

    fn upper_bound(&self) -> Option<Score> {
        self.blocks.as_slice().first().map(|b| b.score(0))
    }
}

const ROWS: u32 = 20_000;

/// `ROWS` rows over `[?0, ?side]` in 128-row blocks, scores strictly
/// descending, join keys near-unique (every 50th repeats its predecessor) —
/// the star-join shape where almost every `?s` is distinct.
fn side(side_var: u32, stride: u32) -> Prebuilt {
    let schema = vec![Var(0), Var(side_var)];
    let rows: Vec<u32> = (0..ROWS).collect();
    let blocks: Vec<AnswerBlock> = rows
        .chunks(128)
        .map(|chunk| {
            let mut b = AnswerBlock::with_capacity(schema.clone(), chunk.len());
            for &i in chunk {
                let key = (i - u32::from(i % 50 == 49)) * stride % ROWS;
                b.push_row(
                    &[TermId(key), TermId(1_000_000 + i)],
                    Score::new(1.0 - f64::from(i) * 1e-5),
                );
            }
            b
        })
        .collect();
    Prebuilt {
        schema,
        blocks: blocks.into_iter(),
    }
}

#[test]
fn block_rank_join_allocates_far_less_than_once_per_row() {
    let metrics = OpMetrics::new_handle();
    // Stride 7 is coprime to ROWS: the right side meets the left's keys in a
    // scattered order, so results queue up in the heap instead of streaming.
    let mut join = BlockRankJoin::new(
        Box::new(side(1, 1)),
        Box::new(side(2, 7)),
        vec![Var(0)],
        metrics.clone(),
        128,
    );

    let (emitted, allocations) = counting(|| {
        let mut emitted = 0usize;
        while let Some(block) = join.next_block() {
            emitted += block.len();
        }
        emitted
    });

    let pulled = metrics.join_pulls();
    assert_eq!(pulled, u64::from(2 * ROWS), "both sides drained");
    assert!(emitted > ROWS as usize / 2, "near-unique keys still join");
    assert_eq!(emitted as u64, metrics.answers_created(), "heap drained");
    // What remains is per block (output buffers) and per doubling (the row
    // store, the index, the heap, its arena) — never per row, key or result.
    assert!(
        allocations * 10 < pulled,
        "{allocations} allocations for {pulled} rows pulled and {emitted} results"
    );
}

const INPUTS: u32 = 16;
const LIST_ROWS: u32 = 2_000;

/// A pattern and its 15 relaxations, each scanned from the store: 16
/// one-variable scans of 2k rows, every subject reached by four of them
/// (32k rows in, 8k kept), merged and drained.
#[test]
fn scan_merge_allocates_per_block_not_per_row() {
    let mut b = KnowledgeGraphBuilder::new();
    for i in 0..INPUTS {
        for j in 0..LIST_ROWS {
            let subject = format!("e{}", (i % 4) * LIST_ROWS + j);
            b.add(&subject, &format!("p{i}"), "o", f64::from(LIST_ROWS - j));
        }
    }
    let g = b.build();
    let d = g.dictionary();
    let o = d.lookup("o").unwrap();
    let patterns: Vec<TriplePattern> = (0..INPUTS)
        .map(|i| TriplePattern::new(Var(0), d.lookup(&format!("p{i}")).unwrap(), o))
        .collect();
    let metrics = OpMetrics::new_handle();

    let (merged, allocations) = counting(|| {
        let inputs: Vec<BoxedBlockStream<'_>> = patterns
            .iter()
            .zip(0..)
            .map(|(&pattern, i)| {
                let weight = Score::new(1.0 - f64::from(i) * 0.04);
                Box::new(BlockScan::new(&g, pattern, weight, metrics.clone(), 128)) as _
            })
            .collect();
        let mut merge = BlockIncrementalMerge::new(inputs, 128);
        let mut merged = 0u64;
        while let Some(block) = merge.next_block() {
            merged += block.len() as u64;
        }
        merged
    });

    let pulled = metrics.sorted_accesses();
    assert_eq!(pulled, u64::from(INPUTS * LIST_ROWS), "every scan drained");
    assert_eq!(merged, u64::from(4 * LIST_ROWS), "each subject once");
    // Three buffers per block a scan or the merge emits (schema, terms,
    // scores), a few per scan, and a handful of doublings of the dedup
    // bitset for 8k subjects: 1,082 for 32,000 rows. A reused four-column
    // raw batch per scan plus a hash-set dedup (1,283), or any buffer per
    // scanned block beyond the three, breaks the bound.
    assert!(
        allocations * 28 < pulled,
        "{allocations} allocations for {pulled} rows scanned and {merged} merged"
    );
}
