//! The block rank join's kernels do not allocate per row: a counting global
//! allocator watches a 40k-row star join drain to exhaustion.
//!
//! This file holds exactly one test, so no other test thread allocates
//! while the counter is armed.

// A `#[global_allocator]` is an `unsafe impl`; the workspace denies unsafe
// code everywhere else.
#![allow(unsafe_code)]

use operators::{AnswerBlock, BlockRankJoin, BlockStream, OpMetrics, PullStrategy};
use sparql::Var;
use specqp_common::{Score, TermId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting `alloc`/`realloc` calls while armed.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with the
        // same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
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
        PullStrategy::Adaptive,
        metrics.clone(),
        128,
    );

    ARMED.store(true, Ordering::SeqCst);
    let mut emitted = 0usize;
    while let Some(block) = join.next_block() {
        emitted += block.len();
    }
    ARMED.store(false, Ordering::SeqCst);

    let allocations = ALLOCATIONS.load(Ordering::SeqCst);
    let pulled = metrics.sorted_accesses();
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
