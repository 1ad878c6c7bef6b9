//! Top-k query operators: sorted scans, incremental merge, and rank joins.
//!
//! This crate implements the physical operators of §2.1 of the paper:
//!
//! * [`PatternScan`] — streams the (optionally weighted) normalized matches
//!   of one triple pattern in descending score order (Def. 5),
//! * [`IncrementalMerge`] — merges a pattern and its relaxations into one
//!   descending stream with max-score deduplication (Theobald et al.,
//!   SIGIR'05, cited as \[29\]),
//! * [`RankJoin`] — the HRJN hash rank join with corner-bound thresholds and
//!   a pluggable pull strategy, including the HRJN\* adaptive strategy
//!   (Ilyas et al., VLDB'03/VLDB J.'04, cited as \[15,16\]),
//! * [`NestedLoopsRankJoin`] — the storage-free NRJN variant used by the
//!   ablation benches,
//! * [`top_k`] / [`top_k_projected`] — result collection with early
//!   termination.
//!
//! All operators implement [`RankedStream`]: a pull-based iterator of
//! [`PartialAnswer`]s in non-increasing score order that also exposes an
//! [`upper bound`](RankedStream::upper_bound) on every future answer, which
//! is what lets a consumer stop early once `k` answers at or above the bound
//! have been seen.
//!
//! Every answer object the operators materialize is counted through a shared
//! [`OpMetrics`] handle — the paper's memory metric (§4.3: "the total no. of
//! answer objects created directly corresponds to the amount of search space
//! traversed").

//! # Block-at-a-time execution
//!
//! Every operator an executor builds also has a vectorized sibling moving
//! [`AnswerBlock`] batches instead of single answers — [`BlockScan`],
//! [`BlockRankJoin`], [`BlockIncrementalMerge`] and [`top_k_blocks`] —
//! behind the [`BlockStream`] trait (NRJN is an ablation reference only,
//! so it has none). Both paths produce identical answers in identical
//! order; [`ExecutionMode`] is the engine-level switch (see the `block`
//! module docs).

pub mod adapt;
pub mod answer;
pub mod block;
pub mod block_join;
pub mod incr_merge;
pub mod metrics;
pub mod morsel;
pub mod nrjn;
pub mod rank_join;
pub mod scan;
pub mod stream;
pub mod topk;

pub use adapt::{Projected, Scaled};
pub use answer::{Binding, PartialAnswer};
pub use block::{
    top_k_blocks, top_k_blocks_floored, AnswerBlock, Block, BlockStream, BoxedBlockStream,
    ExecutionMode, RowsToBlocks, DEFAULT_BLOCK_SIZE,
};
pub use block_join::{BlockIncrementalMerge, BlockRankJoin};
pub use incr_merge::IncrementalMerge;
pub use metrics::{CacheMetrics, CacheMetricsHandle, MetricsHandle, OpMetrics};
pub use morsel::{MorselDispenser, DEFAULT_MORSEL_ROWS};
pub use nrjn::NestedLoopsRankJoin;
pub use rank_join::{PullStrategy, RankJoin};
pub use scan::{BlockScan, PatternScan};
pub use stream::{materialize, BoxedStream, RankedStream, VecStream};
pub use topk::{top_k, top_k_floored, top_k_projected};
