//! Top-k query operators: sorted scans, incremental merge, rank joins and
//! the star join.
//!
//! This crate implements the physical operators of §2.1 of the paper, all
//! moving [`AnswerBlock`] batches through the pull-based [`BlockStream`]
//! trait:
//!
//! * [`BlockScan`] — streams the (optionally weighted) normalized matches
//!   of one triple pattern in descending score order (Def. 5), reading only
//!   the store columns the pattern binds;
//! * [`BlockIncrementalMerge`] — merges a pattern and its relaxations into
//!   one descending stream with max-score deduplication (Theobald et al.,
//!   SIGIR'05, cited as \[29\]); [`pattern_stream`] builds it for a pattern
//!   with several inputs and keeps a lone input's bare scan;
//! * [`BlockRankJoin`] — the HRJN hash rank join with corner-bound
//!   thresholds, pulling by the HRJN\* adaptive strategy (Ilyas et al.,
//!   VLDB'03/VLDB J.'04, cited as \[15,16\]); a side that is
//!   [`distinct`](BlockStream::distinct) and binds only join variables holds
//!   each key once, and its term drops the partner rows whose key it has
//!   produced (Schnaitter & Polyzotis, PODS'08, show the corner bound is not
//!   tight);
//! * [`BlockStarJoin`] — the Threshold Algorithm over a star query's
//!   parts (Fagin, Lotem & Naor, PODS'01): it probes each binding of the
//!   star variable in every part and expands the binding's answers lazily,
//!   where a rank join over two parts with several rows per key would
//!   materialize each key's cross product;
//! * [`top_k_blocks`] / [`top_k_blocks_floored`] — result collection with
//!   early termination.
//!
//! Every stream emits rows in non-increasing score order and exposes an
//! [`upper bound`](BlockStream::upper_bound) on every future row, which is
//! what lets a consumer stop early once `k` answers at or above the bound
//! have been seen.
//!
//! Every answer object the operators materialize is counted through a shared
//! [`OpMetrics`] handle — the paper's memory metric (§4.3: "the total no. of
//! answer objects created directly corresponds to the amount of search space
//! traversed").

pub mod answer;
pub mod block;
pub mod block_join;
pub mod metrics;
pub mod scan;
pub mod star;

pub use answer::{Binding, PartialAnswer};
pub use block::{
    top_k_blocks, top_k_blocks_floored, AnswerBlock, BlockStream, BoxedBlockStream, ExecutionMode,
    ReplayBlocks, DEFAULT_BLOCK_SIZE,
};
pub use block_join::{pattern_stream, BlockIncrementalMerge, BlockRankJoin, PullStrategy};
pub use metrics::{MetricsHandle, OpMetrics};
pub use scan::BlockScan;
pub use star::{is_star, BlockStarJoin, StarPart};
