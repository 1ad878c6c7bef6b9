//! Score-distribution statistics for speculative planning (§3.1 of the
//! paper).
//!
//! The Spec-QP planner never looks at actual answer scores — it reasons over
//! a compact *model* of each triple pattern's score distribution:
//!
//! 1. **Per-pattern statistics** ([`PatternStats`], §3.1.1): each pattern's
//!    normalized match scores are summarized by exactly four values —
//!    `m` (match count), `σᵣ` (score at the rank where 80% of the score mass
//!    is reached), `Sᵣ` (cumulative score up to that rank) and `S_m` (total
//!    score). These define a [`TwoBucketHistogram`]: a short, tall head
//!    bucket `[σᵣ, 1]` holding ~80% of the mass and a long tail `[0, σᵣ)`
//!    holding the rest — the 80/20 shape the authors observed empirically.
//! 2. **Query distributions** (§3.1.2): the score of a joined answer is the
//!    *sum* of its per-pattern scores, so the query's score pdf is the
//!    **convolution** of the per-pattern pdfs. Convolving two two-bucket
//!    histograms yields a [`PiecewiseLinearPdf`]; following the paper it is
//!    refit to a two-bucket histogram before the next convolution
//!    ([`RefitMode::TwoBucket`], the only mode: the paper names
//!    multi-bucket histograms as a costlier option it did not run, §4.5.2).
//!    So every distribution the estimator holds between steps, and the one
//!    it ends with, is a [`TwoBucketHistogram`].
//! 3. **Score prediction** (§3.1.3): with the final histogram's cdf `F_Q`
//!    and the estimated answer count `n`, the expected score at rank `i` is
//!    the order-statistic approximation
//!    `E[X₍ₙ₋ᵢ₊₁₎] ≈ F_Q⁻¹((n−i+1)/(n+1))` ([`order_stats`]).
//!
//! Join cardinalities come from a [`CardinalityEstimator`]; the default
//! [`ExactCardinality`] oracle counts true join sizes from memoised
//! per-pattern join-key summaries, without enumerating the join — what the
//! paper uses ("we have taken exact join selectivity values").
//!
//! The catalog additionally keeps the **speculation feedback ledger**
//! ([`SpeculationOutcome`]): per-pattern-shape verdicts of the execution
//! layer's fallback escalations — an escalation that changed the top-k is
//! an offense, one that changed nothing is clean — which bias the plans
//! the engine serves away from repeat offenders.

pub mod cardinality;
pub mod catalog;
pub mod estimator;
pub mod histogram;
pub mod order_stats;
pub mod piecewise;

pub use cardinality::{CardinalityEstimator, ExactCardinality};
pub use catalog::{SpeculationOutcome, StatsCatalog};
pub use estimator::{refit_two_bucket, QueryEstimate, RefitMode, ScoreEstimator};
pub use histogram::{PatternStats, TwoBucketHistogram, HEAD_FRACTION};
pub use order_stats::expected_score_at_rank;
pub use piecewise::PiecewiseLinearPdf;
