//! Shared utilities for the Spec-QP workspace.
//!
//! This crate holds the small, dependency-free building blocks used by every
//! other crate in the workspace:
//!
//! * [`TermId`] — dictionary-encoded identifier for RDF terms,
//! * [`Score`] — the exact, fixed-point answer score,
//! * [`FxHashMap`]/[`FxHashSet`] — hash collections with a fast
//!   multiply-rotate hasher (FxHash), appropriate for integer-like keys on a
//!   trusted, in-process workload,
//! * [`Error`] — the workspace-wide error type.

pub mod dictionary;
pub mod error;
pub mod hash;
pub mod id;
pub mod score;

pub use dictionary::Dictionary;
pub use error::{Error, Result, SnapshotError};
pub use hash::{fnv1a_64, fnv1a_64_lanes, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use id::TermId;
pub use score::Score;
