//! Weighted query relaxation: rules, rule registries and rule mining.
//!
//! A weighted relaxation rule (Def. 7 of the paper) is `r = (q, q′, w)`: a
//! triple pattern `q` may be replaced by `q′` at a score penalty `w ∈ [0,1]`.
//! Rules are mined offline from the KG; this crate implements the two mining
//! schemes matching the paper's datasets:
//!
//! * [`HierarchyMiner`] — XKG-style: a class can relax to its siblings,
//!   parent and cousins in the type hierarchy, with weights decaying in the
//!   hierarchy distance (the paper obtains its XKG relaxations "using the
//!   scheme outlined in \[37\]"; hierarchy neighbourhoods are the dominant
//!   source of type relaxations there);
//! * [`CooccurrenceMiner`] — Twitter-style: term `T₁` relaxes to `T₂` with
//!   weight `w = #tweets(T₁ ∧ T₂)/#tweets(T₁)` (§4.2, verbatim formula).
//!
//! Mined rules live in a [`RelaxationRegistry`]; given a triple pattern the
//! registry enumerates its [`Relaxation`]s in descending weight order, which
//! is the order both the Incremental Merge and PLANGEN consume them in.

pub mod chain;
pub mod cooccur;
pub mod hierarchy;
pub mod registry;
pub mod rule;

pub use chain::{ChainRelaxation, ChainRule};
pub use cooccur::CooccurrenceMiner;
pub use hierarchy::{HierarchyMiner, TypeHierarchy};
pub use registry::{Relaxation, RelaxationRegistry};
pub use rule::{Position, TermRule};
