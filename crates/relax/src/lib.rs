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
//! Every rule is a [`TermRule`]: it rewrites one constant of a pattern, so a
//! relaxed pattern has the variables of the original. Mined rules live in a
//! [`RelaxationRegistry`]; given a triple pattern,
//! [`relaxations_for`](RelaxationRegistry::relaxations_for) enumerates its
//! [`Relaxation`]s in descending weight order. That one enumeration feeds
//! the Incremental Merge, PLANGEN's single-relaxation check and the
//! verifier's escalation candidates alike, so the planner and the verifier
//! see every input the executor can merge.

pub mod cooccur;
pub mod hierarchy;
pub mod registry;
pub mod rule;

pub use cooccur::CooccurrenceMiner;
pub use hierarchy::{HierarchyMiner, TypeHierarchy};
pub use registry::{Relaxation, RelaxationRegistry};
pub use rule::{Position, TermRule};
