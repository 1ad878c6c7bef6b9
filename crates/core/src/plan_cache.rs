//! The plan cache's key: canonical query shape.
//!
//! Spec-QP amortizes planning effort across a workload: under serving
//! traffic the same query *shapes* (templates instantiated with the same
//! constants but arbitrary variable names) recur, and PLANGEN's decision
//! depends only on the shape and `k` — not on variable names. The engine's
//! plan cache is a [`VersionMemo`](kgstore::VersionMemo) from [`QueryShape`]
//! to the generated [`QueryPlan`](crate::QueryPlan), so repeated shapes skip
//! PLANGEN entirely. Like every memo, it serves a plan only on the graph
//! epoch it was planned on. The speculation ledger plays no part: PLANGEN
//! does not read it, so a cached plan stays valid across ledger writes, and
//! the engine applies the ledger's bias to each plan it serves.

use sparql::{canonical_form, CanonicalSlot, Query};

/// Variable-name-insensitive identity of a planning problem: the pattern
/// structure (constants + canonically renumbered variables, in query order)
/// and the requested `k`.
///
/// Two queries that differ only in variable names produce equal shapes; any
/// difference in constants, join structure, pattern order or `k` produces a
/// different shape.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct QueryShape {
    slots: Vec<CanonicalSlot>,
    k: usize,
}

impl QueryShape {
    /// Canonicalizes `query` + `k`: variables are renumbered in first-seen
    /// order across the whole pattern list, erasing their names.
    pub fn of(query: &Query, k: usize) -> Self {
        QueryShape {
            slots: canonical_form(query.patterns()),
            k,
        }
    }

    /// The `k` this shape was planned for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of patterns in the shape.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` for a shape with no patterns (never produced by valid queries).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparql::QueryBuilder;
    use specqp_common::TermId;

    fn query(var_names: [&str; 2], classes: [u32; 2]) -> Query {
        let mut b = QueryBuilder::new();
        let s = b.var(var_names[0]);
        let o = b.var(var_names[1]);
        b.pattern(s, TermId(0), TermId(classes[0]));
        b.pattern(s, TermId(0), TermId(classes[1]));
        b.pattern(s, TermId(1), o);
        b.build().unwrap()
    }

    #[test]
    fn shape_erases_variable_names() {
        let a = QueryShape::of(&query(["s", "o"], [5, 6]), 10);
        let b = QueryShape::of(&query(["x", "y"], [5, 6]), 10);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.k(), 10);
    }

    #[test]
    fn shape_distinguishes_constants_and_k() {
        let a = QueryShape::of(&query(["s", "o"], [5, 6]), 10);
        let b = QueryShape::of(&query(["s", "o"], [5, 7]), 10);
        let c = QueryShape::of(&query(["s", "o"], [5, 6]), 11);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shape_distinguishes_join_structure() {
        // ?s <0> <5> . ?s <0> <6> vs ?s <0> <5> . ?t <0> <6>: same constants,
        // different variable topology.
        let mut b1 = QueryBuilder::new();
        let s = b1.var("s");
        b1.pattern(s, TermId(0), TermId(5));
        b1.pattern(s, TermId(0), TermId(6));
        let star = b1.build().unwrap();
        let mut b2 = QueryBuilder::new();
        let s = b2.var("s");
        let t = b2.var("t");
        b2.pattern(s, TermId(0), TermId(5));
        b2.pattern(t, TermId(0), TermId(6));
        let cross = b2.build().unwrap();
        assert_ne!(QueryShape::of(&star, 5), QueryShape::of(&cross, 5));
    }
}
