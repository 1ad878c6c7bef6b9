//! Struct-of-arrays storage for scored triples.
//!
//! The triple table is kept as four parallel columns (`s`, `p`, `o`,
//! `score`) instead of an array of [`ScoredTriple`] structs. Operators that
//! only need scores (upper bounds, normalizers, cumulative sums) touch the
//! score column alone — 8 bytes per triple instead of 32 — and the snapshot
//! format serializes each column as one contiguous block.

use crate::triple::{ScoredTriple, Triple, TripleScore};
use specqp_common::TermId;

/// Parallel `s`/`p`/`o`/`score` columns over the triple table.
///
/// Row `i` of all four columns together is the `i`-th [`ScoredTriple`];
/// the invariant that all columns have equal length is maintained by every
/// constructor and mutator.
#[derive(Debug, Default, Clone)]
pub struct TripleColumns {
    pub(crate) s: Vec<TermId>,
    pub(crate) p: Vec<TermId>,
    pub(crate) o: Vec<TermId>,
    pub(crate) score: Vec<TripleScore>,
}

impl TripleColumns {
    /// Empty columns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.score.len()
    }

    /// `true` when there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.score.is_empty()
    }

    /// Pre-allocates space for `n` additional rows in every column.
    pub fn reserve(&mut self, n: usize) {
        self.s.reserve(n);
        self.p.reserve(n);
        self.o.reserve(n);
        self.score.reserve(n);
    }

    /// Appends one row.
    #[inline]
    pub fn push(&mut self, t: Triple, score: TripleScore) {
        self.s.push(t.s);
        self.p.push(t.p);
        self.o.push(t.o);
        self.score.push(score);
    }

    /// The triple components at row `i`.
    #[inline]
    pub fn triple(&self, i: usize) -> Triple {
        Triple::new(self.s[i], self.p[i], self.o[i])
    }

    /// The score at row `i` (touches only the score column).
    #[inline]
    pub fn score(&self, i: usize) -> TripleScore {
        self.score[i]
    }

    /// Row `i` assembled into a [`ScoredTriple`].
    #[inline]
    pub fn scored(&self, i: usize) -> ScoredTriple {
        ScoredTriple {
            triple: self.triple(i),
            score: self.score[i],
        }
    }

    /// Overwrites the score at row `i` (builder duplicate-policy path).
    #[inline]
    pub(crate) fn set_score(&mut self, i: usize, score: TripleScore) {
        self.score[i] = score;
    }

    /// The subject column.
    pub fn subjects(&self) -> &[TermId] {
        &self.s
    }

    /// The predicate column.
    pub fn predicates(&self) -> &[TermId] {
        &self.p
    }

    /// The object column.
    pub fn objects(&self) -> &[TermId] {
        &self.o
    }

    /// The score column.
    pub fn scores(&self) -> &[TripleScore] {
        &self.score
    }

    /// Iterates all rows as [`ScoredTriple`]s in storage order.
    pub fn iter(&self) -> impl Iterator<Item = ScoredTriple> + '_ {
        (0..self.len()).map(move |i| self.scored(i))
    }

    /// Resident bytes of the four columns.
    pub fn approx_bytes(&self) -> usize {
        self.len() * (3 * std::mem::size_of::<TermId>() + std::mem::size_of::<TripleScore>())
    }

    /// Rebuilds columns from parts (snapshot load). Fails if the column
    /// lengths disagree.
    pub(crate) fn from_parts(
        s: Vec<TermId>,
        p: Vec<TermId>,
        o: Vec<TermId>,
        score: Vec<TripleScore>,
    ) -> Option<Self> {
        if s.len() != score.len() || p.len() != score.len() || o.len() != score.len() {
            return None;
        }
        Some(TripleColumns { s, p, o, score })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols() -> TripleColumns {
        let mut c = TripleColumns::new();
        c.push(
            Triple::new(TermId(1), TermId(2), TermId(3)),
            TripleScore::new(5.0),
        );
        c.push(
            Triple::new(TermId(4), TermId(2), TermId(3)),
            TripleScore::new(1.0),
        );
        c
    }

    #[test]
    fn push_and_read_back() {
        let c = cols();
        assert_eq!(c.len(), 2);
        assert_eq!(c.triple(0), Triple::new(TermId(1), TermId(2), TermId(3)));
        assert_eq!(c.score(1).value(), 1.0);
        assert_eq!(c.scored(1).triple.s, TermId(4));
    }

    #[test]
    fn columns_stay_parallel() {
        let c = cols();
        assert_eq!(c.subjects().len(), c.len());
        assert_eq!(c.predicates().len(), c.len());
        assert_eq!(c.objects().len(), c.len());
        assert_eq!(c.scores().len(), c.len());
    }

    #[test]
    fn iter_matches_rows() {
        let c = cols();
        let v: Vec<ScoredTriple> = c.iter().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], c.scored(0));
        assert_eq!(v[1], c.scored(1));
    }

    #[test]
    fn from_parts_validates_lengths() {
        assert!(TripleColumns::from_parts(
            vec![TermId(1)],
            vec![TermId(2)],
            vec![TermId(3)],
            vec![TripleScore::new(1.0)],
        )
        .is_some());
        assert!(
            TripleColumns::from_parts(vec![TermId(1)], vec![], vec![TermId(3)], vec![]).is_none()
        );
    }
}
