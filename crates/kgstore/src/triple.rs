//! The 〈s,p,o〉 triple data model.

use specqp_common::TermId;
use std::cmp::Ordering;
use std::fmt;

/// An RDF triple 〈subject, predicate, object〉 over dictionary ids
/// (Def. 1 of the paper: `t ∈ E×P×E`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject term.
    pub s: TermId,
    /// Predicate term.
    pub p: TermId,
    /// Object term.
    pub o: TermId,
}

impl Triple {
    /// Creates a triple from its three components.
    #[inline]
    pub fn new(s: TermId, p: TermId, o: TermId) -> Self {
        Triple { s, p, o }
    }
}

impl fmt::Debug for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{} {} {}>", self.s, self.p, self.o)
    }
}

/// A raw triple score `S(t)` (Def. 1): a finite, non-negative real. Raw
/// scores reach 1e5 and their sums far more, so they stay `f64`; a scan
/// turns one into an exact answer score with
/// [`Score::weighted`](specqp_common::Score::weighted).
#[derive(Clone, Copy, PartialEq, Default, Debug)]
pub struct TripleScore(f64);

impl TripleScore {
    /// Wraps a valid raw score.
    ///
    /// # Panics
    /// Panics if `v` is NaN, negative or infinite.
    #[inline]
    pub fn new(v: f64) -> Self {
        Self::try_new(v).unwrap_or_else(|| panic!("score must be finite and non-negative, got {v}"))
    }

    /// The one validation of a raw score: `None` unless `v` is finite and
    /// non-negative.
    #[inline]
    pub fn try_new(v: f64) -> Option<Self> {
        (v.is_finite() && v >= 0.0).then_some(TripleScore(v))
    }

    /// The wrapped value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Eq for TripleScore {}

impl PartialOrd for TripleScore {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TripleScore {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("triple scores are never NaN")
    }
}

/// A triple together with its score `S(t)` — confidence / popularity
/// (inlink count, occurrence frequency, retweet count, …).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ScoredTriple {
    /// The triple.
    pub triple: Triple,
    /// The raw (un-normalized) score `S(t)`.
    pub score: TripleScore,
}

impl ScoredTriple {
    /// Creates a scored triple.
    #[inline]
    pub fn new(s: TermId, p: TermId, o: TermId, score: TripleScore) -> Self {
        ScoredTriple {
            triple: Triple::new(s, p, o),
            score,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_equality_and_hash() {
        use specqp_common::FxHashSet;
        let a = Triple::new(TermId(1), TermId(2), TermId(3));
        let b = Triple::new(TermId(1), TermId(2), TermId(3));
        let c = Triple::new(TermId(3), TermId(2), TermId(1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = FxHashSet::default();
        set.insert(a);
        assert!(!set.insert(b));
        assert!(set.insert(c));
    }

    #[test]
    fn scored_triple_carries_score() {
        let st = ScoredTriple::new(TermId(1), TermId(2), TermId(3), TripleScore::new(5.0));
        assert_eq!(st.score.value(), 5.0);
        assert_eq!(st.triple.s, TermId(1));
    }

    #[test]
    fn try_new_accepts_finite_non_negative_only() {
        assert_eq!(TripleScore::try_new(0.0).map(TripleScore::value), Some(0.0));
        assert_eq!(TripleScore::try_new(1e5).map(TripleScore::value), Some(1e5));
        assert!(TripleScore::try_new(f64::NAN).is_none());
        assert!(TripleScore::try_new(-1.0).is_none());
        assert!(TripleScore::try_new(f64::INFINITY).is_none());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn new_panics_on_invalid() {
        let _ = TripleScore::new(-0.5);
    }

    #[test]
    fn debug_format() {
        let t = Triple::new(TermId(1), TermId(2), TermId(3));
        assert_eq!(format!("{t:?}"), "<1 2 3>");
    }
}
