//! Triple patterns (Def. 2) and their structural helpers.

use crate::term::{Term, Var};
use specqp_common::{FxHashMap, TermId};

/// Equality classes among the variable positions of a pattern.
///
/// Needed so that statistics computed for `?x p o` can be reused for
/// `?y p o` but not for pathological shapes like `?x p ?x` (subject must
/// equal object), whose match sets differ.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PatternShape {
    /// All variable positions are distinct variables (or there are ≤1).
    Distinct,
    /// Subject and predicate are the same variable.
    SpEqual,
    /// Subject and object are the same variable.
    SoEqual,
    /// Predicate and object are the same variable.
    PoEqual,
    /// All three positions are the same variable.
    AllEqual,
}

/// A triple pattern 〈S,P,O〉 whose components are constants or variables.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TriplePattern {
    /// Subject position.
    pub s: Term,
    /// Predicate position.
    pub p: Term,
    /// Object position.
    pub o: Term,
}

impl TriplePattern {
    /// Creates a pattern from three terms.
    pub fn new(s: impl Into<Term>, p: impl Into<Term>, o: impl Into<Term>) -> Self {
        TriplePattern {
            s: s.into(),
            p: p.into(),
            o: o.into(),
        }
    }

    /// The constant components `(s?, p?, o?)` — `None` where a variable sits.
    /// This is what the storage layer turns into a
    /// `PatternKey`.
    pub fn const_parts(&self) -> (Option<TermId>, Option<TermId>, Option<TermId>) {
        (self.s.as_const(), self.p.as_const(), self.o.as_const())
    }

    /// Iterates the distinct variables of this pattern in s,p,o order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        let mut seen = [None::<Var>; 3];
        let mut n = 0;
        for t in [self.s, self.p, self.o] {
            if let Term::Var(v) = t {
                if !seen[..n].contains(&Some(v)) {
                    seen[n] = Some(v);
                    n += 1;
                }
            }
        }
        seen.into_iter().flatten()
    }

    /// `true` if `v` occurs anywhere in the pattern.
    pub fn mentions(&self, v: Var) -> bool {
        [self.s, self.p, self.o]
            .into_iter()
            .any(|t| t.as_var() == Some(v))
    }

    /// `true` if the two patterns share at least one variable.
    pub fn shares_var(&self, other: &TriplePattern) -> bool {
        self.vars().any(|v| other.mentions(v))
    }

    /// The variable-equality shape (see [`PatternShape`]).
    pub fn shape(&self) -> PatternShape {
        match (self.s.as_var(), self.p.as_var(), self.o.as_var()) {
            (Some(a), Some(b), Some(c)) if a == b && b == c => PatternShape::AllEqual,
            (Some(a), Some(b), _) if a == b => PatternShape::SpEqual,
            (Some(a), _, Some(c)) if a == c => PatternShape::SoEqual,
            (_, Some(b), Some(c)) if b == c => PatternShape::PoEqual,
            _ => PatternShape::Distinct,
        }
    }

    /// A variable-name-independent identity for statistics lookup:
    /// constants plus the equality shape. Two patterns with equal keys have
    /// identical match sets in any graph.
    pub fn stats_key(&self) -> StatsKey {
        let (s, p, o) = self.const_parts();
        StatsKey {
            s,
            p,
            o,
            shape: self.shape(),
        }
    }
}

/// Canonical identity of a pattern for the statistics catalog: the constant
/// components and the variable-equality shape. Variable *names* are erased.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StatsKey {
    /// Constant subject, if bound.
    pub s: Option<TermId>,
    /// Constant predicate, if bound.
    pub p: Option<TermId>,
    /// Constant object, if bound.
    pub o: Option<TermId>,
    /// Variable-equality shape.
    pub shape: PatternShape,
}

/// One pattern's slot in a [`canonical_form`]: the constant components plus
/// the canonical numbers of its variable positions (`u16::MAX` = constant
/// slot). `u16` leaves room for 65 535 distinct variables per list — far
/// beyond any realizable pattern list (each pattern introduces ≤ 3).
pub type CanonicalSlot = (Option<TermId>, Option<TermId>, Option<TermId>, [u16; 3]);

/// The variable-name-insensitive form of a pattern list: constants kept and
/// variables renumbered in first-seen order across the whole list. Two
/// lists that differ only in variable names have equal forms; any
/// difference in constants, join structure or pattern order gives
/// different forms.
pub fn canonical_form(patterns: &[TriplePattern]) -> Vec<CanonicalSlot> {
    let mut var_map: FxHashMap<Var, u16> = FxHashMap::default();
    let mut slots = Vec::with_capacity(patterns.len());
    for p in patterns {
        let mut slot = [u16::MAX; 3];
        for (i, t) in [p.s, p.p, p.o].into_iter().enumerate() {
            if let Term::Var(v) = t {
                let next = var_map.len();
                assert!(
                    next < usize::from(u16::MAX),
                    "pattern list exceeds {} distinct variables",
                    u16::MAX
                );
                slot[i] = *var_map.entry(v).or_insert(next as u16);
            }
        }
        let (s, pp, o) = p.const_parts();
        slots.push((s, pp, o, slot));
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }
    fn c(i: u32) -> Term {
        Term::Const(TermId(i))
    }

    #[test]
    fn const_parts_extracts_bound_positions() {
        let p = TriplePattern::new(v(0), c(1), c(2));
        assert_eq!(p.const_parts(), (None, Some(TermId(1)), Some(TermId(2))));
    }

    #[test]
    fn vars_dedup_and_order() {
        let p = TriplePattern::new(v(1), v(0), v(1));
        let vars: Vec<_> = p.vars().collect();
        assert_eq!(vars, vec![Var(1), Var(0)]);
    }

    #[test]
    fn sharing() {
        let a = TriplePattern::new(v(0), c(1), c(2));
        let b = TriplePattern::new(v(0), c(1), c(3));
        let d = TriplePattern::new(v(5), c(1), c(3));
        assert!(a.shares_var(&b));
        assert!(!a.shares_var(&d));
    }

    #[test]
    fn shapes() {
        assert_eq!(
            TriplePattern::new(v(0), c(1), c(2)).shape(),
            PatternShape::Distinct
        );
        assert_eq!(
            TriplePattern::new(v(0), c(1), v(0)).shape(),
            PatternShape::SoEqual
        );
        assert_eq!(
            TriplePattern::new(v(0), v(0), c(1)).shape(),
            PatternShape::SpEqual
        );
        assert_eq!(
            TriplePattern::new(c(1), v(0), v(0)).shape(),
            PatternShape::PoEqual
        );
        assert_eq!(
            TriplePattern::new(v(0), v(0), v(0)).shape(),
            PatternShape::AllEqual
        );
    }

    #[test]
    fn stats_key_erases_var_names() {
        let a = TriplePattern::new(v(0), c(1), c(2));
        let b = TriplePattern::new(v(9), c(1), c(2));
        assert_eq!(a.stats_key(), b.stats_key());
        let c2 = TriplePattern::new(v(0), c(1), v(0));
        assert_ne!(a.stats_key(), c2.stats_key());
    }
}
