//! Bindings and partial answers.

use sparql::Var;
use specqp_common::{Score, TermId};
use std::fmt;

/// A variable→term mapping, kept sorted by variable for cheap equality,
/// hashing and merging. This is the paper's *answer* (Def. 4) or a partial
/// answer while the join tree is still being evaluated.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Binding {
    pairs: Vec<(Var, TermId)>,
}

impl Binding {
    /// The empty binding.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a binding from pairs (sorted + deduplicated; duplicate
    /// variables must agree).
    ///
    /// # Panics
    /// Panics if the same variable is bound to two different terms.
    pub fn from_pairs(mut pairs: Vec<(Var, TermId)>) -> Self {
        pairs.sort_unstable_by_key(|&(v, _)| v);
        pairs.dedup();
        for w in pairs.windows(2) {
            assert!(
                w[0].0 != w[1].0,
                "conflicting binding for {:?}: {:?} vs {:?}",
                w[0].0,
                w[0].1,
                w[1].1
            );
        }
        Binding { pairs }
    }

    /// Value bound to `v`, if any.
    pub fn get(&self, v: Var) -> Option<TermId> {
        self.pairs
            .binary_search_by_key(&v, |&(v, _)| v)
            .ok()
            .map(|i| self.pairs[i].1)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` if no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates `(var, term)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, TermId)> + '_ {
        self.pairs.iter().copied()
    }

    /// `true` if both bindings assign identical values to every variable
    /// they share.
    pub fn compatible(&self, other: &Binding) -> bool {
        // Merge-walk the two sorted pair lists.
        let (mut i, mut j) = (0, 0);
        while i < self.pairs.len() && j < other.pairs.len() {
            match self.pairs[i].0.cmp(&other.pairs[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if self.pairs[i].1 != other.pairs[j].1 {
                        return false;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        true
    }

    /// Merges two compatible bindings (sorted-merge of the pair lists).
    ///
    /// # Panics
    /// Panics in debug builds if the bindings are incompatible.
    pub fn merged(&self, other: &Binding) -> Binding {
        debug_assert!(self.compatible(other), "merging incompatible bindings");
        let mut pairs = Vec::with_capacity(self.pairs.len() + other.pairs.len());
        let (mut i, mut j) = (0, 0);
        while i < self.pairs.len() && j < other.pairs.len() {
            match self.pairs[i].0.cmp(&other.pairs[j].0) {
                std::cmp::Ordering::Less => {
                    pairs.push(self.pairs[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    pairs.push(other.pairs[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    pairs.push(self.pairs[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        pairs.extend_from_slice(&self.pairs[i..]);
        pairs.extend_from_slice(&other.pairs[j..]);
        Binding { pairs }
    }

    /// Extracts the join key for `vars`: the bound terms in the given
    /// variable order. Returns `None` if any variable is unbound.
    pub fn key_for(&self, vars: &[Var]) -> Option<Box<[TermId]>> {
        let mut key = Vec::with_capacity(vars.len());
        for &v in vars {
            key.push(self.get(v)?);
        }
        Some(key.into_boxed_slice())
    }
}

impl fmt::Debug for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, t)) in self.pairs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:?}={t}")?;
        }
        write!(f, "}}")
    }
}

/// A binding with its (partial) score — the unit flowing through the
/// operator tree. Scores are sums of per-pattern normalized, weighted
/// triple scores (Defs. 5, 6, 8).
#[derive(Clone, PartialEq, Debug)]
pub struct PartialAnswer {
    /// The variable assignment.
    pub binding: Binding,
    /// The accumulated score.
    pub score: Score,
}

impl PartialAnswer {
    /// Creates a partial answer.
    pub fn new(binding: Binding, score: Score) -> Self {
        PartialAnswer { binding, score }
    }
}

impl Eq for PartialAnswer {}

impl Ord for PartialAnswer {
    /// Orders by score, breaking ties by binding so heap contents are
    /// deterministic across runs.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .cmp(&other.score)
            .then_with(|| other.binding.pairs.cmp(&self.binding.pairs))
    }
}

impl PartialOrd for PartialAnswer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(pairs: &[(u32, u32)]) -> Binding {
        Binding::from_pairs(pairs.iter().map(|&(v, t)| (Var(v), TermId(t))).collect())
    }

    #[test]
    fn from_pairs_sorts_and_dedups() {
        let x = Binding::from_pairs(vec![
            (Var(2), TermId(20)),
            (Var(0), TermId(10)),
            (Var(2), TermId(20)),
        ]);
        assert_eq!(x.len(), 2);
        assert_eq!(x.get(Var(0)), Some(TermId(10)));
        assert_eq!(x.get(Var(2)), Some(TermId(20)));
        assert_eq!(x.get(Var(1)), None);
    }

    #[test]
    #[should_panic(expected = "conflicting binding")]
    fn conflicting_pairs_panic() {
        let _ = Binding::from_pairs(vec![(Var(0), TermId(1)), (Var(0), TermId(2))]);
    }

    #[test]
    fn compatibility() {
        let x = b(&[(0, 1), (1, 5)]);
        let y = b(&[(1, 5), (2, 9)]);
        let z = b(&[(1, 6)]);
        assert!(x.compatible(&y));
        assert!(!x.compatible(&z));
        assert!(x.compatible(&Binding::new()));
    }

    #[test]
    fn merge_unions_pairs() {
        let x = b(&[(0, 1), (1, 5)]);
        let y = b(&[(1, 5), (2, 9)]);
        let m = x.merged(&y);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(Var(2)), Some(TermId(9)));
    }

    #[test]
    fn key_extraction() {
        let x = b(&[(0, 1), (1, 5)]);
        assert_eq!(
            x.key_for(&[Var(1), Var(0)]).unwrap().as_ref(),
            &[TermId(5), TermId(1)]
        );
        assert!(x.key_for(&[Var(3)]).is_none());
    }

    #[test]
    fn answer_ordering_is_total_and_deterministic() {
        let a1 = PartialAnswer::new(b(&[(0, 1)]), Score::new(0.5));
        let a2 = PartialAnswer::new(b(&[(0, 2)]), Score::new(0.5));
        let a3 = PartialAnswer::new(b(&[(0, 1)]), Score::new(0.9));
        assert!(a3 > a1);
        // Equal scores: smaller binding ranks higher (deterministic).
        assert!(a1 > a2);
        let mut v = vec![a2.clone(), a3.clone(), a1.clone()];
        v.sort();
        assert_eq!(v, vec![a2, a1, a3]);
    }
}
