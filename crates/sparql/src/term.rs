//! Terms of a triple pattern: constants and variables.

use specqp_common::TermId;
use std::fmt;

/// A query variable, identified by its index within the owning [`Query`]'s
/// variable table (`?s` in surface syntax).
///
/// [`Query`]: crate::Query
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// Index into the query's variable-name table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?v{}", self.0)
    }
}

/// One component of a triple pattern: either a dictionary constant or a
/// variable (Def. 2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Term {
    /// A constant (entity / predicate / literal) from the KG dictionary.
    Const(TermId),
    /// A variable to be bound by matching.
    Var(Var),
}

impl Term {
    /// The constant id, if this term is a constant.
    #[inline]
    pub fn as_const(self) -> Option<TermId> {
        match self {
            Term::Const(id) => Some(id),
            Term::Var(_) => None,
        }
    }

    /// The variable, if this term is a variable.
    #[inline]
    pub fn as_var(self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// `true` for variables.
    #[inline]
    pub fn is_var(self) -> bool {
        matches!(self, Term::Var(_))
    }
}

impl From<TermId> for Term {
    fn from(id: TermId) -> Self {
        Term::Const(id)
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let c = Term::Const(TermId(3));
        let v = Term::Var(Var(0));
        assert_eq!(c.as_const(), Some(TermId(3)));
        assert_eq!(c.as_var(), None);
        assert_eq!(v.as_var(), Some(Var(0)));
        assert_eq!(v.as_const(), None);
        assert!(v.is_var());
        assert!(!c.is_var());
    }

    #[test]
    fn conversions() {
        assert_eq!(Term::from(TermId(1)), Term::Const(TermId(1)));
        assert_eq!(Term::from(Var(2)), Term::Var(Var(2)));
    }
}
