//! Chain relaxations — the paper's future-work extension (§6: "we would
//! like to generate and use more complicated relaxations for the queries
//! like replacing a triple pattern with a chain of triple patterns").
//!
//! A [`ChainRule`] rewrites a pattern `〈S, p, O〉` into a *path*
//!
//! ```text
//! 〈S, p₁, ?f₁〉 . 〈?f₁, p₂, ?f₂〉 . … . 〈?f_{n−1}, p_n, O〉
//! ```
//!
//! with fresh intermediate variables, at weight `w`. Example:
//! `?x <wonAward> ?a` → `?x <nominatedFor> ?m . ?m <awardOf> ?a` with
//! weight 0.6.
//!
//! Chain rules live in the [`RelaxationRegistry`](crate::RelaxationRegistry)
//! next to the term rules ([`add_chain`](crate::RelaxationRegistry::add_chain),
//! [`chain_relaxations_for`](crate::RelaxationRegistry::chain_relaxations_for)).
//! They are *executed* — every executor, the naive oracle included, joins
//! the chain, scales it into the weight range and merges it with the
//! pattern's other sources — but speculative *planning* over chains is left
//! for future work exactly as in the paper: `relaxations_for`,
//! `relaxation_count` and `top_relaxation_for` enumerate term rules only,
//! so PLANGEN's single-relaxation check and the verifier see term rules
//! alone.

use sparql::{TriplePattern, Var};
use specqp_common::TermId;

/// A predicate-to-predicate-chain rewrite rule.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainRule {
    /// The predicate constant the rule applies to.
    pub from_predicate: TermId,
    /// The chain of predicates replacing it (length ≥ 2).
    pub chain: Vec<TermId>,
    /// Score penalty `w ∈ (0, 1]`.
    pub weight: f64,
}

impl ChainRule {
    /// Creates a chain rule.
    ///
    /// # Panics
    /// Panics if the chain is shorter than 2 or the weight is out of range.
    pub fn new(from_predicate: TermId, chain: Vec<TermId>, weight: f64) -> Self {
        assert!(chain.len() >= 2, "a chain rule needs ≥ 2 predicates");
        assert!(
            (0.0..=1.0).contains(&weight),
            "chain weight must be in [0,1], got {weight}"
        );
        ChainRule {
            from_predicate,
            chain,
            weight,
        }
    }
}

/// One applicable chain relaxation of a concrete pattern: the instantiated
/// chain patterns (with fresh variables already allocated) and the weight.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainRelaxation {
    /// The chain, in path order.
    pub patterns: Vec<TriplePattern>,
    /// The rule weight `w`.
    pub weight: f64,
    /// The fresh variables introduced (for projection back to the original
    /// pattern's variables).
    pub fresh_vars: Vec<Var>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RelaxationRegistry;
    use sparql::Term;

    fn pat(s: u32, p: u32, o: u32, s_var: bool, o_var: bool) -> TriplePattern {
        TriplePattern::new(
            if s_var {
                Term::Var(Var(s))
            } else {
                Term::Const(TermId(s))
            },
            TermId(p),
            if o_var {
                Term::Var(Var(o))
            } else {
                Term::Const(TermId(o))
            },
        )
    }

    #[test]
    fn two_hop_instantiation() {
        let mut rs = RelaxationRegistry::new();
        rs.add_chain(ChainRule::new(
            TermId(10),
            vec![TermId(11), TermId(12)],
            0.6,
        ));
        // ?x <10> ?y  →  ?x <11> ?f . ?f <12> ?y
        let p = pat(0, 10, 1, true, true);
        let chains = rs.chain_relaxations_for(&p, 5);
        assert_eq!(chains.len(), 1);
        let c = &chains[0];
        assert_eq!(c.weight, 0.6);
        assert_eq!(c.patterns.len(), 2);
        assert_eq!(c.fresh_vars, vec![Var(5)]);
        assert_eq!(c.patterns[0].s, Term::Var(Var(0)));
        assert_eq!(c.patterns[0].o, Term::Var(Var(5)));
        assert_eq!(c.patterns[1].s, Term::Var(Var(5)));
        assert_eq!(c.patterns[1].o, Term::Var(Var(1)));
    }

    #[test]
    fn three_hop_and_constant_endpoints() {
        let mut rs = RelaxationRegistry::new();
        rs.add_chain(ChainRule::new(
            TermId(10),
            vec![TermId(11), TermId(12), TermId(13)],
            0.4,
        ));
        // ?x <10> <42> with a 3-hop chain keeps the constant object at the end.
        let p = pat(0, 10, 42, true, false);
        let chains = rs.chain_relaxations_for(&p, 9);
        let c = &chains[0];
        assert_eq!(c.patterns.len(), 3);
        assert_eq!(c.fresh_vars, vec![Var(9), Var(10)]);
        assert_eq!(c.patterns[2].o, Term::Const(TermId(42)));
    }

    #[test]
    fn weight_ordering_and_missing_predicate() {
        let mut rs = RelaxationRegistry::new();
        rs.add_chain(ChainRule::new(TermId(10), vec![TermId(1), TermId(2)], 0.3));
        rs.add_chain(ChainRule::new(TermId(10), vec![TermId(3), TermId(4)], 0.7));
        let p = pat(0, 10, 1, true, true);
        let chains = rs.chain_relaxations_for(&p, 5);
        assert_eq!(chains.len(), 2);
        assert!(chains[0].weight > chains[1].weight);
        // Unrelated predicate: nothing.
        assert!(rs
            .chain_relaxations_for(&pat(0, 99, 1, true, true), 5)
            .is_empty());
        assert_eq!(rs.len(), 2, "chain rules count as rules");
    }

    #[test]
    #[should_panic(expected = "≥ 2")]
    fn single_hop_chain_rejected() {
        let _ = ChainRule::new(TermId(1), vec![TermId(2)], 0.5);
    }

    #[test]
    fn variable_predicate_cannot_chain() {
        let mut rs = RelaxationRegistry::new();
        rs.add_chain(ChainRule::new(TermId(10), vec![TermId(1), TermId(2)], 0.3));
        let p = TriplePattern::new(Term::Var(Var(0)), Term::Var(Var(1)), Term::Var(Var(2)));
        assert!(rs.chain_relaxations_for(&p, 5).is_empty());
    }
}
