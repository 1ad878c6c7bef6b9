//! The relaxation registry: rule storage and per-pattern enumeration.

use crate::rule::{Position, TermRule};
use sparql::{Term, TriplePattern};
use specqp_common::{FxHashMap, TermId};

/// One applicable relaxation of a concrete triple pattern: the relaxed
/// pattern (Def. 8: `Q′ = (Q \ q) ∪ q′`) and the rule weight.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Relaxation {
    /// The rewritten pattern `q′` (same variables as `q`).
    pub pattern: TriplePattern,
    /// The score penalty `w`.
    pub weight: f64,
}

/// Stores mined [`TermRule`]s indexed by `(position, source term)` and
/// enumerates the relaxations applicable to a pattern, best-weight first.
#[derive(Default, Debug, Clone)]
pub struct RelaxationRegistry {
    rules: FxHashMap<(Position, TermId), Vec<TermRule>>,
    len: usize,
}

impl RelaxationRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one rule. Rules for the same `(position, from)` key are kept
    /// sorted by descending weight (ties: insertion order).
    pub fn add(&mut self, rule: TermRule) {
        let list = self.rules.entry((rule.position, rule.from)).or_default();
        let at = list
            .iter()
            .position(|r| r.weight < rule.weight)
            .unwrap_or(list.len());
        list.insert(at, rule);
        self.len += 1;
    }

    /// Adds many rules.
    pub fn extend(&mut self, rules: impl IntoIterator<Item = TermRule>) {
        for r in rules {
            self.add(r);
        }
    }

    /// Total number of rules.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no rules are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All relaxations applicable to `pattern`, sorted by descending weight
    /// and then by relaxed pattern. Each relaxation rewrites exactly one
    /// constant position, and each relaxed pattern appears once, at the
    /// highest weight of the rules that produce it. Rules whose predicate
    /// context does not match the pattern are skipped, as are rewrites that
    /// would leave the pattern unchanged.
    pub fn relaxations_for(&self, pattern: &TriplePattern) -> Vec<Relaxation> {
        let mut out: Vec<Relaxation> = Vec::new();
        let pred_const = pattern.p.as_const();

        let mut collect = |pos: Position, term: Option<TermId>| {
            let Some(from) = term else { return };
            let Some(rules) = self.rules.get(&(pos, from)) else {
                return;
            };
            let applies = |r: &TermRule| {
                r.to != from
                    && r.predicate_context
                        .is_none_or(|ctx| pos == Position::Predicate || pred_const == Some(ctx))
            };
            for (i, r) in rules.iter().enumerate() {
                // A list runs by descending weight, so the first applicable
                // rule to a target carries that relaxed pattern's weight.
                if !applies(r) || rules[..i].iter().any(|e| e.to == r.to && applies(e)) {
                    continue;
                }
                let mut p2 = *pattern;
                match pos {
                    Position::Subject => p2.s = Term::Const(r.to),
                    Position::Predicate => p2.p = Term::Const(r.to),
                    Position::Object => p2.o = Term::Const(r.to),
                }
                out.push(Relaxation {
                    pattern: p2,
                    weight: r.weight,
                });
            }
        };
        collect(Position::Subject, pattern.s.as_const());
        collect(Position::Predicate, pattern.p.as_const());
        collect(Position::Object, pattern.o.as_const());

        out.sort_by(|a, b| {
            b.weight
                .total_cmp(&a.weight)
                .then(a.pattern.cmp(&b.pattern))
        });
        out
    }

    /// The top-weighted relaxation of `pattern` — all PLANGEN needs (§3.2.1:
    /// "we need to check only the top-weighted relaxation for each triple
    /// pattern").
    pub fn top_relaxation_for(&self, pattern: &TriplePattern) -> Option<Relaxation> {
        self.relaxations_for(pattern).into_iter().next()
    }

    /// Number of relaxations applicable to `pattern` (workload validation:
    /// the paper requires ≥10 per XKG pattern, ≥5 per Twitter pattern).
    pub fn relaxation_count(&self, pattern: &TriplePattern) -> usize {
        self.relaxations_for(pattern).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparql::Var;

    fn pat(p: u32, o: u32) -> TriplePattern {
        TriplePattern::new(Var(0), TermId(p), TermId(o))
    }

    #[test]
    fn relaxations_sorted_by_weight() {
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::new(Position::Object, TermId(10), TermId(11), 0.5));
        reg.add(TermRule::new(Position::Object, TermId(10), TermId(12), 0.9));
        reg.add(TermRule::new(Position::Object, TermId(10), TermId(13), 0.7));
        let rs = reg.relaxations_for(&pat(1, 10));
        let weights: Vec<f64> = rs.iter().map(|r| r.weight).collect();
        assert_eq!(weights, vec![0.9, 0.7, 0.5]);
        assert_eq!(
            reg.top_relaxation_for(&pat(1, 10)).unwrap().pattern.o,
            Term::Const(TermId(12))
        );
    }

    #[test]
    fn predicate_context_filters() {
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::with_context(
            Position::Object,
            TermId(10),
            TermId(11),
            0.8,
            TermId(1),
        ));
        // Fires on predicate 1, not on predicate 2.
        assert_eq!(reg.relaxation_count(&pat(1, 10)), 1);
        assert_eq!(reg.relaxation_count(&pat(2, 10)), 0);
    }

    #[test]
    fn predicate_rules_rewrite_predicate() {
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::new(
            Position::Predicate,
            TermId(1),
            TermId(2),
            0.6,
        ));
        let rs = reg.relaxations_for(&pat(1, 10));
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].pattern.p, Term::Const(TermId(2)));
        assert_eq!(rs[0].pattern.o, Term::Const(TermId(10)));
    }

    #[test]
    fn multiple_positions_combine() {
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::new(Position::Object, TermId(10), TermId(11), 0.9));
        reg.add(TermRule::new(
            Position::Predicate,
            TermId(1),
            TermId(2),
            0.7,
        ));
        let rs = reg.relaxations_for(&pat(1, 10));
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].weight, 0.9);
        assert_eq!(rs[1].weight, 0.7);
    }

    #[test]
    fn variables_do_not_relax() {
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::new(Position::Subject, TermId(0), TermId(5), 0.9));
        // Subject is a variable — subject rules cannot fire.
        assert_eq!(reg.relaxation_count(&pat(1, 10)), 0);
    }

    #[test]
    fn self_rewrite_skipped() {
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::new(Position::Object, TermId(10), TermId(10), 0.9));
        assert_eq!(reg.relaxation_count(&pat(1, 10)), 0);
    }

    #[test]
    fn no_rules_no_relaxations() {
        let reg = RelaxationRegistry::new();
        assert!(reg.top_relaxation_for(&pat(1, 10)).is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn duplicate_targets_deduped() {
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::new(Position::Object, TermId(10), TermId(11), 0.9));
        reg.add(TermRule::new(Position::Object, TermId(10), TermId(11), 0.4));
        let rs = reg.relaxations_for(&pat(1, 10));
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].weight, 0.9, "max-weight duplicate wins");
    }

    /// A relaxation whose weight falls between a pattern's two rule weights
    /// does not split that pattern's duplicates apart.
    #[test]
    fn interleaved_duplicates_deduped() {
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::new(Position::Object, TermId(10), TermId(11), 0.9));
        reg.add(TermRule::new(Position::Object, TermId(10), TermId(12), 0.5));
        reg.add(TermRule::new(Position::Object, TermId(10), TermId(11), 0.4));
        let rs: Vec<_> = reg
            .relaxations_for(&pat(1, 10))
            .iter()
            .map(|r| (r.pattern, r.weight))
            .collect();
        assert_eq!(rs, vec![(pat(1, 11), 0.9), (pat(1, 12), 0.5)]);
        assert_eq!(reg.relaxation_count(&pat(1, 10)), 2);
    }

    #[test]
    fn weight_ties_in_pattern_order() {
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::new(Position::Object, TermId(10), TermId(12), 0.5));
        reg.add(TermRule::new(Position::Object, TermId(10), TermId(5), 0.5));
        let objects: Vec<Term> = reg
            .relaxations_for(&pat(1, 10))
            .iter()
            .map(|r| r.pattern.o)
            .collect();
        assert_eq!(
            objects,
            vec![Term::Const(TermId(5)), Term::Const(TermId(12))]
        );
    }
}
