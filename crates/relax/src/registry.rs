//! The relaxation registry: rule storage and per-pattern enumeration.

use crate::rule::{Position, TermRule};
use sparql::{Term, TriplePattern};
use specqp_common::{FxHashMap, TermId};
use std::cmp::Ordering;

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

    /// All relaxations applicable to `pattern`, sorted by descending weight.
    /// Each relaxation rewrites exactly one constant position. Rules whose
    /// predicate context does not match the pattern are skipped, as are
    /// rewrites that would leave the pattern unchanged.
    pub fn relaxations_for(&self, pattern: &TriplePattern) -> Vec<Relaxation> {
        let mut out: Vec<Relaxation> = Vec::new();
        let pred_const = pattern.p.as_const();

        let mut collect = |pos: Position, term: Option<TermId>| {
            let Some(from) = term else { return };
            let Some(rules) = self.rules.get(&(pos, from)) else {
                return;
            };
            for r in rules {
                if let Some(ctx) = r.predicate_context {
                    if pos != Position::Predicate && pred_const != Some(ctx) {
                        continue;
                    }
                }
                if r.to == from {
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
                .partial_cmp(&a.weight)
                .expect("finite weights")
                .then_with(|| debug_text_order(&a.pattern, &b.pattern))
        });
        out.dedup_by(|a, b| a.pattern == b.pattern);
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

/// Orders patterns as their `Debug` texts sort, without formatting them:
/// position by position (s, p, o), a constant before a variable, and the
/// ids of two constants or two variables by their decimal digits, so
/// `TermId(12)` sorts before `TermId(5)`. Each term's text (`Const(t12)`,
/// `Var(?v3)`) ends at its only `)`, which sorts before every digit, so
/// comparing the terms one by one is comparing the whole texts.
fn debug_text_order(a: &TriplePattern, b: &TriplePattern) -> Ordering {
    let term = |t: Term| match t {
        Term::Const(id) => (0, id.0),
        Term::Var(v) => (1, v.0),
    };
    [(a.s, b.s), (a.p, b.p), (a.o, b.o)]
        .into_iter()
        .map(|(x, y)| {
            let ((kind_x, x), (kind_y, y)) = (term(x), term(y));
            kind_x.cmp(&kind_y).then_with(|| decimal_order(x, y))
        })
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Orders two numbers as their decimal digit strings sort.
fn decimal_order(a: u32, b: u32) -> Ordering {
    fn digits(mut n: u32, buf: &mut [u8; 10]) -> &[u8] {
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                return &buf[at..];
            }
        }
    }
    let (mut x, mut y) = ([0; 10], [0; 10]);
    digits(a, &mut x).cmp(digits(b, &mut y))
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

    /// Every pattern over a few constants and variables of one to ten
    /// digits orders against every other as the `Debug` texts do.
    #[test]
    fn debug_text_order_matches_the_formatted_order() {
        let consts = [0, 5, 12, 99_999, u32::MAX].map(|id| Term::Const(TermId(id)));
        let vars = [0, 7, 10, 123].map(|v| Term::Var(Var(v)));
        let terms: Vec<Term> = consts.into_iter().chain(vars).collect();
        let mut patterns = Vec::new();
        for &s in &terms {
            for &p in &terms {
                for &o in &terms {
                    let pattern = TriplePattern { s, p, o };
                    patterns.push((pattern, format!("{pattern:?}")));
                }
            }
        }
        for (a, a_text) in &patterns {
            for (b, b_text) in &patterns {
                assert_eq!(
                    debug_text_order(a, b),
                    a_text.cmp(b_text),
                    "{a_text} vs {b_text}"
                );
            }
        }
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
}
