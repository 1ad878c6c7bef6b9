//! `RelaxationRegistry::relaxations_for` against a reference built from the
//! rules alone: every applicable rewrite, each relaxed pattern once at its
//! highest weight, sorted by weight (descending) and then by pattern. The
//! weights come from a small set and the rewrite targets from a few ids of
//! one and two digits, so weight ties (`t5` against `t12`) and a pattern's
//! duplicates with another relaxation's weight between them both come up.

use proptest::prelude::*;
use relax::{Position, Relaxation, RelaxationRegistry, TermRule};
use sparql::{Term, TriplePattern, Var};
use specqp_common::TermId;
use std::collections::BTreeMap;

const IDS: [u32; 6] = [1, 2, 5, 9, 12, 40];
const WEIGHTS: [f64; 4] = [0.2, 0.5, 0.5, 0.8];

/// A constant from `IDS`, or (one time in four) a variable.
fn term(pick: u8) -> Term {
    if pick % 4 == 3 {
        Term::Var(Var(u32::from(pick / 4 % 3)))
    } else {
        Term::Const(TermId(IDS[usize::from(pick / 4) % IDS.len()]))
    }
}

fn rewrite(pattern: TriplePattern, position: Position, to: TermId) -> TriplePattern {
    let mut relaxed = pattern;
    match position {
        Position::Subject => relaxed.s = Term::Const(to),
        Position::Predicate => relaxed.p = Term::Const(to),
        Position::Object => relaxed.o = Term::Const(to),
    }
    relaxed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn relaxations_are_each_applicable_rewrite_once_by_weight_then_pattern(
        slots in (any::<u8>(), any::<u8>(), any::<u8>()),
        rules in prop::collection::vec((0u8..3, 0usize..6, 0usize..4, 0u8..4), 1..24),
    ) {
        let pattern = TriplePattern::new(term(slots.0), term(slots.1), term(slots.2));
        let mut registry = RelaxationRegistry::new();
        let mut best: BTreeMap<TriplePattern, f64> = BTreeMap::new();
        for (at, to, weight, context) in rules {
            let (position, from) = match at {
                0 => (Position::Subject, pattern.s),
                1 => (Position::Predicate, pattern.p),
                _ => (Position::Object, pattern.o),
            };
            let Term::Const(from) = from else { continue };
            let (to, weight) = (TermId(IDS[to]), WEIGHTS[weight]);
            // One rule in four carries a predicate context, which holds only
            // when it names the pattern's predicate (or the rule rewrites it).
            let (rule, applies) = if context == 0 {
                let ctx = TermId(IDS[usize::from(slots.1) % 2]);
                let applies =
                    position == Position::Predicate || pattern.p == Term::Const(ctx);
                (TermRule::with_context(position, from, to, weight, ctx), applies)
            } else {
                (TermRule::new(position, from, to, weight), true)
            };
            registry.add(rule);
            if applies && to != from {
                let w = best.entry(rewrite(pattern, position, to)).or_insert(weight);
                *w = w.max(weight);
            }
        }
        let mut expected: Vec<Relaxation> = best
            .into_iter()
            .map(|(pattern, weight)| Relaxation { pattern, weight })
            .collect();
        expected.sort_by(|a, b| b.weight.partial_cmp(&a.weight).unwrap());
        prop_assert_eq!(registry.relaxations_for(&pattern), expected);
    }
}
