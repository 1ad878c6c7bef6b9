//! `RelaxationRegistry::relaxations_for` breaks weight ties by the
//! relaxed patterns' `Debug` text. It compares without formatting; this
//! pins that order to the formatted one on generated patterns whose rules
//! mostly share a weight, with term and variable ids of one to six digits
//! so that `t12` against `t5` and `Const` against `Var` both come up.

use proptest::prelude::*;
use relax::{Position, Relaxation, RelaxationRegistry, TermRule};
use sparql::{Term, TriplePattern, Var};
use specqp_common::TermId;

/// An id whose digit count varies with `pick`.
fn id(pick: u8, raw: u32) -> u32 {
    match pick % 4 {
        0 => raw % 13,
        1 => 90 + raw % 20,
        2 => 995 + raw % 10,
        _ => 99_990 + raw % 20,
    }
}

/// A constant, or (one time in four) a variable.
fn term((pick, raw): (u8, u32)) -> Term {
    if pick % 4 == 3 {
        Term::Var(Var(id(pick / 4, raw)))
    } else {
        Term::Const(TermId(id(pick / 4, raw)))
    }
}

/// The order `relaxations_for` has always produced: weight descending, then
/// the relaxed pattern's `Debug` text; equal patterns next to each other
/// collapse into the first.
fn formatted_order(mut relaxations: Vec<Relaxation>) -> Vec<Relaxation> {
    relaxations.sort_by(|a, b| {
        b.weight
            .partial_cmp(&a.weight)
            .unwrap()
            .then_with(|| format!("{:?}", a.pattern).cmp(&format!("{:?}", b.pattern)))
    });
    relaxations.dedup_by(|a, b| a.pattern == b.pattern);
    relaxations
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tied_weights_sort_as_the_debug_text_does(
        slots in ((any::<u8>(), any::<u32>()), (any::<u8>(), any::<u32>()), (any::<u8>(), any::<u32>())),
        rules in prop::collection::vec((0u8..3, any::<u8>(), any::<u32>(), 0u8..4), 1..24),
    ) {
        let pattern = TriplePattern::new(term(slots.0), term(slots.1), term(slots.2));
        let mut registry = RelaxationRegistry::new();
        let mut expected = Vec::new();
        for (at, pick, raw, weight) in rules {
            let (position, from) = match at {
                0 => (Position::Subject, pattern.s),
                1 => (Position::Predicate, pattern.p),
                _ => (Position::Object, pattern.o),
            };
            let Term::Const(from) = from else { continue };
            let to = TermId(id(pick, raw));
            let weight = [0.5, 0.5, 0.5, 0.8][usize::from(weight)];
            registry.add(TermRule::new(position, from, to, weight));
            if to != from {
                let mut relaxed = pattern;
                match position {
                    Position::Subject => relaxed.s = Term::Const(to),
                    Position::Predicate => relaxed.p = Term::Const(to),
                    Position::Object => relaxed.o = Term::Const(to),
                }
                expected.push(Relaxation { pattern: relaxed, weight });
            }
        }
        prop_assert_eq!(registry.relaxations_for(&pattern), formatted_order(expected));
    }
}
