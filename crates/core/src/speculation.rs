//! The speculation lifecycle: mis-speculation detection and delta recovery.
//!
//! PLANGEN's bet is that pruned relaxations cannot reach the top-k. This
//! module closes the loop on that bet at runtime:
//!
//! ```text
//!           ┌────────┐    ┌─────────┐    ┌────────┐ clean ┌─────────┐
//!  query ──▶│  plan  │───▶│ execute │───▶│ verify │──────▶│ answers │
//!           └────────┘    └─────────┘    └────────┘       └─────────┘
//!                ▲                        ▲   │ mis-speculated
//!                │            top-k ∪ Δ   │   ▼
//!                │          ┌─────────────┴───────┐  stage 1‥N−1: the top
//!                │          │ escalate: delta run │  suspect; stage N: every
//!                │          │ above the k-th score│  remaining candidate,
//!                │          └──────────┬──────────┘  one delta each
//!                │                     │ one verdict per escalation:
//!                │                     ▼ top-k changed = offense
//!                └─ offender bias ◀─ feedback ledger (StatsCatalog)
//! ```
//!
//! * **Verify** ([`verify`]): after the speculative plan drains, the verdict
//!   replays PLANGEN's pruning inequality against *observed* scores — the
//!   run is mis-speculated when the top-k is under-filled
//!   (`answers.len() < k`) while pruned patterns still hold unprocessed
//!   relaxations, or when the observed k-th score falls below some pruned
//!   pattern's predicted relaxed-best score.
//! * **Recover**: the engine escalates suspects one stage at a time
//!   ([`QueryPlan::escalated`]) — and keeps what it has. Escalating pattern
//!   `i` can only add answers that use a *relaxed-only* row of `i`, so the
//!   escalated plan's top-k is the top-k of the answers in hand united with
//!   the top-k of the *delta plan* (the escalated plan with `i`'s merge
//!   built without its original scan, [`QueryPlan::delta`]), deduplicated
//!   by binding keeping the higher score ([`union_top_k`]). Nothing below
//!   the k-th score in hand can enter that union, so the delta plan carries
//!   it as a *score floor* and its run stops as soon as its bounds drop
//!   under it; an under-filled run has no floor. A delta plan runs through
//!   the same runner as every other plan. The final permitted stage
//!   escalates every remaining candidate, one delta each. Nothing is
//!   executed twice; every stage is counted (`RunReport::fallback_stages`),
//!   and so is every answer object a delta created to no effect
//!   (`RunReport::wasted_answers`), so the price of a wrong guess is
//!   measured, not hidden.
//! * **Learn**: each escalation feeds the per-pattern-shape ledger in
//!   [`specqp_stats::StatsCatalog`] — as an offense when it changed the
//!   top-k, as clean when it changed nothing. A run that verifies clean
//!   escalates nothing and teaches nothing. The engine relaxes the pruned
//!   patterns the ledger holds as repeat offenders in every plan it serves,
//!   cached or fresh; PLANGEN and the plan cache never read the ledger.
//!
//! The policy is selected per engine through
//! [`EngineConfig::speculation`](crate::EngineConfig::speculation).

use crate::plan::QueryPlan;
use operators::PartialAnswer;
use relax::RelaxationRegistry;
use sparql::Query;
use specqp_common::Score;

/// How the engine treats speculative runs (default: [`SpeculationPolicy::Off`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpeculationPolicy {
    /// Execute the speculative plan once and return whatever it produced —
    /// the pre-lifecycle behaviour, and the default.
    #[default]
    Off,
    /// Verify, and on a mis-speculation escalate the flagged patterns and
    /// recover by delta, up to `max_stages` times. Stages `1‥max_stages−1`
    /// each relax the top remaining suspect; the final permitted stage
    /// relaxes every remaining candidate, which makes the answers TriniT's
    /// whenever detection fires.
    Fallback {
        /// Maximum recovery stages per query (≥ 1).
        max_stages: usize,
    },
}

/// The verifier's classification of one speculative execution.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// `true` when the run is classified as mis-speculated (some suspect
    /// exists that escalation could plausibly fix).
    pub mis_speculated: bool,
    /// Pruned patterns whose relaxations are suspected of holding missing
    /// top-k answers, strongest suspicion first. Always a subset of
    /// [`Verdict::candidates`].
    pub suspects: Vec<usize>,
    /// Every escalation candidate: patterns the plan pruned that do have
    /// registered relaxations. Empty for all-relaxed plans — such runs are
    /// never mis-speculated because there is nothing left to escalate.
    pub candidates: Vec<usize>,
}

impl Verdict {
    /// A clean verdict (nothing suspected, nothing to escalate).
    pub fn clean() -> Self {
        Verdict {
            mis_speculated: false,
            suspects: Vec::new(),
            candidates: Vec::new(),
        }
    }
}

/// Escalation candidates of `plan`: pattern indices that were pruned (not
/// relaxed) but have registered relaxations, ascending.
pub fn escalation_candidates(
    query: &Query,
    plan: &QueryPlan,
    registry: &RelaxationRegistry,
) -> Vec<usize> {
    query
        .patterns()
        .iter()
        .enumerate()
        .filter(|(i, p)| !plan.is_relaxed(*i) && registry.relaxation_count(p) > 0)
        .map(|(i, _)| i)
        .collect()
}

/// Folds a delta run into the answers in hand: `answers` becomes the top-`k`
/// of `answers ∪ delta` under the canonical order (score desc, binding asc),
/// a binding found on both sides keeping its higher score. Returns whether
/// the top-`k` changed; answers that stay keep their score bits, so
/// "unchanged" is exact.
///
/// With `answers` the top-`k` of a plan and `delta` the top-`k` of its delta
/// plan for pattern `i` this is the escalated plan's top-`k`: per binding the
/// escalated merge of `i` scores `max(original, relaxed)`, the two sides
/// hold one operand each, and an answer among the escalated best `k` is
/// among the best `k` of whichever side gives it that score — every answer
/// outranking it on that side outranks it in the escalated plan too.
pub fn union_top_k(answers: &mut Vec<PartialAnswer>, delta: Vec<PartialAnswer>, k: usize) -> bool {
    if delta.is_empty() {
        return false;
    }
    let before = answers.clone();
    for d in delta {
        match answers.iter_mut().find(|a| a.binding == d.binding) {
            Some(a) => a.score = a.score.max(d.score),
            None => answers.push(d),
        }
    }
    answers.sort_by(|a, b| b.cmp(a));
    answers.truncate(k);
    *answers != before
}

/// Inspects the outcome of executing `plan` and classifies the run.
///
/// `answers` must be the plan's top-`k` result, best first (what the
/// executors return). Two signals flag a mis-speculation, both gated on the
/// existence of escalation candidates:
///
/// * **under-filled** — fewer than `k` answers came back, so any pruned
///   relaxation might contribute; every candidate becomes a suspect;
/// * **predicted beater** — `k` answers came back but some pruned pattern's
///   predicted relaxed-best score
///   ([`QueryPlan::predicted_relaxed_best`]) beats the observed k-th score.
///   PLANGEN pruned that pattern because `E'(1) ≤ E_Q(k)`-estimate; the
///   observed k-th score replacing the estimate falsifies the inequality,
///   so the pattern becomes a suspect.
///
/// Suspects are ranked by predicted relaxed-best score (falling back to the
/// pattern's top relaxation weight for hand-built plans), descending, ties
/// by index.
///
/// ```
/// use relax::{Position, RelaxationRegistry, TermRule};
/// use specqp::{speculation::verify, QueryPlan};
/// use sparql::QueryBuilder;
/// use specqp_common::TermId;
///
/// let (ty, singer, lyricist, vocalist) = (TermId(0), TermId(1), TermId(2), TermId(3));
/// let mut b = QueryBuilder::new();
/// let s = b.var("s");
/// b.pattern(s, ty, singer);
/// b.pattern(s, ty, lyricist);
/// let query = b.build().unwrap();
/// let mut registry = RelaxationRegistry::new();
/// registry.add(TermRule::with_context(Position::Object, singer, vocalist, 0.8, ty));
///
/// // A bare plan that returned nothing for k = 5: under-filled, and the
/// // singer pattern (the only one with a relaxation) is the suspect.
/// let verdict = verify(&query, &QueryPlan::none_relaxed(2), &registry, &[], 5);
/// assert!(verdict.mis_speculated);
/// assert_eq!(verdict.suspects, vec![0]);
///
/// // The all-relaxed plan has nothing left to escalate: always clean.
/// let verdict = verify(&query, &QueryPlan::all_relaxed(2), &registry, &[], 5);
/// assert!(!verdict.mis_speculated);
/// ```
pub fn verify(
    query: &Query,
    plan: &QueryPlan,
    registry: &RelaxationRegistry,
    answers: &[PartialAnswer],
    k: usize,
) -> Verdict {
    if k == 0 {
        // Nothing was requested, so nothing can be missing (and there is no
        // k-th answer to inspect).
        return Verdict::clean();
    }
    let candidates = escalation_candidates(query, plan, registry);
    if candidates.is_empty() {
        return Verdict::clean();
    }

    // Suspicion strength: the plan's prediction where available, otherwise
    // the best score the pattern's top relaxation could possibly contribute
    // (its weight, by Def. 5 normalization).
    let potential = |i: usize| -> Score {
        plan.predicted_relaxed_best(i).unwrap_or_else(|| {
            registry
                .top_relaxation_for(&query.patterns()[i])
                .map(|r| Score::new(r.weight))
                .unwrap_or(Score::ZERO)
        })
    };
    let rank = |mut idx: Vec<usize>| -> Vec<usize> {
        idx.sort_by(|&a, &b| potential(b).cmp(&potential(a)).then(a.cmp(&b)));
        idx
    };

    if answers.len() < k {
        return Verdict {
            mis_speculated: true,
            suspects: rank(candidates.clone()),
            candidates,
        };
    }

    let kth = answers[k - 1].score;
    // Suspect = a pruned pattern whose predicted relaxed-best beats what we
    // actually observed at rank k: PLANGEN pruned it because
    // `E'(1) ≤ E_Q(k)-estimate`, and the observed k-th score has just
    // falsified the right-hand side of that inequality.
    let suspects: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&i| plan.predicted_relaxed_best(i).is_some_and(|b| b > kth))
        .collect();
    Verdict {
        mis_speculated: !suspects.is_empty(),
        suspects: rank(suspects),
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use operators::Binding;
    use relax::{Position, TermRule};
    use sparql::{QueryBuilder, Var};
    use specqp_common::TermId;

    const TY: TermId = TermId(0);
    const A: TermId = TermId(1);
    const B: TermId = TermId(2);
    const RA: TermId = TermId(3);
    const RB: TermId = TermId(4);

    fn query() -> Query {
        let mut b = QueryBuilder::new();
        let s = b.var("s");
        b.pattern(s, TY, A);
        b.pattern(s, TY, B);
        b.build().unwrap()
    }

    fn registry(weights: &[(TermId, TermId, f64)]) -> RelaxationRegistry {
        let mut reg = RelaxationRegistry::new();
        for &(from, to, w) in weights {
            reg.add(TermRule::with_context(Position::Object, from, to, w, TY));
        }
        reg
    }

    fn ans(id: u32, score: f64) -> PartialAnswer {
        PartialAnswer::new(
            Binding::from_pairs(vec![(Var(0), TermId(id))]),
            Score::new(score),
        )
    }

    #[test]
    fn k_zero_is_always_clean() {
        let q = query();
        let reg = registry(&[(A, RA, 0.9)]);
        // Regression: `answers[k - 1]` used to underflow for k = 0.
        let v = verify(&q, &QueryPlan::none_relaxed(2), &reg, &[], 0);
        assert_eq!(v, Verdict::clean());
    }

    #[test]
    fn no_candidates_is_always_clean() {
        let q = query();
        // No relaxations registered at all.
        let reg = registry(&[]);
        let v = verify(&q, &QueryPlan::none_relaxed(2), &reg, &[], 10);
        assert_eq!(v, Verdict::clean());
        // All patterns already relaxed.
        let reg = registry(&[(A, RA, 0.9), (B, RB, 0.8)]);
        let v = verify(&q, &QueryPlan::all_relaxed(2), &reg, &[], 10);
        assert!(!v.mis_speculated && v.candidates.is_empty());
    }

    #[test]
    fn under_filled_flags_all_candidates_ranked_by_weight() {
        let q = query();
        let reg = registry(&[(A, RA, 0.6), (B, RB, 0.9)]);
        let v = verify(&q, &QueryPlan::none_relaxed(2), &reg, &[ans(1, 2.0)], 3);
        assert!(v.mis_speculated);
        assert_eq!(v.candidates, vec![0, 1]);
        assert_eq!(v.suspects, vec![1, 0], "stronger relaxation first");
    }

    #[test]
    fn filled_run_without_predictions_is_clean() {
        let q = query();
        let reg = registry(&[(A, RA, 0.9)]);
        let answers = [ans(1, 2.0), ans(2, 1.5)];
        let v = verify(&q, &QueryPlan::none_relaxed(2), &reg, &answers, 2);
        assert!(!v.mis_speculated, "hand-built plans carry no predictions");
        assert_eq!(v.candidates, vec![0]);
    }

    #[test]
    fn filled_run_flags_only_predicted_beaters() {
        let q = query();
        let reg = registry(&[(A, RA, 0.9), (B, RB, 0.8)]);
        // Pattern 0's relaxed best was predicted at 1.5 (beats the observed
        // 0.4), pattern 1's at 0.3 (cannot help).
        let plan = QueryPlan::none_relaxed(2)
            .with_predictions(vec![Some(Score::new(1.5)), Some(Score::new(0.3))]);
        let answers = [ans(1, 2.0), ans(2, 0.4)];
        let v = verify(&q, &plan, &reg, &answers, 2);
        assert!(v.mis_speculated);
        assert_eq!(v.suspects, vec![0], "only the predicted beater");

        // A k-th score above every predicted relaxed-best: clean.
        let answers = [ans(1, 2.0), ans(2, 1.6)];
        let v = verify(&q, &plan, &reg, &answers, 2);
        assert!(!v.mis_speculated);
    }

    #[test]
    fn union_keeps_the_better_score_per_binding_and_reports_change() {
        let old = vec![ans(1, 2.0), ans(2, 1.0), ans(3, 0.5)];

        // Nothing to fold in, or only what was already there: unchanged.
        let mut got = old.clone();
        assert!(!union_top_k(&mut got, Vec::new(), 3));
        assert!(!union_top_k(&mut got, vec![ans(2, 1.0), ans(3, 0.25)], 3));
        assert_eq!(got, old);

        // A delta answer tied with the k-th score but ranking after it on
        // binding is cut again: still unchanged.
        assert!(!union_top_k(&mut got, vec![ans(9, 0.5)], 3));
        assert_eq!(got, old);
        // Ranking before it, it takes the place.
        assert!(union_top_k(&mut got, vec![ans(0, 0.5)], 3));
        assert_eq!(got, vec![ans(1, 2.0), ans(2, 1.0), ans(0, 0.5)]);

        // An upgrade re-ranks one binding; a new answer evicts the last.
        let mut got = old.clone();
        assert!(union_top_k(&mut got, vec![ans(3, 3.0), ans(7, 1.5)], 3));
        assert_eq!(got, vec![ans(3, 3.0), ans(1, 2.0), ans(7, 1.5)]);

        // An under-filled top-k grows.
        let mut got = vec![ans(1, 2.0)];
        assert!(union_top_k(&mut got, vec![ans(4, 0.1)], 3));
        assert_eq!(got, vec![ans(1, 2.0), ans(4, 0.1)]);
    }
}
