//! Query plans: the join-group/singleton partition of §3.2.
//!
//! A plan for `Q = {q₁ … qₙ}` is a partition where one subset (the **join
//! group**) holds the patterns whose relaxations were pruned, and every
//! other subset is a **singleton** holding one pattern that keeps its
//! relaxations. The paper's example: plan `{{q₁,q₃},{q₂}}` processes q₂
//! through an incremental merge and joins q₁, q₃ directly.

use sparql::Query;
use specqp_common::{Dictionary, Score};

/// A speculative query plan: which patterns are processed *with* their
/// relaxations (singletons) and which are joined bare (join group).
///
/// Besides the partition itself, a PLANGEN-produced plan carries, per
/// pattern, the prediction it was derived from: the expected best score of
/// the query with that pattern's top relaxation substituted in
/// ([`predicted_relaxed_best`](QueryPlan::predicted_relaxed_best)).
/// The speculation verifier replays PLANGEN's inequality against *observed*
/// scores to detect mis-speculation at runtime (see `crate::speculation`).
/// Hand-built plans ([`QueryPlan::new`] and friends) carry no predictions.
/// A [delta plan](QueryPlan::delta) is how the speculation lifecycle
/// recovers without re-executing (see `crate::speculation`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryPlan {
    /// `relaxed[i]` ⇔ pattern `i` is a singleton (gets an incremental
    /// merge).
    relaxed: Vec<bool>,
    /// PLANGEN's `E_{Q'}(1)` per pattern: the expected best score of the
    /// query with pattern `i` replaced by its top-weighted relaxation.
    /// Empty for hand-built plans; `None` entries mean the pattern has no
    /// relaxations or the relaxed query is expected to be empty.
    predicted_relaxed_best: Vec<Option<Score>>,
    /// For a delta plan: the singleton whose original scan is left out, and
    /// the score floor its run drains above.
    delta: Option<(usize, Option<Score>)>,
}

impl QueryPlan {
    /// Plan with the given singleton pattern indices.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn new(n_patterns: usize, singleton_indices: &[usize]) -> Self {
        let mut relaxed = vec![false; n_patterns];
        for &i in singleton_indices {
            assert!(i < n_patterns, "pattern index {i} out of range");
            relaxed[i] = true;
        }
        QueryPlan {
            relaxed,
            predicted_relaxed_best: Vec::new(),
            delta: None,
        }
    }

    /// The TriniT plan: every pattern is a singleton (`{{q₁},{q₂},…}`,
    /// Fig. 2).
    pub fn all_relaxed(n_patterns: usize) -> Self {
        QueryPlan {
            relaxed: vec![true; n_patterns],
            predicted_relaxed_best: Vec::new(),
            delta: None,
        }
    }

    /// The no-relaxation plan: plain rank joins over the original patterns.
    pub fn none_relaxed(n_patterns: usize) -> Self {
        QueryPlan {
            relaxed: vec![false; n_patterns],
            predicted_relaxed_best: Vec::new(),
            delta: None,
        }
    }

    /// Attaches PLANGEN's predictions: the per-pattern expected best relaxed
    /// scores.
    ///
    /// # Panics
    /// Panics if `predicted_relaxed_best` is non-empty but not of the plan's
    /// length.
    pub fn with_predictions(mut self, predicted_relaxed_best: Vec<Option<Score>>) -> Self {
        assert!(
            predicted_relaxed_best.is_empty() || predicted_relaxed_best.len() == self.relaxed.len(),
            "predictions/plan arity mismatch"
        );
        self.predicted_relaxed_best = predicted_relaxed_best;
        self
    }

    /// PLANGEN's expected best score of the query with pattern `i` swapped
    /// for its top relaxation. `None` for hand-built plans, out-of-range
    /// indices, patterns without relaxations, or empty relaxed estimates.
    pub fn predicted_relaxed_best(&self, i: usize) -> Option<Score> {
        self.predicted_relaxed_best.get(i).copied().flatten()
    }

    /// This plan with the patterns in `add` additionally relaxed — the
    /// fallback controller's escalation step. Predictions are preserved so
    /// re-verification after a fallback stage replays the same inequality.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn escalated(&self, add: &[usize]) -> QueryPlan {
        let mut next = self.clone();
        for &i in add {
            assert!(i < next.relaxed.len(), "pattern index {i} out of range");
            next.relaxed[i] = true;
        }
        next
    }

    /// The **delta plan** of escalating pattern `target`: this plan with
    /// `target` relaxed and its merge built without the original scan, run
    /// to its top-k among answers scoring `≥ floor`.
    ///
    /// Every answer the escalated plan produces that this plan does not —
    /// and every answer it scores higher — uses a relaxed-only row of
    /// `target`, so it is an answer of the delta plan. Nothing under this
    /// plan's k-th score can enter the escalated top-k, which is what
    /// `floor` carries: the run stops as soon as its bounds drop under it
    /// (`None` — this plan's run was under-filled — is a plain top-k).
    ///
    /// # Panics
    /// Panics if `target` is out of range.
    pub fn delta(&self, target: usize, floor: Option<Score>) -> QueryPlan {
        let mut delta = self.escalated(&[target]);
        delta.delta = Some((target, floor));
        delta
    }

    /// The pattern whose original scan a delta plan leaves out.
    pub(crate) fn delta_target(&self) -> Option<usize> {
        self.delta.map(|(target, _)| target)
    }

    /// The score floor a delta plan's run drains above (`None` for every
    /// other plan).
    pub(crate) fn delta_floor(&self) -> Option<Score> {
        self.delta.and_then(|(_, floor)| floor)
    }

    /// Number of patterns covered by the plan.
    pub fn len(&self) -> usize {
        self.relaxed.len()
    }

    /// `true` for the empty plan (no patterns).
    pub fn is_empty(&self) -> bool {
        self.relaxed.is_empty()
    }

    /// `true` if pattern `i` keeps its relaxations.
    pub fn is_relaxed(&self, i: usize) -> bool {
        self.relaxed[i]
    }

    /// Indices of the join group (non-relaxed patterns), ascending.
    pub fn join_group(&self) -> Vec<usize> {
        (0..self.relaxed.len())
            .filter(|&i| !self.relaxed[i])
            .collect()
    }

    /// Indices of the singletons (relaxed patterns), ascending.
    pub fn singletons(&self) -> Vec<usize> {
        (0..self.relaxed.len())
            .filter(|&i| self.relaxed[i])
            .collect()
    }

    /// Number of patterns whose relaxations are processed — the grouping
    /// key of Figures 7 and 9.
    pub fn relaxed_count(&self) -> usize {
        self.relaxed.iter().filter(|&&r| r).count()
    }

    /// `true` iff the partition covers each pattern exactly once (always
    /// true by construction; kept as an invariant check for property
    /// tests).
    pub fn is_valid_partition(&self) -> bool {
        let jg = self.join_group();
        let sg = self.singletons();
        jg.len() + sg.len() == self.relaxed.len() && jg.iter().all(|i| !sg.contains(i))
    }

    /// Human-readable plan description mirroring the paper's notation.
    pub fn explain(&self, query: &Query, dict: &Dictionary) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let jg = self.join_group();
        let _ = writeln!(s, "Spec-QP plan over {} patterns:", self.len());
        if jg.is_empty() {
            let _ = writeln!(s, "  join group: (empty — all patterns relaxed)");
        } else {
            let _ = writeln!(s, "  join group (rank joins over sorted lists):");
            for i in jg {
                let p = &query.patterns()[i];
                let _ = writeln!(s, "    q{}: {}", i + 1, render(p, query, dict));
            }
        }
        for i in self.singletons() {
            let p = &query.patterns()[i];
            let _ = writeln!(
                s,
                "  singleton (incremental merge): q{}: {}",
                i + 1,
                render(p, query, dict)
            );
        }
        s
    }
}

fn render(p: &sparql::TriplePattern, query: &Query, dict: &Dictionary) -> String {
    let term = |t: sparql::Term| match t {
        sparql::Term::Var(v) => format!("?{}", query.var_name(v)),
        sparql::Term::Const(id) => format!("<{}>", dict.name_or_unknown(id)),
    };
    format!("{} {} {}", term(p.s), term(p.p), term(p.o))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparql::QueryBuilder;
    use specqp_common::TermId;

    #[test]
    fn partition_accessors() {
        let p = QueryPlan::new(4, &[1, 3]);
        assert_eq!(p.join_group(), vec![0, 2]);
        assert_eq!(p.singletons(), vec![1, 3]);
        assert_eq!(p.relaxed_count(), 2);
        assert!(p.is_relaxed(1));
        assert!(!p.is_relaxed(0));
        assert!(p.is_valid_partition());
    }

    #[test]
    fn trinit_and_bare_plans() {
        let t = QueryPlan::all_relaxed(3);
        assert_eq!(t.relaxed_count(), 3);
        assert!(t.join_group().is_empty());
        let b = QueryPlan::none_relaxed(3);
        assert_eq!(b.relaxed_count(), 0);
        assert_eq!(b.join_group(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_singleton_panics() {
        let _ = QueryPlan::new(2, &[5]);
    }

    #[test]
    fn predictions_roundtrip_and_escalation_preserves_them() {
        let best = vec![Some(Score::new(0.9)), None, Some(Score::new(0.4))];
        let p = QueryPlan::new(3, &[1]).with_predictions(best);
        assert_eq!(p.predicted_relaxed_best(0), Some(Score::new(0.9)));
        assert_eq!(p.predicted_relaxed_best(1), None);
        assert_eq!(p.predicted_relaxed_best(7), None, "out of range is None");

        let e = p.escalated(&[0]);
        assert!(e.is_relaxed(0) && e.is_relaxed(1) && !e.is_relaxed(2));
        assert_eq!(e.predicted_relaxed_best(2), Some(Score::new(0.4)));
        // Escalation is idempotent on already-relaxed patterns.
        assert_eq!(e.escalated(&[0, 1]), e);
        // Hand-built plans differ from predicted ones under Eq.
        assert_ne!(p, QueryPlan::new(3, &[1]));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn prediction_arity_mismatch_panics() {
        let _ = QueryPlan::new(2, &[]).with_predictions(vec![None]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn escalate_out_of_range_panics() {
        let _ = QueryPlan::new(2, &[]).escalated(&[2]);
    }

    #[test]
    fn explain_mentions_groups() {
        let mut d = Dictionary::new();
        let ty = d.intern("type");
        let a = d.intern("a");
        let c = d.intern("c");
        let mut b = QueryBuilder::new();
        let s = b.var("s");
        b.pattern(s, ty, a);
        b.pattern(s, ty, c);
        b.project(s);
        let q = b.build().unwrap();
        let _ = TermId(0);
        let plan = QueryPlan::new(2, &[1]);
        let text = plan.explain(&q, &d);
        assert!(text.contains("join group"));
        assert!(text.contains("singleton"));
        assert!(text.contains("<a>"));
        assert!(text.contains("<c>"));
    }
}
