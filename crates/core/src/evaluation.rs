//! The paper's quality metrics (§4.3): precision/recall, prediction
//! accuracy and average score error, plus the ground-truth computation of
//! which patterns *required* relaxation.

use kgstore::KnowledgeGraph;
use operators::{BlockScan, OpMetrics, PartialAnswer};
use relax::RelaxationRegistry;
use sparql::{Query, Term, TriplePattern};
use specqp_common::{FxHashSet, Score, TermId};

/// Precision of Spec-QP's top-k against the true (TriniT) top-k: the
/// fraction of Spec-QP's answers that appear in the true top-k.
///
/// The paper notes precision = recall because both share denominator `k`;
/// when the true result has fewer than `k` answers we use that smaller
/// denominator (there is no way to return answers that do not exist). An
/// empty truth met by an empty result is perfect precision (nothing existed
/// and nothing was claimed — the degenerate case fallback-escalated empty
/// queries hit); an empty truth met by invented answers stays 0.
pub fn precision_at_k(spec: &[PartialAnswer], trinit: &[PartialAnswer], k: usize) -> f64 {
    if trinit.is_empty() {
        return if spec.is_empty() { 1.0 } else { 0.0 };
    }
    let denom = k.min(trinit.len()).max(1);
    let truth: FxHashSet<_> = trinit.iter().take(k).map(|a| &a.binding).collect();
    let hits = spec
        .iter()
        .take(k)
        .filter(|a| truth.contains(&a.binding))
        .count();
    hits as f64 / denom as f64
}

/// Average absolute score deviation (Table 4): mean and population standard
/// deviation of `|score_spec(i) − score_trinit(i)|` over ranks `i = 1..k`,
/// plus the mean *percentage* deviation relative to the true scores.
/// Missing Spec-QP ranks count as score 0 (maximal deviation).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScoreError {
    /// Mean absolute deviation.
    pub mean_abs: f64,
    /// Population standard deviation of the absolute deviations.
    pub std_dev: f64,
    /// Mean of `|Δᵢ| / scoreᵀʳⁱⁿⁱᵀᵢ` in percent.
    pub mean_pct: f64,
}

/// Computes the per-rank score error between the two top-k lists.
pub fn score_error(spec: &[PartialAnswer], trinit: &[PartialAnswer], k: usize) -> ScoreError {
    let n = k.min(trinit.len());
    if n == 0 {
        return ScoreError::default();
    }
    let mut diffs = Vec::with_capacity(n);
    let mut pcts = Vec::new();
    for (i, truth) in trinit.iter().take(n).enumerate() {
        let t = truth.score.value();
        let s = spec.get(i).map(|a| a.score.value()).unwrap_or(0.0);
        let d = (s - t).abs();
        diffs.push(d);
        if t > 0.0 {
            pcts.push(d / t * 100.0);
        }
    }
    let mean = diffs.iter().sum::<f64>() / n as f64;
    let var = diffs.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
    let mean_pct = if pcts.is_empty() {
        0.0
    } else {
        pcts.iter().sum::<f64>() / pcts.len() as f64
    };
    ScoreError {
        mean_abs: mean,
        std_dev: var.sqrt(),
        mean_pct,
    }
}

/// Instantiates `pattern` under `answer`'s binding; `None` if some variable
/// is unbound.
fn instantiate(
    pattern: &TriplePattern,
    answer: &PartialAnswer,
) -> Option<(TermId, TermId, TermId)> {
    let resolve = |t: Term| -> Option<TermId> {
        match t {
            Term::Const(id) => Some(id),
            Term::Var(v) => answer.binding.get(v),
        }
    };
    Some((
        resolve(pattern.s)?,
        resolve(pattern.p)?,
        resolve(pattern.o)?,
    ))
}

/// Best normalized weighted score the (pattern, relaxations) pair assigns to
/// `answer` — the score the executor's scan of that input gives the match —
/// together with whether that best came from a relaxation.
fn provenance_for(
    graph: &KnowledgeGraph,
    pattern: &TriplePattern,
    registry: &RelaxationRegistry,
    answer: &PartialAnswer,
) -> Option<(Score, bool)> {
    let score_under = |p: &TriplePattern, weight: Score| -> Option<Score> {
        let (s, pr, o) = instantiate(p, answer)?;
        let raw = graph.score_of(s, pr, o)?.value();
        Some(BlockScan::new(graph, *p, weight, OpMetrics::new_handle(), 1).weighted(raw))
    };

    let mut best: Option<(Score, bool)> = score_under(pattern, Score::ONE).map(|s| (s, false));
    for r in registry.relaxations_for(pattern) {
        if let Some(s) = score_under(&r.pattern, Score::new(r.weight)) {
            match best {
                Some((b, _)) if b >= s => {}
                _ => best = Some((s, true)),
            }
        }
    }
    best
}

/// Ground truth for Table 3: the set of pattern indices whose **relaxations
/// contribute to the true top-k** — i.e. for some top-k answer, the best
/// provenance of that pattern's contribution is a relaxed pattern rather
/// than the original (either the original does not match the answer at all,
/// or a relaxation gives the same binding a strictly higher weighted score,
/// which is the max-semantics of Def. 8).
pub fn required_relaxations(
    graph: &KnowledgeGraph,
    query: &Query,
    registry: &RelaxationRegistry,
    true_topk: &[PartialAnswer],
) -> Vec<usize> {
    let mut required = Vec::new();
    for (i, pattern) in query.patterns().iter().enumerate() {
        let needed = true_topk.iter().any(|answer| {
            matches!(
                provenance_for(graph, pattern, registry, answer),
                Some((_, true))
            )
        });
        if needed {
            required.push(i);
        }
    }
    required
}

/// Prediction accuracy criterion of Table 3: the planner is *exactly right*
/// when its singleton set equals the ground-truth required set.
pub fn prediction_exact(plan: &crate::QueryPlan, required: &[usize]) -> bool {
    plan.singletons() == required
}

/// Lenient prediction criterion: the planner *covers* the ground truth when
/// every required pattern is relaxed (supersets allowed). Covering plans
/// preserve result quality and only forfeit part of the runtime win — the
/// diagnostic used in EXPERIMENTS.md to show our misses are conservative.
pub fn prediction_covering(plan: &crate::QueryPlan, required: &[usize]) -> bool {
    required.iter().all(|&i| plan.is_relaxed(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryPlan;
    use kgstore::KnowledgeGraphBuilder;
    use operators::Binding;
    use relax::{Position, TermRule};
    use sparql::{QueryBuilder, Var};
    use specqp_common::Score;

    fn ans(v: u32, score: f64) -> PartialAnswer {
        PartialAnswer::new(
            Binding::from_pairs(vec![(Var(0), TermId(v))]),
            Score::new(score),
        )
    }

    #[test]
    fn precision_counts_overlap() {
        let spec = vec![ans(1, 0.9), ans(2, 0.8), ans(9, 0.7)];
        let truth = vec![ans(1, 0.9), ans(2, 0.85), ans(3, 0.8)];
        assert!((precision_at_k(&spec, &truth, 3) - 2.0 / 3.0).abs() < 1e-9);
        assert!((precision_at_k(&truth, &truth, 3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn precision_with_short_truth_uses_truth_len() {
        let spec = vec![ans(1, 0.9)];
        let truth = vec![ans(1, 0.9)];
        assert!((precision_at_k(&spec, &truth, 10) - 1.0).abs() < 1e-9);
        // Empty truth: invented answers score 0, an empty result is perfect.
        assert_eq!(precision_at_k(&spec, &[], 10), 0.0);
        assert_eq!(precision_at_k(&[], &[], 10), 1.0);
    }

    #[test]
    fn score_error_basics() {
        // Dyadic scores, so the fixed-point answer scores hold them exactly.
        let spec = vec![ans(1, 1.375), ans(2, 1.0)];
        let truth = vec![ans(1, 1.5), ans(2, 1.25)];
        let e = score_error(&spec, &truth, 2);
        assert!((e.mean_abs - 0.1875).abs() < 1e-9);
        assert!((e.std_dev - 0.0625).abs() < 1e-9);
        // pct = mean(0.125/1.5, 0.25/1.25)·100 ≈ (8.33% + 20%)/2
        assert!((e.mean_pct - (0.125 / 1.5 + 0.25 / 1.25) / 2.0 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn score_error_missing_ranks_penalized() {
        let spec = vec![ans(1, 1.0)];
        let truth = vec![ans(1, 1.0), ans(2, 0.8)];
        let e = score_error(&spec, &truth, 2);
        assert!((e.mean_abs - 0.4).abs() < 1e-9);
    }

    #[test]
    fn identical_lists_have_zero_error() {
        let truth = vec![ans(1, 1.0), ans(2, 0.8)];
        let e = score_error(&truth, &truth, 2);
        assert_eq!(e.mean_abs, 0.0);
        assert_eq!(e.std_dev, 0.0);
        assert_eq!(e.mean_pct, 0.0);
    }

    /// KG where e2 is only a vocalist (not singer): any top-k containing e2
    /// required the singer-pattern relaxation.
    fn provenance_setup() -> (KnowledgeGraph, RelaxationRegistry, Query) {
        let mut b = KnowledgeGraphBuilder::new();
        b.add("e1", "type", "singer", 10.0);
        b.add("e2", "type", "vocalist", 9.0);
        b.add("e1", "type", "lyricist", 5.0);
        b.add("e2", "type", "lyricist", 4.0);
        let g = b.build();
        let d = g.dictionary();
        let ty = d.lookup("type").unwrap();
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::with_context(
            Position::Object,
            d.lookup("singer").unwrap(),
            d.lookup("vocalist").unwrap(),
            0.8,
            ty,
        ));
        let mut qb = QueryBuilder::new();
        let s = qb.var("s");
        qb.pattern(s, ty, d.lookup("singer").unwrap());
        qb.pattern(s, ty, d.lookup("lyricist").unwrap());
        qb.project(s);
        let q = qb.build().unwrap();
        (g, reg, q)
    }

    #[test]
    fn required_relaxations_from_provenance() {
        let (g, reg, q) = provenance_setup();
        let d = g.dictionary();
        let e1 = d.lookup("e1").unwrap();
        let e2 = d.lookup("e2").unwrap();
        // Top-2 with relaxation: e1 (2.0), e2 (0.8+0.8).
        let topk = vec![ans(e1.0, 2.0), ans(e2.0, 1.6)];
        let req = required_relaxations(&g, &q, &reg, &topk);
        assert_eq!(req, vec![0], "only the singer pattern needed relaxing");
        // Top-1 only: no relaxation needed.
        let req = required_relaxations(&g, &q, &reg, &topk[..1]);
        assert!(req.is_empty());
    }

    /// `a` scores 1/10 as a singer and 0.1 · 3/3 as a vocalist: the same
    /// real, which `0.1 * 3.0 / 3.0` overshoots by one ulp in `f64`. The
    /// executor scores both matches the same, so the relaxation adds
    /// nothing and is not required.
    #[test]
    fn relaxation_that_ties_the_original_is_not_required() {
        let mut b = KnowledgeGraphBuilder::new();
        b.add("top", "type", "singer", 10.0);
        b.add("a", "type", "singer", 1.0);
        b.add("a", "type", "vocalist", 3.0);
        let g = b.build();
        let d = g.dictionary();
        let (ty, singer) = (d.lookup("type").unwrap(), d.lookup("singer").unwrap());
        let mut reg = RelaxationRegistry::new();
        let vocalist = d.lookup("vocalist").unwrap();
        reg.add(TermRule::new(Position::Object, singer, vocalist, 0.1));
        let mut qb = QueryBuilder::new();
        let s = qb.var("s");
        qb.pattern(s, ty, singer);
        qb.project(s);
        let q = qb.build().unwrap();

        let trinit = crate::Engine::new(&g, &reg).run_trinit(&q, 2).answers;
        assert_eq!(trinit[1], ans(d.lookup("a").unwrap().0, 0.1));
        assert!(required_relaxations(&g, &q, &reg, &trinit).is_empty());
    }

    #[test]
    fn prediction_exact_matches_sets() {
        let plan = QueryPlan::new(3, &[0, 2]);
        assert!(prediction_exact(&plan, &[0, 2]));
        assert!(!prediction_exact(&plan, &[0]));
        assert!(!prediction_exact(&plan, &[0, 1]));
        let none = QueryPlan::none_relaxed(3);
        assert!(prediction_exact(&none, &[]));
    }

    #[test]
    fn prediction_covering_allows_supersets() {
        let plan = QueryPlan::new(3, &[0, 2]);
        assert!(prediction_covering(&plan, &[0, 2]));
        assert!(prediction_covering(&plan, &[0]));
        assert!(prediction_covering(&plan, &[]));
        assert!(!prediction_covering(&plan, &[1]));
        assert!(!prediction_covering(&plan, &[0, 1]));
    }
}
