//! Answer checks: what "correct" means for each kind of reply.
//!
//! Answers are compared in a canonical form — score bits plus bindings —
//! whose binding type is term ids inside one process and one dictionary,
//! and term names across the wire or across two graphs built separately.

use std::collections::BTreeSet;

/// One ranked answer.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ans<B> {
    /// `f64::to_bits` of the score: equality means bit equality.
    pub score_bits: u64,
    pub binding: B,
}

impl<B> Ans<B> {
    pub fn score(&self) -> f64 {
        f64::from_bits(self.score_bits)
    }
}

/// Bindings as `(variable, term id)`.
pub type IdAns = Ans<Vec<(u32, u32)>>;
/// Bindings as `(variable, term name)`.
pub type NameAns = Ans<Vec<(u32, String)>>;

/// Share of Spec-QP's top-k that is in TriniT's top-k, over
/// `min(k, |TriniT|)` — the paper's precision (= recall) at k. Both empty
/// is a perfect answer to a query that has none.
pub fn precision_at_k<B: Ord>(spec: &[Ans<B>], trinit: &[Ans<B>], k: usize) -> f64 {
    if trinit.is_empty() {
        return if spec.is_empty() { 1.0 } else { 0.0 };
    }
    let truth: BTreeSet<&B> = trinit.iter().take(k).map(|a| &a.binding).collect();
    let hits = spec
        .iter()
        .take(k)
        .filter(|a| truth.contains(&a.binding))
        .count();
    hits as f64 / k.min(trinit.len()) as f64
}

/// At most `k` answers, finite scores, best first.
pub fn well_formed<B>(answers: &[Ans<B>], k: usize) -> Result<(), String> {
    if answers.len() > k {
        return Err(format!("{} answers for k = {k}", answers.len()));
    }
    if answers.iter().any(|a| !a.score().is_finite()) {
        return Err("non-finite score".to_string());
    }
    if answers.windows(2).any(|w| w[0].score() < w[1].score()) {
        return Err("answers not in descending score order".to_string());
    }
    Ok(())
}

/// Relative slack for comparing score *sums* formed in different join
/// orders; a genuinely better answer differs by far more than this.
const SUM_SLACK: f64 = 1e-9;

/// What must hold of a Spec-QP reply whatever was speculated: it is
/// well formed, and rank by rank no better than TriniT's. TriniT reads a
/// superset of the lists Spec-QP reads and keeps the best score per binding,
/// so a Spec-QP answer that outranks TriniT's at its own rank, or an extra
/// answer TriniT did not find, is a wrong answer — while a worse one is a
/// mis-speculation, which `precision_at_k` prices and does not fail.
pub fn speculative_ok<B>(spec: &[Ans<B>], trinit: &[Ans<B>], k: usize) -> Result<(), String> {
    well_formed(spec, k)?;
    if spec.len() > trinit.len() {
        return Err(format!(
            "Spec-QP returned {} answers, TriniT only {}",
            spec.len(),
            trinit.len()
        ));
    }
    for (rank, (s, t)) in spec.iter().zip(trinit).enumerate() {
        if s.score() > t.score() * (1.0 + SUM_SLACK) {
            return Err(format!(
                "rank {}: Spec-QP score {} beats TriniT's {}",
                rank + 1,
                s.score(),
                t.score()
            ));
        }
    }
    Ok(())
}

/// Equality of two replies to one query over one dictionary: same answers,
/// same order, same bits.
pub fn identical<B: PartialEq>(got: &[Ans<B>], want: &[Ans<B>]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "answers differ ({} against {} answers)",
            got.len(),
            want.len()
        ))
    }
}

/// Equality of two top-k lists computed over graphs that hold the same
/// triples but assign term ids differently. The scores must agree bit for
/// bit at every rank. Bindings must agree too, except among the answers
/// that tie with the last one: which of several equal-scored answers makes
/// the cut is decided by term id, which the two graphs do not share.
pub fn equivalent<B: Ord + Clone>(got: &[Ans<B>], want: &[Ans<B>]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} answers against {}", got.len(), want.len()));
    }
    if let Some(rank) = got
        .iter()
        .zip(want)
        .position(|(g, w)| g.score_bits != w.score_bits)
    {
        return Err(format!("scores differ at rank {}", rank + 1));
    }
    let Some(last) = want.last().map(|a| a.score_bits) else {
        return Ok(());
    };
    let above = |list: &[Ans<B>]| -> BTreeSet<Ans<B>> {
        list.iter()
            .filter(|a| a.score_bits != last)
            .cloned()
            .collect()
    };
    if above(got) == above(want) {
        Ok(())
    } else {
        Err("bindings differ above the last tie".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(score: f64, term: u32) -> IdAns {
        Ans {
            score_bits: score.to_bits(),
            binding: vec![(0, term)],
        }
    }

    #[test]
    fn precision_counts_shared_bindings_over_the_true_size() {
        let trinit = [a(3.0, 1), a(2.0, 2), a(1.0, 3)];
        assert_eq!(precision_at_k(&trinit, &trinit, 3), 1.0);
        assert_eq!(
            precision_at_k(&[a(3.0, 1), a(0.5, 9)], &trinit, 3),
            1.0 / 3.0
        );
        // Fewer true answers than k: the denominator is what exists.
        assert_eq!(precision_at_k(&trinit[..2], &trinit[..2], 10), 1.0);
        // Only the first k of either list count.
        assert_eq!(precision_at_k(&[a(3.0, 1), a(1.0, 3)], &trinit, 2), 0.5);
        let none: [IdAns; 0] = [];
        assert_eq!(precision_at_k(&none, &none, 5), 1.0);
        assert_eq!(precision_at_k(&trinit, &none, 5), 0.0);
    }

    #[test]
    fn speculative_reply_may_be_worse_but_never_better() {
        let trinit = [a(3.0, 1), a(2.0, 2), a(1.0, 3)];
        assert!(speculative_ok(&trinit, &trinit, 3).is_ok());
        // Lost an answer to pruning: a mis-speculation, not a wrong answer.
        assert!(speculative_ok(&[a(3.0, 1), a(1.0, 3)], &trinit, 3).is_ok());
        // Summation order may move the last bits.
        assert!(speculative_ok(&[a(3.0 * (1.0 + 1e-12), 1)], &trinit, 3).is_ok());
        assert!(speculative_ok(&[a(3.5, 1)], &trinit, 3).is_err());
        assert!(speculative_ok(&trinit, &trinit[..2], 3).is_err());
        assert!(speculative_ok(&[a(1.0, 3), a(3.0, 1)], &trinit, 3).is_err());
        assert!(speculative_ok(&trinit, &trinit, 2).is_err());
        assert!(speculative_ok(&[a(f64::NAN, 1)], &trinit, 3).is_err());
    }

    #[test]
    fn equivalence_tolerates_only_the_boundary_tie() {
        let want = [a(3.0, 1), a(2.0, 2), a(2.0, 3)];
        assert!(equivalent(&want, &want).is_ok());
        // A different member of the tie at the cut is the same answer set.
        assert!(equivalent(&[a(3.0, 1), a(2.0, 3), a(2.0, 7)], &want).is_ok());
        assert!(equivalent(&[a(3.0, 9), a(2.0, 2), a(2.0, 3)], &want).is_err());
        assert!(equivalent(&[a(3.0, 1), a(2.5, 2), a(2.0, 3)], &want).is_err());
        assert!(equivalent(&want[..2], &want).is_err());
        assert!(identical(&want, &want).is_ok());
        assert!(identical(&[a(3.0, 1), a(2.0, 3), a(2.0, 2)], &want).is_err());
    }
}
