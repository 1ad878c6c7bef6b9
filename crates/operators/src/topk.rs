//! Top-k collection from a ranked stream.

use crate::answer::{Binding, PartialAnswer};
use crate::stream::RankedStream;
use sparql::Var;
use specqp_common::{FxHashSet, Score};

/// Collects the top-`k` answers under the canonical total order
/// (score desc, binding asc). Because [`RankedStream`]s produce answers in
/// non-increasing score order, the first `k` pulls reach the score floor;
/// answers tied *at* the floor are then drained so the boundary is resolved
/// by binding rather than by incidental stream position — every executor
/// (row, block, morsel-parallel) truncates the same total order and returns
/// the same answer set in the same order. The early-termination logic lives
/// inside the operators, which only consume as much of their inputs as the
/// bounds require.
pub fn top_k<S: RankedStream + ?Sized>(stream: &mut S, k: usize) -> Vec<PartialAnswer> {
    top_k_floored(stream, k, None)
}

/// [`top_k`] restricted to answers scoring `≥ floor`: exactly the unbounded
/// top-`k` with the answers below the floor dropped, pulling only while the
/// stream's `upper_bound()` still reaches the floor. The check sits in this
/// driver alone — the row operators are the reference and know nothing of
/// floors — so a row join may still read deep inside one `next()`; the block
/// path ([`top_k_blocks_floored`](crate::top_k_blocks_floored)) is the one
/// that stops its join early. `None` is no floor.
pub fn top_k_floored<S: RankedStream + ?Sized>(
    stream: &mut S,
    k: usize,
    floor: Option<Score>,
) -> Vec<PartialAnswer> {
    let mut out = Vec::with_capacity(k);
    if k == 0 {
        return out;
    }
    let below = |score: Score| floor.is_some_and(|f| score < f);
    loop {
        if floor.is_some() && stream.upper_bound().is_none_or(below) {
            break;
        }
        let Some(a) = stream.next() else {
            break;
        };
        // `out` is in non-increasing score order, so once it holds `k`
        // answers `out[k - 1]` carries the floor; only floor ties may still
        // belong to the canonical top-k.
        if below(a.score) || (out.len() >= k && a.score != out[k - 1].score) {
            break;
        }
        out.push(a);
    }
    out.sort_by(|a, b| b.cmp(a));
    out.truncate(k);
    out
}

/// Pulls answers until `k` *distinct projections* onto `vars` have been
/// collected; each projected result keeps the score of its best underlying
/// answer (max semantics — duplicates arrive later and are dropped).
pub fn top_k_projected<S: RankedStream + ?Sized>(
    stream: &mut S,
    k: usize,
    vars: &[Var],
) -> Vec<PartialAnswer> {
    let mut out: Vec<PartialAnswer> = Vec::with_capacity(k);
    let mut seen: FxHashSet<Binding> = FxHashSet::default();
    while out.len() < k {
        match stream.next() {
            Some(a) => {
                let projected = a.binding.project(vars);
                if seen.insert(projected.clone()) {
                    out.push(PartialAnswer::new(projected, a.score));
                }
            }
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::VecStream;
    use specqp_common::{Score, TermId};

    fn ans(pairs: &[(u32, u32)], s: f64) -> PartialAnswer {
        PartialAnswer::new(
            Binding::from_pairs(pairs.iter().map(|&(v, t)| (Var(v), TermId(t))).collect()),
            Score::new(s),
        )
    }

    #[test]
    fn top_k_truncates() {
        let mut s = VecStream::new(vec![
            ans(&[(0, 1)], 0.9),
            ans(&[(0, 2)], 0.8),
            ans(&[(0, 3)], 0.7),
        ]);
        let out = top_k(&mut s, 2);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].score.value(), 0.9);
    }

    #[test]
    fn top_k_handles_short_streams() {
        let mut s = VecStream::new(vec![ans(&[(0, 1)], 0.9)]);
        assert_eq!(top_k(&mut s, 10).len(), 1);
        assert_eq!(top_k(&mut s, 10).len(), 0);
    }

    #[test]
    fn projection_dedups_with_max_semantics() {
        // Two answers project to the same ?0; the higher-scoring one (first)
        // wins. The third distinct projection fills k=2.
        let mut s = VecStream::new(vec![
            ans(&[(0, 1), (1, 10)], 0.9),
            ans(&[(0, 1), (1, 11)], 0.8),
            ans(&[(0, 2), (1, 12)], 0.7),
        ]);
        let out = top_k_projected(&mut s, 2, &[Var(0)]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].binding.get(Var(0)), Some(TermId(1)));
        assert_eq!(out[0].score.value(), 0.9);
        assert_eq!(out[1].binding.get(Var(0)), Some(TermId(2)));
    }
}
