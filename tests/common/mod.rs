//! Helpers shared by the integration suites (`mod common;`).

use operators::PartialAnswer;
use std::collections::HashSet;

/// Scores agree when they differ by at most this, relatively: far above
/// what re-associating a sum of ≤ 4 terms can move, far below the gap
/// between two genuinely different answers.
const SUM_SLACK: f64 = 1e-9;

/// `got` and `want` are one top-k up to summation order: equally long, rank
/// by rank the same score within [`SUM_SLACK`], and — above the answers that
/// tie with the last one — the same set of bindings.
pub fn equivalent(got: &[PartialAnswer], want: &[PartialAnswer]) -> Result<(), String> {
    let close = |a: f64, b: f64| (a - b).abs() <= SUM_SLACK * a.abs().max(b.abs());
    if got.len() != want.len() {
        return Err(format!("{} answers against {}", got.len(), want.len()));
    }
    if let Some(rank) = got
        .iter()
        .zip(want)
        .position(|(g, w)| !close(g.score.value(), w.score.value()))
    {
        return Err(format!(
            "rank {}: score {:?} against {:?}",
            rank + 1,
            got[rank].score,
            want[rank].score
        ));
    }
    let Some(last) = want.last().map(|a| a.score.value()) else {
        return Ok(());
    };
    let above = |list: &[PartialAnswer]| -> HashSet<_> {
        list.iter()
            .filter(|a| !close(a.score.value(), last))
            .map(|a| a.binding.clone())
            .collect()
    };
    if above(got) == above(want) {
        Ok(())
    } else {
        Err("bindings differ above the last-place tie".to_string())
    }
}
