//! Order-statistic score prediction (§3.1.3).
//!
//! For i.i.d. samples `X₁..X_n ~ F`, the expected value of the `i`-th order
//! statistic (i-th smallest) is approximately `F⁻¹(i/(n+1))` (David &
//! Nagaraja, *Order Statistics*, the paper's ref \[7\]). The rank-`k`
//! answer *from the top* is the `(n−k+1)`-th order statistic, so
//!
//! ```text
//! E[score at rank k] ≈ F⁻¹((n − k + 1)/(n + 1))
//! ```

use crate::histogram::TwoBucketHistogram;

/// Expected score of the answer at `rank` (1-based from the top) among an
/// estimated `n` answers drawn from `dist`.
///
/// Returns `None` when the query is not expected to have `rank` answers at
/// all (`n < rank`) — the caller treats this as "the original query cannot
/// fill the top-k", which makes every relaxation potentially useful.
///
/// `n` is fractional because it comes from cardinality *estimates*.
pub fn expected_score_at_rank(dist: &TwoBucketHistogram, n: f64, rank: usize) -> Option<f64> {
    assert!(rank >= 1, "ranks are 1-based");
    if !(n.is_finite()) || n < rank as f64 {
        return None;
    }
    let p = (n - rank as f64 + 1.0) / (n + 1.0);
    Some(dist.quantile(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The uniform distribution on `[0, 1]` as a two-bucket histogram.
    fn uniform() -> TwoBucketHistogram {
        TwoBucketHistogram::new(1.0, 0.5, 0.5)
    }

    #[test]
    fn uniform_order_statistics() {
        let u = uniform();
        // Max of 9 uniforms ≈ 0.9, median rank ≈ 0.5.
        let top = expected_score_at_rank(&u, 9.0, 1).unwrap();
        assert!((top - 0.9).abs() < 1e-9);
        let mid = expected_score_at_rank(&u, 9.0, 5).unwrap();
        assert!((mid - 0.5).abs() < 1e-9);
        let last = expected_score_at_rank(&u, 9.0, 9).unwrap();
        assert!((last - 0.1).abs() < 1e-9);
    }

    #[test]
    fn rank_beyond_n_is_none() {
        let u = uniform();
        assert!(expected_score_at_rank(&u, 3.0, 4).is_none());
        assert!(expected_score_at_rank(&u, 0.0, 1).is_none());
        assert!(expected_score_at_rank(&u, 2.9, 3).is_none());
        assert!(expected_score_at_rank(&u, 3.0, 3).is_some());
    }

    #[test]
    fn monotone_in_rank() {
        let h = TwoBucketHistogram::new(1.0, 0.3, 0.8);
        let s1 = expected_score_at_rank(&h, 100.0, 1).unwrap();
        let s10 = expected_score_at_rank(&h, 100.0, 10).unwrap();
        let s50 = expected_score_at_rank(&h, 100.0, 50).unwrap();
        assert!(s1 > s10);
        assert!(s10 > s50);
    }

    #[test]
    fn more_answers_raise_expected_top() {
        let h = TwoBucketHistogram::new(1.0, 0.3, 0.8);
        let few = expected_score_at_rank(&h, 5.0, 1).unwrap();
        let many = expected_score_at_rank(&h, 500.0, 1).unwrap();
        assert!(many > few);
        assert!(many <= 1.0);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn rank_zero_panics() {
        let u = uniform();
        let _ = expected_score_at_rank(&u, 5.0, 0);
    }

    #[test]
    fn non_finite_n_is_none() {
        // Cardinality estimates are arithmetic over floats — a degenerate
        // estimator can hand us NaN or ∞. Both must refuse to predict
        // rather than produce a garbage quantile argument.
        let u = uniform();
        assert!(expected_score_at_rank(&u, f64::NAN, 1).is_none());
        assert!(expected_score_at_rank(&u, f64::INFINITY, 1).is_none());
        assert!(expected_score_at_rank(&u, f64::NEG_INFINITY, 1).is_none());
    }
}
