//! Property-based tests of the statistics layer: histograms, convolution,
//! order statistics.

use proptest::prelude::*;
use specqp_stats::{
    expected_score_at_rank, refit_two_bucket, Distribution, PatternStats, PiecewiseConstantPdf,
    TwoBucketHistogram,
};

/// Strategy: a normalized descending score list (head = 1.0).
fn score_list() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0001f64..1.0, 1..200).prop_map(|mut v| {
        v.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let max = v[0];
        v.iter_mut().for_each(|x| *x /= max);
        v
    })
}

/// Strategy: a valid two-bucket histogram.
fn histogram() -> impl Strategy<Value = TwoBucketHistogram> {
    (0.01f64..0.99, 0.05f64..0.95, 0.5f64..4.0).prop_map(|(sigma_frac, head_mass, domain)| {
        TwoBucketHistogram::new(domain, sigma_frac * domain, head_mass)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pattern statistics reproduce the paper's invariants: S_r ≥ 0.8·S_m,
    /// σ_r ∈ (0, 1], S_m ≥ S_r.
    #[test]
    fn pattern_stats_invariants(scores in score_list()) {
        let st = PatternStats::from_sorted_scores(&scores).unwrap();
        prop_assert_eq!(st.m as usize, scores.len());
        prop_assert!(st.s_m >= st.s_r - 1e-9);
        prop_assert!(st.s_r >= 0.8 * st.s_m - 1e-9, "S_r {} < 0.8·S_m {}", st.s_r, st.s_m);
        prop_assert!(st.sigma_r > 0.0 && st.sigma_r <= 1.0);
    }

    /// cdf is monotone, quantile inverts it, mass is 1.
    #[test]
    fn histogram_cdf_quantile_duality(h in histogram(), p in 0.0f64..1.0) {
        prop_assert!((h.mass() - 1.0).abs() < 1e-9);
        let x = h.quantile(p);
        prop_assert!(x >= 0.0 && x <= h.domain_max() + 1e-12);
        prop_assert!((h.cdf(x) - p).abs() < 1e-6, "p={p} x={x} cdf={}", h.cdf(x));
        // Monotonicity on a small grid.
        let mut last = -1e-12;
        for i in 0..=20 {
            let c = h.cdf(h.domain_max() * i as f64 / 20.0);
            prop_assert!(c + 1e-12 >= last);
            last = c;
        }
    }

    /// Convolution preserves mass and adds means; refit preserves domain and
    /// mass and keeps the mean in the convex hull of the support.
    #[test]
    fn convolution_and_refit_preserve_structure(a in histogram(), b in histogram()) {
        let pa = a.to_piecewise_constant();
        let pb = b.to_piecewise_constant();
        let conv = pa.convolve(&pb);
        prop_assert!((conv.mass() - 1.0).abs() < 1e-6, "mass {}", conv.mass());
        prop_assert!((conv.mean() - (pa.mean() + pb.mean())).abs() < 1e-6);
        prop_assert!((conv.domain_max() - (pa.domain_max() + pb.domain_max())).abs() < 1e-9);

        let refit = refit_two_bucket(&conv);
        prop_assert!((refit.domain_max() - conv.domain_max()).abs() < 1e-9);
        prop_assert!((refit.mass() - 1.0).abs() < 1e-9);
        prop_assert!(refit.mean() > 0.0 && refit.mean() < refit.domain_max());
        // The refit boundary sits at the 20% score-mass point.
        let tail = conv.partial_score_mass(0.0, refit.sigma());
        let total = conv.score_mass();
        prop_assert!((tail / total - 0.2).abs() < 1e-3, "tail fraction {}", tail / total);
    }

    /// Scaling a histogram by w scales quantiles by w.
    #[test]
    fn scaling_commutes_with_quantiles(h in histogram(), w in 0.05f64..1.0, p in 0.0f64..1.0) {
        let s = h.scale(w);
        prop_assert!((s.quantile(p) - w * h.quantile(p)).abs() < 1e-9);
    }

    /// Order statistics are monotone in rank and in n, and bounded by the
    /// domain.
    #[test]
    fn order_statistics_monotone(h in histogram(), n in 1.0f64..10_000.0) {
        let top = expected_score_at_rank(&h, n, 1);
        prop_assert!(top.is_some());
        let top = top.unwrap();
        prop_assert!(top <= h.domain_max() + 1e-12);
        let max_rank = (n as usize).max(1);
        let mid_rank = (max_rank / 2).max(1);
        if let (Some(mid), Some(last)) = (
            expected_score_at_rank(&h, n, mid_rank),
            expected_score_at_rank(&h, n, max_rank),
        ) {
            prop_assert!(top + 1e-12 >= mid);
            prop_assert!(mid + 1e-12 >= last);
        }
        prop_assert!(expected_score_at_rank(&h, n, max_rank + 1).is_none());
    }

    /// Histogram built from stats matches the paper's closed-form heights.
    #[test]
    fn stats_histogram_heights(scores in score_list()) {
        let st = PatternStats::from_sorted_scores(&scores).unwrap();
        if st.s_m > 0.0 && st.sigma_r < 1.0 - 1e-9 && st.sigma_r > 1e-9 {
            let h = st.histogram();
            let tail_expected = (st.s_m - st.s_r) / st.s_m / st.sigma_r;
            let head_expected = st.s_r / st.s_m / (1.0 - st.sigma_r);
            prop_assert!((h.tail_height() - tail_expected).abs() < 1e-6
                || (st.s_r / st.s_m) > 1.0 - 1e-9);
            prop_assert!((h.head_height() - head_expected).abs() / head_expected < 1e-6
                || (st.s_r / st.s_m) > 1.0 - 1e-9);
        }
    }
}

/// Folding seven uniform distributions the way the estimator folds a
/// seven-pattern query — convolve, then refit to two buckets — stays
/// numerically stable: mass 1 after every step, the summed domain, and a
/// mean that grows with every added uniform and stays inside the domain.
#[test]
fn iterated_convolution_stable() {
    let u = PiecewiseConstantPdf::new(vec![0.0, 1.0], vec![1.0]);
    let mut acc = u.clone();
    for _ in 0..6 {
        let before = acc.mean();
        acc = refit_two_bucket(&acc.convolve(&u)).to_piecewise_constant();
        assert!((acc.mass() - 1.0).abs() < 1e-6);
        assert!(acc.mean() > before && acc.mean() < acc.domain_max());
    }
    assert!((acc.domain_max() - 7.0).abs() < 1e-9);
}
