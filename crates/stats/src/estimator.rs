//! The expected-score estimator (§3.1.2–§3.1.3): convolution of per-pattern
//! histograms, refit, and order-statistic score prediction.

use crate::cardinality::CardinalityEstimator;
use crate::catalog::StatsCatalog;
use crate::histogram::{TwoBucketHistogram, HEAD_FRACTION};
use crate::order_stats::expected_score_at_rank;
use crate::piecewise::PiecewiseLinearPdf;
use kgstore::KnowledgeGraph;
use sparql::TriplePattern;

/// How the piecewise-linear convolution result is compressed before the
/// next convolution step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RefitMode {
    /// Refit to the paper's two-bucket histogram after every convolution
    /// (§3.1.2: "This again results in a two-bucket histogram").
    #[default]
    TwoBucket,
}

/// The estimated score distribution of a query's answers together with the
/// estimated answer count.
#[derive(Clone, Debug)]
pub struct QueryEstimate {
    /// The final (refit) score histogram. `None` when some pattern has no
    /// matches at all — the query provably has zero answers and `n` is 0 —
    /// or when every pattern carries weight 0, so each of the `n` answers
    /// scores exactly 0.
    pub dist: Option<TwoBucketHistogram>,
    /// Estimated number of answers `n` (0 when the query provably has
    /// none).
    pub n: f64,
}

impl QueryEstimate {
    /// Expected score at `rank` (1-based from the top): `E[X₍ₙ₋ᵣₐₙₖ₊₁₎] ≈
    /// F⁻¹((n−rank+1)/(n+1))`. `None` when fewer than `rank` answers are
    /// expected.
    pub fn expected_score_at_rank(&self, rank: usize) -> Option<f64> {
        match &self.dist {
            Some(dist) => expected_score_at_rank(dist, self.n, rank),
            None => (self.n.is_finite() && self.n >= rank as f64).then_some(0.0),
        }
    }

    /// Expected best (rank-1) score.
    pub fn expected_top_score(&self) -> Option<f64> {
        self.expected_score_at_rank(1)
    }
}

/// Refits a convolution result to the two-bucket shape: the boundary σ is
/// the score below which [`1 − HEAD_FRACTION`] of the *score mass* lies, and
/// the head bucket gets [`HEAD_FRACTION`] of the probability mass — exactly
/// the structure [`PatternStats::histogram`](crate::PatternStats::histogram)
/// builds from raw data.
pub fn refit_two_bucket(pl: &PiecewiseLinearPdf) -> TwoBucketHistogram {
    let domain = pl.domain_max();
    let total_score = pl.score_mass();
    if total_score <= 0.0 || !total_score.is_finite() {
        return TwoBucketHistogram::new(domain.max(1e-9), domain / 2.0, 0.5);
    }
    let target_tail = (1.0 - HEAD_FRACTION) * total_score;
    // partial_score_mass(0, x) is continuous and increasing — bisect.
    let (mut lo, mut hi) = (0.0_f64, domain);
    for _ in 0..64 {
        let mid = (lo + hi) / 2.0;
        if pl.partial_score_mass(0.0, mid) < target_tail {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let sigma = (lo + hi) / 2.0;
    TwoBucketHistogram::new(domain, sigma, HEAD_FRACTION)
}

/// The expected-score estimator: combines the [`StatsCatalog`] (per-pattern
/// histograms) with a [`CardinalityEstimator`] (answer counts) to produce
/// [`QueryEstimate`]s for arbitrary weighted pattern sets.
pub struct ScoreEstimator<'a, C: CardinalityEstimator + ?Sized> {
    catalog: &'a StatsCatalog,
    cardinality: &'a C,
}

impl<'a, C: CardinalityEstimator + ?Sized> ScoreEstimator<'a, C> {
    /// Creates an estimator with the paper's two-bucket refit.
    pub fn new(catalog: &'a StatsCatalog, cardinality: &'a C) -> Self {
        ScoreEstimator {
            catalog,
            cardinality,
        }
    }

    /// Creates an estimator with an explicit refit mode — the one
    /// [`RefitMode`] there is, so this is [`ScoreEstimator::new`].
    pub fn with_mode(catalog: &'a StatsCatalog, cardinality: &'a C, mode: RefitMode) -> Self {
        match mode {
            RefitMode::TwoBucket => ScoreEstimator::new(catalog, cardinality),
        }
    }

    /// Estimates the score distribution and answer count of the query whose
    /// patterns (with per-pattern relaxation weights; 1.0 = not relaxed) are
    /// `weighted` (§3.1.2).
    ///
    /// The per-pattern pdfs come from the catalog; a pattern's pdf is scaled
    /// by its weight (`X′ = w·X`, Def. 8); pdfs are folded left-to-right by
    /// convolution with refit after each step; `n` comes from the
    /// cardinality estimator over the *un-weighted* pattern list. A pattern
    /// of weight 0 adds exactly 0 to every answer, the identity of the
    /// convolution, so it is left out of the fold.
    pub fn estimate(
        &self,
        graph: &KnowledgeGraph,
        weighted: &[(TriplePattern, f64)],
    ) -> QueryEstimate {
        if weighted.is_empty() {
            return QueryEstimate { dist: None, n: 0.0 };
        }
        let mut folded: Option<TwoBucketHistogram> = None;
        for (pattern, weight) in weighted {
            let Some(stats) = self.catalog.stats(graph, pattern) else {
                return QueryEstimate { dist: None, n: 0.0 };
            };
            debug_assert!((0.0..=1.0).contains(weight), "weight {weight}");
            if *weight == 0.0 {
                continue;
            }
            let hist = stats.histogram().scale(*weight);
            folded = Some(match folded {
                None => hist,
                Some(acc) => refit_two_bucket(&acc.convolve(&hist)),
            });
        }
        let patterns: Vec<TriplePattern> = weighted.iter().map(|(p, _)| *p).collect();
        let n = self.cardinality.cardinality(graph, &patterns);
        if n <= 0.0 {
            return QueryEstimate { dist: None, n: 0.0 };
        }
        QueryEstimate { dist: folded, n }
    }

    /// Convenience: estimate for unweighted (original) patterns.
    pub fn estimate_original(
        &self,
        graph: &KnowledgeGraph,
        patterns: &[TriplePattern],
    ) -> QueryEstimate {
        let weighted: Vec<(TriplePattern, f64)> = patterns.iter().map(|p| (*p, 1.0)).collect();
        self.estimate(graph, &weighted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::ExactCardinality;
    use kgstore::{KnowledgeGraph, KnowledgeGraphBuilder};
    use sparql::Var;

    /// A graph where 100 entities are `big` with power-law scores and a
    /// subset is `small`.
    fn graph() -> KnowledgeGraph {
        let mut b = KnowledgeGraphBuilder::new();
        for i in 0..100 {
            let score = 1000.0 / (i as f64 + 1.0);
            b.add(&format!("e{i}"), "type", "big", score);
            if i % 2 == 0 {
                b.add(&format!("e{i}"), "type", "even", score * 0.7);
            }
        }
        b.build()
    }

    fn pat(g: &KnowledgeGraph, class: &str) -> TriplePattern {
        let d = g.dictionary();
        TriplePattern::new(Var(0), d.lookup("type").unwrap(), d.lookup(class).unwrap())
    }

    #[test]
    fn single_pattern_estimate() {
        let g = graph();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        let est = ScoreEstimator::new(&catalog, &card);
        let e = est.estimate_original(&g, &[pat(&g, "big")]);
        assert_eq!(e.n, 100.0);
        let top = e.expected_top_score().unwrap();
        assert!(top > 0.8 && top <= 1.0, "top={top}");
        // Deep ranks land in the tail.
        let deep = e.expected_score_at_rank(90).unwrap();
        assert!(deep < 0.2, "deep={deep}");
    }

    #[test]
    fn two_pattern_estimate_domain_and_rank() {
        let g = graph();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        let est = ScoreEstimator::new(&catalog, &card);
        let e = est.estimate_original(&g, &[pat(&g, "big"), pat(&g, "even")]);
        assert_eq!(e.n, 50.0);
        let top = e.expected_top_score().unwrap();
        assert!(top > 1.0 && top <= 2.0, "top={top}");
        assert!(e.expected_score_at_rank(51).is_none());
    }

    #[test]
    fn weighting_caps_the_top_score() {
        let g = graph();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        let est = ScoreEstimator::new(&catalog, &card);
        let w = 0.6;
        let e = est.estimate(&g, &[(pat(&g, "big"), w)]);
        let top = e.expected_top_score().unwrap();
        assert!(top <= w + 1e-9, "top={top} must be ≤ weight {w}");
        assert!(top > w * 0.8);
    }

    #[test]
    fn empty_pattern_yields_no_distribution() {
        let g = graph();
        let d = g.dictionary();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        let est = ScoreEstimator::new(&catalog, &card);
        let ghost = TriplePattern::new(Var(0), d.lookup("type").unwrap(), d.lookup("e0").unwrap());
        let e = est.estimate_original(&g, &[pat(&g, "big"), ghost]);
        assert!(e.dist.is_none());
        assert_eq!(e.n, 0.0);
        assert!(e.expected_top_score().is_none());
    }

    /// Pins the `None`-propagation contract of [`QueryEstimate`] across all
    /// degenerate inputs: a dead distribution or an unfillable rank must
    /// surface as `None` (never a panic, never a leaked `Some`), because
    /// PLANGEN reads `None` as "the original query cannot fill the top-k".
    #[test]
    fn degenerate_ranks_propagate_none() {
        let g = graph();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        let est = ScoreEstimator::new(&catalog, &card);

        // An empty pattern list has no distribution and no answers.
        let empty = est.estimate(&g, &[]);
        assert!(empty.dist.is_none());
        assert_eq!(empty.n, 0.0);
        assert!(empty.expected_top_score().is_none());
        assert!(empty.expected_score_at_rank(1_000_000).is_none());

        // dist == None after a zero-match convolution: every rank is None,
        // including rank 1 and absurdly deep ranks.
        let none = QueryEstimate { dist: None, n: 0.0 };
        for rank in [1, 2, 50, usize::MAX] {
            assert!(none.expected_score_at_rank(rank).is_none());
        }

        // n == 0 with a live distribution (cannot arise from `estimate`,
        // which normalizes to dist=None, but the struct is public): rank 1
        // already exceeds the answer count.
        let hollow = QueryEstimate {
            dist: Some(TwoBucketHistogram::new(1.0, 0.5, 0.5)),
            n: 0.0,
        };
        assert!(hollow.expected_score_at_rank(1).is_none());

        // rank > n on a healthy estimate.
        let e = est.estimate_original(&g, &[pat(&g, "big")]);
        assert_eq!(e.n, 100.0);
        assert!(e.expected_score_at_rank(100).is_some());
        assert!(e.expected_score_at_rank(101).is_none());
    }

    #[test]
    fn refit_two_bucket_preserves_shape() {
        let u = TwoBucketHistogram::new(1.0, 0.5, 0.5);
        let tri = u.convolve(&u);
        let h = refit_two_bucket(&tri);
        assert!((h.domain_max() - 2.0).abs() < 1e-9);
        // σ should sit where 20% of the score mass is below: for the
        // triangle, total score mass = 1 (mean), tail target = 0.2.
        let sigma = h.sigma();
        assert!((tri.partial_score_mass(0.0, sigma) - 0.2).abs() < 1e-6);
        // Refit keeps the mean in the right neighbourhood.
        let mean = (1.0 - HEAD_FRACTION) * sigma / 2.0 + HEAD_FRACTION * (sigma + 2.0) / 2.0;
        assert!((mean - 1.0).abs() < 0.25);
    }

    /// A weight-0 pattern adds 0 to every answer: it leaves the folded
    /// distribution as it was, keeps the answer count, and a query of
    /// weight-0 patterns alone expects every answer at exactly 0.
    #[test]
    fn weight_zero_pattern_adds_nothing() {
        let g = graph();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        let est = ScoreEstimator::new(&catalog, &card);
        let (big, even) = (pat(&g, "big"), pat(&g, "even"));

        let alone = est.estimate(&g, &[(big, 1.0)]);
        let with_zero = est.estimate(&g, &[(big, 1.0), (even, 0.0)]);
        assert_eq!(with_zero.n, 50.0, "the count still joins both patterns");
        assert_eq!(with_zero.dist, alone.dist);

        let zeros = est.estimate(&g, &[(even, 0.0)]);
        assert_eq!(zeros.n, 50.0);
        assert_eq!(zeros.expected_top_score(), Some(0.0));
        assert_eq!(zeros.expected_score_at_rank(50), Some(0.0));
        assert_eq!(zeros.expected_score_at_rank(51), None);
    }

    #[test]
    fn three_pattern_fold_stays_bounded() {
        let g = graph();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        let est = ScoreEstimator::new(&catalog, &card);
        let q = [pat(&g, "big"), pat(&g, "even"), pat(&g, "big")];
        let e = est.estimate_original(&g, &q);
        if let Some(top) = e.expected_top_score() {
            assert!(top <= 3.0 + 1e-9);
            assert!(top > 0.0);
        }
        let d = e.dist.unwrap();
        assert!((d.domain_max() - 3.0).abs() < 1e-6);
        assert!((d.mass() - 1.0).abs() < 1e-6);
    }

    /// Pins PLANGEN's numbers to the bit on the fixed graph: the other
    /// tests compare within a tolerance, so a change that moves an estimate
    /// in its last bits passes them and fails here. Ranks 1 and 10 read
    /// the head bucket; rank 45 reads the tail of the two- and
    /// three-pattern folds, whose 50 answers it nearly exhausts.
    #[test]
    fn estimates_are_pinned_to_the_bit() {
        let g = graph();
        let catalog = StatsCatalog::new();
        let card = ExactCardinality::new();
        let est = ScoreEstimator::new(&catalog, &card);
        let (big, even) = (pat(&g, "big"), pat(&g, "even"));
        let cases = [
            (
                vec![(big, 1.0)],
                [0x3fef9e0329545887, 0x3fec2c1f9d4b7548, 0x3fdd8d1c87a71f86],
            ),
            (
                vec![(big, 1.0), (even, 1.0)],
                [0x3fff80d07c55394f, 0x3ffb0824db543d16, 0x3fdb9979eb40c8e3],
            ),
            (
                vec![(big, 1.0), (even, 1.0), (big, 1.0)],
                [0x4007ad502a6257cb, 0x4004c521a7d76df1, 0x3fe976885d5964b5],
            ),
            (
                vec![(big, 0.6)],
                [0x3fe2f8684bff6851, 0x3fe0e7462b2d465e, 0x3fd1bb111e3112e9],
            ),
        ];
        for (weighted, want) in cases {
            let e = est.estimate(&g, &weighted);
            let bits = |v: Option<f64>| v.expect("rank within n").to_bits();
            let got = [
                bits(e.expected_top_score()),
                bits(e.expected_score_at_rank(10)),
                bits(e.expected_score_at_rank(45)),
            ];
            assert_eq!(got, want, "{weighted:?}");
        }
    }
}
