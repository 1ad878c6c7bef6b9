//! Per-pattern statistics and the two-bucket histogram model (§3.1.1).

use crate::piecewise::{Distribution, PiecewiseConstantPdf};
use kgstore::MatchList;

/// The fraction of the *score mass* held by the head bucket. The paper uses
/// the 80/20 rule: "80% of the score mass lies in the 20% of the answers".
pub const HEAD_FRACTION: f64 = 0.8;

/// Width clamp so degenerate bucket boundaries (σ = 0 or σ = 1) keep both
/// buckets strictly positive-width.
const EPS: f64 = 1e-9;

/// The four precomputed values the paper stores per triple pattern
/// (§3.1.1), over the pattern's **normalized** scores (head of list = 1):
///
/// * `m` — number of matching triples,
/// * `sigma_r` — the normalized score at rank `r`, where `r` is the first
///   rank at which the cumulative score reaches [`HEAD_FRACTION`] of the
///   total,
/// * `s_r` — cumulative normalized score over ranks `1..=r`,
/// * `s_m` — total normalized score over all `m` ranks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PatternStats {
    /// Match count `mᵢ`.
    pub m: u64,
    /// Normalized score at the 80%-mass rank (`σᵢᵣ`).
    pub sigma_r: f64,
    /// Cumulative normalized score through rank `r` (`Sᵢᵣ`).
    pub s_r: f64,
    /// Total normalized score (`Sᵢₘ`).
    pub s_m: f64,
}

impl PatternStats {
    /// Computes the statistics from a score-descending match list, reading
    /// its score column through [`MatchList::scores`]. Returns `None` for
    /// empty lists (the pattern has no matches, hence no distribution).
    pub fn from_match_list(list: &MatchList<'_>) -> Option<Self> {
        Self::from_ranked(list.len(), || list.scores(0..list.len()).map(|s| s.value()))
    }

    /// Computes the statistics from a plain slice of scores sorted
    /// descending, normalized here by the first.
    pub fn from_sorted_scores(scores: &[f64]) -> Option<Self> {
        debug_assert!(scores.windows(2).all(|w| w[0] >= w[1]));
        Self::from_ranked(scores.len(), || scores.iter().copied())
    }

    /// The statistics of `m` raw scores in descending order, which each
    /// call of `scores` reads from the top: once for the total, then again
    /// up to the rank where the head mass is reached.
    fn from_ranked<I: Iterator<Item = f64>>(m: usize, scores: impl Fn() -> I) -> Option<Self> {
        let max = scores().next()?;
        if max <= 0.0 {
            // All-zero scores: model as a degenerate uniform head.
            return Some(PatternStats {
                m: m as u64,
                sigma_r: 1.0,
                s_r: 0.0,
                s_m: 0.0,
            });
        }
        let mut total = 0.0;
        for s in scores() {
            total += s / max;
        }
        let target = HEAD_FRACTION * total;
        let mut cum = 0.0;
        let mut sigma_r = 1.0;
        let mut s_r = 0.0;
        for s in scores() {
            let s = s / max;
            cum += s;
            if cum >= target {
                sigma_r = s;
                s_r = cum;
                break;
            }
        }
        Some(PatternStats {
            m: m as u64,
            sigma_r,
            s_r,
            s_m: total,
        })
    }

    /// The two-bucket histogram these statistics define (domain `[0,1]`).
    pub fn histogram(&self) -> TwoBucketHistogram {
        let head_mass = if self.s_m > 0.0 {
            (self.s_r / self.s_m).clamp(EPS, 1.0 - EPS)
        } else {
            // Degenerate: no score mass — put everything in the head so the
            // quantiles collapse to the top.
            1.0 - EPS
        };
        TwoBucketHistogram::new(1.0, self.sigma_r, head_mass)
    }
}

/// The paper's two-bucket score histogram over `[0, D]` (Fig. 3):
///
/// * tail bucket `[0, σ)` with probability mass `1 − head_mass`
///   (the "long tail" holding ~20% of the score mass),
/// * head bucket `[σ, D]` with probability mass `head_mass` (~80%).
///
/// The pdf is uniform inside each bucket, which reproduces §3.1.1's
///
/// ```text
/// f(x) = (S_m − S_r)/S_m · 1/σ        for 0 ≤ x < σ
///        S_r/S_m       · 1/(D − σ)    for σ ≤ x ≤ D
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TwoBucketHistogram {
    domain: f64,
    sigma: f64,
    head_mass: f64,
}

impl TwoBucketHistogram {
    /// Builds the histogram, clamping `sigma` into `(0, domain)` and
    /// `head_mass` into `(0, 1)` so both buckets keep positive width/mass.
    ///
    /// # Panics
    /// Panics if `domain ≤ 0` or inputs are non-finite.
    pub fn new(domain: f64, sigma: f64, head_mass: f64) -> Self {
        assert!(
            domain > 0.0 && domain.is_finite(),
            "domain must be positive, got {domain}"
        );
        assert!(sigma.is_finite() && head_mass.is_finite());
        let sigma = sigma.clamp(domain * EPS, domain * (1.0 - EPS));
        let head_mass = head_mass.clamp(EPS, 1.0 - EPS);
        TwoBucketHistogram {
            domain,
            sigma,
            head_mass,
        }
    }

    /// The bucket boundary σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The probability mass of the head bucket `[σ, D]`.
    pub fn head_mass(&self) -> f64 {
        self.head_mass
    }

    /// Density in the tail bucket.
    pub fn tail_height(&self) -> f64 {
        (1.0 - self.head_mass) / self.sigma
    }

    /// Density in the head bucket.
    pub fn head_height(&self) -> f64 {
        self.head_mass / (self.domain - self.sigma)
    }

    /// Scales the random variable by `w > 0` (Def. 8 relaxation weight):
    /// the histogram of `w·X`.
    pub fn scale(&self, w: f64) -> TwoBucketHistogram {
        assert!(w > 0.0);
        TwoBucketHistogram {
            domain: self.domain * w,
            sigma: self.sigma * w,
            head_mass: self.head_mass,
        }
    }

    /// Converts to the generic histogram representation for convolution.
    pub fn to_piecewise_constant(&self) -> PiecewiseConstantPdf {
        PiecewiseConstantPdf::new(
            vec![0.0, self.sigma, self.domain],
            vec![self.tail_height(), self.head_height()],
        )
    }
}

impl Distribution for TwoBucketHistogram {
    fn domain_max(&self) -> f64 {
        self.domain
    }

    fn mass(&self) -> f64 {
        1.0
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x < self.sigma {
            self.tail_height() * x
        } else if x < self.domain {
            (1.0 - self.head_mass) + self.head_height() * (x - self.sigma)
        } else {
            1.0
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let tail = 1.0 - self.head_mass;
        if p <= tail {
            p / self.tail_height()
        } else {
            self.sigma + (p - tail) / self.head_height()
        }
    }

    fn mean(&self) -> f64 {
        let tail = (1.0 - self.head_mass) * self.sigma / 2.0;
        let head = self.head_mass * (self.sigma + self.domain) / 2.0;
        tail + head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgstore::{KnowledgeGraphBuilder, PatternKey};

    #[test]
    fn stats_from_power_law_scores() {
        // 10 scores, strong head: the 80% mass rank arrives early.
        let scores = [100.0, 50.0, 20.0, 5.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let norm: Vec<f64> = scores.iter().map(|s| s / 100.0).collect();
        let st = PatternStats::from_sorted_scores(&norm).unwrap();
        assert_eq!(st.m, 10);
        // total = 1.82; 80% = 1.456; cumulative: 1.0, 1.5 → rank 2 crosses.
        assert!((st.s_m - 1.82).abs() < 1e-9);
        assert!((st.sigma_r - 0.5).abs() < 1e-9);
        assert!((st.s_r - 1.5).abs() < 1e-9);
    }

    #[test]
    fn stats_from_match_list_matches_slice_path() {
        let mut b = KnowledgeGraphBuilder::new();
        for (i, s) in [100.0, 50.0, 20.0, 5.0, 2.0].iter().enumerate() {
            b.add(&format!("e{i}"), "type", "c", *s);
        }
        let kg = b.build();
        let p = kg.dictionary().lookup("type").unwrap();
        let c = kg.dictionary().lookup("c").unwrap();
        let list = kg.matches(PatternKey::po(p, c));
        let st = PatternStats::from_match_list(&list).unwrap();
        let st2 = PatternStats::from_sorted_scores(&[1.0, 0.5, 0.2, 0.05, 0.02]).unwrap();
        assert_eq!(st, st2);
    }

    #[test]
    fn empty_list_has_no_stats() {
        assert!(PatternStats::from_sorted_scores(&[]).is_none());
    }

    #[test]
    fn single_answer_stats() {
        let st = PatternStats::from_sorted_scores(&[1.0]).unwrap();
        assert_eq!(st.m, 1);
        assert_eq!(st.sigma_r, 1.0);
        let h = st.histogram();
        // Quantiles concentrate near 1.
        assert!(h.quantile(0.9) > 0.9);
    }

    #[test]
    fn histogram_cdf_quantile_roundtrip() {
        let h = TwoBucketHistogram::new(1.0, 0.5, 0.8);
        for p in [0.05, 0.1, 0.2, 0.5, 0.8, 0.95] {
            let x = h.quantile(p);
            assert!((h.cdf(x) - p).abs() < 1e-9, "p={p}");
        }
        assert_eq!(h.cdf(-1.0), 0.0);
        assert_eq!(h.cdf(2.0), 1.0);
    }

    #[test]
    fn histogram_matches_paper_formulas() {
        // With S_m, S_r from stats, the pdf heights must equal §3.1.1.
        let st = PatternStats {
            m: 100,
            sigma_r: 0.4,
            s_r: 32.0,
            s_m: 40.0,
        };
        let h = st.histogram();
        let tail_expected = (40.0 - 32.0) / 40.0 / 0.4; // (S_m−S_r)/S_m · 1/σ
        let head_expected = 32.0 / 40.0 / (1.0 - 0.4); // S_r/S_m · 1/(1−σ)
        assert!((h.tail_height() - tail_expected).abs() < 1e-9);
        assert!((h.head_height() - head_expected).abs() < 1e-9);
        // Mass integrates to 1.
        let pc = h.to_piecewise_constant();
        assert!((pc.mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scale_by_weight() {
        let h = TwoBucketHistogram::new(1.0, 0.5, 0.8);
        let s = h.scale(0.8);
        assert!((s.domain_max() - 0.8).abs() < 1e-12);
        assert!((s.sigma() - 0.4).abs() < 1e-12);
        // Top quantile approaches w.
        assert!(s.quantile(0.999) <= 0.8 + 1e-9);
        assert!((s.mean() - 0.8 * h.mean()).abs() < 1e-9);
    }

    #[test]
    fn degenerate_sigma_clamped() {
        let h = TwoBucketHistogram::new(1.0, 0.0, 0.8);
        assert!(h.sigma() > 0.0);
        let h = TwoBucketHistogram::new(1.0, 1.0, 0.8);
        assert!(h.sigma() < 1.0);
        // cdf is still monotone.
        assert!(h.cdf(0.3) <= h.cdf(0.9));
    }

    #[test]
    fn all_equal_scores() {
        let st = PatternStats::from_sorted_scores(&[1.0; 10]).unwrap();
        // 80% of mass is reached at rank 8: sigma stays 1.0.
        assert_eq!(st.sigma_r, 1.0);
        assert_eq!(st.m, 10);
        let h = st.histogram();
        // Nearly all quantiles near the top.
        assert!(h.quantile(0.5) > 0.9);
    }

    #[test]
    fn zero_scores_degenerate() {
        let st = PatternStats::from_sorted_scores(&[0.0, 0.0]).unwrap();
        let h = st.histogram();
        let q = h.quantile(0.5);
        assert!(q.is_finite());
    }
}
