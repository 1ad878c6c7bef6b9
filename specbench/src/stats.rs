//! The benchmark's own arithmetic over samples.

use std::collections::BTreeMap;

/// Sorts ascending; NaN never occurs in measured durations.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `pct` percent of the samples at or below it. 0 for no samples.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(pct, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// `⌈pct% of n⌉`. The slack keeps 99.9% of 10,000 at 9,990: in floating
/// point the product comes out a hair above the whole number.
fn nearest_rank(pct: f64, n: usize) -> usize {
    (pct / 100.0 * n as f64 - 1e-9).ceil() as usize
}

pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// Nearest-rank median of unsorted samples.
pub fn median_of(samples: impl IntoIterator<Item = f64>) -> f64 {
    median(&sorted(samples.into_iter().collect()))
}

/// The percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 5] = [90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it: a tail read off fewer samples is an anecdote. `None` when even
/// p90 has fewer (under 100 samples).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|pct| n.saturating_sub(nearest_rank(*pct, n)) >= 10)
}

/// Σ numerators ÷ Σ denominators — not the mean of the ratios, which a few
/// fast cells would dominate. 0 when the denominator is 0.
pub fn ratio_of_sums(numerators: &[f64], denominators: &[f64]) -> f64 {
    let den: f64 = denominators.iter().sum();
    if den == 0.0 {
        0.0
    } else {
        numerators.iter().sum::<f64>() / den
    }
}

/// Median Spec-QP and TriniT time per cell, for the cells timed in both
/// modes. Samples are `(cell, is Spec-QP, time)`.
pub fn paired_medians<K: Ord>(
    samples: impl Iterator<Item = (K, bool, f64)>,
) -> BTreeMap<K, (f64, f64)> {
    let mut by_cell: BTreeMap<K, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (cell, spec, time) in samples {
        let (s, t) = by_cell.entry(cell).or_default();
        if spec { s } else { t }.push(time);
    }
    by_cell
        .into_iter()
        .filter(|(_, (s, t))| !s.is_empty() && !t.is_empty())
        .map(|(cell, (s, t))| (cell, (median_of(s), median_of(t))))
        .collect()
}

/// Σ first ÷ Σ second over `(Spec-QP, TriniT)` pairs.
pub fn ratio_of_pairs<'a>(pairs: impl Iterator<Item = &'a (f64, f64)>) -> f64 {
    let (spec, trinit): (Vec<f64>, Vec<f64>) = pairs.copied().unzip();
    ratio_of_sums(&spec, &trinit)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (exclusive method), which is what the driver judges spread with.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let at = |i: usize| -> f64 {
        // Position i·(n+1)/4 on a 1-based scale, clamped and interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// How one timing is printed: median, quartiles, sample count, and the
/// highest percentile the sample supports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)`.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(samples: Vec<f64>) -> Summary {
    let s = sorted(samples);
    let (q1, _, q3) = quartiles(&s);
    Summary {
        n: s.len(),
        p50: median(&s),
        q1,
        q3,
        tail: highest_supported_percentile(s.len()).map(|pct| (pct, percentile(&s, pct))),
    }
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile_of(samples: &[f64], pct: f64) -> f64 {
    percentile(&sorted(samples.to_vec()), pct)
}

/// FNV-1a, 64 bit: the input fingerprint.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Odd count: the true middle.
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn ratio_of_sums_is_not_mean_of_ratios() {
        // One slow cell where Spec-QP wins 2x, one fast cell where it loses 2x.
        let spec = [50.0, 2.0];
        let trinit = [100.0, 1.0];
        let r = ratio_of_sums(&spec, &trinit);
        assert!((r - 52.0 / 101.0).abs() < 1e-12);
        assert_eq!(ratio_of_sums(&[1.0], &[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&s);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 4.0]);
        assert_eq!((q1, q2, q3), (1.0, 2.0, 4.0));
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let s = summarize((1..=200).map(f64::from).collect());
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.tail, Some((95.0, 190.0)));
        assert_eq!(summarize(vec![3.0, 1.0]).tail, None);
    }

    #[test]
    fn fnv1a_known_vectors() {
        let mut h = Fnv1a::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
