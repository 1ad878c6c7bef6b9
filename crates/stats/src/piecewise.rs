//! Piecewise density algebra: constant (histogram) and linear pdfs,
//! cdfs, quantiles, and exact convolution.

/// Common interface of every score-distribution representation.
pub trait Distribution {
    /// Left edge of the support (always 0 in this workspace).
    fn domain_min(&self) -> f64 {
        0.0
    }
    /// Right edge of the support (1 for a single normalized pattern, `c` for
    /// a `c`-pattern query).
    fn domain_max(&self) -> f64;
    /// Total mass (≈1; kept explicit so float drift can be normalized away).
    fn mass(&self) -> f64;
    /// Unnormalized cumulative distribution at `x`.
    fn cdf(&self, x: f64) -> f64;
    /// Inverse cdf: the `p`-quantile for `p ∈ [0,1]` relative to the total
    /// mass (so the result is normalization-independent).
    fn quantile(&self, p: f64) -> f64;
    /// Mean of the distribution (normalized).
    fn mean(&self) -> f64;
}

/// A piecewise-constant pdf (an n-bucket histogram): `heights[i]` on
/// `[edges[i], edges[i+1])`.
#[derive(Clone, Debug, PartialEq)]
pub struct PiecewiseConstantPdf {
    edges: Vec<f64>,
    heights: Vec<f64>,
}

impl PiecewiseConstantPdf {
    /// Builds a histogram pdf. Edges must be strictly increasing and heights
    /// non-negative, with `heights.len() + 1 == edges.len()`.
    ///
    /// # Panics
    /// Panics on malformed input (internal construction bug).
    pub fn new(edges: Vec<f64>, heights: Vec<f64>) -> Self {
        assert_eq!(edges.len(), heights.len() + 1, "edges/heights mismatch");
        assert!(
            edges.windows(2).all(|w| w[1] > w[0]),
            "edges must be strictly increasing: {edges:?}"
        );
        assert!(
            heights.iter().all(|&h| h >= 0.0 && h.is_finite()),
            "heights must be non-negative and finite"
        );
        PiecewiseConstantPdf { edges, heights }
    }

    /// Bucket edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Bucket heights (densities).
    pub fn heights(&self) -> &[f64] {
        &self.heights
    }

    /// Scales the random variable by `w > 0`: if `X ~ f`, returns the pdf of
    /// `w·X` (domain stretches by `w`, heights shrink by `1/w` so mass is
    /// preserved). Used to weight a relaxed pattern's distribution (Def. 8).
    pub fn scale(&self, w: f64) -> PiecewiseConstantPdf {
        assert!(w > 0.0, "scale factor must be positive, got {w}");
        PiecewiseConstantPdf {
            edges: self.edges.iter().map(|e| e * w).collect(),
            heights: self.heights.iter().map(|h| h / w).collect(),
        }
    }

    /// ∫ x·f(x) dx over the whole support — the "score mass" used by the
    /// two-bucket refit.
    pub fn score_mass(&self) -> f64 {
        let mut total = 0.0;
        for i in 0..self.heights.len() {
            let (a, b) = (self.edges[i], self.edges[i + 1]);
            total += self.heights[i] * (b * b - a * a) / 2.0;
        }
        total
    }

    /// Exact convolution with another piecewise-constant pdf. The result is
    /// continuous piecewise-linear with knots at all pairwise edge sums:
    /// `f₁₂(t) = Σᵢ h₁ᵢ · (F₂(t−aᵢ) − F₂(t−bᵢ))`.
    pub fn convolve(&self, other: &PiecewiseConstantPdf) -> PiecewiseLinearPdf {
        let mut knots: Vec<f64> = Vec::with_capacity(self.edges.len() * other.edges.len());
        for &a in &self.edges {
            for &b in &other.edges {
                knots.push(a + b);
            }
        }
        knots.sort_by(|a, b| a.partial_cmp(b).expect("finite edges"));
        knots.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let values: Vec<f64> = knots
            .iter()
            .map(|&t| self.convolve_value_at(other, t))
            .collect();
        PiecewiseLinearPdf::new(knots, values)
    }

    fn convolve_value_at(&self, other: &PiecewiseConstantPdf, t: f64) -> f64 {
        let mut v = 0.0;
        for i in 0..self.heights.len() {
            let (a, b) = (self.edges[i], self.edges[i + 1]);
            if self.heights[i] > 0.0 {
                v += self.heights[i] * (other.cdf(t - a) - other.cdf(t - b));
            }
        }
        v.max(0.0)
    }
}

impl Distribution for PiecewiseConstantPdf {
    fn domain_max(&self) -> f64 {
        *self.edges.last().expect("non-empty edges")
    }

    fn mass(&self) -> f64 {
        let mut m = 0.0;
        for i in 0..self.heights.len() {
            m += self.heights[i] * (self.edges[i + 1] - self.edges[i]);
        }
        m
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.edges[0] {
            return 0.0;
        }
        let mut c = 0.0;
        for i in 0..self.heights.len() {
            let (a, b) = (self.edges[i], self.edges[i + 1]);
            if x >= b {
                c += self.heights[i] * (b - a);
            } else {
                c += self.heights[i] * (x - a);
                break;
            }
        }
        c
    }

    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let target = p * self.mass();
        let mut c = 0.0;
        for i in 0..self.heights.len() {
            let (a, b) = (self.edges[i], self.edges[i + 1]);
            let seg = self.heights[i] * (b - a);
            if c + seg >= target {
                if seg <= 0.0 {
                    return a;
                }
                return a + (target - c) / self.heights[i];
            }
            c += seg;
        }
        self.domain_max()
    }

    fn mean(&self) -> f64 {
        let m = self.mass();
        if m <= 0.0 {
            0.0
        } else {
            self.score_mass() / m
        }
    }
}

/// A continuous piecewise-linear pdf: `values[i]` at `knots[i]`, linear in
/// between. Produced by convolving two histograms.
#[derive(Clone, Debug, PartialEq)]
pub struct PiecewiseLinearPdf {
    knots: Vec<f64>,
    values: Vec<f64>,
    /// Cumulative mass at each knot (trapezoid-exact).
    cum: Vec<f64>,
}

impl PiecewiseLinearPdf {
    /// Builds a piecewise-linear pdf from `(knot, density)` samples.
    ///
    /// # Panics
    /// Panics if fewer than two knots, knots not increasing, or negative
    /// values.
    pub fn new(knots: Vec<f64>, values: Vec<f64>) -> Self {
        assert!(knots.len() >= 2, "need at least two knots");
        assert_eq!(knots.len(), values.len());
        assert!(knots.windows(2).all(|w| w[1] > w[0]), "knots must increase");
        assert!(values.iter().all(|&v| v >= 0.0 && v.is_finite()));
        let mut cum = Vec::with_capacity(knots.len());
        cum.push(0.0);
        for i in 1..knots.len() {
            let dx = knots[i] - knots[i - 1];
            let seg = (values[i - 1] + values[i]) * dx / 2.0;
            cum.push(cum[i - 1] + seg);
        }
        PiecewiseLinearPdf { knots, values, cum }
    }

    /// The knot positions.
    pub fn knots(&self) -> &[f64] {
        &self.knots
    }

    /// Density values at the knots.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn segment_of(&self, x: f64) -> usize {
        // Largest i with knots[i] <= x, clamped into segment range.
        match self
            .knots
            .binary_search_by(|k| k.partial_cmp(&x).expect("finite"))
        {
            Ok(i) => i.min(self.knots.len() - 2),
            Err(0) => 0,
            Err(i) => (i - 1).min(self.knots.len() - 2),
        }
    }

    /// Density at `x` (0 outside the support).
    pub fn pdf(&self, x: f64) -> f64 {
        if x < self.knots[0] || x > *self.knots.last().expect("non-empty") {
            return 0.0;
        }
        let i = self.segment_of(x);
        let (x0, x1) = (self.knots[i], self.knots[i + 1]);
        let (y0, y1) = (self.values[i], self.values[i + 1]);
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// ∫ x·f(x) dx over `[a, b]` (clipped to the support) — closed-form per
    /// segment (cubic in the segment bounds).
    pub fn partial_score_mass(&self, a: f64, b: f64) -> f64 {
        let lo = a.max(self.knots[0]);
        let hi = b.min(*self.knots.last().expect("non-empty"));
        if hi <= lo {
            return 0.0;
        }
        let mut total = 0.0;
        for i in 0..self.knots.len() - 1 {
            let (x0, x1) = (self.knots[i], self.knots[i + 1]);
            let (s, e) = (lo.max(x0), hi.min(x1));
            if e <= s {
                continue;
            }
            let (y0, y1) = (self.values[i], self.values[i + 1]);
            let slope = (y1 - y0) / (x1 - x0);
            // f(x) = y0 + slope (x - x0) = c0 + slope x, c0 = y0 - slope x0
            let c0 = y0 - slope * x0;
            // ∫ x (c0 + slope x) dx = c0 x²/2 + slope x³/3
            let prim = |x: f64| c0 * x * x / 2.0 + slope * x * x * x / 3.0;
            total += prim(e) - prim(s);
        }
        total
    }

    /// Total ∫ x·f(x) dx.
    pub fn score_mass(&self) -> f64 {
        self.partial_score_mass(self.knots[0], *self.knots.last().expect("non-empty"))
    }
}

impl Distribution for PiecewiseLinearPdf {
    fn domain_max(&self) -> f64 {
        *self.knots.last().expect("non-empty")
    }

    fn mass(&self) -> f64 {
        *self.cum.last().expect("non-empty")
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.knots[0] {
            return 0.0;
        }
        if x >= *self.knots.last().expect("non-empty") {
            return self.mass();
        }
        let i = self.segment_of(x);
        let (x0, x1) = (self.knots[i], self.knots[i + 1]);
        let (y0, y1) = (self.values[i], self.values[i + 1]);
        let dx = x - x0;
        let slope = (y1 - y0) / (x1 - x0);
        self.cum[i] + y0 * dx + slope * dx * dx / 2.0
    }

    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let total = self.mass();
        if total <= 0.0 {
            return self.knots[0];
        }
        let target = p * total;
        // Find the segment containing the target cumulative mass.
        let mut i = match self
            .cum
            .binary_search_by(|c| c.partial_cmp(&target).expect("finite"))
        {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        };
        i = i.min(self.knots.len() - 2);
        let (x0, x1) = (self.knots[i], self.knots[i + 1]);
        let (y0, y1) = (self.values[i], self.values[i + 1]);
        let rem = target - self.cum[i];
        let slope = (y1 - y0) / (x1 - x0);
        // Solve y0·d + slope·d²/2 = rem for d ∈ [0, x1-x0].
        let d = if slope.abs() < 1e-12 {
            if y0 <= 1e-15 {
                0.0
            } else {
                rem / y0
            }
        } else {
            // d = (-y0 + sqrt(y0² + 2·slope·rem)) / slope
            let disc = (y0 * y0 + 2.0 * slope * rem).max(0.0);
            (-y0 + disc.sqrt()) / slope
        };
        (x0 + d).clamp(x0, x1)
    }

    fn mean(&self) -> f64 {
        let m = self.mass();
        if m <= 0.0 {
            0.0
        } else {
            self.score_mass() / m
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform01() -> PiecewiseConstantPdf {
        PiecewiseConstantPdf::new(vec![0.0, 1.0], vec![1.0])
    }

    #[test]
    fn pc_mass_cdf_quantile() {
        let h = PiecewiseConstantPdf::new(vec![0.0, 0.5, 1.0], vec![0.4, 1.6]);
        assert!((h.mass() - 1.0).abs() < 1e-12);
        assert!((h.cdf(0.5) - 0.2).abs() < 1e-12);
        assert!((h.cdf(1.0) - 1.0).abs() < 1e-12);
        assert!((h.quantile(0.2) - 0.5).abs() < 1e-12);
        assert!((h.quantile(0.6) - 0.75).abs() < 1e-12);
        assert!((h.quantile(0.0) - 0.0).abs() < 1e-12);
        assert!((h.quantile(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pc_mean_and_score_mass() {
        let u = uniform01();
        assert!((u.mean() - 0.5).abs() < 1e-12);
        assert!((u.score_mass() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pc_scale_preserves_mass() {
        let h = PiecewiseConstantPdf::new(vec![0.0, 0.5, 1.0], vec![0.4, 1.6]);
        let s = h.scale(0.8);
        assert!((s.mass() - 1.0).abs() < 1e-12);
        assert!((s.domain_max() - 0.8).abs() < 1e-12);
        assert!((s.mean() - 0.8 * h.mean()).abs() < 1e-12);
    }

    #[test]
    fn convolution_of_uniforms_is_triangle() {
        // U[0,1] * U[0,1] = triangle on [0,2] peaking at 1 with height 1.
        let tri = uniform01().convolve(&uniform01());
        assert!((tri.mass() - 1.0).abs() < 1e-9);
        assert!((tri.pdf(1.0) - 1.0).abs() < 1e-9);
        assert!((tri.pdf(0.5) - 0.5).abs() < 1e-9);
        assert!((tri.pdf(1.5) - 0.5).abs() < 1e-9);
        assert!(tri.pdf(0.0).abs() < 1e-9);
        assert!(tri.pdf(2.0).abs() < 1e-9);
        // cdf at the midpoint is exactly 1/2 by symmetry.
        assert!((tri.cdf(1.0) - 0.5).abs() < 1e-9);
        assert!((tri.quantile(0.5) - 1.0).abs() < 1e-9);
        // Mean of the sum is the sum of the means.
        assert!((tri.mean() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn convolution_mass_is_product_of_masses() {
        let a = PiecewiseConstantPdf::new(vec![0.0, 0.3, 1.0], vec![0.5, 25.0 / 14.0]);
        let b = PiecewiseConstantPdf::new(vec![0.0, 0.6, 1.0], vec![1.0, 1.0]);
        let c = a.convolve(&b);
        assert!((c.mass() - a.mass() * b.mass()).abs() < 1e-9);
        // Mean adds.
        assert!((c.mean() - (a.mean() + b.mean())).abs() < 1e-9);
    }

    #[test]
    fn pl_quantile_inverts_cdf() {
        let tri = uniform01().convolve(&uniform01());
        for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let x = tri.quantile(p);
            assert!(
                (tri.cdf(x) / tri.mass() - p).abs() < 1e-9,
                "p={p}, x={x}, cdf={}",
                tri.cdf(x)
            );
        }
    }

    #[test]
    fn pl_partial_score_mass() {
        let tri = uniform01().convolve(&uniform01());
        // By symmetry, score mass of [0,1] + [1,2] = mean = 1.
        let lo = tri.partial_score_mass(0.0, 1.0);
        let hi = tri.partial_score_mass(1.0, 2.0);
        assert!((lo + hi - 1.0).abs() < 1e-9);
        assert!(hi > lo); // mass above the peak carries more score
    }

    #[test]
    fn degenerate_narrow_bucket() {
        // A spike bucket should still give sane quantiles.
        let h = PiecewiseConstantPdf::new(
            vec![0.0, 1.0 - 1e-9, 1.0],
            vec![0.2 / (1.0 - 1e-9), 0.8 / 1e-9],
        );
        assert!((h.mass() - 1.0).abs() < 1e-6);
        let q = h.quantile(0.9);
        assert!(q > 0.999);
    }

    #[test]
    fn triple_convolution_mean_adds() {
        let u = uniform01();
        let two = PiecewiseConstantPdf::new(vec![0.0, 1.0, 2.0], vec![0.5, 0.5]);
        let three = two.convolve(&u);
        assert!((three.mean() - 1.5).abs() < 0.01);
        assert!((three.mass() - 1.0).abs() < 1e-6);
        assert!((three.domain_max() - 3.0).abs() < 1e-9);
    }
}
