//! The piecewise-linear pdf that convolving two two-bucket histograms
//! yields (§3.1.2), and the score mass the two-bucket refit reads from it.

/// A continuous piecewise-linear pdf: `values[i]` at `knots[i]`, linear in
/// between. Produced by
/// [`TwoBucketHistogram::convolve`](crate::TwoBucketHistogram::convolve).
#[derive(Clone, Debug, PartialEq)]
pub struct PiecewiseLinearPdf {
    knots: Vec<f64>,
    values: Vec<f64>,
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
        PiecewiseLinearPdf { knots, values }
    }

    /// Right edge of the support.
    pub fn domain_max(&self) -> f64 {
        *self.knots.last().expect("non-empty")
    }

    /// ∫ x·f(x) dx over `[a, b]` (clipped to the support) — closed-form per
    /// segment (cubic in the segment bounds).
    pub fn partial_score_mass(&self, a: f64, b: f64) -> f64 {
        let lo = a.max(self.knots[0]);
        let hi = b.min(self.domain_max());
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

    /// Total ∫ x·f(x) dx: the mean, for a pdf of mass 1.
    pub fn score_mass(&self) -> f64 {
        self.partial_score_mass(self.knots[0], self.domain_max())
    }
}
