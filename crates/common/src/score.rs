//! Exact answer scores.
//!
//! An answer's score (Def. 6 of the paper) is a sum over its patterns of
//! normalized, weighted triple scores (Defs. 5 and 8). Every such term is in
//! \[0, 1\], so [`Score`] stores it as a fixed-point `u64` with 2⁻³²
//! resolution. Sums, bounds, heaps and floors are then integer operations:
//! they are associative, so every join-tree shape, recovery delta and block
//! size yields the same bits, and "equal" between two plans means `==`.
//!
//! A float becomes a score in one place, `Score::round`, which rounds to
//! the nearest 2⁻³². A scan forms each row's term with [`Score::weighted`]
//! — `w · (raw / max)` in `f64`, rounded once — and the naive oracle and
//! the ground-truth provenance read their terms off a scan too. Rule
//! weights (the head score of a relaxation's scan), PLANGEN's predictions
//! and the verifier's potentials go through [`Score::new`].
//!
//! Raw triple scores (`S(t)` of Def. 1: inlink counts, retweet counts, …)
//! stay reals; they are the store's own type, not this one.

use std::fmt;
use std::iter::Sum;
use std::ops::Add;

/// 2³², the fixed-point scale: one unit of a [`Score`] is 2⁻³².
const SCALE: f64 = 4_294_967_296.0;

/// 2⁵²: the sum of it and a real in \[0, 2⁵²) has no bits below the units,
/// so the addition itself rounds the real to an integer.
const UNITS: f64 = 4_503_599_627_370_496.0;

/// The largest real a rounded score can hold: 2²⁰ less one unit.
const LIMIT: f64 = (UNITS - 1.0) / SCALE;

/// A non-negative answer score in fixed point with 2⁻³² resolution.
///
/// Addition saturates at [`Score::MAX`], the bound of a side that is not
/// yet bounded: it absorbs every addition, as +∞ would.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Score(u64);

impl Score {
    /// The zero score.
    pub const ZERO: Score = Score(0);
    /// The unit score — the head of every normalized match list (Def. 5).
    pub const ONE: Score = Score(1 << 32);
    /// Above every real score: the bound of an unbounded input.
    pub const MAX: Score = Score(u64::MAX);

    /// Rounds `v` to the nearest 2⁻³² (ties to even). Negative values
    /// become [`Score::ZERO`]; values from 2²⁰ up all become the largest
    /// score below 2²⁰.
    ///
    /// # Panics
    /// Panics if `v` is NaN.
    #[inline]
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "score must not be NaN");
        Score::round(v)
    }

    /// The normalized, weighted score of a raw triple score:
    /// `weight · (raw / normalizer)` (Defs. 5 and 8), zero when the
    /// normalizer is. Every scan row goes through here, so every reader of
    /// a match rounds the same real the same way.
    #[inline]
    pub fn weighted(weight: Score, raw: f64, normalizer: f64) -> Score {
        if normalizer == 0.0 {
            return Score::ZERO;
        }
        Score::round(weight.value() * (raw / normalizer))
    }

    /// The one float-to-score conversion: clamps `v` into \[0, `LIMIT`\]
    /// (NaN to 0) and rounds it with one addition of [`UNITS`], whose bits
    /// then hold the result. No libm call and no saturating cast: a scan
    /// row costs a multiply, an add and an integer subtract.
    #[inline]
    #[allow(clippy::manual_clamp)] // `clamp` would pass a NaN through.
    fn round(v: f64) -> Score {
        let units = v.max(0.0).min(LIMIT) * SCALE + UNITS;
        Score(units.to_bits() - UNITS.to_bits())
    }

    /// The score as a real. Exact for every score below 2²¹ (any sum of
    /// realistic pattern counts).
    #[inline]
    pub fn value(self) -> f64 {
        self.0 as f64 / SCALE
    }

    /// The larger of two scores.
    #[inline]
    pub fn max(self, other: Score) -> Score {
        Ord::max(self, other)
    }

    /// The smaller of two scores.
    #[inline]
    pub fn min(self, other: Score) -> Score {
        Ord::min(self, other)
    }
}

impl Add for Score {
    type Output = Score;
    #[inline]
    fn add(self, rhs: Score) -> Score {
        Score(self.0.saturating_add(rhs.0))
    }
}

impl Sum for Score {
    fn sum<I: Iterator<Item = Score>>(iter: I) -> Score {
        iter.fold(Score::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Score {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.value())
    }
}

impl fmt::Display for Score {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*}", prec, self.value())
        } else {
            write!(f, "{}", self.value())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_allows_sorting() {
        let mut v = vec![Score::new(0.3), Score::new(1.2), Score::new(0.0)];
        v.sort();
        assert_eq!(v, vec![Score::ZERO, Score::new(0.3), Score::new(1.2)]);
    }

    #[test]
    fn sums_are_exact_and_associative() {
        let (a, b, c) = (Score::new(0.1), Score::new(0.2), Score::new(0.3));
        assert_eq!((a + b) + c, a + (b + c));
        assert_eq!([c, a, b].into_iter().sum::<Score>(), a + b + c);
        assert_eq!((Score::new(0.5) + Score::new(0.25)).value(), 0.75);
        // The f64 sums associate differently; the fixed-point ones cannot.
        assert_ne!((0.1 + 0.2) + 0.3, 0.1 + (0.2 + 0.3));
    }

    #[test]
    fn rounds_to_nearest_and_saturates() {
        assert_eq!(Score::new(1.0), Score::ONE);
        assert_eq!(Score::new(0.4 / SCALE), Score::ZERO);
        assert_eq!(Score::new(0.6 / SCALE), Score(1));
        assert_eq!(Score::new(1.5 / SCALE), Score(2));
        assert_eq!(Score::new(2.5 / SCALE), Score(2));
        assert_eq!(Score::new(-1.0), Score::ZERO);
        assert_eq!(Score::new(LIMIT), Score((1 << 52) - 1));
        assert_eq!(Score::new(f64::INFINITY), Score::new(LIMIT));
        assert_eq!(Score::MAX + Score::ONE, Score::MAX);
    }

    #[test]
    fn weighted_normalizes_then_rounds_once() {
        let w = Score::new(0.8);
        assert_eq!(Score::weighted(w, 10.0, 10.0), w);
        assert_eq!(Score::weighted(Score::ONE, 4.0, 10.0), Score::new(0.4));
        assert_eq!(Score::weighted(w, 4.0, 0.0), Score::ZERO);
    }

    #[test]
    fn min_max() {
        let a = Score::new(0.9);
        let b = Score::new(0.4);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_panics() {
        let _ = Score::new(f64::NAN);
    }
}
