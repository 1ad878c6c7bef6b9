//! Seeded schedules: the benchmark's own random numbers, arrival times and
//! lateness accounting. Nothing here depends on the clock, so the same seed
//! gives the same schedule on any machine.

use std::time::{Duration, Instant};

/// SplitMix64: small, seedable, and good enough for shuffles and arrivals.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for another purpose under the same seed.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `0..n` in seeded order.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// Poisson arrivals at `rate_per_s` until `span`: offsets from the start,
/// ascending (cumulative exponential gaps).
pub fn poisson(rate_per_s: f64, span: Duration, rng: &mut Rng) -> Vec<Duration> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut at = 0.0;
    let mut out = Vec::new();
    loop {
        // 1 − u is in (0, 1], so the logarithm is finite.
        at += -(1.0 - rng.unit()).ln() / rate_per_s;
        if at >= span.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}

/// One arrival every `period`, the first one a period after the start,
/// while they fit in `span`.
pub fn fixed_period(period: Duration, span: Duration) -> Vec<Duration> {
    assert!(!period.is_zero(), "period must be positive");
    (1..)
        .map(|i| period * i)
        .take_while(|at| *at <= span)
        .collect()
}

/// Sleeps until `start + due` and returns how late the caller then is
/// (zero when it woke on time). An open-loop generator never skips or
/// re-times an arrival that it is late for: it sends at once, and the
/// lateness is reported next to the latencies it inflated.
pub fn wait_until(start: Instant, due: Duration) -> Duration {
    if let Some(wait) = due.checked_sub(start.elapsed()) {
        std::thread::sleep(wait);
    }
    lateness(due, start.elapsed())
}

/// How far past `due` the moment `now` is (both offsets from the start).
pub fn lateness(due: Duration, now: Duration) -> Duration {
    now.saturating_sub(due)
}

/// Latency of an operation that was due at `due` and completed at `done`
/// (offsets from the start): measured from when it should have been sent,
/// so the wait a stall imposes on later arrivals is counted.
pub fn latency_from_due(due: Duration, done: Duration) -> Duration {
    done.saturating_sub(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seed_deterministic() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, {
            let mut r = Rng::new(8);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        });
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
        assert_ne!(Rng::fork(7, 1).next_u64(), Rng::fork(7, 2).next_u64());
    }

    #[test]
    fn permutation_covers_every_index_once() {
        let mut p = Rng::new(3).permutation(50);
        assert_ne!(p, (0..50).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate() {
        let span = Duration::from_secs(20);
        let s = poisson(500.0, span, &mut Rng::new(11));
        assert_eq!(s, poisson(500.0, span, &mut Rng::new(11)));
        assert_ne!(s, poisson(500.0, span, &mut Rng::new(12)));
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.last().unwrap() < &span);
        // 10,000 expected arrivals, σ = 100: five sigma either way.
        assert!((9_500..=10_500).contains(&s.len()), "{} arrivals", s.len());
        // Exponential gaps: about 1 − 1/e of them are shorter than the mean.
        let mean_gap = 1.0 / 500.0;
        let short = s
            .windows(2)
            .filter(|w| (w[1] - w[0]).as_secs_f64() < mean_gap)
            .count() as f64
            / (s.len() - 1) as f64;
        assert!((short - 0.632).abs() < 0.03, "short-gap share {short}");
    }

    #[test]
    fn fixed_period_schedule_fills_the_span() {
        let s = fixed_period(Duration::from_millis(50), Duration::from_secs(1));
        assert_eq!(s.len(), 20);
        assert_eq!(s[0], Duration::from_millis(50));
        assert_eq!(s[19], Duration::from_secs(1));
        assert!(fixed_period(Duration::from_secs(2), Duration::from_secs(1)).is_empty());
    }

    #[test]
    fn lateness_and_latency_are_taken_from_the_due_time() {
        let ms = Duration::from_millis;
        // On time or early: not late.
        assert_eq!(lateness(ms(100), ms(100)), Duration::ZERO);
        assert_eq!(lateness(ms(100), ms(40)), Duration::ZERO);
        // The generator stalled 30 ms: the arrival is 30 ms late, and a reply
        // 5 ms after the late send is charged 35 ms, not 5.
        assert_eq!(lateness(ms(100), ms(130)), ms(30));
        assert_eq!(latency_from_due(ms(100), ms(135)), ms(35));
        // A due time already past is sent at once and its lateness reported.
        let start = Instant::now() - ms(50);
        assert!(wait_until(start, ms(10)) >= ms(40));
    }
}
