//! Service-lifetime statistics: atomic counters that survive across
//! requests and connections.
//!
//! A server that admits requests one at a time over many connections needs
//! numbers that accumulate for the whole life of the service. The counters
//! here are plain atomics updated on the worker threads' hot path (one
//! `fetch_add` per event, a handful per completed query) and read via
//! [`LifetimeCounters::snapshot`], which materializes per-[`ExecMode`]
//! latency breakdowns plus admission/shedding totals.
//!
//! Latency percentiles cannot be kept exactly without storing every sample,
//! so each mode keeps a fixed 64-bucket power-of-two histogram of
//! microsecond latencies: bucket *i* counts samples in `[2^(i-1), 2^i) µs`.
//! Reported p50/p99 are the upper bound of the bucket holding the rank —
//! at most 2x off, stable under concurrency, and allocation-free.

use crate::ExecMode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two latency buckets (covers > 5 hours in µs).
const BUCKETS: usize = 64;

/// Lock-free log2 histogram of microsecond latencies.
#[derive(Debug)]
struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        // Bucket 0 holds 0µs; bucket i holds [2^(i-1), 2^i).
        let idx = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Upper bound of the bucket containing rank `⌈q·n⌉` (nearest-rank over
    /// the bucketed sample). `Duration::ZERO` when empty.
    fn percentile(&self, counts: &[u64; BUCKETS], q: f64) -> Duration {
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return Duration::ZERO;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper_us = if i == 0 { 0 } else { 1u64 << i };
                return Duration::from_micros(upper_us);
            }
        }
        Duration::ZERO
    }

    fn load(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// Per-mode accumulation: counts, latency sum/max and the histogram.
#[derive(Debug)]
struct ModeCounters {
    queries: AtomicU64,
    total_latency_us: AtomicU64,
    max_latency_us: AtomicU64,
    histogram: Histogram,
}

impl ModeCounters {
    fn new() -> Self {
        ModeCounters {
            queries: AtomicU64::new(0),
            total_latency_us: AtomicU64::new(0),
            max_latency_us: AtomicU64::new(0),
            histogram: Histogram::new(),
        }
    }

    fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.total_latency_us.fetch_add(us, Ordering::Relaxed);
        self.max_latency_us.fetch_max(us, Ordering::Relaxed);
        self.histogram.record(latency);
    }
}

/// Lifetime totals for one [`ExecMode`]: count, mean, p50, tail and max,
/// accumulated since service construction.
#[derive(Clone, Copy, Debug)]
pub struct ModeTotals {
    /// The mode these numbers describe.
    pub mode: ExecMode,
    /// Queries of this mode completed (successfully executed; shed requests
    /// never reach a mode).
    pub queries: u64,
    /// Mean per-query latency over the service lifetime.
    pub mean_latency: Duration,
    /// Approximate median latency (log2-bucket upper bound).
    pub p50_latency: Duration,
    /// Approximate 99th-percentile latency (log2-bucket upper bound).
    pub p99_latency: Duration,
    /// Worst per-query latency.
    pub max_latency: Duration,
}

/// A point-in-time copy of the service-lifetime counters.
///
/// All counts are monotonically non-decreasing across snapshots of the same
/// service. `submitted = completed + shed_deadline + in-flight`; rejected
/// requests (`rejected_queue_full` / `rejected_shutdown`) were never
/// admitted and are *not* part of `submitted`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Requests admitted into the execution queue.
    pub submitted: u64,
    /// Requests fully executed (including ones whose execution panicked).
    pub completed: u64,
    /// Requests shed unexecuted because their deadline expired in-queue.
    pub shed_deadline: u64,
    /// Non-blocking submissions refused because the queue was full.
    pub rejected_queue_full: u64,
    /// Submissions refused because the service was shutting down.
    pub rejected_shutdown: u64,
    /// Executions that panicked (caught; surfaced as
    /// [`ServiceError::Panicked`](crate::ServiceError::Panicked)).
    pub panicked: u64,
    /// Write batches committed through
    /// [`apply_writes`](crate::QueryService::apply_writes).
    pub write_batches: u64,
    /// Individual write operations across all committed batches.
    pub write_ops: u64,
    /// Write batches refused by admission control (read-only service,
    /// shutdown, an over-ceiling batch, or an invalid score).
    pub rejected_writes: u64,
    /// Per-mode lifetime latency breakdown, indexed by
    /// [`ExecMode::index`] (`None` for modes never executed).
    pub per_mode: [Option<ModeTotals>; 2],
}

impl ServiceStats {
    /// Total executed queries across all modes.
    pub fn executed(&self) -> u64 {
        self.per_mode.iter().flatten().map(|m| m.queries).sum()
    }
}

/// The live atomic counters owned by the service (shared with its workers).
#[derive(Debug)]
pub struct LifetimeCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    shed_deadline: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_shutdown: AtomicU64,
    panicked: AtomicU64,
    write_batches: AtomicU64,
    write_ops: AtomicU64,
    rejected_writes: AtomicU64,
    per_mode: [ModeCounters; 2],
}

impl Default for LifetimeCounters {
    fn default() -> Self {
        LifetimeCounters::new()
    }
}

impl LifetimeCounters {
    /// Fresh all-zero counters.
    pub fn new() -> Self {
        LifetimeCounters {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            write_batches: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            rejected_writes: AtomicU64::new(0),
            per_mode: [ModeCounters::new(), ModeCounters::new()],
        }
    }

    pub(crate) fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shed_deadline(&self) {
        self.shed_deadline.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected_queue_full(&self) {
        self.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected_shutdown(&self) {
        self.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_writes(&self, ops: u64) {
        self.write_batches.fetch_add(1, Ordering::Relaxed);
        self.write_ops.fetch_add(ops, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected_write(&self) {
        self.rejected_writes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_panicked(&self) {
        self.panicked.fetch_add(1, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_completed(&self, mode: ExecMode, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.per_mode[mode.index()].record(latency);
    }

    /// Mean executed latency across all modes — the service-time estimate
    /// feeding the `retry_after` hint. `None` until something has executed.
    pub(crate) fn mean_executed_latency(&self) -> Option<Duration> {
        let (mut n, mut total_us) = (0u64, 0u64);
        for m in &self.per_mode {
            n += m.queries.load(Ordering::Relaxed);
            total_us += m.total_latency_us.load(Ordering::Relaxed);
        }
        (n > 0).then(|| Duration::from_micros(total_us / n))
    }

    /// Materializes a consistent-enough snapshot (individual counters are
    /// read relaxed; cross-counter identities may be off by in-flight
    /// requests, as documented on [`ServiceStats`]).
    pub fn snapshot(&self) -> ServiceStats {
        let mut per_mode = [None; 2];
        for mode in ExecMode::ALL {
            let m = &self.per_mode[mode.index()];
            let queries = m.queries.load(Ordering::Relaxed);
            if queries == 0 {
                continue;
            }
            let total_us = m.total_latency_us.load(Ordering::Relaxed);
            let counts = m.histogram.load();
            per_mode[mode.index()] = Some(ModeTotals {
                mode,
                queries,
                mean_latency: Duration::from_micros(total_us / queries),
                p50_latency: m.histogram.percentile(&counts, 0.50),
                p99_latency: m.histogram.percentile(&counts, 0.99),
                max_latency: Duration::from_micros(m.max_latency_us.load(Ordering::Relaxed)),
            });
        }
        ServiceStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            write_batches: self.write_batches.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            rejected_writes: self.rejected_writes.load(Ordering::Relaxed),
            per_mode,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_recordings() {
        let c = LifetimeCounters::new();
        c.record_submitted();
        c.record_submitted();
        c.record_completed(ExecMode::SpecQp, Duration::from_micros(100));
        c.record_completed(ExecMode::SpecQp, Duration::from_micros(300));
        c.record_submitted();
        c.record_shed_deadline();
        c.record_rejected_queue_full();
        let s = c.snapshot();
        assert_eq!(s.submitted, 3);
        assert_eq!(s.completed, 2);
        assert_eq!(s.shed_deadline, 1);
        assert_eq!(s.rejected_queue_full, 1);
        assert_eq!(s.executed(), 2);
        let spec = s.per_mode[ExecMode::SpecQp.index()].expect("specqp totals");
        assert_eq!(spec.queries, 2);
        assert_eq!(spec.mean_latency, Duration::from_micros(200));
        assert_eq!(spec.max_latency, Duration::from_micros(300));
        assert!(s.per_mode[ExecMode::TriniT.index()].is_none());
    }

    #[test]
    fn histogram_percentiles_bound_the_sample() {
        let c = LifetimeCounters::new();
        // 99 fast queries and one slow outlier.
        for _ in 0..99 {
            c.record_completed(ExecMode::TriniT, Duration::from_micros(100));
        }
        c.record_completed(ExecMode::TriniT, Duration::from_millis(80));
        let t = c.snapshot().per_mode[ExecMode::TriniT.index()].unwrap();
        // p50 lands in the 100µs bucket: upper bound 128µs, lower 64µs.
        assert!(t.p50_latency >= Duration::from_micros(100));
        assert!(t.p50_latency <= Duration::from_micros(256));
        // p99 still within the fast mass (rank 99 of 100), p-max catches
        // the outlier via max_latency.
        assert!(t.p99_latency <= Duration::from_micros(256));
        assert_eq!(t.max_latency, Duration::from_millis(80));
    }

    #[test]
    fn histogram_percentile_monotone_in_q() {
        let c = LifetimeCounters::new();
        for us in [1u64, 10, 100, 1_000, 10_000, 100_000] {
            for _ in 0..10 {
                c.record_completed(ExecMode::TriniT, Duration::from_micros(us));
            }
        }
        let t = c.snapshot().per_mode[ExecMode::TriniT.index()].unwrap();
        assert!(t.p50_latency <= t.p99_latency);
        assert!(t.p99_latency <= t.max_latency.max(t.p99_latency));
        assert!(t.p99_latency >= Duration::from_micros(100_000));
    }

    /// Pins the exact bucket boundaries of the log2 histogram: bucket 0
    /// holds only 0µs, bucket `i` holds `[2^(i-1), 2^i)` — every power of
    /// two *opens* a new bucket rather than closing the previous one, and
    /// the top bucket absorbs everything from `2^62` up without overflow.
    #[test]
    fn histogram_buckets_pin_power_of_two_boundaries() {
        let bucket_of = |us: u64| -> usize {
            let h = Histogram::new();
            h.record(Duration::from_micros(us));
            h.load().iter().position(|&c| c == 1).unwrap()
        };
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2, "2^1 opens bucket 2");
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(1023), 10, "2^10 - 1 closes bucket 10");
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of((1 << 62) - 1), 62);
        assert_eq!(
            bucket_of(1 << 62),
            63,
            "top bucket is clamped, not [..2^63)"
        );
        assert_eq!(bucket_of(u64::MAX), 63);
        // A Duration whose microseconds exceed u64 saturates into the top
        // bucket instead of wrapping.
        let h = Histogram::new();
        h.record(Duration::MAX);
        assert_eq!(h.load()[63], 1);
    }

    /// Percentiles report the *upper* edge of the rank's bucket, so the
    /// estimate always bounds the true sample from above (within 2x).
    #[test]
    fn percentile_upper_bounds_are_exact_bucket_edges() {
        let h = Histogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.percentile(&h.load(), 0.5), Duration::ZERO);

        let h = Histogram::new();
        h.record(Duration::from_micros(1));
        assert_eq!(h.percentile(&h.load(), 0.5), Duration::from_micros(2));

        // A sample at an exact power of two reports the *next* power — the
        // half-open bucketing keeps the bound ≥ the sample.
        let h = Histogram::new();
        h.record(Duration::from_micros(64));
        assert_eq!(h.percentile(&h.load(), 0.99), Duration::from_micros(128));
    }

    #[test]
    fn percentile_rank_is_nearest_rank_clamped() {
        let h = Histogram::new();
        // 10 samples in bucket 1 (1µs), 10 in bucket 5 (16..32µs).
        for _ in 0..10 {
            h.record(Duration::from_micros(1));
            h.record(Duration::from_micros(20));
        }
        let counts = h.load();
        // q→0 clamps to rank 1; q=0.5 is rank 10, the last fast sample;
        // one rank further crosses into the slow bucket.
        assert_eq!(h.percentile(&counts, 0.0), Duration::from_micros(2));
        assert_eq!(h.percentile(&counts, 0.5), Duration::from_micros(2));
        assert_eq!(h.percentile(&counts, 0.51), Duration::from_micros(32));
        assert_eq!(h.percentile(&counts, 1.0), Duration::from_micros(32));
        // Empty histogram: zero, not a bucket edge.
        let empty = Histogram::new();
        assert_eq!(empty.percentile(&empty.load(), 0.99), Duration::ZERO);
    }

    #[test]
    fn mean_executed_latency_feeds_retry_hint() {
        let c = LifetimeCounters::new();
        assert_eq!(c.mean_executed_latency(), None);
        c.record_completed(ExecMode::SpecQp, Duration::from_micros(100));
        c.record_completed(ExecMode::TriniT, Duration::from_micros(300));
        assert_eq!(c.mean_executed_latency(), Some(Duration::from_micros(200)));
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = LifetimeCounters::new().snapshot();
        assert_eq!(s.submitted, 0);
        assert_eq!(s.executed(), 0);
        assert!(s.per_mode.iter().all(Option::is_none));
    }
}
