//! Operator instrumentation.
//!
//! The paper reports "no. of answer objects created" as its memory metric
//! (§4.3). Every operator in this crate routes answer construction through a
//! shared [`OpMetrics`] handle so that a query run can report exactly that
//! number, along with list-access counts useful for diagnosing operator
//! behaviour.
//!
//! [`CacheMetrics`] is the thread-safe sibling used by cross-query caches
//! (the engine's plan cache): plain atomics, shareable between service
//! worker threads.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, interior-mutable counters for one query execution.
///
/// Execution is single-threaded (operators are pull-based trees), so plain
/// `Cell`s suffice; the handle is an `Rc` cloned into each operator.
#[derive(Default, Debug)]
pub struct OpMetrics {
    answers_created: Cell<u64>,
    sorted_accesses: Cell<u64>,
    random_accesses: Cell<u64>,
    heap_pushes: Cell<u64>,
    fallback_stages: Cell<u64>,
    wasted_answers: Cell<u64>,
}

/// Cheap cloneable handle to [`OpMetrics`].
pub type MetricsHandle = Rc<OpMetrics>;

impl OpMetrics {
    /// Fresh all-zero counters.
    pub fn new_handle() -> MetricsHandle {
        Rc::new(OpMetrics::default())
    }

    /// Records the materialization of `n` answer objects (scan emissions
    /// or join results).
    #[inline]
    pub fn count_answers(&self, n: u64) {
        self.answers_created.set(self.answers_created.get() + n);
    }

    /// Records `n` sequential (sorted) accesses to an input list.
    #[inline]
    pub fn count_sorted_accesses(&self, n: u64) {
        self.sorted_accesses.set(self.sorted_accesses.get() + n);
    }

    /// Records `n` random accesses (hash probe hit enumerations).
    #[inline]
    pub fn count_random_accesses(&self, n: u64) {
        self.random_accesses.set(self.random_accesses.get() + n);
    }

    /// Records `n` priority-queue pushes.
    #[inline]
    pub fn count_heap_pushes(&self, n: u64) {
        self.heap_pushes.set(self.heap_pushes.get() + n);
    }

    /// Records one recovery stage taken by the speculation lifecycle (the
    /// engine escalates a mis-speculated plan and folds in the delta).
    #[inline]
    pub fn count_fallback_stage(&self) {
        self.fallback_stages.set(self.fallback_stages.get() + 1);
    }

    /// Records `n` answer objects created to no effect — by a delta run
    /// whose union left the top-k as it was: the price of a wrong
    /// speculative guess, measured instead of hidden.
    #[inline]
    pub fn count_wasted_answers(&self, n: u64) {
        self.wasted_answers.set(self.wasted_answers.get() + n);
    }

    /// Total answer objects created — the paper's memory metric.
    pub fn answers_created(&self) -> u64 {
        self.answers_created.get()
    }

    /// Total sequential list accesses.
    pub fn sorted_accesses(&self) -> u64 {
        self.sorted_accesses.get()
    }

    /// Total random accesses.
    pub fn random_accesses(&self) -> u64 {
        self.random_accesses.get()
    }

    /// Total priority-queue pushes.
    pub fn heap_pushes(&self) -> u64 {
        self.heap_pushes.get()
    }

    /// Recovery stages taken across this run.
    pub fn fallback_stages(&self) -> u64 {
        self.fallback_stages.get()
    }

    /// Answer objects created to no effect (see
    /// [`count_wasted_answers`](OpMetrics::count_wasted_answers)).
    pub fn wasted_answers(&self) -> u64 {
        self.wasted_answers.get()
    }
}

/// Thread-safe hit/miss/eviction accounting for a cross-query cache.
///
/// Unlike [`OpMetrics`] (single-threaded, per-execution), these counters are
/// atomics: one handle is cloned into every service worker thread hitting the
/// same cache. Invariant maintained by well-behaved caches:
/// `hits() + misses() == lookups()`.
#[derive(Default, Debug)]
pub struct CacheMetrics {
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    stale: AtomicU64,
}

/// Cheap cloneable handle to [`CacheMetrics`].
pub type CacheMetricsHandle = Arc<CacheMetrics>;

impl CacheMetrics {
    /// Fresh all-zero counters behind an [`Arc`].
    pub fn new_handle() -> CacheMetricsHandle {
        Arc::new(CacheMetrics::default())
    }

    /// Records one lookup that found a cached entry.
    #[inline]
    pub fn count_hit(&self) {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one lookup that found nothing.
    #[inline]
    pub fn count_miss(&self) {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one entry inserted into the cache.
    #[inline]
    pub fn count_insertion(&self) {
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one entry evicted to make room.
    #[inline]
    pub fn count_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one entry dropped or replaced because it was built on an
    /// older graph epoch (a commit made it stale). A dropped entry is
    /// counted in addition to the miss the same lookup reports.
    #[inline]
    pub fn count_stale(&self) {
        self.stale.fetch_add(1, Ordering::Relaxed);
    }

    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Lookups that found a cached entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries inserted.
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }

    /// Entries evicted.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries dropped or replaced as epoch-stale.
    pub fn stale(&self) -> u64 {
        self.stale.load(Ordering::Relaxed)
    }

    /// Hit rate in `[0, 1]`; 0 when nothing has been looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits() as f64 / lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = OpMetrics::new_handle();
        m.count_answers(1);
        m.count_answers(4);
        m.count_sorted_accesses(1);
        m.count_random_accesses(1);
        m.count_heap_pushes(1);
        assert_eq!(m.answers_created(), 5);
        assert_eq!(m.sorted_accesses(), 1);
        assert_eq!(m.random_accesses(), 1);
        assert_eq!(m.heap_pushes(), 1);
    }

    #[test]
    fn handle_is_shared() {
        let m = OpMetrics::new_handle();
        let m2 = Rc::clone(&m);
        m2.count_answers(1);
        assert_eq!(m.answers_created(), 1);
    }

    #[test]
    fn cache_metrics_invariant_and_rate() {
        let c = CacheMetrics::new_handle();
        c.count_miss();
        c.count_insertion();
        c.count_hit();
        c.count_hit();
        c.count_eviction();
        assert_eq!(c.lookups(), 3);
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.insertions(), 1);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.hits() + c.misses(), c.lookups());
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cache_metrics_shared_across_threads() {
        let c = CacheMetrics::new_handle();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..100 {
                        c.count_miss();
                    }
                });
            }
        });
        assert_eq!(c.misses(), 400);
        assert_eq!(c.lookups(), 400);
    }
}
