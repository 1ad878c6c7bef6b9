//! Operator instrumentation.
//!
//! The paper reports "no. of answer objects created" as its memory metric
//! (§4.3). Every operator in this crate routes answer construction through a
//! shared [`OpMetrics`] handle so that a query run can report exactly that
//! number, along with list-access counts useful for diagnosing operator
//! behaviour. (The cross-query caches count their hits and misses in
//! `kgstore::CacheMetrics`, next to the epoch memo they serve from.)

use std::cell::Cell;
use std::rc::Rc;

/// Shared, interior-mutable counters for one query execution.
///
/// Execution is single-threaded (operators are pull-based trees), so plain
/// `Cell`s suffice; the handle is an `Rc` cloned into each operator.
#[derive(Default, Debug)]
pub struct OpMetrics {
    answers_created: Cell<u64>,
    sorted_accesses: Cell<u64>,
    join_pulls: Cell<u64>,
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

    /// Records `n` sequential (sorted) accesses: rows a scan read from its
    /// match list.
    #[inline]
    pub fn count_sorted_accesses(&self, n: u64) {
        self.sorted_accesses.set(self.sorted_accesses.get() + n);
    }

    /// Records `n` rows a rank join or star join pulled from a child.
    #[inline]
    pub fn count_join_pulls(&self, n: u64) {
        self.join_pulls.set(self.join_pulls.get() + n);
    }

    /// Records `n` random accesses: rank-join hash-probe hits, or store
    /// reads of a star join's probes.
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

    /// Total sequential accesses: the rows scans read from their match
    /// lists (list reads).
    pub fn sorted_accesses(&self) -> u64 {
        self.sorted_accesses.get()
    }

    /// Total rows the rank joins pulled from their children.
    pub fn join_pulls(&self) -> u64 {
        self.join_pulls.get()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = OpMetrics::new_handle();
        m.count_answers(1);
        m.count_answers(4);
        m.count_sorted_accesses(1);
        m.count_join_pulls(2);
        m.count_random_accesses(1);
        m.count_heap_pushes(1);
        assert_eq!(m.answers_created(), 5);
        assert_eq!(m.sorted_accesses(), 1);
        assert_eq!(m.join_pulls(), 2);
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
}
