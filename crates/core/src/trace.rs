//! Timing and memory reports for query runs.

use operators::OpMetrics;
use std::time::Duration;

/// What one query execution cost (§4.3's efficiency metrics), including the
/// speculation lifecycle's overhead when a verification policy is active.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Time spent in PLANGEN (zero for the TriniT baseline, which has no
    /// speculation step).
    pub planning: Duration,
    /// Time spent pulling the top-k through the operator tree — the
    /// speculative execution plus every recovery stage's delta runs.
    pub execution: Duration,
    /// Time spent in the mis-speculation verifier (zero under
    /// `SpeculationPolicy::Off`).
    pub verify: Duration,
    /// The paper's memory proxy: answer objects created by scans, merges
    /// and joins (all recovery stages included).
    pub answers_created: u64,
    /// Sequential (sorted) accesses: rows the scans read from their match
    /// lists (list reads).
    pub sorted_accesses: u64,
    /// Rows the rank joins and the star join pulled from their children: a
    /// list row counts once per join it climbs through, and never in
    /// `sorted_accesses`.
    pub join_pulls: u64,
    /// Random accesses: a rank join's hash-probe hits, a star join's store
    /// reads.
    pub random_accesses: u64,
    /// Priority-queue pushes inside rank joins and the star join.
    pub heap_pushes: u64,
    /// Recovery stages taken by the speculation lifecycle.
    pub fallback_stages: u64,
    /// Answer objects created to no effect: by delta runs whose union left
    /// the top-k exactly as it was — the measured price of escalating a
    /// pattern that did not need it. The speculative execution itself is
    /// kept, not discarded, so it never counts.
    pub wasted_answers: u64,
    /// `true` when the verifier classified the run as mis-speculated (the
    /// recovery stages have been folded into the answers).
    pub mis_speculated: bool,
}

impl RunReport {
    /// A report carrying `metrics`' counters, its durations zero and
    /// `mis_speculated` unset.
    pub fn of(metrics: &OpMetrics) -> Self {
        RunReport {
            answers_created: metrics.answers_created(),
            sorted_accesses: metrics.sorted_accesses(),
            join_pulls: metrics.join_pulls(),
            random_accesses: metrics.random_accesses(),
            heap_pushes: metrics.heap_pushes(),
            fallback_stages: metrics.fallback_stages(),
            wasted_answers: metrics.wasted_answers(),
            ..Default::default()
        }
    }

    /// Planning + execution + verification — the "runtimes" plotted in
    /// Figures 6–9 ("We measure the time taken to plan and execute each
    /// query"), extended with the lifecycle's verify phase so fallback
    /// overhead is never hidden from the headline number.
    pub fn total_time(&self) -> Duration {
        self.planning + self.execution + self.verify
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_is_sum() {
        let r = RunReport {
            planning: Duration::from_millis(2),
            execution: Duration::from_millis(40),
            verify: Duration::from_millis(1),
            ..Default::default()
        };
        assert_eq!(r.total_time(), Duration::from_millis(43));
    }

    #[test]
    fn default_report_has_no_lifecycle_activity() {
        let r = RunReport::default();
        assert_eq!(r.verify, Duration::ZERO);
        assert_eq!(r.fallback_stages, 0);
        assert_eq!(r.wasted_answers, 0);
        assert!(!r.mis_speculated);
    }
}
