//! Workload measurement.

use datagen::Dataset;
use specqp::{
    precision_at_k, prediction_covering, prediction_exact, required_relaxations, score_error,
    Engine, ScoreError,
};

/// The k values of the paper's evaluation (§4.4).
pub const KS: [usize; 3] = [10, 15, 20];
/// Consecutive runs per (query, technique) pair.
pub const RUNS: usize = 5;
/// Trailing runs that enter the average.
pub const MEASURED_RUNS: usize = 3;

/// Everything measured for one (query, k) cell.
#[derive(Clone, Debug)]
pub struct QueryMeasurement {
    /// Query index in the workload.
    pub qid: usize,
    /// Number of triple patterns (`#TP`).
    pub tp: usize,
    /// The k of this run.
    pub k: usize,
    /// Spec-QP planning time (ms, averaged).
    pub spec_plan_ms: f64,
    /// Spec-QP total time = plan + execute (ms, averaged).
    pub spec_total_ms: f64,
    /// TriniT total time (ms, averaged).
    pub trinit_total_ms: f64,
    /// Spec-QP answer objects created.
    pub spec_mem: u64,
    /// TriniT answer objects created.
    pub trinit_mem: u64,
    /// Number of patterns Spec-QP decided to relax.
    pub relaxed_by_spec: usize,
    /// Number of patterns whose relaxations contribute to the true top-k.
    pub relaxed_required: usize,
    /// Exact-prediction indicator (Table 3 criterion).
    pub prediction_exact: bool,
    /// Covering-prediction indicator (every required pattern relaxed;
    /// supersets allowed — quality-preserving misses).
    pub prediction_covering: bool,
    /// Precision (= recall) against the TriniT top-k.
    pub precision: f64,
    /// Score error against the TriniT top-k.
    pub error: ScoreError,
}

/// All measurements over one dataset.
#[derive(Clone, Debug)]
pub struct DatasetReport {
    /// Dataset name ("xkg"/"twitter").
    pub name: String,
    /// One row per (query, k).
    pub rows: Vec<QueryMeasurement>,
}

impl DatasetReport {
    /// Rows for one k.
    pub fn for_k(&self, k: usize) -> impl Iterator<Item = &QueryMeasurement> {
        self.rows.iter().filter(move |r| r.k == k)
    }
}

/// Runs the full §4.4 protocol over a dataset.
///
/// `ks` selects the top-k values (the paper uses 10/15/20). Progress is
/// reported through `progress` (e.g. `|msg| eprintln!("{msg}")`).
pub fn measure_workload(
    dataset: &Dataset,
    ks: &[usize],
    mut progress: impl FnMut(&str),
) -> DatasetReport {
    let engine = Engine::new(&dataset.graph, &dataset.registry);
    let mut rows = Vec::with_capacity(dataset.workload.len() * ks.len());

    for (qid, query) in dataset.workload.queries.iter().enumerate() {
        for &k in ks {
            // Warm: statistics catalog + cardinality oracle + OS caches.
            engine.warm(query, k);

            // Spec-QP: RUNS consecutive runs, average the last MEASURED.
            let mut spec_plan = 0.0;
            let mut spec_total = 0.0;
            let mut spec_last = None;
            for run in 0..RUNS {
                let out = engine.run_specqp(query, k);
                if run >= RUNS - MEASURED_RUNS {
                    spec_plan += out.report.planning.as_secs_f64() * 1e3;
                    spec_total += out.report.total_time().as_secs_f64() * 1e3;
                }
                spec_last = Some(out);
            }
            let spec = spec_last.expect("RUNS > 0");
            spec_plan /= MEASURED_RUNS as f64;
            spec_total /= MEASURED_RUNS as f64;

            let mut trinit_total = 0.0;
            let mut trinit_last = None;
            for run in 0..RUNS {
                let out = engine.run_trinit(query, k);
                if run >= RUNS - MEASURED_RUNS {
                    trinit_total += out.report.total_time().as_secs_f64() * 1e3;
                }
                trinit_last = Some(out);
            }
            let trinit = trinit_last.expect("RUNS > 0");
            trinit_total /= MEASURED_RUNS as f64;

            let required =
                required_relaxations(&dataset.graph, query, &dataset.registry, &trinit.answers);
            let row = QueryMeasurement {
                qid,
                tp: query.len(),
                k,
                spec_plan_ms: spec_plan,
                spec_total_ms: spec_total,
                trinit_total_ms: trinit_total,
                spec_mem: spec.report.answers_created,
                trinit_mem: trinit.report.answers_created,
                relaxed_by_spec: spec.plan.relaxed_count(),
                relaxed_required: required.len(),
                prediction_exact: prediction_exact(&spec.plan, &required),
                prediction_covering: prediction_covering(&spec.plan, &required),
                precision: precision_at_k(&spec.answers, &trinit.answers, k),
                error: score_error(&spec.answers, &trinit.answers, k),
            };
            rows.push(row);
        }
        if (qid + 1) % 10 == 0 || qid + 1 == dataset.workload.len() {
            progress(&format!(
                "  [{}] {}/{} queries measured",
                dataset.name,
                qid + 1,
                dataset.workload.len()
            ));
        }
    }

    DatasetReport {
        name: dataset.name.clone(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{XkgConfig, XkgGenerator};

    #[test]
    fn harness_produces_consistent_rows() {
        let mut cfg = XkgConfig::small(11);
        cfg.queries = 3;
        let ds = XkgGenerator::new(cfg).generate();
        let report = measure_workload(&ds, &[10], |_| {});
        assert_eq!(report.rows.len(), 3);
        for r in &report.rows {
            assert!((2..=4).contains(&r.tp));
            assert!(r.precision >= 0.0 && r.precision <= 1.0);
            assert!(r.spec_total_ms >= r.spec_plan_ms);
            assert!(r.relaxed_by_spec <= r.tp);
            assert!(r.relaxed_required <= r.tp);
            assert!(r.trinit_mem > 0);
        }
    }
}
