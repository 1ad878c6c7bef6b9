//! What one run of one workload reports, and how it is printed.

use crate::json::Json;
use crate::spec::{self, MetricSpec};
use crate::stats::{percentile_of, summarize, Summary};

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples behind the value (1 for a count or a ratio).
    pub n: usize,
    /// Quartiles and supported tail, for timings.
    pub summary: Option<Summary>,
}

#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub cores: usize,
    /// `fnv1a_64` over the generated triples, rules, query texts and
    /// schedules: equal seeds must give equal fingerprints.
    pub fingerprint: u64,
    pub attempted: u64,
    pub failed: u64,
    /// What went wrong, one line per kind of failure.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn unit_of(name: &str) -> &'static str {
        spec::find(name).map_or("", |m| m.unit)
    }

    /// A single measured value.
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_n(name, value, 1);
    }

    pub fn put_n(&mut self, name: &str, value: f64, n: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: Self::unit_of(name).to_string(),
            n,
            summary: None,
        });
    }

    /// The median of `samples`, which are in the metric's unit.
    pub fn put_p50(&mut self, name: &str, samples: Vec<f64>) {
        let summary = summarize(samples);
        self.metrics.push(Metric {
            name: name.to_string(),
            value: summary.p50,
            unit: Self::unit_of(name).to_string(),
            n: summary.n,
            summary: Some(summary),
        });
    }

    /// The nearest-rank `pct`-th percentile of `samples`.
    pub fn put_pct(&mut self, name: &str, samples: &[f64], pct: f64) {
        self.put_n(name, percentile_of(samples, pct), samples.len());
    }

    /// The ungated Spec-QP latency details every workload reports: the tails
    /// over all its Spec-QP samples, and the median by pattern count as in
    /// Fig. 6. `spec_ms(None)` gives all samples, `spec_ms(Some(n))` those of
    /// the queries with `n` patterns.
    pub fn put_spec_details(&mut self, spec_ms: impl Fn(Option<usize>) -> Vec<f64>) {
        let all = spec_ms(None);
        self.put_pct("detail.specqp_ms_p95", &all, 95.0);
        self.put_pct("detail.specqp_ms_p99", &all, 99.0);
        for tp in 2..=4 {
            self.put_p50(&format!("detail.tp{tp}_specqp_ms_p50"), spec_ms(Some(tp)));
        }
    }

    /// What the service accounted per request (`Response.queued`,
    /// `Response.execution`) and what is left of the `submit`→`wait` wall
    /// time, in microseconds.
    pub fn put_service_times(&mut self, queued: Vec<f64>, exec: Vec<f64>, handoff: Vec<f64>) {
        self.put_pct("service.queue_wait_us_p95", &queued, 95.0);
        self.put_p50("service.queue_wait_us_p50", queued);
        self.put_p50("service.exec_us_p50", exec);
        self.put_p50("service.handoff_us_p50", handoff);
    }

    /// Counts one checked operation; `Err` describes why it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        // Keep the report readable when one bug fails a thousand operations.
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Operations that failed, were refused or shed, or answered wrongly, as
    /// a share of those attempted.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// A run is correct when nothing it checked failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The metrics this run owes the driver: the end-to-end set for an
    /// untraced run, the per-layer set for a traced one.
    pub fn owed(&self) -> &'static [MetricSpec] {
        if self.traced {
            &spec::PER_LAYER
        } else {
            &spec::END_TO_END
        }
    }

    /// Names owed but not reported.
    pub fn missing(&self) -> Vec<&'static str> {
        self.owed()
            .iter()
            .filter(|m| self.value(m.name).is_none())
            .map(|m| m.name)
            .collect()
    }

    /// Fills the per-layer metrics of layers this workload never enters
    /// with 0; `unused` lists them by name so that a metric dropped by
    /// accident still shows up as missing.
    pub fn zero_unused(&mut self, unused: &[&str]) {
        for name in unused {
            if self.value(name).is_none() {
                self.put_n(name, 0.0, 0);
            }
        }
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding exactly the owed metrics.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .owed()
            .iter()
            .filter_map(|spec| {
                let m = self.metrics.iter().find(|m| m.name == spec.name)?;
                Some((
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(&m.unit)),
                    ]),
                ))
            })
            .collect();
        Json::obj(vec![
            (
                "correct",
                Json::Bool(self.correct() && self.missing().is_empty()),
            ),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// One line per metric: `workload metric value unit n`, then quartiles
    /// and the supported tail where the metric is a timing.
    pub fn human_lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                let mut line = format!(
                    "{} {} {} {} {}",
                    self.workload, m.name, m.value, m.unit, m.n
                );
                if let Some(s) = &m.summary {
                    line.push_str(&format!(" q1={} q3={}", s.q1, s.q3));
                    if let Some((pct, v)) = s.tail {
                        line.push_str(&format!(" p{pct}={v}"));
                    }
                }
                line
            })
            .collect()
    }

    /// Everything, for `--out` and for `compare`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(&m.unit)),
                    ("n", Json::Num(m.n as f64)),
                ];
                if let Some(s) = &m.summary {
                    fields.push(("q1", Json::Num(s.q1)));
                    fields.push(("q3", Json::Num(s.q3)));
                    if let Some((pct, v)) = s.tail {
                        fields.push(("tail_pct", Json::Num(pct)));
                        fields.push(("tail", Json::Num(v)));
                    }
                }
                (m.name.clone(), Json::obj(fields))
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(&self.workload)),
            ("seed", Json::str(&self.seed.to_string())),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("cores", Json::Num(self.cores as f64)),
            (
                "fingerprint",
                Json::str(&format!("{:016x}", self.fingerprint)),
            ),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("fail_ratio", Json::Num(self.fail_ratio())),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| Json::str(f)).collect()),
            ),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}
