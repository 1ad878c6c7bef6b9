//! specbench — the repository's benchmark.
//!
//! Four workloads, seven end-to-end metrics, and a per-layer breakdown timed
//! from outside the crates. See `README.md` next to this package and
//! `BENCHMARK.json` at the repository root.

mod adapter;
mod check;
mod cli;
mod compare;
mod inputs;
mod json;
mod layers;
mod live;
mod paper;
mod report;
mod schedule;
mod served;
mod spans;
mod spec;
mod stats;

use report::Report;
use spans::Tracer;

/// What one run of one workload is asked to do.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    pub scale: adapter::Scale,
    pub traced: bool,
    /// Smoke-test mode: set up once however often the workload would.
    pub quick: bool,
    /// `available_parallelism`: the ceiling on client threads.
    pub cores: usize,
}

impl Ctx {
    /// Client threads a workload may start: what it wants, capped at the
    /// cores there are. More generator threads than cores measure the
    /// scheduler, not the server.
    pub fn client_threads(&self, wanted: usize) -> usize {
        wanted.min(self.cores).max(1)
    }

    /// How many times a run sets up: `full` times when `setup_s` is being
    /// measured, so that its median can be reported, and otherwise once.
    pub fn setups(&self, full: usize) -> usize {
        if self.quick || self.traced {
            1
        } else {
            full
        }
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process in MB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Runs one workload and returns its report and, for a traced run, its
/// spans. `None` for a name that is not a workload.
pub fn run_workload(name: &str, ctx: &Ctx) -> Option<(Report, Tracer)> {
    let mut report = Report {
        workload: name.to_string(),
        seed: ctx.seed,
        seconds: ctx.seconds,
        traced: ctx.traced,
        cores: ctx.cores,
        ..Report::default()
    };
    let mut tracer = Tracer::default();
    match name {
        spec::PAPER_STEADY => paper::run(ctx, false, &mut report, &mut tracer),
        spec::PAPER_COLD => paper::run(ctx, true, &mut report, &mut tracer),
        spec::SERVED_SMALL => served::run(ctx, &mut report, &mut tracer),
        spec::LIVE_CHURN => live::run(ctx, &mut report, &mut tracer),
        _ => return None,
    }
    Some((report, tracer))
}

fn main() -> std::process::ExitCode {
    cli::main()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status =
            "Name:\tspecbench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123456.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb() > 1.0);
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<Json> {
        doc.get(key).and_then(Json::as_arr).unwrap().to_vec()
    }

    /// `BENCHMARK.json` and `spec.rs` say the same thing.
    #[test]
    fn benchmark_json_matches_the_compiled_in_tables() {
        let doc = benchmark_json();
        let workloads: Vec<(String, String)> = declared(&doc, "workloads")
            .iter()
            .map(|w| {
                (
                    w.get("name").unwrap().as_str().unwrap().to_string(),
                    w.get("why").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect();
        let want: Vec<(String, String)> = spec::WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, want);

        for (key, table) in [
            ("end_to_end", &spec::END_TO_END[..]),
            ("per_layer", &spec::PER_LAYER[..]),
        ] {
            let listed = declared(&doc, key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (m, want) in listed.iter().zip(table) {
                assert_eq!(m.get("name").unwrap().as_str(), Some(want.name));
                assert_eq!(
                    m.get("unit").unwrap().as_str(),
                    Some(want.unit),
                    "{}",
                    want.name
                );
                assert_eq!(
                    m.get("better").unwrap().as_str(),
                    Some(want.better.label()),
                    "{}",
                    want.name
                );
                assert_eq!(
                    m.get("bound").and_then(Json::as_f64),
                    want.bound,
                    "{}",
                    want.name
                );
            }
        }
        let names: BTreeSet<&str> = spec::END_TO_END
            .iter()
            .chain(&spec::PER_LAYER)
            .map(|m| m.name)
            .collect();
        assert_eq!(
            names.len(),
            spec::END_TO_END.len() + spec::PER_LAYER.len(),
            "a name is used twice"
        );
        assert!(spec::EXACT_ON_PAPER.iter().all(|n| spec::find(n).is_some()));
        assert!(spec::END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// Each workload at toy scale, untraced and traced: the metric names it
    /// emits are exactly the ones `BENCHMARK.json` lists, and nothing fails.
    #[test]
    fn every_workload_emits_exactly_the_declared_metrics() {
        let doc = benchmark_json();
        for (name, _) in spec::WORKLOADS {
            for traced in [false, true] {
                let ctx = Ctx {
                    seed: 42,
                    seconds: 0.3,
                    scale: adapter::Scale::Toy,
                    traced,
                    quick: true,
                    cores: cores(),
                };
                let (report, tracer) = run_workload(name, &ctx).unwrap();
                assert_eq!(
                    report.failures,
                    Vec::<String>::new(),
                    "{name} traced={traced}"
                );
                assert!(report.correct(), "{name} traced={traced}");
                assert_eq!(
                    report.missing(),
                    Vec::<&str>::new(),
                    "{name} traced={traced}"
                );

                let line = json::parse(&report.driver_line()).unwrap();
                let keys: Vec<&str> = line
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
                let emitted: BTreeSet<String> = json::metric_values(line.get("metrics").unwrap())
                    .into_keys()
                    .collect();
                let key = if traced { "per_layer" } else { "end_to_end" };
                let listed: BTreeSet<String> = declared(&doc, key)
                    .iter()
                    .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                    .collect();
                assert_eq!(emitted, listed, "{name} traced={traced}");
                if traced {
                    assert!(
                        !tracer.spans().is_empty(),
                        "{name}: a traced run records spans"
                    );
                } else {
                    for (metric, value) in json::metric_values(line.get("metrics").unwrap()) {
                        assert!(value > 0.0, "{name} {metric} must never read 0");
                    }
                }
            }
        }
    }
}
