//! `compare`: the repeatability check. Two result documents of one commit
//! and one seed must agree — end-to-end metrics within their bounds, exact
//! counts exactly, input fingerprints to the bit — or the benchmark cannot
//! tell a regression from its own noise.

use crate::json::{self, Json};
use crate::spec;
use std::collections::BTreeMap;

pub struct Verdict {
    pub ok: bool,
    pub lines: Vec<String>,
}

/// The runs of a document: the `runs` of an `all` document, or the document
/// itself when it is a single run.
fn runs(doc: &Json) -> Vec<&Json> {
    match doc.get("runs").and_then(Json::as_arr) {
        Some(list) => list.iter().collect(),
        None => vec![doc],
    }
}

type RunKey = (String, bool);

fn keyed(doc: &Json) -> Result<BTreeMap<RunKey, &Json>, String> {
    runs(doc)
        .into_iter()
        .map(|run| {
            let workload = run
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("a run without a workload name")?;
            let traced = run.get("traced").and_then(Json::as_bool).unwrap_or(false);
            Ok(((workload.to_string(), traced), run))
        })
        .collect()
}

/// How far apart two values are, as a share of the smaller one.
pub fn spread(a: f64, b: f64) -> f64 {
    let (lo, hi) = if a.abs() <= b.abs() { (a, b) } else { (b, a) };
    if lo == hi {
        0.0
    } else if lo == 0.0 {
        f64::INFINITY
    } else {
        (hi - lo).abs() / lo.abs()
    }
}

pub fn compare(a: &Json, b: &Json) -> Result<Verdict, String> {
    let (a, b) = (keyed(a)?, keyed(b)?);
    let mut ok = true;
    let mut lines = Vec::new();
    if a.keys().ne(b.keys()) {
        return Err("the two documents hold different runs".to_string());
    }
    for (key, run_a) in &a {
        let run_b = b[key];
        let (workload, traced) = key;
        let tag = format!("{workload}{}", if *traced { " (traced)" } else { "" });
        let field = |run: &Json, name: &str| run.get(name).and_then(Json::as_str).map(String::from);
        let (fa, fb) = (field(run_a, "fingerprint"), field(run_b, "fingerprint"));
        if fa == fb && field(run_a, "seed") == field(run_b, "seed") {
            lines.push(format!("{tag}: inputs {}", fa.unwrap_or_default()));
        } else {
            ok = false;
            lines.push(format!("{tag}: FAIL inputs differ: {fa:?} against {fb:?}"));
        }
        for run in [run_a, run_b] {
            if run.get("correct").and_then(Json::as_bool) != Some(true) {
                ok = false;
                lines.push(format!("{tag}: FAIL a run did not pass its own checks"));
            }
        }
        let values = |run: &Json| {
            run.get("metrics")
                .map(json::metric_values)
                .unwrap_or_default()
        };
        let (va, vb) = (values(run_a), values(run_b));
        let exact_here = *traced && workload.starts_with("paper_");
        for (name, x) in &va {
            let Some(y) = vb.get(name) else {
                ok = false;
                lines.push(format!(
                    "{tag}: FAIL {name} missing from the second document"
                ));
                continue;
            };
            let bound = spec::find(name).and_then(|m| m.bound);
            if let Some(bound) = bound {
                let s = spread(*x, *y);
                let pass = s <= bound;
                ok &= pass;
                lines.push(format!(
                    "{tag}: {} {name} {x} against {y}: apart by {:.4}, bound {bound}",
                    if pass { "ok  " } else { "FAIL" },
                    s
                ));
            } else if exact_here && spec::EXACT_ON_PAPER.contains(&name.as_str()) && x != y {
                ok = false;
                lines.push(format!(
                    "{tag}: FAIL {name} is an exact count: {x} against {y}"
                ));
            }
        }
    }
    Ok(Verdict { ok, lines })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, traced: bool, fingerprint: &str, metrics: &[(&str, f64)]) -> Json {
        Json::obj(vec![
            ("workload", Json::str(workload)),
            ("traced", Json::Bool(traced)),
            ("seed", Json::str("1")),
            ("fingerprint", Json::str(fingerprint)),
            ("correct", Json::Bool(true)),
            (
                "metrics",
                Json::Obj(
                    metrics
                        .iter()
                        .map(|(n, v)| (n.to_string(), Json::obj(vec![("value", Json::Num(*v))])))
                        .collect(),
                ),
            ),
        ])
    }

    fn doc(runs: Vec<Json>) -> Json {
        Json::obj(vec![("runs", Json::Arr(runs))])
    }

    #[test]
    fn spread_is_relative_to_the_smaller_value() {
        assert_eq!(spread(10.0, 10.0), 0.0);
        assert!((spread(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((spread(11.0, 10.0) - 0.1).abs() < 1e-12);
        assert_eq!(spread(0.0, 1.0), f64::INFINITY);
        assert_eq!(spread(0.0, 0.0), 0.0);
    }

    #[test]
    fn end_to_end_metrics_are_held_to_their_bounds() {
        let a = doc(vec![run(
            "paper_steady",
            false,
            "aa",
            &[("specqp_over_trinit", 2.0)],
        )]);
        let near = doc(vec![run(
            "paper_steady",
            false,
            "aa",
            &[("specqp_over_trinit", 2.1)],
        )]);
        let far = doc(vec![run(
            "paper_steady",
            false,
            "aa",
            &[("specqp_over_trinit", 2.5)],
        )]);
        assert!(compare(&a, &near).unwrap().ok);
        assert!(!compare(&a, &far).unwrap().ok);
    }

    #[test]
    fn exact_counts_and_fingerprints_must_match_exactly() {
        let m = |v| {
            [
                ("operators.specqp_sorted_accesses", v),
                ("plangen.plan_cold_us_p50", v),
            ]
        };
        let a = doc(vec![run("paper_cold", true, "aa", &m(100.0))]);
        assert!(
            compare(&a, &doc(vec![run("paper_cold", true, "aa", &m(100.0))]))
                .unwrap()
                .ok
        );
        // A timing may move; a count on a single-threaded workload may not.
        let off = [
            ("operators.specqp_sorted_accesses", 101.0),
            ("plangen.plan_cold_us_p50", 180.0),
        ];
        assert!(
            !compare(&a, &doc(vec![run("paper_cold", true, "aa", &off)]))
                .unwrap()
                .ok
        );
        // The same count on a threaded workload is not held exact.
        let s = doc(vec![run("served_small", true, "aa", &m(100.0))]);
        assert!(
            compare(&s, &doc(vec![run("served_small", true, "aa", &off)]))
                .unwrap()
                .ok
        );
        assert!(
            !compare(&a, &doc(vec![run("paper_cold", true, "bb", &m(100.0))]))
                .unwrap()
                .ok
        );
        assert!(compare(&a, &s).is_err());
    }

    #[test]
    fn a_single_run_document_compares_too() {
        let a = run("live_churn", false, "cc", &[("queries_per_s", 300.0)]);
        let b = run("live_churn", false, "cc", &[("queries_per_s", 310.0)]);
        assert!(compare(&a, &b).unwrap().ok);
    }
}
