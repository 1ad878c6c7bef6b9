//! CI gate over `BENCH_probe.json` reports.
//!
//! Eight subcommands, all exiting non-zero on failure so they can gate a
//! workflow:
//!
//! ```text
//! bench_gate regression <baseline.json> <current.json> [tolerance]
//! bench_gate determinism <a.json> <b.json>
//! bench_gate snapshot <current.json> [min_speedup]
//! bench_gate quality <current.json> [min_precision] [max_overhead]
//! bench_gate learned <current.json> [max_mis_rate] [max_overhead]
//! bench_gate overload <baseline.json> <current.json> [tolerance]
//! bench_gate parallel <current.json> [min_speedup] [min_snapshot_speedup]
//! bench_gate churn <current.json> [min_load_speedup]
//! ```
//!
//! * `regression` compares `planning_us` / `execution_us` (Spec-QP executor)
//!   and the service `queries_per_sec` against the committed baseline with a
//!   generous noise tolerance (default 3×, plus a 2 ms absolute grace on
//!   latencies): only order-of-magnitude regressions fail, not scheduler
//!   jitter on shared CI runners.
//! * `determinism` asserts two reports describe identical query *results*
//!   (plan, ground truth, prediction flags, answer scores) while ignoring
//!   timings — used to check the snapshot-loaded graph answers exactly like
//!   the TSV/builder path.
//! * `snapshot` asserts the report's snapshot-vs-TSV load `speedup` meets
//!   the floor (default 3×).
//! * `quality` asserts the `speculation` object (emitted under
//!   `probe --quality`) shows precision@k against TriniT of at least
//!   `min_precision` (default 0.95) with the fallback lifecycle enabled,
//!   at a total-runtime overhead of at most `max_overhead` (default 1.25×)
//!   versus speculation off — quality recovered cheaply, not bought with a
//!   TriniT-priced rerun of everything.
//! * `learned` gates the `learned` object (emitted under `probe --learned`).
//!   Correctness is unconditional: the cold learned engine must have
//!   answered and planned byte-identically to the static engine
//!   (`cold_identical` — empty models mean every confidence gate is closed,
//!   so the histogram fallback path must be exact). The taught engine's
//!   mis-speculation rate must come in below both the absolute ceiling
//!   (default 0.06, the static first-pass rate the ROADMAP targets) and the
//!   report's own static first-pass rate, at a cold planning+verify overhead
//!   of at most `max_overhead` (default 1.25×) versus a cold static engine
//!   (fresh engine pairs, where PLANGEN does real work), with at least one
//!   observation actually recorded.
//! * `overload` asserts the `server` object (emitted under `probe --server`,
//!   which offers the workload open-loop at 2× the measured saturation rate)
//!   shows admission control doing its job: some requests accepted, some
//!   shed with `RetryAfter`, zero protocol/internal errors, and the p99
//!   latency of *accepted* requests held to the committed baseline (same
//!   tolerance discipline as `regression`) — overload must degrade into
//!   explicit rejection, never into unbounded queueing.
//! * `parallel` gates the `parallel` and `snapshot_v2` objects (emitted under
//!   `probe --morsels N`). Correctness is unconditional: the morsel-parallel
//!   executor must return answers bit-identical to sequential block execution
//!   (`answers_match`). The throughput floor (default 2×) only applies when
//!   the machine actually has at least as many cores as workers — the report
//!   records `cores`, and a 1-core runner cannot speed anything up, so there
//!   the floor is waived with a printed notice rather than failing the build
//!   on physics. The snapshot v2 floor (default 5×) asserts the aligned
//!   fixed-stride layout loads at least that much faster than the seed-style
//!   hash-insertion decode it replaced.
//! * `churn` gates the `churn` object (emitted under `probe --churn`, which
//!   interleaves writer batches into a live engine). Correctness is
//!   unconditional: answers must be byte-stable within every epoch and
//!   across the irrelevant churn (`answers_stable`), a version pinned
//!   before the churn must still answer epoch 0 (`pinned_stable`), and the
//!   post-compaction graph must answer identically to the pre-churn
//!   baseline (`post_compaction_match`). The load floor (default 5×)
//!   asserts the compacted base reloads through the v2 snapshot layout at
//!   least that much faster than the seed-style v1 decode.
//!
//! The workspace is dependency-free, so instead of a JSON library this uses
//! a small field scanner that understands exactly the shape `probe` emits.

use std::process::exit;

/// Returns the balanced `{...}` object slice following `"key":`.
fn object_slice<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)?;
    let rest = &json[at + pat.len()..];
    let open = rest.find('{')?;
    let mut depth = 0usize;
    let mut in_str = false;
    let mut esc = false;
    for (i, c) in rest[open..].char_indices() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' if !in_str => depth += 1,
            '}' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[open..open + i + 1]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts the numeric value following `"key":` inside `slice`.
fn num_field(slice: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = slice.find(&pat)?;
    let rest = slice[at + pat.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the raw `[...]` text following `"key":` inside `slice`.
fn array_field<'a>(slice: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = slice.find(&pat)?;
    let rest = &slice[at + pat.len()..];
    let open = rest.find('[')?;
    let close = rest[open..].find(']')?;
    Some(&rest[open..open + close + 1])
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot read {path}: {e}");
        exit(2);
    })
}

fn require_num(json: &str, object: &str, key: &str, path: &str) -> f64 {
    let slice = if object.is_empty() {
        json
    } else {
        object_slice(json, object).unwrap_or_else(|| {
            eprintln!("bench_gate: {path} has no \"{object}\" object");
            exit(2);
        })
    };
    num_field(slice, key).unwrap_or_else(|| {
        eprintln!("bench_gate: {path} lacks numeric {object}.{key}");
        exit(2);
    })
}

/// Latency grace: CI runners jitter by whole milliseconds on sub-millisecond
/// measurements, so small absolutes never fail on ratio alone.
const LATENCY_SLACK_US: f64 = 2000.0;

fn regression(baseline_path: &str, current_path: &str, tol: f64) -> i32 {
    let baseline = read(baseline_path);
    let current = read(current_path);
    let mut failures = Vec::new();

    for key in ["planning_us", "execution_us"] {
        let base = require_num(&baseline, "specqp", key, baseline_path);
        let cur = require_num(&current, "specqp", key, current_path);
        let limit = base * tol + LATENCY_SLACK_US;
        let ok = cur <= limit;
        println!(
            "specqp.{key}: baseline {base:.0}us, current {cur:.0}us, limit {limit:.0}us -> {}",
            if ok { "ok" } else { "REGRESSION" }
        );
        if !ok {
            failures.push(format!("specqp.{key} {cur:.0}us > {limit:.0}us"));
        }
    }

    // block_execution_us only gates when both reports carry a block object
    // (older baselines predate block execution).
    match (
        object_slice(&baseline, "block").and_then(|s| num_field(s, "block_execution_us")),
        object_slice(&current, "block").and_then(|s| num_field(s, "block_execution_us")),
    ) {
        (Some(base), Some(cur)) => {
            let limit = base * tol + LATENCY_SLACK_US;
            let ok = cur <= limit;
            println!(
                "block.block_execution_us: baseline {base:.0}us, current {cur:.0}us, \
                 limit {limit:.0}us -> {}",
                if ok { "ok" } else { "REGRESSION" }
            );
            if !ok {
                failures.push(format!(
                    "block.block_execution_us {cur:.0}us > {limit:.0}us"
                ));
            }
        }
        _ => println!("block.block_execution_us: absent in baseline or current, skipped"),
    }

    // queries_per_sec only gates when both reports carry a service object
    // (the probe only emits one under --service N).
    match (
        object_slice(&baseline, "service").and_then(|s| num_field(s, "queries_per_sec")),
        object_slice(&current, "service").and_then(|s| num_field(s, "queries_per_sec")),
    ) {
        (Some(base), Some(cur)) => {
            let floor = base / tol;
            let ok = cur >= floor;
            println!(
                "service.queries_per_sec: baseline {base:.1}, current {cur:.1}, floor {floor:.1} -> {}",
                if ok { "ok" } else { "REGRESSION" }
            );
            if !ok {
                failures.push(format!("service.queries_per_sec {cur:.1} < {floor:.1}"));
            }
        }
        _ => println!("service.queries_per_sec: absent in baseline or current, skipped"),
    }

    if failures.is_empty() {
        println!("bench_gate regression: ok (tolerance {tol}x)");
        0
    } else {
        eprintln!("bench_gate regression FAILED: {}", failures.join("; "));
        1
    }
}

fn determinism(a_path: &str, b_path: &str) -> i32 {
    let a = read(a_path);
    let b = read(b_path);
    let mut failures = Vec::new();

    // Top-level result-bearing fields (timings deliberately excluded).
    for key in ["plan_singletons", "required"] {
        let (x, y) = (array_field(&a, key), array_field(&b, key));
        if x.is_none() || x != y {
            failures.push(format!("{key}: {x:?} vs {y:?}"));
        }
    }
    for key in ["prediction_exact", "prediction_covers", "k", "query"] {
        // Booleans and small ints both parse as the token after the colon.
        let tok = |json: &str| {
            let pat = format!("\"{key}\":");
            json.find(&pat).map(|at| {
                json[at + pat.len()..]
                    .trim_start()
                    .chars()
                    .take_while(|c| !",}\n".contains(*c))
                    .collect::<String>()
            })
        };
        let (x, y) = (tok(&a), tok(&b));
        if x.is_none() || x != y {
            failures.push(format!("{key}: {x:?} vs {y:?}"));
        }
    }
    for exec in ["specqp", "trinit"] {
        let (sa, sb) = (object_slice(&a, exec), object_slice(&b, exec));
        match (sa, sb) {
            (Some(sa), Some(sb)) => {
                let (x, y) = (array_field(sa, "scores"), array_field(sb, "scores"));
                if x.is_none() || x != y {
                    failures.push(format!("{exec}.scores differ: {x:?} vs {y:?}"));
                }
                let (x, y) = (num_field(sa, "top_k"), num_field(sb, "top_k"));
                if x.is_none() || x != y {
                    failures.push(format!("{exec}.top_k: {x:?} vs {y:?}"));
                }
            }
            _ => failures.push(format!("{exec} object missing")),
        }
    }

    if failures.is_empty() {
        println!("bench_gate determinism: ok ({a_path} == {b_path} on results)");
        0
    } else {
        eprintln!("bench_gate determinism FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        1
    }
}

fn snapshot_gate(path: &str, min_speedup: f64) -> i32 {
    let json = read(path);
    let speedup = require_num(&json, "snapshot", "speedup", path);
    let load = require_num(&json, "snapshot", "load_us", path);
    let tsv = require_num(&json, "snapshot", "tsv_load_us", path);
    println!(
        "snapshot load {load:.0}us vs TSV rebuild {tsv:.0}us -> {speedup:.2}x (floor {min_speedup}x)"
    );
    if speedup >= min_speedup {
        println!("bench_gate snapshot: ok");
        0
    } else {
        eprintln!("bench_gate snapshot FAILED: {speedup:.2}x < {min_speedup}x");
        1
    }
}

/// `true`-literal check for a boolean field inside `slice`.
fn bool_field(slice: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\":");
    let at = slice.find(&pat)?;
    let rest = slice[at + pat.len()..].trim_start();
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

fn quality_gate(path: &str, min_precision: f64, max_overhead: f64) -> i32 {
    let json = read(path);
    let precision = require_num(&json, "speculation", "precision_fallback", path);
    let overhead = require_num(&json, "speculation", "overhead", path);
    let mis_rate = require_num(&json, "speculation", "mis_speculation_rate", path);
    let fallback_rate = require_num(&json, "speculation", "fallback_rate", path);
    println!(
        "speculation quality: precision@k {precision:.3} (floor {min_precision}), \
         lifecycle overhead {overhead:.2}x (ceiling {max_overhead}x), \
         mis-speculation rate {mis_rate:.2}, fallback rate {fallback_rate:.2}"
    );
    let mut failures = Vec::new();
    if precision < min_precision {
        failures.push(format!("precision {precision:.3} < {min_precision}"));
    }
    if overhead > max_overhead {
        failures.push(format!("overhead {overhead:.2}x > {max_overhead}x"));
    }
    if failures.is_empty() {
        println!("bench_gate quality: ok");
        0
    } else {
        eprintln!("bench_gate quality FAILED: {}", failures.join("; "));
        1
    }
}

fn learned_gate(path: &str, max_mis_rate: f64, max_overhead: f64) -> i32 {
    let json = read(path);
    let slice = object_slice(&json, "learned").unwrap_or_else(|| {
        eprintln!("bench_gate: {path} has no \"learned\" object (run probe with --learned)");
        exit(2);
    });
    let mis_static = require_num(&json, "learned", "mis_rate_static", path);
    let mis_learned = require_num(&json, "learned", "mis_rate_learned", path);
    let overhead = require_num(&json, "learned", "overhead", path);
    let observations = require_num(&json, "learned", "observations", path);
    let cold_identical = bool_field(slice, "cold_identical").unwrap_or_else(|| {
        eprintln!("bench_gate: {path} lacks boolean learned.cold_identical");
        exit(2);
    });
    println!(
        "learned predictor: mis rate {mis_learned:.3} taught vs {mis_static:.3} static \
         first-pass (ceiling {max_mis_rate}), planning+verify overhead {overhead:.2}x \
         (ceiling {max_overhead}x), {observations:.0} observations, \
         cold_identical={cold_identical}"
    );
    let mut failures = Vec::new();
    if !cold_identical {
        failures.push(
            "cold learned engine diverged from the histogram engine — the confidence \
             fallback is broken"
                .to_string(),
        );
    }
    if mis_learned >= max_mis_rate {
        failures.push(format!(
            "taught mis rate {mis_learned:.3} >= ceiling {max_mis_rate}"
        ));
    }
    if mis_learned > mis_static {
        failures.push(format!(
            "taught mis rate {mis_learned:.3} worse than static first-pass {mis_static:.3}"
        ));
    }
    if overhead > max_overhead {
        failures.push(format!("overhead {overhead:.2}x > {max_overhead}x"));
    }
    if observations < 1.0 {
        failures.push("no observations recorded — the feedback loop never fed".to_string());
    }
    if failures.is_empty() {
        println!("bench_gate learned: ok");
        0
    } else {
        eprintln!("bench_gate learned FAILED: {}", failures.join("; "));
        1
    }
}

fn overload_gate(baseline_path: &str, current_path: &str, tol: f64) -> i32 {
    let baseline = read(baseline_path);
    let current = read(current_path);
    let offered = require_num(&current, "server", "offered", current_path);
    let accepted = require_num(&current, "server", "accepted", current_path);
    let shed = require_num(&current, "server", "shed_retry_after", current_path);
    let other = require_num(&current, "server", "other_errors", current_path);
    let p99 = require_num(&current, "server", "p99_accepted_us", current_path);
    println!(
        "overload: offered {offered:.0} at 2x saturation -> accepted {accepted:.0}, \
         shed(RetryAfter) {shed:.0}, other errors {other:.0}, accepted p99 {p99:.0}us"
    );
    let mut failures = Vec::new();
    if accepted < 1.0 {
        failures.push("no requests accepted under overload".to_string());
    }
    if shed < 1.0 {
        failures.push(
            "2x saturation shed nothing — admission control is queueing unboundedly".to_string(),
        );
    }
    if other > 0.0 {
        failures.push(format!(
            "{other:.0} protocol/internal errors under overload"
        ));
    }
    // The latency bound only gates when the baseline carries a server object
    // (older baselines predate the wire front-end).
    match object_slice(&baseline, "server").and_then(|s| num_field(s, "p99_accepted_us")) {
        Some(base) => {
            let limit = base * tol + LATENCY_SLACK_US;
            let ok = p99 <= limit;
            println!(
                "server.p99_accepted_us: baseline {base:.0}us, current {p99:.0}us, \
                 limit {limit:.0}us -> {}",
                if ok { "ok" } else { "REGRESSION" }
            );
            if !ok {
                failures.push(format!("p99_accepted_us {p99:.0}us > {limit:.0}us"));
            }
        }
        None => println!("server.p99_accepted_us: absent in baseline, latency bound skipped"),
    }
    if failures.is_empty() {
        println!("bench_gate overload: ok (tolerance {tol}x)");
        0
    } else {
        eprintln!("bench_gate overload FAILED: {}", failures.join("; "));
        1
    }
}

fn parallel_gate(path: &str, min_speedup: f64, min_snapshot_speedup: f64) -> i32 {
    let json = read(path);
    let mut failures = Vec::new();

    let par = object_slice(&json, "parallel").unwrap_or_else(|| {
        eprintln!("bench_gate: {path} has no \"parallel\" object");
        exit(2);
    });
    let workers = require_num(&json, "parallel", "workers", path);
    let cores = require_num(&json, "parallel", "cores", path);
    let speedup = require_num(&json, "parallel", "speedup", path);
    let seq = require_num(&json, "parallel", "seq_execution_us", path);
    let par_us = require_num(&json, "parallel", "par_execution_us", path);
    let answers_match = bool_field(par, "answers_match").unwrap_or_else(|| {
        eprintln!("bench_gate: {path} lacks boolean parallel.answers_match");
        exit(2);
    });
    println!(
        "parallel: {workers:.0} workers on {cores:.0} cores -> {par_us:.0}us vs sequential \
         {seq:.0}us ({speedup:.2}x, floor {min_speedup}x, answers_match={answers_match})"
    );
    // Correctness gates unconditionally: a parallel executor that disagrees
    // with sequential block execution is wrong no matter how fast it is.
    if !answers_match {
        failures.push("parallel and sequential execution disagreed on answers".to_string());
    }
    // The throughput floor only gates on hardware that can express a speedup.
    if cores >= workers {
        if speedup < min_speedup {
            failures.push(format!("parallel speedup {speedup:.2}x < {min_speedup}x"));
        }
    } else {
        println!(
            "parallel speedup floor waived: {cores:.0} cores < {workers:.0} workers \
             (no hardware parallelism to measure)"
        );
    }

    let v2 = require_num(&json, "snapshot_v2", "speedup", path);
    let v2_load = require_num(&json, "snapshot_v2", "v2_load_us", path);
    let v1_decode = require_num(&json, "snapshot_v2", "v1_decode_us", path);
    println!(
        "snapshot_v2: load {v2_load:.0}us vs v1 hash decode {v1_decode:.0}us \
         -> {v2:.2}x (floor {min_snapshot_speedup}x)"
    );
    if v2 < min_snapshot_speedup {
        failures.push(format!(
            "snapshot_v2 speedup {v2:.2}x < {min_snapshot_speedup}x"
        ));
    }

    if failures.is_empty() {
        println!("bench_gate parallel: ok");
        0
    } else {
        eprintln!("bench_gate parallel FAILED: {}", failures.join("; "));
        1
    }
}

fn churn_gate(path: &str, min_load_speedup: f64) -> i32 {
    let json = read(path);
    let slice = object_slice(&json, "churn").unwrap_or_else(|| {
        eprintln!("bench_gate: {path} has no \"churn\" object");
        exit(2);
    });
    let mut failures = Vec::new();
    let require_bool = |key: &str| {
        bool_field(slice, key).unwrap_or_else(|| {
            eprintln!("bench_gate: {path} lacks boolean churn.{key}");
            exit(2);
        })
    };
    let answers_stable = require_bool("answers_stable");
    let pinned_stable = require_bool("pinned_stable");
    let post_compaction_match = require_bool("post_compaction_match");
    let epochs = require_num(&json, "churn", "epochs", path);
    let speedup = require_num(&json, "churn", "load_speedup", path);
    let v2_load = require_num(&json, "churn", "v2_load_us", path);
    let v1_decode = require_num(&json, "churn", "v1_decode_us", path);
    println!(
        "churn: {epochs:.0} epochs; answers_stable={answers_stable} \
         pinned_stable={pinned_stable} post_compaction_match={post_compaction_match}; \
         post-compaction load {v2_load:.0}us vs v1 decode {v1_decode:.0}us \
         -> {speedup:.2}x (floor {min_load_speedup}x)"
    );
    // Correctness gates unconditionally — a live engine that wobbles its
    // answers under irrelevant writes is wrong no matter how fast it loads.
    if !answers_stable {
        failures.push("answers not byte-stable across churn epochs".to_string());
    }
    if !pinned_stable {
        failures.push("pinned version leaked later commits".to_string());
    }
    if !post_compaction_match {
        failures.push("compaction changed the answers".to_string());
    }
    if speedup < min_load_speedup {
        failures.push(format!(
            "post-compaction load speedup {speedup:.2}x < {min_load_speedup}x"
        ));
    }
    if failures.is_empty() {
        println!("bench_gate churn: ok");
        0
    } else {
        eprintln!("bench_gate churn FAILED: {}", failures.join("; "));
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || -> ! {
        eprintln!(
            "usage: bench_gate regression <baseline.json> <current.json> [tolerance]\n\
             \x20      bench_gate determinism <a.json> <b.json>\n\
             \x20      bench_gate snapshot <current.json> [min_speedup]\n\
             \x20      bench_gate quality <current.json> [min_precision] [max_overhead]\n\
             \x20      bench_gate learned <current.json> [max_mis_rate] [max_overhead]\n\
             \x20      bench_gate overload <baseline.json> <current.json> [tolerance]\n\
             \x20      bench_gate parallel <current.json> [min_speedup] [min_snapshot_speedup]\n\
             \x20      bench_gate churn <current.json> [min_load_speedup]"
        );
        exit(2);
    };
    // An optional trailing threshold: a finite, non-negative number.
    let num = |at: usize, default: f64| match args.get(at) {
        None => default,
        Some(s) => (s.parse().ok())
            .filter(|v: &f64| v.is_finite() && *v >= 0.0)
            .unwrap_or_else(|| usage()),
    };
    let code = match (args.first().map(String::as_str), args.len()) {
        (Some("regression"), 3..=4) => regression(&args[1], &args[2], num(3, 3.0)),
        (Some("determinism"), 3) => determinism(&args[1], &args[2]),
        (Some("snapshot"), 2..=3) => snapshot_gate(&args[1], num(2, 3.0)),
        (Some("quality"), 2..=4) => quality_gate(&args[1], num(2, 0.95), num(3, 1.25)),
        (Some("learned"), 2..=4) => learned_gate(&args[1], num(2, 0.06), num(3, 1.25)),
        (Some("overload"), 3..=4) => overload_gate(&args[1], &args[2], num(3, 3.0)),
        (Some("parallel"), 2..=4) => parallel_gate(&args[1], num(2, 2.0), num(3, 5.0)),
        (Some("churn"), 2..=3) => churn_gate(&args[1], num(2, 5.0)),
        _ => usage(),
    };
    exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "dataset": "xkg",
  "summary": "dataset xkg: 10 triples",
  "query": 2,
  "k": 10,
  "plan_singletons": [0, 1, 2, 3],
  "required": [0, 2, 3],
  "prediction_exact": false,
  "prediction_covers": true,
  "specqp": {"planning_us":754,"execution_us":2249,"top_k":10,"scores":[2.6,2.5]},
  "trinit": {"planning_us":0,"execution_us":1994,"top_k":10,"scores":[2.6,2.5]},
  "snapshot": {"triples":10,"bytes":123,"load_us":100,"tsv_load_us":900,"speedup":9.000,"from_snapshot":false},
  "block": {"block_size":256,"queries":18,"k":10,"block_execution_us":4000},
  "parallel": {"workers":4,"cores":8,"rows":200000,"k":10,"block_size":256,"seq_execution_us":40000,"par_execution_us":14000,"speedup":2.857,"answers_match":true},
  "snapshot_v2": {"triples":200000,"terms":2200,"v2_bytes":9000000,"v1_bytes":9000000,"v2_load_us":5500,"v1_decode_us":122000,"v1_load_us":12400,"speedup":22.182,"compat_speedup":2.255},
  "churn": {"rows":30000,"rounds":24,"batch_size":128,"epochs":25,"delta_rows_at_fold":1600,"compact_us":8200,"answers_stable":true,"pinned_stable":true,"post_compaction_match":true,"v2_load_us":900,"v1_decode_us":14000,"load_speedup":15.556},
  "speculation": {"policy":"fallback:3","queries":18,"k":10,"mis_speculation_rate":0.1111,"fallback_rate":0.0556,"fallback_stages":2,"wasted_answers":120,"precision_fallback":0.9815,"precision_off":0.9259,"off_total_us":5000,"fallback_total_us":5600,"overhead":1.120},
  "learned": {"queries":18,"k":10,"teaching_laps":3,"cold_identical":true,"mis_rate_static":0.0556,"mis_rate_learned":0.0000,"planning_verify_static_us":900,"planning_verify_learned_us":1000,"overhead":1.111,"observations":90,"predictions":40,"revisions":12},
  "service": {"threads":4,"queries_per_sec":730.059,"cache":{"hits":37}},
  "server": {"threads":4,"offered":400,"rate_per_sec":8000.0,"saturation_per_sec":4000.0,"accepted":231,"shed_retry_after":169,"shed_deadline":0,"other_errors":0,"p50_accepted_us":812,"p99_accepted_us":3420,"mean_accepted_us":990,"max_accepted_us":5100,"wall_us":61000,"connections":1,"quota_rejected":0,"protocol_errors":0}
}"#;

    #[test]
    fn object_slice_is_brace_balanced() {
        let svc = object_slice(SAMPLE, "service").unwrap();
        assert!(svc.starts_with('{') && svc.ends_with('}'));
        assert!(svc.contains("\"hits\":37"));
        let spec = object_slice(SAMPLE, "specqp").unwrap();
        assert!(!spec.contains("trinit"));
        assert!(object_slice(SAMPLE, "missing").is_none());
    }

    #[test]
    fn num_field_parses_ints_and_floats() {
        let svc = object_slice(SAMPLE, "service").unwrap();
        assert_eq!(num_field(svc, "queries_per_sec"), Some(730.059));
        let spec = object_slice(SAMPLE, "specqp").unwrap();
        assert_eq!(num_field(spec, "planning_us"), Some(754.0));
        assert_eq!(num_field(spec, "nope"), None);
    }

    #[test]
    fn array_field_returns_raw_text() {
        assert_eq!(array_field(SAMPLE, "required"), Some("[0, 2, 3]"));
        let spec = object_slice(SAMPLE, "specqp").unwrap();
        assert_eq!(array_field(spec, "scores"), Some("[2.6,2.5]"));
    }

    #[test]
    fn snapshot_speedup_readable() {
        let snap = object_slice(SAMPLE, "snapshot").unwrap();
        assert_eq!(num_field(snap, "speedup"), Some(9.0));
    }

    #[test]
    fn speculation_object_fields_readable() {
        let spec = object_slice(SAMPLE, "speculation").unwrap();
        assert_eq!(num_field(spec, "precision_fallback"), Some(0.9815));
        assert_eq!(num_field(spec, "overhead"), Some(1.12));
        assert_eq!(num_field(spec, "mis_speculation_rate"), Some(0.1111));
        assert_eq!(num_field(spec, "fallback_rate"), Some(0.0556));
        // The sample passes the default gate thresholds.
        assert!(num_field(spec, "precision_fallback").unwrap() >= 0.95);
        assert!(num_field(spec, "overhead").unwrap() <= 1.25);
    }

    #[test]
    fn learned_object_fields_readable_and_sample_passes_gate() {
        let learned = object_slice(SAMPLE, "learned").unwrap();
        assert_eq!(bool_field(learned, "cold_identical"), Some(true));
        assert_eq!(num_field(learned, "mis_rate_static"), Some(0.0556));
        assert_eq!(num_field(learned, "mis_rate_learned"), Some(0.0));
        assert_eq!(num_field(learned, "overhead"), Some(1.111));
        assert_eq!(num_field(learned, "observations"), Some(90.0));
        // The sample passes the default gate thresholds: learned rate below
        // the ceiling and no worse than static, overhead within budget.
        assert!(num_field(learned, "mis_rate_learned").unwrap() < 0.06);
        assert!(
            num_field(learned, "mis_rate_learned").unwrap()
                <= num_field(learned, "mis_rate_static").unwrap()
        );
        assert!(num_field(learned, "overhead").unwrap() <= 1.25);
    }

    #[test]
    fn server_object_fields_readable_and_sample_passes_gate() {
        let server = object_slice(SAMPLE, "server").unwrap();
        assert_eq!(num_field(server, "accepted"), Some(231.0));
        assert_eq!(num_field(server, "shed_retry_after"), Some(169.0));
        assert_eq!(num_field(server, "other_errors"), Some(0.0));
        assert_eq!(num_field(server, "p99_accepted_us"), Some(3420.0));
        // The sample passes the gate's structural requirements against
        // itself as baseline: accepted ≥ 1, shed ≥ 1, zero errors, and
        // p99 ≤ p99 × tol + slack trivially.
        assert!(num_field(server, "accepted").unwrap() >= 1.0);
        assert!(num_field(server, "shed_retry_after").unwrap() >= 1.0);
        let p99 = num_field(server, "p99_accepted_us").unwrap();
        assert!(p99 <= p99 * 3.0 + LATENCY_SLACK_US);
    }

    #[test]
    fn parallel_object_fields_readable_and_sample_passes_gate() {
        let par = object_slice(SAMPLE, "parallel").unwrap();
        assert_eq!(num_field(par, "workers"), Some(4.0));
        assert_eq!(num_field(par, "cores"), Some(8.0));
        assert_eq!(num_field(par, "speedup"), Some(2.857));
        assert_eq!(num_field(par, "seq_execution_us"), Some(40000.0));
        assert_eq!(num_field(par, "par_execution_us"), Some(14000.0));
        assert_eq!(bool_field(par, "answers_match"), Some(true));
        assert_eq!(bool_field(par, "workers"), None, "a number is no boolean");
        assert_eq!(bool_field(par, "missing"), None);
        // Sample has cores >= workers, so the floor applies — and passes.
        assert!(num_field(par, "cores").unwrap() >= num_field(par, "workers").unwrap());
        assert!(num_field(par, "speedup").unwrap() >= 2.0);
    }

    #[test]
    fn snapshot_v2_object_fields_readable_and_sample_passes_gate() {
        let v2 = object_slice(SAMPLE, "snapshot_v2").unwrap();
        assert_eq!(num_field(v2, "v2_load_us"), Some(5500.0));
        assert_eq!(num_field(v2, "v1_decode_us"), Some(122000.0));
        assert_eq!(num_field(v2, "v1_load_us"), Some(12400.0));
        assert_eq!(num_field(v2, "speedup"), Some(22.182));
        assert_eq!(num_field(v2, "compat_speedup"), Some(2.255));
        assert!(num_field(v2, "speedup").unwrap() >= 5.0);
        // `snapshot_v2` must not shadow the original `snapshot` object.
        let snap = object_slice(SAMPLE, "snapshot").unwrap();
        assert!(snap.contains("tsv_load_us"));
    }

    #[test]
    fn churn_object_fields_readable_and_sample_passes_gate() {
        let churn = object_slice(SAMPLE, "churn").unwrap();
        assert_eq!(bool_field(churn, "answers_stable"), Some(true));
        assert_eq!(bool_field(churn, "pinned_stable"), Some(true));
        assert_eq!(bool_field(churn, "post_compaction_match"), Some(true));
        assert_eq!(num_field(churn, "epochs"), Some(25.0));
        assert_eq!(num_field(churn, "v2_load_us"), Some(900.0));
        assert_eq!(num_field(churn, "v1_decode_us"), Some(14000.0));
        assert_eq!(num_field(churn, "load_speedup"), Some(15.556));
        assert!(num_field(churn, "load_speedup").unwrap() >= 5.0);
    }
}
