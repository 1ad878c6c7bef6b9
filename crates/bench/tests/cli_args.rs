//! Bad command lines are the caller's mistake, not a crash: `probe` and
//! `bench_gate` name the problem, print their usage line and exit 2 —
//! never a panic (exit 101), never a silently substituted default.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("spawn binary")
}

/// Exit 2 with a usage line on stderr that mentions `needle`.
fn assert_usage_error(exe: &str, args: &[&str], needle: &str) {
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

#[test]
fn probe_rejects_bad_positional_arguments() {
    let probe = env!("CARGO_BIN_EXE_probe");
    // The small XKG workload has 18 queries: 18 is the first id past it.
    assert_usage_error(probe, &["xkg", "18"], "out of range");
    assert_usage_error(probe, &["twitter", "4000000000"], "out of range");
    assert_usage_error(probe, &["xkg", "two"], "query id");
    assert_usage_error(probe, &["xkg", "-1"], "query id");
    assert_usage_error(probe, &["xkg", "2", "ten"], "k must be");
    assert_usage_error(probe, &["xkg", "2", "0"], "k must be");
}

#[test]
fn probe_still_runs_a_valid_command_line() {
    let out = run(env!("CARGO_BIN_EXE_probe"), &["xkg", "17", "5"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("query 17 (k=5)"));
}

#[test]
fn bench_gate_rejects_bad_arguments() {
    let gate = env!("CARGO_BIN_EXE_bench_gate");
    let report = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_probe.json");
    for args in [
        &[][..],
        &["frobnicate", report],
        &["regression", report],
        &["regression", report, report, "loose"],
        &["regression", report, report, "NaN"],
        &["regression", report, report, "-3"],
        &["regression", report, report, "3", "4"],
        &["determinism", report, report, report],
        &["snapshot", report, "3", "extra"],
        &["quality", report, "0.95", "inf"],
    ] {
        assert_usage_error(gate, args, "bench_gate regression");
    }
    // An unreadable report is exit 2 as well, named rather than usage'd.
    let out = run(gate, &["snapshot", "/nonexistent/report.json"]);
    assert_eq!(out.status.code(), Some(2));
    // And a well-formed command line still gates.
    let out = run(gate, &["regression", report, report, "3"]);
    assert_eq!(out.status.code(), Some(0));
}
