//! The `experiments` binary rejects a bad command line before it generates
//! any data: usage line on stderr, exit status 2, nothing on stdout.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("experiments binary runs")
}

fn assert_rejected(args: &[&str], message: &str) {
    let out = experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a table");
}

#[test]
fn unknown_experiment_is_rejected_up_front() {
    assert_rejected(&["tabel2"], "unknown experiment \"tabel2\"");
    // A typo after a valid name still measures nothing.
    assert_rejected(&["table2", "fig66"], "unknown experiment \"fig66\"");
    // The planner ablation is gone with the alternatives it compared.
    assert_rejected(&["ablation"], "unknown experiment \"ablation\"");
}

#[test]
fn scale_needs_a_known_value() {
    assert_rejected(&["table2", "--scale"], "missing value for --scale");
    assert_rejected(&["--scale", "huge"], "unknown scale \"huge\"");
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = experiments(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: experiments"));
}
