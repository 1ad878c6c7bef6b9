//! Golden-trace regression tests: byte-stable execution traces on the
//! seeded XKG workload, one golden file per mode.
//!
//! The trace serializes everything deterministic about a run — the chosen
//! plan, the `RunReport` work counters (answer objects, list reads, join
//! pulls, random accesses, heap pushes; timings are deliberately excluded) and the full
//! top-k with bit-exact scores — so planner or executor drift is caught
//! even when the answers still agree. The block executor's TriniT answer
//! lines must also match the naive oracle's.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! SPECQP_UPDATE_GOLDEN=1 cargo test --test golden_trace
//! git diff tests/golden/   # review the drift before committing it
//! ```

use datagen::{Dataset, XkgConfig, XkgGenerator};
use specqp::{Engine, QueryOutcome};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| XkgGenerator::new(XkgConfig::small(0x5eed001)).generate())
}

/// Serializes one outcome as stable text. Scores carry their exact bit
/// pattern (hex) next to a human-readable rendering; timings are excluded.
fn trace_outcome(out: &mut String, qi: usize, o: &QueryOutcome) {
    let r = &o.report;
    let _ = writeln!(
        out,
        "query {qi} plan_singletons={:?} answers_created={} sorted={} pulls={} random={} heap={}",
        o.plan.singletons(),
        r.answers_created,
        r.sorted_accesses,
        r.join_pulls,
        r.random_accesses,
        r.heap_pushes
    );
    for (i, a) in o.answers.iter().enumerate() {
        let mut binding = String::new();
        for (v, t) in a.binding.iter() {
            let _ = write!(binding, " ?{}={}", v.0, t.0);
        }
        let _ = writeln!(
            out,
            "  {i}: score={:.6} bits={:016x}{binding}",
            a.score.value(),
            a.score.value().to_bits()
        );
    }
}

fn trace_for(mode: &str) -> String {
    let ds = dataset();
    // The default configuration — speculation Off — pins the *baseline*
    // planner and executor. The lifecycle's fallback/feedback behaviour
    // evolves plans across runs by design and has its own differential
    // checks (tests/diff_exec.rs).
    let engine = Engine::new(&ds.graph, &ds.registry);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# golden trace: dataset=xkg-small seed=0x5eed001 mode={mode} k=10 (timings excluded)"
    );
    for (qi, q) in ds.workload.queries.iter().enumerate() {
        let outcome = match mode {
            "specqp" => engine.run_specqp(q, 10),
            "trinit" => engine.run_trinit(q, 10),
            "naive" => engine.run_naive(q, 10),
            other => unreachable!("unknown mode {other}"),
        };
        trace_outcome(&mut out, qi, &outcome);
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn check_golden(name: &str, mode: &str) {
    let got = trace_for(mode);
    let path = golden_path(name);
    if std::env::var("SPECQP_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {path:?} ({e}); run with SPECQP_UPDATE_GOLDEN=1 to create it")
    });
    if got != want {
        let diff_at = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        panic!(
            "golden trace {name} drifted (first differing line {}):\n  expected: {}\n  actual:   {}\n\
             re-run with SPECQP_UPDATE_GOLDEN=1 and review `git diff tests/golden/` \
             if the change is intentional",
            diff_at + 1,
            want.lines().nth(diff_at).unwrap_or("<eof>"),
            got.lines().nth(diff_at).unwrap_or("<eof>"),
        );
    }
}

#[test]
fn golden_specqp_block() {
    check_golden("specqp_block", "specqp");
}

#[test]
fn golden_trinit_block() {
    check_golden("trinit_block", "trinit");
}

#[test]
fn golden_naive() {
    check_golden("naive", "naive");
}

/// Cross-file invariant: the block TriniT golden must carry exactly the
/// naive oracle's *answer* lines (only the work counters may differ) —
/// drift here means an executor divergence slipped into a committed golden.
#[test]
fn goldens_agree_on_answers_across_executors() {
    let answers = |name: &str| -> Vec<String> {
        std::fs::read_to_string(golden_path(name))
            .unwrap_or_else(|e| panic!("missing golden {name} ({e})"))
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(answers("trinit_block"), answers("naive"));
}
