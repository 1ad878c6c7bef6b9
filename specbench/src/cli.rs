//! Command line. Bad arguments exit 2 with usage; a run whose checks failed
//! exits 1 after printing its result; everything else exits 0.

use crate::adapter::Scale;
use crate::json::{self, Json};
use crate::{compare, cores, run_workload, spec, Ctx};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage:
  specbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
  specbench run <workload> [--seed N] [--seconds S] [--trace] [--out PATH]
  specbench all [--seed N] [--seconds S] [--trace] [--out PATH]
  specbench compare A.json B.json

workloads: paper_steady paper_cold served_small live_churn
The first form is what BENCHMARK.json's command runs: it prints one JSON
object as the last line of standard output. `all` runs every workload in a
process of its own and writes one document; `compare` checks that two
documents of one commit agree within the bounds of BENCHMARK.json.";

pub const DEFAULT_SEED: u64 = 0x5eed001;
pub const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Debug, PartialEq)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub out: Option<PathBuf>,
}

#[derive(Debug, PartialEq)]
pub enum Cmd {
    Run { workload: String, options: Options },
    All { options: Options },
    Compare { a: PathBuf, b: PathBuf },
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Parses the arguments after the program name.
pub fn parse_args(args: &[String]) -> Result<Cmd, String> {
    let mut options = Options {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
    };
    let mut workload = None;
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                options.seed = parse_seed(&v).ok_or_else(|| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                options.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| format!("bad --seconds {v:?} (0 < S <= 60)"))?;
            }
            "--out" => options.out = Some(PathBuf::from(value("--out")?)),
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` by hand.
                options.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag}")),
            _ => positional.push(arg.clone()),
        }
    }
    let known = |w: &str| {
        if spec::workload_names().contains(&w) {
            Ok(w.to_string())
        } else {
            Err(format!("unknown workload {w:?}"))
        }
    };
    let positional: Vec<&str> = positional.iter().map(String::as_str).collect();
    match (workload, positional.as_slice()) {
        (Some(w), []) => Ok(Cmd::Run {
            workload: known(&w)?,
            options,
        }),
        (None, ["run", w]) => Ok(Cmd::Run {
            workload: known(w)?,
            options,
        }),
        (None, ["all"]) => Ok(Cmd::All { options }),
        (None, ["compare", a, b]) => Ok(Cmd::Compare {
            a: PathBuf::from(a),
            b: PathBuf::from(b),
        }),
        _ => Err("expected --workload <name>, run <workload>, all, or compare A B".to_string()),
    }
}

/// `SPECQP_*` switches change what the crates' defaults do. The benchmark
/// pins its configuration, so a set switch is a mistake worth stopping for.
fn leaked_switches() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SPECQP_"))
        .collect()
}

/// Where traces and per-workload documents go: next to the executable,
/// which is inside the build directory and so inside the checkout.
fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("specbench"));
    exe.parent().unwrap_or(Path::new(".")).join("specbench-out")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_run(workload: &str, options: &Options) -> Result<ExitCode, String> {
    let ctx = Ctx {
        seed: options.seed,
        seconds: options.seconds,
        scale: Scale::Full,
        traced: options.traced,
        quick: false,
        cores: cores(),
    };
    let (report, tracer) =
        run_workload(workload, &ctx).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    println!(
        "# {workload} seed={:#x} seconds={} traced={} cores={} fingerprint={:016x}",
        report.seed, report.seconds, report.traced, report.cores, report.fingerprint
    );
    for line in report.human_lines() {
        println!("{line}");
    }
    for f in &report.failures {
        println!("# FAILED: {f}");
    }
    for name in report.missing() {
        println!("# MISSING: {name}");
    }
    if options.traced {
        let path = scratch_dir().join(format!("{workload}.trace.json"));
        write_file(&path, &tracer.to_json().render())?;
        println!(
            "# {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    if let Some(out) = &options.out {
        write_file(out, &report.to_json().render())?;
    }
    println!("{}", report.driver_line());
    Ok(if report.correct() && report.missing().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Every workload in a process of its own, so that `peak_rss_mb` is the
/// workload's and not the sum of what ran before it.
fn cmd_all(options: &Options) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let dir = scratch_dir();
    let mut runs = Vec::new();
    let mut ok = true;
    for workload in spec::workload_names() {
        for traced in [false, true] {
            if traced && !options.traced {
                continue;
            }
            let out = dir.join(format!("{workload}.{}.json", u8::from(traced)));
            let status = Command::new(&exe)
                .args(["run", workload])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&out)
                .status()
                .map_err(|e| format!("cannot start {workload}: {e}"))?;
            ok &= status.success();
            let text = std::fs::read_to_string(&out)
                .map_err(|e| format!("{workload} left no result: {e}"))?;
            runs.push(json::parse(&text)?);
        }
    }
    let doc = Json::obj(vec![
        ("cores", Json::Num(cores() as f64)),
        ("seed", Json::str(&options.seed.to_string())),
        ("seconds", Json::Num(options.seconds)),
        ("runs", Json::Arr(runs)),
    ]);
    let out = options
        .out
        .clone()
        .unwrap_or_else(|| dir.join("specbench.json"));
    write_file(&out, &doc.render())?;
    println!("# wrote {}", out.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let read = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let verdict = compare::compare(&read(a)?, &read(b)?)?;
    for line in &verdict.lines {
        println!("{line}");
    }
    Ok(if verdict.ok {
        println!("compare: PASS");
        ExitCode::SUCCESS
    } else {
        println!("compare: FAIL");
        ExitCode::from(1)
    })
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("specbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let leaked = leaked_switches();
    if !leaked.is_empty() && !matches!(cmd, Cmd::Compare { .. }) {
        eprintln!(
            "specbench: {} set in the environment; the benchmark pins its configuration — unset them",
            leaked.join(", ")
        );
        return ExitCode::from(2);
    }
    let outcome = match &cmd {
        Cmd::Run { workload, options } => cmd_run(workload, options),
        Cmd::All { options } => cmd_all(options),
        Cmd::Compare { a, b } => cmd_compare(a, b),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("specbench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_form_and_subcommands_parse() {
        let cmd = parse_args(&args(
            "--workload paper_cold --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Cmd::Run {
                workload: "paper_cold".to_string(),
                options: Options {
                    seed: 7,
                    seconds: 3.0,
                    traced: true,
                    out: None
                }
            }
        );
        let cmd = parse_args(&args("run live_churn --trace --out x.json --seed 0x10")).unwrap();
        let Cmd::Run { workload, options } = cmd else {
            panic!("not a run")
        };
        assert_eq!(workload, "live_churn");
        assert!(options.traced);
        assert_eq!(options.seed, 16);
        assert_eq!(options.out, Some(PathBuf::from("x.json")));
        assert!(matches!(
            parse_args(&args("--workload served_small --trace 0")),
            Ok(Cmd::Run {
                options: Options { traced: false, .. },
                ..
            })
        ));
        assert!(matches!(
            parse_args(&args("all --trace")),
            Ok(Cmd::All { .. })
        ));
        assert!(matches!(
            parse_args(&args("compare a b")),
            Ok(Cmd::Compare { .. })
        ));
    }

    #[test]
    fn bad_arguments_are_errors_not_panics() {
        for bad in [
            "",
            "run",
            "run nonesuch",
            "--workload nonesuch",
            "--workload",
            "all extra",
            "compare a",
            "run paper_cold --seed x",
            "run paper_cold --seconds 0",
            "run paper_cold --seconds 600",
            "run paper_cold --frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} should be refused");
        }
    }
}
