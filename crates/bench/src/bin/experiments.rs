//! Regenerates every table and figure of the Spec-QP paper's evaluation.
//!
//! ```text
//! cargo run -p bench --release --bin experiments -- --all
//! cargo run -p bench --release --bin experiments -- table2 table3
//! cargo run -p bench --release --bin experiments -- fig6 --scale small
//! ```
//!
//! Artifacts: tables on stdout, raw per-query CSVs under `results/`.

use bench::{
    measure_workload, render_fig_by_relaxed, render_fig_by_tp, render_table2, render_table3,
    render_table4, DatasetReport, KS,
};
use datagen::{Dataset, TwitterConfig, TwitterGenerator, XkgConfig, XkgGenerator};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Scale {
    Small,
    Full,
}

/// Every experiment name the binary knows, in `--all` order.
const EXPERIMENTS: [&str; 7] = ["table2", "table3", "table4", "fig6", "fig7", "fig8", "fig9"];

const USAGE: &str =
    "usage: experiments [--all] [table2 table3 table4 fig6 fig7 fig8 fig9] [--scale small|full]";

#[derive(Debug, PartialEq)]
struct Args {
    experiments: Vec<&'static str>,
    scale: Scale,
}

/// What the command line asks for, once it is known to be valid.
#[derive(Debug, PartialEq)]
enum Command {
    Run(Args),
    Help,
}

/// Parses the arguments after the program name. Unknown experiment names
/// and bad `--scale` values are errors, so a typo measures nothing instead
/// of running the rest; repeated names keep their first position.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut experiments = Vec::new();
    let mut scale = Scale::Full;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--all" => experiments.extend(EXPERIMENTS),
            "--scale" => {
                scale = match args.next().as_deref() {
                    Some("small") => Scale::Small,
                    Some("full") => Scale::Full,
                    Some(other) => {
                        return Err(format!("unknown scale {other:?}, expected small|full"))
                    }
                    None => return Err("missing value for --scale, expected small|full".into()),
                };
            }
            "--help" | "-h" => return Ok(Command::Help),
            name => match EXPERIMENTS.iter().find(|&&e| e == name) {
                Some(&e) => experiments.push(e),
                None => return Err(format!("unknown experiment {name:?}")),
            },
        }
    }
    if experiments.is_empty() {
        experiments.extend(EXPERIMENTS);
    }
    let mut unique = Vec::new();
    for e in experiments {
        if !unique.contains(&e) {
            unique.push(e);
        }
    }
    Ok(Command::Run(Args {
        experiments: unique,
        scale,
    }))
}

fn build_xkg(scale: Scale) -> Dataset {
    let cfg = match scale {
        Scale::Full => XkgConfig::default(),
        Scale::Small => {
            let mut c = XkgConfig::small(0x5eed001);
            c.queries = 18;
            c
        }
    };
    XkgGenerator::new(cfg).generate()
}

fn build_twitter(scale: Scale) -> Dataset {
    let cfg = match scale {
        Scale::Full => TwitterConfig::default(),
        Scale::Small => {
            let mut c = TwitterConfig::small(0x71177e4);
            c.queries = 12;
            c
        }
    };
    TwitterGenerator::new(cfg).generate()
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => args,
        Ok(Command::Help) => {
            eprintln!("{USAGE}");
            return;
        }
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let need_xkg = args
        .experiments
        .iter()
        .any(|e| matches!(*e, "table2" | "table3" | "table4" | "fig6" | "fig7"));
    let need_twitter = args
        .experiments
        .iter()
        .any(|e| matches!(*e, "table2" | "table3" | "table4" | "fig8" | "fig9"));

    let mut xkg_report: Option<DatasetReport> = None;
    let mut twitter_report: Option<DatasetReport> = None;

    if need_xkg {
        let t0 = Instant::now();
        let ds = build_xkg(args.scale);
        eprintln!("built {} in {:.1?}", ds.summary(), t0.elapsed());
        let t0 = Instant::now();
        let report = measure_workload(&ds, &KS, |m| eprintln!("{m}"));
        eprintln!("measured xkg in {:.1?}", t0.elapsed());
        write_csv(&report);
        xkg_report = Some(report);
    }
    if need_twitter {
        let t0 = Instant::now();
        let ds = build_twitter(args.scale);
        eprintln!("built {} in {:.1?}", ds.summary(), t0.elapsed());
        let t0 = Instant::now();
        let report = measure_workload(&ds, &KS, |m| eprintln!("{m}"));
        eprintln!("measured twitter in {:.1?}", t0.elapsed());
        write_csv(&report);
        twitter_report = Some(report);
    }

    let both: Vec<&DatasetReport> = [xkg_report.as_ref(), twitter_report.as_ref()]
        .into_iter()
        .flatten()
        .collect();

    for &exp in &args.experiments {
        println!();
        match exp {
            "table2" => println!("{}", render_table2(&both, &KS)),
            "table3" => println!("{}", render_table3(&both, &KS)),
            "table4" => println!("{}", render_table4(&both, &KS)),
            "fig6" => {
                if let Some(r) = &xkg_report {
                    println!("{}", render_fig_by_tp(r, &KS, "Figure 6 (XKG)"));
                }
            }
            "fig7" => {
                if let Some(r) = &xkg_report {
                    println!("{}", render_fig_by_relaxed(r, &KS, "Figure 7 (XKG)"));
                }
            }
            "fig8" => {
                if let Some(r) = &twitter_report {
                    println!("{}", render_fig_by_tp(r, &KS, "Figure 8 (Twitter)"));
                }
            }
            "fig9" => {
                if let Some(r) = &twitter_report {
                    println!("{}", render_fig_by_relaxed(r, &KS, "Figure 9 (Twitter)"));
                }
            }
            other => unreachable!("parse_args admits only known names, got {other:?}"),
        }
    }
}

fn write_csv(report: &DatasetReport) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{}.csv", report.name));
        if let Err(e) = std::fs::write(&path, bench::tables::to_csv(report)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    fn run(experiments: &[&'static str], scale: Scale) -> Result<Command, String> {
        Ok(Command::Run(Args {
            experiments: experiments.to_vec(),
            scale,
        }))
    }

    #[test]
    fn repeats_keep_their_first_position() {
        assert_eq!(parse(&["--all", "table2"]), run(&EXPERIMENTS, Scale::Full));
        assert_eq!(
            parse(&["fig6", "table2", "fig6", "--scale", "small", "table2"]),
            run(&["fig6", "table2"], Scale::Small)
        );
    }

    #[test]
    fn no_names_run_the_paper_set() {
        assert_eq!(parse(&[]), run(&EXPERIMENTS, Scale::Full));
    }
}
