//! EXPLAIN-style walkthrough of PLANGEN: prints, for one query, the
//! expected-score arithmetic behind every keep/prune decision (§3.1–3.2),
//! the plan, the relaxations the true top-k actually needs, and Spec-QP's
//! top-k scores next to TriniT's.
//!
//! ```text
//! cargo run --release --example plan_explain                   # xkg, query 1, k = 10
//! cargo run --release --example plan_explain -- twitter 3 10   # [xkg|twitter] [query id] [k]
//! ```

use datagen::{TwitterConfig, TwitterGenerator, XkgConfig, XkgGenerator};
use specqp::{required_relaxations, Engine, QueryOutcome};
use specqp_stats::{ExactCardinality, ScoreEstimator, StatsCatalog};

/// Reports a bad command line and exits 2.
fn usage_exit(problem: &str) -> ! {
    eprintln!("plan_explain: {problem}");
    eprintln!("usage: plan_explain [xkg|twitter] [query id] [k >= 1]");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let dataset = args.next().unwrap_or_else(|| "xkg".into());
    if dataset != "xkg" && dataset != "twitter" {
        usage_exit(&format!("unknown dataset {dataset:?}"));
    }
    let mut number = |what: &str, min: usize, default: usize| match args.next() {
        None => default,
        Some(s) => s.parse().ok().filter(|&n| n >= min).unwrap_or_else(|| {
            usage_exit(&format!("{what} must be an integer >= {min}, got {s:?}"))
        }),
    };
    let qid = number("the query id", 0, 1);
    let k = number("k", 1, 10);
    if args.next().is_some() {
        usage_exit("too many arguments");
    }

    let ds = if dataset == "xkg" {
        XkgGenerator::new(XkgConfig::small(0xBEEF)).generate()
    } else {
        TwitterGenerator::new(TwitterConfig::small(0xBEEF)).generate()
    };
    let Some(query) = ds.workload.queries.get(qid) else {
        usage_exit(&format!(
            "query id {qid} is out of range: the {dataset} workload has {} queries",
            ds.workload.queries.len()
        ))
    };
    let dict = ds.graph.dictionary();

    println!("{}", ds.summary());
    println!("\nquery:\n{}", query.display(dict));

    let catalog = StatsCatalog::new();
    let oracle = ExactCardinality::new();
    let estimator = ScoreEstimator::new(&catalog, &oracle);

    // Per-pattern statistics: the four stored values of §3.1.1.
    println!("\nper-pattern statistics (m, σ_r, S_r, S_m):");
    for (i, p) in query.patterns().iter().enumerate() {
        match catalog.stats(&ds.graph, p) {
            Some(st) => println!(
                "  q{}: m={:<6} σ_r={:.4} S_r={:.2} S_m={:.2}",
                i + 1,
                st.m,
                st.sigma_r,
                st.s_r,
                st.s_m
            ),
            None => println!("  q{}: no matches", i + 1),
        }
    }

    // The two quantities PLANGEN compares.
    let original: Vec<_> = query.patterns().iter().map(|p| (*p, 1.0)).collect();
    let e_orig = estimator.estimate(&ds.graph, &original);
    println!(
        "\noriginal query: n = {:.0}, E_Q(k={k}) = {:?}",
        e_orig.n,
        e_orig.expected_score_at_rank(k)
    );
    for (i, p) in query.patterns().iter().enumerate() {
        let Some(top) = ds.registry.top_relaxation_for(p) else {
            println!("q{}: no relaxations — stays in the join group", i + 1);
            continue;
        };
        let mut relaxed = original.clone();
        relaxed[i] = (top.pattern, top.weight);
        let e_rel = estimator.estimate(&ds.graph, &relaxed);
        println!(
            "q{}: top relaxation w={:.3} ⇒ E_Q'(1) = {:?} {} E_Q(k)",
            i + 1,
            top.weight,
            e_rel.expected_top_score(),
            match (e_rel.expected_top_score(), e_orig.expected_score_at_rank(k)) {
                (Some(a), Some(b)) if a > b => ">",
                (Some(_), None) => "> (original cannot fill k)",
                _ => "≤",
            }
        );
    }

    // And the plan the engine actually chooses + its execution, against the
    // relaxations TriniT's exact top-k shows were needed.
    let engine = Engine::new(&ds.graph, &ds.registry);
    let out = engine.run_specqp(query, k);
    let trinit = engine.run_trinit(query, k);
    println!("\n{}", out.plan.explain(query, dict));
    let required = required_relaxations(&ds.graph, query, &ds.registry, &trinit.answers);
    let required: Vec<String> = required.iter().map(|i| format!("q{}", i + 1)).collect();
    println!(
        "required relaxations (ground truth): {}",
        if required.is_empty() {
            "none".into()
        } else {
            required.join(", ")
        }
    );
    println!("\ntop-{k} answers:");
    for a in &out.answers {
        let x = query.projection()[0];
        println!(
            "  {:<12} {:.3}",
            dict.name_or_unknown(a.binding.get(x).unwrap()),
            a.score.value()
        );
    }
    let scores = |o: &QueryOutcome| -> Vec<f64> {
        o.answers
            .iter()
            .map(|a| (a.score.value() * 1000.0).round() / 1000.0)
            .collect()
    };
    println!("Spec-QP top-{k} scores: {:?}", scores(&out));
    println!("TriniT  top-{k} scores: {:?}", scores(&trinit));
}
