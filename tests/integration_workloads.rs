//! Generator contracts: the synthetic datasets must satisfy the workload
//! constraints the paper states for its testsets (§4.2).

use datagen::{TwitterConfig, TwitterGenerator, XkgConfig, XkgGenerator};
use kgstore::PatternKey;
use specqp_stats::{CardinalityEstimator, ExactCardinality};

#[test]
fn xkg_contract() {
    let ds = XkgGenerator::new(XkgConfig::small(31)).generate();
    assert_eq!(ds.name, "xkg");
    assert!(ds.graph.len() > 1_000);
    assert!(!ds.registry.is_empty());

    let oracle = ExactCardinality::new();
    let mut tp_counts = [0usize; 5];
    for q in &ds.workload.queries {
        // 2–4 triple patterns, connected star.
        assert!((2..=4).contains(&q.len()));
        tp_counts[q.len()] += 1;
        assert!(q.is_connected());
        // ≥10 relaxations per pattern.
        for p in q.patterns() {
            assert!(ds.registry.relaxation_count(p) >= 10);
        }
        // Non-empty original result.
        assert!(oracle.cardinality(&ds.graph, q.patterns()) >= 1.0);
    }
    // All pattern counts represented.
    assert!(tp_counts[2] > 0 && tp_counts[3] > 0 && tp_counts[4] > 0);
}

#[test]
fn twitter_contract() {
    let ds = TwitterGenerator::new(TwitterConfig::small(32)).generate();
    assert_eq!(ds.name, "twitter");
    let dict = ds.graph.dictionary();
    let has_tag = dict.lookup("hasTag").unwrap();

    let oracle = ExactCardinality::new();
    for q in &ds.workload.queries {
        assert!((2..=3).contains(&q.len()));
        for p in q.patterns() {
            // Single-predicate schema in every query pattern.
            assert_eq!(p.p.as_const(), Some(has_tag));
            assert!(ds.registry.relaxation_count(p) >= 5);
        }
        assert!(oracle.cardinality(&ds.graph, q.patterns()) >= 1.0);
    }
}

#[test]
fn xkg_type_lists_follow_8020() {
    // The two-bucket model's premise: most score mass sits in a head that
    // is a minority of the answers, for the class lists queries touch.
    let ds = XkgGenerator::new(XkgConfig::small(33)).generate();
    let dict = ds.graph.dictionary();
    let ty = dict.lookup("rdf:type").unwrap();
    let mut checked = 0;
    for q in &ds.workload.queries {
        for p in q.patterns() {
            if p.p.as_const() != Some(ty) {
                continue;
            }
            let (s, pp, o) = p.const_parts();
            let list = ds.graph.matches(PatternKey { s, p: pp, o });
            if list.len() < 20 {
                continue;
            }
            let total = list.total_score();
            let mut cum = 0.0;
            let mut rank_at_80 = list.len();
            for r in 0..list.len() {
                cum += list.score_at(r).value();
                if cum >= 0.8 * total {
                    rank_at_80 = r + 1;
                    break;
                }
            }
            // A power-law head over the popularity baseline: the 80%-mass
            // rank arrives before the end of the list and the boundary
            // score σ_r stays in the mid-range the two-bucket model needs.
            assert!(
                (rank_at_80 as f64) < 0.9 * list.len() as f64,
                "list too flat: 80% mass at rank {rank_at_80} of {}",
                list.len()
            );
            let sigma = list.score_at(rank_at_80 - 1).value() / list.max_score().value();
            assert!((0.02..0.98).contains(&sigma), "degenerate sigma_r {sigma}");
            checked += 1;
        }
    }
    assert!(checked > 5, "too few lists checked ({checked})");
}

#[test]
fn generators_scale_with_config() {
    let small = XkgGenerator::new(XkgConfig::small(34)).generate();
    let mut bigger_cfg = XkgConfig::small(34);
    bigger_cfg.entities *= 2;
    let bigger = XkgGenerator::new(bigger_cfg).generate();
    assert!(bigger.graph.len() > small.graph.len());

    let tw_small = TwitterGenerator::new(TwitterConfig::small(35)).generate();
    let mut tw_cfg = TwitterConfig::small(35);
    tw_cfg.tweets *= 2;
    let tw_big = TwitterGenerator::new(tw_cfg).generate();
    assert!(tw_big.graph.len() > tw_small.graph.len());
}

#[test]
fn different_seeds_differ() {
    let a = XkgGenerator::new(XkgConfig::small(40)).generate();
    let b = XkgGenerator::new(XkgConfig::small(41)).generate();
    // Same sizes/config, different content.
    let pa = a.workload.queries[0].patterns();
    let pb = b.workload.queries[0].patterns();
    assert!(pa != pb || a.graph.len() != b.graph.len());
}
