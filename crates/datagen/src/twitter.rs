//! The synthetic Twitter-style dataset (§4.2 dataset 2).
//!
//! Schema is exactly the paper's: triples `〈tweetID, hasTag, term〉`, one
//! triple per (tweet, term) pair, scored by the tweet's retweet count.
//! Tweets draw their 2–6 tags from topic-local term distributions, so terms
//! of the same topic co-occur — which is what gives the co-occurrence-mined
//! relaxation weights `w = #tweets(T₁∧T₂)/#tweets(T₁)` their structure.
//!
//! The workload mirrors the paper's 50 manually-built queries over
//! "combinations of most frequent tags and terms": 2–3 patterns per query,
//! built around witness tweets (non-empty original results), each pattern
//! with ≥5 mined relaxations.

use crate::spec::Dataset;
use crate::workload::Workload;
use crate::zipf::{blended_power_law_score, Zipf};
use kgstore::{KnowledgeGraphBuilder, TripleScore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relax::CooccurrenceMiner;
use sparql::{QueryBuilder, TriplePattern};
use specqp_common::TermId;

/// Knobs of the Twitter generator. `Default` is benchmark scale;
/// [`TwitterConfig::small`] is test scale.
#[derive(Clone, Debug)]
pub struct TwitterConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of tweets.
    pub tweets: usize,
    /// Vocabulary size (tags + terms).
    pub terms: usize,
    /// Number of topics.
    pub topics: usize,
    /// Terms sampled into each topic.
    pub terms_per_topic: usize,
    /// Tag-count range per tweet (inclusive).
    pub tags_per_tweet: (usize, usize),
    /// Zipf exponent of retweet counts.
    pub retweet_exponent: f64,
    /// Scale of the top retweet count.
    pub retweet_scale: f64,
    /// Baseline fraction of the top retweet count (see
    /// [`blended_power_law_score`]).
    pub retweet_floor: f64,
    /// Number of workload queries.
    pub queries: usize,
    /// Minimum mined relaxations per query pattern (paper: ≥5).
    pub min_relaxations: usize,
}

impl Default for TwitterConfig {
    fn default() -> Self {
        TwitterConfig {
            seed: 0x71177e4,
            tweets: 60_000,
            terms: 4_000,
            topics: 60,
            terms_per_topic: 30,
            tags_per_tweet: (2, 6),
            retweet_exponent: 1.0,
            retweet_scale: 50_000.0,
            retweet_floor: 0.25,
            queries: 50,
            min_relaxations: 5,
        }
    }
}

impl TwitterConfig {
    /// Small test-scale configuration.
    pub fn small(seed: u64) -> Self {
        TwitterConfig {
            seed,
            tweets: 5_000,
            terms: 600,
            topics: 20,
            terms_per_topic: 20,
            queries: 10,
            ..Self::default()
        }
    }
}

/// Generator state and entry point.
pub struct TwitterGenerator {
    config: TwitterConfig,
}

impl TwitterGenerator {
    /// Creates the generator.
    pub fn new(config: TwitterConfig) -> Self {
        TwitterGenerator { config }
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut b = KnowledgeGraphBuilder::new();
        b.reserve(cfg.tweets * 4);

        let has_tag = b.intern("hasTag");
        let terms: Vec<TermId> = (0..cfg.terms)
            .map(|r| b.intern(&format!("tag{r}")))
            .collect();

        // Topics: overlapping subsets of globally Zipf-popular terms.
        let global_z = Zipf::new(cfg.terms, 1.05);
        let mut topics: Vec<Vec<usize>> = Vec::with_capacity(cfg.topics);
        for _ in 0..cfg.topics {
            let mut topic: Vec<usize> = Vec::with_capacity(cfg.terms_per_topic);
            while topic.len() < cfg.terms_per_topic {
                let t = global_z.sample(&mut rng);
                if !topic.contains(&t) {
                    topic.push(t);
                }
            }
            topics.push(topic);
        }

        // Tweets: topic-local Zipf draws; retweet counts power-law in the
        // tweet index.
        let topic_z = Zipf::new(cfg.topics, 0.8);
        let within_z = Zipf::new(cfg.terms_per_topic, 0.9);
        let mut tweet_tags: Vec<Vec<usize>> = Vec::with_capacity(cfg.tweets);
        for i in 0..cfg.tweets {
            let tweet = b.intern(&format!("tw{i}"));
            let retweets = blended_power_law_score(
                i,
                cfg.retweet_scale,
                cfg.retweet_exponent,
                cfg.retweet_floor,
            );
            let topic = &topics[topic_z.sample(&mut rng)];
            let n_tags = rng.gen_range(cfg.tags_per_tweet.0..=cfg.tags_per_tweet.1);
            let mut tags: Vec<usize> = Vec::with_capacity(n_tags);
            let mut guard = 0;
            while tags.len() < n_tags && guard < 50 {
                guard += 1;
                let term = if rng.gen_bool(0.1) {
                    global_z.sample(&mut rng) // off-topic noise tag
                } else {
                    topic[within_z.sample(&mut rng)]
                };
                if !tags.contains(&term) {
                    tags.push(term);
                }
            }
            for &t in &tags {
                b.add_ids(tweet, has_tag, terms[t], TripleScore::new(retweets));
            }
            tweet_tags.push(tags);
        }

        let graph = b.build();

        // Mining: the paper's exact co-occurrence weight formula.
        let mut miner = CooccurrenceMiner::new(has_tag);
        miner.min_weight = 0.02;
        miner.max_rules_per_term = 20;
        let registry = miner.mine(&graph);

        // Workload: witness-tweet queries over "combinations of most
        // frequent tags and terms" (§4.2). Query flavours alternate between
        // *frequent* tags (dense match lists — the original query can often
        // fill the top-k, so relaxations get pruned) and *mid-band* tags
        // (thin lists — most patterns require relaxation, the dominant
        // regime in the paper's Table 3 for Twitter).
        let mut queries = Vec::with_capacity(cfg.queries);
        let mut attempts = 0usize;
        let witness_z = Zipf::new(cfg.tweets, 0.5);
        while queries.len() < cfg.queries && attempts < cfg.queries * 600 {
            attempts += 1;
            let want_tp = 2 + queries.len() % 2; // alternate 2,3
            let frequent_flavour = (queries.len() / 2) % 2 == 0;
            let w = witness_z.sample(&mut rng);
            let tags = &tweet_tags[w];
            // Term index == global popularity rank; band-filter by flavour.
            let mut band: Vec<usize> = tags
                .iter()
                .copied()
                .filter(|&t| {
                    if frequent_flavour {
                        t < cfg.terms / 8
                    } else {
                        (cfg.terms / 20..cfg.terms / 2).contains(&t)
                    }
                })
                .collect();
            band.sort_unstable();
            band.dedup();
            if band.len() < want_tp {
                continue;
            }
            let chosen = &band[..want_tp];
            let mut ok = true;
            let mut qb = QueryBuilder::new();
            let s = qb.var("s");
            for &t in chosen {
                let pat = TriplePattern::new(s, has_tag, terms[t]);
                if registry.relaxation_count(&pat) < cfg.min_relaxations {
                    ok = false;
                    break;
                }
                qb.pattern(s, has_tag, terms[t]);
            }
            if !ok {
                continue;
            }
            qb.project(s);
            let q = qb.build().expect("generated query is valid");
            // Avoid duplicate queries.
            if queries
                .iter()
                .any(|existing: &sparql::Query| existing.patterns() == q.patterns())
            {
                continue;
            }
            queries.push(q);
        }
        assert_eq!(
            queries.len(),
            cfg.queries,
            "twitter workload generation exhausted attempts — enlarge the dataset"
        );

        Dataset {
            name: "twitter".into(),
            graph,
            registry,
            workload: Workload::new("twitter", queries),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgstore::PatternKey;
    use specqp_stats::CardinalityEstimator;

    fn small() -> Dataset {
        TwitterGenerator::new(TwitterConfig::small(3)).generate()
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.graph.len(), b.graph.len());
        assert_eq!(a.registry.len(), b.registry.len());
        for (qa, qb) in a.workload.queries.iter().zip(&b.workload.queries) {
            assert_eq!(qa.patterns(), qb.patterns());
        }
    }

    #[test]
    fn schema_is_single_predicate() {
        let d = small();
        let dict = d.graph.dictionary();
        let has_tag = dict.lookup("hasTag").unwrap();
        for st in d.graph.iter_scored() {
            assert_eq!(st.triple.p, has_tag);
        }
    }

    #[test]
    fn workload_shape_matches_paper() {
        let d = small();
        assert_eq!(d.workload.len(), 10);
        for q in &d.workload.queries {
            assert!((2..=3).contains(&q.len()));
            for p in q.patterns() {
                assert!(
                    d.registry.relaxation_count(p) >= 5,
                    "pattern with only {} relaxations",
                    d.registry.relaxation_count(p)
                );
            }
        }
    }

    #[test]
    fn queries_have_nonempty_original_results() {
        let d = small();
        let card = specqp_stats::ExactCardinality::new();
        for q in &d.workload.queries {
            let n = card.cardinality(&d.graph, q.patterns());
            assert!(n >= 1.0, "query with empty original result");
        }
    }

    #[test]
    fn retweet_scores_have_power_head_and_moderate_sigma() {
        let d = small();
        let dict = d.graph.dictionary();
        let has_tag = dict.lookup("hasTag").unwrap();
        let all = d.graph.matches(PatternKey::p_only(has_tag));
        // A real power-law head: the best tweet dwarfs the median one.
        let median = all.score_at(all.len() / 2).value();
        assert!(
            all.max_score().value() > 3.0 * median,
            "max {} vs median {median}",
            all.max_score().value()
        );
        // …but the baseline keeps the two-bucket boundary σ_r in the
        // mid-range the model needs (not degenerate near 0).
        let total = all.total_score();
        let mut cum = 0.0;
        let mut sigma = 1.0;
        for r in 0..all.len() {
            cum += all.score_at(r).value();
            if cum >= 0.8 * total {
                sigma = all.score_at(r).value() / all.max_score().value();
                break;
            }
        }
        assert!((0.05..0.95).contains(&sigma), "sigma_r = {sigma}");
    }
}
