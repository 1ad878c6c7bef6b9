//! The statistics catalog: cached per-pattern [`PatternStats`] plus the
//! speculation-outcome feedback ledger.
//!
//! The paper precomputes its four per-pattern values offline ("precomputed
//! statistics about the distribution of scores", §1). The catalog plays that
//! role: the core crate's `Engine::warm` fills it for a query ahead of time
//! (with the cardinalities and the plan), and any pattern not yet covered is
//! computed on first use and cached. Entries are keyed by [`StatsKey`],
//! which erases variable names, so `?x type singer` and `?y type singer`
//! share one entry.
//!
//! # Speculation feedback
//!
//! The speculation lifecycle (core crate) reports, per pattern shape, what
//! escalating a pruned pattern's relaxations found at runtime:
//! [`StatsCatalog::record_escalations`] with `true` when a fallback
//! escalation changed the top-k, `false` when it changed nothing. A run
//! that verifies clean escalates nothing and records nothing: the ledger
//! learns only from escalations the lifecycle paid for. It turns those
//! verdicts into a planning bias — [`StatsCatalog::repeat_offender`] —
//! that the engine applies to every plan it serves, relaxing patterns whose
//! pruning keeps going wrong, regardless of what the (evidently
//! miscalibrated) histogram estimate says. The catalog knows nothing of plans or their
//! caches. Like the statistics, the ledger holds at most
//! [`kgstore::memo::CAPACITY`] shapes and starts over when a new one would
//! pass that, so a client that keeps sending fresh constants cannot grow it
//! without bound.

use crate::histogram::PatternStats;
use kgstore::{KnowledgeGraph, PatternKey, VersionMemo};
use sparql::{StatsKey, TriplePattern};
use specqp_common::FxHashMap;
use std::sync::RwLock;

/// Per-pattern-shape speculation outcomes: how often escalating this
/// pattern's pruned relaxations changed the top-k vs changed nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpeculationOutcome {
    /// Escalations of the pruned pattern that changed the top-k.
    pub mis_speculations: u64,
    /// Escalations of the pruned pattern that changed nothing: its
    /// pruning was fine.
    pub clean_prunes: u64,
}

impl SpeculationOutcome {
    /// `true` when the recorded evidence says pruning this pattern is a
    /// repeat offense: strictly more mis-speculations than clean prunes.
    pub fn repeat_offender(&self) -> bool {
        self.mis_speculations > self.clean_prunes
    }

    /// `true` when the pattern has been escalated (some verdict is on file) and
    /// the evidence says its pruning is fine: at least as many clean
    /// verdicts as offenses. The lifecycle suppresses re-flagging settled
    /// patterns — without this, a shape whose true result is genuinely
    /// smaller than `k` would re-trigger the full escalation ladder on
    /// every run.
    pub fn settled_clean(&self) -> bool {
        self.mis_speculations + self.clean_prunes > 0 && self.clean_prunes >= self.mis_speculations
    }
}

/// Cached map from pattern identity to statistics (`None` = pattern has no
/// matches), plus the speculation-feedback ledger.
///
/// Both maps are guarded by `RwLock`s so a catalog can be shared across
/// query-service worker threads; concurrent stat misses on the same key both
/// compute and the second insert keeps the first, identical value
/// (computation is deterministic). The statistics are a [`VersionMemo`]:
/// they describe one graph version, so a planner still reading an older
/// [`Epoch`](kgstore::Epoch) than the one the cache holds gets its numbers
/// computed, not cached, and they hold a bounded number of patterns.
#[derive(Default, Debug)]
pub struct StatsCatalog {
    cache: VersionMemo<StatsKey, Option<PatternStats>>,
    ledger: RwLock<FxHashMap<StatsKey, SpeculationOutcome>>,
}

impl StatsCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a run's escalation verdicts under one ledger write-lock
    /// acquisition: `(key, true)` when escalating the pattern's relaxations
    /// changed the top-k (pruning them was a mistake the fallback had to
    /// repair), `(key, false)` when it changed nothing. Every verdict
    /// counts, for never-seen patterns too: a clean escalation is the
    /// evidence that marks a pattern
    /// [`settled_clean`](SpeculationOutcome::settled_clean), which stops the
    /// lifecycle from re-escalating a proven-futile shape forever.
    pub fn record_escalations(&self, verdicts: impl IntoIterator<Item = (StatsKey, bool)>) {
        let mut ledger = self.ledger.write().expect("speculation ledger poisoned");
        for (key, mis_speculated) in verdicts {
            if ledger.len() >= kgstore::memo::CAPACITY && !ledger.contains_key(&key) {
                ledger.clear();
            }
            let entry = ledger.entry(key).or_default();
            if mis_speculated {
                entry.mis_speculations += 1;
            } else {
                entry.clean_prunes += 1;
            }
        }
    }

    /// The recorded outcomes for a pattern shape (all-zero when the ledger
    /// has never seen it).
    pub fn speculation_outcome(&self, key: &StatsKey) -> SpeculationOutcome {
        self.ledger
            .read()
            .expect("speculation ledger poisoned")
            .get(key)
            .copied()
            .unwrap_or_default()
    }

    /// The serving-time bias query: `true` when the ledger says pruning this
    /// pattern's relaxations keeps going wrong, so the served plan keeps
    /// them regardless of the histogram estimate.
    pub fn repeat_offender(&self, key: &StatsKey) -> bool {
        self.speculation_outcome(key).repeat_offender()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// `true` if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Statistics for `pattern` over `graph` (computed and cached on first
    /// use). `None` when the pattern matches nothing.
    pub fn stats(&self, graph: &KnowledgeGraph, pattern: &TriplePattern) -> Option<PatternStats> {
        let key = pattern.stats_key();
        if let Some(cached) = self.cache.get(graph.epoch(), &key) {
            return cached;
        }
        self.cache
            .insert(graph.epoch(), key, Self::compute(graph, pattern))
    }

    fn compute(graph: &KnowledgeGraph, pattern: &TriplePattern) -> Option<PatternStats> {
        let (s, p, o) = pattern.const_parts();
        let list = graph.matches(PatternKey { s, p, o });
        // Patterns with repeated variables filter their match list; the
        // statistics must reflect the filtered scores.
        match pattern.shape() {
            sparql::PatternShape::Distinct => PatternStats::from_match_list(&list),
            shape => {
                let mut scores: Vec<f64> = Vec::new();
                for (t, score) in list.iter_triples() {
                    if shape.admits(t.s, t.p, t.o) {
                        scores.push(score.value());
                    }
                }
                if scores.is_empty() {
                    return None;
                }
                let local_max = scores[0];
                if local_max > 0.0 {
                    for s in &mut scores {
                        *s /= local_max;
                    }
                }
                PatternStats::from_sorted_scores(&scores)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgstore::{KnowledgeGraphBuilder, TermId};
    use sparql::Var;

    fn graph() -> KnowledgeGraph {
        let mut b = KnowledgeGraphBuilder::new();
        for i in 0..20 {
            b.add(
                &format!("e{i}"),
                "type",
                "singer",
                100.0 / (i as f64 + 1.0), // power-law-ish
            );
        }
        b.add("x", "self", "x", 5.0);
        b.add("y", "self", "z", 50.0);
        b.build()
    }

    #[test]
    fn stats_cached_across_var_renames() {
        let g = graph();
        let d = g.dictionary();
        let ty = d.lookup("type").unwrap();
        let singer = d.lookup("singer").unwrap();
        let c = StatsCatalog::new();
        let a = c
            .stats(&g, &TriplePattern::new(Var(0), ty, singer))
            .unwrap();
        assert_eq!(c.len(), 1);
        let b = c
            .stats(&g, &TriplePattern::new(Var(7), ty, singer))
            .unwrap();
        assert_eq!(c.len(), 1, "renamed variable must hit the cache");
        assert_eq!(a, b);
        assert_eq!(a.m, 20);
    }

    #[test]
    fn missing_pattern_is_cached_none() {
        let g = graph();
        let d = g.dictionary();
        let ty = d.lookup("type").unwrap();
        let ghost = d.lookup("x").unwrap(); // exists but not as a class
        let c = StatsCatalog::new();
        assert!(c
            .stats(&g, &TriplePattern::new(Var(0), ty, ghost))
            .is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn repeated_var_stats_filter() {
        let g = graph();
        let d = g.dictionary();
        let sf = d.lookup("self").unwrap();
        let c = StatsCatalog::new();
        // ?x self ?x matches only <x self x> even though <y self z> scores
        // higher.
        let st = c
            .stats(&g, &TriplePattern::new(Var(0), sf, Var(0)))
            .unwrap();
        assert_eq!(st.m, 1);
        // Distinct-var version sees both.
        let st2 = c
            .stats(&g, &TriplePattern::new(Var(0), sf, Var(1)))
            .unwrap();
        assert_eq!(st2.m, 2);
    }

    #[test]
    fn ledger_counts_and_offender_bias() {
        let c = StatsCatalog::new();
        let key = TriplePattern::new(Var(0), specqp_common::TermId(1), specqp_common::TermId(2))
            .stats_key();
        assert_eq!(c.speculation_outcome(&key), SpeculationOutcome::default());
        assert!(!c.repeat_offender(&key));

        // First mis-speculation flips 0>0 → 1>0.
        c.record_escalations([(key, true)]);
        assert!(c.repeat_offender(&key));

        // A second mis-speculation changes counts but not the bias.
        c.record_escalations([(key, true)]);
        assert!(c.repeat_offender(&key));
        assert_eq!(
            c.speculation_outcome(&key),
            SpeculationOutcome {
                mis_speculations: 2,
                clean_prunes: 0
            }
        );

        // Clean verdicts accumulate until they outweigh the misses.
        c.record_escalations([(key, false)]);
        assert!(c.repeat_offender(&key), "2 mis > 1 clean");
        c.record_escalations([(key, false)]);
        assert!(
            !c.repeat_offender(&key),
            "2 mis vs 2 clean is not an offender"
        );
    }

    #[test]
    fn clean_escalations_settle_fresh_keys() {
        let c = StatsCatalog::new();
        let key = TriplePattern::new(Var(0), specqp_common::TermId(8), specqp_common::TermId(9))
            .stats_key();
        assert!(
            !c.speculation_outcome(&key).settled_clean(),
            "no evidence yet"
        );

        // A clean escalation lands for a never-seen key and settles it.
        c.record_escalations([(key, false)]);
        let outcome = c.speculation_outcome(&key);
        assert_eq!(outcome.clean_prunes, 1);
        assert!(outcome.settled_clean());
        assert!(
            !c.repeat_offender(&key),
            "clean verdicts never set the bias"
        );

        // An offense unsettles only once it outweighs the cleans.
        c.record_escalations([(key, false), (key, true), (key, true)]);
        assert!(
            c.speculation_outcome(&key).settled_clean(),
            "2 mis vs 2 clean"
        );
        c.record_escalations([(key, true)]);
        assert!(c.repeat_offender(&key), "3 > 2 flips the bias");
        assert!(!c.speculation_outcome(&key).settled_clean());
    }

    #[test]
    fn ledger_keys_erase_variable_names() {
        let c = StatsCatalog::new();
        let ty = specqp_common::TermId(3);
        let o = specqp_common::TermId(4);
        let a = TriplePattern::new(Var(0), ty, o).stats_key();
        let b = TriplePattern::new(Var(9), ty, o).stats_key();
        c.record_escalations([(a, true)]);
        assert!(c.repeat_offender(&b), "renamed variable shares the entry");
    }

    /// Every service worker writes the ledger: four writers hammering one
    /// key, two with offenses and two with cleans, must lose no verdict.
    #[test]
    fn concurrent_verdicts_are_all_recorded() {
        use std::sync::Arc;

        let c = Arc::new(StatsCatalog::new());
        let key = TriplePattern::new(Var(0), specqp_common::TermId(77), specqp_common::TermId(78))
            .stats_key();
        const ROUNDS: usize = 400;

        let writers: Vec<_> = (0..4)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..ROUNDS {
                        c.record_escalations([(key, t < 2)]);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer panicked");
        }

        let outcome = c.speculation_outcome(&key);
        assert_eq!(
            outcome,
            SpeculationOutcome {
                mis_speculations: (2 * ROUNDS) as u64,
                clean_prunes: (2 * ROUNDS) as u64,
            }
        );
    }

    /// A graph that never changes keeps no more than the memo's bound,
    /// however many distinct patterns are planned, and still answers a
    /// pattern asked for again.
    #[test]
    fn distinct_patterns_stay_within_the_bound() {
        let g = graph();
        let d = g.dictionary();
        let ty = d.lookup("type").unwrap();
        let singer = TriplePattern::new(Var(0), ty, d.lookup("singer").unwrap());
        let c = StatsCatalog::new();
        let expected = c.stats(&g, &singer);
        for i in 0..5_000 {
            let missing = TriplePattern::new(Var(0), ty, TermId(1_000_000 + i));
            assert!(c.stats(&g, &missing).is_none());
        }
        assert!(c.len() <= kgstore::memo::CAPACITY, "{} entries", c.len());
        assert_eq!(c.stats(&g, &singer), expected);
        assert_eq!(expected.map(|s| s.m), Some(20));
    }

    /// Fresh shapes past the bound start the ledger over: the first of
    /// `CAPACITY + 1` offenders is forgotten, the last is kept.
    #[test]
    fn ledger_starts_over_past_the_bound() {
        let c = StatsCatalog::new();
        let key = |i: usize| {
            TriplePattern::new(Var(0), TermId(1), TermId(1_000_000 + i as u32)).stats_key()
        };
        let shapes = kgstore::memo::CAPACITY + 1;
        for i in 0..shapes {
            c.record_escalations([(key(i), true)]);
        }
        assert!(!c.repeat_offender(&key(0)), "the first shape was dropped");
        assert!(c.repeat_offender(&key(shapes - 1)));
    }
}
