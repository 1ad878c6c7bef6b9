//! The statistics catalog: cached per-pattern [`PatternStats`] plus the
//! speculation-outcome feedback ledger.
//!
//! The paper precomputes its four per-pattern values offline ("precomputed
//! statistics about the distribution of scores", §1). The catalog plays that
//! role: [`StatsCatalog::precompute`] builds entries ahead of time, and any
//! pattern not yet covered is computed on first use and cached. Entries are
//! keyed by [`StatsKey`], which erases variable names, so `?x type singer`
//! and `?y type singer` share one entry.
//!
//! # Speculation feedback
//!
//! The speculation lifecycle (core crate) reports, per pattern shape, how
//! pruning that pattern's relaxations worked out at runtime:
//! [`StatsCatalog::record_speculation`] with `mis_speculated = true` when a
//! pruned pattern had to be escalated by a fallback stage, `false` when a
//! pruned pattern survived verification. The ledger turns those verdicts
//! into a planning bias — [`StatsCatalog::repeat_offender`] — that PLANGEN
//! consults to relax patterns whose pruning keeps going wrong, regardless of
//! what the (evidently miscalibrated) histogram estimate says.
//!
//! Every verdict that *flips* a pattern's offender bias bumps the catalog
//! [`generation`](StatsCatalog::generation), and nothing else does. The plan
//! cache stamps each cached plan with the generation it was planned under
//! (and the graph epoch it was planned on) and treats plans from older
//! generations as stale, so a refit ledger can never serve a plan that
//! pre-dates the bias it now records.

use crate::histogram::PatternStats;
use crate::memo::VersionMemo;
use kgstore::{KnowledgeGraph, PatternKey};
use sparql::{StatsKey, TriplePattern};
use specqp_common::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Per-pattern-shape speculation outcomes: how often pruning this pattern's
/// relaxations was flagged as a mis-speculation vs verified clean.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpeculationOutcome {
    /// Runs where the pruned pattern was escalated by a fallback stage.
    pub mis_speculations: u64,
    /// Runs where the pattern was pruned and the result verified clean.
    pub clean_prunes: u64,
}

impl SpeculationOutcome {
    /// `true` when the recorded evidence says pruning this pattern is a
    /// repeat offense: strictly more mis-speculations than clean prunes.
    pub fn repeat_offender(&self) -> bool {
        self.mis_speculations > self.clean_prunes
    }

    /// `true` when the pattern has been probed (some verdict is on file) and
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
/// (computation is deterministic). The statistics describe one graph
/// version: a planner still reading an older [`Epoch`](kgstore::Epoch) than
/// the one the cache holds gets its numbers computed, not cached.
#[derive(Default, Debug)]
pub struct StatsCatalog {
    cache: VersionMemo<StatsKey, Option<PatternStats>>,
    ledger: RwLock<FxHashMap<StatsKey, SpeculationOutcome>>,
    generation: AtomicU64,
}

impl StatsCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The feedback generation: starts at 0 and increases monotonically,
    /// once per recorded verdict that flips some pattern's
    /// [`repeat_offender`](SpeculationOutcome::repeat_offender) bias (i.e.
    /// once per change that can alter PLANGEN's output). Plans cached under
    /// an older generation must be re-planned.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Records one speculation verdict for the pattern shape `key`:
    /// `mis_speculated = true` when pruning the pattern's relaxations was a
    /// mistake the fallback had to repair, `false` when the pruned run
    /// verified clean. Returns `true` when the verdict flipped the pattern's
    /// offender bias (and therefore bumped the catalog generation).
    pub fn record_speculation(&self, key: StatsKey, mis_speculated: bool) -> bool {
        self.record_speculations(std::iter::once((key, mis_speculated))) > 0
    }

    /// Records a whole run's verdicts under at most **one** ledger write-lock
    /// acquisition — the engine's lifecycle reports every pruned pattern of a
    /// query at once, so service workers contend on the lock once per query
    /// instead of once per pattern. Returns the number of verdicts that
    /// flipped a pattern's offender bias (each flip bumps the catalog
    /// generation).
    ///
    /// Hot-path optimization: clean verdicts for patterns the ledger has
    /// never seen are **no-ops** — the ledger tracks outcomes only for
    /// patterns that have been part of at least one mis-speculation, so the
    /// overwhelmingly common all-clean run touches only the shared read
    /// lock and never serializes service workers on the write lock. (The
    /// cost is that a pattern's *first* offense flips its bias immediately
    /// instead of being damped by earlier unrecorded cleans; the engine's
    /// exoneration audit flips it back if the offense proves spurious.)
    pub fn record_speculations(&self, verdicts: impl IntoIterator<Item = (StatsKey, bool)>) -> u64 {
        let verdicts: Vec<(StatsKey, bool)> = verdicts.into_iter().collect();
        if verdicts.is_empty() {
            return 0;
        }
        let needs_write = verdicts.iter().any(|(_, mis)| *mis) || {
            let ledger = self.ledger.read().expect("speculation ledger poisoned");
            verdicts.iter().any(|(key, _)| ledger.contains_key(key))
        };
        if !needs_write {
            return 0;
        }
        self.write_verdicts(verdicts, false)
    }

    /// Records **probe** outcomes — verdicts backed by an actual paid-for
    /// delta run (a fallback escalation) or provenance audit. Unlike
    /// [`record_speculations`](StatsCatalog::record_speculations), clean
    /// verdicts are always recorded, even for never-seen patterns: a probe's
    /// clean result is the evidence that marks a pattern
    /// [`settled_clean`](SpeculationOutcome::settled_clean), which is what
    /// stops the lifecycle from re-escalating a proven-futile shape forever.
    pub fn record_probes(&self, verdicts: impl IntoIterator<Item = (StatsKey, bool)>) -> u64 {
        self.write_verdicts(verdicts, true)
    }

    fn write_verdicts(
        &self,
        verdicts: impl IntoIterator<Item = (StatsKey, bool)>,
        force_cleans: bool,
    ) -> u64 {
        let verdicts: Vec<(StatsKey, bool)> = verdicts.into_iter().collect();
        if verdicts.is_empty() {
            return 0;
        }
        let mut ledger = self.ledger.write().expect("speculation ledger poisoned");
        let mut flips = 0u64;
        for (key, mis_speculated) in verdicts {
            if !mis_speculated && !force_cleans && !ledger.contains_key(&key) {
                continue;
            }
            let entry = ledger.entry(key).or_default();
            let was_offender = entry.repeat_offender();
            if mis_speculated {
                entry.mis_speculations += 1;
            } else {
                entry.clean_prunes += 1;
            }
            if entry.repeat_offender() != was_offender {
                // Bump while still holding the ledger lock so a concurrent
                // planner never observes the new bias under the old
                // generation.
                self.generation.fetch_add(1, Ordering::AcqRel);
                flips += 1;
            }
        }
        flips
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

    /// PLANGEN's bias query: `true` when the ledger says pruning this
    /// pattern's relaxations keeps going wrong, so the planner should keep
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
        self.cache.len() == 0
    }

    /// Statistics for `pattern` over `graph` (computed and cached on first
    /// use). `None` when the pattern matches nothing.
    pub fn stats(&self, graph: &KnowledgeGraph, pattern: &TriplePattern) -> Option<PatternStats> {
        let key = pattern.stats_key();
        if let Some(cached) = self.cache.get(graph, &key) {
            return cached;
        }
        self.cache.insert(graph, key, Self::compute(graph, pattern))
    }

    /// Precomputes statistics for every pattern in `patterns` (the paper's
    /// offline statistics-building pass).
    pub fn precompute<'p>(
        &self,
        graph: &KnowledgeGraph,
        patterns: impl IntoIterator<Item = &'p TriplePattern>,
    ) {
        for p in patterns {
            let _ = self.stats(graph, p);
        }
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
                    let keep = match shape {
                        sparql::PatternShape::SpEqual => t.s == t.p,
                        sparql::PatternShape::SoEqual => t.s == t.o,
                        sparql::PatternShape::PoEqual => t.p == t.o,
                        sparql::PatternShape::AllEqual => t.s == t.p && t.p == t.o,
                        sparql::PatternShape::Distinct => true,
                    };
                    if keep {
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
    use kgstore::KnowledgeGraphBuilder;
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
        assert_eq!(c.generation(), 0);

        // First mis-speculation flips 0>0 → 1>0 and bumps the generation.
        assert!(c.record_speculation(key, true));
        assert!(c.repeat_offender(&key));
        assert_eq!(c.generation(), 1);

        // A second mis-speculation changes counts but not the bias: no bump.
        assert!(!c.record_speculation(key, true));
        assert_eq!(c.generation(), 1);
        assert_eq!(
            c.speculation_outcome(&key),
            SpeculationOutcome {
                mis_speculations: 2,
                clean_prunes: 0
            }
        );

        // Clean verdicts accumulate until they outweigh the misses; the
        // flip back (2 > 2 is false) bumps again.
        assert!(!c.record_speculation(key, false));
        assert!(c.repeat_offender(&key), "2 mis > 1 clean");
        assert!(c.record_speculation(key, false));
        assert!(
            !c.repeat_offender(&key),
            "2 mis vs 2 clean is not an offender"
        );
        assert_eq!(c.generation(), 2);
    }

    #[test]
    fn probe_records_cleans_for_fresh_keys_and_settles_them() {
        let c = StatsCatalog::new();
        let key = TriplePattern::new(Var(0), specqp_common::TermId(8), specqp_common::TermId(9))
            .stats_key();
        // A passive clean on a never-seen key is a no-op…
        assert_eq!(c.record_speculations([(key, false)]), 0);
        assert_eq!(c.speculation_outcome(&key), SpeculationOutcome::default());
        assert!(
            !c.speculation_outcome(&key).settled_clean(),
            "no evidence yet"
        );

        // …but a probe's clean result always lands and settles the pattern.
        assert_eq!(c.record_probes([(key, false)]), 0, "no bias flip");
        let outcome = c.speculation_outcome(&key);
        assert_eq!(outcome.clean_prunes, 1);
        assert!(outcome.settled_clean());
        assert_eq!(c.generation(), 0, "clean probes never bump the generation");

        // Once on file, passive cleans accumulate too.
        assert_eq!(c.record_speculations([(key, false)]), 0);
        assert_eq!(c.speculation_outcome(&key).clean_prunes, 2);

        // An offense unsettles only once it outweighs the cleans.
        c.record_probes([(key, true), (key, true)]);
        assert!(
            c.speculation_outcome(&key).settled_clean(),
            "2 mis vs 2 clean"
        );
        assert!(c.record_speculation(key, true), "3 > 2 flips the bias");
        assert!(!c.speculation_outcome(&key).settled_clean());
    }

    #[test]
    fn ledger_keys_erase_variable_names() {
        let c = StatsCatalog::new();
        let ty = specqp_common::TermId(3);
        let o = specqp_common::TermId(4);
        let a = TriplePattern::new(Var(0), ty, o).stats_key();
        let b = TriplePattern::new(Var(9), ty, o).stats_key();
        c.record_speculation(a, true);
        assert!(c.repeat_offender(&b), "renamed variable shares the entry");
    }

    /// Satellite stress test: a `settled_clean` verdict racing a
    /// `record_speculation` offense must never lose a generation bump — the
    /// plan cache relies on "bias visible ⇒ generation already bumped" to
    /// never serve a plan from the older generation.
    ///
    /// The test hammers one key from offense/clean writer threads while an
    /// observer snapshots the bias bracketed by two generation reads, then
    /// checks two invariants:
    /// * accounting: the sum of flip counts returned by all writers equals
    ///   the final generation (every flip paid exactly one bump, none lost);
    /// * ordering: whenever the observer sees the bias *change* between two
    ///   snapshots, a generation read *after* the new bias must exceed every
    ///   generation read *before* the old bias was last observed — the flip
    ///   happened after that earlier read, so its bump must be visible by
    ///   now. A changed bias that fails this is exactly the lost-bump bug.
    ///   (Comparing a *pre*-bias generation read against the new bias would
    ///   be a false positive: a writer can flip between the two reads, which
    ///   only makes a plan stamp conservatively old — the safe direction.)
    #[test]
    fn concurrent_verdicts_never_lose_a_generation_bump() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let c = Arc::new(StatsCatalog::new());
        let key = TriplePattern::new(Var(0), specqp_common::TermId(77), specqp_common::TermId(78))
            .stats_key();
        let stop = Arc::new(AtomicBool::new(false));
        const ROUNDS: usize = 400;

        // A clean `record_speculations` for a key the ledger has never seen
        // is a documented no-op, and an exoneration thread can win the race
        // to the first call. Seed the entry so every writer call is recorded
        // and the totals below are exact.
        let seed_flips = c.record_probes([(key, true)]);

        let mut writers = Vec::new();
        for t in 0..4 {
            let c = Arc::clone(&c);
            writers.push(std::thread::spawn(move || {
                let mut flips = 0u64;
                for i in 0..ROUNDS {
                    // Two offense threads, two exoneration threads; mix the
                    // passive and probe paths so the read-lock fast path
                    // races the write path.
                    let mis = t < 2;
                    flips += if (i + t) % 2 == 0 {
                        c.record_speculations([(key, mis)])
                    } else {
                        c.record_probes([(key, mis)])
                    };
                }
                flips
            }));
        }
        let observer = {
            let c = Arc::clone(&c);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // `plan_on` reads the generation before consulting the bias,
                // so a plan's stamp is at most the pre-flip generation; the
                // cache drops the plan once the current generation passes the
                // stamp. The matching invariant observable here: once a new
                // bias is visible, the generation must have advanced past
                // anything read while the old bias was still current.
                let mut last_pre = c.generation();
                let mut last_bias = c.repeat_offender(&key);
                let mut violations = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let pre = c.generation();
                    let bias = c.repeat_offender(&key);
                    let post = c.generation();
                    // Any flip producing `bias` happened after `last_bias`
                    // was read, hence after `last_pre` was read — so its
                    // bump must already be visible in `post`.
                    if bias != last_bias && post <= last_pre {
                        violations += 1;
                    }
                    last_pre = pre;
                    last_bias = bias;
                }
                violations
            })
        };

        let mut total_flips = seed_flips;
        for w in writers {
            total_flips += w.join().expect("writer panicked");
        }
        stop.store(true, Ordering::Release);
        let violations = observer.join().expect("observer panicked");

        assert_eq!(
            c.generation(),
            total_flips,
            "every flip must pay exactly one generation bump — a lost bump \
             would let the plan cache serve a pre-flip plan"
        );
        assert_eq!(violations, 0, "bias changed without a generation bump");
        // Sanity: the counts add up to everything the writers sent.
        let outcome = c.speculation_outcome(&key);
        assert_eq!(
            outcome.mis_speculations + outcome.clean_prunes,
            (1 + 4 * ROUNDS) as u64
        );
    }

    #[test]
    fn precompute_fills_cache() {
        let g = graph();
        let d = g.dictionary();
        let ty = d.lookup("type").unwrap();
        let singer = d.lookup("singer").unwrap();
        let sf = d.lookup("self").unwrap();
        let pats = [
            TriplePattern::new(Var(0), ty, singer),
            TriplePattern::new(Var(0), sf, Var(1)),
        ];
        let c = StatsCatalog::new();
        c.precompute(&g, pats.iter());
        assert_eq!(c.len(), 2);
    }
}
