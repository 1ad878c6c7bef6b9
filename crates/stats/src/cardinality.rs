//! Join-cardinality estimation.
//!
//! The estimator of §3.1.2 needs the expected number of answers `n` of a
//! query (and of each singly-relaxed query): `m₁₂ = m·m′·φ₁₂` with join
//! selectivity `φ`. The paper sidesteps selectivity estimation: "we have
//! taken exact join selectivity values" (footnote 3). [`ExactCardinality`]
//! is that oracle.
//!
//! # Counting without enumerating
//!
//! The oracle never materialises a join row. Only a pattern's *join
//! variables* — those another pattern of the query also mentions — can
//! constrain the join; every other variable just multiplies the count. So
//! each pattern is reduced once to a **join-key summary**: the values its
//! matches take at the join-variable positions, each with the number of
//! matches carrying it (`?x type singer` joined on `?x` becomes `{x ↦ 1}`
//! per singer; `?x plays ?y` joined on `?x` alone becomes
//! `{x ↦ instruments of x}`). A pattern that repeats a variable (`?x p ?x`)
//! is filtered to the rows satisfying the equality first, and rows are read
//! through the overlay-aware [`MatchList`](kgstore::MatchList), so a live
//! graph's retractions and fresh rows are summarised exactly as a flattened
//! graph's would be.
//!
//! A summary on one position — what a star query's patterns all have — is
//! indexed by dictionary term id and hashes nothing: a bit per id over the
//! span the ids cover, which is the whole summary when every multiplicity
//! is 1 (the *set form*, as for `?x type singer`), plus a rank prefix per
//! 64-bit word and the multiplicities in id order otherwise (the
//! *multiplicity form*, as for `?x plays ?y`); a probe is a bit test and a
//! popcount. Ids that spread over more than 64 ids per match keep a hash
//! map instead, so no summary holds more than about 16 bytes per match.
//! Summaries on two or three positions are hash maps of packed keys.
//!
//! The join count is then a sum of products over the summaries, taken one
//! *fold step* at a time. A step streams one summary — the smallest that
//! joins what is already bound — past the partial counts so far, a flat
//! table of `(values of the live variables ↦ count)` rows; every pattern
//! whose variables are all bound by then rides along as a hash probe that
//! multiplies the count or drops the combination; and what survives is
//! projected onto the variables a pattern still to come mentions, rows that
//! now coincide adding up. A variable is summed out the moment its last
//! pattern has been folded, so the table never holds more than the distinct
//! values of the variables still needed. A star query is a single step:
//! walk the smallest summary, probe the others, multiply, add. Every step
//! is integer arithmetic on match multiplicities (carried in `f64`, which
//! holds every integer below 2⁵³ exactly), and a join's count does not
//! depend on the order its patterns are folded in, so the result is the
//! same number an enumerating join would reach by counting its rows — the
//! exact selectivity footnote 3 asks for, without the rows.
//!
//! # Memo lifetime
//!
//! The oracle keeps two [`VersionMemo`] tables: finished counts by
//! canonical query (constants + variable numbering), and summaries by
//! `(StatsKey, kept positions)`. PLANGEN asks about a query and about one
//! relaxed variant per pattern; each variant differs from the original in
//! one pattern, so it finds all its other summaries already built, and
//! queries that share a pattern share its summary. Both tables describe one
//! graph version, the [`Epoch`](kgstore::Epoch) the graph carries: the
//! first count on a newer version empties them, a count on an older one (a
//! planner still holding an earlier pin) is returned uncached, and each
//! table starts over when it reaches
//! [`CAPACITY`](kgstore::memo::CAPACITY) entries.

use kgstore::{KnowledgeGraph, PatternKey, Triple, VersionMemo};
use sparql::{canonical_form, CanonicalSlot, PatternShape, StatsKey, Term, TriplePattern, Var};
use specqp_common::FxHashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Estimates the number of answers of a conjunctive triple-pattern query.
///
/// Implementations must be shareable across query-service worker threads
/// (`Send + Sync`); the built-in estimators keep their memo tables in
/// [`VersionMemo`]s. An implementation that memoizes must tell graph versions
/// apart ([`KnowledgeGraph::epoch`]): counts from an older version no
/// longer describe the data.
pub trait CardinalityEstimator: Send + Sync {
    /// Expected (or exact) answer count of the join of `patterns`.
    fn cardinality(&self, graph: &KnowledgeGraph, patterns: &[TriplePattern]) -> f64;
}

/// Canonical identity of a pattern sequence for the cardinality cache
/// ([`canonical_form`]), so queries differing only in variable names share
/// entries.
type QueryKey = Vec<CanonicalSlot>;

/// Bit `i` set = triple position `i` (0 = s, 1 = p, 2 = o) is part of a
/// summary's key.
type PositionMask = u8;

#[inline]
fn pack2(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

#[inline]
fn pack3(a: u32, b: u32, c: u32) -> u128 {
    (u128::from(a) << 64) | u128::from(pack2(b, c))
}

/// Counts how often each key occurs.
fn tally<K: Hash + Eq>(keys: impl Iterator<Item = K>, capacity: usize) -> FxHashMap<K, u32> {
    let mut counts = FxHashMap::with_capacity_and_hasher(capacity, Default::default());
    for k in keys {
        *counts.entry(k).or_insert(0) += 1;
    }
    counts
}

/// Multiplicities of term ids, laid out densely over the id span they
/// cover: a presence bit per id from `base` on and, unless every
/// multiplicity is 1 (*set form*), the multiplicities in id order
/// (*multiplicity form*), found by rank — the keys set in earlier words
/// plus a popcount within the word.
#[derive(Debug)]
struct DenseTally {
    /// The id of bit 0.
    base: u32,
    bits: Vec<u64>,
    /// Keys set in the words before each word; empty in set form.
    ranks: Vec<u32>,
    /// Multiplicities in id order; empty in set form.
    counts: Vec<u32>,
    /// Number of distinct ids.
    len: usize,
}

impl DenseTally {
    /// Tallies `ids`, or `None` when they are empty or spread over more
    /// than 64 ids per entry, where a bit per id would cost more than a map.
    /// Either form then stays within 16 bytes per entry: 8 for the bits, 4
    /// for the ranks, 4 for the multiplicities.
    fn build(ids: &[u32]) -> Option<DenseTally> {
        let (&first, rest) = ids.split_first()?;
        let (lo, hi) = rest
            .iter()
            .fold((first, first), |(lo, hi), &id| (lo.min(id), hi.max(id)));
        let span = (hi - lo) as usize + 1;
        if span > 64 * ids.len() {
            return None;
        }
        let mut bits = vec![0u64; span.div_ceil(64)];
        for &id in ids {
            let at = id - lo;
            bits[(at / 64) as usize] |= 1 << (at % 64);
        }
        let len = bits.iter().map(|w| w.count_ones() as usize).sum();
        let mut dense = DenseTally {
            base: lo,
            bits,
            ranks: Vec::new(),
            counts: Vec::new(),
            len,
        };
        if len < ids.len() {
            // Some id repeats: rank the set bits and count into the ranks.
            let mut seen = 0;
            dense.ranks = (dense.bits.iter())
                .map(|w| {
                    let before = seen;
                    seen += w.count_ones();
                    before
                })
                .collect();
            dense.counts = vec![0; len];
            for &id in ids {
                let rank = dense.rank(id - lo);
                dense.counts[rank] += 1;
            }
        }
        Some(dense)
    }

    /// Position in id order of the set bit `at` (multiplicity form only).
    #[inline]
    fn rank(&self, at: u32) -> usize {
        let w = (at / 64) as usize;
        let below = self.bits[w] & ((1u64 << (at % 64)) - 1);
        self.ranks[w] as usize + below.count_ones() as usize
    }

    #[inline]
    fn get(&self, id: u32) -> u32 {
        let Some(at) = id.checked_sub(self.base) else {
            return 0;
        };
        match self.bits.get((at / 64) as usize) {
            Some(word) if word & (1 << (at % 64)) != 0 => {
                if self.counts.is_empty() {
                    1
                } else {
                    self.counts[self.rank(at)]
                }
            }
            _ => 0,
        }
    }

    /// Calls `f(id, multiplicity)` for every id, in id order.
    fn for_each(&self, mut f: impl FnMut(u32, u32)) {
        let mut rank = 0;
        for (w, &word) in self.bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let id = self.base + 64 * w as u32 + rest.trailing_zeros();
                rest &= rest - 1;
                f(id, self.counts.get(rank).copied().unwrap_or(1));
                rank += 1;
            }
        }
    }
}

/// A pattern's join-key summary: the values its matches take at the kept
/// positions ↦ how many matches take them (see the module docs). Keys hold
/// the kept positions in s, p, o order, 32 bits each.
#[derive(Debug)]
enum Summary {
    /// One kept position, its ids dense enough for [`DenseTally`].
    Dense(DenseTally),
    /// One kept position with sparse ids — or none, when the single key `0`
    /// carries the pattern's match count.
    One(FxHashMap<u32, u32>),
    /// Two kept positions.
    Two(FxHashMap<u64, u32>),
    /// All three positions kept.
    Three(FxHashMap<u128, u32>),
}

impl Summary {
    /// Scans `pattern`'s matches in `graph` once, keeping the positions in
    /// `mask`.
    fn build(graph: &KnowledgeGraph, pattern: &TriplePattern, mask: PositionMask) -> Summary {
        let (s, p, o) = pattern.const_parts();
        let key = PatternKey { s, p, o };
        let list = graph.matches(key);
        let kept: Vec<usize> = (0..3).filter(|i| mask & (1 << i) != 0).collect();
        // Constants plus kept positions spelling out the whole triple means
        // one key per row: size the map once instead of growing it.
        let capacity = if key.bound_count() + kept.len() == 3 {
            list.len()
        } else {
            0
        };
        let shape = pattern.shape();
        if shape == PatternShape::Distinct {
            // Nothing to filter: no need to assemble whole triples.
            match kept[..] {
                [] => {
                    let matches = u32::try_from(list.len()).expect("triple ids are u32");
                    let only = (matches > 0).then_some((0, matches));
                    return Summary::One(only.into_iter().collect());
                }
                [a] => {
                    let ids = list.terms(a, 0..list.len()).map(|t| t.0).collect();
                    return Summary::of_ids(ids, capacity);
                }
                _ => {}
            }
        }
        let rows = list
            .ids()
            .iter()
            .map(|&id| graph.triple(id))
            .filter(|t| satisfies(shape, t));
        let at = |t: &Triple, pos: usize| [t.s.0, t.p.0, t.o.0][pos];
        match kept[..] {
            [] => Summary::One(tally(rows.map(|_| 0), 1)),
            [a] => Summary::of_ids(rows.map(|t| at(&t, a)).collect(), capacity),
            [a, b] => Summary::Two(tally(rows.map(|t| pack2(at(&t, a), at(&t, b))), capacity)),
            _ => Summary::Three(tally(rows.map(|t| pack3(t.s.0, t.p.0, t.o.0)), capacity)),
        }
    }

    /// The one-position summary of the ids the matches carry there: dense
    /// when the ids allow, a map otherwise.
    fn of_ids(ids: Vec<u32>, capacity: usize) -> Summary {
        match DenseTally::build(&ids) {
            Some(dense) => Summary::Dense(dense),
            None => Summary::One(tally(ids.into_iter(), capacity)),
        }
    }

    /// Number of distinct keys.
    fn len(&self) -> usize {
        match self {
            Summary::Dense(d) => d.len,
            Summary::One(m) => m.len(),
            Summary::Two(m) => m.len(),
            Summary::Three(m) => m.len(),
        }
    }

    /// Multiplicity of the key whose kept positions hold `vals` (0 when no
    /// match carries it).
    fn get(&self, vals: &[u32]) -> u32 {
        match self {
            Summary::Dense(d) => return d.get(vals[0]),
            Summary::One(m) => m.get(&vals.first().copied().unwrap_or(0)),
            Summary::Two(m) => m.get(&pack2(vals[0], vals[1])),
            Summary::Three(m) => m.get(&pack3(vals[0], vals[1], vals[2])),
        }
        .copied()
        .unwrap_or(0)
    }

    /// Calls `f(values at the kept positions, multiplicity)` for every key.
    fn for_each(&self, mut f: impl FnMut(&[u32], u32)) {
        match self {
            Summary::Dense(d) => d.for_each(|k, n| f(&[k], n)),
            Summary::One(m) => m.iter().for_each(|(&k, &n)| f(&[k], n)),
            Summary::Two(m) => m
                .iter()
                .for_each(|(&k, &n)| f(&[(k >> 32) as u32, k as u32], n)),
            Summary::Three(m) => m
                .iter()
                .for_each(|(&k, &n)| f(&[(k >> 64) as u32, (k >> 32) as u32, k as u32], n)),
        }
    }
}

/// `true` if `t` satisfies the variable equalities `shape` demands.
#[inline]
fn satisfies(shape: PatternShape, t: &Triple) -> bool {
    match shape {
        PatternShape::Distinct => true,
        PatternShape::SpEqual => t.s == t.p,
        PatternShape::SoEqual => t.s == t.o,
        PatternShape::PoEqual => t.p == t.o,
        PatternShape::AllEqual => t.s == t.p && t.p == t.o,
    }
}

/// A hashable row of term values: up to four terms packed into a `u128` (as
/// `operators::block_join` packs its join keys), wider rows boxed. Within
/// one map every key has the same width.
#[derive(PartialEq, Eq, Hash, Debug)]
enum RowKey {
    Packed(u128),
    Wide(Box<[u32]>),
}

impl RowKey {
    fn pack(vals: impl ExactSizeIterator<Item = u32>) -> RowKey {
        if vals.len() <= 4 {
            RowKey::Packed(vals.fold(0, |k, v| (k << 32) | u128::from(v)))
        } else {
            RowKey::Wide(vals.collect())
        }
    }
}

/// Partial join counts: row `i` holds one value per live variable
/// (`vals[i * width..][..width]`) and the number of ways the patterns
/// folded so far produce those values (`counts[i]`).
#[derive(Debug)]
struct FoldState {
    width: usize,
    vals: Vec<u32>,
    counts: Vec<f64>,
}

impl FoldState {
    fn new(width: usize) -> FoldState {
        FoldState {
            width,
            vals: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// The join of no patterns: the empty row, once.
    fn unit() -> FoldState {
        FoldState {
            counts: vec![1.0],
            ..FoldState::new(0)
        }
    }

    fn len(&self) -> usize {
        self.counts.len()
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.vals[i * self.width..][..self.width]
    }

    /// Appends a row; the empty row has one slot, so its counts add up.
    fn push(&mut self, vals: impl Iterator<Item = u32>, count: f64) {
        match self.counts.first_mut() {
            Some(total) if self.width == 0 => *total += count,
            _ => {
                self.vals.extend(vals);
                self.counts.push(count);
            }
        }
    }

    /// Adds up the rows that agree on every value.
    fn merged(self) -> FoldState {
        let mut merged = FoldState::new(self.width);
        let mut slot_of: FxHashMap<RowKey, usize> = FxHashMap::default();
        for (i, &count) in self.counts.iter().enumerate() {
            let row = self.row(i);
            let slot = *slot_of
                .entry(RowKey::pack(row.iter().copied()))
                .or_insert(merged.len());
            if slot == merged.len() {
                merged.push(row.iter().copied(), count);
            } else {
                merged.counts[slot] += count;
            }
        }
        merged
    }
}

/// One pattern of the query being counted.
struct Operand {
    /// The pattern's join variables, one per kept position of `summary`, in
    /// key order.
    vars: Vec<Var>,
    summary: Arc<Summary>,
}

/// Where a variable's value comes from during a fold step: the state row
/// or the key of the summary being streamed past it.
#[derive(Clone, Copy)]
enum Source {
    State(usize),
    Streamed(usize),
}

/// One fold step: joins `state` (over the variables `live`) with the
/// summary of `op`, which binds at least one new variable unless it is the
/// first pattern folded; keeps only the combinations every summary in
/// `probes` — patterns whose variables are all bound by then — also has,
/// weighted by their multiplicities; and sums out every variable not in
/// `keep`.
fn fold(
    live: &[Var],
    state: &FoldState,
    op: &Operand,
    probes: &[Operand],
    keep: &[Var],
) -> FoldState {
    let source = |v: &Var| match live.iter().position(|w| w == v) {
        Some(l) => Source::State(l),
        None => Source::Streamed(
            op.vars
                .iter()
                .position(|w| w == v)
                .expect("the state or the streamed pattern binds the variable"),
        ),
    };
    let sources = |vars: &[Var]| vars.iter().map(source).collect::<Vec<_>>();
    let kept = sources(keep);
    let probes: Vec<(&Summary, Vec<Source>)> = probes
        .iter()
        .map(|p| (&*p.summary, sources(&p.vars)))
        .collect();
    // (position in the streamed key, position in the state's rows) of each
    // variable both sides bind.
    let shared: Vec<(usize, usize)> = (op.vars.iter().map(source).enumerate())
        .filter_map(|(i, s)| match s {
            Source::State(l) => Some((i, l)),
            Source::Streamed(_) => None,
        })
        .collect();

    let mut next = FoldState::new(keep.len());
    let mut join = |i: usize, streamed: &[u32], n: u32| {
        let row = state.row(i);
        let value = |s: &Source| match *s {
            Source::State(l) => row[l],
            Source::Streamed(i) => streamed[i],
        };
        let mut count = state.counts[i] * f64::from(n);
        for (summary, key) in &probes {
            let mut vals = [0; 3];
            for (slot, s) in vals.iter_mut().zip(key) {
                *slot = value(s);
            }
            match summary.get(&vals[..key.len()]) {
                0 => return,
                n => count *= f64::from(n),
            }
        }
        next.push(kept.iter().map(value), count);
    };
    if shared.is_empty() {
        // Nothing shared (the first pattern, or a cross product): every
        // streamed key meets every state row.
        op.summary
            .for_each(|streamed, n| (0..state.len()).for_each(|i| join(i, streamed, n)));
    } else {
        // Group the state's rows by the shared variables and stream the
        // summary past the groups.
        let mut groups: FxHashMap<RowKey, Vec<usize>> = FxHashMap::default();
        for i in 0..state.len() {
            let row = state.row(i);
            groups
                .entry(RowKey::pack(shared.iter().map(|&(_, l)| row[l])))
                .or_default()
                .push(i);
        }
        op.summary.for_each(|streamed, n| {
            let key = RowKey::pack(shared.iter().map(|&(i, _)| streamed[i]));
            for &i in groups.get(&key).map_or(&[][..], Vec::as_slice) {
                join(i, streamed, n);
            }
        });
    }
    // Rows that differed only in a variable just summed out now coincide.
    let bound = live.len() + op.vars.len() - shared.len();
    if keep.len() < bound {
        next.merged()
    } else {
        next
    }
}

/// The kept positions of `patterns[i]` — the first occurrence of each
/// variable some other pattern also mentions — and those variables in
/// position order.
fn join_positions(patterns: &[TriplePattern], i: usize) -> (PositionMask, Vec<Var>) {
    let p = &patterns[i];
    let mut mask = 0;
    let mut vars = Vec::new();
    for (pos, t) in [p.s, p.p, p.o].into_iter().enumerate() {
        let Term::Var(v) = t else { continue };
        let joins = || {
            patterns
                .iter()
                .enumerate()
                .any(|(j, q)| j != i && q.mentions(v))
        };
        if !vars.contains(&v) && joins() {
            mask |= 1 << pos;
            vars.push(v);
        }
    }
    (mask, vars)
}

/// Exact join-count oracle with memoization: counts the answers of a
/// conjunctive query from per-pattern join-key summaries, without
/// enumerating them (see the module docs). Finished counts and summaries
/// are both memoized for one graph version (see the module docs).
#[derive(Debug, Default)]
pub struct ExactCardinality {
    cache: VersionMemo<QueryKey, f64>,
    summaries: VersionMemo<(StatsKey, PositionMask), Arc<Summary>>,
}

impl ExactCardinality {
    /// New oracle with empty memo tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized query shapes.
    pub fn cached_queries(&self) -> usize {
        self.cache.len()
    }

    /// The memoized summary of `pattern` over the positions in `mask`,
    /// built on first use.
    fn summary(
        &self,
        graph: &KnowledgeGraph,
        pattern: &TriplePattern,
        mask: PositionMask,
    ) -> Arc<Summary> {
        let key = (pattern.stats_key(), mask);
        if let Some(found) = self.summaries.get(graph.epoch(), &key) {
            return found;
        }
        let built = Arc::new(Summary::build(graph, pattern, mask));
        self.summaries.insert(graph.epoch(), key, built)
    }

    /// Counts the join (count-cache miss path).
    fn count(&self, graph: &KnowledgeGraph, patterns: &[TriplePattern]) -> f64 {
        if patterns.is_empty() {
            return 0.0;
        }
        let mut operands = Vec::with_capacity(patterns.len());
        for (i, p) in patterns.iter().enumerate() {
            let (mask, vars) = join_positions(patterns, i);
            let summary = self.summary(graph, p, mask);
            if summary.len() == 0 {
                return 0.0;
            }
            operands.push(Operand { vars, summary });
        }

        let mut live: Vec<Var> = Vec::new();
        let mut state = FoldState::unit();
        while !operands.is_empty() {
            // Stream next whichever pattern joins the live variables,
            // smallest summary first; start (and restart, across a cross
            // product) from the smallest summary overall.
            let (at, _) = operands
                .iter()
                .enumerate()
                .min_by_key(|(_, op)| {
                    let connected = op.vars.iter().any(|v| live.contains(v));
                    (!connected, op.summary.len())
                })
                .expect("operands is non-empty");
            let op = operands.swap_remove(at);
            // Patterns with every variable bound by now ride along as
            // probes, most selective first, and never become state.
            let (mut probes, later): (Vec<_>, Vec<_>) = operands.into_iter().partition(|p| {
                p.vars
                    .iter()
                    .all(|v| live.contains(v) || op.vars.contains(v))
            });
            probes.sort_by_key(|p| p.summary.len());
            operands = later;
            // A variable stays live while a pattern still to come joins on it.
            let keep: Vec<Var> = live
                .iter()
                .chain(op.vars.iter().filter(|v| !live.contains(v)))
                .copied()
                .filter(|v| operands.iter().any(|later| later.vars.contains(v)))
                .collect();
            state = fold(&live, &state, &op, &probes, &keep);
            if state.len() == 0 {
                return 0.0;
            }
            live = keep;
        }
        // Every variable has been summed out: the empty row is left.
        state.counts.iter().sum()
    }
}

impl CardinalityEstimator for ExactCardinality {
    fn cardinality(&self, graph: &KnowledgeGraph, patterns: &[TriplePattern]) -> f64 {
        let key = canonical_form(patterns);
        if let Some(n) = self.cache.get(graph.epoch(), &key) {
            return n;
        }
        self.cache
            .insert(graph.epoch(), key, self.count(graph, patterns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgstore::KnowledgeGraphBuilder;

    fn graph() -> KnowledgeGraph {
        let mut b = KnowledgeGraphBuilder::new();
        // Entities e0..e9 are singers; e0..e4 are lyricists; e0..e1 guitarists.
        for i in 0..10 {
            b.add(&format!("e{i}"), "type", "singer", 10.0 - i as f64);
        }
        for i in 0..5 {
            b.add(&format!("e{i}"), "type", "lyricist", 5.0 - i as f64);
        }
        for i in 0..2 {
            b.add(&format!("e{i}"), "type", "guitarist", 2.0 - i as f64);
        }
        b.build()
    }

    fn pat(g: &KnowledgeGraph, class: &str, var: u32) -> TriplePattern {
        let d = g.dictionary();
        TriplePattern::new(
            Var(var),
            d.lookup("type").unwrap(),
            d.lookup(class).unwrap(),
        )
    }

    fn cached_summaries(e: &ExactCardinality) -> usize {
        e.summaries.len()
    }

    #[test]
    fn exact_single_pattern_is_match_count() {
        let g = graph();
        let e = ExactCardinality::new();
        assert_eq!(e.cardinality(&g, &[pat(&g, "singer", 0)]), 10.0);
        assert_eq!(e.cardinality(&g, &[pat(&g, "guitarist", 0)]), 2.0);
    }

    #[test]
    fn exact_star_join_counts_intersection() {
        let g = graph();
        let e = ExactCardinality::new();
        let q = [pat(&g, "singer", 0), pat(&g, "lyricist", 0)];
        assert_eq!(e.cardinality(&g, &q), 5.0);
        let q3 = [
            pat(&g, "singer", 0),
            pat(&g, "lyricist", 0),
            pat(&g, "guitarist", 0),
        ];
        assert_eq!(e.cardinality(&g, &q3), 2.0);
    }

    #[test]
    fn exact_disjoint_vars_cross_product() {
        let g = graph();
        let e = ExactCardinality::new();
        let q = [pat(&g, "singer", 0), pat(&g, "lyricist", 1)];
        assert_eq!(e.cardinality(&g, &q), 50.0);
    }

    #[test]
    fn exact_caches_by_shape() {
        let g = graph();
        let e = ExactCardinality::new();
        let _ = e.cardinality(&g, &[pat(&g, "singer", 0), pat(&g, "lyricist", 0)]);
        assert_eq!(e.cached_queries(), 1);
        // Renamed variables hit the same entry.
        let _ = e.cardinality(&g, &[pat(&g, "singer", 3), pat(&g, "lyricist", 3)]);
        assert_eq!(e.cached_queries(), 1);
        // Different join structure gets its own entry.
        let _ = e.cardinality(&g, &[pat(&g, "singer", 0), pat(&g, "lyricist", 1)]);
        assert_eq!(e.cached_queries(), 2);
    }

    #[test]
    fn exact_empty_pattern_gives_zero() {
        let g = graph();
        let d = g.dictionary();
        let e = ExactCardinality::new();
        let ghost = TriplePattern::new(Var(0), d.lookup("type").unwrap(), d.lookup("e0").unwrap());
        assert_eq!(e.cardinality(&g, &[pat(&g, "singer", 0), ghost]), 0.0);
        assert_eq!(e.cardinality(&g, &[]), 0.0);
    }

    #[test]
    fn repeated_var_pattern_filters() {
        let mut b = KnowledgeGraphBuilder::new();
        b.add("a", "knows", "a", 1.0);
        b.add("a", "knows", "b", 2.0);
        let g = b.build();
        let knows = g.dictionary().lookup("knows").unwrap();
        let e = ExactCardinality::new();
        let p = TriplePattern::new(Var(0), knows, Var(0));
        assert_eq!(e.cardinality(&g, &[p]), 1.0);
    }

    /// PLANGEN's variants of one query differ in one pattern each, so they
    /// share every other summary; a star pattern is summarised on its hub
    /// position under whatever name the hub variable has.
    #[test]
    fn variants_and_renamings_share_summaries() {
        let g = graph();
        let e = ExactCardinality::new();
        let _ = e.cardinality(&g, &[pat(&g, "singer", 0), pat(&g, "lyricist", 0)]);
        assert_eq!(cached_summaries(&e), 2);
        // "lyricist" relaxed to "guitarist": singer's summary is reused.
        let _ = e.cardinality(&g, &[pat(&g, "singer", 0), pat(&g, "guitarist", 0)]);
        assert_eq!(cached_summaries(&e), 3);
        // Renamed hub variable: a count-cache hit, nothing new summarised.
        let _ = e.cardinality(&g, &[pat(&g, "singer", 7), pat(&g, "guitarist", 7)]);
        assert_eq!(e.cached_queries(), 2);
        assert_eq!(cached_summaries(&e), 3);
    }

    /// One pattern summarised on different positions gets distinct memo
    /// entries, each with its own keys.
    #[test]
    fn same_pattern_on_different_positions_does_not_collide() {
        let mut b = KnowledgeGraphBuilder::new();
        // a knows b, c; b knows c.
        b.add("a", "knows", "b", 3.0);
        b.add("a", "knows", "c", 2.0);
        b.add("b", "knows", "c", 1.0);
        b.add("a", "type", "person", 1.0);
        b.add("c", "type", "person", 1.0);
        let g = b.build();
        let d = g.dictionary();
        let (knows, ty, person) = (
            d.lookup("knows").unwrap(),
            d.lookup("type").unwrap(),
            d.lookup("person").unwrap(),
        );
        let e = ExactCardinality::new();
        let edge = TriplePattern::new(Var(0), knows, Var(1));
        // Joined on the subject: persons a (2 edges) and c (none) → 2.
        let on_s = [edge, TriplePattern::new(Var(0), ty, person)];
        assert_eq!(e.cardinality(&g, &on_s), 2.0);
        // Joined on the object: a→c and b→c → 2.
        let on_o = [edge, TriplePattern::new(Var(1), ty, person)];
        assert_eq!(e.cardinality(&g, &on_o), 2.0);
        // Joined on both: only a→c has persons at both ends.
        let on_both = [
            edge,
            TriplePattern::new(Var(0), ty, person),
            TriplePattern::new(Var(1), ty, person),
        ];
        assert_eq!(e.cardinality(&g, &on_both), 1.0);
        // `edge` on s, on o, on (s,o); `type person` on s — shared by all.
        assert_eq!(cached_summaries(&e), 4);
        let edge_on = |mask| {
            let key = (edge.stats_key(), mask);
            e.summaries.get(g.epoch(), &key).unwrap().len()
        };
        assert_eq!(edge_on(0b001), 2, "subjects a, b");
        assert_eq!(edge_on(0b100), 2, "objects b, c");
        assert_eq!(edge_on(0b101), 3, "three (s, o) pairs");
    }

    #[test]
    fn a_newer_version_replaces_both_memo_tables_and_an_older_one_writes_nothing() {
        let live = kgstore::LiveGraph::new(graph());
        let (v0, _) = live.pinned();
        let e = ExactCardinality::new();
        let q = [pat(&v0, "singer", 0), pat(&v0, "lyricist", 0)];
        assert_eq!(e.cardinality(&v0, &q), 5.0);
        assert_eq!((e.cached_queries(), cached_summaries(&e)), (1, 2));
        let mut batch = kgstore::WriteBatch::new();
        batch.retract("e0", "type", "lyricist");
        live.commit(&batch);
        let (v1, _) = live.pinned();
        assert_eq!(e.cardinality(&v1, &q), 4.0);
        assert_eq!((e.cached_queries(), cached_summaries(&e)), (1, 2));
        // A planner still on version 0 counts it, and caches nothing.
        let singers = [pat(&v0, "singer", 0)];
        assert_eq!(e.cardinality(&v0, &singers), 10.0);
        assert_eq!(e.cardinality(&v0, &q), 5.0);
        assert_eq!((e.cached_queries(), cached_summaries(&e)), (1, 2));
        assert_eq!(e.cardinality(&v1, &q), 4.0);
    }

    /// Heap bytes a summary holds (a map's slots counted at key + value +
    /// one control byte).
    fn heap_bytes(summary: &Summary) -> usize {
        match summary {
            Summary::Dense(d) => 8 * d.bits.len() + 4 * (d.ranks.len() + d.counts.len()),
            Summary::One(m) => m.capacity() * 9,
            Summary::Two(m) => m.capacity() * 13,
            Summary::Three(m) => m.capacity() * 21,
        }
    }

    /// Random id multisets — dense and sparse, repeating and not, near
    /// zero and far out, across word boundaries — summarised on one
    /// position: each form answers `len`, `get` and `for_each` as a plain
    /// tally map does, and none holds more than 16 bytes per id (plus a
    /// word of rounding) on the dense path.
    #[test]
    fn one_position_forms_agree_with_a_tally_map() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let (mut sets, mut multisets, mut straddling, mut sparse) = (0, 0, 0, 0);
        for _ in 0..400 {
            let rows = 1 + next(300) as usize;
            let base = [0, 1, 60, 1000, 1 << 20][next(5) as usize];
            let spread = 1 + [1, 8, 64, 70, 200, 5000][next(6) as usize] * rows as u64 / 8;
            let ids: Vec<u32> = if next(2) == 0 {
                (0..rows).map(|_| base + next(spread) as u32).collect()
            } else {
                // Increasing, hence distinct, ids: a set.
                (0..rows as u32)
                    .map(|i| base + i * (1 + next(3) as u32))
                    .collect()
            };
            let reference = tally(ids.iter().copied(), 0);
            let summary = Summary::of_ids(ids.clone(), 0);
            let (lo, hi) = (ids.iter().min().unwrap(), ids.iter().max().unwrap());
            match &summary {
                Summary::Dense(d) => {
                    assert!(((hi - lo) as usize) < 64 * ids.len());
                    assert!(heap_bytes(&summary) <= 16 * ids.len() + 16);
                    let all_once = reference.values().all(|&n| n == 1);
                    assert_eq!(d.counts.is_empty(), all_once, "set form iff all ones");
                    if all_once {
                        sets += 1;
                    } else {
                        multisets += 1;
                    }
                    if lo / 64 != hi / 64 {
                        straddling += 1;
                    }
                }
                Summary::One(_) => {
                    assert!((hi - lo) as usize >= 64 * ids.len());
                    sparse += 1;
                }
                other => panic!("one position summarised as {other:?}"),
            }
            assert_eq!(summary.len(), reference.len());
            let mut seen = FxHashMap::default();
            summary.for_each(|k, n| assert!(seen.insert(k[0], n).is_none(), "key {} twice", k[0]));
            assert_eq!(seen, reference);
            let probes = (ids
                .iter()
                .flat_map(|&id| [id, id + 1, id.saturating_sub(1)]))
            .chain([0, lo.saturating_sub(64), hi + 1, hi + 64, u32::MAX]);
            for id in probes {
                let want = reference.get(&id).copied().unwrap_or(0);
                assert_eq!(summary.get(&[id]), want, "id {id}");
            }
        }
        assert!(sets > 0 && multisets > 0 && straddling > 0 && sparse > 0);
    }

    /// A list whose ids lie far apart keeps the map: a bitset over its span
    /// would cost about 125 kB here, the map a few bytes per row.
    #[test]
    fn sparse_lists_stay_within_bytes_per_row() {
        let ids: Vec<u32> = (0..10).map(|i| 1_000_000 + 977 * i).collect();
        let summary = Summary::of_ids(ids, 0);
        assert!(matches!(summary, Summary::One(_)));
        assert!(
            heap_bytes(&summary) <= 32 * 10,
            "{} bytes",
            heap_bytes(&summary)
        );
    }

    /// Rows wider than four terms hash through boxed keys; the greedy fold
    /// order rarely lets a query get there, so drive one step directly: six
    /// live variables, an operand joining on the last and binding a new one,
    /// the first summed out.
    #[test]
    fn wide_fold_state_joins_and_merges() {
        let vars: Vec<Var> = (0..8).map(Var).collect();
        let live = &vars[..6];
        let mut state = FoldState::new(6);
        state.push([1, 2, 3, 4, 5, 6].into_iter(), 2.0);
        state.push([9, 2, 3, 4, 5, 6].into_iter(), 3.0);
        state.push([1, 2, 3, 4, 5, 7].into_iter(), 5.0);
        // Summary over (?5, ?6): 6 pairs with 10 once and with 11 twice.
        let op = Operand {
            vars: vec![vars[5], vars[6]],
            summary: Arc::new(Summary::Two(
                [(pack2(6, 10), 1), (pack2(6, 11), 2), (pack2(8, 10), 4)]
                    .into_iter()
                    .collect(),
            )),
        };
        let keep = [&vars[1..5], &vars[6..7]].concat();
        let next = fold(live, &state, &op, &[], &keep);
        // Rows 1 and 2 differ only in the summed-out ?0 and merge; row 3's
        // ?5 = 7 has no partner.
        let mut rows: Vec<(&[u32], f64)> = (0..next.len())
            .map(|i| (next.row(i), next.counts[i]))
            .collect();
        rows.sort_by_key(|&(row, _)| row);
        assert_eq!(
            rows,
            [(&[2, 3, 4, 5, 10][..], 5.0), (&[2, 3, 4, 5, 11][..], 10.0)]
        );
    }
}
