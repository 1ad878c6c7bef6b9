//! The knowledge graph and its match-list access path.
//!
//! A [`KnowledgeGraph`] is either **flat** — the immutable columnar base
//! produced by the builder or a snapshot load — or a flat base plus one
//! frozen `OverlaySegment` of live writes (asserted rows, retraction
//! masks) produced by [`LiveGraph::commit`](crate::live::LiveGraph::commit).
//! On an overlay version a key's match list is the base and delta posting
//! lists merged under the retraction mask; the merge runs once per
//! (version, key), on the first [`KnowledgeGraph::matches`] that needs it,
//! and every later reader of that version shares the result. Either way the
//! storage-level contract operators rely on holds: matches stream in
//! descending raw-score order, ties broken by ascending storage index.
//!
//! Storage indexes form one global id space: base rows keep their ids
//! `0..base_len`, delta rows live at `base_len..base_len + delta_len`.
//! Because every base id is smaller than every delta id, the usual
//! "base wins score ties" merge rule coincides with the global
//! `(score desc, id asc)` order — merged lists are deterministic and
//! executor-independent, exactly like flat ones. Note that when rows are
//! masked by retractions the *visible* ids are no longer dense: iterate via
//! match lists, not `0..len()`.

use crate::columns::TripleColumns;
use crate::index::{PatternIndexes, PostingRange};
use crate::live::Epoch;
use crate::pattern_key::{pack2, pack3, PatternKey, Signature};
use crate::triple::{ScoredTriple, Triple, TripleScore};
use specqp_common::Dictionary;
use specqp_common::{FxHashMap, TermId};
use std::ops::Range;
use std::sync::{Arc, RwLock};

/// A frozen layer of live writes on top of an immutable base.
///
/// Built by the delta store when a write batch commits: `cols`/`indexes`
/// hold only the *alive* delta rows (local ids `0..delta_len`), `masked` is
/// a bitset of retracted/replaced base rows, and `memo` starts empty. A
/// commit merges no list; [`KnowledgeGraph::matches`] merges each key on
/// its first read of this version and publishes the list in `memo`.
#[derive(Debug, Default)]
pub(crate) struct OverlaySegment {
    /// Alive delta rows, local ids (global id = `base_len + local`).
    pub(crate) cols: TripleColumns,
    /// Pattern indexes over the delta rows alone (local ids).
    pub(crate) indexes: PatternIndexes,
    /// Bitset over base storage indexes: set = base row is not visible.
    pub(crate) masked: Vec<u64>,
    /// Number of set bits in `masked`.
    pub(crate) masked_count: u32,
    /// Merged global id lists (score desc, id asc, masking applied), one
    /// per key read on this version. The first reader of a key inserts it;
    /// the merge is deterministic, so a racing second merge is identical
    /// and dropped.
    pub(crate) memo: RwLock<FxHashMap<PatternKey, Arc<[u32]>>>,
}

impl OverlaySegment {
    /// `true` if base row `id` is hidden by a retraction or replacement.
    #[inline]
    pub(crate) fn is_masked(&self, id: u32) -> bool {
        self.masked
            .get((id / 64) as usize)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }
}

/// A fully indexed scored knowledge graph (Def. 1).
///
/// Build one with [`KnowledgeGraphBuilder`](crate::KnowledgeGraphBuilder),
/// load one from a binary snapshot with
/// [`snapshot::load_snapshot`](crate::snapshot::load_snapshot), or obtain a
/// live version with an overlay of recent writes from
/// [`LiveGraph::pinned`](crate::live::LiveGraph::pinned).
/// All lookup methods return matches sorted by descending raw score.
///
/// Storage is columnar: the triple table is four parallel `s`/`p`/`o`/`score`
/// columns ([`TripleColumns`]), so score-only access paths (upper bounds,
/// normalizers) never touch the term columns. The base columns and indexes
/// sit behind `Arc`s so that every live version forked from the same base
/// shares them — a commit clones two pointers, not the graph.
#[derive(Debug)]
pub struct KnowledgeGraph {
    pub(crate) dict: Dictionary,
    pub(crate) cols: Arc<TripleColumns>,
    pub(crate) indexes: Arc<PatternIndexes>,
    pub(crate) overlay: Option<OverlaySegment>,
    /// The [`LiveGraph`](crate::live::LiveGraph) epoch that published this
    /// version; [`Epoch::ZERO`] for graphs built or loaded outside one.
    pub(crate) epoch: Epoch,
}

static EMPTY: [u32; 0] = [];

/// Resolves the posting list for any signature but `Spo` in `idx` (the
/// all-wildcard key is the global list); `Spo` has dedicated paths in the
/// callers.
fn keyed_list(idx: &PatternIndexes, key: PatternKey) -> &[u32] {
    let resolve = |r: Option<PostingRange>| -> &[u32] { r.map(|r| idx.list(r)).unwrap_or(&EMPTY) };
    match key.signature() {
        Signature::SpX => resolve(idx.sp.get(pack2(key.s.unwrap(), key.p.unwrap()))),
        Signature::SxO => resolve(idx.so.get(pack2(key.s.unwrap(), key.o.unwrap()))),
        Signature::XpO => resolve(idx.po.get(pack2(key.p.unwrap(), key.o.unwrap()))),
        Signature::Sxx => resolve(idx.s.get(key.s.unwrap())),
        Signature::XpX => resolve(idx.p.get(key.p.unwrap())),
        Signature::XxO => resolve(idx.o.get(key.o.unwrap())),
        Signature::Xxx => &idx.all,
        Signature::Spo => unreachable!("handled by the callers"),
    }
}

impl KnowledgeGraph {
    /// Assembles a flat graph from its parts (builder / snapshot load).
    pub(crate) fn from_parts(
        dict: Dictionary,
        cols: TripleColumns,
        indexes: PatternIndexes,
    ) -> Self {
        KnowledgeGraph {
            dict,
            cols: Arc::new(cols),
            indexes: Arc::new(indexes),
            overlay: None,
            epoch: Epoch::ZERO,
        }
    }

    /// A sibling version of flat `base` carrying `overlay`, sharing the base
    /// columns and indexes by `Arc`.
    pub(crate) fn overlay_version(
        base: &KnowledgeGraph,
        dict: Dictionary,
        overlay: OverlaySegment,
    ) -> Self {
        debug_assert!(base.overlay.is_none(), "overlay base must be flat");
        KnowledgeGraph {
            dict,
            cols: Arc::clone(&base.cols),
            indexes: Arc::clone(&base.indexes),
            overlay: Some(overlay),
            epoch: Epoch::ZERO,
        }
    }

    /// The same version stamped as published at `epoch`.
    pub(crate) fn at_epoch(self, epoch: Epoch) -> Self {
        KnowledgeGraph { epoch, ..self }
    }

    /// The epoch of the [`LiveGraph`](crate::live::LiveGraph) version this
    /// graph is ([`Epoch::ZERO`] for graphs built or loaded outside one).
    /// Memos that describe one version key on it.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The term dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// Number of base rows — the boundary of the global id space: delta rows
    /// live at ids `>= base_len`.
    #[inline]
    pub(crate) fn base_len(&self) -> usize {
        self.cols.len()
    }

    /// Number of *visible* triples (base rows minus retraction masks, plus
    /// overlay rows).
    pub fn len(&self) -> usize {
        match &self.overlay {
            Some(ov) => self.cols.len() - ov.masked_count as usize + ov.cols.len(),
            None => self.cols.len(),
        }
    }

    /// `true` if the graph holds no visible triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when this graph carries an overlay of live writes on top of
    /// its immutable base (i.e. it came from a [`LiveGraph`] with
    /// uncompacted deltas).
    ///
    /// [`LiveGraph`]: crate::live::LiveGraph
    pub fn has_overlay(&self) -> bool {
        self.overlay.is_some()
    }

    /// The triple components at storage index `i` (global id space).
    #[inline]
    pub fn triple(&self, i: u32) -> Triple {
        let base_len = self.cols.len();
        if (i as usize) < base_len {
            self.cols.triple(i as usize)
        } else {
            self.overlay
                .as_ref()
                .expect("id beyond base without overlay")
                .cols
                .triple(i as usize - base_len)
        }
    }

    /// The triple at storage index `i` with its score.
    #[inline]
    pub fn scored(&self, i: u32) -> ScoredTriple {
        ScoredTriple {
            triple: self.triple(i),
            score: self.score(i),
        }
    }

    /// The columnar triple table of the immutable **base** (overlay rows,
    /// if any, live in their own columns and are reached through the
    /// id-dispatching accessors and [`MatchList`]'s column readers).
    pub fn columns(&self) -> &TripleColumns {
        &self.cols
    }

    /// Iterates all visible triples with scores: base rows in storage order
    /// (retracted rows skipped), then overlay rows.
    pub fn iter_scored(&self) -> impl Iterator<Item = ScoredTriple> + '_ {
        let masked = |i: usize| {
            self.overlay
                .as_ref()
                .is_some_and(|ov| ov.is_masked(i as u32))
        };
        let base = (0..self.cols.len())
            .filter(move |&i| !masked(i))
            .map(|i| self.cols.scored(i));
        let delta = self
            .overlay
            .iter()
            .flat_map(|ov| (0..ov.cols.len()).map(|i| ov.cols.scored(i)));
        base.chain(delta)
    }

    /// Raw score of the triple at storage index `i` (global id space).
    #[inline]
    pub fn score(&self, i: u32) -> TripleScore {
        let base_len = self.cols.len();
        if (i as usize) < base_len {
            self.cols.score(i as usize)
        } else {
            self.overlay
                .as_ref()
                .expect("id beyond base without overlay")
                .cols
                .score(i as usize - base_len)
        }
    }

    /// Returns the score-descending [`MatchList`] for `key`.
    ///
    /// Fully bound keys yield a 0- or 1-element list; everything else is a
    /// posting-list lookup; the all-wildcard key returns the global list.
    /// On a flat graph every list borrows the postings arena directly. With
    /// an overlay, the first read of a key on this version merges the base
    /// and delta lists (retraction masks applied) and memoizes the result;
    /// every later read of the key on this version shares that list. When
    /// the delta side has no matches and nothing is masked, the borrowed
    /// fast path still applies.
    pub fn matches(&self, key: PatternKey) -> MatchList<'_> {
        let ids = match &self.overlay {
            None => self.flat_ids(key),
            Some(ov) => self.merged_ids(key, ov),
        };
        MatchList { graph: self, ids }
    }

    /// Flat-graph id resolution: every list is a borrowed arena slice.
    fn flat_ids(&self, key: PatternKey) -> Ids<'_> {
        let idx = &*self.indexes;
        let ids: &[u32] = match key.signature() {
            Signature::Spo => {
                let (s, p, o) = (key.s.unwrap(), key.p.unwrap(), key.o.unwrap());
                idx.spo.id_slice(pack3(s, p, o))
            }
            _ => keyed_list(idx, key),
        };
        Ids::Borrowed(ids)
    }

    /// Overlay-graph id resolution: base and delta lists merged under the
    /// retraction mask in `(score desc, global id asc)` order, through the
    /// version's memo so each key is merged at most once per version.
    fn merged_ids<'g>(&'g self, key: PatternKey, ov: &'g OverlaySegment) -> Ids<'g> {
        if key.signature() == Signature::Spo {
            let (s, p, o) = (key.s.unwrap(), key.p.unwrap(), key.o.unwrap());
            let packed = pack3(s, p, o);
            if let Some(local) = ov.indexes.spo.get(packed) {
                return Ids::Shared(Arc::from([self.cols.len() as u32 + local]));
            }
            return match self.indexes.spo.get(packed) {
                Some(i) if !ov.is_masked(i) => Ids::Shared(Arc::from([i])),
                _ => Ids::Borrowed(&EMPTY),
            };
        }
        let base = keyed_list(&self.indexes, key);
        let delta = keyed_list(&ov.indexes, key);
        if delta.is_empty() && ov.masked_count == 0 {
            return Ids::Borrowed(base);
        }
        if let Some(ids) = ov.memo.read().expect("overlay memo poisoned").get(&key) {
            return Ids::Shared(Arc::clone(ids));
        }
        // Merge outside the lock; if another reader published the key
        // meanwhile, its (identical) list wins and this one is dropped.
        let merged: Arc<[u32]> = self.merge_lists(base, delta, ov).into();
        let mut memo = ov.memo.write().expect("overlay memo poisoned");
        Ids::Shared(Arc::clone(memo.entry(key).or_insert(merged)))
    }

    /// Two-pointer merge of a base posting list and a delta posting list
    /// (local ids), skipping masked base rows. Both inputs are score-desc;
    /// on equal scores the base row wins, which is exactly ascending global
    /// id order since every base id is below `base_len`.
    fn merge_lists(&self, base: &[u32], delta_local: &[u32], ov: &OverlaySegment) -> Vec<u32> {
        let base_len = self.cols.len() as u32;
        let mut out = Vec::with_capacity(base.len() + delta_local.len());
        let (mut bi, mut di) = (0usize, 0usize);
        loop {
            while bi < base.len() && ov.is_masked(base[bi]) {
                bi += 1;
            }
            match (bi < base.len(), di < delta_local.len()) {
                (false, false) => break,
                (true, false) => {
                    out.push(base[bi]);
                    bi += 1;
                }
                (false, true) => {
                    out.push(base_len + delta_local[di]);
                    di += 1;
                }
                (true, true) => {
                    let bs = self.cols.score(base[bi] as usize);
                    let ds = ov.cols.score(delta_local[di] as usize);
                    if bs >= ds {
                        out.push(base[bi]);
                        bi += 1;
                    } else {
                        out.push(base_len + delta_local[di]);
                        di += 1;
                    }
                }
            }
        }
        out
    }

    /// Calls `f` once per visible triple matching `key`, with its raw score,
    /// in no particular order. Unlike [`matches`](KnowledgeGraph::matches)
    /// it builds and memoizes no list: on an overlay version it walks the
    /// base posting (skipping masked rows) and then the delta posting, so a
    /// reader that looks up thousands of one-off keys leaves the version's
    /// memo as it found it.
    pub fn for_each_match(&self, key: PatternKey, mut f: impl FnMut(Triple, TripleScore)) {
        if key.signature() == Signature::Spo {
            let (s, p, o) = (key.s.unwrap(), key.p.unwrap(), key.o.unwrap());
            if let Some(score) = self.score_of(s, p, o) {
                f(Triple { s, p, o }, score);
            }
            return;
        }
        let masked = |id: u32| self.overlay.as_ref().is_some_and(|ov| ov.is_masked(id));
        for &id in keyed_list(&self.indexes, key) {
            if !masked(id) {
                f(self.cols.triple(id as usize), self.cols.score(id as usize));
            }
        }
        if let Some(ov) = &self.overlay {
            for &local in keyed_list(&ov.indexes, key) {
                f(
                    ov.cols.triple(local as usize),
                    ov.cols.score(local as usize),
                );
            }
        }
    }

    /// Number of triples matching `key` (the `mᵢ` statistic of §3.1.1).
    pub fn cardinality(&self, key: PatternKey) -> usize {
        self.matches(key).len()
    }

    /// `true` if a triple with exactly these components is visible.
    pub fn contains(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.score_of(s, p, o).is_some()
    }

    /// The raw score of an exact visible triple, if present. An overlay row
    /// shadows the base row for the same triple; a masked base row is
    /// absent.
    pub fn score_of(&self, s: TermId, p: TermId, o: TermId) -> Option<TripleScore> {
        let packed = pack3(s, p, o);
        if let Some(ov) = &self.overlay {
            if let Some(local) = ov.indexes.spo.get(packed) {
                return Some(ov.cols.score(local as usize));
            }
            return match self.indexes.spo.get(packed) {
                Some(i) if !ov.is_masked(i) => Some(self.cols.score(i as usize)),
                _ => None,
            };
        }
        self.indexes
            .spo
            .get(packed)
            .map(|i| self.cols.score(i as usize))
    }

    /// Folds the overlay (if any) into a fresh, self-contained flat graph
    /// with identical visible triples and a [`flattened`] dictionary.
    /// Row order is base-then-delta, masked rows dropped; storage indexes
    /// are re-densified, which is invisible to queries (all ordering
    /// contracts are score-based). Flat graphs return a cheap `Arc`-sharing
    /// copy. This is the compaction primitive and the snapshot-writer
    /// normal form.
    ///
    /// [`flattened`]: specqp_common::Dictionary::flattened
    pub fn flattened(&self) -> KnowledgeGraph {
        match &self.overlay {
            None => KnowledgeGraph {
                dict: self.dict.flattened(),
                cols: Arc::clone(&self.cols),
                indexes: Arc::clone(&self.indexes),
                overlay: None,
                epoch: self.epoch,
            },
            Some(ov) => {
                let mut cols = TripleColumns::new();
                cols.reserve(self.len());
                for i in 0..self.cols.len() {
                    if !ov.is_masked(i as u32) {
                        cols.push(self.cols.triple(i), self.cols.score(i));
                    }
                }
                for i in 0..ov.cols.len() {
                    cols.push(ov.cols.triple(i), ov.cols.score(i));
                }
                let indexes = PatternIndexes::build(&cols);
                KnowledgeGraph::from_parts(self.dict.flattened(), cols, indexes)
                    .at_epoch(self.epoch)
            }
        }
    }
}

/// Either a borrowed arena slice (flat graphs, and overlay lookups that
/// touch no delta rows or masks) or a merged list shared with the overlay
/// version's memo.
#[derive(Clone)]
enum Ids<'g> {
    Borrowed(&'g [u32]),
    Shared(Arc<[u32]>),
}

/// A score-descending list of triples matching one pattern.
///
/// This is the storage-level contract every operator relies on: positional
/// access is by *rank* (0 = best). `max_score` is the normalizer of Def. 5.
/// On flat graphs the list borrows the postings arena (zero-copy); on
/// overlay graphs it may share a merged base+delta id list, built once per
/// (version, key) on first read — either way the rank order is identical
/// to what a from-scratch rebuild would produce.
#[derive(Clone)]
pub struct MatchList<'g> {
    graph: &'g KnowledgeGraph,
    ids: Ids<'g>,
}

impl<'g> MatchList<'g> {
    /// The id slice, whichever side owns it.
    #[inline]
    fn slice(&self) -> &[u32] {
        match &self.ids {
            Ids::Borrowed(s) => s,
            Ids::Shared(ids) => ids,
        }
    }

    /// Number of matches (`mᵢ`).
    pub fn len(&self) -> usize {
        self.slice().len()
    }

    /// `true` when no triple matches.
    pub fn is_empty(&self) -> bool {
        self.slice().is_empty()
    }

    /// Storage index of the match at `rank` (0 = highest score).
    #[inline]
    pub fn id_at(&self, rank: usize) -> u32 {
        self.slice()[rank]
    }

    /// The raw storage-index slice in rank order (global id space: base
    /// rows first, then overlay rows; see [`MatchList::terms`] for a reader
    /// that resolves both).
    #[inline]
    pub fn ids(&self) -> &[u32] {
        self.slice()
    }

    /// The triple at `rank`.
    #[inline]
    pub fn triple_at(&self, rank: usize) -> Triple {
        self.graph.triple(self.slice()[rank])
    }

    /// Raw score at `rank` (touches only the score column).
    #[inline]
    pub fn score_at(&self, rank: usize) -> TripleScore {
        self.graph.score(self.slice()[rank])
    }

    /// The maximum raw score (score at rank 0), i.e. the Def.-5 normalizer
    /// `max_{t∈A(q)} S(t)`. Zero for empty lists.
    pub fn max_score(&self) -> TripleScore {
        if self.is_empty() {
            TripleScore::default()
        } else {
            self.score_at(0)
        }
    }

    /// Iterates `(storage index, raw score)` in descending-score order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, TripleScore)> + '_ {
        let graph = self.graph;
        self.slice().iter().map(move |&i| (i, graph.score(i)))
    }

    /// Iterates the matching triples in descending-score order.
    pub fn iter_triples(&self) -> impl Iterator<Item = (Triple, TripleScore)> + '_ {
        let graph = self.graph;
        self.slice()
            .iter()
            .map(move |&i| (graph.triple(i), graph.score(i)))
    }

    /// Iterates the term the matches at `ranks` carry at one triple
    /// `position` (0 = subject, 1 = predicate, 2 = object), in rank order.
    /// Touches that one term column only — a third of the memory traffic of
    /// [`iter_triples`](MatchList::iter_triples) — so callers that need some
    /// components (join-key summaries, scans) read just those.
    ///
    /// # Panics
    /// Panics if `position > 2` or `ranks` reaches past the list.
    pub fn terms(&self, position: usize, ranks: Range<usize>) -> impl Iterator<Item = TermId> + '_ {
        self.column(ranks, move |cols| match position {
            0 => cols.subjects(),
            1 => cols.predicates(),
            2 => cols.objects(),
            _ => panic!("triple position {position} out of range"),
        })
    }

    /// Iterates the raw scores of the matches at `ranks`, in rank order
    /// (touches only the score column).
    ///
    /// # Panics
    /// Panics if `ranks` reaches past the list.
    pub fn scores(&self, ranks: Range<usize>) -> impl Iterator<Item = TripleScore> + '_ {
        self.column(ranks, TripleColumns::scores)
    }

    /// Reads one column at the ids of `ranks`: an id below the base length
    /// indexes the base's column, any other the overlay segment's.
    #[inline]
    fn column<T: Copy + 'g>(
        &self,
        ranks: Range<usize>,
        column: impl Fn(&'g TripleColumns) -> &'g [T],
    ) -> impl Iterator<Item = T> + '_ {
        let base = column(&self.graph.cols);
        let delta = self.graph.overlay.as_ref().map(|ov| column(&ov.cols));
        self.slice()[ranks]
            .iter()
            .map(move |&i| match base.get(i as usize) {
                Some(&v) => v,
                None => delta.expect("id beyond base without overlay")[i as usize - base.len()],
            })
    }

    /// Sum of all raw scores (`S_m`).
    pub fn total_score(&self) -> f64 {
        self.scores(0..self.len()).map(TripleScore::value).sum()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g KnowledgeGraph {
        self.graph
    }
}

impl std::fmt::Debug for MatchList<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MatchList(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KnowledgeGraphBuilder;
    use specqp_common::Score;

    fn sample() -> KnowledgeGraph {
        let mut b = KnowledgeGraphBuilder::new();
        b.add("a", "type", "singer", 10.0);
        b.add("b", "type", "singer", 4.0);
        b.add("c", "type", "singer", 2.0);
        b.add("a", "type", "lyricist", 7.0);
        b.add("a", "plays", "guitar", 3.0);
        b.build()
    }

    #[test]
    fn po_lookup_sorted_and_normalized() {
        let kg = sample();
        let ty = kg.dictionary().lookup("type").unwrap();
        let singer = kg.dictionary().lookup("singer").unwrap();
        let m = kg.matches(PatternKey::po(ty, singer));
        assert_eq!(m.len(), 3);
        assert_eq!(m.score_at(0).value(), 10.0);
        assert_eq!(m.score_at(2).value(), 2.0);
        assert_eq!(m.max_score().value(), 10.0);
        let normalized = |rank| Score::weighted(Score::ONE, m.score_at(rank).value(), 10.0);
        assert_eq!(normalized(0), Score::ONE);
        assert_eq!(normalized(1), Score::new(0.4));
    }

    #[test]
    fn total_score_sums_the_list() {
        let kg = sample();
        let ty = kg.dictionary().lookup("type").unwrap();
        let singer = kg.dictionary().lookup("singer").unwrap();
        let m = kg.matches(PatternKey::po(ty, singer));
        assert_eq!(m.total_score(), 16.0);
    }

    #[test]
    fn missing_key_gives_empty_list() {
        let kg = sample();
        let m = kg.matches(PatternKey::p_only(TermId(999)));
        assert!(m.is_empty());
        assert_eq!(m.max_score().value(), 0.0);
    }

    #[test]
    fn every_signature_answers() {
        let kg = sample();
        let d = kg.dictionary();
        let (a, ty, singer) = (
            d.lookup("a").unwrap(),
            d.lookup("type").unwrap(),
            d.lookup("singer").unwrap(),
        );
        assert_eq!(kg.matches(PatternKey::spo(a, ty, singer)).len(), 1);
        assert_eq!(kg.matches(PatternKey::sp(a, ty)).len(), 2);
        assert_eq!(kg.matches(PatternKey::so(a, singer)).len(), 1);
        assert_eq!(kg.matches(PatternKey::po(ty, singer)).len(), 3);
        assert_eq!(kg.matches(PatternKey::s_only(a)).len(), 3);
        assert_eq!(kg.matches(PatternKey::p_only(ty)).len(), 4);
        assert_eq!(kg.matches(PatternKey::o_only(singer)).len(), 3);
        assert_eq!(kg.matches(PatternKey::any()).len(), 5);
    }

    #[test]
    fn spo_absent_triple_is_empty() {
        let kg = sample();
        let d = kg.dictionary();
        let (a, ty, guitar) = (
            d.lookup("a").unwrap(),
            d.lookup("type").unwrap(),
            d.lookup("guitar").unwrap(),
        );
        assert!(kg.matches(PatternKey::spo(a, ty, guitar)).is_empty());
        assert!(!kg.contains(a, ty, guitar));
        assert_eq!(kg.score_of(a, ty, guitar), None);
    }

    #[test]
    fn global_scan_is_score_descending() {
        let kg = sample();
        let all = kg.matches(PatternKey::any());
        let scores: Vec<f64> = all.iter().map(|(_, s)| s.value()).collect();
        for w in scores.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn columnar_accessors_agree_with_rows() {
        let kg = sample();
        let cols = kg.columns();
        assert_eq!(cols.len(), kg.len());
        for i in 0..kg.len() as u32 {
            let st = kg.scored(i);
            assert_eq!(st.triple, kg.triple(i));
            assert_eq!(st.score, kg.score(i));
            assert_eq!(cols.subjects()[i as usize], st.triple.s);
            assert_eq!(cols.scores()[i as usize], st.score);
        }
        assert_eq!(kg.iter_scored().count(), kg.len());
    }

    /// Matches as `(triple, raw score bits)`.
    type Rows = Vec<(Triple, u64)>;

    /// A key's `(triple, raw score bits)` multiset through `for_each_match`
    /// and through `matches`.
    fn visited_and_listed(kg: &KnowledgeGraph, key: PatternKey) -> (Rows, Rows) {
        let mut visited = Vec::new();
        kg.for_each_match(key, |t, s| visited.push((t, s.value().to_bits())));
        let mut listed: Rows = kg
            .matches(key)
            .iter_triples()
            .map(|(t, s)| (t, s.value().to_bits()))
            .collect();
        let order = |a: &(Triple, u64), b: &(Triple, u64)| {
            (a.0.s, a.0.p, a.0.o, a.1).cmp(&(b.0.s, b.0.p, b.0.o, b.1))
        };
        visited.sort_by(order);
        listed.sort_by(order);
        (visited, listed)
    }

    /// Every key of every signature over `kg`'s terms.
    fn all_keys(kg: &KnowledgeGraph) -> Vec<PatternKey> {
        let n = kg.dictionary().len() as u32;
        let terms = || (0..n).map(|i| Some(TermId(i))).chain([None]);
        let mut keys = Vec::new();
        for s in terms() {
            for p in terms() {
                for o in terms() {
                    keys.push(PatternKey { s, p, o });
                }
            }
        }
        keys
    }

    #[test]
    fn for_each_match_visits_the_match_list_on_a_flat_graph() {
        let kg = sample();
        for key in all_keys(&kg) {
            let (visited, listed) = visited_and_listed(&kg, key);
            assert_eq!(visited, listed, "{key:?}");
        }
    }

    /// On an overlay version with a masked base row, a delta-only row and a
    /// re-asserted triple, the keyed read visits exactly what the merged
    /// list holds — and leaves the version's memo untouched.
    #[test]
    fn for_each_match_reads_an_overlay_without_memoizing() {
        let live = crate::LiveGraph::with_policy(sample(), crate::CompactionPolicy::never());
        let mut batch = crate::WriteBatch::new();
        batch
            .retract("b", "type", "singer")
            .assert("d", "type", "singer", 6.0)
            .assert("a", "type", "singer", 1.0);
        live.commit(&batch);
        let (kg, _) = live.pinned();
        let ov = kg.overlay.as_ref().expect("a commit publishes an overlay");
        assert!(ov.masked_count >= 2, "the retract and the re-assert mask");
        let memo_len = || ov.memo.read().unwrap().len();
        let keys = all_keys(&kg);
        for &key in &keys {
            let before = memo_len();
            let mut visited = 0;
            kg.for_each_match(key, |_, _| visited += 1);
            assert_eq!(memo_len(), before, "{key:?} memoized a list");
            let (visited_rows, listed) = visited_and_listed(&kg, key);
            assert_eq!(visited, visited_rows.len());
            assert_eq!(visited_rows, listed, "{key:?}");
        }
        let d = kg.dictionary();
        let (a, ty, singer) = (
            d.lookup("a").unwrap(),
            d.lookup("type").unwrap(),
            d.lookup("singer").unwrap(),
        );
        let mut rows = Vec::new();
        kg.for_each_match(PatternKey::po(ty, singer), |t, s| {
            rows.push((d.name(t.s).unwrap().to_string(), s.value()));
        });
        rows.sort_by(|x, y| x.0.cmp(&y.0));
        let want = [("a", 1.0), ("c", 2.0), ("d", 6.0)].map(|(n, s)| (n.to_string(), s));
        assert_eq!(rows, want);
        let mut exact = Vec::new();
        kg.for_each_match(PatternKey::spo(a, ty, singer), |_, s| exact.push(s.value()));
        assert_eq!(exact, [1.0], "the re-asserted triple at its new score");
    }

    #[test]
    fn flat_flatten_is_identity() {
        let kg = sample();
        let flat = kg.flattened();
        assert!(!flat.has_overlay());
        assert_eq!(flat.len(), kg.len());
        assert_eq!(flat.dictionary().len(), kg.dictionary().len());
        let ty = flat.dictionary().lookup("type").unwrap();
        assert_eq!(flat.matches(PatternKey::p_only(ty)).len(), 4);
    }
}
