//! Live writes: delta accumulation, epoch-pinned versions, compaction.
//!
//! The MVCC-lite scheme has three moving parts:
//!
//! * a [`DeltaStore`] — the single-writer accumulator of asserted and
//!   retracted triples on top of an immutable base graph;
//! * immutable **versions** — on every [`LiveGraph::commit`] the delta
//!   store freezes its current state into an
//!   [`OverlaySegment`](crate::store) and publishes a new
//!   [`KnowledgeGraph`] that shares the base columns/indexes by `Arc`;
//!   readers pin whichever version was current when their query started
//!   ([`LiveGraph::pinned`]) and keep answering from it unaffected by later
//!   commits. A commit merges no match list: each version merges a key's
//!   base and delta posting lists on the first
//!   [`matches`](KnowledgeGraph::matches) of that key and shares the list
//!   with every later reader of the same version, so a key is merged at
//!   most once per version and never served from another version's merge;
//! * **compaction** — when the overlay outgrows its [`CompactionPolicy`]
//!   (or [`LiveGraph::compact`] is called), the overlay is folded into a
//!   fresh flat base with re-densified storage ids and a
//!   [`flattened`](specqp_common::Dictionary::flattened) dictionary; the
//!   delta store restarts empty on the new base.
//!
//! Every commit — including a compacting one — bumps the [`Epoch`], a
//! monotonically increasing version counter. [`TermId`] assignments are
//! **stable across epochs within a compaction generation**: the delta
//! store's dictionary is layered on the base's, so terms only ever gain
//! ids. A query parsed against the newest dictionary therefore resolves
//! identically against any older pinned version of the same generation
//! (unknown-to-that-version ids simply match nothing).
//!
//! Write semantics (the retraction masking rules):
//!
//! * **assert** of a triple already visible replaces its score (the base
//!   row is masked and a delta row takes over, or the old delta row dies);
//! * **assert** of a new triple appends a delta row;
//! * **retract** hides the triple wherever it lives — masks a base row,
//!   kills a delta row — and is a no-op for unknown triples or terms.
//!
//! [`TermId`]: specqp_common::TermId

use crate::columns::TripleColumns;
use crate::index::PatternIndexes;
use crate::pattern_key::pack3;
use crate::store::{KnowledgeGraph, OverlaySegment};
use crate::triple::{Triple, TripleScore};
use specqp_common::{Dictionary, FxHashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A monotonically increasing version counter for a [`LiveGraph`].
///
/// Epoch 0 is the initial base; every commit (including compactions)
/// publishes the next epoch. Queries pin an epoch when they start and see
/// that version's answers for their whole lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(u64);

impl Epoch {
    /// The initial epoch (the base graph before any commit).
    pub const ZERO: Epoch = Epoch(0);

    /// Wraps a raw epoch counter (wire decoding).
    pub fn new(value: u64) -> Epoch {
        Epoch(value)
    }

    /// The raw counter value (wire encoding).
    pub fn value(self) -> u64 {
        self.0
    }

    /// The epoch after this one.
    pub(crate) fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }
}

impl std::fmt::Display for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One write operation, by term names.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Upsert a scored triple: inserts it, or replaces the score of an
    /// existing visible triple.
    Assert {
        /// Subject term.
        s: String,
        /// Predicate term.
        p: String,
        /// Object term.
        o: String,
        /// New raw score (finite, non-negative).
        score: f64,
    },
    /// Hide a visible triple. No-op if absent.
    Retract {
        /// Subject term.
        s: String,
        /// Predicate term.
        p: String,
        /// Object term.
        o: String,
    },
}

impl WriteOp {
    /// Whether [`LiveGraph::commit`] accepts this op: an assert's score
    /// must be finite and non-negative.
    pub fn has_valid_score(&self) -> bool {
        match self {
            WriteOp::Assert { score, .. } => TripleScore::try_new(*score).is_some(),
            WriteOp::Retract { .. } => true,
        }
    }
}

/// An ordered batch of write operations, committed atomically under one
/// epoch.
///
/// ```
/// use kgstore::{KnowledgeGraphBuilder, LiveGraph, PatternKey, WriteBatch};
///
/// let mut b = KnowledgeGraphBuilder::new();
/// b.add("a", "type", "singer", 5.0);
/// let live = LiveGraph::new(b.build());
///
/// let mut batch = WriteBatch::new();
/// batch.assert("b", "type", "singer", 9.0);
/// batch.retract("a", "type", "singer");
/// let epoch = live.commit(&batch);
/// assert_eq!(epoch.value(), 1);
///
/// let (graph, at) = live.pinned();
/// assert_eq!(at, epoch);
/// let ty = graph.dictionary().lookup("type").unwrap();
/// let singer = graph.dictionary().lookup("singer").unwrap();
/// let m = graph.matches(PatternKey::po(ty, singer));
/// assert_eq!(m.len(), 1); // "a" retracted, "b" asserted
/// assert_eq!(m.score_at(0).value(), 9.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WriteBatch {
    ops: Vec<WriteOp>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an assert (upsert) of `(s, p, o)` with `score`.
    pub fn assert(&mut self, s: &str, p: &str, o: &str, score: f64) -> &mut Self {
        self.ops.push(WriteOp::Assert {
            s: s.to_string(),
            p: p.to_string(),
            o: o.to_string(),
            score,
        });
        self
    }

    /// Queues a retraction of `(s, p, o)`.
    pub fn retract(&mut self, s: &str, p: &str, o: &str) -> &mut Self {
        self.ops.push(WriteOp::Retract {
            s: s.to_string(),
            p: p.to_string(),
            o: o.to_string(),
        });
        self
    }

    /// Queues an already-built [`WriteOp`] (wire decoding).
    pub fn push(&mut self, op: WriteOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The queued operations in commit order.
    pub fn ops(&self) -> &[WriteOp] {
        &self.ops
    }
}

/// When the writer folds its delta overlay into a new flat base.
///
/// Compaction triggers at the *end of a commit* once either bound is
/// reached; [`LiveGraph::compact`] forces it regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Fold once this many alive delta rows have accumulated.
    pub max_delta_rows: usize,
    /// Fold once this many base rows are masked by retractions/replacements.
    pub max_masked_rows: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            max_delta_rows: 8192,
            max_masked_rows: 4096,
        }
    }
}

impl CompactionPolicy {
    /// A policy that never compacts on its own — only explicit
    /// [`LiveGraph::compact`] calls fold the overlay. Useful in tests and
    /// for exercising deep overlays.
    pub fn never() -> Self {
        CompactionPolicy {
            max_delta_rows: usize::MAX,
            max_masked_rows: usize::MAX,
        }
    }
}

/// The single-writer accumulator of live writes on top of a flat base.
///
/// Owned by a [`LiveGraph`] behind its writer lock; exposed read-only
/// through [`LiveGraph::stats`]. Rows are appended (never moved) so delta
/// row identity is stable between commits; retracted/replaced delta rows
/// are only marked dead and get dropped at the next freeze, masked base
/// rows at the next compaction.
#[derive(Debug)]
pub struct DeltaStore {
    /// The immutable base every version of this generation shares.
    base: Arc<KnowledgeGraph>,
    /// Layered dictionary: base terms keep their ids, new terms append.
    dict: Dictionary,
    /// Every delta row ever asserted this generation, dead ones included.
    rows: TripleColumns,
    /// Liveness flag per delta row.
    alive: Vec<bool>,
    /// Triple → its alive delta row, for replace/retract.
    live_by_triple: FxHashMap<Triple, u32>,
    /// Bitset over base storage ids: set = masked (retracted/replaced).
    masked: Vec<u64>,
    masked_count: u32,
    alive_count: u32,
}

impl DeltaStore {
    fn new(base: Arc<KnowledgeGraph>) -> Self {
        debug_assert!(!base.has_overlay(), "delta base must be flat");
        let words = base.base_len().div_ceil(64);
        let dict = Dictionary::layered(Arc::new(base.dictionary().clone()));
        DeltaStore {
            base,
            dict,
            rows: TripleColumns::new(),
            alive: Vec::new(),
            live_by_triple: FxHashMap::default(),
            masked: vec![0u64; words],
            masked_count: 0,
            alive_count: 0,
        }
    }

    fn mask(&mut self, id: u32) {
        let w = &mut self.masked[(id / 64) as usize];
        let bit = 1u64 << (id % 64);
        if *w & bit == 0 {
            *w |= bit;
            self.masked_count += 1;
        }
    }

    fn base_row_of(&self, t: Triple) -> Option<u32> {
        self.base.indexes.spo.get(pack3(t.s, t.p, t.o))
    }

    fn apply(&mut self, op: &WriteOp) {
        match op {
            WriteOp::Assert { s, p, o, score } => {
                let t = Triple::new(
                    self.dict.intern(s),
                    self.dict.intern(p),
                    self.dict.intern(o),
                );
                if let Some(row) = self.live_by_triple.remove(&t) {
                    // Replacing an earlier live write: the old row dies.
                    self.alive[row as usize] = false;
                    self.alive_count -= 1;
                } else if let Some(base_row) = self.base_row_of(t) {
                    // Replacing a base triple: hide the base row.
                    self.mask(base_row);
                }
                let row = self.rows.len() as u32;
                self.rows.push(t, TripleScore::new(*score));
                self.alive.push(true);
                self.alive_count += 1;
                self.live_by_triple.insert(t, row);
            }
            WriteOp::Retract { s, p, o } => {
                let (Some(s), Some(p), Some(o)) = (
                    self.dict.lookup(s),
                    self.dict.lookup(p),
                    self.dict.lookup(o),
                ) else {
                    return; // unknown term → triple cannot exist
                };
                let t = Triple::new(s, p, o);
                if let Some(row) = self.live_by_triple.remove(&t) {
                    self.alive[row as usize] = false;
                    self.alive_count -= 1;
                    // A base row replaced by this delta row stays masked.
                } else if let Some(base_row) = self.base_row_of(t) {
                    self.mask(base_row);
                }
            }
        }
    }

    /// Freezes the current delta state into a published version: compacts
    /// the alive rows into fresh local ids and indexes them. No match list
    /// is merged here; the version merges each key on its first read.
    fn freeze_version(&self) -> KnowledgeGraph {
        let mut cols = TripleColumns::new();
        cols.reserve(self.alive_count as usize);
        for i in 0..self.rows.len() {
            if self.alive[i] {
                cols.push(self.rows.triple(i), self.rows.score(i));
            }
        }
        let indexes = PatternIndexes::build(&cols);
        let overlay = OverlaySegment {
            cols,
            indexes,
            masked: self.masked.clone(),
            masked_count: self.masked_count,
            memo: RwLock::default(),
        };
        KnowledgeGraph::overlay_version(&self.base, self.dict.clone(), overlay)
    }

    /// `true` when there is literally nothing to fold — no alive delta
    /// rows, no masks, no new terms.
    fn is_pristine(&self) -> bool {
        self.alive_count == 0
            && self.masked_count == 0
            && self.dict.len() == self.base.dictionary().len()
    }

    /// Folds the overlay into a new flat base, published at `epoch`, and
    /// restarts empty on it.
    fn compact_into_base(&mut self, epoch: Epoch) -> Arc<KnowledgeGraph> {
        let folded = Arc::new(self.freeze_version().flattened().at_epoch(epoch));
        *self = DeltaStore::new(Arc::clone(&folded));
        folded
    }
}

/// Read-only counters describing a [`LiveGraph`]'s write-side state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveStats {
    /// The currently published epoch.
    pub epoch: Epoch,
    /// Alive delta rows awaiting compaction.
    pub delta_rows: usize,
    /// Base rows hidden by retractions/replacements.
    pub masked_rows: usize,
    /// Compactions performed so far.
    pub compactions: u64,
}

/// A knowledge graph that accepts writes while continuing to serve
/// consistent reads.
///
/// Readers call [`LiveGraph::pinned`] once per query and use the returned
/// `Arc<KnowledgeGraph>` for planning, execution and verification — that
/// version is immutable, so the query is isolated from concurrent commits.
/// Writers call [`LiveGraph::commit`]; commits serialize on an internal
/// writer lock and never block readers (publication is one `RwLock` write
/// of an `Arc` + epoch pair).
///
/// ```
/// use kgstore::{Epoch, KnowledgeGraphBuilder, LiveGraph, WriteBatch};
///
/// let mut b = KnowledgeGraphBuilder::new();
/// b.add("shakira", "rdf:type", "singer", 100.0);
/// let live = LiveGraph::new(b.build());             // epoch 0
///
/// // A reader pins the version current when its query starts…
/// let (version, at) = live.pinned();
/// assert_eq!(at, Epoch::ZERO);
///
/// // …and a commit landing mid-query cannot touch it.
/// let mut batch = WriteBatch::new();
/// batch.assert("adele", "rdf:type", "singer", 90.0);
/// batch.retract("shakira", "rdf:type", "singer");
/// let epoch = live.commit(&batch);
/// assert_eq!(epoch, Epoch::new(1));
/// assert_eq!(version.len(), 1);                     // still the epoch-0 view
/// assert_eq!(live.pinned().0.len(), 1);             // adele in, shakira masked
/// assert_eq!(live.stats().delta_rows, 1);
/// ```
pub struct LiveGraph {
    writer: Mutex<DeltaStore>,
    /// The published version; it carries its own epoch.
    current: RwLock<Arc<KnowledgeGraph>>,
    policy: CompactionPolicy,
    compactions: AtomicU64,
}

impl std::fmt::Debug for LiveGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (graph, epoch) = self.pinned();
        f.debug_struct("LiveGraph")
            .field("epoch", &epoch)
            .field("len", &graph.len())
            .field("policy", &self.policy)
            .finish()
    }
}

impl LiveGraph {
    /// Wraps `base` as epoch 0 with the default [`CompactionPolicy`].
    pub fn new(base: KnowledgeGraph) -> Self {
        Self::with_policy(base, CompactionPolicy::default())
    }

    /// Wraps `base` as epoch 0 with an explicit compaction policy.
    /// An overlay-carrying `base` is flattened first.
    pub fn with_policy(base: KnowledgeGraph, policy: CompactionPolicy) -> Self {
        let base = if base.has_overlay() {
            base.flattened()
        } else {
            base
        };
        let base = Arc::new(base.at_epoch(Epoch::ZERO));
        LiveGraph {
            writer: Mutex::new(DeltaStore::new(Arc::clone(&base))),
            current: RwLock::new(base),
            policy,
            compactions: AtomicU64::new(0),
        }
    }

    /// Pins the current version: the returned graph is immutable and
    /// reflects exactly the commits up to the returned epoch. Hold the
    /// `Arc` for the lifetime of one query.
    pub fn pinned(&self) -> (Arc<KnowledgeGraph>, Epoch) {
        let cur = Arc::clone(&self.current.read().expect("live graph lock poisoned"));
        let epoch = cur.epoch();
        (cur, epoch)
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> Epoch {
        self.current
            .read()
            .expect("live graph lock poisoned")
            .epoch()
    }

    /// Applies `batch` atomically and publishes the next epoch. If the
    /// resulting overlay exceeds the [`CompactionPolicy`], the commit also
    /// folds it into a new flat base before publishing (one epoch bump
    /// covers both).
    ///
    /// # Panics
    /// Panics if an assert's score is not finite and non-negative
    /// ([`WriteOp::has_valid_score`]); nothing is applied then.
    pub fn commit(&self, batch: &WriteBatch) -> Epoch {
        assert!(
            batch.ops().iter().all(WriteOp::has_valid_score),
            "write scores must be finite and non-negative"
        );
        let mut w = self.writer.lock().expect("live graph writer poisoned");
        for op in batch.ops() {
            w.apply(op);
        }
        let should_compact = w.alive_count as usize >= self.policy.max_delta_rows
            || w.masked_count as usize >= self.policy.max_masked_rows;
        // Epochs advance only under the writer lock, which is held here.
        let epoch = self.epoch().next();
        let graph = if should_compact {
            self.compactions.fetch_add(1, Ordering::Relaxed);
            w.compact_into_base(epoch)
        } else {
            Arc::new(w.freeze_version().at_epoch(epoch))
        };
        *self.current.write().expect("live graph lock poisoned") = graph;
        epoch
    }

    /// Forces a compaction: folds the current overlay into a new flat base
    /// and publishes it under the next epoch. Returns the current epoch
    /// unchanged (and performs no work) when there is nothing to fold —
    /// pointless epoch bumps would only evict warm plan caches downstream.
    pub fn compact(&self) -> Epoch {
        let mut w = self.writer.lock().expect("live graph writer poisoned");
        if w.is_pristine() {
            return self.epoch();
        }
        self.compactions.fetch_add(1, Ordering::Relaxed);
        let epoch = self.epoch().next();
        let graph = w.compact_into_base(epoch);
        *self.current.write().expect("live graph lock poisoned") = graph;
        epoch
    }

    /// Current write-side counters.
    pub fn stats(&self) -> LiveStats {
        let w = self.writer.lock().expect("live graph writer poisoned");
        LiveStats {
            epoch: self.epoch(),
            delta_rows: w.alive_count as usize,
            masked_rows: w.masked_count as usize,
            compactions: self.compactions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern_key::PatternKey;
    use crate::snapshot::{read_snapshot, write_snapshot};
    use crate::KnowledgeGraphBuilder;

    fn base() -> KnowledgeGraph {
        let mut b = KnowledgeGraphBuilder::new();
        b.add("a", "type", "singer", 10.0);
        b.add("b", "type", "singer", 4.0);
        b.add("c", "type", "singer", 2.0);
        b.add("a", "plays", "guitar", 3.0);
        b.build()
    }

    fn po(kg: &KnowledgeGraph, p: &str, o: &str) -> Vec<(String, f64)> {
        let d = kg.dictionary();
        let (Some(p), Some(o)) = (d.lookup(p), d.lookup(o)) else {
            return Vec::new();
        };
        kg.matches(PatternKey::po(p, o))
            .iter_triples()
            .map(|(t, s)| (d.name(t.s).unwrap().to_string(), s.value()))
            .collect()
    }

    /// Every published version carries the epoch it was published at, so
    /// memos keyed on a version can tell versions apart; a graph wrapped in
    /// a new live graph starts over at epoch 0.
    #[test]
    fn published_versions_know_their_epoch() {
        let live = LiveGraph::new(base());
        assert_eq!(live.pinned().0.epoch(), Epoch::ZERO);
        let mut batch = WriteBatch::new();
        batch.assert("d", "type", "singer", 7.0);
        let e1 = live.commit(&batch);
        let (g1, pinned) = live.pinned();
        assert_eq!((g1.epoch(), pinned), (e1, e1));
        let e2 = live.compact();
        let (g2, _) = live.pinned();
        assert!(!g2.has_overlay());
        assert_eq!((e2, g2.epoch()), (Epoch::new(2), e2));
        assert_eq!(g1.epoch(), e1, "an older pin keeps its epoch");
        let again = LiveGraph::new(g1.flattened());
        assert_eq!(
            (again.epoch(), again.pinned().0.epoch()),
            (Epoch::ZERO, Epoch::ZERO)
        );
    }

    #[test]
    fn assert_inserts_and_merges_by_score() {
        let live = LiveGraph::new(base());
        let mut batch = WriteBatch::new();
        batch.assert("d", "type", "singer", 7.0);
        batch.assert("e", "type", "singer", 1.0);
        live.commit(&batch);
        let (g, _) = live.pinned();
        assert_eq!(
            po(&g, "type", "singer"),
            vec![
                ("a".into(), 10.0),
                ("d".into(), 7.0),
                ("b".into(), 4.0),
                ("c".into(), 2.0),
                ("e".into(), 1.0),
            ]
        );
        assert_eq!(g.len(), 6);
    }

    /// The single-column readers see the same merged, masked list as the
    /// whole-triple one, base and delta rows alike, over any rank range.
    #[test]
    fn column_readers_read_across_base_and_delta() {
        let live = LiveGraph::new(base());
        let mut batch = WriteBatch::new();
        batch.assert("d", "type", "singer", 7.0);
        batch.retract("b", "type", "singer");
        live.commit(&batch);
        for g in [&base(), &*live.pinned().0] {
            let ty = g.dictionary().lookup("type").unwrap();
            let list = g.matches(PatternKey::p_only(ty));
            let rows: Vec<_> = list.iter_triples().collect();
            for ranks in [0..rows.len(), 1..rows.len() - 1, 2..2] {
                for position in 0..3 {
                    let expected: Vec<_> = rows[ranks.clone()]
                        .iter()
                        .map(|(t, _)| [t.s, t.p, t.o][position])
                        .collect();
                    let got: Vec<_> = list.terms(position, ranks.clone()).collect();
                    assert_eq!(got, expected);
                }
                let expected: Vec<_> = rows[ranks.clone()].iter().map(|&(_, s)| s).collect();
                assert_eq!(list.scores(ranks).collect::<Vec<_>>(), expected);
            }
        }
    }

    #[test]
    fn retract_masks_base_and_kills_delta() {
        let live = LiveGraph::new(base());
        let mut b1 = WriteBatch::new();
        b1.assert("d", "type", "singer", 7.0);
        b1.retract("b", "type", "singer");
        live.commit(&b1);
        let (g, _) = live.pinned();
        assert_eq!(
            po(&g, "type", "singer"),
            vec![("a".into(), 10.0), ("d".into(), 7.0), ("c".into(), 2.0)]
        );
        // Retract the delta row too.
        let mut b2 = WriteBatch::new();
        b2.retract("d", "type", "singer");
        live.commit(&b2);
        let (g, _) = live.pinned();
        assert_eq!(
            po(&g, "type", "singer"),
            vec![("a".into(), 10.0), ("c".into(), 2.0)]
        );
        // Unknown triple/terms: no-op.
        let mut b3 = WriteBatch::new();
        b3.retract("zz", "type", "singer");
        b3.retract("a", "plays", "singer");
        let e = live.commit(&b3);
        assert_eq!(e.value(), 3);
        assert_eq!(live.pinned().0.len(), 3);
    }

    #[test]
    fn assert_replaces_score_of_visible_triple() {
        let live = LiveGraph::new(base());
        let mut b1 = WriteBatch::new();
        b1.assert("b", "type", "singer", 11.0); // base replace
        live.commit(&b1);
        let (g, _) = live.pinned();
        assert_eq!(
            po(&g, "type", "singer"),
            vec![("b".into(), 11.0), ("a".into(), 10.0), ("c".into(), 2.0)]
        );
        let d = g.dictionary();
        let (s, p, o) = (
            d.lookup("b").unwrap(),
            d.lookup("type").unwrap(),
            d.lookup("singer").unwrap(),
        );
        assert_eq!(g.score_of(s, p, o).unwrap().value(), 11.0);
        assert_eq!(g.matches(PatternKey::spo(s, p, o)).len(), 1);
        // Replace the replacement.
        let mut b2 = WriteBatch::new();
        b2.assert("b", "type", "singer", 1.0);
        live.commit(&b2);
        let (g, _) = live.pinned();
        assert_eq!(g.score_of(s, p, o).unwrap().value(), 1.0);
        assert_eq!(g.len(), 4, "replace must not duplicate");
    }

    #[test]
    fn pinned_version_is_isolated_from_later_commits() {
        let live = LiveGraph::new(base());
        let (g0, e0) = live.pinned();
        let before = po(&g0, "type", "singer");
        let mut batch = WriteBatch::new();
        batch.assert("d", "type", "singer", 99.0);
        batch.retract("a", "type", "singer");
        let e1 = live.commit(&batch);
        assert!(e1 > e0);
        // The pinned version still answers exactly as before.
        assert_eq!(po(&g0, "type", "singer"), before);
        // The new version sees the writes.
        assert_ne!(po(&live.pinned().0, "type", "singer"), before);
    }

    #[test]
    fn live_equals_rebuilt_from_scratch() {
        let live = LiveGraph::new(base());
        let mut batch = WriteBatch::new();
        batch.assert("d", "type", "singer", 7.0);
        batch.assert("a", "type", "singer", 5.0); // replace
        batch.retract("c", "type", "singer");
        batch.assert("d", "plays", "drums", 2.0);
        live.commit(&batch);
        let (g, _) = live.pinned();

        let mut b = KnowledgeGraphBuilder::with_policy(crate::DuplicatePolicy::Replace);
        b.add("b", "type", "singer", 4.0);
        b.add("a", "plays", "guitar", 3.0);
        b.add("d", "type", "singer", 7.0);
        b.add("a", "type", "singer", 5.0);
        b.add("d", "plays", "drums", 2.0);
        let rebuilt = b.build();

        assert_eq!(g.len(), rebuilt.len());
        assert_eq!(po(&g, "type", "singer"), po(&rebuilt, "type", "singer"));
        assert_eq!(po(&g, "plays", "drums"), po(&rebuilt, "plays", "drums"));
    }

    #[test]
    fn compaction_folds_and_preserves_answers() {
        let live = LiveGraph::with_policy(base(), CompactionPolicy::never());
        let mut batch = WriteBatch::new();
        batch.assert("d", "type", "singer", 7.0);
        batch.retract("b", "type", "singer");
        live.commit(&batch);
        let before = po(&live.pinned().0, "type", "singer");
        assert!(live.pinned().0.has_overlay());

        let e = live.compact();
        assert_eq!(e.value(), 2);
        let (g, _) = live.pinned();
        assert!(!g.has_overlay());
        assert_eq!(po(&g, "type", "singer"), before);
        assert_eq!(live.stats().compactions, 1);
        assert_eq!(live.stats().delta_rows, 0);
        // Nothing to fold → no-op, epoch unchanged.
        assert_eq!(live.compact(), e);
    }

    #[test]
    fn policy_triggers_automatic_compaction() {
        let policy = CompactionPolicy {
            max_delta_rows: 3,
            max_masked_rows: usize::MAX,
        };
        let live = LiveGraph::with_policy(base(), policy);
        let mut b1 = WriteBatch::new();
        b1.assert("x1", "type", "singer", 1.0);
        b1.assert("x2", "type", "singer", 1.5);
        live.commit(&b1);
        assert!(live.pinned().0.has_overlay());
        let mut b2 = WriteBatch::new();
        b2.assert("x3", "type", "singer", 2.5);
        live.commit(&b2);
        assert!(!live.pinned().0.has_overlay(), "threshold reached → folded");
        assert_eq!(live.stats().compactions, 1);
        assert_eq!(live.pinned().0.len(), 7);
    }

    #[test]
    fn overlay_snapshot_roundtrips_flattened() {
        let live = LiveGraph::with_policy(base(), CompactionPolicy::never());
        let mut batch = WriteBatch::new();
        batch.assert("d", "type", "singer", 7.0);
        batch.retract("a", "plays", "guitar");
        live.commit(&batch);
        let (g, _) = live.pinned();
        assert!(g.has_overlay());
        let bytes = write_snapshot(&g);
        let loaded = read_snapshot(&bytes).unwrap();
        assert!(!loaded.has_overlay());
        assert_eq!(loaded.len(), g.len());
        assert_eq!(po(&loaded, "type", "singer"), po(&g, "type", "singer"));
        assert!(po(&loaded, "plays", "guitar").is_empty());
        // Term ids survive the flatten (layered dict flattening is id-stable).
        for (id, name) in g.dictionary().iter() {
            assert_eq!(loaded.dictionary().lookup(name), Some(id));
        }
    }

    #[test]
    fn term_ids_stay_stable_across_epochs() {
        let live = LiveGraph::with_policy(base(), CompactionPolicy::never());
        let mut b1 = WriteBatch::new();
        b1.assert("newterm", "type", "singer", 1.0);
        live.commit(&b1);
        let (g1, _) = live.pinned();
        let id = g1.dictionary().lookup("newterm").unwrap();
        let mut b2 = WriteBatch::new();
        b2.assert("another", "type", "singer", 1.0);
        live.commit(&b2);
        let (g2, _) = live.pinned();
        assert_eq!(g2.dictionary().lookup("newterm"), Some(id));
        assert!(g2.dictionary().lookup("another").unwrap() > id);
    }

    fn churned() -> LiveGraph {
        let live = LiveGraph::with_policy(base(), CompactionPolicy::never());
        let mut b1 = WriteBatch::new();
        b1.assert("d", "type", "singer", 7.0);
        b1.retract("b", "type", "singer");
        live.commit(&b1);
        live
    }

    #[test]
    fn memo_serves_one_list_per_key_to_concurrent_readers() {
        let live = churned();
        let (g, _) = live.pinned();
        let id = |name| g.dictionary().lookup(name).unwrap();
        // Every key's list mixes masked base rows and delta rows.
        let keys = [
            PatternKey::po(id("type"), id("singer")),
            PatternKey::p_only(id("type")),
            PatternKey::o_only(id("singer")),
            PatternKey::s_only(id("a")),
            PatternKey::any(),
        ];
        let lists: Vec<Vec<Vec<u32>>> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        keys.iter()
                            .map(|&k| g.matches(k).ids().to_vec())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        for other in &lists[1..] {
            assert_eq!(other, &lists[0]);
        }
        for (&key, ids) in keys.iter().zip(&lists[0]) {
            // A later read hits the memo: the very same shared list.
            let (first, again) = (g.matches(key), g.matches(key));
            assert_eq!(first.ids(), &ids[..]);
            assert_eq!(first.ids().as_ptr(), again.ids().as_ptr(), "{key:?}");
        }
        assert_eq!(g.matches(PatternKey::any()).len(), g.len());
    }

    #[test]
    fn memo_never_serves_a_list_merged_for_another_version() {
        let live = churned();
        let (g1, _) = live.pinned();
        let ty = g1.dictionary().lookup("type").unwrap();
        let singer = g1.dictionary().lookup("singer").unwrap();
        let key = PatternKey::po(ty, singer);
        let before = po(&g1, "type", "singer");
        assert_eq!(
            before,
            vec![("a".into(), 10.0), ("d".into(), 7.0), ("c".into(), 2.0)]
        );
        assert_eq!(g1.matches(PatternKey::any()).len(), 4);

        let mut b2 = WriteBatch::new();
        b2.assert("e", "type", "singer", 5.0);
        b2.retract("a", "type", "singer");
        live.commit(&b2);
        let (g2, _) = live.pinned();
        assert_eq!(
            po(&g2, "type", "singer"),
            vec![("d".into(), 7.0), ("e".into(), 5.0), ("c".into(), 2.0)]
        );
        assert_eq!(g2.matches(PatternKey::any()).len(), 4);
        assert_ne!(g1.matches(key).ids(), g2.matches(key).ids());
        // The older version still serves its own merge.
        assert_eq!(po(&g1, "type", "singer"), before);
    }

    #[test]
    fn spo_lookup_sees_delta_and_masks() {
        let live = LiveGraph::with_policy(base(), CompactionPolicy::never());
        let mut batch = WriteBatch::new();
        batch.retract("a", "type", "singer");
        batch.assert("d", "type", "singer", 7.0);
        live.commit(&batch);
        let (g, _) = live.pinned();
        let d = g.dictionary();
        let (a, dd, ty, singer) = (
            d.lookup("a").unwrap(),
            d.lookup("d").unwrap(),
            d.lookup("type").unwrap(),
            d.lookup("singer").unwrap(),
        );
        assert!(g.matches(PatternKey::spo(a, ty, singer)).is_empty());
        assert!(!g.contains(a, ty, singer));
        let m = g.matches(PatternKey::spo(dd, ty, singer));
        assert_eq!(m.len(), 1);
        assert_eq!(m.score_at(0).value(), 7.0);
        assert!(g.contains(dd, ty, singer));
    }
}
