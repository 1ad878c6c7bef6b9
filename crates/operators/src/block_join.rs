//! The rank join and the incremental merge.
//!
//! [`BlockRankJoin`] is the HRJN hash rank join (Ilyas et al., VLDB'03;
//! refs \[15,16,17\]): it consumes two descending streams and produces the
//! join results in descending order of the score sum, pulling as few input
//! rows as possible. It keeps the rows seen per input, a threshold `T` — the
//! larger of the two sides' terms, each bounding the results that pair an
//! unseen row of its side with anything — and a queue of join results found
//! so far, emitting a result once it scores above `T`. It pulls from the
//! side whose term is larger (HRJN\*, [`PullStrategy::Adaptive`]).
//!
//! A side's term is the HRJN *corner bound* `cur(A) + top₁(B)`, except for a
//! *keys-once* side: one whose stream is [`distinct`](BlockStream::distinct)
//! and binds only join variables, so it holds each join key at most once.
//! Once A has produced key *x*, no unseen A row has key *x*, so the seen B
//! rows with key *x* are *closed* to A's unseen rows, and A's term becomes
//! `cur(A) + max(cur(B), best open seen row of B)` — without `cur(B)` once
//! B is exhausted, and no term at all once no open row is left either. The
//! corner bound is not tight in general (Schnaitter & Polyzotis, PODS'08);
//! this is the cheap case of that gap that every key-only pattern hits. B's
//! rows are stored in pull order — descending score — and a key only ever
//! closes, so the best open row is the first open one at or after a
//! forward-only cursor.
//!
//! [`BlockIncrementalMerge`] merges a pattern's scan with its relaxations'
//! under max-score deduplication.
//!
//! Both move [`AnswerBlock`]s, and their per-row bookkeeping lives in flat
//! vectors that only grow geometrically — the hot hash paths allocate
//! nothing per row, per key or per result:
//!
//! * **Row index.** Each join side stores the rows it has pulled as one
//!   flat term vector, and a chained hash index over those rows: a
//!   power-of-two table of chain heads, one `next` link and one stored
//!   32-bit hash per row. A probe walks one chain comparing the stored hash
//!   and then the key columns of the stored rows themselves, so there is no
//!   key object of any width; a cross product (no join columns) is simply
//!   one chain. Row ids are `u32`: a side holds fewer than `u32::MAX` rows.
//! * **Arena heap.** Join results wait in a binary max-heap of
//!   `(score, slot)` pairs over one fixed-width term arena with a free
//!   list. A result is assembled directly in its slot; popping copies the
//!   slot into the output block and recycles it.
//! * **Narrow dedup keys.** Most merged patterns bind one variable, and
//!   dictionary ids are dense, so a one-term row is a bit in a bitset
//!   indexed by term id. A triple pattern binds at most three variables,
//!   so wider rows are packed whole into a `u64` or `u128` hash-set key.
//!
//! Results are emitted from a heap ordered by the total `(score, binding)`
//! order that [`PartialAnswer`](crate::PartialAnswer) uses — for same-schema
//! rows, comparing term slices in schema order *is* comparing sorted binding
//! pair lists. Because that order is total and equal rows are
//! indistinguishable, neither the block size nor the order in which a chain
//! yields a row's partners (newest first) can show in the output.

use crate::block::{AnswerBlock, BlockSizer, BlockStream, BoxedBlockStream};
use crate::metrics::MetricsHandle;
use sparql::Var;
use specqp_common::{FxHashSet, FxHasher, Score, TermId};
use std::hash::Hasher;

/// Which input a rank join pulls from next.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PullStrategy {
    /// Pull from the side whose bound term is larger (HRJN\*).
    #[default]
    Adaptive,
}

/// Chain terminator / empty bucket in a [`RowIndex`].
const NIL: u32 = u32::MAX;

/// Hash of `row`'s key columns `idx`: the Fx multiply mixes upwards only, so
/// the high half is folded into the low bits a [`RowIndex`] bucket takes.
#[inline]
fn key_hash(row: &[TermId], idx: &[usize]) -> u32 {
    let mut h = FxHasher::default();
    for &i in idx {
        h.write_u32(row[i].0);
    }
    let h = h.finish();
    (h >> 32) as u32 ^ h as u32
}

/// A chained hash index over rows stored elsewhere (row `i` is the `i`-th
/// [`insert`](RowIndex::insert)): it keeps hashes and links, never keys.
struct RowIndex {
    /// Chain head per bucket (`NIL` = empty); the length is a power of two.
    buckets: Vec<u32>,
    /// Per row: the next row in its chain.
    next: Vec<u32>,
    /// Per row: its key hash, for cheap rejects and for relinking on growth.
    hashes: Vec<u32>,
}

impl RowIndex {
    fn new() -> Self {
        RowIndex {
            buckets: vec![NIL; 16],
            next: Vec::new(),
            hashes: Vec::new(),
        }
    }

    #[inline]
    fn bucket(&self, hash: u32) -> usize {
        hash as usize & (self.buckets.len() - 1)
    }

    /// Links the next row id at the head of its chain.
    #[inline]
    fn insert(&mut self, hash: u32) {
        let row = self.next.len();
        assert!(row < NIL as usize, "a join side holds < u32::MAX rows");
        if row >= self.buckets.len() {
            self.grow();
        }
        let b = self.bucket(hash);
        self.next.push(self.buckets[b]);
        self.hashes.push(hash);
        self.buckets[b] = row as u32;
    }

    /// Quadruples the table and relinks every row from its stored hash.
    fn grow(&mut self) {
        self.buckets = vec![NIL; self.buckets.len() * 4];
        for row in 0..self.next.len() {
            let b = self.bucket(self.hashes[row]);
            self.next[row] = self.buckets[b];
            self.buckets[b] = row as u32;
        }
    }

    /// The rows whose stored hash equals `hash`, newest first. The caller
    /// still compares key columns: equal hashes are not equal keys.
    #[inline]
    fn candidates(&self, hash: u32) -> impl Iterator<Item = u32> + '_ {
        let mut at = self.buckets[self.bucket(hash)];
        std::iter::from_fn(move || {
            while at != NIL {
                let row = at;
                at = self.next[row as usize];
                if self.hashes[row as usize] == hash {
                    return Some(row);
                }
            }
            None
        })
    }
}

/// The join's output queue: a binary max-heap of `(score, slot)` over one
/// fixed-width term arena, ordered exactly like `PartialAnswer` — by score,
/// ties broken so the lexicographically smaller term row ranks higher (pops
/// first).
pub(crate) struct RowHeap {
    width: usize,
    heap: Vec<(Score, u32)>,
    /// Slot `s` occupies `arena[s * width..(s + 1) * width]`.
    arena: Vec<TermId>,
    /// Popped slots awaiting reuse; every other slot is in `heap`.
    free: Vec<u32>,
}

impl RowHeap {
    pub(crate) fn new(width: usize) -> Self {
        RowHeap {
            width,
            heap: Vec::new(),
            arena: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Score of the row that pops next.
    #[inline]
    pub(crate) fn peek_score(&self) -> Option<Score> {
        self.heap.first().map(|&(score, _)| score)
    }

    #[inline]
    fn row(&self, slot: u32) -> &[TermId] {
        let at = slot as usize * self.width;
        &self.arena[at..at + self.width]
    }

    /// `true` when heap entry `a` must pop before entry `b`.
    #[inline]
    fn outranks(&self, a: usize, b: usize) -> bool {
        let ((sa, ra), (sb, rb)) = (self.heap[a], self.heap[b]);
        sa > sb || (sa == sb && self.row(ra) < self.row(rb))
    }

    /// Queues a row, letting `fill` write every term of its (possibly
    /// recycled) slot in place, and returns the slot.
    #[inline]
    pub(crate) fn push_with(&mut self, score: Score, fill: impl FnOnce(&mut [TermId])) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            // Nothing to recycle: all slots are queued, so this is a new one.
            let slot = u32::try_from(self.heap.len()).expect("a join queues < 2^32 results");
            self.arena
                .resize((self.heap.len() + 1) * self.width, TermId(0));
            slot
        });
        let at = slot as usize * self.width;
        fill(&mut self.arena[at..at + self.width]);
        self.heap.push((score, slot));
        self.sift_up(self.heap.len() - 1);
        slot
    }

    /// Moves entry `i` up until its parent outranks it.
    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.outranks(i, parent) {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    /// Pops the top row into `out` and recycles its slot, which it returns:
    /// the slot is reused by the next push.
    pub(crate) fn pop_into(&mut self, out: &mut AnswerBlock) -> u32 {
        let (score, slot) = self.heap.swap_remove(0);
        out.push_row(self.row(slot), score);
        self.free.push(slot);
        // The entry moved to the root came from the bottom and mostly
        // belongs there: walk it down the better-child path with one
        // comparison per level, then let it climb back the little it must.
        let mut i = 0;
        while 2 * i + 1 < self.heap.len() {
            let mut child = 2 * i + 1;
            if child + 1 < self.heap.len() && self.outranks(child + 1, child) {
                child += 1;
            }
            self.heap.swap(i, child);
            i = child;
        }
        self.sift_up(i);
        slot
    }
}

/// One input of a [`BlockRankJoin`]: the columnar store of every row seen so
/// far, indexed by join key, plus the HRJN bound state.
struct SideState {
    width: usize,
    /// Positions of the join variables in this side's schema.
    key_idx: Vec<usize>,
    /// For each schema slot, its position in the join's output schema.
    out_map: Vec<usize>,
    /// Flattened seen rows (`width` terms each).
    terms: Vec<TermId>,
    scores: Vec<Score>,
    index: RowIndex,
    /// Score of the first row ever pulled (top₁).
    top1: Option<Score>,
    /// Score of the most recent row pulled (cur).
    cur: Option<Score>,
    exhausted: bool,
    /// The side holds each join key at most once: its stream is distinct
    /// and binds only join variables.
    keys_once: bool,
    /// When the partner is keys-once: every stored row before this one has
    /// a key the partner has produced (is closed).
    open_from: usize,
}

impl SideState {
    /// A side over `schema`, whose stream is `distinct` or not.
    fn new(schema: &[Var], join_vars: &[Var], out_schema: &[Var], distinct: bool) -> Self {
        let pos = |v: Var| -> usize {
            schema
                .iter()
                .position(|&w| w == v)
                .expect("join variables must appear in both schemas")
        };
        SideState {
            width: schema.len(),
            key_idx: join_vars.iter().map(|&v| pos(v)).collect(),
            out_map: schema
                .iter()
                .map(|v| {
                    out_schema
                        .iter()
                        .position(|w| w == v)
                        .expect("side schema is a subset of the output schema")
                })
                .collect(),
            terms: Vec::new(),
            scores: Vec::new(),
            index: RowIndex::new(),
            top1: None,
            cur: None,
            exhausted: false,
            keys_once: distinct && schema.iter().all(|v| join_vars.contains(v)),
            open_from: 0,
        }
    }

    #[inline]
    fn row(&self, i: u32) -> &[TermId] {
        let w = self.width;
        &self.terms[i as usize * w..(i as usize + 1) * w]
    }

    /// Stores a pulled row whose key columns hash to `hash`.
    #[inline]
    fn insert(&mut self, row: &[TermId], score: Score, hash: u32) {
        self.terms.extend_from_slice(row);
        self.scores.push(score);
        self.index.insert(hash);
    }

    /// The stored rows joining with `row`, a row of the other side keyed at
    /// its columns `idx` and hashing to `hash`.
    #[inline]
    fn partners<'a>(
        &'a self,
        row: &'a [TermId],
        idx: &'a [usize],
        hash: u32,
    ) -> impl Iterator<Item = u32> + 'a {
        self.index.candidates(hash).filter(move |&p| {
            let stored = self.row(p);
            idx.iter()
                .zip(&self.key_idx)
                .all(|(&a, &b)| row[a] == stored[b])
        })
    }

    /// This side's term: `cur` plus the best `other` row an unseen row of
    /// this side can meet — `top₁(other)`, or for a keys-once side the
    /// better of `cur(other)` (while `other` has unseen rows) and the best
    /// open seen row of `other` (see the module docs); `None` once no future
    /// result can involve an unseen row of this side. A side that has pulled
    /// nothing, or whose partner has not, is unbounded: it must be pulled
    /// first.
    fn bound_with(&self, other: &SideState) -> Option<Score> {
        if self.exhausted {
            return None;
        }
        let (Some(cur), Some(top1)) = (self.cur, other.top1) else {
            return Some(Score::MAX);
        };
        if !self.keys_once {
            return Some(cur + top1);
        }
        let open = other.scores.get(other.open_from).copied();
        let unseen = if other.exhausted { None } else { other.cur };
        Some(cur + unseen.max(open)?)
    }

    /// Moves `open_from` past the stored rows whose key the keys-once
    /// `partner` has produced.
    fn skip_closed(&mut self, partner: &SideState) {
        while let Some(&hash) = self.index.hashes.get(self.open_from) {
            let row = self.row(self.open_from as u32);
            if partner.partners(row, &self.key_idx, hash).next().is_none() {
                break;
            }
            self.open_from += 1;
        }
    }
}

/// The HRJN hash rank join of two [`BlockStream`]s (see the module docs):
/// pulls, probes and emits whole batches.
pub struct BlockRankJoin<'g> {
    left: BoxedBlockStream<'g>,
    right: BoxedBlockStream<'g>,
    lstate: SideState,
    rstate: SideState,
    out_schema: Vec<Var>,
    output: RowHeap,
    sizer: BlockSizer,
    metrics: MetricsHandle,
    /// Set by [`BlockStream::set_floor`]: the join ends once no queued or
    /// future result can score this high.
    floor: Option<Score>,
}

impl<'g> BlockRankJoin<'g> {
    /// Creates a block rank join of `left ⋈ right` on `join_vars`, emitting
    /// blocks of up to `block_size` rows.
    pub fn new(
        left: BoxedBlockStream<'g>,
        right: BoxedBlockStream<'g>,
        join_vars: Vec<Var>,
        metrics: MetricsHandle,
        block_size: usize,
    ) -> Self {
        let mut out_schema: Vec<Var> = left.schema().to_vec();
        for &v in right.schema() {
            if !out_schema.contains(&v) {
                out_schema.push(v);
            }
        }
        out_schema.sort_unstable();
        let lstate = SideState::new(left.schema(), &join_vars, &out_schema, left.distinct());
        let rstate = SideState::new(right.schema(), &join_vars, &out_schema, right.distinct());
        BlockRankJoin {
            left,
            right,
            lstate,
            rstate,
            output: RowHeap::new(out_schema.len()),
            out_schema,
            sizer: BlockSizer::new(block_size),
            metrics,
            floor: None,
        }
    }

    /// The threshold `T`: the larger side term.
    fn threshold(&self) -> Option<Score> {
        if (self.lstate.exhausted && self.lstate.top1.is_none())
            || (self.rstate.exhausted && self.rstate.top1.is_none())
        {
            return None;
        }
        let tl = self.lstate.bound_with(&self.rstate);
        let tr = self.rstate.bound_with(&self.lstate);
        match (tl, tr) {
            (None, None) => None,
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (Some(a), Some(b)) => Some(a.max(b)),
        }
    }

    /// Pulls one block from the chosen side, inserts its rows and probes the
    /// other side's row index row-by-row in a tight loop.
    fn pull_block(&mut self) {
        // HRJN*: pull the side whose bound term is larger.
        let pull_left = if self.lstate.exhausted {
            false
        } else if self.rstate.exhausted || self.lstate.top1.is_none() {
            // Right done, or the left head is still unknown: the bound
            // terms are meaningless until both heads are seen, so fetch
            // left first.
            true
        } else if self.rstate.top1.is_none() {
            false
        } else {
            let tl = self.lstate.bound_with(&self.rstate);
            let tr = self.rstate.bound_with(&self.lstate);
            match (tl, tr) {
                (Some(a), Some(b)) => a >= b,
                (Some(_), None) => true,
                _ => false,
            }
        };

        let (src, dst, probe) = if pull_left {
            (&mut self.left, &mut self.lstate, &self.rstate)
        } else {
            (&mut self.right, &mut self.rstate, &self.lstate)
        };

        let Some(block) = src.next_block() else {
            dst.exhausted = true;
            return;
        };
        let rows = block.len();
        self.metrics.count_join_pulls(rows as u64);
        if dst.top1.is_none() && rows > 0 {
            dst.top1 = Some(block.score(0));
        }
        if rows > 0 {
            dst.cur = Some(block.score(rows - 1));
        }

        let mut matches = 0u64;
        for i in 0..rows {
            let row = block.row(i);
            let score = block.score(i);
            let hash = key_hash(row, &dst.key_idx);
            for pi in probe.partners(row, &dst.key_idx, hash) {
                let partner = probe.row(pi);
                // Assemble the merged row positionally in its heap slot:
                // partner columns first, then this side's (shared slots
                // overwrite with equal values).
                self.output
                    .push_with(score + probe.scores[pi as usize], |slot| {
                        for (j, &t) in partner.iter().enumerate() {
                            slot[probe.out_map[j]] = t;
                        }
                        for (j, &t) in row.iter().enumerate() {
                            slot[dst.out_map[j]] = t;
                        }
                    });
                matches += 1;
            }
            // A wrong `distinct()` would silently lose results: check it.
            debug_assert!(
                !dst.keys_once || dst.partners(row, &dst.key_idx, hash).next().is_none(),
                "a keys-once join side repeated a key"
            );
            dst.insert(row, score, hash);
        }
        if self.lstate.keys_once {
            self.rstate.skip_closed(&self.lstate);
        }
        if self.rstate.keys_once {
            self.lstate.skip_closed(&self.rstate);
        }
        // Every probe hit is one random access, one answer and one push.
        self.metrics.count_random_accesses(matches);
        self.metrics.count_answers(matches);
        self.metrics.count_heap_pushes(matches);
    }
}

impl BlockStream for BlockRankJoin<'_> {
    fn schema(&self) -> &[Var] {
        &self.out_schema
    }

    /// Strict-threshold emission (`top > T`): ties are fully queued before
    /// any is emitted, so the drain below pops them in the canonical
    /// (score desc, binding asc) order regardless of pull granularity.
    ///
    /// With a [floor](BlockStream::set_floor) the loop also ends — before
    /// every pull — once `max(heap top, threshold)` has dropped under it:
    /// without that check a join whose remaining results all fall short
    /// would read its inputs dry inside this one call, looking for a result
    /// to emit.
    fn next_block(&mut self) -> Option<AnswerBlock> {
        loop {
            let t = self.threshold();
            let top = self.output.peek_score();
            if self.floor.is_some_and(|f| top.max(t).is_none_or(|b| b < f)) {
                return None;
            }
            match (top, t) {
                (Some(top), Some(t)) if top <= t => self.pull_block(),
                (Some(_), bound) => {
                    // Drain every emittable result (threshold can't move
                    // while we're not pulling), up to the block size.
                    let n = self.sizer.take();
                    let mut out = AnswerBlock::with_capacity(self.out_schema.clone(), n);
                    while out.len() < n
                        && self
                            .output
                            .peek_score()
                            .is_some_and(|top| bound.is_none_or(|t| top > t))
                    {
                        self.output.pop_into(&mut out);
                    }
                    return Some(out);
                }
                (None, None) => return None,
                (None, Some(_)) => self.pull_block(),
            }
        }
    }

    fn upper_bound(&self) -> Option<Score> {
        match (self.output.peek_score(), self.threshold()) {
            (None, None) => None,
            (Some(h), None) => Some(h),
            (None, Some(t)) => Some(t),
            (Some(h), Some(t)) => Some(h.max(t)),
        }
    }

    fn set_floor(&mut self, floor: Score) {
        self.floor = Some(floor);
    }

    fn distinct(&self) -> bool {
        self.left.distinct() && self.right.distinct()
    }
}

/// Term ids a one-variable merge tracks in its bitset (at most 2 MiB).
/// Dictionary ids are dense and stay far below this, but a hand-built input
/// may carry any `u32`: ids from here up go to a hash set instead.
const BITSET_IDS: u32 = 1 << 24;

/// The rows a [`BlockIncrementalMerge`] has emitted (the representation is
/// chosen once, at construction, from the row width).
enum SeenRows {
    /// One term per row: a bitset indexed by term id, grown to cover the
    /// largest id below [`BITSET_IDS`] seen so far, and a hash set for the
    /// ids above it.
    Ids {
        bits: Vec<u64>,
        beyond: FxHashSet<u32>,
    },
    /// Zero or two terms per row, packed into one `u64`.
    Narrow(FxHashSet<u64>),
    /// Three or four terms per row, packed into one `u128`.
    Wide(FxHashSet<u128>),
}

impl SeenRows {
    fn new(width: usize) -> Self {
        match width {
            1 => SeenRows::Ids {
                bits: Vec::new(),
                beyond: FxHashSet::default(),
            },
            0 | 2 => SeenRows::Narrow(FxHashSet::default()),
            3..=4 => SeenRows::Wide(FxHashSet::default()),
            _ => panic!("merge inputs bind at most four variables, not {width}"),
        }
    }

    /// Records `row`; `false` when it was already there.
    #[inline]
    fn insert(&mut self, row: &[TermId]) -> bool {
        match self {
            SeenRows::Ids { bits, beyond } => {
                let id = row[0].0;
                if id >= BITSET_IDS {
                    return beyond.insert(id);
                }
                let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
                if word >= bits.len() {
                    // The Vec's capacity doubling makes growth O(log N).
                    bits.resize(word + 1, 0);
                }
                let fresh = bits[word] & bit == 0;
                bits[word] |= bit;
                fresh
            }
            SeenRows::Narrow(set) => {
                let k = row.iter().fold(0u64, |k, t| k << 32 | u64::from(t.0));
                // Fx's single multiply leaves a table's low index bits a
                // function of the last column alone; folding the first
                // column in is a bijection, so equality is untouched.
                set.insert(k ^ (k >> 32))
            }
            SeenRows::Wide(set) => {
                set.insert(row.iter().fold(0u128, |k, t| k << 32 | u128::from(t.0)))
            }
        }
    }
}

/// The incremental merge: emits the union of its inputs in descending score
/// order, each binding once with its maximum score — ties across inputs
/// resolve to the earliest input. Heads advance through buffered blocks and
/// the dedup set is a bitset of term ids (one variable) or holds whole rows
/// packed into one integer (two to four).
///
/// All inputs must share one schema (a pattern and its relaxations bind the
/// same variables).
pub struct BlockIncrementalMerge<'g> {
    inputs: Vec<BoxedBlockStream<'g>>,
    /// Buffered current block + cursor per input (`None` = exhausted).
    bufs: Vec<Option<(AnswerBlock, usize)>>,
    schema: Vec<Var>,
    seen: SeenRows,
    sizer: BlockSizer,
}

impl<'g> BlockIncrementalMerge<'g> {
    /// Builds a merge over `inputs`, emitting blocks of up to `block_size`
    /// rows.
    ///
    /// # Panics
    /// Panics if the inputs' schemas differ or bind more than four variables.
    pub fn new(mut inputs: Vec<BoxedBlockStream<'g>>, block_size: usize) -> Self {
        let schema: Vec<Var> = inputs
            .first()
            .map(|s| s.schema().to_vec())
            .unwrap_or_default();
        for s in &inputs {
            assert_eq!(s.schema(), schema.as_slice(), "merge inputs share a schema");
        }
        let bufs = inputs
            .iter_mut()
            .map(|s| s.next_block().map(|b| (b, 0)))
            .collect();
        BlockIncrementalMerge {
            inputs,
            bufs,
            seen: SeenRows::new(schema.len()),
            schema,
            sizer: BlockSizer::new(block_size),
        }
    }

    /// Index of the input whose buffered head has the maximum score
    /// (earliest input wins ties), plus the best head
    /// score among the *other* inputs — everything the winner's head run
    /// can be emitted against without re-scanning all heads per row.
    fn best_input(&self) -> Option<(usize, Option<Score>)> {
        let mut best: Option<(usize, Score)> = None;
        let mut second: Option<Score> = None;
        for (i, buf) in self.bufs.iter().enumerate() {
            if let Some((block, cursor)) = buf {
                let score = block.score(*cursor);
                match best {
                    Some((_, cur)) if cur >= score => match second {
                        Some(s) if s >= score => {}
                        _ => second = Some(score),
                    },
                    prev => {
                        second = prev.map(|(_, s)| s);
                        best = Some((i, score));
                    }
                }
            }
        }
        best.map(|(i, _)| (i, second))
    }
}

impl BlockStream for BlockIncrementalMerge<'_> {
    fn schema(&self) -> &[Var] {
        &self.schema
    }

    fn next_block(&mut self) -> Option<AnswerBlock> {
        let n = self.sizer.take();
        let mut out = AnswerBlock::with_capacity(self.schema.clone(), n);
        while out.len() < n {
            let Some((i, second)) = self.best_input() else {
                break;
            };
            // Emit the winner's whole run in one tight loop: every row
            // scoring strictly above the best other head comes from input
            // `i` next, so the per-row head scan is amortized away. Ties
            // with `second` fall back to single-row steps, preserving the
            // earliest-input-wins order exactly.
            let (block, cursor) = self.bufs[i].as_mut().expect("best input is buffered");
            let mut advanced = *cursor;
            while advanced < block.len() && out.len() < n {
                let score = block.score(advanced);
                if advanced > *cursor && second.is_some_and(|s| score <= s) {
                    break;
                }
                let row = block.row(advanced);
                if self.seen.insert(row) {
                    out.push_row(row, score);
                }
                // Duplicate binding from a lower-weighted relaxation: skip —
                // the earlier emission already carried the maximum score.
                advanced += 1;
            }
            *cursor = advanced;
            if *cursor >= block.len() {
                self.bufs[i] = self.inputs[i].next_block().map(|b| (b, 0));
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    fn upper_bound(&self) -> Option<Score> {
        self.bufs
            .iter()
            .flatten()
            .map(|(block, cursor)| block.score(*cursor))
            .max()
    }

    /// `seen` keeps one row per binding.
    fn distinct(&self) -> bool {
        true
    }
}

/// One pattern's stream over the scans of its inputs: the scan itself when
/// there is one, their [`BlockIncrementalMerge`] otherwise (a merge reads
/// one block of every input ahead).
pub fn pattern_stream(
    mut inputs: Vec<BoxedBlockStream<'_>>,
    block_size: usize,
) -> BoxedBlockStream<'_> {
    if inputs.len() == 1 {
        inputs.pop().expect("one input")
    } else {
        Box::new(BlockIncrementalMerge::new(inputs, block_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::{Binding, PartialAnswer};
    use crate::block::{top_k_blocks, ReplayBlocks};
    use crate::metrics::OpMetrics;

    fn ans(pairs: &[(u32, u32)], s: f64) -> PartialAnswer {
        PartialAnswer::new(
            Binding::from_pairs(pairs.iter().map(|&(v, t)| (Var(v), TermId(t))).collect()),
            Score::new(s),
        )
    }

    fn simple(join_val: u32, score: f64) -> PartialAnswer {
        ans(&[(0, join_val)], score)
    }

    fn block_of(rows: &[PartialAnswer], vars: &[u32], size: usize) -> ReplayBlocks {
        ReplayBlocks::new(rows.to_vec(), vars.iter().map(|&v| Var(v)).collect(), size)
    }

    fn drain<S: BlockStream>(mut s: S) -> Vec<PartialAnswer> {
        let mut out = Vec::new();
        while let Some(b) = s.next_block() {
            out.extend(b.to_answers());
        }
        out
    }

    fn ids(terms: &[u32]) -> Vec<TermId> {
        terms.iter().copied().map(TermId).collect()
    }

    /// A side whose rows are all key columns, in schema order.
    fn keyed_side(width: u32) -> SideState {
        let schema: Vec<Var> = (0..width).map(Var).collect();
        SideState::new(&schema, &schema, &schema, false)
    }

    fn partners_of(side: &SideState, row: &[TermId]) -> Vec<u32> {
        let hash = key_hash(row, &side.key_idx);
        let mut got: Vec<u32> = side.partners(row, &side.key_idx, hash).collect();
        got.sort_unstable();
        got
    }

    #[test]
    fn row_index_chains_survive_growth() {
        let mut side = keyed_side(1);
        // 16 → 64 → 256 → 1024 → 4096 buckets; key k sits at rows k and k + 1100.
        for i in 0..2200u32 {
            let row = [TermId(i % 1100)];
            side.insert(&row, Score::new(0.0), key_hash(&row, &[0]));
        }
        assert_eq!(side.index.buckets.len(), 4096);
        for k in 0..1100u32 {
            assert_eq!(partners_of(&side, &[TermId(k)]), vec![k, k + 1100]);
        }
        assert!(partners_of(&side, &[TermId(5000)]).is_empty());
    }

    #[test]
    fn row_index_shared_bucket_and_shared_hash_never_cross_match() {
        let mut side = keyed_side(1);
        // Forged hashes: rows 0 and 1 share the bucket (equal low bits) but
        // not the hash; rows 1 and 2 share the whole hash but not the key.
        side.insert(&[TermId(1)], Score::new(0.0), 0x0000_0005);
        side.insert(&[TermId(2)], Score::new(0.0), 0x0001_0005);
        side.insert(&[TermId(3)], Score::new(0.0), 0x0001_0005);
        assert_eq!(
            side.index.bucket(0x0000_0005),
            side.index.bucket(0x0001_0005)
        );
        let hits = |key: u32, hash: u32| -> Vec<u32> {
            side.partners(&[TermId(key)], &[0], hash).collect()
        };
        assert_eq!(hits(1, 0x0000_0005), vec![0]);
        assert_eq!(hits(2, 0x0001_0005), vec![1]);
        assert_eq!(hits(3, 0x0001_0005), vec![2]);
        assert_eq!(hits(1, 0x0001_0005), Vec::<u32>::new());
        assert_eq!(
            side.index.candidates(0x0001_0005).collect::<Vec<_>>(),
            vec![2, 1],
            "a chain yields its newest row first"
        );
    }

    #[test]
    fn row_index_five_and_zero_join_columns() {
        let mut wide = keyed_side(5);
        for i in 0..40u32 {
            // Rows differ only in the last column, pairwise equal.
            let row = ids(&[7, 7, 7, 7, i / 2]);
            wide.insert(&row, Score::new(0.0), key_hash(&row, &wide.key_idx));
        }
        assert_eq!(partners_of(&wide, &ids(&[7, 7, 7, 7, 3])), vec![6, 7]);
        assert!(partners_of(&wide, &ids(&[7, 7, 7, 3, 7])).is_empty());

        // No join columns: every stored row is every probe's partner.
        let mut cross = SideState::new(&[Var(0)], &[], &[Var(0)], false);
        for i in 0..20u32 {
            cross.insert(&[TermId(i)], Score::new(0.0), key_hash(&[TermId(i)], &[]));
        }
        let all: Vec<u32> = (0..20).collect();
        assert_eq!(partners_of(&cross, &[TermId(99)]), all);
    }

    /// Pops everything, returning `(score, terms)` rows in pop order.
    fn drain_heap(heap: &mut RowHeap, width: u32) -> Vec<(Score, Vec<TermId>)> {
        let mut out = AnswerBlock::new((0..width).map(Var).collect());
        while heap.peek_score().is_some() {
            heap.pop_into(&mut out);
        }
        (0..out.len())
            .map(|i| (out.score(i), out.row(i).to_vec()))
            .collect()
    }

    #[test]
    fn row_heap_pops_by_score_desc_then_terms_asc() {
        // Four distinct scores over 500 rows (heavy ties), duplicate rows
        // included, from a fixed LCG.
        let mut x = 12345u64;
        let mut next = move |m: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % m) as u32
        };
        let rows: Vec<(Score, Vec<TermId>)> = (0..500)
            .map(|_| {
                (
                    Score::new(f64::from(next(4)) * 0.25),
                    ids(&[next(6), next(50)]),
                )
            })
            .collect();
        let mut heap = RowHeap::new(2);
        for (score, terms) in &rows {
            heap.push_with(*score, |slot| slot.copy_from_slice(terms));
        }
        let mut want = rows;
        want.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        assert_eq!(drain_heap(&mut heap, 2), want);
    }

    #[test]
    fn row_heap_reuses_slots_after_pops() {
        let mut heap = RowHeap::new(1);
        for i in 0..8u32 {
            heap.push_with(Score::new(f64::from(i)), |slot| slot[0] = TermId(i));
        }
        let mut out = AnswerBlock::new(vec![Var(0)]);
        for _ in 0..5 {
            heap.pop_into(&mut out);
        }
        assert_eq!(out.row(0), &[TermId(7)]);
        for i in 10..15u32 {
            heap.push_with(Score::new(f64::from(i)), |slot| slot[0] = TermId(i));
        }
        assert_eq!(heap.arena.len(), 8, "no new slots");
        assert!(heap.free.is_empty());
        let popped: Vec<u32> = drain_heap(&mut heap, 1).iter().map(|r| r.1[0].0).collect();
        assert_eq!(popped, vec![14, 13, 12, 11, 10, 2, 1, 0]);
    }

    #[test]
    fn row_heap_width_zero() {
        let mut heap = RowHeap::new(0);
        for s in [0.5, 1.0, 0.5, 0.75] {
            heap.push_with(Score::new(s), |slot| assert!(slot.is_empty()));
        }
        let scores: Vec<Score> = drain_heap(&mut heap, 0).iter().map(|r| r.0).collect();
        assert_eq!(scores, [1.0, 0.75, 0.5, 0.5].map(Score::new));
        assert_eq!(heap.peek_score(), None);
    }

    #[test]
    fn block_join_equals_the_sorted_join_at_every_block_size() {
        let l: Vec<_> = (0..60)
            .map(|i| ans(&[(0, i % 7), (1, i)], 1.0 - f64::from(i) * 0.01))
            .collect();
        let r: Vec<_> = (0..60)
            .map(|i| ans(&[(0, i % 7), (2, i)], 1.0 - f64::from(i) * 0.013))
            .collect();
        let mut want: Vec<PartialAnswer> = l
            .iter()
            .flat_map(|a| {
                r.iter()
                    .filter(|b| a.binding.get(Var(0)) == b.binding.get(Var(0)))
                    .map(|b| PartialAnswer::new(a.binding.merged(&b.binding), a.score + b.score))
            })
            .collect();
        want.sort_by(|x, y| y.cmp(x));
        for size in [1, 7, 64] {
            let join = BlockRankJoin::new(
                Box::new(block_of(&l, &[0, 1], size)),
                Box::new(block_of(&r, &[0, 2], size)),
                vec![Var(0)],
                OpMetrics::new_handle(),
                size,
            );
            assert_eq!(drain(join), want, "size {size}");
        }
    }

    #[test]
    fn block_join_merges_disjoint_side_vars() {
        let l = vec![ans(&[(0, 1), (1, 100)], 1.0)];
        let r = vec![ans(&[(0, 1), (2, 200)], 0.5)];
        let join = BlockRankJoin::new(
            Box::new(block_of(&l, &[0, 1], 8)),
            Box::new(block_of(&r, &[0, 2], 8)),
            vec![Var(0)],
            OpMetrics::new_handle(),
            8,
        );
        let out = drain(join);
        assert_eq!(out, vec![ans(&[(0, 1), (1, 100), (2, 200)], 1.5)]);
    }

    #[test]
    fn block_join_empty_side() {
        let join = BlockRankJoin::new(
            Box::new(block_of(&[], &[0], 4)),
            Box::new(block_of(&[simple(1, 1.0)], &[0], 4)),
            vec![Var(0)],
            OpMetrics::new_handle(),
            4,
        );
        assert!(drain(join).is_empty());
    }

    #[test]
    fn block_join_cross_product_when_no_join_vars() {
        let l = vec![ans(&[(1, 10)], 1.0), ans(&[(1, 11)], 0.5)];
        let r = vec![ans(&[(2, 20)], 0.9)];
        let join = BlockRankJoin::new(
            Box::new(block_of(&l, &[1], 4)),
            Box::new(block_of(&r, &[2], 4)),
            vec![],
            OpMetrics::new_handle(),
            4,
        );
        let out = drain(join);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].score, Score::new(1.9));
        assert_eq!(out[1].score, Score::new(1.4));
    }

    #[test]
    fn block_join_upper_bound_never_underestimates() {
        let l: Vec<_> = (0..20)
            .map(|i| simple(i % 5, 1.0 - f64::from(i) * 0.04))
            .collect();
        let r: Vec<_> = (0..20)
            .map(|i| simple(i % 5, 1.0 - f64::from(i) * 0.03))
            .collect();
        let mut join = BlockRankJoin::new(
            Box::new(block_of(&l, &[0], 4)),
            Box::new(block_of(&r, &[0], 4)),
            vec![Var(0)],
            OpMetrics::new_handle(),
            4,
        );
        loop {
            let bound = join.upper_bound();
            match join.next_block() {
                Some(b) => {
                    let bound = bound.expect("bound exists while answers remain");
                    assert!(bound >= b.score(0), "{bound:?} < {:?}", b.score(0));
                }
                None => break,
            }
        }
    }

    #[test]
    fn block_merge_keeps_each_binding_once_at_its_max_score() {
        let a = vec![
            ans(&[(0, 7)], 1.0),
            ans(&[(0, 1)], 0.9),
            ans(&[(0, 3)], 0.2),
        ];
        let b = vec![ans(&[(0, 7)], 0.8), ans(&[(0, 2)], 0.5)];
        let want = vec![
            ans(&[(0, 7)], 1.0),
            ans(&[(0, 1)], 0.9),
            ans(&[(0, 2)], 0.5),
            ans(&[(0, 3)], 0.2),
        ];
        for size in [1, 2, 64] {
            let merge = BlockIncrementalMerge::new(
                vec![
                    Box::new(block_of(&a, &[0], size)),
                    Box::new(block_of(&b, &[0], size)),
                ],
                size,
            );
            assert_eq!(drain(merge), want, "size {size}");
        }
    }

    /// Drains a one-variable merge of two overlapping lists over `ids`,
    /// returning what it emitted and its bitset's capacity in words.
    fn merge_ids(ids: &[u32]) -> (Vec<PartialAnswer>, usize) {
        let list = |offset: f64| -> Vec<PartialAnswer> {
            ids.iter()
                .enumerate()
                .map(|(i, &id)| simple(id, offset - i as f64 * 1e-6))
                .collect()
        };
        let mut merge = BlockIncrementalMerge::new(
            vec![
                Box::new(block_of(&list(1.0), &[0], 128)),
                Box::new(block_of(&list(0.5), &[0], 128)),
            ],
            128,
        );
        let mut out = Vec::new();
        while let Some(b) = merge.next_block() {
            out.extend(b.to_answers());
        }
        let SeenRows::Ids { bits, .. } = &merge.seen else {
            panic!("a one-variable merge dedups in a bitset");
        };
        (out, bits.capacity())
    }

    #[test]
    fn one_variable_merge_sizes_its_bitset_to_the_largest_id() {
        const N: u32 = 10_000;
        let needed = N.div_ceil(64) as usize;
        // Largest id first (one allocation) or last (grown as ids rise):
        // either way at most twice the words the ids need.
        for ids in [(0..N).rev().collect::<Vec<u32>>(), (0..N).collect()] {
            let (out, words) = merge_ids(&ids);
            assert_eq!(out.len(), N as usize, "each id once");
            assert!(out.iter().all(|a| a.score > Score::new(0.5)), "at its max");
            assert!(
                (needed..=2 * needed).contains(&words),
                "{words} words for ids below {N}"
            );
        }
    }

    #[test]
    fn one_variable_merge_keeps_huge_ids_out_of_its_bitset() {
        let ids = [
            3,
            BITSET_IDS - 1,
            BITSET_IDS,
            BITSET_IDS + 1,
            u32::MAX - 1,
            u32::MAX,
        ];
        let (out, words) = merge_ids(&ids[2..]);
        assert_eq!(out.len(), 4, "each id once");
        assert_eq!(words, 0, "ids past the cap never touch the bitset");
        let (out, words) = merge_ids(&ids);
        let got: Vec<u32> = out
            .iter()
            .map(|a| a.binding.get(Var(0)).unwrap().0)
            .collect();
        assert_eq!(got, ids);
        assert_eq!(
            words,
            (BITSET_IDS / 64) as usize,
            "one below the cap fills it"
        );
    }

    #[test]
    fn block_merge_empty_inputs() {
        let mut m = BlockIncrementalMerge::new(vec![], 4);
        assert!(m.next_block().is_none());
        assert_eq!(m.upper_bound(), None);
        let mut m2 = BlockIncrementalMerge::new(
            vec![
                Box::new(block_of(&[], &[0], 4)) as BoxedBlockStream<'static>,
                Box::new(block_of(&[], &[0], 4)),
            ],
            4,
        );
        assert!(m2.next_block().is_none());
    }

    /// Two long lists that join only at their very ends: with no floor the
    /// join reads both to the bottom before it can emit; told that only
    /// scores `≥ 1.9` count, it stops as soon as its corner bound is under
    /// that — and says so by ending, though its inputs are not exhausted.
    #[test]
    fn floored_join_ends_itself_without_draining_its_inputs() {
        let side = |offset: u32| -> Vec<PartialAnswer> {
            (0..1000)
                .map(|i| simple(i + offset, 1.0 - f64::from(i) * 0.001))
                .collect()
        };
        // Keys 0..1000 against 999..1999: one shared key, the left's last row.
        let (l, r) = (side(0), side(999));
        let run = |floor: Option<Score>| {
            let metrics = OpMetrics::new_handle();
            let mut join = BlockRankJoin::new(
                Box::new(block_of(&l, &[0], 16)),
                Box::new(block_of(&r, &[0], 16)),
                vec![Var(0)],
                metrics.clone(),
                16,
            );
            let got = crate::block::top_k_blocks_floored(&mut join, 5, floor);
            (got, metrics.join_pulls(), join.upper_bound())
        };
        let (all, read_all, _) = run(None);
        assert_eq!(all.len(), 1, "the one join result sits at the bottom");
        assert!(read_all >= 1000);
        let (none, read_floored, bound) = run(Some(Score::new(1.9)));
        assert!(none.is_empty());
        assert!(
            read_floored < read_all / 4,
            "{read_floored} of {read_all} rows read"
        );
        assert!(
            bound.is_some_and(|b| b < Score::new(1.9)),
            "ended by the floor, not by exhaustion: {bound:?}"
        );
    }

    #[test]
    fn scans_merges_and_joins_of_them_declare_distinct() {
        let mut b = kgstore::KnowledgeGraphBuilder::new();
        b.add("a", "type", "singer", 1.0);
        b.add("a", "type", "actor", 1.0);
        b.add("a", "knows", "b", 1.0);
        let g = b.build();
        let d = g.dictionary();
        let id = |name: &str| d.lookup(name).unwrap();
        let scan = |o: sparql::Term| -> BoxedBlockStream<'_> {
            let pattern = sparql::TriplePattern::new(Var(0), id("type"), o);
            Box::new(crate::BlockScan::new(
                &g,
                pattern,
                Score::ONE,
                OpMetrics::new_handle(),
                4,
            ))
        };
        let join = |l, r| BlockRankJoin::new(l, r, vec![Var(0)], OpMetrics::new_handle(), 4);
        let replay = || -> BoxedBlockStream<'_> { Box::new(block_of(&[simple(1, 1.0)], &[0], 4)) };
        let singer = || scan(id("singer").into());

        assert!(singer().distinct());
        assert!(BlockIncrementalMerge::new(vec![singer(), scan(id("actor").into())], 4).distinct());
        // `?0 type singer` binds only the join key; `?0 type ?1` does not.
        let keyed = join(singer(), scan(Var(1).into()));
        assert!(keyed.distinct());
        assert!(keyed.lstate.keys_once && !keyed.rstate.keys_once);

        assert!(!replay().distinct());
        let plain = join(singer(), replay());
        assert!(!plain.distinct());
        assert!(plain.lstate.keys_once && !plain.rstate.keys_once);
        let rows = vec![simple(1, 1.0)];
        let declared = ReplayBlocks::new_distinct(rows, vec![Var(0)], 4);
        assert!(declared.distinct());
        assert!(join(singer(), Box::new(declared)).distinct());
    }

    /// Equal keys in equal order on both sides: result `i` scores
    /// `2 - 0.002 i`. The corner bound emits it once both sides have read
    /// to about depth `2i`; once each side has produced every key the
    /// other has shown, the keys-once bound is `cur(L) + cur(R)` and emits
    /// it at depth `i + 1`.
    #[test]
    fn keys_once_bound_reads_less_than_the_corner_bound() {
        let rows: Vec<_> = (0..100)
            .map(|i| simple(i, 1.0 - f64::from(i) * 0.001))
            .collect();
        let run = |declared: bool| {
            let side = || -> BoxedBlockStream<'static> {
                if declared {
                    Box::new(ReplayBlocks::new_distinct(rows.clone(), vec![Var(0)], 1))
                } else {
                    Box::new(block_of(&rows, &[0], 1))
                }
            };
            let metrics = OpMetrics::new_handle();
            let mut join = BlockRankJoin::new(side(), side(), vec![Var(0)], metrics.clone(), 1);
            (top_k_blocks(&mut join, 5), metrics.join_pulls())
        };
        let ((corner, corner_pulls), (keys_once, keys_once_pulls)) = (run(false), run(true));
        assert_eq!(keys_once, corner);
        assert_eq!(corner.last().map(|a| a.score), Some(Score::new(1.992)));
        assert!(
            keys_once_pulls + 6 <= corner_pulls,
            "{keys_once_pulls} pulls under the keys-once bound, {corner_pulls} under the corner bound"
        );
    }

    #[test]
    fn block_top_k_over_join() {
        let l: Vec<_> = (0..100)
            .map(|i| simple(i, 1.0 - f64::from(i) * 0.005))
            .collect();
        let r: Vec<_> = (0..100)
            .map(|i| simple(i, 1.0 - f64::from(i) * 0.005))
            .collect();
        let mut join = BlockRankJoin::new(
            Box::new(block_of(&l, &[0], 16)),
            Box::new(block_of(&r, &[0], 16)),
            vec![Var(0)],
            OpMetrics::new_handle(),
            16,
        );
        let top = top_k_blocks(&mut join, 3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].score, Score::new(2.0));
        for w in top.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
