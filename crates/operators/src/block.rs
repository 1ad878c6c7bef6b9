//! The block-at-a-time execution primitives every operator builds on.
//!
//! Over the columnar store, a per-tuple operator would pay a virtual
//! dispatch, a `Binding` allocation and a per-pair sort for every tuple it
//! moves, while a scan can copy a whole batch of matches one column at a
//! time. So operators move batches:
//!
//! * [`AnswerBlock`] — a batch of partial answers sharing one variable
//!   *schema*, so a row is a flat `&[TermId]` slice instead of a sorted
//!   `Vec<(Var, TermId)>` per answer;
//! * [`BlockStream`] — the pull interface between operators;
//! * [`ReplayBlocks`] — replays a sorted answer list as blocks (the input
//!   source of operator tests);
//! * [`top_k_blocks`] — result collection, converting only the `k` winning
//!   rows back into [`PartialAnswer`]s;
//! * [`ExecutionMode`] — the engine's block-size setting.

use crate::answer::{Binding, PartialAnswer};
use sparql::Var;
use specqp_common::{Score, TermId};

/// Block size used when [`ExecutionMode`] is left at its default. 128 sits
/// at the sweet spot measured on the seeded XKG probe workload: big enough
/// to amortize per-block overhead, small enough that strict-threshold tie
/// plateaus don't drag in whole oversized batches.
pub const DEFAULT_BLOCK_SIZE: usize = 128;

/// How the engine executes plans: batches of up to `size` answers per
/// operator call ([`DEFAULT_BLOCK_SIZE`] by default). Every size returns the
/// same answers in the same order with the same scores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Batches of up to `size` answers per operator call.
    Block(usize),
}

impl Default for ExecutionMode {
    /// [`ExecutionMode::Block`] with [`DEFAULT_BLOCK_SIZE`].
    fn default() -> Self {
        ExecutionMode::Block(DEFAULT_BLOCK_SIZE)
    }
}

impl ExecutionMode {
    /// The configured block size (at least 1).
    pub fn block_size(self) -> usize {
        let ExecutionMode::Block(n) = self;
        n.max(1)
    }
}

/// A batch of partial answers sharing one variable schema.
///
/// `vars` is sorted and duplicate-free; row `i` occupies
/// `terms[i*width .. (i+1)*width]` with `terms[i*width + j]` bound to
/// `vars[j]`. Because [`Binding`] also keeps its pairs sorted by variable,
/// comparing two same-schema rows as term slices is exactly
/// [`PartialAnswer`]'s binding tie-break order — so every block size emits
/// one canonical order.
#[derive(Debug, Clone)]
pub struct AnswerBlock {
    vars: Vec<Var>,
    terms: Vec<TermId>,
    scores: Vec<Score>,
}

impl AnswerBlock {
    /// An empty block over `vars` (must be sorted and duplicate-free).
    pub fn new(vars: Vec<Var>) -> Self {
        debug_assert!(
            vars.windows(2).all(|w| w[0] < w[1]),
            "schema must be sorted"
        );
        AnswerBlock {
            vars,
            terms: Vec::new(),
            scores: Vec::new(),
        }
    }

    /// An empty block over `vars` with room for `rows` rows.
    pub fn with_capacity(vars: Vec<Var>, rows: usize) -> Self {
        let width = vars.len();
        debug_assert!(
            vars.windows(2).all(|w| w[0] < w[1]),
            "schema must be sorted"
        );
        AnswerBlock {
            vars,
            terms: Vec::with_capacity(rows * width),
            scores: Vec::with_capacity(rows),
        }
    }

    /// The variable schema shared by every row.
    #[inline]
    pub fn schema(&self) -> &[Var] {
        &self.vars
    }

    /// Terms per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.vars.len()
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// `true` when the block holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The term slice of row `i`, in schema order.
    #[inline]
    pub fn row(&self, i: usize) -> &[TermId] {
        let w = self.width();
        &self.terms[i * w..(i + 1) * w]
    }

    /// The score of row `i`.
    #[inline]
    pub fn score(&self, i: usize) -> Score {
        self.scores[i]
    }

    /// Appends a row (`terms` must match the schema width and order).
    #[inline]
    pub fn push_row(&mut self, terms: &[TermId], score: Score) {
        debug_assert_eq!(terms.len(), self.width());
        self.terms.extend_from_slice(terms);
        self.scores.push(score);
    }

    /// Reserves one uninitialized row and returns `(terms, score slot)` for
    /// in-place construction (join output assembly).
    pub fn push_row_with(&mut self, score: Score, fill: impl FnOnce(&mut [TermId])) {
        let w = self.width();
        let at = self.terms.len();
        self.terms.resize(at + w, TermId(0));
        fill(&mut self.terms[at..at + w]);
        self.scores.push(score);
    }

    /// Columnar append access for same-crate fast paths (scan fills): the
    /// caller must push exactly `width` terms per score.
    #[inline]
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<TermId>, &mut Vec<Score>) {
        (&mut self.terms, &mut self.scores)
    }

    /// Row `i` as a [`PartialAnswer`] (allocates — used only at the top-k
    /// boundary and in tests).
    pub fn answer(&self, i: usize) -> PartialAnswer {
        let pairs = self
            .vars
            .iter()
            .copied()
            .zip(self.row(i).iter().copied())
            .collect();
        PartialAnswer::new(Binding::from_pairs(pairs), self.score(i))
    }

    /// All rows as [`PartialAnswer`]s.
    pub fn to_answers(&self) -> Vec<PartialAnswer> {
        (0..self.len()).map(|i| self.answer(i)).collect()
    }
}

/// A pull-based stream of [`AnswerBlock`]s in non-increasing score order
/// (across and within blocks) that can bound the score of everything it
/// has not yet produced: once a consumer holds `k` answers scoring at least
/// `upper_bound()`, no future row can displace them.
///
/// # Contract
/// * every block's rows are in non-increasing score order, and the first
///   row of a block scores no higher than the last row of the previous
///   block;
/// * `upper_bound()` is `None` iff exhausted, otherwise ≥ every future
///   score, and never advances the stream;
/// * `schema()` is constant over the stream's lifetime; every emitted block
///   uses exactly that schema;
/// * when `distinct()` is `true`, no two rows the stream emits bind the same
///   terms.
pub trait BlockStream {
    /// The variable schema of every emitted block.
    fn schema(&self) -> &[Var];

    /// Produces the next non-empty batch, or `None` when exhausted.
    fn next_block(&mut self) -> Option<AnswerBlock>;

    /// Upper bound on all future answer scores (see trait docs).
    fn upper_bound(&self) -> Option<Score>;

    /// Tells the stream that its consumer keeps only rows scoring
    /// `≥ floor`. A stream that can spend unbounded work inside one
    /// [`next_block`](BlockStream::next_block) call before it emits
    /// ([`BlockRankJoin`](crate::BlockRankJoin)) ends itself — returns
    /// `None` — as soon as nothing at or above the floor can follow; for
    /// every other stream the consumer's own `upper_bound()` check between
    /// pulls is just as tight, so the default ignores the hint. Rows below
    /// the floor may still be emitted; the consumer drops them.
    fn set_floor(&mut self, _floor: Score) {}

    /// `true` when the stream emits each binding at most once (see the
    /// contract). A rank join reads it to tighten its bound; the default
    /// claims nothing.
    fn distinct(&self) -> bool {
        false
    }
}

/// Boxed block-operator node borrowing a graph for `'g`.
pub type BoxedBlockStream<'g> = Box<dyn BlockStream + 'g>;

impl BlockStream for BoxedBlockStream<'_> {
    fn schema(&self) -> &[Var] {
        (**self).schema()
    }
    fn next_block(&mut self) -> Option<AnswerBlock> {
        (**self).next_block()
    }
    fn upper_bound(&self) -> Option<Score> {
        (**self).upper_bound()
    }
    fn set_floor(&mut self, floor: Score) {
        (**self).set_floor(floor)
    }
    fn distinct(&self) -> bool {
        (**self).distinct()
    }
}

/// Emitted-block-size ramp: operators start with small blocks (cheap when a
/// top-k consumer stops after a handful of rows) and double up to the
/// configured size, so deep pipelines don't overshoot `k` by a full block
/// per tier.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockSizer {
    next: usize,
    max: usize,
}

impl BlockSizer {
    pub(crate) fn new(block_size: usize) -> Self {
        let max = block_size.max(1);
        BlockSizer {
            next: max.min(32),
            max,
        }
    }

    /// The size to use for the next emitted block (doubles per call).
    pub(crate) fn take(&mut self) -> usize {
        let n = self.next;
        self.next = (self.next * 2).min(self.max);
        n
    }
}

/// Replays an answer list sorted by non-increasing score as blocks of up to
/// `block_size` rows over a fixed schema — the input source of operator
/// tests. It is [`distinct`](BlockStream::distinct) only when built by
/// [`ReplayBlocks::new_distinct`].
///
/// # Panics
/// Panics if an answer does not bind every schema variable.
#[derive(Debug, Clone)]
pub struct ReplayBlocks {
    schema: Vec<Var>,
    rows: std::vec::IntoIter<PartialAnswer>,
    block_size: usize,
    distinct: bool,
}

impl ReplayBlocks {
    /// Replays `rows` over the schema `vars` (sorted here).
    pub fn new(rows: Vec<PartialAnswer>, mut vars: Vec<Var>, block_size: usize) -> Self {
        debug_assert!(
            rows.windows(2).all(|w| w[0].score >= w[1].score),
            "replayed rows must be sorted by non-increasing score"
        );
        vars.sort_unstable();
        vars.dedup();
        ReplayBlocks {
            schema: vars,
            rows: rows.into_iter(),
            block_size: block_size.max(1),
            distinct: false,
        }
    }

    /// [`ReplayBlocks::new`] over rows the caller asserts pairwise distinct
    /// (checked in debug builds), so the stream says
    /// [`distinct`](BlockStream::distinct).
    pub fn new_distinct(rows: Vec<PartialAnswer>, vars: Vec<Var>, block_size: usize) -> Self {
        let replay = ReplayBlocks {
            distinct: true,
            ..ReplayBlocks::new(rows, vars, block_size)
        };
        if cfg!(debug_assertions) {
            let rows = replay.rows.as_slice();
            let keys: std::collections::HashSet<_> = rows
                .iter()
                .map(|a| a.binding.key_for(&replay.schema))
                .collect();
            assert_eq!(
                keys.len(),
                rows.len(),
                "rows declared distinct repeat a row"
            );
        }
        replay
    }
}

impl BlockStream for ReplayBlocks {
    fn schema(&self) -> &[Var] {
        &self.schema
    }

    fn next_block(&mut self) -> Option<AnswerBlock> {
        if self.rows.as_slice().is_empty() {
            return None;
        }
        let mut out = AnswerBlock::with_capacity(self.schema.clone(), self.block_size);
        for a in self.rows.by_ref().take(self.block_size) {
            out.push_row_with(a.score, |slot| {
                for (term, &v) in slot.iter_mut().zip(&self.schema) {
                    *term = a
                        .binding
                        .get(v)
                        .expect("a replayed answer binds every schema variable");
                }
            });
        }
        Some(out)
    }

    fn upper_bound(&self) -> Option<Score> {
        self.rows.as_slice().first().map(|a| a.score)
    }

    fn distinct(&self) -> bool {
        self.distinct
    }
}

/// Collects the top-`k` answers out of a block stream under the canonical
/// total order (score desc, binding asc), converting only the winning rows
/// into [`PartialAnswer`]s. After `k` answers the stream has reached the
/// score floor, and rows tied at the floor are drained so the boundary is
/// resolved by binding rather than by incidental stream position — every
/// block size returns the same answers in the same order. The
/// early-termination logic lives inside the operators, which only consume
/// as much of their inputs as the bounds require.
pub fn top_k_blocks<S: BlockStream + ?Sized>(stream: &mut S, k: usize) -> Vec<PartialAnswer> {
    top_k_blocks_floored(stream, k, None)
}

/// [`top_k_blocks`] restricted to rows scoring `≥ floor`: exactly the
/// unbounded top-`k` with the rows below the floor dropped, but the stream
/// is told the floor ([`BlockStream::set_floor`]) and is pulled only while
/// its `upper_bound()` still reaches it — so a run whose answers all fall
/// short reads no further than its bounds require, where the unbounded run
/// would drain `k` rows first. `None` is no floor.
pub fn top_k_blocks_floored<S: BlockStream + ?Sized>(
    stream: &mut S,
    k: usize,
    floor: Option<Score>,
) -> Vec<PartialAnswer> {
    // `k` may come off the wire: reserve for what a run plausibly returns,
    // not for what was asked.
    let mut out = Vec::with_capacity(k.min(DEFAULT_BLOCK_SIZE));
    if k == 0 {
        return out;
    }
    if let Some(floor) = floor {
        stream.set_floor(floor);
    }
    let below = |score: Score| floor.is_some_and(|f| score < f);
    'stream: loop {
        if floor.is_some() && stream.upper_bound().is_none_or(below) {
            break;
        }
        let Some(block) = stream.next_block() else {
            break;
        };
        for i in 0..block.len() {
            let score = block.score(i);
            if below(score) || (out.len() >= k && score != out[k - 1].score) {
                break 'stream;
            }
            out.push(block.answer(i));
        }
    }
    out.sort_by(|a, b| b.cmp(a));
    out.truncate(k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ans(pairs: &[(u32, u32)], s: f64) -> PartialAnswer {
        PartialAnswer::new(
            Binding::from_pairs(pairs.iter().map(|&(v, t)| (Var(v), TermId(t))).collect()),
            Score::new(s),
        )
    }

    fn drain<S: BlockStream + ?Sized>(s: &mut S) -> Vec<PartialAnswer> {
        let mut out = Vec::new();
        while let Some(b) = s.next_block() {
            out.extend(b.to_answers());
        }
        out
    }

    #[test]
    fn execution_mode_defaults_to_the_default_block_size() {
        assert_eq!(
            ExecutionMode::default(),
            ExecutionMode::Block(DEFAULT_BLOCK_SIZE)
        );
        assert_eq!(ExecutionMode::Block(9).block_size(), 9);
        assert_eq!(ExecutionMode::Block(0).block_size(), 1);
    }

    #[test]
    fn answer_block_rows_round_trip() {
        let mut b = AnswerBlock::new(vec![Var(0), Var(2)]);
        b.push_row(&[TermId(1), TermId(5)], Score::new(0.9));
        b.push_row(&[TermId(2), TermId(6)], Score::new(0.4));
        assert_eq!(b.len(), 2);
        assert_eq!(b.width(), 2);
        assert_eq!(b.row(1), &[TermId(2), TermId(6)]);
        let a = b.answer(0);
        assert_eq!(a, ans(&[(0, 1), (2, 5)], 0.9));
        assert_eq!(b.to_answers().len(), 2);
    }

    #[test]
    fn replay_blocks_packs_in_order() {
        let rows: Vec<PartialAnswer> = (0..100)
            .map(|i| ans(&[(0, i), (1, i + 1000)], 1.0 - f64::from(i) * 0.001))
            .collect();
        let mut s = ReplayBlocks::new(rows.clone(), vec![Var(1), Var(0)], 64);
        assert_eq!(s.schema(), &[Var(0), Var(1)]);
        assert_eq!(s.upper_bound(), Some(Score::new(1.0)));
        let b1 = s.next_block().unwrap();
        assert_eq!(b1.len(), 64);
        assert_eq!(s.upper_bound(), Some(rows[64].score));
        let mut got = b1.to_answers();
        got.extend(drain(&mut s));
        assert_eq!(got, rows);
        assert_eq!(s.upper_bound(), None);
    }

    #[test]
    fn top_k_blocks_truncates_mid_block() {
        let rows: Vec<PartialAnswer> = (0..10)
            .map(|i| ans(&[(0, i)], 1.0 - f64::from(i) * 0.05))
            .collect();
        let replay = || ReplayBlocks::new(rows.clone(), vec![Var(0)], 4);
        assert_eq!(top_k_blocks(&mut replay(), 3), rows[..3].to_vec());
        assert_eq!(top_k_blocks(&mut replay(), 99), rows);
    }

    #[test]
    fn block_sizer_ramps_to_max() {
        let mut z = BlockSizer::new(256);
        assert_eq!(z.take(), 32);
        assert_eq!(z.take(), 64);
        assert_eq!(z.take(), 128);
        assert_eq!(z.take(), 256);
        assert_eq!(z.take(), 256);
        let mut one = BlockSizer::new(1);
        assert_eq!(one.take(), 1);
        assert_eq!(one.take(), 1);
    }
}
