//! Block-at-a-time (vectorized) execution primitives.
//!
//! The row-at-a-time operator stack ([`RankedStream`]) pays a virtual
//! dispatch, a `Binding` allocation and a per-pair sort for every single
//! tuple it moves. Over the columnar store that overhead dominates: the
//! storage layer can hand out thousands of `(s, p, o, score)` rows with four
//! memcpys, but the operators consume them one `PartialAnswer` at a time.
//!
//! This module is the batched alternative:
//!
//! * [`Block`] — a batch of raw triples as parallel `s`/`p`/`o`/`score`
//!   columns, filled straight from [`kgstore::TripleColumns`] ranges
//!   ([`kgstore::TripleColumns::gather_into`]);
//! * [`AnswerBlock`] — a batch of partial answers sharing one variable
//!   *schema*, so a row is a flat `&[TermId]` slice instead of a sorted
//!   `Vec<(Var, TermId)>` per answer;
//! * [`BlockStream`] — the pull interface between block operators
//!   (the batched sibling of [`RankedStream`]);
//! * [`RowsToBlocks`] — adapter that packs any row stream into blocks, used
//!   for sources that have no native block implementation (chain-relaxation
//!   subtrees);
//! * [`top_k_blocks`] — result collection, converting only the `k` winning
//!   rows back into [`PartialAnswer`]s;
//! * [`ExecutionMode`] — the engine-level knob selecting block execution
//!   (the default) or the row reference (`SPECQP_EXEC=row|block|block:N`
//!   flips whole test suites).
//!
//! Both paths produce **identical answers in identical order with identical
//! scores** (same normalization/weighting expressions, same commutative
//! score sums, same total tie-break order); the differential harness in
//! `tests/diff_exec.rs` locks that equivalence in.
//!
//! [`RankedStream`]: crate::RankedStream

use crate::answer::{Binding, PartialAnswer};
use crate::stream::RankedStream;
use kgstore::{MatchList, Triple};
use sparql::Var;
use specqp_common::{Score, TermId};

/// Block size used when [`ExecutionMode::Block`] is selected without an
/// explicit size (and by `SPECQP_EXEC=block`). 128 sits at the sweet spot
/// measured on the seeded XKG probe workload: big enough to amortize
/// per-block overhead, small enough that strict-threshold tie plateaus
/// don't drag in whole oversized batches.
pub const DEFAULT_BLOCK_SIZE: usize = 128;

/// How the engine executes plans: the vectorized block pipeline (the
/// default, and the path the benchmark measures) or the classic
/// tuple-at-a-time operator tree kept as the reference implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionMode {
    /// One [`PartialAnswer`] per operator call (reference path).
    RowAtATime,
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
    /// Reads the mode from the `SPECQP_EXEC` environment variable: `block`
    /// (or unset) selects [`ExecutionMode::Block`] with
    /// [`DEFAULT_BLOCK_SIZE`]; `block:N` (or `block=N`) selects an explicit
    /// block size; `row` selects the [`ExecutionMode::RowAtATime`]
    /// reference path. CI runs the whole workspace test suite once per
    /// setting.
    ///
    /// # Panics
    /// Panics when the variable is set to something unparsable — a typo in
    /// a CI matrix (`blocks`, `block:12b8`, …) must fail loudly, not
    /// silently re-run the row suite with the block gate green.
    pub fn from_env() -> Self {
        match std::env::var("SPECQP_EXEC") {
            Ok(v) => Self::parse(&v).unwrap_or_else(|| {
                panic!(
                    "SPECQP_EXEC={v:?} is not a valid execution mode \
                     (expected row | block | block:N)"
                )
            }),
            Err(_) => ExecutionMode::default(),
        }
    }

    /// Parses `row`, `block`, `block:N` or `block=N`.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("row") {
            return Some(ExecutionMode::RowAtATime);
        }
        if s.eq_ignore_ascii_case("block") {
            return Some(ExecutionMode::Block(DEFAULT_BLOCK_SIZE));
        }
        let rest = s
            .strip_prefix("block:")
            .or_else(|| s.strip_prefix("block="))?;
        let n: usize = rest.parse().ok()?;
        if n == 0 {
            None
        } else {
            Some(ExecutionMode::Block(n))
        }
    }

    /// The configured block size (`None` in row mode).
    pub fn block_size(self) -> Option<usize> {
        match self {
            ExecutionMode::RowAtATime => None,
            ExecutionMode::Block(n) => Some(n.max(1)),
        }
    }
}

/// A batch of scored triples as four parallel columns — the unit a
/// [`BlockScan`](crate::BlockScan) gathers from the store's
/// [`TripleColumns`](kgstore::TripleColumns) before normalizing scores and
/// projecting variable positions into an [`AnswerBlock`].
///
/// ```
/// use operators::Block;
/// use kgstore::Triple;
/// use specqp_common::{Score, TermId};
///
/// let mut b = Block::new();
/// b.push(Triple::new(TermId(1), TermId(2), TermId(3)), Score::new(0.9));
/// b.push(Triple::new(TermId(4), TermId(2), TermId(5)), Score::new(0.4));
/// assert_eq!(b.len(), 2);
/// assert_eq!(b.s[1], TermId(4));
/// assert_eq!(b.score[0], Score::new(0.9));
/// b.clear();
/// assert!(b.is_empty());
/// ```
#[derive(Debug, Default, Clone)]
pub struct Block {
    /// Subject column.
    pub s: Vec<TermId>,
    /// Predicate column.
    pub p: Vec<TermId>,
    /// Object column.
    pub o: Vec<TermId>,
    /// Raw score column (normalization happens when the block is projected
    /// into an [`AnswerBlock`]).
    pub score: Vec<Score>,
}

impl Block {
    /// An empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty block with capacity for `n` rows in every column.
    pub fn with_capacity(n: usize) -> Self {
        Block {
            s: Vec::with_capacity(n),
            p: Vec::with_capacity(n),
            o: Vec::with_capacity(n),
            score: Vec::with_capacity(n),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.score.len()
    }

    /// `true` when the block holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.score.is_empty()
    }

    /// Removes all rows, keeping the column allocations.
    pub fn clear(&mut self) {
        self.s.clear();
        self.p.clear();
        self.o.clear();
        self.score.clear();
    }

    /// Appends one row.
    #[inline]
    pub fn push(&mut self, t: Triple, score: Score) {
        self.s.push(t.s);
        self.p.push(t.p);
        self.o.push(t.o);
        self.score.push(score);
    }

    /// Appends the matches of `list` at `ranks` via one column-wise gather
    /// through [`kgstore::KnowledgeGraph::gather_into`] (which dispatches
    /// each id to the base columns or the live-write overlay).
    pub fn fill_from(&mut self, list: &MatchList<'_>, ranks: std::ops::Range<usize>) {
        let ids = &list.ids()[ranks];
        list.graph()
            .gather_into(ids, &mut self.s, &mut self.p, &mut self.o, &mut self.score);
    }
}

/// A batch of partial answers sharing one variable schema.
///
/// `vars` is sorted and duplicate-free; row `i` occupies
/// `terms[i*width .. (i+1)*width]` with `terms[i*width + j]` bound to
/// `vars[j]`. Because [`Binding`] also keeps its pairs sorted by variable,
/// comparing two same-schema rows as term slices is exactly the row path's
/// binding tie-break order — which is what keeps the two executors'
/// output orders identical.
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

    /// Row `i` as a row-path [`PartialAnswer`] (allocates — used only at
    /// the top-k boundary and in tests).
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
/// (across and within blocks) — the batched sibling of
/// [`RankedStream`], with the same bound contract.
///
/// # Contract
/// * every block's rows are in non-increasing score order, and the first
///   row of a block scores no higher than the last row of the previous
///   block;
/// * `upper_bound()` is `None` iff exhausted, otherwise ≥ every future
///   score, and never advances the stream;
/// * `schema()` is constant over the stream's lifetime; every emitted block
///   uses exactly that schema.
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

/// Packs any [`RankedStream`] into blocks over a fixed
/// schema. Used for sources with no native block implementation — the
/// chain-relaxation subtrees, whose scaled/projected row streams are reused
/// verbatim (so both executors compute chain scores identically).
///
/// # Panics
/// Panics if a pulled answer does not bind every schema variable.
pub struct RowsToBlocks<'g> {
    inner: Box<dyn RankedStream + 'g>,
    vars: Vec<Var>,
    sizer: BlockSizer,
}

impl<'g> RowsToBlocks<'g> {
    /// Wraps `inner`, emitting blocks of up to `block_size` rows over the
    /// sorted schema `vars`.
    pub fn new(inner: Box<dyn RankedStream + 'g>, mut vars: Vec<Var>, block_size: usize) -> Self {
        vars.sort_unstable();
        vars.dedup();
        RowsToBlocks {
            inner,
            vars,
            sizer: BlockSizer::new(block_size),
        }
    }
}

impl BlockStream for RowsToBlocks<'_> {
    fn schema(&self) -> &[Var] {
        &self.vars
    }

    fn next_block(&mut self) -> Option<AnswerBlock> {
        let n = self.sizer.take();
        let mut out = AnswerBlock::with_capacity(self.vars.clone(), n);
        while out.len() < n {
            let Some(a) = self.inner.next() else { break };
            let vars = &self.vars;
            out.push_row_with(a.score, |slot| {
                for (j, &v) in vars.iter().enumerate() {
                    slot[j] = a
                        .binding
                        .get(v)
                        .expect("row stream must bind every schema variable");
                }
            });
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    fn upper_bound(&self) -> Option<Score> {
        self.inner.upper_bound()
    }
}

/// Collects the top-`k` answers out of a block stream under the canonical
/// total order (score desc, binding asc), converting only the winning rows
/// into [`PartialAnswer`]s. Mirrors [`top_k`](crate::top_k): after `k`
/// answers the stream has reached the score floor, and rows tied at the
/// floor are drained so the boundary is resolved by binding rather than by
/// incidental stream position — the block executor returns exactly what the
/// row executor and the morsel-parallel merge return.
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
    let mut out = Vec::with_capacity(k);
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
    use crate::stream::VecStream;

    fn ans(pairs: &[(u32, u32)], s: f64) -> PartialAnswer {
        PartialAnswer::new(
            Binding::from_pairs(pairs.iter().map(|&(v, t)| (Var(v), TermId(t))).collect()),
            Score::new(s),
        )
    }

    #[test]
    fn execution_mode_parsing() {
        assert_eq!(ExecutionMode::parse("row"), Some(ExecutionMode::RowAtATime));
        assert_eq!(
            ExecutionMode::parse("block"),
            Some(ExecutionMode::Block(DEFAULT_BLOCK_SIZE))
        );
        assert_eq!(
            ExecutionMode::parse("block:64"),
            Some(ExecutionMode::Block(64))
        );
        assert_eq!(
            ExecutionMode::parse("block=7"),
            Some(ExecutionMode::Block(7))
        );
        assert_eq!(ExecutionMode::parse("block:0"), None);
        assert_eq!(ExecutionMode::parse("speculative"), None);
        assert_eq!(ExecutionMode::RowAtATime.block_size(), None);
        assert_eq!(ExecutionMode::Block(9).block_size(), Some(9));
        assert_eq!(
            ExecutionMode::default(),
            ExecutionMode::Block(DEFAULT_BLOCK_SIZE),
            "unset means block; only SPECQP_EXEC=row selects the reference"
        );
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
    fn rows_to_blocks_packs_and_ramps() {
        let rows: Vec<PartialAnswer> = (0..100)
            .map(|i| ans(&[(0, i), (1, i + 1000)], 1.0 - f64::from(i) * 0.001))
            .collect();
        let mut s = RowsToBlocks::new(
            Box::new(VecStream::new(rows.clone())),
            vec![Var(1), Var(0)],
            64,
        );
        assert_eq!(s.schema(), &[Var(0), Var(1)]);
        assert_eq!(s.upper_bound(), Some(Score::new(1.0)));
        let b1 = s.next_block().unwrap();
        assert_eq!(b1.len(), 32, "first block uses the ramped size");
        let b2 = s.next_block().unwrap();
        assert_eq!(b2.len(), 64);
        let mut got: Vec<PartialAnswer> = b1.to_answers();
        got.extend(b2.to_answers());
        while let Some(b) = s.next_block() {
            got.extend(b.to_answers());
        }
        assert_eq!(got, rows);
        assert_eq!(s.upper_bound(), None);
    }

    #[test]
    fn top_k_blocks_truncates_mid_block() {
        let rows: Vec<PartialAnswer> = (0..10)
            .map(|i| ans(&[(0, i)], 1.0 - f64::from(i) * 0.05))
            .collect();
        let mut s = RowsToBlocks::new(Box::new(VecStream::new(rows.clone())), vec![Var(0)], 4);
        let got = top_k_blocks(&mut s, 3);
        assert_eq!(got, rows[..3].to_vec());
        let mut s2 = RowsToBlocks::new(Box::new(VecStream::new(rows.clone())), vec![Var(0)], 4);
        assert_eq!(top_k_blocks(&mut s2, 99), rows);
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
