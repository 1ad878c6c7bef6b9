//! The sorted scan of one triple pattern's match list ([`BlockScan`]).

use crate::block::{AnswerBlock, BlockSizer, BlockStream};
use crate::metrics::MetricsHandle;
use kgstore::{KnowledgeGraph, MatchList, PatternKey, Triple, TripleScore};
use sparql::{PatternShape, Term, TriplePattern, Var};
use specqp_common::{Score, TermId};
use std::ops::Range;

/// Streams the matches of one triple pattern in descending score order as
/// [`AnswerBlock`] batches, binding the pattern's variables and emitting
/// **normalized, weighted** scores:
///
/// * normalization per Def. 5 — each score is divided by the best score in
///   this pattern's own match list, so the head of the stream is 1.0;
/// * the `weight` factor implements Def. 8 — a relaxed pattern's stream is
///   scaled by its rule weight `w`, so its head is exactly `w` (this is the
///   property PLANGEN exploits: "the top score from each relaxation is equal
///   to its weight").
///
/// Patterns with a repeated variable (e.g. `?x p ?x`) are filtered to
/// matches where the repeated positions agree, and the normalizer is the
/// best score among the *filtered* matches.
///
/// A block is written straight into its [`AnswerBlock`]: one pass through
/// the match list's ids per bound variable, reading only that variable's
/// term column ([`MatchList::terms`]), and one pass over the score column
/// that normalizes and weights as it copies — a pattern binding one
/// variable never touches the other two term columns.
///
/// ```
/// use kgstore::KnowledgeGraphBuilder;
/// use operators::{BlockScan, BlockStream, OpMetrics};
/// use sparql::{TriplePattern, Var};
/// use specqp_common::Score;
///
/// let mut b = KnowledgeGraphBuilder::new();
/// b.add("a", "type", "singer", 10.0);
/// b.add("b", "type", "singer", 5.0);
/// let g = b.build();
/// let d = g.dictionary();
/// let pat = TriplePattern::new(Var(0), d.lookup("type").unwrap(), d.lookup("singer").unwrap());
/// let mut scan = BlockScan::new(&g, pat, Score::ONE, OpMetrics::new_handle(), 128);
/// let block = scan.next_block().unwrap();
/// assert_eq!(block.len(), 2);
/// assert_eq!(block.score(0), Score::ONE); // head normalized to the weight
/// assert_eq!(block.score(1), Score::new(0.5));
/// assert!(scan.next_block().is_none());
/// ```
pub struct BlockScan<'g> {
    list: MatchList<'g>,
    weight: Score,
    /// The Def.-5 normalizer: the best raw score among the matches.
    normalizer: f64,
    /// Rank of the next match satisfying the repeated-variable constraint.
    next_rank: usize,
    /// Repeated-variable equality requirements (`?x p ?x` and friends).
    shape: PatternShape,
    schema: Vec<Var>,
    /// Per schema variable, the triple position (0 = s, 1 = p, 2 = o) it
    /// is read from.
    positions: Vec<usize>,
    sizer: BlockSizer,
    metrics: MetricsHandle,
}

impl<'g> BlockScan<'g> {
    /// Creates a block scan of `pattern` over `graph` with relaxation
    /// weight `weight`, emitting blocks of up to `block_size` rows.
    pub fn new(
        graph: &'g KnowledgeGraph,
        pattern: TriplePattern,
        weight: Score,
        metrics: MetricsHandle,
        block_size: usize,
    ) -> Self {
        let (s, p, o) = pattern.const_parts();
        let list = graph.matches(PatternKey { s, p, o });
        let mut pairs: Vec<(Var, usize)> = Vec::with_capacity(3);
        for (position, t) in [pattern.s, pattern.p, pattern.o].into_iter().enumerate() {
            if let Term::Var(v) = t {
                if !pairs.iter().any(|&(w, _)| w == v) {
                    pairs.push((v, position));
                }
            }
        }
        pairs.sort_unstable_by_key(|&(v, _)| v);
        let mut scan = BlockScan {
            list,
            weight,
            normalizer: 0.0,
            next_rank: 0,
            shape: pattern.shape(),
            schema: pairs.iter().map(|&(v, _)| v).collect(),
            positions: pairs.iter().map(|&(_, p)| p).collect(),
            sizer: BlockSizer::new(block_size),
            metrics,
        };
        scan.next_rank = scan.find_satisfying(0);
        if scan.next_rank < scan.list.len() {
            scan.normalizer = scan.list.score_at(scan.next_rank).value();
        }
        scan
    }

    fn has_repeat(&self) -> bool {
        self.shape != PatternShape::Distinct
    }

    fn satisfies(&self, t: &Triple) -> bool {
        self.shape.admits(t.s, t.p, t.o)
    }

    fn find_satisfying(&self, from: usize) -> usize {
        if !self.has_repeat() {
            return from;
        }
        let mut r = from;
        while r < self.list.len() && !self.satisfies(&self.list.triple_at(r)) {
            r += 1;
        }
        r
    }

    /// The Def.-5 normalizer: the best raw score among the matches (zero
    /// for an empty list).
    pub(crate) fn normalizer(&self) -> f64 {
        self.normalizer
    }

    /// The normalized, weighted score this scan emits for a match of raw
    /// score `raw`.
    #[inline]
    pub fn weighted(&self, raw: f64) -> Score {
        Score::weighted(self.weight, raw, self.normalizer)
    }

    /// The block of every match at `ranks`, read column by column: one pass
    /// over the ids per schema variable, then one over the scores.
    fn column_block(&self, ranks: Range<usize>) -> AnswerBlock {
        let rows = ranks.len();
        let mut out = AnswerBlock::with_capacity(self.schema.clone(), rows);
        let (terms, scores) = out.parts_mut();
        match *self.positions.as_slice() {
            [] => {}
            [position] => terms.extend(self.list.terms(position, ranks.clone())),
            _ => {
                let width = self.positions.len();
                terms.resize(rows * width, TermId(0));
                for (j, &position) in self.positions.iter().enumerate() {
                    let column = self.list.terms(position, ranks.clone());
                    for (row, term) in terms.chunks_exact_mut(width).zip(column) {
                        row[j] = term;
                    }
                }
            }
        }
        // The normalizer's zero test, hoisted out of the score pass.
        if self.normalizer == 0.0 {
            scores.resize(rows, Score::ZERO);
        } else {
            let (w, norm) = (self.weight, self.normalizer);
            let weighted = move |s: TripleScore| Score::weighted(w, s.value(), norm);
            scores.extend(self.list.scores(ranks).map(weighted));
        }
        out
    }

    /// Up to `n` rows satisfying the repeated-variable constraint, pushed
    /// as they are found.
    fn filtered_block(&mut self, n: usize) -> AnswerBlock {
        let mut out = AnswerBlock::with_capacity(self.schema.clone(), n);
        // next_rank points at a satisfying rank, so at least one row lands
        // in the block.
        let mut rank = self.next_rank;
        while rank < self.list.len() && out.len() < n {
            let t = self.list.triple_at(rank);
            if self.satisfies(&t) {
                let t = [t.s, t.p, t.o];
                out.push_row_with(self.weighted(self.list.score_at(rank).value()), |row| {
                    for (term, &position) in row.iter_mut().zip(&self.positions) {
                        *term = t[position];
                    }
                });
            }
            rank += 1;
        }
        self.next_rank = self.find_satisfying(rank);
        out
    }
}

impl BlockStream for BlockScan<'_> {
    fn schema(&self) -> &[Var] {
        &self.schema
    }

    fn next_block(&mut self) -> Option<AnswerBlock> {
        if self.next_rank >= self.list.len() {
            return None;
        }
        let n = self.sizer.take();
        let out = if self.has_repeat() {
            self.filtered_block(n)
        } else {
            let ranks = self.next_rank..(self.next_rank + n).min(self.list.len());
            self.next_rank = ranks.end;
            self.column_block(ranks)
        };
        let rows = out.len() as u64;
        self.metrics.count_sorted_accesses(rows);
        self.metrics.count_answers(rows);
        Some(out)
    }

    fn upper_bound(&self) -> Option<Score> {
        if self.next_rank >= self.list.len() {
            None
        } else {
            Some(self.weighted(self.list.score_at(self.next_rank).value()))
        }
    }

    /// Triples are unique and a scan binds every variable position of its
    /// pattern, so no two matches bind the same terms.
    fn distinct(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::PartialAnswer;
    use crate::metrics::OpMetrics;
    use kgstore::KnowledgeGraphBuilder;
    use sparql::Var;

    fn graph() -> KnowledgeGraph {
        let mut b = KnowledgeGraphBuilder::new();
        b.add("a", "type", "singer", 10.0);
        b.add("b", "type", "singer", 5.0);
        b.add("c", "type", "singer", 1.0);
        b.add("x", "type", "vocalist", 8.0);
        b.add("y", "type", "vocalist", 2.0);
        b.add("loop", "self", "loop", 4.0);
        b.add("loop2", "self", "other", 9.0);
        b.build()
    }

    fn type_pattern(g: &KnowledgeGraph, class: &str) -> TriplePattern {
        let d = g.dictionary();
        TriplePattern::new(Var(0), d.lookup("type").unwrap(), d.lookup(class).unwrap())
    }

    /// Drains a block scan into answers.
    fn drain_blocks(mut scan: BlockScan<'_>) -> Vec<PartialAnswer> {
        let mut out = Vec::new();
        while let Some(b) = scan.next_block() {
            out.extend(b.to_answers());
        }
        out
    }

    fn scores(answers: &[PartialAnswer]) -> Vec<Score> {
        answers.iter().map(|a| a.score).collect()
    }

    #[test]
    fn emits_normalized_descending_scores_at_every_block_size() {
        let g = graph();
        for size in [1, 2, 64] {
            let m = OpMetrics::new_handle();
            let scan = BlockScan::new(&g, type_pattern(&g, "singer"), Score::ONE, m.clone(), size);
            assert_eq!(scores(&drain_blocks(scan)), [1.0, 0.5, 0.1].map(Score::new));
            assert_eq!(m.answers_created(), 3);
            assert_eq!(m.sorted_accesses(), 3);
        }
    }

    #[test]
    fn weight_scales_head_to_w() {
        let g = graph();
        let m = OpMetrics::new_handle();
        let scan = BlockScan::new(&g, type_pattern(&g, "vocalist"), Score::new(0.8), m, 64);
        assert_eq!(scores(&drain_blocks(scan)), [0.8, 0.2].map(Score::new));
    }

    #[test]
    fn binds_all_var_positions() {
        let g = graph();
        let d = g.dictionary();
        let pat = TriplePattern::new(Var(0), Var(1), d.lookup("singer").unwrap());
        let scan = BlockScan::new(&g, pat, Score::ONE, OpMetrics::new_handle(), 64);
        assert_eq!(scan.schema(), &[Var(0), Var(1)]);
        let out = drain_blocks(scan);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].binding.get(Var(1)), d.lookup("type"));
    }

    #[test]
    fn repeated_var_filters_and_renormalizes() {
        let g = graph();
        let d = g.dictionary();
        // ?x <self> ?x matches only the "loop" triple (score 4), not loop2
        // (score 9) — and normalization must use 4, not 9.
        let pat = TriplePattern::new(Var(0), d.lookup("self").unwrap(), Var(0));
        for size in [1, 64] {
            let scan = BlockScan::new(&g, pat, Score::ONE, OpMetrics::new_handle(), size);
            let out = drain_blocks(scan);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].score, Score::ONE);
            assert_eq!(out[0].binding.get(Var(0)), Some(d.lookup("loop").unwrap()));
        }
    }

    #[test]
    fn empty_match_list() {
        let g = graph();
        let d = g.dictionary();
        let pat = TriplePattern::new(
            Var(0),
            d.lookup("type").unwrap(),
            d.lookup("a").unwrap(), // "a" is never an object of type
        );
        let mut scan = BlockScan::new(&g, pat, Score::ONE, OpMetrics::new_handle(), 64);
        assert_eq!(scan.upper_bound(), None);
        assert!(scan.next_block().is_none());
    }

    #[test]
    fn block_scan_upper_bound_tracks_blocks() {
        let g = graph();
        let mut scan = BlockScan::new(
            &g,
            type_pattern(&g, "singer"),
            Score::ONE,
            OpMetrics::new_handle(),
            2,
        );
        assert_eq!(scan.schema(), &[Var(0)]);
        assert_eq!(scan.upper_bound(), Some(Score::ONE));
        let b = scan.next_block().unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(scan.upper_bound(), Some(Score::new(0.1)));
        let b = scan.next_block().unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(scan.upper_bound(), None);
        assert!(scan.next_block().is_none());
    }
}
