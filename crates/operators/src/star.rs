//! The Threshold-Algorithm star join ([`BlockStarJoin`]).
//!
//! A *star* is a query whose patterns all mention one star variable `?x`
//! once and share no other variable, so its answers for one binding of
//! `?x` are the cross product of that binding's rows in each pattern's
//! *part* (the pattern's sorted stream: a scan, or the merge of the pattern
//! and its relaxations). A left-deep rank join over two parts that each
//! hold several rows per binding reads both lists deep and materializes
//! every key's cross product. [`BlockStarJoin`] runs Fagin, Lotem & Naor's
//! Threshold Algorithm ("Optimal aggregation algorithms for middleware",
//! PODS'01) over the parts instead, and expands each binding lazily:
//!
//! * it pulls one block at a time from the parts' streams, round robin, and
//!   probes each binding of `?x` it has not seen before in every part,
//!   dropping it at the first part where it has no row. A probe is one
//!   keyed store read per input of the part — or a single read routed by
//!   term when the inputs differ in one constant position only, as a
//!   pattern and its relaxations mostly do;
//! * the threshold `T` is the sum of the parts' upper bounds, above every
//!   binding not seen yet. It is gone once a part is exhausted: no unseen
//!   binding can match every part then;
//! * a binding's rows are sorted per part by (score desc, row asc), and
//!   only its best combination is queued. Popping a combination queues its
//!   successors — part `j`'s row stepped forward, for each `j` at or after
//!   the part stepped last — so every combination is queued exactly once
//!   and never above its parent, and the heap top bounds every combination
//!   not yet queued;
//! * a combination is emitted once it scores strictly above `T`, as
//!   [`BlockRankJoin`](crate::BlockRankJoin) emits.
//!
//! A probe scores a row exactly as the part's stream does —
//! [`Score::weighted`] with the input's weight and its scan's Def.-5
//! normalizer — and keeps each row once at its best score over the inputs,
//! as the merge does. Debug builds check every pulled row against its
//! binding's probe and every emitted score against the one before it.
//!
//! Rows, combinations and queued answers live in flat arenas (the queue is
//! the rank join's result heap), which only grow geometrically: admitting a
//! binding or queueing a combination allocates nothing of its own.

use crate::block::{AnswerBlock, BlockSizer, BlockStream, BoxedBlockStream};
use crate::block_join::{pattern_stream, RowHeap};
use crate::metrics::MetricsHandle;
use crate::scan::BlockScan;
use kgstore::{KnowledgeGraph, PatternKey, Triple};
use sparql::{Term, TriplePattern, Var};
use specqp_common::{FxHashMap, Score, TermId};

/// One pattern of a star and the inputs its part reads.
#[derive(Clone, Debug)]
pub struct StarPart {
    /// The pattern; it fixes the part's variables.
    pub pattern: TriplePattern,
    /// `(pattern, weight)` per input, all over the pattern's variables: the
    /// pattern itself at weight 1 unless it is left out, and its
    /// relaxations. A part without inputs makes the join empty.
    pub inputs: Vec<(TriplePattern, Score)>,
}

/// Whether `patterns` form a star on `star`: every pattern mentions `star`
/// exactly once, and no other variable occurs twice among them.
pub fn is_star(patterns: &[TriplePattern], star: Var) -> bool {
    let mut others: Vec<Var> = Vec::new();
    patterns.iter().all(|p| {
        let mut stars = 0;
        for v in [p.s, p.p, p.o].into_iter().filter_map(Term::as_var) {
            if v == star {
                stars += 1;
            } else if others.contains(&v) {
                return false;
            } else {
                others.push(v);
            }
        }
        stars == 1
    })
}

/// A part's row of one binding: its score and its terms for the part's
/// other variables, in variable order (unused slots are zero).
type PartRow = (Score, [TermId; 2]);

/// A binding that some part holds no row of.
const DROPPED: u32 = u32::MAX;

/// A key with the star position left open, as `[s, p, o]`.
type KeyTemplate = [Option<TermId>; 3];

/// How a part looks a binding up in the store.
enum Probe {
    /// The inputs differ only at triple position `at`: one read with that
    /// position open, each match routed by its term there to its input's
    /// `(weight, normalizer)`.
    Routed {
        key: KeyTemplate,
        at: usize,
        route: FxHashMap<TermId, (Score, f64)>,
    },
    /// One read per input: `(key, weight, normalizer)`.
    Each(Vec<(KeyTemplate, Score, f64)>),
}

impl Probe {
    fn new(inputs: Vec<(KeyTemplate, Score, f64)>) -> Self {
        if inputs.len() >= 2 {
            let differ: Vec<usize> = (0..3)
                .filter(|&i| inputs.iter().any(|x| x.0[i] != inputs[0].0[i]))
                .collect();
            if let [at] = differ[..] {
                let route: FxHashMap<TermId, (Score, f64)> = inputs
                    .iter()
                    .filter_map(|&(key, w, norm)| Some((key[at]?, (w, norm))))
                    .collect();
                if route.len() == inputs.len() {
                    let mut key = inputs[0].0;
                    key[at] = None;
                    return Probe::Routed { key, at, route };
                }
            }
        }
        Probe::Each(inputs)
    }
}

/// One part: its sorted stream and its probe.
struct Part<'g> {
    stream: BoxedBlockStream<'g>,
    /// The star variable's column in the stream's rows.
    star_col: usize,
    /// The stream columns of the other variables, in variable order.
    cols: Vec<usize>,
    /// The triple positions of the other variables, in variable order.
    positions: Vec<usize>,
    /// The output-schema positions of the other variables.
    out: Vec<usize>,
    /// The star variable's triple position.
    star_at: usize,
    probe: Probe,
}

impl<'g> Part<'g> {
    fn new(
        graph: &'g KnowledgeGraph,
        star: Var,
        part: StarPart,
        out_schema: &[Var],
        metrics: &MetricsHandle,
        block_size: usize,
    ) -> Self {
        let terms = |p: &TriplePattern| [p.s, p.p, p.o];
        let pattern = terms(&part.pattern);
        let position = |v: Var| {
            pattern
                .iter()
                .position(|&t| t == Term::Var(v))
                .expect("a schema variable occurs in the pattern")
        };
        let mut schema: Vec<Var> = part.pattern.vars().collect();
        schema.sort_unstable();
        let others: Vec<Var> = schema.iter().copied().filter(|&v| v != star).collect();
        let mut scans: Vec<BoxedBlockStream<'g>> = Vec::with_capacity(part.inputs.len());
        let mut inputs = Vec::with_capacity(part.inputs.len());
        for (input, weight) in part.inputs {
            let scan = BlockScan::new(graph, input, weight, metrics.clone(), block_size);
            inputs.push((terms(&input).map(Term::as_const), weight, scan.normalizer()));
            scans.push(Box::new(scan));
        }
        let stream = pattern_stream(scans, block_size);
        let column = |v: Var| schema.iter().position(|&w| w == v).expect("in schema");
        Part {
            star_col: column(star),
            cols: others.iter().map(|&v| column(v)).collect(),
            positions: others.iter().map(|&v| position(v)).collect(),
            out: others
                .iter()
                .map(|v| out_schema.binary_search(v).expect("in the output schema"))
                .collect(),
            star_at: position(star),
            stream,
            probe: Probe::new(inputs),
        }
    }

    /// The terms of a matching triple for this part's other variables.
    #[inline]
    fn row_of(&self, t: Triple) -> [TermId; 2] {
        let t = [t.s, t.p, t.o];
        let mut row = [TermId(0); 2];
        for (slot, &position) in row.iter_mut().zip(&self.positions) {
            *slot = t[position];
        }
        row
    }

    /// Pushes every row `star` has in this part onto `out`, once per input
    /// it matches (not deduplicated), and returns the number of store reads.
    fn probe(&self, graph: &KnowledgeGraph, star: TermId, out: &mut Vec<PartRow>) -> u64 {
        let key = |mut key: KeyTemplate| {
            key[self.star_at] = Some(star);
            PatternKey {
                s: key[0],
                p: key[1],
                o: key[2],
            }
        };
        match &self.probe {
            Probe::Routed {
                key: template,
                at,
                route,
            } => {
                graph.for_each_match(key(*template), |t, raw| {
                    if let Some(&(w, norm)) = route.get(&[t.s, t.p, t.o][*at]) {
                        out.push((Score::weighted(w, raw.value(), norm), self.row_of(t)));
                    }
                });
                1
            }
            Probe::Each(inputs) => {
                for &(template, w, norm) in inputs {
                    graph.for_each_match(key(template), |t, raw| {
                        out.push((Score::weighted(w, raw.value(), norm), self.row_of(t)));
                    });
                }
                inputs.len() as u64
            }
        }
    }
}

/// Keeps each row of `rows` once at its best score and sorts them by
/// (score desc, row asc).
fn best_rows(rows: &mut Vec<PartRow>) {
    if rows.len() > 1 {
        rows.sort_unstable_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)));
        rows.dedup_by(|later, first| later.1 == first.1);
        rows.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    }
}

/// The Threshold-Algorithm star join of a star's parts (see the module
/// docs), emitting blocks of up to `block_size` rows.
pub struct BlockStarJoin<'g> {
    graph: &'g KnowledgeGraph,
    parts: Vec<Part<'g>>,
    out_schema: Vec<Var>,
    /// The star variable's output-schema position.
    star_out: usize,
    /// The part the next pull reads.
    next_part: usize,
    /// Per star binding seen: its index in `stars`, or [`DROPPED`].
    seen: FxHashMap<TermId, u32>,
    /// The star term of every kept binding.
    stars: Vec<TermId>,
    /// Per kept binding and part (stride: the part count): its rows'
    /// `(start, len)` in `rows`.
    spans: Vec<(u32, u32)>,
    rows: Vec<PartRow>,
    /// Probe results of the part being probed.
    scratch: Vec<PartRow>,
    /// Queued combinations, ordered like join results.
    output: RowHeap,
    /// Per heap slot (stride: the part count + 2): the binding, the part
    /// stepped last, and the row index per part.
    combos: Vec<u32>,
    /// The combination being expanded.
    combo: Vec<u32>,
    sizer: BlockSizer,
    metrics: MetricsHandle,
    floor: Option<Score>,
    /// The last emitted score (checked in debug builds).
    last_emitted: Score,
}

impl<'g> BlockStarJoin<'g> {
    /// The star join over `parts` on the star variable `star`.
    ///
    /// # Panics
    /// Panics unless the parts' patterns are a star on `star` ([`is_star`]),
    /// or if there are no parts.
    pub fn new(
        graph: &'g KnowledgeGraph,
        star: Var,
        parts: Vec<StarPart>,
        metrics: MetricsHandle,
        block_size: usize,
    ) -> Self {
        let patterns: Vec<TriplePattern> = parts.iter().map(|part| part.pattern).collect();
        assert!(!parts.is_empty(), "a star has at least one part");
        assert!(is_star(&patterns, star), "not a star on {star:?}");
        let mut out_schema: Vec<Var> = patterns.iter().flat_map(|p| p.vars()).collect();
        out_schema.sort_unstable();
        out_schema.dedup();
        let star_out = out_schema.binary_search(&star).expect("star in schema");
        let parts: Vec<Part<'g>> = parts
            .into_iter()
            .map(|part| Part::new(graph, star, part, &out_schema, &metrics, block_size))
            .collect();
        BlockStarJoin {
            graph,
            output: RowHeap::new(out_schema.len()),
            combo: Vec::with_capacity(parts.len() + 2),
            parts,
            out_schema,
            star_out,
            next_part: 0,
            seen: FxHashMap::default(),
            stars: Vec::new(),
            spans: Vec::new(),
            rows: Vec::new(),
            scratch: Vec::new(),
            combos: Vec::new(),
            sizer: BlockSizer::new(block_size),
            metrics,
            floor: None,
            last_emitted: Score::MAX,
        }
    }

    /// The threshold `T`: the sum of the parts' upper bounds, `None` once a
    /// part is exhausted.
    fn threshold(&self) -> Option<Score> {
        self.parts
            .iter()
            .try_fold(Score::ZERO, |t, part| Some(t + part.stream.upper_bound()?))
    }

    /// The rows binding `binding` has in `part`.
    fn rows_of(&self, binding: u32, part: usize) -> &[PartRow] {
        let (start, len) = self.spans[binding as usize * self.parts.len() + part];
        &self.rows[start as usize..(start + len) as usize]
    }

    /// Pulls one block from the next part in turn and admits every star
    /// binding in it that was not seen before.
    fn pull(&mut self) {
        let i = self.next_part;
        self.next_part = (i + 1) % self.parts.len();
        let Some(block) = self.parts[i].stream.next_block() else {
            return;
        };
        self.metrics.count_join_pulls(block.len() as u64);
        for r in 0..block.len() {
            let (part, row) = (&self.parts[i], block.row(r));
            let star = row[part.star_col];
            let mut terms = [TermId(0); 2];
            for (slot, &c) in terms.iter_mut().zip(&part.cols) {
                *slot = row[c];
            }
            let pulled = (block.score(r), terms);
            match self.seen.get(&star) {
                Some(&binding) => debug_assert!(
                    binding == DROPPED || self.rows_of(binding, i).contains(&pulled),
                    "part {i} streamed a row its probe does not return"
                ),
                None => {
                    let binding = self.admit(star, i, pulled);
                    self.seen.insert(star, binding);
                }
            }
        }
    }

    /// Probes a new binding in every part — `src`, whose stream yielded
    /// `pulled`, first — and queues its best combination. Returns its index,
    /// or [`DROPPED`] at the first part where it has no row.
    fn admit(&mut self, star: TermId, src: usize, pulled: PartRow) -> u32 {
        let n = self.parts.len();
        let (rows_from, spans_from) = (self.rows.len(), self.spans.len());
        self.spans.resize(spans_from + n, (0, 0));
        for j in std::iter::once(src).chain((0..n).filter(|&j| j != src)) {
            self.scratch.clear();
            let reads = self.parts[j].probe(self.graph, star, &mut self.scratch);
            self.metrics.count_random_accesses(reads);
            best_rows(&mut self.scratch);
            // A weight or normalizer that differs from the stream's would
            // return wrong answers silently: check it.
            debug_assert!(
                j != src || self.scratch.contains(&pulled),
                "part {j}'s probe misses or rescored the row its stream yielded"
            );
            if self.scratch.is_empty() {
                self.rows.truncate(rows_from);
                self.spans.truncate(spans_from);
                return DROPPED;
            }
            let start = self.rows.len() as u32;
            self.rows.extend_from_slice(&self.scratch);
            let end = u32::try_from(self.rows.len()).expect("a star holds < 2^32 rows");
            self.spans[spans_from + j] = (start, end - start);
        }
        let binding = u32::try_from(self.stars.len()).expect("a star holds < 2^32 bindings");
        self.stars.push(star);
        let mut root = std::mem::take(&mut self.combo);
        root.clear();
        root.extend([binding, 0]);
        root.resize(n + 2, 0);
        self.queue(&root);
        self.combo = root;
        binding
    }

    /// Queues one combination: `[binding, part stepped last, row per part]`.
    fn queue(&mut self, combo: &[u32]) {
        let n = self.parts.len();
        let binding = combo[0] as usize;
        let spans = &self.spans[binding * n..(binding + 1) * n];
        let rows = &self.rows;
        let row = |j: usize| &rows[(spans[j].0 + combo[2 + j]) as usize];
        let score: Score = (0..n).map(|j| row(j).0).sum();
        let (star, star_out, parts) = (self.stars[binding], self.star_out, &self.parts);
        let slot = self.output.push_with(score, |slot| {
            slot[star_out] = star;
            for (j, part) in parts.iter().enumerate() {
                for (&o, &t) in part.out.iter().zip(&row(j).1) {
                    slot[o] = t;
                }
            }
        });
        let at = slot as usize * (n + 2);
        if self.combos.len() < at + n + 2 {
            self.combos.resize(at + n + 2, 0);
        }
        self.combos[at..at + n + 2].copy_from_slice(combo);
        self.metrics.count_answers(1);
        self.metrics.count_heap_pushes(1);
    }

    /// Queues the successors of a popped combination.
    fn expand(&mut self, combo: &mut [u32]) {
        let n = self.parts.len();
        let binding = combo[0] as usize;
        for j in combo[1] as usize..n {
            let (last, at) = (combo[1], combo[2 + j]);
            if at + 1 < self.spans[binding * n + j].1 {
                combo[1] = j as u32;
                combo[2 + j] = at + 1;
                self.queue(combo);
                combo[1] = last;
                combo[2 + j] = at;
            }
        }
    }
}

impl BlockStream for BlockStarJoin<'_> {
    fn schema(&self) -> &[Var] {
        &self.out_schema
    }

    /// Strict-threshold emission (`top > T`), with the floor check of
    /// [`BlockRankJoin`](crate::BlockRankJoin) before every pull.
    fn next_block(&mut self) -> Option<AnswerBlock> {
        loop {
            let t = self.threshold();
            let top = self.output.peek_score();
            if self.floor.is_some_and(|f| top.max(t).is_none_or(|b| b < f)) {
                return None;
            }
            match (top, t) {
                (Some(top), Some(t)) if top <= t => self.pull(),
                (Some(_), bound) => {
                    let n = self.sizer.take();
                    let stride = self.parts.len() + 2;
                    let mut out = AnswerBlock::with_capacity(self.out_schema.clone(), n);
                    let mut combo = std::mem::take(&mut self.combo);
                    while out.len() < n
                        && self
                            .output
                            .peek_score()
                            .is_some_and(|top| bound.is_none_or(|t| top > t))
                    {
                        let slot = self.output.pop_into(&mut out) as usize;
                        let score = out.score(out.len() - 1);
                        debug_assert!(score <= self.last_emitted, "emitted scores rose");
                        self.last_emitted = score;
                        combo.clear();
                        combo.extend_from_slice(&self.combos[slot * stride..(slot + 1) * stride]);
                        self.expand(&mut combo);
                    }
                    self.combo = combo;
                    return Some(out);
                }
                (None, None) => return None,
                (None, Some(_)) => self.pull(),
            }
        }
    }

    fn upper_bound(&self) -> Option<Score> {
        self.output.peek_score().max(self.threshold())
    }

    fn set_floor(&mut self, floor: Score) {
        self.floor = Some(floor);
    }

    /// Every combination is queued once, and combinations of one binding
    /// differ in some part's row.
    fn distinct(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::top_k_blocks;
    use crate::metrics::OpMetrics;
    use kgstore::KnowledgeGraphBuilder;

    /// One hub with ten songs and ten lyrics, distinct scores.
    fn hub() -> KnowledgeGraph {
        let mut b = KnowledgeGraphBuilder::new();
        for i in 0..10 {
            b.add("hub", "sang", &format!("song{i}"), f64::from(100 - i));
            b.add("hub", "wrote", &format!("lyric{i}"), f64::from(50 - i));
        }
        b.build()
    }

    /// `?x sang ?y . ?x wrote ?z`, the second part with `inputs` of its own.
    fn parts(g: &KnowledgeGraph, second: Vec<(TriplePattern, Score)>) -> Vec<StarPart> {
        let d = g.dictionary();
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let sang = TriplePattern::new(x, d.lookup("sang").unwrap(), y);
        let wrote = TriplePattern::new(x, d.lookup("wrote").unwrap(), z);
        vec![
            StarPart {
                pattern: sang,
                inputs: vec![(sang, Score::ONE)],
            },
            StarPart {
                pattern: wrote,
                inputs: second,
            },
        ]
    }

    #[test]
    fn a_part_without_inputs_empties_the_join() {
        let g = hub();
        let m = OpMetrics::new_handle();
        let mut join = BlockStarJoin::new(&g, Var(0), parts(&g, Vec::new()), m.clone(), 128);
        assert_eq!(join.schema(), &[Var(0), Var(1), Var(2)]);
        assert_eq!(join.upper_bound(), None);
        assert!(join.next_block().is_none());
        assert_eq!(m.join_pulls() + m.random_accesses(), 0, "nothing read");
    }

    /// The hub's 100 answers are queued only as they come due: in
    /// one-row blocks, the top 5 (and the sixth row that settles ties)
    /// queue the best combination and at most two successors per row
    /// emitted.
    #[test]
    fn lazy_expansion_queues_only_what_it_emits() {
        let g = hub();
        let wrote = parts(&g, Vec::new())[1].pattern;
        let m = OpMetrics::new_handle();
        let parts = parts(&g, vec![(wrote, Score::ONE)]);
        let mut join = BlockStarJoin::new(&g, Var(0), parts, m.clone(), 1);
        let top = top_k_blocks(&mut join, 5);
        assert_eq!(top.len(), 5);
        assert_eq!(top[0].score, Score::new(2.0));
        assert!(top.windows(2).all(|w| w[0].score >= w[1].score));
        assert_eq!(m.random_accesses(), 2, "one binding, one read per part");
        assert!(m.heap_pushes() <= 1 + 2 * 6, "{} pushes", m.heap_pushes());
    }
}
