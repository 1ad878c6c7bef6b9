//! Property-based tests of the top-k operators against brute-force
//! references.

use kgstore::{
    CompactionPolicy, KnowledgeGraph, KnowledgeGraphBuilder, LiveGraph, PatternKey, WriteBatch,
};
use operators::{
    top_k_blocks, top_k_blocks_floored, Binding, BlockIncrementalMerge, BlockRankJoin, BlockScan,
    BlockStarJoin, BlockStream, BoxedBlockStream, MetricsHandle, OpMetrics, PartialAnswer,
    ReplayBlocks, StarPart,
};
use proptest::prelude::*;
use relax::{Position, RelaxationRegistry, TermRule};
use sparql::{Query, QueryBuilder, Term, TriplePattern, Var};
use specqp_common::{Score, TermId};

/// Strategy: one input list binding `?0` and `?side_var`, sorted by the
/// canonical total order, with controlled key collisions and continuous
/// scores.
fn input_list(side_var: u32, max_len: usize) -> impl Strategy<Value = Vec<PartialAnswer>> {
    prop::collection::vec((0u32..12, 0u32..1000u32, 0.0f64..1.0), 0..max_len).prop_map(
        move |items| {
            let mut v: Vec<PartialAnswer> = items
                .into_iter()
                .map(|(key, side, score)| {
                    PartialAnswer::new(
                        Binding::from_pairs(vec![
                            (Var(0), TermId(key)),
                            (Var(side_var), TermId(side)),
                        ]),
                        Score::new(score),
                    )
                })
                .collect();
            v.sort_by(|a, b| b.cmp(a));
            v
        },
    )
}

fn naive_join(l: &[PartialAnswer], r: &[PartialAnswer], join_vars: &[Var]) -> Vec<PartialAnswer> {
    let mut out = Vec::new();
    for a in l {
        for b in r {
            if a.binding.key_for(join_vars) == b.binding.key_for(join_vars)
                && a.binding.compatible(&b.binding)
            {
                out.push(PartialAnswer::new(
                    a.binding.merged(&b.binding),
                    a.score + b.score,
                ));
            }
        }
    }
    out.sort_by(|x, y| y.cmp(x));
    out
}

/// Strategy: raw rows — three term columns over tiny domains (duplicated
/// keys, duplicated whole rows) and five distinct scores (heavy ties).
fn raw_rows(max_len: usize) -> impl Strategy<Value = Vec<(u32, u32, u32, u32)>> {
    prop::collection::vec((0u32..6, 0u32..3, 0u32..40, 0u32..5), 0..max_len)
}

/// Binds `schema[j]` to column `j` of every raw row, in stream order.
fn answers_over(raw: &[(u32, u32, u32, u32)], schema: &[Var]) -> Vec<PartialAnswer> {
    let mut v: Vec<PartialAnswer> = raw
        .iter()
        .map(|&(a, b, c, score)| {
            let pairs = schema.iter().copied().zip([a, b, c].map(TermId)).collect();
            PartialAnswer::new(
                Binding::from_pairs(pairs),
                Score::new(f64::from(score) * 0.25),
            )
        })
        .collect();
    v.sort_by(|a, b| b.cmp(a));
    v
}

fn blocks_of(rows: &[PartialAnswer], schema: &[Var], size: usize) -> BoxedBlockStream<'static> {
    Box::new(ReplayBlocks::new(rows.to_vec(), schema.to_vec(), size))
}

/// [`answers_over`] keeping each binding once, at its best score.
fn distinct_over(raw: &[(u32, u32, u32, u32)], schema: &[Var]) -> Vec<PartialAnswer> {
    let mut seen = std::collections::HashSet::new();
    let mut rows = answers_over(raw, schema);
    rows.retain(|a| seen.insert(a.binding.clone()));
    rows
}

/// A rank join of two distinct replays, declared distinct (so a side
/// binding only join variables is keys-once) or left plain (corner bound).
fn distinct_join(
    (l, ls): (&[PartialAnswer], &[Var]),
    (r, rs): (&[PartialAnswer], &[Var]),
    js: &[Var],
    declared: bool,
    metrics: MetricsHandle,
    size: usize,
) -> BoxedBlockStream<'static> {
    let side = |rows: &[PartialAnswer], schema: &[Var]| -> BoxedBlockStream<'static> {
        if declared {
            Box::new(ReplayBlocks::new_distinct(
                rows.to_vec(),
                schema.to_vec(),
                size,
            ))
        } else {
            blocks_of(rows, schema, size)
        }
    };
    Box::new(BlockRankJoin::new(
        side(l, ls),
        side(r, rs),
        js.to_vec(),
        metrics,
        size,
    ))
}

fn drain_blocks(mut s: impl BlockStream) -> Vec<PartialAnswer> {
    let mut out = Vec::new();
    while let Some(b) = s.next_block() {
        out.extend(b.to_answers());
    }
    out
}

/// `(left schema, right schema, join variables)`: 1/2/3-wide sides joined
/// on one or two columns, sharing no variable outside the join key.
const JOIN_SHAPES: [(&[u32], &[u32], &[u32]); 5] = [
    (&[0], &[0], &[0]),
    (&[0, 1], &[0, 2], &[0]),
    (&[0, 1], &[0, 1], &[0, 1]),
    (&[0, 1, 2], &[0, 1, 3], &[0, 1]),
    (&[2, 0, 1], &[3, 0], &[0]),
];

/// `(left schema, right schema, join variables)` for joins of distinct
/// inputs: a side whose schema is the join key holds each key once (it is
/// keys-once), the other side may hold a key several times.
const DISTINCT_SHAPES: [(&[u32], &[u32], &[u32]); 4] = [
    (&[0], &[0, 1], &[0]),
    (&[0, 1], &[0], &[0]),
    (&[0], &[0], &[0]),
    (&[0, 1], &[0, 1, 2], &[0, 1]),
];

/// Block sizes every property runs at: single rows, mid-block boundaries,
/// the engine default.
const SIZES: [usize; 3] = [1, 7, 128];

fn vars(ids: &[u32]) -> Vec<Var> {
    ids.iter().copied().map(Var).collect()
}

/// List reads plus join pulls: the rows a stream's operators moved.
fn rows_read(metrics: &OpMetrics) -> u64 {
    metrics.sorted_accesses() + metrics.join_pulls()
}

/// The floor contract, for one way of building a block stream: the
/// floor-bounded top-k is the unbounded top-k with the rows under the floor
/// dropped, and reading it costs no more list reads and join pulls.
fn check_floor<'a>(
    build: impl Fn(MetricsHandle) -> BoxedBlockStream<'a>,
    k: usize,
    floor: Score,
    what: &str,
) -> Result<(), TestCaseError> {
    let unbounded_metrics = OpMetrics::new_handle();
    let mut want = top_k_blocks(&mut build(unbounded_metrics.clone()), k);
    want.retain(|a| a.score >= floor);
    let metrics = OpMetrics::new_handle();
    let got = top_k_blocks_floored(&mut build(metrics.clone()), k, Some(floor));
    prop_assert_eq!(&got, &want, "{} k {} floor {:?}", what, k, floor);
    prop_assert!(
        rows_read(&metrics) <= rows_read(&unbounded_metrics),
        "{}: {} rows read under a floor, {} without",
        what,
        rows_read(&metrics),
        rows_read(&unbounded_metrics)
    );
    Ok(())
}

/// Term ids a merge must keep apart: both sides of a 64-bit word boundary,
/// both sides of the one-variable bitset's 2²⁴ cap, and the top of the id
/// space.
const SPARSE_IDS: [u32; 6] = [63, 64, (1 << 24) - 1, 1 << 24, u32::MAX - 1, u32::MAX];

/// Few enough terms that generated triples collide on every key and loop
/// back on themselves (`?x p ?x` matches).
const SCAN_TERMS: u8 = 4;

fn scan_term(i: u8) -> String {
    format!("t{}", i % SCAN_TERMS)
}

/// Five raw scores, zero included: ties in every list, and lists whose
/// best score — the normalizer — is zero.
fn scan_score(pick: u8) -> f64 {
    f64::from(pick % 5) * 0.5
}

/// The generated triples plus one `(tᵢ, tᵢ, tᵢ)` anchor per term, so every
/// name resolves in the base dictionary.
fn scan_graph(triples: &[(u8, u8, u8, u8)]) -> KnowledgeGraph {
    let mut b = KnowledgeGraphBuilder::new();
    for i in 0..SCAN_TERMS {
        b.add(&scan_term(i), &scan_term(i), &scan_term(i), 1.0);
    }
    for &(s, p, o, score) in triples {
        b.add(
            &scan_term(s),
            &scan_term(p),
            &scan_term(o),
            scan_score(score),
        );
    }
    b.build()
}

/// A pattern over `graph`: each position a constant term or one of three
/// variables, so 0–3 variables, repeated or not.
fn scan_pattern(graph: &KnowledgeGraph, picks: (u8, u8, u8)) -> TriplePattern {
    let term = |pick: u8| {
        if pick % 2 == 0 {
            let id = graph.dictionary().lookup(&scan_term(pick / 2));
            Term::Const(id.expect("every term is anchored in the base graph"))
        } else {
            Term::Var(Var(u32::from(pick / 2 % 3)))
        }
    };
    TriplePattern {
        s: term(picks.0),
        p: term(picks.1),
        o: term(picks.2),
    }
}

/// A scanned row: its terms in schema order and its score.
type ScanRow = (Vec<TermId>, Score);

/// What a scan of `pattern` must emit, read off the match list: the
/// matches whose repeated-variable positions agree, in rank order, each
/// bound at its variables' first positions and scored
/// `Score::weighted(w, s, norm)`, `norm` being the first surviving match's
/// score.
fn scan_reference(graph: &KnowledgeGraph, pattern: TriplePattern, weight: Score) -> Vec<ScanRow> {
    let (s, p, o) = pattern.const_parts();
    let terms = [pattern.s, pattern.p, pattern.o];
    let mut vars: Vec<(Var, usize)> = Vec::new();
    for (position, term) in terms.into_iter().enumerate() {
        if let Term::Var(v) = term {
            if !vars.iter().any(|&(w, _)| w == v) {
                vars.push((v, position));
            }
        }
    }
    vars.sort_unstable();
    let rows: Vec<([TermId; 3], f64)> = graph
        .matches(PatternKey { s, p, o })
        .iter_triples()
        .map(|(t, score)| ([t.s, t.p, t.o], score.value()))
        .filter(|(values, _)| {
            (0..3).all(|i| (0..3).all(|j| terms[i] != terms[j] || values[i] == values[j]))
        })
        .collect();
    let norm = rows.first().map_or(0.0, |&(_, score)| score);
    rows.iter()
        .map(|&(values, raw)| {
            let bound = vars.iter().map(|&(_, position)| values[position]).collect();
            (bound, Score::weighted(weight, raw, norm))
        })
        .collect()
}

/// Appends a block's rows to `out`.
fn scan_rows_into(block: &operators::AnswerBlock, out: &mut Vec<ScanRow>) {
    for i in 0..block.len() {
        out.push((block.row(i).to_vec(), block.score(i)));
    }
}

/// The scan contract on one graph version, for every pattern: a scan emits
/// the reference in order at every block size (and counts one sorted access
/// per row).
fn check_scans(
    graph: &KnowledgeGraph,
    patterns: &[(u8, u8, u8)],
    weight: Score,
    stage: &str,
) -> Result<(), TestCaseError> {
    for &picks in patterns {
        let pattern = scan_pattern(graph, picks);
        let want = scan_reference(graph, pattern, weight);
        for size in SIZES {
            let metrics = OpMetrics::new_handle();
            let mut scan = BlockScan::new(graph, pattern, weight, metrics.clone(), size);
            let mut got = Vec::new();
            while let Some(block) = scan.next_block() {
                prop_assert_eq!(block.schema(), scan.schema());
                scan_rows_into(&block, &mut got);
            }
            prop_assert_eq!(&got, &want, "{} {:?} size {}", stage, pattern, size);
            prop_assert_eq!(metrics.sorted_accesses(), want.len() as u64);
        }
    }
    Ok(())
}

/// Non-hub bindings of a generated star's star variable.
const STAR_BINDINGS: u8 = 6;

/// A generated star: its graph, query, relaxation rules and star variable.
struct Star {
    graph: KnowledgeGraph,
    query: Query,
    registry: RelaxationRegistry,
    star: Var,
}

/// A star of `multi` multi-row patterns `?x pᵢ ?yᵢ` (or `?yᵢ pᵢ ?x` where
/// `flips` has bit `i`) and `key_only` patterns `?x type cᵢ`, over a graph
/// of the generated `rows` — `(part, input, binding, object, score)`, the
/// input picking the pattern or one of its relaxations' terms — plus a hub
/// binding holding `hub_rows` rows in every multi-row part. A multi-row
/// pattern relaxes its predicate twice (one read per probe, routed by
/// predicate); a key-only one relaxes its class and its predicate (one read
/// per input). Scores take four values, so sums tie.
fn star_world(
    multi: usize,
    key_only: usize,
    flips: u8,
    rows: &[(u8, u8, u8, u8, u8)],
    hub_rows: u8,
) -> Star {
    let pred = |i: usize, input: u8| match input % 3 {
        0 => format!("p{i}"),
        r => format!("p{i}r{r}"),
    };
    let class = |i: usize, input: u8| match input % 3 {
        0 => ("type".to_string(), format!("c{i}")),
        1 => ("type".to_string(), format!("c{i}r")),
        _ => ("kind".to_string(), format!("c{i}")),
    };
    let flipped = |i: usize| flips >> i & 1 == 1;
    let mut triples: Vec<(String, String, String, f64)> = Vec::new();
    let multi_row = |i: usize, input: u8, x: String, y: String, score: f64| {
        let p = pred(i, input);
        if flipped(i) {
            (y, p, x, score)
        } else {
            (x, p, y, score)
        }
    };
    let key_row = |i: usize, input: u8, x: String, score: f64| {
        let (p, c) = class(i, input);
        (x, p, c, score)
    };
    for input in 0..3 {
        let anchor = || "anchor".to_string();
        triples.extend((0..multi).map(|i| multi_row(i, input, anchor(), anchor(), 0.25)));
        triples.extend((0..key_only).map(|i| key_row(i, input, anchor(), 0.25)));
    }
    for i in 0..multi {
        for j in 0..hub_rows {
            let score = f64::from(j % 3 + 1);
            triples.push(multi_row(i, 0, "hub".into(), format!("h{j}"), score));
        }
    }
    triples.extend((0..key_only).map(|i| key_row(i, 0, "hub".into(), 2.0)));
    for &(part, input, x, y, score) in rows {
        let x = format!("x{}", x % STAR_BINDINGS);
        let score = f64::from(score % 4 + 1) * 0.5;
        let part = usize::from(part) % (multi + key_only);
        triples.push(if part < multi {
            multi_row(part, input, x, format!("y{}", y % 5), score)
        } else {
            key_row(part - multi, input, x, score)
        });
    }
    let mut b = KnowledgeGraphBuilder::new();
    for (s, p, o, score) in &triples {
        b.add(s, p, o, *score);
    }
    let graph = b.build();

    let d = graph.dictionary();
    let id = |name: &str| d.lookup(name).expect("every name is anchored");
    let mut registry = RelaxationRegistry::new();
    let mut qb = QueryBuilder::new();
    let star = qb.var("x");
    for i in 0..multi {
        let p = id(&pred(i, 0));
        for (r, w) in [(1, 0.75), (2, 0.5)] {
            registry.add(TermRule::new(Position::Predicate, p, id(&pred(i, r)), w));
        }
        let y = qb.var(&format!("y{i}"));
        if flipped(i) {
            qb.pattern(y, p, star);
        } else {
            qb.pattern(star, p, y);
        }
    }
    for i in 0..key_only {
        let ty = id("type");
        if i == 0 {
            registry.add(TermRule::new(Position::Predicate, ty, id("kind"), 0.5));
        }
        let c = id(&format!("c{i}"));
        registry.add(TermRule::with_context(
            Position::Object,
            c,
            id(&format!("c{i}r")),
            0.75,
            ty,
        ));
        qb.pattern(star, ty, c);
    }
    qb.project(star);
    let query = qb.build().expect("a star query");
    Star {
        graph,
        query,
        registry,
        star,
    }
}

/// The star's parts: each pattern, plus its relaxations where `relaxed`
/// has its bit.
fn star_parts(star: &Star, relaxed: u8) -> Vec<StarPart> {
    star.query
        .patterns()
        .iter()
        .enumerate()
        .map(|(i, &pattern)| {
            let mut inputs = vec![(pattern, Score::ONE)];
            if relaxed >> i & 1 == 1 {
                for r in star.registry.relaxations_for(&pattern) {
                    inputs.push((r.pattern, Score::new(r.weight)));
                }
            }
            StarPart { pattern, inputs }
        })
        .collect()
}

/// The left-deep rank-join chain over `parts` the executor would build:
/// each part a scan, or a merge of its inputs' scans.
fn rank_join_chain<'g>(
    graph: &'g KnowledgeGraph,
    star: Var,
    parts: &[StarPart],
    metrics: MetricsHandle,
    size: usize,
) -> BoxedBlockStream<'g> {
    let part = |part: &StarPart| -> BoxedBlockStream<'g> {
        let mut scans: Vec<BoxedBlockStream<'g>> = part
            .inputs
            .iter()
            .map(|&(p, w)| -> BoxedBlockStream<'g> {
                Box::new(BlockScan::new(graph, p, w, metrics.clone(), size))
            })
            .collect();
        if scans.len() == 1 {
            scans.pop().expect("one scan")
        } else {
            Box::new(BlockIncrementalMerge::new(scans, size))
        }
    };
    parts
        .iter()
        .map(part)
        .reduce(|l, r| Box::new(BlockRankJoin::new(l, r, vec![star], metrics.clone(), size)))
        .expect("a star has parts")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The rank join emits exactly the sorted brute-force join — bindings,
    /// scores and order — at every block size: partner order inside the
    /// row index cannot show.
    #[test]
    fn rank_join_equals_naive(
        l in raw_rows(60),
        r in raw_rows(60),
        shape in 0usize..5,
    ) {
        let (ls, rs, js) = JOIN_SHAPES[shape];
        let (ls, rs, js) = (vars(ls), vars(rs), vars(js));
        let (l, r) = (answers_over(&l, &ls), answers_over(&r, &rs));
        let want = naive_join(&l, &r, &js);
        for size in SIZES {
            let got = drain_blocks(BlockRankJoin::new(
                blocks_of(&l, &ls, size),
                blocks_of(&r, &rs, size),
                js.clone(),
                OpMetrics::new_handle(),
                size,
            ));
            prop_assert_eq!(&got, &want, "shape {} size {}", shape, size);
        }
    }

    /// Any floor, at a join root (the join ends itself), a merge root and a
    /// scan root (the driver's bound check ends them): scores come in steps
    /// of 0.25, so floors on, between and beyond them are all drawn.
    #[test]
    fn floor_bounded_top_k_is_the_filtered_top_k(
        l in raw_rows(60),
        r in raw_rows(60),
        shape in 0usize..5,
        k in 0usize..12,
        floor_eighths in 0u32..20,
    ) {
        let floor = Score::new(f64::from(floor_eighths) * 0.125);
        let (ls, rs, js) = JOIN_SHAPES[shape];
        let (ls, rs, js) = (vars(ls), vars(rs), vars(js));
        // Merge inputs share a schema: the right rows again, over the left's.
        let r_as_l = answers_over(&r, &ls);
        let (l, r) = (answers_over(&l, &ls), answers_over(&r, &rs));
        for size in SIZES {
            check_floor(
                |m| {
                    Box::new(BlockRankJoin::new(
                        blocks_of(&l, &ls, size),
                        blocks_of(&r, &rs, size),
                        js.clone(),
                        m,
                        size,
                    ))
                },
                k,
                floor,
                &format!("join shape {shape} size {size}"),
            )?;
            check_floor(
                |_| {
                    Box::new(BlockIncrementalMerge::new(
                        vec![blocks_of(&l, &ls, size), blocks_of(&r_as_l, &ls, size)],
                        size,
                    ))
                },
                k,
                floor,
                &format!("merge size {size}"),
            )?;
            check_floor(|_| blocks_of(&l, &ls, size), k, floor, &format!("scan size {size}"))?;
        }
    }

    /// On distinct inputs, the keys-once bound changes only how far the
    /// join reads: the declared-distinct join emits the brute-force join,
    /// its top-k equals the corner-bound join's with no more join pulls, and
    /// the floor contract holds for it.
    #[test]
    fn keys_once_bound_equals_the_corner_bound(
        l in raw_rows(60),
        r in raw_rows(60),
        shape in 0usize..4,
        k in 0usize..12,
        floor_eighths in 0u32..20,
    ) {
        let floor = Score::new(f64::from(floor_eighths) * 0.125);
        let (ls, rs, js) = DISTINCT_SHAPES[shape];
        let (ls, rs, js) = (vars(ls), vars(rs), vars(js));
        let (l, r) = (distinct_over(&l, &ls), distinct_over(&r, &rs));
        let want = naive_join(&l, &r, &js);
        let sides = ((l.as_slice(), ls.as_slice()), (r.as_slice(), rs.as_slice()));
        for size in SIZES {
            let at = format!("shape {shape} size {size} k {k}");
            let join = |declared: bool, metrics: MetricsHandle| {
                distinct_join(sides.0, sides.1, &js, declared, metrics, size)
            };
            let got = drain_blocks(join(true, OpMetrics::new_handle()));
            prop_assert_eq!(&got, &want, "{}", at);
            let (corner, keys_once) = (OpMetrics::new_handle(), OpMetrics::new_handle());
            let want_k = top_k_blocks(&mut join(false, corner.clone()), k);
            let got_k = top_k_blocks(&mut join(true, keys_once.clone()), k);
            prop_assert_eq!(&got_k, &want_k, "{}", at);
            prop_assert!(
                keys_once.join_pulls() <= corner.join_pulls(),
                "{}: {} pulls under the keys-once bound, {} under the corner bound",
                at,
                keys_once.join_pulls(),
                corner.join_pulls()
            );
            check_floor(|m| join(true, m), k, floor, &format!("keys-once join {at}"))?;
        }
    }

    /// The incremental merge emits every binding of its inputs exactly once,
    /// at its maximum score, in non-increasing score order — over 1-, 2- and
    /// 3-wide schemas (the bitset and the `u64` and `u128` dedup keys) and
    /// every block size, with dense first-column ids or sparse ones past
    /// the bitset's cap and near `u32::MAX`.
    #[test]
    fn incremental_merge_equals_naive(
        lists in prop::collection::vec(raw_rows(30), 0..5),
        width in 1usize..4,
        sparse in any::<bool>(),
    ) {
        let schema = vars(&[0, 1, 2][..width]);
        let lists: Vec<Vec<PartialAnswer>> = lists
            .iter()
            .map(|raw| {
                let raw: Vec<_> = raw
                    .iter()
                    .map(|&(a, b, c, s)| (if sparse { SPARSE_IDS[a as usize] } else { a }, b, c, s))
                    .collect();
                answers_over(&raw, &schema)
            })
            .collect();
        // Reference: flatten, sort by the total order, keep the first (best)
        // occurrence per binding.
        let mut flat: Vec<PartialAnswer> = lists.iter().flatten().cloned().collect();
        flat.sort_by(|a, b| b.cmp(a));
        let mut seen = std::collections::HashSet::new();
        let want: Vec<PartialAnswer> =
            flat.into_iter().filter(|a| seen.insert(a.binding.clone())).collect();
        for size in SIZES {
            let inputs = lists.iter().map(|l| blocks_of(l, &schema, size)).collect();
            let mut got = drain_blocks(BlockIncrementalMerge::new(inputs, size));
            // Ties across inputs come out earliest input first, not by
            // binding: the emission order is by score alone.
            prop_assert!(got.windows(2).all(|w| w[0].score >= w[1].score), "size {}", size);
            got.sort_by(|a, b| b.cmp(a));
            prop_assert_eq!(&got, &want, "width {} size {}", width, size);
        }
    }

    /// A scan emits exactly its match list — bindings, score bits, order —
    /// for patterns with 0–3 variables (repeated or not, empty lists
    /// included), at every block size, on a flat graph and on every live version after it: asserts of new
    /// triples, score replacements and retractions read through the
    /// overlay.
    #[test]
    fn block_scan_equals_match_list(
        base in prop::collection::vec((0..SCAN_TERMS, 0..SCAN_TERMS, 0..SCAN_TERMS, any::<u8>()), 0..40),
        epochs in prop::collection::vec(
            prop::collection::vec(
                (any::<u8>(), 0..SCAN_TERMS, 0..SCAN_TERMS, 0..SCAN_TERMS, any::<u8>()),
                1..12,
            ),
            0..3,
        ),
        patterns in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
        weight_tenths in 1u32..=10,
    ) {
        let weight = Score::new(f64::from(weight_tenths) / 10.0);
        let live = LiveGraph::with_policy(scan_graph(&base), CompactionPolicy::never());
        check_scans(&live.pinned().0, &patterns, weight, "flat")?;
        for (e, ops) in epochs.iter().enumerate() {
            let mut batch = WriteBatch::new();
            for &(kind, s, p, o, score) in ops {
                // An assert of a visible triple replaces its score.
                if kind % 3 == 0 {
                    batch.retract(&scan_term(s), &scan_term(p), &scan_term(o));
                } else {
                    batch.assert(&scan_term(s), &scan_term(p), &scan_term(o), scan_score(score));
                }
            }
            live.commit(&batch);
            let (graph, _) = live.pinned();
            prop_assert!(graph.has_overlay());
            check_scans(&graph, &patterns, weight, &format!("epoch {}", e + 1))?;
        }
    }

    /// The star join is a rank-join chain over the same parts, read
    /// differently: for stars of 2–3 multi-row and 0–2 key-only parts, with
    /// relaxations, a hub binding and tied scores, at every block size, it
    /// returns the chain's top-k for every k up to 20 and its full answer
    /// set, in non-increasing score order; floored runs keep the floor
    /// contract; with every part relaxed, it returns `run_naive`'s answers.
    #[test]
    fn star_join_equals_the_rank_join_chain(
        (multi, key_only, flips, hub_rows) in (2usize..=3, 0usize..=2, any::<u8>(), 0u8..10),
        rows in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            0..60,
        ),
        (relaxed, all_relaxed) in (any::<u8>(), any::<bool>()),
        (k_floor, floor_eighths) in (0usize..12, 0u32..40),
    ) {
        let world = star_world(multi, key_only, flips, &rows, hub_rows);
        let relaxed = if all_relaxed { u8::MAX } else { relaxed };
        let parts = star_parts(&world, relaxed);
        let g = &world.graph;
        let sorted = |mut answers: Vec<PartialAnswer>| {
            answers.sort_by(|a, b| b.cmp(a));
            answers
        };
        let naive = all_relaxed.then(|| specqp::run_naive(g, &world.query, &world.registry, usize::MAX));
        for size in SIZES {
            let ta = |m: MetricsHandle| -> BoxedBlockStream<'_> {
                Box::new(BlockStarJoin::new(g, world.star, parts.clone(), m, size))
            };
            let chain = |m: MetricsHandle| rank_join_chain(g, world.star, &parts, m, size);
            let all = drain_blocks(ta(OpMetrics::new_handle()));
            prop_assert!(all.windows(2).all(|w| w[0].score >= w[1].score), "size {}", size);
            let all = sorted(all);
            prop_assert_eq!(&all, &sorted(drain_blocks(chain(OpMetrics::new_handle()))), "size {}", size);
            if let Some(naive) = &naive {
                prop_assert_eq!(&all, naive, "naive, size {}", size);
            }
            for k in 0..=20 {
                let got = top_k_blocks(&mut ta(OpMetrics::new_handle()), k);
                prop_assert_eq!(&got, &all[..k.min(all.len())].to_vec(), "k {} size {}", k, size);
                let want = top_k_blocks(&mut chain(OpMetrics::new_handle()), k);
                prop_assert_eq!(&got, &want, "k {} size {}", k, size);
            }
            let floor = Score::new(f64::from(floor_eighths) * 0.125);
            check_floor(ta, k_floor, floor, &format!("star join size {size}"))?;
        }
    }

    /// `top_k_blocks` is a prefix of the full stream.
    #[test]
    fn top_k_is_prefix(
        l in input_list(1, 40),
        k in 0usize..50,
        size in 0usize..3,
    ) {
        let size = SIZES[size];
        let schema = [Var(0), Var(1)];
        let got = top_k_blocks(&mut ReplayBlocks::new(l.clone(), schema.to_vec(), size), k);
        prop_assert_eq!(&got[..], &l[..k.min(l.len())]);
    }

    /// Upper bounds never underestimate the next block, through a 2-level
    /// operator tree (merge feeding a join).
    #[test]
    fn bounds_are_sound_through_composition(
        l1 in input_list(1, 20),
        l2 in input_list(1, 20),
        r in input_list(2, 25),
        size in 0usize..3,
    ) {
        let size = SIZES[size];
        let (ls, rs) = ([Var(0), Var(1)], [Var(0), Var(2)]);
        let merge = BlockIncrementalMerge::new(
            vec![blocks_of(&l1, &ls, size), blocks_of(&l2, &ls, size)],
            size,
        );
        let mut join = BlockRankJoin::new(
            Box::new(merge),
            blocks_of(&r, &rs, size),
            vec![Var(0)],
            OpMetrics::new_handle(),
            size,
        );
        loop {
            let bound = join.upper_bound();
            match join.next_block() {
                Some(b) => {
                    let bound = bound.expect("bound exists while answers remain");
                    prop_assert!(bound >= b.score(0), "bound {:?} < answer {:?}", bound, b.score(0));
                }
                None => break,
            }
        }
    }
}
