//! Property-based tests of the top-k operators against brute-force
//! references.

use operators::{
    materialize, top_k, top_k_blocks, top_k_blocks_floored, top_k_floored, Binding,
    BlockIncrementalMerge, BlockRankJoin, BlockStream, BoxedBlockStream, IncrementalMerge,
    MetricsHandle, NestedLoopsRankJoin, OpMetrics, PartialAnswer, PullStrategy, RankJoin,
    RankedStream, RowsToBlocks, VecStream,
};
use proptest::prelude::*;
use sparql::Var;
use specqp_common::{Score, TermId};

/// Strategy: one descending-sorted input list binding `?0` (+ a side var so
/// join outputs differ), with controlled key collisions.
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

/// Strategy: raw rows for the block-vs-row properties — three term columns
/// over tiny domains (duplicated keys, duplicated whole rows) and five
/// distinct scores (heavy ties).
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
    Box::new(RowsToBlocks::new(
        Box::new(VecStream::new(rows.to_vec())),
        schema.to_vec(),
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

fn vars(ids: &[u32]) -> Vec<Var> {
    ids.iter().copied().map(Var).collect()
}

/// The floor contract, for one way of building a block stream: the
/// floor-bounded top-k is the unbounded top-k with the rows under the floor
/// dropped, and reading it costs no more sorted accesses.
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
        metrics.sorted_accesses() <= unbounded_metrics.sorted_accesses(),
        "{}: {} sorted accesses under a floor, {} without",
        what,
        metrics.sorted_accesses(),
        unbounded_metrics.sorted_accesses()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The block rank join emits exactly the row rank join's answers —
    /// bindings, scores and order — at every block size, under both pull
    /// strategies: partner order inside the row index cannot show.
    #[test]
    fn block_rank_join_equals_row_rank_join(
        l in raw_rows(60),
        r in raw_rows(60),
        shape in 0usize..5,
    ) {
        let (ls, rs, js) = JOIN_SHAPES[shape];
        let (ls, rs, js) = (vars(ls), vars(rs), vars(js));
        let (l, r) = (answers_over(&l, &ls), answers_over(&r, &rs));
        for strategy in [PullStrategy::Alternate, PullStrategy::Adaptive] {
            let want = materialize(RankJoin::new(
                Box::new(VecStream::new(l.clone())),
                Box::new(VecStream::new(r.clone())),
                js.clone(),
                strategy,
                OpMetrics::new_handle(),
            ));
            for size in [1, 7, 128] {
                let got = drain_blocks(BlockRankJoin::new(
                    blocks_of(&l, &ls, size),
                    blocks_of(&r, &rs, size),
                    js.clone(),
                    strategy,
                    OpMetrics::new_handle(),
                    size,
                ));
                prop_assert_eq!(&got, &want, "shape {} {:?} size {}", shape, strategy, size);
            }
        }
    }

    /// Any floor, at a join root (the join ends itself), a merge root and a
    /// scan root (the driver's bound check ends them): scores come in steps
    /// of 0.25, so floors on, between and beyond them are all drawn. The row
    /// driver obeys the same contract.
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
        for size in [1, 7, 128] {
            for strategy in [PullStrategy::Alternate, PullStrategy::Adaptive] {
                check_floor(
                    |m| {
                        Box::new(BlockRankJoin::new(
                            blocks_of(&l, &ls, size),
                            blocks_of(&r, &rs, size),
                            js.clone(),
                            strategy,
                            m,
                            size,
                        ))
                    },
                    k,
                    floor,
                    &format!("join shape {shape} {strategy:?} size {size}"),
                )?;
            }
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
        let mut want = top_k(&mut VecStream::new(l.clone()), k);
        want.retain(|a| a.score >= floor);
        let got = top_k_floored(&mut VecStream::new(l.clone()), k, Some(floor));
        prop_assert_eq!(got, want, "row driver k {} floor {:?}", k, floor);
    }

    /// The block merge emits exactly the row merge's answers over 1-, 2-
    /// and 3-wide schemas (the `u64` and `u128` dedup keys).
    #[test]
    fn block_merge_equals_row_merge(
        lists in prop::collection::vec(raw_rows(30), 0..5),
        width in 1usize..4,
    ) {
        let schema = vars(&[0, 1, 2][..width]);
        let lists: Vec<Vec<PartialAnswer>> =
            lists.iter().map(|raw| answers_over(raw, &schema)).collect();
        let want = materialize(IncrementalMerge::new(
            lists
                .iter()
                .map(|l| Box::new(VecStream::new(l.clone())) as operators::BoxedStream<'static>)
                .collect(),
        ));
        for size in [1, 7, 128] {
            let inputs = lists.iter().map(|l| blocks_of(l, &schema, size)).collect();
            let got = drain_blocks(BlockIncrementalMerge::new(inputs, size));
            prop_assert_eq!(&got, &want, "width {} size {}", width, size);
        }
    }

    /// HRJN (both pull strategies) produces exactly the sorted join.
    #[test]
    fn rank_join_equals_naive(
        l in input_list(1, 40),
        r in input_list(2, 40),
        adaptive in any::<bool>(),
    ) {
        let strategy = if adaptive { PullStrategy::Adaptive } else { PullStrategy::Alternate };
        let m = OpMetrics::new_handle();
        let join = RankJoin::new(
            Box::new(VecStream::new(l.clone())),
            Box::new(VecStream::new(r.clone())),
            vec![Var(0)],
            strategy,
            m,
        );
        let got = materialize(join);
        let want = naive_join(&l, &r, &[Var(0)]);
        prop_assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            prop_assert!(a.score.approx_eq(b.score, 1e-12));
        }
    }

    /// NRJN agrees with HRJN on score sequences.
    #[test]
    fn nrjn_equals_hrjn(
        l in input_list(1, 30),
        r in input_list(2, 30),
    ) {
        let m1 = OpMetrics::new_handle();
        let nrjn = NestedLoopsRankJoin::new(l.clone(), r.clone(), vec![Var(0)], m1);
        let got = materialize(nrjn);
        let want = naive_join(&l, &r, &[Var(0)]);
        prop_assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            prop_assert!(a.score.approx_eq(b.score, 1e-12));
        }
    }

    /// The incremental merge equals sort-merge-dedup with max semantics.
    #[test]
    fn incremental_merge_equals_naive(
        lists in prop::collection::vec(input_list(1, 25), 0..5),
    ) {
        let inputs: Vec<operators::BoxedStream<'static>> = lists
            .iter()
            .map(|l| Box::new(VecStream::new(l.clone())) as operators::BoxedStream<'static>)
            .collect();
        let merge = IncrementalMerge::new(inputs);
        let got = materialize(merge);

        // Reference: flatten, sort desc, keep first occurrence per binding.
        let mut flat: Vec<PartialAnswer> = lists.into_iter().flatten().collect();
        flat.sort_by(|a, b| b.cmp(a));
        let mut seen = std::collections::HashSet::new();
        let want: Vec<PartialAnswer> = flat
            .into_iter()
            .filter(|a| seen.insert(a.binding.clone()))
            .collect();

        prop_assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            prop_assert!(a.score.approx_eq(b.score, 1e-12));
            // Dedup keeps max score per binding: scores agree rankwise.
        }
        // Sortedness.
        for w in got.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }

    /// `top_k` is a prefix of the full materialization.
    #[test]
    fn top_k_is_prefix(
        l in input_list(1, 40),
        k in 0usize..50,
    ) {
        let mut s1 = VecStream::new(l.clone());
        let got = top_k(&mut s1, k);
        let full = materialize(VecStream::new(l));
        prop_assert_eq!(got.len(), k.min(full.len()));
        for (a, b) in got.iter().zip(&full) {
            prop_assert_eq!(a, b);
        }
    }

    /// Upper bounds never underestimate the next answer, through a 2-level
    /// operator tree (merge feeding a join).
    #[test]
    fn bounds_are_sound_through_composition(
        l1 in input_list(1, 20),
        l2 in input_list(1, 20),
        r in input_list(2, 25),
    ) {
        let m = OpMetrics::new_handle();
        let merge = IncrementalMerge::new(vec![
            Box::new(VecStream::new(l1)) as operators::BoxedStream<'static>,
            Box::new(VecStream::new(l2)),
        ]);
        let mut join = RankJoin::new(
            Box::new(merge),
            Box::new(VecStream::new(r)),
            vec![Var(0)],
            PullStrategy::Adaptive,
            m,
        );
        loop {
            let bound = join.upper_bound();
            match join.next() {
                Some(a) => {
                    let b = bound.expect("bound exists while answers remain");
                    prop_assert!(b + Score::new(1e-9) >= a.score,
                        "bound {:?} < answer {:?}", b, a.score);
                }
                None => break,
            }
        }
    }
}
