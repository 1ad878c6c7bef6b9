//! Edge-case and failure-injection tests for the operator layer, beyond
//! the per-module unit tests.

use operators::{
    top_k_blocks, Binding, BlockIncrementalMerge, BlockRankJoin, BlockStream, BoxedBlockStream,
    OpMetrics, PartialAnswer, ReplayBlocks,
};
use sparql::Var;
use specqp_common::{Score, TermId};

fn ans(pairs: &[(u32, u32)], score: f64) -> PartialAnswer {
    PartialAnswer::new(
        Binding::from_pairs(pairs.iter().map(|&(v, t)| (Var(v), TermId(t))).collect()),
        Score::new(score),
    )
}

/// Replays `rows` (sorted here) over the variables they bind, in 4-row
/// blocks.
fn replay(mut rows: Vec<PartialAnswer>, vars: &[u32]) -> BoxedBlockStream<'static> {
    rows.sort_by(|a, b| b.cmp(a));
    Box::new(ReplayBlocks::new(
        rows,
        vars.iter().copied().map(Var).collect(),
        4,
    ))
}

fn join<'g>(
    left: BoxedBlockStream<'g>,
    right: BoxedBlockStream<'g>,
    metrics: operators::MetricsHandle,
) -> BlockRankJoin<'g> {
    BlockRankJoin::new(left, right, vec![Var(0)], metrics, 4)
}

fn drain(mut s: impl BlockStream) -> Vec<PartialAnswer> {
    let mut out = Vec::new();
    while let Some(b) = s.next_block() {
        out.extend(b.to_answers());
    }
    out
}

#[test]
fn join_of_joins_three_way() {
    // (A ⋈ B) ⋈ C with a shared key variable ?0 everywhere.
    let a: Vec<_> = (0..20)
        .map(|i| ans(&[(0, i % 5), (1, i)], 1.0 - f64::from(i) * 0.01))
        .collect();
    let b: Vec<_> = (0..20)
        .map(|i| ans(&[(0, i % 5), (2, i)], 1.0 - f64::from(i) * 0.02))
        .collect();
    let c: Vec<_> = (0..20)
        .map(|i| ans(&[(0, i % 5), (3, i)], 1.0 - f64::from(i) * 0.03))
        .collect();
    let m = OpMetrics::new_handle();
    let ab = join(
        replay(a.clone(), &[0, 1]),
        replay(b.clone(), &[0, 2]),
        m.clone(),
    );
    let mut abc = join(Box::new(ab), replay(c.clone(), &[0, 3]), m);
    let got = top_k_blocks(&mut abc, 10);
    assert_eq!(got.len(), 10);
    for w in got.windows(2) {
        assert!(w[0].score >= w[1].score);
    }
    // Reference: brute force over all triples of rows.
    let mut best = Score::ZERO;
    for x in &a {
        for y in &b {
            for z in &c {
                if x.binding.get(Var(0)) == y.binding.get(Var(0))
                    && y.binding.get(Var(0)) == z.binding.get(Var(0))
                {
                    best = best.max(x.score + y.score + z.score);
                }
            }
        }
    }
    assert_eq!(got[0].score, best);
    // The join result binds all four variables.
    for v in [Var(0), Var(1), Var(2), Var(3)] {
        assert!(got[0].binding.get(v).is_some());
    }
}

#[test]
fn merge_of_merges_composes() {
    let l1 = vec![ans(&[(0, 1)], 1.0), ans(&[(0, 2)], 0.4)];
    let l2 = vec![ans(&[(0, 3)], 0.8)];
    let l3 = vec![ans(&[(0, 1)], 0.9), ans(&[(0, 4)], 0.3)];
    let inner = BlockIncrementalMerge::new(vec![replay(l1, &[0]), replay(l2, &[0])], 4);
    let outer = BlockIncrementalMerge::new(vec![Box::new(inner), replay(l3, &[0])], 4);
    let out = drain(outer);
    // Binding {0→1} appears in l1 (1.0) and l3 (0.9): dedup keeps 1.0.
    assert_eq!(out.len(), 4);
    assert_eq!(out[0].score, Score::new(1.0));
    assert!(
        out.iter()
            .filter(|a| a.binding.get(Var(0)) == Some(TermId(1)))
            .count()
            == 1
    );
}

#[test]
fn zero_score_tuples_flow_through() {
    let l = vec![ans(&[(0, 1)], 0.0)];
    let r = vec![ans(&[(0, 1)], 0.0)];
    let out = drain(join(
        replay(l, &[0]),
        replay(r, &[0]),
        OpMetrics::new_handle(),
    ));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].score, Score::ZERO);
}

#[test]
fn top_k_zero_returns_nothing_without_pulling() {
    let mut s = ReplayBlocks::new(vec![ans(&[(0, 1)], 1.0)], vec![Var(0)], 4);
    assert!(top_k_blocks(&mut s, 0).is_empty());
    // Stream untouched.
    assert_eq!(s.upper_bound(), Some(Score::new(1.0)));
    assert_eq!(s.next_block().map(|b| b.len()), Some(1));
}

#[test]
fn duplicate_scores_deterministic_order() {
    // Equal scores order by binding (deterministic across runs).
    let items = vec![
        ans(&[(0, 5)], 0.5),
        ans(&[(0, 1)], 0.5),
        ans(&[(0, 3)], 0.5),
    ];
    let out = drain(join(
        replay(items, &[0]),
        replay(
            vec![
                ans(&[(0, 1)], 0.1),
                ans(&[(0, 3)], 0.1),
                ans(&[(0, 5)], 0.1),
            ],
            &[0],
        ),
        OpMetrics::new_handle(),
    ));
    let ids: Vec<_> = out
        .iter()
        .map(|a| a.binding.get(Var(0)).unwrap().0)
        .collect();
    assert_eq!(ids, vec![1, 3, 5], "binding tie-break ascending");
}

#[test]
fn metrics_aggregate_across_whole_tree() {
    let m = OpMetrics::new_handle();
    let l: Vec<_> = (0..10)
        .map(|i| ans(&[(0, i)], 1.0 - f64::from(i) * 0.05))
        .collect();
    let r: Vec<_> = (0..10)
        .map(|i| ans(&[(0, i)], 1.0 - f64::from(i) * 0.05))
        .collect();
    let merge = BlockIncrementalMerge::new(vec![replay(l, &[0])], 4);
    let mut tree = join(Box::new(merge), replay(r, &[0]), m.clone());
    let _ = top_k_blocks(&mut tree, 3);
    assert!(m.join_pulls() > 0);
    assert!(m.answers_created() > 0);
    assert!(m.heap_pushes() > 0);
}
