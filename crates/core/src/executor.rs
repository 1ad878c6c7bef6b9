//! Plan execution: operator-tree construction (§3.2.2), the one runner
//! every plan goes through, and the naive reference executor.
//!
//! Given a [`QueryPlan`]:
//!
//! 1. every **join-group** pattern is a plain [`BlockScan`] (no
//!    relaxations),
//! 2. every **singleton** merges the pattern's scan (weight 1) and one scan
//!    per relaxation of [`RelaxationRegistry::relaxations_for`] (weight
//!    `wᵢ`) — the pattern's scan left out when the plan is the
//!    [delta](QueryPlan::delta) of that pattern. PLANGEN's check and the
//!    verifier's candidates come from the same enumeration, so a plan and
//!    its verdict see every input the tree can merge. A pattern with one
//!    input keeps the bare scan ([`pattern_stream`]),
//! 3. the streams, join group first and each next one sharing a variable
//!    with those before it where the query allows, are combined by a
//!    left-deep chain of rank joins (Fig. 5).
//!
//! One shape is not a chain: a star with two or more multi-row patterns
//! (the rule is [`star_join_var`]). Its patterns become the parts of one
//! [`BlockStarJoin`] over the same inputs — the pattern's scan unless the
//! plan is its delta, plus its relaxations' scans when it is a singleton —
//! which runs the Threshold Algorithm over them and expands each star
//! binding's answers lazily, where the chain would materialize every
//! binding's cross product.
//!
//! Every operator moves blocks of up to `block_size` rows; the block size
//! changes how work is batched, never the answers, their order or their
//! scores. The TriniT baseline (§2.1, Fig. 2) is simply
//! [`QueryPlan::all_relaxed`] run through the same machinery. [`run_naive`]
//! is a brute-force executor (drain every scan + max-dedup + hash join +
//! sort) used as ground truth by the test suite.

use crate::engine::EngineConfig;
use crate::plan::QueryPlan;
use kgstore::KnowledgeGraph;
use operators::{
    is_star, pattern_stream, top_k_blocks_floored, Binding, BlockRankJoin, BlockScan,
    BlockStarJoin, BlockStream, BoxedBlockStream, ExecutionMode, MetricsHandle, OpMetrics,
    PartialAnswer, PullStrategy, StarPart, DEFAULT_BLOCK_SIZE,
};
use relax::RelaxationRegistry;
use sparql::{Query, TriplePattern, Var};
use specqp_common::{FxHashMap, Score, TermId};

/// Builds the operator tree for `plan` over `query`. Every operator shares `metrics`, so the paper's "answer objects created"
/// counter aggregates the whole tree.
fn build_tree<'g>(
    graph: &'g KnowledgeGraph,
    query: &Query,
    plan: &QueryPlan,
    registry: &RelaxationRegistry,
    metrics: MetricsHandle,
    block_size: usize,
) -> BoxedBlockStream<'g> {
    assert_eq!(plan.len(), query.len(), "plan/query arity mismatch");
    let block_size = block_size.max(1);
    // A star with two or more multi-row patterns: the Threshold Algorithm
    // over the same inputs the chain below would merge.
    if let Some(star) = star_join_var(query) {
        let parts = star_parts(query, plan, registry);
        return Box::new(BlockStarJoin::new(graph, star, parts, metrics, block_size));
    }

    // Joined left-deep in `join_order`; each pattern's stream is its one
    // scan or the merge of its inputs.
    let patterns = query.patterns();
    let mut streams = join_order(patterns, plan).into_iter().map(|i| {
        let inputs = pattern_inputs(patterns, i, plan, registry).into_iter();
        let scans = inputs.map(|(pattern, weight)| -> BoxedBlockStream<'g> {
            Box::new(BlockScan::new(
                graph,
                pattern,
                weight,
                metrics.clone(),
                block_size,
            ))
        });
        pattern_stream(scans.collect(), block_size)
    });
    let first = streams.next().expect("a plan has ≥ 1 pattern");
    streams.fold(first, |left, right| {
        block_join(left, right, &metrics, block_size)
    })
}

/// The chain's pattern order: pruned patterns before relaxed ones, and of
/// those the first that shares a variable with the patterns already joined
/// — the first one left only when none does, so the chain opens with a
/// cross product only when the query has no connected order. Each pattern
/// of a star mentions the star variable, so a star keeps the pruned-first
/// order as it is. Pruned patterns go first because that measured faster:
/// listing order instead raised specbench's `specqp_over_trinit` from
/// 0.769 to 0.791 on `paper_steady` and from 0.970 to 1.039 on `paper_cold`
/// (6 alternating pairs each, 2-core container).
fn join_order(patterns: &[TriplePattern], plan: &QueryPlan) -> Vec<usize> {
    let mut left: Vec<usize> = plan
        .join_group()
        .into_iter()
        .chain(plan.singletons())
        .collect();
    let mut order = Vec::with_capacity(left.len());
    let mut joined: Vec<Var> = Vec::new();
    while !left.is_empty() {
        let next = left
            .iter()
            .position(|&i| patterns[i].vars().any(|v| joined.contains(&v)))
            .unwrap_or(0);
        let i = left.remove(next);
        joined.extend(patterns[i].vars());
        order.push(i);
    }
    order
}

/// The star variable of `query` when the executor runs it through
/// [`BlockStarJoin`]: the first variable of the first pattern on which the
/// patterns are a star ([`operators::is_star`]), provided at least two
/// patterns bind a variable besides it — so at least two parts may hold
/// several rows per binding, where a rank join would materialize each
/// binding's cross product. Every other query, key-only stars and stars
/// with one such pattern included, runs as a left-deep chain of rank joins.
/// The rule reads the query only.
pub fn star_join_var(query: &Query) -> Option<Var> {
    let patterns = query.patterns();
    let star = patterns.first()?.vars().find(|&v| is_star(patterns, v))?;
    let multi_row = patterns.iter().filter(|p| p.vars().any(|v| v != star));
    (multi_row.count() >= 2).then_some(star)
}

/// The `(pattern, weight)` inputs `plan` gives pattern `i`: the pattern at
/// weight 1 unless it is the plan's delta target, and its relaxations if it
/// is relaxed. The chain merges them for a singleton; the star join reads
/// them as the pattern's part.
fn pattern_inputs(
    patterns: &[TriplePattern],
    i: usize,
    plan: &QueryPlan,
    registry: &RelaxationRegistry,
) -> Vec<(TriplePattern, Score)> {
    let mut inputs = Vec::new();
    if plan.delta_target() != Some(i) {
        inputs.push((patterns[i], Score::ONE));
    }
    if plan.is_relaxed(i) {
        let relaxations = registry.relaxations_for(&patterns[i]).into_iter();
        inputs.extend(relaxations.map(|r| (r.pattern, Score::new(r.weight))));
    }
    inputs
}

/// Each pattern of `query` as a star part over its [`pattern_inputs`].
fn star_parts(query: &Query, plan: &QueryPlan, registry: &RelaxationRegistry) -> Vec<StarPart> {
    let patterns = query.patterns();
    let part = |(i, &pattern)| StarPart {
        pattern,
        inputs: pattern_inputs(patterns, i, plan, registry),
    };
    patterns.iter().enumerate().map(part).collect()
}

fn block_join<'g>(
    left: BoxedBlockStream<'g>,
    right: BoxedBlockStream<'g>,
    metrics: &MetricsHandle,
    block_size: usize,
) -> BoxedBlockStream<'g> {
    let shared: Vec<Var> = left
        .schema()
        .iter()
        .copied()
        .filter(|v| right.schema().contains(v))
        .collect();
    Box::new(BlockRankJoin::new(
        left,
        right,
        shared,
        metrics.clone(),
        block_size,
    ))
}

/// Executes `plan` to the top-`k` answers with blocks of up to `block_size`
/// rows, on the calling thread: [`QueryPlan::delta`] plans included, which
/// drain only above their floor. `strategy` can only be
/// [`PullStrategy::Adaptive`].
pub fn run_plan_blocks(
    graph: &KnowledgeGraph,
    query: &Query,
    plan: &QueryPlan,
    registry: &RelaxationRegistry,
    metrics: MetricsHandle,
    strategy: PullStrategy,
    k: usize,
    block_size: usize,
) -> Vec<PartialAnswer> {
    let config = EngineConfig {
        pull: strategy,
        execution: ExecutionMode::Block(block_size),
        ..EngineConfig::default()
    };
    run_plan(graph, query, plan, registry, &metrics, &config, k)
}

/// The one runner: builds `plan`'s tree with `config`'s block size and
/// drains its top-`k` (above the floor, for a delta plan) on the calling
/// thread.
pub(crate) fn run_plan(
    graph: &KnowledgeGraph,
    query: &Query,
    plan: &QueryPlan,
    registry: &RelaxationRegistry,
    metrics: &MetricsHandle,
    config: &EngineConfig,
    k: usize,
) -> Vec<PartialAnswer> {
    let block_size = config.execution.block_size();
    let mut tree = build_tree(graph, query, plan, registry, metrics.clone(), block_size);
    top_k_blocks_floored(&mut tree, k, plan.delta_floor())
}

/// Brute-force ground truth: for every pattern, drain the scans of the
/// pattern and of each of its relaxations and keep every binding once, at
/// its maximum score; hash-join all lists; sort by total score descending
/// (deterministic tie-break); truncate to `k`.
///
/// Exhaustive and allocation-heavy by design — use only on test-sized data.
pub fn run_naive(
    graph: &KnowledgeGraph,
    query: &Query,
    registry: &RelaxationRegistry,
    k: usize,
) -> Vec<PartialAnswer> {
    let metrics = OpMetrics::new_handle();
    let drain = |pattern: TriplePattern, weight: Score| {
        let mut scan = BlockScan::new(graph, pattern, weight, metrics.clone(), DEFAULT_BLOCK_SIZE);
        let mut rows = Vec::new();
        while let Some(block) = scan.next_block() {
            rows.extend(block.to_answers());
        }
        rows
    };
    let patterns = query.patterns();

    // Materialize the max-deduplicated list of each pattern.
    let mut lists: Vec<Vec<PartialAnswer>> = Vec::with_capacity(patterns.len());
    for p in patterns {
        let mut sources = vec![drain(*p, Score::ONE)];
        for r in registry.relaxations_for(p) {
            sources.push(drain(r.pattern, Score::new(r.weight)));
        }
        let mut best: FxHashMap<Binding, Score> = FxHashMap::default();
        for a in sources.into_iter().flatten() {
            let score = best.entry(a.binding).or_insert(a.score);
            *score = (*score).max(a.score);
        }
        lists.push(
            best.into_iter()
                .map(|(binding, score)| PartialAnswer::new(binding, score))
                .collect(),
        );
    }

    let mut acc = hash_join_all(patterns, lists);
    acc.sort_by(|a, b| b.cmp(a));
    acc.truncate(k);
    acc
}

/// Folds `lists[i]` (the answers of `patterns[i]`) left to right with hash
/// joins on the shared variables.
fn hash_join_all(patterns: &[TriplePattern], lists: Vec<Vec<PartialAnswer>>) -> Vec<PartialAnswer> {
    let mut lists = lists.into_iter().enumerate();
    let (_, mut acc) = lists.next().expect("a join has ≥ 1 input");
    let mut acc_vars = collect_vars(&patterns[..1]);
    for (idx, list) in lists {
        let vars = collect_vars(&patterns[idx..=idx]);
        let shared: Vec<Var> = acc_vars
            .iter()
            .copied()
            .filter(|v| vars.contains(v))
            .collect();
        let mut table: FxHashMap<Box<[TermId]>, Vec<&PartialAnswer>> = FxHashMap::default();
        for a in &acc {
            table
                .entry(a.binding.key_for(&shared).expect("acc binds shared vars"))
                .or_default()
                .push(a);
        }
        let mut next: Vec<PartialAnswer> = Vec::new();
        for b in &list {
            let key = b.binding.key_for(&shared).expect("list binds shared vars");
            if let Some(partners) = table.get(&key) {
                for a in partners {
                    next.push(PartialAnswer::new(
                        a.binding.merged(&b.binding),
                        a.score + b.score,
                    ));
                }
            }
        }
        for v in vars {
            if !acc_vars.contains(&v) {
                acc_vars.push(v);
            }
        }
        acc_vars.sort();
        acc = next;
    }
    acc
}

fn collect_vars(patterns: &[TriplePattern]) -> Vec<Var> {
    let mut vars: Vec<Var> = Vec::new();
    for p in patterns {
        for v in p.vars() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    vars.sort();
    vars
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgstore::KnowledgeGraphBuilder;
    use relax::{Position, TermRule};
    use sparql::QueryBuilder;

    /// Music KG: singers/lyricists with one relaxation each.
    fn setup() -> (KnowledgeGraph, RelaxationRegistry) {
        let mut b = KnowledgeGraphBuilder::new();
        for (e, c, s) in [
            ("shakira", "singer", 100.0),
            ("beyonce", "singer", 90.0),
            ("adele", "vocalist", 95.0),
            ("sia", "vocalist", 60.0),
            ("shakira", "lyricist", 50.0),
            ("adele", "lyricist", 45.0),
            ("sia", "writer", 40.0),
            ("beyonce", "writer", 30.0),
        ] {
            b.add(e, "type", c, s);
        }
        let g = b.build();
        let d = g.dictionary();
        let ty = d.lookup("type").unwrap();
        let mut reg = RelaxationRegistry::new();
        reg.add(TermRule::with_context(
            Position::Object,
            d.lookup("singer").unwrap(),
            d.lookup("vocalist").unwrap(),
            0.8,
            ty,
        ));
        reg.add(TermRule::with_context(
            Position::Object,
            d.lookup("lyricist").unwrap(),
            d.lookup("writer").unwrap(),
            0.7,
            ty,
        ));
        (g, reg)
    }

    /// `run_plan_blocks` with the adaptive strategy and the default block
    /// size.
    fn run(
        g: &KnowledgeGraph,
        q: &Query,
        plan: &QueryPlan,
        reg: &RelaxationRegistry,
        metrics: MetricsHandle,
        k: usize,
    ) -> Vec<PartialAnswer> {
        run_plan_blocks(
            g,
            q,
            plan,
            reg,
            metrics,
            PullStrategy::Adaptive,
            k,
            DEFAULT_BLOCK_SIZE,
        )
    }

    fn query(g: &KnowledgeGraph) -> Query {
        let d = g.dictionary();
        let ty = d.lookup("type").unwrap();
        let mut b = QueryBuilder::new();
        let s = b.var("s");
        b.pattern(s, ty, d.lookup("singer").unwrap());
        b.pattern(s, ty, d.lookup("lyricist").unwrap());
        b.project(s);
        b.build().unwrap()
    }

    #[test]
    fn trinit_plan_matches_naive_ground_truth() {
        let (g, reg) = setup();
        let q = query(&g);
        let naive = run_naive(&g, &q, &reg, 10);
        let m = OpMetrics::new_handle();
        let trinit = run(&g, &q, &QueryPlan::all_relaxed(2), &reg, m, 10);
        assert_eq!(naive, trinit);
    }

    #[test]
    fn bare_plan_only_sees_original_matches() {
        let (g, reg) = setup();
        let q = query(&g);
        let m = OpMetrics::new_handle();
        let bare = run(&g, &q, &QueryPlan::none_relaxed(2), &reg, m, 10);
        // Only shakira is both singer and lyricist without relaxations.
        assert_eq!(bare.len(), 1);
        let d = g.dictionary();
        assert_eq!(
            bare[0].binding.get(sparql::Var(0)),
            Some(d.lookup("shakira").unwrap())
        );
        assert_eq!(bare[0].score, Score::new(2.0));
    }

    #[test]
    fn mixed_plan_is_subset_of_trinit_with_correct_scores() {
        let (g, reg) = setup();
        let q = query(&g);
        let trinit = run_naive(&g, &q, &reg, 10);
        for plan in [
            QueryPlan::new(2, &[0]),
            QueryPlan::new(2, &[1]),
            QueryPlan::new(2, &[0, 1]),
            QueryPlan::new(2, &[]),
        ] {
            let m = OpMetrics::new_handle();
            let res = run(&g, &q, &plan, &reg, m, 10);
            // Every Spec-QP answer must appear in the full relaxed space
            // with the same score (plans only *prune* relaxations).
            for a in &res {
                let hit = trinit.iter().find(|t| t.binding == a.binding);
                if let Some(t) = hit {
                    assert!(a.score <= t.score);
                }
            }
            // Output is sorted.
            for w in res.windows(2) {
                assert!(w[0].score >= w[1].score);
            }
        }
    }

    #[test]
    fn plan_with_fewer_merges_creates_fewer_objects() {
        let (g, reg) = setup();
        let q = query(&g);
        let m_trinit = OpMetrics::new_handle();
        let _ = run(
            &g,
            &q,
            &QueryPlan::all_relaxed(2),
            &reg,
            m_trinit.clone(),
            3,
        );
        let m_spec = OpMetrics::new_handle();
        let _ = run(&g, &q, &QueryPlan::none_relaxed(2), &reg, m_spec.clone(), 3);
        assert!(
            m_spec.answers_created() <= m_trinit.answers_created(),
            "bare {} vs trinit {}",
            m_spec.answers_created(),
            m_trinit.answers_created()
        );
    }

    /// The delta plan of escalating `singer` holds exactly the answers that
    /// need `vocalist`: united with the pruned plan's answers it is the
    /// escalated plan's result, a floor cuts it, at every block size.
    #[test]
    fn delta_plan_yields_what_escalation_adds() {
        let (g, reg) = setup();
        let q = query(&g);
        let pruned = QueryPlan::none_relaxed(2);
        let delta = |reg: &RelaxationRegistry, floor: Option<f64>, k: usize, block_size: usize| {
            run_plan_blocks(
                &g,
                &q,
                &pruned.delta(0, floor.map(Score::new)),
                reg,
                OpMetrics::new_handle(),
                PullStrategy::Adaptive,
                k,
                block_size,
            )
        };
        for block_size in [1, 64] {
            // Only adele is a vocalist *and* an (unrelaxed) lyricist:
            // 0.8·(95/95) + 45/50.
            let got = delta(&reg, None, 10, block_size);
            assert_eq!(got.len(), 1, "block size {block_size}");
            assert_eq!(got[0].score, Score::new(0.8) + Score::new(45.0 / 50.0));
            assert_eq!(
                delta(&reg, Some(1.7), 10, block_size),
                got,
                "at the floor stays"
            );
            assert!(
                delta(&reg, Some(1.71), 10, block_size).is_empty(),
                "under it goes"
            );
            assert!(delta(&reg, None, 0, block_size).is_empty(), "k = 0");
            assert!(
                delta(&RelaxationRegistry::new(), None, 10, block_size).is_empty(),
                "no relaxation, no relaxed-only row"
            );

            let mut united = run(&g, &q, &pruned, &reg, OpMetrics::new_handle(), 10);
            assert!(crate::speculation::union_top_k(&mut united, got, 10));
            let escalated = pruned.escalated(&[0]);
            let restart = run(&g, &q, &escalated, &reg, OpMetrics::new_handle(), 10);
            assert_eq!(united, restart);
        }
    }

    /// Singers' songs (`sang`, relaxed to `performed`) and lyrics (`wrote`,
    /// relaxed to `penned`): several rows per singer in each, and the star
    /// `?s sang ?song . ?s wrote ?lyric` over them.
    fn star_setup() -> (KnowledgeGraph, RelaxationRegistry, Query) {
        let mut b = KnowledgeGraphBuilder::new();
        for (s, p, o, score) in [
            ("shakira", "sang", "hips", 100.0),
            ("shakira", "sang", "waka", 80.0),
            ("shakira", "performed", "loca", 90.0),
            ("adele", "sang", "hello", 70.0),
            ("adele", "performed", "skyfall", 95.0),
            ("sia", "performed", "chandelier", 60.0),
            ("shakira", "wrote", "l1", 50.0),
            ("shakira", "wrote", "l2", 40.0),
            ("adele", "penned", "l3", 45.0),
            ("adele", "wrote", "l4", 20.0),
            ("sia", "wrote", "l5", 30.0),
            ("shakira", "type", "singer", 10.0),
            ("adele", "type", "singer", 9.0),
        ] {
            b.add(s, p, o, score);
        }
        let g = b.build();
        let d = g.dictionary();
        let id = |name: &str| d.lookup(name).unwrap();
        let mut reg = RelaxationRegistry::new();
        for (from, to, w) in [("sang", "performed", 0.8), ("wrote", "penned", 0.7)] {
            reg.add(TermRule::new(Position::Predicate, id(from), id(to), w));
        }
        let q = sparql::parse_query("SELECT ?s WHERE { ?s <sang> ?song . ?s <wrote> ?lyric }", d)
            .unwrap();
        (g, reg, q)
    }

    /// A delta's target part leaves the original pattern out, in the star
    /// join as in the chain: the delta holds exactly the answers that need
    /// a `performed` row, and a part with no input left empties the star.
    #[test]
    fn star_delta_leaves_the_original_out() {
        let (g, reg, q) = star_setup();
        assert!(star_join_var(&q).is_some());
        let d = g.dictionary();
        let (sang, performed) = (d.lookup("sang").unwrap(), d.lookup("performed").unwrap());
        let (s, song) = (q.var_by_name("s").unwrap(), q.var_by_name("song").unwrap());
        let pruned = QueryPlan::none_relaxed(2);
        for block_size in [1, 64] {
            let delta = |reg: &RelaxationRegistry| {
                let plan = pruned.delta(0, None);
                let m = OpMetrics::new_handle();
                run_plan_blocks(
                    &g,
                    &q,
                    &plan,
                    reg,
                    m,
                    PullStrategy::Adaptive,
                    10,
                    block_size,
                )
            };
            let got = delta(&reg);
            // loca and skyfall with their singers' unrelaxed lyrics.
            assert_eq!(got.len(), 4, "block size {block_size}");
            for a in &got {
                let (singer, song) = (a.binding.get(s).unwrap(), a.binding.get(song).unwrap());
                assert!(!g.contains(singer, sang, song) && g.contains(singer, performed, song));
            }
            assert!(
                delta(&RelaxationRegistry::new()).is_empty(),
                "no relaxation, no input, no answer"
            );

            let mut united = run(&g, &q, &pruned, &reg, OpMetrics::new_handle(), 10);
            assert!(crate::speculation::union_top_k(&mut united, got, 10));
            let escalated = pruned.escalated(&[0]);
            let restart = run(&g, &q, &escalated, &reg, OpMetrics::new_handle(), 10);
            assert_eq!(united, restart);
        }
    }

    /// The executor runs [`BlockStarJoin`] for exactly the queries the shape
    /// rule names: its answers and every work counter then equal a
    /// hand-built star join's over the same parts. Stars the rule leaves to
    /// the chain give the same answers with other counters.
    #[test]
    fn executor_runs_the_star_join_for_exactly_the_rule_shapes() {
        let (g, reg, _) = star_setup();
        // (query, its star variable, whether the rule names it)
        let cases = [
            ("?s <sang> ?a . ?s <wrote> ?b", Some("s"), true),
            ("?a <sang> ?s . ?b <wrote> ?s", Some("s"), true),
            ("?s <sang> ?a . ?a <wrote> ?b", Some("a"), true),
            ("?s ?p ?a . ?s <wrote> ?b", Some("s"), true),
            (
                "?s <sang> ?a . ?s <wrote> ?b . ?s <type> <singer>",
                Some("s"),
                true,
            ),
            ("?s <sang> ?a . ?s <type> <singer>", Some("s"), false),
            ("?s <type> <singer> . ?s <wrote> <l1>", Some("s"), false),
            ("?s <sang> ?a", Some("s"), false),
            ("?s <sang> ?a . ?s <wrote> ?a", None, false),
            ("?s <sang> ?s . ?s <wrote> ?b", None, false),
            ("?s <sang> ?a . ?s <wrote> ?b . ?a <type> ?c", None, false),
        ];
        let counters = |m: &OpMetrics| {
            [
                m.answers_created(),
                m.sorted_accesses(),
                m.join_pulls(),
                m.random_accesses(),
                m.heap_pushes(),
            ]
        };
        for (body, star, rule) in cases {
            let text = format!("SELECT * WHERE {{ {body} }}");
            let q = sparql::parse_query(&text, g.dictionary()).unwrap();
            assert_eq!(star_join_var(&q).is_some(), rule, "{body}");
            for plan in [
                QueryPlan::all_relaxed(q.len()),
                QueryPlan::none_relaxed(q.len()),
            ] {
                let m = OpMetrics::new_handle();
                let got = run(&g, &q, &plan, &reg, m.clone(), 10);
                if plan.relaxed_count() == q.len() {
                    assert_eq!(got, run_naive(&g, &q, &reg, 10), "{body}");
                }
                let Some(star) = star.map(|v| q.var_by_name(v).unwrap()) else {
                    continue;
                };
                let star_metrics = OpMetrics::new_handle();
                let parts = star_parts(&q, &plan, &reg);
                let mut tree =
                    BlockStarJoin::new(&g, star, parts, star_metrics.clone(), DEFAULT_BLOCK_SIZE);
                assert_eq!(operators::top_k_blocks(&mut tree, 10), got, "{body}");
                assert_eq!(counters(&m) == counters(&star_metrics), rule, "{body}");
            }
        }
    }

    /// A snowflake `?x type c1 . ?x p ?y . ?y type c2` whose typed ends are
    /// pruned: the chain joins the middle pattern before the second end, so
    /// it never builds the ends' cross product, and a k the query cannot fill
    /// drains it. Listed in another order, the same plan finds the same
    /// answers.
    #[test]
    fn snowflake_chain_skips_the_cross_product() {
        let mut b = KnowledgeGraphBuilder::new();
        for i in 0..20 {
            b.add(&format!("a{i}"), "type", "c1", 10.0 + f64::from(i));
            b.add(&format!("b{i}"), "type", "c2", 10.0 + f64::from(i));
        }
        for (from, to) in [(0, 3), (2, 2), (5, 7), (9, 1), (11, 19)] {
            b.add(&format!("a{from}"), "p", &format!("b{to}"), 5.0);
        }
        b.add("a4", "q", "b8", 4.0);
        let g = b.build();
        let d = g.dictionary();
        let mut reg = RelaxationRegistry::new();
        let (p, q) = (d.lookup("p").unwrap(), d.lookup("q").unwrap());
        reg.add(TermRule::new(Position::Predicate, p, q, 0.5));

        let query =
            |body: &str| sparql::parse_query(&format!("SELECT * WHERE {{ {body} }}"), d).unwrap();
        let listed = query("?x <type> <c1> . ?x <p> ?y . ?y <type> <c2>");
        let reordered = query("?x <p> ?y . ?x <type> <c1> . ?y <type> <c2>");
        assert!(star_join_var(&listed).is_none());
        let m = OpMetrics::new_handle();
        let got = run(&g, &listed, &QueryPlan::new(3, &[1]), &reg, m.clone(), 100);
        assert_eq!(got.len(), 6);
        assert!(m.answers_created() < 20 * 20, "{}", m.answers_created());
        let other = run(
            &g,
            &reordered,
            &QueryPlan::new(3, &[0]),
            &reg,
            OpMetrics::new_handle(),
            100,
        );
        assert_eq!(got, other);
    }

    #[test]
    fn single_pattern_query_runs() {
        let (g, reg) = setup();
        let d = g.dictionary();
        let ty = d.lookup("type").unwrap();
        let mut b = QueryBuilder::new();
        let s = b.var("s");
        b.pattern(s, ty, d.lookup("singer").unwrap());
        b.project(s);
        let q = b.build().unwrap();
        let m = OpMetrics::new_handle();
        let res = run(&g, &q, &QueryPlan::all_relaxed(1), &reg, m, 4);
        // singer: shakira(1.0), beyonce(0.9); vocalist relaxed: adele(0.8),
        // sia ≈ 0.505.
        assert_eq!(res.len(), 4);
        assert_eq!(res[0].score, Score::ONE);
        assert_eq!(res[2].score, Score::new(0.8));
    }
}
