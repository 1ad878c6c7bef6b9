//! The traced run: per-layer probes and the decomposed pipeline.
//!
//! Nothing inside the crates is instrumented. Each probe times one public
//! call into one layer with the benchmark's own clock; the decomposed
//! pipeline replays a pass of the workload as the sequence of calls the
//! engine makes — statistics, PLANGEN or a plan-cache hit, one execution,
//! verify — with a span around each, and then checks the replay against
//! `run_specqp` itself: same answers, and layer self-times that add up to
//! the time the real call takes (`trace.coverage`).

use crate::adapter::{self as a, Graph, PartialAnswer, PatternKey, QueryPlan, TriplePattern};
use crate::check;
use crate::inputs::{self, Data};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats;
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Samples and sums gathered across datasets before they become metrics.
#[derive(Default)]
pub struct Bag {
    samples: BTreeMap<&'static str, Vec<f64>>,
    sums: BTreeMap<String, f64>,
}

impl Bag {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.sums.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Adds every sum of `other` to this bag's.
    fn absorb(&mut self, other: Bag) {
        for (name, value) in other.sums {
            self.add(&name, value);
        }
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    pub fn take(&mut self, name: &str) -> Vec<f64> {
        self.samples.remove(name).unwrap_or_default()
    }

    /// `num ÷ den` of two sums, 0 when nothing was summed.
    fn ratio(&self, num: &str, den: &str) -> f64 {
        match self.sum(den) {
            0.0 => 0.0,
            d => self.sum(num) / d,
        }
    }
}

/// Nanoseconds per call over `reps` back-to-back calls: one clock read costs
/// about as much as an index lookup, so the short calls are timed in runs.
fn ns_per_call<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    t.elapsed().as_nanos() as f64 / reps as f64
}

fn us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// The 20 longest match lists the workload's queries can read.
const LONGEST_LISTS: usize = 20;

fn unique_patterns(data: &Data) -> Vec<TriplePattern> {
    let mut seen = HashSet::new();
    data.queries
        .iter()
        .flat_map(|q| a::input_patterns(&data.registry, q))
        .filter(|p| seen.insert(a::pattern_key(p)))
        .collect()
}

/// Keys of the longest match lists the dataset's queries can read.
fn longest_lists(data: &Data, graph: &Graph) -> Vec<PatternKey> {
    let mut keys: Vec<(usize, PatternKey)> = unique_patterns(data)
        .iter()
        .map(a::pattern_key)
        .map(|key| (a::match_lookup(graph, key), key))
        .collect();
    keys.sort_by_key(|(len, _)| std::cmp::Reverse(*len));
    keys.iter().take(LONGEST_LISTS).map(|(_, k)| *k).collect()
}

/// Time to drain `keys` once, and the rows read.
fn scan_all(graph: &Graph, keys: &[PatternKey]) -> (f64, usize) {
    let t = Instant::now();
    let mut rows = 0;
    for key in keys {
        let (n, sum) = a::scan_list(graph, *key);
        black_box(sum);
        rows += n;
    }
    (t.elapsed().as_nanos() as f64, rows)
}

/// Where a pipeline pass over one dataset puts what it finds.
struct Sink<'a> {
    data: &'a Data,
    graph: &'a Graph,
    tracer: &'a mut Tracer,
    /// Samples, across datasets.
    bag: &'a mut Bag,
    /// Sums over this pass.
    pass: Bag,
    report: &'a mut Report,
    next_request: &'a mut u64,
}

/// What the decomposed pipeline made of one request.
struct Replayed {
    plan: QueryPlan,
    answers: Vec<PartialAnswer>,
    /// Wall time of the engine layers, first span to last.
    engine_ns: f64,
}

/// How the decomposed pipeline treats the engine's caches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// First sight of every query: statistics, cardinalities, plans and the
    /// speculation ledger start empty at each one.
    Cold,
    /// The pass runs on an engine that has seen every `(query, k)` before.
    Warm,
}

pub struct Profile<'d> {
    pub datasets: &'d [Data],
    pub regime: Regime,
    /// `k` for query `j` of a dataset.
    pub k_of: &'d dyn Fn(usize) -> usize,
    pub seed: u64,
    /// Queries arrive as text and answers leave as frames.
    pub wire: bool,
    /// Probe the live-write path of `kgstore` as well.
    pub live: bool,
}

impl Profile<'_> {
    /// Runs every probe and both pipeline passes and writes the per-layer
    /// metrics of `sparql`, `kgstore`, `relax`, `stats`, `plangen`,
    /// `plan_cache`, `operators`, `speculation`, `datagen` and `trace`.
    pub fn run(&self, report: &mut Report, tracer: &mut Tracer) {
        let mut bag = Bag::default();
        let mut next_request = 1;
        for data in self.datasets {
            bag.add("generate_s", data.generate_s);
            bag.add("triples", data.triples as f64);
            bag.add("rules", data.rules as f64);
            bag.add("queries", data.queries.len() as f64);
            bag.add("snapshot_bytes", data.snapshot.len() as f64);
            let loads = (0..3).map(|_| us(|| a::load_graph(&data.snapshot)).1 / 1e3);
            bag.add("load_ms", stats::median_of(loads));

            let graph = a::load_graph(&data.snapshot);
            self.probe_static(data, &graph, &mut bag);
            if self.live {
                self.probe_live(data, &graph, &mut bag);
            }
            // The planner's ceiling is always measured cold; the pass that
            // is checked against `run_specqp` runs in the workload's regime.
            let mut pass = |regime| {
                let mut sink = Sink {
                    data,
                    graph: &graph,
                    tracer: &mut *tracer,
                    bag: &mut bag,
                    pass: Bag::default(),
                    report: &mut *report,
                    next_request: &mut next_request,
                };
                self.pipeline_pass(&mut sink, regime);
                sink.pass
            };
            let cold = pass(Regime::Cold);
            let checked = match self.regime {
                Regime::Cold => None,
                Regime::Warm => Some(pass(Regime::Warm)),
            };
            bag.add("cold_planning_ns", cold.sum("planning_ns"));
            bag.add("cold_reference_ns", cold.sum("reference_ns"));
            bag.absorb(checked.unwrap_or(cold));
        }
        self.emit(&mut bag, report);
    }

    /// Probes that need only an immutable graph.
    fn probe_static(&self, data: &Data, graph: &Graph, bag: &mut Bag) {
        for text in &data.texts {
            bag.push("parse_us", ns_per_call(4, || a::parse(text, graph)) / 1e3);
        }

        let patterns = unique_patterns(data);
        for key in patterns.iter().map(a::pattern_key) {
            bag.push(
                "match_lookup_ns",
                ns_per_call(16, || a::match_lookup(graph, key)),
            );
        }
        let longest = longest_lists(data, graph);
        let flat: Vec<(f64, usize)> = (0..3).map(|_| scan_all(graph, &longest)).collect();
        let flat_ns = stats::median_of(flat.iter().map(|(ns, _)| *ns));
        bag.add("scan_ns", flat_ns);
        bag.add("scan_rows", flat[0].1 as f64);

        for q in &data.queries {
            for p in a::patterns(q) {
                bag.push(
                    "relax_ns",
                    ns_per_call(8, || a::relax_lookup(&data.registry, p)),
                );
                bag.push("fanout", a::relax_lookup(&data.registry, p) as f64);
            }
        }

        for p in &patterns {
            let catalog = a::StatsCatalog::new();
            bag.push(
                "stats_cold_us",
                us(|| a::pattern_stats(&catalog, graph, p)).1,
            );
            bag.push(
                "stats_warm_ns",
                ns_per_call(16, || a::pattern_stats(&catalog, graph, p)),
            );
        }

        let catalog = a::StatsCatalog::new();
        let oracle = a::ExactCardinality::new();
        let engine = a::new_engine(graph, &data.registry);
        for (j, q) in data.queries.iter().enumerate() {
            let k = (self.k_of)(j);
            bag.push(
                "card_cold_us",
                us(|| a::cardinality(&a::ExactCardinality::new(), graph, q)).1,
            );
            bag.push(
                "plan_cold_us",
                us(|| a::plan_cold(graph, &data.registry, q, k)).1,
            );
            // The first call fills the shared catalog and oracle.
            a::plan_query(graph, &data.registry, &catalog, &oracle, q, k);
            bag.push(
                "plan_warm_us",
                us(|| a::plan_query(graph, &data.registry, &catalog, &oracle, q, k)).1,
            );
            bag.push(
                "estimate_us",
                us(|| a::estimate(&catalog, &oracle, graph, q, k)).1,
            );
            a::engine_plan(&engine, q, k);
            bag.push(
                "cache_hit_us",
                ns_per_call(8, || a::engine_plan(&engine, q, k)) / 1e3,
            );
        }
    }

    /// Probes of the live-write path: scans through an overlay, `commit`
    /// alone, and forced compaction.
    fn probe_live(&self, data: &Data, graph: &Graph, bag: &mut Bag) {
        const COMMITS_PER_CYCLE: usize = 8;
        const CYCLES: usize = 3;
        let (batches, _) = inputs::write_batches(graph, 1 + COMMITS_PER_CYCLE * CYCLES, self.seed);
        let live = a::new_live_manual(a::load_graph(&data.snapshot));

        let longest = longest_lists(data, graph);

        a::commit(&live, &batches[0]);
        let overlaid = a::pinned(&live);
        let flat = (0..3).map(|_| scan_all(graph, &longest).0);
        let over = (0..3).map(|_| scan_all(&overlaid, &longest).0);
        bag.add("overlay_flat_ns", stats::median_of(flat));
        bag.add("overlay_ns", stats::median_of(over));

        for cycle in batches[1..].chunks(COMMITS_PER_CYCLE) {
            for batch in cycle {
                let (_, t) = us(|| a::commit(&live, batch));
                bag.push("commit_us_per_op", t / a::batch_len(batch) as f64);
            }
            bag.push("compact_ms", us(|| a::compact(&live)).1 / 1e3);
        }
    }

    /// One pass over the dataset's queries, each both as the decomposed
    /// pipeline and through `run_specqp` on an engine in the same state.
    /// Which of the two goes first alternates by query: whichever runs
    /// second finds the query's match lists in the CPU's caches.
    fn pipeline_pass(&self, sink: &mut Sink<'_>, regime: Regime) {
        let (data, graph) = (sink.data, sink.graph);
        let registry = &*data.registry;
        let warm_engine = a::new_engine(graph, registry);
        if regime == Regime::Warm {
            // What a steady workload's warm-up leaves behind: every plan
            // cached, and the speculation ledger as one full pass left it.
            for (j, q) in data.queries.iter().enumerate() {
                a::run_specqp(&warm_engine, q, (self.k_of)(j));
                a::run_trinit(&warm_engine, q, (self.k_of)(j));
            }
        }
        let mut unrecovered = HashSet::new();
        for (j, query) in data.queries.iter().enumerate() {
            let k = (self.k_of)(j);
            let request = *sink.next_request;
            *sink.next_request += 1;
            let fresh_engine;
            let engine = match regime {
                Regime::Cold => {
                    fresh_engine = a::new_engine(graph, registry);
                    &fresh_engine
                }
                Regime::Warm => &warm_engine,
            };
            let mut replay = None;
            let mut reference = None;
            for replay_turn in [j % 2 == 0, j % 2 != 0] {
                if replay_turn {
                    replay = Some(self.replay(sink, engine, regime, j, request));
                } else {
                    // The engine's own entry point, untraced.
                    let t = Instant::now();
                    let out = a::run_specqp(engine, query, k);
                    reference = Some((out, t.elapsed().as_nanos() as f64));
                }
            }
            let (replay, (out, reference_ns)) = (
                replay.expect("the replay ran"),
                reference.expect("the reference ran"),
            );
            sink.pass.add("pass_queries", 1.0);
            sink.pass.add("reference_ns", reference_ns);
            sink.pass
                .add("mis", f64::from(u8::from(out.mis_speculated)));
            sink.pass.add("fallback_stages", out.fallback_stages as f64);
            sink.pass.add("wasted_answers", out.wasted_answers as f64);
            if out.fallback_stages == 0 {
                // Re-executions are not replayed; `recovery_overhead`
                // accounts for them instead.
                unrecovered.insert(request);
                sink.pass.add("reference_unrecovered_ns", reference_ns);
                sink.pass.add("replay_unrecovered_ns", replay.engine_ns);
                // A warm engine's ledger may move on between the two calls;
                // where it changed the plan there is nothing to compare.
                if out.plan == replay.plan {
                    sink.report.check(
                        check::identical(
                            &a::canon_ids(&replay.answers),
                            &a::canon_ids(&out.answers),
                        )
                        .map_err(|e| {
                            format!("{} query {j}: replay and run_specqp: {e}", data.name)
                        }),
                    );
                }
            }

            // TriniT's execution: the other side of every operator count,
            // and the true top-k that PLANGEN's prediction is judged by.
            let trinit_plan = a::trinit_plan(query);
            let t = Instant::now();
            let (truth, counts) = a::exec_plan(graph, registry, query, &trinit_plan, k);
            let trinit_ns = t.elapsed().as_nanos() as f64;
            sink.bag.push("exec_trinit_ms", trinit_ns / 1e6);
            sink.pass.add("trinit_exec_ns", trinit_ns);
            for (count, v) in counts.named() {
                sink.pass.add(&format!("trinit_{count}"), v as f64);
            }
            let spec_lists = a::plan_input_patterns(registry, query, &replay.plan);
            sink.pass.add("spec_rows", list_rows(graph, &spec_lists));
            sink.pass.add(
                "trinit_rows",
                list_rows(graph, &a::input_patterns(registry, query)),
            );
            let (pruned, relaxable) = a::plan_pruning(registry, query, &replay.plan);
            sink.pass.add("pruned", pruned as f64);
            sink.pass.add("relaxable", relaxable as f64);
            let (exact, covering) =
                a::prediction_quality(graph, registry, query, &replay.plan, &truth);
            sink.pass.add("exact", f64::from(u8::from(exact)));
            sink.pass.add("covering", f64::from(u8::from(covering)));
            sink.report.check(check::speculative_ok(
                &a::canon_ids(&replay.answers),
                &a::canon_ids(&truth),
                k,
            ));
        }
        let own = sink.tracer.self_ns_by_name(|r| unrecovered.contains(&r));
        for layer in ["stats", "plangen", "plan_cache", "operators", "speculation"] {
            sink.pass
                .add("layer_self_ns", own.get(layer).copied().unwrap_or(0) as f64);
        }
    }

    /// One request as the sequence of calls the engine makes, a span around
    /// each: (parse →) statistics → PLANGEN, or a plan-cache hit → one
    /// execution → verify (→ encode, decode).
    fn replay(
        &self,
        sink: &mut Sink<'_>,
        engine: &a::Engine<'_>,
        regime: Regime,
        j: usize,
        request: u64,
    ) -> Replayed {
        let (data, graph, k) = (sink.data, sink.graph, (self.k_of)(j));
        let registry = &*data.registry;
        let (bag, pass) = (&mut *sink.bag, &mut sink.pass);
        sink.tracer.span("request", request, |t| {
            let parsed;
            let query = if self.wire {
                parsed = t.span("sparql", request, |_| a::parse(&data.texts[j], graph));
                &parsed
            } else {
                &data.queries[j]
            };
            let started = Instant::now();
            let plan = match regime {
                Regime::Cold => {
                    let catalog = a::StatsCatalog::new();
                    let oracle = a::ExactCardinality::new();
                    let (_, stats_ns) = t.timed("stats", request, |_| {
                        for p in a::planner_patterns(registry, query) {
                            a::pattern_stats(&catalog, graph, &p);
                        }
                    });
                    let (plan, plan_ns) = t.timed("plangen", request, |_| {
                        a::plan_query(graph, registry, &catalog, &oracle, query, k)
                    });
                    pass.add("planning_ns", (stats_ns + plan_ns) as f64);
                    plan
                }
                Regime::Warm => {
                    let (plan, ns) =
                        t.timed("plan_cache", request, |_| a::engine_plan(engine, query, k));
                    pass.add("planning_ns", ns as f64);
                    plan
                }
            };
            let ((answers, counts), exec_ns) = t.timed("operators", request, |_| {
                a::exec_plan(graph, registry, query, &plan, k)
            });
            let (_, verify_ns) = t.timed("speculation", request, |_| {
                a::verify(registry, query, &plan, &answers, k)
            });
            let engine_ns = started.elapsed().as_nanos() as f64;
            bag.push("exec_specqp_ms", exec_ns as f64 / 1e6);
            bag.push("verify_us", verify_ns as f64 / 1e3);
            pass.add("exec_verify_ns", (exec_ns + verify_ns) as f64);
            pass.add("spec_exec_ns", exec_ns as f64);
            for (count, v) in counts.named() {
                pass.add(&format!("specqp_{count}"), v as f64);
            }
            if self.wire {
                t.span("server", request, |_| {
                    let frame = a::encode(&a::wire_answers(&answers, graph));
                    black_box(a::decode(&frame));
                });
            }
            Replayed {
                plan,
                answers,
                engine_ns,
            }
        })
    }

    fn emit(&self, bag: &mut Bag, report: &mut Report) {
        report.put_p50("sparql.parse_us_p50", bag.take("parse_us"));
        report.put("kgstore.snapshot_load_ms", bag.sum("load_ms"));
        report.put(
            "kgstore.snapshot_bytes_per_triple",
            bag.ratio("snapshot_bytes", "triples"),
        );
        report.put_p50("kgstore.match_lookup_ns_p50", bag.take("match_lookup_ns"));
        report.put_n(
            "kgstore.scan_ns_per_row",
            bag.ratio("scan_ns", "scan_rows"),
            bag.sum("scan_rows") as usize,
        );
        report.put_p50("relax.lookup_ns_p50", bag.take("relax_ns"));
        let fanout = bag.take("fanout");
        report.put_n("relax.fanout_mean", stats::mean(&fanout), fanout.len());
        report.put_p50("stats.pattern_stats_cold_us_p50", bag.take("stats_cold_us"));
        report.put_p50("stats.pattern_stats_warm_ns_p50", bag.take("stats_warm_ns"));
        report.put_p50("stats.estimate_us_p50", bag.take("estimate_us"));
        report.put_p50("stats.cardinality_cold_us_p50", bag.take("card_cold_us"));
        report.put_p50("plangen.plan_cold_us_p50", bag.take("plan_cold_us"));
        report.put_p50("plangen.plan_warm_us_p50", bag.take("plan_warm_us"));
        report.put(
            "plangen.share_cold",
            bag.ratio("cold_planning_ns", "cold_reference_ns"),
        );
        report.put_p50("plan_cache.hit_us_p50", bag.take("cache_hit_us"));
        if self.live {
            report.put(
                "kgstore.overlay_scan_ratio",
                bag.ratio("overlay_ns", "overlay_flat_ns"),
            );
            report.put_p50("kgstore.commit_us_per_op", bag.take("commit_us_per_op"));
            report.put_p50("kgstore.compact_ms_p50", bag.take("compact_ms"));
        }

        let queries = bag.sum("pass_queries");
        let per_query = |bag: &Bag, name: &str| bag.sum(name) / queries.max(1.0);
        report.put("plangen.pruned_fraction", bag.ratio("pruned", "relaxable"));
        report.put("plangen.prediction_exact_rate", per_query(bag, "exact"));
        report.put(
            "plangen.prediction_covering_rate",
            per_query(bag, "covering"),
        );
        report.put_p50("operators.exec_specqp_ms_p50", bag.take("exec_specqp_ms"));
        report.put_p50("operators.exec_trinit_ms_p50", bag.take("exec_trinit_ms"));
        for side in ["specqp", "trinit"] {
            for count in [
                "sorted_accesses",
                "random_accesses",
                "answers_created",
                "heap_pushes",
            ] {
                let name = format!("operators.{side}_{count}");
                report.put_n(
                    &name,
                    per_query(bag, &format!("{side}_{count}")),
                    queries as usize,
                );
            }
        }
        let accesses = bag.sum("specqp_sorted_accesses") + bag.sum("trinit_sorted_accesses");
        report.put(
            "operators.ns_per_sorted_access",
            (bag.sum("spec_exec_ns") + bag.sum("trinit_exec_ns")) / accesses.max(1.0),
        );
        report.put(
            "operators.read_depth_ratio",
            accesses / (bag.sum("spec_rows") + bag.sum("trinit_rows")).max(1.0),
        );
        report.put_p50("speculation.verify_us_p50", bag.take("verify_us"));
        report.put("speculation.mis_rate", per_query(bag, "mis"));
        report.put(
            "speculation.fallback_stages_per_100q",
            100.0 * per_query(bag, "fallback_stages"),
        );
        report.put(
            "speculation.wasted_answers_per_query",
            per_query(bag, "wasted_answers"),
        );
        report.put(
            "speculation.recovery_overhead",
            bag.sum("reference_ns") / (bag.sum("planning_ns") + bag.sum("exec_verify_ns")).max(1.0),
        );
        report.put("datagen.generate_s", bag.sum("generate_s"));
        report.put("datagen.triples", bag.sum("triples"));
        report.put("datagen.rules", bag.sum("rules"));
        report.put("datagen.queries", bag.sum("queries"));
        report.put(
            "trace.coverage",
            bag.ratio("layer_self_ns", "reference_unrecovered_ns"),
        );
        report.put(
            "trace.overhead_ratio",
            bag.ratio("replay_unrecovered_ns", "reference_unrecovered_ns"),
        );
    }
}

fn list_rows(graph: &Graph, patterns: &[TriplePattern]) -> f64 {
    patterns
        .iter()
        .map(|p| a::match_lookup(graph, a::pattern_key(p)) as f64)
        .sum()
}
