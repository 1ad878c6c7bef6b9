//! `live_churn`: writes beside reads. XKG at full scale as a live graph
//! under a one-worker service; a writer thread applies a 128-op batch (96
//! asserts of fresh low-score triples, 16 score replacements, 16
//! retractions) every 50 ms, default compaction policy; a reader thread
//! runs the 65 queries closed-loop through `submit`/`wait`, each as Spec-QP
//! and as TriniT, until the writer is done.
//!
//! The same `kgstore`, `stats` and plan-cache layers as the paper workloads,
//! used differently: scans merge an overlay, every commit invalidates the
//! statistics and makes every cached plan stale, and the overlay is folded
//! into a new base every ~85 batches.

use crate::adapter::{self as a, Graph, LiveGraph, PartialAnswer, Service, WriteBatch};
use crate::check;
use crate::inputs::{self, Data, WriteModel};
use crate::layers::{Profile, Regime};
use crate::report::Report;
use crate::schedule::{self, Rng};
use crate::spans::Tracer;
use crate::stats;
use crate::{peak_rss_mb, Ctx};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PERIOD: Duration = Duration::from_millis(50);
const K: usize = 10;
const WORKERS: usize = 1;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Set-up: snapshot bytes → a live service that has run every query once.
fn set_up(data: &Data) -> (Arc<LiveGraph>, Arc<Service>) {
    let live = a::new_live(a::load_graph(&data.snapshot));
    let service = a::start_live_service(Arc::clone(&live), Arc::clone(&data.registry), WORKERS);
    for q in &data.queries {
        for spec in [true, false] {
            a::submit_wait(&service, q, a::mode(spec), K);
        }
    }
    (live, service)
}

/// One timed read.
struct Read {
    sweep: usize,
    query: usize,
    spec: bool,
    ms: f64,
    answers: Vec<check::IdAns>,
    queued_us: f64,
    exec_us: f64,
    handoff_us: f64,
}

#[derive(Default)]
struct Churn {
    reads: Vec<Read>,
    commit_ms: Vec<f64>,
    failures: Vec<String>,
}

/// The timed phase: the writer on its schedule, the reader closed-loop on
/// this thread until the writer has applied its last batch.
fn churn(service: &Service, data: &Data, batches: &[WriteBatch], order: &[usize]) -> Churn {
    let arrivals = schedule::fixed_period(PERIOD, PERIOD * batches.len() as u32);
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let mut out = Churn::default();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut commit_ms = Vec::with_capacity(batches.len());
            let mut refused = 0;
            for (batch, due) in batches.iter().zip(arrivals) {
                schedule::wait_until(start, due);
                let t = Instant::now();
                let epoch = a::apply_writes(service, batch);
                commit_ms.push(t.elapsed().as_secs_f64() * 1e3);
                refused += usize::from(epoch.is_none());
            }
            // SeqCst: the reader must see every commit before it sees `done`.
            done.store(true, Ordering::SeqCst);
            (commit_ms, refused)
        });

        let mut sweep = 0;
        'reading: loop {
            for (position, &j) in order.iter().enumerate() {
                // Which mode goes first alternates by query and by sweep.
                let spec_first = (position + sweep).is_multiple_of(2);
                for spec in [spec_first, !spec_first] {
                    if done.load(Ordering::SeqCst) {
                        break 'reading;
                    }
                    let t = Instant::now();
                    let reply = a::submit_wait(service, &data.queries[j], a::mode(spec), K);
                    let wall = t.elapsed();
                    let answers = a::canon_ids(&reply.outcome.map_or(Vec::new(), |o| o.answers));
                    // A reply under churn can only be checked for form: its
                    // pair may have read another epoch.
                    if let Err(e) = check::well_formed(&answers, K) {
                        out.failures.push(format!("read of query {j}: {e}"));
                    }
                    out.reads.push(Read {
                        sweep,
                        query: j,
                        spec,
                        ms: wall.as_secs_f64() * 1e3,
                        answers,
                        queued_us: reply.queued.as_secs_f64() * 1e6,
                        exec_us: reply.execution.as_secs_f64() * 1e6,
                        handoff_us: wall
                            .saturating_sub(reply.queued + reply.execution)
                            .as_secs_f64()
                            * 1e6,
                    });
                }
            }
            sweep += 1;
        }
        let (commit_ms, refused) = writer.join().expect("writer thread panicked");
        out.commit_ms = commit_ms;
        if refused > 0 {
            out.failures
                .push(format!("{refused} write batches refused"));
        }
    });
    out
}

/// Mean precision at k of each Spec-QP read against the TriniT read of the
/// same query in the same sweep. A commit can land between the two, so a
/// pair may compare two epochs; over some hundred pairs and 32 changed
/// triples per epoch that is noise well inside the metric's bound.
fn paired_precision(reads: &[Read]) -> (f64, usize) {
    let trinit: BTreeMap<(usize, usize), &Read> = reads
        .iter()
        .filter(|r| !r.spec)
        .map(|r| ((r.sweep, r.query), r))
        .collect();
    let precisions: Vec<f64> = reads
        .iter()
        .filter(|r| r.spec)
        .filter_map(|r| Some((r, trinit.get(&(r.sweep, r.query))?)))
        .map(|(spec, trinit)| check::precision_at_k(&spec.answers, &trinit.answers, K))
        .collect();
    (stats::mean(&precisions), precisions.len())
}

/// After the last commit: every query, both modes, against a graph rebuilt
/// from scratch out of the benchmark's own model of the writes.
fn verify_final_state(
    service: &Service,
    live: &LiveGraph,
    data: &Data,
    base: &Graph,
    model: &WriteModel,
    report: &mut Report,
) {
    let oracle_graph = model.rebuild(base);
    let oracle = a::new_engine(&oracle_graph, &data.registry);
    let pinned = a::pinned(live);
    for (j, text) in data.texts.iter().enumerate() {
        // Term ids differ between the two graphs: compare by name.
        let want = a::run_trinit(&oracle, &a::parse(text, &oracle_graph), K);
        let want = a::canon_names(&want.answers, &oracle_graph);
        let names =
            |answers: Option<Vec<PartialAnswer>>| answers.map(|ans| a::canon_names(&ans, &pinned));
        let ask = |spec| {
            names(
                a::submit_wait(service, &data.queries[j], a::mode(spec), K)
                    .outcome
                    .map(|o| o.answers),
            )
        };
        let trinit = ask(false);
        report.check(match &trinit {
            None => Err(format!("final TriniT read of query {j} refused")),
            Some(got) => check::equivalent(got, &want)
                .map_err(|e| format!("query {j}: live TriniT against the rebuilt graph: {e}")),
        });
        let spec = ask(true);
        report.check(match &spec {
            None => Err(format!("final Spec-QP read of query {j} refused")),
            Some(got) => check::speculative_ok(got, &want, K)
                .map_err(|e| format!("query {j}: live Spec-QP against the rebuilt graph: {e}")),
        });
    }
}

fn ms_of(reads: &[Read], keep: impl Fn(&Read) -> bool) -> Vec<f64> {
    reads.iter().filter(|r| keep(r)).map(|r| r.ms).collect()
}

/// Per query read in both modes, the median Spec-QP and TriniT read times.
fn cell_medians(reads: &[Read]) -> Vec<(f64, f64)> {
    stats::paired_medians(reads.iter().map(|r| (r.query, r.spec, r.ms)))
        .into_values()
        .collect()
}

/// Per-layer metrics of layers this workload never enters.
const UNUSED: [&str; 12] = [
    "server.closed_rtt_ms_p50",
    "server.open_rtt_ms_p50",
    "server.wire_overhead_us_p50",
    "server.encode_ns_per_answer",
    "server.decode_ns_per_answer",
    "server.request_bytes_mean",
    "server.response_bytes_mean",
    "server.open_lateness_ms_p95",
    "server.retry_after",
    "server.protocol_errors",
    "speculation.twitter_specqp_over_trinit",
    "detail.open_rtt_ms_p95",
];

pub fn run(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) {
    let datasets = [inputs::xkg(ctx.scale, None)];
    let data = &datasets[0];
    // A traced run churns long enough to see a compaction.
    let seconds = if ctx.traced {
        ctx.seconds * 0.6
    } else {
        ctx.seconds
    };
    let count = schedule::fixed_period(PERIOD, Duration::from_secs_f64(seconds))
        .len()
        .max(1);
    let base = a::load_graph(&data.snapshot);
    let (batches, model) = inputs::write_batches(&base, count, ctx.seed);
    let order = Rng::fork(ctx.seed, 0x11ad).permutation(data.queries.len());
    report.fingerprint = inputs::fold_schedule(
        data.fingerprint,
        order
            .iter()
            .map(|j| *j as u64)
            .chain([ctx.seed, count as u64]),
    );

    let mut setup_s = Vec::new();
    let mut stack: Option<(Arc<LiveGraph>, Arc<Service>)> = None;
    for _ in 0..ctx.setups(SETUPS) {
        if let Some((_, service)) = stack.take() {
            a::stop_service(&service);
        }
        let t = Instant::now();
        stack = Some(set_up(data));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (live, service) = stack.expect("at least one set-up");

    let churned = churn(&service, data, &batches, &order);
    let peak_rss = peak_rss_mb();
    report.attempted += (churned.reads.len() + churned.commit_ms.len()) as u64;
    for f in &churned.failures {
        report.fail(f.clone());
    }
    verify_final_state(&service, &live, data, &base, &model, report);
    let cells = cell_medians(&churned.reads);
    let ratio = stats::ratio_of_pairs(cells.iter());

    if !ctx.traced {
        // As in the paper workloads, throughput and the ratio are built on
        // per-cell medians, here over the sweeps: a compaction stalls one
        // sweep's read of a query, not the query's median.
        let busy_s = cells.iter().map(|(s, t)| s + t).sum::<f64>() / 1e3;
        let (precision, pairs) = paired_precision(&churned.reads);
        report.put_p50("setup_s", setup_s);
        report.put_n(
            "queries_per_s",
            2.0 * cells.len() as f64 / busy_s,
            churned.reads.len(),
        );
        report.put_n("specqp_over_trinit", ratio, cells.len());
        // The medians are over reads, not over the 65 cells: too few cells
        // sit near the middle, and the median cell changes with the seed.
        report.put_p50("specqp_ms_p50", ms_of(&churned.reads, |r| r.spec));
        report.put_p50("trinit_ms_p50", ms_of(&churned.reads, |r| !r.spec));
        report.put_n("precision_at_k", precision, pairs);
        report.put("peak_rss_mb", peak_rss);
        a::stop_service(&service);
        return;
    }

    report.put_n("speculation.xkg_specqp_over_trinit", ratio, cells.len());
    report.put_spec_details(|tp| {
        let of_size = |r: &Read| {
            r.spec && tp.is_none_or(|tp| a::patterns(&data.queries[r.query]).len() == tp)
        };
        ms_of(&churned.reads, of_size)
    });
    report.put_pct("detail.read_ms_p95", &ms_of(&churned.reads, |_| true), 95.0);
    let of_reads = |f: fn(&Read) -> f64| churned.reads.iter().map(f).collect::<Vec<f64>>();
    report.put_service_times(
        of_reads(|r| r.queued_us),
        of_reads(|r| r.exec_us),
        of_reads(|r| r.handoff_us),
    );
    let commit_p50 = stats::percentile_of(&churned.commit_ms, 50.0);
    report.put_p50("service.commit_ms_p50", churned.commit_ms);
    let (shed, rejected, rejected_writes) = a::service_refusals(&service);
    report.put("service.shed", shed as f64);
    report.put("service.rejected", (rejected + rejected_writes) as f64);
    let counters = a::live_counters(&live);
    report.put("kgstore.compactions", counters.compactions as f64);
    report.put("kgstore.epochs", counters.epoch as f64);
    report.put("kgstore.delta_rows_at_end", counters.delta_rows as f64);
    let cache = a::plan_cache_counters(a::service_engine(&service));
    report.put_n(
        "plan_cache.hit_rate",
        cache.hit_rate(),
        cache.lookups as usize,
    );
    report.put("plan_cache.stale", cache.stale as f64);
    a::stop_service(&service);
    drop((live, service, base));

    Profile {
        datasets: &datasets,
        // Every commit empties the statistics and stales every plan, and a
        // sweep of the queries takes longer than a period: reads plan cold.
        regime: Regime::Cold,
        k_of: &|_| K,
        seed: ctx.seed,
        wire: false,
        live: true,
    }
    .run(report, tracer);
    // What the service adds to a commit: `apply_writes` under read load
    // against `LiveGraph::commit` alone on an idle graph.
    let commit_alone_ms = report.value("kgstore.commit_us_per_op").unwrap_or(0.0)
        * inputs::OPS_PER_BATCH as f64
        / 1e3;
    report.put(
        "service.apply_writes_overhead_us_p50",
        (commit_p50 - commit_alone_ms) * 1e3,
    );
    report.zero_unused(&UNUSED);
}
