//! `served_small`: an XKG graph small enough for L2 (16,189 triples, 18
//! queries) behind the loopback wire server over a two-worker service.
//! Queries cost about half a millisecond here, so parsing, the queue
//! hand-off and framing are about half of every round trip, and repeated
//! shapes hit the plan cache: what this workload times is the serving path.
//!
//! * Phase A, closed loop: two connections, each sending its next request
//!   when the previous reply has arrived, cycling the 18 texts in both
//!   modes. Every end-to-end metric comes from here.
//! * Phase B, open loop: one connection with a sender and a receiver thread,
//!   seeded Poisson arrivals at a fixed `OPEN_RATE_PER_S`, modes alternating,
//!   latency timed from each request's due time. At a rate the server keeps
//!   up with, the system is idle between requests, and what a request then
//!   waits for is five threads being woken in turn — on a shared 2-core
//!   machine that median moved by 18% between runs of one commit, so the
//!   open loop runs in the traced run only and reports per-layer metrics
//!   (`server.open_rtt_ms_p50`, `detail.open_rtt_ms_p95`).

use crate::adapter::{self as a, ExecMode, Graph, Reply, Scale, Server, Service};
use crate::check::{self, NameAns};
use crate::inputs::{self, Data};
use crate::layers::{Bag, Profile, Regime};
use crate::report::Report;
use crate::schedule::{self, Rng};
use crate::spans::Tracer;
use crate::stats;
use crate::{peak_rss_mb, Ctx};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop arrival rate: a committed constant, never derived from a
/// measurement at run time, or two commits would be offered different loads.
/// The seed commit's closed-loop capacity here is ~1,800 requests/s on two
/// cores; at 1,000/s the 8-deep execution queue refused about one Poisson
/// burst in 5,000 requests, and a workload must not fail operations, so the
/// rate is 500/s — under 30% of capacity.
pub const OPEN_RATE_PER_S: f64 = 500.0;
const K: usize = 10;
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
const QUERIES: usize = 18;
/// Set-ups per untraced run; `setup_s` is their median. A set-up takes 40 ms
/// here, so a steady median is cheap.
const SETUPS: usize = 15;

/// Graph, service and server, up and warm.
struct Stack {
    graph: Arc<Graph>,
    service: Arc<Service>,
    server: Server,
}

impl Stack {
    /// Set-up: snapshot bytes → a server that has answered every request
    /// shape once.
    fn set_up(data: &Data) -> Stack {
        let graph = Arc::new(a::load_graph(&data.snapshot));
        let service = a::start_service(Arc::clone(&graph), Arc::clone(&data.registry), WORKERS);
        let server = a::start_server(Arc::clone(&service));
        let mut client = a::connect(a::server_addr(&server));
        for text in &data.texts {
            for spec in [true, false] {
                a::roundtrip(&mut client, text, a::mode(spec), K);
            }
        }
        Stack {
            graph,
            service,
            server,
        }
    }

    fn tear_down(self) {
        a::stop_server(&self.server);
        a::stop_service(&self.service);
    }
}

/// One timed request.
#[derive(Clone, Copy)]
struct Timed {
    query: usize,
    spec: bool,
    ms: f64,
    /// When the reply arrived, from the start of the phase.
    done_s: f64,
}

/// What one client thread saw.
#[derive(Default)]
struct Seen {
    timed: Vec<Timed>,
    attempted: u64,
    retry_after: u64,
    failures: Vec<String>,
    precisions: Vec<f64>,
    lateness_ms: Vec<f64>,
}

impl Seen {
    /// Classifies and checks one reply. TriniT is deterministic, so its wire
    /// answers must equal the in-process ones bit for bit; Spec-QP's depend
    /// on what the shared speculation ledger has learnt so far, so they must
    /// only never beat TriniT's.
    fn take(
        &mut self,
        reply: Reply,
        query: usize,
        spec: bool,
        (ms, done_s): (f64, f64),
        truth: &[Vec<NameAns>],
    ) {
        self.attempted += 1;
        match reply {
            Reply::Answers(answers) => {
                let got = a::canon_wire(&answers);
                let outcome = if spec {
                    self.precisions
                        .push(check::precision_at_k(&got, &truth[query], K));
                    check::speculative_ok(&got, &truth[query], K)
                } else {
                    check::identical(&got, &truth[query])
                };
                if let Err(e) = outcome {
                    self.failures
                        .push(format!("query {query} spec={spec}: {e}"));
                }
                self.timed.push(Timed {
                    query,
                    spec,
                    ms,
                    done_s,
                });
            }
            Reply::RetryAfter => {
                self.retry_after += 1;
                self.failures
                    .push(format!("query {query}: refused with RetryAfter"));
            }
            Reply::Failed => self.failures.push(format!("query {query}: error reply")),
        }
    }

    fn absorb(&mut self, other: Seen) {
        self.timed.extend(other.timed);
        self.attempted += other.attempted;
        self.retry_after += other.retry_after;
        self.failures.extend(other.failures);
        self.precisions.extend(other.precisions);
        self.lateness_ms.extend(other.lateness_ms);
    }

    fn into_report(self, report: &mut Report) -> Vec<Timed> {
        report.attempted += self.attempted;
        for f in self.failures {
            report.fail(f);
        }
        self.timed
    }
}

/// The `(query, mode)` combinations in seeded order.
fn combos(n: usize, rng: &mut Rng) -> Vec<(usize, bool)> {
    let mut all: Vec<(usize, bool)> = (0..n).flat_map(|q| [(q, true), (q, false)]).collect();
    rng.shuffle(&mut all);
    all
}

/// Phase A: `threads` closed-loop connections for `span`.
fn closed_loop(
    stack: &Stack,
    data: &Data,
    truth: &[Vec<NameAns>],
    threads: usize,
    span: Duration,
    seed: u64,
) -> Seen {
    let addr = a::server_addr(&stack.server);
    let start = Instant::now();
    let mut all = Seen::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = a::connect(addr);
                    let cycle = combos(data.texts.len(), &mut Rng::fork(seed, 0xc105 + t as u64));
                    let mut seen = Seen::default();
                    for &(query, spec) in cycle.iter().cycle() {
                        if start.elapsed() >= span {
                            break;
                        }
                        let t0 = Instant::now();
                        let reply = a::roundtrip(&mut client, &data.texts[query], a::mode(spec), K);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        let done_s = start.elapsed().as_secs_f64();
                        seen.take(reply, query, spec, (ms, done_s), truth);
                    }
                    seen
                })
            })
            .collect();
        for h in handles {
            all.absorb(h.join().expect("closed-loop client thread panicked"));
        }
    });
    all
}

/// Phase B: Poisson arrivals on one connection for `span`.
fn open_loop(
    stack: &Stack,
    data: &Data,
    truth: &[Vec<NameAns>],
    span: Duration,
    seed: u64,
) -> Seen {
    let mut rng = Rng::fork(seed, 0x09e4);
    let arrivals = schedule::poisson(OPEN_RATE_PER_S, span, &mut rng);
    let cycle = combos(data.texts.len(), &mut rng);
    let mut sender = a::connect(a::server_addr(&stack.server));
    let mut receiver = a::split(&sender);
    let (tx, rx) = mpsc::channel::<(usize, bool, Duration)>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let send = scope.spawn(move || {
            let mut lateness_ms = Vec::with_capacity(arrivals.len());
            for (i, due) in arrivals.into_iter().enumerate() {
                let (query, spec) = cycle[i % cycle.len()];
                lateness_ms.push(schedule::wait_until(start, due).as_secs_f64() * 1e3);
                if a::send(&mut sender, &data.texts[query], a::mode(spec), K).is_none()
                    || tx.send((query, spec, due)).is_err()
                {
                    break;
                }
            }
            lateness_ms
        });
        let recv = scope.spawn(move || {
            let mut seen = Seen::default();
            // Replies come back in request order on one connection.
            for (query, spec, due) in rx {
                let reply = a::recv(&mut receiver);
                let done = start.elapsed();
                let ms = schedule::latency_from_due(due, done).as_secs_f64() * 1e3;
                seen.take(reply, query, spec, (ms, done.as_secs_f64()), truth);
            }
            seen
        });
        let lateness_ms = send.join().expect("open-loop sender panicked");
        let mut seen = recv.join().expect("open-loop receiver panicked");
        seen.lateness_ms = lateness_ms;
        seen
    })
}

/// What TriniT answers in process, by names: the truth for every reply.
fn in_process_truth(data: &Data) -> Vec<Vec<NameAns>> {
    let graph = a::load_graph(&data.snapshot);
    let engine = a::new_engine(&graph, &data.registry);
    data.queries
        .iter()
        .map(|q| a::canon_names(&a::run_trinit(&engine, q, K).answers, &graph))
        .collect()
}

fn ms_of(timed: &[Timed], keep: impl Fn(&Timed) -> bool) -> Vec<f64> {
    timed.iter().filter(|t| keep(t)).map(|t| t.ms).collect()
}

/// Completed requests per second in each `SLICE` of the phase. The metric is
/// the median slice: a second in which the machine was busy elsewhere costs
/// one slice, not a share of the total.
fn throughput_by_slice(timed: &[Timed], span: Duration) -> Vec<f64> {
    const SLICE_S: f64 = 0.5;
    let slices = (span.as_secs_f64() / SLICE_S).floor().max(1.0) as usize;
    let width = span.as_secs_f64() / slices as f64;
    let mut counts = vec![0.0; slices];
    for t in timed {
        if let Some(c) = counts.get_mut((t.done_s / width) as usize) {
            *c += 1.0;
        }
    }
    counts.into_iter().map(|c| c / width).collect()
}

/// Σ per-query median Spec-QP round trip ÷ the same for TriniT, and the
/// number of queries seen in both modes.
fn closed_ratio(timed: &[Timed]) -> (f64, usize) {
    let cells = stats::paired_medians(timed.iter().map(|t| (t.query, t.spec, t.ms)));
    (stats::ratio_of_pairs(cells.values()), cells.len())
}

/// In-process closed loop over the same service: what the service itself
/// accounts for a request, and what is left between `submit` and `wait`.
fn probe_service(stack: &Stack, data: &Data, threads: usize, bag: &mut Bag) {
    const REQUESTS_PER_THREAD: usize = 1500;
    let per_thread: Vec<Vec<(f64, f64, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (0..REQUESTS_PER_THREAD)
                        .map(|i| {
                            let q = &data.queries[(i + t * 7) % data.queries.len()];
                            let t0 = Instant::now();
                            let reply = a::submit_wait(&stack.service, q, ExecMode::SpecQp, K);
                            let wall = t0.elapsed();
                            (
                                reply.queued.as_secs_f64() * 1e6,
                                reply.execution.as_secs_f64() * 1e6,
                                wall.saturating_sub(reply.queued + reply.execution)
                                    .as_secs_f64()
                                    * 1e6,
                            )
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("service probe thread panicked"))
            .collect()
    });
    for (queued, execution, handoff) in per_thread.into_iter().flatten() {
        bag.push("queue_wait_us", queued);
        bag.push("exec_us", execution);
        bag.push("handoff_us", handoff);
    }
}

/// One client, one request at a time: each query over the wire and through
/// `submit`/`wait`, paired, so their difference is the wire's share; then
/// the codec alone.
fn probe_server(stack: &Stack, data: &Data, bag: &mut Bag) {
    const ROUNDS: usize = 20;
    let mut client = a::connect(a::server_addr(&stack.server));
    for round in 0..ROUNDS {
        for (j, text) in data.texts.iter().enumerate() {
            // Which of the pair goes first alternates, as in the workloads.
            let (mut wire_us, mut local_us) = (0.0, 0.0);
            for over_wire in [round % 2 == 0, round % 2 != 0] {
                let t = Instant::now();
                if over_wire {
                    a::roundtrip(&mut client, text, ExecMode::SpecQp, K);
                    wire_us = t.elapsed().as_secs_f64() * 1e6;
                } else {
                    a::submit_wait(&stack.service, &data.queries[j], ExecMode::SpecQp, K);
                    local_us = t.elapsed().as_secs_f64() * 1e6;
                }
            }
            bag.push("wire_overhead_us", wire_us - local_us);
        }
    }
    for (j, text) in data.texts.iter().enumerate() {
        let reply = a::submit_wait(&stack.service, &data.queries[j], ExecMode::SpecQp, K);
        let answers = reply.outcome.map(|o| o.answers).unwrap_or_default();
        let wire = a::wire_answers(&answers, &stack.graph);
        let frame = a::encode(&wire);
        bag.push(
            "request_bytes",
            a::request_bytes(text, ExecMode::SpecQp, K) as f64,
        );
        bag.push("response_bytes", frame.len() as f64);
        if !wire.is_empty() {
            const REPS: usize = 64;
            let t = Instant::now();
            for _ in 0..REPS {
                std::hint::black_box(a::encode(&wire));
            }
            let encode_ns = t.elapsed().as_nanos() as f64 / REPS as f64;
            let t = Instant::now();
            for _ in 0..REPS {
                std::hint::black_box(a::decode(&frame));
            }
            let decode_ns = t.elapsed().as_nanos() as f64 / REPS as f64;
            bag.push("encode_ns_per_answer", encode_ns / wire.len() as f64);
            bag.push("decode_ns_per_answer", decode_ns / wire.len() as f64);
        }
    }
}

/// Per-layer metrics of layers this workload never enters.
const UNUSED: [&str; 10] = [
    "kgstore.overlay_scan_ratio",
    "kgstore.commit_us_per_op",
    "kgstore.compact_ms_p50",
    "kgstore.compactions",
    "kgstore.epochs",
    "kgstore.delta_rows_at_end",
    "service.commit_ms_p50",
    "service.apply_writes_overhead_us_p50",
    "speculation.twitter_specqp_over_trinit",
    "detail.read_ms_p95",
];

pub fn run(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) {
    let scale = match ctx.scale {
        Scale::Full => Scale::Small,
        other => other,
    };
    let datasets = [inputs::xkg(scale, Some(QUERIES))];
    let data = &datasets[0];
    report.fingerprint = inputs::fold_schedule(data.fingerprint, [ctx.seed].into_iter());
    let truth = in_process_truth(data);
    let threads = ctx.client_threads(CONNECTIONS);

    let mut setup_s = Vec::new();
    let mut stack = None;
    for _ in 0..ctx.setups(SETUPS) {
        if let Some(previous) = stack.take() {
            Stack::tear_down(previous);
        }
        let t = Instant::now();
        stack = Some(Stack::set_up(data));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let stack = stack.expect("at least one set-up");

    if !ctx.traced {
        // Every end-to-end metric comes from the closed loop, so the closed
        // loop gets the whole run; the open loop runs when traced.
        let span = Duration::from_secs_f64(ctx.seconds);
        let closed = closed_loop(&stack, data, &truth, threads, span, ctx.seed);
        let peak_rss = peak_rss_mb();
        let precision = stats::mean(&closed.precisions);
        let closed = closed.into_report(report);
        let (ratio, cells) = closed_ratio(&closed);
        report.put_p50("setup_s", setup_s);
        report.put_p50("specqp_ms_p50", ms_of(&closed, |t| t.spec));
        report.put_p50("trinit_ms_p50", ms_of(&closed, |t| !t.spec));
        report.put_p50("queries_per_s", throughput_by_slice(&closed, span));
        report.put_n("specqp_over_trinit", ratio, cells);
        report.put_n("precision_at_k", precision, closed.len() / 2);
        report.put("peak_rss_mb", peak_rss);
        stack.tear_down();
        return;
    }

    let span = Duration::from_secs_f64(ctx.seconds / 3.0);
    let closed = closed_loop(&stack, data, &truth, threads, span, ctx.seed);
    let open = open_loop(&stack, data, &truth, span, ctx.seed);
    let retry_after = closed.retry_after + open.retry_after;
    let lateness_ms = open.lateness_ms.clone();
    let closed = closed.into_report(report);
    let open = open.into_report(report);

    report.put_p50("server.closed_rtt_ms_p50", ms_of(&closed, |t| t.spec));
    report.put_p50("server.open_rtt_ms_p50", ms_of(&open, |t| t.spec));
    let (ratio, cells) = closed_ratio(&closed);
    report.put_n("speculation.xkg_specqp_over_trinit", ratio, cells);
    report.put_spec_details(|tp| {
        let of_size = |t: &Timed| {
            t.spec && tp.is_none_or(|tp| a::patterns(&data.queries[t.query]).len() == tp)
        };
        ms_of(&closed, of_size)
    });
    report.put_pct("detail.open_rtt_ms_p95", &ms_of(&open, |_| true), 95.0);
    report.put_pct("server.open_lateness_ms_p95", &lateness_ms, 95.0);
    report.put("server.retry_after", retry_after as f64);

    let mut bag = Bag::default();
    probe_service(&stack, data, threads, &mut bag);
    probe_server(&stack, data, &mut bag);
    report.put_service_times(
        bag.take("queue_wait_us"),
        bag.take("exec_us"),
        bag.take("handoff_us"),
    );
    report.put_p50("server.wire_overhead_us_p50", bag.take("wire_overhead_us"));
    report.put_p50(
        "server.encode_ns_per_answer",
        bag.take("encode_ns_per_answer"),
    );
    report.put_p50(
        "server.decode_ns_per_answer",
        bag.take("decode_ns_per_answer"),
    );
    let request_bytes = bag.take("request_bytes");
    report.put_n(
        "server.request_bytes_mean",
        stats::mean(&request_bytes),
        request_bytes.len(),
    );
    let response_bytes = bag.take("response_bytes");
    report.put_n(
        "server.response_bytes_mean",
        stats::mean(&response_bytes),
        response_bytes.len(),
    );

    let (shed, rejected, _) = a::service_refusals(&stack.service);
    report.put("service.shed", shed as f64);
    report.put("service.rejected", rejected as f64);
    report.put(
        "server.protocol_errors",
        a::server_errors(&stack.server).0 as f64,
    );
    let cache = a::plan_cache_counters(a::service_engine(&stack.service));
    report.put_n(
        "plan_cache.hit_rate",
        cache.hit_rate(),
        cache.lookups as usize,
    );
    report.put("plan_cache.stale", cache.stale as f64);
    stack.tear_down();

    Profile {
        datasets: &datasets,
        regime: Regime::Warm,
        k_of: &|_| K,
        seed: ctx.seed,
        wire: true,
        live: false,
    }
    .run(report, tracer);
    report.zero_unused(&UNUSED);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combos_hold_every_query_in_both_modes() {
        let mut c = combos(4, &mut Rng::new(5));
        assert_eq!(c, combos(4, &mut Rng::new(5)));
        assert_ne!(c, combos(4, &mut Rng::new(6)));
        c.sort_unstable();
        let want: Vec<(usize, bool)> = (0..4).flat_map(|q| [(q, false), (q, true)]).collect();
        assert_eq!(c, want);
    }

    #[test]
    fn closed_ratio_skips_queries_seen_in_one_mode_only() {
        let t = |query, spec, ms| Timed {
            query,
            spec,
            ms,
            done_s: 0.0,
        };
        let timed = [
            t(0, true, 2.0),
            t(0, false, 4.0),
            t(1, true, 100.0),
            t(2, true, 3.0),
            t(2, false, 1.0),
        ];
        assert_eq!(closed_ratio(&timed), (5.0 / 5.0, 2));
    }

    #[test]
    fn throughput_is_counted_per_slice() {
        let t = |done_s| Timed {
            query: 0,
            spec: true,
            ms: 1.0,
            done_s,
        };
        // Two slices of half a second: three replies, then one.
        let timed = [t(0.1), t(0.2), t(0.49), t(0.9)];
        assert_eq!(
            throughput_by_slice(&timed, Duration::from_secs(1)),
            vec![6.0, 2.0]
        );
        // A reply that straggles in after the span is in no slice.
        assert_eq!(
            throughput_by_slice(&[t(1.2)], Duration::from_secs(1)),
            vec![0.0, 0.0]
        );
    }
}
