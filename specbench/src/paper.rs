//! `paper_steady` and `paper_cold`: the paper's §4.4 workloads — XKG and
//! Twitter at full scale, one thread, an in-process engine, every query once
//! as Spec-QP and once as TriniT per pass.
//!
//! * steady: one engine per dataset for the whole run, statistics and plan
//!   cache warm; query `j` of pass `i` runs with `k = [10, 15, 20][(i + j +
//!   offset) mod 3]`, so every pass has the same mix of `k` and three passes
//!   cover every `(query, k)` cell.
//! * cold: a fresh engine per dataset at every pass — empty statistics
//!   catalog, cardinality cache and plan cache — and `k = 10`.
//!
//! Which of the pair runs first alternates by query and by pass. Passes run
//! in rounds of `ROUND`, so that whatever the seed and however fast the
//! machine, every cell is timed equally often; rounds run until the time is
//! used up.

use crate::adapter::{self as a, Engine, Graph, PartialAnswer};
use crate::check;
use crate::inputs::{self, Data};
use crate::layers::{Profile, Regime};
use crate::report::Report;
use crate::schedule::Rng;
use crate::spans::Tracer;
use crate::stats;
use crate::{peak_rss_mb, Ctx};
use std::collections::BTreeMap;
use std::time::Instant;

pub const KS: [usize; 3] = [10, 15, 20];
const COLD_K: usize = 10;
/// Passes that cover every `(query, k)` cell of the steady workload once.
const ROUND: usize = KS.len();
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One timed engine call.
struct Sample {
    pass: usize,
    data: usize,
    query: usize,
    k: usize,
    spec: bool,
    ms: f64,
    answers: Vec<PartialAnswer>,
}

/// The seeded part of the workload.
struct Schedule {
    /// Per dataset, the order its queries are issued in.
    order: Vec<Vec<usize>>,
    k_offset: usize,
    cold: bool,
}

impl Schedule {
    fn new(datasets: &[Data], seed: u64, cold: bool) -> Schedule {
        let mut rng = Rng::fork(seed, 0x9a9e);
        Schedule {
            order: datasets
                .iter()
                .map(|d| rng.permutation(d.queries.len()))
                .collect(),
            k_offset: rng.below(KS.len()),
            cold,
        }
    }

    fn k(&self, pass: usize, query: usize) -> usize {
        if self.cold {
            COLD_K
        } else {
            KS[(pass + query + self.k_offset) % KS.len()]
        }
    }

    fn fingerprint(&self, datasets: &[Data]) -> u64 {
        let data = datasets.iter().map(|d| d.fingerprint);
        let order = self.order.iter().flatten().map(|j| *j as u64);
        inputs::fold_schedule(
            self.k_offset as u64,
            data.chain(order).chain([u64::from(self.cold)]),
        )
    }
}

/// One pass over one dataset; `engine` has whatever state the regime says.
fn pass_over(
    engine: &Engine<'_>,
    data: &Data,
    d: usize,
    pass: usize,
    schedule: &Schedule,
    samples: &mut Vec<Sample>,
) {
    for (position, &j) in schedule.order[d].iter().enumerate() {
        let (query, k) = (&data.queries[j], schedule.k(pass, j));
        // Whichever of the pair runs second finds the lists in cache. Half
        // the queries of every pass start with Spec-QP, and a query starts
        // with the other one in the next pass, so that neither the ratio of
        // a pass nor that of a cell depends on how many passes there were.
        let spec_first = (position + pass).is_multiple_of(2);
        for spec in [spec_first, !spec_first] {
            let t = Instant::now();
            let out = if spec {
                a::run_specqp(engine, query, k)
            } else {
                a::run_trinit(engine, query, k)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            samples.push(Sample {
                pass,
                data: d,
                query: j,
                k,
                spec,
                ms,
                answers: out.answers,
            });
        }
    }
}

/// What the untraced phases measured.
struct Measured {
    setup_s: Vec<f64>,
    samples: Vec<Sample>,
    peak_rss_mb: f64,
    cache: a::CacheCounters,
}

fn measure(datasets: &[Data], schedule: &Schedule, seconds: f64, setups: usize) -> Measured {
    let mut setup_s = Vec::new();
    let mut samples = Vec::new();
    let mut cache = a::CacheCounters::default();
    for rep in 0..setups {
        // Set-up: snapshot bytes in memory → ready for the first timed call.
        let t = Instant::now();
        let graphs: Vec<Graph> = datasets
            .iter()
            .map(|d| a::load_graph(&d.snapshot))
            .collect();
        let engines: Vec<Engine<'_>> = graphs
            .iter()
            .zip(datasets)
            .map(|(g, d)| a::new_engine(g, &d.registry))
            .collect();
        let mut warmup = Vec::new();
        for (d, data) in datasets.iter().enumerate() {
            if schedule.cold {
                // A throwaway cold pass: memory and allocator warm, caches
                // of the engines under test still empty.
                let engine = a::new_engine(&graphs[d], &data.registry);
                pass_over(&engine, data, d, 0, schedule, &mut warmup);
            } else {
                // Every plan the timed passes will ask for, then one pass.
                for q in &data.queries {
                    for k in KS {
                        a::engine_plan(&engines[d], q, k);
                    }
                }
                pass_over(&engines[d], data, d, 0, schedule, &mut warmup);
            }
        }
        drop(warmup);
        setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < setups {
            continue;
        }

        let start = Instant::now();
        let mut pass = 0;
        while pass % ROUND != 0 || pass == 0 || start.elapsed().as_secs_f64() < seconds {
            for (d, data) in datasets.iter().enumerate() {
                if schedule.cold {
                    let engine = a::new_engine(&graphs[d], &data.registry);
                    pass_over(&engine, data, d, pass, schedule, &mut samples);
                    cache.add(a::plan_cache_counters(&engine));
                } else {
                    pass_over(&engines[d], data, d, pass, schedule, &mut samples);
                }
            }
            pass += 1;
        }
        if !schedule.cold {
            for engine in &engines {
                cache.add(a::plan_cache_counters(engine));
            }
        }
    }
    Measured {
        setup_s,
        samples,
        peak_rss_mb: peak_rss_mb(),
        cache,
    }
}

type Cell = (usize, usize, usize);

/// Median time per `(dataset, query, k)` cell, Spec-QP and TriniT.
fn cell_medians(samples: &[Sample]) -> BTreeMap<Cell, (f64, f64)> {
    stats::paired_medians(
        samples
            .iter()
            .map(|s| ((s.data, s.query, s.k), s.spec, s.ms)),
    )
}

/// Σ cell medians of Spec-QP ÷ Σ cell medians of TriniT, over the cells of
/// dataset `only` (or all).
fn ratio(cells: &BTreeMap<Cell, (f64, f64)>, only: Option<usize>) -> f64 {
    let of_dataset = cells
        .iter()
        .filter(|((d, _, _), _)| only.is_none_or(|o| o == *d));
    stats::ratio_of_pairs(of_dataset.map(|(_, pair)| pair))
}

/// Checks every timed call and returns the mean precision at k.
///
/// * TriniT is deterministic: every run of a cell returns the same answers.
/// * On a fresh engine Spec-QP is too, so cold passes must agree with each
///   other; a steady engine's speculation ledger learns between passes, so
///   there only the invariant of `check::speculative_ok` holds.
/// * Precision is taken over the first round — every cell once — so that
///   it does not depend on how many rounds the time allowed.
fn verify(samples: &[Sample], cold: bool, report: &mut Report) -> f64 {
    let mut first_trinit: BTreeMap<Cell, Vec<check::IdAns>> = BTreeMap::new();
    let mut first_spec: BTreeMap<Cell, Vec<check::IdAns>> = BTreeMap::new();
    let mut trinit_of_pass: BTreeMap<(usize, Cell), Vec<check::IdAns>> = BTreeMap::new();
    for s in samples.iter().filter(|s| !s.spec) {
        let cell = (s.data, s.query, s.k);
        let answers = a::canon_ids(&s.answers);
        let outcome = check::well_formed(&answers, s.k).and_then(|()| {
            check::identical(
                &answers,
                first_trinit.entry(cell).or_insert(answers.clone()),
            )
        });
        report.check(outcome.map_err(|e| format!("TriniT {cell:?} pass {}: {e}", s.pass)));
        trinit_of_pass.insert((s.pass, cell), answers);
    }
    let mut precisions = Vec::new();
    for s in samples.iter().filter(|s| s.spec) {
        let cell = (s.data, s.query, s.k);
        let answers = a::canon_ids(&s.answers);
        let trinit = &trinit_of_pass[&(s.pass, cell)];
        let mut outcome = check::speculative_ok(&answers, trinit, s.k);
        if cold {
            let first = first_spec.entry(cell).or_insert(answers.clone());
            outcome = outcome.and_then(|()| check::identical(&answers, first));
        }
        report.check(outcome.map_err(|e| format!("Spec-QP {cell:?} pass {}: {e}", s.pass)));
        if s.pass < ROUND {
            precisions.push(check::precision_at_k(&answers, trinit, s.k));
        }
    }
    stats::mean(&precisions)
}

fn spec_ms(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.spec && keep(s))
        .map(|s| s.ms)
        .collect()
}

/// Per-layer metrics of layers these workloads never enter.
const UNUSED: [&str; 26] = [
    "kgstore.overlay_scan_ratio",
    "kgstore.commit_us_per_op",
    "kgstore.compact_ms_p50",
    "kgstore.compactions",
    "kgstore.epochs",
    "kgstore.delta_rows_at_end",
    "service.queue_wait_us_p50",
    "service.queue_wait_us_p95",
    "service.exec_us_p50",
    "service.handoff_us_p50",
    "service.commit_ms_p50",
    "service.apply_writes_overhead_us_p50",
    "service.shed",
    "service.rejected",
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
    "detail.open_rtt_ms_p95",
    "detail.read_ms_p95",
];

pub fn run(ctx: &Ctx, cold: bool, report: &mut Report, tracer: &mut Tracer) {
    let datasets = [
        inputs::xkg(ctx.scale, None),
        inputs::twitter(ctx.scale, None),
    ];
    let schedule = Schedule::new(&datasets, ctx.seed, cold);
    report.fingerprint = schedule.fingerprint(&datasets);

    if !ctx.traced {
        let m = measure(&datasets, &schedule, ctx.seconds, ctx.setups(SETUPS));
        let precision = verify(&m.samples, cold, report);
        let cells = cell_medians(&m.samples);
        // Every time metric is built on per-cell medians: a stall that hits
        // one pass moves one sample of each cell it touches and no median.
        let (spec, trinit): (Vec<f64>, Vec<f64>) = cells.values().copied().unzip();
        let busy_s = (spec.iter().sum::<f64>() + trinit.iter().sum::<f64>()) / 1e3;
        report.put_p50("setup_s", m.setup_s);
        report.put_p50("specqp_ms_p50", spec);
        report.put_p50("trinit_ms_p50", trinit);
        report.put_n(
            "queries_per_s",
            2.0 * cells.len() as f64 / busy_s,
            m.samples.len(),
        );
        report.put_n("specqp_over_trinit", ratio(&cells, None), cells.len());
        report.put_n("precision_at_k", precision, cells.len());
        report.put("peak_rss_mb", m.peak_rss_mb);
        return;
    }

    // Traced run: a shortened untraced phase for the tails and the
    // per-dataset split, then the probes and the decomposed pipeline.
    let m = measure(&datasets, &schedule, ctx.seconds / 3.0, 1);
    verify(&m.samples, cold, report);
    let cells = cell_medians(&m.samples);
    report.put_n(
        "speculation.xkg_specqp_over_trinit",
        ratio(&cells, Some(0)),
        cells.len(),
    );
    report.put_n(
        "speculation.twitter_specqp_over_trinit",
        ratio(&cells, Some(1)),
        cells.len(),
    );
    report.put_spec_details(|tp| {
        let of_size = |s: &Sample| {
            tp.is_none_or(|tp| a::patterns(&datasets[s.data].queries[s.query]).len() == tp)
        };
        spec_ms(&m.samples, of_size)
    });
    report.put_n(
        "plan_cache.hit_rate",
        m.cache.hit_rate(),
        m.cache.lookups as usize,
    );
    report.put("plan_cache.stale", m.cache.stale as f64);
    drop(m);

    let k_of = |j: usize| schedule.k(0, j);
    Profile {
        datasets: &datasets,
        regime: if cold { Regime::Cold } else { Regime::Warm },
        k_of: &k_of,
        seed: ctx.seed,
        wire: false,
        live: false,
    }
    .run(report, tracer);
    report.zero_unused(&UNUSED);
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::adapter::Scale;

    #[test]
    fn schedule_is_seeded_and_covers_every_cell_in_three_passes() {
        let datasets = [inputs::xkg(Scale::Toy, Some(5))];
        let a = Schedule::new(&datasets, 1, false);
        let b = Schedule::new(&datasets, 1, false);
        assert_eq!(a.order, b.order);
        assert_eq!(a.fingerprint(&datasets), b.fingerprint(&datasets));
        let c = Schedule::new(&datasets, 2, false);
        assert_ne!(a.fingerprint(&datasets), c.fingerprint(&datasets));
        for j in 0..5 {
            let mut ks: Vec<usize> = (0..3).map(|pass| a.k(pass, j)).collect();
            ks.sort_unstable();
            assert_eq!(ks, KS);
        }
        assert_eq!(Schedule::new(&datasets, 1, true).k(2, 3), COLD_K);
    }

    #[test]
    fn ratio_is_over_cell_medians() {
        let sample = |query, spec, ms| Sample {
            pass: 0,
            data: 0,
            query,
            k: 10,
            spec,
            ms,
            answers: Vec::new(),
        };
        let samples = vec![
            sample(0, true, 1.0),
            sample(0, true, 9.0),
            sample(0, true, 2.0),
            sample(0, false, 4.0),
            sample(1, true, 10.0),
            sample(1, false, 4.0),
        ];
        let cells = cell_medians(&samples);
        assert_eq!(cells[&(0, 0, 10)], (2.0, 4.0));
        assert_eq!(ratio(&cells, None), 12.0 / 8.0);
        assert_eq!(ratio(&cells, Some(1)), 0.0);
    }
}
