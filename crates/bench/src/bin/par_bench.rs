//! Parallel-detection benchmark: the speedup-vs-threads curve of the
//! `hb-par` detectors on a wide (128-process) computation. Prints one
//! JSON object to stdout so CI can archive it (`BENCH_par.json`) and
//! trend it across commits.
//!
//! ```text
//! par_bench [--quick]
//! ```
//!
//! Three families over the same wide computation, each with a
//! sequential baseline and the parallel detector at 1/2/4/8 threads:
//!
//! - `ef` — offline `EF(conjunctive)`: `ef_linear` vs
//!   `ParDetector::ef_conjunctive` (parallel candidate scans + parallel
//!   popping fixpoint). `ef/seq` is the *lazy* sequential detector,
//!   which stops scanning at the verdict; `ef/eager-seq` runs the
//!   parallel algorithm's eager full-trace scan on one thread — the
//!   work-optimality reference the `ef/par-t*` rows should match. The
//!   lazy-vs-eager gap is an algorithmic price (a full scan is what
//!   fans out), not fan-out overhead.
//! - `ag` — offline `AG(linear)` on an always-true predicate (the full
//!   meet-irreducible sweep): `ag_linear` vs `ParDetector::ag_linear`
//!   (chunked parallel sweep)
//! - `online` — an in-process `Session` with 8 pending predicates fed
//!   the whole stream: `SessionLimits.parallel` 0 vs 1/2/4/8
//!   (micro-batched cross-monitor fan-out + parallel dead-front search
//!   inside each detector)
//!
//! Every parallel run carries `speedup` (its family's sequential
//! baseline secs ÷ its secs — for `ef`, the eager baseline) and
//! `threads`. The curve is honest about the host: `host_cpus` is
//! recorded in the metadata, and on a single-CPU container (as in CI)
//! the expected speedup is ~1.0 across the sweep — there, the number
//! the curve locks is the *overhead* of the parallel paths, which the
//! report-level flatness bounds. Byte-identical results at every
//! thread count are the equivalence battery's job, not this one's.

use hb_bench::report::{BenchReport, BenchRun};
use hb_computation::Computation;
use hb_detect::{ag_linear, ef_linear};
use hb_monitor::{Session, SessionLimits};
use hb_par::ParDetector;
use hb_predicates::{Conjunctive, LocalExpr};
use hb_sim::{random_computation, random_linearization, RandomSpec};
use hb_vclock::VectorClock;
use std::collections::BTreeMap;
use std::time::Instant;

const PROCESSES: usize = 128;
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Medians shave scheduler noise without a best-of-n's optimism;
/// the sweep interleaves rounds so drift spreads evenly.
fn median_secs(rounds: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..rounds).map(|_| f()).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn ef_predicate(comp: &Computation) -> Conjunctive {
    let x = comp.vars().iter().next().expect("the x variable").0;
    Conjunctive::new((0..PROCESSES).map(|p| (p, LocalExpr::eq(x, 1))).collect())
}

/// The parallel EF algorithm on one thread with plain loops: an eager
/// full-trace candidate scan fed through the sequential online
/// detector. This is the work the `ef/par-t*` rows distribute.
fn ef_eager_seq_secs(comp: &Computation, p: &Conjunctive) -> f64 {
    use hb_detect::online::{OnlineEfConjunctive, OnlineMonitor};
    let n = comp.num_processes();
    let start = Instant::now();
    let participating: Vec<bool> = (0..n)
        .map(|i| p.clauses().iter().any(|c| c.process == i))
        .collect();
    let initially: Vec<bool> = (0..n).map(|i| p.clause_holds_at(comp, i, 0)).collect();
    let mut m = OnlineEfConjunctive::new(n, participating.clone(), initially);
    for (i, &part) in participating.iter().enumerate() {
        if !part {
            continue;
        }
        let mut seen = 0u32;
        for s in 1..=comp.num_events_of(i) as u32 {
            if p.clause_holds_at(comp, i, s) {
                if s - 1 > seen {
                    OnlineMonitor::skip_states(&mut m, i, u64::from(s - 1 - seen));
                }
                OnlineMonitor::observe(
                    &mut m,
                    i,
                    true,
                    comp.clock(hb_computation::EventId::new(i, s as usize - 1)),
                );
                seen = s;
            }
        }
    }
    for i in 0..n {
        OnlineMonitor::finish_process(&mut m, i);
    }
    std::hint::black_box(OnlineMonitor::verdict(&m));
    start.elapsed().as_secs_f64()
}

/// Always true, so the AG sweep visits every meet-irreducible cut —
/// the algorithm's worst case and the scan the parallel chunks target.
fn ag_predicate(comp: &Computation) -> Conjunctive {
    let x = comp.vars().iter().next().expect("the x variable").0;
    Conjunctive::new((0..PROCESSES).map(|p| (p, LocalExpr::ge(x, 0))).collect())
}

/// The in-process session leg: 8 never-settling conjunctive predicates
/// (value never taken), the whole stream delivered in causal order.
fn online_secs(
    comp: &Computation,
    feed: &[(usize, VectorClock, BTreeMap<String, i64>)],
    parallel: usize,
) -> f64 {
    let predicates: Vec<hb_tracefmt::wire::WirePredicate> = (0..8)
        .map(|k| hb_tracefmt::wire::WirePredicate {
            id: format!("p{k}"),
            mode: hb_tracefmt::wire::WireMode::Conjunctive,
            clauses: (0..PROCESSES)
                .map(|process| hb_tracefmt::wire::WireClause {
                    process,
                    var: "x".into(),
                    op: "=".into(),
                    value: -1 - k,
                })
                .collect(),
            pattern: None,
        })
        .collect();
    let mut session = Session::open(
        "par-bench",
        comp.num_processes(),
        &["x".to_string()],
        &[],
        &predicates,
        SessionLimits {
            parallel,
            ..SessionLimits::default()
        },
    )
    .expect("session opens");
    let start = Instant::now();
    for (p, clock, set) in feed {
        session
            .event(*p, clock.clone(), set)
            .expect("event accepted");
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(session.delivered());
    secs
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let per_process = if quick { 16 } else { 192 };
    let rounds = if quick { 3 } else { 5 };
    let comp = random_computation(RandomSpec {
        processes: PROCESSES,
        events_per_process: per_process,
        send_percent: 20,
        value_range: 8,
        seed: 11,
    });
    let events = comp.num_events() as u64;
    let x = comp.vars().iter().next().expect("the x variable").0;
    let feed: Vec<(usize, VectorClock, BTreeMap<String, i64>)> = random_linearization(&comp, 3)
        .iter()
        .map(|&e| {
            (
                e.process,
                comp.clock(e).clone(),
                [(
                    "x".to_string(),
                    comp.local_state(e.process, e.index as u32 + 1).get(x),
                )]
                .into_iter()
                .collect(),
            )
        })
        .collect();
    let ef_pred = ef_predicate(&comp);
    let ag_pred = ag_predicate(&comp);

    let mut report = BenchReport::new("par")
        .meta("processes", PROCESSES as u64)
        .meta("events", events)
        .meta(
            "host_cpus",
            std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        );

    // Warm-up: touch every code path once.
    let _ = ef_linear(&comp, &ef_pred);
    let _ = ParDetector::new()
        .threads(2)
        .ef_conjunctive(&comp, &ef_pred);

    // Offline families: sequential baseline, then the thread sweep.
    let ef_seq = median_secs(rounds, || {
        let start = Instant::now();
        std::hint::black_box(ef_linear(&comp, &ef_pred));
        start.elapsed().as_secs_f64()
    });
    report.push(BenchRun::new("ef/seq", events, ef_seq));
    let ef_eager = median_secs(rounds, || ef_eager_seq_secs(&comp, &ef_pred));
    report.push(BenchRun::new("ef/eager-seq", events, ef_eager));
    for t in THREADS {
        let det = ParDetector::new().threads(t);
        let secs = median_secs(rounds, || {
            let start = Instant::now();
            std::hint::black_box(det.ef_conjunctive(&comp, &ef_pred));
            start.elapsed().as_secs_f64()
        });
        report.push(
            BenchRun::new(format!("ef/par-t{t}"), events, secs)
                .with("threads", t as f64)
                .with("speedup", ef_eager / secs),
        );
    }

    let ag_seq = median_secs(rounds, || {
        let start = Instant::now();
        std::hint::black_box(ag_linear(&comp, &ag_pred));
        start.elapsed().as_secs_f64()
    });
    report.push(BenchRun::new("ag/seq", events, ag_seq));
    for t in THREADS {
        let det = ParDetector::new().threads(t);
        let secs = median_secs(rounds, || {
            let start = Instant::now();
            std::hint::black_box(det.ag_linear(&comp, &ag_pred));
            start.elapsed().as_secs_f64()
        });
        report.push(
            BenchRun::new(format!("ag/par-t{t}"), events, secs)
                .with("threads", t as f64)
                .with("speedup", ag_seq / secs),
        );
    }

    // Online family: a full in-process session per run.
    let online_seq = median_secs(rounds, || online_secs(&comp, &feed, 0));
    report.push(BenchRun::new("online/seq", events, online_seq));
    for t in THREADS {
        let secs = median_secs(rounds, || online_secs(&comp, &feed, t));
        report.push(
            BenchRun::new(format!("online/par-t{t}"), events, secs)
                .with("threads", t as f64)
                .with("speedup", online_seq / secs),
        );
    }

    println!("{}", report.to_json());
}
