//! Distributed-detection benchmark: per-event cost of the
//! [`DistWorker`]×K + [`DistAggregator`] pipeline against the
//! single-backend [`Session`] it must stay verdict-identical to, on
//! the sparse-predicate workload. Prints one JSON object to stdout in
//! the shared `BENCH_*.json` schema so CI can archive it
//! (`BENCH_dist.json`) and trend it across commits.
//!
//! ```text
//! dist_bench [--quick]
//! ```
//!
//! The harness emulates exactly what the service layers add around the
//! engines — the gateway's deterministic sequence stamping and the
//! update relay into the aggregator — with no sockets, so the numbers
//! isolate the *engine* overhead of distribution: each event is sliced
//! twice (once in its worker, once in the aggregator's replica) plus
//! the reorder-buffer bookkeeping. `overhead` is dist over single
//! ns-per-event on the identical pre-built stream; `updates_per_event`
//! confirms the one-update-per-sequence liveness invariant is also the
//! whole relay traffic. `flatness` (max/min ns-per-event across the
//! 10x sweep) near 1.0 confirms the pipeline stays O(1) per event.

use hb_bench::report::{BenchReport, BenchRun};
use hb_dist::owner;
use hb_monitor::{DistAggregator, DistWorker, Session, SessionLimits};
use hb_sim::{random_computation, random_linearization, RandomSpec};
use hb_tracefmt::wire::{WireClause, WireMode, WirePredicate};
use hb_vclock::VectorClock;
use std::collections::BTreeMap;
use std::time::Instant;

const PROCESSES: usize = 8;

/// `x = 31` on every process but the first, `x = -1` on process 0:
/// each live clause is true on ~3% of events, and the p0 clause can
/// never be true, so neither pipeline settles the predicate no matter
/// the stream length — every event is end-to-end work.
fn sparse_predicate() -> WirePredicate {
    WirePredicate {
        id: "sparse".into(),
        mode: WireMode::Conjunctive,
        clauses: (0..PROCESSES)
            .map(|p| WireClause {
                process: p,
                var: "x".into(),
                op: "=".into(),
                value: if p == 0 { -1 } else { 31 },
            })
            .collect(),
        pattern: None,
    }
}

/// One pre-built causally consistent stream.
type Stream = Vec<(usize, Vec<u32>, BTreeMap<String, i64>)>;

fn build_stream(total_events: usize, seed: u64) -> Stream {
    let comp = random_computation(RandomSpec {
        processes: PROCESSES,
        events_per_process: total_events / PROCESSES,
        send_percent: 30,
        value_range: 32,
        seed,
    });
    let x = comp.vars().iter().next().expect("the x variable").0;
    random_linearization(&comp, seed ^ 0x5eed)
        .iter()
        .map(|&e| {
            (
                e.process,
                comp.clock(e).components().to_vec(),
                [(
                    "x".to_string(),
                    comp.local_state(e.process, e.index as u32 + 1).get(x),
                )]
                .into_iter()
                .collect(),
            )
        })
        .collect()
}

/// The single-backend reference leg (slicing on, the default).
fn run_single(stream: &Stream) -> f64 {
    let mut session = Session::open(
        "dist-bench",
        PROCESSES,
        &["x".to_string()],
        &[],
        &[sparse_predicate()],
        SessionLimits::default(),
    )
    .expect("open session");
    let start = Instant::now();
    for (p, clock, set) in stream {
        let verdicts = session
            .event(*p, VectorClock::from_components(clock.clone()), set)
            .expect("ingest event");
        assert!(verdicts.is_empty(), "sparse predicate settled early");
    }
    start.elapsed().as_secs_f64()
}

/// The distributed leg: K workers and an aggregator with the gateway's
/// sequence stamping emulated inline. Returns wall time and the number
/// of slice updates relayed worker → aggregator.
fn run_dist(stream: &Stream, k: usize) -> (f64, u64) {
    let vars = vec!["x".to_string()];
    let preds = [sparse_predicate()];
    let mut workers: Vec<DistWorker> = (0..k)
        .map(|i| DistWorker::open(i, k, PROCESSES, &vars, &[], &preds).expect("open worker"))
        .collect();
    let mut agg =
        DistAggregator::open(k, PROCESSES, &vars, &[], &preds, 1 << 20).expect("open aggregator");
    let _ = agg.take_initial_verdicts();
    let mut updates = 0u64;
    let start = Instant::now();
    for (seq, (p, clock, set)) in stream.iter().enumerate() {
        let emitted = workers[owner(*p, k)].observe(
            seq as u64,
            *p,
            VectorClock::from_components(clock.clone()),
            set,
        );
        for (s, body) in emitted {
            updates += 1;
            let steps = agg.update(s, body);
            assert!(
                steps.is_empty(),
                "sparse predicate produced steps mid-stream: {steps:?}"
            );
        }
    }
    (start.elapsed().as_secs_f64(), updates)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let base = if quick { 8_000 } else { 100_000 };
    let lengths = [base, 3 * base, 10 * base];
    let k = 4;
    let rounds = 5;

    let streams: Vec<Stream> = lengths
        .iter()
        .enumerate()
        .map(|(i, &n)| build_stream(n, 17 + i as u64))
        .collect();

    // Warm-up, then interleaved rounds so drift hits every length and
    // both legs equally.
    let _ = run_dist(&streams[0], k);
    let mut dist_secs = vec![Vec::new(); lengths.len()];
    let mut single_secs = vec![Vec::new(); lengths.len()];
    let mut update_totals = vec![0u64; lengths.len()];
    for _ in 0..rounds {
        for (i, stream) in streams.iter().enumerate() {
            let (secs, updates) = run_dist(stream, k);
            dist_secs[i].push(secs);
            update_totals[i] = updates;
            single_secs[i].push(run_single(stream));
        }
    }

    let mut report = BenchReport::new("dist")
        .meta("processes", PROCESSES as u64)
        .meta("workers", k as u64);
    for (i, stream) in streams.iter().enumerate() {
        let dist = median(dist_secs[i].clone());
        let single = median(single_secs[i].clone());
        report.push(
            BenchRun::new(format!("k{k}_n{}", stream.len()), stream.len() as u64, dist)
                .with("single_ns_per_event", single * 1e9 / stream.len() as f64)
                .with("overhead", dist / single)
                .with(
                    "updates_per_event",
                    update_totals[i] as f64 / stream.len() as f64,
                ),
        );
    }
    println!("{}", report.to_json());
}
