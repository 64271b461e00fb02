//! Differential equivalence for the distributed engines: a
//! single-backend [`Session`] (slicing on, the default) and a
//! [`DistWorker`]×K + [`DistAggregator`] partition consume the same
//! scrambled event streams, and every observable outcome — verdicts,
//! error messages, discarded-at-close counts, in order — must match
//! exactly. The service and gateway layers only move these engines'
//! inputs and outputs across sockets, so this test is the core of the
//! end-to-end byte-equivalence guarantee.

use hb_computation::{Computation, EventId};
use hb_detect::online::OnlineVerdict;
use hb_dist::{owner, OverflowPolicy};
use hb_monitor::persist::MonitorSnapshot;
use hb_monitor::session::{Session, SessionError, SessionLimits};
use hb_monitor::{AggStep, DistAggregator, DistWorker, IngestError};
use hb_sim::{causal_shuffle, random_computation, RandomSpec};
use hb_tracefmt::wire::{SliceUpdateBody, WireClause, WireMode, WirePredicate};
use std::collections::BTreeMap;

const PROCESSES: usize = 4;
const EVENTS_PER_PROCESS: usize = 32;

/// Anything a session makes observable, in emission order.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Verdict(String, OnlineVerdict),
    Error(String),
    Closed(u64),
}

/// The slice-equivalence predicate family: near-miss conjunctions on
/// processes 0/1, an impossible all-process one, and one that never
/// settles either but has every event of every process but the last as
/// a slice member — its detector state at the end of a run records each
/// membership bit the run fed it.
fn predicates(n: usize) -> Vec<WirePredicate> {
    let compare = |process: usize, op: &str, value: i64| WireClause {
        process,
        var: "x".into(),
        op: op.into(),
        value,
    };
    let clause = |process: usize, value: i64| compare(process, "=", value);
    let mut preds: Vec<WirePredicate> = (0..3)
        .map(|k| WirePredicate {
            id: format!("p{k}"),
            mode: WireMode::Conjunctive,
            clauses: vec![clause(0, k as i64), clause(1, k as i64)],
            pattern: None,
        })
        .collect();
    preds.push(WirePredicate {
        id: "nope".into(),
        mode: WireMode::Conjunctive,
        clauses: (0..n).map(|p| clause(p, -1)).collect(),
        pattern: None,
    });
    preds.push(WirePredicate {
        id: "members".into(),
        mode: WireMode::Conjunctive,
        clauses: (0..n)
            .map(|p| compare(p, if p + 1 < n { ">=" } else { "<" }, 0))
            .collect(),
        pattern: None,
    });
    preds
}

fn state_map(comp: &Computation, e: EventId) -> BTreeMap<String, i64> {
    let state = comp.local_state(e.process, e.index as u32 + 1);
    comp.vars()
        .iter()
        .map(|(id, name)| (name.to_string(), state.get(id)))
        .collect()
}

/// The distributed half: K workers and an aggregator, with the
/// gateway's sequence stamping emulated inline.
struct Partition {
    workers: Vec<DistWorker>,
    agg: DistAggregator,
    next_seq: u64,
    outcomes: Vec<Outcome>,
}

impl Partition {
    fn open(k: usize, n: usize, preds: &[WirePredicate], capacity: usize) -> Partition {
        let vars = vec!["x".to_string()];
        let workers = (0..k)
            .map(|i| DistWorker::open(i, k, n, &vars, &[], preds).unwrap())
            .collect();
        let mut agg =
            DistAggregator::open(k, n, &vars, &[], preds, capacity, OverflowPolicy::Reject)
                .unwrap();
        let outcomes = agg
            .take_initial_verdicts()
            .into_iter()
            .map(|v| Outcome::Verdict(v.predicate, v.verdict))
            .collect();
        Partition {
            workers,
            agg,
            next_seq: 0,
            outcomes,
        }
    }

    fn absorb(&mut self, steps: Vec<AggStep>) {
        self.outcomes.extend(steps.into_iter().map(|s| match s {
            AggStep::Verdict(v) => Outcome::Verdict(v.predicate, v.verdict),
            AggStep::Error(e) => Outcome::Error(e.to_string()),
            AggStep::Closed { discarded } => Outcome::Closed(discarded),
        }));
    }

    fn event(&mut self, p: usize, clock: hb_vclock::VectorClock, set: &BTreeMap<String, i64>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let k = self.workers.len();
        let updates = self.workers[owner(p, k)].observe(seq, p, clock, set);
        for (s, body) in updates {
            let steps = self.agg.update(s, body);
            self.absorb(steps);
        }
    }

    fn finish(&mut self, p: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let steps = self.agg.update(seq, SliceUpdateBody::Finish { p });
        self.absorb(steps);
    }

    fn close(&mut self) {
        // The gateway closes workers first (flushing stranded holds),
        // then sends the aggregator its final close update.
        let mut flushed = Vec::new();
        for w in &mut self.workers {
            flushed.extend(w.close());
        }
        for (s, body) in flushed {
            let steps = self.agg.update(s, body);
            self.absorb(steps);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let steps = self.agg.update(seq, SliceUpdateBody::Close);
        self.absorb(steps);
    }
}

/// The single-backend reference, recording the same outcome stream.
struct Reference {
    session: Session,
    outcomes: Vec<Outcome>,
}

impl Reference {
    fn open(n: usize, preds: &[WirePredicate], capacity: usize) -> Reference {
        let mut session = Session::open(
            "ref",
            n,
            &["x".to_string()],
            &[],
            preds,
            SessionLimits {
                buffer_capacity: capacity,
                ..SessionLimits::default()
            },
        )
        .unwrap();
        let outcomes = session
            .take_initial_verdicts()
            .into_iter()
            .map(|v| Outcome::Verdict(v.predicate, v.verdict))
            .collect();
        Reference { session, outcomes }
    }

    /// Returns whether the event was refused for lack of hold space —
    /// the refusal that tells the client to retry.
    fn event(
        &mut self,
        p: usize,
        clock: hb_vclock::VectorClock,
        set: &BTreeMap<String, i64>,
    ) -> bool {
        match self.session.event(p, clock, set) {
            Ok(verdicts) => self.outcomes.extend(
                verdicts
                    .into_iter()
                    .map(|v| Outcome::Verdict(v.predicate, v.verdict)),
            ),
            Err(e) => {
                self.outcomes.push(Outcome::Error(e.to_string()));
                return matches!(e, SessionError::Ingest(IngestError::Overflow { .. }));
            }
        }
        false
    }

    fn finish(&mut self, p: usize) {
        match self.session.finish_process(p) {
            Ok(verdicts) => self.outcomes.extend(
                verdicts
                    .into_iter()
                    .map(|v| Outcome::Verdict(v.predicate, v.verdict)),
            ),
            Err(e) => self.outcomes.push(Outcome::Error(e.to_string())),
        }
    }

    fn close(&mut self) {
        let (verdicts, discarded) = self.session.close();
        self.outcomes.extend(
            verdicts
                .into_iter()
                .map(|v| Outcome::Verdict(v.predicate, v.verdict)),
        );
        self.outcomes.push(Outcome::Closed(discarded));
    }
}

/// The hold capacity the runs without backpressure use: never reached.
const ROOMY: usize = 4096;

/// Runs one scrambled stream through both halves and asserts the
/// outcome streams and final verdict maps agree.
///
/// With `retry`, the driver is the client the overflow refusal asks
/// for: every event the reference refuses for lack of hold space is
/// sent again (to both halves) after the next delivery, until it is
/// accepted. The arrival window is then `2 * capacity + 1`, so at most
/// `2 * capacity` arrived events wait on a predecessor at once —
/// `capacity` of them held, at most `capacity` refused and awaiting
/// their retry, which is how many refused updates an aggregator keeps
/// membership bits for.
fn run_differential(
    seed: u64,
    k: usize,
    drop_first: bool,
    duplicate_every: usize,
    capacity: usize,
    retry: bool,
) {
    let comp = random_computation(RandomSpec {
        processes: PROCESSES,
        events_per_process: EVENTS_PER_PROCESS,
        send_percent: 30,
        value_range: 6,
        seed,
    });
    let window = if retry { 2 * capacity + 1 } else { 8 };
    let order = causal_shuffle(&comp, seed ^ 0x5eed, window);
    let preds = predicates(PROCESSES);

    let mut reference = Reference::open(PROCESSES, &preds, capacity);
    let mut partition = Partition::open(k, PROCESSES, &preds, capacity);
    // Feeds one event to both halves; true when the reference refused
    // it for lack of hold space.
    let feed = |reference: &mut Reference, partition: &mut Partition, e: EventId| {
        let (clock, set) = (comp.clock(e).clone(), state_map(&comp, e));
        partition.event(e.process, clock.clone(), &set);
        reference.event(e.process, clock, &set)
    };

    let mut refused = Vec::new();
    for (i, &e) in order.iter().enumerate() {
        if drop_first && i == 0 {
            // A lost event strands its causal successors in both
            // pipelines; close must discard identically.
            continue;
        }
        let mut delivered = reference.session.delivered();
        if feed(&mut reference, &mut partition, e) {
            refused.push(e);
        }
        // At-least-once transport: replays must error identically.
        if duplicate_every != 0
            && i % duplicate_every == 0
            && feed(&mut reference, &mut partition, e)
        {
            refused.push(e);
        }
        // A delivery may have made room (or a predecessor): retry, and
        // again for as long as the retries themselves deliver.
        while retry && reference.session.delivered() > delivered {
            delivered = reference.session.delivered();
            for e in std::mem::take(&mut refused) {
                if feed(&mut reference, &mut partition, e) {
                    refused.push(e);
                }
            }
        }
    }
    // Same membership bits in, same detectors out: states, emitted
    // flags and deferred skips are interchangeable — once the
    // aggregator has caught up (a worker sitting on events whose
    // predecessor was lost stalls the sequence stream until close).
    if partition.agg.reordering() == 0 {
        let detectors = |monitors: &[MonitorSnapshot]| -> Vec<_> {
            let core = |m: &MonitorSnapshot| (m.emitted, m.state.clone(), m.pending.clone());
            monitors.iter().map(core).collect()
        };
        assert_eq!(
            detectors(&reference.session.snapshot().pipeline.monitors),
            detectors(&partition.agg.snapshot().pipeline.monitors),
            "detector states diverge (seed {seed}, k {k}, capacity {capacity})"
        );
    }
    for p in 0..PROCESSES {
        reference.finish(p);
        partition.finish(p);
    }
    // Post-finish events are refused identically.
    feed(&mut reference, &mut partition, order[order.len() / 2]);

    reference.close();
    partition.close();

    assert_eq!(
        reference.outcomes, partition.outcomes,
        "outcome streams diverge (seed {seed}, k {k}, capacity {capacity})"
    );
    assert_eq!(
        reference.session.all_verdicts(),
        partition.agg.all_verdicts()
    );
}

#[test]
fn distributed_outcomes_match_single_backend_k2() {
    for seed in 0..6u64 {
        run_differential(0xd15b_0000 + seed * 7919, 2, false, 0, ROOMY, false);
    }
}

#[test]
fn distributed_outcomes_match_single_backend_k3() {
    for seed in 0..6u64 {
        run_differential(0xd15b_1000 + seed * 104729, 3, false, 0, ROOMY, false);
    }
}

#[test]
fn distributed_outcomes_match_with_losses_and_duplicates() {
    for seed in 0..4u64 {
        run_differential(0xd15b_2000 + seed * 31, 2, true, 5, ROOMY, false);
        run_differential(0xd15b_3000 + seed * 17, 3, true, 7, ROOMY, false);
    }
}

/// More workers than processes: some workers own nothing and must
/// stay silent without stalling the sequence stream.
#[test]
fn oversized_partitions_are_harmless() {
    run_differential(0xd15b_4000, PROCESSES + 2, false, 0, ROOMY, false);
}

/// A hold buffer too small for the stream, and a client that does what
/// the overflow refusal tells it to. The worker has already applied a
/// refused event when the retry reaches it and ships no bits for the
/// copy; the aggregator must judge the copy by the bits of the
/// original it refused.
#[test]
fn distributed_outcomes_match_under_overflow_and_retry() {
    for capacity in [1, 2, 8] {
        for k in 1..=3 {
            for seed in 0..4u64 {
                let seed = 0xd15b_5000 + seed * 613 + (capacity * 16 + k) as u64;
                run_differential(seed, k, false, 0, capacity, true);
                run_differential(seed ^ 0xa5a5, k, false, 6, capacity, true);
            }
        }
    }
}

/// The issue's own stream: `x@0 = 1 ∧ x@1 = 1`, one hold slot, one
/// worker; process 0's second event is refused, then retried after its
/// first is delivered.
#[test]
fn a_refused_then_retried_event_keeps_its_membership() {
    let preds = predicates(2)[1..2].to_vec(); // p1: x@0 = 1 ∧ x@1 = 1
    let mut reference = Reference::open(2, &preds, 1);
    let mut partition = Partition::open(1, 2, &preds, 1);
    let x = |v: i64| {
        [("x".to_string(), v)]
            .into_iter()
            .collect::<BTreeMap<_, _>>()
    };
    let stream = [
        (1, vec![1, 2], 1),
        (0, vec![2, 0], 1), // refused: the one slot is taken
        (0, vec![1, 0], 0),
        (0, vec![2, 0], 1), // the retry
        (1, vec![0, 1], 1),
    ];
    for (p, clock, value) in stream {
        let clock = hb_vclock::VectorClock::from_components(clock);
        reference.event(p, clock.clone(), &x(value));
        partition.event(p, clock, &x(value));
    }
    reference.close();
    partition.close();
    assert_eq!(reference.outcomes, partition.outcomes);
    let detected = reference.outcomes.iter().any(|o| {
        matches!(o, Outcome::Verdict(_, OnlineVerdict::Detected(cut)) if cut.counters() == [2, 1])
    });
    assert!(detected, "{:?}", reference.outcomes);
}

/// Undeclared variables refuse identically through the worker's
/// `invalid` annotation.
#[test]
fn invalid_variables_refuse_identically() {
    let preds = predicates(2);
    let mut reference = Reference::open(2, &preds, ROOMY);
    let mut partition = Partition::open(2, 2, &preds, ROOMY);
    let bad: BTreeMap<String, i64> = [("ghost".to_string(), 1)].into_iter().collect();
    let clock = hb_vclock::VectorClock::from_components(vec![1, 0]);
    reference.event(0, clock.clone(), &bad);
    partition.event(0, clock, &bad);
    reference.close();
    partition.close();
    assert_eq!(reference.outcomes, partition.outcomes);
}
