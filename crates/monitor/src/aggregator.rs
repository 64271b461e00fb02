//! The aggregator side of a distributed session.
//!
//! The aggregator assembles the global slice from the workers' update
//! streams and is the only member of the partition a client ever
//! hears: its session carries the origin name, and the verdict and
//! error frames it produces must be **byte-identical** to a
//! single-backend session fed the same events.
//!
//! It achieves that by being the single-backend `Pipeline` behind a
//! different front-end: where a session ingests `(process, clock,
//! assignments)` and evaluates clauses on delivery, the aggregator
//! ingests `(process, clock, membership bits)` — the clause truth the
//! owning worker already computed — and on delivery hands each bit to
//! the detector's `observe` as the clause's `holds`, where the session
//! hands the truth it evaluated. Hold, duplicate,
//! overflow, discard, finish and settle behavior are that one
//! pipeline's, so every error frame and every verdict lands in the
//! same place in the frame stream.
//!
//! Updates arrive tagged with the gateway's per-session sequence
//! numbers and may interleave arbitrarily across workers; a reorder
//! stage processes them in contiguous sequence order, which *is* the
//! single backend's arrival order. Sequences below the watermark are
//! dropped: after a worker failover the gateway re-derives a
//! partition's stream from its journal, and the replayed prefix must
//! be idempotent.
//!
//! One thing a session gets for free the aggregator has to work for.
//! A worker computes an event's bits once, when it first sees the
//! event; a client that retries an event the hold buffer refused
//! (`retry after draining`) gets an *empty* update from the worker,
//! which takes it for a replay. So the aggregator keeps the bits of
//! every update it refuses for lack of hold space, keyed by
//! `(p, clock[p])`, and judges the retry by them. The kept set is as
//! large as the hold space it stands in for; a refusal past that loses
//! the bits, and from then on every update of that process is refused
//! with [`SessionError::MembershipLost`] — never judged by bits that
//! may be wrong.

use crate::buffer::IngestError;
use crate::persist::PipelineSnapshot;
use crate::pipeline::{conjunctive_only, validate, Pipeline};
use crate::session::{SessionError, SessionLimits, VerdictEvent};
use hb_tracefmt::wire::{SliceUpdateBody, WirePredicate};
use hb_vclock::VectorClock;
use std::collections::{BTreeMap, BTreeSet};

/// One observable consequence of an update, in emission order.
#[derive(Debug, Clone, PartialEq)]
pub enum AggStep {
    /// A predicate's verdict settled.
    Verdict(VerdictEvent),
    /// The update was refused, as a single-backend session would have
    /// refused the event.
    Error(SessionError),
    /// The session closed (a `close` update was processed).
    Closed {
        /// Stranded held updates discarded at close.
        discarded: u64,
    },
}

/// Persistable state of a [`DistAggregator`], for WAL snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatorSnapshot {
    /// The partition width.
    pub k: usize,
    /// Declared variable names, in declaration order.
    pub vars: Vec<String>,
    /// The predicates as registered at open.
    pub predicates: Vec<WirePredicate>,
    /// Buffer, finishes and detectors; held payloads are membership
    /// bits.
    pub pipeline: PipelineSnapshot<Vec<usize>>,
    /// Next sequence number to process.
    pub next_seq: u64,
    /// Updates waiting for a sequence gap, by sequence number.
    pub reorder: Vec<(u64, SliceUpdateBody)>,
    /// Membership bits of updates refused for lack of hold space:
    /// `(process, clock[process], holds)`.
    pub kept: Vec<(usize, u32, Vec<usize>)>,
    /// Processes whose updates can no longer be judged.
    pub lost: Vec<usize>,
}

/// The aggregator engine: one per distributed session, living on the
/// backend elected by the gateway.
pub struct DistAggregator {
    k: usize,
    vars: Vec<String>,
    predicates: Vec<WirePredicate>,
    limits: SessionLimits,
    pipeline: Pipeline<Vec<usize>>,
    next_seq: u64,
    reorder: BTreeMap<u64, SliceUpdateBody>,
    /// Bits of refused updates by `(p, clock[p])`, at most
    /// `limits.buffer_capacity` of them.
    kept: BTreeMap<(usize, u32), Vec<usize>>,
    lost: BTreeSet<usize>,
}

impl DistAggregator {
    /// Opens an aggregator over the origin session's full open
    /// request. The refusal is the one the client sees, and but for
    /// the conjunctive-only rule it is the single-backend session's.
    pub fn open(
        k: usize,
        processes: usize,
        var_names: &[String],
        initial: &[BTreeMap<String, i64>],
        predicates: &[WirePredicate],
        buffer_capacity: usize,
    ) -> Result<DistAggregator, SessionError> {
        if k == 0 {
            return Err(SessionError::BadOpen("zero workers".into()));
        }
        let validated = validate(processes, var_names, initial, predicates)?;
        conjunctive_only(predicates)?;
        let limits = SessionLimits {
            buffer_capacity,
            ..SessionLimits::default()
        };
        Ok(DistAggregator {
            k,
            vars: var_names.to_vec(),
            predicates: predicates.to_vec(),
            limits,
            pipeline: Pipeline::open(predicates, &validated, limits),
            next_seq: 0,
            reorder: BTreeMap::new(),
            kept: BTreeMap::new(),
            lost: BTreeSet::new(),
        })
    }

    /// Verdicts that settled at open time (initial-cut detections).
    pub fn take_initial_verdicts(&mut self) -> Vec<VerdictEvent> {
        self.pipeline.take_initial_verdicts()
    }

    /// The number of processes.
    pub fn processes(&self) -> usize {
        self.pipeline.processes()
    }

    /// Updates delivered to the detectors so far.
    pub fn delivered(&self) -> u64 {
        self.pipeline.delivered()
    }

    /// Updates held in the causal buffer.
    pub fn held(&self) -> usize {
        self.pipeline.held()
    }

    /// Updates parked in the sequence-reorder stage.
    pub fn reordering(&self) -> usize {
        self.reorder.len()
    }

    /// Accepts one sequenced update and processes every update that
    /// became contiguous, returning their observable consequences in
    /// order. Sequences already processed (failover replays) are
    /// dropped, and so is a second update for a parked sequence: a
    /// failover in the middle of a batch makes the gateway send the
    /// rest of the batch twice, and the worker answers the second copy
    /// of an event without its membership bits.
    pub fn update(&mut self, seq: u64, body: SliceUpdateBody) -> Vec<AggStep> {
        if seq < self.next_seq {
            return Vec::new();
        }
        self.reorder.entry(seq).or_insert(body);
        let mut out = Vec::new();
        while let Some(body) = self.reorder.remove(&self.next_seq) {
            self.next_seq += 1;
            let settled = match body {
                SliceUpdateBody::Observe {
                    p,
                    clock,
                    holds,
                    invalid,
                } => self.observe(p, clock, holds, invalid),
                SliceUpdateBody::Finish { p } => self.pipeline.finish_process(p),
                SliceUpdateBody::Close => {
                    let (verdicts, discarded) = self.pipeline.close();
                    out.extend(verdicts.into_iter().map(AggStep::Verdict));
                    out.push(AggStep::Closed { discarded });
                    continue;
                }
            };
            match settled {
                Ok(verdicts) => out.extend(verdicts.into_iter().map(AggStep::Verdict)),
                Err(e) => out.push(AggStep::Error(e)),
            }
        }
        out
    }

    /// The single-backend event path over a worker's observation:
    /// finish-rejection, then the worker's variable refusal, then
    /// ingest; a delivery's bits say which detectors see its clause
    /// holding.
    fn observe(
        &mut self,
        p: usize,
        clock: Vec<u32>,
        holds: Vec<usize>,
        invalid: Option<String>,
    ) -> Result<Vec<VerdictEvent>, SessionError> {
        self.pipeline.check_unfinished(p)?;
        if let Some(message) = invalid {
            return Err(SessionError::BadEvent(message));
        }
        if self.lost.contains(&p) {
            return Err(SessionError::MembershipLost(p));
        }
        // A retry of an update refused earlier: the worker shipped the
        // real bits with that one and ships none with this.
        let key = clock.get(p).map(|&own| (p, own));
        let holds = key.and_then(|k| self.kept.remove(&k)).unwrap_or(holds);
        let clock = VectorClock::from_components(clock);
        let result = self
            .pipeline
            .ingest(p, clock, holds.clone(), |detectors, d| {
                for (j, det) in detectors.iter_mut().enumerate() {
                    if !det.emitted {
                        let holds = d.payload.binary_search(&j).is_ok();
                        det.monitor.observe(d.process, holds, &d.clock);
                    }
                }
            });
        let no_space = matches!(
            result,
            Err(SessionError::Ingest(IngestError::Overflow { .. }))
        );
        if let (true, Some(key)) = (no_space, key) {
            if self.kept.len() < self.limits.buffer_capacity {
                self.kept.insert(key, holds);
            } else {
                self.lost.insert(p);
            }
        }
        result
    }

    /// Closes out of band — service shutdown, or a plain `close` frame
    /// reaching the aggregator directly instead of the gateway's
    /// sequenced close update. Updates still parked in the reorder
    /// stage are abandoned (their `observe`s count as discarded events
    /// alongside the buffer's held updates), then the pipeline closes
    /// as a session's does.
    pub fn close(&mut self) -> (Vec<VerdictEvent>, u64) {
        let abandoned = self
            .reorder
            .values()
            .filter(|b| matches!(b, SliceUpdateBody::Observe { .. }))
            .count() as u64;
        self.reorder.clear();
        let (verdicts, discarded) = self.pipeline.close();
        (verdicts, discarded + abandoned)
    }

    /// The final verdict of every predicate (settled or not), for the
    /// close report.
    pub fn all_verdicts(&self) -> Vec<VerdictEvent> {
        self.pipeline.all_verdicts()
    }

    /// Freezes the aggregator for persistence.
    pub fn snapshot(&self) -> AggregatorSnapshot {
        AggregatorSnapshot {
            k: self.k,
            vars: self.vars.clone(),
            predicates: self.predicates.clone(),
            pipeline: self.pipeline.snapshot(Vec::clone),
            next_seq: self.next_seq,
            reorder: self
                .reorder
                .iter()
                .map(|(seq, body)| (*seq, body.clone()))
                .collect(),
            kept: self
                .kept
                .iter()
                .map(|(&(p, own), holds)| (p, own, holds.clone()))
                .collect(),
            lost: self.lost.iter().copied().collect(),
        }
    }

    /// Rebuilds an aggregator from a snapshot: re-validates through
    /// the normal open path, then overwrites buffer, detectors, and
    /// sequencing state with the frozen values.
    pub fn restore(
        snap: &AggregatorSnapshot,
        processes: usize,
        buffer_capacity: usize,
    ) -> Result<DistAggregator, SessionError> {
        let shape =
            |what: &str| SessionError::BadOpen(format!("aggregator snapshot: inconsistent {what}"));
        let mut a = DistAggregator::open(
            snap.k,
            processes,
            &snap.vars,
            &[],
            &snap.predicates,
            buffer_capacity,
        )?;
        a.pipeline
            .restore(&snap.pipeline, a.limits, |holds| Ok(holds.clone()))
            .map_err(shape)?;
        a.next_seq = snap.next_seq;
        a.reorder = snap.reorder.iter().cloned().collect();
        a.kept = snap
            .kept
            .iter()
            .map(|(p, own, holds)| ((*p, *own), holds.clone()))
            .collect();
        a.lost = snap.lost.iter().copied().collect();
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_detect::online::OnlineVerdict;
    use hb_tracefmt::wire::{WireClause, WireMode};

    fn pred(id: &str, clauses: &[(usize, &str, &str, i64)]) -> WirePredicate {
        WirePredicate {
            id: id.into(),
            mode: WireMode::Conjunctive,
            clauses: clauses
                .iter()
                .map(|&(process, var, op, value)| WireClause {
                    process,
                    var: var.into(),
                    op: op.into(),
                    value,
                })
                .collect(),
            pattern: None,
        }
    }

    fn agg() -> DistAggregator {
        DistAggregator::open(
            2,
            2,
            &["x0".to_string(), "x1".to_string()],
            &[],
            &[pred("ef", &[(0, "x0", "=", 2), (1, "x1", "=", 1)])],
            4096,
        )
        .unwrap()
    }

    fn obs(p: usize, clock: &[u32], holds: &[usize]) -> SliceUpdateBody {
        SliceUpdateBody::Observe {
            p,
            clock: clock.to_vec(),
            holds: holds.to_vec(),
            invalid: None,
        }
    }

    /// The Fig. 2(a) stream as membership bits: detection settles at
    /// the same update a single-backend session would.
    #[test]
    fn detects_from_membership_bits() {
        let mut a = agg();
        assert!(a.update(0, obs(1, &[0, 1], &[0])).is_empty()); // x1=1 holds
        assert!(a.update(1, obs(0, &[1, 0], &[])).is_empty()); // x0=1: no
        let steps = a.update(2, obs(0, &[2, 0], &[0])); // x0=2 → detect
        assert_eq!(steps.len(), 1);
        match &steps[0] {
            AggStep::Verdict(v) => {
                assert_eq!(v.predicate, "ef");
                match &v.verdict {
                    OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[2, 1]),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    /// Updates arrive with scrambled sequence numbers: nothing happens
    /// until the gap fills, then everything processes in seq order.
    #[test]
    fn reorders_by_sequence_number() {
        let mut a = agg();
        assert!(a.update(2, obs(0, &[2, 0], &[0])).is_empty());
        assert!(a.update(1, obs(0, &[1, 0], &[])).is_empty());
        // A bit-less second copy of a parked update does not replace it.
        assert!(a.update(2, obs(0, &[2, 0], &[])).is_empty());
        assert_eq!(a.reordering(), 2);
        let steps = a.update(0, obs(1, &[0, 1], &[0]));
        assert_eq!(a.reordering(), 0);
        assert!(steps.iter().any(|s| matches!(s, AggStep::Verdict(_))));
        // Stale failover replays are dropped.
        assert!(a.update(1, obs(0, &[1, 0], &[])).is_empty());
        assert_eq!(a.reordering(), 0);
    }

    #[test]
    fn errors_mirror_the_single_backend_session() {
        let mut a = agg();
        a.update(0, obs(0, &[1, 0], &[]));
        // Duplicate clock: re-derived by the replica buffer.
        let steps = a.update(1, obs(0, &[1, 0], &[]));
        assert_eq!(
            steps,
            vec![AggStep::Error(SessionError::Ingest(
                IngestError::Duplicate { process: 0, seq: 1 }
            ))]
        );
        // Worker-side variable refusal is forwarded verbatim.
        let steps = a.update(
            2,
            SliceUpdateBody::Observe {
                p: 0,
                clock: vec![2, 0],
                holds: vec![],
                invalid: Some("undeclared variable 'nope'".into()),
            },
        );
        assert_eq!(
            steps,
            vec![AggStep::Error(SessionError::BadEvent(
                "undeclared variable 'nope'".into()
            ))]
        );
        // Out-of-range process in an update.
        let steps = a.update(3, obs(9, &[1, 0], &[]));
        assert!(matches!(
            &steps[0],
            AggStep::Error(SessionError::Ingest(IngestError::BadProcess { .. }))
        ));
        // Finish, then an event for the finished process.
        a.update(4, SliceUpdateBody::Finish { p: 0 });
        let steps = a.update(5, obs(0, &[2, 0], &[0]));
        assert_eq!(
            steps,
            vec![AggStep::Error(SessionError::AlreadyFinished(0))]
        );
        // Finish out of range.
        let steps = a.update(6, SliceUpdateBody::Finish { p: 9 });
        assert_eq!(
            steps,
            vec![AggStep::Error(SessionError::BadEvent(
                "process 9 out of range".into()
            ))]
        );
    }

    #[test]
    fn finishes_settle_impossible_and_close_discards() {
        let mut a = agg();
        a.update(0, obs(0, &[1, 0], &[]));
        let steps = a.update(1, SliceUpdateBody::Finish { p: 0 });
        assert!(matches!(
            &steps[0],
            AggStep::Verdict(VerdictEvent {
                verdict: OnlineVerdict::Impossible,
                ..
            })
        ));

        // A fresh aggregator with a stranded held update: close
        // discards it and settles.
        let mut a = agg();
        a.update(0, obs(1, &[1, 1], &[0])); // held: needs [1,*]
        assert_eq!(a.held(), 1);
        let steps = a.update(1, SliceUpdateBody::Close);
        assert_eq!(
            steps,
            vec![
                AggStep::Verdict(VerdictEvent {
                    predicate: "ef".into(),
                    pattern: false,
                    verdict: OnlineVerdict::Impossible,
                }),
                AggStep::Closed { discarded: 1 },
            ]
        );
    }

    #[test]
    fn initially_true_predicates_settle_at_open() {
        let mut a = DistAggregator::open(
            2,
            2,
            &["x".to_string()],
            &[
                [("x".to_string(), 1)].into_iter().collect(),
                [("x".to_string(), 1)].into_iter().collect(),
            ],
            &[pred("now", &[(0, "x", "=", 1), (1, "x", "=", 1)])],
            4096,
        )
        .unwrap();
        let v = a.take_initial_verdicts();
        assert_eq!(v.len(), 1);
        match &v[0].verdict {
            OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[0, 0]),
            other => panic!("{other:?}"),
        }
        assert!(a.take_initial_verdicts().is_empty());
    }

    #[test]
    fn snapshot_restore_round_trips_mid_stream() {
        let mut a = agg();
        a.update(0, obs(1, &[0, 1], &[0]));
        a.update(2, obs(0, &[2, 0], &[0])); // parked in reorder
        a.update(3, obs(1, &[2, 2], &[0])); // will be held once seq 2 lands
        let snap = a.snapshot();
        let mut r = DistAggregator::restore(&snap, 2, 4096).unwrap();
        assert_eq!(r.snapshot(), snap, "snapshot is stable");
        for x in [&mut a, &mut r] {
            let steps = x.update(1, obs(0, &[1, 0], &[]));
            assert!(steps.iter().any(|s| matches!(s, AggStep::Verdict(_))));
        }
        assert_eq!(a.snapshot(), r.snapshot());
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let a = agg();
        let good = a.snapshot();
        let mut bad = good.clone();
        bad.pipeline.frontier = vec![0];
        assert!(DistAggregator::restore(&bad, 2, 4096).is_err());
        let mut bad = good.clone();
        bad.pipeline.monitors.clear();
        assert!(DistAggregator::restore(&bad, 2, 4096).is_err());
        let mut bad = good;
        bad.pipeline.held.push(crate::persist::HeldSnapshot {
            process: 7,
            clock: vec![1, 1],
            payload: vec![],
        });
        assert!(DistAggregator::restore(&bad, 2, 4096).is_err());
    }

    /// A snapshot the previous build wrote for an aggregator, whose
    /// detectors were fed members only: `seen` short by the bit-less
    /// deliveries, their count in the monitor's top-level `pending`. It
    /// resumes exactly where an aggregator that observes every delivery
    /// is: the same steps, and the same snapshot text at the end.
    #[test]
    fn an_old_snapshot_with_pending_skips_resumes_exactly() {
        use crate::persist::{AggregatorSlotSnapshot, ServiceSnapshot};
        use hb_detect::online::DetectorState;

        let mut original = agg();
        for (seq, p, clock) in [(0, 1, [0, 1]), (1, 0, [1, 0]), (2, 0, [2, 0])] {
            assert!(original.update(seq, obs(p, &clock, &[])).is_empty());
        }
        let mut old = original.snapshot();
        let DetectorState::Conjunctive(state) = &mut old.pipeline.monitors[0].state else {
            panic!("a conjunctive detector");
        };
        assert_eq!(state.seen, vec![2, 1]);
        state.seen = vec![0, 0];
        let json = |snap: AggregatorSnapshot| {
            ServiceSnapshot {
                aggregators: vec![AggregatorSlotSnapshot {
                    name: "d".into(),
                    processes: 2,
                    snap,
                }],
                ..ServiceSnapshot::default()
            }
            .to_json()
        };
        let text = json(old);
        let end = r#""verdict":{"kind":"pending"}}"#;
        let old_text = text.replacen(end, &format!(r#"{end},"pending":[2,1]"#), 1);
        assert_ne!(old_text, text);
        let read = ServiceSnapshot::from_json(old_text.as_bytes()).unwrap();
        let mut restored = DistAggregator::restore(&read.aggregators[0].snap, 2, 4096).unwrap();
        assert_eq!(restored.snapshot(), original.snapshot());

        for a in [&mut original, &mut restored] {
            assert!(a.update(3, obs(1, &[0, 2], &[0])).is_empty());
            match &a.update(4, obs(0, &[3, 0], &[0]))[..] {
                [AggStep::Verdict(v)] => match &v.verdict {
                    OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[3, 2]),
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(json(restored.snapshot()), json(original.snapshot()));
    }

    fn agg_with_capacity(capacity: usize) -> DistAggregator {
        DistAggregator::open(
            1,
            2,
            &["x".to_string()],
            &[],
            &[pred("ef", &[(0, "x", "=", 1), (1, "x", "=", 1)])],
            capacity,
        )
        .unwrap()
    }

    const OVERFLOW: AggStep =
        AggStep::Error(SessionError::Ingest(IngestError::Overflow { capacity: 1 }));

    /// The worker computes an event's bits once. When the hold buffer
    /// refuses that update and the client retries the event, the worker
    /// ships empty bits; the aggregator must judge the retry by the
    /// bits it kept, across a snapshot, and detect at `[2, 1]` as a
    /// single-backend session does.
    #[test]
    fn a_retried_update_is_judged_by_the_bits_kept_at_its_refusal() {
        let mut a = agg_with_capacity(1);
        assert!(a.update(0, obs(1, &[1, 2], &[0])).is_empty()); // held
        assert_eq!(a.update(1, obs(0, &[2, 0], &[0])), vec![OVERFLOW]);
        let snap = a.snapshot();
        assert_eq!(snap.kept, vec![(0, 2, vec![0])]);
        let mut a = DistAggregator::restore(&snap, 2, 1).unwrap();
        assert_eq!(a.snapshot(), snap, "snapshot is stable");
        assert!(a.update(2, obs(0, &[1, 0], &[])).is_empty());
        // The retry, as the worker ships it: a position replay.
        assert!(a.update(3, obs(0, &[2, 0], &[])).is_empty());
        let steps = a.update(4, obs(1, &[0, 1], &[0]));
        match &steps[..] {
            [AggStep::Verdict(v)] => match &v.verdict {
                OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[2, 1]),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        assert!(a.snapshot().kept.is_empty());
    }

    /// Past the bound the bits are gone, and the aggregator says so on
    /// every later update of the process instead of guessing.
    #[test]
    fn refusals_past_the_kept_bound_lose_the_process_loudly() {
        let mut a = agg_with_capacity(1);
        assert!(a.update(0, obs(1, &[1, 2], &[0])).is_empty()); // held
        assert_eq!(a.update(1, obs(0, &[2, 0], &[0])), vec![OVERFLOW]); // kept
        assert_eq!(a.update(2, obs(0, &[3, 0], &[0])), vec![OVERFLOW]); // lost
        let lost = vec![AggStep::Error(SessionError::MembershipLost(0))];
        assert_eq!(a.update(3, obs(0, &[1, 0], &[])), lost);
        let snap = a.snapshot();
        assert_eq!(snap.lost, vec![0]);
        let mut a = DistAggregator::restore(&snap, 2, 1).unwrap();
        assert_eq!(a.update(4, obs(0, &[2, 0], &[])), lost);
        // The other process is unaffected.
        assert!(a.update(5, obs(1, &[0, 1], &[0])).is_empty());
    }
}
