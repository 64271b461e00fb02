//! Monitoring sessions.
//!
//! A session is one monitored computation: a fixed process count, a
//! variable namespace, and the set of predicates registered when the
//! session opened. Events flow through the session's delivery
//! `Pipeline`; each delivered event advances the per-process local
//! state and is observed by every registered on-line detector. The
//! session — not the detector — evaluates local clauses, so detectors
//! see only `(process, holds, clock)` triples — exactly what a
//! distributed session's workers ship to its aggregator, which is why
//! that aggregator is the same pipeline behind a different front-end.
//!
//! Verdicts are emitted exactly once per predicate, the moment they
//! settle. [`Session::close`] force-settles everything: stranded held
//! events are discarded (their causal past can never complete), every
//! process is declared finished, and any predicate still pending
//! becomes `Impossible`.

use crate::buffer::{Delivered, IngestError};
use crate::persist::SessionSnapshot;
use crate::pipeline::{validate, Body, Detector, Pipeline};
use hb_computation::{LocalState, VarId, VarTable};
use hb_detect::online::OnlineVerdict;
use hb_tracefmt::wire::WirePredicate;
use hb_vclock::VectorClock;
use std::collections::BTreeMap;
use std::fmt;

/// Why a session could not be opened or driven.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The open request was malformed (bad predicate, var, process…).
    BadOpen(String),
    /// An event referenced something undeclared or was otherwise
    /// malformed.
    BadEvent(String),
    /// An event arrived for a process already declared finished — a
    /// distinct variant (not a `BadEvent` string) so the service can
    /// tag it with a machine-readable error kind: an at-least-once
    /// client replaying a close window triggers it benignly.
    AlreadyFinished(usize),
    /// The causal buffer refused the event.
    Ingest(IngestError),
    /// A distributed session's aggregator was refusing updates for
    /// lack of hold space faster than they were retried, ran out of
    /// room to keep the refused updates' slice membership, and so can
    /// no longer judge any update of this process.
    MembershipLost(usize),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::BadOpen(m) => write!(f, "bad open: {m}"),
            SessionError::BadEvent(m) => write!(f, "bad event: {m}"),
            SessionError::AlreadyFinished(p) => {
                write!(f, "bad event: process {p} already finished")
            }
            SessionError::Ingest(e) => write!(f, "{e}"),
            SessionError::MembershipLost(p) => write!(
                f,
                "slice membership of a refused update of process {p} was lost \
                 (more refusals outstanding than the hold buffer has slots); \
                 process {p} can no longer be judged"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<IngestError> for SessionError {
    fn from(e: IngestError) -> Self {
        SessionError::Ingest(e)
    }
}

/// A settled (or force-settled) verdict for one predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictEvent {
    /// The predicate's caller-chosen id.
    pub predicate: String,
    /// Whether the predicate is a pattern predicate (drives the
    /// per-predicate stats keys, which distinguish the two families).
    pub pattern: bool,
    /// The verdict.
    pub verdict: OnlineVerdict,
}

/// Limits for a session's causal buffer.
#[derive(Debug, Clone, Copy)]
pub struct SessionLimits {
    /// Maximum held-back events; one more is refused with backpressure.
    pub buffer_capacity: usize,
    /// Inert: nothing reads it, and every delivery reaches the
    /// detectors. It stays only because `benchmark/src/layers.rs`
    /// still sets it; the benchmark housekeeping of ROADMAP item 1
    /// deletes it.
    #[deprecated(note = "sessions no longer slice; the field has no effect")]
    pub slice: bool,
}

#[allow(deprecated)]
impl Default for SessionLimits {
    fn default() -> Self {
        SessionLimits {
            buffer_capacity: 4096,
            slice: true,
        }
    }
}

/// One monitored computation with its registered detectors.
pub struct Session {
    name: String,
    vars: VarTable,
    /// The predicates as registered at open (retained for snapshots).
    predicates: Vec<WirePredicate>,
    /// Current local state per process (advanced on delivery).
    states: Vec<LocalState>,
    /// What each predicate judges a delivery by; `bodies[j]` feeds the
    /// pipeline's detector `j`.
    bodies: Vec<Body>,
    pipeline: Pipeline<Vec<(VarId, i64)>>,
}

impl Session {
    /// Opens a session: validates the predicates against the declared
    /// variables and process count, builds initial states, and
    /// instantiates one on-line detector per predicate.
    pub fn open(
        name: &str,
        processes: usize,
        var_names: &[String],
        initial: &[BTreeMap<String, i64>],
        predicates: &[WirePredicate],
        limits: SessionLimits,
    ) -> Result<Session, SessionError> {
        let validated = validate(processes, var_names, initial, predicates)?;
        let pipeline = Pipeline::open(predicates, &validated, limits);
        Ok(Session {
            name: name.to_string(),
            vars: validated.vars,
            predicates: predicates.to_vec(),
            states: validated.states,
            bodies: validated.bodies,
            pipeline,
        })
    }

    /// Verdicts that settled at open time (initial-cut detections).
    pub fn take_initial_verdicts(&mut self) -> Vec<VerdictEvent> {
        self.pipeline.take_initial_verdicts()
    }

    /// Freezes the session's full state for persistence.
    pub fn snapshot(&self) -> SessionSnapshot {
        let pipeline = self.pipeline.snapshot(|set| {
            set.iter()
                .map(|(id, v)| (self.vars.name(*id).to_string(), *v))
                .collect()
        });
        SessionSnapshot {
            name: self.name.clone(),
            processes: self.states.len(),
            vars: self.vars.iter().map(|(_, n)| n.to_string()).collect(),
            predicates: self.predicates.clone(),
            states: self.states.iter().map(|s| s.values().to_vec()).collect(),
            pipeline,
        }
    }

    /// Rebuilds a session from a snapshot: re-validates the predicates
    /// through the normal open path, then overwrites states, buffer,
    /// and detector internals with the frozen values.
    pub fn restore(snap: &SessionSnapshot, limits: SessionLimits) -> Result<Session, SessionError> {
        let shape = |what: &str| {
            SessionError::BadOpen(format!(
                "snapshot of session '{}': inconsistent {what}",
                snap.name
            ))
        };
        let mut s = Session::open(
            &snap.name,
            snap.processes,
            &snap.vars,
            &[],
            &snap.predicates,
            limits,
        )?;
        if snap.states.len() != snap.processes {
            return Err(shape("per-process vectors"));
        }
        s.states = snap
            .states
            .iter()
            .map(|v| LocalState::from_values(v.clone()))
            .collect();
        let vars = &s.vars;
        s.pipeline
            .restore(&snap.pipeline, limits, |set| {
                set.iter()
                    .map(|(vname, &value)| Some((vars.lookup(vname)?, value)))
                    .collect::<Option<_>>()
                    .ok_or("held variable")
            })
            .map_err(shape)?;
        Ok(s)
    }

    /// Events currently held in the causal buffer.
    pub fn held(&self) -> usize {
        self.pipeline.held()
    }

    /// Events delivered to the detectors so far.
    pub fn delivered(&self) -> u64 {
        self.pipeline.delivered()
    }

    /// Ingests one event. On success, returns the verdicts that settled
    /// as a consequence (usually none).
    pub fn event(
        &mut self,
        p: usize,
        clock: VectorClock,
        set: &BTreeMap<String, i64>,
    ) -> Result<Vec<VerdictEvent>, SessionError> {
        self.pipeline.check_unfinished(p)?;
        let mut updates = Vec::with_capacity(set.len());
        for (vname, &value) in set {
            let id = self
                .vars
                .lookup(vname)
                .ok_or_else(|| SessionError::BadEvent(format!("undeclared variable '{vname}'")))?;
            updates.push((id, value));
        }
        let (states, bodies) = (&mut self.states, &self.bodies);
        self.pipeline.ingest(p, clock, updates, |detectors, d| {
            for (var, value) in &d.payload {
                states[d.process].set(*var, *value);
            }
            for (det, body) in detectors.iter_mut().zip(bodies) {
                if !det.emitted {
                    observe_delivery(det, body, states, d);
                }
            }
        })
    }

    /// Declares that process `p` will produce no further events.
    pub fn finish_process(&mut self, p: usize) -> Result<Vec<VerdictEvent>, SessionError> {
        self.pipeline.finish_process(p)
    }

    /// Closes the session: discards stranded held events, declares every
    /// process finished, and force-settles all remaining predicates.
    /// Returns the settled verdicts plus the number of discarded events.
    pub fn close(&mut self) -> (Vec<VerdictEvent>, u64) {
        self.pipeline.close()
    }

    /// The final verdict of every predicate (settled or not), for the
    /// close report.
    pub fn all_verdicts(&self) -> Vec<VerdictEvent> {
        self.pipeline.all_verdicts()
    }
}

/// Feeds one delivery to a predicate's detector. `states` must
/// already reflect the delivery's assignments.
fn observe_delivery(
    det: &mut Detector,
    body: &Body,
    states: &[LocalState],
    d: &Delivered<Vec<(VarId, i64)>>,
) {
    let clauses = match body {
        Body::Clauses(clauses) => clauses,
        Body::Atoms(atoms) => {
            // Pattern atoms match the event's assignments — the deltas,
            // not the accumulated state.
            let mut mask = 0u64;
            for (k, a) in atoms.iter().enumerate() {
                if a.process.is_some_and(|p| p != d.process) {
                    continue;
                }
                if d.payload
                    .iter()
                    .any(|&(var, value)| var == a.var && a.op.apply(value, a.value))
                {
                    mask |= 1 << k;
                }
            }
            det.monitor.observe_atoms(d.process, mask, &d.clock);
            return;
        }
    };
    let holds = clauses[d.process]
        .as_ref()
        .is_some_and(|c| c.eval(&states[d.process]));
    det.monitor.observe(d.process, holds, &d.clock);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_tracefmt::wire::{WireClause, WireMode};

    fn vc(c: &[u32]) -> VectorClock {
        VectorClock::from_components(c.to_vec())
    }

    fn pred(id: &str, mode: WireMode, clauses: &[(usize, &str, &str, i64)]) -> WirePredicate {
        WirePredicate {
            id: id.into(),
            mode,
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

    /// An anonymous-process two-atom pattern `a=1 -> b=1` (optionally
    /// with a causal second edge).
    fn pattern_pred(id: &str, atoms: &[(Option<usize>, &str, i64, bool)]) -> WirePredicate {
        use hb_tracefmt::wire::{WireAtom, WirePattern};
        WirePredicate {
            id: id.into(),
            mode: WireMode::Pattern,
            clauses: Vec::new(),
            pattern: Some(WirePattern {
                atoms: atoms
                    .iter()
                    .map(|&(process, var, value, causal)| WireAtom {
                        process,
                        var: var.into(),
                        op: "=".into(),
                        value,
                        causal,
                    })
                    .collect(),
            }),
        }
    }

    fn set(pairs: &[(&str, i64)]) -> BTreeMap<String, i64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    /// The paper's Fig. 2(a) shape: P0 runs e1 e2 e3 (e2 a send), P1
    /// runs f1 f2 f3 (f2 the receive). Conjunction `x0=2 ∧ x1=1` holds
    /// first at the cut (e2, f1) — `I_p = [2, 1]`.
    fn fig2_session() -> Session {
        Session::open(
            "fig2",
            2,
            &["x0".to_string(), "x1".to_string()],
            &[],
            &[pred(
                "ef",
                WireMode::Conjunctive,
                &[(0, "x0", "=", 2), (1, "x1", "=", 1)],
            )],
            SessionLimits::default(),
        )
        .unwrap()
    }

    #[test]
    fn in_order_detection_finds_least_cut() {
        let mut s = fig2_session();
        // P1: f1 sets x1=1.
        assert!(s
            .event(1, vc(&[0, 1]), &set(&[("x1", 1)]))
            .unwrap()
            .is_empty());
        // P0: e1 sets x0=1.
        assert!(s
            .event(0, vc(&[1, 0]), &set(&[("x0", 1)]))
            .unwrap()
            .is_empty());
        // P0: e2 (send) sets x0=2 → detection at [2, 1].
        let v = s.event(0, vc(&[2, 0]), &set(&[("x0", 2)])).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].predicate, "ef");
        match &v[0].verdict {
            OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[2, 1]),
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn out_of_order_arrival_same_verdict() {
        let mut s = fig2_session();
        // f2 (the receive, clock [2,2]) arrives before everything else.
        assert!(s
            .event(1, vc(&[2, 2]), &set(&[("x1", 2)]))
            .unwrap()
            .is_empty());
        assert_eq!(s.held(), 1);
        assert!(s
            .event(0, vc(&[1, 0]), &set(&[("x0", 1)]))
            .unwrap()
            .is_empty());
        assert!(s
            .event(1, vc(&[0, 1]), &set(&[("x1", 1)]))
            .unwrap()
            .is_empty());
        // e2 completes the causal past: cascade delivers e2 then f2, and
        // the detection fires with the same least cut as in order.
        let v = s.event(0, vc(&[2, 0]), &set(&[("x0", 2)])).unwrap();
        assert_eq!(v.len(), 1);
        match &v[0].verdict {
            OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[2, 1]),
            other => panic!("expected detection, got {other:?}"),
        }
        assert_eq!(s.held(), 0);
        assert_eq!(s.delivered(), 4);
    }

    #[test]
    fn finish_without_detection_is_impossible() {
        let mut s = fig2_session();
        s.event(0, vc(&[1, 0]), &set(&[("x0", 1)])).unwrap();
        // P0 finished without ever satisfying x0=2, so the conjunction
        // settles Impossible immediately.
        let v = s.finish_process(0).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].verdict, OnlineVerdict::Impossible);
        // Later finishes emit nothing further.
        assert!(s.finish_process(1).unwrap().is_empty());
    }

    #[test]
    fn finish_is_deferred_while_events_are_held() {
        let mut s = fig2_session();
        // P1's second event held (its first never arrived)…
        s.event(1, vc(&[0, 2]), &set(&[("x1", 1)])).unwrap();
        // …so finishing P1 must not reach the detector yet (the held
        // event may still be delivered and observed).
        assert!(s.finish_process(1).unwrap().is_empty());
        // The missing first event arrives; both deliver; then the
        // deferred finish lands.
        s.event(1, vc(&[0, 1]), &set(&[])).unwrap();
        let v = s.finish_process(0).unwrap();
        // x1=1 (after f2) but P0 finished without x0=2: impossible.
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].verdict, OnlineVerdict::Impossible);
    }

    #[test]
    fn close_discards_stranded_events_and_settles() {
        let mut s = fig2_session();
        s.event(1, vc(&[1, 1]), &set(&[("x1", 1)])).unwrap(); // needs e1, never sent
        assert_eq!(s.held(), 1);
        let (verdicts, discarded) = s.close();
        assert_eq!(discarded, 1);
        assert_eq!(s.held(), 0);
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].verdict, OnlineVerdict::Impossible);
    }

    #[test]
    fn event_after_finish_is_rejected() {
        let mut s = fig2_session();
        s.finish_process(0).unwrap();
        let err = s.event(0, vc(&[1, 0]), &set(&[])).unwrap_err();
        assert!(matches!(err, SessionError::AlreadyFinished(0)));
    }

    #[test]
    fn duplicate_event_is_rejected() {
        let mut s = fig2_session();
        s.event(0, vc(&[1, 0]), &set(&[("x0", 1)])).unwrap();
        assert!(matches!(
            s.event(0, vc(&[1, 0]), &set(&[("x0", 1)])),
            Err(SessionError::Ingest(IngestError::Duplicate { .. }))
        ));
    }

    /// An at-least-once client re-sends an event whose first copy is
    /// still held. The copy is refused, so nothing stale outlives the
    /// delivery: the finishes reach the detectors and the verdict
    /// settles without `close`.
    #[test]
    fn duplicate_of_a_held_event_does_not_pin_the_session() {
        let mut s = fig2_session();
        // P1's receive arrives before P0's send and is held.
        assert!(s
            .event(1, vc(&[1, 1]), &set(&[("x1", 3)]))
            .unwrap()
            .is_empty());
        assert!(matches!(
            s.event(1, vc(&[1, 1]), &set(&[("x1", 3)])),
            Err(SessionError::Ingest(IngestError::Duplicate {
                process: 1,
                seq: 1
            }))
        ));
        assert_eq!(s.held(), 1);
        // The send arrives; both deliver.
        s.event(0, vc(&[1, 0]), &set(&[("x0", 2)])).unwrap();
        assert_eq!((s.held(), s.delivered()), (0, 2));
        // Only P1's finish can settle this: P0's clause holds.
        let mut verdicts = s.finish_process(0).unwrap();
        verdicts.extend(s.finish_process(1).unwrap());
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].verdict, OnlineVerdict::Impossible);
        assert_eq!(s.held(), 0);
    }

    #[test]
    fn disjunctive_predicate_fires_on_first_hit() {
        let mut s = Session::open(
            "d",
            2,
            &["x".to_string()],
            &[],
            &[pred(
                "any",
                WireMode::Disjunctive,
                &[(0, "x", ">=", 5), (1, "x", ">=", 5)],
            )],
            SessionLimits::default(),
        )
        .unwrap();
        assert!(s
            .event(0, vc(&[1, 0]), &set(&[("x", 3)]))
            .unwrap()
            .is_empty());
        let v = s.event(1, vc(&[0, 1]), &set(&[("x", 7)])).unwrap();
        assert_eq!(v.len(), 1);
        match &v[0].verdict {
            OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[0, 1]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn initially_true_predicate_settles_at_open() {
        let mut s = Session::open(
            "init",
            2,
            &["x".to_string()],
            &[set(&[("x", 1)]), set(&[("x", 1)])],
            &[pred(
                "now",
                WireMode::Conjunctive,
                &[(0, "x", "=", 1), (1, "x", "=", 1)],
            )],
            SessionLimits::default(),
        )
        .unwrap();
        let v = s.take_initial_verdicts();
        assert_eq!(v.len(), 1);
        match &v[0].verdict {
            OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[0, 0]),
            other => panic!("{other:?}"),
        }
    }

    /// Two processes sharing `unlock`/`lock` flags: the session must
    /// flag the unlock/lock inversion even though the delivered order
    /// (lock before unlock) never exhibits it — the two are concurrent.
    fn inversion_session() -> Session {
        Session::open(
            "inv",
            2,
            &["unlock".to_string(), "lock".to_string()],
            &[],
            &[pattern_pred(
                "inversion",
                &[(Some(1), "unlock", 1, false), (Some(0), "lock", 1, false)],
            )],
            SessionLimits::default(),
        )
        .unwrap()
    }

    #[test]
    fn pattern_predicts_a_reordering_the_delivered_order_never_shows() {
        let mut s = inversion_session();
        // P0 locks first (delivered order: lock, then unlock)…
        assert!(s
            .event(0, vc(&[1, 0]), &set(&[("lock", 1)]))
            .unwrap()
            .is_empty());
        // …but P1's unlock is *concurrent*, so some linearization puts
        // it first: the inversion fires the moment the unlock arrives.
        let v = s.event(1, vc(&[0, 1]), &set(&[("unlock", 1)])).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].predicate, "inversion");
        assert!(matches!(v[0].verdict, OnlineVerdict::Detected(_)));
    }

    #[test]
    fn pattern_respects_happened_before() {
        let mut s = inversion_session();
        // P1 unlocks…
        s.event(1, vc(&[0, 1]), &set(&[("unlock", 0)])).unwrap();
        // …and P0's lock causally *follows* a plain P1 event, while the
        // unlock=1 event causally follows the lock: no linearization
        // has unlock=1 before lock=1.
        s.event(0, vc(&[1, 1]), &set(&[("lock", 1)])).unwrap();
        s.event(1, vc(&[1, 2]), &set(&[("unlock", 1)])).unwrap();
        let mut verdicts = s.finish_process(0).unwrap();
        verdicts.extend(s.finish_process(1).unwrap());
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].verdict, OnlineVerdict::Impossible);
    }

    #[test]
    fn pattern_atoms_match_deltas_not_state() {
        // P0 sets x=1 once; a later event leaves x alone. The pattern
        // x=1 -> x=1 needs *two events* assigning x=1, so carrying the
        // value in the state must not fire it.
        let mut s = Session::open(
            "deltas",
            1,
            &["x".to_string(), "y".to_string()],
            &[],
            &[pattern_pred(
                "twice",
                &[(None, "x", 1, false), (None, "x", 1, false)],
            )],
            SessionLimits::default(),
        )
        .unwrap();
        s.event(0, vc(&[1]), &set(&[("x", 1)])).unwrap();
        s.event(0, vc(&[2]), &set(&[("y", 5)])).unwrap();
        let v = s.finish_process(0).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].verdict, OnlineVerdict::Impossible);
    }

    #[test]
    fn pattern_open_validation() {
        let bad = |preds: &[WirePredicate]| {
            Session::open(
                "b",
                2,
                &["x".to_string()],
                &[],
                preds,
                SessionLimits::default(),
            )
            .err()
            .unwrap()
        };
        // Undeclared variable.
        assert!(matches!(
            bad(&[pattern_pred("p", &[(None, "y", 1, false)])]),
            SessionError::BadOpen(_)
        ));
        // Process out of range.
        assert!(matches!(
            bad(&[pattern_pred("p", &[(Some(9), "x", 1, false)])]),
            SessionError::BadOpen(_)
        ));
        // Leading causal edge.
        assert!(matches!(
            bad(&[pattern_pred("p", &[(None, "x", 1, true)])]),
            SessionError::BadOpen(_)
        ));
        // Pattern mode without a body.
        let headless = WirePredicate {
            id: "p".into(),
            mode: WireMode::Pattern,
            clauses: Vec::new(),
            pattern: None,
        };
        assert!(matches!(bad(&[headless]), SessionError::BadOpen(_)));
        // A pattern body on a clause mode.
        let mut mixed = pattern_pred("p", &[(None, "x", 1, false)]);
        mixed.mode = WireMode::Conjunctive;
        mixed.clauses = vec![WireClause {
            process: 0,
            var: "x".into(),
            op: "=".into(),
            value: 1,
        }];
        assert!(matches!(bad(&[mixed]), SessionError::BadOpen(_)));
    }

    #[test]
    fn pattern_snapshot_restore_mid_run_resumes_to_the_same_verdict() {
        let mut original = inversion_session();
        original
            .event(0, vc(&[1, 0]), &set(&[("lock", 1)]))
            .unwrap();

        let snap = original.snapshot();
        let mut restored = Session::restore(&snap, SessionLimits::default()).unwrap();
        assert_eq!(restored.snapshot(), snap, "snapshot is stable");

        for s in [&mut original, &mut restored] {
            let v = s.event(1, vc(&[0, 1]), &set(&[("unlock", 1)])).unwrap();
            assert_eq!(v.len(), 1);
            assert!(matches!(v[0].verdict, OnlineVerdict::Detected(_)));
        }
        assert_eq!(original.snapshot(), restored.snapshot());
    }

    #[test]
    fn snapshot_restore_mid_run_resumes_to_the_same_verdict() {
        // Freeze mid-run with a held event and a pending predicate, then
        // finish both the original and the restored copy identically.
        let mut original = fig2_session();
        original.event(1, vc(&[0, 1]), &set(&[("x1", 1)])).unwrap();
        original.event(1, vc(&[2, 2]), &set(&[("x1", 2)])).unwrap(); // held
        assert_eq!(original.held(), 1);

        let snap = original.snapshot();
        let mut restored = Session::restore(&snap, SessionLimits::default()).unwrap();
        assert_eq!(restored.snapshot(), snap, "snapshot is stable");
        assert_eq!(restored.held(), 1);
        assert_eq!(restored.delivered(), 1);

        for s in [&mut original, &mut restored] {
            assert!(s
                .event(0, vc(&[1, 0]), &set(&[("x0", 1)]))
                .unwrap()
                .is_empty());
            let v = s.event(0, vc(&[2, 0]), &set(&[("x0", 2)])).unwrap();
            assert_eq!(v.len(), 1);
            match &v[0].verdict {
                OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[2, 1]),
                other => panic!("expected detection, got {other:?}"),
            }
        }
        assert_eq!(original.snapshot(), restored.snapshot());
    }

    #[test]
    fn restore_preserves_emitted_flags_and_settled_verdicts() {
        let mut s = fig2_session();
        s.event(1, vc(&[0, 1]), &set(&[("x1", 1)])).unwrap();
        s.event(0, vc(&[1, 0]), &set(&[("x0", 1)])).unwrap();
        let v = s.event(0, vc(&[2, 0]), &set(&[("x0", 2)])).unwrap();
        assert_eq!(v.len(), 1);

        let restored = Session::restore(&s.snapshot(), SessionLimits::default()).unwrap();
        // The settled verdict is still visible…
        let all = restored.all_verdicts();
        assert!(matches!(all[0].verdict, OnlineVerdict::Detected(_)));
        // …but was already emitted, so closing emits nothing new.
        let mut restored = restored;
        let (verdicts, discarded) = restored.close();
        assert!(verdicts.is_empty());
        assert_eq!(discarded, 0);
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let s = fig2_session();
        let good = s.snapshot();
        let mut bad = good.clone();
        bad.pipeline.frontier = vec![0];
        assert!(Session::restore(&bad, SessionLimits::default()).is_err());
        let mut bad = good.clone();
        bad.pipeline.monitors.clear();
        assert!(Session::restore(&bad, SessionLimits::default()).is_err());
        let mut bad = good;
        bad.pipeline.held.push(crate::persist::HeldSnapshot {
            process: 7,
            clock: vec![1, 1],
            payload: Default::default(),
        });
        assert!(Session::restore(&bad, SessionLimits::default()).is_err());
    }

    /// A snapshot the previous build wrote for a session whose filter
    /// kept clause-false events from its detector: `seen` short by those
    /// events, the count in the `slice` record's `pending`. It resumes
    /// exactly where the unfiltered session is: the same verdicts, and
    /// the same snapshot text at the end.
    #[test]
    fn an_old_snapshot_with_pending_skips_resumes_exactly() {
        use crate::persist::ServiceSnapshot;
        use hb_detect::online::DetectorState;

        let mut original = fig2_session();
        // Three clause-false events: the old filter kept them all.
        original.event(1, vc(&[0, 1]), &set(&[("x1", 3)])).unwrap();
        original.event(0, vc(&[1, 0]), &set(&[("x0", 1)])).unwrap();
        original.event(0, vc(&[2, 0]), &set(&[])).unwrap();
        let mut old = original.snapshot();
        let DetectorState::Conjunctive(state) = &mut old.pipeline.monitors[0].state else {
            panic!("a conjunctive detector");
        };
        assert_eq!(state.seen, vec![2, 1]);
        state.seen = vec![0, 0];
        let text = ServiceSnapshot {
            sessions: vec![old],
            ..ServiceSnapshot::default()
        }
        .to_json();
        let end = r#""verdict":{"kind":"pending"}}"#;
        let old_text = text.replacen(
            end,
            &format!(
                r#"{end},"slice":{{"holds":[false,false],"pending":[2,1],"events_in":3,"events_filtered":3}}"#
            ),
            1,
        );
        assert_ne!(old_text, text);
        let snap = ServiceSnapshot::from_json(old_text.as_bytes()).unwrap();
        let mut restored = Session::restore(&snap.sessions[0], SessionLimits::default()).unwrap();
        assert_eq!(restored.snapshot(), original.snapshot());

        for s in [&mut original, &mut restored] {
            assert!(s
                .event(1, vc(&[0, 2]), &set(&[("x1", 1)]))
                .unwrap()
                .is_empty());
            let v = s.event(0, vc(&[3, 0]), &set(&[("x0", 2)])).unwrap();
            assert_eq!(v.len(), 1);
            match &v[0].verdict {
                OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[3, 2]),
                other => panic!("expected detection, got {other:?}"),
            }
        }
        let json = |s: &Session| {
            ServiceSnapshot {
                sessions: vec![s.snapshot()],
                ..ServiceSnapshot::default()
            }
            .to_json()
        };
        assert_eq!(json(&restored), json(&original));
    }

    #[test]
    fn multiple_clauses_on_one_process_fold_with_the_mode() {
        // Conjunctive: x>=1 ∧ x<=3 on P0.
        let mut s = Session::open(
            "fold",
            1,
            &["x".to_string()],
            &[],
            &[pred(
                "band",
                WireMode::Conjunctive,
                &[(0, "x", ">=", 1), (0, "x", "<=", 3)],
            )],
            SessionLimits::default(),
        )
        .unwrap();
        assert!(s.event(0, vc(&[1]), &set(&[("x", 9)])).unwrap().is_empty());
        let v = s.event(0, vc(&[2]), &set(&[("x", 2)])).unwrap();
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0].verdict, OnlineVerdict::Detected(_)));
    }
}
