//! The one delivery pipeline behind every detecting member.
//!
//! A conjunctive predicate is a conjunction of independent local
//! clauses, so an on-line `EF` detector only ever sees `(process,
//! clause truth, clock)`. That is why one pipeline serves both a plain
//! [`Session`](crate::session::Session) and a distributed session's
//! [`DistAggregator`](crate::aggregator::DistAggregator): events enter
//! a [`CausalBuffer`], each delivery is *judged* into detector
//! observations, settled verdicts are emitted once, and finishes reach
//! the detectors only when the buffer holds nothing more of the
//! process. The two differ in the buffered payload `P` — variable
//! assignments, or the membership bits a worker already computed — and
//! in the judge they hand to [`Pipeline::ingest`]; everything else is
//! here, once.
//!
//! [`validate`] is the open-time half: the one place an open request
//! is checked, for the session, the aggregator and the worker alike.

use crate::buffer::{CausalBuffer, Delivered, OverflowPolicy};
use crate::persist::{HeldSnapshot, MonitorSnapshot, PipelineSnapshot};
use crate::session::{SessionError, SessionLimits, VerdictEvent};
use hb_computation::{LocalState, VarId, VarTable};
use hb_detect::online::{DetectorState, OnlineEfConjunctive, OnlineEfDisjunctive, OnlineMonitor};
use hb_pattern::PredictiveMatcher;
use hb_predicates::{CmpOp, LocalExpr};
use hb_tracefmt::wire::{WireClause, WireMode, WirePredicate};
use hb_vclock::VectorClock;
use std::collections::BTreeMap;

/// One atom of a pattern predicate, resolved against the session's
/// variable table at open time.
pub(crate) struct CompiledAtom {
    /// `None` = the atom matches on any process.
    pub process: Option<usize>,
    pub var: VarId,
    pub op: CmpOp,
    pub value: i64,
}

/// What a registered predicate judges deliveries by.
pub(crate) enum Body {
    /// Per-process local clause (`None` = the process has no clause);
    /// several wire clauses on one process are folded with the mode's
    /// connective.
    Clauses(Vec<Option<LocalExpr>>),
    /// Pattern atoms, matched against an event's **assignments**, not
    /// the accumulated local state: a pattern names things that
    /// *happen*.
    Atoms(Vec<CompiledAtom>),
}

/// A validated open request.
pub(crate) struct Validated {
    pub vars: VarTable,
    /// Initial local state per process.
    pub states: Vec<LocalState>,
    /// One body per predicate, in registration order.
    pub bodies: Vec<Body>,
}

fn parse_op(op: &str) -> Option<CmpOp> {
    Some(match op {
        "=" | "==" => CmpOp::Eq,
        "!=" => CmpOp::Ne,
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        _ => return None,
    })
}

/// Validates an open request against its declared variables and
/// process count. Every member of a session — and every member of a
/// distributed partition, so a malformed open is refused by all of
/// them and not just the one the client hears from — accepts or
/// refuses through this function, with the same message.
pub(crate) fn validate(
    processes: usize,
    var_names: &[String],
    initial: &[BTreeMap<String, i64>],
    predicates: &[WirePredicate],
) -> Result<Validated, SessionError> {
    if processes == 0 {
        return Err(SessionError::BadOpen("zero processes".into()));
    }
    if initial.len() > processes {
        return Err(SessionError::BadOpen(format!(
            "{} initial maps for {processes} processes",
            initial.len()
        )));
    }
    let mut vars = VarTable::new();
    for v in var_names {
        vars.declare(v);
    }
    let mut states = vec![LocalState::zeroed(vars.len()); processes];
    for (i, init) in initial.iter().enumerate() {
        for (vname, &value) in init {
            let id = vars.lookup(vname).ok_or_else(|| {
                SessionError::BadOpen(format!("undeclared variable '{vname}' in initial"))
            })?;
            states[i].set(id, value);
        }
    }

    let mut bodies = Vec::with_capacity(predicates.len());
    let mut seen_ids = std::collections::BTreeSet::new();
    for pred in predicates {
        if !seen_ids.insert(&pred.id) {
            return Err(SessionError::BadOpen(format!(
                "duplicate predicate id '{}'",
                pred.id
            )));
        }
        let bad = |m: String| SessionError::BadOpen(format!("predicate '{}': {m}", pred.id));
        if pred.mode == WireMode::Pattern {
            bodies.push(Body::Atoms(validate_pattern(pred, processes, &vars)?));
            continue;
        }
        if pred.pattern.is_some() {
            return Err(bad("a pattern body requires mode 'pattern'".into()));
        }
        if pred.clauses.is_empty() {
            return Err(SessionError::BadOpen(format!(
                "predicate '{}' has no clauses",
                pred.id
            )));
        }
        let mut clauses: Vec<Option<LocalExpr>> = vec![None; processes];
        for WireClause {
            process,
            var,
            op,
            value,
        } in &pred.clauses
        {
            if *process >= processes {
                return Err(bad(format!("process {process} out of range")));
            }
            let id = vars
                .lookup(var)
                .ok_or_else(|| bad(format!("undeclared variable '{var}'")))?;
            let cmp = parse_op(op).ok_or_else(|| bad(format!("unknown operator '{op}'")))?;
            let expr = LocalExpr::Cmp(id, cmp, *value);
            clauses[*process] = Some(match (clauses[*process].take(), pred.mode) {
                (None, _) => expr,
                (Some(prev), WireMode::Disjunctive) => prev.or(expr),
                (Some(prev), _) => prev.and(expr),
            });
        }
        bodies.push(Body::Clauses(clauses));
    }
    Ok(Validated {
        vars,
        states,
        bodies,
    })
}

fn validate_pattern(
    pred: &WirePredicate,
    processes: usize,
    vars: &VarTable,
) -> Result<Vec<CompiledAtom>, SessionError> {
    let bad = |m: String| SessionError::BadOpen(format!("predicate '{}': {m}", pred.id));
    if !pred.clauses.is_empty() {
        return Err(bad("pattern predicates take no clauses".into()));
    }
    let pattern = pred
        .pattern
        .as_ref()
        .ok_or_else(|| bad("mode 'pattern' without a pattern body".into()))?;
    if pattern.atoms.is_empty() {
        return Err(bad("empty pattern".into()));
    }
    if pattern.atoms.len() > 64 {
        return Err(bad(format!(
            "{} atoms; the label mask caps patterns at 64",
            pattern.atoms.len()
        )));
    }
    if pattern.atoms[0].causal {
        return Err(bad(
            "the first atom has no predecessor to be causally after".into(),
        ));
    }
    let mut atoms = Vec::with_capacity(pattern.atoms.len());
    for a in &pattern.atoms {
        if let Some(p) = a.process {
            if p >= processes {
                return Err(bad(format!("process {p} out of range")));
            }
        }
        let var = vars
            .lookup(&a.var)
            .ok_or_else(|| bad(format!("undeclared variable '{}'", a.var)))?;
        let op = parse_op(&a.op).ok_or_else(|| bad(format!("unknown operator '{}'", a.op)))?;
        atoms.push(CompiledAtom {
            process: a.process,
            var,
            op,
            value: a.value,
        });
    }
    Ok(atoms)
}

/// The refusal the distributed roles add on top of [`validate`]:
/// disjunctive and pattern detection carry cross-process state that
/// does not decompose into worker-local clause streams.
pub(crate) fn conjunctive_only(predicates: &[WirePredicate]) -> Result<(), SessionError> {
    match predicates.iter().find(|p| p.mode != WireMode::Conjunctive) {
        None => Ok(()),
        Some(pred) => Err(SessionError::BadOpen(format!(
            "predicate '{}': distributed sessions support conjunctive predicates only",
            pred.id
        ))),
    }
}

/// One registered predicate's detector.
pub(crate) struct Detector {
    pub id: String,
    /// Whether the predicate is a pattern (drives the per-predicate
    /// stats keys, which distinguish the two families).
    pattern: bool,
    pub monitor: Box<dyn OnlineMonitor + Send>,
    /// Set once the verdict has been reported.
    pub emitted: bool,
}

impl Detector {
    fn new(pred: &WirePredicate, body: &Body, states: &[LocalState]) -> Detector {
        let n = states.len();
        let monitor: Box<dyn OnlineMonitor + Send> = match body {
            Body::Clauses(clauses) => {
                let initially: Vec<bool> = clauses
                    .iter()
                    .zip(states)
                    .map(|(c, s)| c.as_ref().is_some_and(|c| c.eval(s)))
                    .collect();
                if pred.mode == WireMode::Disjunctive {
                    Box::new(OnlineEfDisjunctive::new(n, initially))
                } else {
                    let participating = clauses.iter().map(Option::is_some).collect();
                    Box::new(OnlineEfConjunctive::new(n, participating, initially))
                }
            }
            Body::Atoms(_) => {
                let pattern = pred.pattern.as_ref().expect("validated: pattern body");
                Box::new(PredictiveMatcher::from_wire(n, pattern))
            }
        };
        Detector {
            id: pred.id.clone(),
            pattern: matches!(body, Body::Atoms(_)),
            monitor,
            emitted: false,
        }
    }

    fn verdict(&self) -> VerdictEvent {
        VerdictEvent {
            predicate: self.id.clone(),
            pattern: self.pattern,
            verdict: self.monitor.verdict().clone(),
        }
    }
}

/// Causal buffer, detectors and finish bookkeeping of one monitored
/// computation, generic over the buffered payload.
pub(crate) struct Pipeline<P> {
    buffer: CausalBuffer<P>,
    detectors: Vec<Detector>,
    /// Client-declared stream ends.
    finished: Vec<bool>,
    /// Processes whose finish has been forwarded to the detectors.
    monitor_finished: Vec<bool>,
    /// Delivered events (for stats and the e2e assertions).
    delivered: u64,
    /// Verdicts that settled already at open (initial-cut detections),
    /// waiting to be collected by the service.
    pending_initial: Vec<VerdictEvent>,
}

impl<P> Pipeline<P> {
    /// Builds the buffer and one detector per validated predicate.
    pub fn open(
        predicates: &[WirePredicate],
        validated: &Validated,
        limits: SessionLimits,
    ) -> Pipeline<P> {
        let processes = validated.states.len();
        let detectors = predicates
            .iter()
            .zip(&validated.bodies)
            .map(|(pred, body)| Detector::new(pred, body, &validated.states))
            .collect();
        let mut pipeline = Pipeline {
            buffer: CausalBuffer::new(processes, limits.buffer_capacity, OverflowPolicy::Reject),
            detectors,
            finished: vec![false; processes],
            monitor_finished: vec![false; processes],
            delivered: 0,
            pending_initial: Vec::new(),
        };
        // A predicate can already hold in the initial cut.
        let mut initial = Vec::new();
        pipeline.collect_settled(&mut initial);
        pipeline.pending_initial = initial;
        pipeline
    }

    /// Verdicts that settled at open time (initial-cut detections).
    pub fn take_initial_verdicts(&mut self) -> Vec<VerdictEvent> {
        std::mem::take(&mut self.pending_initial)
    }

    /// The number of processes.
    pub fn processes(&self) -> usize {
        self.finished.len()
    }

    /// Events currently held in the causal buffer.
    pub fn held(&self) -> usize {
        self.buffer.held()
    }

    /// Events delivered to the detectors so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Refuses an event of a process whose finish already reached the
    /// detectors. Only then: a declared-finished process may still owe
    /// held events their causal predecessors (reordering can let the
    /// finish overtake earlier events in transit).
    pub fn check_unfinished(&self, p: usize) -> Result<(), SessionError> {
        if p < self.finished.len() && self.monitor_finished[p] {
            return Err(SessionError::AlreadyFinished(p));
        }
        Ok(())
    }

    /// Ingests one event: `judge` turns each delivery it releases into
    /// observations of the detectors (skipping the emitted ones is the
    /// judge's job). Returns the verdicts that settled as a
    /// consequence.
    pub fn ingest(
        &mut self,
        p: usize,
        clock: VectorClock,
        payload: P,
        mut judge: impl FnMut(&mut [Detector], &Delivered<P>),
    ) -> Result<Vec<VerdictEvent>, SessionError> {
        let released = self.buffer.ingest(p, clock, payload)?;
        self.delivered += released.len() as u64;
        for d in &released {
            judge(&mut self.detectors, d);
        }
        let mut verdicts = Vec::new();
        self.collect_settled(&mut verdicts);
        // A delivery may have drained the last held event of an
        // already-finished process.
        self.forward_finishes(&mut verdicts);
        Ok(verdicts)
    }

    /// Declares that process `p` will produce no further events.
    pub fn finish_process(&mut self, p: usize) -> Result<Vec<VerdictEvent>, SessionError> {
        if p >= self.finished.len() {
            return Err(SessionError::BadEvent(format!("process {p} out of range")));
        }
        self.finished[p] = true;
        let mut verdicts = Vec::new();
        self.forward_finishes(&mut verdicts);
        Ok(verdicts)
    }

    /// Closes the pipeline: discards stranded held events (their causal
    /// past can never complete), declares every process finished, and
    /// force-settles all remaining predicates. Returns the settled
    /// verdicts plus the number of discarded events.
    pub fn close(&mut self) -> (Vec<VerdictEvent>, u64) {
        let discarded = self.buffer.discard_held().len() as u64;
        for p in 0..self.processes() {
            self.finish_detectors(p);
        }
        let mut verdicts = Vec::new();
        self.collect_settled(&mut verdicts);
        (verdicts, discarded)
    }

    /// The final verdict of every predicate (settled or not), for the
    /// close report.
    pub fn all_verdicts(&self) -> Vec<VerdictEvent> {
        self.detectors.iter().map(Detector::verdict).collect()
    }

    fn finish_detectors(&mut self, p: usize) {
        if !self.monitor_finished[p] {
            self.monitor_finished[p] = true;
            for det in self.detectors.iter_mut().filter(|d| !d.emitted) {
                det.monitor.finish_process(p);
            }
        }
    }

    /// Forwards client-declared finishes to the detectors once the
    /// buffer holds nothing more from the process (a held event may
    /// still be observed later, and detectors reject post-finish
    /// observations).
    fn forward_finishes(&mut self, out: &mut Vec<VerdictEvent>) {
        for p in 0..self.processes() {
            if self.finished[p] && self.buffer.held_from(p) == 0 {
                self.finish_detectors(p);
            }
        }
        self.collect_settled(out);
    }

    /// Emits newly settled verdicts, once each.
    fn collect_settled(&mut self, out: &mut Vec<VerdictEvent>) {
        for det in &mut self.detectors {
            if !det.emitted && det.monitor.is_settled() {
                det.emitted = true;
                out.push(det.verdict());
            }
        }
    }

    /// Freezes the pipeline; `encode` turns a held payload into its
    /// persisted form.
    pub fn snapshot<S>(&self, encode: impl Fn(&P) -> S) -> PipelineSnapshot<S> {
        PipelineSnapshot {
            frontier: self.buffer.frontier().to_vec(),
            held: self
                .buffer
                .held_events()
                .map(|(process, clock, payload)| HeldSnapshot {
                    process,
                    clock: clock.components().to_vec(),
                    payload: encode(payload),
                })
                .collect(),
            finished: self.finished.clone(),
            monitor_finished: self.monitor_finished.clone(),
            delivered: self.delivered,
            monitors: self
                .detectors
                .iter()
                .map(|det| MonitorSnapshot {
                    id: det.id.clone(),
                    emitted: det.emitted,
                    state: det.monitor.export_state(),
                })
                .collect(),
        }
    }

    /// Overwrites a freshly opened pipeline with frozen values. The
    /// error names the part of the snapshot that does not fit the
    /// predicates it was opened over.
    pub fn restore<S>(
        &mut self,
        snap: &PipelineSnapshot<S>,
        limits: SessionLimits,
        decode: impl Fn(&S) -> Result<P, &'static str>,
    ) -> Result<(), &'static str> {
        let processes = self.processes();
        if snap.frontier.len() != processes
            || snap.finished.len() != processes
            || snap.monitor_finished.len() != processes
        {
            return Err("per-process vectors");
        }
        let mut held = Vec::with_capacity(snap.held.len());
        for h in &snap.held {
            if h.process >= processes || h.clock.len() != processes {
                return Err("held event");
            }
            let clock = VectorClock::from_components(h.clock.clone());
            held.push((h.process, clock, decode(&h.payload)?));
        }
        self.buffer = CausalBuffer::restore(
            snap.frontier.clone(),
            held,
            limits.buffer_capacity,
            OverflowPolicy::Reject,
        );
        if snap.monitors.len() != self.detectors.len() {
            return Err("monitor count");
        }
        for (det, m) in self.detectors.iter_mut().zip(&snap.monitors) {
            if det.id != m.id {
                return Err("monitor order");
            }
            // The detector indexes these by process and copies each
            // candidate's clock by width: refuse a state that does not fit.
            if let DetectorState::Conjunctive(s) = &m.state {
                let lens = [
                    s.n,
                    s.queues.len(),
                    s.participating.len(),
                    s.seen.len(),
                    s.finished.len(),
                ];
                let clocks = s.queues.iter().flatten().map(|c| c.clock.len());
                if lens.into_iter().chain(clocks).any(|len| len != processes) {
                    return Err("conjunctive detector state");
                }
            }
            det.monitor = hb_pattern::restore_any(&m.state);
            det.emitted = m.emitted;
        }
        self.finished.clone_from(&snap.finished);
        self.monitor_finished.clone_from(&snap.monitor_finished);
        self.delivered = snap.delivered;
        self.pending_initial.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistAggregator, DistWorker, Session};
    use hb_tracefmt::wire::{WireAtom, WirePattern};

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

    /// What each of the three members answers to one open request.
    fn open_all(
        processes: usize,
        initial: &[BTreeMap<String, i64>],
        preds: &[WirePredicate],
    ) -> [Option<String>; 3] {
        let x = ["x".to_string()];
        let limits = SessionLimits::default();
        [
            Session::open("s", processes, &x, initial, preds, limits).err(),
            DistWorker::open(0, 1, processes, &x, initial, preds).err(),
            DistAggregator::open(1, processes, &x, initial, preds, 8).err(),
        ]
        .map(|e| e.map(|e| e.to_string()))
    }

    #[test]
    fn validates_and_folds_clauses() {
        let v = validate(
            2,
            &["x".to_string()],
            &[],
            &[pred("band", &[(0, "x", ">=", 1), (0, "x", "<=", 3)])],
        )
        .unwrap();
        let Body::Clauses(clauses) = &v.bodies[0] else {
            panic!("a conjunctive predicate carries clauses");
        };
        assert!(clauses[1].is_none());
        let band = clauses[0].as_ref().unwrap();
        let mut s = LocalState::zeroed(1);
        s.set(v.vars.lookup("x").unwrap(), 2);
        assert!(band.eval(&s));
        s.set(v.vars.lookup("x").unwrap(), 9);
        assert!(!band.eval(&s));
    }

    /// A malformed open is refused by every member of a partition with
    /// the message the single-backend session gives.
    #[test]
    fn every_member_refuses_a_malformed_open_with_the_same_message() {
        let all = |m: &str| [(); 3].map(|()| Some(format!("bad open: {m}")));
        let e = |preds: &[WirePredicate]| open_all(2, &[], preds);
        assert_eq!(open_all(0, &[], &[]), all("zero processes"));
        assert_eq!(
            open_all(1, &[BTreeMap::new(), BTreeMap::new()], &[]),
            all("2 initial maps for 1 processes")
        );
        assert_eq!(
            e(&[pred("p", &[(9, "x", "=", 1)])]),
            all("predicate 'p': process 9 out of range")
        );
        assert_eq!(
            e(&[pred("p", &[(0, "y", "=", 1)])]),
            all("predicate 'p': undeclared variable 'y'")
        );
        assert_eq!(
            e(&[pred("p", &[(0, "x", "~", 1)])]),
            all("predicate 'p': unknown operator '~'")
        );
        assert_eq!(e(&[pred("p", &[])]), all("predicate 'p' has no clauses"));
        assert_eq!(
            e(&[
                pred("p", &[(0, "x", "=", 1)]),
                pred("p", &[(1, "x", "=", 1)])
            ]),
            all("duplicate predicate id 'p'")
        );
    }

    #[test]
    fn the_distributed_roles_refuse_non_conjunctive_predicates() {
        let refusal = |id: &str| {
            Some(format!(
                "bad open: predicate '{id}': distributed sessions support conjunctive predicates only"
            ))
        };
        let mut disj = pred("d", &[(0, "x", "=", 1)]);
        disj.mode = WireMode::Disjunctive;
        assert_eq!(
            open_all(2, &[], &[disj]),
            [None, refusal("d"), refusal("d")]
        );
        let pat = WirePredicate {
            id: "pat".into(),
            mode: WireMode::Pattern,
            clauses: Vec::new(),
            pattern: Some(WirePattern {
                atoms: vec![WireAtom {
                    process: None,
                    var: "x".into(),
                    op: "=".into(),
                    value: 1,
                    causal: false,
                }],
            }),
        };
        assert_eq!(
            open_all(2, &[], &[pat]),
            [None, refusal("pat"), refusal("pat")]
        );
    }
}
