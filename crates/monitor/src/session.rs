//! Monitoring sessions.
//!
//! A session is one monitored computation: a fixed process count, a
//! variable namespace, and the set of predicates registered when the
//! session opened. Events flow through the session's [`CausalBuffer`];
//! each delivered event advances the per-process local state and is
//! observed by every registered on-line detector. The session — not the
//! detector — evaluates local clauses, so detectors see only
//! `(process, holds, clock)` triples, mirroring what a distributed
//! checker would ship over the network.
//!
//! Verdicts are emitted exactly once per predicate, the moment they
//! settle. [`Session::close`] force-settles everything: stranded held
//! events are discarded (their causal past can never complete), every
//! process is declared finished, and any predicate still pending
//! becomes `Impossible`.

use crate::buffer::{CausalBuffer, Delivered, IngestError, OverflowPolicy};
use crate::persist::{HeldEventSnapshot, MonitorSnapshot, SessionSnapshot};
use hb_computation::{LocalState, VarId, VarTable};
use hb_detect::online::{OnlineEfConjunctive, OnlineEfDisjunctive, OnlineMonitor, OnlineVerdict};
use hb_pattern::PredictiveMatcher;
use hb_predicates::{CmpOp, LocalExpr};
use hb_slice::SliceFilter;
use hb_tracefmt::wire::{WireClause, WireMode, WirePredicate};
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

/// One atom of a pattern predicate, resolved against the session's
/// variable table at open time.
struct CompiledAtom {
    /// `None` = the atom matches on any process.
    process: Option<usize>,
    var: VarId,
    op: CmpOp,
    value: i64,
}

/// One registered predicate and its detector.
struct MonitorEntry {
    id: String,
    /// Per-process local clause (`None` = the process has no clause).
    /// Empty for pattern predicates, which carry `atoms` instead.
    clauses: Vec<Option<LocalExpr>>,
    /// Pattern atoms (`Some` iff the predicate's mode is `Pattern`).
    /// Atoms are matched against an event's **assignments**, not the
    /// accumulated local state: a pattern names things that *happen*.
    atoms: Option<Vec<CompiledAtom>>,
    monitor: Box<dyn OnlineMonitor + Send>,
    /// Slicing ingest filter fronting the detector (regular predicates
    /// only): slice-irrelevant events never reach `monitor`, their
    /// observations deferred as batched `skip_states` counter bumps.
    slice: Option<SliceFilter>,
    /// Filter counters already pushed to the service metrics:
    /// `(events_in, events_filtered)` watermark.
    slice_reported: (u64, u64),
    /// Set once the verdict has been reported.
    emitted: bool,
}

/// Limits and policy for a session's causal buffer.
#[derive(Debug, Clone, Copy)]
pub struct SessionLimits {
    /// Maximum held-back events.
    pub buffer_capacity: usize,
    /// What to do at capacity.
    pub policy: OverflowPolicy,
    /// Front regular predicates with a slicing ingest filter. On by
    /// default; the differential tests turn it off for the unsliced
    /// leg. Filtering is monitor-local and verdict-invariant, so the
    /// setting never shows on the wire.
    pub slice: bool,
}

impl Default for SessionLimits {
    fn default() -> Self {
        SessionLimits {
            buffer_capacity: 4096,
            policy: OverflowPolicy::Reject,
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
    buffer: CausalBuffer<Vec<(VarId, i64)>>,
    monitors: Vec<MonitorEntry>,
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

        let mut monitors = Vec::with_capacity(predicates.len());
        let mut seen_ids = std::collections::BTreeSet::new();
        for pred in predicates {
            if !seen_ids.insert(&pred.id) {
                return Err(SessionError::BadOpen(format!(
                    "duplicate predicate id '{}'",
                    pred.id
                )));
            }
            if pred.mode == WireMode::Pattern {
                let entry = Self::open_pattern(pred, processes, &vars)?;
                monitors.push(entry);
                continue;
            }
            if pred.pattern.is_some() {
                return Err(SessionError::BadOpen(format!(
                    "predicate '{}': a pattern body requires mode 'pattern'",
                    pred.id
                )));
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
                    return Err(SessionError::BadOpen(format!(
                        "predicate '{}': process {process} out of range",
                        pred.id
                    )));
                }
                let id = vars.lookup(var).ok_or_else(|| {
                    SessionError::BadOpen(format!(
                        "predicate '{}': undeclared variable '{var}'",
                        pred.id
                    ))
                })?;
                let cmp = parse_op(op).ok_or_else(|| {
                    SessionError::BadOpen(format!(
                        "predicate '{}': unknown operator '{op}'",
                        pred.id
                    ))
                })?;
                let expr = LocalExpr::Cmp(id, cmp, *value);
                // Several clauses on one process fold with the mode's
                // connective.
                clauses[*process] = Some(match (clauses[*process].take(), pred.mode) {
                    (None, _) => expr,
                    (Some(prev), WireMode::Conjunctive) => prev.and(expr),
                    (Some(prev), WireMode::Disjunctive) => prev.or(expr),
                    (Some(_), WireMode::Pattern) => unreachable!("handled above"),
                });
            }
            let initially: Vec<bool> = (0..processes)
                .map(|i| clauses[i].as_ref().is_some_and(|c| c.eval(&states[i])))
                .collect();
            let monitor: Box<dyn OnlineMonitor + Send> = match pred.mode {
                WireMode::Conjunctive => {
                    let participating: Vec<bool> = clauses.iter().map(Option::is_some).collect();
                    Box::new(OnlineEfConjunctive::new(
                        processes,
                        participating,
                        initially,
                    ))
                }
                WireMode::Disjunctive => Box::new(OnlineEfDisjunctive::new(processes, initially)),
                WireMode::Pattern => unreachable!("handled above"),
            };
            // Regular predicates are detected on the slice: an ingest
            // filter drops slice-irrelevant events before the detector.
            let slice = (limits.slice && hb_slice::sliceable(pred.mode))
                .then(|| SliceFilter::from_clauses(&clauses, &states));
            monitors.push(MonitorEntry {
                id: pred.id.clone(),
                clauses,
                atoms: None,
                monitor,
                slice,
                slice_reported: (0, 0),
                emitted: false,
            });
        }

        let mut s = Session {
            name: name.to_string(),
            vars,
            predicates: predicates.to_vec(),
            states,
            buffer: CausalBuffer::new(processes, limits.buffer_capacity, limits.policy),
            monitors,
            finished: vec![false; processes],
            monitor_finished: vec![false; processes],
            delivered: 0,
            pending_initial: Vec::new(),
        };
        // A predicate can already hold in the initial cut.
        let mut initial_verdicts = Vec::new();
        s.collect_settled(&mut initial_verdicts);
        s.pending_initial = initial_verdicts;
        Ok(s)
    }

    /// Validates a pattern predicate and instantiates its predictive
    /// matcher.
    fn open_pattern(
        pred: &WirePredicate,
        processes: usize,
        vars: &VarTable,
    ) -> Result<MonitorEntry, SessionError> {
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
        Ok(MonitorEntry {
            id: pred.id.clone(),
            clauses: Vec::new(),
            atoms: Some(atoms),
            monitor: Box::new(PredictiveMatcher::from_wire(processes, pattern)),
            slice: None,
            slice_reported: (0, 0),
            emitted: false,
        })
    }

    /// Verdicts that settled at open time (initial-cut detections).
    pub fn take_initial_verdicts(&mut self) -> Vec<VerdictEvent> {
        std::mem::take(&mut self.pending_initial)
    }

    /// Freezes the session's full state for persistence.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            name: self.name.clone(),
            processes: self.states.len(),
            vars: self.vars.iter().map(|(_, n)| n.to_string()).collect(),
            predicates: self.predicates.clone(),
            states: self.states.iter().map(|s| s.values().to_vec()).collect(),
            frontier: self.buffer.frontier().to_vec(),
            held: self
                .buffer
                .held_events()
                .map(|(process, clock, set)| HeldEventSnapshot {
                    process,
                    clock: clock.components().to_vec(),
                    set: set
                        .iter()
                        .map(|(id, v)| (self.vars.name(*id).to_string(), *v))
                        .collect(),
                })
                .collect(),
            finished: self.finished.clone(),
            monitor_finished: self.monitor_finished.clone(),
            delivered: self.delivered,
            monitors: self
                .monitors
                .iter()
                .map(|e| MonitorSnapshot {
                    id: e.id.clone(),
                    emitted: e.emitted,
                    state: e.monitor.export_state(),
                    slice: e.slice.as_ref().map(|f| f.export()),
                })
                .collect(),
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
        if snap.states.len() != snap.processes
            || snap.frontier.len() != snap.processes
            || snap.finished.len() != snap.processes
            || snap.monitor_finished.len() != snap.processes
        {
            return Err(shape("per-process vectors"));
        }
        s.states = snap
            .states
            .iter()
            .map(|v| LocalState::from_values(v.clone()))
            .collect();
        let mut held = Vec::with_capacity(snap.held.len());
        for h in &snap.held {
            if h.process >= snap.processes || h.clock.len() != snap.processes {
                return Err(shape("held event"));
            }
            let mut set = Vec::with_capacity(h.set.len());
            for (vname, &value) in &h.set {
                let id = s.vars.lookup(vname).ok_or_else(|| shape("held variable"))?;
                set.push((id, value));
            }
            held.push((
                h.process,
                VectorClock::from_components(h.clock.clone()),
                set,
            ));
        }
        s.buffer = CausalBuffer::restore(
            snap.frontier.clone(),
            held,
            limits.buffer_capacity,
            limits.policy,
        );
        if snap.monitors.len() != s.monitors.len() {
            return Err(shape("monitor count"));
        }
        for (entry, m) in s.monitors.iter_mut().zip(&snap.monitors) {
            if entry.id != m.id {
                return Err(shape("monitor order"));
            }
            entry.monitor = hb_pattern::restore_any(&m.state);
            entry.emitted = m.emitted;
            match (&mut entry.slice, &m.slice) {
                (Some(f), Some(state)) => {
                    f.restore(state).map_err(|_| shape("slice state"))?;
                }
                (Some(f), None) => {
                    // Pre-slicing snapshot: start the filter from the
                    // restored states with fresh counters.
                    *f = SliceFilter::from_clauses(&entry.clauses, &s.states);
                }
                (None, Some(_)) => {
                    // The snapshot was taken with slicing on: the
                    // detector's state counters owe the filter its
                    // pending skips, so it cannot run unfiltered.
                    return Err(shape("slice state without a slicing filter"));
                }
                (None, None) => {}
            }
        }
        s.finished = snap.finished.clone();
        s.monitor_finished = snap.monitor_finished.clone();
        s.delivered = snap.delivered;
        s.pending_initial.clear();
        Ok(s)
    }

    /// The session's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of processes.
    pub fn processes(&self) -> usize {
        self.states.len()
    }

    /// Events currently held in the causal buffer.
    pub fn held(&self) -> usize {
        self.buffer.held()
    }

    /// Events delivered to the detectors so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Per-predicate slice-filter counters not yet pushed to the
    /// service metrics: `(predicate id, Δevents_in, Δevents_filtered)`
    /// since the previous call. Advances the watermark, so each
    /// observation is reported exactly once. After a crash-recovery
    /// restore the watermark restarts at zero: the first flush resyncs
    /// the fresh metrics with the recovered totals.
    pub fn take_slice_stats(&mut self) -> Vec<(String, u64, u64)> {
        let mut out = Vec::new();
        for e in &mut self.monitors {
            if let Some(f) = &e.slice {
                let (total_in, total_filtered) = (f.events_in(), f.events_filtered());
                let delta_in = total_in - e.slice_reported.0;
                let delta_filtered = total_filtered - e.slice_reported.1;
                if delta_in > 0 || delta_filtered > 0 {
                    e.slice_reported = (total_in, total_filtered);
                    out.push((e.id.clone(), delta_in, delta_filtered));
                }
            }
        }
        out
    }

    /// Restarts the [`Session::take_slice_stats`] watermark at zero, as
    /// after a restore: the next call reports lifetime totals. For a
    /// session whose earlier reports went to a metrics block that was
    /// thrown away (WAL replay).
    pub fn rewind_slice_stats(&mut self) {
        for e in &mut self.monitors {
            e.slice_reported = (0, 0);
        }
    }

    /// Ingests one event. On success, returns the verdicts that settled
    /// as a consequence (usually none).
    pub fn event(
        &mut self,
        p: usize,
        clock: VectorClock,
        set: &BTreeMap<String, i64>,
    ) -> Result<Vec<VerdictEvent>, SessionError> {
        // Reject events only once the finish reached the detectors: a
        // declared-finished process may still owe held events their
        // causal predecessors (reordering can let the finish overtake
        // earlier events in transit).
        if p < self.finished.len() && self.monitor_finished[p] {
            return Err(SessionError::AlreadyFinished(p));
        }
        let mut updates = Vec::with_capacity(set.len());
        for (vname, &value) in set {
            let id = self
                .vars
                .lookup(vname)
                .ok_or_else(|| SessionError::BadEvent(format!("undeclared variable '{vname}'")))?;
            updates.push((id, value));
        }
        let released = self.buffer.ingest(p, clock, updates)?;
        let mut verdicts = Vec::new();
        self.delivered += released.len() as u64;
        for d in &released {
            for (var, value) in &d.payload {
                self.states[d.process].set(*var, *value);
            }
            for entry in &mut self.monitors {
                if !entry.emitted {
                    observe_delivery(entry, &self.states, d);
                }
            }
        }
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

    /// Closes the session: discards stranded held events, declares every
    /// process finished, and force-settles all remaining predicates.
    /// Returns the settled verdicts plus the number of discarded events.
    pub fn close(&mut self) -> (Vec<VerdictEvent>, u64) {
        let discarded = self.buffer.discard_held().len() as u64;
        let mut verdicts = Vec::new();
        for p in 0..self.states.len() {
            if !self.monitor_finished[p] {
                self.monitor_finished[p] = true;
                for entry in &mut self.monitors {
                    if !entry.emitted {
                        entry.monitor.finish_process(p);
                    }
                }
            }
        }
        self.collect_settled(&mut verdicts);
        (verdicts, discarded)
    }

    /// The final verdict of every predicate (settled or not), for the
    /// close report.
    pub fn all_verdicts(&self) -> Vec<VerdictEvent> {
        self.monitors
            .iter()
            .map(|e| VerdictEvent {
                predicate: e.id.clone(),
                pattern: e.atoms.is_some(),
                verdict: e.monitor.verdict().clone(),
            })
            .collect()
    }

    /// Forwards client-declared finishes to the detectors once the
    /// buffer holds nothing more from the process (a held event may
    /// still be observed later, and detectors reject post-finish
    /// observations).
    fn forward_finishes(&mut self, out: &mut Vec<VerdictEvent>) {
        for p in 0..self.states.len() {
            if self.finished[p] && !self.monitor_finished[p] && self.buffer.held_from(p) == 0 {
                self.monitor_finished[p] = true;
                for entry in &mut self.monitors {
                    if !entry.emitted {
                        entry.monitor.finish_process(p);
                    }
                }
            }
        }
        self.collect_settled(out);
    }

    /// Emits newly settled verdicts, once each.
    fn collect_settled(&mut self, out: &mut Vec<VerdictEvent>) {
        for entry in &mut self.monitors {
            if !entry.emitted && entry.monitor.is_settled() {
                entry.emitted = true;
                out.push(VerdictEvent {
                    predicate: entry.id.clone(),
                    pattern: entry.atoms.is_some(),
                    verdict: entry.monitor.verdict().clone(),
                });
            }
        }
    }
}

/// Feeds one delivery to a monitor's slice filter and detector.
/// `states` must already reflect the delivery's assignments.
fn observe_delivery(
    entry: &mut MonitorEntry,
    states: &[LocalState],
    d: &Delivered<Vec<(VarId, i64)>>,
) {
    if let Some(atoms) = &entry.atoms {
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
        entry.monitor.observe_atoms(d.process, mask, &d.clock);
        return;
    }
    let holds = entry.clauses[d.process]
        .as_ref()
        .is_some_and(|c| c.eval(&states[d.process]));
    if let Some(filter) = &mut entry.slice {
        let delta = filter.advance(d.process, d.payload.iter().map(|&(var, _)| var), || holds);
        if delta.is_member() {
            // Flush the deferred skips first, so the detector numbers
            // this state exactly as an unfiltered run would.
            let skipped = filter.take_pending(d.process);
            if skipped > 0 {
                entry.monitor.skip_states(d.process, skipped);
            }
            entry.monitor.observe(d.process, true, &d.clock);
        }
    } else {
        entry.monitor.observe(d.process, holds, &d.clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn open_validates_predicates() {
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
        assert!(matches!(
            bad(&[pred("p", WireMode::Conjunctive, &[(9, "x", "=", 1)])]),
            SessionError::BadOpen(_)
        ));
        assert!(matches!(
            bad(&[pred("p", WireMode::Conjunctive, &[(0, "y", "=", 1)])]),
            SessionError::BadOpen(_)
        ));
        assert!(matches!(
            bad(&[pred("p", WireMode::Conjunctive, &[(0, "x", "~", 1)])]),
            SessionError::BadOpen(_)
        ));
        assert!(matches!(
            bad(&[
                pred("p", WireMode::Conjunctive, &[(0, "x", "=", 1)]),
                pred("p", WireMode::Disjunctive, &[(1, "x", "=", 1)]),
            ]),
            SessionError::BadOpen(_)
        ));
        assert!(matches!(
            bad(&[pred("p", WireMode::Conjunctive, &[])]),
            SessionError::BadOpen(_)
        ));
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
        bad.frontier = vec![0];
        assert!(Session::restore(&bad, SessionLimits::default()).is_err());
        let mut bad = good.clone();
        bad.monitors.clear();
        assert!(Session::restore(&bad, SessionLimits::default()).is_err());
        let mut bad = good;
        bad.held.push(crate::persist::HeldEventSnapshot {
            process: 7,
            clock: vec![1, 1],
            set: Default::default(),
        });
        assert!(Session::restore(&bad, SessionLimits::default()).is_err());
    }

    fn fig2_session_with(limits: SessionLimits) -> Session {
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
            limits,
        )
        .unwrap()
    }

    /// Fig. 2(a) with extra clause-false noise events: the slicing
    /// filter drops them before the detector, yet every step's verdicts
    /// match the unsliced session exactly, and so do the detector
    /// snapshots — the states are interchangeable.
    #[test]
    fn sliced_and_unsliced_sessions_emit_identical_verdicts() {
        let mut sliced = fig2_session_with(SessionLimits::default());
        let mut plain = fig2_session_with(SessionLimits {
            slice: false,
            ..SessionLimits::default()
        });
        type Step<'a> = (usize, &'a [u32], &'a [(&'a str, i64)]);
        let stream: &[Step] = &[
            (1, &[0, 1], &[("x1", 3)]), // clause false: filtered
            (1, &[0, 2], &[("x1", 1)]), // true
            (0, &[1, 0], &[("x0", 1)]), // clause false: filtered
            (0, &[2, 0], &[]),          // untouched, still false: filtered
            (0, &[3, 0], &[("x0", 2)]), // true → detection
        ];
        for &(p, clock, updates) in stream {
            let a = sliced.event(p, vc(clock), &set(updates)).unwrap();
            let b = plain.event(p, vc(clock), &set(updates)).unwrap();
            assert_eq!(a.len(), b.len());
            for (va, vb) in a.iter().zip(&b) {
                assert_eq!(va.predicate, vb.predicate);
                assert_eq!(va.verdict, vb.verdict);
            }
        }
        let all = sliced.all_verdicts();
        match &all[0].verdict {
            OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[3, 2]),
            other => panic!("expected detection, got {other:?}"),
        }
        // Identical detector states: only the slice record differs.
        let (snap_a, snap_b) = (sliced.snapshot(), plain.snapshot());
        assert_eq!(snap_a.monitors[0].state, snap_b.monitors[0].state);
        assert!(snap_a.monitors[0].slice.is_some());
        assert!(snap_b.monitors[0].slice.is_none());
    }

    #[test]
    fn slice_stats_are_watermarked_deltas() {
        let mut s = fig2_session_with(SessionLimits::default());
        assert!(s.take_slice_stats().is_empty(), "nothing observed yet");
        s.event(1, vc(&[0, 1]), &set(&[("x1", 3)])).unwrap(); // filtered
        s.event(1, vc(&[0, 2]), &set(&[("x1", 1)])).unwrap(); // member
        assert_eq!(s.take_slice_stats(), vec![("ef".to_string(), 2, 1)]);
        assert!(s.take_slice_stats().is_empty(), "watermark advanced");
        s.event(0, vc(&[1, 0]), &set(&[("x0", 1)])).unwrap(); // filtered
        assert_eq!(s.take_slice_stats(), vec![("ef".to_string(), 1, 1)]);
    }

    #[test]
    fn sliced_snapshot_round_trips_with_pending_skips() {
        let mut original = fig2_session_with(SessionLimits::default());
        // Two filtered events leave pending skip counts owed to the
        // detector; freeze in exactly that state.
        original.event(1, vc(&[0, 1]), &set(&[("x1", 3)])).unwrap();
        original.event(0, vc(&[1, 0]), &set(&[("x0", 1)])).unwrap();
        let snap = original.snapshot();
        assert!(snap.monitors[0].slice.is_some());

        let mut restored = Session::restore(&snap, SessionLimits::default()).unwrap();
        assert_eq!(restored.snapshot(), snap, "snapshot is stable");

        for s in [&mut original, &mut restored] {
            assert!(s
                .event(1, vc(&[0, 2]), &set(&[("x1", 1)]))
                .unwrap()
                .is_empty());
            let v = s.event(0, vc(&[2, 0]), &set(&[("x0", 2)])).unwrap();
            assert_eq!(v.len(), 1);
            match &v[0].verdict {
                OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[2, 2]),
                other => panic!("expected detection, got {other:?}"),
            }
        }
        assert_eq!(original.snapshot(), restored.snapshot());
    }

    #[test]
    fn sliced_snapshot_requires_a_slicing_filter_to_restore() {
        let mut s = fig2_session_with(SessionLimits::default());
        s.event(0, vc(&[1, 0]), &set(&[("x0", 1)])).unwrap(); // filtered: skip pending
        let snap = s.snapshot();
        // The detector's counters owe the pending skip to the filter —
        // restoring without one would diverge from the unsliced stream.
        let err = Session::restore(
            &snap,
            SessionLimits {
                slice: false,
                ..SessionLimits::default()
            },
        );
        assert!(err.is_err());
        // A pre-slicing snapshot (no slice record) restores fine into a
        // slicing session: the filter is rebuilt from the states.
        let mut old = snap;
        old.monitors[0].slice = None;
        let restored = Session::restore(&old, SessionLimits::default());
        assert!(restored.is_ok());
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
