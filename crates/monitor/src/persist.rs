//! Durable state: what the monitor writes into snapshots.
//!
//! The WAL records are plain wire-protocol [`ClientMsg`] frames — the
//! monitor's input, logged before it is acknowledged — so replay is
//! just re-submitting the input. Snapshots bound the replay: a
//! [`ServiceSnapshot`] serializes every open session completely (local
//! states, causal-buffer frontier and held events, each detector's
//! exported state and emitted flags), and the store only replays
//! records appended after it.
//!
//! Everything here is plain data serialized as JSON: no vector-clock or
//! detector types cross the persistence boundary, only integers,
//! strings, and booleans, mirroring [`hb_detect::online::DetectorState`].
//!
//! [`ClientMsg`]: hb_tracefmt::wire::ClientMsg

use crate::aggregator::AggregatorSnapshot;
use crate::worker::WorkerSnapshot;
use hb_detect::online::{
    CandidateState, ConjunctiveState, DetectorState, DisjunctiveState, PatternChainState,
    PatternState, VerdictState,
};
use hb_store::SyncPolicy;
use hb_tracefmt::wire::{SliceUpdateBody, WirePredicate};
use serde::{help, DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Durability configuration for a monitor service.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// The store directory (created if missing).
    pub dir: PathBuf,
    /// When appended records reach the disk.
    pub sync: SyncPolicy,
    /// Write a snapshot (and compact) every this many WAL records.
    pub snapshot_every: u64,
    /// WAL segment rotation size.
    pub segment_bytes: u64,
}

impl PersistConfig {
    /// Sensible defaults for a data directory.
    pub fn new(dir: PathBuf) -> Self {
        PersistConfig {
            dir,
            sync: SyncPolicy::Interval(std::time::Duration::from_millis(5)),
            snapshot_every: 10_000,
            segment_bytes: 8 << 20,
        }
    }
}

/// One held (not yet causally deliverable) event. `P` is the payload
/// as persisted: a session's variable updates by name, an aggregator's
/// membership bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeldSnapshot<P> {
    /// The producing process.
    pub process: usize,
    /// The event's vector clock components.
    pub clock: Vec<u32>,
    /// What the buffer held for the event.
    pub payload: P,
}

/// One registered predicate's detector, frozen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorSnapshot {
    /// The predicate's caller-chosen id.
    pub id: String,
    /// Whether the settled verdict was already reported.
    pub emitted: bool,
    /// The detector's exported state.
    pub state: DetectorState,
}

/// The delivery pipeline of a plain session or an aggregator, frozen:
/// the half of their snapshots that is the same thing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineSnapshot<P> {
    /// The causal buffer's delivered frontier.
    pub frontier: Vec<u32>,
    /// Held events, in arrival order.
    pub held: Vec<HeldSnapshot<P>>,
    /// Client-declared stream ends.
    pub finished: Vec<bool>,
    /// Finishes already forwarded to the detectors.
    pub monitor_finished: Vec<bool>,
    /// Events delivered so far.
    pub delivered: u64,
    /// Each predicate's detector, in registration order.
    pub monitors: Vec<MonitorSnapshot>,
}

/// One open session, frozen mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSnapshot {
    /// Session name.
    pub name: String,
    /// Process count.
    pub processes: usize,
    /// Variable names, in declaration (id) order.
    pub vars: Vec<String>,
    /// The predicates registered at open.
    pub predicates: Vec<WirePredicate>,
    /// Per-process local variable values, in id order.
    pub states: Vec<Vec<i64>>,
    /// Buffer, finishes and detectors; held payloads are the events'
    /// variable updates, by name.
    pub pipeline: PipelineSnapshot<BTreeMap<String, i64>>,
}

/// One distributed-session worker partition hosted by this backend,
/// frozen mid-run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSlotSnapshot {
    /// The decorated session name the partition is registered under
    /// (`origin#w<i>`).
    pub name: String,
    /// The origin session the worker's slice updates name.
    pub origin: String,
    /// The worker engine's state.
    pub snap: WorkerSnapshot,
}

/// One distributed-session aggregator hosted by this backend, frozen
/// mid-run. It is registered under the **origin** session name — the
/// aggregator is the member of the partition the client hears.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatorSlotSnapshot {
    /// The origin session name.
    pub name: String,
    /// The computation's process count (the engine snapshot stores
    /// only per-process vectors, whose width this pins down).
    pub processes: usize,
    /// The aggregator engine's state.
    pub snap: AggregatorSnapshot,
}

/// Every open session of a service, frozen at one WAL position.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceSnapshot {
    /// The open sessions.
    pub sessions: Vec<SessionSnapshot>,
    /// Distributed-session worker partitions on this backend. Absent
    /// from (and defaulted empty for) pre-v5 snapshots.
    pub workers: Vec<WorkerSlotSnapshot>,
    /// Distributed-session aggregators on this backend. Absent from
    /// (and defaulted empty for) pre-v5 snapshots.
    pub aggregators: Vec<AggregatorSlotSnapshot>,
}

impl ServiceSnapshot {
    /// Serializes to the snapshot payload format (JSON): byte for byte
    /// the text of `to_value()`, written without building the tree. A
    /// member's `Value` tree is some twenty times its text, and a busy
    /// service's snapshot is megabytes of text, so the trees would be
    /// most of a snapshot's time and of the process's peak memory. The
    /// detector states — candidate queues, pattern frontiers and
    /// candidates, the bulk of every snapshot — go straight into the
    /// text; small fields, and worker members, are printed from their
    /// `Value`s.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut obj = Obj::new(&mut out);
        obj.field("version", &1u32)
            .field("sessions", &self.sessions);
        // As in `to_value`: written only when present.
        if !self.workers.is_empty() {
            obj.field("workers", &self.workers);
        }
        if !self.aggregators.is_empty() {
            obj.field("aggregators", &self.aggregators);
        }
        obj.end();
        out
    }

    /// Parses a snapshot payload.
    pub fn from_json(payload: &[u8]) -> Result<ServiceSnapshot, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("snapshot not UTF-8: {e}"))?;
        let value = serde_json::parse_value(text).map_err(|e| format!("snapshot JSON: {e}"))?;
        ServiceSnapshot::from_value(&value).map_err(|e| format!("snapshot shape: {e}"))
    }
}

// ---- direct JSON ---------------------------------------------------------

/// Compact JSON written straight into `out`: byte for byte what
/// printing the value's `to_value()` writes.
trait Json {
    fn json(&self, out: &mut String);
}

/// An object being written: `{` when opened, `"key":value` per field,
/// `}` at [`Obj::end`].
struct Obj<'o> {
    out: &'o mut String,
    first: bool,
}

impl<'o> Obj<'o> {
    fn new(out: &'o mut String) -> Obj<'o> {
        out.push('{');
        Obj { out, first: true }
    }

    fn field(&mut self, key: &str, value: &dyn Json) -> &mut Self {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        serde_json::escape_into(self.out, key);
        self.out.push(':');
        value.json(self.out);
        self
    }

    fn end(self) {
        self.out.push('}');
    }
}

/// A value printed from its `Value` tree: for the small fields.
struct Tree<'a, T>(&'a T);

impl<T: Serialize> Json for Tree<'_, T> {
    fn json(&self, out: &mut String) {
        out.push_str(&serde_json::to_string(self.0).expect("snapshot values serialize"));
    }
}

/// Every integer is an `i64` in the `Value` (`as i64` is that
/// conversion), printed in decimal.
macro_rules! json_ints {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn json(&self, out: &mut String) {
                serde_json::int_into(out, *self as i64);
            }
        }
    )*};
}

json_ints!(u32, u64, usize, i64);

impl Json for bool {
    fn json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Json for String {
    fn json(&self, out: &mut String) {
        serde_json::escape_into(out, self);
    }
}

impl Json for &str {
    fn json(&self, out: &mut String) {
        serde_json::escape_into(out, self);
    }
}

impl<T: Json> Json for Vec<T> {
    fn json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.json(out);
        }
        out.push(']');
    }
}

impl<V: Json> Json for BTreeMap<String, V> {
    fn json(&self, out: &mut String) {
        let mut obj = Obj::new(out);
        for (key, value) in self {
            obj.field(key, value);
        }
        obj.end();
    }
}

impl Json for VerdictState {
    fn json(&self, out: &mut String) {
        let mut obj = Obj::new(out);
        match self {
            VerdictState::Detected(cut) => obj.field("kind", &"detected").field("cut", cut),
            VerdictState::Impossible => obj.field("kind", &"impossible"),
            VerdictState::Pending => obj.field("kind", &"pending"),
        };
        obj.end();
    }
}

impl Json for CandidateState {
    fn json(&self, out: &mut String) {
        let mut obj = Obj::new(out);
        obj.field("state", &self.state).field("clock", &self.clock);
        obj.end();
    }
}

impl Json for PatternChainState {
    fn json(&self, out: &mut String) {
        let mut obj = Obj::new(out);
        obj.field("join", &self.join).field("last", &self.last);
        obj.end();
    }
}

impl Json for DetectorState {
    fn json(&self, out: &mut String) {
        let mut obj = Obj::new(out);
        match self {
            DetectorState::Conjunctive(s) => obj
                .field("kind", &"conjunctive")
                .field("n", &s.n)
                .field("queues", &s.queues)
                .field("participating", &s.participating)
                .field("seen", &s.seen)
                .field("finished", &s.finished)
                .field("verdict", &s.verdict),
            DetectorState::Disjunctive(s) => obj
                .field("kind", &"disjunctive")
                .field("seen", &s.seen)
                .field("live", &s.live)
                .field("verdict", &s.verdict),
            DetectorState::Pattern(s) => obj
                .field("kind", &"pattern")
                .field("n", &s.n)
                .field("causal", &s.causal)
                .field("frontiers", &s.frontiers)
                .field("candidates", &s.candidates)
                .field("finished", &s.finished)
                .field("seen", &s.seen)
                .field("verdict", &s.verdict),
        };
        obj.end();
    }
}

/// As [`MonitorSnapshot::to_value`] lays it out.
impl Json for MonitorSnapshot {
    fn json(&self, out: &mut String) {
        let mut obj = Obj::new(out);
        obj.field("id", &self.id)
            .field("emitted", &self.emitted)
            .field("state", &self.state);
        obj.end();
    }
}

/// A pipeline's fields, as [`PipelineSnapshot::to_fields`] lays them out.
fn pipeline_fields<P: Json>(obj: &mut Obj<'_>, p: &PipelineSnapshot<P>, payload: &str) {
    obj.field("frontier", &p.frontier)
        .field("held", &HeldList(&p.held, payload))
        .field("finished", &p.finished)
        .field("monitor_finished", &p.monitor_finished)
        .field("delivered", &p.delivered)
        .field("monitors", &p.monitors);
}

/// Held events, each payload under the pipeline's name for it.
struct HeldList<'a, P>(&'a [HeldSnapshot<P>], &'a str);

impl<P: Json> Json for HeldList<'_, P> {
    fn json(&self, out: &mut String) {
        let HeldList(held, payload) = self;
        out.push('[');
        for (i, h) in held.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut obj = Obj::new(out);
            obj.field("process", &h.process)
                .field("clock", &h.clock)
                .field(payload, &h.payload);
            obj.end();
        }
        out.push(']');
    }
}

impl Json for SessionSnapshot {
    fn json(&self, out: &mut String) {
        let mut obj = Obj::new(out);
        obj.field("name", &self.name)
            .field("processes", &self.processes)
            .field("vars", &self.vars)
            .field("predicates", &Tree(&self.predicates))
            .field("states", &self.states);
        pipeline_fields(&mut obj, &self.pipeline, "set");
        obj.end();
    }
}

impl Json for WorkerSlotSnapshot {
    fn json(&self, out: &mut String) {
        Tree(self).json(out);
    }
}

impl Json for AggregatorSlotSnapshot {
    fn json(&self, out: &mut String) {
        let s = &self.snap;
        let mut obj = Obj::new(out);
        obj.field("name", &self.name)
            .field("processes", &self.processes)
            .field("k", &s.k)
            .field("vars", &s.vars)
            .field("predicates", &Tree(&s.predicates));
        pipeline_fields(&mut obj, &s.pipeline, "holds");
        obj.field("next_seq", &s.next_seq)
            .field("reorder", &s.reorder);
        // Written only when present, as in `to_value`.
        if !s.kept.is_empty() {
            obj.field("kept", &s.kept);
        }
        if !s.lost.is_empty() {
            obj.field("lost", &s.lost);
        }
        obj.end();
    }
}

/// A parked update of the reorder list.
impl Json for (u64, SliceUpdateBody) {
    fn json(&self, out: &mut String) {
        let mut obj = Obj::new(out);
        obj.field("seq", &self.0).field("update", &Tree(&self.1));
        obj.end();
    }
}

/// The membership bits of an update refused for hold space.
impl Json for (usize, u32, Vec<usize>) {
    fn json(&self, out: &mut String) {
        let (process, seq, holds) = self;
        let mut obj = Obj::new(out);
        obj.field("process", process)
            .field("seq", seq)
            .field("holds", holds);
        obj.end();
    }
}

// ---- serde ---------------------------------------------------------------

fn verdict_to_value(v: &VerdictState) -> Value {
    match v {
        VerdictState::Detected(cut) => Value::Object(vec![
            ("kind".into(), "detected".to_string().to_value()),
            ("cut".into(), cut.to_value()),
        ]),
        VerdictState::Impossible => {
            Value::Object(vec![("kind".into(), "impossible".to_string().to_value())])
        }
        VerdictState::Pending => {
            Value::Object(vec![("kind".into(), "pending".to_string().to_value())])
        }
    }
}

fn verdict_from_value(v: &Value) -> Result<VerdictState, DeError> {
    let kind: String = help::field(v, "kind")?;
    match kind.as_str() {
        "detected" => Ok(VerdictState::Detected(help::field(v, "cut")?)),
        "impossible" => Ok(VerdictState::Impossible),
        "pending" => Ok(VerdictState::Pending),
        other => Err(DeError::msg(format!("unknown verdict kind '{other}'"))),
    }
}

fn candidate_to_value(c: &CandidateState) -> Value {
    Value::Object(vec![
        ("state".into(), c.state.to_value()),
        ("clock".into(), c.clock.to_value()),
    ])
}

fn candidate_from_value(v: &Value) -> Result<CandidateState, DeError> {
    Ok(CandidateState {
        state: help::field(v, "state")?,
        clock: help::field(v, "clock")?,
    })
}

fn chain_to_value(c: &PatternChainState) -> Value {
    Value::Object(vec![
        ("join".into(), c.join.to_value()),
        ("last".into(), c.last.to_value()),
    ])
}

fn chain_from_value(v: &Value) -> Result<PatternChainState, DeError> {
    Ok(PatternChainState {
        join: help::field(v, "join")?,
        last: help::field(v, "last")?,
    })
}

fn detector_to_value(d: &DetectorState) -> Value {
    match d {
        DetectorState::Conjunctive(s) => Value::Object(vec![
            ("kind".into(), "conjunctive".to_string().to_value()),
            ("n".into(), s.n.to_value()),
            (
                "queues".into(),
                Value::Array(
                    s.queues
                        .iter()
                        .map(|q| Value::Array(q.iter().map(candidate_to_value).collect()))
                        .collect(),
                ),
            ),
            ("participating".into(), s.participating.to_value()),
            ("seen".into(), s.seen.to_value()),
            ("finished".into(), s.finished.to_value()),
            ("verdict".into(), verdict_to_value(&s.verdict)),
        ]),
        DetectorState::Disjunctive(s) => Value::Object(vec![
            ("kind".into(), "disjunctive".to_string().to_value()),
            ("seen".into(), s.seen.to_value()),
            ("live".into(), s.live.to_value()),
            ("verdict".into(), verdict_to_value(&s.verdict)),
        ]),
        DetectorState::Pattern(s) => Value::Object(vec![
            ("kind".into(), "pattern".to_string().to_value()),
            ("n".into(), s.n.to_value()),
            ("causal".into(), s.causal.to_value()),
            (
                "frontiers".into(),
                Value::Array(
                    s.frontiers
                        .iter()
                        .map(|f| Value::Array(f.iter().map(chain_to_value).collect()))
                        .collect(),
                ),
            ),
            ("candidates".into(), s.candidates.to_value()),
            ("finished".into(), s.finished.to_value()),
            ("seen".into(), s.seen.to_value()),
            ("verdict".into(), verdict_to_value(&s.verdict)),
        ]),
    }
}

fn detector_from_value(v: &Value) -> Result<DetectorState, DeError> {
    let kind: String = help::field(v, "kind")?;
    match kind.as_str() {
        "conjunctive" => {
            let queues_value = v
                .get("queues")
                .ok_or_else(|| DeError::msg("missing field 'queues'"))?;
            let Value::Array(queue_values) = queues_value else {
                return Err(DeError::expected("array", queues_value));
            };
            let mut queues = Vec::with_capacity(queue_values.len());
            for qv in queue_values {
                let Value::Array(cands) = qv else {
                    return Err(DeError::expected("array", qv));
                };
                queues.push(
                    cands
                        .iter()
                        .map(candidate_from_value)
                        .collect::<Result<Vec<_>, _>>()?,
                );
            }
            let verdict = verdict_from_value(
                v.get("verdict")
                    .ok_or_else(|| DeError::msg("missing field 'verdict'"))?,
            )?;
            Ok(DetectorState::Conjunctive(ConjunctiveState {
                n: help::field(v, "n")?,
                queues,
                participating: help::field(v, "participating")?,
                seen: help::field(v, "seen")?,
                finished: help::field(v, "finished")?,
                verdict,
            }))
        }
        "disjunctive" => {
            let verdict = verdict_from_value(
                v.get("verdict")
                    .ok_or_else(|| DeError::msg("missing field 'verdict'"))?,
            )?;
            Ok(DetectorState::Disjunctive(DisjunctiveState {
                seen: help::field(v, "seen")?,
                live: help::field(v, "live")?,
                verdict,
            }))
        }
        "pattern" => {
            let frontiers_value = v
                .get("frontiers")
                .ok_or_else(|| DeError::msg("missing field 'frontiers'"))?;
            let Value::Array(frontier_values) = frontiers_value else {
                return Err(DeError::expected("array", frontiers_value));
            };
            let mut frontiers = Vec::with_capacity(frontier_values.len());
            for fv in frontier_values {
                let Value::Array(chains) = fv else {
                    return Err(DeError::expected("array", fv));
                };
                frontiers.push(
                    chains
                        .iter()
                        .map(chain_from_value)
                        .collect::<Result<Vec<_>, _>>()?,
                );
            }
            let verdict = verdict_from_value(
                v.get("verdict")
                    .ok_or_else(|| DeError::msg("missing field 'verdict'"))?,
            )?;
            Ok(DetectorState::Pattern(PatternState {
                n: help::field(v, "n")?,
                causal: help::field(v, "causal")?,
                frontiers,
                candidates: help::field(v, "candidates")?,
                finished: help::field(v, "finished")?,
                seen: help::field(v, "seen")?,
                verdict,
            }))
        }
        other => Err(DeError::msg(format!("unknown detector kind '{other}'"))),
    }
}

impl Serialize for MonitorSnapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("id".into(), self.id.to_value()),
            ("emitted".into(), self.emitted.to_value()),
            ("state".into(), detector_to_value(&self.state)),
        ])
    }
}

/// Reads a monitor record, old shapes too. Earlier builds kept
/// clause-false deliveries from a conjunctive detector and wrote their
/// per-process count as `pending`: inside a `slice` record for a plain
/// session, at the top level for an aggregator. Each such delivery
/// would only have advanced the detector's state counter, so the count
/// is folded into `seen`, where an unfiltered run leaves it. Written
/// directly rather than replayed through `observe`, so a finished
/// process takes it too.
impl Deserialize for MonitorSnapshot {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        let mut state = detector_from_value(
            v.get("state")
                .ok_or_else(|| DeError::msg("missing field 'state'"))?,
        )?;
        let pending: Option<Vec<u64>> = match v.get("slice") {
            Some(slice) => Some(help::field(slice, "pending")?),
            None => help::field_opt(v, "pending")?,
        };
        if let Some(pending) = pending {
            let DetectorState::Conjunctive(s) = &mut state else {
                return Err(DeError::msg("'pending' on a non-conjunctive detector"));
            };
            if pending.len() != s.seen.len() {
                return Err(DeError::msg("'pending' does not match the process count"));
            }
            for (seen, &skipped) in s.seen.iter_mut().zip(&pending) {
                *seen = u32::try_from(skipped)
                    .ok()
                    .and_then(|k| seen.checked_add(k))
                    .ok_or_else(|| DeError::msg("'pending' overflows the state counter"))?;
            }
        }
        Ok(MonitorSnapshot {
            id: help::field(v, "id")?,
            emitted: help::field(v, "emitted")?,
            state,
        })
    }
}

impl<P: Serialize> PipelineSnapshot<P> {
    /// The pipeline's fields, in snapshot order. `payload` names a held
    /// event's payload: `set` for assignments, `holds` for membership
    /// bits.
    fn to_fields(&self, payload: &str) -> Vec<(String, Value)> {
        let held = self
            .held
            .iter()
            .map(|h| {
                Value::Object(vec![
                    ("process".into(), h.process.to_value()),
                    ("clock".into(), h.clock.to_value()),
                    (payload.into(), h.payload.to_value()),
                ])
            })
            .collect();
        vec![
            ("frontier".into(), self.frontier.to_value()),
            ("held".into(), Value::Array(held)),
            ("finished".into(), self.finished.to_value()),
            ("monitor_finished".into(), self.monitor_finished.to_value()),
            ("delivered".into(), self.delivered.to_value()),
            ("monitors".into(), self.monitors.to_value()),
        ]
    }
}

impl<P: Deserialize + Default> PipelineSnapshot<P> {
    fn from_fields(v: &Value, payload: &str) -> Result<Self, DeError> {
        let held: Vec<Value> = help::field_or_default(v, "held")?;
        let held = held
            .iter()
            .map(|h| {
                help::object(h)?;
                Ok(HeldSnapshot {
                    process: help::field(h, "process")?,
                    clock: help::field(h, "clock")?,
                    payload: help::field_or_default(h, payload)?,
                })
            })
            .collect::<Result<_, DeError>>()?;
        Ok(PipelineSnapshot {
            frontier: help::field_or_default(v, "frontier")?,
            held,
            finished: help::field_or_default(v, "finished")?,
            monitor_finished: help::field_or_default(v, "monitor_finished")?,
            delivered: help::field_or_default(v, "delivered")?,
            monitors: help::field_or_default(v, "monitors")?,
        })
    }
}

impl Serialize for SessionSnapshot {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("name".into(), self.name.to_value()),
            ("processes".into(), self.processes.to_value()),
            ("vars".into(), self.vars.to_value()),
            ("predicates".into(), self.predicates.to_value()),
            ("states".into(), self.states.to_value()),
        ];
        fields.extend(self.pipeline.to_fields("set"));
        Value::Object(fields)
    }
}

impl Deserialize for SessionSnapshot {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        Ok(SessionSnapshot {
            name: help::field(v, "name")?,
            processes: help::field(v, "processes")?,
            vars: help::field_or_default(v, "vars")?,
            predicates: help::field_or_default(v, "predicates")?,
            states: help::field_or_default(v, "states")?,
            pipeline: PipelineSnapshot::from_fields(v, "set")?,
        })
    }
}

impl Serialize for WorkerSlotSnapshot {
    fn to_value(&self) -> Value {
        let s = &self.snap;
        Value::Object(vec![
            ("name".into(), self.name.to_value()),
            ("origin".into(), self.origin.to_value()),
            ("worker".into(), s.worker.to_value()),
            ("k".into(), s.k.to_value()),
            ("vars".into(), s.vars.to_value()),
            ("predicates".into(), s.predicates.to_value()),
            ("states".into(), s.states.to_value()),
            ("counts".into(), s.counts.to_value()),
            ("holds".into(), s.holds.to_value()),
            (
                "filtered".into(),
                Value::Array(
                    s.filtered
                        .iter()
                        .map(|&(events_in, events_filtered)| {
                            Value::Object(vec![
                                ("events_in".into(), events_in.to_value()),
                                ("events_filtered".into(), events_filtered.to_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "held".into(),
                Value::Array(
                    s.held
                        .iter()
                        .map(|(seq, process, clock, set)| {
                            Value::Object(vec![
                                ("seq".into(), seq.to_value()),
                                ("process".into(), process.to_value()),
                                ("clock".into(), clock.to_value()),
                                ("set".into(), set.to_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for WorkerSlotSnapshot {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        let mut filtered = Vec::new();
        for fv in &help::field::<Vec<Value>>(v, "filtered")? {
            help::object(fv)?;
            filtered.push((
                help::field(fv, "events_in")?,
                help::field(fv, "events_filtered")?,
            ));
        }
        let mut held = Vec::new();
        for hv in &help::field::<Vec<Value>>(v, "held")? {
            help::object(hv)?;
            held.push((
                help::field(hv, "seq")?,
                help::field(hv, "process")?,
                help::field(hv, "clock")?,
                help::field_or_default(hv, "set")?,
            ));
        }
        Ok(WorkerSlotSnapshot {
            name: help::field(v, "name")?,
            origin: help::field(v, "origin")?,
            snap: WorkerSnapshot {
                worker: help::field(v, "worker")?,
                k: help::field(v, "k")?,
                vars: help::field_or_default(v, "vars")?,
                predicates: help::field_or_default(v, "predicates")?,
                states: help::field_or_default(v, "states")?,
                counts: help::field_or_default(v, "counts")?,
                holds: help::field_or_default(v, "holds")?,
                filtered,
                held,
            },
        })
    }
}

impl Serialize for AggregatorSlotSnapshot {
    fn to_value(&self) -> Value {
        let s = &self.snap;
        let mut fields = vec![
            ("name".into(), self.name.to_value()),
            ("processes".into(), self.processes.to_value()),
            ("k".into(), s.k.to_value()),
            ("vars".into(), s.vars.to_value()),
            ("predicates".into(), s.predicates.to_value()),
        ];
        fields.extend(s.pipeline.to_fields("holds"));
        fields.push(("next_seq".into(), s.next_seq.to_value()));
        fields.push((
            "reorder".into(),
            Value::Array(
                s.reorder
                    .iter()
                    .map(|(seq, update)| {
                        Value::Object(vec![
                            ("seq".into(), seq.to_value()),
                            ("update".into(), update.to_value()),
                        ])
                    })
                    .collect(),
            ),
        ));
        // Written only when present, so an aggregator that never had an
        // update refused for hold space snapshots as it always did.
        if !s.kept.is_empty() {
            fields.push((
                "kept".into(),
                Value::Array(
                    s.kept
                        .iter()
                        .map(|(process, seq, holds)| {
                            Value::Object(vec![
                                ("process".into(), process.to_value()),
                                ("seq".into(), seq.to_value()),
                                ("holds".into(), holds.to_value()),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if !s.lost.is_empty() {
            fields.push(("lost".into(), s.lost.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for AggregatorSlotSnapshot {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        let mut reorder = Vec::new();
        for rv in &help::field::<Vec<Value>>(v, "reorder")? {
            help::object(rv)?;
            reorder.push((help::field(rv, "seq")?, help::field(rv, "update")?));
        }
        let mut kept = Vec::new();
        for kv in &help::field_or_default::<Vec<Value>>(v, "kept")? {
            help::object(kv)?;
            kept.push((
                help::field(kv, "process")?,
                help::field(kv, "seq")?,
                help::field_or_default(kv, "holds")?,
            ));
        }
        Ok(AggregatorSlotSnapshot {
            name: help::field(v, "name")?,
            processes: help::field(v, "processes")?,
            snap: AggregatorSnapshot {
                k: help::field(v, "k")?,
                vars: help::field_or_default(v, "vars")?,
                predicates: help::field_or_default(v, "predicates")?,
                pipeline: PipelineSnapshot::from_fields(v, "holds")?,
                next_seq: help::field_or_default(v, "next_seq")?,
                reorder,
                kept,
                lost: help::field_or_default(v, "lost")?,
            },
        })
    }
}

impl Serialize for ServiceSnapshot {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("version".into(), 1u32.to_value()),
            ("sessions".into(), self.sessions.to_value()),
        ];
        // Written only when present, so a backend with no distributed
        // sessions produces byte-identical snapshots to a pre-v5 build.
        if !self.workers.is_empty() {
            fields.push(("workers".into(), self.workers.to_value()));
        }
        if !self.aggregators.is_empty() {
            fields.push(("aggregators".into(), self.aggregators.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for ServiceSnapshot {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        let version: u32 = help::field(v, "version")?;
        if version != 1 {
            return Err(DeError::msg(format!(
                "unsupported snapshot version {version}"
            )));
        }
        Ok(ServiceSnapshot {
            sessions: help::field_or_default(v, "sessions")?,
            workers: help::field_or_default(v, "workers")?,
            aggregators: help::field_or_default(v, "aggregators")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_tracefmt::wire::{WireClause, WireMode};

    fn sample() -> ServiceSnapshot {
        ServiceSnapshot {
            sessions: vec![SessionSnapshot {
                name: "s".into(),
                processes: 2,
                vars: vec!["x0".into(), "x1".into()],
                predicates: vec![WirePredicate {
                    id: "ef".into(),
                    mode: WireMode::Conjunctive,
                    clauses: vec![WireClause {
                        process: 0,
                        var: "x0".into(),
                        op: "=".into(),
                        value: 2,
                    }],
                    pattern: None,
                }],
                states: vec![vec![1, 0], vec![0, 1]],
                pipeline: PipelineSnapshot {
                    frontier: vec![2, 1],
                    held: vec![HeldSnapshot {
                        process: 1,
                        clock: vec![2, 3],
                        payload: [("x1".to_string(), 7i64)].into_iter().collect(),
                    }],
                    finished: vec![true, false],
                    monitor_finished: vec![false, false],
                    delivered: 3,
                    monitors: vec![
                        MonitorSnapshot {
                            id: "ef".into(),
                            emitted: false,
                            state: DetectorState::Conjunctive(ConjunctiveState {
                                n: 2,
                                queues: vec![
                                    vec![CandidateState {
                                        state: 2,
                                        clock: vec![2, 0],
                                    }],
                                    vec![],
                                ],
                                participating: vec![true, false],
                                seen: vec![2, 1],
                                finished: vec![false, false],
                                verdict: VerdictState::Pending,
                            }),
                        },
                        MonitorSnapshot {
                            id: "any".into(),
                            emitted: true,
                            state: DetectorState::Disjunctive(DisjunctiveState {
                                seen: vec![2, 1],
                                live: 2,
                                verdict: VerdictState::Detected(vec![2, 0]),
                            }),
                        },
                        MonitorSnapshot {
                            id: "inv".into(),
                            emitted: false,
                            state: DetectorState::Pattern(PatternState {
                                n: 2,
                                causal: vec![false, true],
                                frontiers: vec![
                                    vec![PatternChainState {
                                        join: vec![0, 0],
                                        last: vec![0, 0],
                                    }],
                                    vec![PatternChainState {
                                        join: vec![2, 0],
                                        last: vec![2, 0],
                                    }],
                                    vec![],
                                ],
                                candidates: vec![
                                    vec![vec![vec![2, 0]], vec![]],
                                    vec![vec![], vec![vec![1, 3]]],
                                ],
                                finished: vec![false, true],
                                seen: vec![2, 1],
                                verdict: VerdictState::Pending,
                            }),
                        },
                    ],
                },
            }],
            workers: Vec::new(),
            aggregators: Vec::new(),
        }
    }

    #[test]
    fn service_snapshot_round_trips_through_json() {
        let snap = sample();
        let json = snap.to_json();
        let back = ServiceSnapshot::from_json(json.as_bytes()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshots_without_distributed_slots_stay_byte_identical() {
        // The dist fields must not appear in the payload when empty, so
        // plain-session snapshots round-trip with pre-v5 readers.
        let json = sample().to_json();
        assert!(!json.contains("\"workers\""));
        assert!(!json.contains("\"aggregators\""));
    }

    #[test]
    fn distributed_slots_round_trip_through_json() {
        use crate::{DistAggregator, DistWorker};
        use hb_tracefmt::wire::SliceUpdateBody;

        let preds = vec![WirePredicate {
            id: "ef".into(),
            mode: WireMode::Conjunctive,
            clauses: vec![
                WireClause {
                    process: 0,
                    var: "x".into(),
                    op: "=".into(),
                    value: 2,
                },
                WireClause {
                    process: 1,
                    var: "x".into(),
                    op: "=".into(),
                    value: 1,
                },
            ],
            pattern: None,
        }];
        let vars = vec!["x".to_string()];
        let mut worker = DistWorker::open(0, 2, 2, &vars, &[], &preds).unwrap();
        let set: BTreeMap<String, i64> = [("x".to_string(), 2i64)].into_iter().collect();
        // One applied event and one held (position gap) event.
        worker.observe(
            0,
            0,
            hb_vclock::VectorClock::from_components(vec![1, 0]),
            &set,
        );
        worker.observe(
            3,
            0,
            hb_vclock::VectorClock::from_components(vec![3, 0]),
            &set,
        );
        let mut agg = DistAggregator::open(2, 2, &vars, &[], &preds, 64).unwrap();
        agg.update(
            0,
            SliceUpdateBody::Observe {
                p: 0,
                clock: vec![1, 0],
                holds: vec![0],
                invalid: None,
            },
        );
        agg.update(2, SliceUpdateBody::Finish { p: 1 }); // parked in reorder

        let snap = ServiceSnapshot {
            sessions: Vec::new(),
            workers: vec![WorkerSlotSnapshot {
                name: "s#w0".into(),
                origin: "s".into(),
                snap: worker.snapshot(),
            }],
            aggregators: vec![AggregatorSlotSnapshot {
                name: "s".into(),
                processes: 2,
                snap: agg.snapshot(),
            }],
        };
        let back = ServiceSnapshot::from_json(snap.to_json().as_bytes()).unwrap();
        assert_eq!(back, snap);
        // And the engines rebuild from the decoded state.
        let w = DistWorker::restore(&back.workers[0].snap, 2).unwrap();
        assert_eq!(w.snapshot(), snap.workers[0].snap);
        let a =
            DistAggregator::restore(&back.aggregators[0].snap, back.aggregators[0].processes, 64)
                .unwrap();
        assert_eq!(a.snapshot(), snap.aggregators[0].snap);
    }

    /// A snapshot payload written by the build before the engines were
    /// moved behind one pipeline (PR 14, `f414470`), byte for byte: a
    /// session mid-run whose filter kept clause-false events from its
    /// detector (a `slice` record with pending counts) and held an
    /// event, a pattern session, a worker with a held event, and an
    /// aggregator with a held update, top-level pending counts and a
    /// parked reorder entry. A data directory that build left behind
    /// must recover under this one.
    const GOLDEN_PR14: &str = r##"{"version":1,"sessions":[{"name":"plain","processes":2,"vars":["x0","x1"],"predicates":[{"id":"ef","mode":"conjunctive","clauses":[{"process":0,"var":"x0","op":"=","value":2},{"process":1,"var":"x1","op":"=","value":1}]}],"states":[[1],[0,3]],"frontier":[1,1],"held":[{"process":1,"clock":[2,2],"set":{"x1":2}}],"finished":[false,false],"monitor_finished":[false,false],"delivered":2,"monitors":[{"id":"ef","emitted":false,"state":{"kind":"conjunctive","n":2,"queues":[[],[]],"participating":[true,true],"seen":[0,0],"finished":[false,false],"verdict":{"kind":"pending"}},"slice":{"holds":[false,false],"pending":[1,1],"events_in":2,"events_filtered":2}}]},{"name":"pat","processes":2,"vars":["unlock","lock"],"predicates":[{"id":"inversion","mode":"pattern","clauses":[],"pattern":{"atoms":[{"process":1,"var":"unlock","op":"=","value":1},{"process":0,"var":"lock","op":"=","value":1}]}}],"states":[[0,1],[]],"frontier":[1,0],"held":[],"finished":[false,false],"monitor_finished":[false,false],"delivered":1,"monitors":[{"id":"inversion","emitted":false,"state":{"kind":"pattern","n":2,"causal":[false,false],"frontiers":[[{"join":[0,0],"last":[0,0]}],[],[]],"candidates":[[[],[]],[[[1,0]],[]]],"finished":[false,false],"seen":[1,0],"verdict":{"kind":"pending"}}}]}],"workers":[{"name":"d#w0","origin":"d","worker":0,"k":2,"vars":["x0","x1"],"predicates":[{"id":"ef","mode":"conjunctive","clauses":[{"process":0,"var":"x0","op":"=","value":2},{"process":1,"var":"x1","op":"=","value":1}]}],"states":[[2],[]],"counts":[1,0],"holds":[[true,false]],"filtered":[{"events_in":1,"events_filtered":0}],"held":[{"seq":3,"process":0,"clock":[3,0],"set":{"x0":5}}]}],"aggregators":[{"name":"d","processes":2,"k":2,"vars":["x0","x1"],"predicates":[{"id":"ef","mode":"conjunctive","clauses":[{"process":0,"var":"x0","op":"=","value":2},{"process":1,"var":"x1","op":"=","value":1}]}],"frontier":[1,0],"held":[{"process":1,"clock":[2,1],"holds":[0]}],"finished":[false,false],"monitor_finished":[false,false],"delivered":1,"monitors":[{"id":"ef","emitted":false,"state":{"kind":"conjunctive","n":2,"queues":[[],[]],"participating":[true,true],"seen":[0,0],"finished":[false,false],"verdict":{"kind":"pending"}},"pending":[1,0]}],"next_seq":2,"reorder":[{"seq":3,"update":{"op":"finish","p":1}}]}]}"##;

    /// The same snapshot as this build writes it: no `slice` record and
    /// no `pending` counts, which are folded into the conjunctive
    /// detectors' `seen` instead.
    const GOLDEN_UNFILTERED: &str = r##"{"version":1,"sessions":[{"name":"plain","processes":2,"vars":["x0","x1"],"predicates":[{"id":"ef","mode":"conjunctive","clauses":[{"process":0,"var":"x0","op":"=","value":2},{"process":1,"var":"x1","op":"=","value":1}]}],"states":[[1],[0,3]],"frontier":[1,1],"held":[{"process":1,"clock":[2,2],"set":{"x1":2}}],"finished":[false,false],"monitor_finished":[false,false],"delivered":2,"monitors":[{"id":"ef","emitted":false,"state":{"kind":"conjunctive","n":2,"queues":[[],[]],"participating":[true,true],"seen":[1,1],"finished":[false,false],"verdict":{"kind":"pending"}}}]},{"name":"pat","processes":2,"vars":["unlock","lock"],"predicates":[{"id":"inversion","mode":"pattern","clauses":[],"pattern":{"atoms":[{"process":1,"var":"unlock","op":"=","value":1},{"process":0,"var":"lock","op":"=","value":1}]}}],"states":[[0,1],[]],"frontier":[1,0],"held":[],"finished":[false,false],"monitor_finished":[false,false],"delivered":1,"monitors":[{"id":"inversion","emitted":false,"state":{"kind":"pattern","n":2,"causal":[false,false],"frontiers":[[{"join":[0,0],"last":[0,0]}],[],[]],"candidates":[[[],[]],[[[1,0]],[]]],"finished":[false,false],"seen":[1,0],"verdict":{"kind":"pending"}}}]}],"workers":[{"name":"d#w0","origin":"d","worker":0,"k":2,"vars":["x0","x1"],"predicates":[{"id":"ef","mode":"conjunctive","clauses":[{"process":0,"var":"x0","op":"=","value":2},{"process":1,"var":"x1","op":"=","value":1}]}],"states":[[2],[]],"counts":[1,0],"holds":[[true,false]],"filtered":[{"events_in":1,"events_filtered":0}],"held":[{"seq":3,"process":0,"clock":[3,0],"set":{"x0":5}}]}],"aggregators":[{"name":"d","processes":2,"k":2,"vars":["x0","x1"],"predicates":[{"id":"ef","mode":"conjunctive","clauses":[{"process":0,"var":"x0","op":"=","value":2},{"process":1,"var":"x1","op":"=","value":1}]}],"frontier":[1,0],"held":[{"process":1,"clock":[2,1],"holds":[0]}],"finished":[false,false],"monitor_finished":[false,false],"delivered":1,"monitors":[{"id":"ef","emitted":false,"state":{"kind":"conjunctive","n":2,"queues":[[],[]],"participating":[true,true],"seen":[1,0],"finished":[false,false],"verdict":{"kind":"pending"}}}],"next_seq":2,"reorder":[{"seq":3,"update":{"op":"finish","p":1}}]}]}"##;

    #[test]
    fn a_snapshot_written_by_the_previous_build_restores_and_rewrites_identically() {
        let snap = ServiceSnapshot::from_json(GOLDEN_PR14.as_bytes()).unwrap();
        assert_eq!(snap.to_json(), GOLDEN_UNFILTERED, "parse and re-serialize");
        // Member by member prints what the whole tree prints.
        for snap in [&snap, &sample(), &ServiceSnapshot::default()] {
            assert_eq!(
                snap.to_json(),
                serde_json::to_string(&snap.to_value()).unwrap()
            );
        }
        let limits = crate::SessionLimits {
            buffer_capacity: 64,
            ..Default::default()
        };
        let members = crate::member::Member::restore(&snap, limits).unwrap();
        assert_eq!(members.len(), 4);
        let mut back = ServiceSnapshot::default();
        let metrics = crate::Metrics::default();
        for (name, mut member) in members {
            member.freeze(&name, &metrics, &mut back);
        }
        assert_eq!(back.to_json(), GOLDEN_UNFILTERED, "restore and re-freeze");
    }

    /// Old pending counts are refused where no build wrote them: on a
    /// detector that is not conjunctive, or of the wrong width.
    #[test]
    fn misplaced_pending_counts_are_refused() {
        let record = |state: &str, extra: &str| {
            format!(
                r#"{{"version":1,"sessions":[{{"name":"s","processes":2,
                "monitors":[{{"id":"p","emitted":false,"state":{state}{extra}}}]}}]}}"#
            )
        };
        let conj = r#"{"kind":"conjunctive","n":2,"queues":[[],[]],"participating":[true,true],"seen":[1,2],"finished":[false,false],"verdict":{"kind":"pending"}}"#;
        let disj = r#"{"kind":"disjunctive","seen":[1,2],"live":2,"verdict":{"kind":"pending"}}"#;
        let read = |text: String| ServiceSnapshot::from_json(text.as_bytes());
        let folded = read(record(conj, r#","pending":[3,0]"#)).unwrap();
        let DetectorState::Conjunctive(s) = &folded.sessions[0].pipeline.monitors[0].state else {
            panic!("a conjunctive record reads as one");
        };
        assert_eq!(s.seen, vec![4, 2]);
        assert!(read(record(disj, r#","pending":[0,0]"#)).is_err());
        assert!(read(record(disj, r#","slice":{"holds":[],"pending":[0,0]}"#)).is_err());
        assert!(read(record(conj, r#","pending":[1]"#)).is_err());
        assert!(read(record(conj, r#","pending":[4294967295,0]"#)).is_err());
    }

    #[test]
    fn bad_payloads_are_rejected_with_messages() {
        assert!(ServiceSnapshot::from_json(b"\xFF\xFE").is_err());
        assert!(ServiceSnapshot::from_json(b"not json").is_err());
        assert!(ServiceSnapshot::from_json(b"{\"version\":9}").is_err());
        let bad_kind = r#"{"version":1,"sessions":[{"name":"s","processes":1,
            "monitors":[{"id":"p","emitted":false,"state":{"kind":"quantum"}}]}]}"#;
        assert!(ServiceSnapshot::from_json(bad_kind.as_bytes()).is_err());
    }
}
