//! The JSON trace format.

use crate::TraceError;
use hb_computation::{Computation, ComputationBuilder, EventKind, MsgToken};
use serde::{help, json_object, DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// Top-level trace document.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// Number of processes.
    pub processes: usize,
    /// Declared variable names (defines slot order); optional in the file.
    pub vars: Vec<String>,
    /// Initial valuations, one map per process (missing = all zero);
    /// optional in the file.
    pub initial: Vec<BTreeMap<String, i64>>,
    /// Events in a topological order (sends before their receives,
    /// per-process order preserved).
    pub events: Vec<TraceEvent>,
}

/// One event row.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Executing process.
    pub p: usize,
    /// What the event does; flattened into the row object as a `kind`
    /// tag plus an optional `msg` id.
    pub kind: TraceEventKind,
    /// Variable assignments taking effect at the event; omitted from the
    /// file when empty.
    pub set: BTreeMap<String, i64>,
    /// Optional label; omitted from the file when absent.
    pub label: Option<String>,
}

/// Event kinds, tagged by a `kind` field (`"internal"`, `"send"`,
/// `"recv"`); sends and receives carry a shared message id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Local event.
    Internal,
    /// Send of message `msg`.
    Send {
        /// File-scoped message id.
        msg: u32,
    },
    /// Receive of message `msg`.
    Recv {
        /// File-scoped message id.
        msg: u32,
    },
}

json_object!(TraceFile {
    processes,
    vars: or_default,
    initial: or_default,
    events,
});

// Hand-written: the event's `kind` is flattened into the row.
impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let mut fields = vec![("p".into(), self.p.to_value())];
        match self.kind {
            TraceEventKind::Internal => {
                fields.push(("kind".into(), Value::Str("internal".into())));
            }
            TraceEventKind::Send { msg } => {
                fields.push(("kind".into(), Value::Str("send".into())));
                fields.push(("msg".into(), msg.to_value()));
            }
            TraceEventKind::Recv { msg } => {
                fields.push(("kind".into(), Value::Str("recv".into())));
                fields.push(("msg".into(), msg.to_value()));
            }
        }
        if !self.set.is_empty() {
            fields.push(("set".into(), self.set.to_value()));
        }
        if let Some(label) = &self.label {
            fields.push(("label".into(), label.clone().to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for TraceEvent {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        let kind = match help::field::<String>(v, "kind")?.as_str() {
            "internal" => TraceEventKind::Internal,
            "send" => TraceEventKind::Send {
                msg: help::field(v, "msg")?,
            },
            "recv" => TraceEventKind::Recv {
                msg: help::field(v, "msg")?,
            },
            other => {
                return Err(DeError::msg(format!(
                    "unknown event kind '{other}' (expected internal, send, or recv)"
                )))
            }
        };
        Ok(TraceEvent {
            p: help::field(v, "p")?,
            kind,
            set: help::field_or_default(v, "set")?,
            label: help::field_opt(v, "label")?,
        })
    }
}

impl TraceFile {
    /// Extracts a trace document from a computation. Events are emitted
    /// in a topological order obtained by repeatedly advancing the
    /// lowest-index enabled process.
    pub fn from_computation(comp: &Computation) -> TraceFile {
        let vars: Vec<String> = comp.vars().iter().map(|(_, n)| n.to_string()).collect();
        let initial = (0..comp.num_processes())
            .map(|i| {
                comp.vars()
                    .iter()
                    .filter_map(|(id, name)| {
                        let v = comp.initial_states()[i].get(id);
                        (v != 0).then(|| (name.to_string(), v))
                    })
                    .collect()
            })
            .collect();

        let mut events = Vec::with_capacity(comp.num_events());
        let mut cut = comp.initial_cut();
        let final_cut = comp.final_cut();
        while cut != final_cut {
            let i = (0..cut.width())
                .find(|&i| comp.can_advance(&cut, i))
                .expect("non-final cut has an enabled process");
            let ev = &comp.events_of(i)[cut.get(i) as usize];
            let kind = match ev.kind {
                EventKind::Internal => TraceEventKind::Internal,
                EventKind::Send { msg } => TraceEventKind::Send { msg: msg as u32 },
                EventKind::Receive { msg } => TraceEventKind::Recv { msg: msg as u32 },
            };
            // Record only the deltas: values that differ from the state
            // before the event.
            let prev = comp.local_state(i, cut.get(i));
            let set = comp
                .vars()
                .iter()
                .filter_map(|(id, name)| {
                    let now = ev.state.get(id);
                    (now != prev.get(id)).then(|| (name.to_string(), now))
                })
                .collect();
            events.push(TraceEvent {
                p: i,
                kind,
                set,
                label: ev.label.clone(),
            });
            cut = cut.advanced(i);
        }

        TraceFile {
            processes: comp.num_processes(),
            vars,
            initial,
            events,
        }
    }

    /// Rebuilds the computation, validating structure.
    pub fn to_computation(&self) -> Result<Computation, TraceError> {
        let mut b = ComputationBuilder::new(self.processes);
        let var_ids: BTreeMap<&str, hb_computation::VarId> =
            self.vars.iter().map(|n| (n.as_str(), b.var(n))).collect();
        let lookup = |name: &str| -> Result<hb_computation::VarId, TraceError> {
            var_ids
                .get(name)
                .copied()
                .ok_or_else(|| TraceError::Invalid(format!("undeclared variable '{name}'")))
        };

        if self.initial.len() > self.processes {
            return Err(TraceError::Invalid(format!(
                "{} initial maps for {} processes",
                self.initial.len(),
                self.processes
            )));
        }
        for (i, init) in self.initial.iter().enumerate() {
            for (name, &value) in init {
                b.init(i, lookup(name)?, value);
            }
        }

        let mut tokens: BTreeMap<u32, MsgToken> = BTreeMap::new();
        let mut received: Vec<u32> = Vec::new();
        for (row, ev) in self.events.iter().enumerate() {
            if ev.p >= self.processes {
                return Err(TraceError::Invalid(format!(
                    "event {row}: process {} out of range",
                    ev.p
                )));
            }
            let mut updates = Vec::new();
            for (name, &value) in &ev.set {
                updates.push((lookup(name)?, value));
            }
            fn apply<'a>(
                mut d: hb_computation::EventDraft<'a>,
                updates: &[(hb_computation::VarId, i64)],
                label: Option<&str>,
            ) -> hb_computation::EventDraft<'a> {
                for &(v, val) in updates {
                    d = d.set(v, val);
                }
                if let Some(l) = label {
                    d = d.label(l);
                }
                d
            }
            let label = ev.label.as_deref();
            match ev.kind {
                TraceEventKind::Internal => {
                    apply(b.internal(ev.p), &updates, label).done();
                }
                TraceEventKind::Send { msg } => {
                    if tokens.contains_key(&msg) || received.contains(&msg) {
                        return Err(TraceError::Invalid(format!(
                            "event {row}: message {msg} sent twice"
                        )));
                    }
                    let tok = apply(b.send(ev.p), &updates, label).done_send();
                    tokens.insert(msg, tok);
                }
                TraceEventKind::Recv { msg } => {
                    let Some(tok) = tokens.remove(&msg) else {
                        return Err(TraceError::Invalid(format!(
                            "event {row}: receive of message {msg} before its send (or duplicate receive)"
                        )));
                    };
                    received.push(msg);
                    apply(b.receive(ev.p, tok), &updates, label).done();
                }
            }
        }
        if let Some((&msg, _)) = tokens.iter().next() {
            return Err(TraceError::Invalid(format!(
                "message {msg} sent but never received"
            )));
        }
        b.finish().map_err(|e| TraceError::Invalid(e.to_string()))
    }
}

/// Serializes a computation to pretty JSON.
pub fn to_json(comp: &Computation) -> String {
    serde_json::to_string_pretty(&TraceFile::from_computation(comp)).expect("trace file serializes")
}

/// Parses a computation from JSON.
pub fn from_json(s: &str) -> Result<Computation, TraceError> {
    let file: TraceFile = serde_json::from_str(s)?;
    file.to_computation()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Computation {
        let mut b = ComputationBuilder::new(2);
        let x = b.var("x");
        let y = b.var("y");
        b.init(0, x, 5);
        b.internal(0).set(x, 1).label("e1").done();
        let m = b.send(0).set(y, 2).done_send();
        b.internal(1).done();
        b.receive(1, m).set(x, 3).label("f2").done();
        b.finish().unwrap()
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let comp = sample();
        let json = to_json(&comp);
        let back = from_json(&json).unwrap();
        assert_eq!(back.num_processes(), comp.num_processes());
        assert_eq!(back.num_events(), comp.num_events());
        assert_eq!(back.messages(), comp.messages());
        // States agree at every local position.
        for i in 0..comp.num_processes() {
            for s in 0..=comp.num_events_of(i) as u32 {
                assert_eq!(back.local_state(i, s), comp.local_state(i, s));
            }
        }
        // Clocks are recomputed identically.
        for e in comp.event_ids() {
            assert_eq!(back.clock(e), comp.clock(e));
        }
        assert_eq!(back.event_by_label("f2"), comp.event_by_label("f2"));
    }

    #[test]
    fn deltas_only_in_set_maps() {
        let comp = sample();
        let file = TraceFile::from_computation(&comp);
        // P1's internal event changes nothing: empty set map.
        let internal_row = file
            .events
            .iter()
            .find(|e| e.p == 1 && e.kind == TraceEventKind::Internal)
            .unwrap();
        assert!(internal_row.set.is_empty());
        // Nonzero initial value recorded.
        assert_eq!(file.initial[0]["x"], 5);
    }

    #[test]
    fn rejects_receive_before_send() {
        let bad = r#"{
            "processes": 2,
            "events": [ {"p": 1, "kind": "recv", "msg": 0},
                        {"p": 0, "kind": "send", "msg": 0} ]
        }"#;
        let err = from_json(bad).unwrap_err();
        assert!(err.to_string().contains("before its send"));
    }

    #[test]
    fn rejects_unreceived_and_duplicate_messages() {
        let unreceived = r#"{"processes": 1, "events": [ {"p":0,"kind":"send","msg":0} ]}"#;
        assert!(from_json(unreceived)
            .unwrap_err()
            .to_string()
            .contains("never received"));
        let dup = r#"{"processes": 2, "events": [
            {"p":0,"kind":"send","msg":0},
            {"p":0,"kind":"send","msg":0},
            {"p":1,"kind":"recv","msg":0} ]}"#;
        assert!(from_json(dup)
            .unwrap_err()
            .to_string()
            .contains("sent twice"));
    }

    #[test]
    fn rejects_bad_process_and_unknown_variable() {
        let bad_p = r#"{"processes": 1, "events": [ {"p": 3, "kind": "internal"} ]}"#;
        assert!(from_json(bad_p)
            .unwrap_err()
            .to_string()
            .contains("out of range"));
        let bad_v = r#"{"processes": 1, "vars": [],
            "events": [ {"p": 0, "kind": "internal", "set": {"q": 1}} ]}"#;
        assert!(from_json(bad_v)
            .unwrap_err()
            .to_string()
            .contains("undeclared variable"));
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(matches!(from_json("{"), Err(TraceError::Json(_))));
        assert!(matches!(
            from_json(r#"{"processes": "two", "events": []}"#),
            Err(TraceError::Json(_))
        ));
    }
}
