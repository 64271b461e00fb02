//! The byte and rejection corpus of the wire records.
//!
//! Every variant of every wire record, with each field that is written
//! only when set in both of its states, pinned to the exact text its
//! `to_value` prints and the exact bytes `encode_body` writes (the same
//! string), and decoded back to itself. A table of lenient bodies pins
//! what a missing or `null` field reads as, and a table of malformed
//! bodies pins the exact message each rejection reads. The literals are
//! the protocol: a change to any of them is a change to what peers see.

use hb_tracefmt::wire::{
    decode_body, encode_body, ClientMsg, EventFrame, ServerMsg, SliceUpdateBody, WireAtom,
    WireClause, WireDistRole, WireMode, WirePattern, WirePredicate, WireVerdict, WIRE_VERSION,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// `x` prints as `text` through both encoders and decodes back to `x`
/// through both decoders.
fn pin<T: Serialize + Deserialize + PartialEq + Debug>(x: T, text: &str) {
    assert_eq!(serde_json::to_string(&x.to_value()).unwrap(), text, "{x:?}");
    assert_eq!(encode_body(&x), text, "{x:?}");
    let back: T = decode_body(text.as_bytes()).unwrap();
    assert_eq!(back, x, "{text}");
    let value = serde_json::parse_value(text).unwrap();
    assert_eq!(T::from_value(&value).unwrap(), x, "{text}");
}

/// `body` is accepted and re-encodes as `canonical`.
fn lenient<T: Serialize + Deserialize + Debug>(body: &str, canonical: &str) {
    let msg: T = decode_body(body.as_bytes()).unwrap_or_else(|e| panic!("{body}: {e}"));
    assert_eq!(encode_body(&msg), canonical, "{body}");
}

/// `body` is refused with exactly `message`.
fn reject<T: Deserialize + Debug>(body: &str, message: &str) {
    let err = decode_body::<T>(body.as_bytes()).unwrap_err();
    assert_eq!(err.to_string(), message, "{body}");
}

fn set(pairs: &[(&str, i64)]) -> BTreeMap<String, i64> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

fn clause(process: usize, var: &str, op: &str, value: i64) -> WireClause {
    WireClause {
        process,
        var: var.into(),
        op: op.into(),
        value,
    }
}

fn atom(process: Option<usize>, var: &str, value: i64, causal: bool) -> WireAtom {
    WireAtom {
        process,
        var: var.into(),
        op: "=".into(),
        value,
        causal,
    }
}

fn pattern() -> WirePattern {
    WirePattern {
        atoms: vec![atom(None, "x", 1, false), atom(Some(2), "y", -3, true)],
    }
}

fn predicate(id: &str, mode: WireMode, clauses: Vec<WireClause>) -> WirePredicate {
    WirePredicate {
        id: id.into(),
        mode,
        clauses,
        pattern: None,
    }
}

fn frame(p: usize, clock: Vec<u32>, pairs: &[(&str, i64)]) -> EventFrame {
    EventFrame {
        p,
        clock,
        set: set(pairs),
    }
}

fn observe(holds: Vec<usize>, invalid: Option<&str>) -> SliceUpdateBody {
    SliceUpdateBody::Observe {
        p: 1,
        clock: vec![0, 2, 1],
        holds,
        invalid: invalid.map(Into::into),
    }
}

fn open(predicates: Vec<WirePredicate>, dist: Option<WireDistRole>) -> ClientMsg {
    ClientMsg::Open {
        session: "s".into(),
        processes: 3,
        vars: vec!["x".into(), "y".into()],
        initial: vec![set(&[("x", 5)]), set(&[])],
        predicates,
        dist,
    }
}

#[test]
fn clauses_atoms_and_patterns() {
    pin(
        clause(0, "x", "=", 2),
        r#"{"process":0,"var":"x","op":"=","value":2}"#,
    );
    pin(
        clause(12, "long_name", ">=", -7),
        r#"{"process":12,"var":"long_name","op":">=","value":-7}"#,
    );
    pin(
        atom(None, "x", 1, false),
        r#"{"var":"x","op":"=","value":1}"#,
    );
    pin(
        atom(Some(0), "x", 1, false),
        r#"{"process":0,"var":"x","op":"=","value":1}"#,
    );
    pin(
        atom(None, "x", 1, true),
        r#"{"var":"x","op":"=","value":1,"causal":true}"#,
    );
    pin(
        atom(Some(4), "y", -2, true),
        r#"{"process":4,"var":"y","op":"=","value":-2,"causal":true}"#,
    );
    pin(
        pattern(),
        r#"{"atoms":[{"var":"x","op":"=","value":1},{"process":2,"var":"y","op":"=","value":-3,"causal":true}]}"#,
    );
}

#[test]
fn predicates_in_every_mode() {
    let clauses = vec![clause(0, "x", "=", 1), clause(2, "y", "!=", 0)];
    pin(
        predicate("conj", WireMode::Conjunctive, clauses.clone()),
        r#"{"id":"conj","mode":"conjunctive","clauses":[{"process":0,"var":"x","op":"=","value":1},{"process":2,"var":"y","op":"!=","value":0}]}"#,
    );
    pin(
        predicate("disj", WireMode::Disjunctive, clauses),
        r#"{"id":"disj","mode":"disjunctive","clauses":[{"process":0,"var":"x","op":"=","value":1},{"process":2,"var":"y","op":"!=","value":0}]}"#,
    );
    pin(
        predicate("none", WireMode::Conjunctive, vec![]),
        r#"{"id":"none","mode":"conjunctive","clauses":[]}"#,
    );
    pin(
        WirePredicate {
            pattern: Some(pattern()),
            ..predicate("pat", WireMode::Pattern, vec![])
        },
        r#"{"id":"pat","mode":"pattern","clauses":[],"pattern":{"atoms":[{"var":"x","op":"=","value":1},{"process":2,"var":"y","op":"=","value":-3,"causal":true}]}}"#,
    );
}

#[test]
fn event_frames_and_dist_roles() {
    pin(frame(0, vec![1, 0, 0], &[]), r#"{"p":0,"clock":[1,0,0]}"#);
    pin(
        frame(2, vec![1, 0, 4], &[("x", -1), ("y", 9)]),
        r#"{"p":2,"clock":[1,0,4],"set":{"x":-1,"y":9}}"#,
    );
    for (role, text) in [
        (
            WireDistRole::Distribute { k: 3 },
            r#"{"role":"distribute","k":3}"#,
        ),
        (
            WireDistRole::Worker {
                origin: "s".into(),
                worker: 1,
                k: 3,
            },
            r#"{"role":"worker","origin":"s","worker":1,"k":3}"#,
        ),
        (
            WireDistRole::Aggregator { k: 2 },
            r#"{"role":"aggregator","k":2}"#,
        ),
    ] {
        pin(role, text);
    }
}

#[test]
fn slice_update_bodies() {
    for (body, text) in [
        (
            observe(vec![], None),
            r#"{"op":"observe","p":1,"clock":[0,2,1]}"#,
        ),
        (
            observe(vec![0, 3], None),
            r#"{"op":"observe","p":1,"clock":[0,2,1],"holds":[0,3]}"#,
        ),
        (
            observe(vec![], Some("undeclared variable 'z'")),
            r#"{"op":"observe","p":1,"clock":[0,2,1],"invalid":"undeclared variable 'z'"}"#,
        ),
        (
            observe(vec![1], Some("bad \"quote\"")),
            r#"{"op":"observe","p":1,"clock":[0,2,1],"holds":[1],"invalid":"bad \"quote\""}"#,
        ),
        (SliceUpdateBody::Finish { p: 2 }, r#"{"op":"finish","p":2}"#),
        (SliceUpdateBody::Close, r#"{"op":"close"}"#),
    ] {
        pin(body, text);
    }
}

#[test]
fn client_messages() {
    let s = || "s".to_string();
    let conj = predicate("c", WireMode::Conjunctive, vec![clause(0, "x", "=", 1)]);
    let pat = WirePredicate {
        pattern: Some(pattern()),
        ..predicate("p", WireMode::Pattern, vec![])
    };
    for (msg, text) in [
        (
            ClientMsg::Hello {
                version: WIRE_VERSION,
            },
            r#"{"type":"hello","version":5}"#,
        ),
        (
            ClientMsg::Drain {
                backend: "127.0.0.1:7575".into(),
            },
            r#"{"type":"drain","backend":"127.0.0.1:7575"}"#,
        ),
        (
            open(vec![], None),
            r#"{"type":"open","session":"s","processes":3,"vars":["x","y"],"initial":[{"x":5},{}],"predicates":[]}"#,
        ),
        (
            open(vec![conj.clone(), pat], None),
            r#"{"type":"open","session":"s","processes":3,"vars":["x","y"],"initial":[{"x":5},{}],"predicates":[{"id":"c","mode":"conjunctive","clauses":[{"process":0,"var":"x","op":"=","value":1}]},{"id":"p","mode":"pattern","clauses":[],"pattern":{"atoms":[{"var":"x","op":"=","value":1},{"process":2,"var":"y","op":"=","value":-3,"causal":true}]}}]}"#,
        ),
        (
            open(vec![conj.clone()], Some(WireDistRole::Distribute { k: 2 })),
            r#"{"type":"open","session":"s","processes":3,"vars":["x","y"],"initial":[{"x":5},{}],"predicates":[{"id":"c","mode":"conjunctive","clauses":[{"process":0,"var":"x","op":"=","value":1}]}],"dist":{"role":"distribute","k":2}}"#,
        ),
        (
            open(
                vec![conj],
                Some(WireDistRole::Worker {
                    origin: "o".into(),
                    worker: 0,
                    k: 2,
                }),
            ),
            r#"{"type":"open","session":"s","processes":3,"vars":["x","y"],"initial":[{"x":5},{}],"predicates":[{"id":"c","mode":"conjunctive","clauses":[{"process":0,"var":"x","op":"=","value":1}]}],"dist":{"role":"worker","origin":"o","worker":0,"k":2}}"#,
        ),
        (
            frame(1, vec![0, 1], &[]).into_event("s"),
            r#"{"type":"event","session":"s","p":1,"clock":[0,1]}"#,
        ),
        (
            frame(1, vec![0, 2], &[("x", 3)]).into_event("s"),
            r#"{"type":"event","session":"s","p":1,"clock":[0,2],"set":{"x":3}}"#,
        ),
        (
            ClientMsg::Events {
                session: s(),
                events: vec![frame(0, vec![1, 0], &[("y", 1)]), frame(1, vec![1, 1], &[])],
            },
            r#"{"type":"events","session":"s","events":[{"p":0,"clock":[1,0],"set":{"y":1}},{"p":1,"clock":[1,1]}]}"#,
        ),
        (
            ClientMsg::DistEvent {
                session: "s#w1".into(),
                seq: 17,
                event: frame(1, vec![0, 1], &[("x", 2)]),
            },
            r#"{"type":"dist-event","session":"s#w1","seq":17,"event":{"p":1,"clock":[0,1],"set":{"x":2}}}"#,
        ),
        (
            ClientMsg::SliceUpdate {
                session: s(),
                seq: 18,
                update: observe(vec![0], None),
            },
            r#"{"type":"slice-update","session":"s","seq":18,"update":{"op":"observe","p":1,"clock":[0,2,1],"holds":[0]}}"#,
        ),
        (
            ClientMsg::SliceUpdate {
                session: s(),
                seq: 19,
                update: SliceUpdateBody::Close,
            },
            r#"{"type":"slice-update","session":"s","seq":19,"update":{"op":"close"}}"#,
        ),
        (
            ClientMsg::FinishProcess { session: s(), p: 2 },
            r#"{"type":"finish","session":"s","p":2}"#,
        ),
        (
            ClientMsg::Close { session: s() },
            r#"{"type":"close","session":"s"}"#,
        ),
        (ClientMsg::Stats, r#"{"type":"stats"}"#),
        (ClientMsg::Shutdown, r#"{"type":"shutdown"}"#),
    ] {
        pin(msg, text);
    }
}

#[test]
fn server_messages() {
    let s = || "s".to_string();
    let verdict = |verdict| ServerMsg::Verdict {
        session: s(),
        predicate: "p0".into(),
        verdict,
    };
    let error = |session: Option<&str>, kind: Option<&str>| ServerMsg::Error {
        session: session.map(Into::into),
        kind: kind.map(Into::into),
        message: "no such session 's'".into(),
    };
    for (msg, text) in [
        (
            ServerMsg::Welcome {
                version: WIRE_VERSION,
            },
            r#"{"type":"welcome","version":5}"#,
        ),
        (
            ServerMsg::Drained {
                backend: "127.0.0.1:7575".into(),
                sessions: 0,
            },
            r#"{"type":"drained","backend":"127.0.0.1:7575","sessions":0}"#,
        ),
        (
            ServerMsg::Opened { session: s() },
            r#"{"type":"opened","session":"s"}"#,
        ),
        (
            verdict(WireVerdict::Detected(vec![2, 1, 0])),
            r#"{"type":"verdict","session":"s","predicate":"p0","verdict":{"status":"detected","cut":[2,1,0]}}"#,
        ),
        (
            verdict(WireVerdict::Impossible),
            r#"{"type":"verdict","session":"s","predicate":"p0","verdict":{"status":"impossible"}}"#,
        ),
        (
            verdict(WireVerdict::Pending),
            r#"{"type":"verdict","session":"s","predicate":"p0","verdict":{"status":"pending"}}"#,
        ),
        (
            ServerMsg::Closed {
                session: s(),
                discarded: 0,
            },
            r#"{"type":"closed","session":"s","discarded":0}"#,
        ),
        (
            ServerMsg::SliceUpdate {
                session: s(),
                seq: 3,
                update: observe(vec![2], Some("undeclared variable 'z'")),
            },
            r#"{"type":"slice-update","session":"s","seq":3,"update":{"op":"observe","p":1,"clock":[0,2,1],"holds":[2],"invalid":"undeclared variable 'z'"}}"#,
        ),
        (
            ServerMsg::SliceUpdate {
                session: s(),
                seq: 4,
                update: SliceUpdateBody::Finish { p: 0 },
            },
            r#"{"type":"slice-update","session":"s","seq":4,"update":{"op":"finish","p":0}}"#,
        ),
        (
            ServerMsg::Stats {
                counters: [("events_ingested", 41u64), ("sessions_active", 2)]
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            },
            r#"{"type":"stats","counters":{"events_ingested":41,"sessions_active":2}}"#,
        ),
        (
            ServerMsg::Stats {
                counters: BTreeMap::new(),
            },
            r#"{"type":"stats","counters":{}}"#,
        ),
        (
            error(None, None),
            r#"{"type":"error","message":"no such session 's'"}"#,
        ),
        (
            error(Some("s"), None),
            r#"{"type":"error","session":"s","message":"no such session 's'"}"#,
        ),
        (
            error(None, Some("already_open")),
            r#"{"type":"error","kind":"already_open","message":"no such session 's'"}"#,
        ),
        (
            error(Some("s"), Some("duplicate_event")),
            r#"{"type":"error","session":"s","kind":"duplicate_event","message":"no such session 's'"}"#,
        ),
        (ServerMsg::Bye, r#"{"type":"bye"}"#),
    ] {
        pin(msg, text);
    }
}

#[test]
fn missing_and_null_fields_read_as_their_defaults() {
    for (body, canonical) in [
        (
            r#"{"type":"open","session":"s","processes":2}"#,
            r#"{"type":"open","session":"s","processes":2,"vars":[],"initial":[],"predicates":[]}"#,
        ),
        (
            r#"{"type":"open","session":"s","processes":2,"vars":null,"initial":null,"predicates":null,"dist":null}"#,
            r#"{"type":"open","session":"s","processes":2,"vars":[],"initial":[],"predicates":[]}"#,
        ),
        (
            r#"{"type":"open","session":"s","processes":1,"predicates":[{"id":"p","mode":"conjunctive"}]}"#,
            r#"{"type":"open","session":"s","processes":1,"vars":[],"initial":[],"predicates":[{"id":"p","mode":"conjunctive","clauses":[]}]}"#,
        ),
        (
            r#"{"type":"open","session":"s","processes":1,"predicates":[{"id":"p","mode":"pattern","pattern":{"atoms":[{"process":null,"var":"x","op":"=","value":1,"causal":false}]}}]}"#,
            r#"{"type":"open","session":"s","processes":1,"vars":[],"initial":[],"predicates":[{"id":"p","mode":"pattern","clauses":[],"pattern":{"atoms":[{"var":"x","op":"=","value":1}]}}]}"#,
        ),
        (
            r#"{"type":"event","session":"s","p":0,"clock":[1],"set":{}}"#,
            r#"{"type":"event","session":"s","p":0,"clock":[1]}"#,
        ),
        (
            r#"{"type":"event","session":"s","p":0,"clock":[1],"set":null}"#,
            r#"{"type":"event","session":"s","p":0,"clock":[1]}"#,
        ),
        (
            r#"{"session":"s","type":"events","events":[{"clock":[1],"p":0,"set":{}}]}"#,
            r#"{"type":"events","session":"s","events":[{"p":0,"clock":[1]}]}"#,
        ),
        (
            r#"{"type":"slice-update","session":"s","seq":1,"update":{"op":"observe","p":0,"clock":[1],"holds":[],"invalid":null}}"#,
            r#"{"type":"slice-update","session":"s","seq":1,"update":{"op":"observe","p":0,"clock":[1]}}"#,
        ),
        (
            r#"{ "type" : "close" , "session" : "s" }"#,
            r#"{"type":"close","session":"s"}"#,
        ),
    ] {
        lenient::<ClientMsg>(body, canonical);
    }
    for (body, canonical) in [
        (
            r#"{"type":"drained","backend":"b"}"#,
            r#"{"type":"drained","backend":"b","sessions":0}"#,
        ),
        (
            r#"{"type":"closed","session":"s"}"#,
            r#"{"type":"closed","session":"s","discarded":0}"#,
        ),
        (
            r#"{"type":"closed","session":"s","discarded":null}"#,
            r#"{"type":"closed","session":"s","discarded":0}"#,
        ),
        (
            r#"{"type":"error","session":null,"kind":null,"message":"m"}"#,
            r#"{"type":"error","message":"m"}"#,
        ),
        (
            r#"{"message":"m","type":"error","kind":"k"}"#,
            r#"{"type":"error","kind":"k","message":"m"}"#,
        ),
    ] {
        lenient::<ServerMsg>(body, canonical);
    }
}

#[test]
fn malformed_client_bodies_are_refused_by_name() {
    for (body, message) in [
        (r#"{"#, r#"trace JSON error: expected '"' at byte 1"#),
        (
            r#"{"type":"warp"}"#,
            r#"trace JSON error: unknown client message 'warp'"#,
        ),
        (r#"{}"#, r#"trace JSON error: missing field 'type'"#),
        (
            r#"{"type":5}"#,
            r#"trace JSON error: field 'type': expected string, found integer"#,
        ),
        (
            r#"[1,2]"#,
            r#"trace JSON error: expected object, found array"#,
        ),
        (
            r#""open""#,
            r#"trace JSON error: expected object, found string"#,
        ),
        (
            r#"null"#,
            r#"trace JSON error: expected object, found null"#,
        ),
        (
            r#"{"type":"hello"}"#,
            r#"trace JSON error: missing field 'version'"#,
        ),
        (
            r#"{"type":"hello","version":-1}"#,
            r#"trace JSON error: field 'version': integer -1 out of range"#,
        ),
        (
            r#"{"type":"drain","backend":7}"#,
            r#"trace JSON error: field 'backend': expected string, found integer"#,
        ),
        (
            r#"{"type":"open","processes":1}"#,
            r#"trace JSON error: missing field 'session'"#,
        ),
        (
            r#"{"type":"open","session":"s","processes":"x"}"#,
            r#"trace JSON error: field 'processes': expected integer, found string"#,
        ),
        (
            r#"{"type":"open","session":"s","processes":1,"vars":"x"}"#,
            r#"trace JSON error: field 'vars': expected array, found string"#,
        ),
        (
            r#"{"type":"open","session":"s","processes":1,"initial":[{"x":"1"}]}"#,
            r#"trace JSON error: field 'initial': expected integer, found string"#,
        ),
        (
            r#"{"type":"open","session":"s","processes":1,"predicates":[{"id":"p","mode":"regex"}]}"#,
            r#"trace JSON error: field 'predicates': field 'mode': unknown predicate mode 'regex' (expected conjunctive, disjunctive, or pattern)"#,
        ),
        (
            r#"{"type":"open","session":"s","processes":1,"predicates":[{"id":"p","mode":3}]}"#,
            r#"trace JSON error: field 'predicates': field 'mode': expected string, found integer"#,
        ),
        (
            r#"{"type":"open","session":"s","processes":1,"predicates":[{"mode":"conjunctive"}]}"#,
            r#"trace JSON error: field 'predicates': missing field 'id'"#,
        ),
        (
            r#"{"type":"open","session":"s","processes":1,"predicates":[{"id":"p","mode":"pattern"}]}"#,
            r#"trace JSON error: field 'predicates': pattern predicate without a pattern body"#,
        ),
        (
            r#"{"type":"open","session":"s","processes":1,"predicates":[{"id":"p","mode":"pattern","pattern":{"atoms":[]}}]}"#,
            r#"trace JSON error: field 'predicates': field 'pattern': empty pattern"#,
        ),
        (
            r#"{"type":"open","session":"s","processes":1,"predicates":[{"id":"p","mode":"pattern","pattern":{"atoms":[{"op":"=","value":1}]}}]}"#,
            r#"trace JSON error: field 'predicates': field 'pattern': field 'atoms': missing field 'var'"#,
        ),
        (
            r#"{"type":"open","session":"s","processes":1,"predicates":[{"id":"p","mode":"conjunctive","clauses":[{"process":0,"var":"x","op":"="}]}]}"#,
            r#"trace JSON error: field 'predicates': field 'clauses': missing field 'value'"#,
        ),
        (
            r#"{"type":"open","session":"s","processes":1,"predicates":[5]}"#,
            r#"trace JSON error: field 'predicates': expected object, found integer"#,
        ),
        (
            r#"{"type":"open","session":"s","processes":1,"dist":{"role":"observer"}}"#,
            r#"trace JSON error: field 'dist': unknown distribution role 'observer' (expected distribute, worker, or aggregator)"#,
        ),
        (
            r#"{"type":"open","session":"s","processes":1,"dist":3}"#,
            r#"trace JSON error: field 'dist': expected object, found integer"#,
        ),
        (
            r#"{"type":"open","session":"s","processes":1,"dist":{"role":"worker","worker":0,"k":2}}"#,
            r#"trace JSON error: field 'dist': missing field 'origin'"#,
        ),
        (
            r#"{"type":"event","session":"s","p":0}"#,
            r#"trace JSON error: missing field 'clock'"#,
        ),
        (
            r#"{"type":"event","session":"s","p":0,"clock":[1,"a"]}"#,
            r#"trace JSON error: field 'clock': expected integer, found string"#,
        ),
        (
            r#"{"type":"event","session":"s","p":0,"clock":[1],"set":[1]}"#,
            r#"trace JSON error: field 'set': expected object, found array"#,
        ),
        (
            r#"{"type":"events","session":"s","events":[]}"#,
            r#"trace JSON error: empty event batch"#,
        ),
        (
            r#"{"type":"events","events":[]}"#,
            r#"trace JSON error: missing field 'session'"#,
        ),
        (
            r#"{"type":"events","session":"s","events":[{"p":0}]}"#,
            r#"trace JSON error: field 'events': missing field 'clock'"#,
        ),
        (
            r#"{"type":"events","session":"s","events":[5]}"#,
            r#"trace JSON error: field 'events': expected object, found integer"#,
        ),
        (
            r#"{"type":"dist-event","session":"s","event":{"p":0,"clock":[1]}}"#,
            r#"trace JSON error: missing field 'seq'"#,
        ),
        (
            r#"{"type":"dist-event","session":"s","seq":1,"event":[]}"#,
            r#"trace JSON error: field 'event': expected object, found array"#,
        ),
        (
            r#"{"type":"slice-update","session":"s","seq":1,"update":{"op":"merge"}}"#,
            r#"trace JSON error: field 'update': unknown slice-update op 'merge'"#,
        ),
        (
            r#"{"type":"slice-update","session":"s","seq":1,"update":{"p":0}}"#,
            r#"trace JSON error: field 'update': missing field 'op'"#,
        ),
        (
            r#"{"type":"slice-update","session":"s","seq":1,"update":{"op":"observe","p":0,"clock":[1],"holds":"0"}}"#,
            r#"trace JSON error: field 'update': field 'holds': expected array, found string"#,
        ),
        (
            r#"{"type":"slice-update","session":"s","seq":1,"update":{"op":"finish"}}"#,
            r#"trace JSON error: field 'update': missing field 'p'"#,
        ),
        (
            r#"{"type":"finish","session":"s"}"#,
            r#"trace JSON error: missing field 'p'"#,
        ),
        (
            r#"{"type":"close"}"#,
            r#"trace JSON error: missing field 'session'"#,
        ),
    ] {
        reject::<ClientMsg>(body, message);
    }
}

#[test]
fn malformed_server_bodies_are_refused_by_name() {
    for (body, message) in [
        (
            r#"{"type":"warp"}"#,
            r#"trace JSON error: unknown server message 'warp'"#,
        ),
        (
            r#"[1]"#,
            r#"trace JSON error: expected object, found array"#,
        ),
        (
            r#"{"type":"welcome"}"#,
            r#"trace JSON error: missing field 'version'"#,
        ),
        (
            r#"{"type":"drained","sessions":1}"#,
            r#"trace JSON error: missing field 'backend'"#,
        ),
        (
            r#"{"type":"opened"}"#,
            r#"trace JSON error: missing field 'session'"#,
        ),
        (
            r#"{"type":"verdict","session":"s","predicate":"p"}"#,
            r#"trace JSON error: missing field 'verdict'"#,
        ),
        (
            r#"{"type":"verdict","session":"s","predicate":"p","verdict":{"status":"maybe"}}"#,
            r#"trace JSON error: field 'verdict': unknown verdict status 'maybe'"#,
        ),
        (
            r#"{"type":"verdict","session":"s","predicate":"p","verdict":{"status":"detected"}}"#,
            r#"trace JSON error: field 'verdict': missing field 'cut'"#,
        ),
        (
            r#"{"type":"verdict","session":"s","predicate":"p","verdict":"detected"}"#,
            r#"trace JSON error: field 'verdict': missing field 'status'"#,
        ),
        (
            r#"{"type":"closed","session":"s","discarded":"0"}"#,
            r#"trace JSON error: field 'discarded': expected integer, found string"#,
        ),
        (
            r#"{"type":"slice-update","session":"s","seq":1,"update":{"op":"split"}}"#,
            r#"trace JSON error: field 'update': unknown slice-update op 'split'"#,
        ),
        (
            r#"{"type":"stats","counters":[]}"#,
            r#"trace JSON error: field 'counters': expected object, found array"#,
        ),
        (
            r#"{"type":"error","session":"s"}"#,
            r#"trace JSON error: missing field 'message'"#,
        ),
        (
            r#"{"type":"error","kind":1,"message":"m"}"#,
            r#"trace JSON error: field 'kind': expected string, found integer"#,
        ),
    ] {
        reject::<ServerMsg>(body, message);
    }
}

#[test]
fn malformed_records_are_refused_by_name() {
    reject::<WirePredicate>(
        r#"{"id":"p","mode":"regex","clauses":[]}"#,
        r#"trace JSON error: field 'mode': unknown predicate mode 'regex' (expected conjunctive, disjunctive, or pattern)"#,
    );
    reject::<WirePredicate>(
        r#"{"id":"p","mode":"pattern","clauses":[]}"#,
        r#"trace JSON error: pattern predicate without a pattern body"#,
    );
    reject::<WirePattern>(r#"{"atoms":[]}"#, r#"trace JSON error: empty pattern"#);
    reject::<WirePattern>(r#"[]"#, r#"trace JSON error: expected object, found array"#);
    reject::<WireClause>(
        r#"{"process":-1,"var":"x","op":"=","value":1}"#,
        r#"trace JSON error: field 'process': integer -1 out of range"#,
    );
    reject::<WireAtom>(
        r#"{"var":"x","op":"=","value":1,"causal":1}"#,
        r#"trace JSON error: field 'causal': expected bool, found integer"#,
    );
    reject::<EventFrame>(
        r#"{"p":0,"clock":{}}"#,
        r#"trace JSON error: field 'clock': expected array, found object"#,
    );
    reject::<WireDistRole>(r#"{"k":2}"#, r#"trace JSON error: missing field 'role'"#);
    reject::<WireDistRole>(
        r#"{"role":"worker","origin":"s","k":2}"#,
        r#"trace JSON error: missing field 'worker'"#,
    );
    reject::<SliceUpdateBody>(
        r#"{"op":"observe","p":0}"#,
        r#"trace JSON error: missing field 'clock'"#,
    );
    reject::<WireVerdict>(r#"{}"#, r#"trace JSON error: missing field 'status'"#);
}
