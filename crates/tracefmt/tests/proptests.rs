//! Property tests: both interchange formats round-trip arbitrary
//! computations exactly (structure, states, labels, causality), and the
//! parsers never panic on malformed input.

use hb_computation::Computation;
use hb_sim::{random_computation, RandomSpec};
use hb_tracefmt::wire::{read_frame, write_frame, ClientMsg, ServerMsg};
use hb_tracefmt::{from_json, from_text, to_json, to_text};
use proptest::prelude::*;
use std::io::Cursor;

fn assert_equivalent(a: &Computation, b: &Computation) {
    assert_eq!(a.num_processes(), b.num_processes());
    assert_eq!(a.num_events(), b.num_events());
    for i in 0..a.num_processes() {
        assert_eq!(a.num_events_of(i), b.num_events_of(i), "P{i}");
        for s in 0..=a.num_events_of(i) as u32 {
            assert_eq!(a.local_state(i, s), b.local_state(i, s), "P{i} state {s}");
        }
    }
    // Message pairings as a set (ids may be renumbered).
    let mut ma = a.messages().to_vec();
    let mut mb = b.messages().to_vec();
    ma.sort_by_key(|m| m.send);
    mb.sort_by_key(|m| m.send);
    assert_eq!(ma, mb);
    // Clocks (hence the whole happened-before relation).
    for e in a.event_ids() {
        assert_eq!(a.clock(e), b.clock(e), "clock of {e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn json_round_trip_random_computations(
        procs in 1usize..5,
        events in 1usize..12,
        send in 0u8..80,
        seed in 0u64..1000,
    ) {
        let comp = random_computation(RandomSpec {
            processes: procs,
            events_per_process: events,
            send_percent: send,
            value_range: 4,
            seed,
        });
        let back = from_json(&to_json(&comp)).expect("round trip");
        back.validate().expect("reimported trace passes the audit");
        assert_equivalent(&comp, &back);
    }

    #[test]
    fn text_round_trip_random_computations(
        procs in 1usize..4,
        events in 1usize..10,
        send in 0u8..80,
        seed in 0u64..1000,
    ) {
        let comp = random_computation(RandomSpec {
            processes: procs,
            events_per_process: events,
            send_percent: send,
            value_range: 4,
            seed,
        });
        let back = from_text(&to_text(&comp)).expect("round trip");
        back.validate().expect("reimported trace passes the audit");
        assert_equivalent(&comp, &back);
    }

    #[test]
    fn json_parser_never_panics(garbage in "\\PC*") {
        let _ = from_json(&garbage);
    }

    #[test]
    fn text_parser_never_panics(garbage in "\\PC*") {
        let _ = from_text(&garbage);
    }

    // Wire-frame round trips for the version-2 additions: the
    // handshake pair and the gateway admin pair. Arbitrary versions,
    // backend addresses, and counts must survive encode → decode
    // byte-exactly in meaning.

    #[test]
    fn hello_welcome_round_trip(version in 0u32..u32::MAX) {
        let hello = ClientMsg::Hello { version };
        let mut buf = Vec::new();
        write_frame(&mut buf, &hello).expect("encode hello");
        let back = read_frame::<_, ClientMsg>(&mut Cursor::new(&buf))
            .expect("decode hello")
            .expect("one frame");
        prop_assert_eq!(back, hello);

        let welcome = ServerMsg::Welcome { version };
        let mut buf = Vec::new();
        write_frame(&mut buf, &welcome).expect("encode welcome");
        let back = read_frame::<_, ServerMsg>(&mut Cursor::new(&buf))
            .expect("decode welcome")
            .expect("one frame");
        prop_assert_eq!(back, welcome);
    }

    #[test]
    fn drain_drained_round_trip(
        backend in "[\\x20-\\x7e]{0,40}",
        sessions in 0u64..=i64::MAX as u64,
    ) {
        let drain = ClientMsg::Drain { backend: backend.clone() };
        let mut buf = Vec::new();
        write_frame(&mut buf, &drain).expect("encode drain");
        let back = read_frame::<_, ClientMsg>(&mut Cursor::new(&buf))
            .expect("decode drain")
            .expect("one frame");
        prop_assert_eq!(back, drain);

        let drained = ServerMsg::Drained { backend, sessions };
        let mut buf = Vec::new();
        write_frame(&mut buf, &drained).expect("encode drained");
        let back = read_frame::<_, ServerMsg>(&mut Cursor::new(&buf))
            .expect("decode drained")
            .expect("one frame");
        prop_assert_eq!(back, drained);
    }

    #[test]
    fn handshake_frames_interleave_with_v1_traffic(
        version in 0u32..u32::MAX,
        backend in "[a-z0-9.:]{1,24}",
        sessions in 0u64..1000,
    ) {
        // A v2 conversation mixes handshake, admin, and v1 frames on
        // one stream; framing must keep them independent.
        let msgs = vec![
            ServerMsg::Welcome { version },
            ServerMsg::Drained { backend, sessions },
            ServerMsg::Bye,
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).expect("encode");
        }
        let mut r = Cursor::new(&buf);
        for m in &msgs {
            let back = read_frame::<_, ServerMsg>(&mut r).expect("decode").expect("frame");
            prop_assert_eq!(&back, m);
        }
        prop_assert_eq!(read_frame::<_, ServerMsg>(&mut r).expect("eof"), None);
    }

    #[test]
    fn text_parser_never_panics_on_directive_shaped_input(
        lines in prop::collection::vec(
            prop_oneof![
                Just("processes 2".to_string()),
                Just("vars x".to_string()),
                "(event|init) p[0-9] (internal|send m[0-9]|recv m[0-9])( x=[0-9])?",
                "[a-z ]{0,20}",
            ],
            0..10,
        )
    ) {
        let _ = from_text(&lines.join("\n"));
    }
}

/// A trace document's text is pinned byte for byte, reads back to
/// itself, defaults its optional fields, and refuses malformed input
/// by name.
#[test]
fn trace_file_json_is_pinned() {
    use hb_tracefmt::{TraceEvent, TraceEventKind, TraceFile};
    use serde::{Deserialize, Serialize};

    let file = TraceFile {
        processes: 2,
        vars: vec!["x".into(), "y".into()],
        initial: vec![[("x".to_string(), 5i64)].into_iter().collect()],
        events: vec![
            TraceEvent {
                p: 0,
                kind: TraceEventKind::Send { msg: 0 },
                set: [("y".to_string(), 2i64)].into_iter().collect(),
                label: Some("e1".into()),
            },
            TraceEvent {
                p: 1,
                kind: TraceEventKind::Recv { msg: 0 },
                set: Default::default(),
                label: None,
            },
            TraceEvent {
                p: 1,
                kind: TraceEventKind::Internal,
                set: Default::default(),
                label: None,
            },
        ],
    };
    let text = serde_json::to_string(&file.to_value()).unwrap();
    assert_eq!(
        text,
        r#"{"processes":2,"vars":["x","y"],"initial":[{"x":5}],"events":[{"p":0,"kind":"send","msg":0,"set":{"y":2},"label":"e1"},{"p":1,"kind":"recv","msg":0},{"p":1,"kind":"internal"}]}"#
    );
    let back = TraceFile::from_value(&serde_json::parse_value(&text).unwrap()).unwrap();
    assert_eq!(back, file);

    let bare = r#"{"processes":1,"events":[],"vars":null}"#;
    let bare = TraceFile::from_value(&serde_json::parse_value(bare).unwrap()).unwrap();
    assert_eq!(
        serde_json::to_string(&bare.to_value()).unwrap(),
        r#"{"processes":1,"vars":[],"initial":[],"events":[]}"#
    );

    for (text, message) in [
        (r#"[]"#, "expected object, found array"),
        (r#"{"events":[]}"#, "missing field 'processes'"),
        (r#"{"processes":1}"#, "missing field 'events'"),
        (
            r#"{"processes":1,"events":[],"vars":[1]}"#,
            "field 'vars': expected string, found integer",
        ),
        (
            r#"{"processes":1,"events":[{"p":0,"kind":"fork"}]}"#,
            "field 'events': unknown event kind 'fork' (expected internal, send, or recv)",
        ),
        (
            r#"{"processes":1,"events":[{"p":0,"kind":"send"}]}"#,
            "field 'events': missing field 'msg'",
        ),
    ] {
        let err = TraceFile::from_value(&serde_json::parse_value(text).unwrap()).unwrap_err();
        assert_eq!(err.to_string(), message, "{text}");
    }
}
