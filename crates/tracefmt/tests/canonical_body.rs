//! The canonical-body flag of `decode_client_body` against its word.
//!
//! A monitor with a data directory logs a client's body as it came when
//! the decoder calls it canonical, so the flag must never be wrong the
//! one way that matters: whenever a body is kept, encoding the decoded
//! message gives that body back, byte for byte. And it should be right
//! the other way as often as it can: every body the encoder writes
//! whose strings need no escape is kept.
//!
//! * (i) `encode_body` of every per-event message without escapes is
//!   kept, and decodes to the message;
//! * (ii) for any bytes at all — truncated, bit-flipped, overwritten,
//!   spliced, or legal-but-non-canonical by hand — a kept body is
//!   `encode_body` of what it decodes to, and what it decodes to is
//!   what `decode_body` answers.

use hb_tracefmt::wire::{
    decode_body, decode_client_body, encode_body, ClientMsg, EventFrame, SliceUpdateBody,
};
use proptest::prelude::*;

// ---- the property ---------------------------------------------------------

/// What every body must satisfy; returns whether it was kept.
fn check(body: &[u8]) -> bool {
    let decoded = decode_client_body(body);
    let plain = decode_body::<ClientMsg>(body);
    assert_eq!(
        decoded
            .as_ref()
            .map(|(msg, _)| msg)
            .map_err(|e| e.to_string()),
        plain.as_ref().map_err(|e| e.to_string()),
        "decode_client_body and decode_body disagree on {:?}",
        String::from_utf8_lossy(body)
    );
    match decoded {
        Ok((msg, true)) => {
            let encoded = encode_body(&msg);
            assert!(
                encoded.as_bytes() == body,
                "kept {:?}, but {msg:?} encodes as {encoded:?}",
                String::from_utf8_lossy(body)
            );
            true
        }
        _ => false,
    }
}

// ---- generators -----------------------------------------------------------

/// Characters a name is drawn from: plain, needing an escape, and
/// outside ASCII (which the encoder writes as it is).
const PALETTE: [char; 16] = [
    'a', 'b', 'Z', '0', '_', '#', ' ', ':', '{', '"', '\\', '\n', '\u{1}', '\u{7f}', 'é', '日',
];

fn needs_escape(s: &str) -> bool {
    s.chars()
        .any(|c| c == '"' || c == '\\' || (c as u32) < 0x20)
}

fn name() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z][a-z0-9#_-]{0,6}",
        "[a-c]{1,2}",
        prop::collection::vec(0usize..PALETTE.len(), 0..6)
            .prop_map(|ix| ix.into_iter().map(|i| PALETTE[i]).collect::<String>()),
    ]
}

fn value() -> impl Strategy<Value = i64> {
    prop_oneof![-12i64..12, any::<i64>(), Just(i64::MIN), Just(0i64)]
}

fn index() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..9, 0u64..=i64::MAX as u64]
}

fn clock() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(prop_oneof![0u32..12, any::<u32>()], 0..6)
}

fn frame() -> impl Strategy<Value = EventFrame> {
    (
        index(),
        clock(),
        prop::collection::vec((name(), value()), 0..4),
    )
        .prop_map(|(p, clock, set)| EventFrame {
            p: p as usize,
            clock,
            set: set.into_iter().collect(),
        })
}

fn update() -> impl Strategy<Value = SliceUpdateBody> {
    prop_oneof![
        (
            index(),
            clock(),
            prop::collection::vec(index(), 0..4),
            prop::option::of(name())
        )
            .prop_map(|(p, clock, holds, invalid)| SliceUpdateBody::Observe {
                p: p as usize,
                clock,
                holds: holds.into_iter().map(|h| h as usize).collect(),
                invalid,
            }),
        index().prop_map(|p| SliceUpdateBody::Finish { p: p as usize }),
        Just(SliceUpdateBody::Close),
    ]
}

/// A message of one of the four per-event kinds.
fn hot_msg() -> impl Strategy<Value = ClientMsg> {
    prop_oneof![
        (name(), frame()).prop_map(|(s, e)| e.into_event(&s)),
        (name(), prop::collection::vec(frame(), 1..5))
            .prop_map(|(session, events)| ClientMsg::Events { session, events }),
        (name(), index(), frame()).prop_map(|(session, seq, event)| ClientMsg::DistEvent {
            session,
            seq,
            event
        }),
        (name(), index(), update()).prop_map(|(session, seq, update)| ClientMsg::SliceUpdate {
            session,
            seq,
            update
        }),
    ]
}

/// Every string of `msg` that ends up in its encoding.
fn strings(msg: &ClientMsg) -> Vec<&str> {
    fn of_frame(e: &EventFrame) -> impl Iterator<Item = &str> {
        e.set.keys().map(String::as_str)
    }
    match msg {
        ClientMsg::Event { session, set, .. } => std::iter::once(session.as_str())
            .chain(set.keys().map(String::as_str))
            .collect(),
        ClientMsg::Events { session, events } => std::iter::once(session.as_str())
            .chain(events.iter().flat_map(of_frame))
            .collect(),
        ClientMsg::DistEvent { session, event, .. } => std::iter::once(session.as_str())
            .chain(of_frame(event))
            .collect(),
        ClientMsg::SliceUpdate {
            session, update, ..
        } => {
            let invalid = match update {
                SliceUpdateBody::Observe { invalid, .. } => invalid.as_deref(),
                _ => None,
            };
            std::iter::once(session.as_str()).chain(invalid).collect()
        }
        other => panic!("not a per-event frame: {other:?}"),
    }
}

/// Inserts one JSON whitespace byte after the `at`-th structural
/// character, where the grammar allows it.
fn with_space(body: &[u8], at: usize, space: u8) -> Vec<u8> {
    let mut in_string = false;
    let mut spots = Vec::new();
    for (i, &b) in body.iter().enumerate() {
        match b {
            b'"' => in_string = !in_string,
            b'{' | b'}' | b'[' | b']' | b':' | b',' if !in_string => spots.push(i + 1),
            _ => {}
        }
    }
    let mut out = body.to_vec();
    if let Some(&spot) = spots.get(at % spots.len().max(1)) {
        out.insert(spot, space);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// (i) What the encoder writes is kept, unless a string needed an
    /// escape (those bodies are the `Value` route's).
    #[test]
    fn encoder_output_is_kept(msg in hot_msg()) {
        let body = encode_body(&msg);
        let kept = check(body.as_bytes());
        if !strings(&msg).into_iter().any(needs_escape) {
            prop_assert!(kept, "not kept: {}", body);
            prop_assert_eq!(
                decode_client_body(body.as_bytes()).map_err(|e| e.to_string()),
                Ok((msg, true))
            );
        }
    }

    /// (ii) Truncated anywhere.
    #[test]
    fn truncated_bodies(msg in hot_msg(), cut in 0usize..4096) {
        let body = encode_body(&msg).into_bytes();
        check(&body[..cut % (body.len() + 1)]);
    }

    /// (ii) One bit flipped anywhere.
    #[test]
    fn bit_flipped_bodies(msg in hot_msg(), at in 0usize..4096, bit in 0u8..8) {
        let mut body = encode_body(&msg).into_bytes();
        let at = at % body.len();
        body[at] ^= 1 << bit;
        check(&body);
    }

    /// (ii) One byte replaced by what turns one legal document into
    /// another: structure, digits, a sign, a quote, whitespace.
    #[test]
    fn overwritten_bodies(msg in hot_msg(), at in 0usize..4096, with in 0usize..17) {
        let mut body = encode_body(&msg).into_bytes();
        let at = at % body.len();
        body[at] = b"{}[]:,\"\\ 0-19a\t\n\r"[with];
        check(&body);
    }

    /// (ii) The head of one document spliced onto the tail of another.
    #[test]
    fn spliced_bodies(
        a in hot_msg(),
        b in hot_msg(),
        cut_a in 0usize..4096,
        cut_b in 0usize..4096,
    ) {
        let (a, b) = (encode_body(&a).into_bytes(), encode_body(&b).into_bytes());
        let mut body = a[..cut_a % (a.len() + 1)].to_vec();
        body.extend_from_slice(&b[cut_b % (b.len() + 1)..]);
        check(&body);
    }

    /// (ii) Legal whitespace anywhere: the same message, never kept.
    #[test]
    fn whitespace_is_never_kept(msg in hot_msg(), at in 0usize..64, space in 0usize..4) {
        let body = with_space(encode_body(&msg).as_bytes(), at, b" \t\n\r"[space]);
        prop_assert!(!check(&body), "kept {}", String::from_utf8_lossy(&body));
    }
}

// ---- (ii) legal but not canonical, by hand --------------------------------

/// Bodies that decode, each to a message whose encoding is different
/// bytes: none may be kept.
#[test]
fn legal_variants_are_decoded_but_not_kept() {
    #[rustfmt::skip] // one body per line
    let cases = [
        // Whitespace.
        r#" {"type":"event","session":"s","p":1,"clock":[1,2]}"#,
        r#"{"type":"event","session":"s","p":1,"clock":[1,2]} "#,
        r#"{"type": "event","session":"s","p":1,"clock":[1,2]}"#,
        "{\"type\":\"event\",\"session\":\"s\",\"p\":1,\"clock\":[1,\n2]}",
        // Keys out of the encoder's order, at the top and inside.
        r#"{"session":"s","type":"event","p":1,"clock":[1,2]}"#,
        r#"{"type":"event","session":"s","clock":[1,2],"p":1}"#,
        r#"{"type":"event","session":"s","p":1,"set":{"x":1},"clock":[1,2]}"#,
        r#"{"type":"events","events":[{"p":1,"clock":[1,2]}],"session":"s"}"#,
        r#"{"type":"events","session":"s","events":[{"clock":[1,2],"p":1}]}"#,
        r#"{"type":"dist-event","session":"s","event":{"p":1,"clock":[1,2]},"seq":3}"#,
        r#"{"type":"slice-update","session":"s","seq":3,"update":{"p":1,"op":"finish"}}"#,
        r#"{"type":"slice-update","session":"s","seq":3,"update":{"op":"observe","p":1,"clock":[1],"invalid":"z","holds":[0]}}"#,
        // `set` keys not strictly ascending: unsorted, or twice.
        r#"{"type":"event","session":"s","p":1,"clock":[1,2],"set":{"y":1,"x":2}}"#,
        r#"{"type":"event","session":"s","p":1,"clock":[1,2],"set":{"x":1,"x":2}}"#,
        r#"{"type":"event","session":"s","p":1,"clock":[1,2],"set":{"b":1,"ab":2}}"#,
        // An empty `set` or `holds`, which the encoder leaves out.
        r#"{"type":"event","session":"s","p":1,"clock":[1,2],"set":{}}"#,
        r#"{"type":"events","session":"s","events":[{"p":1,"clock":[1,2],"set":{}}]}"#,
        r#"{"type":"slice-update","session":"s","seq":3,"update":{"op":"observe","p":1,"clock":[1],"holds":[]}}"#,
        // `-0`, wherever an integer goes.
        r#"{"type":"event","session":"s","p":-0,"clock":[1,2]}"#,
        r#"{"type":"event","session":"s","p":1,"clock":[-0,2]}"#,
        r#"{"type":"event","session":"s","p":1,"clock":[1,2],"set":{"x":-0}}"#,
        r#"{"type":"dist-event","session":"s","seq":-0,"event":{"p":1,"clock":[1,2]}}"#,
        // Duplicate keys, escapes, `null`s: the `Value` route's.
        r#"{"type":"event","session":"s","session":"t","p":1,"clock":[1,2]}"#,
        r#"{"type":"event","session":"\u0073","p":1,"clock":[1,2]}"#,
        r#"{"type":"event","session":"s","p":1,"clock":[1,2],"set":null}"#,
        r#"{"type":"event","session":"s","p":1,"clock":[1,2],"extra":true}"#,
    ];
    for body in cases {
        let decoded = decode_client_body(body.as_bytes());
        assert!(matches!(decoded, Ok((_, false))), "{body}: {decoded:?}");
        assert!(!check(body.as_bytes()), "{body}");
    }
}

/// The encoder's own bytes for each kind and each optional field.
#[test]
fn canonical_bodies_by_hand_are_kept() {
    let cases = [
        r#"{"type":"event","session":"s","p":1,"clock":[1,2]}"#,
        r#"{"type":"event","session":"s","p":1,"clock":[],"set":{"ab":2,"b":-1,"日":0}}"#,
        r#"{"type":"events","session":"s","events":[{"p":1,"clock":[1,2]},{"p":0,"clock":[2,2],"set":{"x":9}}]}"#,
        r#"{"type":"dist-event","session":"s#w0","seq":3,"event":{"p":1,"clock":[1,2],"set":{"x":1}}}"#,
        r#"{"type":"slice-update","session":"s","seq":3,"update":{"op":"observe","p":1,"clock":[1],"holds":[0,2],"invalid":"z"}}"#,
        r#"{"type":"slice-update","session":"s","seq":4,"update":{"op":"observe","p":1,"clock":[1]}}"#,
        r#"{"type":"slice-update","session":"s","seq":5,"update":{"op":"finish","p":1}}"#,
        r#"{"type":"slice-update","session":"s","seq":6,"update":{"op":"close"}}"#,
    ];
    for body in cases {
        assert!(check(body.as_bytes()), "not kept: {body}");
    }
}

/// Frames without a one-pass decoder are encoded again, never kept.
#[test]
fn cold_frames_are_not_kept() {
    for msg in [
        ClientMsg::Close {
            session: "s".into(),
        },
        ClientMsg::FinishProcess {
            session: "s".into(),
            p: 3,
        },
        ClientMsg::Stats,
    ] {
        let body = encode_body(&msg);
        assert_eq!(
            decode_client_body(body.as_bytes()).map_err(|e| e.to_string()),
            Ok((msg, false))
        );
    }
}
