//! The one-pass codec of the per-event frames against the `Value`
//! route, which defines the protocol and is the oracle here.
//!
//! * Encoding: `encode_body` writes byte for byte what
//!   `to_string(&msg.to_value())` writes, for every message of the four
//!   kinds, and the one-pass decoder takes those bytes back whenever no
//!   string in them needed an escape.
//! * Decoding: for any bytes at all — well-formed, truncated,
//!   bit-flipped, spliced, or odd-but-legal by hand — `decode_body`
//!   returns the same value or the same error *string* as parsing into a
//!   `Value` and calling `from_value`.
//! * Framing: `read_frame` agrees with the previous build's reader
//!   (kept below as the reference) on every stream, however the bytes
//!   are split across reads and however often a read is interrupted.

use hb_tracefmt::wire::{
    decode_body, encode_body, read_frame, write_frame, ClientMsg, EventFrame, ServerMsg,
    SliceUpdateBody, MAX_FRAME_BYTES,
};
use hb_tracefmt::TraceError;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Cursor, Read};

// ---- the oracle -----------------------------------------------------------

/// A body through the `Value` tree and nothing else, as `read_frame`
/// did it before the one-pass decoder existed.
fn value_route(body: &[u8]) -> Result<ClientMsg, TraceError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| TraceError::Invalid("frame body is not UTF-8".into()))?;
    let value = serde_json::parse_value(text)?;
    Ok(ClientMsg::from_value(&value).map_err(serde_json::Error::from)?)
}

/// The previous build's `read_frame`, one `read` per header byte and
/// the `Value` route for the body.
fn reference_read_frame<R: BufRead>(r: &mut R) -> Result<Option<ClientMsg>, TraceError> {
    let mut prefix = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                return if prefix.is_empty() {
                    Ok(None)
                } else {
                    Err(TraceError::Invalid("truncated frame header".into()))
                };
            }
            Ok(_) => {}
            Err(e) => return Err(TraceError::Invalid(format!("read error: {e}"))),
        }
        match byte[0] {
            b' ' => break,
            b'0'..=b'9' if prefix.len() < 12 => prefix.push(byte[0]),
            other => {
                return Err(TraceError::Invalid(format!(
                    "bad frame header byte 0x{other:02x}"
                )))
            }
        }
    }
    let len: usize = std::str::from_utf8(&prefix)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| TraceError::Invalid("bad frame length".into()))?;
    if len > MAX_FRAME_BYTES {
        return Err(TraceError::Invalid(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }
    let mut body = Vec::new();
    let got = r
        .by_ref()
        .take(len as u64)
        .read_to_end(&mut body)
        .map_err(|e| TraceError::Invalid(format!("truncated frame body: {e}")))?;
    if got < len {
        return Err(TraceError::Invalid(format!(
            "truncated frame body: got {got} of {len} bytes"
        )));
    }
    let mut nl = [0u8; 1];
    r.read_exact(&mut nl)
        .map_err(|e| TraceError::Invalid(format!("truncated frame terminator: {e}")))?;
    if nl[0] != b'\n' {
        return Err(TraceError::Invalid("frame not newline-terminated".into()));
    }
    value_route(&body).map(Some)
}

/// Equal values, or equal error strings.
fn outcome<T: std::fmt::Debug>(r: Result<T, TraceError>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

fn assert_body_agrees(body: &[u8]) {
    assert_eq!(
        outcome(decode_body::<ClientMsg>(body)),
        outcome(value_route(body)),
        "body {:?}",
        String::from_utf8_lossy(body)
    );
    // Whatever the one-pass decoder takes, it decodes as the oracle does.
    if let Some(msg) = ClientMsg::from_json_bytes(body) {
        assert_eq!(Ok(msg), outcome(value_route(body)));
    }
}

/// Every frame of `stream` up to and including the first error.
fn drain<R: BufRead>(
    r: &mut R,
    read: impl Fn(&mut R) -> Result<Option<ClientMsg>, TraceError>,
) -> Vec<Result<ClientMsg, String>> {
    let mut out = Vec::new();
    loop {
        match read(r) {
            Ok(Some(msg)) => out.push(Ok(msg)),
            Ok(None) => return out,
            Err(e) => {
                out.push(Err(e.to_string()));
                return out;
            }
        }
    }
}

fn assert_stream_agrees(stream: &[u8]) {
    let new = drain(&mut Cursor::new(stream), read_frame);
    let old = drain(&mut Cursor::new(stream), reference_read_frame);
    assert_eq!(new, old, "stream {:?}", String::from_utf8_lossy(stream));
}

// ---- generators -----------------------------------------------------------

/// Characters a name is drawn from: plain, needing an escape, and
/// outside ASCII (which the printer passes through).
const PALETTE: [char; 20] = [
    'a', 'Z', '0', '_', '#', ' ', '/', ':', '{', ',', '"', '\\', '\n', '\t', '\u{1}', '\u{7f}',
    'é', '日', '😀', '\u{2028}',
];

fn needs_escape(s: &str) -> bool {
    s.chars()
        .any(|c| c == '"' || c == '\\' || (c as u32) < 0x20)
}

fn name() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z][a-z0-9#_-]{0,10}",
        prop::collection::vec(0usize..PALETTE.len(), 0..8)
            .prop_map(|ix| ix.into_iter().map(|i| PALETTE[i]).collect::<String>()),
    ]
}

fn value() -> impl Strategy<Value = i64> {
    prop_oneof![
        -40i64..40,
        any::<i64>(),
        Just(i64::MIN),
        Just(i64::MAX),
        Just(0i64)
    ]
}

/// Indices and sequence numbers the protocol can carry: `to_value`
/// holds them as `i64`.
fn index() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..9, 0u64..=i64::MAX as u64, Just(i64::MAX as u64)]
}

fn clock() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(prop_oneof![0u32..70, any::<u32>(), Just(u32::MAX)], 0..7)
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
        (name(), prop::collection::vec(frame(), 1..6))
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

fn value_encoding<T: Serialize>(msg: &T) -> String {
    serde_json::to_string(&msg.to_value()).expect("wire values serialize")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// (i) Same bytes out, same message back in.
    #[test]
    fn per_event_frames_encode_identically_and_decode_in_one_pass(msg in hot_msg()) {
        let mut direct = String::new();
        prop_assert!(msg.write_json(&mut direct), "no direct encoder for {msg:?}");
        prop_assert_eq!(&direct, &value_encoding(&msg));
        prop_assert_eq!(&encode_body(&msg), &direct);

        let taken = ClientMsg::from_json_bytes(direct.as_bytes());
        if strings(&msg).into_iter().any(needs_escape) {
            // Escapes are the `Value` route's; if taken at all, taken right.
            prop_assert!(taken.is_none() || taken.as_ref() == Some(&msg));
        } else {
            prop_assert_eq!(taken.as_ref(), Some(&msg));
        }
        prop_assert_eq!(outcome(decode_body::<ClientMsg>(direct.as_bytes())), Ok(msg.clone()));

        // `ServerMsg::SliceUpdate` shares the body.
        if let ClientMsg::SliceUpdate { session, seq, update } = msg {
            let reply = ServerMsg::SliceUpdate { session, seq, update };
            prop_assert_eq!(encode_body(&reply), value_encoding(&reply));
            prop_assert_eq!(
                outcome(decode_body::<ServerMsg>(encode_body(&reply).as_bytes())),
                Ok(reply)
            );
        }
    }

    /// (ii) Truncated anywhere: the same value or the same error text.
    #[test]
    fn truncated_bodies_decode_identically(msg in hot_msg(), cut in 0usize..4096) {
        let body = encode_body(&msg).into_bytes();
        assert_body_agrees(&body[..cut % (body.len() + 1)]);
    }

    /// (ii) One bit flipped anywhere.
    #[test]
    fn bit_flipped_bodies_decode_identically(
        msg in hot_msg(),
        at in 0usize..4096,
        bit in 0u8..8,
    ) {
        let mut body = encode_body(&msg).into_bytes();
        let at = at % body.len();
        body[at] ^= 1 << bit;
        assert_body_agrees(&body);
    }

    /// (ii) One byte replaced by a structural character, a digit, a
    /// sign, a fraction — what turns one legal document into another.
    #[test]
    fn overwritten_bodies_decode_identically(
        msg in hot_msg(),
        at in 0usize..4096,
        with in 0usize..16,
    ) {
        let mut body = encode_body(&msg).into_bytes();
        let at = at % body.len();
        body[at] = b"{}[]:,\"\\ 0-.e9nt"[with];
        assert_body_agrees(&body);
    }

    /// (ii) The head of one document spliced onto the tail of another.
    #[test]
    fn spliced_bodies_decode_identically(
        a in hot_msg(),
        b in hot_msg(),
        cut_a in 0usize..4096,
        cut_b in 0usize..4096,
    ) {
        let (a, b) = (encode_body(&a).into_bytes(), encode_body(&b).into_bytes());
        let mut body = a[..cut_a % (a.len() + 1)].to_vec();
        body.extend_from_slice(&b[cut_b % (b.len() + 1)..]);
        assert_body_agrees(&body);
    }

    /// (ii) Whole streams through `read_frame`: damage in the header,
    /// the body or the terminator reads as it did before.
    #[test]
    fn damaged_streams_read_identically(
        msgs in prop::collection::vec(hot_msg(), 1..4),
        at in 0usize..8192,
        bit in 0u8..8,
        cut in 0usize..8192,
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            write_frame(&mut stream, m).expect("encode");
        }
        assert_stream_agrees(&stream);
        assert_stream_agrees(&stream[..cut % (stream.len() + 1)]);
        let at = at % stream.len();
        stream[at] ^= 1 << bit;
        assert_stream_agrees(&stream);
    }

    /// However the transport splits the bytes, and however often a read
    /// is interrupted, the frames are the contiguous stream's.
    #[test]
    fn chunking_and_interrupts_do_not_change_what_is_read(
        msgs in prop::collection::vec(hot_msg(), 1..4),
        chunk in 1usize..9,
        capacity in 1usize..40,
    ) {
        let mut stream = Vec::new();
        write_frame(&mut stream, &ClientMsg::Stats).expect("encode");
        for m in &msgs {
            write_frame(&mut stream, m).expect("encode");
        }
        let whole = drain(&mut Cursor::new(&stream[..]), read_frame);
        prop_assert_eq!(whole.len(), msgs.len() + 1);
        let stutter = Stutter { bytes: &stream, chunk, interrupt: true };
        let mut r = BufReader::with_capacity(capacity, stutter);
        prop_assert_eq!(drain(&mut r, read_frame), whole);
    }
}

// ---- satellite: interrupted and one-byte reads ----------------------------

/// A transport that hands out at most `chunk` bytes per `read` and
/// fails every other call with `ErrorKind::Interrupted`.
struct Stutter<'a> {
    bytes: &'a [u8],
    chunk: usize,
    interrupt: bool,
}

impl Read for Stutter<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.interrupt = !self.interrupt;
        if !self.interrupt {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let n = self.chunk.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn sample_stream() -> (Vec<ClientMsg>, Vec<u8>) {
    let msgs = vec![
        ClientMsg::Hello { version: 5 },
        ClientMsg::Event {
            session: "s".into(),
            p: 1,
            clock: vec![0, 2, 1],
            set: [("x".to_string(), -3i64)].into_iter().collect(),
        },
        ClientMsg::Events {
            session: "s".into(),
            events: (0..70)
                .map(|i| EventFrame {
                    p: i % 3,
                    clock: vec![i as u32, 1, 2],
                    set: BTreeMap::new(),
                })
                .collect(),
        },
        ClientMsg::Close {
            session: "s".into(),
        },
    ];
    let mut stream = Vec::new();
    for m in &msgs {
        write_frame(&mut stream, m).expect("encode");
    }
    (msgs, stream)
}

#[test]
fn an_interrupt_between_every_byte_is_not_a_dead_connection() {
    let (msgs, stream) = sample_stream();
    let expected: Vec<Result<ClientMsg, String>> = msgs.into_iter().map(Ok).collect();
    // One byte per call, every other call interrupted — straight
    // through a one-byte buffer, so every header byte meets one.
    let stutter = Stutter {
        bytes: &stream,
        chunk: 1,
        interrupt: true,
    };
    let mut r = BufReader::with_capacity(1, stutter);
    assert_eq!(drain(&mut r, read_frame), expected);
}

#[test]
fn one_byte_per_read_yields_the_contiguous_stream() {
    let (msgs, stream) = sample_stream();
    let expected: Vec<Result<ClientMsg, String>> = msgs.into_iter().map(Ok).collect();
    struct OneByte<'a>(&'a [u8]);
    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = 1.min(buf.len()).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }
    let mut r = BufReader::new(OneByte(&stream));
    assert_eq!(drain(&mut r, read_frame), expected);
}

// ---- (iii) odd but legal, by hand ------------------------------------------

/// Bodies the one-pass decoder must take (plain shape), each with what
/// it decodes to.
#[test]
fn plain_bodies_are_taken_in_one_pass() {
    let event = |set: &[(&str, i64)]| ClientMsg::Event {
        session: "s".into(),
        p: 2,
        clock: vec![1, 0, 7],
        set: set.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
    };
    let cases: Vec<(&str, ClientMsg)> = vec![
        (
            r#"{"type":"event","session":"s","p":2,"clock":[1,0,7],"set":{"x":-3}}"#,
            event(&[("x", -3)]),
        ),
        // Whitespace wherever the grammar allows it.
        (
            " {\t\"type\" : \"event\" ,\n\"session\":\"s\", \"p\" :2 , \"clock\": [ 1 ,0, 7 ] ,\r\n \"set\" : { \"x\" : -3 } } \n",
            event(&[("x", -3)]),
        ),
        // Keys in any order, `type` last.
        (
            r#"{"set":{"x":-3},"clock":[1,0,7],"p":2,"session":"s","type":"event"}"#,
            event(&[("x", -3)]),
        ),
        // Empty containers; `-0`; the last of two equal `set` keys.
        (
            r#"{"type":"event","session":"s","p":2,"clock":[1,-0,7],"set":{}}"#,
            event(&[]),
        ),
        (
            r#"{"type":"event","session":"s","p":2,"clock":[1,0,7],"set":{"x":1,"y":2,"x":3}}"#,
            event(&[("x", 3), ("y", 2)]),
        ),
        (
            r#"{"type":"event","session":"s","p":2,"clock":[1,0,7],"set":{"x":-9223372036854775808,"日本":9223372036854775807}}"#,
            event(&[("x", i64::MIN), ("日本", i64::MAX)]),
        ),
        (
            r#"{"type":"events","session":"s","events":[{"p":0,"clock":[]},{"clock":[4294967295],"set":{"k":0},"p":1}]}"#,
            ClientMsg::Events {
                session: "s".into(),
                events: vec![
                    EventFrame {
                        p: 0,
                        clock: vec![],
                        set: BTreeMap::new(),
                    },
                    EventFrame {
                        p: 1,
                        clock: vec![u32::MAX],
                        set: [("k".to_string(), 0i64)].into_iter().collect(),
                    },
                ],
            },
        ),
        (
            r#"{"type":"dist-event","session":"s#w0","seq":9223372036854775807,"event":{"p":2,"clock":[1,0,7]}}"#,
            ClientMsg::DistEvent {
                session: "s#w0".into(),
                seq: i64::MAX as u64,
                event: EventFrame {
                    p: 2,
                    clock: vec![1, 0, 7],
                    set: BTreeMap::new(),
                },
            },
        ),
        (
            r#"{"type":"slice-update","session":"s","seq":4,"update":{"op":"observe","p":2,"clock":[1,0,7],"holds":[0,3],"invalid":"undeclared variable 'z'"}}"#,
            ClientMsg::SliceUpdate {
                session: "s".into(),
                seq: 4,
                update: SliceUpdateBody::Observe {
                    p: 2,
                    clock: vec![1, 0, 7],
                    holds: vec![0, 3],
                    invalid: Some("undeclared variable 'z'".into()),
                },
            },
        ),
        (
            r#"{"type":"slice-update","session":"s","seq":5,"update":{"p":1,"op":"finish"}}"#,
            ClientMsg::SliceUpdate {
                session: "s".into(),
                seq: 5,
                update: SliceUpdateBody::Finish { p: 1 },
            },
        ),
        (
            r#"{"type":"slice-update","session":"s","seq":6,"update":{"op":"close"}}"#,
            ClientMsg::SliceUpdate {
                session: "s".into(),
                seq: 6,
                update: SliceUpdateBody::Close,
            },
        ),
    ];
    for (body, want) in cases {
        assert_eq!(
            ClientMsg::from_json_bytes(body.as_bytes()).as_ref(),
            Some(&want),
            "{body}"
        );
        assert_body_agrees(body.as_bytes());
    }
}

/// Bodies outside the plain shape: the one-pass decoder must leave
/// every one to the `Value` route, which accepts some and rejects
/// others — either way `decode_body` answers as that route does.
#[test]
fn odd_bodies_are_left_to_the_value_route() {
    let deep = format!(
        r#"{{"type":"event","session":"s","p":0,"clock":[1],"x":{}{}}}"#,
        "[".repeat(200),
        "]".repeat(200)
    );
    #[rustfmt::skip] // one body per line
    let cases: Vec<(&str, bool)> = vec![
        // Duplicate keys: the first wins for fields.
        (r#"{"type":"event","type":"close","session":"s","p":1,"p":2,"clock":[1]}"#, true),
        (r#"{"type":"event","session":"s","session":"t","p":1,"clock":[1],"clock":[2]}"#, true),
        (r#"{"type":"events","session":"s","events":[{"p":0,"p":1,"clock":[1]}]}"#, true),
        // `null` where a default exists, and where none does.
        (r#"{"type":"event","session":"s","p":1,"clock":[1],"set":null}"#, true),
        (r#"{"type":"event","session":"s","p":null,"clock":[1]}"#, false),
        (r#"{"type":"slice-update","session":"s","seq":1,"update":{"op":"observe","p":0,"clock":[1],"holds":null,"invalid":null}}"#, true),
        // Escapes, in values and in keys.
        (r#"{"type":"event","session":"a\"b\\c\n","p":1,"clock":[1],"set":{"x":1}}"#, true),
        (r#"{"type":"event","session":"\u0073","p":1,"clock":[1]}"#, true),
        (r#"{"type":"event","session":"s","p":1,"clock":[1],"set":{"\u0078":1,"x":2}}"#, true),
        (r#"{"\u0074ype":"event","session":"s","p":1,"clock":[1]}"#, true),
        (r#"{"type":"event","session":"\ud83d\ude00","p":1,"clock":[1]}"#, true),
        (r#"{"type":"event","session":"\ud83d","p":1,"clock":[1]}"#, false),
        (r#"{"type":"event","session":"\q","p":1,"clock":[1]}"#, false),
        // Unknown extra fields are ignored; nesting is bounded.
        (r#"{"type":"event","session":"s","p":1,"clock":[1],"trace-id":"abc","extra":{"a":[1,2.5,null]}}"#, true),
        (r#"{"type":"events","session":"s","events":[{"p":0,"clock":[1],"note":true}]}"#, true),
        (deep.as_str(), false),
        // Numbers: floats, exponents, leading zeros, range.
        (r#"{"type":"event","session":"s","p":1.0,"clock":[1]}"#, false),
        (r#"{"type":"event","session":"s","p":1e0,"clock":[1]}"#, false),
        (r#"{"type":"event","session":"s","p":01,"clock":[1]}"#, false),
        (r#"{"type":"event","session":"s","p":-1,"clock":[1]}"#, false),
        (r#"{"type":"event","session":"s","p":1,"clock":[1.5]}"#, false),
        (r#"{"type":"event","session":"s","p":1,"clock":[4294967296]}"#, false),
        (r#"{"type":"event","session":"s","p":1,"clock":[-1]}"#, false),
        (r#"{"type":"event","session":"s","p":9223372036854775808,"clock":[1]}"#, false),
        (r#"{"type":"event","session":"s","p":1,"clock":[1],"set":{"x":9223372036854775808}}"#, false),
        (r#"{"type":"event","session":"s","p":1,"clock":[1],"set":{"x":-9223372036854775809}}"#, false),
        (r#"{"type":"event","session":"s","p":1,"clock":[1],"set":{"x":99999999999999999999999}}"#, false),
        (r#"{"type":"event","session":"s","p":1,"clock":[1],"set":{"x":1.0}}"#, false),
        (r#"{"type":"event","session":"s","p":1,"clock":[1],"set":{"x":- 1}}"#, false),
        (r#"{"type":"dist-event","session":"s","seq":-1,"event":{"p":0,"clock":[1]}}"#, false),
        (r#"{"type":"dist-event","session":"s","seq":18446744073709551615,"event":{"p":0,"clock":[1]}}"#, false),
        // An empty batch is refused by name.
        (r#"{"type":"events","session":"s","events":[]}"#, false),
        // Wrong shapes and missing fields.
        (r#"{"type":"event","session":"s","clock":[1]}"#, false),
        (r#"{"type":"event","session":"s","p":1}"#, false),
        (r#"{"type":"event","p":1,"clock":[1]}"#, false),
        (r#"{"session":"s","p":1,"clock":[1]}"#, false),
        (r#"{"type":"event","session":7,"p":1,"clock":[1]}"#, false),
        (r#"{"type":"event","session":"s","p":"1","clock":[1]}"#, false),
        (r#"{"type":"event","session":"s","p":1,"clock":{"0":1}}"#, false),
        (r#"{"type":"event","session":"s","p":1,"clock":[1],"set":[["x",1]]}"#, false),
        (r#"{"type":"events","session":"s","events":{"p":0,"clock":[1]}}"#, false),
        (r#"{"type":"events","session":"s","events":[[0,[1]]]}"#, false),
        (r#"{"type":"dist-event","session":"s","seq":1}"#, false),
        (r#"{"type":"slice-update","session":"s","seq":1,"update":{"op":"merge"}}"#, false),
        (r#"{"type":"slice-update","session":"s","seq":1,"update":{"op":"finish"}}"#, false),
        // Fields of another kind riding along are ignored, not merged.
        (r#"{"type":"events","session":"s","p":1,"clock":[9],"events":[{"p":0,"clock":[1]}]}"#, true),
        (r#"{"type":"event","session":"s","p":1,"clock":[1],"seq":3,"events":[]}"#, true),
        (r#"{"type":"event","session":"s","p":1,"clock":[1],"op":"close","holds":[1]}"#, true),
        (r#"{"type":"slice-update","session":"s","seq":1,"update":{"op":"close","p":1,"clock":[1]}}"#, true),
        (r#"{"type":"slice-update","session":"s","seq":1,"update":{"op":"observe","p":0,"clock":[1],"set":{"x":1}}}"#, true),
        // Cold frames and strangers.
        (r#"{"type":"stats"}"#, true),
        (r#"{"type":"close","session":"s"}"#, true),
        (r#"{"type":"finish","session":"s","p":0}"#, true),
        (r#"{"type":"warp","session":"s"}"#, false),
        // Not an object; not one document; not JSON.
        (r#"[{"type":"event","session":"s","p":1,"clock":[1]}]"#, false),
        (r#""event""#, false),
        ("", false),
        ("   ", false),
        (r#"{"type":"event","session":"s","p":1,"clock":[1]} {}"#, false),
        (r#"{"type":"event","session":"s","p":1,"clock":[1]},"#, false),
        (r#"{"type":"event","session":"s","p":1,"clock":[1,]}"#, false),
        (r#"{"type":"event","session":"s","p":1,"clock":[1],}"#, false),
        (r#"{"type":"event","session":"s","p":1,"clock":[,1]}"#, false),
        (r#"{"type":"event","session":"s","p":1,"clock":[1 2]}"#, false),
        (r#"{"type":"event" "session":"s","p":1,"clock":[1]}"#, false),
        (r#"{"type":"event","session":"s","p":1,"clock":[1]"#, false),
        (r#"{"type":"event","session":"s,"p":1,"clock":[1]}"#, false),
        ("{\"type\":\"event\",\"session\":\"a\tb\",\"p\":1,\"clock\":[1]}", false),
        ("{\"type\":\"event\",\"session\":\"s\",\"p\":1,\u{a0}\"clock\":[1]}", false),
    ];
    for (body, accepted) in cases {
        assert_eq!(
            ClientMsg::from_json_bytes(body.as_bytes()),
            None,
            "taken in one pass: {body}"
        );
        assert_eq!(
            value_route(body.as_bytes()).is_ok(),
            accepted,
            "{body}: {:?}",
            value_route(body.as_bytes())
        );
        assert_body_agrees(body.as_bytes());
    }
    // What some of those decode to, so the corpus pins more than "equal".
    assert_eq!(
        outcome(decode_body::<ClientMsg>(
            br#"{"type":"event","session":"s","session":"t","p":1,"clock":[1],"clock":[2]}"#
        )),
        Ok(ClientMsg::Event {
            session: "s".into(),
            p: 1,
            clock: vec![1],
            set: BTreeMap::new(),
        })
    );
    assert_eq!(
        outcome(decode_body::<ClientMsg>(
            br#"{"type":"event","session":"a\"b\\c\n","p":1,"clock":[1],"set":{"x":1}}"#
        )),
        Ok(ClientMsg::Event {
            session: "a\"b\\c\n".into(),
            p: 1,
            clock: vec![1],
            set: [("x".to_string(), 1i64)].into_iter().collect(),
        })
    );
    assert_eq!(
        outcome(decode_body::<ClientMsg>(
            br#"{"type":"events","session":"s","events":[]}"#
        )),
        Err("trace JSON error: empty event batch".to_string())
    );
}

/// Bytes that are not UTF-8, inside a string and outside one.
#[test]
fn bodies_that_are_not_utf8_are_refused_as_before() {
    let good = br#"{"type":"event","session":"s","p":1,"clock":[1]}"#;
    for (at, byte) in [(28usize, 0xffu8), (28, 0xc3), (1, 0x80), (47, 0xe2)] {
        let mut body = good.to_vec();
        body[at] = byte;
        assert_eq!(ClientMsg::from_json_bytes(&body), None);
        assert_eq!(
            outcome(decode_body::<ClientMsg>(&body)),
            Err("invalid trace: frame body is not UTF-8".to_string())
        );
        assert_body_agrees(&body);
    }
    // A truncated multi-byte character at the very end of a string.
    let mut body = br#"{"type":"event","session":""#.to_vec();
    body.extend_from_slice(&[0xe6, 0x97]);
    body.extend_from_slice(br#"","p":1,"clock":[1]}"#);
    assert_eq!(ClientMsg::from_json_bytes(&body), None);
    assert_body_agrees(&body);
}

/// Integers `to_value` cannot hold come out as it writes them (wrapped
/// to `i64`), and the reader refuses them as it always has.
#[test]
fn out_of_range_indices_encode_as_the_value_route_does() {
    let msg = ClientMsg::DistEvent {
        session: "s".into(),
        seq: u64::MAX,
        event: EventFrame {
            p: usize::MAX,
            clock: vec![u32::MAX],
            set: BTreeMap::new(),
        },
    };
    let body = encode_body(&msg);
    assert_eq!(body, value_encoding(&msg));
    assert!(body.contains(r#""seq":-1"#), "{body}");
    assert_body_agrees(body.as_bytes());
    assert!(decode_body::<ClientMsg>(body.as_bytes()).is_err());
}

/// Cold frames never had a direct encoder and still round-trip.
#[test]
fn cold_frames_keep_the_value_route() {
    for msg in [
        ClientMsg::Stats,
        ClientMsg::Hello { version: 5 },
        ClientMsg::Close {
            session: "s".into(),
        },
        ClientMsg::FinishProcess {
            session: "s".into(),
            p: 3,
        },
    ] {
        assert!(!msg.write_json(&mut String::new()), "{msg:?}");
        let body = encode_body(&msg);
        assert_eq!(body, value_encoding(&msg));
        assert_eq!(ClientMsg::from_json_bytes(body.as_bytes()), None);
        assert_eq!(outcome(decode_body::<ClientMsg>(body.as_bytes())), Ok(msg));
    }
    let reply = ServerMsg::Opened {
        session: "s".into(),
    };
    assert!(!reply.write_json(&mut String::new()));
    assert_eq!(encode_body(&reply), value_encoding(&reply));
}
