//! The one-pass codec of the per-event frames.
//!
//! Four client frames carry events — `event`, `events`, `dist-event`,
//! `slice-update` (whose body `ServerMsg::SliceUpdate` shares) — and a
//! monitor handles one of them per observation, so these go between
//! bytes and messages directly: clock digits straight into the
//! `Vec<u32>`, no [`serde::Value`] tree, no key `String`s but the ones
//! `EventFrame::set` keeps.
//!
//! The `Value` route in the parent module stays the definition of the
//! protocol. [`encode_client`]/[`encode_server`] write byte for byte
//! what printing `to_value()` writes. [`decode_client`] is narrow on
//! purpose: it takes the plain shape — known keys once each, in any
//! order, unescaped strings, integers in range — and answers `None`
//! ("not mine") to everything else: escapes, `null`s, floats, duplicate
//! or unknown keys, an empty batch, a cold frame type, any syntax
//! error. The caller then takes the `Value` route, so what is accepted,
//! what it decodes to and how a rejection reads are that route's by
//! construction; `tests/hot_equivalence.rs` holds the two against each
//! other.
//!
//! Asked to, [`decode_client`] also notes while it walks the bytes
//! whether the body is *canonical*: exactly what [`encode_client`]
//! writes for the message it decodes to. Strings it takes need no
//! escape, so they are already written as the encoder writes them; what
//! remains is no whitespace, keys in the encoder's order (see [`Key`]),
//! `set` keys strictly ascending, no empty `set` or `holds`, and no
//! `-0`. A monitor with a write-ahead log logs a canonical body as it
//! came instead of encoding the message again; without one, nobody asks
//! and the bookkeeping is compiled out. That is measured, not assumed: a
//! build that always noted it read a median 3.5 % fewer events/s on the
//! `wire-stream` benchmark workload, which has no log, and fewer in 16
//! of 20 alternating pairs (2-CPU Intel Xeon host, benchmark pinned to
//! one CPU). `tests/canonical_body.rs` holds the flag to its word.

use super::{ClientMsg, EventFrame, ServerMsg, SliceUpdateBody};
use std::collections::BTreeMap;

// ---- encoding -------------------------------------------------------------

/// Appends `msg` if it is one of the four per-event frames.
pub(super) fn encode_client(msg: &ClientMsg, out: &mut String) -> bool {
    match msg {
        ClientMsg::Event {
            session,
            p,
            clock,
            set,
        } => {
            head(out, "event", session);
            out.push(',');
            frame_fields(out, *p, clock, set);
            out.push('}');
        }
        ClientMsg::Events { session, events } => {
            head(out, "events", session);
            out.push_str(",\"events\":[");
            for (i, e) in events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                frame(out, e);
            }
            out.push_str("]}");
        }
        ClientMsg::DistEvent {
            session,
            seq,
            event,
        } => {
            head(out, "dist-event", session);
            out.push_str(",\"seq\":");
            serde_json::int_into(out, *seq as i64);
            out.push_str(",\"event\":");
            frame(out, event);
            out.push('}');
        }
        ClientMsg::SliceUpdate {
            session,
            seq,
            update,
        } => slice_update(out, session, *seq, update),
        _ => return false,
    }
    true
}

/// Appends `msg` if it is a `slice-update`.
pub(super) fn encode_server(msg: &ServerMsg, out: &mut String) -> bool {
    match msg {
        ServerMsg::SliceUpdate {
            session,
            seq,
            update,
        } => slice_update(out, session, *seq, update),
        _ => return false,
    }
    true
}

/// `{"type":<tag>,"session":<session>` — the object is left open.
fn head(out: &mut String, tag: &str, session: &str) {
    out.push_str("{\"type\":\"");
    out.push_str(tag);
    out.push_str("\",\"session\":");
    string(out, session);
}

fn slice_update(out: &mut String, session: &str, seq: u64, update: &SliceUpdateBody) {
    head(out, "slice-update", session);
    out.push_str(",\"seq\":");
    serde_json::int_into(out, seq as i64);
    out.push_str(",\"update\":{\"op\":");
    match update {
        SliceUpdateBody::Observe {
            p,
            clock,
            holds,
            invalid,
        } => {
            out.push_str("\"observe\",");
            p_and_clock(out, *p, clock);
            if !holds.is_empty() {
                out.push_str(",\"holds\":");
                ints(out, holds.iter().map(|&h| h as i64));
            }
            if let Some(message) = invalid {
                out.push_str(",\"invalid\":");
                string(out, message);
            }
        }
        SliceUpdateBody::Finish { p } => {
            out.push_str("\"finish\",\"p\":");
            serde_json::int_into(out, *p as i64);
        }
        SliceUpdateBody::Close => out.push_str("\"close\""),
    }
    out.push_str("}}");
}

fn frame(out: &mut String, e: &EventFrame) {
    out.push('{');
    frame_fields(out, e.p, &e.clock, &e.set);
    out.push('}');
}

/// `"p":…,"clock":[…]`.
fn p_and_clock(out: &mut String, p: usize, clock: &[u32]) {
    out.push_str("\"p\":");
    serde_json::int_into(out, p as i64);
    out.push_str(",\"clock\":");
    ints(out, clock.iter().map(|&c| i64::from(c)));
}

/// `"p":…,"clock":[…]` and, unless empty, `,"set":{…}`.
fn frame_fields(out: &mut String, p: usize, clock: &[u32], set: &BTreeMap<String, i64>) {
    p_and_clock(out, p, clock);
    if !set.is_empty() {
        out.push_str(",\"set\":{");
        for (i, (var, value)) in set.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            string(out, var);
            out.push(':');
            serde_json::int_into(out, *value);
        }
        out.push('}');
    }
}

/// Every integer goes out as the `i64` its `to_value()` holds (the `as
/// i64`s here are that conversion), in decimal.
fn ints(out: &mut String, items: impl Iterator<Item = i64>) {
    out.push('[');
    for (i, n) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        serde_json::int_into(out, n);
    }
    out.push(']');
}

fn string(out: &mut String, s: &str) {
    if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        serde_json::escape_into(out, s);
    } else {
        out.push('"');
        out.push_str(s);
        out.push('"');
    }
}

// ---- decoding -------------------------------------------------------------

/// Decodes `body` if it is one of the four per-event frames in plain
/// shape, and with `TRACK` says whether it is canonical; `None` hands it
/// to the `Value` route.
pub(super) fn decode_client<const TRACK: bool>(body: &[u8]) -> Option<(ClientMsg, bool)> {
    let mut c = Cursor::<TRACK> {
        bytes: body,
        pos: 0,
        clock_len: 0,
        canonical: TRACK,
    };
    let (mut tag, mut session, mut seq) = (None, None, None);
    let (mut events, mut event, mut update) = (None, None, None);
    let mut top = Body::default();
    let mut last = None;
    c.list(b'{', b'}', |c| {
        let name = c.string()?;
        c.expect(b':')?;
        let key = match name {
            "type" => {
                let t = c.string()?;
                // A cold frame is given up at its second token.
                if !matches!(t, "event" | "events" | "dist-event" | "slice-update") {
                    return None;
                }
                once(&mut tag, t, Key::Type)
            }
            "session" => once(&mut session, c.string()?, Key::Session),
            "seq" => once(&mut seq, c.u64()?, Key::Seq),
            "events" => {
                let mut frames = Vec::new();
                c.list(b'[', b']', |c| {
                    frames.push(Body::object(c)?.frame()?);
                    Some(())
                })?;
                once(&mut events, frames, Key::Events)
            }
            "event" => once(&mut event, Body::object(c)?, Key::Event),
            "update" => once(&mut update, Body::object(c)?, Key::Update),
            _ => top.field(c, name),
        }?;
        c.in_order(&mut last, key);
        Some(())
    })?;
    if c.peek().is_some() {
        return None; // trailing characters
    }
    let session = session?.to_string();
    let msg = match (tag?, seq, events, event, update) {
        ("event", None, None, None, None) => {
            let EventFrame { p, clock, set } = top.frame()?;
            ClientMsg::Event {
                session,
                p,
                clock,
                set,
            }
        }
        ("events", None, Some(events), None, None) if top.is_empty() && !events.is_empty() => {
            ClientMsg::Events { session, events }
        }
        ("dist-event", Some(seq), None, Some(event), None) if top.is_empty() => {
            ClientMsg::DistEvent {
                session,
                seq,
                event: event.frame()?,
            }
        }
        ("slice-update", Some(seq), None, None, Some(update)) if top.is_empty() => {
            ClientMsg::SliceUpdate {
                session,
                seq,
                update: update.update()?,
            }
        }
        _ => return None,
    };
    Some((msg, c.canonical))
}

/// The keys the one-pass decoder takes, in the order the encoder writes
/// them: the top level's is `type, session, seq, p, clock, set, events,
/// event, update`, an event or update's is `op, p, clock, set, holds,
/// invalid`, and this one order is both. (A key that belongs to the
/// other level makes the shape wrong, and the body is not taken.)
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Type,
    Session,
    Seq,
    Op,
    P,
    Clock,
    Set,
    Holds,
    Invalid,
    Events,
    Event,
    Update,
}

/// Fills `slot` and answers which key did; a key seen twice is not the
/// plain shape.
fn once<T>(slot: &mut Option<T>, value: T, key: Key) -> Option<Key> {
    slot.replace(value).is_none().then_some(key)
}

/// The per-event fields, wherever they sit: at the top of an `event`,
/// in a batch member or a `dist-event`'s `event`, in an `update`.
#[derive(Default)]
struct Body<'a> {
    op: Option<&'a str>,
    p: Option<usize>,
    clock: Option<Vec<u32>>,
    set: Option<BTreeMap<String, i64>>,
    holds: Option<Vec<usize>>,
    invalid: Option<&'a str>,
}

impl<'a> Body<'a> {
    fn object<const TRACK: bool>(c: &mut Cursor<'a, TRACK>) -> Option<Self> {
        let mut body = Body::default();
        let mut last = None;
        c.list(b'{', b'}', |c| {
            let name = c.string()?;
            c.expect(b':')?;
            let key = body.field(c, name)?;
            c.in_order(&mut last, key);
            Some(())
        })?;
        Some(body)
    }

    fn field<const TRACK: bool>(&mut self, c: &mut Cursor<'a, TRACK>, name: &str) -> Option<Key> {
        match name {
            "op" => once(&mut self.op, c.string()?, Key::Op),
            "p" => once(&mut self.p, c.usize()?, Key::P),
            "clock" => {
                let mut clock = Vec::with_capacity(c.clock_len);
                c.list(b'[', b']', |c| {
                    clock.push(u32::try_from(c.u64()?).ok()?);
                    Some(())
                })?;
                c.clock_len = clock.len();
                once(&mut self.clock, clock, Key::Clock)
            }
            "set" => {
                // `insert` keeps the last of two equal keys, as
                // collecting the `Value`'s fields does.
                let mut set = BTreeMap::new();
                let mut last: Option<&str> = None;
                c.list(b'{', b'}', |c| {
                    let var = c.string()?;
                    c.expect(b':')?;
                    // The encoder writes the map in key order, once each.
                    c.note(last.is_none_or(|last| last < var));
                    last = Some(var);
                    set.insert(var.to_string(), c.i64()?);
                    Some(())
                })?;
                // An empty map is not written at all.
                c.note(!set.is_empty());
                once(&mut self.set, set, Key::Set)
            }
            "holds" => {
                let mut holds = Vec::new();
                c.list(b'[', b']', |c| {
                    holds.push(c.usize()?);
                    Some(())
                })?;
                c.note(!holds.is_empty());
                once(&mut self.holds, holds, Key::Holds)
            }
            "invalid" => once(&mut self.invalid, c.string()?, Key::Invalid),
            _ => None,
        }
    }

    fn is_empty(&self) -> bool {
        matches!(
            self,
            Body {
                op: None,
                p: None,
                clock: None,
                set: None,
                holds: None,
                invalid: None,
            }
        )
    }

    fn frame(self) -> Option<EventFrame> {
        match self {
            Body {
                op: None,
                p: Some(p),
                clock: Some(clock),
                set,
                holds: None,
                invalid: None,
            } => Some(EventFrame {
                p,
                clock,
                set: set.unwrap_or_default(),
            }),
            _ => None,
        }
    }

    fn update(self) -> Option<SliceUpdateBody> {
        match self {
            Body {
                op: Some("observe"),
                p: Some(p),
                clock: Some(clock),
                set: None,
                holds,
                invalid,
            } => Some(SliceUpdateBody::Observe {
                p,
                clock,
                holds: holds.unwrap_or_default(),
                invalid: invalid.map(str::to_string),
            }),
            Body {
                op: Some("finish"),
                p: Some(p),
                clock: None,
                set: None,
                holds: None,
                invalid: None,
            } => Some(SliceUpdateBody::Finish { p }),
            Body {
                op: Some("close"),
                p: None,
                clock: None,
                set: None,
                holds: None,
                invalid: None,
            } => Some(SliceUpdateBody::Close),
            _ => None,
        }
    }
}

fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r')
}

/// A position in the frame body. Every method answers `None` to what
/// the strict JSON grammar, or the plain shape, does not allow there.
struct Cursor<'a, const TRACK: bool> {
    bytes: &'a [u8],
    pos: usize,
    /// Length of the last clock read: every clock of a session has its
    /// process count, so the next one is allocated at that size.
    clock_len: usize,
    /// Nothing read so far differs from what the encoder writes (kept
    /// only by a `TRACK`ing cursor).
    canonical: bool,
}

impl<'a, const TRACK: bool> Cursor<'a, TRACK> {
    /// Notes whether what was just read is what the encoder writes.
    fn note(&mut self, canonical: bool) {
        if TRACK {
            self.canonical &= canonical;
        }
    }

    /// The next byte that is not whitespace, left in place.
    fn peek(&mut self) -> Option<u8> {
        match self.bytes.get(self.pos) {
            Some(&b) if !is_space(b) => Some(b),
            _ => self.skip_space(),
        }
    }

    /// [`Cursor::peek`] past whitespace: legal between any two tokens,
    /// never written by the encoder, and rare enough to keep out of the
    /// way of the canonical path.
    #[cold]
    fn skip_space(&mut self) -> Option<u8> {
        while let Some(&b) = self.bytes.get(self.pos) {
            if !is_space(b) {
                return Some(b);
            }
            self.note(false);
            self.pos += 1;
        }
        None
    }

    /// Notes `key` as the next key of an object whose previous one was
    /// `last`: the encoder writes them in strictly increasing order.
    fn in_order(&mut self, last: &mut Option<Key>, key: Key) {
        self.note(last.is_none_or(|last| last < key));
        *last = Some(key);
    }

    /// The next byte that is not whitespace, consumed.
    fn token(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, want: u8) -> Option<()> {
        (self.token()? == want).then_some(())
    }

    /// `open item (, item)* close`, or `open close`: an array of
    /// `item`s, or an object whose `item` reads one `key: value`.
    fn list(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Option<()>,
    ) -> Option<()> {
        self.expect(open)?;
        if self.peek()? == close {
            self.pos += 1;
            return Some(());
        }
        loop {
            item(self)?;
            match self.token()? {
                b',' => {}
                b if b == close => return Some(()),
                _ => return None,
            }
        }
    }

    /// A string without escapes: the bytes between the quotes are the
    /// text. (`"` cannot be part of a multi-byte UTF-8 sequence, so the
    /// scan for it is safe before the text is validated.)
    fn string(&mut self) -> Option<&'a str> {
        self.expect(b'"')?;
        let rest = &self.bytes[self.pos..];
        let len = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
        if rest[len] != b'"' {
            return None;
        }
        self.pos += len + 1;
        std::str::from_utf8(&rest[..len]).ok()
    }

    /// Sign and magnitude of an integer: `-`? then `0` or a digit
    /// string without a leading zero. What follows — a fraction, an
    /// exponent, a second digit after `0` — is the caller's next token,
    /// and none of those is a token it accepts.
    fn integer(&mut self) -> Option<(bool, u64)> {
        let mut first = self.token()?;
        let negative = first == b'-';
        if negative {
            first = *self.bytes.get(self.pos)?;
            self.pos += 1;
        }
        if !first.is_ascii_digit() {
            return None;
        }
        let mut magnitude = u64::from(first - b'0');
        if first != b'0' {
            while let Some(d) = self.bytes.get(self.pos).filter(|b| b.is_ascii_digit()) {
                magnitude = magnitude
                    .checked_mul(10)?
                    .checked_add(u64::from(d - b'0'))?;
                self.pos += 1;
            }
        }
        Some((negative, magnitude))
    }

    /// An integer the `Value` route holds as `Value::Int`: past
    /// `i64`'s range it reads a float there, and no field takes one.
    fn i64(&mut self) -> Option<i64> {
        match self.integer()? {
            (false, magnitude) => i64::try_from(magnitude).ok(),
            (true, magnitude) => {
                // The encoder writes zero unsigned.
                self.note(magnitude != 0);
                0i64.checked_sub_unsigned(magnitude)
            }
        }
    }

    fn u64(&mut self) -> Option<u64> {
        u64::try_from(self.i64()?).ok()
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.i64()?).ok()
    }
}
