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
            int(out, *seq as i64);
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
    int(out, seq as i64);
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
            int(out, *p as i64);
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
    int(out, p as i64);
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
            int(out, *value);
        }
        out.push('}');
    }
}

fn ints(out: &mut String, items: impl Iterator<Item = i64>) {
    out.push('[');
    for (i, n) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        int(out, n);
    }
    out.push(']');
}

/// Every integer goes out as the `i64` its `to_value()` holds (`as
/// i64` above is that conversion), in decimal.
fn int(out: &mut String, n: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
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
/// shape; `None` hands it to the `Value` route.
pub(super) fn decode_client(body: &[u8]) -> Option<ClientMsg> {
    let mut c = Cursor {
        bytes: body,
        pos: 0,
        clock_len: 0,
    };
    let (mut tag, mut session, mut seq) = (None, None, None);
    let (mut events, mut event, mut update) = (None, None, None);
    let mut top = Body::default();
    c.list(b'{', b'}', |c| {
        let key = c.string()?;
        c.expect(b':')?;
        match key {
            "type" => {
                let t = c.string()?;
                // A cold frame is given up at its second token.
                if !matches!(t, "event" | "events" | "dist-event" | "slice-update") {
                    return None;
                }
                once(&mut tag, t)
            }
            "session" => once(&mut session, c.string()?),
            "seq" => once(&mut seq, c.u64()?),
            "events" => {
                let mut frames = Vec::new();
                c.list(b'[', b']', |c| {
                    frames.push(Body::object(c)?.frame()?);
                    Some(())
                })?;
                once(&mut events, frames)
            }
            "event" => once(&mut event, Body::object(c)?),
            "update" => once(&mut update, Body::object(c)?),
            _ => top.field(c, key),
        }
    })?;
    if c.peek().is_some() {
        return None; // trailing characters
    }
    let session = session?.to_string();
    Some(match (tag?, seq, events, event, update) {
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
    })
}

/// Fills `slot`; a key seen twice is not the plain shape.
fn once<T>(slot: &mut Option<T>, value: T) -> Option<()> {
    slot.replace(value).is_none().then_some(())
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
    fn object(c: &mut Cursor<'a>) -> Option<Self> {
        let mut body = Body::default();
        c.list(b'{', b'}', |c| {
            let key = c.string()?;
            c.expect(b':')?;
            body.field(c, key)
        })?;
        Some(body)
    }

    fn field(&mut self, c: &mut Cursor<'a>, key: &str) -> Option<()> {
        match key {
            "op" => once(&mut self.op, c.string()?),
            "p" => once(&mut self.p, c.usize()?),
            "clock" => {
                let mut clock = Vec::with_capacity(c.clock_len);
                c.list(b'[', b']', |c| {
                    clock.push(u32::try_from(c.u64()?).ok()?);
                    Some(())
                })?;
                c.clock_len = clock.len();
                once(&mut self.clock, clock)
            }
            "set" => {
                // `insert` keeps the last of two equal keys, as
                // collecting the `Value`'s fields does.
                let mut set = BTreeMap::new();
                c.list(b'{', b'}', |c| {
                    let var = c.string()?;
                    c.expect(b':')?;
                    set.insert(var.to_string(), c.i64()?);
                    Some(())
                })?;
                once(&mut self.set, set)
            }
            "holds" => {
                let mut holds = Vec::new();
                c.list(b'[', b']', |c| {
                    holds.push(c.usize()?);
                    Some(())
                })?;
                once(&mut self.holds, holds)
            }
            "invalid" => once(&mut self.invalid, c.string()?),
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

/// A position in the frame body. Every method answers `None` to what
/// the strict JSON grammar, or the plain shape, does not allow there.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Length of the last clock read: every clock of a session has its
    /// process count, so the next one is allocated at that size.
    clock_len: usize,
}

impl<'a> Cursor<'a> {
    /// The next byte that is not whitespace, left in place.
    fn peek(&mut self) -> Option<u8> {
        while let Some(&b) = self.bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
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
            (true, magnitude) => 0i64.checked_sub_unsigned(magnitude),
        }
    }

    fn u64(&mut self) -> Option<u64> {
        u64::try_from(self.i64()?).ok()
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.i64()?).ok()
    }
}
