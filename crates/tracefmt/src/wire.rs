//! The monitoring wire protocol.
//!
//! `hb-monitor` speaks a line-friendly framed protocol over any byte
//! stream (TCP socket, pipe, in-memory buffer). Each frame is
//!
//! ```text
//! <decimal byte length> <json>\n
//! ```
//!
//! — the JSON document's byte length, one space, the document itself,
//! and a terminating newline (not counted by the length). The length
//! prefix lets readers allocate exactly, reject oversized frames before
//! reading them, and resynchronize on protocol errors; the trailing
//! newline keeps a captured stream greppable.
//!
//! Client-to-server messages are [`ClientMsg`]; server-to-client are
//! [`ServerMsg`]. All messages carry a `type` tag. Vector clocks travel
//! as plain arrays of per-process event counts, predicates as lists of
//! `{process, var, op, value}` clauses under a `conjunctive` /
//! `disjunctive` mode — the structured form keeps the protocol
//! independent of any expression syntax.

use crate::TraceError;
use serde::{help, json_object, json_tagged, DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::io::{BufRead, ErrorKind, Read, Write};

mod hot;

/// Frames larger than this are rejected without being read (16 MiB).
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// The protocol version this build speaks, and the only one.
///
/// Earlier versions (1–4) are not spoken: every message the protocol
/// has — the optional `hello`, batched `events`, pattern predicates,
/// distributed sessions — is part of this one version.
pub const WIRE_VERSION: u32 = 5;

/// Validates a peer's announced protocol version; the `Err` carries the
/// exact message a server answers with before ignoring the peer.
pub fn check_version(version: u32) -> Result<(), String> {
    if version == WIRE_VERSION {
        Ok(())
    } else {
        Err(format!(
            "unsupported protocol version {version} (this peer speaks {WIRE_VERSION})"
        ))
    }
}

/// How a wire predicate combines its clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// All clauses must hold (one per participating process).
    Conjunctive,
    /// Any clause may hold.
    Disjunctive,
    /// A regular event pattern over the predicate's [`WirePattern`];
    /// clauses are unused.
    Pattern,
}

impl WireMode {
    fn as_str(self) -> &'static str {
        match self {
            WireMode::Conjunctive => "conjunctive",
            WireMode::Disjunctive => "disjunctive",
            WireMode::Pattern => "pattern",
        }
    }
}

/// One local clause: `var ⊙ value` on `process`.
///
/// `op` is one of `=`, `!=`, `<`, `<=`, `>`, `>=` (matching the
/// `hb_predicates`-crate display syntax); validation happens when the
/// session is opened, not at parse time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireClause {
    /// The process whose state is inspected.
    pub process: usize,
    /// Variable name (must be declared in the session's `vars`).
    pub var: String,
    /// Comparison operator.
    pub op: String,
    /// Literal to compare against.
    pub value: i64,
}

/// One atom of a [`WirePattern`]: an event label plus the ordering
/// constraint linking it to the previous atom.
///
/// An event **matches** the atom when its `set` map assigns `var` a
/// value for which `var ⊙ value` holds (the atom inspects the event's
/// own assignments — what happened at the event — not the accumulated
/// process state) and, when `process` is given, the event executed on
/// that process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireAtom {
    /// Restrict matches to this process; `None` matches any process.
    pub process: Option<usize>,
    /// Variable name (must be declared in the session's `vars`).
    pub var: String,
    /// Comparison operator, as in [`WireClause`].
    pub op: String,
    /// Literal to compare against.
    pub value: i64,
    /// `true` when this atom must be *causally* after the previous one
    /// (happened-before, written `~>`), not merely after it in some
    /// linearization (written `->`). Must be `false` on the first atom.
    pub causal: bool,
}

/// A pattern predicate body: the regular language `Σ* a₁ Σ* a₂ … Σ* a_d
/// Σ*` over labeled events. The monitor detects the pattern when **some
/// linearization** of the observed computation contains events matching
/// `a₁ … a_d` in order (predictive monitoring: the match need not occur
/// in the delivered order, only in a causally-consistent reordering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePattern {
    /// The atoms, in matching order. Never empty; at most 64.
    pub atoms: Vec<WireAtom>,
}

/// A predicate registered at session open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePredicate {
    /// Caller-chosen identifier, echoed in verdicts.
    pub id: String,
    /// Clause combination mode.
    pub mode: WireMode,
    /// The clauses (state predicates; empty for pattern predicates).
    pub clauses: Vec<WireClause>,
    /// The event pattern (`Some` iff `mode` is [`WireMode::Pattern`]).
    pub pattern: Option<WirePattern>,
}

/// A final or intermediate detection verdict on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireVerdict {
    /// `EF(p)` detected; the least satisfying cut over the delivered
    /// prefix, as per-process event counts.
    Detected(Vec<u32>),
    /// The predicate can no longer hold.
    Impossible,
    /// Still undetermined (only reported at session close).
    Pending,
}

/// One event inside a [`ClientMsg::Events`] batch: the per-event
/// fields of [`ClientMsg::Event`] minus the session name, which the
/// batch carries once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventFrame {
    /// Executing process.
    pub p: usize,
    /// Vector clock of the event (length = session's `processes`).
    pub clock: Vec<u32>,
    /// Variable assignments taking effect at the event.
    pub set: BTreeMap<String, i64>,
}

impl EventFrame {
    /// Rewraps this frame as the single-event message it abbreviates —
    /// how a receiver feeds batch members through its per-event path.
    pub fn into_event(self, session: &str) -> ClientMsg {
        ClientMsg::Event {
            session: session.to_string(),
            p: self.p,
            clock: self.clock,
            set: self.set,
        }
    }
}

/// The distribution role of a session on the wire, carried in the
/// optional `dist` field of [`ClientMsg::Open`].
///
/// A *client* opens a session with [`WireDistRole::Distribute`]
/// against a gateway; the gateway turns that into K worker opens
/// ([`WireDistRole::Worker`], one per partition, on decorated session
/// names) plus one aggregator open ([`WireDistRole::Aggregator`], on
/// the original name) spread over its backends. Workers run the local
/// slicing engine over the processes `p` with `p % k == worker` and
/// report one [`ClientMsg::SliceUpdate`] observation per forwarded
/// event; the aggregator replays those observations through a replica
/// of the single-backend session pipeline and emits the verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireDistRole {
    /// Client-facing opt-in: detect this session cooperatively across
    /// `k` monitor backends. Only a gateway honors this role; a plain
    /// monitor refuses it with [`error_kind::UNSUPPORTED_DISTRIBUTION`].
    Distribute {
        /// Number of worker partitions.
        k: usize,
    },
    /// Gateway-assigned worker role: run local slice evaluation for
    /// the processes `p` with `p % k == worker` of session `origin`.
    Worker {
        /// The client-visible session this worker serves.
        origin: String,
        /// This worker's partition index, `0 <= worker < k`.
        worker: usize,
        /// Total number of worker partitions.
        k: usize,
    },
    /// Gateway-assigned aggregator role: assemble the workers'
    /// [`ClientMsg::SliceUpdate`] observations into global verdicts.
    Aggregator {
        /// Total number of worker partitions feeding this aggregator.
        k: usize,
    },
}

/// One observation inside a `slice-update` frame: what a
/// worker learned from the event the gateway stamped with `seq`, or a
/// gateway-originated lifecycle marker taking that seq's slot.
///
/// The aggregator consumes updates in contiguous `seq` order, so every
/// event the gateway forwards must eventually produce **exactly one**
/// update — the liveness invariant of the protocol. Events a worker
/// holds for process order are flushed (with empty `holds`) when its
/// session closes; such events are provably undeliverable at the
/// aggregator, so the empty bits are never read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SliceUpdateBody {
    /// A worker observed (or refused) one event.
    Observe {
        /// Executing process, as forwarded.
        p: usize,
        /// Vector clock of the event, as forwarded.
        clock: Vec<u32>,
        /// Indices (into the open's predicate list, ascending) of the
        /// conjunctive predicates whose local clause holds on the
        /// worker's post-event state — the slice-membership bits.
        holds: Vec<usize>,
        /// `Some` when the worker refused the event before touching
        /// its state (an undeclared variable); carries the exact
        /// message the single-backend session would have produced.
        invalid: Option<String>,
    },
    /// The client declared the process finished (gateway-originated).
    Finish {
        /// The finished process.
        p: usize,
    },
    /// The client closed the session (gateway-originated, final).
    Close,
}

/// Messages a client sends to the monitor.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Version handshake: announces the client's protocol version.
    ///
    /// Optional — a peer that never sends one is served at
    /// [`WIRE_VERSION`]. A server answers with [`ServerMsg::Welcome`]
    /// when `version` is [`WIRE_VERSION`] and [`ServerMsg::Error`]
    /// (`unsupported protocol version …`) otherwise.
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u32,
    },
    /// Asks a gateway to drain one backend: stop placing new sessions
    /// on it, wait for its live sessions to close, then remove it.
    /// Answered with [`ServerMsg::Drained`] when complete. A plain
    /// monitor answers with an error — draining is a routing-layer
    /// concept.
    Drain {
        /// The backend's address, exactly as registered at serve time.
        backend: String,
    },
    /// Opens a monitoring session.
    Open {
        /// Session name; must be unused.
        session: String,
        /// Number of processes in the monitored computation.
        processes: usize,
        /// Declared variable names.
        vars: Vec<String>,
        /// Initial valuations, one map per process (missing = zeros).
        initial: Vec<BTreeMap<String, i64>>,
        /// Predicates to detect online.
        predicates: Vec<WirePredicate>,
        /// Distribution role (absent = a plain session).
        dist: Option<WireDistRole>,
    },
    /// One observed event: process `p` moved to a new local state.
    Event {
        /// Target session.
        session: String,
        /// Executing process.
        p: usize,
        /// Vector clock of the event (length = session's `processes`).
        clock: Vec<u32>,
        /// Variable assignments taking effect at the event.
        set: BTreeMap<String, i64>,
    },
    /// A batch of observed events for one session, in send order.
    ///
    /// Semantically identical to sending each member as
    /// a [`ClientMsg::Event`] in sequence — batching is purely a
    /// transport optimization and must never change verdicts. A batch
    /// is never empty; receivers reject zero-length batches so a
    /// corrupted length field cannot smuggle a no-op frame.
    Events {
        /// Target session.
        session: String,
        /// The events, oldest first. Never empty.
        events: Vec<EventFrame>,
    },
    /// One event of a distributed session, forwarded by the gateway to
    /// the worker owning the event's process.
    ///
    /// `seq` is the gateway-assigned position of the event in the
    /// session's total client-frame order; the worker echoes it in the
    /// [`ClientMsg::SliceUpdate`] its observation travels in, and the
    /// aggregator uses it to restore that order.
    DistEvent {
        /// Target worker session (the gateway-decorated name).
        session: String,
        /// Gateway-assigned sequence number of this event.
        seq: u64,
        /// The event itself.
        event: EventFrame,
    },
    /// One slice observation for a distributed session's aggregator:
    /// relayed by the gateway from a worker's
    /// [`ServerMsg::SliceUpdate`], or gateway-originated for the
    /// finish/close lifecycle markers.
    SliceUpdate {
        /// Target aggregator session (the client-visible name).
        session: String,
        /// The seq of the client frame this update settles.
        seq: u64,
        /// The observation.
        update: SliceUpdateBody,
    },
    /// Declares that process `p` will send no further events.
    FinishProcess {
        /// Target session.
        session: String,
        /// The finished process.
        p: usize,
    },
    /// Closes a session, flushing its buffer and settling verdicts.
    Close {
        /// Target session.
        session: String,
    },
    /// Requests a metrics snapshot.
    Stats,
    /// Asks the whole service to shut down gracefully.
    Shutdown,
}

impl ClientMsg {
    /// The session this message addresses; `None` for the
    /// connection-level messages (`hello`, `drain`, `stats`,
    /// `shutdown`), which a server answers without touching a session.
    pub fn session(&self) -> Option<&str> {
        match self {
            ClientMsg::Open { session, .. }
            | ClientMsg::Event { session, .. }
            | ClientMsg::Events { session, .. }
            | ClientMsg::DistEvent { session, .. }
            | ClientMsg::SliceUpdate { session, .. }
            | ClientMsg::FinishProcess { session, .. }
            | ClientMsg::Close { session } => Some(session),
            ClientMsg::Hello { .. }
            | ClientMsg::Drain { .. }
            | ClientMsg::Stats
            | ClientMsg::Shutdown => None,
        }
    }
}

/// Messages the monitor sends to a client.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Handshake acknowledgement: the server's protocol version.
    Welcome {
        /// The server's [`WIRE_VERSION`].
        version: u32,
    },
    /// A [`ClientMsg::Drain`] completed: the backend held no more live
    /// sessions and was removed from the routing set.
    Drained {
        /// The drained backend's address.
        backend: String,
        /// Sessions that were still live when the drain started.
        sessions: u64,
    },
    /// The session is open and accepting events.
    Opened {
        /// The session name.
        session: String,
    },
    /// A predicate's verdict settled (or was force-settled at close).
    Verdict {
        /// The session name.
        session: String,
        /// The predicate id from [`ClientMsg::Open`].
        predicate: String,
        /// The verdict.
        verdict: WireVerdict,
    },
    /// The session closed; one `Verdict` per predicate precedes this.
    Closed {
        /// The session name.
        session: String,
        /// Events still undeliverable (dropped) at close.
        discarded: u64,
    },
    /// A worker's slice observation for one forwarded event.
    ///
    /// Sent on the worker's connection back to the gateway, addressed
    /// to the *origin* session name; the gateway relays it to the
    /// aggregator as a [`ClientMsg::SliceUpdate`] with the same seq
    /// and body.
    SliceUpdate {
        /// The client-visible (origin) session name.
        session: String,
        /// The seq of the [`ClientMsg::DistEvent`] this answers.
        seq: u64,
        /// The observation.
        update: SliceUpdateBody,
    },
    /// A metrics snapshot: counter name → value.
    Stats {
        /// The counters.
        counters: BTreeMap<String, u64>,
    },
    /// A request failed; the session (if any) is unchanged.
    Error {
        /// The session the error concerns, when applicable.
        session: Option<String>,
        /// Machine-readable classification — one of the [`error_kind`]
        /// constants — when the server recognized the cause. Absent
        /// from unclassified errors; clients must not parse `message`.
        kind: Option<String>,
        /// Human-readable cause.
        message: String,
    },
    /// Graceful-shutdown acknowledgement; the connection closes next.
    Bye,
}

/// Machine-readable values for the `kind` field of [`ServerMsg::Error`].
///
/// Clients that replay frames for at-least-once delivery (the SDK
/// flusher, the gateway's failover journal) must tell expected replay
/// artifacts apart from real failures. Matching these constants is
/// stable; the human-readable `message` is free to be reworded.
pub mod error_kind {
    /// `Open` named a session that is already open. On a re-attach
    /// replay this is the proof the session survived the restart.
    pub const ALREADY_OPEN: &str = "already_open";
    /// An event the causal buffer has already delivered (expected when
    /// the unacked tail is replayed).
    pub const DUPLICATE_EVENT: &str = "duplicate_event";
    /// An event or finish for a process already declared finished
    /// (expected when a close window is replayed).
    pub const ALREADY_FINISHED: &str = "already_finished";
    /// `Open` asked for a distribution role this peer cannot honor: a
    /// `distribute` role on a plain monitor (distribution needs a
    /// gateway), or a distributed session whose predicates the workers
    /// cannot evaluate locally. NOT a
    /// replay artifact: the client must fall back to a plain session
    /// or fail the open, never retry it verbatim.
    pub const UNSUPPORTED_DISTRIBUTION: &str = "unsupported_distribution";

    /// `true` for kinds that are expected artifacts of at-least-once
    /// replay and re-attach rather than failures.
    pub fn is_benign_replay(kind: &str) -> bool {
        matches!(kind, ALREADY_OPEN | DUPLICATE_EVENT | ALREADY_FINISHED)
    }
}

// ---- serialization --------------------------------------------------------
//
// One declaration per record; three shapes are written by hand: the
// mode is a bare string, and a verdict carries its cut as a newtype
// variant.

impl Serialize for WireMode {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().into())
    }
}

impl Deserialize for WireMode {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let Value::Str(mode) = v else {
            return Err(DeError::expected("string", v));
        };
        match mode.as_str() {
            "conjunctive" => Ok(WireMode::Conjunctive),
            "disjunctive" => Ok(WireMode::Disjunctive),
            "pattern" => Ok(WireMode::Pattern),
            other => Err(DeError::msg(format!(
                "unknown predicate mode '{other}' (expected conjunctive, \
                 disjunctive, or pattern)"
            ))),
        }
    }
}

json_object!(WireClause {
    process,
    var,
    op,
    value
});

json_object!(WireAtom {
    process: opt,
    var,
    op,
    value,
    causal: skip_false,
});

json_object!(WirePattern { atoms } check nonempty_pattern);

fn nonempty_pattern(pattern: &WirePattern) -> Result<(), DeError> {
    if pattern.atoms.is_empty() {
        return Err(DeError::msg("empty pattern"));
    }
    Ok(())
}

json_object!(WirePredicate {
    id,
    mode,
    clauses: or_default,
    pattern: opt,
} check pattern_has_body);

fn pattern_has_body(pred: &WirePredicate) -> Result<(), DeError> {
    if pred.mode == WireMode::Pattern && pred.pattern.is_none() {
        return Err(DeError::msg("pattern predicate without a pattern body"));
    }
    Ok(())
}

impl Serialize for WireVerdict {
    fn to_value(&self) -> Value {
        match self {
            WireVerdict::Detected(cut) => Value::Object(vec![
                ("status".into(), "detected".to_value()),
                ("cut".into(), cut.to_value()),
            ]),
            WireVerdict::Impossible => {
                Value::Object(vec![("status".into(), "impossible".to_value())])
            }
            WireVerdict::Pending => Value::Object(vec![("status".into(), "pending".to_value())]),
        }
    }
}

impl Deserialize for WireVerdict {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match help::field::<String>(v, "status")?.as_str() {
            "detected" => Ok(WireVerdict::Detected(help::field(v, "cut")?)),
            "impossible" => Ok(WireVerdict::Impossible),
            "pending" => Ok(WireVerdict::Pending),
            other => Err(DeError::msg(format!("unknown verdict status '{other}'"))),
        }
    }
}

json_object!(EventFrame {
    p,
    clock,
    set: skip_empty,
});

json_tagged!(WireDistRole, "role",
    "unknown distribution role '{}' (expected distribute, worker, or aggregator)" {
    "distribute" => Distribute { k },
    "worker" => Worker { origin, worker, k },
    "aggregator" => Aggregator { k },
});

json_tagged!(SliceUpdateBody, "op", "unknown slice-update op '{}'" {
    "observe" => Observe { p, clock, holds: skip_empty, invalid: opt },
    "finish" => Finish { p },
    "close" => Close,
});

json_tagged!(ClientMsg, "type", "unknown client message '{}'" {
    "hello" => Hello { version },
    "drain" => Drain { backend },
    "open" => Open {
        session, processes, vars: or_default, initial: or_default, predicates: or_default, dist: opt
    },
    "event" => Event { session, p, clock, set: skip_empty },
    "events" => Events { session, events },
    "dist-event" => DistEvent { session, seq, event },
    "slice-update" => SliceUpdate { session, seq, update },
    "finish" => FinishProcess { session, p },
    "close" => Close { session },
    "stats" => Stats,
    "shutdown" => Shutdown,
}
check nonempty_batch;
serialize {
    fn write_json(&self, out: &mut String) -> bool {
        hot::encode_client(self, out)
    }
}
deserialize {
    fn from_json_bytes(json: &[u8]) -> Option<Self> {
        hot::decode_client::<false>(json).map(|(msg, _)| msg)
    }
});

fn nonempty_batch(msg: &ClientMsg) -> Result<(), DeError> {
    match msg {
        ClientMsg::Events { events, .. } if events.is_empty() => {
            Err(DeError::msg("empty event batch"))
        }
        _ => Ok(()),
    }
}

json_tagged!(ServerMsg, "type", "unknown server message '{}'" {
    "welcome" => Welcome { version },
    "drained" => Drained { backend, sessions: or_default },
    "opened" => Opened { session },
    "verdict" => Verdict { session, predicate, verdict },
    "closed" => Closed { session, discarded: or_default },
    "slice-update" => SliceUpdate { session, seq, update },
    "stats" => Stats { counters },
    "error" => Error { session: opt, kind: opt, message },
    "bye" => Bye,
}
serialize {
    fn write_json(&self, out: &mut String) -> bool {
        hot::encode_server(self, out)
    }
});

// ---- framing --------------------------------------------------------------

/// The JSON document a frame carries for `msg`: the per-event frames
/// written in one pass, everything else printed from `msg.to_value()`
/// — the same bytes either way. Also the canonical form the monitor's
/// write-ahead log stores.
pub fn encode_body<T: Serialize>(msg: &T) -> String {
    let mut body = String::new();
    if !msg.write_json(&mut body) {
        body = serde_json::to_string(msg).expect("wire values serialize");
    }
    body
}

/// A frame's JSON document back into its message — the one place that
/// knows how. The per-event frames in plain shape are read in one pass;
/// whatever that pass does not take goes through the `Value` tree,
/// which decides what is accepted and words every rejection.
///
/// Returns [`TraceError::Invalid`] for a body that is not UTF-8 and
/// [`TraceError::Json`] for malformed or misshapen JSON.
pub fn decode_body<T: Deserialize>(body: &[u8]) -> Result<T, TraceError> {
    match T::from_json_bytes(body) {
        Some(msg) => Ok(msg),
        None => value_route(body),
    }
}

/// A client frame's body decoded as [`decode_body`] decodes it, and
/// whether the body is **canonical**: byte for byte what
/// [`encode_body`] writes for the decoded message. The one-pass decoder
/// tells for the per-event frames as it reads them, at no extra pass;
/// every other body counts as not canonical. The monitor's write-ahead
/// log stores a canonical body as it arrived and encodes the rest.
/// (Telling costs the decoder a little; [`decode_body`] does not.)
pub fn decode_client_body(body: &[u8]) -> Result<(ClientMsg, bool), TraceError> {
    match hot::decode_client::<true>(body) {
        Some(decoded) => Ok(decoded),
        None => value_route(body).map(|msg| (msg, false)),
    }
}

/// A body through the `Value` tree, which decides what is accepted and
/// words every rejection.
fn value_route<T: Deserialize>(body: &[u8]) -> Result<T, TraceError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| TraceError::Invalid("frame body is not UTF-8".into()))?;
    let value = serde_json::parse_value(text)?;
    Ok(T::from_value(&value).map_err(serde_json::Error::from)?)
}

/// Writes one frame: `<len> <json>\n`.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> std::io::Result<()> {
    let body = encode_body(msg);
    writeln!(w, "{} {}", body.len(), body)?;
    w.flush()
}

/// Body bytes allocated before any of them arrived. The length prefix
/// is attacker-controlled: a frame that *claims* 16 MiB but delivers 10
/// bytes must cost this much, not 16 MiB; a longer body grows the
/// buffer as it actually comes in.
const BODY_PREALLOC_BYTES: usize = 64 << 10;

/// Reads one frame; `Ok(None)` signals a clean end of stream.
///
/// Returns a [`TraceError::Invalid`] on malformed framing and
/// [`TraceError::Json`] on malformed JSON inside a well-formed frame.
pub fn read_frame<R: BufRead, T: Deserialize>(r: &mut R) -> Result<Option<T>, TraceError> {
    read_body(r)?.map(|body| decode_body(&body)).transpose()
}

/// Reads one frame's body, undecoded: the framing half of
/// [`read_frame`], with the same errors for malformed framing.
pub fn read_body<R: BufRead>(r: &mut R) -> Result<Option<Vec<u8>>, TraceError> {
    let Some(len) = read_length(r)? else {
        return Ok(None);
    };
    if len > MAX_FRAME_BYTES as u64 {
        return Err(TraceError::Invalid(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }
    let len = len as usize;
    let mut body = Vec::with_capacity(len.min(BODY_PREALLOC_BYTES));
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
    // The newline terminator.
    let mut nl = [0u8; 1];
    r.read_exact(&mut nl)
        .map_err(|e| TraceError::Invalid(format!("truncated frame terminator: {e}")))?;
    if nl[0] != b'\n' {
        return Err(TraceError::Invalid("frame not newline-terminated".into()));
    }
    Ok(Some(body))
}

/// The length prefix — up to 12 ASCII digits, then one space — taken
/// from the reader's own buffer, however the bytes were split across
/// reads. `Ok(None)` is the stream ending before a frame began.
fn read_length<R: BufRead>(r: &mut R) -> Result<Option<u64>, TraceError> {
    let (mut len, mut digits) = (0u64, 0);
    loop {
        let buf = match r.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(TraceError::Invalid(format!("read error: {e}"))),
        };
        if buf.is_empty() {
            return if digits == 0 {
                Ok(None)
            } else {
                Err(TraceError::Invalid("truncated frame header".into()))
            };
        }
        let mut used = 0;
        let mut stop = None;
        for &byte in buf {
            used += 1;
            match byte {
                b'0'..=b'9' if digits < 12 => {
                    len = len * 10 + u64::from(byte - b'0');
                    digits += 1;
                }
                other => {
                    stop = Some(other);
                    break;
                }
            }
        }
        r.consume(used);
        match stop {
            None => {} // the buffer ended inside the prefix
            Some(b' ') if digits == 0 => {
                return Err(TraceError::Invalid("bad frame length".into()));
            }
            Some(b' ') => return Ok(Some(len)),
            Some(other) => {
                return Err(TraceError::Invalid(format!(
                    "bad frame header byte 0x{other:02x}"
                )));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(msg: T) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let mut r = Cursor::new(buf);
        let back: T = read_frame(&mut r).unwrap().expect("one frame");
        assert_eq!(back, msg);
        assert!(read_frame::<_, T>(&mut r).unwrap().is_none(), "stream ends");
    }

    #[test]
    fn client_messages_round_trip() {
        round_trip(ClientMsg::Open {
            session: "s1".into(),
            processes: 3,
            vars: vec!["x".into(), "y".into()],
            initial: vec![[("x".to_string(), 5i64)].into_iter().collect()],
            predicates: vec![
                WirePredicate {
                    id: "mutex".into(),
                    mode: WireMode::Conjunctive,
                    clauses: vec![
                        WireClause {
                            process: 0,
                            var: "x".into(),
                            op: "=".into(),
                            value: 2,
                        },
                        WireClause {
                            process: 2,
                            var: "x".into(),
                            op: ">=".into(),
                            value: 1,
                        },
                    ],
                    pattern: None,
                },
                WirePredicate {
                    id: "inversion".into(),
                    mode: WireMode::Pattern,
                    clauses: vec![],
                    pattern: Some(WirePattern {
                        atoms: vec![
                            WireAtom {
                                process: Some(1),
                                var: "x".into(),
                                op: "=".into(),
                                value: 0,
                                causal: false,
                            },
                            WireAtom {
                                process: None,
                                var: "y".into(),
                                op: ">=".into(),
                                value: 2,
                                causal: true,
                            },
                        ],
                    }),
                },
            ],
            dist: None,
        });
        round_trip(ClientMsg::Event {
            session: "s1".into(),
            p: 1,
            clock: vec![0, 2, 1],
            set: [("x".to_string(), -3i64)].into_iter().collect(),
        });
        round_trip(ClientMsg::FinishProcess {
            session: "s1".into(),
            p: 2,
        });
        round_trip(ClientMsg::Close {
            session: "s1".into(),
        });
        round_trip(ClientMsg::Stats);
        round_trip(ClientMsg::Shutdown);
        round_trip(ClientMsg::Hello {
            version: WIRE_VERSION,
        });
        round_trip(ClientMsg::Drain {
            backend: "127.0.0.1:7575".into(),
        });
    }

    #[test]
    fn server_messages_round_trip() {
        round_trip(ServerMsg::Opened {
            session: "s1".into(),
        });
        round_trip(ServerMsg::Verdict {
            session: "s1".into(),
            predicate: "mutex".into(),
            verdict: WireVerdict::Detected(vec![2, 1, 1]),
        });
        round_trip(ServerMsg::Verdict {
            session: "s1".into(),
            predicate: "mutex".into(),
            verdict: WireVerdict::Impossible,
        });
        round_trip(ServerMsg::Closed {
            session: "s1".into(),
            discarded: 4,
        });
        round_trip(ServerMsg::Stats {
            counters: [("events_ingested".to_string(), 17u64)]
                .into_iter()
                .collect(),
        });
        round_trip(ServerMsg::Error {
            session: None,
            kind: None,
            message: "no such session".into(),
        });
        round_trip(ServerMsg::Error {
            session: Some("s1".into()),
            kind: Some(error_kind::DUPLICATE_EVENT.into()),
            message: "duplicate event 3 of process 1".into(),
        });
        round_trip(ServerMsg::Bye);
        round_trip(ServerMsg::Welcome {
            version: WIRE_VERSION,
        });
        round_trip(ServerMsg::Drained {
            backend: "127.0.0.1:7575".into(),
            sessions: 3,
        });
    }

    #[test]
    fn event_batches_round_trip() {
        round_trip(ClientMsg::Events {
            session: "s1".into(),
            events: vec![
                EventFrame {
                    p: 0,
                    clock: vec![1, 0, 0],
                    set: [("x".to_string(), 7i64)].into_iter().collect(),
                },
                EventFrame {
                    p: 2,
                    clock: vec![1, 0, 1],
                    set: BTreeMap::new(),
                },
            ],
        });
    }

    #[test]
    fn dist_roles_round_trip() {
        for role in [
            WireDistRole::Distribute { k: 3 },
            WireDistRole::Worker {
                origin: "s1".into(),
                worker: 1,
                k: 3,
            },
            WireDistRole::Aggregator { k: 3 },
        ] {
            round_trip(ClientMsg::Open {
                session: "s1#w1".into(),
                processes: 4,
                vars: vec!["x".into()],
                initial: vec![],
                predicates: vec![],
                dist: Some(role),
            });
        }
    }

    #[test]
    fn dist_events_and_slice_updates_round_trip() {
        round_trip(ClientMsg::DistEvent {
            session: "s1#w0".into(),
            seq: 17,
            event: EventFrame {
                p: 2,
                clock: vec![0, 1, 3],
                set: [("x".to_string(), 9i64)].into_iter().collect(),
            },
        });
        for update in [
            SliceUpdateBody::Observe {
                p: 2,
                clock: vec![0, 1, 3],
                holds: vec![0, 2],
                invalid: None,
            },
            SliceUpdateBody::Observe {
                p: 2,
                clock: vec![0, 1, 3],
                holds: vec![],
                invalid: Some("undeclared variable 'z'".into()),
            },
            SliceUpdateBody::Finish { p: 1 },
            SliceUpdateBody::Close,
        ] {
            round_trip(ClientMsg::SliceUpdate {
                session: "s1".into(),
                seq: 18,
                update: update.clone(),
            });
            round_trip(ServerMsg::SliceUpdate {
                session: "s1".into(),
                seq: 18,
                update,
            });
        }
    }

    #[test]
    fn plain_opens_serialize_without_a_dist_key() {
        // Byte-compatibility with v4 captures: a session that never
        // asked for distribution must serialize exactly as before.
        let open = ClientMsg::Open {
            session: "s".into(),
            processes: 1,
            vars: vec![],
            initial: vec![],
            predicates: vec![],
            dist: None,
        };
        let json = serde_json::to_string(&open.to_value()).unwrap();
        assert!(!json.contains("dist"), "{json}");
        let distributed = ClientMsg::Open {
            session: "s".into(),
            processes: 1,
            vars: vec![],
            initial: vec![],
            predicates: vec![],
            dist: Some(WireDistRole::Distribute { k: 2 }),
        };
        let json = serde_json::to_string(&distributed.to_value()).unwrap();
        assert!(
            json.ends_with(r#""dist":{"role":"distribute","k":2}}"#),
            "{json}"
        );
    }

    #[test]
    fn unknown_dist_roles_are_rejected_by_name() {
        let mut buf = Vec::new();
        let body = r#"{"type":"open","session":"s","processes":1,"dist":{"role":"observer"}}"#;
        buf.extend_from_slice(format!("{} {}\n", body.len(), body).as_bytes());
        let err = read_frame::<_, ClientMsg>(&mut Cursor::new(buf)).unwrap_err();
        assert!(
            err.to_string().contains("unknown distribution role"),
            "{err}"
        );
    }

    #[test]
    fn unknown_slice_update_ops_are_rejected_by_name() {
        let mut buf = Vec::new();
        let body = r#"{"type":"slice-update","session":"s","seq":1,"update":{"op":"merge"}}"#;
        buf.extend_from_slice(format!("{} {}\n", body.len(), body).as_bytes());
        let err = read_frame::<_, ClientMsg>(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("unknown slice-update op"), "{err}");
    }

    #[test]
    fn zero_length_batch_is_rejected() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Value::Object(vec![
                ("type".into(), "events".to_value()),
                ("session".into(), "s1".to_value()),
                ("events".into(), Vec::<EventFrame>::new().to_value()),
            ]),
        )
        .unwrap();
        let err = read_frame::<_, ClientMsg>(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("empty event batch"), "{err}");
    }

    #[test]
    fn batch_members_match_their_single_frame_form() {
        let frame = EventFrame {
            p: 1,
            clock: vec![0, 3],
            set: [("y".to_string(), -1i64)].into_iter().collect(),
        };
        let single = frame.clone().into_event("s");
        // A batch member serializes exactly like the event body it
        // abbreviates: same fields, same empty-`set` omission.
        let member = serde_json::to_string(&frame.to_value()).unwrap();
        assert_eq!(member, r#"{"p":1,"clock":[0,3],"set":{"y":-1}}"#);
        assert_eq!(
            single,
            ClientMsg::Event {
                session: "s".into(),
                p: 1,
                clock: vec![0, 3],
                set: [("y".to_string(), -1i64)].into_iter().collect(),
            }
        );
        let bare = EventFrame {
            p: 0,
            clock: vec![1],
            set: BTreeMap::new(),
        };
        assert_eq!(
            serde_json::to_string(&bare.to_value()).unwrap(),
            r#"{"p":0,"clock":[1]}"#
        );
    }

    fn sample_open(
        mode: WireMode,
        pattern: Option<WirePattern>,
        dist: Option<WireDistRole>,
    ) -> ClientMsg {
        ClientMsg::Open {
            session: "s".into(),
            processes: 1,
            vars: vec!["x".into()],
            initial: vec![],
            predicates: vec![WirePredicate {
                id: "p".into(),
                mode,
                clauses: vec![],
                pattern,
            }],
            dist,
        }
    }

    fn sample_pattern() -> WirePattern {
        WirePattern {
            atoms: vec![WireAtom {
                process: None,
                var: "x".into(),
                op: "=".into(),
                value: 1,
                causal: false,
            }],
        }
    }

    /// One sample of every client message, `open` in each of its shapes.
    fn samples() -> Vec<ClientMsg> {
        let (open, pattern) = (sample_open, sample_pattern());
        let event = EventFrame {
            p: 0,
            clock: vec![1],
            set: BTreeMap::new(),
        };
        let session = || "s".to_string();
        vec![
            ClientMsg::Hello { version: 5 },
            ClientMsg::Drain {
                backend: "b".into(),
            },
            ClientMsg::Stats,
            ClientMsg::Shutdown,
            open(WireMode::Conjunctive, None, None),
            open(WireMode::Pattern, Some(pattern), None),
            open(
                WireMode::Conjunctive,
                None,
                Some(WireDistRole::Distribute { k: 2 }),
            ),
            event.clone().into_event("s"),
            ClientMsg::Events {
                session: session(),
                events: vec![event.clone()],
            },
            ClientMsg::DistEvent {
                session: session(),
                seq: 0,
                event,
            },
            ClientMsg::SliceUpdate {
                session: session(),
                seq: 0,
                update: SliceUpdateBody::Close,
            },
            ClientMsg::FinishProcess {
                session: session(),
                p: 0,
            },
            ClientMsg::Close { session: session() },
        ]
    }

    #[test]
    fn only_session_messages_name_a_session() {
        for msg in samples() {
            let connection_level = matches!(
                msg,
                ClientMsg::Hello { .. }
                    | ClientMsg::Drain { .. }
                    | ClientMsg::Stats
                    | ClientMsg::Shutdown
            );
            assert_eq!(msg.session(), (!connection_level).then_some("s"), "{msg:?}");
        }
    }

    #[test]
    fn only_replay_artifact_kinds_are_benign() {
        assert!(error_kind::is_benign_replay(error_kind::ALREADY_OPEN));
        assert!(error_kind::is_benign_replay(error_kind::DUPLICATE_EVENT));
        assert!(error_kind::is_benign_replay(error_kind::ALREADY_FINISHED));
        assert!(!error_kind::is_benign_replay("wal_append_failed"));
        assert!(!error_kind::is_benign_replay(""));
        // Refused distribution roles are real failures — retrying the
        // same open against the same peer can never succeed.
        assert!(!error_kind::is_benign_replay(
            error_kind::UNSUPPORTED_DISTRIBUTION
        ));
    }

    #[test]
    fn pattern_predicates_round_trip_and_omit_default_fields() {
        let pred = WirePredicate {
            id: "inv".into(),
            mode: WireMode::Pattern,
            clauses: vec![],
            pattern: Some(WirePattern {
                atoms: vec![
                    WireAtom {
                        process: None,
                        var: "unlock".into(),
                        op: "=".into(),
                        value: 1,
                        causal: false,
                    },
                    WireAtom {
                        process: Some(0),
                        var: "lock".into(),
                        op: "=".into(),
                        value: 1,
                        causal: false,
                    },
                ],
            }),
        };
        round_trip(pred.clone());
        // A wildcard, non-causal atom serializes without `process` or
        // `causal` keys — old captures stay greppable and minimal.
        let json = serde_json::to_string(&pred.to_value()).unwrap();
        assert_eq!(
            json,
            r#"{"id":"inv","mode":"pattern","clauses":[],"pattern":{"atoms":[{"var":"unlock","op":"=","value":1},{"process":0,"var":"lock","op":"=","value":1}]}}"#
        );
    }

    #[test]
    fn pattern_mode_requires_a_pattern_body() {
        let mut buf = Vec::new();
        let body = r#"{"id":"p","mode":"pattern","clauses":[]}"#;
        buf.extend_from_slice(format!("{} {}\n", body.len(), body).as_bytes());
        let err = read_frame::<_, WirePredicate>(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("without a pattern body"), "{err}");
    }

    #[test]
    fn empty_patterns_are_rejected() {
        let mut buf = Vec::new();
        let body = r#"{"id":"p","mode":"pattern","clauses":[],"pattern":{"atoms":[]}}"#;
        buf.extend_from_slice(format!("{} {}\n", body.len(), body).as_bytes());
        let err = read_frame::<_, WirePredicate>(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("empty pattern"), "{err}");
    }

    #[test]
    fn v3_decoders_would_refuse_pattern_mode_by_name() {
        // The guard a genuinely old build relies on: an unknown mode
        // string fails the predicate decode with a named-mode error.
        let mut buf = Vec::new();
        let body = r#"{"id":"p","mode":"regex","clauses":[]}"#;
        buf.extend_from_slice(format!("{} {}\n", body.len(), body).as_bytes());
        let err = read_frame::<_, WirePredicate>(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("unknown predicate mode"), "{err}");
    }

    #[test]
    fn v1_error_frames_without_kind_still_parse() {
        let mut buf = Vec::new();
        let body = r#"{"type":"error","session":"s1","message":"no such session 's1'"}"#;
        buf.extend_from_slice(format!("{} {}\n", body.len(), body).as_bytes());
        let msg: ServerMsg = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(
            msg,
            ServerMsg::Error {
                session: Some("s1".into()),
                kind: None,
                message: "no such session 's1'".into(),
            }
        );
    }

    #[test]
    fn version_window_is_enforced() {
        assert!(check_version(WIRE_VERSION).is_ok());
        for version in [0, 1, 4, 6] {
            assert_eq!(
                check_version(version),
                Err(format!(
                    "unsupported protocol version {version} (this peer speaks 5)"
                ))
            );
        }
    }

    #[test]
    fn frames_are_length_prefixed_json_lines() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &ClientMsg::Stats).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, "16 {\"type\":\"stats\"}\n");
    }

    #[test]
    fn multiple_frames_stream() {
        let mut buf = Vec::new();
        for p in 0..5usize {
            write_frame(
                &mut buf,
                &ClientMsg::FinishProcess {
                    session: "s".into(),
                    p,
                },
            )
            .unwrap();
        }
        let mut r = Cursor::new(buf);
        for p in 0..5usize {
            let msg: ClientMsg = read_frame(&mut r).unwrap().unwrap();
            assert_eq!(
                msg,
                ClientMsg::FinishProcess {
                    session: "s".into(),
                    p
                }
            );
        }
        assert!(read_frame::<_, ClientMsg>(&mut r).unwrap().is_none());
    }

    #[test]
    fn rejects_malformed_framing() {
        let cases: &[&[u8]] = &[
            b"abc {\"type\":\"stats\"}\n", // non-numeric length
            b"999 {\"type\":\"stats\"}\n", // truncated body
            b"16 {\"type\":\"stats\"}X",   // missing newline
            b"3 {}\n",                     // length mismatch eats newline
        ];
        for case in cases {
            let mut r = Cursor::new(case.to_vec());
            assert!(
                read_frame::<_, ClientMsg>(&mut r).is_err(),
                "{:?}",
                String::from_utf8_lossy(case)
            );
        }
    }

    #[test]
    fn rejects_oversized_frame_without_reading_it() {
        let header = format!("{} ", MAX_FRAME_BYTES + 1);
        let mut r = Cursor::new(header.into_bytes());
        let err = read_frame::<_, ClientMsg>(&mut r).unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn rejects_unknown_message_type() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Value::Object(vec![("type".into(), "warp".to_value())]),
        )
        .unwrap();
        let mut r = Cursor::new(buf);
        assert!(read_frame::<_, ClientMsg>(&mut r).is_err());
    }
}
