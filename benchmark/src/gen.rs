//! Workload generation. Everything the system under test receives is
//! made here, from the seed alone: the same seed gives the same bytes.

use hb_computation::Computation;
use hb_ctl::Engine;
use hb_sim::{causal_shuffle, random_computation, RandomSpec};
use hb_tracefmt::wire::{
    write_frame, ClientMsg, EventFrame, WireAtom, WireClause, WireMode, WirePattern, WirePredicate,
};
use hb_tracefmt::{TraceError, TraceFile};
use std::collections::BTreeMap;

/// How big each workload is. [`Sizes::full`] is what `BENCHMARK.json`
/// measures; [`Sizes::smoke`] is about 1/50 of it, for a CI job that
/// only needs the checks to run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Events per process of one stream session (8 processes each).
    pub stream_events_per_process: usize,
    /// Frames per second the open-loop sender is paced at.
    pub latency_frames_per_sec: u64,
    /// Width of the offline trace.
    pub offline_processes: usize,
    /// Events per process of the offline trace.
    pub offline_events_per_process: usize,
    /// Kill-and-restart cycles per burst behind one `recovery_s`; a run
    /// takes three bursts.
    pub recovery_cycles: usize,
    /// Cold starts per burst behind one `recovery_s` of a server that
    /// keeps nothing; a run takes two or three bursts.
    pub cold_starts: usize,
    /// Set-ups timed behind one `setup_s`.
    pub setup_repeats: usize,
    /// Rounds (sessions waves, passes) of a traced run's fixed-size
    /// legs, per ten seconds of `--seconds`.
    pub traced_rounds: usize,
}

impl Sizes {
    /// The measured sizes.
    pub fn full() -> Sizes {
        Sizes {
            stream_events_per_process: 4_096,
            latency_frames_per_sec: 20_000,
            offline_processes: 128,
            offline_events_per_process: 250,
            recovery_cycles: 2,
            cold_starts: 40,
            setup_repeats: 9,
            traced_rounds: 2,
        }
    }

    /// About 1/50 of [`Sizes::full`].
    pub fn smoke() -> Sizes {
        Sizes {
            stream_events_per_process: 82,
            latency_frames_per_sec: 4_000,
            offline_processes: 16,
            offline_events_per_process: 64,
            recovery_cycles: 1,
            cold_starts: 2,
            setup_repeats: 1,
            traced_rounds: 1,
        }
    }
}

/// Sessions in flight on the stream workloads' one connection.
pub const STREAM_SESSIONS: usize = 4;
/// Processes per stream or latency session.
pub const SESSION_PROCESSES: usize = 8;
/// Events per `events` frame.
pub const BATCH: usize = 64;
/// Events per process of one latency session.
pub const LATENCY_EVENTS_PER_PROCESS: usize = 16;
/// Latency sessions in flight at once.
pub const LATENCY_IN_FLIGHT: usize = 4;

/// SplitMix64: derives independent per-session seeds and plant
/// decisions from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn clause(process: usize, var: &str, op: &str, value: i64) -> WireClause {
    WireClause {
        process,
        var: var.into(),
        op: op.into(),
        value,
    }
}

fn conjunctive(id: &str, clauses: Vec<WireClause>) -> WirePredicate {
    WirePredicate {
        id: id.into(),
        mode: WireMode::Conjunctive,
        clauses,
        pattern: None,
    }
}

fn pattern(id: &str, atoms: &[(&str, i64)]) -> WirePredicate {
    WirePredicate {
        id: id.into(),
        mode: WireMode::Pattern,
        clauses: Vec::new(),
        pattern: Some(WirePattern {
            atoms: atoms
                .iter()
                .map(|&(var, value)| WireAtom {
                    process: None,
                    var: var.into(),
                    op: "=".into(),
                    value,
                    causal: false,
                })
                .collect(),
        }),
    }
}

/// The four predicates of a stream session. None can settle before
/// `close` (`x = -1` never occurs), so every detector works on every
/// event; the three conjunctive ones make the slicer admit none, about
/// 3 % and about half of the events of processes 1..7.
pub fn stream_predicates() -> Vec<WirePredicate> {
    let on_p1_up = |op: &str, value: i64| -> Vec<WireClause> {
        std::iter::once(clause(0, "x", "=", -1))
            .chain((1..SESSION_PROCESSES).map(|p| clause(p, "x", op, value)))
            .collect()
    };
    vec![
        conjunctive(
            "never",
            (0..SESSION_PROCESSES)
                .map(|p| clause(p, "x", "=", -1))
                .collect(),
        ),
        conjunctive("sparse", on_p1_up("=", 31)),
        conjunctive("dense", on_p1_up("<=", 15)),
        pattern("pat-open", &[("x", 1), ("x", 2), ("x", -1)]),
    ]
}

/// One stream session's events in send order: a seeded random
/// computation (30 % sends, `x` drawn from `0..32`) streamed as a
/// causality-respecting shuffle with reordering window 8.
pub fn stream_events(seed: u64, events_per_process: usize) -> Vec<EventFrame> {
    let comp = random_computation(RandomSpec {
        processes: SESSION_PROCESSES,
        events_per_process,
        send_percent: 30,
        value_range: 32,
        seed,
    });
    let x = comp.vars().lookup("x").expect("random traces declare x");
    causal_shuffle(&comp, seed ^ 0xdead_beef, 8)
        .into_iter()
        .map(|e| EventFrame {
            p: e.process,
            clock: comp.clock(e).components().to_vec(),
            set: [(
                "x".to_string(),
                comp.local_state(e.process, e.index as u32 + 1).get(x),
            )]
            .into_iter()
            .collect(),
        })
        .collect()
}

/// Pre-encoded frames, back to back, with each frame's start offset
/// (plus the total length as the last entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frames {
    /// The wire bytes.
    pub bytes: Vec<u8>,
    /// `offsets[i]..offsets[i + 1]` is frame `i`.
    pub offsets: Vec<usize>,
}

impl Frames {
    fn new() -> Frames {
        Frames {
            bytes: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Frame `i`'s bytes.
    pub fn frame(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The bytes of frames `from..to`.
    pub fn span(&self, from: usize, to: usize) -> &[u8] {
        &self.bytes[self.offsets[from]..self.offsets[to]]
    }

    fn push(&mut self, msg: &ClientMsg) {
        write_frame(&mut self.bytes, msg).expect("writing to memory cannot fail");
        self.offsets.push(self.bytes.len());
    }

    fn push_encoded(&mut self, frame: &[u8]) {
        self.bytes.extend_from_slice(frame);
        self.offsets.push(self.bytes.len());
    }
}

fn open_msg(session: &str, vars: &[&str], predicates: Vec<WirePredicate>) -> ClientMsg {
    ClientMsg::Open {
        session: session.into(),
        processes: SESSION_PROCESSES,
        vars: vars.iter().map(|v| v.to_string()).collect(),
        initial: Vec::new(),
        predicates,
        dist: None,
    }
}

/// One stream session as frames — `open`, 64-event `events` frames,
/// `close` — and the number of events they carry (sends are matched by
/// one receive each on top of the per-process quota).
pub fn stream_session_frames(name: &str, seed: u64, events_per_process: usize) -> (Frames, usize) {
    let mut frames = Frames::new();
    frames.push(&open_msg(name, &["x"], stream_predicates()));
    let events = stream_events(seed, events_per_process);
    for chunk in events.chunks(BATCH) {
        frames.push(&ClientMsg::Events {
            session: name.into(),
            events: chunk.to_vec(),
        });
    }
    frames.push(&ClientMsg::Close {
        session: name.into(),
    });
    (frames, events.len())
}

/// One round of the stream workloads: four sessions' frames on one
/// connection — the four `open`s, then their `events` frames in turn,
/// then the four `close`s. Replayed unchanged every round (a closed
/// session's name is free again).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// The frames, in send order.
    pub frames: Frames,
    /// Events carried.
    pub events: usize,
    /// Sessions opened and closed.
    pub sessions: usize,
}

/// Builds the stream round for `seed`.
pub fn stream_round(seed: u64, events_per_process: usize) -> Round {
    let (sessions, events): (Vec<Frames>, Vec<usize>) = (0..STREAM_SESSIONS)
        .map(|s| stream_session_frames(&format!("ws-{s}"), mix(seed, s as u64), events_per_process))
        .unzip();
    let mut frames = Frames::new();
    for s in &sessions {
        frames.push_encoded(s.frame(0));
    }
    let longest = sessions.iter().map(Frames::len).max().unwrap_or(0);
    for i in 1..longest.saturating_sub(1) {
        for s in &sessions {
            if i < s.len() - 1 {
                frames.push_encoded(s.frame(i));
            }
        }
    }
    for s in &sessions {
        frames.push_encoded(s.frame(s.len() - 1));
    }
    Round {
        frames,
        events: events.iter().sum(),
        sessions: STREAM_SESSIONS,
    }
}

/// What the generator planted in one latency session, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySession {
    /// Session name (`dl-<index>`).
    pub name: String,
    /// Whether every process's last event sets `hit = 1` (else the last
    /// process withholds it and `wide` can only settle at `close`).
    pub wide_planted: bool,
    /// Whether the unlock is concurrent with the lock (else it is
    /// causally after it and `inv` can only settle at `close`).
    pub inv_planted: bool,
    /// Index of the frame carrying the last event `wide` depends on.
    pub wide_frame: usize,
    /// Index of the frame carrying the last event `inv` depends on.
    pub inv_frame: usize,
}

/// The open-loop workload: single `event` frames in schedule order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyPlan {
    /// One frame per schedule slot.
    pub frames: Frames,
    /// Ground truth per session, by session index.
    pub sessions: Vec<LatencySession>,
    /// Events carried.
    pub events: usize,
}

/// The two predicates of a latency session: the `wide-session` and
/// `ordering-violation` plans of `hbtl loadgen`.
pub fn latency_predicates() -> Vec<WirePredicate> {
    vec![
        conjunctive(
            "wide",
            (0..SESSION_PROCESSES)
                .map(|p| clause(p, "hit", "=", 1))
                .collect(),
        ),
        pattern("inv", &[("unlock", 1), ("lock", 1)]),
    ]
}

/// Frames of one latency session: 8 message-free processes × 16
/// events, emitted round-robin. Process 0's first event locks and
/// process 1's first unlocks — causally after the lock (its clock has
/// seen it) unless `inv_planted`. Every process's last event sets
/// `hit = 1`, except the last process's when `wide_planted` is false.
fn latency_session_msgs(name: &str, wide_planted: bool, inv_planted: bool) -> Vec<ClientMsg> {
    let e = LATENCY_EVENTS_PER_PROCESS;
    let mut msgs = vec![open_msg(
        name,
        &["x", "hit", "lock", "unlock"],
        latency_predicates(),
    )];
    for k in 1..=e {
        for p in 0..SESSION_PROCESSES {
            let mut clock = vec![0u32; SESSION_PROCESSES];
            clock[p] = k as u32;
            if p == 1 && !inv_planted {
                clock[0] = 1;
            }
            let (var, value) = match (p, k) {
                (0, 1) => ("lock", 1),
                (1, 1) => ("unlock", 1),
                (p, k) if k == e && (wide_planted || p + 1 < SESSION_PROCESSES) => ("hit", 1),
                (_, k) => ("x", k as i64),
            };
            msgs.push(ClientMsg::Event {
                session: name.into(),
                p,
                clock,
                set: BTreeMap::from([(var.to_string(), value)]),
            });
        }
    }
    msgs.push(ClientMsg::Close {
        session: name.into(),
    });
    msgs
}

/// Builds `waves` waves of four interleaved latency sessions. One
/// session in eight withholds its hit; half plant the inversion.
pub fn latency_plan(seed: u64, waves: usize) -> LatencyPlan {
    let mut frames = Frames::new();
    let mut sessions = Vec::with_capacity(waves * LATENCY_IN_FLIGHT);
    let per_session = SESSION_PROCESSES * LATENCY_EVENTS_PER_PROCESS;
    for wave in 0..waves {
        let wave_start = frames.len();
        let wave_msgs: Vec<Vec<ClientMsg>> = (0..LATENCY_IN_FLIGHT)
            .map(|s| {
                let index = wave * LATENCY_IN_FLIGHT + s;
                let draw = mix(seed, index as u64);
                let wide_planted = draw & 7 != 0;
                let inv_planted = (draw >> 8) & 1 == 0;
                let name = format!("dl-{index}");
                // Frame i of a session sits at wave_start + i * 4 + s.
                let at = |i: usize| wave_start + i * LATENCY_IN_FLIGHT + s;
                let close = at(per_session + 1);
                sessions.push(LatencySession {
                    name: name.clone(),
                    wide_planted,
                    inv_planted,
                    // Event (p, k) is message 1 + (k-1)*8 + p.
                    wide_frame: if wide_planted { at(per_session) } else { close },
                    inv_frame: if inv_planted { at(2) } else { close },
                });
                latency_session_msgs(&name, wide_planted, inv_planted)
            })
            .collect();
        for i in 0..per_session + 2 {
            for msgs in &wave_msgs {
                frames.push(&msgs[i]);
            }
        }
    }
    LatencyPlan {
        frames,
        sessions,
        events: waves * LATENCY_IN_FLIGHT * per_session,
    }
}

/// One formula of the offline job with what the trace was built to
/// make of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OfflineFormula {
    /// Short name (`ef`, `ag_a2`, …) used in metric names.
    pub name: &'static str,
    /// The formula text for `hb_ctl::parse`.
    pub text: String,
    /// The verdict the trace's construction implies.
    pub expect: bool,
    /// The engine `hb_ctl::evaluate` must pick; anything else (above
    /// all a fall-back to `Baseline`) fails the run.
    pub engine: Engine,
}

/// The offline job's trace: a seeded random computation (30 % sends,
/// `x` drawn from `0..4`) with two planted variables. Every process's
/// last event sets `fin = 1`, so `fin` holds everywhere exactly at the
/// final cut; its first event sets `phase = 1` and its second
/// `phase = 2`, so every path out of the initial cut must cross a cut
/// with some process in phase 1.
pub fn offline_trace(
    seed: u64,
    processes: usize,
    events_per_process: usize,
) -> Result<Computation, TraceError> {
    let comp = random_computation(RandomSpec {
        processes,
        events_per_process,
        send_percent: 30,
        value_range: 4,
        seed,
    });
    let mut file = TraceFile::from_computation(&comp);
    file.vars.push("fin".into());
    let mut last = vec![None; processes];
    for (i, e) in file.events.iter().enumerate() {
        last[e.p] = Some(i);
    }
    for i in last.into_iter().flatten() {
        file.events[i].set.insert("fin".into(), 1);
    }
    file.vars.push("phase".into());
    let mut seen = vec![0i64; processes];
    for e in &mut file.events {
        seen[e.p] += 1;
        if seen[e.p] <= 2 {
            e.set.insert("phase".into(), seen[e.p]);
        }
    }
    file.to_computation()
}

/// The six formulas, each built so that the algorithm deciding it
/// cannot stop early on an `n`-process trace from [`offline_trace`]:
///
/// - `ef`: `x = 3` on all but the last process, which wants `x = 9`
///   (never): the least-cut walk keeps advancing until a process runs
///   out of events.
/// - `ag_a2`, `eg_a1`: `x <= 3` everywhere, which always holds.
/// - `eu_a3`: `x >= 0` until `fin` everywhere — first true at the
///   final cut.
/// - `af`: some process is in phase 1, inevitably; the backward walk
///   refuting `EG` of the negation only fails two events short of the
///   initial cut.
/// - `au`: some process is idle until some process is in phase 1 — the
///   same walk, through the `A[p U q]` identity.
pub fn offline_formulas(n: usize) -> Vec<OfflineFormula> {
    let all = |f: &dyn Fn(usize) -> String, sep: &str| -> String {
        (0..n).map(f).collect::<Vec<_>>().join(sep)
    };
    let ef = format!(
        "{} & x@{} = 9",
        (0..n - 1)
            .map(|i| format!("x@{i} = 3"))
            .collect::<Vec<_>>()
            .join(" & "),
        n - 1
    );
    let le3 = all(&|i| format!("x@{i} <= 3"), " & ");
    let ge0 = all(&|i| format!("x@{i} >= 0"), " & ");
    let fin_all = all(&|i| format!("fin@{i} = 1"), " & ");
    let idle_any = all(&|i| format!("phase@{i} = 0"), " | ");
    let started_any = all(&|i| format!("phase@{i} = 1"), " | ");
    let formula = |name, text, expect, engine| OfflineFormula {
        name,
        text,
        expect,
        engine,
    };
    vec![
        formula("ef", format!("EF({ef})"), false, Engine::ChaseGargEf),
        formula("ag_a2", format!("AG({le3})"), true, Engine::A2),
        formula("eg_a1", format!("EG({le3})"), true, Engine::A1Incremental),
        formula("eu_a3", format!("E[{ge0} U {fin_all}]"), true, Engine::A3),
        formula(
            "au",
            format!("A[{idle_any} U {started_any}]"),
            true,
            Engine::AuIdentity,
        ),
        formula(
            "af",
            format!("AF({started_any})"),
            true,
            Engine::A1Incremental,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(stream_round(7, 32), stream_round(7, 32));
        assert_ne!(
            stream_round(7, 32).frames.bytes,
            stream_round(8, 32).frames.bytes
        );
        assert_eq!(latency_plan(7, 3), latency_plan(7, 3));
        assert_ne!(
            latency_plan(7, 16).frames.bytes,
            latency_plan(8, 16).frames.bytes
        );
        let json = |seed| hb_tracefmt::to_json(&offline_trace(seed, 4, 8).expect("well-formed"));
        assert_eq!(json(7), json(7));
        assert_ne!(json(7), json(8));
    }

    #[test]
    fn round_interleaves_whole_sessions() {
        let round = stream_round(3, 40);
        // 8 × 40 events plus one receive per send, in 64-event frames.
        assert!(round.events >= 4 * 8 * 40);
        let per_session: usize = round.events.div_ceil(BATCH);
        assert!(round.frames.len() >= per_session);
        assert_eq!(round.frames.offsets.last(), Some(&round.frames.bytes.len()));
    }

    #[test]
    fn latency_plan_places_contributing_frames() {
        use hb_tracefmt::wire::read_frame;
        let plan = latency_plan(11, 8);
        assert_eq!(plan.frames.len(), 8 * 4 * 130);
        let decode = |i: usize| -> ClientMsg {
            read_frame(&mut std::io::Cursor::new(plan.frames.frame(i)))
                .expect("decodes")
                .expect("one frame")
        };
        assert!(plan.sessions.iter().any(|s| !s.wide_planted));
        assert!(plan.sessions.iter().any(|s| s.inv_planted));
        assert!(plan.sessions.iter().any(|s| !s.inv_planted));
        for s in &plan.sessions {
            match decode(s.wide_frame) {
                ClientMsg::Event {
                    session, p, set, ..
                } if s.wide_planted => {
                    assert_eq!((session.as_str(), p), (s.name.as_str(), 7));
                    assert_eq!(set.get("hit"), Some(&1));
                }
                ClientMsg::Close { session } if !s.wide_planted => assert_eq!(session, s.name),
                other => panic!("wide frame of {}: {other:?}", s.name),
            }
            match decode(s.inv_frame) {
                ClientMsg::Event { session, set, .. } if s.inv_planted => {
                    assert_eq!(session, s.name);
                    assert_eq!(set.get("unlock"), Some(&1));
                }
                ClientMsg::Close { session } if !s.inv_planted => assert_eq!(session, s.name),
                other => panic!("inv frame of {}: {other:?}", s.name),
            }
        }
    }
}
