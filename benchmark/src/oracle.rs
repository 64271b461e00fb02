//! The correct-output gate: what the server must answer, computed by
//! an in-process [`Session`] over the very bytes the server receives,
//! and the comparison that counts every difference as a failed
//! operation.

use hb_detect::online::OnlineVerdict;
use hb_monitor::{Session, SessionLimits, VerdictEvent};
use hb_tracefmt::wire::{read_frame, ClientMsg, ServerMsg, WireVerdict};
use hb_vclock::VectorClock;
use std::collections::BTreeMap;

/// Server replies per session, in the order the session emitted them.
/// Replies of different sessions interleave freely on the wire (shards
/// run concurrently), so order is only compared within a session.
pub type Replies = BTreeMap<String, Vec<ServerMsg>>;

fn wire_verdict(v: &OnlineVerdict) -> WireVerdict {
    match v {
        OnlineVerdict::Detected(cut) => WireVerdict::Detected(cut.counters().to_vec()),
        OnlineVerdict::Impossible => WireVerdict::Impossible,
        OnlineVerdict::Pending => WireVerdict::Pending,
    }
}

/// Appends the `verdict` frames the service sends for `verdicts`.
pub fn push_verdicts(out: &mut Vec<ServerMsg>, session: &str, verdicts: Vec<VerdictEvent>) {
    out.extend(verdicts.into_iter().map(|v| ServerMsg::Verdict {
        session: session.to_string(),
        predicate: v.predicate,
        verdict: wire_verdict(&v.verdict),
    }));
}

/// Decodes client frames from `bytes` and answers them the way the
/// service does — `opened`, a `verdict` the moment a predicate settles,
/// the rest at `close`, then `closed` — with default session limits.
/// Continues into `into`, so a stream cut in two (the recovery leg)
/// still yields the uninterrupted answer.
pub fn answer(bytes: &[u8], live: &mut BTreeMap<String, Session>, into: &mut Replies) {
    let mut r = std::io::Cursor::new(bytes);
    while let Some(msg) = read_frame::<_, ClientMsg>(&mut r).expect("generated frames decode") {
        let mut feed = |session: &str, p: usize, clock: Vec<u32>, set: &BTreeMap<String, i64>| {
            let out = into.entry(session.to_string()).or_default();
            let Some(s) = live.get_mut(session) else {
                out.push(error(session, "unknown session"));
                return;
            };
            match s.event(p, VectorClock::from_components(clock), set) {
                Ok(verdicts) => push_verdicts(out, session, verdicts),
                Err(e) => out.push(error(session, &e.to_string())),
            }
        };
        match msg {
            ClientMsg::Open {
                session,
                processes,
                vars,
                initial,
                predicates,
                ..
            } => {
                let out = into.entry(session.clone()).or_default();
                match Session::open(
                    &session,
                    processes,
                    &vars,
                    &initial,
                    &predicates,
                    SessionLimits::default(),
                ) {
                    Ok(mut s) => {
                        out.push(ServerMsg::Opened {
                            session: session.clone(),
                        });
                        push_verdicts(out, &session, s.take_initial_verdicts());
                        live.insert(session, s);
                    }
                    Err(e) => out.push(error(&session, &e.to_string())),
                }
            }
            ClientMsg::Event {
                session,
                p,
                clock,
                set,
            } => feed(&session, p, clock, &set),
            ClientMsg::Events { session, events } => {
                for e in events {
                    feed(&session, e.p, e.clock, &e.set);
                }
            }
            ClientMsg::Close { session } => {
                let out = into.entry(session.clone()).or_default();
                match live.remove(&session) {
                    Some(mut s) => {
                        let (verdicts, discarded) = s.close();
                        push_verdicts(out, &session, verdicts);
                        out.push(ServerMsg::Closed { session, discarded });
                    }
                    None => out.push(error(&session, "unknown session")),
                }
            }
            other => panic!("the generator never sends {other:?}"),
        }
    }
}

/// The expected replies to a self-contained stream of client frames.
pub fn expected(bytes: &[u8]) -> Replies {
    let mut replies = Replies::new();
    answer(bytes, &mut BTreeMap::new(), &mut replies);
    replies
}

fn error(session: &str, message: &str) -> ServerMsg {
    ServerMsg::Error {
        session: Some(session.to_string()),
        kind: None,
        message: message.to_string(),
    }
}

/// Groups what a connection received by session. Frames that name no
/// session (a protocol error) go under the empty name, where nothing is
/// expected, so they count as failures.
pub fn group(received: Vec<ServerMsg>) -> Replies {
    let mut replies = Replies::new();
    for msg in received {
        let session = match &msg {
            ServerMsg::Opened { session }
            | ServerMsg::Verdict { session, .. }
            | ServerMsg::Closed { session, .. } => session.clone(),
            ServerMsg::Error { session, .. } => session.clone().unwrap_or_default(),
            _ => String::new(),
        };
        replies.entry(session).or_default().push(msg);
    }
    replies
}

/// Counts the differences between what was expected and what arrived:
/// per session, every position where the two sequences differ, plus
/// every frame missing or in excess.
pub fn mismatches(expected: &Replies, got: &Replies) -> usize {
    let mut failed = 0;
    for (session, want) in expected {
        let have = got.get(session).map_or(&[][..], Vec::as_slice);
        failed += want.iter().zip(have).filter(|(w, h)| w != h).count();
        failed += want.len().abs_diff(have.len());
    }
    failed += got
        .iter()
        .filter(|(session, _)| !expected.contains_key(*session))
        .map(|(_, frames)| frames.len())
        .sum::<usize>();
    failed
}

/// The verdict and `closed` frames of a reply sequence: what a client
/// that re-attached after a restart must still be told.
pub fn outcomes(frames: &[ServerMsg]) -> Vec<ServerMsg> {
    frames
        .iter()
        .filter(|m| matches!(m, ServerMsg::Verdict { .. } | ServerMsg::Closed { .. }))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn oracle_agrees_with_planted_ground_truth() {
        let plan = gen::latency_plan(5, 16);
        let replies = expected(&plan.frames.bytes);
        let (mut detected, mut impossible) = (0, 0);
        for s in &plan.sessions {
            let frames = &replies[&s.name];
            assert!(matches!(frames.first(), Some(ServerMsg::Opened { .. })));
            assert!(matches!(
                frames.last(),
                Some(ServerMsg::Closed { discarded: 0, .. })
            ));
            for (id, planted) in [("wide", s.wide_planted), ("inv", s.inv_planted)] {
                let verdict = frames
                    .iter()
                    .find_map(|m| match m {
                        ServerMsg::Verdict {
                            predicate, verdict, ..
                        } if predicate == id => Some(verdict),
                        _ => None,
                    })
                    .expect("one verdict per predicate");
                assert_eq!(matches!(verdict, WireVerdict::Detected(_)), planted);
                if planted {
                    detected += 1;
                } else {
                    assert_eq!(verdict, &WireVerdict::Impossible);
                    impossible += 1;
                }
            }
        }
        assert!(detected > 0 && impossible > 0, "both outcomes occur");
    }

    #[test]
    fn tampered_verdict_trips_the_gate() {
        let round = gen::stream_round(9, 48);
        let want = expected(&round.frames.bytes);
        assert_eq!(want.len(), gen::STREAM_SESSIONS);
        assert_eq!(mismatches(&want, &want.clone()), 0);

        // One verdict flipped.
        let mut flipped = want.clone();
        let frames = flipped.get_mut("ws-2").expect("session ws-2");
        let verdict = frames
            .iter_mut()
            .find_map(|m| match m {
                ServerMsg::Verdict { verdict, .. } => Some(verdict),
                _ => None,
            })
            .expect("a verdict frame");
        assert_eq!(*verdict, WireVerdict::Impossible);
        *verdict = WireVerdict::Detected(vec![1; 8]);
        assert_eq!(mismatches(&want, &flipped), 1);

        // One verdict lost: everything after it shifts, and one is missing.
        let mut short = want.clone();
        short.get_mut("ws-0").expect("session ws-0").remove(1);
        assert!(mismatches(&want, &short) >= 1);

        // An unsolicited error frame.
        let mut noisy = want.clone();
        noisy
            .entry(String::new())
            .or_default()
            .push(ServerMsg::Error {
                session: None,
                kind: None,
                message: "bad frame".into(),
            });
        assert_eq!(mismatches(&want, &noisy), 1);
    }

    #[test]
    fn a_stream_cut_in_two_gives_the_uninterrupted_answer() {
        let (frames, _) = gen::stream_session_frames("cut", 4, 40);
        let whole = expected(&frames.bytes);
        let half = frames.len() / 2;
        let (mut live, mut replies) = (BTreeMap::new(), Replies::new());
        answer(frames.span(0, half), &mut live, &mut replies);
        answer(frames.span(half, frames.len()), &mut live, &mut replies);
        assert_eq!(replies, whole);
    }
}
