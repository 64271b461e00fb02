//! Property tests: replaying a shuffled computation through a monitor
//! session is equivalent to offline detection on the recorded trace.
//!
//! The pipeline under test is the full ingestion stack — wire-shaped
//! predicates, causal delivery, per-process state reconstruction, and
//! the on-line detectors — driven by `hb_sim::causal_shuffle`, the
//! bounded-reordering transport model. The oracle is the offline
//! `ef_linear` detector on the same computation.

use hb_computation::{Computation, EventId};
use hb_detect::ef_linear;
use hb_detect::online::OnlineVerdict;
use hb_monitor::{MonitorConfig, MonitorService, Session, SessionLimits};
use hb_predicates::{CmpOp, Conjunctive, LocalExpr};
use hb_sim::{causal_shuffle, random_computation, random_linearization, RandomSpec};
use hb_tracefmt::wire::{error_kind, ClientMsg, ServerMsg, WireClause, WireMode, WirePredicate};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A predicate spec: per-process, `Some(target)` means the clause
/// `x = target` on that process.
type Spec = Vec<Option<i64>>;

fn spec(n: usize, value_range: i64) -> impl Strategy<Value = Spec> {
    // At least one clause: an all-`None` spec is not a predicate (the
    // session rejects empty clause lists).
    (
        prop::collection::vec(prop::option::of(0..value_range), n),
        0..n,
        0..value_range,
    )
        .prop_map(|(mut sp, anchor, value)| {
            if sp.iter().all(Option::is_none) {
                sp[anchor] = Some(value);
            }
            sp
        })
}

fn wire_predicate(spec: &Spec) -> WirePredicate {
    WirePredicate {
        id: "p".into(),
        mode: WireMode::Conjunctive,
        clauses: spec
            .iter()
            .enumerate()
            .filter_map(|(i, t)| {
                t.map(|value| WireClause {
                    process: i,
                    var: "x".into(),
                    op: "=".into(),
                    value,
                })
            })
            .collect(),
        pattern: None,
    }
}

fn offline_predicate(comp: &Computation, spec: &Spec) -> Conjunctive {
    let x = comp.vars().lookup("x").expect("sim declares x");
    Conjunctive::new(
        spec.iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|v| (i, LocalExpr::Cmp(x, CmpOp::Eq, v))))
            .collect(),
    )
}

/// Process `p`'s variables after `taken` of its events.
fn state_map(comp: &Computation, p: usize, taken: u32) -> BTreeMap<String, i64> {
    let state = comp.local_state(p, taken);
    comp.vars()
        .iter()
        .map(|(id, name)| (name.to_string(), state.get(id)))
        .collect()
}

/// Replays `comp` into a fresh session in the given arrival order and
/// returns (final verdict, max held, delivered count).
fn replay(
    comp: &Computation,
    spec: &Spec,
    order: &[hb_computation::EventId],
) -> (OnlineVerdict, usize, u64) {
    let vars: Vec<String> = comp.vars().iter().map(|(_, s)| s.to_string()).collect();
    let n = comp.num_processes();
    let initial: Vec<BTreeMap<String, i64>> = (0..n).map(|p| state_map(comp, p, 0)).collect();
    let mut session = Session::open(
        "replay",
        n,
        &vars,
        &initial,
        &[wire_predicate(spec)],
        SessionLimits::default(),
    )
    .expect("open");
    let mut verdicts = session.take_initial_verdicts();
    let mut max_held = 0;
    for e in order {
        let set = state_map(comp, e.process, e.index as u32 + 1);
        verdicts.extend(
            session
                .event(e.process, comp.clock(*e).clone(), &set)
                .expect("replay event accepted"),
        );
        max_held = max_held.max(session.held());
    }
    for p in 0..n {
        verdicts.extend(session.finish_process(p).expect("finish"));
    }
    assert!(verdicts.len() <= 1, "verdict emitted at most once");
    let verdict = verdicts
        .pop()
        .map(|v| v.verdict)
        .unwrap_or_else(|| session.all_verdicts()[0].verdict.clone());
    (verdict, max_held, session.delivered())
}

/// Streams `arrivals` — which may re-send events — into a one-session
/// in-process service, then every finish, then a frame the shard always
/// refuses (an out-of-range process) as an in-order barrier. Returns
/// what the client saw up to the barrier: the verdict frames, the kind
/// of every error frame, and the `events_held` gauge — all before any
/// `close`.
fn serve_until_finished(
    comp: &Computation,
    spec: &Spec,
    arrivals: &[EventId],
) -> (Vec<ServerMsg>, Vec<Option<String>>, u64) {
    let n = comp.num_processes();
    let session = || "replay".to_string();
    let event = |p: usize, clock: Vec<u32>, set| ClientMsg::Event {
        session: session(),
        p,
        clock,
        set,
    };
    let service = MonitorService::start(MonitorConfig::default());
    let handle = service.handle();
    let (tx, rx) = crossbeam::channel::unbounded();
    handle.submit(
        ClientMsg::Open {
            session: session(),
            processes: n,
            vars: comp.vars().iter().map(|(_, s)| s.to_string()).collect(),
            initial: (0..n).map(|p| state_map(comp, p, 0)).collect(),
            predicates: vec![wire_predicate(spec)],
            dist: None,
        },
        &tx,
    );
    for e in arrivals {
        let set = state_map(comp, e.process, e.index as u32 + 1);
        let clock = comp.clock(*e).components().to_vec();
        handle.submit(event(e.process, clock, set), &tx);
    }
    for p in 0..n {
        let finish = ClientMsg::FinishProcess {
            session: session(),
            p,
        };
        handle.submit(finish, &tx);
    }
    handle.submit(event(n, vec![0; n], BTreeMap::new()), &tx);
    let (mut verdicts, mut error_kinds) = (Vec::new(), Vec::new());
    let barrier = format!("process {n} out of range");
    for frame in rx.iter() {
        match frame {
            ServerMsg::Opened { .. } => {}
            ServerMsg::Verdict { .. } => verdicts.push(frame),
            ServerMsg::Error { message, .. } if message.contains(&barrier) => break,
            ServerMsg::Error { kind, .. } => error_kinds.push(kind),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    let held = handle.stats().events_held;
    service.shutdown();
    (verdicts, error_kinds, held)
}

fn computation(seed: u64, processes: usize, events: usize) -> Computation {
    random_computation(RandomSpec {
        processes,
        events_per_process: events,
        send_percent: 35,
        value_range: 3,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any bounded-window shuffle delivers the whole computation (the
    /// causal buffer repairs the order) and the online verdict — verdict
    /// *and* least satisfying cut — matches offline detection.
    #[test]
    fn shuffled_replay_matches_offline_ef(
        seed in 0u64..1_000,
        shuffle_seed in 0u64..1_000,
        window in 0usize..16,
        sp in spec(3, 3),
    ) {
        let comp = computation(seed, 3, 6);
        let p = offline_predicate(&comp, &sp);
        let offline = ef_linear(&comp, &p);
        let order = causal_shuffle(&comp, shuffle_seed, window);
        let (verdict, _, delivered) = replay(&comp, &sp, &order);
        prop_assert_eq!(delivered as usize, comp.num_events(), "every event delivered");
        match verdict {
            OnlineVerdict::Detected(cut) => {
                prop_assert!(offline.holds);
                prop_assert_eq!(Some(cut), offline.witness);
            }
            OnlineVerdict::Impossible => prop_assert!(!offline.holds),
            OnlineVerdict::Pending => prop_assert!(false, "finished replay left Pending"),
        }
    }

    /// A plain linearization never needs the hold buffer; prefixes are
    /// consistent cuts by construction.
    #[test]
    fn linearized_replay_never_holds(
        seed in 0u64..1_000,
        lin_seed in 0u64..1_000,
        sp in spec(3, 3),
    ) {
        let comp = computation(seed, 3, 5);
        let order = random_linearization(&comp, lin_seed);
        let (_, max_held, delivered) = replay(&comp, &sp, &order);
        prop_assert_eq!(max_held, 0, "in-causal-order arrival is never held");
        prop_assert_eq!(delivered as usize, comp.num_events());
    }

    /// The verdict is independent of the arrival order: two different
    /// shuffles of the same computation agree exactly.
    #[test]
    fn verdict_is_arrival_order_independent(
        seed in 0u64..500,
        s1 in 0u64..500,
        s2 in 500u64..1_000,
        sp in spec(3, 3),
    ) {
        let comp = computation(seed, 3, 5);
        let (v1, _, _) = replay(&comp, &sp, &causal_shuffle(&comp, s1, 9));
        let (v2, _, _) = replay(&comp, &sp, &causal_shuffle(&comp, s2, 3));
        prop_assert_eq!(v1, v2);
    }

    /// At-least-once transport: events re-sent at random later positions
    /// — often while their first copy is still held — are each refused
    /// as `duplicate_event` and change nothing else. The client sees
    /// the verdict frames of the duplicate-free stream, settled by the
    /// finishes alone, and no copy stays behind in the hold buffer.
    #[test]
    fn resent_events_are_refused_and_change_nothing(
        seed in 0u64..1_000,
        shuffle_seed in 0u64..1_000,
        window in 0usize..16,
        sp in spec(3, 3),
        resends in prop::collection::vec((0usize..1_000, 0usize..6, any::<bool>()), 1..8),
    ) {
        let comp = computation(seed, 3, 6);
        let order = causal_shuffle(&comp, shuffle_seed, window);
        let mut arrivals = order.clone();
        for &(which, gap, near) in &resends {
            let e = order[which % order.len()];
            let first = arrivals.iter().position(|a| *a == e).expect("every event is sent");
            let room = arrivals.len() - first;
            // Near: within a few frames of the first copy, where a
            // shuffled event is likely still held. Far: anywhere later.
            let offset = if near { gap.min(room - 1) } else { which % room };
            arrivals.insert(first + 1 + offset, e);
        }
        let (clean_verdicts, clean_errors, clean_held) = serve_until_finished(&comp, &sp, &order);
        prop_assert!(clean_errors.is_empty(), "{:?}", clean_errors);
        prop_assert_eq!(clean_verdicts.len(), 1, "the finishes settle the predicate");
        prop_assert_eq!(clean_held, 0);

        let (verdicts, errors, held) = serve_until_finished(&comp, &sp, &arrivals);
        prop_assert_eq!(verdicts, clean_verdicts);
        prop_assert_eq!(errors, vec![Some(error_kind::DUPLICATE_EVENT.to_string()); resends.len()]);
        prop_assert_eq!(held, 0, "a refused copy must not stay in the hold buffer");
    }
}
