//! `ServiceSnapshot::to_json` writes the snapshot without a `Value`
//! tree; the tree stays the definition of the format. For members
//! driven by random streams — plain sessions sliced and unsliced, with
//! conjunctive, disjunctive and pattern predicates and events held for
//! their causal predecessors, distributed workers, and aggregators with
//! held, parked and refused updates — the direct text must be byte for
//! byte what printing `to_value()` gives, and must read back to the
//! same snapshot.

use hb_monitor::{
    AggregatorSlotSnapshot, DistAggregator, DistWorker, OverflowPolicy, ServiceSnapshot, Session,
    SessionLimits, WorkerSlotSnapshot,
};
use hb_tracefmt::wire::{
    SliceUpdateBody, WireAtom, WireClause, WireMode, WirePattern, WirePredicate,
};
use hb_vclock::VectorClock;
use proptest::prelude::*;
use serde::Serialize;
use std::collections::BTreeMap;

const N: usize = 3;

/// Variable names, one of which needs escapes in JSON.
fn vars() -> Vec<String> {
    vec!["x".into(), "y".into(), "q\"\\\n".into()]
}

fn clause(process: usize, var: &str, value: i64) -> WireClause {
    WireClause {
        process,
        var: var.into(),
        op: "=".into(),
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

fn conjunctive(id: &str) -> WirePredicate {
    WirePredicate {
        id: id.into(),
        mode: WireMode::Conjunctive,
        clauses: vec![clause(0, "x", 2), clause(1, "y", 1), clause(2, "x", 1)],
        pattern: None,
    }
}

fn predicates() -> Vec<WirePredicate> {
    vec![
        conjunctive("conj"),
        WirePredicate {
            id: "any \"one\"".into(),
            mode: WireMode::Disjunctive,
            clauses: vec![clause(0, "y", 3), clause(2, "q\"\\\n", 2)],
            pattern: None,
        },
        WirePredicate {
            id: "pat".into(),
            mode: WireMode::Pattern,
            clauses: vec![],
            pattern: Some(WirePattern {
                atoms: vec![
                    atom(Some(1), "x", 1, false),
                    atom(None, "y", 2, false),
                    atom(Some(0), "x", 3, true),
                ],
            }),
        },
    ]
}

/// One event as small integers: a process, a clock (in order with its
/// process, or as picked, which often holds it), and an assignment.
#[derive(Debug, Clone)]
struct Step {
    p: usize,
    in_order: bool,
    clock: [u32; N],
    var: usize,
    value: i64,
}

fn step() -> impl Strategy<Value = Step> {
    (
        0usize..N,
        prop_oneof![Just(true), Just(true), Just(false)],
        (0u32..4, 0u32..4, 0u32..4),
        0usize..3,
        prop_oneof![0i64..4, any::<i64>()],
    )
        .prop_map(|(p, in_order, (a, b, c), var, value)| Step {
            p,
            in_order,
            clock: [a, b, c],
            var,
            value,
        })
}

/// The next clock of each process, when events are stamped in order.
struct Clocks([u32; N]);

impl Clocks {
    fn stamp(&mut self, s: &Step) -> Vec<u32> {
        if s.in_order {
            self.0[s.p] += 1;
            self.0.to_vec()
        } else {
            let mut c = s.clock.to_vec();
            c[s.p] = c[s.p].max(1);
            c
        }
    }
}

fn session(name: &str, slice: bool, steps: &[Step]) -> Session {
    let limits = SessionLimits {
        buffer_capacity: 16,
        policy: OverflowPolicy::Reject,
        slice,
    };
    let mut s = Session::open(name, N, &vars(), &[], &predicates(), limits).expect("opens");
    let mut clocks = Clocks([0; N]);
    for st in steps {
        let set: BTreeMap<String, i64> = [(vars()[st.var].clone(), st.value)].into();
        let _ = s.event(st.p, VectorClock::from_components(clocks.stamp(st)), &set);
    }
    s
}

fn worker(steps: &[Step]) -> DistWorker {
    let preds = vec![conjunctive("conj")];
    let mut w = DistWorker::open(0, 2, N, &vars(), &[], &preds).expect("opens");
    let mut clocks = Clocks([0; N]);
    for (seq, st) in steps.iter().enumerate() {
        let set: BTreeMap<String, i64> = [(vars()[st.var].clone(), st.value)].into();
        // Every third position is skipped: later events wait for it.
        let seq = seq as u64 + seq as u64 / 3;
        w.observe(
            seq,
            st.p,
            VectorClock::from_components(clocks.stamp(st)),
            &set,
        );
    }
    w
}

fn aggregator(steps: &[Step]) -> DistAggregator {
    let preds = vec![conjunctive("conj")];
    let mut a =
        DistAggregator::open(2, N, &vars(), &[], &preds, 2, OverflowPolicy::Reject).expect("opens");
    let (mut clocks, mut next) = (Clocks([0; N]), 0u64);
    for (i, st) in steps.iter().enumerate() {
        let update = match st.var {
            0 | 1 => SliceUpdateBody::Observe {
                p: st.p,
                clock: clocks.stamp(st),
                holds: if st.value % 2 == 0 { vec![0] } else { vec![] },
                invalid: None,
            },
            _ => SliceUpdateBody::Finish { p: st.p },
        };
        if st.value == 3 {
            // A sequence number from the future: parked for good.
            a.update(1000 + i as u64, update);
        } else {
            a.update(next, update);
            next += 1;
        }
    }
    a
}

fn assert_direct_equals_tree(snap: &ServiceSnapshot) {
    let direct = snap.to_json();
    let tree = serde_json::to_string(&snap.to_value()).expect("serializes");
    assert_eq!(direct, tree);
    assert_eq!(
        &ServiceSnapshot::from_json(direct.as_bytes()).expect("reads back"),
        snap
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn direct_snapshot_text_is_the_value_tree_text(
        a in prop::collection::vec(step(), 0..40),
        b in prop::collection::vec(step(), 0..40),
        w in prop::collection::vec(step(), 0..20),
        g in prop::collection::vec(step(), 0..20),
    ) {
        let worker = worker(&w);
        let aggregator = aggregator(&g);
        let snap = ServiceSnapshot {
            sessions: vec![
                session("sliced", true, &a).snapshot(),
                session("un\"sliced", false, &b).snapshot(),
            ],
            workers: vec![WorkerSlotSnapshot {
                name: "d#w0".into(),
                origin: "d".into(),
                snap: worker.snapshot(),
            }],
            aggregators: vec![AggregatorSlotSnapshot {
                name: "d".into(),
                processes: N,
                snap: aggregator.snapshot(),
            }],
        };
        assert_direct_equals_tree(&snap);

        // And with the optional lists absent.
        let plain = ServiceSnapshot {
            sessions: snap.sessions.clone(),
            ..ServiceSnapshot::default()
        };
        assert_direct_equals_tree(&plain);
    }
}

#[test]
fn an_empty_service_snapshot() {
    assert_direct_equals_tree(&ServiceSnapshot::default());
}

/// The streams above do reach the states worth covering.
#[test]
fn the_streams_reach_held_parked_and_refused_members() {
    let steps: Vec<Step> = (0..30)
        .map(|i| Step {
            p: i % N,
            in_order: i % 5 != 4,
            clock: [20, 20, 20],
            var: i % 3,
            value: (i % 4) as i64,
        })
        .collect();
    let snap = session("s", true, &steps).snapshot();
    assert!(!snap.pipeline.held.is_empty(), "no held event");
    assert!(snap.pipeline.monitors.iter().any(|m| m.slice.is_some()));
    assert!(
        !worker(&steps).snapshot().held.is_empty(),
        "no held worker event"
    );
    let agg = aggregator(&steps).snapshot();
    assert!(!agg.reorder.is_empty(), "no parked update");
    assert!(
        !agg.pipeline.held.is_empty() || !agg.kept.is_empty(),
        "no held or refused update"
    );
}
