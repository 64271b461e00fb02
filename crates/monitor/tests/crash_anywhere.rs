//! Property test: a crash at any WAL position is invisible.
//!
//! A random stream of frames — valid and refused, interleaved over a
//! plain session, a distributed worker partition and an aggregator —
//! goes through one service without interruption, and through another
//! that is killed after a random prefix and reopened on the same data
//! directory. What the second service emits after recovery, and the
//! [`ServiceSnapshot`] it ends with, must equal the first one's.
//!
//! Recovery rebuilds members by feeding the WAL through the very code
//! the live shard loop runs; this test is the lock on that claim. The
//! only tolerated difference is the documented one: a recovered member
//! re-reports its already settled verdicts to the first client that
//! touches it.

use crossbeam::channel::{unbounded, Receiver, Sender};
use hb_monitor::{MonitorConfig, MonitorHandle, MonitorService, PersistConfig, ServiceSnapshot};
use hb_store::{Store, StoreOptions, SyncPolicy};
use hb_tracefmt::wire::{
    ClientMsg, EventFrame, ServerMsg, SliceUpdateBody, WireClause, WireDistRole, WireMode,
    WirePredicate,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// ---- the stream -----------------------------------------------------------

/// The session names frames address: the plain session, the worker
/// partition, the aggregator, and one nobody ever opens.
const NAMES: [&str; 4] = ["p", "d#w0", "d", "ghost"];

/// One frame of the stream, as small integers (so a failing case prints
/// readably) that [`Stream::frame`] turns into a wire message.
#[derive(Debug, Clone)]
struct Pick {
    name: usize,
    /// Indexes the addressed member's menu of frame kinds.
    roll: usize,
    /// The kind when the menu says "anything" — usually a frame the
    /// member refuses.
    kind: usize,
    /// Stamp events with the next clock (and sequence number) of their
    /// process instead of `clock`/`seq` as picked.
    in_order: bool,
    p: usize,
    clock: (u32, u32),
    value: i64,
    seq: u64,
    flag: bool,
}

fn pick() -> impl Strategy<Value = Pick> {
    (
        // Mostly the three members; the unopened name now and then.
        prop_oneof![0usize..3, 0usize..3, 0usize..4],
        (0usize..10, 0usize..8),
        prop_oneof![Just(true), Just(true), any::<bool>()],
        // Process 2 is out of range for the 2-process computation.
        prop_oneof![0usize..2, 0usize..2, 0usize..3],
        (0u32..4, 0u32..4),
        0i64..3,
        0u64..6,
        any::<bool>(),
    )
        .prop_map(
            |(name, (roll, kind), in_order, p, clock, value, seq, flag)| Pick {
                name,
                roll,
                kind,
                in_order,
                p,
                clock,
                value,
                seq,
                flag,
            },
        )
}

/// The Fig. 2 computation's open — two processes, `x0 = 2 ∧ x1 = 1` —
/// under the role that makes `name` the member it is meant to be, or,
/// with `cross`, under another member's role (a refused open).
fn open(name: usize, cross: bool) -> ClientMsg {
    let role = |n: usize| match n {
        1 => Some(WireDistRole::Worker {
            origin: "d".into(),
            worker: 0,
            k: 1,
        }),
        2 => Some(WireDistRole::Aggregator { k: 1 }),
        _ => None,
    };
    ClientMsg::Open {
        session: NAMES[name].into(),
        processes: 2,
        vars: vec!["x0".into(), "x1".into()],
        initial: vec![],
        predicates: vec![WirePredicate {
            id: "ef".into(),
            mode: WireMode::Conjunctive,
            clauses: [(0, 2), (1, 1)]
                .into_iter()
                .map(|(process, value)| WireClause {
                    process,
                    var: format!("x{process}"),
                    op: "=".into(),
                    value,
                })
                .collect(),
            pattern: None,
        }],
        dist: role(if cross { (name + 1) % 3 } else { name }),
    }
}

/// Frame kinds, by number: 0 open, 1 event, 2 events, 3 finish,
/// 4 dist-event, 5 slice-update observe, 6 slice-update finish/close,
/// 7 close. Each member's menu is mostly its own frames, a reopen, a
/// close, and one "anything" (8) slot.
const MENUS: [[usize; 10]; 3] = [
    [1, 1, 1, 1, 2, 2, 3, 0, 7, 8],
    [4, 4, 4, 4, 4, 4, 4, 0, 7, 8],
    [5, 5, 5, 5, 5, 5, 6, 0, 7, 8],
];

/// Turns picks into frames, keeping per-member event counts so that
/// in-order picks form a realizable computation (events get delivered
/// and verdicts settle) while the others arrive early, late or twice.
#[derive(Default)]
struct Stream {
    counts: [[u32; 2]; 4],
    seqs: [u64; 4],
}

impl Stream {
    fn event(&mut self, pick: &Pick, p: usize) -> EventFrame {
        let mut clock = vec![pick.clock.0, pick.clock.1];
        if pick.in_order && p < 2 {
            let counts = &mut self.counts[pick.name];
            counts[p] += 1;
            clock[p] = counts[p];
            clock[1 - p] %= counts[1 - p] + 1;
        }
        // Now and then a variable nobody declared.
        let var = if pick.flag && pick.value == 0 {
            "y".to_string()
        } else {
            format!("x{}", p.min(1))
        };
        EventFrame {
            p,
            clock,
            set: [(var, pick.value)].into_iter().collect(),
        }
    }

    fn seq(&mut self, pick: &Pick) -> u64 {
        if !pick.in_order {
            return pick.seq;
        }
        self.seqs[pick.name] += 1;
        self.seqs[pick.name] - 1
    }

    fn frame(&mut self, pick: &Pick) -> ClientMsg {
        let session = NAMES[pick.name].to_string();
        let kind = match MENUS.get(pick.name).map_or(8, |menu| menu[pick.roll]) {
            8 => pick.kind,
            kind => kind,
        };
        match kind {
            0 => open(pick.name.min(2), pick.flag),
            1 => self.event(pick, pick.p).into_event(&session),
            2 => ClientMsg::Events {
                session,
                events: vec![
                    self.event(pick, pick.p),
                    self.event(pick, 1 - pick.p.min(1)),
                ],
            },
            3 => ClientMsg::FinishProcess { session, p: pick.p },
            4 => ClientMsg::DistEvent {
                session,
                seq: self.seq(pick),
                event: self.event(pick, pick.p),
            },
            5 => {
                let event = self.event(pick, pick.p);
                let invalid = event.set.contains_key("y");
                ClientMsg::SliceUpdate {
                    session,
                    seq: self.seq(pick),
                    update: SliceUpdateBody::Observe {
                        p: event.p,
                        clock: event.clock,
                        holds: if pick.value > 0 { vec![0] } else { vec![] },
                        invalid: invalid.then(|| "bad event: undeclared variable 'y'".into()),
                    },
                }
            }
            6 => ClientMsg::SliceUpdate {
                session,
                seq: self.seq(pick),
                update: if pick.flag {
                    SliceUpdateBody::Finish { p: pick.p }
                } else {
                    SliceUpdateBody::Close
                },
            },
            _ => ClientMsg::Close { session },
        }
    }
}

/// The three members' valid opens, then the picked frames.
fn stream(picks: &[Pick]) -> Vec<ClientMsg> {
    let mut state = Stream::default();
    (0..3)
        .map(|name| open(name, false))
        .chain(picks.iter().map(|pick| state.frame(pick)))
        .collect()
}

// ---- the services ---------------------------------------------------------

fn fresh_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let case = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join("hb-monitor-crash-anywhere")
        .join(format!("{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service(dir: &Path, snapshot_every: u64) -> MonitorService {
    MonitorService::open(MonitorConfig {
        shards: 2,
        persist: Some(PersistConfig {
            sync: SyncPolicy::Os,
            snapshot_every,
            ..PersistConfig::new(dir.to_path_buf())
        }),
        ..MonitorConfig::default()
    })
    .expect("service opens")
}

/// Submits `frames` one at a time with a snapshot after every record.
/// The snapshot barrier waits for every shard, so when `submit` returns
/// all replies to the frame are in the sink: returns them per frame.
fn feed(
    handle: &MonitorHandle,
    frames: &[ClientMsg],
    rx: &Receiver<ServerMsg>,
    tx: &Sender<ServerMsg>,
) -> Vec<Vec<ServerMsg>> {
    frames
        .iter()
        .map(|frame| {
            handle.submit(frame.clone(), tx);
            std::iter::from_fn(|| rx.try_recv().ok()).collect()
        })
        .collect()
}

/// "Crashes" the service — dropped without `shutdown`, so nothing but
/// the WAL and the snapshots written so far survives — and returns the
/// newest snapshot in its data directory.
fn crash(service: MonitorService, handle: MonitorHandle, dir: &Path) -> Option<ServiceSnapshot> {
    drop(handle);
    drop(service);
    let store = Store::open(
        dir,
        StoreOptions {
            segment_bytes: 8 << 20,
            sync: SyncPolicy::Os,
        },
    )
    .expect("store reopens");
    let (_, payload) = store.load_snapshot().expect("snapshot loads")?;
    Some(ServiceSnapshot::from_json(&payload).expect("snapshot parses"))
}

/// Removes what re-attachment adds: verdict frames for a `(session,
/// predicate)` that `before` — the frames emitted up to the crash —
/// already settled in the session's current incarnation.
fn without_rereports(before: &[Vec<ServerMsg>], after: Vec<Vec<ServerMsg>>) -> Vec<Vec<ServerMsg>> {
    let mut settled = BTreeSet::new();
    for msg in before.iter().flatten() {
        match msg {
            ServerMsg::Verdict {
                session, predicate, ..
            } => {
                settled.insert((session.clone(), predicate.clone()));
            }
            ServerMsg::Closed { session, .. } => settled.retain(|(s, _)| s != session),
            _ => {}
        }
    }
    after
        .into_iter()
        .map(|frames| {
            frames
                .into_iter()
                .filter(|msg| match msg {
                    ServerMsg::Verdict {
                        session, predicate, ..
                    } => !settled.remove(&(session.clone(), predicate.clone())),
                    _ => true,
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_crash_at_any_wal_position_is_invisible(
        picks in prop::collection::vec(pick(), 4..24),
        crash_at in 0usize..1000,
        // Before the crash: a snapshot per record, every few, or never —
        // recovery from a snapshot alone, snapshot plus tail, tail alone.
        cadence in prop_oneof![Just(1u64), 2u64..6, Just(1000u64)],
    ) {
        let frames = stream(&picks);
        let crash_at = crash_at % frames.len();

        let dir = fresh_dir();
        let (tx, rx) = unbounded();
        let reference = service(&dir, 1);
        let handle = reference.handle();
        let expected = feed(&handle, &frames, &rx, &tx);
        let expected_end = crash(reference, handle, &dir);
        let _ = std::fs::remove_dir_all(&dir);

        let dir = fresh_dir();
        let first = service(&dir, cadence);
        let handle = first.handle();
        for frame in &frames[..crash_at] {
            handle.submit(frame.clone(), &unbounded().0);
        }
        crash(first, handle, &dir);
        let (tx, rx) = unbounded();
        let second = service(&dir, 1);
        let handle = second.handle();
        let emitted = feed(&handle, &frames[crash_at..], &rx, &tx);
        let end = crash(second, handle, &dir);
        let _ = std::fs::remove_dir_all(&dir);

        let emitted = without_rereports(&expected[..crash_at], emitted);
        prop_assert_eq!(&emitted[..], &expected[crash_at..], "crash before frame {}", crash_at);
        prop_assert_eq!(end, expected_end, "crash before frame {}", crash_at);
    }
}
