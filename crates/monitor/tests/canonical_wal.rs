//! Over TCP, a body the decoder finds canonical goes into the
//! write-ahead log as the client sent it, and any other spelling is
//! encoded again: either way the log holds `encode_body` of the decoded
//! message, and recovery cannot tell which path a record took.
//!
//! * A client that writes what `encode_body` writes finds its bodies in
//!   the log byte for byte.
//! * A data directory written by a client that mixes canonical bodies
//!   with spaced, pretty-printed and reordered ones holds the canonical
//!   form of every message, and recovers to the verdict frames of a
//!   live run that never touched a disk.

use crossbeam::channel::unbounded;
use hb_monitor::{serve, MonitorConfig, MonitorService, PersistConfig};
use hb_store::{Store, StoreOptions, SyncPolicy};
use hb_tracefmt::wire::{
    self, encode_body, ClientMsg, EventFrame, ServerMsg, WireAtom, WireClause, WireMode,
    WirePattern, WirePredicate,
};
use serde::Serialize as _;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};

const N: usize = 3;

fn data_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("hb-monitor-canonical-wal-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &Path) -> MonitorConfig {
    MonitorConfig {
        persist: Some(PersistConfig {
            sync: SyncPolicy::Interval(std::time::Duration::from_millis(1)),
            ..PersistConfig::new(dir.to_path_buf())
        }),
        ..MonitorConfig::default()
    }
}

fn open(session: &str) -> ClientMsg {
    let clause = |process: usize, var: &str, value: i64| WireClause {
        process,
        var: var.into(),
        op: "=".into(),
        value,
    };
    let atom = |process: usize, var: &str, value: i64| WireAtom {
        process: Some(process),
        var: var.into(),
        op: "=".into(),
        value,
        causal: false,
    };
    ClientMsg::Open {
        session: session.into(),
        processes: N,
        vars: vec!["a".into(), "b".into(), "c".into()],
        initial: vec![],
        predicates: vec![
            WirePredicate {
                id: "both".into(),
                mode: WireMode::Conjunctive,
                clauses: vec![clause(0, "a", 2), clause(1, "b", 1)],
                pattern: None,
            },
            WirePredicate {
                id: "never".into(),
                mode: WireMode::Conjunctive,
                clauses: vec![clause(1, "c", 7), clause(2, "c", 7)],
                pattern: None,
            },
            WirePredicate {
                id: "order".into(),
                mode: WireMode::Pattern,
                clauses: vec![],
                pattern: Some(WirePattern {
                    atoms: vec![atom(2, "b", 2), atom(0, "a", 1)],
                }),
            },
        ],
        dist: None,
    }
}

/// A causally consistent stream of `events` events over `N` processes
/// (a process now and then first receives another's latest clock), cut
/// into `events` frames of one to five.
fn stream(session: &str, events: usize, mut seed: u64) -> Vec<ClientMsg> {
    let mut next = move |bound: u64| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed % bound
    };
    let mut clocks = vec![vec![0u32; N]; N];
    let mut frames = Vec::new();
    for _ in 0..events {
        let p = next(N as u64) as usize;
        let from = next(N as u64) as usize;
        if from != p && next(3) == 0 {
            let sent = clocks[from].clone();
            for (mine, theirs) in clocks[p].iter_mut().zip(sent) {
                *mine = (*mine).max(theirs);
            }
        }
        clocks[p][p] += 1;
        let set = (0..next(3))
            .map(|_| {
                (
                    ["a", "b", "c"][next(3) as usize].to_string(),
                    next(4) as i64,
                )
            })
            .collect();
        frames.push(EventFrame {
            p,
            clock: clocks[p].clone(),
            set,
        });
    }
    let mut msgs = vec![open(session)];
    let mut rest = frames.as_slice();
    while !rest.is_empty() {
        let take = (1 + next(5) as usize).min(rest.len());
        let (batch, tail) = rest.split_at(take);
        msgs.push(if take == 1 {
            batch[0].clone().into_event(session)
        } else {
            ClientMsg::Events {
                session: session.into(),
                events: batch.to_vec(),
            }
        });
        rest = tail;
    }
    msgs
}

/// `msg` spelled four ways: as the encoder writes it, with a leading
/// space, pretty-printed, and with `type` moved to the end.
fn spelling(msg: &ClientMsg, how: usize) -> String {
    let canonical = encode_body(msg);
    match how % 4 {
        0 => canonical,
        1 => format!(" {canonical}"),
        2 => serde_json::to_string_pretty(&msg.to_value()).expect("serializes"),
        _ => {
            let serde::Value::Object(mut fields) = msg.to_value() else {
                unreachable!("a client message is an object")
            };
            fields.rotate_left(1);
            serde_json::to_string(&serde::Value::Object(fields)).expect("serializes")
        }
    }
}

/// Serves `service` on a loopback port; the thread ends at `shutdown`.
fn listen(service: &MonitorService) -> (TcpStream, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let handle = service.handle();
    let server = std::thread::spawn(move || serve(listener, handle).expect("serve"));
    (TcpStream::connect(addr).expect("connect"), server)
}

fn send_raw(stream: &mut TcpStream, body: &str) {
    writeln!(stream, "{} {}", body.len(), body).expect("send");
}

/// Sends every body, then `close`, and reads until `closed`; then asks
/// the server to stop and drops the service without a shutdown — a
/// crash, as far as the data directory can tell.
fn run_over_tcp(service: MonitorService, bodies: &[String], close: Option<&ClientMsg>) {
    let (mut stream, server) = listen(&service);
    let mut replies = BufReader::new(stream.try_clone().expect("clone"));
    for body in bodies {
        send_raw(&mut stream, body);
    }
    if let Some(close) = close {
        send_raw(&mut stream, &encode_body(close));
        loop {
            let reply = wire::read_frame::<_, ServerMsg>(&mut replies)
                .expect("reply")
                .expect("connection open");
            assert!(!matches!(reply, ServerMsg::Error { .. }), "{reply:?}");
            if matches!(reply, ServerMsg::Closed { .. }) {
                break;
            }
        }
    }
    send_raw(&mut stream, r#"{"type":"shutdown"}"#);
    server.join().expect("server thread");
    drop(service);
}

fn wal_records(dir: &Path) -> Vec<String> {
    let store = Store::open(dir, StoreOptions::default()).expect("reopen the data dir");
    store
        .replay(0)
        .map(|rec| String::from_utf8(rec.expect("intact record").1).expect("UTF-8 record"))
        .collect()
}

/// Every frame `submit` answers with, through the first `closed`.
fn until_closed(rx: &crossbeam::channel::Receiver<ServerMsg>) -> Vec<ServerMsg> {
    let mut got = Vec::new();
    loop {
        let reply = rx.recv().expect("reply");
        let done = matches!(reply, ServerMsg::Closed { .. });
        got.push(reply);
        if done {
            return got;
        }
    }
}

#[test]
fn a_canonical_stream_is_logged_byte_for_byte() {
    let dir = data_dir("canonical");
    let msgs = stream("s", 400, 0x5EED);
    let close = ClientMsg::Close {
        session: "s".into(),
    };
    let bodies: Vec<String> = msgs.iter().map(encode_body).collect();
    run_over_tcp(
        MonitorService::open(durable(&dir)).expect("open"),
        &bodies,
        Some(&close),
    );
    let mut want = bodies;
    want.push(encode_body(&close));
    assert_eq!(wal_records(&dir), want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_mixed_data_dir_recovers_to_the_live_verdicts() {
    for seed in [1u64, 2, 3] {
        let msgs = stream("m", 300, seed);
        let close = ClientMsg::Close {
            session: "m".into(),
        };

        // Live, uninterrupted, no disk.
        let live = MonitorService::start(MonitorConfig::default());
        let (tx, rx) = unbounded();
        for msg in msgs.iter().chain([&close]) {
            live.handle().submit(msg.clone(), &tx);
        }
        let want = until_closed(&rx);
        live.shutdown();
        assert!(
            want.iter().any(|m| matches!(m, ServerMsg::Verdict { .. })),
            "seed {seed}: the stream settles nothing before close: {want:?}"
        );

        // Over TCP in every spelling, then a crash before `close`.
        let dir = data_dir(&format!("mixed-{seed}"));
        let bodies: Vec<String> = msgs
            .iter()
            .enumerate()
            .map(|(i, msg)| spelling(msg, i + seed as usize))
            .collect();
        run_over_tcp(
            MonitorService::open(durable(&dir)).expect("open"),
            &bodies,
            None,
        );
        let canonical: Vec<String> = msgs.iter().map(encode_body).collect();
        assert_eq!(wal_records(&dir), canonical, "seed {seed}");

        let recovered = MonitorService::open(durable(&dir)).expect("recover");
        assert_eq!(recovered.metrics().recovery_replayed, msgs.len() as u64);
        let (tx, rx) = unbounded();
        recovered.handle().submit(close, &tx);
        let got = until_closed(&rx);
        recovered.shutdown();

        // The recovered member re-reports, to the first client that
        // touches it, everything that settled before the crash; `opened`
        // went to the client of the previous life.
        let mut want: Vec<String> = want
            .iter()
            .filter(|m| !matches!(m, ServerMsg::Opened { .. }))
            .map(encode_body)
            .collect();
        let mut got: Vec<String> = got.iter().map(encode_body).collect();
        assert_eq!(got.last(), want.last(), "seed {seed}: the closed frame");
        want.sort();
        got.sort();
        assert_eq!(got, want, "seed {seed}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
