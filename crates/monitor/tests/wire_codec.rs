//! The service's two uses of the wire codec besides the socket: what
//! it writes to the write-ahead log and what it reads back from one.
//!
//! The log stores the **canonical** encoding of the decoded message —
//! `to_string(&msg.to_value())`, whoever encodes it — never the bytes a
//! client happened to send, and a log written by the `Value` encoder
//! recovers through the one-pass decoder to the same session. Also
//! here: a frame that cannot be read at all is a protocol error like
//! any other, and is counted as one.

use crossbeam::channel::unbounded;
use hb_monitor::{serve, MonitorConfig, MonitorService, PersistConfig};
use hb_store::{Store, StoreOptions, SyncPolicy};
use hb_tracefmt::wire::{
    self, ClientMsg, EventFrame, ServerMsg, WireClause, WireMode, WirePredicate,
};
use serde::Serialize as _;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

fn data_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("hb-monitor-wire-codec-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &std::path::Path) -> MonitorConfig {
    MonitorConfig {
        persist: Some(PersistConfig {
            sync: SyncPolicy::Os,
            ..PersistConfig::new(dir.to_path_buf())
        }),
        ..MonitorConfig::default()
    }
}

/// The paper's Fig. 2 predicate, `x0 = 2 ∧ x1 = 1`, on two processes.
fn open(session: &str) -> ClientMsg {
    ClientMsg::Open {
        session: session.into(),
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
        dist: None,
    }
}

fn frame(p: usize, clock: [u32; 2], set: &[(&str, i64)]) -> EventFrame {
    EventFrame {
        p,
        clock: clock.to_vec(),
        set: set.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
    }
}

fn value_encoding(msg: &ClientMsg) -> String {
    serde_json::to_string(&msg.to_value()).expect("wire values serialize")
}

fn wal_records(dir: &std::path::Path) -> Vec<String> {
    let store = Store::open(dir, StoreOptions::default()).expect("reopen the data dir");
    store
        .replay(0)
        .map(|rec| String::from_utf8(rec.expect("intact record").1).expect("UTF-8 record"))
        .collect()
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

#[test]
fn the_wal_stores_the_canonical_form_whatever_the_client_sent() {
    let dir = data_dir("canonical");
    let service = MonitorService::open(durable(&dir)).expect("open");
    let (mut stream, server) = listen(&service);
    let mut replies = BufReader::new(stream.try_clone().expect("clone"));

    // The same four messages a canonical client would send, spelled
    // the way a hand-rolled one might: spaces, reordered keys, `type`
    // last, an escaped key, an explicit empty `set`. The first `events`
    // member goes through the `Value` route, the `event` through the
    // one-pass decoder; the log cannot tell.
    let sent = [
        open("s"),
        ClientMsg::Events {
            session: "s".into(),
            events: vec![frame(1, [0, 1], &[("x1", 1)]), frame(0, [1, 0], &[])],
        },
        frame(0, [2, 0], &[("x0", 2)]).into_event("s"),
        ClientMsg::Close {
            session: "s".into(),
        },
    ];
    send_raw(&mut stream, &value_encoding(&sent[0]));
    send_raw(
        &mut stream,
        r#"{ "events" : [ {"set": {"x\u0031": 1}, "clock": [0, 1], "p": 1},
             {"p":0, "set":{}, "clock":[ 1,0 ]} ],
           "session":"s" , "type":"events" }"#,
    );
    send_raw(
        &mut stream,
        r#"{"session":"s","type":"event","set":{"x0":2},"clock":[2,0],"p":0}"#,
    );
    send_raw(&mut stream, r#" {"session":"s","type":"close"} "#);
    let mut got = Vec::new();
    while !matches!(got.last(), Some(ServerMsg::Closed { .. })) {
        got.push(
            wire::read_frame::<_, ServerMsg>(&mut replies)
                .expect("reply")
                .expect("connection open"),
        );
    }
    assert!(
        matches!(
            got.as_slice(),
            [
                ServerMsg::Opened { .. },
                ServerMsg::Verdict { .. },
                ServerMsg::Closed { .. }
            ]
        ),
        "{got:?}"
    );
    send_raw(&mut stream, r#"{"type":"shutdown"}"#);
    server.join().expect("server thread");
    // A crash, not a shutdown: the log keeps its records.
    drop(service);

    let want: Vec<String> = sent.iter().map(value_encoding).collect();
    assert_eq!(wal_records(&dir), want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_wal_written_by_the_value_encoder_recovers_to_the_same_verdicts() {
    let stream = [
        open("s"),
        ClientMsg::Events {
            session: "s".into(),
            events: vec![
                frame(1, [0, 1], &[("x1", 1)]),
                frame(0, [1, 0], &[("x0", 1)]),
            ],
        },
        frame(0, [2, 0], &[("x0", 2)]).into_event("s"),
        frame(1, [0, 2], &[("x1", 0)]).into_event("s"),
    ];
    let close = ClientMsg::Close {
        session: "s".into(),
    };

    // Live, uninterrupted, no disk.
    let live = MonitorService::start(MonitorConfig::default());
    let (tx, rx) = unbounded();
    for msg in stream.iter().chain([&close]) {
        live.handle().submit(msg.clone(), &tx);
    }
    let mut want = Vec::new();
    loop {
        let reply = rx.recv().expect("live reply");
        let done = matches!(reply, ServerMsg::Closed { .. });
        want.push(reply);
        if done {
            break;
        }
    }
    live.shutdown();
    assert!(
        want.iter().any(|m| matches!(m, ServerMsg::Verdict { .. })),
        "{want:?}"
    );

    // The same stream as a previous build left it on disk.
    let dir = data_dir("value-written");
    {
        let mut store = Store::open(&dir, StoreOptions::default()).expect("create the data dir");
        for msg in &stream {
            store
                .append(value_encoding(msg).as_bytes())
                .expect("append");
        }
        store.sync().expect("sync");
    }
    let recovered = MonitorService::open(durable(&dir)).expect("recover");
    assert_eq!(recovered.metrics().recovery_replayed, stream.len() as u64);
    assert_eq!(recovered.metrics().sessions_recovered, 1);
    let (tx, rx) = unbounded();
    recovered.handle().submit(close, &tx);
    let mut got = Vec::new();
    loop {
        let reply = rx.recv().expect("recovered reply");
        let done = matches!(reply, ServerMsg::Closed { .. });
        got.push(reply);
        if done {
            break;
        }
    }
    recovered.shutdown();
    // A recovered member re-reports what settled before the crash to
    // the first client that touches it — here, all of it; `opened` went
    // to the client of the previous life.
    let want: Vec<ServerMsg> = want
        .into_iter()
        .filter(|m| !matches!(m, ServerMsg::Opened { .. }))
        .collect();
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_wal_record_is_named_by_its_sequence_number() {
    let dir = data_dir("corrupt");
    {
        let mut store = Store::open(&dir, StoreOptions::default()).expect("create the data dir");
        store
            .append(value_encoding(&open("s")).as_bytes())
            .expect("append");
        store
            .append(br#"{"type":"event","session":"s","p":0,"clock":[1,0"#)
            .expect("append");
        store.sync().expect("sync");
    }
    let err = match MonitorService::open(durable(&dir)) {
        Ok(_) => panic!("a truncated record was replayed"),
        Err(e) => e.to_string(),
    };
    assert!(
        err.contains("wal record 1: expected ',' or ']' at byte 48"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_frame_that_cannot_be_read_is_counted_as_a_protocol_error() {
    let service = MonitorService::start(MonitorConfig::default());
    let (mut stream, server) = listen(&service);
    let mut replies = BufReader::new(stream.try_clone().expect("clone"));
    stream
        .write_all(b"this is not a frame\n")
        .expect("send garbage");
    match wire::read_frame::<_, ServerMsg>(&mut replies).expect("reply") {
        Some(ServerMsg::Error {
            session: None,
            kind: None,
            message,
        }) => assert!(message.contains("bad frame header byte"), "{message}"),
        other => panic!("{other:?}"),
    }
    // The server hung up after answering: framing cannot be resynced.
    assert_eq!(
        wire::read_frame::<_, ServerMsg>(&mut replies).expect("eof"),
        None
    );

    // A second connection asks what the first one cost.
    let handle = service.handle();
    let (tx, rx) = unbounded();
    handle.submit(ClientMsg::Stats, &tx);
    match rx.recv().expect("stats") {
        ServerMsg::Stats { counters } => assert_eq!(counters["protocol_errors"], 1),
        other => panic!("{other:?}"),
    }

    let mut bye = TcpStream::connect(stream.peer_addr().expect("peer")).expect("connect");
    send_raw(&mut bye, r#"{"type":"shutdown"}"#);
    server.join().expect("server thread");
    service.shutdown();
}
