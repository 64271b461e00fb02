//! The wire protocol end to end, over real loopback sockets: what a
//! client sees of batching, pattern predicates, distribution and the
//! replay-artifact error kinds, against a monitor directly and through
//! a gateway.
//!
//! | client          | server            | expectation                       |
//! |-----------------|-------------------|-----------------------------------|
//! | `events` frame  | monitor           | one batch = one atomic ingest     |
//! | `events` frame  | gateway → monitor | relayed unsplit                   |
//! | SDK pattern     | gateway → monitor | relayed opaquely, verdict flows   |
//! | SDK dist        | monitor           | typed `unsupported_distribution`  |
//! | replayed frames | gateway → monitor | each benign error keeps its kind  |

use hb_gateway::service::{GatewayConfig, GatewayService};
use hb_monitor::{MonitorConfig, MonitorService};
use hb_sdk::{SdkError, SessionBuilder, WireVerdict};
use hb_tracefmt::wire::{
    self, error_kind, read_frame, write_frame, ClientMsg, EventFrame, ServerMsg, WireClause,
    WireMode, WirePredicate,
};
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

// ---- fixture --------------------------------------------------------------

/// The two-process, two-event computation every case replays: P0 and
/// P1 each take one concurrent step setting `x = 1`. The conjunctive
/// goal `x=1 @ 0 AND x=1 @ 1` is first satisfied at the cut `[1, 1]`.
const LEAST_CUT: [u32; 2] = [1, 1];

fn frames() -> Vec<EventFrame> {
    vec![
        EventFrame {
            p: 0,
            clock: vec![1, 0],
            set: [("x".to_string(), 1)].into_iter().collect(),
        },
        EventFrame {
            p: 1,
            clock: vec![0, 1],
            set: [("x".to_string(), 1)].into_iter().collect(),
        },
    ]
}

fn goal_pred() -> WirePredicate {
    WirePredicate {
        id: "goal".into(),
        mode: WireMode::Conjunctive,
        clauses: (0..2)
            .map(|p| WireClause {
                process: p,
                var: "x".into(),
                op: "=".into(),
                value: 1,
            })
            .collect(),
        pattern: None,
    }
}

fn open_msg(session: &str) -> ClientMsg {
    ClientMsg::Open {
        session: session.into(),
        processes: 2,
        vars: vec!["x".into()],
        initial: vec![],
        predicates: vec![goal_pred()],
        dist: None,
    }
}

// ---- servers --------------------------------------------------------------

/// A monitor serving on loopback.
fn start_monitor() -> (String, MonitorService) {
    let svc = MonitorService::start(MonitorConfig {
        shards: 2,
        ..MonitorConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind monitor");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = svc.handle();
    std::thread::spawn(move || {
        let _ = hb_monitor::serve(listener, handle);
    });
    (addr, svc)
}

fn start_gateway(backend: String) -> (String, Arc<GatewayService>) {
    let gw = Arc::new(
        GatewayService::start(GatewayConfig {
            backends: vec![backend],
            ..GatewayConfig::default()
        })
        .expect("gateway starts"),
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind gateway");
    let addr = listener.local_addr().expect("local addr").to_string();
    let serving = Arc::clone(&gw);
    std::thread::spawn(move || {
        let _ = serving.serve(listener);
    });
    (addr, gw)
}

// ---- raw wire client ------------------------------------------------------

/// A hand-driven client pinned to whatever frames the test writes.
struct Client {
    w: BufWriter<TcpStream>,
    r: BufReader<TcpStream>,
}

impl Client {
    /// Connects and completes the `hello`/`welcome` handshake.
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut client = Client {
            w: BufWriter::new(stream.try_clone().expect("clone")),
            r: BufReader::new(stream),
        };
        client.send(&ClientMsg::Hello {
            version: wire::WIRE_VERSION,
        });
        match client.recv() {
            ServerMsg::Welcome { version } => assert_eq!(version, wire::WIRE_VERSION),
            other => panic!("expected welcome, got {other:?}"),
        }
        client
    }

    fn send(&mut self, msg: &ClientMsg) {
        write_frame(&mut self.w, msg).expect("send frame");
    }

    fn recv(&mut self) -> ServerMsg {
        read_frame::<_, ServerMsg>(&mut self.r)
            .expect("read frame")
            .expect("peer still open")
    }

    /// Reads until the next error, returning its session and kind.
    fn next_error(&mut self) -> (Option<String>, Option<String>) {
        loop {
            if let ServerMsg::Error { session, kind, .. } = self.recv() {
                return (session, kind);
            }
        }
    }

    /// Reads until `Closed`, returning the settled verdicts seen.
    fn drain_to_close(&mut self) -> BTreeMap<String, WireVerdict> {
        let mut verdicts = BTreeMap::new();
        loop {
            match self.recv() {
                ServerMsg::Verdict {
                    predicate, verdict, ..
                } => {
                    verdicts.insert(predicate, verdict);
                }
                ServerMsg::Closed { .. } => return verdicts,
                ServerMsg::Error { message, .. } => panic!("server error: {message}"),
                _ => {}
            }
        }
    }

    fn finish_and_close(&mut self, session: &str) -> BTreeMap<String, WireVerdict> {
        for p in 0..2 {
            self.send(&ClientMsg::FinishProcess {
                session: session.into(),
                p,
            });
        }
        self.send(&ClientMsg::Close {
            session: session.into(),
        });
        self.drain_to_close()
    }
}

// ---- the cases ------------------------------------------------------------

/// One `events` frame on a monitor: ingested as one atomic batch (one
/// batch counter tick, every member counted and delivered).
#[test]
fn a_batch_ingests_atomically() {
    let (addr, svc) = start_monitor();
    let mut client = Client::connect(&addr);
    client.send(&open_msg("wire-batch"));
    assert!(matches!(client.recv(), ServerMsg::Opened { .. }));
    client.send(&ClientMsg::Events {
        session: "wire-batch".into(),
        events: frames(),
    });
    let verdicts = client.finish_and_close("wire-batch");
    assert_eq!(verdicts["goal"], WireVerdict::Detected(LEAST_CUT.to_vec()));
    let m = svc.metrics();
    assert_eq!(m.batches_ingested, 1, "the frame counts once as a batch");
    assert_eq!(m.events_ingested, 2, "and twice as events");
    assert_eq!(m.events_delivered, 2);
    svc.shutdown();
}

/// A batch through the gateway relays unsplit: the backend sees exactly
/// one `events` frame.
#[test]
fn gateway_relays_batches_unsplit() {
    let (backend_addr, backend) = start_monitor();
    let (gw_addr, gw) = start_gateway(backend_addr);
    let mut client = Client::connect(&gw_addr);
    client.send(&open_msg("wire-gw-batch"));
    assert!(matches!(client.recv(), ServerMsg::Opened { .. }));
    client.send(&ClientMsg::Events {
        session: "wire-gw-batch".into(),
        events: frames(),
    });
    let verdicts = client.finish_and_close("wire-gw-batch");
    assert_eq!(verdicts["goal"], WireVerdict::Detected(LEAST_CUT.to_vec()));
    let m = backend.metrics();
    assert_eq!(m.batches_ingested, 1, "the relay does not split the frame");
    assert_eq!(m.events_ingested, 2);
    drop(gw);
    backend.shutdown();
}

/// A distributed session against a plain monitor: distribution needs a
/// gateway, so the open is refused with the machine-readable
/// `unsupported_distribution` kind and the SDK surfaces the typed
/// [`SdkError::UnsupportedDistribution`]. Nothing is opened as a plain
/// session in its place.
#[test]
fn distributed_session_against_a_plain_monitor_is_a_typed_clean_failure() {
    let (addr, svc) = start_monitor();
    let result = SessionBuilder::new("wire-dist", 2)
        .var("x")
        .conjunctive("goal", &[(0, "x", "=", 1), (1, "x", "=", 1)])
        .distributed(2)
        .connect(&addr);
    match result {
        Err(SdkError::UnsupportedDistribution(_)) => {}
        Err(other) => panic!("expected UnsupportedDistribution, got {other:?}"),
        Ok(_) => panic!("expected UnsupportedDistribution, got an open session"),
    }
    assert_eq!(
        svc.metrics().sessions_opened,
        0,
        "nothing silently opened as a plain session"
    );
    svc.shutdown();
}

/// A pattern predicate through the gateway: the gateway relays the open
/// opaquely — no pattern-specific code on its path — and the predictive
/// verdict flows back end-to-end.
#[test]
fn gateway_relays_pattern_predicates_transparently() {
    let (backend_addr, backend) = start_monitor();
    let (gw_addr, gw) = start_gateway(backend_addr);
    let (session, _tracers) = SessionBuilder::new("wire-gw-pattern", 2)
        .var("lock")
        .var("unlock")
        .pattern("inv", "unlock=1 -> lock=1")
        .expect("the spec parses")
        .connect(&gw_addr)
        .expect("open through the gateway");
    // Lock on P0, then a *concurrent* unlock on P1: the delivered order
    // never shows the inversion, only a causal reordering does — the
    // predictive detector must still flag it.
    let set = |k: &str| [(k.to_string(), 1i64)].into_iter().collect();
    assert!(session.emit(0, vec![1, 0], set("lock")));
    assert!(session.emit(1, vec![0, 1], set("unlock")));
    let report = session.close().expect("close settles");
    assert!(
        matches!(report.verdicts["inv"], WireVerdict::Detected(_)),
        "got {:?}",
        report.verdicts["inv"]
    );
    drop(gw);
    backend.shutdown();
}

/// The three artifacts of at-least-once replay — a re-open, a resent
/// event and an event after `finish` — reach a client behind a gateway
/// with their machine-readable kinds, the only thing the SDK classifies
/// them by.
#[test]
fn gateway_relays_replay_artifacts_with_their_kinds() {
    let (backend_addr, backend) = start_monitor();
    let (gw_addr, gw) = start_gateway(backend_addr);
    let mut client = Client::connect(&gw_addr);
    let name = "wire-gw-replay";
    let expect = |client: &mut Client, kind: &str| {
        assert_eq!(
            client.next_error(),
            (Some(name.to_string()), Some(kind.to_string()))
        );
    };
    client.send(&open_msg(name));
    assert!(matches!(client.recv(), ServerMsg::Opened { .. }));
    client.send(&open_msg(name));
    expect(&mut client, error_kind::ALREADY_OPEN);

    let first = frames().remove(0).into_event(name);
    client.send(&first);
    client.send(&first);
    expect(&mut client, error_kind::DUPLICATE_EVENT);

    client.send(&ClientMsg::FinishProcess {
        session: name.into(),
        p: 0,
    });
    client.send(&ClientMsg::Event {
        session: name.into(),
        p: 0,
        clock: vec![2, 0],
        set: BTreeMap::new(),
    });
    expect(&mut client, error_kind::ALREADY_FINISHED);

    client.send(&ClientMsg::Close {
        session: name.into(),
    });
    while !matches!(client.recv(), ServerMsg::Closed { .. }) {}
    drop(gw);
    backend.shutdown();
}
