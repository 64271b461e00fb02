//! End-to-end gateway tests against real in-process monitors over TCP.
//!
//! Topology per test: N `hb-monitor` services each serving the wire
//! protocol on a loopback listener, one gateway routing to them, and a
//! plain wire client talking to the gateway. Abrupt backend death is
//! simulated with a chaos TCP proxy whose sockets are shut down
//! mid-trace — a graceful monitor shutdown would flush sessions and
//! emit final verdicts, which is exactly what a crash does *not* do.

use hb_computation::{Computation, ComputationBuilder, VarId};
use hb_detect::ef_linear;
use hb_gateway::rendezvous;
use hb_gateway::service::{GatewayConfig, GatewayService};
use hb_monitor::{MonitorConfig, MonitorService};
use hb_predicates::{CmpOp, Conjunctive, LocalExpr};
use hb_sim::causal_shuffle;
use hb_tracefmt::wire::{
    self, read_frame, write_frame, ClientMsg, ServerMsg, WireClause, WireMode, WirePredicate,
    WireVerdict,
};
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// ---- fixture: computation, predicate, oracle ------------------------------

/// Fig. 2(a) of the paper: the fixture every transport test reuses.
fn fig2a() -> (Computation, VarId, VarId) {
    let mut b = ComputationBuilder::new(2);
    let x0 = b.var("x0");
    let x1 = b.var("x1");
    b.internal(0).label("e1").set(x0, 1).done();
    let m = b.send(0).label("e2").set(x0, 2).done_send();
    b.internal(0).label("e3").set(x0, 3).done();
    b.internal(1).label("f1").set(x1, 1).done();
    b.receive(1, m).label("f2").set(x1, 2).done();
    b.internal(1).label("f3").set(x1, 3).done();
    (b.finish().expect("fig 2(a) is well-formed"), x0, x1)
}

fn ef_pred() -> WirePredicate {
    WirePredicate {
        id: "ef".into(),
        mode: WireMode::Conjunctive,
        clauses: vec![
            WireClause {
                process: 0,
                var: "x0".into(),
                op: "=".into(),
                value: 2,
            },
            WireClause {
                process: 1,
                var: "x1".into(),
                op: "=".into(),
                value: 1,
            },
        ],
        pattern: None,
    }
}

/// The offline least satisfying cut — the ground truth online verdicts
/// must reproduce, failover or not.
fn offline_cut(comp: &Computation, x0: VarId, x1: VarId) -> Vec<u32> {
    let p = Conjunctive::new(vec![
        (0, LocalExpr::Cmp(x0, CmpOp::Eq, 2)),
        (1, LocalExpr::Cmp(x1, CmpOp::Eq, 1)),
    ]);
    let offline = ef_linear(comp, &p);
    assert!(offline.holds);
    offline.witness.expect("witness cut").counters().to_vec()
}

fn event_msg(comp: &Computation, session: &str, e: hb_computation::EventId) -> ClientMsg {
    let state = comp.local_state(e.process, e.index as u32 + 1);
    let set: BTreeMap<String, i64> = comp
        .vars()
        .iter()
        .map(|(id, name)| (name.to_string(), state.get(id)))
        .collect();
    ClientMsg::Event {
        session: session.into(),
        p: e.process,
        clock: comp.clock(e).components().to_vec(),
        set,
    }
}

fn open_msg(session: &str) -> ClientMsg {
    ClientMsg::Open {
        session: session.into(),
        processes: 2,
        vars: vec!["x0".into(), "x1".into()],
        initial: vec![],
        predicates: vec![ef_pred()],
        dist: None,
    }
}

// ---- fixture: servers, proxy, client --------------------------------------

/// Starts a monitor serving the wire protocol on a fresh loopback port.
/// The returned service must stay alive for the test's duration.
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

fn start_gateway(backends: Vec<String>) -> (String, Arc<GatewayService>) {
    let gw = Arc::new(
        GatewayService::start(GatewayConfig {
            backends,
            probe_initial: Duration::from_millis(20),
            probe_cap: Duration::from_millis(200),
            ..GatewayConfig::default()
        })
        .expect("gateway starts"),
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind gateway");
    let addr = listener.local_addr().expect("local addr").to_string();
    {
        let gw = Arc::clone(&gw);
        std::thread::spawn(move || {
            let _ = gw.serve(listener);
        });
    }
    (addr, gw)
}

/// A TCP proxy that can die abruptly: `kill` severs every proxied
/// socket without any protocol goodbye, exactly like a SIGKILLed
/// backend host.
struct ChaosProxy {
    addr: String,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl ChaosProxy {
    fn start(target: String) -> ChaosProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().expect("local addr").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::default();
        {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Relaxed) {
                        break;
                    }
                    let Ok(client) = stream else { break };
                    let Ok(upstream) = TcpStream::connect(&target) else {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    };
                    {
                        let mut guard = conns.lock().expect("proxy registry");
                        guard.push(client.try_clone().expect("clone"));
                        guard.push(upstream.try_clone().expect("clone"));
                    }
                    let (c2, u2) = (
                        client.try_clone().expect("clone"),
                        upstream.try_clone().expect("clone"),
                    );
                    std::thread::spawn(move || pump(client, u2));
                    std::thread::spawn(move || pump(upstream, c2));
                }
            });
        }
        ChaosProxy { addr, stop, conns }
    }

    fn kill(&self) {
        self.stop.store(true, Relaxed);
        for s in self.conns.lock().expect("proxy registry").drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
        let _ = TcpStream::connect(&self.addr); // unblock accept
    }
}

fn pump(mut from: TcpStream, mut to: TcpStream) {
    let _ = std::io::copy(&mut from, &mut to);
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

struct Client {
    w: BufWriter<TcpStream>,
    r: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let s = TcpStream::connect(addr).expect("connect gateway");
        s.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Client {
            w: BufWriter::new(s.try_clone().expect("clone")),
            r: BufReader::new(s),
        }
    }

    fn send(&mut self, msg: &ClientMsg) {
        write_frame(&mut self.w, msg).expect("send frame");
    }

    fn recv(&mut self) -> ServerMsg {
        read_frame::<_, ServerMsg>(&mut self.r)
            .expect("well-formed frame")
            .expect("connection open")
    }
}

/// Session names that rendezvous-place on each backend in turn — so a
/// test controls placement without reaching into the gateway.
fn names_on(addrs: &[String], target: usize, count: usize, tag: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while out.len() < count {
        let name = format!("{tag}-{i}");
        i += 1;
        let picked = rendezvous::pick(
            addrs.iter().enumerate().map(|(j, a)| (j, a.as_str())),
            &name,
        );
        if picked == Some(target) {
            out.push(name);
        }
    }
    out
}

/// Reads until every named session closed, returning its verdict frames.
fn collect_until_closed(
    client: &mut Client,
    sessions: &[String],
) -> BTreeMap<String, Vec<(String, WireVerdict)>> {
    let mut verdicts: BTreeMap<String, Vec<(String, WireVerdict)>> = BTreeMap::new();
    let mut open = sessions.len();
    while open > 0 {
        match client.recv() {
            ServerMsg::Verdict {
                session,
                predicate,
                verdict,
            } => verdicts
                .entry(session)
                .or_default()
                .push((predicate, verdict)),
            ServerMsg::Closed { session, discarded } => {
                assert_eq!(discarded, 0, "shuffles are permutations ({session})");
                assert!(sessions.contains(&session), "unexpected close {session}");
                open -= 1;
            }
            ServerMsg::Opened { .. } => {}
            ServerMsg::Error {
                session, message, ..
            } => {
                panic!("gateway error for {session:?}: {message}")
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    verdicts
}

// ---- tests ----------------------------------------------------------------

#[test]
fn routes_across_backends_and_matches_offline_detection() {
    let (comp, x0, x1) = fig2a();
    let least = offline_cut(&comp, x0, x1);

    let (addr_a, _svc_a) = start_monitor();
    let (addr_b, _svc_b) = start_monitor();
    let backends = vec![addr_a, addr_b];
    let (gw_addr, gw) = start_gateway(backends.clone());

    // Three sessions pinned to each backend: both sides of the hash do
    // real detection work.
    let mut sessions = names_on(&backends, 0, 3, "ra");
    sessions.extend(names_on(&backends, 1, 3, "rb"));

    let mut client = Client::connect(&gw_addr);
    client.send(&ClientMsg::Hello {
        version: wire::WIRE_VERSION,
    });
    assert!(matches!(client.recv(), ServerMsg::Welcome { .. }));

    for (k, name) in sessions.iter().enumerate() {
        client.send(&open_msg(name));
        for e in causal_shuffle(&comp, k as u64 + 1, 3) {
            client.send(&event_msg(&comp, name, e));
        }
        client.send(&ClientMsg::Close {
            session: name.clone(),
        });
    }

    let verdicts = collect_until_closed(&mut client, &sessions);
    for name in &sessions {
        let v = &verdicts[name];
        assert_eq!(v.len(), 1, "one settled predicate for {name}");
        assert_eq!(v[0].0, "ef");
        assert_eq!(v[0].1, WireVerdict::Detected(least.clone()));
    }

    // The aggregated stats merge both monitors' counters with the
    // gateway's own.
    client.send(&ClientMsg::Stats);
    let ServerMsg::Stats { counters } = client.recv() else {
        panic!("expected stats");
    };
    assert_eq!(counters["sessions_opened"], 6, "summed across backends");
    assert_eq!(counters["gateway_sessions_routed"], 6);
    assert_eq!(counters["gateway_backends_total"], 2);
    assert_eq!(counters["gateway_backends_reporting"], 2);
    assert_eq!(counters["gateway_sessions_active"], 0);

    let snap = gw.metrics();
    assert_eq!(snap.sessions_failed_over, 0);
    assert_eq!(snap.sessions_dropped, 0);
    assert!(snap.frames_forwarded >= 6 * 8);
}

#[test]
fn backend_death_mid_session_fails_over_without_duplicate_or_lost_verdicts() {
    let (comp, x0, x1) = fig2a();
    let least = offline_cut(&comp, x0, x1);

    let (addr_a, _svc_a) = start_monitor();
    let (addr_b, _svc_b) = start_monitor();
    let proxy = ChaosProxy::start(addr_a);
    let backends = vec![proxy.addr.clone(), addr_b];
    let (gw_addr, gw) = start_gateway(backends.clone());

    // A session the hash places on the (proxied, doomed) backend 0.
    let name = names_on(&backends, 0, 1, "fo").remove(0);
    let order = causal_shuffle(&comp, 0xfa11, 4);
    let (first_half, second_half) = order.split_at(order.len() / 2);

    let mut client = Client::connect(&gw_addr);
    client.send(&open_msg(&name));
    for e in first_half {
        client.send(&event_msg(&comp, &name, *e));
    }
    // Barrier, in two halves, so the kill lands genuinely mid-session.
    // The relayed `opened` proves backend 0 holds the session. The stats
    // reply proves only that the gateway journaled every earlier frame
    // and queued it for backend 0: the gateway answers `Stats` over fresh
    // dials, not over the pooled connection that carries the session, so
    // its backend counters may not count this `open` yet.
    client.send(&ClientMsg::Stats);
    let mut pre_kill: Vec<ServerMsg> = Vec::new();
    let (mut opened, mut stats) = (false, false);
    while !(opened && stats) {
        match client.recv() {
            ServerMsg::Opened { session } if session == name => opened = true,
            ServerMsg::Stats { .. } => stats = true,
            other => pre_kill.push(other),
        }
    }

    proxy.kill();

    for e in second_half {
        client.send(&event_msg(&comp, &name, *e));
    }
    client.send(&ClientMsg::Close {
        session: name.clone(),
    });

    // Drain the rest of the stream; combined with any pre-kill frames
    // it must contain exactly one verdict and it must equal the offline
    // least cut — no duplicates from the replayed re-detection, nothing
    // lost in the failover.
    let mut verdicts: Vec<(String, WireVerdict)> = Vec::new();
    let mut closes = 0;
    let mut queue: Vec<ServerMsg> = pre_kill;
    queue.reverse();
    while closes == 0 {
        let msg = queue.pop().unwrap_or_else(|| client.recv());
        match msg {
            ServerMsg::Verdict {
                predicate, verdict, ..
            } => verdicts.push((predicate, verdict)),
            ServerMsg::Closed { .. } => closes += 1,
            ServerMsg::Opened { .. } => {}
            ServerMsg::Error {
                session, message, ..
            } => {
                panic!("gateway error for {session:?}: {message}")
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    assert_eq!(closes, 1);
    assert_eq!(verdicts.len(), 1, "exactly one verdict: {verdicts:?}");
    assert_eq!(verdicts[0].0, "ef");
    assert_eq!(verdicts[0].1, WireVerdict::Detected(least));

    let snap = gw.metrics();
    assert_eq!(snap.sessions_failed_over, 1);
    assert!(snap.frames_replayed > first_half.len() as u64);
    assert_eq!(snap.sessions_dropped, 0);
    assert_eq!(snap.backends_healthy, 1);
}

#[test]
fn hello_handshake_accepts_supported_and_rejects_future_versions() {
    let (addr_a, _svc_a) = start_monitor();
    let (gw_addr, gw) = start_gateway(vec![addr_a]);

    let mut client = Client::connect(&gw_addr);
    client.send(&ClientMsg::Hello {
        version: wire::WIRE_VERSION,
    });
    match client.recv() {
        ServerMsg::Welcome { version } => assert_eq!(version, 5),
        other => panic!("expected welcome, got {other:?}"),
    }
    // The gateway speaks one version; any other is refused and counted.
    for version in [4, 6] {
        client.send(&ClientMsg::Hello { version });
        match client.recv() {
            ServerMsg::Error {
                session, message, ..
            } => {
                assert_eq!(session, None);
                assert_eq!(
                    message,
                    format!("unsupported protocol version {version} (this peer speaks 5)")
                );
            }
            other => panic!("expected error, got {other:?}"),
        }
    }
    assert_eq!(gw.metrics().protocol_errors, 2);
}

#[test]
fn drain_completes_after_last_session_closes_and_excludes_the_backend() {
    let (comp, x0, x1) = fig2a();
    let least = offline_cut(&comp, x0, x1);

    let (addr_a, _svc_a) = start_monitor();
    let (addr_b, _svc_b) = start_monitor();
    let backends = vec![addr_a, addr_b];
    let (gw_addr, gw) = start_gateway(backends.clone());

    // One live session pinned to backend 0, which we then drain.
    let name = names_on(&backends, 0, 1, "dr").remove(0);
    let mut client = Client::connect(&gw_addr);
    client.send(&open_msg(&name));
    assert!(matches!(client.recv(), ServerMsg::Opened { .. }));

    let drainer = {
        let gw_addr = gw_addr.clone();
        let backend = backends[0].clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&gw_addr);
            c.send(&ClientMsg::Drain { backend });
            c.recv()
        })
    };

    // The drain must be blocked on our live session; give it time to
    // enter Draining, then finish the session.
    std::thread::sleep(Duration::from_millis(100));
    for e in causal_shuffle(&comp, 7, 2) {
        client.send(&event_msg(&comp, &name, e));
    }
    client.send(&ClientMsg::Close {
        session: name.clone(),
    });
    let verdicts = collect_until_closed(&mut client, std::slice::from_ref(&name));
    assert_eq!(verdicts[&name][0].1, WireVerdict::Detected(least.clone()));

    match drainer.join().expect("drainer thread") {
        ServerMsg::Drained { backend, sessions } => {
            assert_eq!(backend, backends[0]);
            assert_eq!(sessions, 1, "the drain waited on our session");
        }
        other => panic!("expected drained, got {other:?}"),
    }

    // New sessions — even ones the full hash would place on backend 0 —
    // land on the survivor and still settle correctly.
    let moved = names_on(&backends, 0, 1, "post").remove(0);
    client.send(&open_msg(&moved));
    for e in causal_shuffle(&comp, 8, 2) {
        client.send(&event_msg(&comp, &moved, e));
    }
    client.send(&ClientMsg::Close {
        session: moved.clone(),
    });
    let verdicts = collect_until_closed(&mut client, std::slice::from_ref(&moved));
    assert_eq!(verdicts[&moved][0].1, WireVerdict::Detected(least));

    let snap = gw.metrics();
    assert_eq!(snap.drains_started, 1);
    assert_eq!(snap.drains_completed, 1);
    assert_eq!(snap.backends_healthy, 1);
    assert_eq!(snap.sessions_failed_over, 0, "drain is not failover");

    // A second drain of the same backend is an error: it is removed.
    let mut c = Client::connect(&gw_addr);
    c.send(&ClientMsg::Drain {
        backend: backends[0].clone(),
    });
    match c.recv() {
        ServerMsg::Error { message, .. } => {
            assert!(message.contains("unknown or already removed"), "{message}")
        }
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn no_healthy_backend_is_reported_not_hung() {
    // A gateway whose only backend never existed: opens fail with an
    // explicit error once the dial gives up, and the client stays
    // connected.
    let (gw_addr, _gw) = start_gateway(vec!["127.0.0.1:1".into()]);
    let mut client = Client::connect(&gw_addr);
    client.send(&open_msg("nb-0"));
    match client.recv() {
        ServerMsg::Error {
            session, message, ..
        } => {
            assert_eq!(session.as_deref(), Some("nb-0"));
            assert!(message.contains("no healthy backend"), "{message}");
        }
        other => panic!("unexpected frame: {other:?}"),
    }
    // The synthetic close unblocks clients waiting for the session end.
    assert!(matches!(client.recv(), ServerMsg::Closed { .. }));
    // The gateway itself is still responsive.
    client.send(&ClientMsg::Hello {
        version: wire::WIRE_VERSION,
    });
    assert!(matches!(client.recv(), ServerMsg::Welcome { .. }));
}

#[test]
fn a_frame_that_cannot_be_read_is_counted_as_a_protocol_error() {
    let (gw_addr, _gw) = start_gateway(vec!["127.0.0.1:1".into()]);
    let mut garbled = Client::connect(&gw_addr);
    garbled
        .w
        .write_all(b"this is not a frame\n")
        .and_then(|()| garbled.w.flush())
        .expect("send garbage");
    match garbled.recv() {
        ServerMsg::Error {
            session: None,
            kind: None,
            message,
        } => assert!(message.contains("bad frame header byte"), "{message}"),
        other => panic!("unexpected frame: {other:?}"),
    }
    let mut client = Client::connect(&gw_addr);
    client.send(&ClientMsg::Stats);
    match client.recv() {
        ServerMsg::Stats { counters } => assert_eq!(counters["gateway_protocol_errors"], 1),
        other => panic!("unexpected frame: {other:?}"),
    }
}

// ---- distributed sessions -------------------------------------------------

fn dist_open_msg(session: &str, k: usize) -> ClientMsg {
    match open_msg(session) {
        ClientMsg::Open {
            session,
            processes,
            vars,
            initial,
            predicates,
            ..
        } => ClientMsg::Open {
            session,
            processes,
            vars,
            initial,
            predicates,
            dist: Some(wire::WireDistRole::Distribute { k }),
        },
        _ => unreachable!(),
    }
}

/// The gateway's deterministic distributed placement, recomputed from
/// the backend addresses: rank 0 hosts the aggregator, worker `w`
/// lands on rank `(w + 1) % len`.
fn ranked(backends: &[String], session: &str) -> Vec<usize> {
    let mut v: Vec<(u64, usize)> = backends
        .iter()
        .enumerate()
        .map(|(i, a)| (rendezvous::weight(a, session), i))
        .collect();
    v.sort_by_key(|&(w, i)| (std::cmp::Reverse(w), i));
    v.into_iter().map(|(_, i)| i).collect()
}

#[test]
fn distributed_session_detects_like_a_single_backend_and_reports_topology() {
    let (comp, x0, x1) = fig2a();
    let least = offline_cut(&comp, x0, x1);

    let (addr_a, _svc_a) = start_monitor();
    let (addr_b, _svc_b) = start_monitor();
    let (addr_c, _svc_c) = start_monitor();
    let backends = vec![addr_a, addr_b, addr_c];
    let (gw_addr, gw) = start_gateway(backends.clone());

    let name = "dist-0".to_string();
    let layout = ranked(&backends, &name);

    let mut client = Client::connect(&gw_addr);
    client.send(&dist_open_msg(&name, 2));
    for e in causal_shuffle(&comp, 0xd157, 3) {
        client.send(&event_msg(&comp, &name, e));
    }

    // Topology is visible in the aggregated stats while the session
    // lives; the indices must match the recomputed rendezvous ranking.
    client.send(&ClientMsg::Stats);
    let mut pre_close: Vec<ServerMsg> = Vec::new();
    let counters = loop {
        match client.recv() {
            ServerMsg::Stats { counters } => break counters,
            other => pre_close.push(other),
        }
    };
    assert_eq!(counters[&format!("dist.{name}.k")], 2);
    assert_eq!(
        counters[&format!("dist.{name}.aggregator")],
        layout[0] as u64
    );
    assert_eq!(counters[&format!("dist.{name}.w0")], layout[1] as u64);
    assert_eq!(counters[&format!("dist.{name}.w1")], layout[2] as u64);
    assert_eq!(counters["gateway_dist_sessions_routed"], 1);

    client.send(&ClientMsg::Close {
        session: name.clone(),
    });

    let mut verdicts: Vec<(String, WireVerdict)> = Vec::new();
    let mut queue: Vec<ServerMsg> = pre_close;
    queue.reverse();
    loop {
        let msg = queue.pop().unwrap_or_else(|| client.recv());
        match msg {
            ServerMsg::Verdict {
                predicate, verdict, ..
            } => verdicts.push((predicate, verdict)),
            ServerMsg::Closed { session, discarded } => {
                assert_eq!(session, name);
                assert_eq!(discarded, 0);
                break;
            }
            ServerMsg::Opened { .. } => {}
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    assert_eq!(verdicts.len(), 1, "exactly one verdict: {verdicts:?}");
    assert_eq!(verdicts[0].0, "ef");
    assert_eq!(verdicts[0].1, WireVerdict::Detected(least));

    // After close the topology keys are gone, and the workers' flushed
    // slice counters aggregate through the same fan-out the plain
    // per-backend counters use.
    client.send(&ClientMsg::Stats);
    let counters = match client.recv() {
        ServerMsg::Stats { counters } => counters,
        other => panic!("unexpected frame: {other:?}"),
    };
    assert!(!counters.contains_key(&format!("dist.{name}.k")));
    assert!(counters.contains_key("slice.ef.events_in"), "{counters:?}");

    let snap = gw.metrics();
    assert_eq!(snap.dist_sessions_routed, 1);
    assert!(snap.dist_updates_relayed >= 4, "one observation per event");
    assert_eq!(snap.sessions_dropped, 0);
    assert_eq!(snap.partitions_failed_over, 0);
}

#[test]
fn worker_backend_death_mid_distributed_session_fails_over() {
    let (comp, x0, x1) = fig2a();
    let least = offline_cut(&comp, x0, x1);

    let (addr_a, _svc_a) = start_monitor();
    let (addr_b, _svc_b) = start_monitor();
    let (addr_c, _svc_c) = start_monitor();
    let proxy = ChaosProxy::start(addr_a);
    let backends = vec![proxy.addr.clone(), addr_b, addr_c];
    let (gw_addr, gw) = start_gateway(backends.clone());

    // A session whose aggregator lands AWAY from the doomed backend 0,
    // which then holds exactly one of the two worker partitions.
    let name = (0..)
        .map(|i| format!("dw-{i}"))
        .find(|n| ranked(&backends, n)[0] != 0)
        .unwrap();

    let order = causal_shuffle(&comp, 0xdead, 4);
    let (first_half, second_half) = order.split_at(order.len() / 2);

    let mut client = Client::connect(&gw_addr);
    client.send(&dist_open_msg(&name, 2));
    for e in first_half {
        client.send(&event_msg(&comp, &name, *e));
    }
    // Barrier: the stats fan-out round-trips every backend, so the
    // forwarded frames landed before the kill.
    client.send(&ClientMsg::Stats);
    let mut pre_kill: Vec<ServerMsg> = Vec::new();
    loop {
        match client.recv() {
            ServerMsg::Stats { .. } => break,
            other => pre_kill.push(other),
        }
    }

    proxy.kill();

    for e in second_half {
        client.send(&event_msg(&comp, &name, *e));
    }
    client.send(&ClientMsg::Close {
        session: name.clone(),
    });

    let mut verdicts: Vec<(String, WireVerdict)> = Vec::new();
    let mut queue: Vec<ServerMsg> = pre_kill;
    queue.reverse();
    loop {
        let msg = queue.pop().unwrap_or_else(|| client.recv());
        match msg {
            ServerMsg::Verdict {
                predicate, verdict, ..
            } => verdicts.push((predicate, verdict)),
            ServerMsg::Closed { session, discarded } => {
                assert_eq!(session, name);
                assert_eq!(discarded, 0);
                break;
            }
            ServerMsg::Opened { .. } => {}
            ServerMsg::Error {
                session, message, ..
            } => panic!("gateway error for {session:?}: {message}"),
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    assert_eq!(verdicts.len(), 1, "exactly one verdict: {verdicts:?}");
    assert_eq!(verdicts[0].0, "ef");
    assert_eq!(verdicts[0].1, WireVerdict::Detected(least));

    let snap = gw.metrics();
    assert_eq!(snap.partitions_failed_over, 1);
    assert_eq!(snap.sessions_dropped, 0);
    assert_eq!(snap.sessions_failed_over, 0, "the aggregator never moved");
}

#[test]
fn client_supplied_worker_roles_are_refused() {
    let (addr_a, _svc_a) = start_monitor();
    let (gw_addr, _gw) = start_gateway(vec![addr_a]);
    let mut client = Client::connect(&gw_addr);
    let open = match open_msg("imp-0") {
        ClientMsg::Open {
            session,
            processes,
            vars,
            initial,
            predicates,
            ..
        } => ClientMsg::Open {
            session,
            processes,
            vars,
            initial,
            predicates,
            dist: Some(wire::WireDistRole::Worker {
                origin: "other".into(),
                worker: 0,
                k: 2,
            }),
        },
        _ => unreachable!(),
    };
    client.send(&open);
    match client.recv() {
        ServerMsg::Error { kind, message, .. } => {
            assert_eq!(
                kind.as_deref(),
                Some(wire::error_kind::UNSUPPORTED_DISTRIBUTION)
            );
            assert!(message.contains("gateway-assigned"), "{message}");
        }
        other => panic!("unexpected frame: {other:?}"),
    }
}
