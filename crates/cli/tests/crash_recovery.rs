//! Crash-recovery acceptance test for the durable monitor.
//!
//! The scenario the WAL exists for: a real `hbtl monitor serve
//! --data-dir` process ingests half a trace over TCP, is SIGKILLed
//! mid-session, restarts on the same directory, receives the rest of
//! the trace from a fresh connection — and the verdict it settles names
//! the *same least satisfying cut* the offline detector computes on the
//! complete recorded trace.

#![cfg(unix)]

use hb_computation::{Computation, ComputationBuilder, VarId};
use hb_detect::ef_linear;
use hb_predicates::{CmpOp, Conjunctive, LocalExpr};
use hb_sim::causal_shuffle;
use hb_tracefmt::wire::{
    read_frame, write_frame, ClientMsg, ServerMsg, WireClause, WireMode, WirePredicate, WireVerdict,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Fig. 2(a) of the paper with a per-process step counter.
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

struct Server {
    child: Child,
    addr: String,
    stderr: BufReader<std::process::ChildStderr>,
}

/// Spawns `hbtl monitor serve 127.0.0.1:0 --data-dir …` and parses the
/// actual address from the startup banner — no port-picking races.
fn spawn_server(data_dir: &Path) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hbtl"))
        .args([
            "monitor",
            "serve",
            "127.0.0.1:0",
            "--data-dir",
            &data_dir.to_string_lossy(),
            "--sync",
            "always",
            "--snapshot-every",
            "3",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hbtl spawns");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let addr = loop {
        let mut line = String::new();
        if stderr.read_line(&mut line).expect("read banner") == 0 {
            let status = child.wait().expect("child reaped");
            panic!("server exited before listening: {status}");
        }
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address in banner")
                .to_string();
        }
    };
    Server {
        child,
        addr,
        stderr,
    }
}

fn connect(addr: &str) -> (BufWriter<TcpStream>, BufReader<TcpStream>) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                let w = BufWriter::new(s.try_clone().expect("clone stream"));
                return (w, BufReader::new(s));
            }
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("connect {addr}: {e}"),
        }
    }
}

fn recv(r: &mut BufReader<TcpStream>) -> ServerMsg {
    read_frame::<_, ServerMsg>(r)
        .expect("well-formed frame")
        .expect("server still connected")
}

fn event_msg(comp: &Computation, e: hb_computation::EventId) -> ClientMsg {
    let state = comp.local_state(e.process, e.index as u32 + 1);
    let set: BTreeMap<String, i64> = comp
        .vars()
        .iter()
        .map(|(id, name)| (name.to_string(), state.get(id)))
        .collect();
    ClientMsg::Event {
        session: "crash".into(),
        p: e.process,
        clock: comp.clock(e).components().to_vec(),
        set,
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hbtl-crash-e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sigkill_mid_trace_then_recover_matches_offline_least_cut() {
    let (comp, x0, x1) = fig2a();

    // Offline ground truth on the complete trace.
    let p = Conjunctive::new(vec![
        (0, LocalExpr::Cmp(x0, CmpOp::Eq, 2)),
        (1, LocalExpr::Cmp(x1, CmpOp::Eq, 1)),
    ]);
    let offline = ef_linear(&comp, &p);
    assert!(offline.holds);
    let least = offline.witness.expect("witness cut");
    assert_eq!(least.counters(), &[2, 1]);

    let data_dir = fresh_dir("sigkill");
    let order = causal_shuffle(&comp, 0xdead, 4);
    let (first_half, second_half) = order.split_at(order.len() / 2);

    // Phase 1: open the session and stream the first half.
    let server = spawn_server(&data_dir);
    {
        let (mut w, mut r) = connect(&server.addr);
        write_frame(
            &mut w,
            &ClientMsg::Open {
                session: "crash".into(),
                processes: 2,
                vars: vec!["x0".into(), "x1".into()],
                initial: vec![],
                predicates: vec![WirePredicate {
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
                }],
                dist: None,
            },
        )
        .expect("open frame");
        assert!(matches!(recv(&mut r), ServerMsg::Opened { .. }));
        for e in first_half {
            write_frame(&mut w, &event_msg(&comp, *e)).expect("event frame");
        }
        // Durability barrier: frames on one connection are ingested in
        // order and every message is WAL-appended (fsync: always)
        // before it is acted on, so once the stats reply arrives the
        // first half is on disk. The predicate can already be detected
        // inside the first half, and the shard pushes that verdict to
        // this connection asynchronously — it may land just before the
        // stats reply, so skip past it.
        write_frame(&mut w, &ClientMsg::Stats).expect("stats frame");
        loop {
            match recv(&mut r) {
                ServerMsg::Stats { .. } => break,
                ServerMsg::Verdict { .. } => {}
                other => panic!("unexpected message before stats: {other:?}"),
            }
        }
    }

    // Phase 2: SIGKILL — no shutdown hook runs, no snapshot is taken.
    let mut child = server.child;
    child.kill().expect("sigkill");
    child.wait().expect("reap");
    drop(server.stderr);

    // Phase 3: restart on the same directory; the banner reports what
    // recovery rebuilt.
    let mut server = spawn_server(&data_dir);
    {
        // The session must come back without a new Open: the first
        // frame that names it re-attaches this connection as its sink.
        let (mut w, mut r) = connect(&server.addr);
        for e in second_half {
            write_frame(&mut w, &event_msg(&comp, *e)).expect("event frame");
        }
        write_frame(
            &mut w,
            &ClientMsg::Close {
                session: "crash".into(),
            },
        )
        .expect("close frame");

        let mut verdicts: Vec<(String, WireVerdict)> = Vec::new();
        let discarded = loop {
            match recv(&mut r) {
                ServerMsg::Verdict {
                    predicate, verdict, ..
                } => verdicts.push((predicate, verdict)),
                ServerMsg::Closed { discarded, .. } => break discarded,
                ServerMsg::Error { message, .. } => panic!("server error: {message}"),
                other => panic!("unexpected message: {other:?}"),
            }
        };
        assert_eq!(discarded, 0, "the shuffle is a permutation");
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].0, "ef");
        // The online verdict across the crash equals the offline least
        // satisfying cut on the uninterrupted trace.
        assert_eq!(
            verdicts[0].1,
            WireVerdict::Detected(least.counters().to_vec())
        );
    }

    // Phase 4: graceful shutdown, then the offline tooling agrees the
    // directory is healthy.
    let (mut w, mut r) = connect(&server.addr);
    write_frame(&mut w, &ClientMsg::Shutdown).expect("shutdown frame");
    let _ = read_frame::<_, ServerMsg>(&mut r);
    server.child.wait().expect("graceful exit");

    let verify = Command::new(env!("CARGO_BIN_EXE_hbtl"))
        .args(["store", "verify", &data_dir.to_string_lossy()])
        .output()
        .expect("hbtl store verify runs");
    assert!(
        verify.status.success(),
        "{}",
        String::from_utf8_lossy(&verify.stderr)
    );
    assert!(
        String::from_utf8_lossy(&verify.stdout).contains("verification passed"),
        "{}",
        String::from_utf8_lossy(&verify.stdout)
    );
}

/// The restart banner must actually report recovered state — this pins
/// the recovery path (vs. silently starting empty, which would also
/// pass the verdict check if the second half alone satisfied EF).
#[test]
fn restart_banner_reports_recovered_sessions() {
    let (comp, _, _) = fig2a();
    let data_dir = fresh_dir("banner");

    let server = spawn_server(&data_dir);
    {
        let (mut w, mut r) = connect(&server.addr);
        write_frame(
            &mut w,
            &ClientMsg::Open {
                session: "crash".into(),
                processes: 2,
                vars: vec!["x0".into(), "x1".into()],
                initial: vec![],
                predicates: vec![],
                dist: None,
            },
        )
        .expect("open frame");
        assert!(matches!(recv(&mut r), ServerMsg::Opened { .. }));
        // One event only: Open + Event = 2 records, below the
        // --snapshot-every 3 threshold, so recovery must come from WAL
        // replay rather than a snapshot.
        for e in causal_shuffle(&comp, 1, 2).iter().take(1) {
            write_frame(&mut w, &event_msg(&comp, *e)).expect("event frame");
        }
        write_frame(&mut w, &ClientMsg::Stats).expect("stats frame");
        assert!(matches!(recv(&mut r), ServerMsg::Stats { .. }));
    }
    let mut child = server.child;
    child.kill().expect("sigkill");
    child.wait().expect("reap");

    let mut server = spawn_server(&data_dir);
    // spawn_server consumed lines up to "listening on"; recovery is
    // announced *before* that, so re-reading is impossible — instead,
    // ask the live service: the recovery counters are in the metrics.
    let (mut w, mut r) = connect(&server.addr);
    write_frame(&mut w, &ClientMsg::Stats).expect("stats frame");
    let ServerMsg::Stats { counters } = recv(&mut r) else {
        panic!("expected stats reply");
    };
    assert_eq!(counters.get("sessions_recovered"), Some(&1));
    assert!(counters.get("recovery_replayed").copied().unwrap_or(0) >= 2);

    write_frame(&mut w, &ClientMsg::Shutdown).expect("shutdown frame");
    let _ = read_frame::<_, ServerMsg>(&mut r);
    server.child.wait().expect("graceful exit");
}

/// The same crash on a wide session: 24 processes, with a conjunction
/// spanning half of them, an unsatisfiable one over all of them, a
/// disjunction and a pattern riding along — so recovery restores long
/// per-process candidate queues and all three detector families, from
/// a snapshot plus a WAL tail. Every conjunctive verdict after the
/// restart is the offline detector's on the uninterrupted trace.
#[test]
fn sigkill_mid_wide_session_then_recover_matches_offline_oracle() {
    use hb_sim::{random_computation, RandomSpec};
    use hb_tracefmt::wire::{WireAtom, WirePattern};
    const PROCESSES: usize = 24;

    let comp = random_computation(RandomSpec {
        processes: PROCESSES,
        events_per_process: 16,
        send_percent: 30,
        value_range: 6,
        seed: 0x9a7,
    });
    let x = comp.vars().lookup("x").expect("sim computations declare x");
    let mut conjunctions: Vec<(String, Vec<(usize, i64)>)> = (0..3)
        .map(|k| (format!("p{k}"), vec![(0, k), (1, k)]))
        .collect();
    conjunctions.push(("wide".into(), (0..PROCESSES / 2).map(|p| (p, 1)).collect()));
    conjunctions.push(("nope".into(), (0..PROCESSES).map(|p| (p, -1)).collect()));
    let expected: BTreeMap<String, WireVerdict> = conjunctions
        .iter()
        .map(|(id, clauses)| {
            let goal = Conjunctive::new(
                clauses
                    .iter()
                    .map(|&(p, v)| (p, LocalExpr::Cmp(x, CmpOp::Eq, v)))
                    .collect(),
            );
            let verdict = match ef_linear(&comp, &goal).witness {
                Some(least) => WireVerdict::Detected(least.counters().to_vec()),
                None => WireVerdict::Impossible,
            };
            (id.clone(), verdict)
        })
        .collect();
    // Guard against a degenerate fixture: both verdict kinds occur.
    assert!(expected
        .values()
        .any(|v| matches!(v, WireVerdict::Detected(_))));
    assert_eq!(expected["nope"], WireVerdict::Impossible);

    let clause = |process: usize, value: i64| WireClause {
        process,
        var: "x".into(),
        op: "=".into(),
        value,
    };
    let mut predicates: Vec<WirePredicate> = conjunctions
        .iter()
        .map(|(id, clauses)| WirePredicate {
            id: id.clone(),
            mode: WireMode::Conjunctive,
            clauses: clauses.iter().map(|&(p, v)| clause(p, v)).collect(),
            pattern: None,
        })
        .collect();
    predicates.push(WirePredicate {
        id: "anyhigh".into(),
        mode: WireMode::Disjunctive,
        clauses: (0..6).map(|p| clause(p, 5)).collect(),
        pattern: None,
    });
    predicates.push(WirePredicate {
        id: "chain".into(),
        mode: WireMode::Pattern,
        clauses: vec![],
        pattern: Some(WirePattern {
            atoms: [2, 3]
                .into_iter()
                .map(|value| WireAtom {
                    process: None,
                    var: "x".into(),
                    op: "=".into(),
                    value,
                    causal: false,
                })
                .collect(),
        }),
    });

    let data_dir = fresh_dir("sigkill-wide");
    let order = causal_shuffle(&comp, 0x9a7a11e1, 8);
    let (first_half, second_half) = order.split_at(order.len() / 2);
    let mut verdicts: BTreeMap<String, WireVerdict> = BTreeMap::new();

    let server = spawn_server(&data_dir);
    {
        let (mut w, mut r) = connect(&server.addr);
        write_frame(
            &mut w,
            &ClientMsg::Open {
                session: "crash".into(),
                processes: PROCESSES,
                vars: vec!["x".into()],
                initial: vec![],
                predicates,
                dist: None,
            },
        )
        .expect("open frame");
        assert!(matches!(recv(&mut r), ServerMsg::Opened { .. }));
        for e in first_half {
            write_frame(&mut w, &event_msg(&comp, *e)).expect("event frame");
        }
        // The stats reply is the durability barrier (see above);
        // verdicts that settle inside the first half arrive before it.
        write_frame(&mut w, &ClientMsg::Stats).expect("stats frame");
        loop {
            match recv(&mut r) {
                ServerMsg::Stats { .. } => break,
                ServerMsg::Verdict {
                    predicate, verdict, ..
                } => assert!(verdicts.insert(predicate, verdict).is_none()),
                other => panic!("unexpected message before stats: {other:?}"),
            }
        }
    }
    let mut child = server.child;
    child.kill().expect("sigkill");
    child.wait().expect("reap");
    drop(server.stderr);

    let mut server = spawn_server(&data_dir);
    let (mut w, mut r) = connect(&server.addr);
    for e in second_half {
        write_frame(&mut w, &event_msg(&comp, *e)).expect("event frame");
    }
    write_frame(
        &mut w,
        &ClientMsg::Close {
            session: "crash".into(),
        },
    )
    .expect("close frame");
    loop {
        match recv(&mut r) {
            ServerMsg::Verdict {
                predicate, verdict, ..
            } => {
                // Recovery re-announces what settled before the crash;
                // it must say the same thing.
                if let Some(before) = verdicts.insert(predicate.clone(), verdict.clone()) {
                    assert_eq!(before, verdict, "{predicate}");
                }
            }
            ServerMsg::Closed { discarded, .. } => {
                assert_eq!(discarded, 0, "the shuffle is a permutation");
                break;
            }
            ServerMsg::Error { message, .. } => panic!("server error: {message}"),
            other => panic!("unexpected message: {other:?}"),
        }
    }
    assert_eq!(verdicts.len(), conjunctions.len() + 2);
    for (id, want) in &expected {
        assert_eq!(verdicts.get(id), Some(want), "{id}");
    }

    write_frame(&mut w, &ClientMsg::Shutdown).expect("shutdown frame");
    let _ = read_frame::<_, ServerMsg>(&mut r);
    server.child.wait().expect("graceful exit");
}
