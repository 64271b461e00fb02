//! A server that is told to stop, stops — whatever its clients do.
//!
//! Each case runs on the built `hbtl` against three stacks: a monitor,
//! a monitor with `--data-dir`, and a gateway in front of a monitor.
//! A client sends `shutdown` on a connection of its own, and every
//! server must exit 0 within [`EXIT_BOUND`]:
//!
//! - (a) with one client connected that never sends;
//! - (b) after 20 clients each opened a session and went away without
//!   `close`;
//! - (c) with a client reading, whose conjunctive session is open. A
//!   monitor's final flush reaches it: it reads its session's verdict
//!   and `closed` before EOF. A gateway does not close its routed
//!   sessions (they live on at the monitor), so its client reads EOF.
//!
//! A durable monitor's graceful stop leaves nothing to recover: a
//! restart on the same directory reports no session recovered and no
//! record replayed.

#![cfg(unix)]

use hb_tracefmt::wire::{
    read_frame, write_frame, ClientMsg, ServerMsg, WireClause, WireMode, WirePredicate, WireVerdict,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Read};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How soon after answering `shutdown` a server must have exited.
const EXIT_BOUND: Duration = Duration::from_secs(2);

/// How long a client waits for any one frame before the test fails.
const READ_BOUND: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy)]
enum Stack {
    Monitor,
    Durable,
    Gateway,
}

const STACKS: [Stack; 3] = [Stack::Monitor, Stack::Durable, Stack::Gateway];

/// A running `hbtl … serve` child and the address it listens on.
struct Server {
    child: Child,
    addr: String,
}

/// A server a failed assertion leaves behind is killed, not leaked.
impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `hbtl <args>` and reads the address from its banner. The rest
/// of its stderr is drained so the child never blocks writing it.
fn spawn(args: &[&str]) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hbtl"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hbtl spawns");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let addr = loop {
        let mut line = String::new();
        if stderr.read_line(&mut line).expect("read banner") == 0 {
            panic!("{args:?} exited before listening: {:?}", child.wait());
        }
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest.split_whitespace().next().expect("address").to_string();
        }
    };
    std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
    Server { child, addr }
}

fn spawn_monitor(data_dir: Option<&Path>) -> Server {
    let mut args = vec!["monitor", "serve", "127.0.0.1:0"];
    let dir;
    if let Some(d) = data_dir {
        dir = d.to_string_lossy().into_owned();
        args.extend(["--data-dir", &dir]);
    }
    spawn(&args)
}

fn connect(addr: &str) -> (BufWriter<TcpStream>, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(READ_BOUND)).expect("timeout");
    let w = BufWriter::new(stream.try_clone().expect("clone stream"));
    (w, BufReader::new(stream))
}

/// The next frame; `None` at EOF.
fn recv(r: &mut BufReader<TcpStream>) -> Option<ServerMsg> {
    read_frame::<_, ServerMsg>(r).expect("a well-formed frame in time")
}

fn clause(process: usize, var: &str, value: i64) -> WireClause {
    WireClause {
        process,
        var: var.into(),
        op: "=".into(),
        value,
    }
}

/// A two-process session watching `x0 = 2 ∧ x1 = 1`.
fn open(session: &str) -> ClientMsg {
    ClientMsg::Open {
        session: session.into(),
        processes: 2,
        vars: vec!["x0".into(), "x1".into()],
        initial: vec![],
        predicates: vec![WirePredicate {
            id: "ef".into(),
            mode: WireMode::Conjunctive,
            clauses: vec![clause(0, "x0", 2), clause(1, "x1", 1)],
            pattern: None,
        }],
        dist: None,
    }
}

/// Process 0's first event, which makes its clause true: the session
/// stays undecided until process 1 speaks.
fn first_event(session: &str) -> ClientMsg {
    ClientMsg::Event {
        session: session.into(),
        p: 0,
        clock: vec![1, 0],
        set: BTreeMap::from([("x0".to_string(), 2)]),
    }
}

/// Opens `session` on a fresh connection, sends its first event, and
/// returns the connection once the open is confirmed.
fn open_session(addr: &str, session: &str) -> (BufWriter<TcpStream>, BufReader<TcpStream>) {
    let (mut w, mut r) = connect(addr);
    write_frame(&mut w, &open(session)).expect("send open");
    write_frame(&mut w, &first_event(session)).expect("send event");
    match recv(&mut r) {
        Some(ServerMsg::Opened { .. }) => (w, r),
        other => panic!("expected opened, got {other:?}"),
    }
}

fn stats(addr: &str) -> BTreeMap<String, u64> {
    let (mut w, mut r) = connect(addr);
    write_frame(&mut w, &ClientMsg::Stats).expect("send stats");
    match recv(&mut r) {
        Some(ServerMsg::Stats { counters }) => counters,
        other => panic!("expected stats, got {other:?}"),
    }
}

/// Sends `shutdown` on a connection of its own, and asserts that the
/// server exits 0 within [`EXIT_BOUND`] of answering it.
fn stop(mut server: Server, what: &str) {
    let (mut w, mut r) = connect(&server.addr);
    write_frame(&mut w, &ClientMsg::Shutdown).expect("send shutdown");
    assert_eq!(recv(&mut r), Some(ServerMsg::Bye), "{what}");
    let deadline = Instant::now() + EXIT_BOUND;
    loop {
        if let Some(status) = server.child.try_wait().expect("poll child") {
            assert!(status.success(), "{what} exited {status}");
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what} still running {EXIT_BOUND:?} after shutdown"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One stack under test: the server clients talk to and, behind a
/// gateway, its monitor.
struct Running {
    stack: Stack,
    front: Server,
    monitor: Option<Server>,
    data_dir: Option<PathBuf>,
}

impl Running {
    fn start(stack: Stack, case: &str) -> Running {
        match stack {
            Stack::Monitor => Running {
                stack,
                front: spawn_monitor(None),
                monitor: None,
                data_dir: None,
            },
            Stack::Durable => {
                let dir = std::env::temp_dir()
                    .join("hb-connection-lifecycle")
                    .join(format!("{case}-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                Running {
                    stack,
                    front: spawn_monitor(Some(&dir)),
                    monitor: None,
                    data_dir: Some(dir),
                }
            }
            Stack::Gateway => {
                let monitor = spawn_monitor(None);
                let front = spawn(&[
                    "gateway",
                    "serve",
                    "127.0.0.1:0",
                    "--backend",
                    &monitor.addr,
                ]);
                Running {
                    stack,
                    front,
                    monitor: Some(monitor),
                    data_dir: None,
                }
            }
        }
    }

    fn addr(&self) -> String {
        self.front.addr.clone()
    }

    /// Stops the front server, then the monitor behind a gateway; a
    /// durable monitor is restarted once to show it left nothing to
    /// recover.
    fn stop(self, case: &str) {
        stop(self.front, &format!("{case}: {:?} front", self.stack));
        if let Some(monitor) = self.monitor {
            stop(monitor, &format!("{case}: monitor behind the gateway"));
        }
        if let Some(dir) = self.data_dir {
            let again = spawn_monitor(Some(&dir));
            let counters = stats(&again.addr);
            assert_eq!(counters["sessions_recovered"], 0, "{case}");
            assert_eq!(counters["recovery_replayed"], 0, "{case}");
            stop(again, &format!("{case}: restarted durable monitor"));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// (a) A client that connects and never sends does not hold the stop.
#[test]
fn an_idle_client_does_not_hold_shutdown() {
    for stack in STACKS {
        let running = Running::start(stack, "idle");
        let idle = TcpStream::connect(running.addr()).expect("connect");
        // The idle connection is registered once `stats` has answered
        // on a later one.
        stats(&running.addr());
        running.stop(&format!("idle/{stack:?}"));
        idle.set_read_timeout(Some(READ_BOUND)).expect("timeout");
        let read = (&idle).read(&mut [0u8; 1]).expect("EOF in time");
        assert_eq!(read, 0, "{stack:?}: the idle client reads EOF");
    }
}

/// (b) Clients that open a session and leave without `close` pin no
/// thread the stop waits on.
#[test]
fn departed_clients_with_open_sessions_do_not_hold_shutdown() {
    for stack in STACKS {
        let running = Running::start(stack, "departed");
        for i in 0..20 {
            drop(open_session(&running.addr(), &format!("d{i}")));
        }
        if let Stack::Gateway = stack {
            // Only the connection asking is still connected.
            let deadline = Instant::now() + READ_BOUND;
            while stats(&running.addr())["gateway_clients_connected"] != 1 {
                assert!(Instant::now() < deadline, "departures never counted");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        running.stop(&format!("departed/{stack:?}"));
    }
}

/// (c) A reading client with an open session is still connected when
/// the stop comes from elsewhere. A monitor flushes its session into
/// it — the verdict, then `closed` — before EOF, every time.
#[test]
fn a_reading_client_sees_its_sessions_settle_before_eof() {
    for stack in STACKS {
        let runs = match stack {
            Stack::Gateway => 1,
            Stack::Monitor | Stack::Durable => 20,
        };
        for run in 0..runs {
            let case = format!("reading/{stack:?}/{run}");
            let running = Running::start(stack, &format!("reading-{run}"));
            let (_w, mut r) = open_session(&running.addr(), "c");
            running.stop(&case);
            if let Stack::Monitor | Stack::Durable = stack {
                assert_eq!(
                    recv(&mut r),
                    Some(ServerMsg::Verdict {
                        session: "c".into(),
                        predicate: "ef".into(),
                        verdict: WireVerdict::Impossible,
                    }),
                    "{case}"
                );
                match recv(&mut r) {
                    Some(ServerMsg::Closed { session, .. }) => assert_eq!(session, "c"),
                    other => panic!("{case}: expected closed, got {other:?}"),
                }
            }
            assert_eq!(recv(&mut r), None, "{case}: EOF last");
        }
    }
}
