//! The layer ledger of a server workload's traced run: the workload's
//! own bytes replayed serially through each layer's public functions,
//! with a span around every call and (before and after) without, plus the legs
//! that time one layer alone (the detectors, the causal buffer, the
//! slicer, the in-process service, the loopback floor).
//!
//! Everything here runs on the harness thread against the library
//! crates; the real server only provides the end-to-end figure and the
//! counters these numbers are set against.

use crate::gen::Frames;
use crate::host;
use crate::report::Outcome;
use crate::server::{out_dir, Conn, Scratch, Server};
use crate::stats;
use crate::trace::Tracer;
use crossbeam::channel::unbounded;
use hb_computation::{LocalState, VarId, VarTable};
use hb_detect::online::{OnlineEfConjunctive, OnlineMonitor};
use hb_dist::buffer::{CausalBuffer, OverflowPolicy};
use hb_monitor::{
    MonitorConfig, MonitorService, ServiceSnapshot, Session, SessionLimits, VerdictEvent,
};
use hb_pattern::PredictiveMatcher;
use hb_predicates::{CmpOp, LocalExpr};
use hb_slice::SliceFilter;
use hb_store::{Store, StoreOptions, SyncPolicy};
use hb_tracefmt::wire::{
    read_frame, write_frame, ClientMsg, ServerMsg, WireMode, WirePredicate, WireVerdict,
};
use hb_vclock::VectorClock;
use serde::Serialize as _;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// The layers a span can name, in ledger order. `harness` is the glue
/// between calls (cloning a clock, routing by session name).
const TRACED_LAYERS: [&str; 7] = [
    "tracefmt.wire.read",
    "monitor.persist",
    "store",
    "monitor.session",
    "tracefmt.wire.write",
    "tracefmt.json",
    "ctl",
];

/// Turns a traced replay into ledger rows: self time per event and per
/// layer, each layer's share of the end-to-end time per event, what the
/// spans cost, and how much of the replay the layer spans account for.
///
/// A server overlaps its layers on several threads and the replay is
/// serial, so the shares may add up to more than one; what is left over
/// (or over-explained) is `trace.share.other`.
pub fn report_trace(
    out: &mut Outcome,
    tracer: &Tracer,
    events: f64,
    end_to_end_ns_per_event: f64,
    plain_s: f64,
    traced_s: f64,
) {
    let times = tracer.self_times();
    out.set("trace.end_to_end_ns_per_event", end_to_end_ns_per_event);
    out.set("trace.replay_ns_per_event", plain_s * 1e9 / events);
    out.set("trace.overhead_share", (traced_s - plain_s) / plain_s);
    let mut covered = 0.0;
    let mut shares = 0.0;
    for layer in TRACED_LAYERS {
        let self_ns = times.get(layer).map_or(0.0, |t| t.self_ns as f64);
        covered += self_ns;
        let share = self_ns / events / end_to_end_ns_per_event;
        shares += share;
        out.set(
            &format!("trace.self_ns_per_event.{layer}"),
            self_ns / events,
        );
        out.set(&format!("trace.share.{layer}"), share);
    }
    let harness = times.get("harness").map_or(0.0, |t| t.self_ns as f64);
    out.set("trace.self_ns_per_event.harness", harness / events);
    out.set("trace.share.other", 1.0 - shares);
    out.set("trace.coverage_share", covered / (traced_s * 1e9));
    out.set("trace.spans", tracer.spans().len() as f64);
}

/// Writes the spans to `benchmark/out/trace-<workload>.json`.
pub fn write_trace(out: &mut Outcome, tracer: &Tracer, workload: &str) {
    let path = out_dir().join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| tracer.write_json(&path));
    match written {
        Ok(()) => out.note("trace_file", path.display()),
        Err(e) => out.invalid.push(format!("write {}: {e}", path.display())),
    }
}

/// A fixed-size leg against the real server, bracketed by `/proc`
/// readings of the server and of the harness.
pub struct ServerLeg {
    pid: String,
    server_cpu: f64,
    harness_cpu: f64,
}

impl ServerLeg {
    /// Call right before the leg's first byte is sent.
    pub fn start(server: &Server) -> ServerLeg {
        let pid = server.pid();
        ServerLeg {
            server_cpu: host::cpu_ns(&pid).unwrap_or(0.0),
            harness_cpu: host::cpu_ns("self").unwrap_or(0.0),
            pid,
        }
    }

    /// Call when the leg's last reply was read, on its still-open
    /// connection (the server's two threads for it are counted): CPU per
    /// event on both sides, context switches, and the `stats` counters.
    pub fn finish(self, out: &mut Outcome, conn: &mut Conn, events: f64) -> Result<(), String> {
        let server_cpu = host::cpu_ns(&self.pid).unwrap_or(0.0) - self.server_cpu;
        let harness_cpu = host::cpu_ns("self").unwrap_or(0.0) - self.harness_cpu;
        let switches = host::ctx_switches(&self.pid).unwrap_or(0);
        out.set("proc.server_cpu_ns_per_event", server_cpu / events);
        out.set(
            "proc.server_ctx_switches_per_event",
            switches as f64 / events,
        );
        out.set("proc.gen_cpu_ns_per_event", harness_cpu / events);
        report_server(out, &conn.stats()?);
        Ok(())
    }
}

/// Copies the server's `stats` counters into the ledger.
fn report_server(out: &mut Outcome, counters: &BTreeMap<String, u64>) {
    for name in [
        "events_ingested",
        "batches_ingested",
        "events_delivered",
        "events_held_high_water",
        "events_rejected",
        "verdicts_settled",
        "wal_records",
        "wal_bytes",
        "wal_fsyncs",
        "wal_fsync_max_micros",
        "snapshots_written",
        "recovery_replayed",
        "recovery_millis",
    ] {
        let value = counters.get(name).copied().unwrap_or(0);
        out.set(&format!("server.{name}"), value as f64);
    }
    for field in ["events_in", "events_filtered"] {
        let total = slice_total(counters, field);
        out.set(&format!("server.slice_{field}"), total as f64);
    }
}

/// Sums the per-predicate `slice.<id>.<field>` counters.
fn slice_total(counters: &BTreeMap<String, u64>, field: &str) -> u64 {
    counters
        .iter()
        .filter(|(k, _)| k.starts_with("slice.") && k.ends_with(field))
        .map(|(_, v)| v)
        .sum()
}

/// One session of the workload, taken apart for the single-layer legs.
struct Feed {
    processes: usize,
    vars: Vec<String>,
    predicates: Vec<WirePredicate>,
    /// `(process, clock, assignments)` in arrival order.
    arrivals: Vec<(usize, Vec<u32>, BTreeMap<String, i64>)>,
}

fn feeds(msgs: &[ClientMsg]) -> Vec<Feed> {
    let mut index: BTreeMap<&str, usize> = BTreeMap::new();
    let mut feeds: Vec<Feed> = Vec::new();
    for msg in msgs {
        match msg {
            ClientMsg::Open {
                session,
                processes,
                vars,
                predicates,
                ..
            } => {
                index.insert(session, feeds.len());
                feeds.push(Feed {
                    processes: *processes,
                    vars: vars.clone(),
                    predicates: predicates.clone(),
                    arrivals: Vec::new(),
                });
            }
            ClientMsg::Event {
                session,
                p,
                clock,
                set,
            } => feeds[index[session.as_str()]]
                .arrivals
                .push((*p, clock.clone(), set.clone())),
            ClientMsg::Events { session, events } => feeds[index[session.as_str()]]
                .arrivals
                .extend(events.iter().map(|e| (e.p, e.clock.clone(), e.set.clone()))),
            _ => {}
        }
    }
    feeds
}

/// An event as the causal buffer released it.
struct Delivery {
    process: usize,
    clock: VectorClock,
    set: Vec<(VarId, i64)>,
}

fn var_table(names: &[String]) -> VarTable {
    let mut vars = VarTable::new();
    for n in names {
        vars.declare(n);
    }
    vars
}

/// A session's events in the order its causal buffer delivers them.
fn deliveries(feed: &Feed) -> Vec<Delivery> {
    let vars = var_table(&feed.vars);
    let mut buffer = CausalBuffer::new(feed.processes, 4096, OverflowPolicy::Reject);
    let mut out = Vec::with_capacity(feed.arrivals.len());
    for (p, clock, set) in &feed.arrivals {
        let set: Vec<(VarId, i64)> = set
            .iter()
            .map(|(name, v)| (vars.lookup(name).expect("declared at open"), *v))
            .collect();
        let released = buffer
            .ingest(*p, VectorClock::from_components(clock.clone()), set)
            .expect("generated streams fit the buffer");
        out.extend(released.into_iter().map(|d| Delivery {
            process: d.process,
            clock: d.clock,
            set: d.payload,
        }));
    }
    out
}

fn cmp_op(op: &str) -> CmpOp {
    match op {
        "=" => CmpOp::Eq,
        "<=" => CmpOp::Le,
        other => panic!("the generator never uses operator {other}"),
    }
}

/// Per-process clause table of a conjunctive predicate, as
/// `Session::open` builds it.
fn clause_table(pred: &WirePredicate, vars: &VarTable, processes: usize) -> Vec<Option<LocalExpr>> {
    let mut clauses = vec![None; processes];
    for c in &pred.clauses {
        let var = vars.lookup(&c.var).expect("declared at open");
        clauses[c.process] = Some(LocalExpr::Cmp(var, cmp_op(&c.op), c.value));
    }
    clauses
}

/// Seconds `f` takes, as the median of three runs.
fn median_secs(mut f: impl FnMut() -> f64) -> f64 {
    stats::median(&mut [f(), f(), f()])
}

/// Encoding every frame of the workload again, into memory.
fn encode_leg(msgs: &[ClientMsg]) -> f64 {
    let mut sink = Vec::with_capacity(1 << 16);
    median_secs(|| {
        let t = Instant::now();
        for msg in msgs {
            sink.clear();
            write_frame(&mut sink, msg).expect("writing to memory cannot fail");
            black_box(&sink);
        }
        t.elapsed().as_secs_f64()
    })
}

/// A `verdict` frame written and read back, per frame.
fn verdict_roundtrip_leg() -> f64 {
    const FRAMES: usize = 20_000;
    let verdict = ServerMsg::Verdict {
        session: "ws-0".into(),
        predicate: "sparse".into(),
        verdict: WireVerdict::Detected(vec![16; 8]),
    };
    let mut buf = Vec::new();
    median_secs(|| {
        let t = Instant::now();
        for _ in 0..FRAMES {
            buf.clear();
            write_frame(&mut buf, &verdict).expect("writing to memory cannot fail");
            let back: Option<ServerMsg> =
                read_frame(&mut Cursor::new(&buf)).expect("own frame decodes");
            black_box(back);
        }
        t.elapsed().as_secs_f64()
    }) / FRAMES as f64
}

/// The same bytes through a loopback socket into a thread that throws
/// them away: what the kernel charges before any monitor code runs.
fn loopback_leg(frames: &Frames) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("loopback: {e}");
    let mut secs = Vec::new();
    for _ in 0..3 {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
        let addr = listener.local_addr().map_err(io)?;
        let sink = std::thread::spawn(move || -> std::io::Result<u64> {
            let (mut peer, _) = listener.accept()?;
            let mut buf = vec![0u8; 1 << 16];
            let mut total = 0u64;
            loop {
                match peer.read(&mut buf)? {
                    0 => return Ok(total),
                    n => total += n as u64,
                }
            }
        });
        let mut stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        let t = Instant::now();
        stream.write_all(&frames.bytes).map_err(io)?;
        stream.shutdown(std::net::Shutdown::Write).map_err(io)?;
        let got = sink
            .join()
            .map_err(|_| "loopback sink panicked".to_string())?
            .map_err(io)?;
        secs.push(t.elapsed().as_secs_f64());
        if got != frames.bytes.len() as u64 {
            return Err(format!(
                "loopback sink read {got} of {} bytes",
                frames.bytes.len()
            ));
        }
    }
    Ok(stats::median(&mut secs))
}

/// Median round trip of one event-sized frame to an echoing thread.
fn echo_leg(frame: &[u8]) -> Result<f64, String> {
    const PINGS: usize = 2_000;
    let io = |e: std::io::Error| format!("echo: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let len = frame.len();
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        let mut buf = vec![0u8; len];
        while peer.read_exact(&mut buf).is_ok() {
            peer.write_all(&buf)?;
        }
        Ok(())
    });
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let mut back = vec![0u8; len];
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        stream.write_all(frame).map_err(io)?;
        stream.read_exact(&mut back).map_err(io)?;
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(stream);
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())?
        .map_err(io)?;
    Ok(stats::median(&mut rtts))
}

/// The whole workload through `MonitorHandle::submit` of an in-process
/// service with default settings, to the last `closed`.
fn submit_leg(msgs: &[ClientMsg], sessions: usize) -> Result<f64, String> {
    let mut secs = Vec::new();
    for _ in 0..3 {
        let owned = msgs.to_vec();
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        let t = Instant::now();
        for msg in owned {
            handle.submit(msg, &tx);
        }
        let mut closed = 0;
        while closed < sessions {
            match rx.recv().map_err(|_| "service dropped its sink")? {
                ServerMsg::Closed { .. } => closed += 1,
                ServerMsg::Error { message, .. } => return Err(format!("submit: {message}")),
                _ => {}
            }
        }
        secs.push(t.elapsed().as_secs_f64());
        service.shutdown();
    }
    Ok(stats::median(&mut secs))
}

/// Opening and closing an empty session of the workload's shape.
fn open_close_leg(open: &ClientMsg) -> Result<f64, String> {
    const SESSIONS: usize = 2_000;
    let ClientMsg::Open {
        processes,
        vars,
        predicates,
        ..
    } = open
    else {
        return Err("the workload's first frame is not an open".into());
    };
    let msgs: Vec<ClientMsg> = (0..SESSIONS)
        .flat_map(|i| {
            let session = format!("oc-{i}");
            [
                ClientMsg::Open {
                    session: session.clone(),
                    processes: *processes,
                    vars: vars.clone(),
                    initial: Vec::new(),
                    predicates: predicates.clone(),
                    dist: None,
                },
                ClientMsg::Close { session },
            ]
        })
        .collect();
    Ok(submit_leg(&msgs, SESSIONS)? / SESSIONS as f64 * 1e6)
}

/// Every event through `Session::event`, slicer on or off.
fn session_leg(feeds: &[Feed], slice: bool) -> f64 {
    let limits = SessionLimits {
        slice,
        ..SessionLimits::default()
    };
    median_secs(|| {
        let mut total = 0.0;
        for feed in feeds {
            let mut session = Session::open(
                "leg",
                feed.processes,
                &feed.vars,
                &[],
                &feed.predicates,
                limits,
            )
            .expect("the workload's own open");
            let arrivals = feed.arrivals.clone();
            let t = Instant::now();
            for (p, clock, set) in arrivals {
                let verdicts: Vec<VerdictEvent> = session
                    .event(p, VectorClock::from_components(clock), &set)
                    .expect("generated events are accepted");
                black_box(verdicts);
            }
            total += t.elapsed().as_secs_f64();
        }
        total
    })
}

/// Every event through a bare causal buffer; also how many events it
/// had to hold and the most it held at once.
fn buffer_leg(feeds: &[Feed]) -> (f64, u64, usize) {
    let (mut held, mut high_water) = (0u64, 0usize);
    let secs = median_secs(|| {
        (held, high_water) = (0, 0);
        let mut total = 0.0;
        for feed in feeds {
            let mut buffer = CausalBuffer::new(feed.processes, 4096, OverflowPolicy::Reject);
            let arrivals: Vec<(usize, VectorClock)> = feed
                .arrivals
                .iter()
                .map(|(p, clock, _)| (*p, VectorClock::from_components(clock.clone())))
                .collect();
            let t = Instant::now();
            for (p, clock) in arrivals {
                let released = buffer
                    .ingest(p, clock, ())
                    .expect("generated streams fit the buffer");
                // Nothing is released unless the new event is.
                held += u64::from(released.is_empty());
                black_box(released);
            }
            total += t.elapsed().as_secs_f64();
            high_water = high_water.max(buffer.high_water());
        }
        total
    });
    (secs, held, high_water)
}

/// Every delivered event through each conjunctive predicate's slice
/// filter, the way the session drives it. Returns the seconds, the
/// number of `advance` calls, and per predicate id `(in, filtered)`.
fn slice_leg(
    feeds: &[Feed],
    delivered: &[Vec<Delivery>],
) -> (f64, u64, BTreeMap<String, (u64, u64)>) {
    let mut admitted: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut calls = 0u64;
    let secs = median_secs(|| {
        admitted.clear();
        calls = 0;
        let mut total = 0.0;
        for (feed, delivered) in feeds.iter().zip(delivered) {
            let vars = var_table(&feed.vars);
            for pred in feed
                .predicates
                .iter()
                .filter(|p| hb_slice::sliceable(p.mode))
            {
                let clauses = clause_table(pred, &vars, feed.processes);
                let mut states = vec![LocalState::zeroed(vars.len()); feed.processes];
                let mut filter = SliceFilter::from_clauses(&clauses, &states);
                let t = Instant::now();
                for d in delivered {
                    for &(var, value) in &d.set {
                        states[d.process].set(var, value);
                    }
                    let delta =
                        filter.advance(d.process, d.set.iter().map(|&(var, _)| var), || {
                            clauses[d.process]
                                .as_ref()
                                .is_some_and(|c| c.eval(&states[d.process]))
                        });
                    black_box(delta);
                }
                total += t.elapsed().as_secs_f64();
                calls += delivered.len() as u64;
                let entry = admitted.entry(pred.id.clone()).or_default();
                entry.0 += filter.events_in();
                entry.1 += filter.events_filtered();
            }
        }
        total
    });
    (secs, calls, admitted)
}

/// Every delivered event observed by the first conjunctive predicate's
/// detector, unsliced. Returns the seconds and the observations made.
fn online_leg(feeds: &[Feed], delivered: &[Vec<Delivery>]) -> (f64, u64) {
    let mut observations = 0u64;
    let secs = median_secs(|| {
        observations = 0;
        let mut total = 0.0;
        for (feed, delivered) in feeds.iter().zip(delivered) {
            let Some(pred) = feed
                .predicates
                .iter()
                .find(|p| p.mode == WireMode::Conjunctive)
            else {
                continue;
            };
            let vars = var_table(&feed.vars);
            let clauses = clause_table(pred, &vars, feed.processes);
            let mut states = vec![LocalState::zeroed(vars.len()); feed.processes];
            let holds: Vec<bool> = delivered
                .iter()
                .map(|d| {
                    for &(var, value) in &d.set {
                        states[d.process].set(var, value);
                    }
                    clauses[d.process]
                        .as_ref()
                        .is_some_and(|c| c.eval(&states[d.process]))
                })
                .collect();
            let participating = clauses.iter().map(Option::is_some).collect();
            let mut detector = OnlineEfConjunctive::new(
                feed.processes,
                participating,
                vec![false; feed.processes],
            );
            let t = Instant::now();
            for (d, &holds) in delivered.iter().zip(&holds) {
                // A settled detector is no longer fed by the session.
                if OnlineMonitor::is_settled(&detector) {
                    break;
                }
                detector.observe(d.process, holds, &d.clock);
                observations += 1;
            }
            total += t.elapsed().as_secs_f64();
            black_box(detector.verdict());
        }
        total
    });
    (secs, observations)
}

/// Every delivered event labelled and fed to the pattern predicate's
/// predictive matcher. Returns the seconds and the events observed.
fn pattern_leg(feeds: &[Feed], delivered: &[Vec<Delivery>]) -> (f64, u64) {
    let mut observed = 0u64;
    let secs = median_secs(|| {
        observed = 0;
        let mut total = 0.0;
        for (feed, delivered) in feeds.iter().zip(delivered) {
            let Some(pattern) = feed.predicates.iter().find_map(|p| p.pattern.as_ref()) else {
                continue;
            };
            let vars = var_table(&feed.vars);
            let atoms: Vec<(VarId, CmpOp, i64)> = pattern
                .atoms
                .iter()
                .map(|a| {
                    (
                        vars.lookup(&a.var).expect("declared at open"),
                        cmp_op(&a.op),
                        a.value,
                    )
                })
                .collect();
            let masks: Vec<u64> = delivered
                .iter()
                .map(|d| {
                    atoms
                        .iter()
                        .enumerate()
                        .filter(|(_, &(var, op, lit))| {
                            d.set
                                .iter()
                                .any(|&(v, value)| v == var && op.apply(value, lit))
                        })
                        .fold(0u64, |mask, (k, _)| mask | 1 << k)
                })
                .collect();
            let mut matcher = PredictiveMatcher::from_wire(feed.processes, pattern);
            let t = Instant::now();
            for (d, &mask) in delivered.iter().zip(&masks) {
                if matcher.is_settled() {
                    break;
                }
                matcher.observe_atoms(d.process, mask, &d.clock);
                observed += 1;
            }
            total += t.elapsed().as_secs_f64();
            black_box(matcher.verdict());
        }
        total
    });
    (secs, observed)
}

/// What the serial replay produced besides its spans.
struct Replayed {
    secs: f64,
    /// Reply frames encoded.
    replies: usize,
    /// WAL counters, when a store was attached.
    wal: Option<hb_store::WalStats>,
}

/// The workload's bytes through the layers' public functions, one call
/// after the other on this thread: `read_frame`, (`to_string` +
/// `Store::append` when durable), `Session::open`/`event`/`close`,
/// `write_frame` of every reply.
fn replay(
    frames: &Frames,
    tracer: &mut Tracer,
    data: Option<&Scratch>,
) -> Result<Replayed, String> {
    let mut store = data
        .map(|d| Store::open(d.path(), StoreOptions::default()))
        .transpose()
        .map_err(|e| format!("open store: {e}"))?;
    let mut sessions: BTreeMap<String, Session> = BTreeMap::new();
    let mut reader = Cursor::new(&frames.bytes);
    let mut reply_bytes = Vec::new();
    let mut replies = 0usize;
    let started = Instant::now();
    for id in 0u64.. {
        tracer.enter("harness", id);
        tracer.enter("tracefmt.wire.read", id);
        let msg = read_frame::<_, ClientMsg>(&mut reader).map_err(|e| format!("replay: {e}"))?;
        tracer.exit();
        let Some(msg) = msg else {
            tracer.exit();
            break;
        };
        if let Some(store) = &mut store {
            tracer.enter("monitor.persist", id);
            let payload = serde_json::to_string(&msg.to_value()).expect("wire messages serialize");
            tracer.exit();
            tracer.enter("store", id);
            store
                .append(payload.as_bytes())
                .map_err(|e| format!("append: {e}"))?;
            tracer.exit();
        }
        let mut out: Vec<ServerMsg> = Vec::new();
        let verdicts = crate::oracle::push_verdicts;
        tracer.enter("monitor.session", id);
        match msg {
            ClientMsg::Open {
                session,
                processes,
                vars,
                initial,
                predicates,
                ..
            } => {
                let mut s = Session::open(
                    &session,
                    processes,
                    &vars,
                    &initial,
                    &predicates,
                    SessionLimits::default(),
                )
                .map_err(|e| format!("replay open: {e}"))?;
                out.push(ServerMsg::Opened {
                    session: session.clone(),
                });
                verdicts(&mut out, &session, s.take_initial_verdicts());
                sessions.insert(session, s);
            }
            ClientMsg::Event {
                session,
                p,
                clock,
                set,
            } => {
                let s = sessions
                    .get_mut(&session)
                    .ok_or("replay: unknown session")?;
                let vs = s
                    .event(p, VectorClock::from_components(clock), &set)
                    .map_err(|e| format!("replay event: {e}"))?;
                verdicts(&mut out, &session, vs);
            }
            ClientMsg::Events { session, events } => {
                let s = sessions
                    .get_mut(&session)
                    .ok_or("replay: unknown session")?;
                for e in events {
                    let vs = s
                        .event(e.p, VectorClock::from_components(e.clock), &e.set)
                        .map_err(|e| format!("replay event: {e}"))?;
                    verdicts(&mut out, &session, vs);
                }
            }
            ClientMsg::Close { session } => {
                let mut s = sessions.remove(&session).ok_or("replay: unknown session")?;
                let (vs, discarded) = s.close();
                verdicts(&mut out, &session, vs);
                out.push(ServerMsg::Closed { session, discarded });
            }
            other => return Err(format!("replay: the generator never sends {other:?}")),
        }
        tracer.exit();
        for reply in &out {
            tracer.enter("tracefmt.wire.write", id);
            reply_bytes.clear();
            write_frame(&mut reply_bytes, reply).expect("writing to memory cannot fail");
            tracer.exit();
            black_box(&reply_bytes);
        }
        replies += out.len();
        tracer.exit();
    }
    Ok(Replayed {
        secs: started.elapsed().as_secs_f64(),
        replies,
        wal: store.map(|s| s.stats()),
    })
}

/// The store alone: the workload's WAL payloads appended without any
/// fsync, a snapshot of the sessions at mid-stream written, and the
/// directory opened again to time the recovery scan.
fn store_legs(out: &mut Outcome, frames: &Frames, msgs: &[ClientMsg]) -> Result<(), String> {
    let store_err = |e: hb_store::StoreError| format!("store leg: {e}");
    let payloads: Vec<String> = msgs
        .iter()
        .map(|m| serde_json::to_string(&m.to_value()).expect("wire messages serialize"))
        .collect();
    let data = Scratch::new("store-leg")?;
    let mut store = Store::open(
        data.path(),
        StoreOptions {
            sync: SyncPolicy::Os,
            ..StoreOptions::default()
        },
    )
    .map_err(store_err)?;
    let t = Instant::now();
    for p in &payloads {
        store.append(p.as_bytes()).map_err(store_err)?;
    }
    out.set(
        "store.append_os_ns_per_record",
        t.elapsed().as_secs_f64() * 1e9 / payloads.len() as f64,
    );

    // The sessions as they stand half-way through the stream.
    let mut live = BTreeMap::new();
    let first_half = frames.span(0, frames.len() / 2);
    crate::oracle::answer(first_half, &mut live, &mut BTreeMap::new());
    let t = Instant::now();
    let snapshot = ServiceSnapshot {
        sessions: live.values().map(Session::snapshot).collect(),
        ..ServiceSnapshot::default()
    }
    .to_json();
    out.set(
        "monitor.session.snapshot_us",
        t.elapsed().as_secs_f64() * 1e6,
    );
    out.set("monitor.session.snapshot_bytes", snapshot.len() as f64);
    let t = Instant::now();
    store
        .write_snapshot(snapshot.as_bytes())
        .map_err(store_err)?;
    out.set("store.snapshot_write_ms", t.elapsed().as_secs_f64() * 1e3);

    // Nothing was compacted away, so the scan sees every record.
    drop(store);
    let store = Store::open(data.path(), StoreOptions::default()).map_err(store_err)?;
    let report = store.recovery_report();
    if report.records != payloads.len() as u64 {
        out.invalid.push(format!(
            "recovery scan found {} of {} records",
            report.records,
            payloads.len()
        ));
    }
    out.set(
        "store.recovery_scan_ns_per_record",
        report.scan_micros as f64 * 1e3 / report.records.max(1) as f64,
    );
    Ok(())
}

/// The layer ledger of one server workload over its own `frames`.
/// `end_to_end_ns` is the real server's time per event on the same
/// bytes; on a batched workload the unit of the per-frame figures is
/// the event, on `detect-latency` the frame.
pub fn ledger(
    out: &mut Outcome,
    workload: &str,
    frames: &Frames,
    events: usize,
    end_to_end_ns: f64,
) -> Result<(), String> {
    let singles = workload == "detect-latency";
    let durable = workload == "durable-stream";
    let events_f = events as f64;
    // What the per-frame codec and service figures are divided by.
    let units = if singles {
        frames.len() as f64
    } else {
        events_f
    };
    let suffix = if singles { "single" } else { "batch" };
    let per = if singles { "frame" } else { "event" };

    // The serial replay: spans off, on, off again. The two plain legs
    // bracket the traced one so that drift (a disk warming up, a busy
    // neighbour) is not booked as tracing overhead.
    let fresh = || durable.then(|| Scratch::new("replay")).transpose();
    let plain = |data: Option<Scratch>| replay(frames, &mut Tracer::new(false), data.as_ref());
    let before = plain(fresh()?)?;
    let data = fresh()?;
    let mut tracer = Tracer::new(true);
    let traced = replay(frames, &mut tracer, data.as_ref())?;
    let after = plain(fresh()?)?;
    let plain_s = (before.secs + after.secs) / 2.0;
    report_trace(out, &tracer, events_f, end_to_end_ns, plain_s, traced.secs);
    write_trace(out, &tracer, workload);
    let times = tracer.self_times();
    let self_ns = |layer: &str| times.get(layer).map_or(0.0, |t| t.self_ns as f64);
    out.set(
        &format!("tracefmt.wire.decode_{suffix}_ns_per_{per}"),
        self_ns("tracefmt.wire.read") / units,
    );
    out.set(
        &format!("tracefmt.wire.bytes_per_event_{suffix}"),
        frames.bytes.len() as f64 / events_f,
    );
    out.note("replay_reply_frames", traced.replies);
    if let Some(wal) = traced.wal {
        out.set(
            "monitor.persist.encode_ns_per_event",
            self_ns("monitor.persist") / events_f,
        );
        out.set(
            "store.append_ns_per_record",
            self_ns("store") / wal.appended_records as f64,
        );
        out.set(
            "store.bytes_per_event",
            wal.appended_bytes as f64 / events_f,
        );
        out.set("store.fsyncs", wal.fsyncs as f64);
    }
    drop(data);

    // The single-layer legs, on the decoded workload.
    let mut msgs = Vec::with_capacity(frames.len());
    let mut reader = Cursor::new(&frames.bytes);
    while let Some(msg) = read_frame::<_, ClientMsg>(&mut reader).map_err(|e| e.to_string())? {
        msgs.push(msg);
    }
    let feeds = feeds(&msgs);
    let delivered: Vec<Vec<Delivery>> = feeds.iter().map(deliveries).collect();

    out.set(
        &format!("tracefmt.wire.encode_{suffix}_ns_per_{per}"),
        encode_leg(&msgs) * 1e9 / units,
    );
    out.set(
        "tracefmt.wire.verdict_roundtrip_ns_per_frame",
        verdict_roundtrip_leg() * 1e9,
    );
    let submit_ns = submit_leg(&msgs, feeds.len())? * 1e9 / units;
    out.set(
        &format!("monitor.service.submit_ns_per_{per}_{suffix}"),
        submit_ns,
    );
    out.set(
        "monitor.service.open_close_us_per_session",
        open_close_leg(&msgs[0])?,
    );
    if singles {
        // The first wave's four `open`s are followed by an `event`.
        let first_event = frames.frame(crate::gen::LATENCY_IN_FLIGHT);
        out.set("os.tcp.echo_rtt_p50_us", echo_leg(first_event)?);
    } else {
        let floor_ns = loopback_leg(frames)? * 1e9 / events_f;
        out.set("os.tcp.loopback_ns_per_event_batch", floor_ns);
        let decode_ns = self_ns("tracefmt.wire.read") / events_f;
        out.set(
            "monitor.service.residual_ns_per_event",
            end_to_end_ns - decode_ns - submit_ns - floor_ns,
        );
    }
    out.set(
        "monitor.session.event_ns_per_event",
        session_leg(&feeds, true) * 1e9 / events_f,
    );
    out.set(
        "monitor.session.event_noslice_ns_per_event",
        session_leg(&feeds, false) * 1e9 / events_f,
    );
    let (buffer_s, held, high_water) = buffer_leg(&feeds);
    out.set("dist.buffer.ingest_ns_per_event", buffer_s * 1e9 / events_f);
    out.set("dist.buffer.held_share", held as f64 / events_f);
    out.set("dist.buffer.held_high_water", high_water as f64);
    let (slice_s, calls, admitted) = slice_leg(&feeds, &delivered);
    out.set(
        "slice.advance_ns_per_event",
        slice_s * 1e9 / calls.max(1) as f64,
    );
    for (id, (events_in, filtered)) in admitted {
        out.set(
            &format!("slice.admit_share.{id}"),
            1.0 - filtered as f64 / events_in.max(1) as f64,
        );
    }
    let (online_s, observations) = online_leg(&feeds, &delivered);
    out.set(
        "core.online.observe_ns_per_obs",
        online_s * 1e9 / observations.max(1) as f64,
    );
    let (pattern_s, observed) = pattern_leg(&feeds, &delivered);
    out.set(
        "pattern.observe_ns_per_event",
        pattern_s * 1e9 / observed.max(1) as f64,
    );
    if durable {
        store_legs(out, frames, &msgs)?;
    }
    Ok(())
}
