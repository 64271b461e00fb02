//! `hbtl loadgen` — a swarm load generator for the online-detection
//! service (monitor or gateway; both speak the same wire protocol).
//!
//! ```text
//! hbtl loadgen <addr> [--workers M] [--sessions N] [--processes P]
//!              [--events E] [--predicates K] [--window W] [--seed S]
//!              [--batch B] [--distribute K]
//!              [--scenario ordering-violation|sparse-predicate|wide-session]
//!              [--violation-rate PCT] [--json]
//! hbtl loadgen --compare [--workers M] ... [--json]
//! ```
//!
//! `--scenario sparse-predicate` draws values from `0..32` and monitors
//! `x = 31` on every process, so only ~3% of events make a local clause
//! true: a load shape where almost every observation is clause-false.
//!
//! `--scenario ordering-violation` switches the workload to two-process
//! sessions carrying a `unlock=1 -> lock=1` **pattern** predicate: each
//! session emits a lock on process 0 and an unlock on process 1, and
//! with probability `--violation-rate` percent (default 30) the unlock
//! is planted *concurrent* with the lock instead of causally after it —
//! a causally-reorderable inversion the delivered order never exhibits,
//! which the predictive detector must still flag. Loadgen knows each
//! session's ground truth and fails loudly on any wrong verdict, so the
//! scenario doubles as an end-to-end differential check under load.
//!
//! `--scenario wide-session` stresses detector *width* instead of
//! session count: each session spans many processes (default 16) that
//! never message each other, and in roughly half the sessions every
//! process plants one `hit = 1` event — pairwise concurrent, so a
//! consistent cut satisfying the conjunctive predicate `wide` exists
//! exactly in the planted sessions. Loadgen checks every verdict
//! against that ground truth. This is the shape distributed detection
//! partitions best, so it pairs naturally with `--distribute`.
//!
//! `--distribute K` opens every session with the SDK's distributed
//! role: a *gateway* fans the event stream out over `K` worker
//! backends (partitioned by process id) and aggregates their slice
//! observations into the same verdicts a single backend would emit. A
//! plain monitor refuses the open — loadgen fails fast with the SDK's
//! typed error. Pattern predicates cannot be
//! distributed, so `--distribute` rejects `--scenario
//! ordering-violation`.
//!
//! M workers each drive N sessions over one pipelined connection:
//! every session is a seeded `hb-sim` random computation streamed as a
//! causality-respecting shuffle, monitored for K conjunctive predicates
//! that never hold (`x = -1` on every process) — the detector does full
//! work on every event and settles only at close. Reported: session and
//! event throughput plus open→closed latency percentiles, as text or
//! JSON (for CI artifact diffing).
//!
//! Sessions are driven through hb-sdk (`SessionBuilder`, `emit`,
//! `close_reclaim`), so loadgen exercises the exact client stack a real
//! instrumented program uses — the wire frames, batching, and ack
//! barriers all come from the SDK's flusher, not hand-rolled here.
//!
//! `--batch B` sets the SDK's flush-batch cap. The default of 1 keeps
//! every event in its own `event` frame; `--batch 64` lets the flusher
//! coalesce up to 64 events into one `events` frame, which is
//! the knob the batched-vs-unbatched CI comparison turns.
//!
//! `--compare` needs no running servers: it benchmarks a self-hosted
//! single monitor against a self-hosted gateway over two monitors with
//! the *same* workload, and reports the throughput ratio.

use crate::monitor_cmd::{shutdown_server, state_map, take_flag, take_switch};
use hb_gateway::{GatewayConfig, GatewayService};
use hb_monitor::{MonitorConfig, MonitorService};
use hb_sdk::transport::TcpTransport;
use hb_sdk::{
    RetryPolicy, SessionBuilder, Transport, WireAtom, WireClause, WireMode, WirePattern,
    WirePredicate, WireVerdict,
};
use hb_sim::{causal_shuffle, random_computation, RandomSpec};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Which workload the generator plants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// Random computations with never-holding conjunctive predicates.
    Impossible,
    /// Two-process lock/unlock sessions with a pattern predicate and a
    /// percentage of planted causally-reorderable inversions.
    OrderingViolation {
        /// Percent of sessions with a planted inversion.
        rate: u32,
    },
    /// Random computations over `0..32` with `x = 31` conjunctive
    /// predicates: ~3% of events touch a true local clause, so the
    /// slicing ingest filter should cut detector work ≥5x.
    SparsePredicate,
    /// One wide session per plan: many message-free processes, a
    /// conjunctive `hit = 1` predicate, and the hits planted (or one
    /// withheld) so every verdict has a known ground truth.
    WideSession,
}

/// The workload shape, fixed up front so repeated runs are identical.
#[derive(Debug, Clone)]
struct LoadSpec {
    workers: usize,
    sessions_per_worker: usize,
    processes: usize,
    events_per_process: usize,
    predicates: usize,
    window: usize,
    seed: u64,
    /// SDK flush-batch cap; 1 = one `event` frame per event.
    batch: usize,
    /// Worker partitions for distributed sessions; 0 = plain sessions.
    distribute: usize,
    scenario: Scenario,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            workers: 4,
            sessions_per_worker: 4,
            processes: 4,
            events_per_process: 32,
            predicates: 4,
            window: 8,
            seed: 1,
            batch: 1,
            distribute: 0,
            scenario: Scenario::Impossible,
        }
    }
}

/// One pre-generated session: name, shape, and the events to emit (in
/// emit order — the SDK stamps nothing; clocks are part of the plan).
struct SessionPlan {
    name: String,
    processes: usize,
    events: Vec<(usize, Vec<u32>, BTreeMap<String, i64>)>,
    /// Planted scenarios know their ground truth: `Some((id, true))` =
    /// predicate `id` must settle Detected, `Some((id, false))` =
    /// Impossible. `None` = no per-session expectation.
    expect: Option<(&'static str, bool)>,
}

/// Aggregate results of one load run.
struct LoadResult {
    sessions: usize,
    events: usize,
    batch: usize,
    wall: Duration,
    /// Open→closed per session, sorted ascending, in milliseconds.
    latencies_ms: Vec<f64>,
}

impl LoadResult {
    fn sessions_per_sec(&self) -> f64 {
        self.sessions as f64 / self.wall.as_secs_f64()
    }

    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64()
    }

    fn percentile(&self, q: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let idx = ((self.latencies_ms.len() - 1) as f64 * q / 100.0).round() as usize;
        self.latencies_ms[idx]
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"sessions\":{},\"events\":{},\"batch\":{},\"wall_secs\":{:.4},\
             \"sessions_per_sec\":{:.2},\"events_per_sec\":{:.1},\
             \"latency_ms\":{{\"p50\":{:.2},\"p90\":{:.2},\"p99\":{:.2},\"max\":{:.2}}}}}",
            self.sessions,
            self.events,
            self.batch,
            self.wall.as_secs_f64(),
            self.sessions_per_sec(),
            self.events_per_sec(),
            self.percentile(50.0),
            self.percentile(90.0),
            self.percentile(99.0),
            self.percentile(100.0),
        )
    }

    fn to_text(&self, label: &str) -> String {
        format!(
            "{label}: {} sessions, {} events in {:.3}s → {:.1} sessions/s, {:.0} events/s\n\
             {label}: open→closed latency p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms, max {:.1} ms\n",
            self.sessions,
            self.events,
            self.wall.as_secs_f64(),
            self.sessions_per_sec(),
            self.events_per_sec(),
            self.percentile(50.0),
            self.percentile(90.0),
            self.percentile(99.0),
            self.percentile(100.0),
        )
    }
}

/// The per-session seed: the run seed mixed with the session index.
fn session_seed(spec: &LoadSpec, w: usize, s: usize) -> u64 {
    spec.seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((w * spec.sessions_per_worker + s) as u64)
}

/// Deterministically builds every worker's session plans.
fn build_plans(spec: &LoadSpec) -> Vec<Vec<SessionPlan>> {
    (0..spec.workers)
        .map(|w| {
            (0..spec.sessions_per_worker)
                .map(|s| {
                    let seed = session_seed(spec, w, s);
                    let name = format!("lg-{w}-{s}");
                    match spec.scenario {
                        Scenario::Impossible => random_plan(spec, seed, name, 4),
                        Scenario::SparsePredicate => random_plan(spec, seed, name, 32),
                        Scenario::OrderingViolation { rate } => {
                            ordering_violation_plan(spec, seed, rate, name)
                        }
                        Scenario::WideSession => wide_session_plan(spec, seed, name),
                    }
                })
                .collect()
        })
        .collect()
}

/// The default workload: a seeded random computation streamed as a
/// causality-respecting shuffle of full-state events. `value_range`
/// sets how sparse any given value is — 4 for the impossible-predicate
/// scenario, 32 for the sparse-predicate one.
fn random_plan(spec: &LoadSpec, seed: u64, name: String, value_range: i64) -> SessionPlan {
    let comp = random_computation(RandomSpec {
        processes: spec.processes,
        events_per_process: spec.events_per_process,
        send_percent: 30,
        value_range,
        seed,
    });
    let order = causal_shuffle(&comp, seed ^ 0xdead_beef, spec.window);
    SessionPlan {
        name,
        processes: spec.processes,
        events: order
            .into_iter()
            .map(|e| {
                (
                    e.process,
                    comp.clock(e).components().to_vec(),
                    state_map(&comp, e),
                )
            })
            .collect(),
        expect: None,
    }
}

/// The ordering-violation workload: process 0 emits `lock=1` as its
/// first event, process 1 emits `unlock=1` as its first — causally
/// *after* the lock in a clean session, *concurrent* with it in a
/// planted one. Everything else is filler that matches no atom. The
/// emit order always shows the lock first, so in a planted session the
/// inversion exists only in the causal reordering, never in the
/// delivered interleaving.
fn ordering_violation_plan(spec: &LoadSpec, seed: u64, rate: u32, name: String) -> SessionPlan {
    let planted = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) % 100 < u64::from(rate);
    let e = spec.events_per_process.max(1);
    let mut events = Vec::with_capacity(2 * e);
    let set = |pairs: &[(&str, i64)]| -> BTreeMap<String, i64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    };
    // Process 0: lock first, then filler.
    for k in 1..=e {
        let payload = if k == 1 {
            set(&[("lock", 1)])
        } else {
            set(&[("x", k as i64)])
        };
        events.push((0, vec![k as u32, 0], payload));
    }
    // Process 1: unlock first (receiving the lock unless planted), then
    // filler along the same line.
    let cross = u32::from(!planted);
    for k in 1..=e {
        let payload = if k == 1 {
            set(&[("unlock", 1)])
        } else {
            set(&[("x", k as i64)])
        };
        events.push((1, vec![cross, k as u32], payload));
    }
    SessionPlan {
        name,
        processes: 2,
        events,
        expect: Some(("inv", planted)),
    }
}

/// The wide-session workload: one session spanning every process (so
/// vector clocks are `--processes` wide), built to stress detector
/// width rather than session count. The processes never message each
/// other; each emits filler, and its final event carries `hit = 1` —
/// except that an unplanted session withholds the hit on the last
/// process. The hits are pairwise concurrent, so a consistent cut
/// satisfying the conjunctive predicate `wide` exists exactly when the
/// session is planted (roughly half are, by seed). Events are emitted
/// round-robin across processes so a distributed gateway exercises
/// every worker partition throughout the stream.
fn wide_session_plan(spec: &LoadSpec, seed: u64, name: String) -> SessionPlan {
    let planted = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) % 100 < 50;
    let procs = spec.processes.max(2);
    let e = spec.events_per_process.max(1);
    let mut events = Vec::with_capacity(procs * e);
    for k in 1..=e {
        for p in 0..procs {
            let mut clock = vec![0u32; procs];
            clock[p] = k as u32;
            let payload: BTreeMap<String, i64> = if k == e && (planted || p + 1 < procs) {
                [("hit".to_string(), 1)].into_iter().collect()
            } else {
                [("x".to_string(), k as i64)].into_iter().collect()
            };
            events.push((p, clock, payload));
        }
    }
    SessionPlan {
        name,
        processes: procs,
        events,
        expect: Some(("wide", planted)),
    }
}

/// `K` conjunctive predicates wanting `x = value` on every process.
fn conjunctive_predicates(spec: &LoadSpec, value: i64) -> Vec<WirePredicate> {
    (0..spec.predicates)
        .map(|k| WirePredicate {
            id: format!("p{k}"),
            mode: WireMode::Conjunctive,
            clauses: (0..spec.processes)
                .map(|p| WireClause {
                    process: p,
                    var: "x".into(),
                    op: "=".into(),
                    value,
                })
                .collect(),
            pattern: None,
        })
        .collect()
}

/// The scenario's predicate set, shared by every session.
fn scenario_predicates(spec: &LoadSpec) -> Vec<WirePredicate> {
    match spec.scenario {
        // Predicates that never settle early: `x = -1` on every process
        // while values are drawn from `0..range` — the detector does
        // full work on every event and settles only at close.
        Scenario::Impossible => conjunctive_predicates(spec, -1),
        // Sparse but reachable: `x = 31` with values drawn from `0..32`
        // — each local clause holds on ~3% of events, so the slicing
        // filter admits a trickle and the detector works on the slice.
        Scenario::SparsePredicate => conjunctive_predicates(spec, 31),
        // One conjunctive predicate wanting `hit = 1` everywhere — the
        // planted cut in half the sessions, unreachable in the rest.
        Scenario::WideSession => vec![WirePredicate {
            id: "wide".into(),
            mode: WireMode::Conjunctive,
            clauses: (0..spec.processes.max(2))
                .map(|p| WireClause {
                    process: p,
                    var: "hit".into(),
                    op: "=".into(),
                    value: 1,
                })
                .collect(),
            pattern: None,
        }],
        // One pattern predicate: an unlock linearizable before a lock.
        Scenario::OrderingViolation { .. } => vec![WirePredicate {
            id: "inv".into(),
            mode: WireMode::Pattern,
            clauses: Vec::new(),
            pattern: Some(WirePattern {
                atoms: vec![
                    WireAtom {
                        process: None,
                        var: "unlock".into(),
                        op: "=".into(),
                        value: 1,
                        causal: false,
                    },
                    WireAtom {
                        process: None,
                        var: "lock".into(),
                        op: "=".into(),
                        value: 1,
                        causal: false,
                    },
                ],
            }),
        }],
    }
}

/// The variables a scenario's sessions declare.
fn scenario_vars(spec: &LoadSpec) -> &'static [&'static str] {
    match spec.scenario {
        Scenario::Impossible | Scenario::SparsePredicate => &["x"],
        Scenario::OrderingViolation { .. } => &["x", "unlock", "lock"],
        Scenario::WideSession => &["x", "hit"],
    }
}

/// Drives every worker against `addr` and merges their measurements.
fn run_load(addr: &str, plans: &[Vec<SessionPlan>], spec: &LoadSpec) -> Result<LoadResult, String> {
    let predicates = scenario_predicates(spec);
    let vars = scenario_vars(spec);
    let started = Instant::now();
    let results: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|sessions| {
                let predicates = predicates.clone();
                scope.spawn(move || drive_worker(addr, sessions, &predicates, vars, spec))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("worker panicked".into())))
            .collect()
    });
    let wall = started.elapsed();
    let mut latencies_ms = Vec::new();
    for r in results {
        latencies_ms.extend(r?);
    }
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    Ok(LoadResult {
        sessions: plans.iter().map(Vec::len).sum(),
        events: plans.iter().flatten().map(|p| p.events.len()).sum(),
        batch: spec.batch,
        wall,
        latencies_ms,
    })
}

/// One worker: a single handshaken connection, sessions driven
/// back-to-back through the SDK (`close_reclaim` hands the transport
/// from one session to the next, so frames stay pipelined on one
/// socket exactly as before).
fn drive_worker(
    addr: &str,
    sessions: &[SessionPlan],
    predicates: &[WirePredicate],
    vars: &[&str],
    spec: &LoadSpec,
) -> Result<Vec<f64>, String> {
    let mut transport: Box<dyn Transport> = Box::new(
        TcpTransport::dial(addr, RetryPolicy::with_retries(3)).map_err(|e| e.to_string())?,
    );
    let mut latencies = Vec::with_capacity(sessions.len());
    for plan in sessions {
        let t0 = Instant::now();
        let mut builder = SessionBuilder::new(&plan.name, plan.processes)
            .batch_max(spec.batch)
            .distributed(spec.distribute);
        for v in vars {
            builder = builder.var(v);
        }
        for p in predicates {
            builder = builder.predicate(p.clone());
        }
        let (session, _tracers) = builder.open(transport).map_err(|e| e.to_string())?;
        for (process, clock, payload) in &plan.events {
            let accepted = session.emit(*process, clock.clone(), payload.clone());
            if !accepted {
                return Err(format!("{}: event dropped by the SDK queue", plan.name));
            }
        }
        let (report, reclaimed) = session.close_reclaim().map_err(|e| e.to_string())?;
        transport = reclaimed;
        if let Some(message) = report.errors.first() {
            return Err(format!("server error on {}: {message}", plan.name));
        }
        if report.verdicts.len() != predicates.len() {
            return Err(format!(
                "{}: expected {} verdicts, saw {}",
                plan.name,
                predicates.len(),
                report.verdicts.len()
            ));
        }
        // Planted scenarios know each session's ground truth: a wrong
        // verdict is a detector bug, not a load artifact — fail loudly.
        if let Some((id, expect)) = plan.expect {
            let got = matches!(report.verdicts.get(id), Some(WireVerdict::Detected(_)));
            if got != expect {
                return Err(format!(
                    "{}: verdict mismatch on '{id}' — expected detected={expect}, got {:?}",
                    plan.name,
                    report.verdicts.get(id)
                ));
            }
        }
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(latencies)
}

// ---- self-hosted servers for --compare ------------------------------------

struct HostedMonitor {
    addr: String,
    service: MonitorService,
    thread: std::thread::JoinHandle<()>,
}

fn host_monitor() -> Result<HostedMonitor, String> {
    let service = MonitorService::start(MonitorConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let handle = service.handle();
    let thread = std::thread::spawn(move || {
        let _ = hb_monitor::serve(listener, handle);
    });
    Ok(HostedMonitor {
        addr,
        service,
        thread,
    })
}

impl HostedMonitor {
    fn stop(self) -> Result<(), String> {
        shutdown_server(&self.addr, 0)?;
        self.thread.join().map_err(|_| "monitor serve panicked")?;
        self.service.shutdown();
        Ok(())
    }
}

fn compare_cmd(spec: &LoadSpec, json: bool) -> Result<String, String> {
    let plans = build_plans(spec);

    // Leg 1: every worker against one monitor, directly.
    let single_result = {
        let m = host_monitor()?;
        let r = run_load(&m.addr, &plans, spec)?;
        m.stop()?;
        r
    };

    // Leg 2: the same workload through a gateway over two monitors.
    let gateway_result = {
        let a = host_monitor()?;
        let b = host_monitor()?;
        let gw = std::sync::Arc::new(GatewayService::start(GatewayConfig {
            backends: vec![a.addr.clone(), b.addr.clone()],
            ..GatewayConfig::default()
        })?);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let gw_addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let gw_thread = {
            let gw = std::sync::Arc::clone(&gw);
            std::thread::spawn(move || {
                let _ = gw.serve(listener);
            })
        };
        let r = run_load(&gw_addr, &plans, spec)?;
        shutdown_server(&gw_addr, 0)?;
        gw_thread.join().map_err(|_| "gateway serve panicked")?;
        // The gateway goes first, so no pool connection outlives it.
        let gw = std::sync::Arc::try_unwrap(gw).map_err(|_| "gateway still referenced")?;
        let _ = gw.shutdown();
        a.stop()?;
        b.stop()?;
        r
    };

    let speedup = gateway_result.sessions_per_sec() / single_result.sessions_per_sec();
    if json {
        Ok(format!(
            "{{\"workers\":{},\"single\":{},\"gateway\":{},\"speedup\":{speedup:.3}}}\n",
            spec.workers,
            single_result.to_json(),
            gateway_result.to_json(),
        ))
    } else {
        let mut out = String::new();
        out.push_str(&single_result.to_text("single-monitor"));
        out.push_str(&gateway_result.to_text("gateway+2-backends"));
        let _ = writeln!(out, "speedup: {speedup:.2}x (gateway vs single)");
        Ok(out)
    }
}

/// Dispatches `hbtl loadgen …`.
pub fn run(args: &[String]) -> Result<String, String> {
    let mut rest = args.to_vec();
    let compare = take_switch(&mut rest, "--compare");
    let json = take_switch(&mut rest, "--json");
    let mut spec = LoadSpec::default();
    if let Some(v) = take_flag(&mut rest, "--workers")? {
        spec.workers = v.parse().map_err(|_| "bad --workers")?;
    }
    if let Some(v) = take_flag(&mut rest, "--sessions")? {
        spec.sessions_per_worker = v.parse().map_err(|_| "bad --sessions")?;
    }
    let processes_flag = take_flag(&mut rest, "--processes")?;
    if let Some(v) = &processes_flag {
        spec.processes = v.parse().map_err(|_| "bad --processes")?;
    }
    if let Some(v) = take_flag(&mut rest, "--events")? {
        spec.events_per_process = v.parse().map_err(|_| "bad --events")?;
    }
    if let Some(v) = take_flag(&mut rest, "--predicates")? {
        spec.predicates = v.parse().map_err(|_| "bad --predicates")?;
    }
    if let Some(v) = take_flag(&mut rest, "--window")? {
        spec.window = v.parse().map_err(|_| "bad --window")?;
    }
    if let Some(v) = take_flag(&mut rest, "--seed")? {
        spec.seed = v.parse().map_err(|_| "bad --seed")?;
    }
    if let Some(v) = take_flag(&mut rest, "--batch")? {
        spec.batch = v.parse().map_err(|_| "bad --batch")?;
    }
    if let Some(v) = take_flag(&mut rest, "--distribute")? {
        spec.distribute = v.parse().map_err(|_| "bad --distribute")?;
    }
    let scenario = take_flag(&mut rest, "--scenario")?;
    let rate = take_flag(&mut rest, "--violation-rate")?;
    match scenario.as_deref() {
        None => {
            if rate.is_some() {
                return Err("--violation-rate needs --scenario ordering-violation".into());
            }
        }
        Some("ordering-violation") => {
            let rate = match rate {
                Some(v) => {
                    let pct: u32 = v.parse().map_err(|_| "bad --violation-rate")?;
                    if pct > 100 {
                        return Err("--violation-rate is a percent (0..=100)".into());
                    }
                    pct
                }
                None => 30,
            };
            spec.scenario = Scenario::OrderingViolation { rate };
        }
        Some("sparse-predicate") => {
            if rate.is_some() {
                return Err("--violation-rate needs --scenario ordering-violation".into());
            }
            spec.scenario = Scenario::SparsePredicate;
        }
        Some("wide-session") => {
            if rate.is_some() {
                return Err("--violation-rate needs --scenario ordering-violation".into());
            }
            spec.scenario = Scenario::WideSession;
            // Width is the point: without an explicit --processes, go
            // wide rather than inheriting the narrow default.
            if processes_flag.is_none() {
                spec.processes = 16;
            }
        }
        Some(other) => {
            return Err(format!(
                "unknown --scenario '{other}' (expected: ordering-violation, \
                 sparse-predicate, wide-session)"
            ));
        }
    }
    if spec.distribute > 0 && matches!(spec.scenario, Scenario::OrderingViolation { .. }) {
        return Err("--distribute supports conjunctive predicates only; \
                    --scenario ordering-violation uses a pattern predicate"
            .into());
    }
    if spec.workers == 0 || spec.sessions_per_worker == 0 || spec.predicates == 0 {
        return Err("--workers, --sessions, and --predicates must be at least 1".into());
    }
    if spec.batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    if compare {
        let [] = rest.as_slice() else {
            return Err("--compare hosts its own servers; no <addr> expected".into());
        };
        if spec.distribute > 0 {
            return Err(
                "--compare's single-monitor leg cannot serve distributed sessions; \
                 point --distribute at a gateway instead"
                    .into(),
            );
        }
        return compare_cmd(&spec, json);
    }
    let [addr] = rest.as_slice() else {
        return Err("loadgen needs <addr> (or --compare)".into());
    };
    let plans = build_plans(&spec);
    let result = run_load(addr, &plans, &spec)?;
    Ok(if json {
        format!("{}\n", result.to_json())
    } else {
        result.to_text("loadgen")
    })
}
