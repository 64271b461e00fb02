//! The `hbtl monitor` subcommand family: the online-detection service.
//!
//! ```text
//! hbtl monitor serve <addr> [--shards N] [--capacity N] [--stats-every SECS]
//!                   [--data-dir DIR] [--sync always|os|interval:<ms>]
//!                   [--snapshot-every N]
//! hbtl monitor send <addr> <trace> --session NAME
//!                   (--conj SPEC | --disj SPEC | --pattern SPEC)...
//!                   [--seed S] [--window W] [--retry N]
//! hbtl monitor stats <addr> [--json | --prometheus] [--retry N]
//! hbtl monitor shutdown <addr> [--retry N]
//! ```
//!
//! `--retry N` retries the initial connect up to N extra times with
//! capped exponential backoff and jitter — for scripts that race a
//! `serve` that is still binding, and for riding out a gateway failover.
//!
//! With `--data-dir`, every accepted message is write-ahead logged
//! before it is acknowledged and all sessions are snapshotted
//! periodically; restarting `serve` on the same directory recovers
//! every open session and resumes exactly where the crash interrupted
//! it (see `hbtl store` for offline inspection of the directory).
//!
//! A plain session feeds every delivered event to its detectors. The
//! workers of a distributed session ship per-event membership bits
//! instead; `stats --json` reports their per-predicate filter counters
//! plus a derived `slice.<pred>.reduction_ratio` (events in ÷ events
//! whose clause held).
//!
//! `send` replays a recorded trace as a live computation would emit it:
//! a seeded causality-respecting shuffle of the events (bounded
//! transport reordering on top of a random linearization) streamed over
//! the wire protocol, with per-process finish markers and a final close.
//!
//! A `--conj`/`--disj` SPEC is comma-separated `process:var op value`
//! clauses, e.g. `--conj "0:x=2,1:x=1"`. Operators: `= != < <= > >=`.
//! A `--pattern` SPEC is the hb-pattern grammar — atoms joined by `->`
//! (linearized-after) or `~>` (causally-after), e.g.
//! `--pattern "unlock=1 -> lock=1"` — matched against event *deltas*
//! predictively, over every linearization of the causal order. Note
//! `send` replays full state maps per event, so every still-set
//! variable re-matches at each event; patterns over monotone flags
//! (e.g. `err=1` written once) behave as expected.

use hb_computation::{Computation, EventId};
use hb_monitor::{serve, MonitorConfig, MonitorService, PersistConfig, SessionLimits};
use hb_sim::causal_shuffle;
use hb_store::{StoreError, SyncPolicy};
use hb_tracefmt::dial::{connect_with_retry, RetryPolicy};
use hb_tracefmt::wire::{
    self, read_frame, write_frame, ClientMsg, ServerMsg, WireClause, WireMode, WirePredicate,
    WireVerdict,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Dispatches `hbtl monitor <verb> …`.
pub fn run(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("serve") => serve_cmd(&args[1..]),
        Some("send") => send_cmd(&args[1..]),
        Some("stats") => stats_cmd(&args[1..]),
        Some("shutdown") => {
            let mut rest = args[1..].to_vec();
            let retries = take_retry(&mut rest)?;
            let [addr] = rest.as_slice() else {
                return Err("shutdown needs <addr> [--retry N]".into());
            };
            shutdown_server(addr, retries)?;
            Ok("server shut down\n".into())
        }
        _ => Err("monitor needs serve|send|stats|shutdown".into()),
    }
}

/// Pulls `--flag value` out of an argument list, leaving positionals.
pub(crate) fn take_flag(rest: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match rest.iter().position(|a| a == flag) {
        Some(i) if i + 1 < rest.len() => {
            rest.remove(i);
            Ok(Some(rest.remove(i)))
        }
        Some(_) => Err(format!("{flag} needs a value")),
        None => Ok(None),
    }
}

/// Parses `--retry N` (default 0: a single attempt).
pub(crate) fn take_retry(rest: &mut Vec<String>) -> Result<u32, String> {
    Ok(take_flag(rest, "--retry")?
        .map(|s| s.parse::<u32>().map_err(|_| "bad --retry".to_string()))
        .transpose()?
        .unwrap_or(0))
}

/// Connects with `retries` extra attempts (backoff + jitter) — the same
/// dialer the gateway uses for its backends.
pub(crate) fn connect_retry(addr: &str, retries: u32) -> Result<TcpStream, String> {
    connect_with_retry(addr, &RetryPolicy::with_retries(retries))
}

/// One `stats` request/reply exchange.
pub(crate) fn fetch_stats(addr: &str, retries: u32) -> Result<BTreeMap<String, u64>, String> {
    let stream = connect_retry(addr, retries)?;
    let mut w = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut r = BufReader::new(stream);
    write_frame(&mut w, &ClientMsg::Stats).map_err(|e| e.to_string())?;
    match read_frame::<_, ServerMsg>(&mut r).map_err(|e| e.to_string())? {
        Some(ServerMsg::Stats { counters }) => Ok(counters),
        other => Err(format!("unexpected stats reply: {other:?}")),
    }
}

/// Renders a counter map as aligned text, flat JSON, or Prometheus
/// text exposition.
pub(crate) fn render_stats(
    counters: &BTreeMap<String, u64>,
    json: bool,
    prometheus: bool,
) -> Result<String, String> {
    if json && prometheus {
        return Err("--json and --prometheus are mutually exclusive".into());
    }
    let mut out = String::new();
    if prometheus {
        out.push_str(&hb_tracefmt::prom::render(counters));
    } else if json {
        // One flat JSON object, counter name → integer value, plus a
        // derived float `slice.<pred>.reduction_ratio` per predicate a
        // worker filters: events in ÷ events whose clause held.
        use serde::Serialize as _;
        let mut entries: Vec<(String, serde::Value)> = counters
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        for (k, &events_in) in counters.range("slice.".to_string()..) {
            let Some(pred) = k
                .strip_prefix("slice.")
                .and_then(|r| r.strip_suffix(".events_in"))
            else {
                continue;
            };
            let filtered = counters
                .get(&format!("slice.{pred}.events_filtered"))
                .copied()
                .unwrap_or(0);
            let kept = events_in.saturating_sub(filtered).max(1);
            entries.push((
                format!("slice.{pred}.reduction_ratio"),
                serde::Value::Float(events_in as f64 / kept as f64),
            ));
        }
        let value = serde::Value::Object(entries);
        let _ = writeln!(
            out,
            "{}",
            serde_json::to_string(&value).map_err(|e| e.to_string())?
        );
    } else {
        for (k, v) in counters {
            let _ = writeln!(out, "{k:>24}  {v}");
        }
    }
    Ok(out)
}

fn serve_cmd(args: &[String]) -> Result<String, String> {
    let mut rest = args.to_vec();
    let shards = take_flag(&mut rest, "--shards")?
        .map(|s| s.parse::<usize>().map_err(|_| "bad --shards".to_string()))
        .transpose()?
        .unwrap_or(4);
    let capacity = take_flag(&mut rest, "--capacity")?
        .map(|s| s.parse::<usize>().map_err(|_| "bad --capacity".to_string()))
        .transpose()?
        .unwrap_or(SessionLimits::default().buffer_capacity);
    let stats_every = take_flag(&mut rest, "--stats-every")?
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| "bad --stats-every".to_string())
        })
        .transpose()?;
    let data_dir = take_flag(&mut rest, "--data-dir")?;
    let sync = take_flag(&mut rest, "--sync")?
        .map(|s| SyncPolicy::parse(&s))
        .transpose()?;
    let snapshot_every = take_flag(&mut rest, "--snapshot-every")?
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| "bad --snapshot-every".to_string())
        })
        .transpose()?;
    if data_dir.is_none() && (sync.is_some() || snapshot_every.is_some()) {
        return Err("--sync and --snapshot-every need --data-dir".into());
    }
    let persist = data_dir.map(|dir| {
        let mut p = PersistConfig::new(dir.into());
        if let Some(sync) = sync {
            p.sync = sync;
        }
        if let Some(every) = snapshot_every {
            p.snapshot_every = every.max(1);
        }
        p
    });
    let [addr] = rest.as_slice() else {
        return Err("serve needs <addr> (e.g. 127.0.0.1:7474)".into());
    };
    let listener = TcpListener::bind(addr.as_str()).map_err(|e| {
        if e.kind() == std::io::ErrorKind::AddrInUse {
            format!("bind {addr}: address already in use — is another monitor running there?")
        } else {
            format!("bind {addr}: {e}")
        }
    })?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    let durable = persist.is_some();
    let service = MonitorService::open(MonitorConfig {
        shards,
        limits: SessionLimits {
            buffer_capacity: capacity,
            ..SessionLimits::default()
        },
        stats_interval: stats_every.map(Duration::from_secs),
        persist,
    })
    .map_err(|e| match e {
        StoreError::Locked { path, pid } => format!(
            "data directory is locked ({}){} — another monitor owns it; \
             stop that process or pick a different --data-dir",
            path.display(),
            pid.map(|p| format!(" by pid {p}")).unwrap_or_default(),
        ),
        other => format!("open data dir: {other}"),
    })?;
    if durable {
        let m = service.metrics();
        eprintln!(
            "hb-monitor: recovered {} session(s), replayed {} record(s) in {} ms",
            m.sessions_recovered, m.recovery_replayed, m.recovery_millis
        );
    }
    eprintln!("hb-monitor: listening on {local} ({shards} shards)");
    serve(listener, service.handle()).map_err(|e| format!("serve: {e}"))?;
    let stats = service.shutdown();
    Ok(format!("hb-monitor: shut down\nfinal: {stats}\n"))
}

/// Parses `process:var op value` (e.g. `0:x>=2`).
pub(crate) fn parse_clause(src: &str) -> Result<WireClause, String> {
    let bad = || format!("bad clause '{src}' (want process:var<op>value)");
    let (proc_part, rest) = src.split_once(':').ok_or_else(bad)?;
    let process = proc_part.trim().parse::<usize>().map_err(|_| bad())?;
    // Two-char operators first so `<=` does not parse as `<`.
    for op in ["<=", ">=", "!=", "==", "=", "<", ">"] {
        if let Some(i) = rest.find(op) {
            let var = rest[..i].trim();
            let value = rest[i + op.len()..]
                .trim()
                .parse::<i64>()
                .map_err(|_| bad())?;
            if var.is_empty() {
                return Err(bad());
            }
            return Ok(WireClause {
                process,
                var: var.to_string(),
                op: op.to_string(),
                value,
            });
        }
    }
    Err(bad())
}

fn parse_spec(id: String, mode: WireMode, src: &str) -> Result<WirePredicate, String> {
    let clauses = src
        .split(',')
        .map(parse_clause)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(WirePredicate {
        id,
        mode,
        clauses,
        pattern: None,
    })
}

/// The full local state after an event, as a wire `set` map. Sending
/// the complete state (rather than a delta) keeps replay insensitive to
/// which variables an event actually touched.
pub(crate) fn state_map(comp: &Computation, e: EventId) -> BTreeMap<String, i64> {
    let state = comp.local_state(e.process, e.index as u32 + 1);
    comp.vars()
        .iter()
        .map(|(id, name)| (name.to_string(), state.get(id)))
        .collect()
}

fn describe_verdict(v: &WireVerdict) -> String {
    match v {
        WireVerdict::Detected(cut) => format!(
            "detected at cut [{}]",
            cut.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ),
        WireVerdict::Impossible => "impossible".into(),
        WireVerdict::Pending => "pending".into(),
    }
}

fn send_cmd(args: &[String]) -> Result<String, String> {
    let mut rest = args.to_vec();
    let session = take_flag(&mut rest, "--session")?.unwrap_or_else(|| "default".to_string());
    let seed = take_flag(&mut rest, "--seed")?
        .map(|s| s.parse::<u64>().map_err(|_| "bad --seed".to_string()))
        .transpose()?
        .unwrap_or(0);
    let window = take_flag(&mut rest, "--window")?
        .map(|s| s.parse::<usize>().map_err(|_| "bad --window".to_string()))
        .transpose()?
        .unwrap_or(8);
    let mut predicates = Vec::new();
    loop {
        let next = predicates.len();
        if let Some(spec) = take_flag(&mut rest, "--conj")? {
            predicates.push(parse_spec(
                format!("p{next}"),
                WireMode::Conjunctive,
                &spec,
            )?);
        } else if let Some(spec) = take_flag(&mut rest, "--disj")? {
            predicates.push(parse_spec(
                format!("p{next}"),
                WireMode::Disjunctive,
                &spec,
            )?);
        } else if let Some(spec) = take_flag(&mut rest, "--pattern")? {
            let pattern = hb_pattern::parse_pattern(&spec)?;
            predicates.push(WirePredicate {
                id: format!("p{next}"),
                mode: WireMode::Pattern,
                clauses: Vec::new(),
                pattern: Some(pattern),
            });
        } else {
            break;
        }
    }
    if predicates.is_empty() {
        return Err("send needs at least one --conj, --disj, or --pattern predicate".into());
    }
    let retries = take_retry(&mut rest)?;
    let [addr, trace] = rest.as_slice() else {
        return Err("send needs <addr> <trace> --session NAME (--conj|--disj SPEC)...".into());
    };
    let comp = crate::commands::load_trace(trace)?;
    let n = comp.num_processes();

    let stream = connect_retry(addr, retries)?;
    let mut w = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut r = BufReader::new(stream);
    let recv = |r: &mut BufReader<TcpStream>| -> Result<ServerMsg, String> {
        read_frame::<_, ServerMsg>(r)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "server closed the connection".to_string())
    };

    // Version handshake: announce ours, confirm the server's is usable.
    write_frame(
        &mut w,
        &ClientMsg::Hello {
            version: wire::WIRE_VERSION,
        },
    )
    .map_err(|e| e.to_string())?;
    match recv(&mut r)? {
        ServerMsg::Welcome { version } => wire::check_version(version)?,
        ServerMsg::Error { message, .. } => return Err(format!("handshake rejected: {message}")),
        other => return Err(format!("unexpected reply to hello: {other:?}")),
    }

    // Open: declare shape, initial states, and predicates.
    let vars: Vec<String> = comp
        .vars()
        .iter()
        .map(|(_, name)| name.to_string())
        .collect();
    let initial: Vec<BTreeMap<String, i64>> = (0..n)
        .map(|p| {
            let s = comp.local_state(p, 0);
            comp.vars()
                .iter()
                .map(|(id, name)| (name.to_string(), s.get(id)))
                .collect()
        })
        .collect();
    write_frame(
        &mut w,
        &ClientMsg::Open {
            session: session.clone(),
            processes: n,
            vars,
            initial,
            predicates,
            dist: None,
        },
    )
    .map_err(|e| e.to_string())?;
    match recv(&mut r)? {
        ServerMsg::Opened { .. } => {}
        ServerMsg::Error { message, .. } => return Err(format!("open rejected: {message}")),
        other => return Err(format!("unexpected reply to open: {other:?}")),
    }

    // Stream the causality-respecting shuffle, then finish each process.
    let order = causal_shuffle(&comp, seed, window);
    let total = order.len();
    for e in order {
        write_frame(
            &mut w,
            &ClientMsg::Event {
                session: session.clone(),
                p: e.process,
                clock: comp.clock(e).components().to_vec(),
                set: state_map(&comp, e),
            },
        )
        .map_err(|err| err.to_string())?;
    }
    for p in 0..n {
        write_frame(
            &mut w,
            &ClientMsg::FinishProcess {
                session: session.clone(),
                p,
            },
        )
        .map_err(|e| e.to_string())?;
    }
    write_frame(
        &mut w,
        &ClientMsg::Close {
            session: session.clone(),
        },
    )
    .map_err(|e| e.to_string())?;

    // Collect verdicts until the close acknowledgement.
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sent {total} events over '{session}' (seed {seed}, window {window})"
    );
    loop {
        match recv(&mut r)? {
            ServerMsg::Verdict {
                predicate, verdict, ..
            } => {
                let _ = writeln!(out, "{predicate}: {}", describe_verdict(&verdict));
            }
            ServerMsg::Closed { discarded, .. } => {
                if discarded > 0 {
                    let _ = writeln!(out, "warning: {discarded} events discarded at close");
                }
                break;
            }
            ServerMsg::Error { message, .. } => {
                let _ = writeln!(out, "server error: {message}");
            }
            other => return Err(format!("unexpected server message: {other:?}")),
        }
    }
    Ok(out)
}

/// Takes a bare `--flag` (no value); returns whether it was present.
pub(crate) fn take_switch(rest: &mut Vec<String>, flag: &str) -> bool {
    match rest.iter().position(|a| a == flag) {
        Some(i) => {
            rest.remove(i);
            true
        }
        None => false,
    }
}

fn stats_cmd(args: &[String]) -> Result<String, String> {
    let mut rest = args.to_vec();
    let json = take_switch(&mut rest, "--json");
    let prometheus = take_switch(&mut rest, "--prometheus");
    let retries = take_retry(&mut rest)?;
    let [addr] = rest.as_slice() else {
        return Err("stats needs <addr> [--json | --prometheus] [--retry N]".into());
    };
    if json && prometheus {
        return Err("--json and --prometheus are mutually exclusive".into());
    }
    let counters = fetch_stats(addr, retries)?;
    render_stats(&counters, json, prometheus)
}

/// Sends a shutdown frame to a running server (used by tests and
/// scripted benchmarks; exposed as `hbtl monitor stats`' sibling).
pub fn shutdown_server(addr: &str, retries: u32) -> Result<(), String> {
    let stream = connect_retry(addr, retries)?;
    let mut w = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut r = BufReader::new(stream);
    write_frame(&mut w, &ClientMsg::Shutdown).map_err(|e| e.to_string())?;
    // Wait for the acknowledgement so the caller knows the server saw it.
    let _ = read_frame::<_, ServerMsg>(&mut r);
    Ok(())
}
