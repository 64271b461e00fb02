//! `wire-stream` and `durable-stream`: a closed loop on one connection.
//! The same pre-encoded round — four 8-process sessions in 64-event
//! `events` frames — is written again and again; the next round starts
//! when the previous one's four `closed` frames have been read. The
//! only difference between the two workloads is `--data-dir` on the
//! server, so the difference between their numbers is the write-ahead
//! log's.

use crate::gen::{self, Round};
use crate::oracle::{self, Replies};
use crate::report::{Ctx, Outcome};
use crate::server::{Conn, Scratch, Server};
use crate::{host, layers, stats};
use hb_tracefmt::wire::ServerMsg;
use std::time::{Duration, Instant};

/// Everything in place to start the timed region.
pub struct Setup {
    pub round: Round,
    pub conn: Conn,
    pub server: Server,
    /// The server's data directory (`durable-stream` only).
    pub data: Option<Scratch>,
}

/// Workload generation, frame pre-encoding, server spawn, handshake.
pub fn setup(ctx: &Ctx, durable: bool) -> Result<Setup, String> {
    let round = gen::stream_round(ctx.seed, ctx.sizes.stream_events_per_process);
    let data = durable.then(|| Scratch::new("durable")).transpose()?;
    let server = Server::spawn(&ctx.hbtl, data.as_ref().map(Scratch::path))?;
    let conn = Conn::open(server.addr())?;
    Ok(Setup {
        round,
        conn,
        server,
        data,
    })
}

/// Writes one round and reads until every session has closed; returns
/// the seconds from the first byte written to the last `closed` read,
/// and everything received.
pub fn play_round(conn: &mut Conn, round: &Round) -> Result<(f64, Vec<ServerMsg>), String> {
    let started = Instant::now();
    conn.send_bytes(&round.frames.bytes)?;
    let mut received = Vec::new();
    let mut closed = 0;
    while closed < round.sessions {
        let msg = conn.recv()?;
        closed += usize::from(matches!(msg, ServerMsg::Closed { .. }));
        received.push(msg);
    }
    Ok((started.elapsed().as_secs_f64(), received))
}

/// Counts one round's replies against the oracle's.
pub fn check_round(out: &mut Outcome, round: &Round, want: &Replies, received: Vec<ServerMsg>) {
    let expected_frames: usize = want.values().map(Vec::len).sum();
    out.attempted += (round.frames.len() + expected_frames) as u64;
    out.failed += oracle::mismatches(want, &oracle::group(received)) as u64;
}

/// The untraced run: every end-to-end metric.
///
/// The probe comes before the stream: on the host this was sized on,
/// latency measured right after ten seconds of full load reads twice as
/// noisy as the same latency measured before it. The restarts behind
/// `recovery_s` are taken in three bursts — first, between probe and
/// stream, last — so that one slow episode of the host cannot cover
/// them all.
pub fn run(ctx: &Ctx, durable: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let crash = durable.then(|| CrashPlan::new(ctx));
    let mut recovery_secs = Vec::new();
    let mut recovery_burst = |out: &mut Outcome| match &crash {
        Some(plan) => plan.cycles(ctx, out, &mut recovery_secs),
        None => cold_starts(ctx, &mut recovery_secs),
    };
    recovery_burst(&mut out)?;
    let (mut s, setup_s) = ctx.timed_setup(|| setup(ctx, durable))?;
    let want = oracle::expected(&s.round.frames.bytes);

    // The stream settles nothing before `close`; its latency figure
    // comes from a paced probe on the same server and connection, so
    // that a WAL change shows in `durable-stream`'s latency too.
    let probe = crate::latency::probe(ctx, &mut s.conn)?;
    crate::latency::note_probe(&mut out, &probe);
    recovery_burst(&mut out)?;
    let before = s.conn.stats()?;

    let stream_s = ctx.seconds * (1.0 - crate::latency::PROBE_SHARE);
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < stream_s {
        rounds.push(play_round(&mut s.conn, &s.round)?);
    }
    let wall = started.elapsed().as_secs_f64();
    let peak_rss = host::peak_rss_mib(&s.server.pid()).ok_or("server has no VmHWM")?;
    let counters = s.conn.stats()?;

    let n = rounds.len();
    let events = s.round.events as f64;
    let mut rates: Vec<f64> = rounds.iter().map(|(secs, _)| events / secs).collect();
    for (_, received) in rounds {
        check_round(&mut out, &s.round, &want, received);
    }
    // What the stream added to the server's counters must be what was
    // streamed; nothing may have been refused at any point.
    let sent = (s.round.events * n) as u64;
    let counted = |name: &str| counters.get(name).copied().unwrap_or(0);
    let since_probe = |name: &str| counted(name) - before.get(name).copied().unwrap_or(0);
    for (name, got, want) in [
        ("events_ingested", since_probe("events_ingested"), sent),
        ("events_delivered", since_probe("events_delivered"), sent),
        ("events_rejected", counted("events_rejected"), 0),
        ("protocol_errors", counted("protocol_errors"), 0),
    ] {
        if got != want {
            out.invalid
                .push(format!("server counted {name} = {got}, sent {want}"));
        }
    }
    if let Some(data) = &s.data {
        out.note("data_dir_fs", host::filesystem_of(data.path()));
    }
    drop(s);
    recovery_burst(&mut out)?;

    out.set("setup_s", setup_s);
    out.set("events_per_s", stats::quiet_rate(&mut rates));
    out.set("verdict_latency_p10_us", probe.p10_us);
    out.set("recovery_s", stats::quiet_time(&mut recovery_secs));
    out.set("peak_rss_mb", peak_rss);
    out.note("rounds", n);
    out.note("round_events", events);
    out.note("restarts", recovery_secs.len());
    out.note(
        "mean_events_per_s",
        format!("{:.0}", events * n as f64 / wall),
    );
    Ok(out)
}

/// One burst of cold starts of a server that keeps nothing: the
/// seconds from spawn to `welcome` of each are added to `secs`.
pub fn cold_starts(ctx: &Ctx, secs: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..ctx.sizes.cold_starts {
        let t = Instant::now();
        let server = Server::spawn(&ctx.hbtl, None)?;
        let _conn = Conn::open(server.addr())?;
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok(())
}

/// The crash leg: a ninth session is opened on a durable server with a
/// fresh data directory and half of it streamed; once `stats` shows the
/// half ingested the server is SIGKILLed and started again on the same
/// directory. `recovery_s` is the time from that spawn to the `welcome`
/// reply. The rest of the session then goes to the new process, which
/// must answer as if nothing had happened.
///
/// Each cycle starts from an empty directory so that the replayed log
/// is the same in every run, whichever round the time-boxed stream
/// stopped in.
struct CrashPlan {
    /// The ninth session: `open`, its `events` frames, `close`.
    frames: gen::Frames,
    /// Frames sent before the kill (the `open` and full `events` frames).
    half: usize,
    /// What an uninterrupted server answers.
    want: Vec<ServerMsg>,
}

impl CrashPlan {
    fn new(ctx: &Ctx) -> CrashPlan {
        let (frames, _) = gen::stream_session_frames(
            "ws-crash",
            gen::mix(ctx.seed, gen::STREAM_SESSIONS as u64),
            ctx.sizes.stream_events_per_process,
        );
        let want = oracle::outcomes(&oracle::expected(&frames.bytes)["ws-crash"]);
        let half = frames.len() / 2;
        CrashPlan { frames, half, want }
    }

    /// One burst of kill-and-restart cycles: the seconds from re-spawn
    /// to `welcome` of each are added to `secs`.
    fn cycles(&self, ctx: &Ctx, out: &mut Outcome, secs: &mut Vec<f64>) -> Result<(), String> {
        let CrashPlan { frames, half, want } = self;
        // Frame 0 is the `open`; the `events` frames before the cut are full.
        let half_events = ((half - 1) * gen::BATCH) as u64;
        for _ in 0..ctx.sizes.recovery_cycles {
            let data = Scratch::new("crash")?;
            let server = Server::spawn(&ctx.hbtl, Some(data.path()))?;
            let mut conn = Conn::open(server.addr())?;
            conn.send_bytes(frames.span(0, *half))?;
            let deadline = Instant::now() + Duration::from_secs(60);
            while conn.stats()?.get("events_ingested").copied().unwrap_or(0) < half_events {
                if Instant::now() > deadline {
                    return Err("the half-streamed session was never ingested".into());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(conn);
            server.kill();

            let t = Instant::now();
            let server = Server::spawn(&ctx.hbtl, Some(data.path()))?;
            let mut conn = Conn::open(server.addr())?;
            secs.push(t.elapsed().as_secs_f64());

            conn.send_bytes(frames.span(*half, frames.len()))?;
            let mut received = Vec::new();
            loop {
                let msg = conn.recv()?;
                let done = matches!(msg, ServerMsg::Closed { .. });
                received.push(msg);
                if done {
                    break;
                }
            }
            out.attempted += (frames.len() + want.len()) as u64;
            let failed = oracle::mismatches(
                &Replies::from([("ws-crash".to_string(), want.clone())]),
                &oracle::group(received),
            );
            out.failed += failed as u64;
            let counters = conn.stats()?;
            if counters.get("sessions_recovered") != Some(&1) {
                out.invalid
                    .push("the restarted server recovered no session".into());
            }
        }
        Ok(())
    }
}

/// The traced run: a fixed number of rounds against the real server for
/// its counters and CPU time, then the layer ledger over the same bytes.
pub fn run_traced(ctx: &Ctx, durable: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut s = setup(ctx, durable)?;
    let want = oracle::expected(&s.round.frames.bytes);
    let n = ctx.traced_rounds();
    let events = (s.round.events * n) as f64;

    let leg = layers::ServerLeg::start(&s.server);
    let mut secs = Vec::new();
    for _ in 0..n {
        let (round_s, received) = play_round(&mut s.conn, &s.round)?;
        secs.push(round_s);
        check_round(&mut out, &s.round, &want, received);
    }
    leg.finish(&mut out, &mut s.conn, events)?;
    let end_to_end = stats::median(&mut secs) * 1e9 / s.round.events as f64;
    let Setup { round, .. } = s;

    let workload = if durable {
        "durable-stream"
    } else {
        "wire-stream"
    };
    layers::ledger(&mut out, workload, &round.frames, round.events, end_to_end)?;
    Ok(out)
}
