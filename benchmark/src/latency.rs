//! `detect-latency`: an open loop. One sender thread writes single
//! `event` frames on a fixed schedule and never waits for a reply; one
//! reader thread stamps every reply as it arrives. A verdict's latency
//! runs from the moment the frame carrying its last contributing event
//! was *due*, so a stall in the server (or the sender) is charged to
//! every verdict it delays.

use crate::gen::{self, LatencyPlan};
use crate::oracle;
use crate::report::{Ctx, Outcome};
use crate::server::{Conn, Server};
use crate::{host, layers, stats, stream};
use hb_tracefmt::wire::{ServerMsg, WireVerdict};
use std::io::Write;
use std::time::{Duration, Instant};

/// A sender this far behind its schedule is no longer an open loop.
const MAX_LATE: Duration = Duration::from_secs(1);
/// Share of `--seconds` the stream workloads spend on their probe; the
/// stream gets the rest.
pub const PROBE_SHARE: f64 = 1.0 / 3.0;

/// Frames per wave: four sessions of `open`, 128 events, `close`.
const WAVE_FRAMES: usize =
    gen::LATENCY_IN_FLIGHT * (gen::SESSION_PROCESSES * gen::LATENCY_EVENTS_PER_PROCESS + 2);

/// Waves that fill `seconds` at the configured frame rate.
fn waves_for(ctx: &Ctx, seconds: f64) -> usize {
    let frames = seconds * ctx.sizes.latency_frames_per_sec as f64;
    ((frames / WAVE_FRAMES as f64).ceil() as usize).max(1)
}

/// What one paced run observed.
struct Driven {
    /// When frame 0 was due.
    t0: Instant,
    /// Every reply with the time it was read.
    received: Vec<(ServerMsg, Instant)>,
    /// How late each frame's write started, in microseconds.
    late_us: Vec<f64>,
}

/// Sends `plan` at `rate` frames per second and collects the replies
/// until every session has closed.
fn drive(conn: &mut Conn, plan: &LatencyPlan, rate: u64) -> Result<Driven, String> {
    let t0 = Instant::now() + Duration::from_millis(2);
    let frames = &plan.frames;
    let sessions = plan.sessions.len();
    let Conn { w, r } = conn;
    let (late_us, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> Result<Vec<f64>, String> {
            let mut late_us = Vec::with_capacity(frames.len());
            for i in 0..frames.len() {
                let due = t0 + due_offset(i, rate);
                let late = loop {
                    let now = Instant::now();
                    if now >= due {
                        break now - due;
                    }
                    // Too short to sleep through; let the server's
                    // threads have the core instead of spinning on it.
                    std::thread::yield_now();
                };
                late_us.push(late.as_secs_f64() * 1e6);
                w.write_all(frames.frame(i))
                    .map_err(|e| format!("write frame {i}: {e}"))?;
            }
            Ok(late_us)
        });
        let reader = scope.spawn(move || -> Result<Vec<(ServerMsg, Instant)>, String> {
            let mut received = Vec::with_capacity(sessions * 4);
            let mut closed = 0;
            while closed < sessions {
                let msg = hb_tracefmt::wire::read_frame::<_, ServerMsg>(r)
                    .map_err(|e| format!("read frame: {e}"))?
                    .ok_or("server closed the connection")?;
                let at = Instant::now();
                closed += usize::from(matches!(msg, ServerMsg::Closed { .. }));
                received.push((msg, at));
            }
            Ok(received)
        });
        (
            sender
                .join()
                .unwrap_or_else(|_| Err("sender panicked".into())),
            reader
                .join()
                .unwrap_or_else(|_| Err("reader panicked".into())),
        )
    });
    Ok(Driven {
        t0,
        received: received?,
        late_us: late_us?,
    })
}

/// A paced run reduced to its numbers and its failures.
pub struct Probe {
    /// The end-to-end figure: a neighbour on the host only ever adds
    /// delay, so the low percentiles are the program's own.
    pub p10_us: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Verdict latencies behind the percentiles.
    pub samples: usize,
    pub late_p99_us: f64,
    pub late_max_us: f64,
    /// Events acknowledged by a `closed` frame per second of wall time
    /// from the first frame due to the last `closed` read.
    pub events_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub invalid: Vec<String>,
}

/// Due time of frame `i`, as an offset from the first frame's.
fn due_offset(i: usize, rate: u64) -> Duration {
    Duration::from_nanos(1_000_000_000 / rate) * i as u32
}

/// Latencies from due times, lateness, and the correct-output gate:
/// the replies must equal the in-process oracle's, frame for frame, and
/// agree with what the generator planted.
fn assess(plan: &LatencyPlan, driven: Driven, rate: u64) -> Probe {
    let mut invalid = Vec::new();
    let mut latencies_us = Vec::with_capacity(plan.sessions.len() * 2);
    let mut planted_wrong = 0u64;
    let mut last_closed = driven.t0;
    for (msg, at) in &driven.received {
        match msg {
            ServerMsg::Verdict {
                session,
                predicate,
                verdict,
            } => {
                let Some(s) = session
                    .strip_prefix("dl-")
                    .and_then(|n| n.parse::<usize>().ok())
                    .and_then(|n| plan.sessions.get(n))
                else {
                    continue; // counted by the oracle comparison below
                };
                let (frame, planted) = match predicate.as_str() {
                    "wide" => (s.wide_frame, s.wide_planted),
                    _ => (s.inv_frame, s.inv_planted),
                };
                let due = driven.t0 + due_offset(frame, rate);
                latencies_us.push(at.saturating_duration_since(due).as_secs_f64() * 1e6);
                if matches!(verdict, WireVerdict::Detected(_)) != planted {
                    planted_wrong += 1;
                }
            }
            ServerMsg::Closed { .. } => last_closed = *at,
            _ => {}
        }
    }
    let wall = (last_closed - driven.t0).as_secs_f64();
    let want = oracle::expected(&plan.frames.bytes);
    let expected_frames: usize = want.values().map(Vec::len).sum();
    let got = oracle::group(driven.received.into_iter().map(|(m, _)| m).collect());
    let failed = oracle::mismatches(&want, &got) as u64 + planted_wrong;

    let mut late = driven.late_us;
    late.sort_by(f64::total_cmp);
    let late_max_us = late.last().copied().unwrap_or(0.0);
    if late_max_us > MAX_LATE.as_secs_f64() * 1e6 {
        invalid.push(format!(
            "the sender fell {:.2} s behind its schedule",
            late_max_us / 1e6
        ));
    }
    latencies_us.sort_by(f64::total_cmp);
    if latencies_us.is_empty() {
        invalid.push("no verdict arrived".into());
        latencies_us.push(0.0);
    }
    Probe {
        p10_us: stats::percentile(&latencies_us, 10.0),
        p50_us: stats::percentile(&latencies_us, 50.0),
        p99_us: stats::percentile(&latencies_us, 99.0),
        samples: latencies_us.len(),
        late_p99_us: stats::percentile(&late, 99.0),
        late_max_us,
        events_per_s: plan.events as f64 / wall,
        attempted: (plan.frames.len() + expected_frames) as u64,
        failed,
        invalid,
    }
}

/// The stream workloads' latency figures: a short paced run, on the
/// connection and server the stream just used.
pub fn probe(ctx: &Ctx, conn: &mut Conn) -> Result<Probe, String> {
    let rate = ctx.sizes.latency_frames_per_sec;
    let plan = gen::latency_plan(
        gen::mix(ctx.seed, 0x1a7e),
        waves_for(ctx, ctx.seconds * PROBE_SHARE),
    );
    let driven = drive(conn, &plan, rate)?;
    Ok(assess(&plan, driven, rate))
}

struct Setup {
    plan: LatencyPlan,
    conn: Conn,
    server: Server,
}

/// Workload generation, frame pre-encoding, server spawn, handshake.
fn setup(ctx: &Ctx, waves: usize) -> Result<Setup, String> {
    let plan = gen::latency_plan(ctx.seed, waves);
    let server = Server::spawn(&ctx.hbtl, None)?;
    let conn = Conn::open(server.addr())?;
    Ok(Setup { plan, conn, server })
}

/// Books a paced run's operations, failures and sample counts.
pub fn note_probe(out: &mut Outcome, p: &Probe) {
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.invalid.extend(p.invalid.iter().cloned());
    out.note("latency_samples", p.samples);
    out.note("p99_has_ten_beyond", stats::supports(p.samples, 99.0));
    out.note("latency_p50_us", format!("{:.1}", p.p50_us));
    out.note("latency_p99_us", format!("{:.1}", p.p99_us));
    out.note("gen_late_p99_us", format!("{:.1}", p.late_p99_us));
    out.note("gen_late_max_us", format!("{:.1}", p.late_max_us));
}

/// The untraced run: every end-to-end metric.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // One burst before the paced run and one after it, like the stream
    // workloads' (see there).
    let mut cold_secs = Vec::new();
    stream::cold_starts(ctx, &mut cold_secs)?;
    let waves = waves_for(ctx, ctx.seconds);
    let (mut s, setup_s) = ctx.timed_setup(|| setup(ctx, waves))?;
    let rate = ctx.sizes.latency_frames_per_sec;
    let driven = drive(&mut s.conn, &s.plan, rate)?;
    let peak_rss = host::peak_rss_mib(&s.server.pid()).ok_or("server has no VmHWM")?;
    let p = assess(&s.plan, driven, rate);
    drop(s);
    stream::cold_starts(ctx, &mut cold_secs)?;
    note_probe(&mut out, &p);
    out.set("setup_s", setup_s);
    out.set("events_per_s", p.events_per_s);
    out.set("verdict_latency_p10_us", p.p10_us);
    out.set("recovery_s", stats::quiet_time(&mut cold_secs));
    out.set("peak_rss_mb", peak_rss);
    out.note("frames_per_s", rate);
    Ok(out)
}

/// The traced run: a fixed number of waves against the real server for
/// its counters, CPU time and the generator's lateness, then the layer
/// ledger over the same frames.
pub fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut s = setup(ctx, ctx.traced_rounds() * waves_for(ctx, 1.0))?;
    let rate = ctx.sizes.latency_frames_per_sec;
    let events = s.plan.events as f64;
    let leg = layers::ServerLeg::start(&s.server);
    let driven = drive(&mut s.conn, &s.plan, rate)?;
    leg.finish(&mut out, &mut s.conn, events)?;
    let p = assess(&s.plan, driven, rate);
    note_probe(&mut out, &p);
    out.set("gen.verdict_latency_p50_us", p.p50_us);
    out.set("gen.verdict_latency_p99_us", p.p99_us);
    out.set("gen.late_p99_us", p.late_p99_us);
    out.set("gen.late_max_us", p.late_max_us);
    let Setup { plan, .. } = s;
    // An open loop's end-to-end time per event is the schedule's, so
    // the shares are of the median verdict latency per frame instead.
    layers::ledger(
        &mut out,
        "detect-latency",
        &plan.frames,
        plan.events,
        p.p50_us * 1e3,
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_evenly_spaced_from_the_first_frame() {
        assert_eq!(due_offset(0, 20_000), Duration::ZERO);
        assert_eq!(due_offset(1, 20_000), Duration::from_micros(50));
        assert_eq!(due_offset(20_000, 20_000), Duration::from_secs(1));
        assert_eq!(due_offset(3, 4_000), Duration::from_micros(750));
    }

    #[test]
    fn latency_runs_from_the_due_time_not_the_send_time() {
        // One wave; every reply is read 10 ms after frame 0 was due, as
        // if the sender (or the server) had stalled that long.
        let rate = 20_000;
        let plan = gen::latency_plan(3, 1);
        let t0 = Instant::now();
        let read_at = t0 + Duration::from_millis(10);
        let received: Vec<(ServerMsg, Instant)> = oracle::expected(&plan.frames.bytes)
            .into_values()
            .flatten()
            .map(|m| (m, read_at))
            .collect();
        let driven = Driven {
            t0,
            received,
            late_us: vec![0.0, 40.0, 2_000_000.0],
        };
        let p = assess(&plan, driven, rate);
        assert_eq!(p.failed, 0);
        assert_eq!(p.samples, 2 * gen::LATENCY_IN_FLIGHT);
        // The earliest contributing frame is an unlock (frame 8..12 of
        // the wave), the latest a close (the last four frames).
        let earliest_due = due_offset(2 * gen::LATENCY_IN_FLIGHT, rate).as_secs_f64() * 1e6;
        let latest_due = due_offset(WAVE_FRAMES - 1, rate).as_secs_f64() * 1e6;
        assert!(p.p50_us <= 10_000.0 - earliest_due + 1.0);
        assert!(p.p50_us >= 10_000.0 - latest_due - 1.0);
        // Two seconds behind schedule is not an open loop any more.
        assert_eq!(p.late_max_us, 2_000_000.0);
        assert_eq!(p.invalid.len(), 1);
    }

    #[test]
    fn a_wrong_verdict_fails_twice_over() {
        // Against the oracle and against what the generator planted.
        let plan = gen::latency_plan(3, 1);
        let t0 = Instant::now();
        let mut received: Vec<(ServerMsg, Instant)> = oracle::expected(&plan.frames.bytes)
            .into_values()
            .flatten()
            .map(|m| (m, t0 + Duration::from_millis(10)))
            .collect();
        let flipped = received
            .iter_mut()
            .find_map(|(m, _)| match m {
                ServerMsg::Verdict { verdict, .. } => Some(verdict),
                _ => None,
            })
            .expect("a verdict frame");
        *flipped = match flipped {
            WireVerdict::Detected(_) => WireVerdict::Impossible,
            _ => WireVerdict::Detected(vec![1; 8]),
        };
        let driven = Driven {
            t0,
            received,
            late_us: vec![0.0],
        };
        assert_eq!(assess(&plan, driven, 20_000).failed, 2);
    }
}
