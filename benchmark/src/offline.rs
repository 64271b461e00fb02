//! `offline-detect`: the paper's batch job, no server. A wide recorded
//! trace goes from JSON bytes through `hb_ctl::parse` + `evaluate` for
//! six formulas, each of which must be decided by the paper's
//! polynomial algorithm, never by the explicit lattice.

use crate::gen::{self, OfflineFormula};
use crate::report::{Ctx, Outcome};
use crate::trace::Tracer;
use crate::{host, stats};
use hb_computation::Computation;
use hb_ctl::{evaluate, evaluate_nested, parse};
use std::time::Instant;

/// The trace as the job receives it.
struct Job {
    json: String,
    events: usize,
    formulas: Vec<OfflineFormula>,
}

fn setup(ctx: &Ctx) -> Result<Job, String> {
    let s = &ctx.sizes;
    let comp = gen::offline_trace(ctx.seed, s.offline_processes, s.offline_events_per_process)
        .map_err(|e| format!("offline trace: {e}"))?;
    Ok(Job {
        json: hb_tracefmt::to_json(&comp),
        events: comp.num_events(),
        formulas: gen::offline_formulas(s.offline_processes),
    })
}

/// Seconds per stage of one pass: import, then each formula.
struct Pass {
    import_s: f64,
    formula_s: Vec<f64>,
    total_s: f64,
}

/// One pass: trace bytes to the last verdict. Every wrong verdict or
/// engine is a failed operation.
fn pass(job: &Job, tracer: &mut Tracer, id: u64, out: &mut Outcome) -> Result<Pass, String> {
    let started = Instant::now();
    tracer.enter("harness", id);
    tracer.enter("tracefmt.json", id);
    let comp: Computation =
        hb_tracefmt::from_json(&job.json).map_err(|e| format!("import: {e}"))?;
    tracer.exit();
    let import_s = started.elapsed().as_secs_f64();
    let mut formula_s = Vec::with_capacity(job.formulas.len());
    for f in &job.formulas {
        let t = Instant::now();
        tracer.enter("ctl", id);
        let formula = parse(&f.text).map_err(|e| format!("parse {}: {e}", f.name))?;
        let result = evaluate(&comp, &formula).map_err(|e| format!("evaluate {}: {e}", f.name))?;
        tracer.exit();
        formula_s.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        if result.verdict != f.expect || result.engine != f.engine {
            out.failed += 1;
            eprintln!(
                "offline-detect: {} gave {} by {:?}, expected {} by {:?}",
                f.name, result.verdict, result.engine, f.expect, f.engine
            );
        }
    }
    tracer.exit();
    Ok(Pass {
        import_s,
        formula_s,
        total_s: started.elapsed().as_secs_f64(),
    })
}

/// Cross-checks the formulas' built-in expectations, and `evaluate`
/// itself, against the explicit-lattice model checker on a trace small
/// enough to enumerate.
fn cross_check(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    const PROCESSES: usize = 3;
    let comp = gen::offline_trace(ctx.seed, PROCESSES, 4).map_err(|e| e.to_string())?;
    for f in gen::offline_formulas(PROCESSES) {
        let formula = parse(&f.text).map_err(|e| format!("parse {}: {e}", f.name))?;
        let fast = evaluate(&comp, &formula).map_err(|e| e.to_string())?;
        let lattice = evaluate_nested(&comp, &formula).map_err(|e| e.to_string())?;
        out.attempted += 1;
        if lattice.verdict != f.expect || fast.verdict != f.expect || fast.engine != f.engine {
            out.failed += 1;
            eprintln!(
                "offline-detect cross-check: {} expected {}, lattice {}, {:?} {}",
                f.name, f.expect, lattice.verdict, fast.engine, fast.verdict
            );
        }
    }
    Ok(())
}

/// The untraced run: every end-to-end metric.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (job, setup_s) = ctx.timed_setup(|| setup(ctx))?;
    cross_check(ctx, &mut out)?;

    let mut tracer = Tracer::new(false);
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || started.elapsed().as_secs_f64() < ctx.seconds {
        passes.push(pass(&job, &mut tracer, passes.len() as u64, &mut out)?);
    }
    let work = (job.events * job.formulas.len()) as f64;
    let mut rates: Vec<f64> = passes.iter().map(|p| work / p.total_s).collect();
    let mut totals_us: Vec<f64> = passes.iter().map(|p| p.total_s * 1e6).collect();
    let mut imports: Vec<f64> = passes.iter().map(|p| p.import_s).collect();
    out.set("setup_s", setup_s);
    out.set("events_per_s", stats::quiet_rate(&mut rates));
    totals_us.sort_by(f64::total_cmp);
    out.set(
        "verdict_latency_p10_us",
        stats::percentile(&totals_us, 10.0),
    );
    out.set("recovery_s", stats::quiet_time(&mut imports));
    out.set(
        "peak_rss_mb",
        host::peak_rss_mib("self").ok_or("no VmHWM for this process")?,
    );
    out.note("passes", passes.len());
    out.note("trace_events", job.events);
    out.note("trace_bytes", job.json.len());
    Ok(out)
}

/// The traced run: a fixed number of passes with a span around the
/// import and around each formula, then the same with spans off.
pub fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let job = setup(ctx)?;
    let cpu_before = host::cpu_ns("self").unwrap_or(0.0);
    let n = ctx.traced_rounds();
    let timed = |enabled: bool, out: &mut Outcome| -> Result<(Tracer, Vec<Pass>, f64), String> {
        let mut tracer = Tracer::new(enabled);
        let started = Instant::now();
        let passes = (0..n)
            .map(|i| pass(&job, &mut tracer, i as u64, out))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((tracer, passes, started.elapsed().as_secs_f64()))
    };
    // Two plain legs bracket the traced one, so drift is not booked as
    // tracing overhead.
    let (_, _, before_s) = timed(false, &mut out)?;
    let (tracer, passes, traced_s) = timed(true, &mut out)?;
    let (_, _, after_s) = timed(false, &mut out)?;
    let plain_s = (before_s + after_s) / 2.0;
    let cpu = host::cpu_ns("self").unwrap_or(0.0) - cpu_before;

    let events = (job.events * n) as f64;
    let mut imports: Vec<f64> = passes.iter().map(|p| p.import_s).collect();
    out.set(
        "tracefmt.json.import_ns_per_event",
        stats::median(&mut imports) * 1e9 / job.events as f64,
    );
    for (i, f) in job.formulas.iter().enumerate() {
        let mut secs: Vec<f64> = passes.iter().map(|p| p.formula_s[i]).collect();
        out.set(
            &format!("ctl.{}_ns_per_event", f.name),
            stats::median(&mut secs) * 1e9 / job.events as f64,
        );
    }
    // All three legs ran the same passes; the generator is the job here.
    out.set("proc.gen_cpu_ns_per_event", cpu / (3.0 * events));
    let end_to_end = plain_s * 1e9 / events;
    crate::layers::report_trace(&mut out, &tracer, events, end_to_end, plain_s, traced_s);
    crate::layers::write_trace(&mut out, &tracer, "offline-detect");
    Ok(out)
}
