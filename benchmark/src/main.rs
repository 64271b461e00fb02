//! The hbtl benchmark: four workloads against the real `hbtl monitor
//! serve` process (or, offline, the paper's algorithms through
//! `hb_ctl::evaluate`), every verdict checked against an independent
//! oracle, six end-to-end metrics, and a traced run that times the
//! calls into each layer.
//!
//! ```text
//! hbtl-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! hbtl-benchmark [--seed N] [--seconds S]      every workload, both ways
//! hbtl-benchmark --smoke                       the same at ~1/50 size
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod gen;
mod host;
mod latency;
mod layers;
mod offline;
mod oracle;
mod report;
mod server;
mod stats;
mod stream;
mod trace;

use report::{Ctx, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SEED: u64 = 20_020_415;
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}' (one of {WORKLOADS:?})"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Builds the program under test from the checkout this harness was
/// built in and returns the binary's path. Cargo's own output goes to
/// stderr; a warm build is a no-op.
fn build_hbtl() -> Result<PathBuf, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("the benchmark directory has no parent")?;
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["build", "--release", "--offline", "-p", "hb-cli"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build -p hb-cli failed: {status}"));
    }
    // Same resolution as cargo's, which ran in `root`.
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let hbtl = root.join(target).join("release").join("hbtl");
    if hbtl.is_file() {
        Ok(hbtl)
    } else {
        Err(format!("built hbtl not found at {}", hbtl.display()))
    }
}

fn run_workload(ctx: &Ctx, workload: &str, traced: bool) -> Result<Outcome, String> {
    let calib_before = host::calibrate();
    let mut out = match (workload, traced) {
        ("wire-stream", false) => stream::run(ctx, false),
        ("wire-stream", true) => stream::run_traced(ctx, false),
        ("durable-stream", false) => stream::run(ctx, true),
        ("durable-stream", true) => stream::run_traced(ctx, true),
        ("detect-latency", false) => latency::run(ctx),
        ("detect-latency", true) => latency::run_traced(ctx),
        ("offline-detect", false) => offline::run(ctx),
        ("offline-detect", true) => offline::run_traced(ctx),
        _ => unreachable!("workload names are checked when parsed"),
    }?;
    let calib_after = host::calibrate();
    let drift = (calib_after - calib_before).abs() / calib_before.min(calib_after);
    out.set("host.calib_ms", (calib_before + calib_after) / 2.0);
    out.set("host.calib_drift_share", drift);
    out.note(
        "host_calib_ms",
        format!("{calib_before:.1} -> {calib_after:.1}"),
    );
    if drift > host::CALIB_DRIFT_LIMIT {
        // Reported, not dropped: a reviewer must be able to see it.
        out.note("noisy", format!("sentinel drifted {:.0} %", drift * 100.0));
    }
    let pinning = host::pin_to_one_cpu();
    out.note("host_cpus", pinning.host_cpus);
    out.note(
        "pinned_to_cpu",
        pinning.cpu.map_or("no".to_string(), |cpu| cpu.to_string()),
    );
    out.note("kernel", host::kernel());
    Ok(out)
}

fn json_string(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("strings serialize")
}

/// Prints the run's notes, every metric by name and unit, and — last —
/// the result object the driver reads.
fn print(workload: &str, traced: bool, out: &Outcome) -> Result<(), String> {
    let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
        .chain(std::iter::once(format!(
            "\"invalid\":[{}]",
            out.invalid
                .iter()
                .map(|s| json_string(s))
                .collect::<Vec<_>>()
                .join(",")
        )))
        .collect();
    println!(
        "{{\"workload\":{},\"trace\":{},\"notes\":{{{}}}}}",
        json_string(workload),
        u8::from(traced),
        notes.join(",")
    );
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            // A layer off this workload's path did no work.
            None if traced => 0.0,
            None => return Err(format!("{workload} did not report {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{workload}: {name} is {value}"));
        }
        println!("{workload} {name} = {value} {unit}");
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_string(name),
            json_string(unit)
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let hbtl = build_hbtl()?;
    // After the build, which may use every CPU.
    host::pin_to_one_cpu();
    let ctx = Ctx {
        hbtl,
        seed: args.seed,
        seconds: if args.smoke { 0.5 } else { args.seconds },
        sizes: if args.smoke {
            gen::Sizes::smoke()
        } else {
            gen::Sizes::full()
        },
    };
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    // One workload one way is what the driver asks for; without
    // `--workload` or `--trace`, everything runs, untraced runs first.
    let modes: Vec<bool> = match args.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let mut all_correct = true;
    for &traced in &modes {
        for w in &workloads {
            let out = run_workload(&ctx, w, traced)?;
            print(w, traced, &out)?;
            all_correct &= out.correct();
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("hbtl-benchmark: a correctness gate failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("hbtl-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
