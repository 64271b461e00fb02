//! `hbtl` — the trace-debugging command line.
//!
//! The paper's conclusion announces "a debugging environment for the
//! happened-before model making use of the algorithms presented here";
//! this binary is that environment: load a recorded trace, ask CTL
//! questions, inspect witnesses, dump diagrams.
//!
//! ```text
//! hbtl check <trace> "<formula>" [--nested]
//!                                    evaluate a CTL formula (prints
//!                                    verdict, engine, and evidence);
//!                                    --nested allows nested temporal
//!                                    operators via the baseline
//! hbtl info <trace>                  processes/events/messages/variables
//!                                    and lattice statistics (capped)
//! hbtl dot <trace>                   Graphviz of the computation
//! hbtl lattice <trace> [limit] [--highlight "<state formula>"]
//!                                    Graphviz of the cut lattice
//!                                    (meet-irreducibles filled; cuts
//!                                    satisfying the formula patterned)
//! hbtl convert <in> <out>            convert between .json and .txt
//! hbtl simulate <proto> <out.json>   generate a demo trace
//!                                    (proto: mutex|leader|termination|pipeline)
//! hbtl monitor serve <addr>          run the online-detection service
//!                                    (--data-dir makes it durable:
//!                                    WAL + snapshots + crash recovery)
//! hbtl monitor send <addr> <trace>   replay a trace into a session
//!                                    (causality-respecting shuffle;
//!                                    --pattern registers a predictive
//!                                    pattern predicate)
//! hbtl monitor stats <addr>          query service counters
//!                                    (--json | --prometheus)
//! hbtl monitor shutdown <addr>       stop a running service
//! hbtl slice inspect <trace>         offline slice w.r.t. a conjunctive
//!                                    predicate: Birkhoff cuts I_p/F_p,
//!                                    slice size vs the cut-lattice
//!                                    bound (--conj "p:var=v,..."; --json)
//! hbtl gateway serve <addr>          front a fleet of monitors: route
//!                                    sessions by rendezvous hash, fail
//!                                    over with journal replay when a
//!                                    backend dies (--backend ADDR ...)
//! hbtl gateway drain <addr> <b>      retire one backend gracefully
//! hbtl gateway stats <addr>          gateway + summed backend counters
//!                                    (--json | --prometheus)
//! hbtl loadgen <addr>                swarm load generator; --compare
//!                                    benchmarks gateway vs one monitor;
//!                                    --scenario ordering-violation
//!                                    plants causally-reorderable
//!                                    inversions under a pattern
//!                                    predicate and checks every verdict;
//!                                    --scenario sparse-predicate checks
//!                                    the slicing filter's ≥5x reduction;
//!                                    --scenario wide-session plants a
//!                                    conjunctive cut across many
//!                                    processes (ground-truth-checked);
//!                                    --distribute K opens each session
//!                                    distributed over K worker backends
//!                                    (needs a gateway)
//! hbtl store inspect <dir>           read-only look at a data dir (--json)
//! hbtl store verify <dir>            CRC-check every WAL record
//!                                    (--repair truncates a damaged tail)
//! hbtl store compact <dir>           drop snapshot-covered segments
//! ```
//!
//! Trace files ending in `.json` use the JSON interchange format; any
//! other extension is parsed as the line-oriented text format.

use hb_computation::Computation;
use hb_ctl::{evaluate, parse, Evidence};
use hb_lattice::{CutLattice, DotStyle};
use std::fmt::Write as _;
use std::process::ExitCode;

mod commands;
mod gateway_cmd;
mod loadgen_cmd;
mod monitor_cmd;
mod slice_cmd;
mod store_cmd;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("hbtl: {msg}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  hbtl check <trace> \"<formula>\"\n  hbtl info <trace>\n  hbtl dot <trace>\n  hbtl lattice <trace> [limit]\n  hbtl convert <in> <out>\n  hbtl simulate <mutex|leader|termination|pipeline> <out.json>\n  hbtl monitor serve <addr> [--shards N] [--capacity N] [--stats-every SECS]\n                    [--data-dir DIR] [--sync always|os|interval:<ms>] [--snapshot-every N] [--no-slice]\n  hbtl monitor send <addr> <trace> --session NAME (--conj|--disj \"p:var=v,...\" | --pattern \"a=1 -> b=2\")...\n                    [--seed S] [--window W] [--retry N]\n  hbtl monitor stats <addr> [--json | --prometheus] [--retry N]\n  hbtl monitor shutdown <addr> [--retry N]\n  hbtl slice inspect <trace> --conj \"p:var=v,...\" [--json]\n  hbtl gateway serve <addr> --backend <addr> [--backend <addr>]... [--pool N] [--journal-limit N] [--stats-every SECS]\n  hbtl gateway drain <addr> <backend> [--retry N]\n  hbtl gateway stats <addr> [--json | --prometheus] [--retry N]\n  hbtl loadgen <addr> [--workers M] [--sessions N] [--processes P] [--events E] [--predicates K] [--batch B]\n                    [--distribute K] [--scenario ordering-violation|sparse-predicate|wide-session]\n                    [--violation-rate PCT] [--json]\n  hbtl loadgen --compare [--workers M] [--sessions N] ... [--json]\n  hbtl store inspect <dir> [--json]\n  hbtl store verify <dir> [--repair] [--json]\n  hbtl store compact <dir>"
}

/// Dispatches a command line; returns the text to print.
pub fn run(args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    match args.first().map(String::as_str) {
        Some("check") => {
            // check <trace> <formula> [--nested]
            let (trace, formula, nested) = match args {
                [_, trace, formula] => (trace, formula, false),
                [_, trace, formula, flag] if flag == "--nested" => (trace, formula, true),
                _ => return Err("check needs <trace> and <formula> [--nested]".into()),
            };
            let comp = commands::load_trace(trace)?;
            let f = parse(formula).map_err(|e| e.to_string())?;
            let r = if nested {
                hb_ctl::evaluate_nested(&comp, &f).map_err(|e| e.to_string())?
            } else {
                evaluate(&comp, &f).map_err(|e| {
                    if matches!(e, hb_ctl::EvalError::NestedTemporal) {
                        format!("{e} — pass --nested to use the full-CTL baseline")
                    } else {
                        e.to_string()
                    }
                })?
            };
            let _ = writeln!(out, "{f} = {}", r.verdict);
            let _ = writeln!(out, "engine: {}", r.engine);
            match r.evidence {
                Some(Evidence::Cut(c)) => {
                    let _ = writeln!(out, "evidence cut: {c}");
                    let _ = writeln!(
                        out,
                        "frontier: {}",
                        comp.frontier(&c)
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(" ")
                    );
                }
                Some(Evidence::Path(p)) => {
                    let _ = writeln!(out, "evidence path ({} cuts):", p.len());
                    for (i, c) in p.iter().enumerate() {
                        let _ = writeln!(out, "  G{i} = {c}");
                    }
                }
                None => {}
            }
            Ok(out)
        }
        Some("info") => {
            let [_, trace] = args else {
                return Err("info needs <trace>".into());
            };
            let comp = commands::load_trace(trace)?;
            Ok(commands::info(&comp))
        }
        Some("dot") => {
            let [_, trace] = args else {
                return Err("dot needs <trace>".into());
            };
            let comp = commands::load_trace(trace)?;
            Ok(comp.to_dot())
        }
        Some("lattice") => {
            // lattice <trace> [limit] [--highlight "<state formula>"]
            let mut rest: Vec<&String> = args[1..].iter().collect();
            let mut highlight = None;
            if let Some(pos) = rest.iter().position(|a| *a == "--highlight") {
                if pos + 1 >= rest.len() {
                    return Err("--highlight needs a state formula".into());
                }
                highlight = Some(rest[pos + 1].clone());
                rest.drain(pos..=pos + 1);
            }
            let (trace, limit) = match rest.as_slice() {
                [trace] => (*trace, 100_000usize),
                [trace, limit] => (*trace, limit.parse().map_err(|_| "bad limit".to_string())?),
                _ => return Err("lattice needs <trace> [limit] [--highlight <formula>]".into()),
            };
            let comp = commands::load_trace(trace)?;
            let lat = CutLattice::try_build(&comp, limit)
                .map_err(|e| format!("{e} (raise the limit?)"))?;
            // Patterned circles mark the satisfying cuts, as in the
            // paper's Fig. 4(b).
            let patterned = match highlight {
                Some(src) => {
                    let f = parse(&src).map_err(|e| e.to_string())?;
                    let p = hb_ctl::compile_state_formula(&comp, &f).map_err(|e| e.to_string())?;
                    use hb_predicates::Predicate as _;
                    (0..lat.len())
                        .filter(|&i| p.eval(&comp, lat.cut(i)))
                        .collect()
                }
                None => vec![],
            };
            let style = DotStyle {
                filled: lat.meet_irreducible_nodes(),
                patterned,
            };
            Ok(lat.to_dot(&style))
        }
        Some("convert") => {
            let [_, input, output] = args else {
                return Err("convert needs <in> <out>".into());
            };
            let comp = commands::load_trace(input)?;
            commands::save_trace(&comp, output)?;
            Ok(format!("wrote {output}\n"))
        }
        Some("simulate") => {
            let [_, proto, output] = args else {
                return Err("simulate needs <proto> and <out.json>".into());
            };
            let comp = commands::simulate(proto)?;
            commands::save_trace(&comp, output)?;
            Ok(format!(
                "simulated '{proto}': {} processes, {} events → {output}\n",
                comp.num_processes(),
                comp.num_events()
            ))
        }
        Some("monitor") => monitor_cmd::run(&args[1..]),
        Some("slice") => slice_cmd::run(&args[1..]),
        Some("gateway") => gateway_cmd::run(&args[1..]),
        Some("loadgen") => loadgen_cmd::run(&args[1..]),
        Some("store") => store_cmd::run(&args[1..]),
        _ => Err("missing or unknown command".into()),
    }
}

// Re-exported for the integration tests.
pub use commands::{info, load_trace, save_trace, simulate};

#[allow(dead_code)]
fn _assert_types(_: &Computation) {}
