//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Run from the repository root. Builds the release `tcpanaly`, generates
//! the workload's inputs under `.perfbench_work/`, checks and measures
//! the program, and prints one JSON result object as the last line of
//! stdout. Exits non-zero, without a result, when it cannot run at all.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use tcpa_perfbench::bench::{self, Outcome, Request};
use tcpa_perfbench::child::{self, Spawner, SPAWNER_FLAG};
use tcpa_perfbench::workload::Workload;

const USAGE: &str =
    "usage: perfbench --workload sender_census|receiver_salvage|single_file --seed N --seconds S --trace 0|1";

/// The one stdout writer: the result is this program's artifact.
fn emit(text: &str) {
    // tcpa-lint: allow(no-raw-eprintln) -- the benchmark's result goes to stdout by contract
    println!("{text}");
}

/// The one stderr writer, for diagnostics.
fn warn(text: &str) {
    // tcpa-lint: allow(no-raw-eprintln) -- a standalone tool's diagnostics, outside the program's logging contract
    eprintln!("perfbench: {text}");
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where cargo puts build outputs: `CARGO_TARGET_DIR` when set, else the
/// workspace's `target/`.
fn target_dir() -> PathBuf {
    // tcpa-lint: allow(determinism-hazards) -- locating the build, part of argument handling
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// The result line.
fn result_json(outcome: &Outcome) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number", m.name));
        }
        let _ = write!(
            metrics,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    ))
}

fn run(argv: &[String]) -> Result<String, String> {
    let args = parse_args(argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    // Started first, while this process is small: see `child`.
    // tcpa-lint: allow(determinism-hazards) -- locating this executable to start its helper copy
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let spawner = Spawner::start(&exe)?;
    let program = bench::build_program(&target_dir())?;
    let request = Request {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        program,
        spawner,
        work: PathBuf::from(".perfbench_work").join(args.workload.name()),
    };
    let outcome = bench::run(&request)?;
    request.spawner.stop()?;
    for problem in &outcome.problems {
        warn(&format!("check failed: {problem}"));
    }
    for note in &outcome.notes {
        emit(&format!("{}: {note}", args.workload.name()));
    }
    for m in &outcome.metrics {
        emit(&format!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit));
    }
    result_json(&outcome)
}

fn main() -> ExitCode {
    // tcpa-lint: allow(determinism-hazards) -- command-line parsing
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(SPAWNER_FLAG) {
        return match child::serve() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                warn(&e);
                ExitCode::FAILURE
            }
        };
    }
    match run(&argv) {
        Ok(line) => {
            emit(&line);
            ExitCode::SUCCESS
        }
        Err(e) => {
            warn(&e);
            ExitCode::FAILURE
        }
    }
}
