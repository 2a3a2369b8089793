//! `tcpanaly` — the command-line analyzer, as the paper shipped it.
//!
//! ```text
//! tcpanaly [--sender|--receiver] [--impl NAME] [--handshake]
//!          [--receiver-fingerprint] [--list-impls] [--jobs N]
//!          TRACE.pcap... | DIR...
//! ```
//!
//! Reads tcpdump-format captures, calibrates them (§3), and reports the
//! per-connection implementation fingerprint (§5/§6) and receiver audit
//! (§7/§9). With `--impl NAME` it checks a single candidate and prints
//! the full disagreement detail instead of the ranking.
//!
//! Every argument is a pcap file or a directory of them. Both modes run
//! the inputs through the one corpus runner (`tcpanaly::corpus`).
//! Without `--jobs`, each file's report is printed in input order. With
//! `--jobs N` it switches to batch mode: the corpus is analyzed on `N`
//! worker threads (`0` = one per CPU), and a single merged census is
//! printed. Batch output is byte-identical for any `N`.
//!
//! `--degrade MODE` decides what a damaged capture does to the run:
//! `skip` (default) reports it as a failed item, `salvage` recovers what
//! it can and accounts the damage, `strict` aborts with exit code 3.
//! `--timeout-secs N` gives each input a deadline that the analysis
//! checks before each connection and each candidate replay; an overrun
//! fails that input.
//!
//! Observability: `--metrics-out FILE` writes a `tcpa-metrics/v1` JSON
//! snapshot of every counter and stage histogram, `--audit-dir DIR`
//! writes one `tcpa-audit/v1` event log per trace, `--trace-out FILE`
//! writes the run's hierarchical span tree in Chrome `trace_event`
//! format (open it in Perfetto or `chrome://tracing`), `--progress`
//! prints a periodic stderr status line, and `--quiet`/`-v`/`-vv` set
//! diagnostic verbosity. Machine output (census, reports) stays on
//! stdout; diagnostics stay on stderr.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tcpa_tcpsim::profiles::{all_profiles, profile_by_name};
use tcpa_tcpsim::TcpConfig;
use tcpa_trace::source::pcap_files_in;
use tcpa_trace::{Loaded, MemorySource, Trace};
use tcpanaly::calibrate::{SplitTrace, Vantage};
use tcpanaly::corpus::{
    analyze_corpus, first_failure, run_items, CorpusConfig, DegradePolicy, ItemOutcome, ItemReport,
};
use tcpanaly::fingerprint::{fingerprint_one, fingerprint_receiver};
use tcpanaly::obs::{self, log, Deadline, Expired};
use tcpanaly::report::emit_stdout;
use tcpanaly::Analyzer;

struct Options {
    vantage: Vantage,
    implementation: Option<TcpConfig>,
    handshake: bool,
    receiver_fp: bool,
    jobs: Option<usize>,
    degrade: DegradePolicy,
    timeout_secs: Option<u64>,
    metrics_out: Option<PathBuf>,
    audit_dir: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    progress: bool,
    level: log::Level,
    files: Vec<String>,
}

const USAGE: &str = "usage: tcpanaly [options] TRACE.pcap... | DIR...

options:
  --sender                trace was captured at the data sender (default: auto-detect)
  --receiver              trace was captured at the receiver
  --impl NAME             check one implementation instead of ranking all
  --handshake             also report the SYN-retry schedule
  --receiver-fingerprint  also rank receiver-side (acking policy) candidates
  --list-impls            list known implementations and exit
  --jobs N                batch mode: analyze a corpus of pcaps (or directories
                          of pcaps) on N worker threads (0 = one per CPU) and
                          print one merged census
  --degrade MODE          damaged-capture policy: skip (default) reports the
                          item as failed, salvage recovers readable records and
                          accounts the damage, strict aborts the run
  --timeout-secs N        per-trace analysis deadline, checked between
                          candidate replays; overruns are reported as
                          timed-out items
  --metrics-out FILE      write a tcpa-metrics/v1 JSON snapshot of all
                          counters and stage-duration histograms on exit
  --audit-dir DIR         write one tcpa-audit/v1 JSON event log per trace
                          (stage durations, retries, errors, verdicts)
  --trace-out FILE        write the run's span tree as a Chrome trace_event
                          JSON file (one lane per worker; view in Perfetto
                          or chrome://tracing)
  --progress              print a periodic status line to stderr while the
                          run drains (stdout is never touched)
  --quiet                 only error diagnostics on stderr
  -v / -vv                info / debug diagnostics on stderr

exit codes: 0 success, 1 failed items, 2 usage error, 3 strict-mode abort
";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        vantage: Vantage::Unknown,
        implementation: None,
        handshake: false,
        receiver_fp: false,
        jobs: None,
        degrade: DegradePolicy::default(),
        timeout_secs: None,
        metrics_out: None,
        audit_dir: None,
        trace_out: None,
        progress: false,
        level: log::Level::Warn,
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sender" => opts.vantage = Vantage::Sender,
            "--receiver" => opts.vantage = Vantage::Receiver,
            "--impl" => {
                let name = args.next().ok_or("--impl requires a name")?;
                let cfg = profile_by_name(&name)
                    .ok_or_else(|| format!("unknown implementation {name:?}; try --list-impls"))?;
                opts.implementation = Some(cfg);
            }
            "--jobs" => {
                let n = args.next().ok_or("--jobs requires a count")?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--jobs: invalid count {n:?}"))?;
                opts.jobs = Some(n);
            }
            "--degrade" => {
                let mode = args.next().ok_or("--degrade requires a mode")?;
                opts.degrade = mode.parse()?;
            }
            "--timeout-secs" => {
                let n = args.next().ok_or("--timeout-secs requires a count")?;
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("--timeout-secs: invalid count {n:?}"))?;
                opts.timeout_secs = Some(n);
            }
            "--metrics-out" => {
                let path = args.next().ok_or("--metrics-out requires a path")?;
                opts.metrics_out = Some(PathBuf::from(path));
            }
            "--audit-dir" => {
                let path = args.next().ok_or("--audit-dir requires a directory")?;
                opts.audit_dir = Some(PathBuf::from(path));
            }
            "--trace-out" => {
                let path = args.next().ok_or("--trace-out requires a path")?;
                opts.trace_out = Some(PathBuf::from(path));
            }
            "--progress" => opts.progress = true,
            "--quiet" => opts.level = log::Level::Error,
            "-v" => opts.level = log::Level::Info,
            "-vv" => opts.level = log::Level::Debug,
            "--handshake" => opts.handshake = true,
            "--receiver-fingerprint" => opts.receiver_fp = true,
            "--list-impls" => {
                for p in all_profiles() {
                    emit_stdout(&format!("{:<22} ({})\n", p.name, p.lineage));
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                emit_stdout(USAGE);
                std::process::exit(0);
            }
            other if other.starts_with("--degrade=") => {
                opts.degrade = other
                    .strip_prefix("--degrade=")
                    .unwrap_or_default()
                    .parse()?;
            }
            other if other.starts_with("--metrics-out=") => {
                opts.metrics_out = Some(PathBuf::from(
                    other.strip_prefix("--metrics-out=").unwrap_or_default(),
                ));
            }
            other if other.starts_with("--audit-dir=") => {
                opts.audit_dir = Some(PathBuf::from(
                    other.strip_prefix("--audit-dir=").unwrap_or_default(),
                ));
            }
            other if other.starts_with("--trace-out=") => {
                opts.trace_out = Some(PathBuf::from(
                    other.strip_prefix("--trace-out=").unwrap_or_default(),
                ));
            }
            other if other.starts_with("--timeout-secs=") => {
                let n = other.strip_prefix("--timeout-secs=").unwrap_or_default();
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("--timeout-secs: invalid count {n:?}"))?;
                opts.timeout_secs = Some(n);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other}"));
            }
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.files.is_empty() {
        return Err("no trace files given".into());
    }
    if opts.jobs.is_some() && (opts.implementation.is_some() || opts.handshake || opts.receiver_fp)
    {
        return Err(
            "--jobs batch mode is incompatible with --impl/--handshake/--receiver-fingerprint"
                .into(),
        );
    }
    Ok(opts)
}

/// Expands the file arguments: files pass through, directories expand to
/// their `*.pcap` entries sorted by name.
fn expand_corpus_args(args: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut paths = Vec::new();
    for arg in args {
        let p = Path::new(arg);
        if !p.is_dir() {
            paths.push(p.to_path_buf());
            continue;
        }
        let in_dir = pcap_files_in(p).map_err(|e| format!("{arg}: {e}"))?;
        if in_dir.is_empty() {
            return Err(format!("{arg}: directory contains no .pcap files"));
        }
        paths.extend(in_dir);
    }
    Ok(paths)
}

/// Runs every input through the corpus runner: batch mode prints one
/// census, single-file mode each file's report in input order. Exit code
/// 0 when every item analyzed (possibly salvaged), 1 when any failed, 3
/// when a strict-policy run aborted on a malformed capture.
fn run(opts: &Options) -> ExitCode {
    let paths = match expand_corpus_args(&opts.files) {
        Ok(p) => p,
        Err(e) => {
            log::error(&format!("{e}\n{USAGE}"));
            return ExitCode::from(2);
        }
    };
    let config = CorpusConfig {
        jobs: opts.jobs.unwrap_or(1),
        vantage: opts.vantage,
        degrade: opts.degrade,
        timeout: opts.timeout_secs.map(std::time::Duration::from_secs),
        audit_dir: opts.audit_dir.clone(),
        // --quiet wins over --progress: errors only means errors only.
        progress: (opts.progress && opts.level != log::Level::Error)
            .then(|| std::time::Duration::from_millis(500)),
        ..CorpusConfig::default()
    };
    let traces = paths.len();
    let source = MemorySource::from_pcap_files(paths);
    // A panicking trace is reported as a failed item; keep the default
    // hook from interleaving backtrace noise with the report.
    let prior_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let code = match opts.jobs {
        Some(jobs) => {
            log::info(&format!(
                "batch mode: {traces} traces, {jobs} jobs, degrade={}",
                opts.degrade
            ));
            let report = analyze_corpus(source, &config);
            emit_stdout(&report.render());
            exit_code(&report.items, report.aborted)
        }
        None => {
            let (items, aborted) = run_items(source, &config, |id, loaded, deadline| {
                render_file(opts, id, loaded, deadline)
            });
            for item in &items {
                match &item.outcome {
                    ItemOutcome::Analyzed(text) | ItemOutcome::Salvaged { summary: text, .. } => {
                        emit_stdout(text)
                    }
                    ItemOutcome::Failed(e) => log::error(&format!("{}: {e}", item.id)),
                }
            }
            exit_code(&items, aborted)
        }
    };
    std::panic::set_hook(prior_hook);
    code
}

/// The exit code of a finished run, logging the capture a strict-mode
/// abort stopped on.
fn exit_code<T>(items: &[ItemReport<T>], aborted: bool) -> ExitCode {
    match first_failure(items) {
        Some(first) if aborted => {
            if let ItemOutcome::Failed(e) = &first.outcome {
                log::error(&format!("strict mode aborted on {}: {e}", first.id));
            }
            ExitCode::from(3)
        }
        Some(_) => ExitCode::FAILURE,
        None => ExitCode::SUCCESS,
    }
}

fn vantage_line(vantage: Vantage) -> String {
    format!("vantage: auto-detected {vantage:?} (override with --sender/--receiver)\n")
}

/// What single-file mode prints for one loaded capture.
fn render_file(
    opts: &Options,
    id: &str,
    loaded: &Loaded,
    deadline: Deadline,
) -> Result<String, Expired> {
    let mut out = match &loaded.salvage {
        Some(report) => format!("== {id}: {report}\n"),
        None => format!(
            "== {id}: {} records ({} non-TCP skipped)\n",
            loaded.trace.len(),
            loaded.non_tcp_skipped
        ),
    };
    if let Some(cfg) = &opts.implementation {
        render_candidate(&mut out, opts.vantage, cfg, &loaded.trace, deadline)?;
        return Ok(out);
    }
    let analysis = Analyzer::from(opts.vantage).analyze_within(&loaded.trace, deadline)?;
    if opts.vantage == Vantage::Unknown {
        out.push_str(&vantage_line(analysis.vantage));
    }
    out.push_str(&analysis.report.render());
    if !(opts.handshake || opts.receiver_fp) {
        return Ok(out);
    }
    for (conn, report) in analysis
        .connections
        .iter()
        .zip(&analysis.report.connections)
    {
        if opts.handshake {
            match &report.handshake {
                Some(h) => out.push_str(&format!(
                    "handshake {}: {} retries, initial RTO {}, backoff {:?}\n",
                    report.description,
                    h.retries(),
                    h.initial_rto
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "-".into()),
                    h.shape
                )),
                None => out.push_str("handshake: no SYN captured\n"),
            }
        }
        if opts.receiver_fp {
            // From a receiver vantage the report already holds the ranking.
            let computed;
            let fits = if analysis.vantage == Vantage::Receiver {
                &report.receiver_fingerprint
            } else {
                computed = fingerprint_receiver(conn);
                &computed
            };
            out.push_str("receiver-side candidates (consistent first):\n");
            for fit in fits.iter().take(8) {
                out.push_str(&format!(
                    "  {:<22} {}\n",
                    fit.name,
                    if fit.consistent {
                        "consistent".to_string()
                    } else {
                        format!("contradicted: {}", fit.contradictions.join("; "))
                    }
                ));
            }
        }
    }
    Ok(out)
}

/// `--impl`: one candidate against every connection, with the full
/// disagreement detail.
fn render_candidate(
    out: &mut String,
    vantage: Vantage,
    cfg: &TcpConfig,
    trace: &Trace,
    deadline: Deadline,
) -> Result<(), Expired> {
    let split = SplitTrace::of(trace);
    if vantage == Vantage::Unknown {
        out.push_str(&vantage_line(split.infer_vantage()));
    }
    // A single-candidate check runs only the vantage-neutral drop checks.
    let cal = split.calibrate(Vantage::Unknown);
    if !cal.is_clean() {
        out.push_str(&format!(
            "calibration: {} dups removed, {} time travel, {} reseq, {} drop evidence\n",
            cal.duplicates.len(),
            cal.time_travel.len(),
            cal.resequencing.len(),
            cal.drop_evidence.len()
        ));
    }
    for conn in &split.connections {
        deadline.check()?;
        out.push_str(&format!(
            "-- connection {} -> {}\n",
            conn.sender, conn.receiver
        ));
        let Some(fit) = fingerprint_one(conn, cfg) else {
            out.push_str("   no analyzable bulk data\n");
            continue;
        };
        let mut delays = fit.analysis.response_delays.clone();
        out.push_str(&format!(
            "   {}: {} — {} issues, delays p50 {} p90 {}\n",
            cfg.name,
            fit.fit,
            fit.analysis.issues.len(),
            delays.median().map(|d| d.to_string()).unwrap_or_default(),
            delays
                .percentile(90.0)
                .map(|d| d.to_string())
                .unwrap_or_default()
        ));
        for issue in fit.analysis.issues.iter().take(10) {
            out.push_str(&format!(
                "   {:?} @{}: {}\n",
                issue.kind, issue.time, issue.detail
            ));
        }
        if fit.analysis.issues.len() > 10 {
            out.push_str(&format!("   … {} more\n", fit.analysis.issues.len() - 10));
        }
    }
    Ok(())
}

/// Writes the `tcpa-metrics/v1` snapshot of the whole run.
fn write_metrics(path: &Path, started: Instant) -> Result<(), obs::write::WriteError> {
    // Declare the counters a healthy run never touches, so the document
    // carries the full vocabulary with stable zeros.
    for name in [
        "corpus.io_retries",
        "corpus.failed.io",
        "corpus.failed.malformed",
        "corpus.failed.timeout",
        "corpus.failed.panic",
        "corpus.salvaged",
        "corpus.salvage.bytes_skipped",
        "corpus.salvage.damage_regions",
        "corpus.audit.write_errors",
    ] {
        obs::registry::global().declare(name);
    }
    let snapshot = obs::registry::global().snapshot();
    obs::write::write_with_parents(path, &snapshot.to_json(started.elapsed().as_secs_f64()))
}

/// Drains the span-tree collector and writes the Chrome trace_event
/// document.
fn write_trace_out(path: &Path) -> Result<(), obs::write::WriteError> {
    let events = obs::trace::drain();
    log::debug(&obs::trace::summary_line(&events));
    obs::write::write_with_parents(path, &obs::trace::render_chrome(&events))
}

fn main() -> ExitCode {
    // tcpa-lint: allow(determinism-hazards) -- wall-clock here only feeds the metrics wall_clock gauge, which is outside the byte-stability contract
    let started = Instant::now();
    log::set_program("tcpanaly");
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            log::error(&format!("{e}\n{USAGE}"));
            return ExitCode::from(2);
        }
    };
    log::set_level(opts.level);
    if opts.trace_out.is_some() {
        obs::trace::enable();
    }
    let code = run(&opts);
    if let Some(path) = &opts.trace_out {
        if let Err(e) = write_trace_out(path) {
            log::error(&format!("trace: {e}"));
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &opts.metrics_out {
        if let Err(e) = write_metrics(path, started) {
            log::error(&format!("metrics: {e}"));
            return ExitCode::from(2);
        }
    }
    if let Some(line) = obs::registry::global().snapshot().human_summary() {
        log::info(&line);
    }
    code
}
