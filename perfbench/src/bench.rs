//! One benchmark run: set up a workload, check the program's output, and
//! measure it, untraced end to end or traced layer by layer.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use tcpa_trace::MemorySource;
use tcpanaly::corpus::analyze_corpus;

use crate::child::{ChildRun, Spawner};
use crate::clock;
use crate::probe::{worker_use, ProbeSource};
use crate::reference::{self, cli_args, corpus_config, FileReport, JOBS};
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::traced::{self, Counts};
use crate::workload::{build, Corpus, Generated, Workload};

/// Inputs are regenerated this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 7;
/// In-process pipeline runs that sample the `corpus` layer.
const PROBE_RUNS: usize = 3;
/// `tcpanaly --list-impls` round trips behind `cli.spawn_ms`.
const SPAWN_SAMPLES: usize = 21;
/// Untimed invocations before `single_file` starts timing.
const SINGLE_FILE_WARMUP: usize = 10;

/// How one run was asked for.
pub struct Request {
    /// The workload.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// How long the measurement lasts.
    pub seconds: f64,
    /// `false` for the end-to-end metrics, `true` for the per-layer ones.
    pub trace: bool,
    /// The `tcpanaly` executable.
    pub program: PathBuf,
    /// Spawns and measures every `tcpanaly` child.
    pub spawner: Spawner,
    /// Scratch directory inside the checkout for this workload.
    pub work: PathBuf,
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: timed invocations, or traced inputs.
    pub attempted: u64,
    /// Operations that failed a check (and were not timed).
    pub failed: u64,
    /// Checks outside the timed operations that failed.
    pub problems: Vec<String>,
    /// The figures, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable context: sample counts and the like.
    pub notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// `true` when every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// `a ÷ b`, or 0 when nothing was measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Builds the release `tcpanaly` binary in the checkout and returns its
/// path under `target_dir`.
pub fn build_program(target_dir: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "tcpanaly",
            "--bin",
            "tcpanaly",
        ])
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building tcpanaly failed: {status}"));
    }
    let program = target_dir.join("release").join("tcpanaly");
    if !program.is_file() {
        return Err(format!("{} was not built", program.display()));
    }
    Ok(program)
}

/// Runs the request. The work directory starts empty and keeps only the
/// inputs and the span dump afterwards.
pub fn run(req: &Request) -> Result<Outcome, String> {
    if req.work.exists() {
        fs::remove_dir_all(&req.work).map_err(|e| format!("{}: {e}", req.work.display()))?;
    }
    fs::create_dir_all(&req.work).map_err(|e| format!("{}: {e}", req.work.display()))?;
    let mut out = Outcome::default();
    let corpus = set_up(req, &mut out)?;
    if req.trace {
        measure_traced(req, &corpus, &mut out)?;
    } else if req.workload.is_batch() {
        measure_batch(req, &corpus, &mut out)?;
    } else {
        measure_single_file(req, &corpus, &mut out)?;
    }
    let _ = fs::remove_dir_all(req.work.join("runs"));
    Ok(out)
}

/// Generates the inputs: several times for `setup_s`, checking that every
/// repeat produces the same bytes, then writes the last one to disk.
/// Only generation is timed. Creating 198 files took anywhere from 30 to
/// 100 ms on the tuning host's ext4, which would swamp the simulator.
fn set_up(req: &Request, out: &mut Outcome) -> Result<Corpus, String> {
    let repeats = if req.trace { 1 } else { SETUP_REPEATS };
    let mut times = Vec::new();
    let mut generated: Option<Generated> = None;
    for _ in 0..repeats {
        let started = clock::now();
        let fresh = build(req.workload, req.seed, usize::MAX)?;
        times.push(started.elapsed().as_secs_f64());
        if let Some(prev) = &generated {
            out.check(prev.digest == fresh.digest, || {
                "setup produced different bytes for the same seed".into()
            });
        }
        generated = Some(fresh);
    }
    let corpus = generated
        .ok_or("no setup ran")?
        .write(&req.work.join("corpus"))?;
    if !req.trace {
        out.metric("setup_s", median(&times).unwrap_or(0.0), "s");
        out.notes.push(format!(
            "setup: {} inputs, median of {repeats} generations",
            corpus.len()
        ));
    }
    Ok(corpus)
}

/// Where invocation `tag` writes its metrics (and audit trails).
fn outputs(req: &Request, tag: &str) -> PathBuf {
    req.work.join("runs").join(tag)
}

/// Runs `tcpanaly` once with the workload's arguments. Each invocation
/// writes into a directory of its own, as a user starting a fresh run
/// would. Only the untimed reference run writes audit trails: creating
/// one file per input costs more system time than the whole analysis on
/// `receiver_salvage` and varies several-fold with the disk.
fn invoke(
    req: &Request,
    jobs: usize,
    target: &Path,
    tag: &str,
    audit: bool,
) -> Result<ChildRun, String> {
    let args = cli_args(req.workload, jobs, target, &outputs(req, tag), audit);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    req.spawner
        .run(&req.program, &args, &req.work.join("stderr.txt"))
}

/// In-process analyses of every input.
fn file_reports(workload: Workload, corpus: &Corpus) -> Result<Vec<FileReport>, String> {
    corpus
        .inputs
        .iter()
        .map(|input| reference::file_report(workload, input))
        .collect()
}

/// Share of inputs whose generating profile the analysis keeps in its
/// candidate set.
fn truth_share(workload: Workload, corpus: &Corpus, reports: &[FileReport]) -> f64 {
    let hits = corpus
        .inputs
        .iter()
        .zip(reports)
        .filter(|(input, fr)| reference::truth_in_set(workload, input, &fr.report))
        .count();
    ratio(hits as f64, corpus.len() as f64)
}

/// Checks a batch reference run's stdout and side files; returns the
/// census packet total.
fn check_batch_reference(
    req: &Request,
    corpus: &Corpus,
    reports: &[FileReport],
    run: &ChildRun,
    out: &mut Outcome,
) -> u64 {
    out.check(run.code == Some(0), || {
        format!("reference run exited with {:?}", run.code)
    });
    let stdout = String::from_utf8_lossy(&run.stdout);
    let Some((traces, analyzed, salvaged, failed, packets)) = reference::census_counts(&stdout)
    else {
        out.problems.push("reference run printed no census".into());
        return 0;
    };
    let n = corpus.len() as u64;
    out.check(traces == n && analyzed + salvaged + failed == n, || {
        format!("item accounting: {traces} traces, {analyzed}+{salvaged}+{failed} for {n} inputs")
    });
    out.check(failed == 0, || format!("{failed} items failed"));
    let damaged = corpus
        .inputs
        .iter()
        .filter(|i| i.case.fault.is_some())
        .count() as u64;
    out.check(salvaged <= damaged, || {
        format!("{salvaged} salvaged items from {damaged} damaged inputs")
    });
    let ingested: u64 = reports.iter().map(|r| r.records as u64).sum();
    out.check(packets == ingested, || {
        format!("census counts {packets} packets, in-process ingest {ingested}")
    });
    if req.workload.at_receiver() {
        let metrics =
            fs::read_to_string(outputs(req, "reference").join("metrics.json")).unwrap_or_default();
        let items = tcpanaly::obs::json::Value::parse(&metrics)
            .ok()
            .and_then(|doc| doc.get("counters")?.get("corpus.items_total")?.as_u64());
        out.check(
            tcpanaly::obs::metrics::validate_metrics(&metrics).is_ok() && items == Some(n),
            || format!("metrics file invalid or counts {items:?} items for {n}"),
        );
        let trails =
            fs::read_dir(outputs(req, "reference").join("audit")).map_or(0, |d| d.count()) as u64;
        out.check(trails == n, || {
            format!("{trails} audit trails for {n} inputs")
        });
    }
    packets
}

/// End-to-end figures common to both workload shapes.
struct Samples {
    wall_s: Vec<f64>,
    per_item_rate: Vec<f64>,
    cpu_s: f64,
    items: f64,
    rss_mb: Vec<f64>,
    /// Wall times per input: per capture on `single_file`, and one input,
    /// the corpus directory, on the batch workloads. The latency
    /// percentiles are taken over each input's median invocation, so they
    /// describe how latency varies across inputs. Over raw invocations
    /// they followed the host's scheduling jitter: on `single_file` p90
    /// moved by a third between runs, and on the batch workloads, where
    /// every invocation does the same work, it spread by 20–40% of its
    /// median between runs of the same code.
    by_input: Vec<Vec<f64>>,
}

impl Samples {
    fn new(inputs: usize) -> Samples {
        Samples {
            wall_s: Vec::new(),
            per_item_rate: Vec::new(),
            cpu_s: 0.0,
            items: 0.0,
            rss_mb: Vec::new(),
            by_input: vec![Vec::new(); inputs],
        }
    }

    fn push(&mut self, run: &ChildRun, items: usize, input: usize) {
        if let Some(walls) = self.by_input.get_mut(input) {
            walls.push(run.wall_s);
        }
        let items = items as f64;
        self.wall_s.push(run.wall_s);
        self.per_item_rate.push(ratio(items, run.wall_s));
        self.cpu_s += run.cpu_s;
        self.items += items;
        self.rss_mb.push(run.maxrss_kib as f64 / 1024.0);
    }

    fn report(&self, out: &mut Outcome, truth: f64, recovered: f64) {
        let latency_ms: Vec<f64> = self
            .by_input
            .iter()
            .filter_map(|w| median(w))
            .map(|s| s * 1e3)
            .collect();
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        out.metric("traces_per_s", med(&self.per_item_rate), "1/s");
        out.metric(
            "cpu_ms_per_trace",
            ratio(self.cpu_s * 1e3, self.items),
            "ms",
        );
        out.metric(
            "latency_p50_ms",
            percentile(&latency_ms, 50.0).unwrap_or(0.0),
            "ms",
        );
        out.metric(
            "latency_p90_ms",
            percentile(&latency_ms, 90.0).unwrap_or(0.0),
            "ms",
        );
        out.metric("peak_rss_mb", med(&self.rss_mb), "MB");
        out.metric(
            "success_share",
            ratio((out.attempted - out.failed) as f64, out.attempted as f64),
            "fraction",
        );
        out.metric("truth_in_close_set", truth, "fraction");
        out.metric("salvage_recovered_share", recovered, "fraction");
        out.notes.push(format!(
            "timed invocations: {} ({} failed); latency percentiles over the median invocation of each of {} inputs; \
             over raw invocations p50 {:.3} ms, p90 {:.3} ms",
            out.attempted,
            out.failed,
            latency_ms.len(),
            percentile(&self.wall_s, 50.0).unwrap_or(0.0) * 1e3,
            percentile(&self.wall_s, 90.0).unwrap_or(0.0) * 1e3,
        ));
    }
}

/// `sender_census` / `receiver_salvage` with tracing off: a `--jobs 1`
/// reference, the in-process census, then timed `--jobs 2` runs.
fn measure_batch(req: &Request, corpus: &Corpus, out: &mut Outcome) -> Result<(), String> {
    let reports = file_reports(req.workload, corpus)?;
    let reference_run = invoke(req, 1, &corpus.dir, "reference", true)?;
    let packets = check_batch_reference(req, corpus, &reports, &reference_run, out);
    let in_process = reference::census(req.workload, corpus).render();
    out.check(reference_run.stdout == in_process.as_bytes(), || {
        "--jobs 1 stdout differs from the in-process census".into()
    });
    let truth = truth_share(req.workload, corpus, &reports);
    let recovered = reference::recovered_share(corpus, packets);

    // One untimed run warms the page cache and the allocator.
    invoke(req, JOBS, &corpus.dir, "warm-up", false)?;
    let mut samples = Samples::new(1);
    let started = clock::now();
    while started.elapsed().as_secs_f64() < req.seconds {
        let run = invoke(req, JOBS, &corpus.dir, &out.attempted.to_string(), false)?;
        out.attempted += 1;
        if run.code == Some(0) && run.stdout == reference_run.stdout {
            samples.push(&run, corpus.len(), 0);
        } else {
            out.failed += 1;
        }
    }
    samples.report(out, truth, recovered);
    Ok(())
}

/// `single_file` with tracing off: one timed `tcpanaly FILE` per capture,
/// cycling through the corpus, each checked against the in-process report.
fn measure_single_file(req: &Request, corpus: &Corpus, out: &mut Outcome) -> Result<(), String> {
    let reports = file_reports(req.workload, corpus)?;
    let truth = truth_share(req.workload, corpus, &reports);
    let ingested: u64 = reports.iter().map(|r| r.records as u64).sum();
    let recovered = reference::recovered_share(corpus, ingested);
    let mut samples = Samples::new(corpus.len());
    let started = clock::now();
    let mut k = 0usize;
    while k < SINGLE_FILE_WARMUP || started.elapsed().as_secs_f64() < req.seconds {
        let index = k % corpus.len();
        let run = invoke(req, 1, &corpus.inputs[index].path, "single", false)?;
        let ok = run.code == Some(0) && run.stdout == reports[index].single_file_stdout.as_bytes();
        if k < SINGLE_FILE_WARMUP {
            out.check(ok, || format!("warm-up invocation {k} failed its check"));
        } else {
            out.attempted += 1;
            if ok {
                samples.push(&run, 1, index);
            } else {
                out.failed += 1;
            }
        }
        k += 1;
    }
    samples.report(out, truth, recovered);
    Ok(())
}

/// Self-time shares reported per layer: (metric, span names).
const SELF_SHARES: [(&str, &[&str]); 11] = [
    (
        "pcap_io.self_share",
        &[
            "pcap_io.file_read",
            "pcap_io.read_strict",
            "pcap_io.read_salvage",
        ],
    ),
    ("vantage.self_share", &["vantage"]),
    ("calibrate.self_share", &["calibrate"]),
    ("split.self_share", &["split"]),
    ("sender.replay.self_share", &["sender.replay"]),
    ("fingerprint.self_share", &["fingerprint"]),
    ("receiver.self_share", &["receiver"]),
    ("receiver_fp.self_share", &["receiver_fp"]),
    ("handshake.self_share", &["handshake"]),
    ("stats.self_share", &["stats"]),
    ("report.render.self_share", &["report.render"]),
];

/// The stages `Analyzer::analyze` runs, as the traced pass names them.
const ANALYZE_STAGES: [&str; 7] = [
    "calibrate",
    "split",
    "fingerprint",
    "receiver",
    "receiver_fp",
    "handshake",
    "stats",
];

/// Every workload with tracing on: the traced pass for the per-layer
/// figures, the in-process pipeline under the probe for the `corpus`
/// layer, and `--list-impls` round trips for process start.
fn measure_traced(req: &Request, corpus: &Corpus, out: &mut Outcome) -> Result<(), String> {
    let workload = req.workload;

    // The program's own output, checked against the in-process pipeline
    // (which, for batch workloads, also runs under the probe).
    let mut busy = Vec::new();
    let mut tail_ms = Vec::new();
    let mut render_us = Vec::new();
    if workload.is_batch() {
        let program_run = invoke(req, JOBS, &corpus.dir, "traced", false)?;
        out.check(program_run.code == Some(0), || {
            format!("program exited with {:?}", program_run.code)
        });
        for i in 0..PROBE_RUNS {
            let (source, stamps) = ProbeSource::new(MemorySource::from_pcap_files(corpus.paths()));
            let config = corpus_config(workload);
            let started = clock::now();
            let report = analyze_corpus(source, &config);
            let ended = clock::now();
            let rendered = report.render();
            // `ended` is also where rendering began.
            render_us.push(ended.elapsed().as_secs_f64() * 1e6);
            let pulls = stamps.lock().map_err(|_| "probe lock poisoned")?.clone();
            let used = worker_use(&pulls, started, ended);
            busy.push(used.busy_share);
            tail_ms.push(used.tail_idle.as_secs_f64() * 1e3);
            if i == 0 {
                out.check(program_run.stdout == rendered.as_bytes(), || {
                    "program stdout differs from the in-process census".into()
                });
            }
        }
    } else {
        for (index, input) in corpus.inputs.iter().enumerate() {
            let run = invoke(req, 1, &input.path, "single", false)?;
            let expected = reference::file_report(workload, input)?;
            out.check(
                run.code == Some(0) && run.stdout == expected.single_file_stdout.as_bytes(),
                || format!("tcpanaly {index:05}.pcap differs from the in-process report"),
            );
        }
    }

    // The check sweep: untimed, and it fixes the per-sweep counts.
    let mut rec = Recorder::new(false);
    let mut counts = Counts::default();
    for (index, input) in corpus.inputs.iter().enumerate() {
        let t = traced::run_one(&mut rec, workload, index as u32, &input.path, &mut counts)?;
        out.check(t.staged.render() == t.analyzed.render(), || {
            format!("staged pipeline disagrees with Analyzer::analyze on input {index}")
        });
    }

    // Alternate traced and untraced sweeps until the time is up.
    let mut traced_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut last_sweep_first_span = 0;
    let started = clock::now();
    while traced_s.is_empty()
        || untraced_s.is_empty()
        || started.elapsed().as_secs_f64() < req.seconds
    {
        let tracing = traced_s.len() <= untraced_s.len();
        rec.set_enabled(tracing);
        if tracing {
            last_sweep_first_span = rec.spans().len();
        }
        let mut sweep = Counts::default();
        let sweep_started = clock::now();
        for (index, input) in corpus.inputs.iter().enumerate() {
            out.attempted += 1;
            if traced::run_one(&mut rec, workload, index as u32, &input.path, &mut sweep).is_err() {
                out.failed += 1;
            }
        }
        let wall = sweep_started.elapsed().as_secs_f64();
        out.check(sweep == counts, || {
            "sweep counts changed between sweeps".into()
        });
        if tracing {
            traced_s.push(wall);
        } else {
            untraced_s.push(wall);
        }
    }
    let spans_path = req.work.join("spans.json");
    fs::write(&spans_path, rec.chrome_json(last_sweep_first_span))
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    // Process start and teardown, as a user pays it on every invocation.
    let mut spawn_ms = Vec::new();
    for _ in 0..SPAWN_SAMPLES {
        let run = req.spawner.run(
            &req.program,
            &["--list-impls"],
            &req.work.join("stderr.txt"),
        )?;
        out.check(run.code == Some(0) && run.stdout.len() > 100, || {
            "--list-impls failed".into()
        });
        spawn_ms.push(run.wall_s * 1e3);
    }

    let layers = rec.layer_times();
    let sweeps = traced_s.len() as f64;
    let total = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| layers.get(n))
            .fold(0.0, |sum, l| sum + l.total_ns as f64)
    };
    let self_ns = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| layers.get(n))
            .fold(0.0, |sum, l| sum + l.self_ns as f64)
    };
    let traces = counts.traces as f64 * sweeps;
    let analyze_ns = total(&["report.analyze"]);
    let conns = counts.connections as f64 * sweeps;
    let us = |names: &[&str], per: f64| ratio(total(names) / 1e3, per);
    let mb_per_s =
        |bytes: u64, name: &str| ratio(bytes as f64 * sweeps / 1e6, total(&[name]) / 1e9);
    // `report.analyze` runs inside `item` but is not part of the pipeline.
    let item_ns = total(&["item"]) - analyze_ns;
    let med = |v: &[f64]| median(v).unwrap_or(0.0);

    out.metric(
        "pcap_io.file_read.us_per_trace",
        us(&["pcap_io.file_read"], traces),
        "us",
    );
    out.metric(
        "pcap_io.read_strict.mb_per_s",
        mb_per_s(counts.strict_bytes, "pcap_io.read_strict"),
        "MB/s",
    );
    out.metric(
        "pcap_io.read_strict.ns_per_record",
        ratio(
            total(&["pcap_io.read_strict"]),
            counts.strict_records as f64 * sweeps,
        ),
        "ns",
    );
    out.metric(
        "pcap_io.read_salvage.mb_per_s",
        mb_per_s(counts.salvage_bytes, "pcap_io.read_salvage"),
        "MB/s",
    );
    out.metric(
        "pcap_io.read_salvage.regions",
        counts.salvage_regions as f64,
        "count",
    );
    out.metric(
        "pcap_io.read_salvage.bytes_skipped",
        counts.salvage_bytes_skipped as f64,
        "bytes",
    );
    out.metric("calibrate.us_per_trace", us(&["calibrate"], traces), "us");
    out.metric(
        "calibrate.findings",
        counts.calibrate_findings as f64,
        "count",
    );
    out.metric("vantage.us_per_trace", us(&["vantage"], traces), "us");
    out.metric(
        "vantage.sender_share",
        ratio(counts.vantage_sender as f64, counts.vantage_calls as f64),
        "fraction",
    );
    out.metric("split.us_per_trace", us(&["split"], traces), "us");
    out.metric("split.connections", counts.connections as f64, "count");
    out.metric(
        "sender.replay.us_per_candidate",
        us(&["sender.replay"], counts.candidates as f64 * sweeps),
        "us",
    );
    out.metric("sender.replay.calls", counts.replay_calls() as f64, "count");
    out.metric(
        "sender.replay.second_pass_share",
        ratio(counts.second_passes as f64, counts.candidates as f64),
        "fraction",
    );
    out.metric("fingerprint.us_per_conn", us(&["fingerprint"], conns), "us");
    out.metric(
        "fingerprint.clearly_incorrect_share",
        ratio(counts.clearly_incorrect as f64, counts.candidates as f64),
        "fraction",
    );
    out.metric(
        "fingerprint.close_set_mean",
        ratio(counts.close_fits as f64, counts.fingerprinted as f64),
        "count",
    );
    out.metric("receiver.us_per_conn", us(&["receiver"], conns), "us");
    out.metric("receiver_fp.us_per_conn", us(&["receiver_fp"], conns), "us");
    out.metric("handshake.us_per_conn", us(&["handshake"], conns), "us");
    out.metric("stats.us_per_conn", us(&["stats"], conns), "us");
    out.metric(
        "report.analyze.us_per_trace",
        us(&["report.analyze"], traces),
        "us",
    );
    out.metric(
        "report.render.us_per_trace",
        us(&["report.render"], traces),
        "us",
    );
    out.metric("cli.spawn_ms", med(&spawn_ms), "ms");
    out.metric(
        "obs.overhead_share",
        ratio(analyze_ns - total(&ANALYZE_STAGES), analyze_ns),
        "fraction",
    );
    out.metric("corpus.worker_busy_share", med(&busy), "fraction");
    out.metric("corpus.tail_idle_ms", med(&tail_ms), "ms");
    out.metric("corpus.render.us", med(&render_us), "us");
    out.metric(
        "trace.overhead_share",
        ratio(med(&traced_s) - med(&untraced_s), med(&untraced_s)),
        "fraction",
    );
    for (name, spans) in SELF_SHARES {
        out.metric(name, ratio(self_ns(spans), item_ns), "fraction");
    }
    out.notes.push(format!(
        "traced sweeps: {} traced + {} untraced over {} inputs; {} spans, the last sweep's in {}",
        traced_s.len(),
        untraced_s.len(),
        corpus.len(),
        rec.spans().len(),
        spans_path.display()
    ));
    Ok(())
}
