//! Corpus-scale batch analysis (§8–§10 at production size), and the one
//! place an input becomes an analyzed trace.
//!
//! The paper's behavioral catalogues came from ~40,000 traces; one trace
//! at a time on one thread does not get there. This module shards a
//! corpus of traces — supplied by any
//! [`TraceSource`](tcpa_trace::source::TraceSource) — across `N` worker
//! threads (plain `std::thread` + channels, no external runtime; one job
//! runs on the calling thread) and merges the per-trace conclusions into
//! a Table-1-style census.
//!
//! [`run_items`] is the per-item step both `tcpanaly` modes share: load
//! with retry, apply the degrade policy, isolate panics, bracket the
//! item's audit trail and trace record, and return results in input
//! order. What each item produces is up to the caller: the batch census
//! ([`analyze_corpus`]) folds each item into an [`ItemSummary`], while
//! single-file mode renders each file's report text.
//!
//! Guarantees the rest of the system builds on:
//!
//! * **Determinism** — results are merged in input order, so the census
//!   (and its rendering) is byte-identical whatever the worker count or
//!   completion order.
//! * **Fault isolation** — one bad trace costs exactly one item, never
//!   the pipeline. Failures carry a typed [`AnalysisError`] (I/O,
//!   malformed bytes, timeout, panic) so the census can say *why*, and a
//!   [`DegradePolicy`] decides whether damaged captures abort the run
//!   ([`DegradePolicy::Strict`]), are skipped as failed items
//!   ([`DegradePolicy::Skip`]), or are salvage-read with the recovered
//!   records analyzed and the damage accounted
//!   ([`DegradePolicy::Salvage`]).
//! * **Bounded patience** — transient I/O errors are retried with
//!   backoff; a per-item [`Deadline`] (when configured), which the
//!   analysis checks before each connection and each candidate replay,
//!   turns an overrun into an [`AnalysisError::Timeout`] failure on the
//!   worker's own thread. No thread is ever left running.
//! * **One pass per trace** — each trace is loaded, de-duplicated, split
//!   and calibrated once; an unknown vantage is inferred from that same
//!   split ([`Analyzer::analyze_within`]).
//! * **Observability** — every stage records into the global
//!   [`tcpa_obs`] registry (counters for retries, timeouts, panics,
//!   degrade outcomes and salvage losses; log-bucket histograms for
//!   stage durations), an optional [`CorpusConfig::audit_dir`] writes
//!   one JSON event log per trace, and [`CorpusConfig::progress`]
//!   prints a periodic stderr status line. None of it perturbs the
//!   deterministic census.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;

use crate::calibrate::Vantage;
use crate::fingerprint::FitClass;
use crate::report::{AnalysisReport, Analyzer};
use tcpa_obs::audit::{self, AuditTrail, EventKind};
use tcpa_obs::progress::{ItemClass, Progress};
use tcpa_obs::{trace, Deadline, Expired};
use tcpa_trace::pcap_io::IngestReport;
use tcpa_trace::source::{CorpusItem, LoadError, LoadMode, Loaded, TraceInput, TraceSource};
use tcpa_trace::{Duration, Summary};

/// What to do with a damaged (malformed but partially recoverable)
/// capture. Clean traces behave identically under every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// Abort the whole run on the first malformed capture (distinct exit
    /// code in the CLI). For pipelines where damage means the corpus
    /// itself is suspect.
    Strict,
    /// Salvage-read damaged captures: skip damaged byte regions, analyze
    /// the recovered records, and account for the degradation in the
    /// census. For unattended runs over imperfect data (§3).
    Salvage,
    /// Report damaged captures as failed items and keep going (the
    /// historical behavior).
    #[default]
    Skip,
}

impl DegradePolicy {
    /// Stable lowercase name (CLI flag values).
    pub fn name(self) -> &'static str {
        match self {
            DegradePolicy::Strict => "strict",
            DegradePolicy::Salvage => "salvage",
            DegradePolicy::Skip => "skip",
        }
    }
}

impl core::fmt::Display for DegradePolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for DegradePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<DegradePolicy, String> {
        match s {
            "strict" => Ok(DegradePolicy::Strict),
            "salvage" => Ok(DegradePolicy::Salvage),
            "skip" => Ok(DegradePolicy::Skip),
            other => Err(format!(
                "unknown degradation mode {other:?} (expected strict, salvage or skip)"
            )),
        }
    }
}

/// Batch-pipeline configuration.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Worker threads; `0` means one per available CPU.
    pub jobs: usize,
    /// Vantage assumed for every trace. [`Vantage::Unknown`] auto-detects
    /// per trace (§3.2), like the CLI's default single-trace mode.
    pub vantage: Vantage,
    /// How damaged captures are treated.
    pub degrade: DegradePolicy,
    /// Per-item wall-clock budget for the analysis step. `None` (the
    /// default) never expires; `Some(d)` gives each item a [`Deadline`]
    /// `d` after its load, which the analysis checks before each
    /// connection and each candidate replay. An overrun stops the
    /// analysis there and reports [`AnalysisError::Timeout`].
    pub timeout: Option<std::time::Duration>,
    /// Retries for *transient* I/O errors (interrupted, would-block,
    /// timed out) when loading a trace. Non-transient errors (not found,
    /// permission denied) never retry.
    pub io_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub retry_backoff: std::time::Duration,
    /// When set, one `tcpa-audit/v1` JSON event log is written here per
    /// processed trace (the directory is created if absent). Write
    /// failures are logged and counted, never fatal.
    pub audit_dir: Option<std::path::PathBuf>,
    /// When set, a status line is printed to stderr at this interval
    /// (and once at the end) while the corpus drains. Stdout is never
    /// touched.
    pub progress: Option<std::time::Duration>,
}

impl Default for CorpusConfig {
    fn default() -> CorpusConfig {
        CorpusConfig {
            jobs: 0,
            vantage: Vantage::Unknown,
            degrade: DegradePolicy::default(),
            timeout: None,
            io_retries: 2,
            retry_backoff: std::time::Duration::from_millis(20),
            audit_dir: None,
            progress: None,
        }
    }
}

impl CorpusConfig {
    /// The concrete worker count this config resolves to.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }
}

/// Why one corpus item produced no (full) analysis — the typed failure
/// taxonomy the census aggregates and the CLI renders per item.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The trace bytes could not be read at all (after retries).
    Io {
        /// Description including the path and OS error.
        detail: String,
    },
    /// The capture is malformed and salvage would recover nothing.
    Malformed {
        /// Description including the path and byte offset of the damage.
        detail: String,
    },
    /// The capture is damaged but salvageable; the policy
    /// ([`DegradePolicy::Strict`]/[`DegradePolicy::Skip`]) refused to
    /// degrade. The report says what a salvage run would recover.
    Salvaged {
        /// The ingest ledger a salvage read produced.
        report: IngestReport,
    },
    /// Analysis exceeded the configured per-item wall-clock budget.
    Timeout {
        /// The budget that was exceeded, in milliseconds.
        limit_ms: u64,
    },
    /// The analyzer panicked on this trace.
    Panicked {
        /// The panic payload message.
        message: String,
    },
}

impl core::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AnalysisError::Io { detail } => write!(f, "i/o error: {detail}"),
            AnalysisError::Malformed { detail } => write!(f, "malformed capture: {detail}"),
            AnalysisError::Salvaged { report } => write!(
                f,
                "damaged capture ({report}); rerun with --degrade=salvage to recover"
            ),
            AnalysisError::Timeout { limit_ms } => {
                write!(f, "analysis timed out after {limit_ms} ms")
            }
            AnalysisError::Panicked { message } => write!(f, "analyzer panic: {message}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl AnalysisError {
    /// Stable failure-class name used in metrics counters and audit
    /// outcomes (`failed.io`, `failed.malformed`, …).
    pub fn class(&self) -> &'static str {
        match self {
            AnalysisError::Io { .. } => "io",
            AnalysisError::Malformed { .. } | AnalysisError::Salvaged { .. } => "malformed",
            AnalysisError::Timeout { .. } => "timeout",
            AnalysisError::Panicked { .. } => "panic",
        }
    }
}

/// What happened to one corpus item; `T` is what the item's analysis
/// produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemOutcome<T = ItemSummary> {
    /// Analyzed successfully from an undamaged trace.
    Analyzed(T),
    /// The capture was damaged; the salvaged records were analyzed and
    /// the degradation is accounted in `report`.
    Salvaged {
        /// Conclusions from the recovered records.
        summary: T,
        /// The ingest ledger: bytes skipped, damage classes, offsets.
        report: IngestReport,
    },
    /// No analysis was produced.
    Failed(AnalysisError),
}

impl<T> ItemOutcome<T> {
    /// `true` when the item produced an analysis (possibly degraded).
    pub fn is_success(&self) -> bool {
        matches!(
            self,
            ItemOutcome::Analyzed(_) | ItemOutcome::Salvaged { .. }
        )
    }

    /// Stable outcome name used in metrics counters and audit trails:
    /// `analyzed`, `salvaged`, or `failed.<class>`.
    pub fn name(&self) -> String {
        match self {
            ItemOutcome::Analyzed(_) => "analyzed".into(),
            ItemOutcome::Salvaged { .. } => "salvaged".into(),
            ItemOutcome::Failed(e) => format!("failed.{}", e.class()),
        }
    }

    /// Bumps the corpus-level counters this outcome contributes to.
    /// Sums are order-independent, so the resulting metrics are
    /// deterministic whatever the worker count.
    fn count_into_metrics(&self) {
        tcpa_obs::add("corpus.items_total", 1);
        match self {
            ItemOutcome::Analyzed(_) => tcpa_obs::add("corpus.analyzed", 1),
            ItemOutcome::Salvaged { report, .. } => {
                tcpa_obs::add("corpus.salvaged", 1);
                tcpa_obs::add("corpus.salvage.bytes_skipped", report.bytes_skipped);
                tcpa_obs::add("corpus.salvage.damage_regions", report.damage.len() as u64);
            }
            ItemOutcome::Failed(e) => {
                tcpa_obs::add(
                    match e {
                        AnalysisError::Io { .. } => "corpus.failed.io",
                        AnalysisError::Malformed { .. } | AnalysisError::Salvaged { .. } => {
                            "corpus.failed.malformed"
                        }
                        AnalysisError::Timeout { .. } => "corpus.failed.timeout",
                        AnalysisError::Panicked { .. } => "corpus.failed.panic",
                    },
                    1,
                );
            }
        }
    }

    /// The progress-meter classification of this outcome.
    fn progress_class(&self) -> ItemClass {
        match self {
            ItemOutcome::Analyzed(_) => ItemClass::Analyzed,
            ItemOutcome::Salvaged { .. } => ItemClass::Salvaged,
            ItemOutcome::Failed(_) => ItemClass::Failed,
        }
    }
}

/// Per-item result, in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemReport<T = ItemSummary> {
    /// Position in the corpus (0-based input order).
    pub index: usize,
    /// The item's label (file path or synthetic name).
    pub id: String,
    /// What happened.
    pub outcome: ItemOutcome<T>,
}

/// The distilled per-trace conclusions kept by the census. The full
/// [`AnalysisReport`] (every candidate's replay) would be megabytes per
/// item at corpus scale; this is the part Table 1 needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemSummary {
    /// Packets in the trace.
    pub records: usize,
    /// Connections found after calibration.
    pub connections: usize,
    /// Per connection: the close best-fit implementation, if any.
    pub best_fits: Vec<Option<String>>,
    /// Measurement duplicates removed (§3.1.2).
    pub duplicates: usize,
    /// Timestamp decreases (§3.1.4).
    pub time_travel: usize,
    /// Filter resequencing evidence (§3.1.3).
    pub resequencing: usize,
    /// Packet-filter drop evidence (§3.1.1).
    pub drop_evidence: usize,
    /// Response-delay samples of each connection's best-fit candidate.
    pub response_delays: Vec<Duration>,
}

impl ItemSummary {
    /// `true` when calibration flagged any measurement error.
    pub fn has_calibration_errors(&self) -> bool {
        self.duplicates + self.time_travel + self.resequencing + self.drop_evidence > 0
    }
}

/// Distills a full report into the census-relevant summary.
fn distill(report: &AnalysisReport, records: usize) -> ItemSummary {
    let mut best_fits = Vec::with_capacity(report.connections.len());
    let mut response_delays = Vec::new();
    for conn in &report.connections {
        best_fits.push(conn.best_fit().map(str::to_owned));
        if let Some(top) = conn.fingerprint.first() {
            if top.fit == FitClass::Close {
                response_delays.extend_from_slice(top.analysis.response_delays.samples());
            }
        }
    }
    ItemSummary {
        records,
        connections: report.connections.len(),
        best_fits,
        duplicates: report.calibration.duplicates.len(),
        time_travel: report.calibration.time_travel.len(),
        resequencing: report.calibration.resequencing.len(),
        drop_evidence: report.calibration.drop_evidence.len(),
        response_delays,
    }
}

/// Aggregated, order-independent corpus conclusions.
#[derive(Debug, Clone)]
pub struct Census {
    /// Items fed in.
    pub items_total: usize,
    /// Items analyzed successfully from undamaged traces.
    pub analyzed: usize,
    /// Items analyzed from salvaged (damaged) captures.
    pub salvaged: usize,
    /// Items whose bytes could not be read (after retries).
    pub io_errors: usize,
    /// Items with malformed or policy-refused damaged captures.
    pub malformed: usize,
    /// Items whose analysis exceeded the wall-clock budget.
    pub timeouts: usize,
    /// Items that panicked the analyzer.
    pub panics: usize,
    /// Bytes skipped as damaged across all salvaged items.
    pub bytes_skipped: u64,
    /// Damaged regions across all salvaged items.
    pub damage_regions: usize,
    /// Connections across all successfully analyzed traces.
    pub connections: usize,
    /// Packets across all successfully analyzed traces.
    pub records: u64,
    /// Close best-fit counts per implementation name (Table 1's census).
    pub best_fit: BTreeMap<String, usize>,
    /// Connections with no close-fitting candidate.
    pub unidentified: usize,
    /// Measurement duplicates removed, summed.
    pub duplicates: usize,
    /// Time-travel instances, summed.
    pub time_travel: usize,
    /// Resequencing evidence, summed.
    pub resequencing: usize,
    /// Filter-drop evidence, summed.
    pub drop_evidence: usize,
    /// Traces with at least one calibration finding.
    pub traces_with_calibration_errors: usize,
    /// Best-fit response delays pooled across the corpus.
    pub response_delays: Summary,
}

impl Census {
    fn new() -> Census {
        Census {
            items_total: 0,
            analyzed: 0,
            salvaged: 0,
            io_errors: 0,
            malformed: 0,
            timeouts: 0,
            panics: 0,
            bytes_skipped: 0,
            damage_regions: 0,
            connections: 0,
            records: 0,
            best_fit: BTreeMap::new(),
            unidentified: 0,
            duplicates: 0,
            time_travel: 0,
            resequencing: 0,
            drop_evidence: 0,
            traces_with_calibration_errors: 0,
            response_delays: Summary::new(),
        }
    }

    fn absorb_summary(&mut self, s: &ItemSummary) {
        self.connections += s.connections;
        self.records += s.records as u64;
        for fit in &s.best_fits {
            match fit {
                Some(name) => *self.best_fit.entry(name.clone()).or_insert(0) += 1,
                None => self.unidentified += 1,
            }
        }
        self.duplicates += s.duplicates;
        self.time_travel += s.time_travel;
        self.resequencing += s.resequencing;
        self.drop_evidence += s.drop_evidence;
        if s.has_calibration_errors() {
            self.traces_with_calibration_errors += 1;
        }
        for &d in &s.response_delays {
            self.response_delays.add(d);
        }
    }

    fn absorb(&mut self, report: &ItemReport) {
        self.items_total += 1;
        match &report.outcome {
            ItemOutcome::Analyzed(s) => {
                self.analyzed += 1;
                self.absorb_summary(s);
            }
            ItemOutcome::Salvaged { summary, report } => {
                self.salvaged += 1;
                self.bytes_skipped += report.bytes_skipped;
                self.damage_regions += report.damage.len();
                self.absorb_summary(summary);
            }
            ItemOutcome::Failed(e) => match e {
                AnalysisError::Io { .. } => self.io_errors += 1,
                AnalysisError::Malformed { .. } | AnalysisError::Salvaged { .. } => {
                    self.malformed += 1
                }
                AnalysisError::Timeout { .. } => self.timeouts += 1,
                AnalysisError::Panicked { .. } => self.panics += 1,
            },
        }
    }

    /// Items that did not produce an analysis.
    pub fn failed(&self) -> usize {
        self.io_errors + self.malformed + self.timeouts + self.panics
    }
}

/// Everything a corpus run yields: ordered per-item reports + the census.
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// One entry per input item that was processed, ordered by input
    /// index regardless of which worker finished when. Under
    /// [`DegradePolicy::Strict`] an abort leaves later items unprocessed.
    pub items: Vec<ItemReport>,
    /// The merged census.
    pub census: Census,
    /// `true` when a strict-policy run aborted on a malformed capture
    /// before draining the source.
    pub aborted: bool,
}

impl CorpusReport {
    /// The lowest-index failed item, if any (under strict policy, the
    /// malformed capture that stopped the run).
    pub fn first_failure(&self) -> Option<&ItemReport> {
        first_failure(&self.items)
    }

    /// Renders the Table-1-style census plus a failure list. Deterministic:
    /// identical corpora yield byte-identical output whatever `jobs` was.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let c = &self.census;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== Corpus census: {} traces ({} analyzed, {} salvaged, {} failed) ==",
            c.items_total,
            c.analyzed,
            c.salvaged,
            c.failed()
        );
        if self.aborted {
            let _ = writeln!(out, "  RUN ABORTED (strict mode, malformed capture)");
        }
        let _ = writeln!(
            out,
            "  connections: {}   packets: {}",
            c.connections, c.records
        );
        let _ = writeln!(
            out,
            "  calibration: {} dup records removed, {} time travel, {} reseq, {} filter-drop evidence ({} traces affected)",
            c.duplicates, c.time_travel, c.resequencing, c.drop_evidence,
            c.traces_with_calibration_errors
        );
        if c.salvaged > 0 {
            let _ = writeln!(
                out,
                "  salvage: {} traces degraded, {} damaged regions, {} bytes skipped",
                c.salvaged, c.damage_regions, c.bytes_skipped
            );
        }
        if c.failed() > 0 {
            let _ = writeln!(
                out,
                "  failures: {} i/o, {} malformed, {} timeout, {} panic",
                c.io_errors, c.malformed, c.timeouts, c.panics
            );
        }
        let mut delays = c.response_delays.clone();
        if let (Some(p50), Some(p90), Some(max)) =
            (delays.median(), delays.percentile(90.0), delays.max())
        {
            let _ = writeln!(
                out,
                "  best-fit response delays: p50 {} p90 {} max {} ({} samples)",
                p50,
                p90,
                max,
                delays.count()
            );
        }
        let _ = writeln!(out, "  {:<26} best-fit connections", "implementation");
        let _ = writeln!(out, "  {}", "-".repeat(46));
        for (name, count) in &c.best_fit {
            let _ = writeln!(out, "  {name:<26} {count}");
        }
        if c.unidentified > 0 {
            let _ = writeln!(out, "  {:<26} {}", "(no close fit)", c.unidentified);
        }
        let failures: Vec<(&ItemReport, String)> = self
            .items
            .iter()
            .filter_map(|r| match &r.outcome {
                ItemOutcome::Failed(e) => Some((r, e.to_string())),
                _ => None,
            })
            .collect();
        if !failures.is_empty() {
            let _ = writeln!(out, "  failed items:");
            for (r, what) in failures {
                let _ = writeln!(out, "    [{:>4}] {}: {}", r.index, r.id, what);
            }
        }
        out
    }
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The lowest-index failed item of an ordered run, if any.
pub fn first_failure<T>(items: &[ItemReport<T>]) -> Option<&ItemReport<T>> {
    items.iter().find(|r| !r.outcome.is_success())
}

/// Loads one input under the policy's load mode, retrying transient I/O
/// errors with exponential backoff. A malformed capture under a
/// non-salvage policy is probed with a salvage read so the error can say
/// what degradation would have recovered.
fn load_item(config: &CorpusConfig, input: &TraceInput) -> Result<Loaded, AnalysisError> {
    let mode = match config.degrade {
        DegradePolicy::Salvage => LoadMode::Salvage,
        DegradePolicy::Strict | DegradePolicy::Skip => LoadMode::Strict,
    };
    let mut attempt = 0u32;
    loop {
        match input.load_mode(mode) {
            Ok(loaded) => return Ok(loaded),
            Err(e) if e.is_transient() && attempt < config.io_retries => {
                tcpa_obs::add("corpus.io_retries", 1);
                let detail = format!("attempt {}: {e}", attempt + 1);
                trace::instant("retry", &detail);
                audit::event(EventKind::Retry, "load", detail);
                thread::sleep(config.retry_backoff * 2u32.saturating_pow(attempt));
                attempt += 1;
            }
            Err(LoadError::Io { detail, .. }) => return Err(AnalysisError::Io { detail }),
            Err(LoadError::Malformed { detail }) => {
                // What would salvage have recovered? (Damaged files only,
                // so the extra read is off the common path.)
                let probe = input
                    .load_mode(LoadMode::Salvage)
                    .ok()
                    .and_then(|l| l.salvage);
                return Err(match probe {
                    Some(report) if report.records > 0 => AnalysisError::Salvaged { report },
                    _ => AnalysisError::Malformed { detail },
                });
            }
        }
    }
}

/// Loads and analyzes one item, converting every failure mode — panic,
/// I/O, malformed bytes, timeout — into a reported outcome. When
/// `config.audit_dir` is set, the item's whole trip is recorded into an
/// audit trail (returned sealed, for the worker to write out).
fn process_item<T>(
    config: &CorpusConfig,
    analyze: &(impl Fn(&str, &Loaded, Deadline) -> Result<T, Expired> + Sync),
    index: usize,
    id: &str,
    input: &TraceInput,
) -> (ItemOutcome<T>, Option<AuditTrail>) {
    if config.audit_dir.is_some() {
        audit::begin(id, index as u64);
    }
    trace::begin_item(id, index as u64);
    let outcome = {
        // The item's root span: every stage span and fault instant below
        // parents under it.
        let mut root = tcpa_obs::span("corpus.item");
        root.note(id);
        let outcome = load_and_analyze(config, analyze, id, input);
        if let ItemOutcome::Failed(e) = &outcome {
            trace::instant("degrade", &format!("{}: {e}", e.class()));
        }
        outcome
    };
    if let ItemOutcome::Failed(e) = &outcome {
        audit::event(EventKind::Error, e.class(), e.to_string());
    }
    let trail = audit::take(&outcome.name());
    trace::end_item();
    (outcome, trail)
}

fn load_and_analyze<T>(
    config: &CorpusConfig,
    analyze: &(impl Fn(&str, &Loaded, Deadline) -> Result<T, Expired> + Sync),
    id: &str,
    input: &TraceInput,
) -> ItemOutcome<T> {
    // Load (with retry). The load itself is panic-isolated: a poisoned
    // item must cost one item, not the worker.
    let loaded = match catch_unwind(AssertUnwindSafe(|| load_item(config, input))) {
        Ok(Ok(loaded)) => loaded,
        Ok(Err(e)) => return ItemOutcome::Failed(e),
        Err(payload) => {
            return ItemOutcome::Failed(AnalysisError::Panicked {
                message: panic_message(payload),
            })
        }
    };
    let damage = loaded.salvage.as_ref().filter(|r| !r.is_clean()).cloned();
    if let Some(report) = &damage {
        trace::instant("salvage", &report.to_string());
        audit::event(EventKind::Info, "ingest.salvage", report.to_string());
    }
    let deadline = Deadline::after(config.timeout);
    match catch_unwind(AssertUnwindSafe(|| analyze(id, &loaded, deadline))) {
        Ok(Ok(summary)) => match damage {
            Some(report) => ItemOutcome::Salvaged { summary, report },
            None => ItemOutcome::Analyzed(summary),
        },
        Ok(Err(Expired)) => {
            let limit_ms = config.timeout.map_or(0, |t| t.as_millis() as u64);
            trace::instant("timeout", &format!("limit {limit_ms} ms"));
            ItemOutcome::Failed(AnalysisError::Timeout { limit_ms })
        }
        Err(payload) => ItemOutcome::Failed(AnalysisError::Panicked {
            message: panic_message(payload),
        }),
    }
}

/// One line of verdict detail for the audit trail.
fn summarize(s: &ItemSummary) -> String {
    let fits: Vec<&str> = s
        .best_fits
        .iter()
        .map(|f| f.as_deref().unwrap_or("(no close fit)"))
        .collect();
    format!(
        "{} records, {} connections, best fits [{}], calibration findings {}",
        s.records,
        s.connections,
        fits.join(", "),
        s.duplicates + s.time_travel + s.resequencing + s.drop_evidence,
    )
}

struct Cursor<S> {
    source: S,
    next_index: usize,
}

/// What the workers share: the source they pull from, the strict-mode
/// abort flag, and the count of workers that have claimed an item.
struct Shared<S> {
    cursor: Mutex<Cursor<S>>,
    abort: AtomicBool,
    lanes: AtomicUsize,
}

impl<S: TraceSource> Shared<S> {
    /// Claims the next item with its input-order index, unless the source
    /// is drained or the run aborted.
    fn claim(&self) -> Option<(usize, CorpusItem)> {
        if self.abort.load(Ordering::Relaxed) {
            return None;
        }
        // A worker panicking while pulling would poison the lock; recover
        // the guard rather than cascade.
        let mut cur = match self.cursor.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let item = cur.source.next_item()?;
        let index = cur.next_index;
        cur.next_index += 1;
        Some((index, item))
    }
}

/// One worker's loop: claim, process, record, hand the report to `done`
/// until the source drains, the run aborts, or `done` returns `false`.
fn work<S: TraceSource, T>(
    shared: &Shared<S>,
    config: &CorpusConfig,
    analyze: &(impl Fn(&str, &Loaded, Deadline) -> Result<T, Expired> + Sync),
    done: &mut dyn FnMut(ItemReport<T>) -> bool,
) {
    let mut named = false;
    while let Some((index, CorpusItem { id, input })) = shared.claim() {
        // Lanes are numbered in the order workers first claim an item, so
        // `worker-0` carries the first item whichever thread started first.
        if !named {
            let lane = shared.lanes.fetch_add(1, Ordering::Relaxed);
            trace::set_lane(&format!("worker-{lane}"));
            named = true;
        }
        let (outcome, trail) = process_item(config, analyze, index, &id, &input);
        outcome.count_into_metrics();
        if let (Some(trail), Some(dir)) = (trail, config.audit_dir.as_deref()) {
            if let Err(e) = trail.write_to(dir) {
                tcpa_obs::add("corpus.audit.write_errors", 1);
                tcpa_obs::log::warn(&format!(
                    "audit trail for {} not written: {e}",
                    trail.trace_id
                ));
            }
        }
        if config.degrade == DegradePolicy::Strict {
            if let ItemOutcome::Failed(
                AnalysisError::Malformed { .. } | AnalysisError::Salvaged { .. },
            ) = &outcome
            {
                shared.abort.store(true, Ordering::Relaxed);
            }
        }
        if !done(ItemReport { index, id, outcome }) {
            break;
        }
    }
}

/// Runs every item of `source` through the per-item step on
/// `config.effective_jobs()` workers and returns the reports in input
/// order, with `true` when a strict-policy abort stopped the run early.
///
/// `analyze` turns one loaded trace (with its item id) into a `T`; it
/// should check the [`Deadline`] it is given between units of work.
/// Workers pull items from the source behind a mutex (pulling is cheap;
/// loading and analysis happen outside the lock) and send reports down a
/// channel; the caller's thread collects them and restores input order,
/// so the result is the same for any worker count. One job runs on the
/// calling thread, with no thread spawned. Under
/// [`DegradePolicy::Strict`] the first malformed capture raises an abort
/// flag and workers stop pulling.
pub fn run_items<S, T, F>(
    source: S,
    config: &CorpusConfig,
    analyze: F,
) -> (Vec<ItemReport<T>>, bool)
where
    S: TraceSource,
    T: Send,
    F: Fn(&str, &Loaded, Deadline) -> Result<T, Expired> + Sync,
{
    let jobs = config.effective_jobs().max(1);
    let progress = config
        .progress
        .map(|interval| Progress::start(source.len_hint(), interval));
    let shared = Shared {
        cursor: Mutex::new(Cursor {
            source,
            next_index: 0,
        }),
        abort: AtomicBool::new(false),
        lanes: AtomicUsize::new(0),
    };
    let mut items = Vec::new();
    let mut collect = |report: ItemReport<T>| {
        if let Some(meter) = &progress {
            meter.observe(report.outcome.progress_class());
        }
        items.push(report);
        true
    };
    if jobs == 1 {
        work(&shared, config, &analyze, &mut collect);
    } else {
        let (tx, rx) = mpsc::channel::<ItemReport<T>>();
        thread::scope(|scope| {
            for _ in 0..jobs {
                let tx = tx.clone();
                let (shared, analyze) = (&shared, &analyze);
                scope.spawn(move || {
                    work(shared, config, analyze, &mut |report| {
                        tx.send(report).is_ok()
                    });
                });
            }
            drop(tx);
            // Collect on this thread while workers run; order restored
            // below.
            for report in rx {
                collect(report);
            }
        });
    }
    if let Some(meter) = progress {
        meter.finish();
    }
    items.sort_unstable_by_key(|r| r.index);
    (items, shared.abort.load(Ordering::Relaxed))
}

/// Runs the corpus through `config.effective_jobs()` workers and merges
/// the results deterministically into a census.
///
/// Each item is analyzed by [`Analyzer::analyze_within`] from
/// `config.vantage` and distilled into an [`ItemSummary`]; see
/// [`run_items`] for the per-item guarantees. The returned
/// [`CorpusReport`] — and its rendering — is byte-identical to a
/// `jobs = 1` run. A strict-policy abort marks it
/// [`CorpusReport::aborted`].
pub fn analyze_corpus<S: TraceSource>(source: S, config: &CorpusConfig) -> CorpusReport {
    let analyzer = Analyzer::from(config.vantage);
    let (items, aborted) = run_items(source, config, |_, loaded, deadline| {
        let analysis = analyzer.analyze_within(&loaded.trace, deadline)?;
        let summary = distill(&analysis.report, loaded.trace.len());
        audit::event(EventKind::Verdict, "summary", summarize(&summary));
        Ok(summary)
    });
    let mut census = Census::new();
    for report in &items {
        census.absorb(report);
    }
    CorpusReport {
        items,
        census,
        aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpa_trace::source::MemorySource;
    use tcpa_trace::Trace;

    #[test]
    fn empty_corpus_renders() {
        let report = analyze_corpus(MemorySource::default(), &CorpusConfig::default());
        assert_eq!(report.census.items_total, 0);
        assert!(!report.aborted);
        assert!(report.render().contains("0 traces"));
    }

    #[test]
    fn effective_jobs_defaults_to_parallelism() {
        assert!(CorpusConfig::default().effective_jobs() >= 1);
        let one = CorpusConfig {
            jobs: 1,
            ..CorpusConfig::default()
        };
        assert_eq!(one.effective_jobs(), 1);
    }

    #[test]
    fn load_error_is_isolated_and_typed() {
        let source = MemorySource::new(vec![tcpa_trace::CorpusItem::pcap(
            "/nonexistent/never.pcap",
        )]);
        let report = analyze_corpus(source, &CorpusConfig::default());
        assert_eq!(report.census.io_errors, 1);
        assert!(matches!(
            report.items[0].outcome,
            ItemOutcome::Failed(AnalysisError::Io { .. })
        ));
        assert!(report.render().contains("i/o error"));
        assert!(
            report.render().contains("never.pcap"),
            "failure line must name the originating path"
        );
    }

    #[test]
    fn transient_io_errors_retry_and_count() {
        let before = tcpa_obs::registry::global().snapshot();
        let source = MemorySource::new(vec![tcpa_trace::CorpusItem::flaky(
            "flaky.pcap",
            Trace::new(),
            2,
        )]);
        let config = CorpusConfig {
            jobs: 1,
            retry_backoff: std::time::Duration::from_millis(1),
            ..CorpusConfig::default()
        };
        let report = analyze_corpus(source, &config);
        assert_eq!(report.census.analyzed, 1, "{}", report.render());
        let after = tcpa_obs::registry::global().snapshot().since(&before);
        assert!(
            after
                .counters
                .get("corpus.io_retries")
                .copied()
                .unwrap_or(0)
                >= 2,
            "both injected failures must be counted as retries"
        );
    }

    #[test]
    fn audit_trail_records_retries_and_outcome() {
        let dir = std::env::temp_dir().join(format!("tcpa-audit-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let source = MemorySource::new(vec![
            tcpa_trace::CorpusItem::flaky("flaky.pcap", Trace::new(), 1),
            tcpa_trace::CorpusItem::pcap("/nonexistent/never.pcap"),
        ]);
        let config = CorpusConfig {
            jobs: 1,
            retry_backoff: std::time::Duration::from_millis(1),
            audit_dir: Some(dir.clone()),
            ..CorpusConfig::default()
        };
        let report = analyze_corpus(source, &config);
        assert_eq!(report.census.items_total, 2);

        let flaky = std::fs::read_to_string(dir.join("00000-flaky.pcap.json")).expect("trail 0");
        tcpa_obs::metrics::validate_audit(&flaky).expect("schema-valid trail");
        assert!(flaky.contains("\"kind\": \"retry\""), "{flaky}");
        assert!(flaky.contains("\"outcome\": \"analyzed\""), "{flaky}");
        assert!(flaky.contains("\"kind\": \"verdict\""), "{flaky}");

        let failed =
            std::fs::read_to_string(dir.join("00001-_nonexistent_never.pcap.json")).expect("t1");
        tcpa_obs::metrics::validate_audit(&failed).expect("schema-valid trail");
        assert!(failed.contains("\"outcome\": \"failed.io\""), "{failed}");
        assert!(failed.contains("\"kind\": \"error\""), "{failed}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_deadline_times_out_every_item_at_any_jobs() {
        let items: Vec<CorpusItem> = (0..6u64)
            .map(|i| {
                let out = tcpa_tcpsim::run_transfer(
                    tcpa_tcpsim::profiles::reno(),
                    tcpa_tcpsim::profiles::reno(),
                    &tcpa_tcpsim::PathSpec::default(),
                    8 * 1024,
                    40 + i,
                );
                CorpusItem::memory(format!("t{i}"), out.sender_trace())
            })
            .collect();
        let run = |jobs| {
            let config = CorpusConfig {
                jobs,
                timeout: Some(std::time::Duration::ZERO),
                ..CorpusConfig::default()
            };
            analyze_corpus(MemorySource::new(items.clone()), &config)
        };
        let one = run(1);
        assert_eq!(one.census.timeouts, items.len(), "{}", one.render());
        for item in &one.items {
            assert_eq!(
                item.outcome,
                ItemOutcome::Failed(AnalysisError::Timeout { limit_ms: 0 })
            );
        }
        assert_eq!(one.render(), run(4).render());
    }

    #[test]
    fn degrade_policy_parses_and_prints() {
        for policy in [
            DegradePolicy::Strict,
            DegradePolicy::Salvage,
            DegradePolicy::Skip,
        ] {
            assert_eq!(policy.name().parse::<DegradePolicy>(), Ok(policy));
        }
        assert!("lenient".parse::<DegradePolicy>().is_err());
        assert_eq!(DegradePolicy::default(), DegradePolicy::Skip);
    }
}
