//! The traced pass: the analysis pipeline driven stage by stage from
//! outside, with a span around each call into a layer.
//!
//! For each input this does what the program does for it, through the
//! same public functions and in the same order: read the file, decode it
//! (strict or salvage), infer the vantage when the workload leaves it to
//! the program, calibrate, split, and per connection fingerprint (one
//! `sender.replay` span per candidate), receiver analysis, receiver-side
//! fingerprint, handshake and stats; `single_file` also renders the
//! report. The assembled report must render exactly as
//! `Analyzer::analyze` renders it, which the check sweep asserts.
//!
//! Each input is also analyzed once through `Analyzer::analyze`, in its
//! own `report.analyze` span. That call runs the same stages plus the
//! program's own stage accounting, so the difference between the two is
//! the cost of that accounting.

use std::io::Cursor;
use std::path::Path;

use tcpa_tcpsim::profiles::all_profiles;
use tcpa_trace::pcap_io::{read_pcap, read_pcap_salvage_bytes};
use tcpa_trace::{ConnStats, Connection, Trace};
use tcpanaly::calibrate::Vantage;
use tcpanaly::fingerprint::{classify, fingerprint_receiver, FingerprintResult, FitClass};
use tcpanaly::handshake::analyze_handshake;
use tcpanaly::receiver::analyze_receiver;
use tcpanaly::report::{AnalysisReport, ConnectionReport};
use tcpanaly::sender::analyze_sender;
use tcpanaly::{Analyzer, Calibrator};

use crate::spans::Recorder;
use crate::workload::Workload;

/// Work counted during one sweep over the corpus. Counts are exact and
/// repeat from sweep to sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Inputs processed.
    pub traces: u64,
    /// Capture bytes decoded by the strict reader.
    pub strict_bytes: u64,
    /// TCP records the strict reader produced.
    pub strict_records: u64,
    /// Capture bytes decoded by the salvage reader.
    pub salvage_bytes: u64,
    /// Damaged regions the salvage reader skipped.
    pub salvage_regions: u64,
    /// Bytes inside those regions.
    pub salvage_bytes_skipped: u64,
    /// Vantage inferences run.
    pub vantage_calls: u64,
    /// Of those, traces judged sender-side.
    pub vantage_sender: u64,
    /// Calibration findings (duplicates, time travel, resequencing, drops).
    pub calibrate_findings: u64,
    /// Connections after the split.
    pub connections: u64,
    /// Connections that were fingerprinted.
    pub fingerprinted: u64,
    /// Candidate replays (`analyze_sender` calls that returned a result).
    pub candidates: u64,
    /// Candidates that needed the second, sender-window replay.
    pub second_passes: u64,
    /// Candidates judged clearly incorrect.
    pub clearly_incorrect: u64,
    /// Close fits, summed over fingerprinted connections.
    pub close_fits: u64,
}

impl Counts {
    /// Replay passes: one per candidate plus the second passes.
    pub fn replay_calls(&self) -> u64 {
        self.candidates + self.second_passes
    }
}

/// What one input's pipeline produced, for the check sweep.
pub struct Traced {
    /// The report assembled from the staged calls.
    pub staged: AnalysisReport,
    /// The report `Analyzer::analyze` produced for the same trace.
    pub analyzed: AnalysisReport,
}

/// The workload's ingest path, as the CLI runs it.
fn ingest(
    rec: &mut Recorder,
    workload: Workload,
    bytes: &[u8],
    counts: &mut Counts,
) -> Result<Trace, String> {
    if workload.at_receiver() {
        let (trace, report) = rec.span("pcap_io.read_salvage", |_| read_pcap_salvage_bytes(bytes));
        counts.salvage_bytes += bytes.len() as u64;
        counts.salvage_regions += report.damage.len() as u64;
        counts.salvage_bytes_skipped += report.bytes_skipped;
        Ok(trace)
    } else {
        let (trace, _skipped) = rec
            .span("pcap_io.read_strict", |_| read_pcap(Cursor::new(bytes)))
            .map_err(|e| format!("strict read: {e}"))?;
        counts.strict_bytes += bytes.len() as u64;
        counts.strict_records += trace.len() as u64;
        Ok(trace)
    }
}

/// `fingerprint(conn)`, one candidate per span.
fn fingerprint_staged(
    rec: &mut Recorder,
    conn: &Connection,
    counts: &mut Counts,
) -> Vec<FingerprintResult> {
    let mut results = Vec::new();
    for cfg in all_profiles() {
        let Some(analysis) = rec.span("sender.replay", |_| analyze_sender(conn, &cfg)) else {
            continue;
        };
        counts.candidates += 1;
        counts.second_passes += u64::from(analysis.inferred_sender_window.is_some());
        let fit = classify(&analysis);
        counts.clearly_incorrect += u64::from(fit == FitClass::ClearlyIncorrect);
        counts.close_fits += u64::from(fit == FitClass::Close);
        results.push(FingerprintResult {
            name: cfg.name,
            fit,
            analysis,
        });
    }
    // The ranking `tcpanaly::fingerprint::fingerprint` applies.
    results.sort_by(|a, b| {
        a.fit.cmp(&b.fit).then_with(|| match a.fit {
            FitClass::ClearlyIncorrect => a.analysis.hard_issues().cmp(&b.analysis.hard_issues()),
            _ => {
                let zero = tcpa_trace::Duration::ZERO;
                let ma = a.analysis.response_delays.mean().unwrap_or(zero);
                let mb = b.analysis.response_delays.mean().unwrap_or(zero);
                ma.cmp(&mb)
            }
        })
    });
    results
}

/// `Analyzer::analyze`, one span per stage.
fn analyze_staged(
    rec: &mut Recorder,
    vantage: Vantage,
    trace: &Trace,
    counts: &mut Counts,
) -> AnalysisReport {
    let calibrator = Calibrator { vantage };
    let (clean, calibration) = rec.span("calibrate", |_| calibrator.calibrate(trace));
    counts.calibrate_findings += (calibration.duplicates.len()
        + calibration.time_travel.len()
        + calibration.resequencing.len()
        + calibration.drop_evidence.len()) as u64;
    let conns = rec.span("split", |_| Connection::split(&clean));
    counts.connections += conns.len() as u64;
    let mut connections = Vec::with_capacity(conns.len());
    for conn in &conns {
        let fingerprint = rec.span("fingerprint", |rec| match vantage {
            Vantage::Receiver => Vec::new(),
            _ => {
                counts.fingerprinted += 1;
                fingerprint_staged(rec, conn, counts)
            }
        });
        let receiver = rec.span("receiver", |_| match vantage {
            Vantage::Sender => None,
            _ => analyze_receiver(conn),
        });
        let receiver_fingerprint = rec.span("receiver_fp", |_| match vantage {
            Vantage::Receiver => fingerprint_receiver(conn),
            _ => Vec::new(),
        });
        let handshake = rec.span("handshake", |_| analyze_handshake(conn));
        let stats = rec.span("stats", |_| ConnStats::of(conn));
        connections.push(ConnectionReport {
            description: format!("{} -> {}", conn.sender, conn.receiver),
            fingerprint,
            receiver,
            receiver_fingerprint,
            handshake,
            stats,
        });
    }
    AnalysisReport {
        connections,
        calibration,
    }
}

/// Runs one input through the staged pipeline (span `item`) and through
/// `Analyzer::analyze` (span `report.analyze`, inside `item` but not part
/// of the pipeline). The two analyses swap order on alternate inputs, so
/// neither always finds the caches the other warmed.
pub fn run_one(
    rec: &mut Recorder,
    workload: Workload,
    index: u32,
    path: &Path,
    counts: &mut Counts,
) -> Result<Traced, String> {
    rec.set_trace(index);
    counts.traces += 1;
    rec.span("item", |rec| {
        let bytes = rec
            .span("pcap_io.file_read", |_| std::fs::read(path))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let trace = ingest(rec, workload, &bytes, counts)?;
        let analyzer = if workload.at_receiver() {
            Analyzer::at_receiver()
        } else {
            let analyzer = rec.span("vantage", |_| Analyzer::auto(&trace));
            counts.vantage_calls += 1;
            counts.vantage_sender += u64::from(analyzer.vantage() == Vantage::Sender);
            analyzer
        };
        let analyze_first = index % 2 == 1;
        let mut analyzed = None;
        if analyze_first {
            analyzed = Some(rec.span("report.analyze", |_| analyzer.analyze(&trace)));
        }
        let staged = analyze_staged(rec, analyzer.vantage(), &trace, counts);
        if workload == Workload::SingleFile {
            std::hint::black_box(rec.span("report.render", |_| staged.render()));
        }
        let analyzed = match analyzed {
            Some(report) => report,
            None => rec.span("report.analyze", |_| analyzer.analyze(&trace)),
        };
        Ok(Traced { staged, analyzed })
    })
}
