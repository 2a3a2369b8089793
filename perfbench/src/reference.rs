//! What the program's output must be, computed in-process, and the
//! ground-truth scores computed from the generator's labels.

use std::io::Cursor;
use std::path::Path;

use tcpa_trace::pcap_io::{read_pcap, read_pcap_salvage_bytes};
use tcpa_trace::MemorySource;
use tcpanaly::calibrate::Vantage;
use tcpanaly::corpus::{analyze_corpus, CorpusConfig, CorpusReport, DegradePolicy};
use tcpanaly::fingerprint::FitClass;
use tcpanaly::{AnalysisReport, Analyzer};

use crate::workload::{Corpus, Input, Workload};

/// Worker threads of every batch run: the 2-core host's `nproc`.
pub const JOBS: usize = 2;

/// The arguments of one `tcpanaly` invocation. `target` is the corpus
/// directory for batch workloads and one capture for `single_file`.
/// `receiver_salvage` writes its metrics, and with `audit` its audit
/// trails, under `out`.
pub fn cli_args(
    workload: Workload,
    jobs: usize,
    target: &Path,
    out: &Path,
    audit: bool,
) -> Vec<String> {
    let mut args: Vec<String> = Vec::new();
    if workload.is_batch() {
        args.extend(["--jobs".into(), jobs.to_string()]);
    }
    if workload.at_receiver() {
        args.extend(["--receiver", "--degrade", "salvage"].map(String::from));
        if audit {
            args.extend([
                "--audit-dir".into(),
                out.join("audit").display().to_string(),
            ]);
        }
        args.extend([
            "--metrics-out".into(),
            out.join("metrics.json").display().to_string(),
        ]);
    }
    args.push(target.display().to_string());
    args
}

/// The pipeline configuration the CLI builds for the workload's timed
/// batch command.
pub fn corpus_config(workload: Workload) -> CorpusConfig {
    CorpusConfig {
        jobs: JOBS,
        vantage: if workload.at_receiver() {
            Vantage::Receiver
        } else {
            Vantage::Unknown
        },
        degrade: if workload.at_receiver() {
            DegradePolicy::Salvage
        } else {
            DegradePolicy::Skip
        },
        ..CorpusConfig::default()
    }
}

/// The batch census computed in-process over the same files.
pub fn census(workload: Workload, corpus: &Corpus) -> CorpusReport {
    analyze_corpus(
        MemorySource::from_pcap_files(corpus.paths()),
        &corpus_config(workload),
    )
}

/// One input analyzed in-process the way the CLI analyzes it.
pub struct FileReport {
    /// TCP records ingested.
    pub records: usize,
    /// What `tcpanaly FILE` prints for this input (with `--receiver
    /// --degrade salvage` on a receiver workload).
    pub single_file_stdout: String,
    /// The analysis.
    pub report: AnalysisReport,
}

/// Analyzes one input in-process.
pub fn file_report(workload: Workload, input: &Input) -> Result<FileReport, String> {
    let bytes = std::fs::read(&input.path).map_err(|e| format!("{}: {e}", input.path.display()))?;
    let path = input.path.display();
    let (trace, header) = if workload.at_receiver() {
        let (trace, report) = read_pcap_salvage_bytes(&bytes);
        (trace, format!("== {path}: {report}\n"))
    } else {
        let (trace, skipped) = read_pcap(Cursor::new(bytes.as_slice()))
            .map_err(|e| format!("{path}: strict read: {e}"))?;
        let header = format!(
            "== {path}: {} records ({skipped} non-TCP skipped)\n",
            trace.len()
        );
        (trace, header)
    };
    let analyzer = if workload.at_receiver() {
        Analyzer::at_receiver()
    } else {
        Analyzer::auto(&trace)
    };
    let report = analyzer.analyze(&trace);
    let vantage_line = if workload.at_receiver() {
        String::new()
    } else {
        format!(
            "vantage: auto-detected {:?} (override with --sender/--receiver)\n",
            analyzer.vantage()
        )
    };
    let single_file_stdout = format!("{header}{vantage_line}{}", report.render());
    Ok(FileReport {
        records: trace.len(),
        single_file_stdout,
        report,
    })
}

/// `true` when the generating profile is in the analysis's candidate set
/// for any connection: the close fits from a sender vantage, the
/// consistent receiver-side candidates from a receiver vantage.
pub fn truth_in_set(workload: Workload, input: &Input, report: &AnalysisReport) -> bool {
    report.connections.iter().any(|conn| {
        if workload.at_receiver() {
            conn.receiver_fingerprint
                .iter()
                .any(|fit| fit.consistent && fit.name == input.case.profile)
        } else {
            conn.fingerprint
                .iter()
                .any(|fit| fit.fit == FitClass::Close && fit.name == input.case.profile)
        }
    })
}

/// Records ingested ÷ records in the clean originals, over the damaged
/// captures when the workload has any and over every capture otherwise.
/// `ingested` is the program's total over the whole corpus.
pub fn recovered_share(corpus: &Corpus, ingested: u64) -> f64 {
    let (damaged, clean): (Vec<&Input>, Vec<&Input>) =
        corpus.inputs.iter().partition(|i| i.case.fault.is_some());
    let records = |set: &[&Input]| set.iter().map(|i| i.clean_records as u64).sum::<u64>();
    if damaged.is_empty() {
        ingested as f64 / records(&clean).max(1) as f64
    } else {
        ingested.saturating_sub(records(&clean)) as f64 / records(&damaged).max(1) as f64
    }
}

/// The batch census header's item accounting and packet total:
/// `(traces, analyzed, salvaged, failed, packets)`.
pub fn census_counts(stdout: &str) -> Option<(u64, u64, u64, u64, u64)> {
    let mut lines = stdout.lines();
    let head = lines.next()?.strip_prefix("== Corpus census: ")?;
    let (traces, rest) = head.split_once(" traces (")?;
    let nums: Vec<u64> = rest
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect();
    let packets = lines
        .find_map(|l| l.trim().strip_prefix("connections: "))?
        .split_once("packets: ")?
        .1
        .trim()
        .parse()
        .ok()?;
    match nums.as_slice() {
        [analyzed, salvaged, failed] => {
            Some((traces.parse().ok()?, *analyzed, *salvaged, *failed, packets))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_census_header() {
        let out = "== Corpus census: 198 traces (150 analyzed, 40 salvaged, 8 failed) ==\n  connections: 193   packets: 12345\n";
        assert_eq!(census_counts(out), Some((198, 150, 40, 8, 12345)));
        assert_eq!(census_counts("nonsense"), None);
    }
}
