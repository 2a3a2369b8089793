//! The one-call analyzer façade and its aggregate report.

use crate::calibrate::{CalibrationReport, SplitTrace, Vantage};
use crate::fingerprint::{
    fingerprint_within, rank_receiver, FingerprintResult, FitClass, ReceiverFit,
};
use crate::handshake::{analyze_handshake, HandshakeAnalysis};
use crate::receiver::{analyze_receiver, AckClass, ReceiverAnalysis};
use tcpa_obs::{Deadline, Expired};
use tcpa_trace::{Connection, Trace};

/// Everything tcpanaly concludes about one trace.
#[derive(Debug, Default)]
pub struct AnalysisReport {
    /// Per-connection results, in first-seen order.
    pub connections: Vec<ConnectionReport>,
    /// Trace-level calibration findings (§3).
    pub calibration: CalibrationReport,
}

/// Results for a single connection.
#[derive(Debug)]
pub struct ConnectionReport {
    /// The connection's endpoints, rendered.
    pub description: String,
    /// Candidate implementations ranked by fit (§5, §6.1); empty if the
    /// connection carried no analyzable bulk data.
    pub fingerprint: Vec<FingerprintResult>,
    /// Receiver-side analysis (§7, §9), when data flowed.
    pub receiver: Option<ReceiverAnalysis>,
    /// Receiver-side implementation candidates, consistent first (only
    /// from a receiver vantage).
    pub receiver_fingerprint: Vec<ReceiverFit>,
    /// Connection-establishment (SYN retry) analysis.
    pub handshake: Option<HandshakeAnalysis>,
    /// Trace-derived accounting (packet/byte/retransmission counts).
    pub stats: Option<tcpa_trace::ConnStats>,
}

impl ConnectionReport {
    /// The best-fitting implementation name, if any candidate was close.
    pub fn best_fit(&self) -> Option<&'static str> {
        self.fingerprint
            .first()
            .filter(|r| r.fit == FitClass::Close)
            .map(|r| r.name)
    }
}

/// A trace taken through the pipeline: the vantage it was analyzed
/// from, the connections the analysis read, and what it concluded.
#[derive(Debug)]
pub struct Analysis {
    /// The vantage the analysis assumed (inferred when it was unknown).
    pub vantage: Vantage,
    /// The de-duplicated connections, parallel to `report.connections`.
    pub connections: Vec<Connection>,
    /// The conclusions.
    pub report: AnalysisReport,
}

/// The analyzer façade: calibrate, split, fingerprint, analyze.
#[derive(Debug, Default, Clone, Copy)]
pub struct Analyzer {
    vantage: Vantage,
}

impl From<Vantage> for Analyzer {
    fn from(vantage: Vantage) -> Analyzer {
        Analyzer { vantage }
    }
}

impl Analyzer {
    /// An analyzer with an unknown vantage point.
    pub fn new() -> Analyzer {
        Analyzer::default()
    }

    /// Declares the trace captured at the data sender.
    pub fn at_sender() -> Analyzer {
        Analyzer {
            vantage: Vantage::Sender,
        }
    }

    /// Declares the trace captured at the receiver.
    pub fn at_receiver() -> Analyzer {
        Analyzer {
            vantage: Vantage::Receiver,
        }
    }

    /// Infers the vantage point from the trace itself (§3.2): whichever
    /// endpoint answers its stimuli within sub-milliseconds is the one
    /// the filter sat beside. Falls back to unknown when ambiguous.
    pub fn auto(trace: &Trace) -> Analyzer {
        SplitTrace::of(trace).infer_vantage().into()
    }

    /// The vantage this analyzer assumes.
    pub fn vantage(&self) -> Vantage {
        self.vantage
    }

    /// Runs the full pipeline on a trace, from the vantage this analyzer
    /// assumes (an unknown one runs only vantage-neutral checks).
    ///
    /// Every stage records a wall-clock span into the global
    /// [`tcpa_obs`] registry (and into the per-trace audit trail when
    /// one is active): `stage.split`, `stage.calibrate`, then per
    /// connection `stage.fingerprint`, `stage.receiver`,
    /// `stage.receiver_fingerprint`, `stage.handshake`, `stage.stats`,
    /// all under the umbrella `analyze.total`.
    pub fn analyze(&self, trace: &Trace) -> AnalysisReport {
        // Without a deadline the pipeline cannot expire.
        self.run(trace, false, Deadline::NONE)
            .map(|analysis| analysis.report)
            .unwrap_or_default()
    }

    /// The pipeline as `tcpanaly` runs it, in both modes. Unlike
    /// [`Analyzer::analyze`], an unknown vantage is inferred first, as
    /// [`Analyzer::auto`] does, but from the same de-duplicated
    /// connections the analysis then reads: each trace is split and
    /// calibrated once. `deadline` is checked before each connection and
    /// each candidate replay.
    pub fn analyze_within(&self, trace: &Trace, deadline: Deadline) -> Result<Analysis, Expired> {
        self.run(trace, true, deadline)
    }

    fn run(&self, trace: &Trace, infer: bool, deadline: Deadline) -> Result<Analysis, Expired> {
        let _total = tcpa_obs::span("analyze.total");
        let split = tcpa_obs::time("stage.split", || SplitTrace::of(trace));
        let (analyzer, calibration) = tcpa_obs::time("stage.calibrate", || {
            let vantage = match self.vantage {
                Vantage::Unknown if infer => split.infer_vantage(),
                known => known,
            };
            (Analyzer { vantage }, split.calibrate(vantage))
        });
        let mut connections = Vec::with_capacity(split.connections.len());
        for conn in &split.connections {
            deadline.check()?;
            connections.push(analyzer.analyze_connection(conn, deadline)?);
        }
        Ok(Analysis {
            vantage: analyzer.vantage,
            connections: split.connections,
            report: AnalysisReport {
                connections,
                calibration,
            },
        })
    }

    fn analyze_connection(
        &self,
        conn: &Connection,
        deadline: Deadline,
    ) -> Result<ConnectionReport, Expired> {
        // The connection key rides on every per-connection span so the
        // exported trace can answer "which connection was this?".
        let key = format!("{} -> {}", conn.sender, conn.receiver);
        let fingerprint = tcpa_obs::time_noted("stage.fingerprint", &key, || match self.vantage {
            // Sender behavior can only be judged from a vantage at or
            // near the sender (§6.1); from elsewhere, network delay
            // between filter and sender poisons the response delays.
            Vantage::Receiver => Ok(Vec::new()),
            _ => fingerprint_within(conn, deadline),
        })?;
        let receiver = tcpa_obs::time_noted("stage.receiver", &key, || match self.vantage {
            Vantage::Sender => None,
            _ => analyze_receiver(conn),
        });
        // Ranked from the analysis just made, not by analyzing again.
        let receiver_fingerprint = tcpa_obs::time_noted("stage.receiver_fingerprint", &key, || {
            match (self.vantage, &receiver) {
                (Vantage::Receiver, Some(analysis)) => rank_receiver(analysis),
                _ => Vec::new(),
            }
        });
        Ok(ConnectionReport {
            fingerprint,
            receiver,
            receiver_fingerprint,
            handshake: tcpa_obs::time_noted("stage.handshake", &key, || analyze_handshake(conn)),
            stats: tcpa_obs::time_noted("stage.stats", &key, || tcpa_trace::ConnStats::of(conn)),
            description: key,
        })
    }
}

/// The census writer's single stdout choke point. Everything tcpanaly
/// prints to stdout — census tables, reports, usage — goes through this
/// one call, so the byte-stability contract has exactly one site to
/// audit and the `no-raw-eprintln` lint exactly one call to whitelist.
/// Diagnostics do NOT belong here; route them through the `tcpa_obs`
/// logger, which owns stderr.
pub fn emit_stdout(text: &str) {
    // tcpa-lint: allow(no-raw-eprintln) -- the one sanctioned stdout write: every census/report byte funnels through here
    print!("{text}");
}

impl AnalysisReport {
    /// Renders a human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let c = &self.calibration;
        out.push_str("== Calibration (§3) ==\n");
        out.push_str(&format!(
            "  measurement duplicates removed: {}\n  time travel instances: {}\n  resequencing evidence: {}\n  filter-drop evidence: {}\n",
            c.duplicates.len(),
            c.time_travel.len(),
            c.resequencing.len(),
            c.drop_evidence.len()
        ));
        if c.ordering_untrustworthy() {
            out.push_str("  !! event ordering untrustworthy; cause-and-effect suspect\n");
        }
        for conn in &self.connections {
            out.push_str(&format!("\n== Connection {} ==\n", conn.description));
            if let Some(st) = &conn.stats {
                out.push_str(&format!(
                    "  {} data pkts ({} retransmitted, {:.0}%), {} unique bytes in {}, goodput {:.1} KB/s\n",
                    st.data_packets,
                    st.retransmitted_packets,
                    100.0 * st.retransmission_ratio(),
                    st.unique_bytes,
                    st.elapsed(),
                    st.goodput() / 1000.0,
                ));
            }
            if conn.fingerprint.is_empty() {
                out.push_str("  (no sender-side fingerprint from this vantage)\n");
            }
            for r in conn.fingerprint.iter().take(6) {
                let mut delays = r.analysis.response_delays.clone();
                out.push_str(&format!(
                    "  {:<22} {:<18} issues {:>2}  delays p50 {} p90 {}\n",
                    r.name,
                    r.fit.to_string(),
                    r.analysis.issues.len(),
                    delays
                        .median()
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "-".into()),
                    delays
                        .percentile(90.0)
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "-".into()),
                ));
            }
            if let Some(rx) = &conn.receiver {
                out.push_str(&format!(
                    "  receiver: {} delayed / {} normal / {} stretch / {} dup / {} gratuitous acks; policy {:?}\n",
                    rx.count(AckClass::Delayed),
                    rx.count(AckClass::Normal),
                    rx.count(AckClass::Stretch),
                    rx.count(AckClass::Duplicate),
                    rx.count(AckClass::Gratuitous),
                    rx.policy,
                ));
                if !rx.corrupt_arrivals.is_empty() {
                    out.push_str(&format!(
                        "  inferred corrupt arrivals: {}\n",
                        rx.corrupt_arrivals.len()
                    ));
                }
            }
            if !conn.receiver_fingerprint.is_empty() {
                let consistent: Vec<&str> = conn
                    .receiver_fingerprint
                    .iter()
                    .filter(|f| f.consistent)
                    .map(|f| f.name)
                    .collect();
                out.push_str(&format!(
                    "  receiver-side consistent candidates: {}\n",
                    if consistent.is_empty() {
                        "(none)".to_string()
                    } else {
                        consistent.join(", ")
                    }
                ));
            }
            if let Some(h) = &conn.handshake {
                if h.retries() > 0 {
                    out.push_str(&format!(
                        "  handshake: {} SYN retries, initial RTO {}, backoff {:?}\n",
                        h.retries(),
                        h.initial_rto
                            .map(|d| d.to_string())
                            .unwrap_or_else(|| "-".into()),
                        h.shape
                    ));
                }
            }
        }
        out
    }
}
