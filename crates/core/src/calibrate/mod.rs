//! Trace calibration (§3): finding and coping with measurement error
//! before any behavioral conclusion is drawn.

pub mod drops;
pub mod dups;
pub mod reseq;
pub mod timing;
pub mod vantage;

use tcpa_trace::{Connection, Trace, TraceRecord};

pub use drops::{DropCheck, DropEvidence, Vantage};
pub use dups::DupRemoval;
pub use reseq::ReseqEvidence;
pub use timing::TimeTravel;
pub use vantage::{infer_vantage, VantageInference};

/// Aggregate calibration result for one trace.
#[derive(Debug, Clone, Default)]
pub struct CalibrationReport {
    /// Measurement duplicates found and removed (§3.1.2).
    pub duplicates: Vec<DupRemoval>,
    /// Timestamp decreases (§3.1.4).
    pub time_travel: Vec<TimeTravel>,
    /// Resequencing evidence (§3.1.3).
    pub resequencing: Vec<ReseqEvidence>,
    /// Filter-drop evidence from the self-consistency checks (§3.1.1).
    pub drop_evidence: Vec<DropEvidence>,
}

impl CalibrationReport {
    /// `true` when no measurement error of any kind was detected.
    pub fn is_clean(&self) -> bool {
        self.duplicates.is_empty()
            && self.time_travel.is_empty()
            && self.resequencing.is_empty()
            && self.drop_evidence.is_empty()
    }

    /// `true` when the trace's event *ordering* cannot be trusted for
    /// cause-and-effect analysis (§3.1.3: resequencing "destroys any
    /// ready assessment of cause-and-effect").
    pub fn ordering_untrustworthy(&self) -> bool {
        !self.resequencing.is_empty() || !self.time_travel.is_empty()
    }
}

/// A trace with its measurement duplicates removed (§3.1.2), split into
/// connections: the one split that vantage inference, the calibration
/// detectors and every per-connection stage read.
#[derive(Debug)]
pub struct SplitTrace<'a> {
    trace: &'a Trace,
    /// Per record of `trace`: a duplicate that was removed.
    removed: Vec<bool>,
    /// The duplicates that were removed.
    pub duplicates: Vec<DupRemoval>,
    /// The surviving records split into connections, in first-seen order.
    pub connections: Vec<Connection>,
}

impl<'a> SplitTrace<'a> {
    /// Removes measurement duplicates and splits what is left.
    pub fn of(trace: &'a Trace) -> SplitTrace<'a> {
        let (removed, duplicates) = dups::find_duplicates(trace);
        let mut split = SplitTrace {
            trace,
            removed,
            duplicates,
            connections: Vec::new(),
        };
        split.connections = Connection::split(split.survivors());
        split
    }

    /// The records that survived de-duplication, in filter order.
    fn survivors(&self) -> impl Iterator<Item = &'a TraceRecord> + '_ {
        self.trace
            .iter()
            .zip(&self.removed)
            .filter(|(_, &gone)| !gone)
            .map(|(rec, _)| rec)
    }

    /// The trace with exactly one record per wire packet.
    pub fn clean(&self) -> Trace {
        self.survivors().cloned().collect()
    }

    /// Infers where the filter sat (§3.2): each connection votes with
    /// [`infer_vantage`]; a tie, or no vote at all, is unknown.
    pub fn infer_vantage(&self) -> Vantage {
        let mut votes = (0usize, 0usize);
        for conn in &self.connections {
            match infer_vantage(conn).vantage {
                Vantage::Sender => votes.0 += 1,
                Vantage::Receiver => votes.1 += 1,
                Vantage::Unknown => {}
            }
        }
        match votes.0.cmp(&votes.1) {
            core::cmp::Ordering::Greater => Vantage::Sender,
            core::cmp::Ordering::Less => Vantage::Receiver,
            core::cmp::Ordering::Equal => Vantage::Unknown,
        }
    }

    /// Runs every calibration detector from `vantage`, which gates the
    /// vantage-specific drop checks.
    pub fn calibrate(&self, vantage: Vantage) -> CalibrationReport {
        let mut report = CalibrationReport {
            duplicates: self.duplicates.clone(),
            time_travel: timing::detect_time_travel(self.survivors()),
            resequencing: Vec::new(),
            drop_evidence: Vec::new(),
        };
        for conn in &self.connections {
            report.resequencing.extend(reseq::detect_resequencing(conn));
            report
                .drop_evidence
                .extend(drops::detect_drops(conn, vantage));
        }
        report
    }
}

/// Runs all calibration stages on a trace, returning the *cleaned* trace
/// (duplicates removed) alongside the report.
#[derive(Debug, Clone, Default)]
pub struct Calibrator {
    /// Where the filter sat; gates the vantage-specific drop checks.
    pub vantage: Vantage,
}

impl Calibrator {
    /// A calibrator with an unknown vantage point (only vantage-neutral
    /// checks run).
    pub fn new() -> Calibrator {
        Calibrator::default()
    }

    /// A calibrator for a trace captured at the data sender.
    pub fn at_sender() -> Calibrator {
        Calibrator {
            vantage: Vantage::Sender,
        }
    }

    /// A calibrator for a trace captured at the receiver.
    pub fn at_receiver() -> Calibrator {
        Calibrator {
            vantage: Vantage::Receiver,
        }
    }

    /// Calibrates a trace: removes measurement duplicates, then runs every
    /// detector on the cleaned trace.
    pub fn calibrate(&self, trace: &Trace) -> (Trace, CalibrationReport) {
        let split = SplitTrace::of(trace);
        (split.clean(), split.calibrate(self.vantage))
    }
}
