//! Implementation fingerprinting (§5, §6.1).
//!
//! tcpanaly "can automatically run all known implementations against a
//! given trace, sorting them into close, imperfect, and clearly-incorrect
//! fits". The sort key comes straight from sender analysis: a candidate
//! whose replay produces *window violations* or *unexplained
//! retransmissions* clearly is not the traced implementation; one whose
//! liberations are matched but sluggishly (large response delays, lulls)
//! is an imperfect fit; a candidate that explains every packet promptly
//! is a close fit.

use crate::sender::{prescan, replay_candidate, Prescan, ReplayOptions, SenderAnalysis};
use tcpa_obs::{Deadline, Expired};
use tcpa_tcpsim::config::TcpConfig;
use tcpa_tcpsim::profiles::all_profiles;
use tcpa_trace::{Connection, Duration};

/// How well a candidate implementation explains a trace (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FitClass {
    /// Every packet explained, small response delays.
    Close,
    /// Explained, but with suspiciously large delays or lulls.
    Imperfect,
    /// Window violations or unexplained retransmissions.
    ClearlyIncorrect,
}

impl core::fmt::Display for FitClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FitClass::Close => write!(f, "close"),
            FitClass::Imperfect => write!(f, "imperfect"),
            FitClass::ClearlyIncorrect => write!(f, "clearly incorrect"),
        }
    }
}

/// Response delays under this (90th percentile) qualify as prompt. A real
/// endpoint answers a liberation within its processing delay plus one LAN
/// serialization — a handful of milliseconds; tens of milliseconds still
/// plausibly reflect host scheduling noise.
const CLOSE_P90: Duration = Duration::from_millis(30);

/// One candidate's score against a trace.
#[derive(Debug, Clone)]
pub struct FingerprintResult {
    /// Candidate implementation name.
    pub name: &'static str,
    /// Fit classification.
    pub fit: FitClass,
    /// The full sender analysis behind the classification.
    pub analysis: SenderAnalysis,
}

/// Classifies one analysis into a fit class.
pub fn classify(analysis: &SenderAnalysis) -> FitClass {
    if analysis.hard_issues() > 0 {
        return FitClass::ClearlyIncorrect;
    }
    let mut delays = analysis.response_delays.clone();
    let prompt = match delays.percentile(90.0) {
        Some(p90) => p90 <= CLOSE_P90,
        None => true, // nothing to measure: vacuously prompt
    };
    // Source quenches are rare (the paper found 91 in 20,000 traces); a
    // candidate that needs *repeated* unseen quenches to explain a trace
    // is really a candidate whose window model runs persistently ahead of
    // the sender — an imperfect fit, not a close one.
    if prompt && analysis.lulls() == 0 && analysis.inferred_quenches.len() <= 1 {
        FitClass::Close
    } else {
        FitClass::Imperfect
    }
}

/// Runs one candidate against a connection.
pub fn fingerprint_one(conn: &Connection, cfg: &TcpConfig) -> Option<FingerprintResult> {
    Some(score(conn, &prescan(conn)?, cfg))
}

/// Replays and classifies one candidate over a prescanned connection.
fn score(conn: &Connection, pre: &Prescan, cfg: &TcpConfig) -> FingerprintResult {
    // `detail.*` spans are sub-stage detail nested inside
    // `stage.fingerprint`; they are excluded from stage-coverage sums so
    // the replay time is not double-counted.
    let analysis = tcpa_obs::time("detail.sender_replay", || {
        replay_candidate(conn, pre, cfg, &ReplayOptions::default())
    });
    FingerprintResult {
        name: cfg.name,
        fit: classify(&analysis),
        analysis,
    }
}

/// Runs every known profile against a connection and sorts the results:
/// close fits first (by mean response delay), then imperfect, then
/// clearly incorrect (by number of hard issues). The connection is
/// prescanned once and each candidate replayed over it once (twice when
/// a sender window is inferred).
pub fn fingerprint(conn: &Connection) -> Vec<FingerprintResult> {
    // Without a deadline the ranking cannot expire.
    fingerprint_within(conn, Deadline::NONE).unwrap_or_default()
}

/// [`fingerprint`], checking `deadline` before each candidate replay.
pub(crate) fn fingerprint_within(
    conn: &Connection,
    deadline: Deadline,
) -> Result<Vec<FingerprintResult>, Expired> {
    let Some(pre) = prescan(conn) else {
        return Ok(Vec::new());
    };
    let profiles = all_profiles();
    let mut results = Vec::with_capacity(profiles.len());
    for cfg in &profiles {
        deadline.check()?;
        results.push(score(conn, &pre, cfg));
    }
    // A stable sort on keys computed once per candidate.
    results.sort_by_cached_key(|r| match r.fit {
        FitClass::ClearlyIncorrect => (r.fit, r.analysis.hard_issues(), Duration::ZERO),
        _ => {
            let mean = r.analysis.response_delays.mean().unwrap_or(Duration::ZERO);
            (r.fit, 0, mean)
        }
    });
    Ok(results)
}

/// Names of the candidates classified close.
pub fn close_fits(results: &[FingerprintResult]) -> Vec<&'static str> {
    results
        .iter()
        .filter(|r| r.fit == FitClass::Close)
        .map(|r| r.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sender::{IssueDetail, SenderIssueKind};

    fn dummy_analysis(hard: usize, lulls: usize, p90_ms: i64) -> SenderAnalysis {
        let mut response_delays = tcpa_trace::Summary::new();
        for _ in 0..10 {
            response_delays.add(Duration::from_millis(p90_ms));
        }
        let issue = |kind, detail| crate::sender::SenderIssue {
            kind,
            index: 0,
            time: tcpa_trace::Time::ZERO,
            detail,
        };
        let seq = tcpa_wire::SeqNum(0);
        let overshoot = IssueDetail::Overshoot {
            hi: seq,
            permit: seq,
            cwnd: 0,
            offered: 0,
            una: seq,
        };
        let lull = IssueDetail::Lull {
            hi: seq,
            delay: Duration::ZERO,
        };
        let mut issues = vec![issue(SenderIssueKind::WindowViolation, overshoot); hard];
        issues.extend(vec![issue(SenderIssueKind::Lull, lull); lulls]);
        SenderAnalysis {
            config_name: "test",
            response_delays,
            issues,
            reseq_cured_violations: 0,
            inferred_sender_window: None,
            inferred_quenches: vec![],
            zero_window_probes: 0,
            data_packets: 10,
            retransmissions: 0,
            retx_causes: vec![],
            cwnd_mss: 512,
        }
    }

    #[test]
    fn classification_boundaries() {
        assert_eq!(classify(&dummy_analysis(0, 0, 2)), FitClass::Close);
        assert_eq!(classify(&dummy_analysis(0, 0, 100)), FitClass::Imperfect);
        assert_eq!(classify(&dummy_analysis(0, 1, 2)), FitClass::Imperfect);
        assert_eq!(
            classify(&dummy_analysis(1, 0, 2)),
            FitClass::ClearlyIncorrect
        );
    }

    #[test]
    fn fit_class_orders_close_first() {
        assert!(FitClass::Close < FitClass::Imperfect);
        assert!(FitClass::Imperfect < FitClass::ClearlyIncorrect);
    }
}

/// Receiver-side consistency of one candidate against a trace.
///
/// Sender traces cannot separate implementations that differ only in
/// acking policy (Solaris 2.3 vs 2.4 is exactly such a pair, §8.6);
/// receiver-side evidence — the §9.1 policy signature, stretch-ack rate,
/// and gratuitous acks — closes that gap.
#[derive(Debug, Clone)]
pub struct ReceiverFit {
    /// Candidate implementation name.
    pub name: &'static str,
    /// `true` when nothing in the receiver analysis contradicts the
    /// candidate's receiver configuration.
    pub consistent: bool,
    /// Human-readable contradictions, empty when consistent.
    pub contradictions: Vec<String>,
}

/// Checks one receiver analysis against one candidate's receiver config.
pub fn receiver_fit(analysis: &crate::receiver::ReceiverAnalysis, cfg: &TcpConfig) -> ReceiverFit {
    use crate::receiver::{AckClass, PolicyGuess};
    use tcpa_tcpsim::config::AckPolicy;

    let mut contradictions = Vec::new();

    // Policy kind (§9.1). `Unknown` never contradicts — it means the
    // trace lacked the evidence, not that the candidate is wrong.
    match (analysis.policy, cfg.ack_policy) {
        (PolicyGuess::Unknown, _) => {}
        (PolicyGuess::Heartbeat { period_ms }, AckPolicy::Heartbeat { interval }) => {
            let expect = interval.as_millis_f64();
            if !(0.5..=1.6).contains(&(period_ms as f64 / expect)) {
                contradictions.push(format!(
                    "heartbeat period ≈{period_ms} ms vs configured {expect:.0} ms"
                ));
            }
        }
        (PolicyGuess::IntervalTimer { delay_ms }, AckPolicy::PerPacketTimer { delay }) => {
            let expect = delay.as_millis_f64();
            if !(0.5..=1.6).contains(&(delay_ms as f64 / expect)) {
                contradictions.push(format!(
                    "interval timer ≈{delay_ms} ms vs configured {expect:.0} ms"
                ));
            }
        }
        (PolicyGuess::EveryPacket, AckPolicy::EveryPacket) => {}
        // Solaris's initial ack-every-packet phase can read as EveryPacket
        // on short traces; only call a mismatch when the candidate has no
        // immediate-ack behavior at all.
        (PolicyGuess::EveryPacket, AckPolicy::PerPacketTimer { .. })
            if cfg.initial_ack_every_packet > 0 => {}
        (got, want) => {
            contradictions.push(format!("policy {got:?} vs configured {want:?}"));
        }
    }

    // Gratuitous acks (§8.6: the Solaris 2.3 bug fires every 32 packets).
    let gratuitous = analysis.count(AckClass::Gratuitous);
    let counted = analysis.acks.len();
    if cfg.gratuitous_ack_bug && counted >= 48 && gratuitous == 0 {
        contradictions.push("configured acking bug produced no gratuitous acks".into());
    }
    if !cfg.gratuitous_ack_bug && gratuitous > 0 {
        contradictions.push(format!("{gratuitous} gratuitous acks but no acking bug"));
    }

    // Stretch acks (§9.1): an every-two-segments receiver produces few;
    // a configured stretch-acker produces many.
    let stretch = analysis.count(AckClass::Stretch);
    let normalish = stretch + analysis.count(AckClass::Normal) + analysis.count(AckClass::Delayed);
    if cfg.ack_every_n > 2 && normalish >= 16 && stretch * 2 < normalish {
        contradictions.push(format!(
            "configured stretch acking (every {}) but only {stretch}/{normalish} stretch acks",
            cfg.ack_every_n
        ));
    }
    if cfg.ack_every_n <= 2 && normalish >= 16 && stretch * 3 > normalish {
        contradictions.push(format!(
            "{stretch}/{normalish} stretch acks from an every-two-segments receiver"
        ));
    }

    ReceiverFit {
        name: cfg.name,
        consistent: contradictions.is_empty(),
        contradictions,
    }
}

/// Runs every known profile's receiver side against a receiver-vantage
/// connection; consistent candidates first.
pub fn fingerprint_receiver(conn: &Connection) -> Vec<ReceiverFit> {
    let Some(analysis) = crate::receiver::analyze_receiver(conn) else {
        return Vec::new();
    };
    let mut fits: Vec<ReceiverFit> = all_profiles()
        .iter()
        .map(|cfg| receiver_fit(&analysis, cfg))
        .collect();
    fits.sort_by_key(|f| (!f.consistent, f.contradictions.len()));
    fits
}
