//! Timestamp sanity: "time travel" detection (§3.1.4).
//!
//! Packet filters write records in order; their timestamps should never
//! decrease. When they do, the filter host's clock was set backwards
//! between two records — the paper found more than 500 such instances,
//! all on BSDI 1.1 / NetBSD 1.0 tracing hosts whose fast clocks were
//! periodically yanked back by synchronization.
//!
//! (Forward steps are nearly indistinguishable from elevated network
//! delay in a single trace and need paired sender/receiver timing, per
//! \[Pa97b\]; this reproduction, like tcpanaly's single-trace check,
//! reports backward steps only.)

use tcpa_trace::{Duration, TraceRecord};

/// One observed backward timestamp step.
#[derive(Debug, Clone)]
pub struct TimeTravel {
    /// Index of the record whose timestamp precedes its predecessor's.
    pub index: usize,
    /// Magnitude of the decrease (positive).
    pub magnitude: Duration,
}

/// Scans records in filter order for decreasing timestamps; indices
/// count positions in that sequence.
pub fn detect_time_travel<'a>(
    records: impl IntoIterator<Item = &'a TraceRecord>,
) -> Vec<TimeTravel> {
    let mut found = Vec::new();
    let mut prev: Option<tcpa_trace::Time> = None;
    for (index, rec) in records.into_iter().enumerate() {
        if let Some(prev) = prev {
            let delta = rec.ts - prev;
            if delta.is_negative() {
                found.push(TimeTravel {
                    index,
                    magnitude: -delta,
                });
            }
        }
        prev = Some(rec.ts);
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpa_trace::{Time, Trace, TraceRecord};
    use tcpa_wire::{IpProtocol, Ipv4Addr, Ipv4Repr, TcpRepr};

    fn rec(ts_us: i64) -> TraceRecord {
        TraceRecord {
            ts: Time::from_micros(ts_us),
            ip: Ipv4Repr {
                src: Ipv4Addr::from_host_id(1),
                dst: Ipv4Addr::from_host_id(2),
                protocol: IpProtocol::Tcp,
                ttl: 64,
                ident: 0,
                payload_len: 20,
            },
            tcp: TcpRepr::new(1, 2),
            payload_len: 0,
            checksum_ok: None,
        }
    }

    #[test]
    fn monotone_trace_is_clean() {
        let trace: Trace = [0, 10, 20, 20, 30].iter().map(|&t| rec(t)).collect();
        assert!(
            detect_time_travel(&trace).is_empty(),
            "equal stamps are fine"
        );
    }

    #[test]
    fn each_decrease_reported_with_magnitude() {
        let trace: Trace = [0, 100, 70, 80, 75].iter().map(|&t| rec(t)).collect();
        let tt = detect_time_travel(&trace);
        assert_eq!(tt.len(), 2);
        assert_eq!(tt[0].index, 2);
        assert_eq!(tt[0].magnitude, Duration::from_micros(30));
        assert_eq!(tt[1].index, 4);
        assert_eq!(tt[1].magnitude, Duration::from_micros(5));
    }

    #[test]
    fn empty_and_singleton_traces() {
        assert!(detect_time_travel(&Trace::new()).is_empty());
        let one: Trace = [5].iter().map(|&t| rec(t)).collect();
        assert!(detect_time_travel(&one).is_empty());
    }
}
