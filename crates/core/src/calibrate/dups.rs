//! Measurement-duplicate detection and removal (§3.1.2).
//!
//! The IRIX 5.2/5.3 filters record each outgoing packet twice. A
//! duplicated *record* is distinguishable from a retransmitted *packet*:
//! the two records carry the same IP `ident` (it is literally the same
//! packet), whereas a retransmission is a new IP datagram with a new
//! ident. tcpanaly discards the *later* copy of each pair — per the paper
//! (and \[Pa97b\]); note Figure 1 shows the later copies carrying accurate
//! Ethernet wire timing while the early copies reflect the OS sourcing
//! rate, so a caller that wants wire-accurate slopes should treat a trace
//! with removed duplicates with care. What matters for behavior analysis
//! is that exactly one record per wire packet survives.

use tcpa_trace::{Time, Trace};

/// One removed duplicate.
#[derive(Debug, Clone)]
pub struct DupRemoval {
    /// Index (in the original trace) of the record that was kept.
    pub kept_index: usize,
    /// Index of the discarded later copy.
    pub removed_index: usize,
    /// Timestamp spread between the two copies.
    pub spread: tcpa_trace::Duration,
}

/// How far apart two records may be and still count as filter copies of
/// one packet (generously above the Figure 1 spreads, well below any
/// plausible RTO).
const DUP_WINDOW: tcpa_trace::Duration = tcpa_trace::Duration::from_millis(80);

/// Finds measurement duplicates, keeping the earlier copy of each pair:
/// for each record, whether it is a later copy to discard, and every
/// removal in the order it was made.
pub fn find_duplicates(trace: &Trace) -> (Vec<bool>, Vec<DupRemoval>) {
    let n = trace.len();
    let mut removed = vec![false; n];
    let mut removals = Vec::new();
    // Quadratic in the duplicate window, linear overall: the inner scan
    // stops at the first record more than DUP_WINDOW away. (Indexing
    // rather than iterators because both endpoints of the pair are
    // mutated in `removed`.)
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        if removed[i] {
            continue;
        }
        let a = &trace.records[i];
        for j in (i + 1)..n {
            if removed[j] {
                continue;
            }
            let b = &trace.records[j];
            if time_gap(a.ts, b.ts) > DUP_WINDOW {
                break;
            }
            let same_packet = a.ip.ident == b.ip.ident
                && a.ip.src == b.ip.src
                && a.ip.dst == b.ip.dst
                && a.tcp.src_port == b.tcp.src_port
                && a.tcp.seq == b.tcp.seq
                && a.tcp.ack == b.tcp.ack
                && a.tcp.flags == b.tcp.flags
                && a.payload_len == b.payload_len;
            if same_packet {
                removed[j] = true;
                removals.push(DupRemoval {
                    kept_index: i,
                    removed_index: j,
                    spread: b.ts - a.ts,
                });
            }
        }
    }
    (removed, removals)
}

fn time_gap(a: Time, b: Time) -> tcpa_trace::Duration {
    (b - a).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpa_trace::{Duration, Time, TraceRecord};
    use tcpa_wire::{IpProtocol, Ipv4Addr, Ipv4Repr, SeqNum, TcpFlags, TcpRepr};

    fn rec(ts_us: i64, ident: u16, seq: u32, len: u32) -> TraceRecord {
        TraceRecord {
            ts: Time::from_micros(ts_us),
            ip: Ipv4Repr {
                src: Ipv4Addr::from_host_id(1),
                dst: Ipv4Addr::from_host_id(2),
                protocol: IpProtocol::Tcp,
                ttl: 64,
                ident,
                payload_len: 20 + len as usize,
            },
            tcp: TcpRepr {
                seq: SeqNum(seq),
                flags: TcpFlags::ACK,
                ..TcpRepr::new(1000, 2000)
            },
            payload_len: len,
            checksum_ok: Some(true),
        }
    }

    /// Records that survive de-duplication.
    fn kept(removed: &[bool]) -> usize {
        removed.iter().filter(|&&gone| !gone).count()
    }

    #[test]
    fn identical_ident_within_window_removed() {
        let trace: Trace = vec![
            rec(0, 1, 100, 512),
            rec(400, 1, 100, 512), // filter copy, 400 µs later
            rec(1000, 2, 612, 512),
        ]
        .into_iter()
        .collect();
        let (removed, removals) = find_duplicates(&trace);
        assert_eq!(kept(&removed), 2);
        assert_eq!(removals.len(), 1);
        assert_eq!(removals[0].kept_index, 0);
        assert_eq!(removals[0].removed_index, 1);
        assert_eq!(removed, [false, true, false], "earlier kept");
    }

    #[test]
    fn retransmission_with_new_ident_not_removed() {
        let trace: Trace = vec![rec(0, 1, 100, 512), rec(500, 7, 100, 512)]
            .into_iter()
            .collect();
        let (removed, removals) = find_duplicates(&trace);
        assert_eq!(kept(&removed), 2, "same seq, different ident: a retransmit");
        assert!(removals.is_empty());
    }

    #[test]
    fn far_apart_same_ident_not_removed() {
        // Ident wrapping after 65536 packets can legitimately reuse a
        // value much later; the window guards against that.
        let trace: Trace = vec![rec(0, 1, 100, 512), rec(200_000, 1, 100, 512)]
            .into_iter()
            .collect();
        let (removed, removals) = find_duplicates(&trace);
        assert_eq!(kept(&removed), 2);
        assert!(removals.is_empty());
    }

    #[test]
    fn spread_is_reported() {
        let trace: Trace = vec![rec(0, 3, 0, 100), rec(250, 3, 0, 100)]
            .into_iter()
            .collect();
        let (_, removals) = find_duplicates(&trace);
        assert_eq!(removals[0].spread, Duration::from_micros(250));
    }

    #[test]
    fn triplicates_collapse_to_one() {
        let trace: Trace = vec![rec(0, 9, 0, 64), rec(100, 9, 0, 64), rec(200, 9, 0, 64)]
            .into_iter()
            .collect();
        let (removed, removals) = find_duplicates(&trace);
        assert_eq!(kept(&removed), 1);
        assert_eq!(removals.len(), 2);
    }
}
