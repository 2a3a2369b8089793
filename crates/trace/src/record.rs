//! Trace records: one captured packet, and whole traces.

use crate::time::Time;
use tcpa_wire::{Ipv4Repr, SeqNum, TcpRepr};

/// One TCP/IP packet as recorded by a packet filter.
///
/// The record holds decoded headers rather than raw bytes — the analyzer
/// never needs the payload contents, only its length and (when available)
/// whether its checksum verified. This mirrors the paper's situation, where
/// most traces were captured with a snap length that kept headers only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The packet filter's timestamp for this packet.
    pub ts: Time,
    /// Decoded IPv4 header.
    pub ip: Ipv4Repr,
    /// Decoded TCP header (options included).
    pub tcp: TcpRepr,
    /// TCP payload length in bytes, as computed from the IP total length
    /// (valid even when the payload itself was not captured).
    pub payload_len: u32,
    /// `Some(true)` / `Some(false)` when the full packet was captured and
    /// its TCP checksum verified / failed; `None` when the capture was
    /// header-only and the checksum could not be checked (§7: corruption
    /// must then be inferred from receiver behavior).
    pub checksum_ok: Option<bool>,
}

impl TraceRecord {
    /// Sequence space this packet occupies: payload bytes plus one unit
    /// each for SYN and FIN.
    pub fn seq_len(&self) -> u32 {
        let mut len = self.payload_len;
        if self.tcp.flags.syn() {
            len += 1;
        }
        if self.tcp.flags.fin() {
            len += 1;
        }
        len
    }

    /// First sequence number occupied.
    pub fn seq_lo(&self) -> SeqNum {
        self.tcp.seq
    }

    /// One past the last sequence number occupied.
    pub fn seq_hi(&self) -> SeqNum {
        self.tcp.seq + self.seq_len()
    }

    /// `true` when the packet carries payload bytes.
    pub fn is_data(&self) -> bool {
        self.payload_len > 0
    }

    /// `true` for a payload-free ACK that is not a SYN/FIN/RST.
    pub fn is_pure_ack(&self) -> bool {
        self.payload_len == 0
            && self.tcp.flags.ack()
            && !self.tcp.flags.syn()
            && !self.tcp.flags.fin()
            && !self.tcp.flags.rst()
    }

    /// A compact single-line rendering, in the spirit of tcpdump output.
    pub fn render(&self) -> String {
        format!(
            "{} {}:{} > {}:{} {} seq {} len {} ack {} win {}",
            self.ts,
            self.ip.src,
            self.tcp.src_port,
            self.ip.dst,
            self.tcp.dst_port,
            self.tcp.flags,
            self.tcp.seq,
            self.payload_len,
            self.tcp.ack,
            self.tcp.window,
        )
    }
}

/// The full sequence of records one measurement point produced, in the
/// order the filter wrote them (which, per §3.1.3, is *not* necessarily the
/// order events occurred on the wire).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Records in filter order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record.
    pub fn push(&mut self, rec: TraceRecord) {
        self.records.push(rec);
    }

    /// Iterates over records.
    pub fn iter(&self) -> core::slice::Iter<'_, TraceRecord> {
        self.records.iter()
    }

    /// The timestamp of the first record, if any.
    pub fn start_time(&self) -> Option<Time> {
        self.records.first().map(|r| r.ts)
    }

    /// Rebases all timestamps so the first record is at `Time::ZERO`.
    /// Reporting helper; analysis never requires it.
    pub fn rebase(&mut self) {
        if let Some(t0) = self.start_time() {
            for rec in &mut self.records {
                rec.ts = Time(rec.ts.0 - t0.0);
            }
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceRecord;
    type IntoIter = core::slice::Iter<'a, TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceRecord>>(iter: T) -> Self {
        Trace {
            records: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use tcpa_wire::{IpProtocol, Ipv4Addr, TcpFlags};

    /// Builds a minimal record for tests: `src`/`dst` host ids, flags, seq,
    /// payload length, ack.
    pub fn rec(
        ts_ms: i64,
        src: u8,
        dst: u8,
        flags: TcpFlags,
        seq: u32,
        len: u32,
        ack: u32,
    ) -> TraceRecord {
        TraceRecord {
            ts: Time::from_millis(ts_ms),
            ip: Ipv4Repr {
                src: Ipv4Addr::from_host_id(src),
                dst: Ipv4Addr::from_host_id(dst),
                protocol: IpProtocol::Tcp,
                ttl: 64,
                ident: 0,
                payload_len: 20 + len as usize,
            },
            tcp: TcpRepr {
                src_port: 5000 + u16::from(src),
                dst_port: 5000 + u16::from(dst),
                seq: SeqNum(seq),
                ack: SeqNum(ack),
                flags,
                window: 8192,
                urgent: 0,
                options: Vec::new(),
            },
            payload_len: len,
            checksum_ok: Some(true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::rec;
    use super::*;
    use tcpa_wire::TcpFlags;

    #[test]
    fn seq_space_accounts_for_syn_and_fin() {
        let syn = rec(0, 1, 2, TcpFlags::SYN, 100, 0, 0);
        assert_eq!(syn.seq_len(), 1);
        assert_eq!(syn.seq_hi(), SeqNum(101));

        let data = rec(1, 1, 2, TcpFlags::ACK, 101, 512, 1);
        assert_eq!(data.seq_len(), 512);
        assert_eq!(data.seq_hi(), SeqNum(613));

        let fin = rec(2, 1, 2, TcpFlags::ACK | TcpFlags::FIN, 613, 0, 1);
        assert_eq!(fin.seq_len(), 1);
    }

    #[test]
    fn classification_predicates() {
        let data = rec(0, 1, 2, TcpFlags::ACK, 1, 512, 1);
        assert!(data.is_data());
        assert!(!data.is_pure_ack());

        let ack = rec(0, 2, 1, TcpFlags::ACK, 1, 0, 513);
        assert!(ack.is_pure_ack());
        assert!(!ack.is_data());

        let synack = rec(0, 2, 1, TcpFlags::SYN | TcpFlags::ACK, 0, 0, 1);
        assert!(!synack.is_pure_ack());
    }

    #[test]
    fn rebase_shifts_to_zero() {
        let mut trace: Trace = vec![
            rec(100, 1, 2, TcpFlags::ACK, 0, 10, 0),
            rec(150, 1, 2, TcpFlags::ACK, 10, 10, 0),
        ]
        .into_iter()
        .collect();
        trace.rebase();
        assert_eq!(trace.records[0].ts, Time::ZERO);
        assert_eq!(trace.records[1].ts, Time::from_millis(50));
    }

    #[test]
    fn render_is_single_line() {
        let r = rec(5, 1, 2, TcpFlags::ACK | TcpFlags::PSH, 42, 100, 7);
        let line = r.render();
        assert!(line.contains("192.0.2.1"));
        assert!(!line.contains('\n'));
    }
}
