//! Property-based tests for the wire codecs: every valid value must
//! round-trip emit → parse unchanged, checksums must verify, and the
//! decoders must never panic on arbitrary bytes.

use proptest::prelude::*;
use tcpa_wire::{
    checksum, EthernetRepr, IcmpRepr, IpProtocol, Ipv4Addr, Ipv4Repr, MacAddr, SeqNum, TcpFlags,
    TcpOption, TcpRepr,
};

/// The RFC 1071 reference: big-endian 16-bit words summed one by one
/// into a `u32`, the last odd byte padded with zero. `Checksum` sums wider
/// words and must agree with this on every input.
#[derive(Default)]
struct Oracle {
    sum: u32,
}

impl Oracle {
    fn add_bytes(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(2);
        for chunk in &mut chunks {
            self.sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [last] = chunks.remainder() {
            self.sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
    }

    fn finish(mut self) -> u16 {
        while self.sum > 0xffff {
            self.sum = (self.sum & 0xffff) + (self.sum >> 16);
        }
        !(self.sum as u16)
    }
}

fn oracle(parts: &[&[u8]]) -> u16 {
    let mut ck = Oracle::default();
    for part in parts {
        ck.add_bytes(part);
    }
    ck.finish()
}

fn incremental(parts: &[&[u8]]) -> u16 {
    let mut ck = checksum::Checksum::new();
    for part in parts {
        ck.add_bytes(part);
    }
    ck.finish()
}

#[test]
fn checksum_matches_oracle_on_uniform_buffers() {
    // All-ones buffers exercise the end-around carry at every width,
    // all-zero ones the "negative zero" a nonzero sum must never fold to.
    for fill in [0x00u8, 0xff] {
        let buf = vec![fill; 4096 + 1];
        for len in 0..=4096 {
            for start in [0, 1] {
                let data = &buf[start..start + len];
                assert_eq!(
                    checksum::checksum(data),
                    oracle(&[data]),
                    "fill {fill:#x} len {len} start {start}"
                );
            }
        }
    }
}

fn arb_ipv4_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(Ipv4Addr)
}

fn arb_tcp_option() -> impl Strategy<Value = TcpOption> {
    prop_oneof![
        Just(TcpOption::Nop),
        any::<u16>().prop_map(TcpOption::Mss),
        (0u8..15).prop_map(TcpOption::WindowScale),
        Just(TcpOption::SackPermitted),
        (any::<u32>(), any::<u32>())
            .prop_map(|(tsval, tsecr)| TcpOption::Timestamps { tsval, tsecr }),
        proptest::collection::vec((any::<u32>(), any::<u32>()), 1..4).prop_map(|blocks| {
            TcpOption::Sack(
                blocks
                    .into_iter()
                    .map(|(a, b)| (SeqNum(a), SeqNum(b)))
                    .collect(),
            )
        }),
        (128u8..255, proptest::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(kind, data)| TcpOption::Unknown(kind, data)),
    ]
}

fn arb_tcp_repr() -> impl Strategy<Value = TcpRepr> {
    (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        0u8..64,
        any::<u16>(),
        proptest::collection::vec(arb_tcp_option(), 0..4).prop_filter(
            "options must fit the 40-byte area",
            |opts| {
                let tmp = TcpRepr {
                    options: opts.clone(),
                    ..TcpRepr::new(0, 0)
                };
                tmp.header_len() <= 60
            },
        ),
    )
        .prop_map(|(sp, dp, seq, ack, flags, window, options)| TcpRepr {
            src_port: sp,
            dst_port: dp,
            seq: SeqNum(seq),
            ack: SeqNum(ack),
            flags: TcpFlags(flags),
            window,
            urgent: 0,
            options,
        })
}

proptest! {
    #[test]
    fn tcp_round_trips(repr in arb_tcp_repr(), payload in proptest::collection::vec(any::<u8>(), 0..256),
                       src in arb_ipv4_addr(), dst in arb_ipv4_addr()) {
        let mut buf = Vec::new();
        repr.emit(src, dst, &payload, &mut buf);
        prop_assert!(TcpRepr::verify_checksum(src, dst, &buf));
        let (parsed, got_payload) = TcpRepr::parse(&buf).unwrap();
        prop_assert_eq!(parsed, repr);
        prop_assert_eq!(got_payload, &payload[..]);
    }

    #[test]
    fn tcp_detects_any_single_bit_flip(repr in arb_tcp_repr(),
                                       payload in proptest::collection::vec(any::<u8>(), 1..128),
                                       src in arb_ipv4_addr(), dst in arb_ipv4_addr(),
                                       flip in any::<proptest::sample::Index>(), bit in 0u8..8) {
        let mut buf = Vec::new();
        repr.emit(src, dst, &payload, &mut buf);
        let idx = flip.index(buf.len());
        buf[idx] ^= 1 << bit;
        // A single bit flip is always caught by the ones'-complement sum.
        prop_assert!(!TcpRepr::verify_checksum(src, dst, &buf));
    }

    #[test]
    fn ipv4_round_trips(src in arb_ipv4_addr(), dst in arb_ipv4_addr(),
                        ident in any::<u16>(), ttl in 1u8..=255,
                        payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let repr = Ipv4Repr {
            src, dst,
            protocol: IpProtocol::Tcp,
            ttl, ident,
            payload_len: payload.len(),
        };
        let mut buf = Vec::new();
        repr.emit(&mut buf);
        buf.extend_from_slice(&payload);
        let (parsed, got) = Ipv4Repr::parse(&buf).unwrap();
        prop_assert_eq!(parsed, repr);
        prop_assert_eq!(got, &payload[..]);
        // Lenient parse agrees on intact packets.
        let (parsed2, got2) = Ipv4Repr::parse_lenient(&buf).unwrap();
        prop_assert_eq!(parsed2, repr);
        prop_assert_eq!(got2, &payload[..]);
    }

    #[test]
    fn ethernet_round_trips(dst in any::<[u8; 6]>(), src in any::<[u8; 6]>(), et in any::<u16>(),
                            payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let repr = EthernetRepr { dst: MacAddr(dst), src: MacAddr(src), ethertype: et.into() };
        let mut buf = Vec::new();
        repr.emit(&mut buf);
        buf.extend_from_slice(&payload);
        let (parsed, got) = EthernetRepr::parse(&buf).unwrap();
        prop_assert_eq!(parsed, repr);
        prop_assert_eq!(got, &payload[..]);
    }

    #[test]
    fn icmp_round_trips(ident in any::<u16>(), seq in any::<u16>()) {
        for msg in [IcmpRepr::EchoRequest { ident, seq }, IcmpRepr::EchoReply { ident, seq }] {
            let mut buf = Vec::new();
            msg.emit(&mut buf);
            prop_assert_eq!(IcmpRepr::parse(&buf).unwrap(), msg);
        }
    }

    #[test]
    fn parsers_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = TcpRepr::parse(&bytes);
        let _ = Ipv4Repr::parse(&bytes);
        let _ = Ipv4Repr::parse_lenient(&bytes);
        let _ = EthernetRepr::parse(&bytes);
        let _ = IcmpRepr::parse(&bytes);
    }

    #[test]
    fn checksum_incremental_matches_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512),
                                            cut in any::<proptest::sample::Index>()) {
        let split = cut.index(data.len() + 1) & !1; // even split point
        let mut inc = checksum::Checksum::new();
        inc.add_bytes(&data[..split]);
        inc.add_bytes(&data[split..]);
        prop_assert_eq!(inc.finish(), checksum::checksum(&data));
    }

    #[test]
    fn checksum_matches_rfc1071_oracle(data in proptest::collection::vec(any::<u8>(), 0..4097),
                                       start in any::<proptest::sample::Index>()) {
        // Any start offset, odd ones included: the word loop must not
        // depend on the slice's alignment.
        let data = &data[start.index(data.len() + 1)..];
        prop_assert_eq!(checksum::checksum(data), oracle(&[data]));
    }

    #[test]
    fn checksum_sections_match_the_oracle(data in proptest::collection::vec(any::<u8>(), 0..4097),
                                          a in any::<proptest::sample::Index>(),
                                          b in any::<proptest::sample::Index>()) {
        // Arbitrary (odd included) split points: each section is padded
        // as the final one would be, in both implementations.
        let (mut a, mut b) = (a.index(data.len() + 1), b.index(data.len() + 1));
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let parts = [&data[..a], &data[a..b], &data[b..]];
        prop_assert_eq!(incremental(&parts), oracle(&parts));
        prop_assert_eq!(TcpRepr::compute_checksum(
            Ipv4Addr::from_host_id(1), Ipv4Addr::from_host_id(2), &data),
            {
                let header = [192, 0, 2, 1, 192, 0, 2, 2, 0, 6];
                let len = (data.len() as u16).to_be_bytes();
                oracle(&[&header, &len, &data])
            });
    }

    #[test]
    fn seqnum_ordering_is_antisymmetric(a in any::<u32>(), d in 1u32..0x7fff_ffff) {
        let x = SeqNum(a);
        let y = x + d;
        prop_assert!(x.before(y));
        prop_assert!(y.after(x));
        prop_assert!(!y.before(x));
        prop_assert_eq!(y - x, i64::from(d));
        prop_assert_eq!(x - y, -i64::from(d));
    }

    #[test]
    fn seqnum_window_membership(base in any::<u32>(), len in 1u32..1_000_000, off in any::<u32>()) {
        let lo = SeqNum(base);
        let p = lo + (off % (len * 2));
        let inside = (p - lo) < i64::from(len);
        prop_assert_eq!(p.in_window(lo, len), inside);
    }

    #[test]
    fn seqnum_max_min_consistent(a in any::<u32>(), d in 0u32..0x7fff_ffff) {
        let x = SeqNum(a);
        let y = x + d;
        prop_assert_eq!(x.max(y), y);
        prop_assert_eq!(x.min(y), x);
    }
}
