//! Fault injection for capture files — the mangler.
//!
//! The paper's premise (§3) is that real measurement data is damaged:
//! packet filters drop, duplicate, resequence and mis-time records. The
//! *file-level* analogue is a capture that has been truncated, spliced,
//! or bit-rotted in transit — and an unattended corpus run must survive
//! it. This module deterministically injects that damage so the salvage
//! reader ([`crate::pcap_io::read_pcap_salvage`]) can be tested class by
//! class: every fault is tagged with a [`FaultKind`] and the byte offset
//! where it was applied.
//!
//! All injection is seeded and pure: the same input bytes, fault kind and
//! seed produce the same mangled bytes, so fixtures and property tests
//! are reproducible.

pub use tcpa_wire::pcap::FaultKind;
use tcpa_wire::pcap::{TsResolution, MAX_INCL_LEN};

/// One fault the mangler applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The error class injected.
    pub kind: FaultKind,
    /// Byte offset (in the *mangled* output) where the damage starts.
    pub offset: u64,
}

/// Deterministic split-mix generator (the de-facto standard seeding PRNG;
/// self-contained so this crate stays dependency-free).
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

/// Endianness + resolution of a clean capture, for in-place field edits.
#[derive(Clone, Copy)]
struct Layout {
    swapped: bool,
    resolution: TsResolution,
}

impl Layout {
    fn put_u32(&self, buf: &mut [u8], value: u32) {
        let bytes = if self.swapped {
            value.to_be_bytes()
        } else {
            value.to_le_bytes()
        };
        buf.copy_from_slice(&bytes);
    }
}

/// Byte extent of one record in a clean capture.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Offset of the 16-byte record header.
    offset: usize,
    /// Captured data length.
    data_len: usize,
}

impl Span {
    fn data_offset(&self) -> usize {
        self.offset + 16
    }
}

/// Parses the record layout of a *well-formed* capture. Returns `None`
/// when the input is not a clean little-or-big-endian classic pcap —
/// the mangler only damages intact files.
fn parse_spans(bytes: &[u8]) -> Option<(Layout, Vec<Span>)> {
    if bytes.len() < 24 {
        return None;
    }
    let magic = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let layout = match magic {
        0xa1b2_c3d4 => Layout {
            swapped: false,
            resolution: TsResolution::Micro,
        },
        0xd4c3_b2a1 => Layout {
            swapped: true,
            resolution: TsResolution::Micro,
        },
        0xa1b2_3c4d => Layout {
            swapped: false,
            resolution: TsResolution::Nano,
        },
        0x4d3c_b2a1 => Layout {
            swapped: true,
            resolution: TsResolution::Nano,
        },
        _ => return None,
    };
    let read_u32 = |b: &[u8]| {
        let arr = [b[0], b[1], b[2], b[3]];
        if layout.swapped {
            u32::from_be_bytes(arr)
        } else {
            u32::from_le_bytes(arr)
        }
    };
    let mut spans = Vec::new();
    let mut pos = 24usize;
    while pos < bytes.len() {
        if bytes.len() - pos < 16 {
            return None;
        }
        let incl_len = read_u32(&bytes[pos + 8..pos + 12]) as usize;
        if bytes.len() - pos - 16 < incl_len {
            return None;
        }
        spans.push(Span {
            offset: pos,
            data_len: incl_len,
        });
        pos += 16 + incl_len;
    }
    Some((layout, spans))
}

/// `true` for fault kinds that cut the file short (at most one such fault
/// is meaningful per file, and it must be the last damage applied).
fn is_truncating(kind: FaultKind) -> bool {
    matches!(
        kind,
        FaultKind::TruncatedGlobalHeader
            | FaultKind::TruncatedRecordHeader
            | FaultKind::MidRecordEof
    )
}

/// Applies one `kind` fault to `buf` targeting record `span`, drawing any
/// free parameters (cut point, garbage length) from `rng`. Returns the
/// fault actually applied, or `None` when the record cannot host it
/// (e.g. a mid-record cut in an empty record).
fn apply(
    buf: &mut Vec<u8>,
    layout: Layout,
    span: Span,
    kind: FaultKind,
    rng: &mut SplitMix64,
) -> Option<InjectedFault> {
    let offset = match kind {
        FaultKind::TruncatedGlobalHeader => {
            let keep = 4 + rng.below(20) as usize; // magic survives, rest cut
            buf.truncate(keep);
            keep as u64
        }
        FaultKind::BadMagic => {
            layout.put_u32(&mut buf[0..4], 0x0bad_f00d);
            0
        }
        FaultKind::TruncatedRecordHeader => {
            let cut = span.offset + 1 + rng.below(15) as usize;
            buf.truncate(cut);
            span.offset as u64
        }
        FaultKind::MidRecordEof => {
            if span.data_len < 2 {
                return None;
            }
            let cut = span.data_offset() + 1 + rng.below(span.data_len as u64 - 1) as usize;
            buf.truncate(cut);
            span.offset as u64
        }
        FaultKind::GarbageSplice => {
            let len = 16 + rng.below(240) as usize;
            let garbage: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            let at = span.offset;
            buf.splice(at..at, garbage);
            at as u64
        }
        FaultKind::ZeroLength => {
            if span.data_len == 0 {
                return None;
            }
            let at = span.offset + 8;
            layout.put_u32(&mut buf[at..at + 4], 0);
            span.offset as u64
        }
        FaultKind::OversizedLength => {
            let at = span.offset + 8;
            let bogus = MAX_INCL_LEN + 1 + rng.below(0x1000) as u32;
            layout.put_u32(&mut buf[at..at + 4], bogus);
            span.offset as u64
        }
        FaultKind::CorruptTimestamp => {
            let units = layout.resolution.units_per_sec();
            let room = u64::from(u32::MAX) - units;
            let bogus = (units + 1 + rng.below(room)) as u32;
            let at = span.offset + 4;
            layout.put_u32(&mut buf[at..at + 4], bogus);
            span.offset as u64
        }
    };
    Some(InjectedFault { kind, offset })
}

/// Injects exactly one fault of `kind` into a clean capture, choosing the
/// target record and free parameters deterministically from `seed`.
///
/// Returns `None` when `bytes` is not a well-formed capture or has no
/// record able to host the fault.
pub fn inject(bytes: &[u8], kind: FaultKind, seed: u64) -> Option<(Vec<u8>, InjectedFault)> {
    let (layout, spans) = parse_spans(bytes)?;
    if spans.is_empty() {
        return None;
    }
    let mut rng = SplitMix64::new(seed ^ (kind as u64).wrapping_mul(0x9e37_79b9));
    // Target a mid-corpus record so damage sits between good records
    // (truncations naturally target wherever they cut).
    let span = spans[rng.below(spans.len() as u64) as usize];
    let mut out = bytes.to_vec();
    let fault = apply(&mut out, layout, span, kind, &mut rng)?;
    Some((out, fault))
}

/// How to mangle a capture: which classes, how many faults, which seed.
#[derive(Debug, Clone)]
pub struct MangleSpec {
    /// Seed for every random choice (target records, cut points, garbage).
    pub seed: u64,
    /// Number of faults to inject (best effort: faults that cannot be
    /// hosted are skipped, and at most one truncating fault applies).
    pub faults: usize,
    /// The classes to draw from.
    pub kinds: Vec<FaultKind>,
}

impl Default for MangleSpec {
    fn default() -> MangleSpec {
        MangleSpec {
            seed: 0x7c9a_0001,
            faults: 1,
            kinds: FaultKind::ALL.to_vec(),
        }
    }
}

/// Injects up to `spec.faults` faults into a clean capture.
///
/// Non-truncating faults target distinct records, applied back-to-front so
/// earlier offsets stay valid; at most one truncating fault is kept and it
/// is applied at the highest-offset target, so every reported
/// [`InjectedFault`] survives into the returned bytes. Returns the input
/// unchanged (no faults) when it is not a well-formed capture.
pub fn mangle(bytes: &[u8], spec: &MangleSpec) -> (Vec<u8>, Vec<InjectedFault>) {
    let Some((layout, spans)) = parse_spans(bytes) else {
        return (bytes.to_vec(), Vec::new());
    };
    if spans.is_empty() || spec.kinds.is_empty() || spec.faults == 0 {
        return (bytes.to_vec(), Vec::new());
    }
    let mut rng = SplitMix64::new(spec.seed);

    // Draw kinds; keep at most one truncating fault.
    let mut truncating: Option<FaultKind> = None;
    let mut in_place: Vec<FaultKind> = Vec::new();
    for _ in 0..spec.faults {
        let kind = spec.kinds[rng.below(spec.kinds.len() as u64) as usize];
        if is_truncating(kind) {
            truncating.get_or_insert(kind);
        } else {
            in_place.push(kind);
        }
    }

    // Assign distinct target records: a Fisher-Yates shuffle of indices.
    let mut order: Vec<usize> = (0..spans.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    in_place.truncate(
        order
            .len()
            .saturating_sub(usize::from(truncating.is_some())),
    );

    // Plan: truncation targets the last record; in-place faults target
    // shuffled earlier records. Apply in descending offset order.
    let mut plan: Vec<(Span, FaultKind)> = Vec::new();
    if let Some(kind) = truncating {
        let span = if kind == FaultKind::TruncatedGlobalHeader {
            spans[0] // ignored by apply; header damage has no record target
        } else {
            spans[spans.len() - 1]
        };
        plan.push((span, kind));
    }
    let reserved = usize::from(truncating.is_some());
    for (kind, &idx) in in_place.iter().zip(
        order
            .iter()
            .filter(|&&i| i + reserved < spans.len() || reserved == 0),
    ) {
        plan.push((spans[idx], *kind));
    }
    plan.sort_by_key(|p| std::cmp::Reverse(p.0.offset));

    let mut out = bytes.to_vec();
    let mut faults: Vec<InjectedFault> = Vec::new();
    for (span, kind) in plan {
        // A global-header truncation wipes the whole record stream; it is
        // only applied alone.
        if kind == FaultKind::TruncatedGlobalHeader && !faults.is_empty() {
            continue;
        }
        let before = out.len();
        if let Some(fault) = apply(&mut out, layout, span, kind, &mut rng) {
            // A splice inserts bytes at its offset, shifting every fault
            // already applied (they all sit at higher offsets).
            let inserted = out.len().saturating_sub(before) as u64;
            if inserted > 0 {
                for prior in &mut faults {
                    if prior.offset > fault.offset {
                        prior.offset += inserted;
                    }
                }
            }
            faults.push(fault);
            if kind == FaultKind::TruncatedGlobalHeader {
                break;
            }
        }
    }
    faults.sort_by_key(|f| f.offset);
    (out, faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap_io::write_pcap;
    use crate::record::test_util::rec;
    use crate::record::Trace;
    use tcpa_wire::pcap::{RecordWalker, SalvageSummary};
    use tcpa_wire::TcpFlags;

    /// Salvage-walks a capture: its record count and damage ledger.
    fn salvage_records(bytes: &[u8]) -> (usize, SalvageSummary) {
        let mut walker = RecordWalker::salvage(bytes);
        (walker.by_ref().count(), walker.into_summary())
    }

    fn clean_capture() -> Vec<u8> {
        let trace: Trace = vec![
            rec(0, 1, 2, TcpFlags::SYN, 100, 0, 0),
            rec(5, 2, 1, TcpFlags::SYN | TcpFlags::ACK, 900, 0, 101),
            rec(10, 1, 2, TcpFlags::ACK | TcpFlags::PSH, 101, 512, 901),
            rec(15, 1, 2, TcpFlags::ACK | TcpFlags::PSH, 613, 512, 901),
            rec(20, 2, 1, TcpFlags::ACK, 901, 0, 1125),
        ]
        .into_iter()
        .collect();
        write_pcap(&trace, Vec::new(), TsResolution::Micro, 0).expect("vec write")
    }

    #[test]
    fn inject_is_deterministic() {
        let clean = clean_capture();
        for kind in FaultKind::ALL {
            let a = inject(&clean, kind, 42).expect("fault applies");
            let b = inject(&clean, kind, 42).expect("fault applies");
            assert_eq!(a, b, "{kind}: same seed must give same bytes");
        }
    }

    #[test]
    fn every_kind_damages_the_file() {
        let clean = clean_capture();
        let (clean_recs, clean_summary) = salvage_records(&clean);
        assert!(clean_summary.is_clean());
        for kind in FaultKind::ALL {
            let (mangled, fault) = inject(&clean, kind, 7).expect("fault applies");
            assert_eq!(fault.kind, kind);
            assert_ne!(mangled, clean, "{kind}: output must differ");
            let (recs, summary) = salvage_records(&mangled);
            assert!(
                !summary.is_clean(),
                "{kind}: salvage must notice the damage"
            );
            assert!(
                recs <= clean_recs + 1,
                "{kind}: salvage must not invent records"
            );
        }
    }

    #[test]
    fn mangle_reports_offsets_into_the_output() {
        let clean = clean_capture();
        let spec = MangleSpec {
            seed: 99,
            faults: 3,
            kinds: vec![
                FaultKind::GarbageSplice,
                FaultKind::CorruptTimestamp,
                FaultKind::ZeroLength,
            ],
        };
        let (mangled, faults) = mangle(&clean, &spec);
        assert!(!faults.is_empty());
        for f in &faults {
            assert!(
                (f.offset as usize) < mangled.len(),
                "{f:?} points outside the output"
            );
        }
        // Deterministic for the same spec.
        let (mangled2, faults2) = mangle(&clean, &spec);
        assert_eq!(mangled, mangled2);
        assert_eq!(faults, faults2);
    }

    #[test]
    fn mangle_on_garbage_input_is_a_no_op() {
        let garbage = vec![1u8, 2, 3, 4, 5];
        let (out, faults) = mangle(&garbage, &MangleSpec::default());
        assert_eq!(out, garbage);
        assert!(faults.is_empty());
    }
}
