//! Classic libpcap capture files — the format `tcpdump` writes.
//!
//! The paper's input corpus is tcpdump traces; this module lets the
//! reproduction round-trip its simulated traces through the same container
//! so they can be inspected with standard tools, and lets the analyzer
//! ingest real captures.
//!
//! Both byte orders and both timestamp resolutions (microsecond magic
//! `0xa1b2c3d4`, nanosecond magic `0xa1b23c4d`) are supported on read;
//! writes use little-endian with a caller-chosen resolution.
//!
//! One [`RecordWalker`] reads a capture held in memory, yielding records
//! that borrow their bytes from the buffer, under one of two policies.
//! The strict policy stops at the first malformed byte with a
//! [`PcapError`] naming the damage and its byte offset. The salvage
//! policy is the graceful-degradation path (§3 of the paper: real
//! measurement data is damaged): it classifies each damaged region with a
//! [`FaultKind`], resynchronizes on the next plausible record header, and
//! accounts for every skipped byte in a [`SalvageSummary`].

use std::io::{self, Write};

/// Timestamp resolution of a capture file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsResolution {
    /// Microsecond timestamps (magic `0xa1b2c3d4`).
    Micro,
    /// Nanosecond timestamps (magic `0xa1b23c4d`).
    Nano,
}

impl TsResolution {
    fn magic(self) -> u32 {
        match self {
            TsResolution::Micro => 0xa1b2_c3d4,
            TsResolution::Nano => 0xa1b2_3c4d,
        }
    }

    /// Subsecond units per second at this resolution.
    pub fn units_per_sec(self) -> u64 {
        match self {
            TsResolution::Micro => 1_000_000,
            TsResolution::Nano => 1_000_000_000,
        }
    }
}

/// `LINKTYPE_ETHERNET`, the only link type the simulators emit.
pub const LINKTYPE_ETHERNET: u32 = 1;

/// Captured lengths above this are treated as corrupt rather than
/// allocated (64 MiB; no real link produces frames near this).
pub const MAX_INCL_LEN: u32 = 0x0400_0000;

/// One captured record, borrowed from the capture's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcapRecord<'a> {
    /// Capture timestamp in nanoseconds since the epoch (normalized from
    /// the file's native resolution).
    pub ts_nanos: u64,
    /// Original packet length on the wire (may exceed `data.len()` when the
    /// capture used a snap length).
    pub orig_len: u32,
    /// The captured bytes.
    pub data: &'a [u8],
}

/// Errors arising when reading or writing capture files. Every format
/// variant names the damage and carries the byte offset where it was
/// found, so a census failure line can point at the corrupt region.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The capture's magic number is unrecognized.
    BadMagic {
        /// The magic actually found (read little-endian).
        magic: u32,
    },
    /// The file ends inside the 24-byte global header.
    TruncatedGlobalHeader {
        /// Bytes actually present.
        have: usize,
    },
    /// The file ends inside a 16-byte record header.
    TruncatedRecordHeader {
        /// Byte offset of the record header.
        offset: u64,
        /// Header bytes actually present.
        have: usize,
    },
    /// The file ends inside a record's captured data.
    TruncatedRecordData {
        /// Byte offset of the record header.
        offset: u64,
        /// The record's claimed captured length.
        incl_len: u32,
        /// Data bytes actually present.
        have: usize,
    },
    /// A record's `incl_len` is implausibly large (would OOM).
    BadRecordLength {
        /// Byte offset of the record header.
        offset: u64,
        /// The claimed captured length.
        incl_len: u32,
    },
    /// A record's subsecond timestamp field exceeds one second.
    BadTimestamp {
        /// Byte offset of the record header.
        offset: u64,
        /// The out-of-range subsecond value.
        subsec: u32,
    },
    /// The capture's link type is one the decoder cannot parse.
    UnsupportedLinkType {
        /// The link type found in the global header.
        linktype: u32,
    },
}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

impl core::fmt::Display for PcapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap i/o error: {e}"),
            PcapError::BadMagic { magic } => {
                write!(f, "unrecognized capture magic 0x{magic:08x}")
            }
            PcapError::TruncatedGlobalHeader { have } => {
                write!(f, "truncated global header ({have} of 24 bytes)")
            }
            PcapError::TruncatedRecordHeader { offset, have } => {
                write!(
                    f,
                    "truncated record header at byte {offset} ({have} of 16 bytes)"
                )
            }
            PcapError::TruncatedRecordData {
                offset,
                incl_len,
                have,
            } => write!(
                f,
                "record at byte {offset} truncated ({have} of {incl_len} data bytes)"
            ),
            PcapError::BadRecordLength { offset, incl_len } => {
                write!(f, "implausible record length {incl_len} at byte {offset}")
            }
            PcapError::BadTimestamp { offset, subsec } => {
                write!(
                    f,
                    "corrupt timestamp (subsecond field {subsec}) at byte {offset}"
                )
            }
            PcapError::UnsupportedLinkType { linktype } => {
                write!(f, "unsupported link type {linktype}")
            }
        }
    }
}

impl std::error::Error for PcapError {}

/// Byte-order + resolution combination a magic number selects.
#[derive(Debug, Clone, Copy)]
struct Layout {
    swapped: bool,
    resolution: TsResolution,
}

impl Layout {
    fn from_magic(magic_le: u32) -> Option<Layout> {
        let (swapped, resolution) = match magic_le {
            0xa1b2_c3d4 => (false, TsResolution::Micro),
            0xd4c3_b2a1 => (true, TsResolution::Micro),
            0xa1b2_3c4d => (false, TsResolution::Nano),
            0x4d3c_b2a1 => (true, TsResolution::Nano),
            _ => return None,
        };
        Some(Layout {
            swapped,
            resolution,
        })
    }

    /// The 32-bit field at byte `at` of a fixed-size header.
    fn u32_at<const N: usize>(&self, header: &[u8; N], at: usize) -> u32 {
        let b = [header[at], header[at + 1], header[at + 2], header[at + 3]];
        if self.swapped {
            u32::from_be_bytes(b)
        } else {
            u32::from_le_bytes(b)
        }
    }
}

/// Why no record parses at an offset: what the strict policy reports
/// (see [`RecordFault::at`]) and the salvage policy classifies.
#[derive(Debug, Clone, Copy)]
enum RecordFault {
    TruncatedHeader { have: usize },
    BadTimestamp { subsec: u32, incl_len: u32 },
    BadLength { incl_len: u32 },
    TruncatedData { incl_len: u32, have: usize },
}

impl RecordFault {
    fn kind(self) -> FaultKind {
        match self {
            RecordFault::TruncatedHeader { .. } => FaultKind::TruncatedRecordHeader,
            RecordFault::BadTimestamp { .. } => FaultKind::CorruptTimestamp,
            RecordFault::BadLength { .. } => FaultKind::OversizedLength,
            RecordFault::TruncatedData { .. } => FaultKind::MidRecordEof,
        }
    }

    /// The strict error for this fault in the record header at `offset`.
    fn at(self, offset: u64) -> PcapError {
        match self {
            RecordFault::TruncatedHeader { have } => {
                PcapError::TruncatedRecordHeader { offset, have }
            }
            RecordFault::BadTimestamp { subsec, .. } => PcapError::BadTimestamp { offset, subsec },
            RecordFault::BadLength { incl_len } => PcapError::BadRecordLength { offset, incl_len },
            RecordFault::TruncatedData { incl_len, have } => PcapError::TruncatedRecordData {
                offset,
                incl_len,
                have,
            },
        }
    }
}

/// Parses the record whose header starts at `pos`, borrowing its data
/// from `bytes`, and returns it with the offset just past it.
fn parse_record(
    bytes: &[u8],
    pos: usize,
    layout: Layout,
) -> Result<(PcapRecord<'_>, usize), RecordFault> {
    let rest = bytes.get(pos..).unwrap_or_default();
    let Some((header, rest)) = rest.split_first_chunk::<16>() else {
        return Err(RecordFault::TruncatedHeader { have: rest.len() });
    };
    let ts_sec = layout.u32_at(header, 0);
    let ts_sub = layout.u32_at(header, 4);
    let incl_len = layout.u32_at(header, 8);
    let orig_len = layout.u32_at(header, 12);
    if u64::from(ts_sub) >= layout.resolution.units_per_sec() {
        return Err(RecordFault::BadTimestamp {
            subsec: ts_sub,
            incl_len,
        });
    }
    // Refuse rather than trust a length no real link produces. Checked
    // conversion: a length that does not fit usize is the same fault, not
    // a silent truncation that misaligns every later record.
    let len = usize::try_from(incl_len)
        .ok()
        .filter(|_| incl_len <= MAX_INCL_LEN)
        .ok_or(RecordFault::BadLength { incl_len })?;
    let Some(data) = rest.get(..len) else {
        return Err(RecordFault::TruncatedData {
            incl_len,
            have: rest.len(),
        });
    };
    let per_unit = 1_000_000_000 / layout.resolution.units_per_sec();
    let ts_nanos = u64::from(ts_sec) * 1_000_000_000 + u64::from(ts_sub) * per_unit;
    let record = PcapRecord {
        ts_nanos,
        orig_len,
        data,
    };
    Ok((record, pos + 16 + len))
}

// ---------------------------------------------------------------------------
// Salvage: graceful-degradation reading of damaged captures.
// ---------------------------------------------------------------------------

/// The file-level error taxonomy — the §3 measurement-error classes
/// translated to capture-file damage. The mangler injects these; the
/// salvage reader classifies what it skips with the same vocabulary so
/// tests can assert recovery per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// The file ends inside the 24-byte global header.
    TruncatedGlobalHeader,
    /// The global header's magic number is unrecognized.
    BadMagic,
    /// The file ends inside a 16-byte record header.
    TruncatedRecordHeader,
    /// The file ends inside a record's captured data.
    MidRecordEof,
    /// Garbage bytes spliced between two records.
    GarbageSplice,
    /// A record whose `incl_len` was zeroed, stranding its data bytes.
    ZeroLength,
    /// A record whose `incl_len` is implausibly large.
    OversizedLength,
    /// A record whose subsecond timestamp field exceeds one second.
    CorruptTimestamp,
}

impl FaultKind {
    /// Every fault class, in a stable order (fixture and report order).
    pub const ALL: [FaultKind; 8] = [
        FaultKind::TruncatedGlobalHeader,
        FaultKind::BadMagic,
        FaultKind::TruncatedRecordHeader,
        FaultKind::MidRecordEof,
        FaultKind::GarbageSplice,
        FaultKind::ZeroLength,
        FaultKind::OversizedLength,
        FaultKind::CorruptTimestamp,
    ];

    /// Stable kebab-case label (fixture file names, report rendering).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::TruncatedGlobalHeader => "truncated-global-header",
            FaultKind::BadMagic => "bad-magic",
            FaultKind::TruncatedRecordHeader => "truncated-record-header",
            FaultKind::MidRecordEof => "mid-record-eof",
            FaultKind::GarbageSplice => "garbage-splice",
            FaultKind::ZeroLength => "zero-length",
            FaultKind::OversizedLength => "oversized-length",
            FaultKind::CorruptTimestamp => "corrupt-timestamp",
        }
    }
}

impl core::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// One contiguous damaged byte range the salvage reader skipped.
///
/// The `kind` is the salvage reader's *classification* of why parsing
/// failed at the region's start. Truncation and magic damage classify
/// exactly; damage inside the record stream (garbage, stranded payload
/// bytes) is classified by how its first bytes misparse, which is
/// deterministic but heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DamageRegion {
    /// Byte offset where parsing failed.
    pub offset: u64,
    /// Bytes skipped before parsing resynchronized (or EOF).
    pub len: u64,
    /// Classification of the damage.
    pub kind: FaultKind,
}

/// What a salvage walk recovered and what it had to skip.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageSummary {
    /// Total bytes presented.
    pub bytes_total: u64,
    /// Bytes inside damaged regions (never parsed into a record).
    pub bytes_skipped: u64,
    /// Every damaged region, in file order.
    pub damage: Vec<DamageRegion>,
    /// The global header was unusable; little-endian microsecond layout
    /// and Ethernet framing were assumed.
    pub header_assumed: bool,
    /// Link type (from the header, or [`LINKTYPE_ETHERNET`] if assumed).
    pub linktype: u32,
}

impl SalvageSummary {
    /// `true` when the file parsed without any damage.
    pub fn is_clean(&self) -> bool {
        self.damage.is_empty() && !self.header_assumed
    }
}

/// Cap on how far past a damaged byte the resynchronization scan looks
/// for the next plausible record header. Bounds worst-case work on
/// adversarial input to O(window) per damaged region.
const RESYNC_WINDOW: usize = 4 << 20;

/// Largest plausible timestamp jump (one day, either direction) between
/// the last good record and a resync candidate. Packet bytes misparsed as
/// a record header rarely land within a day of the capture's clock, so
/// this filters coincidental parses that would cascade misalignment.
const MAX_TS_JUMP_SECS: u64 = 86_400;

fn ts_plausible(prev_ts_nanos: Option<u64>, candidate_nanos: u64) -> bool {
    match prev_ts_nanos {
        None => true,
        Some(prev) => candidate_nanos.abs_diff(prev) / 1_000_000_000 <= MAX_TS_JUMP_SECS,
    }
}

/// Scans forward for the next byte offset where a plausible record starts.
/// A candidate must parse, sit within [`MAX_TS_JUMP_SECS`] of the last
/// good record's timestamp, *and* chain: the record after it must parse
/// too, or the candidate record must end exactly at EOF.
fn find_resync(
    bytes: &[u8],
    from: usize,
    layout: Layout,
    prev_ts_nanos: Option<u64>,
) -> Option<usize> {
    let last = bytes
        .len()
        .checked_sub(16)?
        .min(from.saturating_add(RESYNC_WINDOW));
    (from..=last).find(|&o| match parse_record(bytes, o, layout) {
        Ok((rec, next)) => {
            ts_plausible(prev_ts_nanos, rec.ts_nanos)
                && (next == bytes.len() || parse_record(bytes, next, layout).is_ok())
        }
        Err(_) => false,
    })
}

/// What a [`RecordWalker`] does at a malformed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    Strict,
    Salvage,
}

/// Walks the records of a capture held in memory, yielding each one as a
/// [`PcapRecord`] that borrows its data from the buffer.
///
/// The walk is the same under both policies; they differ only at a
/// malformed record. [`RecordWalker::strict`] stops there and keeps the
/// fault for [`RecordWalker::error`]. [`RecordWalker::salvage`] never
/// fails and never panics: it classifies the damaged region, skips to
/// the next plausible record header and accounts for every skipped byte
/// in [`RecordWalker::into_summary`].
#[derive(Debug)]
pub struct RecordWalker<'a> {
    bytes: &'a [u8],
    /// Byte offset of the next record header.
    pos: usize,
    layout: Layout,
    policy: Policy,
    /// Timestamp of the last good record (resync plausibility).
    prev_ts_nanos: Option<u64>,
    /// The fault that ended a strict walk, with its byte offset.
    fault: Option<(u64, RecordFault)>,
    summary: SalvageSummary,
}

impl<'a> RecordWalker<'a> {
    fn new(bytes: &'a [u8], layout: Layout, policy: Policy, linktype: u32) -> Self {
        RecordWalker {
            bytes,
            pos: 24,
            layout,
            policy,
            prev_ts_nanos: None,
            fault: None,
            summary: SalvageSummary {
                bytes_total: bytes.len() as u64,
                linktype,
                ..SalvageSummary::default()
            },
        }
    }

    /// Opens a capture under the strict policy: an unusable global header
    /// is an error, and the walk ends at the first malformed record.
    pub fn strict(bytes: &'a [u8]) -> Result<Self, PcapError> {
        let Some(header) = bytes.first_chunk::<24>() else {
            return Err(PcapError::TruncatedGlobalHeader { have: bytes.len() });
        };
        let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let layout = Layout::from_magic(magic).ok_or(PcapError::BadMagic { magic })?;
        Ok(Self::new(
            bytes,
            layout,
            Policy::Strict,
            layout.u32_at(header, 20),
        ))
    }

    /// Opens a possibly damaged capture under the salvage policy. An
    /// unrecognized or truncated global header is itself damage:
    /// little-endian microsecond layout and Ethernet framing are then
    /// assumed, which recovers the overwhelmingly common case (tcpdump
    /// default).
    pub fn salvage(bytes: &'a [u8]) -> Self {
        let layout = bytes
            .first_chunk::<4>()
            .map(|magic| Layout::from_magic(u32::from_le_bytes(*magic)));
        if let (Some(header), Some(Some(layout))) = (bytes.first_chunk::<24>(), layout) {
            return Self::new(bytes, layout, Policy::Salvage, layout.u32_at(header, 20));
        }
        let assumed = Layout {
            swapped: false,
            resolution: TsResolution::Micro,
        };
        let mut walker = Self::new(bytes, assumed, Policy::Salvage, LINKTYPE_ETHERNET);
        walker.summary.header_assumed = true;
        if bytes.len() >= 24 {
            walker.record_damage(0, 4, FaultKind::BadMagic);
        } else {
            // Too short to hold any record: the whole input is damage.
            let kind = match layout {
                Some(None) => FaultKind::BadMagic,
                _ => FaultKind::TruncatedGlobalHeader,
            };
            walker.record_damage(0, bytes.len(), kind);
        }
        walker
    }

    /// The capture's link type (e.g. [`LINKTYPE_ETHERNET`]; assumed
    /// Ethernet when salvage could not read the global header).
    pub fn linktype(&self) -> u32 {
        self.summary.linktype
    }

    /// The malformed record that ended a strict walk, naming the damage
    /// and its byte offset; `None` while the walk is clean.
    pub fn error(&self) -> Option<PcapError> {
        self.fault.map(|(offset, fault)| fault.at(offset))
    }

    /// The damage ledger of the walk so far (empty for a strict walk).
    pub fn into_summary(self) -> SalvageSummary {
        self.summary
    }

    fn record_damage(&mut self, offset: usize, len: usize, kind: FaultKind) {
        self.summary.damage.push(DamageRegion {
            offset: offset as u64,
            len: len as u64,
            kind,
        });
        self.summary.bytes_skipped += len as u64;
    }

    /// Salvage: records the damaged region at `self.pos` and moves to the
    /// next plausible record header (or EOF).
    fn skip_damage(&mut self, fault: RecordFault) {
        let (bytes, pos, layout) = (self.bytes, self.pos, self.layout);
        // A corrupt-timestamp header still carries trustworthy length
        // fields: jump the whole record when that lands on another record
        // (or EOF), so false sync points inside its payload cannot cascade
        // misalignment. An unconvertible length disqualifies the jump
        // instead of truncating to a bogus target.
        let skip_whole = match fault {
            RecordFault::BadTimestamp { incl_len, .. } if incl_len <= MAX_INCL_LEN => {
                usize::try_from(incl_len).ok().and_then(|len| {
                    let end = pos.saturating_add(16).saturating_add(len);
                    (end == bytes.len() || parse_record(bytes, end, layout).is_ok()).then_some(end)
                })
            }
            _ => None,
        };
        let resync = skip_whole
            .or_else(|| find_resync(bytes, pos + 1, layout, self.prev_ts_nanos))
            .unwrap_or(bytes.len());
        self.record_damage(pos, resync - pos, fault.kind());
        self.pos = resync;
    }
}

impl<'a> Iterator for RecordWalker<'a> {
    type Item = PcapRecord<'a>;

    fn next(&mut self) -> Option<PcapRecord<'a>> {
        while self.pos < self.bytes.len() {
            match parse_record(self.bytes, self.pos, self.layout) {
                Ok((record, next)) => {
                    self.prev_ts_nanos = Some(record.ts_nanos);
                    self.pos = next;
                    return Some(record);
                }
                Err(fault) => match self.policy {
                    Policy::Strict => {
                        self.fault = Some((self.pos as u64, fault));
                        self.pos = self.bytes.len();
                    }
                    Policy::Salvage => self.skip_damage(fault),
                },
            }
        }
        None
    }
}

/// Streaming writer for classic pcap files (little-endian).
pub struct PcapWriter<W: Write> {
    inner: W,
    resolution: TsResolution,
}

impl<W: Write> PcapWriter<W> {
    /// Creates a capture file, emitting the global header.
    pub fn new(
        mut inner: W,
        resolution: TsResolution,
        linktype: u32,
        snaplen: u32,
    ) -> io::Result<Self> {
        inner.write_all(&resolution.magic().to_le_bytes())?;
        inner.write_all(&2u16.to_le_bytes())?; // version major
        inner.write_all(&4u16.to_le_bytes())?; // version minor
        inner.write_all(&0i32.to_le_bytes())?; // thiszone
        inner.write_all(&0u32.to_le_bytes())?; // sigfigs
        inner.write_all(&snaplen.to_le_bytes())?;
        inner.write_all(&linktype.to_le_bytes())?;
        Ok(PcapWriter { inner, resolution })
    }

    /// Appends one record. `ts_nanos` is truncated to the file
    /// resolution. Fails with `InvalidInput` rather than wrapping when a
    /// field does not fit the 32-bit on-disk format (a timestamp past
    /// 2106, or more than 4 GiB of captured data).
    pub fn write_record(&mut self, ts_nanos: u64, orig_len: u32, data: &[u8]) -> io::Result<()> {
        let per_unit = 1_000_000_000 / self.resolution.units_per_sec();
        let ts_sec = u32::try_from(ts_nanos / 1_000_000_000).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("timestamp {ts_nanos}ns overflows the 32-bit pcap seconds field"),
            )
        })?;
        // Subseconds always fit: x % 1e9 / per_unit < units_per_sec <= 1e9.
        let ts_sub = u32::try_from((ts_nanos % 1_000_000_000) / per_unit)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "subsecond field overflow"))?;
        let incl_len = u32::try_from(data.len()).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "record of {} bytes overflows the 32-bit incl_len field",
                    data.len()
                ),
            )
        })?;
        self.inner.write_all(&ts_sec.to_le_bytes())?;
        self.inner.write_all(&ts_sub.to_le_bytes())?;
        self.inner.write_all(&incl_len.to_le_bytes())?;
        self.inner.write_all(&orig_len.to_le_bytes())?;
        self.inner.write_all(data)
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every record of a strict walk, or the fault that ended it.
    fn strict_records(bytes: &[u8]) -> Result<Vec<PcapRecord<'_>>, PcapError> {
        let mut walker = RecordWalker::strict(bytes)?;
        let records: Vec<PcapRecord<'_>> = walker.by_ref().collect();
        walker.error().map_or(Ok(records), Err)
    }

    fn salvage_records(bytes: &[u8]) -> (Vec<PcapRecord<'_>>, SalvageSummary) {
        let mut walker = RecordWalker::salvage(bytes);
        let records = walker.by_ref().collect();
        (records, walker.into_summary())
    }

    fn round_trip(resolution: TsResolution) {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf, resolution, LINKTYPE_ETHERNET, 65535).unwrap();
            w.write_record(1_500_000_123_456_789_000, 100, &[1, 2, 3])
                .unwrap();
            w.write_record(1_500_000_124_000_000_500, 4, &[9, 9, 9, 9])
                .unwrap();
            w.finish().unwrap();
        }
        assert_eq!(
            RecordWalker::strict(&buf).unwrap().linktype(),
            LINKTYPE_ETHERNET
        );
        let recs = strict_records(&buf).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].data, [1, 2, 3]);
        assert_eq!(recs[0].orig_len, 100);
        match resolution {
            TsResolution::Micro => {
                assert_eq!(recs[0].ts_nanos, 1_500_000_123_456_789_000);
                // sub-µs truncated
                assert_eq!(recs[1].ts_nanos, 1_500_000_124_000_000_000);
            }
            TsResolution::Nano => {
                assert_eq!(recs[1].ts_nanos, 1_500_000_124_000_000_500);
            }
        }
    }

    #[test]
    fn micro_round_trip() {
        round_trip(TsResolution::Micro);
    }

    #[test]
    fn nano_round_trip() {
        round_trip(TsResolution::Nano);
    }

    #[test]
    fn big_endian_file_readable() {
        // Hand-build a big-endian µs file with one empty record.
        let mut buf = Vec::new();
        buf.extend_from_slice(&0xa1b2_c3d4u32.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&0i32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&65535u32.to_be_bytes());
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&10u32.to_be_bytes()); // ts_sec
        buf.extend_from_slice(&250_000u32.to_be_bytes()); // ts_usec
        buf.extend_from_slice(&0u32.to_be_bytes()); // incl_len
        buf.extend_from_slice(&60u32.to_be_bytes()); // orig_len
        let mut r = RecordWalker::strict(&buf).unwrap();
        assert_eq!(r.linktype(), LINKTYPE_ETHERNET);
        let rec = r.next().unwrap();
        assert_eq!(rec.ts_nanos, 10_250_000_000);
        assert_eq!(rec.orig_len, 60);
        assert!(r.next().is_none());
        assert!(r.error().is_none());
    }

    #[test]
    fn bad_magic_rejected_with_value() {
        let buf = vec![0u8; 24];
        match RecordWalker::strict(&buf) {
            Err(PcapError::BadMagic { magic: 0 }) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn truncated_global_header_reports_have() {
        match RecordWalker::strict(&[0xd4u8, 0xc3, 0xb2]) {
            Err(PcapError::TruncatedGlobalHeader { have: 3 }) => {}
            other => panic!("expected TruncatedGlobalHeader, got {other:?}"),
        }
    }

    #[test]
    fn truncated_record_reports_offset_and_counts() {
        let mut buf = Vec::new();
        {
            let mut w =
                PcapWriter::new(&mut buf, TsResolution::Micro, LINKTYPE_ETHERNET, 65535).unwrap();
            w.write_record(0, 10, &[0; 10]).unwrap();
            w.finish().unwrap();
        }
        buf.truncate(buf.len() - 3);
        match strict_records(&buf) {
            Err(PcapError::TruncatedRecordData {
                offset: 24,
                incl_len: 10,
                have: 7,
            }) => {}
            other => panic!("expected TruncatedRecordData, got {other:?}"),
        }
        buf.truncate(24 + 9);
        match strict_records(&buf) {
            Err(PcapError::TruncatedRecordHeader {
                offset: 24,
                have: 9,
            }) => {}
            other => panic!("expected TruncatedRecordHeader, got {other:?}"),
        }
    }

    #[test]
    fn absurd_record_length_rejected_with_offset() {
        let mut buf = Vec::new();
        {
            let w =
                PcapWriter::new(&mut buf, TsResolution::Micro, LINKTYPE_ETHERNET, 65535).unwrap();
            w.finish().unwrap();
        }
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0xffff_ffffu32.to_le_bytes()); // incl_len
        buf.extend_from_slice(&0u32.to_le_bytes());
        match strict_records(&buf) {
            Err(PcapError::BadRecordLength {
                offset: 24,
                incl_len: 0xffff_ffff,
            }) => {}
            other => panic!("expected BadRecordLength, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_subsecond_rejected_with_offset() {
        let mut buf = Vec::new();
        {
            let w =
                PcapWriter::new(&mut buf, TsResolution::Micro, LINKTYPE_ETHERNET, 65535).unwrap();
            w.finish().unwrap();
        }
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&2_000_000u32.to_le_bytes()); // ts_usec >= 1e6
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        match strict_records(&buf) {
            Err(PcapError::BadTimestamp {
                offset: 24,
                subsec: 2_000_000,
            }) => {}
            other => panic!("expected BadTimestamp, got {other:?}"),
        }
    }
    /// A little-endian µs capture with `n` small records, returned with
    /// the byte offsets of each record header.
    fn small_capture(n: usize) -> (Vec<u8>, Vec<usize>) {
        let mut buf = Vec::new();
        let mut offsets = Vec::new();
        let mut w = PcapWriter::new(&mut buf, TsResolution::Micro, LINKTYPE_ETHERNET, 65535)
            .expect("vec write");
        for i in 0..n {
            let data: Vec<u8> = (0..20 + i as u8).collect();
            w.write_record(i as u64 * 1_000_000_000, data.len() as u32, &data)
                .expect("vec write");
        }
        w.finish().expect("vec write");
        let mut off = 24usize;
        for i in 0..n {
            offsets.push(off);
            off += 16 + 20 + i;
        }
        (buf, offsets)
    }

    #[test]
    fn salvage_on_clean_file_is_lossless() {
        let (buf, _) = small_capture(5);
        let (recs, summary) = salvage_records(&buf);
        assert_eq!(recs.len(), 5);
        assert!(summary.is_clean());
        assert_eq!(summary.bytes_skipped, 0);
        assert_eq!(summary.linktype, LINKTYPE_ETHERNET);
    }

    #[test]
    fn salvage_skips_garbage_between_records() {
        let (buf, offsets) = small_capture(4);
        let mut damaged = buf[..offsets[2]].to_vec();
        damaged.extend_from_slice(&[0xffu8; 37]); // garbage splice
        damaged.extend_from_slice(&buf[offsets[2]..]);
        let (recs, summary) = salvage_records(&damaged);
        assert_eq!(recs.len(), 4, "all real records recovered");
        assert_eq!(summary.damage.len(), 1);
        assert_eq!(summary.damage[0].offset, offsets[2] as u64);
        assert_eq!(summary.damage[0].len, 37);
        assert_eq!(summary.bytes_skipped, 37);
    }

    #[test]
    fn salvage_recovers_after_bad_magic() {
        let (mut buf, _) = small_capture(3);
        buf[0..4].copy_from_slice(&0xdead_beefu32.to_le_bytes());
        let (recs, summary) = salvage_records(&buf);
        assert_eq!(recs.len(), 3, "records readable under assumed layout");
        assert!(summary.header_assumed);
        assert_eq!(summary.damage[0].kind, FaultKind::BadMagic);
    }

    #[test]
    fn salvage_classifies_trailing_truncation() {
        let (buf, offsets) = small_capture(3);
        // Cut inside the last record's data.
        let cut = offsets[2] + 16 + 5;
        let (recs, summary) = salvage_records(&buf[..cut]);
        assert_eq!(recs.len(), 2);
        assert_eq!(summary.damage.len(), 1);
        assert_eq!(summary.damage[0].kind, FaultKind::MidRecordEof);
        assert_eq!(summary.damage[0].offset, offsets[2] as u64);
        // Cut inside the last record's header.
        let cut = offsets[2] + 9;
        let (recs, summary) = salvage_records(&buf[..cut]);
        assert_eq!(recs.len(), 2);
        assert_eq!(summary.damage[0].kind, FaultKind::TruncatedRecordHeader);
    }

    #[test]
    fn salvage_resyncs_past_corrupt_timestamp() {
        let (mut buf, offsets) = small_capture(4);
        // Corrupt record 1's subsecond field (bytes 4..8 of its header).
        buf[offsets[1] + 4..offsets[1] + 8].copy_from_slice(&0xf000_0000u32.to_le_bytes());
        let (recs, summary) = salvage_records(&buf);
        assert_eq!(recs.len(), 3, "only the corrupted record is lost");
        assert_eq!(summary.damage[0].kind, FaultKind::CorruptTimestamp);
        assert_eq!(summary.damage[0].offset, offsets[1] as u64);
    }

    #[test]
    fn salvage_of_empty_and_tiny_inputs() {
        let (recs, summary) = salvage_records(&[]);
        assert!(recs.is_empty());
        assert_eq!(summary.bytes_total, 0);
        let (recs, summary) = salvage_records(&[0xd4, 0xc3, 0xb2, 0xa1, 0x02]);
        assert!(recs.is_empty());
        assert_eq!(summary.damage[0].kind, FaultKind::TruncatedGlobalHeader);
        let (recs, summary) = salvage_records(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(recs.is_empty());
        assert_eq!(summary.damage[0].kind, FaultKind::BadMagic);
    }
}
