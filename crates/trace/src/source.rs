//! Corpus trace sources — the supply side of batch analysis.
//!
//! The paper's catalogues were built from ~40,000 traces; anything at that
//! scale needs a uniform way to enumerate work without loading every
//! capture up front. A [`TraceSource`] hands out [`CorpusItem`]s one at a
//! time; each item carries a stable label and a [`TraceInput`] that is
//! *loaded by the worker that claims it*, so file I/O and pcap decoding
//! parallelize along with the analysis itself.

use crate::pcap_io::{self, IngestReport};
use crate::record::Trace;
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One unit of corpus work: a labelled, possibly not-yet-loaded trace.
#[derive(Debug, Clone)]
pub struct CorpusItem {
    /// Stable label (file path or synthetic name) used in reports.
    pub id: String,
    /// Where the trace bytes come from.
    pub input: TraceInput,
}

/// Where a corpus item's packets come from.
#[derive(Debug, Clone)]
pub enum TraceInput {
    /// An already-loaded trace (simulated corpora, tests).
    Memory(Trace),
    /// A pcap file, opened and decoded by the worker that claims the item.
    PcapFile(PathBuf),
    /// In-memory capture bytes, decoded by the worker that claims the
    /// item (mangled-corpus tests, network-received captures). `Arc`'d so
    /// cloning an item does not copy the capture.
    PcapBytes(Arc<Vec<u8>>),
    /// Fault injection: panics on load. Exists so the pipeline's
    /// panic-isolation guarantee (one poisoned trace must cost one item,
    /// not the whole run) stays testable without a real analyzer bug.
    Poison,
    /// Fault injection: the first `remaining` loads fail with a
    /// *transient* I/O error (interrupted), after which the trace loads
    /// normally. Exists so the pipeline's retry path — and its retry
    /// accounting — stays testable without real flaky storage. Clones
    /// share the countdown.
    Flaky {
        /// Failures left to inject; decremented per load attempt.
        remaining: Arc<std::sync::atomic::AtomicU32>,
        /// The trace yielded once the failures are exhausted.
        trace: Trace,
    },
}

impl CorpusItem {
    /// An item wrapping an in-memory trace.
    pub fn memory(id: impl Into<String>, trace: Trace) -> CorpusItem {
        CorpusItem {
            id: id.into(),
            input: TraceInput::Memory(trace),
        }
    }

    /// An item naming a pcap file; the path doubles as the label.
    pub fn pcap(path: impl Into<PathBuf>) -> CorpusItem {
        let path = path.into();
        CorpusItem {
            id: path.display().to_string(),
            input: TraceInput::PcapFile(path),
        }
    }

    /// An item over raw capture bytes already in memory.
    pub fn pcap_bytes(id: impl Into<String>, bytes: Vec<u8>) -> CorpusItem {
        CorpusItem {
            id: id.into(),
            input: TraceInput::PcapBytes(Arc::new(bytes)),
        }
    }

    /// A poisoned item whose load panics (fault injection for tests).
    pub fn poison(id: impl Into<String>) -> CorpusItem {
        CorpusItem {
            id: id.into(),
            input: TraceInput::Poison,
        }
    }

    /// An item whose first `failures` loads fail transiently before the
    /// trace loads (fault injection for retry-path tests).
    pub fn flaky(id: impl Into<String>, trace: Trace, failures: u32) -> CorpusItem {
        CorpusItem {
            id: id.into(),
            input: TraceInput::Flaky {
                remaining: Arc::new(std::sync::atomic::AtomicU32::new(failures)),
                trace,
            },
        }
    }
}

/// How [`TraceInput::load_mode`] treats a damaged capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// The first malformed byte fails the load ([`LoadError::Malformed`]).
    Strict,
    /// Damaged regions are skipped and accounted for in an
    /// [`IngestReport`]; only genuine I/O failure fails the load.
    Salvage,
}

/// Why a trace could not be loaded. `Io` and `Malformed` are distinct on
/// purpose: an I/O error may be transient (worth retrying), while
/// malformed bytes never fix themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The underlying read failed.
    Io {
        /// The OS error class, for retry decisions.
        kind: ErrorKind,
        /// Human-readable description including the path.
        detail: String,
    },
    /// The capture bytes are malformed (strict mode only).
    Malformed {
        /// Human-readable description including the path and byte offset.
        detail: String,
    },
}

impl LoadError {
    /// `true` when retrying the load could plausibly succeed.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            LoadError::Io {
                kind: ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut,
                ..
            }
        )
    }
}

impl core::fmt::Display for LoadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LoadError::Io { detail, .. } => write!(f, "{detail}"),
            LoadError::Malformed { detail } => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// A successfully loaded trace, with the degradation ledger when salvage
/// mode had to skip damage (`None` for in-memory traces and clean files).
#[derive(Debug, Clone)]
pub struct Loaded {
    /// The decoded trace.
    pub trace: Trace,
    /// Salvage accounting, present only for pcap inputs read in
    /// [`LoadMode::Salvage`].
    pub salvage: Option<IngestReport>,
    /// Non-TCP frames the strict reader skipped (a salvage read counts
    /// them in its report instead).
    pub non_tcp_skipped: usize,
}

impl TraceInput {
    /// Materializes the trace, doing any file I/O and pcap decoding on the
    /// calling thread. Takes `&self` so a caller can retry transient I/O
    /// failures without re-claiming the item.
    pub fn load_mode(&self, mode: LoadMode) -> Result<Loaded, LoadError> {
        match self {
            TraceInput::Memory(trace) => Ok(Loaded {
                trace: trace.clone(),
                salvage: None,
                non_tcp_skipped: 0,
            }),
            TraceInput::PcapFile(path) => {
                let bytes = std::fs::read(path).map_err(|e| LoadError::Io {
                    kind: e.kind(),
                    detail: format!("{}: {e}", path.display()),
                })?;
                decode_bytes(&bytes, mode, &path.display().to_string())
            }
            TraceInput::PcapBytes(bytes) => decode_bytes(bytes, mode, "<memory capture>"),
            // tcpa-lint: allow(no-unwrap-in-analyzer) -- Poison exists to panic: it is the fault-injection probe the corpus runner's panic-isolation tests load on purpose
            TraceInput::Poison => panic!("poisoned corpus item loaded"),
            TraceInput::Flaky { remaining, trace } => {
                use std::sync::atomic::Ordering;
                let injected = remaining
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                    .is_ok();
                if injected {
                    Err(LoadError::Io {
                        kind: ErrorKind::Interrupted,
                        detail: "injected transient i/o failure".into(),
                    })
                } else {
                    Ok(Loaded {
                        trace: trace.clone(),
                        salvage: None,
                        non_tcp_skipped: 0,
                    })
                }
            }
        }
    }

    /// Strict-mode load with stringly errors — the original corpus-item
    /// contract, kept for callers that do not care about the taxonomy.
    pub fn load(self) -> Result<Trace, String> {
        self.load_mode(LoadMode::Strict)
            .map(|loaded| loaded.trace)
            .map_err(|e| e.to_string())
    }
}

/// Decodes capture bytes under the requested degradation mode.
fn decode_bytes(bytes: &[u8], mode: LoadMode, label: &str) -> Result<Loaded, LoadError> {
    match mode {
        LoadMode::Strict => pcap_io::read_pcap(std::io::Cursor::new(bytes))
            .map(|(trace, non_tcp_skipped)| Loaded {
                trace,
                salvage: None,
                non_tcp_skipped,
            })
            .map_err(|e| match e {
                tcpa_wire::pcap::PcapError::Io(io) => LoadError::Io {
                    kind: io.kind(),
                    detail: format!("{label}: {io}"),
                },
                other => LoadError::Malformed {
                    detail: format!("{label}: {other}"),
                },
            }),
        LoadMode::Salvage => {
            let (trace, report) = pcap_io::read_pcap_salvage_bytes(bytes);
            Ok(Loaded {
                trace,
                salvage: Some(report),
                non_tcp_skipped: 0,
            })
        }
    }
}

/// A pull-based supply of corpus items.
///
/// Implementations must be `Send`: the batch pipeline moves the source
/// behind a mutex shared by its workers. `next_item` should be cheap —
/// return paths or handles and let [`TraceInput::load`] do the heavy
/// lifting on the claiming worker.
pub trait TraceSource: Send {
    /// Total number of items, when known up front (sizes progress output).
    fn len_hint(&self) -> Option<usize> {
        None
    }

    /// The next item, or `None` when the corpus is exhausted.
    fn next_item(&mut self) -> Option<CorpusItem>;
}

/// A source over a pre-built list of items.
#[derive(Debug, Default)]
pub struct MemorySource {
    items: VecDeque<CorpusItem>,
}

impl MemorySource {
    /// A source yielding `items` in order.
    pub fn new(items: Vec<CorpusItem>) -> MemorySource {
        MemorySource {
            items: items.into(),
        }
    }

    /// A source over explicit pcap paths, in the order given.
    pub fn from_pcap_files<P: Into<PathBuf>>(paths: Vec<P>) -> MemorySource {
        MemorySource::new(paths.into_iter().map(CorpusItem::pcap).collect())
    }

    /// A source over every `*.pcap` in `dir` (see [`pcap_files_in`]).
    pub fn from_pcap_dir(dir: impl AsRef<Path>) -> std::io::Result<MemorySource> {
        Ok(MemorySource::from_pcap_files(pcap_files_in(dir.as_ref())?))
    }
}

/// Every `*.pcap` file directly in `dir` (non-recursive), sorted by file
/// name so corpus order — and therefore the merged report — is
/// independent of directory-listing order.
pub fn pcap_files_in(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file() && p.extension().map(|e| e == "pcap").unwrap_or(false))
        .collect();
    paths.sort();
    Ok(paths)
}

impl TraceSource for MemorySource {
    fn len_hint(&self) -> Option<usize> {
        Some(self.items.len())
    }

    fn next_item(&mut self) -> Option<CorpusItem> {
        self.items.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_source_yields_in_order() {
        let mut src = MemorySource::new(vec![
            CorpusItem::memory("a", Trace::new()),
            CorpusItem::memory("b", Trace::new()),
        ]);
        assert_eq!(src.len_hint(), Some(2));
        assert_eq!(src.next_item().unwrap().id, "a");
        assert_eq!(src.next_item().unwrap().id, "b");
        assert!(src.next_item().is_none());
    }

    #[test]
    fn missing_pcap_is_a_load_error_not_a_panic() {
        let item = CorpusItem::pcap("/nonexistent/never.pcap");
        assert!(item.input.load().is_err());
    }

    #[test]
    fn missing_pcap_is_io_in_both_modes_and_not_transient() {
        let item = CorpusItem::pcap("/nonexistent/never.pcap");
        for mode in [LoadMode::Strict, LoadMode::Salvage] {
            match item.input.load_mode(mode) {
                Err(e @ LoadError::Io { kind, .. }) => {
                    assert_eq!(kind, ErrorKind::NotFound);
                    assert!(!e.is_transient());
                }
                other => panic!("expected Io error, got {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_bytes_strict_vs_salvage() {
        let item = CorpusItem::pcap_bytes("soup", vec![0u8; 64]);
        match item.input.load_mode(LoadMode::Strict) {
            Err(LoadError::Malformed { detail }) => {
                assert!(detail.contains("magic"), "{detail}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        let loaded = item.input.load_mode(LoadMode::Salvage).expect("salvage");
        let report = loaded.salvage.expect("pcap inputs carry a report");
        assert!(!report.is_clean());
        assert!(loaded.trace.is_empty() || loaded.trace.len() < 4);
    }

    #[test]
    #[should_panic(expected = "poisoned corpus item")]
    fn poison_panics_on_load() {
        let _ = CorpusItem::poison("bad").input.load();
    }

    #[test]
    fn flaky_fails_transiently_then_loads() {
        let item = CorpusItem::flaky("flaky", Trace::new(), 2);
        for _ in 0..2 {
            match item.input.load_mode(LoadMode::Strict) {
                Err(e @ LoadError::Io { kind, .. }) => {
                    assert_eq!(kind, ErrorKind::Interrupted);
                    assert!(e.is_transient());
                }
                other => panic!("expected transient Io error, got {other:?}"),
            }
        }
        assert!(item.input.load_mode(LoadMode::Strict).is_ok());
        assert!(item.input.load_mode(LoadMode::Salvage).is_ok());
    }

    #[test]
    fn dir_listing_is_sorted_and_filtered() {
        let dir = std::env::temp_dir().join(format!("tcpa_src_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["b.pcap", "a.pcap", "notes.txt"] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let mut src = MemorySource::from_pcap_dir(&dir).unwrap();
        assert_eq!(src.len_hint(), Some(2));
        assert!(src.next_item().unwrap().id.ends_with("a.pcap"));
        assert!(src.next_item().unwrap().id.ends_with("b.pcap"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
