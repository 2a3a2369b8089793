//! Ingest contracts: metamorphic relations over capture files, and how
//! a capture of an unsupported link type fails.
//!
//! Each metamorphic test rewrites a capture in a way that must not change
//! what it says (a write→read round trip, µs vs ns timestamps, little- vs
//! big-endian fields, a salvage read of an undamaged file vs a strict
//! read) and asserts an identical `AnalysisReport::render()` and an
//! identical `IngestReport`. The inputs are the clean committed fixtures
//! plus a simulated 100 KB transfer, the paper's transfer size.

use std::path::{Path, PathBuf};
use std::process::Command;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles;
use tcpa_trace::pcap_io::{self, IngestReport};
use tcpa_trace::Trace;
use tcpa_wire::TsResolution;
use tcpanaly::report::Analyzer;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The clean fixtures and a simulated 100 KB sender-side capture, each
/// with a name for assertion messages.
fn samples() -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = ["reno_clean", "solaris_receiver", "tahoe_loss"]
        .iter()
        .map(|name| {
            let path = repo_root().join(format!("tests/fixtures/{name}.pcap"));
            (
                name.to_string(),
                std::fs::read(path).expect("fixture present"),
            )
        })
        .collect();
    let transfer = run_transfer(
        profiles::reno(),
        profiles::reno(),
        &PathSpec::default(),
        100 * 1024,
        21,
    );
    let bytes = pcap_io::write_pcap(&transfer.sender_trace(), Vec::new(), TsResolution::Micro, 0)
        .expect("in-memory write");
    out.push(("simulated 100 KB".into(), bytes));
    out
}

fn render(trace: &Trace) -> String {
    Analyzer::auto(trace).analyze(trace).render()
}

/// What ingest concludes about a capture: the strict read's trace, the
/// salvage ledger, and the rendered analysis of the salvaged trace.
#[derive(Debug, PartialEq)]
struct Ingested {
    strict: Trace,
    report: IngestReport,
    rendered: String,
}

fn ingest(bytes: &[u8]) -> Ingested {
    let (strict, _) = pcap_io::read_pcap_bytes(bytes).expect("clean capture reads strictly");
    let (salvaged, report) = pcap_io::read_pcap_salvage_bytes(bytes);
    assert_eq!(salvaged, strict, "salvage and strict reads must agree");
    Ingested {
        rendered: render(&salvaged),
        strict,
        report,
    }
}

/// Rewrites a little-endian capture field by field: `big_endian` writes
/// every header and record field in the other byte order, `nano` turns
/// microsecond timestamps into nanosecond ones. Record data is copied
/// as is.
fn rewrite(bytes: &[u8], big_endian: bool, nano: bool) -> Vec<u8> {
    let field = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let encode = |v: u32| {
        if big_endian {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        }
    };
    assert_eq!(field(0), 0xa1b2_c3d4, "input must be little-endian µs");
    let mut out = Vec::with_capacity(bytes.len());
    out.extend(encode(if nano { 0xa1b2_3c4d } else { 0xa1b2_c3d4 }));
    // Version 2.4: two 16-bit fields.
    out.extend(if big_endian {
        [0, 2, 0, 4]
    } else {
        [2, 0, 4, 0]
    });
    for at in [8, 12, 16, 20] {
        out.extend(encode(field(at)));
    }
    let subsec_scale = if nano { 1000 } else { 1 };
    let mut pos = 24;
    while pos < bytes.len() {
        for (at, scale) in [(0, 1), (4, subsec_scale), (8, 1), (12, 1)] {
            out.extend(encode(field(pos + at) * scale));
        }
        let incl_len = field(pos + 8) as usize;
        out.extend_from_slice(&bytes[pos + 16..pos + 16 + incl_len]);
        pos += 16 + incl_len;
    }
    out
}

#[test]
fn write_read_round_trip_preserves_the_analysis() {
    for (name, bytes) in samples() {
        let base = ingest(&bytes);
        let rewritten = pcap_io::write_pcap(&base.strict, Vec::new(), TsResolution::Micro, 0)
            .expect("in-memory write");
        assert_eq!(ingest(&rewritten), base, "{name}");
    }
}

#[test]
fn timestamp_resolution_does_not_change_the_analysis() {
    for (name, bytes) in samples() {
        let base = ingest(&bytes);
        let nano = rewrite(&bytes, false, true);
        assert_ne!(nano, bytes);
        assert_eq!(ingest(&nano), base, "{name}");
    }
}

#[test]
fn byte_order_does_not_change_the_analysis() {
    for (name, bytes) in samples() {
        let base = ingest(&bytes);
        assert_eq!(rewrite(&bytes, false, false), bytes, "identity rewrite");
        for nano in [false, true] {
            let swapped = rewrite(&bytes, true, nano);
            assert_ne!(swapped, bytes);
            assert_eq!(ingest(&swapped), base, "{name} (nano {nano})");
        }
    }
}

#[test]
fn salvage_of_a_clean_capture_matches_the_strict_read() {
    for (name, bytes) in samples() {
        let (strict, skipped) = pcap_io::read_pcap_bytes(&bytes).expect("strict read");
        let (salvaged, report) = pcap_io::read_pcap_salvage_bytes(&bytes);
        assert!(report.is_clean(), "{name}: {report}");
        assert_eq!(report.bytes_skipped, 0, "{name}");
        assert_eq!(report.bytes_total, bytes.len() as u64, "{name}");
        assert_eq!(report.frames, strict.len(), "{name}");
        assert_eq!(report.frames_skipped, skipped, "{name}");
        assert_eq!(render(&salvaged), render(&strict), "{name}");
    }
}

/// `reno_clean.pcap` relabelled as a raw-IP capture (link type 101).
fn raw_ip_capture() -> PathBuf {
    let mut bytes =
        std::fs::read(repo_root().join("tests/fixtures/reno_clean.pcap")).expect("fixture present");
    bytes[20..24].copy_from_slice(&101u32.to_le_bytes());
    let path = std::env::temp_dir().join(format!("tcpanaly_raw_ip_{}.pcap", std::process::id()));
    std::fs::write(&path, bytes).expect("write capture");
    path
}

#[test]
fn unsupported_link_type_fails_the_item_in_every_mode() {
    let path = raw_ip_capture();
    let file = path.to_str().expect("utf-8 temp path");
    for (degrade, code) in [("skip", 1), ("salvage", 1), ("strict", 3)] {
        for batch in [false, true] {
            let mut args = vec!["--degrade", degrade, file];
            if batch {
                args.extend(["--jobs", "2"]);
            }
            let run = Command::new(env!("CARGO_BIN_EXE_tcpanaly"))
                .args(&args)
                .output()
                .expect("run tcpanaly");
            let stdout = String::from_utf8_lossy(&run.stdout);
            let stderr = String::from_utf8_lossy(&run.stderr);
            let what = format!("{args:?}: stdout {stdout} stderr {stderr}");
            assert_eq!(run.status.code(), Some(code), "{what}");
            let said = if batch { &stdout } else { &stderr };
            assert!(
                said.contains("malformed capture") && said.contains("unsupported link type 101"),
                "{what}"
            );
            assert!(!said.contains("--degrade=salvage"), "{what}");
            if batch {
                assert!(
                    stdout.contains("(0 analyzed, 0 salvaged, 1 failed)"),
                    "{what}"
                );
            }
        }
    }
    let _ = std::fs::remove_file(path);
}
