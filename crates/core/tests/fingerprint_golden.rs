// PathSpec scenarios are configured field-by-field from the default so
// each deviation reads as one labelled line.
#![allow(clippy::field_reassign_with_default)]

//! Pins every fingerprint verdict on a fixed set of simulated 100 KB
//! transfers, down to the text of each candidate's issues.
//!
//! Every profile sends over two paths, with and without periodic data
//! loss; each sender-side trace is run through `fingerprint()` and the
//! whole ranking is compared with `golden/fingerprint.txt`. The replay
//! may get faster; what it concludes must not move.
//!
//! The transfers raise about 30,000 issues, so the golden pins their
//! text by digest: each candidate line carries an FNV-1a hash over every
//! issue's kind, record index, time and `Display` text, and the first
//! issue of each kind is written out in full.
//!
//! `tcpanaly --impl NAME FILE` is the only place issue text reaches
//! stdout, so its output on a committed fixture is pinned as well.
//!
//! Regenerate after an *intended* change with
//! `UPDATE_GOLDEN=1 cargo test -p tcpanaly --test fingerprint_golden`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use tcpa_netsim::LossModel;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles;
use tcpa_trace::{Connection, Duration};
use tcpanaly::fingerprint::fingerprint;

const KB100: u64 = 100 * 1024;
const SEED: u64 = 7;

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` with the named golden file, or rewrites the file
/// when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("read golden");
    if expected != actual {
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        panic!(
            "{name} drifted at line {}:\n  golden: {:?}\n  actual: {:?}",
            line + 1,
            expected.lines().nth(line),
            actual.lines().nth(line)
        );
    }
}

fn paths() -> Vec<(&'static str, PathSpec)> {
    let t1 = PathSpec::default();
    let mut slow = PathSpec::default();
    slow.rate_bps = 256_000;
    slow.one_way_delay = Duration::from_millis(60);
    slow.queue_cap = 10;
    vec![("t1-30ms", t1), ("256k-60ms", slow)]
}

fn ns(d: Option<Duration>) -> String {
    d.map_or_else(|| "-".into(), |d| d.0.to_string())
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One block per transfer: the ranked candidates, each followed by the
/// first issue of each kind.
fn render_transfer(out: &mut String, conn: &Connection) {
    for r in fingerprint(conn) {
        let a = &r.analysis;
        let lines: Vec<String> = a
            .issues
            .iter()
            .map(|i| format!("{:?} #{} @{}: {}", i.kind, i.index, i.time.0, i.detail))
            .collect();
        let mut delays = a.response_delays.clone();
        let _ = writeln!(
            out,
            "  {} | {} | issues {} | hard {} | delay p50 {} p90 {} mean {} | window {} | quenches {} | text {:016x}",
            r.name,
            r.fit,
            a.issues.len(),
            a.hard_issues(),
            ns(delays.median()),
            ns(delays.percentile(90.0)),
            ns(a.response_delays.mean()),
            a.inferred_sender_window
                .map_or_else(|| "-".into(), |w| w.to_string()),
            a.inferred_quenches.len(),
            fnv1a(lines.join("\n").as_bytes()),
        );
        for (k, line) in lines.iter().enumerate() {
            if a.issues[..k].iter().all(|i| i.kind != a.issues[k].kind) {
                let _ = writeln!(out, "    {line}");
            }
        }
    }
}

#[test]
fn fingerprint_verdicts_match_golden() {
    let mut out = String::new();
    for cfg in profiles::all_profiles() {
        for (path_name, base) in paths() {
            for loss in [None, Some(29)] {
                let mut path = base.clone();
                if let Some(n) = loss {
                    path.loss_data = LossModel::Periodic(n);
                }
                let t = run_transfer(cfg.clone(), profiles::reno(), &path, KB100, SEED);
                let _ = writeln!(
                    out,
                    "# {} over {path_name}, loss {}, completed {}",
                    cfg.name,
                    loss.map_or_else(|| "none".into(), |n| format!("every {n}th")),
                    t.completed
                );
                for conn in Connection::split(&t.sender_trace()) {
                    render_transfer(&mut out, &conn);
                }
            }
        }
    }
    check_golden("fingerprint.txt", &out);
}

#[test]
fn impl_stdout_matches_golden() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut out = String::new();
    for name in ["Trumpet/Winsock 2.0b", "Linux 1.0"] {
        let run = Command::new(env!("CARGO_BIN_EXE_tcpanaly"))
            .current_dir(&repo)
            .args(["--impl", name, "tests/fixtures/tahoe_loss.pcap"])
            .output()
            .expect("run tcpanaly");
        assert!(run.status.success(), "{name}: {:?}", run);
        out.push_str(&String::from_utf8_lossy(&run.stdout));
    }
    check_golden("impl_stdout.txt", &out);
}
