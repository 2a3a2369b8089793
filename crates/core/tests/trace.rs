//! Span-tree tracing contract tests, driven through the `tcpanaly`
//! binary: schema validity of the Chrome trace_event export, parent /
//! child invariants under a per-item deadline (generous and expired),
//! canonical-form determinism across worker counts, wall-clock coverage,
//! and the typed write-error surface of `--trace-out` / `--metrics-out`
//! / `--audit-dir`.

use std::process::Command;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles;
use tcpa_trace::pcap_io;
use tcpa_wire::TsResolution;
use tcpanaly::obs::{json, trace};

fn tcpanaly_code(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_tcpanaly"))
        .args(args)
        .output()
        .expect("run tcpanaly");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

/// A temp directory of `n` generated pcaps; with `with_mangled`, the
/// committed damaged fixtures ride along so fault instants appear.
fn corpus_dir(tag: &str, n: usize, with_mangled: bool) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tcpanaly_trace_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for i in 0..n {
        let out = run_transfer(
            profiles::reno(),
            profiles::reno(),
            &PathSpec::default(),
            8 * 1024,
            900 + i as u64,
        );
        let file = std::fs::File::create(dir.join(format!("t{i}.pcap"))).unwrap();
        pcap_io::write_pcap(&out.sender_trace(), file, TsResolution::Micro, 0).unwrap();
    }
    if with_mangled {
        let mangled = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/mangled");
        for name in ["corrupt-timestamp.pcap", "oversized-length.pcap"] {
            std::fs::copy(mangled.join(name), dir.join(format!("zz-{name}"))).unwrap();
        }
    }
    dir
}

/// `--trace-out` over the fixture-style corpus: the document is
/// schema-valid trace_event JSON, the span tree has no orphans, every
/// expected stage appears, and salvage instants show up for the damaged
/// items.
#[test]
fn trace_out_is_schema_valid_with_connected_tree() {
    let dir = corpus_dir("schema", 3, true);
    // Clean run, default policy: the strict reader's ingest.read span
    // and the full per-connection stage set appear.
    let clean = dir.join("trace-clean.json");
    let (stdout, stderr, code) = tcpanaly_code(&[
        "--jobs",
        "2",
        "--trace-out",
        clean.to_str().unwrap(),
        dir.join("t0.pcap").to_str().unwrap(),
        dir.join("t1.pcap").to_str().unwrap(),
        dir.join("t2.pcap").to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    let text = std::fs::read_to_string(&clean).expect("trace file");
    trace::validate_trace(&text).expect("schema-valid trace");
    trace::check_tree_invariants(&text).expect("no orphan or unclosed spans");
    for name in [
        "\"corpus.item\"",
        "\"ingest.read\"",
        "\"stage.calibrate\"",
        "\"stage.split\"",
        "\"stage.fingerprint\"",
        "\"stage.receiver\"",
        "\"stage.handshake\"",
        "\"stage.stats\"",
        "\"detail.sender_replay\"",
        "\"analyze.total\"",
    ] {
        assert!(text.contains(name), "expected {name} in trace: missing");
    }
    // Worker lanes are named in the metadata.
    assert!(text.contains("worker-0"), "lane metadata expected");
    // Per-connection spans carry the connection key.
    assert!(text.contains(" -> "), "connection key in args expected");

    // Degraded run over the whole dir (mangled fixtures included):
    // salvage instants and the salvage reader's span appear.
    let out = dir.join("trace-salvage.json");
    let (stdout, stderr, code) = tcpanaly_code(&[
        "--jobs",
        "2",
        "--degrade=salvage",
        "--trace-out",
        out.to_str().unwrap(),
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    let text = std::fs::read_to_string(&out).expect("trace file");
    trace::validate_trace(&text).expect("schema-valid trace");
    trace::check_tree_invariants(&text).expect("no orphan or unclosed spans");
    assert!(text.contains("\"ingest.salvage\""), "salvage span expected");
    assert!(text.contains("\"salvage\""), "salvage instant expected");
    assert!(text.contains("\"ph\": \"i\""), "instant phase expected");
    let _ = std::fs::remove_dir_all(dir);
}

/// The determinism contract: canonical forms (timestamps, durations,
/// and lane assignment stripped; sorted by item and span id) are
/// byte-identical at `--jobs 1`, `4`, and `8`.
#[test]
fn trace_canonical_form_deterministic_across_worker_counts() {
    let dir = corpus_dir("determinism", 4, true);
    let mut canon = Vec::new();
    for jobs in ["1", "4", "8"] {
        let out = dir.join(format!("trace-{jobs}.json"));
        let (stdout, stderr, code) = tcpanaly_code(&[
            "--jobs",
            jobs,
            "--degrade=salvage",
            "--trace-out",
            out.to_str().unwrap(),
            dir.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{stdout}\n{stderr}");
        let text = std::fs::read_to_string(&out).expect("trace file");
        trace::check_tree_invariants(&text).expect("tree invariants at every worker count");
        canon.push(trace::canonicalize(&text).expect("canonicalize"));
    }
    assert_eq!(
        canon[0], canon[1],
        "canonical trace must not depend on worker count"
    );
    assert_eq!(canon[1], canon[2]);
    let _ = std::fs::remove_dir_all(dir);
}

/// Events of an exported trace document.
fn trace_events(text: &str) -> Vec<json::Value> {
    let doc = json::Value::parse(text).expect("parse");
    doc.get("traceEvents")
        .and_then(json::Value::as_arr)
        .expect("events")
        .to_vec()
}

fn arg(event: &json::Value, key: &str) -> Option<u64> {
    event
        .get("args")
        .and_then(|a| a.get(key))
        .and_then(json::Value::as_u64)
}

fn named<'a>(events: &'a [json::Value], name: &str) -> Vec<&'a json::Value> {
    events
        .iter()
        .filter(|e| e.get("name").and_then(json::Value::as_str) == Some(name))
        .collect()
}

/// With `--timeout-secs` active, analysis runs on the worker that
/// claimed the item, under its deadline: every `analyze.total` span sits
/// on the worker lane, parented under that item's `corpus.item` root.
#[test]
fn deadline_spans_stay_attached_to_item_tree() {
    let dir = corpus_dir("deadline", 2, false);
    let out = dir.join("trace.json");
    let (stdout, stderr, code) = tcpanaly_code(&[
        "--jobs",
        "1",
        "--timeout-secs",
        "600",
        "--trace-out",
        out.to_str().unwrap(),
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    let text = std::fs::read_to_string(&out).expect("trace file");
    trace::check_tree_invariants(&text).expect("deadline-bounded spans must not orphan");
    assert!(!text.contains("\"watchdog\""), "no watchdog lane expected");

    let events = trace_events(&text);
    let analyses = named(&events, "analyze.total");
    assert_eq!(analyses.len(), 2, "one analysis per item");
    for analyze in analyses {
        let item = arg(analyze, "item").expect("item index");
        let root = named(&events, "corpus.item")
            .into_iter()
            .find(|e| arg(e, "item") == Some(item))
            .expect("corpus.item root for the same item");
        assert_eq!(
            arg(analyze, "parent"),
            arg(root, "id"),
            "analysis parents under the item's root span"
        );
        assert_eq!(
            analyze.get("tid").and_then(json::Value::as_u64),
            root.get("tid").and_then(json::Value::as_u64),
            "analysis runs on the lane that claimed the item"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// An expired deadline fails every item as a timeout, in both modes:
/// exit 1, one `timeout` instant per item, and a span tree whose spans
/// all closed.
#[test]
fn expired_deadline_fails_items_with_closed_spans() {
    let dir = corpus_dir("timeout", 2, false);
    let files = [dir.join("t0.pcap"), dir.join("t1.pcap")];
    for batch in [true, false] {
        let out = dir.join(format!("trace-{batch}.json"));
        let mut args = vec!["--timeout-secs", "0", "--trace-out", out.to_str().unwrap()];
        if batch {
            args.extend(["--jobs", "2"]);
        }
        args.extend(files.iter().map(|f| f.to_str().unwrap()));
        let (stdout, stderr, code) = tcpanaly_code(&args);
        assert_eq!(code, 1, "{stdout}\n{stderr}");
        if batch {
            assert!(
                stdout.contains("failures: 0 i/o, 0 malformed, 2 timeout"),
                "{stdout}"
            );
        } else {
            assert!(stdout.is_empty(), "{stdout}");
            assert!(stderr.contains("timed out after 0 ms"), "{stderr}");
        }
        let text = std::fs::read_to_string(&out).expect("trace file");
        trace::validate_trace(&text).expect("schema-valid trace");
        trace::check_tree_invariants(&text).expect("spans close on a timeout");
        let events = trace_events(&text);
        assert_eq!(named(&events, "timeout").len(), 2, "{text}");
        assert_eq!(named(&events, "analyze.total").len(), 2, "{text}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// ≥95% of `analyze.total` wall clock is covered by `stage.*` spans in
/// the exported trace — the causal view has no large blind spots.
#[test]
fn trace_spans_cover_analysis_wall_clock() {
    let dir = corpus_dir("coverage", 1, false);
    // One big transfer so the stage durations dominate rounding noise.
    let out_tr = run_transfer(
        profiles::solaris_2_4(),
        profiles::reno(),
        &PathSpec::default(),
        200 * 1024,
        910,
    );
    let file = std::fs::File::create(dir.join("big.pcap")).unwrap();
    pcap_io::write_pcap(&out_tr.sender_trace(), file, TsResolution::Micro, 0).unwrap();
    let out = dir.join("trace.json");
    let (stdout, stderr, code) = tcpanaly_code(&[
        "--jobs",
        "1",
        "--trace-out",
        out.to_str().unwrap(),
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    let text = std::fs::read_to_string(&out).expect("trace file");
    let doc = json::Value::parse(&text).expect("parse");
    let events = doc
        .get("traceEvents")
        .and_then(json::Value::as_arr)
        .expect("events");
    let dur_of = |pred: &dyn Fn(&str) -> bool| -> f64 {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
            .filter(|e| {
                e.get("name")
                    .and_then(json::Value::as_str)
                    .map(pred)
                    .unwrap_or(false)
            })
            .filter_map(|e| e.get("dur").and_then(json::Value::as_f64))
            .sum()
    };
    let total = dur_of(&|n| n == "analyze.total");
    assert!(total > 0.0, "analyze.total span expected in the export");
    let staged = dur_of(&|n| n.starts_with("stage."));
    assert!(
        staged >= 0.95 * total,
        "stage.* spans cover {staged} of {total} µs ({:.1}%)",
        100.0 * staged / total
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Satellite bugfix contract: `--metrics-out`, `--trace-out`, and
/// `--audit-dir` create missing parent directories; an unwritable
/// target surfaces the typed error (which step, which path) instead of
/// a bare io::Error, with exit code 2.
#[test]
fn sink_flags_create_parents_and_surface_typed_errors() {
    let dir = corpus_dir("sinks", 1, false);
    let metrics = dir.join("made/up/metrics.json");
    let trace_out = dir.join("also/new/trace.json");
    let audit = dir.join("deep/audit");
    let (stdout, stderr, code) = tcpanaly_code(&[
        "--jobs",
        "1",
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--trace-out",
        trace_out.to_str().unwrap(),
        "--audit-dir",
        audit.to_str().unwrap(),
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    assert!(metrics.is_file(), "metrics parents created");
    assert!(trace_out.is_file(), "trace parents created");
    assert!(
        audit
            .join("00000-t0.pcap")
            .with_extension("json")
            .parent()
            .unwrap()
            .is_dir()
            || audit.is_dir(),
        "audit dir created"
    );

    // A file where the parent directory must go forces the typed error.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "").unwrap();
    let bad = blocker.join("x/metrics.json");
    let (_, stderr, code) = tcpanaly_code(&[
        "--jobs",
        "1",
        "--metrics-out",
        bad.to_str().unwrap(),
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 2, "metrics write failure is a hard error");
    assert!(
        stderr.contains("cannot create directory"),
        "typed error names the failing step: {stderr}"
    );
    assert!(
        stderr.contains("blocker"),
        "typed error names the path: {stderr}"
    );

    let bad_trace = blocker.join("y/trace.json");
    let (_, stderr, code) = tcpanaly_code(&[
        "--jobs",
        "1",
        "--trace-out",
        bad_trace.to_str().unwrap(),
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 2, "trace write failure is a hard error");
    assert!(stderr.contains("cannot create directory"), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}
