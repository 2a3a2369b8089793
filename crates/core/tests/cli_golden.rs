//! Pins what single-file mode prints: the stdout bytes and the exit code
//! of `tcpanaly` over the committed fixtures, in every output mode.
//!
//! Each run is executed from the repository root with relative paths,
//! so the golden names `tests/fixtures/...` whatever the checkout
//! location. Stderr is diagnostics, not output: it is checked by
//! substring only (a failing run must name its file).
//!
//! Regenerate after an *intended* change with
//! `UPDATE_GOLDEN=1 cargo test -p tcpanaly --test cli_golden`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `*.pcap` files of a fixture directory, as sorted relative paths.
fn fixtures(dir: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(repo_root().join(dir))
        .expect("fixture dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".pcap"))
        .collect();
    names.sort();
    names.into_iter().map(|n| format!("{dir}/{n}")).collect()
}

/// Runs `tcpanaly args` from the repository root, appends the command,
/// its exit code and its stdout to `out`, and returns the code and
/// stderr.
fn run(out: &mut String, args: &[&str]) -> (i32, String) {
    let run = Command::new(env!("CARGO_BIN_EXE_tcpanaly"))
        .current_dir(repo_root())
        .args(args)
        .output()
        .expect("run tcpanaly");
    let code = run.status.code().unwrap_or(-1);
    let _ = writeln!(out, "$ tcpanaly {}", args.join(" "));
    let _ = writeln!(out, "exit {code}");
    out.push_str(&String::from_utf8_lossy(&run.stdout));
    out.push('\n');
    (code, String::from_utf8_lossy(&run.stderr).into_owned())
}

/// A failing run must say which file failed.
fn assert_names(stderr: &str, path: &str) {
    assert!(stderr.contains(path), "stderr must name {path}: {stderr}");
}

fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
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

#[test]
fn single_file_stdout_matches_golden() {
    let mut out = String::new();
    let clean = fixtures("tests/fixtures");
    let mangled = fixtures("tests/fixtures/mangled");
    assert_eq!(clean.len(), 3, "{clean:?}");
    assert_eq!(mangled.len(), 8, "{mangled:?}");

    for mode in [
        &[][..],
        &["--sender"][..],
        &["--receiver"][..],
        &["--handshake", "--receiver-fingerprint"][..],
    ] {
        for file in &clean {
            let mut args = mode.to_vec();
            args.push(file);
            let (code, stderr) = run(&mut out, &args);
            assert_eq!(code, 0, "{args:?}: {stderr}");
        }
    }

    for file in &mangled {
        let (code, stderr) = run(&mut out, &["--degrade", "salvage", file]);
        assert_eq!(code, 0, "{file}: {stderr}");
        let (code, stderr) = run(&mut out, &[file]);
        if code != 0 {
            assert_names(&stderr, file);
        }
    }

    let good = clean[0].as_str();
    let bad = "tests/fixtures/mangled/garbage-splice.pcap";
    let (code, stderr) = run(&mut out, &["--degrade", "strict", good, bad, good]);
    assert_eq!(code, 3, "{stderr}");
    assert!(stderr.contains("strict mode aborted"), "{stderr}");
    assert_names(&stderr, bad);

    let (code, stderr) = run(&mut out, &[good, "/nonexistent/never.pcap", good]);
    assert_eq!(code, 1, "{stderr}");
    assert_names(&stderr, "/nonexistent/never.pcap");

    check_golden("cli_single_file.txt", &out);
}
