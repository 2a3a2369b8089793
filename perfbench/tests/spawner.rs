//! Why the spawner exists: a child's peak resident set, as the kernel
//! reports it, includes its parent's when the parent spawns it directly.

use std::path::{Path, PathBuf};

use tcpa_perfbench::child::{self, Spawner};

const BALLAST: usize = 256 << 20;

#[test]
fn spawned_child_peak_rss_excludes_the_benchmark_s_memory() {
    let spawner = Spawner::start(Path::new(env!("CARGO_BIN_EXE_perfbench"))).expect("starts");
    let ballast = std::hint::black_box(vec![1u8; BALLAST]);
    let err = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("spawner-test.err");

    let via_spawner = spawner
        .run(Path::new("/bin/sh"), &["-c", "echo hi"], &err)
        .expect("runs");
    assert_eq!(via_spawner.code, Some(0));
    assert_eq!(via_spawner.stdout, b"hi\n");
    assert!(via_spawner.wall_s > 0.0);
    assert!(
        via_spawner.maxrss_kib < 64 * 1024,
        "{} KiB",
        via_spawner.maxrss_kib
    );

    let direct = child::run(Path::new("/bin/sh"), &["-c", "exit 4"], &err).expect("runs");
    assert_eq!(direct.code, Some(4));
    assert!(
        direct.maxrss_kib >= (BALLAST / 1024) as i64,
        "{} KiB",
        direct.maxrss_kib
    );
    drop(ballast);
    spawner.stop().expect("stops cleanly");
}
