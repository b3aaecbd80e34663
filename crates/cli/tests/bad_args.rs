//! Bad arguments are refused up front: each input below exits 1 with a
//! single `error:` line on stderr, never a panic backtrace and never a
//! simulation left to spin until its cycle budget runs out. A `remap
//! bench` report that cannot be written fails the same way.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Unsupported barrier shapes, sizes too small for a workload's loops to
/// run correctly, and the retired service commands.
const BAD: [&[&str]; 15] = [
    &["run", "ll2", "sw:0", "8"],
    &["run", "ll2", "barrier:99", "8"],
    &["run", "ll2", "barrier:3", "8"],
    &["run", "ll2", "barrier:4", "0"],
    &["run", "ll2", "barrier+comp:4", "8"],
    &["sweep", "ll2", "barrier:0", "8"],
    &["sweep", "ll6", "barrier:4", "8", "1"],
    &["run", "hmmer", "seq", "0"],
    &["run", "ll6", "barrier:4", "1"],
    &["run", "dijkstra", "seq", "0"],
    &["run", "mpeg2enc", "seq", "15"],
    &["run", "libquantum", "spl", "7"],
    &["run", "wc", "compcomm", "12"],
    &["serve", "x"],
    &["submit", "x", "ping"],
];

/// Refusal is an argument check; a run still going after this long was
/// simulated instead.
const DEADLINE: Duration = Duration::from_secs(30);

/// Runs `remap args` in `dir` and asserts it exits 1 with one `error:`
/// line on stderr and no panic, within [`DEADLINE`].
fn assert_one_error_line(args: &[&str], dir: &Path) {
    let cmd = format!("remap {}", args.join(" "));
    let mut child = Command::new(env!("CARGO_BIN_EXE_remap"))
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn remap");
    let start = Instant::now();
    while child.try_wait().expect("poll remap").is_none() {
        if start.elapsed() > DEADLINE {
            child.kill().ok();
            child.wait().ok();
            panic!("`{cmd}` still running after {DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect remap");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
    assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{cmd}: {stderr}");
    assert!(lines[0].starts_with("error: "), "{cmd}: {stderr}");
}

#[test]
fn bad_arguments_exit_1_with_one_error_line_and_no_panic() {
    for args in BAD {
        assert_one_error_line(args, Path::new("."));
    }
}

#[test]
fn a_report_that_cannot_be_written_exits_1() {
    // A directory where the report goes: the write fails, and the stale
    // artifact must not pass for this run's result.
    let dir = std::env::temp_dir().join(format!("remap-unwritable-{}", std::process::id()));
    for target in ["mlp", "faultsweep"] {
        std::fs::create_dir_all(dir.join(format!("BENCH_{target}.json")))
            .expect("create blocking dir");
        assert_one_error_line(&["bench", target], &dir);
    }
    std::fs::remove_dir_all(&dir).ok();
}
