//! `repro` as a process: exit status when its output cannot be written.

use std::path::PathBuf;
use std::process::Command;

/// A fresh scratch directory under the target dir, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn unwritable_output_directory_fails_the_run() {
    let dir = scratch("repro_unwritable");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, "a regular file").expect("create the blocking file");
    // `--csv` under a regular file: neither the CSV series nor the
    // `BENCH_chaos.json` artifact can be created.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--table1", "--chaos", "--quick", "--csv"])
        .arg(file.join("out"))
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("failed to write table1.csv"), "{stderr}");
    assert!(
        stderr.contains("failed to write BENCH_chaos.json"),
        "{stderr}"
    );
    // Every selected artifact still ran and printed.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Chaos / failure recovery"), "{stdout}");
}

#[test]
fn writable_output_directory_succeeds() {
    let dir = scratch("repro_writable");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--table1", "--quick", "--csv"])
        .arg(&dir)
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("table1.csv").is_file());
}
