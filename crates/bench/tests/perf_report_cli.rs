//! End-to-end pins for the `perf_report` CLI: a malformed command line is
//! rejected before anything is measured, and never overwrites the
//! committed `BENCH_table.json`.

use std::process::Command;

fn rejects(name: &str, args: &[&str]) {
    let dir = std::env::temp_dir().join(format!("mithril-perf-report-cli-{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    let table = dir.join("BENCH_table.json");
    let _ = std::fs::remove_file(&table);

    let out = Command::new(env!("CARGO_BIN_EXE_perf_report"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("perf_report binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: perf_report"), "{stderr}");
    assert!(!table.exists(), "{args:?} wrote {}", table.display());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn out_without_a_path_is_rejected() {
    rejects("out", &["--out"]);
}

#[test]
fn unknown_flag_is_rejected() {
    rejects("bogus", &["--bogus"]);
}
