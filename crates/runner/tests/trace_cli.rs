//! End-to-end pins for `trace convert`: one stream of a multi-core
//! capture survives the trip MTRC → `addr` text → MTRC with its op count
//! intact, and misuse exits 2 like every other `trace` error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use mithril_obs::json::Json;

fn trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(args)
        .output()
        .expect("trace binary runs")
}

fn ok(args: &[&str]) -> String {
    let out = trace(args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "trace {args:?} failed\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// A scratch directory private to one test of this process.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mithril-trace-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

fn stat(capture: &Path) -> Json {
    Json::parse(&ok(&["stat", "--trace", path(capture), "--top", "3"])).expect("stat prints JSON")
}

fn u64_at(j: &Json, key: &str) -> u64 {
    j.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{key} missing"))
}

#[test]
fn one_core_round_trips_through_addr_text() {
    let dir = scratch("round-trip");
    let (capture, text, back) = (
        dir.join("cap.mtrc"),
        dir.join("core1.addr"),
        dir.join("core1.mtrc"),
    );
    ok(&[
        "record",
        "--workload",
        "mix-high",
        "--cores",
        "2",
        "--insts",
        "3000",
        "--seed",
        "5",
        "--out",
        path(&capture),
    ]);
    let full = stat(&capture);
    assert_eq!(u64_at(&full, "cores"), 2);
    let core1_ops = full
        .get("per_core_ops")
        .and_then(Json::as_arr)
        .and_then(|ops| ops.get(1))
        .and_then(Json::as_u64)
        .expect("per_core_ops has core 1");
    assert!(core1_ops > 0);

    ok(&[
        "convert",
        "--in",
        path(&capture),
        "--core",
        "1",
        "--out-format",
        "addr",
        "--out",
        path(&text),
    ]);
    let lines = std::fs::read_to_string(&text).unwrap().lines().count() as u64;
    assert_eq!(lines, core1_ops, "addr text has one line per op");

    ok(&[
        "convert",
        "--in",
        path(&text),
        "--in-format",
        "addr",
        "--out",
        path(&back),
    ]);
    let single = stat(&back);
    assert_eq!(u64_at(&single, "cores"), 1);
    assert_eq!(u64_at(&single, "total_ops"), core1_ops);
    let hot = single.get("hot_rows").and_then(Json::as_arr).unwrap();
    assert_eq!(hot.len(), 3, "--top 3 lists three hot rows");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn convert_misuse_exits_2() {
    let dir = scratch("misuse");
    let text = dir.join("ops.addr");
    std::fs::write(&text, "0x1000\n0x2040\n").unwrap();
    let out = trace(&[
        "convert",
        "--in",
        path(&text),
        "--in-format",
        "addr",
        "--out",
        path(&dir.join("ops.mtrc")),
        "--resilient",
    ]);
    assert_eq!(out.status.code(), Some(2), "--resilient on text input");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--resilient only applies to mtrc input"));

    let out = trace(&[
        "convert",
        "--in",
        path(&text),
        "--in-format",
        "addr",
        "--out",
        path(&dir.join("ops.mtrc")),
        "--bogus",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(2), "unknown option");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option --bogus"));
    std::fs::remove_dir_all(&dir).unwrap();
}
