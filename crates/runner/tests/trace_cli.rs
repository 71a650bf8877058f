//! End-to-end pins for `trace convert`: one stream of a multi-core
//! capture survives the trip MTRC → `addr` text → MTRC with its op count
//! intact, and misuse exits 2 like every other `trace` error. Also pins
//! `--resilient` on a damaged capture: strict reads refuse it, while
//! `stat`, `convert` and `replay` skip exactly the damaged chunk, and a
//! replay reports the damage once however many schemes it runs.

mod damaged_capture;

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use mithril_obs::json::Json;
use mithril_runner::engine::PoolConfig;
use mithril_runner::report::metrics_only_json;
use mithril_runner::run_sweep;
use mithril_runner::scenarios::{all_schemes, default_rfm_th, SweepSpec};
use mithril_trace::read_all;

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

fn u64s_at(j: &Json, key: &str) -> Vec<u64> {
    j.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} missing"))
        .iter()
        .map(|v| v.as_u64().expect("u64 entry"))
        .collect()
}

#[test]
fn resilient_stat_and_convert_skip_exactly_the_damaged_chunk() {
    let dir = scratch("resilient");
    let capture = damaged_capture::damaged_capture();
    let (clean, damaged, repaired) = (
        dir.join("clean.mtrc"),
        dir.join("damaged.mtrc"),
        dir.join("repaired.mtrc"),
    );
    std::fs::write(&clean, &capture.clean).unwrap();
    std::fs::write(&damaged, &capture.damaged).unwrap();
    let survivors: Vec<u64> = capture.survivors.iter().map(|o| o.len() as u64).collect();

    let out = trace(&["stat", "--trace", path(&damaged)]);
    assert!(
        !out.status.success(),
        "strict stat accepted a damaged capture"
    );

    let full = stat(&clean);
    let args = [
        "stat",
        "--trace",
        path(&damaged),
        "--top",
        "3",
        "--resilient",
    ];
    let skipped = Json::parse(&ok(&args)).expect("stat prints JSON");
    let resilience = skipped.get("resilience").expect("resilience report");
    assert_eq!(u64_at(resilience, "skipped_chunks"), 1);
    assert_eq!(u64s_at(&skipped, "per_core_ops"), survivors);
    let lost: Vec<u64> = u64s_at(&full, "per_core_ops")
        .iter()
        .zip(&survivors)
        .map(|(all, kept)| all - kept)
        .collect();
    assert_eq!(lost.iter().filter(|&&n| n > 0).count(), 1, "one chunk lost");
    assert_eq!(
        u64_at(&skipped, "total_ops"),
        u64_at(&full, "total_ops") - lost.iter().sum::<u64>()
    );

    ok(&[
        "convert",
        "--in",
        path(&damaged),
        "--out",
        path(&repaired),
        "--resilient",
    ]);
    ok(&["stat", "--trace", path(&repaired)]);
    let (header, per_core) = read_all(&std::fs::read(&repaired).unwrap()[..]).unwrap();
    assert_eq!(header, capture.header);
    assert_eq!(per_core, capture.survivors, "exactly the surviving ops");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resilient_replay_matches_a_skip_registry_sweep() {
    let dir = scratch("resilient-replay");
    let capture = damaged_capture::damaged_capture();
    let (damaged, report) = (dir.join("damaged.mtrc"), dir.join("replay.json"));
    std::fs::write(&damaged, &capture.damaged).unwrap();
    ok(&[
        "replay",
        "--trace",
        path(&damaged),
        "--resilient",
        "--scheme",
        "mithril",
        "--threads",
        "1",
        "--metrics-only",
        "--out",
        path(&report),
    ]);

    // The sweep `replay` runs, with every default taken from the header.
    let h = &capture.header;
    let flip_th = 6_250;
    let spec = SweepSpec {
        geometries: vec![h.geometry],
        schemes: all_schemes(default_rfm_th(flip_th), 6)
            .into_iter()
            .filter(|&(label, _)| label == "mithril")
            .map(|(label, s)| (label.to_string(), s))
            .collect(),
        workloads: vec![format!("trace+skip:{}", path(&damaged))],
        flip_th,
        cores: h.cores,
        insts_per_core: h.insts_per_core,
    };
    let pool = PoolConfig {
        threads: 1,
        shard_size: 1,
    };
    let results = run_sweep(&spec, pool, h.base_seed);
    assert!(results.iter().all(|r| r.outcome.is_ok()));
    assert_eq!(
        std::fs::read_to_string(&report).unwrap(),
        metrics_only_json(h.base_seed, &results)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resilient_replay_of_every_scheme_reports_the_damage_once() {
    let dir = scratch("resilient-all");
    let capture = damaged_capture::damaged_capture();
    let (damaged, report) = (dir.join("damaged.mtrc"), dir.join("replay.json"));
    std::fs::write(&damaged, &capture.damaged).unwrap();
    let out = trace(&[
        "replay",
        "--trace",
        path(&damaged),
        "--resilient",
        "--scheme",
        "all",
        "--threads",
        "2",
        "--metrics-only",
        "--out",
        path(&report),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "resilient replay failed\n{stderr}");
    let skips: Vec<&str> = stderr.lines().filter(|l| l.contains("skipped")).collect();
    assert_eq!(
        skips.len(),
        1,
        "one skip line per decoded capture:\n{stderr}"
    );
    let label = format!(
        "# trace+skip:{}: skipped 1 damaged chunk(s)",
        path(&damaged)
    );
    assert!(skips[0].starts_with(&label), "{}", skips[0]);
    std::fs::remove_dir_all(&dir).unwrap();
}
