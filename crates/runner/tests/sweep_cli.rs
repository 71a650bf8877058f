//! End-to-end pins for the `sweep` CLI: every mode runs through the same
//! execution path, so `--progress` prints one heartbeat line per run on
//! stderr whatever the mode, and every variant of a base cell runs under
//! that cell's seed.

use std::process::Command;

use mithril_obs::json::Json;
use mithril_runner::scenarios::FaultCampaignSpec;

#[test]
fn fault_campaign_prints_one_heartbeat_per_run() {
    let out_path = std::env::temp_dir().join("mithril-sweep-cli-faults.json");
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--faults", "--progress", "--fault-rates", "0,10000"])
        .args(["--insts", "500", "--cores", "1", "--threads", "2", "--out"])
        .arg(&out_path)
        .output()
        .expect("sweep binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}\n{stderr}");

    let mut spec = FaultCampaignSpec::smoke();
    spec.rates_ppm = vec![0, 10_000];
    let runs = spec.passes().concat().len();
    let heartbeats = stderr
        .lines()
        .filter(|l| l.starts_with("# progress: "))
        .count();
    assert_eq!(heartbeats, runs, "{stderr}");
    assert!(
        stderr.contains(&format!("# progress: {runs}/{runs} (")),
        "{stderr}"
    );
    assert!(
        stdout.contains(&format!("# {runs}/{runs} runs ok;")),
        "{stdout}"
    );
    std::fs::remove_file(&out_path).unwrap();
}

#[test]
fn every_fault_rate_run_carries_its_anchors_seed() {
    let out_path = std::env::temp_dir().join("mithril-sweep-cli-fault-seeds.json");
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args([
            "--faults",
            "--fault-rates",
            "0,100,10000",
            "--shard-size",
            "3",
        ])
        .args(["--insts", "300", "--cores", "1", "--threads", "2", "--out"])
        .arg(&out_path)
        .output()
        .expect("sweep binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = Json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    std::fs::remove_file(&out_path).unwrap();

    let runs = report.get("runs").and_then(Json::as_arr).expect("runs");
    let field = |run: &Json, key: &str| run.get(key).cloned().expect(key);
    let anchors: Vec<&Json> = runs
        .iter()
        .filter(|r| field(r, "rate_ppm").as_u64() == Some(0))
        .collect();
    assert_eq!(anchors.len() * 3, runs.len());
    for run in runs {
        let name = field(run, "name");
        let (cell, _) = name.as_str().unwrap().split_once("@f").unwrap();
        let anchor = anchors
            .iter()
            .find(|a| field(a, "name").as_str() == Some(&format!("{cell}@f0ppm")))
            .unwrap_or_else(|| panic!("{cell} has no rate-0 anchor"));
        assert_eq!(field(run, "seed"), field(anchor, "seed"), "{name:?}");
    }
}
