//! End-to-end pins for the `sweep` CLI: every mode runs through the same
//! execution path, so `--progress` prints one heartbeat line per run on
//! stderr whatever the mode.

use std::process::Command;

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
    let runs = spec.scenarios().len();
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
