//! End-to-end pins for the `obs report` CLI: exit codes and table output
//! over real emitted reports, including the acceptance case — a nonzero
//! exit on an injected synthetic regression.

use std::path::PathBuf;
use std::process::Command;

use mithril_runner::engine::PoolConfig;
use mithril_runner::report::{sweep_json, SweepResult};
use mithril_runner::run_sweep;
use mithril_runner::scenarios::SweepSpec;

fn tiny_sweep(seed: u64) -> Vec<SweepResult> {
    let mut spec = SweepSpec::smoke();
    spec.insts_per_core = 800;
    spec.cores = 2;
    let mut results = run_sweep(
        &spec,
        PoolConfig {
            threads: 2,
            shard_size: 1,
        },
        seed,
    );
    results.truncate(4);
    results
}

fn write_temp(name: &str, content: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("mithril-obs-report-{name}"));
    std::fs::write(&path, content).unwrap();
    path
}

fn run_obs(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_obs"))
        .args(args)
        .output()
        .expect("obs binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn identical_reports_pass_the_gate() {
    let json = sweep_json(7, &tiny_sweep(7));
    let a = write_temp("same-a.json", &json);
    let b = write_temp("same-b.json", &json);
    let (code, stdout, _) = run_obs(&[
        "report",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--fail-on-regression",
        "5",
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("0 changed"), "{stdout}");
}

#[test]
fn injected_regression_exits_nonzero() {
    let results = tiny_sweep(42);
    let old = sweep_json(42, &results);
    let mut worse = results;
    for r in &mut worse {
        if let Ok(m) = &mut r.outcome {
            m.aggregate_ipc *= 0.80;
        }
    }
    let new = sweep_json(42, &worse);
    let a = write_temp("reg-old.json", &old);
    let b = write_temp("reg-new.json", &new);

    // Without a threshold the table prints but the exit stays 0.
    let (code, stdout, _) = run_obs(&["report", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("<-- worse"), "{stdout}");

    // With the CI gate the regression turns into a nonzero exit.
    let (code, stdout, _) = run_obs(&[
        "report",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--fail-on-regression",
        "5",
    ]);
    assert_ne!(code, 0, "{stdout}");
    assert!(stdout.contains("aggregate_ipc"), "{stdout}");
    assert!(stdout.contains("FAIL"), "{stdout}");

    // The reverse direction (an improvement) passes the same gate.
    let (code, stdout, _) = run_obs(&[
        "report",
        b.to_str().unwrap(),
        a.to_str().unwrap(),
        "--fail-on-regression",
        "5",
    ]);
    assert_eq!(code, 0, "{stdout}");
}

/// Acceptance pin for the per-tenant gate: a single core's p99 blowup —
/// the noisy-neighbor failure mode — must trip `--fail-on-regression`
/// even though the aggregate latency histogram is untouched.
#[test]
fn per_tenant_p99_blowup_trips_the_gate() {
    let results = tiny_sweep(11);
    let old = sweep_json(11, &results);
    let mut worse = results;
    for r in &mut worse {
        if let Ok(m) = &mut r.outcome {
            // Blow up core 1's tail only; the system-level histogram and
            // averages stay exactly as emitted.
            let slot = m.per_core.slot(1);
            for _ in 0..4096 {
                slot.read_latency.record(50_000_000);
            }
        }
    }
    let new = sweep_json(11, &worse);
    let a = write_temp("tenant-old.json", &old);
    let b = write_temp("tenant-new.json", &new);
    let (code, stdout, _) = run_obs(&[
        "report",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--fail-on-regression",
        "5",
    ]);
    assert_ne!(code, 0, "{stdout}");
    assert!(stdout.contains("core1_p99_ps"), "{stdout}");
    assert!(stdout.contains("<-- worse"), "{stdout}");
    assert!(
        !stdout
            .lines()
            .any(|l| l.contains("read_p99_ps") && l.contains("worse")),
        "aggregate percentiles must stay clean: {stdout}"
    );
}

#[test]
fn forged_format_version_is_refused() {
    let json = sweep_json(7, &tiny_sweep(7));
    let forged = json.replace(
        &format!("\"format_version\": {}", mithril_obs::FORMAT_VERSION),
        "\"format_version\": 999",
    );
    let a = write_temp("forged-a.json", &json);
    let b = write_temp("forged-b.json", &forged);
    let (code, _, stderr) = run_obs(&["report", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("999"), "{stderr}");
}

#[test]
fn hostile_nesting_exits_2() {
    let json = sweep_json(7, &tiny_sweep(7));
    let a = write_temp("nest-a.json", &json);
    // One million unclosed arrays: rejected by the parser's depth cap
    // instead of overflowing the stack.
    let b = write_temp("nest-b.json", &"[".repeat(1_000_000));
    let (code, _, stderr) = run_obs(&["report", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("nesting deeper"), "{stderr}");
}

#[test]
fn usage_errors_exit_2() {
    let (code, _, stderr) = run_obs(&["report", "only-one.json"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("usage"), "{stderr}");
    let (code, _, _) = run_obs(&["unknown-subcommand"]);
    assert_eq!(code, 2);
}

/// A threshold that is not a finite, non-negative percent would disable
/// the gate (`NaN` compares false against every delta): refuse it.
#[test]
fn non_finite_or_negative_thresholds_exit_2() {
    let json = sweep_json(7, &tiny_sweep(7));
    let a = write_temp("pct-a.json", &json);
    let path = a.to_str().unwrap();
    for bad in ["NaN", "nan", "inf", "-inf", "-1", "five"] {
        let (code, _, stderr) = run_obs(&["report", path, path, "--fail-on-regression", bad]);
        assert_eq!(code, 2, "{bad}: {stderr}");
        assert!(stderr.contains("bad percent value"), "{bad}: {stderr}");
    }
    let (code, stdout, _) = run_obs(&["report", path, path, "--fail-on-regression", "0"]);
    assert_eq!(code, 0, "{stdout}");
}
