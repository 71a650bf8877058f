//! Argument errors of the four binaries: an unknown option, an option
//! missing its value, and an option the chosen mode does not use each
//! exit 2 with one line on stderr naming the option, before any work
//! starts.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

/// Asserts `out` is a usage error: status 2 and one stderr line that
/// names `option`.
fn usage_error(out: &Output, option: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{option}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{option}: {stderr}");
    assert!(stderr.contains(option), "{option}: {stderr}");
}

/// A report path private to one test of this process; nothing may be
/// written there.
fn unwritten(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mithril-cli-errors-{}-{test}", std::process::id()))
}

fn utf8(p: &std::path::Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

const SWEEP: &str = env!("CARGO_BIN_EXE_sweep");
const TRACE: &str = env!("CARGO_BIN_EXE_trace");
const OBS: &str = env!("CARGO_BIN_EXE_obs");
const PAPER: &str = env!("CARGO_BIN_EXE_paper");

#[test]
fn every_binary_rejects_an_unknown_option() {
    let out = unwritten("unknown");
    let out = utf8(&out);
    usage_error(&run(SWEEP, &["--bogus", "1", "--out", out]), "--bogus");
    usage_error(
        &run(TRACE, &["stat", "--trace", out, "--bogus", "1"]),
        "--bogus",
    );
    usage_error(&run(OBS, &["report", out, out, "--bogus"]), "--bogus");
    usage_error(&run(PAPER, &["--out", out, "--bogus", "1"]), "--bogus");
    assert!(!std::path::Path::new(out).exists());
}

#[test]
fn every_binary_rejects_an_option_missing_its_value() {
    let out = unwritten("missing");
    let out = utf8(&out);
    usage_error(&run(SWEEP, &["--out", out, "--threads"]), "--threads");
    usage_error(&run(TRACE, &["stat", "--trace"]), "--trace");
    usage_error(
        &run(OBS, &["report", out, out, "--fail-on-regression"]),
        "--fail-on-regression",
    );
    usage_error(&run(PAPER, &["--out", out, "--threads"]), "--threads");
    assert!(!std::path::Path::new(out).exists());
}

/// `--fault-rates` and `--no-scrub` shape a fault campaign: without
/// `--faults` there is none for them to shape.
#[test]
fn sweep_rejects_fault_options_without_faults() {
    let out = unwritten("fault-options");
    let out = utf8(&out);
    usage_error(
        &run(SWEEP, &["--fault-rates", "0,100", "--out", out]),
        "--fault-rates",
    );
    usage_error(&run(SWEEP, &["--no-scrub", "--out", out]), "--no-scrub");
    assert!(!std::path::Path::new(out).exists());
}

/// `--resilient` applies to `replay`, `stat` and `convert`, and
/// `--metrics-only` to `replay` only.
#[test]
fn trace_rejects_flags_a_command_does_not_use() {
    let dir = unwritten("trace-flags");
    std::fs::create_dir_all(&dir).unwrap();
    let (capture, copy) = (dir.join("cap.mtrc"), dir.join("copy.mtrc"));
    let record = [
        "record",
        "--workload",
        "mix-high",
        "--cores",
        "1",
        "--insts",
        "500",
        "--out",
        utf8(&capture),
    ];
    let recorded = run(TRACE, &record);
    assert!(recorded.status.success(), "{recorded:?}");

    for flag in ["--resilient", "--metrics-only"] {
        let mut args = record.to_vec();
        args[record.len() - 1] = utf8(&copy);
        args.push(flag);
        usage_error(&run(TRACE, &args), flag);
    }
    usage_error(
        &run(
            TRACE,
            &["stat", "--trace", utf8(&capture), "--metrics-only"],
        ),
        "--metrics-only",
    );
    usage_error(
        &run(
            TRACE,
            &[
                "convert",
                "--in",
                utf8(&capture),
                "--out",
                utf8(&copy),
                "--metrics-only",
            ],
        ),
        "--metrics-only",
    );
    assert!(!copy.exists());
    std::fs::remove_dir_all(&dir).unwrap();
}
