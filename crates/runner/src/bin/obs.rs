//! `obs` — observability report analytics.
//!
//! ```text
//! obs report BASELINE CANDIDATE [MORE...] [--fail-on-regression PCT]
//! ```
//!
//! Ingests two or more emitted reports — `BENCH_sweep.json` sweeps,
//! `trace replay --metrics-only` outputs, `BENCH_obs.json` /
//! `obs_counts.json` count baselines, or `--obs` output directories
//! (their `obs_counts.json` is read) — validates every input's
//! `format_version`, and prints a regression table against the first
//! input: per-metric deltas (direction-aware), latency-percentile
//! shifts, new/missing scenarios, and ring-drop warnings.
//!
//! With `--fail-on-regression PCT` the process exits nonzero when any
//! metric regressed by more than PCT percent or any ingested report
//! carries ring-drop warnings — the CI gate for perf trajectories.

use std::path::Path;
use std::process::ExitCode;

use mithril_runner::analytics::{compare, parse_report, Report};
use mithril_runner::cli::{die, Args};

const USAGE: &str = "obs report BASELINE CANDIDATE [MORE...] [--fail-on-regression PCT]";

/// Loads one input: a report file, or a directory holding
/// `obs_counts.json`.
fn load(path: &str) -> Result<Report, String> {
    let p = Path::new(path);
    let file = if p.is_dir() {
        p.join("obs_counts.json")
    } else {
        p.to_path_buf()
    };
    let text =
        std::fs::read_to_string(&file).map_err(|e| format!("reading {}: {e}", file.display()))?;
    parse_report(&text).map_err(|e| format!("{}: {e}", file.display()))
}

fn cmd_report(mut args: Args) -> ExitCode {
    // `NaN` parses but compares false against every delta, and a negative
    // or infinite threshold is meaningless: all would silently disable
    // the gate.
    let fail_pct = args.take("fail-on-regression").map(|v| {
        v.parse::<f64>()
            .ok()
            .filter(|p| p.is_finite() && *p >= 0.0)
            .unwrap_or_else(|| die(format!("bad percent value `{v}`")))
    });
    let inputs = args.positionals();
    args.finish();
    if inputs.len() < 2 {
        die(format!(
            "need at least a baseline and one candidate report (usage: {USAGE})"
        ));
    }

    let baseline = load(&inputs[0]).unwrap_or_else(|e| die(e));
    println!(
        "baseline: {} ({}, {} runs)",
        inputs[0],
        baseline.kind,
        baseline.runs.len()
    );

    let mut failed = false;
    for input in &inputs[1..] {
        let candidate = load(input).unwrap_or_else(|e| die(e));
        if candidate.kind != baseline.kind {
            die(format!(
                "cannot compare a {} report ({input}) against a {} baseline",
                candidate.kind, baseline.kind
            ));
        }
        println!("\n== {} vs baseline", input);
        let cmp = compare(&baseline, &candidate);
        print!("{}", cmp.render());
        if let Some(pct) = fail_pct {
            let regs = cmp.regressions(pct);
            if !regs.is_empty() {
                println!(
                    "FAIL: {} metric(s) regressed by more than {pct}%",
                    regs.len()
                );
                failed = true;
            }
            if !cmp.warnings.is_empty() {
                println!("FAIL: {} warning(s) present", cmp.warnings.len());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1);
    match raw.next().as_deref() {
        Some("report") => cmd_report(Args::parse(raw, &[])),
        Some("--help" | "-h") | None => {
            eprintln!("usage:");
            eprintln!("  {USAGE}");
            eprintln!();
            eprintln!("inputs: sweep/replay/obs-count JSON reports, or --obs output");
            eprintln!("directories (their obs_counts.json is read). The first input");
            eprintln!("is the baseline; every later input is compared against it.");
            ExitCode::SUCCESS
        }
        Some(other) => die(format!("unknown subcommand `{other}`")),
    }
}
