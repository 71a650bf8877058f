//! Regenerates the paper's evaluation — Figs. 2 and 6–11, Table IV,
//! Appendix C and the ablation — with its claims, as one report.
//!
//! ```text
//! cargo run --release -p mithril-bench --bin paper [-- --threads N] [--out PATH]
//! ```
//!
//! Writes `BENCH_paper.json` (or `PATH`); the field reference is in
//! `docs/REPORT_SCHEMA.md`. The report is byte-identical at any
//! `--threads`. Failing claims are listed on stdout but do not fail the
//! run: they are recorded reproduction gaps.

use std::process::ExitCode;

use mithril_bench::paper;
use mithril_bench::{default_threads, PoolConfig};
use mithril_obs::json::Json;

fn main() -> ExitCode {
    let mut threads = default_threads();
    let mut out = String::from("BENCH_paper.json");
    let args: Vec<String> = std::env::args().skip(1).collect();
    for pair in args.chunks(2) {
        match (pair[0].as_str(), pair.get(1)) {
            ("--threads", Some(n)) if n.parse::<usize>().is_ok() => threads = n.parse().unwrap(),
            ("--out", Some(path)) => out = path.clone(),
            _ => {
                eprintln!("usage: paper [--threads N] [--out PATH]");
                return ExitCode::from(2);
            }
        }
    }

    let report = paper::report(PoolConfig {
        threads,
        shard_size: 1,
    });
    if let Err(e) = std::fs::write(&out, report.render_report()) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    let claims = report.get("claims").and_then(Json::as_arr).unwrap_or(&[]);
    let failing: Vec<&Json> = claims
        .iter()
        .filter(|c| c.get("holds") == Some(&Json::Bool(false)))
        .collect();
    for c in &failing {
        let text = |k| c.get(k).and_then(Json::as_str).unwrap_or_default();
        let observed = c.get("observed").map(Json::render).unwrap_or_default();
        println!(
            "gap  {}: {} (observed {observed})",
            text("figure"),
            text("claim")
        );
    }
    println!(
        "{} of {} claims hold; wrote {out}",
        claims.len() - failing.len(),
        claims.len()
    );
    ExitCode::SUCCESS
}
