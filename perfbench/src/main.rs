//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a human-readable table, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. With `--trace 1`
//! the per-layer metrics are reported instead of the end-to-end ones and
//! the traced run's spans and aggregates are written to
//! `<trace-dir>/<workload>-seed<N>.json` (default `.bench_trace`).

use std::path::PathBuf;
use std::process::ExitCode;

use mithril_perfbench::probe::Spans;
use mithril_perfbench::{run, Options, WORKLOADS};

fn usage() -> String {
    format!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
         [--trace-dir DIR] [--tiny]\nworkloads: {}",
        WORKLOADS.join(", ")
    )
}

fn parse() -> Result<(Options, PathBuf), String> {
    let mut o = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut dir = PathBuf::from(".bench_trace");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            o.tiny = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => o.workload = value,
            "--seed" => o.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => o.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--trace-dir" => dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!("unknown workload '{}'", o.workload));
    }
    Ok((o, dir))
}

fn main() -> ExitCode {
    let (o, dir) = match parse() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let spans = Spans::default();
    let report = match run(&o, &spans) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", o.workload);
            return ExitCode::from(1);
        }
    };
    println!(
        "# {} seed {} ({} run, {} s)",
        o.workload,
        o.seed,
        if o.trace { "traced" } else { "end-to-end" },
        o.seconds
    );
    for m in &report.metrics {
        println!("{:<38} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "# failed {} of {} checked operations ({:.3}%)",
        report.failures.len(),
        report.attempted,
        100.0 * report.failures.len() as f64 / report.attempted.max(1) as f64
    );
    for f in &report.failures {
        println!("# FAILED: {f}");
    }
    if o.trace {
        let path = dir.join(format!("{}-seed{}.json", o.workload, o.seed));
        let metrics: Vec<String> = report
            .metrics
            .iter()
            .map(|m| format!("    \"{}\": {:?}", m.name, m.value))
            .collect();
        let body = format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"metrics\": {{\n{}\n  }},\n  \"spans\": {}\n}}\n",
            o.workload,
            o.seed,
            metrics.join(",\n"),
            spans.json()
        );
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("# trace written to {}", path.display());
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
