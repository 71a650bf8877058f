//! The benchmark's own tests: every workload prints every metric with its
//! unit, the noisy-neighbor replay is exact, the QoS workload really
//! loads the controller's fallback path, and `BENCHMARK.json` lists
//! exactly the metrics the binary prints.

use std::path::PathBuf;
use std::process::Command;

use mithril_perfbench::common::END_TO_END;
use mithril_perfbench::probe::Spans;
use mithril_perfbench::system::{run_once, Benign, Noisy, SysBench};
use mithril_perfbench::{layers, run, Options, WORKLOADS};
use mithril_runner::report::metrics_json;

fn tiny(workload: &str, trace: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed: 5,
        seconds: 0.0,
        trace,
        tiny: true,
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let trace_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bench-trace");
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
                .args(["--trace", trace, "--tiny", "--trace-dir"])
                .arg(&trace_dir)
                .output()
                .expect("benchmark binary runs");
            assert!(out.status.success(), "{workload} --trace {trace} failed");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload}: {last}"
            );
            assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
            let expected: Vec<(String, &str)> = if trace == "1" {
                layers::names()
            } else {
                END_TO_END
                    .iter()
                    .map(|(n, u)| (n.to_string(), *u))
                    .collect()
            };
            for (name, unit) in &expected {
                let prefix = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&prefix)
                    .unwrap_or_else(|| panic!("{workload} misses {name}: {last}"));
                let rest = &last[at + prefix.len()..];
                let (value, tail) = rest.split_once(", ").expect("value then unit");
                value.parse::<f64>().expect("numeric value");
                assert!(tail.starts_with(&format!("\"unit\": \"{unit}\"}}")));
            }
            assert_eq!(last.matches("\"unit\": ").count(), expected.len());
        }
    }
}

#[test]
fn noisy_neighbor_replay_matches_live_generation() {
    let b = Noisy {
        seed: 9,
        insts: 30_000,
    };
    let capture = b.inputs().expect("capture records and decodes");
    assert_eq!(b.input_checks(&capture), (1, Vec::new()));
    let live = run_once(&b, b.live_threads()).expect("live run");
    let replay = run_once(&b, b.threads(&capture)).expect("replayed run");
    assert!(live.counters.acts > 0);
    assert_eq!(metrics_json(&live), metrics_json(&replay));
}

#[test]
fn qos_workload_recomputes_lanes_far_more_than_benign() {
    let per_act = |workload: &str| {
        let report = run(&tiny(workload, true), &Spans::default()).expect("traced run");
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        report
            .get("controller.lane_recomputes_per_act")
            .expect("metric reported")
    };
    let benign = per_act("benign-mithril-plus");
    let noisy = per_act("noisy-neighbor-qos");
    assert!(benign > 0.0);
    assert!(noisy >= 10.0 * benign, "noisy {noisy} vs benign {benign}");
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut names = 0;
    for w in WORKLOADS {
        assert!(
            spec.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "{w}"
        );
        names += 1;
    }
    for (name, unit) in END_TO_END {
        assert!(
            spec.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
            "{name}"
        );
        names += 1;
    }
    for (name, unit) in layers::names() {
        assert!(
            spec.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
            "{name}"
        );
        names += 1;
    }
    assert_eq!(spec.matches("{\"name\": ").count(), names);
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    let a = Noisy {
        seed: 4,
        insts: 5_000,
    };
    let b = Noisy {
        seed: 5,
        insts: 5_000,
    };
    let (ca, ca2, cb) = (
        a.inputs().expect("capture"),
        a.inputs().expect("capture"),
        b.inputs().expect("capture"),
    );
    assert_eq!(ca.per_core, ca2.per_core);
    assert_ne!(ca.per_core, cb.per_core);
    let m = |seed| {
        let b = Benign { seed, insts: 5_000 };
        metrics_json(&run_once(&b, b.threads(&())).expect("run"))
    };
    assert_eq!(m(1), m(1));
    assert_ne!(m(1), m(2));
}
