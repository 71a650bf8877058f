//! The report model against its committed artifacts: the baselines are
//! fixed points of parse + render, integers survive exactly, and every
//! key the reports, the paper report and the `--obs` artifacts emit is
//! documented in `docs/REPORT_SCHEMA.md`.

use std::collections::BTreeSet;

use mithril_obs::json::Json;
use mithril_obs::{ChannelCapture, Event, LaneCause, ObsCapture, KINDS};
use mithril_runner::engine::PoolConfig;
use mithril_runner::report::{faults_json, metrics_only_json, sweep_json};
use mithril_runner::scenarios::{FaultCampaignSpec, SweepSpec};
use mithril_runner::{run_campaign, run_sweep, run_sweep_observed};
use mithril_sim::ObsConfig;

const BASELINES: [&str; 5] = [
    "BENCH_sweep.json",
    "BENCH_obs.json",
    "BENCH_qos.json",
    "BENCH_faults.json",
    "BENCH_paper.json",
];

fn repo_file(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn pool() -> PoolConfig {
    PoolConfig {
        threads: 2,
        shard_size: 1,
    }
}

fn tiny_sweep() -> SweepSpec {
    let mut spec = SweepSpec::smoke();
    spec.insts_per_core = 500;
    spec.cores = 1;
    spec
}

#[test]
fn committed_baselines_are_fixed_points_of_the_writer() {
    for name in BASELINES {
        let text = repo_file(name);
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            doc.render_report() == text,
            "{name} does not re-render byte for byte"
        );
    }
}

#[test]
fn seeds_beyond_2_pow_53_parse_exactly() {
    let doc = Json::parse(&repo_file("BENCH_obs.json")).unwrap();
    let seed = doc.get("positions").unwrap().as_arr().unwrap()[1]
        .get("seed")
        .unwrap()
        .as_u64();
    assert_eq!(seed, Some(18_236_358_221_596_474_284));
}

fn collect_keys(v: &Json, keys: &mut BTreeSet<String>) {
    match v {
        Json::Obj(members) => {
            for (k, child) in members {
                keys.insert(k.clone());
                collect_keys(child, keys);
            }
        }
        Json::Arr(items) => items.iter().for_each(|c| collect_keys(c, keys)),
        _ => {}
    }
}

#[test]
fn every_emitted_key_is_documented() {
    let mut docs = vec![];
    for name in BASELINES {
        docs.push(repo_file(name));
    }

    let mut faults = FaultCampaignSpec::smoke();
    faults.base.insts_per_core = 500;
    faults.base.cores = 1;
    faults.rates_ppm = vec![0, 10_000];
    let passes = run_campaign(&faults.passes(), pool(), 3, None);
    docs.push(faults_json(3, faults.scrub, &faults.rates_ppm, &passes));

    let mut results = run_sweep(&tiny_sweep(), pool(), 5);
    docs.push(metrics_only_json(5, &results));
    results[0].outcome = Err("rejected".into());
    docs.push(sweep_json(5, &results[..1]));

    // The `--obs` artifacts of a small observed run: every events.jsonl
    // line and the per-position summary.json.
    let observed = run_sweep_observed(&tiny_sweep(), pool(), 5, ObsConfig::default(), None);
    for capture in observed.iter().filter_map(|(_, c)| c.as_ref()) {
        docs.extend(capture.events_jsonl().lines().map(String::from));
        docs.push(capture.summary_json());
    }
    docs.extend(every_event_kind().events_jsonl().lines().map(String::from));

    let mut keys = BTreeSet::new();
    for text in &docs {
        collect_keys(&Json::parse(text).unwrap(), &mut keys);
    }
    // The fault campaign carried real counters, an error entry showed up,
    // and the event log was among the inputs.
    for key in [
        "fault_stats",
        "bit_flips",
        "points",
        "error",
        "runs",
        "t_ps",
        "cause",
        "events_total",
    ] {
        assert!(keys.contains(key), "{key} not emitted");
    }

    let schema = repo_file("docs/REPORT_SCHEMA.md");
    let missing: Vec<&String> = keys
        .iter()
        .filter(|k| !schema.contains(&format!("`{k}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "keys emitted but not backticked in docs/REPORT_SCHEMA.md: {missing:?}"
    );
}

/// One capture holding an event of every kind, so the payload keys of
/// kinds a small run never emits (faults, evictions) are covered too.
fn every_event_kind() -> ObsCapture {
    let events = [
        Event::Act { bank: 0, row: 1 },
        Event::Ref { rank: 0, banks: 8 },
        Event::Rfm {
            bank: 0,
            aggressor: Some(1),
            victims: 2,
            skipped: false,
        },
        Event::RfmElided { bank: 0 },
        Event::Arr {
            bank: 0,
            victims: 2,
        },
        Event::MitigationTrigger {
            bank: 0,
            victims: 2,
        },
        Event::TableEvict {
            bank: 0,
            evictions: 1,
        },
        Event::TableInvalidate {
            bank: 0,
            invalidations: 1,
        },
        Event::FaultInject { bank: 0, count: 1 },
        Event::FaultDetect { bank: 0, count: 1 },
        Event::FaultRepair { bank: 0, count: 1 },
        Event::LaneInvalidate {
            bank: 0,
            cause: LaneCause::Execute,
        },
        Event::BlissClear,
    ];
    assert_eq!(events.len(), KINDS);
    ObsCapture {
        interval_cycles: 1,
        channels: vec![ChannelCapture {
            channel: 0,
            events: events.into_iter().map(|e| (0, e)).collect(),
            counts: [1; KINDS],
            dropped: 0,
            rows: vec![],
        }],
    }
}
