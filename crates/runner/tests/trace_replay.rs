//! End-to-end trace-replay determinism: recording a registry workload and
//! replaying the capture through the sweep engine must produce metrics
//! byte-identical to generating the workload live — at any worker-thread
//! count. This is the contract that makes captures interchangeable with
//! generators in every experiment.

mod damaged_capture;

use std::io::BufWriter;
use std::path::PathBuf;

use mithril_fasthash::splitmix64_seed;
use mithril_runner::engine::PoolConfig;
use mithril_runner::report::metrics_only_json;
use mithril_runner::run_sweep;
use mithril_runner::scenarios::{workload, workload_compatible, SweepSpec};
use mithril_sim::{Scheme, SystemConfig};
use mithril_trace::{record_thread_set, MtrcWriter, TraceHeader};

const BASE_SEED: u64 = 9;
const CORES: usize = 4;
const INSTS: u64 = 3_000;
const FLIP_TH: u64 = 6_250;

/// Records `name` the way `trace record` does: generator seeded with the
/// item seed of (shard 0, offset 0) under `BASE_SEED`.
///
/// `tag` must be unique per test: libtest runs tests as parallel threads
/// of one process, so a pid-only file name would race one test's
/// create/remove against another's replay.
fn record(name: &str, tag: &str) -> PathBuf {
    let mut cfg = SystemConfig::table_iii();
    cfg.cores = CORES;
    cfg.flip_th = FLIP_TH;
    let mut set = workload(name, CORES, &cfg, splitmix64_seed(BASE_SEED, 0, 0));
    let path = std::env::temp_dir().join(format!(
        "mithril_replay_test_{}_{tag}_{}.mtrc",
        std::process::id(),
        name
    ));
    let header = TraceHeader {
        geometry: cfg.geometry,
        cores: CORES,
        base_seed: BASE_SEED,
        insts_per_core: INSTS,
        source: name.to_string(),
    };
    let file = std::fs::File::create(&path).expect("create capture");
    let mut w = MtrcWriter::new(BufWriter::new(file), &header).expect("write header");
    record_thread_set(&mut set, INSTS, &mut w).expect("record");
    w.finish().expect("finish capture");
    path
}

fn schemes() -> Vec<(String, Scheme)> {
    vec![
        ("none".into(), Scheme::None),
        (
            "mithril".into(),
            Scheme::Mithril {
                rfm_th: 64,
                ad_th: Some(200),
                plus: false,
            },
        ),
    ]
}

fn spec_for(workload_name: String, schemes: Vec<(String, Scheme)>) -> SweepSpec {
    SweepSpec {
        geometries: vec![mithril_dram::Geometry::table_iii_system()],
        schemes,
        workloads: vec![workload_name],
        flip_th: FLIP_TH,
        cores: CORES,
        insts_per_core: INSTS,
    }
}

fn metrics_report(spec: &SweepSpec, threads: usize) -> String {
    let results = run_sweep(
        spec,
        PoolConfig {
            threads,
            shard_size: 1,
        },
        BASE_SEED,
    );
    for r in &results {
        assert!(
            r.outcome.is_ok(),
            "{} failed: {:?}",
            r.scenario.name,
            r.outcome
        );
    }
    metrics_only_json(BASE_SEED, &results)
}

#[test]
fn replayed_capture_matches_live_generation_at_any_thread_count() {
    // A benign mix and an attack mix (uncacheable, mapping-aimed ops) —
    // the two op shapes the codec must carry losslessly. The bit-identical
    // contract is per sweep *position*: the capture's generator seed is the
    // item seed of (shard 0, offset 0), so each scheme is compared through
    // its own single-scheme sweep, where live generation derives exactly
    // that seed. (In a multi-scheme replay sweep the capture is the same
    // for every scheme — deliberately: one input stream, N schemes — while
    // live generation would reseed per position.)
    for name in ["mix-high", "attack-multi"] {
        let path = record(name, "identical");
        for (label, scheme) in schemes() {
            let one = |w: String| spec_for(w, vec![(label.clone(), scheme)]);
            let live = metrics_report(&one(name.to_string()), 1);
            let replay_1 = metrics_report(&one(format!("trace:{}", path.display())), 1);
            let replay_4 = metrics_report(&one(format!("trace:{}", path.display())), 4);
            assert_eq!(
                live, replay_1,
                "{name}/{label}: replay diverged from live generation"
            );
            assert_eq!(
                replay_1, replay_4,
                "{name}/{label}: replay depends on thread count"
            );
            assert!(live.contains("\"total_insts\""));
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn skip_replay_runs_exactly_the_surviving_chunks() {
    // `trace+skip:` over a damaged capture replays what a strict `trace:`
    // replays over a capture holding only the surviving ops; over a clean
    // capture the two policies replay the same.
    let capture = damaged_capture::damaged_capture();
    let file = |tag: &str, bytes: &[u8]| {
        let path = std::env::temp_dir().join(format!(
            "mithril_replay_test_{}_skip_{tag}.mtrc",
            std::process::id()
        ));
        std::fs::write(&path, bytes).expect("write capture");
        path
    };
    let mut w = MtrcWriter::new(Vec::new(), &capture.header).unwrap();
    for (core, ops) in capture.survivors.iter().enumerate() {
        for &op in ops {
            w.push(core, op).unwrap();
        }
    }
    let survivors = file("survivors", &w.finish().unwrap());
    let damaged = file("damaged", &capture.damaged);
    let clean = file("clean", &capture.clean);
    let report = |prefix: &str, path: &PathBuf| {
        metrics_report(
            &spec_for(format!("{prefix}:{}", path.display()), schemes()),
            2,
        )
    };
    assert_eq!(
        report("trace+skip", &damaged),
        report("trace", &survivors),
        "skip replay diverged from the surviving ops"
    );
    assert_eq!(report("trace+skip", &clean), report("trace", &clean));
    for path in [survivors, damaged, clean] {
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn multi_scheme_replay_is_thread_count_invariant() {
    let path = record("mix-high", "multischeme");
    let spec = spec_for(format!("trace:{}", path.display()), schemes());
    let a = metrics_report(&spec, 1);
    let b = metrics_report(&spec, 4);
    std::fs::remove_file(&path).ok();
    assert_eq!(a, b);
}

#[test]
fn replay_scenarios_skip_mismatched_geometries() {
    let path = record("mix-high", "geoskip"); // recorded on the 2-channel Table III system
    let name = format!("trace:{}", path.display());
    assert!(workload_compatible(
        &name,
        &mithril_dram::Geometry::table_iii_system()
    ));
    assert!(!workload_compatible(
        &name,
        &mithril_dram::Geometry::default()
    ));

    let mut spec = spec_for(name.clone(), schemes());
    spec.geometries.push(mithril_dram::Geometry::default());
    let scenarios = spec.scenarios();
    assert!(
        scenarios.iter().all(|s| s.geometry.channels == 2),
        "1-channel replay scenarios must be skipped"
    );
    std::fs::remove_file(&path).ok();

    // A missing capture is "compatible" (so it isn't silently skipped)
    // and then fails loudly at instantiation time.
    assert!(workload_compatible(
        "trace:/nonexistent/capture.mtrc",
        &mithril_dram::Geometry::default()
    ));
}

#[test]
#[should_panic(expected = "cannot replay")]
fn missing_capture_fails_loudly() {
    let cfg = SystemConfig::table_iii();
    let _ = workload("trace:/nonexistent/capture.mtrc", 4, &cfg, 1);
}

#[test]
#[should_panic(expected = "cores")]
fn core_count_mismatch_fails_loudly() {
    let path = record("mix-high", "coremismatch");
    let cfg = SystemConfig::table_iii();
    let result = std::panic::catch_unwind(|| {
        let name = format!("trace:{}", path.display());
        workload(&name, CORES + 1, &cfg, 1)
    });
    std::fs::remove_file(&path).ok();
    match result {
        Ok(_) => (),
        Err(e) => std::panic::resume_unwind(e),
    }
}
