//! Determinism-under-sharding regression: the same sweep at the same base
//! seed must produce a byte-identical `BENCH_sweep.json` report at any
//! worker thread count.

use mithril_obs::json::Json;
use mithril_runner::engine::{position_seed, run_sharded_robust, PoolConfig};
use mithril_runner::report::{
    faults_json, result_tree, sweep_json, sweep_json_from_entries, SweepResult,
};
use mithril_runner::scenarios::{FaultCampaignSpec, Scenario, SweepSpec};
use mithril_runner::{run_fault_campaign, run_sweep, run_sweep_journaled, run_sweep_observed};
use mithril_sim::ObsConfig;

fn tiny_spec() -> SweepSpec {
    let mut spec = SweepSpec::smoke();
    spec.insts_per_core = 2_000;
    spec.cores = 2;
    spec
}

fn report_at(threads: usize, shard_size: usize, seed: u64) -> String {
    let results = run_sweep(
        &tiny_spec(),
        PoolConfig {
            threads,
            shard_size,
        },
        seed,
    );
    sweep_json(seed, &results)
}

#[test]
fn identical_report_at_1_2_and_8_threads() {
    let base = report_at(1, 1, 42);
    assert_eq!(base, report_at(2, 1, 42), "2 threads diverged from 1");
    assert_eq!(base, report_at(8, 1, 42), "8 threads diverged from 1");
}

#[test]
fn identical_report_across_threads_at_fixed_shard_size() {
    // Shard size is part of the seeding contract: it must be the *same*
    // between runs being compared, but any fixed size is deterministic
    // across thread counts.
    let a = report_at(1, 4, 7);
    let b = report_at(8, 4, 7);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_produce_different_reports() {
    assert_ne!(report_at(2, 1, 1), report_at(2, 1, 2));
}

#[test]
fn sweep_covers_multi_channel_multi_rank() {
    let results = run_sweep(
        &tiny_spec(),
        PoolConfig {
            threads: 4,
            shard_size: 1,
        },
        3,
    );
    let multi = results
        .iter()
        .find(|r| r.scenario.geometry.channels == 2 && r.scenario.geometry.ranks == 2)
        .expect("2ch x 2rk scenario present");
    let m = multi.outcome.as_ref().expect("multi-rank scenario runs");
    assert!(m.total_insts > 0);
    assert_eq!(m.per_channel.len(), 2);
    // Per-channel counters roll up to the system totals.
    let acts: u64 = m.per_channel.iter().map(|c| c.counters.acts).sum();
    assert_eq!(acts, m.counters.acts);
}

fn tiny_campaign() -> FaultCampaignSpec {
    let mut spec = FaultCampaignSpec::smoke();
    spec.base.insts_per_core = 1_500;
    spec.base.cores = 2;
    spec.rates_ppm = vec![0, 10_000];
    spec
}

fn campaign_report_at(threads: usize, seed: u64) -> String {
    let spec = tiny_campaign();
    let runs = run_fault_campaign(
        &spec,
        PoolConfig {
            threads,
            shard_size: 1,
        },
        seed,
        None,
    );
    faults_json(seed, spec.scrub, &spec.rates_ppm, &runs)
}

#[test]
fn fault_campaign_is_identical_at_1_2_and_8_threads() {
    let base = campaign_report_at(1, 42);
    assert_eq!(base, campaign_report_at(2, 42), "2 threads diverged");
    assert_eq!(base, campaign_report_at(8, 42), "8 threads diverged");
    // The campaign actually injected something at the non-zero rate.
    assert!(base.contains("\"rate_ppm\":10000"));
    assert!(
        !base.contains("\"fault_stats\":{\"bit_flips\":0,\"invalidations\":0,\"stuck_bits\":0")
            || base.matches("\"fault_stats\":{").count() > 1
    );
}

#[test]
fn engine_retry_reuses_position_seeds_at_any_thread_count() {
    // A transiently panicking sweep must report exactly what a clean
    // sweep reports: the retry re-runs the item under its original
    // position seed, never a re-drawn one.
    use std::collections::HashSet;
    use std::sync::Mutex;
    let scenarios = tiny_spec().scenarios();
    let clean: Vec<(u64, String)> = run_sharded_robust(
        &scenarios,
        PoolConfig {
            threads: 1,
            shard_size: 1,
        },
        42,
        0,
        |s, seed| (seed, format!("{}@{seed}", s.name)),
    )
    .into_iter()
    .map(|o| o.into_result().unwrap())
    .collect();
    for threads in [1, 2, 8] {
        let attempted: Mutex<HashSet<usize>> = Mutex::new(HashSet::new());
        let flaky: Vec<(u64, String)> = run_sharded_robust(
            &scenarios,
            PoolConfig {
                threads,
                shard_size: 1,
            },
            42,
            1,
            |s, seed| {
                let index = scenarios
                    .iter()
                    .position(|c| std::ptr::eq(c, s))
                    .expect("item is a registry scenario");
                let first = attempted.lock().unwrap().insert(index);
                if first && index % 3 == 0 {
                    panic!("transient failure on {index}");
                }
                (seed, format!("{}@{seed}", s.name))
            },
        )
        .into_iter()
        .map(|o| o.into_result().unwrap())
        .collect();
        assert_eq!(flaky, clean, "retries diverged at {threads} threads");
    }
}

#[test]
fn resumed_journal_reproduces_the_uninterrupted_report() {
    let spec = tiny_spec();
    let dir = std::env::temp_dir().join("mithril-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    for shard_size in [1, 3] {
        let pool = PoolConfig {
            threads: 4,
            shard_size,
        };
        let path = dir.join(format!("sweep-{shard_size}.mtrj"));

        let baseline = sweep_json(42, &run_sweep(&spec, pool, 42));
        let full = run_sweep_journaled(&spec, pool, 42, &path, false, None).unwrap();
        assert_eq!(
            sweep_json_from_entries(42, full.entries),
            baseline,
            "journaled run diverged at shard size {shard_size}"
        );
        assert_eq!(full.recovered, 0);

        // Simulate a kill: keep the header and a prefix of completions,
        // with a torn partial record at the cut.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = text.lines().take(8).collect();
        std::fs::write(&path, format!("{}\n9 fee1dead {{\"na", keep.join("\n"))).unwrap();

        let resumed = run_sweep_journaled(&spec, pool, 42, &path, true, None).unwrap();
        assert_eq!(
            sweep_json_from_entries(42, resumed.entries),
            baseline,
            "resumed report diverged at shard size {shard_size}"
        );
        assert_eq!(resumed.recovered, 7);
        assert_eq!(resumed.dropped_lines, 1, "torn record must be dropped");

        // Each position's seed depends on the shard size, so resuming at
        // another one would splice two seedings into one report: refused.
        let other = PoolConfig {
            shard_size: shard_size + 1,
            ..pool
        };
        let err = run_sweep_journaled(&spec, other, 42, &path, true, None).unwrap_err();
        assert!(err.contains("shard size"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}

/// A two-scheme spec whose second workload name passes
/// `workload_compatible` but panics in `workload` on every attempt.
fn poisoned_spec() -> SweepSpec {
    let mut spec = tiny_spec();
    spec.geometries.truncate(1);
    spec.schemes.truncate(2);
    spec.workloads = vec!["mix-high".into(), "no-such-workload".into()];
    spec
}

/// What every execution path must report for `scenarios`: the poisoned
/// positions as their final panic at the position seed, every other
/// position exactly as a standalone run under that seed.
fn expected_entries(scenarios: Vec<Scenario>, pool: PoolConfig, base_seed: u64) -> Vec<Json> {
    scenarios
        .into_iter()
        .enumerate()
        .map(|(i, scenario)| {
            let seed = position_seed(base_seed, pool.shard_size, i);
            let outcome = if scenario.workload == "no-such-workload" {
                Err("panicked (2 attempts): unknown workload no-such-workload".into())
            } else {
                scenario.run(seed)
            };
            result_tree(&SweepResult {
                scenario,
                seed,
                outcome,
            })
        })
        .collect()
}

#[test]
fn a_panicking_position_becomes_its_error_on_every_path() {
    let spec = poisoned_spec();
    let pool = PoolConfig {
        threads: 2,
        shard_size: 3,
    };
    let entries = |results: &[SweepResult]| results.iter().map(result_tree).collect::<Vec<_>>();
    let expected = expected_entries(spec.scenarios(), pool, 9);
    assert_eq!(expected.len(), 4);

    assert_eq!(entries(&run_sweep(&spec, pool, 9)), expected, "plain");

    let observed = run_sweep_observed(&spec, pool, 9, ObsConfig::default(), None);
    let results: Vec<SweepResult> = observed.iter().map(|(r, _)| r.clone()).collect();
    assert_eq!(entries(&results), expected, "observed");
    for (r, capture) in &observed {
        assert_eq!(capture.is_some(), r.outcome.is_ok(), "{}", r.scenario.name);
    }

    let path = std::env::temp_dir().join("mithril-poisoned-sweep.mtrj");
    let journaled = run_sweep_journaled(&spec, pool, 9, &path, false, None).unwrap();
    assert_eq!(journaled.entries, expected, "journaled");
    std::fs::remove_file(&path).unwrap();

    let campaign = FaultCampaignSpec {
        base: spec,
        rates_ppm: vec![0, 10_000],
        scrub: true,
    };
    let runs = run_fault_campaign(&campaign, pool, 9, None);
    let expected = expected_entries(campaign.scenarios(), pool, 9);
    assert_eq!(entries(&runs), expected, "fault campaign");
}

#[test]
fn interference_attack_is_channel_local_under_mithril() {
    let results = run_sweep(
        &tiny_spec(),
        PoolConfig {
            threads: 2,
            shard_size: 1,
        },
        5,
    );
    let find = |scheme: &str| {
        results
            .iter()
            .find(|r| {
                r.scenario.scheme_label == scheme
                    && r.scenario.workload == "channel-interference"
                    && r.scenario.geometry == mithril_dram::Geometry::table_iii_system()
            })
            .and_then(|r| r.outcome.as_ref().ok())
            .expect("interference scenario ran")
    };
    let mithril = find("mithril");
    // The hammer runs on channel 0: all preventive refreshes happen there,
    // while the victims' channel keeps streaming without RFM work.
    assert!(
        mithril.per_channel[0].counters.rfm_commands > 0,
        "hammered channel must see RFMs"
    );
    assert_eq!(
        mithril.per_channel[1].counters.preventive_rows, 0,
        "victim channel must not pay preventive-refresh energy"
    );
    assert_eq!(mithril.flips, 0);
}
