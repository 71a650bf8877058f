//! Observability regression suite: attaching the event/series
//! instrumentation must not change what is simulated, and everything it
//! records must be bit-identical at any worker thread count.

use mithril_obs::validate_format_version;
use mithril_runner::engine::PoolConfig;
use mithril_runner::report::{obs_counts_json, sweep_json};
use mithril_runner::scenarios::SweepSpec;
use mithril_runner::{run_sweep, run_sweep_observed, write_obs_outputs};
use mithril_sim::ObsConfig;

fn tiny_spec() -> SweepSpec {
    let mut spec = SweepSpec::smoke();
    spec.insts_per_core = 1_500;
    spec.cores = 2;
    spec
}

fn pool(threads: usize) -> PoolConfig {
    PoolConfig {
        threads,
        shard_size: 1,
    }
}

/// The full deterministic obs projection of one observed sweep: every
/// per-position event log and time series plus the aggregate counts.
fn obs_fingerprint(threads: usize, seed: u64, obs: ObsConfig) -> String {
    let observed = run_sweep_observed(&tiny_spec(), pool(threads), seed, obs, None);
    let mut out = String::new();
    for (result, capture) in &observed {
        let capture = capture.as_ref().expect("every scenario produces a capture");
        out.push_str(&format!("== {}\n", result.scenario.name));
        out.push_str(&capture.events_jsonl());
        out.push_str(&capture.series_csv());
        out.push_str(&capture.summary_json());
    }
    out
}

#[test]
fn observed_metrics_equal_unobserved_metrics_over_seeds() {
    // The report renders Metrics (and, per channel, McStats-derived
    // counters) — byte equality here means the instrumentation changed
    // nothing observable about the simulation.
    let spec = tiny_spec();
    for seed in [1u64, 42, 1234] {
        let plain = sweep_json(seed, &run_sweep(&spec, pool(2), seed));
        let observed = run_sweep_observed(&spec, pool(2), seed, ObsConfig::default(), None);
        let results: Vec<_> = observed.into_iter().map(|(r, _)| r).collect();
        let with_obs = sweep_json(seed, &results);
        assert_eq!(plain, with_obs, "obs changed the simulation at seed {seed}");
        validate_format_version(&plain).expect("report must carry format_version");
    }
}

#[test]
fn obs_output_is_identical_at_1_2_and_8_threads() {
    let obs = ObsConfig::default();
    let base = obs_fingerprint(1, 42, obs);
    assert_eq!(base, obs_fingerprint(2, 42, obs), "2 threads diverged");
    assert_eq!(base, obs_fingerprint(8, 42, obs), "8 threads diverged");
    // Sanity: the fingerprint actually contains recorded events.
    assert!(base.contains("\"kind\":\"act\""), "no ACT events recorded");
}

#[test]
fn obs_counts_baseline_is_thread_count_invariant_and_versioned() {
    let spec = tiny_spec();
    let dir_a = std::env::temp_dir().join("mithril-obs-test-a");
    let dir_b = std::env::temp_dir().join("mithril-obs-test-b");
    for d in [&dir_a, &dir_b] {
        let _ = std::fs::remove_dir_all(d);
    }
    let a = write_obs_outputs(
        &dir_a,
        7,
        &run_sweep_observed(&spec, pool(1), 7, ObsConfig::default(), None),
    )
    .unwrap();
    let b = write_obs_outputs(
        &dir_b,
        7,
        &run_sweep_observed(&spec, pool(8), 7, ObsConfig::default(), None),
    )
    .unwrap();
    assert_eq!(a, b, "obs_counts.json diverged across thread counts");
    validate_format_version(&a).expect("baseline must carry format_version");
    assert_eq!(
        a,
        std::fs::read_to_string(dir_a.join("obs_counts.json")).unwrap()
    );
    // Per-position artifacts exist for position 0.
    let sub = std::fs::read_dir(&dir_a)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().starts_with("000_"))
        .expect("per-position directory");
    for f in ["events.jsonl", "series.csv", "summary.json"] {
        assert!(sub.path().join(f).exists(), "{f} missing");
    }
    for d in [&dir_a, &dir_b] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Acceptance pin: the latency histograms and per-core attribution that
/// now ride in every metrics object are integer-rendered and must be
/// byte-identical at any worker thread count, with real percentiles in
/// them (not an all-zero shell).
#[test]
fn latency_sections_are_byte_identical_at_1_2_and_8_threads() {
    let spec = tiny_spec();
    let base = sweep_json(42, &run_sweep(&spec, pool(1), 42));
    assert!(
        base.contains("\"latency\":{\"read\":{\"count\":"),
        "latency section missing"
    );
    assert!(
        base.contains("\"per_core\":[{\"core\":0,"),
        "per-core section missing"
    );
    // At least one scenario recorded a nonzero read p99.
    let nonzero_p99 = base
        .match_indices("\"p99_ps\":")
        .any(|(i, pat)| !base[i + pat.len()..].starts_with('0'));
    assert!(nonzero_p99, "every p99 is zero — nothing was recorded");
    for threads in [2usize, 8] {
        assert_eq!(
            base,
            sweep_json(42, &run_sweep(&spec, pool(threads), 42)),
            "latency/per_core sections diverged at {threads} threads"
        );
    }
}

#[test]
fn obs_counts_reject_foreign_format_versions() {
    let json = obs_counts_json(1, &[]);
    validate_format_version(&json).unwrap();
    let forged = json.replace(
        &format!("\"format_version\": {}", mithril_obs::FORMAT_VERSION),
        "\"format_version\": 999",
    );
    assert!(validate_format_version(&forged).is_err());
}
