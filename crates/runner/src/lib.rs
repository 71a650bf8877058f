//! Scenario registry and sharded parallel sweep engine.
//!
//! `mithril-runner` turns the system simulator into an experiment machine:
//!
//! * [`scenarios`] — the registry of named workloads, scheme catalogs and
//!   scheme × workload × geometry [`scenarios::SweepSpec`]s (the figure
//!   binaries' shared source of truth);
//! * [`engine`] — a std::thread work-stealing shard pool with
//!   deterministic per-shard RNG seeding: the same base seed produces
//!   bit-identical metrics at any worker count;
//! * [`report`] — the deterministic `BENCH_sweep.json` writer.
//!
//! The `sweep` binary ties the three together:
//!
//! ```text
//! cargo run --release -p mithril-runner --bin sweep -- --smoke --threads 4
//! ```
//!
//! # Example
//!
//! ```
//! use mithril_runner::engine::{run_sharded, PoolConfig};
//! use mithril_runner::scenarios::SweepSpec;
//!
//! let mut spec = SweepSpec::smoke();
//! spec.insts_per_core = 500; // keep the doctest quick
//! spec.workloads.truncate(1);
//! spec.geometries.truncate(1);
//! let scenarios = spec.scenarios();
//! let results = run_sharded(
//!     &scenarios,
//!     PoolConfig { threads: 2, shard_size: 1 },
//!     42,
//!     |s, seed| s.run(seed).map(|m| m.total_insts),
//! );
//! assert_eq!(results.len(), scenarios.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
pub mod engine;
pub mod journal;
pub mod report;
pub mod scenarios;

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use engine::{ItemOutcome, PoolConfig, DEFAULT_RETRIES};
use mithril_obs::json::Json;
use mithril_obs::ObsCapture;
use mithril_sim::ObsConfig;
use report::{FaultRun, ObsCountEntry, SweepResult};
use scenarios::{FaultCampaignSpec, QosCampaignSpec, Scenario, SweepSpec};

/// A sweep heartbeat: worker threads [`tick`](Progress::tick) it after
/// every finished scenario and it prints `# progress: done/total (name)`
/// lines to **stderr** — never stdout, which carries the result table,
/// and never the report, which must stay deterministic.
///
/// Journal-aware: a resumed sweep starts the counter at the number of
/// recovered scenarios, so the heartbeat counts toward the same total an
/// uninterrupted run would.
#[derive(Debug)]
pub struct Progress {
    done: AtomicUsize,
    total: usize,
}

impl Progress {
    /// A heartbeat over `total` scenarios starting from zero done.
    pub fn new(total: usize) -> Self {
        Self::start_at(total, 0)
    }

    /// A heartbeat starting from `done` already-finished scenarios
    /// (journal recovery).
    pub fn start_at(total: usize, done: usize) -> Self {
        Self {
            done: AtomicUsize::new(done),
            total,
        }
    }

    /// Records one finished scenario and prints the heartbeat line.
    pub fn tick(&self, name: &str) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!("# progress: {done}/{} ({name})", self.total);
    }
}

/// Executes `spec` on the shard pool and returns per-scenario results in
/// registry order. Bit-identical for any `pool.threads`.
///
/// A scenario that *panics* (rather than erroring) is isolated: the
/// engine retries it once with its original position seed and, if it
/// keeps panicking, reports the panic as that scenario's `Err` outcome
/// instead of taking the whole sweep down.
pub fn run_sweep(spec: &SweepSpec, pool: PoolConfig, base_seed: u64) -> Vec<SweepResult> {
    run_sweep_with(spec, pool, base_seed, None)
}

/// [`run_sweep`] with an optional [`Progress`] heartbeat ticked after
/// every finished scenario.
pub fn run_sweep_with(
    spec: &SweepSpec,
    pool: PoolConfig,
    base_seed: u64,
    progress: Option<&Progress>,
) -> Vec<SweepResult> {
    run_scenarios(spec.scenarios(), pool, base_seed, progress)
}

/// Executes a QoS campaign (`spec.base` with QoS off, then the same grid
/// with throttling on) and returns results in registry (off-pass-first)
/// order. Bit-identical at any `pool.threads` like [`run_sweep`].
///
/// The two passes are seeded independently from the same `base_seed`, so
/// a QoS-off run and its `+qos` twin execute under the **same** seed —
/// every off/on pair differs only in the throttling policy, never in the
/// workload's or scheme's RNG draw.
///
/// ```
/// use mithril_runner::engine::PoolConfig;
/// use mithril_runner::run_qos_campaign;
/// use mithril_runner::scenarios::QosCampaignSpec;
///
/// let mut spec = QosCampaignSpec::smoke();
/// spec.base.insts_per_core = 400; // keep the doctest quick
/// spec.base.cores = 2;
/// let pool = PoolConfig { threads: 2, shard_size: 1 };
/// let results = run_qos_campaign(&spec, pool, 7, None);
/// let half = results.len() / 2;
/// // Position i of the off pass pairs with position half + i of the on
/// // pass: same scenario, same seed, QoS policy flipped.
/// assert_eq!(results[0].seed, results[half].seed);
/// assert_eq!(
///     format!("{}+qos", results[0].scenario.name),
///     results[half].scenario.name
/// );
/// ```
pub fn run_qos_campaign(
    spec: &QosCampaignSpec,
    pool: PoolConfig,
    base_seed: u64,
    progress: Option<&Progress>,
) -> Vec<SweepResult> {
    let all = spec.scenarios();
    let per_pass = all.len() / 2;
    let (off, on) = all.split_at(per_pass);
    let mut results = run_scenarios(off.to_vec(), pool, base_seed, progress);
    results.extend(run_scenarios(on.to_vec(), pool, base_seed, progress));
    results
}

fn run_scenarios(
    scenarios: Vec<Scenario>,
    pool: PoolConfig,
    base_seed: u64,
    progress: Option<&Progress>,
) -> Vec<SweepResult> {
    let outcomes =
        engine::run_sharded_robust(&scenarios, pool, base_seed, DEFAULT_RETRIES, |s, seed| {
            let outcome = s.run(seed);
            if let Some(p) = progress {
                p.tick(&s.name);
            }
            (seed, outcome)
        });
    scenarios
        .into_iter()
        .enumerate()
        .zip(outcomes)
        .map(|((i, scenario), item)| {
            let (seed, outcome) = match item.into_result() {
                Ok((seed, outcome)) => (seed, outcome),
                Err(e) => (engine::position_seed(base_seed, pool.shard_size, i), Err(e)),
            };
            SweepResult {
                scenario,
                seed,
                outcome,
            }
        })
        .collect()
}

/// Executes `spec` with ring-sink observability attached to every
/// scenario and returns, per registry position, the sweep result plus
/// its [`ObsCapture`] (`None` when the scenario errored or panicked
/// before producing one).
///
/// Determinism: every position runs its own independent [`System`]
/// seeded by sweep position, so both the metrics *and* the captures are
/// bit-identical at any `pool.threads`.
///
/// [`System`]: mithril_sim::System
pub fn run_sweep_observed(
    spec: &SweepSpec,
    pool: PoolConfig,
    base_seed: u64,
    obs: ObsConfig,
    progress: Option<&Progress>,
) -> Vec<(SweepResult, Option<ObsCapture>)> {
    let scenarios = spec.scenarios();
    let outcomes =
        engine::run_sharded_robust(&scenarios, pool, base_seed, DEFAULT_RETRIES, |s, seed| {
            let out = s.run_observed(seed, obs);
            if let Some(p) = progress {
                p.tick(&s.name);
            }
            match out {
                Ok((metrics, capture)) => (seed, Ok(metrics), Some(capture)),
                Err(e) => (seed, Err(e), None),
            }
        });
    scenarios
        .into_iter()
        .enumerate()
        .zip(outcomes)
        .map(|((i, scenario), item)| {
            let (seed, outcome, capture) = match item.into_result() {
                Ok((seed, outcome, capture)) => (seed, outcome, capture),
                Err(e) => (
                    engine::position_seed(base_seed, pool.shard_size, i),
                    Err(e),
                    None,
                ),
            };
            (
                SweepResult {
                    scenario,
                    seed,
                    outcome,
                },
                capture,
            )
        })
        .collect()
}

/// Directory-name-safe projection of a scenario name: alphanumerics,
/// `-`, `_` and `.` pass through, everything else becomes `-`.
fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Writes the observability artifacts of an observed sweep under `dir`:
///
/// * `dir/NNN_<scenario>/events.jsonl` — merged per-position event log;
/// * `dir/NNN_<scenario>/series.csv` — cycle-domain time series;
/// * `dir/NNN_<scenario>/summary.json` — per-position counts summary;
/// * `dir/obs_counts.json` — the aggregate per-kind count baseline
///   ([`report::obs_counts_json`], the `BENCH_obs.json` format CI diffs).
///
/// Returns the aggregate `obs_counts.json` string so callers can also
/// write it elsewhere (e.g. refresh the committed baseline).
///
/// # Errors
///
/// Any I/O failure, rendered with the offending path.
pub fn write_obs_outputs(
    dir: &Path,
    base_seed: u64,
    observed: &[(SweepResult, Option<ObsCapture>)],
) -> Result<String, String> {
    let io = |path: &Path, e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(dir).map_err(|e| io(dir, e))?;
    let mut entries = Vec::new();
    for (index, (result, capture)) in observed.iter().enumerate() {
        let Some(capture) = capture else { continue };
        let sub = dir.join(format!(
            "{index:03}_{}",
            sanitize_name(&result.scenario.name)
        ));
        std::fs::create_dir_all(&sub).map_err(|e| io(&sub, e))?;
        for (file, contents) in [
            ("events.jsonl", capture.events_jsonl()),
            ("series.csv", capture.series_csv()),
            ("summary.json", capture.summary_json()),
        ] {
            let path = sub.join(file);
            std::fs::write(&path, contents).map_err(|e| io(&path, e))?;
        }
        entries.push(ObsCountEntry {
            index,
            name: result.scenario.name.clone(),
            seed: result.seed,
            counts: capture.total_counts(),
            dropped: capture.total_dropped(),
        });
    }
    let counts = report::obs_counts_json(base_seed, &entries);
    let path = dir.join("obs_counts.json");
    std::fs::write(&path, &counts).map_err(|e| io(&path, e))?;
    Ok(counts)
}

/// Executes a fault-resilience campaign (`spec.base` × `spec.rates_ppm`)
/// and returns one [`FaultRun`] per scenario in registry (rate-major)
/// order. Fault plans are seeded by sweep position, so the campaign is
/// bit-identical at any `pool.threads`.
pub fn run_fault_campaign(
    spec: &FaultCampaignSpec,
    pool: PoolConfig,
    base_seed: u64,
) -> Vec<FaultRun> {
    let scenarios = spec.scenarios();
    let outcomes =
        engine::run_sharded_robust(&scenarios, pool, base_seed, DEFAULT_RETRIES, |s, seed| {
            (seed, s.run_detailed(seed))
        });
    let per_rate = scenarios.len() / spec.rates_ppm.len().max(1);
    scenarios
        .into_iter()
        .enumerate()
        .zip(outcomes)
        .map(|((i, scenario), item)| {
            let rate_ppm = scenario.faults.map_or_else(
                || *spec.rates_ppm.get(i / per_rate.max(1)).unwrap_or(&0),
                |f| f.rate_ppm,
            );
            let (seed, outcome, fault_stats) = match item.into_result() {
                Ok((seed, Ok((metrics, stats)))) => (seed, Ok(metrics), stats),
                Ok((seed, Err(e))) => (seed, Err(e), None),
                Err(e) => (
                    engine::position_seed(base_seed, pool.shard_size, i),
                    Err(e),
                    None,
                ),
            };
            FaultRun {
                rate_ppm,
                result: SweepResult {
                    scenario,
                    seed,
                    outcome,
                },
                fault_stats,
            }
        })
        .collect()
}

/// The outcome of a journaled (crash-safe) sweep.
#[derive(Debug)]
pub struct JournaledSweep {
    /// The assembled `BENCH_sweep.json` report.
    pub report: String,
    /// Scenarios recovered from the journal instead of re-run.
    pub recovered: usize,
    /// Journal lines dropped as corrupt or torn during recovery.
    pub dropped_lines: usize,
    /// Scenarios executed (or re-executed) by this invocation.
    pub ran: usize,
}

/// Executes `spec` with a crash-safe completion journal at `path`.
///
/// Every completed scenario is appended to the journal (hash-guarded,
/// flushed) *before* the sweep moves on, so a killed process loses only
/// in-flight work. With `resume`, an existing journal for the same seed
/// and spec is recovered first — corrupt or torn lines are dropped and
/// re-run — and only missing scenarios execute, each seeded by its sweep
/// *position*. The assembled report is byte-identical to what an
/// uninterrupted [`run_sweep`] + [`report::sweep_json`] would produce.
///
/// # Errors
///
/// Journal I/O failure, or a journal that belongs to a different sweep
/// (seed or spec fingerprint mismatch).
pub fn run_sweep_journaled(
    spec: &SweepSpec,
    pool: PoolConfig,
    base_seed: u64,
    path: &Path,
    resume: bool,
) -> Result<JournaledSweep, String> {
    run_sweep_journaled_with(spec, pool, base_seed, path, resume, false)
}

/// [`run_sweep_journaled`] with an optional stderr [`Progress`]
/// heartbeat; the counter starts at the number of journal-recovered
/// scenarios so it counts toward the full sweep total.
pub fn run_sweep_journaled_with(
    spec: &SweepSpec,
    pool: PoolConfig,
    base_seed: u64,
    path: &Path,
    resume: bool,
    progress: bool,
) -> Result<JournaledSweep, String> {
    let scenarios = spec.scenarios();
    let fp = journal::fingerprint(base_seed, &scenarios);
    let (mut entries, dropped_lines, writer) = if resume && path.exists() {
        let loaded = journal::load(path, base_seed, fp, scenarios.len())?;
        let writer = journal::JournalWriter::append(path)?;
        (loaded.entries, loaded.dropped_lines, writer)
    } else {
        let writer = journal::JournalWriter::create(path, base_seed, fp)?;
        (vec![None; scenarios.len()], 0, writer)
    };
    let recovered = entries.iter().filter(|e| e.is_some()).count();

    let missing: Vec<(usize, &Scenario)> = entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.is_none())
        .map(|(i, _)| (i, &scenarios[i]))
        .collect();
    let ran = missing.len();
    let heartbeat = progress.then(|| Progress::start_at(scenarios.len(), recovered));

    // The engine seeds by position in `missing`, which shifts on resume;
    // seed by position in the *full* scenario list instead, so resumed
    // and uninterrupted runs execute identical work.
    let outcomes = engine::run_sharded_robust(
        &missing,
        pool,
        base_seed,
        DEFAULT_RETRIES,
        |&(index, scenario), _| {
            let seed = engine::position_seed(base_seed, pool.shard_size, index);
            let result = SweepResult {
                scenario: scenario.clone(),
                seed,
                outcome: scenario.run(seed),
            };
            let entry = report::result_tree(&result);
            writer.record(index, &entry.render());
            if let Some(p) = &heartbeat {
                p.tick(&scenario.name);
            }
            entry
        },
    );
    for (&(index, scenario), item) in missing.iter().zip(outcomes) {
        let entry = match item {
            ItemOutcome::Done(entry) => entry,
            panicked => {
                let seed = engine::position_seed(base_seed, pool.shard_size, index);
                report::result_tree(&SweepResult {
                    scenario: scenario.clone(),
                    seed,
                    outcome: Err(panicked.into_result().unwrap_err()),
                })
            }
        };
        entries[index] = Some(entry);
    }

    let full: Vec<Json> = entries
        .into_iter()
        .map(|e| e.expect("every index recovered or run"))
        .collect();
    Ok(JournaledSweep {
        report: report::sweep_json_from_entries(base_seed, full),
        recovered,
        dropped_lines,
        ran,
    })
}
