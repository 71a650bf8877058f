//! Scenario registry and sharded parallel sweep engine.
//!
//! `mithril-runner` turns the system simulator into an experiment machine:
//!
//! * [`scenarios`] — the registry of named workloads, scheme catalogs and
//!   scheme × workload × geometry [`scenarios::SweepSpec`]s, shared by the
//!   paper report and every sweep;
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
mod journal;
pub mod report;
pub mod scenarios;

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use engine::{PoolConfig, DEFAULT_RETRIES};
use mithril_obs::json::Json;
use mithril_obs::ObsCapture;
use mithril_sim::ObsConfig;
use report::{ObsCountEntry, SweepResult};
use scenarios::{FaultCampaignSpec, QosCampaignSpec, Scenario, SweepSpec};

/// A sweep heartbeat: worker threads [`tick`](Progress::tick) it after
/// every finished scenario and it prints `# progress: done/total (name)`
/// lines to **stderr** — never stdout, which carries the result table,
/// and never the report, which must stay deterministic.
///
/// Journal-aware: a resumed sweep ticks its recovered scenarios too, so
/// the heartbeat counts toward the same total an uninterrupted run would.
#[derive(Debug)]
pub struct Progress {
    done: AtomicUsize,
    total: usize,
}

impl Progress {
    /// A heartbeat over `total` scenarios starting from zero done.
    pub fn new(total: usize) -> Self {
        Self {
            done: AtomicUsize::new(0),
            total,
        }
    }

    /// Records one finished scenario and prints the heartbeat line.
    pub fn tick(&self, name: &str) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!("# progress: {done}/{} ({name})", self.total);
    }
}

/// The one way scenarios execute: runs `run(i, seed)` for every position
/// `i` of `scenarios` on the robust shard pool, ticks `progress` after
/// each, and returns every position's seed and outcome in registry order.
///
/// A position that panicked on every attempt is isolated rather than
/// taking the sweep down: it comes back as `Err("panicked (N attempts):
/// …")` at the seed the engine assigned it,
/// [`engine::position_seed`]`(base_seed, shard_size, i)`.
fn execute<R: Send>(
    scenarios: &[Scenario],
    pool: PoolConfig,
    base_seed: u64,
    progress: Option<&Progress>,
    run: impl Fn(usize, u64) -> Result<R, String> + Sync,
) -> Vec<(u64, Result<R, String>)> {
    let positions: Vec<usize> = (0..scenarios.len()).collect();
    let outcomes =
        engine::run_sharded_robust(&positions, pool, base_seed, DEFAULT_RETRIES, |&i, seed| {
            let outcome = run(i, seed);
            if let Some(p) = progress {
                p.tick(&scenarios[i].name);
            }
            outcome
        });
    outcomes
        .into_iter()
        .enumerate()
        .map(|(i, item)| {
            let seed = engine::position_seed(base_seed, pool.shard_size, i);
            (seed, item.into_result().and_then(|outcome| outcome))
        })
        .collect()
}

/// [`execute`] with plain [`Scenario::run`]s, paired back up with their
/// scenarios.
fn run_scenarios(
    scenarios: Vec<Scenario>,
    pool: PoolConfig,
    base_seed: u64,
    progress: Option<&Progress>,
) -> Vec<SweepResult> {
    let runs = execute(&scenarios, pool, base_seed, progress, |i, seed| {
        scenarios[i].run(seed)
    });
    scenarios
        .into_iter()
        .zip(runs)
        .map(|(scenario, (seed, outcome))| SweepResult {
            scenario,
            seed,
            outcome,
        })
        .collect()
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
    let (off, on) = all.split_at(all.len() / 2);
    let mut results = run_scenarios(off.to_vec(), pool, base_seed, progress);
    results.extend(run_scenarios(on.to_vec(), pool, base_seed, progress));
    results
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
    let runs = execute(&scenarios, pool, base_seed, progress, |i, seed| {
        scenarios[i].run_observed(seed, obs)
    });
    scenarios
        .into_iter()
        .zip(runs)
        .map(|(scenario, (seed, run))| {
            let (outcome, capture) = match run {
                Ok((metrics, capture)) => (Ok(metrics), Some(capture)),
                Err(e) => (Err(e), None),
            };
            let result = SweepResult {
                scenario,
                seed,
                outcome,
            };
            (result, capture)
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
/// and returns results in registry (rate-major) order, each run's fault
/// counters in its [`Metrics::faults`](mithril_sim::Metrics::faults).
/// Fault plans are seeded by sweep position, so the campaign is
/// bit-identical at any `pool.threads`.
pub fn run_fault_campaign(
    spec: &FaultCampaignSpec,
    pool: PoolConfig,
    base_seed: u64,
    progress: Option<&Progress>,
) -> Vec<SweepResult> {
    run_scenarios(spec.scenarios(), pool, base_seed, progress)
}

/// The outcome of a journaled (crash-safe) sweep.
#[derive(Debug)]
pub struct JournaledSweep {
    /// Every scenario's [`report::result_tree`] entry in registry order;
    /// [`report::sweep_json_from_entries`] renders the `BENCH_sweep.json`
    /// report from them.
    pub entries: Vec<Json>,
    /// Scenarios recovered from the journal instead of re-run.
    pub recovered: usize,
    /// Journal lines dropped as corrupt or torn during recovery.
    pub dropped_lines: usize,
}

/// Executes `spec` with a crash-safe completion journal at `path`: the
/// plain sweep, with every completed scenario appended to the journal
/// (hash-guarded, flushed) *before* the sweep moves on, so a killed
/// process loses only in-flight work.
///
/// With `resume`, an existing journal for the same seed and spec is
/// recovered first — corrupt or torn lines are dropped and re-run — and
/// its positions are answered from the journal instead of re-run. Every
/// other position runs under the seed the engine assigns it in the full
/// scenario list, so the entries are byte-identical to what an
/// uninterrupted [`run_sweep`] + [`report::sweep_json`] would produce.
/// `progress` ticks for recovered and executed positions alike.
///
/// # Errors
///
/// Journal I/O failure, or a journal that belongs to a different sweep
/// (seed mismatch, or a fingerprint mismatch from another spec or shard
/// size).
pub fn run_sweep_journaled(
    spec: &SweepSpec,
    pool: PoolConfig,
    base_seed: u64,
    path: &Path,
    resume: bool,
    progress: Option<&Progress>,
) -> Result<JournaledSweep, String> {
    let scenarios = spec.scenarios();
    let fp = journal::fingerprint(base_seed, pool.shard_size, &scenarios);
    let (journaled, dropped_lines, writer) = if resume && path.exists() {
        let loaded = journal::load(path, base_seed, fp, scenarios.len())?;
        let writer = journal::JournalWriter::append(path)?;
        (loaded.entries, loaded.dropped_lines, writer)
    } else {
        let writer = journal::JournalWriter::create(path, base_seed, fp)?;
        (vec![None; scenarios.len()], 0, writer)
    };

    let runs = execute(&scenarios, pool, base_seed, progress, |i, seed| {
        if let Some(entry) = &journaled[i] {
            return Ok(entry.clone());
        }
        let scenario = &scenarios[i];
        let entry = report::result_tree(&SweepResult {
            scenario: scenario.clone(),
            seed,
            outcome: scenario.run(seed),
        });
        writer.record(i, &entry.render());
        Ok(entry)
    });
    let entries = scenarios
        .into_iter()
        .zip(runs)
        .map(|(scenario, (seed, run))| {
            run.unwrap_or_else(|panicked| {
                report::result_tree(&SweepResult {
                    scenario,
                    seed,
                    outcome: Err(panicked),
                })
            })
        })
        .collect();
    Ok(JournaledSweep {
        entries,
        recovered: journaled.iter().flatten().count(),
        dropped_lines,
    })
}
