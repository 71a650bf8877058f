//! Scenario registry, sharded parallel sweep engine and the command-line
//! tools built on them.
//!
//! `mithril-runner` turns the system simulator into an experiment machine:
//!
//! * [`scenarios`] — the registry of named workloads, scheme catalogs and
//!   scheme × workload × geometry [`scenarios::SweepSpec`]s, shared by the
//!   paper report and every sweep;
//! * [`engine`] — a std::thread work-stealing shard pool with
//!   deterministic per-shard RNG seeding: the same base seed produces
//!   bit-identical metrics at any worker count;
//! * [`report`] — the deterministic `BENCH_sweep.json` writer;
//! * [`analytics`] — the regression comparison behind `obs report`;
//! * [`cli`] — the one argument parser of the binaries.
//!
//! Four binaries drive it, each documented in its own source file:
//!
//! * `sweep` — sweeps and fault/QoS campaigns (`BENCH_sweep.json`,
//!   `BENCH_faults.json`, `BENCH_qos.json`);
//! * `trace` — record, replay, inspect and convert access traces;
//! * `obs` — compare emitted reports and gate on regressions;
//! * `paper` — the paper's evaluation as one checked report
//!   (`BENCH_paper.json`).
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
pub mod cli;
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
use scenarios::{Scenario, SweepSpec};

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

/// The one way scenarios execute, and the one seeding rule: a campaign
/// is variant passes over one base grid, and pass `v`'s position `i`
/// runs `run(scenario, i, seed)` under [`engine::position_seed`]`(base_seed,
/// shard_size, i)`, the seed of base cell `i`. A plain sweep is the
/// one-pass case. All passes share one robust pool pass; `progress` ticks
/// after every position. Returns each position's seed and outcome,
/// pass-major; a position that panicked on every attempt comes back as
/// `Err("panicked (N attempts): …")` instead of taking the campaign down.
fn execute<R: Send>(
    passes: &[Vec<Scenario>],
    pool: PoolConfig,
    base_seed: u64,
    progress: Option<&Progress>,
    run: impl Fn(&Scenario, usize, u64) -> Result<R, String> + Sync,
) -> Vec<(u64, Result<R, String>)> {
    let seed = |i| engine::position_seed(base_seed, pool.shard_size, i);
    let positions: Vec<(usize, usize)> = passes
        .iter()
        .enumerate()
        .flat_map(|(v, pass)| (0..pass.len()).map(move |i| (v, i)))
        .collect();
    // The pool's own flat-position seed goes unused: a variant takes its
    // base cell's seed, which in the first pass is that same seed.
    let outcomes = engine::run_sharded_robust(
        &positions,
        pool,
        base_seed,
        DEFAULT_RETRIES,
        |&(v, i), _| {
            let scenario = &passes[v][i];
            let outcome = run(scenario, i, seed(i));
            if let Some(p) = progress {
                p.tick(&scenario.name);
            }
            outcome
        },
    );
    positions
        .iter()
        .zip(outcomes)
        .map(|(&(_, i), item)| (seed(i), item.into_result().and_then(|outcome| outcome)))
        .collect()
}

/// Executes a campaign — `passes`, each the base grid under one variant
/// (see [`FaultCampaignSpec::passes`] and [`QosCampaignSpec::passes`]) —
/// on the shard pool and returns every pass's results in registry order.
/// Position `i` of every pass runs under the seed of base cell `i`, so a
/// cell's variants differ only in their variant, never in the workload's
/// or scheme's RNG draw. Bit-identical for any `pool.threads`.
///
/// A scenario that *panics* (rather than erroring) is retried once with
/// its original seed and, if it keeps panicking, reported as its `Err`
/// outcome instead of taking the whole campaign down.
///
/// ```
/// use mithril_runner::engine::PoolConfig;
/// use mithril_runner::run_campaign;
/// use mithril_runner::scenarios::QosCampaignSpec;
///
/// let mut spec = QosCampaignSpec::smoke();
/// spec.base.insts_per_core = 400; // keep the doctest quick
/// spec.base.cores = 2;
/// let pool = PoolConfig { threads: 2, shard_size: 1 };
/// let passes = run_campaign(&spec.passes(), pool, 7, None);
/// let (off, on) = (&passes[0][0], &passes[1][0]);
/// // Position i of the off pass pairs with position i of the on pass:
/// // same scenario, same seed, QoS policy flipped.
/// assert_eq!(off.seed, on.seed);
/// assert_eq!(format!("{}+qos", off.scenario.name), on.scenario.name);
/// ```
///
/// [`FaultCampaignSpec::passes`]: scenarios::FaultCampaignSpec::passes
/// [`QosCampaignSpec::passes`]: scenarios::QosCampaignSpec::passes
pub fn run_campaign(
    passes: &[Vec<Scenario>],
    pool: PoolConfig,
    base_seed: u64,
    progress: Option<&Progress>,
) -> Vec<Vec<SweepResult>> {
    let mut runs = execute(passes, pool, base_seed, progress, |s, _, seed| s.run(seed)).into_iter();
    passes
        .iter()
        .map(|pass| {
            pass.iter()
                .zip(runs.by_ref().take(pass.len()))
                .map(|(scenario, (seed, outcome))| SweepResult {
                    scenario: scenario.clone(),
                    seed,
                    outcome,
                })
                .collect()
        })
        .collect()
}

/// Executes `spec` on the shard pool and returns per-scenario results in
/// registry order: the one-pass [`run_campaign`].
pub fn run_sweep(spec: &SweepSpec, pool: PoolConfig, base_seed: u64) -> Vec<SweepResult> {
    run_campaign(&[spec.scenarios()], pool, base_seed, None)
        .into_iter()
        .flatten()
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
    let passes = [spec.scenarios()];
    let runs = execute(&passes, pool, base_seed, progress, |s, _, seed| {
        s.run_observed(seed, obs)
    });
    let [scenarios] = passes;
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
    let passes = [spec.scenarios()];
    let [scenarios] = &passes;
    let fp = journal::fingerprint(base_seed, pool.shard_size, scenarios);
    let (journaled, dropped_lines, writer) = if resume && path.exists() {
        let loaded = journal::load(path, base_seed, fp, scenarios.len())?;
        let writer = journal::JournalWriter::append(path)?;
        (loaded.entries, loaded.dropped_lines, writer)
    } else {
        let writer = journal::JournalWriter::create(path, base_seed, fp)?;
        (vec![None; scenarios.len()], 0, writer)
    };

    let runs = execute(&passes, pool, base_seed, progress, |scenario, i, seed| {
        if let Some(entry) = &journaled[i] {
            return Ok(entry.clone());
        }
        let entry = report::result_tree(&SweepResult {
            scenario: scenario.clone(),
            seed,
            outcome: scenario.run(seed),
        });
        writer.record(i, &entry.render());
        Ok(entry)
    });
    let entries = scenarios
        .iter()
        .zip(runs)
        .map(|(scenario, (seed, run))| {
            run.unwrap_or_else(|panicked| {
                report::result_tree(&SweepResult {
                    scenario: scenario.clone(),
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
