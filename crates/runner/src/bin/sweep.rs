//! The sweep runner: executes a scheme × workload × geometry sweep — or a
//! fault or QoS campaign over one — on the sharded parallel engine and
//! writes its deterministic report (`BENCH_sweep.json` by default).
//!
//! ```text
//! cargo run --release -p mithril-runner --bin sweep -- [options]
//!   --smoke           tiny CI sweep (default)
//!   --full            the full default sweep (wins over --smoke)
//!   --threads N       worker threads (default: host parallelism, max 8)
//!   --shard-size N    scenarios per shard (default 1)
//!   --seed N          base seed (default 1)
//!   --insts N         override instructions per core
//!   --cores N         override cores per scenario
//!   --out PATH        report path (default BENCH_sweep.json,
//!                     BENCH_faults.json in --faults mode)
//!   --obs DIR         attach observability: per-scenario event logs
//!                     (events.jsonl), cycle-domain time series
//!                     (series.csv) and summaries under DIR, plus the
//!                     aggregate DIR/obs_counts.json baseline
//!   --progress        heartbeat on stderr: one `# progress: d/total`
//!                     line per finished scenario, in every mode (a
//!                     resumed journal ticks its recovered scenarios too)
//!   --journal PATH    crash-safe mode: append each completed scenario to
//!                     PATH as it finishes
//!   --resume          recover completed scenarios from --journal PATH
//!                     and run only what is missing
//!   --faults          fault-injection campaign: the smoke grid crossed
//!                     with a soft-error rate ladder, reported as
//!                     degradation curves per scheme
//!   --fault-rates R,R,...  override the campaign's rates (ppm of ACTs)
//!   --no-scrub        disable scrub (self-check + repair) in --faults
//!   --qos             multi-tenant QoS campaign: the noisy-neighbor grid
//!                     run with QoS off and on, reported as per-tenant
//!                     comparison pairs (default out: BENCH_qos.json)
//! ```
//!
//! Every mode prints the same stdout shape: a header naming the campaign
//! and the engine, one table row per run (fields its report carries for
//! that run: the metrics of a sweep, the degradation-curve point of a
//! fault run, the per-tenant summary of a QoS run), and a `# ok/total
//! runs ok` summary line. The report contains only deterministic content;
//! wall-clock and thread count are printed to stdout so the file stays
//! byte-comparable across worker counts (the determinism regression test
//! relies on this).
//!
//! Operational errors — malformed arguments, an unwritable report path, a
//! foreign journal — exit nonzero with a one-line message, not a panic
//! backtrace.

use std::path::Path;
use std::time::Instant;

use mithril_obs::json::Json;
use mithril_obs::json_obj;
use mithril_runner::cli::{self, die};
use mithril_runner::engine::{default_threads, PoolConfig};
use mithril_runner::report::{self, SweepResult};
use mithril_runner::scenarios::{FaultCampaignSpec, QosCampaignSpec, SweepSpec};
use mithril_runner::{
    run_campaign, run_sweep_journaled, run_sweep_observed, write_obs_outputs, Progress,
};
use mithril_sim::ObsConfig;

struct Args {
    smoke: bool,
    threads: usize,
    shard_size: usize,
    seed: u64,
    insts: Option<u64>,
    cores: Option<usize>,
    out: Option<String>,
    obs: Option<String>,
    progress: bool,
    journal: Option<String>,
    resume: bool,
    faults: bool,
    fault_rates: Option<Vec<u64>>,
    scrub: bool,
    qos: bool,
}

fn parse_args() -> Args {
    let mut args = cli::Args::from_env(&[
        "smoke", "full", "progress", "resume", "faults", "no-scrub", "qos",
    ]);
    args.flag("smoke");
    let out = Args {
        smoke: !args.flag("full"),
        threads: args.take_parsed("threads").unwrap_or_else(default_threads),
        shard_size: args.take_parsed("shard-size").unwrap_or(1),
        seed: args.take_parsed("seed").unwrap_or(1),
        insts: args.take_parsed("insts"),
        cores: args.take_parsed("cores"),
        out: args.take("out"),
        obs: args.take("obs"),
        progress: args.flag("progress"),
        journal: args.take("journal"),
        resume: args.flag("resume"),
        faults: args.flag("faults"),
        fault_rates: args.take("fault-rates").map(|raw| {
            let rates: Result<Vec<u64>, _> = raw.split(',').map(str::parse).collect();
            rates.unwrap_or_else(|_| die(format!("invalid value {raw:?} for --fault-rates")))
        }),
        scrub: !args.flag("no-scrub"),
        qos: args.flag("qos"),
    };
    args.finish();
    if out.resume && out.journal.is_none() {
        die("--resume requires --journal PATH");
    }
    if !out.faults && out.fault_rates.is_some() {
        die("--fault-rates requires --faults");
    }
    if !out.faults && !out.scrub {
        die("--no-scrub requires --faults");
    }
    if out.faults && out.journal.is_some() {
        die("--faults and --journal are mutually exclusive");
    }
    if out.obs.is_some() && out.journal.is_some() {
        die("--obs and --journal are mutually exclusive");
    }
    if out.obs.is_some() && out.faults {
        die("--obs and --faults are mutually exclusive");
    }
    if out.qos && (out.faults || out.journal.is_some() || out.obs.is_some()) {
        die("--qos is mutually exclusive with --faults, --journal and --obs");
    }
    out
}

fn write_report(path: &str, json: &str) {
    std::fs::write(path, json).unwrap_or_else(|e| die(format!("cannot write report {path}: {e}")));
}

/// The campaign one invocation runs.
enum Campaign {
    Sweep(SweepSpec),
    Faults(FaultCampaignSpec),
    Qos(QosCampaignSpec),
}

/// What a campaign produced: its run table and its report.
struct Finished {
    /// Run-table columns: keys of every row object.
    columns: &'static [&'static str],
    /// One `(name, row)` per run; a row carrying an `error` prints that
    /// instead of the columns.
    rows: Vec<(String, Json)>,
    report: String,
}

impl Campaign {
    fn from_args(args: &Args) -> Self {
        let mut campaign = if args.faults {
            let mut spec = FaultCampaignSpec::smoke();
            if !args.smoke {
                spec.base = SweepSpec::full();
            }
            if let Some(rates) = &args.fault_rates {
                spec.rates_ppm = rates.clone();
            }
            spec.scrub = args.scrub;
            Campaign::Faults(spec)
        } else if args.qos {
            Campaign::Qos(if args.smoke {
                QosCampaignSpec::smoke()
            } else {
                QosCampaignSpec::full()
            })
        } else {
            Campaign::Sweep(if args.smoke {
                SweepSpec::smoke()
            } else {
                SweepSpec::full()
            })
        };
        let base = match &mut campaign {
            Campaign::Sweep(spec) => spec,
            Campaign::Faults(spec) => &mut spec.base,
            Campaign::Qos(spec) => &mut spec.base,
        };
        if let Some(insts) = args.insts {
            base.insts_per_core = insts;
        }
        if let Some(cores) = args.cores {
            base.cores = cores;
        }
        campaign
    }

    /// The header line, and the number of runs the campaign expands to.
    fn describe(&self) -> (String, usize) {
        match self {
            Campaign::Sweep(spec) => {
                let n = spec.scenarios().len();
                let what = format!(
                    "sweep: {n} scenarios ({} geometries x {} schemes x {} workloads, minus skips)",
                    spec.geometries.len(),
                    spec.schemes.len(),
                    spec.workloads.len()
                );
                (what, n)
            }
            Campaign::Faults(spec) => {
                let n = spec.passes().concat().len();
                let what = format!(
                    "fault campaign: {n} runs ({} base scenarios x {} rates, scrub {})",
                    spec.base.scenarios().len(),
                    spec.rates_ppm.len(),
                    if spec.scrub { "on" } else { "off" }
                );
                (what, n)
            }
            Campaign::Qos(spec) => {
                let n = spec.passes().concat().len();
                let what = format!(
                    "qos campaign: {n} runs ({} base scenarios, off + throttled passes)",
                    spec.base.scenarios().len()
                );
                (what, n)
            }
        }
    }

    fn default_out(&self) -> &'static str {
        match self {
            Campaign::Sweep(_) => "BENCH_sweep.json",
            Campaign::Faults(_) => "BENCH_faults.json",
            Campaign::Qos(_) => "BENCH_qos.json",
        }
    }

    fn run(&self, args: &Args, pool: PoolConfig, progress: Option<&Progress>) -> Finished {
        let name = |r: &SweepResult| r.scenario.name.clone();
        match self {
            Campaign::Sweep(spec) => sweep(spec, args, pool, progress),
            Campaign::Faults(spec) => {
                let passes = run_campaign(&spec.passes(), pool, args.seed, progress);
                Finished {
                    columns: &[
                        "rate_ppm",
                        "rfms",
                        "max_disturbance",
                        "flips",
                        "injected",
                        "repairs",
                    ],
                    rows: passes
                        .iter()
                        .flatten()
                        .map(|r| (name(r), report::fault_point_tree(r)))
                        .collect(),
                    report: report::faults_json(args.seed, spec.scrub, &spec.rates_ppm, &passes),
                }
            }
            Campaign::Qos(spec) => {
                let passes = run_campaign(&spec.passes(), pool, args.seed, progress);
                let [off, on] = &passes[..] else {
                    unreachable!("a QoS campaign runs an off and an on pass")
                };
                let row = |r: &SweepResult| match &r.outcome {
                    Ok(m) => report::tenant_summary_tree(m),
                    Err(e) => json_obj! {"error": e},
                };
                Finished {
                    columns: &[
                        "victim_p99_ps",
                        "hammer_p99_ps",
                        "fairness_acts",
                        "flips",
                        "qos_throttled_acts",
                    ],
                    rows: off.iter().chain(on).map(|r| (name(r), row(r))).collect(),
                    report: report::qos_campaign_json(args.seed, off, on),
                }
            }
        }
    }
}

/// The plain sweep, observed (`--obs`) or journaled (`--journal`). Every
/// variant reports the same [`report::result_tree`] entries; a row is an
/// entry's `metrics` object, or the entry itself when it carries an
/// `error` instead.
fn sweep(spec: &SweepSpec, args: &Args, pool: PoolConfig, progress: Option<&Progress>) -> Finished {
    let entries: Vec<Json> = if let Some(journal) = &args.journal {
        let path = Path::new(journal);
        let sweep = run_sweep_journaled(spec, pool, args.seed, path, args.resume, progress)
            .unwrap_or_else(|e| die(e));
        println!(
            "# journal {journal}: {} recovered, {} run, {} corrupt line(s) dropped",
            sweep.recovered,
            sweep.entries.len() - sweep.recovered,
            sweep.dropped_lines
        );
        sweep.entries
    } else if let Some(dir) = &args.obs {
        let observed = run_sweep_observed(spec, pool, args.seed, ObsConfig::default(), progress);
        write_obs_outputs(Path::new(dir), args.seed, &observed).unwrap_or_else(|e| die(e));
        println!("# obs: wrote event logs, time series and {dir}/obs_counts.json");
        observed
            .iter()
            .map(|(r, _)| report::result_tree(r))
            .collect()
    } else {
        let passes = run_campaign(&[spec.scenarios()], pool, args.seed, progress);
        passes.iter().flatten().map(report::result_tree).collect()
    };
    let rows = entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str).unwrap_or_default();
            (name.to_string(), e.get("metrics").unwrap_or(e).clone())
        })
        .collect();
    Finished {
        columns: &[
            "aggregate_ipc",
            "energy_pj",
            "rfms",
            "max_disturbance",
            "flips",
        ],
        rows,
        report: report::sweep_json_from_entries(args.seed, entries),
    }
}

/// One table cell: integers verbatim, floats to three decimals (in
/// scientific notation once they grow large).
fn cell(value: Option<&Json>) -> String {
    match value {
        Some(Json::Num(x)) if x.abs() >= 1e5 => format!("{x:.3e}"),
        Some(Json::Num(x)) => format!("{x:.3}"),
        Some(v) => v.render(),
        None => "-".into(),
    }
}

fn main() {
    let args = parse_args();
    let pool = PoolConfig {
        threads: args.threads,
        shard_size: args.shard_size,
    };
    let campaign = Campaign::from_args(&args);
    let (what, n) = campaign.describe();
    println!("# {what}");
    println!(
        "# engine: {} threads, shard size {}, base seed {}",
        pool.threads, pool.shard_size, args.seed
    );

    let heartbeat = args.progress.then(|| Progress::new(n));
    let t0 = Instant::now();
    let done = campaign.run(&args, pool, heartbeat.as_ref());
    let wall = t0.elapsed();

    let width = |column: &str| column.len().max(10);
    print!("{:<48}", "run");
    for column in done.columns {
        print!(" {column:>w$}", w = width(column));
    }
    println!();
    let mut ok = 0;
    for (name, row) in &done.rows {
        if let Some(e) = row.get("error") {
            println!("{name:<48} unavailable: {}", e.as_str().unwrap_or_default());
            continue;
        }
        ok += 1;
        print!("{name:<48}");
        for column in done.columns {
            print!(" {:>w$}", cell(row.get(column)), w = width(column));
        }
        println!();
    }

    let out = args.out.as_deref().unwrap_or(campaign.default_out());
    write_report(out, &done.report);
    println!(
        "# {ok}/{} runs ok; wall-clock {:.2}s at {} threads; wrote {out}",
        done.rows.len(),
        wall.as_secs_f64(),
        pool.threads,
    );
}
