//! Regression analytics over emitted reports — the library behind
//! `obs report`.
//!
//! Ingests two or more of the workspace's deterministic JSON reports
//! (`BENCH_sweep.json` sweeps, `trace replay --metrics-only` runs,
//! `BENCH_obs.json` / `obs_counts.json` event-count baselines, or `--obs`
//! output directories) and compares a baseline against each candidate:
//! per-metric deltas with direction-aware regression classification,
//! latency-percentile shifts, new/missing scenarios, and ring-drop
//! warnings. Every input is `format_version`-validated before any
//! numbers are compared, so schema drift fails loudly instead of
//! producing a nonsense table.

use mithril_obs::check_format_version;
use mithril_obs::json::Json;
use Direction::{HigherBetter, LowerBetter, Neutral};
use Source::{At, Mean};

/// Whether a metric counts as *better* when it goes up or when it goes
/// down; `Neutral` metrics are reported but never classified as
/// regressions (counters that merely describe the workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (throughput-like).
    HigherBetter,
    /// Smaller is better (latency/energy-like).
    LowerBetter,
    /// Informational only.
    Neutral,
}

/// Where a tracked metric is read from in a run's `metrics` object, as
/// a dotted path of member names.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// The number at this path.
    At(&'static str),
    /// The exact mean (`sum_ps / count`) of the histogram summary at this
    /// path; 0 when it recorded nothing, like `LatencyHistogram::mean`.
    Mean(&'static str),
}

/// The per-scenario metrics `obs report` tracks, with where each is
/// extracted from and its regression direction.
const SCENARIO_METRICS: &[(&str, Source, Direction)] = &[
    ("aggregate_ipc", At("aggregate_ipc"), HigherBetter),
    ("energy_pj", At("energy_pj"), LowerBetter),
    ("read_mean_ps", Mean("latency.read"), LowerBetter),
    ("max_disturbance", At("max_disturbance"), LowerBetter),
    ("flips", At("flips"), LowerBetter),
    ("throttled_acts", At("throttled_acts"), Neutral),
    ("read_p50_ps", At("latency.read.p50_ps"), LowerBetter),
    ("read_p99_ps", At("latency.read.p99_ps"), LowerBetter),
    ("read_p999_ps", At("latency.read.p999_ps"), LowerBetter),
    ("write_p99_ps", At("latency.write.p99_ps"), LowerBetter),
];

/// One named run extracted from a report, with its flat metric list.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Scenario name (sweeps), scheme label (metrics-only runs) or kind
    /// name (count baselines).
    pub name: String,
    /// `(metric, value, direction)` triples in extraction order.
    pub metrics: Vec<(String, f64, Direction)>,
}

/// A parsed, validated report in comparison-ready form.
#[derive(Debug, Clone)]
pub struct Report {
    /// What kind of report this was parsed from (for the table header).
    pub kind: &'static str,
    /// The comparable runs, in report order.
    pub runs: Vec<RunMetrics>,
    /// Ring-drop (and other) warnings the report itself carried, plus
    /// any nonzero drop counters found while parsing.
    pub warnings: Vec<String>,
}

fn walk<'a>(root: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(root, |cur, key| cur.get(key))
}

fn extract(metrics: &Json, source: Source) -> Option<f64> {
    match source {
        At(path) => walk(metrics, path)?.as_f64(),
        Mean(path) => {
            let h = walk(metrics, path)?;
            let count = h.get("count")?.as_u64()?;
            let sum = h.get("sum_ps")?.as_u64()?;
            // An empty histogram has a zero sum, so this is 0 for it.
            Some(sum as f64 / count.max(1) as f64)
        }
    }
}

fn scenario_metrics(name: &str, metrics: &Json) -> RunMetrics {
    let mut out = Vec::new();
    for &(label, source, dir) in SCENARIO_METRICS {
        if let Some(v) = extract(metrics, source) {
            out.push((label.to_string(), v, dir));
        }
    }
    // Per-tenant tails: one `core<N>_p99_ps` metric per issuing core, so
    // a single tenant's latency blowup (the noisy-neighbor failure mode)
    // trips the gate even when the aggregate percentiles barely move.
    if let Some(per_core) = metrics.get("per_core").and_then(Json::as_arr) {
        for c in per_core {
            let (Some(core), Some(p99)) = (
                c.get("core").and_then(Json::as_u64),
                c.get("p99_ps").and_then(Json::as_f64),
            ) else {
                continue;
            };
            out.push((format!("core{core}_p99_ps"), p99, Direction::LowerBetter));
        }
    }
    RunMetrics {
        name: name.to_string(),
        metrics: out,
    }
}

/// Parses and validates one report document. Accepts every dialect the
/// workspace emits: sweeps (`scenarios`), metrics-only replays (`runs`),
/// and obs count baselines/summaries (`positions`/`totals` or `counts`).
pub fn parse_report(text: &str) -> Result<Report, String> {
    let doc = Json::parse(text)?;
    check_format_version(&doc)?;

    let mut warnings: Vec<String> = Vec::new();
    if let Some(list) = doc.get("warnings").and_then(Json::as_arr) {
        warnings.extend(list.iter().filter_map(Json::as_str).map(String::from));
    }

    if let Some(scenarios) = doc.get("scenarios").and_then(Json::as_arr) {
        let mut runs = Vec::new();
        for s in scenarios {
            let name = s.get("name").and_then(Json::as_str).unwrap_or("?");
            match s.get("metrics") {
                Some(m) => runs.push(scenario_metrics(name, m)),
                None => warnings.push(format!(
                    "scenario {name} carries an error instead of metrics: {}",
                    s.get("error").and_then(Json::as_str).unwrap_or("unknown")
                )),
            }
        }
        return Ok(Report {
            kind: "sweep",
            runs,
            warnings,
        });
    }

    if let Some(replays) = doc.get("runs").and_then(Json::as_arr) {
        let mut runs = Vec::new();
        for (i, r) in replays.iter().enumerate() {
            let scheme = r.get("scheme").and_then(Json::as_str).unwrap_or("?");
            let name = format!("{i}/{scheme}");
            if let Some(m) = r.get("metrics") {
                runs.push(scenario_metrics(&name, m));
            }
        }
        return Ok(Report {
            kind: "metrics-only replay",
            runs,
            warnings,
        });
    }

    if let Some(totals) = doc.get("totals").and_then(Json::as_obj) {
        // obs_counts.json: per-kind totals are the comparable metrics;
        // any drop is a warning even if the report predates `warnings`.
        let metrics: Vec<(String, f64, Direction)> = totals
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x, Direction::Neutral)))
            .collect();
        if let Some(d) = doc.get("total_dropped").and_then(Json::as_u64) {
            if d > 0 && warnings.is_empty() {
                warnings.push(format!("rings dropped {d} events"));
            }
        }
        return Ok(Report {
            kind: "obs counts",
            runs: vec![RunMetrics {
                name: "totals".to_string(),
                metrics,
            }],
            warnings,
        });
    }

    if let Some(counts) = doc.get("counts").and_then(Json::as_obj) {
        // A single capture's summary.json.
        let metrics: Vec<(String, f64, Direction)> = counts
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x, Direction::Neutral)))
            .collect();
        if let Some(d) = doc.get("events_dropped").and_then(Json::as_u64) {
            if d > 0 && warnings.is_empty() {
                warnings.push(format!("rings dropped {d} events"));
            }
        }
        return Ok(Report {
            kind: "obs summary",
            runs: vec![RunMetrics {
                name: "counts".to_string(),
                metrics,
            }],
            warnings,
        });
    }

    Err("unrecognized report shape (expected scenarios/runs/totals/counts)".to_string())
}

/// One compared metric of one run.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Which run the metric belongs to.
    pub run: String,
    /// The metric label.
    pub metric: String,
    /// Baseline value.
    pub old: f64,
    /// Candidate value.
    pub new: f64,
    /// Signed percent change relative to the baseline (`new` vs `old`);
    /// +100 when a zero baseline became nonzero.
    pub delta_pct: f64,
    /// True when the change moves against the metric's direction.
    pub worse: bool,
}

/// Result of comparing a candidate report against the baseline.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// All metric deltas for runs present in both reports.
    pub deltas: Vec<Delta>,
    /// Runs only in the candidate.
    pub new_runs: Vec<String>,
    /// Runs only in the baseline.
    pub missing_runs: Vec<String>,
    /// Warnings from either side (ring drops, errored scenarios).
    pub warnings: Vec<String>,
}

impl Comparison {
    /// Deltas that regressed by more than `pct` percent (direction-aware;
    /// `Neutral` metrics never qualify).
    pub fn regressions(&self, pct: f64) -> Vec<&Delta> {
        self.deltas
            .iter()
            .filter(|d| d.worse && d.delta_pct.abs() > pct)
            .collect()
    }

    /// Renders the regression table: changed metrics first (largest
    /// regression first), then scenario-set drift and warnings, then a
    /// one-line summary of unchanged metrics.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut changed: Vec<&Delta> = self.deltas.iter().filter(|d| d.delta_pct != 0.0).collect();
        changed.sort_by(|a, b| {
            (b.worse, b.delta_pct.abs())
                .partial_cmp(&(a.worse, a.delta_pct.abs()))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out.push_str(&format!(
            "{:<44} {:>20} {:>14} {:>14} {:>9}\n",
            "run", "metric", "old", "new", "delta%"
        ));
        for d in &changed {
            out.push_str(&format!(
                "{:<44} {:>20} {:>14} {:>14} {:>+9.2}{}\n",
                d.run,
                d.metric,
                trim_num(d.old),
                trim_num(d.new),
                d.delta_pct,
                if d.worse { "  <-- worse" } else { "" }
            ));
        }
        let unchanged = self.deltas.len() - changed.len();
        out.push_str(&format!(
            "{} metrics compared, {} changed, {} unchanged\n",
            self.deltas.len(),
            changed.len(),
            unchanged
        ));
        for name in &self.new_runs {
            out.push_str(&format!("NEW      {name}\n"));
        }
        for name in &self.missing_runs {
            out.push_str(&format!("MISSING  {name}\n"));
        }
        for w in &self.warnings {
            out.push_str(&format!("WARN     {w}\n"));
        }
        out
    }
}

fn trim_num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.4}")
    }
}

/// Compares `new` against the `old` baseline, matching runs by name.
pub fn compare(old: &Report, new: &Report) -> Comparison {
    let mut cmp = Comparison::default();
    for w in old.warnings.iter().chain(new.warnings.iter()) {
        if !cmp.warnings.contains(w) {
            cmp.warnings.push(w.clone());
        }
    }
    for run in &new.runs {
        let Some(base) = old.runs.iter().find(|r| r.name == run.name) else {
            cmp.new_runs.push(run.name.clone());
            continue;
        };
        for (metric, new_v, dir) in &run.metrics {
            let Some((_, old_v, _)) = base.metrics.iter().find(|(m, _, _)| m == metric) else {
                continue;
            };
            let delta_pct = if *old_v == 0.0 {
                if *new_v == 0.0 {
                    0.0
                } else {
                    100.0
                }
            } else {
                (new_v - old_v) / old_v.abs() * 100.0
            };
            let worse = match dir {
                Direction::HigherBetter => delta_pct < 0.0,
                Direction::LowerBetter => delta_pct > 0.0,
                Direction::Neutral => false,
            };
            cmp.deltas.push(Delta {
                run: run.name.clone(),
                metric: metric.clone(),
                old: *old_v,
                new: *new_v,
                delta_pct,
                worse,
            });
        }
    }
    for run in &old.runs {
        if !new.runs.iter().any(|r| r.name == run.name) {
            cmp.missing_runs.push(run.name.clone());
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PoolConfig;
    use crate::report::sweep_json;
    use crate::run_sweep;
    use crate::scenarios::SweepSpec;

    fn tiny_sweep(seed: u64) -> Vec<crate::report::SweepResult> {
        let mut spec = SweepSpec::smoke();
        spec.insts_per_core = 800;
        spec.cores = 2;
        let mut results = run_sweep(
            &spec,
            PoolConfig {
                threads: 2,
                shard_size: 1,
            },
            seed,
        );
        results.truncate(4);
        results
    }

    #[test]
    fn identical_reports_have_no_regressions() {
        let json = sweep_json(7, &tiny_sweep(7));
        let a = parse_report(&json).unwrap();
        let b = parse_report(&json).unwrap();
        assert_eq!(a.kind, "sweep");
        assert!(!a.runs.is_empty());
        // Every run exposes the percentile ladder.
        assert!(a.runs[0].metrics.iter().any(|(m, _, _)| m == "read_p99_ps"));
        let cmp = compare(&a, &b);
        assert!(cmp.regressions(0.0).is_empty());
        assert!(cmp.new_runs.is_empty() && cmp.missing_runs.is_empty());
        assert!(cmp.deltas.iter().all(|d| d.delta_pct == 0.0));
        assert!(cmp.render().contains("0 changed"));
    }

    /// Acceptance pin: an injected synthetic regression (aggregate IPC
    /// cut, read p99 inflated) must be classified as such.
    #[test]
    fn injected_regression_is_detected() {
        let results = tiny_sweep(42);
        let old = parse_report(&sweep_json(42, &results)).unwrap();

        let mut worse = results.clone();
        for r in &mut worse {
            if let Ok(m) = &mut r.outcome {
                m.aggregate_ipc *= 0.80; // -20% throughput
            }
        }
        let new = parse_report(&sweep_json(42, &worse)).unwrap();
        let cmp = compare(&old, &new);
        let regs = cmp.regressions(5.0);
        assert!(
            !regs.is_empty() && regs.iter().all(|d| d.metric == "aggregate_ipc"),
            "expected only aggregate_ipc regressions, got {regs:?}"
        );
        assert!(cmp.render().contains("<-- worse"));
        // An *improvement* of the same size is not a regression.
        let cmp_rev = compare(&new, &old);
        assert!(cmp_rev.regressions(5.0).is_empty());
    }

    /// The mean is derived from the exact histogram sum: raising one
    /// scenario's `latency.read.sum_ps` moves `read_mean_ps` and nothing
    /// else.
    #[test]
    fn read_mean_is_derived_from_the_histogram_sum() {
        fn member<'a>(v: &'a mut Json, key: &str) -> &'a mut Json {
            match v {
                Json::Obj(members) => &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1,
                _ => panic!("not an object"),
            }
        }
        let json = sweep_json(7, &tiny_sweep(7));
        let mut tree = Json::parse(&json).unwrap();
        let Json::Arr(scenarios) = member(&mut tree, "scenarios") else {
            panic!("no scenarios");
        };
        let read = member(
            member(member(&mut scenarios[0], "metrics"), "latency"),
            "read",
        );
        assert!(read.get("count").unwrap().as_u64().unwrap() > 0);
        let Json::Int(sum) = member(read, "sum_ps") else {
            panic!("sum_ps is not an integer");
        };
        *sum += *sum / 4;
        let old = parse_report(&json).unwrap();
        let new = parse_report(&tree.render_report()).unwrap();
        let cmp = compare(&old, &new);
        let changed: Vec<&Delta> = cmp.deltas.iter().filter(|d| d.delta_pct != 0.0).collect();
        assert_eq!(changed.len(), 1, "{changed:?}");
        assert_eq!(changed[0].run, old.runs[0].name);
        assert_eq!(changed[0].metric, "read_mean_ps");
        assert!(changed[0].worse && (changed[0].delta_pct - 25.0).abs() < 0.1);
    }

    #[test]
    fn scenario_set_drift_is_reported() {
        let results = tiny_sweep(7);
        let old = parse_report(&sweep_json(7, &results)).unwrap();
        let mut fewer = results.clone();
        fewer.pop();
        let new = parse_report(&sweep_json(7, &fewer)).unwrap();
        let cmp = compare(&old, &new);
        assert_eq!(cmp.missing_runs.len(), 1);
        assert!(compare(&new, &old).new_runs.len() == 1);
    }

    #[test]
    fn foreign_format_versions_are_rejected() {
        let json = sweep_json(7, &tiny_sweep(7));
        let forged = json.replace(
            &format!("\"format_version\": {}", mithril_obs::FORMAT_VERSION),
            "\"format_version\": 999",
        );
        assert!(parse_report(&forged).unwrap_err().contains("999"));
        assert!(parse_report("{}").is_err());
        assert!(parse_report("not json").is_err());
    }

    #[test]
    fn obs_counts_reports_flag_drops() {
        let entry = crate::report::ObsCountEntry {
            index: 0,
            name: "s".into(),
            seed: 1,
            counts: [3; mithril_obs::KINDS],
            dropped: 5,
        };
        let json = crate::report::obs_counts_json(1, &[entry]);
        let report = parse_report(&json).unwrap();
        assert_eq!(report.kind, "obs counts");
        assert!(
            report.warnings.iter().any(|w| w.contains("dropped 5")),
            "{:?}",
            report.warnings
        );
        let cmp = compare(&report, &report);
        assert!(!cmp.warnings.is_empty());
        assert_eq!(cmp.deltas.len(), mithril_obs::KINDS);
    }
}
