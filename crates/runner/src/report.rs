//! Machine-readable sweep reports (`BENCH_sweep.json`).
//!
//! Every report is built as a [`Json`] tree with a fixed field order and
//! rendered by the one writer in [`mithril_obs::json`], so it is
//! **deterministic**: floats use Rust's shortest-round-trip formatting,
//! and nothing time- or host-dependent enters the file. The determinism
//! regression test compares whole report strings across thread counts,
//! so keep it that way: wall-clock and worker counts belong on stdout,
//! not in the report.

use mithril_dram::EnergyCounters;
use mithril_sim::{ChannelMetrics, CoreStats, FaultStats, Metrics, PerCore, QosStats};

use mithril_obs::json::Json;
use mithril_obs::{json_obj, kind_counts_tree, LatencyHistogram, FORMAT_VERSION, KINDS};

use crate::scenarios::{geometry_tag, Scenario};

/// One executed scenario with its seed and results.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// What ran.
    pub scenario: Scenario,
    /// The deterministic seed the engine assigned.
    pub seed: u64,
    /// The run's metrics, or the configuration error that prevented it.
    pub outcome: Result<Metrics, String>,
}

/// Appends a run's outcome to its entry: the `metrics` object, or the
/// `error` string that replaced it.
fn push_outcome(entry: &mut Json, outcome: &Result<Metrics, String>) {
    match outcome {
        Ok(m) => entry.push("metrics", metrics_tree(m)),
        Err(e) => entry.push("error", e),
    }
}

fn counters_tree(c: &EnergyCounters) -> Json {
    json_obj! {
        "acts": c.acts,
        "pres": c.pres,
        "reads": c.reads,
        "writes": c.writes,
        "auto_refresh_rows": c.auto_refresh_rows,
        "preventive_rows": c.preventive_rows,
        "rfm_commands": c.rfm_commands,
        "mrr_commands": c.mrr_commands,
    }
}

fn channel_tree(c: &ChannelMetrics) -> Json {
    let total = CoreStats::total(&c.per_core);
    json_obj! {
        "channel": c.channel.0,
        "reads_done": c.counters.reads,
        "writes_done": c.counters.writes,
        "latency": latency_tree(&total.read_latency, &total.write_latency),
        "row_hit_rate": c.row_hit_rate,
        "energy_pj": c.energy_pj,
        "rfms": c.counters.rfm_commands,
        "rfm_elisions": c.rfm_elisions,
        "arrs": c.arrs,
        "throttled_acts": total.throttled_acts,
        "max_disturbance": c.max_disturbance,
        "flips": c.flips,
        "counters": counters_tree(&c.counters),
    }
}

/// The read/write histograms' integer summaries (exact count/sum/min/max
/// plus bucket-lower-bound percentiles).
fn latency_tree(read: &LatencyHistogram, write: &LatencyHistogram) -> Json {
    json_obj! {
        "read": read.summary_tree(),
        "write": write.summary_tree(),
    }
}

/// The per-core attribution array: one entry per issuing core, with its
/// command shares, latency percentiles and its share of the mitigation
/// triggers (the "who is hammering" signal, rendered as an exact
/// fraction of the run's total triggers).
fn per_core_tree(per_core: &PerCore<CoreStats>) -> Json {
    let total_triggers: u64 = per_core.iter().map(|(_, c)| c.mitigation_triggers).sum();
    Json::arr(per_core.iter().map(|(core, c)| {
        let share = if total_triggers == 0 {
            0.0
        } else {
            c.mitigation_triggers as f64 / total_triggers as f64
        };
        json_obj! {
            "core": core,
            "acts": c.acts,
            "reads": c.read_latency.count(),
            "writes": c.write_latency.count(),
            "throttled_acts": c.throttled_acts,
            "rfm_triggers": c.rfm_triggers,
            "mitigation_triggers": c.mitigation_triggers,
            "trigger_share": share,
            "p50_ps": c.read_latency.p50(),
            "p99_ps": c.read_latency.p99(),
        }
    }))
}

/// The QoS throttling summary: window count, total deferred ACTs, and
/// the per-thread suspect/throttle attribution.
fn qos_tree(q: &QosStats) -> Json {
    let threads = q.per_thread.iter().enumerate().map(|(thread, t)| {
        json_obj! {
            "thread": thread,
            "suspect_windows": t.suspect_windows,
            "throttled_acts": t.throttled_acts,
            "score": t.score,
            "pressure": t.pressure,
        }
    });
    json_obj! {
        "windows": q.windows,
        "throttled_acts": q.throttled_acts,
        "per_thread": Json::arr(threads),
    }
}

/// One run's [`Metrics`] as a report tree. The `latency` sections (system
/// and per channel) embed the read/write histogram summaries and
/// `per_core` the per-issuing-core attribution; both are integer-valued,
/// so they are byte-identical at any thread count like the rest of the
/// report.
///
/// A `qos` section rides at the end *only* when the run had QoS
/// throttling enabled — QoS-off runs carry no QoS state at all, keeping
/// their reports byte-identical to pre-QoS builds. The fault counters
/// (`m.faults`) are never rendered here: the fault campaign puts them
/// beside the metrics object, as the entry's `fault_stats`.
fn metrics_tree(m: &Metrics) -> Json {
    let mut t = json_obj! {
        "aggregate_ipc": m.aggregate_ipc,
        "total_insts": m.total_insts,
        "sim_time_ps": m.sim_time_ps,
        "llc_miss_rate": m.llc_miss_rate,
        "energy_pj": m.energy_pj,
        "rfms": m.counters.rfm_commands,
        "rfm_elisions": m.rfm_elisions,
        "arrs": m.arrs,
        "throttled_acts": m.throttled_acts,
        "max_disturbance": m.max_disturbance,
        "flips": m.flips,
        "counters": counters_tree(&m.counters),
        "per_channel": Json::arr(m.per_channel.iter().map(channel_tree)),
        "latency": latency_tree(&m.read_latency, &m.write_latency),
        "per_core": per_core_tree(&m.per_core),
    };
    if let Some(q) = &m.qos {
        t.push("qos", qos_tree(q));
    }
    t
}

/// Renders one run's [`Metrics`] compactly, in the report dialect.
///
/// Public because replay comparisons diff *metrics*, not scenario labels:
/// a replayed scenario is named `trace:<path>` while its live twin carries
/// the generator name, so whole-report strings can never match — this
/// projection is the byte-comparable part.
pub fn metrics_json(m: &Metrics) -> String {
    metrics_tree(m).render()
}

/// One sweep result as a report entry: the scenario's identity and seed,
/// then its `metrics` or `error` — the unit the crash-safe sweep journal
/// stores and [`sweep_json_from_entries`] reassembles.
pub fn result_tree(r: &SweepResult) -> Json {
    let s = &r.scenario;
    let g = &s.geometry;
    let mut t = json_obj! {
        "name": &s.name,
        "scheme": &s.scheme_label,
        "workload": &s.workload,
        "geometry": json_obj! {
            "tag": geometry_tag(g),
            "channels": g.channels,
            "ranks": g.ranks,
            "banks_per_rank": g.banks_per_rank,
        },
        "flip_th": s.flip_th,
        "cores": s.cores,
        "insts_per_core": s.insts_per_core,
        "seed": r.seed,
    };
    push_outcome(&mut t, &r.outcome);
    t
}

fn fault_stats_tree(f: &FaultStats) -> Json {
    json_obj! {
        "bit_flips": f.bit_flips,
        "invalidations": f.invalidations,
        "stuck_bits": f.stuck_bits,
        "stuck_assertions": f.stuck_assertions,
        "scrubs": f.scrubs,
        "scrub_detections": f.scrub_detections,
        "repairs": f.repairs,
        "dropped": f.dropped,
    }
}

/// Renders only the scheme labels and metrics of a sweep — the
/// label-independent projection `trace replay --metrics-only` emits so a
/// replayed capture and its live-generated twin can be compared
/// byte-for-byte (`cmp`/`git diff`) despite their different workload
/// names.
pub fn metrics_only_json(base_seed: u64, results: &[SweepResult]) -> String {
    let runs = results.iter().map(|r| {
        let mut t = json_obj! {
            "scheme": &r.scenario.scheme_label,
            "flip_th": r.scenario.flip_th,
        };
        push_outcome(&mut t, &r.outcome);
        t
    });
    json_obj! {
        "format_version": FORMAT_VERSION,
        "base_seed": base_seed,
        "runs": Json::arr(runs),
    }
    .render_report()
}

/// Renders a whole sweep to the `BENCH_sweep.json` format.
///
/// Identical inputs render to identical strings; the engine guarantees
/// identical inputs for any worker count, so reports are comparable
/// byte-for-byte across thread counts.
pub fn sweep_json(base_seed: u64, results: &[SweepResult]) -> String {
    sweep_json_from_entries(base_seed, results.iter().map(result_tree).collect())
}

/// Assembles a `BENCH_sweep.json` report from [`result_tree`] entries (in
/// scenario-registry order).
///
/// This is the resume path's assembly point: entries recovered from a
/// crash-safe journal and entries built live in the same process go
/// through the same function, so a resumed report is byte-identical to
/// an uninterrupted one.
pub fn sweep_json_from_entries(base_seed: u64, entries: Vec<Json>) -> String {
    json_obj! {
        "format_version": FORMAT_VERSION,
        "base_seed": base_seed,
        "scenarios": entries,
    }
    .render_report()
}

/// Injected fault rate of a run in faults per million ACTs; 0 for the
/// fault-free anchor runs, which carry no fault config at all.
fn rate_ppm(r: &SweepResult) -> u64 {
    r.scenario.faults.map_or(0, |f| f.rate_ppm)
}

/// One run's point on its degradation curve: the injected rate, the
/// injection and repair counts, protection (`max_disturbance`, `flips`)
/// and cost (`rfms`, `preventive_rows`) — or the error that replaced
/// them. The `sweep --faults` run table prints these same fields.
pub fn fault_point_tree(r: &SweepResult) -> Json {
    match &r.outcome {
        Ok(m) => json_obj! {
            "rate_ppm": rate_ppm(r),
            "injected": m.faults.as_ref().map_or(0, FaultStats::injected),
            "repairs": m.faults.as_ref().map_or(0, |f| f.repairs),
            "max_disturbance": m.max_disturbance,
            "flips": m.flips,
            "rfms": m.counters.rfm_commands,
            "preventive_rows": m.counters.preventive_rows,
        },
        Err(e) => json_obj! {"rate_ppm": rate_ppm(r), "error": e},
    }
}

/// Renders a fault campaign to the `BENCH_faults.json` format from its
/// rate passes (one per entry of `rates_ppm`, as
/// [`crate::run_campaign`] returns them): the flat run list (each entry a
/// [`result_tree`] record extended with its rate and fault counters),
/// followed by one degradation curve per base cell — curve `i` is
/// position `i` of every pass, one [`fault_point_tree`] per rate.
///
/// Deterministic like [`sweep_json`]: identical campaigns render to
/// identical strings at any worker count.
pub fn faults_json(
    base_seed: u64,
    scrub: bool,
    rates_ppm: &[u64],
    passes: &[Vec<SweepResult>],
) -> String {
    faults_tree(base_seed, scrub, rates_ppm, passes).render_report()
}

fn faults_tree(
    base_seed: u64,
    scrub: bool,
    rates_ppm: &[u64],
    passes: &[Vec<SweepResult>],
) -> Json {
    let entries = passes.iter().flatten().map(|r| {
        let mut t = result_tree(r);
        t.push("rate_ppm", rate_ppm(r));
        let faults = r.outcome.as_ref().ok().and_then(|m| m.faults.as_ref());
        t.push("fault_stats", faults.map(fault_stats_tree));
        t
    });
    let cells = passes.first().into_iter().flatten();
    let curves = cells.enumerate().map(|(i, cell)| {
        let s = &cell.scenario;
        json_obj! {
            "scheme": &s.scheme_label,
            "workload": &s.workload,
            "geometry": geometry_tag(&s.geometry),
            "points": Json::arr(passes.iter().map(|pass| fault_point_tree(&pass[i]))),
        }
    });

    json_obj! {
        "format_version": FORMAT_VERSION,
        "base_seed": base_seed,
        "scrub": scrub,
        "rates_ppm": rates_ppm.to_vec(),
        "runs": Json::arr(entries),
        "curves": Json::arr(curves),
    }
}

/// Per-tenant outcome summary of one noisy-neighbor run: worst victim
/// tail latency, the hammering tenant's tail, an activations fairness
/// ratio, flip safety, and QoS throttle attribution.
///
/// The noisy-neighbor mix pins the hammering tenant on the **highest
/// core index** (victims occupy the lower indices), so tenant roles are
/// recovered from core position, not from a heuristic.
///
/// The `sweep --qos` run table prints these same fields.
pub fn tenant_summary_tree(m: &Metrics) -> Json {
    let hammer = m.per_core.iter().map(|(core, _)| core).max();
    let victims: Vec<&CoreStats> = m
        .per_core
        .iter()
        .filter(|(core, _)| Some(*core) != hammer)
        .map(|(_, c)| c)
        .collect();
    let victim_p50 = victims
        .iter()
        .map(|c| c.read_latency.p50())
        .max()
        .unwrap_or(0);
    let victim_p99 = victims
        .iter()
        .map(|c| c.read_latency.p99())
        .max()
        .unwrap_or(0);
    let hammer_p99 = hammer
        .and_then(|h| m.per_core.get(h))
        .map_or(0, |c| c.read_latency.p99());
    let acts: Vec<u64> = m.per_core.iter().map(|(_, c)| c.acts).collect();
    let fairness = match (acts.iter().min(), acts.iter().max()) {
        (Some(&lo), Some(&hi)) if hi > 0 => lo as f64 / hi as f64,
        _ => 0.0,
    };
    json_obj! {
        "victim_p50_ps": victim_p50,
        "victim_p99_ps": victim_p99,
        "hammer_p99_ps": hammer_p99,
        "fairness_acts": fairness,
        "flips": m.flips,
        "max_disturbance": m.max_disturbance,
        "qos_throttled_acts": m.qos.as_ref().map_or(0, |q| q.throttled_acts),
    }
}

/// Renders a QoS campaign to the `BENCH_qos.json` format from its QoS-off
/// and QoS-on passes (as [`crate::run_campaign`] returns them): the flat
/// run list (QoS-off pass first, then the `+qos` pass), followed by one
/// comparison pair per base cell — position `i` of each pass, their
/// per-tenant summaries side by side, so victim tail latency, fairness
/// and flip safety can be read off without re-deriving them from the
/// per-core arrays. A cell where either run failed has no pair.
///
/// Deterministic like [`sweep_json`]: identical campaigns render to
/// identical strings at any worker count.
pub fn qos_campaign_json(base_seed: u64, off: &[SweepResult], on: &[SweepResult]) -> String {
    qos_campaign_tree(base_seed, off, on).render_report()
}

fn qos_campaign_tree(base_seed: u64, off: &[SweepResult], on: &[SweepResult]) -> Json {
    let pairs = off.iter().zip(on).filter_map(|(off, on)| {
        let (Ok(m_off), Ok(m_on)) = (&off.outcome, &on.outcome) else {
            return None;
        };
        Some(json_obj! {
            "scheme": &off.scenario.scheme_label,
            "workload": &off.scenario.workload,
            "geometry": geometry_tag(&off.scenario.geometry),
            "off": tenant_summary_tree(m_off),
            "qos": tenant_summary_tree(m_on),
        })
    });
    json_obj! {
        "format_version": FORMAT_VERSION,
        "base_seed": base_seed,
        "scenarios": Json::arr(off.iter().chain(on).map(result_tree)),
        "pairs": Json::arr(pairs),
    }
}

/// One observed position's exact per-kind event counts, as recorded by
/// the observability ring sinks (counts are exact even when the ring
/// dropped payloads).
#[derive(Debug, Clone)]
pub struct ObsCountEntry {
    /// Position of the scenario in the sweep registry.
    pub index: usize,
    /// Scenario name.
    pub name: String,
    /// Seed the engine assigned to this position.
    pub seed: u64,
    /// Exact per-kind counts summed over channels, indexed like
    /// [`KIND_NAMES`](mithril_obs::KIND_NAMES).
    pub counts: [u64; KINDS],
    /// Events evicted from the bounded rings (payloads lost, counts kept).
    pub dropped: u64,
}

/// Renders the aggregate observability baseline (`BENCH_obs.json`): exact
/// per-kind event counts for every observed sweep position plus the
/// sweep-wide totals. Deterministic like [`sweep_json`] — counts depend
/// only on simulated execution, never on thread count or ring capacity,
/// so CI can diff this file byte-for-byte against a committed baseline.
///
/// Ring drops surface as a top-level `warnings` array (one entry per
/// affected position) rather than only the silent `total_dropped`
/// counter; `obs report` flags any nonzero drop it ingests.
pub fn obs_counts_json(base_seed: u64, entries: &[ObsCountEntry]) -> String {
    let mut totals = [0u64; KINDS];
    let mut total_dropped = 0u64;
    for e in entries {
        for (t, c) in totals.iter_mut().zip(e.counts.iter()) {
            *t += c;
        }
        total_dropped += e.dropped;
    }
    let warnings: Vec<String> = entries
        .iter()
        .filter(|e| e.dropped > 0)
        .map(|e| {
            format!(
                "position {} ({}) ring dropped {} events (payloads lost, counts exact)",
                e.index, e.name, e.dropped
            )
        })
        .collect();
    let positions = entries.iter().map(|e| {
        json_obj! {
            "index": e.index,
            "name": &e.name,
            "seed": e.seed,
            "counts": kind_counts_tree(&e.counts),
            "dropped": e.dropped,
        }
    });
    json_obj! {
        "format_version": FORMAT_VERSION,
        "base_seed": base_seed,
        "positions": Json::arr(positions),
        "totals": kind_counts_tree(&totals),
        "total_dropped": total_dropped,
        "warnings": warnings,
    }
    .render_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::SweepSpec;

    fn sample_results() -> Vec<SweepResult> {
        let spec = SweepSpec::smoke();
        let mut scenarios = spec.scenarios();
        scenarios.truncate(2);
        scenarios
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let outcome = s.run(i as u64 + 1);
                SweepResult {
                    scenario: s,
                    seed: i as u64 + 1,
                    outcome,
                }
            })
            .collect()
    }

    /// `Json::parse(render(t)) == t`, and rendering the parse gives the
    /// same bytes back, compact and as a report.
    fn assert_round_trips(t: &Json) {
        for text in [t.render(), t.render_report()] {
            let back = Json::parse(&text).unwrap();
            assert_eq!(&back, t, "{text}");
        }
        assert_eq!(
            Json::parse(&t.render_report()).unwrap().render_report(),
            t.render_report()
        );
    }

    #[test]
    fn report_is_valid_enough_json_and_deterministic() {
        let results = sample_results();
        let a = sweep_json(7, &results);
        assert_eq!(a, sweep_json(7, &results));
        let doc = Json::parse(&a).unwrap();
        assert_eq!(doc.get("base_seed").unwrap().as_u64(), Some(7));
        assert!(a.contains("\"base_seed\": 7"));
        assert!(a.contains("\"per_channel\""));
        assert!(a.contains("\"geometry\""));
        // The latency histograms and per-core attribution ride in every
        // metrics object, integer-rendered.
        assert!(a.contains("\"latency\":{\"read\":{\"count\":"));
        assert!(a.contains("\"p999_ps\":"));
        assert!(a.contains("\"per_core\":[{\"core\":0,"));
        assert!(a.contains("\"trigger_share\":"));
    }

    #[test]
    fn sweep_and_campaign_trees_round_trip() {
        let results = sample_results();
        assert_round_trips(&Json::arr(results.iter().map(result_tree)));
        let sweep = sweep_json(7, &results);
        assert_eq!(Json::parse(&sweep).unwrap().render_report(), sweep);

        // A fault campaign with both anchors (no fault stats) and injected
        // runs, and a QoS campaign with off/on pairs.
        let injected: Vec<SweepResult> = results
            .iter()
            .cloned()
            .map(|mut r| {
                r.scenario.faults = Some(mithril_sim::FaultConfig::mixed(10_000));
                r.outcome.as_mut().unwrap().faults = Some(FaultStats {
                    bit_flips: 3,
                    repairs: 1,
                    ..FaultStats::default()
                });
                r
            })
            .collect();
        let faults = faults_tree(1, true, &[0, 10_000], &[results.clone(), injected]);
        let curves = faults.get("curves").unwrap().as_arr().unwrap();
        assert_eq!(curves.len(), results.len());
        assert_eq!(curves[0].get("points").unwrap().as_arr().unwrap().len(), 2);
        assert_round_trips(&faults);

        let mut on = results.clone();
        on.iter_mut().for_each(|r| r.scenario.name.push_str("+qos"));
        let qos = qos_campaign_tree(1, &results, &on);
        assert_eq!(qos.get("pairs").unwrap().as_arr().unwrap().len(), 2);
        assert_round_trips(&qos);
    }

    #[test]
    fn per_core_trigger_shares_sum_to_one() {
        let mut per_core: PerCore<CoreStats> = PerCore::new();
        per_core.slot(0).mitigation_triggers = 3;
        per_core.slot(1).mitigation_triggers = 1;
        let json = per_core_tree(&per_core).render();
        assert!(json.contains("\"trigger_share\":0.75"), "{json}");
        assert!(json.contains("\"trigger_share\":0.25"), "{json}");
        // No triggers at all: shares are 0, not NaN.
        let json = per_core_tree(&PerCore::new()).render();
        assert_eq!(json, "[]");
    }

    #[test]
    fn obs_counts_surface_drops_as_warnings() {
        let entry = |index: usize, dropped: u64| ObsCountEntry {
            index,
            name: format!("scenario-{index}"),
            seed: 1,
            counts: [0; KINDS],
            dropped,
        };
        let clean = obs_counts_json(1, &[entry(0, 0)]);
        assert!(clean.contains("\"warnings\": []"), "{clean}");
        let noisy = obs_counts_json(1, &[entry(0, 0), entry(1, 9)]);
        assert!(
            noisy.contains("\"warnings\": [\"position 1 (scenario-1) ring dropped 9 events"),
            "{noisy}"
        );
    }

    #[test]
    fn errors_serialize_without_metrics() {
        let mut results = sample_results();
        results[0].outcome = Err("no \"config\"".into());
        let s = sweep_json(1, &results);
        assert!(s.contains("\"error\":\"no \\\"config\\\"\""));
    }

    #[test]
    fn warnings_escape_control_characters() {
        let entry = ObsCountEntry {
            index: 0,
            name: "a\nb".into(),
            seed: 1,
            counts: [0; KINDS],
            dropped: 4,
        };
        let json = obs_counts_json(1, &[entry]);
        assert!(json.contains("\"name\":\"a\\nb\""), "{json}");
        assert!(
            json.contains("\"warnings\": [\"position 0 (a\\nb) ring dropped 4 events"),
            "{json}"
        );
        let doc = Json::parse(&json).unwrap();
        let warning = doc.get("warnings").unwrap().as_arr().unwrap()[0].as_str();
        assert!(warning.unwrap().contains("(a\nb)"));
    }

    #[test]
    fn escapes_control_characters() {
        let mut results = sample_results();
        results[0].outcome = Err("a\"b\\c\nd\u{1}".into());
        let s = sweep_json(1, &results);
        assert!(s.contains(r#""error":"a\"b\\c\nd\u0001""#), "{s}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut results = sample_results();
        results[0].outcome.as_mut().unwrap().aggregate_ipc = f64::NAN;
        let s = sweep_json(1, &results);
        assert!(s.contains("\"aggregate_ipc\":null"), "{s}");
    }
}
