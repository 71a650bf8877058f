//! `sweep-catalog`: `run_sweep` over every catalog scheme on a
//! cache-resident mix and a multi-sided attack — how the paper's figures
//! are produced, and the only workload that drives `runner::engine`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

use mithril_dram::Geometry;
use mithril_memctrl::{AddressMapping, QosPolicy};
use mithril_runner::engine::{position_seed, run_sharded_robust, PoolConfig, DEFAULT_RETRIES};
use mithril_runner::report::{sweep_json, SweepResult};
use mithril_runner::scenarios::{all_schemes, workload, SweepSpec};
use mithril_runner::{run_sweep, run_sweep_observed};
use mithril_sim::{LatencyHistogram, Metrics, ObsConfig, System};

use crate::common::{derive_seed, geomean, measure, median, p99_ps, Model, Report, Unit};
use crate::layers::{new_ms_name, Layers};
use crate::probe::{
    controller_probe, elapsed_ns, llc_replay, ratio, wrap_threads, Agg, CtrlScheme, LlcProbe,
    OpLog, Spans,
};
use crate::system::{check_protected, SETUP_REPS};

/// Worker threads of the shard pool (the two cores the benchmark was
/// sized on; fixed so results are comparable across hosts).
pub const THREADS: usize = 2;
/// FlipTH of every scenario.
const FLIP_TH: u64 = 3_125;
/// Schemes whose protection is deterministic: any flip is a failure.
const DETERMINISTIC: [&str; 6] = [
    "mithril",
    "mithril+",
    "graphene",
    "twice",
    "cbt",
    "blockhammer",
];
/// Simulated-time cap per instruction, as `Scenario::run` applies it.
const MAX_TIME_PS_PER_INST: u64 = 4_000;

/// The workload's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// Workload seed.
    pub seed: u64,
    /// Instructions per core of every scenario.
    pub insts: u64,
}

impl Sweep {
    /// The sweep specification.
    pub fn spec(&self) -> SweepSpec {
        SweepSpec {
            geometries: vec![Geometry::table_iii_system()],
            schemes: all_schemes(64, 6)
                .into_iter()
                .map(|(label, s)| (label.to_string(), s))
                .collect(),
            workloads: vec!["mix-blend".into(), "attack-multi".into()],
            flip_th: FLIP_TH,
            cores: 4,
            insts_per_core: self.insts,
        }
    }

    fn base_seed(&self) -> u64 {
        derive_seed(self.seed, 0)
    }

    fn pool() -> PoolConfig {
        PoolConfig {
            threads: THREADS,
            shard_size: 1,
        }
    }
}

/// Set-up: expand the spec and assemble every scenario's system, as the
/// sweep's first items will.
fn setup(s: &Sweep) -> Result<(), String> {
    for (i, sc) in s.spec().scenarios().iter().enumerate() {
        let seed = position_seed(s.base_seed(), 1, i);
        let cfg = sc.system_config(seed);
        System::new(cfg, workload(&sc.workload, sc.cores, &cfg, seed))?;
    }
    Ok(())
}

/// Output checks and model outputs of one sweep.
fn summarize(results: &[SweepResult]) -> Unit {
    let mut unit = Unit {
        ops: results.len() as u64,
        ..Default::default()
    };
    let (mut ipcs, mut energy, mut insts, mut max_dist) = (Vec::new(), 0.0, 0u64, 0u64);
    let mut reads = LatencyHistogram::new();
    for r in results {
        let m = match &r.outcome {
            Ok(m) => m,
            Err(e) => {
                unit.failures.push(format!("{}: {e}", r.scenario.name));
                continue;
            }
        };
        let label = r.scenario.scheme_label.as_str();
        if DETERMINISTIC.contains(&label) {
            unit.failures
                .extend(check_protected(m, r.scenario.flip_th, &r.scenario.name));
        }
        if label != "none" {
            max_dist = max_dist.max(m.max_disturbance);
        }
        unit.acts += m.counters.acts;
        ipcs.push(m.aggregate_ipc);
        energy += m.energy_pj;
        insts += m.total_insts;
        reads.merge(&m.read_latency);
    }
    unit.model = Model {
        ipc: geomean(&ipcs),
        read_p99_ns: p99_ps(&reads) / 1000.0,
        energy_pj_per_inst: ratio(energy, insts as f64),
        max_disturbance: max_dist as f64,
    };
    unit
}

fn unit(s: &Sweep) -> Unit {
    summarize(&run_sweep(&s.spec(), Sweep::pool(), s.base_seed()))
}

/// The end-to-end run.
pub fn end_to_end(s: &Sweep, seconds: f64) -> Result<Report, String> {
    let (m, ()) = measure(seconds, SETUP_REPS, 2, || setup(s), |_| unit(s))?;
    Ok(m.end_to_end())
}

/// One sweep item as the traced pool ran it.
struct Item {
    /// The pool worker that ran the item (`None`: it panicked).
    worker: Option<ThreadId>,
    start_s: f64,
    end_s: f64,
    new_ns: u64,
    outcome: Result<Metrics, String>,
    ops: Option<OpLog>,
}

/// The traced run: untraced sweeps for `seconds`, then one sweep on the
/// same pool with every item timed and its threads wrapped, one observed
/// sweep, and the layer replays.
pub fn traced(s: &Sweep, seconds: f64, spans: &Spans) -> Result<Report, String> {
    let (m, ()) = spans.scope("untraced", None, || {
        measure(
            seconds,
            SETUP_REPS,
            3,
            || spans.scope("setup", None, || setup(s)),
            |_| unit(s),
        )
    })?;
    let baseline_s = median(&m.unit_secs);
    let mut attempted = m.attempted;
    let mut failures = m.failures.clone();
    let mut layers = Layers::default();

    let scenarios = s.spec().scenarios();
    let next_op = Arc::new(Agg::default());
    let sweep_span = spans.open("sweep", None);
    let t0 = Instant::now();
    let outcomes = run_sharded_robust(
        &scenarios,
        Sweep::pool(),
        s.base_seed(),
        DEFAULT_RETRIES,
        |sc, seed| {
            let span = spans.open(format!("item {}", sc.name), Some(sweep_span));
            let start_s = t0.elapsed().as_secs_f64();
            let cfg = sc.system_config(seed);
            // The unprotected items' streams feed the layer replays; the
            // op streams do not depend on the scheme.
            let log = (sc.scheme_label == "none").then(OpLog::default);
            let threads = wrap_threads(
                workload(&sc.workload, sc.cores, &cfg, seed),
                &next_op,
                log.as_ref(),
            );
            let t_new = Instant::now();
            let sys = System::new(cfg, threads);
            let new_ns = elapsed_ns(t_new);
            let insts = sc.insts_per_core;
            let outcome = sys.map(|mut sys| sys.run(insts, insts * MAX_TIME_PS_PER_INST));
            spans.close(span);
            Item {
                worker: Some(std::thread::current().id()),
                start_s,
                end_s: t0.elapsed().as_secs_f64(),
                new_ns,
                outcome,
                ops: log,
            }
        },
    );
    let wall_s = t0.elapsed().as_secs_f64();
    spans.close(sweep_span);

    // A panicked item becomes an `Err` outcome in its registry position.
    let items: Vec<Item> = outcomes
        .into_iter()
        .map(|o| {
            o.into_result().unwrap_or_else(|e| Item {
                worker: None,
                start_s: 0.0,
                end_s: 0.0,
                new_ns: 0,
                outcome: Err(e),
                ops: None,
            })
        })
        .collect();
    let busy_s: f64 = items.iter().map(|it| it.end_s - it.start_s).sum();
    layers.set("engine.pool_efficiency", busy_s / (THREADS as f64 * wall_s));
    let mut worker_end: BTreeMap<String, f64> = BTreeMap::new();
    for it in &items {
        if let Some(worker) = it.worker {
            let e = worker_end.entry(format!("{worker:?}")).or_insert(0.0);
            *e = e.max(it.end_s);
        }
    }
    // The straggler tail: from the first worker going idle to the last
    // item finishing (a worker that never ran an item idled from 0).
    let ends: Vec<f64> = worker_end.values().copied().collect();
    let first_idle = if ends.len() < THREADS {
        0.0
    } else {
        ends.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let last_end = ends.iter().copied().fold(0.0, f64::max);
    layers.set("engine.straggler_s", last_end - first_idle);
    layers.set("workloads.next_op_ns", next_op.ns_per_call());
    layers.set("workloads.ops", next_op.calls() as f64);
    layers.set("workloads.share", next_op.ns() as f64 / 1e9 / busy_s);
    layers.set("bench.trace_overhead_frac", wall_s / baseline_s - 1.0);
    let mut new_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (sc, it) in scenarios.iter().zip(&items) {
        new_ms
            .entry(sc.scheme_label.as_str())
            .or_default()
            .push(it.new_ns as f64 / 1e6);
    }
    for (label, v) in &new_ms {
        layers.set(&new_ms_name(label), v.iter().sum::<f64>() / v.len() as f64);
    }

    let mut logs = Vec::new();
    let results: Vec<SweepResult> = scenarios
        .iter()
        .zip(items)
        .enumerate()
        .map(|(i, (sc, it))| {
            logs.extend(it.ops);
            SweepResult {
                scenario: sc.clone(),
                seed: position_seed(s.base_seed(), 1, i),
                outcome: it.outcome,
            }
        })
        .collect();
    let traced_unit = summarize(&results);
    attempted += traced_unit.ops + 1;
    failures.extend(traced_unit.failures);
    if !traced_unit.model.same_as(&m.model) {
        failures.push("traced sweep diverged from the untraced sweep".into());
    }
    let t = Instant::now();
    let rendered = sweep_json(s.base_seed(), &results);
    layers.set("report.render_ms", elapsed_ns(t) as f64 / 1e6);
    std::hint::black_box(rendered);
    let (mut rfm_windows, mut elided, mut rfm_acts) = (0u64, 0u64, 0u64);
    for r in &results {
        if let (Ok(m), "mithril" | "mithril+" | "parfm") =
            (&r.outcome, r.scenario.scheme_label.as_str())
        {
            rfm_windows += m.rfms + m.rfm_elisions;
            elided += m.rfm_elisions;
            rfm_acts += m.counters.acts;
        }
    }
    layers.set(
        "mitigation.rfms_per_kact",
        ratio(rfm_windows as f64 * 1000.0, rfm_acts as f64),
    );
    layers.set(
        "mitigation.elided_frac",
        ratio(elided as f64, rfm_windows as f64),
    );

    // One observed sweep: candidate-cache counters over every item.
    let obs = ObsConfig {
        ring_capacity: 1024,
        ..ObsConfig::default()
    };
    let t = Instant::now();
    let observed = spans.scope("sweep.obs", None, || {
        run_sweep_observed(&s.spec(), Sweep::pool(), s.base_seed(), obs, None)
    });
    layers.set(
        "obs.overhead_frac",
        t.elapsed().as_secs_f64() / baseline_s - 1.0,
    );
    let (mut recomputes, mut hits, mut sampled_acts) = (0u64, 0u64, 0u64);
    for capture in observed.iter().filter_map(|(_, c)| c.as_ref()) {
        for ch in &capture.channels {
            if let Some(row) = ch.rows.last() {
                recomputes += row.cand_invalidations;
                hits += row.cand_hits;
                sampled_acts += row.acts;
            }
        }
    }
    let observed_results: Vec<SweepResult> = observed.into_iter().map(|(r, _)| r).collect();
    attempted += 1;
    if !summarize(&observed_results).model.same_as(&m.model) {
        failures.push("observed sweep diverged from the untraced sweep".into());
    }
    layers.set(
        "controller.lane_recomputes_per_act",
        ratio(recomputes as f64, sampled_acts as f64),
    );
    layers.set(
        "controller.cand_hits_per_act",
        ratio(hits as f64, sampled_acts as f64),
    );

    // The unprotected items' op streams through the LLC and mapping, and
    // their misses through standalone BlockHammer (the straggler scheme)
    // and Mithril controllers.
    let cfg = s.spec().scenarios()[0].system_config(0);
    let mut llc = LlcProbe::default();
    spans.scope("replay.llc", None, || {
        for log in &logs {
            let ops = log.lock().expect("op log poisoned");
            llc.merge(llc_replay(&ops, cfg.llc, AddressMapping::new(cfg.geometry)));
        }
    });
    drop(logs);
    layers.set(
        "llc.access_ns",
        ratio(llc.access_ns as f64, llc.accesses as f64),
    );
    layers.set(
        "llc.miss_rate",
        ratio(llc.misses as f64, llc.accesses as f64),
    );
    layers.set(
        "mapping.map_line_ns",
        ratio(llc.map_ns as f64, llc.maps as f64),
    );
    let bh = spans.scope("replay.controller", None, || {
        controller_probe(
            cfg.geometry,
            FLIP_TH,
            CtrlScheme::BlockHammer { nbl_scale: 6 },
            QosPolicy::Off,
            &llc.reqs,
            false,
        )
    })?;
    layers.set("controller.ns_per_cmd", ratio(bh.ns as f64, bh.cmds as f64));
    layers.set(
        "controller.cmds_per_act",
        ratio(bh.cmds as f64, bh.acts as f64),
    );
    let mithril = spans.scope("replay.mitigation", None, || {
        controller_probe(
            cfg.geometry,
            FLIP_TH,
            CtrlScheme::Mithril {
                rfm_th: 64,
                ad_th: Some(200),
                plus: false,
            },
            QosPolicy::Off,
            &llc.reqs,
            true,
        )
    })?;
    layers.set(
        "mitigation.on_activate_ns",
        mithril.mitigation.on_activate.ns_per_call(),
    );
    layers.set(
        "mitigation.on_rfm_ns",
        mithril.mitigation.on_rfm.ns_per_call(),
    );
    Ok(layers.into_report(attempted, failures))
}
