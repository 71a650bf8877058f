//! The two single-`System` workloads: `benign-mithril-plus` (live
//! generators) and `noisy-neighbor-qos` (replay of a capture recorded
//! from the seed during set-up).

use std::sync::Arc;
use std::time::Instant;

use mithril_dram::Geometry;
use mithril_memctrl::AddressMapping;
use mithril_runner::scenarios::workload;
use mithril_sim::{Metrics, ObsConfig, QosConfig, QosPolicy, Scheme, System, SystemConfig};
use mithril_trace::{read_all, record_thread_set, MtrcWriter, ReplayEnd, TraceHeader, TraceReplay};
use mithril_workloads::{Thread, ThreadSet, TraceOp};

use crate::common::{derive_seed, measure, median, p99_ps, Model, Report, Unit};
use crate::layers::{new_ms_name, Layers};
use crate::probe::{
    controller_probe, elapsed_ns, llc_replay, ratio, wrap_threads, Agg, CtrlScheme, OpLog, Spans,
};

/// Set-up repetitions per run; their median is `setup_s`.
pub const SETUP_REPS: usize = 21;
/// Simulated-time cap per requested instruction (the runner's scenario
/// cap), so a throttled thread cannot stretch a run indefinitely.
const MAX_TIME_PS_PER_INST: u64 = 4_000;

/// A workload that runs one `System` per timed unit.
pub trait SysBench {
    /// Inputs generated from the seed during set-up.
    type Inputs;
    /// The system configuration (scheme seed included).
    fn config(&self) -> SystemConfig;
    /// Catalog label of the configured scheme.
    fn scheme_label(&self) -> &'static str;
    /// Instructions per core of one run.
    fn insts(&self) -> u64;
    /// Generates the inputs from the seed.
    fn inputs(&self) -> Result<Self::Inputs, String>;
    /// Fresh threads over the inputs, positioned at their first op.
    fn threads(&self, inputs: &Self::Inputs) -> ThreadSet;
    /// Checks on the inputs themselves: `(checks, failures)`.
    fn input_checks(&self, _inputs: &Self::Inputs) -> (u64, Vec<String>) {
        (0, Vec::new())
    }
    /// Trace-layer measurements taken while generating the inputs.
    fn trace_layer(&self, _inputs: &Self::Inputs, _layers: &mut Layers) {}
    /// How the standalone controller probe is built.
    fn ctrl_scheme(&self) -> CtrlScheme;
}

fn max_time(insts: u64) -> u64 {
    insts.saturating_mul(MAX_TIME_PS_PER_INST)
}

/// The simulated outputs of one run.
pub fn model_of(m: &Metrics) -> Model {
    Model {
        ipc: m.aggregate_ipc,
        read_p99_ns: p99_ps(&m.read_latency) / 1000.0,
        energy_pj_per_inst: ratio(m.energy_pj, m.total_insts as f64),
        max_disturbance: m.max_disturbance as f64,
    }
}

/// Output checks of a run under a deterministic scheme: no bit flips and
/// the oracle's worst disturbance below FlipTH.
pub fn check_protected(m: &Metrics, flip_th: u64, label: &str) -> Vec<String> {
    let mut failures = Vec::new();
    if m.flips > 0 {
        failures.push(format!("{label}: {} bit flip(s)", m.flips));
    }
    if m.max_disturbance >= flip_th {
        failures.push(format!(
            "{label}: max disturbance {} reached FlipTH {flip_th}",
            m.max_disturbance
        ));
    }
    failures
}

fn run_unit<B: SysBench>(b: &B, threads: ThreadSet) -> Unit {
    let cfg = b.config();
    match run_once(b, threads) {
        Err(e) => Unit {
            ops: 1,
            failures: vec![e],
            ..Default::default()
        },
        Ok(m) => Unit {
            acts: m.counters.acts,
            ops: 1,
            failures: check_protected(&m, cfg.flip_th, b.scheme_label()),
            model: model_of(&m),
        },
    }
}

fn setup<B: SysBench>(b: &B) -> Result<B::Inputs, String> {
    let inputs = b.inputs()?;
    // Set-up ends where the first simulated ACT would issue: inputs
    // generated and the system assembled.
    System::new(b.config(), b.threads(&inputs))?;
    Ok(inputs)
}

/// The end-to-end run.
pub fn end_to_end<B: SysBench>(b: &B, seconds: f64) -> Result<Report, String> {
    let (mut m, inputs) = measure(
        seconds,
        SETUP_REPS,
        2,
        || setup(b),
        |p| run_unit(b, b.threads(p)),
    )?;
    let (checks, failures) = b.input_checks(&inputs);
    m.attempted += checks;
    m.failures.extend(failures);
    Ok(m.end_to_end())
}

/// The traced run: untraced units for `seconds` (the overhead baseline),
/// then one traced unit, one observed unit and the layer replays.
pub fn traced<B: SysBench>(b: &B, seconds: f64, spans: &Spans) -> Result<Report, String> {
    let cfg = b.config();
    let (m, inputs) = spans.scope("untraced", None, || {
        measure(
            seconds,
            SETUP_REPS,
            3,
            || spans.scope("setup", None, || setup(b)),
            |p| run_unit(b, b.threads(p)),
        )
    })?;
    let (checks, mut failures) = b.input_checks(&inputs);
    let mut attempted = m.attempted + checks;
    failures.extend(m.failures.iter().cloned());
    let baseline_s = median(&m.unit_secs);
    let mut layers = Layers::default();
    b.trace_layer(&inputs, &mut layers);

    // One traced unit: every thread's `next_op` timed and logged.
    let next_op = Arc::new(Agg::default());
    let log = OpLog::default();
    let run_span = spans.open("run", None);
    let t = Instant::now();
    let threads = wrap_threads(b.threads(&inputs), &next_op, Some(&log));
    let t_new = Instant::now();
    let mut sys = System::new(cfg, threads)?;
    layers.set(
        &new_ms_name(b.scheme_label()),
        elapsed_ns(t_new) as f64 / 1e6,
    );
    let traced_metrics = sys.run(b.insts(), max_time(b.insts()));
    let traced_s = t.elapsed().as_secs_f64();
    spans.close(run_span);
    drop(sys);
    attempted += 1;
    if !model_of(&traced_metrics).same_as(&m.model) {
        failures.push("traced run diverged from the untraced run".into());
    }
    layers.set("workloads.next_op_ns", next_op.ns_per_call());
    layers.set("workloads.ops", next_op.calls() as f64);
    layers.set("workloads.share", next_op.ns() as f64 / 1e9 / traced_s);
    layers.set("bench.trace_overhead_frac", traced_s / baseline_s - 1.0);
    if let Some(q) = &traced_metrics.qos {
        layers.set("qos.windows", q.windows as f64);
        let elections: u64 = q.per_thread.iter().map(|t| t.suspect_windows).sum();
        layers.set("qos.suspect_elections", elections as f64);
        layers.set("qos.throttled_acts", q.throttled_acts as f64);
    }
    let acts = traced_metrics.counters.acts as f64;
    let rfm_windows = (traced_metrics.rfms + traced_metrics.rfm_elisions) as f64;
    layers.set(
        "mitigation.rfms_per_kact",
        ratio(rfm_windows * 1000.0, acts),
    );
    layers.set(
        "mitigation.elided_frac",
        ratio(traced_metrics.rfm_elisions as f64, rfm_windows),
    );

    // One observed unit: the controllers' candidate-cache counters.
    let obs_span = spans.open("run.obs", None);
    let t = Instant::now();
    // A fine sampling grid, so the last row lands close to the run's end.
    let obs = ObsConfig {
        ring_capacity: 1024,
        interval_cycles: 10_000,
        ..ObsConfig::default()
    };
    let mut sys = System::with_obs(cfg, b.threads(&inputs), obs)?;
    let obs_metrics = sys.run(b.insts(), max_time(b.insts()));
    let obs_s = t.elapsed().as_secs_f64();
    spans.close(obs_span);
    attempted += 1;
    if !model_of(&obs_metrics).same_as(&m.model) {
        failures.push("observed run diverged from the untraced run".into());
    }
    let (mut recomputes, mut hits, mut sampled_acts) = (0u64, 0u64, 0u64);
    for ch in sys.take_obs().channels {
        if let Some(row) = ch.rows.last() {
            recomputes += row.cand_invalidations;
            hits += row.cand_hits;
            sampled_acts += row.acts;
        }
    }
    drop(sys);
    layers.set(
        "controller.lane_recomputes_per_act",
        ratio(recomputes as f64, sampled_acts as f64),
    );
    layers.set(
        "controller.cand_hits_per_act",
        ratio(hits as f64, sampled_acts as f64),
    );
    layers.set("obs.overhead_frac", obs_s / baseline_s - 1.0);

    // The logged op stream through the LLC, the mapping and a
    // standalone controller.
    let ops = std::mem::take(&mut *log.lock().expect("op log poisoned"));
    let llc = spans.scope("replay.llc", None, || {
        llc_replay(&ops, cfg.llc, AddressMapping::new(cfg.geometry))
    });
    drop(ops);
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
    let scheme = b.ctrl_scheme();
    let plain = spans.scope("replay.controller", None, || {
        controller_probe(cfg.geometry, cfg.flip_th, scheme, cfg.qos, &llc.reqs, false)
    })?;
    layers.set(
        "controller.ns_per_cmd",
        ratio(plain.ns as f64, plain.cmds as f64),
    );
    layers.set(
        "controller.cmds_per_act",
        ratio(plain.cmds as f64, plain.acts as f64),
    );
    let timed = spans.scope("replay.mitigation", None, || {
        controller_probe(cfg.geometry, cfg.flip_th, scheme, cfg.qos, &llc.reqs, true)
    })?;
    layers.set(
        "mitigation.on_activate_ns",
        timed.mitigation.on_activate.ns_per_call(),
    );
    layers.set(
        "mitigation.on_rfm_ns",
        timed.mitigation.on_rfm.ns_per_call(),
    );
    Ok(layers.into_report(attempted, failures))
}

/// The Table III hierarchy with four cores, as both system workloads run.
fn four_core_config(seed: u64, scheme: Scheme) -> SystemConfig {
    let mut cfg = SystemConfig::table_iii();
    cfg.cores = 4;
    cfg.geometry = Geometry::table_iii_system();
    cfg.flip_th = 6_250;
    cfg.scheme = scheme;
    cfg.seed = derive_seed(seed, 1);
    cfg
}

/// RFM threshold of both Mithril workloads.
const RFM_TH: u64 = 64;
/// Adaptive-refresh threshold of both Mithril workloads.
const AD_TH: u64 = 200;

/// `benign-mithril-plus`: mix-high on Mithril+ with live generators.
#[derive(Debug, Clone, Copy)]
pub struct Benign {
    /// Workload seed.
    pub seed: u64,
    /// Instructions per core of one run.
    pub insts: u64,
}

impl SysBench for Benign {
    type Inputs = ();

    fn config(&self) -> SystemConfig {
        four_core_config(
            self.seed,
            Scheme::Mithril {
                rfm_th: RFM_TH,
                ad_th: Some(AD_TH),
                plus: true,
            },
        )
    }

    fn scheme_label(&self) -> &'static str {
        "mithril+"
    }

    fn insts(&self) -> u64 {
        self.insts
    }

    fn inputs(&self) -> Result<(), String> {
        Ok(())
    }

    fn threads(&self, _: &()) -> ThreadSet {
        workload("mix-high", 4, &self.config(), derive_seed(self.seed, 0))
    }

    fn ctrl_scheme(&self) -> CtrlScheme {
        CtrlScheme::Mithril {
            rfm_th: RFM_TH,
            ad_th: Some(AD_TH),
            plus: true,
        }
    }
}

/// `noisy-neighbor-qos`: three victims and one hammer under Mithril with
/// QoS throttling, replayed from a capture recorded from the seed.
#[derive(Debug, Clone, Copy)]
pub struct Noisy {
    /// Workload seed.
    pub seed: u64,
    /// Instructions per core of one run.
    pub insts: u64,
}

/// The decoded capture plus what recording and decoding it cost.
#[derive(Debug)]
pub struct Capture {
    /// The capture's header as decoded.
    pub header: TraceHeader,
    /// Per-core op streams.
    pub per_core: Vec<Arc<[TraceOp]>>,
    /// Encoded size.
    pub bytes: usize,
    /// Host nanoseconds spent generating and encoding.
    pub record_ns: u64,
    /// Host nanoseconds spent decoding.
    pub decode_ns: u64,
}

impl Noisy {
    /// The header the capture must carry for this scenario.
    pub fn expected_header(&self) -> TraceHeader {
        let cfg = self.config();
        TraceHeader {
            geometry: cfg.geometry,
            cores: cfg.cores,
            base_seed: self.seed,
            insts_per_core: self.insts,
            source: "noisy-neighbor".into(),
        }
    }

    /// The live generators the capture records.
    pub fn live_threads(&self) -> ThreadSet {
        workload(
            "noisy-neighbor",
            4,
            &self.config(),
            derive_seed(self.seed, 0),
        )
    }
}

impl SysBench for Noisy {
    type Inputs = Capture;

    fn config(&self) -> SystemConfig {
        let mut cfg = four_core_config(
            self.seed,
            Scheme::Mithril {
                rfm_th: RFM_TH,
                ad_th: Some(AD_TH),
                plus: false,
            },
        );
        cfg.qos = QosPolicy::Throttle(QosConfig::default());
        cfg
    }

    fn scheme_label(&self) -> &'static str {
        "mithril"
    }

    fn insts(&self) -> u64 {
        self.insts
    }

    fn inputs(&self) -> Result<Capture, String> {
        let io = |e: mithril_trace::TraceError| e.to_string();
        let t = Instant::now();
        let mut live = self.live_threads();
        let mut w = MtrcWriter::new(Vec::new(), &self.expected_header()).map_err(io)?;
        record_thread_set(&mut live, self.insts, &mut w).map_err(io)?;
        let bytes = w.finish().map_err(io)?;
        let record_ns = elapsed_ns(t);
        let t = Instant::now();
        let (header, per_core) = read_all(&bytes[..]).map_err(io)?;
        let per_core: Vec<Arc<[TraceOp]>> = per_core.into_iter().map(Arc::from).collect();
        let decode_ns = elapsed_ns(t);
        if per_core.iter().any(|c| c.is_empty()) {
            return Err("capture has a core without ops".into());
        }
        Ok(Capture {
            header,
            per_core,
            bytes: bytes.len(),
            record_ns,
            decode_ns,
        })
    }

    fn threads(&self, c: &Capture) -> ThreadSet {
        let threads = c
            .per_core
            .iter()
            .enumerate()
            .map(|(core, ops)| {
                let name = format!("replay:noisy-neighbor/{core}");
                let replay =
                    TraceReplay::from_shared(name.clone(), Arc::clone(ops), ReplayEnd::Loop);
                Thread::new(name, Box::new(replay))
            })
            .collect();
        ThreadSet {
            name: "trace:noisy-neighbor".into(),
            threads,
        }
    }

    fn input_checks(&self, c: &Capture) -> (u64, Vec<String>) {
        let want = self.expected_header();
        let failures = if c.header == want && c.per_core.len() == want.cores {
            Vec::new()
        } else {
            vec![format!(
                "capture header {:?} disagrees with the scenario {want:?}",
                c.header
            )]
        };
        (1, failures)
    }

    fn trace_layer(&self, c: &Capture, layers: &mut Layers) {
        let ops: usize = c.per_core.iter().map(|ops| ops.len()).sum();
        let ops = ops as f64;
        layers.set("trace.record_ns_per_op", ratio(c.record_ns as f64, ops));
        layers.set("trace.decode_ns_per_op", ratio(c.decode_ns as f64, ops));
        layers.set("trace.bytes_per_op", ratio(c.bytes as f64, ops));
    }

    fn ctrl_scheme(&self) -> CtrlScheme {
        CtrlScheme::Mithril {
            rfm_th: RFM_TH,
            ad_th: Some(AD_TH),
            plus: false,
        }
    }
}

/// Runs `threads` once under `b`'s configuration.
pub fn run_once<B: SysBench>(b: &B, threads: ThreadSet) -> Result<Metrics, String> {
    let mut sys = System::new(b.config(), threads)?;
    Ok(sys.run(b.insts(), max_time(b.insts())))
}
