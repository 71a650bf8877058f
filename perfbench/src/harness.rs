//! `harness-adversarial`: per-bank `AttackHarness` runs of `MithrilScheme`
//! over the paper's `(FlipTH, RFMTH)` sweep, with and without MRR
//! elision, each covering full tREFW windows of seeded attack patterns —
//! the inner loop of a counterexample search.
//!
//! The harness has no cores, caches or reads, so three end-to-end metrics
//! take documented analogs here: `model_ipc` is ACTs per row cycle (tRC)
//! of simulated time, `model_read_p99_ns` the p99 gap between issued
//! RFMs, and `model_energy_pj_per_inst` the dynamic energy per ACT.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use mithril::{MithrilConfig, MithrilScheme};
use mithril_dram::{AttackHarness, Ddr5Timing, DramMitigation, EnergyModel, RowId};
use mithril_obs::{EventSink, RingSink};
use mithril_runner::engine::splitmix64;
use mithril_runner::scenarios::MITHRIL_SWEEP;
use mithril_sim::LatencyHistogram;

use crate::common::{derive_seed, measure, median, p99_ps, Model, Report, Unit};
use crate::layers::Layers;
use crate::probe::{elapsed_ns, ratio, Agg, MitigationAggs, Spans, TimedMitigation};
use crate::system::SETUP_REPS;

/// Rows of the harness bank.
const ROWS: u64 = AttackHarness::<mithril_obs::NullSink>::DEFAULT_ROWS;
/// Adaptive-refresh threshold of the elision cases (as Mithril+ runs).
const AD_TH: u64 = 200;
/// Pattern names, in case order.
const PATTERNS: [&str; 4] = [
    "double-sided",
    "multi-sided-32",
    "table-thrash",
    "decoy-sweep",
];

/// The workload's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    /// Workload seed.
    pub seed: u64,
    /// How many `(FlipTH, RFMTH)` pairs of the sweep to cover (8 = all).
    pub pairs: usize,
}

/// One harness window: a configuration and the row pattern it hammers.
#[derive(Debug, Clone)]
pub struct Case {
    flip_th: u64,
    rfm_th: u64,
    elision: bool,
    config: MithrilConfig,
    pattern: &'static str,
    rows: Vec<RowId>,
}

/// A counter-based splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0) % n
    }
}

/// First row of the band every pattern draws its rows from.
const BAND_LO: u64 = ROWS / 2;
/// Rows in the band: 1/16 of the bank, so 1/16 of a tREFW of auto-refresh
/// phase. Auto-refresh walks rows in index order once per window, so a
/// victim's row index, not the attack, would otherwise decide how long it
/// accumulates before its first refresh; the band keeps that phase the
/// same for every seed while the rows themselves stay seeded.
const BAND: u64 = 4_096;

/// The row sequence of `pattern`, cycled for a whole window.
fn pattern_rows(pattern: &str, nentry: usize, rng: &mut Rng) -> Vec<RowId> {
    let mut row = |span: u64| BAND_LO + 1 + rng.below(BAND - span - 2);
    match pattern {
        "double-sided" => {
            let v = row(2);
            vec![v - 1, v + 1]
        }
        "multi-sided-32" => {
            let base = row(64);
            (0..32).map(|k| base + 2 * k).collect()
        }
        "table-thrash" => {
            // A quarter more distinct rows than the table has entries.
            // The count is fixed so every seed spreads the window's ACTs
            // as thinly; only which rows are hit is seeded.
            let n = nentry as u64 * 5 / 4 + 1;
            assert!(n <= BAND / 2, "Nentry {nentry} too large for the row band");
            let mut seen = HashSet::new();
            let mut rows = Vec::with_capacity(n as usize);
            while (rows.len() as u64) < n {
                let r = BAND_LO + rng.below(BAND);
                if seen.insert(r) {
                    rows.push(r);
                }
            }
            rows
        }
        "decoy-sweep" => {
            // A double-sided pair interleaved with a sweep of decoys.
            let v = row(2);
            let decoys: Vec<RowId> = (0..1_024).map(|_| BAND_LO + rng.below(BAND)).collect();
            decoys
                .chunks(2)
                .flat_map(|d| [v - 1, d[0], v + 1, d[1]])
                .collect()
        }
        other => unreachable!("unknown pattern {other}"),
    }
}

impl Harness {
    /// Solves every configuration and generates every pattern from the
    /// seed.
    pub fn cases(&self) -> Result<Vec<Case>, String> {
        let timing = Ddr5Timing::ddr5_4800();
        let mut rng = Rng(derive_seed(self.seed, 2));
        let mut cases = Vec::new();
        for &(flip_th, rfm_th) in MITHRIL_SWEEP.iter().take(self.pairs) {
            for elision in [false, true] {
                let config =
                    MithrilConfig::solve(flip_th, rfm_th, 1, elision.then_some(AD_TH), &timing)
                        .map_err(|e| format!("FlipTH {flip_th} RFMTH {rfm_th}: {e}"))?
                        .with_rows_per_bank(ROWS);
                for pattern in PATTERNS {
                    cases.push(Case {
                        flip_th,
                        rfm_th,
                        elision,
                        config,
                        rows: pattern_rows(pattern, config.nentry, &mut rng),
                        pattern,
                    });
                }
            }
        }
        Ok(cases)
    }
}

fn harness_for<S: EventSink>(
    c: &Case,
    engine: Box<dyn DramMitigation>,
    obs: S,
) -> AttackHarness<S> {
    let mut h = AttackHarness::with_obs(
        Ddr5Timing::ddr5_4800(),
        engine,
        c.rfm_th,
        c.flip_th,
        ROWS,
        1,
        obs,
    );
    h.set_mrr_elision(c.elision);
    h
}

/// What one window produced.
#[derive(Debug, Default)]
struct Window {
    acts: u64,
    sim_ps: u64,
    energy_pj: f64,
    max_disturbance: u64,
    rfms: u64,
    elided: u64,
}

/// Hammers `c.rows` until the window is full, recording the gap between
/// issued RFMs into `gaps` and, when given, timing every `try_activate`.
fn run_window<S: EventSink>(
    h: &mut AttackHarness<S>,
    c: &Case,
    gaps: &mut LatencyHistogram,
    timer: Option<&Agg>,
    failures: &mut Vec<String>,
) -> Window {
    let (mut i, mut rfms, mut last_rfm_at) = (0, h.rfms_issued(), h.now());
    loop {
        let ok = match timer {
            Some(agg) => {
                let t = Instant::now();
                let ok = h.try_activate(c.rows[i]);
                agg.add(elapsed_ns(t));
                ok
            }
            None => h.try_activate(c.rows[i]),
        };
        if !ok {
            break;
        }
        i += 1;
        if i == c.rows.len() {
            i = 0;
        }
        if h.rfms_issued() != rfms {
            rfms = h.rfms_issued();
            gaps.record(h.now() - last_rfm_at);
            last_rfm_at = h.now();
        }
    }
    let oracle = h.oracle();
    let label = format!(
        "FlipTH {} RFMTH {}{} {}",
        c.flip_th,
        c.rfm_th,
        if c.elision { " +MRR" } else { "" },
        c.pattern
    );
    if !oracle.flips().is_empty() {
        failures.push(format!("{label}: {} bit flip(s)", oracle.flips().len()));
    }
    if oracle.max_disturbance() >= c.flip_th {
        failures.push(format!(
            "{label}: max disturbance {} reached FlipTH",
            oracle.max_disturbance()
        ));
    }
    Window {
        acts: h.counters().acts,
        sim_ps: h.now(),
        energy_pj: EnergyModel::ddr5_default().dynamic_energy_pj(h.counters()),
        max_disturbance: oracle.max_disturbance(),
        rfms: h.rfms_issued(),
        elided: h.rfms_elided(),
    }
}

/// Folds windows into a unit's ACT count, checks and model outputs.
fn fold(windows: &[Window], gaps: &LatencyHistogram, failures: Vec<String>) -> Unit {
    let acts: u64 = windows.iter().map(|w| w.acts).sum();
    let sim_ps: u64 = windows.iter().map(|w| w.sim_ps).sum();
    let energy: f64 = windows.iter().map(|w| w.energy_pj).sum();
    let trc = Ddr5Timing::ddr5_4800().trc;
    Unit {
        acts,
        ops: windows.len() as u64,
        failures,
        model: Model {
            ipc: ratio((acts * trc) as f64, sim_ps as f64),
            read_p99_ns: p99_ps(gaps) / 1000.0,
            energy_pj_per_inst: ratio(energy, acts as f64),
            max_disturbance: windows.iter().map(|w| w.max_disturbance).max().unwrap_or(0) as f64,
        },
    }
}

fn engine(c: &Case) -> Box<dyn DramMitigation> {
    Box::new(MithrilScheme::new(c.config))
}

fn unit(cases: &[Case]) -> Unit {
    let mut gaps = LatencyHistogram::new();
    let mut failures = Vec::new();
    let windows: Vec<Window> = cases
        .iter()
        .map(|c| {
            let mut h = harness_for(c, engine(c), mithril_obs::NullSink);
            run_window(&mut h, c, &mut gaps, None, &mut failures)
        })
        .collect();
    fold(&windows, &gaps, failures)
}

fn setup(hw: &Harness) -> Result<Vec<Case>, String> {
    let cases = hw.cases()?;
    // Set-up ends with every engine and harness assembled.
    for c in &cases {
        std::hint::black_box(harness_for(c, engine(c), mithril_obs::NullSink));
    }
    Ok(cases)
}

/// The end-to-end run.
pub fn end_to_end(hw: &Harness, seconds: f64) -> Result<Report, String> {
    let (m, _) = measure(seconds, SETUP_REPS, 2, || setup(hw), |cases| unit(cases))?;
    Ok(m.end_to_end())
}

/// The traced run: untraced units for `seconds`, then one unit with every
/// `try_activate` and engine call timed and one span per window, and one
/// unit with ring-sink observability.
pub fn traced(hw: &Harness, seconds: f64, spans: &Spans) -> Result<Report, String> {
    let (m, cases) = spans.scope("untraced", None, || {
        measure(
            seconds,
            SETUP_REPS,
            3,
            || spans.scope("setup", None, || setup(hw)),
            |cases| unit(cases),
        )
    })?;
    let baseline_s = median(&m.unit_secs);
    let mut attempted = m.attempted;
    let mut failures = m.failures.clone();
    let mut layers = Layers::default();

    let try_activate = Arc::new(Agg::default());
    let aggs = MitigationAggs::default();
    let mut gaps = LatencyHistogram::new();
    let mut traced_failures = Vec::new();
    let run_span = spans.open("run", None);
    let t = Instant::now();
    let windows: Vec<Window> = cases
        .iter()
        .map(|c| {
            let name = format!("window {}/{}/{}", c.flip_th, c.rfm_th, c.pattern);
            spans.scope(name, Some(run_span), || {
                let timed = Box::new(TimedMitigation::new(engine(c), &aggs));
                let mut h = harness_for(c, timed, mithril_obs::NullSink);
                run_window(
                    &mut h,
                    c,
                    &mut gaps,
                    Some(&try_activate),
                    &mut traced_failures,
                )
            })
        })
        .collect();
    let traced_s = t.elapsed().as_secs_f64();
    spans.close(run_span);
    let traced_unit = fold(&windows, &gaps, traced_failures);
    attempted += traced_unit.ops + 1;
    failures.extend(traced_unit.failures);
    if !traced_unit.model.same_as(&m.model) {
        failures.push("traced run diverged from the untraced run".into());
    }
    let (issued, elided): (u64, u64) = windows
        .iter()
        .fold((0, 0), |(i, e), w| (i + w.rfms, e + w.elided));
    layers.set("harness.try_activate_ns", try_activate.ns_per_call());
    layers.set("harness.share", try_activate.ns() as f64 / 1e9 / traced_s);
    layers.set("mitigation.on_activate_ns", aggs.on_activate.ns_per_call());
    layers.set("mitigation.on_rfm_ns", aggs.on_rfm.ns_per_call());
    layers.set(
        "mitigation.rfms_per_kact",
        ratio((issued + elided) as f64 * 1000.0, traced_unit.acts as f64),
    );
    layers.set(
        "mitigation.elided_frac",
        ratio(elided as f64, (issued + elided) as f64),
    );
    layers.set("bench.trace_overhead_frac", traced_s / baseline_s - 1.0);

    let obs_span = spans.open("run.obs", None);
    let t = Instant::now();
    let mut gaps = LatencyHistogram::new();
    let mut obs_failures = Vec::new();
    let windows: Vec<Window> = cases
        .iter()
        .map(|c| {
            let mut h = harness_for(c, engine(c), RingSink::new(1024));
            run_window(&mut h, c, &mut gaps, None, &mut obs_failures)
        })
        .collect();
    layers.set(
        "obs.overhead_frac",
        t.elapsed().as_secs_f64() / baseline_s - 1.0,
    );
    spans.close(obs_span);
    attempted += 1;
    if !fold(&windows, &gaps, obs_failures).model.same_as(&m.model) {
        failures.push("observed run diverged from the untraced run".into());
    }
    Ok(layers.into_report(attempted, failures))
}
