//! The simulated figures (Figs. 7, 9, 10 and 11) as grids of
//! [`Scenario`]s.
//!
//! Every figure value is a [`Cell`]: one scheme's runs over a workload
//! set, each paired with the unprotected run it divides by. The pair is
//! built by [`baseline`], so a cell and its baseline always share FlipTH,
//! workload, cores and instruction budget. [`run`] takes the union of
//! every figure's runs, deduplicates it by (scheme, FlipTH, workload) and
//! runs each distinct scenario once on the sharded engine; [`table`] then
//! reads a figure's rows out of those shared results.

use mithril::MithrilConfig;
use mithril_baselines::FLIP_TH_SWEEP;
use mithril_dram::Ddr5Timing;
use mithril_obs::json::Json;
use mithril_obs::json_obj;
use mithril_runner::engine::{run_sharded, PoolConfig};
use mithril_runner::scenarios::{all_schemes, default_rfm_th, Scenario, MITHRIL_SWEEP};
use mithril_sim::{geomean, Metrics, QosPolicy, Scheme, SystemConfig};

use super::fixed;

/// Instructions per core of every simulated run.
pub(crate) const INSTS_PER_CORE: u64 = 100_000;
/// The seed of every simulated run.
pub(crate) const SEED: u64 = 1;

/// Short-slice NBL calibration (see `BlockHammerConfig::with_nbl_scaled`):
/// our slice exposes one ~128-ACT sweep burst per row where the full
/// window accumulates ~700 ACTs.
const NBL_SCALE: u64 = 6;

/// The five benign workload names of the paper's "normal workloads"
/// aggregation.
const NORMAL_WORKLOADS: [&str; 5] = ["mix-high", "mix-blend", "fft", "radix", "pagerank"];

/// The RFM-interface-compatible scheme panel of Fig. 10, in row order.
const FIG10_SCHEMES: [&str; 4] = ["parfm", "blockhammer", "mithril", "mithril+"];

/// The ARR-based (RFM-interface-*non*-compatible) scheme panel of
/// Fig. 11, in row order.
const FIG11_SCHEMES: [&str; 6] = ["para", "cbt", "twice", "graphene", "mithril", "mithril+"];

/// The schemes of [`all_schemes`] labelled `labels`, in that order, with
/// Mithril at `rfm_th` and BlockHammer at [`NBL_SCALE`].
fn catalog<const N: usize>(labels: [&str; N], rfm_th: u64) -> [(&'static str, Scheme); N] {
    let all = all_schemes(rfm_th, NBL_SCALE);
    labels.map(|label| {
        *all.iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("no scheme {label}"))
    })
}

/// A Table III scenario (16 cores) running `scheme` at `flip_th` on
/// `workload` for [`INSTS_PER_CORE`] instructions per core.
fn scenario((label, scheme): (&str, Scheme), flip_th: u64, workload: &str) -> Scenario {
    let table_iii = SystemConfig::table_iii();
    Scenario {
        name: format!("{label}/{workload}@{flip_th}"),
        scheme_label: label.into(),
        scheme,
        workload: workload.into(),
        geometry: table_iii.geometry,
        flip_th,
        cores: table_iii.cores,
        insts_per_core: INSTS_PER_CORE,
        faults: None,
        qos: QosPolicy::Off,
    }
}

/// The unprotected run `s` is normalized by: `s` with [`Scheme::None`].
fn baseline(s: &Scenario) -> Scenario {
    Scenario {
        name: format!("none/{}@{}", s.workload, s.flip_th),
        scheme_label: "none".into(),
        scheme: Scheme::None,
        ..s.clone()
    }
}

/// How a cell folds its normalized runs into one figure value.
#[derive(Debug, Clone, Copy)]
enum Measure {
    /// IPC relative to the baseline, in percent (two decimals).
    Ipc,
    /// Dynamic energy above the baseline, in percent (three decimals).
    Energy,
}

/// One normalized figure value.
#[derive(Debug, Clone)]
struct Cell {
    /// The report column the value lands in.
    column: &'static str,
    /// How the runs fold into the value.
    measure: Measure,
    /// Each scheme run paired with its [`baseline`].
    pairs: Vec<(Scenario, Scenario)>,
}

impl Cell {
    fn new(
        (column, measure, workloads): (&'static str, Measure, &[&str]),
        scheme: (&str, Scheme),
        flip_th: u64,
    ) -> Self {
        let pairs = workloads.iter().map(|w| {
            let s = scenario(scheme, flip_th, w);
            let b = baseline(&s);
            (s, b)
        });
        Self {
            column,
            measure,
            pairs: pairs.collect(),
        }
    }

    fn value(&self, runs: &Runs) -> f64 {
        let ratio = |f: fn(&Metrics, &Metrics) -> f64| {
            let xs: Vec<f64> = self
                .pairs
                .iter()
                .map(|(s, b)| f(runs.get(s), runs.get(b)))
                .collect();
            // A single run is its own value: exp(ln x) may differ from x.
            if xs.len() == 1 {
                xs[0]
            } else {
                geomean(&xs)
            }
        };
        match self.measure {
            Measure::Ipc => fixed(ratio(Metrics::normalized_ipc) * 100.0, 2),
            Measure::Energy => fixed((ratio(Metrics::relative_energy) - 1.0) * 100.0, 3),
        }
    }
}

/// One figure row: its analytic columns (an object), then its cells.
#[derive(Debug, Clone)]
struct Row {
    /// Leading columns, known without simulating.
    columns: Json,
    /// Simulated columns, appended in order.
    cells: Vec<Cell>,
}

/// A simulated figure: its report member name and its rows.
#[derive(Debug, Clone)]
pub(crate) struct Figure {
    /// Report member name.
    pub(crate) name: &'static str,
    /// The figure's rows, in report order.
    rows: Vec<Row>,
}

/// A panel: report column, measure and the workloads it folds.
type Panel = (&'static str, Measure, &'static [&'static str]);

const MP_ENERGY: Panel = (
    "mp_energy_overhead_pct",
    Measure::Energy,
    &["mix-high", "mix-blend"],
);
const MT_ENERGY: Panel = (
    "mt_energy_overhead_pct",
    Measure::Energy,
    &["fft", "radix", "pagerank"],
);
const NORMAL_IPC: Panel = ("a_perf_normal_pct", Measure::Ipc, &NORMAL_WORKLOADS);
const MULTISIDED: Panel = ("b_perf_multisided_pct", Measure::Ipc, &["attack-multi"]);
const ADVERSARIAL: Panel = ("c_perf_adversarial_pct", Measure::Ipc, &["attack-bh"]);
const FIG10_ENERGY: Panel = ("d_energy_overhead_pct", Measure::Energy, &NORMAL_WORKLOADS);
const FIG11_ENERGY: Panel = ("c_energy_overhead_pct", Measure::Energy, &NORMAL_WORKLOADS);

/// Figs. 7, 9, 10 (panels a-d, the RFM-interface-compatible schemes) and
/// 11 (panels a-c, the ARR-based schemes).
pub(crate) fn figures() -> Vec<Figure> {
    vec![
        fig7(),
        fig9(),
        panels(
            "fig10",
            FIG10_SCHEMES,
            &[NORMAL_IPC, MULTISIDED, ADVERSARIAL, FIG10_ENERGY],
        ),
        panels(
            "fig11",
            FIG11_SCHEMES,
            &[NORMAL_IPC, MULTISIDED, FIG11_ENERGY],
        ),
    ]
}

/// Fig. 7: adaptive refresh's extra table size and the energy overhead
/// of the multi-programmed and multi-threaded workloads vs AdTH, at
/// `(FlipTH, RFMTH)` = (3.125K, 16) and (6.25K, 64).
fn fig7() -> Figure {
    let timing = Ddr5Timing::ddr5_4800();
    let mut rows = Vec::new();
    for (flip, rfm) in [(3_125u64, 16u64), (6_250, 64)] {
        let base_n = MithrilConfig::for_flip_threshold(flip, rfm, &timing)
            .unwrap()
            .nentry;
        for ad in [0u64, 50, 100, 150, 200] {
            let ad_th = (ad > 0).then_some(ad);
            let n = MithrilConfig::solve(flip, rfm, 1, ad_th, &timing)
                .unwrap()
                .nentry;
            let scheme = (
                "mithril",
                Scheme::Mithril {
                    rfm_th: rfm,
                    ad_th,
                    plus: false,
                },
            );
            rows.push(Row {
                columns: json_obj! {
                    "flip_th": flip,
                    "rfm_th": rfm,
                    "ad_th": ad,
                    "add_nentry_pct": fixed((n as f64 / base_n as f64 - 1.0) * 100.0, 1),
                },
                cells: vec![
                    Cell::new(MP_ENERGY, scheme, flip),
                    Cell::new(MT_ENERGY, scheme, flip),
                ],
            });
        }
    }
    Figure { name: "fig7", rows }
}

/// Fig. 9: Mithril and Mithril+ (AdTH 200) normal-workload IPC and table
/// size over the paper's `(FlipTH, RFMTH)` sweep.
fn fig9() -> Figure {
    let timing = Ddr5Timing::ddr5_4800();
    let rows = MITHRIL_SWEEP.iter().map(|&(flip, rfm)| {
        let kib = MithrilConfig::solve(flip, rfm, 1, Some(200), &timing).ok();
        let [m, plus] = catalog(["mithril", "mithril+"], rfm);
        let ipc = |column| (column, Measure::Ipc, &NORMAL_WORKLOADS[..]);
        Row {
            columns: json_obj! {
                "flip_th": flip,
                "rfm_th": rfm,
                "table_kib": kib.map(|c| fixed(c.table_kib(), 2)),
            },
            cells: vec![
                Cell::new(ipc("mithril_norm_ipc_pct"), m, flip),
                Cell::new(ipc("mithril_plus_norm_ipc_pct"), plus, flip),
            ],
        }
    });
    Figure {
        name: "fig9",
        rows: rows.collect(),
    }
}

/// The `(FlipTH × scheme)` rows of Figs. 10 and 11, one cell per panel,
/// with Mithril at each FlipTH's [`default_rfm_th`].
fn panels<const N: usize>(name: &'static str, schemes: [&str; N], panels: &[Panel]) -> Figure {
    let mut rows = Vec::new();
    for flip in FLIP_TH_SWEEP {
        for scheme in catalog(schemes, default_rfm_th(flip)) {
            rows.push(Row {
                columns: json_obj! {"flip_th": flip, "scheme": scheme.0},
                cells: panels.iter().map(|&p| Cell::new(p, scheme, flip)).collect(),
            });
        }
    }
    Figure { name, rows }
}

/// True when `a` and `b` are the same simulation.
fn same_run(a: &Scenario, b: &Scenario) -> bool {
    a.scheme == b.scheme && a.flip_th == b.flip_th && a.workload == b.workload
}

/// The distinct simulations behind a set of figures, with their metrics.
#[derive(Debug)]
pub(crate) struct Runs(Vec<(Scenario, Metrics)>);

impl Runs {
    /// How many distinct simulations ran.
    pub(crate) fn count(&self) -> usize {
        self.0.len()
    }

    fn get(&self, s: &Scenario) -> &Metrics {
        &self.0.iter().find(|(r, _)| same_run(r, s)).unwrap().1
    }
}

/// Every scenario the figures need, once each, in first-use order.
fn distinct(figures: &[Figure]) -> Vec<Scenario> {
    let mut out: Vec<Scenario> = Vec::new();
    let cells = figures.iter().flat_map(|f| &f.rows).flat_map(|r| &r.cells);
    for s in cells.flat_map(|c| &c.pairs).flat_map(|(s, b)| [s, b]) {
        if !out.iter().any(|o| same_run(o, s)) {
            out.push(s.clone());
        }
    }
    out
}

/// Runs every distinct scenario of `figures` once, at [`SEED`].
pub(crate) fn run(figures: &[Figure], pool: PoolConfig) -> Runs {
    let scenarios = distinct(figures);
    let metrics = run_sharded(&scenarios, pool, SEED, |s, _| {
        s.run(SEED).unwrap_or_else(|e| panic!("{}: {e}", s.name))
    });
    Runs(scenarios.into_iter().zip(metrics).collect())
}

/// A figure's report table: one object per row, analytic columns first.
pub(crate) fn table(figure: &Figure, runs: &Runs) -> Json {
    Json::arr(figure.rows.iter().map(|row| {
        let mut out = row.columns.clone();
        for cell in &row.cells {
            out.push(cell.column, cell.value(runs));
        }
        out
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_divides_by_a_baseline_of_the_same_run_shape() {
        for figure in figures() {
            for cell in figure.rows.iter().flat_map(|r| &r.cells) {
                for (s, b) in &cell.pairs {
                    assert_eq!(b.scheme, Scheme::None, "{}", s.name);
                    assert_ne!(s.scheme, Scheme::None, "{}", s.name);
                    assert_eq!(b.flip_th, s.flip_th, "{}", s.name);
                    assert_eq!(b.workload, s.workload, "{}", s.name);
                    assert_eq!(b.cores, s.cores, "{}", s.name);
                    assert_eq!(b.insts_per_core, s.insts_per_core, "{}", s.name);
                }
            }
        }
    }

    #[test]
    fn scheme_panels_are_distinct_and_labelled() {
        for flip in FLIP_TH_SWEEP {
            let fig10 = catalog(FIG10_SCHEMES, default_rfm_th(flip));
            let fig11 = catalog(FIG11_SCHEMES, default_rfm_th(flip));
            assert_eq!((fig10.len(), fig11.len()), (4, 6));
            for panel in [&fig10[..], &fig11[..]] {
                for (i, (label, scheme)) in panel.iter().enumerate() {
                    assert_eq!(*label, scheme.name());
                    assert!(
                        panel[..i].iter().all(|(other, _)| other != label),
                        "{label}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_figure_union_runs_each_simulation_once() {
        let figures = figures();
        let uses: usize = figures
            .iter()
            .flat_map(|f| &f.rows)
            .flat_map(|r| &r.cells)
            .map(|c| 2 * c.pairs.len())
            .sum();
        let runs = distinct(&figures);
        // Baselines are shared across schemes, Figs. 10 and 11 share
        // Mithril and Mithril+, and Fig. 9 shares three of its points.
        assert_eq!((uses, runs.len()), (1_628, 449));
        for (i, a) in runs.iter().enumerate() {
            assert!(!runs[i + 1..].iter().any(|b| same_run(a, b)), "{}", a.name);
        }
    }
}
