//! The paper's expected shapes as executable claims over the report.
//!
//! Every claim is a pure function of the report's tables, so it can be
//! re-checked from a parsed `BENCH_paper.json`. A claim is an ordering or
//! a band quoted from the paper, never an exact value. A "~X" bound
//! holds when the observed value rounds to within X at the precision X
//! is stated in (so "≤ ~2%" is checked as ≤ 2.5%). Claims that fail stay
//! in the report with `holds: false`: they are reproduction gaps, not
//! tests to tune.

use mithril_baselines::FLIP_TH_SWEEP;
use mithril_obs::json::Json;
use mithril_obs::json_obj;
use mithril_runner::scenarios::default_rfm_th;

use super::analytic::ABLATION_FLIP;
use super::fixed;

/// A claim's observed value and whether it holds.
type Check = (Json, bool);

const INF: f64 = f64::INFINITY;

fn num(row: &Json, key: &str) -> f64 {
    let value = row.get(key).and_then(Json::as_f64);
    value.unwrap_or_else(|| panic!("no number `{key}` in {}", row.render()))
}

/// The rows whose `key` equals `value`.
fn select<'a>(rows: &'a [Json], key: &str, value: impl Into<Json>) -> Vec<&'a Json> {
    let value = value.into();
    rows.iter().filter(|r| r.get(key) == Some(&value)).collect()
}

/// Column `key` of the Fig. 10/11 row of `scheme` at `flip_th`.
fn cell(rows: &[Json], flip_th: u64, scheme: &str, key: &str) -> f64 {
    let at = |r: &&Json| r.get("flip_th") == Some(&flip_th.into());
    let row = select(rows, "scheme", scheme).into_iter().find(at);
    num(row.expect("a row per FlipTH and scheme"), key)
}

/// Column `key` of `rows`, as numbers.
fn col<'a>(rows: impl IntoIterator<Item = &'a Json>, key: &str) -> Vec<f64> {
    rows.into_iter().map(|r| num(r, key)).collect()
}

/// Column `key` of `rows` as a report array, values as written.
fn pick<'a>(rows: impl IntoIterator<Item = &'a Json>, key: &str) -> Json {
    Json::Arr(
        rows.into_iter()
            .filter_map(|r| r.get(key).cloned())
            .collect(),
    )
}

fn min(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(INF, f64::min)
}

fn max(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(-INF, f64::max)
}

fn monotone(xs: &[f64], ok: fn(&f64, &f64) -> bool) -> bool {
    xs.windows(2).all(|w| ok(&w[0], &w[1]))
}

/// `observed` lies in `[lo, hi]`.
fn band(observed: impl Into<Json>, lo: f64, hi: f64) -> Check {
    let observed = observed.into();
    let x = observed.as_f64().expect("a numeric observation");
    (observed, lo <= x && x <= hi)
}

/// The series (a report array) is ordered pairwise by `ok`.
fn ordered(series: Json, ok: fn(&f64, &f64) -> bool) -> Check {
    let xs: Vec<f64> = series
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    let holds = monotone(&xs, ok);
    (series, holds)
}

/// A claim over many points holds when none breaks it; `observed`
/// lists the ones that do.
fn unbroken(points: impl IntoIterator<Item = Json>) -> Check {
    let points: Vec<Json> = points.into_iter().collect();
    let holds = points.is_empty();
    (Json::Arr(points), holds)
}

/// Within each value of `group`, column `value` (in report order) is
/// ordered pairwise by `ok`; `observed` lists the groups where it is not.
fn each_ordered(rows: &[Json], group: &str, value: &str, ok: fn(&f64, &f64) -> bool) -> Check {
    let mut groups: Vec<Json> = Vec::new();
    for key in rows.iter().filter_map(|r| r.get(group)) {
        if !groups.contains(key) {
            groups.push(key.clone());
        }
    }
    let breaks = |g: &Json| !monotone(&col(select(rows, group, g.clone()), value), ok);
    unbroken(groups.into_iter().filter(breaks))
}

struct Claims<'a> {
    report: &'a Json,
    figure: &'static str,
    out: Vec<Json>,
}

impl<'a> Claims<'a> {
    fn rows(&self, table: &str) -> &'a [Json] {
        let rows = self.report.get(table).and_then(Json::as_arr);
        rows.unwrap_or_else(|| panic!("the report has no `{table}` table"))
    }

    /// Starts the claims about `figure` and returns its table.
    fn figure(&mut self, figure: &'static str) -> &'a [Json] {
        self.figure = figure;
        self.rows(figure)
    }

    fn add(&mut self, claim: &str, band: &str, (observed, holds): Check) {
        self.out.push(json_obj! {
            "figure": self.figure,
            "claim": claim,
            "band": band,
            "observed": observed,
            "holds": holds,
        });
    }
}

/// Evaluates every claim against `report`'s tables, in figure order.
pub(crate) fn evaluate(report: &Json) -> Json {
    let mut c = Claims {
        report,
        figure: "",
        out: Vec::new(),
    };
    for figure in [
        fig2, fig6, fig7, fig8, fig9, fig10, fig11, table4, appendix_c, ablation,
    ] {
        figure(&mut c);
    }
    Json::Arr(c.out)
}

fn fig2(c: &mut Claims) {
    let r = c.figure("fig2");
    let at_2k = r
        .iter()
        .position(|row| row.get("threshold") == Some(&2_000u64.into()));
    let (upto_2k, at_2k) = (&r[..=at_2k.unwrap()], &r[at_2k.unwrap()]);
    c.add(
        "ARR-Graphene's safe FlipTH grows with the threshold",
        "strictly increasing in the threshold",
        ordered(pick(r, "arr_graphene_safe_flipth"), f64::lt),
    );
    c.add(
        "RFM-Graphene stays pinned at a floor: a threshold below 2K does not lower its safe FlipTH",
        "non-increasing from threshold 250 to 2K",
        ordered(pick(upto_2k, "rfm_graphene_safe_flipth"), f64::ge),
    );
    c.add(
        "RFM-Graphene's safe FlipTH at threshold 2K is the paper's ~20K",
        "[19500, 20500] (~20K at its stated precision)",
        band(
            at_2k.get("rfm_graphene_safe_flipth").cloned(),
            19_500.0,
            20_500.0,
        ),
    );
}

fn fig6(c: &mut Claims) {
    let r = c.figure("fig6");
    let feasible: Vec<Json> = select(r, "algorithm", "cbs")
        .into_iter()
        .filter(|row| row.get("table_kib") != Some(&Json::Null))
        .cloned()
        .collect();
    c.add(
        "Mithril's table size trades off monotonically against RFMTH",
        "table_kib non-decreasing in RFMTH at each FlipTH",
        each_ordered(&feasible, "flip_th", "table_kib", f64::le),
    );
    c.add(
        "the trade-off curves shift up as FlipTH shrinks",
        "table_kib non-increasing in FlipTH at each RFMTH",
        each_ordered(&feasible, "rfm_th", "table_kib", f64::ge),
    );
    let smaller = select(r, "algorithm", "lossy-counting")
        .into_iter()
        .filter(|lc| {
            let cbs = select(&feasible, "flip_th", lc.get("flip_th").cloned());
            num(lc, "table_kib") <= max(col(cbs, "table_kib"))
        });
    c.add(
        "Lossy Counting needs a larger table than Mithril at the same FlipTH",
        "Lossy Counting's table_kib above every Mithril table_kib at its FlipTH",
        unbroken(smaller.filter_map(|lc| lc.get("flip_th").cloned())),
    );
}

fn fig7(c: &mut Claims) {
    let r = c.figure("fig7");
    for (flip, rfm) in [(3_125u64, 16u64), (6_250, 64)] {
        let config = select(r, "flip_th", flip);
        let adaptive = config.iter().filter(|row| num(row, "ad_th") >= 100.0);
        let energy = ["mp_energy_overhead_pct", "mt_energy_overhead_pct"];
        c.add(
            &format!("the energy overhead falls to ~0 for AdTH in [100, 200] (FlipTH {flip}, RFMTH {rfm})"),
            "multi-programmed and multi-threaded overheads <= 0.5% (~0 at integer precision)",
            band(max(adaptive.flat_map(|row| energy.map(|k| num(row, k)))), -INF, 0.5),
        );
    }
    c.add(
        "adaptive refresh's additional Nentry stays <= ~12% at FlipTH 3.125K",
        "<= 12.5% (~12% at integer precision)",
        band(
            max(col(select(r, "flip_th", 3_125u64), "add_nentry_pct")),
            0.0,
            12.5,
        ),
    );
}

fn fig8(c: &mut Claims) {
    c.figure("fig8");
    let window = c
        .report
        .get("fig8_window")
        .expect("the report has a fig8 window");
    c.add(
        "(b) at any instant the sweep's accesses concentrate on a handful of rows",
        "<= 5 rows touched in the small window",
        band(window.get("rows_touched").cloned(), 1.0, 5.0),
    );
    c.add(
        "(c) stream conflicts push a row's ACTs toward its 128 lines, inside the AdTH range",
        "most ACTs of one row in the small window in [100, 200]",
        band(window.get("max_row_activations").cloned(), 100.0, 200.0),
    );
}

fn fig9(c: &mut Claims) {
    let r = c.figure("fig9");
    c.add(
        "Mithril loses at most ~2% performance, even at (1.5K, 32)",
        ">= 97.5% at every point (~2% loss at integer precision)",
        band(min(col(r, "mithril_norm_ipc_pct")), 97.5, INF),
    );
    c.add(
        "Mithril loses more performance as RFMTH shrinks",
        "mithril_norm_ipc_pct non-increasing as RFMTH falls at each FlipTH",
        each_ordered(r, "flip_th", "mithril_norm_ipc_pct", f64::ge),
    );
    c.add(
        "Mithril+ stays at ~100%",
        ">= 99.5% at every point (~100% at integer precision)",
        band(min(col(r, "mithril_plus_norm_ipc_pct")), 99.5, INF),
    );
    c.add(
        "the table grows as FlipTH falls",
        "table_kib strictly increasing as FlipTH falls at each RFMTH",
        each_ordered(r, "rfm_th", "table_kib", f64::lt),
    );
}

fn fig10(c: &mut Claims) {
    let r = c.figure("fig10");
    let panels = [
        "a_perf_normal_pct",
        "b_perf_multisided_pct",
        "c_perf_adversarial_pct",
    ];
    let worst = |s| {
        min(select(r, "scheme", s)
            .iter()
            .flat_map(|row| panels.map(|k| num(row, k))))
    };
    c.add(
        "Mithril+ performs at ~100% in panels (a)-(c)",
        ">= 99.5% everywhere (~100% at integer precision)",
        band(worst("mithril+"), 99.5, INF),
    );
    c.add(
        "Mithril performs at >= ~98% in panels (a)-(c)",
        ">= 97.5% everywhere (~98% at integer precision)",
        band(worst("mithril"), 97.5, INF),
    );
    c.add(
        "PARFM degrades as FlipTH falls (its solved RFMTH shrinks)",
        "PARFM's a_perf_normal_pct non-increasing as FlipTH falls",
        ordered(
            pick(select(r, "scheme", "parfm"), "a_perf_normal_pct"),
            f64::ge,
        ),
    );
    let bh = select(r, "scheme", "blockhammer");
    c.add(
        "BlockHammer collapses under its adversarial pattern (a double-digit % loss)",
        "BlockHammer's c_perf_adversarial_pct <= 90% at some FlipTH",
        band(min(col(bh, "c_perf_adversarial_pct")), 0.0, 90.0),
    );
    let benign = cell(r, 1_500, "blockhammer", "a_perf_normal_pct");
    let at_1_5k = select(r, "flip_th", 1_500u64);
    let others = at_1_5k
        .iter()
        .filter(|row| row.get("scheme") != Some(&"blockhammer".into()));
    let others = min(col(others.copied(), "a_perf_normal_pct"));
    c.add(
        "BlockHammer throttles benign threads at FlipTH 1.5K",
        "BlockHammer's a_perf_normal_pct at 1.5K below every other scheme's",
        (benign.into(), benign < others),
    );
    let energy = "d_energy_overhead_pct";
    let parfm_not_top = FLIP_TH_SWEEP.into_iter().filter(|&flip| {
        cell(r, flip, "parfm", energy) < max(col(select(r, "flip_th", flip), energy))
    });
    c.add(
        "PARFM burns the most energy",
        "PARFM's d_energy_overhead_pct the highest of the four schemes at each FlipTH",
        unbroken(parfm_not_top.map(Json::from)),
    );
    let ratio = |row: &Json| fixed(num(row, "blockhammer_kib") / num(row, "mithril_kib"), 2);
    let ratios: Vec<f64> = c.rows("fig10e").iter().map(ratio).collect();
    let holds = ratios.iter().all(|x| (4.0..=60.0).contains(x));
    c.add(
        "(e) Mithril's tables are 4-60x smaller than BlockHammer's",
        "BlockHammer / Mithril table_kib in [4, 60] at every FlipTH",
        (Json::arr(ratios), holds),
    );
}

fn fig11(c: &mut Claims) {
    let r = c.figure("fig11");
    // How far a Mithril variant trails the best of Graphene, TWiCe and
    // CBT in panel (a), at its worst FlipTH.
    let gap = |scheme| {
        let gaps = FLIP_TH_SWEEP.map(|flip| {
            let a = |s| cell(r, flip, s, "a_perf_normal_pct");
            a("graphene").max(a("twice")).max(a("cbt")) - a(scheme)
        });
        fixed(max(gaps), 2)
    };
    c.add(
        "Mithril+ performs within ~0.2% of Graphene, TWiCe and CBT",
        "<= 0.25 points below the best of them at every FlipTH (~0.2% at its precision)",
        band(gap("mithril+"), -INF, 0.25),
    );
    c.add(
        "Mithril performs <= ~2% worse than Graphene, TWiCe and CBT, even at FlipTH 1.5K",
        "<= 2.5 points below the best of them at every FlipTH (~2% at integer precision)",
        band(gap("mithril"), -INF, 2.5),
    );
    let low = ["mithril", "twice", "graphene"]
        .map(|s| col(select(r, "scheme", s), "c_energy_overhead_pct"));
    c.add(
        "the energy overheads of Mithril, TWiCe and Graphene all stay <= ~1%",
        "<= 1.5% (~1% at integer precision)",
        band(max(low.concat()), -INF, 1.5),
    );
    c.add(
        "PARA's energy overhead grows as FlipTH falls",
        "PARA's c_energy_overhead_pct non-decreasing as FlipTH falls",
        ordered(
            pick(select(r, "scheme", "para"), "c_energy_overhead_pct"),
            f64::le,
        ),
    );
}

fn table4(c: &mut Claims) {
    let r = c.figure("table4");
    let dash = |row: &Json, key| row.get(key) == Some(&Json::Null);
    let differ = r
        .iter()
        .filter(|row| dash(row, "table_kib") != dash(row, "paper_kib"));
    let cell = |row: &Json| json_obj! {"scheme": row.get("scheme").cloned(), "flip_th": row.get("flip_th").cloned()};
    c.add(
        "Mithril's infeasible (FlipTH, RFMTH) pairs are the paper's dashes",
        "table_kib null exactly where paper_kib is",
        unbroken(differ.map(cell)),
    );
}

fn appendix_c(c: &mut Claims) {
    let r = c.figure("appendix_c");
    c.add(
        "PARFM's solved RFMTH shrinks as FlipTH shrinks",
        "strictly decreasing as FlipTH falls",
        ordered(pick(r, "solved_rfm_th"), f64::gt),
    );
    let mithril_rfm_th = |row: &&Json| default_rfm_th(num(row, "flip_th") as u64) as f64;
    let not_more_often = r
        .iter()
        .filter(|row| num(row, "solved_rfm_th") >= mithril_rfm_th(row));
    c.add(
        "at equal protection PARFM must refresh more often than Mithril (RFMTH 256/128/64/32)",
        "solved_rfm_th below Mithril's RFMTH at each FlipTH",
        unbroken(not_more_often.filter_map(|row| row.get("flip_th").cloned())),
    );
}

fn ablation(c: &mut Claims) {
    let (paper, knockouts) = c
        .figure("ablation")
        .split_first()
        .expect("the ablation has rows");
    let (flip, safe) = (ABLATION_FLIP as f64, num(paper, "worst_disturbance"));
    c.add(
        "the paper's configuration stays comfortably below FlipTH on every pattern",
        "worst_disturbance <= FlipTH/2 (3125, Theorem 1's bound)",
        band(paper.get("worst_disturbance").cloned(), 0.0, flip / 2.0),
    );
    let worst = col(knockouts, "worst_disturbance");
    let pushed = worst.iter().all(|&w| w > safe) && max(worst) >= flip;
    c.add(
        "each knockout pushes the worst case toward the threshold, and some past it",
        "each knockout's worst_disturbance above the paper's, and one >= FlipTH (6250)",
        (pick(knockouts, "worst_disturbance"), pushed),
    );
}
