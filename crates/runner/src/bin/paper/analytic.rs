//! The figures that need no full-`System` run: Fig. 2 and the ablation
//! (per-bank [`AttackHarness`]), Fig. 6, Fig. 10(e), Table IV and
//! Appendix C (closed forms), and Fig. 8 (an LLC-filtered access
//! pattern). Each returns its report table as a [`Json`] value.

use std::collections::{HashMap, HashSet};

use mithril::{MithrilConfig, MithrilScheme, MithrilTable};
use mithril_baselines::parfm_analysis::{max_rfm_th, single_row_failure, system_failure};
use mithril_baselines::{
    BlockHammerConfig, CbtConfig, Graphene, GrapheneConfig, RfmGraphene, TwiCeConfig,
    ATTACKABLE_BANKS, FAILURE_TARGET, FLIP_TH_SWEEP,
};
use mithril_dram::{
    victims, AttackHarness, ChannelId, Ddr5Timing, DramMitigation, RfmOutcome, RowHammerOracle,
    RowId,
};
use mithril_memctrl::{AddressMapping, McAction, McMitigation};
use mithril_obs::json::Json;
use mithril_obs::json_obj;
use mithril_runner::engine::{run_sharded, PoolConfig};
use mithril_runner::scenarios::default_rfm_th;
use mithril_sim::{Llc, LlcAccess, LlcConfig};
use mithril_workloads::{StreamSweep, TraceSource};

use super::{fixed, sci};

const ROWS: u64 = 65_536;

/// RFM-Graphene's RFMTH in Fig. 2.
const FIG2_RFM_TH: u64 = 64;

/// Worst disturbance for RFM-Graphene at threshold `t`, over two attack
/// families:
///
/// * **build-then-focus** (the paper's Section III-A argument): drive `m`
///   rows to the threshold so they all queue for an RFM slot, then hammer
///   the *last-queued* row — it keeps taking hits for `m × RFMTH` ACTs
///   while the FIFO drains ahead of it. `m ≈ budget/(T + RFMTH)` spends
///   the whole window.
/// * **round-robin**: continuous rotation (the naive pattern).
fn rfm_graphene_worst(threshold: u64, timing: &Ddr5Timing) -> u64 {
    let budget = timing.act_budget_per_trefw();
    let nentry = (budget / threshold.max(1) + 8) as usize;
    let mut worst = 0;

    // Build-then-focus at several concentration levels.
    for divisor in [1u64, 2, 4] {
        let m = (budget / (threshold + FIG2_RFM_TH) / divisor).clamp(2, 8_192);
        let engine = RfmGraphene::new(threshold, nentry, ROWS);
        let mut h = AttackHarness::new(*timing, Box::new(engine), FIG2_RFM_TH, u64::MAX);
        // Build phase: round-robin until every row crossed the threshold.
        let mut alive = true;
        'build: for _round in 0..threshold {
            for k in 0..m {
                if !h.try_activate(1_000 + 2 * k) {
                    alive = false;
                    break 'build;
                }
            }
        }
        // Focus phase: hammer the last row to enter the pending queue.
        if alive {
            let focus = 1_000 + 2 * (m - 1);
            while h.try_activate(focus) {}
        }
        worst = worst.max(h.oracle().max_disturbance());
    }

    // Plain round-robin reference patterns.
    for m in [(budget / threshold.max(1)).clamp(2, 8_192), 64] {
        let engine = RfmGraphene::new(threshold, nentry, ROWS);
        let mut h = AttackHarness::new(*timing, Box::new(engine), FIG2_RFM_TH, u64::MAX);
        let mut i = 0u64;
        while h.try_activate(1_000 + 2 * (i % m)) {
            i += 1;
        }
        worst = worst.max(h.oracle().max_disturbance());
    }
    worst
}

/// Worst disturbance for ARR-Graphene at threshold `t`: the shipped
/// [`Graphene`] fires an ARR immediately at every estimate multiple of
/// `t`, so no RFM queueing exists. Driven at command level with the same
/// ACT budget and the periodic table reset (every tREFW) that forces
/// Graphene's FlipTH/4 provisioning.
fn arr_graphene_worst(threshold: u64, timing: &Ddr5Timing) -> u64 {
    let budget = timing.act_budget_per_trefw();
    let config = GrapheneConfig {
        threshold,
        nentry: (budget / threshold.max(1) + 8) as usize,
        reset_period: timing.trefw,
        rows_per_bank: ROWS,
    };
    let candidates = [(budget / threshold.max(1)).max(2), 64, 2];
    let mut worst = 0;
    for &m in &candidates {
        let m = m.min(8_192);
        let mut graphene = Graphene::new(config, 1);
        let mut oracle = RowHammerOracle::new(u64::MAX, 1, ROWS);
        // Two refresh windows; the table resets at the second window's
        // first ACT, which is where ARR-Graphene loses a factor of two.
        for window in 0..2 {
            for i in 0..budget {
                let row = 1_000 + 2 * ((window * budget / 2 + i) % m);
                oracle.on_activate(row);
                if let McAction::Arr { victims, .. } =
                    graphene.on_activate(0, row, 0, window * timing.trefw)
                {
                    for victim in victims {
                        oracle.on_row_refreshed(victim);
                    }
                }
            }
        }
        worst = worst.max(oracle.max_disturbance());
    }
    worst
}

/// Fig. 2: the safe FlipTH (worst victim disturbance + 1) of ARR-Graphene
/// and RFM-Graphene per predefined threshold, under concentration
/// attacks that drive many rows to the threshold at once.
pub(crate) fn fig2(pool: PoolConfig) -> Json {
    let timing = Ddr5Timing::ddr5_4800();
    let thresholds = [250u64, 500, 1_000, 2_000, 4_000, 8_000];
    Json::arr(run_sharded(&thresholds, pool, 0, |&t, _| {
        json_obj! {
            "threshold": t,
            "rfm_th": FIG2_RFM_TH,
            "arr_graphene_safe_flipth": arr_graphene_worst(t, &timing) + 1,
            "rfm_graphene_safe_flipth": rfm_graphene_worst(t, &timing) + 1,
        }
    }))
}

/// Lossy Counting's table size at `flip_th` (the dotted lines of Fig. 6):
/// the classic `(1/ε)·ln(εn)` space bound with the tracking-error budget
/// `ε·n = FlipTH/4` per window.
fn lossy_counting_kib(flip_th: u64, timing: &Ddr5Timing) -> f64 {
    let budget = timing.act_budget_per_trefw() as f64;
    // Error budget: estimates must stay within FlipTH/4 of truth so the
    // greedy selection keeps a Theorem-1-style margin.
    let eps_n = flip_th as f64 / 4.0;
    let w = budget / eps_n; // 1/epsilon in items
    let entries = w * (budget / w).ln();
    // Entry: row address + full-width count + delta field.
    let addr_bits = 16.0;
    let count_bits = (budget.log2()).ceil();
    entries * (addr_bits + 2.0 * count_bits) / 8.0 / 1024.0
}

/// Fig. 6: the minimal Mithril (counter-based summary, "cbs") table per
/// `(FlipTH, RFMTH)` that satisfies `M < FlipTH/2` (Theorem 1), `null`
/// where no `Nentry` does, then Lossy Counting at 25K and 50K.
pub(crate) fn fig6() -> Json {
    let timing = Ddr5Timing::ddr5_4800();
    let mut rows = Vec::new();
    for flip in [1_562u64, 3_125, 6_250, 12_500, 25_000, 50_000] {
        for rfm in [16u64, 32, 64, 128, 256, 512, 1_024] {
            let cfg = MithrilConfig::for_flip_threshold(flip, rfm, &timing).ok();
            rows.push(json_obj! {
                "algorithm": "cbs",
                "flip_th": flip,
                "rfm_th": rfm,
                "nentry": cfg.map(|c| c.nentry),
                "counter_bits": cfg.map(|c| c.counter_bits(&timing)),
                "table_kib": cfg.map(|c| fixed(c.table_kib(), 3)),
            });
        }
    }
    for flip in [25_000u64, 50_000] {
        rows.push(json_obj! {
            "algorithm": "lossy-counting",
            "flip_th": flip,
            "rfm_th": Json::Null,
            "nentry": Json::Null,
            "counter_bits": Json::Null,
            "table_kib": fixed(lossy_counting_kib(flip, &timing), 3),
        });
    }
    Json::Arr(rows)
}

/// The Mithril configurations whose size the paper quotes (the Fig. 6 and
/// Table IV cross-checks), next to the paper's KB and mm².
pub(crate) fn mithril_paper() -> Json {
    let timing = Ddr5Timing::ddr5_4800();
    let quoted = [
        (6_250u64, 128u64, 0.84, Some(0.024)),
        (1_500, 32, 4.64, None),
    ];
    Json::arr(quoted.map(|(flip, rfm, paper_kib, paper_mm2)| {
        let c = MithrilConfig::for_flip_threshold(flip, rfm, &timing).unwrap();
        json_obj! {
            "flip_th": flip,
            "rfm_th": rfm,
            "nentry": c.nentry,
            "table_kib": fixed(c.table_kib(), 2),
            "paper_kib": paper_kib,
            "table_mm2": fixed(c.table_mm2(), 4),
            "paper_mm2": paper_mm2,
        }
    }))
}

/// Fig. 8's small window, in op indices.
const FIG8_WINDOW: std::ops::Range<usize> = 200_000..202_000;

/// Fig. 8's three panels for the [`StreamSweep`] workload on channel 0:
/// **(a)** accessed row vs access index over a large window, subsampled
/// to about 200 points; **(b)** the same in a small window (every 10th
/// access); **(c)** the *activations* of that small window after LLC and
/// row-buffer filtering. Returns `(panels, window summary)`.
pub(crate) fn fig8() -> (Json, Json) {
    let mapping = AddressMapping::new(mithril_dram::Geometry::table_iii_system());
    let mut sweep = StreamSweep::new(4, 1 << 18, 7);
    let mut llc = Llc::new(LlcConfig {
        size_bytes: 2 << 20,
        ..Default::default()
    });

    let mut open_rows = vec![u64::MAX; mapping.geometry().banks_total()];
    let mut acts: Vec<(usize, u64)> = Vec::new();
    let mut accesses: Vec<(usize, u64)> = Vec::new();

    for i in 0..400_000 {
        let op = sweep.next_op();
        let addr = mapping.map_line(op.line_addr);
        // The panels plot one channel's banks, but the LLC must see every
        // op — channel-1 lines compete for the same cache capacity.
        let on_channel_0 = addr.channel == ChannelId(0);
        if on_channel_0 {
            accesses.push((i, addr.row));
        }
        if matches!(llc.access(op.line_addr, op.is_write), LlcAccess::Miss) {
            llc.fill(op.line_addr);
            if on_channel_0 && open_rows[addr.bank] != addr.row {
                open_rows[addr.bank] = addr.row;
                acts.push((i, addr.row));
            }
        }
    }

    let in_window = |&&(i, _): &&(usize, u64)| FIG8_WINDOW.contains(&i);
    let points = |pts: Vec<&(usize, u64)>| {
        Json::arr(pts.into_iter().map(|&(i, r)| Json::arr([i as u64, r])))
    };
    // `accesses` holds only the channel-0 share of the ops, so sample the
    // large window by vector length, not op count.
    let a = accesses
        .iter()
        .step_by((accesses.len() / 200).max(1))
        .collect();
    let b = accesses.iter().filter(in_window).step_by(10).collect();
    let c: Vec<_> = acts.iter().filter(in_window).collect();
    let panels = Json::arr([("a", a), ("b", b), ("c", c.clone())].map(|(panel, pts)| {
        json_obj! {"panel": panel, "points": points(pts)}
    }));

    // Summary statistics backing the AdTH discussion (Section V-A).
    let window: Vec<u64> = accesses.iter().filter(in_window).map(|&(_, r)| r).collect();
    let mut row_acts: HashMap<u64, u64> = HashMap::new();
    for &&(_, row) in &c {
        *row_acts.entry(row).or_default() += 1;
    }
    let summary = json_obj! {
        "accesses": window.len(),
        "rows_touched": window.iter().collect::<HashSet<_>>().len(),
        "activations": c.len(),
        "max_row_activations": row_acts.values().copied().max().unwrap_or(0),
        "lines_per_row": mapping.geometry().lines_per_row(),
    };
    (panels, summary)
}

/// Fig. 10(e): per-bank table size of BlockHammer and of Mithril (the
/// paper's RFMTH for each FlipTH, AdTH 200).
pub(crate) fn fig10e() -> Json {
    let timing = Ddr5Timing::ddr5_4800();
    Json::arr(FLIP_TH_SWEEP.map(|flip| {
        let bh = BlockHammerConfig::for_flip_threshold(flip, &timing).table_kib();
        let mithril = MithrilConfig::solve(flip, default_rfm_th(flip), 1, Some(200), &timing);
        json_obj! {
            "flip_th": flip,
            "blockhammer_kib": fixed(bh, 2),
            "mithril_kib": mithril.ok().map(|c| fixed(c.table_kib(), 2)),
        }
    }))
}

/// Table IV's per-bank counter-table sizes: one row per scheme, one
/// `Option<f64>` KiB cell per FlipTH of [`FLIP_TH_SWEEP`] (`None` =
/// infeasible pair, rendered as a dash).
fn table_area_rows(timing: &Ddr5Timing) -> Vec<(String, Vec<Option<f64>>)> {
    type AreaFn = Box<dyn Fn(u64) -> Option<f64>>;
    let t = *timing;
    let mut rows: Vec<(String, AreaFn)> = vec![
        (
            "CBT @ MC".into(),
            Box::new(move |flip| Some(CbtConfig::for_flip_threshold(flip, &t).table_kib())),
        ),
        (
            "Graphene @ MC".into(),
            Box::new(move |flip| Some(GrapheneConfig::for_flip_threshold(flip, &t).table_kib(&t))),
        ),
        (
            "BlockHammer @ MC".into(),
            Box::new(move |flip| Some(BlockHammerConfig::for_flip_threshold(flip, &t).table_kib())),
        ),
        (
            "TWiCe @ buffer chip".into(),
            Box::new(move |flip| Some(TwiCeConfig::for_flip_threshold(flip, &t).table_kib(&t))),
        ),
    ];
    for rfm in [256u64, 128, 64, 32] {
        rows.push((
            format!("Mithril-{rfm} @ DRAM"),
            Box::new(move |flip| {
                MithrilConfig::for_flip_threshold(flip, rfm, &t)
                    .ok()
                    .map(|c| c.table_kib())
            }),
        ));
    }
    rows.into_iter()
        .map(|(name, f)| (name, FLIP_TH_SWEEP.iter().map(|&flip| f(flip)).collect()))
        .collect()
}

/// The paper's Table IV (KB), row for row with [`table_area_rows`];
/// `NaN` marks a dash.
const PAPER_TABLE4: [[f64; 6]; 8] = [
    [0.47, 0.97, 2.0, 4.12, 8.5, 17.5],
    [0.14, 0.21, 0.51, 0.99, 1.92, 3.7],
    [3.75, 3.5, 3.25, 6.0, 11.0, 20.0],
    [2.79, 5.08, 9.54, 18.27, 35.29, 71.26],
    [0.08, 0.17, 0.41, 1.45, f64::NAN, f64::NAN],
    [0.07, 0.15, 0.34, 0.84, 3.76, f64::NAN],
    [0.07, 0.14, 0.3, 0.68, 1.78, f64::NAN],
    [0.06, 0.13, 0.27, 0.57, 1.38, 4.64],
];

/// Table IV: per-bank counter-table size of every scheme at every FlipTH
/// next to the paper's value (`null` = infeasible pair, a dash).
pub(crate) fn table4() -> Json {
    let timing = Ddr5Timing::ddr5_4800();
    let mut rows = Vec::new();
    for ((scheme, cells), paper) in table_area_rows(&timing).into_iter().zip(PAPER_TABLE4) {
        for ((flip, kib), paper_kib) in FLIP_TH_SWEEP.into_iter().zip(cells).zip(paper) {
            rows.push(json_obj! {
                "scheme": &scheme,
                "flip_th": flip,
                "table_kib": kib.map(|k| fixed(k, 2)),
                "paper_kib": (!paper_kib.is_nan()).then_some(paper_kib),
            });
        }
    }
    Json::Arr(rows)
}

/// Appendix C: per FlipTH, the largest PARFM RFMTH whose system failure
/// probability stays below 1e-15 over 22 simultaneously attackable banks
/// (the values the Fig. 10 PARFM runs use), with the failure probability
/// there and at twice that RFMTH.
pub(crate) fn appendix_c() -> Json {
    let timing = Ddr5Timing::ddr5_4800();
    Json::arr(FLIP_TH_SWEEP.map(|flip| {
        let rfm = max_rfm_th(flip, FAILURE_TARGET, ATTACKABLE_BANKS, &timing);
        let failure = |r: u64| sci(system_failure(flip, r, ATTACKABLE_BANKS, &timing), 3);
        json_obj! {
            "flip_th": flip,
            "solved_rfm_th": rfm,
            "system_failure_at_solved": rfm.map(failure),
            "failure_at_2x_rfmth": rfm.map(|r| failure(2 * r)),
        }
    }))
}

/// Appendix C's failure curve: single-row and system failure probability
/// vs RFMTH at FlipTH 6.25K.
pub(crate) fn appendix_c_curve() -> Json {
    let timing = Ddr5Timing::ddr5_4800();
    Json::arr([16u64, 32, 48, 64, 80, 96, 128, 192, 256].map(|rfm| {
        json_obj! {
            "rfm_th": rfm,
            "single_row_failure": sci(single_row_failure(6_250, rfm, &timing), 3),
            "system_failure": sci(system_failure(6_250, rfm, ATTACKABLE_BANKS, &timing), 3),
        }
    }))
}

/// The ablation's FlipTH.
pub(crate) const ABLATION_FLIP: u64 = 6_250;
const ABLATION_RFM: u64 = 128;

/// A Mithril variant with a pluggable RFM selection policy.
struct Variant {
    table: MithrilTable<u64>,
    policy: Policy,
    rr_cursor: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Policy {
    /// Refresh table rows round-robin regardless of counts. (The paper's
    /// greedy policy itself runs through the real [`MithrilScheme`].)
    RoundRobin,
    /// Greedy max but never decrement the selected counter.
    NoDecrement,
}

impl Variant {
    fn new(nentry: usize, policy: Policy) -> Self {
        Self {
            table: MithrilTable::new(nentry),
            policy,
            rr_cursor: 0,
        }
    }
}

impl DramMitigation for Variant {
    fn on_activate(&mut self, row: RowId) {
        self.table.on_activate(row);
    }

    fn on_rfm_into(&mut self, out: &mut RfmOutcome) {
        match self.policy {
            Policy::RoundRobin => {
                // Refresh whichever tracked row the cursor lands on.
                let entries: Vec<RowId> = self.table.iter_relative().map(|(r, _)| r).collect();
                if entries.is_empty() {
                    out.reset_to_skipped();
                    return;
                }
                let row = entries[(self.rr_cursor as usize) % entries.len()];
                self.rr_cursor += 1;
                out.begin_refresh(row).extend(victims(row, 1, ROWS));
            }
            Policy::NoDecrement => {
                // Greedy selection, but the counter keeps its value: the
                // same row is selected forever while others grow unseen.
                let max = self.table.iter_relative().max_by_key(|&(_, c)| c);
                match max {
                    Some((row, _)) => out.begin_refresh(row).extend(victims(row, 1, ROWS)),
                    None => out.reset_to_skipped(),
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        match self.policy {
            Policy::RoundRobin => "round-robin",
            Policy::NoDecrement => "no-decrement",
        }
    }
}

/// Runs the attack battery for one tREFW and returns the worst
/// disturbance seen.
fn worst_case(engine: impl Fn() -> Box<dyn DramMitigation>, nentry: u64) -> u64 {
    let timing = Ddr5Timing::ddr5_4800();
    let patterns: Vec<Box<dyn Fn(u64) -> u64>> = vec![
        Box::new(|_| 1_000),                             // single row
        Box::new(|i| 999 + 2 * (i % 2)),                 // double-sided
        Box::new(|i| 5_000 + 2 * (i % 32)),              // multi-sided
        Box::new(move |i| 100 + 2 * (i % (nentry + 7))), // table thrash
        Box::new(move |i| 100 + 2 * (i % (2 * nentry))), // 2x thrash
    ];
    let mut worst = 0;
    for p in &patterns {
        let mut h = AttackHarness::new(timing, engine(), ABLATION_RFM, u64::MAX);
        let mut i = 0u64;
        while h.try_activate(p(i)) {
            i += 1;
        }
        worst = worst.max(h.oracle().max_disturbance());
    }
    worst
}

#[derive(Debug, Clone, Copy)]
enum Knockout {
    /// The paper's mechanism, optionally with a shrunken table.
    Greedy { nentry_div: usize },
    /// Selection policy replaced.
    Policy(Policy),
}

/// The ablation at FlipTH 6.25K, RFMTH 128: each of Mithril's
/// load-bearing choices knocked out at command level — greedy selection
/// (round-robin instead), decrement-after-refresh (none), and the
/// Theorem 1 table size (halved, quartered) — with the worst victim
/// disturbance over one attack battery. The first row is the paper's
/// configuration.
pub(crate) fn ablation(pool: PoolConfig) -> Json {
    let timing = Ddr5Timing::ddr5_4800();
    let cfg = MithrilConfig::for_flip_threshold(ABLATION_FLIP, ABLATION_RFM, &timing).unwrap();
    let n = cfg.nentry;
    let variants = [
        ("greedy (paper)", Knockout::Greedy { nentry_div: 1 }),
        (
            "round-robin selection",
            Knockout::Policy(Policy::RoundRobin),
        ),
        (
            "greedy w/o decrement",
            Knockout::Policy(Policy::NoDecrement),
        ),
        ("greedy, Nentry/2", Knockout::Greedy { nentry_div: 2 }),
        ("greedy, Nentry/4", Knockout::Greedy { nentry_div: 4 }),
    ];
    Json::arr(run_sharded(&variants, pool, 0, |&(label, knockout), _| {
        let (nentry, worst) = match knockout {
            Knockout::Greedy { nentry_div } => {
                let small = (n / nentry_div).max(1);
                let small_cfg = MithrilConfig {
                    nentry: small,
                    ..cfg
                };
                let engine =
                    move || -> Box<dyn DramMitigation> { Box::new(MithrilScheme::new(small_cfg)) };
                (small, worst_case(engine, small as u64))
            }
            Knockout::Policy(policy) => (
                n,
                worst_case(|| Box::new(Variant::new(n, policy)), n as u64),
            ),
        };
        json_obj! {
            "variant": label,
            "nentry": nentry,
            "worst_disturbance": worst,
            "safe": worst < ABLATION_FLIP,
        }
    }))
}
