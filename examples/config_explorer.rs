//! Configuration explorer: the trade-off a DRAM vendor navigates when
//! shipping Mithril (paper Section IV-D, Fig. 6).
//!
//! Prints, for a target FlipTH given on the command line (default 6250),
//! the whole feasible (RFMTH → Nentry/table-size) family, the adaptive
//! refresh surcharge, and the PARFM/PARA operating points at the same
//! protection level for comparison.
//!
//! ```text
//! cargo run --release --example config_explorer -- 3125
//! ```

use mithril_repro::baselines::{parfm_analysis, ParaConfig, ATTACKABLE_BANKS, FAILURE_TARGET};
use mithril_repro::core::MithrilConfig;
use mithril_repro::dram::Ddr5Timing;

fn main() {
    let flip_th: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6_250);
    let timing = Ddr5Timing::ddr5_4800();

    println!("Mithril configuration family for FlipTH = {flip_th}");
    println!("(every row guarantees M < FlipTH/2 — deterministic protection)\n");
    println!(
        "{:>7} {:>8} {:>12} {:>11} {:>15}",
        "RFMTH", "Nentry", "counter bits", "table KiB", "+adaptive(200)"
    );
    for rfm_th in [16u64, 32, 64, 128, 256, 512, 1024] {
        match MithrilConfig::for_flip_threshold(flip_th, rfm_th, &timing) {
            Ok(cfg) => {
                let adaptive = cfg
                    .with_adaptive(200, &timing)
                    .map(|a| format!("{} entries", a.nentry))
                    .unwrap_or_else(|_| "-".into());
                println!(
                    "{:>7} {:>8} {:>12} {:>11.2} {:>15}",
                    rfm_th,
                    cfg.nentry,
                    cfg.counter_bits(&timing),
                    cfg.table_kib(),
                    adaptive
                );
            }
            Err(e) => println!("{rfm_th:>7} {:>8}  ({e})", "-"),
        }
    }

    println!("\nProbabilistic alternatives at the same FlipTH (10^-15 target):");
    match parfm_analysis::max_rfm_th(flip_th, FAILURE_TARGET, ATTACKABLE_BANKS, &timing) {
        Some(r) => {
            println!("  PARFM: RFMTH = {r} (refreshes on every RFM, no table at all)")
        }
        None => println!("  PARFM: cannot meet the target at any RFMTH"),
    }
    let para = ParaConfig::for_failure_target(
        flip_th,
        FAILURE_TARGET,
        timing.act_budget_per_trefw(),
        ATTACKABLE_BANKS,
    );
    println!(
        "  PARA:  refresh probability p = {:.5} (one ARR per ~{:.0} ACTs)",
        para.probability,
        1.0 / para.probability.max(1e-12)
    );
    println!("\nReading the table: larger RFMTH = fewer RFM stalls (performance)");
    println!("but a bigger table (area). The adaptive column shows the extra");
    println!("entries Theorem 2 demands so that energy-saving skips stay safe.");
}
