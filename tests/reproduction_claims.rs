//! Tests pinning the paper's *quantitative* claims that the reproduction
//! must preserve (the shapes the `paper` report checks at full scale).

use mithril_repro::baselines::{
    parfm_analysis, BlockHammerConfig, GrapheneConfig, TwiCeConfig, FLIP_TH_SWEEP,
};
use mithril_repro::core::{bounds, MithrilConfig};
use mithril_repro::dram::Ddr5Timing;
use mithril_repro::runner::scenarios::default_rfm_th;

fn timing() -> Ddr5Timing {
    Ddr5Timing::ddr5_4800()
}

#[test]
fn claim_6_25k_config_is_1kb_class() {
    // Section VI-B: "Mithril can support FlipTH ≈ 6.25K with RFMTH = 128
    // … and a table size per bank of 1KB."
    let c = MithrilConfig::for_flip_threshold(6_250, 128, &timing()).unwrap();
    assert!(c.table_kib() < 1.2, "table = {:.2} KiB", c.table_kib());
}

#[test]
fn claim_low_flipth_needs_4kb_class() {
    // Section VI-B: "lower FlipTH … at the cost of ~2% performance and
    // 4KB of area."
    let c = MithrilConfig::for_flip_threshold(1_500, 32, &timing()).unwrap();
    assert!(
        (2.0..7.0).contains(&c.table_kib()),
        "table = {:.2} KiB",
        c.table_kib()
    );
}

#[test]
fn claim_mithril_tables_4_to_60x_smaller_than_blockhammer() {
    // Section VI-C: "The table size of Mithril is up to 60× and a minimum
    // of 4× smaller than that of BlockHammer at all FlipTH levels."
    let t = timing();
    for flip in FLIP_TH_SWEEP {
        let bh = BlockHammerConfig::for_flip_threshold(flip, &t).table_kib();
        let m = MithrilConfig::for_flip_threshold(flip, default_rfm_th(flip), &t)
            .unwrap()
            .table_kib();
        let ratio = bh / m;
        assert!(
            (2.0..80.0).contains(&ratio),
            "FlipTH {flip}: BlockHammer/Mithril = {ratio:.1}"
        );
    }
}

#[test]
fn claim_twice_an_order_of_magnitude_over_graphene() {
    // Related work: "TWiCe … requires an order of magnitude more storage
    // to track aggressor rows compared to Graphene."
    let t = timing();
    for flip in [50_000u64, 12_500, 3_125] {
        let tw = TwiCeConfig::for_flip_threshold(flip, &t).table_kib(&t);
        let g = GrapheneConfig::for_flip_threshold(flip, &t).table_kib(&t);
        assert!(
            tw / g > 5.0,
            "FlipTH {flip}: TWiCe/Graphene = {:.1}",
            tw / g
        );
    }
}

#[test]
fn claim_counter_width_single_bank_fits_16_bits() {
    // Section IV-E / VI-E: wrapping counters bounded by M fit narrow CAMs
    // at every evaluated configuration.
    let t = timing();
    for (flip, rfm) in [
        (50_000u64, 256u64),
        (12_500, 256),
        (6_250, 128),
        (1_500, 32),
    ] {
        let c = MithrilConfig::for_flip_threshold(flip, rfm, &t).unwrap();
        assert!(
            c.counter_bits(&t) <= 16,
            "({flip},{rfm}): {} bits",
            c.counter_bits(&t)
        );
    }
}

#[test]
fn claim_m_shrinks_with_nentry_until_w() {
    // Section IV-D: the Nentry ↔ RFMTH trade-off exists for every FlipTH:
    // more entries lower the bound (until N approaches W).
    let t = timing();
    for rfm in [32u64, 64, 128] {
        let m_small = bounds::theorem1_bound(64, rfm, &t);
        let m_big = bounds::theorem1_bound(512, rfm, &t);
        assert!(m_big < m_small);
    }
}

#[test]
fn claim_parfm_needs_lower_rfmth_than_mithril_at_low_flipth() {
    // Section III-E / VI: "as FlipTH decreases, PARFM requires a lower
    // RFMTH than those in deterministic RFM-based schemes."
    let t = timing();
    let parfm = parfm_analysis::max_rfm_th(1_500, 1e-15, 22, &t).unwrap();
    // Mithril protects 1.5K at RFMTH = 32.
    assert!(MithrilConfig::for_flip_threshold(1_500, 32, &t).is_ok());
    assert!(parfm < 32, "PARFM RFMTH = {parfm}");
}

#[test]
fn claim_adaptive_refresh_surcharge_small() {
    // Fig. 7: "a small increase in Nentry, a maximum of 12% at only a very
    // low FlipTH value" (we allow up to 20% for our exact solver).
    let t = timing();
    for (flip, rfm) in [(3_125u64, 16u64), (6_250, 64)] {
        let base = MithrilConfig::for_flip_threshold(flip, rfm, &t)
            .unwrap()
            .nentry;
        let ad = MithrilConfig::solve(flip, rfm, 1, Some(200), &t)
            .unwrap()
            .nentry;
        let pct = (ad as f64 / base as f64 - 1.0) * 100.0;
        assert!(pct <= 20.0, "({flip},{rfm}): +{pct:.1}%");
    }
}

#[test]
fn claim_rfm_graphene_has_a_flipth_floor() {
    // Fig. 2's analytical skeleton: the best safe FlipTH of the buffered
    // threshold scheme cannot go below ~budget·R/(T+R) + T, minimized near
    // T = sqrt(budget·R); check the floor exceeds 10K at RFMTH 64.
    let t = timing();
    let budget = t.act_budget_per_trefw() as f64;
    let r = 64.0;
    let floor = (0..20)
        .map(|i| {
            let thr = 250.0 * (i + 1) as f64;
            thr + budget * r / (thr + r)
        })
        .fold(f64::INFINITY, f64::min);
    assert!(floor > 10_000.0, "floor = {floor:.0}");
}

#[test]
fn claim_flipth_sweep_all_feasible_for_mithril() {
    // Table IV: Mithril-32 covers the whole sweep down to 1.5K.
    let t = timing();
    for flip in FLIP_TH_SWEEP {
        assert!(
            MithrilConfig::for_flip_threshold(flip, 32, &t).is_ok(),
            "FlipTH {flip} infeasible at RFMTH 32"
        );
    }
}
