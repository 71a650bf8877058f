//! Cross-crate integration tests: the full stack from workload generation
//! through cores, LLC, memory controller, DRAM device, mitigation engines
//! and the disturbance oracle.

use mithril_repro::baselines::parfm_analysis;
use mithril_repro::core::{bounds, MithrilConfig, MithrilScheme};
use mithril_repro::dram::{AttackHarness, Ddr5Timing};
use mithril_repro::sim::{Scheme, System, SystemConfig};
use mithril_repro::workloads::{
    attack_mix, bh_cover_attack_mix, mix_blend, mix_high, multithreaded,
};

fn quick(scheme: Scheme, flip_th: u64) -> SystemConfig {
    let mut cfg = SystemConfig::table_iii();
    cfg.cores = 4;
    cfg.flip_th = flip_th;
    cfg.scheme = scheme;
    cfg
}

#[test]
fn every_scheme_survives_every_workload_class() {
    // Smoke matrix: all schemes × representative workloads; no panics, no
    // flips for deterministic schemes, forward progress everywhere.
    let schemes = [
        Scheme::None,
        Scheme::Mithril {
            rfm_th: 64,
            ad_th: Some(200),
            plus: false,
        },
        Scheme::Mithril {
            rfm_th: 64,
            ad_th: Some(200),
            plus: true,
        },
        Scheme::Parfm,
        Scheme::Para,
        Scheme::Graphene,
        Scheme::TwiCe,
        Scheme::Cbt,
        Scheme::BlockHammer { nbl_scale: 6 },
    ];
    for scheme in schemes {
        let cfg = quick(scheme, 3_125);
        for (i, threads) in [
            mix_high(4, 7),
            mix_blend(4, 7),
            multithreaded("pagerank", 4, 7),
            attack_mix("double", 4, cfg.mapping(), 7),
        ]
        .into_iter()
        .enumerate()
        {
            let mut sys = System::new(cfg, threads).unwrap();
            let m = sys.run(8_000, u64::MAX);
            assert!(
                m.total_insts >= 4 * 8_000,
                "{} stalled on workload {i}",
                cfg.scheme.name()
            );
            assert!(m.aggregate_ipc > 0.0);
        }
    }
}

#[test]
fn deterministic_schemes_never_flip_under_system_level_attack() {
    for scheme in [
        Scheme::Mithril {
            rfm_th: 32,
            ad_th: Some(200),
            plus: false,
        },
        Scheme::Mithril {
            rfm_th: 32,
            ad_th: Some(200),
            plus: true,
        },
        Scheme::Graphene,
        Scheme::TwiCe,
        Scheme::Cbt,
    ] {
        let cfg = quick(scheme, 1_500);
        let threads = attack_mix("multi", 4, cfg.mapping(), 3);
        let mut sys = System::new(cfg, threads).unwrap();
        let m = sys.run(60_000, u64::MAX);
        assert_eq!(m.flips, 0, "{} flipped", cfg.scheme.name());
        assert!(
            m.max_disturbance < 1_500,
            "{}: disturbance {}",
            cfg.scheme.name(),
            m.max_disturbance
        );
    }
}

#[test]
fn mithril_plus_dominates_mithril_in_rfm_traffic() {
    // Same workload, same table: Mithril+ must issue no more RFMs than
    // Mithril (elision can only remove commands).
    let run = |plus: bool| {
        let cfg = quick(
            Scheme::Mithril {
                rfm_th: 64,
                ad_th: Some(200),
                plus,
            },
            6_250,
        );
        let mut sys = System::new(cfg, mix_blend(4, 5)).unwrap();
        sys.run(30_000, u64::MAX)
    };
    let mithril = run(false);
    let plus = run(true);
    assert!(
        plus.counters.rfm_commands <= mithril.counters.rfm_commands,
        "{} > {}",
        plus.counters.rfm_commands,
        mithril.counters.rfm_commands
    );
    assert!(plus.rfm_elisions > 0);
}

#[test]
fn theorem_bound_is_respected_end_to_end() {
    // Command-level worst case: observed per-victim disturbance stays
    // below 2×M (two aggressors, each bounded by Theorem 1).
    let timing = Ddr5Timing::ddr5_4800();
    for (flip, rfm) in [(6_250u64, 64u64), (3_125, 32)] {
        let cfg = MithrilConfig::for_flip_threshold(flip, rfm, &timing).unwrap();
        let m = bounds::theorem1_bound(cfg.nentry, rfm, &timing);
        let mut h = AttackHarness::new(timing, Box::new(MithrilScheme::new(cfg)), rfm, flip);
        let mut i = 0;
        while h.try_activate(999 + 2 * (i % 2)) {
            i += 1;
        }
        let observed = h.oracle().max_disturbance();
        assert!(
            (observed as f64) < 2.0 * m,
            "FlipTH {flip}: observed {observed} vs 2M = {}",
            2.0 * m
        );
        assert_eq!(h.oracle().flips().len(), 0);
    }
}

#[test]
fn energy_ordering_matches_paper_fig10d() {
    // PARFM refreshes on every RFM; Mithril skips benign ones; Mithril+
    // also elides the commands. Energy must order accordingly on benign
    // workloads.
    let energy = |scheme: Scheme| {
        let cfg = quick(scheme, 3_125);
        let mut sys = System::new(cfg, mix_high(4, 9)).unwrap();
        sys.run(30_000, u64::MAX).energy_pj
    };
    let baseline = energy(Scheme::None);
    let parfm = energy(Scheme::Parfm);
    let mithril = energy(Scheme::Mithril {
        rfm_th: 64,
        ad_th: Some(200),
        plus: false,
    });
    assert!(parfm > baseline, "PARFM must add energy");
    assert!(mithril < parfm, "Mithril must beat PARFM on energy");
}

#[test]
fn parfm_rfm_rate_follows_solved_threshold() {
    let timing = Ddr5Timing::ddr5_4800();
    let solved = parfm_analysis::max_rfm_th(3_125, 1e-15, 22, &timing).unwrap();
    let cfg = quick(Scheme::Parfm, 3_125);
    let mut sys = System::new(cfg, mix_high(4, 2)).unwrap();
    let m = sys.run(30_000, u64::MAX);
    // RFMs ≈ ACTs / solved threshold (within slack for per-bank rounding).
    let expected = m.counters.acts / solved;
    assert!(
        m.counters.rfm_commands >= expected / 4,
        "rfms {} << expected {expected}",
        m.counters.rfm_commands
    );
    assert!(
        m.counters.rfm_commands <= expected + 64 * 2,
        "rfms {} >> expected {expected}",
        m.counters.rfm_commands
    );
}

#[test]
fn blockhammer_adversarial_pattern_hurts_blockhammer_most() {
    // The paper's Fig. 10(c) headline: the profiled CBF-collision pattern
    // degrades BlockHammer while Mithril is pattern-agnostic.
    let run = |scheme: Scheme| {
        let cfg = quick(scheme, 1_500);
        let threads = bh_cover_attack_mix(
            4,
            cfg.mapping(),
            cfg.flip_th,
            &Ddr5Timing::ddr5_4800(),
            &[0, 1, 249, 250],
            2,
            3,
        );
        let mut sys = System::new(cfg, threads).unwrap();
        // Long enough for the ~123 µs paper-scale throttle delays to land,
        // but time-capped so the throttled attacker cannot stall the run.
        sys.run(250_000, 500 * 1_000_000)
    };
    let baseline = run(Scheme::None);
    let bh = run(Scheme::BlockHammer { nbl_scale: 6 });
    let mithril = run(Scheme::Mithril {
        rfm_th: 32,
        ad_th: Some(200),
        plus: true,
    });
    let bh_norm = bh.normalized_ipc(&baseline);
    let mithril_norm = mithril.normalized_ipc(&baseline);
    assert!(
        bh_norm < mithril_norm,
        "BlockHammer ({bh_norm:.3}) should suffer more than Mithril+ ({mithril_norm:.3})"
    );
    assert!(
        bh.throttled_acts > 0,
        "adversarial pattern must trigger throttling"
    );
}
