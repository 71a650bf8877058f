//! Property tests on the command-level harness and oracle invariants.

use mithril_dram::{AttackHarness, Ddr5Timing, NoMitigation, RowHammerOracle};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Oracle accounting identity, for both counter stores: every ACT
    /// adds exactly one disturbance to each in-range neighbour; refreshes
    /// only ever remove counts.
    #[test]
    fn oracle_disturbance_identity(
        acts in prop::collection::vec(1u64..999, 1..500),
        refresh_every in 5usize..50,
    ) {
        for mut o in [
            RowHammerOracle::new(u64::MAX, 1, 1_000),
            RowHammerOracle::flat(u64::MAX, 1, 1_000),
        ] {
            let mut expected: std::collections::HashMap<u64, u64> = Default::default();
            for (i, &r) in acts.iter().enumerate() {
                o.on_activate(r);
                *expected.entry(r - 1).or_default() += 1;
                *expected.entry(r + 1).or_default() += 1;
                if i % refresh_every == 0 {
                    o.on_row_refreshed(r + 1);
                    expected.remove(&(r + 1));
                }
                for (&row, &count) in &expected {
                    prop_assert_eq!(o.disturbance(row), count, "row {}", row);
                }
            }
        }
    }

    /// Harness time accounting: the ACT slots consumed per window never
    /// exceed the analytical budget, for any RFMTH.
    #[test]
    fn harness_never_exceeds_act_budget(rfm_th in 1u64..512, row in 1u64..60_000) {
        let t = Ddr5Timing::ddr5_4800();
        let mut h = AttackHarness::new(t, Box::new(NoMitigation), rfm_th, u64::MAX);
        let mut acts = 0u64;
        while h.try_activate(row) {
            acts += 1;
        }
        prop_assert!(acts <= t.act_budget_per_trefw(), "acts = {}", acts);
        // And RFM commands happened exactly every rfm_th ACTs.
        prop_assert_eq!(h.counters().rfm_commands, acts / rfm_th);
    }

    /// Auto-refresh clears a hammered neighbour at least once per window:
    /// the disturbance of a fixed victim can never exceed the window
    /// budget even across multiple windows.
    #[test]
    fn auto_refresh_bounds_cross_window_accumulation(row in 1u64..60_000) {
        let t = Ddr5Timing::ddr5_4800();
        let mut h = AttackHarness::new(t, Box::new(NoMitigation), 1_000_000, u64::MAX);
        for _ in 0..2 {
            while h.try_activate(row) {}
            h.advance_window();
        }
        // Two windows of hammering, but auto-refresh visits every row once
        // per window: accumulated disturbance < 2x one-window budget.
        prop_assert!(h.oracle().max_disturbance() < 2 * t.act_budget_per_trefw());
        // And the oracle did see refreshes (full coverage of the bank).
        prop_assert!(h.counters().auto_refresh_rows >= AttackHarness::<mithril_obs::NullSink>::DEFAULT_ROWS);
    }
}
