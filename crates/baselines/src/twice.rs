//! TWiCe: Time Window Counters (Lee et al., ISCA 2019).
//!
//! TWiCe tracks aggressor candidates in a lossy-counting table kept on the
//! DIMM buffer chip. Every entry stores `(row, act_cnt, life)`; at every
//! tREFI checkpoint all lives increment and entries whose count can no
//! longer reach the hammer threshold within the window are pruned
//! (`act_cnt < pruning_th × life`). A row whose count crosses
//! `twice_th = FlipTH/4` gets an ARR on its neighbours.
//!
//! TWiCe's guarantee is two-sided like CbS, but its table must hold every
//! row that *might* become hot, which costs an order of magnitude more
//! entries than Graphene/Mithril at equal FlipTH (paper Fig. 6, Table IV).
//! In the simulator TWiCe uses the ARR path ([`McMitigation`]) with its
//! feedback-augmented command, as in the paper's classification (Table I).

use mithril_dram::{victims, BankId, Ddr5Timing, RowId, TimePs};
use mithril_fasthash::FastHashMap;
use mithril_memctrl::{McAction, McMitigation};

/// TWiCe configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwiCeConfig {
    /// ARR trigger threshold (`FlipTH/4`).
    pub twice_th: u64,
    /// Pruning rate in ACTs per life (per tREFI checkpoint).
    pub pruning_th: f64,
    /// Checkpoint (tREFI) period.
    pub checkpoint_period: TimePs,
    /// Window length in checkpoints (tREFW / tREFI).
    pub window_checkpoints: u64,
    /// Rows per bank.
    pub rows_per_bank: u64,
}

impl TwiCeConfig {
    /// The TWiCe provisioning rule for a FlipTH under the given timing:
    /// trigger at `FlipTH/4`, prune at `twice_th / window_checkpoints`
    /// ACTs per life.
    ///
    /// # Panics
    ///
    /// Panics if `flip_th < 4`.
    pub fn for_flip_threshold(flip_th: u64, timing: &Ddr5Timing) -> Self {
        assert!(flip_th >= 4, "flip_th too small");
        let twice_th = flip_th / 4;
        let window_checkpoints = timing.trefw / timing.trefi;
        Self {
            twice_th,
            pruning_th: twice_th as f64 / window_checkpoints as f64,
            checkpoint_period: timing.trefi,
            window_checkpoints,
            rows_per_bank: 65_536,
        }
    }

    /// Analytic per-bank table size in KiB.
    ///
    /// Worst-case live entries sum a harmonic series over life classes: at
    /// life `L` an entry needs `≥ pruning_th × L` ACTs, and a checkpoint
    /// admits `budget_per_checkpoint / (pruning_th × L)` such rows, so
    /// `N ≈ (budget_per_ckpt / pruning_th) × H(window_checkpoints)` — the
    /// order-of-magnitude-over-Graphene result of Table IV.
    pub fn table_kib(&self, timing: &Ddr5Timing) -> f64 {
        let budget_per_ckpt = timing.act_budget_per_trefw() as f64 / self.window_checkpoints as f64;
        let harmonic: f64 = (1..=self.window_checkpoints).map(|k| 1.0 / k as f64).sum();
        let entries = budget_per_ckpt / self.pruning_th * harmonic;
        // Entry: row address + count (up to twice_th) + life counter.
        let addr_bits = 64 - (self.rows_per_bank - 1).leading_zeros();
        let count_bits = 64 - self.twice_th.leading_zeros();
        let life_bits = 64 - self.window_checkpoints.leading_zeros();
        entries * (addr_bits + count_bits + life_bits) as f64 / 8.0 / 1024.0
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    act_cnt: u64,
    life: u64,
}

/// The TWiCe mitigation across all banks of a channel.
///
/// # Example
///
/// ```
/// use mithril_baselines::{TwiCe, TwiCeConfig};
/// use mithril_dram::Ddr5Timing;
/// use mithril_memctrl::{McAction, McMitigation};
///
/// let t = Ddr5Timing::ddr5_4800();
/// let mut tw = TwiCe::new(TwiCeConfig::for_flip_threshold(6_250, &t), 32);
/// let mut fired = false;
/// for _ in 0..6_250 / 4 + 1 {
///     if let McAction::Arr { .. } = tw.on_activate(0, 500, 0, 0) {
///         fired = true;
///     }
/// }
/// assert!(fired, "crossing FlipTH/4 must trigger an ARR");
/// ```
#[derive(Debug)]
pub struct TwiCe {
    config: TwiCeConfig,
    tables: Vec<FastHashMap<RowId, Entry>>,
    next_checkpoint: TimePs,
}

impl TwiCe {
    /// Creates per-bank TWiCe tables for `banks` banks.
    pub fn new(config: TwiCeConfig, banks: usize) -> Self {
        Self {
            tables: (0..banks).map(|_| FastHashMap::default()).collect(),
            next_checkpoint: config.checkpoint_period,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TwiCeConfig {
        &self.config
    }

    fn checkpoint(&mut self) {
        let pruning = self.config.pruning_th;
        for table in &mut self.tables {
            for e in table.values_mut() {
                e.life += 1;
            }
            table.retain(|_, e| (e.act_cnt as f64) >= pruning * e.life as f64);
        }
    }
}

impl McMitigation for TwiCe {
    fn on_activate(&mut self, bank: BankId, row: RowId, _thread: usize, now: TimePs) -> McAction {
        while now >= self.next_checkpoint {
            self.checkpoint();
            self.next_checkpoint += self.config.checkpoint_period;
        }
        let table = &mut self.tables[bank];
        let entry = table.entry(row).or_insert(Entry {
            act_cnt: 0,
            life: 1,
        });
        entry.act_cnt += 1;
        if entry.act_cnt >= self.config.twice_th {
            // Feedback: the refreshed aggressor's entry restarts.
            table.remove(&row);
            McAction::Arr {
                bank,
                victims: victims(row, 1, self.config.rows_per_bank).collect(),
            }
        } else {
            McAction::None
        }
    }

    fn on_auto_refresh(&mut self, bank: BankId, lo: RowId, hi: RowId) {
        // Rows auto-refreshed in this tREFI group restart their window.
        self.tables[bank].retain(|&row, _| row < lo || row >= hi);
    }

    fn name(&self) -> &'static str {
        "twice"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> Ddr5Timing {
        Ddr5Timing::ddr5_4800()
    }

    #[test]
    fn config_matches_twice_rules() {
        let cfg = TwiCeConfig::for_flip_threshold(50_000, &timing());
        assert_eq!(cfg.twice_th, 12_500);
        assert_eq!(cfg.window_checkpoints, 8192);
        assert!((cfg.pruning_th - 12_500.0 / 8192.0).abs() < 1e-9);
    }

    #[test]
    fn table_kib_is_an_order_over_graphene() {
        let t = timing();
        // Paper Table IV: TWiCe 2.79 KB vs Graphene 0.14 KB at 50K.
        let tw = TwiCeConfig::for_flip_threshold(50_000, &t).table_kib(&t);
        assert!((1.5..6.0).contains(&tw), "twice = {tw}");
        let tw_low = TwiCeConfig::for_flip_threshold(1_500, &t).table_kib(&t);
        assert!(
            tw_low > 10.0 * tw,
            "low FlipTH must cost much more: {tw_low}"
        );
    }

    #[test]
    fn hot_row_triggers_arr_at_threshold() {
        let t = timing();
        let mut tw = TwiCe::new(TwiCeConfig::for_flip_threshold(6_250, &t), 1);
        let th = tw.config().twice_th;
        for i in 1..th {
            assert_eq!(
                tw.on_activate(0, 9, 0, 0),
                McAction::None,
                "fired early at {i}"
            );
        }
        assert!(matches!(tw.on_activate(0, 9, 0, 0), McAction::Arr { .. }));
        // Entry restarted: counting begins again.
        assert_eq!(tw.on_activate(0, 9, 0, 0), McAction::None);
    }

    #[test]
    fn cold_rows_get_pruned_at_checkpoints() {
        let t = timing();
        let cfg = TwiCeConfig::for_flip_threshold(6_250, &t);
        let mut tw = TwiCe::new(cfg, 1);
        // 100 rows touched once, then several checkpoints pass.
        for r in 0..100u64 {
            tw.on_activate(0, r, 0, 0);
        }
        // After two checkpoints a 1-ACT entry (pruning_th ≈ 0.19/life)
        // survives only while 1 >= 0.19*life, i.e. life <= 5.
        let after = cfg.checkpoint_period * 8;
        tw.on_activate(0, 50_000, 0, after);
        assert!(
            tw.tables[0].len() <= 2,
            "stale entries kept: {}",
            tw.tables[0].len()
        );
    }

    #[test]
    fn auto_refresh_feedback_clears_rows() {
        let t = timing();
        let mut tw = TwiCe::new(TwiCeConfig::for_flip_threshold(6_250, &t), 1);
        for _ in 0..10 {
            tw.on_activate(0, 123, 0, 0);
        }
        assert!(tw.tables[0].contains_key(&123));
        tw.on_auto_refresh(0, 120, 128);
        assert!(!tw.tables[0].contains_key(&123));
    }

    #[test]
    fn every_new_row_gets_an_entry() {
        let t = timing();
        let mut tw = TwiCe::new(TwiCeConfig::for_flip_threshold(6_250, &t), 1);
        for r in 0..500u64 {
            tw.on_activate(0, r, 0, 0);
        }
        assert_eq!(tw.tables[0].len(), 500);
    }

    #[test]
    fn banks_are_independent() {
        let t = timing();
        let mut tw = TwiCe::new(TwiCeConfig::for_flip_threshold(6_250, &t), 2);
        let th = tw.config().twice_th;
        for _ in 0..th - 1 {
            tw.on_activate(0, 9, 0, 0);
        }
        // Bank 1 has no history: its row 9 must not fire.
        assert_eq!(tw.on_activate(1, 9, 0, 0), McAction::None);
        assert!(matches!(
            tw.on_activate(0, 9, 0, 0),
            McAction::Arr { bank: 0, .. }
        ));
    }
}
