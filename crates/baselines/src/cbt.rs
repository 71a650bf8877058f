//! CBT: Counter-Based Trees (Seyedzadeh et al.).
//!
//! CBT allocates a limited pool of counters as an adaptively splitting tree
//! over the row space (see [`mithril_trackers::CounterTree`]): groups that
//! get hot split into smaller groups; a leaf whose counter crosses the
//! group threshold triggers a preventive refresh of *every row in the
//! group* plus the boundary neighbours.
//!
//! The paper's Section III-D explains why this tracking style does not port
//! to RFM: during tree construction a premature group refresh covers many
//! rows (too much work for one tRFM window), and wide leaves keep not
//! fitting; so CBT stays an MC-side ARR scheme here, as in Table I.

use mithril_dram::{BankId, Ddr5Timing, RowId, TimePs};
use mithril_memctrl::{McAction, McMitigation};
use mithril_trackers::CounterTree;

/// CBT configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbtConfig {
    /// Counter pool size per bank.
    pub counters: usize,
    /// Leaf split threshold (counts at which a group subdivides).
    pub split_threshold: u64,
    /// Group refresh threshold (`FlipTH/2`).
    pub refresh_threshold: u64,
    /// Tree reset period (tREFW).
    pub reset_period: TimePs,
    /// Rows per bank.
    pub rows_per_bank: u64,
}

impl CbtConfig {
    /// Provisioning following the original work's scaling: enough counters
    /// that every group that could reach `FlipTH/4` within a window can be
    /// isolated (`counters ≈ budget/(FlipTH/4)`), splitting at `FlipTH/8`
    /// so trees form well before danger.
    ///
    /// # Panics
    ///
    /// Panics if `flip_th < 8`.
    pub fn for_flip_threshold(flip_th: u64, timing: &Ddr5Timing) -> Self {
        assert!(flip_th >= 8, "flip_th too small");
        let budget = timing.act_budget_per_trefw();
        let counters = (budget / (flip_th / 4).max(1) + 1) as usize;
        Self {
            counters,
            split_threshold: (flip_th / 8).max(1),
            refresh_threshold: flip_th / 2,
            reset_period: timing.trefw,
            rows_per_bank: 65_536,
        }
    }

    /// Per-bank table size in KiB: each tree node stores a counter wide
    /// enough for `FlipTH/2` plus two row-address bounds.
    pub fn table_kib(&self) -> f64 {
        let addr_bits = 64 - (self.rows_per_bank - 1).leading_zeros();
        let count_bits = 64 - self.refresh_threshold.leading_zeros();
        self.counters as f64 * (count_bits + 2 * addr_bits) as f64 / 8.0 / 1024.0
    }
}

/// The CBT mitigation across all banks of a channel.
///
/// # Example
///
/// ```
/// use mithril_baselines::{Cbt, CbtConfig};
/// use mithril_dram::Ddr5Timing;
/// use mithril_memctrl::{McAction, McMitigation};
///
/// let t = Ddr5Timing::ddr5_4800();
/// let mut cbt = Cbt::new(CbtConfig::for_flip_threshold(6_250, &t), 1);
/// let mut refreshed = 0;
/// for _ in 0..6_250 {
///     if let McAction::Arr { victims, .. } = cbt.on_activate(0, 300, 0, 0) {
///         refreshed += victims.len();
///     }
/// }
/// assert!(refreshed > 0, "a hammered group must get refreshed");
/// ```
#[derive(Debug)]
pub struct Cbt {
    config: CbtConfig,
    trees: Vec<CounterTree>,
    next_reset: TimePs,
    group_refreshes: u64,
    rows_refreshed: u64,
}

impl Cbt {
    /// Creates per-bank trees for `banks` banks.
    pub fn new(config: CbtConfig, banks: usize) -> Self {
        Self {
            trees: (0..banks)
                .map(|_| {
                    CounterTree::new(
                        config.rows_per_bank,
                        config.counters,
                        config.split_threshold,
                    )
                })
                .collect(),
            next_reset: config.reset_period,
            config,
            group_refreshes: 0,
            rows_refreshed: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CbtConfig {
        &self.config
    }

    /// Group refreshes triggered so far.
    pub fn group_refreshes(&self) -> u64 {
        self.group_refreshes
    }

    /// Total rows preventively refreshed (group refreshes are expensive:
    /// this is CBT's energy weakness on wide leaves).
    pub fn rows_refreshed(&self) -> u64 {
        self.rows_refreshed
    }
}

impl McMitigation for Cbt {
    fn on_activate(&mut self, bank: BankId, row: RowId, _thread: usize, now: TimePs) -> McAction {
        while now >= self.next_reset {
            for t in &mut self.trees {
                t.clear();
            }
            self.next_reset += self.config.reset_period;
        }
        let tree = &mut self.trees[bank];
        tree.record(row);
        if tree.estimate(row) >= self.config.refresh_threshold {
            let group = tree.reset_group(row);
            // Refresh every row of the group plus the boundary neighbours.
            let lo = group.start.saturating_sub(1);
            let hi = (group.end + 1).min(self.config.rows_per_bank);
            let victims: Vec<RowId> = (lo..hi).collect();
            self.group_refreshes += 1;
            self.rows_refreshed += victims.len() as u64;
            McAction::Arr { bank, victims }
        } else {
            McAction::None
        }
    }

    fn name(&self) -> &'static str {
        "cbt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> Ddr5Timing {
        Ddr5Timing::ddr5_4800()
    }

    #[test]
    fn config_scales_with_flipth() {
        let t = timing();
        let c50 = CbtConfig::for_flip_threshold(50_000, &t);
        let c1_5 = CbtConfig::for_flip_threshold(1_500, &t);
        assert!(c1_5.counters > 10 * c50.counters);
        // Table IV scale: 0.47 KB at 50K growing to ~17.5 KB at 1.5K.
        assert!(
            (0.1..1.2).contains(&c50.table_kib()),
            "k50 = {}",
            c50.table_kib()
        );
        assert!(
            (5.0..30.0).contains(&c1_5.table_kib()),
            "k1.5 = {}",
            c1_5.table_kib()
        );
    }

    #[test]
    fn hammered_row_gets_group_refreshed_before_flipth() {
        let t = timing();
        let flip = 6_250u64;
        let mut cbt = Cbt::new(CbtConfig::for_flip_threshold(flip, &t), 1);
        let mut acts_between_refreshes = 0u64;
        let mut worst = 0u64;
        for _ in 0..5 * flip {
            acts_between_refreshes += 1;
            if let McAction::Arr { victims, .. } = cbt.on_activate(0, 300, 0, 0) {
                assert!(victims.contains(&299) && victims.contains(&301));
                worst = worst.max(acts_between_refreshes);
                acts_between_refreshes = 0;
            }
        }
        assert!(
            worst <= flip / 2,
            "victims must refresh within FlipTH/2 ACTs, got {worst}"
        );
        assert!(cbt.group_refreshes() >= 9);
    }

    #[test]
    fn tree_splits_isolate_hot_rows_over_time() {
        let t = timing();
        let mut cbt = Cbt::new(CbtConfig::for_flip_threshold(6_250, &t), 1);
        // Early refreshes cover wide groups; once the tree splits, groups
        // shrink and refreshes get cheaper.
        let mut sizes = Vec::new();
        for _ in 0..20_000u64 {
            if let McAction::Arr { victims, .. } = cbt.on_activate(0, 1234, 0, 0) {
                sizes.push(victims.len());
            }
        }
        assert!(!sizes.is_empty());
        assert!(
            sizes.last().unwrap() <= sizes.first().unwrap(),
            "group refreshes must not grow: {sizes:?}"
        );
    }

    #[test]
    fn reset_period_rebuilds_trees() {
        let t = timing();
        let cfg = CbtConfig::for_flip_threshold(6_250, &t);
        let mut cbt = Cbt::new(cfg, 1);
        for _ in 0..1000 {
            cbt.on_activate(0, 7, 0, 0);
        }
        // After reset, the first activation sees a root-wide group.
        cbt.on_activate(0, 7, 0, cfg.reset_period + 1);
        assert_eq!(cbt.trees[0].stats().leaves, 1);
    }

    #[test]
    fn wide_group_refresh_is_expensive() {
        // Hit the refresh threshold while the tree is still coarse by
        // using a tiny counter pool: the refresh covers many rows — the
        // RFM-incompatibility argument of Section III-D.
        let t = timing();
        let mut cfg = CbtConfig::for_flip_threshold(6_250, &t);
        cfg.counters = 1; // root only
        let mut cbt = Cbt::new(cfg, 1);
        let mut widest = 0usize;
        for i in 0..(cfg.refresh_threshold + 2) {
            if let McAction::Arr { victims, .. } = cbt.on_activate(0, i % 1000, 0, 0) {
                widest = widest.max(victims.len());
            }
        }
        assert!(
            widest > 8,
            "root-level refresh must cover many rows, got {widest}"
        );
    }
}
