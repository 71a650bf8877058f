//! Graphene (Park et al., MICRO 2020) and the RFM-Graphene strawman.
//!
//! **Graphene** is the state-of-the-art MC-side deterministic scheme: a
//! Counter-based Summary table whose entries trigger an immediate ARR every
//! time their estimated count crosses another multiple of the trigger
//! threshold `T`. The table is reset every reset window; to keep the
//! guarantee across the reset boundary the threshold must be provisioned at
//! `T = FlipTH/4` (half for double-sided, half again for the reset — the
//! two-fold cost Mithril's wrapping counters avoid, paper Section IV-E).
//!
//! **RFM-Graphene** (paper Fig. 2) ports the same trigger logic to the RFM
//! interface: rows crossing `T` are buffered and their victims refreshed
//! only when RFM windows arrive. Because RFM is periodic — one refresh per
//! `RFMTH` ACTs — a burst of rows crossing `T` together queues up, and the
//! last row in the queue keeps taking hits while it waits. This is the
//! concentration weakness that motivates Mithril's greedy selection.

use mithril::MithrilTable;
use mithril_dram::{victims, BankId, Ddr5Timing, DramMitigation, RfmOutcome, RowId, TimePs};
use mithril_memctrl::{McAction, McMitigation};
use std::collections::VecDeque;

/// Graphene configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrapheneConfig {
    /// Trigger threshold `T`: an ARR fires each time an entry's estimate
    /// crosses a multiple of `T`.
    pub threshold: u64,
    /// Table entries.
    pub nentry: usize,
    /// Table reset period (the paper resets every tREFW).
    pub reset_period: TimePs,
    /// Rows per bank.
    pub rows_per_bank: u64,
}

impl GrapheneConfig {
    /// The paper's provisioning for a FlipTH: `T = FlipTH/4` and an entry
    /// count that keeps the CbS error below `T` over one reset window
    /// (`Nentry ≈ budget/T`).
    ///
    /// # Panics
    ///
    /// Panics if `flip_th < 4`.
    pub fn for_flip_threshold(flip_th: u64, timing: &Ddr5Timing) -> Self {
        assert!(flip_th >= 4, "flip_th too small");
        let threshold = flip_th / 4;
        let budget = timing.act_budget_per_trefw();
        let nentry = (budget / threshold.max(1) + 1) as usize;
        Self {
            threshold,
            nentry,
            reset_period: timing.trefw,
            rows_per_bank: 65_536,
        }
    }

    /// Per-bank table size in KiB: address bits + full-budget-width
    /// counters (Graphene cannot use wrapping counters; Section VI-E).
    pub fn table_kib(&self, timing: &Ddr5Timing) -> f64 {
        let addr_bits = 64 - (self.rows_per_bank - 1).leading_zeros();
        let counter_bits = 64 - timing.act_budget_per_trefw().leading_zeros();
        self.nentry as f64 * (addr_bits + counter_bits) as f64 / 8.0 / 1024.0
    }
}

/// One bank's Graphene instance (MC-side; the paper replicates it per
/// bank, so the sim instantiates one per bank via [`GrapheneBankSet`]).
#[derive(Debug, Clone)]
struct GrapheneBank {
    table: MithrilTable<u64>,
    /// Per-slot count of threshold multiples already triggered.
    fired: mithril_fasthash::FastHashMap<RowId, u64>,
}

impl GrapheneBank {
    fn new(nentry: usize) -> Self {
        Self {
            table: MithrilTable::new(nentry),
            fired: mithril_fasthash::FastHashMap::default(),
        }
    }

    /// Returns victims to ARR if the activation crossed a threshold.
    fn on_activate(&mut self, row: RowId, cfg: &GrapheneConfig) -> Option<Vec<RowId>> {
        self.table.on_activate(row);
        let est = self.table.estimate(row);
        let crossings = est / cfg.threshold;
        let fired = self.fired.entry(row).or_insert(0);
        if crossings > *fired {
            *fired = crossings;
            Some(victims(row, 1, cfg.rows_per_bank).collect())
        } else {
            None
        }
    }

    fn reset(&mut self) {
        self.table.clear();
        self.fired.clear();
    }
}

/// Graphene across all banks of a channel (implements
/// [`McMitigation`]).
///
/// # Example
///
/// ```
/// use mithril_baselines::{Graphene, GrapheneConfig};
/// use mithril_dram::Ddr5Timing;
/// use mithril_memctrl::{McAction, McMitigation};
///
/// let t = Ddr5Timing::ddr5_4800();
/// let cfg = GrapheneConfig::for_flip_threshold(6_250, &t);
/// let mut g = Graphene::new(cfg, 32);
/// // Crossing T = FlipTH/4 activations of one row triggers an ARR.
/// let mut fired = false;
/// for i in 0..cfg.threshold + 1 {
///     if let McAction::Arr { .. } = g.on_activate(0, 1000, 0, i) {
///         fired = true;
///     }
/// }
/// assert!(fired);
/// ```
#[derive(Debug)]
pub struct Graphene {
    config: GrapheneConfig,
    banks: Vec<GrapheneBank>,
    next_reset: TimePs,
}

impl Graphene {
    /// Creates per-bank Graphene tables for `banks` banks.
    pub fn new(config: GrapheneConfig, banks: usize) -> Self {
        Self {
            banks: (0..banks)
                .map(|_| GrapheneBank::new(config.nentry))
                .collect(),
            next_reset: config.reset_period,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GrapheneConfig {
        &self.config
    }
}

impl McMitigation for Graphene {
    fn on_activate(&mut self, bank: BankId, row: RowId, _thread: usize, now: TimePs) -> McAction {
        while now >= self.next_reset {
            for b in &mut self.banks {
                b.reset();
            }
            self.next_reset += self.config.reset_period;
        }
        match self.banks[bank].on_activate(row, &self.config) {
            Some(victims) => McAction::Arr { bank, victims },
            None => McAction::None,
        }
    }

    fn name(&self) -> &'static str {
        "graphene"
    }
}

/// The Fig. 2 strawman: Graphene's threshold trigger behind the RFM
/// interface (DRAM-side, one per bank).
///
/// Rows whose estimate crosses the threshold join a pending queue; each RFM
/// window refreshes the victims of *one* queued row. Under a concentration
/// attack the queue grows and queued rows keep accumulating ACTs — the
/// effect measured by Fig. 2 of the `paper` report (`mithril-runner`).
#[derive(Debug)]
pub struct RfmGraphene {
    table: MithrilTable<u64>,
    threshold: u64,
    rows_per_bank: u64,
    pending: VecDeque<RowId>,
    refreshes: u64,
}

impl RfmGraphene {
    /// Creates the strawman with trigger `threshold` and a CbS table of
    /// `nentry` entries.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero or `nentry` is zero.
    pub fn new(threshold: u64, nentry: usize, rows_per_bank: u64) -> Self {
        assert!(threshold > 0, "threshold must be non-zero");
        Self {
            table: MithrilTable::new(nentry),
            threshold,
            rows_per_bank,
            pending: VecDeque::new(),
            refreshes: 0,
        }
    }

    /// Preventive refreshes executed.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }
}

impl DramMitigation for RfmGraphene {
    fn on_activate(&mut self, row: RowId) {
        self.table.on_activate(row);
        // Crossing the threshold enqueues the row once.
        if self.table.estimate(row) >= self.threshold && !self.pending.contains(&row) {
            self.pending.push_back(row);
        }
    }

    fn on_rfm_into(&mut self, out: &mut RfmOutcome) {
        match self.pending.pop_front() {
            Some(row) => {
                self.table.reset_row(row);
                self.refreshes += 1;
                out.begin_refresh(row)
                    .extend(victims(row, 1, self.rows_per_bank));
            }
            None => out.reset_to_skipped(),
        }
    }

    fn name(&self) -> &'static str {
        "rfm-graphene"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> Ddr5Timing {
        Ddr5Timing::ddr5_4800()
    }

    #[test]
    fn config_provisions_quarter_threshold() {
        let cfg = GrapheneConfig::for_flip_threshold(50_000, &timing());
        assert_eq!(cfg.threshold, 12_500);
        // budget/T entries: ~620K/12.5K ≈ 49.
        assert!((40..60).contains(&cfg.nentry), "nentry = {}", cfg.nentry);
    }

    #[test]
    fn table_kib_matches_table_iv_scale() {
        let t = timing();
        // Paper Table IV Graphene @ MC: 0.14 KB at 50K, 3.7 KB at 1.5K.
        let k50 = GrapheneConfig::for_flip_threshold(50_000, &t).table_kib(&t);
        let k1_5 = GrapheneConfig::for_flip_threshold(1_500, &t).table_kib(&t);
        assert!((0.1..0.4).contains(&k50), "k50 = {k50}");
        assert!((2.0..9.0).contains(&k1_5), "k1_5 = {k1_5}");
        assert!(k1_5 / k50 > 10.0, "size must scale with 1/FlipTH");
    }

    #[test]
    fn arr_fires_at_every_threshold_multiple() {
        let t = timing();
        let mut cfg = GrapheneConfig::for_flip_threshold(6_250, &t);
        cfg.threshold = 100;
        let mut g = Graphene::new(cfg, 1);
        let mut fired_at = Vec::new();
        for i in 1..=350u64 {
            if let McAction::Arr { .. } = g.on_activate(0, 7, 0, 0) {
                fired_at.push(i);
            }
        }
        assert_eq!(fired_at, vec![100, 200, 300]);
    }

    #[test]
    fn reset_period_clears_tables() {
        let t = timing();
        let mut cfg = GrapheneConfig::for_flip_threshold(6_250, &t);
        cfg.threshold = 100;
        let mut g = Graphene::new(cfg, 1);
        for _ in 0..99 {
            g.on_activate(0, 7, 0, 0);
        }
        // After the reset the count restarts: 99 more ACTs stay silent.
        let after_reset = cfg.reset_period + 1;
        for _ in 0..99 {
            assert_eq!(g.on_activate(0, 7, 0, after_reset), McAction::None);
        }
        assert_eq!(
            g.on_activate(0, 7, 0, after_reset),
            McAction::Arr {
                bank: 0,
                victims: vec![6, 8]
            }
        );
    }

    #[test]
    fn banks_are_tracked_independently() {
        let t = timing();
        let mut cfg = GrapheneConfig::for_flip_threshold(6_250, &t);
        cfg.threshold = 10;
        let mut g = Graphene::new(cfg, 2);
        for _ in 0..9 {
            g.on_activate(0, 7, 0, 0);
            g.on_activate(1, 7, 0, 0);
        }
        // The 10th ACT on bank 1 fires only bank 1's trigger.
        assert!(matches!(
            g.on_activate(1, 7, 0, 0),
            McAction::Arr { bank: 1, .. }
        ));
    }

    #[test]
    fn rfm_graphene_buffers_and_drains_one_per_rfm() {
        let mut s = RfmGraphene::new(10, 16, 1_000);
        for row in [100u64, 200, 300] {
            for _ in 0..10 {
                s.on_activate(row);
            }
        }
        assert_eq!(s.on_rfm().selected_aggressor, Some(100));
        assert_eq!(s.on_rfm().selected_aggressor, Some(200));
        assert_eq!(s.on_rfm().selected_aggressor, Some(300));
        assert!(s.on_rfm().skipped);
    }

    #[test]
    fn rfm_graphene_concentration_queue_grows() {
        // Many rows crossing together: the queue outpaces the 1-per-RFM
        // drain — the Fig. 2 weakness.
        let mut s = RfmGraphene::new(50, 256, 65_536);
        for round in 0..50u64 {
            for row in 0..64u64 {
                s.on_activate(row * 2 + 1000);
            }
            if round % 4 == 3 {
                s.on_rfm();
            }
        }
        // Each RFM drains one queued row until the queue runs dry.
        let queued = std::iter::from_fn(|| Some(s.on_rfm()))
            .take_while(|out| !out.skipped)
            .count();
        assert!(queued > 32, "queue = {queued}");
    }
}
