//! The Mithril mitigation engine (paper Section IV-B, Fig. 4/5).
//!
//! One [`MithrilScheme`] instance sits in every DRAM bank. It observes ACT
//! commands, and on every RFM command greedily selects the hottest tracked
//! row, preventively refreshes that row's victims, and decrements the
//! entry's counter to the table minimum.
//!
//! The **adaptive refresh** policy (Section V-A) skips the preventive
//! refresh when `MaxPtr − MinPtr < AdTH` — benign workloads rarely
//! concentrate enough ACTs on single rows to build a large spread, so the
//! energy cost disappears in the common case. **Mithril+** (Section V-B)
//! exposes the same condition as a mode-register flag so the memory
//! controller can elide the RFM command itself (via
//! [`DramMitigation::refresh_pending`]).

use crate::config::MithrilConfig;
use crate::table::{MithrilTable, INVALID_ROW};
use mithril_dram::{victims, DramMitigation, FaultSurface, RfmOutcome, RowId};

/// The per-bank Mithril engine with a 16-bit wrapping-counter table.
///
/// # Example
///
/// ```
/// use mithril::{MithrilConfig, MithrilScheme};
/// use mithril_dram::{Ddr5Timing, DramMitigation};
///
/// let t = Ddr5Timing::ddr5_4800();
/// let mut m = MithrilScheme::new(MithrilConfig::for_flip_threshold(6_250, 128, &t)?);
/// for _ in 0..100 {
///     m.on_activate(1234);
/// }
/// let out = m.on_rfm();
/// assert_eq!(out.selected_aggressor, Some(1234));
/// assert_eq!(out.refreshed_victims, vec![1233, 1235]);
/// # Ok::<(), mithril::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MithrilScheme {
    table: MithrilTable<u16>,
    config: MithrilConfig,
}

impl MithrilScheme {
    /// Creates an engine from a solved configuration.
    pub fn new(config: MithrilConfig) -> Self {
        Self {
            table: MithrilTable::new(config.nentry),
            config,
        }
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &MithrilConfig {
        &self.config
    }

    /// Current `MaxPtr − MinPtr` spread (the adaptive-refresh signal).
    pub fn spread(&self) -> u64 {
        self.table.spread()
    }

    /// Read-only view of the table.
    pub fn table(&self) -> &MithrilTable<u16> {
        &self.table
    }

    fn adaptive_skip(&self) -> bool {
        match self.config.adaptive_th {
            Some(ad) if ad > 0 => self.table.spread() < ad,
            _ => false,
        }
    }
}

impl DramMitigation for MithrilScheme {
    fn on_activate(&mut self, row: RowId) {
        self.table.on_activate(row);
    }

    fn on_rfm_into(&mut self, out: &mut RfmOutcome) {
        out.reset_to_skipped();
        if self.adaptive_skip() {
            return;
        }
        if let Some(sel) = self.table.on_rfm() {
            if sel.row == INVALID_ROW {
                // A fault-invalidated entry won the greedy selection: the
                // garbage tag yields no victims, so the window is burned
                // (the entry's counter still dropped to the minimum).
                return;
            }
            out.refreshed_victims.extend(victims(
                sel.row,
                self.config.blast_radius,
                self.config.rows_per_bank,
            ));
            out.selected_aggressor = Some(sel.row);
            out.skipped = false;
        }
    }

    fn refresh_pending(&self) -> bool {
        // Mithril+ flag: set exactly when a refresh would execute.
        !self.adaptive_skip() && !self.table.is_empty()
    }

    fn name(&self) -> &'static str {
        if self.config.adaptive_th.is_some() {
            "mithril-adaptive"
        } else {
            "mithril"
        }
    }

    fn fault_surface(&mut self) -> Option<&mut dyn FaultSurface> {
        Some(self)
    }

    fn observe_tracker(&self) -> Option<mithril_obs::TrackerObservation> {
        Some(self.table.observe())
    }
}

/// The engine's injectable state is its counter table: soft errors land
/// on the 16-bit count CAM and the address CAM tags, and a scrub pass
/// checks/rebuilds the derived Stream-Summary order.
impl FaultSurface for MithrilScheme {
    fn fault_entries(&self) -> u64 {
        self.table.len() as u64
    }

    fn counter_bits(&self) -> u32 {
        16
    }

    fn flip_counter_bit(&mut self, entry: u64, bit: u32) -> bool {
        self.table.flip_counter_bit(entry as usize, bit)
    }

    fn force_counter_bit(&mut self, entry: u64, bit: u32, one: bool) -> bool {
        self.table.force_counter_bit(entry as usize, bit, one)
    }

    fn invalidate_entry(&mut self, entry: u64) -> bool {
        self.table.invalidate_entry(entry as usize)
    }

    fn check(&self) -> Result<(), String> {
        self.table.self_check()
    }

    fn repair(&mut self) {
        self.table.repair();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithril_dram::Ddr5Timing;

    fn config(flip: u64, rfm: u64) -> MithrilConfig {
        MithrilConfig::for_flip_threshold(flip, rfm, &Ddr5Timing::ddr5_4800()).unwrap()
    }

    #[test]
    fn greedy_selection_targets_hottest_row() {
        let mut m = MithrilScheme::new(config(6_250, 128));
        for _ in 0..50 {
            m.on_activate(100);
        }
        for _ in 0..10 {
            m.on_activate(200);
        }
        let out = m.on_rfm();
        assert_eq!(out.selected_aggressor, Some(100));
        assert_eq!(out.refreshed_victims, vec![99, 101]);
        // Next RFM picks the runner-up.
        let out = m.on_rfm();
        assert_eq!(out.selected_aggressor, Some(200));
    }

    #[test]
    fn edge_rows_have_clamped_victims() {
        let mut m = MithrilScheme::new(config(6_250, 128));
        m.on_activate(0);
        let out = m.on_rfm();
        assert_eq!(out.refreshed_victims, vec![1]);
        let last = m.config().rows_per_bank - 1;
        m.on_activate(last);
        let out = m.on_rfm();
        assert_eq!(out.refreshed_victims, vec![last - 1]);
    }

    #[test]
    fn adaptive_skips_flat_tables() {
        let t = Ddr5Timing::ddr5_4800();
        let cfg = config(6_250, 64).with_adaptive(100, &t).unwrap();
        let mut m = MithrilScheme::new(cfg);
        // A perfectly uniform sweep keeps spread ≈ 1: all RFMs skipped.
        let (mut rfms, mut skips) = (0u64, 0u64);
        for i in 0..10_000u64 {
            m.on_activate(i % (cfg.nentry as u64 * 4));
            if i % 64 == 63 {
                rfms += 1;
                skips += u64::from(m.on_rfm().skipped);
            }
        }
        assert!(skips > 0, "uniform sweep should trigger skips");
        assert!(
            skips as f64 / rfms as f64 > 0.9,
            "{skips} of {rfms} skipped"
        );
    }

    #[test]
    fn adaptive_still_fires_under_attack() {
        let t = Ddr5Timing::ddr5_4800();
        let cfg = config(6_250, 64).with_adaptive(100, &t).unwrap();
        let mut m = MithrilScheme::new(cfg);
        // A focused hammer builds spread past AdTH quickly.
        let (mut rfms, mut refreshes) = (0u64, 0u64);
        for i in 0..10_000u64 {
            m.on_activate(777);
            if i % 64 == 63 {
                rfms += 1;
                refreshes += u64::from(!m.on_rfm().skipped);
            }
        }
        // With AdTH=100 > RFMTH=64 the spread crosses AdTH every other
        // interval: half the RFMs refresh, which is exactly what Theorem 2
        // accounts for. The attack must never be *persistently* skipped.
        assert!(
            refreshes >= rfms / 3,
            "attack persistently skipped: {refreshes} of {rfms} refreshed"
        );
        assert!(refreshes > 0);
    }

    #[test]
    fn mithril_plus_flag_mirrors_refresh_decision() {
        let t = Ddr5Timing::ddr5_4800();
        let cfg = config(6_250, 64).with_adaptive(50, &t).unwrap();
        let mut m = MithrilScheme::new(cfg);
        for i in 0..200u64 {
            m.on_activate(i); // uniform: spread stays tiny
        }
        assert!(!m.refresh_pending());
        for _ in 0..100 {
            m.on_activate(5); // attack: spread grows past AdTH
        }
        assert!(m.refresh_pending());
    }

    #[test]
    fn without_adaptive_always_pending() {
        let mut m = MithrilScheme::new(config(6_250, 128));
        assert!(!m.refresh_pending()); // empty table has nothing to refresh
        m.on_activate(1);
        assert!(m.refresh_pending());
        assert_eq!(m.name(), "mithril");
    }

    #[test]
    fn every_rfm_window_refreshes_or_skips() {
        let t = Ddr5Timing::ddr5_4800();
        let cfg = config(3_125, 16).with_adaptive(200, &t).unwrap();
        let mut m = MithrilScheme::new(cfg);
        for i in 0..5_000u64 {
            m.on_activate(i % 97);
            if i % 16 == 15 {
                // Every window either refreshes the selected aggressor's
                // victims or is skipped with nothing selected.
                let out = m.on_rfm();
                assert_eq!(out.skipped, out.selected_aggressor.is_none());
                assert_eq!(out.skipped, out.refreshed_victims.is_empty());
            }
        }
    }

    #[test]
    fn blast_radius_three_refreshes_six_victims() {
        let t = Ddr5Timing::ddr5_4800();
        let cfg = MithrilConfig::solve(6_250, 64, 3, None, &t).unwrap();
        let mut m = MithrilScheme::new(cfg);
        for _ in 0..10 {
            m.on_activate(1000);
        }
        let out = m.on_rfm();
        assert_eq!(out.refreshed_victims.len(), 6);
        assert!(out.refreshed_victims.contains(&997));
        assert!(out.refreshed_victims.contains(&1003));
    }
}
