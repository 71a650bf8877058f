//! DDR5 timing parameters (paper Table III).

use crate::types::TimePs;

/// Picoseconds per nanosecond.
pub const PS_PER_NS: TimePs = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: TimePs = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: TimePs = 1_000_000_000;

/// The DDR5 timing parameters relevant to refresh, Row Hammer and RFM.
///
/// Values are integer picoseconds. [`Ddr5Timing::ddr5_4800`] reproduces the
/// paper's Table III exactly (tRFC = 295 ns, tRC = 48.64 ns,
/// tRFM = 97.28 ns = 2 × tRC, tRCD = tRP = tCL = 16.64 ns), with the
/// JEDEC-standard refresh cadence (tREFW = 32 ms, tREFI = tREFW / 8192).
///
/// # Example
///
/// ```
/// use mithril_dram::Ddr5Timing;
///
/// let t = Ddr5Timing::ddr5_4800();
/// assert_eq!(t.trfm, 2 * t.trc);
/// // ~657K ACT slots fit in one refresh window if nothing else happens:
/// assert_eq!(t.trefw / t.trc, 657_894);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ddr5Timing {
    /// Row cycle: minimum time between two ACTs to the same bank.
    pub trc: TimePs,
    /// ACT to column command (RAS-to-CAS) delay.
    pub trcd: TimePs,
    /// Precharge time.
    pub trp: TimePs,
    /// CAS (read) latency.
    pub tcl: TimePs,
    /// Minimum ACT-to-PRE interval (row must stay open this long).
    pub tras: TimePs,
    /// Auto-refresh command duration.
    pub trfc: TimePs,
    /// Average refresh command interval (tREFW / 8192 refresh groups).
    pub trefi: TimePs,
    /// Refresh window: every row is auto-refreshed once per tREFW.
    pub trefw: TimePs,
    /// RFM command duration: the time margin handed to the in-DRAM
    /// mitigation.
    pub trfm: TimePs,
    /// Four-activate window (rolling limit of 4 ACTs per rank).
    pub tfaw: TimePs,
    /// Minimum ACT-to-ACT interval between different banks of a rank.
    pub trrd: TimePs,
    /// Data burst duration on the bus (BL16 at the device data rate).
    pub tbl: TimePs,
    /// Read-to-precharge delay.
    pub trtp: TimePs,
    /// Write recovery time (end of write burst to precharge).
    pub twr: TimePs,
}

impl Ddr5Timing {
    /// DDR5-4800 parameters from the paper's Table III.
    pub fn ddr5_4800() -> Self {
        Self {
            trc: 48_640,
            trcd: 16_640,
            trp: 16_640,
            tcl: 16_640,
            tras: 32_000, // tRC - tRP
            trfc: 295_000,
            trefi: 3_906_250, // 32 ms / 8192
            trefw: 32 * PS_PER_MS,
            trfm: 97_280, // 2 x tRC
            tfaw: 13_333, // ~32 tCK at 2400 MHz
            trrd: 3_332,  // ~8 tCK
            tbl: 3_332,   // BL16 / 4800 MT/s
            trtp: 7_500,
            twr: 30_000,
        }
    }

    /// The maximum number of ACTs that fit in one tREFW window when
    /// auto-refresh overhead is subtracted but no RFM is issued — the
    /// activation budget used throughout the paper's analysis:
    /// `tREFW * (1 - tRFC/tREFI) / tRC`.
    pub fn act_budget_per_trefw(&self) -> u64 {
        let usable = self.trefw - (self.trefw / self.trefi) * self.trfc;
        usable / self.trc
    }

    /// Maximum number of RFM intervals within tREFW — the `W` term of
    /// Theorem 1: `ceil(tREFW(1 - tRFC/tREFI) / (tRC*RFMTH + tRFM))`.
    ///
    /// # Panics
    ///
    /// Panics if `rfm_th` is zero.
    pub fn rfm_intervals_per_trefw(&self, rfm_th: u64) -> u64 {
        assert!(rfm_th > 0, "rfm_th must be non-zero");
        let usable = self.trefw - (self.trefw / self.trefi) * self.trfc;
        let interval = self.trc * rfm_th + self.trfm;
        usable.div_ceil(interval)
    }

    /// Rows refreshed by each REF command, for `rows` rows per bank
    /// (all rows must be covered every 8192 REFs).
    pub(crate) fn rows_per_ref(&self, rows: u64) -> u64 {
        let refs_per_window = self.trefw / self.trefi;
        rows.div_ceil(refs_per_window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_values() {
        let t = Ddr5Timing::ddr5_4800();
        assert_eq!(t.trfc, 295 * PS_PER_NS);
        assert_eq!(t.trc, 48_640);
        assert_eq!(t.trfm, 97_280);
        assert_eq!(t.trcd, 16_640);
        assert_eq!(t.trp, 16_640);
        assert_eq!(t.tcl, 16_640);
        assert_eq!(t.trefw, 32_000_000_000);
    }

    #[test]
    fn refresh_cadence_is_8192_per_window() {
        let t = Ddr5Timing::ddr5_4800();
        assert_eq!(t.trefw / t.trefi, 8192);
    }

    #[test]
    fn act_budget_matches_paper_analysis() {
        // Paper Section III-A: ~310 rows can reach 2K ACTs in one tREFW,
        // i.e. the budget is ~620K ACTs.
        let t = Ddr5Timing::ddr5_4800();
        let budget = t.act_budget_per_trefw();
        assert!((600_000..660_000).contains(&budget), "budget = {budget}");
        assert!((295..330).contains(&(budget / 2000)));
    }

    #[test]
    fn rfm_interval_count_decreases_with_rfmth() {
        let t = Ddr5Timing::ddr5_4800();
        let w32 = t.rfm_intervals_per_trefw(32);
        let w64 = t.rfm_intervals_per_trefw(64);
        let w256 = t.rfm_intervals_per_trefw(256);
        assert!(w32 > w64 && w64 > w256);
        // W * RFMTH is roughly the ACT budget (a little smaller because
        // each interval also pays tRFM).
        let budget = t.act_budget_per_trefw();
        assert!(w64 * 64 <= budget);
        assert!(w64 * 64 >= budget * 9 / 10);
    }

    #[test]
    fn rows_per_ref_covers_bank() {
        let t = Ddr5Timing::ddr5_4800();
        assert_eq!(t.rows_per_ref(65_536), 8);
        assert_eq!(t.rows_per_ref(8192), 1);
        // Non-multiple row counts round up so the whole bank is covered.
        assert_eq!(t.rows_per_ref(10_000), 2);
    }

    #[test]
    #[should_panic(expected = "rfm_th")]
    fn zero_rfmth_panics() {
        let _ = Ddr5Timing::ddr5_4800().rfm_intervals_per_trefw(0);
    }
}
