//! DRAM dynamic-energy accounting.
//!
//! The paper evaluates *relative dynamic energy* by counting ACTs, PREs and
//! executed preventive refreshes (Section VI-A). We do the same: the device
//! counts operations, and [`EnergyModel`] converts counts into picojoules
//! with per-operation constants.
//!
//! The constants are representative DDR5-class values derived from
//! datasheet current profiles (IDD0/IDD4/IDD5-style arithmetic); since every
//! reported number is a *ratio* against the unprotected baseline, only the
//! relative magnitudes matter:
//!
//! * a row activate+precharge cycle moves a whole 8 KB page: ~2 nJ;
//! * a 64 B read/write burst incl. I/O: ~1 nJ;
//! * a preventive refresh of one victim row is internally an ACT+PRE pair;
//! * an auto-REF refreshes `rows_per_ref` rows, each an internal row cycle;
//! * an MRR (mode-register read, Mithril+) is a register access: ~0.05 nJ.

/// Operation counters accumulated by a device or harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyCounters {
    /// ACT commands.
    pub acts: u64,
    /// PRE commands.
    pub pres: u64,
    /// Read bursts.
    pub reads: u64,
    /// Write bursts.
    pub writes: u64,
    /// Rows refreshed by auto-refresh (REF commands × rows per REF).
    pub auto_refresh_rows: u64,
    /// Victim rows preventively refreshed (RFM/ARR remedies).
    pub preventive_rows: u64,
    /// RFM commands issued (even if the engine skipped the refresh).
    pub rfm_commands: u64,
    /// Mode-register reads (Mithril+ flag polls).
    pub mrr_commands: u64,
}

impl EnergyCounters {
    /// Element-wise sum of two counter sets.
    pub fn merged(&self, other: &EnergyCounters) -> EnergyCounters {
        EnergyCounters {
            acts: self.acts + other.acts,
            pres: self.pres + other.pres,
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            auto_refresh_rows: self.auto_refresh_rows + other.auto_refresh_rows,
            preventive_rows: self.preventive_rows + other.preventive_rows,
            rfm_commands: self.rfm_commands + other.rfm_commands,
            mrr_commands: self.mrr_commands + other.mrr_commands,
        }
    }
}

/// Per-operation energy constants in femtojoules.
///
/// # Example
///
/// ```
/// use mithril_dram::{EnergyCounters, EnergyModel};
///
/// let model = EnergyModel::ddr5_default();
/// let mut c = EnergyCounters::default();
/// c.acts = 1000;
/// c.pres = 1000;
/// let base = model.dynamic_energy_pj(&c);
/// c.preventive_rows = 10; // ten extra preventive row refreshes
/// let with_refresh = model.dynamic_energy_pj(&c);
/// assert!(with_refresh > base);
/// // Overhead is 10 row cycles on top of 1000: about 1%.
/// let overhead = (with_refresh - base) / base;
/// assert!(overhead > 0.005 && overhead < 0.02);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy of an ACT command (row open), fJ.
    pub act_fj: f64,
    /// Energy of a PRE command (row close), fJ.
    pub pre_fj: f64,
    /// Energy of a 64 B read burst, fJ.
    pub read_fj: f64,
    /// Energy of a 64 B write burst, fJ.
    pub write_fj: f64,
    /// Energy of refreshing one row (internal row cycle), fJ.
    pub refresh_row_fj: f64,
    /// Energy of an MRR command, fJ.
    pub mrr_fj: f64,
    /// Static logic overhead per RFM command handed to a tracker, fJ.
    pub rfm_logic_fj: f64,
}

impl EnergyModel {
    /// Representative DDR5 x16 device constants (see module docs).
    pub fn ddr5_default() -> Self {
        Self {
            act_fj: 1_200_000.0,
            pre_fj: 800_000.0,
            read_fj: 1_000_000.0,
            write_fj: 1_100_000.0,
            refresh_row_fj: 2_000_000.0, // internal ACT+PRE pair
            mrr_fj: 50_000.0,
            rfm_logic_fj: 10_000.0,
        }
    }

    /// Total dynamic energy for `c`, in picojoules.
    pub fn dynamic_energy_pj(&self, c: &EnergyCounters) -> f64 {
        let fj = c.acts as f64 * self.act_fj
            + c.pres as f64 * self.pre_fj
            + c.reads as f64 * self.read_fj
            + c.writes as f64 * self.write_fj
            + (c.auto_refresh_rows + c.preventive_rows) as f64 * self.refresh_row_fj
            + c.mrr_commands as f64 * self.mrr_fj
            + c.rfm_commands as f64 * self.rfm_logic_fj;
        fj / 1000.0
    }

    /// Relative dynamic energy of `scheme` vs `baseline` (1.0 = equal).
    pub fn relative_energy(&self, scheme: &EnergyCounters, baseline: &EnergyCounters) -> f64 {
        self.dynamic_energy_pj(scheme) / self.dynamic_energy_pj(baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(acts: u64) -> EnergyCounters {
        EnergyCounters {
            acts,
            pres: acts,
            reads: acts * 4,
            ..Default::default()
        }
    }

    #[test]
    fn energy_is_monotone_in_counts() {
        let m = EnergyModel::ddr5_default();
        let a = m.dynamic_energy_pj(&counters(100));
        let b = m.dynamic_energy_pj(&counters(200));
        assert!(b > a);
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn relative_energy_of_identical_counters_is_one() {
        let m = EnergyModel::ddr5_default();
        let c = counters(500);
        assert!((m.relative_energy(&c, &c) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn preventive_refresh_costs_a_row_cycle() {
        let m = EnergyModel::ddr5_default();
        let c = EnergyCounters {
            preventive_rows: 1,
            ..Default::default()
        };
        let e = m.dynamic_energy_pj(&c);
        assert!((e - m.refresh_row_fj / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn mrr_is_much_cheaper_than_refresh() {
        let m = EnergyModel::ddr5_default();
        assert!(m.mrr_fj * 10.0 < m.refresh_row_fj);
    }

    #[test]
    fn merged_adds_fieldwise() {
        let a = counters(10);
        let b = counters(5);
        let m = a.merged(&b);
        assert_eq!(m.acts, 15);
        assert_eq!(m.reads, 60);
    }
}
