//! Mithril configuration: solving `(Nentry, RFMTH)` for a target FlipTH.
//!
//! Section IV-D of the paper: for every target FlipTH there is a family of
//! feasible `(Nentry, RFMTH)` pairs satisfying `M < FlipTH/2` (Fig. 6) — a
//! DRAM vendor picks the trade-off between table area (`Nentry`) and
//! performance/energy (`RFMTH`). The solver below reproduces that family.

use crate::area;
use crate::bounds;
use mithril_dram::Ddr5Timing;

/// Why a requested Mithril configuration cannot provide protection.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// No table size satisfies `M < FlipTH/effect` at this RFM threshold.
    Infeasible {
        /// The requested Row Hammer threshold.
        flip_th: u64,
        /// The requested RFM threshold.
        rfm_th: u64,
    },
    /// A parameter was zero or out of its domain.
    InvalidParameter(&'static str),
    /// The bound `M` does not fit the hardware counter width.
    CounterOverflow {
        /// Bits required by the bound.
        required_bits: u32,
        /// Bits available in the deployed counter CAM.
        available_bits: u32,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Infeasible { flip_th, rfm_th } => write!(
                f,
                "no table size can protect FlipTH {flip_th} at RFMTH {rfm_th}; lower RFMTH"
            ),
            ConfigError::InvalidParameter(p) => write!(f, "invalid parameter: {p}"),
            ConfigError::CounterOverflow {
                required_bits,
                available_bits,
            } => write!(
                f,
                "bound needs {required_bits}-bit counters but only {available_bits} provisioned"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A validated Mithril deployment configuration for one DRAM bank.
///
/// # Example
///
/// ```
/// use mithril::MithrilConfig;
/// use mithril_dram::Ddr5Timing;
///
/// let t = Ddr5Timing::ddr5_4800();
/// let c = MithrilConfig::for_flip_threshold(12_500, 256, &t)?;
/// assert!(c.bound(&t) < 12_500.0 / 2.0);
/// // Table IV reports 0.41 KB for Mithril-256 at FlipTH 12.5K.
/// assert!(c.table_kib() < 1.0);
/// # Ok::<(), mithril::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MithrilConfig {
    /// Number of table entries (`Nentry`).
    pub nentry: usize,
    /// RFM threshold the memory controller is programmed with.
    pub rfm_th: u64,
    /// Adaptive-refresh threshold (`AdTH`), `None` to refresh on every RFM.
    pub adaptive_th: Option<u64>,
    /// The Row Hammer threshold being protected against.
    pub flip_th: u64,
    /// Blast radius: 1 = adjacent rows only (aggregated effect 2).
    pub blast_radius: u64,
    /// Rows per bank (for the address-CAM width and victim clamping).
    pub rows_per_bank: u64,
}

impl MithrilConfig {
    /// Solves the smallest table protecting `flip_th` at `rfm_th`
    /// (double-sided attack, blast radius 1, no adaptive refresh).
    ///
    /// # Errors
    ///
    /// [`ConfigError::Infeasible`] if no table size suffices, and
    /// [`ConfigError::InvalidParameter`] for zero parameters.
    pub fn for_flip_threshold(
        flip_th: u64,
        rfm_th: u64,
        timing: &Ddr5Timing,
    ) -> Result<Self, ConfigError> {
        Self::solve(flip_th, rfm_th, 1, None, timing)
    }

    /// Full solver: picks the minimal `Nentry` for the given blast radius
    /// and optional adaptive threshold.
    ///
    /// The aggregated RH effect follows Section V-C: radius 1 → 2 (two
    /// adjacent aggressors), radius ≥ 2 → 3.5 with 2×radius victim rows.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Infeasible`] if no table size satisfies the bound;
    /// [`ConfigError::InvalidParameter`] for zero `flip_th`, `rfm_th` or
    /// `blast_radius`.
    pub fn solve(
        flip_th: u64,
        rfm_th: u64,
        blast_radius: u64,
        adaptive_th: Option<u64>,
        timing: &Ddr5Timing,
    ) -> Result<Self, ConfigError> {
        if flip_th == 0 {
            return Err(ConfigError::InvalidParameter("flip_th"));
        }
        if rfm_th == 0 {
            return Err(ConfigError::InvalidParameter("rfm_th"));
        }
        if blast_radius == 0 {
            return Err(ConfigError::InvalidParameter("blast_radius"));
        }
        let effect = Self::aggregated_effect(blast_radius);
        let nentry = bounds::min_entries(flip_th, rfm_th, effect, adaptive_th, timing)
            .ok_or(ConfigError::Infeasible { flip_th, rfm_th })?;
        Ok(Self {
            nentry,
            rfm_th,
            adaptive_th,
            flip_th,
            blast_radius,
            rows_per_bank: 65_536,
        })
    }

    /// The aggregated Row Hammer effect for a blast radius (Section V-C).
    pub(crate) fn aggregated_effect(blast_radius: u64) -> f64 {
        if blast_radius <= 1 {
            2.0
        } else {
            3.5
        }
    }

    /// Returns a copy with the adaptive-refresh threshold enabled, re-solving
    /// `Nentry` so the Theorem-2 bound still holds.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Infeasible`] if the adjusted bound cannot be met.
    pub fn with_adaptive(self, ad_th: u64, timing: &Ddr5Timing) -> Result<Self, ConfigError> {
        let mut solved = Self::solve(
            self.flip_th,
            self.rfm_th,
            self.blast_radius,
            Some(ad_th),
            timing,
        )?;
        solved.rows_per_bank = self.rows_per_bank;
        Ok(solved)
    }

    /// Returns a copy with a different bank row count.
    pub fn with_rows_per_bank(mut self, rows: u64) -> Self {
        self.rows_per_bank = rows;
        self
    }

    /// The active protection bound: Theorem 2 when adaptive refresh is on,
    /// Theorem 1 otherwise.
    pub fn bound(&self, timing: &Ddr5Timing) -> f64 {
        match self.adaptive_th {
            Some(ad) if ad > 0 => bounds::theorem2_bound(self.nentry, self.rfm_th, ad, timing),
            _ => bounds::theorem1_bound(self.nentry, self.rfm_th, timing),
        }
    }

    /// Checks that the bound actually protects `flip_th` and fits 16-bit
    /// wrapping counters.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Infeasible`] if `M >= FlipTH/effect`;
    /// [`ConfigError::CounterOverflow`] if the bound exceeds the counter
    /// range.
    pub fn validate(&self, timing: &Ddr5Timing) -> Result<(), ConfigError> {
        let m = self.bound(timing);
        if m >= self.flip_th as f64 / Self::aggregated_effect(self.blast_radius) {
            return Err(ConfigError::Infeasible {
                flip_th: self.flip_th,
                rfm_th: self.rfm_th,
            });
        }
        let required = area::counter_bits(m, self.rfm_th);
        if required > 16 {
            return Err(ConfigError::CounterOverflow {
                required_bits: required,
                available_bits: 16,
            });
        }
        Ok(())
    }

    /// Counter-CAM width in bits (Section VI-E: bounded by `M`, not by the
    /// tREFW ACT maximum).
    pub fn counter_bits(&self, timing: &Ddr5Timing) -> u32 {
        area::counter_bits(self.bound(timing), self.rfm_th)
    }

    /// Address-CAM width in bits.
    pub(crate) fn address_bits(&self) -> u32 {
        area::address_bits(self.rows_per_bank)
    }

    /// Per-bank table size in KiB, using the solved counter width for the
    /// default DDR5-4800 timing.
    pub fn table_kib(&self) -> f64 {
        let timing = Ddr5Timing::ddr5_4800();
        let bits = self.address_bits() + self.counter_bits(&timing);
        area::table_kib(self.nentry, bits)
    }

    /// Per-bank table area in mm².
    pub fn table_mm2(&self) -> f64 {
        let timing = Ddr5Timing::ddr5_4800();
        let bits = self.address_bits() + self.counter_bits(&timing);
        area::table_mm2(self.nentry, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Ddr5Timing {
        Ddr5Timing::ddr5_4800()
    }

    #[test]
    fn paper_configurations_are_feasible() {
        // The (FlipTH, RFMTH) pairs evaluated in Section VI.
        let timing = t();
        for (flip, rfm) in [
            (50_000u64, 256u64),
            (25_000, 256),
            (12_500, 256),
            (12_500, 128),
            (6_250, 128),
            (6_250, 64),
            (3_125, 64),
            (3_125, 32),
            (3_125, 16),
            (1_500, 32),
        ] {
            let c = MithrilConfig::for_flip_threshold(flip, rfm, &timing)
                .unwrap_or_else(|e| panic!("({flip},{rfm}): {e}"));
            c.validate(&timing).unwrap();
        }
    }

    #[test]
    fn table_sizes_match_table_iv_scale() {
        let timing = t();
        // Mithril-128 @ 6.25K: paper reports 0.84 KB.
        let c = MithrilConfig::for_flip_threshold(6_250, 128, &timing).unwrap();
        let kib = c.table_kib();
        assert!((0.5..1.5).contains(&kib), "kib = {kib}");
        // Mithril-32 @ 1.5K: paper reports 4.64 KB.
        let c = MithrilConfig::for_flip_threshold(1_500, 32, &timing).unwrap();
        let kib = c.table_kib();
        assert!((2.5..7.0).contains(&kib), "kib = {kib}");
    }

    #[test]
    fn infeasible_combination_errors() {
        let timing = t();
        let err = MithrilConfig::for_flip_threshold(1_500, 1024, &timing).unwrap_err();
        assert!(matches!(err, ConfigError::Infeasible { .. }));
        assert!(err.to_string().contains("1024"));
    }

    #[test]
    fn zero_parameters_rejected() {
        let timing = t();
        assert!(matches!(
            MithrilConfig::for_flip_threshold(0, 64, &timing),
            Err(ConfigError::InvalidParameter("flip_th"))
        ));
        assert!(matches!(
            MithrilConfig::for_flip_threshold(6_250, 0, &timing),
            Err(ConfigError::InvalidParameter("rfm_th"))
        ));
        assert!(matches!(
            MithrilConfig::solve(6_250, 64, 0, None, &timing),
            Err(ConfigError::InvalidParameter("blast_radius"))
        ));
    }

    #[test]
    fn adaptive_config_grows_table_modestly() {
        let timing = t();
        let base = MithrilConfig::for_flip_threshold(6_250, 64, &timing).unwrap();
        let adaptive = base.with_adaptive(200, &timing).unwrap();
        assert!(adaptive.nentry >= base.nentry);
        // Fig. 7: the increase stays small (≤ ~12% in the paper; we allow
        // some slack for our exact integer solver).
        let ratio = adaptive.nentry as f64 / base.nentry as f64;
        assert!(ratio < 1.4, "ratio = {ratio}");
        assert_eq!(adaptive.adaptive_th, Some(200));
    }

    #[test]
    fn range_three_aggregates_to_three_and_a_half() {
        assert_eq!(MithrilConfig::aggregated_effect(3), 3.5);
    }

    #[test]
    fn counter_width_is_m_bounded_not_budget_bounded() {
        let timing = t();
        let c = MithrilConfig::for_flip_threshold(6_250, 128, &timing).unwrap();
        // Graphene-style counters must count to the tREFW ACT budget
        // (~620K → 20 bits); Mithril's stay at M + RFMTH (< 13 bits here).
        assert!(c.counter_bits(&timing) <= 13);
        assert!(area::bits_for(timing.act_budget_per_trefw()) >= 20);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ConfigError::CounterOverflow {
            required_bits: 17,
            available_bits: 16,
        };
        assert!(e.to_string().contains("17"));
        let e = ConfigError::InvalidParameter("rfm_th");
        assert!(e.to_string().contains("rfm_th"));
    }
}
