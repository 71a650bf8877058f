//! CAM bit-width and area model (paper Section VI-E, Table IV).
//!
//! A Mithril table entry holds a row address (address CAM) and an activation
//! counter (count CAM). Two Mithril-specific savings apply:
//!
//! * **No table reset** — the wrapping-counter scheme (Section IV-E) avoids
//!   Graphene-style periodic resets, which would otherwise force the design
//!   to protect `FlipTH/4` instead of `FlipTH/2` (a two-fold `Nentry`
//!   saving, accounted for in the baselines, not here).
//! * **Narrow counters** — the counter only needs to express the maximum
//!   in-table difference, which Theorem 1 bounds by `M (< FlipTH/2)` plus
//!   one RFM interval, instead of the maximum ACT count in tREFW.
//!
//! The mm² estimate applies a constant derived from the paper's synthesis
//! result (0.024 mm² for the ~7K-bit table at FlipTH = 6.25K, RFMTH = 128,
//! after TSMC 40 nm → DRAM 20 nm scaling and the conservative 10× DRAM
//! process penalty): ≈ 3.4 µm² per CAM bit.

/// Area constant: µm² per CAM bit after DRAM-process derating.
pub(crate) const UM2_PER_CAM_BIT: f64 = 3.4;

/// Bits required to express values in `0..=max_value`.
///
/// # Example
///
/// ```
/// use mithril::area::bits_for;
///
/// assert_eq!(bits_for(1), 1);
/// assert_eq!(bits_for(255), 8);
/// assert_eq!(bits_for(256), 9);
/// ```
pub fn bits_for(max_value: u64) -> u32 {
    u64::BITS - max_value.max(1).leading_zeros()
}

/// Counter CAM width for a Mithril table with Theorem-1 bound `m_bound`
/// and the given RFM threshold: the in-table difference never exceeds
/// `M + RFMTH` (one interval's worth of slack above the proven bound).
pub fn counter_bits(m_bound: f64, rfm_th: u64) -> u32 {
    bits_for(m_bound.ceil() as u64 + rfm_th)
}

/// Address CAM width for a bank of `rows_per_bank` rows.
pub(crate) fn address_bits(rows_per_bank: u64) -> u32 {
    bits_for(rows_per_bank.saturating_sub(1))
}

/// Table size in KiB for `nentry` entries of `bits_per_entry` bits.
pub fn table_kib(nentry: usize, bits_per_entry: u32) -> f64 {
    nentry as f64 * bits_per_entry as f64 / 8.0 / 1024.0
}

/// Table area in mm² for `nentry` entries of `bits_per_entry` bits.
pub fn table_mm2(nentry: usize, bits_per_entry: u32) -> f64 {
    nentry as f64 * bits_per_entry as f64 * UM2_PER_CAM_BIT / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_edge_cases() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
        assert_eq!(bits_for(u64::MAX), 64);
    }

    #[test]
    fn address_bits_for_ddr5_bank() {
        assert_eq!(address_bits(65_536), 16);
        assert_eq!(address_bits(131_072), 17);
    }

    #[test]
    fn counter_bits_for_paper_configs() {
        // FlipTH = 6.25K (M < 3125) at RFMTH = 128 needs 12 bits:
        assert_eq!(counter_bits(3122.0, 128), 12);
        // FlipTH = 50K (M < 25000) at RFMTH = 256: 15 bits.
        assert_eq!(counter_bits(24_900.0, 256), 15);
    }

    #[test]
    fn paper_table_iv_mithril_128_at_6_25k() {
        // ~256 entries × (16 addr + 12 counter) bits ≈ 0.88 KiB — the
        // paper reports 0.84 KB.
        let kib = table_kib(256, 16 + 12);
        assert!((0.7..1.1).contains(&kib), "kib = {kib}");
    }

    #[test]
    fn paper_synthesis_area_cross_check() {
        // 0.024 mm² at FlipTH = 6.25K (Section VI-E).
        let mm2 = table_mm2(256, 28);
        assert!((0.018..0.032).contains(&mm2), "mm2 = {mm2}");
    }

    #[test]
    fn kib_scales_linearly() {
        assert!((table_kib(1024, 32) - 4.0).abs() < 1e-12);
        assert!((table_kib(2048, 32) - 8.0).abs() < 1e-12);
    }
}
