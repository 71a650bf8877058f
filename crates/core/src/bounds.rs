//! The protection bounds of Theorems 1 and 2.
//!
//! **Theorem 1** (paper Section IV-C, proved in the Appendix): within any
//! tREFW window, the increase in the *estimated* activation count of any
//! single row under Mithril's greedy-selection policy is bounded by
//!
//! ```text
//! M = Σ_{k=1}^{N} RFMTH/k  +  RFMTH · (W − 2) / N
//! W = ⌈ tREFW · (1 − tRFC/tREFI) / (tRC·RFMTH + tRFM) ⌉
//! ```
//!
//! where `N` is the number of Mithril table entries and `W` the maximum
//! number of RFM intervals per tREFW. Because estimates never under-count
//! (inequality (1)), choosing `N` and `RFMTH` such that `M < FlipTH/2`
//! deterministically prevents double-sided Row Hammer.
//!
//! **Theorem 2** (Appendix B) generalizes the bound to the adaptive-refresh
//! policy that skips a preventive refresh whenever `max − min < AdTH`:
//!
//! ```text
//! M' = Σ_{k=1}^{n*} RFMTH/k
//!      + ((W − n* + N − 2)·RFMTH + (N − n*)·AdTH) / N
//! n* = ⌈ N·RFMTH / (RFMTH + AdTH) ⌉
//! ```
//!
//! With `AdTH = 0`, `n* = N` and `M'` collapses to `M` (tested below).

use mithril_dram::Ddr5Timing;

/// Maximum number of RFM intervals in one tREFW window (the `W` term).
///
/// # Panics
///
/// Panics if `rfm_th` is zero.
///
/// # Example
///
/// ```
/// use mithril::bounds::rfm_intervals;
/// use mithril_dram::Ddr5Timing;
///
/// let t = Ddr5Timing::ddr5_4800();
/// // Twice the RFM threshold, roughly half the intervals.
/// assert!(rfm_intervals(128, &t) < rfm_intervals(64, &t));
/// ```
pub fn rfm_intervals(rfm_th: u64, timing: &Ddr5Timing) -> u64 {
    timing.rfm_intervals_per_trefw(rfm_th)
}

/// The Theorem-1 bound `M` on the per-tREFW estimated-count increase.
///
/// # Panics
///
/// Panics if `nentry` or `rfm_th` is zero.
///
/// # Example
///
/// ```
/// use mithril::bounds::theorem1_bound;
/// use mithril_dram::Ddr5Timing;
///
/// let t = Ddr5Timing::ddr5_4800();
/// // More table entries tighten the bound (until N approaches W):
/// assert!(theorem1_bound(512, 128, &t) < theorem1_bound(64, 128, &t));
/// ```
pub fn theorem1_bound(nentry: usize, rfm_th: u64, timing: &Ddr5Timing) -> f64 {
    m_bound(nentry, rfm_th, rfm_intervals(rfm_th, timing), None)
}

/// The Theorem-2 bound `M'` under adaptive refresh with threshold `ad_th`.
///
/// For `ad_th = 0` this equals [`theorem1_bound`].
///
/// # Panics
///
/// Panics if `nentry` or `rfm_th` is zero.
///
/// # Example
///
/// ```
/// use mithril::bounds::{theorem1_bound, theorem2_bound};
/// use mithril_dram::Ddr5Timing;
///
/// let t = Ddr5Timing::ddr5_4800();
/// // Skipping refreshes (AdTH > 0) can only loosen the bound:
/// assert!(theorem2_bound(256, 64, 200, &t) >= theorem1_bound(256, 64, &t));
/// ```
pub fn theorem2_bound(nentry: usize, rfm_th: u64, ad_th: u64, timing: &Ddr5Timing) -> f64 {
    m_bound(nentry, rfm_th, rfm_intervals(rfm_th, timing), Some(ad_th))
}

/// The bound `M` of Theorem 1 (`ad_th` `None` or `Some(0)`) or `M'` of
/// Theorem 2 for a table of `nentry` entries and a window of `w` RFM
/// intervals. Pure in its arguments: callers choose `w`, which is
/// [`rfm_intervals`] for a DDR5 timing.
///
/// # Panics
///
/// Panics if `nentry` or `rfm_th` is zero.
///
/// # Example
///
/// ```
/// use mithril::bounds::{m_bound, rfm_intervals, theorem1_bound};
/// use mithril_dram::Ddr5Timing;
///
/// let t = Ddr5Timing::ddr5_4800();
/// let w = rfm_intervals(128, &t);
/// assert_eq!(m_bound(256, 128, w, None), theorem1_bound(256, 128, &t));
/// // N = 2, RFMTH = 8, W = 4: M = 8·(1 + 1/2) + 8·(4 − 2)/2 = 20.
/// assert_eq!(m_bound(2, 8, 4, None), 20.0);
/// ```
pub fn m_bound(nentry: usize, rfm_th: u64, w: u64, ad_th: Option<u64>) -> f64 {
    assert!(nentry > 0, "nentry must be non-zero");
    assert!(rfm_th > 0, "rfm_th must be non-zero");
    let ad = ad_th.unwrap_or(0);
    let star = n_star(nentry, rfm_th, ad);
    m_given_harmonic(harmonic(star), nentry, star, rfm_th, w, ad)
}

/// Theorem 2's `n* = ⌈N·RFMTH / (RFMTH + AdTH)⌉`, clamped to `[1, N]`.
/// It equals `N` at `AdTH = 0`, and it never decreases as `N` grows
/// (the quotient is a correctly rounded, hence monotone, division).
fn n_star(nentry: usize, rfm_th: u64, ad_th: u64) -> usize {
    let n = nentry as f64;
    let rfm = rfm_th as f64;
    ((n * rfm) / (rfm + ad_th as f64)).ceil().clamp(1.0, n) as usize
}

/// `M` (`ad_th == 0`) or `M'`, given `h = harmonic(n_star)`. The two
/// forms are evaluated exactly as the theorems write them, so a caller
/// that carries `h` as a running sum gets the same bits as
/// [`m_bound`].
fn m_given_harmonic(h: f64, nentry: usize, n_star: usize, rfm_th: u64, w: u64, ad_th: u64) -> f64 {
    let w = w as f64;
    let n = nentry as f64;
    let rfm = rfm_th as f64;
    if ad_th == 0 {
        return rfm * h + rfm * (w - 2.0) / n;
    }
    let n_star = n_star as f64;
    let ad = ad_th as f64;
    rfm * h + ((w - n_star + n - 2.0) * rfm + (n - n_star) * ad) / n
}

/// Smallest `Nentry` such that the Theorem-1 bound (Theorem 2 under a
/// non-zero `ad_th`) satisfies `M < flip_th / aggregated_effect` — the
/// configuration rule of Section IV-D (with `aggregated_effect = 2` for
/// the double-sided attack, or larger under non-adjacent RH, Section V-C).
///
/// Returns `None` when no table size can protect the given `(FlipTH,
/// RFMTH)` pair — the bound is minimized near `N ≈ W − 2` and grows again
/// beyond it, so feasibility is decidable.
///
/// # Panics
///
/// Panics if `rfm_th` is zero or `aggregated_effect` is not positive.
///
/// # Example
///
/// ```
/// use mithril::bounds::min_entries;
/// use mithril_dram::Ddr5Timing;
///
/// let t = Ddr5Timing::ddr5_4800();
/// let n = min_entries(6_250, 128, 2.0, None, &t).expect("feasible");
/// // Paper Section VI-B: ~1 KB table at FlipTH 6.25K / RFMTH 128,
/// // i.e. a few hundred entries.
/// assert!((200..400).contains(&n), "n = {n}");
/// ```
pub fn min_entries(
    flip_th: u64,
    rfm_th: u64,
    aggregated_effect: f64,
    ad_th: Option<u64>,
    timing: &Ddr5Timing,
) -> Option<usize> {
    assert!(rfm_th > 0, "rfm_th must be non-zero");
    assert!(
        aggregated_effect > 0.0,
        "aggregated_effect must be positive"
    );
    let target = flip_th as f64 / aggregated_effect;
    let w = rfm_intervals(rfm_th, timing);
    let ad = ad_th.unwrap_or(0);
    // M(N) decreases while N < W − 2 and increases afterwards; scan the
    // decreasing region once. `harmonic(n*)` is carried as a running sum:
    // n* never decreases and never passes N, so the scan is O(W), and
    // the sum is added in the same order `harmonic` adds it.
    let limit = (w as usize).max(4);
    let (mut summed, mut harmonic_sum) = (0usize, 0.0);
    for n in 1..=limit {
        let star = n_star(n, rfm_th, ad);
        while summed < star {
            summed += 1;
            harmonic_sum += 1.0 / summed as f64;
        }
        if m_given_harmonic(harmonic_sum, n, star, rfm_th, w, ad) < target {
            return Some(n);
        }
    }
    None
}

/// The first `n` terms of the harmonic series, `Σ_{k=1}^{n} 1/k`.
pub fn harmonic(n: usize) -> f64 {
    // Exact summation is cheap for the table sizes involved (≤ ~100K).
    (1..=n).map(|k| 1.0 / k as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Ddr5Timing {
        Ddr5Timing::ddr5_4800()
    }

    #[test]
    fn harmonic_known_values() {
        assert!((harmonic(1) - 1.0).abs() < 1e-12);
        assert!((harmonic(2) - 1.5).abs() < 1e-12);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn theorem1_matches_hand_computation() {
        // At RFMTH = 128: W = ceil(29.5836 ms / 6323.2 ns) = 4679.
        let timing = t();
        let w = rfm_intervals(128, &timing);
        assert_eq!(w, 4679);
        let m = theorem1_bound(256, 128, &timing);
        let expect = 128.0 * harmonic(256) + 128.0 * (4679.0 - 2.0) / 256.0;
        assert!((m - expect).abs() < 1e-9);
        // And that lands just under the FlipTH = 6.25K protection target,
        // matching the paper's ~1KB @ (6.25K, 128) configuration.
        assert!(m < 3125.0);
        assert!(theorem1_bound(230, 128, &timing) > 3125.0);
    }

    #[test]
    fn theorem2_reduces_to_theorem1_at_zero_adth() {
        let timing = t();
        for (n, rfm) in [(64, 32), (256, 128), (1024, 256)] {
            let m1 = theorem1_bound(n, rfm, &timing);
            let m2 = theorem2_bound(n, rfm, 0, &timing);
            assert!((m1 - m2).abs() < 1e-9, "n={n} rfm={rfm}: {m1} vs {m2}");
        }
    }

    #[test]
    fn theorem2_monotone_in_adth() {
        let timing = t();
        let mut prev = theorem2_bound(256, 64, 0, &timing);
        for ad in [50, 100, 150, 200, 400] {
            let m = theorem2_bound(256, 64, ad, &timing);
            assert!(m >= prev - 1e-9, "AdTH={ad}: {m} < {prev}");
            prev = m;
        }
    }

    #[test]
    fn min_entries_feasible_configs_match_paper_scale() {
        let timing = t();
        // Paper Fig. 6 / Table IV sanity: higher FlipTH → smaller tables.
        let n50k = min_entries(50_000, 256, 2.0, None, &timing).unwrap();
        let n6k = min_entries(6_250, 128, 2.0, None, &timing).unwrap();
        let n1_5k = min_entries(1_500, 32, 2.0, None, &timing).unwrap();
        assert!(n50k < n6k && n6k < n1_5k, "{n50k} {n6k} {n1_5k}");
        // Table IV: Mithril-256 @50K is 0.08 KB (~20 entries at ~29 bits).
        assert!((8..40).contains(&n50k), "n50k = {n50k}");
        // Table IV: Mithril-32 @1.5K is 4.64 KB (~1.3K entries).
        assert!((800..2200).contains(&n1_5k), "n1_5k = {n1_5k}");
    }

    #[test]
    fn min_entries_detects_infeasibility() {
        let timing = t();
        // RFMTH = 1024 cannot protect FlipTH = 1.5K no matter the table:
        // each interval admits 1024 ACTs > FlipTH/2 already.
        assert_eq!(min_entries(1_500, 1024, 2.0, None, &timing), None);
    }

    /// `min_entries` as it was before the O(W) scan: under AdTH it
    /// re-evaluated `theorem2_bound(n)`, re-summing `harmonic(n*)`, at
    /// every `n`.
    fn min_entries_reference(
        flip_th: u64,
        rfm_th: u64,
        aggregated_effect: f64,
        ad_th: Option<u64>,
        timing: &Ddr5Timing,
    ) -> Option<usize> {
        let target = flip_th as f64 / aggregated_effect;
        let w = rfm_intervals(rfm_th, timing) as usize;
        let rfm = rfm_th as f64;
        let mut harmonic_sum = 0.0;
        for n in 1..=w.max(4) {
            harmonic_sum += 1.0 / n as f64;
            let m = match ad_th {
                None | Some(0) => rfm * harmonic_sum + rfm * (w as f64 - 2.0) / n as f64,
                Some(ad) => {
                    let (nf, adf) = (n as f64, ad as f64);
                    let n_star = ((nf * rfm) / (rfm + adf)).ceil().clamp(1.0, nf);
                    // `harmonic(n*)`, summed afresh in the same order.
                    let mut h = 0.0;
                    for k in 1..=n_star as usize {
                        h += 1.0 / k as f64;
                    }
                    rfm * h + ((w as f64 - n_star + nf - 2.0) * rfm + (nf - n_star) * adf) / nf
                }
            };
            if m < target {
                return Some(n);
            }
        }
        None
    }

    #[test]
    fn linear_scan_matches_the_reference_on_every_cell() {
        let timing = t();
        let (mut cells, mut infeasible) = (0, 0);
        for flip in [500, 1_000, 1_500, 3_125, 6_250, 12_500, 25_000, 50_000] {
            for rfm in [8, 16, 32, 64, 128, 256, 512] {
                for ad in [
                    None,
                    Some(0),
                    Some(1),
                    Some(10),
                    Some(50),
                    Some(100),
                    Some(200),
                    Some(400),
                ] {
                    let got = min_entries(flip, rfm, 2.0, ad, &timing);
                    let want = min_entries_reference(flip, rfm, 2.0, ad, &timing);
                    assert_eq!(got, want, "FlipTH {flip}, RFMTH {rfm}, AdTH {ad:?}");
                    cells += 1;
                    infeasible += usize::from(got.is_none());
                }
            }
        }
        assert_eq!(cells, 448);
        // The grid reaches past the feasibility edge on both sides.
        assert!(
            0 < infeasible && infeasible < cells,
            "{infeasible} infeasible"
        );
    }

    #[test]
    fn m_bound_is_the_reference_bound_bit_for_bit() {
        let timing = t();
        for rfm in [8, 32, 128, 512] {
            let w = rfm_intervals(rfm, &timing);
            for n in [1, 2, 7, 64, 300, 1_000] {
                let (nf, rfmf, wf) = (n as f64, rfm as f64, w as f64);
                let m1 = rfmf * harmonic(n) + rfmf * (wf - 2.0) / nf;
                assert_eq!(theorem1_bound(n, rfm, &timing).to_bits(), m1.to_bits());
                assert_eq!(m_bound(n, rfm, w, None).to_bits(), m1.to_bits());
                assert_eq!(theorem2_bound(n, rfm, 0, &timing).to_bits(), m1.to_bits());
                for ad in [1, 50, 400] {
                    let adf = ad as f64;
                    let star = ((nf * rfmf) / (rfmf + adf)).ceil().clamp(1.0, nf);
                    let m2 = rfmf * harmonic(star as usize)
                        + ((wf - star + nf - 2.0) * rfmf + (nf - star) * adf) / nf;
                    assert_eq!(theorem2_bound(n, rfm, ad, &timing).to_bits(), m2.to_bits());
                }
            }
        }
    }

    #[test]
    fn adaptive_needs_more_entries() {
        let timing = t();
        // Paper Fig. 7: additional Nentry up to ~12% at low FlipTH.
        let base = min_entries(3_125, 16, 2.0, None, &timing).unwrap();
        let adaptive = min_entries(3_125, 16, 2.0, Some(200), &timing).unwrap();
        assert!(adaptive >= base);
        let increase = (adaptive - base) as f64 / base as f64;
        assert!(increase < 0.35, "unreasonable Nentry increase {increase}");
    }

    #[test]
    fn non_adjacent_effect_needs_more_entries() {
        let timing = t();
        // Section V-C: range-3 aggregated effect 3.5 tightens the target.
        let double = min_entries(6_250, 64, 2.0, None, &timing).unwrap();
        let wide = min_entries(6_250, 64, 3.5, None, &timing).unwrap();
        assert!(wide > double);
    }

    #[test]
    fn bound_is_conservative_vs_trivial_lower_limit() {
        // M can never be below RFMTH (the first harmonic term alone).
        let timing = t();
        for rfm in [16u64, 64, 256] {
            assert!(theorem1_bound(1000, rfm, &timing) >= rfm as f64);
        }
    }

    #[test]
    #[should_panic(expected = "nentry")]
    fn zero_nentry_panics() {
        let _ = theorem1_bound(0, 64, &t());
    }
}
