//! PARFM: the RFM-compatible probabilistic scheme (paper Section III-E and
//! Appendix C).
//!
//! Whenever an RFM command arrives, PARFM refreshes the victims of a single
//! aggressor row sampled uniformly from the last `RFMTH` activations
//! (reservoir sampling of size 1). Protection is probabilistic and depends
//! only on `RFMTH`; meeting a `10^-15` failure target at low FlipTH forces
//! `RFMTH` far below what deterministic Mithril needs, which is where
//! PARFM's energy/performance overhead comes from (paper Fig. 10).

use mithril_dram::{victims, Ddr5Timing, DramMitigation, RfmOutcome, RowId};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// The PARFM engine (DRAM-side, one per bank).
///
/// # Example
///
/// ```
/// use mithril_baselines::Parfm;
/// use mithril_dram::DramMitigation;
///
/// let mut p = Parfm::new(64, 65_536, 1);
/// for _ in 0..64 {
///     p.on_activate(1234);
/// }
/// // Only one row was activated, so it is certainly the sample.
/// let out = p.on_rfm();
/// assert_eq!(out.selected_aggressor, Some(1234));
/// ```
#[derive(Debug, Clone)]
pub struct Parfm {
    rfm_th: u64,
    rows_per_bank: u64,
    rng: SmallRng,
    /// Current reservoir sample and how many ACTs this interval has seen.
    sample: Option<RowId>,
    seen: u64,
    refreshes: u64,
}

impl Parfm {
    /// Creates a PARFM engine for the given RFM threshold.
    ///
    /// # Panics
    ///
    /// Panics if `rfm_th` is zero.
    pub fn new(rfm_th: u64, rows_per_bank: u64, seed: u64) -> Self {
        assert!(rfm_th > 0, "rfm_th must be non-zero");
        Self {
            rfm_th,
            rows_per_bank,
            rng: SmallRng::seed_from_u64(seed),
            sample: None,
            seen: 0,
            refreshes: 0,
        }
    }

    /// Preventive refreshes executed so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// The configured RFM threshold.
    pub fn rfm_th(&self) -> u64 {
        self.rfm_th
    }
}

impl DramMitigation for Parfm {
    fn on_activate(&mut self, row: RowId) {
        self.seen += 1;
        // Reservoir sampling of size 1: the i-th item replaces the sample
        // with probability 1/i, giving each of the last-interval ACTs an
        // equal 1/seen chance.
        if self.rng.random_range(0..self.seen) == 0 {
            self.sample = Some(row);
        }
    }

    fn on_rfm_into(&mut self, out: &mut RfmOutcome) {
        match self.sample.take() {
            Some(row) => {
                self.refreshes += 1;
                out.begin_refresh(row)
                    .extend(victims(row, 1, self.rows_per_bank));
            }
            None => out.reset_to_skipped(),
        }
        self.seen = 0;
    }

    fn name(&self) -> &'static str {
        "parfm"
    }
}

/// The Appendix-C failure analysis for PARFM.
pub mod parfm_analysis {
    use super::*;

    /// Probability that a single row reaches `flip_th/2` un-refreshed ACTs
    /// within one tREFW window (`Fail(1)` of Appendix C).
    ///
    /// The paper's cost-effectiveness argument (Equation (5)) shows the
    /// attacker's best pattern activates a target row `j = 1` time per
    /// RFM interval. When the window holds fewer intervals than `FlipTH/2`
    /// (`W < F/2`, large RFMTH), `j = 1` cannot reach the threshold at all
    /// and the attacker's best *feasible* intensity is
    /// `j = ⌈(F/2)/W⌉` — Equation (5) is monotone, so the smallest feasible
    /// `j` is optimal. With that generalization the recurrence becomes
    ///
    /// ```text
    /// P[i] = P[i−1] + (j/R)(1−j/R)^{⌈F/(2j)⌉} (1 − P[i − ⌈F/(2j)⌉ − 1])
    /// ```
    ///
    /// which reduces to the paper's Appendix-C form at `j = 1`.
    ///
    /// # Panics
    ///
    /// Panics if `rfm_th` is zero or `flip_th < 2`.
    pub fn single_row_failure(flip_th: u64, rfm_th: u64, timing: &Ddr5Timing) -> f64 {
        assert!(rfm_th > 0, "rfm_th must be non-zero");
        assert!(flip_th >= 2, "flip_th must be at least 2");
        let w = timing.rfm_intervals_per_trefw(rfm_th) as usize;
        let half = (flip_th / 2).max(1);
        // Optimal feasible per-interval intensity.
        let j = half.div_ceil(w as u64).max(1);
        if j > rfm_th {
            return 0.0; // even hammering every slot cannot reach FlipTH/2
        }
        // Intervals the attacked row needs at intensity j.
        let need = half.div_ceil(j) as usize;
        if need > w {
            return 0.0;
        }
        let r = rfm_th as f64;
        let sel = j as f64 / r; // per-interval selection probability
        let escape = (1.0 - sel).powi(need as i32);
        if escape == 0.0 {
            // Every interval selects the row (RFMTH = j), or the escape
            // underflows: each step adds `sel · 0`, so the recurrence
            // below would stay at zero for all W intervals.
            return 0.0;
        }
        let step = sel * escape;
        // P[i] for i in need..=W, keeping only the last need + 1 values:
        // P[i] goes to slot i mod (need + 1), which holds P[i − need − 1],
        // the lookback it replaces. P[i] = 0 for i < need, and
        // P[need] = escape ≤ 1.
        let mut ring = vec![0.0f64; need + 1];
        let mut slot = need;
        let mut p = escape;
        ring[slot] = p;
        for _ in need..w {
            slot = if slot == need { 0 } else { slot + 1 };
            p += step * (1.0 - ring[slot]);
            if p >= 1.0 {
                // P clamps at 1, and every later step adds a
                // non-negative term to 1 and clamps again.
                return 1.0;
            }
            ring[slot] = p;
        }
        p
    }

    /// System failure probability across `banks` simultaneously attackable
    /// banks: `1 − (1 − Fail(1))^banks`, evaluated in log-space for tiny
    /// probabilities.
    pub fn system_failure(flip_th: u64, rfm_th: u64, banks: u64, timing: &Ddr5Timing) -> f64 {
        let f1 = single_row_failure(flip_th, rfm_th, timing);
        if f1 == 0.0 {
            return 0.0;
        }
        // 1-(1-f)^n = -expm1(n * ln(1-f)); ln_1p(-f) is stable for tiny f.
        -f64::exp_m1(banks as f64 * f64::ln_1p(-f1))
    }

    /// Largest `RFMTH` meeting a system failure `target` (e.g. `1e-15`)
    /// for `banks` attackable banks — the configuration rule of
    /// Section VI-A. Returns `None` if even `RFMTH = 1` fails.
    pub fn max_rfm_th(flip_th: u64, target: f64, banks: u64, timing: &Ddr5Timing) -> Option<u64> {
        let mut best = None;
        // Failure grows monotonically with RFMTH: binary search.
        let (mut lo, mut hi) = (1u64, 4096u64);
        if system_failure(flip_th, lo, banks, timing) > target {
            return None;
        }
        while lo <= hi {
            let mid = (lo + hi) / 2;
            if system_failure(flip_th, mid, banks, timing) <= target {
                best = Some(mid);
                lo = mid + 1;
            } else {
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::parfm_analysis::*;
    use super::*;

    fn timing() -> Ddr5Timing {
        Ddr5Timing::ddr5_4800()
    }

    #[test]
    fn reservoir_sampling_is_uniform() {
        // Hammer RFMTH distinct rows once per interval; each should be
        // selected ~1/RFMTH of the time.
        let mut p = Parfm::new(16, 65_536, 3);
        let mut hits = [0u64; 16];
        for _ in 0..20_000 {
            for r in 0..16u64 {
                p.on_activate(r);
            }
            if let Some(sel) = p.on_rfm().selected_aggressor {
                hits[sel as usize] += 1;
            }
        }
        let total: u64 = hits.iter().sum();
        assert_eq!(total, 20_000);
        for (r, &h) in hits.iter().enumerate() {
            let frac = h as f64 / total as f64;
            assert!((0.04..0.085).contains(&frac), "row {r}: {frac}");
        }
    }

    #[test]
    fn rfm_resets_interval() {
        let mut p = Parfm::new(8, 100, 1);
        p.on_activate(5);
        assert_eq!(p.on_rfm().selected_aggressor, Some(5));
        // New interval: nothing sampled yet.
        assert!(p.on_rfm().skipped);
    }

    #[test]
    fn failure_increases_with_rfmth() {
        let t = timing();
        let f64_ = single_row_failure(5_000, 64, &t);
        let f96 = single_row_failure(5_000, 96, &t);
        assert!(f64_ < f96, "{f64_} !< {f96}");
        let f128 = single_row_failure(5_000, 128, &t);
        let f256 = single_row_failure(5_000, 256, &t);
        assert!(f64_ < f128 && f128 < f256, "{f64_} {f128} {f256}");
    }

    #[test]
    fn failure_decreases_with_flipth() {
        let t = timing();
        let low = single_row_failure(2_000, 64, &t);
        let high = single_row_failure(20_000, 64, &t);
        assert!(high < low, "higher FlipTH must be safer: {high} vs {low}");
    }

    #[test]
    fn short_windows_cannot_fail() {
        let t = timing();
        // FlipTH/2 intervals exceed W: impossible to accumulate.
        assert_eq!(single_row_failure(10_000_000, 16, &t), 0.0);
    }

    #[test]
    fn solved_rfmth_meets_target_and_tracks_flipth() {
        let t = timing();
        let r50 = max_rfm_th(50_000, 1e-15, 22, &t).unwrap();
        let r6 = max_rfm_th(6_250, 1e-15, 22, &t).unwrap();
        let r1_5 = max_rfm_th(1_500, 1e-15, 22, &t).unwrap();
        assert!(r50 > r6 && r6 > r1_5, "{r50} {r6} {r1_5}");
        // The solved threshold indeed satisfies the target...
        assert!(system_failure(6_250, r6, 22, &t) <= 1e-15);
        // ...and the next one up does not.
        assert!(system_failure(6_250, r6 + 1, 22, &t) > 1e-15);
    }

    #[test]
    fn system_failure_scales_with_banks() {
        let t = timing();
        let one = system_failure(5_000, 64, 1, &t);
        let many = system_failure(5_000, 64, 22, &t);
        assert!(many > one);
        assert!(many < 22.5 * one);
    }

    /// The Appendix-C solver before its early exits and ring buffer: the
    /// recurrence filled a W + 1 vector at every RFMTH.
    mod reference {
        use mithril_dram::Ddr5Timing;

        pub fn single_row_failure(flip_th: u64, rfm_th: u64, timing: &Ddr5Timing) -> f64 {
            let w = timing.rfm_intervals_per_trefw(rfm_th) as usize;
            let half = (flip_th / 2).max(1);
            let j = half.div_ceil(w as u64).max(1);
            if j > rfm_th {
                return 0.0;
            }
            let need = half.div_ceil(j) as usize;
            if need > w {
                return 0.0;
            }
            let r = rfm_th as f64;
            let sel = j as f64 / r;
            let escape = (1.0 - sel).powi(need as i32);
            let step = sel * escape;
            let mut p = vec![0.0f64; w + 1];
            for i in need..=w {
                if i == need {
                    p[i] = escape;
                } else {
                    let lookback = if i > need { p[i - need - 1] } else { 0.0 };
                    p[i] = p[i - 1] + step * (1.0 - lookback);
                }
                if p[i] >= 1.0 {
                    p[i] = 1.0;
                }
            }
            p[w]
        }

        pub fn system_failure(flip_th: u64, rfm_th: u64, banks: u64, timing: &Ddr5Timing) -> f64 {
            let f1 = single_row_failure(flip_th, rfm_th, timing);
            if f1 == 0.0 {
                return 0.0;
            }
            -f64::exp_m1(banks as f64 * f64::ln_1p(-f1))
        }

        pub fn max_rfm_th(
            flip_th: u64,
            target: f64,
            banks: u64,
            timing: &Ddr5Timing,
        ) -> Option<u64> {
            let mut best = None;
            let (mut lo, mut hi) = (1u64, 4096u64);
            if system_failure(flip_th, lo, banks, timing) > target {
                return None;
            }
            while lo <= hi {
                let mid = (lo + hi) / 2;
                if system_failure(flip_th, mid, banks, timing) <= target {
                    best = Some(mid);
                    lo = mid + 1;
                } else {
                    hi = mid - 1;
                }
            }
            best
        }
    }

    #[test]
    fn solver_is_bit_identical_to_the_full_recurrence() {
        let t = timing();
        // Appendix C's FlipTHs, and the Fig. 9 (FlipTH, RFMTH) points.
        let fig9 = [
            (12_500, 512),
            (12_500, 256),
            (12_500, 128),
            (6_250, 256),
            (6_250, 128),
            (6_250, 64),
            (3_125, 128),
            (1_500, 32),
        ];
        // Tiny FlipTHs saturate P at 1 within the window.
        let saturating = [(4, 64), (10, 512), (40, 64), (100, 512)];
        for (flip, rfm) in saturating {
            assert_eq!(single_row_failure(flip, rfm, &t), 1.0, "({flip}, {rfm})");
        }
        let small = crate::FLIP_TH_SWEEP
            .iter()
            .flat_map(|&flip| (1..=8).map(move |rfm| (flip, rfm)));
        for (flip, rfm) in small.chain(fig9).chain(saturating) {
            for (got, want) in [
                (
                    single_row_failure(flip, rfm, &t),
                    reference::single_row_failure(flip, rfm, &t),
                ),
                (
                    system_failure(flip, rfm, 22, &t),
                    reference::system_failure(flip, rfm, 22, &t),
                ),
            ] {
                assert_eq!(got.to_bits(), want.to_bits(), "({flip}, {rfm})");
            }
        }
        for flip in crate::FLIP_TH_SWEEP.into_iter().chain([500, 1_000]) {
            assert_eq!(
                max_rfm_th(flip, 1e-15, 22, &t),
                reference::max_rfm_th(flip, 1e-15, 22, &t),
                "FlipTH {flip}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "rfm_th")]
    fn zero_rfmth_panics() {
        let _ = Parfm::new(0, 100, 1);
    }
}
