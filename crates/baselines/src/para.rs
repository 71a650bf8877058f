//! PARA: Probabilistic Adjacent Row Activation refresh (Kim et al., ISCA
//! 2014).
//!
//! On every activation, with probability `p` the controller issues an ARR
//! refreshing the activated row's neighbours. No counters at all — the area
//! champion — but the guarantee is only probabilistic, and holding a
//! `10^-15` failure target at low FlipTH forces `p` (and thus energy/
//! performance cost) up (paper Sections II-C1 and VI-D).

use mithril_dram::{victims, BankId, RowId, TimePs};
use mithril_memctrl::{McAction, McMitigation};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// PARA configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParaConfig {
    /// Refresh probability per activation.
    pub probability: f64,
    /// Rows per bank (victim clamping).
    pub rows_per_bank: u64,
}

impl ParaConfig {
    /// Solves the refresh probability for a `target` system failure
    /// probability per tREFW (e.g. `1e-15`), given the per-bank activation
    /// budget and the number of simultaneously attackable banks.
    ///
    /// Model (single-sided, conservative): an attacker needs `FlipTH/2`
    /// un-refreshed ACTs on an aggressor; each ACT independently escapes
    /// refresh with probability `1−p`, so one campaign fails the defence
    /// with `(1−p)^(FlipTH/2)`. Per window an attacker fits
    /// `budget/(FlipTH/2)` campaigns per bank across `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `flip_th` is zero or `target` is not in `(0, 1)`.
    pub fn for_failure_target(flip_th: u64, target: f64, act_budget: u64, banks: u64) -> Self {
        assert!(flip_th > 0, "flip_th must be non-zero");
        assert!(target > 0.0 && target < 1.0, "target must be in (0,1)");
        let half = (flip_th / 2).max(1) as f64;
        let campaigns = (act_budget as f64 / half).max(1.0) * banks as f64;
        // campaigns * (1-p)^half <= target
        let per_campaign = target / campaigns;
        let p = 1.0 - per_campaign.powf(1.0 / half);
        Self {
            probability: p.clamp(0.0, 1.0),
            rows_per_bank: 65_536,
        }
    }
}

/// The PARA mitigation (MC-side, ARR remedy).
///
/// # Example
///
/// ```
/// use mithril_baselines::{Para, ParaConfig};
/// use mithril_memctrl::{McAction, McMitigation};
///
/// let cfg = ParaConfig { probability: 1.0, rows_per_bank: 1024 };
/// let mut para = Para::new(cfg, 42);
/// // With p = 1 every ACT triggers an ARR of the neighbours.
/// match para.on_activate(0, 100, 0, 0) {
///     McAction::Arr { victims, .. } => assert_eq!(victims, vec![99, 101]),
///     other => panic!("expected ARR, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Para {
    config: ParaConfig,
    rng: SmallRng,
}

impl Para {
    /// Creates a PARA instance with a deterministic RNG seed.
    pub fn new(config: ParaConfig, seed: u64) -> Self {
        Self {
            config,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl McMitigation for Para {
    fn on_activate(&mut self, bank: BankId, row: RowId, _thread: usize, _now: TimePs) -> McAction {
        if self.rng.random::<f64>() < self.config.probability {
            McAction::Arr {
                bank,
                victims: victims(row, 1, self.config.rows_per_bank).collect(),
            }
        } else {
            McAction::None
        }
    }

    fn name(&self) -> &'static str {
        "para"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_one_always_refreshes() {
        let mut p = Para::new(
            ParaConfig {
                probability: 1.0,
                rows_per_bank: 100,
            },
            1,
        );
        for i in 0..50 {
            assert!(matches!(p.on_activate(0, 10, 0, i), McAction::Arr { .. }));
        }
    }

    #[test]
    fn probability_zero_never_refreshes() {
        let mut p = Para::new(
            ParaConfig {
                probability: 0.0,
                rows_per_bank: 100,
            },
            1,
        );
        for i in 0..50 {
            assert_eq!(p.on_activate(0, 10, 0, i), McAction::None);
        }
    }

    #[test]
    fn refresh_rate_tracks_probability() {
        let mut p = Para::new(
            ParaConfig {
                probability: 0.05,
                rows_per_bank: 100,
            },
            7,
        );
        let n = 200_000;
        let arrs = (0..n)
            .filter(|&i| matches!(p.on_activate(0, 10, 0, i), McAction::Arr { .. }))
            .count();
        let rate = arrs as f64 / n as f64;
        assert!((0.045..0.055).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn solved_probability_scales_with_flipth() {
        let budget = 620_000;
        let p_low = ParaConfig::for_failure_target(1_500, 1e-15, budget, 22).probability;
        let p_high = ParaConfig::for_failure_target(50_000, 1e-15, budget, 22).probability;
        assert!(p_low > p_high, "lower FlipTH needs more aggressive refresh");
        // Sanity: PARA probabilities land in the classic ~0.001..0.1 range.
        assert!(
            p_high > 1e-4 && p_low < 0.2,
            "p_high={p_high} p_low={p_low}"
        );
    }

    #[test]
    fn solved_probability_meets_target() {
        let budget = 620_000u64;
        let flip = 6_250u64;
        let cfg = ParaConfig::for_failure_target(flip, 1e-15, budget, 22);
        let half = flip as f64 / 2.0;
        let campaigns = budget as f64 / half * 22.0;
        let system = campaigns * (1.0 - cfg.probability).powf(half);
        assert!(system <= 1.001e-15, "system failure {system}");
    }

    #[test]
    fn edge_rows_clamp_victims() {
        let mut p = Para::new(
            ParaConfig {
                probability: 1.0,
                rows_per_bank: 100,
            },
            1,
        );
        match p.on_activate(0, 0, 0, 0) {
            McAction::Arr { victims, .. } => assert_eq!(victims, vec![1]),
            other => panic!("{other:?}"),
        }
        match p.on_activate(0, 99, 0, 0) {
            McAction::Arr { victims, .. } => assert_eq!(victims, vec![98]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deterministic_under_same_seed() {
        let cfg = ParaConfig {
            probability: 0.3,
            rows_per_bank: 100,
        };
        let mut a = Para::new(cfg, 99);
        let mut b = Para::new(cfg, 99);
        for i in 0..1000 {
            assert_eq!(a.on_activate(0, 5, 0, i), b.on_activate(0, 5, 0, i));
        }
    }
}
