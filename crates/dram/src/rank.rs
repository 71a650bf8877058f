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
}

impl RankTiming {
    /// Creates an idle rank timing tracker.
    pub fn new(timing: Ddr5Timing) -> Self {
        Self {
            timing,
            recent_acts: VecDeque::with_capacity(4),
            last_act: None,
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
    pub(crate) fn can_activate(&self, now: TimePs) -> bool {
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
    fn back_to_back_acts_keep_trrd_and_tfaw() {
        // Ten ACTs, each at the earliest legal time: every one is
        // accepted, consecutive ones sit at least tRRD apart and any five
        // span at least tFAW.
        let t = Ddr5Timing::ddr5_4800();
        let mut r = RankTiming::new(t);
        let mut now = 0;
        let mut times = Vec::new();
        for _ in 0..10 {
            now = r.earliest_activate(now);
            assert!(r.can_activate(now));
            r.record_activate(now);
            times.push(now);
        }
        assert!(times.windows(2).all(|w| w[1] - w[0] >= t.trrd));
        assert!(times.windows(5).all(|w| w[4] - w[0] >= t.tfaw));
    }
}
