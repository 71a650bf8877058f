//! Command-level single-bank harness for safety experiments.
//!
//! Safety properties (does any victim row ever reach FlipTH?) depend only on
//! the per-bank command stream and the DDR timing budget — not on cores,
//! caches or scheduling. This harness replays the paper's analytical setting
//! exactly (Appendix, Theorem 1):
//!
//! * each ACT occupies one row cycle (tRC) — the fastest possible hammer;
//! * the memory controller issues an RFM after every `RFMTH` ACTs
//!   (Fig. 1(b)), costing tRFM;
//! * auto-refresh (REF) occurs every tREFI, costing tRFC and refreshing the
//!   next group of rows, all rows once per tREFW.
//!
//! Within one tREFW window this yields exactly the ACT budget
//! `tREFW(1 − tRFC/tREFI)/tRC` of the paper's analysis, so worst-case
//! attacks measured on this harness are directly comparable to the bound M.

use mithril_obs::{Event, EventSink, NullSink};

use crate::energy::EnergyCounters;
use crate::mitigation::DramMitigation;
use crate::oracle::RowHammerOracle;
use crate::rows::BankRows;
use crate::timing::Ddr5Timing;
use crate::types::{RowId, TimePs};

/// A single DRAM bank driven at maximum activation rate, with RFM cadence,
/// auto-refresh and exact disturbance accounting.
///
/// # Example
///
/// ```
/// use mithril_dram::{AttackHarness, Ddr5Timing, NoMitigation};
///
/// let t = Ddr5Timing::ddr5_4800();
/// // RFMTH = 64, FlipTH irrelevant for the unprotected engine.
/// let mut h = AttackHarness::new(t, Box::new(NoMitigation), 64, 10_000);
/// let mut acts = 0u64;
/// while h.try_activate(42) {
///     acts += 1;
/// }
/// // The whole-window ACT count is slightly below the no-RFM budget
/// // because every 64 ACTs pay an extra tRFM.
/// assert!(acts < t.act_budget_per_trefw());
/// assert!(acts > t.act_budget_per_trefw() * 9 / 10);
/// ```
pub struct AttackHarness<S: EventSink = NullSink> {
    timing: Ddr5Timing,
    rows: BankRows,
    rfm_th: u64,
    raa: u64,
    now: TimePs,
    window_end: TimePs,
    next_ref: TimePs,
    counters: EnergyCounters,
    mrr_elision: bool,
    rfms_elided: u64,
    /// Event sink; `NullSink` (the default) compiles every emission out.
    obs: S,
}

impl AttackHarness {
    /// Creates a harness around `engine` with the given RFM threshold and
    /// oracle FlipTH, over one tREFW window.
    ///
    /// # Panics
    ///
    /// Panics if `rfm_th` is zero.
    pub fn new(
        timing: Ddr5Timing,
        engine: Box<dyn DramMitigation>,
        rfm_th: u64,
        flip_th: u64,
    ) -> Self {
        Self::with_obs(
            timing,
            engine,
            rfm_th,
            flip_th,
            Self::DEFAULT_ROWS,
            1,
            NullSink,
        )
    }
}

impl<S: EventSink> AttackHarness<S> {
    /// Default number of rows in the harness bank.
    pub const DEFAULT_ROWS: u64 = 65_536;

    /// Creates an instrumented harness emitting events into `obs`
    /// (timestamped with the harness clock; the single bank is bank 0).
    ///
    /// The row side is flat. The oracle keeps one `u32` disturbance count
    /// per row ([`RowHammerOracle::flat`]), and the engine is told to go
    /// flat too ([`DramMitigation::use_flat_rows`]): a Mithril table then
    /// keeps one `u32` index word per row. That is 4 B × `rows` each,
    /// 256 KiB at [`DEFAULT_ROWS`](Self::DEFAULT_ROWS), allocated on the
    /// first ACT, so building a harness allocates no per-row storage.
    ///
    /// # Panics
    ///
    /// Panics if `rfm_th`, `rows` or `blast_radius` is zero, or if `rows`
    /// exceeds `2^24` (64 MiB of counts, and as much again for a Mithril
    /// table's index).
    #[allow(clippy::too_many_arguments)]
    pub fn with_obs(
        timing: Ddr5Timing,
        engine: Box<dyn DramMitigation>,
        rfm_th: u64,
        flip_th: u64,
        rows: u64,
        blast_radius: u64,
        obs: S,
    ) -> Self {
        assert!(rfm_th > 0, "rfm_th must be non-zero");
        assert!(rows <= 1 << 24, "rows must be at most 2^24");
        let oracle = RowHammerOracle::flat(flip_th.max(1), blast_radius, rows);
        Self {
            timing,
            rows: BankRows::new(engine, oracle, &timing),
            rfm_th,
            raa: 0,
            now: 0,
            window_end: timing.trefw,
            next_ref: timing.trefi,
            counters: EnergyCounters::default(),
            mrr_elision: false,
            rfms_elided: 0,
            obs,
        }
    }

    /// Enables Mithril+ behaviour: before issuing an RFM, poll the engine's
    /// mode-register flag (an MRR) and elide the RFM when it is clear.
    pub fn set_mrr_elision(&mut self, enabled: bool) {
        self.mrr_elision = enabled;
    }

    /// Attempts one ACT of `row` at the maximum legal rate.
    ///
    /// Returns `false` (without activating) once the current tREFW window
    /// has no room for another row cycle. Call [`advance_window`] to
    /// continue into the next window.
    ///
    /// [`advance_window`]: AttackHarness::advance_window
    pub fn try_activate(&mut self, row: RowId) -> bool {
        self.catch_up_refresh();
        if self.now + self.timing.trc > self.window_end {
            return false;
        }
        // One closed-page row cycle.
        if S::ENABLED {
            let before = self.tracker_evictions();
            self.rows.activate(row, &mut self.counters);
            self.obs.emit(self.now, Event::Act { bank: 0, row });
            let evicted = self.tracker_evictions() - before;
            if evicted > 0 {
                self.obs.emit(
                    self.now,
                    Event::TableEvict {
                        bank: 0,
                        evictions: evicted,
                    },
                );
            }
        } else {
            self.rows.activate(row, &mut self.counters);
        }
        self.counters.pres += 1;
        self.now += self.timing.trc;
        self.raa += 1;
        if self.raa >= self.rfm_th {
            self.issue_rfm();
            self.raa = 0;
        }
        true
    }

    /// Extends the simulation into the next tREFW window.
    pub fn advance_window(&mut self) {
        self.window_end += self.timing.trefw;
    }

    /// The exact disturbance oracle.
    pub fn oracle(&self) -> &RowHammerOracle {
        self.rows.oracle()
    }

    /// Accumulated operation counters.
    pub fn counters(&self) -> &EnergyCounters {
        &self.counters
    }

    /// Current simulated time.
    pub fn now(&self) -> TimePs {
        self.now
    }

    /// RFM commands actually issued to the bank.
    pub fn rfms_issued(&self) -> u64 {
        self.counters.rfm_commands
    }

    /// RFM commands elided via the Mithril+ MRR flag.
    pub fn rfms_elided(&self) -> u64 {
        self.rfms_elided
    }

    /// The wrapped mitigation engine.
    pub fn engine(&self) -> &dyn DramMitigation {
        self.rows.engine()
    }

    /// The event sink (for collectors to drain after a run).
    pub fn obs(&self) -> &S {
        &self.obs
    }

    /// Cumulative tracker evictions, `0` for engines without a tracker.
    fn tracker_evictions(&self) -> u64 {
        self.rows
            .engine()
            .observe_tracker()
            .map(|o| o.evictions)
            .unwrap_or(0)
    }

    fn issue_rfm(&mut self) {
        if self.mrr_elision && !self.rows.mrr(&mut self.counters) {
            self.rfms_elided += 1;
            if S::ENABLED {
                self.obs.emit(self.now, Event::RfmElided { bank: 0 });
            }
            return; // MC skips the RFM entirely: no time, no energy.
        }
        let outcome = self.rows.rfm(&mut self.counters);
        if S::ENABLED {
            self.obs.emit(
                self.now,
                Event::Rfm {
                    bank: 0,
                    aggressor: outcome.selected_aggressor,
                    victims: outcome.refreshed_victims.len() as u32,
                    skipped: outcome.skipped,
                },
            );
        }
        self.now += self.timing.trfm;
    }

    fn catch_up_refresh(&mut self) {
        while self.now >= self.next_ref {
            self.rows.refresh_group(&mut self.counters);
            if S::ENABLED {
                self.obs.emit(self.now, Event::Ref { rank: 0, banks: 1 });
            }
            self.now += self.timing.trfc;
            self.next_ref += self.timing.trefi;
        }
    }
}

impl<S: EventSink> std::fmt::Debug for AttackHarness<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttackHarness")
            .field("engine", &self.engine().name())
            .field("rfm_th", &self.rfm_th)
            .field("now", &self.now)
            .field("acts", &self.counters.acts)
            .field("rfms_issued", &self.counters.rfm_commands)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mitigation::{NoMitigation, RfmOutcome};

    #[test]
    fn act_budget_matches_analysis() {
        // With RFM cadence the per-window ACT count is
        // W * RFMTH (approximately), below the no-RFM budget.
        let t = Ddr5Timing::ddr5_4800();
        let mut h = AttackHarness::new(t, Box::new(NoMitigation), 64, u64::MAX);
        let mut acts = 0u64;
        while h.try_activate(1) {
            acts += 1;
        }
        let w = t.rfm_intervals_per_trefw(64);
        let lo = (w - 2) * 64;
        let hi = w * 64 + 64;
        assert!(
            acts >= lo && acts <= hi,
            "acts = {acts}, expected ~{}",
            w * 64
        );
    }

    #[test]
    fn rfm_cadence_is_every_rfmth_acts() {
        let t = Ddr5Timing::ddr5_4800();
        let mut h = AttackHarness::new(t, Box::new(NoMitigation), 10, u64::MAX);
        for _ in 0..100 {
            assert!(h.try_activate(5));
        }
        // 100 ACTs at RFMTH=10: 10 RFM checkpoints; NoMitigation never
        // refreshes but the MC still issues the command.
        assert_eq!(h.counters().rfm_commands, 10);
    }

    #[test]
    fn auto_refresh_covers_all_rows_in_one_window() {
        let t = Ddr5Timing::ddr5_4800();
        let rows = 4096;
        let mut h = AttackHarness::with_obs(
            t,
            Box::new(NoMitigation),
            1_000_000,
            u64::MAX,
            rows,
            1,
            NullSink,
        );
        while h.try_activate(0) {}
        // 8192 REFs happened; every row refreshed >= 1 time.
        assert!(h.counters().auto_refresh_rows >= rows);
    }

    #[test]
    fn unprotected_single_row_hammer_disturbs_massively() {
        let t = Ddr5Timing::ddr5_4800();
        let mut h = AttackHarness::new(t, Box::new(NoMitigation), 64, u64::MAX);
        while h.try_activate(1000) {}
        // Budget minus at most two auto-refresh resets of each neighbour.
        assert!(h.oracle().max_disturbance() > 500_000);
    }

    /// An engine that refreshes the neighbours of the hottest row it saw
    /// (a 1-entry Mithril): even this drastically caps disturbance.
    struct OneEntry {
        row: Option<RowId>,
        count: u64,
    }

    impl DramMitigation for OneEntry {
        fn on_activate(&mut self, row: RowId) {
            match self.row {
                Some(r) if r == row => self.count += 1,
                _ => {
                    self.row = Some(row);
                    self.count = 1;
                }
            }
        }
        fn on_rfm_into(&mut self, out: &mut RfmOutcome) {
            match self.row {
                Some(r) => {
                    self.count = 0;
                    out.begin_refresh(r).extend([r.saturating_sub(1), r + 1]);
                }
                None => out.reset_to_skipped(),
            }
        }
        fn name(&self) -> &'static str {
            "one-entry"
        }
    }

    #[test]
    fn single_row_hammer_vs_one_entry_tracker_is_bounded() {
        let t = Ddr5Timing::ddr5_4800();
        let engine = OneEntry {
            row: None,
            count: 0,
        };
        let mut h = AttackHarness::new(t, Box::new(engine), 64, u64::MAX);
        while h.try_activate(1000) {}
        // Disturbance on rows 999/1001 is reset every RFM: bounded by ~64.
        assert!(h.oracle().max_disturbance() <= 64 + 1);
    }

    #[test]
    fn mrr_elision_skips_rfm_when_flag_clear() {
        struct NeverPending;
        impl DramMitigation for NeverPending {
            fn on_activate(&mut self, _row: RowId) {}
            fn on_rfm_into(&mut self, out: &mut RfmOutcome) {
                out.reset_to_skipped();
            }
            fn refresh_pending(&self) -> bool {
                false
            }
            fn name(&self) -> &'static str {
                "never-pending"
            }
        }
        let t = Ddr5Timing::ddr5_4800();
        let mut h = AttackHarness::new(t, Box::new(NeverPending), 8, u64::MAX);
        h.set_mrr_elision(true);
        for _ in 0..80 {
            assert!(h.try_activate(3));
        }
        assert_eq!(h.rfms_issued(), 0);
        assert_eq!(h.rfms_elided(), 10);
        assert_eq!(h.counters().mrr_commands, 10);
    }

    #[test]
    fn advance_window_continues_simulation() {
        let t = Ddr5Timing::ddr5_4800();
        let mut h = AttackHarness::new(t, Box::new(NoMitigation), 64, u64::MAX);
        while h.try_activate(1) {}
        let acts_one_window = h.counters().acts;
        assert!(!h.try_activate(1));
        h.advance_window();
        assert!(h.try_activate(1));
        h.advance_window();
        while h.try_activate(1) {}
        assert!(h.counters().acts > acts_one_window);
    }

    #[test]
    #[should_panic(expected = "rows must be at most 2^24")]
    fn oversized_bank_panics() {
        let t = Ddr5Timing::ddr5_4800();
        let _ = AttackHarness::with_obs(
            t,
            Box::new(NoMitigation),
            64,
            100,
            (1 << 24) + 1,
            1,
            NullSink,
        );
    }

    #[test]
    #[should_panic(expected = "rfm_th")]
    fn zero_rfmth_panics() {
        let t = Ddr5Timing::ddr5_4800();
        let _ = AttackHarness::new(t, Box::new(NoMitigation), 0, 100);
    }
}
