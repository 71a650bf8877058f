//! The assembled multi-bank DRAM device, as seen by a memory controller.
//!
//! A [`DramDevice`] bundles bank and rank timing, one energy ledger, and
//! the row side of every bank (`BankRows`: its in-DRAM mitigation engine —
//! paper Fig. 4: "an identical Mithril module … is populated per bank" —
//! its disturbance oracle and its auto-refresh pointer). The memory
//! controller (see `mithril-memctrl`) drives it through the `issue_*`
//! methods; the device enforces command legality.

use crate::bank::Bank;
use crate::energy::EnergyCounters;
use crate::mitigation::{DramMitigation, RfmOutcome};
use crate::oracle::RowHammerOracle;
use crate::rank::RankTiming;
use crate::rows::BankRows;
use crate::timing::Ddr5Timing;
use crate::types::{BankId, Geometry, RankId, RowId, TimePs};

/// A DDR5 channel-worth of DRAM: ranks × banks with per-bank mitigation.
///
/// # Example
///
/// ```
/// use mithril_dram::{Ddr5Timing, DramDevice, Geometry, NoMitigation};
///
/// let t = Ddr5Timing::ddr5_4800();
/// let g = Geometry::default();
/// let mut dev = DramDevice::new(g, t, 10_000, 1, |_bank| Box::new(NoMitigation));
/// let when = dev.earliest_activate(0, 0);
/// dev.issue_activate(0, 123, when);
/// assert_eq!(dev.bank(0).open_row(), Some(123));
/// ```
pub struct DramDevice {
    geometry: Geometry,
    timing: Ddr5Timing,
    banks: Vec<Bank>,
    ranks: Vec<RankTiming>,
    /// Each bank's row side. An all-bank REF refreshes the same row group
    /// in every bank of the rank, so the banks' pointers move together.
    rows: Vec<BankRows>,
    counters: EnergyCounters,
}

impl DramDevice {
    /// Builds a device; `engine_for` constructs the per-bank mitigation.
    ///
    /// A device always models exactly one channel: a multi-channel
    /// [`Geometry`] is narrowed to its [`Geometry::channel_view`], and the
    /// system layer (see `mithril-sim`) instantiates one device per channel.
    pub fn new(
        geometry: Geometry,
        timing: Ddr5Timing,
        flip_th: u64,
        blast_radius: u64,
        engine_for: impl Fn(BankId) -> Box<dyn DramMitigation>,
    ) -> Self {
        let geometry = geometry.channel_view();
        let n = geometry.banks_total();
        Self {
            geometry,
            timing,
            banks: (0..n).map(|_| Bank::new(timing)).collect(),
            ranks: (0..geometry.ranks)
                .map(|_| RankTiming::new(timing))
                .collect(),
            rows: (0..n)
                .map(|bank| {
                    let oracle =
                        RowHammerOracle::new(flip_th.max(1), blast_radius, geometry.rows_per_bank);
                    BankRows::new(engine_for(bank), oracle, &timing)
                })
                .collect(),
            counters: EnergyCounters::default(),
        }
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The timing parameters.
    pub fn timing(&self) -> &Ddr5Timing {
        &self.timing
    }

    /// Immutable access to a bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank(&self, bank: BankId) -> &Bank {
        &self.banks[bank]
    }

    /// The disturbance oracle of a bank.
    pub fn oracle(&self, bank: BankId) -> &RowHammerOracle {
        self.rows[bank].oracle()
    }

    /// The mitigation engine of a bank.
    pub fn engine(&self, bank: BankId) -> &dyn DramMitigation {
        self.rows[bank].engine()
    }

    /// Aggregate tracker snapshot across all bank engines (observability
    /// probe): per-bank observations merged per
    /// [`mithril_obs::TrackerObservation::merge`]. Engines without a
    /// tracker contribute nothing.
    pub fn observe_trackers(&self) -> mithril_obs::TrackerObservation {
        let mut agg = mithril_obs::TrackerObservation::default();
        for rows in &self.rows {
            if let Some(obs) = rows.engine().observe_tracker() {
                agg.merge(obs);
            }
        }
        agg
    }

    /// Worst victim disturbance across all banks (safety metric).
    pub fn max_disturbance(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| r.oracle().max_disturbance())
            .max()
            .unwrap_or(0)
    }

    /// Total detected bit flips across banks.
    pub fn total_flips(&self) -> usize {
        self.rows.iter().map(|r| r.oracle().flips().len()).sum()
    }

    /// Accumulated operation counters (for the energy model).
    pub fn counters(&self) -> &EnergyCounters {
        &self.counters
    }

    /// Earliest time an ACT to `bank` may issue, at or after `now`.
    pub fn earliest_activate(&self, bank: BankId, now: TimePs) -> TimePs {
        let (rank, _) = self.geometry.split_bank(bank);
        self.banks[bank]
            .earliest_activate()
            .max(self.ranks[rank.0].earliest_activate(now))
            .max(now)
    }

    /// Earliest time rank-level constraints (tRRD / tFAW) allow *any* ACT
    /// on `rank`, at or after `now` — the rank's next-activate event time.
    /// The event-driven controller caches per-bank activation candidates
    /// and applies this rank-wide floor at selection time, so an ACT on a
    /// sibling bank doesn't have to invalidate the whole rank.
    pub fn earliest_rank_activate(&self, rank: RankId, now: TimePs) -> TimePs {
        self.ranks[rank.0].earliest_activate(now)
    }

    /// Issues an ACT, informing the mitigation engine and the oracle.
    ///
    /// # Panics
    ///
    /// Panics if the ACT is illegal at `now`.
    pub fn issue_activate(&mut self, bank: BankId, row: RowId, now: TimePs) {
        let (rank, _) = self.geometry.split_bank(bank);
        self.banks[bank].issue_activate(row, now);
        self.ranks[rank.0].record_activate(now);
        self.rows[bank].activate(row, &mut self.counters);
    }

    /// Issues a PRE.
    ///
    /// # Panics
    ///
    /// Panics if the PRE is illegal at `now`.
    pub fn issue_precharge(&mut self, bank: BankId, now: TimePs) {
        self.banks[bank].issue_precharge(now);
        self.counters.pres += 1;
    }

    /// Issues a read burst; returns data-completion time.
    ///
    /// # Panics
    ///
    /// Panics if the command is illegal at `now`.
    pub fn issue_read(&mut self, bank: BankId, row: RowId, now: TimePs) -> TimePs {
        self.counters.reads += 1;
        self.banks[bank].issue_read(row, now)
    }

    /// Issues a write burst; returns commit time.
    ///
    /// # Panics
    ///
    /// Panics if the command is illegal at `now`.
    pub fn issue_write(&mut self, bank: BankId, row: RowId, now: TimePs) -> TimePs {
        self.counters.writes += 1;
        self.banks[bank].issue_write(row, now)
    }

    /// True if every bank of `rank` can start a REF at `now`.
    pub fn can_refresh_rank(&self, rank: RankId, now: TimePs) -> bool {
        self.rank_banks(rank)
            .all(|b| self.banks[b].can_refresh(now))
    }

    /// Issues an all-bank REF to `rank`: every bank of the rank refreshes
    /// the rank's next row group. Returns the busy-until time and the row
    /// range `lo..hi` refreshed in each bank (so controller-side schemes
    /// can observe refresh feedback).
    ///
    /// # Panics
    ///
    /// Panics if any bank of the rank cannot refresh at `now`.
    pub fn issue_refresh_rank(&mut self, rank: RankId, now: TimePs) -> (TimePs, RowId, RowId) {
        let mut busy = now;
        let mut group = 0..0;
        for b in self.rank_banks(rank) {
            busy = busy.max(self.banks[b].issue_refresh(now));
            group = self.rows[b].refresh_group(&mut self.counters);
        }
        (busy, group.start, group.end)
    }

    /// Issues an RFM to `bank`, handing the tRFM window to its engine.
    /// Returns the outcome (borrowed from the bank's reusable buffer — the
    /// victim list is only valid until the bank's next `issue_rfm`) and the
    /// busy-until time.
    ///
    /// # Panics
    ///
    /// Panics if the bank cannot refresh at `now`.
    pub fn issue_rfm(&mut self, bank: BankId, now: TimePs) -> (&RfmOutcome, TimePs) {
        let busy = self.banks[bank].issue_rfm(now);
        (self.rows[bank].rfm(&mut self.counters), busy)
    }

    /// Polls the Mithril+ mode-register flag of `bank` (an MRR command).
    pub fn issue_mrr(&mut self, bank: BankId) -> bool {
        self.rows[bank].mrr(&mut self.counters)
    }

    /// Executes an MC-directed ARR on `bank`: preventively refreshes
    /// `victims` rows. Returns the busy-until time.
    ///
    /// # Panics
    ///
    /// Panics if the bank cannot refresh at `now`.
    pub fn issue_arr(&mut self, bank: BankId, victims: &[RowId], now: TimePs) -> TimePs {
        self.rows[bank].refresh(victims, &mut self.counters);
        self.banks[bank].issue_arr(now, victims.len() as u64)
    }

    fn rank_banks(&self, rank: RankId) -> impl Iterator<Item = BankId> {
        let per = self.geometry.banks_per_rank;
        (rank.0 * per)..(rank.0 * per + per)
    }
}

impl std::fmt::Debug for DramDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DramDevice")
            .field("geometry", &self.geometry)
            .field("banks", &self.banks.len())
            .field("engine", &self.rows.first().map(|r| r.engine().name()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mitigation::NoMitigation;

    fn device() -> DramDevice {
        DramDevice::new(
            Geometry::default(),
            Ddr5Timing::ddr5_4800(),
            100_000,
            1,
            |_| Box::new(NoMitigation),
        )
    }

    #[test]
    fn activate_reaches_engine_and_oracle() {
        let mut d = device();
        d.issue_activate(3, 77, 0);
        assert_eq!(d.oracle(3).disturbance(76), 1);
        assert_eq!(d.oracle(3).disturbance(78), 1);
        assert_eq!(d.counters().acts, 1);
        // Other banks unaffected.
        assert_eq!(d.oracle(2).disturbance(76), 0);
    }

    #[test]
    fn rank_constraints_apply_across_banks() {
        let d = device();
        let t = *d.timing();
        let mut d = d;
        d.issue_activate(0, 1, 0);
        // Bank 1 is free but the rank imposes tRRD.
        assert_eq!(d.earliest_activate(1, 0), t.trrd);
    }

    #[test]
    fn refresh_rank_advances_row_groups() {
        let mut d = device();
        let rows_per_ref = d.timing().rows_per_ref(d.geometry().rows_per_bank);
        d.issue_activate(0, 0, 0);
        assert_eq!(d.oracle(0).disturbance(1), 1);
        let t = *d.timing();
        d.issue_precharge(0, t.tras);
        // First REF covers rows [0, rows_per_ref), clearing row 1.
        let now = t.trc + t.trp;
        assert!(d.can_refresh_rank(crate::types::RankId(0), now));
        let (_, lo, hi) = d.issue_refresh_rank(crate::types::RankId(0), now);
        assert_eq!(d.oracle(0).disturbance(1), 0);
        assert_eq!((lo, hi), (0, rows_per_ref));
        assert_eq!(d.counters().auto_refresh_rows, 32 * rows_per_ref);
    }

    #[test]
    fn rfm_hands_window_to_engine() {
        let mut d = device();
        let (outcome, busy) = d.issue_rfm(5, 0);
        assert!(outcome.skipped); // NoMitigation
        assert_eq!(busy, d.timing().trfm);
        assert_eq!(d.counters().rfm_commands, 1);
    }

    #[test]
    fn arr_refreshes_named_victims() {
        let mut d = device();
        d.issue_activate(2, 50, 0);
        let t = *d.timing();
        d.issue_precharge(2, t.tras);
        let now = t.tras + t.trp;
        d.issue_arr(2, &[49, 51], now);
        assert_eq!(d.oracle(2).disturbance(49), 0);
        assert_eq!(d.oracle(2).disturbance(51), 0);
        assert_eq!(d.counters().preventive_rows, 2);
    }

    #[test]
    fn mrr_reports_engine_flag() {
        let mut d = device();
        assert!(!d.issue_mrr(0)); // NoMitigation never pending
        assert_eq!(d.counters().mrr_commands, 1);
    }

    #[test]
    fn counters_sum_over_banks() {
        let mut d = device();
        d.issue_activate(0, 1, 0);
        let when = d.earliest_activate(1, 0);
        d.issue_activate(1, 2, when);
        assert_eq!(d.counters().acts, 2);
    }
}
