//! Per-bank timing state machine.
//!
//! A bank enforces the row-cycle timings of Table III: ACT → (tRCD) → column
//! commands → (tRTP / tWR) → PRE → (tRP) → next ACT, with tRC as the minimum
//! ACT-to-ACT interval and tRAS as the minimum row-open time. REF and RFM
//! make the bank busy for tRFC / tRFM respectively.

use crate::timing::Ddr5Timing;
use crate::types::{RowId, TimePs};

/// The activation state of a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// All rows closed; the bank can accept an ACT.
    Precharged,
    /// A row is open in the row buffer.
    Active(RowId),
}

/// One DRAM bank: state machine + timing bookkeeping.
///
/// All `issue_*` methods assume their `can_*` counterpart returned `true`
/// (they panic otherwise) — the memory controller is responsible for
/// scheduling legality, exactly as in real DDR.
///
/// # Example
///
/// ```
/// use mithril_dram::{Bank, BankState, Ddr5Timing};
///
/// let t = Ddr5Timing::ddr5_4800();
/// let mut bank = Bank::new(t);
/// assert!(bank.can_activate(0));
/// bank.issue_activate(7, 0);
/// assert_eq!(bank.state(), BankState::Active(7));
/// // The next ACT to this bank must wait at least tRC:
/// assert_eq!(bank.earliest_activate(), t.trc);
/// ```
#[derive(Debug, Clone)]
pub struct Bank {
    timing: Ddr5Timing,
    state: BankState,
    /// Earliest time the next ACT may issue.
    next_act: TimePs,
    /// Earliest time a PRE may issue.
    next_pre: TimePs,
    /// Earliest time a column command may issue.
    next_col: TimePs,
    /// The bank is busy (REF/RFM) until this time.
    busy_until: TimePs,
}

impl Bank {
    /// Creates an idle, precharged bank.
    pub fn new(timing: Ddr5Timing) -> Self {
        Self {
            timing,
            state: BankState::Precharged,
            next_act: 0,
            next_pre: 0,
            next_col: 0,
            busy_until: 0,
        }
    }

    /// Current activation state.
    pub fn state(&self) -> BankState {
        self.state
    }

    /// The open row, if any.
    pub fn open_row(&self) -> Option<RowId> {
        match self.state {
            BankState::Active(r) => Some(r),
            BankState::Precharged => None,
        }
    }

    /// Earliest time an ACT may issue (also respects busy windows).
    pub fn earliest_activate(&self) -> TimePs {
        self.next_act.max(self.busy_until)
    }

    /// Earliest time a PRE may issue.
    pub fn earliest_precharge(&self) -> TimePs {
        self.next_pre.max(self.busy_until)
    }

    /// Earliest time a column (RD/WR) command may issue.
    pub fn earliest_column(&self) -> TimePs {
        self.next_col.max(self.busy_until)
    }

    /// True if an ACT may issue at `now`.
    pub fn can_activate(&self, now: TimePs) -> bool {
        self.state == BankState::Precharged && now >= self.earliest_activate()
    }

    /// True if a PRE may issue at `now`.
    pub(crate) fn can_precharge(&self, now: TimePs) -> bool {
        matches!(self.state, BankState::Active(_)) && now >= self.earliest_precharge()
    }

    /// True if a column command to `row` may issue at `now`.
    pub(crate) fn can_column(&self, row: RowId, now: TimePs) -> bool {
        self.state == BankState::Active(row) && now >= self.earliest_column()
    }

    /// True if the bank is precharged and idle so REF/RFM may start at `now`.
    pub(crate) fn can_refresh(&self, now: TimePs) -> bool {
        self.state == BankState::Precharged && now >= self.busy_until && now >= self.next_act
    }

    /// Opens `row` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if the ACT is not legal at `now`.
    pub fn issue_activate(&mut self, row: RowId, now: TimePs) {
        assert!(self.can_activate(now), "illegal ACT at {now}");
        self.state = BankState::Active(row);
        self.next_act = now + self.timing.trc;
        self.next_pre = now + self.timing.tras;
        self.next_col = now + self.timing.trcd;
    }

    /// Closes the open row at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if the PRE is not legal at `now`.
    pub fn issue_precharge(&mut self, now: TimePs) {
        assert!(self.can_precharge(now), "illegal PRE at {now}");
        self.state = BankState::Precharged;
        self.next_act = self.next_act.max(now + self.timing.trp);
    }

    /// Issues a read burst; returns the time the data burst completes.
    ///
    /// # Panics
    ///
    /// Panics if the column command is not legal at `now`.
    pub fn issue_read(&mut self, row: RowId, now: TimePs) -> TimePs {
        assert!(self.can_column(row, now), "illegal RD at {now}");
        // Consecutive bursts are spaced by tBL; PRE must wait tRTP.
        self.next_col = now + self.timing.tbl;
        self.next_pre = self.next_pre.max(now + self.timing.trtp);
        now + self.timing.tcl + self.timing.tbl
    }

    /// Issues a write burst; returns the time the write is fully committed.
    ///
    /// # Panics
    ///
    /// Panics if the column command is not legal at `now`.
    pub fn issue_write(&mut self, row: RowId, now: TimePs) -> TimePs {
        assert!(self.can_column(row, now), "illegal WR at {now}");
        self.next_col = now + self.timing.tbl;
        let done = now + self.timing.tcl + self.timing.tbl + self.timing.twr;
        self.next_pre = self.next_pre.max(done);
        done
    }

    /// Applies a REF to this bank (part of a rank-level REF); the bank is
    /// busy until `now + tRFC`. Returns the busy-until time.
    ///
    /// # Panics
    ///
    /// Panics if the bank is not precharged and idle.
    pub(crate) fn issue_refresh(&mut self, now: TimePs) -> TimePs {
        assert!(self.can_refresh(now), "illegal REF at {now}");
        self.busy_until = now + self.timing.trfc;
        self.busy_until
    }

    /// Starts an RFM window; the bank is busy until `now + tRFM`. Returns
    /// the busy-until time.
    ///
    /// # Panics
    ///
    /// Panics if the bank is not precharged and idle.
    pub fn issue_rfm(&mut self, now: TimePs) -> TimePs {
        assert!(self.can_refresh(now), "illegal RFM at {now}");
        self.busy_until = now + self.timing.trfm;
        self.busy_until
    }

    /// Executes an MC-directed adjacent-row-refresh (ARR): the bank is busy
    /// for one row cycle per victim row. Returns the busy-until time.
    ///
    /// # Panics
    ///
    /// Panics if the bank is not precharged and idle.
    pub fn issue_arr(&mut self, now: TimePs, victims: u64) -> TimePs {
        assert!(self.can_refresh(now), "illegal ARR at {now}");
        self.busy_until = now + self.timing.trc * victims.max(1);
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> (Bank, Ddr5Timing) {
        let t = Ddr5Timing::ddr5_4800();
        (Bank::new(t), t)
    }

    #[test]
    fn act_to_act_respects_trc() {
        let (mut b, t) = bank();
        b.issue_activate(1, 0);
        b.issue_precharge(t.tras); // earliest legal PRE
        assert!(!b.can_activate(t.trc - 1));
        assert!(b.can_activate(t.trc));
    }

    #[test]
    fn column_waits_for_trcd() {
        let (mut b, t) = bank();
        b.issue_activate(3, 0);
        assert!(!b.can_column(3, t.trcd - 1));
        assert!(b.can_column(3, t.trcd));
        // Wrong row is never legal.
        assert!(!b.can_column(4, t.trcd));
    }

    #[test]
    fn read_returns_data_after_tcl_plus_burst() {
        let (mut b, t) = bank();
        b.issue_activate(3, 0);
        let done = b.issue_read(3, t.trcd);
        assert_eq!(done, t.trcd + t.tcl + t.tbl);
    }

    #[test]
    fn write_pushes_precharge_out_by_twr() {
        let (mut b, t) = bank();
        b.issue_activate(3, 0);
        let done = b.issue_write(3, t.trcd);
        assert!(!b.can_precharge(done - 1));
        assert!(b.can_precharge(done));
    }

    #[test]
    fn precharge_then_act_waits_trp() {
        let (mut b, t) = bank();
        b.issue_activate(1, 0);
        b.issue_precharge(t.tras);
        // next_act = max(tRC, tRAS + tRP) = tRC here.
        assert_eq!(b.earliest_activate(), t.trc);
        b.issue_activate(2, t.trc);
        assert_eq!(b.open_row(), Some(2));
    }

    #[test]
    fn refresh_blocks_bank_for_trfc() {
        let (mut b, t) = bank();
        let busy = b.issue_refresh(0);
        assert_eq!(busy, t.trfc);
        assert!(!b.can_activate(t.trfc - 1));
        assert!(b.can_activate(t.trfc));
    }

    #[test]
    fn rfm_blocks_bank_for_trfm() {
        let (mut b, t) = bank();
        let busy = b.issue_rfm(0);
        assert_eq!(busy, t.trfm);
        assert!(!b.can_activate(t.trfm - 1));
        assert!(b.can_activate(t.trfm));
    }

    #[test]
    fn refresh_requires_precharged_bank() {
        let (mut b, _t) = bank();
        b.issue_activate(1, 0);
        assert!(!b.can_refresh(1_000_000));
    }

    #[test]
    fn arr_busy_scales_with_victims() {
        let (mut b, t) = bank();
        let busy = b.issue_arr(0, 2);
        assert_eq!(busy, 2 * t.trc);
        assert!(!b.can_activate(2 * t.trc - 1));
        assert!(b.can_activate(2 * t.trc));
    }

    #[test]
    #[should_panic(expected = "illegal ACT")]
    fn early_act_panics() {
        let (mut b, t) = bank();
        b.issue_activate(1, 0);
        b.issue_precharge(t.tras);
        b.issue_activate(2, t.trc - 1);
    }
}
