//! The row side of one bank (paper Fig. 4: the mitigation module fitted
//! to every bank, beside its disturbance oracle). [`BankRows`] is the one
//! place where an ACT, a REF group, an RFM, an MRR or an ARR reaches the
//! engine, the oracle and the energy counters.
//! [`DramDevice`](crate::DramDevice) keeps one per bank,
//! [`AttackHarness`](crate::AttackHarness) keeps one, and timing stays
//! with each of them.

use std::ops::Range;

use crate::energy::EnergyCounters;
use crate::mitigation::{DramMitigation, RfmOutcome};
use crate::oracle::RowHammerOracle;
use crate::timing::Ddr5Timing;
use crate::types::RowId;

/// One bank's engine, oracle and auto-refresh pointer. Every event method
/// books its work in the caller's [`EnergyCounters`], so a device keeps
/// one ledger across its banks.
pub(crate) struct BankRows {
    engine: Box<dyn DramMitigation>,
    oracle: RowHammerOracle,
    /// First row of the next auto-refresh group.
    ref_ptr: RowId,
    rows_per_ref: u64,
    /// Reusable outcome for [`DramMitigation::on_rfm_into`], so the
    /// per-RFM victim list never reallocates once it has grown.
    outcome: RfmOutcome,
}

impl BankRows {
    /// The row side of a bank of `oracle.rows()` rows; one REF refreshes
    /// `timing.rows_per_ref` of them.
    pub(crate) fn new(
        engine: Box<dyn DramMitigation>,
        oracle: RowHammerOracle,
        timing: &Ddr5Timing,
    ) -> Self {
        Self {
            rows_per_ref: timing.rows_per_ref(oracle.rows()),
            engine,
            oracle,
            ref_ptr: 0,
            outcome: RfmOutcome::default(),
        }
    }

    /// The mitigation engine.
    pub(crate) fn engine(&self) -> &dyn DramMitigation {
        self.engine.as_ref()
    }

    /// The disturbance oracle.
    pub(crate) fn oracle(&self) -> &RowHammerOracle {
        &self.oracle
    }

    /// An ACT of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is past the bank.
    #[inline]
    pub(crate) fn activate(&mut self, row: RowId, counters: &mut EnergyCounters) {
        self.oracle.on_activate(row);
        self.engine.on_activate(row);
        counters.acts += 1;
    }

    /// A REF: refreshes the next row group and advances the pointer,
    /// wrapping to row 0 after the group that reaches the last row.
    /// Returns the group `lo..hi`.
    pub(crate) fn refresh_group(&mut self, counters: &mut EnergyCounters) -> Range<RowId> {
        let rows = self.oracle.rows();
        let lo = self.ref_ptr;
        let hi = (lo + self.rows_per_ref).min(rows);
        self.oracle.on_rows_refreshed(lo, hi);
        self.engine.on_auto_refresh(lo, hi);
        counters.auto_refresh_rows += hi - lo;
        self.ref_ptr = if hi >= rows { 0 } else { hi };
        lo..hi
    }

    /// An RFM: hands the tRFM window to the engine and refreshes the
    /// victims it names. The outcome is valid until the next `rfm`.
    pub(crate) fn rfm(&mut self, counters: &mut EnergyCounters) -> &RfmOutcome {
        self.engine.on_rfm_into(&mut self.outcome);
        counters.rfm_commands += 1;
        refresh_victims(&mut self.oracle, &self.outcome.refreshed_victims, counters);
        &self.outcome
    }

    /// An MRR: reads the engine's Mithril+ refresh-pending flag.
    pub(crate) fn mrr(&self, counters: &mut EnergyCounters) -> bool {
        counters.mrr_commands += 1;
        self.engine.refresh_pending()
    }

    /// An ARR: preventively refreshes `victims`.
    pub(crate) fn refresh(&mut self, victims: &[RowId], counters: &mut EnergyCounters) {
        refresh_victims(&mut self.oracle, victims, counters);
    }
}

/// A preventive refresh of `victims`, whether an engine named them in an
/// RFM window or the controller did in an ARR.
fn refresh_victims(oracle: &mut RowHammerOracle, victims: &[RowId], counters: &mut EnergyCounters) {
    for &v in victims {
        oracle.on_row_refreshed(v);
    }
    counters.preventive_rows += victims.len() as u64;
}
