//! The controller-side mitigation interface.
//!
//! MC-side schemes (PARA, Graphene, TWiCe, CBT, BlockHammer — Table I of
//! the paper) observe activations from the controller's vantage point and
//! react with one of two remedies:
//!
//! * **ARR** — an adjacent-row-refresh command naming victim rows (the
//!   remedy deprecated in DDR5 but used by prior work);
//! * **throttling** — holding a row's or thread's activations until an
//!   absolute release time (BlockHammer).

use mithril_dram::{BankId, RowId, TimePs};

/// What the mitigation wants the controller to do after an ACT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McAction {
    /// Nothing to do.
    None,
    /// Issue an ARR refreshing `victims` on `bank` as soon as possible.
    Arr {
        /// Target bank.
        bank: BankId,
        /// Victim rows to refresh.
        victims: Vec<RowId>,
    },
}

/// A controller-side Row Hammer mitigation.
///
/// # Example
///
/// ```
/// use mithril_dram::{BankId, RowId, TimePs};
/// use mithril_memctrl::{McAction, McMitigation};
///
/// /// Refresh neighbours of every 1000th activation (a toy PARA).
/// struct Every1000(u64);
///
/// impl McMitigation for Every1000 {
///     fn on_activate(
///         &mut self,
///         bank: BankId,
///         row: RowId,
///         _thread: usize,
///         _now: TimePs,
///     ) -> McAction {
///         self.0 += 1;
///         if self.0 % 1000 == 0 {
///             McAction::Arr { bank, victims: vec![row.saturating_sub(1), row + 1] }
///         } else {
///             McAction::None
///         }
///     }
///     fn name(&self) -> &'static str {
///         "every-1000"
///     }
/// }
/// ```
pub trait McMitigation {
    /// Observes an ACT of `row` on `bank` issued on behalf of `thread`.
    fn on_activate(&mut self, bank: BankId, row: RowId, thread: usize, now: TimePs) -> McAction;

    /// Absolute earliest time the controller may activate `row` on `bank`
    /// for `thread` — the throttling hook; `0` (the default) means no
    /// restriction. The event core caches releases per bank, so one may
    /// change only inside [`on_activate`] for the same bank, or together
    /// with a move of [`release_generation`].
    ///
    /// [`on_activate`]: McMitigation::on_activate
    /// [`release_generation`]: McMitigation::release_generation
    fn activate_allowed_at(&self, bank: BankId, row: RowId, thread: usize) -> TimePs {
        let _ = (bank, row, thread);
        0
    }

    /// A value that moves whenever a release changes beyond the activating
    /// bank (BlockHammer: its next CBF swap time). Checked after every
    /// `on_activate`; a move recomputes every bank's cached activation
    /// candidate.
    fn release_generation(&self) -> u64 {
        0
    }

    /// Auto-refresh notification for `bank` rows `lo..hi` (TWiCe-style
    /// housekeeping). Default: ignored. Must not change any release.
    fn on_auto_refresh(&mut self, bank: BankId, lo: RowId, hi: RowId) {
        let _ = (bank, lo, hi);
    }

    /// Scheme name for reporting.
    fn name(&self) -> &'static str;
}

/// The unit MC-side mitigation: observes and does nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMcMitigation;

impl McMitigation for NoMcMitigation {
    fn on_activate(
        &mut self,
        _bank: BankId,
        _row: RowId,
        _thread: usize,
        _now: TimePs,
    ) -> McAction {
        McAction::None
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_mitigation_never_acts() {
        let mut m = NoMcMitigation;
        assert_eq!(m.on_activate(0, 0, 0, 0), McAction::None);
        assert_eq!(m.activate_allowed_at(0, 0, 0), 0);
        assert_eq!(m.release_generation(), 0);
        assert_eq!(m.name(), "none");
    }
}
