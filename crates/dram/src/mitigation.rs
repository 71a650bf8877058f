//! The interface between a DRAM bank and its in-DRAM mitigation engine.
//!
//! DRAM-side schemes (Mithril, PARFM, the RFM-Graphene strawman) live
//! *inside* the device: they observe every ACT to their bank and are handed
//! the tRFM time margin whenever the memory controller issues an RFM
//! command (paper Fig. 4, command flows ①–③). The trait below is that
//! observation surface.

use crate::types::RowId;

/// The result of handing one RFM time window to a mitigation engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RfmOutcome {
    /// Victim rows that received a preventive refresh during the window.
    /// Empty when the engine skipped the refresh (adaptive refresh).
    pub refreshed_victims: Vec<RowId>,
    /// The aggressor row the engine selected, if any (for reporting).
    pub selected_aggressor: Option<RowId>,
    /// True if the engine deliberately skipped this RFM (paper Section V-A).
    pub skipped: bool,
}

impl RfmOutcome {
    /// An outcome representing a deliberately skipped RFM window.
    pub fn skipped() -> Self {
        Self {
            refreshed_victims: Vec::new(),
            selected_aggressor: None,
            skipped: true,
        }
    }

    /// Resets this outcome to "skipped" **without freeing** the victim
    /// buffer, so engines filling it via [`DramMitigation::on_rfm_into`]
    /// reuse the allocation across RFM windows.
    pub fn reset_to_skipped(&mut self) {
        self.refreshed_victims.clear();
        self.selected_aggressor = None;
        self.skipped = true;
    }

    /// Marks this outcome as a refresh of `aggressor`'s victims and
    /// returns the (cleared) victim buffer for the engine to fill.
    pub fn begin_refresh(&mut self, aggressor: RowId) -> &mut Vec<RowId> {
        self.selected_aggressor = Some(aggressor);
        self.skipped = false;
        self.refreshed_victims.clear();
        &mut self.refreshed_victims
    }
}

/// Counters kept by a fault-injection adapter wrapped around an engine
/// (see `mithril_sim::FaultyEngine`). Defined here so any
/// [`DramMitigation`] can surface them through
/// [`DramMitigation::fault_stats`] without the base crate depending on
/// the injector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Counter bit-flips injected (transient single-event upsets).
    pub bit_flips: u64,
    /// Tracker entries invalidated (address-CAM upsets).
    pub invalidations: u64,
    /// Distinct stuck-at bit faults registered.
    pub stuck_bits: u64,
    /// Stuck-at re-assertions that actually changed a stored bit.
    pub stuck_assertions: u64,
    /// Scrub passes (self-check sweeps) run over the tracker state.
    pub scrubs: u64,
    /// Scrubs that detected a broken structural invariant.
    pub scrub_detections: u64,
    /// Structural repairs (rebuilds) performed.
    pub repairs: u64,
    /// Faults drawn by the plan that found no injectable state
    /// (engine exposes no fault surface, or its table is still empty).
    pub dropped: u64,
}

impl FaultStats {
    /// Accumulates `other` into `self` (per-bank → per-system roll-up).
    pub fn add(&mut self, other: &FaultStats) {
        self.bit_flips += other.bit_flips;
        self.invalidations += other.invalidations;
        self.stuck_bits += other.stuck_bits;
        self.stuck_assertions += other.stuck_assertions;
        self.scrubs += other.scrubs;
        self.scrub_detections += other.scrub_detections;
        self.repairs += other.repairs;
        self.dropped += other.dropped;
    }

    /// Total faults injected into tracker state.
    pub fn injected(&self) -> u64 {
        self.bit_flips + self.invalidations + self.stuck_bits
    }
}

/// The injectable state of a tracker: what a soft error can touch and
/// what an ECC-style scrub pass can detect and rebuild.
///
/// Engines whose protection state lives in SRAM/CAM counters (Mithril,
/// Space-Saving-based trackers) implement this; the fault injector in
/// `mithril_sim::FaultyEngine` drives it through
/// [`DramMitigation::fault_surface`]. Entry indices address hardware
/// slots (`0..fault_entries()`); slot indices are stable for the life of
/// the engine, so a stuck-at fault registered on a slot stays meaningful.
pub trait FaultSurface {
    /// Occupied counter slots a fault can land on (grows toward table
    /// capacity, never shrinks).
    fn fault_entries(&self) -> u64;

    /// Bits per stored counter.
    fn counter_bits(&self) -> u32;

    /// Flips one stored counter bit — a silent transient upset: the
    /// tracker's derived structures are *not* told. Returns `false` if
    /// `entry`/`bit` is out of range.
    fn flip_counter_bit(&mut self, entry: u64, bit: u32) -> bool;

    /// Forces one stored counter bit to `one` (stuck-at re-assertion).
    /// Returns `true` only if the stored bit actually changed.
    fn force_counter_bit(&mut self, entry: u64, bit: u32, one: bool) -> bool;

    /// Invalidates an entry's address tag (CAM upset): the slot stops
    /// tracking its row. Returns `false` if the entry was already
    /// invalid or out of range.
    fn invalidate_entry(&mut self, entry: u64) -> bool;

    /// Structural self-check (the read half of a scrub pass): verifies
    /// the tracker's derived ordering structures against its stored
    /// counters. `Err` describes the first broken invariant.
    fn check(&self) -> Result<(), String>;

    /// Rebuilds derived structures from the stored counters (the repair
    /// half of a scrub pass). Arrival-age information lost to the fault
    /// is canonicalized deterministically — see `ARCHITECTURE.md`.
    fn repair(&mut self);
}

/// An in-DRAM (per-bank) Row Hammer mitigation engine.
///
/// Implementations observe the command stream of a single bank.
///
/// # Example
///
/// ```
/// use mithril_dram::{DramMitigation, RfmOutcome, RowId};
///
/// /// A toy engine that always refreshes the neighbours of the last ACT.
/// struct LastRow(Option<RowId>);
///
/// impl DramMitigation for LastRow {
///     fn on_activate(&mut self, row: RowId) {
///         self.0 = Some(row);
///     }
///     fn on_rfm_into(&mut self, out: &mut RfmOutcome) {
///         match self.0 {
///             Some(r) => out.begin_refresh(r).extend([r.saturating_sub(1), r + 1]),
///             None => out.reset_to_skipped(),
///         }
///     }
///     fn name(&self) -> &'static str {
///         "last-row"
///     }
/// }
///
/// let mut e = LastRow(None);
/// e.on_activate(100);
/// assert_eq!(e.on_rfm().refreshed_victims, vec![99, 101]);
/// ```
pub trait DramMitigation {
    /// Called for every ACT command the bank receives.
    fn on_activate(&mut self, row: RowId);

    /// Called when the memory controller issues an RFM to this bank. The
    /// engine owns the tRFM window and decides which victim rows (if any)
    /// to preventively refresh, writing the outcome into a caller-owned
    /// buffer so its victim `Vec` is reused across windows.
    ///
    /// Implementations must fully overwrite `out` — start with
    /// [`RfmOutcome::reset_to_skipped`] or [`RfmOutcome::begin_refresh`].
    fn on_rfm_into(&mut self, out: &mut RfmOutcome);

    /// Allocating convenience wrapper around [`on_rfm_into`], for tests
    /// and one-shot callers.
    ///
    /// [`on_rfm_into`]: DramMitigation::on_rfm_into
    fn on_rfm(&mut self) -> RfmOutcome {
        let mut out = RfmOutcome::skipped();
        self.on_rfm_into(&mut out);
        out
    }

    /// Auto-refresh notification: rows `lo..hi` are being refreshed by a
    /// REF command. Engines may use this for housekeeping (e.g. TWiCe-style
    /// pruning); the default does nothing.
    fn on_auto_refresh(&mut self, lo: RowId, hi: RowId) {
        let _ = (lo, hi);
    }

    /// The Mithril+ mode-register flag (paper Section V-B): `true` when the
    /// engine would actually use an RFM window. The memory controller polls
    /// this via MRR and elides RFM commands when it is `false`. Engines
    /// without the optimization conservatively return `true`.
    fn refresh_pending(&self) -> bool {
        true
    }

    /// Scheme name for reporting.
    fn name(&self) -> &'static str;

    /// The engine's injectable tracker state, if it exposes one. Engines
    /// whose protection metadata can take soft errors override this;
    /// the default — no surface — means the fault injector counts its
    /// draws as dropped rather than silently succeeding.
    fn fault_surface(&mut self) -> Option<&mut dyn FaultSurface> {
        None
    }

    /// Fault-injection counters, for engines wrapped by an injector
    /// (`mithril_sim::FaultyEngine`). `None` everywhere else, so
    /// reporting can distinguish "no faults configured" from "zero faults
    /// landed".
    fn fault_stats(&self) -> Option<FaultStats> {
        None
    }

    /// O(1) snapshot of the engine's tracker structure, for the
    /// observability sampler (`mithril-obs`). Engines backed by a
    /// Stream-Summary table override this; the default — no tracker —
    /// means the sampler records an all-zero observation for the bank.
    fn observe_tracker(&self) -> Option<mithril_obs::TrackerObservation> {
        None
    }
}

/// The unit mitigation: tracks nothing, refreshes nothing.
///
/// Used as the unprotected baseline for normalized IPC/energy and as the
/// engine under pure RFM-cadence tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMitigation;

impl DramMitigation for NoMitigation {
    fn on_activate(&mut self, _row: RowId) {}

    fn on_rfm_into(&mut self, out: &mut RfmOutcome) {
        out.reset_to_skipped();
    }

    fn refresh_pending(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_mitigation_skips_everything() {
        let mut m = NoMitigation;
        m.on_activate(1);
        let out = m.on_rfm();
        assert!(out.skipped);
        assert!(out.refreshed_victims.is_empty());
        assert!(!m.refresh_pending());
        assert_eq!(m.name(), "none");
    }

    #[test]
    fn outcome_constructors() {
        let s = RfmOutcome::skipped();
        assert!(s.skipped && s.selected_aggressor.is_none());
        let mut r = RfmOutcome::skipped();
        r.begin_refresh(10).extend([9, 11]);
        assert!(!r.skipped);
        assert_eq!(r.selected_aggressor, Some(10));
        assert_eq!(r.refreshed_victims, vec![9, 11]);
        let buffer = r.refreshed_victims.as_ptr();
        // A second refresh starts from an empty list in the same buffer.
        r.begin_refresh(20).push(21);
        assert_eq!(r.selected_aggressor, Some(20));
        assert_eq!(r.refreshed_victims, vec![21]);
        assert_eq!(r.refreshed_victims.as_ptr(), buffer);
        // Resetting keeps the buffer too.
        r.reset_to_skipped();
        assert!(r.skipped && r.selected_aggressor.is_none());
        assert!(r.refreshed_victims.is_empty());
        assert_eq!(r.refreshed_victims.as_ptr(), buffer);
        assert!(r.refreshed_victims.capacity() >= 2);
    }

    #[test]
    fn default_auto_refresh_is_noop() {
        let mut m = NoMitigation;
        m.on_auto_refresh(0, 8); // must not panic
    }
}
