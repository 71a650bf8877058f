//! Streaming frequency-estimation algorithms used by Row Hammer trackers.
//!
//! Architectural Row Hammer mitigations estimate per-row activation counts
//! from the stream of `ACT` commands using *streaming algorithms*
//! (Mithril, HPCA 2022, Section II-C4 and III-C). This crate implements the
//! algorithm families that the paper builds on or compares against:
//!
//! * [`SpaceSaving`] — the *Counter-based Summary* (CbS) algorithm of
//!   Misra–Gries / Metwally et al., the building block of **Mithril** and
//!   **Graphene**. Provides both a lower bound and an upper bound on the true
//!   count (inequalities (1) and (2) in the paper).
//! * [`CountingBloomFilter`] — the one-sided, Count-Min-style
//!   over-approximation used by **BlockHammer**.
//! * [`CounterTree`] — the grouped-counter approach of **CBT**.
//!
//! **TWiCe**'s Lossy Counting table lives with its scheme in
//! `mithril-baselines`.
//!
//! All trackers observe a stream of `u64` items (row addresses) through
//! [`FrequencyTracker::record`] and answer point queries through
//! [`FrequencyTracker::estimate`].
//!
//! # Example
//!
//! ```
//! use mithril_trackers::{FrequencyTracker, SpaceSaving};
//!
//! let mut t = SpaceSaving::new(4);
//! for _ in 0..10 {
//!     t.record(0xA0);
//! }
//! t.record(0xB0);
//! // Estimates never under-count (inequality (1) of the paper):
//! assert!(t.estimate(0xA0) >= 10);
//! assert!(t.estimate(0xB0) >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bloom;
mod space_saving;
mod tree;

pub use bloom::CountingBloomFilter;
pub use space_saving::{NaiveSpaceSaving, RecordOutcome, SpaceSaving, TrackedEntry, INVALID_ITEM};
pub use tree::{CounterTree, TreeStats};

/// A streaming algorithm that estimates per-item occurrence counts.
///
/// Implementations observe every item of a stream via [`record`] and answer
/// point queries via [`estimate`]. All trackers in this crate guarantee the
/// *no-undercount* property required for deterministic Row Hammer protection
/// (paper inequality (1)): `estimate(x) >= actual(x)` for every item `x`,
/// where `actual` is the number of `record(x)` calls since the last
/// [`clear`].
///
/// [`record`]: FrequencyTracker::record
/// [`estimate`]: FrequencyTracker::estimate
/// [`clear`]: FrequencyTracker::clear
///
/// # Example
///
/// ```
/// use mithril_trackers::{FrequencyTracker, SpaceSaving};
///
/// fn hot_items<T: FrequencyTracker>(t: &mut T, stream: &[u64], thresh: u64) -> Vec<u64> {
///     for &x in stream {
///         t.record(x);
///     }
///     stream.iter().copied().filter(|&x| t.estimate(x) >= thresh).collect()
/// }
///
/// let mut ss = SpaceSaving::new(64);
/// let hot = hot_items(&mut ss, &[7, 7, 7, 9], 3);
/// assert!(hot.contains(&7));
/// ```
pub trait FrequencyTracker {
    /// Records one occurrence of `item`.
    fn record(&mut self, item: u64);

    /// Returns an estimate of how many times `item` was recorded.
    ///
    /// The estimate never under-counts: `estimate(x) >= actual(x)`.
    fn estimate(&self, item: u64) -> u64;

    /// Number of hardware counters this tracker uses (its area proxy).
    fn counter_slots(&self) -> usize;

    /// Forgets all recorded state.
    fn clear(&mut self);
}
