//! The Counter-based Summary (CbS) / Space-Saving algorithm.
//!
//! This is the tracking mechanism Mithril and Graphene are built on
//! (paper Section III-C, Fig. 3). A fixed table of `(address, counter)`
//! entries is maintained:
//!
//! * **on-table hit** — increment the entry's counter;
//! * **miss** — replace the entry holding the *minimum* counter value with
//!   the new address and increment that counter.
//!
//! The resulting estimates bracket the true count (paper inequalities (1)
//! and (2)):
//!
//! ```text
//! actual(x)  <=  estimate(x)  <=  actual(x) + min
//! ```
//!
//! where `min` is the minimum counter value in the table (`0` while the
//! table still has free entries) and `estimate(x)` is the written counter
//! for on-table addresses or `min` for off-table addresses.
//!
//! # Implementation: Stream-Summary buckets
//!
//! [`SpaceSaving`] uses the doubly-linked bucket layout of the original
//! Space-Saving paper (Metwally et al.): entries are grouped into buckets
//! by counter value, buckets form a list ordered by value, and an
//! increment moves an entry to the adjacent bucket — O(1) amortized per
//! `record`, O(1) min/max queries. Ties are broken by *age at the current
//! value*: the oldest entry at the minimum is evicted first and the first
//! entry to reach the maximum is selected first. [`NaiveSpaceSaving`]
//! retains the O(capacity) linear-scan implementation of the same policy
//! for differential testing (`tests/differential.rs`) and benchmarking.

use mithril_fasthash::RowIndex;
use mithril_streamsummary::BucketList;

use crate::FrequencyTracker;

/// The item sentinel of an invalidated tracker entry (tag CAM upset):
/// the slot keeps its counter but stops tracking its item, exactly as
/// `mithril::INVALID_ROW` does for the Mithril table.
pub const INVALID_ITEM: u64 = u64::MAX;

/// What [`SpaceSaving::record`] did with the item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordOutcome {
    /// The item was already tracked; its counter was incremented.
    Hit,
    /// The item took a free entry.
    Inserted,
    /// The item replaced the minimum entry, evicting the returned item.
    Evicted(u64),
}

/// A tracked `(item, count)` pair, as returned by [`SpaceSaving::iter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackedEntry {
    /// The tracked item (row address).
    pub item: u64,
    /// Its estimated occurrence count.
    pub count: u64,
}

/// Counter-based Summary (Space-Saving) frequency tracker.
///
/// # Example
///
/// ```
/// use mithril_trackers::{FrequencyTracker, SpaceSaving};
///
/// let mut t = SpaceSaving::new(2);
/// t.record(1);
/// t.record(1);
/// t.record(2);
/// t.record(3); // evicts the minimum entry (2) and inherits its count
/// assert_eq!(t.estimate(1), 2);
/// assert_eq!(t.estimate(3), 2); // 1 (own) + 1 (inherited from 2)
/// // Off-table items are estimated with the table minimum:
/// assert_eq!(t.estimate(2), t.min_count());
/// ```
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    items: Vec<u64>,
    counts: Vec<u64>,
    /// Valid item tag -> `slot + 1` (the index's value word is non-zero).
    index: RowIndex<u64>,
    /// The shared Stream-Summary bucket list over the slots.
    list: BucketList<u64>,
    capacity: usize,
    total_recorded: u64,
    /// Cumulative minimum-entry evictions (observability counter).
    evictions: u64,
}

impl SpaceSaving {
    /// Creates a tracker with `capacity` counter entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        Self {
            items: Vec::with_capacity(capacity),
            counts: Vec::with_capacity(capacity),
            index: RowIndex::new(),
            list: BucketList::with_capacity(capacity),
            capacity,
            total_recorded: 0,
            evictions: 0,
        }
    }

    /// The slot holding `item`, if it is tracked.
    #[inline]
    fn slot_of(&self, item: u64) -> Option<u32> {
        self.index.get(item).map(|v| v - 1)
    }

    /// Moves `slot` to the bucket for `count + 1`. O(1) via the shared
    /// [`BucketList`].
    fn increment(&mut self, slot: u32) {
        let v1 = self.counts[slot as usize] + 1;
        self.counts[slot as usize] = v1;
        self.list.advance(slot, v1);
    }

    // ------------------------------------------------------------- tracking

    /// Records `item` and reports what happened to the table.
    pub fn record_outcome(&mut self, item: u64) -> RecordOutcome {
        self.total_recorded += 1;
        if let Some(slot) = self.slot_of(item) {
            self.increment(slot);
            return RecordOutcome::Hit;
        }
        if self.items.len() < self.capacity {
            let slot = self.items.len() as u32;
            self.items.push(item);
            self.counts.push(1);
            self.index.insert(item, slot + 1);
            self.list.push_slot();
            self.list.place_fresh(slot, 0, 1);
            return RecordOutcome::Inserted;
        }
        // Replace the entry that has held the minimum longest.
        let victim = self
            .list
            .oldest_min_slot()
            .expect("full table is non-empty");
        let evicted = self.items[victim as usize];
        self.index.remove(evicted);
        self.items[victim as usize] = item;
        self.index.insert(item, victim + 1);
        self.evictions += 1;
        self.increment(victim);
        RecordOutcome::Evicted(evicted)
    }

    /// Cumulative minimum-entry evictions since construction (or the last
    /// [`FrequencyTracker::clear`]).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The minimum counter value in the table (0 while entries are free).
    ///
    /// This is the off-table estimate and the error bound of inequality (2).
    pub fn min_count(&self) -> u64 {
        if self.items.len() < self.capacity {
            0
        } else {
            self.list.min_value().expect("full table has a min bucket")
        }
    }

    /// The entry with the maximum counter value, if any. On ties, the entry
    /// that reached the maximum first.
    pub fn max_entry(&self) -> Option<TrackedEntry> {
        let slot = self.list.oldest_max_slot()?;
        Some(TrackedEntry {
            item: self.items[slot as usize],
            count: self.list.max_value().expect("non-empty"),
        })
    }

    /// `max - min` over the table counters — Mithril's adaptive-refresh
    /// attack-pattern proxy (paper Section V-A).
    pub fn spread(&self) -> u64 {
        match self.max_entry() {
            Some(max) => max.count - self.min_count(),
            None => 0,
        }
    }

    /// Resets the counter of a tracked `item` down to the table minimum.
    ///
    /// This is the decrement Mithril applies to the greedily selected row
    /// after its victims receive a preventive refresh. Returns `true` if the
    /// item was tracked. Safe because of the upper bound (inequality (2)):
    /// after a refresh the actual count is 0, and the entry may still "owe"
    /// up to `min` counts inherited from evictions.
    pub fn reset_to_min(&mut self, item: u64) -> bool {
        let Some(slot) = self.slot_of(item) else {
            return false;
        };
        let floor = self.min_count();
        if self.counts[slot as usize] == floor {
            // Already at the floor; nothing to do (and no reordering).
            return true;
        }
        self.counts[slot as usize] = floor;
        self.list.drop_to_floor(slot, floor);
        true
    }

    /// Greedily selects the maximum entry, resets its counter to the table
    /// minimum, and returns it. This is the per-RFM operation of Mithril.
    pub fn take_max_reset_to_min(&mut self) -> Option<TrackedEntry> {
        let max = self.max_entry()?;
        self.reset_to_min(max.item);
        Some(max)
    }

    /// Iterates over tracked `(item, count)` entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = TrackedEntry> + '_ {
        self.items
            .iter()
            .zip(self.counts.iter())
            .map(|(&item, &count)| TrackedEntry { item, count })
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if no entries are occupied.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total number of `record` calls since the last clear.
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// Returns the tracked count for `item`, or `None` if off-table.
    pub fn tracked_count(&self, item: u64) -> Option<u64> {
        self.slot_of(item).map(|slot| self.counts[slot as usize])
    }

    // ------------------------------------------------------ fault surface

    /// Flips one bit of slot `slot`'s counter — a silent upset: the
    /// bucket structure is not told. Returns `false` out of range.
    pub fn flip_counter_bit(&mut self, slot: usize, bit: u32) -> bool {
        if slot >= self.counts.len() || bit >= 64 {
            return false;
        }
        self.counts[slot] ^= 1u64 << bit;
        true
    }

    /// Forces one bit of slot `slot`'s counter to `one` (stuck-at).
    /// Returns `true` only if the stored bit changed.
    pub fn force_counter_bit(&mut self, slot: usize, bit: u32, one: bool) -> bool {
        if slot >= self.counts.len() || bit >= 64 {
            return false;
        }
        let mask = 1u64 << bit;
        let forced = if one {
            self.counts[slot] | mask
        } else {
            self.counts[slot] & !mask
        };
        let changed = forced != self.counts[slot];
        self.counts[slot] = forced;
        changed
    }

    /// Invalidates slot `slot`'s item tag ([`INVALID_ITEM`] sentinel).
    /// Returns `false` if out of range or already invalid.
    pub fn invalidate_entry(&mut self, slot: usize) -> bool {
        if slot >= self.items.len() || self.items[slot] == INVALID_ITEM {
            return false;
        }
        let item = self.items[slot];
        self.index.remove(item);
        self.items[slot] = INVALID_ITEM;
        true
    }

    /// Verifies the tracker's derived structures against its stored
    /// entries (index ↔ tags, bucket list invariants, bucket values ==
    /// stored counts — counts are unbounded here, so the chain must
    /// increase in absolute value). `Err` describes the first broken
    /// invariant. O(capacity).
    pub fn self_check(&self) -> Result<(), String> {
        let mut valid = 0usize;
        for (slot, &item) in self.items.iter().enumerate() {
            if item == INVALID_ITEM {
                continue;
            }
            valid += 1;
            match self.slot_of(item) {
                Some(s) if s as usize == slot => {}
                Some(s) => {
                    return Err(format!(
                        "item {item}: index points at slot {s}, stored in {slot}"
                    ))
                }
                None => return Err(format!("item {item} (slot {slot}): missing from index")),
            }
        }
        if self.index.len() != valid {
            return Err(format!(
                "index has {} items, table stores {valid} valid tags",
                self.index.len()
            ));
        }
        self.list.self_check(|s| self.counts[s as usize], |v| v)
    }

    /// Rebuilds index and bucket list from the stored entries (the
    /// repair half of a scrub pass); ages canonicalize to ascending slot
    /// index, and a duplicated tag invalidates the higher slot —
    /// mirrored by [`NaiveSpaceSaving::repair`]. O(capacity·log).
    pub fn repair(&mut self) {
        self.index.clear();
        for slot in 0..self.items.len() {
            let item = self.items[slot];
            if item == INVALID_ITEM {
                continue;
            }
            if self.index.contains(item) {
                self.items[slot] = INVALID_ITEM;
            } else {
                self.index.insert(item, slot as u32 + 1);
            }
        }
        let counts = &self.counts;
        self.list.rebuild(|s| counts[s as usize], |v| v);
    }
}

impl FrequencyTracker for SpaceSaving {
    fn record(&mut self, item: u64) {
        let _ = self.record_outcome(item);
    }

    fn estimate(&self, item: u64) -> u64 {
        match self.slot_of(item) {
            Some(slot) => self.counts[slot as usize],
            None => self.min_count(),
        }
    }

    fn counter_slots(&self) -> usize {
        self.capacity
    }

    fn clear(&mut self) {
        self.items.clear();
        self.counts.clear();
        self.index.clear();
        self.list.clear();
        self.total_recorded = 0;
        self.evictions = 0;
    }
}

impl mithril_obs::Observe for SpaceSaving {
    /// O(1) snapshot for the cycle-domain sampler. The `u64` counters are
    /// absolute, so min/max are the real bucket-list endpoints.
    fn observe(&self) -> mithril_obs::TrackerObservation {
        mithril_obs::TrackerObservation {
            len: self.len() as u64,
            capacity: self.capacity as u64,
            min: self.min_count(),
            max: self.max_entry().map(|e| e.count).unwrap_or(0),
            evictions: self.evictions,
            invalidations: (self.len() - self.index.len()) as u64,
        }
    }
}

/// The retained O(capacity) linear-scan Space-Saving reference.
///
/// Implements the same tie-breaking policy as [`SpaceSaving`] — oldest at
/// the minimum evicted first, first to reach the maximum selected first —
/// with explicit sequence numbers and full scans. Used by the differential
/// property tests and the `tracker_compare` benchmark.
#[derive(Debug, Clone)]
pub struct NaiveSpaceSaving {
    items: Vec<u64>,
    counts: Vec<u64>,
    /// Sequence number of the entry's last counter change.
    seqs: Vec<u64>,
    index: std::collections::HashMap<u64, usize>,
    next_seq: u64,
    capacity: usize,
    total_recorded: u64,
}

impl NaiveSpaceSaving {
    /// Creates a tracker with `capacity` counter entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        Self {
            items: Vec::with_capacity(capacity),
            counts: Vec::with_capacity(capacity),
            seqs: Vec::with_capacity(capacity),
            index: std::collections::HashMap::with_capacity(capacity),
            next_seq: 0,
            capacity,
            total_recorded: 0,
        }
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    fn min_slot(&self) -> usize {
        (0..self.counts.len())
            .min_by_key(|&i| (self.counts[i], self.seqs[i]))
            .expect("non-empty")
    }

    fn max_slot(&self) -> usize {
        (0..self.counts.len())
            .min_by_key(|&i| (std::cmp::Reverse(self.counts[i]), self.seqs[i]))
            .expect("non-empty")
    }

    /// Records `item` and reports what happened to the table.
    pub fn record_outcome(&mut self, item: u64) -> RecordOutcome {
        self.total_recorded += 1;
        if let Some(&slot) = self.index.get(&item) {
            self.counts[slot] += 1;
            self.seqs[slot] = self.bump_seq();
            return RecordOutcome::Hit;
        }
        if self.items.len() < self.capacity {
            self.items.push(item);
            self.counts.push(1);
            let seq = self.bump_seq();
            self.seqs.push(seq);
            self.index.insert(item, self.items.len() - 1);
            return RecordOutcome::Inserted;
        }
        let slot = self.min_slot();
        let evicted = self.items[slot];
        self.index.remove(&evicted);
        self.items[slot] = item;
        self.index.insert(item, slot);
        self.counts[slot] += 1;
        self.seqs[slot] = self.bump_seq();
        RecordOutcome::Evicted(evicted)
    }

    /// The minimum counter value (0 while entries are free).
    pub fn min_count(&self) -> u64 {
        if self.items.len() < self.capacity {
            0
        } else {
            self.counts.iter().copied().min().unwrap_or(0)
        }
    }

    /// The entry with the maximum counter value, if any.
    pub fn max_entry(&self) -> Option<TrackedEntry> {
        if self.items.is_empty() {
            return None;
        }
        let slot = self.max_slot();
        Some(TrackedEntry {
            item: self.items[slot],
            count: self.counts[slot],
        })
    }

    /// `max - min` over the table counters.
    pub fn spread(&self) -> u64 {
        match self.max_entry() {
            Some(max) => max.count - self.min_count(),
            None => 0,
        }
    }

    /// Resets the counter of a tracked `item` to the table minimum.
    pub fn reset_to_min(&mut self, item: u64) -> bool {
        let Some(&slot) = self.index.get(&item) else {
            return false;
        };
        let floor = self.min_count();
        if self.counts[slot] != floor {
            self.counts[slot] = floor;
            self.seqs[slot] = self.bump_seq();
        }
        true
    }

    /// Greedy select-max + reset-to-min.
    pub fn take_max_reset_to_min(&mut self) -> Option<TrackedEntry> {
        let max = self.max_entry()?;
        self.reset_to_min(max.item);
        Some(max)
    }

    /// Iterates over tracked `(item, count)` entries.
    pub fn iter(&self) -> impl Iterator<Item = TrackedEntry> + '_ {
        self.items
            .iter()
            .zip(self.counts.iter())
            .map(|(&item, &count)| TrackedEntry { item, count })
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if no entries are occupied.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total `record` calls since the last clear.
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// The tracked count for `item`, or `None` if off-table.
    pub fn tracked_count(&self, item: u64) -> Option<u64> {
        self.index.get(&item).map(|&slot| self.counts[slot])
    }

    // ------------------------------------------------------ fault surface

    /// Mirror of [`SpaceSaving::flip_counter_bit`].
    pub fn flip_counter_bit(&mut self, slot: usize, bit: u32) -> bool {
        if slot >= self.counts.len() || bit >= 64 {
            return false;
        }
        self.counts[slot] ^= 1u64 << bit;
        true
    }

    /// Mirror of [`SpaceSaving::force_counter_bit`].
    pub fn force_counter_bit(&mut self, slot: usize, bit: u32, one: bool) -> bool {
        if slot >= self.counts.len() || bit >= 64 {
            return false;
        }
        let mask = 1u64 << bit;
        let forced = if one {
            self.counts[slot] | mask
        } else {
            self.counts[slot] & !mask
        };
        let changed = forced != self.counts[slot];
        self.counts[slot] = forced;
        changed
    }

    /// Mirror of [`SpaceSaving::invalidate_entry`].
    pub fn invalidate_entry(&mut self, slot: usize) -> bool {
        if slot >= self.items.len() || self.items[slot] == INVALID_ITEM {
            return false;
        }
        let item = self.items[slot];
        self.index.remove(&item);
        self.items[slot] = INVALID_ITEM;
        true
    }

    /// Mirror of [`SpaceSaving::repair`]: rebuilds the index and
    /// canonicalizes the lost ages to ascending slot order so both
    /// implementations keep making identical decisions after a repair.
    pub fn repair(&mut self) {
        self.index.clear();
        for slot in 0..self.items.len() {
            let item = self.items[slot];
            if item == INVALID_ITEM {
                continue;
            }
            match self.index.entry(item) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(slot);
                }
                std::collections::hash_map::Entry::Occupied(_) => {
                    self.items[slot] = INVALID_ITEM;
                }
            }
        }
        for (slot, seq) in self.seqs.iter_mut().enumerate() {
            *seq = slot as u64;
        }
        self.next_seq = self.seqs.len() as u64;
    }
}

impl FrequencyTracker for NaiveSpaceSaving {
    fn record(&mut self, item: u64) {
        let _ = self.record_outcome(item);
    }

    fn estimate(&self, item: u64) -> u64 {
        match self.index.get(&item) {
            Some(&slot) => self.counts[slot],
            None => self.min_count(),
        }
    }

    fn counter_slots(&self) -> usize {
        self.capacity
    }

    fn clear(&mut self) {
        self.items.clear();
        self.counts.clear();
        self.seqs.clear();
        self.index.clear();
        self.next_seq = 0;
        self.total_recorded = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn exact_counts(stream: &[u64]) -> HashMap<u64, u64> {
        let mut m = HashMap::new();
        for &x in stream {
            *m.entry(x).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn paper_figure5_sequence() {
        // Reproduces the exact sequence of paper Fig. 5.
        let mut t = SpaceSaving::new(4);
        // Preload the table state: A0:9, B0:9, C0:3, D0:1.
        for _ in 0..9 {
            t.record(0xA0);
        }
        for _ in 0..9 {
            t.record(0xB0);
        }
        for _ in 0..3 {
            t.record(0xC0);
        }
        t.record(0xD0);
        // Step 1: ACT 0xA0 -> A0 becomes 10 and MaxPtr points at it.
        t.record(0xA0);
        assert_eq!(t.estimate(0xA0), 10);
        assert_eq!(t.max_entry().unwrap().item, 0xA0);
        // Step 2: ACT 0xE0 misses -> replaces D0 (min = 1) and becomes 2.
        assert_eq!(t.record_outcome(0xE0), RecordOutcome::Evicted(0xD0));
        assert_eq!(t.estimate(0xE0), 2);
        // Step 3: RFM -> greedy selection of A0, reset to min (= 2).
        let selected = t.take_max_reset_to_min().unwrap();
        assert_eq!(selected.item, 0xA0);
        assert_eq!(selected.count, 10);
        assert_eq!(t.estimate(0xA0), 2);
        assert_eq!(t.max_entry().unwrap().item, 0xB0);
    }

    #[test]
    fn lower_bound_holds_on_adversarial_round_robin() {
        let mut t = SpaceSaving::new(8);
        let stream: Vec<u64> = (0..1000).map(|i| i % 16).collect();
        for &x in &stream {
            t.record(x);
        }
        let exact = exact_counts(&stream);
        for (&x, &actual) in &exact {
            assert!(
                t.estimate(x) >= actual,
                "estimate({x}) = {} < actual {actual}",
                t.estimate(x)
            );
        }
    }

    #[test]
    fn upper_bound_holds() {
        let mut t = SpaceSaving::new(8);
        let stream: Vec<u64> = (0..1000).map(|i| (i * 7) % 23).collect();
        for &x in &stream {
            t.record(x);
        }
        let exact = exact_counts(&stream);
        for entry in t.iter() {
            let actual = exact.get(&entry.item).copied().unwrap_or(0);
            assert!(
                entry.count <= actual + t.min_count(),
                "estimate({}) = {} > actual {} + min {}",
                entry.item,
                entry.count,
                actual,
                t.min_count()
            );
        }
    }

    #[test]
    fn min_is_zero_while_not_full() {
        let mut t = SpaceSaving::new(4);
        t.record(1);
        t.record(1);
        assert_eq!(t.min_count(), 0);
        assert_eq!(t.estimate(42), 0);
    }

    #[test]
    fn eviction_inherits_min_count() {
        let mut t = SpaceSaving::new(2);
        for _ in 0..5 {
            t.record(1);
        }
        for _ in 0..3 {
            t.record(2);
        }
        assert_eq!(t.record_outcome(3), RecordOutcome::Evicted(2));
        assert_eq!(t.estimate(3), 4); // 3 (min) + 1
    }

    #[test]
    fn eviction_prefers_oldest_min_entry() {
        let mut t = SpaceSaving::new(3);
        t.record(1);
        t.record(2);
        t.record(3);
        // All at count 1; item 1 has held the minimum longest.
        assert_eq!(t.record_outcome(4), RecordOutcome::Evicted(1));
        // Now 2 is the oldest entry at the minimum.
        assert_eq!(t.record_outcome(5), RecordOutcome::Evicted(2));
    }

    #[test]
    fn spread_tracks_max_minus_min() {
        let mut t = SpaceSaving::new(2);
        assert_eq!(t.spread(), 0);
        for _ in 0..10 {
            t.record(1);
        }
        t.record(2);
        assert_eq!(t.spread(), 9);
        t.take_max_reset_to_min();
        assert_eq!(t.spread(), 0);
    }

    #[test]
    fn reset_to_min_untracked_is_false() {
        let mut t = SpaceSaving::new(2);
        t.record(1);
        assert!(!t.reset_to_min(99));
        assert!(t.reset_to_min(1));
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = SpaceSaving::new(3);
        for i in 0..10 {
            t.record(i);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.total_recorded(), 0);
        assert_eq!(t.min_count(), 0);
        assert_eq!(t.max_entry(), None);
        t.record(5);
        assert_eq!(t.estimate(5), 1);
    }

    #[test]
    fn max_entry_survives_interleaved_resets() {
        let mut t = SpaceSaving::new(4);
        for round in 0..50u64 {
            for item in 0..6u64 {
                for _ in 0..=(item % 3) {
                    t.record(item);
                }
            }
            if round % 5 == 0 {
                t.take_max_reset_to_min();
            }
            // max_entry must always report the true maximum.
            let true_max = t.iter().map(|e| e.count).max().unwrap();
            assert_eq!(t.max_entry().unwrap().count, true_max);
            let true_min = t.iter().map(|e| e.count).min().unwrap();
            if t.len() == t.counter_slots() {
                assert_eq!(t.min_count(), true_min);
            }
        }
    }

    #[test]
    fn naive_matches_bucket_on_smoke_stream() {
        let mut fast = SpaceSaving::new(6);
        let mut naive = NaiveSpaceSaving::new(6);
        let mut x = 7u64;
        for i in 0..30_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let item = (x >> 33) % 14;
            assert_eq!(
                fast.record_outcome(item),
                naive.record_outcome(item),
                "at {i}"
            );
            if i % 23 == 22 {
                assert_eq!(fast.take_max_reset_to_min(), naive.take_max_reset_to_min());
            }
            assert_eq!(fast.min_count(), naive.min_count());
            assert_eq!(fast.max_entry(), naive.max_entry());
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = SpaceSaving::new(0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn naive_zero_capacity_panics() {
        let _ = NaiveSpaceSaving::new(0);
    }
}
