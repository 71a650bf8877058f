//! The Mithril table: address CAM + count CAM with `MaxPtr`/`MinPtr`.
//!
//! Hardware-faithful model of the per-bank structure of paper Fig. 4. The
//! counter CAM uses **wrapping counters** (Section IV-E): Mithril never
//! needs absolute counts, only the *relative difference* to the minimum
//! entry, and the greedy decrement-to-min policy keeps that difference
//! bounded by `M`. Provisioning `⌈log2(max diff)⌉` bits therefore suffices —
//! no periodic table reset (Graphene) or duplicated table (BlockHammer) is
//! needed, which is where Mithril's two-fold area advantage comes from.
//!
//! # Software model: the Stream-Summary bucket structure
//!
//! Hardware resolves `MaxPtr`/`MinPtr` with parallel comparators in the
//! count CAM; a software model has no such luxury, and per-ACT linear
//! rescans made the table update O(Nentry) — the hot loop of the entire
//! simulator. [`MithrilTable`] therefore keeps its entries in the classic
//! *Stream-Summary* layout (Metwally et al., "Efficient computation of
//! frequent and top-k elements in data streams"): a doubly-linked list of
//! **buckets**, one per distinct counter value, each holding the
//! doubly-linked list of entries at that value. Increments move an entry to
//! the neighbouring bucket in O(1); `MinPtr` is the first entry of the head
//! bucket and `MaxPtr` the first entry of the tail bucket, both O(1) reads.
//! Buckets are ordered by *difference from the table minimum*, not by
//! absolute counter value — the order is maintained purely structurally
//! (entries only ever move by +1 or drop to the minimum), so it stays
//! correct across `u16` wrap-arounds as long as the spread fits the counter
//! range, exactly the invariant Theorem 1 guarantees. See
//! `ARCHITECTURE.md` for the amortized-cost argument.
//!
//! [`NaiveTable`] retains the obvious O(Nentry) linear-scan implementation
//! (with unbounded `u64` counters) as the differential-testing reference:
//! `tests/differential.rs` proves both make identical decisions on random
//! and adversarial streams.
//!
//! The table is generic over the [`Counter`] width so the wrapping `u16`
//! hardware table can be checked against an unbounded `u64` reference: for
//! any stream whose spread stays under the counter range, the two behave
//! *identically* (see the property tests in `tests/wrapping.rs`).

use crate::streamsummary::BucketList;
use mithril_dram::RowId;
use mithril_fasthash::{FlatIndex, RowIndex};

/// A fixed-width, wrapping hardware counter.
///
/// Ordering between counters is defined *relative to the table minimum*
/// via [`Counter::diff`], which is exact as long as the true difference
/// fits in the counter range — the invariant Theorem 1 guarantees.
pub trait Counter: Copy + Eq + std::fmt::Debug {
    /// Counter width in bits.
    const BITS: u32;

    /// The zero counter.
    fn zero() -> Self;

    /// Wrapping increment by one.
    fn incremented(self) -> Self;

    /// `self − other` modulo the counter range.
    fn diff(self, other: Self) -> u64;

    /// The stored bits, widened to `u64`.
    fn raw(self) -> u64;

    /// A counter from raw bits (truncated to [`Counter::BITS`]).
    fn from_raw(raw: u64) -> Self;

    /// The counter with bit `bit` flipped (fault injection).
    fn flip_bit(self, bit: u32) -> Self {
        debug_assert!(bit < Self::BITS);
        Self::from_raw(self.raw() ^ (1u64 << bit))
    }

    /// The counter with bit `bit` forced to `one` (stuck-at fault).
    fn with_bit(self, bit: u32, one: bool) -> Self {
        debug_assert!(bit < Self::BITS);
        let mask = 1u64 << bit;
        Self::from_raw(if one {
            self.raw() | mask
        } else {
            self.raw() & !mask
        })
    }

    /// Recovers the table minimum from a bag of possibly-corrupted
    /// counters (fault repair). Wrapping counters carry no absolute
    /// order, so the minimum is taken as the value just past the largest
    /// gap on the `2^BITS` circle — the basis that minimizes the spread
    /// the rebuilt order has to explain. Ties break toward the first gap
    /// in ascending raw order (deterministic). Unbounded reference
    /// counters override this with the plain minimum.
    fn recover_floor(values: &[Self]) -> Self {
        let mut raws: Vec<u64> = values.iter().map(|v| v.raw()).collect();
        raws.sort_unstable();
        raws.dedup();
        match raws.len() {
            0 => Self::zero(),
            1 => Self::from_raw(raws[0]),
            n => {
                let mut best_gap = 0u64;
                let mut floor = raws[0];
                for i in 0..n {
                    let cur = raws[i];
                    let next = raws[(i + 1) % n];
                    let gap = Self::from_raw(next).diff(Self::from_raw(cur));
                    if gap > best_gap {
                        best_gap = gap;
                        floor = next;
                    }
                }
                Self::from_raw(floor)
            }
        }
    }
}

impl Counter for u16 {
    const BITS: u32 = 16;

    fn zero() -> Self {
        0
    }

    fn incremented(self) -> Self {
        self.wrapping_add(1)
    }

    fn diff(self, other: Self) -> u64 {
        self.wrapping_sub(other) as u64
    }

    fn raw(self) -> u64 {
        self as u64
    }

    fn from_raw(raw: u64) -> Self {
        raw as u16
    }
}

impl Counter for u64 {
    const BITS: u32 = 64;

    fn zero() -> Self {
        0
    }

    fn incremented(self) -> Self {
        self.wrapping_add(1)
    }

    fn diff(self, other: Self) -> u64 {
        self.wrapping_sub(other)
    }

    fn raw(self) -> u64 {
        self
    }

    fn from_raw(raw: u64) -> Self {
        raw
    }

    /// The unbounded reference counter never wraps, so the recovered
    /// floor is the plain minimum — this keeps post-repair decisions
    /// identical to [`NaiveTable`]'s absolute-order scans.
    fn recover_floor(values: &[Self]) -> Self {
        values.iter().copied().min().unwrap_or(0)
    }
}

/// The address-tag sentinel of an invalidated table entry: a CAM upset
/// leaves the slot's counter behind but its tag no longer matches any
/// real row. Schemes treat a selection of this row as a burned RFM
/// window (no victims can be derived from a garbage tag).
pub const INVALID_ROW: RowId = RowId::MAX;

/// The row selected by a greedy RFM step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// The selected (hottest) aggressor row.
    pub row: RowId,
    /// Its estimated count above the table minimum at selection time.
    pub count_above_min: u64,
}

/// The per-bank Mithril table (paper Fig. 4/5), Stream-Summary backed.
///
/// `C` is the hardware counter type; the deployed configuration is `u16`
/// (the default). With `C = u64` the table is an unbounded Counter-based
/// Summary (Space-Saving) table: the wrapping model's reference, and the
/// tracker Graphene, RFM-Graphene and `trace stat` run on (read through
/// [`MithrilTable::estimate`]).
///
/// Tie-breaking is *age at the current counter value*: the entry that has
/// held the minimum longest is evicted first, and the entry that reached
/// the maximum first is selected first. [`NaiveTable`] implements the same
/// policy with linear scans.
///
/// The row index over the valid tags is a [`RowIndex`] sized for
/// `Nentry`, or, after [`use_flat_index`](MithrilTable::use_flat_index),
/// a [`FlatIndex`] of one word per bank row. Both stores make the same
/// decisions (`tests/table_stores.rs`).
///
/// # Example
///
/// ```
/// use mithril::MithrilTable;
///
/// let mut t: MithrilTable = MithrilTable::new(4);
/// for _ in 0..9 {
///     t.on_activate(0xA0);
/// }
/// t.on_activate(0xB0);
/// // Greedy selection returns the hottest row and resets it to min.
/// let sel = t.on_rfm().unwrap();
/// assert_eq!(sel.row, 0xA0);
/// assert_eq!(t.spread(), 1); // 0xB0 is now the max, one above min
/// ```
#[derive(Debug, Clone)]
pub struct MithrilTable<C: Counter = u16> {
    entries: Entries<C>,
    /// Valid row tag -> `slot + 1` (the index's value word is non-zero).
    index: Index,
}

/// The table's entries: address tags, their counters and the
/// Stream-Summary order over them.
#[derive(Debug, Clone)]
struct Entries<C: Counter> {
    addrs: Vec<RowId>,
    counts: Vec<C>,
    /// The shared Stream-Summary bucket list over the slots.
    list: BucketList<C>,
    capacity: usize,
    /// Cumulative minimum-entry evictions (observability counter).
    evictions: u64,
}

/// Where a table keeps its row index.
#[derive(Debug, Clone)]
enum Index {
    /// Open-addressed, sized for `capacity` rows at construction: every
    /// run that touches more distinct rows than the table has entries
    /// fills it.
    Sparse(RowIndex<RowId>),
    /// One word per bank row, allocated on the first insertion.
    Flat(FlatIndex),
}

/// Runs `$body` with `$i` bound to the table's index store: one match
/// per table call, and the body compiled once per store.
macro_rules! with_index {
    ($index:expr, $i:ident => $body:expr) => {
        match $index {
            Index::Sparse($i) => $body,
            Index::Flat($i) => $body,
        }
    };
}

/// The row -> `slot + 1` operations the table's multi-step calls make,
/// so those calls can be generic over the store.
trait SlotIndex {
    fn get(&self, row: RowId) -> Option<u32>;
    fn insert(&mut self, row: RowId, slot_plus_one: u32);
    fn remove(&mut self, row: RowId);
    fn len(&self) -> usize;
    fn clear(&mut self);
}

/// Both stores spell the operations alike.
macro_rules! slot_index {
    ($($store:ty),*) => {$(
        impl SlotIndex for $store {
            #[inline]
            fn get(&self, row: RowId) -> Option<u32> {
                <$store>::get(self, row)
            }

            #[inline]
            fn insert(&mut self, row: RowId, slot_plus_one: u32) {
                <$store>::insert(self, row, slot_plus_one);
            }

            #[inline]
            fn remove(&mut self, row: RowId) {
                <$store>::remove(self, row);
            }

            fn len(&self) -> usize {
                <$store>::len(self)
            }

            fn clear(&mut self) {
                <$store>::clear(self)
            }
        }
    )*};
}

slot_index!(RowIndex<RowId>, FlatIndex);

impl<C: Counter> Entries<C> {
    /// Occupied entries.
    #[inline]
    fn len(&self) -> usize {
        self.addrs.len()
    }

    /// The minimum the table currently measures against: the head bucket's
    /// value when full, the implicit zero of the free entries otherwise.
    #[inline]
    fn min_value(&self) -> C {
        if self.len() == self.capacity {
            self.list.min_value().expect("full table has a min bucket")
        } else {
            C::zero()
        }
    }

    /// Moves `slot` to the bucket for `value + 1`. O(1) via the shared
    /// [`BucketList`].
    fn increment(&mut self, slot: u32) {
        let v1 = self.counts[slot as usize].incremented();
        self.counts[slot as usize] = v1;
        self.list.advance(slot, v1);
    }

    /// Paper Fig. 5 steps ① and ②: count a hit, fill a free entry, or
    /// replace the entry that has held the minimum longest.
    #[inline]
    fn activate<I: SlotIndex>(&mut self, index: &mut I, row: RowId) {
        if let Some(slot1) = index.get(row) {
            self.increment(slot1 - 1);
            return;
        }
        if self.len() < self.capacity {
            let slot = self.len() as u32;
            self.addrs.push(row);
            self.counts.push(C::zero().incremented());
            index.insert(row, slot + 1);
            self.list.push_slot();
            self.list
                .place_fresh(slot, C::zero(), C::zero().incremented());
            return;
        }
        // Miss on a full table: replace the entry that has held the
        // minimum longest (the MinPtr entry, Fig. 3) and increment it.
        let victim = self
            .list
            .oldest_min_slot()
            .expect("full table is non-empty");
        index.remove(self.addrs[victim as usize]);
        self.addrs[victim as usize] = row;
        index.insert(row, victim + 1);
        self.evictions += 1;
        self.increment(victim);
    }

    /// Drops `slot` to the table minimum (the implicit zero while entries
    /// are free) and returns how far above it the slot was. A slot already
    /// at the minimum keeps its age there.
    fn reset_slot(&mut self, slot: u32) -> u64 {
        let floor = self.min_value();
        let above = self.counts[slot as usize].diff(floor);
        if above > 0 {
            self.counts[slot as usize] = floor;
            self.list.drop_to_floor(slot, floor);
        }
        above
    }

    /// [`MithrilTable::self_check`] against `index`.
    fn check<I: SlotIndex>(&self, index: &I) -> Result<(), String> {
        let mut valid = 0usize;
        for (slot, &row) in self.addrs.iter().enumerate() {
            if row == INVALID_ROW {
                continue;
            }
            valid += 1;
            match index.get(row).map(|v| v - 1) {
                Some(s) if s as usize == slot => {}
                Some(s) => {
                    return Err(format!(
                        "row {row}: index points at slot {s}, stored in {slot}"
                    ))
                }
                None => return Err(format!("row {row} (slot {slot}): missing from index")),
            }
        }
        if index.len() != valid {
            return Err(format!(
                "index has {} rows, table stores {valid} valid tags",
                index.len()
            ));
        }
        let basis = self.list.min_value().unwrap_or_else(C::zero);
        self.list
            .self_check(|s| self.counts[s as usize], |v| v.diff(basis))
    }

    /// [`MithrilTable::repair`], rebuilding `index`.
    fn repair<I: SlotIndex>(&mut self, index: &mut I) {
        index.clear();
        for slot in 0..self.addrs.len() {
            let row = self.addrs[slot];
            if row == INVALID_ROW {
                continue;
            }
            if index.get(row).is_some() {
                self.addrs[slot] = INVALID_ROW;
            } else {
                index.insert(row, slot as u32 + 1);
            }
        }
        let floor = if self.len() == self.capacity {
            C::recover_floor(&self.counts)
        } else {
            C::zero()
        };
        let counts = &self.counts;
        self.list.rebuild(|s| counts[s as usize], |v| v.diff(floor));
    }
}

impl<C: Counter> MithrilTable<C> {
    /// Creates an empty table with `capacity` entries (`Nentry`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        Self {
            entries: Entries {
                addrs: Vec::with_capacity(capacity),
                counts: Vec::with_capacity(capacity),
                list: BucketList::with_capacity(capacity),
                capacity,
                evictions: 0,
            },
            index: Index::Sparse(RowIndex::with_capacity(capacity)),
        }
    }

    /// Moves the row index of an empty table to a [`FlatIndex`] of one
    /// `u32` word per row of a bank of `rows` rows: 4 B × `rows`,
    /// allocated zeroed on the first ACT, not here. A hit then costs one
    /// indexed load instead of a hash probe, and a miss on a full table
    /// three of them, which suits a single bank driven ACT after ACT.
    /// Decisions are unchanged. A table that holds entries keeps its
    /// index.
    ///
    /// After the move, an ACT of a row at or past `rows` panics; queries
    /// of such rows, [`INVALID_ROW`] included, read as off-table.
    pub fn use_flat_index(&mut self, rows: u64) {
        if self.is_empty() {
            self.index = Index::Flat(FlatIndex::new(rows));
        }
    }

    /// `Nentry`, the number of table entries.
    pub fn capacity(&self) -> usize {
        self.entries.capacity
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are occupied.
    pub fn is_empty(&self) -> bool {
        self.entries.addrs.is_empty()
    }

    /// The count difference between `MaxPtr` and `MinPtr` — the adaptive
    /// refresh proxy (paper Section V-A).
    pub fn spread(&self) -> u64 {
        if self.is_empty() {
            return 0;
        }
        self.entries
            .list
            .max_value()
            .expect("non-empty")
            .diff(self.entries.min_value())
    }

    /// The slot holding `row`, if it occupies a table entry.
    #[inline]
    fn slot_of(&self, row: RowId) -> Option<u32> {
        with_index!(&self.index, index => index.get(row)).map(|v| v - 1)
    }

    /// Estimated count of `row` above the table minimum (`0` for off-table
    /// rows: their estimate *is* the minimum).
    pub fn estimate_above_min(&self, row: RowId) -> u64 {
        match self.slot_of(row) {
            Some(slot) => self.entries.counts[slot as usize].diff(self.entries.min_value()),
            None => 0,
        }
    }

    /// True if `row` currently occupies a table entry.
    pub fn contains(&self, row: RowId) -> bool {
        with_index!(&self.index, index => index.contains(row))
    }

    /// Processes one ACT command (paper Fig. 5 steps ① and ②).
    ///
    /// # Panics
    ///
    /// After [`use_flat_index`](Self::use_flat_index), panics if `row` is
    /// past the bank.
    pub fn on_activate(&mut self, row: RowId) {
        with_index!(&mut self.index, index => self.entries.activate(index, row))
    }

    /// Cumulative minimum-entry evictions since construction (or the last
    /// [`clear`]) — the Space-Saving replacement pressure the
    /// observability layer tracks.
    ///
    /// [`clear`]: MithrilTable::clear
    pub fn evictions(&self) -> u64 {
        self.entries.evictions
    }

    /// Processes one RFM command: greedy selection of the `MaxPtr` entry and
    /// decrement of its counter to the table minimum (Fig. 5 step ③).
    /// Returns `None` only if the table is empty.
    pub fn on_rfm(&mut self) -> Option<Selection> {
        let slot = self.entries.list.oldest_max_slot()?;
        Some(Selection {
            row: self.entries.addrs[slot as usize],
            count_above_min: self.entries.reset_slot(slot),
        })
    }

    /// Drops an on-table `row`'s counter to the table minimum — the reset
    /// a scheme applies after refreshing the row's victims outside the
    /// greedy selection (RFM-Graphene's queue). Safe by inequality (2):
    /// the refreshed row's true count is zero, and the entry may still owe
    /// up to the minimum from evictions. Returns `false` (and changes
    /// nothing) if `row` is off the table.
    pub fn reset_row(&mut self, row: RowId) -> bool {
        match self.slot_of(row) {
            Some(slot) => {
                self.entries.reset_slot(slot);
                true
            }
            None => false,
        }
    }

    /// Empties the table (Graphene's per-reset-window clear). Allocations
    /// are kept; the eviction counter restarts at zero.
    pub fn clear(&mut self) {
        let e = &mut self.entries;
        e.addrs.clear();
        e.counts.clear();
        e.list.clear();
        e.evictions = 0;
        with_index!(&mut self.index, index => index.clear());
    }

    /// Iterates over `(row, count_above_min)` pairs.
    pub fn iter_relative(&self) -> impl Iterator<Item = (RowId, u64)> + '_ {
        let min = if self.is_empty() {
            C::zero()
        } else {
            self.entries.min_value()
        };
        self.entries
            .addrs
            .iter()
            .zip(self.entries.counts.iter())
            .map(move |(&a, &c)| (a, c.diff(min)))
    }

    // ------------------------------------------------------ fault surface

    /// Flips one bit of slot `slot`'s stored counter — a *silent*
    /// transient upset: the Stream-Summary structure is not told, so the
    /// table's order is now wrong until a scrub ([`self_check`] +
    /// [`repair`]) notices. Returns `false` if `slot`/`bit` is out of
    /// range.
    ///
    /// [`self_check`]: MithrilTable::self_check
    /// [`repair`]: MithrilTable::repair
    pub fn flip_counter_bit(&mut self, slot: usize, bit: u32) -> bool {
        let counts = &mut self.entries.counts;
        if slot >= counts.len() || bit >= C::BITS {
            return false;
        }
        counts[slot] = counts[slot].flip_bit(bit);
        true
    }

    /// Forces one bit of slot `slot`'s stored counter to `one` (stuck-at
    /// re-assertion), as silently as [`flip_counter_bit`]. Returns `true`
    /// only if the stored bit changed.
    ///
    /// [`flip_counter_bit`]: MithrilTable::flip_counter_bit
    pub fn force_counter_bit(&mut self, slot: usize, bit: u32, one: bool) -> bool {
        let counts = &mut self.entries.counts;
        if slot >= counts.len() || bit >= C::BITS {
            return false;
        }
        let forced = counts[slot].with_bit(bit, one);
        let changed = forced != counts[slot];
        counts[slot] = forced;
        changed
    }

    /// Invalidates slot `slot`'s address tag (CAM upset): the entry keeps
    /// its counter and its place in the order, but stops tracking its row
    /// ([`INVALID_ROW`] sentinel). The slot is reclaimed normally when it
    /// becomes the oldest minimum entry. Returns `false` if the slot is
    /// out of range or already invalid.
    pub fn invalidate_entry(&mut self, slot: usize) -> bool {
        let row = match self.entries.addrs.get(slot) {
            Some(&row) if row != INVALID_ROW => row,
            _ => return false,
        };
        with_index!(&mut self.index, index => index.remove(row));
        self.entries.addrs[slot] = INVALID_ROW;
        true
    }

    /// Slot `slot`'s stored counter bits (scrub diagnostics), or `None`
    /// if the slot is unoccupied.
    pub fn raw_counter(&self, slot: usize) -> Option<u64> {
        self.entries.counts.get(slot).map(|c| c.raw())
    }

    /// Verifies the table's derived structures against its stored
    /// entries: the row index maps exactly the valid tags, and the
    /// Stream-Summary list satisfies every structural invariant with
    /// bucket values matching the stored counters (see
    /// `BucketList::self_check`). `Err` describes the first broken
    /// invariant. O(capacity).
    pub fn self_check(&self) -> Result<(), String> {
        with_index!(&self.index, index => self.entries.check(index))
    }

    /// Rebuilds the derived structures from the stored entries — the
    /// repair half of a scrub pass. The row index is rebuilt from the
    /// valid tags (a duplicated tag invalidates the higher slot), the
    /// minimum is re-recovered from the raw counters
    /// ([`Counter::recover_floor`]), and the Stream-Summary list is
    /// rebuilt in ascending `(diff-from-minimum, slot)` order. Arrival
    /// ages are unrecoverable after corruption, so ties canonicalize to
    /// ascending slot index. O(capacity·log), plus O(rows) to clear a
    /// flat index.
    pub fn repair(&mut self) {
        with_index!(&mut self.index, index => self.entries.repair(index))
    }
}

impl MithrilTable<u64> {
    /// The Counter-based Summary estimate of `row`'s count: its counter
    /// when on the table, the table minimum (the off-table bound of
    /// inequality (2)) otherwise. Only the unbounded counter has absolute
    /// values; wrapping tables answer [`estimate_above_min`].
    ///
    /// [`estimate_above_min`]: MithrilTable::estimate_above_min
    ///
    /// # Example
    ///
    /// ```
    /// use mithril::MithrilTable;
    ///
    /// let mut t: MithrilTable<u64> = MithrilTable::new(2);
    /// t.on_activate(1);
    /// t.on_activate(1);
    /// t.on_activate(2);
    /// t.on_activate(3); // evicts 2, the minimum entry, and inherits its count
    /// assert_eq!(t.estimate(1), 2);
    /// assert_eq!(t.estimate(3), 2); // 1 (own) + 1 (inherited from 2)
    /// assert_eq!(t.estimate(2), 2); // off-table rows read the minimum
    /// ```
    pub fn estimate(&self, row: RowId) -> u64 {
        match self.slot_of(row) {
            Some(slot) => self.entries.counts[slot as usize],
            None => self.entries.min_value(),
        }
    }
}

impl<C: Counter> MithrilTable<C> {
    /// O(1), side-effect-free snapshot for the cycle-domain sampler. The
    /// wrapping hardware counters have no absolute value, so min/max are
    /// reported *relative to the table floor*: `min` is always `0` and
    /// `max` is the spread — exactly the quantity the adaptive-refresh
    /// decision reads.
    pub fn observe(&self) -> mithril_obs::TrackerObservation {
        let indexed = with_index!(&self.index, index => index.len());
        mithril_obs::TrackerObservation {
            len: self.len() as u64,
            capacity: self.capacity() as u64,
            min: 0,
            max: self.spread(),
            evictions: self.entries.evictions,
            invalidations: (self.len() - indexed) as u64,
        }
    }
}

/// The retained linear-scan reference implementation of the Mithril table.
///
/// Uses unbounded `u64` counters and O(capacity) scans per decision. Ties
/// are broken by *age at the current counter value* (tracked with an
/// explicit sequence number), the same policy [`MithrilTable`]'s bucket
/// lists realize structurally — so the two make identical decisions on any
/// stream whose spread fits the wrapping counter's range. Kept as the
/// oracle of the differential property tests (`tests/differential.rs`,
/// `tests/fault_props.rs`).
#[derive(Debug, Clone)]
pub struct NaiveTable {
    addrs: Vec<RowId>,
    counts: Vec<u64>,
    /// Global sequence number of the entry's last counter change; within a
    /// set of equal counters, smaller = held the value longer.
    seqs: Vec<u64>,
    index: std::collections::HashMap<RowId, usize>,
    next_seq: u64,
    capacity: usize,
}

impl NaiveTable {
    /// Creates an empty table with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        Self {
            addrs: Vec::with_capacity(capacity),
            counts: Vec::with_capacity(capacity),
            seqs: Vec::with_capacity(capacity),
            index: std::collections::HashMap::with_capacity(capacity),
            next_seq: 0,
            capacity,
        }
    }

    /// `Nentry`, the number of table entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True if no entries are occupied.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    fn min_value(&self) -> u64 {
        if self.len() == self.capacity {
            self.counts.iter().copied().min().expect("non-empty")
        } else {
            0
        }
    }

    /// Slot holding the minimum count the longest (the eviction target).
    fn min_slot(&self) -> usize {
        (0..self.counts.len())
            .min_by_key(|&i| (self.counts[i], self.seqs[i]))
            .expect("non-empty")
    }

    /// Slot holding the maximum count the longest (the RFM selection).
    fn max_slot(&self) -> usize {
        (0..self.counts.len())
            .min_by_key(|&i| (std::cmp::Reverse(self.counts[i]), self.seqs[i]))
            .expect("non-empty")
    }

    /// `MaxPtr − MinPtr` spread.
    pub fn spread(&self) -> u64 {
        if self.addrs.is_empty() {
            return 0;
        }
        self.counts[self.max_slot()] - self.min_value()
    }

    /// Estimated count of `row` above the table minimum.
    pub fn estimate_above_min(&self, row: RowId) -> u64 {
        match self.index.get(&row) {
            Some(&slot) => self.counts[slot] - self.min_value(),
            None => 0,
        }
    }

    /// True if `row` currently occupies a table entry.
    pub fn contains(&self, row: RowId) -> bool {
        self.index.contains_key(&row)
    }

    /// Processes one ACT command.
    pub fn on_activate(&mut self, row: RowId) {
        if let Some(&slot) = self.index.get(&row) {
            self.counts[slot] += 1;
            self.seqs[slot] = self.bump_seq();
            return;
        }
        if self.addrs.len() < self.capacity {
            self.addrs.push(row);
            self.counts.push(1);
            let seq = self.bump_seq();
            self.seqs.push(seq);
            self.index.insert(row, self.addrs.len() - 1);
            return;
        }
        let slot = self.min_slot();
        let old = self.addrs[slot];
        self.index.remove(&old);
        self.addrs[slot] = row;
        self.index.insert(row, slot);
        self.counts[slot] += 1;
        self.seqs[slot] = self.bump_seq();
    }

    /// Greedy RFM selection + decrement-to-min.
    pub fn on_rfm(&mut self) -> Option<Selection> {
        if self.addrs.is_empty() {
            return None;
        }
        let slot = self.max_slot();
        Some(Selection {
            row: self.addrs[slot],
            count_above_min: self.reset_slot(slot),
        })
    }

    /// Mirror of [`MithrilTable::reset_row`].
    pub fn reset_row(&mut self, row: RowId) -> bool {
        match self.index.get(&row) {
            Some(&slot) => {
                self.reset_slot(slot);
                true
            }
            None => false,
        }
    }

    /// Drops `slot` to the scanned minimum; returns how far above it was.
    fn reset_slot(&mut self, slot: usize) -> u64 {
        let min = self.min_value();
        let above = self.counts[slot] - min;
        if above > 0 {
            self.counts[slot] = min;
            self.seqs[slot] = self.bump_seq();
        }
        above
    }

    /// Mirror of [`MithrilTable::clear`].
    pub fn clear(&mut self) {
        self.addrs.clear();
        self.counts.clear();
        self.seqs.clear();
        self.index.clear();
        self.next_seq = 0;
    }

    /// Mirror of [`MithrilTable::estimate`]: the row's counter, or the
    /// scanned minimum for an off-table row.
    pub fn estimate(&self, row: RowId) -> u64 {
        match self.index.get(&row) {
            Some(&slot) => self.counts[slot],
            None => self.min_value(),
        }
    }

    /// Iterates over `(row, count_above_min)` pairs.
    pub fn iter_relative(&self) -> impl Iterator<Item = (RowId, u64)> + '_ {
        let min = if self.addrs.is_empty() {
            0
        } else {
            self.min_value()
        };
        self.addrs
            .iter()
            .zip(self.counts.iter())
            .map(move |(&a, &c)| (a, c - min))
    }

    // ------------------------------------------------------ fault surface

    /// Mirror of [`MithrilTable::flip_counter_bit`] on the reference
    /// table's unbounded counters.
    pub fn flip_counter_bit(&mut self, slot: usize, bit: u32) -> bool {
        if slot >= self.counts.len() || bit >= 64 {
            return false;
        }
        self.counts[slot] ^= 1u64 << bit;
        true
    }

    /// Mirror of [`MithrilTable::force_counter_bit`].
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

    /// Mirror of [`MithrilTable::invalidate_entry`].
    pub fn invalidate_entry(&mut self, slot: usize) -> bool {
        if slot >= self.addrs.len() || self.addrs[slot] == INVALID_ROW {
            return false;
        }
        let row = self.addrs[slot];
        self.index.remove(&row);
        self.addrs[slot] = INVALID_ROW;
        true
    }

    /// Mirror of [`MithrilTable::raw_counter`].
    pub fn raw_counter(&self, slot: usize) -> Option<u64> {
        self.counts.get(slot).copied()
    }

    /// Mirror of [`MithrilTable::repair`]: the scan-based table has no
    /// order structure to rebuild, but its tie-breaking ages are as lost
    /// as the bucket list's, so they canonicalize the same way —
    /// ascending slot index — keeping the two implementations'
    /// post-repair decisions identical. A duplicated tag invalidates the
    /// higher slot, as in the bucket table.
    pub fn repair(&mut self) {
        self.index.clear();
        for slot in 0..self.addrs.len() {
            let row = self.addrs[slot];
            if row == INVALID_ROW {
                continue;
            }
            match self.index.entry(row) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(slot);
                }
                std::collections::hash_map::Entry::Occupied(_) => {
                    self.addrs[slot] = INVALID_ROW;
                }
            }
        }
        for (slot, seq) in self.seqs.iter_mut().enumerate() {
            *seq = slot as u64;
        }
        self.next_seq = self.seqs.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure5_with_wrapping_counters() {
        let mut t: MithrilTable<u16> = MithrilTable::new(4);
        for _ in 0..9 {
            t.on_activate(0xA0);
        }
        for _ in 0..9 {
            t.on_activate(0xB0);
        }
        for _ in 0..3 {
            t.on_activate(0xC0);
        }
        t.on_activate(0xD0);
        // ① ACT 0xA0 → 10.
        t.on_activate(0xA0);
        assert_eq!(t.estimate_above_min(0xA0), 9); // 10 above min 1
                                                   // ② ACT 0xE0 → replaces 0xD0 (min 1) and becomes 2.
        t.on_activate(0xE0);
        assert!(!t.contains(0xD0));
        assert!(t.contains(0xE0));
        // ③ RFM → greedy selection of 0xA0; reset to min (2).
        let sel = t.on_rfm().unwrap();
        assert_eq!(sel.row, 0xA0);
        assert_eq!(sel.count_above_min, 8); // 10 − min 2
        assert_eq!(t.estimate_above_min(0xA0), 0);
        // New max is 0xB0 at 9 (7 above min).
        assert_eq!(t.on_rfm().unwrap().row, 0xB0);
    }

    #[test]
    fn wrapping_survives_counter_overflow() {
        // Tiny 2-entry table hammered way past the u16 range: relative
        // behaviour must stay exact because spread stays small.
        let mut t: MithrilTable<u16> = MithrilTable::new(2);
        for i in 0..200_000u64 {
            t.on_activate(i % 2);
            if i % 64 == 63 {
                t.on_rfm();
            }
            assert!(t.spread() <= 64 + 2, "spread exploded at {i}");
        }
    }

    #[test]
    fn spread_zero_on_empty_and_balanced() {
        let mut t: MithrilTable<u16> = MithrilTable::new(2);
        assert_eq!(t.spread(), 0);
        t.on_activate(1);
        t.on_activate(2);
        // Both at count 1 → table full, min = 1, max = 1 → spread 0.
        assert_eq!(t.spread(), 0);
    }

    #[test]
    fn rfm_on_empty_table_is_none() {
        let mut t: MithrilTable<u16> = MithrilTable::new(2);
        assert_eq!(t.on_rfm(), None);
    }

    #[test]
    fn rfm_selects_first_max_on_ties() {
        let mut t: MithrilTable<u16> = MithrilTable::new(4);
        t.on_activate(10);
        t.on_activate(20);
        t.on_activate(10);
        t.on_activate(20);
        // Both at 2; 10 reached 2 first and is selected.
        assert_eq!(t.on_rfm().unwrap().row, 10);
    }

    #[test]
    fn eviction_targets_oldest_min_entry() {
        let mut t: MithrilTable<u16> = MithrilTable::new(3);
        t.on_activate(1);
        t.on_activate(1);
        t.on_activate(2);
        t.on_activate(3);
        // 2 and 3 both at min = 1; 2 has held it longer and is replaced.
        t.on_activate(4);
        assert!(!t.contains(2));
        assert!(t.contains(3));
        assert!(t.contains(4));
    }

    #[test]
    fn estimates_relative_to_min_are_consistent() {
        let mut t: MithrilTable<u64> = MithrilTable::new(8);
        for i in 0..1000u64 {
            t.on_activate(i % 12);
        }
        let spread = t.spread();
        for (_, above) in t.iter_relative() {
            assert!(above <= spread);
        }
    }

    #[test]
    fn bucket_count_never_exceeds_entries() {
        let mut t: MithrilTable<u16> = MithrilTable::new(16);
        for i in 0..10_000u64 {
            t.on_activate((i * 7) % 40);
            if i % 24 == 23 {
                t.on_rfm();
            }
            assert!(
                t.entries.list.bucket_count() <= t.len().max(1),
                "arena leaked buckets"
            );
        }
    }

    #[test]
    fn not_full_rfm_resets_to_zero_and_rejoins_order() {
        let mut t: MithrilTable<u16> = MithrilTable::new(8);
        for _ in 0..5 {
            t.on_activate(1);
        }
        t.on_activate(2);
        // RFM drops row 1 from 5 to 0 (table not full → implicit zero min).
        let sel = t.on_rfm().unwrap();
        assert_eq!(sel.row, 1);
        assert_eq!(sel.count_above_min, 5);
        assert_eq!(t.estimate_above_min(1), 0);
        assert_eq!(t.estimate_above_min(2), 1);
        // Next RFM now selects row 2.
        assert_eq!(t.on_rfm().unwrap().row, 2);
    }

    #[test]
    fn reset_row_drops_to_min_and_ignores_off_table_rows() {
        let mut t: MithrilTable<u64> = MithrilTable::new(2);
        t.on_activate(1);
        t.on_activate(1);
        assert!(!t.reset_row(99));
        assert_eq!(t.estimate(1), 2);
        assert!(t.reset_row(1));
        // Not full: the minimum is the implicit zero of the free entry.
        assert_eq!(t.estimate(1), 0);
        assert_eq!(t.estimate(99), 0);
    }

    #[test]
    fn clear_empties_the_table() {
        let mut t: MithrilTable<u64> = MithrilTable::new(3);
        for i in 0..10 {
            t.on_activate(i);
        }
        assert_eq!(t.evictions(), 7);
        t.clear();
        assert!(t.is_empty());
        assert_eq!((t.spread(), t.evictions(), t.on_rfm()), (0, 0, None));
        t.on_activate(5);
        assert_eq!(t.estimate(5), 1);
    }

    #[test]
    fn naive_matches_bucket_on_smoke_stream() {
        let mut fast: MithrilTable<u64> = MithrilTable::new(4);
        let mut naive = NaiveTable::new(4);
        let mut x = 99u64;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let row = (x >> 33) % 10;
            fast.on_activate(row);
            naive.on_activate(row);
            if i % 17 == 16 {
                assert_eq!(fast.on_rfm(), naive.on_rfm(), "diverged at {i}");
            }
            assert_eq!(fast.spread(), naive.spread(), "spread diverged at {i}");
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _: MithrilTable<u16> = MithrilTable::new(0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn naive_zero_capacity_panics() {
        let _ = NaiveTable::new(0);
    }
}
