//! The open-addressed row index behind the per-ACT tables and the
//! disturbance oracle.
//!
//! [`RowIndex`] maps a row (or tracked item) key to a non-zero `u32`
//! value word: a table slot stored as `slot + 1`, or a disturbance count
//! that is at least 1 whenever the row is present. A zero value word marks
//! an empty slot, so no key is reserved — [`RowIndex::remove`] of any key,
//! `u64::MAX` included, is an ordinary lookup that answers "absent" when
//! the key was never inserted.
//!
//! Layout and probing:
//!
//! * one `Vec` of `(key, value)` slots, a power of two long, holding at
//!   most half as many entries as slots, grown by doubling on demand
//!   (`RowIndex::new` owns no allocation until its first insertion;
//!   `RowIndex::with_capacity` sizes the array for a known key count);
//! * the home slot is the top bits of `key · φ⁻¹·2⁶⁴` (Fibonacci hashing),
//!   which spreads the near-sequential row addresses DRAM traffic produces;
//! * collisions probe linearly, and removal shifts the rest of the probe
//!   run back (no tombstones), so every lookup ends at the first empty slot.

/// A key a [`RowIndex`] can hold: a row address or a tracked item.
pub trait IndexKey: Copy + Eq + Default {
    /// The key widened to the 64-bit word the home slot is hashed from.
    fn word(self) -> u64;
}

impl IndexKey for u32 {
    #[inline]
    fn word(self) -> u64 {
        self as u64
    }
}

impl IndexKey for u64 {
    #[inline]
    fn word(self) -> u64 {
        self
    }
}

/// One slot: a key and its value word (`0` = empty).
#[derive(Debug, Clone, Copy, Default)]
struct Slot<K> {
    key: K,
    value: u32,
}

/// `2⁶⁴ / φ`, the Fibonacci-hashing multiplier.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// The shortest slot array: what the first insertion into an
/// unallocated index allocates, and the floor of `with_capacity`.
const MIN_SLOTS: usize = 8;

/// An open-addressed map from `K` keys to non-zero `u32` value words.
///
/// # Example
///
/// ```
/// use mithril_fasthash::RowIndex;
///
/// let mut index: RowIndex<u64> = RowIndex::new();
/// assert_eq!(index.remove(u64::MAX), None); // no key is reserved
/// index.insert(7, 1);
/// index.insert(u64::MAX, 2);
/// assert_eq!(index.get(7), Some(1));
/// assert_eq!(index.increment(7), 2);
/// assert_eq!(index.remove(u64::MAX), Some(2));
/// assert_eq!(index.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RowIndex<K> {
    slots: Vec<Slot<K>>,
    len: usize,
    /// `64 − log2(slots.len())`: the home slot is the product's top bits.
    shift: u32,
}

impl<K: IndexKey> Default for RowIndex<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: IndexKey> RowIndex<K> {
    /// An empty index; it allocates on its first insertion.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            len: 0,
            shift: 64,
        }
    }

    /// An empty index that holds `keys` keys without growing: its slot
    /// array is allocated now, at the smallest power of two that keeps the
    /// load at or below one half.
    pub fn with_capacity(keys: usize) -> Self {
        let slots = (2 * keys).next_power_of_two().max(MIN_SLOTS);
        Self {
            slots: vec![Slot::default(); slots],
            len: 0,
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// Keys present.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no key is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn home(&self, key: K) -> usize {
        (key.word().wrapping_mul(FIBONACCI) >> self.shift) as usize
    }

    /// The slot holding `key` (`Ok`), or the empty slot that ends its
    /// probe run (`Err`). Needs an allocated slot array.
    #[inline]
    fn find(&self, key: K) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let slot = self.slots[i];
            if slot.value == 0 {
                return Err(i);
            }
            if slot.key == key {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The value word of `key`, if present.
    #[inline]
    pub fn get(&self, key: K) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        self.find(key).ok().map(|i| self.slots[i].value)
    }

    /// True if `key` is present.
    #[inline]
    pub fn contains(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// [`find`](Self::find) for a possibly unallocated index: `Err(None)`
    /// when there is no slot array yet.
    #[inline]
    fn locate(&self, key: K) -> Result<usize, Option<usize>> {
        if self.slots.is_empty() {
            return Err(None);
        }
        self.find(key).map_err(Some)
    }

    /// Stores `slot` in the empty slot `vacancy` found for its key, first
    /// growing the slot array (and re-finding the vacancy) if one more key
    /// would push the load above one half.
    #[inline]
    fn occupy(&mut self, vacancy: Option<usize>, slot: Slot<K>) {
        let i = match vacancy {
            Some(i) if 2 * (self.len + 1) <= self.slots.len() => i,
            _ => {
                self.grow();
                self.find(slot.key).expect_err("key is absent")
            }
        };
        self.slots[i] = slot;
        self.len += 1;
    }

    /// Maps `key` to `value`, returning the previous value word.
    ///
    /// # Panics
    ///
    /// Panics if `value` is zero (the empty marker).
    #[inline]
    pub fn insert(&mut self, key: K, value: u32) -> Option<u32> {
        assert!(value != 0, "a zero value word marks an empty slot");
        match self.locate(key) {
            Ok(i) => Some(std::mem::replace(&mut self.slots[i].value, value)),
            Err(vacancy) => {
                self.occupy(vacancy, Slot { key, value });
                None
            }
        }
    }

    /// Adds one to the value word of `key`, inserting it at 1 if absent,
    /// and returns the new value.
    ///
    /// # Panics
    ///
    /// Panics if the value word would overflow `u32`.
    #[inline]
    pub fn increment(&mut self, key: K) -> u32 {
        match self.locate(key) {
            Ok(i) => {
                let value = &mut self.slots[i].value;
                *value = value.checked_add(1).expect("value word overflows u32");
                *value
            }
            Err(vacancy) => {
                self.occupy(vacancy, Slot { key, value: 1 });
                1
            }
        }
    }

    /// Removes `key`, returning its value word if it was present.
    #[inline]
    pub fn remove(&mut self, key: K) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mut hole = self.find(key).ok()?;
        let value = self.slots[hole].value;
        // Backward-shift deletion: walk the rest of the probe run and move
        // back every entry whose home slot does not lie cyclically in
        // `(hole, j]`, so no lookup ever stops early at the new hole.
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let slot = self.slots[j];
            if slot.value == 0 {
                break;
            }
            let displacement = j.wrapping_sub(self.home(slot.key)) & mask;
            if displacement >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = slot;
                hole = j;
            }
        }
        self.slots[hole] = Slot::default();
        self.len -= 1;
        Some(value)
    }

    /// Removes every key; the slot array is kept.
    pub fn clear(&mut self) {
        self.slots.fill(Slot::default());
        self.len = 0;
    }

    /// The `(key, value)` pairs present, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (K, u32)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.value != 0)
            .map(|s| (s.key, s.value))
    }

    /// Doubles the slot array (or allocates the first one) and re-seats
    /// every entry.
    #[cold]
    fn grow(&mut self) {
        let bigger = Self::with_capacity(self.slots.len().max(MIN_SLOTS / 2));
        let old = std::mem::replace(self, bigger);
        for slot in old.slots.into_iter().filter(|s| s.value != 0) {
            let i = self.find(slot.key).expect_err("keys are unique");
            self.slots[i] = slot;
        }
        self.len = old.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_index_owns_no_allocation() {
        let index: RowIndex<u64> = RowIndex::new();
        assert_eq!(index.slots.capacity(), 0);
        assert_eq!(index.get(0), None);
    }

    #[test]
    fn load_stays_at_or_below_one_half() {
        let mut index: RowIndex<u32> = RowIndex::new();
        for key in 0..1000u32 {
            index.insert(key, key + 1);
            assert!(2 * index.len() <= index.slots.len());
        }
        assert_eq!(index.slots.len(), 2048);
    }

    #[test]
    fn probe_runs_wrap_past_the_last_slot_and_shift_back() {
        let mut index: RowIndex<u64> = RowIndex::new();
        index.grow();
        assert_eq!(index.slots.len(), MIN_SLOTS);
        let last = MIN_SLOTS - 1;
        let keys: Vec<u64> = (0u64..)
            .filter(|&k| index.home(k) == last)
            .take(3)
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            index.insert(k, i as u32 + 1);
        }
        assert_eq!(
            index.slots.len(),
            MIN_SLOTS,
            "three keys fit without growing"
        );
        let seated: Vec<u64> = [last, 0, 1].iter().map(|&i| index.slots[i].key).collect();
        assert_eq!(seated, keys);
        // Removing the run's head shifts both wrapped entries back by one.
        assert_eq!(index.remove(keys[0]), Some(1));
        assert_eq!(index.slots[last].key, keys[1]);
        assert_eq!(index.slots[0].key, keys[2]);
        assert_eq!(index.slots[1].value, 0);
        assert_eq!((index.get(keys[1]), index.get(keys[2])), (Some(2), Some(3)));
    }

    #[test]
    fn with_capacity_holds_its_keys_without_growing() {
        let mut index: RowIndex<u64> = RowIndex::with_capacity(225);
        assert_eq!(index.slots.len(), 512);
        for key in 0..256 {
            index.insert(key, 1);
        }
        assert_eq!(
            index.slots.len(),
            512,
            "256 keys fill 512 slots to one half"
        );
        index.insert(256, 1);
        assert_eq!(index.slots.len(), 1024);
    }

    #[test]
    fn insert_replaces_an_existing_value() {
        let mut index: RowIndex<u64> = RowIndex::new();
        assert_eq!(index.insert(3, 1), None);
        assert_eq!(index.insert(3, 9), Some(1));
        assert_eq!(index.get(3), Some(9));
        assert_eq!(index.len(), 1);
    }

    #[test]
    #[should_panic(expected = "zero value word")]
    fn zero_value_panics() {
        RowIndex::<u64>::new().insert(1, 0);
    }

    #[test]
    fn clear_keeps_the_slot_array() {
        let mut index: RowIndex<u64> = RowIndex::new();
        for key in 0..20 {
            index.increment(key);
        }
        let slots = index.slots.len();
        index.clear();
        assert!(index.is_empty());
        assert_eq!(index.iter().count(), 0);
        assert_eq!(index.slots.len(), slots);
        assert_eq!(index.get(5), None);
    }
}
