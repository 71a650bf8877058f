//! The flat row index: one value word per key of a fixed range.
//!
//! [`FlatIndex`] keeps [`RowIndex`](crate::RowIndex)'s value-word
//! contract (non-zero words, `0` = absent) but stores one word per key of
//! `0..keys`, so a lookup is one indexed load instead of a hash probe. It
//! suits a single bank driven ACT after ACT, where 4 B per row is cheap;
//! a device of many banks keeps the sparse `RowIndex`.

/// A map from keys in `0..keys` to non-zero `u32` value words, one word
/// per key.
///
/// The words are allocated zeroed on the first insertion or increment,
/// not at construction, so an index that is built and never written
/// costs no per-key storage. Keys at or past the range, `u64::MAX`
/// included, read as absent; inserting one panics.
///
/// # Example
///
/// ```
/// use mithril_fasthash::FlatIndex;
///
/// let mut index = FlatIndex::new(8);
/// assert_eq!(index.remove(u64::MAX), None); // past the range: absent
/// index.insert(7, 1);
/// assert_eq!(index.increment(7), 2);
/// assert_eq!(index.increment(3), 1);
/// index.remove_range(0, 5);
/// assert_eq!((index.get(3), index.get(7), index.len()), (None, Some(2), 1));
/// ```
#[derive(Debug, Clone)]
pub struct FlatIndex {
    /// The value word of each key: empty until the first write, then
    /// `keys` long.
    words: Vec<u32>,
    keys: usize,
    /// Non-zero words.
    len: usize,
}

impl FlatIndex {
    /// An empty index over the keys `0..keys`; it allocates on its first
    /// write.
    ///
    /// # Panics
    ///
    /// Panics if `keys` does not fit in `usize`.
    pub fn new(keys: u64) -> Self {
        Self {
            words: Vec::new(),
            keys: usize::try_from(keys).expect("key range fits in usize"),
            len: 0,
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

    /// The value word of `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        let word = *self.words.get(usize::try_from(key).ok()?)?;
        (word != 0).then_some(word)
    }

    /// True if `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// The word of `key`, allocating the words on the first write.
    ///
    /// # Panics
    ///
    /// Panics if `key` is past the range.
    #[inline]
    fn word_mut(&mut self, key: u64) -> &mut u32 {
        if self.words.is_empty() {
            self.allocate();
        }
        let keys = self.keys;
        usize::try_from(key)
            .ok()
            .and_then(|k| self.words.get_mut(k))
            .unwrap_or_else(|| panic!("key {key} is past the index's {keys} keys"))
    }

    #[cold]
    fn allocate(&mut self) {
        self.words = vec![0; self.keys];
    }

    /// Maps `key` to `value`, returning the previous value word.
    ///
    /// # Panics
    ///
    /// Panics if `value` is zero (the empty marker) or `key` is past the
    /// range.
    #[inline]
    pub fn insert(&mut self, key: u64, value: u32) -> Option<u32> {
        assert!(value != 0, "a zero value word marks an empty slot");
        let old = std::mem::replace(self.word_mut(key), value);
        self.len += usize::from(old == 0);
        (old != 0).then_some(old)
    }

    /// Adds one to the value word of `key`, inserting it at 1 if absent,
    /// and returns the new value.
    ///
    /// # Panics
    ///
    /// Panics if the value word would overflow `u32` or `key` is past the
    /// range.
    #[inline]
    pub fn increment(&mut self, key: u64) -> u32 {
        let word = self.word_mut(key);
        let old = *word;
        *word = old.checked_add(1).expect("value word overflows u32");
        self.len += usize::from(old == 0);
        old + 1
    }

    /// Removes `key`, returning its value word if it was present.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<u32> {
        let word = self.words.get_mut(usize::try_from(key).ok()?)?;
        let old = std::mem::take(word);
        if old == 0 {
            return None;
        }
        self.len -= 1;
        Some(old)
    }

    /// Removes every key in `lo..hi`; the part of the range past the
    /// index's keys is ignored.
    pub fn remove_range(&mut self, lo: u64, hi: u64) {
        let end = self.words.len();
        let clamp = |k: u64| usize::try_from(k).map_or(end, |k| k.min(end));
        if let Some(words) = self.words.get_mut(clamp(lo)..clamp(hi)) {
            self.len -= words.iter().filter(|&&w| w != 0).count();
            words.fill(0);
        }
    }

    /// Removes every key; the words, once allocated, are kept.
    pub fn clear(&mut self) {
        if self.len > 0 {
            self.words.fill(0);
            self.len = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_are_allocated_on_the_first_write_only() {
        let mut index = FlatIndex::new(100);
        assert_eq!((index.get(5), index.remove(5)), (None, None));
        index.remove_range(0, 100);
        index.clear();
        assert_eq!(index.words.capacity(), 0);
        index.increment(5);
        assert_eq!(index.words.len(), 100);
        index.clear();
        assert_eq!(index.words.len(), 100, "clear keeps the words");
    }

    #[test]
    fn keys_past_the_range_read_as_absent() {
        let mut index = FlatIndex::new(4);
        index.insert(3, 9);
        for key in [4, 1 << 40, u64::MAX] {
            assert_eq!((index.get(key), index.remove(key)), (None, None));
        }
        index.remove_range(3, u64::MAX);
        index.remove_range(u64::MAX, 2);
        assert!(index.is_empty());
    }

    #[test]
    #[should_panic(expected = "past the index's 4 keys")]
    fn insert_past_the_range_panics() {
        FlatIndex::new(4).insert(4, 1);
    }

    #[test]
    #[should_panic(expected = "zero value word")]
    fn zero_value_panics() {
        FlatIndex::new(4).insert(1, 0);
    }

    #[test]
    #[should_panic(expected = "value word overflows u32")]
    fn increment_overflow_panics() {
        let mut index = FlatIndex::new(2);
        index.insert(0, u32::MAX - 1);
        assert_eq!(index.increment(0), u32::MAX);
        index.increment(0);
    }
}
