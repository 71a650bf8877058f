//! Counting Bloom filters.
//!
//! BlockHammer (HPCA 2021) tracks row activation rates with a pair of
//! *counting Bloom filters* (CBFs), which the Mithril paper classifies as a
//! Count-Min-Sketch-style streaming algorithm (Table I). A CBF
//! over-approximates counts (never undercounts) but has **no useful upper
//! bound**, which is why it can only drive throttling remedies, not
//! refresh-based ones (paper Section III-C).

use mithril_fasthash::MultiplyShiftHasher;

/// A counting Bloom filter: one array of counters, `k` hash functions.
///
/// This is the exact structure BlockHammer instantiates: one array shared by
/// all hash functions, where a Count-Min Sketch gives each its own row.
///
/// # Example
///
/// ```
/// use mithril_trackers::CountingBloomFilter;
///
/// let mut f = CountingBloomFilter::new(10, 4, 7);
/// for _ in 0..100 {
///     f.record(0xBEEF);
/// }
/// assert!(f.estimate(0xBEEF) >= 100);
/// ```
#[derive(Debug, Clone)]
pub struct CountingBloomFilter {
    counters: Vec<u64>,
    hashers: Vec<MultiplyShiftHasher>,
}

impl CountingBloomFilter {
    /// Creates a filter with `2^size_bits` counters and `k` hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or `size_bits` is not in `1..=63`.
    pub fn new(size_bits: u32, k: usize, seed: u64) -> Self {
        assert!(k > 0, "k must be non-zero");
        let hashers: Vec<_> = (0..k)
            .map(|i| {
                MultiplyShiftHasher::new(seed.wrapping_mul(31).wrapping_add(i as u64), size_bits)
            })
            .collect();
        Self {
            counters: vec![0; 1usize << size_bits],
            hashers,
        }
    }

    /// Number of counters in the filter.
    pub fn num_counters(&self) -> usize {
        self.counters.len()
    }

    /// Number of hash functions.
    pub fn num_hashes(&self) -> usize {
        self.hashers.len()
    }

    /// The counter buckets `item` maps to (exposed so adversarial workload
    /// generators can construct collision sets, paper Section VI-A).
    pub fn buckets(&self, item: u64) -> Vec<usize> {
        self.hashers.iter().map(|h| h.bucket(item)).collect()
    }

    /// True if `estimate(item) >= threshold` — the BlockHammer blacklist
    /// test.
    pub fn is_blacklisted(&self, item: u64, threshold: u64) -> bool {
        self.estimate(item) >= threshold
    }

    /// Records one occurrence of `item`.
    pub fn record(&mut self, item: u64) {
        // Conservative-increment variant would only bump the minimum
        // counters; BlockHammer uses plain increments, which we follow.
        for h in &self.hashers {
            self.counters[h.bucket(item)] += 1;
        }
    }

    /// The minimum over `item`'s counters: never below its true count.
    pub fn estimate(&self, item: u64) -> u64 {
        self.hashers
            .iter()
            .map(|h| self.counters[h.bucket(item)])
            .min()
            .expect("k > 0")
    }

    /// Zeroes every counter.
    pub fn clear(&mut self) {
        self.counters.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn cbf_never_undercounts() {
        let mut f = CountingBloomFilter::new(8, 4, 3);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        for i in 0..5_000u64 {
            let item = i % 300;
            f.record(item);
            *exact.entry(item).or_insert(0) += 1;
        }
        for (&x, &actual) in &exact {
            assert!(f.estimate(x) >= actual);
        }
    }

    #[test]
    fn cbf_blacklist_threshold() {
        let mut f = CountingBloomFilter::new(10, 4, 3);
        for _ in 0..99 {
            f.record(5);
        }
        assert!(!f.is_blacklisted(5, 100));
        f.record(5);
        assert!(f.is_blacklisted(5, 100));
    }

    #[test]
    fn cbf_aliasing_items_share_counts() {
        // Two items mapping to the same buckets are indistinguishable — the
        // property the BlockHammer-adversarial pattern exploits.
        let f = CountingBloomFilter::new(4, 2, 3);
        let reference = f.buckets(0);
        let mut alias = None;
        for cand in 1..100_000u64 {
            if f.buckets(cand) == reference {
                alias = Some(cand);
                break;
            }
        }
        let alias = alias.expect("a 16-counter filter must alias quickly");
        let mut f = f;
        for _ in 0..50 {
            f.record(0);
        }
        assert!(f.estimate(alias) >= 50, "alias must inherit the count");
    }

    #[test]
    fn clear_resets() {
        let mut f = CountingBloomFilter::new(4, 2, 0);
        f.record(9);
        f.clear();
        assert_eq!(f.estimate(9), 0);
    }

    #[test]
    fn geometry_accessors() {
        let f = CountingBloomFilter::new(6, 4, 0);
        assert_eq!(f.num_counters(), 64);
        assert_eq!(f.num_hashes(), 4);
    }
}
