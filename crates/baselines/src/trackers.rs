//! Streaming frequency estimators behind the baselines' Row Hammer
//! trackers.
//!
//! Architectural Row Hammer mitigations estimate per-row activation counts
//! from the stream of `ACT` commands using *streaming algorithms*
//! (Mithril, HPCA 2022, Section II-C4 and III-C). This module holds the two
//! whose estimates only bound the true count from above:
//!
//! * [`CountingBloomFilter`] — the one-sided, Count-Min-style
//!   over-approximation used by **BlockHammer**.
//! * [`CounterTree`] — the grouped-counter approach of **CBT**.
//!
//! The *Counter-based Summary* (CbS, Space-Saving) that **Mithril** and
//! **Graphene** build on is `mithril::MithrilTable`, which brackets the
//! true count from both sides (inequalities (1) and (2) of the paper).
//! **TWiCe**'s Lossy Counting table lives with its scheme.
//!
//! Both trackers observe `u64` items (row addresses) through `record` and
//! answer point queries through `estimate`, which never under-counts
//! (inequality (1)): `estimate(x) >= actual(x)`, where `actual` is the
//! number of `record(x)` calls since the last `clear`.

mod bloom;
mod tree;

pub(crate) use bloom::CountingBloomFilter;
pub(crate) use tree::CounterTree;

/// Property-based tests for the no-undercount invariant (paper Section
/// III-C, inequality (1)) and the counter tree's shape.
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn exact(stream: &[u64]) -> HashMap<u64, u64> {
        let mut m = HashMap::new();
        for &x in stream {
            *m.entry(x).or_insert(0u64) += 1;
        }
        m
    }

    /// Streams drawn from a small universe so that collisions/evictions occur.
    fn dense_stream() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(0u64..64, 1..2000)
    }

    #[test]
    fn both_trackers_bound_counts_from_above() {
        let mut cbf = CountingBloomFilter::new(6, 4, 1);
        let mut tree = CounterTree::new(1024, 15, 8);
        for _ in 0..10 {
            cbf.record(0xA0);
            tree.record(0xA0);
        }
        cbf.record(0xB0);
        tree.record(0xB0);
        assert!(cbf.estimate(0xA0) >= 10 && tree.estimate(0xA0) >= 10);
        assert!(cbf.estimate(0xB0) >= 1 && tree.estimate(0xB0) >= 1);
    }

    proptest! {
        // ---------------- Counting Bloom filter ----------------

        #[test]
        fn cbf_lower_bound(stream in dense_stream(), k in 1usize..5, bits in 2u32..10) {
            let mut t = CountingBloomFilter::new(bits, k, 7);
            for &x in &stream {
                t.record(x);
            }
            for (&x, &actual) in &exact(&stream) {
                prop_assert!(t.estimate(x) >= actual);
            }
        }

        // ---------------- Counter tree (CBT) ----------------

        #[test]
        fn tree_lower_bound(
            stream in prop::collection::vec(0u64..256, 1..2000),
            counters in 1usize..64,
            split in 1u64..64,
        ) {
            let mut t = CounterTree::new(256, counters, split);
            for &x in &stream {
                t.record(x);
            }
            for (&x, &actual) in &exact(&stream) {
                prop_assert!(t.estimate(x) >= actual,
                    "row {}: est {} < actual {}", x, t.estimate(x), actual);
            }
        }

        /// Tree leaves always partition the row space exactly.
        #[test]
        fn tree_leaves_partition_rows(
            stream in prop::collection::vec(0u64..128, 0..500),
            counters in 1usize..32,
        ) {
            let mut t = CounterTree::new(128, counters, 4);
            for &x in &stream {
                t.record(x);
            }
            // Every row belongs to exactly one group, and walking the groups
            // covers the space without gaps or overlap.
            let mut row = 0u64;
            while row < 128 {
                let g = t.covering_group(row);
                prop_assert_eq!(g.start, row);
                prop_assert!(g.end > row);
                row = g.end;
            }
            prop_assert_eq!(row, 128);
        }
    }
}
