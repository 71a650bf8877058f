//! Property-based tests for the no-undercount invariant (paper Section
//! III-C, inequality (1)) and the counter tree's shape.

use std::collections::HashMap;

use mithril_trackers::{CounterTree, CountingBloomFilter};
use proptest::prelude::*;

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
