//! Property-based tests for the streaming-algorithm invariants the paper's
//! safety argument rests on (Section III-C, inequalities (1) and (2)).

use std::collections::HashMap;

use mithril_trackers::{CounterTree, CountingBloomFilter, FrequencyTracker, SpaceSaving};
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

/// Streams with a skewed (hot/cold) distribution.
fn skewed_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            3 => Just(7u64),         // hot row
            2 => 0u64..4,            // warm rows
            5 => 100u64..100_000,    // cold noise
        ],
        1..3000,
    )
}

proptest! {
    // ---------------- Space-Saving (Counter-based Summary) ----------------

    /// Inequality (1): Actual Count <= Estimated Count.
    #[test]
    fn cbs_lower_bound(stream in dense_stream(), cap in 1usize..32) {
        let mut t = SpaceSaving::new(cap);
        for &x in &stream {
            t.record(x);
        }
        for (&x, &actual) in &exact(&stream) {
            prop_assert!(t.estimate(x) >= actual);
        }
    }

    /// Inequality (2): Estimated Count <= Actual Count + Min.
    #[test]
    fn cbs_upper_bound(stream in dense_stream(), cap in 1usize..32) {
        let mut t = SpaceSaving::new(cap);
        for &x in &stream {
            t.record(x);
        }
        let exact = exact(&stream);
        let min = t.min_count();
        for e in t.iter() {
            let actual = exact.get(&e.item).copied().unwrap_or(0);
            prop_assert!(e.count <= actual + min,
                "item {} count {} actual {} min {}", e.item, e.count, actual, min);
        }
    }

    /// The table minimum never exceeds stream_len / capacity — the bound
    /// that ties table size to tracking error.
    #[test]
    fn cbs_min_bounded_by_stream_over_capacity(stream in dense_stream(), cap in 1usize..32) {
        let mut t = SpaceSaving::new(cap);
        for &x in &stream {
            t.record(x);
        }
        prop_assert!(t.min_count() <= stream.len() as u64 / cap as u64);
    }

    /// Greedy selection with reset-to-min keeps both bounds valid if we
    /// model the reset as "actual count also becomes unknown but >= 0".
    /// Concretely: estimates stay >= 0 and max/min/spread stay consistent.
    #[test]
    fn cbs_reset_preserves_table_consistency(
        stream in dense_stream(),
        cap in 2usize..16,
        reset_every in 1usize..50,
    ) {
        let mut t = SpaceSaving::new(cap);
        for (i, &x) in stream.iter().enumerate() {
            t.record(x);
            if i % reset_every == 0 {
                t.take_max_reset_to_min();
            }
            // Consistency: reported max/min bracket every entry.
            let max = t.max_entry().unwrap().count;
            for e in t.iter() {
                prop_assert!(e.count <= max);
            }
            if t.len() == t.counter_slots() {
                let min = t.min_count();
                for e in t.iter() {
                    prop_assert!(e.count >= min);
                }
                prop_assert_eq!(t.spread(), max - min);
            }
        }
    }

    /// The Space-Saving guarantee: any item with actual count > n/cap is
    /// on the table at the end of the stream.
    #[test]
    fn cbs_heavy_hitters_always_tracked(stream in skewed_stream(), cap in 4usize..32) {
        let mut t = SpaceSaving::new(cap);
        for &x in &stream {
            t.record(x);
        }
        let n = stream.len() as u64;
        for (&x, &actual) in &exact(&stream) {
            if actual > n / cap as u64 {
                prop_assert!(t.tracked_count(x).is_some(),
                    "heavy hitter {} (count {}) evicted", x, actual);
            }
        }
    }

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
