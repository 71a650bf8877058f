//! Property tests for the Counter-based Summary (Space-Saving) bounds the
//! paper's safety argument rests on (Section III-C, inequalities (1) and
//! (2)), on the unbounded `MithrilTable<u64>` that Graphene, RFM-Graphene
//! and `trace stat` track with:
//!
//! ```text
//! actual(x)  <=  estimate(x)  <=  actual(x) + min
//! ```
//!
//! where `min` is the table minimum (`0` while entries are free) and
//! `estimate(x)` is the counter of an on-table row or `min` otherwise.

use std::collections::HashMap;

use mithril::MithrilTable;
use proptest::prelude::*;

/// A row no stream below touches: its estimate is the table minimum.
const OFF_TABLE: u64 = 1 << 40;

fn exact(stream: &[u64]) -> HashMap<u64, u64> {
    let mut m = HashMap::new();
    for &x in stream {
        *m.entry(x).or_insert(0u64) += 1;
    }
    m
}

fn table_after(stream: &[u64], cap: usize) -> MithrilTable<u64> {
    let mut t = MithrilTable::new(cap);
    for &x in stream {
        t.on_activate(x);
    }
    t
}

/// Streams drawn from a small universe so that evictions occur.
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
    /// Inequality (1): Actual Count <= Estimated Count.
    #[test]
    fn cbs_lower_bound(stream in dense_stream(), cap in 1usize..32) {
        let t = table_after(&stream, cap);
        for (&x, &actual) in &exact(&stream) {
            prop_assert!(t.estimate(x) >= actual);
        }
    }

    /// Inequality (2): Estimated Count <= Actual Count + Min.
    #[test]
    fn cbs_upper_bound(stream in dense_stream(), cap in 1usize..32) {
        let t = table_after(&stream, cap);
        let exact = exact(&stream);
        let min = t.estimate(OFF_TABLE);
        for (row, _) in t.iter_relative() {
            let actual = exact.get(&row).copied().unwrap_or(0);
            prop_assert!(t.estimate(row) <= actual + min,
                "row {} estimate {} actual {} min {}", row, t.estimate(row), actual, min);
        }
    }

    /// The table minimum never exceeds stream_len / capacity — the bound
    /// that ties table size to tracking error.
    #[test]
    fn cbs_min_bounded_by_stream_over_capacity(stream in dense_stream(), cap in 1usize..32) {
        let t = table_after(&stream, cap);
        prop_assert!(t.estimate(OFF_TABLE) <= stream.len() as u64 / cap as u64);
    }

    /// Greedy selection with reset-to-min keeps the table consistent:
    /// every entry sits between the minimum and the maximum, each relative
    /// estimate is its absolute one less the minimum, and the spread is
    /// max − min.
    #[test]
    fn cbs_reset_preserves_table_consistency(
        stream in dense_stream(),
        cap in 2usize..16,
        reset_every in 1usize..50,
    ) {
        let mut t = MithrilTable::<u64>::new(cap);
        for (i, &x) in stream.iter().enumerate() {
            t.on_activate(x);
            if i % reset_every == 0 {
                t.on_rfm();
            }
            let min = t.estimate(OFF_TABLE);
            let max = t.iter_relative().map(|(r, _)| t.estimate(r)).max().unwrap();
            for (row, above) in t.iter_relative() {
                prop_assert!(t.estimate(row) >= min);
                prop_assert!(t.estimate(row) <= max);
                prop_assert_eq!(t.estimate(row), min + above);
            }
            prop_assert_eq!(t.spread(), max - min);
        }
    }

    /// The Space-Saving guarantee: any row with actual count > n/cap is on
    /// the table at the end of the stream.
    #[test]
    fn cbs_heavy_hitters_always_tracked(stream in skewed_stream(), cap in 4usize..32) {
        let t = table_after(&stream, cap);
        let n = stream.len() as u64;
        for (&x, &actual) in &exact(&stream) {
            if actual > n / cap as u64 {
                prop_assert!(t.contains(x), "heavy hitter {} (count {}) evicted", x, actual);
            }
        }
    }
}
