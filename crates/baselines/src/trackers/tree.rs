//! Grouped-counter tree (the CBT tracking mechanism).
//!
//! CBT (Seyedzadeh et al.) allocates one counter to a *group* of rows and
//! adaptively splits hot groups into smaller ones, trading per-row precision
//! against table area (paper Sections II-C4 and III-D). The tree starts as a
//! single root counter covering the whole bank. When a leaf counter reaches
//! the *split threshold* and spare counters remain, the leaf splits into two
//! children, each of which **inherits the parent's count** — this keeps the
//! estimate an upper bound, because the ACTs counted at the parent cannot be
//! attributed to either half.
//!
//! When a leaf reaches the hammer threshold, all rows of the group must
//! receive a preventive refresh — the weakness the paper identifies for
//! RFM compatibility (a leaf wider than ~8 rows does not fit in one tRFM
//! window; Section III-D).

use std::ops::Range;

#[derive(Debug, Clone)]
struct Node {
    lo: u64,
    hi: u64,
    count: u64,
    /// Index of the left child; the right child is `left + 1`.
    left_child: Option<usize>,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.left_child.is_none()
    }

    fn width(&self) -> u64 {
        self.hi - self.lo
    }
}

/// An adaptively splitting tree of grouped activation counters.
#[derive(Debug, Clone)]
pub(crate) struct CounterTree {
    num_rows: u64,
    max_counters: usize,
    split_threshold: u64,
    nodes: Vec<Node>,
}

impl CounterTree {
    /// Creates a tree over rows `0..num_rows` with at most `max_counters`
    /// leaf counters, splitting leaves that reach `split_threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `num_rows` or `max_counters` is zero, or if
    /// `split_threshold` is zero.
    pub(crate) fn new(num_rows: u64, max_counters: usize, split_threshold: u64) -> Self {
        assert!(num_rows > 0, "num_rows must be non-zero");
        assert!(max_counters > 0, "max_counters must be non-zero");
        assert!(split_threshold > 0, "split_threshold must be non-zero");
        Self {
            num_rows,
            max_counters,
            split_threshold,
            nodes: vec![Node {
                lo: 0,
                hi: num_rows,
                count: 0,
                left_child: None,
            }],
        }
    }

    /// Records one activation of `row`, splitting its leaf once the leaf
    /// reaches the split threshold and a counter is spare.
    ///
    /// # Panics
    ///
    /// Panics if `row >= num_rows`.
    pub(crate) fn record(&mut self, row: u64) {
        let idx = self.leaf_for(row);
        self.nodes[idx].count += 1;
        self.try_split(idx);
    }

    /// The counter of `row`'s group: never below `row`'s true count.
    ///
    /// # Panics
    ///
    /// Panics if `row >= num_rows`.
    pub(crate) fn estimate(&self, row: u64) -> u64 {
        self.nodes[self.leaf_for(row)].count
    }

    /// Collapses the tree back to the single root counter at zero.
    pub(crate) fn clear(&mut self) {
        let n = self.num_rows;
        self.nodes.clear();
        self.nodes.push(Node {
            lo: 0,
            hi: n,
            count: 0,
            left_child: None,
        });
    }

    /// The range of rows sharing a counter with `row`. Test-only: the
    /// shape tests read the group partition without resetting a counter,
    /// which [`reset_group`](Self::reset_group), the shipped reader, does.
    ///
    /// # Panics
    ///
    /// Panics if `row >= num_rows`.
    #[cfg(test)]
    pub(crate) fn covering_group(&self, row: u64) -> Range<u64> {
        let node = &self.nodes[self.leaf_for(row)];
        node.lo..node.hi
    }

    /// Resets the counter of the group covering `row` (after its rows got a
    /// preventive refresh) and returns the group.
    ///
    /// # Panics
    ///
    /// Panics if `row >= num_rows`.
    pub(crate) fn reset_group(&mut self, row: u64) -> Range<u64> {
        let idx = self.leaf_for(row);
        self.nodes[idx].count = 0;
        self.nodes[idx].lo..self.nodes[idx].hi
    }

    fn leaf_for(&self, row: u64) -> usize {
        assert!(
            row < self.num_rows,
            "row {row} out of range {}",
            self.num_rows
        );
        let mut idx = 0;
        while let Some(left) = self.nodes[idx].left_child {
            let mid = self.nodes[left].hi;
            idx = if row < mid { left } else { left + 1 };
        }
        idx
    }

    fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    fn try_split(&mut self, idx: usize) {
        let node = &self.nodes[idx];
        if node.width() <= 1
            || node.count < self.split_threshold
            || self.leaf_count() >= self.max_counters
        {
            return;
        }
        let (lo, hi, count) = (node.lo, node.hi, node.count);
        let mid = lo + (hi - lo) / 2;
        let left = self.nodes.len();
        // Children inherit the parent count: the parent's ACTs cannot be
        // attributed, so both halves must assume the worst.
        self.nodes.push(Node {
            lo,
            hi: mid,
            count,
            left_child: None,
        });
        self.nodes.push(Node {
            lo: mid,
            hi,
            count,
            left_child: None,
        });
        self.nodes[idx].left_child = Some(left);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn hot_row_group_shrinks_around_it() {
        // 1024 rows, 15 counters, split a group once it has 8 activations.
        let mut t = CounterTree::new(1024, 15, 8);
        for _ in 0..100 {
            t.record(500);
        }
        let group = t.covering_group(500);
        assert!(group.end - group.start < 1024);
        assert!(t.estimate(500) >= 100);
    }

    #[test]
    fn starts_as_single_group() {
        let t = CounterTree::new(64, 8, 4);
        assert_eq!(t.covering_group(0), 0..64);
        assert_eq!(t.covering_group(63), 0..64);
        assert_eq!(t.leaf_count(), 1);
    }

    #[test]
    fn splits_isolate_hot_rows() {
        let mut t = CounterTree::new(1024, 31, 4);
        for _ in 0..200 {
            t.record(500);
        }
        let group = t.covering_group(500);
        assert!(
            group.end - group.start <= 2,
            "hot group should shrink, got {group:?}"
        );
        // A cold far-away row still shares a wide group.
        let cold = t.covering_group(5);
        assert!(cold.end - cold.start >= 256);
    }

    #[test]
    fn estimate_never_undercounts() {
        let mut t = CounterTree::new(256, 15, 8);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        let stream: Vec<u64> = (0..2000u64).map(|i| (i * 17) % 256).collect();
        for &r in &stream {
            t.record(r);
            *exact.entry(r).or_insert(0) += 1;
        }
        for (&r, &actual) in &exact {
            assert!(
                t.estimate(r) >= actual,
                "row {r}: {} < {actual}",
                t.estimate(r)
            );
        }
    }

    #[test]
    fn counter_budget_is_respected() {
        let mut t = CounterTree::new(1 << 16, 7, 1);
        for i in 0..10_000u64 {
            t.record(i % (1 << 16));
        }
        assert!(t.leaf_count() <= 7);
    }

    #[test]
    fn reset_group_zeroes_counter() {
        let mut t = CounterTree::new(128, 3, 1000);
        for _ in 0..10 {
            t.record(7);
        }
        let g = t.reset_group(7);
        assert!(g.contains(&7));
        assert_eq!(t.estimate(7), 0);
    }

    #[test]
    fn children_inherit_parent_count() {
        let mut t = CounterTree::new(16, 3, 4);
        // 4 ACTs to row 0 trigger a split; row 15 (other half) must still be
        // estimated at >= 4 because attribution is impossible.
        for _ in 0..4 {
            t.record(0);
        }
        assert!(t.estimate(15) >= 4);
    }

    #[test]
    fn single_row_leaves_never_split_further() {
        let mut t = CounterTree::new(4, 63, 1);
        for _ in 0..100 {
            t.record(2);
        }
        assert_eq!(t.covering_group(2), 2..3);
    }

    #[test]
    fn clear_rebuilds_root() {
        let mut t = CounterTree::new(64, 15, 2);
        for i in 0..64u64 {
            t.record(i);
        }
        t.clear();
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.estimate(0), 0);
        assert_eq!(t.covering_group(63), 0..64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_row_panics() {
        let t = CounterTree::new(8, 3, 2);
        let _ = t.covering_group(8);
    }
}
