//! Exact Row Hammer disturbance accounting ("the oracle").
//!
//! The paper proves Mithril's protection guarantee mathematically; this
//! module lets the reproduction *check it empirically*. The oracle keeps the
//! exact disturbance count of every victim row: each ACT on row `r`
//! increments the counters of all rows within the blast radius of `r`, and
//! any refresh of a victim (auto-refresh or preventive refresh) resets that
//! victim's counter. A counter reaching `FlipTH` is a bit flip.
//!
//! The oracle is deliberately *not* a streaming algorithm — it is the ground
//! truth the streaming trackers approximate.

use mithril_fasthash::RowIndex;

use crate::types::RowId;

/// A detected (simulated) Row Hammer bit flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlipEvent {
    /// The victim row whose disturbance reached the threshold.
    pub victim: RowId,
    /// The aggressor activation that crossed the threshold.
    pub aggressor: RowId,
    /// The disturbance count at the moment of the flip.
    pub disturbance: u64,
}

/// The victim rows of `aggressor` in a bank of `rows` rows: for each
/// distance `d = 1..=radius`, `aggressor − d` then `aggressor + d`, skipping
/// rows past either edge of the bank.
///
/// This is the one victim enumeration shared by the oracle, the Mithril
/// engine and the baselines, so their victim orders cannot drift apart. It
/// walks in place and never allocates.
///
/// ```
/// use mithril_dram::victims;
///
/// assert!(victims(50, 2, 100).eq([49, 51, 48, 52]));
/// assert!(victims(0, 1, 100).eq([1]));
/// assert!(victims(99, 1, 100).eq([98]));
/// ```
pub fn victims(aggressor: RowId, radius: u64, rows: u64) -> impl Iterator<Item = RowId> {
    Victims {
        aggressor,
        radius,
        rows,
        d: 1,
        below_done: false,
    }
}

/// The walk behind [`victims`]. Hand-rolled because the oracle runs it
/// on every ACT: a `flat_map` over `1..=radius` of two-option chains
/// cost the oracle about a fifth of its per-ACT time.
struct Victims {
    aggressor: RowId,
    radius: u64,
    rows: u64,
    /// The distance being walked.
    d: u64,
    /// Whether `aggressor − d` has been offered at distance `d`.
    below_done: bool,
}

impl Iterator for Victims {
    type Item = RowId;

    #[inline]
    fn next(&mut self) -> Option<RowId> {
        while self.d <= self.radius {
            let d = self.d;
            if !self.below_done {
                self.below_done = true;
                if let Some(below) = self.aggressor.checked_sub(d) {
                    return Some(below);
                }
            }
            self.below_done = false;
            self.d += 1;
            let above = self.aggressor + d;
            if above < self.rows {
                return Some(above);
            }
        }
        None
    }
}

/// Ground-truth per-victim disturbance tracking for one DRAM bank.
///
/// The counts live in one of two stores, chosen by the constructor:
/// [`RowHammerOracle::new`] keeps a sparse hash of the disturbed rows
/// (what a `DramDevice` with many banks needs), and
/// [`RowHammerOracle::flat`] one `u32` per row (what a single-bank loop
/// needs). Both answer every query identically.
///
/// # Example
///
/// ```
/// use mithril_dram::RowHammerOracle;
///
/// let mut o = RowHammerOracle::new(1000, 1, 65_536);
/// for _ in 0..999 {
///     o.on_activate(50);
/// }
/// assert_eq!(o.disturbance(49), 999);
/// assert!(o.flips().is_empty());
/// o.on_activate(50); // the 1000th ACT flips both neighbours
/// assert_eq!(o.flips().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RowHammerOracle {
    flip_threshold: u64,
    blast_radius: u64,
    rows: u64,
    counts: Counts,
    max_observed: u64,
    flips: Vec<FlipEvent>,
}

/// Where an oracle keeps its per-row disturbance counts. Rows fit in
/// `u32` ([`RowHammerOracle::new`] asserts it).
#[derive(Debug, Clone)]
enum Counts {
    /// Disturbed row -> its disturbance (at least 1 while present): memory
    /// in proportion to the rows disturbed since their last refresh.
    Sparse(RowIndex<u32>),
    /// One count per row, indexed by row: empty until the first ACT, then
    /// `rows` long.
    Flat(Vec<u32>),
}

/// A counter store the victim walk increments.
trait Store {
    /// Adds one disturbance to `row` and returns its new count.
    ///
    /// # Panics
    ///
    /// Panics if the count would overflow `u32`.
    fn bump(&mut self, row: u32) -> u32;
}

impl Store for RowIndex<u32> {
    #[inline]
    fn bump(&mut self, row: u32) -> u32 {
        self.increment(row)
    }
}

impl Store for [u32] {
    #[inline]
    fn bump(&mut self, row: u32) -> u32 {
        let count = &mut self[row as usize];
        *count = count.checked_add(1).expect("value word overflows u32");
        *count
    }
}

/// The victim walk of one ACT of `aggressor`: bumps every victim in
/// `store`, raises the high-water mark `max` and records the victims
/// whose count reaches `flip_threshold`, in walk order.
#[inline(always)]
fn disturb<S: Store + ?Sized>(
    store: &mut S,
    aggressor: RowId,
    flip_threshold: u64,
    blast_radius: u64,
    rows: u64,
    max: &mut u64,
    flips: &mut Vec<FlipEvent>,
) {
    for victim in victims(aggressor, blast_radius, rows) {
        let d = store.bump(victim as u32) as u64;
        if d > *max {
            *max = d;
        }
        if d == flip_threshold {
            flips.push(FlipEvent {
                victim,
                aggressor,
                disturbance: d,
            });
        }
    }
}

impl RowHammerOracle {
    /// Creates an oracle for a bank of `rows` rows with the given
    /// `flip_threshold` (FlipTH) and `blast_radius` (1 = adjacent rows only,
    /// 2 = distance-2 neighbours also disturbed, ...). Its counts live in a
    /// sparse hash of the disturbed rows, which grows with the rows
    /// disturbed since their last refresh.
    ///
    /// # Panics
    ///
    /// Panics if `flip_threshold`, `blast_radius` or `rows` is zero, or if
    /// `rows` exceeds `2^32`.
    pub fn new(flip_threshold: u64, blast_radius: u64, rows: u64) -> Self {
        Self::with_counts(
            flip_threshold,
            blast_radius,
            rows,
            Counts::Sparse(RowIndex::new()),
        )
    }

    /// Like [`new`](Self::new), but the counts live in a flat array of one
    /// `u32` per row: 4 B × `rows`, allocated zeroed on the first ACT, not
    /// here. Each victim then costs one indexed load and store instead of
    /// a hash probe, which suits a single bank driven ACT after ACT.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn flat(flip_threshold: u64, blast_radius: u64, rows: u64) -> Self {
        Self::with_counts(flip_threshold, blast_radius, rows, Counts::Flat(Vec::new()))
    }

    fn with_counts(flip_threshold: u64, blast_radius: u64, rows: u64, counts: Counts) -> Self {
        assert!(flip_threshold > 0, "flip_threshold must be non-zero");
        assert!(blast_radius > 0, "blast_radius must be non-zero");
        assert!(rows > 0, "rows must be non-zero");
        assert!(rows <= 1 << 32, "rows must fit in u32");
        Self {
            flip_threshold,
            blast_radius,
            rows,
            counts,
            max_observed: 0,
            flips: Vec::new(),
        }
    }

    /// Records an activation of `aggressor`, disturbing every row within
    /// the blast radius.
    ///
    /// # Panics
    ///
    /// Panics if `aggressor` is out of range.
    pub fn on_activate(&mut self, aggressor: RowId) {
        assert!(aggressor < self.rows, "row {aggressor} out of range");
        let Self {
            flip_threshold,
            blast_radius,
            rows,
            ref mut counts,
            ref mut max_observed,
            ref mut flips,
        } = *self;
        match counts {
            Counts::Sparse(index) => disturb(
                index,
                aggressor,
                flip_threshold,
                blast_radius,
                rows,
                max_observed,
                flips,
            ),
            Counts::Flat(counts) => {
                if counts.is_empty() {
                    *counts = vec![0; rows as usize];
                }
                disturb(
                    counts.as_mut_slice(),
                    aggressor,
                    flip_threshold,
                    blast_radius,
                    rows,
                    max_observed,
                    flips,
                )
            }
        }
    }

    /// Records that `row` itself was refreshed (auto-refresh reaching it, or
    /// a preventive refresh naming it as the victim): its accumulated
    /// disturbance is cleared. Rows past the bank are ignored.
    pub fn on_row_refreshed(&mut self, row: RowId) {
        if row >= self.rows {
            return;
        }
        match &mut self.counts {
            Counts::Sparse(index) => {
                index.remove(row as u32);
            }
            Counts::Flat(counts) => {
                if let Some(count) = counts.get_mut(row as usize) {
                    *count = 0;
                }
            }
        }
    }

    /// Convenience: refresh every row in `lo..hi` (an auto-refresh group,
    /// `rows_per_ref` rows long). Rows past the bank are ignored.
    pub fn on_rows_refreshed(&mut self, lo: RowId, hi: RowId) {
        let hi = hi.min(self.rows);
        match &mut self.counts {
            Counts::Sparse(index) => {
                for row in lo..hi {
                    index.remove(row as u32);
                }
            }
            Counts::Flat(counts) => {
                // `None` before the first ACT (nothing to clear) or for an
                // empty range.
                if let Some(group) = counts.get_mut(lo as usize..hi as usize) {
                    group.fill(0);
                }
            }
        }
    }

    /// Current disturbance of `row` (0 if never disturbed or refreshed,
    /// or past the bank).
    pub fn disturbance(&self, row: RowId) -> u64 {
        if row >= self.rows {
            return 0;
        }
        match &self.counts {
            Counts::Sparse(index) => index.get(row as u32).map_or(0, u64::from),
            Counts::Flat(counts) => counts.get(row as usize).map_or(0, |&d| u64::from(d)),
        }
    }

    /// Rows in the bank.
    pub(crate) fn rows(&self) -> u64 {
        self.rows
    }

    /// High-water mark of any victim's disturbance since construction.
    ///
    /// A deterministic protection scheme is *safe* iff this never reaches
    /// FlipTH under any access pattern.
    pub fn max_disturbance(&self) -> u64 {
        self.max_observed
    }

    /// All bit flips detected so far.
    pub fn flips(&self) -> &[FlipEvent] {
        &self.flips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sided_disturbs_both_neighbors() {
        let mut o = RowHammerOracle::new(100, 1, 1024);
        for _ in 0..10 {
            o.on_activate(5);
        }
        assert_eq!(o.disturbance(4), 10);
        assert_eq!(o.disturbance(6), 10);
        assert_eq!(o.disturbance(5), 0);
        assert_eq!(o.max_disturbance(), 10);
    }

    #[test]
    fn double_sided_attack_accumulates_on_shared_victim() {
        // FlipTH/2 ACTs on each side flip the middle row (paper II-B).
        let mut o = RowHammerOracle::new(100, 1, 1024);
        for _ in 0..50 {
            o.on_activate(4);
            o.on_activate(6);
        }
        assert_eq!(o.disturbance(5), 100);
        assert_eq!(o.flips().len(), 1);
        assert_eq!(o.flips()[0].victim, 5);
    }

    #[test]
    fn refresh_resets_disturbance() {
        let mut o = RowHammerOracle::new(100, 1, 1024);
        for _ in 0..60 {
            o.on_activate(5);
        }
        o.on_row_refreshed(4);
        assert_eq!(o.disturbance(4), 0);
        assert_eq!(o.disturbance(6), 60);
        // Max high-water mark is unaffected by refreshes.
        assert_eq!(o.max_disturbance(), 60);
    }

    #[test]
    fn group_refresh_resets_range() {
        let mut o = RowHammerOracle::new(1000, 1, 1024);
        for r in [10u64, 20, 30] {
            for _ in 0..3 {
                o.on_activate(r);
            }
        }
        o.on_rows_refreshed(15, 25);
        assert_eq!(o.disturbance(19), 0);
        assert_eq!(o.disturbance(21), 0);
        assert_eq!(o.disturbance(9), 3);
        assert_eq!(o.disturbance(31), 3);
    }

    #[test]
    fn edge_rows_have_one_sided_victims() {
        let walk = |aggressor, radius| victims(aggressor, radius, 100).collect::<Vec<_>>();
        assert_eq!(walk(0, 1), vec![1]);
        assert_eq!(walk(99, 1), vec![98]);
        assert_eq!(walk(50, 1), vec![49, 51]);
        // Nearest first, below before above; at an edge each distance
        // drops only its missing side.
        assert_eq!(walk(50, 2), vec![49, 51, 48, 52]);
        assert_eq!(walk(0, 2), vec![1, 2]);
        assert_eq!(walk(1, 2), vec![0, 2, 3]);
        assert_eq!(walk(99, 2), vec![98, 97]);
        assert_eq!(walk(98, 2), vec![97, 99, 96]);
    }

    #[test]
    fn blast_radius_two_reaches_distance_two() {
        let mut o = RowHammerOracle::new(10, 2, 100);
        o.on_activate(50);
        for r in [48, 49, 51, 52] {
            assert_eq!(o.disturbance(r), 1, "row {r}");
        }
        assert_eq!(o.disturbance(47), 0);
        assert_eq!(o.disturbance(53), 0);
        // At FlipTH the flips are recorded in walk order, and so are the
        // one-sided flips around the edge rows 0 and rows − 1.
        for _ in 1..10 {
            o.on_activate(50);
        }
        for _ in 0..10 {
            o.on_activate(0);
        }
        for _ in 0..10 {
            o.on_activate(99);
        }
        let order: Vec<(RowId, RowId)> =
            o.flips().iter().map(|f| (f.aggressor, f.victim)).collect();
        assert_eq!(
            order,
            vec![
                (50, 49),
                (50, 51),
                (50, 48),
                (50, 52),
                (0, 1),
                (0, 2),
                (99, 98),
                (99, 97)
            ]
        );
        assert!(o.flips().iter().all(|f| f.disturbance == 10));
    }

    #[test]
    fn flip_recorded_exactly_at_threshold() {
        let mut o = RowHammerOracle::new(3, 1, 100);
        o.on_activate(7);
        o.on_activate(7);
        assert!(o.flips().is_empty());
        o.on_activate(7);
        assert_eq!(o.flips().len(), 2); // rows 6 and 8
                                        // Further ACTs do not duplicate the flip event.
        o.on_activate(7);
        assert_eq!(o.flips().len(), 2);
    }

    #[test]
    #[should_panic(expected = "value word overflows u32")]
    fn flat_count_overflow_panics() {
        let mut counts = [u32::MAX - 1, 0];
        assert_eq!(counts.bump(0), u32::MAX);
        counts.bump(0);
    }

    #[test]
    fn flat_store_allocates_on_first_act() {
        let mut o = RowHammerOracle::flat(10, 1, 100);
        o.on_row_refreshed(5);
        o.on_rows_refreshed(0, 8);
        assert!(matches!(&o.counts, Counts::Flat(c) if c.capacity() == 0));
        o.on_activate(5);
        assert!(matches!(&o.counts, Counts::Flat(c) if c.len() == 100));
        assert_eq!(o.disturbance(4), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn activate_out_of_range_panics() {
        let mut o = RowHammerOracle::new(10, 1, 8);
        o.on_activate(8);
    }
}
