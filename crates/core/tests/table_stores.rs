//! Differential test of the Mithril table's two row-index stores: the
//! sparse [`RowIndex`](mithril_fasthash::RowIndex) a table is built with
//! and the flat per-row index of [`MithrilTable::use_flat_index`] must
//! make the same decisions.
//!
//! Seeded streams drive a sparse and a flat table, `u16` and `u64`,
//! through hits, fills and full-table evictions, RFMs and row resets,
//! tag invalidations and counter bit flips (silent, as the fault injector
//! makes them), scrubs (`self_check`, then `repair` when it fails) and
//! clears, and through queries of rows past the bank and of
//! [`INVALID_ROW`]. Every return value is compared, and so are the entries
//! (`iter_relative`, in slot order), the observation snapshot and the
//! self-check verdict after every step.

use mithril::{Counter, MithrilTable, INVALID_ROW};
use mithril_dram::RowId;

/// Rows of the bank the flat index covers.
const ROWS: u64 = 96;

/// One command of the stream both tables are driven with.
#[derive(Debug, Clone, Copy)]
enum Op {
    Act(RowId),
    Rfm,
    ResetRow(RowId),
    Invalidate(usize),
    Flip(usize, u32),
    Force(usize, u32, bool),
    /// A scrub pass: `self_check`, and `repair` if it fails.
    Scrub,
    Clear,
    Query(RowId),
}

/// A seeded splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    /// A row in the bank, a row past it, or [`INVALID_ROW`].
    fn any_row(&mut self) -> RowId {
        match self.below(8) {
            0 => ROWS + self.below(8),
            1 => [1 << 40, INVALID_ROW][self.below(2) as usize],
            _ => self.below(ROWS),
        }
    }

    /// Mostly ACTs, half of them on a few hot rows (hits) and half spread
    /// over the bank (fills and evictions), with RFMs, resets, faults,
    /// scrubs, rare clears and queries between them. Slots and bits may
    /// fall past the table and the counter.
    fn op(&mut self, cap: usize) -> Op {
        let slot = self.below(cap as u64 + 2) as usize;
        match self.below(64) {
            0..=19 => Op::Act(self.below(6) * 7),
            20..=39 => Op::Act(self.below(ROWS)),
            40..=45 => Op::Rfm,
            46..=48 => Op::ResetRow(self.any_row()),
            49..=50 => Op::Invalidate(slot),
            51 => Op::Flip(slot, self.below(66) as u32),
            52 => Op::Force(slot, self.below(66) as u32, self.below(2) == 1),
            53..=55 => Op::Scrub,
            56 => Op::Clear,
            _ => Op::Query(self.any_row()),
        }
    }
}

/// What the steps of one run exercised, summed over both counter widths.
#[derive(Debug, Default)]
struct Seen {
    evictions: u64,
    invalid_reclaims: u64,
    repairs: u64,
    clears: u64,
}

/// Applies `op` to `t` and renders every value it returns. `estimate`
/// adds the absolute estimate of the unbounded table.
fn apply<C: Counter>(
    t: &mut MithrilTable<C>,
    op: Op,
    estimate: fn(&MithrilTable<C>, RowId) -> Option<u64>,
) -> String {
    match op {
        Op::Act(row) => {
            t.on_activate(row);
            format!("{}", t.contains(row))
        }
        Op::Rfm => format!("{:?}", t.on_rfm()),
        Op::ResetRow(row) => format!("{}", t.reset_row(row)),
        Op::Invalidate(slot) => format!("{}", t.invalidate_entry(slot)),
        Op::Flip(slot, bit) => format!("{}", t.flip_counter_bit(slot, bit)),
        Op::Force(slot, bit, one) => format!("{}", t.force_counter_bit(slot, bit, one)),
        Op::Scrub => {
            let check = t.self_check();
            if check.is_err() {
                t.repair();
                assert_eq!(t.self_check(), Ok(()), "repair left a broken table");
            }
            format!("{check:?}")
        }
        Op::Clear => {
            t.clear();
            String::new()
        }
        Op::Query(row) => format!(
            "{} {} {:?}",
            t.contains(row),
            t.estimate_above_min(row),
            estimate(t, row)
        ),
    }
}

/// Drives a sparse and a flat table of `cap` entries with seed `seed`'s
/// stream, comparing after every step, and tallies what it exercised.
fn run<C: Counter>(
    seed: u64,
    cap: usize,
    steps: usize,
    estimate: fn(&MithrilTable<C>, RowId) -> Option<u64>,
    seen: &mut Seen,
) {
    let mut sparse: MithrilTable<C> = MithrilTable::new(cap);
    let mut flat: MithrilTable<C> = MithrilTable::new(cap);
    flat.use_flat_index(ROWS);
    let mut rng = Rng(seed);
    for i in 0..steps {
        let op = rng.op(cap);
        let evicting_invalid = matches!(op, Op::Act(row) if !flat.contains(row))
            && flat.len() == cap
            && flat.iter_relative().any(|(r, _)| r == INVALID_ROW);
        let evictions = flat.evictions();
        let repairing = matches!(op, Op::Scrub) && flat.self_check().is_err();
        let case = format!(
            "{}-bit, {cap} entries, seed {seed}, step {i} ({op:?})",
            C::BITS
        );
        assert_eq!(
            apply(&mut sparse, op, estimate),
            apply(&mut flat, op, estimate),
            "{case}: return value"
        );
        assert!(
            sparse.iter_relative().eq(flat.iter_relative()),
            "{case}: entries"
        );
        assert_eq!(sparse.observe(), flat.observe(), "{case}: observation");
        assert_eq!(sparse.self_check(), flat.self_check(), "{case}: self-check");
        seen.evictions += flat.evictions().saturating_sub(evictions);
        seen.invalid_reclaims += u64::from(evicting_invalid && flat.evictions() > evictions);
        seen.repairs += u64::from(repairing);
        seen.clears += u64::from(matches!(op, Op::Clear));
    }
}

#[test]
fn flat_and_sparse_indexes_make_the_same_decisions() {
    let mut seen = Seen::default();
    for seed in 0..32 {
        for cap in [1, 3, 8, 20] {
            run::<u16>(seed, cap, 600, |_, _| None, &mut seen);
            run::<u64>(seed, cap, 600, |t, row| Some(t.estimate(row)), &mut seen);
        }
    }
    // The streams reached what they are meant to compare.
    assert!(seen.evictions > 10_000, "{seen:?}");
    assert!(seen.invalid_reclaims > 50, "{seen:?}");
    assert!(seen.repairs > 100, "{seen:?}");
    assert!(seen.clears > 100, "{seen:?}");
}

/// A table that already holds entries keeps its sparse index, so rows
/// past the offered bank stay legal.
#[test]
fn a_table_with_entries_keeps_its_index() {
    let mut t: MithrilTable = MithrilTable::new(4);
    t.on_activate(500);
    t.use_flat_index(100);
    t.on_activate(700);
    assert!(t.contains(500) && t.contains(700));
    // Emptied, it moves.
    t.clear();
    t.use_flat_index(100);
    t.on_activate(99);
    assert!(t.contains(99) && !t.contains(INVALID_ROW));
}

#[test]
#[should_panic(expected = "past the index's 100 keys")]
fn a_flat_table_refuses_rows_past_the_bank() {
    let mut t: MithrilTable = MithrilTable::new(4);
    t.use_flat_index(100);
    t.on_activate(100);
}
