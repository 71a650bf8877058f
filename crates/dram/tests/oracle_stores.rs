//! Differential test of the oracle's two counter stores: the sparse hash
//! of [`RowHammerOracle::new`] and the flat per-row array of
//! [`RowHammerOracle::flat`] must answer every query identically.

use mithril_dram::{RowHammerOracle, RowId};

/// Rows of the bank under test: small, so every row is checked after
/// every command.
const ROWS: u64 = 64;

/// One command of the stream both oracles are driven with.
#[derive(Debug, Clone, Copy)]
enum Op {
    Act(RowId),
    Refresh(RowId),
    RangeRefresh(RowId, RowId),
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

    /// ACTs (of the edge rows `0` and `ROWS − 1` one time in eight),
    /// single-row refreshes and auto-refresh groups; a refresh may reach
    /// past the bank, and a group may start past it.
    fn op(&mut self) -> Op {
        match self.below(20) {
            0 => Op::Act(0),
            1 => Op::Act(ROWS - 1),
            2..=15 => Op::Act(self.below(ROWS)),
            16..=18 => Op::Refresh(self.below(ROWS + 8)),
            _ => {
                let lo = self.below(ROWS + 8);
                Op::RangeRefresh(lo, lo + self.below(12))
            }
        }
    }
}

/// Same stream, same answers: every row's disturbance (rows past the bank
/// included) and the high-water mark after every command, and the flips,
/// in order, at the end.
#[test]
fn flat_and_sparse_stores_agree() {
    let mut runs_with_flips = 0;
    let mut runs = 0;
    for seed in 0..48 {
        for blast_radius in [1, 2] {
            let mut rng = Rng(seed);
            let flip_th = 2 + rng.below(10);
            let mut sparse = RowHammerOracle::new(flip_th, blast_radius, ROWS);
            let mut flat = RowHammerOracle::flat(flip_th, blast_radius, ROWS);
            for i in 0..400 {
                let op = rng.op();
                for o in [&mut sparse, &mut flat] {
                    match op {
                        Op::Act(row) => o.on_activate(row),
                        Op::Refresh(row) => o.on_row_refreshed(row),
                        Op::RangeRefresh(lo, hi) => o.on_rows_refreshed(lo, hi),
                    }
                }
                for row in 0..ROWS + 2 {
                    assert_eq!(
                        sparse.disturbance(row),
                        flat.disturbance(row),
                        "seed {seed}, radius {blast_radius}: row {row} after command {i} ({op:?})"
                    );
                }
                assert_eq!(sparse.max_disturbance(), flat.max_disturbance());
            }
            assert_eq!(sparse.flips(), flat.flips(), "seed {seed}");
            runs += 1;
            runs_with_flips += usize::from(!flat.flips().is_empty());
        }
    }
    // FlipTH is small enough that the comparison of flips is not vacuous.
    assert!(
        runs_with_flips * 2 > runs,
        "only {runs_with_flips} of {runs} runs flipped"
    );
}

/// Refreshes before the first ACT (when the flat store holds no array
/// yet) and past the bank are ignored by both stores.
#[test]
fn refreshes_before_any_act_are_ignored() {
    for mut o in [
        RowHammerOracle::new(5, 1, ROWS),
        RowHammerOracle::flat(5, 1, ROWS),
    ] {
        o.on_row_refreshed(3);
        o.on_row_refreshed(ROWS + 3);
        o.on_rows_refreshed(0, ROWS + 8);
        o.on_rows_refreshed(ROWS + 4, ROWS + 8);
        o.on_activate(ROWS - 1);
        assert_eq!(o.disturbance(ROWS - 2), 1);
        assert_eq!(o.disturbance(ROWS), 0);
        o.on_rows_refreshed(ROWS - 4, ROWS + 8);
        assert_eq!(o.disturbance(ROWS - 2), 0);
        assert_eq!(o.max_disturbance(), 1);
    }
}
