//! Differential tests: the Stream-Summary bucket table must make
//! decisions *identical* to the retained linear-scan reference
//! ([`mithril::NaiveTable`]) — same RFM selections, same evictions, same
//! row resets and clears, same spreads, same estimates — on random and
//! adversarial streams.
//!
//! `NaiveTable` uses unbounded `u64` counters, so running it against the
//! wrapping `u16` production table also re-proves the Section IV-E
//! wrapping-counter claim along the way.
//!
//! Every stream runs on both row-index stores: the sparse index a table is
//! built with, and the flat per-row index of
//! [`MithrilTable::use_flat_index`] (over a bank of [`ROWS`] rows, which
//! every activated row lies in).

use mithril::{MithrilTable, NaiveTable};
use proptest::prelude::*;

/// Rows of the bank the flat index covers.
const ROWS: u64 = 1 << 14;

/// An empty table of `cap` entries, on the flat row index if `flat`.
fn table<C: mithril::Counter>(cap: usize, flat: bool) -> MithrilTable<C> {
    let mut t = MithrilTable::new(cap);
    if flat {
        t.use_flat_index(ROWS);
    }
    t
}

/// One step of a differential run.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    Act(u64),
    Rfm,
    ResetRow(u64),
    Clear,
}

/// Applies `cmd` (step `n`) to both tables, asserting equal outcomes and
/// an equal spread afterwards.
fn step<C: mithril::Counter>(
    fast: &mut MithrilTable<C>,
    naive: &mut NaiveTable,
    cmd: Cmd,
    n: usize,
) {
    match cmd {
        Cmd::Act(row) => {
            fast.on_activate(row);
            naive.on_activate(row);
            assert_eq!(fast.contains(row), naive.contains(row));
        }
        Cmd::Rfm => assert_eq!(fast.on_rfm(), naive.on_rfm(), "RFM diverged at step {n}"),
        Cmd::ResetRow(row) => assert_eq!(
            fast.reset_row(row),
            naive.reset_row(row),
            "reset_row({row}) diverged at step {n}"
        ),
        Cmd::Clear => {
            fast.clear();
            naive.clear();
        }
    }
    assert_eq!(fast.spread(), naive.spread(), "spread diverged at step {n}");
}

/// Asserts both tables hold the same `(row, count_above_min)` entries.
fn assert_same_contents<C: mithril::Counter>(fast: &MithrilTable<C>, naive: &NaiveTable) {
    assert_eq!(fast.len(), naive.len());
    let mut a: Vec<_> = fast.iter_relative().collect();
    let mut b: Vec<_> = naive.iter_relative().collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "final table contents diverged");
}

/// Drives both tables through `cmds`, asserting equal observable behavior
/// at every step and equal contents at the end.
fn assert_lockstep<C: mithril::Counter>(
    fast: &mut MithrilTable<C>,
    naive: &mut NaiveTable,
    cmds: impl Iterator<Item = Cmd>,
) {
    for (n, cmd) in cmds.enumerate() {
        step(fast, naive, cmd, n);
    }
    assert_same_contents(fast, naive);
}

/// Splitmix-style deterministic stream generator for the long runs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// 10^5-activation uniform-random stream with an RFM cadence, several
/// capacities. Also checks per-step selections and estimates.
#[test]
fn random_stream_100k_identical_decisions() {
    for flat in [false, true] {
        for &(cap, universe, rfm_every) in &[
            (4usize, 10u64, 16u64),
            (16, 48, 32),
            (64, 256, 64),
            (128, 96, 24),
        ] {
            let mut fast: MithrilTable<u16> = table(cap, flat);
            let mut naive = NaiveTable::new(cap);
            let mut rng = Lcg(0xC0FFEE ^ cap as u64);
            let mut acts = 0u64;
            let mut step = 0u64;
            while acts < 100_000 {
                let row = rng.next() % universe;
                fast.on_activate(row);
                naive.on_activate(row);
                acts += 1;
                if step % rfm_every == rfm_every - 1 {
                    assert_eq!(
                        fast.on_rfm(),
                        naive.on_rfm(),
                        "cap {cap}, flat {flat}: RFM diverged after {acts} ACTs"
                    );
                }
                if step.is_multiple_of(97) {
                    let probe = rng.next() % universe;
                    assert_eq!(
                        fast.estimate_above_min(probe),
                        naive.estimate_above_min(probe)
                    );
                    assert_eq!(fast.spread(), naive.spread());
                }
                step += 1;
            }
        }
    }
}

/// Adversarial streams: double-sided hammer with camouflage, round-robin
/// eviction churn over capacity + 1 rows (the classic Space-Saving worst
/// case), and a sweeping wave. All at least 10^5 activations.
#[test]
fn attack_streams_100k_identical_decisions() {
    for flat in [false, true] {
        // Double-sided hammer: two hot aggressors, periodic camouflage noise.
        {
            let mut fast: MithrilTable<u16> = table(16, flat);
            let mut naive = NaiveTable::new(16);
            let mut rng = Lcg(7);
            let cmds = (0..120_000u64).map(|i| {
                if i % 48 == 47 {
                    Cmd::Rfm
                } else if i % 3 == 2 {
                    Cmd::Act(1000 + rng.next() % 64) // camouflage
                } else if i % 2 == 0 {
                    Cmd::Act(499)
                } else {
                    Cmd::Act(501)
                }
            });
            assert_lockstep(&mut fast, &mut naive, cmds);
        }
        // Round-robin over capacity + 1 rows: every miss evicts.
        {
            let cap = 32usize;
            let mut fast: MithrilTable<u16> = table(cap, flat);
            let mut naive = NaiveTable::new(cap);
            let cmds = (0..110_000u64).map(|i| {
                if i % 128 == 127 {
                    Cmd::Rfm
                } else {
                    Cmd::Act(i % (cap as u64 + 1))
                }
            });
            assert_lockstep(&mut fast, &mut naive, cmds);
        }
        // Sweeping wave: rows visited in bursts that shift over time.
        {
            let mut fast: MithrilTable<u16> = table(24, flat);
            let mut naive = NaiveTable::new(24);
            let cmds = (0..100_000u64).map(|i| {
                if i % 64 == 63 {
                    Cmd::Rfm
                } else {
                    Cmd::Act((i / 500) % 96 + (i % 5))
                }
            });
            assert_lockstep(&mut fast, &mut naive, cmds);
        }
        // Graphene-style: rows reset as they cross a threshold, table cleared
        // every window, on the unbounded table Graphene tracks with.
        {
            let mut fast: MithrilTable<u64> = table(20, flat);
            let mut naive = NaiveTable::new(20);
            let mut rng = Lcg(11);
            let cmds = (0..100_000u64).map(|i| {
                let row = rng.next() % 40;
                if i % 25_000 == 24_999 {
                    Cmd::Clear
                } else if i % 50 == 49 {
                    Cmd::ResetRow(row)
                } else {
                    Cmd::Act(row)
                }
            });
            assert_lockstep(&mut fast, &mut naive, cmds);
        }
    }
}

/// A row the command streams never activate: its estimate is the minimum.
const OFF_TABLE: u64 = 1 << 40;

fn cmd_stream() -> impl Strategy<Value = Vec<Cmd>> {
    prop::collection::vec(
        prop_oneof![
            40 => (0u64..48).prop_map(Cmd::Act),
            8 => (10_000u64..10_064).prop_map(Cmd::Act), // cold tail
            4 => Just(Cmd::Rfm),
            3 => (0u64..48).prop_map(Cmd::ResetRow),
            1 => Just(Cmd::Clear),
        ],
        1..3000,
    )
}

proptest! {
    /// Random interleavings of ACTs, RFMs, row resets and clears: bucket
    /// and naive tables stay in lockstep at every step, for any capacity.
    #[test]
    fn proptest_lockstep_u16(stream in cmd_stream(), cap in 1usize..40, flat in any::<bool>()) {
        let mut fast: MithrilTable<u16> = table(cap, flat);
        let mut naive = NaiveTable::new(cap);
        assert_lockstep(&mut fast, &mut naive, stream.iter().copied());
    }

    /// The wide (u64) bucket table matches the naive reference too — this
    /// isolates bucket-structure bugs from wrapping-counter bugs — and so
    /// do its absolute Counter-based Summary estimates, on- and off-table.
    #[test]
    fn proptest_lockstep_u64(stream in cmd_stream(), cap in 1usize..24, flat in any::<bool>()) {
        let mut fast: MithrilTable<u64> = table(cap, flat);
        let mut naive = NaiveTable::new(cap);
        for (n, &cmd) in stream.iter().enumerate() {
            step(&mut fast, &mut naive, cmd, n);
            if let Cmd::Act(row) | Cmd::ResetRow(row) = cmd {
                prop_assert_eq!(fast.estimate(row), naive.estimate(row), "step {}", n);
            }
            prop_assert_eq!(fast.estimate(OFF_TABLE), naive.estimate(OFF_TABLE), "step {}", n);
        }
        assert_same_contents(&fast, &naive);
    }
}
